//! The job server: one shared runtime, many tenants, fair dispatch.
//!
//! One [`QdpContext`] is shared by every tenant — generated kernels,
//! auto-tuned block sizes and persistent-store entries are warm for tenant
//! N+1 the moment tenant N has run the same expression shape. Each
//! worker checks a simulated stream out of a [`StreamPool`] and binds it
//! as its thread's stream around the job, so up to `workers` jobs — plain
//! `chroma-mini` library calls — interleave on the device exactly like
//! concurrent CUDA clients sharing a GPU.
//!
//! Scheduling is deficit round-robin over per-tenant FIFOs with
//! [`JobSpec::cost`] weights: a tenant streaming expensive trajectories
//! cannot starve a tenant submitting cheap measurements. Admission control
//! is a global bounded queue plus a per-tenant outstanding cap; overload
//! surfaces as [`ServeError::Rejected`] at submit time, never as a panic,
//! an unbounded queue, or a deadlock.

use crate::error::{RejectReason, ServeError};
use crate::job::{JobResult, JobSpec, TenantSpec};
use chroma_mini::gauge::gaussian_fermion;
use chroma_mini::{cg_solve, GaugeField, Hmc, WilsonDirac};
use qdp_core::prelude::*;
use qdp_gpu_sim::StreamPool;
use qdp_rng::{SeedableRng, StdRng};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// Serving-layer knobs. The runtime itself is configured by the embedded
/// [`QdpConfig`] — `qdp-serve` never reads environment variables.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Runtime configuration for the shared context (opt level, fusion,
    /// persistent kernel store, telemetry, …).
    pub qdp: QdpConfig,
    /// Per-tenant lattice geometry (tenants share the context, so they
    /// share one geometry).
    pub geometry: Geometry,
    /// Simulated device model.
    pub device: DeviceConfig,
    /// Worker threads == stream-pool size == max jobs in flight.
    pub workers: usize,
    /// Global bounded-queue capacity (queued, not running, jobs).
    pub queue_cap: usize,
    /// Max outstanding (queued + running) jobs per tenant.
    pub tenant_cap: usize,
}

impl ServeConfig {
    /// Defaults sized for the probe workloads: 4⁴ tenant lattices, eight
    /// workers/streams, a 64-deep queue, four outstanding jobs per tenant.
    pub fn new(qdp: QdpConfig) -> ServeConfig {
        ServeConfig {
            qdp,
            geometry: Geometry::symmetric(4),
            device: DeviceConfig::k20x_ecc_off(),
            workers: 8,
            queue_cap: 64,
            tenant_cap: 4,
        }
    }
}

/// Handle on a submitted job; resolves to its result.
#[derive(Debug)]
pub struct JobTicket {
    rx: Receiver<Result<JobResult, ServeError>>,
}

impl JobTicket {
    /// Block until the job finishes (or the server drops it at shutdown).
    pub fn wait(self) -> Result<JobResult, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::Disconnected))
    }
}

struct QueuedJob {
    tenant: usize,
    spec: JobSpec,
    submitted: Instant,
    reply: Sender<Result<JobResult, ServeError>>,
}

struct Sched {
    queues: Vec<VecDeque<QueuedJob>>,
    deficit: Vec<u64>,
    inflight: Vec<usize>,
    queued_total: usize,
    cursor: usize,
    shutdown: bool,
}

struct TenantState {
    gauge: GaugeField,
    rng: StdRng,
}

struct Tenant {
    name: String,
    state: Mutex<TenantState>,
    completed: AtomicU64,
}

struct Core {
    ctx: Arc<QdpContext>,
    pool: Arc<StreamPool>,
    tenants: Vec<Tenant>,
    sched: Mutex<Sched>,
    work_cv: Condvar,
    idle_cv: Condvar,
    queue_cap: usize,
    tenant_cap: usize,
    completed: AtomicU64,
    rejected: AtomicU64,
    // completion order of (tenant id) — the fairness tests' oracle
    order: Mutex<Vec<u32>>,
    // pool streams' timeline fronts at startup, to count streams used
    stream_baseline: Vec<(StreamId, f64)>,
}

/// Aggregate serving statistics (also mirrored into telemetry: the
/// `serve.job_latency_ms` histogram carries p50/p99 in every
/// [`qdp_telemetry::ProfileReport`], `serve.jobs_per_sec` is a gauge).
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Jobs completed (success or job-level error).
    pub completed: u64,
    /// Jobs turned away by admission control.
    pub rejected: u64,
    /// Completions per tenant, in registration order.
    pub per_tenant_completed: Vec<u64>,
    /// Completed jobs per wall-clock second since the server started.
    pub jobs_per_sec: f64,
    /// Pool streams whose simulated timeline advanced past its startup
    /// front — the number of distinct device tracks jobs actually ran on.
    pub streams_used: usize,
    /// Median job latency (queue wait + execution), milliseconds.
    pub p50_latency_ms: f64,
    /// 99th-percentile job latency, milliseconds.
    pub p99_latency_ms: f64,
}

/// The serving front-end. See the module docs for the architecture.
pub struct Server {
    core: Arc<Core>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    started: Instant,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Server {
    /// Bring up a server: build the shared context from `cfg.qdp`, warm
    /// one gauge configuration per tenant, and start the worker pool.
    pub fn start(cfg: &ServeConfig, tenants: &[TenantSpec]) -> Server {
        assert!(cfg.workers > 0, "need at least one worker");
        assert!(!tenants.is_empty(), "need at least one tenant");
        let ctx = QdpContext::builder(cfg.geometry.clone())
            .device(cfg.device.clone())
            .config(cfg.qdp.clone())
            .build();
        // the serving layer IS the metrics endpoint: record unconditionally
        ctx.telemetry().enable();
        let pool = StreamPool::new(Arc::clone(ctx.device()), "serve", cfg.workers);
        let tenants: Vec<Tenant> = tenants
            .iter()
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(t.seed);
                let gauge = GaugeField::warm(&ctx, &mut rng, t.warm_eps);
                Tenant {
                    name: t.name.clone(),
                    state: Mutex::new(TenantState { gauge, rng }),
                    completed: AtomicU64::new(0),
                }
            })
            .collect();
        let n = tenants.len();
        let stream_baseline = pool
            .streams()
            .iter()
            .map(|&s| (s, pool.device().stream_now(s)))
            .collect();
        let core = Arc::new(Core {
            ctx,
            pool,
            tenants,
            sched: Mutex::new(Sched {
                queues: (0..n).map(|_| VecDeque::new()).collect(),
                deficit: vec![0; n],
                inflight: vec![0; n],
                queued_total: 0,
                cursor: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            queue_cap: cfg.queue_cap,
            tenant_cap: cfg.tenant_cap,
            completed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            order: Mutex::new(Vec::new()),
            stream_baseline,
        });
        let workers = (0..cfg.workers)
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(core))
                    .expect("spawn worker")
            })
            .collect();
        Server {
            core,
            workers: Mutex::new(workers),
            started: Instant::now(),
        }
    }

    /// The shared runtime context (all tenants' JIT cache and tuner).
    pub fn context(&self) -> &Arc<QdpContext> {
        &self.core.ctx
    }

    /// Submit a job for `tenant`. Returns a ticket immediately; admission
    /// control may turn the job away with [`ServeError::Rejected`].
    pub fn submit(&self, tenant: usize, spec: JobSpec) -> Result<JobTicket, ServeError> {
        let core = &self.core;
        if tenant >= core.tenants.len() {
            return Err(ServeError::UnknownTenant(tenant));
        }
        let mut s = lock(&core.sched);
        if s.shutdown {
            return Err(self.reject(tenant, RejectReason::ShuttingDown));
        }
        if s.queues[tenant].len() + s.inflight[tenant] >= core.tenant_cap {
            return Err(self.reject(tenant, RejectReason::TenantBusy { cap: core.tenant_cap }));
        }
        if s.queued_total >= core.queue_cap {
            return Err(self.reject(tenant, RejectReason::QueueFull { cap: core.queue_cap }));
        }
        let (tx, rx) = channel();
        s.queues[tenant].push_back(QueuedJob {
            tenant,
            spec,
            submitted: Instant::now(),
            reply: tx,
        });
        s.queued_total += 1;
        drop(s);
        core.work_cv.notify_one();
        Ok(JobTicket { rx })
    }

    fn reject(&self, tenant: usize, reason: RejectReason) -> ServeError {
        self.core.rejected.fetch_add(1, Ordering::Relaxed);
        let tel = self.core.ctx.telemetry();
        tel.count("serve.rejected", 1);
        tel.count(
            &format!("serve.tenant.{}.rejected", self.core.tenants[tenant].name),
            1,
        );
        ServeError::Rejected(reason)
    }

    /// Submit and block for the result.
    pub fn submit_wait(&self, tenant: usize, spec: JobSpec) -> Result<JobResult, ServeError> {
        self.submit(tenant, spec)?.wait()
    }

    /// Block until every queued and in-flight job has completed.
    pub fn drain(&self) {
        let mut s = lock(&self.core.sched);
        while s.queued_total > 0 || s.inflight.iter().sum::<usize>() > 0 {
            s = self
                .core
                .idle_cv
                .wait(s)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Tenant ids in the order their jobs completed (the fairness oracle:
    /// with one worker this is exactly the dispatch order).
    pub fn completion_order(&self) -> Vec<u32> {
        lock(&self.core.order).clone()
    }

    /// Aggregate statistics; also refreshes the `serve.jobs_per_sec` gauge
    /// so the next [`qdp_telemetry::ProfileReport`] carries it.
    pub fn stats(&self) -> ServerStats {
        let completed = self.core.completed.load(Ordering::Relaxed);
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let jobs_per_sec = completed as f64 / elapsed;
        let tel = self.core.ctx.telemetry();
        tel.gauge("serve.jobs_per_sec", jobs_per_sec);
        let report = tel.profile_report();
        let (p50, p99) = report
            .hists
            .get("serve.job_latency_ms")
            .map(|h| (h.p50, h.p99))
            .unwrap_or((0.0, 0.0));
        let device = self.core.pool.device();
        let streams_used = self
            .core
            .stream_baseline
            .iter()
            .filter(|(s, t0)| device.stream_now(*s) > *t0)
            .count();
        ServerStats {
            completed,
            rejected: self.core.rejected.load(Ordering::Relaxed),
            per_tenant_completed: self
                .core
                .tenants
                .iter()
                .map(|t| t.completed.load(Ordering::Relaxed))
                .collect(),
            jobs_per_sec,
            streams_used,
            p50_latency_ms: p50,
            p99_latency_ms: p99,
        }
    }

    /// Stop accepting work, bounce every still-queued job back to its
    /// submitter as `Rejected(ShuttingDown)`, finish in-flight jobs, and
    /// join the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut s = lock(&self.core.sched);
            s.shutdown = true;
            let bounced: Vec<QueuedJob> =
                s.queues.iter_mut().flat_map(|q| q.drain(..)).collect();
            s.queued_total -= bounced.len();
            for job in bounced {
                let _ = job
                    .reply
                    .send(Err(ServeError::Rejected(RejectReason::ShuttingDown)));
            }
        }
        self.core.work_cv.notify_all();
        let handles: Vec<_> = lock(&self.workers).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Deficit-round-robin quantum added per top-up round.
const QUANTUM: u64 = 8;

/// Deficit-round-robin pick: scan tenant queues from the cursor, dispatch
/// the first whose deficit covers its head-of-line cost; if nobody can
/// afford their head job, top every backlogged tenant up by [`QUANTUM`]
/// and rescan (terminates: costs are bounded, the quantum is positive).
fn pick(s: &mut Sched) -> Option<QueuedJob> {
    if s.queued_total == 0 {
        return None;
    }
    let n = s.queues.len();
    loop {
        for k in 0..n {
            let t = (s.cursor + k) % n;
            let Some(front) = s.queues[t].front() else {
                continue;
            };
            let cost = front.spec.cost();
            if s.deficit[t] >= cost {
                s.deficit[t] -= cost;
                let job = s.queues[t].pop_front().expect("front checked");
                if s.queues[t].is_empty() {
                    // classic DRR: an emptied queue forfeits its leftover
                    // deficit (no banking credit while idle)
                    s.deficit[t] = 0;
                }
                s.cursor = t;
                s.queued_total -= 1;
                s.inflight[t] += 1;
                return Some(job);
            }
        }
        for t in 0..n {
            if !s.queues[t].is_empty() {
                s.deficit[t] += QUANTUM;
            }
        }
    }
}

fn worker_loop(core: Arc<Core>) {
    loop {
        let job = {
            let mut s = lock(&core.sched);
            loop {
                if let Some(job) = pick(&mut s) {
                    break job;
                }
                if s.shutdown {
                    return;
                }
                s = core
                    .work_cv
                    .wait(s)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let tenant = job.tenant;
        let lease = core.pool.checkout();
        let tel = core.ctx.telemetry();
        let result = {
            let _span = tel.span("serve", job.spec.kind());
            let _bound = core.ctx.device().bind_stream(lease.id());
            let mut st = lock(&core.tenants[tenant].state);
            run_job(&job.spec, &mut st)
        };
        drop(lease);
        let latency_ms = job.submitted.elapsed().as_secs_f64() * 1e3;
        tel.observe("serve.job_latency_ms", latency_ms);
        tel.count("serve.completed", 1);
        tel.count(
            &format!("serve.tenant.{}.completed", core.tenants[tenant].name),
            1,
        );
        core.tenants[tenant].completed.fetch_add(1, Ordering::Relaxed);
        core.completed.fetch_add(1, Ordering::Relaxed);
        lock(&core.order).push(tenant as u32);
        // settle the admission accounting BEFORE releasing the reply: a
        // client that pipelines a new request the instant it sees this
        // answer must not race a still-counted `inflight` slot into a
        // spurious TenantBusy rejection
        {
            let mut s = lock(&core.sched);
            s.inflight[tenant] -= 1;
        }
        core.idle_cv.notify_all();
        let _ = job.reply.send(result);
    }
}

/// A job is the library entry point itself, run on whatever stream the
/// calling worker has bound.
fn run_job(spec: &JobSpec, st: &mut TenantState) -> Result<JobResult, ServeError> {
    let g = &st.gauge;
    match spec {
        JobSpec::Plaquette => g.plaquette().map(JobResult::Plaquette),
        JobSpec::CgSolve {
            mass,
            seed,
            tol,
            max_iters,
        } => {
            let ctx = g.context();
            let m = WilsonDirac::new(g, *mass, None);
            let b = gaussian_fermion(ctx, &mut StdRng::seed_from_u64(*seed));
            let x = LatticeFermion::<f64>::new(ctx);
            cg_solve(&m, &x, &b, *tol, *max_iters as usize).map(JobResult::CgSolve)
        }
        JobSpec::HmcTrajectory { beta, dt, n_steps } => {
            Hmc::pure_gauge(*beta, *dt, *n_steps as usize)
                .trajectory(g, &mut st.rng)
                .map(JobResult::Hmc)
        }
    }
    .map_err(|e| ServeError::Job(format!("{e:?}")))
}
