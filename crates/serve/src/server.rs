//! The job server: one shared runtime, many tenants, fair dispatch.
//!
//! One [`QdpContext`] is shared by every tenant — generated kernels,
//! auto-tuned block sizes and persistent-store entries are warm for tenant
//! N+1 the moment tenant N has run the same expression shape. Worker `i`
//! owns simulated stream `serve-<i>` and keeps it bound as its thread's
//! stream for its whole life, so up to `workers` jobs — plain `chroma-mini`
//! library calls — interleave on the device exactly like concurrent CUDA
//! clients sharing a GPU.
//!
//! Scheduling is deficit round-robin over per-tenant FIFOs with
//! [`JobSpec::cost`] weights: a tenant streaming expensive trajectories
//! cannot starve a tenant submitting cheap measurements. Admission control
//! is a global bounded queue plus a per-tenant outstanding cap; overload
//! surfaces as [`ServeError::Rejected`] at submit time, never as a panic,
//! an unbounded queue, or a deadlock.
//!
//! All shared serving state — queues, admission accounting and every
//! statistic — sits in one `Sched` under one lock; the other sync objects
//! are its two condvars, the per-tenant state locks and the reply channels.

use crate::error::{RejectReason, ServeError};
use crate::job::{JobResult, JobSpec, TenantSpec};
use chroma_mini::gauge::gaussian_fermion;
use chroma_mini::{cg_solve, GaugeField, Hmc, WilsonDirac};
use qdp_core::prelude::*;
use qdp_rng::{SeedableRng, StdRng};
use qdp_telemetry::sync::Mutex;
use qdp_telemetry::Hist;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, PoisonError};
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
    /// Worker threads == max jobs in flight; each worker owns one device
    /// stream, `serve-<i>`.
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

/// The one lock's contents: dispatch state, admission accounting and the
/// serving statistics, all settled in the same critical sections.
struct Sched {
    queues: Vec<VecDeque<QueuedJob>>,
    deficit: Vec<u64>,
    inflight: Vec<usize>,
    queued_total: usize,
    cursor: usize,
    shutdown: bool,
    workers: Vec<JoinHandle<()>>,
    completed: Vec<u64>,
    rejected: u64,
    // completion order of (tenant id) — the fairness tests' oracle
    order: Vec<u32>,
    latency_ms: Hist,
}

struct TenantState {
    gauge: GaugeField,
    rng: StdRng,
}

struct Tenant {
    name: String,
    state: Mutex<TenantState>,
}

struct Core {
    ctx: Arc<QdpContext>,
    tenants: Vec<Tenant>,
    sched: Mutex<Sched>,
    work_cv: Condvar,
    idle_cv: Condvar,
    queue_cap: usize,
    tenant_cap: usize,
    // each worker's stream with its timeline front at startup, to count
    // streams used
    streams: Vec<(StreamId, f64)>,
}

/// Aggregate serving statistics. They are kept whether or not profiling
/// is on; with profiling on, the telemetry registry mirrors them (the
/// `serve.job_latency_ms` histogram carries the same p50/p99 in every
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
    /// Worker streams whose simulated timeline advanced past its startup
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
    started: Instant,
}

impl Server {
    /// Bring up a server: build the shared context from `cfg.qdp`, warm
    /// one gauge configuration per tenant, and start the workers, each on
    /// its own stream.
    pub fn start(cfg: &ServeConfig, tenants: &[TenantSpec]) -> Server {
        assert!(cfg.workers > 0, "need at least one worker");
        assert!(!tenants.is_empty(), "need at least one tenant");
        let ctx = QdpContext::builder(cfg.geometry.clone())
            .device(cfg.device.clone())
            .config(cfg.qdp.clone())
            .build();
        let streams: Vec<StreamId> = (0..cfg.workers)
            .map(|i| ctx.device().create_stream(&format!("serve-{i}")))
            .collect();
        let tenants: Vec<Tenant> = tenants
            .iter()
            .map(|t| {
                let mut rng = StdRng::seed_from_u64(t.seed);
                let gauge = GaugeField::warm(&ctx, &mut rng, t.warm_eps);
                Tenant {
                    name: t.name.clone(),
                    state: Mutex::new(TenantState { gauge, rng }),
                }
            })
            .collect();
        let n = tenants.len();
        // fronts read after the warm-up, so only served jobs count as use
        let streams = streams
            .into_iter()
            .map(|s| (s, ctx.device().stream_now(s)))
            .collect();
        let core = Arc::new(Core {
            ctx,
            tenants,
            sched: Mutex::new(Sched {
                queues: (0..n).map(|_| VecDeque::new()).collect(),
                deficit: vec![0; n],
                inflight: vec![0; n],
                queued_total: 0,
                cursor: 0,
                shutdown: false,
                workers: Vec::new(),
                completed: vec![0; n],
                rejected: 0,
                order: Vec::new(),
                latency_ms: Hist::new(),
            }),
            work_cv: Condvar::new(),
            idle_cv: Condvar::new(),
            queue_cap: cfg.queue_cap,
            tenant_cap: cfg.tenant_cap,
            streams,
        });
        let workers = core
            .streams
            .iter()
            .enumerate()
            .map(|(i, &(stream, _))| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(core, stream))
                    .expect("spawn worker")
            })
            .collect();
        core.sched.lock().workers = workers;
        Server {
            core,
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
        let mut s = core.sched.lock();
        if s.shutdown {
            return Err(core.reject(&mut s, tenant, RejectReason::ShuttingDown));
        }
        if s.queues[tenant].len() + s.inflight[tenant] >= core.tenant_cap {
            let reason = RejectReason::TenantBusy {
                cap: core.tenant_cap,
            };
            return Err(core.reject(&mut s, tenant, reason));
        }
        if s.queued_total >= core.queue_cap {
            let reason = RejectReason::QueueFull {
                cap: core.queue_cap,
            };
            return Err(core.reject(&mut s, tenant, reason));
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

    /// Submit and block for the result.
    pub fn submit_wait(&self, tenant: usize, spec: JobSpec) -> Result<JobResult, ServeError> {
        self.submit(tenant, spec)?.wait()
    }

    /// Block until every queued and in-flight job has completed.
    pub fn drain(&self) {
        let mut s = self.core.sched.lock();
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
        self.core.sched.lock().order.clone()
    }

    /// Aggregate statistics; also refreshes the `serve.jobs_per_sec` gauge
    /// so the next profiled [`qdp_telemetry::ProfileReport`] carries it.
    pub fn stats(&self) -> ServerStats {
        let device = self.core.ctx.device();
        let streams_used = self
            .core
            .streams
            .iter()
            .filter(|(s, t0)| device.stream_now(*s) > *t0)
            .count();
        let elapsed = self.started.elapsed().as_secs_f64().max(1e-9);
        let s = self.core.sched.lock();
        let completed: u64 = s.completed.iter().sum();
        let stats = ServerStats {
            completed,
            rejected: s.rejected,
            per_tenant_completed: s.completed.clone(),
            jobs_per_sec: completed as f64 / elapsed,
            streams_used,
            p50_latency_ms: s.latency_ms.quantile(0.50),
            p99_latency_ms: s.latency_ms.quantile(0.99),
        };
        drop(s);
        self.core
            .ctx
            .telemetry()
            .gauge("serve.jobs_per_sec", stats.jobs_per_sec);
        stats
    }

    /// Stop accepting work, bounce every still-queued job back to its
    /// submitter as `Rejected(ShuttingDown)`, finish in-flight jobs, and
    /// join the workers. Idempotent.
    pub fn shutdown(&self) {
        let handles = {
            let mut s = self.core.sched.lock();
            s.shutdown = true;
            let bounced: Vec<QueuedJob> =
                s.queues.iter_mut().flat_map(|q| q.drain(..)).collect();
            s.queued_total -= bounced.len();
            for job in bounced {
                let _ = job
                    .reply
                    .send(Err(ServeError::Rejected(RejectReason::ShuttingDown)));
            }
            std::mem::take(&mut s.workers)
        };
        self.core.work_cv.notify_all();
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

impl Core {
    /// Count a rejection (the caller holds the scheduler lock) and build
    /// its error.
    fn reject(&self, s: &mut Sched, tenant: usize, reason: RejectReason) -> ServeError {
        s.rejected += 1;
        let tel = self.ctx.telemetry();
        if tel.enabled() {
            tel.count("serve.rejected", 1);
            tel.count(
                &format!("serve.tenant.{}.rejected", self.tenants[tenant].name),
                1,
            );
        }
        ServeError::Rejected(reason)
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

fn worker_loop(core: Arc<Core>, stream: StreamId) {
    let _bound = core.ctx.device().bind_stream(stream);
    let tel = core.ctx.telemetry();
    loop {
        let job = {
            let mut s = core.sched.lock();
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
        let result = {
            let _span = tel.span("serve", job.spec.kind());
            let mut st = core.tenants[tenant].state.lock();
            run_job(&job.spec, &mut st)
        };
        let latency_ms = job.submitted.elapsed().as_secs_f64() * 1e3;
        if tel.enabled() {
            tel.observe("serve.job_latency_ms", latency_ms);
            tel.count("serve.completed", 1);
            tel.count(
                &format!("serve.tenant.{}.completed", core.tenants[tenant].name),
                1,
            );
        }
        // settle the admission accounting BEFORE releasing the reply: a
        // client that pipelines a new request the instant it sees this
        // answer must not race a still-counted `inflight` slot into a
        // spurious TenantBusy rejection
        {
            let mut s = core.sched.lock();
            s.inflight[tenant] -= 1;
            s.completed[tenant] += 1;
            s.order.push(tenant as u32);
            s.latency_ms.observe(latency_ms);
        }
        core.idle_cv.notify_all();
        let _ = job.reply.send(result);
    }
}

/// A job is the library entry point itself, run on the calling worker's
/// bound stream.
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
