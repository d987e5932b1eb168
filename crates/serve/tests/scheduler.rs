//! Scheduler edge cases: saturation, fairness, warm starts — and the
//! served-job oracle: a job's answer is the library call's answer.

use chroma_mini::gauge::gaussian_fermion;
use chroma_mini::{cg_solve, GaugeField, Hmc, WilsonDirac};
use qdp_core::prelude::*;
use qdp_rng::{SeedableRng, StdRng};
use qdp_serve::{
    JobResult, JobSpec, JobTicket, RejectReason, ServeConfig, ServeError, Server, TenantSpec,
};
use std::collections::VecDeque;

fn tenants(n: usize) -> Vec<TenantSpec> {
    (0..n)
        .map(|t| TenantSpec::new(format!("t{t}"), 100 + t as u64))
        .collect()
}

fn small_cfg() -> ServeConfig {
    let mut cfg = ServeConfig::new(QdpConfig::new());
    cfg.geometry = Geometry::symmetric(4);
    cfg
}

const SLOW_HMC: JobSpec = JobSpec::HmcTrajectory {
    beta: 5.5,
    dt: 0.01,
    n_steps: 6,
};

/// A served job runs the library entry point on its worker's stream, so its
/// result must be bit-identical to calling the library directly, unbound,
/// on a fresh context with the same tenant seed.
#[test]
fn served_results_equal_direct_library_calls() {
    let mut cfg = small_cfg();
    cfg.workers = 2;
    let tenant = TenantSpec::new("oracle", 4242);
    let cg = JobSpec::CgSolve {
        mass: 0.4,
        seed: 7,
        tol: 1e-8,
        max_iters: 200,
    };
    let server = Server::start(&cfg, std::slice::from_ref(&tenant));
    let served: Vec<JobResult> = [JobSpec::Plaquette, cg, SLOW_HMC, JobSpec::Plaquette]
        .into_iter()
        .map(|spec| server.submit_wait(0, spec).expect("job served"))
        .collect();
    server.shutdown();

    let ctx = QdpContext::builder(cfg.geometry.clone())
        .device(cfg.device.clone())
        .config(cfg.qdp.clone())
        .build();
    let mut rng = StdRng::seed_from_u64(tenant.seed);
    let g = GaugeField::warm(&ctx, &mut rng, tenant.warm_eps);
    let plaquette_before = g.plaquette().unwrap();
    let m = WilsonDirac::new(&g, 0.4, None);
    let b = gaussian_fermion(&ctx, &mut StdRng::seed_from_u64(7));
    let x = LatticeFermion::<f64>::new(&ctx);
    let solve = cg_solve(&m, &x, &b, 1e-8, 200).unwrap();
    assert!(solve.converged);
    let trajectory = Hmc::pure_gauge(5.5, 0.01, 6)
        .trajectory(&g, &mut rng)
        .unwrap();
    assert_eq!(
        served,
        [
            JobResult::Plaquette(plaquette_before),
            JobResult::CgSolve(solve),
            JobResult::Hmc(trajectory),
            JobResult::Plaquette(g.plaquette().unwrap()),
        ]
    );
}

#[test]
fn saturation_rejects_cleanly_and_completes_accepted_jobs() {
    let mut cfg = small_cfg();
    cfg.workers = 1;
    cfg.queue_cap = 2;
    cfg.tenant_cap = 16; // global queue is the binding constraint
    let server = Server::start(&cfg, &tenants(1));
    // occupy the worker so submissions actually pile up in the queue
    let stall = server.submit(0, SLOW_HMC).expect("first job admitted");
    let mut tickets = Vec::new();
    let mut rejected = 0u64;
    for _ in 0..10 {
        match server.submit(0, JobSpec::Plaquette) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Rejected(RejectReason::QueueFull { cap })) => {
                assert_eq!(cap, 2);
                rejected += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(rejected > 0, "overload must surface as Rejected");
    assert!(
        !tickets.is_empty(),
        "some submissions must fit in the queue"
    );
    // every accepted job still completes — no deadlock, no dropped work
    assert!(stall.wait().is_ok());
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    server.drain();
    let stats = server.stats();
    assert_eq!(stats.rejected, rejected);
    server.shutdown();
}

#[test]
fn tenant_cap_rejects_independently_of_global_queue() {
    let mut cfg = small_cfg();
    cfg.workers = 1;
    cfg.queue_cap = 64;
    cfg.tenant_cap = 1;
    let server = Server::start(&cfg, &tenants(2));
    let first = server.submit(0, SLOW_HMC).expect("within cap");
    // same tenant: outstanding == cap → rejected with TenantBusy
    match server.submit(0, JobSpec::Plaquette) {
        Err(ServeError::Rejected(RejectReason::TenantBusy { cap: 1 })) => {}
        other => panic!("expected TenantBusy, got {other:?}"),
    }
    // a different tenant is unaffected by tenant 0's cap
    let other = server.submit(1, JobSpec::Plaquette).expect("tenant 1 admitted");
    assert!(first.wait().is_ok());
    assert!(other.wait().is_ok());
    server.shutdown();
}

/// Deficit round-robin: a tenant streaming expensive trajectories cannot
/// starve a tenant submitting cheap measurements. With one worker the
/// completion order equals the dispatch order, so the order itself is the
/// oracle: all of B's cheap jobs dispatch after A's first expensive job,
/// not after A's whole backlog (FIFO would run A1 A2 A3 A4 then B).
#[test]
fn cheap_tenant_is_not_starved_by_expensive_tenant() {
    let mut cfg = small_cfg();
    cfg.workers = 1;
    cfg.queue_cap = 64;
    cfg.tenant_cap = 8;
    let server = Server::start(&cfg, &tenants(2));
    // stall the single worker so the full backlog queues up first
    let stall = server.submit(0, SLOW_HMC).expect("stall job");
    let mut tickets = Vec::new();
    for _ in 0..4 {
        tickets.push(server.submit(0, SLOW_HMC).expect("A backlog")); // cost 8
    }
    for _ in 0..4 {
        tickets.push(server.submit(1, JobSpec::Plaquette).expect("B backlog")); // cost 1
    }
    assert!(stall.wait().is_ok());
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    server.drain();
    let order = server.completion_order();
    assert_eq!(order.len(), 9);
    let backlog = &order[1..]; // drop the stall job
    // every one of B's 4 cheap jobs runs before A's second expensive job
    let first_b = backlog.iter().position(|&t| t == 1).expect("B ran");
    let last_b = backlog.iter().rposition(|&t| t == 1).expect("B ran");
    let second_a = backlog
        .iter()
        .enumerate()
        .filter(|(_, &t)| t == 0)
        .map(|(i, _)| i)
        .nth(1)
        .expect("A ran more than once");
    assert!(
        first_b <= 1,
        "B must dispatch immediately after A's first job, order: {backlog:?}"
    );
    assert!(
        last_b < second_a,
        "all of B's cheap jobs must precede A's second expensive job, order: {backlog:?}"
    );
    let stats = server.stats();
    assert_eq!(stats.per_tenant_completed, vec![5, 4]);
    server.shutdown();
}

/// Tenants share the context's JIT cache: once one tenant has run a job
/// kind, every other tenant running the same kind compiles nothing new.
#[test]
fn warm_tenants_reuse_the_shared_jit_cache() {
    let mut cfg = small_cfg();
    cfg.workers = 2;
    cfg.qdp.telemetry.profile = true;
    let server = Server::start(&cfg, &tenants(4));
    server
        .submit_wait(0, JobSpec::Plaquette)
        .expect("tenant 0 warms the cache");
    let misses_after_warm = server.context().profile_report().jit.misses;
    assert!(misses_after_warm > 0, "first run must compile something");
    for t in 1..4 {
        server.submit_wait(t, JobSpec::Plaquette).expect("warm run");
    }
    let report = server.context().profile_report();
    assert_eq!(
        report.jit.misses, misses_after_warm,
        "tenants 1..3 must be all-hit on tenant 0's kernels"
    );
    assert!(report.jit.hits > 0);
    server.shutdown();
}

/// Two servers sharing a kernel-store directory (via the builder-backed
/// `QdpConfig::cache_dir`, not env vars): the second starts warm from disk.
#[test]
fn second_server_warm_starts_from_shared_kernel_store() {
    let dir = std::env::temp_dir().join(format!("qdp_serve_store_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut cfg = small_cfg();
    cfg.workers = 2;
    cfg.qdp.cache_dir = Some(dir.clone());
    cfg.qdp.telemetry.profile = true;

    let cold = Server::start(&cfg, &tenants(2));
    for t in 0..2 {
        cold.submit_wait(t, JobSpec::Plaquette).expect("cold run");
    }
    let cold_compile_wall = cold.context().profile_report().jit.wall_compile_time;
    assert!(cold_compile_wall > 0.0, "cold server must spend compile time");
    cold.shutdown();
    drop(cold);

    let warm = Server::start(&cfg, &tenants(2));
    for t in 0..2 {
        warm.submit_wait(t, JobSpec::Plaquette).expect("warm run");
    }
    let report = warm.context().profile_report();
    let persist_hits: u64 = report.kernels.iter().map(|k| k.persist_hits).sum();
    assert!(
        persist_hits > 0,
        "second server must hit the persistent store"
    );
    warm.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

/// Serve a few mixed jobs from two tenants and wait for all of them.
fn serve_mixed_jobs(cfg: &ServeConfig) -> Server {
    let server = Server::start(cfg, &tenants(2));
    let tickets: Vec<JobTicket> = [JobSpec::Plaquette, SLOW_HMC, JobSpec::Plaquette]
        .into_iter()
        .enumerate()
        .map(|(i, spec)| server.submit(i % 2, spec).expect("admitted"))
        .collect();
    for t in tickets {
        assert!(t.wait().is_ok());
    }
    server.drain();
    server
}

/// The server keeps the caller's telemetry setting (off by default, like
/// every other embedder) and still reports its own latency quantiles.
#[test]
fn default_config_serves_unprofiled_with_latency_stats() {
    let mut cfg = small_cfg();
    cfg.workers = 2;
    let server = serve_mixed_jobs(&cfg);
    assert!(
        !server.context().telemetry().profiling(),
        "the server must not switch profiling on"
    );
    let stats = server.stats();
    assert_eq!(stats.completed, 3);
    assert!(stats.p50_latency_ms > 0.0 && stats.p99_latency_ms >= stats.p50_latency_ms);
    server.shutdown();
}

/// With profiling on, the telemetry mirror and `ServerStats` are one
/// histogram's worth of observations: the quantiles agree exactly.
#[test]
fn profiled_latency_mirror_matches_server_stats() {
    let mut cfg = small_cfg();
    cfg.workers = 2;
    cfg.qdp.telemetry.profile = true;
    let server = serve_mixed_jobs(&cfg);
    let stats = server.stats();
    let report = server.context().profile_report();
    let hist = &report.hists["serve.job_latency_ms"];
    assert_eq!(hist.count, 3);
    assert_eq!(
        (stats.p50_latency_ms, stats.p99_latency_ms),
        (hist.p50, hist.p99)
    );
    assert!(stats.p50_latency_ms > 0.0);
    server.shutdown();
}

/// One in-process client thread per tenant, each pipelining up to `window`
/// plaquette submissions and waiting on its oldest ticket once the window
/// is full. Returns each tenant's `[ok, rejected, failed]` answer counts.
fn run_clients(server: &Server, n_tenants: usize, jobs: usize, window: usize) -> Vec<[u64; 3]> {
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..n_tenants)
            .map(|t| {
                s.spawn(move || {
                    let mut tally = [0u64; 3];
                    let mut record =
                        |r: Result<JobTicket, ServeError>| match r.and_then(JobTicket::wait) {
                            Ok(_) => tally[0] += 1,
                            Err(ServeError::Rejected(_)) => tally[1] += 1,
                            Err(_) => tally[2] += 1,
                        };
                    let mut pending = VecDeque::new();
                    for _ in 0..jobs {
                        pending.push_back(server.submit(t, JobSpec::Plaquette));
                        if pending.len() >= window {
                            record(pending.pop_front().expect("window is full"));
                        }
                    }
                    pending.into_iter().for_each(record);
                    tally
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    })
}

/// Many clients submit concurrently, each re-submitting the instant its
/// oldest answer arrives: with every window within the tenant cap nothing
/// may be rejected, which holds only because a worker settles a job's
/// in-flight slot before it releases the reply.
#[test]
fn concurrent_clients_interleave_eight_tenants_without_rejections() {
    let mut cfg = small_cfg();
    cfg.workers = 8;
    cfg.tenant_cap = 2;
    cfg.queue_cap = 16;
    let server = Server::start(&cfg, &tenants(8));
    let tallies = run_clients(&server, 8, 3, cfg.tenant_cap);
    server.drain();
    let stats = server.stats();
    server.shutdown();
    // [ok, rejected, failed] per tenant
    assert_eq!(tallies, vec![[3, 0, 0]; 8]);
    assert_eq!(stats.completed, 24);
    assert_eq!(stats.rejected, 0);
    assert_eq!(stats.per_tenant_completed, vec![3; 8]);
    assert!(
        stats.streams_used >= 2,
        "concurrent jobs must spread over the stream pool, used {}",
        stats.streams_used
    );
}

/// Saturated concurrent clients: rejections happen and every request is
/// still answered exactly once (the run terminating at all proves no
/// deadlock).
#[test]
fn concurrent_clients_saturate_with_rejections_not_deadlock() {
    let mut cfg = small_cfg();
    cfg.workers = 1;
    cfg.tenant_cap = 1;
    cfg.queue_cap = 1;
    let server = Server::start(&cfg, &tenants(4));
    let tallies = run_clients(&server, 4, 5, 5);
    server.shutdown();
    let answered: u64 = tallies.iter().flatten().sum();
    let rejected: u64 = tallies.iter().map(|t| t[1]).sum();
    assert_eq!(answered, 20, "every request gets exactly one answer");
    assert!(rejected > 0, "this load must overflow the caps");
    assert!(tallies.iter().all(|t| t[2] == 0), "no request may fail");
}
