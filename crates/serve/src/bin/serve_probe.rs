//! serve_probe — drive the serving front-end with synthetic tenants and
//! print machine-checkable `key=value` lines (the `serve` CI stage greps
//! them).
//!
//! Every tenant is an in-process client thread: it pipelines up to a window
//! of [`Server::submit`] calls and waits on its oldest [`JobTicket`] once
//! the window is full, tallying each answer as ok, rejected or failed.
//!
//! Phase 1 ("offered load below the admission threshold"): every client's
//! window fits its tenant cap and the global queue — zero rejections
//! expected, ≥ min(workers, tenants) device stream tracks busy.
//! Phase 2 ("saturation"): tiny caps, aggressive windows — rejections are
//! expected and every job still gets a structured answer (`sat_deadlock=0`
//! proves no hang).
//!
//! This binary is the env-driven entry point: it captures `QDP_*` once via
//! `QdpConfig::from_env()` and passes typed config down — the serving
//! crate itself never reads the environment.
//!
//! The load is fixed: [`TENANTS`] tenants submit [`JOBS`] jobs each to
//! [`WORKERS`] workers. `SERVE_TRACE` sets the Perfetto trace path (default
//! `serve_probe_trace.json`), whose stream tracks the probe also counts.

use qdp_core::prelude::*;
use qdp_serve::{
    JobResult, JobSpec, JobTicket, ServeConfig, ServeError, Server, ServerStats, TenantSpec,
};
use std::collections::VecDeque;

/// Tenants, one client thread each.
const TENANTS: usize = 8;
/// Jobs each tenant submits per phase.
const JOBS: usize = 6;
/// Phase-1 worker threads (one stream each).
const WORKERS: usize = 8;

fn mixed_job(tenant: usize, j: usize) -> JobSpec {
    match (tenant + j) % 3 {
        0 => JobSpec::Plaquette,
        1 => JobSpec::CgSolve {
            mass: 0.4,
            seed: (tenant * 1000 + j) as u64,
            tol: 1e-6,
            max_iters: 50,
        },
        _ => JobSpec::HmcTrajectory {
            beta: 5.5,
            dt: 0.02,
            n_steps: 2,
        },
    }
}

fn cheap_job(_tenant: usize, _j: usize) -> JobSpec {
    JobSpec::Plaquette
}

/// Answers received by one client, or summed over all of them.
#[derive(Default)]
struct Tally {
    ok: u64,
    rejected: u64,
    failed: u64,
}

impl Tally {
    fn record(&mut self, answer: Result<JobResult, ServeError>) {
        match answer {
            Ok(_) => self.ok += 1,
            Err(ServeError::Rejected(_)) => self.rejected += 1,
            Err(_) => self.failed += 1,
        }
    }

    fn answered(&self) -> u64 {
        self.ok + self.rejected + self.failed
    }
}

/// One tenant's client: a rejected submission holds its window slot until
/// it reaches the front, like an answer still in flight.
fn run_client(
    server: &Server,
    tenant: usize,
    window: usize,
    job_for: fn(usize, usize) -> JobSpec,
) -> Tally {
    let mut tally = Tally::default();
    let mut pending = VecDeque::new();
    for j in 0..JOBS {
        pending.push_back(server.submit(tenant, job_for(tenant, j)));
        if pending.len() >= window {
            let oldest = pending.pop_front().expect("window is full");
            tally.record(oldest.and_then(JobTicket::wait));
        }
    }
    for rest in pending {
        tally.record(rest.and_then(JobTicket::wait));
    }
    tally
}

/// Serve one session: start a server, run every tenant's client to
/// completion, drain, and return the server's statistics with the summed
/// client tally. The server (and its trace) is dropped on return.
fn session(
    cfg: &ServeConfig,
    tenants: &[TenantSpec],
    window: usize,
    job_for: fn(usize, usize) -> JobSpec,
) -> (ServerStats, Tally) {
    let server = Server::start(cfg, tenants);
    let tally = std::thread::scope(|s| {
        let clients: Vec<_> = (0..tenants.len())
            .map(|t| {
                let server = &server;
                s.spawn(move || run_client(server, t, window, job_for))
            })
            .collect();
        let mut sum = Tally::default();
        for c in clients {
            let t = c.join().expect("client thread");
            sum.ok += t.ok;
            sum.rejected += t.rejected;
            sum.failed += t.failed;
        }
        sum
    });
    server.drain();
    let stats = server.stats();
    server.shutdown();
    (stats, tally)
}

/// Count distinct `serve-<n>` thread-name tracks in a Chrome trace file.
fn count_stream_tracks(path: &std::path::Path) -> usize {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0;
    };
    let mut seen = std::collections::BTreeSet::new();
    let mut rest = text.as_str();
    while let Some(at) = rest.find("\"serve-") {
        let tail = &rest[at + 7..];
        let end = tail.find('"').unwrap_or(0);
        let name = &tail[..end];
        if !name.is_empty() && name.bytes().all(|b| b.is_ascii_digit()) {
            seen.insert(name.to_string());
        }
        rest = &tail[end..];
    }
    seen.len()
}

fn main() {
    let trace_path = std::path::PathBuf::from(
        std::env::var("SERVE_TRACE").unwrap_or_else(|_| "serve_probe_trace.json".into()),
    );

    let mut qdp = QdpConfig::from_env();
    if qdp.telemetry.trace_path.is_none() {
        qdp.telemetry.trace_path = Some(trace_path.clone());
    }
    let trace_path = qdp.telemetry.trace_path.clone().expect("set above");
    let _ = std::fs::remove_file(&trace_path);

    let tenants: Vec<TenantSpec> = (0..TENANTS)
        .map(|t| TenantSpec::new(format!("tenant{t}"), 0x5eed + t as u64))
        .collect();
    let offered = (TENANTS * JOBS) as u64;

    // ---- phase 1: offered load under the admission threshold ------------
    let mut cfg = ServeConfig::new(qdp.clone());
    cfg.workers = WORKERS;
    cfg.tenant_cap = 4;
    // every window fits the global queue and none exceeds its tenant cap
    cfg.queue_cap = TENANTS * cfg.tenant_cap;
    let (stats, tally) = session(&cfg, &tenants, cfg.tenant_cap, mixed_job);
    println!("tenants={TENANTS}");
    println!("jobs_per_tenant={JOBS}");
    println!("workers={WORKERS}");
    println!("ok={}", tally.ok);
    println!("rejected={}", tally.rejected);
    println!("failed={}", tally.failed);
    println!("completed={}", stats.completed);
    println!(
        "min_tenant_completed={}",
        stats.per_tenant_completed.iter().min().copied().unwrap_or(0)
    );
    println!("streams_used={}", stats.streams_used);
    println!("jobs_per_sec={:.2}", stats.jobs_per_sec);
    println!("p50_ms={:.3}", stats.p50_latency_ms);
    println!("p99_ms={:.3}", stats.p99_latency_ms);
    // every job answered: the session ran to completion without a hang
    println!("deadlock={}", (tally.answered() != offered) as u8);

    // ---- phase 2: saturation — rejections, never a hang ------------------
    let mut sat_qdp = qdp.clone();
    sat_qdp.telemetry.trace_path = None; // one trace per probe run
    let mut sat = ServeConfig::new(sat_qdp);
    sat.workers = 1;
    sat.tenant_cap = 1;
    sat.queue_cap = 1;
    // slam the whole batch in at once
    let (sat_stats, sat_tally) = session(&sat, &tenants, JOBS, cheap_job);
    println!("sat_ok={}", sat_tally.ok);
    println!("sat_rejected={}", sat_tally.rejected);
    println!("sat_failed={}", sat_tally.failed);
    println!("sat_completed={}", sat_stats.completed);
    println!("sat_deadlock={}", (sat_tally.answered() != offered) as u8);

    // the phase-1 trace is flushed when its telemetry registry drops
    println!("trace={}", trace_path.display());
    println!("stream_tracks={}", count_stream_tracks(&trace_path));
}
