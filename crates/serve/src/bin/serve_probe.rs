//! serve_probe — drive the serving front-end with N synthetic tenants and
//! print machine-checkable `key=value` lines (the `serve` CI stage greps
//! them).
//!
//! Phase 1 ("offered load below the admission threshold"): every client's
//! pipeline window fits its tenant cap and the global queue — zero
//! rejections expected, ≥ min(workers, tenants) device stream tracks busy.
//! Phase 2 ("saturation"): tiny caps, aggressive windows — rejections are
//! expected and every job still gets an in-order structured answer
//! (`sat_deadlock=0` proves no hang).
//!
//! This binary is the env-driven entry point: it captures `QDP_*` once via
//! `QdpConfig::from_env()` and passes typed config down — the serving
//! crate itself never reads the environment.
//!
//! Knobs: `SERVE_TENANTS` (default 8), `SERVE_JOBS` (per tenant, default
//! 6), `SERVE_WORKERS` (default 8), `SERVE_TRACE` (Perfetto trace path,
//! default `serve_probe_trace.json`; also counts its stream tracks).

use qdp_core::prelude::*;
use qdp_serve::{serve_over_mesh, ClientPlan, JobSpec, MeshOutcome, ServeConfig, TenantSpec};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

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
    let tenants_n = env_usize("SERVE_TENANTS", 8);
    let jobs = env_usize("SERVE_JOBS", 6);
    let workers = env_usize("SERVE_WORKERS", 8);
    let trace_path = std::path::PathBuf::from(
        std::env::var("SERVE_TRACE").unwrap_or_else(|_| "serve_probe_trace.json".into()),
    );

    let mut qdp = QdpConfig::from_env();
    if qdp.telemetry.trace_path.is_none() {
        qdp.telemetry.trace_path = Some(trace_path.clone());
    }
    // Cold JIT compiles make the first wave of jobs slow; unless the user
    // moved the deadline off its default, give the mesh enough headroom
    // that slow responses are distinguishable from a real hang (a deadlock
    // never finishes, so `deadlock=0` stays meaningful).
    if qdp.comm_timeout_ms == QdpConfig::new().comm_timeout_ms {
        qdp.comm_timeout_ms = 120_000;
    }
    let trace_path = qdp.telemetry.trace_path.clone().expect("set above");
    let _ = std::fs::remove_file(&trace_path);

    let tenants: Vec<TenantSpec> = (0..tenants_n)
        .map(|t| TenantSpec::new(format!("tenant{t}"), 0x5eed + t as u64))
        .collect();

    // ---- phase 1: offered load under the admission threshold ------------
    let mut cfg = ServeConfig::new(qdp.clone());
    cfg.workers = workers;
    cfg.tenant_cap = 4;
    cfg.queue_cap = tenants_n * cfg.tenant_cap; // every window fits
    let plan = ClientPlan {
        jobs,
        burst: cfg.tenant_cap, // never beyond the per-tenant cap
        job_for: mixed_job,
    };
    let outcomes = serve_over_mesh(&cfg, &tenants, &plan);
    let MeshOutcome::Server(stats) = &outcomes[0] else {
        panic!("rank 0 must be the server");
    };
    let (mut ok, mut rejected, mut failed) = (0u64, 0u64, 0u64);
    for o in &outcomes[1..] {
        let MeshOutcome::Client(c) = o else {
            panic!("ranks 1..N must be clients");
        };
        ok += c.ok;
        rejected += c.rejected;
        failed += c.failed;
    }
    println!("tenants={tenants_n}");
    println!("jobs_per_tenant={jobs}");
    println!("workers={workers}");
    println!("ok={ok}");
    println!("rejected={rejected}");
    println!("failed={failed}");
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
    let deadlock = (ok + rejected + failed) != (tenants_n * jobs) as u64;
    println!("deadlock={}", deadlock as u8);

    // ---- phase 2: saturation — rejections, never a hang ------------------
    let mut sat_qdp = qdp.clone();
    sat_qdp.telemetry.trace_path = None; // one trace per probe run
    let mut sat = ServeConfig::new(sat_qdp);
    sat.workers = 1;
    sat.tenant_cap = 1;
    sat.queue_cap = 1;
    let sat_plan = ClientPlan {
        jobs,
        burst: jobs.max(2), // slam the whole batch in at once
        job_for: cheap_job,
    };
    let outcomes = serve_over_mesh(&sat, &tenants, &sat_plan);
    let MeshOutcome::Server(sat_stats) = &outcomes[0] else {
        panic!("rank 0 must be the server");
    };
    let (mut sat_ok, mut sat_rejected, mut sat_failed) = (0u64, 0u64, 0u64);
    for o in &outcomes[1..] {
        let MeshOutcome::Client(c) = o else {
            panic!("ranks 1..N must be clients");
        };
        sat_ok += c.ok;
        sat_rejected += c.rejected;
        sat_failed += c.failed;
    }
    println!("sat_ok={sat_ok}");
    println!("sat_rejected={sat_rejected}");
    println!("sat_failed={sat_failed}");
    println!("sat_completed={}", sat_stats.completed);
    let sat_deadlock = (sat_ok + sat_rejected + sat_failed) != (tenants_n * jobs) as u64;
    println!("sat_deadlock={}", sat_deadlock as u8);

    // the phase-1 trace is flushed when its telemetry registry drops
    println!("trace={}", trace_path.display());
    println!("stream_tracks={}", count_stream_tracks(&trace_path));
}
