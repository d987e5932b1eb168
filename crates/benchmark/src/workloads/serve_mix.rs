//! `serve_mix` — one wave of four jobs (one per tenant) through `qdp-serve`
//! per op, closed loop.
//!
//! The only workload with concurrent jobs on one shared context (kernel
//! cache, memory cache, tuner and stream pool under contention) and with
//! queueing: four jobs outstanding on two workers. The multiset of job
//! kinds per wave is fixed (2× plaquette, 1× CG, 1× HMC; kinds rotate over
//! the tenants) so waves stay comparable. Closed loop with one client
//! thread: a time-capped two-core run cannot support a rate sweep, so no
//! latency-at-rate figure is claimed.

use super::{PhaseCfg, PhaseOut, SetupClock, Snapshot, WorkloadSpec};
use crate::stats;
use qdp_core::prelude::*;
use qdp_serve::{JobResult, JobSpec, JobTicket, ServeConfig, ServeError, Server, TenantSpec};
use std::time::Instant;

pub const SPEC: WorkloadSpec = WorkloadSpec {
    name: "serve_mix",
    warmup: 4,
    setup_reps: 5,
    ops: 32,
    min_ops: 30,
    why: "waves of 4 mixed jobs from 4 tenants on 2 workers sharing one context: contention on kernel cache, memory cache, tuner and streams, plus queueing",
};

pub const TENANTS: usize = 4;
pub const WORKERS: usize = 2;
const L: usize = 4;

/// Job kind slots of a wave; tenant `t` in wave `w` gets slot `(t + w) % 4`.
fn job(seed: u64, wave: usize, tenant: usize) -> JobSpec {
    match (tenant + wave) % 4 {
        0 | 2 => JobSpec::Plaquette,
        1 => JobSpec::CgSolve {
            mass: 2.0,
            seed: seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((wave * TENANTS + tenant) as u64),
            tol: 1e-6,
            max_iters: 200,
        },
        _ => JobSpec::HmcTrajectory {
            beta: 5.6,
            dt: 0.05,
            n_steps: 4,
        },
    }
}

/// The three job kinds, for the idle-server service-time probe.
fn kinds() -> [(&'static str, JobSpec); 3] {
    [
        ("plaquette", job(0, 0, 0)),
        ("cg_solve", job(0, 0, 1)),
        ("hmc", job(0, 0, 3)),
    ]
}

/// Bring a server up as every phase of this workload does.
fn start_server(cfg: &PhaseCfg<'_>) -> Server {
    let mut serve = ServeConfig::new(cfg.qdp_config());
    serve.geometry = Geometry::symmetric(L);
    serve.workers = WORKERS;
    let tenants: Vec<TenantSpec> = (0..TENANTS)
        .map(|t| TenantSpec::new(format!("tenant{t}"), cfg.seed.wrapping_mul(1000) + t as u64))
        .collect();
    Server::start(&serve, &tenants)
}

/// Outcome of one wave: per-job client latency (ms) and failures.
struct Wave {
    latency_ms: [f64; TENANTS],
    kinds: [&'static str; TENANTS],
    errors: Vec<String>,
}

fn run_wave(server: &Server, seed: u64, wave: usize, rec: &crate::spans::Recorder) -> Wave {
    let mut out = Wave {
        latency_ms: [0.0; TENANTS],
        kinds: [""; TENANTS],
        errors: Vec::new(),
    };
    let mut tickets: Vec<(Instant, Result<JobTicket, ServeError>)> = Vec::with_capacity(TENANTS);
    {
        let _s = rec.enter("serve.submit");
        for t in 0..TENANTS {
            let spec = job(seed, wave, t);
            out.kinds[t] = spec.kind();
            tickets.push((Instant::now(), server.submit(t, spec)));
        }
    }
    let _s = rec.enter("serve.wait");
    for (t, (submitted, ticket)) in tickets.into_iter().enumerate() {
        match ticket.and_then(JobTicket::wait) {
            Ok(JobResult::CgSolve(r)) if !r.converged => out.errors.push(format!(
                "wave {wave} tenant {t}: CG did not converge: {r:?}"
            )),
            Ok(_) => {}
            Err(e) => out.errors.push(format!("wave {wave} tenant {t}: {e}")),
        }
        // tickets are awaited in submission order by the one client thread,
        // so this is an upper bound on the job's own completion time
        out.latency_ms[t] = submitted.elapsed().as_secs_f64() * 1e3;
    }
    out
}

pub fn run(cfg: &PhaseCfg<'_>) -> Result<PhaseOut, String> {
    let rec = cfg.rec;
    let mut out = PhaseOut::default();

    let mut setup = SetupClock::start();
    let setup_span = rec.enter("setup");
    let server = rec.time("setup.bring_up", || start_server(cfg));
    setup.part_done();
    let mut errors = Vec::new();
    for w in 0..cfg.warmup {
        let _s = rec.enter("setup.warmup_op");
        errors.extend(run_wave(&server, cfg.seed, w, rec).errors);
        setup.part_done();
    }
    drop(setup_span);
    out.setup_parts_s = setup.finish();
    if cfg.ops == 0 {
        server.shutdown();
        return Ok(out);
    }

    let ctx = server.context().clone();
    let before = Snapshot::take(&ctx);
    let mut latencies: Vec<(&'static str, f64)> = Vec::with_capacity(cfg.ops * TENANTS);
    let t_measured = Instant::now();
    for i in 0..cfg.ops {
        let sim0 = ctx.device().sync();
        let span = rec.enter_op("op", Some(i));
        let t0 = Instant::now();
        let wave = run_wave(&server, cfg.seed, cfg.warmup + i, rec);
        out.wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(span);
        out.sim_ms.push((ctx.device().sync() - sim0) * 1e3);
        if !wave.errors.is_empty() {
            out.fail(wave.errors.join("; "));
        }
        latencies.extend(wave.kinds.iter().copied().zip(wave.latency_ms));
    }
    let measured_s = t_measured.elapsed().as_secs_f64();
    out.delta = Some(Snapshot::take(&ctx).since(&before));

    // oracles
    let served = server.stats();
    let waves = (cfg.warmup + cfg.ops) as u64;
    out.check(errors.is_empty(), || {
        format!("warm-up waves failed: {}", errors.join("; "))
    });
    out.check(served.rejected == 0, || {
        format!("{} jobs rejected", served.rejected)
    });
    out.check(
        served.per_tenant_completed.iter().all(|&c| c == waves),
        || {
            format!(
                "per-tenant completions {:?}, want {waves} each",
                served.per_tenant_completed
            )
        },
    );

    out.layer
        .insert("serve.job_ms_p50".into(), served.p50_latency_ms);
    out.layer
        .insert("serve.job_ms_p99".into(), served.p99_latency_ms);
    out.layer.insert(
        "serve.jobs_per_s".into(),
        (cfg.ops * TENANTS) as f64 / measured_s,
    );
    out.layer
        .insert("serve.rejected".into(), served.rejected as f64);
    out.layer
        .insert("serve.streams_used".into(), served.streams_used as f64);

    if cfg.traced {
        // idle-server probes: the service time of each kind with nothing
        // else in flight, and the cost of the submit call itself
        let mut service = std::collections::BTreeMap::new();
        for (kind, spec) in kinds() {
            let reps = if kind == "plaquette" { 20 } else { 5 };
            let mut ms = Vec::with_capacity(reps);
            for r in 0..reps {
                let _s = rec.enter(&format!("probe.serve.service.{kind}"));
                let t0 = Instant::now();
                let res = server.submit_wait(r % TENANTS, spec.clone());
                ms.push(t0.elapsed().as_secs_f64() * 1e3);
                if let Err(e) = res {
                    out.fail(format!("idle {kind} job: {e}"));
                }
            }
            let p10 = stats::p10(&ms);
            out.layer.insert(format!("serve.service_ms.{kind}"), p10);
            service.insert(kind, p10);
        }
        let mut submit_us = Vec::with_capacity(20);
        for r in 0..20 {
            let t0 = Instant::now();
            let ticket = server.submit(r % TENANTS, JobSpec::Plaquette);
            submit_us.push(t0.elapsed().as_secs_f64() * 1e6);
            if let Err(e) = ticket.and_then(JobTicket::wait) {
                out.fail(format!("submit probe: {e}"));
            }
        }
        out.layer
            .insert("serve.submit_us".into(), stats::p10(&submit_us));

        let waits: Vec<f64> = latencies
            .iter()
            .map(|(kind, ms)| (ms - service[kind]).max(0.0))
            .collect();
        out.layer
            .insert("serve.queue_wait_ms_p50".into(), stats::p50(&waits));
        let wave_service = 2.0 * service["plaquette"] + service["cg_solve"] + service["hmc"];
        out.layer.insert(
            "serve.concurrency_gain".into(),
            wave_service / stats::p50(&out.wall_ms),
        );
    }
    server.shutdown();
    Ok(out)
}
