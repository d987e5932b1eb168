//! `cg_solve` — one Wilson CG solve to a stated accuracy per op.
//!
//! Time to a solution: ~75 iterations of small kernels plus reductions,
//! fusion planner active, every field device-resident — the memory cache's
//! read path only. Same interpreter as `hmc_gauge`, different kernel mix
//! and several times the launches.

use super::{core_err, OpClock, PhaseCfg, PhaseOut, SetupClock, Snapshot, WorkloadSpec};
use chroma_mini::fermion::WilsonDirac;
use chroma_mini::gauge::{gaussian_fermion, GaugeField};
use chroma_mini::solver::cg_solve;
use qdp_core::prelude::*;
use qdp_rng::{SeedableRng, StdRng};
use qdp_types::Fermion;
use std::sync::Arc;

pub const SPEC: WorkloadSpec = WorkloadSpec {
    name: "cg_solve",
    warmup: 2,
    setup_reps: 6,
    ops: 30,
    min_ops: 30,
    why: "one Wilson CG solve (tol 1e-8) at 4^4: many small launches plus reductions with fields resident (cache read path); same interpreter, other kernel mix",
};

pub const L: usize = 4;
pub const MASS: f64 = 2.0;
pub const TOL: f64 = 1e-8;
pub const MAX_ITERS: usize = 500;
const WARM_EPS: f64 = 0.25;

/// Context, operator and source RNG as every phase of this workload starts.
pub fn bring_up(cfg: &PhaseCfg<'_>) -> (Arc<QdpContext>, GaugeField, WilsonDirac, StdRng) {
    let ctx = QdpContext::builder(Geometry::symmetric(L))
        .config(cfg.qdp_config())
        .build();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let g = GaugeField::warm(&ctx, &mut rng, WARM_EPS);
    let m = WilsonDirac::new(&g, MASS, None);
    (ctx, g, m, rng)
}

/// `‖b − M†M x‖ / ‖b‖`, recomputed from scratch (not the recurrence).
pub fn true_residual(
    m: &WilsonDirac,
    x: &LatticeFermion<f64>,
    b: &LatticeFermion<f64>,
) -> Result<f64, CoreError> {
    let ctx = m.context();
    let tmp = LatticeFermion::<f64>::new(ctx);
    let ax = LatticeFermion::<f64>::new(ctx);
    m.apply_normal(&ax, &tmp, x)?;
    tmp.assign(b.q() - ax.q())?;
    Ok((tmp.norm2()? / b.norm2()?).sqrt())
}

/// Relative distance between a device solution and the hand-written host
/// CG of `quda-sim` on the same system.
pub fn host_cg_distance(
    g: &GaugeField,
    x: &LatticeFermion<f64>,
    b: &LatticeFermion<f64>,
) -> (f64, usize) {
    let ctx = g.context();
    let vol = ctx.geometry().vol();
    let host_g = quda_sim::HostGauge {
        links: (0..4)
            .map(|mu| (0..vol).map(|s| g.u[mu].get(s)).collect())
            .collect(),
        geom: ctx.geometry().clone(),
    };
    let host_b: Vec<Fermion<f64>> = b.to_vec();
    let (x_host, iters) = quda_sim::host_cg(&host_g, MASS, &host_b, TOL, MAX_ITERS);
    let (mut num, mut den) = (0.0, 0.0);
    for (s, xh) in x_host.iter().enumerate() {
        let xd = x.get(s);
        for sp in 0..4 {
            for c in 0..3 {
                num += (xd.0[sp].0[c] - xh.0[sp].0[c]).norm_sqr();
                den += xh.0[sp].0[c].norm_sqr();
            }
        }
    }
    ((num / den).sqrt(), iters)
}

pub fn run(cfg: &PhaseCfg<'_>) -> Result<PhaseOut, String> {
    let rec = cfg.rec;
    let mut out = PhaseOut::default();

    let mut setup = SetupClock::start();
    let setup_span = rec.enter("setup");
    let (ctx, g, m, mut rng) = rec.time("setup.bring_up", || bring_up(cfg));
    setup.part_done();
    for _ in 0..cfg.warmup {
        let b = gaussian_fermion(&ctx, &mut rng);
        let x = LatticeFermion::<f64>::new(&ctx);
        rec.time("setup.warmup_op", || cg_solve(&m, &x, &b, TOL, MAX_ITERS))
            .map_err(core_err)?;
        setup.part_done();
    }
    drop(setup_span);
    out.setup_parts_s = setup.finish();
    if cfg.ops == 0 {
        return Ok(out);
    }

    let before = Snapshot::take(&ctx);
    let mut clock = OpClock::new(rec, cfg.ops);
    let mut solves = Vec::with_capacity(cfg.ops);
    for i in 0..cfg.ops {
        // a fresh source per op, generated outside the timed region
        let b = gaussian_fermion(&ctx, &mut rng);
        let x = LatticeFermion::<f64>::new(&ctx);
        let rep = clock
            .op(
                i,
                || ctx.device().sync(),
                || rec.time("solver.cg_solve", || cg_solve(&m, &x, &b, TOL, MAX_ITERS)),
            )
            .map_err(core_err)?;
        solves.push((x, b, rep));
    }
    let delta = Snapshot::take(&ctx).since(&before);

    // oracles, outside the timed region and outside the counted ops
    let mut worst = 0.0f64;
    for (i, (x, b, rep)) in solves.iter().enumerate() {
        let resid = true_residual(&m, x, b).map_err(core_err)?;
        worst = worst.max(resid);
        out.check(rep.converged && resid <= 1e-7, || {
            format!(
                "op {i}: converged {} true residual {resid:e}",
                rep.converged
            )
        });
        out.history
            .extend([rep.iters as u64, rep.rel_resid.to_bits()]);
    }
    let (x0, b0, _) = &solves[0];
    let (dist, host_iters) = host_cg_distance(&g, x0, b0);
    out.check(dist <= 1e-6, || {
        format!("first solution vs quda-sim host_cg: rel {dist:e}")
    });

    let iters: usize = solves.iter().map(|s| s.2.iters).sum();
    let n = solves.len() as f64;
    out.layer
        .insert("solver.iters_per_solve".into(), iters as f64 / n);
    out.layer.insert(
        "solver.launches_per_iter".into(),
        delta.launches as f64 / iters.max(1) as f64,
    );
    out.layer.insert(
        "solver.wall_ms_per_iter".into(),
        clock.wall_ms.iter().sum::<f64>() / iters.max(1) as f64,
    );
    out.layer.insert("solver.true_resid_max".into(), worst);
    out.layer
        .insert("quda.host_cg_iters".into(), host_iters as f64);
    out.delta = Some(delta);
    out.wall_ms = clock.wall_ms;
    out.sim_ms = clock.sim_ms;
    Ok(out)
}
