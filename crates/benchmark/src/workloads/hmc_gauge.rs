//! `hmc_gauge` — one pure-gauge HMC trajectory per op, the paper's headline
//! unit of cost.
//!
//! Large straight-line kernels (staple force, `expm`) make the kernel
//! interpreter almost all of the wall time, and `reunitarize` pages every
//! link out to the host and back on each accepted trajectory — the memory
//! cache's write path.

use super::{core_err, OpClock, PhaseCfg, PhaseOut, SetupClock, Snapshot, WorkloadSpec};
use chroma_mini::force::{axpy_forces, gauge_force};
use chroma_mini::gauge::{kinetic_energy, refresh_momenta, GaugeField};
use chroma_mini::hmc::{Hmc, HmcReport};
use qdp_core::prelude::*;
use qdp_core::{expm, real, trace};
use qdp_rng::{Rng, SeedableRng, StdRng};
use std::sync::Arc;

pub const SPEC: WorkloadSpec = WorkloadSpec {
    name: "hmc_gauge",
    warmup: 2,
    setup_reps: 6,
    ops: 36,
    min_ops: 30,
    why: "one pure-gauge HMC trajectory at 4^4: big straight-line kernels, so the interpreter is the wall time; reunitarize pages links out and back (cache write path)",
};

/// Lattice extent (4⁴).
pub const L: usize = 4;
pub const BETA: f64 = 5.6;
pub const DT: f64 = 0.03;
pub const N_STEPS: usize = 8;
const WARM_EPS: f64 = 0.35;

/// Context, gauge field and RNG as every phase of this workload starts.
pub fn bring_up(cfg: &PhaseCfg<'_>) -> (Arc<QdpContext>, GaugeField, StdRng) {
    let ctx = QdpContext::builder(Geometry::symmetric(L))
        .config(cfg.qdp_config())
        .build();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let g = GaugeField::warm(&ctx, &mut rng, WARM_EPS);
    (ctx, g, rng)
}

/// `Hmc::trajectory` for the pure-gauge action, decomposed into the public
/// pieces it is made of, one span each. Must stay bit-identical to the
/// library's own trajectory: the traced run checks the histories agree.
pub fn decomposed_trajectory(
    g: &GaugeField,
    rng: &mut StdRng,
    rec: &crate::spans::Recorder,
) -> Result<HmcReport, CoreError> {
    let ctx = g.context();
    let p = rec.time("hmc.refresh", || refresh_momenta(ctx, rng));
    let (t0, s0) = {
        let _s = rec.enter("hmc.energy");
        (kinetic_energy(&p)?, g.wilson_action(BETA)?)
    };
    let h0 = t0 + s0;
    let backup = rec.time("hmc.backup", || g.clone_config());

    let force = || rec.time("hmc.force", || gauge_force(g, BETA));
    let kick = |w: f64, f: &Multi1d<LatticeColorMatrix<f64>>| {
        rec.time("hmc.axpy", || axpy_forces(&p, w, f))
    };
    kick(0.5 * DT, &force()?)?;
    for step in 0..N_STEPS {
        {
            let _s = rec.enter("hmc.update_links");
            for mu in 0..4 {
                g.u[mu].assign(expm(DT * p[mu].q()) * g.u[mu].q())?;
            }
        }
        let w = if step + 1 == N_STEPS { 0.5 * DT } else { DT };
        kick(w, &force()?)?;
    }
    let h1 = {
        let _s = rec.enter("hmc.energy");
        kinetic_energy(&p)? + g.wilson_action(BETA)?
    };
    let dh = h1 - h0;
    let accept = dh <= 0.0 || rng.random::<f64>() < (-dh).exp();
    if accept {
        rec.time("hmc.reunit", || g.reunitarize());
    } else {
        let _s = rec.enter("hmc.backup");
        for mu in 0..4 {
            g.u[mu].assign(backup.u[mu].q())?;
        }
    }
    let plaquette = rec.time("hmc.plaquette", || g.plaquette())?;
    Ok(HmcReport {
        delta_h: dh,
        accepted: accept,
        plaquette,
        kinetic_start: t0,
    })
}

/// The average plaquette by the CPU reference evaluator: an independent
/// route to the number the generated kernels produce.
fn reference_plaquette(g: &GaugeField) -> Result<f64, CoreError> {
    let ctx = g.context();
    let vol = ctx.geometry().vol();
    let tmp = LatticeReal::<f64>::new(ctx);
    let mut total = 0.0;
    for mu in 0..4 {
        for nu in (mu + 1)..4 {
            tmp.assign_reference(real(trace(g.plaquette_expr(mu, nu))))?;
            for s in 0..vol {
                total += tmp.get(s).0 .0;
            }
        }
    }
    Ok(total / (18.0 * vol as f64))
}

pub fn run(cfg: &PhaseCfg<'_>) -> Result<PhaseOut, String> {
    let rec = cfg.rec;
    let mut out = PhaseOut::default();
    let mut hmc = Hmc::pure_gauge(BETA, DT, N_STEPS);
    let trajectory = |g: &GaugeField, rng: &mut StdRng, hmc: &mut Hmc| {
        if cfg.traced {
            decomposed_trajectory(g, rng, rec)
        } else {
            hmc.trajectory(g, rng)
        }
    };

    let mut setup = SetupClock::start();
    let setup_span = rec.enter("setup");
    let (ctx, g, mut rng) = rec.time("setup.bring_up", || bring_up(cfg));
    setup.part_done();
    for _ in 0..cfg.warmup {
        rec.time("setup.warmup_op", || trajectory(&g, &mut rng, &mut hmc))
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
    let mut reports = Vec::with_capacity(cfg.ops);
    for i in 0..cfg.ops {
        let r = clock.op(
            i,
            || ctx.device().sync(),
            || trajectory(&g, &mut rng, &mut hmc),
        );
        reports.push(r.map_err(core_err)?);
    }
    out.delta = Some(Snapshot::take(&ctx).since(&before));
    out.wall_ms = clock.wall_ms;
    out.sim_ms = clock.sim_ms;

    // oracles, outside the timed region
    for (i, r) in reports.iter().enumerate() {
        out.check(
            r.delta_h.is_finite() && r.plaquette > 0.0 && r.plaquette < 1.0,
            || format!("op {i}: dH {} plaquette {}", r.delta_h, r.plaquette),
        );
        out.history.extend([
            r.delta_h.to_bits(),
            r.accepted as u64,
            r.plaquette.to_bits(),
        ]);
    }
    let violation = g.max_su3_violation();
    out.check(violation < 1e-12, || {
        format!("links left SU(3): violation {violation:e}")
    });
    let last = reports.last().map_or(0.0, |r| r.plaquette);
    let reference = reference_plaquette(&g).map_err(core_err)?;
    out.check((last - reference).abs() < 1e-12, || {
        format!("final plaquette {last} vs reference evaluator {reference}")
    });

    let n = reports.len() as f64;
    let accepts = reports.iter().filter(|r| r.accepted).count() as f64;
    out.layer.insert("hmc.accept_frac".into(), accepts / n);
    out.layer.insert(
        "hmc.dh_abs_mean".into(),
        reports.iter().map(|r| r.delta_h.abs()).sum::<f64>() / n,
    );
    Ok(out)
}
