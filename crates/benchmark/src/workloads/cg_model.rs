//! `cg_model` — the launch sequence of ten CG iterations at 16⁴ with payload
//! execution off: the bypass workload.
//!
//! The interpreter does nothing here, so wall time is the pure host path
//! (DAG build, plan and key hashing, kernel-cache lookup on the PTX text,
//! residency walk, launch accounting, the host half of the reductions) and
//! the simulated clock sits on the bandwidth plateau of the paper's
//! Figs. 4–5. A change to the interpreter must not move this workload.

use super::{core_err, OpClock, PhaseCfg, PhaseOut, SetupClock, Snapshot, WorkloadSpec};
use chroma_mini::fermion::WilsonDirac;
use chroma_mini::gauge::{gaussian_fermion, GaugeField};
use qdp_core::prelude::*;
use qdp_rng::{Rng, SeedableRng, StdRng};
use std::sync::Arc;

pub const SPEC: WorkloadSpec = WorkloadSpec {
    name: "cg_model",
    warmup: 20,
    setup_reps: 7,
    ops: 1200,
    min_ops: 1000,
    why: "launch sequence of 10 CG iterations at 16^4 with payload off: interpreter bypassed, wall is the host path and the simulated clock sits on the bandwidth plateau",
};

pub const L: usize = 16;
pub const MASS: f64 = 0.3;
/// CG iterations replayed per op.
pub const ITERS_PER_OP: usize = 10;
/// Statements in one CG iteration body (`tmp`, `ap`, `⟨p,Ap⟩`, `x`, `r`,
/// `‖r‖²`, `p`): the launch count of an op can never exceed
/// `ITERS_PER_OP × STATEMENTS`, and better fusion may lower it.
pub const STATEMENTS: usize = 7;

/// The fields a CG body touches.
pub struct CgFields {
    pub m: WilsonDirac,
    pub x: LatticeFermion<f64>,
    pub r: LatticeFermion<f64>,
    pub p: LatticeFermion<f64>,
    pub ap: LatticeFermion<f64>,
    pub tmp: LatticeFermion<f64>,
}

impl CgFields {
    /// Seeded links and vectors on `ctx`.
    pub fn generate(ctx: &Arc<QdpContext>, rng: &mut StdRng, mass: f64) -> CgFields {
        let g = GaugeField::hot(ctx, rng);
        CgFields {
            m: WilsonDirac::new(&g, mass, None),
            x: LatticeFermion::new(ctx),
            r: gaussian_fermion(ctx, rng),
            p: gaussian_fermion(ctx, rng),
            ap: LatticeFermion::new(ctx),
            tmp: LatticeFermion::new(ctx),
        }
    }

    /// Record `iters` CG iteration bodies through one deferred scope and
    /// flush. `alpha`/`beta` are kernel parameters: with payload execution
    /// off no reduction returns a usable value, so the caller supplies them.
    pub fn replay(&self, iters: usize, alpha: f64, beta: f64) -> Result<(), CoreError> {
        let CgFields {
            m,
            x,
            r,
            p,
            ap,
            tmp,
        } = self;
        let mut scope = m.context().deferred();
        for _ in 0..iters {
            scope.assign(tmp, m.apply_expr(p.q()))?;
            scope.assign(ap, m.apply_dag_expr(tmp.q()))?;
            scope.inner_product(&p.q(), &ap.q())?;
            scope.assign(x, x.q() + alpha * p.q())?;
            scope.assign(r, r.q() - alpha * ap.q())?;
            scope.norm2(r)?;
            scope.assign(p, r.q() + beta * p.q())?;
        }
        scope.flush()
    }
}

pub fn run(cfg: &PhaseCfg<'_>) -> Result<PhaseOut, String> {
    let rec = cfg.rec;
    let mut out = PhaseOut::default();

    let mut setup = SetupClock::start();
    let setup_span = rec.enter("setup");
    let (ctx, fields, mut rng) = rec.time("setup.bring_up", || {
        let ctx = QdpContext::builder(Geometry::symmetric(L))
            .config(cfg.qdp_config())
            .build();
        ctx.set_payload_execution(false);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let fields = CgFields::generate(&ctx, &mut rng, MASS);
        (ctx, fields, rng)
    });
    let mut scalars = move || {
        (
            0.05 + 0.1 * rng.random::<f64>(),
            0.5 + 0.4 * rng.random::<f64>(),
        )
    };
    setup.part_done();
    for _ in 0..cfg.warmup {
        let (alpha, beta) = scalars();
        rec.time("setup.warmup_op", || {
            fields.replay(ITERS_PER_OP, alpha, beta)
        })
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
    let mut launches = Vec::with_capacity(cfg.ops);
    for i in 0..cfg.ops {
        let (alpha, beta) = scalars();
        let l0 = ctx.device().stats().launches;
        clock
            .op(
                i,
                || ctx.device().sync(),
                || fields.replay(ITERS_PER_OP, alpha, beta),
            )
            .map_err(core_err)?;
        launches.push(ctx.device().stats().launches - l0);
    }
    let delta = Snapshot::take(&ctx).since(&before);
    out.wall_ms = clock.wall_ms;
    out.sim_ms = clock.sim_ms;

    // oracles
    let first = launches[0];
    out.check(
        launches.iter().all(|&l| l == first) && first as usize <= ITERS_PER_OP * STATEMENTS,
        || {
            format!(
                "launch count per op not constant or above {}: first {first}",
                ITERS_PER_OP * STATEMENTS
            )
        },
    );
    out.check(delta.jit_misses == 0, || {
        format!("{} JIT misses after warm-up", delta.jit_misses)
    });
    // the plateau: one full-lattice dslash, timing model only
    let dslash = fields
        .tmp
        .assign(fields.m.apply_expr(fields.p.q()))
        .map_err(core_err)?;
    let frac = dslash.bandwidth / ctx.device().config().peak_bandwidth;
    out.check((0.5..=1.0).contains(&frac), || {
        format!(
            "simulated dslash at {:.1} GB/s is {frac:.3} of peak",
            dslash.bandwidth / 1e9
        )
    });
    out.layer
        .insert("gpusim.dslash_sim_gbps".into(), dslash.bandwidth / 1e9);
    out.layer.insert("gpusim.dslash_frac_of_peak".into(), frac);
    out.history.extend(launches);
    out.delta = Some(delta);
    Ok(out)
}
