//! `jit_cold` — a bring-up per op: a fresh context generates, compiles and
//! launches (payload off) the kernel set of a dynamical trajectory; then a
//! fresh context on an empty kernel store compiles the linear-algebra subset
//! and flushes, and a third re-opens that store and evaluates the subset
//! again.
//!
//! The only workload where `expr` → `core::codegen` → `ptx` emit/parse/opt
//! → `jit` lower/cache/persist/autotune do most of the work. The store pair
//! uses the persist layer both ways: the cold half writes it, the warm half
//! reads it.
//!
//! Why the persisted set is the small kernels only: on the seed commit
//! opening a store costs time quadratic in its size (the in-tree JSON
//! parser re-validates the rest of the document for every character of a
//! string), so the 1.4 MB store of the full set takes about half a minute
//! to re-open. The ~40 KB subset keeps the read path in the op at a few
//! tens of milliseconds, where a fix still shows in `jit.persist_open_ms`.

use super::cg_model::CgFields;
use super::{core_err, Delta, PhaseCfg, PhaseOut, SetupClock, Snapshot, WorkloadSpec};
use crate::spans::Recorder;
use chroma_mini::fermion::WilsonDirac;
use chroma_mini::force::{axpy_forces, gauge_force, two_flavor_force};
use chroma_mini::gauge::{gaussian_fermion, kinetic_energy, refresh_momenta, GaugeField};
use qdp_core::expm;
use qdp_core::prelude::*;
use qdp_rng::{SeedableRng, StdRng};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

pub const SPEC: WorkloadSpec = WorkloadSpec {
    name: "jit_cold",
    warmup: 3,
    setup_reps: 14,
    ops: 100,
    min_ops: 100,
    why: "fresh contexts compile the kernel set of a dynamical trajectory cold, then write and re-open a kernel store: codegen, PTX, JIT lowering, persist and autotune do the work",
};

pub const L: usize = 4;
const MASS: f64 = 0.3;
const BETA: f64 = 5.6;
const DT: f64 = 0.02;
/// The op compiles and launches but does not interpret: the timing model
/// and the compile pipeline are what it measures.
const PAYLOAD: bool = false;

/// A fresh context with payload execution set, persisting into `dir` when
/// one is given.
fn fresh_context(cfg: &PhaseCfg<'_>, dir: Option<&Path>, payload: bool) -> Arc<QdpContext> {
    let builder = QdpContext::builder(Geometry::symmetric(L)).config(cfg.qdp_config());
    let ctx = match dir {
        Some(dir) => builder.cache_dir(dir).build(),
        None => builder.build(),
    };
    ctx.set_payload_execution(payload);
    ctx
}

/// Evaluate the kernel set of a dynamical trajectory once: a pure-gauge MD
/// step, `M`/`M†`, the two-flavor force, the CG body, plaquette and norms.
pub fn evaluate_kernel_set(ctx: &Arc<QdpContext>, seed: u64) -> Result<(), CoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let g = GaugeField::hot(ctx, &mut rng);
    // one pure-gauge MD step
    let p = refresh_momenta(ctx, &mut rng);
    kinetic_energy(&p)?;
    let f = gauge_force(&g, BETA)?;
    axpy_forces(&p, 0.5 * DT, &f)?;
    for mu in 0..4 {
        g.u[mu].assign(expm(DT * p[mu].q()) * g.u[mu].q())?;
    }
    g.plaquette()?;
    // the fermion sector
    let cg = CgFields::generate(ctx, &mut rng, MASS);
    let eta = gaussian_fermion(ctx, &mut rng);
    cg.m.apply(&cg.tmp, &eta)?;
    cg.m.apply_dag(&cg.ap, &cg.tmp)?;
    let ff = two_flavor_force(&cg.m, &cg.x, &cg.ap)?;
    axpy_forces(&p, DT, &ff)?;
    cg.replay(1, 0.1, 0.7)?;
    eta.norm2()?;
    Ok(())
}

/// The linear-algebra subset that goes through the kernel store: the vector
/// updates, inner product and norms of the CG body (no hopping term, so the
/// kernels are small).
pub fn evaluate_linalg_set(ctx: &Arc<QdpContext>, seed: u64) -> Result<(), CoreError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (x, r) = (
        gaussian_fermion(ctx, &mut rng),
        gaussian_fermion(ctx, &mut rng),
    );
    let (q, ap) = (
        gaussian_fermion(ctx, &mut rng),
        gaussian_fermion(ctx, &mut rng),
    );
    let mut scope = ctx.deferred();
    scope.inner_product(&q.q(), &ap.q())?;
    scope.assign(&x, x.q() + 0.1 * q.q())?;
    scope.assign(&r, r.q() - 0.1 * ap.q())?;
    scope.norm2(&r)?;
    scope.assign(&q, r.q() + 0.7 * q.q())?;
    scope.flush()?;
    x.norm2()?;
    Ok(())
}

/// What one fresh context did.
struct Part {
    delta: Delta,
    distinct: usize,
    sim_s: f64,
    opt_counters: u64,
}

fn measure(ctx: &Arc<QdpContext>) -> Part {
    let delta = Snapshot::take(ctx).since(&Snapshot::default());
    Part {
        opt_counters: delta
            .counters
            .iter()
            .filter(|(k, _)| k.starts_with("opt."))
            .map(|(_, v)| v)
            .sum(),
        distinct: ctx.kernels().len(),
        sim_s: ctx.device().sync(),
        delta,
    }
}

/// One bring-up: full set cold, store pair cold then warm.
struct BringUp {
    full: Part,
    cold: Part,
    warm: Part,
    /// Wall ms of: the full cold set, the store's cold half, re-opening the
    /// store, the store's warm half.
    ms: [f64; 4],
    store_kb: f64,
}

fn bring_up(
    cfg: &PhaseCfg<'_>,
    dir: &Path,
    rec: &Recorder,
    payload: bool,
) -> Result<BringUp, String> {
    let io = |e: std::io::Error| format!("{}: {e}", dir.display());
    std::fs::create_dir_all(dir).map_err(io)?;
    let t0 = Instant::now();
    let full = {
        let ctx = rec.time("jit.context_build", || fresh_context(cfg, None, payload));
        rec.time("jit.cold_set", || evaluate_kernel_set(&ctx, cfg.seed))
            .map_err(core_err)?;
        measure(&ctx)
    };
    let t1 = Instant::now();
    let cold = {
        let ctx = rec.time("jit.context_build", || {
            fresh_context(cfg, Some(dir), payload)
        });
        rec.time("jit.store_cold_eval", || {
            evaluate_linalg_set(&ctx, cfg.seed)
        })
        .map_err(core_err)?;
        rec.time("jit.store_flush", || {
            if let Some(store) = ctx.kernel_store() {
                store.flush();
            }
        });
        measure(&ctx)
    };
    let t2 = Instant::now();
    let ctx = rec.time("jit.store_open", || fresh_context(cfg, Some(dir), payload));
    let t3 = Instant::now();
    rec.time("jit.store_warm_eval", || {
        evaluate_linalg_set(&ctx, cfg.seed)
    })
    .map_err(core_err)?;
    let warm = measure(&ctx);
    let t4 = Instant::now();
    let store_kb = ctx
        .kernel_store()
        .and_then(|s| std::fs::metadata(s.file_path()).ok())
        .map_or(0.0, |m| m.len() as f64 / 1024.0);
    drop(ctx);
    std::fs::remove_dir_all(dir).map_err(io)?;
    let ms = |a: Instant, b: Instant| (b - a).as_secs_f64() * 1e3;
    Ok(BringUp {
        full,
        cold,
        warm,
        ms: [ms(t0, t1), ms(t1, t2), ms(t2, t3), ms(t3, t4)],
        store_kb,
    })
}

/// One bring-up outside the op list, with payload execution as the caller
/// says (the `jit.exec_share` probe replays the op with it off).
pub fn replay_op(cfg: &PhaseCfg<'_>, payload: bool) -> Result<(), String> {
    let dir = cfg.scratch.join("store-replay");
    bring_up(cfg, &dir, &Recorder::new(false), payload).map(drop)
}

/// Largest ULP distance between two fields of doubles.
fn max_ulps(a: &LatticeFermion<f64>, b: &LatticeFermion<f64>) -> u64 {
    let ord = |v: f64| {
        let b = v.to_bits() as i64;
        if b < 0 {
            i64::MIN - b
        } else {
            b
        }
    };
    let mut worst = 0u64;
    for (x, y) in a.to_vec().iter().zip(b.to_vec().iter()) {
        for sp in 0..4 {
            for c in 0..3 {
                let (u, v) = (x.0[sp].0[c], y.0[sp].0[c]);
                for (s, t) in [(u.re, v.re), (u.im, v.im)] {
                    worst = worst.max(ord(s).abs_diff(ord(t)));
                }
            }
        }
    }
    worst
}

pub fn run(cfg: &PhaseCfg<'_>) -> Result<PhaseOut, String> {
    let rec = cfg.rec;
    let mut out = PhaseOut::default();
    let store_dir = |tag: &str| cfg.scratch.join(format!("store-{tag}"));

    let mut setup = SetupClock::start();
    {
        let _s = rec.enter("setup");
        for w in 0..cfg.warmup {
            let _w = rec.enter("setup.warmup_op");
            bring_up(cfg, &store_dir(&format!("warmup{w}")), rec, PAYLOAD)?;
            setup.part_done();
        }
    }
    out.setup_parts_s = setup.finish();
    if cfg.ops == 0 {
        return Ok(out);
    }

    let mut total = Delta {
        tuner_settled_frac: 1.0,
        ..Delta::default()
    };
    let mut part_ms: [Vec<f64>; 4] = Default::default();
    let (mut store_kb, mut distinct, mut misses, mut modeled_s) = (0.0, 0, 0, 0.0);
    for i in 0..cfg.ops {
        let span = rec.enter_op("op", Some(i));
        let t0 = Instant::now();
        let b = bring_up(cfg, &store_dir(&i.to_string()), rec, PAYLOAD)?;
        out.wall_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        drop(span);
        out.sim_ms
            .push((b.full.sim_s + b.cold.sim_s + b.warm.sim_s) * 1e3);
        for (samples, ms) in part_ms.iter_mut().zip(b.ms) {
            samples.push(ms);
        }
        store_kb = b.store_kb;
        distinct = b.full.distinct;
        misses += b.full.delta.jit_misses + b.cold.delta.jit_misses;
        modeled_s += b.full.delta.modeled_compile_s + b.cold.delta.modeled_compile_s;

        out.check(b.full.distinct >= 20, || {
            format!(
                "op {i}: the full set compiled {} kernels (want >= 20)",
                b.full.distinct
            )
        });
        out.check(
            b.cold.distinct == b.warm.distinct && b.cold.distinct > 0,
            || {
                format!(
                    "op {i}: {} kernels stored, {} re-opened",
                    b.cold.distinct, b.warm.distinct
                )
            },
        );
        out.check(
            b.warm.delta.jit_misses == 0
                && b.warm.delta.persist_hits == b.warm.distinct as u64
                && b.warm.opt_counters == 0,
            || {
                format!(
                    "op {i}: warm half had {} misses, {} persist hits of {}, {} optimizer counts",
                    b.warm.delta.jit_misses,
                    b.warm.delta.persist_hits,
                    b.warm.distinct,
                    b.warm.opt_counters
                )
            },
        );
        for part in [&b.full, &b.cold, &b.warm] {
            out.history
                .extend([part.delta.launches, part.distinct as u64]);
            total.add(&part.delta);
        }
    }

    // one kernel's payload result against the CPU reference evaluator, cold
    // and then on a context that runs the persisted PTX
    {
        let dir = store_dir("payload");
        for pass in ["cold", "store-warmed"] {
            let ctx = fresh_context(cfg, Some(&dir), true);
            let mut rng = StdRng::seed_from_u64(cfg.seed);
            let g = GaugeField::hot(&ctx, &mut rng);
            let m = WilsonDirac::new(&g, MASS, None);
            let psi = gaussian_fermion(&ctx, &mut rng);
            let (jit, reference) = (LatticeFermion::new(&ctx), LatticeFermion::new(&ctx));
            jit.assign(psi.q() + 0.25 * m.apply_dag_expr(psi.q()))
                .map_err(core_err)?;
            reference
                .assign_reference(psi.q() + 0.25 * m.apply_dag_expr(psi.q()))
                .map_err(core_err)?;
            let ulps = max_ulps(&jit, &reference);
            out.check(ulps <= 4, || {
                format!("{pass} payload is {ulps} ULP from the reference evaluator")
            });
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    let med = crate::stats::p50;
    let n = cfg.ops as f64;
    out.layer.insert("jit.cold_set_ms".into(), med(&part_ms[0]));
    out.layer
        .insert("jit.persist_cold_op_ms".into(), med(&part_ms[1]));
    out.layer
        .insert("jit.persist_open_ms".into(), med(&part_ms[2]));
    out.layer
        .insert("jit.persist_warm_op_ms".into(), med(&part_ms[3]));
    out.layer.insert("jit.persist_kb".into(), store_kb);
    out.layer
        .insert("jit.kernels_distinct".into(), distinct as f64);
    out.layer
        .insert("jit.modeled_compile_s".into(), modeled_s / n);
    out.layer
        .insert("jit.cache_misses_per_op".into(), misses as f64 / n);
    out.delta = Some(total);
    Ok(out)
}
