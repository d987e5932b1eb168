//! The differential executor: JIT pipeline vs CPU reference, ULP-compared.

use crate::fixture::Fixture;
use crate::gen::{gen_stmt_sequence, gen_typed_expr, random_target_kind, subst_fields};
use qdp_core::OptLevel;
use qdp_expr::{Expr, FieldRef};
use qdp_layout::Subset;
use qdp_proptest::{check, CaseError, Config, Gen};
use qdp_types::FloatType;
use std::collections::{HashMap, HashSet};

/// Site selection for one differential case.
#[derive(Debug, Clone)]
pub enum SiteSel {
    /// A named subset (all / even / odd).
    Subset(Subset),
    /// An explicit (possibly non-contiguous) site list.
    List(Vec<u32>),
}

/// ULP tolerance per float type. Both paths execute the same operation
/// sequence, so in practice they agree bit-for-bit; the tolerance is the
/// conformance *contract*, leaving room for harmless reassociations in
/// future codegen work without letting real divergence through.
pub fn max_ulps(ft: FloatType) -> u64 {
    match ft {
        FloatType::F32 => 4,
        FloatType::F64 => 2,
    }
}

/// Map f32 bits onto a monotone integer line (−0.0 and +0.0 coincide).
fn ordered_f32(bits: u32) -> i64 {
    let b = bits as i32;
    if b < 0 {
        (i32::MIN as i64) - b as i64
    } else {
        b as i64
    }
}

/// Map f64 bits onto a monotone integer line.
fn ordered_f64(bits: u64) -> i128 {
    let b = bits as i64;
    if b < 0 {
        (i64::MIN as i128) - b as i128
    } else {
        b as i128
    }
}

/// ULP distance between two values of the same float type, given their
/// little-endian bytes. NaN==NaN counts as zero distance (both paths must
/// produce the same non-finite behaviour); NaN vs non-NaN is maximal.
fn ulp_distance(ft: FloatType, a: &[u8], b: &[u8]) -> u64 {
    match ft {
        FloatType::F32 => {
            let x = f32::from_le_bytes(a.try_into().unwrap());
            let y = f32::from_le_bytes(b.try_into().unwrap());
            match (x.is_nan(), y.is_nan()) {
                (true, true) => 0,
                (true, false) | (false, true) => u64::MAX,
                _ => ordered_f32(x.to_bits())
                    .abs_diff(ordered_f32(y.to_bits())),
            }
        }
        FloatType::F64 => {
            let x = f64::from_le_bytes(a.try_into().unwrap());
            let y = f64::from_le_bytes(b.try_into().unwrap());
            match (x.is_nan(), y.is_nan()) {
                (true, true) => 0,
                (true, false) | (false, true) => u64::MAX,
                _ => ordered_f64(x.to_bits())
                    .abs_diff(ordered_f64(y.to_bits()))
                    .min(u128::from(u64::MAX)) as u64,
            }
        }
    }
}

/// Worst per-component ULP distance between two same-layout field buffers.
pub fn max_ulp_distance(ft: FloatType, a: &[u8], b: &[u8]) -> u64 {
    let esize = ft.size_bytes();
    assert_eq!(a.len(), b.len());
    let mut worst = 0u64;
    for i in (0..a.len()).step_by(esize) {
        let d = ulp_distance(ft, &a[i..i + esize], &b[i..i + esize]);
        worst = worst.max(d);
    }
    worst
}

/// Run one expression through both paths over `sites` and return the worst
/// ULP distance between the two target buffers. Both targets start zeroed
/// and both paths write exactly the selected sites, so whole-buffer
/// comparison also catches out-of-subset writes.
pub fn diff_case(fx: &Fixture, expr: &Expr, sites: &SiteSel) -> Result<u64, String> {
    let kind = expr.kind().map_err(|e| format!("generated ill-typed DAG: {e}"))?;
    let jit_t = fx.fresh_target(kind);
    let ref_t = fx.fresh_target(kind);
    let run = || -> Result<(), String> {
        match sites {
            SiteSel::Subset(s) => {
                qdp_core::eval(&fx.ctx, jit_t, expr, &qdp_core::EvalParams::new().subset(*s))
                    .map_err(|e| format!("jit eval failed: {e:?}"))?;
                qdp_core::eval_reference(&fx.ctx, ref_t, expr, *s)
                    .map_err(|e| format!("reference eval failed: {e:?}"))?;
            }
            SiteSel::List(list) => {
                qdp_core::eval(&fx.ctx, jit_t, expr, &qdp_core::EvalParams::new().sites(list))
                    .map_err(|e| format!("jit site-list eval failed: {e:?}"))?;
                qdp_core::eval_reference_sites(&fx.ctx, ref_t, expr, list)
                    .map_err(|e| format!("reference site-list eval failed: {e:?}"))?;
            }
        }
        Ok(())
    };
    let result = run().and_then(|()| {
        let a = fx
            .ctx
            .cache()
            .with_host(jit_t.id, |h| h.to_vec())
            .map_err(|e| format!("jit target readback: {e}"))?;
        let b = fx
            .ctx
            .cache()
            .with_host(ref_t.id, |h| h.to_vec())
            .map_err(|e| format!("reference target readback: {e}"))?;
        Ok(max_ulp_distance(fx.ft, &a, &b))
    });
    fx.release(jit_t);
    fx.release(ref_t);
    result
}

/// Run one expression through the JIT pipeline twice — once with the
/// kernel optimizer at its default level, once with it off — and return
/// the worst ULP distance between the two target buffers.
///
/// The default optimizer configuration (DAG CSE + bit-preserving PTX
/// passes) must be *value-preserving*, so the tolerance for this mode is
/// exactly zero: any difference is an optimizer bug, not float slack.
pub fn opt_diff_case(fx: &Fixture, expr: &Expr, sites: &SiteSel) -> Result<u64, String> {
    let kind = expr.kind().map_err(|e| format!("generated ill-typed DAG: {e}"))?;
    let opt_t = fx.fresh_target(kind);
    let plain_t = fx.fresh_target(kind);
    let eval = |target, level| -> Result<(), String> {
        // per-eval optimizer override through the unified entry point — no
        // context-level mutation needed
        let params = match sites {
            SiteSel::Subset(s) => qdp_core::EvalParams::new().subset(*s),
            SiteSel::List(list) => qdp_core::EvalParams::new().sites(list),
        };
        qdp_core::eval(&fx.ctx, target, expr, &params.opt_level(level))
            .map(|_| ())
            .map_err(|e| format!("{level:?} eval failed: {e:?}"))
    };
    let result = eval(opt_t, OptLevel::Default)
        .and_then(|()| eval(plain_t, OptLevel::None))
        .and_then(|()| {
            let a = fx
                .ctx
                .cache()
                .with_host(opt_t.id, |h| h.to_vec())
                .map_err(|e| format!("optimized target readback: {e}"))?;
            let b = fx
                .ctx
                .cache()
                .with_host(plain_t.id, |h| h.to_vec())
                .map_err(|e| format!("plain target readback: {e}"))?;
            Ok(max_ulp_distance(fx.ft, &a, &b))
        });
    fx.ctx.set_opt_level(None);
    fx.release(opt_t);
    fx.release(plain_t);
    result
}

/// Run one statement *sequence* through the fusion planner and, against a
/// disjoint set of targets, through plain per-expression evaluation in
/// recording order. Returns the worst ULP distance across all target
/// buffers. The fused path must be **bit-identical** (0 ULP): fusion only
/// changes launch grouping, never per-site arithmetic.
pub fn fuse_diff_case(fx: &Fixture, stmts: &[(FieldRef, Expr)]) -> Result<u64, String> {
    // Second target set for the per-expression run, aliased the same way
    // (a repeated fused target maps to the same repeated plain target).
    let mut map: HashMap<u64, FieldRef> = HashMap::new();
    for (t, _) in stmts {
        map.entry(t.id).or_insert_with(|| fx.fresh_target(t.kind));
    }
    let run = || -> Result<u64, String> {
        qdp_core::eval_fused_sequence(&fx.ctx, stmts)
            .map_err(|e| format!("fused sequence eval failed: {e:?}"))?;
        for (t, e) in stmts {
            let plain = subst_fields(e, &map);
            qdp_core::eval(
                &fx.ctx,
                map[&t.id],
                &plain,
                &qdp_core::EvalParams::new().subset(Subset::All),
            )
            .map_err(|e| format!("per-expression eval failed: {e:?}"))?;
        }
        let mut worst = 0u64;
        for (fused_id, plain) in &map {
            let a = fx
                .ctx
                .cache()
                .with_host(*fused_id, |h| h.to_vec())
                .map_err(|e| format!("fused target readback: {e}"))?;
            let b = fx
                .ctx
                .cache()
                .with_host(plain.id, |h| h.to_vec())
                .map_err(|e| format!("plain target readback: {e}"))?;
            worst = worst.max(max_ulp_distance(fx.ft, &a, &b));
        }
        Ok(worst)
    };
    let result = run();
    for (_, plain) in map {
        fx.release(plain);
    }
    result
}

/// Run a fused-vs-per-expression differential sweep: `cfg.cases` random
/// statement sequences (shared leaves, producer→consumer chains, shifted
/// reads and write-after-write hazards), each — and then its aliasing
/// twin, see [`gen_stmt_sequence`] — executed once through
/// [`qdp_core::eval_fused_sequence`] and once statement-by-statement,
/// required to agree **bit-for-bit** (0 ULP).
pub fn fuse_differential_sweep(cfg: &SweepConfig) {
    let fx = if cfg.pressure {
        Fixture::pressure(cfg.ft, 0xF05ED)
    } else {
        Fixture::normal(cfg.ft, 0xF05ED)
    };
    check(
        &format!("fuse_{}", cfg.name),
        Config::cases(cfg.cases),
        |g| {
            if cfg.pressure {
                fx.churn();
            }
            let (stmts, twin) = gen_stmt_sequence(g, &fx, cfg.max_depth);
            // The sequence, then its aliasing twin, back to back on the
            // shared context (the twin writes the same targets).
            let result = [Some(&stmts), twin.as_ref()]
                .into_iter()
                .flatten()
                .try_for_each(|seq| match fuse_diff_case(&fx, seq)? {
                    0 => Ok(()),
                    max_ulp => Err(format!(
                        "fused and per-expression evaluation disagree by {max_ulp} ULPs \
                         (must be bit-identical) on sequence: {seq:?}"
                    )),
                });
            let mut seen = HashSet::new();
            for (t, _) in &stmts {
                if seen.insert(t.id) {
                    fx.release(*t);
                }
            }
            result.map_err(CaseError::fail)
        },
    );
}

/// Run an optimized-vs-unoptimized differential sweep: `cfg.cases` random
/// typed DAGs, each evaluated through the JIT pipeline with the optimizer
/// on and off, required to agree **bit-for-bit** (0 ULP).
pub fn opt_differential_sweep(cfg: &SweepConfig) {
    let fx = if cfg.pressure {
        Fixture::pressure(cfg.ft, 0x0D1FF)
    } else {
        Fixture::normal(cfg.ft, 0x0D1FF)
    };
    check(
        &format!("opt_{}", cfg.name),
        Config::cases(cfg.cases),
        |g| {
            if cfg.pressure {
                fx.churn();
            }
            let kind = random_target_kind(g);
            let depth = g.depth(cfg.max_depth);
            let expr = gen_typed_expr(g, &fx, kind, depth);
            let sites = random_sites(g, cfg.pressure);
            let max_ulp = opt_diff_case(&fx, &expr, &sites).map_err(CaseError::fail)?;
            if max_ulp > 0 {
                return Err(CaseError::fail(format!(
                    "optimized and unoptimized kernels disagree by {max_ulp} ULPs \
                     (must be bit-identical) on {kind:?} target, sites {sites:?}, \
                     expr: {expr:?}"
                )));
            }
            Ok(())
        },
    );
}

/// One sweep's configuration.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Suite name (distinct names explore distinct case streams).
    pub name: String,
    /// Number of generated DAGs.
    pub cases: u32,
    /// Field precision.
    pub ft: FloatType,
    /// Run on the shrunken-device fixture with ballast churn.
    pub pressure: bool,
    /// Maximum expression depth (scaled down by proptest size).
    pub max_depth: usize,
}

impl SweepConfig {
    /// Standard sweep at the given precision.
    pub fn new(cases: u32, ft: FloatType, pressure: bool) -> SweepConfig {
        SweepConfig {
            name: format!(
                "differential_{}{}",
                ft.tag(),
                if pressure { "_pressure" } else { "" }
            ),
            cases,
            ft,
            pressure,
            max_depth: 4,
        }
    }
}

fn random_sites(g: &mut Gen, pressure: bool) -> SiteSel {
    let vol = Fixture::geometry().vol();
    match g.usize_in(0..if pressure { 3 } else { 4 }) {
        0 => SiteSel::Subset(Subset::All),
        1 => SiteSel::Subset(Subset::Even),
        2 => SiteSel::Subset(Subset::Odd),
        // Non-contiguous custom list: ~1/3 of the sites, scattered. Only
        // offered off-pressure — the site-list table is a raw device
        // allocation that the spiller cannot move.
        _ => SiteSel::List(
            (0..vol as u32)
                .filter(|_| g.usize_in(0..3) == 0)
                .collect(),
        ),
    }
}

/// Run a differential sweep: `cfg.cases` random typed DAGs, each evaluated
/// through the JIT pipeline and the reference path over a random site
/// selection, compared within [`max_ulps`]. Panics (with the replayable
/// proptest seed) on the first shrunk failure. In pressure mode, asserts
/// that the sweep actually exercised the LRU spiller.
pub fn differential_sweep(cfg: &SweepConfig) {
    let fx = if cfg.pressure {
        Fixture::pressure(cfg.ft, 0xC0FFEE)
    } else {
        Fixture::normal(cfg.ft, 0xC0FFEE)
    };
    let baseline = fx.ctx.cache().stats();
    check(&cfg.name, Config::cases(cfg.cases), |g| {
        if cfg.pressure {
            fx.churn();
        }
        let kind = random_target_kind(g);
        let depth = g.depth(cfg.max_depth);
        let expr = gen_typed_expr(g, &fx, kind, depth);
        let sites = random_sites(g, cfg.pressure);
        let max_ulp = diff_case(&fx, &expr, &sites).map_err(CaseError::fail)?;
        let tol = max_ulps(fx.ft);
        if max_ulp > tol {
            return Err(CaseError::fail(format!(
                "JIT and reference disagree by {max_ulp} ULPs (tolerance {tol}) \
                 on {kind:?} target, sites {sites:?}, expr: {expr:?}"
            )));
        }
        Ok(())
    });
    if cfg.pressure {
        let s = fx.ctx.cache().stats();
        assert!(
            s.spills > baseline.spills && s.page_ins > baseline.page_ins,
            "pressure sweep never hit the spiller: {s:?} (baseline {baseline:?})"
        );
    }
}
