//! The differential executor: JIT pipeline vs CPU reference, ULP-compared.

use crate::fixture::Fixture;
use crate::gen::{gen_case, gen_stmt_sequence, subst_fields};
use qdp_core::OptLevel;
use qdp_expr::{Expr, FieldRef};
use qdp_layout::Subset;
use qdp_proptest::{check, CaseError, Config, Gen};
use qdp_types::{ElemKind, FloatType};
use std::collections::{HashMap, HashSet};

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

/// Run one expression through both paths over `subset` and return the
/// worst ULP distance between the two target buffers. Both targets start
/// zeroed and both paths write exactly the selected sites, so whole-buffer
/// comparison also catches out-of-subset writes.
pub fn diff_case(fx: &Fixture, expr: &Expr, subset: Subset) -> Result<u64, String> {
    let kind = expr.kind().map_err(|e| format!("generated ill-typed DAG: {e}"))?;
    let jit_t = fx.fresh_target(kind);
    let ref_t = fx.fresh_target(kind);
    let run = || -> Result<(), String> {
        qdp_core::eval(&fx.ctx, jit_t, expr, subset)
            .map_err(|e| format!("jit eval failed: {e:?}"))?;
        qdp_core::eval_reference(&fx.ctx, ref_t, expr, subset)
            .map_err(|e| format!("reference eval failed: {e:?}"))?;
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

/// Run one expression through the JIT pipeline on two fixtures built from
/// the same seed and device — `opt` at the default optimizer level, `plain`
/// with it off — and return the worst ULP distance between the two target
/// buffers. The level is fixed per context, so each context evaluates the
/// case once.
///
/// The default optimizer configuration (DAG CSE, address memo and sweep in
/// the generator) must be *value-preserving*, so the tolerance for this
/// mode is exactly zero: any difference is an optimizer bug, not float
/// slack.
pub fn opt_diff_case(
    opt: &Fixture,
    plain: &Fixture,
    expr: &Expr,
    subset: Subset,
) -> Result<u64, String> {
    let kind = expr.kind().map_err(|e| format!("generated ill-typed DAG: {e}"))?;
    let eval = |fx: &Fixture| -> Result<Vec<u8>, String> {
        let level = fx.ctx.opt_level();
        let t = fx.fresh_target(kind);
        let bytes = qdp_core::eval(&fx.ctx, t, expr, subset)
            .map_err(|e| format!("{level:?} eval failed: {e:?}"))
            .and_then(|_| {
                fx.ctx
                    .cache()
                    .with_host(t.id, |h| h.to_vec())
                    .map_err(|e| format!("{level:?} target readback: {e}"))
            });
        fx.release(t);
        bytes
    };
    let (a, b) = (eval(opt)?, eval(plain)?);
    Ok(max_ulp_distance(opt.ft, &a, &b))
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
            qdp_core::eval(&fx.ctx, map[&t.id], &plain, Subset::All)
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
    let fxs = SweepMode::Fuse.fixtures(cfg);
    run_cases(cfg, SweepMode::Fuse, &fxs, |case| {
        let Case::Sequence(stmts, twin) = case else {
            unreachable!("the fusion sweep draws sequences")
        };
        // The sequence, then its aliasing twin, back to back on the
        // shared context (the twin writes the same targets).
        [Some(stmts), twin.as_ref()]
            .into_iter()
            .flatten()
            .try_for_each(|seq| match fuse_diff_case(&fxs[0], seq)? {
                0 => Ok(()),
                max_ulp => Err(format!(
                    "fused and per-expression evaluation disagree by {max_ulp} ULPs \
                     (must be bit-identical) on sequence: {seq:?}"
                )),
            })
    });
}

/// Run an optimized-vs-unoptimized differential sweep: `cfg.cases` random
/// typed DAGs, each evaluated through the JIT pipeline on a context with
/// the optimizer on and on one with it off, required to agree
/// **bit-for-bit** (0 ULP).
pub fn opt_differential_sweep(cfg: &SweepConfig) {
    let fxs = SweepMode::Opt.fixtures(cfg);
    let [opt, plain] = [&fxs[0], &fxs[1]];
    // Fresh caches register the fixture leaves in the same order, so one
    // generated DAG names the same fields on both contexts.
    assert_eq!(opt.leaves(), plain.leaves(), "the two fixtures' leaves differ");
    run_cases(cfg, SweepMode::Opt, &fxs, |case| {
        let Case::Expr { kind, expr, subset } = case else {
            unreachable!("the optimizer sweep draws single expressions")
        };
        match opt_diff_case(opt, plain, expr, *subset)? {
            0 => Ok(()),
            max_ulp => Err(format!(
                "optimized and unoptimized kernels disagree by {max_ulp} ULPs \
                 (must be bit-identical) on {kind:?} target, subset {subset:?}, \
                 expr: {expr:?}"
            )),
        }
    });
}

/// What a sweep compares the JIT pipeline with. Each mode reads its own
/// case stream: a suite name and fixture seed of its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepMode {
    /// The CPU reference, within [`max_ulps`] ([`differential_sweep`]).
    Reference,
    /// Itself with the optimizer off, bit for bit ([`opt_differential_sweep`]).
    Opt,
    /// Per-expression evaluation of a fused statement sequence, bit for
    /// bit ([`fuse_differential_sweep`]).
    Fuse,
}

impl SweepMode {
    /// The proptest suite this mode's case seeds derive from.
    pub fn suite(self, cfg: &SweepConfig) -> String {
        match self {
            SweepMode::Reference => cfg.name.clone(),
            SweepMode::Opt => format!("opt_{}", cfg.name),
            SweepMode::Fuse => format!("fuse_{}", cfg.name),
        }
    }

    /// The fixtures a sweep of this mode runs on; its cases are drawn over
    /// the first. [`SweepMode::Opt`] holds two from one seed: the default
    /// optimizer level, then the optimizer off.
    pub fn fixtures(self, cfg: &SweepConfig) -> Vec<Fixture> {
        let fixture = |seed| match cfg.pressure {
            true => Fixture::pressure(cfg.ft, seed),
            false => Fixture::normal(cfg.ft, seed),
        };
        match self {
            SweepMode::Reference => vec![fixture(0xC0FFEE)],
            SweepMode::Opt => [OptLevel::Default, OptLevel::None]
                .map(|level| Fixture::new(cfg.ft, 0x0D1FF, cfg.pressure, level))
                .into(),
            SweepMode::Fuse => vec![fixture(0xF05ED)],
        }
    }
}

/// One sweep case, as drawn from its seed.
#[derive(Debug)]
pub enum Case {
    /// One expression of target kind `kind` over `subset` (the reference
    /// and optimizer sweeps).
    Expr {
        /// Target kind.
        kind: ElemKind,
        /// The expression.
        expr: Expr,
        /// Sites written.
        subset: Subset,
    },
    /// A statement sequence, then its aliasing twin (the fusion sweep).
    Sequence(Vec<(FieldRef, Expr)>, Option<Vec<(FieldRef, Expr)>>),
}

impl Case {
    /// Every expression the case evaluates.
    pub fn exprs(&self) -> Vec<&Expr> {
        match self {
            Case::Expr { expr, .. } => vec![expr],
            Case::Sequence(stmts, twin) => {
                stmts.iter().chain(twin.iter().flatten()).map(|(_, e)| e).collect()
            }
        }
    }
}

/// Drive `cfg.cases` cases of sweep `mode` on `fxs` (its
/// [`SweepMode::fixtures`]): per case, rotate the ballast of pressure
/// fixtures, draw the case over `fxs[0]`, hand it to `run` and release the
/// targets a sequence took. A failing case panics with its replayable seed.
pub fn run_cases(
    cfg: &SweepConfig,
    mode: SweepMode,
    fxs: &[Fixture],
    run: impl Fn(&Case) -> Result<(), String>,
) {
    let fx = &fxs[0];
    check(&mode.suite(cfg), Config::cases(cfg.cases), |g| {
        if cfg.pressure {
            fxs.iter().for_each(Fixture::churn);
        }
        let case = match mode {
            SweepMode::Reference | SweepMode::Opt => {
                let (kind, expr) = gen_case(g, fx, cfg.max_depth);
                let subset = random_subset(g);
                Case::Expr { kind, expr, subset }
            }
            SweepMode::Fuse => {
                let (stmts, twin) = gen_stmt_sequence(g, fx, cfg.max_depth);
                Case::Sequence(stmts, twin)
            }
        };
        let result = run(&case);
        if let Case::Sequence(stmts, _) = &case {
            // the twin writes the sequence's targets
            let mut seen = HashSet::new();
            for (t, _) in stmts {
                if seen.insert(t.id) {
                    fx.release(*t);
                }
            }
        }
        result.map_err(CaseError::fail)
    });
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

fn random_subset(g: &mut Gen) -> Subset {
    [Subset::All, Subset::Even, Subset::Odd][g.usize_in(0..3)]
}

/// Run a differential sweep: `cfg.cases` random typed DAGs, each evaluated
/// through the JIT pipeline and the reference path over a random subset,
/// compared within [`max_ulps`]. Panics (with the replayable
/// proptest seed) on the first shrunk failure. In pressure mode, asserts
/// that the sweep actually exercised the LRU spiller.
pub fn differential_sweep(cfg: &SweepConfig) {
    let fxs = SweepMode::Reference.fixtures(cfg);
    let fx = &fxs[0];
    let baseline = fx.ctx.cache().stats();
    run_cases(cfg, SweepMode::Reference, &fxs, |case| {
        let Case::Expr { kind, expr, subset } = case else {
            unreachable!("the reference sweep draws single expressions")
        };
        let max_ulp = diff_case(fx, expr, *subset)?;
        let tol = max_ulps(fx.ft);
        if max_ulp > tol {
            return Err(format!(
                "JIT and reference disagree by {max_ulp} ULPs (tolerance {tol}) \
                 on {kind:?} target, subset {subset:?}, expr: {expr:?}"
            ));
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
