//! Differential conformance tests: JIT pipeline vs CPU reference.
//!
//! The CI sweep runs 200 cases per configuration via the `conformance`
//! binary; these tests keep a smaller always-on version in `cargo test`,
//! plus targeted coverage of subsets and the seed-replay failure contract.

use qdp_conformance::diff::{diff_case, max_ulps, run_cases, SweepConfig, SweepMode};
use qdp_conformance::differential_sweep;
use qdp_conformance::fixture::Fixture;
use qdp_expr::{BinaryOp, Expr, ShiftDir, UnaryOp};
use qdp_layout::Subset;
use qdp_proptest::{check, CaseError, Config};
use qdp_types::{ElemKind, FloatType, ProjSign};
use std::cell::RefCell;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

#[test]
fn sweep_f64_normal() {
    differential_sweep(&SweepConfig::new(24, FloatType::F64, false));
}

#[test]
fn sweep_f32_normal() {
    differential_sweep(&SweepConfig::new(24, FloatType::F32, false));
}

#[test]
fn sweep_f64_pressure() {
    differential_sweep(&SweepConfig::new(16, FloatType::F64, true));
}

#[test]
fn sweep_f32_pressure() {
    differential_sweep(&SweepConfig::new(16, FloatType::F32, true));
}

/// A fixed, representative expression exercising shifts, adjoints and a
/// matrix product — the shape of a gauge-action staple term.
fn staple_like(fx: &Fixture) -> Expr {
    let shift = |e: Expr, mu: usize, dir: ShiftDir| Expr::Shift {
        mu,
        dir,
        child: Box::new(e),
    };
    let mul = |a: Expr, b: Expr| Expr::Binary(BinaryOp::Mul, Box::new(a), Box::new(b));
    let adj = |e: Expr| Expr::Unary(UnaryOp::Adj, Box::new(e));
    mul(
        Expr::Field(fx.u[0]),
        shift(
            mul(Expr::Field(fx.u[1]), adj(shift(Expr::Field(fx.u[0]), 1, ShiftDir::Backward))),
            0,
            ShiftDir::Forward,
        ),
    )
}

/// Subset coverage: the same expression must agree between the two paths
/// on `all`, `even` and `odd`. Targets start zeroed and the whole buffer is
/// compared, so this also catches writes leaking outside the subset.
#[test]
fn subset_coverage_all_even_odd() {
    for ft in [FloatType::F32, FloatType::F64] {
        let fx = Fixture::normal(ft, 7);
        let expr = staple_like(&fx);
        for subset in [Subset::All, Subset::Even, Subset::Odd] {
            let ulp = diff_case(&fx, &expr, subset).unwrap();
            assert!(
                ulp <= max_ulps(ft),
                "{ft:?} {subset:?}: {ulp} ULPs (tolerance {})",
                max_ulps(ft)
            );
        }
    }
}

/// The failure contract: when a differential case fails, the harness must
/// print a replayable seed. Drive a deliberately failing property through
/// the same `check` entry point the sweeps use and inspect the panic.
#[test]
fn failing_case_prints_replayable_seed() {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = catch_unwind(AssertUnwindSafe(|| {
        check("conformance_seed_contract", Config::cases(5), |_g| {
            Err::<(), _>(CaseError::fail("deliberate conformance failure"))
        });
    }));
    std::panic::set_hook(hook);
    let payload = result.expect_err("property must fail");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    for needle in ["seed:", "replay:", "QDP_PROPTEST_SEED="] {
        assert!(
            msg.contains(needle),
            "failure message missing {needle:?}: {msg}"
        );
    }
}

/// Pressure-mode plumbing: the shrunken-device fixture must actually spill
/// when ballast rotates against a working set (this is also asserted
/// inside every pressure sweep; here it is pinned as its own test).
#[test]
fn pressure_fixture_spills_under_churn() {
    let fx = Fixture::pressure(FloatType::F64, 3);
    let expr = staple_like(&fx);
    let before = fx.ctx.cache().stats();
    for _ in 0..4 {
        fx.churn();
        let ulp = diff_case(&fx, &expr, Subset::All).unwrap();
        assert!(ulp <= max_ulps(FloatType::F64));
    }
    let after = fx.ctx.cache().stats();
    assert!(
        after.spills > before.spills && after.page_ins > before.page_ins,
        "no spill traffic: {after:?}"
    );
}

/// What a case stream's expressions reach of the spin-projector pair.
#[derive(Default, Debug)]
struct ProjectorCoverage {
    project: HashSet<(usize, ProjSign)>,
    reconstruct: HashSet<(usize, ProjSign)>,
    /// A half spinor read under a shift.
    shifted_half: bool,
    /// `x + reconstruct(h)`: the accumulate the hopping term uses.
    accumulate: bool,
}

impl ProjectorCoverage {
    fn visit(&mut self, e: &Expr) {
        match e {
            Expr::Field(_) | Expr::Scalar { .. } => {}
            Expr::Unary(_, c) => self.visit(c),
            Expr::Binary(op, a, b) => {
                self.accumulate |= *op == BinaryOp::Add
                    && matches!(**b, Expr::SpinReconstruct { .. });
                self.visit(a);
                self.visit(b);
            }
            Expr::Shift { child, .. } => {
                self.shifted_half |= child.kind() == Ok(ElemKind::HalfFermion);
                self.visit(child);
            }
            Expr::SpinProject { proj, child } => {
                self.project.insert((proj.mu, proj.sign));
                self.visit(child);
            }
            Expr::SpinReconstruct { proj, child } => {
                self.reconstruct.insert((proj.mu, proj.sign));
                self.visit(child);
            }
            Expr::GammaMul { child, .. } | Expr::CloverApply { child, .. } => self.visit(child),
        }
    }

    fn complete(&self) -> bool {
        self.project.len() == 8 && self.reconstruct.len() == 8 && self.shifted_half && self.accumulate
    }
}

/// Every CI sweep — plain and `QDP_OPT=0` (one case stream),
/// `--pressure`, `--opt-diff` and `--fuse-diff` — at both precisions
/// generates, over its 200 replayable cases, the projector pair for every
/// direction and both signs, a half spinor under a shift and a
/// reconstruction accumulated into a sum. The cases come from the sweeps'
/// own driver, suites and fixtures; only their evaluation is skipped.
#[test]
fn every_sweep_covers_the_projector_pair() {
    for ft in [FloatType::F32, FloatType::F64] {
        for (pressure, mode) in [
            (false, SweepMode::Reference),
            (true, SweepMode::Reference),
            (false, SweepMode::Opt),
            (false, SweepMode::Fuse),
        ] {
            let cfg = SweepConfig::new(200, ft, pressure);
            let cov = RefCell::new(ProjectorCoverage::default());
            run_cases(&cfg, mode, &mode.fixtures(&cfg), |case| {
                case.exprs().into_iter().for_each(|e| cov.borrow_mut().visit(e));
                Ok(())
            });
            let cov = cov.into_inner();
            assert!(cov.complete(), "{}: {cov:?}", mode.suite(&cfg));
        }
    }
}
