//! Golden-PTX snapshot tests.
//!
//! The code generator's exact output for a handful of representative
//! kernels is pinned under `tests/snapshots/`. Any codegen change shows up
//! as a readable text diff in review instead of a silent behaviour shift.
//!
//! To regenerate after an intentional codegen change:
//!
//! ```text
//! QDP_UPDATE_SNAPSHOTS=1 cargo test -p qdp-core --test golden_ptx
//! ```
//!
//! then commit the updated `.ptx` files with the change that caused them.

use qdp_core::{
    codegen_fused_ptx, codegen_ptx, plan_codegen, render_ptx, OptLevel, QdpConfig, QdpContext,
};
use qdp_expr::{BinaryOp, Expr, FieldRef, ShiftDir, UnaryOp};
use qdp_layout::{Geometry, LayoutKind, Subset};
use qdp_types::{ElemKind, FloatType, Gamma, TypeShape};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Arc;

struct Env {
    ctx: Arc<QdpContext>,
    u: [FieldRef; 4],
    psi: [FieldRef; 2],
    /// Fermion target for fused producer→consumer snapshots.
    chi: FieldRef,
    /// Real target (reduction temporary stand-in) for fused snapshots.
    rho: FieldRef,
}

/// Deterministic registration order — snapshot parameter layout depends
/// only on this function, not on test execution order.
fn env(ft: FloatType) -> Env {
    env_in(LayoutKind::SoA, ft)
}

fn env_in(layout: LayoutKind, ft: FloatType) -> Env {
    // Snapshots pin the *default-optimized* output; a stray QDP_OPT in the
    // environment must not change what these tests compare against.
    let ctx = QdpContext::builder(Geometry::new([4, 2, 2, 4]))
        .config(QdpConfig::from_env())
        .opt_level(OptLevel::Default)
        .layout(layout)
        .build();
    let reg = |kind: ElemKind| field(&ctx, kind, ft);
    let u = [
        reg(ElemKind::ColorMatrix),
        reg(ElemKind::ColorMatrix),
        reg(ElemKind::ColorMatrix),
        reg(ElemKind::ColorMatrix),
    ];
    let psi = [reg(ElemKind::Fermion), reg(ElemKind::Fermion)];
    let chi = reg(ElemKind::Fermion);
    let rho = reg(ElemKind::Real);
    Env {
        ctx,
        u,
        psi,
        chi,
        rho,
    }
}

/// Register a field of `kind` and precision `ft` on `ctx`.
fn field(ctx: &QdpContext, kind: ElemKind, ft: FloatType) -> FieldRef {
    let bytes = ctx.geometry().vol() * TypeShape::of(kind).n_reals() * ft.size_bytes();
    FieldRef {
        id: ctx.cache().register(bytes),
        kind,
        ft,
    }
}

fn mul(a: Expr, b: Expr) -> Expr {
    Expr::Binary(BinaryOp::Mul, Box::new(a), Box::new(b))
}

fn add(a: Expr, b: Expr) -> Expr {
    Expr::Binary(BinaryOp::Add, Box::new(a), Box::new(b))
}

fn sub(a: Expr, b: Expr) -> Expr {
    Expr::Binary(BinaryOp::Sub, Box::new(a), Box::new(b))
}

fn adj(e: Expr) -> Expr {
    Expr::Unary(UnaryOp::Adj, Box::new(e))
}

fn shift(e: Expr, mu: usize, dir: ShiftDir) -> Expr {
    Expr::Shift {
        mu,
        dir,
        child: Box::new(e),
    }
}

fn gamma_mul(mu: usize, e: Expr) -> Expr {
    Expr::GammaMul {
        gamma: Gamma::gamma_mu(mu),
        child: Box::new(e),
    }
}

/// The Wilson hopping term (paper §VIII-C, the flagship kernel):
/// `Σ_µ [(1 − γ_µ) U_µ ψ(x+µ̂) + (1 + γ_µ) U_µ†(x−µ̂) ψ(x−µ̂)]`.
fn wilson_dslash_expr(e: &Env) -> Expr {
    let mut acc: Option<Expr> = None;
    for mu in 0..4 {
        let fwd = mul(
            Expr::Field(e.u[mu]),
            shift(Expr::Field(e.psi[0]), mu, ShiftDir::Forward),
        );
        let bwd = shift(
            mul(adj(Expr::Field(e.u[mu])), Expr::Field(e.psi[0])),
            mu,
            ShiftDir::Backward,
        );
        let term = add(
            sub(fwd.clone(), gamma_mul(mu, fwd)),
            add(bwd.clone(), gamma_mul(mu, bwd)),
        );
        acc = Some(match acc {
            None => term,
            Some(a) => add(a, term),
        });
    }
    acc.unwrap()
}

fn snapshot_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/snapshots")
        .join(format!("{name}.ptx"))
}

/// Compare generated PTX against the pinned snapshot (or regenerate it
/// when `QDP_UPDATE_SNAPSHOTS=1`), and require the text to make it through
/// the driver JIT.
fn check_snapshot(name: &str, ptx: &str) {
    let (kernels, _, _) = qdp_jit::compile_ptx(ptx, OptLevel::None)
        .unwrap_or_else(|e| panic!("snapshot {name} does not compile: {e:?}"));
    assert!(!kernels.is_empty(), "snapshot {name}: no kernels");

    let path = snapshot_path(name);
    if std::env::var_os("QDP_UPDATE_SNAPSHOTS").is_some_and(|v| v == "1") {
        std::fs::write(&path, ptx).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "snapshot {} unreadable ({e}); run with QDP_UPDATE_SNAPSHOTS=1 to create it",
            path.display()
        )
    });
    assert!(
        golden == ptx,
        "PTX for `{name}` diverged from tests/snapshots/{name}.ptx.\n\
         If the codegen change is intentional, regenerate with\n\
         QDP_UPDATE_SNAPSHOTS=1 cargo test -p qdp-core --test golden_ptx\n\
         and commit the diff.\n\n--- generated ---\n{ptx}"
    );
}

#[test]
fn golden_wilson_dslash_f64() {
    let e = env(FloatType::F64);
    let expr = wilson_dslash_expr(&e);
    let target = e.psi[1];
    let ptx = codegen_ptx(&e.ctx, target, &expr, Subset::All, "wilson_dslash_dp").unwrap();
    check_snapshot("wilson_dslash_dp", &ptx);
}

#[test]
fn golden_wilson_dslash_f32() {
    let e = env(FloatType::F32);
    let expr = wilson_dslash_expr(&e);
    let target = e.psi[1];
    let ptx = codegen_ptx(&e.ctx, target, &expr, Subset::All, "wilson_dslash_sp").unwrap();
    check_snapshot("wilson_dslash_sp", &ptx);
}

#[test]
fn golden_su3_mul() {
    let e = env(FloatType::F64);
    let expr = mul(Expr::Field(e.u[0]), Expr::Field(e.u[1]));
    let ptx = codegen_ptx(&e.ctx, e.u[2], &expr, Subset::All, "su3_mul_dp").unwrap();
    check_snapshot("su3_mul_dp", &ptx);
}

#[test]
fn golden_axpy_fermion() {
    let e = env(FloatType::F64);
    let expr = add(Expr::Field(e.psi[0]), mul(Expr::real(0.75), Expr::Field(e.psi[1])));
    let target = e.psi[0];
    let ptx = codegen_ptx(&e.ctx, target, &expr, Subset::All, "axpy_fermion_dp").unwrap();
    check_snapshot("axpy_fermion_dp", &ptx);
}

/// Fused producer→consumer group: an axpy writing `chi` and the
/// local-norm temporary reading `chi` back **unshifted** in the same
/// kernel — the canonical CG inner-loop fusion. Two `dst` parameters, one
/// shared leaf set, stores interleaved per thread.
#[test]
fn golden_fused_axpy_norm2() {
    let e = env(FloatType::F64);
    let axpy = add(
        Expr::Field(e.psi[0]),
        mul(Expr::real(0.75), Expr::Field(e.psi[1])),
    );
    let n2 = Expr::Unary(UnaryOp::LocalNorm2, Box::new(Expr::Field(e.chi)));
    let stmts = [(e.chi, axpy), (e.rho, n2)];
    let ptx =
        codegen_fused_ptx(&e.ctx, &stmts, Subset::All, "fused_axpy_norm2_dp").unwrap();
    check_snapshot("fused_axpy_norm2_dp", &ptx);
}

/// Fused independent-statement group: the HMC two-term force
/// accumulation, `F_µ ← F_µ + ε·G_µ` for two directions in one kernel
/// (distinct targets, no cross-statement reads, shared scalar).
#[test]
fn golden_fused_force_accum() {
    let e = env(FloatType::F64);
    let s0 = add(
        Expr::Field(e.u[0]),
        mul(Expr::real(0.5), Expr::Field(e.u[2])),
    );
    let s1 = add(
        Expr::Field(e.u[1]),
        mul(Expr::real(0.5), Expr::Field(e.u[3])),
    );
    let stmts = [(e.u[0], s0), (e.u[1], s1)];
    let ptx =
        codegen_fused_ptx(&e.ctx, &stmts, Subset::All, "fused_force_accum_dp").unwrap();
    check_snapshot("fused_force_accum_dp", &ptx);
}

/// Subset-mapped kernel: checkerboard evaluation routes sites through the
/// subset table, a different indexing prologue from the dense case.
#[test]
fn golden_shift_cm_even() {
    let e = env(FloatType::F64);
    let expr = shift(Expr::Field(e.u[0]), 0, ShiftDir::Forward);
    let ptx = codegen_ptx(&e.ctx, e.u[1], &expr, Subset::Even, "shift_cm_even_dp").unwrap();
    check_snapshot("shift_cm_even_dp", &ptx);
}

/// The code generator's dialect, one opcode spelling each: the forms the
/// parser, validation, optimizer, lowering and executor accept.
#[rustfmt::skip]
const DIALECT: [&str; 34] = [
    "ld.param.u32", "ld.param.u64", "ld.param.f32", "ld.param.f64",
    "ld.global.u32", "ld.global.f32", "ld.global.f64", "st.global.f32", "st.global.f64",
    "mov.u32", "mov.f32", "mov.f64", "cvt.f64.f32", "cvt.rn.f32.f64",
    "add.f32", "add.f64", "add.u32", "add.u64", "sub.f32", "sub.f64",
    "mul.f32", "mul.f64", "neg.f32", "neg.f64", "fma.rn.f32", "fma.rn.f64",
    "and.b32", "mul.wide.u32", "mad.lo.u32",
    "setp.ge.u32", "setp.ne.u32", "selp.u64", "bra", "ret",
];

/// The opcode spelling of each instruction of a module (a guard predicate
/// dropped).
fn opcodes(ptx: &str) -> impl Iterator<Item = &str> {
    ptx.lines().filter_map(|line| {
        let line = line.trim();
        let line = match line.strip_prefix('@') {
            Some(guarded) => guarded.split_once(' ')?.1,
            None => line,
        };
        let op = line.split_whitespace().next()?.trim_end_matches(';');
        let directive = op.starts_with(['.', '/', '$']) || matches!(op, "{" | "}" | ")");
        (!directive).then_some(op)
    })
}

/// Pins the dialect from the producer side: over SoA and AoS, both
/// precisions, a checkerboard subset, a remote-shift plan, an f32 leaf in
/// an f64 expression and a fused group, the generator emits exactly the
/// dialect — a new form, or a kept form it no longer emits, fails here.
#[test]
fn generator_emits_exactly_the_dialect() {
    let mut modules = Vec::new();
    for layout in [LayoutKind::SoA, LayoutKind::AoS] {
        for ft in [FloatType::F32, FloatType::F64] {
            let e = env_in(layout, ft);
            let dslash = wilson_dslash_expr(&e);
            for subset in [Subset::All, Subset::Even] {
                modules.push(codegen_ptx(&e.ctx, e.chi, &dslash, subset, "k").unwrap());
            }
            let remote = plan_codegen(&e.ctx, e.chi, &dslash, false, true).unwrap();
            modules.push(render_ptx(&remote, &dslash, "k").unwrap());
            let axpy = add(
                Expr::Field(e.psi[0]),
                mul(Expr::real(0.75), Expr::Field(e.psi[1])),
            );
            let n2 = Expr::Unary(UnaryOp::LocalNorm2, Box::new(Expr::Field(e.chi)));
            let fused = [(e.chi, axpy), (e.rho, n2)];
            modules.push(codegen_fused_ptx(&e.ctx, &fused, Subset::All, "k").unwrap());
        }
    }
    // Mixed precision: f32 leaves promoted into an f64 expression, stored
    // back into an f32 target.
    let e = env(FloatType::F32);
    let dp = field(&e.ctx, ElemKind::Fermion, FloatType::F64);
    let mixed = add(
        Expr::Field(e.psi[0]),
        mul(Expr::Field(e.u[0]), Expr::Field(dp)),
    );
    modules.push(codegen_ptx(&e.ctx, e.chi, &mixed, Subset::All, "k").unwrap());

    let seen: BTreeSet<&str> = modules.iter().flat_map(|m| opcodes(m)).collect();
    assert_eq!(seen, BTreeSet::from(DIALECT));
}
