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
    codegen_fused_kernel, codegen_fused_ptx, codegen_ptx, eval_fused_sequence, plan_codegen,
    reduce_sum_complex, reduce_sum_real, render_ptx, OptLevel, QExpr, QdpConfig, QdpContext,
    SiteComplex, SiteReal,
};
use qdp_expr::{BinaryOp, Expr, FieldRef, ShiftDir, UnaryOp};
use qdp_layout::{Geometry, LayoutKind, Subset};
use qdp_rng::{Rng, SeedableRng, StdRng};
use qdp_types::{ElemKind, FloatType, ProjSign, SpinProjector, TypeShape};
use std::collections::BTreeSet;
use std::marker::PhantomData;
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
    env_in(LayoutKind::SoA, ft, OptLevel::Default)
}

fn env_in(layout: LayoutKind, ft: FloatType, level: OptLevel) -> Env {
    // Snapshots pin the *default-optimized* output; a stray QDP_OPT in the
    // environment must not change what these tests compare against.
    let ctx = QdpContext::builder(Geometry::new([4, 2, 2, 4]))
        .config(QdpConfig::from_env())
        .opt_level(level)
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

fn project(e: Expr, mu: usize, sign: ProjSign) -> Expr {
    Expr::SpinProject {
        proj: SpinProjector::new(mu, sign),
        child: Box::new(e),
    }
}

fn reconstruct(e: Expr, mu: usize, sign: ProjSign) -> Expr {
    Expr::SpinReconstruct {
        proj: SpinProjector::new(mu, sign),
        child: Box::new(e),
    }
}

/// The Wilson hopping term (paper §VIII-C, the flagship kernel):
/// `Σ_µ [(1 − γ_µ) U_µ ψ(x+µ̂) + (1 + γ_µ) U_µ†(x−µ̂) ψ(x−µ̂)]`, spin-projected
/// as `chroma_mini::fermion::wilson_hopping_expr` builds it.
fn wilson_dslash_expr(e: &Env) -> Expr {
    let psi = || Expr::Field(e.psi[0]);
    let mut acc: Option<Expr> = None;
    for mu in 0..4 {
        let (fs, bs) = (ProjSign::Minus, ProjSign::Plus);
        let fwd = mul(
            Expr::Field(e.u[mu]),
            shift(project(psi(), mu, fs), mu, ShiftDir::Forward),
        );
        let bwd = shift(
            mul(adj(Expr::Field(e.u[mu])), project(psi(), mu, bs)),
            mu,
            ShiftDir::Backward,
        );
        for (h, sign) in [(fwd, fs), (bwd, bs)] {
            let term = reconstruct(h, mu, sign);
            acc = Some(match acc {
                None => term,
                Some(a) => add(a, term),
            });
        }
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
    let kernels = qdp_jit::compile_ptx(ptx)
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

/// The eight golden kernels: snapshot name and precision.
const GOLDENS: [(&str, FloatType); 8] = [
    ("wilson_dslash_dp", FloatType::F64),
    ("wilson_dslash_sp", FloatType::F32),
    ("su3_mul_dp", FloatType::F64),
    ("axpy_fermion_dp", FloatType::F64),
    ("fused_axpy_norm2_dp", FloatType::F64),
    ("fused_force_accum_dp", FloatType::F64),
    ("shift_cm_even_dp", FloatType::F64),
    ("inner_product_sp", FloatType::F32),
];

/// One golden kernel: its assignments (one, or a fused group), the
/// reductions that follow them in the same kernel, and its subset.
struct Golden {
    stmts: Vec<(FieldRef, Expr)>,
    reductions: Vec<Expr>,
    subset: Subset,
}

/// Golden `name` on `e`.
fn golden(e: &Env, name: &str) -> Golden {
    let assign = |stmts: Vec<(FieldRef, Expr)>, subset| Golden {
        stmts,
        reductions: Vec::new(),
        subset,
    };
    match name {
        "wilson_dslash_dp" | "wilson_dslash_sp" => {
            assign(vec![(e.psi[1], wilson_dslash_expr(e))], Subset::All)
        }
        "su3_mul_dp" => assign(
            vec![(e.u[2], mul(Expr::Field(e.u[0]), Expr::Field(e.u[1])))],
            Subset::All,
        ),
        "axpy_fermion_dp" => assign(
            vec![(
                e.psi[0],
                add(Expr::Field(e.psi[0]), mul(Expr::real(0.75), Expr::Field(e.psi[1]))),
            )],
            Subset::All,
        ),
        // Fused producer→reduction group: an axpy writing `chi` and `‖chi‖²`
        // reading `chi` back **unshifted** in the same kernel — the
        // canonical CG inner-loop fusion. Two `dst` parameters (the field
        // and the partials), one shared leaf set; the kernel exits whole
        // warps and ends with the warp butterfly.
        "fused_axpy_norm2_dp" => {
            let axpy = add(
                Expr::Field(e.psi[0]),
                mul(Expr::real(0.75), Expr::Field(e.psi[1])),
            );
            let n2 = Expr::Unary(UnaryOp::LocalNorm2, Box::new(Expr::Field(e.chi)));
            Golden {
                stmts: vec![(e.chi, axpy)],
                reductions: vec![n2],
                subset: Subset::All,
            }
        }
        // Fused independent-statement group: the HMC two-term force
        // accumulation, `F_µ ← F_µ + ε·G_µ` for two directions in one
        // kernel (distinct targets, no cross-statement reads, shared
        // scalar).
        "fused_force_accum_dp" => {
            let accum = |f: FieldRef, g: FieldRef| {
                (f, add(Expr::Field(f), mul(Expr::real(0.5), Expr::Field(g))))
            };
            assign(
                vec![accum(e.u[0], e.u[2]), accum(e.u[1], e.u[3])],
                Subset::All,
            )
        }
        // Subset-mapped kernel: checkerboard evaluation routes sites
        // through the subset table, a different indexing prologue from the
        // dense case.
        "shift_cm_even_dp" => assign(
            vec![(e.u[1], shift(Expr::Field(e.u[0]), 0, ShiftDir::Forward))],
            Subset::Even,
        ),
        // A reduction alone, in single precision: `⟨ψ₀, ψ₁⟩` computed in
        // f32, converted to f64 before the butterfly, two components per
        // partial.
        "inner_product_sp" => Golden {
            stmts: Vec::new(),
            reductions: vec![Expr::Binary(
                BinaryOp::LocalInnerProduct,
                Box::new(Expr::Field(e.psi[0])),
                Box::new(Expr::Field(e.psi[1])),
            )],
            subset: Subset::All,
        },
        other => panic!("no golden named {other}"),
    }
}

/// Render golden `name` at its precision and compare it with its snapshot.
fn check_golden(name: &str) {
    let (_, ft) = GOLDENS.iter().find(|(n, _)| *n == name).unwrap();
    let e = env(*ft);
    let g = golden(&e, name);
    let ptx = match (&g.stmts[..], &g.reductions[..]) {
        ([(target, expr)], []) => codegen_ptx(&e.ctx, *target, expr, g.subset, name),
        (stmts, reductions) => codegen_fused_ptx(&e.ctx, stmts, reductions, g.subset, name),
    };
    check_snapshot(name, &ptx.unwrap());
}

/// A launch lowers the kernel the generator built, not its text: each
/// golden kernel, as built, is the kernel its snapshot parses to — so the
/// two lower alike and the snapshot pins what runs.
#[test]
fn built_golden_kernels_are_their_parsed_snapshots() {
    for (name, ft) in GOLDENS {
        let e = env(ft);
        let g = golden(&e, name);
        let built = codegen_fused_kernel(&e.ctx, &g.stmts, &g.reductions, g.subset, name).unwrap();
        let snapshot = std::fs::read_to_string(snapshot_path(name)).unwrap();
        let parsed = qdp_ptx::parse::parse_module(&snapshot).unwrap();
        assert!(
            parsed.kernels == [built],
            "{name}: built kernel differs from its snapshot"
        );
    }
}

#[test]
fn golden_wilson_dslash_f64() {
    check_golden("wilson_dslash_dp");
}

#[test]
fn golden_wilson_dslash_f32() {
    check_golden("wilson_dslash_sp");
}

/// The flop census of the regenerated dslash goldens: float `mul`, `add`
/// and `sub` count 1, `fma` 2 and `neg` 0 (a sign flip, not arithmetic).
/// The kernel one site runs must do no more than the standard 1 320
/// flops/site (plus a little slack) that `quda_sim::perf::DSLASH_FLOPS`
/// and `chroma_mini::trace` credit it with — and the performance model,
/// which reads the parsed kernel's `thread_flops` through the lowered
/// kernel's `flops`, credits it with the same count.
#[test]
fn dslash_flop_census_matches_its_credit() {
    for name in ["wilson_dslash_dp", "wilson_dslash_sp"] {
        let (_, ft) = GOLDENS.iter().find(|(n, _)| *n == name).unwrap();
        let e = env(*ft);
        let g = golden(&e, name);
        let ptx = codegen_ptx(&e.ctx, g.stmts[0].0, &g.stmts[0].1, g.subset, name).unwrap();
        let flops: usize = opcodes(&ptx)
            .map(|op| match op.split('.').next() {
                Some("mul" | "add" | "sub") if op.ends_with(".f32") || op.ends_with(".f64") => 1,
                Some("fma") => 2,
                _ => 0,
            })
            .sum();
        assert!(flops <= 1400, "{name}: {flops} flops per site");
        assert_eq!(flops, 1320, "{name}: the standard Wilson count");
        let parsed = qdp_ptx::parse::parse_module(&ptx).unwrap();
        assert_eq!(parsed.kernels[0].thread_flops(), 1320, "{name}: Kernel::thread_flops");
        let lowered = qdp_jit::compile_ptx(&ptx).unwrap();
        assert_eq!(lowered[0].flops, 1320, "{name}: CompiledKernel::flops");
    }
}

#[test]
fn golden_su3_mul() {
    check_golden("su3_mul_dp");
}

#[test]
fn golden_axpy_fermion() {
    check_golden("axpy_fermion_dp");
}

#[test]
fn golden_fused_axpy_norm2() {
    check_golden("fused_axpy_norm2_dp");
}

#[test]
fn golden_fused_force_accum() {
    check_golden("fused_force_accum_dp");
}

#[test]
fn golden_shift_cm_even() {
    check_golden("shift_cm_even_dp");
}

#[test]
fn golden_inner_product_sp() {
    check_golden("inner_product_sp");
}

/// Every golden statement leaves the same device bytes, and every golden
/// reduction the same sum, at `OptLevel::None` and at `OptLevel::Default`
/// — the 0-ULP contract of the optimizer level, on the kernels the
/// snapshots pin. Each level's context is filled with the same seeded
/// values; the statements, then the reductions, run through the pipeline,
/// which renders them at the context's level.
#[test]
fn golden_kernels_store_the_same_bytes_at_both_levels() {
    for (name, ft) in GOLDENS {
        let [o0, o1] = [OptLevel::None, OptLevel::Default].map(|level| {
            let e = env_in(LayoutKind::SoA, ft, level);
            let fields: Vec<FieldRef> = [&e.u[..], &e.psi[..], &[e.chi, e.rho]].concat();
            let mut rng = StdRng::seed_from_u64(5);
            for f in &fields {
                e.ctx
                    .cache()
                    .with_host_mut(f.id, |bytes| match ft {
                        FloatType::F32 => bytes.chunks_exact_mut(4).for_each(|b| {
                            b.copy_from_slice(&(rng.random::<f32>() * 2.0 - 1.0).to_le_bytes())
                        }),
                        FloatType::F64 => bytes.chunks_exact_mut(8).for_each(|b| {
                            b.copy_from_slice(&(rng.random::<f64>() * 2.0 - 1.0).to_le_bytes())
                        }),
                    })
                    .unwrap();
            }
            let read = |f: &FieldRef| e.ctx.cache().with_host(f.id, |h| h.to_vec()).unwrap();
            let Golden {
                stmts,
                reductions,
                subset,
            } = golden(&e, name);
            if let Some((target, _)) = stmts.first() {
                let before = read(target);
                match &stmts[..] {
                    [(target, expr)] => {
                        qdp_core::eval(&e.ctx, *target, expr, subset).unwrap();
                    }
                    group => eval_fused_sequence(&e.ctx, group).unwrap(),
                }
                assert!(
                    read(target) != before,
                    "{name} at {level:?}: nothing stored"
                );
            }
            // The expression fixes the precision; `f64` only types the call.
            let sums: Vec<u64> = (reductions.iter())
                .flat_map(|r| match r.kind().unwrap() {
                    ElemKind::Real => {
                        let q = QExpr::<SiteReal<f64>>(r.clone(), PhantomData);
                        vec![reduce_sum_real(&e.ctx, &q, subset).unwrap()]
                    }
                    _ => {
                        let q = QExpr::<SiteComplex<f64>>(r.clone(), PhantomData);
                        let z = reduce_sum_complex(&e.ctx, &q, subset).unwrap();
                        vec![z.re, z.im]
                    }
                })
                .map(f64::to_bits)
                .collect();
            (fields.iter().map(read).collect::<Vec<_>>(), sums)
        });
        assert!(o0 == o1, "{name}: o0 and o1 leave different bytes");
    }
}

/// The code generator's dialect, one opcode spelling each: the forms the
/// parser, validation, optimizer, lowering and executor accept.
#[rustfmt::skip]
const DIALECT: [&str; 39] = [
    "ld.param.u32", "ld.param.u64", "ld.param.f32", "ld.param.f64",
    "ld.global.u32", "ld.global.f32", "ld.global.f64", "st.global.f32", "st.global.f64",
    "mov.u32", "mov.f32", "mov.f64", "cvt.f64.f32", "cvt.rn.f32.f64",
    "add.f32", "add.f64", "add.u32", "add.u64", "sub.f32", "sub.f64",
    "mul.f32", "mul.f64", "neg.f32", "neg.f64", "fma.rn.f32", "fma.rn.f64",
    "and.b32", "shr.u32", "mul.wide.u32", "mad.lo.u32",
    "setp.ge.u32", "setp.ne.u32", "selp.u32", "selp.u64", "selp.f64", "bra", "ret",
    "shfl.bfly.b32", "mov.b64",
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
/// an f64 expression, a fused group and a fused group ending in a
/// reduction, the generator emits exactly the dialect — a new form, or a
/// kept form it no longer emits, fails here.
#[test]
fn generator_emits_exactly_the_dialect() {
    let mut modules = Vec::new();
    for layout in [LayoutKind::SoA, LayoutKind::AoS] {
        for ft in [FloatType::F32, FloatType::F64] {
            let e = env_in(layout, ft, OptLevel::Default);
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
            let fused = [(e.chi, axpy), (e.rho, n2.clone())];
            modules.push(codegen_fused_ptx(&e.ctx, &fused, &[], Subset::All, "k").unwrap());
            for subset in [Subset::All, Subset::Even] {
                let n2 = std::slice::from_ref(&n2);
                let ptx = codegen_fused_ptx(&e.ctx, &fused[..1], n2, subset, "k");
                modules.push(ptx.unwrap());
            }
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
