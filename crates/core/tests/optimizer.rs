//! Optimizer regression guards.
//!
//! Two properties are pinned here:
//!
//! * the DAG-level CSE actually pays for itself on the flagship kernel —
//!   the single-precision Wilson dslash must issue at least 30% fewer
//!   `ld.global` instructions than the unoptimized rendering (the cloned
//!   spin-projection subtrees make the real figure close to 50%);
//! * a malformed backend walk (unbalanced shift pop) surfaces as a
//!   structured fault on the backend, not a panic — the bug the optimizer
//!   work shook out of `cpu_backend::pop_shift`.

use qdp_core::codegen::{Backend, CpuGen, PtxGen};
use qdp_core::{codegen_fused_ptx, OptLevel, QdpContext};
use qdp_expr::{BinaryOp, Expr, FieldRef, ShiftDir, UnaryOp};
use qdp_layout::{Geometry, Subset};
use qdp_types::{ElemKind, FloatType, Gamma, TypeShape};
use std::sync::Arc;

struct Env {
    ctx: Arc<QdpContext>,
    u: [FieldRef; 4],
    psi: [FieldRef; 2],
}

/// The fields on a context built at optimizer level `level` (same
/// registration order, so every level sees the same field ids).
fn env_at(ft: FloatType, level: OptLevel) -> Env {
    let ctx = QdpContext::builder(Geometry::new([4, 2, 2, 4]))
        .opt_level(level)
        .build();
    let vol = ctx.geometry().vol();
    let reg = |kind: ElemKind| {
        let bytes = vol * TypeShape::of(kind).n_reals() * ft.size_bytes();
        FieldRef {
            id: ctx.cache().register(bytes),
            kind,
            ft,
        }
    };
    let u = [
        reg(ElemKind::ColorMatrix),
        reg(ElemKind::ColorMatrix),
        reg(ElemKind::ColorMatrix),
        reg(ElemKind::ColorMatrix),
    ];
    let psi = [reg(ElemKind::Fermion), reg(ElemKind::Fermion)];
    Env { ctx, u, psi }
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

/// Same Wilson hopping term the golden-PTX tests pin — the cloned `fwd` /
/// `bwd` subtrees are exactly the redundancy CSE must recover.
fn wilson_dslash_expr(e: &Env) -> Expr {
    let mut acc: Option<Expr> = None;
    for mu in 0..4 {
        let fwd = mul(
            Expr::Field(e.u[mu]),
            shift(Expr::Field(e.psi[0]), mu, ShiftDir::Forward),
        );
        let bwd = shift(
            mul(
                Expr::Unary(UnaryOp::Adj, Box::new(Expr::Field(e.u[mu]))),
                Expr::Field(e.psi[0]),
            ),
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

fn count(hay: &str, needle: &str) -> usize {
    hay.matches(needle).count()
}

#[test]
fn dslash_sp_loads_drop_at_least_30_percent() {
    let [plain, opt] = [
        (OptLevel::None, "dslash_sp_o0"),
        (OptLevel::Default, "dslash_sp_o1"),
    ]
    .map(|(level, name)| {
        let e = env_at(FloatType::F32, level);
        let stmt = [(e.psi[1], wilson_dslash_expr(&e))];
        codegen_fused_ptx(&e.ctx, &stmt, &[], Subset::All, name).unwrap()
    });

    let before = count(&plain, "ld.global");
    let after = count(&opt, "ld.global");
    assert!(before > 0);
    assert!(
        (after as f64) <= 0.70 * before as f64,
        "optimized wilson_dslash_sp must issue ≥30% fewer ld.global: \
         {before} before, {after} after ({:.0}%)",
        100.0 * after as f64 / before as f64
    );
    // The arithmetic shrinks too, and both renderings still compile.
    assert!(opt.lines().count() < plain.lines().count());
    qdp_jit::compile_ptx(&plain).unwrap();
    qdp_jit::compile_ptx(&opt).unwrap();
}

#[test]
fn optimized_kernel_models_less_memory_traffic() {
    // The lowered kernel's traffic model (read_bytes) is recomputed from
    // the optimized body, so the CSE win reaches the simulated bandwidth.
    let [k0, k1] = [OptLevel::None, OptLevel::Default].map(|level| {
        let e = env_at(FloatType::F32, level);
        let stmt = [(e.psi[1], wilson_dslash_expr(&e))];
        let ptx = codegen_fused_ptx(&e.ctx, &stmt, &[], Subset::All, "dslash_traffic").unwrap();
        qdp_jit::compile_ptx(&ptx).unwrap().remove(0)
    });
    assert!(
        k1.read_bytes < k0.read_bytes,
        "optimized kernel should model less read traffic ({} vs {})",
        k1.read_bytes,
        k0.read_bytes
    );
}

#[test]
fn optimizer_never_pessimizes_reported_dslash_bandwidth() {
    // Regression guard: the optimizer reduces modelled memory traffic, so
    // its reported streaming bandwidth must be no worse than opt-off. (It
    // once *was* worse: bandwidth divided total bytes by total launch time
    // including the constant launch overhead and occupancy ramp, so any
    // traffic reduction mechanically deflated the metric even as the
    // kernel got faster.) The traffic cut must also show on the simulated
    // clock: the opt-on launch is strictly shorter. On the bandwidth
    // plateau (8⁴ and up) the reported bandwidth is the streaming-phase
    // rate and equal both ways, so the launch time is where it shows.
    use qdp_core::prelude::*;
    use qdp_core::{adj, shift as qshift};
    use qdp_rng::SeedableRng;
    let measure = |level: OptLevel| {
        let ctx = QdpContext::builder(Geometry::symmetric(4))
            .opt_level(level)
            .build();
        let u = LatticeColorMatrix::<f64>::from_fn(&ctx, |_| {
            qdp_types::PScalar(qdp_types::su3::random_su3(
                &mut qdp_rng::StdRng::seed_from_u64(3),
            ))
        });
        let psi = LatticeFermion::<f64>::new(&ctx);
        let out = LatticeFermion::<f64>::new(&ctx);
        let dslash = || {
            let mut acc = None;
            for mu in 0..4 {
                let term = u.q() * qshift(psi.q(), mu, ShiftDir::Forward)
                    + qshift(adj(u.q()) * psi.q(), mu, ShiftDir::Backward);
                acc = Some(match acc {
                    None => term,
                    Some(a) => a + term,
                });
            }
            acc.unwrap()
        };
        // settle the tuner, then measure at the settled block size
        for _ in 0..12 {
            out.assign(dslash()).unwrap();
        }
        out.assign(dslash()).unwrap()
    };
    let [off, on] = [OptLevel::None, OptLevel::Default].map(measure);
    assert!(off.bandwidth > 0.0 && on.bandwidth > 0.0);
    assert!(
        on.bandwidth >= off.bandwidth * (1.0 - 1e-12),
        "opt-on dslash bandwidth ({:.4} GB/s) fell below opt-off ({:.4} GB/s)",
        on.bandwidth / 1e9,
        off.bandwidth / 1e9
    );
    assert!(
        on.sim_time < off.sim_time,
        "opt-on dslash ({:.2} us) must take less simulated time than opt-off ({:.2} us)",
        on.sim_time * 1e6,
        off.sim_time * 1e6
    );
}

#[test]
fn kernel_name_carries_the_opt_level() {
    let [p0, p1] = [OptLevel::None, OptLevel::Default].map(|level| {
        let e = env_at(FloatType::F32, level);
        qdp_core::plan_codegen(&e.ctx, e.psi[1], &wilson_dslash_expr(&e), false, false).unwrap()
    });
    assert_ne!(p0.name, p1.name, "opt level must be part of the kernel's key");
}

#[test]
fn cpu_backend_unbalanced_pop_is_a_fault_not_a_panic() {
    let geom = Geometry::new([2, 2, 2, 2]);
    let leaves: Vec<Vec<f64>> = vec![vec![1.0; geom.vol()]];
    let scalars: [(f64, f64); 0] = [];
    let mut b = CpuGen::<f64>::new(&leaves, &scalars, &geom, 0);
    b.pop_shift();
    let f = b.fault().expect("fault must be recorded");
    assert!(f.contains("unbalanced shift pop"), "got: {f}");
    // The walk keeps going after the fault — later ops still work.
    let x = b.load(0, 0);
    b.store(0, &x);
}

#[test]
fn ptx_backend_unbalanced_pop_is_a_fault_not_a_panic() {
    let e = env_at(FloatType::F64, OptLevel::Default);
    let expr = Expr::Field(e.u[0]);
    let plan = qdp_core::plan_codegen(&e.ctx, e.u[1], &expr, false, false).unwrap();
    let leaves = [e.u[0]];
    let mut b = PtxGen::new("k_fault", &plan.env, &leaves, plan.opt);
    b.pop_shift();
    let f = b.fault().expect("fault must be recorded");
    assert!(f.contains("unbalanced shift pop"), "got: {f}");
}
