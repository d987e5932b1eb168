//! The central property: for *any* expression the typed layer can build,
//! the generated-kernel path and the CPU reference path agree bit-for-bit.
//! Random expression trees exercise every operator, shift direction, gamma
//! matrix, scalar parameter and subset. Runs on the in-tree `qdp-proptest`
//! harness: tree depth scales with the case size, so failures shrink
//! toward shallow trees.

use qdp_core::prelude::*;
use qdp_expr::{BinaryOp, Expr, ShiftDir, UnaryOp};
use qdp_proptest::{check, prop_assert, Config, Gen};
use qdp_rng::{SeedableRng, StdRng};
use qdp_types::su3::random_su3;
use qdp_types::{ElemKind, Gamma, PScalar, PVector};
use std::sync::Arc;

/// Test fixture: a context with one field of each interesting kind.
struct Fixture {
    ctx: Arc<QdpContext>,
    u1: LatticeColorMatrix<f64>,
    u2: LatticeColorMatrix<f64>,
    psi: LatticeFermion<f64>,
    phi: LatticeFermion<f64>,
}

impl Fixture {
    fn new(seed: u64) -> Fixture {
        let ctx = QdpContext::k20x(Geometry::new([4, 2, 2, 4]));
        let mut rng = StdRng::seed_from_u64(seed);
        let u1 = LatticeColorMatrix::<f64>::from_fn(&ctx, |_| PScalar(random_su3(&mut rng)));
        let u2 = LatticeColorMatrix::<f64>::from_fn(&ctx, |_| PScalar(random_su3(&mut rng)));
        let psi = LatticeFermion::<f64>::from_fn(&ctx, |_| {
            PVector::from_fn(|_| {
                PVector::from_fn(|_| qdp_types::su3::gaussian_complex(&mut rng))
            })
        });
        let phi = LatticeFermion::<f64>::from_fn(&ctx, |_| {
            PVector::from_fn(|_| {
                PVector::from_fn(|_| qdp_types::su3::gaussian_complex(&mut rng))
            })
        });
        Fixture {
            ctx,
            u1,
            u2,
            psi,
            phi,
        }
    }
}

/// A recipe for one expression node (interpreted against the fixture).
#[derive(Debug, Clone)]
enum Node {
    // fermion-kind productions
    LeafPsi,
    LeafPhi,
    MulCmF(Box<CmNode>, Box<Node>),
    AddF(Box<Node>, Box<Node>),
    SubF(Box<Node>, Box<Node>),
    NegF(Box<Node>),
    ScaleF(i32, Box<Node>),
    GammaF(u8, Box<Node>),
    ShiftF(u8, bool, Box<Node>),
}

#[derive(Debug, Clone)]
enum CmNode {
    LeafU1,
    LeafU2,
    Mul(Box<CmNode>, Box<CmNode>),
    Adj(Box<CmNode>),
    Add(Box<CmNode>, Box<CmNode>),
    Shift(u8, bool, Box<CmNode>),
    ScaleC(i32, i32, Box<CmNode>),
}

fn gen_cm(g: &mut Gen, depth: usize) -> CmNode {
    if depth == 0 {
        return if g.any_bool() {
            CmNode::LeafU1
        } else {
            CmNode::LeafU2
        };
    }
    match g.usize_in(0..7) {
        0 => CmNode::LeafU1,
        1 => CmNode::LeafU2,
        2 => CmNode::Mul(
            Box::new(gen_cm(g, depth - 1)),
            Box::new(gen_cm(g, depth - 1)),
        ),
        3 => CmNode::Adj(Box::new(gen_cm(g, depth - 1))),
        4 => CmNode::Add(
            Box::new(gen_cm(g, depth - 1)),
            Box::new(gen_cm(g, depth - 1)),
        ),
        5 => CmNode::Shift(g.u8_in(0..4), g.any_bool(), Box::new(gen_cm(g, depth - 1))),
        _ => CmNode::ScaleC(
            g.i32_in(-8..8),
            g.i32_in(-8..8),
            Box::new(gen_cm(g, depth - 1)),
        ),
    }
}

fn gen_fermion(g: &mut Gen, depth: usize) -> Node {
    if depth == 0 {
        return if g.any_bool() {
            Node::LeafPsi
        } else {
            Node::LeafPhi
        };
    }
    match g.usize_in(0..9) {
        0 => Node::LeafPsi,
        1 => Node::LeafPhi,
        2 => Node::MulCmF(
            Box::new(gen_cm(g, depth - 1)),
            Box::new(gen_fermion(g, depth - 1)),
        ),
        3 => Node::AddF(
            Box::new(gen_fermion(g, depth - 1)),
            Box::new(gen_fermion(g, depth - 1)),
        ),
        4 => Node::SubF(
            Box::new(gen_fermion(g, depth - 1)),
            Box::new(gen_fermion(g, depth - 1)),
        ),
        5 => Node::NegF(Box::new(gen_fermion(g, depth - 1))),
        6 => Node::ScaleF(g.i32_in(-8..8), Box::new(gen_fermion(g, depth - 1))),
        7 => Node::GammaF(g.u8_in(0..16), Box::new(gen_fermion(g, depth - 1))),
        _ => Node::ShiftF(
            g.u8_in(0..4),
            g.any_bool(),
            Box::new(gen_fermion(g, depth - 1)),
        ),
    }
}

fn build_cm(n: &CmNode, fx: &Fixture) -> Expr {
    match n {
        CmNode::LeafU1 => fx.u1.q().0,
        CmNode::LeafU2 => fx.u2.q().0,
        CmNode::Mul(a, b) => Expr::Binary(
            BinaryOp::Mul,
            Box::new(build_cm(a, fx)),
            Box::new(build_cm(b, fx)),
        ),
        CmNode::Adj(a) => Expr::Unary(UnaryOp::Adj, Box::new(build_cm(a, fx))),
        CmNode::Add(a, b) => Expr::Binary(
            BinaryOp::Add,
            Box::new(build_cm(a, fx)),
            Box::new(build_cm(b, fx)),
        ),
        CmNode::Shift(mu, fwd, a) => Expr::Shift {
            mu: *mu as usize,
            dir: if *fwd {
                ShiftDir::Forward
            } else {
                ShiftDir::Backward
            },
            child: Box::new(build_cm(a, fx)),
        },
        CmNode::ScaleC(re, im, a) => Expr::Binary(
            BinaryOp::Mul,
            Box::new(Expr::complex(*re as f64 / 4.0, *im as f64 / 4.0)),
            Box::new(build_cm(a, fx)),
        ),
    }
}

fn build_fermion(n: &Node, fx: &Fixture) -> Expr {
    match n {
        Node::LeafPsi => fx.psi.q().0,
        Node::LeafPhi => fx.phi.q().0,
        Node::MulCmF(m, f) => Expr::Binary(
            BinaryOp::Mul,
            Box::new(build_cm(m, fx)),
            Box::new(build_fermion(f, fx)),
        ),
        Node::AddF(a, b) => Expr::Binary(
            BinaryOp::Add,
            Box::new(build_fermion(a, fx)),
            Box::new(build_fermion(b, fx)),
        ),
        Node::SubF(a, b) => Expr::Binary(
            BinaryOp::Sub,
            Box::new(build_fermion(a, fx)),
            Box::new(build_fermion(b, fx)),
        ),
        Node::NegF(a) => Expr::Unary(UnaryOp::Neg, Box::new(build_fermion(a, fx))),
        Node::ScaleF(s, a) => Expr::Binary(
            BinaryOp::Mul,
            Box::new(Expr::real(*s as f64 / 4.0)),
            Box::new(build_fermion(a, fx)),
        ),
        Node::GammaF(g, a) => Expr::GammaMul {
            gamma: Gamma::from_index(*g as usize % 16),
            child: Box::new(build_fermion(a, fx)),
        },
        Node::ShiftF(mu, fwd, a) => Expr::Shift {
            mu: *mu as usize,
            dir: if *fwd {
                ShiftDir::Forward
            } else {
                ShiftDir::Backward
            },
            child: Box::new(build_fermion(a, fx)),
        },
    }
}

fn compare(fx: &Fixture, expr: &Expr, kind: ElemKind, subset: Subset) {
    let ft = qdp_types::FloatType::F64;
    let jit_id = fx
        .ctx
        .cache()
        .register(fx.ctx.geometry().vol() * qdp_types::TypeShape::of(kind).n_reals() * 8);
    let ref_id = fx
        .ctx
        .cache()
        .register(fx.ctx.geometry().vol() * qdp_types::TypeShape::of(kind).n_reals() * 8);
    let jit_t = qdp_expr::FieldRef { id: jit_id, kind, ft };
    let ref_t = qdp_expr::FieldRef { id: ref_id, kind, ft };
    qdp_core::eval::eval(&fx.ctx, jit_t, expr, subset).unwrap();
    qdp_core::eval::eval_reference(&fx.ctx, ref_t, expr, subset).unwrap();
    // compare raw host bytes: bit-exact equality
    let a = fx.ctx.cache().with_host(jit_id, |h| h.to_vec()).unwrap();
    let b = fx.ctx.cache().with_host(ref_id, |h| h.to_vec()).unwrap();
    fx.ctx.cache().unregister(jit_id);
    fx.ctx.cache().unregister(ref_id);
    assert_eq!(a, b, "JIT and reference disagree");
}

/// Any fermion-typed expression: JIT == reference, bit for bit.
#[test]
fn random_fermion_expressions_agree() {
    check("random_fermion_expressions_agree", Config::cases(24), |g| {
        let depth = g.depth(3);
        let node = gen_fermion(g, depth);
        let seed = g.any_u64() % 1000;
        let fx = Fixture::new(seed);
        let expr = build_fermion(&node, &fx);
        compare(&fx, &expr, ElemKind::Fermion, Subset::All);
        Ok(())
    });
}

/// Any color-matrix-typed expression, on a random subset.
#[test]
fn random_cm_expressions_agree() {
    check("random_cm_expressions_agree", Config::cases(24), |g| {
        let depth = g.depth(3);
        let node = gen_cm(g, depth);
        let seed = g.any_u64() % 1000;
        let parity = g.u8_in(0..3);
        let fx = Fixture::new(seed);
        let expr = build_cm(&node, &fx);
        let subset = match parity {
            0 => Subset::All,
            1 => Subset::Even,
            _ => Subset::Odd,
        };
        compare(&fx, &expr, ElemKind::ColorMatrix, subset);
        Ok(())
    });
}

/// Reductions agree with a host-side sum over the reference evaluation.
#[test]
fn random_norms_agree() {
    check("random_norms_agree", Config::cases(24), |g| {
        let depth = g.depth(3);
        let node = gen_fermion(g, depth);
        let seed = g.any_u64() % 1000;
        let fx = Fixture::new(seed);
        let expr = build_fermion(&node, &fx);
        let q = QExpr::<qdp_types::Fermion<f64>>(expr.clone(), std::marker::PhantomData);
        let device = reduce_norm2(&fx.ctx, &q, Subset::All).unwrap();
        // reference: evaluate into a field and sum on the host
        let out = LatticeFermion::<f64>::new(&fx.ctx);
        qdp_core::eval::eval_reference(&fx.ctx, out.fref(), &expr, Subset::All).unwrap();
        let host: f64 = out
            .to_vec()
            .iter()
            .map(|f| {
                let mut s = 0.0;
                for sp in 0..4 {
                    for c in 0..3 {
                        s += f.0[sp].0[c].norm_sqr();
                    }
                }
                s
            })
            .sum();
        let scale = host.abs().max(1.0);
        prop_assert!(
            (device - host).abs() / scale < 1e-9,
            "norm2 device {} vs host {}",
            device,
            host
        );
        Ok(())
    });
}
