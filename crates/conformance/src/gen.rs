//! Seeded, typed random expression-DAG generator.
//!
//! Each production is typed: `gen_typed_expr(g, fx, kind, depth)` returns
//! an expression whose result kind is exactly `kind`, built from the
//! fixture's fields, scalar leaves, and every operator the codegen
//! pipeline implements for that kind. Depth is bounded by the caller (and
//! scaled by the proptest size, so failures shrink toward shallow trees);
//! leaves are unit-scale so magnitudes stay well-conditioned.

use crate::fixture::Fixture;
use qdp_expr::{BinaryOp, Expr, FieldRef, ShiftDir, UnaryOp};
use qdp_proptest::Gen;
use qdp_types::{ElemKind, Gamma, ProjSign, SpinProjector};
use std::collections::HashMap;

/// Pick a target kind for one differential case. Matrix and fermion
/// expressions carry the most codegen surface, so they get extra weight.
pub fn random_target_kind(g: &mut Gen) -> ElemKind {
    match g.usize_in(0..7) {
        0 | 1 => ElemKind::ColorMatrix,
        2 | 3 => ElemKind::Fermion,
        4 => ElemKind::Complex,
        5 => ElemKind::HalfFermion,
        _ => ElemKind::Real,
    }
}

/// One drawn expression: a target kind ([`random_target_kind`]), then an
/// expression of that kind at depth `g.depth(max_depth)`. Every sweep and
/// every statement of a sequence draws its expression through this.
pub(crate) fn gen_case(g: &mut Gen, fx: &Fixture, max_depth: usize) -> (ElemKind, Expr) {
    let kind = random_target_kind(g);
    let depth = g.depth(max_depth);
    (kind, gen_typed_expr(g, fx, kind, depth))
}

/// Generate a random expression of result kind `kind` with recursion
/// budget `depth`.
pub fn gen_typed_expr(g: &mut Gen, fx: &Fixture, kind: ElemKind, depth: usize) -> Expr {
    match kind {
        ElemKind::ColorMatrix => gen_cm(g, fx, depth),
        ElemKind::Fermion => gen_fermion(g, fx, depth),
        ElemKind::HalfFermion => gen_half(g, fx, depth),
        ElemKind::Complex => gen_complex(g, fx, depth),
        ElemKind::Real => gen_real(g, fx, depth),
        other => panic!("no generator for target kind {other:?}"),
    }
}

/// Generate a deferred statement sequence for the fuse-diff harness:
/// 2–4 statements over fixture leaves (shared across statements), where
/// later statements read earlier targets — unshifted producer→consumer
/// chains the planner should fuse, shifted reads it must bail out on —
/// and occasionally rewrite an earlier target (a write-after-write the
/// planner must split on). Targets are freshly registered zeroed scratch
/// fields; the caller releases them.
///
/// Whenever the sequence allows one, an *aliasing twin* comes with it: the
/// same statements onto the same targets, except that one later statement
/// has its `u[0]`↔`u[1]` (or `psi[0]`↔`psi[1]`) leaves swapped, where an
/// earlier statement already reads one of the two. Statement by statement
/// the twin has the original's structure — only *which* earlier leaf the
/// later statement shares differs — so back to back on one context the pair
/// catches a kernel identity that forgets cross-statement leaf sharing.
pub fn gen_stmt_sequence(
    g: &mut Gen,
    fx: &Fixture,
    max_depth: usize,
) -> (Vec<(FieldRef, Expr)>, Option<Vec<(FieldRef, Expr)>>) {
    let n = g.usize_in(2..5);
    let mut out: Vec<(FieldRef, Expr)> = Vec::new();
    for _ in 0..n {
        let (kind, mut expr) = gen_case(g, fx, max_depth);
        let peers: Vec<FieldRef> = out
            .iter()
            .map(|(t, _)| *t)
            .filter(|t| t.kind == kind)
            .collect();
        // Half the time, chain an earlier target into this statement's
        // rhs — mostly unshifted (fusable), sometimes shifted (the race
        // the legality rules exist to prevent).
        if !peers.is_empty() && g.any_bool() {
            let dep = Expr::Field(peers[g.usize_in(0..peers.len())]);
            let dep = if g.usize_in(0..4) == 0 {
                shift(g, dep)
            } else {
                dep
            };
            expr = bin(BinaryOp::Add, expr, dep);
        }
        // Occasionally write an earlier target again instead of a fresh
        // one: write-after-write, which must split the group.
        let target = if !peers.is_empty() && g.usize_in(0..8) == 0 {
            peers[g.usize_in(0..peers.len())]
        } else {
            fx.fresh_target(kind)
        };
        out.push((target, expr));
    }
    let twin = aliasing_twin(g, fx, &out);
    (out, twin)
}

fn aliasing_twin(
    g: &mut Gen,
    fx: &Fixture,
    stmts: &[(FieldRef, Expr)],
) -> Option<Vec<(FieldRef, Expr)>> {
    let reads = |e: &Expr, pair: &[FieldRef; 2]| e.leaves().iter().any(|l| pair.contains(l));
    let mut candidates = Vec::new();
    for i in 1..stmts.len() {
        for pair in [fx.u, fx.psi] {
            if reads(&stmts[i].1, &pair) && stmts[..i].iter().any(|(_, e)| reads(e, &pair)) {
                candidates.push((i, pair));
            }
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let (i, [x, y]) = candidates[g.usize_in(0..candidates.len())];
    let swap = HashMap::from([(x.id, y), (y.id, x)]);
    let mut twin = stmts.to_vec();
    twin[i].1 = subst_fields(&twin[i].1, &swap);
    Some(twin)
}

/// Rebuild `e` with every field leaf remapped through `map` (by id) —
/// used to instantiate one generated statement sequence against a second,
/// disjoint set of target fields (so the fused and per-expression runs
/// never read each other's outputs) and to build aliasing twins.
pub fn subst_fields(e: &Expr, map: &HashMap<u64, FieldRef>) -> Expr {
    let sub = |f: &FieldRef| map.get(&f.id).copied().unwrap_or(*f);
    match e {
        Expr::Field(f) => Expr::Field(sub(f)),
        Expr::Scalar { .. } => e.clone(),
        Expr::Unary(op, c) => Expr::Unary(*op, Box::new(subst_fields(c, map))),
        Expr::Binary(op, a, b) => Expr::Binary(
            *op,
            Box::new(subst_fields(a, map)),
            Box::new(subst_fields(b, map)),
        ),
        Expr::Shift { mu, dir, child } => Expr::Shift {
            mu: *mu,
            dir: *dir,
            child: Box::new(subst_fields(child, map)),
        },
        Expr::GammaMul { gamma, child } => Expr::GammaMul {
            gamma: *gamma,
            child: Box::new(subst_fields(child, map)),
        },
        Expr::SpinProject { proj, child } => Expr::SpinProject {
            proj: *proj,
            child: Box::new(subst_fields(child, map)),
        },
        Expr::SpinReconstruct { proj, child } => Expr::SpinReconstruct {
            proj: *proj,
            child: Box::new(subst_fields(child, map)),
        },
        Expr::CloverApply { diag, tri, child } => Expr::CloverApply {
            diag: sub(diag),
            tri: sub(tri),
            child: Box::new(subst_fields(child, map)),
        },
    }
}

fn shift(g: &mut Gen, child: Expr) -> Expr {
    Expr::Shift {
        mu: g.usize_in(0..4),
        dir: if g.any_bool() {
            ShiftDir::Forward
        } else {
            ShiftDir::Backward
        },
        child: Box::new(child),
    }
}

/// A Wilson projector `1 ± γ_µ` over every direction and both signs.
fn projector(g: &mut Gen) -> SpinProjector {
    let sign = if g.any_bool() {
        ProjSign::Plus
    } else {
        ProjSign::Minus
    };
    SpinProjector::new(g.usize_in(0..4), sign)
}

fn reconstruct(g: &mut Gen, fx: &Fixture, depth: usize) -> Expr {
    Expr::SpinReconstruct {
        proj: projector(g),
        child: Box::new(gen_half(g, fx, depth)),
    }
}

fn un(op: UnaryOp, child: Expr) -> Expr {
    Expr::Unary(op, Box::new(child))
}

fn bin(op: BinaryOp, a: Expr, b: Expr) -> Expr {
    Expr::Binary(op, Box::new(a), Box::new(b))
}

fn scalar_real(g: &mut Gen) -> Expr {
    Expr::real(g.f64_in(-1.0..1.0))
}

fn scalar_complex(g: &mut Gen) -> Expr {
    Expr::complex(g.f64_in(-1.0..1.0), g.f64_in(-1.0..1.0))
}

fn gen_cm(g: &mut Gen, fx: &Fixture, depth: usize) -> Expr {
    if depth == 0 {
        return Expr::Field(fx.u[g.usize_in(0..2)]);
    }
    let d = depth - 1;
    match g.usize_in(0..14) {
        0 => Expr::Field(fx.u[g.usize_in(0..2)]),
        1 => bin(BinaryOp::Mul, gen_cm(g, fx, d), gen_cm(g, fx, d)),
        2 => bin(BinaryOp::Add, gen_cm(g, fx, d), gen_cm(g, fx, d)),
        3 => bin(BinaryOp::Sub, gen_cm(g, fx, d), gen_cm(g, fx, d)),
        4 => un(UnaryOp::Neg, gen_cm(g, fx, d)),
        5 => un(UnaryOp::Adj, gen_cm(g, fx, d)),
        6 => un(UnaryOp::Conj, gen_cm(g, fx, d)),
        7 => un(UnaryOp::Transpose, gen_cm(g, fx, d)),
        8 => {
            let child = gen_cm(g, fx, d);
            shift(g, child)
        }
        9 => {
            let s = scalar_complex(g);
            bin(BinaryOp::Mul, s, gen_cm(g, fx, d))
        }
        10 => un(UnaryOp::DiagFill, gen_complex(g, fx, d)),
        11 => bin(
            BinaryOp::ColorOuter,
            gen_fermion(g, fx, d),
            gen_fermion(g, fx, d),
        ),
        12 => un(UnaryOp::ExpM, gen_cm(g, fx, d)),
        // Shared subtree used both in place and under a shift — the shape
        // that stresses the DAG-CSE memo across shift-path boundaries and
        // the backends' push/pop bookkeeping.
        _ => {
            let c = gen_cm(g, fx, d);
            bin(BinaryOp::Add, c.clone(), shift(g, c))
        }
    }
}

fn gen_fermion(g: &mut Gen, fx: &Fixture, depth: usize) -> Expr {
    if depth == 0 {
        return Expr::Field(fx.psi[g.usize_in(0..2)]);
    }
    let d = depth - 1;
    match g.usize_in(0..16) {
        0 => Expr::Field(fx.psi[g.usize_in(0..2)]),
        1 => bin(BinaryOp::Mul, gen_cm(g, fx, d), gen_fermion(g, fx, d)),
        2 => bin(BinaryOp::Add, gen_fermion(g, fx, d), gen_fermion(g, fx, d)),
        3 => bin(BinaryOp::Sub, gen_fermion(g, fx, d), gen_fermion(g, fx, d)),
        4 => un(UnaryOp::Neg, gen_fermion(g, fx, d)),
        5 => {
            let s = scalar_real(g);
            bin(BinaryOp::Mul, s, gen_fermion(g, fx, d))
        }
        6 => {
            let s = scalar_complex(g);
            bin(BinaryOp::Mul, s, gen_fermion(g, fx, d))
        }
        7 => Expr::GammaMul {
            gamma: Gamma::from_index(g.usize_in(0..16)),
            child: Box::new(gen_fermion(g, fx, d)),
        },
        8 => {
            let child = gen_fermion(g, fx, d);
            shift(g, child)
        }
        9 => Expr::CloverApply {
            diag: fx.clov_diag,
            tri: fx.clov_tri,
            child: Box::new(gen_fermion(g, fx, d)),
        },
        10 => reconstruct(g, fx, d),
        // The hopping term's accumulate: the reconstruction folds into
        // the add.
        11 | 12 => bin(BinaryOp::Add, gen_fermion(g, fx, d), reconstruct(g, fx, d)),
        // A hopping term: one projector on both sides of a link product
        // moved under a shift, accumulated into a sum.
        13 | 14 => {
            let proj = projector(g);
            let h = Expr::SpinProject {
                proj,
                child: Box::new(gen_fermion(g, fx, d)),
            };
            let uh = bin(BinaryOp::Mul, gen_cm(g, fx, d), h);
            let h = shift(g, uh);
            let term = Expr::SpinReconstruct {
                proj,
                child: Box::new(h),
            };
            bin(BinaryOp::Add, gen_fermion(g, fx, d), term)
        }
        // Shared subtree in place and shifted (see `gen_cm`).
        _ => {
            let c = gen_fermion(g, fx, d);
            bin(BinaryOp::Add, c.clone(), shift(g, c))
        }
    }
}

/// Half spinors: projections of every direction and sign, multiplied by
/// links and moved under shifts as the hopping term does.
fn gen_half(g: &mut Gen, fx: &Fixture, depth: usize) -> Expr {
    let project = |g: &mut Gen, child: Expr| Expr::SpinProject {
        proj: projector(g),
        child: Box::new(child),
    };
    if depth == 0 {
        let psi = Expr::Field(fx.psi[g.usize_in(0..2)]);
        return project(g, psi);
    }
    let d = depth - 1;
    match g.usize_in(0..7) {
        0 | 1 => {
            let psi = gen_fermion(g, fx, d);
            project(g, psi)
        }
        2 => bin(BinaryOp::Mul, gen_cm(g, fx, d), gen_half(g, fx, d)),
        3 => {
            let child = gen_half(g, fx, d);
            shift(g, child)
        }
        4 => bin(BinaryOp::Add, gen_half(g, fx, d), gen_half(g, fx, d)),
        5 => {
            let s = scalar_complex(g);
            bin(BinaryOp::Mul, s, gen_half(g, fx, d))
        }
        _ => un(UnaryOp::Neg, gen_half(g, fx, d)),
    }
}

fn gen_complex(g: &mut Gen, fx: &Fixture, depth: usize) -> Expr {
    if depth == 0 {
        return Expr::Field(fx.zeta);
    }
    let d = depth - 1;
    match g.usize_in(0..11) {
        0 => Expr::Field(fx.zeta),
        1 => un(UnaryOp::Trace, gen_cm(g, fx, d)),
        2 => bin(BinaryOp::Add, gen_complex(g, fx, d), gen_complex(g, fx, d)),
        3 => bin(BinaryOp::Sub, gen_complex(g, fx, d), gen_complex(g, fx, d)),
        4 => bin(BinaryOp::Mul, gen_complex(g, fx, d), gen_complex(g, fx, d)),
        5 => un(UnaryOp::Conj, gen_complex(g, fx, d)),
        6 => un(UnaryOp::TimesI, gen_real(g, fx, d)),
        7 => bin(
            BinaryOp::LocalInnerProduct,
            gen_fermion(g, fx, d),
            gen_fermion(g, fx, d),
        ),
        8 => {
            let child = gen_complex(g, fx, d);
            shift(g, child)
        }
        9 => {
            let s = scalar_complex(g);
            bin(BinaryOp::Mul, s, gen_complex(g, fx, d))
        }
        _ => un(UnaryOp::TimesMinusI, gen_complex(g, fx, d)),
    }
}

fn gen_real(g: &mut Gen, fx: &Fixture, depth: usize) -> Expr {
    if depth == 0 {
        return Expr::Field(fx.rho);
    }
    let d = depth - 1;
    match g.usize_in(0..10) {
        0 => Expr::Field(fx.rho),
        1 => un(UnaryOp::RealPart, gen_complex(g, fx, d)),
        2 => un(UnaryOp::ImagPart, gen_complex(g, fx, d)),
        3 => un(UnaryOp::LocalNorm2, gen_fermion(g, fx, d)),
        4 => un(UnaryOp::LocalNorm2, gen_cm(g, fx, d)),
        5 => bin(BinaryOp::Add, gen_real(g, fx, d), gen_real(g, fx, d)),
        6 => bin(BinaryOp::Mul, gen_real(g, fx, d), gen_real(g, fx, d)),
        7 => un(UnaryOp::Neg, gen_real(g, fx, d)),
        8 => {
            let child = gen_real(g, fx, d);
            shift(g, child)
        }
        _ => {
            let s = scalar_real(g);
            bin(BinaryOp::Mul, s, gen_real(g, fx, d))
        }
    }
}
