//! The site-value algebra: the typed tensor of scalar values a subexpression
//! produces at one lattice site, and every inner-level operation on it.
//!
//! This is the Rust counterpart of QDP++'s nested `operator*` dispatch: all
//! spin/color/complex structure is unrolled into straight-line scalar
//! operations ("the loop over the site index is implemented by CUDA thread
//! parallelisation", §III-C — the inner index loops are unrolled at code
//! generation time).

use crate::codegen::backend::Backend;
use qdp_expr::{BinaryOp, Expr, FieldRef, UnaryOp};
use qdp_types::clover_block::tri_index;
use qdp_types::{ElemKind, Gamma, Phase, SpinProjector, TypeShape};

/// A complex value: a pair of backend scalars.
#[derive(Debug, Clone)]
pub struct CV<V> {
    /// Real part.
    pub re: V,
    /// Imaginary part.
    pub im: V,
}

/// The value of a subexpression at one site.
#[derive(Debug, Clone)]
pub enum SVal<V> {
    /// One real.
    Real(V),
    /// One complex.
    Complex(CV<V>),
    /// 3×3 color matrix `[row][col]`.
    ColorMatrix(Box<[[CV<V>; 3]; 3]>),
    /// Spin ⊗ color fermion `[spin][color]`.
    Fermion(Box<[[CV<V>; 3]; 4]>),
    /// Spin-projected half fermion `[spin][color]`.
    HalfFermion(Box<[[CV<V>; 3]; 2]>),
    /// 4×4 spin matrix `[row][col]`.
    SpinMatrix(Box<[[CV<V>; 4]; 4]>),
    /// Packed clover diagonal `[block][entry]`.
    CloverDiag(Box<[[V; 6]; 2]>),
    /// Packed clover triangle `[block][entry]`.
    CloverTriang(Box<[[CV<V>; 15]; 2]>),
}

impl<V> SVal<V> {
    /// Element kind of this value.
    pub fn kind(&self) -> ElemKind {
        match self {
            SVal::Real(_) => ElemKind::Real,
            SVal::Complex(_) => ElemKind::Complex,
            SVal::ColorMatrix(_) => ElemKind::ColorMatrix,
            SVal::Fermion(_) => ElemKind::Fermion,
            SVal::HalfFermion(_) => ElemKind::HalfFermion,
            SVal::SpinMatrix(_) => ElemKind::SpinMatrix,
            SVal::CloverDiag(_) => ElemKind::CloverDiag,
            SVal::CloverTriang(_) => ElemKind::CloverTriang,
        }
    }
}

// --- complex helpers ---------------------------------------------------------

fn czero<B: Backend>(b: &mut B) -> CV<B::V> {
    let z = b.c(0.0);
    CV {
        re: z.clone(),
        im: z,
    }
}

fn cadd<B: Backend>(b: &mut B, x: &CV<B::V>, y: &CV<B::V>) -> CV<B::V> {
    CV {
        re: b.add(&x.re, &y.re),
        im: b.add(&x.im, &y.im),
    }
}

fn csub<B: Backend>(b: &mut B, x: &CV<B::V>, y: &CV<B::V>) -> CV<B::V> {
    CV {
        re: b.sub(&x.re, &y.re),
        im: b.sub(&x.im, &y.im),
    }
}

fn cneg<B: Backend>(b: &mut B, x: &CV<B::V>) -> CV<B::V> {
    CV {
        re: b.neg(&x.re),
        im: b.neg(&x.im),
    }
}

fn cconj<B: Backend>(b: &mut B, x: &CV<B::V>) -> CV<B::V> {
    CV {
        re: x.re.clone(),
        im: b.neg(&x.im),
    }
}

/// `x·y` with the canonical fma sequence (identical on both backends).
fn cmul<B: Backend>(b: &mut B, x: &CV<B::V>, y: &CV<B::V>) -> CV<B::V> {
    let t = b.mul(&x.im, &y.im);
    let nt = b.neg(&t);
    let re = b.fma(&x.re, &y.re, &nt);
    let t2 = b.mul(&x.im, &y.re);
    let im = b.fma(&x.re, &y.im, &t2);
    CV { re, im }
}

/// `conj(x)·y` (used by inner products and adjoint multiplication).
fn cmul_conj<B: Backend>(b: &mut B, x: &CV<B::V>, y: &CV<B::V>) -> CV<B::V> {
    let t = b.mul(&x.im, &y.im);
    let re = b.fma(&x.re, &y.re, &t);
    let t2 = b.mul(&x.im, &y.re);
    let nt2 = b.neg(&t2);
    let im = b.fma(&x.re, &y.im, &nt2);
    CV { re, im }
}

/// `acc + x·y`.
fn cfma<B: Backend>(b: &mut B, x: &CV<B::V>, y: &CV<B::V>, acc: &CV<B::V>) -> CV<B::V> {
    let t = b.mul(&x.im, &y.im);
    let r1 = b.sub(&acc.re, &t);
    let re = b.fma(&x.re, &y.re, &r1);
    let t2 = b.mul(&x.im, &y.re);
    let i1 = b.add(&acc.im, &t2);
    let im = b.fma(&x.re, &y.im, &i1);
    CV { re, im }
}

/// `acc + conj(x)·y`.
fn cfma_conj<B: Backend>(b: &mut B, x: &CV<B::V>, y: &CV<B::V>, acc: &CV<B::V>) -> CV<B::V> {
    let t = b.mul(&x.im, &y.im);
    let r1 = b.add(&acc.re, &t);
    let re = b.fma(&x.re, &y.re, &r1);
    let t2 = b.mul(&x.im, &y.re);
    let i1 = b.sub(&acc.im, &t2);
    let im = b.fma(&x.re, &y.im, &i1);
    CV { re, im }
}

fn cscale<B: Backend>(b: &mut B, s: &B::V, x: &CV<B::V>) -> CV<B::V> {
    CV {
        re: b.mul(s, &x.re),
        im: b.mul(s, &x.im),
    }
}

/// `x + p·y`, the phase folded into the add: `x − y` for `−1`, and one
/// add and one sub for `±i` — never a `neg`.
fn cadd_phased<B: Backend>(b: &mut B, x: &CV<B::V>, p: Phase, y: &CV<B::V>) -> CV<B::V> {
    match p {
        Phase::One => cadd(b, x, y),
        Phase::MinusOne => csub(b, x, y),
        // i·y = (−y.im, y.re)
        Phase::I => CV {
            re: b.sub(&x.re, &y.im),
            im: b.add(&x.im, &y.re),
        },
        // −i·y = (y.im, −y.re)
        Phase::MinusI => CV {
            re: b.add(&x.re, &y.im),
            im: b.sub(&x.im, &y.re),
        },
    }
}

fn apply_phase<B: Backend>(b: &mut B, p: Phase, x: &CV<B::V>) -> CV<B::V> {
    match p {
        Phase::One => x.clone(),
        Phase::I => CV {
            re: b.neg(&x.im),
            im: x.re.clone(),
        },
        Phase::MinusOne => cneg(b, x),
        Phase::MinusI => CV {
            re: x.im.clone(),
            im: b.neg(&x.re),
        },
    }
}

// --- loading / storing -------------------------------------------------------

/// Load a leaf field of the given kind at the current site.
pub fn load_leaf<B: Backend>(b: &mut B, leaf: usize, kind: ElemKind) -> SVal<B::V> {
    let sh = TypeShape::of(kind);
    match kind {
        ElemKind::Real => SVal::Real(b.load(leaf, 0)),
        ElemKind::Complex => SVal::Complex(CV {
            re: b.load(leaf, sh.comp_index(0, 0, 0)),
            im: b.load(leaf, sh.comp_index(0, 0, 1)),
        }),
        ElemKind::ColorMatrix => {
            let mut m = Vec::with_capacity(9);
            for i in 0..3 {
                for j in 0..3 {
                    m.push(CV {
                        re: b.load(leaf, sh.comp_index(0, i * 3 + j, 0)),
                        im: b.load(leaf, sh.comp_index(0, i * 3 + j, 1)),
                    });
                }
            }
            let mut it = m.into_iter();
            SVal::ColorMatrix(Box::new(std::array::from_fn(|_| {
                std::array::from_fn(|_| it.next().unwrap())
            })))
        }
        ElemKind::Fermion => SVal::Fermion(load_spinor(b, leaf, sh)),
        ElemKind::HalfFermion => SVal::HalfFermion(load_spinor(b, leaf, sh)),
        ElemKind::SpinMatrix => {
            let mut m = Vec::with_capacity(16);
            for i in 0..4 {
                for j in 0..4 {
                    m.push(CV {
                        re: b.load(leaf, sh.comp_index(i * 4 + j, 0, 0)),
                        im: b.load(leaf, sh.comp_index(i * 4 + j, 0, 1)),
                    });
                }
            }
            let mut it = m.into_iter();
            SVal::SpinMatrix(Box::new(std::array::from_fn(|_| {
                std::array::from_fn(|_| it.next().unwrap())
            })))
        }
        ElemKind::CloverDiag => {
            let mut m = Vec::with_capacity(12);
            for blk in 0..2 {
                for d in 0..6 {
                    m.push(b.load(leaf, sh.comp_index(blk, d, 0)));
                }
            }
            let mut it = m.into_iter();
            SVal::CloverDiag(Box::new(std::array::from_fn(|_| {
                std::array::from_fn(|_| it.next().unwrap())
            })))
        }
        ElemKind::CloverTriang => {
            let mut m = Vec::with_capacity(30);
            for blk in 0..2 {
                for t in 0..15 {
                    m.push(CV {
                        re: b.load(leaf, sh.comp_index(blk, t, 0)),
                        im: b.load(leaf, sh.comp_index(blk, t, 1)),
                    });
                }
            }
            let mut it = m.into_iter();
            SVal::CloverTriang(Box::new(std::array::from_fn(|_| {
                std::array::from_fn(|_| it.next().unwrap())
            })))
        }
    }
}

/// Load a spinor leaf (`NS` spins ⊗ color ⊗ complex), spin by spin.
fn load_spinor<B: Backend, const NS: usize>(
    b: &mut B,
    leaf: usize,
    sh: TypeShape,
) -> Box<[[CV<B::V>; 3]; NS]> {
    Box::new(std::array::from_fn(|s| {
        std::array::from_fn(|c| CV {
            re: b.load(leaf, sh.comp_index(s, c, 0)),
            im: b.load(leaf, sh.comp_index(s, c, 1)),
        })
    }))
}

/// Store a spinor (`f.len()` spins ⊗ color ⊗ complex), spin by spin.
fn store_spinor<B: Backend>(b: &mut B, sh: TypeShape, f: &[[CV<B::V>; 3]]) {
    for (s, row) in f.iter().enumerate() {
        for (c, z) in row.iter().enumerate() {
            b.store(sh.comp_index(s, c, 0), &z.re);
            b.store(sh.comp_index(s, c, 1), &z.im);
        }
    }
}

/// Store a value into the target field at the current site.
pub fn store_val<B: Backend>(b: &mut B, v: &SVal<B::V>) {
    let sh = TypeShape::of(v.kind());
    match v {
        SVal::Real(x) => b.store(0, x),
        SVal::Complex(z) => {
            b.store(sh.comp_index(0, 0, 0), &z.re);
            b.store(sh.comp_index(0, 0, 1), &z.im);
        }
        SVal::ColorMatrix(m) => {
            for i in 0..3 {
                for j in 0..3 {
                    b.store(sh.comp_index(0, i * 3 + j, 0), &m[i][j].re);
                    b.store(sh.comp_index(0, i * 3 + j, 1), &m[i][j].im);
                }
            }
        }
        SVal::Fermion(f) => store_spinor(b, sh, &f[..]),
        SVal::HalfFermion(h) => store_spinor(b, sh, &h[..]),
        SVal::SpinMatrix(m) => {
            for i in 0..4 {
                for j in 0..4 {
                    b.store(sh.comp_index(i * 4 + j, 0, 0), &m[i][j].re);
                    b.store(sh.comp_index(i * 4 + j, 0, 1), &m[i][j].im);
                }
            }
        }
        SVal::CloverDiag(d) => {
            for blk in 0..2 {
                for e in 0..6 {
                    b.store(sh.comp_index(blk, e, 0), &d[blk][e]);
                }
            }
        }
        SVal::CloverTriang(t) => {
            for blk in 0..2 {
                for e in 0..15 {
                    b.store(sh.comp_index(blk, e, 0), &t[blk][e].re);
                    b.store(sh.comp_index(blk, e, 1), &t[blk][e].im);
                }
            }
        }
    }
}

// --- matrix algebra ----------------------------------------------------------

fn cm_mul<B: Backend>(b: &mut B, x: &[[CV<B::V>; 3]; 3], y: &[[CV<B::V>; 3]; 3]) -> Box<[[CV<B::V>; 3]; 3]> {
    let mut rows = Vec::with_capacity(3);
    for i in 0..3 {
        let mut row = Vec::with_capacity(3);
        for j in 0..3 {
            let mut acc = cmul(b, &x[i][0], &y[0][j]);
            for k in 1..3 {
                acc = cfma(b, &x[i][k], &y[k][j], &acc);
            }
            row.push(acc);
        }
        rows.push(row);
    }
    let mut it = rows.into_iter().flatten();
    Box::new(std::array::from_fn(|_| {
        std::array::from_fn(|_| it.next().unwrap())
    }))
}

fn cm_identity<B: Backend>(b: &mut B) -> Box<[[CV<B::V>; 3]; 3]> {
    Box::new(std::array::from_fn(|i| {
        std::array::from_fn(|j| {
            if i == j {
                CV {
                    re: b.c(1.0),
                    im: b.c(0.0),
                }
            } else {
                czero(b)
            }
        })
    }))
}

fn sm_mul<B: Backend>(b: &mut B, x: &[[CV<B::V>; 4]; 4], y: &[[CV<B::V>; 4]; 4]) -> Box<[[CV<B::V>; 4]; 4]> {
    let mut rows = Vec::with_capacity(4);
    for i in 0..4 {
        let mut row = Vec::with_capacity(4);
        for j in 0..4 {
            let mut acc = cmul(b, &x[i][0], &y[0][j]);
            for k in 1..4 {
                acc = cfma(b, &x[i][k], &y[k][j], &acc);
            }
            row.push(acc);
        }
        rows.push(row);
    }
    let mut it = rows.into_iter().flatten();
    Box::new(std::array::from_fn(|_| {
        std::array::from_fn(|_| it.next().unwrap())
    }))
}

// --- the expression walk -------------------------------------------------------

/// Generation context: the leaf table and the running scalar index.
pub struct GenCtx<'a> {
    /// Deduplicated leaves in visiting order ([`Expr::leaves`]).
    pub leaves: &'a [FieldRef],
    /// Next scalar parameter index.
    pub scalar_idx: usize,
}

impl<'a> GenCtx<'a> {
    /// Create a context for the given leaf table.
    pub fn new(leaves: &'a [FieldRef]) -> GenCtx<'a> {
        GenCtx {
            leaves,
            scalar_idx: 0,
        }
    }

    fn leaf_slot(&self, id: u64) -> usize {
        self.leaves
            .iter()
            .position(|l| l.id == id)
            .expect("leaf not in table")
    }
}

/// Walk the AST, producing the site value (and, on the PTX backend, the
/// kernel body).
pub fn gen_expr<B: Backend>(e: &Expr, b: &mut B, cx: &mut GenCtx<'_>) -> SVal<B::V> {
    match e {
        Expr::Field(r) => {
            let slot = cx.leaf_slot(r.id);
            load_leaf(b, slot, r.kind)
        }
        Expr::Scalar { complex, .. } => {
            let idx = cx.scalar_idx;
            cx.scalar_idx += 1;
            if *complex {
                SVal::Complex(CV {
                    re: b.scalar(idx, false),
                    im: b.scalar(idx, true),
                })
            } else {
                SVal::Real(b.scalar(idx, false))
            }
        }
        Expr::Shift { mu, dir, child } => {
            b.push_shift(*mu, *dir);
            let v = gen_expr(child, b, cx);
            b.pop_shift();
            v
        }
        Expr::Unary(op, c) => {
            let v = gen_expr(c, b, cx);
            gen_unary(*op, &v, b)
        }
        Expr::Binary(op, x, y) => {
            let vx = gen_expr(x, b, cx);
            // `x + reconstruct(h)` accumulates the half spinor straight
            // into `x`, the reconstruction's phases folded into the adds
            // (Chroma's `spinReconstructDir` accumulate): no `neg`, no
            // temporary fermion.
            if let (BinaryOp::Add, Expr::SpinReconstruct { proj, child }) = (op, &**y) {
                let h = gen_expr(child, b, cx);
                return gen_reconstruct(proj, &h, Some(&vx), b);
            }
            let vy = gen_expr(y, b, cx);
            gen_binary(*op, &vx, &vy, b)
        }
        Expr::GammaMul { gamma, child } => {
            let v = gen_expr(child, b, cx);
            gen_gamma(gamma, &v, b)
        }
        Expr::SpinProject { proj, child } => {
            let v = gen_expr(child, b, cx);
            gen_project(proj, &v, b)
        }
        Expr::SpinReconstruct { proj, child } => {
            let h = gen_expr(child, b, cx);
            gen_reconstruct(proj, &h, None, b)
        }
        Expr::CloverApply { diag, tri, child } => {
            let dslot = cx.leaf_slot(diag.id);
            let tslot = cx.leaf_slot(tri.id);
            let d = load_leaf(b, dslot, ElemKind::CloverDiag);
            let t = load_leaf(b, tslot, ElemKind::CloverTriang);
            let psi = gen_expr(child, b, cx);
            gen_clover(&d, &t, &psi, b)
        }
    }
}

fn map2<B: Backend>(
    b: &mut B,
    x: &SVal<B::V>,
    y: &SVal<B::V>,
    f: impl Fn(&mut B, &CV<B::V>, &CV<B::V>) -> CV<B::V>,
    fr: impl Fn(&mut B, &B::V, &B::V) -> B::V,
) -> SVal<B::V> {
    match (x, y) {
        (SVal::Real(a), SVal::Real(c)) => SVal::Real(fr(b, a, c)),
        (SVal::Complex(a), SVal::Complex(c)) => SVal::Complex(f(b, a, c)),
        (SVal::ColorMatrix(a), SVal::ColorMatrix(c)) => SVal::ColorMatrix(Box::new(
            std::array::from_fn(|i| std::array::from_fn(|j| f(b, &a[i][j], &c[i][j]))),
        )),
        (SVal::Fermion(a), SVal::Fermion(c)) => SVal::Fermion(Box::new(std::array::from_fn(
            |s| std::array::from_fn(|cc| f(b, &a[s][cc], &c[s][cc])),
        ))),
        (SVal::HalfFermion(a), SVal::HalfFermion(c)) => SVal::HalfFermion(Box::new(
            std::array::from_fn(|s| std::array::from_fn(|cc| f(b, &a[s][cc], &c[s][cc]))),
        )),
        (SVal::SpinMatrix(a), SVal::SpinMatrix(c)) => SVal::SpinMatrix(Box::new(
            std::array::from_fn(|i| std::array::from_fn(|j| f(b, &a[i][j], &c[i][j]))),
        )),
        (SVal::CloverDiag(a), SVal::CloverDiag(c)) => SVal::CloverDiag(Box::new(
            std::array::from_fn(|blk| std::array::from_fn(|e| fr(b, &a[blk][e], &c[blk][e]))),
        )),
        (SVal::CloverTriang(a), SVal::CloverTriang(c)) => SVal::CloverTriang(Box::new(
            std::array::from_fn(|blk| std::array::from_fn(|e| f(b, &a[blk][e], &c[blk][e]))),
        )),
        _ => panic!("kind mismatch in elementwise op"),
    }
}

fn map1<B: Backend>(
    b: &mut B,
    x: &SVal<B::V>,
    f: impl Fn(&mut B, &CV<B::V>) -> CV<B::V>,
    fr: impl Fn(&mut B, &B::V) -> B::V,
) -> SVal<B::V> {
    match x {
        SVal::Real(a) => SVal::Real(fr(b, a)),
        SVal::Complex(a) => SVal::Complex(f(b, a)),
        SVal::ColorMatrix(a) => SVal::ColorMatrix(Box::new(std::array::from_fn(|i| {
            std::array::from_fn(|j| f(b, &a[i][j]))
        }))),
        SVal::Fermion(a) => SVal::Fermion(Box::new(std::array::from_fn(|s| {
            std::array::from_fn(|c| f(b, &a[s][c]))
        }))),
        SVal::HalfFermion(a) => SVal::HalfFermion(Box::new(std::array::from_fn(|s| {
            std::array::from_fn(|c| f(b, &a[s][c]))
        }))),
        SVal::SpinMatrix(a) => SVal::SpinMatrix(Box::new(std::array::from_fn(|i| {
            std::array::from_fn(|j| f(b, &a[i][j]))
        }))),
        SVal::CloverDiag(a) => SVal::CloverDiag(Box::new(std::array::from_fn(|blk| {
            std::array::from_fn(|e| fr(b, &a[blk][e]))
        }))),
        SVal::CloverTriang(a) => SVal::CloverTriang(Box::new(std::array::from_fn(|blk| {
            std::array::from_fn(|e| f(b, &a[blk][e]))
        }))),
    }
}

fn gen_unary<B: Backend>(op: UnaryOp, v: &SVal<B::V>, b: &mut B) -> SVal<B::V> {
    match op {
        UnaryOp::Neg => map1(b, v, |b, z| cneg(b, z), |b, r| b.neg(r)),
        UnaryOp::Conj => map1(b, v, |b, z| cconj(b, z), |_, r| r.clone()),
        UnaryOp::Adj => match v {
            SVal::Complex(z) => SVal::Complex(cconj(b, z)),
            SVal::ColorMatrix(m) => SVal::ColorMatrix(Box::new(std::array::from_fn(|i| {
                std::array::from_fn(|j| cconj(b, &m[j][i]))
            }))),
            SVal::SpinMatrix(m) => SVal::SpinMatrix(Box::new(std::array::from_fn(|i| {
                std::array::from_fn(|j| cconj(b, &m[j][i]))
            }))),
            _ => panic!("adj of unsupported kind"),
        },
        UnaryOp::Transpose => match v {
            SVal::ColorMatrix(m) => SVal::ColorMatrix(Box::new(std::array::from_fn(|i| {
                std::array::from_fn(|j| m[j][i].clone())
            }))),
            SVal::SpinMatrix(m) => SVal::SpinMatrix(Box::new(std::array::from_fn(|i| {
                std::array::from_fn(|j| m[j][i].clone())
            }))),
            SVal::Complex(z) => SVal::Complex(z.clone()),
            _ => panic!("transpose of unsupported kind"),
        },
        UnaryOp::Trace => match v {
            SVal::ColorMatrix(m) => {
                let mut acc = m[0][0].clone();
                for i in 1..3 {
                    acc = cadd(b, &acc, &m[i][i]);
                }
                SVal::Complex(acc)
            }
            SVal::SpinMatrix(m) => {
                let mut acc = m[0][0].clone();
                for i in 1..4 {
                    acc = cadd(b, &acc, &m[i][i]);
                }
                SVal::Complex(acc)
            }
            _ => panic!("trace of non-matrix"),
        },
        UnaryOp::RealPart => match v {
            SVal::Complex(z) => SVal::Real(z.re.clone()),
            _ => panic!("realPart of non-complex"),
        },
        UnaryOp::ImagPart => match v {
            SVal::Complex(z) => SVal::Real(z.im.clone()),
            _ => panic!("imagPart of non-complex"),
        },
        UnaryOp::TimesI => match v {
            SVal::Real(r) => SVal::Complex(CV {
                re: b.c(0.0),
                im: r.clone(),
            }),
            other => map1(
                b,
                other,
                |b, z| CV {
                    re: b.neg(&z.im),
                    im: z.re.clone(),
                },
                |_, _| panic!("timesI on real container"),
            ),
        },
        UnaryOp::TimesMinusI => match v {
            SVal::Real(r) => {
                let nr = b.neg(r);
                SVal::Complex(CV { re: b.c(0.0), im: nr })
            }
            other => map1(
                b,
                other,
                |b, z| CV {
                    re: z.im.clone(),
                    im: b.neg(&z.re),
                },
                |_, _| panic!("timesMinusI on real container"),
            ),
        },
        UnaryOp::LocalNorm2 => {
            let comps = collect_scalars(v);
            let mut acc = b.c(0.0);
            for s in comps {
                acc = b.fma(&s, &s, &acc);
            }
            SVal::Real(acc)
        }
        UnaryOp::DiagFill => {
            let z = match v {
                SVal::Complex(z) => z.clone(),
                SVal::Real(r) => CV {
                    re: r.clone(),
                    im: b.c(0.0),
                },
                _ => panic!("diagFill of non-scalar"),
            };
            SVal::ColorMatrix(Box::new(std::array::from_fn(|i| {
                std::array::from_fn(|j| if i == j { z.clone() } else { czero(b) })
            })))
        }
        UnaryOp::ExpM => match v {
            SVal::ColorMatrix(m) => {
                // exp(A) = (exp(A/4))^4, exp(A/4) by 9-term Taylor — the
                // same fixed sequence on both backends.
                let quarter = b.c(0.25);
                let a4: Box<[[CV<B::V>; 3]; 3]> = Box::new(std::array::from_fn(|i| {
                    std::array::from_fn(|j| cscale(b, &quarter, &m[i][j]))
                }));
                let mut result = cm_identity(b);
                let mut term = cm_identity(b);
                for k in 1..=9u32 {
                    let prod = cm_mul(b, &term, &a4);
                    let inv_k = b.c(1.0 / k as f64);
                    term = Box::new(std::array::from_fn(|i| {
                        std::array::from_fn(|j| cscale(b, &inv_k, &prod[i][j]))
                    }));
                    result = Box::new(std::array::from_fn(|i| {
                        std::array::from_fn(|j| cadd(b, &result[i][j], &term[i][j]))
                    }));
                }
                let sq = cm_mul(b, &result, &result);
                let sq2 = cm_mul(b, &sq, &sq);
                SVal::ColorMatrix(sq2)
            }
            _ => panic!("expm of non-color-matrix"),
        },
    }
}

/// Flatten a value to its scalar components (canonical order irrelevant —
/// used by norms and inner products, which are symmetric sums).
fn collect_scalars<V: Clone>(v: &SVal<V>) -> Vec<V> {
    let mut out = Vec::new();
    match v {
        SVal::Real(r) => out.push(r.clone()),
        SVal::Complex(z) => {
            out.push(z.re.clone());
            out.push(z.im.clone());
        }
        SVal::ColorMatrix(m) => {
            for row in m.iter() {
                for z in row {
                    out.push(z.re.clone());
                    out.push(z.im.clone());
                }
            }
        }
        SVal::Fermion(f) => {
            for row in f.iter() {
                for z in row {
                    out.push(z.re.clone());
                    out.push(z.im.clone());
                }
            }
        }
        SVal::HalfFermion(h) => {
            out.extend(h.iter().flatten().flat_map(|z| [z.re.clone(), z.im.clone()]));
        }
        SVal::SpinMatrix(m) => {
            for row in m.iter() {
                for z in row {
                    out.push(z.re.clone());
                    out.push(z.im.clone());
                }
            }
        }
        SVal::CloverDiag(d) => {
            for blk in d.iter() {
                for r in blk {
                    out.push(r.clone());
                }
            }
        }
        SVal::CloverTriang(t) => {
            for blk in t.iter() {
                for z in blk {
                    out.push(z.re.clone());
                    out.push(z.im.clone());
                }
            }
        }
    }
    out
}

fn collect_complex<V: Clone>(v: &SVal<V>) -> Vec<CV<V>> {
    match v {
        SVal::Complex(z) => vec![z.clone()],
        SVal::ColorMatrix(m) => m.iter().flatten().cloned().collect(),
        SVal::Fermion(f) => f.iter().flatten().cloned().collect(),
        SVal::HalfFermion(h) => h.iter().flatten().cloned().collect(),
        SVal::SpinMatrix(m) => m.iter().flatten().cloned().collect(),
        SVal::CloverTriang(t) => t.iter().flatten().cloned().collect(),
        _ => panic!("not a complex container"),
    }
}

fn gen_binary<B: Backend>(op: BinaryOp, x: &SVal<B::V>, y: &SVal<B::V>, b: &mut B) -> SVal<B::V> {
    match op {
        BinaryOp::Add => map2(b, x, y, |b, p, q| cadd(b, p, q), |b, p, q| b.add(p, q)),
        BinaryOp::Sub => map2(b, x, y, |b, p, q| csub(b, p, q), |b, p, q| b.sub(p, q)),
        BinaryOp::Mul => gen_mul(x, y, b),
        BinaryOp::ColorOuter => {
            // A_ij = Σ_s x[s][i]·conj(y[s][j])
            let (SVal::Fermion(x), SVal::Fermion(y)) = (x, y) else {
                panic!("colorOuter of non-fermions");
            };
            let mut rows = Vec::with_capacity(3);
            for i in 0..3 {
                let mut row = Vec::with_capacity(3);
                for j in 0..3 {
                    // conj(y)·x = conj(cmul_conj args): Σ_s conj(y[s][j])·x[s][i]
                    let mut acc = cmul_conj(b, &y[0][j], &x[0][i]);
                    for s in 1..4 {
                        acc = cfma_conj(b, &y[s][j], &x[s][i], &acc);
                    }
                    row.push(acc);
                }
                rows.push(row);
            }
            let mut it = rows.into_iter().flatten();
            SVal::ColorMatrix(Box::new(std::array::from_fn(|_| {
                std::array::from_fn(|_| it.next().unwrap())
            })))
        }
        BinaryOp::LocalInnerProduct => {
            // Σ conj(x_i)·y_i over all components.
            if let (SVal::Real(a), SVal::Real(c)) = (x, y) {
                let prod = b.mul(a, c);
                return SVal::Complex(CV {
                    re: prod,
                    im: b.c(0.0),
                });
            }
            let xs = collect_complex(x);
            let ys = collect_complex(y);
            assert_eq!(xs.len(), ys.len(), "inner product arity mismatch");
            let mut acc = cmul_conj(b, &xs[0], &ys[0]);
            for i in 1..xs.len() {
                acc = cfma_conj(b, &xs[i], &ys[i], &acc);
            }
            SVal::Complex(acc)
        }
    }
}

fn gen_mul<B: Backend>(x: &SVal<B::V>, y: &SVal<B::V>, b: &mut B) -> SVal<B::V> {
    use SVal::*;
    match (x, y) {
        // real scaling
        (Real(s), other) => map1(
            b,
            other,
            |b, z| cscale(b, s, z),
            |b, r| b.mul(s, r),
        ),
        (other, Real(s)) => map1(
            b,
            other,
            |b, z| cscale(b, s, z),
            |b, r| b.mul(s, r),
        ),
        // complex scaling / multiplication
        (Complex(s), Complex(t)) => SVal::Complex(cmul(b, s, t)),
        (Complex(s), other) => map1(
            b,
            other,
            |b, z| cmul(b, s, z),
            |_, _| panic!("complex × real container"),
        ),
        (other, Complex(s)) => map1(
            b,
            other,
            |b, z| cmul(b, z, s),
            |_, _| panic!("real container × complex"),
        ),
        // color level
        (ColorMatrix(m), ColorMatrix(n)) => SVal::ColorMatrix(cm_mul(b, m, n)),
        (ColorMatrix(m), Fermion(f)) => SVal::Fermion(cm_spinor(b, m, f)),
        (ColorMatrix(m), HalfFermion(h)) => SVal::HalfFermion(cm_spinor(b, m, h)),
        // spin level
        (SpinMatrix(m), SpinMatrix(n)) => SVal::SpinMatrix(sm_mul(b, m, n)),
        (SpinMatrix(m), Fermion(f)) => {
            let mut rows = Vec::with_capacity(4);
            for s in 0..4 {
                let mut row = Vec::with_capacity(3);
                for c in 0..3 {
                    let mut acc = cmul(b, &m[s][0], &f[0][c]);
                    for t in 1..4 {
                        acc = cfma(b, &m[s][t], &f[t][c], &acc);
                    }
                    row.push(acc);
                }
                rows.push(row);
            }
            let mut it = rows.into_iter().flatten();
            SVal::Fermion(Box::new(std::array::from_fn(|_| {
                std::array::from_fn(|_| it.next().unwrap())
            })))
        }
        _ => panic!("unsupported multiplication {:?} × {:?}", x.kind(), y.kind()),
    }
}

/// A 3×3 color matrix times each spin's color vector.
fn cm_spinor<B: Backend, const NS: usize>(
    b: &mut B,
    m: &[[CV<B::V>; 3]; 3],
    f: &[[CV<B::V>; 3]; NS],
) -> Box<[[CV<B::V>; 3]; NS]> {
    Box::new(std::array::from_fn(|s| {
        std::array::from_fn(|i| {
            let mut acc = cmul(b, &m[i][0], &f[s][0]);
            for k in 1..3 {
                acc = cfma(b, &m[i][k], &f[s][k], &acc);
            }
            acc
        })
    }))
}

/// `spinProjectDir`: rows 0 and 1 of `(1 ± γ_µ)ψ`, each `ψ_k + g_k·ψ_{c_k}`
/// — 12 adds or subs, no `neg`.
fn gen_project<B: Backend>(p: &SpinProjector, v: &SVal<B::V>, b: &mut B) -> SVal<B::V> {
    let SVal::Fermion(f) = v else {
        panic!("spinProject of non-fermion");
    };
    SVal::HalfFermion(Box::new(std::array::from_fn(|k| {
        let (col, phase) = p.project_row(k);
        std::array::from_fn(|c| cadd_phased(b, &f[k][c], phase, &f[col][c]))
    })))
}

/// `spinReconstructDir`: `(1 ± γ_µ)ψ` from its half spinor — added into
/// `acc` when there is one (the phases fold into the adds), alone
/// otherwise.
fn gen_reconstruct<B: Backend>(
    p: &SpinProjector,
    h: &SVal<B::V>,
    acc: Option<&SVal<B::V>>,
    b: &mut B,
) -> SVal<B::V> {
    let SVal::HalfFermion(h) = h else {
        panic!("spinReconstruct of non-half-fermion");
    };
    let acc = match acc {
        Some(SVal::Fermion(a)) => Some(a),
        Some(_) => panic!("fermion plus spinReconstruct of non-fermion"),
        None => None,
    };
    SVal::Fermion(Box::new(std::array::from_fn(|s| {
        let (row, phase) = p.reconstruct_row(s);
        std::array::from_fn(|c| match acc {
            Some(a) => cadd_phased(b, &a[s][c], phase, &h[row][c]),
            None => apply_phase(b, phase, &h[row][c]),
        })
    })))
}

fn gen_gamma<B: Backend>(g: &Gamma, v: &SVal<B::V>, b: &mut B) -> SVal<B::V> {
    match v {
        SVal::Fermion(f) => SVal::Fermion(Box::new(std::array::from_fn(|s| {
            let src = g.col[s] as usize;
            std::array::from_fn(|c| apply_phase(b, g.phase[s], &f[src][c]))
        }))),
        _ => panic!("gamma on non-fermion"),
    }
}

/// The clover term `A·ψ` (paper §VI-A): two Hermitian 6×6 blocks stored as
/// diagonal + lower triangle; the upper triangle is reconstructed by
/// conjugation.
fn gen_clover<B: Backend>(
    d: &SVal<B::V>,
    t: &SVal<B::V>,
    psi: &SVal<B::V>,
    b: &mut B,
) -> SVal<B::V> {
    let (SVal::CloverDiag(diag), SVal::CloverTriang(tri), SVal::Fermion(f)) = (d, t, psi) else {
        panic!("clover operand kinds");
    };
    let mut out: Vec<CV<B::V>> = Vec::with_capacity(12);
    for blk in 0..2 {
        // x[i] = psi[2*blk + i/3][i%3], i in 0..6
        let x: Vec<CV<B::V>> = (0..6).map(|i| f[2 * blk + i / 3][i % 3].clone()).collect();
        for i in 0..6 {
            let mut acc = cscale(b, &diag[blk][i], &x[i]);
            for j in 0..i {
                acc = cfma(b, &tri[blk][tri_index(i, j)], &x[j], &acc);
            }
            for j in (i + 1)..6 {
                acc = cfma_conj(b, &tri[blk][tri_index(j, i)], &x[j], &acc);
            }
            out.push(acc);
        }
    }
    let mut it = out.into_iter();
    SVal::Fermion(Box::new(std::array::from_fn(|_| {
        std::array::from_fn(|_| it.next().unwrap())
    })))
}
