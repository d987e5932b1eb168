//! # qdp-expr — expression ASTs for data-parallel lattice expressions
//!
//! QDP++ builds expressions with C++ expression templates (PETE): operators
//! return proxy objects whose template nesting *is* the abstract syntax
//! tree (paper §II-B, Fig. 3). In Rust we build the same AST at runtime —
//! the paper only ever uses the templates to obtain the AST when a kernel
//! is (re)built, so a runtime DAG feeds the identical information to the
//! code generator. `qdp-core` puts a phantom-typed operator-overloading
//! layer on top so that ill-typed expressions still fail to compile, like
//! QDP++'s.
//!
//! The AST captures everything the paper's machinery consumes:
//!
//! * **leaf extraction** ([`Expr::leaves`]) — the automatic memory manager
//!   walks the AST and caches every referenced field before launch (§IV);
//! * **shift extraction** ([`Expr::shifts`]) — the communication layer
//!   derives the faces to exchange and whether inner/face overlap applies
//!   (§V);
//! * **structural keys** ([`Expr::kernel_key`]) — two expressions with the
//!   same structure share one generated kernel (scalar values are kernel
//!   *parameters*, so CG iterations with changing α, β reuse kernels);
//! * all of the above from **one traversal** ([`KernelSignature`]) — a
//!   kernel's statement group is walked once, and the walk yields the key
//!   together with the leaf table, shift list and scalars of the launch;
//! * **type inference** ([`Expr::shape`]) — result kinds follow the QDP++
//!   multiplication rules for the nested spin ⊗ color ⊗ complex types.

use qdp_types::{ElemKind, FloatType, Gamma, TypeShape};
use std::fmt::Write;

/// Reference to a lattice field stored in the memory cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldRef {
    /// Field id in the memory cache.
    pub id: u64,
    /// Element kind.
    pub kind: ElemKind,
    /// Storage precision.
    pub ft: FloatType,
}

impl FieldRef {
    /// Shape of the field's site elements.
    pub fn shape(&self) -> TypeShape {
        TypeShape::of(self.kind)
    }
}

/// Unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Negation (any type).
    Neg,
    /// Hermitian adjoint (color/spin matrices, complex).
    Adj,
    /// Complex conjugate without transposition.
    Conj,
    /// Transpose without conjugation (matrices).
    Transpose,
    /// Color/spin trace: matrix kind → complex.
    Trace,
    /// Real part: complex → real.
    RealPart,
    /// Imaginary part: complex → real.
    ImagPart,
    /// Multiply by `i`.
    TimesI,
    /// Multiply by `−i`.
    TimesMinusI,
    /// Per-site squared norm: any kind → real.
    LocalNorm2,
    /// Fill a diagonal color matrix from a complex scalar (`z·1`).
    DiagFill,
    /// Matrix exponential of a color matrix (fixed 12-term Taylor, used by
    /// the HMC link update `U ← exp(ε P) U`).
    ExpM,
}

/// Binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// Addition (matching kinds).
    Add,
    /// Subtraction (matching kinds).
    Sub,
    /// Multiplication, dispatched on the operand kinds like QDP++'s nested
    /// `operator*`.
    Mul,
    /// Per-site inner product `⟨a, b⟩ = Σ conj(a_i)·b_i` → complex.
    LocalInnerProduct,
    /// Spin-traced color outer product (QDP++ `traceSpin(outerProduct(x, y))`):
    /// two fermions → color matrix `A_ij = Σ_s x_{s,i}·conj(y_{s,j})`.
    /// Used by the fermion force terms of the HMC.
    ColorOuter,
}

/// Shift direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShiftDir {
    /// `x → x + µ̂` (read the forward neighbour).
    Forward,
    /// `x → x − µ̂`.
    Backward,
}

/// An expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Leaf: a lattice field.
    Field(FieldRef),
    /// Leaf: a scalar (OScalar / literal). Becomes a *kernel parameter*,
    /// not an immediate, so structurally equal expressions share kernels.
    Scalar {
        /// Real part.
        re: f64,
        /// Imaginary part.
        im: f64,
        /// Whether the scalar is complex (kind `Complex`) or real.
        complex: bool,
    },
    /// Unary node.
    Unary(UnaryOp, Box<Expr>),
    /// Binary node.
    Binary(BinaryOp, Box<Expr>, Box<Expr>),
    /// Shift node (paper §II-C): the value at `x` is the child's value at
    /// the displaced site.
    Shift {
        /// Dimension `µ ∈ 0..Nd`.
        mu: usize,
        /// Direction.
        dir: ShiftDir,
        /// Shifted subexpression.
        child: Box<Expr>,
    },
    /// Gamma-matrix application `Gamma(n) · child` (child must be fermion
    /// kind). Kept sparse: a spin permutation plus phases.
    GammaMul {
        /// The sparse gamma matrix.
        gamma: Gamma,
        /// Fermion subexpression.
        child: Box<Expr>,
    },
    /// The clover term `A·ψ` — the paper's custom user-defined function
    /// mixing spin and color index spaces (§VI-A).
    CloverApply {
        /// Field holding the block diagonals (kind `CloverDiag`).
        diag: FieldRef,
        /// Field holding the block triangles (kind `CloverTriang`).
        tri: FieldRef,
        /// Fermion subexpression.
        child: Box<Expr>,
    },
}

/// Type errors detected while inferring an expression's shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TypeError(pub String);

impl std::fmt::Display for TypeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "type error: {}", self.0)
    }
}

impl std::error::Error for TypeError {}

fn err(msg: impl Into<String>) -> TypeError {
    TypeError(msg.into())
}

impl Expr {
    /// Build a field leaf.
    pub fn field(id: u64, kind: ElemKind, ft: FloatType) -> Expr {
        Expr::Field(FieldRef { id, kind, ft })
    }

    /// Build a real scalar leaf.
    pub fn real(v: f64) -> Expr {
        Expr::Scalar {
            re: v,
            im: 0.0,
            complex: false,
        }
    }

    /// Build a complex scalar leaf.
    pub fn complex(re: f64, im: f64) -> Expr {
        Expr::Scalar {
            re,
            im,
            complex: true,
        }
    }

    /// Result element kind of the expression.
    pub fn kind(&self) -> Result<ElemKind, TypeError> {
        match self {
            Expr::Field(f) => Ok(f.kind),
            Expr::Scalar { complex, .. } => Ok(if *complex {
                ElemKind::Complex
            } else {
                ElemKind::Real
            }),
            Expr::Unary(op, c) => {
                let k = c.kind()?;
                match op {
                    UnaryOp::Neg => Ok(k),
                    UnaryOp::Adj | UnaryOp::Conj | UnaryOp::Transpose => match k {
                        ElemKind::ColorMatrix | ElemKind::SpinMatrix | ElemKind::Complex => Ok(k),
                        other => Err(err(format!("{op:?} not defined on {other:?}"))),
                    },
                    UnaryOp::Trace => match k {
                        ElemKind::ColorMatrix | ElemKind::SpinMatrix => Ok(ElemKind::Complex),
                        other => Err(err(format!("trace of non-matrix {other:?}"))),
                    },
                    UnaryOp::RealPart | UnaryOp::ImagPart => match k {
                        ElemKind::Complex => Ok(ElemKind::Real),
                        other => Err(err(format!("{op:?} of non-complex {other:?}"))),
                    },
                    UnaryOp::TimesI | UnaryOp::TimesMinusI => match k {
                        ElemKind::Real => Ok(ElemKind::Complex),
                        _ => Ok(k),
                    },
                    UnaryOp::LocalNorm2 => Ok(ElemKind::Real),
                    UnaryOp::DiagFill => match k {
                        ElemKind::Complex | ElemKind::Real => Ok(ElemKind::ColorMatrix),
                        other => Err(err(format!("diagFill of {other:?}"))),
                    },
                    UnaryOp::ExpM => match k {
                        ElemKind::ColorMatrix => Ok(ElemKind::ColorMatrix),
                        other => Err(err(format!("expm of {other:?}"))),
                    },
                }
            }
            Expr::Binary(op, a, b) => {
                let (ka, kb) = (a.kind()?, b.kind()?);
                match op {
                    BinaryOp::Add | BinaryOp::Sub => {
                        if ka == kb {
                            Ok(ka)
                        } else {
                            Err(err(format!("{op:?} of {ka:?} and {kb:?}")))
                        }
                    }
                    BinaryOp::Mul => mul_kind(ka, kb),
                    BinaryOp::LocalInnerProduct => {
                        if ka == kb {
                            Ok(ElemKind::Complex)
                        } else {
                            Err(err(format!("localInnerProduct of {ka:?} and {kb:?}")))
                        }
                    }
                    BinaryOp::ColorOuter => {
                        if ka == ElemKind::Fermion && kb == ElemKind::Fermion {
                            Ok(ElemKind::ColorMatrix)
                        } else {
                            Err(err(format!("colorOuter of {ka:?} and {kb:?}")))
                        }
                    }
                }
            }
            Expr::Shift { child, .. } => child.kind(),
            Expr::GammaMul { child, .. } => {
                let k = child.kind()?;
                match k {
                    ElemKind::Fermion => Ok(ElemKind::Fermion),
                    other => Err(err(format!("Gamma · {other:?}"))),
                }
            }
            Expr::CloverApply { diag, tri, child } => {
                if diag.kind != ElemKind::CloverDiag || tri.kind != ElemKind::CloverTriang {
                    return Err(err("clover fields have wrong kinds"));
                }
                match child.kind()? {
                    ElemKind::Fermion => Ok(ElemKind::Fermion),
                    other => Err(err(format!("clover · {other:?}"))),
                }
            }
        }
    }

    /// Result shape.
    pub fn shape(&self) -> Result<TypeShape, TypeError> {
        Ok(TypeShape::of(self.kind()?))
    }

    /// Computation precision: F64 if any leaf is F64 (the paper's implicit
    /// type promotion, §III-D), else F32. Scalars don't force promotion.
    pub fn float_type(&self) -> FloatType {
        KernelSignature::default().push(self, &mut String::new())
    }

    /// All referenced fields in visiting order, deduplicated — what the
    /// memory cache pages in before the launch (§IV).
    pub fn leaves(&self) -> Vec<FieldRef> {
        KernelSignature::of(self).leaves
    }

    /// The field leaves read under a shift that `pick` selects —
    /// deduplicated, in visiting order.
    fn leaves_under(&self, pick: &dyn Fn(usize, ShiftDir) -> bool) -> Vec<FieldRef> {
        fn walk(
            e: &Expr,
            under: bool,
            pick: &dyn Fn(usize, ShiftDir) -> bool,
            out: &mut Vec<FieldRef>,
        ) {
            let mut read = |r: &FieldRef| {
                if under && !out.iter().any(|x| x.id == r.id) {
                    out.push(*r);
                }
            };
            match e {
                Expr::Field(r) => read(r),
                Expr::Scalar { .. } => {}
                Expr::Unary(_, c) => walk(c, under, pick, out),
                Expr::Binary(_, a, b) => {
                    walk(a, under, pick, out);
                    walk(b, under, pick, out);
                }
                Expr::Shift { mu, dir, child } => walk(child, under || pick(*mu, *dir), pick, out),
                Expr::GammaMul { child, .. } => walk(child, under, pick, out),
                Expr::CloverApply { diag, tri, child } => {
                    read(diag);
                    read(tri);
                    walk(child, under, pick, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(self, false, pick, &mut out);
        out
    }

    /// The field leaves referenced *under* shifts in `(mu, dir)` — the only
    /// data a halo exchange for that shift must move (§V). Deduplicated, in
    /// visiting order.
    pub fn leaves_under_shift(&self, mu: usize, dir: ShiftDir) -> Vec<FieldRef> {
        self.leaves_under(&|m, d| m == mu && d == dir)
    }

    /// The field leaves read under *any* shift, whatever its direction —
    /// deduplicated, in visiting order. The fusion planner's hazard set: a
    /// shifted read observes neighbouring sites, so it must never read a
    /// field written earlier in the same fused kernel (another thread may
    /// not have produced that site yet).
    pub fn leaves_under_any_shift(&self) -> Vec<FieldRef> {
        self.leaves_under(&|_, _| true)
    }

    /// All shift `(mu, dir)` pairs in the expression, deduplicated — what
    /// the communication layer exchanges (§V).
    pub fn shifts(&self) -> Vec<(usize, ShiftDir)> {
        KernelSignature::of(self).shifts
    }

    /// Does the expression contain a shift of a shift ("next-to-nearest
    /// neighbour")? The paper's overlap implementation excludes these
    /// (§V: inner-most shifts execute non-overlapping).
    pub fn has_nested_shift(&self) -> bool {
        match self {
            Expr::Shift { child, .. } => !child.shifts().is_empty(),
            Expr::Unary(_, c) => c.has_nested_shift(),
            Expr::Binary(_, a, b) => a.has_nested_shift() || b.has_nested_shift(),
            Expr::GammaMul { child, .. } => child.has_nested_shift(),
            Expr::CloverApply { child, .. } => child.has_nested_shift(),
            Expr::Field(_) | Expr::Scalar { .. } => false,
        }
    }

    /// Scalar parameter values in traversal order — passed as kernel
    /// arguments so the kernel text is independent of their values.
    pub fn scalar_values(&self) -> Vec<(f64, f64)> {
        KernelSignature::of(self).scalars
    }

    /// Structural key: identical keys ⇒ identical generated kernels. Field
    /// identities are replaced by their position in visiting order, scalar
    /// values are elided (they are parameters), so e.g. every CG iteration's
    /// `r = r - alpha*v` maps to one kernel.
    pub fn kernel_key(&self) -> String {
        let mut key = String::new();
        KernelSignature::default().push(self, &mut key);
        key
    }
}

/// What one kernel's statement group contributes to the kernel's identity
/// and to its launch, derived by **one** traversal per statement: push the
/// statements in order and the walk writes each structural key while it
/// fills the group's leaf table, shift list and scalar list. Field leaves
/// are numbered by their slot in the *group's* leaf table, so two groups
/// share a key only when every statement reads the same slots —
/// `{r = a+b; t = 2*a}` and `{r = a+b; t = 2*b}` differ. The per-expression
/// walkers of [`Expr`] are views of a group of one.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KernelSignature {
    /// Field leaves in first-visit order over all statements, deduplicated
    /// — the kernel's leaf parameters, paged in before the launch (§IV).
    pub leaves: Vec<FieldRef>,
    /// Shift `(mu, dir)` pairs in first-visit order, deduplicated — the
    /// kernel's neighbour tables, the faces a rank exchanges (§V).
    pub shifts: Vec<(usize, ShiftDir)>,
    /// Scalar parameter values in traversal order, statements concatenated.
    pub scalars: Vec<(f64, f64)>,
    /// For each entry of `scalars`: is it complex?
    pub scalar_complex: Vec<bool>,
}

impl KernelSignature {
    /// The signature of the single statement `expr`.
    pub fn of(expr: &Expr) -> KernelSignature {
        let mut sig = KernelSignature::default();
        sig.push(expr, &mut String::new());
        sig
    }

    /// Walk the next statement of the group: append its structural key to
    /// `key`, extend the tables, and return the precision its leaves
    /// promote to (F64 if any is F64, §III-D; scalars don't promote).
    pub fn push(&mut self, expr: &Expr, key: &mut String) -> FloatType {
        let mut ft = FloatType::F32;
        self.walk(expr, key, &mut ft);
        ft
    }

    fn slot(&mut self, r: &FieldRef, ft: &mut FloatType) -> usize {
        if r.ft == FloatType::F64 {
            *ft = FloatType::F64;
        }
        let known = self.leaves.iter().position(|l| l.id == r.id);
        known.unwrap_or_else(|| {
            self.leaves.push(*r);
            self.leaves.len() - 1
        })
    }

    fn walk(&mut self, e: &Expr, key: &mut String, ft: &mut FloatType) {
        // Writing to a `String` cannot fail.
        match e {
            Expr::Field(r) => {
                let s = self.slot(r, ft);
                let _ = write!(key, "f{s}:{:?}:{}", r.kind, r.ft.tag());
            }
            Expr::Scalar { re, im, complex } => {
                self.scalars.push((*re, *im));
                self.scalar_complex.push(*complex);
                key.push_str(if *complex { "sc" } else { "sr" });
            }
            Expr::Unary(op, c) => {
                let _ = write!(key, "{op:?}(");
                self.walk(c, key, ft);
                key.push(')');
            }
            Expr::Binary(op, a, b) => {
                let _ = write!(key, "{op:?}(");
                self.walk(a, key, ft);
                key.push(',');
                self.walk(b, key, ft);
                key.push(')');
            }
            Expr::Shift { mu, dir, child } => {
                if !self.shifts.contains(&(*mu, *dir)) {
                    self.shifts.push((*mu, *dir));
                }
                let _ = write!(key, "Shift{mu}{dir:?}(");
                self.walk(child, key, ft);
                key.push(')');
            }
            Expr::GammaMul { gamma, child } => {
                let _ = write!(key, "G{:?}{:?}(", gamma.col, gamma.phase);
                self.walk(child, key, ft);
                key.push(')');
            }
            Expr::CloverApply { diag, tri, child } => {
                let (d, t) = (self.slot(diag, ft), self.slot(tri, ft));
                let _ = write!(key, "Clov(f{d},f{t},");
                self.walk(child, key, ft);
                key.push(')');
            }
        }
    }
}

/// QDP++'s nested multiplication dispatch for the supported kinds.
fn mul_kind(a: ElemKind, b: ElemKind) -> Result<ElemKind, TypeError> {
    use ElemKind::*;
    Ok(match (a, b) {
        // scalars scale anything
        (Real, k) | (k, Real) => k,
        (Complex, Complex) => Complex,
        (Complex, k) | (k, Complex) => k,
        // color-matrix level
        (ColorMatrix, ColorMatrix) => ColorMatrix,
        (ColorMatrix, Fermion) => Fermion,
        // spin-matrix level
        (SpinMatrix, SpinMatrix) => SpinMatrix,
        (SpinMatrix, Fermion) => Fermion,
        (x, y) => return Err(err(format!("cannot multiply {x:?} by {y:?}"))),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_types::Gamma;

    fn u(id: u64) -> Expr {
        Expr::field(id, ElemKind::ColorMatrix, FloatType::F64)
    }
    fn psi(id: u64) -> Expr {
        Expr::field(id, ElemKind::Fermion, FloatType::F64)
    }

    /// The expression from the paper's Fig. 1/3:
    /// `u * shift(psi, +mu) + shift(adj(u) * psi, -mu)`.
    fn derivative_expr() -> Expr {
        let t1 = Expr::Binary(
            BinaryOp::Mul,
            Box::new(u(1)),
            Box::new(Expr::Shift {
                mu: 0,
                dir: ShiftDir::Forward,
                child: Box::new(psi(2)),
            }),
        );
        let t2 = Expr::Shift {
            mu: 0,
            dir: ShiftDir::Backward,
            child: Box::new(Expr::Binary(
                BinaryOp::Mul,
                Box::new(Expr::Unary(UnaryOp::Adj, Box::new(u(1)))),
                Box::new(psi(2)),
            )),
        };
        Expr::Binary(BinaryOp::Add, Box::new(t1), Box::new(t2))
    }

    #[test]
    fn figure3_expression_types_and_leaves() {
        let e = derivative_expr();
        assert_eq!(e.kind().unwrap(), ElemKind::Fermion);
        let leaves = e.leaves();
        assert_eq!(leaves.len(), 2); // u and psi, deduplicated
        assert_eq!(
            e.shifts(),
            vec![(0, ShiftDir::Forward), (0, ShiftDir::Backward)]
        );
        assert!(!e.has_nested_shift());
    }

    #[test]
    fn leaves_under_any_shift_is_the_hazard_set() {
        // u*shift(psi,+0) + shift(adj(u)*psi,-0): psi is read shifted in
        // both terms, u only inside the backward-shifted product.
        let e = derivative_expr();
        let hazard = e.leaves_under_any_shift();
        assert_eq!(hazard.len(), 2);
        assert!(hazard.iter().any(|r| r.id == 2)); // psi
        assert!(hazard.iter().any(|r| r.id == 1)); // u (inside the shifted product)
        // An unshifted product has no hazard leaves.
        let flat = Expr::Binary(BinaryOp::Mul, Box::new(u(1)), Box::new(psi(2)));
        assert!(flat.leaves_under_any_shift().is_empty());
    }

    #[test]
    fn table2_expression_kinds() {
        // lcm: U1 = U2 * U3
        let lcm = Expr::Binary(BinaryOp::Mul, Box::new(u(1)), Box::new(u(2)));
        assert_eq!(lcm.kind().unwrap(), ElemKind::ColorMatrix);
        // upsi: psi1 = U1 * psi2
        let upsi = Expr::Binary(BinaryOp::Mul, Box::new(u(1)), Box::new(psi(2)));
        assert_eq!(upsi.kind().unwrap(), ElemKind::Fermion);
        // spmat: G1 = G2 * G3
        let g = |id| Expr::field(id, ElemKind::SpinMatrix, FloatType::F32);
        let spmat = Expr::Binary(BinaryOp::Mul, Box::new(g(1)), Box::new(g(2)));
        assert_eq!(spmat.kind().unwrap(), ElemKind::SpinMatrix);
        // matvec: psi0 = U1*psi1 + U1*psi2
        let matvec = Expr::Binary(
            BinaryOp::Add,
            Box::new(Expr::Binary(BinaryOp::Mul, Box::new(u(1)), Box::new(psi(2)))),
            Box::new(Expr::Binary(BinaryOp::Mul, Box::new(u(1)), Box::new(psi(3)))),
        );
        assert_eq!(matvec.kind().unwrap(), ElemKind::Fermion);
    }

    #[test]
    fn clover_apply_types() {
        let diag = FieldRef {
            id: 10,
            kind: ElemKind::CloverDiag,
            ft: FloatType::F64,
        };
        let tri = FieldRef {
            id: 11,
            kind: ElemKind::CloverTriang,
            ft: FloatType::F64,
        };
        let e = Expr::CloverApply {
            diag,
            tri,
            child: Box::new(psi(2)),
        };
        assert_eq!(e.kind().unwrap(), ElemKind::Fermion);
        assert_eq!(e.leaves().len(), 3);
    }

    #[test]
    fn illegal_expressions_rejected() {
        // fermion * fermion
        let bad = Expr::Binary(BinaryOp::Mul, Box::new(psi(1)), Box::new(psi(2)));
        assert!(bad.kind().is_err());
        // adj of a fermion
        let bad = Expr::Unary(UnaryOp::Adj, Box::new(psi(1)));
        assert!(bad.kind().is_err());
        // trace of a fermion
        let bad = Expr::Unary(UnaryOp::Trace, Box::new(psi(1)));
        assert!(bad.kind().is_err());
        // add mismatched kinds
        let bad = Expr::Binary(BinaryOp::Add, Box::new(u(1)), Box::new(psi(2)));
        assert!(bad.kind().is_err());
    }

    #[test]
    fn gamma_only_on_fermions() {
        let ok = Expr::GammaMul {
            gamma: Gamma::gamma_mu(1),
            child: Box::new(psi(1)),
        };
        assert_eq!(ok.kind().unwrap(), ElemKind::Fermion);
        let bad = Expr::GammaMul {
            gamma: Gamma::gamma_mu(1),
            child: Box::new(u(1)),
        };
        assert!(bad.kind().is_err());
    }

    #[test]
    fn mixed_precision_promotes() {
        let a = Expr::field(1, ElemKind::Fermion, FloatType::F32);
        let b = Expr::field(2, ElemKind::Fermion, FloatType::F64);
        let sum = Expr::Binary(BinaryOp::Add, Box::new(a.clone()), Box::new(b));
        assert_eq!(sum.float_type(), FloatType::F64);
        let same = Expr::Binary(BinaryOp::Add, Box::new(a.clone()), Box::new(a));
        assert_eq!(same.float_type(), FloatType::F32);
    }

    #[test]
    fn kernel_keys_ignore_scalar_values_and_ids() {
        // r = r - alpha * v with two different alphas and different fields
        let make = |alpha: f64, rid: u64, vid: u64| {
            Expr::Binary(
                BinaryOp::Sub,
                Box::new(psi(rid)),
                Box::new(Expr::Binary(
                    BinaryOp::Mul,
                    Box::new(Expr::real(alpha)),
                    Box::new(psi(vid)),
                )),
            )
        };
        let k1 = make(0.5, 1, 2).kernel_key();
        let k2 = make(-3.25, 7, 9).kernel_key();
        assert_eq!(k1, k2);
        // but a structurally different expression gets a new key
        let k3 = Expr::Binary(BinaryOp::Add, Box::new(psi(1)), Box::new(psi(2))).kernel_key();
        assert_ne!(k1, k3);
        // and scalar values are recoverable as parameters
        assert_eq!(make(0.5, 1, 2).scalar_values(), vec![(0.5, 0.0)]);
    }

    #[test]
    fn repeated_field_shares_kernel_slot() {
        // psi0 = U*psi1 + U*psi2: U appears twice, same slot in the key
        let e = Expr::Binary(
            BinaryOp::Add,
            Box::new(Expr::Binary(BinaryOp::Mul, Box::new(u(5)), Box::new(psi(6)))),
            Box::new(Expr::Binary(BinaryOp::Mul, Box::new(u(5)), Box::new(psi(7)))),
        );
        assert_eq!(e.leaves().len(), 3);
        assert!(e.kernel_key().contains("f0"));
    }

    #[test]
    fn nested_shift_detection() {
        let inner = Expr::Shift {
            mu: 1,
            dir: ShiftDir::Forward,
            child: Box::new(psi(1)),
        };
        let nested = Expr::Shift {
            mu: 0,
            dir: ShiftDir::Forward,
            child: Box::new(Expr::Binary(
                BinaryOp::Mul,
                Box::new(u(2)),
                Box::new(inner),
            )),
        };
        assert!(nested.has_nested_shift());
        assert!(!derivative_expr().has_nested_shift());
    }

    #[test]
    fn taproj_style_expression_types() {
        // 0.5*(M - adj(M)) - diagFill(trace(...)/3): the force projection
        let m = u(1);
        let anti = Expr::Binary(
            BinaryOp::Mul,
            Box::new(Expr::real(0.5)),
            Box::new(Expr::Binary(
                BinaryOp::Sub,
                Box::new(m.clone()),
                Box::new(Expr::Unary(UnaryOp::Adj, Box::new(m))),
            )),
        );
        let tr_part = Expr::Unary(
            UnaryOp::DiagFill,
            Box::new(Expr::Binary(
                BinaryOp::Mul,
                Box::new(Expr::real(1.0 / 3.0)),
                Box::new(Expr::Unary(UnaryOp::Trace, Box::new(anti.clone()))),
            )),
        );
        let taproj = Expr::Binary(BinaryOp::Sub, Box::new(anti), Box::new(tr_part));
        assert_eq!(taproj.kind().unwrap(), ElemKind::ColorMatrix);
    }

    #[test]
    fn local_reduction_ops() {
        let n2 = Expr::Unary(UnaryOp::LocalNorm2, Box::new(psi(1)));
        assert_eq!(n2.kind().unwrap(), ElemKind::Real);
        let ip = Expr::Binary(
            BinaryOp::LocalInnerProduct,
            Box::new(psi(1)),
            Box::new(psi(2)),
        );
        assert_eq!(ip.kind().unwrap(), ElemKind::Complex);
        let bad = Expr::Binary(
            BinaryOp::LocalInnerProduct,
            Box::new(psi(1)),
            Box::new(u(2)),
        );
        assert!(bad.kind().is_err());
    }
}
