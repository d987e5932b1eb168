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
//! * all of the above from **one traversal** ([`KernelSignature::of`]) — a
//!   statement is walked once, when it is recorded, and the walk yields the
//!   key as an exact token sequence together with the leaf table, shift
//!   list, scalars and the leaves each shift reads. A group's signature is
//!   its statements' signatures concatenated ([`KernelSignature::append`]),
//!   with no walk. The tokens are the key's only form: the kernel cache
//!   compares them and a kernel is named after their hash;
//! * short-circuiting **predicates** ([`Expr::float_type`],
//!   [`Expr::has_shift`], [`Expr::reads_under_shift`],
//!   [`Expr::has_nested_shift`]) — one walk each that allocates nothing and
//!   stops at the first hit; the last three are independent references the
//!   signature tests check a recorded [`KernelSignature`] against;
//! * **type inference** ([`Expr::shape`]) — result kinds follow the QDP++
//!   multiplication rules for the nested spin ⊗ color ⊗ complex types.

use qdp_types::{ElemKind, FloatType, Gamma, SpinProjector, TypeShape};

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
    /// Chroma's `spinProjectDir`: the half spinor holding the two
    /// independent spin rows of `(1 ± γ_µ)·child` (child must be fermion
    /// kind).
    SpinProject {
        /// The projector, its rows derived from `γ_µ`.
        proj: SpinProjector,
        /// Fermion subexpression.
        child: Box<Expr>,
    },
    /// Chroma's `spinReconstructDir`: the fermion `(1 ± γ_µ)ψ` rebuilt
    /// from its half spinor (child must be half-fermion kind).
    SpinReconstruct {
        /// The projector the half spinor came from.
        proj: SpinProjector,
        /// Half-fermion subexpression.
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
            Expr::SpinProject { child, .. } => match child.kind()? {
                ElemKind::Fermion => Ok(ElemKind::HalfFermion),
                other => Err(err(format!("spinProject of {other:?}"))),
            },
            Expr::SpinReconstruct { child, .. } => match child.kind()? {
                ElemKind::HalfFermion => Ok(ElemKind::Fermion),
                other => Err(err(format!("spinReconstruct of {other:?}"))),
            },
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
        if self.any_node(&mut |e, _| e.reads().any(|r| r.ft == FloatType::F64)) {
            FloatType::F64
        } else {
            FloatType::F32
        }
    }

    /// All referenced fields in visiting order, deduplicated — what the
    /// memory cache pages in before the launch (§IV).
    pub fn leaves(&self) -> Vec<FieldRef> {
        KernelSignature::of(self).leaves
    }

    /// The node's subexpressions, in visiting order.
    fn children(&self) -> [Option<&Expr>; 2] {
        match self {
            Expr::Field(_) | Expr::Scalar { .. } => [None, None],
            Expr::Binary(_, a, b) => [Some(a), Some(b)],
            Expr::Unary(_, child)
            | Expr::Shift { child, .. }
            | Expr::GammaMul { child, .. }
            | Expr::SpinProject { child, .. }
            | Expr::SpinReconstruct { child, .. }
            | Expr::CloverApply { child, .. } => [Some(child), None],
        }
    }

    /// The fields the node itself reads (not its subexpressions'), in
    /// visiting order.
    fn reads(&self) -> impl Iterator<Item = &FieldRef> {
        let refs = match self {
            Expr::Field(r) => [Some(r), None],
            Expr::CloverApply { diag, tri, .. } => [Some(diag), Some(tri)],
            _ => [None, None],
        };
        refs.into_iter().flatten()
    }

    /// Does `hit` hold at some node? Nodes are visited in key order, each
    /// with the number of shift nodes above it, and the walk stops at the
    /// first hit. Nothing is allocated.
    fn any_node(&self, hit: &mut impl FnMut(&Expr, usize) -> bool) -> bool {
        fn go(e: &Expr, shifts: usize, hit: &mut impl FnMut(&Expr, usize) -> bool) -> bool {
            if hit(e, shifts) {
                return true;
            }
            let below = shifts + usize::from(matches!(e, Expr::Shift { .. }));
            e.children()
                .into_iter()
                .flatten()
                .any(|c| go(c, below, hit))
        }
        go(self, 0, hit)
    }

    /// Does the expression contain a shift `(mu, dir)` that `pick` selects?
    /// A short-circuiting [`Expr::shifts`] query: e.g. "does this statement
    /// shift along a rank-split dimension".
    pub fn has_shift(&self, pick: impl Fn(usize, ShiftDir) -> bool) -> bool {
        self.any_node(&mut |e, _| matches!(e, Expr::Shift { mu, dir, .. } if pick(*mu, *dir)))
    }

    /// Does the expression read field `id` under a shift? A
    /// short-circuiting [`Expr::leaves_under_any_shift`] query for one
    /// field — e.g. a statement's own target, which then needs a temporary.
    pub fn reads_under_shift(&self, id: u64) -> bool {
        self.any_node(&mut |e, shifts| shifts > 0 && e.reads().any(|r| r.id == id))
    }

    /// The field leaves read under *any* shift, whatever its direction —
    /// deduplicated, in visiting order. The fusion planner's hazard set: a
    /// shifted read observes neighbouring sites, so it must never read a
    /// field written earlier in the same fused kernel (another thread may
    /// not have produced that site yet).
    pub fn leaves_under_any_shift(&self) -> Vec<FieldRef> {
        KernelSignature::of(self).hazards().collect()
    }

    /// All shift `(mu, dir)` pairs in the expression, deduplicated — what
    /// the communication layer exchanges (§V).
    pub fn shifts(&self) -> Vec<(usize, ShiftDir)> {
        KernelSignature::of(self).shifts
    }

    /// Does the expression contain a shift of a shift ("next-to-nearest
    /// neighbour")? The paper's overlap implementation excludes these
    /// (§V: inner-most shifts execute non-overlapping). One walk that
    /// counts the shifts above each node.
    pub fn has_nested_shift(&self) -> bool {
        self.any_node(&mut |e, shifts| shifts > 0 && matches!(e, Expr::Shift { .. }))
    }

    /// Structural key, the tokens of [`KernelSignature::of`]: identical
    /// keys ⇒ identical generated kernels. Field identities are replaced by
    /// their position in visiting order, scalar values are elided (they are
    /// parameters), so e.g. every CG iteration's `r = r - alpha*v` maps to
    /// one kernel.
    pub fn kernel_key(&self) -> Vec<u32> {
        KernelSignature::of(self).tokens
    }
}

/// What a statement — or a kernel's group of statements — contributes to
/// the kernel's identity and to its launch, derived by **one** traversal
/// per statement ([`KernelSignature::of`]): the structural key as tokens,
/// with field leaves numbered in the statement's own leaf table, and in
/// the same pass the leaf table, shift list, scalars, the leaves each
/// shift reads and whether any shift nests. A group is the concatenation
/// of its statements' signatures ([`KernelSignature::append`]): tables
/// merge, and each statement's tokens are followed by the map from its
/// leaf slots to the group's, so two groups share a key only when every
/// statement reads the same group slots — `{r = a+b; t = 2*a}` and
/// `{r = a+b; t = 2*b}` differ. The tokens are the key's only form; the
/// per-expression walkers of [`Expr`] are views of a group of one.
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
    /// The structural key, exactly: each statement's nodes in preorder, a
    /// tag word per node followed by its operand words (leaf slots, `mu`,
    /// gamma columns), leaves numbered in the statement's own table — and,
    /// in a group built by [`KernelSignature::append`], each statement's
    /// nodes followed by its leaf map into [`KernelSignature::leaves`].
    /// Equal tokens ⇔ equal structure, leaf for leaf.
    pub tokens: Vec<u32>,
    /// `(shift, leaf)` index pairs into `shifts` and `leaves`: every leaf
    /// read below each shift, deduplicated per shift, in visiting order —
    /// the slabs of a face message (§V) and the fusion planner's hazards.
    pub shifted: Vec<(u32, u32)>,
    /// Some shift lies below another ("next-to-nearest neighbour"), which
    /// the halo schedule materialises first (§V).
    pub nested_shift: bool,
}

impl KernelSignature {
    /// The signature of the single statement `expr`: the one walk.
    pub fn of(expr: &Expr) -> KernelSignature {
        // Sized for a Wilson dslash (106 tokens, 5 leaves, 8 shifts), so
        // the walk allocates each table it needs once; a statement without
        // shifts or scalars allocates no table for them.
        let mut sig = KernelSignature {
            tokens: Vec::with_capacity(128),
            leaves: Vec::with_capacity(8),
            ..KernelSignature::default()
        };
        sig.walk(expr, &mut Vec::new());
        sig
    }

    /// Append one statement's signature (from [`KernelSignature::of`]) to
    /// this group without walking anything: leaves and shifts merge, scalars
    /// concatenate, and the tokens gain the statement's tokens and its leaf
    /// map, which is returned — for each statement slot, the group slot.
    pub fn append(&mut self, stmt: &KernelSignature) -> &[u32] {
        self.tokens.reserve(stmt.tokens.len() + stmt.leaves.len());
        self.leaves.reserve(stmt.leaves.len());
        self.shifts.reserve(stmt.shifts.len());
        self.shifted.reserve(stmt.shifted.len());
        self.scalars.reserve(stmt.scalars.len());
        self.scalar_complex.reserve(stmt.scalar_complex.len());
        self.tokens.extend_from_slice(&stmt.tokens);
        let map_at = self.tokens.len();
        for leaf in &stmt.leaves {
            let slot = self.slot(leaf);
            self.tokens.push(slot);
        }
        for sh in &stmt.shifts {
            if !self.shifts.contains(sh) {
                self.shifts.push(*sh);
            }
        }
        for &(s, l) in &stmt.shifted {
            let sh = stmt.shifts[s as usize];
            let s = self.shifts.iter().position(|&x| x == sh);
            let pair = (word(s.expect("merged above")), self.tokens[map_at + l as usize]);
            if !self.shifted.contains(&pair) {
                self.shifted.push(pair);
            }
        }
        self.nested_shift |= stmt.nested_shift;
        self.scalars.extend_from_slice(&stmt.scalars);
        self.scalar_complex.extend_from_slice(&stmt.scalar_complex);
        &self.tokens[map_at..]
    }

    /// The precision the leaves promote to: F64 if any is F64 (§III-D);
    /// scalars don't promote.
    pub fn float_type(&self) -> FloatType {
        if self.leaves.iter().any(|l| l.ft == FloatType::F64) {
            FloatType::F64
        } else {
            FloatType::F32
        }
    }

    /// The leaves read under any shift, deduplicated, in visiting order.
    pub fn hazards(&self) -> impl Iterator<Item = FieldRef> + '_ {
        let seen = |i: usize, l: u32| self.shifted[..i].iter().any(|&(_, m)| m == l);
        self.shifted
            .iter()
            .enumerate()
            .filter(move |&(i, &(_, l))| !seen(i, l))
            .map(|(_, &(_, l))| self.leaves[l as usize])
    }

    /// The leaves read under shift `(mu, dir)`, deduplicated, in visiting
    /// order — what a halo exchange for that shift must move (§V).
    pub fn leaves_under(&self, mu: usize, dir: ShiftDir) -> impl Iterator<Item = FieldRef> + '_ {
        let s = self.shifts.iter().position(|&x| x == (mu, dir)).map(word);
        self.shifted
            .iter()
            .filter(move |&&(t, _)| Some(t) == s)
            .map(|&(_, l)| self.leaves[l as usize])
    }

    /// `r`'s slot in the leaf table, appending it on first sight.
    fn slot(&mut self, r: &FieldRef) -> u32 {
        let known = self.leaves.iter().position(|l| l.id == r.id);
        word(known.unwrap_or_else(|| {
            self.leaves.push(*r);
            self.leaves.len() - 1
        }))
    }

    /// Read `r` below the shifts `above` (indices into `shifts`): its slot.
    fn read(&mut self, r: &FieldRef, above: &[u32]) -> u32 {
        let slot = self.slot(r);
        for &s in above {
            if !self.shifted.contains(&(s, slot)) {
                self.shifted.push((s, slot));
            }
        }
        slot
    }

    /// The one walker: a tag word per node, then its operand words.
    fn walk(&mut self, e: &Expr, above: &mut Vec<u32>) {
        match e {
            Expr::Field(r) => {
                let slot = self.read(r, above);
                let kind_ft = r.kind as u32 | (r.ft as u32) << 4;
                self.tokens.extend([tag::FIELD | kind_ft << 8, slot]);
            }
            Expr::Scalar { re, im, complex } => {
                self.scalars.push((*re, *im));
                self.scalar_complex.push(*complex);
                self.tokens.push(tag::SCALAR | u32::from(*complex) << 8);
            }
            Expr::Unary(op, c) => {
                self.tokens.push(tag::UNARY | (*op as u32) << 8);
                self.walk(c, above);
            }
            Expr::Binary(op, a, b) => {
                self.tokens.push(tag::BINARY | (*op as u32) << 8);
                self.walk(a, above);
                self.walk(b, above);
            }
            Expr::Shift { mu, dir, child } => {
                if self.shifts.is_empty() {
                    self.shifts.reserve(8);
                    self.shifted.reserve(16);
                    above.reserve(4);
                }
                self.nested_shift |= !above.is_empty();
                let s = self.shifts.iter().position(|&x| x == (*mu, *dir));
                let s = word(s.unwrap_or_else(|| {
                    self.shifts.push((*mu, *dir));
                    self.shifts.len() - 1
                }));
                self.tokens.extend([tag::SHIFT | (*dir as u32) << 8, word(*mu)]);
                above.push(s);
                self.walk(child, above);
                above.pop();
            }
            Expr::GammaMul { gamma, child } => {
                let phases = (0..4).map(|r| (gamma.phase[r] as u32) << (2 * r)).sum::<u32>();
                let cols = u32::from_le_bytes(gamma.col);
                self.tokens.extend([tag::GAMMA | phases << 8, cols]);
                self.walk(child, above);
            }
            Expr::SpinProject { proj, child } | Expr::SpinReconstruct { proj, child } => {
                let tag = match e {
                    Expr::SpinProject { .. } => tag::PROJECT,
                    _ => tag::RECONSTRUCT,
                };
                self.tokens.extend([tag | (proj.sign as u32) << 8, word(proj.mu)]);
                self.walk(child, above);
            }
            Expr::CloverApply { diag, tri, child } => {
                let (d, t) = (self.read(diag, above), self.read(tri, above));
                self.tokens.extend([tag::CLOVER, d, t]);
                self.walk(child, above);
            }
        }
    }
}

/// The tag in the low byte of a node's first token word; the rest of the
/// word holds the node's small operands (kind and precision, op, direction,
/// sign, phases).
mod tag {
    pub const FIELD: u32 = 0;
    pub const SCALAR: u32 = 1;
    pub const UNARY: u32 = 2;
    pub const BINARY: u32 = 3;
    pub const SHIFT: u32 = 4;
    pub const GAMMA: u32 = 5;
    pub const PROJECT: u32 = 6;
    pub const RECONSTRUCT: u32 = 7;
    pub const CLOVER: u32 = 8;
}

/// A slot, `mu` or index as one token word.
fn word(n: usize) -> u32 {
    u32::try_from(n).expect("a key number fits in 32 bits")
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
        (ColorMatrix, HalfFermion) => HalfFermion,
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
    fn projector_pair_types_and_keys() {
        use qdp_types::{ProjSign, SpinProjector};
        let proj = |mu, sign, child| Expr::SpinProject {
            proj: SpinProjector::new(mu, sign),
            child: Box::new(child),
        };
        let recon = |mu, sign, child| Expr::SpinReconstruct {
            proj: SpinProjector::new(mu, sign),
            child: Box::new(child),
        };
        let h = proj(1, ProjSign::Minus, psi(1));
        assert_eq!(h.kind().unwrap(), ElemKind::HalfFermion);
        // U·h and a shifted half spinor stay half spinors
        let uh = Expr::Binary(BinaryOp::Mul, Box::new(u(2)), Box::new(h.clone()));
        assert_eq!(uh.kind().unwrap(), ElemKind::HalfFermion);
        let shifted = Expr::Shift {
            mu: 1,
            dir: ShiftDir::Forward,
            child: Box::new(uh),
        };
        let full = recon(1, ProjSign::Minus, shifted);
        assert_eq!(full.kind().unwrap(), ElemKind::Fermion);
        assert_eq!(full.leaves().len(), 2);
        assert_eq!(full.shifts(), vec![(1, ShiftDir::Forward)]);
        // the projector is part of the kernel's identity
        assert_ne!(
            recon(1, ProjSign::Plus, proj(1, ProjSign::Plus, psi(1))).kernel_key(),
            recon(1, ProjSign::Minus, proj(1, ProjSign::Minus, psi(1))).kernel_key()
        );
        assert_ne!(
            proj(0, ProjSign::Plus, psi(1)).kernel_key(),
            proj(2, ProjSign::Plus, psi(1)).kernel_key()
        );
        // only fermions project, only half spinors reconstruct
        assert!(proj(0, ProjSign::Plus, u(1)).kind().is_err());
        assert!(proj(0, ProjSign::Plus, h).kind().is_err());
        assert!(recon(0, ProjSign::Plus, psi(1)).kind().is_err());
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
        let other = Expr::Binary(
            BinaryOp::Add,
            Box::new(Expr::Binary(BinaryOp::Mul, Box::new(u(5)), Box::new(psi(6)))),
            Box::new(Expr::Binary(BinaryOp::Mul, Box::new(u(8)), Box::new(psi(7)))),
        );
        assert_ne!(e.kernel_key(), other.kernel_key());
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

        let shifted = |mu, child: Expr| Expr::Shift {
            mu,
            dir: ShiftDir::Backward,
            child: Box::new(child),
        };
        let clover = |child: Expr| Expr::CloverApply {
            diag: FieldRef {
                id: 10,
                kind: ElemKind::CloverDiag,
                ft: FloatType::F64,
            },
            tri: FieldRef {
                id: 11,
                kind: ElemKind::CloverTriang,
                ft: FloatType::F64,
            },
            child: Box::new(child),
        };
        // A shift inside a clover apply nests only under an outer shift.
        assert!(!clover(shifted(2, psi(1))).has_nested_shift());
        assert!(shifted(3, clover(shifted(2, psi(1)))).has_nested_shift());
        assert!(!shifted(3, clover(psi(1))).has_nested_shift());
        // Shifts in both operands of a product are siblings, not nested —
        // under a shift, a shift in either operand nests.
        let product = |a, b| Expr::Binary(BinaryOp::Mul, Box::new(a), Box::new(b));
        assert!(!product(shifted(0, u(2)), shifted(1, psi(1))).has_nested_shift());
        assert!(shifted(3, product(u(2), shifted(1, psi(1)))).has_nested_shift());
        assert!(shifted(3, product(shifted(0, u(2)), psi(1))).has_nested_shift());
        assert!(!shifted(3, product(u(2), psi(1))).has_nested_shift());
    }

    #[test]
    fn predicates_short_circuit_the_walks() {
        let e = derivative_expr();
        assert_eq!(e.float_type(), FloatType::F64);
        assert!(e.has_shift(|mu, dir| mu == 0 && dir == ShiftDir::Backward));
        assert!(!e.has_shift(|mu, _| mu == 1));
        // psi and u are read under a shift; field 3 is not read at all.
        assert!(e.reads_under_shift(2) && e.reads_under_shift(1));
        assert!(!e.reads_under_shift(3));
        let flat = Expr::Binary(BinaryOp::Mul, Box::new(u(1)), Box::new(psi(2)));
        assert!(!flat.reads_under_shift(1) && !flat.has_shift(|_, _| true));
        let sp = Expr::field(4, ElemKind::Fermion, FloatType::F32);
        assert_eq!(sp.float_type(), FloatType::F32);
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
