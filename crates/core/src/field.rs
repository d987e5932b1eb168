//! Typed lattice containers and the operator-overloading expression layer.
//!
//! This is the QDP++ user-facing interface (paper §II-B): `Lattice<E>`
//! containers over the Table I site elements, infix expressions that are
//! implicitly data-parallel (`psi = u * phi` — no site loop), `shift`
//! operations (§II-C), and type aliases like [`LatticeFermion`]. The
//! phantom type parameter on [`QExpr`] gives the same static type checking
//! the C++ templates provide: `Fermion * Fermion` does not compile.

use crate::context::QdpContext;
use crate::eval::{self, CoreError, EvalReport};
use qdp_expr::{BinaryOp, Expr, FieldRef, ShiftDir, UnaryOp};
use qdp_layout::{FieldLayout, Subset};
use qdp_types::{
    CloverDiag, CloverTriang, ColorMatrix, Complex, ElemKind, Fermion, FloatType, Gamma,
    LatticeElem, PScalar, Real, SpinMatrix, TypeShape,
};
use std::marker::PhantomData;
use std::ops::{Add, Index, IndexMut, Mul, Neg, Sub};
use std::sync::Arc;

/// A real site element (`Lattice<Scalar<Scalar<Real>>>`).
pub type SiteReal<R> = PScalar<PScalar<R>>;
/// A complex site element (`Lattice<Scalar<Scalar<Complex>>>`).
pub type SiteComplex<R> = PScalar<PScalar<Complex<R>>>;

/// A site element usable in a [`Lattice`] container: ties the element type
/// to its precision and its runtime kind.
pub trait SiteElem: LatticeElem<<Self as SiteElem>::R> {
    /// Reality-level scalar type.
    type R: Real;
    /// Runtime element kind.
    const KIND: ElemKind;
}

// The scalar site kinds are implemented per concrete precision: a generic
// `impl<R: Real>` for both `PScalar<PScalar<R>>` and
// `PScalar<PScalar<Complex<R>>>` would overlap under coherence rules.
macro_rules! impl_site_scalar {
    ($R:ty) => {
        impl SiteElem for SiteReal<$R> {
            type R = $R;
            const KIND: ElemKind = ElemKind::Real;
        }
        impl SiteElem for SiteComplex<$R> {
            type R = $R;
            const KIND: ElemKind = ElemKind::Complex;
        }
    };
}
impl_site_scalar!(f32);
impl_site_scalar!(f64);

impl<R: Real> SiteElem for Fermion<R> {
    type R = R;
    const KIND: ElemKind = ElemKind::Fermion;
}
impl<R: Real> SiteElem for ColorMatrix<R> {
    type R = R;
    const KIND: ElemKind = ElemKind::ColorMatrix;
}
impl<R: Real> SiteElem for SpinMatrix<R> {
    type R = R;
    const KIND: ElemKind = ElemKind::SpinMatrix;
}
impl<R: Real> SiteElem for CloverDiag<R> {
    type R = R;
    const KIND: ElemKind = ElemKind::CloverDiag;
}
impl<R: Real> SiteElem for CloverTriang<R> {
    type R = R;
    const KIND: ElemKind = ElemKind::CloverTriang;
}

/// A data-parallel lattice container (QDP++ `OLattice`).
pub struct Lattice<E: SiteElem> {
    ctx: Arc<QdpContext>,
    id: u64,
    _m: PhantomData<E>,
}

/// Table I alias.
pub type LatticeFermion<R> = Lattice<Fermion<R>>;
/// Table I alias.
pub type LatticeColorMatrix<R> = Lattice<ColorMatrix<R>>;
/// Table I alias.
pub type LatticeSpinMatrix<R> = Lattice<SpinMatrix<R>>;
/// Real lattice field.
pub type LatticeReal<R> = Lattice<SiteReal<R>>;
/// Complex lattice field.
pub type LatticeComplex<R> = Lattice<SiteComplex<R>>;
/// Clover diagonal storage (Table I, lower part).
pub type LatticeCloverDiag<R> = Lattice<CloverDiag<R>>;
/// Clover triangle storage (Table I, lower part).
pub type LatticeCloverTriang<R> = Lattice<CloverTriang<R>>;

#[inline]
fn read_real(ft: FloatType, bytes: &[u8], idx: usize) -> f64 {
    match ft {
        FloatType::F32 => f32::from_le_bytes(bytes[idx..idx + 4].try_into().unwrap()) as f64,
        FloatType::F64 => f64::from_le_bytes(bytes[idx..idx + 8].try_into().unwrap()),
    }
}

#[inline]
fn write_real(ft: FloatType, bytes: &mut [u8], idx: usize, v: f64) {
    match ft {
        FloatType::F32 => bytes[idx..idx + 4].copy_from_slice(&(v as f32).to_le_bytes()),
        FloatType::F64 => bytes[idx..idx + 8].copy_from_slice(&v.to_le_bytes()),
    }
}

impl<E: SiteElem> Lattice<E> {
    /// Allocate a zero-initialised lattice field on the context.
    pub fn new(ctx: &Arc<QdpContext>) -> Lattice<E> {
        let shape = TypeShape::of(E::KIND);
        let bytes = ctx.geometry().vol() * shape.n_reals() * E::R::FLOAT_TYPE.size_bytes();
        let id = ctx.cache().register(bytes);
        Lattice {
            ctx: Arc::clone(ctx),
            id,
            _m: PhantomData,
        }
    }

    /// Allocate and fill from a function of the site index.
    pub fn from_fn(ctx: &Arc<QdpContext>, f: impl FnMut(usize) -> E) -> Lattice<E> {
        let l = Lattice::new(ctx);
        l.fill(f);
        l
    }

    /// The owning context.
    pub fn context(&self) -> &Arc<QdpContext> {
        &self.ctx
    }

    /// Field id in the memory cache.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Untyped field reference for AST building.
    pub fn fref(&self) -> FieldRef {
        FieldRef {
            id: self.id,
            kind: E::KIND,
            ft: E::R::FLOAT_TYPE,
        }
    }

    /// Leaf expression referring to this field.
    pub fn q(&self) -> QExpr<E> {
        QExpr(Expr::Field(self.fref()), PhantomData)
    }

    /// Read one site element (host access — pages the field out, §IV).
    pub fn get(&self, site: usize) -> E {
        let shape = TypeShape::of(E::KIND);
        let n = shape.n_reals();
        let vol = self.ctx.geometry().vol();
        let layout = FieldLayout::new(self.ctx.layout(), vol, n);
        let ft = E::R::FLOAT_TYPE;
        let esize = ft.size_bytes();
        self.ctx
            .cache()
            .with_host(self.id, |bytes| {
                let mut comps = vec![E::R::zero(); n];
                for (c, v) in comps.iter_mut().enumerate() {
                    let idx = layout.real_index(site, c) * esize;
                    *v = E::R::from_f64(read_real(ft, bytes, idx));
                }
                E::unflatten(&comps)
            })
            .expect("field disappeared from cache")
    }

    /// Write one site element (host access).
    pub fn set(&self, site: usize, elem: E) {
        let shape = TypeShape::of(E::KIND);
        let n = shape.n_reals();
        let vol = self.ctx.geometry().vol();
        let layout = FieldLayout::new(self.ctx.layout(), vol, n);
        let ft = E::R::FLOAT_TYPE;
        let esize = ft.size_bytes();
        let mut comps = vec![E::R::zero(); n];
        elem.flatten(&mut comps);
        self.ctx
            .cache()
            .with_host_mut(self.id, |bytes| {
                for (c, v) in comps.iter().enumerate() {
                    let idx = layout.real_index(site, c) * esize;
                    write_real(ft, bytes, idx, v.to_f64());
                }
            })
            .expect("field disappeared from cache");
    }

    /// Fill every site from a function of the site index (host access).
    pub fn fill(&self, mut f: impl FnMut(usize) -> E) {
        let shape = TypeShape::of(E::KIND);
        let n = shape.n_reals();
        let vol = self.ctx.geometry().vol();
        let layout = FieldLayout::new(self.ctx.layout(), vol, n);
        let ft = E::R::FLOAT_TYPE;
        let esize = ft.size_bytes();
        self.ctx
            .cache()
            .with_host_mut(self.id, |bytes| {
                let mut comps = vec![E::R::zero(); n];
                for site in 0..vol {
                    f(site).flatten(&mut comps);
                    for (c, v) in comps.iter().enumerate() {
                        let idx = layout.real_index(site, c) * esize;
                        write_real(ft, bytes, idx, v.to_f64());
                    }
                }
            })
            .expect("field disappeared from cache");
    }

    /// Snapshot all sites.
    pub fn to_vec(&self) -> Vec<E> {
        (0..self.ctx.geometry().vol())
            .map(|s| self.get(s))
            .collect()
    }

    /// Evaluate an expression into this field over the whole lattice
    /// (the data-parallel assignment `lhs = rhs`).
    pub fn assign(&self, rhs: QExpr<E>) -> Result<EvalReport, CoreError> {
        eval::eval(&self.ctx, self.fref(), &rhs.0, &eval::EvalParams::new())
    }

    /// Evaluate over a subset (`lhs[rb[cb]] = rhs`).
    pub fn assign_on(&self, subset: Subset, rhs: QExpr<E>) -> Result<EvalReport, CoreError> {
        eval::eval(
            &self.ctx,
            self.fref(),
            &rhs.0,
            &eval::EvalParams::new().subset(subset),
        )
    }

    /// Evaluate with explicit [`eval::EvalParams`] — site selection,
    /// stream, optimizer level. The stream-ordered route: assignments on
    /// different streams overlap on the simulated device.
    pub fn assign_with(
        &self,
        params: &eval::EvalParams<'_>,
        rhs: QExpr<E>,
    ) -> Result<EvalReport, CoreError> {
        eval::eval(&self.ctx, self.fref(), &rhs.0, params)
    }

    /// Evaluate on the CPU reference path ("original implementation").
    pub fn assign_reference(&self, rhs: QExpr<E>) -> Result<(), CoreError> {
        eval::eval_reference(&self.ctx, self.fref(), &rhs.0, Subset::All)
    }

    /// Reference evaluation over a subset.
    pub fn assign_reference_on(&self, subset: Subset, rhs: QExpr<E>) -> Result<(), CoreError> {
        eval::eval_reference(&self.ctx, self.fref(), &rhs.0, subset)
    }

    /// `‖ this ‖²` over a subset.
    pub fn norm2_on(&self, subset: Subset) -> Result<f64, CoreError> {
        eval::norm2(&self.ctx, &self.q().0, subset)
    }

    /// `‖ this ‖²` over the whole lattice.
    pub fn norm2(&self) -> Result<f64, CoreError> {
        self.norm2_on(Subset::All)
    }
}

impl<E: SiteElem> Drop for Lattice<E> {
    fn drop(&mut self) {
        self.ctx.cache().unregister(self.id);
    }
}

/// `multi1d`: QDP++'s convenience container bundling fields (e.g. the
/// gauge links in all `Nd` dimensions, paper Fig. 1).
pub struct Multi1d<T>(pub Vec<T>);

impl<T> Multi1d<T> {
    /// Build from a function of the index.
    pub fn from_fn(n: usize, f: impl FnMut(usize) -> T) -> Multi1d<T> {
        Multi1d((0..n).map(f).collect())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Is it empty?
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterate.
    pub fn iter(&self) -> std::slice::Iter<'_, T> {
        self.0.iter()
    }
}

impl<T> Index<usize> for Multi1d<T> {
    type Output = T;
    fn index(&self, i: usize) -> &T {
        &self.0[i]
    }
}

impl<T> IndexMut<usize> for Multi1d<T> {
    fn index_mut(&mut self, i: usize) -> &mut T {
        &mut self.0[i]
    }
}

// ---------------------------------------------------------------------------
// Typed expressions
// ---------------------------------------------------------------------------

/// A typed expression: the runtime AST plus a phantom element type that
/// makes illegal combinations fail to compile (QDP++-style static checks).
#[derive(Debug, Clone)]
pub struct QExpr<E>(pub Expr, pub PhantomData<E>);

impl<E: SiteElem> QExpr<E> {
    /// Wrap a raw AST (caller asserts the type).
    pub fn from_raw(e: Expr) -> QExpr<E> {
        QExpr(e, PhantomData)
    }

    /// The underlying AST.
    pub fn raw(&self) -> &Expr {
        &self.0
    }
}

impl<'a, E: SiteElem> From<&'a Lattice<E>> for QExpr<E> {
    fn from(l: &'a Lattice<E>) -> QExpr<E> {
        l.q()
    }
}

impl<E: SiteElem> Add for QExpr<E> {
    type Output = QExpr<E>;
    fn add(self, rhs: QExpr<E>) -> QExpr<E> {
        QExpr(
            Expr::Binary(BinaryOp::Add, Box::new(self.0), Box::new(rhs.0)),
            PhantomData,
        )
    }
}

impl<E: SiteElem> Sub for QExpr<E> {
    type Output = QExpr<E>;
    fn sub(self, rhs: QExpr<E>) -> QExpr<E> {
        QExpr(
            Expr::Binary(BinaryOp::Sub, Box::new(self.0), Box::new(rhs.0)),
            PhantomData,
        )
    }
}

impl<E: SiteElem> Neg for QExpr<E> {
    type Output = QExpr<E>;
    fn neg(self) -> QExpr<E> {
        QExpr(Expr::Unary(UnaryOp::Neg, Box::new(self.0)), PhantomData)
    }
}

/// Real scalar × expression.
impl<E: SiteElem> Mul<QExpr<E>> for f64 {
    type Output = QExpr<E>;
    fn mul(self, rhs: QExpr<E>) -> QExpr<E> {
        QExpr(
            Expr::Binary(BinaryOp::Mul, Box::new(Expr::real(self)), Box::new(rhs.0)),
            PhantomData,
        )
    }
}

/// Complex scalar × expression.
pub fn cscale<E: SiteElem>(z: Complex<f64>, rhs: QExpr<E>) -> QExpr<E> {
    QExpr(
        Expr::Binary(
            BinaryOp::Mul,
            Box::new(Expr::complex(z.re, z.im)),
            Box::new(rhs.0),
        ),
        PhantomData,
    )
}

macro_rules! impl_mul_generic {
    ($lhs:ty, $rhs:ty, $out:ty) => {
        impl<R: Real> Mul<QExpr<$rhs>> for QExpr<$lhs> {
            type Output = QExpr<$out>;
            fn mul(self, rhs: QExpr<$rhs>) -> QExpr<$out> {
                QExpr(
                    Expr::Binary(BinaryOp::Mul, Box::new(self.0), Box::new(rhs.0)),
                    PhantomData,
                )
            }
        }
    };
}

macro_rules! impl_mul_concrete {
    ($lhs:ty, $rhs:ty, $out:ty) => {
        impl Mul<QExpr<$rhs>> for QExpr<$lhs> {
            type Output = QExpr<$out>;
            fn mul(self, rhs: QExpr<$rhs>) -> QExpr<$out> {
                QExpr(
                    Expr::Binary(BinaryOp::Mul, Box::new(self.0), Box::new(rhs.0)),
                    PhantomData,
                )
            }
        }
    };
}

impl_mul_generic!(ColorMatrix<R>, ColorMatrix<R>, ColorMatrix<R>);
impl_mul_generic!(ColorMatrix<R>, Fermion<R>, Fermion<R>);
impl_mul_generic!(SpinMatrix<R>, SpinMatrix<R>, SpinMatrix<R>);
impl_mul_generic!(SpinMatrix<R>, Fermion<R>, Fermion<R>);
macro_rules! impl_scalar_muls {
    ($R:ty) => {
        impl_mul_concrete!(SiteComplex<$R>, SiteComplex<$R>, SiteComplex<$R>);
        impl_mul_concrete!(SiteReal<$R>, SiteReal<$R>, SiteReal<$R>);
        impl_mul_concrete!(SiteComplex<$R>, ColorMatrix<$R>, ColorMatrix<$R>);
        impl_mul_concrete!(SiteComplex<$R>, Fermion<$R>, Fermion<$R>);
        impl MatrixLike for SiteComplex<$R> {}
    };
}
impl_scalar_muls!(f32);
impl_scalar_muls!(f64);

/// Marker: kinds with a Hermitian adjoint.
pub trait MatrixLike: SiteElem {}
impl<R: Real> MatrixLike for ColorMatrix<R> {}
impl<R: Real> MatrixLike for SpinMatrix<R> {}

/// Hermitian adjoint (paper Fig. 1's `adj`).
pub fn adj<E: MatrixLike>(q: QExpr<E>) -> QExpr<E> {
    QExpr(Expr::Unary(UnaryOp::Adj, Box::new(q.0)), PhantomData)
}

/// Plain transpose.
pub fn transpose<E: MatrixLike>(q: QExpr<E>) -> QExpr<E> {
    QExpr(Expr::Unary(UnaryOp::Transpose, Box::new(q.0)), PhantomData)
}

/// Complex conjugation without transposition.
pub fn conj<E: MatrixLike>(q: QExpr<E>) -> QExpr<E> {
    QExpr(Expr::Unary(UnaryOp::Conj, Box::new(q.0)), PhantomData)
}

/// Color trace of a color matrix.
pub fn trace<R: Real>(q: QExpr<ColorMatrix<R>>) -> QExpr<SiteComplex<R>> {
    QExpr(Expr::Unary(UnaryOp::Trace, Box::new(q.0)), PhantomData)
}

/// Spin trace of a spin matrix.
pub fn trace_spin<R: Real>(q: QExpr<SpinMatrix<R>>) -> QExpr<SiteComplex<R>> {
    QExpr(Expr::Unary(UnaryOp::Trace, Box::new(q.0)), PhantomData)
}

/// Real part.
pub fn real<R: Real>(q: QExpr<SiteComplex<R>>) -> QExpr<SiteReal<R>> {
    QExpr(Expr::Unary(UnaryOp::RealPart, Box::new(q.0)), PhantomData)
}

/// Imaginary part.
pub fn imag<R: Real>(q: QExpr<SiteComplex<R>>) -> QExpr<SiteReal<R>> {
    QExpr(Expr::Unary(UnaryOp::ImagPart, Box::new(q.0)), PhantomData)
}

/// Multiply by `i`.
pub fn times_i<E: SiteElem>(q: QExpr<E>) -> QExpr<E> {
    QExpr(Expr::Unary(UnaryOp::TimesI, Box::new(q.0)), PhantomData)
}

/// Multiply by `−i`.
pub fn times_minus_i<E: SiteElem>(q: QExpr<E>) -> QExpr<E> {
    QExpr(Expr::Unary(UnaryOp::TimesMinusI, Box::new(q.0)), PhantomData)
}

/// Matrix exponential of a color-matrix expression (HMC link update).
pub fn expm<R: Real>(q: QExpr<ColorMatrix<R>>) -> QExpr<ColorMatrix<R>> {
    QExpr(Expr::Unary(UnaryOp::ExpM, Box::new(q.0)), PhantomData)
}

/// Diagonal fill: `z·1` in color space.
pub fn diag_fill<R: Real>(q: QExpr<SiteComplex<R>>) -> QExpr<ColorMatrix<R>> {
    QExpr(Expr::Unary(UnaryOp::DiagFill, Box::new(q.0)), PhantomData)
}

/// `shift(expr, mu, dir)` — the stencil building block (paper §II-C,
/// Fig. 1): the value at `x` is `expr` evaluated at the displaced site.
pub fn shift<E: SiteElem>(q: QExpr<E>, mu: usize, dir: ShiftDir) -> QExpr<E> {
    QExpr(
        Expr::Shift {
            mu,
            dir,
            child: Box::new(q.0),
        },
        PhantomData,
    )
}

/// A gamma-matrix factor: `gamma(n) * psi` (QDP++ `Gamma(n) * psi`).
#[derive(Debug, Clone, Copy)]
pub struct GammaFactor(pub Gamma);

/// QDP++ `Gamma(n)`.
pub fn gamma(n: usize) -> GammaFactor {
    GammaFactor(Gamma::from_index(n))
}

/// `γ_µ` directly.
pub fn gamma_mu(mu: usize) -> GammaFactor {
    GammaFactor(Gamma::gamma_mu(mu))
}

impl<R: Real> Mul<QExpr<Fermion<R>>> for GammaFactor {
    type Output = QExpr<Fermion<R>>;
    fn mul(self, rhs: QExpr<Fermion<R>>) -> QExpr<Fermion<R>> {
        QExpr(
            Expr::GammaMul {
                gamma: self.0,
                child: Box::new(rhs.0),
            },
            PhantomData,
        )
    }
}

/// Spin-traced color outer product `A_ij = Σ_s x_{s,i}·conj(y_{s,j})`
/// (QDP++ `traceSpin(outerProduct(x, y))`) — the building block of the
/// fermion force terms.
pub fn outer_color<R: Real>(
    x: QExpr<Fermion<R>>,
    y: QExpr<Fermion<R>>,
) -> QExpr<ColorMatrix<R>> {
    QExpr(
        Expr::Binary(BinaryOp::ColorOuter, Box::new(x.0), Box::new(y.0)),
        PhantomData,
    )
}

/// The clover term `A·ψ` (paper §VI-A).
pub fn clover_mul<R: Real>(
    diag: &Lattice<CloverDiag<R>>,
    tri: &Lattice<CloverTriang<R>>,
    psi: QExpr<Fermion<R>>,
) -> QExpr<Fermion<R>> {
    QExpr(
        Expr::CloverApply {
            diag: diag.fref(),
            tri: tri.fref(),
            child: Box::new(psi.0),
        },
        PhantomData,
    )
}

/// `‖expr‖²` over a subset.
pub fn reduce_norm2<E: SiteElem>(
    ctx: &QdpContext,
    q: &QExpr<E>,
    subset: Subset,
) -> Result<f64, CoreError> {
    eval::norm2(ctx, &q.0, subset)
}

/// `⟨a, b⟩` over a subset.
pub fn reduce_inner_product<E: SiteElem>(
    ctx: &QdpContext,
    a: &QExpr<E>,
    b: &QExpr<E>,
    subset: Subset,
) -> Result<Complex<f64>, CoreError> {
    let (re, im) = eval::inner_product(ctx, &a.0, &b.0, subset)?;
    Ok(Complex::new(re, im))
}

/// `Σ_x expr(x)` for a real expression.
pub fn reduce_sum_real<R: Real>(
    ctx: &QdpContext,
    q: &QExpr<SiteReal<R>>,
    subset: Subset,
) -> Result<f64, CoreError> {
    eval::sum_real(ctx, &q.0, subset)
}

/// `Σ_x expr(x)` for a complex expression.
pub fn reduce_sum_complex<R: Real>(
    ctx: &QdpContext,
    q: &QExpr<SiteComplex<R>>,
    subset: Subset,
) -> Result<Complex<f64>, CoreError> {
    let (re, im) = eval::sum_complex(ctx, &q.0, subset)?;
    Ok(Complex::new(re, im))
}
