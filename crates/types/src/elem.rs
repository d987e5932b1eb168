//! Runtime type metadata ([`TypeShape`]) and the site-element flattening
//! trait ([`LatticeElem`]).
//!
//! The code generator and the layout functions are driven by the *shape* of
//! a site element: the sizes of its spin (`IS`), color (`IC`) and reality
//! (`IR`) index domains from the paper's layout function (§III-B)
//!
//! ```text
//! I(iV,iS,iC,iR) = ((iR·IC + iC)·IS + iS)·IV + iV
//! ```
//!
//! and by its *semantic kind*, which tells the site-value algebra how the
//! components are to be interpreted (a 3×3 color matrix multiplies
//! differently than a spin-diagonal clover block).

use crate::clover_block::{CloverDiag, CloverTriang};
use crate::complex::Complex;
use crate::inner::{PMatrix, PScalar, PVector};
use crate::real::Real;
use crate::{ColorMatrix, Fermion, HalfFermion, SpinMatrix};

/// Semantic kind of a site element, used by codegen to pick the right
/// inner-level algebra.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ElemKind {
    /// `Lattice<Scalar<Scalar<Real>>>` — one real per site.
    Real,
    /// `Lattice<Scalar<Scalar<Complex>>>` — one complex per site.
    Complex,
    /// Table I `LatticeFermion` — spin-vector ⊗ color-vector ⊗ complex.
    Fermion,
    /// A spin-projected fermion (QDP++ `HalfFermion`): two spin components
    /// ⊗ color-vector ⊗ complex, what the Wilson hopping term multiplies
    /// by the link and shifts.
    HalfFermion,
    /// Table I `LatticeColorMatrix` — spin-scalar ⊗ color-matrix ⊗ complex.
    ColorMatrix,
    /// Table I `LatticeSpinMatrix` — spin-matrix ⊗ color-scalar ⊗ complex.
    SpinMatrix,
    /// Table I (lower part) — clover diagonal: 2 blocks × 6 reals.
    CloverDiag,
    /// Table I (lower part) — clover lower-triangular: 2 blocks × 15 complex.
    CloverTriang,
}

/// Shape of a site element: its index-domain sizes and semantic kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TypeShape {
    /// Semantic kind.
    pub kind: ElemKind,
    /// Spin index-domain size `IS` (1 for spin scalars, 16 for spin matrices
    /// flattened row-major, 2 for clover block index).
    pub is: usize,
    /// Color index-domain size `IC` (1 for color scalars, 9 for color
    /// matrices flattened row-major, 6/15 for packed clover).
    pub ic: usize,
    /// Reality index-domain size `IR` (2 for complex, 1 for real).
    pub ir: usize,
}

impl TypeShape {
    /// Shape of a given kind.
    pub fn of(kind: ElemKind) -> TypeShape {
        let (is, ic, ir) = match kind {
            ElemKind::Real => (1, 1, 1),
            ElemKind::Complex => (1, 1, 2),
            ElemKind::Fermion => (4, 3, 2),
            ElemKind::HalfFermion => (2, 3, 2),
            ElemKind::ColorMatrix => (1, 9, 2),
            ElemKind::SpinMatrix => (16, 1, 2),
            ElemKind::CloverDiag => (2, 6, 1),
            ElemKind::CloverTriang => (2, 15, 2),
        };
        TypeShape { kind, is, ic, ir }
    }

    /// Number of real numbers per site.
    #[inline]
    pub fn n_reals(&self) -> usize {
        self.is * self.ic * self.ir
    }

    /// Canonical component index of `(iS, iC, iR)` — the inner part of the
    /// paper's layout function.
    #[inline]
    pub fn comp_index(&self, i_s: usize, i_c: usize, i_r: usize) -> usize {
        debug_assert!(i_s < self.is && i_c < self.ic && i_r < self.ir);
        (i_r * self.ic + i_c) * self.is + i_s
    }

    /// Bytes per site at a given precision.
    #[inline]
    #[cfg(test)]
    fn site_bytes(&self, ft: crate::real::FloatType) -> usize {
        self.n_reals() * ft.size_bytes()
    }
}

/// A site element that can be flattened to and from a slice of reals in the
/// canonical component order.
pub trait LatticeElem<R: Real>: Copy + Default + Send + Sync + 'static {
    /// Shape of this element type.
    const SHAPE: TypeShape;

    /// Write the components into `out` (length `SHAPE.n_reals()`) in
    /// canonical component order.
    fn flatten(&self, out: &mut [R]);

    /// Read components from `data` in canonical component order.
    fn unflatten(data: &[R]) -> Self;
}

// --- Real ------------------------------------------------------------------

impl<R: Real> LatticeElem<R> for PScalar<PScalar<R>> {
    const SHAPE: TypeShape = TypeShape {
        kind: ElemKind::Real,
        is: 1,
        ic: 1,
        ir: 1,
    };
    fn flatten(&self, out: &mut [R]) {
        out[0] = self.0 .0;
    }
    fn unflatten(data: &[R]) -> Self {
        PScalar(PScalar(data[0]))
    }
}

// --- Complex ----------------------------------------------------------------

impl<R: Real> LatticeElem<R> for PScalar<PScalar<Complex<R>>> {
    const SHAPE: TypeShape = TypeShape {
        kind: ElemKind::Complex,
        is: 1,
        ic: 1,
        ir: 2,
    };
    fn flatten(&self, out: &mut [R]) {
        out[0] = self.0 .0.re;
        out[1] = self.0 .0.im;
    }
    fn unflatten(data: &[R]) -> Self {
        PScalar(PScalar(Complex::new(data[0], data[1])))
    }
}

// --- Fermion -----------------------------------------------------------------

impl<R: Real> LatticeElem<R> for Fermion<R> {
    const SHAPE: TypeShape = TypeShape {
        kind: ElemKind::Fermion,
        is: 4,
        ic: 3,
        ir: 2,
    };
    fn flatten(&self, out: &mut [R]) {
        let sh = Self::SHAPE;
        for s in 0..4 {
            for c in 0..3 {
                let z = self.0[s].0[c];
                out[sh.comp_index(s, c, 0)] = z.re;
                out[sh.comp_index(s, c, 1)] = z.im;
            }
        }
    }
    fn unflatten(data: &[R]) -> Self {
        let sh = Self::SHAPE;
        PVector::from_fn(|s| {
            PVector::from_fn(|c| {
                Complex::new(data[sh.comp_index(s, c, 0)], data[sh.comp_index(s, c, 1)])
            })
        })
    }
}

// --- HalfFermion ---------------------------------------------------------------

impl<R: Real> LatticeElem<R> for HalfFermion<R> {
    const SHAPE: TypeShape = TypeShape {
        kind: ElemKind::HalfFermion,
        is: 2,
        ic: 3,
        ir: 2,
    };
    fn flatten(&self, out: &mut [R]) {
        let sh = Self::SHAPE;
        for s in 0..2 {
            for c in 0..3 {
                let z = self.0[s].0[c];
                out[sh.comp_index(s, c, 0)] = z.re;
                out[sh.comp_index(s, c, 1)] = z.im;
            }
        }
    }
    fn unflatten(data: &[R]) -> Self {
        let sh = Self::SHAPE;
        PVector::from_fn(|s| {
            PVector::from_fn(|c| {
                Complex::new(data[sh.comp_index(s, c, 0)], data[sh.comp_index(s, c, 1)])
            })
        })
    }
}

// --- ColorMatrix --------------------------------------------------------------

impl<R: Real> LatticeElem<R> for ColorMatrix<R> {
    const SHAPE: TypeShape = TypeShape {
        kind: ElemKind::ColorMatrix,
        is: 1,
        ic: 9,
        ir: 2,
    };
    fn flatten(&self, out: &mut [R]) {
        let sh = Self::SHAPE;
        for i in 0..3 {
            for j in 0..3 {
                let z = self.0 .0[i][j];
                out[sh.comp_index(0, i * 3 + j, 0)] = z.re;
                out[sh.comp_index(0, i * 3 + j, 1)] = z.im;
            }
        }
    }
    fn unflatten(data: &[R]) -> Self {
        let sh = Self::SHAPE;
        PScalar(PMatrix::from_fn(|i, j| {
            Complex::new(
                data[sh.comp_index(0, i * 3 + j, 0)],
                data[sh.comp_index(0, i * 3 + j, 1)],
            )
        }))
    }
}

// --- SpinMatrix ----------------------------------------------------------------

impl<R: Real> LatticeElem<R> for SpinMatrix<R> {
    const SHAPE: TypeShape = TypeShape {
        kind: ElemKind::SpinMatrix,
        is: 16,
        ic: 1,
        ir: 2,
    };
    fn flatten(&self, out: &mut [R]) {
        let sh = Self::SHAPE;
        for i in 0..4 {
            for j in 0..4 {
                let z = self.0[i][j].0;
                out[sh.comp_index(i * 4 + j, 0, 0)] = z.re;
                out[sh.comp_index(i * 4 + j, 0, 1)] = z.im;
            }
        }
    }
    fn unflatten(data: &[R]) -> Self {
        let sh = Self::SHAPE;
        PMatrix::from_fn(|i, j| {
            PScalar(Complex::new(
                data[sh.comp_index(i * 4 + j, 0, 0)],
                data[sh.comp_index(i * 4 + j, 0, 1)],
            ))
        })
    }
}

// --- Clover (Table I lower part) --------------------------------------------

impl<R: Real> LatticeElem<R> for CloverDiag<R> {
    const SHAPE: TypeShape = TypeShape {
        kind: ElemKind::CloverDiag,
        is: 2,
        ic: 6,
        ir: 1,
    };
    fn flatten(&self, out: &mut [R]) {
        let sh = Self::SHAPE;
        for b in 0..2 {
            for d in 0..6 {
                out[sh.comp_index(b, d, 0)] = self.blocks[b][d];
            }
        }
    }
    fn unflatten(data: &[R]) -> Self {
        let sh = Self::SHAPE;
        CloverDiag {
            blocks: std::array::from_fn(|b| std::array::from_fn(|d| data[sh.comp_index(b, d, 0)])),
        }
    }
}

impl<R: Real> LatticeElem<R> for CloverTriang<R> {
    const SHAPE: TypeShape = TypeShape {
        kind: ElemKind::CloverTriang,
        is: 2,
        ic: 15,
        ir: 2,
    };
    fn flatten(&self, out: &mut [R]) {
        let sh = Self::SHAPE;
        for b in 0..2 {
            for t in 0..15 {
                let z = self.blocks[b][t];
                out[sh.comp_index(b, t, 0)] = z.re;
                out[sh.comp_index(b, t, 1)] = z.im;
            }
        }
    }
    fn unflatten(data: &[R]) -> Self {
        let sh = Self::SHAPE;
        CloverTriang {
            blocks: std::array::from_fn(|b| {
                std::array::from_fn(|t| {
                    Complex::new(data[sh.comp_index(b, t, 0)], data[sh.comp_index(b, t, 1)])
                })
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::real::FloatType;

    #[test]
    fn shapes_match_table_one() {
        // Table I: the five data types and their index-domain sizes.
        assert_eq!(TypeShape::of(ElemKind::Fermion).n_reals(), 24);
        assert_eq!(TypeShape::of(ElemKind::HalfFermion).n_reals(), 12);
        assert_eq!(TypeShape::of(ElemKind::ColorMatrix).n_reals(), 18);
        assert_eq!(TypeShape::of(ElemKind::SpinMatrix).n_reals(), 32);
        assert_eq!(TypeShape::of(ElemKind::CloverDiag).n_reals(), 12);
        assert_eq!(TypeShape::of(ElemKind::CloverTriang).n_reals(), 60);
        // clover term total per site = 12 + 60 reals = two 6×6 Hermitian
        // blocks (2 × (6 diag reals + 15 complex sub-diagonals)).
        assert_eq!(12 + 60, 2 * (6 + 15 * 2));
    }

    #[test]
    fn comp_index_matches_paper_formula() {
        let sh = TypeShape::of(ElemKind::Fermion);
        // c = (iR*IC + iC)*IS + iS
        assert_eq!(sh.comp_index(0, 0, 0), 0);
        assert_eq!(sh.comp_index(1, 0, 0), 1);
        assert_eq!(sh.comp_index(0, 1, 0), 4);
        assert_eq!(sh.comp_index(0, 0, 1), 12);
        assert_eq!(sh.comp_index(3, 2, 1), (1 * 3 + 2) * 4 + 3);
    }

    #[test]
    fn fermion_flatten_roundtrip() {
        let psi: Fermion<f64> = PVector::from_fn(|s| {
            PVector::from_fn(|c| Complex::new((s * 3 + c) as f64, -((s + c) as f64)))
        });
        let mut buf = [0.0f64; 24];
        psi.flatten(&mut buf);
        let back = Fermion::<f64>::unflatten(&buf);
        assert_eq!(psi, back);
    }

    #[test]
    fn colormatrix_flatten_roundtrip() {
        let u: ColorMatrix<f32> = PScalar(PMatrix::from_fn(|i, j| {
            Complex::new((i * 3 + j) as f32, 0.5 - j as f32)
        }));
        let mut buf = [0.0f32; 18];
        u.flatten(&mut buf);
        assert_eq!(u, ColorMatrix::<f32>::unflatten(&buf));
    }

    #[test]
    fn spinmatrix_flatten_roundtrip() {
        let g: SpinMatrix<f64> =
            PMatrix::from_fn(|i, j| PScalar(Complex::new(i as f64, j as f64)));
        let mut buf = [0.0f64; 32];
        g.flatten(&mut buf);
        assert_eq!(g, SpinMatrix::<f64>::unflatten(&buf));
    }

    #[test]
    fn site_bytes() {
        assert_eq!(
            TypeShape::of(ElemKind::Fermion).site_bytes(FloatType::F32),
            96
        );
        assert_eq!(
            TypeShape::of(ElemKind::Fermion).site_bytes(FloatType::F64),
            192
        );
    }
}
