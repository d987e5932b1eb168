//! # qdp-types — nested QCD data-type algebra
//!
//! QDP++ composes its data types from four levels named after the QCD index
//! spaces (paper §II-B):
//!
//! ```text
//! Lattice ⊗ Spin ⊗ Color ⊗ Complex
//! ```
//!
//! This crate implements everything *below* the `Lattice` level: the complex
//! reality level, the inner-level building blocks (`PScalar`, `PVector`,
//! `PMatrix` — QDP++'s `Scalar`, `Vector`, `Matrix` class templates), the
//! Table I type aliases (`Fermion`, `ColorMatrix`, `SpinMatrix`, and the
//! packed clover storage types), SU(3) group utilities, and the Dirac gamma
//! matrices in the DeGrand–Rossi basis used by Chroma.
//!
//! Site elements know how to flatten themselves to a real-number vector in
//! the *canonical component order* used by the paper's coalesced layout
//! function `I(iV,iS,iC,iR) = ((iR·IC + iC)·IS + iS)·IV + iV` (§III-B): the
//! component index of a site element is `c(iS,iC,iR) = (iR·IC + iC)·IS + iS`.

pub mod clover_block;
pub mod complex;
pub mod elem;
pub mod gamma;
pub mod inner;
pub mod real;
pub mod su3;

pub use clover_block::{CloverBlockPacked, CloverDiag, CloverTriang};
pub use complex::Complex;
pub use elem::{LatticeElem, TypeShape};
pub use gamma::{Gamma, Phase, ProjSign, SpinProjector};
pub use inner::{PMatrix, PScalar, PVector};
pub use real::{FloatType, Real};
pub use elem::ElemKind;

/// A 3-component color vector of complex numbers (innermost two levels of a
/// fermion).
pub type ColorVector<R> = PVector<Complex<R>, 3>;

/// A lattice fermion site element: spin-vector ⊗ color-vector ⊗ complex
/// (Table I, `LatticeFermion`).
pub type Fermion<R> = PVector<ColorVector<R>, 4>;

/// A spin-projected fermion: the two independent spin components of
/// `(1 ± γ_µ)ψ` (QDP++ `HalfFermion`).
pub type HalfFermion<R> = PVector<ColorVector<R>, 2>;

/// A gauge-link site element: spin-scalar ⊗ color-matrix ⊗ complex
/// (Table I, `LatticeColorMatrix`).
pub type ColorMatrix<R> = PScalar<PMatrix<Complex<R>, 3>>;

/// A spin-matrix site element: spin-matrix ⊗ color-scalar ⊗ complex
/// (Table I, `LatticeSpinMatrix`).
pub type SpinMatrix<R> = PMatrix<PScalar<Complex<R>>, 4>;

/// Number of spacetime dimensions (QDP++ `Nd`).
pub const ND: usize = 4;

/// Number of colors (QCD `Nc`).
pub const NC: usize = 3;

/// Number of spin components (`Ns`).
pub const NS: usize = 4;
