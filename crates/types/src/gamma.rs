//! Dirac gamma matrices in the DeGrand–Rossi basis used by QDP++/Chroma.
//!
//! Every element of the 16-member Clifford basis `Gamma(n) = γ₀^{n₀} γ₁^{n₁}
//! γ₂^{n₂} γ₃^{n₃}` (bit `k` of `n` selects γ_k) has exactly one non-zero
//! entry per row, with value in `{1, i, −1, −i}`. We exploit this sparsity:
//! a gamma matrix is a permutation of the spin index plus a phase, so
//! applying one to a fermion costs no floating-point multiplications — the
//! code generator turns phases into sign flips and re/im swaps.

use crate::complex::Complex;
use crate::inner::{PMatrix, PScalar, PVector};
use crate::real::Real;
use crate::{Fermion, SpinMatrix};

/// A fourth root of unity: the possible values of gamma-matrix entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// `+1`
    One,
    /// `+i`
    I,
    /// `−1`
    MinusOne,
    /// `−i`
    MinusI,
}

impl Phase {
    /// Compose two phases (multiplication in ℤ₄).
    #[inline]
    pub fn mul(self, other: Phase) -> Phase {
        Phase::from_pow(self.pow() + other.pow())
    }

    /// Power of `i` representing this phase (0..4).
    #[inline]
    pub fn pow(self) -> u8 {
        match self {
            Phase::One => 0,
            Phase::I => 1,
            Phase::MinusOne => 2,
            Phase::MinusI => 3,
        }
    }

    /// Phase from a power of `i`.
    #[inline]
    fn from_pow(p: u8) -> Phase {
        match p % 4 {
            0 => Phase::One,
            1 => Phase::I,
            2 => Phase::MinusOne,
            _ => Phase::MinusI,
        }
    }

    /// Apply the phase to a complex number.
    #[inline]
    pub fn apply<R: Real>(self, z: Complex<R>) -> Complex<R> {
        match self {
            Phase::One => z,
            Phase::I => z.mul_i(),
            Phase::MinusOne => -z,
            Phase::MinusI => z.mul_neg_i(),
        }
    }

    /// The phase as a complex number.
    #[inline]
    fn to_complex<R: Real>(self) -> Complex<R> {
        self.apply(Complex::one())
    }
}

/// A sparse spin matrix with one non-zero per row: row `i` holds the value
/// `phase[i]` at column `col[i]`. Closed under multiplication; contains all
/// 16 `Gamma(n)` matrices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Gamma {
    /// Column of the non-zero entry in each row.
    pub col: [u8; 4],
    /// Phase of the non-zero entry in each row.
    pub phase: [Phase; 4],
}

/// The four DeGrand–Rossi gamma matrices (QDP++ convention):
///
/// ```text
/// γ₀ = ( 0  0  0  i)   γ₁ = ( 0  0  0 -1)   γ₂ = ( 0  0  i  0)   γ₃ = ( 0  0  1  0)
///      ( 0  0  i  0)        ( 0  0  1  0)        ( 0  0  0 -i)        ( 0  0  0  1)
///      ( 0 -i  0  0)        ( 0  1  0  0)        (-i  0  0  0)        ( 1  0  0  0)
///      (-i  0  0  0)        (-1  0  0  0)        ( 0  i  0  0)        ( 0  1  0  0)
/// ```
const BASE: [Gamma; 4] = [
    Gamma {
        col: [3, 2, 1, 0],
        phase: [Phase::I, Phase::I, Phase::MinusI, Phase::MinusI],
    },
    Gamma {
        col: [3, 2, 1, 0],
        phase: [Phase::MinusOne, Phase::One, Phase::One, Phase::MinusOne],
    },
    Gamma {
        col: [2, 3, 0, 1],
        phase: [Phase::I, Phase::MinusI, Phase::MinusI, Phase::I],
    },
    Gamma {
        col: [2, 3, 0, 1],
        phase: [Phase::One, Phase::One, Phase::One, Phase::One],
    },
];

impl Gamma {
    /// The identity spin matrix (`Gamma(0)`).
    pub fn identity() -> Gamma {
        Gamma {
            col: [0, 1, 2, 3],
            phase: [Phase::One; 4],
        }
    }

    /// One of the four basis gamma matrices, `mu ∈ 0..4`.
    pub fn gamma_mu(mu: usize) -> Gamma {
        BASE[mu]
    }

    /// QDP++ `Gamma(n)`: the product `γ₀^{n₀} γ₁^{n₁} γ₂^{n₂} γ₃^{n₃}`
    /// with bit `k` of `n` selecting γ_k. `Gamma(15)` is γ₅.
    pub fn from_index(n: usize) -> Gamma {
        assert!(n < 16, "Gamma index must be in 0..16");
        let mut g = Gamma::identity();
        for (mu, base) in BASE.iter().enumerate() {
            if n & (1 << mu) != 0 {
                g = g.mul(*base);
            }
        }
        g
    }

    /// γ₅ = γ₀γ₁γ₂γ₃ (`Gamma(15)`).
    pub fn gamma5() -> Gamma {
        Gamma::from_index(15)
    }

    /// Matrix product `self · other`.
    pub fn mul(self, other: Gamma) -> Gamma {
        let mut col = [0u8; 4];
        let mut phase = [Phase::One; 4];
        for i in 0..4 {
            let k = self.col[i] as usize;
            col[i] = other.col[k];
            phase[i] = self.phase[i].mul(other.phase[k]);
        }
        Gamma { col, phase }
    }

    /// Apply to a fermion: `(Γψ)_s = phase[s] · ψ_{col[s]}` componentwise in
    /// color.
    pub fn apply_fermion<R: Real>(&self, psi: &Fermion<R>) -> Fermion<R> {
        PVector::from_fn(|s| {
            let src = psi.0[self.col[s] as usize];
            PVector::from_fn(|c| self.phase[s].apply(src.0[c]))
        })
    }

    /// Densify to a full [`SpinMatrix`].
    pub fn dense<R: Real>(&self) -> SpinMatrix<R> {
        PMatrix::from_fn(|i, j| {
            if self.col[i] as usize == j {
                PScalar(self.phase[i].to_complex())
            } else {
                PScalar(Complex::zero())
            }
        })
    }

    /// Scale all phases by a global phase.
    pub fn scaled(mut self, p: Phase) -> Gamma {
        for ph in self.phase.iter_mut() {
            *ph = ph.mul(p);
        }
        self
    }
}

/// The sign of a Wilson spin projector `1 ± γ_µ` (Chroma's `isign`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProjSign {
    /// `1 + γ_µ`.
    Plus,
    /// `1 − γ_µ`.
    Minus,
}

impl ProjSign {
    /// The other sign.
    pub fn flip(self) -> ProjSign {
        match self {
            ProjSign::Plus => ProjSign::Minus,
            ProjSign::Minus => ProjSign::Plus,
        }
    }
}

/// The Wilson spin projector `P = 1 ± γ_µ`, split like Chroma's
/// `spinProjectDir`/`spinReconstructDir` pair.
///
/// In the chiral basis `γ_µ` maps spins {0, 1} onto {2, 3} and back, and
/// `(±γ_µ)² = 1`, so `P` has rank 2: rows 0 and 1 of `Pψ`,
/// `h_k = ψ_k + g_k·ψ_{c_k}`, carry all of it, and row `j ∈ {2, 3}` is
/// `g_j·h_{c_j}` (`g_s`, `c_s`: phase and column of row `s` of `±γ_µ`).
/// Both row sets are read off [`Gamma::gamma_mu`] when the projector is
/// built; nothing is tabulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpinProjector {
    /// Direction `µ ∈ 0..4`.
    pub mu: usize,
    /// The sign in `1 ± γ_µ`.
    pub sign: ProjSign,
    /// `±γ_µ`: row `s` holds `phase[s]` at column `col[s]`.
    pub gamma: Gamma,
}

impl SpinProjector {
    /// `1 ± γ_µ`. Panics unless `±γ_µ` squares to one and swaps the upper
    /// and lower spin pairs — the two facts the half-spinor form rests on.
    pub fn new(mu: usize, sign: ProjSign) -> SpinProjector {
        let gamma = match sign {
            ProjSign::Plus => Gamma::gamma_mu(mu),
            ProjSign::Minus => Gamma::gamma_mu(mu).scaled(Phase::MinusOne),
        };
        assert_eq!(gamma.mul(gamma), Gamma::identity(), "(±γ_{mu})² ≠ 1");
        assert!(
            (0..4).all(|s| (gamma.col[s] < 2) != (s < 2)),
            "γ_{mu} is not block off-diagonal in the spin pairs"
        );
        SpinProjector { mu, sign, gamma }
    }

    /// Row `k ∈ {0, 1}` of the half spinor: `h_k = ψ_k + phase·ψ_col`,
    /// as `(col, phase)`.
    pub fn project_row(&self, k: usize) -> (usize, Phase) {
        debug_assert!(k < 2);
        (self.gamma.col[k] as usize, self.gamma.phase[k])
    }

    /// Row `s ∈ 0..4` of `Pψ` from the half spinor: `phase·h_row`, as
    /// `(row, phase)`.
    pub fn reconstruct_row(&self, s: usize) -> (usize, Phase) {
        if s < 2 {
            (s, Phase::One)
        } else {
            (self.gamma.col[s] as usize, self.gamma.phase[s])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense64(g: &Gamma) -> SpinMatrix<f64> {
        g.dense()
    }

    fn mat_eq(a: &SpinMatrix<f64>, b: &SpinMatrix<f64>) -> bool {
        for i in 0..4 {
            for j in 0..4 {
                if (a.0[i][j].0 - b.0[i][j].0).abs() > 1e-15 {
                    return false;
                }
            }
        }
        true
    }

    #[test]
    fn clifford_algebra() {
        // {γμ, γν} = 2 δμν · 1
        for mu in 0..4 {
            for nu in 0..4 {
                let gm = dense64(&Gamma::gamma_mu(mu));
                let gn = dense64(&Gamma::gamma_mu(nu));
                let anti = gm * gn + gn * gm;
                let expect = if mu == nu {
                    let id: SpinMatrix<f64> = PMatrix::identity();
                    id + id
                } else {
                    PMatrix::zero()
                };
                assert!(mat_eq(&anti, &expect), "mu={mu} nu={nu}");
            }
        }
    }

    #[test]
    fn gammas_are_hermitian() {
        use crate::inner::Ring;
        for mu in 0..4 {
            let g = dense64(&Gamma::gamma_mu(mu));
            assert!(mat_eq(&g, &g.adj()), "gamma_{mu} not Hermitian");
        }
    }

    #[test]
    fn sparse_product_matches_dense_product() {
        for n in 0..16 {
            for m in 0..16 {
                let a = Gamma::from_index(n);
                let b = Gamma::from_index(m);
                let sparse = dense64(&a.mul(b));
                let dense = dense64(&a) * dense64(&b);
                assert!(mat_eq(&sparse, &dense), "Gamma({n})·Gamma({m})");
            }
        }
    }

    #[test]
    fn gamma5_is_diagonal_and_anticommutes() {
        let g5 = Gamma::gamma5();
        // diagonal
        assert_eq!(g5.col, [0, 1, 2, 3]);
        // squares to one
        let sq = dense64(&g5.mul(g5));
        let id: SpinMatrix<f64> = PMatrix::identity();
        assert!(mat_eq(&sq, &id));
        // anticommutes with each gamma_mu
        for mu in 0..4 {
            let gm = dense64(&Gamma::gamma_mu(mu));
            let g5d = dense64(&g5);
            let anti = gm * g5d + g5d * gm;
            assert!(mat_eq(&anti, &PMatrix::zero()), "mu={mu}");
        }
    }

    #[test]
    fn apply_fermion_matches_dense() {
        let psi: Fermion<f64> = PVector::from_fn(|s| {
            PVector::from_fn(|c| Complex::new((s * 3 + c) as f64 + 0.25, -(s as f64) + c as f64))
        });
        for n in 0..16 {
            let g = Gamma::from_index(n);
            let sparse = g.apply_fermion(&psi);
            let dense: Fermion<f64> = g.dense::<f64>() * psi;
            for s in 0..4 {
                for c in 0..3 {
                    assert!((sparse.0[s].0[c] - dense.0[s].0[c]).abs() < 1e-14);
                }
            }
        }
    }

    #[test]
    fn phase_group_structure() {
        assert_eq!(Phase::I.mul(Phase::I), Phase::MinusOne);
        assert_eq!(Phase::I.mul(Phase::MinusI), Phase::One);
        assert_eq!(Phase::MinusOne.mul(Phase::MinusOne), Phase::One);
        let z = Complex::<f64>::new(2.0, 3.0);
        assert_eq!(Phase::I.apply(z), z.mul_i());
        assert_eq!(Phase::MinusI.apply(z), z.mul_neg_i());
        assert_eq!(Phase::MinusOne.apply(z), -z);
    }

    #[test]
    fn projector_pair_is_one_plus_minus_gamma() {
        let psi: Fermion<f64> = PVector::from_fn(|s| {
            PVector::from_fn(|c| Complex::new((s * 3 + c) as f64 - 2.5, 0.5 * s as f64 - c as f64))
        });
        for mu in 0..4 {
            let g = Gamma::gamma_mu(mu).apply_fermion(&psi);
            for (sign, want) in [
                (ProjSign::Plus, psi + g),
                (ProjSign::Minus, psi - g),
            ] {
                let p = SpinProjector::new(mu, sign);
                let h: [[Complex<f64>; 3]; 2] = std::array::from_fn(|k| {
                    let (col, phase) = p.project_row(k);
                    std::array::from_fn(|c| psi.0[k].0[c] + phase.apply(psi.0[col].0[c]))
                });
                for s in 0..4 {
                    let (row, phase) = p.reconstruct_row(s);
                    for (c, &x) in h[row].iter().enumerate() {
                        let got = phase.apply(x);
                        assert_eq!(got, want.0[s].0[c], "mu {mu} {sign:?} s {s} c {c}");
                    }
                }
            }
        }
    }
}
