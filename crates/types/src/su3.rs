//! SU(3) group and su(3) algebra utilities for gauge fields (paper §II-A:
//! gauge links are complex SU(3) matrices ascribed to lattice links).

use crate::complex::Complex;
use crate::inner::{PMatrix, Ring};
use crate::real::Real;
use qdp_rng::Rng;

/// A 3×3 complex matrix (the color level of a [`ColorMatrix`](crate::ColorMatrix)).
pub type Matrix3<R> = PMatrix<Complex<R>, 3>;

/// Draw a standard normal via Box–Muller (keeps `rand_distr` out of the
/// dependency tree).
pub fn gaussian<R: Real>(rng: &mut impl Rng) -> R {
    loop {
        let u1: f64 = rng.random();
        if u1 > 1e-300 {
            let u2: f64 = rng.random();
            let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            return R::from_f64(g);
        }
    }
}

/// A complex number with independent standard-normal parts.
pub fn gaussian_complex<R: Real>(rng: &mut impl Rng) -> Complex<R> {
    Complex::new(gaussian(rng), gaussian(rng))
}

/// Determinant of a 3×3 complex matrix.
pub fn det3<R: Real>(m: &Matrix3<R>) -> Complex<R> {
    let a = m.0;
    a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
        - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
        + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
}

/// Frobenius distance squared between two 3×3 matrices.
pub fn frob_dist_sqr<R: Real>(a: &Matrix3<R>, b: &Matrix3<R>) -> f64 {
    let mut s = 0.0;
    for i in 0..3 {
        for j in 0..3 {
            s += (a.0[i][j] - b.0[i][j]).to_c64().norm_sqr();
        }
    }
    s
}

/// Gram–Schmidt reunitarisation: orthonormalise the rows and fix the
/// determinant phase so the result is in SU(3). Used to combat rounding
/// drift of gauge links during long HMC runs.
pub fn reunitarize<R: Real>(m: &Matrix3<R>) -> Matrix3<R> {
    // Work in f64 for the orthonormalisation.
    let mut rows: [[Complex<f64>; 3]; 3] =
        std::array::from_fn(|i| std::array::from_fn(|j| m.0[i][j].to_c64()));

    // Normalise row 0.
    let n0 = rows[0].iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
    for z in rows[0].iter_mut() {
        *z = z.scale(1.0 / n0);
    }
    // Row 1 -= (row0 · row1) row0 ; normalise.
    let dot01: Complex<f64> = (0..3).map(|j| rows[0][j].conj() * rows[1][j]).sum();
    for j in 0..3 {
        rows[1][j] = rows[1][j] - rows[0][j] * dot01;
    }
    let n1 = rows[1].iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
    for z in rows[1].iter_mut() {
        *z = z.scale(1.0 / n1);
    }
    // Row 2 = conj(row0 × row1) — guarantees det = +1.
    let cross = |a: &[Complex<f64>; 3], b: &[Complex<f64>; 3]| -> [Complex<f64>; 3] {
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    };
    let r2 = cross(&rows[0], &rows[1]);
    rows[2] = [r2[0].conj(), r2[1].conj(), r2[2].conj()];

    PMatrix::from_fn(|i, j| Complex::from_c64(rows[i][j]))
}

/// A Haar-ish random SU(3) matrix: Gaussian complex entries followed by
/// [`reunitarize`]. (Exact Haar sampling is not required by any experiment;
/// this matches what QDP++'s hot start produces after projection.)
pub fn random_su3<R: Real>(rng: &mut impl Rng) -> Matrix3<R> {
    let g: Matrix3<R> = PMatrix::from_fn(|_, _| gaussian_complex(rng));
    reunitarize(&g)
}

/// A random traceless anti-Hermitian matrix `i H` with Gaussian algebra
/// coefficients — a momentum in the su(3) algebra, normalised so that
/// `⟨ -2 tr(P²) ⟩ = 8` (one unit per generator).
pub fn random_algebra<R: Real>(rng: &mut impl Rng) -> Matrix3<R> {
    // Build a Hermitian traceless H from 8 Gaussian coefficients on the
    // Gell-Mann basis (λ_a / 2 normalisation folded in).
    let c: [f64; 8] = std::array::from_fn(|_| gaussian::<f64>(rng));
    let s3 = 3.0f64.sqrt();
    let h: [[Complex<f64>; 3]; 3] = [
        [
            Complex::new(c[2] + c[7] / s3, 0.0),
            Complex::new(c[0], -c[1]),
            Complex::new(c[3], -c[4]),
        ],
        [
            Complex::new(c[0], c[1]),
            Complex::new(-c[2] + c[7] / s3, 0.0),
            Complex::new(c[5], -c[6]),
        ],
        [
            Complex::new(c[3], c[4]),
            Complex::new(c[5], c[6]),
            Complex::new(-2.0 * c[7] / s3, 0.0),
        ],
    ];
    // Return i·H/√2 (anti-Hermitian, traceless). The √2 matches the
    // generator normalisation tr(T_a T_b) = δ_ab/2.
    PMatrix::from_fn(|i, j| {
        let z = h[i][j].mul_i().scale(std::f64::consts::FRAC_1_SQRT_2);
        Complex::from_c64(z)
    })
}

/// Matrix exponential of a (small) 3×3 complex matrix by scaling-and-squaring
/// with a 12-term Taylor series. Exact enough for HMC link updates where
/// `‖A‖ ≲ 1`.
pub fn expm<R: Real>(a: &Matrix3<R>) -> Matrix3<R> {
    // Scale down so the norm is comfortably < 0.5.
    let norm = frob_dist_sqr(a, &PMatrix::zero()).sqrt();
    let mut squarings = 0u32;
    let mut scale = 1.0f64;
    while norm * scale > 0.5 && squarings < 30 {
        scale *= 0.5;
        squarings += 1;
    }
    let a64: PMatrix<Complex<f64>, 3> =
        PMatrix::from_fn(|i, j| a.0[i][j].to_c64().scale(scale));

    // Taylor: sum_{k=0}^{12} A^k / k!
    let mut result: PMatrix<Complex<f64>, 3> = PMatrix::identity();
    let mut term: PMatrix<Complex<f64>, 3> = PMatrix::identity();
    for k in 1..=12u64 {
        term = term * a64;
        let f = 1.0 / (1..=k).map(|x| x as f64).product::<f64>();
        result = PMatrix::from_fn(|i, j| result.0[i][j] + term.0[i][j].scale(f));
    }
    for _ in 0..squarings {
        result = result * result;
    }
    PMatrix::from_fn(|i, j| Complex::from_c64(result.0[i][j]))
}

/// Check distance from SU(3): `‖U†U − 1‖² + |det U − 1|²`.
pub fn su3_violation<R: Real>(u: &Matrix3<R>) -> f64 {
    let udag_u = u.adj() * *u;
    let id: Matrix3<R> = PMatrix::identity();
    let unitarity = frob_dist_sqr(&udag_u, &id);
    let d = det3(u).to_c64();
    let det_err = (d - Complex::one()).norm_sqr();
    unitarity + det_err
}

#[cfg(test)]
mod tests {
    use super::*;
    use qdp_rng::StdRng;
    use qdp_rng::SeedableRng;

    #[test]
    fn random_su3_is_special_unitary() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            let u = random_su3::<f64>(&mut rng);
            assert!(su3_violation(&u) < 1e-24, "violation {}", su3_violation(&u));
        }
    }

    #[test]
    fn reunitarize_is_idempotent_on_su3() {
        let mut rng = StdRng::seed_from_u64(7);
        let u = random_su3::<f64>(&mut rng);
        let v = reunitarize(&u);
        assert!(frob_dist_sqr(&u, &v) < 1e-24);
    }

    #[test]
    fn exp_of_zero_is_identity() {
        let z: Matrix3<f64> = PMatrix::zero();
        let e = expm(&z);
        let id: Matrix3<f64> = PMatrix::identity();
        assert!(frob_dist_sqr(&e, &id) < 1e-28);
    }

    #[test]
    fn exp_of_algebra_is_su3() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..10 {
            let p = random_algebra::<f64>(&mut rng);
            // p is anti-Hermitian and traceless
            let ph = p.adj();
            let neg = -p;
            assert!(frob_dist_sqr(&ph, &neg) < 1e-24, "not anti-Hermitian");
            assert!(p.trace().to_c64().norm_sqr() < 1e-24, "not traceless");
            // exp(p) in SU(3)
            let u = expm(&p);
            assert!(su3_violation(&u) < 1e-16, "violation {}", su3_violation(&u));
        }
    }

    #[test]
    fn exp_additivity_for_commuting() {
        // exp(aX) exp(bX) = exp((a+b)X) for the same generator.
        let mut rng = StdRng::seed_from_u64(13);
        let p = random_algebra::<f64>(&mut rng);
        let half: Matrix3<f64> = PMatrix::from_fn(|i, j| p.0[i][j].scale(0.5));
        let e_half = expm(&half);
        let e_full = expm(&p);
        let prod = e_half * e_half;
        assert!(frob_dist_sqr(&prod, &e_full) < 1e-18);
    }

    #[test]
    fn det3_of_identity() {
        let id: Matrix3<f64> = PMatrix::identity();
        let d = det3(&id);
        assert!((d - Complex::one()).abs() < 1e-15);
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = 20000;
        let (mut mean, mut var) = (0.0f64, 0.0f64);
        for _ in 0..n {
            let g: f64 = gaussian(&mut rng);
            mean += g;
            var += g * g;
        }
        mean /= n as f64;
        var /= n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
