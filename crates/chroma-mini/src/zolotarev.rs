//! Rational approximations for RHMC (paper §VIII-D: "the rational
//! approximation \[14\] to calculate the determinant of the Dirac operator
//! with the strange quark mass" — Clark & Kennedy's RHMC).
//!
//! Two generators are provided:
//!
//! * [`zolotarev_inv_sqrt`] — the *optimal* (equioscillating) rational
//!   approximation to `x^(−1/2)` on `[a, b]`, in Zolotarev's closed form
//!   via Jacobi elliptic functions;
//! * [`fit_power`] — a weighted least-squares pole fit for general `x^p`
//!   (production codes use arbitrary-precision Remez; the fit keeps f64
//!   numerics robust, and the achieved maximum relative error is
//!   *measured* and reported rather than assumed).
//!
//! Both return partial fractions `r(x) = c + Σ_k α_k / (x + β_k)` ready for
//! the multi-shift CG solver.

/// A rational function in partial-fraction form.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialFraction {
    /// Constant term `c`.
    pub c: f64,
    /// Residues `α_k`.
    pub alphas: Vec<f64>,
    /// (Positive) poles `β_k`: terms `α_k / (x + β_k)`.
    pub betas: Vec<f64>,
    /// Measured maximum relative error on the construction interval.
    pub max_rel_error: f64,
    /// The interval of validity.
    pub interval: (f64, f64),
}

impl PartialFraction {
    /// Evaluate `r(x)`.
    pub fn eval(&self, x: f64) -> f64 {
        let mut v = self.c;
        for (a, b) in self.alphas.iter().zip(self.betas.iter()) {
            v += a / (x + b);
        }
        v
    }
}

// --- elliptic functions ------------------------------------------------------

/// Complete elliptic integral `K(m)` with parameter `m = k²`, by AGM.
fn ellip_k(m: f64) -> f64 {
    assert!((0.0..1.0).contains(&m), "parameter out of range");
    let mut a = 1.0f64;
    let mut b = (1.0 - m).sqrt();
    for _ in 0..64 {
        if (a - b).abs() < 1e-16 * a {
            break;
        }
        let an = 0.5 * (a + b);
        let bn = (a * b).sqrt();
        a = an;
        b = bn;
    }
    std::f64::consts::FRAC_PI_2 / a
}

/// Jacobi elliptic `sn(u | m)` by the AGM / descending-amplitude method
/// (Abramowitz & Stegun 16.4).
fn jacobi_sn(u: f64, m: f64) -> f64 {
    assert!((0.0..1.0).contains(&m));
    if m < 1e-14 {
        return u.sin();
    }
    let mut a = vec![1.0f64];
    let mut c = vec![m.sqrt()];
    let mut b = (1.0 - m).sqrt();
    let mut n = 0usize;
    while c[n] > 1e-16 && n < 60 {
        let an = 0.5 * (a[n] + b);
        let cn = 0.5 * (a[n] - b);
        let bn = (a[n] * b).sqrt();
        a.push(an);
        c.push(cn);
        b = bn;
        n += 1;
    }
    let mut phi = (1u64 << n) as f64 * a[n] * u;
    for k in (1..=n).rev() {
        let s = (c[k] / a[k] * phi.sin()).asin();
        phi = 0.5 * (phi + s);
    }
    phi.sin()
}

// --- Zolotarev --------------------------------------------------------------

/// Zolotarev's optimal rational approximation to `x^(−1/2)` on `[a, b]`
/// with `n` poles.
///
/// Construction: on `[1, b/a]` the optimal degree-(n−1, n) rational
/// approximation is `r(x) = d · Π(x + c_{2l}) / Π(x + c_{2l−1})` with
/// `c_l = sn²(l·K'/(2n) | m') / (1 − sn²(l·K'/(2n) | m'))`, `m' = 1 − a/b`;
/// the overall constant `d` equalises the relative-error extrema. The
/// result is rescaled to `[a, b]` and expanded into partial fractions.
pub fn zolotarev_inv_sqrt(a: f64, b: f64, n: usize) -> PartialFraction {
    assert!(a > 0.0 && b > a && n >= 1);
    let kappa = b / a; // condition number
    let m_prime = 1.0 - 1.0 / kappa;
    let kp = ellip_k(m_prime);

    // c_1 .. c_{2n-1}
    let mut cs = Vec::with_capacity(2 * n);
    for l in 1..=(2 * n - 1) {
        let sn = jacobi_sn(l as f64 * kp / (2 * n) as f64, m_prime);
        let sn2 = sn * sn;
        cs.push(sn2 / (1.0 - sn2));
    }
    let odd: Vec<f64> = (0..n).map(|k| cs[2 * k]).collect(); // c_1, c_3, …
    let even: Vec<f64> = (0..n - 1).map(|k| cs[2 * k + 1]).collect(); // c_2, c_4, …

    // r0(x) = Π(x + even)/Π(x + odd) on [1, kappa]
    let r0 = |x: f64| -> f64 {
        let mut v = 1.0;
        for e in &even {
            v *= x + e;
        }
        for o in &odd {
            v /= x + o;
        }
        v
    };
    // equalise relative error of d·√x·r0(x) over a dense log grid
    let grid: Vec<f64> = (0..2000)
        .map(|i| (kappa.ln() * i as f64 / 1999.0).exp())
        .collect();
    let es: Vec<f64> = grid.iter().map(|&x| x.sqrt() * r0(x)).collect();
    let (mn, mx) = es
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &e| {
            (lo.min(e), hi.max(e))
        });
    let d = 2.0 / (mn + mx);

    // partial fractions: residues at x = −odd_k
    let mut alphas = Vec::with_capacity(n);
    for k in 0..n {
        let xk = -odd[k];
        let mut num = d;
        for e in &even {
            num *= xk + e;
        }
        let mut den = 1.0;
        for (l, o) in odd.iter().enumerate() {
            if l != k {
                den *= xk + o;
            }
        }
        alphas.push(num / den);
    }

    // rescale from [1, kappa] (variable y = x/a): 1/√x = (1/√a)·1/√y and
    // r(y) = Σ α/(y+o) ⇒ in x: (1/√a)·Σ α/(x/a + o) = Σ (α·√a)/(x + o·a)
    let alphas: Vec<f64> = alphas.iter().map(|al| al * a.sqrt()).collect();
    let betas: Vec<f64> = odd.iter().map(|o| o * a).collect();

    let mut pf = PartialFraction {
        c: 0.0,
        alphas,
        betas,
        max_rel_error: 0.0,
        interval: (a, b),
    };
    pf.max_rel_error = measure_error(&pf, a, b, -0.5);
    pf
}

/// Weighted least-squares pole fit of `x^p` on `[a, b]` with `n` poles —
/// the generator for the heat-bath kernels (`p = +1/4`) and any other
/// power the action needs.
pub fn fit_power(p: f64, a: f64, b: f64, n: usize) -> PartialFraction {
    assert!(a > 0.0 && b > a && n >= 1);
    // poles log-spaced across (and slightly beyond) the interval
    let betas: Vec<f64> = (0..n)
        .map(|k| {
            let t = k as f64 / (n - 1).max(1) as f64;
            (a / 3.0) * ((3.0 * b / (a / 3.0)).powf(t))
        })
        .collect();
    // samples
    let n_s = 400usize;
    let xs: Vec<f64> = (0..n_s)
        .map(|i| a * ((b / a).powf(i as f64 / (n_s - 1) as f64)))
        .collect();
    // unknowns: c, α_1..α_n ; rows weighted by 1/x^p for relative error
    let dim = n + 1;
    let mut ata = vec![vec![0.0f64; dim]; dim];
    let mut atb = vec![0.0f64; dim];
    for &x in &xs {
        let w = 1.0 / x.powf(p);
        let mut row = Vec::with_capacity(dim);
        row.push(1.0 * w);
        for bk in &betas {
            row.push(w / (x + bk));
        }
        let y = x.powf(p) * w; // = 1
        for i in 0..dim {
            for j in 0..dim {
                ata[i][j] += row[i] * row[j];
            }
            atb[i] += row[i] * y;
        }
    }
    let sol = solve_dense(&mut ata, &mut atb);
    let mut pf = PartialFraction {
        c: sol[0],
        alphas: sol[1..].to_vec(),
        betas,
        max_rel_error: 0.0,
        interval: (a, b),
    };
    pf.max_rel_error = measure_error(&pf, a, b, p);
    pf
}

/// Max relative error of `pf` against `x^p` on a dense log grid.
fn measure_error(pf: &PartialFraction, a: f64, b: f64, p: f64) -> f64 {
    let mut worst: f64 = 0.0;
    for i in 0..5000 {
        let x = a * (b / a).powf(i as f64 / 4999.0);
        let exact = x.powf(p);
        let err = (pf.eval(x) - exact).abs() / exact.abs();
        worst = worst.max(err);
    }
    worst
}

/// Solve `A x = b` (small dense system) by Gaussian elimination with
/// partial pivoting. `a` and `b` are consumed.
fn solve_dense(a: &mut [Vec<f64>], b: &mut [f64]) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // pivot
        let piv = (col..n)
            .max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap())
            .unwrap();
        a.swap(col, piv);
        b.swap(col, piv);
        let d = a[col][col];
        assert!(d.abs() > 1e-300, "singular system");
        for row in (col + 1)..n {
            let f = a[row][col] / d;
            for k in col..n {
                a[row][k] -= f * a[col][k];
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0f64; n];
    for row in (0..n).rev() {
        let mut v = b[row];
        for k in (row + 1)..n {
            v -= a[row][k] * x[k];
        }
        x[row] = v / a[row][row];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elliptic_k_known_values() {
        // K(0) = π/2
        assert!((ellip_k(0.0) - std::f64::consts::FRAC_PI_2).abs() < 1e-14);
        // K(0.5) ≈ 1.854074677
        assert!((ellip_k(0.5) - 1.8540746773013719).abs() < 1e-12);
    }

    #[test]
    fn jacobi_sn_limits() {
        // m = 0: sn = sin
        assert!((jacobi_sn(0.7, 0.0) - 0.7f64.sin()).abs() < 1e-14);
        // sn(K(m)|m) = 1
        let m = 0.6;
        let k = ellip_k(m);
        assert!((jacobi_sn(k, m) - 1.0).abs() < 1e-10);
        // odd function, zero at zero
        assert!(jacobi_sn(0.0, 0.3).abs() < 1e-15);
        assert!((jacobi_sn(0.4, 0.3) + jacobi_sn(-0.4, 0.3)).abs() < 1e-12);
    }

    #[test]
    fn zolotarev_error_decays_with_degree() {
        let (a, b) = (0.01, 10.0);
        let e4 = zolotarev_inv_sqrt(a, b, 4).max_rel_error;
        let e8 = zolotarev_inv_sqrt(a, b, 8).max_rel_error;
        let e12 = zolotarev_inv_sqrt(a, b, 12).max_rel_error;
        assert!(e4 < 0.05, "n=4 error {e4}");
        assert!(e8 < e4 / 10.0, "n=8 error {e8} vs n=4 {e4}");
        assert!(e12 < e8, "n=12 error {e12}");
        assert!(e12 < 1e-7, "n=12 error too large: {e12}");
    }

    #[test]
    fn zolotarev_approximates_inv_sqrt_pointwise() {
        let pf = zolotarev_inv_sqrt(0.1, 50.0, 10);
        for x in [0.1, 0.5, 1.0, 7.0, 49.9] {
            let rel = (pf.eval(x) - 1.0 / x.sqrt()).abs() * x.sqrt();
            assert!(rel < 1e-6, "x={x}: rel err {rel}");
        }
        // all poles positive (shifted systems stay positive definite)
        assert!(pf.betas.iter().all(|&b| b > 0.0));
        assert!(pf.alphas.iter().all(|&a| a > 0.0));
    }

    #[test]
    fn fit_power_quarter_root() {
        let pf = fit_power(0.25, 0.05, 40.0, 12);
        assert!(
            pf.max_rel_error < 1e-4,
            "x^(1/4) fit error {}",
            pf.max_rel_error
        );
        for x in [0.05, 1.0, 39.0] {
            let rel = (pf.eval(x) - x.powf(0.25)).abs() / x.powf(0.25);
            assert!(rel < 1e-3);
        }
    }

    #[test]
    fn fit_power_reproduces_inverse() {
        // x^(-1) is close to the pole basis span (poles are clamped away
        // from zero, so the fit is merely very good, not exact)
        let pf = fit_power(-1.0, 0.5, 5.0, 8);
        assert!(pf.max_rel_error < 1e-3, "{}", pf.max_rel_error);
    }

    #[test]
    fn composed_kernels_are_inverse_like() {
        // r(x)·x^{1/4}·x^{1/4} ≈ 1: the heat-bath/action pairing of RHMC
        let r = zolotarev_inv_sqrt(0.05, 40.0, 10);
        let q = fit_power(0.25, 0.05, 40.0, 12);
        for x in [0.06, 0.3, 2.0, 15.0, 39.0] {
            let v = r.eval(x) * q.eval(x) * q.eval(x);
            assert!((v - 1.0).abs() < 1e-3, "x={x}: {v}");
        }
    }
}
