//! Order statistics over per-op samples.
//!
//! The gated wall-clock statistic is the minimum: on a shared sandbox
//! interference only ever adds time, so the fast end is the steady part of
//! the distribution (see README "Noise study"). The lower decile, the median
//! and the tail are reported beside it, ungated.

/// Sorted copy of `xs` (NaN-free input assumed; NaNs sort last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Greater));
    v
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of already-sorted samples, linearly
/// interpolated between closest ranks (rank `q·(n−1)`). Empty input → 0.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            let frac = pos - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// The `q`-quantile of unsorted samples.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    percentile_sorted(&sorted(xs), q)
}

/// Lower decile.
pub fn p10(xs: &[f64]) -> f64 {
    percentile(xs, 0.10)
}

/// Median.
pub fn p50(xs: &[f64]) -> f64 {
    percentile(xs, 0.50)
}

/// Candidate tail percentiles in tenths of a percent, ascending (integers,
/// so "ten samples beyond" is decided exactly).
const TAILS_PERMILLE: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The highest standard percentile that still has at least ten samples
/// beyond it, as `(percent, value)`. With fewer than twenty samples no
/// percentile qualifies and the median is returned.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let permille = TAILS_PERMILLE
        .iter()
        .rev()
        .copied()
        .find(|p| s.len() * (1000 - p) >= 10_000)
        .unwrap_or(500);
    let pct = permille as f64 / 10.0;
    (pct, percentile_sorted(&s, pct / 100.0))
}

/// Arithmetic mean (empty → 0).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Coefficient of variation: sample standard deviation over the mean.
pub fn cv(xs: &[f64]) -> f64 {
    let m = mean(xs);
    if xs.len() < 2 || m == 0.0 {
        return 0.0;
    }
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt() / m
}

/// The three quartile cut points by the exclusive method — the same numbers
/// Python's `statistics.quantiles(xs, n=4)` gives, which is what the
/// acceptance rule for this benchmark is written in.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let s = sorted(xs);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    std::array::from_fn(|k| {
        let i = k + 1;
        // position i·(n+1)/4 in 1-based ranks; the rank is clamped to the
        // sample but the fraction is not, so tiny samples extrapolate
        // exactly as Python does
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    })
}

/// Inter-quartile distance as a share of the median (0 when the median is 0).
pub fn iqr_share(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (1..=11).map(|v| v as f64).collect();
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 11.0);
        assert_eq!(p50(&xs), 6.0);
        assert_eq!(p10(&xs), 2.0);
        // between ranks: q·(n−1) = 0.25·10 = 2.5 → halfway between 3 and 4
        assert_eq!(percentile(&xs, 0.25), 3.5);
        // order of the input does not matter
        let mut rev = xs.clone();
        rev.reverse();
        assert_eq!(p10(&rev), 2.0);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(p10(&[]), 0.0);
        assert_eq!(p10(&[7.5]), 7.5);
        assert_eq!(cv(&[3.0]), 0.0);
        assert_eq!(quartiles(&[2.0]), [2.0; 3]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs = |n: usize| (0..n).map(|v| v as f64).collect::<Vec<_>>();
        assert_eq!(tail(&xs(12)).0, 50.0); // nothing qualifies → median
        assert_eq!(tail(&xs(20)).0, 50.0); // 20·0.5 = 10
        assert_eq!(tail(&xs(55)).0, 75.0); // 55·0.25 = 13.75, 55·0.1 = 5.5
        assert_eq!(tail(&xs(100)).0, 90.0);
        assert_eq!(tail(&xs(200)).0, 95.0);
        assert_eq!(tail(&xs(1000)).0, 99.0);
        assert_eq!(tail(&xs(10_000)).0, 99.9);
        let (pct, v) = tail(&xs(101));
        assert_eq!((pct, v), (90.0, 90.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(|v| v as f64).collect();
        assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((iqr_share(&xs) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn cv_of_known_series() {
        // mean 5, sample variance 10 → cv = sqrt(10)/5
        let xs = [1.0, 3.0, 5.0, 7.0, 9.0];
        assert!((cv(&xs) - 10f64.sqrt() / 5.0).abs() < 1e-15);
        assert_eq!(mean(&xs), 5.0);
    }
}
