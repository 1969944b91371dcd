//! Order statistics shared by the runs and the compare command.

/// Median (the mean of the two middle values for an even count), as
/// Python's `statistics.median` gives it. `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let s = sorted(xs);
    let m = s.len() / 2;
    Some(if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    })
}

/// Arithmetic mean; `None` for an empty sample.
pub fn mean(xs: &[f64]) -> Option<f64> {
    (!xs.is_empty()).then(|| xs.iter().sum::<f64>() / xs.len() as f64)
}

/// First, second and third quartile by Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method),
/// so spreads printed here match the ones the acceptance rule computes.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    if xs.is_empty() {
        return None;
    }
    let d = sorted(xs);
    let ld = d.len();
    if ld == 1 {
        return Some([d[0]; 3]);
    }
    let n = 4usize;
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (d[j - 1] * (n as f64 - delta) + d[j] * delta) / n as f64;
    }
    Some(out)
}

/// The `p`-th percentile by nearest rank: the `ceil(p/100 · n)`-th
/// smallest value (the smallest for `p` = 0). `None` for an empty sample.
pub fn percentile(xs: &[f64], p: u32) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let rank = (p as usize * xs.len()).div_ceil(100).max(1);
    Some(sorted(xs)[rank.min(xs.len()) - 1])
}

/// The tail of a timing sample: the highest integer percentile `p` that
/// leaves at least [`TAIL_BEYOND`] samples above its nearest-rank value.
/// Samples of fewer than [`TAIL_MIN_SAMPLES`] have no tail (the percentile
/// would sit among the last few values), and the function returns `None`.
/// Returns `(p, value)`.
pub fn tail(xs: &[f64]) -> Option<(u32, f64)> {
    let n = xs.len();
    if n < TAIL_MIN_SAMPLES {
        return None;
    }
    let p = (100 * (n - TAIL_BEYOND)) / n;
    // Nearest rank: the ceil(p/100 · n)-th smallest value (1-based).
    let rank = (p * n).div_ceil(100);
    debug_assert!(n - rank >= TAIL_BEYOND);
    Some((p as u32, sorted(xs)[rank - 1]))
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;
/// Smallest sample that reports a tail.
pub const TAIL_MIN_SAMPLES: usize = 40;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_matches_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 90), Some(18.0));
        assert_eq!(percentile(&v, 10), Some(2.0));
        assert_eq!(percentile(&v, 0), Some(1.0));
        assert_eq!(percentile(&v, 100), Some(20.0));
        assert_eq!(percentile(&[7.0], 90), Some(7.0));
        assert_eq!(percentile(&[], 90), None);
    }

    #[test]
    fn no_tail_below_forty_samples() {
        let v: Vec<f64> = (0..39).map(f64::from).collect();
        assert_eq!(tail(&v), None);
    }

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in 40..=1200 {
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let (p, value) = tail(&v).expect("n >= 40 has a tail");
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert!(beyond >= TAIL_BEYOND, "n={n}: p{p} leaves {beyond}");
            // The next percentile up would leave fewer than ten.
            if p < 99 {
                let rank = ((p as usize + 1) * n).div_ceil(100);
                assert!(n - rank < TAIL_BEYOND, "n={n}: p{} also qualifies", p + 1);
            }
        }
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v), Some((75, 30.0)));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v), Some((95, 190.0)));
    }
}
