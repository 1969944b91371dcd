//! The benchmark's own reference: exact kernel sums over sampled rows,
//! written here from the kernel formulas rather than taken from the
//! program, so a fault in the program's kernels or sweeps cannot hide in
//! its own error estimate.

use crate::rng::{SplitMix64, DIM};

/// Kernels the workloads use, as plain formulas of the squared distance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExactKernel {
    /// `1/r`, with `K(x, x) = 0`.
    Coulomb,
    /// `exp(-r²/h)`.
    Gaussian { h: f64 },
}

impl ExactKernel {
    pub fn eval(self, r2: f64) -> f64 {
        match self {
            ExactKernel::Coulomb => {
                if r2 == 0.0 {
                    0.0
                } else {
                    1.0 / r2.sqrt()
                }
            }
            ExactKernel::Gaussian { h } => (-r2 / h).exp(),
        }
    }

    /// `Σ_j K(x, p_j) b_j` over flattened 3-D points `pts`.
    pub fn sum_at(self, x: &[f64], pts: &[f64], b: &[f64]) -> f64 {
        debug_assert_eq!(pts.len(), b.len() * DIM);
        pts.chunks_exact(DIM)
            .zip(b)
            .map(|(p, &bj)| {
                let r2: f64 = (0..DIM).map(|d| (x[d] - p[d]) * (x[d] - p[d])).sum();
                self.eval(r2) * bj
            })
            .sum()
    }

    /// Exact rows `rows` of `K(P, P) b`.
    pub fn rows(self, pts: &[f64], b: &[f64], rows: &[usize]) -> Vec<f64> {
        rows.iter()
            .map(|&r| self.sum_at(&pts[r * DIM..(r + 1) * DIM], pts, b))
            .collect()
    }
}

/// `‖a − e‖₂ / ‖e‖₂` (the paper's §IV metric on the sampled rows).
pub fn rel_err(approx: &[f64], exact: &[f64]) -> f64 {
    let num: f64 = approx
        .iter()
        .zip(exact)
        .map(|(a, e)| (a - e) * (a - e))
        .sum();
    let den: f64 = exact.iter().map(|e| e * e).sum();
    (num / den).sqrt()
}

/// Checks products of one operator against exact sums on seeded rows.
#[derive(Clone, Debug)]
pub struct RowCheck {
    pub kernel: ExactKernel,
    /// Largest accepted relative error on the sampled rows.
    pub bound: f64,
    /// Rows sampled per checked column.
    pub rows: usize,
    rng: SplitMix64,
    /// Worst relative error seen so far.
    pub worst: f64,
    /// Products checked.
    pub checked: u64,
}

impl RowCheck {
    pub fn new(kernel: ExactKernel, bound: f64, rows: usize, seed: u64) -> Self {
        RowCheck {
            kernel,
            bound,
            rows,
            rng: SplitMix64::stream(seed, 0xC4EC),
            worst: 0.0,
            checked: 0,
        }
    }

    /// Checks `y = K(P, P) b` on freshly drawn rows of the current point
    /// set `pts`. Also rejects a result of the wrong length or with a
    /// non-finite entry. Returns a description of the fault, if any.
    pub fn product(&mut self, what: &str, pts: &[f64], b: &[f64], y: &[f64]) -> Result<(), String> {
        let n = b.len();
        if y.len() != n {
            return Err(format!("{what}: result length {} != {n}", y.len()));
        }
        if let Some(i) = y.iter().position(|v| !v.is_finite()) {
            return Err(format!("{what}: non-finite entry at row {i}"));
        }
        let rows = self.rng.distinct(n, self.rows.min(n));
        let exact = self.kernel.rows(pts, b, &rows);
        let approx: Vec<f64> = rows.iter().map(|&r| y[r]).collect();
        let err = rel_err(&approx, &exact);
        self.checked += 1;
        self.worst = self.worst.max(err);
        if err.is_nan() || err > self.bound {
            return Err(format!(
                "{what}: sampled-row relative error {err:.3e} exceeds {:.1e}",
                self.bound
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_sums_match_a_tiny_dense_product() {
        let mut rng = SplitMix64::stream(11, 1);
        let n = 40;
        let pts = rng.unit_cube(n);
        let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let ps = h2_points::PointSet::new(DIM, pts.clone());
        let all: Vec<usize> = (0..n).collect();
        for (mine, theirs) in [
            (
                ExactKernel::Coulomb,
                Box::new(h2_kernels::Coulomb) as Box<dyn h2_kernels::Kernel>,
            ),
            (
                ExactKernel::Gaussian { h: 0.02 },
                Box::new(h2_kernels::Gaussian { h: 0.02 }),
            ),
        ] {
            let dense = h2_kernels::kernel_matrix(theirs.as_ref(), &ps, &all, &all);
            let reference = dense.matvec(&b);
            let got = mine.rows(&pts, &b, &all);
            assert!(rel_err(&got, &reference) < 1e-14, "{mine:?}");
        }
    }

    #[test]
    fn row_check_flags_a_wrong_product() {
        let mut rng = SplitMix64::stream(5, 2);
        let n = 30;
        let pts = rng.unit_cube(n);
        let b: Vec<f64> = (0..n).map(|_| rng.uniform(-1.0, 1.0)).collect();
        let all: Vec<usize> = (0..n).collect();
        let y = ExactKernel::Coulomb.rows(&pts, &b, &all);
        let mut check = RowCheck::new(ExactKernel::Coulomb, 1e-10, 5, 1);
        assert!(check.product("exact", &pts, &b, &y).is_ok());
        let mut bad = y.clone();
        for v in &mut bad {
            *v *= 1.001;
        }
        assert!(check.product("scaled", &pts, &b, &bad).is_err());
        bad[3] = f64::NAN;
        assert!(check.product("nan", &pts, &b, &bad).is_err());
        assert!(check.product("short", &pts, &b, &y[1..]).is_err());
    }
}
