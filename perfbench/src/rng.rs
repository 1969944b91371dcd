//! Seeded input generation. The benchmark makes every input (points,
//! targets, right-hand sides, edits, arrival times) from `--seed` with its
//! own SplitMix64 streams, so the program under test receives only data.

/// Spatial dimension of every workload.
pub const DIM: usize = 3;

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for one purpose of one seed: distinct purposes give
    /// independent streams, so adding a draw to one input leaves the others
    /// unchanged.
    pub fn stream(seed: u64, purpose: u64) -> Self {
        let mut s = SplitMix64(seed ^ purpose.wrapping_mul(0xD1B5_4A32_D192_ED03));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `count` distinct indices in `0..n`, in draw order.
    pub fn distinct(&mut self, n: usize, count: usize) -> Vec<usize> {
        assert!(count <= n, "cannot draw {count} distinct indices below {n}");
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::with_capacity(count);
        while out.len() < count {
            let i = self.below(n);
            if seen.insert(i) {
                out.push(i);
            }
        }
        out
    }

    /// `n` points uniform in the unit cube, flattened `[x0 y0 z0 x1 …]`.
    pub fn unit_cube(&mut self, n: usize) -> Vec<f64> {
        (0..n * DIM).map(|_| self.next_f64()).collect()
    }

    /// The `m³` points of a regular lattice filling the unit cube, each
    /// moved independently along every axis by up to `jitter` lattice
    /// spacings. With an even `m` and `jitter < 0.5` every median split
    /// of the cluster tree falls between lattice planes, so the tree, the
    /// block structure and the ranks are the same for every seed: the
    /// seed moves the points, not the amount of work.
    pub fn jittered_lattice(&mut self, m: usize, jitter: f64) -> Vec<f64> {
        let h = 1.0 / m as f64;
        let mut pts = Vec::with_capacity(m * m * m * DIM);
        for i in 0..m {
            for j in 0..m {
                for k in 0..m {
                    for c in [i, j, k] {
                        pts.push((c as f64 + 0.5 + self.uniform(-jitter, jitter)) * h);
                    }
                }
            }
        }
        pts
    }

    /// Positive charges, uniform in `[0, 1)`: the Coulomb workloads apply
    /// these, so sampled exact sums have no cancellation that would make
    /// a relative error on a few rows meaningless.
    pub fn charges(&mut self, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.next_f64()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut s = SplitMix64::stream(7, 1);
                move |_| s.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut s = SplitMix64::stream(7, 1);
                move |_| s.next_u64()
            })
            .collect();
        let c = SplitMix64::stream(7, 2).next_u64();
        assert_eq!(a, b);
        assert_ne!(a[0], c);
    }

    #[test]
    fn distinct_draws_are_distinct_and_in_range() {
        let mut s = SplitMix64::stream(3, 9);
        let v = s.distinct(50, 50);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
