//! Per-layer probes shared by the workloads. Each one either times calls
//! into a public function of a workspace crate, computes a count from an
//! operator's public structure, or reads a span or counter the program
//! already records.

use h2_core::{BasisMethod, BlockKind, H2Config, H2Matrix, H2Operator};
use h2_points::admissibility::build_block_lists;
use h2_points::{ClusterTree, PointSet};
use h2_telemetry::{SpanRecord, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::time::Instant;

/// Per-layer metric values of one pass, by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

const MIB: f64 = 1024.0 * 1024.0;

/// The program's spans of one name: the benchmark's own spans, which
/// share the program's span store, are left out.
pub fn program_spans<'a>(
    snap: &'a TelemetrySnapshot,
    name: &str,
) -> impl Iterator<Item = &'a SpanRecord> + 'a {
    snap.spans_named(name)
        .filter(|s| s.label.as_deref() != Some(crate::trace::LABEL))
}

/// Milliseconds summed over the program's spans of one name.
pub fn span_ms(snap: &TelemetrySnapshot, name: &str) -> f64 {
    program_spans(snap, name)
        .map(|s| s.dur_ns as f64)
        .sum::<f64>()
        / 1e6
}

/// Number of the program's spans of one name.
pub fn span_count(snap: &TelemetrySnapshot, name: &str) -> usize {
    program_spans(snap, name).count()
}

/// Construction layers: the tree and list entry points of `h2-points` and
/// the hierarchical sampler of `h2-sampling`, timed here on the
/// workload's points and configuration; the interpolative decomposition,
/// basis and block phases from the `build.*` spans of `builds` builds
/// recorded in `snap`.
pub fn build_layers(
    pts: &PointSet,
    cfg: &H2Config,
    snap: &TelemetrySnapshot,
    builds: usize,
    out: &mut Layers,
) {
    let t0 = Instant::now();
    let tree = {
        let _s = crate::trace::span("points.tree");
        let tree = ClusterTree::build(pts, cfg.tree_params());
        let lists = build_block_lists(&tree, cfg.eta);
        (tree, lists)
    };
    out.insert("build.tree_ms", t0.elapsed().as_secs_f64() * 1e3);
    if let BasisMethod::DataDriven { samples, .. } = &cfg.basis {
        let mut samples = *samples;
        samples.seed ^= cfg.seed;
        let t0 = Instant::now();
        let _s = crate::trace::span("sampling.hierarchical");
        std::hint::black_box(h2_sampling::hierarchical_sample(&tree.0, &tree.1, &samples));
        out.insert("build.sampling_ms", t0.elapsed().as_secs_f64() * 1e3);
    }
    let per_build = |name| span_ms(snap, name) / builds.max(1) as f64;
    out.insert("build.id_ms", per_build("build.id"));
    out.insert("build.basis_ms", per_build("build.basis"));
    out.insert("build.blocks_ms", per_build("build.blocks"));
}

/// The four core sweeps, ms per single-vector product, from the
/// program's `matvec.*` spans.
pub fn sweep_layers(snap: &TelemetrySnapshot, out: &mut Layers) {
    let products = span_count(snap, "matvec");
    if products == 0 {
        return;
    }
    for (span, key) in [
        ("matvec.upward", "core.upward_ms"),
        ("matvec.horizontal", "core.horizontal_ms"),
        ("matvec.downward", "core.downward_ms"),
        ("matvec.leaf", "core.leaf_ms"),
    ] {
        out.insert(key, span_ms(snap, span) / products as f64);
    }
}

/// Stored operators: computed stored-block bytes one single-vector
/// product reads (every listed orientation of every coupling and
/// nearfield block, as the vector sweeps visit them), and gemv plus
/// gemvᵀ bandwidth through the public `MatrixS` methods over exactly the
/// stored blocks. Does nothing for an operator without stored blocks.
pub fn stored_block_layers(op: &H2Matrix, out: &mut Layers) {
    let (Some(coupling), Some(nearfield)) =
        (op.coupling_store().blocks(), op.nearfield_store().blocks())
    else {
        return;
    };
    let lists = op.lists();
    let mut bytes = 0usize;
    for i in 0..op.tree().node_count() {
        for &j in &lists.interaction[i] {
            if let Some((b, _)) = op.coupling_store().block(i, j) {
                bytes += b.bytes();
            }
        }
    }
    for &i in op.tree().leaves() {
        for &j in &lists.nearfield[i] {
            if let Some((b, _)) = op.nearfield_store().block(i, j) {
                bytes += b.bytes();
            }
        }
    }
    out.insert("core.block_mb_per_matvec", bytes as f64 / MIB);

    let blocks: Vec<_> = coupling.iter().chain(nearfield).collect();
    let moved: usize = blocks.iter().map(|b| 2 * b.bytes()).sum();
    let _s = crate::trace::span("linalg.gemv");
    let widest = blocks
        .iter()
        .map(|b| b.nrows().max(b.ncols()))
        .max()
        .unwrap_or(0);
    let x = vec![1.0f64; widest];
    let (mut y, mut z) = (vec![0.0f64; widest], vec![0.0f64; widest]);
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for b in &blocks {
            let (m, k) = b.shape();
            b.matvec_acc(&x[..k], &mut y[..m]);
            b.matvec_t_acc(&y[..m], &mut z[..k]);
        }
        std::hint::black_box((&y, &z));
        best = best.min(t0.elapsed().as_secs_f64());
    }
    out.insert("linalg.gemv_gbps", moved as f64 / best / 1e9);
}

/// Kernel evaluation rate over the operator's own block shapes: every
/// coupling and nearfield block generated once through the public
/// generation primitive, in 1e9 evaluations per second.
pub fn kernel_rate(op: &H2Matrix, out: &mut Layers) {
    let lists = op.lists();
    let _s = crate::trace::span("kernels.blocks");
    let t0 = Instant::now();
    let mut evals = 0usize;
    for &(i, j) in &lists.interaction_pairs {
        let b = op.generate_block(BlockKind::Coupling, i, j);
        evals += b.nrows() * b.ncols();
        std::hint::black_box(&b);
    }
    for &(i, j) in &lists.nearfield_pairs {
        let b = op.generate_block(BlockKind::Nearfield, i, j);
        evals += b.nrows() * b.ncols();
        std::hint::black_box(&b);
    }
    out.insert(
        "kernels.gevals_per_s",
        evals as f64 / t0.elapsed().as_secs_f64() / 1e9,
    );
}

/// Reads one of the program's process-wide counters.
pub fn counter(name: &'static str) -> u64 {
    h2_telemetry::counter(name).get()
}

/// Cache readings of the single-vector products of a traced pass over an
/// on-the-fly operator, each taken around one product (an update between
/// products may install a fresh cache, so readings across products do not
/// subtract).
#[derive(Default)]
pub struct CacheProbe {
    hits: u64,
    misses: u64,
    singles: u64,
    /// Telemetry-clock windows of the products.
    windows: Vec<(u64, u64)>,
}

impl CacheProbe {
    /// Starts a pass.
    pub fn begin(&mut self) {
        *self = CacheProbe::default();
    }

    /// `op · b`, with the product's cache traffic recorded when tracing.
    pub fn matvec<O: H2Operator>(&mut self, op: &O, b: &[f64]) -> Vec<f64> {
        self.around(op, || op.matvec(b))
    }

    /// Runs `product`, one single-vector product by `op`, with its cache
    /// traffic recorded when tracing.
    pub fn around<O: H2Operator>(
        &mut self,
        op: &O,
        product: impl FnOnce() -> Vec<f64>,
    ) -> Vec<f64> {
        if !crate::trace::enabled() {
            return product();
        }
        let (c0, w0) = (op.cache_stats(), h2_telemetry::now_ns());
        let y = product();
        self.windows.push((w0, h2_telemetry::now_ns()));
        if let (Some(a), Some(c)) = (c0, op.cache_stats()) {
            self.hits += c.hits - a.hits;
            self.misses += c.misses - a.misses;
        }
        self.singles += 1;
        y
    }

    /// Inserts `cache.hit_ratio` (hits over hits plus misses),
    /// `cache.misses_per_matvec` and `cache.generate_ms` (the program's
    /// `cache.generate` spans inside the products, per product).
    pub fn finish(&self, snap: &TelemetrySnapshot, out: &mut Layers) {
        if self.singles == 0 {
            return;
        }
        let per = |x: f64| x / self.singles as f64;
        out.insert(
            "cache.hit_ratio",
            self.hits as f64 / (self.hits + self.misses).max(1) as f64,
        );
        out.insert("cache.misses_per_matvec", per(self.misses as f64));
        out.insert(
            "cache.generate_ms",
            per(generate_ms_in(snap, &self.windows)),
        );
    }
}

/// Milliseconds of the program's `cache.generate` spans that started
/// inside one of `windows` (telemetry-clock nanoseconds, sorted).
fn generate_ms_in(snap: &TelemetrySnapshot, windows: &[(u64, u64)]) -> f64 {
    program_spans(snap, "cache.generate")
        .filter(|s| {
            let k = windows.partition_point(|w| w.0 <= s.start_ns);
            k > 0 && s.start_ns <= windows[k - 1].1
        })
        .map(|s| s.dur_ns as f64)
        .sum::<f64>()
        / 1e6
}
