//! `otf-panel`: Coulomb on the `dino` surface, on-the-fly with a 25%
//! block-cache budget. Rounds interleave a k=16 panel product (the task)
//! with a single-vector product; kernel evaluation and the cache carry
//! the work, which `krr-solve` bypasses.
//!
//! The point cloud is one fixed sample of the dino model: on clouds drawn
//! per seed the block structure, and with it the work per product,
//! changes by up to a third. The seed picks the panels and charges.

use super::{Pass, Plan, Scale, Workload};
use crate::exact::{ExactKernel, RowCheck};
use crate::layers::{self, CacheProbe};
use crate::rng::{SplitMix64, DIM};
use crate::stats;
use crate::timed::Timed;
use h2_core::{BasisMethod, CacheBudget, H2Config, H2Matrix, H2Operator, MemoryMode};
use h2_kernels::Coulomb;
use h2_linalg::Matrix;
use h2_points::PointSet;
use h2_telemetry::TelemetrySnapshot;
use std::sync::Arc;
use std::time::Instant;

/// Columns of the panel product.
pub const K: usize = 16;
/// Construction tolerance.
pub const BUILD_TOL: f64 = 1e-6;
/// Block-cache budget, as a share of the full block footprint.
pub const BUDGET: &str = "25%";
/// Sampled product rows may differ from exact sums by this multiple of
/// the construction tolerance.
pub const CHECK_MULT: f64 = 10.0;

/// Seed of the fixed dino cloud.
const CLOUD_SEED: u64 = 0;

/// Points and leaf size.
fn size(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Bench => (5000, 128),
        Scale::Smoke => (1500, 64),
    }
}

pub struct OtfPanel {
    pts: Vec<f64>,
    cfg: H2Config,
    op: Timed<H2Matrix>,
    check: RowCheck,
    rng: SplitMix64,
    // Traced-pass readings.
    evals: Vec<f64>,
    cache: CacheProbe,
}

/// The operator configuration shared by `otf-panel` and `churn`.
pub fn otf_config(leaf: usize) -> H2Config {
    H2Config {
        basis: BasisMethod::data_driven_for_tol(BUILD_TOL, DIM),
        mode: MemoryMode::OnTheFly,
        cache_budget: CacheBudget::parse(BUDGET).expect("static budget spec"),
        leaf_size: leaf,
        ..H2Config::default()
    }
}

impl Workload for OtfPanel {
    const NAME: &'static str = "otf-panel";

    fn setup(plan: &Plan) -> (Self, Vec<f64>) {
        let (n, leaf) = size(plan.scale);
        let ps = h2_points::gen::dino(n, CLOUD_SEED);
        let pts = ps.coords().to_vec();
        let cfg = otf_config(leaf);
        let (op, setup_s) = super::repeat_setup(plan, || {
            let _s = crate::trace::span("core.build");
            H2Matrix::build(&ps, Arc::new(Coulomb), &cfg)
        });
        let w = OtfPanel {
            pts,
            cfg,
            op: Timed::new(op, "core.matvec", "core.matmat"),
            check: RowCheck::new(ExactKernel::Coulomb, CHECK_MULT * BUILD_TOL, 6, plan.seed),
            rng: SplitMix64::stream(plan.seed, 3),
            evals: Vec::new(),
            cache: CacheProbe::default(),
        };
        (w, setup_s)
    }

    fn describe(&self) -> String {
        format!(
            "inputs: n={} dino surface (fixed cloud), Coulomb, anchor-net build tol={BUILD_TOL:e}, \
             leaf={}, on-the-fly with a {BUDGET} cache budget, k={K} panels",
            self.pts.len() / DIM,
            self.cfg.leaf_size
        )
    }

    fn build_inputs(&self) -> (PointSet, H2Config) {
        (PointSet::new(DIM, self.pts.clone()), self.cfg.clone())
    }

    fn measure(&mut self, seconds: f64, min_tasks: usize, pass: &mut Pass) {
        let n = self.pts.len() / DIM;
        let traced = crate::trace::enabled();
        self.cache.begin();
        self.op.take_log();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds || pass.task_ms.len() < min_tasks {
            let panel = Matrix::from_fn(n, K, |_, _| self.rng.next_f64());
            let evals0 = traced.then(|| layers::counter("kernel_evals"));
            let t0 = Instant::now();
            let out = self.op.matmat(&panel);
            pass.task(t0.elapsed().as_secs_f64() * 1e3);
            if let Some(e0) = evals0 {
                self.evals
                    .push((layers::counter("kernel_evals") - e0) as f64);
            }
            pass.attempted += 1;
            {
                let _s = crate::trace::span("check.panel");
                for c in 0..K {
                    if let Err(e) = self
                        .check
                        .product("panel", &self.pts, panel.col(c), out.col(c))
                    {
                        pass.fault(e);
                    }
                }
            }

            let b = self.rng.charges(n);
            let y = self.cache.matvec(&self.op, &b);
            pass.attempted += 1;
            let _s = crate::trace::span("check.matvec");
            if let Err(e) = self.check.product("matvec", &self.pts, &b, &y) {
                pass.fault(e);
            }
            pass.absorb_calls(self.op.take_log());
        }
    }

    fn layers(&mut self, snap: &TelemetrySnapshot, pass: &mut Pass) {
        let l = &mut pass.layers;
        layers::sweep_layers(snap, l);
        if let Some(ms) = stats::median(&pass.task_ms) {
            l.insert("core.panel_ms_per_col", ms / K as f64);
        }
        if let Some(e) = stats::mean(&self.evals) {
            l.insert("kernels.evals_per_task", e);
        }
        layers::kernel_rate(self.op.inner(), l);
        self.cache.finish(snap, l);
    }

    fn report(&self) -> String {
        format!(
            "checks: worst sampled-row error {:.2e} over {} checked columns",
            self.check.worst, self.check.checked
        )
    }
}
