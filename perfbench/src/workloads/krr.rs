//! `krr-solve`: Gaussian-kernel ridge regression in 3-D, the paper's
//! normal-mode scenario. One construction, then repeated CG solves of
//! `(K + λI) α = y` from a zero initial guess; the task is one solve (the
//! time to solution).
//!
//! The training points are a jittered lattice: the seed moves every point,
//! but the tree and block structure, and so the work per product, stay
//! the same (on uniform random points of this size they vary by a third
//! from seed to seed).

use super::{Pass, Plan, Scale, Workload};
use crate::exact::{rel_err, ExactKernel, RowCheck};
use crate::layers::{self, Layers};
use crate::rng::{SplitMix64, DIM};
use crate::stats;
use crate::timed::Timed;
use h2_core::{BasisMethod, H2Config, H2Matrix, MemoryMode};
use h2_kernels::Gaussian;
use h2_points::PointSet;
use h2_solvers::{cg, CgOptions, ShiftedOperator, StopReason};
use h2_telemetry::TelemetrySnapshot;
use std::sync::Arc;
use std::time::Instant;

/// Gaussian bandwidth: `K(x, y) = exp(-|x - y|² / H)`.
pub const H: f64 = 0.02;
/// Ridge parameter λ.
pub const LAMBDA: f64 = 1.0;
/// Construction tolerance.
pub const BUILD_TOL: f64 = 1e-6;
/// CG stopping rule: relative residual.
pub const CG_TOL: f64 = 1e-6;
/// Largest move of a training point, in lattice spacings per axis.
pub const JITTER: f64 = 0.1;
/// Standard deviation of the noise on the training targets.
pub const NOISE: f64 = 0.05;
/// Sampled product rows may differ from exact sums by this multiple of
/// the construction tolerance.
pub const CHECK_MULT: f64 = 10.0;

/// The regression target: smooth, O(1), with structure on the scale of
/// the kernel bandwidth.
fn target(x: &[f64]) -> f64 {
    (std::f64::consts::TAU * x[0]).sin() * (std::f64::consts::PI * x[1]).cos() + x[2] * x[2]
}

struct Size {
    /// Lattice points per axis (even: see `SplitMix64::jittered_lattice`).
    m: usize,
    leaf: usize,
    n_test: usize,
    /// Largest accepted relative error of held-out predictions against
    /// the noise-free target function.
    test_err_bound: f64,
}

fn size(scale: Scale) -> Size {
    match scale {
        Scale::Bench => Size {
            m: 12,
            leaf: 64,
            n_test: 200,
            test_err_bound: 0.2,
        },
        Scale::Smoke => Size {
            m: 8,
            leaf: 32,
            n_test: 50,
            test_err_bound: 0.3,
        },
    }
}

pub struct Krr {
    pts: Vec<f64>,
    y: Vec<f64>,
    test_pts: Vec<f64>,
    test_err_bound: f64,
    cfg: H2Config,
    op: Timed<H2Matrix>,
    check: RowCheck,
    held_out_checked: bool,
    test_err: f64,
    iterations: Vec<f64>,
    overhead_ms: Vec<f64>,
}

impl Workload for Krr {
    const NAME: &'static str = "krr-solve";

    fn setup(plan: &Plan) -> (Self, Vec<f64>) {
        let sz = size(plan.scale);
        let mut rng = SplitMix64::stream(plan.seed, 1);
        let pts = rng.jittered_lattice(sz.m, JITTER);
        let y: Vec<f64> = pts
            .chunks_exact(DIM)
            .map(|x| target(x) + NOISE * rng.normal())
            .collect();
        let test_pts = SplitMix64::stream(plan.seed, 2).unit_cube(sz.n_test);
        let cfg = H2Config {
            basis: BasisMethod::data_driven_for_tol(BUILD_TOL, DIM),
            mode: MemoryMode::Normal,
            leaf_size: sz.leaf,
            ..H2Config::default()
        };
        let (op, setup_s) = super::repeat_setup(plan, || {
            let ps = PointSet::new(DIM, pts.clone());
            let _s = crate::trace::span("core.build");
            H2Matrix::build(&ps, Arc::new(Gaussian { h: H }), &cfg)
        });
        let w = Krr {
            check: RowCheck::new(
                ExactKernel::Gaussian { h: H },
                CHECK_MULT * BUILD_TOL,
                16,
                plan.seed,
            ),
            pts,
            y,
            test_pts,
            test_err_bound: sz.test_err_bound,
            cfg,
            op: Timed::new(op, "core.matvec", "core.matmat"),
            held_out_checked: false,
            test_err: f64::NAN,
            iterations: Vec::new(),
            overhead_ms: Vec::new(),
        };
        (w, setup_s)
    }

    fn describe(&self) -> String {
        format!(
            "inputs: n={} jittered lattice (up to {JITTER} spacings) in the unit cube, Gaussian h={H}, lambda={LAMBDA}, noise sd={NOISE}, \
             leaf={}, build tol={BUILD_TOL:e}, normal mode, CG rel. residual {CG_TOL:e}, \
             {} held-out points (test error bound {})",
            self.y.len(),
            self.cfg.leaf_size,
            self.test_pts.len() / DIM,
            self.test_err_bound
        )
    }

    fn build_inputs(&self) -> (PointSet, H2Config) {
        (PointSet::new(DIM, self.pts.clone()), self.cfg.clone())
    }

    fn measure(&mut self, seconds: f64, min_tasks: usize, pass: &mut Pass) {
        let opts = CgOptions {
            tol: CG_TOL,
            max_iter: 1000,
        };
        self.op.take_log();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds || pass.task_ms.len() < min_tasks {
            let before = self.op.secs();
            let t0 = Instant::now();
            let res = {
                let _s = crate::trace::span("solvers.cg");
                let shifted = ShiftedOperator::new(&self.op, LAMBDA);
                cg(&shifted, &self.y, &opts)
            };
            let wall = t0.elapsed().as_secs_f64();
            let inside = self.op.secs() - before;
            pass.attempted += 1;
            let res = match res {
                Ok(r) if r.stop == StopReason::Converged => r,
                Ok(r) => {
                    pass.fail(format!(
                        "CG stopped ({:?}) after {} iterations",
                        r.stop, r.iterations
                    ));
                    continue;
                }
                Err(e) => {
                    pass.fail(format!("CG refused the system: {e}"));
                    continue;
                }
            };
            pass.task(wall * 1e3);
            self.iterations.push(res.iterations as f64);
            self.overhead_ms.push((wall - inside) * 1e3);
            pass.absorb_calls(self.op.take_log());
            let _s = crate::trace::span("check.krr");
            self.verify(&res.x, pass);
        }
    }

    fn layers(&mut self, snap: &TelemetrySnapshot, pass: &mut Pass) {
        let l: &mut Layers = &mut pass.layers;
        if let Some(it) = stats::mean(&self.iterations) {
            l.insert("solvers.iterations", it);
        }
        if let Some(ms) = stats::mean(&self.overhead_ms) {
            l.insert("solvers.overhead_ms", ms);
        }
        layers::sweep_layers(snap, l);
        layers::stored_block_layers(self.op.inner(), l);
    }

    fn report(&self) -> String {
        format!(
            "checks: worst sampled-row error {:.2e} over {} products, held-out error {:.4}, \
             mean CG iterations {:.1}",
            self.check.worst,
            self.check.checked,
            self.test_err,
            stats::mean(&self.iterations).unwrap_or(f64::NAN)
        )
    }
}

impl Krr {
    /// Checks one solution apart from the solver: the residual recomputed
    /// here, sampled rows of `K α` against exact Gaussian sums, and (once
    /// per run) held-out predictions made by exact sums over α.
    fn verify(&mut self, alpha: &[f64], pass: &mut Pass) {
        let k_alpha = self.op.inner().matvec(alpha);
        let resid: Vec<f64> = self
            .y
            .iter()
            .zip(&k_alpha)
            .zip(alpha)
            .map(|((yi, ki), ai)| yi - (ki + LAMBDA * ai))
            .collect();
        let norm = |v: &[f64]| v.iter().map(|x| x * x).sum::<f64>().sqrt();
        let rel_resid = norm(&resid) / norm(&self.y);
        // The recurrence residual CG stops on drifts from the true one by
        // rounding only; allow 1% of the tolerance for it.
        if rel_resid.is_nan() || rel_resid > 1.01 * CG_TOL {
            pass.fault(format!(
                "recomputed CG residual {rel_resid:.3e} above tolerance {CG_TOL:e}"
            ));
        }
        if let Err(e) = self
            .check
            .product("krr K*alpha", &self.pts, alpha, &k_alpha)
        {
            pass.fault(e);
        }
        if !self.held_out_checked {
            self.held_out_checked = true;
            let kernel = ExactKernel::Gaussian { h: H };
            let (pred, truth): (Vec<f64>, Vec<f64>) = self
                .test_pts
                .chunks_exact(DIM)
                .map(|x| (kernel.sum_at(x, &self.pts, alpha), target(x)))
                .unzip();
            self.test_err = rel_err(&pred, &truth);
            if self.test_err.is_nan() || self.test_err > self.test_err_bound {
                pass.fault(format!(
                    "held-out relative error {:.3} above {}",
                    self.test_err, self.test_err_bound
                ));
            }
        }
    }
}
