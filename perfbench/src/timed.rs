//! An `H2Operator` adaptor that times every call into the operator it
//! wraps, from outside: the solver, the service and the workloads all
//! apply the operator through it, so "time inside operator calls" means
//! the same thing on every workload.

use h2_core::{ApplyError, CacheStats, H2Operator};
use h2_linalg::Matrix;
use std::sync::Mutex;
use std::time::Instant;

/// What the wrapped operator was asked to do, and how long it took.
#[derive(Clone, Debug, Default)]
pub struct CallLog {
    /// Duration of each single-vector call, ms.
    pub single_ms: Vec<f64>,
    /// Right-hand-side columns applied (a k-column panel counts k).
    pub cols: u64,
    /// Seconds spent inside calls.
    pub secs: f64,
}

/// Times calls into `op`, each inside a benchmark-side span named
/// `matvec_span` (single vectors) or `matmat_span` (panels).
pub struct Timed<O> {
    op: O,
    matvec_span: &'static str,
    matmat_span: &'static str,
    log: Mutex<CallLog>,
}

impl<O> Timed<O> {
    pub fn new(op: O, matvec_span: &'static str, matmat_span: &'static str) -> Self {
        Timed {
            op,
            matvec_span,
            matmat_span,
            log: Mutex::new(CallLog::default()),
        }
    }

    pub fn inner(&self) -> &O {
        &self.op
    }

    pub fn inner_mut(&mut self) -> &mut O {
        &mut self.op
    }

    /// Returns the log so far and starts a new one.
    pub fn take_log(&self) -> CallLog {
        std::mem::take(&mut *self.log.lock().expect("call log lock poisoned"))
    }

    /// Seconds spent inside calls so far.
    pub fn secs(&self) -> f64 {
        self.log.lock().expect("call log lock poisoned").secs
    }

    fn timed<R>(&self, span: &'static str, cols: usize, f: impl FnOnce() -> R) -> R {
        self.timed_as(span, cols, cols == 1, f)
    }

    fn timed_as<R>(
        &self,
        span: &'static str,
        cols: usize,
        sample: bool,
        f: impl FnOnce() -> R,
    ) -> R {
        let _s = crate::trace::span(span);
        let t0 = Instant::now();
        let r = f();
        let dt = t0.elapsed().as_secs_f64();
        let mut log = self.log.lock().expect("call log lock poisoned");
        if sample {
            log.single_ms.push(dt * 1e3);
        }
        log.cols += cols as u64;
        log.secs += dt;
        r
    }
}

impl<O: H2Operator> Timed<O> {
    /// A single-vector call counted in `cols` and `secs` but left out of
    /// `single_ms`, for a product of another kind than the ones sampled
    /// there (on `churn`, the first product after an update).
    pub fn matvec_unsampled(&self, b: &[f64]) -> Vec<f64> {
        self.timed_as(self.matvec_span, 1, false, || self.op.matvec(b))
    }
}

impl<O: H2Operator> H2Operator for Timed<O> {
    fn dims(&self) -> (usize, usize) {
        self.op.dims()
    }

    fn matvec(&self, b: &[f64]) -> Vec<f64> {
        self.timed(self.matvec_span, 1, || self.op.matvec(b))
    }

    fn matvec_into(&self, b: &[f64], y: &mut [f64]) {
        self.timed(self.matvec_span, 1, || self.op.matvec_into(b, y))
    }

    fn matmat(&self, b: &Matrix) -> Matrix {
        self.timed(self.matmat_span, b.ncols(), || self.op.matmat(b))
    }

    fn try_matvec(&self, b: &[f64]) -> Result<Vec<f64>, ApplyError> {
        self.timed(self.matvec_span, 1, || self.op.try_matvec(b))
    }

    fn try_matmat(&self, b: &Matrix) -> Result<Matrix, ApplyError> {
        self.timed(self.matmat_span, b.ncols(), || self.op.try_matmat(b))
    }

    fn cache_stats(&self) -> Option<CacheStats> {
        self.op.cache_stats()
    }

    fn epoch(&self) -> u64 {
        self.op.epoch()
    }
}
