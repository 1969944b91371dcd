//! The four workloads and the passes that drive them.
//!
//! A pass runs whole rounds of one workload's operations until its time
//! is up and at least `min_tasks` tasks have run. An end-to-end run is
//! one untraced pass. A traced run gives every workload a traced pass
//! (the named one also an untraced pass first, for the tracing overhead)
//! and reads the per-layer metrics from them.

pub mod churn;
pub mod krr;
pub mod otf;
pub mod serve;

use crate::layers::{self, Layers};
use crate::stats;
use crate::timed::CallLog;
use h2_core::H2Config;
use h2_points::PointSet;
use h2_telemetry::TelemetrySnapshot;
use std::path::PathBuf;
use std::time::Instant;

/// Every workload, in the order a traced run visits them.
/// `serve-sharded` runs in every traced run but is not in the timed set of
/// `BENCHMARK.json` (README.md says why).
pub const WORKLOADS: [&str; 4] = [
    krr::Krr::NAME,
    otf::OtfPanel::NAME,
    serve::Serve::NAME,
    churn::Churn::NAME,
];

/// Input sizes: `Bench` for measurements, `Smoke` for the tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Bench,
    Smoke,
}

/// How a run sets up and paces its workloads.
#[derive(Clone, Debug)]
pub struct Plan {
    pub seed: u64,
    pub scale: Scale,
    /// Setups per run, at the least; the run reports their median.
    pub setup_reps: usize,
    /// Seconds the setups of a run span, at the least: the host runs
    /// in faster and slower spells of a second or more, and setups that
    /// span several spells give a median that repeats between runs.
    pub setup_min_s: f64,
    /// Tasks a pass runs at the least, however long that takes.
    pub min_tasks: usize,
    /// Where the run may write files (the serving workload's operator).
    pub work_dir: PathBuf,
}

/// Measurements of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    pub task_ms: Vec<f64>,
    /// Every call into the operator during the pass.
    pub calls: CallLog,
    /// Columns per second inside operator calls, one entry per round.
    pub round_cols_per_s: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Operations that failed, and outputs that failed a check.
    pub errors: Vec<String>,
    /// Outputs that failed a check; any makes the run incorrect.
    pub faults: u64,
    pub layers: Layers,
    /// Peak resident set (MiB) when the [`PEAK_AFTER_TASKS`]-th task ended.
    pub peak_rss_mb: Option<f64>,
}

/// Tasks after which a pass reads the peak resident set: a fixed amount
/// of work, so that the reading does not grow with the number of tasks a
/// run gets through. Every end-to-end pass runs at least this many.
pub const PEAK_AFTER_TASKS: usize = stats::TAIL_MIN_SAMPLES;

impl Pass {
    /// Records a task's time.
    pub fn task(&mut self, ms: f64) {
        self.task_ms.push(ms);
        if self.task_ms.len() == PEAK_AFTER_TASKS {
            self.peak_rss_mb = crate::host::peak_rss_mb();
        }
    }

    /// An attempted operation failed (it is already counted in
    /// `attempted`).
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.note(what);
    }

    /// An output failed a check.
    pub fn fault(&mut self, what: String) {
        self.faults += 1;
        self.note(what);
    }

    fn note(&mut self, what: String) {
        if self.errors.len() < 20 && !self.errors.contains(&what) {
            self.errors.push(what);
        }
    }

    /// Takes over the operator calls of one round.
    pub fn absorb_calls(&mut self, log: CallLog) {
        if log.secs > 0.0 {
            self.round_cols_per_s.push(log.cols as f64 / log.secs);
        }
        self.calls.single_ms.extend(log.single_ms);
        self.calls.cols += log.cols;
        self.calls.secs += log.secs;
    }

    /// Takes over another pass's failures and faults but not its
    /// attempted operations: for work that prepares a pass.
    fn absorb_failures(&mut self, other: Pass) {
        self.failed += other.failed;
        self.faults += other.faults;
        for e in other.errors {
            self.note(e);
        }
    }

    fn absorb(&mut self, other: Pass) {
        self.attempted += other.attempted;
        self.absorb_failures(other);
    }
}

/// One workload.
pub trait Workload: Sized {
    const NAME: &'static str;

    /// Makes the inputs from `plan.seed` and sets the operator up
    /// `plan.setup_reps` times; returns the last setup and every setup's
    /// wall time in seconds.
    fn setup(plan: &Plan) -> (Self, Vec<f64>);

    /// One line on the inputs.
    fn describe(&self) -> String;

    /// The points and configuration the operator is built from.
    fn build_inputs(&self) -> (PointSet, H2Config);

    /// Whole rounds until `seconds` have passed and `min_tasks` tasks ran.
    fn measure(&mut self, seconds: f64, min_tasks: usize, pass: &mut Pass);

    /// Per-layer metrics of a finished traced pass; `snap` holds the
    /// program's spans and counters recorded during it.
    fn layers(&mut self, snap: &TelemetrySnapshot, pass: &mut Pass);

    /// One line on what the checks saw.
    fn report(&self) -> String;
}

/// Runs `make` at least `plan.setup_reps` times (and at least once), and
/// until `plan.setup_min_s` have passed, dropping each result before the
/// next setup so that only one operator is alive at a time. Returns the
/// last result and each setup's wall time in seconds.
pub fn repeat_setup<T>(plan: &Plan, mut make: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < plan.setup_reps.max(1) || start.elapsed().as_secs_f64() < plan.setup_min_s {
        drop(last.take());
        let _s = crate::trace::span("setup");
        let t0 = Instant::now();
        last = Some(make());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one setup"), times)
}

/// The result of an end-to-end run of one workload.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub pass: Pass,
    pub lines: Vec<String>,
}

/// Tasks a traced run's side pass runs at the least.
const SIDE_MIN_TASKS: usize = 5;

/// The result of a traced run.
pub struct Traced {
    pub pass: Pass,
    pub lines: Vec<String>,
}

/// An end-to-end run of the named workload: tracing off. `None` for an
/// unknown name.
pub fn run_e2e(name: &str, plan: &Plan, seconds: f64) -> Option<Outcome> {
    fn go<W: Workload>(plan: &Plan, seconds: f64) -> Outcome {
        let (mut w, setup_s) = W::setup(plan);
        let mut pass = Pass::default();
        w.measure(seconds, plan.min_tasks, &mut pass);
        Outcome {
            setup_s,
            pass,
            lines: vec![w.describe(), w.report()],
        }
    }
    Some(match name {
        krr::Krr::NAME => go::<krr::Krr>(plan, seconds),
        otf::OtfPanel::NAME => go::<otf::OtfPanel>(plan, seconds),
        serve::Serve::NAME => go::<serve::Serve>(plan, seconds),
        churn::Churn::NAME => go::<churn::Churn>(plan, seconds),
        _ => return None,
    })
}

/// A traced run: the named workload runs an untraced pass and then a
/// traced pass of `seconds / 2` each; every other workload then runs a
/// traced pass of `side_seconds` (at least five tasks). Each per-layer
/// metric comes from the named workload if it exercises that layer, else
/// from the first other workload that does. `telemetry.overhead_pct` is the traced pass's task
/// median over the untraced pass's, minus one, in percent. The caller
/// enables the span recorder first.
pub fn run_traced(name: &str, plan: &Plan, seconds: f64, side_seconds: f64) -> Option<Traced> {
    fn go<W: Workload>(
        plan: &Plan,
        seconds: f64,
        untraced_first: bool,
    ) -> (Pass, Vec<String>, f64) {
        let _top = crate::trace::span(W::NAME);
        crate::trace::reset_telemetry();
        let (mut w, setups) = W::setup(plan);
        let setup_snap = h2_telemetry::snapshot();
        let mut build = Layers::new();
        let (pts, cfg) = w.build_inputs();
        layers::build_layers(&pts, &cfg, &setup_snap, setups.len(), &mut build);

        let mut untraced = Pass::default();
        if untraced_first {
            crate::trace::set_recording(false);
            w.measure(seconds, plan.min_tasks, &mut untraced);
            crate::trace::set_recording(true);
        }
        crate::trace::reset_telemetry();
        let mut pass = Pass::default();
        w.measure(seconds, plan.min_tasks, &mut pass);
        let snap = h2_telemetry::snapshot();
        w.layers(&snap, &mut pass);
        pass.layers.append(&mut build);
        let overhead = match (
            stats::median(&pass.task_ms),
            stats::median(&untraced.task_ms),
        ) {
            (Some(t), Some(u)) if untraced_first => (t / u - 1.0) * 100.0,
            _ => f64::NAN,
        };
        pass.absorb(untraced);
        (pass, vec![w.describe(), w.report()], overhead)
    }
    fn dispatch(
        name: &str,
        plan: &Plan,
        seconds: f64,
        named: bool,
    ) -> Option<(Pass, Vec<String>, f64)> {
        Some(match name {
            krr::Krr::NAME => go::<krr::Krr>(plan, seconds, named),
            otf::OtfPanel::NAME => go::<otf::OtfPanel>(plan, seconds, named),
            serve::Serve::NAME => go::<serve::Serve>(plan, seconds, named),
            churn::Churn::NAME => go::<churn::Churn>(plan, seconds, named),
            _ => return None,
        })
    }

    let (mut pass, mut lines, overhead_pct) = dispatch(name, plan, seconds / 2.0, true)?;
    // Side passes feed per-layer means only and need no tail.
    let side_plan = Plan {
        min_tasks: plan.min_tasks.min(SIDE_MIN_TASKS),
        ..plan.clone()
    };
    for &other in WORKLOADS.iter().filter(|&&w| w != name) {
        let (side, side_lines, _) =
            dispatch(other, &side_plan, side_seconds, false).expect("listed workload");
        for (k, v) in &side.layers {
            pass.layers.entry(k).or_insert(*v);
        }
        lines.extend(side_lines.into_iter().map(|l| format!("[{other}] {l}")));
        // A side pass's faults count, its operations do not: the failed
        // share of a traced run is that of its named workload, however
        // many rounds the side passes get through.
        pass.faults += side.faults;
        for e in side.errors {
            pass.note(format!("[{other}] {e}"));
        }
    }
    pass.layers.insert("telemetry.overhead_pct", overhead_pct);
    Some(Traced { pass, lines })
}
