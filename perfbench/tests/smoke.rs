//! Every workload at smoke sizes, with every output check on, through
//! the same entry points the command uses.

use h2_perfbench::metrics::PER_LAYER;
use h2_perfbench::trace;
use h2_perfbench::workloads::{churn, run_e2e, run_traced, Plan, Scale, Workload, WORKLOADS};
use std::path::PathBuf;
use std::sync::Mutex;

/// The traced run resets the program's process-wide telemetry; the tests
/// of this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

fn plan(name: &str) -> Plan {
    Plan {
        seed: 3,
        scale: Scale::Smoke,
        setup_reps: 2,
        setup_min_s: 0.0,
        min_tasks: 3,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}")),
    }
}

#[test]
fn every_workload_runs_and_passes_its_checks() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for name in WORKLOADS {
        let out = run_e2e(name, &plan(name), 0.3).expect("known workload");
        let p = &out.pass;
        assert_eq!(p.faults, 0, "{name}: {:?}", p.errors);
        if name == churn::Churn::NAME {
            // Each round replays a known fault of the incremental update,
            // and the probe's product fails every time.
            assert!(p.failed > 0, "the update fault probe passed");
            assert_eq!(
                p.failed * churn::OPS_PER_ROUND,
                p.attempted,
                "{:?}",
                p.errors
            );
        } else {
            assert_eq!(p.failed, 0, "{name}: {:?}", p.errors);
        }
        assert!(p.task_ms.len() >= 3, "{name}: {} tasks", p.task_ms.len());
        assert!(p.attempted >= p.task_ms.len() as u64, "{name}");
        assert!(
            !p.calls.single_ms.is_empty(),
            "{name}: no single-vector call"
        );
        assert!(p.calls.cols > 0 && p.calls.secs > 0.0, "{name}");
        assert!(!p.round_cols_per_s.is_empty(), "{name}: no round rate");
        assert_eq!(out.setup_s.len(), 2, "{name}");
    }
    assert!(run_e2e("no-such-workload", &plan("x"), 0.1).is_none());
}

#[test]
fn a_traced_run_measures_every_layer() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    trace::enable();
    let t = run_traced("churn", &plan("traced"), 0.4, 0.1).expect("known workload");
    let spans = trace::finish();
    assert_eq!(t.pass.faults, 0, "{:?}", t.pass.errors);
    assert!(t.pass.failed > 0, "the update fault probe passed");
    assert!(
        t.pass.errors.iter().all(|e| e.starts_with("fault probe")),
        "{:?}",
        t.pass.errors
    );
    // The command adds the two host-relative figures after the run.
    let host = ["host.stream_gbps", "linalg.gemv_frac_stream"];
    for m in PER_LAYER.iter().filter(|m| !host.contains(&m.name)) {
        let v = t.pass.layers.get(m.name);
        assert!(v.is_some_and(|v| v.is_finite()), "{} not measured", m.name);
    }
    for name in WORKLOADS {
        assert!(spans.iter().any(|s| s.name == name), "no span for {name}");
    }
}
