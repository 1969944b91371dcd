//! Benchmark-side spans, recorded only in the traced run: the program's
//! own telemetry spans (`h2_telemetry::span_labeled`, label
//! [`LABEL`]) opened in the benchmark's files around each layer call.
//! What this module adds is the switch that the untraced pass of a traced
//! run turns off, and a self-time table computed from the recorded spans;
//! the Chrome/Perfetto trace is written by the program's own exporter.

use h2_telemetry::{SpanRecord, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// The label that marks a span as the benchmark's.
pub const LABEL: &str = "perfbench";

static ON: AtomicBool = AtomicBool::new(false);
/// Benchmark-side spans kept across resets of the program's telemetry.
static KEPT: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

/// Starts recording (discarding spans kept before).
pub fn enable() {
    KEPT.lock().expect("span store poisoned").clear();
    ON.store(true, Ordering::Relaxed);
}

/// Suspends (`false`) or resumes (`true`) recording: the untraced pass of
/// a traced run runs between the two. Spans already open close normally.
pub fn set_recording(on: bool) {
    ON.store(on, Ordering::Relaxed);
}

/// Whether benchmark-side spans are recorded now.
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Opens a benchmark-side span, closed when the guard drops; `None` when
/// recording is off.
pub fn span(name: &'static str) -> Option<h2_telemetry::Span> {
    enabled().then(|| h2_telemetry::span_labeled(name, LABEL))
}

/// Keeps the benchmark-side spans recorded so far, then zeroes the
/// program's counters and spans (`h2_telemetry::reset`).
pub fn reset_telemetry() {
    keep();
    h2_telemetry::reset();
}

fn keep() {
    let spans = h2_telemetry::snapshot().spans;
    KEPT.lock().expect("span store poisoned").extend(
        spans
            .into_iter()
            .filter(|s| s.label.as_deref() == Some(LABEL)),
    );
}

/// Stops recording and returns every benchmark-side span, in start order.
pub fn finish() -> Vec<SpanRecord> {
    keep();
    ON.store(false, Ordering::Relaxed);
    let mut spans = std::mem::take(&mut *KEPT.lock().expect("span store poisoned"));
    spans.sort_by_key(|s| (s.start_ns, s.tid));
    spans
}

/// Chrome trace-event JSON of `spans`, loadable in Perfetto or
/// `chrome://tracing`.
pub fn chrome_json(spans: &[SpanRecord]) -> String {
    TelemetrySnapshot {
        counters: BTreeMap::new(),
        spans: spans.to_vec(),
    }
    .chrome_trace_json()
}

/// Each span's duration minus that of its children: the spans of `spans`
/// on the same thread that it directly contains.
pub fn self_ns(spans: &[SpanRecord]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| {
        let s = &spans[i];
        (s.tid, s.start_ns, std::cmp::Reverse(s.dur_ns), s.depth)
    });
    let mut own: Vec<u64> = spans.iter().map(|s| s.dur_ns).collect();
    let mut open: Vec<usize> = Vec::new();
    for i in order {
        let s = &spans[i];
        while let Some(&top) = open.last() {
            let t = &spans[top];
            if t.tid == s.tid && t.start_ns <= s.start_ns && s.end_ns() <= t.end_ns() {
                break;
            }
            open.pop();
        }
        if let Some(&parent) = open.last() {
            own[parent] = own[parent].saturating_sub(s.dur_ns);
        }
        open.push(i);
    }
    own
}

/// The layer a span belongs to: its name up to the first dot.
pub fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// One row of the self-time table.
#[derive(Clone, Debug, PartialEq)]
pub struct SelfRow {
    pub name: String,
    pub count: u64,
    pub total_ms: f64,
    pub self_ms: f64,
}

/// Per-span-name and per-layer totals, largest self time first. Layer
/// rows are named `layer:*`.
pub fn self_table(spans: &[SpanRecord]) -> Vec<SelfRow> {
    let mut by: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        for key in [s.name.to_string(), format!("{}:*", layer_of(s.name))] {
            let e = by.entry(key).or_default();
            e.0 += 1;
            e.1 += s.dur_ns;
            e.2 += own;
        }
    }
    let mut rows: Vec<SelfRow> = by
        .into_iter()
        .map(|(name, (count, total, own))| SelfRow {
            name,
            count,
            total_ms: total as f64 / 1e6,
            self_ms: own as f64 / 1e6,
        })
        .collect();
    rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms).then(a.name.cmp(&b.name)));
    rows
}

/// The self-time table as aligned text.
pub fn render_table(rows: &[SelfRow]) -> String {
    let mut out = format!(
        "{:<28} {:>8} {:>12} {:>12}\n",
        "span", "count", "total ms", "self ms"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<28} {:>8} {:>12.3} {:>12.3}\n",
            r.name, r.count, r.total_ms, r.self_ms
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, tid: u64, start_ns: u64, dur_ns: u64, depth: u32) -> SpanRecord {
        SpanRecord {
            name,
            label: Some(LABEL.into()),
            tid,
            start_ns,
            dur_ns,
            depth,
            trace: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_on_the_same_thread() {
        let spans = [
            rec("a.outer", 1, 0, 100, 1),
            rec("b.inner", 1, 10, 30, 2),
            rec("b.deep", 1, 15, 10, 3),
            rec("b.inner", 1, 50, 20, 2),
            // Same start and length as its parent: the deeper one is the child.
            rec("c.twin", 1, 50, 20, 3),
            // Overlaps `a.outer` in time, but on another thread.
            rec("d.other", 2, 20, 40, 1),
        ];
        assert_eq!(self_ns(&spans), vec![50, 20, 10, 0, 20, 40]);
        let table = self_table(&spans);
        let row = |n: &str| table.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(row("b:*").count, 3);
        assert_eq!(row("b:*").self_ms, 30.0 / 1e6);
        assert_eq!(row("a.outer").total_ms, 100.0 / 1e6);
        let v = serde_json::from_str(&chrome_json(&spans)).expect("trace is JSON");
        assert_eq!(v.get("traceEvents").unwrap().as_array().unwrap().len(), 6);
    }

    #[test]
    fn spans_are_recorded_only_while_on() {
        assert!(span("off.outer").is_none());
        enable();
        {
            let _outer = span("a.outer");
            let _program = h2_telemetry::span("program.phase");
            let _inner = span("b.inner");
        }
        set_recording(false);
        assert!(span("off.again").is_none());
        let spans = finish();
        assert!(!enabled());
        let names: Vec<_> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, ["a.outer", "b.inner"]);
        assert_eq!(self_ns(&spans)[1], spans[1].dur_ns);
    }
}
