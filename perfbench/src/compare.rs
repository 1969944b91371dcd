//! `perfbench compare BASE NEW`: per-workload medians, quartiles and
//! deltas of every end-to-end metric between two sets of result files.
//!
//! A result file holds a run's standard output (its last line is the
//! result JSON) and is named `<workload>.<anything>`, e.g.
//! `krr-solve.seed3.out`. Bounds come from `BENCHMARK.json`. A metric is
//! flagged WORSE when the new median is worse than the base median by
//! more than its bound, and UNRESOLVED when either set spreads wider than
//! the bound (quartile distance over median), unless every new run reads
//! better than every base run. A workload with runs in one set only, and
//! a metric that some runs report and others do not, are flagged MISSING:
//! a run or a metric that vanished is a failure, not noise.

use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Clone, Debug, PartialEq)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

/// One run's result line.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

/// Runs of one set, by workload.
pub type ResultSet = BTreeMap<String, Vec<RunResult>>;

/// Reads the end-to-end bounds of a `BENCHMARK.json`.
pub fn load_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    let list = v
        .get("end_to_end")
        .and_then(|l| l.as_array())
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|e| {
            let name = e.get("name").and_then(|x| x.as_str());
            let better = e.get("better").and_then(|x| x.as_str());
            let bound = e.get("bound").and_then(|x| x.as_f64());
            match (name, better, bound) {
                (Some(name), Some(better @ ("lower" | "higher")), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    lower_is_better: better == "lower",
                    bound,
                }),
                _ => Err("end_to_end entry without name, better or bound".to_string()),
            }
        })
        .collect()
}

/// Parses a run's output: the last non-empty line is the result JSON.
pub fn parse_result(output: &str) -> Result<RunResult, String> {
    let line = output
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("empty output")?;
    let v = serde_json::from_str(line).map_err(|e| format!("result line: {e:?}"))?;
    let field = |k: &str| v.get(k).ok_or(format!("result has no `{k}`"));
    let mut r = RunResult {
        correct: field("correct")?
            .as_bool()
            .ok_or("`correct` is not a bool")?,
        attempted: field("attempted")?
            .as_u64()
            .ok_or("`attempted` is not a count")?,
        failed: field("failed")?.as_u64().ok_or("`failed` is not a count")?,
        metrics: BTreeMap::new(),
    };
    let metrics = field("metrics")?;
    for name in crate::metrics::END_TO_END.iter().map(|m| m.name) {
        if let Some(x) = metrics
            .get(name)
            .and_then(|m| m.get("value"))
            .and_then(|x| x.as_f64())
        {
            r.metrics.insert(name.to_string(), x);
        }
    }
    Ok(r)
}

/// Reads every `<workload>.*` file of a directory.
pub fn load_set(dir: &Path) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths.into_iter().filter(|p| p.is_file()) {
        let file = path
            .file_name()
            .and_then(|f| f.to_str())
            .unwrap_or_default();
        let Some((workload, _)) = file.split_once('.') else {
            continue;
        };
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let r = parse_result(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        set.entry(workload.to_string()).or_default().push(r);
    }
    Ok(set)
}

/// Verdict for one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

/// Compares one metric's base and new samples under `b`. Returns the
/// verdict and the relative change of the median in the metric's worse
/// direction (positive is worse).
pub fn judge(b: &Bound, base: &[f64], new: &[f64]) -> (Verdict, f64) {
    let (Some(bm), Some(nm)) = (stats::median(base), stats::median(new)) else {
        return (Verdict::Unresolved, f64::NAN);
    };
    let sign = if b.lower_is_better { 1.0 } else { -1.0 };
    let worse = sign * (nm - bm) / bm;
    let spread = |xs: &[f64]| {
        let q = stats::quartiles(xs).expect("non-empty sample");
        (q[2] - q[0]) / stats::median(xs).expect("non-empty sample")
    };
    let separated = base
        .iter()
        .all(|&x| new.iter().all(|&y| sign * (y - x) < 0.0));
    let verdict = if worse > b.bound {
        Verdict::Worse
    } else if (spread(base) > b.bound || spread(new) > b.bound) && !separated {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (verdict, worse)
}

/// The comparison report, and whether anything is flagged WORSE or
/// MISSING, a run is incorrect, or the share of failed operations
/// differs.
pub fn compare(bounds: &[Bound], base: &ResultSet, new: &ResultSet) -> (String, bool) {
    let mut out = String::new();
    let mut bad = false;
    let fmt_q = |xs: &[f64]| match (stats::median(xs), stats::quartiles(xs)) {
        (Some(m), Some(q)) => format!("{m:>12.4} [{:.4}, {:.4}]", q[0], q[2]),
        _ => format!("{:>12}", "-"),
    };
    let workloads: std::collections::BTreeSet<&String> = base.keys().chain(new.keys()).collect();
    for w in workloads {
        let empty = Vec::new();
        let (b, n) = (base.get(w).unwrap_or(&empty), new.get(w).unwrap_or(&empty));
        out.push_str(&format!(
            "{w}: {} base runs, {} new runs\n",
            b.len(),
            n.len()
        ));
        if b.is_empty() || n.is_empty() {
            bad = true;
            out.push_str(&format!(
                "  FLAG: MISSING: no {} runs of {w}\n",
                if b.is_empty() { "base" } else { "new" }
            ));
            continue;
        }
        let share = |rs: &[RunResult]| {
            let a: u64 = rs.iter().map(|r| r.attempted).sum();
            let f: u64 = rs.iter().map(|r| r.failed).sum();
            (f, a)
        };
        let (bf, ba) = share(b);
        let (nf, na) = share(n);
        let incorrect = b.iter().chain(n).filter(|r| !r.correct).count();
        if incorrect > 0 {
            bad = true;
            out.push_str(&format!(
                "  FLAG: {incorrect} run(s) report correct=false\n"
            ));
        }
        // Compare f/a shares exactly by cross-multiplication.
        if (bf as u128) * (na as u128) != (nf as u128) * (ba as u128) {
            bad = true;
            out.push_str(&format!(
                "  FLAG: failed share differs: base {bf}/{ba}, new {nf}/{na}\n"
            ));
        }
        for bound in bounds {
            let pick = |rs: &[RunResult]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.metrics.get(&bound.name).copied())
                    .collect()
            };
            let (bx, nx) = (pick(b), pick(n));
            if bx.is_empty() && nx.is_empty() {
                out.push_str(&format!("  {:<14} not reported by any run\n", bound.name));
                continue;
            }
            if bx.len() < b.len() || nx.len() < n.len() {
                bad = true;
                out.push_str(&format!(
                    "  {:<14} FLAG: MISSING: reported by {}/{} base and {}/{} new runs\n",
                    bound.name,
                    bx.len(),
                    b.len(),
                    nx.len(),
                    n.len()
                ));
                continue;
            }
            let (verdict, worse) = judge(bound, &bx, &nx);
            if verdict == Verdict::Worse {
                bad = true;
            }
            out.push_str(&format!(
                "  {:<14} base {}  new {}  worse by {:>+7.2}%  bound {:>5.1}%  {}\n",
                bound.name,
                fmt_q(&bx),
                fmt_q(&nx),
                worse * 100.0,
                bound.bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Worse => "WORSE",
                    Verdict::Unresolved => "UNRESOLVED (spread wider than bound)",
                }
            ));
        }
    }
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(lower: bool, b: f64) -> Bound {
        Bound {
            name: "x".into(),
            lower_is_better: lower,
            bound: b,
        }
    }

    #[test]
    fn judges_worse_unresolved_and_ok() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [12.0, 12.1, 11.9, 12.0, 12.05];
        assert_eq!(judge(&bound(true, 0.1), &base, &slower).0, Verdict::Worse);
        assert_eq!(judge(&bound(false, 0.1), &base, &slower).0, Verdict::Ok);
        assert_eq!(judge(&bound(true, 0.1), &base, &base).0, Verdict::Ok);
        let noisy = [5.0, 15.0, 10.0, 7.0, 13.0];
        assert_eq!(
            judge(&bound(true, 0.1), &base, &noisy).0,
            Verdict::Unresolved
        );
        // Every new run better than every base run resolves a wide spread.
        let faster_noisy = [5.0, 9.0, 6.0, 9.5, 8.0];
        assert_eq!(
            judge(&bound(true, 0.1), &base, &faster_noisy).0,
            Verdict::Ok
        );
    }

    #[test]
    fn parses_the_last_line_and_flags_failed_share() {
        let out = "host: nproc=2\n{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
                   \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}\n";
        let r = parse_result(out).unwrap();
        assert!(r.correct);
        assert_eq!(r.metrics.get("setup_s"), Some(&0.5));
        let mut base = ResultSet::new();
        base.insert("w".into(), vec![r.clone()]);
        let mut failing = r.clone();
        failing.failed = 1;
        let mut new = ResultSet::new();
        new.insert("w".into(), vec![failing]);
        let b = vec![Bound {
            name: "setup_s".into(),
            lower_is_better: true,
            bound: 0.25,
        }];
        assert!(!compare(&b, &base, &base).1);
        assert!(compare(&b, &base, &new).1);
    }

    #[test]
    fn flags_a_missing_workload_or_metric() {
        let run = |setup: Option<f64>| RunResult {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: setup
                .map(|v| ("setup_s".to_string(), v))
                .into_iter()
                .collect(),
        };
        let b = vec![
            Bound {
                name: "setup_s".into(),
                lower_is_better: true,
                bound: 0.25,
            },
            // Reported by no run of either set: listed, not flagged.
            Bound {
                name: "task_tail_ms".into(),
                lower_is_better: true,
                bound: 0.25,
            },
        ];
        let set = |runs: Vec<RunResult>| -> ResultSet { [("w".to_string(), runs)].into() };
        let base = set(vec![run(Some(0.5)), run(Some(0.51))]);
        let (report, bad) = compare(&b, &base, &base);
        assert!(!bad, "{report}");
        assert!(report.contains("not reported"), "{report}");

        // The workload has no runs in one of the sets.
        let (report, bad) = compare(&b, &base, &ResultSet::new());
        assert!(bad && report.contains("MISSING: no new runs"), "{report}");
        let (report, bad) = compare(&b, &ResultSet::new(), &base);
        assert!(bad && report.contains("MISSING: no base runs"), "{report}");

        // One new run lost the metric, then every new run did.
        let (report, bad) = compare(&b, &base, &set(vec![run(Some(0.5)), run(None)]));
        assert!(
            bad && report.contains("reported by 2/2 base and 1/2 new"),
            "{report}"
        );
        let (report, bad) = compare(&b, &base, &set(vec![run(None), run(None)]));
        assert!(bad && report.contains("MISSING"), "{report}");
    }
}
