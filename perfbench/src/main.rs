//! `perfbench`: runs one workload of the H² benchmark and prints its
//! metrics, or compares two sets of results. Run it from the repository
//! root:
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <base-dir> <new-dir> [--spec BENCHMARK.json]
//! ```
//!
//! The last line of standard output is the result JSON; every line before
//! it is for people.

use h2_perfbench::metrics::{self, Metric};
use h2_perfbench::workloads::{self, Plan, Scale, WORKLOADS};
use h2_perfbench::{compare, host, stats, trace};
use std::path::Path;
use std::process::exit;

const USAGE: &str = "usage:
  perfbench --workload <krr-solve|otf-panel|serve-sharded|churn> --seed <n> --seconds <s> --trace <0|1>
  perfbench compare <base-dir> <new-dir> [--spec BENCHMARK.json]";

/// Where a run writes files (the traced run's Perfetto trace, the serving
/// workload's operator file while it is mapped), relative to the
/// repository root it runs from.
const OUT_DIR: &str = ".perfbench";

/// Longest measured time a run accepts. The `churn` edit sequence is
/// checked clean for many more rounds than a run this long performs
/// (README.md, "churn").
const MAX_SECONDS: f64 = 60.0;

/// Set-ups per end-to-end run, at the least, and the seconds they span
/// at the least. The host runs in faster and slower spells of a second
/// or more (one build of the `churn` operator takes 50 ms in one and
/// 85 ms in the other), so eleven builds back to back fall in one spell
/// and their median flips between runs; builds that span several spells
/// give a median that repeats. `setup_s` is their median.
const SETUP_REPS: usize = 11;
const SETUP_SECONDS: f64 = 5.0;

struct Opts {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let mut value = || it.next().ok_or(format!("{a} needs a value"));
            match a.as_str() {
                "--workload" => workload = Some(value()?.clone()),
                "--seed" => {
                    seed = Some(
                        value()?
                            .parse::<u64>()
                            .map_err(|e| format!("--seed: {e}"))?,
                    )
                }
                "--seconds" => {
                    let s = value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s > 0.0 && s <= MAX_SECONDS) {
                        return Err(format!("--seconds must be in (0, {MAX_SECONDS}]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace takes 0 or 1, not {other}")),
                    })
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let workload = workload.ok_or("--workload is required")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload {workload}"));
        }
        Ok(Opts {
            workload,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }

    fn plan(&self, setup_reps: usize, setup_min_s: f64) -> Plan {
        Plan {
            seed: self.seed,
            scale: Scale::Bench,
            setup_reps,
            setup_min_s,
            min_tasks: stats::TAIL_MIN_SAMPLES,
            work_dir: OUT_DIR.into(),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        exit(run_compare(&args[1..]));
    }
    let opts = Opts::parse(&args).unwrap_or_else(|e| {
        eprintln!("{e}\n{USAGE}");
        exit(2)
    });
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        opts.workload,
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    if opts.trace {
        run_trace(&opts)
    } else {
        run_end_to_end(&opts)
    }
}

fn run_end_to_end(opts: &Opts) {
    let out = workloads::run_e2e(
        &opts.workload,
        &opts.plan(SETUP_REPS, SETUP_SECONDS),
        opts.seconds,
    )
    .expect("workload name checked");
    let facts = host::HostFacts::measure(Path::new("."));
    for l in &out.lines {
        println!("{l}");
    }
    println!("{}", facts.line());
    let p = &out.pass;
    let tail = stats::tail(&p.task_ms);
    println!(
        "tasks: {} (p50 {:.3} ms; tail = p{} over {} samples, {:.3} ms); {} single-vector \
         calls (p50 {:.3} ms), {} columns in {:.3} s inside operator calls; setups {:?} s",
        p.task_ms.len(),
        stats::median(&p.task_ms).unwrap_or(f64::NAN),
        tail.map_or(0, |t| t.0),
        p.task_ms.len(),
        tail.map_or(f64::NAN, |t| t.1),
        p.calls.single_ms.len(),
        stats::median(&p.calls.single_ms).unwrap_or(f64::NAN),
        p.calls.cols,
        p.calls.secs,
        out.setup_s
    );
    let values: Vec<(Metric, Option<f64>)> = metrics::END_TO_END
        .iter()
        .map(|&m| {
            let v = match m.name {
                "setup_s" => stats::median(&out.setup_s),
                "task_p90_ms" => stats::percentile(&p.task_ms, 90),
                "task_tail_ms" => tail.map(|t| t.1),
                "matvec_p90_ms" => stats::percentile(&p.calls.single_ms, 90),
                "cols_per_s_p10" => stats::percentile(&p.round_cols_per_s, 10),
                "peak_rss_mb" => p.peak_rss_mb,
                other => unreachable!("end-to-end metric {other} has no source"),
            };
            (m, v)
        })
        .collect();
    finish(p, &values);
}

fn run_trace(opts: &Opts) {
    std::fs::create_dir_all(OUT_DIR).expect("create the output directory");
    trace::enable();
    let side_seconds = (opts.seconds / 8.0).max(1.0);
    let mut t = workloads::run_traced(
        &opts.workload,
        &opts.plan(1, 0.0),
        opts.seconds,
        side_seconds,
    )
    .expect("workload name checked");
    let spans = trace::finish();
    let facts = host::HostFacts::measure(Path::new("."));
    for l in &t.lines {
        println!("{l}");
    }
    println!("{}", facts.line());
    let layers = &mut t.pass.layers;
    layers.insert("host.stream_gbps", facts.triad_gbps);
    if let Some(&g) = layers.get("linalg.gemv_gbps") {
        layers.insert("linalg.gemv_frac_stream", g / facts.triad_gbps);
    }
    let path = Path::new(OUT_DIR).join(format!("trace-{}-{}.json", opts.workload, opts.seed));
    std::fs::write(&path, trace::chrome_json(&spans)).expect("write the trace file");
    println!(
        "trace: {} benchmark-side spans written to {}",
        spans.len(),
        path.display()
    );
    print!("{}", trace::render_table(&trace::self_table(&spans)));
    let values: Vec<(Metric, Option<f64>)> = metrics::PER_LAYER
        .iter()
        .map(|&m| (m, layers.get(m.name).copied()))
        .collect();
    finish(&t.pass, &values);
}

/// Prints the errors, the metrics and the result line. A run is correct
/// when no output failed a check.
fn finish(p: &workloads::Pass, values: &[(Metric, Option<f64>)]) {
    for e in &p.errors {
        println!("error: {e}");
    }
    for (m, v) in values {
        match v {
            Some(v) if v.is_finite() => println!("{:<30} {:>16.6} {}", m.name, v, m.unit),
            _ => println!("{:<30} {:>16} {} (not measured)", m.name, "-", m.unit),
        }
    }
    println!(
        "{}",
        metrics::result_json(p.faults == 0, p.attempted, p.failed, values)
    );
}

fn run_compare(args: &[String]) -> i32 {
    let mut spec = "BENCHMARK.json".to_string();
    let mut dirs = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => match it.next() {
                Some(s) => spec = s.clone(),
                None => {
                    eprintln!("--spec needs a path\n{USAGE}");
                    return 2;
                }
            },
            d => dirs.push(d.to_string()),
        }
    }
    let [base, new] = &dirs[..] else {
        eprintln!("compare takes two directories\n{USAGE}");
        return 2;
    };
    let loaded = compare::load_bounds(Path::new(&spec)).and_then(|b| {
        Ok((
            b,
            compare::load_set(Path::new(base))?,
            compare::load_set(Path::new(new))?,
        ))
    });
    match loaded {
        Ok((bounds, b, n)) => {
            let (report, bad) = compare::compare(&bounds, &b, &n);
            print!("{report}");
            i32::from(bad)
        }
        Err(e) => {
            eprintln!("compare: {e}");
            2
        }
    }
}
