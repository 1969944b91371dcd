//! The metrics a run reports and the one-line JSON result it ends with.

/// A reported metric. Which direction is better, and the bound, are
/// read from `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [Metric; 6] = [
    m("setup_s", "s"),
    m("task_p90_ms", "ms"),
    m("task_tail_ms", "ms"),
    m("matvec_p90_ms", "ms"),
    m("cols_per_s_p10", "1/s"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every traced run. README.md says which
/// end-to-end metric each should move, on which workload.
pub const PER_LAYER: [Metric; 44] = [
    m("host.stream_gbps", "GB/s"),
    m("build.tree_ms", "ms"),
    m("build.sampling_ms", "ms"),
    m("build.id_ms", "ms"),
    m("build.basis_ms", "ms"),
    m("build.blocks_ms", "ms"),
    m("linalg.gemv_gbps", "GB/s"),
    m("linalg.gemv_frac_stream", "ratio"),
    m("core.upward_ms", "ms"),
    m("core.horizontal_ms", "ms"),
    m("core.downward_ms", "ms"),
    m("core.leaf_ms", "ms"),
    m("core.block_mb_per_matvec", "MB"),
    m("core.panel_ms_per_col", "ms"),
    m("kernels.evals_per_task", "count"),
    m("kernels.gevals_per_s", "1e9/s"),
    m("cache.hit_ratio", "ratio"),
    m("cache.misses_per_matvec", "count"),
    m("cache.generate_ms", "ms"),
    m("cache.stale_purged_per_round", "count"),
    m("cache.resident_mb", "MB"),
    m("solvers.iterations", "count"),
    m("solvers.overhead_ms", "ms"),
    m("update.insert_ms", "ms"),
    m("update.remove_ms", "ms"),
    m("update.path_nodes", "count"),
    m("update.refactored_blocks", "count"),
    m("update.rebuilds", "count"),
    m("dist.bytes_per_matvec", "bytes"),
    m("dist.messages_per_matvec", "count"),
    m("dist.shard_max_ms", "ms"),
    m("dist.coord_collect_ms", "ms"),
    m("dist.imbalance", "ratio"),
    m("dist.sweeps_per_batch", "count"),
    m("codec.save_ms", "ms"),
    m("codec.load_mmap_ms", "ms"),
    m("codec.resident_mb_at_load", "MB"),
    m("serve.queue_wait_p50_ms", "ms"),
    m("serve.generator_lag_ms", "ms"),
    m("tenant.heavy_p50_ms", "ms"),
    m("tenant.light_p50_ms", "ms"),
    m("serve.sweep_ms", "ms"),
    m("serve.batch_cols", "count"),
    m("telemetry.overhead_pct", "%"),
];

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`, each metric with its value (all digits) and unit. Metrics
/// without a finite value are left out.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &[(Metric, Option<f64>)],
) -> String {
    let body: Vec<String> = values
        .iter()
        .filter_map(|(m, v)| {
            let v = v.filter(|v| v.is_finite())?;
            Some(format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            ))
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_fixed_keys_and_full_digits() {
        let line = result_json(
            true,
            12,
            0,
            &[
                (END_TO_END[0], Some(0.8127345)),
                (END_TO_END[1], None),
                (END_TO_END[2], Some(f64::NAN)),
                (END_TO_END[4], Some(2.0)),
            ],
        );
        let v = serde_json::from_str(&line).expect("result line is JSON");
        assert_eq!(v.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("attempted").unwrap().as_u64(), Some(12));
        assert_eq!(v.get("failed").unwrap().as_u64(), Some(0));
        let metrics = v.get("metrics").unwrap();
        let setup = metrics.get("setup_s").unwrap();
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(0.8127345));
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert!(metrics.get("task_p90_ms").is_none());
        assert!(metrics.get("task_tail_ms").is_none());
        assert!(line.contains("\"value\": 2.0"));
    }

    /// `BENCHMARK.json` at the repository root names exactly these
    /// metrics with these units, and only workloads the command runs.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec = serde_json::from_str(&text).expect("BENCHMARK.json is JSON");
        for (key, list) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let entries = spec.get(key).unwrap().as_array().unwrap();
            assert_eq!(entries.len(), list.len(), "{key}");
            for (e, m) in entries.iter().zip(list) {
                assert_eq!(e.get("name").unwrap().as_str(), Some(m.name));
                assert_eq!(e.get("unit").unwrap().as_str(), Some(m.unit));
            }
        }
        for w in spec.get("workloads").unwrap().as_array().unwrap() {
            let name = w.get("name").unwrap().as_str().unwrap();
            assert!(crate::workloads::WORKLOADS.contains(&name), "{name}");
        }
    }
}
