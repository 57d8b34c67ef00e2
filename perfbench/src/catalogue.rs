//! Every metric the benchmark reports: name, unit, and which direction
//! is better. `BENCHMARK.json` at the repository root lists the same
//! entries (checked by the test below), and a run refuses to print a
//! result whose metric names or units drift from this list.

/// End-to-end metrics, reported with `--trace 0`.
pub const END_TO_END: [(&str, &str, &str); 6] = [
    ("setup_s", "s", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("tokens_per_s", "1/s", "higher"),
    ("ttft_p50_ms", "ms", "lower"),
    ("itl_p50_ms", "ms", "lower"),
];

/// Per-layer metrics, reported with `--trace 1`.
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    let mut out: Vec<(String, &'static str, &'static str)> = [
        ("setup.synthesize_s", "s", "lower"),
        ("setup.register_s", "s", "lower"),
        ("net.overhead_p50_ms", "ms", "lower"),
        ("net.overhead_p99_ms", "ms", "lower"),
        ("net.frames_out", "count", "higher"),
        ("net.frames_in", "count", "higher"),
        ("net.bytes_in", "bytes", "higher"),
        ("engine.queue_wait_p50_ms", "ms", "lower"),
        ("engine.queue_wait_p99_ms", "ms", "lower"),
        ("engine.service_p50_ms", "ms", "lower"),
        ("engine.open.batch_size_mean", "requests", "lower"),
        ("engine.closed.batch_size_mean", "requests", "higher"),
        ("engine.rejected", "count", "lower"),
        ("engine.gen_queue_wait_p50_ms", "ms", "lower"),
        ("engine.gen_steps_per_token", "ratio", "lower"),
        ("tail.latency_p95_ms", "ms", "lower"),
        ("tail.latency_p99_ms", "ms", "lower"),
        ("tail.ttft_p90_ms", "ms", "lower"),
        ("tail.itl_p95_ms", "ms", "lower"),
        ("tail.itl_p99_ms", "ms", "lower"),
        ("gen.late_p99_ms", "ms", "lower"),
    ]
    .into_iter()
    .map(|(n, u, b)| (n.to_string(), u, b))
    .collect();
    for mode in ["decoded", "index_domain"] {
        for shape in ["solo", "packed8"] {
            out.push((format!("model.{mode}.{shape}.forward_ms"), "ms", "lower"));
            for what in ["encode_share", "gemm_share", "snap_share", "other_share"] {
                out.push((format!("exec.{mode}.{shape}.{what}"), "share", "lower"));
            }
            out.push((format!("exec.{mode}.{shape}.decorated_ratio"), "ratio", "lower"));
        }
        out.push((format!("exec.{mode}.outlier_frac"), "share", "lower"));
    }
    out.push(("exec.index_domain.counter_gemms".into(), "count", "higher"));
    out.push(("exec.index_domain.pair_lut_gemms".into(), "count", "lower"));
    out.push(("decode.prefill_ms".into(), "ms", "lower"));
    for bucket in ["0_31", "32_63", "64_95", "96_127"] {
        out.push((format!("decode.step_ms_pos_{bucket}"), "ms", "lower"));
    }
    out.push(("decode.cache_bytes_per_position".into(), "bytes", "lower"));
    for &(name, unit, better) in END_TO_END.iter().skip(1) {
        out.push((format!("trace.overhead.{name}"), unit, better));
    }
    out
}

/// The unit of an end-to-end metric.
pub fn unit(name: &str) -> &'static str {
    END_TO_END.iter().find(|(n, _, _)| *n == name).map(|(_, u, _)| *u).expect("known metric")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let (head, layers) = json.split_once("\"per_layer\"").expect("a per_layer section");
        let (_, e2e) = head.split_once("\"end_to_end\"").expect("an end_to_end section");
        let entry = |(n, u, b): (&str, &str, &str)| {
            format!("\"name\": \"{n}\", \"unit\": \"{u}\", \"better\": \"{b}\"")
        };
        for (n, u, b) in END_TO_END {
            assert!(e2e.contains(&entry((n, u, b))), "end_to_end lacks {n} ({u}, {b})");
        }
        let layer = per_layer();
        for (n, u, b) in &layer {
            assert!(layers.contains(&entry((n, u, b))), "per_layer lacks {n} ({u}, {b})");
        }
        assert_eq!(e2e.matches("\"unit\"").count(), END_TO_END.len());
        assert_eq!(layers.matches("\"unit\"").count(), layer.len());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<String> = per_layer().into_iter().map(|(n, _, _)| n).collect();
        names.extend(END_TO_END.iter().map(|(n, _, _)| n.to_string()));
        let count = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), count);
    }
}
