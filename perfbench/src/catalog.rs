//! Every metric the benchmark reports, with the end-to-end metric and
//! workloads each per-layer metric explains. `BENCHMARK.json` mirrors
//! these tables (a test keeps the two in step); `--list` prints them.

/// An end-to-end metric: `(name, unit, better)`. Every workload reports
/// all of them, so each has a meaning on the batch and the live path.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    // Seed to inputs ready (median of several set-ups in one run).
    ("setup_s", "s", "lower"),
    // Wall time of the measured pass: batch chain + 62 comparisons +
    // stream passes on paper_batch, replay to drain on the live ones.
    ("wall_s", "s", "lower"),
    // Process user+sys CPU seconds over the measured pass.
    ("cpu_s", "s", "lower"),
    // Process VmHWM over set-up and the first measured pass.
    ("peak_rss_mib", "MiB", "lower"),
];

/// A per-layer metric.
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// The end-to-end figure it explains.
    pub target: &'static str,
    /// Workloads on which the layer does work (elsewhere it reads 0).
    pub workloads: &'static str,
}

const fn l(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    target: &'static str,
    workloads: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        target,
        workloads,
    }
}

const BATCH: &str = "paper_batch";
const LIVE: &str = "live_churn,edge_churn,live_bulk";
const ALL: &str = "paper_batch,live_churn,edge_churn,live_bulk";
const EDGE: &str = "edge_churn";

/// Per-layer metrics, reported by `--trace 1` runs.
#[rustfmt::skip]
pub const PER_LAYER: &[Layer] = &[
    // The paper_batch breakdown of wall_s.
    l("batch_s", "s", "lower", "wall_s", BATCH),
    l("stream_s", "s", "lower", "wall_s", BATCH),
    l("failed_share", "ratio", "lower", "correct", ALL),
    l("core.generate_s", "s", "lower", "batch_s,setup_s", ALL),
    l("core.generate.peak_rss_mib", "MiB", "lower", "peak_rss_mib", BATCH),
    l("sim.run_s", "s", "lower", "batch_s", BATCH),
    l("sim.run.peak_rss_mib", "MiB", "lower", "peak_rss_mib", BATCH),
    l("trace.sanitize_s", "s", "lower", "batch_s", BATCH),
    l("trace.sanitize.peak_rss_mib", "MiB", "lower", "peak_rss_mib", BATCH),
    l("trace.sessionize_s", "s", "lower", "batch_s", BATCH),
    l("trace.sessionize.peak_rss_mib", "MiB", "lower", "peak_rss_mib", BATCH),
    l("analysis.characterize_s", "s", "lower", "batch_s", BATCH),
    l("analysis.characterize.peak_rss_mib", "MiB", "lower", "peak_rss_mib", BATCH),
    l("analysis.client_s", "s", "lower", "batch_s", BATCH),
    l("analysis.client.peak_rss_mib", "MiB", "lower", "peak_rss_mib", BATCH),
    l("analysis.session_s", "s", "lower", "batch_s", BATCH),
    l("analysis.session.peak_rss_mib", "MiB", "lower", "peak_rss_mib", BATCH),
    l("analysis.sweep_s", "s", "lower", "batch_s", BATCH),
    l("analysis.sweep.peak_rss_mib", "MiB", "lower", "peak_rss_mib", BATCH),
    l("analysis.transfer_s", "s", "lower", "batch_s", BATCH),
    l("analysis.transfer.peak_rss_mib", "MiB", "lower", "peak_rss_mib", BATCH),
    l("figures.experiments_s", "s", "lower", "batch_s", BATCH),
    l("figures.experiments.peak_rss_mib", "MiB", "lower", "peak_rss_mib", BATCH),
    l("core.transfers", "count", "higher", "batch_s", ALL),
    l("trace.rejected", "count", "lower", "batch_s", BATCH),
    l("trace.sessions", "count", "higher", "batch_s", BATCH),
    l("figures.comparisons", "count", "higher", "failed_share", BATCH),
    l("figures.misses", "count", "lower", "failed_share", BATCH),
    l("batch.span_sum_s", "s", "lower", "batch_s", BATCH),
    l("batch.span_share", "ratio", "higher", "batch_s", BATCH),
    l("batch.trace_overhead_s", "s", "lower", "batch_s", BATCH),
    l("trace.wms_render_s", "s", "lower", "stream_s", BATCH),
    l("stream.text_ingest_s", "s", "lower", "stream_s", BATCH),
    l("trace.ltc_convert_s", "s", "lower", "stream_s", BATCH),
    l("stream.ltc_ingest_s", "s", "lower", "stream_s", BATCH),
    l("stream.sketch_bytes", "bytes", "lower", "peak_rss_mib", BATCH),
    // The live breakdown of wall_s and cpu_s.
    l("served_gbps", "GB/s", "higher", "wall_s", LIVE),
    l("stretch", "ratio", "lower", "wall_s", LIVE),
    l("replay.accept_cpu_s", "s", "lower", "cpu_s", LIVE),
    l("replay.reactor_cpu_s", "s", "lower", "cpu_s", LIVE),
    l("replay.driver_cpu_s", "s", "lower", "cpu_s", LIVE),
    l("edge.relay_cpu_s", "s", "lower", "cpu_s", EDGE),
    l("replay.other_cpu_s", "s", "lower", "cpu_s", LIVE),
    l("replay.accept_busy", "ratio", "lower", "stretch", LIVE),
    l("replay.reactor_busy", "ratio", "lower", "stretch", LIVE),
    l("replay.driver_busy", "ratio", "lower", "stretch", LIVE),
    l("edge.relay_busy", "ratio", "lower", "stretch", EDGE),
    l("srv.conns", "count", "higher", "failed_share", LIVE),
    l("srv.completed", "count", "higher", "failed_share", LIVE),
    l("srv.rejected", "count", "lower", "failed_share", LIVE),
    l("srv.slow_dropped", "count", "lower", "failed_share", LIVE),
    l("srv.truncated", "count", "lower", "failed_share", LIVE),
    l("srv.bad_requests", "count", "lower", "failed_share", LIVE),
    l("srv.bytes_sent", "bytes", "higher", "served_gbps", LIVE),
    l("edge.conns", "count", "higher", "failed_share", EDGE),
    l("edge.completed", "count", "higher", "failed_share", EDGE),
    l("edge.truncated", "count", "lower", "failed_share", EDGE),
    l("edge.laps", "count", "lower", "failed_share", EDGE),
    l("edge.upstream_busy", "count", "lower", "failed_share", EDGE),
    l("edge.subscriptions", "count", "lower", "served_gbps", EDGE),
    l("drv.connects", "count", "higher", "failed_share", LIVE),
    l("drv.connect_failures", "count", "lower", "failed_share", LIVE),
    l("drv.rejected", "count", "lower", "failed_share", LIVE),
    l("drv.short", "count", "lower", "failed_share", LIVE),
    l("drv.lateness_ms.p50", "ms", "lower", "stretch", LIVE),
    l("drv.lateness_ms.p99", "ms", "lower", "stretch", LIVE),
    l("srv.pacing_error_ns.p50", "ns", "lower", "stretch", LIVE),
    l("srv.pacing_error_ns.p99", "ns", "lower", "stretch", LIVE),
    l("srv.transfer_wall_ms.p50", "ms", "lower", "stretch", LIVE),
    l("srv.transfer_wall_ms.p99", "ms", "lower", "stretch", LIVE),
    l("srv.backlog_bytes.p50", "bytes", "lower", "stretch", LIVE),
    l("srv.backlog_bytes.p99", "bytes", "lower", "stretch", LIVE),
    l("edge.ring_lag_bytes.p50", "bytes", "lower", "stretch", EDGE),
    l("edge.ring_lag_bytes.p99", "bytes", "lower", "stretch", EDGE),
    l("edge.egress_ratio", "ratio", "lower", "served_gbps", EDGE),
    l("trace.schedule_s", "s", "lower", "setup_s", LIVE),
    l("replay.reference_s", "s", "lower", "setup_s", LIVE),
    l("replay.start_s", "s", "lower", "setup_s", LIVE),
    l("replay.finish_s", "s", "lower", "stretch", LIVE),
    l("drv.offered_connects_per_s", "1/s", "higher", "stretch", LIVE),
    // Host facts and the thread counts used, recorded beside every run.
    l("host.nproc", "count", "higher", "cpu_s", ALL),
    l("host.port_budget", "count", "higher", "failed_share", ALL),
    l("host.tcp_tw_reuse", "count", "higher", "failed_share", ALL),
    l("threads.server_shards", "count", "lower", "cpu_s", LIVE),
    l("threads.relays", "count", "lower", "cpu_s", EDGE),
    l("threads.driver", "count", "lower", "cpu_s", LIVE),
];

/// The catalogue as a table for `--list`.
pub fn render() -> String {
    let mut out = String::from("end-to-end (every workload, --trace 0):\n");
    for (name, unit, better) in END_TO_END {
        out.push_str(&format!("  {name:<36} {unit:<6} {better}\n"));
    }
    out.push_str("per-layer (--trace 1): name, unit, better, explains, workloads\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "  {:<36} {:<6} {:<7} {:<13} {}\n",
            m.name, m.unit, m.better, m.target, m.workloads
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        serde_json::from_str(&text).unwrap()
    }

    fn rows(v: &serde_json::Value) -> Vec<(String, String, String)> {
        let serde_json::Value::Array(items) = v else {
            panic!("not an array: {v:?}");
        };
        items
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                    m["better"].as_str().unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let bench = benchmark_json();
        let e2e: Vec<_> = END_TO_END
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(rows(&bench["end_to_end"]), e2e);
        let layers: Vec<_> = PER_LAYER
            .iter()
            .map(|m| (m.name.to_string(), m.unit.to_string(), m.better.to_string()))
            .collect();
        assert_eq!(rows(&bench["per_layer"]), layers);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        assert!(PER_LAYER.len() <= 128);
    }
}
