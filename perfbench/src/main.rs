//! `lsw-perfbench` — the lsw benchmark: named workloads over the batch
//! and live paths, measured end to end (tracing off) or per layer
//! (tracing on), with every output checked.
//!
//! ```text
//! lsw-perfbench --workload paper_batch|live_churn|edge_churn|live_bulk
//!               --seed N --seconds S --trace 0|1
//! lsw-perfbench --list
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The lines before it are the human-readable report: host facts, the
//! workload's figures with units, and every failed check.

// A benchmark exists to read the wall clock; the workspace-wide ban on
// ambient clocks (clippy.toml, mirroring xtask L002) guards the
// deterministic pipeline, not the harness timing it.
#![allow(clippy::disallowed_methods)]

mod batch;
mod catalog;
mod live;
mod outcome;
mod procfs;
mod spans;

use live::Live;
use std::process::exit;

/// Writes a traced run's spans to `.perfbench/` in the working directory.
pub(crate) fn write_spans(workload: &str, seed: u64, spans: &spans::Spans) {
    let dir = std::path::Path::new(".perfbench");
    let path = dir.join(format!("spans-{workload}-seed{seed}.json"));
    if std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, spans.to_json()))
        .is_ok()
    {
        println!("  spans written to {}", path.display());
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: lsw-perfbench --workload paper_batch|live_churn|edge_churn|live_bulk \
         --seed N --seconds S --trace 0|1\n       lsw-perfbench --list"
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--list") {
        print!("{}", catalog::render());
        return;
    }
    let flag = |name: &str| -> &str {
        let Some(i) = args.iter().position(|a| a == name) else {
            usage();
        };
        args.get(i + 1).map_or_else(|| usage(), String::as_str)
    };
    let workload = flag("--workload").to_string();
    let seed: u64 = flag("--seed").parse().unwrap_or_else(|_| usage());
    let seconds: f64 = flag("--seconds").parse().unwrap_or_else(|_| usage());
    let trace = match flag("--trace") {
        "0" => false,
        "1" => true,
        _ => usage(),
    };

    let host = procfs::Host::read();
    println!("host: {}", host.render());
    let mut out = match workload.as_str() {
        "paper_batch" => batch::run(seed, seconds, trace),
        "live_churn" => live::run(Live::Churn, seed, seconds, trace),
        "edge_churn" => live::run(Live::Edge, seed, seconds, trace),
        "live_bulk" => live::run(Live::Bulk, seed, seconds, trace),
        _ => usage(),
    };
    out.set("host.nproc", host.nproc as f64);
    out.set("host.port_budget", f64::from(host.port_budget()));
    out.set("host.tcp_tw_reuse", f64::from(host.tw_reuse));

    for line in &out.lines {
        println!("{line}");
    }
    for (name, unit, _) in catalog::END_TO_END {
        if let Some(v) = out.values.get(name) {
            println!("  {name:<14} {v:>14.4} {unit}");
        }
    }
    for name in [
        "batch_s",
        "stream_s",
        "served_gbps",
        "stretch",
        "failed_share",
    ] {
        if let Some(m) = catalog::PER_LAYER.iter().find(|m| m.name == name) {
            if let Some(v) = out.values.get(name) {
                println!("  {name:<14} {v:>14.4} {}", m.unit);
            }
        }
    }
    let json = out.result_json(trace);
    let verdict = if out.problems.is_empty() {
        "VALID"
    } else {
        "INVALID"
    };
    println!("verdict: {verdict} [{}]", host.render());
    for p in &out.problems {
        println!("  check failed: {p}");
    }
    println!("{json}");
}
