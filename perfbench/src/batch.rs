//! `paper_batch`: the paper-scale batch path, no sockets.
//!
//! One pass builds the reproduction context at `Scale::Paper` (generate
//! → simulate with the harvest anomaly → sanitize → sessionize →
//! characterize), evaluates every experiment's paper comparisons, then
//! renders the same trace as WMS text and runs the streaming
//! characterizer over it, converts the text to `ltc` and streams that.
//!
//! The traced run repeats the chain one public call at a time, and times
//! the three characterize layers (which `characterize` runs
//! concurrently) one at a time so their spans add up.

use crate::outcome::{digest, failed_share, median, timed, Outcome};
use crate::procfs;
use crate::spans::Spans;
use lsw_analysis::{characterize, client_layer, session_layer, transfer_layer};
use lsw_core::config::WorkloadConfig;
use lsw_core::generator::Generator;
use lsw_figures::context::{ReproContext, Scale};
use lsw_figures::experiments;
use lsw_sim::{SimConfig, Simulator};
use lsw_stream::{StreamAnalyzer, StreamConfig, StreamReport};
use lsw_trace::ltc::LtcWriter;
use lsw_trace::sanitize::sanitize;
use lsw_trace::session::{SessionConfig, Sessions};
use lsw_trace::wms;
use std::time::Instant;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// Share of the traced chain's wall time its spans must cover: the
/// untimed glue between the timed calls stays under 5%.
const SPAN_COVERAGE: f64 = 0.95;

/// What one untraced pass measured.
struct Pass {
    batch_s: f64,
    render_s: f64,
    text_s: f64,
    convert_s: f64,
    ltc_s: f64,
    wall_s: f64,
    cpu_s: f64,
    transfers: usize,
    sessions: usize,
    rejected: usize,
    report_transfers: usize,
    comparisons: usize,
    misses: usize,
    experiments: usize,
    report_digest: u64,
    text: Result<StreamReport, String>,
    ltc: Result<StreamReport, String>,
}

/// Text → `ltc` the way `lsw convert` does it: parse whole lines with the
/// zero-copy WMS parser and push records straight into the block writer.
fn convert(text: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::with_capacity(text.len() / 4);
    let mut writer = LtcWriter::new(&mut out).map_err(|e| e.to_string())?;
    for parsed in wms::parse_lines_bytes(text) {
        let (_, entry) = parsed.map_err(|e| e.to_string())?;
        writer.push(&entry).map_err(|e| e.to_string())?;
    }
    writer.finish().map_err(|e| e.to_string())?;
    Ok(out)
}

fn stream_text(text: &[u8]) -> Result<StreamReport, String> {
    let mut engine = StreamAnalyzer::new(StreamConfig::default());
    engine.ingest_read(text).map_err(|e| e.to_string())?;
    Ok(engine.finalize())
}

fn stream_ltc(bytes: &[u8]) -> Result<StreamReport, String> {
    let mut engine = StreamAnalyzer::new(StreamConfig::default());
    engine.ingest_ltc_bytes(bytes).map_err(|e| e.to_string())?;
    Ok(engine.finalize())
}

fn pass(seed: u64) -> Pass {
    let cpu0 = procfs::process_cpu_s();
    let t0 = Instant::now();
    let ctx = ReproContext::build(Scale::Paper, seed);
    let results: Vec<_> = experiments::all()
        .into_iter()
        .map(|(_, run)| run(&ctx))
        .collect();
    let batch_s = t0.elapsed().as_secs_f64();
    let comparisons = results.iter().map(|r| r.comparisons.len()).sum();
    let misses = results
        .iter()
        .flat_map(|r| &r.comparisons)
        .filter(|c| !c.holds)
        .count();
    let experiments = results.len();
    drop(results);

    let (text, render_s) = timed(|| wms::format_log(ctx.trace.entries()));
    let (text_report, text_s) = timed(|| stream_text(&text));
    let (ltc, convert_s) = timed(|| convert(&text));
    drop(text);
    let (ltc_report, ltc_s) = match &ltc {
        Ok(bytes) => timed(|| stream_ltc(bytes)),
        Err(e) => (Err(format!("convert: {e}")), 0.0),
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu_s = procfs::process_cpu_s() - cpu0;
    // The check's own serialization stays outside the measured window.
    let report_digest = digest(ctx.report.to_json().as_bytes());
    Pass {
        batch_s,
        render_s,
        text_s,
        convert_s,
        ltc_s,
        wall_s,
        cpu_s,
        transfers: ctx.trace.len(),
        sessions: ctx.sessions.len(),
        rejected: ctx.sanitize_report.rejected(),
        report_transfers: ctx.report.summary.transfers,
        comparisons,
        misses,
        experiments,
        report_digest,
        text: text_report,
        ltc: ltc_report,
    }
}

/// Compares this run's report digest and counts with the first run of
/// the same seed in this checkout (recorded under `.perfbench/`).
fn check_across_runs(out: &mut Outcome, seed: u64, fingerprint: &str) {
    let dir = std::path::Path::new(".perfbench");
    let path = dir.join(format!("paper_batch-seed{seed}.txt"));
    match std::fs::read_to_string(&path) {
        Ok(seen) => out.check(
            seen.trim() == fingerprint,
            format!(
                "report differs from an earlier run of seed {seed}: {seen:?} vs {fingerprint:?}"
            ),
        ),
        Err(_) => {
            let _ = std::fs::create_dir_all(dir);
            let _ = std::fs::write(&path, format!("{fingerprint}\n"));
        }
    }
}

fn check_stream(
    out: &mut Outcome,
    what: &str,
    report: &Result<StreamReport, String>,
    transfers: usize,
) {
    match report {
        Ok(r) => {
            out.check(
                r.summary.transfers == transfers as u64,
                format!(
                    "{what} stream report saw {} transfers, batch trace has {transfers}",
                    r.summary.transfers
                ),
            );
            out.check(
                r.accounting.malformed_lines == 0 && r.accounting.corrupt_blocks == 0,
                format!("{what} stream ingest hit malformed or corrupt input"),
            );
        }
        Err(e) => {
            out.failed += 1;
            out.check(false, format!("{what} stream ingest failed: {e}"));
        }
    }
}

/// The traced chain: every public call of `ReproContext::build` plus the
/// experiments, one span each, then the characterize layers one at a
/// time. Returns the traced report digest.
fn traced_chain(seed: u64, spans: &Spans) -> u64 {
    let config = WorkloadConfig::paper();
    let horizon = config.horizon_secs;
    // The same derivations `ReproContext::build` uses; the digest check
    // against the untraced pass proves they still match.
    let ctx = spans.call("batch", || {
        let workload = spans.call("core.generate", || {
            Generator::new(config, seed)
                .expect("the paper preset is valid")
                .generate()
        });
        let sim = spans.call("sim.run", || {
            Simulator::new(SimConfig {
                harvest_anomaly_rate: 2e-4,
                ..SimConfig::default()
            })
            .run(&workload, seed ^ 0x5157)
        });
        let (trace, sanitize_report) = spans.call("trace.sanitize", || {
            sanitize(sim.trace.entries().to_vec(), horizon)
        });
        drop(sim);
        let sessions = spans.call("trace.sessionize", || {
            Sessions::identify(&trace, SessionConfig::default())
        });
        let report = spans.call("analysis.characterize", || {
            characterize(&trace, seed ^ 0x9d2c)
        });
        let ctx = ReproContext {
            scale: Scale::Paper,
            seed,
            workload,
            trace,
            sanitize_report,
            sessions,
            report,
        };
        spans.call("figures.experiments", || {
            for (_, run) in experiments::all() {
                std::hint::black_box(run(&ctx));
            }
        });
        ctx
    });
    let (trace, sessions) = (&ctx.trace, &ctx.sessions);
    spans.call("analysis.client", || {
        std::hint::black_box(client_layer::analyze(trace, sessions, seed ^ 0x9d2c))
    });
    spans.call("analysis.session", || {
        std::hint::black_box(session_layer::analyze(trace, sessions))
    });
    spans.call("analysis.sweep", || {
        std::hint::black_box(session_layer::sweep_timeouts(
            trace,
            &session_layer::TIMEOUT_SWEEP,
        ))
    });
    spans.call("analysis.transfer", || {
        std::hint::black_box(transfer_layer::analyze(trace))
    });
    digest(ctx.report.to_json().as_bytes())
}

/// Runs `paper_batch` for at least `seconds` of measured passes.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let _ = procfs::reset_peak_rss();

    // Seed to inputs ready: the validated paper configuration and its
    // generator (samplers, client population model).
    let setup = || Generator::new(WorkloadConfig::paper(), seed).is_ok();
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| timed(|| std::hint::black_box(setup())).1)
        .collect();
    out.set("setup_s", median(&setups));

    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
        passes.push(pass(seed));
        if passes.len() == 1 {
            // Set-up plus one pass: later passes only add samples, and how
            // many fit in the run depends on the host's speed.
            out.set("peak_rss_mib", procfs::peak_rss_mib());
        }
    }
    let med = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    out.set("wall_s", med(|p| p.wall_s));
    out.set("cpu_s", med(|p| p.cpu_s));
    out.set("batch_s", med(|p| p.batch_s));
    out.set("stream_s", med(|p| p.text_s));
    out.set("trace.wms_render_s", med(|p| p.render_s));
    out.set("stream.text_ingest_s", med(|p| p.text_s));
    out.set("trace.ltc_convert_s", med(|p| p.convert_s));
    out.set("stream.ltc_ingest_s", med(|p| p.ltc_s));

    let fingerprint_of = |p: &Pass| {
        format!(
            "report={:016x} transfers={} sessions={}",
            p.report_digest, p.transfers, p.sessions
        )
    };
    let first = &passes[0];
    let fingerprint = fingerprint_of(first);
    for p in &passes {
        // Each experiment, the text ingest, the ltc convert and the ltc ingest.
        out.attempted += p.experiments as u64 + 3;
        out.check(
            fingerprint_of(p) == fingerprint,
            "passes of one seed disagree",
        );
        out.check(
            p.report_transfers == p.transfers,
            format!(
                "report counts {} transfers, trace has {}",
                p.report_transfers, p.transfers
            ),
        );
        out.check(p.comparisons > 0, "no paper comparison was evaluated");
        check_stream(&mut out, "text", &p.text, p.transfers);
        check_stream(&mut out, "ltc", &p.ltc, p.transfers);
    }
    check_across_runs(&mut out, seed, &fingerprint);
    let share = failed_share(first.misses as u64, first.comparisons as u64);
    out.set("failed_share", share);
    out.set("core.transfers", first.transfers as f64);
    out.set("trace.rejected", first.rejected as f64);
    out.set("trace.sessions", first.sessions as f64);
    out.set("figures.comparisons", first.comparisons as f64);
    out.set("figures.misses", first.misses as f64);
    if let Ok(r) = &first.text {
        out.set("stream.sketch_bytes", r.memory.sketch_bytes as f64);
    }

    out.say(format!(
        "paper_batch seed {seed}: {} transfers, {} sessions, {} sanitizer rejects; {} pass(es)",
        first.transfers,
        first.sessions,
        first.rejected,
        passes.len()
    ));
    out.say(format!(
        "  paper comparisons: {} of {} miss (failed_share {share:.4}), report {fingerprint}",
        first.misses, first.comparisons
    ));

    if trace {
        let spans = Spans::new();
        let traced_digest = traced_chain(seed, &spans);
        out.check(
            traced_digest == first.report_digest,
            "the traced chain's report differs from ReproContext::build's",
        );
        for (name, metric, rss) in [
            (
                "core.generate",
                "core.generate_s",
                "core.generate.peak_rss_mib",
            ),
            ("sim.run", "sim.run_s", "sim.run.peak_rss_mib"),
            (
                "trace.sanitize",
                "trace.sanitize_s",
                "trace.sanitize.peak_rss_mib",
            ),
            (
                "trace.sessionize",
                "trace.sessionize_s",
                "trace.sessionize.peak_rss_mib",
            ),
            (
                "analysis.characterize",
                "analysis.characterize_s",
                "analysis.characterize.peak_rss_mib",
            ),
            (
                "analysis.client",
                "analysis.client_s",
                "analysis.client.peak_rss_mib",
            ),
            (
                "analysis.session",
                "analysis.session_s",
                "analysis.session.peak_rss_mib",
            ),
            (
                "analysis.sweep",
                "analysis.sweep_s",
                "analysis.sweep.peak_rss_mib",
            ),
            (
                "analysis.transfer",
                "analysis.transfer_s",
                "analysis.transfer.peak_rss_mib",
            ),
            (
                "figures.experiments",
                "figures.experiments_s",
                "figures.experiments.peak_rss_mib",
            ),
        ] {
            if let Some(s) = spans.get(name) {
                out.set(metric, s.secs());
                out.set(rss, s.peak_rss_mib);
            }
        }
        // Consecutive passes of one process differ by up to ~20% on a
        // shared 2-CPU host, so the span sum is checked against the traced
        // chain's own wall time and only reported against `batch_s`.
        let traced_s = spans.get("batch").map_or(f64::NAN, |s| s.secs());
        let sum = spans.child_sum("batch");
        let batch_s = out.values["batch_s"];
        out.set("batch.span_sum_s", sum);
        out.set("batch.span_share", sum / batch_s);
        out.set("batch.trace_overhead_s", traced_s - batch_s);
        out.check(
            sum >= SPAN_COVERAGE * traced_s,
            format!("batch spans cover {sum:.3} s of the traced chain's {traced_s:.3} s"),
        );
        out.say(format!(
            "  spans: {sum:.3} s summed, {:.1}% of the traced chain's {traced_s:.3} s \
             (at least {:.0}%) and {:.1}% of the untraced batch_s {batch_s:.3} s; \
             tracing overhead {:+.3} s",
            100.0 * sum / traced_s,
            SPAN_COVERAGE * 100.0,
            100.0 * sum / batch_s,
            traced_s - batch_s,
        ));
        crate::write_spans("paper_batch", seed, &spans);
    }
    out
}
