//! `lsw` — command-line front end: generate, characterize, summarize.
//!
//! ```text
//! lsw generate  [--days D] [--clients N] [--sessions N] [--seed S]
//!               [--threads T] [--sampler cdf|alias] [--simulate]
//!               [--scale-matched] [--emit wms|ltc] --out LOG
//! lsw characterize LOG [--format auto|wms|ltc] [--horizon SECS]
//!                 [--timeout TO] [--json FILE]
//! lsw analyze     LOG [--format auto|wms|ltc] [--stream] [--compare]
//!                 [--shards N] [--memory-budget BYTES] [--horizon SECS]
//!                 [--timeout TO] [--json FILE]
//! lsw summary     LOG [--format auto|wms|ltc] [--horizon SECS]
//! lsw convert     IN OUT [--format auto|wms|ltc]
//! lsw replay      LOG [--format auto|wms|ltc] [--compression C]
//!                 [--virtual-time] [--admission N] [--workers N]
//!                 [--topology origin[:R[:as|country|client]]]
//!                 [--origin-admission N] [--expose SECS]
//!                 [--json FILE] [--no-assert]
//! lsw serve       LOG [--format auto|wms|ltc] [--listen ADDR]
//!                 [--compression C] [--admission N] [--workers N]
//!                 [--for SECS] [--expose SECS]
//! ```
//!
//! Each command accepts exactly the flags on its usage line: any other
//! `--flag` (a typo, or a flag a command does not take) exits 2 naming
//! it, before any file is opened.
//!
//! `analyze` is the streaming front end: with `--stream` the log is
//! consumed one chunk at a time through the bounded-memory sketch engine
//! (`lsw_stream`), so arbitrarily long logs never have to fit in RAM;
//! `--memory-budget` scales the sketches to a byte budget. With
//! `--compare` both pipelines run and a per-estimator relative-error
//! table is printed. Without either flag it behaves like `characterize`
//! plus the §2.4 ingest accounting.
//!
//! Logs come in two formats: the WMS-style text format (`lsw_trace::wms`)
//! and the columnar binary container (`lsw_trace::ltc`), which is smaller
//! and several times faster to ingest. Every reading command sniffs the
//! 4-byte `ltc` magic by default (`--format auto`); `--format wms|ltc`
//! forces a format. `convert` transcodes between the two — the direction
//! follows from the input's format — and `generate --emit ltc` writes the
//! binary container directly. All times are seconds since the log's
//! epoch.
//!
//! `replay` extracts the replayable transfer schedule from a log and
//! replays it against an in-process localhost server at `--compression`×
//! real time (`lsw_replay`), then closes the loop: the traffic actually
//! served is re-characterized through the embedded `lsw-stream` tap and
//! diffed against the schedule's own characterization. The command exits
//! nonzero when any headline metric falls outside its documented sketch
//! error bound (suppress with `--no-assert`, e.g. when an `--admission`
//! cap is *meant* to shed traffic). `--virtual-time` runs the same
//! replay as a deterministic single-threaded simulation — no sockets, no
//! wall clock — with bit-identical output on every run. `serve` runs the
//! paced serving harness standalone on `--listen` for `--for` seconds so
//! an external driver can connect. `--admission N` caps concurrent
//! transfers (`RejectAbove`); 0 or absent accepts everything.
//!
//! `--topology origin:R[:key]` interposes `R` relay nodes between the
//! origin and the trace clients (`lsw_edge`): each relay subscribes to
//! the origin **once** per live object and fans the chunk stream out to
//! the clients the routing `key` (`as`, default; `country`; `client`)
//! assigns to it. The closed loop then diffs the *edge-aggregated*
//! characterization — what all relay tiers together served — against the
//! trace's own, and the report gains an `edge` section accounting origin
//! egress versus client-delivered bytes (the fan-in savings). In edge
//! runs `--admission` caps each relay tier and `--origin-admission` caps
//! origin subscriptions; `--virtual-time` runs the whole topology as a
//! deterministic simulation with byte-identical reports run to run.
//!
//! `--threads` (or the `LSW_THREADS` environment variable) sets the
//! worker count; the default is the number of available cores. Output is
//! bit-identical at every thread count — the setting only changes speed.
//! `--sampler` picks the interest-profile sampling backend (`cdf`, the
//! default, or the O(1) `alias` table); unlike `--threads` the backend IS
//! part of the output's determinism contract — the two settings produce
//! different, identically distributed, workloads from one seed.

use lsw::analysis::characterize_with;
use lsw::core::config::WorkloadConfig;
use lsw::core::generator::Generator;
use lsw::replay::Registry;
use lsw::sim::server::AdmissionPolicy;
use lsw::sim::{SimConfig, Simulator};
use lsw::stats::dist::SamplerBackend;
use lsw::stats::par::Parallelism;
use lsw::stream::{StreamAnalyzer, StreamConfig};
use lsw::trace::event::LogEntry;
use lsw::trace::ltc;
use lsw::trace::sanitize::sanitize;
use lsw::trace::schedule::Schedule;
use lsw::trace::session::{SessionConfig, Sessions};
use lsw::trace::wms;
use std::path::Path;
use std::process::exit;

/// Each command, its entry point, and its usage line: the help text,
/// and the only flags the command accepts.
type Command = (&'static str, fn(&[String]), &'static str);

const COMMANDS: &[Command] = &[
    (
        "generate",
        cmd_generate,
        "[--days D] [--clients N] [--sessions N] [--seed S] [--threads T] \
         [--sampler cdf|alias] [--simulate] [--scale-matched] [--emit wms|ltc] --out LOG",
    ),
    (
        "characterize",
        cmd_characterize,
        "LOG [--format auto|wms|ltc] [--horizon SECS] [--timeout TO] [--json FILE]",
    ),
    (
        "analyze",
        cmd_analyze,
        "LOG [--format auto|wms|ltc] [--stream] [--compare] [--shards N] \
         [--memory-budget BYTES] [--horizon SECS] [--timeout TO] [--json FILE]",
    ),
    (
        "summary",
        cmd_summary,
        "LOG [--format auto|wms|ltc] [--horizon SECS]",
    ),
    ("convert", cmd_convert, "IN OUT [--format auto|wms|ltc]"),
    (
        "replay",
        cmd_replay,
        "LOG [--format auto|wms|ltc] [--compression C] [--virtual-time] [--admission N] \
         [--workers N] [--topology origin[:R[:as|country|client]]] [--origin-admission N] \
         [--expose SECS] [--json FILE] [--no-assert]",
    ),
    (
        "serve",
        cmd_serve,
        "LOG [--format auto|wms|ltc] [--listen ADDR] [--compression C] [--admission N] \
         [--workers N] [--for SECS] [--expose SECS]",
    ),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map_or("--help", String::as_str);
    if cmd == "--help" || cmd == "-h" {
        eprintln!("usage:");
        for (name, _, usage) in COMMANDS {
            eprintln!("  lsw {name} {usage}");
        }
        return;
    }
    let Some(&(_, run, usage)) = COMMANDS.iter().find(|(name, ..)| *name == cmd) else {
        eprintln!("unknown command {cmd:?}; try --help");
        exit(2);
    };
    reject_unknown_flags(cmd, usage, &args[1..]);
    run(&args[1..]);
}

/// Exits 2 on the first `--flag` that `usage` does not list, so a typo
/// or a flag the command does not take never runs with defaults.
fn reject_unknown_flags(cmd: &str, usage: &str, args: &[String]) {
    let known: Vec<&str> = usage
        .split_ascii_whitespace()
        .map(|w| w.trim_start_matches('['))
        .filter(|w| w.starts_with("--"))
        .map(|w| w.trim_end_matches(']'))
        .collect();
    if let Some(bad) = args
        .iter()
        .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
    {
        eprintln!("lsw {cmd}: unknown flag {bad}\nusage: lsw {cmd} {usage}");
        exit(2);
    }
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_or<T: std::str::FromStr>(v: Option<&str>, default: T, name: &str) -> T {
    match v {
        None => default,
        Some(s) => s.parse().unwrap_or_else(|_| {
            eprintln!("bad value for {name}: {s:?}");
            exit(2);
        }),
    }
}

/// On-disk log encodings the reading commands accept.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LogFormat {
    /// WMS-style text lines (`lsw_trace::wms`).
    Wms,
    /// Columnar binary container (`lsw_trace::ltc`).
    Ltc,
}

/// Reads the first bytes of `path` and checks for the `ltc` magic.
fn sniff_format(path: &str) -> LogFormat {
    use std::io::Read;
    let mut prefix = [0u8; 4];
    let n = std::fs::File::open(path)
        .and_then(|mut f| f.read(&mut prefix))
        .unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1);
        });
    if ltc::is_ltc(&prefix[..n]) {
        LogFormat::Ltc
    } else {
        LogFormat::Wms
    }
}

/// Resolves `--format auto|wms|ltc` (default `auto` = sniff the magic).
fn resolve_format(args: &[String], path: &str) -> LogFormat {
    match flag_value(args, "--format") {
        None | Some("auto") => sniff_format(path),
        Some("wms") => LogFormat::Wms,
        Some("ltc") => LogFormat::Ltc,
        Some(other) => {
            eprintln!("bad value for --format: {other:?} (expected auto, wms or ltc)");
            exit(2);
        }
    }
}

/// Loads every record of `path` in the given format, reporting (but
/// tolerating) corrupt `ltc` blocks the way the streaming engine does.
fn read_entries(path: &str, format: LogFormat) -> Vec<LogEntry> {
    match format {
        LogFormat::Wms => {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                exit(1);
            });
            wms::parse_log(&text).unwrap_or_else(|e| {
                eprintln!("{e}");
                exit(1);
            })
        }
        LogFormat::Ltc => {
            let (entries, stats) = ltc::FileSource::open(Path::new(path))
                .and_then(|src| ltc::BlockReader::open(src)?.read_all())
                .unwrap_or_else(|e| {
                    eprintln!("cannot read {path}: {e}");
                    exit(1);
                });
            if stats.corrupt_blocks > 0 {
                eprintln!(
                    "skipped {} corrupt block(s) / {} record(s): {}",
                    stats.corrupt_blocks,
                    stats.corrupt_records,
                    stats.first_corrupt.as_deref().unwrap_or("?"),
                );
            }
            entries
        }
    }
}

fn cmd_generate(args: &[String]) {
    let days: f64 = parse_or(flag_value(args, "--days"), 1.0, "--days");
    let clients: usize = parse_or(flag_value(args, "--clients"), 20_000, "--clients");
    let sessions: usize = parse_or(flag_value(args, "--sessions"), 30_000, "--sessions");
    let seed: u64 = parse_or(flag_value(args, "--seed"), 42, "--seed");
    let simulate = args.iter().any(|a| a == "--simulate");
    let scale_matched = args.iter().any(|a| a == "--scale-matched");
    let Some(out) = flag_value(args, "--out") else {
        eprintln!("generate requires --out LOG");
        exit(2);
    };

    let horizon = (days * 86_400.0) as u32;
    let base = if scale_matched {
        WorkloadConfig::paper_scale_matched()
    } else {
        WorkloadConfig::paper()
    };
    let par = match flag_value(args, "--threads") {
        None => Parallelism::auto(),
        Some(s) => Parallelism::fixed(parse_or(Some(s), 0usize, "--threads").max(1)),
    };
    let config = base.scaled(clients, horizon, sessions);
    let backend = match flag_value(args, "--sampler") {
        None | Some("cdf") => SamplerBackend::InverseCdf,
        Some("alias") => SamplerBackend::Alias,
        Some(other) => {
            eprintln!("bad value for --sampler: {other:?} (expected cdf or alias)");
            exit(2);
        }
    };
    let workload = Generator::new(config, seed).unwrap_or_else(|e| {
        eprintln!("invalid configuration: {e}");
        exit(2);
    });
    let workload = workload
        .with_sampler_backend(backend)
        .unwrap_or_else(|e| {
            eprintln!("invalid sampler backend: {e}");
            exit(2);
        })
        .with_parallelism(par)
        .generate();
    eprintln!(
        "generated {} sessions / {} transfers over {days} day(s)",
        workload.sessions().len(),
        workload.len()
    );
    let trace = if simulate {
        let out = Simulator::new(SimConfig::default()).run(&workload, seed);
        eprintln!(
            "simulated: {} congested transfers, {:.2} GB delivered",
            out.congested_transfers,
            out.bytes_delivered as f64 / 1e9
        );
        out.trace
    } else {
        workload.render()
    };
    let emit = match flag_value(args, "--emit") {
        None | Some("wms") => LogFormat::Wms,
        Some("ltc") => LogFormat::Ltc,
        Some(other) => {
            eprintln!("bad value for --emit: {other:?} (expected wms or ltc)");
            exit(2);
        }
    };
    match emit {
        LogFormat::Wms => {
            let text = wms::format_log(trace.entries());
            std::fs::write(out, &text).unwrap_or_else(|e| {
                eprintln!("cannot write {out}: {e}");
                exit(1);
            });
        }
        LogFormat::Ltc => {
            std::fs::File::create(out)
                .and_then(|f| ltc::write_entries(trace.entries(), std::io::BufWriter::new(f)))
                .unwrap_or_else(|e| {
                    eprintln!("cannot write {out}: {e}");
                    exit(1);
                });
        }
    }
    eprintln!("wrote {} entries to {out}", trace.len());
}

/// Transcodes between the text and binary formats; the direction follows
/// from the input's (sniffed or forced) format.
fn cmd_convert(args: &[String]) {
    let mut positional = args.iter().filter(|a| !a.starts_with("--"));
    let (Some(input), Some(output)) = (positional.next(), positional.next()) else {
        eprintln!("convert expects IN and OUT file arguments");
        exit(2);
    };
    match resolve_format(args, input) {
        LogFormat::Wms => {
            // wms -> ltc in bounded memory: parse chunks of whole lines
            // and push records straight into the block writer.
            let file = std::fs::File::open(input).unwrap_or_else(|e| {
                eprintln!("cannot open {input}: {e}");
                exit(1);
            });
            let sink = std::fs::File::create(output).unwrap_or_else(|e| {
                eprintln!("cannot write {output}: {e}");
                exit(1);
            });
            let mut writer =
                ltc::LtcWriter::new(std::io::BufWriter::new(sink)).unwrap_or_else(|e| {
                    eprintln!("cannot write {output}: {e}");
                    exit(1);
                });
            let summary = (|| -> std::io::Result<ltc::LtcSummary> {
                for chunk in wms::LineChunks::new(std::io::BufReader::new(file), 1 << 20) {
                    let chunk = chunk?;
                    for parsed in wms::parse_lines_bytes_from(&chunk.bytes, chunk.first_line) {
                        match parsed {
                            Ok((_, e)) => writer.push(&e)?,
                            Err(e) => {
                                eprintln!("{e}");
                                exit(1);
                            }
                        }
                    }
                }
                writer.finish()
            })()
            .unwrap_or_else(|e| {
                eprintln!("convert failed: {e}");
                exit(1);
            });
            eprintln!(
                "wrote {} records in {} block(s) ({} bytes{}) to {output}",
                summary.records,
                summary.blocks,
                summary.bytes,
                if summary.sorted { ", sorted" } else { "" },
            );
        }
        LogFormat::Ltc => {
            // ltc -> wms: decode every block, render the text log.
            let (entries, stats) = ltc::FileSource::open(Path::new(input.as_str()))
                .and_then(|src| ltc::BlockReader::open(src)?.read_all())
                .unwrap_or_else(|e| {
                    eprintln!("cannot read {input}: {e}");
                    exit(1);
                });
            let text = wms::format_log(&entries);
            std::fs::write(output, &text).unwrap_or_else(|e| {
                eprintln!("cannot write {output}: {e}");
                exit(1);
            });
            eprintln!("wrote {} entries to {output}", entries.len());
            if stats.corrupt_blocks > 0 {
                // Data was lost in transit: say how much, and make the
                // loss visible to scripts via the exit status.
                eprintln!(
                    "convert: skipped {} corrupt block(s) / {} record(s): {}",
                    stats.corrupt_blocks,
                    stats.corrupt_records,
                    stats.first_corrupt.as_deref().unwrap_or("?"),
                );
                exit(1);
            }
        }
    }
}

fn load(
    args: &[String],
) -> (
    lsw::trace::trace::Trace,
    u32,
    lsw::trace::sanitize::SanitizeReport,
) {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("expected a LOG file argument");
        exit(2);
    };
    let entries = read_entries(path, resolve_format(args, path));
    // Horizon: explicit flag, or inferred from the last stop time.
    let inferred = entries.iter().map(|e| e.stop()).max().unwrap_or(0) + 1;
    let horizon: u32 = parse_or(flag_value(args, "--horizon"), inferred, "--horizon");
    let (trace, report) = sanitize(entries, horizon);
    if report.rejected() > 0 {
        eprintln!(
            "sanitized: dropped {} of {} entries",
            report.rejected(),
            report.examined
        );
    }
    (trace, horizon, report)
}

fn cmd_characterize(args: &[String]) {
    let (trace, _, ingest) = load(args);
    let timeout: f64 = parse_or(
        flag_value(args, "--timeout"),
        lsw::stats::paper::SESSION_TIMEOUT_SECS,
        "--timeout",
    );
    let sessions = Sessions::identify(&trace, SessionConfig { timeout });
    let report = characterize_with(&trace, &sessions, 0).with_ingest(ingest);
    println!("{}", report.headline());
    if let Some(json_path) = flag_value(args, "--json") {
        std::fs::write(json_path, report.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {json_path}: {e}");
            exit(1);
        });
        eprintln!("full report written to {json_path}");
    }
}

fn stream_config(args: &[String]) -> StreamConfig {
    let mut cfg = StreamConfig {
        timeout: parse_or(
            flag_value(args, "--timeout"),
            lsw::stats::paper::SESSION_TIMEOUT_SECS,
            "--timeout",
        ),
        ..StreamConfig::default()
    };
    if let Some(h) = flag_value(args, "--horizon") {
        cfg.horizon = Some(parse_or(Some(h), 0u32, "--horizon"));
    }
    if let Some(s) = flag_value(args, "--shards") {
        cfg.shards = parse_or(Some(s), 1usize, "--shards").max(1);
    }
    if let Some(b) = flag_value(args, "--memory-budget") {
        cfg = cfg.with_memory_budget(parse_or(Some(b), usize::MAX, "--memory-budget"));
    }
    cfg
}

fn run_stream(path: &str, format: LogFormat, cfg: StreamConfig) -> lsw::stream::StreamReport {
    let mut engine = StreamAnalyzer::new(cfg);
    let ingested = match format {
        LogFormat::Ltc => engine.ingest_ltc_path(Path::new(path)),
        LogFormat::Wms => std::fs::File::open(path)
            .and_then(|file| engine.ingest_read(std::io::BufReader::new(file))),
    };
    ingested.unwrap_or_else(|e| {
        eprintln!("read error on {path}: {e}");
        exit(1);
    });
    engine.finalize()
}

fn cmd_analyze(args: &[String]) {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("analyze expects a LOG file argument");
        exit(2);
    };
    let path = path.clone();
    let streaming = args.iter().any(|a| a == "--stream");
    let comparing = args.iter().any(|a| a == "--compare");
    // Parse up front so a bad stream flag exits 2 in every analyze mode.
    let stream_cfg = stream_config(args);

    let format = resolve_format(args, &path);

    if streaming && !comparing {
        // One pass, bounded memory: the log never has to fit in RAM.
        let report = run_stream(&path, format, stream_cfg);
        println!("{}", report.headline());
        if let Some(json_path) = flag_value(args, "--json") {
            std::fs::write(json_path, report.to_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {json_path}: {e}");
                exit(1);
            });
            eprintln!("stream report written to {json_path}");
        }
        return;
    }

    let (trace, horizon, ingest) = load(args);
    let timeout: f64 = parse_or(
        flag_value(args, "--timeout"),
        lsw::stats::paper::SESSION_TIMEOUT_SECS,
        "--timeout",
    );
    let sessions = Sessions::identify(&trace, SessionConfig { timeout });
    let batch = characterize_with(&trace, &sessions, 0).with_ingest(ingest);

    if comparing {
        // Pin the streaming horizon to the batch one so both pipelines
        // apply identical rejection rules.
        let mut cfg = stream_cfg;
        cfg.horizon = Some(horizon);
        let stream = run_stream(&path, format, cfg);
        println!("{}", lsw::analysis::stream_compare::render(&batch, &stream));
        if let Some(json_path) = flag_value(args, "--json") {
            std::fs::write(json_path, stream.to_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {json_path}: {e}");
                exit(1);
            });
            eprintln!("stream report written to {json_path}");
        }
        return;
    }

    println!("{}", batch.headline());
    if let Some(json_path) = flag_value(args, "--json") {
        std::fs::write(json_path, batch.to_json()).unwrap_or_else(|e| {
            eprintln!("cannot write {json_path}: {e}");
            exit(1);
        });
        eprintln!("full report written to {json_path}");
    }
}

fn cmd_summary(args: &[String]) {
    let (trace, _, _) = load(args);
    println!("{}", trace.summary());
}

/// Extracts the replayable transfer schedule from a log file, reporting
/// (to stderr) what extraction had to skip.
fn load_schedule(args: &[String]) -> Schedule {
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("expected a LOG file argument");
        exit(2);
    };
    let schedule = match resolve_format(args, path) {
        LogFormat::Wms => {
            let bytes = std::fs::read(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                exit(1);
            });
            Schedule::from_wms_bytes(&bytes)
        }
        LogFormat::Ltc => Schedule::from_ltc_path(Path::new(path)).unwrap_or_else(|e| {
            eprintln!("cannot read {path}: {e}");
            exit(1);
        }),
    };
    let st = &schedule.stats;
    if st.rejected + st.malformed + st.corrupt_blocks > 0 {
        eprintln!(
            "schedule: kept {} of {} records ({} rejected, {} malformed line(s), \
             {} corrupt block(s))",
            schedule.len(),
            st.examined,
            st.rejected,
            st.malformed,
            st.corrupt_blocks,
        );
    }
    if schedule.is_empty() {
        eprintln!("no replayable transfers in {path}");
        exit(1);
    }
    schedule
}

/// `--admission N` (or `--origin-admission N`): cap concurrent
/// transfers at that tier; 0 or absent accepts all.
fn admission_flag(args: &[String], name: &str) -> AdmissionPolicy {
    match parse_or(flag_value(args, name), 0u64, name) {
        0 => AdmissionPolicy::AcceptAll,
        n => AdmissionPolicy::RejectAbove { max_concurrent: n },
    }
}

/// `--topology origin[:R[:key]]`: interpose R relays (0 = single tier).
fn topology_flag(args: &[String]) -> lsw::edge::Topology {
    match flag_value(args, "--topology") {
        None => lsw::edge::Topology::default(),
        Some(s) => s.parse().unwrap_or_else(|e| {
            eprintln!("bad value for --topology: {e}");
            exit(2);
        }),
    }
}

/// A background thread printing metric snapshots to stderr on a cadence.
struct Exposition {
    stop: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Exposition {
    /// Starts the exposition loop; `every_secs == 0` disables it.
    fn start(registry: &std::sync::Arc<Registry>, every_secs: u64) -> Self {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        let handle = (every_secs > 0).then(|| {
            let registry = std::sync::Arc::clone(registry);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut elapsed_ms = 0u64;
                // Reused across expositions: zero allocation per print
                // once warmed up to the steady-state length.
                let mut buf = String::new();
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(std::time::Duration::from_millis(250));
                    elapsed_ms += 250;
                    if elapsed_ms >= every_secs * 1000 {
                        elapsed_ms = 0;
                        registry.render_text(&mut buf);
                        eprint!("-- metrics --\n{buf}");
                    }
                }
            })
        });
        Self { stop, handle }
    }

    fn finish(mut self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// Prints the closed-loop result, writes `--json`, and returns whether
/// every metric stayed inside its documented sketch error bound.
fn report_loop(
    args: &[String],
    tap: &lsw::stream::StreamReport,
    diff: &lsw::replay::LoopDiff,
    metrics: &lsw::replay::Snapshot,
    edge: Option<serde_json::Value>,
) -> bool {
    println!("{}", tap.headline());
    println!("closed-loop characterization diff:");
    print!("{}", diff.render());
    if let Some(json_path) = flag_value(args, "--json") {
        use serde_json::Value;
        let tap_value: Value = serde_json::from_str(&tap.to_json()).unwrap_or(Value::Null);
        let mut sections = vec![
            ("tap".to_string(), tap_value),
            ("diff".to_string(), diff.to_json()),
            ("metrics".to_string(), metrics.to_json()),
        ];
        if let Some(edge) = edge {
            sections.push(("edge".to_string(), edge));
        }
        let combined = Value::Object(sections);
        let rendered = serde_json::to_string_pretty(&combined).unwrap_or_default();
        std::fs::write(json_path, rendered).unwrap_or_else(|e| {
            eprintln!("cannot write {json_path}: {e}");
            exit(1);
        });
        eprintln!("replay report written to {json_path}");
    }
    diff.within_bounds()
}

/// The `edge` section of the `--json` report: origin-egress accounting
/// plus the per-tier characterizations.
fn edge_json(
    topology: lsw::edge::Topology,
    subscriptions: u64,
    origin_bytes: u64,
    delivered_bytes: u64,
    egress_ratio: f64,
    tiers: &[lsw::stream::StreamReport],
) -> serde_json::Value {
    use serde_json::Value;
    let tier_values: Vec<Value> = tiers
        .iter()
        .map(|r| serde_json::from_str(&r.to_json()).unwrap_or(Value::Null))
        .collect();
    Value::Object(vec![
        ("topology".to_string(), Value::Str(topology.to_string())),
        ("relays".to_string(), Value::U64(u64::from(topology.relays))),
        ("subscriptions".to_string(), Value::U64(subscriptions)),
        ("origin_bytes".to_string(), Value::U64(origin_bytes)),
        ("delivered_bytes".to_string(), Value::U64(delivered_bytes)),
        ("egress_ratio".to_string(), Value::F64(egress_ratio)),
        ("tiers".to_string(), Value::Array(tier_values)),
    ])
}

/// Runs the hierarchical replay (`--topology origin:R[:key]`) in either
/// execution mode and returns the edge-aggregated tap, the final metric
/// snapshot, and the report's `edge` section.
fn run_replay_edge(
    args: &[String],
    schedule: &Schedule,
    topology: lsw::edge::Topology,
    compression: f64,
    admission: AdmissionPolicy,
    stream_cfg: StreamConfig,
    registry: &std::sync::Arc<Registry>,
) -> (
    lsw::stream::StreamReport,
    lsw::replay::Snapshot,
    serde_json::Value,
) {
    use lsw::replay::ServerConfig;
    use std::sync::Arc;

    let origin_admission = admission_flag(args, "--origin-admission");
    if args.iter().any(|a| a == "--virtual-time") {
        let out = lsw::edge::run_virtual_topology(
            schedule,
            &topology,
            origin_admission,
            admission,
            stream_cfg,
            registry,
        );
        eprintln!(
            "virtual edge replay through {topology}: {} completed, {} rejected, \
             {} truncated over {} subscription(s)",
            out.completed, out.rejected, out.truncated, out.subscriptions
        );
        eprintln!(
            "origin egress: {} of {} delivered byte(s) (ratio {:.4})",
            out.origin_bytes,
            out.delivered_bytes,
            out.egress_ratio()
        );
        let edge = edge_json(
            topology,
            out.subscriptions,
            out.origin_bytes,
            out.delivered_bytes,
            out.egress_ratio(),
            &out.tier_reports,
        );
        (out.merged, registry.snapshot(), edge)
    } else {
        let workers = parse_or(flag_value(args, "--workers"), 2usize, "--workers").max(1);
        let expose: u64 = parse_or(flag_value(args, "--expose"), 10, "--expose");
        let cfg = lsw::edge::EdgeConfig {
            topology,
            origin: ServerConfig {
                compression,
                admission: origin_admission,
                workers,
                stream: stream_cfg,
                ..ServerConfig::default()
            },
            relay: lsw::edge::RelayConfig {
                admission,
                ..lsw::edge::RelayConfig::default()
            },
            driver_workers: workers.max(2),
        };
        eprintln!(
            "replaying {} transfers over {} trace-second(s) at {compression}x through {topology}",
            schedule.len(),
            schedule.horizon(),
        );
        let exposition = Exposition::start(registry, expose);
        let out = lsw::edge::run_edge(schedule, &cfg, Arc::clone(registry)).unwrap_or_else(|e| {
            eprintln!("edge replay failed: {e}");
            exit(1);
        });
        exposition.finish();
        eprintln!(
            "replayed {} transfer(s): {} completed, {} rejected, {} short, \
             {} connect failure(s) over {} subscription(s)",
            out.driven.launched + out.driven.connect_failures,
            out.driven.completed,
            out.driven.rejected,
            out.driven.short,
            out.driven.connect_failures,
            out.egress.subscriptions,
        );
        eprintln!(
            "origin egress: {} of {} delivered byte(s) (ratio {:.4})",
            out.egress.origin_bytes,
            out.egress.delivered_bytes,
            out.egress.egress_ratio()
        );
        let edge = edge_json(
            topology,
            out.egress.subscriptions,
            out.egress.origin_bytes,
            out.egress.delivered_bytes,
            out.egress.egress_ratio(),
            &out.tier_reports,
        );
        (out.merged, out.metrics, edge)
    }
}

fn cmd_replay(args: &[String]) {
    use lsw::replay::{
        closed_loop, drive, reference_report, run_virtual, DriverConfig, ReplayServer,
        ServerConfig, WallClock,
    };
    use std::sync::Arc;

    let schedule = load_schedule(args);
    let compression: f64 = parse_or(flag_value(args, "--compression"), 100.0, "--compression");
    let admission = admission_flag(args, "--admission");
    let topology = topology_flag(args);
    let stream_cfg = StreamConfig::default();
    let registry = Arc::new(Registry::new());
    let reference = reference_report(&schedule, stream_cfg.clone());

    let (tap, closed, edge) = if topology.is_edge() {
        let (tap, closed, edge) = run_replay_edge(
            args,
            &schedule,
            topology,
            compression,
            admission,
            stream_cfg,
            &registry,
        );
        (tap, closed, Some(edge))
    } else if args.iter().any(|a| a == "--virtual-time") {
        let out = run_virtual(&schedule, admission, stream_cfg, &registry);
        eprintln!(
            "virtual replay: {} completed, {} rejected, {} bytes served",
            out.completed, out.rejected, out.bytes_served
        );
        (out.tap, registry.snapshot(), None)
    } else {
        let workers = parse_or(flag_value(args, "--workers"), 2usize, "--workers").max(1);
        let expose: u64 = parse_or(flag_value(args, "--expose"), 10, "--expose");
        let clock = Arc::new(WallClock::start());
        let server = ReplayServer::start(
            ServerConfig {
                compression,
                admission,
                workers,
                stream: stream_cfg,
                lookahead: schedule.max_duration(),
                ..ServerConfig::default()
            },
            &schedule.object_rates(),
            Arc::clone(&clock),
            Arc::clone(&registry),
        )
        .unwrap_or_else(|e| {
            eprintln!("cannot bind replay server: {e}");
            exit(1);
        });
        eprintln!(
            "replaying {} transfers over {} trace-second(s) at {compression}x against {}",
            schedule.len(),
            schedule.horizon(),
            server.local_addr(),
        );
        let exposition = Exposition::start(&registry, expose);
        let driver_cfg = DriverConfig {
            workers: workers.max(2),
            ..DriverConfig::new(server.local_addr(), compression)
        };
        let outcome = drive(&schedule, &driver_cfg, &clock, &registry).unwrap_or_else(|e| {
            eprintln!("replay driver failed: {e}");
            exit(1);
        });
        let served = server.finish();
        exposition.finish();
        eprintln!(
            "replayed {} transfer(s): {} completed, {} rejected, {} short, {} connect failure(s)",
            outcome.launched + outcome.connect_failures,
            outcome.completed,
            outcome.rejected,
            outcome.short,
            outcome.connect_failures,
        );
        (served.tap, served.metrics, None)
    };

    let diff = closed_loop(&reference, &tap);
    let within = report_loop(args, &tap, &diff, &closed, edge);
    if !within && !args.iter().any(|a| a == "--no-assert") {
        eprintln!(
            "closed-loop check FAILED: {} metric(s) outside sketch error bounds",
            diff.violations().len()
        );
        exit(1);
    }
}

fn cmd_serve(args: &[String]) {
    use lsw::replay::{ReplayServer, ServerConfig, WallClock};
    use std::sync::Arc;

    let schedule = load_schedule(args);
    let compression: f64 = parse_or(flag_value(args, "--compression"), 100.0, "--compression");
    let listen = flag_value(args, "--listen")
        .unwrap_or("127.0.0.1:0")
        .to_string();
    let workers = parse_or(flag_value(args, "--workers"), 2usize, "--workers").max(1);
    let expose: u64 = parse_or(flag_value(args, "--expose"), 10, "--expose");
    // Default lifetime: the whole compressed trace span plus drain slack.
    let default_for = f64::from(schedule.horizon()) / compression.max(1.0) + 5.0;
    let for_secs: f64 = parse_or(flag_value(args, "--for"), default_for, "--for");

    let registry = Arc::new(Registry::new());
    let clock = Arc::new(WallClock::start());
    let server = ReplayServer::start(
        ServerConfig {
            listen,
            compression,
            admission: admission_flag(args, "--admission"),
            workers,
            lookahead: schedule.max_duration(),
            ..ServerConfig::default()
        },
        &schedule.object_rates(),
        Arc::clone(&clock),
        Arc::clone(&registry),
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot bind replay server: {e}");
        exit(1);
    });
    println!("{}", server.local_addr());
    eprintln!(
        "serving {} feed(s) at {compression}x for {for_secs:.1}s on {}",
        schedule.object_rates().len(),
        server.local_addr(),
    );
    let exposition = Exposition::start(&registry, expose);
    std::thread::sleep(std::time::Duration::from_secs_f64(for_secs.max(0.0)));
    let served = server.finish();
    exposition.finish();
    eprintln!(
        "served: {} accepted, {} rejected",
        served.admission.accepted, served.admission.rejected
    );
    println!("{}", served.tap.headline());
}
