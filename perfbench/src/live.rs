//! The live workloads: trace replay over loopback sockets.
//!
//! * `live_churn` — one trace-day at paper density (25k clients, 55k
//!   sessions on the paper's 2 live objects) replayed open loop at
//!   8000x against a flat origin: per-connection work dominates.
//! * `edge_churn` — the same trace and compression routed through
//!   `origin:2` (AS routing): adds the relay tier's accept, ring
//!   subscription and per-tier tap.
//! * `live_bulk` — two long fat feeds (fewer on a 1-CPU host), one
//!   object each, read by one driver thread and offered far above what
//!   one server shard can write: the payload path sets the wall time.
//!
//! Every pass diffs the live tap against the schedule's own
//! characterization (the closed loop) and checks the byte accounting.

use crate::outcome::{failed_share, median, timed, Outcome};
use crate::procfs::{self, Group, Host, TaskSampler};
use lsw_core::config::WorkloadConfig;
use lsw_core::generator::Generator;
use lsw_edge::{run_edge, EdgeConfig, RelayConfig, RouteBy, Topology};
use lsw_replay::proto::wire_budget;
use lsw_replay::{
    closed_loop, drive, reference_report, DriveOutcome, DriverConfig, Registry, ReplayServer,
    ServerConfig, SlowClientPolicy, Snapshot, WallClock,
};
use lsw_stream::{StreamConfig, StreamReport};
use lsw_trace::event::{LogEntry, LogEntryBuilder};
use lsw_trace::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};
use lsw_trace::schedule::Schedule;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Which live workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Live {
    /// Flat origin, trace-day churn.
    Churn,
    /// Origin → 2 relays, same churn.
    Edge,
    /// Flat origin, few fat feeds.
    Bulk,
}

/// Trace-to-wall compression of the churn workloads: one trace-day in
/// 10.8 s, about 7.9k connects/s. At 12000x the relay tier of
/// `edge_churn` refuses 1–5k connects per run on a 2-CPU host while the
/// flat origin refuses none; both churn workloads share one compression
/// so their difference stays the relay tier's cost.
const CHURN_COMPRESSION: f64 = 8_000.0;
/// Clients, horizon and target sessions of the churn trace-day.
const CHURN_CLIENTS: usize = 25_000;
const CHURN_HORIZON: u32 = 86_400;
const CHURN_SESSIONS: usize = 55_000;
/// Relays of the edge topology.
const EDGE_RELAYS: u32 = 2;

/// Bulk feeds: each streams one object for `BULK_DURATION` trace
/// seconds at `BULK_RATE` trace bytes/s, which the compression turns
/// into a 0.1 s schedule offering 40 GB/s per feed — far above what one
/// shard writes, so the server, not the schedule, sets the wall time.
const BULK_DURATION: u32 = 1_000;
const BULK_RATE: u64 = 40_000_000_000;
const BULK_COMPRESSION: f64 = 10_000.0;
/// Replay server shards for bulk: one, so the payload path of a single
/// shard is what is measured.
const BULK_SHARDS: usize = 1;
/// Driver threads reading the bulk feeds.
const BULK_DRIVER_THREADS: usize = 1;

/// Input set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Most driver threads any live workload uses (also capped at nproc).
const MAX_DRIVER_THREADS: usize = 2;
/// A bulk run whose stretch stays under this kept pace with its
/// schedule, so it measured the schedule rather than the server.
const BULK_PACED_STRETCH: f64 = 1.1;

/// Registry counters reported per layer, under their own names.
const COUNTERS: &[&str] = &[
    "srv.conns",
    "srv.completed",
    "srv.rejected",
    "srv.slow_dropped",
    "srv.truncated",
    "srv.bad_requests",
    "srv.bytes_sent",
    "edge.conns",
    "edge.completed",
    "edge.truncated",
    "edge.laps",
    "edge.upstream_busy",
    "edge.subscriptions",
    "drv.connects",
];

/// Registry histograms reported per layer as `(name, p50, p99)`.
const HISTOGRAMS: &[(&str, &str, &str)] = &[
    (
        "drv.lateness_ms",
        "drv.lateness_ms.p50",
        "drv.lateness_ms.p99",
    ),
    (
        "srv.pacing_error_ns",
        "srv.pacing_error_ns.p50",
        "srv.pacing_error_ns.p99",
    ),
    (
        "srv.transfer_wall_ms",
        "srv.transfer_wall_ms.p50",
        "srv.transfer_wall_ms.p99",
    ),
    (
        "srv.backlog_bytes",
        "srv.backlog_bytes.p50",
        "srv.backlog_bytes.p99",
    ),
    (
        "edge.ring_lag_bytes",
        "edge.ring_lag_bytes.p50",
        "edge.ring_lag_bytes.p99",
    ),
];

/// Copies the per-layer counters and histogram quantiles out of a
/// registry snapshot. Metrics the run never registered read 0.
pub fn snapshot_metrics(snap: &Snapshot, out: &mut BTreeMap<&'static str, f64>) {
    for &name in COUNTERS {
        out.insert(name, snap.value(name).unwrap_or(0) as f64);
    }
    for &(name, p50, p99) in HISTOGRAMS {
        let (n, q50, _, q99) = snap.histogram(name).unwrap_or((0, 0.0, 0.0, 0.0));
        out.insert(p50, if n == 0 { 0.0 } else { q50 });
        out.insert(p99, if n == 0 { 0.0 } else { q99 });
    }
}

/// SplitMix64 step: derives the bulk workload's identities from the seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The bulk schedule: `feeds` transfers joining at t=0, one object each.
/// The seed picks the clients, addresses and ASes; sizes are fixed so
/// every seed moves the same bytes.
fn bulk_schedule(seed: u64, feeds: usize) -> Schedule {
    let mut state = seed;
    let entries: Vec<LogEntry> = (0..feeds)
        .map(|i| {
            let r = splitmix(&mut state);
            LogEntryBuilder::new()
                .span(0, BULK_DURATION)
                .client(ClientId(r as u32 >> 8))
                .origin(
                    Ipv4Addr(0x0a00_0000 | (r >> 40) as u32 & 0x00ff_ffff),
                    AsId((r >> 24) as u16 % 512),
                    CountryCode(*b"BR"),
                )
                .object(ObjectId(i as u16), 0)
                .transfer_stats(BULK_RATE * u64::from(BULK_DURATION + 1), 350_000, 0.0)
                .build()
        })
        .collect();
    Schedule::from_entries(&entries)
}

/// The replay inputs one set-up produces.
struct Inputs {
    schedule: Schedule,
    reference: StreamReport,
    generate_s: f64,
    schedule_s: f64,
    reference_s: f64,
    total_s: f64,
}

fn inputs(kind: Live, seed: u64, feeds: usize) -> Inputs {
    let t0 = Instant::now();
    let (entries, generate_s) = timed(|| match kind {
        Live::Bulk => None,
        Live::Churn | Live::Edge => Some(
            Generator::new(
                WorkloadConfig::paper().scaled(CHURN_CLIENTS, CHURN_HORIZON, CHURN_SESSIONS),
                seed,
            )
            .expect("the scaled paper preset is valid")
            .generate()
            .render(),
        ),
    });
    let (schedule, schedule_s) = timed(|| match &entries {
        Some(trace) => Schedule::from_entries(trace.entries()),
        None => bulk_schedule(seed, feeds),
    });
    drop(entries);
    let (reference, reference_s) = timed(|| reference_report(&schedule, StreamConfig::default()));
    Inputs {
        schedule,
        reference,
        generate_s,
        schedule_s,
        reference_s,
        total_s: t0.elapsed().as_secs_f64(),
    }
}

/// What one replay pass measured.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    start_s: f64,
    driven: DriveOutcome,
    layers: BTreeMap<&'static str, f64>,
}

struct Plan {
    kind: Live,
    compression: f64,
    server_shards: usize,
    driver_threads: usize,
}

impl Plan {
    fn server(&self, schedule: &Schedule) -> ServerConfig {
        let mut cfg = ServerConfig {
            compression: self.compression,
            workers: self.server_shards,
            lookahead: schedule.max_duration(),
            ..ServerConfig::default()
        };
        if self.kind == Live::Bulk {
            // The server sets the pace: let a lagging reader lag.
            cfg.slow_policy = SlowClientPolicy::Backpressure;
            cfg.send_buffer = u64::MAX / 4;
        }
        cfg
    }
}

/// One replay of the schedule; checks go straight into `out`.
fn pass(plan: &Plan, inp: &Inputs, trace: bool, out: &mut Outcome) -> Option<Pass> {
    let schedule = &inp.schedule;
    let registry = Arc::new(Registry::new());
    let sampler = trace.then(TaskSampler::start);
    let cpu0 = procfs::process_cpu_s();
    let mut layers = BTreeMap::new();

    let (driven, tap, snapshot, start_s, finish_s, wall_s) = if plan.kind == Live::Edge {
        let cfg = EdgeConfig {
            topology: Topology {
                relays: EDGE_RELAYS,
                route_by: RouteBy::As,
            },
            origin: plan.server(schedule),
            relay: RelayConfig::default(),
            driver_workers: plan.driver_threads / EDGE_RELAYS as usize,
        };
        let (edge, wall_s) = timed(|| run_edge(schedule, &cfg, Arc::clone(&registry)));
        let edge = match edge {
            Ok(e) => e,
            Err(e) => {
                out.check(false, format!("edge run failed: {e}"));
                return None;
            }
        };
        let ratio = edge.egress.egress_ratio();
        layers.insert("edge.egress_ratio", ratio);
        out.check(
            ratio < 1.0,
            format!(
                "edge origin egress {} not below delivered {}",
                edge.egress.origin_bytes, edge.egress.delivered_bytes
            ),
        );
        // Bind and drain happen inside `run_edge`.
        (edge.driven, edge.merged, edge.metrics, 0.0, 0.0, wall_s)
    } else {
        let clock = Arc::new(WallClock::start());
        let (server, start_s) = timed(|| {
            ReplayServer::start(
                plan.server(schedule),
                &schedule.object_rates(),
                Arc::clone(&clock),
                Arc::clone(&registry),
            )
        });
        let server = match server {
            Ok(s) => s,
            Err(e) => {
                out.check(false, format!("replay server did not bind: {e}"));
                return None;
            }
        };
        let t0 = Instant::now();
        let mut dcfg = DriverConfig::new(server.local_addr(), plan.compression);
        dcfg.workers = plan.driver_threads;
        let driven = drive(schedule, &dcfg, &clock, &registry);
        let (served, finish_s) = timed(|| server.finish());
        let driven = match driven {
            Ok(d) => d,
            Err(e) => {
                out.check(false, format!("load driver failed: {e}"));
                return None;
            }
        };
        let wall_s = t0.elapsed().as_secs_f64();
        (
            driven,
            served.tap,
            served.metrics,
            start_s,
            finish_s,
            wall_s,
        )
    };
    let cpu_s = procfs::process_cpu_s() - cpu0;

    let diff = closed_loop(&inp.reference, &tap);
    out.check(
        diff.within_bounds(),
        format!("closed-loop diff out of bounds:\n{}", diff.render()),
    );
    let offered = driven.launched + driven.connect_failures;
    out.check(
        offered == schedule.len() as u64,
        format!(
            "offered {offered} of {} scheduled transfers",
            schedule.len()
        ),
    );
    let failed = driven.connect_failures + driven.rejected + driven.short;
    if failed == 0 {
        let budget: u64 = schedule
            .transfers
            .iter()
            .map(|t| wire_budget(t.bytes, plan.compression))
            .sum();
        out.check(
            driven.bytes_received == budget,
            format!(
                "received {} bytes, the schedule's wire budget is {budget}",
                driven.bytes_received
            ),
        );
    }

    snapshot_metrics(&snapshot, &mut layers);
    layers.insert("drv.connect_failures", driven.connect_failures as f64);
    layers.insert("drv.rejected", driven.rejected as f64);
    layers.insert("drv.short", driven.short as f64);
    layers.insert("served_gbps", driven.bytes_received as f64 / wall_s / 1e9);
    layers.insert(
        "stretch",
        wall_s / scheduled_wall_s(schedule, plan.compression),
    );
    layers.insert("replay.start_s", start_s);
    layers.insert("replay.finish_s", finish_s);
    layers.insert("failed_share", failed_share(failed, offered));
    if let Some(sampler) = sampler {
        let g = sampler.finish();
        for (group, cpu, busy) in [
            (Group::Accept, "replay.accept_cpu_s", "replay.accept_busy"),
            (
                Group::Reactor,
                "replay.reactor_cpu_s",
                "replay.reactor_busy",
            ),
            (Group::Driver, "replay.driver_cpu_s", "replay.driver_busy"),
            (Group::Relay, "edge.relay_cpu_s", "edge.relay_busy"),
        ] {
            layers.insert(cpu, g.cpu(group));
            layers.insert(busy, g.busy(group, wall_s));
        }
        layers.insert("replay.other_cpu_s", g.other_s);
    }
    Some(Pass {
        wall_s,
        cpu_s,
        start_s,
        driven,
        layers,
    })
}

/// Wall seconds the schedule spans at this compression.
fn scheduled_wall_s(schedule: &Schedule, compression: f64) -> f64 {
    let first = schedule.transfers.first().map_or(0, |t| t.start);
    f64::from(schedule.horizon().saturating_sub(first)) / compression
}

/// Runs one live workload for at least `seconds` of measured passes.
pub fn run(kind: Live, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let _ = procfs::reset_peak_rss();
    let host = Host::read();
    let driver_threads = host.nproc.clamp(1, MAX_DRIVER_THREADS);
    let plan = Plan {
        kind,
        compression: if kind == Live::Bulk {
            BULK_COMPRESSION
        } else {
            CHURN_COMPRESSION
        },
        server_shards: if kind == Live::Bulk {
            BULK_SHARDS
        } else {
            ServerConfig::default().workers
        },
        driver_threads: match kind {
            // The edge run drives each relay with its own worker pool.
            Live::Edge => driver_threads.max(EDGE_RELAYS as usize),
            // One reader thread against one writer shard.
            Live::Bulk => BULK_DRIVER_THREADS,
            Live::Churn => driver_threads,
        },
    };

    let mut setups = Vec::with_capacity(SETUPS);
    let mut inp = inputs(kind, seed, driver_threads);
    setups.push([inp.total_s, inp.generate_s, inp.schedule_s, inp.reference_s]);
    for _ in 1..SETUPS {
        let again = inputs(kind, seed, driver_threads);
        out.check(
            again.schedule.transfers == inp.schedule.transfers,
            "two set-ups of one seed built different schedules",
        );
        setups.push([
            again.total_s,
            again.generate_s,
            again.schedule_s,
            again.reference_s,
        ]);
        inp = again;
    }
    let setup_median = |i: usize| median(&setups.iter().map(|s| s[i]).collect::<Vec<_>>());

    let started = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || started.elapsed().as_secs_f64() < seconds {
        match pass(&plan, &inp, trace, &mut out) {
            Some(p) => passes.push(p),
            None => break,
        }
        if passes.len() == 1 {
            // Set-up plus one replay: later passes only add samples, and
            // how many fit in the run depends on the host's speed.
            out.set("peak_rss_mib", procfs::peak_rss_mib());
        }
    }
    if passes.is_empty() {
        return out;
    }
    let med = |f: &dyn Fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    // Bind is part of set-up on the flat origin; `run_edge` binds inside
    // the run, so there it counts in wall_s instead.
    out.set("setup_s", setup_median(0) + med(&|p| p.start_s));
    out.set("wall_s", med(&|p| p.wall_s));
    out.set("cpu_s", med(&|p| p.cpu_s));
    let keys: Vec<&'static str> = passes[0].layers.keys().copied().collect();
    for key in keys {
        out.set(key, med(&|p| p.layers.get(key).copied().unwrap_or(0.0)));
    }
    for p in &passes {
        out.attempted += p.driven.launched + p.driven.connect_failures;
        out.failed += p.driven.connect_failures + p.driven.rejected + p.driven.short;
    }

    let schedule = &inp.schedule;
    let scheduled = scheduled_wall_s(schedule, plan.compression);
    let offered_rate = schedule.len() as f64 / scheduled;
    out.set("core.transfers", schedule.len() as f64);
    out.set("core.generate_s", setup_median(1));
    out.set("trace.schedule_s", setup_median(2));
    out.set("replay.reference_s", setup_median(3));
    out.set("drv.offered_connects_per_s", offered_rate);
    out.set("threads.server_shards", plan.server_shards as f64);
    out.set("threads.driver", plan.driver_threads as f64);
    out.set(
        "threads.relays",
        if kind == Live::Edge {
            f64::from(EDGE_RELAYS)
        } else {
            0.0
        },
    );

    let stretch = out.values["stretch"];
    out.say(format!(
        "{} seed {seed}: {} transfers on {} object(s) over {scheduled:.2} s scheduled at {}x, \
         over loopback; {} pass(es)",
        name(kind),
        schedule.len(),
        schedule.object_rates().len(),
        plan.compression,
        passes.len()
    ));
    out.say(format!(
        "  threads: {} server shard(s), {} relay(s), {} driver thread(s)",
        plan.server_shards,
        if kind == Live::Edge { EDGE_RELAYS } else { 0 },
        plan.driver_threads
    ));
    out.say(format!(
        "  offered {offered_rate:.0} connects/s against a loopback budget of {} ephemeral ports",
        host.port_budget()
    ));
    let d = passes[0].driven;
    out.say(format!(
        "  driver (first pass): {} launched, {} connect failure(s), {} server reject(s), {} short, {} bytes",
        d.launched, d.connect_failures, d.rejected, d.short, d.bytes_received
    ));
    if kind == Live::Bulk && stretch < BULK_PACED_STRETCH {
        out.say(format!(
            "  FLAG: live_bulk kept pace with its schedule (stretch {stretch:.3}); it measured the schedule, not the server"
        ));
    }
    out
}

/// The workload's name.
pub fn name(kind: Live) -> &'static str {
    match kind {
        Live::Churn => "live_churn",
        Live::Edge => "edge_churn",
        Live::Bulk => "live_bulk",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_extraction_reads_counters_and_quantiles() {
        let registry = Registry::new();
        registry.counter("srv.conns").add(7);
        registry.counter("drv.connects").add(5);
        let h = registry.histogram("drv.lateness_ms");
        for v in [1, 2, 3, 100] {
            h.record(v);
        }
        registry.counter("unrelated").inc();
        let mut out = BTreeMap::new();
        snapshot_metrics(&registry.snapshot(), &mut out);
        assert_eq!(out["srv.conns"], 7.0);
        assert_eq!(out["drv.connects"], 5.0);
        // Never registered: reads 0 rather than going missing.
        assert_eq!(out["edge.laps"], 0.0);
        assert_eq!(out["srv.pacing_error_ns.p99"], 0.0);
        assert!(out["drv.lateness_ms.p50"] > 0.0);
        assert!(out["drv.lateness_ms.p99"] >= out["drv.lateness_ms.p50"]);
        assert!(!out.contains_key("unrelated"));
        assert_eq!(out.len(), COUNTERS.len() + 2 * HISTOGRAMS.len());
    }

    #[test]
    fn bulk_schedule_depends_on_the_seed_only_through_identities() {
        let a = bulk_schedule(1, 2);
        let b = bulk_schedule(2, 2);
        assert_eq!(a.len(), 2);
        assert_eq!(a.transfers, bulk_schedule(1, 2).transfers);
        assert_ne!(a.transfers, b.transfers);
        assert_eq!(a.total_bytes(), b.total_bytes());
        assert_eq!(a.object_rates().len(), 2);
        assert!((scheduled_wall_s(&a, BULK_COMPRESSION) - 0.1).abs() < 1e-3);
    }
}
