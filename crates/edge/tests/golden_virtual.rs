//! Golden `--virtual-time` fixtures.
//!
//! A hand-built schedule (not the generator, so model changes do not
//! churn it) runs through the flat executor (`run_virtual`) and the
//! whole-topology executor (`run_virtual_topology`, `origin:2`). Every
//! characterization report must stay byte-equal to the JSON committed
//! under `tests/golden/`. A change that moves one of these files changes
//! what `--virtual-time` reports, and must say why.

use lsw_edge::{run_virtual_topology, Topology};
use lsw_replay::metrics::Registry;
use lsw_replay::run_virtual;
use lsw_sim::server::AdmissionPolicy;
use lsw_stream::StreamConfig;
use lsw_trace::event::LogEntryBuilder;
use lsw_trace::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};
use lsw_trace::schedule::Schedule;
use lsw_trace::LogEntry;

const COUNTRIES: [[u8; 2]; 4] = [*b"BR", *b"US", *b"PT", *b"AR"];

/// 320 transfers by 90 clients over 3 objects, bursty enough that a
/// cap of 40 concurrent transfers rejects some. Transfer 17 has zero
/// duration.
fn schedule() -> Schedule {
    let entries: Vec<LogEntry> = (0u32..320)
        .map(|i| {
            let client = (i * 7) % 90;
            let start = (i / 8) * 45 + (i % 8) * 3;
            let duration = if i == 17 { 0 } else { 60 + (i * 37) % 900 };
            let rate = 4_000 + (i % 5) * 2_000;
            LogEntryBuilder::new()
                .span(start, duration)
                .client(ClientId(client))
                .origin(
                    Ipv4Addr(0x0a00_0000 + client),
                    AsId((client % 13) as u16),
                    CountryCode(COUNTRIES[(client % 4) as usize]),
                )
                .object(ObjectId((i % 3) as u16), 1 + (i % 2) as u8)
                .transfer_stats(u64::from(duration) * u64::from(rate), rate * 8, 0.0)
                .build()
        })
        .collect();
    Schedule::from_entries(&entries)
}

fn golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    assert!(
        expected == actual,
        "{name} differs from the committed fixture\n--- expected\n{expected}\n--- actual\n{actual}"
    );
}

#[test]
fn flat_virtual_report_matches_golden() {
    let out = run_virtual(
        &schedule(),
        AdmissionPolicy::RejectAbove { max_concurrent: 72 },
        StreamConfig::default(),
        &Registry::new(),
    );
    assert!(out.rejected > 0, "the cap must reject some transfers");
    assert_eq!(out.completed + out.rejected, 320);
    golden("flat.json", &out.tap.to_json());
}

#[test]
fn origin2_virtual_reports_match_golden() {
    let topo: Topology = "origin:2".parse().expect("topology");
    let out = run_virtual_topology(
        &schedule(),
        &topo,
        AdmissionPolicy::AcceptAll,
        AdmissionPolicy::RejectAbove { max_concurrent: 40 },
        StreamConfig::default(),
        &Registry::new(),
    );
    assert!(out.rejected > 0, "the relay cap must reject some transfers");
    assert_eq!(out.completed + out.rejected + out.truncated, 320);
    assert_eq!(out.tier_reports.len(), 2);
    golden("origin2_merged.json", &out.merged.to_json());
    for (i, tier) in out.tier_reports.iter().enumerate() {
        golden(&format!("origin2_relay{i}.json"), &tier.to_json());
    }
}
