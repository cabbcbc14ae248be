//! Property-based tests for the trace substrate: sessionizer invariants,
//! WMS wire-format round trips, sweep-line conservation laws.

use lsw_trace::concurrency::ConcurrencyProfile;
use lsw_trace::event::{LogEntry, LogEntryBuilder};
use lsw_trace::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};
use lsw_trace::ltc;
use lsw_trace::schedule::Schedule;
use lsw_trace::session::{transfer_counts_per_client, SessionConfig, Sessions};
use lsw_trace::trace::{Trace, TraceSummary};
use lsw_trace::wms;
use proptest::prelude::*;
use std::collections::{BTreeMap, HashSet};

/// Strategy producing a random but valid log entry within a 1-day horizon.
fn arb_entry() -> impl Strategy<Value = LogEntry> {
    (
        0u32..80_000, // start
        0u32..5_000,  // duration
        0u32..50,     // client
        0u32..1_000,  // ip
        0u16..30,     // as
        0u16..2,      // object
        0u8..48,      // camera
        0u64..10_000_000,
        0u32..1_000_000,
        0.0f32..1.0,
        0.0f32..1.0,
    )
        .prop_map(
            |(start, dur, client, ip, asn, obj, cam, bytes, bw, loss, cpu)| {
                LogEntryBuilder::new()
                    .span(start, dur)
                    .client(ClientId(client))
                    .origin(Ipv4Addr(ip), AsId(asn), CountryCode(*b"BR"))
                    .object(ObjectId(obj), cam)
                    .transfer_stats(bytes, bw, loss)
                    .server(cpu, 200)
                    .build()
            },
        )
}

/// Like [`arb_entry`], but roughly half the entries carry one of the
/// §2.4 defects (failed status, malformed stats, horizon violations,
/// inconsistent timestamps). The `ltc` container must preserve these
/// verbatim — sanitization is the reader's job, not the format's.
fn arb_any_entry() -> impl Strategy<Value = LogEntry> {
    (arb_entry(), 0u8..8).prop_map(|(mut e, tweak)| {
        match tweak {
            0 => e.status = 404,
            1 => e.status = 503,
            2 => e.packet_loss = 1.5,
            3 => e.cpu_util = -0.25,
            4 => e.start = e.start.saturating_add(200_000),
            5 => e.timestamp = e.timestamp.wrapping_add(977),
            6 => e.duration = 300_000,
            _ => {}
        }
        e
    })
}

/// Country codes for the key-space traces: ordinary codes plus bytes
/// that are not ASCII; two share a first byte, so the whole `u16` key counts.
const COUNTRIES: [[u8; 2]; 4] = [*b"BR", *b"BO", *b"US", [0xff, 0x01]];

/// A trace whose keys sit at the edges of their spaces: client ids and IPs
/// near 0 and near `u32::MAX`, AS ids near both ends of `u16`, from small
/// pools so clients repeat and one IP shows up under several ASes. The
/// trace draws from `n_countries` countries and `n_objects` objects, so a
/// single country or a single object occurs.
fn arb_key_trace() -> impl Strategy<Value = Trace> {
    let key = |lo: u32| prop_oneof![0..lo, (u32::MAX - lo)..=u32::MAX];
    let raw = (
        0u32..80_000,
        0u32..5_000,
        key(40),
        key(60),
        prop_oneof![0u16..6, (u16::MAX - 3)..=u16::MAX],
        0usize..COUNTRIES.len(),
        0u16..3,
        0u64..10_000_000,
    );
    (
        1usize..=COUNTRIES.len(),
        1u16..=3,
        prop::collection::vec(raw, 1..150),
    )
        .prop_map(|(n_countries, n_objects, raws)| {
            let entries = raws
                .into_iter()
                .map(|(start, dur, client, ip, asn, country, obj, bytes)| {
                    LogEntryBuilder::new()
                        .span(start, dur)
                        .client(ClientId(client))
                        .origin(
                            Ipv4Addr(ip),
                            AsId(asn),
                            CountryCode(COUNTRIES[country % n_countries]),
                        )
                        .object(ObjectId(obj % n_objects), 0)
                        .transfer_stats(bytes, 34_000, 0.0)
                        .build()
                })
                .collect();
            Trace::from_entries(entries, 86_400)
        })
}

/// The `HashSet` form of [`Trace::summary`], kept as its reference.
fn reference_summary(trace: &Trace) -> TraceSummary {
    let mut clients = HashSet::new();
    let mut ips = HashSet::new();
    let mut ases = HashSet::new();
    let mut countries = HashSet::new();
    let mut objects = HashSet::new();
    let mut bytes: u64 = 0;
    for e in trace.entries() {
        clients.insert(e.client);
        ips.insert(e.ip);
        ases.insert(e.as_id);
        countries.insert(e.country.0);
        objects.insert(e.object);
        bytes = bytes.saturating_add(e.bytes);
    }
    TraceSummary {
        days: f64::from(trace.horizon()) / 86_400.0,
        objects: objects.len(),
        client_ases: ases.len(),
        countries: countries.len(),
        client_ips: ips.len(),
        users: clients.len(),
        transfers: trace.len(),
        bytes,
    }
}

/// The `BTreeMap` form of the per-client counts, kept as their reference:
/// one count per client, in ascending client order.
fn reference_counts(clients: impl Iterator<Item = ClientId>) -> Vec<u64> {
    let mut counts: BTreeMap<ClientId, u64> = BTreeMap::new();
    for c in clients {
        *counts.entry(c).or_insert(0) += 1;
    }
    counts.into_values().collect()
}

/// Checks every sort-and-count aggregation against its reference.
fn check_aggregations(trace: &Trace) {
    prop_assert_eq!(trace.summary(), reference_summary(trace));
    let sessions = Sessions::identify(trace, SessionConfig::default());
    let transfers = reference_counts(trace.entries().iter().map(|e| e.client));
    let per_session = reference_counts(sessions.all().iter().map(|s| s.client));
    // Same order as the BTreeMap, so equal before ranking, not just after.
    prop_assert_eq!(&transfer_counts_per_client(trace), &transfers);
    prop_assert_eq!(&sessions.session_counts_per_client(), &per_session);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn aggregations_match_reference(trace in arb_key_trace()) {
        check_aggregations(&trace);
    }

    #[test]
    fn ltc_round_trip_exact(entries in prop::collection::vec(arb_any_entry(), 0..300)) {
        let image = ltc::encode(&entries).unwrap();
        let (decoded, stats) = ltc::BlockReader::open(ltc::SliceSource::new(&image))
            .unwrap()
            .read_all()
            .unwrap();
        prop_assert_eq!(stats.corrupt_blocks, 0);
        // Bit-identical, floats included: ltc columns store raw f32 bits,
        // so unlike the text round trip no tolerance is needed.
        prop_assert_eq!(decoded, entries);
    }

    #[test]
    fn ltc_trace_round_trip(entries in prop::collection::vec(arb_any_entry(), 0..200)) {
        let trace = Trace::from_entries(entries, 400_000);
        let image = ltc::encode(trace.entries()).unwrap();
        let mut src = ltc::SliceSource::new(&image);
        let index = ltc::read_index(&mut src).unwrap();
        // Trace order is nondecreasing (start, timestamp): the writer must
        // notice and set the sorted flag that enables direct ingest.
        prop_assert!(index.sorted);
        let (decoded, _) = ltc::BlockReader::open(src).unwrap().read_all().unwrap();
        let round = Trace::from_entries(decoded, 400_000);
        prop_assert_eq!(round.entries(), trace.entries());
    }

    #[test]
    fn wms_round_trip(entries in prop::collection::vec(arb_entry(), 0..50)) {
        let text = wms::format_log(&entries);
        let parsed = wms::parse_log(std::str::from_utf8(&text).unwrap()).unwrap();
        // Float fields are printed with finite precision; compare them with
        // tolerance and everything else exactly.
        prop_assert_eq!(parsed.len(), entries.len());
        for (p, e) in parsed.iter().zip(&entries) {
            prop_assert_eq!(p.timestamp, e.timestamp);
            prop_assert_eq!(p.start, e.start);
            prop_assert_eq!(p.duration, e.duration);
            prop_assert_eq!(p.client, e.client);
            prop_assert_eq!(p.ip, e.ip);
            prop_assert_eq!(p.as_id, e.as_id);
            prop_assert_eq!(p.object, e.object);
            prop_assert_eq!(p.camera, e.camera);
            prop_assert_eq!(p.bytes, e.bytes);
            prop_assert_eq!(p.avg_bandwidth, e.avg_bandwidth);
            prop_assert!((p.packet_loss - e.packet_loss).abs() < 1e-4);
            prop_assert!((p.cpu_util - e.cpu_util).abs() < 1e-3);
            prop_assert_eq!(p.status, e.status);
        }
    }

    #[test]
    fn sessions_partition_transfers(
        entries in prop::collection::vec(arb_entry(), 1..120),
        timeout in 0.0..10_000.0f64,
    ) {
        let n = entries.len();
        let trace = Trace::from_entries(entries, 100_000);
        let s = Sessions::identify(&trace, SessionConfig { timeout });
        // Every transfer belongs to exactly one session.
        let total: u64 = s.transfers_per_session().iter().sum();
        prop_assert_eq!(total as usize, n);
        prop_assert_eq!(s.entry_order().len(), n);
        let mut seen = vec![false; n];
        for &i in s.entry_order() {
            prop_assert!(!seen[i as usize], "transfer in two sessions");
            seen[i as usize] = true;
        }
    }

    #[test]
    fn sessions_respect_bounds(
        entries in prop::collection::vec(arb_entry(), 1..120),
        timeout in 0.0..10_000.0f64,
    ) {
        let trace = Trace::from_entries(entries, 100_000);
        let s = Sessions::identify(&trace, SessionConfig { timeout });
        for sess in s.all() {
            prop_assert!(sess.start <= sess.end);
            prop_assert!(sess.transfers >= 1);
            // Each session's transfers lie within [start, end] and gaps
            // never exceed the timeout.
            let es = s.entries_of(sess, &trace);
            let mut running_end = es[0].stop();
            prop_assert_eq!(es[0].start, sess.start);
            for e in &es {
                prop_assert!(e.start >= sess.start && e.stop() <= sess.end);
            }
            for e in es.iter().skip(1) {
                prop_assert!(e.start as f64 - running_end as f64 <= timeout,
                    "intra-session gap exceeds timeout");
                running_end = running_end.max(e.stop());
            }
            prop_assert_eq!(running_end, sess.end);
        }
    }

    #[test]
    fn session_count_monotone_in_timeout(
        entries in prop::collection::vec(arb_entry(), 1..100),
    ) {
        let trace = Trace::from_entries(entries, 100_000);
        let mut prev = usize::MAX;
        for timeout in [0.0, 100.0, 500.0, 1_500.0, 5_000.0, 50_000.0] {
            let n = Sessions::identify(&trace, SessionConfig { timeout }).len();
            prop_assert!(n <= prev, "session count increased with To");
            prev = n;
        }
    }

    #[test]
    fn off_times_exceed_timeout(
        entries in prop::collection::vec(arb_entry(), 1..120),
        timeout in 0.0..5_000.0f64,
    ) {
        let trace = Trace::from_entries(entries, 100_000);
        let s = Sessions::identify(&trace, SessionConfig { timeout });
        // By construction a session OFF time is a silence longer than To.
        for off in s.off_times() {
            prop_assert!(off > timeout, "off time {off} <= timeout {timeout}");
        }
    }

    #[test]
    fn concurrency_integral_equals_active_seconds(
        entries in prop::collection::vec(arb_entry(), 0..80),
    ) {
        let horizon = 100_000u32;
        let p = ConcurrencyProfile::transfers(&entries, horizon);
        let integral: u64 = p.per_second().iter().map(|&c| u64::from(c)).sum();
        // Each transfer contributes (duration + 1) active seconds (it is
        // active during its stop second too), clipped to the horizon.
        let expected: u64 = entries
            .iter()
            .map(|e| {
                let start = e.start.min(horizon) as u64;
                let end = (e.stop() as u64 + 1).min(horizon as u64);
                end.saturating_sub(start)
            })
            .sum();
        prop_assert_eq!(integral, expected);
    }

    #[test]
    fn schedule_extraction_format_invariant(
        entries in prop::collection::vec(arb_any_entry(), 0..250),
    ) {
        // The replay schedule must not depend on which container the
        // trace arrived in: text parse + classify and ltc column decode +
        // classify are different code paths over the same rules, and the
        // kept set is all-integer, so equality is exact.
        let text = wms::format_log(&entries);
        let from_wms = Schedule::from_wms_bytes(&text);
        let image = ltc::encode(&entries).unwrap();
        let from_ltc = Schedule::from_ltc(ltc::SliceSource::new(&image)).unwrap();
        prop_assert_eq!(&from_wms.transfers, &from_ltc.transfers);
        prop_assert_eq!(from_wms.stats.examined, from_ltc.stats.examined);
        prop_assert_eq!(from_wms.stats.rejected, from_ltc.stats.rejected);
        prop_assert_eq!(from_wms.stats.malformed, 0);
        prop_assert_eq!(from_ltc.stats.corrupt_blocks, 0);
        // Every kept transfer is replayable: start-ordered and successful.
        prop_assert!(from_wms
            .transfers
            .windows(2)
            .all(|w| w[0].start <= w[1].start));
        for t in &from_wms.transfers {
            prop_assert!((200..300).contains(&t.status));
            prop_assert_eq!(u64::from(t.stop()), u64::from(t.start) + u64::from(t.duration));
        }
    }

    #[test]
    fn summary_counts_bounded(entries in prop::collection::vec(arb_entry(), 0..100)) {
        let n = entries.len();
        let trace = Trace::from_entries(entries, 100_000);
        let s = trace.summary();
        prop_assert_eq!(s.transfers, n);
        prop_assert!(s.users <= n.max(1));
        prop_assert!(s.client_ips <= n.max(1));
        prop_assert!(s.client_ases <= s.client_ips.max(1));
        let per_client: u64 = transfer_counts_per_client(&trace).iter().sum();
        prop_assert_eq!(per_client as usize, n);
    }
}

#[test]
fn aggregations_match_reference_on_edge_traces() {
    let entry = |client: u32, ip: u32, asn: u16, country: [u8; 2]| {
        LogEntryBuilder::new()
            .span(client % 7 * 100, 50)
            .client(ClientId(client))
            .origin(Ipv4Addr(ip), AsId(asn), CountryCode(country))
            .object(ObjectId(0), 0)
            .transfer_stats(1_000, 34_000, 0.0)
            .build()
    };
    let traces = [
        // One entry, at the top of every key space.
        vec![entry(u32::MAX, u32::MAX, u16::MAX, *b"ZZ")],
        // One IP under two ASes; ids at both ends of u32.
        vec![
            entry(0, u32::MAX, 1, *b"BR"),
            entry(u32::MAX, u32::MAX, 2, *b"BR"),
            entry(u32::MAX - 1, 0, 2, *b"US"),
            entry(u32::MAX, 0, 1, *b"BR"),
        ],
    ];
    for entries in traces {
        check_aggregations(&Trace::from_entries(entries, 86_400));
    }
}
