//! Property-based tests for the characterizer: any trace the pipeline can
//! produce must yield a structurally sound report.

use lsw_analysis::client_layer::{analyze_geo, analyze_interest, GeoAnalysis};
use lsw_analysis::marginal::{display_transform, Marginal};
use lsw_analysis::{characterize_with, session_layer};
use lsw_core::config::WorkloadConfig;
use lsw_core::generator::Generator;
use lsw_stats::empirical::RankFrequency;
use lsw_trace::event::{LogEntry, LogEntryBuilder};
use lsw_trace::ids::{AsId, ClientId, CountryCode, Ipv4Addr, ObjectId};
use lsw_trace::session::{SessionConfig, Sessions};
use lsw_trace::trace::Trace;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// Step sizes for the hand-built sweep traces: each transfer starts this
/// far after its client's previous stop, so gaps land exactly on sweep
/// timeouts, one second either side, at zero, or overlap the previous
/// transfer.
const SWEEP_STEPS: [i32; 12] = [
    -400, -1, 0, 59, 60, 61, 400, 1_499, 1_500, 1_501, 4_000, 9_000,
];

/// Transfer durations, zero-length included.
const SWEEP_DURATIONS: [u32; 5] = [0, 0, 1, 300, 2_000];

/// A few clients, each a chain of `(step, duration, roll)` moves; a roll
/// below 15 repeats the client's previous transfer exactly.
fn sweep_trace(clients: Vec<Vec<(usize, usize, u32)>>) -> Trace {
    let mut entries: Vec<LogEntry> = Vec::new();
    for (c, moves) in clients.into_iter().enumerate() {
        let mut prev: Option<(u32, u32)> = None;
        for (step, dur, roll) in moves {
            let (start, dur) = match prev {
                Some(p) if roll < 15 => p,
                Some((start, d)) => (
                    (start + d).saturating_add_signed(SWEEP_STEPS[step]),
                    SWEEP_DURATIONS[dur],
                ),
                None => (100 * step as u32, SWEEP_DURATIONS[dur]),
            };
            entries.push(
                LogEntryBuilder::new()
                    .span(start, dur)
                    .client(ClientId(c as u32))
                    .build(),
            );
            prev = Some((start, dur));
        }
    }
    Trace::from_entries(entries, 200_000)
}

/// Country codes for the key-space traces: two share a first byte, one is
/// not ASCII.
const COUNTRIES: [[u8; 2]; 4] = [*b"BR", *b"BO", *b"US", [0xff, 0x01]];

/// A trace whose client ids and IPs sit near 0 and near `u32::MAX` and
/// whose AS ids sit near both ends of `u16`, from pools small enough that
/// one IP shows up under several ASes; `n_countries` may be 1.
fn key_trace(n_countries: usize, raws: Vec<(u32, u32, u32, u16, usize)>) -> Trace {
    let entries = raws
        .into_iter()
        .map(|(start, client, ip, asn, country)| {
            LogEntryBuilder::new()
                .span(start, 300)
                .client(ClientId(client))
                .origin(
                    Ipv4Addr(ip),
                    AsId(asn),
                    CountryCode(COUNTRIES[country % n_countries]),
                )
                .object(ObjectId(0), 0)
                .transfer_stats(1_000, 34_000, 0.0)
                .build()
        })
        .collect();
    Trace::from_entries(entries, 86_400)
}

/// The `BTreeMap`/`BTreeSet` form of [`analyze_geo`], kept as its reference.
fn reference_geo(trace: &Trace) -> GeoAnalysis {
    let mut transfers_per_as: BTreeMap<AsId, u64> = BTreeMap::new();
    let mut ips_per_as: BTreeMap<AsId, BTreeSet<Ipv4Addr>> = BTreeMap::new();
    let mut transfers_per_country: BTreeMap<[u8; 2], u64> = BTreeMap::new();
    for e in trace.entries() {
        *transfers_per_as.entry(e.as_id).or_insert(0) += 1;
        ips_per_as.entry(e.as_id).or_default().insert(e.ip);
        *transfers_per_country.entry(e.country.0).or_insert(0) += 1;
    }
    let n_ases = transfers_per_as.len();
    let as_by_transfers =
        RankFrequency::from_counts(transfers_per_as.into_values().collect()).points();
    let as_by_ips =
        RankFrequency::from_counts(ips_per_as.values().map(|s| s.len() as u64).collect()).points();
    let total: u64 = transfers_per_country.values().sum();
    let mut country_transfers: Vec<(String, f64)> = transfers_per_country
        .into_iter()
        .map(|(c, n)| {
            (
                std::str::from_utf8(&c).unwrap_or("??").to_string(),
                n as f64 / total.max(1) as f64,
            )
        })
        .collect();
    country_transfers.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    GeoAnalysis {
        as_by_transfers,
        as_by_ips,
        n_countries: country_transfers.len(),
        country_transfers,
        n_ases,
    }
}

/// The `BTreeMap` form of the Fig 7 per-client counts, ranked.
fn reference_rank(clients: impl Iterator<Item = ClientId>) -> Vec<(f64, f64)> {
    let mut counts: BTreeMap<ClientId, u64> = BTreeMap::new();
    for c in clients {
        *counts.entry(c).or_insert(0) += 1;
    }
    RankFrequency::from_counts(counts.into_values().collect()).points()
}

/// Checks Fig 2 and the Fig 7 rankings against their references.
fn check_client_aggregations(trace: &Trace) {
    let (geo, reference) = (analyze_geo(trace), reference_geo(trace));
    prop_assert_eq!(&geo.as_by_transfers, &reference.as_by_transfers);
    prop_assert_eq!(&geo.as_by_ips, &reference.as_by_ips);
    prop_assert_eq!(&geo.country_transfers, &reference.country_transfers);
    prop_assert_eq!(geo.n_ases, reference.n_ases);
    prop_assert_eq!(geo.n_countries, reference.n_countries);

    let sessions = Sessions::identify(trace, SessionConfig::default());
    let interest = analyze_interest(trace, &sessions);
    let transfers = reference_rank(trace.entries().iter().map(|e| e.client));
    let per_session = reference_rank(sessions.all().iter().map(|s| s.client));
    prop_assert_eq!(&interest.transfers_rank, &transfers);
    prop_assert_eq!(&interest.sessions_rank, &per_session);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn client_aggregations_match_reference(
        n_countries in 1..=COUNTRIES.len(),
        raws in prop::collection::vec(
            (
                0u32..80_000,
                prop_oneof![0u32..40, (u32::MAX - 40)..=u32::MAX],
                prop_oneof![0u32..60, (u32::MAX - 60)..=u32::MAX],
                prop_oneof![0u16..6, (u16::MAX - 3)..=u16::MAX],
                0..COUNTRIES.len(),
            ),
            1..150,
        ),
    ) {
        check_client_aggregations(&key_trace(n_countries, raws));
    }
}

#[test]
fn client_aggregations_match_reference_on_edge_traces() {
    // One entry, at the top of every key space.
    check_client_aggregations(&key_trace(1, vec![(0, u32::MAX, u32::MAX, u16::MAX, 0)]));
    // One IP under two ASes; ids at both ends of u32.
    check_client_aggregations(&key_trace(
        4,
        vec![
            (0, 0, u32::MAX, 1, 0),
            (10, u32::MAX, u32::MAX, 2, 0),
            (20, u32::MAX - 1, 0, 2, 3),
            (4_000, u32::MAX, 0, 1, 1),
        ],
    ));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn report_structurally_sound(
        n_clients in 300usize..3_000,
        sessions in 500usize..4_000,
        seed in 0u64..500,
        timeout in 300.0..3_000.0f64,
    ) {
        let config = WorkloadConfig::paper().scaled(n_clients, 86_400, sessions);
        let trace = Generator::new(config, seed).unwrap().generate().render();
        let sessions = Sessions::identify(&trace, SessionConfig { timeout });
        let report = characterize_with(&trace, &sessions, seed);

        // Table 1 consistency.
        prop_assert_eq!(report.summary.transfers, trace.len());
        prop_assert!(report.summary.users <= n_clients);
        prop_assert!(report.session.n_sessions >= 1);
        prop_assert!(report.session.n_sessions <= trace.len());

        // Marginals: CDF endpoints and frequency normalization.
        for m in [
            &report.session.on_times,
            &report.session.intra_iat,
            &report.transfer.lengths.marginal,
            &report.client.arrivals.interarrivals,
        ] {
            if m.summary.n > 1 {
                let last = m.cdf.last().map(|&(_, p)| p).unwrap_or(1.0);
                prop_assert!((last - 1.0).abs() < 1e-9, "CDF must end at 1");
                let first_ccdf = m.ccdf.first().map(|&(_, p)| p).unwrap_or(1.0);
                prop_assert!((first_ccdf - 1.0).abs() < 1e-9, "CCDF must start at 1");
                let mass: f64 = m.frequency.iter().map(|&(_, f)| f).sum();
                prop_assert!(mass <= 1.0 + 1e-9);
            }
        }

        // Concurrency: peak consistent between layers; daily fold has
        // exactly 96 bins for a 1-day trace.
        prop_assert_eq!(report.client.concurrency.daily.values.len(), 96);
        prop_assert!(report.transfer.concurrency.peak as usize <= trace.len());

        // Timeout sweep monotone.
        let sweep = &report.session.timeout_sweep;
        prop_assert!(sweep.points.windows(2).all(|w| w[0].1 >= w[1].1));

        // Geo shares normalized.
        let share: f64 = report.client.geo.country_transfers.iter().map(|c| c.1).sum();
        prop_assert!((share - 1.0).abs() < 1e-9);

        // Headline renders without panicking and mentions the trace size.
        let text = report.headline();
        prop_assert!(text.contains("Table 1"));
    }

    #[test]
    fn display_transform_is_monotone_and_positive(
        data in prop::collection::vec(0.0..1e6f64, 1..200),
    ) {
        let out = display_transform(&data);
        prop_assert!(out.iter().all(|&x| x >= 1.0));
        for (a, b) in data.iter().zip(&out) {
            prop_assert!(b >= a, "transform must not shrink values");
            prop_assert!(*b <= a + 1.0 + 1e-9);
        }
    }

    #[test]
    fn marginal_handles_any_positive_data(
        data in prop::collection::vec(0.001..1e9f64, 1..500),
        per_decade in 1usize..20,
    ) {
        let m = Marginal::log_binned(&data, per_decade).unwrap();
        prop_assert_eq!(m.summary.n, data.len());
        // All frequencies positive, mass conserved.
        prop_assert!(m.frequency.iter().all(|&(_, f)| f > 0.0));
        let mass: f64 = m.frequency.iter().map(|&(_, f)| f).sum();
        prop_assert!((mass - 1.0).abs() < 1e-6, "mass {}", mass);
    }

    #[test]
    fn timeout_sweep_matches_direct_sessionization(
        seed in 0u64..200,
    ) {
        let config = WorkloadConfig::paper().scaled(800, 43_200, 1_500);
        let trace = Generator::new(config, seed).unwrap().generate().render();
        let sweep = session_layer::sweep_timeouts(&trace, &session_layer::TIMEOUT_SWEEP);
        prop_assert_eq!(sweep.points.len(), session_layer::TIMEOUT_SWEEP.len());
        for &(t, n) in &sweep.points {
            let direct = Sessions::identify(&trace, SessionConfig { timeout: t }).len();
            prop_assert_eq!(n, direct);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn timeout_sweep_matches_direct_sessionization_on_edge_cases(
        clients in prop::collection::vec(
            prop::collection::vec(
                (0..SWEEP_STEPS.len(), 0..SWEEP_DURATIONS.len(), 0..100u32),
                1..25,
            ),
            1..5,
        ),
        built_at in 0..4usize,
    ) {
        let trace = sweep_trace(clients);
        let mut timeouts = session_layer::TIMEOUT_SWEEP.to_vec();
        timeouts.extend_from_slice(&[0.0, 1.0, 1_499.0, 1_501.0, 1e9]);
        let sweep = session_layer::sweep_timeouts(&trace, &timeouts);
        for &(t, n) in &sweep.points {
            let direct = Sessions::identify(&trace, SessionConfig { timeout: t }).len();
            prop_assert_eq!(n, direct, "timeout {}", t);
        }
        // The layer reads Fig 9 off whatever sessionization it is handed:
        // the gaps, and so the curve, do not depend on its timeout.
        let built_at = [0.0, 60.0, 1_500.0, 1e9][built_at];
        let sessions = Sessions::identify(&trace, SessionConfig { timeout: built_at });
        let layer = session_layer::analyze(&trace, &sessions);
        prop_assert_eq!(
            &layer.timeout_sweep.points[..],
            &sweep.points[..session_layer::TIMEOUT_SWEEP.len()]
        );
    }
}
