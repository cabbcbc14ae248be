//! Property-based tests for the characterizer: any trace the pipeline can
//! produce must yield a structurally sound report.

use lsw_analysis::marginal::{display_transform, Marginal};
use lsw_analysis::{characterize_with, session_layer};
use lsw_core::config::WorkloadConfig;
use lsw_core::generator::Generator;
use lsw_trace::event::{LogEntry, LogEntryBuilder};
use lsw_trace::ids::ClientId;
use lsw_trace::session::{SessionConfig, Sessions};
use lsw_trace::trace::Trace;
use proptest::prelude::*;

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
