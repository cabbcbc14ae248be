//! The full hierarchical characterization report.
//!
//! [`characterize`] runs all three layers over a trace and bundles the
//! results with the Table-1 summary. The report serializes to JSON (for
//! the experiment harness) and renders as text (for humans).

use crate::client_layer::{self, ClientLayer};
use crate::session_layer::{self, SessionLayer};
use crate::transfer_layer::{self, TransferLayer};
use lsw_trace::sanitize::SanitizeReport;
use lsw_trace::session::{SessionConfig, Sessions};
use lsw_trace::trace::{Trace, TraceSummary};
use serde::{Deserialize, Serialize};

/// The complete characterization of one trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CharacterizationReport {
    /// Table 1.
    pub summary: TraceSummary,
    /// Session timeout used.
    pub session_timeout: f64,
    /// §2.4 ingest accounting (discarded pathologies + overload audit),
    /// when the caller sanitized a raw log. Present so batch and streamed
    /// reports account for their input identically.
    pub ingest: Option<SanitizeReport>,
    /// §3.
    pub client: ClientLayer,
    /// §4.
    pub session: SessionLayer,
    /// §5.
    pub transfer: TransferLayer,
}

impl CharacterizationReport {
    /// Serializes to pretty JSON.
    ///
    /// Note: `NaN` values (empty temporal bins, undefined ratios) become
    /// JSON `null`; the report is therefore not round-trippable into the
    /// typed struct, only into a generic JSON value.
    pub fn to_json(&self) -> String {
        // lsw::allow(L005): plain struct of numbers/strings always serializes
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Attaches the §2.4 sanitization accounting to the report.
    pub fn with_ingest(mut self, ingest: SanitizeReport) -> Self {
        self.ingest = Some(ingest);
        self
    }

    /// Renders the headline numbers as text (Table 2 style).
    pub fn headline(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        if let Some(ingest) = &self.ingest {
            let _ = writeln!(out, "=== Ingest accounting (2.4) ===");
            let _ = writeln!(
                out,
                "Entries examined        {}  (kept {}, rejected {})",
                ingest.examined,
                ingest.kept,
                ingest.rejected()
            );
            for (reason, n) in &ingest.rejects {
                let _ = writeln!(out, "  discarded {n:>8}  {reason:?}");
            }
            let _ = writeln!(
                out,
                "Server underload        {:.4} of time, {:.4} of transfers  (paper > 0.9999)",
                ingest.underload_time_fraction, ingest.underload_transfer_fraction
            );
            let _ = writeln!(out);
        }
        let _ = writeln!(out, "=== Trace summary (Table 1) ===");
        let _ = writeln!(out, "{}", self.summary);
        let _ = writeln!(out, "Total # of sessions     {}", self.session.n_sessions);
        let _ = writeln!(out);
        let _ = writeln!(out, "=== Fitted model (Table 2) ===");
        if let Some(f) = &self.client.interest.sessions_fit {
            let _ = writeln!(
                out,
                "Client interest (sessions)     Zipf alpha = {:.4}  (paper 0.4704)",
                f.alpha
            );
        }
        if let Some(f) = &self.client.interest.transfers_fit {
            let _ = writeln!(
                out,
                "Client interest (transfers)    Zipf alpha = {:.4}  (paper 0.7194)",
                f.alpha
            );
        }
        if let Some(f) = &self.session.tps_fit {
            let _ = writeln!(
                out,
                "Transfers per session          Zipf alpha = {:.4}  (paper 2.7042)",
                f.alpha
            );
        }
        if let Some(f) = &self.session.intra_iat_fit {
            let _ = writeln!(
                out,
                "Intra-session interarrival     Lognormal mu = {:.3}, sigma = {:.3}  (paper 4.900, 1.321)",
                f.mu, f.sigma
            );
        }
        if let Some(f) = &self.transfer.lengths.fit {
            let _ = writeln!(
                out,
                "Transfer length                Lognormal mu = {:.3}, sigma = {:.3}  (paper 4.384, 1.427)",
                f.mu, f.sigma
            );
        }
        if let Some(f) = &self.session.on_fit {
            let _ = writeln!(
                out,
                "Session ON time                Lognormal mu = {:.3}, sigma = {:.3}  (paper 5.236, 1.544)",
                f.mu, f.sigma
            );
        }
        if let Some(f) = &self.session.off_fit {
            let _ = writeln!(
                out,
                "Session OFF time               Exponential mean = {:.0} s  (paper 203,150)",
                f.mean
            );
        }
        if let Some(t) = &self.transfer.arrivals.tail {
            let _ = writeln!(
                out,
                "Transfer IAT tail              alpha = {:.2} (<=100 s), {:.2} (>100 s)  (paper 2.8, 1.0)",
                t.alpha_short, t.alpha_long
            );
        }
        let _ = writeln!(
            out,
            "Congestion-bound transfers     {:.1}%  (paper ~10%)",
            100.0 * self.transfer.bandwidth.congestion_bound_fraction
        );
        out
    }
}

/// Joins a layer thread, re-raising any panic with its original payload
/// rather than wrapping it in a second panic site here.
fn join_layer<T>(handle: std::thread::ScopedJoinHandle<'_, T>) -> T {
    match handle.join() {
        Ok(v) => v,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

/// Runs the full hierarchical characterization with the paper's default
/// session timeout. `seed` feeds only the Fig 6 synthetic regeneration.
pub fn characterize(trace: &Trace, seed: u64) -> CharacterizationReport {
    characterize_with(
        trace,
        &Sessions::identify(trace, SessionConfig::default()),
        seed,
    )
}

/// Runs the characterization over an existing sessionization of `trace`;
/// the report's session timeout is the one `sessions` was built with.
///
/// The three layers are independent given the trace and the sessionization,
/// so they run concurrently on scoped threads, overlapping the Table 1
/// summary on the calling thread; each layer parallelizes further
/// internally. Results are identical to running them sequentially.
///
/// # Panics
///
/// When `sessions` was not built from `trace`: its entry order must index
/// exactly the trace's transfers.
pub fn characterize_with(trace: &Trace, sessions: &Sessions, seed: u64) -> CharacterizationReport {
    assert_eq!(
        sessions.entry_order().len(),
        trace.len(),
        "sessions were not built from this trace"
    );
    let (summary, client, session, transfer) = crossbeam::thread::scope(|s| {
        let client = s.spawn(|| client_layer::analyze(trace, sessions, seed));
        let session = s.spawn(|| session_layer::analyze(trace, sessions));
        let transfer = s.spawn(|| transfer_layer::analyze(trace));
        // The calling thread computes the summary while the layers run.
        let summary = trace.summary();
        (
            summary,
            join_layer(client),
            join_layer(session),
            join_layer(transfer),
        )
    });
    CharacterizationReport {
        summary,
        session_timeout: sessions.config().timeout,
        ingest: None,
        client,
        session,
        transfer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsw_core::config::WorkloadConfig;
    use lsw_core::generator::Generator;

    fn report() -> CharacterizationReport {
        let config = WorkloadConfig::paper().scaled(1_000, 86_400, 8_000);
        let trace = Generator::new(config, 66).unwrap().generate().render();
        characterize(&trace, 1)
    }

    #[test]
    fn report_is_complete_and_serializable() {
        let r = report();
        assert!(r.summary.transfers > 1_000);
        assert!(r.session.n_sessions > 1_000);
        let json = r.to_json();
        assert!(json.len() > 10_000);
        // NaN fields serialize as null, so parse generically and spot-check.
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(
            v["summary"]["transfers"].as_u64().unwrap() as usize,
            r.summary.transfers
        );
        assert!(v["session"]["n_sessions"].as_u64().unwrap() > 0);
    }

    #[test]
    fn headline_mentions_every_fit() {
        let r = report();
        let text = r.headline();
        for needle in [
            "Client interest (sessions)",
            "Transfers per session",
            "Intra-session interarrival",
            "Transfer length",
            "Session ON time",
            "Congestion-bound",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn custom_timeout_respected() {
        let config = WorkloadConfig::paper().scaled(500, 43_200, 2_000);
        let trace = Generator::new(config, 67).unwrap().generate().render();
        let at = |timeout| Sessions::identify(&trace, SessionConfig { timeout });
        let strict = characterize_with(&trace, &at(60.0), 1);
        let loose = characterize_with(&trace, &at(4_000.0), 1);
        assert!(strict.session.n_sessions >= loose.session.n_sessions);
        assert_eq!(strict.session_timeout, 60.0);
    }

    #[test]
    #[should_panic(expected = "sessions were not built from this trace")]
    fn sessions_of_another_trace_are_rejected() {
        let gen = |sessions, seed| {
            let config = WorkloadConfig::paper().scaled(300, 43_200, sessions);
            Generator::new(config, seed).unwrap().generate().render()
        };
        let (trace, other) = (gen(600, 68), gen(1_200, 69));
        assert_ne!(trace.len(), other.len());
        let sessions = Sessions::identify(&other, SessionConfig::default());
        characterize_with(&trace, &sessions, 1);
    }
}
