//! The reproduction context: one synthetic trace, fully processed.
//!
//! Building a context runs the entire substrate chain the paper's data
//! went through:
//!
//! 1. generate a workload from the Table 2 model (`lsw-core`),
//! 2. play it through the server/network simulator (`lsw-sim`), with the
//!    §2.4 harvest anomaly enabled,
//! 3. sanitize the emitted log (`lsw-trace::sanitize`),
//! 4. sessionize at `T_o = 1500 s`,
//! 5. run the full hierarchical characterization (`lsw-analysis`) over
//!    step 4's sessions, so the trace is sessionized once.
//!
//! Experiments then read whatever they need from the context.

use lsw_analysis::{characterize_with, CharacterizationReport};
use lsw_core::config::WorkloadConfig;
use lsw_core::generator::Generator;
use lsw_core::Workload;
use lsw_sim::{SimConfig, Simulator};
use lsw_trace::sanitize::{sanitize, SanitizeReport};
use lsw_trace::session::{SessionConfig, Sessions};
use lsw_trace::trace::Trace;
use serde::{Deserialize, Serialize};

/// How big a reproduction run to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scale {
    /// ~1 day, 20k clients, 30k sessions — seconds to build; used by tests.
    Small,
    /// 7 days, 120k clients, 350k sessions — tens of seconds.
    Medium,
    /// The paper's full 28 days, ~692k clients, ~1.55M sessions.
    Paper,
}

impl Scale {
    /// The workload configuration for this scale.
    pub fn config(&self) -> WorkloadConfig {
        match self {
            Scale::Small => WorkloadConfig::paper().scaled(20_000, 86_400, 30_000),
            Scale::Medium => WorkloadConfig::paper().scaled(120_000, 7 * 86_400, 350_000),
            Scale::Paper => WorkloadConfig::paper(),
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "small" => Some(Scale::Small),
            "medium" => Some(Scale::Medium),
            "paper" => Some(Scale::Paper),
            _ => None,
        }
    }
}

impl std::fmt::Display for Scale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Scale::Small => "small",
            Scale::Medium => "medium",
            Scale::Paper => "paper",
        })
    }
}

/// The fully processed reproduction input.
pub struct ReproContext {
    /// The scale built.
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
    /// The generated workload (ground truth).
    pub workload: Workload,
    /// The sanitized trace.
    pub trace: Trace,
    /// §2.4 sanitization outcome.
    pub sanitize_report: SanitizeReport,
    /// Sessions at `T_o = 1500`.
    pub sessions: Sessions,
    /// Full hierarchical characterization.
    pub report: CharacterizationReport,
}

impl ReproContext {
    /// Builds the context (generate → simulate → sanitize → sessionize →
    /// characterize).
    pub fn build(scale: Scale, seed: u64) -> Self {
        Self::build_with_config(scale, scale.config(), seed)
    }

    /// Builds with an explicit workload configuration (ablations).
    pub fn build_with_config(scale: Scale, config: WorkloadConfig, seed: u64) -> Self {
        let horizon = config.horizon_secs;
        let workload = Generator::new(config, seed)
            .expect("scale presets are valid") // lsw::allow(L005): static presets
            .generate();
        let sim = Simulator::new(SimConfig {
            harvest_anomaly_rate: 2e-4,
            ..SimConfig::default()
        });
        let out = sim.run(&workload, seed ^ 0x5157);
        let (trace, sanitize_report) = sanitize(out.trace.entries().to_vec(), horizon);
        let sessions = Sessions::identify(&trace, SessionConfig::default());
        let report = characterize_with(&trace, &sessions, seed ^ 0x9d2c);
        Self {
            scale,
            seed,
            workload,
            trace,
            sanitize_report,
            sessions,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_context_builds_end_to_end() {
        let ctx = ReproContext::build(Scale::Small, 1);
        assert!(ctx.trace.len() > 10_000, "transfers {}", ctx.trace.len());
        assert!(ctx.sessions.len() > 10_000);
        assert!(ctx.report.summary.users > 1_000);
        // The anomaly injection put something in the reject pile… or the
        // horizon had no midnight crossing — either way the report exists.
        assert_eq!(
            ctx.sanitize_report.kept + ctx.sanitize_report.rejected(),
            ctx.sanitize_report.examined
        );
    }

    #[test]
    fn scale_parse_round_trip() {
        for s in [Scale::Small, Scale::Medium, Scale::Paper] {
            assert_eq!(Scale::parse(&s.to_string()), Some(s));
        }
        assert_eq!(Scale::parse("huge"), None);
    }
}
