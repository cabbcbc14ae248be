//! What one benchmark run found, and its rendering: a human-readable
//! report followed by the one-line JSON result.

use crate::catalog::{END_TO_END, PER_LAYER};
use std::collections::BTreeMap;
use std::time::Instant;

/// Runs `f` and returns its result with the wall seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_secs_f64())
}

/// Failed share of a run: `failed / attempted`. A run that attempted
/// nothing has measured nothing, so it counts as entirely failed.
pub fn failed_share(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// Median of the values (mean of the middle two for an even count);
/// NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Stable 64-bit FNV-1a digest, for comparing reports across runs.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name (end-to-end and per-layer alike).
    pub values: BTreeMap<&'static str, f64>,
    /// Output checks that failed; any entry makes the run invalid.
    pub problems: Vec<String>,
    /// Human-readable report lines.
    pub lines: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records a check; a failed one invalidates the run.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.problems.push(what.into());
        }
    }

    /// Appends a report line.
    pub fn say(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// The one-line JSON result: every end-to-end metric (`trace` off)
    /// or every per-layer metric (`trace` on). Per-layer metrics of
    /// layers the workload does not exercise read 0.
    pub fn result_json(&mut self, trace: bool) -> String {
        let wanted: Vec<(&'static str, &'static str, bool)> = if trace {
            PER_LAYER.iter().map(|m| (m.name, m.unit, false)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.0, m.1, true)).collect()
        };
        let mut fields = Vec::with_capacity(wanted.len());
        for (name, unit, required) in wanted {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.problems.push(format!("{name} is not finite ({v})"));
                    0.0
                }
                None if required => {
                    self.problems.push(format!("{name} was not measured"));
                    0.0
                }
                None => 0.0,
            };
            fields.push(format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty() && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_share_counts_zero_attempts_as_total_failure() {
        assert_eq!(failed_share(0, 0), 1.0);
        assert_eq!(failed_share(0, 62), 0.0);
        assert!((failed_share(1, 62) - 1.0 / 62.0).abs() < 1e-12);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn digest_is_stable() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(digest(b"ab"), digest(b"ba"));
    }

    #[test]
    fn json_line_lists_every_metric_and_flags_gaps() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for (name, _, _) in END_TO_END {
            o.set(name, 1.5);
        }
        let line = o.result_json(false);
        let v: serde_json::Value = serde_json::from_str(&line).unwrap();
        assert_eq!(v["correct"].as_bool(), Some(true));
        assert_eq!(v["attempted"].as_u64(), Some(3));
        assert_eq!(v["metrics"]["setup_s"]["value"].as_f64(), Some(1.5));
        assert_eq!(v["metrics"]["setup_s"]["unit"].as_str(), Some("s"));

        // Per-layer output fills unexercised layers with 0; a missing
        // end-to-end metric or a NaN invalidates the run.
        let traced: serde_json::Value = serde_json::from_str(&o.result_json(true)).unwrap();
        assert_eq!(traced["metrics"]["edge.laps"]["value"].as_f64(), Some(0.0));
        let mut gap = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        gap.set("wall_s", f64::NAN);
        let v: serde_json::Value = serde_json::from_str(&gap.result_json(false)).unwrap();
        assert_eq!(v["correct"].as_bool(), Some(false));
        assert!(gap.problems.iter().any(|p| p.contains("setup_s")));
        assert!(gap.problems.iter().any(|p| p.contains("wall_s")));
    }
}
