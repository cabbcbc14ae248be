//! Differential test: characterizing a log through the `ltc` binary path
//! must produce the byte-identical report the `wms` text path produces.
//!
//! The fixture trace goes through the text format once first, so both
//! pipelines see the same text-rounded float values — the comparison then
//! isolates the container, not the text formatter's precision.

use lsw_analysis::characterize_with;
use lsw_core::config::WorkloadConfig;
use lsw_core::generator::Generator;
use lsw_trace::ltc;
use lsw_trace::sanitize::sanitize;
use lsw_trace::session::{SessionConfig, Sessions};
use lsw_trace::trace::Trace;
use lsw_trace::wms;

fn characterize_json(trace: &Trace) -> String {
    let sessions = Sessions::identify(trace, SessionConfig { timeout: 1_500.0 });
    characterize_with(trace, &sessions, 7).to_json()
}

#[test]
fn ltc_and_wms_paths_agree_report_for_report() {
    let config = WorkloadConfig::paper().scaled(900, 40_000, 1_400);
    let rendered = Generator::new(config, 11).unwrap().generate().render();

    // Canonical entries: through the text format once (float rounding).
    let text = wms::format_log(rendered.entries());
    let entries = wms::parse_log(std::str::from_utf8(&text).unwrap()).unwrap();
    let horizon = entries.iter().map(|e| e.stop()).max().unwrap() + 1;

    // wms path: parse -> sanitize -> characterize.
    let (trace_wms, report_wms) = sanitize(entries.clone(), horizon);

    // ltc path: encode -> decode -> sanitize -> characterize.
    let image = ltc::encode(&entries).unwrap();
    let (decoded, stats) = ltc::BlockReader::open(ltc::SliceSource::new(&image))
        .unwrap()
        .read_all()
        .unwrap();
    assert_eq!(stats.corrupt_blocks, 0);
    let (trace_ltc, report_ltc) = sanitize(decoded, horizon);

    assert_eq!(report_ltc.rejected(), report_wms.rejected());
    assert_eq!(trace_ltc.entries(), trace_wms.entries());
    assert_eq!(characterize_json(&trace_ltc), characterize_json(&trace_wms));
}
