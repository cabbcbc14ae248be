//! The `lsw` binary fails closed on flags its commands do not take.

use std::process::{Command, Output};

fn lsw(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_lsw"))
        .args(args)
        .output()
        .expect("run the lsw binary")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unknown_flags_exit_2_naming_the_flag() {
    for (args, flag) in [
        (
            &["replay", "/nonexistent", "--data-plane", "tick"][..],
            "--data-plane",
        ),
        (&["replay", "/nonexistent", "--no-asert"][..], "--no-asert"),
        // A real flag, but not one `serve` takes.
        (
            &["serve", "/nonexistent", "--virtual-time"][..],
            "--virtual-time",
        ),
        (
            &["generate", "--out", "/nonexistent", "--day", "1"][..],
            "--day",
        ),
    ] {
        let out = lsw(args);
        let err = stderr(&out);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(err.contains(flag), "{args:?} must name {flag}: {err}");
        // Rejected before any file is opened.
        assert!(!err.contains("cannot read"), "{args:?}: {err}");
    }
}

#[test]
fn valid_flags_get_past_parsing() {
    // Every flag below is on `replay`'s usage line, so parsing succeeds
    // and the command fails on the missing log instead (exit 1).
    let out = lsw(&[
        "replay",
        "/nonexistent",
        "--format",
        "wms",
        "--compression",
        "100",
        "--virtual-time",
        "--topology",
        "origin:2",
        "--json",
        "/nonexistent.json",
        "--no-assert",
    ]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("cannot read /nonexistent"), "{err}");
    assert!(!err.contains("unknown flag"), "{err}");
}

#[test]
fn unknown_commands_exit_2() {
    let out = lsw(&["replai"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unknown command"));
}
