//! The `stms-serve` binary's flag surface: the trace-cache, codec,
//! pipeline and cost-calibration flags are not campaign flags, so the
//! daemon rejects them as unknown.

use std::process::Command;

fn run_serve(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_stms-serve"))
        .args(args)
        .output()
        .expect("spawn stms-serve")
}

#[test]
fn removed_trace_tier_flags_are_unknown() {
    for flag in [
        "--trace-cache",
        "--trace-codec",
        "--replay-pipeline",
        "--decode-threads",
        "--calibrate-from",
    ] {
        let out = run_serve(&["--socket", "unused.sock", flag, "2"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{flag}: {stderr}"
        );
    }
    let help = run_serve(&["--help"]);
    assert!(help.status.success());
    let usage = String::from_utf8_lossy(&help.stdout);
    for flag in [
        "--trace-cache",
        "--trace-codec",
        "--replay-pipeline",
        "--decode-threads",
        "--calibrate-from",
    ] {
        assert!(!usage.contains(flag), "usage still lists {flag}: {usage}");
    }
}
