//! Drives the real `stms-experiments` binary twice against one cache
//! directory and checks the acceptance contract of the result cache: the
//! warm run's stdout is byte-identical to the cold run's, all replay is
//! skipped, and the stderr run summary says so.

use std::path::PathBuf;
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stms-cli-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_stms-experiments"))
        .args(args)
        .output()
        .expect("spawn stms-experiments")
}

#[test]
fn warm_full_run_is_byte_identical_and_skips_all_work() {
    let dir = temp_dir("full");
    let dir_str = dir.to_str().expect("utf-8 temp path");
    let args = [
        "--quick",
        "--accesses",
        "4000",
        "--threads",
        "2",
        "--figures",
        "all",
        "--result-cache",
        dir_str,
        "--cache-verify",
    ];

    let cold = run_cli(&args);
    assert!(
        cold.status.success(),
        "cold stderr: {}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_summary = String::from_utf8_lossy(&cold.stderr);
    assert!(
        cold_summary.contains("run summary:"),
        "stderr must report cache usage: {cold_summary}"
    );
    assert!(
        !cold_summary.contains("replayed 0,"),
        "the cold run replays: {cold_summary}"
    );

    let warm = run_cli(&args);
    assert!(warm.status.success());
    assert_eq!(
        String::from_utf8_lossy(&cold.stdout),
        String::from_utf8_lossy(&warm.stdout),
        "warm stdout must be byte-identical to cold stdout"
    );
    let warm_summary = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_summary.contains("replayed 0,"),
        "warm run must skip all replay: {warm_summary}"
    );
    assert!(
        warm_summary.contains("result cache:") && warm_summary.contains("0 misses"),
        "warm run must serve every job from the result cache: {warm_summary}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The number after `key ` in the `result cache:` line of a run summary.
fn result_cache_count(summary: &str, key: &str) -> u64 {
    let line = summary
        .lines()
        .find(|line| line.contains("result cache:"))
        .unwrap_or_else(|| panic!("no result cache line in: {summary}"));
    let at = line
        .find(&format!("{key} "))
        .unwrap_or_else(|| panic!("no `{key}` in: {line}"));
    line[at + key.len() + 1..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("no count after `{key}` in: {line}"))
}

#[test]
fn cold_run_counts_one_miss_per_replayed_job() {
    // Every job a cold run replays misses once and is stored once; a
    // duplicate job in the batch neither misses nor replays.
    let dir = temp_dir("cold-counts");
    let dir_str = dir.to_str().expect("utf-8 temp path");
    let cold = run_cli(&[
        "--quick",
        "--accesses",
        "4000",
        "--threads",
        "2",
        "--figures",
        "fig4,table2",
        "--result-cache",
        dir_str,
    ]);
    assert!(cold.status.success());
    let summary = String::from_utf8_lossy(&cold.stderr);
    let replayed = result_cache_count(&summary, "replayed");
    assert!(replayed > 0, "the cold run replays: {summary}");
    assert_eq!(
        replayed,
        result_cache_count(&summary, "stores"),
        "{summary}"
    );
    let executed = summary
        .lines()
        .find_map(|line| line.trim().strip_prefix("flight.executed: "))
        .and_then(|count| count.trim().parse::<u64>().ok())
        .unwrap_or_else(|| panic!("no flight.executed counter in: {summary}"));
    assert_eq!(replayed, executed, "{summary}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_flags_validate_their_arguments() {
    // A missing value is a usage error, not a panic.
    let out = run_cli(&["--result-cache"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--result-cache requires a value"));

    // An unopenable directory is a clean error.
    let out = run_cli(&[
        "--figures",
        "table1",
        "--result-cache",
        "/dev/null/not-a-dir",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot open cache directory"));
}

#[test]
fn runs_without_cache_flags_print_no_summary() {
    let out = run_cli(&["--quick", "--accesses", "4000", "--figures", "table1"]);
    assert!(out.status.success());
    assert!(!String::from_utf8_lossy(&out.stderr).contains("run summary:"));
}

#[test]
fn removed_trace_tier_flags_are_unknown() {
    // The pipeline flags are covered by `cli_pipeline.rs`; the scheduling
    // knobs went with calibrated and modulo partitioning.
    for flag in [
        "--trace-cache",
        "--trace-codec",
        "--calibrate-from",
        "--shard-balance",
    ] {
        let out = run_cli(&[flag, "2", "--figures", "table1"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{flag}: {stderr}"
        );
        let usage = stderr.split("usage:").nth(1).expect("usage printed");
        assert!(!usage.contains(flag), "usage lists {flag}: {usage}");
    }
}
