//! Drives the real `stms-experiments` binary through the distributed
//! campaign lifecycle and checks the acceptance contract: a campaign
//! executed as two shard processes plus a merge renders stdout
//! byte-identical to a single-process run, and the merge rejects
//! incomplete or duplicate shard coverage with a typed error.

use std::path::PathBuf;
use std::process::Command;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("stms-cli-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_stms-experiments"))
        .args(args)
        .output()
        .expect("spawn stms-experiments")
}

const COMMON: &[&str] = &[
    "--quick",
    "--accesses",
    "4000",
    "--threads",
    "2",
    "--figures",
    "table2,fig4,table1",
];

fn with(common: &[&str], extra: &[&str]) -> Vec<&'static str> {
    // Leak is fine in a test binary; keeps the call sites readable.
    common
        .iter()
        .chain(extra.iter())
        .map(|s| Box::leak(s.to_string().into_boxed_str()) as &'static str)
        .collect()
}

#[test]
fn two_shards_plus_merge_render_byte_identical_stdout() {
    let dir = temp_dir("merge");
    let dir_str = dir.to_str().expect("utf-8 temp path").to_string();

    let direct = run_cli(COMMON);
    assert!(direct.status.success());
    assert!(!direct.stdout.is_empty());

    for shard in ["1/2", "2/2"] {
        let out = run_cli(&with(COMMON, &["--shard", shard, "--shard-out", &dir_str]));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "shard {shard} stderr: {stderr}");
        assert!(
            out.stdout.is_empty(),
            "shard mode must render nothing to stdout"
        );
        assert!(stderr.contains("run summary:"), "{stderr}");
        assert!(stderr.contains(&format!("shard {shard}:")), "{stderr}");
        assert!(stderr.contains("0 failed"), "{stderr}");
    }
    assert!(dir.join("shard-1-of-2.stms").is_file());
    assert!(dir.join("shard-2-of-2.stms").is_file());

    let merged = run_cli(&with(COMMON, &["--merge-shards", &dir_str]));
    assert!(
        merged.status.success(),
        "merge stderr: {}",
        String::from_utf8_lossy(&merged.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&direct.stdout),
        String::from_utf8_lossy(&merged.stdout),
        "merged stdout must be byte-identical to the single-process run"
    );

    // JSON mode merges identically too (raw metrics hydrate from the
    // manifests, so even the "metrics" arrays agree).
    let direct_json = run_cli(&with(COMMON, &["--format", "json"]));
    let merged_json = run_cli(&with(
        COMMON,
        &["--format", "json", "--merge-shards", &dir_str],
    ));
    assert!(direct_json.status.success() && merged_json.status.success());
    assert_eq!(
        String::from_utf8_lossy(&direct_json.stdout),
        String::from_utf8_lossy(&merged_json.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn merge_rejects_incomplete_and_duplicate_coverage() {
    let dir = temp_dir("reject");
    let dir_str = dir.to_str().expect("utf-8 temp path").to_string();

    // Seal only shard 1 of 2: incomplete coverage.
    let out = run_cli(&with(COMMON, &["--shard", "1/2", "--shard-out", &dir_str]));
    assert!(out.status.success());
    let merged = run_cli(&with(COMMON, &["--merge-shards", &dir_str]));
    assert_eq!(merged.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&merged.stderr);
    assert!(stderr.contains("incomplete shard coverage"), "{stderr}");
    assert!(stderr.contains("absent shard(s): 2"), "{stderr}");

    // A duplicate of the same shard under another name: duplicate coverage.
    std::fs::copy(
        dir.join("shard-1-of-2.stms"),
        dir.join("shard-1-of-2-copy.stms"),
    )
    .unwrap();
    let merged = run_cli(&with(COMMON, &["--merge-shards", &dir_str]));
    assert_eq!(merged.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&merged.stderr);
    assert!(stderr.contains("duplicate shard 1/2"), "{stderr}");

    // A manifest sealed under a different configuration: stale.
    let _ = std::fs::remove_file(dir.join("shard-1-of-2-copy.stms"));
    let stale = run_cli(&[
        "--quick",
        "--accesses",
        "5000", // different trace length = different config fingerprint
        "--figures",
        "table2",
        "--shard",
        "2/2",
        "--shard-out",
        &dir_str,
    ]);
    assert!(stale.status.success());
    let merged = run_cli(&with(COMMON, &["--merge-shards", &dir_str]));
    assert_eq!(merged.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&merged.stderr);
    assert!(stderr.contains("stale shard manifest"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shard_flags_validate_their_combinations() {
    for (args, needle) in [
        (vec!["--shard", "1/2"], "--shard requires --shard-out"),
        (
            vec!["--shard-out", "/tmp/x"],
            "only meaningful with --shard",
        ),
        (
            vec!["--shard", "0/2", "--shard-out", "/tmp/x"],
            "1 <= I <= N",
        ),
        (vec!["--shard", "nope", "--shard-out", "/tmp/x"], "I/N"),
        // An unset `$SHARD_DIRS` must not silently simulate from scratch.
        (vec!["--merge-shards", ""], "at least one directory"),
        (vec!["--merge-shards", " , "], "at least one directory"),
        // Output flags are dead in shard mode (nothing renders) and must
        // not be silently ignored.
        (
            vec!["--shard", "1/2", "--shard-out", "/tmp/x", "--csv", "out"],
            "--csv has no effect with --shard",
        ),
        (
            vec![
                "--shard",
                "1/2",
                "--shard-out",
                "/tmp/x",
                "--format",
                "json",
            ],
            "--format json has no effect with --shard",
        ),
        (
            vec![
                "--shard",
                "1/2",
                "--shard-out",
                "/tmp/x",
                "--merge-shards",
                "/tmp/y",
            ],
            "mutually exclusive",
        ),
    ] {
        let out = run_cli(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}

#[test]
fn cost_balanced_shards_merge_byte_identical_and_report_makespan() {
    let dir = temp_dir("cost-balance");
    let dir_str = dir.to_str().expect("utf-8 temp path").to_string();

    let direct = run_cli(COMMON);
    assert!(direct.status.success());

    for shard in ["1/3", "2/3", "3/3"] {
        let out = run_cli(&with(COMMON, &["--shard", shard, "--shard-out", &dir_str]));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "shard {shard} stderr: {stderr}");
        // The scheduling line reports the predicted makespan of the fleet.
        let line = stderr
            .lines()
            .find(|line| line.contains("scheduling:"))
            .unwrap_or_else(|| panic!("no scheduling line: {stderr}"));
        assert!(line.contains("this shard"), "{line}");
        assert!(line.contains("max shard"), "{line}");
        assert!(line.contains("spread"), "{line}");
    }

    let merged = run_cli(&with(COMMON, &["--merge-shards", &dir_str]));
    assert!(
        merged.status.success(),
        "merge stderr: {}",
        String::from_utf8_lossy(&merged.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&direct.stdout),
        String::from_utf8_lossy(&merged.stdout),
        "cost-balanced merge must be byte-identical to the single-process run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shards_can_share_a_result_cache_with_the_merge_unaffected() {
    // The manifest is the hand-off artifact; a shared --result-cache is an
    // orthogonal accelerator. Both together must still be byte-identical.
    let dir = temp_dir("cache");
    let dir_str = dir.to_str().expect("utf-8 temp path").to_string();
    let cache = temp_dir("cache-store");
    let cache_str = cache.to_str().expect("utf-8 temp path").to_string();

    let direct = run_cli(COMMON);
    for shard in ["1/2", "2/2"] {
        let out = run_cli(&with(
            COMMON,
            &[
                "--shard",
                shard,
                "--shard-out",
                &dir_str,
                "--result-cache",
                &cache_str,
            ],
        ));
        assert!(out.status.success());
        assert!(String::from_utf8_lossy(&out.stderr).contains("result cache:"));
    }
    let merged = run_cli(&with(COMMON, &["--merge-shards", &dir_str]));
    assert!(merged.status.success());
    assert_eq!(
        String::from_utf8_lossy(&direct.stdout),
        String::from_utf8_lossy(&merged.stdout)
    );
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&cache);
}
