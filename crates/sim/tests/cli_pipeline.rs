//! Drives the real `stms-experiments` binary with the flags of the staged
//! replay pipeline, which no longer exists: `--replay-pipeline` and
//! `--decode-threads` must be rejected as unknown flags with a usage error,
//! in every argument shape they used to accept.

use std::process::Command;

fn run_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_stms-experiments"))
        .args(args)
        .output()
        .expect("spawn stms-experiments")
}

#[test]
fn pipeline_usage_errors() {
    for args in [
        &["--replay-pipeline", "4", "--figures", "table2"][..],
        &["--replay-pipeline", "1", "--figures", "table2"],
        &[
            "--stream-traces",
            "--replay-pipeline",
            "two",
            "--figures",
            "table2",
        ],
        &["--decode-threads", "2", "--figures", "table2"],
        &[
            "--replay-pipeline",
            "4",
            "--decode-threads",
            "2",
            "--figures",
            "table2",
        ],
    ] {
        let out = run_cli(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} rendered output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let flag = args
            .iter()
            .find(|a| a.ends_with("-pipeline") || a.ends_with("-threads"));
        assert!(
            stderr.contains(&format!("unknown flag `{}`", flag.unwrap())),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains("usage: stms-experiments"), "{stderr}");
        assert!(
            !stderr.contains("[--replay-pipeline"),
            "usage lists the pipeline: {stderr}"
        );
        assert!(
            !stderr.contains("[--decode-threads"),
            "usage lists decode threads: {stderr}"
        );
    }
}
