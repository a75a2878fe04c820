//! The resident campaign daemon.
//!
//! ```text
//! stms-serve --socket PATH [--quick] [--accesses N] [--threads N]
//!            [--result-cache DIR] [--cache-verify] [--stream-traces]
//!            [--metrics-out FILE]
//!            [--max-active N] [--max-queue N] [--read-timeout-ms MS]
//! ```
//!
//! Binds the Unix socket, keeps one campaign (trace store, result memo,
//! job pool, in-flight dedup) alive across requests, and serves until
//! `SIGTERM`/`SIGINT` or a client sends the `Shutdown` request. On exit it
//! prints a `serve:` report, the cache counters, and the `telemetry:`
//! block to stderr and removes the socket file; `--metrics-out FILE`
//! additionally writes the final registry snapshot as versioned JSON.
//! Every reported counter is cumulative since daemon start (see the
//! library's counter-semantics notes); a live daemon answers the same
//! values to `stms-serve-client --stats` / `--metrics` at any time.
//!
//! The campaign flags (`--quick`, `--accesses`, `--threads`, the cache,
//! streaming and telemetry flags) are parsed by the same
//! [`stms_sim::cli::CampaignFlags`] as on `stms-experiments`, so they mean
//! exactly the same thing; a daemon and a one-shot run configured alike
//! produce byte-identical figure bytes. Every request schedules its pool
//! longest-predicted-first with the same analytic job-cost model;
//! scheduling changes order only, never figure bytes.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use stms_serve::{ServeConfig, Server};
use stms_sim::campaign::CampaignCaches;
use stms_sim::cli::{flag_count, flag_number, flag_value, CampaignFlags};
use stms_sim::ExperimentConfig;
use stms_stats::{RunSummary, TelemetryReport};

/// Flipped by the signal handler; the accept loop polls it.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    STOP.store(true, Ordering::Release);
}

/// Installs `on_signal` for SIGINT and SIGTERM through the libc `signal`
/// entry point (no external crates; `std` links libc on unix).
fn install_signal_handlers() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal as *const () as usize);
        signal(SIGTERM, on_signal as *const () as usize);
    }
}

fn usage() -> &'static str {
    "usage: stms-serve --socket PATH [--quick] [--accesses N] [--threads N]\n\
     \x20                 [--result-cache DIR] [--cache-verify] [--stream-traces]\n\
     \x20                 [--metrics-out FILE]\n\
     \x20                 [--max-active N] [--max-queue N] [--read-timeout-ms MS]"
}

fn parse_args(args: &[String]) -> Result<(ServeConfig, Option<PathBuf>), String> {
    let mut flags = CampaignFlags::default();
    let mut socket: Option<PathBuf> = None;
    let mut config = ServeConfig::new(PathBuf::new(), ExperimentConfig::scaled());

    let mut i = 0;
    while i < args.len() {
        if flags.take(args, &mut i)? {
            i += 1;
            continue;
        }
        match args[i].as_str() {
            "--socket" => socket = Some(flag_value(args, &mut i, "--socket")?.into()),
            "--max-active" => config.max_active = flag_count(args, &mut i, "--max-active")?,
            "--max-queue" => config.max_queue = flag_number(args, &mut i, "--max-queue")?,
            "--read-timeout-ms" => {
                let ms = flag_count(args, &mut i, "--read-timeout-ms")?;
                config.read_timeout = Duration::from_millis(ms as u64);
                config.write_timeout = Duration::from_millis(ms as u64);
            }
            flag => return Err(format!("unknown flag `{flag}`")),
        }
        i += 1;
    }
    let Some(socket) = socket else {
        return Err("--socket PATH is required".into());
    };
    let cfg = flags.config();
    cfg.sim.validate().map_err(|e| e.to_string())?;
    config.socket = socket;
    config.cfg = cfg;
    if let Some(threads) = flags.threads {
        config.threads = threads;
    }
    config.caches = CampaignCaches {
        result_memory: config.caches.result_memory,
        ..flags.caches
    };
    Ok((config, flags.metrics_out))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{}", usage());
        return ExitCode::SUCCESS;
    }
    let (config, metrics_out) = match parse_args(&args) {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("error: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    install_signal_handlers();
    let server = match Server::bind(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("error: cannot bind serving socket: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!("serving on {}", server.socket_path().display());
    let report = server.run_until(|| STOP.load(Ordering::Acquire));
    let mut summary = RunSummary::new();
    summary.push_serve(report);
    // The scheduling line describes the daemon's most recent served run —
    // later requests overwrite earlier logs, same as cache counters are
    // cumulative while the sched log is per-run.
    if let Some(sched) = server.campaign().take_sched_report() {
        summary.push_sched(sched);
    }
    stms_sim::campaign::push_cache_reports(&mut summary, server.campaign());
    // Same registry the daemon answered to `--metrics` probes: cumulative
    // since start, so the shutdown block is the final (largest) snapshot.
    let snapshot = stms_obs::snapshot();
    if !snapshot.is_empty() {
        summary.push_telemetry(TelemetryReport {
            lines: snapshot.render_lines(),
        });
    }
    let mut failed = false;
    if let Some(path) = &metrics_out {
        match std::fs::write(path, snapshot.to_json_string()) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!(
                    "error: cannot write metrics snapshot `{}`: {e}",
                    path.display()
                );
                failed = true;
            }
        }
    }
    eprint!("{}", summary.render());
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
