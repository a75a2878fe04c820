//! The campaign flags shared by the `stms-experiments` and `stms-serve`
//! binaries, parsed in one place so both accept the same spellings and
//! report the same usage errors.
//!
//! Each binary keeps its own argument loop for its own flags and offers
//! every argument to [`CampaignFlags::take`] first:
//!
//! ```
//! use stms_sim::cli::CampaignFlags;
//!
//! let args: Vec<String> = ["--quick", "--accesses", "5000", "--figures", "fig4"]
//!     .iter()
//!     .map(|s| s.to_string())
//!     .collect();
//! let mut flags = CampaignFlags::default();
//! let mut rest = Vec::new();
//! let mut i = 0;
//! while i < args.len() {
//!     if !flags.take(&args, &mut i).unwrap() {
//!         rest.push(args[i].clone()); // a binary-specific flag or value
//!     }
//!     i += 1;
//! }
//! assert_eq!(flags.config().accesses, 5_000);
//! assert_eq!(rest, ["--figures", "fig4"]);
//! ```

use crate::campaign::CampaignCaches;
use crate::system::ExperimentConfig;
use std::path::PathBuf;

/// The flags both binaries accept: `--quick`, `--accesses N`,
/// `--threads N`, `--result-cache DIR`, `--cache-verify`,
/// `--stream-traces` and `--metrics-out FILE`.
#[derive(Debug, Clone, Default)]
pub struct CampaignFlags {
    /// `--quick`: start from [`ExperimentConfig::quick`] instead of
    /// [`ExperimentConfig::scaled`].
    pub quick: bool,
    /// `--accesses N`: trace length override (non-zero), applied after
    /// `--quick` in any flag order.
    pub accesses: Option<usize>,
    /// `--threads N`: worker count (non-zero); each binary has its own
    /// default.
    pub threads: Option<usize>,
    /// `--result-cache`, `--cache-verify` and `--stream-traces`.
    pub caches: CampaignCaches,
    /// `--metrics-out FILE`: where to write the telemetry snapshot.
    pub metrics_out: Option<PathBuf>,
}

impl CampaignFlags {
    /// Consumes `args[*i]` if it is one of the shared flags, together with
    /// its value, leaving `*i` on the last argument consumed. Returns
    /// `Ok(false)` (and leaves `*i` alone) for any other argument.
    ///
    /// # Errors
    ///
    /// Returns the usage message for a missing, malformed or zero value.
    pub fn take(&mut self, args: &[String], i: &mut usize) -> Result<bool, String> {
        match args[*i].as_str() {
            "--quick" => self.quick = true,
            "--accesses" => self.accesses = Some(flag_count(args, i, "--accesses")?),
            "--threads" => self.threads = Some(flag_count(args, i, "--threads")?),
            "--result-cache" => {
                self.caches.result_dir = Some(flag_value(args, i, "--result-cache")?.into());
            }
            "--cache-verify" => self.caches.verify = true,
            "--stream-traces" => self.caches.stream_traces = true,
            "--metrics-out" => {
                self.metrics_out = Some(flag_value(args, i, "--metrics-out")?.into());
            }
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// The experiment configuration `--quick` and `--accesses` select.
    pub fn config(&self) -> ExperimentConfig {
        let cfg = if self.quick {
            ExperimentConfig::quick()
        } else {
            ExperimentConfig::scaled()
        };
        match self.accesses {
            Some(n) => cfg.with_accesses(n),
            None => cfg,
        }
    }
}

/// The value following the flag at `args[*i]`, advancing `*i` onto it.
///
/// # Errors
///
/// `"{flag} requires a value"` when the arguments end first.
pub fn flag_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// A numeric flag value ([`flag_value`] parsed as `usize`).
///
/// # Errors
///
/// `"{flag} requires a number, got `v`"` for anything unparsable.
pub fn flag_number(args: &[String], i: &mut usize, flag: &str) -> Result<usize, String> {
    let v = flag_value(args, i, flag)?;
    v.parse()
        .map_err(|_| format!("{flag} requires a number, got `{v}`"))
}

/// A non-zero numeric flag value.
///
/// # Errors
///
/// As [`flag_number`], plus `"{flag} must be non-zero"`.
pub fn flag_count(args: &[String], i: &mut usize, flag: &str) -> Result<usize, String> {
    match flag_number(args, i, flag)? {
        0 => Err(format!("{flag} must be non-zero")),
        n => Ok(n),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `line` with only the shared flags; any other argument is an
    /// unknown flag, as in the binaries.
    fn parse(line: &str) -> Result<CampaignFlags, String> {
        let args: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        let mut flags = CampaignFlags::default();
        let mut i = 0;
        while i < args.len() {
            if !flags.take(&args, &mut i)? {
                return Err(format!("unknown flag `{}`", args[i]));
            }
            i += 1;
        }
        Ok(flags)
    }

    #[test]
    fn usage_errors_name_the_flag_and_the_bad_value() {
        for (line, message) in [
            ("--accesses", "--accesses requires a value"),
            (
                "--accesses many",
                "--accesses requires a number, got `many`",
            ),
            ("--accesses 0", "--accesses must be non-zero"),
            ("--threads -1", "--threads requires a number, got `-1`"),
            ("--threads 0", "--threads must be non-zero"),
            ("--result-cache", "--result-cache requires a value"),
            ("--metrics-out", "--metrics-out requires a value"),
            ("--figures fig4", "unknown flag `--figures`"),
        ] {
            assert_eq!(parse(line).unwrap_err(), message, "{line}");
        }
    }

    #[test]
    fn flags_apply_in_any_order() {
        let flags = parse(
            "--accesses 7000 --stream-traces --quick --threads 3 --cache-verify \
             --result-cache r --metrics-out m.json",
        )
        .unwrap();
        assert_eq!(flags.config().accesses, 7_000);
        assert_eq!(flags.threads, Some(3));
        assert!(flags.caches.stream_traces && flags.caches.verify);
        assert_eq!(flags.caches.result_dir, Some(PathBuf::from("r")));
        assert_eq!(flags.metrics_out, Some(PathBuf::from("m.json")));

        let quick = parse("--quick").unwrap();
        assert_eq!(quick.config().accesses, ExperimentConfig::quick().accesses);
        let defaults = parse("").unwrap();
        assert_eq!(
            defaults.config().accesses,
            ExperimentConfig::scaled().accesses
        );
        assert_eq!(defaults.threads, None);
    }
}
