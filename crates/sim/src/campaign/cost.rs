//! Deterministic job cost modeling for campaign scheduling.
//!
//! A campaign grid is wildly heterogeneous: a fig5 sweep cell replaying a
//! 2^20-entry history dwarfs a table2 baseline replay, so both the
//! in-process pool and a shard fleet end up rate-limited by whichever
//! unlucky worker drew the expensive cells. This module predicts each
//! job's cost *before* running anything ([`predicted_ns`]), which drives
//! two schedulers:
//!
//! * **LPT pool ordering** — `run_figures_streaming` submits jobs
//!   longest-predicted-first, so stragglers start early and the pool tail
//!   shrinks (rendering is unaffected: figures still emit in plan order).
//! * **Cost-balanced sharding** — [`partition`] greedily bin-packs the
//!   distinct job grid into shards of near-equal *predicted work*.
//!
//! Both uses demand strict determinism — every shard of a fleet must
//! compute the byte-identical partition without coordinating — so the
//! model is pure integer arithmetic over the job description: trace
//! length, prefetcher family, table/history geometry (log-scaled), and
//! warm-up fraction. There is no calibration input: a prediction is a
//! function of `(config, job)` alone, so a retried shard recomputes
//! exactly the partition its fleet sealed. The weights approximate
//! nanoseconds per access on a 2-vCPU x86-64 box; what matters for
//! scheduling is the *ordering and rough ratio* of costs, and the
//! `scheduling:` line reports how far each family's prediction is from
//! the measured run time.

use super::job::{JobSpec, JobTask};
use crate::runner::PrefetcherKind;
use crate::system::ExperimentConfig;
use stms_types::Fingerprint;

/// Number of cost classes (one per prefetcher family plus miss
/// collection); the `scheduling:` line reports an error for each.
const CLASSES: usize = 6;

/// Floor of the integer log2 used for table-size features (log2(0) and
/// log2(1) both map to 0).
fn log2(n: usize) -> u64 {
    (usize::BITS - 1 - n.max(1).leading_zeros()) as u64
}

/// Which cost class a job belongs to.
pub(crate) fn class_of(job: &JobSpec) -> usize {
    match &job.task {
        JobTask::CollectMisses => 0,
        JobTask::Replay(PrefetcherKind::Baseline) => 1,
        JobTask::Replay(PrefetcherKind::IdealTms { .. }) => 2,
        JobTask::Replay(PrefetcherKind::Stms(_)) => 3,
        JobTask::Replay(PrefetcherKind::FixedDepth(_)) => 4,
        JobTask::Replay(PrefetcherKind::Markov(_)) => 5,
    }
}

/// The prefetcher family of each cost class, as the `scheduling:` line
/// names it.
const CLASS_NAMES: [&str; CLASSES] = [
    "miss_collect",
    "baseline",
    "ideal_tms",
    "stms",
    "fixed_depth",
    "markov",
];

/// Mean absolute error of `predicted` against `observed` run times, per
/// cost class, for the classes with any matched job: `(family, per-mille
/// of observed time)` in class order. Each sample is `(cost class,
/// predicted ns, observed ns)`.
pub(crate) fn family_errors(
    samples: impl IntoIterator<Item = (usize, u64, u64)>,
) -> Vec<(String, u64)> {
    let mut abs_err = [0u128; CLASSES];
    let mut observed = [0u128; CLASSES];
    for (class, predicted_ns, observed_ns) in samples {
        abs_err[class] += u128::from(predicted_ns.abs_diff(observed_ns));
        observed[class] += u128::from(observed_ns);
    }
    (0..CLASSES)
        .filter(|&class| observed[class] > 0)
        .map(|class| {
            let milli = abs_err[class] * 1000 / observed[class];
            (
                CLASS_NAMES[class].to_string(),
                u64::try_from(milli).unwrap_or(u64::MAX),
            )
        })
        .collect()
}

/// The analytic per-access weight of a job, in nanoseconds per access.
/// Table and history sizes enter log-scaled (lookups are hash/tree-shaped,
/// and bigger tables mostly cost cache locality, not instructions).
///
/// Each family's integers were refitted once to the measured run times of
/// three cold in-process `--figures all --accesses 100000 --threads 2`
/// runs (ratio of summed measured to summed predicted time per family);
/// CHANGES.md records the fit and the errors before and after.
fn per_access_weight(job: &JobSpec) -> u64 {
    match &job.task {
        JobTask::CollectMisses => 39,
        JobTask::Replay(kind) => match kind {
            PrefetcherKind::Baseline => 43,
            PrefetcherKind::IdealTms {
                index_entries,
                history_entries,
            } => {
                let index = index_entries.unwrap_or(*history_entries);
                47 + log2(*history_entries) + log2(index)
            }
            PrefetcherKind::Stms(c) => {
                // Probabilistic index updates skip work proportionally to
                // the sampling probability; fixed-point via rounded milli
                // units keeps the arithmetic integral and deterministic.
                let sampling_milli = (c.sampling_probability * 1000.0).round() as u64;
                80 + 3 * log2(c.history_entries_per_core)
                    + 2 * log2(c.index_buckets)
                    + 13 * sampling_milli / 1000
            }
            PrefetcherKind::FixedDepth(c) => 102 + 3 * log2(c.entries) + 5 * c.depth as u64,
            PrefetcherKind::Markov(c) => 30 + log2(c.entries) + c.successors as u64,
        },
    }
}

/// Predicts the cost of one job in nanoseconds. A pure function of
/// `(config, job)` — no clocks, no floats beyond one rounded fixed-point
/// conversion — so every process computes identical values.
pub fn predicted_ns(cfg: &ExperimentConfig, job: &JobSpec) -> u64 {
    let accesses = cfg.accesses as u64;
    // Warm-up accesses skip statistics bookkeeping, so a long warm-up
    // shaves a bounded slice off the per-access cost (fixed-point, in
    // milli units; warmup_fraction is validated to [0, 1)).
    let warmup_milli = (cfg.sim.warmup_fraction * 1000.0).round() as u64;
    let base = accesses.saturating_mul(per_access_weight(job));
    let adjusted = (u128::from(base) * u128::from(4000 - warmup_milli) / 4000) as u64;
    adjusted.max(1)
}

/// A full deterministic assignment of the distinct job grid to shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// 1-based owning shard of each distinct job, parallel to the grid.
    pub owners: Vec<u32>,
    /// Predicted cost assigned to each shard (index 0 = shard 1) — the
    /// per-shard makespan estimate the `scheduling:` line reports.
    pub shard_cost_ns: Vec<u128>,
}

/// Partitions the distinct job grid across `count` shards by greedy
/// longest-processing-time bin-packing: jobs sorted by (predicted cost
/// desc, fingerprint asc) are assigned one by one to the currently
/// lightest shard (ties to the lowest index). Both the sort key and the
/// tie-breaks are total orders, so the assignment is a pure function of
/// the grid *set* — independent of job-list order and identical across
/// processes, which is what lets shards partition without coordinating.
pub fn partition(
    cfg: &ExperimentConfig,
    distinct: &[(Fingerprint, JobSpec)],
    count: u32,
) -> Partition {
    let costs: Vec<u64> = distinct
        .iter()
        .map(|(_, job)| predicted_ns(cfg, job))
        .collect();
    let mut order: Vec<usize> = (0..distinct.len()).collect();
    order.sort_by(|&a, &b| {
        costs[b]
            .cmp(&costs[a])
            .then_with(|| distinct[a].0.cmp(&distinct[b].0))
    });
    let mut owners = vec![0u32; distinct.len()];
    let mut shard_cost_ns = vec![0u128; count as usize];
    for i in order {
        let lightest = shard_cost_ns
            .iter()
            .enumerate()
            .min_by_key(|&(_, &cost)| cost)
            .map(|(index, _)| index)
            .expect("count >= 1");
        owners[i] = lightest as u32 + 1;
        shard_cost_ns[lightest] += u128::from(costs[i]);
    }
    Partition {
        owners,
        shard_cost_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::shard;
    use stms_workloads::presets;

    #[test]
    fn analytic_costs_rank_structural_weight() {
        let cfg = ExperimentConfig::quick();
        let collect = predicted_ns(&cfg, &JobSpec::collect_misses(presets::web_apache()));
        let baseline = predicted_ns(
            &cfg,
            &JobSpec::replay(presets::web_apache(), PrefetcherKind::Baseline),
        );
        let small_ideal = predicted_ns(
            &cfg,
            &JobSpec::replay(
                presets::web_apache(),
                PrefetcherKind::IdealTms {
                    index_entries: None,
                    history_entries: 1 << 10,
                },
            ),
        );
        let big_ideal = predicted_ns(
            &cfg,
            &JobSpec::replay(
                presets::web_apache(),
                PrefetcherKind::IdealTms {
                    index_entries: None,
                    history_entries: 1 << 20,
                },
            ),
        );
        assert!(collect < baseline, "{collect} vs {baseline}");
        assert!(baseline < small_ideal, "{baseline} vs {small_ideal}");
        assert!(small_ideal < big_ideal, "{small_ideal} vs {big_ideal}");
        // Deterministic: same inputs, same number.
        assert_eq!(
            big_ideal,
            predicted_ns(
                &cfg,
                &JobSpec::replay(
                    presets::web_apache(),
                    PrefetcherKind::IdealTms {
                        index_entries: None,
                        history_entries: 1 << 20,
                    },
                ),
            )
        );
    }

    #[test]
    fn cost_partition_balances_better_than_modulo_on_a_skewed_grid() {
        let cfg = ExperimentConfig::quick();
        // A grid dominated by a few huge ideal-TMS sweep cells plus many
        // cheap baselines — the shape that starves a `fingerprint % N`
        // split.
        let mut jobs = vec![];
        for shift in [10usize, 14, 18, 20, 20, 20] {
            jobs.push(JobSpec::replay(
                presets::web_apache(),
                PrefetcherKind::IdealTms {
                    index_entries: None,
                    history_entries: 1 << shift,
                },
            ));
        }
        for preset in [
            presets::web_apache(),
            presets::web_zeus(),
            presets::oltp_db2(),
            presets::oltp_oracle(),
        ] {
            jobs.push(JobSpec::replay(preset.clone(), PrefetcherKind::Baseline));
            jobs.push(JobSpec::collect_misses(preset));
        }
        let distinct = shard::distinct_jobs(&cfg, &jobs);
        let balanced = partition(&cfg, &distinct, 3);
        let mut modulo = [0u128; 3];
        for (fingerprint, job) in &distinct {
            modulo[(fingerprint.raw() % 3) as usize] += u128::from(predicted_ns(&cfg, job));
        }
        let max_balanced = *balanced.shard_cost_ns.iter().max().unwrap();
        let max_modulo = *modulo.iter().max().unwrap();
        assert!(
            max_balanced <= max_modulo,
            "LPT makespan {max_balanced} must not exceed modulo {max_modulo}"
        );
        // Every job owned exactly once, by a valid shard.
        assert_eq!(balanced.owners.len(), distinct.len());
        assert!(balanced.owners.iter().all(|&o| (1..=3).contains(&o)));
        let total: u128 = balanced.shard_cost_ns.iter().sum();
        assert_eq!(total, modulo.iter().sum::<u128>());
    }
}
