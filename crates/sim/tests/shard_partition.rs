//! Property tests for the deterministic cost-balanced shard partition: for
//! any job list and any shard count `N`, the shards must be pairwise
//! disjoint, cover every job, be independent of the job-list ordering, be
//! stable across "process runs" (a fresh recomputation from equal inputs),
//! and meet the greedy balance bounds. Plus the in-process scheduling
//! invariant: LPT submission order renders byte-identical figures to
//! plan-order submission.

use std::collections::BTreeMap;

use proptest::prelude::*;
use stms_sim::campaign::{cost, shard::distinct_jobs, JobSpec};
use stms_sim::{ExperimentConfig, PrefetcherKind};
use stms_types::Fingerprint;
use stms_workloads::presets;

/// A small pool of distinct workloads to draw from.
fn workload(index: usize) -> stms_workloads::WorkloadSpec {
    let pool = [
        presets::web_apache(),
        presets::web_zeus(),
        presets::oltp_db2(),
        presets::oltp_oracle(),
        presets::dss_qry17(),
        presets::sci_ocean(),
    ];
    pool[index % pool.len()].clone()
}

/// Decodes one drawn case into a concrete job. The integers are the
/// generator's whole output, so equal draws always rebuild equal jobs.
fn job(workload_index: usize, kind_code: usize, parameter: usize) -> JobSpec {
    let spec = workload(workload_index);
    match kind_code % 4 {
        0 => JobSpec::replay(spec, PrefetcherKind::Baseline),
        1 => JobSpec::replay(
            spec,
            PrefetcherKind::IdealTms {
                index_entries: Some(1 << (8 + parameter % 8)),
                history_entries: 1 << 16,
            },
        ),
        2 => JobSpec::replay(
            spec,
            PrefetcherKind::stms_with_sampling(1.0 / (1 + parameter % 16) as f64),
        ),
        _ => JobSpec::collect_misses(spec),
    }
}

/// Strategy: a job list as raw draw tuples (kept as data so a test can
/// rebuild identical jobs for the stability property).
fn arb_job_draws() -> impl Strategy<Value = Vec<(usize, usize, usize)>> {
    proptest::collection::vec((0usize..6, 0usize..4, 0usize..64), 0..40)
}

fn build_jobs(draws: &[(usize, usize, usize)]) -> Vec<JobSpec> {
    draws.iter().map(|&(w, k, p)| job(w, k, p)).collect()
}

/// Owner of every distinct job keyed by fingerprint — the order-free view
/// two partitions are compared through.
fn owners_by_fingerprint(
    cfg: &ExperimentConfig,
    jobs: &[JobSpec],
    count: u32,
) -> (BTreeMap<Fingerprint, u32>, Vec<u128>) {
    let distinct = distinct_jobs(cfg, jobs);
    let partition = cost::partition(cfg, &distinct, count);
    let owners = distinct
        .iter()
        .zip(&partition.owners)
        .map(|((fingerprint, _), owner)| (*fingerprint, *owner))
        .collect();
    (owners, partition.shard_cost_ns)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn cost_partition_is_disjoint_covering_and_accounted(
        draws in arb_job_draws(),
        count in 1u32..9,
    ) {
        let cfg = ExperimentConfig::quick();
        let jobs = build_jobs(&draws);
        let distinct = distinct_jobs(&cfg, &jobs);
        let partition = cost::partition(&cfg, &distinct, count);

        // One owner per distinct job (disjoint + covering by construction
        // of the parallel array — but every owner must be a real shard).
        prop_assert_eq!(partition.owners.len(), distinct.len());
        for &owner in &partition.owners {
            prop_assert!(owner >= 1 && owner <= count, "owner {} of {}", owner, count);
        }

        // Cost accounting: each shard's reported load is exactly the sum
        // of its jobs' predictions, and nothing is lost or invented.
        prop_assert_eq!(partition.shard_cost_ns.len(), count as usize);
        let mut tallied = vec![0u128; count as usize];
        for ((_, job), &owner) in distinct.iter().zip(&partition.owners) {
            tallied[owner as usize - 1] += u128::from(cost::predicted_ns(&cfg, job));
        }
        prop_assert_eq!(&tallied, &partition.shard_cost_ns);
    }

    #[test]
    fn cost_partition_ignores_job_list_order(
        draws in arb_job_draws(),
        count in 1u32..9,
        rotation in 0usize..40,
    ) {
        let cfg = ExperimentConfig::quick();
        let jobs = build_jobs(&draws);
        let mut rotated = jobs.clone();
        if !rotated.is_empty() {
            let mid = rotation % rotated.len();
            rotated.rotate_left(mid);
        }
        prop_assert_eq!(
            owners_by_fingerprint(&cfg, &jobs, count),
            owners_by_fingerprint(&cfg, &rotated, count)
        );
    }

    #[test]
    fn cost_partition_is_stable_across_recomputation(
        draws in arb_job_draws(),
        count in 1u32..9,
    ) {
        // A "second process": every input rebuilt from the same draws must
        // reproduce the byte-identical partition — the coordination-free
        // contract that lets fleet shards compute their slices
        // independently. Nothing may depend on HashMap iteration order,
        // allocation addresses, or process identity.
        let cfg = ExperimentConfig::quick();
        let first = build_jobs(&draws);
        let second = build_jobs(&draws);
        prop_assert_eq!(
            owners_by_fingerprint(&cfg, &first, count),
            owners_by_fingerprint(&cfg, &second, count)
        );
    }

    #[test]
    fn single_shard_owns_everything(draws in arb_job_draws()) {
        let cfg = ExperimentConfig::quick();
        let jobs = build_jobs(&draws);
        let (owners, shard_cost_ns) = owners_by_fingerprint(&cfg, &jobs, 1);
        prop_assert!(owners.values().all(|&owner| owner == 1));
        let total: u128 = distinct_jobs(&cfg, &jobs)
            .iter()
            .map(|(_, job)| u128::from(cost::predicted_ns(&cfg, job)))
            .sum();
        prop_assert_eq!(shard_cost_ns, vec![total]);
    }

    #[test]
    fn cost_partition_meets_the_greedy_balance_bounds(
        draws in arb_job_draws(),
        count in 1u32..9,
    ) {
        // The classical greedy guarantees, which hold for *every* input:
        // the heaviest shard carries at most the mean load plus one job,
        // and the spread between heaviest and lightest is at most the
        // largest single job. Both follow from each job landing on the
        // then-lightest shard.
        let cfg = ExperimentConfig::quick();
        let jobs = build_jobs(&draws);
        let distinct = distinct_jobs(&cfg, &jobs);
        let partition = cost::partition(&cfg, &distinct, count);
        let max_job = distinct
            .iter()
            .map(|(_, job)| u128::from(cost::predicted_ns(&cfg, job)))
            .max()
            .unwrap_or(0);
        let total: u128 = partition.shard_cost_ns.iter().sum();
        let heaviest = partition.shard_cost_ns.iter().max().copied().unwrap_or(0);
        let lightest = partition.shard_cost_ns.iter().min().copied().unwrap_or(0);
        prop_assert!(
            heaviest <= total / u128::from(count) + max_job,
            "heaviest shard {} exceeds mean {} + max job {}",
            heaviest,
            total / u128::from(count),
            max_job
        );
        prop_assert!(
            heaviest - lightest <= max_job,
            "spread {} exceeds the largest job {}",
            heaviest - lightest,
            max_job
        );
    }
}

#[test]
fn lpt_submission_renders_byte_identical_to_plan_order() {
    // The whole point of LPT ordering is that it is *invisible* on stdout:
    // jobs start in a different order, figures render in selection order
    // from plan-indexed slots either way. Render the same two figures
    // under both orders and demand byte equality.
    let cfg = ExperimentConfig::quick().with_accesses(20_000);
    let render = |plan_order: bool| -> (Vec<String>, Option<String>) {
        let campaign = stms_sim::campaign::Campaign::with_threads(cfg.clone(), 2);
        campaign.set_plan_order(plan_order);
        let plans: Vec<_> = ["table2", "fig4"]
            .iter()
            .map(|id| stms_sim::experiments::plan_for_id(id, &cfg).expect("known id"))
            .collect();
        let mut rendered = Vec::new();
        campaign.run_figures_streaming(plans, |figure| {
            rendered.push(figure.expect("figure renders").render());
        });
        let order = campaign.take_sched_report().and_then(|sched| sched.order);
        (rendered, order)
    };
    let (lpt, lpt_order) = render(false);
    let (plan, plan_order) = render(true);
    // Both paths really ran: the sched reports name their orders.
    assert_eq!(lpt_order.as_deref(), Some("lpt"));
    assert_eq!(plan_order.as_deref(), Some("plan"));
    assert_eq!(lpt, plan, "submission order leaked into figure bytes");
}

#[test]
fn full_campaign_grid_partitions_without_gaps() {
    // The real thing, not synthetic draws: the full `--figures all` grid.
    // No figure is simulated — partitioning is pure arithmetic on specs.
    let cfg = ExperimentConfig::quick();
    let jobs: Vec<JobSpec> = stms_sim::experiments::all_plans(&cfg)
        .iter()
        .flat_map(|plan| plan.jobs().to_vec())
        .collect();
    let distinct = distinct_jobs(&cfg, &jobs);
    assert!(distinct.len() > 100, "the full grid is substantial");
    assert!(
        distinct.len() < jobs.len(),
        "figures share cells, so the distinct set must be smaller"
    );
    for count in [2u32, 3, 5] {
        let owners = cost::partition(&cfg, &distinct, count).owners;
        assert_eq!(owners.len(), distinct.len());
        let owned_sum: usize = (1..=count)
            .map(|index| owners.iter().filter(|&&owner| owner == index).count())
            .sum();
        assert_eq!(
            owned_sum,
            distinct.len(),
            "{count} shards must cover the grid exactly once"
        );
        // Every shard gets work: the grid is far larger than the fleet.
        for index in 1..=count {
            assert!(
                owners.contains(&index),
                "shard {index}/{count} owns nothing"
            );
        }
    }
}
