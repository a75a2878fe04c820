//! The timing wrapper must not change what a replay computes.

use stms_mem::{CmpSimulator, Prefetcher};
use stms_perfbench_tracer::{
    replay_traced, replay_untraced, Family, Input, SpanLog, Timed, TimedSource,
};
use stms_sim::experiments::all_plans;
use stms_sim::{run_trace, ExperimentConfig, JobOutput, JobTask, PrefetcherKind};
use stms_types::TraceSource;
use stms_workloads::{generate, presets, TraceGenerator};

fn cfg() -> ExperimentConfig {
    ExperimentConfig::scaled().with_accesses(12_000)
}

/// The first job of every family in the full paper selection.
fn one_job_per_family(cfg: &ExperimentConfig) -> Vec<stms_sim::JobSpec> {
    let jobs: Vec<_> = all_plans(cfg)
        .iter()
        .flat_map(|plan| plan.jobs().iter().cloned())
        .collect();
    Family::ALL
        .iter()
        .map(|family| {
            jobs.iter()
                .find(|job| Family::of(job) == *family)
                .cloned()
                .unwrap_or_else(|| panic!("the paper selection has a {family:?} job"))
        })
        .collect()
}

#[test]
fn wrapped_replay_is_byte_identical_for_every_family() {
    let cfg = cfg();
    let trace = generate(&presets::oltp_db2().with_accesses(cfg.accesses));
    let mut hooked = 0;
    for job in one_job_per_family(&cfg) {
        let JobTask::Replay(kind) = &job.task else {
            continue;
        };
        let plain = {
            let mut prefetcher = kind.build(cfg.system.cores);
            CmpSimulator::new(&cfg.system, cfg.sim).run(&trace, prefetcher.as_mut())
        };
        let mut prefetcher = kind.build(cfg.system.cores);
        let mut timed = Timed::new(prefetcher.as_mut());
        let wrapped = CmpSimulator::new(&cfg.system, cfg.sim).run(&trace, &mut timed);
        assert_eq!(
            wrapped.encode(),
            plain.encode(),
            "{}: wrapped replay differs",
            kind.label()
        );
        assert_eq!(timed.name(), plain.prefetcher);
        let hooks = timed.hooks();
        assert!(
            hooks.trigger.calls > 0,
            "{}: no triggers timed",
            kind.label()
        );
        assert!(hooks.record.calls >= hooks.trigger.calls);
        assert!(hooks.nonempty_triggers <= hooks.trigger.calls);
        hooked += 1;
    }
    assert_eq!(hooked, 5, "baseline, markov, fixed-depth, ideal and STMS");
}

#[test]
fn traced_jobs_match_run_trace() {
    let cfg = cfg();
    for job in one_job_per_family(&cfg) {
        let trace = generate(&job.workload.clone().with_accesses(cfg.accesses));
        let traced = replay_traced(&cfg, &job, Input::Trace(&trace));
        let (untraced, _) = replay_untraced(&cfg, &job, Input::Trace(&trace));
        assert_eq!(traced.output.encode(), untraced.encode(), "{}", job.label());
        assert_eq!(traced.stms.is_some(), Family::of(&job) == Family::Stms);
        match (&job.task, traced.output) {
            (JobTask::Replay(kind), JobOutput::Sim(result)) => {
                assert_eq!(result, run_trace(&cfg, &trace, kind), "{}", job.label());
                assert!(traced.run_ns > traced.hooks.total_ns());
            }
            (JobTask::CollectMisses, JobOutput::MissSequences(seqs)) => {
                assert!(seqs.iter().any(|core| !core.is_empty()));
            }
            (_, output) => panic!("{}: unexpected output {output:?}", job.label()),
        }
    }
}

#[test]
fn streamed_jobs_match_the_materialized_path() {
    let cfg = cfg();
    for job in one_job_per_family(&cfg) {
        let key = job.workload.clone().with_accesses(cfg.accesses);
        let trace = generate(&key);
        let traced = replay_traced(&cfg, &job, Input::Stream(&key));
        let (untraced, _) = replay_untraced(&cfg, &job, Input::Stream(&key));
        let (materialized, _) = replay_untraced(&cfg, &job, Input::Trace(&trace));
        assert_eq!(traced.output.encode(), untraced.encode(), "{}", job.label());
        assert_eq!(
            traced.output.encode(),
            materialized.encode(),
            "{}",
            job.label()
        );
        assert!(
            traced.generate.calls > 0,
            "{}: no chunks timed",
            job.label()
        );
        assert!(traced.generate.ns > 0);
        if let JobTask::Replay(kind) = &job.task {
            let JobOutput::Sim(result) = &traced.output else {
                panic!("{}: replay without a SimResult", job.label());
            };
            assert_eq!(*result, run_trace(&cfg, &trace, kind), "{}", job.label());
        }
    }
}

#[test]
fn timed_source_forwards_every_chunk() {
    let key = presets::oltp_db2().with_accesses(10_000);
    let mut generator = TraceGenerator::new(&key);
    let mut source = TimedSource::new(&mut generator);
    assert_eq!(source.total_accesses(), 10_000);
    let (mut chunks, mut seen) = (0, 0);
    while let Some(chunk) = source.next_chunk().unwrap() {
        assert_eq!(chunk.first_index, seen);
        seen += chunk.accesses.len() as u64;
        chunks += 1;
    }
    assert_eq!(seen, 10_000);
    // The final, empty call is timed too.
    assert_eq!(source.chunks().calls, chunks + 1);
}

#[test]
fn stms_counters_stay_readable_through_the_wrapper() {
    let cfg = cfg();
    let job = stms_sim::JobSpec::replay(
        presets::web_apache(),
        PrefetcherKind::stms_with_sampling(0.125),
    );
    let trace = generate(&job.workload.clone().with_accesses(cfg.accesses));
    let traced = replay_traced(&cfg, &job, Input::Trace(&trace));
    let stats = traced.stms.expect("STMS job reports its counters");
    assert_eq!(stats.triggers, traced.hooks.trigger.calls);
    assert!(stats.index_hits <= stats.triggers);
}

#[test]
fn span_log_links_children_to_their_job_and_reports_self_time() {
    let mut log = SpanLog::default();
    let root = log.push(None, "job", 0, 0, 1);
    let engine = log.push(Some(root), "engine.run", 10, 100, 1);
    log.push(Some(engine), "pf.record", 10, 30, 7);
    let second = log.push(None, "job", 200, 5, 1);
    log.set_duration(root, 150);
    let spans = log.spans();
    assert_eq!(spans[2].job, root);
    assert_eq!(spans[3].job, second);
    let jsonl = log.to_jsonl();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert_eq!(lines.len(), 4);
    assert!(
        lines[0].contains("\"dur_ns\":150,\"self_ns\":50"),
        "{}",
        lines[0]
    );
    assert!(lines[1].contains("\"self_ns\":70"), "{}", lines[1]);
    assert!(lines[2].contains("\"parent\":2,\"job\":1"), "{}", lines[2]);
    assert!(lines[2].contains("\"calls\":7"), "{}", lines[2]);
}
