//! Traced in-process run of one perfbench workload.
//!
//! ```text
//! stms-perfbench-tracer --figures ID[,ID...] --accesses N [--stream-traces]
//!                       [--seed S] --work DIR
//! ```
//!
//! Runs the selection's jobs serially through `replay_traced` (prefetcher
//! hooks timed by the `Timed` wrapper) and, interleaved job by job, through
//! the untraced library path. With `--stream-traces` every replay streams a
//! fresh `TraceGenerator` through `CmpSimulator::run_stream`, as the CLI
//! does, and the generator's chunks are timed by `TimedSource`; otherwise
//! the jobs of one workload share one materialized trace. Then the jobs run
//! once on a `Campaign` pool of two threads, through a
//! fresh `ResultStore`, and through `Campaign::run_figures` on a warm store.
//! `--seed 0` keeps the paper's preset seeds; any other seed re-seeds every
//! preset (`WorkloadSpec::with_seed`) for everything except the warm render,
//! which renders the preset selection so its text can be checked against
//! the CLI's.
//!
//! Writes into `DIR`: `metrics.json` (the per-layer metrics plus a `checks`
//! object whose counts are all 0 when every output agreed), `spans.jsonl`
//! (the span tree), `render.txt` (the warm render, byte for byte what the
//! CLI prints) and `results/` (the warm result store).

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use stms_mem::SimResult;
use stms_perfbench_tracer::{
    elapsed_ns, ratio, replay_layers, replay_traced, replay_untraced, Family, Hook, HookTimes,
    Input, LayerTimes, SpanLog,
};
use stms_sim::campaign::CampaignCaches;
use stms_sim::experiments::{all_plans, plan_for_id, ALL_IDS};
use stms_sim::{
    job_fingerprint, Campaign, CampaignError, ExperimentConfig, FigurePlan, FigureResult,
    JobOutput, JobSpec, ResultStore,
};
use stms_types::Trace;
use stms_workloads::{generate, WorkloadSpec};

/// Worker threads of the campaign passes, as every workload's CLI runs use.
const THREADS: usize = 2;

struct Args {
    figures: Vec<String>,
    accesses: usize,
    stream: bool,
    seed: u64,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut figures = Vec::new();
    let mut accesses = None;
    let mut stream = false;
    let mut seed = 0;
    let mut work = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--stream-traces" {
            stream = true;
            continue;
        }
        let value = args
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} requires a number, got `{v}`"))
        };
        match flag.as_str() {
            "--figures" => figures.extend(value.split(',').map(str::to_string)),
            "--accesses" => accesses = Some(number(&value)? as usize),
            "--seed" => seed = number(&value)?,
            "--work" => work = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if figures.is_empty() {
        return Err("--figures is required".into());
    }
    if figures.iter().any(|id| id == "all") {
        figures = ALL_IDS.iter().map(|id| id.to_string()).collect();
    }
    Ok(Args {
        figures,
        accesses: accesses.ok_or("--accesses is required")?,
        stream,
        seed,
        work: work.ok_or("--work is required")?,
    })
}

fn plans(figures: &[String], cfg: &ExperimentConfig) -> Result<Vec<FigurePlan>, String> {
    figures
        .iter()
        .map(|id| plan_for_id(id, cfg).ok_or_else(|| format!("unknown figure `{id}`")))
        .collect()
}

/// SplitMix64 finalizer: spreads one benchmark seed over every preset.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn reseed(mut job: JobSpec, seed: u64) -> JobSpec {
    if seed != 0 {
        let preset = job.workload.seed;
        job.workload = job.workload.with_seed(preset ^ mix(seed));
    }
    job
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn render_text(figures: Vec<Result<FigureResult, CampaignError>>) -> Result<String, String> {
    let mut text = String::new();
    for figure in figures {
        let figure = figure.map_err(|e| e.to_string())?;
        text.push_str(&figure.render());
        text.push('\n');
    }
    Ok(text)
}

/// Per-family aggregates of the traced replays.
#[derive(Default)]
struct FamilyAgg {
    accesses: u64,
    run_ns: u64,
    hooks: HookTimes,
    sims: Vec<SimResult>,
}

#[derive(Default)]
struct Totals {
    families: BTreeMap<Family, FamilyAgg>,
    layers: LayerTimes,
    gen_ns: u64,
    gen_accesses: u64,
    engine_ns: u64,
    engine_self_ns: u64,
    engine_accesses: u64,
    traced_ns: u64,
    untraced_ns: u64,
    dram_accesses: u64,
    measured_accesses: u64,
    stms_triggers: u64,
    stms_index_hits: u64,
    stms_history_blocks: u64,
    mismatches: u64,
}

/// The serial traced pass: configuration, span log and running totals.
struct Tracer {
    cfg: ExperimentConfig,
    log: SpanLog,
    totals: Totals,
}

impl Tracer {
    /// The spec of `spec`'s trace at the run's length.
    fn key(&self, spec: &WorkloadSpec) -> WorkloadSpec {
        spec.clone().with_accesses(self.cfg.accesses)
    }

    /// Materializes a trace under a `workloads.generate` span of `root`.
    fn generate(&mut self, spec: &WorkloadSpec, root: u64) -> Trace {
        let start = self.log.now_ns();
        let started = Instant::now();
        let trace = generate(&self.key(spec));
        let ns = elapsed_ns(started);
        self.log
            .push(Some(root), "workloads.generate", start, ns, 1);
        self.totals.gen_ns += ns;
        self.totals.gen_accesses += trace.len() as u64;
        trace
    }

    /// Replays one job traced and untraced (`first_traced` says which goes
    /// first, so neither side always meets warm caches), checks the two
    /// outputs agree, and folds the traced replay into the totals. Probe
    /// jobs feed only their family's metrics.
    fn run_job(
        &mut self,
        job: &JobSpec,
        input: Input<'_>,
        root: u64,
        first_traced: bool,
        probe: bool,
    ) -> JobOutput {
        let cfg = &self.cfg;
        // The untraced replay is the identity reference and the overhead
        // baseline; its span keeps it out of the job's self time.
        let untraced = |log: &mut SpanLog| {
            let start = log.now_ns();
            let (output, ns) = replay_untraced(cfg, job, input);
            log.push(Some(root), "reference.run", start, ns, 1);
            (output, ns)
        };
        let reference = (!first_traced).then(|| untraced(&mut self.log));
        let start = self.log.now_ns();
        let run = replay_traced(cfg, job, input);
        // A streamed replay interleaves generation with the engine: the
        // generator's chunks become one `workloads.generate` span beside
        // `engine.run`, which keeps only the engine's share.
        if run.generate.calls > 0 && !probe {
            self.log.push(
                Some(root),
                "workloads.generate",
                start,
                run.generate.ns,
                run.generate.calls,
            );
            self.totals.gen_ns += run.generate.ns;
            self.totals.gen_accesses += input.accesses();
        }
        let engine = self
            .log
            .push(Some(root), "engine.run", start, run.run_ns, 1);
        for (name, hook) in [
            ("pf.on_trigger", run.hooks.trigger),
            ("pf.next_chunk", run.hooks.next_chunk),
            ("pf.record", run.hooks.record),
        ] {
            self.log
                .push(Some(engine), name, start, hook.ns, hook.calls);
        }
        let (reference, untraced_ns) = reference.unwrap_or_else(|| untraced(&mut self.log));

        let totals = &mut self.totals;
        if reference.encode() != run.output.encode() {
            totals.mismatches += 1;
        }
        let accesses = input.accesses();
        let family = totals.families.entry(Family::of(job)).or_default();
        family.accesses += accesses;
        family.run_ns += run.run_ns;
        family.hooks.merge(&run.hooks);
        if let JobOutput::Sim(result) = &run.output {
            family.sims.push(result.clone());
        }
        if let Some(stats) = run.stms {
            totals.stms_triggers += stats.triggers;
            totals.stms_index_hits += stats.index_hits;
            totals.stms_history_blocks += stats.history_blocks_read;
        }
        if !probe {
            // Both sides of the overhead include the generator when the
            // replay streams one.
            totals.untraced_ns += untraced_ns;
            totals.traced_ns += run.run_ns + run.generate.ns;
            totals.engine_ns += run.run_ns;
            totals.engine_self_ns += run.run_ns.saturating_sub(run.hooks.total_ns());
            totals.engine_accesses += accesses;
            if let JobOutput::Sim(result) = &run.output {
                totals.dram_accesses += result.traffic.total() / cfg.system.l2.line_bytes as u64;
                totals.measured_accesses += result.accesses;
            }
        }
        run.output
    }
}

/// Per-layer metrics and the identity checks' failure counts.
#[derive(Default)]
struct Report {
    metrics: BTreeMap<String, f64>,
    checks: BTreeMap<&'static str, u64>,
}

impl Report {
    fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value:?}"))
            .collect();
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
            .collect();
        format!(
            "{{\"metrics\": {{{}}}, \"checks\": {{{}}}}}\n",
            metrics.join(", "),
            checks.join(", ")
        )
    }
}

fn run(args: &Args) -> Result<(), String> {
    let cfg = ExperimentConfig::scaled().with_accesses(args.accesses);
    let mut report = Report::default();
    let plans_ms = median(
        (0..21)
            .map(|_| {
                let started = Instant::now();
                std::hint::black_box(plans(&args.figures, &cfg).map(|p| p.len()).ok());
                elapsed_ns(started) as f64 / 1e6
            })
            .collect(),
    );
    report.metric("render.plans_ms", plans_ms);
    let jobs: Vec<JobSpec> = plans(&args.figures, &cfg)?
        .iter()
        .flat_map(|plan| plan.jobs().iter().cloned())
        .map(|job| reseed(job, args.seed))
        .collect();

    let (tracer, outputs) = traced_pass(args, &cfg, &jobs);
    layer_metrics(&mut report, &tracer.totals);
    report
        .checks
        .insert("traced_vs_untraced_mismatches", tracer.totals.mismatches);
    campaign_pass(args, &cfg, &jobs, &outputs, &mut report)?;
    let store_dir = store_pass(args, &cfg, &jobs, &outputs, &mut report)?;
    let text = render_pass(args, &cfg, &store_dir, &mut report)?;

    let write = |name: &str, contents: String| {
        std::fs::write(args.work.join(name), contents).map_err(|e| e.to_string())
    };
    write("render.txt", text)?;
    write("spans.jsonl", tracer.log.to_jsonl())?;
    write("metrics.json", report.to_json())
}

/// Runs every job serially, traced and untraced, then probes each family
/// the selection lacks.
fn traced_pass(args: &Args, cfg: &ExperimentConfig, jobs: &[JobSpec]) -> (Tracer, Vec<JobOutput>) {
    let mut tracer = Tracer {
        cfg: cfg.clone(),
        log: SpanLog::default(),
        totals: Totals::default(),
    };
    let mut shared: HashMap<WorkloadSpec, Trace> = HashMap::new();
    let mut layered: HashSet<WorkloadSpec> = HashSet::new();
    let mut outputs = Vec::with_capacity(jobs.len());
    for (i, job) in jobs.iter().enumerate() {
        let job_start = tracer.log.now_ns();
        let root = tracer.log.push(None, "job", job_start, 0, 1);
        let key = tracer.key(&job.workload);
        let output = if args.stream {
            tracer.run_job(job, Input::Stream(&key), root, i % 2 == 0, false)
        } else {
            if !shared.contains_key(&job.workload) {
                let trace = tracer.generate(&job.workload, root);
                shared.insert(job.workload.clone(), trace);
            }
            let trace = &shared[&job.workload];
            tracer.run_job(job, Input::Trace(trace), root, i % 2 == 0, false)
        };
        outputs.push(output);
        let job_ns = tracer.log.now_ns() - job_start;
        tracer.log.set_duration(root, job_ns);
        // The standalone layer replays need the trace in memory; a streamed
        // workload materializes it once for them, outside every span.
        if layered.insert(job.workload.clone()) {
            let owned = args.stream.then(|| generate(&key));
            let trace = owned.as_ref().unwrap_or_else(|| &shared[&job.workload]);
            let layers = replay_layers(cfg, trace);
            tracer.totals.layers.merge(&layers);
        }
    }

    // Probe each family the selection lacks once, so every per-layer
    // metric is measured on every workload. The family's last job in the
    // paper selection is its largest design point, which exercises every
    // hook.
    let present: HashSet<Family> = jobs.iter().map(Family::of).collect();
    let paper_jobs: Vec<JobSpec> = all_plans(cfg)
        .iter()
        .flat_map(|plan| plan.jobs().iter().cloned())
        .collect();
    for family in Family::ALL.iter().filter(|f| !present.contains(f)) {
        let Some(job) = paper_jobs
            .iter()
            .rev()
            .find(|job| Family::of(job) == *family)
        else {
            continue;
        };
        let job = reseed(job.clone(), args.seed);
        let key = tracer.key(&job.workload);
        let start = tracer.log.now_ns();
        let root = tracer.log.push(None, "probe", start, 0, 1);
        let trace = (!args.stream).then(|| generate(&key));
        let input = trace.as_ref().map_or(Input::Stream(&key), Input::Trace);
        tracer.run_job(&job, input, root, true, true);
        let probe_ns = tracer.log.now_ns() - start;
        tracer.log.set_duration(root, probe_ns);
    }
    (tracer, outputs)
}

/// The same jobs once more, on the campaign's pool.
fn campaign_pass(
    args: &Args,
    cfg: &ExperimentConfig,
    jobs: &[JobSpec],
    outputs: &[JobOutput],
    report: &mut Report,
) -> Result<(), String> {
    let run_ns = |snapshot: &stms_obs::Snapshot| snapshot.histogram("job.run_ns").cloned();
    let before = run_ns(&stms_obs::snapshot()).unwrap_or_default();
    let campaign = Campaign::with_caches(
        cfg.clone(),
        THREADS,
        CampaignCaches {
            stream_traces: args.stream,
            ..CampaignCaches::default()
        },
    )
    .map_err(|e| e.to_string())?;
    let started = Instant::now();
    let pooled = campaign.run_jobs(jobs.to_vec());
    let wall_s = elapsed_ns(started) as f64 / 1e9;
    let after = run_ns(&stms_obs::snapshot()).unwrap_or_default();
    let busy_s = after.sum.saturating_sub(before.sum) as f64 / 1e9;

    let (mut failed, mut mismatched) = (0, 0);
    for (pooled, traced) in pooled.iter().zip(outputs) {
        match pooled {
            Ok(output) if output.encode() == traced.encode() => {}
            Ok(_) => mismatched += 1,
            Err(_) => failed += 1,
        }
    }
    let distinct: HashSet<_> = jobs.iter().map(|job| job_fingerprint(cfg, job)).collect();
    report.metric("campaign.jobs", jobs.len() as f64);
    report.metric(
        "campaign.unique_job_frac",
        ratio(distinct.len() as f64, jobs.len() as f64),
    );
    report.metric("campaign.busy_s", busy_s);
    report.metric(
        "campaign.pool_idle_frac",
        1.0 - ratio(busy_s, THREADS as f64 * wall_s),
    );
    report.metric("campaign.job_max_s", after.max as f64 / 1e9);
    report.metric("campaign.failed_jobs", failed as f64);
    report.checks.insert("failed_jobs", failed);
    report.checks.insert("campaign_mismatches", mismatched);
    Ok(())
}

/// Puts every traced output into a fresh result store, then reads each
/// distinct key back from disk through a newly opened store.
fn store_pass(
    args: &Args,
    cfg: &ExperimentConfig,
    jobs: &[JobSpec],
    outputs: &[JobOutput],
    report: &mut Report,
) -> Result<PathBuf, String> {
    let dir = args.work.join("results");
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).map_err(|e| e.to_string())?;
    let mut put_ns = 0;
    for (job, output) in jobs.iter().zip(outputs) {
        let key = job_fingerprint(cfg, job);
        let started = Instant::now();
        store.put(key, output);
        put_ns += elapsed_ns(started);
    }
    drop(store);

    let fresh = ResultStore::open(&dir).map_err(|e| e.to_string())?;
    let (mut get_ns, mut gets, mut hits, mut mismatched) = (0, 0, 0, 0);
    let mut seen = HashSet::new();
    for (job, output) in jobs.iter().zip(outputs) {
        let key = job_fingerprint(cfg, job);
        if !seen.insert(key) {
            continue;
        }
        let started = Instant::now();
        let got = fresh.get(key, cfg, job);
        get_ns += elapsed_ns(started);
        gets += 1;
        match got {
            Some(got) if got.encode() == output.encode() => hits += 1,
            Some(_) => mismatched += 1,
            None => {}
        }
    }
    let (files, bytes) = dir_usage(&dir);
    report.metric(
        "result_store.get_us",
        ratio(get_ns as f64, gets as f64) / 1e3,
    );
    report.metric(
        "result_store.put_us",
        ratio(put_ns as f64, jobs.len() as f64) / 1e3,
    );
    report.metric("result_store.hit_ratio", ratio(hits as f64, gets as f64));
    report.metric("result_store.blob_bytes", ratio(bytes as f64, files as f64));
    report.checks.insert("store_mismatches", mismatched);
    report
        .checks
        .insert("store_misses", gets - hits - mismatched);
    Ok(dir)
}

/// Renders the preset selection from the store: one pass fills whatever
/// the store lacks, then fresh campaigns render it warm. Returns the text
/// the CLI would print.
fn render_pass(
    args: &Args,
    cfg: &ExperimentConfig,
    dir: &Path,
    report: &mut Report,
) -> Result<String, String> {
    let caches = CampaignCaches {
        result_dir: Some(dir.to_path_buf()),
        stream_traces: args.stream,
        ..CampaignCaches::default()
    };
    let open =
        || Campaign::with_caches(cfg.clone(), THREADS, caches.clone()).map_err(|e| e.to_string());
    let text = render_text(open()?.run_figures(plans(&args.figures, cfg)?))?;
    let mut warm_ms = Vec::new();
    let mut mismatched = 0;
    for _ in 0..7 {
        let plans = plans(&args.figures, cfg)?;
        let started = Instant::now();
        let figures = open()?.run_figures(plans);
        warm_ms.push(elapsed_ns(started) as f64 / 1e6);
        if render_text(figures)? != text {
            mismatched += 1;
        }
    }
    report.metric("render.warm_figures_ms", median(warm_ms));
    report.checks.insert("render_mismatches", mismatched);
    Ok(text)
}

fn layer_metrics(report: &mut Report, t: &Totals) {
    let mut put = |name: String, num: f64, den: f64| report.metric(name, ratio(num, den));
    put(
        "workloads.gen_ns_per_access".into(),
        t.gen_ns as f64,
        t.gen_accesses as f64,
    );
    put(
        "workloads.gen_share".into(),
        t.gen_ns as f64,
        (t.gen_ns + t.engine_ns) as f64,
    );
    put(
        "engine.self_ns_per_access".into(),
        t.engine_self_ns as f64,
        t.engine_accesses as f64,
    );
    let empty = FamilyAgg::default();
    for family in Family::ALL {
        let agg = t.families.get(&family).unwrap_or(&empty);
        put(
            format!("engine.ns_per_access.{}", family.name()),
            agg.run_ns as f64,
            agg.accesses as f64,
        );
    }
    let l = &t.layers;
    put(
        "cache.l1.ns_per_access".into(),
        l.l1_ns as f64,
        l.l1_accesses as f64,
    );
    put(
        "cache.l2.ns_per_access".into(),
        l.l2_ns as f64,
        l.l2_accesses as f64,
    );
    put(
        "cache.l1.hit_ratio".into(),
        l.l1_hits as f64,
        l.l1_accesses as f64,
    );
    put(
        "cache.l2.hit_ratio".into(),
        l.l2_hits as f64,
        l.l2_accesses as f64,
    );
    put(
        "dram.ns_per_access".into(),
        l.dram_ns as f64,
        l.dram_accesses as f64,
    );
    put(
        "dram.accesses_per_kaccess".into(),
        1e3 * t.dram_accesses as f64,
        t.measured_accesses as f64,
    );
    put(
        "stride.ns_per_train".into(),
        l.stride_ns as f64,
        l.stride_trains as f64,
    );
    for family in Family::PREFETCHERS {
        let agg = t.families.get(&family).unwrap_or(&empty);
        let (h, f) = (&agg.hooks, family.name());
        let sum = |field: fn(&SimResult) -> u64| agg.sims.iter().map(field).sum::<u64>() as f64;
        let per_call = |hook: Hook| (hook.ns as f64, hook.calls as f64);
        let (ns, calls) = per_call(h.trigger);
        put(format!("pf.{f}.trigger_ns"), ns, calls);
        let (ns, calls) = per_call(h.next_chunk);
        put(format!("pf.{f}.next_chunk_ns"), ns, calls);
        let (ns, calls) = per_call(h.record);
        put(format!("pf.{f}.record_ns"), ns, calls);
        put(
            format!("pf.{f}.hook_share"),
            h.total_ns() as f64,
            agg.run_ns as f64,
        );
        put(
            format!("pf.{f}.trigger_hit_ratio"),
            h.nonempty_triggers as f64,
            h.trigger.calls as f64,
        );
        put(
            format!("pf.{f}.coverage"),
            sum(|r| r.covered_full + r.covered_partial),
            sum(SimResult::base_read_misses),
        );
        put(
            format!("pf.{f}.accuracy"),
            sum(|r| r.prefetches_used),
            sum(|r| r.prefetches_issued),
        );
    }
    put(
        "stms.index_hit_ratio".into(),
        t.stms_index_hits as f64,
        t.stms_triggers as f64,
    );
    put(
        "stms.history_blocks_per_trigger".into(),
        t.stms_history_blocks as f64,
        t.stms_triggers as f64,
    );
    let stms = t.families.get(&Family::Stms).unwrap_or(&empty);
    put(
        "stms.meta_bytes_per_useful_byte".into(),
        stms.sims
            .iter()
            .map(|r| r.traffic.meta_total())
            .sum::<u64>() as f64,
        stms.sims.iter().map(SimResult::useful_bytes).sum::<u64>() as f64,
    );
    report.metric(
        "trace.overhead_frac",
        ratio(t.traced_ns as f64, t.untraced_ns as f64) - 1.0,
    );
}

/// Number of files under `dir` and their total size.
fn dir_usage(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .filter_map(Result::ok)
        .filter_map(|entry| entry.metadata().ok())
        .filter(std::fs::Metadata::is_file)
        .fold((0, 0), |(n, bytes), meta| (n + 1, bytes + meta.len()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    };
    if let Err(message) = std::fs::create_dir_all(&args.work)
        .map_err(|e| e.to_string())
        .and_then(|()| run(&args))
    {
        eprintln!("error: {message}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
