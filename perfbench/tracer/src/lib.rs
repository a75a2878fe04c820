//! Building blocks of the traced perfbench run.
//!
//! Everything here times calls into the workspace's public APIs from the
//! outside: a [`Timed`] wrapper around any [`Prefetcher`] aggregates its
//! hooks per replay, [`TimedSource`] times a streamed trace's generator,
//! [`replay_traced`] / [`replay_untraced`] run one [`JobSpec`] the way the
//! campaign would (on a materialized trace or a streamed generator, see
//! [`Input`]), [`replay_layers`] replays a trace
//! standalone through the cache, stride and DRAM models, and [`SpanLog`]
//! keeps the resulting span tree in memory until the run writes it out.
//! Nothing inside the program is instrumented.

use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;
use stms_core::{Stms, StmsConfig, StmsStats};
use stms_mem::{
    CmpSimulator, DramModel, Prefetcher, SetAssocCache, SimResult, StreamChunk, StridePrefetcher,
    TrafficClass,
};
use stms_prefetch::MissTraceCollector;
use stms_sim::{ExperimentConfig, JobOutput, JobSpec, JobTask, PrefetcherKind};
use stms_types::{
    AccessChunk, AccessKind, CoreId, Cycle, LineAddr, Trace, TraceMeta, TraceSource,
    TraceStreamError,
};
use stms_workloads::{TraceGenerator, WorkloadSpec};

const GENERATOR_NEVER_FAILS: &str = "a generator source never fails";

/// Nanoseconds since `started`, saturating at `u64::MAX`.
pub fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Call count and total time of one prefetcher hook.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Hook {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds spent inside the calls.
    pub ns: u64,
}

impl Hook {
    fn add(&mut self, started: Instant) {
        self.calls += 1;
        self.ns += elapsed_ns(started);
    }

    fn merge(&mut self, other: Hook) {
        self.calls += other.calls;
        self.ns += other.ns;
    }
}

/// The hooks of one replay (or a sum of replays), aggregated per hook.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookTimes {
    /// `Prefetcher::on_trigger`.
    pub trigger: Hook,
    /// `Prefetcher::next_chunk`.
    pub next_chunk: Hook,
    /// `Prefetcher::record`.
    pub record: Hook,
    /// Triggers that returned a non-empty chunk.
    pub nonempty_triggers: u64,
}

impl HookTimes {
    /// Time spent in all three hooks.
    pub fn total_ns(&self) -> u64 {
        self.trigger.ns + self.next_chunk.ns + self.record.ns
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &HookTimes) {
        self.trigger.merge(other.trigger);
        self.next_chunk.merge(other.next_chunk);
        self.record.merge(other.record);
        self.nonempty_triggers += other.nonempty_triggers;
    }
}

/// A [`Prefetcher`] that forwards every call to `inner` and times the
/// three hot hooks. Replays through it are bit-identical to replays of
/// `inner` alone.
#[derive(Debug)]
pub struct Timed<'a, P: Prefetcher + ?Sized> {
    inner: &'a mut P,
    hooks: HookTimes,
}

impl<'a, P: Prefetcher + ?Sized> Timed<'a, P> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut P) -> Self {
        Timed {
            inner,
            hooks: HookTimes::default(),
        }
    }

    /// The hook aggregates so far.
    pub fn hooks(&self) -> HookTimes {
        self.hooks
    }
}

impl<P: Prefetcher + ?Sized> Prefetcher for Timed<'_, P> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn on_trigger(
        &mut self,
        core: CoreId,
        line: LineAddr,
        now: Cycle,
        dram: &mut DramModel,
    ) -> Option<StreamChunk> {
        let started = Instant::now();
        let chunk = self.inner.on_trigger(core, line, now, dram);
        self.hooks.trigger.add(started);
        if chunk.as_ref().is_some_and(|c| !c.is_empty()) {
            self.hooks.nonempty_triggers += 1;
        }
        chunk
    }

    fn next_chunk(&mut self, core: CoreId, now: Cycle, dram: &mut DramModel) -> StreamChunk {
        let started = Instant::now();
        let chunk = self.inner.next_chunk(core, now, dram);
        self.hooks.next_chunk.add(started);
        chunk
    }

    fn record(
        &mut self,
        core: CoreId,
        line: LineAddr,
        prefetched: bool,
        now: Cycle,
        dram: &mut DramModel,
    ) {
        let started = Instant::now();
        self.inner.record(core, line, prefetched, now, dram);
        self.hooks.record.add(started);
    }

    fn on_unused(&mut self, core: CoreId, line: LineAddr) {
        self.inner.on_unused(core, line);
    }

    fn finish(&mut self, now: Cycle, dram: &mut DramModel) {
        self.inner.finish(now, dram);
    }
}

/// A [`TraceSource`] that forwards to `inner` and times every chunk it
/// hands out: the generator's share of a streamed replay.
#[derive(Debug)]
pub struct TimedSource<'a, S: TraceSource + ?Sized> {
    inner: &'a mut S,
    chunks: Hook,
}

impl<'a, S: TraceSource + ?Sized> TimedSource<'a, S> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut S) -> Self {
        TimedSource {
            inner,
            chunks: Hook::default(),
        }
    }

    /// Chunks handed out so far and the time spent producing them.
    pub fn chunks(&self) -> Hook {
        self.chunks
    }
}

impl<S: TraceSource + ?Sized> TraceSource for TimedSource<'_, S> {
    fn meta(&self) -> &TraceMeta {
        self.inner.meta()
    }

    fn total_accesses(&self) -> u64 {
        self.inner.total_accesses()
    }

    fn next_chunk(&mut self) -> Result<Option<AccessChunk<'_>>, TraceStreamError> {
        let started = Instant::now();
        let chunk = self.inner.next_chunk();
        self.chunks.add(started);
        chunk
    }
}

/// Where a replay's accesses come from.
#[derive(Debug, Clone, Copy)]
pub enum Input<'a> {
    /// A materialized trace, shared by every job of its workload (the
    /// CLI's default).
    Trace(&'a Trace),
    /// A fresh [`TraceGenerator`] per replay, streamed chunk by chunk
    /// through `CmpSimulator::run_stream` (the CLI's `--stream-traces`).
    /// The spec carries the job's trace length.
    Stream(&'a WorkloadSpec),
}

impl Input<'_> {
    /// Accesses the replay consumes.
    pub fn accesses(&self) -> u64 {
        match self {
            Input::Trace(trace) => trace.len() as u64,
            Input::Stream(spec) => spec.accesses as u64,
        }
    }
}

/// The prefetcher family of a job, as the per-layer metrics name it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Family {
    /// No temporal prefetcher (stride only).
    Baseline,
    /// `MarkovPrefetcher`.
    Markov,
    /// `FixedDepthPrefetcher`.
    FixedDepth,
    /// `IdealTms`.
    IdealTms,
    /// `Stms`.
    Stms,
    /// Baseline miss-sequence capture (`MissTraceCollector`).
    MissCollect,
}

impl Family {
    /// Every family, in metric order.
    pub const ALL: [Family; 6] = [
        Family::Baseline,
        Family::Markov,
        Family::FixedDepth,
        Family::IdealTms,
        Family::Stms,
        Family::MissCollect,
    ];

    /// The families with `pf.<family>.*` metrics.
    pub const PREFETCHERS: [Family; 4] = [
        Family::Stms,
        Family::IdealTms,
        Family::Markov,
        Family::FixedDepth,
    ];

    /// The family `job` replays under.
    pub fn of(job: &JobSpec) -> Family {
        match &job.task {
            JobTask::CollectMisses => Family::MissCollect,
            JobTask::Replay(PrefetcherKind::Baseline) => Family::Baseline,
            JobTask::Replay(PrefetcherKind::Markov(_)) => Family::Markov,
            JobTask::Replay(PrefetcherKind::FixedDepth(_)) => Family::FixedDepth,
            JobTask::Replay(PrefetcherKind::IdealTms { .. }) => Family::IdealTms,
            JobTask::Replay(PrefetcherKind::Stms(_)) => Family::Stms,
        }
    }

    /// Metric-name form, e.g. `ideal_tms`.
    pub fn name(self) -> &'static str {
        match self {
            Family::Baseline => "baseline",
            Family::Markov => "markov",
            Family::FixedDepth => "fixed_depth",
            Family::IdealTms => "ideal_tms",
            Family::Stms => "stms",
            Family::MissCollect => "miss_collect",
        }
    }
}

/// One job replayed through [`Timed`].
#[derive(Debug)]
pub struct TracedRun {
    /// What the campaign would have produced for the job.
    pub output: JobOutput,
    /// Building the prefetcher and engine plus the replay, hooks included
    /// and trace generation excluded.
    pub run_ns: u64,
    /// The generator's chunks inside a streamed replay (building the
    /// generator included); no calls for a materialized trace.
    pub generate: Hook,
    /// The prefetcher's hooks.
    pub hooks: HookTimes,
    /// STMS counters, for STMS jobs.
    pub stms: Option<StmsStats>,
}

/// Replays `job` on `input` with its prefetcher wrapped in [`Timed`].
///
/// STMS is built with `Stms::new` directly (exactly as
/// `PrefetcherKind::build` does) so that its counters stay readable.
pub fn replay_traced(cfg: &ExperimentConfig, job: &JobSpec, input: Input<'_>) -> TracedRun {
    let cores = cfg.system.cores;
    let started = Instant::now();
    let (output, generate, hooks, stms) = match &job.task {
        JobTask::CollectMisses => {
            let mut collector = MissTraceCollector::new(cores);
            let (_, generate, hooks) = timed_replay(cfg, input, &mut collector);
            let output = JobOutput::MissSequences(collector.all_cores());
            (output, generate, hooks, None)
        }
        JobTask::Replay(PrefetcherKind::Stms(stms_cfg)) => {
            let mut stms = Stms::new(StmsConfig { cores, ..*stms_cfg });
            let (result, generate, hooks) = timed_replay(cfg, input, &mut stms);
            (JobOutput::Sim(result), generate, hooks, Some(stms.stats()))
        }
        JobTask::Replay(kind) => {
            let mut prefetcher = kind.build(cores);
            let (result, generate, hooks) = timed_replay(cfg, input, prefetcher.as_mut());
            (JobOutput::Sim(result), generate, hooks, None)
        }
    };
    TracedRun {
        output,
        run_ns: elapsed_ns(started).saturating_sub(generate.ns),
        generate,
        hooks,
        stms,
    }
}

fn timed_replay<P: Prefetcher + ?Sized>(
    cfg: &ExperimentConfig,
    input: Input<'_>,
    prefetcher: &mut P,
) -> (SimResult, Hook, HookTimes) {
    let mut timed = Timed::new(prefetcher);
    let engine = CmpSimulator::new(&cfg.system, cfg.sim);
    let (result, generate) = match input {
        Input::Trace(trace) => (engine.run(trace, &mut timed), Hook::default()),
        Input::Stream(spec) => {
            let started = Instant::now();
            let mut generator = TraceGenerator::new(spec);
            let built_ns = elapsed_ns(started);
            let mut source = TimedSource::new(&mut generator);
            let result = engine
                .run_stream(&mut source, &mut timed)
                .expect(GENERATOR_NEVER_FAILS);
            let mut generate = source.chunks();
            generate.ns += built_ns;
            (result, generate)
        }
    };
    (result, generate, timed.hooks())
}

/// Replays `job` on `input` through the library's own entry points
/// (`run_trace`, or `run_source` on a fresh generator), with no wrapper;
/// returns the output and the nanoseconds it took, generation included.
pub fn replay_untraced(
    cfg: &ExperimentConfig,
    job: &JobSpec,
    input: Input<'_>,
) -> (JobOutput, u64) {
    let started = Instant::now();
    let output = match (&job.task, input) {
        (JobTask::Replay(kind), Input::Trace(trace)) => {
            JobOutput::Sim(stms_sim::run_trace(cfg, trace, kind))
        }
        (JobTask::Replay(kind), Input::Stream(spec)) => JobOutput::Sim(
            stms_sim::run_source(cfg, &mut TraceGenerator::new(spec), kind)
                .expect(GENERATOR_NEVER_FAILS),
        ),
        (JobTask::CollectMisses, input) => {
            let mut collector = MissTraceCollector::new(cfg.system.cores);
            let engine = CmpSimulator::new(&cfg.system, cfg.sim);
            match input {
                Input::Trace(trace) => {
                    let _ = engine.run(trace, &mut collector);
                }
                Input::Stream(spec) => {
                    engine
                        .run_stream(&mut TraceGenerator::new(spec), &mut collector)
                        .expect(GENERATOR_NEVER_FAILS);
                }
            }
            JobOutput::MissSequences(collector.all_cores())
        }
    };
    (output, elapsed_ns(started))
}

/// Work and time of the memory-system layers, replayed standalone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTimes {
    /// `SetAssocCache::access` (+ `fill` on a miss) over the L1 stream.
    pub l1_ns: u64,
    /// L1 accesses (the trace length).
    pub l1_accesses: u64,
    /// L1 hits.
    pub l1_hits: u64,
    /// The same over the L1-miss stream, on the shared L2.
    pub l2_ns: u64,
    /// L2 accesses (the L1 misses).
    pub l2_accesses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// `StridePrefetcher::train` over the L1-miss stream.
    pub stride_ns: u64,
    /// Stride trainings (the L1 misses).
    pub stride_trains: u64,
    /// `DramModel::access` over the L2-miss stream.
    pub dram_ns: u64,
    /// DRAM accesses (the L2 misses).
    pub dram_accesses: u64,
}

impl LayerTimes {
    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &LayerTimes) {
        self.l1_ns += other.l1_ns;
        self.l1_accesses += other.l1_accesses;
        self.l1_hits += other.l1_hits;
        self.l2_ns += other.l2_ns;
        self.l2_accesses += other.l2_accesses;
        self.l2_hits += other.l2_hits;
        self.stride_ns += other.stride_ns;
        self.stride_trains += other.stride_trains;
        self.dram_ns += other.dram_ns;
        self.dram_accesses += other.dram_accesses;
    }
}

/// Replays `trace` standalone through the system's L1s, L2, stride
/// prefetcher and DRAM model, one layer at a time, so each layer's time per
/// call is measured without the engine around it.
pub fn replay_layers(cfg: &ExperimentConfig, trace: &Trace) -> LayerTimes {
    let sys = &cfg.system;
    let mut out = LayerTimes::default();

    let mut l1: Vec<SetAssocCache> = (0..sys.cores).map(|_| SetAssocCache::new(sys.l1)).collect();
    let mut l1_misses: Vec<(CoreId, LineAddr)> = Vec::with_capacity(trace.len() / 2);
    let started = Instant::now();
    for access in trace.iter() {
        let cache = &mut l1[access.core.index()];
        let write = access.kind == AccessKind::Write;
        if cache.access(access.line, write).is_hit() {
            out.l1_hits += 1;
        } else {
            black_box(cache.fill(access.line, write));
            l1_misses.push((access.core, access.line));
        }
    }
    out.l1_ns = elapsed_ns(started);
    out.l1_accesses = trace.len() as u64;

    let mut l2 = SetAssocCache::new(sys.l2);
    let mut l2_misses = 0u64;
    let started = Instant::now();
    for &(_, line) in &l1_misses {
        if l2.access(line, false).is_hit() {
            out.l2_hits += 1;
        } else {
            black_box(l2.fill(line, false));
            l2_misses += 1;
        }
    }
    out.l2_ns = elapsed_ns(started);
    out.l2_accesses = l1_misses.len() as u64;

    let mut stride = StridePrefetcher::new(sys.stride);
    let started = Instant::now();
    for &(core, line) in &l1_misses {
        black_box(stride.train(core, line));
    }
    out.stride_ns = elapsed_ns(started);
    out.stride_trains = l1_misses.len() as u64;

    let mut dram = DramModel::new(sys.dram);
    let line_bytes = sys.l2.line_bytes as u64;
    let mut now = Cycle::ZERO;
    let started = Instant::now();
    for _ in 0..l2_misses {
        now = black_box(dram.access(TrafficClass::DemandFill, line_bytes, now));
    }
    out.dram_ns = elapsed_ns(started);
    out.dram_accesses = l2_misses;
    out
}

/// One recorded span. Hook spans aggregate every call of one hook within
/// one replay, so they carry a call count; all other spans have `calls`
/// equal to 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the log, starting at 1.
    pub id: u64,
    /// The span that caused this one (`None` for a job root).
    pub parent: Option<u64>,
    /// Id of the job root this span belongs to.
    pub job: u64,
    /// Layer boundary, e.g. `engine.run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the log was created.
    pub start_ns: u64,
    /// Duration (for hook spans: the summed call time).
    pub dur_ns: u64,
    /// Calls aggregated into the span.
    pub calls: u64,
}

/// Spans kept in memory until the run writes them out.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl SpanLog {
    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        elapsed_ns(self.epoch)
    }

    /// Appends a span and returns its id. A root (`parent == None`) starts
    /// a new job whose id is the span's own.
    pub fn push(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
        calls: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        let job = match parent {
            Some(parent) => self.spans[(parent - 1) as usize].job,
            None => id,
        };
        self.spans.push(Span {
            id,
            parent,
            job,
            name,
            start_ns,
            dur_ns,
            calls,
        });
        id
    }

    /// Sets the duration of span `id` (a root's is known only once its
    /// children have run).
    pub fn set_duration(&mut self, id: u64, dur_ns: u64) {
        self.spans[(id - 1) as usize].dur_ns = dur_ns;
    }

    /// The recorded spans, in push order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: `id`, `parent`, `job`, `name`,
    /// `start_ns`, `dur_ns`, `self_ns`, `calls`.
    pub fn to_jsonl(&self) -> String {
        let mut children = vec![0u64; self.spans.len() + 1];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize] += span.dur_ns;
            }
        }
        let mut out = String::new();
        for span in &self.spans {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"job\":{},\"name\":\"{}\",\"start_ns\":{},\
                 \"dur_ns\":{},\"self_ns\":{},\"calls\":{}}}",
                span.id,
                span.job,
                span.name,
                span.start_ns,
                span.dur_ns,
                span.dur_ns.saturating_sub(children[span.id as usize]),
                span.calls,
            );
        }
        out
    }
}
