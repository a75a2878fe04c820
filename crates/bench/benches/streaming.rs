//! Benchmarks of streamed trace replay: materialized vs chunked vs
//! generator-streamed replay, so the chunking overhead on the per-access
//! hot path is tracked release over release, plus the telemetry overhead
//! of a streamed replay. Run with `STMS_BENCH_JSON=BENCH_streaming.json`
//! to emit the committed perf artifact.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use stms_bench::bench_workload;
use stms_sim::campaign::TraceStore;
use stms_sim::{run_source, run_trace, ExperimentConfig, PrefetcherKind};
use stms_types::DEFAULT_CHUNK_LEN;
use stms_workloads::{generate, TraceGenerator};

const ACCESSES: usize = 30_000;

fn bench_streamed_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("streamed_replay");
    group.sample_size(10);
    let cfg = ExperimentConfig::quick().with_accesses(ACCESSES);
    let kind = PrefetcherKind::Baseline;
    let spec = bench_workload().with_accesses(ACCESSES);
    let trace = generate(&spec);

    // The baseline the streaming path must not regress: a fully
    // materialized replay.
    group.bench_function("materialized", |b| {
        b.iter(|| black_box(run_trace(&cfg, &trace, &kind).cycles))
    });

    // The pure chunk-dispatch overhead: the same in-memory trace, replayed
    // through the chunked TraceSource path.
    group.bench_function("chunked_in_memory", |b| {
        b.iter(|| {
            let mut source = trace.chunks(DEFAULT_CHUNK_LEN);
            black_box(
                run_source(&cfg, &mut source, &kind)
                    .expect("in-memory")
                    .cycles,
            )
        })
    });

    // Cold out-of-core: generation fused with simulation in one streamed
    // pass — what a cache-less `--stream-traces` job pays.
    group.bench_function("streamed_cold_generator", |b| {
        b.iter(|| {
            let mut generator = TraceGenerator::new(&spec);
            black_box(
                run_source(&cfg, &mut generator, &kind)
                    .expect("generator")
                    .cycles,
            )
        })
    });

    group.finish();
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    let cfg = ExperimentConfig::quick().with_accesses(ACCESSES);
    let kind = PrefetcherKind::Baseline;
    let spec = bench_workload().with_accesses(ACCESSES);

    // A cold `--stream-traces` replay through the trace store: every
    // iteration crosses the chunk counter and the per-chunk simulate
    // histogram. The registry-disabled row is the same replay with every
    // record call reduced to one relaxed atomic load — the <3% overhead
    // bound CI asserts on this pair.
    let store = TraceStore::new().with_streaming(true);
    let replay = || {
        store.replay_streaming(&spec, ACCESSES, |source| {
            run_source(&cfg, source, &kind).map(|result| result.cycles)
        })
    };
    stms_obs::set_enabled(false);
    group.bench_function("streamed_cold_generator/disabled", |b| {
        b.iter(|| black_box(replay()))
    });
    stms_obs::set_enabled(true);
    group.bench_function("streamed_cold_generator/instrumented", |b| {
        b.iter(|| black_box(replay()))
    });
    group.finish();
}

criterion_group!(benches, bench_streamed_replay, bench_telemetry_overhead);
criterion_main!(benches);
