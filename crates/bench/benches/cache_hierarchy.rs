//! Micro-benchmarks of the memory-hierarchy substrate: raw set-associative
//! cache accesses, stride-table training, and end-to-end engine throughput
//! (simulated accesses per wall-clock second), which bounds how long each
//! paper experiment takes, whole and split into its hierarchy recording
//! and timing replay.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use stms_bench::{bench_trace, chase_trace};
use stms_core::{Stms, StmsConfig};
use stms_mem::{
    CacheConfig, CmpSimulator, NullPrefetcher, Recording, SetAssocCache, SimOptions,
    StridePrefetcher, SystemConfig,
};
use stms_prefetch::FixedDepthConfig;
use stms_sim::{ExperimentConfig, PrefetcherKind};
use stms_types::{AccessKind, CoreId, LineAddr, Trace};
use stms_workloads::{generate, presets};

/// Trace length of the paper-scale labels (the benchmark's `paper_cold`
/// length).
const PAPER_ACCESSES: usize = 100_000;

/// A paper preset trace at [`PAPER_ACCESSES`] under the experiments' scaled
/// system.
fn paper_trace() -> (ExperimentConfig, Trace) {
    let cfg = ExperimentConfig::scaled().with_accesses(PAPER_ACCESSES);
    let trace = generate(&presets::oltp_db2().with_accesses(PAPER_ACCESSES));
    (cfg, trace)
}

/// The (core, line) stream the stride prefetcher trains on: every L1 miss
/// of `trace` through the system's per-core L1s.
fn l1_miss_stream(cfg: &ExperimentConfig, trace: &Trace) -> Vec<(CoreId, LineAddr)> {
    let sys = &cfg.system;
    let mut l1: Vec<SetAssocCache> = (0..sys.cores).map(|_| SetAssocCache::new(sys.l1)).collect();
    let mut misses = Vec::new();
    for access in trace.iter() {
        let cache = &mut l1[access.core.index()];
        let write = access.kind == AccessKind::Write;
        if !cache.access(access.line, write).is_hit() {
            cache.fill(access.line, write);
            misses.push((access.core, access.line));
        }
    }
    misses
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    group.sample_size(20);
    group.throughput(Throughput::Elements(64 * 1024));
    group.bench_function("set_assoc_64k_accesses", |b| {
        let cfg = CacheConfig {
            capacity_bytes: 256 * 1024,
            associativity: 16,
            line_bytes: 64,
            hit_latency: 20,
        };
        b.iter(|| {
            let mut cache = SetAssocCache::new(cfg);
            let mut hits = 0u64;
            for i in 0..64 * 1024u64 {
                let line = LineAddr::new((i * 17) % 8192);
                if cache.access(line, i % 5 == 0).is_hit() {
                    hits += 1;
                } else {
                    cache.fill(line, false);
                }
            }
            black_box(hits)
        });
    });
    group.finish();
}

fn bench_stride(c: &mut Criterion) {
    let mut group = c.benchmark_group("stride");
    group.sample_size(20);
    let (cfg, trace) = paper_trace();
    let misses = l1_miss_stream(&cfg, &trace);
    group.throughput(Throughput::Elements(misses.len() as u64));
    group.bench_function("train_paper_miss_stream", |b| {
        b.iter(|| {
            let mut stride = StridePrefetcher::new(cfg.system.stride);
            let mut predicted = 0usize;
            for &(core, line) in &misses {
                predicted += stride.train(core, line).len();
            }
            black_box(predicted)
        });
    });
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine");
    group.sample_size(10);

    let chase = chase_trace(30_000);
    group.throughput(Throughput::Elements(chase.len() as u64));
    group.bench_function("baseline_pointer_chase", |b| {
        let sys = SystemConfig::tiny_for_tests();
        b.iter(|| {
            let result = CmpSimulator::new(&sys, SimOptions::default())
                .run(&chase, &mut NullPrefetcher::new());
            black_box(result.cycles)
        });
    });

    let trace = bench_trace();
    group.throughput(Throughput::Elements(trace.len() as u64));
    group.bench_function("stms_full_system", |b| {
        let cfg = stms_bench::bench_config();
        b.iter(|| {
            let mut stms = Stms::new(StmsConfig {
                cores: cfg.system.cores,
                ..StmsConfig::scaled_default()
            });
            let result = CmpSimulator::new(&cfg.system, cfg.sim).run(&trace, &mut stms);
            black_box(result.coverage())
        });
    });

    let (cfg, paper) = paper_trace();
    group.throughput(Throughput::Elements(paper.len() as u64));
    group.bench_function("baseline_paper_100k", |b| {
        b.iter(|| {
            let result =
                CmpSimulator::new(&cfg.system, cfg.sim).run(&paper, &mut NullPrefetcher::new());
            black_box(result.cycles)
        });
    });
    // The two halves of that replay: the per-trace hierarchy recording,
    // and one job's timing replay against it.
    group.bench_function("record_paper_100k", |b| {
        b.iter(|| black_box(Recording::record(&cfg.system, &paper).len_bytes()));
    });
    let recording = Recording::record(&cfg.system, &paper);
    group.bench_function("replay_recorded_paper_100k", |b| {
        b.iter(|| {
            let result = CmpSimulator::new(&cfg.system, cfg.sim).run_recorded(
                &paper,
                &recording,
                &mut NullPrefetcher::new(),
            );
            black_box(result.cycles)
        });
    });
    // The same timing replay with each temporal-prefetcher family the
    // figures run most: its hooks' cost is the difference to the null
    // replay above.
    let families = [
        ("stms", PrefetcherKind::stms_with_sampling(0.125)),
        ("ideal_tms", PrefetcherKind::ideal()),
        (
            "fixed_depth",
            PrefetcherKind::FixedDepth(FixedDepthConfig::on_chip_with_depth(cfg.system.cores, 6)),
        ),
    ];
    for (family, kind) in families {
        group.bench_function(format!("replay_recorded_{family}_paper_100k"), |b| {
            b.iter(|| {
                let mut prefetcher = kind.build(cfg.system.cores);
                let result = CmpSimulator::new(&cfg.system, cfg.sim).run_recorded(
                    &paper,
                    &recording,
                    prefetcher.as_mut(),
                );
                black_box(result.cycles)
            });
        });
    }

    group.finish();
}

criterion_group!(benches, bench_cache, bench_stride, bench_engine);
criterion_main!(benches);
