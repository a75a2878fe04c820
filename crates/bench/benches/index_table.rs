//! Micro-benchmarks of the index-table designs (§4.3): the bucketized
//! main-memory hash table used by STMS versus the idealized LRU index used by
//! the on-chip upper bound. This is the ablation behind the paper's claim
//! that hash-based lookup keeps lookup cost at a single memory access while
//! remaining cheap to manage in hardware.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use stms_core::{HashIndexTable, HistoryPointer};
use stms_mem::{DramModel, SystemConfig};
use stms_prefetch::LruIndex;
use stms_types::{CoreId, Cycle, LineAddr};

fn bench_hash_index(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_table");
    group.sample_size(20);

    for &buckets in &[1024usize, 16 * 1024] {
        group.bench_with_input(
            BenchmarkId::new("hash_update_lookup", buckets),
            &buckets,
            |b, &buckets| {
                b.iter(|| {
                    let mut dram = DramModel::new(SystemConfig::hpca09_baseline().dram);
                    let mut index = HashIndexTable::new(buckets, 12, 128);
                    for i in 0..2_000u64 {
                        let line = LineAddr::new(i * 37);
                        index.update(
                            line,
                            HistoryPointer {
                                core: CoreId::new(0),
                                position: i,
                            },
                            Cycle::new(i),
                            &mut dram,
                        );
                    }
                    let mut found = 0u32;
                    for i in 0..2_000u64 {
                        let line = LineAddr::new(i * 37);
                        if index
                            .lookup(line, Cycle::new(10_000 + i), &mut dram)
                            .0
                            .is_some()
                        {
                            found += 1;
                        }
                    }
                    black_box((found, index.occupancy()))
                });
            },
        );
    }

    // The on-chip bucket buffer alone: lookups whose buckets all stay
    // buffered (64 lines in a 128-bucket buffer), and lookups that all miss
    // it (4096 lines cycle through it, each lookup evicting the LRU bucket).
    for (label, distinct) in [("bucket_buffer_hit", 64u64), ("bucket_buffer_miss", 4096)] {
        group.bench_function(label, |b| {
            let lines: Vec<LineAddr> = (0..distinct).map(|i| LineAddr::new(i * 37)).collect();
            let mut dram = DramModel::new(SystemConfig::hpca09_baseline().dram);
            let mut index = HashIndexTable::new(16 * 1024, 12, 128);
            for (i, &line) in lines.iter().enumerate() {
                if i % 2 == 0 {
                    let pointer = HistoryPointer {
                        core: CoreId::new(0),
                        position: i as u64,
                    };
                    index.update(line, pointer, Cycle::ZERO, &mut dram);
                }
            }
            b.iter(|| {
                let mut found = 0u32;
                for &line in &lines {
                    if index.lookup(line, Cycle::ZERO, &mut dram).0.is_some() {
                        found += 1;
                    }
                }
                black_box(found)
            });
        });
    }

    group.bench_function("lru_index_update_lookup", |b| {
        b.iter(|| {
            let mut index = LruIndex::new(16 * 1024);
            for i in 0..2_000u64 {
                index.insert(LineAddr::new(i * 37), i);
            }
            let mut found = 0u32;
            for i in 0..2_000u64 {
                if index.get(LineAddr::new(i * 37)).is_some() {
                    found += 1;
                }
            }
            black_box(found)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_hash_index);
criterion_main!(benches);
