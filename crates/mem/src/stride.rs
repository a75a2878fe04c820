//! The base system's stride prefetcher (Table 1: 32-entry buffer, at most 16
//! distinct strides).
//!
//! All results in the paper report coverage *in excess of* this prefetcher,
//! so it is part of the simulated base system rather than of the temporal
//! prefetchers under study. It trains on the off-chip miss stream, detects
//! constant-stride sequences within 4 KB regions and, once confident,
//! prefetches `degree` lines ahead directly into the shared L2.

use crate::config::StrideConfig;
use std::iter::FusedIterator;
use stms_types::{CoreId, LineAddr};

/// Lines per 4 KB detection region.
const REGION_LINES: u64 = 64;

/// Marks a free bucket of the region index and the end of the recency list.
const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct StrideEntry {
    /// Region tag (line address / REGION_LINES) plus core, to separate
    /// per-core streams.
    region: u64,
    core: u16,
    last_line: LineAddr,
    stride: i64,
    confidence: u32,
    /// Recency-list neighbours: `newer` was touched more recently, `older`
    /// less recently ([`NONE`] at either end).
    newer: u32,
    older: u32,
}

/// Counters describing stride-prefetcher behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StrideStats {
    /// Number of training observations (off-chip misses seen).
    pub trained: u64,
    /// Number of prefetches issued.
    pub prefetches: u64,
}

/// The lines one [`StridePrefetcher::train`] call asks to prefetch:
/// `line + stride * k` for `k` in `1..=degree`, or nothing. A plain value,
/// so training allocates nothing and the caller may keep mutating the
/// memory system while it iterates.
#[derive(Debug, Clone, Copy)]
pub struct StridePredictions {
    line: LineAddr,
    stride: i64,
    next: i64,
    last: i64,
}

impl StridePredictions {
    const EMPTY: StridePredictions = StridePredictions {
        line: LineAddr::new(0),
        stride: 0,
        next: 1,
        last: 0,
    };
}

impl Iterator for StridePredictions {
    type Item = LineAddr;

    fn next(&mut self) -> Option<LineAddr> {
        if self.next > self.last {
            return None;
        }
        let k = self.next;
        self.next += 1;
        Some(self.line.offset(self.stride * k))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.last + 1 - self.next) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for StridePredictions {}

impl FusedIterator for StridePredictions {}

/// A simple per-region constant-stride detector.
///
/// The table holds `streams` entries keyed by (4 KB region, core) with LRU
/// replacement. A lookup is O(1): an open-addressed index maps a key to
/// its slot, and an intrusive doubly-linked recency list over the slots
/// names the eviction victim. Slots fill in index order while any is free,
/// and after that the victim is the least recently touched entry — the
/// same choice a linear scan for the smallest LRU stamp makes.
///
/// # Example
///
/// ```
/// use stms_mem::{StrideConfig, StridePrefetcher};
/// use stms_types::{CoreId, LineAddr};
///
/// let mut sp = StridePrefetcher::new(StrideConfig { streams: 8, degree: 2, confidence: 2 });
/// let core = CoreId::new(0);
/// // A unit-stride scan: after a couple of observations it starts prefetching.
/// let mut predicted = Vec::new();
/// for i in 0..6u64 {
///     predicted.extend(sp.train(core, LineAddr::new(1000 + i)));
/// }
/// assert!(predicted.contains(&LineAddr::new(1004)));
/// ```
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    cfg: StrideConfig,
    /// Occupied slots; grows to `cfg.streams`, then entries are reused.
    entries: Vec<StrideEntry>,
    /// Linear-probing hash index from (region, core) to slot; free
    /// buckets hold [`NONE`]. It has 32 buckets per slot, so nearly every
    /// lookup, insert and removal settles at its first bucket.
    index: Vec<u32>,
    index_mask: usize,
    /// `64 - log2(index.len())`: turns a 64-bit hash into a bucket.
    index_shift: u32,
    /// Most and least recently touched slots.
    newest: u32,
    oldest: u32,
    stats: StrideStats,
}

impl StridePrefetcher {
    /// Creates a stride prefetcher with the given table size and degree.
    pub fn new(cfg: StrideConfig) -> Self {
        let buckets = (32 * cfg.streams).next_power_of_two().max(2);
        StridePrefetcher {
            cfg,
            entries: Vec::with_capacity(cfg.streams),
            index: vec![NONE; buckets],
            index_mask: buckets - 1,
            index_shift: 64 - buckets.trailing_zeros(),
            newest: NONE,
            oldest: NONE,
            stats: StrideStats::default(),
        }
    }

    /// Observes an off-chip miss and returns the lines to prefetch (possibly
    /// none).
    pub fn train(&mut self, core: CoreId, line: LineAddr) -> StridePredictions {
        self.stats.trained += 1;
        let region = line.raw() / REGION_LINES;
        let core_idx = core.index() as u16;

        let (bucket, slot) = self.probe(region, core_idx);
        if slot != NONE {
            self.touch(slot);
            let entry = &mut self.entries[slot as usize];
            let delta = line.delta_from(entry.last_line);
            if delta == 0 {
                return StridePredictions::EMPTY;
            }
            if delta == entry.stride {
                entry.confidence = entry.confidence.saturating_add(1);
            } else {
                entry.stride = delta;
                entry.confidence = 1;
            }
            entry.last_line = line;
            if entry.confidence >= self.cfg.confidence && entry.stride != 0 {
                let degree = self.cfg.degree;
                self.stats.prefetches += degree as u64;
                return StridePredictions {
                    line,
                    stride: entry.stride,
                    next: 1,
                    last: degree as i64,
                };
            }
            return StridePredictions::EMPTY;
        }

        // Allocate a new entry: the next free slot, else the LRU one.
        let entry = StrideEntry {
            region,
            core: core_idx,
            last_line: line,
            stride: 0,
            confidence: 0,
            newer: NONE,
            older: NONE,
        };
        if self.entries.len() < self.cfg.streams {
            let slot = self.entries.len() as u32;
            self.entries.push(entry);
            self.index[bucket] = slot;
            self.push_newest(slot);
        } else {
            let victim = self.oldest;
            assert_ne!(victim, NONE, "streams > 0");
            let old = self.entries[victim as usize];
            self.unindex(self.probe(old.region, old.core).0);
            self.unlink(victim);
            self.entries[victim as usize] = entry;
            // The removal may have shifted buckets; probe again for a free one.
            let (bucket, _) = self.probe(region, core_idx);
            self.index[bucket] = victim;
            self.push_newest(victim);
        }
        StridePredictions::EMPTY
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> StrideStats {
        self.stats
    }

    /// Home bucket of a key: the top bits of a Fibonacci (golden-ratio)
    /// multiply, which every input bit reaches. The low bits of the same
    /// product would cluster, because nearby regions differ only in their
    /// low bits.
    fn home(&self, region: u64, core: u16) -> usize {
        let key = region ^ (u64::from(core) << 58);
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.index_shift) as usize
    }

    /// The bucket indexing (region, core) and its slot, or the free bucket
    /// where the key would be indexed and [`NONE`].
    fn probe(&self, region: u64, core: u16) -> (usize, u32) {
        let mut bucket = self.home(region, core);
        loop {
            let slot = self.index[bucket];
            if slot == NONE {
                return (bucket, NONE);
            }
            let entry = &self.entries[slot as usize];
            if entry.region == region && entry.core == core {
                return (bucket, slot);
            }
            bucket = (bucket + 1) & self.index_mask;
        }
    }

    /// Frees `hole` by backward-shift deletion, so every remaining key
    /// stays reachable from its home bucket without tombstones.
    fn unindex(&mut self, mut hole: usize) {
        let mask = self.index_mask;
        let mut bucket = hole;
        loop {
            bucket = (bucket + 1) & mask;
            let slot = self.index[bucket];
            if slot == NONE {
                break;
            }
            let entry = &self.entries[slot as usize];
            let home = self.home(entry.region, entry.core);
            // Move the key into the hole unless its home lies after the
            // hole (cyclically), where a lookup would never pass the hole.
            if bucket.wrapping_sub(home) & mask >= bucket.wrapping_sub(hole) & mask {
                self.index[hole] = slot;
                hole = bucket;
            }
        }
        self.index[hole] = NONE;
    }

    /// Makes `slot` the most recently touched entry.
    fn touch(&mut self, slot: u32) {
        if self.newest != slot {
            self.unlink(slot);
            self.push_newest(slot);
        }
    }

    fn unlink(&mut self, slot: u32) {
        let StrideEntry { newer, older, .. } = self.entries[slot as usize];
        match newer {
            NONE => self.newest = older,
            newer => self.entries[newer as usize].older = older,
        }
        match older {
            NONE => self.oldest = newer,
            older => self.entries[older as usize].newer = newer,
        }
    }

    fn push_newest(&mut self, slot: u32) {
        let previous = self.newest;
        {
            let entry = &mut self.entries[slot as usize];
            entry.newer = NONE;
            entry.older = previous;
        }
        match previous {
            NONE => self.oldest = slot,
            previous => self.entries[previous as usize].newer = slot,
        }
        self.newest = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{Strategy, TestRng};

    fn sp() -> StridePrefetcher {
        StridePrefetcher::new(StrideConfig {
            streams: 4,
            degree: 2,
            confidence: 2,
        })
    }

    fn train(p: &mut StridePrefetcher, core: u16, line: u64) -> Vec<LineAddr> {
        p.train(CoreId::new(core), LineAddr::new(line)).collect()
    }

    #[test]
    fn unit_stride_detected_after_confidence() {
        let mut p = sp();
        assert!(train(&mut p, 0, 100).is_empty());
        assert!(train(&mut p, 0, 101).is_empty(), "confidence 1 of 2");
        let out = train(&mut p, 0, 102);
        assert_eq!(out, vec![LineAddr::new(103), LineAddr::new(104)]);
    }

    #[test]
    fn non_unit_stride_detected() {
        let mut p = sp();
        train(&mut p, 1, 200);
        train(&mut p, 1, 204);
        let out = train(&mut p, 1, 208);
        assert_eq!(out, vec![LineAddr::new(212), LineAddr::new(216)]);
    }

    #[test]
    fn predictions_report_their_length() {
        let mut p = sp();
        assert_eq!(p.train(CoreId::new(0), LineAddr::new(10)).len(), 0);
        assert_eq!(p.train(CoreId::new(0), LineAddr::new(11)).len(), 0);
        let mut out = p.train(CoreId::new(0), LineAddr::new(12));
        assert_eq!(out.len(), 2);
        assert_eq!(out.next(), Some(LineAddr::new(13)));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn random_pattern_never_prefetches() {
        let mut p = sp();
        let mut total = 0;
        for line in [5u64, 900, 17, 3000, 42, 77777, 13] {
            total += train(&mut p, 0, line).len();
        }
        assert_eq!(total, 0);
        assert_eq!(p.stats().prefetches, 0);
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut p = sp();
        train(&mut p, 0, 10);
        train(&mut p, 0, 11);
        train(&mut p, 0, 12); // locked, prefetching
        assert!(train(&mut p, 0, 20).is_empty(), "stride broke");
        // After two consecutive identical deltas the new stride locks again.
        assert_eq!(
            train(&mut p, 0, 28),
            vec![LineAddr::new(36), LineAddr::new(44)],
            "locked onto new stride"
        );
    }

    #[test]
    fn distinct_cores_do_not_interfere() {
        let mut p = sp();
        train(&mut p, 0, 100);
        train(&mut p, 1, 101);
        train(&mut p, 0, 101);
        train(&mut p, 1, 102);
        // Each core has seen only one delta so far; nobody should have locked.
        assert_eq!(train(&mut p, 0, 102).len(), 2);
    }

    #[test]
    fn duplicate_miss_is_ignored() {
        let mut p = sp();
        train(&mut p, 0, 50);
        assert!(train(&mut p, 0, 50).is_empty());
    }

    #[test]
    fn table_replacement_evicts_lru_region() {
        let mut p = sp();
        // Touch 5 distinct regions with a 4-entry table.
        for r in 0..5u64 {
            train(&mut p, 0, r * REGION_LINES);
        }
        // Region 0 was evicted; training it again restarts from scratch.
        train(&mut p, 0, 1);
        train(&mut p, 0, 2);
        let out = train(&mut p, 0, 3);
        assert_eq!(out.len(), 2);
    }

    /// (region, core) held by each slot, in slot order.
    fn slots(p: &StridePrefetcher) -> Vec<(u64, u16)> {
        p.entries.iter().map(|e| (e.region, e.core)).collect()
    }

    #[test]
    fn free_slots_fill_in_index_order_before_lru_eviction() {
        let mut p = sp();
        for r in 0..4u64 {
            train(&mut p, 0, r * REGION_LINES);
            assert_eq!(p.entries.len() as u64, r + 1);
        }
        assert_eq!(slots(&p), vec![(0, 0), (1, 0), (2, 0), (3, 0)]);
        // Touch region 0 (also with a zero delta) so region 1 is the LRU.
        train(&mut p, 0, 0);
        train(&mut p, 0, 5);
        train(&mut p, 0, 4 * REGION_LINES);
        assert_eq!(slots(&p), vec![(0, 0), (4, 0), (2, 0), (3, 0)]);
        // Then regions 2 and 3 go, then region 0 (touched before region 4).
        train(&mut p, 1, 0);
        train(&mut p, 1, REGION_LINES);
        assert_eq!(slots(&p), vec![(0, 0), (4, 0), (0, 1), (1, 1)]);
        train(&mut p, 2, 0);
        assert_eq!(slots(&p), vec![(0, 2), (4, 0), (0, 1), (1, 1)]);
    }

    /// The table as it was before the hashed index: a linear scan for the
    /// key and a second scan for the smallest LRU stamp (invalid slots
    /// counting as 0). Kept as the reference the O(1) table must match.
    struct LinearScanTable {
        cfg: StrideConfig,
        entries: Vec<RefEntry>,
        clock: u64,
        stats: StrideStats,
        paths: PathCounts,
    }

    #[derive(Clone, Copy)]
    struct RefEntry {
        region: u64,
        core: u16,
        last_line: LineAddr,
        stride: i64,
        confidence: u32,
        lru: u64,
        valid: bool,
    }

    /// How often each branch of the reference ran, to show the random
    /// streams reach all of them.
    #[derive(Debug, Default)]
    struct PathCounts {
        hits: u64,
        evictions: u64,
        zero_deltas: u64,
        stride_changes: u64,
        prefetching: u64,
    }

    impl LinearScanTable {
        fn new(cfg: StrideConfig) -> Self {
            LinearScanTable {
                cfg,
                entries: vec![
                    RefEntry {
                        region: 0,
                        core: 0,
                        last_line: LineAddr::new(0),
                        stride: 0,
                        confidence: 0,
                        lru: 0,
                        valid: false,
                    };
                    cfg.streams
                ],
                clock: 0,
                stats: StrideStats::default(),
                paths: PathCounts::default(),
            }
        }

        fn train(&mut self, core: CoreId, line: LineAddr) -> Vec<LineAddr> {
            self.clock += 1;
            self.stats.trained += 1;
            let clock = self.clock;
            let region = line.raw() / REGION_LINES;
            let core_idx = core.index() as u16;

            if let Some(entry) = self
                .entries
                .iter_mut()
                .find(|e| e.valid && e.region == region && e.core == core_idx)
            {
                self.paths.hits += 1;
                let delta = line.delta_from(entry.last_line);
                entry.lru = clock;
                if delta == 0 {
                    self.paths.zero_deltas += 1;
                    return Vec::new();
                }
                if delta == entry.stride {
                    entry.confidence = entry.confidence.saturating_add(1);
                } else {
                    self.paths.stride_changes += 1;
                    entry.stride = delta;
                    entry.confidence = 1;
                }
                entry.last_line = line;
                if entry.confidence >= self.cfg.confidence && entry.stride != 0 {
                    self.paths.prefetching += 1;
                    let stride = entry.stride;
                    let degree = self.cfg.degree;
                    self.stats.prefetches += degree as u64;
                    return (1..=degree as i64)
                        .map(|k| line.offset(stride * k))
                        .collect();
                }
                return Vec::new();
            }

            let victim = self
                .entries
                .iter_mut()
                .min_by_key(|e| if e.valid { e.lru } else { 0 })
                .expect("streams > 0");
            if victim.valid {
                self.paths.evictions += 1;
            }
            *victim = RefEntry {
                region,
                core: core_idx,
                last_line: line,
                stride: 0,
                confidence: 0,
                lru: clock,
                valid: true,
            };
            Vec::new()
        }
    }

    /// Per-step moves of a (core, region) cursor: mostly repeats of a
    /// small stride, with zero deltas, reversals, jumps that cross into
    /// the next region, and far jumps.
    const STEPS: [i64; 10] = [1, 1, 1, 2, 2, 0, -1, -3, 64, 4096];

    #[test]
    fn hashed_table_matches_linear_scan_reference() {
        let cases = (
            1u64..40,
            1usize..4,
            1u32..4,
            proptest::collection::vec((0u16..3, 0u64..40, 0usize..STEPS.len()), 1..600),
        );
        let mut rng = TestRng::deterministic("stride::hashed_table_matches_linear_scan_reference");
        let mut paths = PathCounts::default();
        for _ in 0..48 {
            let (regions, degree, confidence, ops) = cases.sample_value(&mut rng);
            for streams in [1, 2, 3, 32] {
                let cfg = StrideConfig {
                    streams,
                    degree,
                    confidence,
                };
                let mut table = StridePrefetcher::new(cfg);
                let mut reference = LinearScanTable::new(cfg);
                let mut cursors = std::collections::HashMap::new();
                for &(core, region, step) in &ops {
                    let region = region % regions;
                    let cursor = cursors
                        .entry((core, region))
                        .or_insert(region * 1000 * REGION_LINES + REGION_LINES / 2);
                    *cursor = cursor.wrapping_add(STEPS[step] as u64);
                    let (core, line) = (CoreId::new(core), LineAddr::new(*cursor));
                    let got: Vec<_> = table.train(core, line).collect();
                    assert_eq!(got, reference.train(core, line), "streams {streams}");
                    assert_eq!(table.stats(), reference.stats);
                }
                // Same residents in the same slots, with the same state.
                let resident: Vec<_> = table
                    .entries
                    .iter()
                    .map(|e| (e.region, e.core, e.last_line, e.stride, e.confidence))
                    .collect();
                let expected: Vec<_> = reference
                    .entries
                    .iter()
                    .filter(|e| e.valid)
                    .map(|e| (e.region, e.core, e.last_line, e.stride, e.confidence))
                    .collect();
                assert_eq!(resident, expected, "streams {streams}");
                paths.hits += reference.paths.hits;
                paths.evictions += reference.paths.evictions;
                paths.zero_deltas += reference.paths.zero_deltas;
                paths.stride_changes += reference.paths.stride_changes;
                paths.prefetching += reference.paths.prefetching;
            }
        }
        assert!(
            paths.hits > 0
                && paths.evictions > 0
                && paths.zero_deltas > 0
                && paths.stride_changes > 0
                && paths.prefetching > 0,
            "the streams must reach every branch: {paths:?}"
        );
    }
}
