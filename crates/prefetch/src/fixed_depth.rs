//! Single-table, fixed-prefetch-depth correlation prefetchers.
//!
//! This family models the prior-work designs the paper contrasts with STMS:
//! a set-associative correlation table whose entries store a *fixed-length*
//! sequence of successor addresses (three to six in EBCP \[6\], ULMT \[23\] and
//! similar designs). A single lookup can prefetch at most `depth` blocks, so
//! long temporal streams are fragmented into many lookups (§5.4 and Figure 6,
//! right). The table can be placed on-chip (idealized, no meta-data traffic)
//! or off-chip (each lookup/update costs main-memory accesses), which is how
//! the EBCP-like and ULMT-like baselines of Figure 1 (right) are modelled.

use std::collections::VecDeque;
use stms_mem::{DramModel, Prefetcher, StreamChunk, TrafficClass};
use stms_types::{CoreId, Cycle, LineAddr};

/// Where the correlation table lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TablePlacement {
    /// Idealized on-chip table: zero lookup latency, no meta-data traffic.
    OnChip,
    /// Main-memory table: each lookup and each update cost whole-cache-line
    /// accesses at low priority.
    OffChip {
        /// Memory accesses per predictor lookup.
        lookup_accesses: u32,
        /// Memory accesses per table update (read-modify-write).
        update_accesses: u32,
    },
}

// Stable fingerprint so fixed-depth design points can key on-disk memoized
// results.
impl stms_types::Fingerprintable for TablePlacement {
    fn fingerprint_into(&self, fp: &mut stms_types::Fingerprinter) {
        match *self {
            TablePlacement::OnChip => fp.write_u8(0),
            TablePlacement::OffChip {
                lookup_accesses,
                update_accesses,
            } => {
                fp.write_u8(1);
                fp.write_u32(lookup_accesses);
                fp.write_u32(update_accesses);
            }
        }
    }
}

/// Configuration of a fixed-depth correlation prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedDepthConfig {
    /// Number of cores.
    pub cores: usize,
    /// Total number of correlation-table entries.
    pub entries: usize,
    /// Table associativity.
    pub associativity: usize,
    /// Successor addresses stored per entry (the prefetch depth).
    pub depth: usize,
    /// Table placement.
    pub placement: TablePlacement,
}

impl stms_types::Fingerprintable for FixedDepthConfig {
    fn fingerprint_into(&self, fp: &mut stms_types::Fingerprinter) {
        let FixedDepthConfig {
            cores,
            entries,
            associativity,
            depth,
            placement,
        } = self;
        fp.write_str("FixedDepthConfig/v1");
        fp.write_usize(*cores);
        fp.write_usize(*entries);
        fp.write_usize(*associativity);
        fp.write_usize(*depth);
        placement.fingerprint_into(fp);
    }
}

impl FixedDepthConfig {
    /// An EBCP-like configuration: six-deep entries in main memory, one
    /// memory access per lookup and a read-modify-write (three accesses,
    /// as published) per update.
    pub fn ebcp_like(cores: usize) -> Self {
        FixedDepthConfig {
            cores,
            entries: 1 << 17,
            associativity: 8,
            depth: 6,
            placement: TablePlacement::OffChip {
                lookup_accesses: 1,
                update_accesses: 3,
            },
        }
    }

    /// A ULMT-like configuration: four-deep entries in main memory, one
    /// access per lookup, three per update.
    pub fn ulmt_like(cores: usize) -> Self {
        FixedDepthConfig {
            cores,
            entries: 1 << 17,
            associativity: 8,
            depth: 4,
            placement: TablePlacement::OffChip {
                lookup_accesses: 1,
                update_accesses: 3,
            },
        }
    }

    /// An idealized on-chip table with the given depth, used for the
    /// prefetch-depth sweep of Figure 6 (right) where only the fragmentation
    /// effect of bounded depth should be visible.
    pub fn on_chip_with_depth(cores: usize, depth: usize) -> Self {
        FixedDepthConfig {
            cores,
            entries: 1 << 20,
            associativity: 16,
            depth,
            placement: TablePlacement::OnChip,
        }
    }
}

impl Default for FixedDepthConfig {
    fn default() -> Self {
        FixedDepthConfig::ebcp_like(4)
    }
}

/// One correlation-table entry. Its successors live in the prefetcher's
/// `successors` pool, `depth` slots from `first`.
#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: LineAddr,
    lru: u64,
    first: usize,
    len: usize,
}

/// Marks a window element whose entry's way is not known yet.
const NO_WAY: usize = usize::MAX;

/// Counters describing fixed-depth prefetcher behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FixedDepthStats {
    /// Predictor lookups performed (trigger events).
    pub lookups: u64,
    /// Lookups that found an entry.
    pub lookup_hits: u64,
    /// Table updates performed.
    pub updates: u64,
}

/// A single-table correlation prefetcher with bounded prefetch depth.
///
/// # Example
///
/// ```
/// use stms_prefetch::{FixedDepthConfig, FixedDepthPrefetcher};
/// use stms_mem::{DramModel, Prefetcher, SystemConfig};
/// use stms_types::{CoreId, Cycle, LineAddr};
///
/// let cfg = FixedDepthConfig::on_chip_with_depth(1, 2);
/// let mut pf = FixedDepthPrefetcher::new(cfg);
/// let mut dram = DramModel::new(SystemConfig::hpca09_baseline().dram);
/// let core = CoreId::new(0);
/// for l in [1u64, 2, 3, 4] {
///     pf.record(core, LineAddr::new(l), false, Cycle::ZERO, &mut dram);
/// }
/// let chunk = pf.on_trigger(core, LineAddr::new(1), Cycle::ZERO, &mut dram).unwrap();
/// // Depth 2: only two successors can be prefetched per lookup.
/// assert_eq!(chunk.addresses, vec![LineAddr::new(2), LineAddr::new(3)]);
/// ```
#[derive(Debug)]
pub struct FixedDepthPrefetcher {
    cfg: FixedDepthConfig,
    /// Per-set entries; a set's vector grows on first use, so untouched
    /// sets hold no entry storage.
    sets: Vec<Vec<Entry>>,
    /// `sets.len() - 1` (the set count is a power of two).
    set_mask: u64,
    /// Successor slots, `depth` per entry ever allocated; a replacing entry
    /// takes over its victim's slots.
    successors: Vec<LineAddr>,
    /// Per-core trailing window of recent misses used to fill entries: the
    /// entry for a miss M receives the next `depth` misses that follow M.
    /// Oldest first; each miss carries the way of its entry within its set
    /// once known ([`NO_WAY`] before), which spares the set search while the
    /// entry stays put.
    recent: Vec<VecDeque<(LineAddr, usize)>>,
    clock: u64,
    stats: FixedDepthStats,
}

impl FixedDepthPrefetcher {
    /// Creates the prefetcher.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (entries not a multiple of
    /// associativity, or a non-power-of-two set count).
    pub fn new(cfg: FixedDepthConfig) -> Self {
        assert!(cfg.associativity > 0 && cfg.entries.is_multiple_of(cfg.associativity));
        let sets = cfg.entries / cfg.associativity;
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(cfg.depth > 0, "depth must be non-zero");
        FixedDepthPrefetcher {
            cfg,
            sets: vec![Vec::new(); sets],
            set_mask: sets as u64 - 1,
            successors: Vec::new(),
            recent: vec![VecDeque::new(); cfg.cores],
            clock: 0,
            stats: FixedDepthStats::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> FixedDepthStats {
        self.stats
    }

    /// The configured prefetch depth.
    pub fn depth(&self) -> usize {
        self.cfg.depth
    }

    fn set_of(&self, line: LineAddr) -> usize {
        (line.raw() & self.set_mask) as usize
    }

    fn charge_meta(
        &self,
        accesses: u32,
        now: Cycle,
        dram: &mut DramModel,
        class: TrafficClass,
    ) -> Cycle {
        let mut done = now;
        for _ in 0..accesses {
            done = dram.access(class, 64, done);
        }
        done
    }

    /// Appends `successor` to the entry for `trigger`, creating it if needed.
    /// `way` is where the entry was last seen ([`NO_WAY`] if unknown);
    /// returns where it is now.
    fn append_successor(&mut self, trigger: LineAddr, successor: LineAddr, way: usize) -> usize {
        self.clock += 1;
        let clock = self.clock;
        let depth = self.cfg.depth;
        let set_idx = self.set_of(trigger);
        let set = &mut self.sets[set_idx];
        let found = match set.get(way) {
            Some(e) if e.tag == trigger => Some(way),
            _ => set.iter().position(|e| e.tag == trigger),
        };
        if let Some(way) = found {
            let e = &mut set[way];
            e.lru = clock;
            if e.len < depth {
                self.successors[e.first + e.len] = successor;
                e.len += 1;
            }
            return way;
        }
        let (way, first) = if set.len() < self.cfg.associativity {
            let first = self.successors.len();
            self.successors.resize(first + depth, LineAddr::new(0));
            (set.len(), first)
        } else {
            let (way, victim) = set
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .expect("assoc > 0");
            (way, victim.first)
        };
        let entry = Entry {
            tag: trigger,
            lru: clock,
            first,
            len: 1,
        };
        if way == set.len() {
            set.push(entry);
        } else {
            set[way] = entry;
        }
        self.successors[first] = successor;
        way
    }
}

impl Prefetcher for FixedDepthPrefetcher {
    fn name(&self) -> &'static str {
        match self.cfg.placement {
            TablePlacement::OnChip => "fixed-depth-onchip",
            TablePlacement::OffChip { .. } => "fixed-depth-offchip",
        }
    }

    fn on_trigger(
        &mut self,
        _core: CoreId,
        line: LineAddr,
        now: Cycle,
        dram: &mut DramModel,
    ) -> Option<StreamChunk> {
        self.stats.lookups += 1;
        let ready_at = match self.cfg.placement {
            TablePlacement::OnChip => now,
            TablePlacement::OffChip {
                lookup_accesses, ..
            } => self.charge_meta(lookup_accesses, now, dram, TrafficClass::MetaLookup),
        };
        self.clock += 1;
        let clock = self.clock;
        let set_idx = self.set_of(line);
        let entry = self.sets[set_idx].iter_mut().find(|e| e.tag == line)?;
        entry.lru = clock;
        if entry.len == 0 {
            return None;
        }
        let addresses = self.successors[entry.first..entry.first + entry.len].to_vec();
        self.stats.lookup_hits += 1;
        Some(StreamChunk {
            addresses,
            ready_at,
        })
    }

    fn next_chunk(&mut self, _core: CoreId, now: Cycle, _dram: &mut DramModel) -> StreamChunk {
        // The defining limitation of single-table designs: a lookup yields at
        // most `depth` addresses and the stream cannot be extended.
        StreamChunk::empty(now)
    }

    fn record(
        &mut self,
        core: CoreId,
        line: LineAddr,
        _prefetched: bool,
        now: Cycle,
        dram: &mut DramModel,
    ) {
        // Feed this miss into the entries of the preceding `depth` misses,
        // oldest first.
        let mut window = std::mem::take(&mut self.recent[core.index()]);
        for (trigger, way) in window.iter_mut() {
            *way = self.append_successor(*trigger, line, *way);
        }
        // Update traffic: one table update per recorded miss (read-modify-write
        // of the trigger entry) for off-chip placements.
        self.stats.updates += 1;
        if let TablePlacement::OffChip {
            update_accesses, ..
        } = self.cfg.placement
        {
            self.charge_meta(update_accesses, now, dram, TrafficClass::MetaUpdate);
        }
        window.push_back((line, NO_WAY));
        if window.len() > self.cfg.depth {
            window.pop_front();
        }
        self.recent[core.index()] = window;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stms_mem::SystemConfig;

    fn dram() -> DramModel {
        DramModel::new(SystemConfig::hpca09_baseline().dram)
    }

    fn record_seq(p: &mut FixedDepthPrefetcher, core: u16, lines: &[u64], dram: &mut DramModel) {
        for &l in lines {
            p.record(
                CoreId::new(core),
                LineAddr::new(l),
                false,
                Cycle::ZERO,
                dram,
            );
        }
    }

    #[test]
    fn depth_limits_predicted_sequence() {
        let mut p = FixedDepthPrefetcher::new(FixedDepthConfig::on_chip_with_depth(1, 3));
        let mut d = dram();
        record_seq(&mut p, 0, &[1, 2, 3, 4, 5, 6, 7], &mut d);
        let c = p
            .on_trigger(CoreId::new(0), LineAddr::new(1), Cycle::ZERO, &mut d)
            .unwrap();
        assert_eq!(
            c.addresses,
            vec![LineAddr::new(2), LineAddr::new(3), LineAddr::new(4)]
        );
        assert!(p.next_chunk(CoreId::new(0), Cycle::ZERO, &mut d).is_empty());
        assert_eq!(p.depth(), 3);
    }

    #[test]
    fn on_chip_lookup_is_free_and_immediate() {
        let mut p = FixedDepthPrefetcher::new(FixedDepthConfig::on_chip_with_depth(1, 2));
        let mut d = dram();
        record_seq(&mut p, 0, &[1, 2, 3], &mut d);
        let c = p
            .on_trigger(CoreId::new(0), LineAddr::new(1), Cycle::new(55), &mut d)
            .unwrap();
        assert_eq!(c.ready_at, Cycle::new(55));
        assert_eq!(d.traffic().total(), 0);
        assert_eq!(p.name(), "fixed-depth-onchip");
    }

    #[test]
    fn off_chip_lookup_and_update_cost_memory_traffic() {
        let mut p = FixedDepthPrefetcher::new(FixedDepthConfig::ebcp_like(1));
        let mut d = dram();
        record_seq(&mut p, 0, &[1, 2, 3], &mut d);
        assert_eq!(
            d.traffic().meta_update,
            3 * 3 * 64,
            "3 updates x 3 accesses x 64B"
        );
        let before = d.traffic().meta_lookup;
        let c = p
            .on_trigger(CoreId::new(0), LineAddr::new(1), Cycle::new(0), &mut d)
            .unwrap();
        assert!(
            c.ready_at >= Cycle::new(180),
            "off-chip lookup takes at least one DRAM latency"
        );
        assert_eq!(d.traffic().meta_lookup, before + 64);
        assert_eq!(p.name(), "fixed-depth-offchip");
    }

    #[test]
    fn unknown_trigger_returns_none_but_still_counts_lookup() {
        let mut p = FixedDepthPrefetcher::new(FixedDepthConfig::on_chip_with_depth(1, 2));
        let mut d = dram();
        assert!(p
            .on_trigger(CoreId::new(0), LineAddr::new(9), Cycle::ZERO, &mut d)
            .is_none());
        assert_eq!(p.stats().lookups, 1);
        assert_eq!(p.stats().lookup_hits, 0);
    }

    #[test]
    fn recurrence_with_same_successors_is_predicted() {
        let mut p = FixedDepthPrefetcher::new(FixedDepthConfig::on_chip_with_depth(1, 4));
        let mut d = dram();
        // The stream A B C D recurs; the entry for A accumulates B C D.
        record_seq(&mut p, 0, &[10, 11, 12, 13, 99, 10, 11, 12, 13], &mut d);
        let c = p
            .on_trigger(CoreId::new(0), LineAddr::new(10), Cycle::ZERO, &mut d)
            .unwrap();
        assert!(c.addresses.starts_with(&[
            LineAddr::new(11),
            LineAddr::new(12),
            LineAddr::new(13)
        ]));
    }

    #[test]
    fn per_core_windows_do_not_mix() {
        let mut p = FixedDepthPrefetcher::new(FixedDepthConfig::on_chip_with_depth(2, 2));
        let mut d = dram();
        p.record(CoreId::new(0), LineAddr::new(1), false, Cycle::ZERO, &mut d);
        p.record(
            CoreId::new(1),
            LineAddr::new(50),
            false,
            Cycle::ZERO,
            &mut d,
        );
        p.record(CoreId::new(0), LineAddr::new(2), false, Cycle::ZERO, &mut d);
        let c = p
            .on_trigger(CoreId::new(0), LineAddr::new(1), Cycle::ZERO, &mut d)
            .unwrap();
        assert_eq!(c.addresses, vec![LineAddr::new(2)]);
        assert!(p
            .on_trigger(CoreId::new(1), LineAddr::new(50), Cycle::ZERO, &mut d)
            .is_none());
    }

    #[test]
    fn presets_have_expected_shapes() {
        let e = FixedDepthConfig::ebcp_like(4);
        let u = FixedDepthConfig::ulmt_like(4);
        assert_eq!(e.depth, 6);
        assert_eq!(u.depth, 4);
        assert!(matches!(e.placement, TablePlacement::OffChip { .. }));
        assert_eq!(FixedDepthConfig::default(), FixedDepthConfig::ebcp_like(4));
    }

    #[test]
    #[should_panic(expected = "depth")]
    fn zero_depth_panics() {
        let mut cfg = FixedDepthConfig::on_chip_with_depth(1, 1);
        cfg.depth = 0;
        let _ = FixedDepthPrefetcher::new(cfg);
    }

    /// The prefetcher as it was before the successor pool: each entry owns
    /// a successor `Vec`, the set index is a `%`, and `record` clones the
    /// window and shifts it with `remove(0)`. Kept as the reference the
    /// fast table must match.
    struct ReferenceFixedDepth {
        cfg: FixedDepthConfig,
        sets: Vec<Vec<(LineAddr, Vec<LineAddr>, u64)>>,
        recent: Vec<Vec<LineAddr>>,
        clock: u64,
        stats: FixedDepthStats,
        evictions: u64,
    }

    impl ReferenceFixedDepth {
        fn new(cfg: FixedDepthConfig) -> Self {
            ReferenceFixedDepth {
                cfg,
                sets: vec![Vec::new(); cfg.entries / cfg.associativity],
                recent: vec![Vec::new(); cfg.cores],
                clock: 0,
                stats: FixedDepthStats::default(),
                evictions: 0,
            }
        }

        fn set_of(&self, line: LineAddr) -> usize {
            (line.raw() % self.sets.len() as u64) as usize
        }

        fn charge_meta(
            accesses: u32,
            now: Cycle,
            dram: &mut DramModel,
            class: TrafficClass,
        ) -> Cycle {
            let mut done = now;
            for _ in 0..accesses {
                done = dram.access(class, 64, done);
            }
            done
        }

        fn append_successor(&mut self, trigger: LineAddr, successor: LineAddr) {
            self.clock += 1;
            let clock = self.clock;
            let (assoc, depth) = (self.cfg.associativity, self.cfg.depth);
            let set_idx = self.set_of(trigger);
            let set = &mut self.sets[set_idx];
            if let Some(e) = set.iter_mut().find(|e| e.0 == trigger) {
                e.2 = clock;
                if e.1.len() < depth {
                    e.1.push(successor);
                }
                return;
            }
            let entry = (trigger, vec![successor], clock);
            if set.len() < assoc {
                set.push(entry);
            } else {
                let victim = set.iter_mut().min_by_key(|e| e.2).expect("assoc > 0");
                *victim = entry;
                self.evictions += 1;
            }
        }

        fn on_trigger(
            &mut self,
            line: LineAddr,
            now: Cycle,
            dram: &mut DramModel,
        ) -> Option<StreamChunk> {
            self.stats.lookups += 1;
            let ready_at = match self.cfg.placement {
                TablePlacement::OnChip => now,
                TablePlacement::OffChip {
                    lookup_accesses, ..
                } => Self::charge_meta(lookup_accesses, now, dram, TrafficClass::MetaLookup),
            };
            self.clock += 1;
            let clock = self.clock;
            let set_idx = self.set_of(line);
            let entry = self.sets[set_idx].iter_mut().find(|e| e.0 == line)?;
            entry.2 = clock;
            let addresses = entry.1.clone();
            if addresses.is_empty() {
                return None;
            }
            self.stats.lookup_hits += 1;
            Some(StreamChunk {
                addresses,
                ready_at,
            })
        }

        fn record(&mut self, core: CoreId, line: LineAddr, now: Cycle, dram: &mut DramModel) {
            let window: Vec<LineAddr> = self.recent[core.index()].clone();
            for &trigger in &window {
                self.append_successor(trigger, line);
            }
            self.stats.updates += 1;
            if let TablePlacement::OffChip {
                update_accesses, ..
            } = self.cfg.placement
            {
                Self::charge_meta(update_accesses, now, dram, TrafficClass::MetaUpdate);
            }
            let recent = &mut self.recent[core.index()];
            recent.push(line);
            if recent.len() > self.cfg.depth {
                recent.remove(0);
            }
        }
    }

    #[test]
    fn pooled_table_matches_owned_successor_reference() {
        use proptest::{Strategy, TestRng};
        let ops = proptest::collection::vec((0u8..4, 0u16..2, 0u64..90), 1..500);
        let mut rng =
            TestRng::deterministic("fixed_depth::pooled_table_matches_owned_successor_reference");
        let mut evictions = 0;
        for _ in 0..30 {
            let ops = ops.sample_value(&mut rng);
            for (entries, associativity, depth, off_chip) in [
                (8, 2, 3, false),
                (16, 4, 1, true),
                (4, 4, 6, false),
                (64, 8, 12, true),
                (1024, 16, 2, false),
            ] {
                let cfg = FixedDepthConfig {
                    cores: 2,
                    entries,
                    associativity,
                    depth,
                    placement: if off_chip {
                        TablePlacement::OffChip {
                            lookup_accesses: 1,
                            update_accesses: 3,
                        }
                    } else {
                        TablePlacement::OnChip
                    },
                };
                let mut fast = FixedDepthPrefetcher::new(cfg);
                let mut reference = ReferenceFixedDepth::new(cfg);
                let (mut fast_dram, mut ref_dram) = (dram(), dram());
                for (step, &(op, core, line)) in ops.iter().enumerate() {
                    let (core, line, now) = (
                        CoreId::new(core),
                        LineAddr::new(line),
                        Cycle::new(step as u64 * 5),
                    );
                    if op == 0 {
                        assert_eq!(
                            fast.on_trigger(core, line, now, &mut fast_dram),
                            reference.on_trigger(line, now, &mut ref_dram)
                        );
                    } else {
                        fast.record(core, line, op == 1, now, &mut fast_dram);
                        reference.record(core, line, now, &mut ref_dram);
                    }
                    assert_eq!(fast.stats(), reference.stats);
                }
                assert_eq!(fast_dram.traffic(), ref_dram.traffic());
                // Every resident entry holds the same successors.
                for (set, expected) in fast.sets.iter().zip(&reference.sets) {
                    let got: Vec<_> = set
                        .iter()
                        .map(|e| {
                            (
                                e.tag,
                                fast.successors[e.first..e.first + e.len].to_vec(),
                                e.lru,
                            )
                        })
                        .collect();
                    assert_eq!(&got, expected);
                }
                evictions += reference.evictions;
            }
        }
        assert!(evictions > 0, "the op streams must replace entries");
    }
}
