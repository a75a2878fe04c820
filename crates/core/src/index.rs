//! The hardware-managed, bucketized main-memory hash index table (§4.3) and
//! its on-chip bucket buffer.
//!
//! Physical (line) addresses hash to a bucket; each bucket occupies exactly
//! one 64-byte memory block and holds up to 12 `{address, history pointer}`
//! pairs kept in LRU order. A lookup retrieves the whole bucket with a single
//! main-memory access and searches it linearly (the search is free relative
//! to the access latency). Updates read the bucket, replace the LRU entry if
//! the address is absent, and write the bucket back.
//!
//! The small on-chip *bucket buffer* (8 KB = 128 buckets) holds recently
//! accessed buckets so that an update immediately following a lookup of the
//! same bucket does not pay a second memory round trip, and so that dirty
//! buckets are written back lazily when bandwidth is available.

use stms_mem::{DramModel, TrafficClass};
use stms_types::hashing::SlotMap;
use stms_types::{CoreId, Cycle, LineAddr};

/// A pointer into a history buffer: which core's buffer and which position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HistoryPointer {
    /// The core whose history buffer contains the stream.
    pub core: CoreId,
    /// Absolute position within that history buffer.
    pub position: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct BucketEntry {
    line: LineAddr,
    pointer: HistoryPointer,
}

/// One 64-byte bucket: entries kept in MRU-first order. The entry vector
/// grows on demand, so untouched buckets hold no entry storage.
#[derive(Debug, Clone, Default)]
struct Bucket {
    entries: Vec<BucketEntry>,
}

impl Bucket {
    /// Moves the entry at `pos` to the MRU position, replacing it with
    /// `entry`.
    fn promote(&mut self, pos: usize, entry: BucketEntry) {
        self.entries.copy_within(0..pos, 1);
        self.entries[0] = entry;
    }
}

/// Counters describing index-table behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Lookups performed.
    pub lookups: u64,
    /// Lookups that found the address.
    pub hits: u64,
    /// Updates performed (after sampling).
    pub updates: u64,
    /// Lookups or updates satisfied by the on-chip bucket buffer (no memory
    /// read needed).
    pub buffer_hits: u64,
    /// Dirty buckets written back to memory.
    pub writebacks: u64,
}

/// Marks an unbuffered bucket and the ends of the buffer's recency list.
const NONE: u32 = u32::MAX;

/// One buffered bucket.
#[derive(Debug, Clone, Copy)]
struct BufferSlot {
    bucket: u32,
    dirty: bool,
    /// Recency-list neighbours: `newer` was touched more recently, `older`
    /// less recently ([`NONE`] at either end).
    newer: u32,
    older: u32,
}

/// The on-chip bucket buffer: an LRU set of buckets with dirty bits.
///
/// Every operation is O(1): `slot_of` maps a bucket to its buffer slot,
/// and an intrusive doubly-linked recency list over the slots names the
/// eviction victim. Slots fill in order while any is free; after that the
/// least recently touched bucket is evicted, exactly as a recency-ordered
/// list that evicts its front would.
#[derive(Debug)]
struct BucketBuffer {
    capacity: usize,
    /// Occupied slots; grows to `capacity`, then slots are reused.
    slots: Vec<BufferSlot>,
    /// Bucket -> buffer slot, [`NONE`] when not buffered.
    slot_of: Vec<u32>,
    /// Most and least recently touched slots.
    newest: u32,
    oldest: u32,
}

impl BucketBuffer {
    fn new(capacity: usize, buckets: usize) -> Self {
        assert!(
            buckets < NONE as usize && capacity < NONE as usize,
            "bucket and buffer counts must fit in 32 bits"
        );
        BucketBuffer {
            capacity,
            slots: Vec::with_capacity(capacity),
            slot_of: vec![NONE; buckets],
            newest: NONE,
            oldest: NONE,
        }
    }

    /// Makes `bucket` the most recently used buffered bucket if it is
    /// buffered; returns whether it was.
    fn touch(&mut self, bucket: usize) -> bool {
        let slot = self.slot_of[bucket];
        if slot == NONE {
            return false;
        }
        if self.newest != slot {
            self.unlink(slot);
            self.push_newest(slot);
        }
        true
    }

    /// Buffers `bucket` (not buffered yet) as the most recently used one,
    /// clean. Returns whether a dirty bucket was evicted to make room.
    fn insert(&mut self, bucket: usize) -> bool {
        if self.capacity == 0 {
            return false;
        }
        let entry = BufferSlot {
            bucket: bucket as u32,
            dirty: false,
            newer: NONE,
            older: NONE,
        };
        let (slot, evicted_dirty) = if self.slots.len() < self.capacity {
            self.slots.push(entry);
            ((self.slots.len() - 1) as u32, false)
        } else {
            let victim = self.oldest;
            let old = self.slots[victim as usize];
            self.slot_of[old.bucket as usize] = NONE;
            self.unlink(victim);
            self.slots[victim as usize] = entry;
            (victim, old.dirty)
        };
        self.slot_of[bucket] = slot;
        self.push_newest(slot);
        evicted_dirty
    }

    /// Sets the dirty bit of `bucket` if it is buffered.
    fn mark_dirty(&mut self, bucket: usize) {
        let slot = self.slot_of[bucket];
        if slot != NONE {
            self.slots[slot as usize].dirty = true;
        }
    }

    /// Clears every dirty bit, least recently used first, and returns how
    /// many were set.
    fn clean_all(&mut self) -> u64 {
        let mut cleaned = 0;
        let mut slot = self.oldest;
        while slot != NONE {
            let entry = &mut self.slots[slot as usize];
            cleaned += u64::from(entry.dirty);
            entry.dirty = false;
            slot = entry.newer;
        }
        cleaned
    }

    fn unlink(&mut self, slot: u32) {
        let BufferSlot { newer, older, .. } = self.slots[slot as usize];
        match newer {
            NONE => self.newest = older,
            newer => self.slots[newer as usize].older = older,
        }
        match older {
            NONE => self.oldest = newer,
            older => self.slots[older as usize].newer = newer,
        }
    }

    fn push_newest(&mut self, slot: u32) {
        let previous = self.newest;
        {
            let entry = &mut self.slots[slot as usize];
            entry.newer = NONE;
            entry.older = previous;
        }
        match previous {
            NONE => self.oldest = slot,
            previous => self.slots[previous as usize].newer = slot,
        }
        self.newest = slot;
    }
}

/// The shared, bucketized main-memory index table with its on-chip bucket
/// buffer.
///
/// # Example
///
/// ```
/// use stms_core::{HashIndexTable, HistoryPointer};
/// use stms_mem::{DramModel, SystemConfig};
/// use stms_types::{CoreId, Cycle, LineAddr};
///
/// let mut dram = DramModel::new(SystemConfig::hpca09_baseline().dram);
/// let mut index = HashIndexTable::new(1024, 12, 16);
/// let ptr = HistoryPointer { core: CoreId::new(0), position: 99 };
/// index.update(LineAddr::new(5), ptr, Cycle::ZERO, &mut dram);
/// let (found, _ready) = index.lookup(LineAddr::new(5), Cycle::ZERO, &mut dram);
/// assert_eq!(found, Some(ptr));
/// ```
#[derive(Debug)]
pub struct HashIndexTable {
    buckets: Vec<Bucket>,
    /// Hash -> bucket.
    bucket_slots: SlotMap,
    entries_per_bucket: usize,
    buffer: BucketBuffer,
    stats: IndexStats,
}

impl HashIndexTable {
    /// Creates an index table with `buckets` buckets of `entries_per_bucket`
    /// entries and an on-chip buffer of `bucket_buffer_blocks` buckets.
    ///
    /// # Panics
    ///
    /// Panics if `buckets` or `entries_per_bucket` is zero.
    pub fn new(buckets: usize, entries_per_bucket: usize, bucket_buffer_blocks: usize) -> Self {
        assert!(buckets > 0 && entries_per_bucket > 0);
        HashIndexTable {
            buckets: vec![Bucket::default(); buckets],
            bucket_slots: SlotMap::new(buckets),
            entries_per_bucket,
            buffer: BucketBuffer::new(bucket_buffer_blocks, buckets),
            stats: IndexStats::default(),
        }
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Total entries currently stored across all buckets.
    pub fn occupancy(&self) -> usize {
        self.buckets.iter().map(|b| b.entries.len()).sum()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    fn bucket_of(&self, line: LineAddr) -> usize {
        // SplitMix64-style finalizer: spreads even highly-structured line
        // addresses (e.g. strided allocations) evenly across buckets.
        let mut h = line.raw().wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        self.bucket_slots.slot(h)
    }

    /// Brings `bucket` into the on-chip buffer, charging a memory read if it
    /// was not already buffered. Returns the cycle at which the bucket's
    /// contents are available.
    fn acquire_bucket(
        &mut self,
        bucket: usize,
        now: Cycle,
        dram: &mut DramModel,
        class: TrafficClass,
    ) -> Cycle {
        if self.buffer.touch(bucket) {
            self.stats.buffer_hits += 1;
            return now;
        }
        let ready = dram.access(class, 64, now);
        if self.buffer.insert(bucket) {
            dram.access(TrafficClass::MetaUpdate, 64, now);
            self.stats.writebacks += 1;
        }
        ready
    }

    /// Looks up the history pointer for `line`. Returns the pointer (if any)
    /// and the cycle at which it is known (one memory round trip unless the
    /// bucket was resident in the bucket buffer).
    pub fn lookup(
        &mut self,
        line: LineAddr,
        now: Cycle,
        dram: &mut DramModel,
    ) -> (Option<HistoryPointer>, Cycle) {
        self.stats.lookups += 1;
        let bucket_idx = self.bucket_of(line);
        let ready = self.acquire_bucket(bucket_idx, now, dram, TrafficClass::MetaLookup);
        let bucket = &mut self.buckets[bucket_idx];
        if let Some(pos) = bucket.entries.iter().position(|e| e.line == line) {
            let entry = bucket.entries[pos];
            bucket.promote(pos, entry);
            self.stats.hits += 1;
            (Some(entry.pointer), ready)
        } else {
            (None, ready)
        }
    }

    /// Inserts or refreshes the mapping `line -> pointer`, replacing the LRU
    /// entry of the bucket if it is full.
    pub fn update(
        &mut self,
        line: LineAddr,
        pointer: HistoryPointer,
        now: Cycle,
        dram: &mut DramModel,
    ) {
        self.stats.updates += 1;
        let bucket_idx = self.bucket_of(line);
        // An update is a read-modify-write of the bucket; the read is skipped
        // when the bucket is buffered, the write is deferred until eviction.
        self.acquire_bucket(bucket_idx, now, dram, TrafficClass::MetaUpdate);
        self.buffer.mark_dirty(bucket_idx);
        let entry = BucketEntry { line, pointer };
        let bucket = &mut self.buckets[bucket_idx];
        match bucket.entries.iter().position(|e| e.line == line) {
            Some(pos) => bucket.promote(pos, entry),
            None if bucket.entries.len() < self.entries_per_bucket => {
                bucket.entries.insert(0, entry);
            }
            // Full: the LRU (last) entry falls off.
            None => bucket.promote(bucket.entries.len() - 1, entry),
        }
    }

    /// Writes back every dirty buffered bucket (end of simulation).
    pub fn flush(&mut self, now: Cycle, dram: &mut DramModel) {
        for _ in 0..self.buffer.clean_all() {
            dram.access(TrafficClass::MetaUpdate, 64, now);
            self.stats.writebacks += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stms_mem::SystemConfig;

    fn dram() -> DramModel {
        DramModel::new(SystemConfig::hpca09_baseline().dram)
    }

    fn ptr(core: u16, position: u64) -> HistoryPointer {
        HistoryPointer {
            core: CoreId::new(core),
            position,
        }
    }

    #[test]
    fn update_then_lookup_round_trips() {
        let mut d = dram();
        let mut idx = HashIndexTable::new(64, 12, 8);
        idx.update(LineAddr::new(10), ptr(1, 500), Cycle::ZERO, &mut d);
        let (found, _) = idx.lookup(LineAddr::new(10), Cycle::ZERO, &mut d);
        assert_eq!(found, Some(ptr(1, 500)));
        let (missing, _) = idx.lookup(LineAddr::new(11), Cycle::ZERO, &mut d);
        assert_eq!(missing, None);
        assert_eq!(idx.stats().lookups, 2);
        assert_eq!(idx.stats().hits, 1);
        assert_eq!(idx.stats().updates, 1);
        assert_eq!(idx.occupancy(), 1);
    }

    #[test]
    fn update_refreshes_existing_entry_without_growth() {
        let mut d = dram();
        let mut idx = HashIndexTable::new(64, 12, 8);
        idx.update(LineAddr::new(10), ptr(0, 1), Cycle::ZERO, &mut d);
        idx.update(LineAddr::new(10), ptr(0, 2), Cycle::ZERO, &mut d);
        assert_eq!(idx.occupancy(), 1);
        let (found, _) = idx.lookup(LineAddr::new(10), Cycle::ZERO, &mut d);
        assert_eq!(found, Some(ptr(0, 2)), "latest pointer wins");
    }

    #[test]
    fn bucket_lru_replacement_when_full() {
        let mut d = dram();
        // One bucket only: everything collides; 3 entries per bucket.
        let mut idx = HashIndexTable::new(1, 3, 8);
        for i in 0..3u64 {
            idx.update(LineAddr::new(i), ptr(0, i), Cycle::ZERO, &mut d);
        }
        // Touch line 0 so it becomes MRU, then insert a fourth entry.
        let _ = idx.lookup(LineAddr::new(0), Cycle::ZERO, &mut d);
        idx.update(LineAddr::new(99), ptr(0, 99), Cycle::ZERO, &mut d);
        assert_eq!(idx.occupancy(), 3);
        // Line 1 was the LRU entry and must be gone; 0 and 2's relative order:
        // 1 was older than 2? order after ops: [0 (MRU), 2, 1] -> inserting 99
        // drops 1.
        assert_eq!(idx.lookup(LineAddr::new(1), Cycle::ZERO, &mut d).0, None);
        assert!(idx
            .lookup(LineAddr::new(0), Cycle::ZERO, &mut d)
            .0
            .is_some());
        assert!(idx
            .lookup(LineAddr::new(99), Cycle::ZERO, &mut d)
            .0
            .is_some());
    }

    #[test]
    fn lookup_costs_one_memory_access_when_not_buffered() {
        let mut d = dram();
        let mut idx = HashIndexTable::new(1024, 12, 4);
        let (none, ready) = idx.lookup(LineAddr::new(5), Cycle::new(10), &mut d);
        assert_eq!(none, None);
        assert!(ready >= Cycle::new(10 + 180), "one DRAM round trip");
        assert_eq!(d.traffic().meta_lookup, 64);
    }

    #[test]
    fn bucket_buffer_absorbs_update_after_lookup() {
        let mut d = dram();
        let mut idx = HashIndexTable::new(1024, 12, 4);
        let line = LineAddr::new(77);
        let _ = idx.lookup(line, Cycle::ZERO, &mut d);
        let lookup_bytes = d.traffic().meta_lookup;
        let update_bytes = d.traffic().meta_update;
        // The following update hits the buffered bucket: no additional read.
        idx.update(line, ptr(0, 3), Cycle::ZERO, &mut d);
        assert_eq!(d.traffic().meta_lookup, lookup_bytes);
        assert_eq!(
            d.traffic().meta_update,
            update_bytes,
            "write-back is deferred"
        );
        assert_eq!(idx.stats().buffer_hits, 1);
        // Flush forces the dirty bucket out.
        idx.flush(Cycle::ZERO, &mut d);
        assert_eq!(d.traffic().meta_update, update_bytes + 64);
        assert_eq!(idx.stats().writebacks, 1);
    }

    #[test]
    fn evicting_dirty_buffered_bucket_writes_back() {
        let mut d = dram();
        // Buffer of one bucket so every new bucket evicts the previous one.
        let mut idx = HashIndexTable::new(1024, 12, 1);
        idx.update(LineAddr::new(1), ptr(0, 1), Cycle::ZERO, &mut d);
        let before = idx.stats().writebacks;
        // Touch a different bucket: the dirty one must be written back.
        let mut other = LineAddr::new(2);
        // Find a line that maps to a different bucket.
        while idx.bucket_of(other) == idx.bucket_of(LineAddr::new(1)) {
            other = LineAddr::new(other.raw() + 1);
        }
        idx.update(other, ptr(0, 2), Cycle::ZERO, &mut d);
        assert_eq!(idx.stats().writebacks, before + 1);
    }

    #[test]
    fn flush_twice_is_idempotent() {
        let mut d = dram();
        let mut idx = HashIndexTable::new(64, 12, 8);
        idx.update(LineAddr::new(1), ptr(0, 1), Cycle::ZERO, &mut d);
        idx.flush(Cycle::ZERO, &mut d);
        let wb = idx.stats().writebacks;
        idx.flush(Cycle::ZERO, &mut d);
        assert_eq!(idx.stats().writebacks, wb);
    }

    #[test]
    fn addresses_spread_over_buckets() {
        let idx = HashIndexTable::new(256, 12, 8);
        let mut used = std::collections::HashSet::new();
        for i in 0..1000u64 {
            used.insert(idx.bucket_of(LineAddr::new(i * 64 + 7)));
        }
        assert!(
            used.len() > 200,
            "hashing should spread addresses, got {} buckets",
            used.len()
        );
    }

    #[test]
    fn zero_buffer_capacity_still_works() {
        let mut d = dram();
        let mut idx = HashIndexTable::new(64, 4, 0);
        idx.update(LineAddr::new(3), ptr(0, 9), Cycle::ZERO, &mut d);
        let (found, _) = idx.lookup(LineAddr::new(3), Cycle::ZERO, &mut d);
        assert_eq!(found, Some(ptr(0, 9)));
    }

    #[test]
    #[should_panic]
    fn zero_buckets_panics() {
        let _ = HashIndexTable::new(0, 12, 8);
    }

    #[test]
    fn bucket_count_reported() {
        assert_eq!(HashIndexTable::new(77, 12, 8).bucket_count(), 77);
    }

    /// The index table as it was before the O(1) bucket buffer: the buffer
    /// a recency-ordered `Vec` scanned on every access (LRU at the front),
    /// buckets updated with `Vec::remove`/`insert`. Kept as the reference
    /// the fast table must match.
    struct ReferenceIndex {
        buckets: Vec<Vec<BucketEntry>>,
        entries_per_bucket: usize,
        buffer: Vec<(usize, bool)>,
        buffer_capacity: usize,
        stats: IndexStats,
    }

    impl ReferenceIndex {
        fn new(buckets: usize, entries_per_bucket: usize, buffer_capacity: usize) -> Self {
            ReferenceIndex {
                buckets: vec![Vec::new(); buckets],
                entries_per_bucket,
                buffer: Vec::new(),
                buffer_capacity,
                stats: IndexStats::default(),
            }
        }

        fn bucket_of(&self, line: LineAddr) -> usize {
            let mut h = line.raw().wrapping_add(0x9E37_79B9_7F4A_7C15);
            h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            h ^= h >> 31;
            (h % self.buckets.len() as u64) as usize
        }

        fn acquire_bucket(
            &mut self,
            bucket: usize,
            now: Cycle,
            dram: &mut DramModel,
            class: TrafficClass,
        ) -> Cycle {
            if let Some(pos) = self.buffer.iter().position(|&(b, _)| b == bucket) {
                let entry = self.buffer.remove(pos);
                self.buffer.push(entry);
                self.stats.buffer_hits += 1;
                return now;
            }
            let ready = dram.access(class, 64, now);
            if self.buffer.len() >= self.buffer_capacity && self.buffer_capacity > 0 {
                let (_, dirty) = self.buffer.remove(0);
                if dirty {
                    dram.access(TrafficClass::MetaUpdate, 64, now);
                    self.stats.writebacks += 1;
                }
            }
            if self.buffer_capacity > 0 {
                self.buffer.push((bucket, false));
            }
            ready
        }

        fn lookup(
            &mut self,
            line: LineAddr,
            now: Cycle,
            dram: &mut DramModel,
        ) -> (Option<HistoryPointer>, Cycle) {
            self.stats.lookups += 1;
            let bucket_idx = self.bucket_of(line);
            let ready = self.acquire_bucket(bucket_idx, now, dram, TrafficClass::MetaLookup);
            let entries = &mut self.buckets[bucket_idx];
            if let Some(pos) = entries.iter().position(|e| e.line == line) {
                let entry = entries.remove(pos);
                entries.insert(0, entry);
                self.stats.hits += 1;
                (Some(entry.pointer), ready)
            } else {
                (None, ready)
            }
        }

        fn update(
            &mut self,
            line: LineAddr,
            pointer: HistoryPointer,
            now: Cycle,
            dram: &mut DramModel,
        ) {
            self.stats.updates += 1;
            let bucket_idx = self.bucket_of(line);
            self.acquire_bucket(bucket_idx, now, dram, TrafficClass::MetaUpdate);
            if let Some(entry) = self.buffer.iter_mut().find(|(b, _)| *b == bucket_idx) {
                entry.1 = true;
            }
            let entries = &mut self.buckets[bucket_idx];
            if let Some(pos) = entries.iter().position(|e| e.line == line) {
                entries.remove(pos);
            }
            entries.insert(0, BucketEntry { line, pointer });
            entries.truncate(self.entries_per_bucket);
        }

        fn flush(&mut self, now: Cycle, dram: &mut DramModel) {
            for (_, dirty) in self.buffer.iter_mut() {
                if *dirty {
                    dram.access(TrafficClass::MetaUpdate, 64, now);
                    self.stats.writebacks += 1;
                    *dirty = false;
                }
            }
        }
    }

    /// The fast buffer's buckets from least to most recently used, with
    /// their dirty bits: the order eviction and `flush` walk.
    fn buffer_order(index: &HashIndexTable) -> Vec<(usize, bool)> {
        let mut order = Vec::new();
        let mut slot = index.buffer.oldest;
        while slot != NONE {
            let entry = index.buffer.slots[slot as usize];
            order.push((entry.bucket as usize, entry.dirty));
            slot = entry.newer;
        }
        order
    }

    #[test]
    fn constant_time_buffer_matches_linear_scan_reference() {
        use proptest::{Strategy, TestRng};
        let ops = proptest::collection::vec((0u8..10, 0u64..200, 0u64..50), 1..400);
        let mut rng =
            TestRng::deterministic("index::constant_time_buffer_matches_linear_scan_reference");
        let (mut writebacks, mut buffer_hits, mut full_buckets) = (0u64, 0u64, 0u64);
        for case in 0..40 {
            let ops = ops.sample_value(&mut rng);
            for (buckets, per_bucket, capacity) in [
                (1, 3, 2),
                (3, 2, 1),
                (77, 12, 5),
                (64, 4, 0),
                (16, 1, 128),
                (128, 12, 16),
            ] {
                let mut fast = HashIndexTable::new(buckets, per_bucket, capacity);
                let mut reference = ReferenceIndex::new(buckets, per_bucket, capacity);
                let (mut fast_dram, mut ref_dram) = (dram(), dram());
                let mut now = Cycle::ZERO;
                for &(op, line, position) in &ops {
                    now += 7;
                    let line = LineAddr::new(line);
                    match op {
                        0..=4 => assert_eq!(
                            fast.lookup(line, now, &mut fast_dram),
                            reference.lookup(line, now, &mut ref_dram),
                            "case {case}, geometry {buckets}/{per_bucket}/{capacity}"
                        ),
                        5..=8 => {
                            let pointer = ptr((position % 4) as u16, position);
                            fast.update(line, pointer, now, &mut fast_dram);
                            reference.update(line, pointer, now, &mut ref_dram);
                        }
                        _ => {
                            fast.flush(now, &mut fast_dram);
                            reference.flush(now, &mut ref_dram);
                        }
                    }
                    assert_eq!(fast.stats(), reference.stats);
                    assert_eq!(buffer_order(&fast), reference.buffer);
                }
                fast.flush(now, &mut fast_dram);
                reference.flush(now, &mut ref_dram);
                assert_eq!(fast.stats(), reference.stats);
                assert_eq!(fast_dram.traffic(), ref_dram.traffic());
                assert_eq!(fast_dram.access_count(), ref_dram.access_count());
                let contents: Vec<_> = fast.buckets.iter().map(|b| b.entries.clone()).collect();
                assert_eq!(contents, reference.buckets, "same entries in MRU order");
                writebacks += reference.stats.writebacks;
                buffer_hits += reference.stats.buffer_hits;
                full_buckets += reference
                    .buckets
                    .iter()
                    .filter(|b| b.len() == per_bucket)
                    .count() as u64;
            }
        }
        assert!(
            writebacks > 0 && buffer_hits > 0 && full_buckets > 0,
            "the op streams must reach write-backs, buffer hits and full buckets"
        );
    }
}
