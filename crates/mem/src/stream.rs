//! On-chip stream-following machinery: the per-core FIFO address queue and
//! the small fully-associative prefetch buffer (§4.2 of the paper).
//!
//! These structures are owned by the simulation engine and shared by every
//! prefetcher implementation; they correspond to the "stream engine",
//! "prefetch buffer" and "address queue" blocks of Figure 2.

use std::collections::VecDeque;
use stms_types::hashing::fibonacci_slot;
use stms_types::{Cycle, LineAddr};

/// Counters of a [`LineFilter`]: `1 << FILTER_BITS`.
const FILTER_BITS: u32 = 8;

/// An exact counting filter in front of a small multiset of lines: each
/// counter holds how many members hash to its slot. A zero counter proves a
/// line absent, so membership tests scan the members only on a slot hit
/// (about one in eight tests for a full 32-line prefetch buffer). Counters
/// never saturate, so the filter has no false negatives.
#[derive(Debug, Clone)]
struct LineFilter {
    counts: Box<[u32; 1 << FILTER_BITS]>,
}

impl LineFilter {
    fn new() -> Self {
        LineFilter {
            counts: Box::new([0; 1 << FILTER_BITS]),
        }
    }

    fn slot(line: LineAddr) -> usize {
        fibonacci_slot(line.raw(), FILTER_BITS)
    }

    fn add(&mut self, line: LineAddr) {
        self.counts[Self::slot(line)] += 1;
    }

    fn remove(&mut self, line: LineAddr) {
        self.counts[Self::slot(line)] -= 1;
    }

    /// False only if `line` is certainly not a member.
    fn may_contain(&self, line: LineAddr) -> bool {
        self.counts[Self::slot(line)] != 0
    }
}

impl Default for LineFilter {
    fn default() -> Self {
        LineFilter::new()
    }
}

/// One prefetched block held in the prefetch buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchedBlock {
    /// The prefetched line.
    pub line: LineAddr,
    /// Cycle at which the data arrives from memory.
    pub available_at: Cycle,
}

/// The small, fully-associative per-core prefetch buffer (2 KB = 32 lines in
/// the paper). Prefetched blocks are held here instead of polluting the
/// caches; demand accesses that match are "covered" misses.
///
/// Blocks are kept oldest first and the oldest is evicted when full. A
/// counting filter over the buffered lines answers most lookups (every
/// L1-miss read asks) without scanning the blocks.
///
/// # Example
///
/// ```
/// use stms_mem::PrefetchBuffer;
/// use stms_types::{Cycle, LineAddr};
///
/// let mut buf = PrefetchBuffer::new(2);
/// buf.insert(LineAddr::new(1), Cycle::new(100));
/// buf.insert(LineAddr::new(2), Cycle::new(120));
/// // Inserting a third block evicts the oldest unused one.
/// let evicted = buf.insert(LineAddr::new(3), Cycle::new(140)).unwrap();
/// assert_eq!(evicted.line, LineAddr::new(1));
/// assert!(buf.take(LineAddr::new(2)).is_some());
/// assert!(buf.take(LineAddr::new(2)).is_none(), "consumed");
/// ```
#[derive(Debug, Clone)]
pub struct PrefetchBuffer {
    capacity: usize,
    blocks: VecDeque<PrefetchedBlock>,
    /// Counts the lines of `blocks`.
    filter: LineFilter,
}

impl PrefetchBuffer {
    /// Creates a prefetch buffer holding up to `capacity` lines.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "prefetch buffer capacity must be non-zero");
        PrefetchBuffer {
            capacity,
            blocks: VecDeque::with_capacity(capacity),
            filter: LineFilter::new(),
        }
    }

    /// Number of blocks currently buffered.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the buffer holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Index of `line`'s block, if buffered.
    fn position(&self, line: LineAddr) -> Option<usize> {
        if !self.filter.may_contain(line) {
            return None;
        }
        self.blocks.iter().position(|b| b.line == line)
    }

    /// Whether `line` is buffered (without consuming it).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.position(line).is_some()
    }

    /// Inserts a prefetched block, evicting the oldest block if full. The
    /// evicted block (which was never used) is returned so the caller can
    /// account for it as an erroneous prefetch. Re-inserting an already
    /// buffered line refreshes its availability and evicts nothing.
    pub fn insert(&mut self, line: LineAddr, available_at: Cycle) -> Option<PrefetchedBlock> {
        if let Some(idx) = self.position(line) {
            let existing = &mut self.blocks[idx];
            existing.available_at = existing.available_at.min(available_at);
            return None;
        }
        let evicted = if self.blocks.len() >= self.capacity {
            self.blocks.pop_front()
        } else {
            None
        };
        if let Some(evicted) = evicted {
            self.filter.remove(evicted.line);
        }
        self.blocks
            .push_back(PrefetchedBlock { line, available_at });
        self.filter.add(line);
        evicted
    }

    /// Consumes `line` if buffered, returning the block. This models a demand
    /// access being satisfied from the prefetch buffer.
    pub fn take(&mut self, line: LineAddr) -> Option<PrefetchedBlock> {
        let idx = self.position(line)?;
        self.filter.remove(line);
        self.blocks.remove(idx)
    }

    /// Removes and returns every buffered block (end-of-simulation
    /// accounting of never-used prefetches).
    pub fn drain(&mut self) -> Vec<PrefetchedBlock> {
        self.filter = LineFilter::new();
        self.blocks.drain(..).collect()
    }
}

/// The per-core stream state: the FIFO queue of predicted addresses not yet
/// prefetched, plus the stream's availability time. A counting filter over
/// the queued lines answers most [`StreamState::contains`] tests (every
/// uncovered read miss asks) without scanning the queue.
#[derive(Debug, Clone, Default)]
pub struct StreamState {
    queue: VecDeque<LineAddr>,
    /// Counts the lines of `queue`.
    filter: LineFilter,
    ready_at: Cycle,
    active: bool,
    exhausted: bool,
}

impl StreamState {
    /// Creates an inactive stream.
    pub fn new() -> Self {
        StreamState::default()
    }

    /// Whether a stream is currently being followed.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Whether the predictor has said it has no more addresses for this
    /// stream.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Cycle at which queued addresses are available for prefetching.
    pub fn ready_at(&self) -> Cycle {
        self.ready_at
    }

    /// Number of queued (not yet prefetched) addresses.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Empties the queue.
    fn clear(&mut self) {
        for &line in &self.queue {
            self.filter.remove(line);
        }
        self.queue.clear();
    }

    /// Begins a new stream, discarding any previous one.
    pub fn start(&mut self, addresses: Vec<LineAddr>, ready_at: Cycle) {
        self.clear();
        for &line in &addresses {
            self.filter.add(line);
        }
        self.queue = addresses.into();
        self.ready_at = ready_at;
        self.active = true;
        self.exhausted = false;
    }

    /// Appends more addresses supplied by the predictor.
    pub fn extend(&mut self, addresses: Vec<LineAddr>, ready_at: Cycle) {
        if addresses.is_empty() {
            self.exhausted = true;
            return;
        }
        self.ready_at = self.ready_at.max(ready_at);
        for &line in &addresses {
            self.filter.add(line);
        }
        self.queue.extend(addresses);
    }

    /// Stops following the current stream.
    pub fn squash(&mut self) {
        self.clear();
        self.active = false;
        self.exhausted = false;
    }

    /// Whether `line` is waiting in the queue.
    pub fn contains(&self, line: LineAddr) -> bool {
        self.filter.may_contain(line) && self.queue.contains(&line)
    }

    /// Pops the next address to prefetch.
    pub fn pop(&mut self) -> Option<LineAddr> {
        let line = self.queue.pop_front()?;
        self.filter.remove(line);
        Some(line)
    }

    /// Drops queue entries up to and including `line` (used when a demand
    /// miss overtakes the stream: earlier entries are behind the demand
    /// point and no longer worth prefetching). Returns how many entries were
    /// dropped, including the matching one.
    pub fn drop_through(&mut self, line: LineAddr) -> usize {
        if !self.filter.may_contain(line) {
            return 0;
        }
        let Some(pos) = self.queue.iter().position(|&l| l == line) else {
            return 0;
        };
        let dropped = pos + 1;
        for dropped_line in self.queue.drain(..dropped) {
            self.filter.remove(dropped_line);
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefetch_buffer_insert_take() {
        let mut b = PrefetchBuffer::new(4);
        assert!(b.is_empty());
        assert!(b.insert(LineAddr::new(1), Cycle::new(10)).is_none());
        assert!(b.contains(LineAddr::new(1)));
        assert_eq!(b.len(), 1);
        let blk = b.take(LineAddr::new(1)).unwrap();
        assert_eq!(blk.available_at, Cycle::new(10));
        assert!(b.take(LineAddr::new(1)).is_none());
    }

    #[test]
    fn prefetch_buffer_fifo_eviction() {
        let mut b = PrefetchBuffer::new(2);
        b.insert(LineAddr::new(1), Cycle::new(1));
        b.insert(LineAddr::new(2), Cycle::new(2));
        let ev = b.insert(LineAddr::new(3), Cycle::new(3)).unwrap();
        assert_eq!(ev.line, LineAddr::new(1));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn prefetch_buffer_reinsert_keeps_earliest_availability() {
        let mut b = PrefetchBuffer::new(2);
        b.insert(LineAddr::new(1), Cycle::new(100));
        assert!(b.insert(LineAddr::new(1), Cycle::new(50)).is_none());
        assert_eq!(
            b.take(LineAddr::new(1)).unwrap().available_at,
            Cycle::new(50)
        );
    }

    #[test]
    fn prefetch_buffer_drain_returns_unused() {
        let mut b = PrefetchBuffer::new(4);
        b.insert(LineAddr::new(1), Cycle::new(1));
        b.insert(LineAddr::new(2), Cycle::new(2));
        let drained = b.drain();
        assert_eq!(drained.len(), 2);
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn prefetch_buffer_zero_capacity_panics() {
        let _ = PrefetchBuffer::new(0);
    }

    #[test]
    fn stream_state_lifecycle() {
        let mut s = StreamState::new();
        assert!(!s.is_active());
        s.start(vec![LineAddr::new(1), LineAddr::new(2)], Cycle::new(500));
        assert!(s.is_active());
        assert_eq!(s.ready_at(), Cycle::new(500));
        assert_eq!(s.queued(), 2);
        assert!(s.contains(LineAddr::new(2)));
        assert_eq!(s.pop(), Some(LineAddr::new(1)));
        s.squash();
        assert!(!s.is_active());
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn stream_extend_and_exhaustion() {
        let mut s = StreamState::new();
        s.start(vec![LineAddr::new(1)], Cycle::new(10));
        s.extend(vec![LineAddr::new(2)], Cycle::new(20));
        assert_eq!(s.queued(), 2);
        assert_eq!(s.ready_at(), Cycle::new(20));
        assert!(!s.is_exhausted());
        s.extend(Vec::new(), Cycle::new(30));
        assert!(s.is_exhausted());
    }

    #[test]
    fn stream_drop_through() {
        let mut s = StreamState::new();
        s.start(
            vec![
                LineAddr::new(1),
                LineAddr::new(2),
                LineAddr::new(3),
                LineAddr::new(4),
            ],
            Cycle::ZERO,
        );
        assert_eq!(s.drop_through(LineAddr::new(3)), 3);
        assert_eq!(s.queued(), 1);
        assert!(s.contains(LineAddr::new(4)));
        assert_eq!(s.drop_through(LineAddr::new(99)), 0);
    }

    /// The prefetch buffer as it was before the filter: every lookup scans
    /// the FIFO. Kept as the reference the filtered buffer must match.
    struct ScanBuffer {
        capacity: usize,
        blocks: VecDeque<PrefetchedBlock>,
    }

    impl ScanBuffer {
        fn insert(&mut self, line: LineAddr, available_at: Cycle) -> Option<PrefetchedBlock> {
            if let Some(existing) = self.blocks.iter_mut().find(|b| b.line == line) {
                existing.available_at = existing.available_at.min(available_at);
                return None;
            }
            let evicted = if self.blocks.len() >= self.capacity {
                self.blocks.pop_front()
            } else {
                None
            };
            self.blocks
                .push_back(PrefetchedBlock { line, available_at });
            evicted
        }

        fn take(&mut self, line: LineAddr) -> Option<PrefetchedBlock> {
            let idx = self.blocks.iter().position(|b| b.line == line)?;
            self.blocks.remove(idx)
        }
    }

    /// Lines drawn from a small range, so re-inserts, hits and filter-slot
    /// collisions (256 slots) all happen.
    fn op_streams() -> impl proptest::Strategy<Value = Vec<(u8, u64, u64)>> {
        proptest::collection::vec((0u8..10, 0u64..600, 0u64..1000), 1..600)
    }

    #[test]
    fn filtered_buffer_matches_scanning_reference() {
        use proptest::{Strategy, TestRng};
        let mut rng = TestRng::deterministic("stream::filtered_buffer_matches_scanning_reference");
        let (mut evictions, mut reinserts, mut hits) = (0u64, 0u64, 0u64);
        for _ in 0..40 {
            let ops = op_streams().sample_value(&mut rng);
            for capacity in [1, 2, 32, 300] {
                let mut fast = PrefetchBuffer::new(capacity);
                let mut reference = ScanBuffer {
                    capacity,
                    blocks: VecDeque::new(),
                };
                for &(op, line, at) in &ops {
                    let line = LineAddr::new(line);
                    match op {
                        0..=4 => {
                            reinserts += u64::from(reference.blocks.iter().any(|b| b.line == line));
                            let evicted = reference.insert(line, Cycle::new(at));
                            evictions += u64::from(evicted.is_some());
                            assert_eq!(fast.insert(line, Cycle::new(at)), evicted);
                        }
                        5..=7 => {
                            let taken = reference.take(line);
                            hits += u64::from(taken.is_some());
                            assert_eq!(fast.take(line), taken);
                        }
                        _ => assert_eq!(
                            fast.contains(line),
                            reference.blocks.iter().any(|b| b.line == line)
                        ),
                    }
                    assert_eq!(fast.len(), reference.blocks.len());
                }
                let drained = fast.drain();
                assert_eq!(drained, Vec::from(reference.blocks), "oldest first");
                assert!(fast.is_empty());
                assert!(
                    drained.iter().all(|b| !fast.contains(b.line)),
                    "filter reset"
                );
            }
        }
        assert!(evictions > 0 && reinserts > 0 && hits > 0);
    }

    #[test]
    fn filtered_stream_queue_matches_scanning_reference() {
        use proptest::{Strategy, TestRng};
        let mut rng =
            TestRng::deterministic("stream::filtered_stream_queue_matches_scanning_reference");
        let (mut drops, mut found) = (0u64, 0u64);
        for _ in 0..40 {
            let ops = op_streams().sample_value(&mut rng);
            let mut fast = StreamState::new();
            let mut reference: VecDeque<LineAddr> = VecDeque::new();
            for &(op, line, len) in &ops {
                let line = LineAddr::new(line);
                let chunk: Vec<_> = (0..len % 40)
                    .map(|i| LineAddr::new((line.raw() + i * 7) % 600))
                    .collect();
                match op {
                    0 => {
                        fast.start(chunk.clone(), Cycle::ZERO);
                        reference = chunk.into();
                    }
                    1 | 2 => {
                        fast.extend(chunk.clone(), Cycle::ZERO);
                        reference.extend(chunk);
                    }
                    3 => {
                        fast.squash();
                        reference.clear();
                    }
                    4 | 5 => assert_eq!(fast.pop(), reference.pop_front()),
                    6 | 7 => {
                        let expected = match reference.iter().position(|&l| l == line) {
                            Some(pos) => {
                                reference.drain(..=pos);
                                pos + 1
                            }
                            None => 0,
                        };
                        drops += u64::from(expected > 0);
                        assert_eq!(fast.drop_through(line), expected);
                    }
                    _ => {
                        let expected = reference.contains(&line);
                        found += u64::from(expected);
                        assert_eq!(fast.contains(line), expected);
                    }
                }
                assert_eq!(fast.queued(), reference.len());
            }
        }
        assert!(drops > 0 && found > 0);
    }
}
