//! The functional half of a replay: the cache hierarchy's outcomes,
//! recorded once per trace and replayed by any number of timing runs.
//!
//! The per-core L1s, the shared L2 and the base system's
//! [`StridePrefetcher`] evolve the same way whichever temporal prefetcher
//! is attached: a prefetch-buffer hit installs exactly the line an L2 hit
//! or a demand miss would install, the stream engine only *probes* the
//! caches, and no prefetcher hook touches them. `Hierarchy` applies one
//! access to those structures and appends its *outcome* — which level
//! served it, which lines the stride prefetcher filled, which physical way
//! every inserted line went into, and which insertions displaced a dirty
//! line — to a byte stream. The outcome carries no timing.
//!
//! The timing half ([`crate::CmpSimulator`]) reads the outcomes back
//! through `OnChip`, which mirrors the hierarchy's contents as one line
//! number per physical way (no tags, LRU state or stride table) so the
//! stream engine can still ask "is this line already on chip?".
//!
//! # Encoding
//!
//! Per access, in trace order:
//!
//! * a flag byte: the level in bits 0–1 (`L1_HIT`, `L2_HIT`,
//!   `L2_MISS`), `ABSORB` in bit 2, and the number of stride fills in
//!   bits 3–7 (`31` means the count follows as a varint);
//! * per stride fill: the filled line as a zigzag varint delta from the
//!   accessed line, then its L2 way as a varint `way << 1 | dirty victim`;
//! * on an L2 miss: the demand line's L2 way, the same way;
//! * unless the L1 hit: the demand line's L1 way as a varint;
//! * with `ABSORB`: the L2 way that took the dirty L1 victim. The victim
//!   itself is not stored — it is the old contents of the L1 way the
//!   demand line overwrote.
//!
//! Every varint is one byte for ways below 64 and strides below 64 lines,
//! so the paper traces record at 3–5 bytes per access.

use crate::cache::{Insertion, SetAssocCache};
use crate::config::{CacheConfig, SystemConfig};
use crate::stride::StridePrefetcher;
use stms_types::{AccessKind, Fingerprint, Fingerprintable, LineAddr, MemAccess, Trace};

/// Level bits of a flag byte: the L1 served the access.
const L1_HIT: u8 = 0;
/// Level bits of a flag byte: the L2 held the line.
const L2_HIT: u8 = 1;
/// Level bits of a flag byte: the line came from memory (or from a
/// prefetch buffer, which the timing half decides).
const L2_MISS: u8 = 2;
const LEVEL_MASK: u8 = 0b11;
/// Flag bit: the demand line's L1 victim was dirty and was written into
/// the L2.
const ABSORB: u8 = 1 << 2;
const FILLS_SHIFT: u32 = 3;
/// A fill count this large (or larger) follows the flag byte as a varint.
const FILLS_ESCAPE: u8 = 31;

/// The cache hierarchy of a [`SystemConfig`]: per-core L1s, the shared L2
/// and the stride prefetcher, with no timing.
#[derive(Debug)]
pub(crate) struct Hierarchy {
    l1: Vec<SetAssocCache>,
    l2: SetAssocCache,
    stride: StridePrefetcher,
    /// Stride fills of the access being recorded (reused).
    fills: Vec<(LineAddr, Insertion)>,
}

impl Hierarchy {
    pub(crate) fn new(cfg: &SystemConfig) -> Self {
        Hierarchy {
            l1: (0..cfg.cores).map(|_| SetAssocCache::new(cfg.l1)).collect(),
            l2: SetAssocCache::new(cfg.l2),
            stride: StridePrefetcher::new(cfg.stride),
            fills: Vec::with_capacity(cfg.stride.degree),
        }
    }

    /// Applies each access in turn and appends its outcome to `out`.
    pub(crate) fn record(&mut self, accesses: &[MemAccess], out: &mut Vec<u8>) {
        for access in accesses {
            self.apply(access, out);
        }
    }

    fn apply(&mut self, a: &MemAccess, out: &mut Vec<u8>) {
        let core = a.core.index();
        assert!(
            core < self.l1.len(),
            "trace references core {core} beyond configured {}",
            self.l1.len()
        );
        let is_write = a.kind == AccessKind::Write;
        if self.l1[core].access(a.line, is_write).is_hit() {
            out.push(L1_HIT);
            return;
        }

        // The stride prefetcher observes every L1 miss; its fills go
        // straight into the shared L2.
        self.fills.clear();
        for predicted in self.stride.train(a.core, a.line) {
            if !self.l2.probe(predicted) {
                self.fills
                    .push((predicted, self.l2.insert(predicted, false)));
            }
        }

        // A hit refreshes the line's recency; a miss installs it clean.
        let demand = if self.l2.access(a.line, false).is_hit() {
            None
        } else {
            Some(self.l2.insert(a.line, false))
        };
        let l1 = self.l1[core].insert(a.line, is_write);
        // A dirty L1 victim is absorbed by the L2 (whose own eviction, if
        // any, is dropped: see "Known model gaps" in docs/ARCHITECTURE.md).
        let absorbed = l1
            .evicted
            .filter(|victim| victim.dirty)
            .map(|victim| self.l2.insert(victim.line, true));

        let level = if demand.is_some() { L2_MISS } else { L2_HIT };
        let absorb = if absorbed.is_some() { ABSORB } else { 0 };
        let fills = self.fills.len();
        let inline = fills.min(usize::from(FILLS_ESCAPE)) as u8;
        out.push(level | absorb | inline << FILLS_SHIFT);
        if inline == FILLS_ESCAPE {
            put_varint(out, (fills - usize::from(FILLS_ESCAPE)) as u64);
        }
        for (line, insertion) in &self.fills {
            put_varint(out, zigzag(line.delta_from(a.line)));
            put_way(out, insertion);
        }
        if let Some(insertion) = &demand {
            put_way(out, insertion);
        }
        put_varint(out, l1.way as u64);
        if let Some(insertion) = absorbed {
            put_varint(out, insertion.way as u64);
        }
    }
}

/// A way and whether the insertion displaced a dirty line.
fn put_way(out: &mut Vec<u8>, insertion: &Insertion) {
    let dirty = insertion.evicted.is_some_and(|victim| victim.dirty);
    put_varint(out, (insertion.way as u64) << 1 | u64::from(dirty));
}

fn put_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

fn unzigzag(value: u64) -> i64 {
    (value >> 1) as i64 ^ -((value & 1) as i64)
}

/// The hierarchy outcomes of a whole trace under one system model, shared
/// by every timing replay of that trace ([`crate::CmpSimulator::run_recorded`]).
///
/// # Example
///
/// ```
/// use stms_mem::{CmpSimulator, NullPrefetcher, Recording, SimOptions, SystemConfig};
/// use stms_types::{CoreId, LineAddr, MemAccess, Trace, TraceMeta};
///
/// let mut trace = Trace::new(TraceMeta { workload: "demo".into(), cores: 1, ..Default::default() });
/// for i in 0..1000u64 {
///     trace.push(MemAccess::read(CoreId::new(0), LineAddr::new(i % 300 * 7)).with_gap(2));
/// }
/// let cfg = SystemConfig::tiny_for_tests();
/// let recording = Recording::record(&cfg, &trace);
/// assert!(recording.bytes_per_access() < 8.0);
/// let shared = CmpSimulator::new(&cfg, SimOptions::default())
///     .run_recorded(&trace, &recording, &mut NullPrefetcher::new());
/// let chunked = CmpSimulator::new(&cfg, SimOptions::default())
///     .run(&trace, &mut NullPrefetcher::new());
/// assert_eq!(shared, chunked);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recording {
    system: Fingerprint,
    accesses: u64,
    bytes: Vec<u8>,
}

impl Recording {
    /// Runs `trace` through the cache hierarchy of `cfg` once.
    ///
    /// # Panics
    ///
    /// Panics if the trace references a core `cfg` does not have.
    pub fn record(cfg: &SystemConfig, trace: &Trace) -> Self {
        let mut bytes = Vec::with_capacity(trace.len() * 3);
        Hierarchy::new(cfg).record(trace.accesses(), &mut bytes);
        bytes.shrink_to_fit();
        Recording {
            system: cfg.fingerprint(),
            accesses: trace.len() as u64,
            bytes,
        }
    }

    /// Fingerprint of the [`SystemConfig`] the recording was made under.
    pub fn system(&self) -> Fingerprint {
        self.system
    }

    /// Accesses recorded.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Size of the encoded outcomes.
    pub fn len_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Encoded bytes per recorded access (0 for an empty trace).
    pub fn bytes_per_access(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.bytes.len() as f64 / self.accesses as f64
        }
    }

    /// The outcomes, after checking that they belong to a trace of
    /// `accesses` accesses under `cfg`.
    pub(crate) fn outcomes(&self, cfg: &SystemConfig, accesses: usize) -> Outcomes<'_> {
        assert_eq!(
            self.system,
            cfg.fingerprint(),
            "recording was made under a different system model"
        );
        assert_eq!(
            self.accesses, accesses as u64,
            "recording covers {} accesses, the trace has {accesses}",
            self.accesses
        );
        Outcomes::new(&self.bytes)
    }
}

/// A cursor over encoded outcomes.
#[derive(Debug)]
pub(crate) struct Outcomes<'a> {
    bytes: &'a [u8],
}

impl<'a> Outcomes<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Outcomes { bytes }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    #[inline]
    fn byte(&mut self) -> u8 {
        let (&byte, rest) = self
            .bytes
            .split_first()
            .expect("recording ended before the trace");
        self.bytes = rest;
        byte
    }

    #[inline]
    fn varint(&mut self) -> u64 {
        let first = self.byte();
        if first < 0x80 {
            return u64::from(first);
        }
        self.varint_tail(first)
    }

    /// Reads the head of the next access's outcome.
    #[inline]
    pub(crate) fn head(&mut self) -> Outcome {
        let flags = self.byte();
        let level = match flags & LEVEL_MASK {
            L1_HIT => Level::L1Hit,
            L2_HIT => Level::L2Hit,
            L2_MISS => Level::L2Miss,
            other => panic!("corrupt recording: level {other}"),
        };
        let mut stride_fills = usize::from(flags >> FILLS_SHIFT);
        if stride_fills == usize::from(FILLS_ESCAPE) {
            stride_fills += self.varint() as usize;
        }
        Outcome {
            level,
            stride_fills,
            absorb: flags & ABSORB != 0,
        }
    }

    #[cold]
    fn varint_tail(&mut self, first: u8) -> u64 {
        let mut value = u64::from(first & 0x7f);
        let mut shift = 7;
        loop {
            let byte = self.byte();
            value |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return value;
            }
            shift += 7;
        }
    }
}

/// Which level served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Level {
    L1Hit,
    L2Hit,
    L2Miss,
}

/// The head of one access's outcome (its flag byte).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Outcome {
    pub(crate) level: Level,
    pub(crate) stride_fills: usize,
    absorb: bool,
}

/// One cache's contents as a line number per physical way.
#[derive(Debug)]
struct Ways {
    /// Set `s` is `lines[s * assoc..(s + 1) * assoc]`; a free way holds
    /// [`Ways::FREE`] (line numbers are byte addresses shifted right, so
    /// none is `u64::MAX`).
    lines: Vec<u64>,
    set_mask: u64,
    assoc: usize,
}

impl Ways {
    const FREE: u64 = u64::MAX;

    fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Ways {
            lines: vec![Self::FREE; sets * cfg.associativity],
            set_mask: sets as u64 - 1,
            assoc: cfg.associativity,
        }
    }

    #[inline]
    fn set_start(&self, line: LineAddr) -> usize {
        (line.raw() & self.set_mask) as usize * self.assoc
    }

    #[inline]
    fn contains(&self, line: LineAddr) -> bool {
        let start = self.set_start(line);
        self.lines[start..start + self.assoc].contains(&line.raw())
    }

    /// Puts `line` in `way` of its set, returning the previous contents.
    #[inline]
    fn put(&mut self, line: LineAddr, way: u64) -> LineAddr {
        let slot = self.set_start(line) + way as usize;
        LineAddr::new(std::mem::replace(&mut self.lines[slot], line.raw()))
    }
}

/// The timing half's view of what is on chip, kept current from recorded
/// outcomes: which line each physical L1 and L2 way holds.
#[derive(Debug)]
pub(crate) struct OnChip {
    l1: Vec<Ways>,
    l2: Ways,
}

impl OnChip {
    pub(crate) fn new(cfg: &SystemConfig) -> Self {
        OnChip {
            l1: (0..cfg.cores).map(|_| Ways::new(cfg.l1)).collect(),
            l2: Ways::new(cfg.l2),
        }
    }

    /// Whether `core`'s L1 or the L2 holds `line`.
    #[inline]
    pub(crate) fn contains(&self, core: usize, line: LineAddr) -> bool {
        self.l1[core].contains(line) || self.l2.contains(line)
    }

    /// Applies the next stride fill of an access to `line`; returns whether
    /// it displaced a dirty L2 line.
    #[inline]
    pub(crate) fn stride_fill(&mut self, outcomes: &mut Outcomes<'_>, line: LineAddr) -> bool {
        let filled = line.offset(unzigzag(outcomes.varint()));
        let way = outcomes.varint();
        self.l2.put(filled, way >> 1);
        way & 1 != 0
    }

    /// Applies the demand insertions of an access that missed the L1 (the
    /// L2 on an L2 miss, the L1, and any absorbed L1 victim); returns
    /// whether the L2 insertion displaced a dirty line.
    #[inline]
    pub(crate) fn demand_fill(
        &mut self,
        outcomes: &mut Outcomes<'_>,
        outcome: Outcome,
        core: usize,
        line: LineAddr,
    ) -> bool {
        let mut writeback = false;
        if outcome.level == Level::L2Miss {
            let way = outcomes.varint();
            self.l2.put(line, way >> 1);
            writeback = way & 1 != 0;
        }
        let victim = self.l1[core].put(line, outcomes.varint());
        if outcome.absorb {
            self.l2.put(victim, outcomes.varint());
        }
        writeback
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stms_types::{CoreId, TraceMeta};

    #[test]
    fn varints_and_zigzag_round_trip() {
        for value in [0u64, 1, 63, 64, 127, 128, 300, u64::MAX >> 1, u64::MAX] {
            let mut out = Vec::new();
            put_varint(&mut out, value);
            assert_eq!(out.len() == 1, value < 0x80, "{value}");
            let mut reader = Outcomes::new(&out);
            assert_eq!(reader.varint(), value);
            assert!(reader.is_empty());
        }
        for delta in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(delta)), delta);
        }
        assert!(zigzag(-64) < 0x80 && zigzag(63) < 0x80);
    }

    /// Replays recorded outcomes into an [`OnChip`] and checks, after every
    /// access, that it agrees with the real caches on every line touched.
    #[test]
    fn on_chip_membership_tracks_the_caches() {
        let mut cfg = SystemConfig::tiny_for_tests();
        cfg.stride.degree = 40; // exercises the escaped fill count
        let mut trace = Trace::new(TraceMeta {
            workload: "t".into(),
            cores: 2,
            ..Default::default()
        });
        let mut x = 7u64;
        for i in 0..6_000u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let core = CoreId::new((i % 2) as u16);
            // Alternate unit-stride scans (stride fills) with random lines
            // (conflict misses), a fifth of them writes (dirty victims).
            let line = if (i / 200) % 2 == 0 {
                LineAddr::new(50_000 + i)
            } else {
                LineAddr::new((x >> 33) % 4_000)
            };
            let access = if x.is_multiple_of(5) {
                MemAccess::write(core, line)
            } else {
                MemAccess::read(core, line)
            };
            trace.push(access);
        }

        let mut hierarchy = Hierarchy::new(&cfg);
        let mut on_chip = OnChip::new(&cfg);
        let (mut fills, mut absorbs, mut escaped) = (0, 0, 0);
        for access in trace.iter() {
            let mut bytes = Vec::new();
            hierarchy.record(std::slice::from_ref(access), &mut bytes);
            let mut outcomes = Outcomes::new(&bytes);
            let outcome = outcomes.head();
            let core = access.core.index();
            if outcome.level != Level::L1Hit {
                fills += outcome.stride_fills;
                escaped += usize::from(outcome.stride_fills >= usize::from(FILLS_ESCAPE));
                absorbs += usize::from(outcome.absorb);
                for _ in 0..outcome.stride_fills {
                    on_chip.stride_fill(&mut outcomes, access.line);
                }
                on_chip.demand_fill(&mut outcomes, outcome, core, access.line);
            }
            assert!(outcomes.is_empty(), "every byte of the outcome is read");
            for probe in (0..4_000).chain(50_000..56_100).step_by(13) {
                let line = LineAddr::new(probe);
                assert_eq!(
                    on_chip.contains(core, line),
                    hierarchy.l1[core].probe(line) || hierarchy.l2.probe(line),
                    "{line} after {access:?}"
                );
            }
        }
        assert!(
            fills > 0 && absorbs > 0 && escaped > 0,
            "{fills} {absorbs} {escaped}"
        );
    }

    #[test]
    #[should_panic(expected = "different system model")]
    fn replay_under_another_system_panics() {
        let cfg = SystemConfig::tiny_for_tests();
        let trace = Trace::new(TraceMeta::default());
        let recording = Recording::record(&cfg, &trace);
        let _ = recording.outcomes(&SystemConfig::hpca09_baseline(), 0);
    }

    #[test]
    #[should_panic(expected = "the trace has 3")]
    fn replay_of_another_length_panics() {
        let cfg = SystemConfig::tiny_for_tests();
        let recording = Recording::record(&cfg, &Trace::new(TraceMeta::default()));
        let _ = recording.outcomes(&cfg, 3);
    }
}
