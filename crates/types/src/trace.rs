//! Trace containers and a compact binary trace encoding.
//!
//! The workload generators produce [`Trace`] values; the simulator replays
//! them. Traces are never persisted by the campaign: generators are
//! deterministic, so a trace is regenerated (or streamed, see
//! [`crate::stream`]) whenever it is needed. A trace can still be
//! serialized with serde (any format) or with the compact fixed-width
//! binary encoding provided by [`Trace::encode`] / [`Trace::decode`].

use crate::{AccessKind, CoreId, LineAddr, MemAccess};
use bytes::{Buf, Bytes};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A cheaply-cloneable, immutable handle to a generated trace.
///
/// Traces are large (tens of bytes per access); campaign-style experiment
/// drivers generate each workload trace once and replay it from many worker
/// threads concurrently. `SharedTrace` is the currency of that sharing:
/// cloning is one atomic increment, and the underlying [`Trace`] is immutable
/// for the lifetime of the handle.
pub type SharedTrace = Arc<Trace>;

/// Metadata describing how a trace was produced.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TraceMeta {
    /// Human-readable workload name (e.g. `"OLTP Oracle"`).
    pub workload: String,
    /// Number of cores whose accesses are interleaved in the trace.
    pub cores: usize,
    /// Seed of the generator that produced the trace.
    pub seed: u64,
    /// Approximate number of distinct cache lines touched (data footprint).
    pub footprint_lines: u64,
}

/// A sequence of memory accesses from all cores, in program-interleaved
/// order, together with its metadata.
///
/// # Example
///
/// ```
/// use stms_types::{CoreId, LineAddr, MemAccess, Trace, TraceMeta};
/// let mut trace = Trace::new(TraceMeta { workload: "demo".into(), cores: 1, ..Default::default() });
/// trace.push(MemAccess::read(CoreId::new(0), LineAddr::new(1)));
/// trace.push(MemAccess::read(CoreId::new(0), LineAddr::new(2)));
/// assert_eq!(trace.len(), 2);
/// let bytes = trace.encode();
/// let back = Trace::decode(&bytes).unwrap();
/// assert_eq!(back, trace);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Trace {
    meta: TraceMeta,
    accesses: Vec<MemAccess>,
}

/// Error returned when decoding a binary trace fails.
///
/// Marked `#[non_exhaustive]` so the codecs can grow new failure modes (e.g.
/// a future field with its own validity rule) without a breaking change.
/// Callers should treat *any* variant as "this buffer is not a usable
/// trace":
///
/// ```
/// use stms_types::trace::{DecodeTraceError, Trace};
///
/// match Trace::decode(&[0u8; 3]) {
///     Err(DecodeTraceError::Truncated { what }) => assert_eq!(what, "missing magic"),
///     // A wildcard arm is required: the enum is #[non_exhaustive].
///     other => panic!("a three-byte buffer cannot decode: {other:?}"),
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeTraceError {
    /// The buffer ended before the named field was complete.
    Truncated {
        /// Which encoded field was cut off.
        what: &'static str,
    },
    /// The buffer does not start with the `STMS` trace magic.
    BadMagic,
    /// The workload name bytes were not valid UTF-8.
    InvalidName,
    /// An access record carried an access-kind tag the decoder does not
    /// know.
    InvalidAccessKind {
        /// The unknown tag value.
        tag: u8,
    },
    /// A chunk frame of the chunk-framed codec ([`crate::stream`]) declares
    /// an access count inconsistent with the trace header (every frame must
    /// carry exactly `chunk_len` accesses except the last).
    BadChunkFraming {
        /// 0-based index of the inconsistent chunk.
        chunk: u64,
    },
    /// A chunk's record bytes do not match the checksum recorded in its
    /// frame (chunk-framed codec only).
    ChunkChecksumMismatch {
        /// 0-based index of the corrupt chunk.
        chunk: u64,
    },
}

impl fmt::Display for DecodeTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeTraceError::Truncated { what } => {
                write!(f, "malformed binary trace: truncated at {what}")
            }
            DecodeTraceError::BadMagic => write!(f, "malformed binary trace: bad magic"),
            DecodeTraceError::InvalidName => {
                write!(f, "malformed binary trace: workload name not utf-8")
            }
            DecodeTraceError::InvalidAccessKind { tag } => {
                write!(f, "malformed binary trace: invalid access kind {tag}")
            }
            DecodeTraceError::BadChunkFraming { chunk } => {
                write!(
                    f,
                    "malformed binary trace: inconsistent framing of chunk {chunk}"
                )
            }
            DecodeTraceError::ChunkChecksumMismatch { chunk } => {
                write!(
                    f,
                    "malformed binary trace: checksum mismatch in chunk {chunk}"
                )
            }
        }
    }
}

impl std::error::Error for DecodeTraceError {}

const TRACE_MAGIC: u32 = 0x53_54_4d_53; // "STMS"

/// Size in bytes of one encoded access record (row layout: core, line,
/// flags, gap). Shared by the whole-trace codec below and the chunk-framed
/// codec in [`crate::stream`], which is what keeps the two encodings
/// byte-for-byte identical at the record level.
pub const ACCESS_RECORD_BYTES: usize = 2 + 8 + 1 + 4;

/// The canonical flag byte of an access: the kind tag in the low bits, the
/// dependence marker in the top bit.
fn access_flags(a: &MemAccess) -> u8 {
    let kind = match a.kind {
        AccessKind::Read => 0u8,
        AccessKind::Write => 1,
        AccessKind::InstrFetch => 2,
    };
    kind | if a.dependent { 0x80 } else { 0 }
}

/// Decodes a flag byte back into its kind and dependence marker.
fn parse_flags(flags: u8) -> Result<(AccessKind, bool), DecodeTraceError> {
    let kind = match flags & 0x7f {
        0 => AccessKind::Read,
        1 => AccessKind::Write,
        2 => AccessKind::InstrFetch,
        tag => return Err(DecodeTraceError::InvalidAccessKind { tag }),
    };
    Ok((kind, flags & 0x80 != 0))
}

/// Appends the canonical big-endian encoding of one access record.
pub(crate) fn put_access(out: &mut Vec<u8>, a: &MemAccess) {
    out.extend_from_slice(&(a.core.index() as u16).to_be_bytes());
    out.extend_from_slice(&a.line.raw().to_be_bytes());
    out.push(access_flags(a));
    out.extend_from_slice(&a.compute_gap.to_be_bytes());
}

/// Parses one access record from the front of `data`, advancing it.
pub(crate) fn parse_access(data: &mut &[u8]) -> Result<MemAccess, DecodeTraceError> {
    if data.remaining() < ACCESS_RECORD_BYTES {
        return Err(DecodeTraceError::Truncated {
            what: "truncated access",
        });
    }
    let core = CoreId::new(data.get_u16());
    let line = LineAddr::new(data.get_u64());
    let (kind, dependent) = parse_flags(data.get_u8())?;
    let compute_gap = data.get_u32();
    Ok(MemAccess {
        core,
        line,
        kind,
        compute_gap,
        dependent,
    })
}

/// Version of the [`Trace::encode`] payload codec.
///
/// A caller that seals encoded traces in a [`crate::blob`] envelope stamps
/// it with this version; bumping it when the access record layout changes
/// makes every previously sealed blob an explicit
/// [`crate::blob::BlobError::CodecVersionMismatch`] instead of a silent
/// misread.
pub const TRACE_CODEC_VERSION: u16 = 1;

impl Trace {
    /// Creates an empty trace with the given metadata.
    pub fn new(meta: TraceMeta) -> Self {
        Trace {
            meta,
            accesses: Vec::new(),
        }
    }

    /// Creates a trace from already-collected accesses.
    pub fn from_accesses(meta: TraceMeta, accesses: Vec<MemAccess>) -> Self {
        Trace { meta, accesses }
    }

    /// Wraps the trace in a [`SharedTrace`] handle for concurrent replay.
    pub fn into_shared(self) -> SharedTrace {
        Arc::new(self)
    }

    /// Returns the trace metadata.
    pub fn meta(&self) -> &TraceMeta {
        &self.meta
    }

    /// Appends one access.
    pub fn push(&mut self, access: MemAccess) {
        self.accesses.push(access);
    }

    /// Number of accesses in the trace.
    pub fn len(&self) -> usize {
        self.accesses.len()
    }

    /// Whether the trace contains no accesses.
    pub fn is_empty(&self) -> bool {
        self.accesses.is_empty()
    }

    /// Returns the accesses as a slice.
    pub fn accesses(&self) -> &[MemAccess] {
        &self.accesses
    }

    /// Iterates over the accesses.
    pub fn iter(&self) -> std::slice::Iter<'_, MemAccess> {
        self.accesses.iter()
    }

    /// Returns the accesses issued by one core, preserving order.
    pub fn per_core(&self, core: CoreId) -> Vec<MemAccess> {
        self.accesses
            .iter()
            .copied()
            .filter(|a| a.core == core)
            .collect()
    }

    /// Total number of instructions represented by the trace (memory accesses
    /// plus compute gaps), used as the numerator of the throughput metric.
    pub fn instruction_count(&self) -> u64 {
        self.accesses.len() as u64
            + self
                .accesses
                .iter()
                .map(|a| a.compute_gap as u64)
                .sum::<u64>()
    }

    /// Encodes the trace into a compact binary representation.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::with_capacity(
            32 + self.meta.workload.len() + self.accesses.len() * ACCESS_RECORD_BYTES,
        );
        buf.extend_from_slice(&TRACE_MAGIC.to_be_bytes());
        buf.extend_from_slice(&(self.meta.workload.len() as u16).to_be_bytes());
        buf.extend_from_slice(self.meta.workload.as_bytes());
        buf.extend_from_slice(&(self.meta.cores as u16).to_be_bytes());
        buf.extend_from_slice(&self.meta.seed.to_be_bytes());
        buf.extend_from_slice(&self.meta.footprint_lines.to_be_bytes());
        buf.extend_from_slice(&(self.accesses.len() as u64).to_be_bytes());
        for a in &self.accesses {
            put_access(&mut buf, a);
        }
        Bytes::from(buf)
    }

    /// Decodes a trace previously produced by [`Trace::encode`].
    ///
    /// # Errors
    ///
    /// Returns [`DecodeTraceError`] if the buffer is truncated, has a wrong
    /// magic number, or contains an invalid access kind. A truncated buffer
    /// names the field that was cut off, and a foreign buffer fails on its
    /// magic before anything else is interpreted:
    ///
    /// ```
    /// use stms_types::trace::{DecodeTraceError, Trace};
    /// use stms_types::{CoreId, LineAddr, MemAccess};
    ///
    /// // Chopping the last byte off a valid encoding truncates an access.
    /// let mut trace = Trace::default();
    /// trace.push(MemAccess::read(CoreId::new(0), LineAddr::new(7)));
    /// let bytes = trace.encode();
    /// let err = Trace::decode(&bytes[..bytes.len() - 1]).unwrap_err();
    /// assert!(matches!(err, DecodeTraceError::Truncated { what: "truncated access" }));
    ///
    /// // A buffer that is not a trace at all is rejected on its magic.
    /// assert_eq!(
    ///     Trace::decode(b"PNG..not a trace").unwrap_err(),
    ///     DecodeTraceError::BadMagic,
    /// );
    /// ```
    pub fn decode(mut data: &[u8]) -> Result<Self, DecodeTraceError> {
        fn need(data: &[u8], n: usize, what: &'static str) -> Result<(), DecodeTraceError> {
            if data.remaining() < n {
                Err(DecodeTraceError::Truncated { what })
            } else {
                Ok(())
            }
        }
        need(data, 4, "missing magic")?;
        if data.get_u32() != TRACE_MAGIC {
            return Err(DecodeTraceError::BadMagic);
        }
        need(data, 2, "missing name length")?;
        let name_len = data.get_u16() as usize;
        need(data, name_len, "truncated name")?;
        let workload = String::from_utf8(data[..name_len].to_vec())
            .map_err(|_| DecodeTraceError::InvalidName)?;
        data.advance(name_len);
        need(data, 2 + 8 + 8 + 8, "truncated header")?;
        let cores = data.get_u16() as usize;
        let seed = data.get_u64();
        let footprint_lines = data.get_u64();
        let count = data.get_u64() as usize;
        let mut accesses = Vec::with_capacity(count);
        for _ in 0..count {
            accesses.push(parse_access(&mut data)?);
        }
        Ok(Trace {
            meta: TraceMeta {
                workload,
                cores,
                seed,
                footprint_lines,
            },
            accesses,
        })
    }
}

impl Extend<MemAccess> for Trace {
    fn extend<T: IntoIterator<Item = MemAccess>>(&mut self, iter: T) {
        self.accesses.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a MemAccess;
    type IntoIter = std::slice::Iter<'a, MemAccess>;
    fn into_iter(self) -> Self::IntoIter {
        self.accesses.iter()
    }
}

impl IntoIterator for Trace {
    type Item = MemAccess;
    type IntoIter = std::vec::IntoIter<MemAccess>;
    fn into_iter(self) -> Self::IntoIter {
        self.accesses.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_trace() -> Trace {
        let meta = TraceMeta {
            workload: "unit".into(),
            cores: 2,
            seed: 7,
            footprint_lines: 128,
        };
        let mut t = Trace::new(meta);
        t.push(MemAccess::read(CoreId::new(0), LineAddr::new(10)).with_gap(3));
        t.push(MemAccess::write(CoreId::new(1), LineAddr::new(20)).with_dependence(true));
        t.push(
            MemAccess::read(CoreId::new(0), LineAddr::new(11))
                .with_kind(AccessKind::InstrFetch)
                .with_gap(1),
        );
        t
    }

    #[test]
    fn push_len_iter() {
        let t = sample_trace();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.iter().count(), 3);
        assert_eq!((&t).into_iter().count(), 3);
        assert_eq!(t.clone().into_iter().count(), 3);
    }

    #[test]
    fn per_core_filters() {
        let t = sample_trace();
        assert_eq!(t.per_core(CoreId::new(0)).len(), 2);
        assert_eq!(t.per_core(CoreId::new(1)).len(), 1);
        assert_eq!(t.per_core(CoreId::new(2)).len(), 0);
    }

    #[test]
    #[allow(clippy::identity_op)] // one explicit term per access's gap
    fn instruction_count_includes_gaps() {
        let t = sample_trace();
        assert_eq!(t.instruction_count(), 3 + 3 + 0 + 1);
    }

    #[test]
    fn encode_decode_round_trip() {
        let t = sample_trace();
        let bytes = t.encode();
        let back = Trace::decode(&bytes).expect("decode");
        assert_eq!(back, t);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Trace::decode(&[]).is_err());
        assert!(Trace::decode(&[1, 2, 3]).is_err());
        let mut bytes = sample_trace().encode().to_vec();
        bytes.truncate(bytes.len() - 1);
        assert!(Trace::decode(&bytes).is_err());
        // Corrupt the magic.
        let mut bad = sample_trace().encode().to_vec();
        bad[0] ^= 0xff;
        assert!(Trace::decode(&bad).is_err());
    }

    #[test]
    fn into_shared_is_cheap_to_clone_and_compares_equal() {
        let shared = sample_trace().into_shared();
        let alias = Arc::clone(&shared);
        assert!(Arc::ptr_eq(&shared, &alias));
        assert_eq!(*shared, sample_trace());
    }

    #[test]
    fn extend_appends() {
        let mut t = Trace::new(TraceMeta::default());
        t.extend(vec![MemAccess::read(CoreId::new(0), LineAddr::new(1))]);
        assert_eq!(t.len(), 1);
    }

    proptest! {
        #[test]
        fn prop_encode_decode_roundtrip(
            lines in proptest::collection::vec(0u64..1 << 40, 0..200),
            seed in any::<u64>(),
        ) {
            let meta = TraceMeta { workload: "prop".into(), cores: 4, seed, footprint_lines: 1000 };
            let mut t = Trace::new(meta);
            for (i, l) in lines.iter().enumerate() {
                let core = CoreId::new((i % 4) as u16);
                let acc = if i % 3 == 0 {
                    MemAccess::write(core, LineAddr::new(*l))
                } else {
                    MemAccess::read(core, LineAddr::new(*l)).with_dependence(i % 5 == 0)
                };
                t.push(acc.with_gap((i % 17) as u32));
            }
            let bytes = t.encode();
            let back = Trace::decode(&bytes).unwrap();
            prop_assert_eq!(back, t);
        }
    }
}
