//! Chunked trace streaming: the out-of-core currency of replay.
//!
//! The rest of the workspace historically moved traces around as fully
//! materialized [`Trace`] values — fine for paper-scale runs, but it caps
//! trace length at available memory. This module defines the streaming
//! alternative used from the generator all the way to the simulator:
//!
//! * [`AccessChunk`] — a borrowed window of consecutive accesses;
//! * [`TraceSource`] — anything that can hand out a trace chunk by chunk
//!   (a materialized [`Trace`] via [`Trace::chunks`], or the resumable
//!   generator in `stms-workloads`);
//! * [`collect_trace`] — the bridge back to a materialized [`Trace`];
//! * [`encode_chunked`] / [`decode_chunked`] — a **chunk-framed codec**
//!   (codec version [`TRACE_CHUNKED_CODEC_VERSION`]) that seals a trace in
//!   the [`crate::blob`] envelope with its records framed into fixed-size
//!   chunks, each carrying its own length and checksum. Records use the
//!   same bytes as [`Trace::encode`]: the whole-trace codec is the
//!   single-chunk special case.
//!
//! Generators are deterministic and resumable, so they are the only
//! out-of-core trace source: a streamed replay regenerates its trace chunk
//! by chunk instead of reading it back from disk.
//!
//! # Example
//!
//! ```
//! use stms_types::{stream, CoreId, LineAddr, MemAccess, Trace, TraceMeta, TraceSource};
//!
//! let mut trace = Trace::new(TraceMeta { workload: "demo".into(), cores: 1, ..Default::default() });
//! for i in 0..1000u64 {
//!     trace.push(MemAccess::read(CoreId::new(0), LineAddr::new(i * 17)));
//! }
//!
//! // Replay it 128 accesses at a time, then collect it back.
//! let mut source = trace.chunks(128);
//! assert_eq!(source.total_accesses(), 1000);
//! let back = stream::collect_trace(&mut source).unwrap();
//! assert_eq!(back, trace);
//! ```

use crate::blob::{self, BlobError};
use crate::fingerprint::{Fingerprint, Fingerprinter};
use crate::trace::{parse_access, put_access, DecodeTraceError, ACCESS_RECORD_BYTES};
use crate::{MemAccess, Trace, TraceMeta};
use bytes::Buf;
use std::fmt;
use std::io;

/// Version of the chunk-framed trace payload codec, stamped into the sealed
/// [`crate::blob`] envelope. Distinct from
/// [`crate::trace::TRACE_CODEC_VERSION`] (the whole-trace layout), so a blob
/// written under either codec can never be misread as the other.
pub const TRACE_CHUNKED_CODEC_VERSION: u16 = 2;

/// Default accesses per chunk (64 Ki accesses): large enough that
/// per-chunk dispatch cost vanishes against simulation work, small enough
/// that a streamed replay's resident window stays ~megabytes no matter how
/// long the trace is.
pub const DEFAULT_CHUNK_LEN: usize = 1 << 16;

/// Largest chunk length the chunk-framed codec accepts. A decoder refuses
/// headers that claim more.
pub const MAX_CHUNK_LEN: usize = 1 << 22;

/// Leading magic of the chunk-framed payload: `STMC` ("STMS chunked").
const CHUNKED_MAGIC: u32 = 0x53_54_4d_43;

/// Frame header size: record count + frame checksum.
const FRAME_HEADER: usize = 4 + 8;

/// A borrowed window of consecutive trace accesses handed out by a
/// [`TraceSource`].
#[derive(Debug, Clone, Copy)]
pub struct AccessChunk<'a> {
    /// The accesses of this chunk, in trace order.
    pub accesses: &'a [MemAccess],
    /// Index (within the whole trace) of the first access of the chunk.
    pub first_index: u64,
}

/// Why a streaming trace could not be produced, or a chunk-framed trace
/// could not be decoded.
///
/// The in-memory and generator sources of this workspace never fail; the
/// I/O variant exists for sources backed by I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceStreamError {
    /// An underlying I/O operation failed.
    Io {
        /// The rendered I/O error.
        error: String,
    },
    /// The sealed-blob envelope around a chunk-framed trace is unusable
    /// (bad magic, version or key mismatch, truncation, checksum failure).
    Envelope(BlobError),
    /// The chunk-framed trace payload itself is malformed.
    Trace(DecodeTraceError),
}

impl fmt::Display for TraceStreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceStreamError::Io { error } => write!(f, "trace stream i/o error: {error}"),
            TraceStreamError::Envelope(err) => write!(f, "trace stream envelope: {err}"),
            TraceStreamError::Trace(err) => write!(f, "trace stream payload: {err}"),
        }
    }
}

impl std::error::Error for TraceStreamError {}

impl From<io::Error> for TraceStreamError {
    fn from(err: io::Error) -> Self {
        TraceStreamError::Io {
            error: err.to_string(),
        }
    }
}

impl From<BlobError> for TraceStreamError {
    fn from(err: BlobError) -> Self {
        TraceStreamError::Envelope(err)
    }
}

impl From<DecodeTraceError> for TraceStreamError {
    fn from(err: DecodeTraceError) -> Self {
        TraceStreamError::Trace(err)
    }
}

/// Anything that can hand out a trace chunk by chunk, in trace order.
///
/// The contract mirrors a lending iterator: each returned [`AccessChunk`]
/// borrows from the source and is consumed before the next call. The total
/// access count and metadata are known up front (every implementor knows
/// them from its spec or header), which is what lets the simulator compute
/// its warm-up boundary without a first pass.
pub trait TraceSource {
    /// Metadata of the streamed trace.
    fn meta(&self) -> &TraceMeta;

    /// Total number of accesses the source will yield across all chunks.
    fn total_accesses(&self) -> u64;

    /// The next chunk, or `Ok(None)` once the source is exhausted.
    ///
    /// # Errors
    ///
    /// Returns [`TraceStreamError`] when the underlying stream is unusable
    /// (only I/O-backed sources fail; in-memory and generator sources are
    /// infallible).
    fn next_chunk(&mut self) -> Result<Option<AccessChunk<'_>>, TraceStreamError>;
}

/// [`TraceSource`] over a materialized [`Trace`], yielding borrowed
/// sub-slices (no copies). See [`Trace::chunks`].
#[derive(Debug)]
pub struct TraceChunks<'a> {
    trace: &'a Trace,
    pos: usize,
    chunk_len: usize,
}

impl Trace {
    /// Streams the trace as chunks of at most `chunk_len` accesses — the
    /// adapter that lets every materialized trace flow through the same
    /// [`TraceSource`]-consuming paths as out-of-core streams.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub fn chunks(&self, chunk_len: usize) -> TraceChunks<'_> {
        assert!(chunk_len > 0, "chunk_len must be non-zero");
        TraceChunks {
            trace: self,
            pos: 0,
            chunk_len,
        }
    }
}

impl TraceSource for TraceChunks<'_> {
    fn meta(&self) -> &TraceMeta {
        self.trace.meta()
    }

    fn total_accesses(&self) -> u64 {
        self.trace.len() as u64
    }

    fn next_chunk(&mut self) -> Result<Option<AccessChunk<'_>>, TraceStreamError> {
        let all = self.trace.accesses();
        if self.pos >= all.len() {
            return Ok(None);
        }
        let start = self.pos;
        let end = (start + self.chunk_len).min(all.len());
        self.pos = end;
        Ok(Some(AccessChunk {
            accesses: &all[start..end],
            first_index: start as u64,
        }))
    }
}

/// Collects a whole source into a materialized [`Trace`] (the compatibility
/// bridge back from streaming land).
///
/// # Errors
///
/// Propagates the source's first [`TraceStreamError`].
pub fn collect_trace(source: &mut dyn TraceSource) -> Result<Trace, TraceStreamError> {
    let mut trace = Trace::new(source.meta().clone());
    while let Some(chunk) = source.next_chunk()? {
        trace.extend(chunk.accesses.iter().copied());
    }
    Ok(trace)
}

/// Byte length of the chunk-framed payload's trace header.
fn payload_header_len(name_len: usize) -> usize {
    4 + 2 + name_len + 2 + 8 + 8 + 8 + 4
}

/// The frame checksum: the same 64-bit fold the blob envelope records for
/// whole payloads, over the frame's record bytes.
fn frame_checksum(records: &[u8]) -> u64 {
    let mut fp = Fingerprinter::new();
    fp.write_bytes(records);
    blob::checksum_finish(&fp)
}

/// Seals a trace with the chunk-framed codec, `chunk_len` accesses per
/// frame (the last frame may be shorter).
///
/// # Panics
///
/// Panics if `chunk_len` is outside `1..=MAX_CHUNK_LEN` or the workload
/// name is longer than a `u16` length prefix.
pub fn encode_chunked(trace: &Trace, key: Fingerprint, chunk_len: usize) -> Vec<u8> {
    assert!(
        (1..=MAX_CHUNK_LEN).contains(&chunk_len),
        "chunk_len must be in 1..={MAX_CHUNK_LEN}"
    );
    let meta = trace.meta();
    let name_len = u16::try_from(meta.workload.len()).expect("workload name fits a u16 prefix");
    let frames = trace.len().div_ceil(chunk_len);
    let mut payload = Vec::with_capacity(
        payload_header_len(meta.workload.len())
            + frames * FRAME_HEADER
            + trace.len() * ACCESS_RECORD_BYTES,
    );
    payload.extend_from_slice(&CHUNKED_MAGIC.to_be_bytes());
    payload.extend_from_slice(&name_len.to_be_bytes());
    payload.extend_from_slice(meta.workload.as_bytes());
    payload.extend_from_slice(&(meta.cores as u16).to_be_bytes());
    payload.extend_from_slice(&meta.seed.to_be_bytes());
    payload.extend_from_slice(&meta.footprint_lines.to_be_bytes());
    payload.extend_from_slice(&(trace.len() as u64).to_be_bytes());
    payload.extend_from_slice(&(chunk_len as u32).to_be_bytes());
    for frame in trace.accesses().chunks(chunk_len) {
        payload.extend_from_slice(&(frame.len() as u32).to_be_bytes());
        let checksum_at = payload.len();
        payload.extend_from_slice(&[0u8; 8]);
        for a in frame {
            put_access(&mut payload, a);
        }
        let checksum = frame_checksum(&payload[checksum_at + 8..]);
        payload[checksum_at..checksum_at + 8].copy_from_slice(&checksum.to_be_bytes());
    }
    blob::seal(TRACE_CHUNKED_CODEC_VERSION, key, &payload)
}

/// Opens and fully decodes a trace sealed by [`encode_chunked`].
///
/// # Errors
///
/// [`TraceStreamError::Envelope`] when the sealed envelope is unusable for
/// `key`, and [`TraceStreamError::Trace`] when the payload inside it is
/// malformed: a truncated header or frame, a frame whose record count
/// disagrees with the header's chunking, a frame checksum mismatch, or
/// bytes left over after the last frame.
pub fn decode_chunked(data: &[u8], key: Fingerprint) -> Result<Trace, TraceStreamError> {
    fn need(data: &[u8], n: usize, what: &'static str) -> Result<(), DecodeTraceError> {
        if data.len() < n {
            Err(DecodeTraceError::Truncated { what })
        } else {
            Ok(())
        }
    }
    let mut data = blob::open(data, TRACE_CHUNKED_CODEC_VERSION, key)?;
    need(data, 4, "missing magic")?;
    if data.get_u32() != CHUNKED_MAGIC {
        return Err(DecodeTraceError::BadMagic.into());
    }
    need(data, 2, "missing name length")?;
    let name_len = data.get_u16() as usize;
    need(data, name_len, "truncated name")?;
    let workload =
        String::from_utf8(data[..name_len].to_vec()).map_err(|_| DecodeTraceError::InvalidName)?;
    data.advance(name_len);
    need(data, 2 + 8 + 8 + 8 + 4, "truncated header")?;
    let meta = TraceMeta {
        workload,
        cores: data.get_u16() as usize,
        seed: data.get_u64(),
        footprint_lines: data.get_u64(),
    };
    let total = data.get_u64();
    let chunk_len = data.get_u32() as usize;
    if chunk_len == 0 || chunk_len > MAX_CHUNK_LEN {
        return Err(DecodeTraceError::BadChunkFraming { chunk: 0 }.into());
    }
    // `total` is header data: bound the allocation by what the payload can
    // actually hold.
    let capacity = total.min((data.len() / ACCESS_RECORD_BYTES) as u64) as usize;
    let mut accesses = Vec::with_capacity(capacity);
    let mut chunk = 0u64;
    while (accesses.len() as u64) < total {
        let expected = (total - accesses.len() as u64).min(chunk_len as u64);
        need(data, FRAME_HEADER, "truncated chunk frame")?;
        if u64::from(data.get_u32()) != expected {
            return Err(DecodeTraceError::BadChunkFraming { chunk }.into());
        }
        let checksum = data.get_u64();
        let record_len = expected as usize * ACCESS_RECORD_BYTES;
        need(data, record_len, "truncated chunk records")?;
        let (mut records, rest) = data.split_at(record_len);
        if frame_checksum(records) != checksum {
            return Err(DecodeTraceError::ChunkChecksumMismatch { chunk }.into());
        }
        while !records.is_empty() {
            accesses.push(parse_access(&mut records)?);
        }
        data = rest;
        chunk += 1;
    }
    if !data.is_empty() {
        return Err(DecodeTraceError::BadChunkFraming { chunk }.into());
    }
    Ok(Trace::from_accesses(meta, accesses))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blob::HEADER_LEN;
    use crate::{AccessKind, CoreId, LineAddr};
    use proptest::prelude::*;

    fn key() -> Fingerprint {
        Fingerprint::from_raw(0xabc0_1234_5678_9def)
    }

    fn sample_trace(len: usize) -> Trace {
        let meta = TraceMeta {
            workload: "stream-unit".into(),
            cores: 4,
            seed: 99,
            footprint_lines: 4096,
        };
        let mut t = Trace::new(meta);
        for i in 0..len as u64 {
            let core = CoreId::new((i % 4) as u16);
            let mut a = MemAccess::read(core, LineAddr::new(i * 31 % 10_000))
                .with_gap((i % 13) as u32)
                .with_dependence(i % 5 == 0);
            if i % 7 == 0 {
                a = a.with_kind(AccessKind::Write);
            }
            t.push(a);
        }
        t
    }

    #[test]
    fn trace_chunks_cover_the_trace_in_order() {
        let t = sample_trace(250);
        let mut source = t.chunks(64);
        assert_eq!(source.total_accesses(), 250);
        assert_eq!(source.meta().workload, "stream-unit");
        let mut seen = Vec::new();
        let mut sizes = Vec::new();
        while let Some(chunk) = source.next_chunk().unwrap() {
            assert_eq!(chunk.first_index as usize, seen.len());
            sizes.push(chunk.accesses.len());
            seen.extend_from_slice(chunk.accesses);
        }
        assert_eq!(seen, t.accesses());
        assert_eq!(sizes, vec![64, 64, 64, 58]);
    }

    #[test]
    fn empty_trace_round_trips() {
        let t = Trace::new(TraceMeta {
            workload: "empty".into(),
            ..Default::default()
        });
        let sealed = encode_chunked(&t, key(), 16);
        assert_eq!(decode_chunked(&sealed, key()).unwrap(), t);
        let mut source = t.chunks(16);
        assert!(source.next_chunk().unwrap().is_none());
        assert_eq!(collect_trace(&mut t.chunks(16)).unwrap(), t);
    }

    #[test]
    fn collect_trace_rebuilds_the_original() {
        let t = sample_trace(1000);
        let back = collect_trace(&mut t.chunks(100)).unwrap();
        assert_eq!(back, t);
    }

    /// Opens a sealed chunk-framed blob, edits its payload, and seals it
    /// again, so the edit gets past the envelope checksum and reaches the
    /// payload decoder.
    fn reseal(sealed: &[u8], edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut payload = blob::open(sealed, TRACE_CHUNKED_CODEC_VERSION, key())
            .unwrap()
            .to_vec();
        edit(&mut payload);
        blob::seal(TRACE_CHUNKED_CODEC_VERSION, key(), &payload)
    }

    #[test]
    fn reader_rejects_wrong_key_and_wrong_codec() {
        let t = sample_trace(50);
        let sealed = encode_chunked(&t, key(), 16);
        match decode_chunked(&sealed, Fingerprint::from_raw(1)) {
            Err(TraceStreamError::Envelope(BlobError::KeyMismatch)) => {}
            other => panic!("expected key mismatch, got {other:?}"),
        }
        // A whole-trace (v1) sealed blob is refused by codec version.
        let v1 = blob::seal(crate::trace::TRACE_CODEC_VERSION, key(), &t.encode());
        match decode_chunked(&v1, key()) {
            Err(TraceStreamError::Envelope(BlobError::CodecVersionMismatch {
                found: 1,
                expected: TRACE_CHUNKED_CODEC_VERSION,
            })) => {}
            other => panic!("expected codec mismatch, got {other:?}"),
        }
    }

    #[test]
    fn corrupt_chunks_are_detected_before_their_accesses_are_yielded() {
        let t = sample_trace(300);
        let sealed = encode_chunked(&t, key(), 64);
        // A flipped record byte fails the envelope checksum first.
        let offset = HEADER_LEN + payload_header_len("stream-unit".len()) + 2 * (12 + 64 * 15) + 40;
        let mut bad = sealed.clone();
        bad[offset] ^= 0x01;
        assert!(matches!(
            decode_chunked(&bad, key()),
            Err(TraceStreamError::Envelope(BlobError::ChecksumMismatch))
        ));
        // Behind a valid envelope, the frame checksum names the corrupt
        // (third) chunk, and no trace is produced.
        let bad = reseal(&sealed, |payload| {
            payload[offset - HEADER_LEN] ^= 0x01;
        });
        let err = decode_chunked(&bad, key()).unwrap_err();
        assert!(
            matches!(
                err,
                TraceStreamError::Trace(DecodeTraceError::ChunkChecksumMismatch { chunk: 2 })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn truncated_and_padded_streams_fail_closed() {
        let t = sample_trace(100);
        let sealed = encode_chunked(&t, key(), 32);
        // Truncation anywhere fails with a Truncated error.
        for cut in [
            HEADER_LEN - 1,
            HEADER_LEN + 5,
            sealed.len() - 9,
            sealed.len() - 1,
        ] {
            let result = decode_chunked(&sealed[..cut], key());
            assert!(
                matches!(
                    result,
                    Err(TraceStreamError::Envelope(BlobError::Truncated { .. }))
                ),
                "cut at {cut}: {result:?}"
            );
        }
        // Appended bytes are trailing data.
        let mut long = sealed.clone();
        long.push(0);
        let result = decode_chunked(&long, key());
        assert!(
            matches!(
                result,
                Err(TraceStreamError::Envelope(BlobError::TrailingData))
            ),
            "{result:?}"
        );
        // Behind a valid envelope, a payload cut inside a frame is a
        // truncated trace, and bytes after the last frame are bad framing.
        let cut = reseal(&sealed, |payload| payload.truncate(payload.len() - 1));
        assert!(matches!(
            decode_chunked(&cut, key()),
            Err(TraceStreamError::Trace(DecodeTraceError::Truncated { .. }))
        ));
        let padded = reseal(&sealed, |payload| payload.push(0));
        assert!(matches!(
            decode_chunked(&padded, key()),
            Err(TraceStreamError::Trace(DecodeTraceError::BadChunkFraming {
                chunk: 4
            }))
        ));
    }

    #[test]
    fn vandalized_header_fields_fail_cleanly_not_by_overflow_or_allocation() {
        let t = sample_trace(100);
        let sealed = encode_chunked(&t, key(), 32);
        // Offsets inside the payload's trace header ("stream-unit" = 11).
        let total_at = 4 + 2 + 11 + 2 + 8 + 8;
        let chunk_len_at = total_at + 8;

        // A total near u64::MAX must neither overflow nor size an
        // allocation: the short last frame (4 of 32 records) no longer
        // matches the claimed chunking.
        let bad = reseal(&sealed, |payload| {
            payload[total_at..total_at + 8].copy_from_slice(&u64::MAX.to_be_bytes());
        });
        let result = decode_chunked(&bad, key());
        assert!(
            matches!(
                result,
                Err(TraceStreamError::Trace(DecodeTraceError::BadChunkFraming {
                    chunk: 3
                }))
            ),
            "{result:?}"
        );

        // A chunk_len beyond MAX_CHUNK_LEN, or zero, is rejected before any
        // frame is read.
        for chunk_len in [u32::MAX, 0] {
            let bad = reseal(&sealed, |payload| {
                payload[chunk_len_at..chunk_len_at + 4].copy_from_slice(&chunk_len.to_be_bytes());
            });
            let result = decode_chunked(&bad, key());
            assert!(
                matches!(
                    result,
                    Err(TraceStreamError::Trace(DecodeTraceError::BadChunkFraming {
                        chunk: 0
                    }))
                ),
                "chunk_len {chunk_len}: {result:?}"
            );
        }

        // And the encoder refuses to produce such framings in the first
        // place.
        for chunk_len in [0, MAX_CHUNK_LEN + 1] {
            let refused = std::panic::catch_unwind(|| encode_chunked(&t, key(), chunk_len));
            assert!(refused.is_err(), "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn unknown_codec_versions_are_rejected() {
        let t = sample_trace(20);
        let future = blob::seal(9, key(), &t.encode());
        match decode_chunked(&future, key()) {
            Err(TraceStreamError::Envelope(BlobError::CodecVersionMismatch {
                found: 9,
                expected: TRACE_CHUNKED_CODEC_VERSION,
            })) => {}
            other => panic!("expected codec mismatch, got {other:?}"),
        }
    }

    #[test]
    fn errors_render_their_cause() {
        let io: TraceStreamError = io::Error::other("disk gone").into();
        assert!(io.to_string().contains("disk gone"));
        let env: TraceStreamError = BlobError::ChecksumMismatch.into();
        assert!(env.to_string().contains("checksum"));
        let tr: TraceStreamError = DecodeTraceError::ChunkChecksumMismatch { chunk: 3 }.into();
        assert!(tr.to_string().contains("chunk 3"));
    }

    proptest! {
        /// The chunk-framed codec round-trips any trace at any chunking, and
        /// the decoded trace is byte-for-byte the same as the whole-trace
        /// codec's view of it.
        #[test]
        fn prop_chunked_roundtrip_matches_whole_trace_codec(
            lines in proptest::collection::vec(0u64..1 << 40, 0..300),
            chunk_len in 1usize..70,
            seed in any::<u64>(),
        ) {
            let meta = TraceMeta { workload: "prop".into(), cores: 4, seed, footprint_lines: 7 };
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
            let sealed = encode_chunked(&t, key(), chunk_len);
            let back = decode_chunked(&sealed, key()).unwrap();
            prop_assert_eq!(&back, &t);
            // Cross-codec identity: decoding the chunked stream and decoding
            // the whole-trace codec agree byte for byte on re-encode.
            prop_assert_eq!(back.encode(), Trace::decode(&t.encode()).unwrap().encode());
        }

        /// Record-level byte identity: the concatenated record bytes of the
        /// chunked stream equal the record region of `Trace::encode`,
        /// regardless of chunking — the whole-trace codec really is the
        /// single-chunk special case.
        #[test]
        fn prop_record_bytes_identical_across_codecs(
            lines in proptest::collection::vec(0u64..1 << 30, 1..120),
            chunk_len in 1usize..40,
        ) {
            let meta = TraceMeta { workload: "rec".into(), cores: 2, seed: 1, footprint_lines: 1 };
            let mut t = Trace::new(meta);
            for (i, l) in lines.iter().enumerate() {
                t.push(MemAccess::read(CoreId::new((i % 2) as u16), LineAddr::new(*l)));
            }
            // Record region of the whole-trace codec: everything after its
            // fixed header.
            let whole = t.encode();
            let whole_records = &whole[4 + 2 + 3 + 2 + 8 + 8 + 8..];
            // Record region of the chunked codec: strip envelope, trace
            // header, frame headers and trailing checksum.
            let sealed = encode_chunked(&t, key(), chunk_len);
            let mut chunked_records = Vec::new();
            let mut at = HEADER_LEN + payload_header_len(3);
            let mut remaining = t.len();
            while remaining > 0 {
                let n = remaining.min(chunk_len);
                at += 12; // frame count + checksum
                chunked_records.extend_from_slice(&sealed[at..at + n * ACCESS_RECORD_BYTES]);
                at += n * ACCESS_RECORD_BYTES;
                remaining -= n;
            }
            prop_assert_eq!(chunked_records.as_slice(), whole_records);
        }
    }
}
