//! Frame structure and streaming decode for the stable log image.
//!
//! A *frame* is one stable record: an 8-byte little-endian LSN, a
//! 4-byte little-endian body length, a 4-byte CRC-32 of the rest of the
//! frame (header fields plus body, excluding the CRC itself), then the
//! payload body. Frames are contiguous; an image is well-formed iff it
//! is a whole number of well-formed frames whose checksums verify.
//! Everything here is a pure function of a byte image — the
//! [`LogManager`](super::LogManager) owns the bookkeeping, this module
//! owns the bytes.

use std::marker::PhantomData;

use redo_theory::log::Lsn;

use crate::backend::Crc32;
use crate::error::{SimError, SimResult};

use super::{codec, LogPayload, WalRecord};

/// Bytes of a frame header: 8-byte LSN + 4-byte body length + 4-byte
/// CRC-32 of the rest of the frame.
pub const FRAME_HEADER: usize = 16;

/// Computes a frame's CRC: the 12 header bytes before the CRC field,
/// then the body.
pub(crate) fn frame_crc(header12: &[u8], body: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(header12);
    crc.update(body);
    crc.finish()
}

/// Where one CRC-verified frame's parts lie in its image.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Frame {
    pub(crate) lsn: Lsn,
    /// Offset of the body's first byte.
    pub(crate) body: usize,
    /// Offset one past the body's last byte: the next frame's start.
    pub(crate) end: usize,
}

/// Reads the frame header at `start` (a frame boundary) and verifies
/// the frame's checksum, leaving the body undecoded — the structural
/// half of every scan, so each reports corruption at the same offsets.
pub(crate) fn read_frame(bytes: &[u8], start: usize) -> SimResult<Frame> {
    let mut pos = start;
    let lsn = Lsn(codec::get_u64(bytes, &mut pos)?);
    let len = codec::get_u32(bytes, &mut pos)? as usize;
    let stored_crc = codec::get_u32(bytes, &mut pos)?;
    let end = pos.checked_add(len).ok_or(SimError::Corrupt(pos))?;
    if end > bytes.len() {
        return Err(SimError::Corrupt(pos));
    }
    if frame_crc(&bytes[start..start + 12], &bytes[pos..end]) != stored_crc {
        return Err(SimError::Corrupt(start + 12));
    }
    Ok(Frame {
        lsn,
        body: pos,
        end,
    })
}

/// Walks whole, CRC-valid frames from offset 0: returns the byte
/// position after the last valid frame, the number of valid frames, and
/// the last valid frame's LSN.
pub(crate) fn walk_valid_frames(bytes: &[u8]) -> (usize, usize, Option<Lsn>) {
    let mut pos = 0usize;
    let mut frames = 0usize;
    let mut last = None;
    while pos + FRAME_HEADER <= bytes.len() {
        let len =
            u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("4 bytes")) as usize;
        let Some(end) = (pos + FRAME_HEADER).checked_add(len) else {
            break;
        };
        if end > bytes.len() {
            break;
        }
        let stored = u32::from_le_bytes(
            bytes[pos + 12..pos + FRAME_HEADER]
                .try_into()
                .expect("4 bytes"),
        );
        if frame_crc(&bytes[pos..pos + 12], &bytes[pos + FRAME_HEADER..end]) != stored {
            break;
        }
        last = Some(Lsn(u64::from_le_bytes(
            bytes[pos..pos + 8].try_into().expect("8 bytes"),
        )));
        frames += 1;
        pos = end;
    }
    (pos, frames, last)
}

/// Walks frame headers from `pos` (which must be a frame boundary)
/// until reaching a frame whose LSN is ≥ `from`, skipping bodies
/// without decoding them. Returns the landing offset and the number of
/// frames skipped over. Stops at any structural breakage so the
/// caller's decode reports the corruption at the same offset a full
/// scan would.
pub(crate) fn skip_frames_below(bytes: &[u8], mut pos: usize, from: Lsn) -> (usize, usize) {
    let mut skipped = 0usize;
    while pos + FRAME_HEADER <= bytes.len() {
        let lsn = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
        if Lsn(lsn) >= from {
            break;
        }
        let len =
            u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("4 bytes")) as usize;
        match (pos + FRAME_HEADER).checked_add(len) {
            Some(end) if end <= bytes.len() => {
                pos = end;
                skipped += 1;
            }
            _ => break,
        }
    }
    (pos, skipped)
}

/// Walks every frame header of `bytes` (stopping at a structural break)
/// and returns the offset just past the *last* frame whose LSN is below
/// `below`, or 0 when none is. In a run of frames in LSN order that is
/// where [`skip_frames_below`] lands; in an archive that holds a run
/// twice — an interrupted drain, then its retry — it is past the second
/// copy's frames below `below` too.
pub(crate) fn end_of_frames_below(bytes: &[u8], below: Lsn) -> usize {
    let (mut pos, mut end) = (0usize, 0usize);
    while pos + FRAME_HEADER <= bytes.len() {
        let lsn = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
        let len =
            u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("4 bytes")) as usize;
        match (pos + FRAME_HEADER).checked_add(len) {
            Some(next) if next <= bytes.len() => {
                if Lsn(lsn) < below {
                    end = next;
                }
                pos = next;
            }
            _ => break,
        }
    }
    end
}

/// Decodes a stable-log byte image into records — the recovery-time log
/// scan as a pure function (the corruption tests drive it over
/// arbitrarily truncated and bit-flipped images). Implemented as a
/// collected [`LogCursor`] so the materializing and streaming scans
/// cannot drift apart.
///
/// # Errors
///
/// [`SimError::Corrupt`] at the failing offset if the bytes do not parse
/// as a whole number of well-formed, checksum-valid records.
pub fn decode_records<P: LogPayload>(bytes: &[u8]) -> SimResult<Vec<WalRecord<P>>> {
    LogCursor::over(bytes).collect()
}

/// Telemetry from one streaming log scan.
///
/// Stays `Copy` on purpose: it is embedded in every cursor and scanner.
/// Per-shard breakdowns of a sharded scan live beside the summed view
/// ([`ShardedScanner::stats_by_shard`](super::ShardedScanner::stats_by_shard)),
/// not inside it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Stable-log bytes the scan touched: full frames (header plus
    /// body) of decoded records, plus [`FRAME_HEADER`] bytes per frame
    /// the seek walk skipped structurally.
    pub bytes_scanned: u64,
    /// Frames decoded into records.
    pub records_decoded: usize,
    /// Scans whose starting position came from a seek-index jump past
    /// offset 0.
    pub seek_hits: usize,
    /// Checkpoint records the consumer recognized and declined to treat
    /// as page work (a page-partitioned router must never send them to
    /// a partition). The cursor itself is payload-agnostic, so this is
    /// filled in by the scan's consumer, not the decode loop.
    pub checkpoint_records: usize,
}

impl ScanStats {
    /// Folds another scan's telemetry into this one — the summed view a
    /// sharded scan reports next to its per-shard breakdown.
    pub fn absorb(&mut self, other: ScanStats) {
        self.bytes_scanned += other.bytes_scanned;
        self.records_decoded += other.records_decoded;
        self.seek_hits += other.seek_hits;
        self.checkpoint_records += other.checkpoint_records;
    }
}

/// A streaming, zero-copy scan over a stable-log byte image.
///
/// Decodes one frame per [`Iterator::next`] call; the payload decodes
/// out of a borrowed slice of the underlying bytes and no record vector
/// is ever materialized. Each frame's CRC is verified before its payload
/// is decoded. The first decode error is yielded once and ends the
/// iteration — identical observable behavior (records, error, offset)
/// to [`decode_records`], which is built on top of it.
#[derive(Debug)]
pub struct LogCursor<'a, P> {
    pub(crate) bytes: &'a [u8],
    pub(crate) pos: usize,
    pub(crate) stats: ScanStats,
    failed: bool,
    _payload: PhantomData<fn() -> P>,
}

impl<'a, P: LogPayload> LogCursor<'a, P> {
    /// A cursor over an arbitrary byte image, starting at offset 0 —
    /// the corruption tests drive this over truncated and bit-flipped
    /// images that never came from a live
    /// [`LogManager`](super::LogManager).
    #[must_use]
    pub fn over(bytes: &'a [u8]) -> LogCursor<'a, P> {
        LogCursor::at(bytes, 0, ScanStats::default())
    }

    pub(crate) fn at(bytes: &'a [u8], pos: usize, stats: ScanStats) -> LogCursor<'a, P> {
        LogCursor {
            bytes,
            pos,
            stats,
            failed: false,
            _payload: PhantomData,
        }
    }

    /// Telemetry accumulated so far.
    #[must_use]
    pub fn stats(&self) -> ScanStats {
        self.stats
    }

    /// The current byte offset into the image.
    #[must_use]
    pub fn position(&self) -> usize {
        self.pos
    }

    fn decode_next(&mut self) -> SimResult<Option<WalRecord<P>>> {
        if self.pos >= self.bytes.len() {
            return Ok(None);
        }
        let start = self.pos;
        let Frame { lsn, body, end } = read_frame(self.bytes, start)?;
        let mut body_pos = body;
        let payload = P::decode(&self.bytes[..end], &mut body_pos)?;
        if body_pos != end {
            return Err(SimError::Corrupt(body_pos));
        }
        self.pos = end;
        self.stats.records_decoded += 1;
        self.stats.bytes_scanned += (end - start) as u64;
        Ok(Some(WalRecord { lsn, payload }))
    }
}

impl<P: LogPayload> Iterator for LogCursor<'_, P> {
    type Item = SimResult<WalRecord<P>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.decode_next() {
            Ok(rec) => rec.map(Ok),
            Err(e) => {
                self.failed = true;
                Some(Err(e))
            }
        }
    }
}
