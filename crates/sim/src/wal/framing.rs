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

use super::{LogPayload, WalRecord};

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

/// Where one frame's parts lie in its image.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Frame {
    pub(crate) lsn: Lsn,
    /// Offset of the body's first byte.
    pub(crate) body: usize,
    /// Offset one past the body's last byte: the next frame's start.
    pub(crate) end: usize,
}

/// The one parse of a 16-byte frame header, at `pos`: the frame's LSN
/// and the offset one past its body — `None` when the header or the
/// body runs past the image. Every structural walk and every read
/// starts here.
pub(crate) fn frame_header(bytes: &[u8], pos: usize) -> Option<(Lsn, usize)> {
    let header: &[u8; FRAME_HEADER] = bytes.get(pos..)?.first_chunk()?;
    let (lsn, rest) = header.split_first_chunk()?;
    let len = u32::from_le_bytes(*rest.first_chunk()?);
    let end = (pos + FRAME_HEADER).checked_add(len as usize)?;
    (end <= bytes.len()).then_some((Lsn(u64::from_le_bytes(*lsn)), end))
}

/// Does `frame`, one whole frame, carry the checksum of the rest of it?
fn crc_holds(frame: &[u8]) -> bool {
    let Some((header, body)) = frame.split_first_chunk::<FRAME_HEADER>() else {
        return false;
    };
    let (header12, stored) = header.split_at(12);
    stored
        .try_into()
        .is_ok_and(|stored| frame_crc(header12, body) == u32::from_le_bytes(stored))
}

/// Reads the frame at `start` (a frame boundary), leaving the body
/// undecoded, and verifies its checksum unless the frame ends inside
/// `trusted` — a prefix a CRC walk already verified. The structural
/// half of every scan, so each reports corruption at the offsets a
/// field-by-field read would: the first header field that does not fit,
/// the body that does not, or the CRC field.
pub(crate) fn read_frame(bytes: &[u8], start: usize, trusted: usize) -> SimResult<Frame> {
    let Some((lsn, end)) = frame_header(bytes, start) else {
        let short = match bytes.len().saturating_sub(start) {
            0..8 => 0,
            8..12 => 8,
            12..FRAME_HEADER => 12,
            _ => FRAME_HEADER,
        };
        return Err(SimError::Corrupt(start + short));
    };
    if end > trusted && !crc_holds(&bytes[start..end]) {
        return Err(SimError::Corrupt(start + 12));
    }
    let body = start + FRAME_HEADER;
    Ok(Frame { lsn, body, end })
}

/// Walks whole, CRC-valid frames from offset 0: returns the byte
/// position after the last valid frame, the number of valid frames, and
/// the last valid frame's LSN.
pub(crate) fn walk_valid_frames(bytes: &[u8]) -> (usize, usize, Option<Lsn>) {
    let (mut pos, mut frames, mut last) = (0, 0, None);
    while let Some((lsn, end)) =
        frame_header(bytes, pos).filter(|&(_, end)| crc_holds(&bytes[pos..end]))
    {
        (pos, frames, last) = (end, frames + 1, Some(lsn));
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
    let mut skipped = 0;
    while let Some((_, end)) = frame_header(bytes, pos).filter(|&(lsn, _)| lsn < from) {
        (pos, skipped) = (end, skipped + 1);
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
    let (mut pos, mut end) = (0, 0);
    while let Some((lsn, next)) = frame_header(bytes, pos) {
        if lsn < below {
            end = next;
        }
        pos = next;
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
/// Stays `Copy` on purpose: it is embedded in every cursor and in each
/// shard's stream of a sharded scan.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Stable-log bytes the scan touched: full frames (header plus
    /// body) of the frames read, plus [`FRAME_HEADER`] bytes per frame
    /// the seek walk skipped structurally.
    pub bytes_scanned: u64,
    /// Frames read, flush-group markers included.
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

    fn decode_next(&mut self) -> SimResult<Option<WalRecord<P>>> {
        if self.pos >= self.bytes.len() {
            return Ok(None);
        }
        let start = self.pos;
        let Frame { lsn, body, end } = read_frame(self.bytes, start, 0)?;
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
