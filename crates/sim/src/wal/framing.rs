//! Frame structure of a log shard's image.
//!
//! A *frame* is one stable record: an 8-byte little-endian LSN, a
//! 4-byte little-endian body length, a 4-byte CRC-32C
//! ([`Crc32c`]: the CPU's `crc32` instruction where it has SSE4.2,
//! slice-by-8 tables elsewhere) of the rest of the frame (header fields
//! plus body, excluding the CRC itself), then the payload body. Frames are contiguous; an image is well-formed iff it
//! is a whole number of well-formed frames whose checksums verify.
//! Everything here is a pure function of a byte image — a shard's
//! `LogManager` owns the bookkeeping, this module owns the bytes.

use redo_theory::log::Lsn;

use crate::backend::Crc32c;
use crate::error::{SimError, SimResult};

/// Bytes of a frame header: 8-byte LSN + 4-byte body length + 4-byte
/// CRC-32C of the rest of the frame.
pub const FRAME_HEADER: usize = 16;

/// Computes a frame's CRC: the 12 header bytes before the CRC field,
/// then the body.
pub(crate) fn frame_crc(header12: &[u8], body: &[u8]) -> u32 {
    let mut crc = Crc32c::new();
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

/// Walks whole, CRC-valid frames from `pos` (a frame boundary):
/// returns the byte position after the last valid frame, the number of
/// valid frames, and the last valid frame's LSN.
pub(crate) fn walk_valid_frames(bytes: &[u8], mut pos: usize) -> (usize, usize, Option<Lsn>) {
    let (mut frames, mut last) = (0, None);
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

/// Telemetry from one streaming log scan.
///
/// Stays `Copy` on purpose: each shard's stream of a scan carries one,
/// and the scan sums them.
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
    /// a partition). The reader itself is payload-agnostic, so this is
    /// filled in by the scan's consumer, not the read loop.
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
