//! The write-ahead log: a stable prefix plus a volatile tail, kept by
//! one or more per-partition shards behind one LSN sequencer
//! ([`ShardedLog`]; a log of one shard is the single log).
//!
//! A record is encoded once, before any lock is taken
//! ([`EncodedRecord`]); the append only stamps its LSN, length and CRC
//! in front of that body in a shard's volatile tail, and
//! [`ShardedLog::flush`] copies the covered frames to the stable
//! (on-"disk") image. A crash discards the volatile tail; recovery
//! reads the stable bytes — so the binary codec is actually exercised
//! on every simulated crash, not decorative. Each shard keeps its
//! stable frames once, as one append-only byte vector; on
//! [`BackendKind::File`] a medium persists every change to it in one
//! fsynced file and reloads it at a crash.
//!
//! The module is split by concern:
//!
//! * `framing` — the frame format, CRC verification and the structural
//!   walks;
//! * `index` — the shared maintenance discipline for the sparse seek
//!   index and the per-page chains, including the guards that
//!   authorize a prefix drain;
//! * [`codec`] — primitive encoders for method payloads;
//! * `sharded` — [`ShardedLog`]: N per-partition logs routed by the
//!   same power-of-two page mask as the sharded store, with a
//!   global-LSN sequencer, cross-shard atomic flush groups, and the one
//!   reader, and the archived prefix that point-in-time replay reads.
//!
//! ## Frame format
//!
//! Each stable record occupies one *frame*: an 8-byte little-endian LSN,
//! a 4-byte little-endian body length, a 4-byte CRC-32C of the rest of
//! the frame (header fields plus body, excluding the CRC itself), then
//! the body: a tag byte — a record, or a flush-group marker — and the
//! payload. Frames are contiguous; a shard's image is well-formed iff
//! it is a whole number of well-formed frames whose checksums verify.
//! A shard's flush moves its volatile tail in order and a crash
//! re-derives the next LSN from the stable end, so the lone shard of a
//! single log holds exactly LSNs `1..=stable_lsn`, densely and in order
//! (*dense* mode); a shard of several instead holds a monotone *subset*
//! of the global LSNs (*sparse* mode): the global sequencer owns
//! density, each shard only monotonicity.
//!
//! ## One sequence: archive ∥ live
//!
//! A shard's image is split at its *live origin*, the offset of its
//! first frame at or above `first_stable`: the frames below it are the
//! archive, those from it on the live log. `first_stable` starts at 1
//! and only moves when a published checkpoint makes the prefix
//! redundant: [`ShardedLog::archive_prefix`] moves every shard's origin
//! past its frames below the checkpoint's redo-start LSN. No byte moves
//! and nothing is written: seek-index and chain offsets are absolute
//! into the image, so a drain only drops the entries below the new
//! origin. [`ShardedLog::compact_archive`] is the one path that moves
//! bytes, cutting the image's front.
//!
//! ## Scanning
//!
//! Recovery reads the log in place, through one reader: per-shard frame
//! streams merged by LSN, yielding each record's payload as a
//! [`RecordBody`] the consumer parses as far as it needs.
//! [`ShardedLog::history`] borrows the bodies from each whole image;
//! [`ShardedScanner`], the restart scan, reads the live frames only and
//! copies each batch's bodies into one buffer it reuses, so its caller
//! holds no borrow of the log while it replays. Each live frame's
//! checksum is verified once per restart: [`ShardedLog::repair_tail`]'s
//! CRC walk records the live frames it verified, and the reader trusts
//! them and checksums every other frame, archived ones included. A scan
//! seeks: a sparse LSN→byte-offset index jumps near the requested LSN
//! and a structural header walk lands on it exactly — so a checkpoint
//! bounds *decode* work, not just replay work.
//!
//! On the write side a shard's flush is a group commit: the frames the
//! force covers are already contiguous in the tail, so they reach the
//! stable bytes in a single extend — which on the file backend is a
//! single `write` + `fsync`.
//!
//! The payload type is method-specific (`redo-methods` logs after-images
//! for physical recovery, page operations for physiological recovery,
//! etc.): [`ShardedLog`] is generic over [`LogPayload`], and the shards
//! below it hold untyped bytes. The [`codec`] module supplies the
//! primitive encoders, including a codec for
//! [`PageOp`](redo_workload::pages::PageOp), which several methods embed.

use std::collections::BTreeMap;
use std::fmt;

use redo_theory::log::Lsn;
use redo_workload::pages::PageId;

use crate::backend::file::FileLog;
use crate::backend::BackendKind;
use crate::error::{SimError, SimResult};
use crate::fault::{FaultDecision, FaultInjector};

pub mod codec;
mod framing;
mod index;
mod sharded;

pub use framing::{ScanStats, FRAME_HEADER};
pub use index::SEEK_INTERVAL;
pub use sharded::{Batch, History, RecordBody, ShardedLog, ShardedScanner};

use framing::{frame_crc, skip_frames_below, walk_valid_frames};
use index::{
    index_within_prefix, plan_prefix_drain, prune_chains_to_prefix, prune_index_to_prefix,
    rebase_chains, rebase_index, DrainPlan,
};

/// A type that can be written to and read back from the stable log.
pub trait LogPayload: Clone + fmt::Debug {
    /// Appends the encoding of `self` to `buf`.
    ///
    /// # Errors
    ///
    /// [`SimError::FieldOverflow`] when a value does not fit its on-disk
    /// field (e.g. a read set larger than its 16-bit count). Nothing is
    /// guaranteed about `buf`'s tail on error; callers must discard it.
    fn encode(&self, buf: &mut Vec<u8>) -> SimResult<()>;
    /// Decodes one payload starting at `*pos`, advancing it.
    ///
    /// # Errors
    ///
    /// [`SimError::Corrupt`] at the failing offset.
    fn decode(input: &[u8], pos: &mut usize) -> SimResult<Self>;
    /// The pages this payload writes, if it describes page work. The log
    /// threads these into its per-page record chains as frames become
    /// stable, so on-demand recovery can replay one page's history
    /// without scanning the whole suffix. Payloads that carry no page
    /// work (checkpoint markers, raw test payloads) return the default
    /// empty set and stay out of every chain.
    fn write_pages(&self) -> Vec<PageId> {
        Vec::new()
    }
    /// The pages this payload reads but does not write. The log threads
    /// these into a second set of per-page chains — a page's
    /// *cross-readers* ([`ShardedLog::readers_of`]) — so lazy replay of
    /// one page can find the records that must observe it before its
    /// later writers run. A payload that reads only what it writes
    /// returns the default empty set and indexes nothing.
    fn cross_read_pages(&self) -> Vec<PageId> {
        Vec::new()
    }
}

/// One log record: an LSN and a method-specific payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WalRecord<P> {
    /// The record's log sequence number.
    pub lsn: Lsn,
    /// The logged content.
    pub payload: P,
}

/// A record encoded for the log with no lock held: its whole frame —
/// length stamped, LSN and CRC still blank — and the pages that frame
/// is chained under once stable. Appending one cannot fail: every error
/// an append can raise is raised where this is built.
#[derive(Clone, Debug)]
pub struct EncodedRecord {
    frame: Vec<u8>,
    writes: Vec<PageId>,
    cross_reads: Vec<PageId>,
}

impl EncodedRecord {
    /// Frames a body — `prefix`, then whatever `put` appends — that
    /// writes `writes` and reads `cross_reads` besides.
    ///
    /// # Errors
    ///
    /// [`SimError::FieldOverflow`] from `put`;
    /// [`SimError::OversizedRecord`] if the body exceeds the 32-bit
    /// frame length field.
    pub(crate) fn new(
        prefix: &[u8],
        put: impl FnOnce(&mut Vec<u8>) -> SimResult<()>,
        writes: Vec<PageId>,
        cross_reads: Vec<PageId>,
    ) -> SimResult<EncodedRecord> {
        let mut frame = vec![0; FRAME_HEADER];
        frame.extend_from_slice(prefix);
        put(&mut frame)?;
        let body = frame.len() - FRAME_HEADER;
        let len =
            u32::try_from(body).map_err(|_| SimError::OversizedRecord(body - prefix.len()))?;
        frame[8..12].copy_from_slice(&len.to_le_bytes());
        Ok(EncodedRecord {
            frame,
            writes,
            cross_reads,
        })
    }

    /// [`EncodedRecord::new`] of a whole payload — the only place the
    /// write side calls a payload's `encode`, `write_pages` and
    /// `cross_read_pages`.
    pub(crate) fn of<P: LogPayload>(prefix: &[u8], payload: &P) -> SimResult<EncodedRecord> {
        let (writes, cross_reads) = (payload.write_pages(), payload.cross_read_pages());
        EncodedRecord::new(prefix, |buf| payload.encode(buf), writes, cross_reads)
    }
}

/// The write side's one frame writer: copies `frame` to the end of
/// `out`, then stamps the LSN and the CRC that covers it.
fn push_frame(out: &mut Vec<u8>, lsn: Lsn, frame: &[u8]) {
    let start = out.len();
    out.extend_from_slice(frame);
    out[start..start + 8].copy_from_slice(&lsn.0.to_le_bytes());
    let crc = frame_crc(&out[start..start + 12], &out[start + FRAME_HEADER..]);
    out[start + 12..start + FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
}

/// One frame of the volatile tail: what a force needs to cover it
/// without looking inside — its LSN, its length in the tail bytes, and
/// how many entries of the tail's page list it owns.
#[derive(Clone, Copy, Debug)]
struct TailFrame {
    lsn: Lsn,
    len: usize,
    writes: usize,
    cross_reads: usize,
}

/// One shard of a [`ShardedLog`]: an untyped log of framed bytes — one
/// append-only frame image, `archive ∥ live`, split at the live origin
/// (and persisted by a [`FileLog`] on the file backend), the volatile
/// tail, and the seek index and per-page chains over the live frames.
/// Only [`ShardedLog::on`] builds one, and frames reach it only through
/// [`LogManager::append_at`] and [`LogManager::flush_with_bracket`].
#[derive(Clone, Debug)]
pub(crate) struct LogManager {
    /// The stable image: every byte a force landed, a torn frame's
    /// fragment included until [`LogManager::repair_tail`] drops it.
    /// Frames below `live` are the archive, drained from the live log
    /// but kept, so the image is the shard's whole history.
    image: Vec<u8>,
    /// The live origin: the offset of the first frame at or above
    /// `first_stable`. Bookkeeping like `first_stable`, which a drain
    /// advances; only a compaction moves bytes below it.
    live: usize,
    /// The file persisting `image` on [`BackendKind::File`].
    medium: Option<FileLog>,
    stable_lsn: Lsn,
    /// Whole live frames.
    stable_count: usize,
    /// The lowest LSN still present in the live log. Starts at 1; a
    /// drain ([`LogManager::apply_drain`]) advances it. The live frames
    /// of a dense log hold exactly LSNs `first_stable..=stable_lsn`.
    first_stable: Lsn,
    /// The volatile tail: whole frames, contiguous and in LSN order,
    /// exactly the bytes a force will copy out.
    tail: Vec<u8>,
    /// One entry per frame of `tail`, in order.
    tail_frames: Vec<TailFrame>,
    /// Each tail frame's written pages, then its cross-read pages.
    tail_pages: Vec<PageId>,
    truncated_bytes: u64,
    /// Sparse LSN → image-offset index: one entry per [`SEEK_INTERVAL`]
    /// records, pushed as frames are covered by a flush. Entries only
    /// ever point at live frame starts the stable bookkeeping covers, so
    /// tail repair can only drop them wholesale.
    seek_index: Vec<(Lsn, u64)>,
    seek_enabled: bool,
    /// Per-page record chains: for every page some stable record
    /// writes, the (LSN, image offset) of each such record, in LSN
    /// order — the per-page next-LSN links on-demand recovery follows.
    /// Maintained exactly like the seek index: entries are pushed as
    /// frames become stable, pruned with the covered prefix on
    /// crash/repair, and dropped below the origin by a drain (the same
    /// helpers keep the two structures from ever disagreeing).
    page_chains: BTreeMap<PageId, Vec<(Lsn, u64)>>,
    /// The end of the live frames [`LogManager::repair_tail`]'s CRC
    /// walk verified since the last crash: a read trusts the checksum
    /// of a live frame that ends at or before it, so each frame is
    /// verified once per restart; archived frames are always
    /// checksummed. A crash resets it, a rollback clamps it, and appends
    /// never extend it.
    verified: usize,
    /// Per-page cross-reader chains: for every page some stable record
    /// reads *without* writing, the (LSN, image offset) of each such
    /// record, in LSN order. Pushed, pruned and rebased with
    /// `page_chains`, through the same helpers at the same sites.
    reader_chains: BTreeMap<PageId, Vec<(Lsn, u64)>>,
    forces: u64,
}

impl LogManager {
    /// An empty log on the given backend.
    pub(crate) fn on(kind: BackendKind) -> LogManager {
        LogManager {
            image: Vec::new(),
            live: 0,
            medium: (kind == BackendKind::File).then(FileLog::new_temp),
            stable_lsn: Lsn::ZERO,
            stable_count: 0,
            first_stable: Lsn(1),
            tail: Vec::new(),
            tail_frames: Vec::new(),
            tail_pages: Vec::new(),
            truncated_bytes: 0,
            seek_index: Vec::new(),
            seek_enabled: true,
            page_chains: BTreeMap::new(),
            verified: 0,
            reader_chains: BTreeMap::new(),
            forces: 0,
        }
    }

    /// Frames `rec` at the end of the tail under an externally assigned
    /// LSN — the sharded log's sequencer hands each shard its slice of
    /// the global sequence this way. `lsn` must be above every LSN this
    /// log holds.
    pub(crate) fn append_at(&mut self, lsn: Lsn, rec: &EncodedRecord) {
        debug_assert!(
            lsn > self.tail_frames.last().map_or(self.stable_lsn, |f| f.lsn),
            "LSNs must be appended in order"
        );
        push_frame(&mut self.tail, lsn, &rec.frame);
        self.tail_pages.extend_from_slice(&rec.writes);
        self.tail_pages.extend_from_slice(&rec.cross_reads);
        self.tail_frames.push(TailFrame {
            lsn,
            len: rec.frame.len(),
            writes: rec.writes.len(),
            cross_reads: rec.cross_reads.len(),
        });
    }

    /// The tail's extent under `upto`: its lowest LSN, and its highest
    /// at or below `upto` — `None` when a force through `upto` would
    /// cover nothing.
    pub(crate) fn tail_extent(&self, upto: Lsn) -> Option<(Lsn, Lsn)> {
        let covered = self.tail_frames.partition_point(|f| f.lsn <= upto);
        let last = self.tail_frames[..covered].last()?;
        Some((self.tail_frames[0].lsn, last.lsn))
    }

    /// Forces the log through `upto` (inclusive): copies the covered
    /// frames of the tail to the end of the image in a single extend —
    /// a group commit (one `fsync` on the file backend). Flushing past
    /// the end of the tail forces everything.
    ///
    /// `bracket`, when given, is the sharded log's flush-group
    /// `Open`/`Close` marker pair, each with its LSN, written into the
    /// *same* batch: `Open` before the first covered record, `Close`
    /// after the last. A halt anywhere in the batch drops the `Close`,
    /// which is exactly the durable signal crash analysis uses to roll
    /// the group back. Bracket frames never enter the tail.
    ///
    /// Fault semantics are per frame: every frame the force covers is
    /// one faultable event, so an armed `injector` — the log's shared
    /// crash-point switchboard — may stop the
    /// batch at any frame boundary (a clean crash point) or truncate a
    /// frame mid-way ([`crate::fault::FaultKind::TornFlush`]) — the
    /// batch is cut there and later frames never reach it. A truncated
    /// frame's bytes land on disk but the stable bookkeeping never
    /// covers them — a read reports the fragment as
    /// [`SimError::Corrupt`] and [`LogManager::repair_tail`] discards
    /// it.
    pub(crate) fn flush_with_bracket(
        &mut self,
        injector: &FaultInjector,
        upto: Lsn,
        bracket: Option<[(Lsn, &EncodedRecord); 2]>,
    ) {
        let base = self.image.len();
        let frames = std::mem::take(&mut self.tail_frames);
        let pages = std::mem::take(&mut self.tail_pages);
        // Only brackets are written here; the records' frames are
        // copied out of the tail, where the append left them.
        let mut batch = Vec::new();
        let mut live = true;
        if let Some([(lsn, open), _]) = bracket {
            push_frame(&mut batch, lsn, &open.frame);
            let landed = self.land_frame(injector, lsn, base, batch.len(), true, (&[], &[]));
            live = landed == batch.len();
            batch.truncate(landed);
        }
        // Whole frames landed, their bytes, their page entries — and
        // the bytes of a frame torn after them.
        let (mut whole, mut bytes, mut paged, mut torn) = (0, 0, 0, 0);
        for f in &frames {
            if !live || f.lsn > upto {
                break;
            }
            let frame_pages = pages[paged..paged + f.writes + f.cross_reads].split_at(f.writes);
            let at = base + batch.len() + bytes;
            let landed = self.land_frame(injector, f.lsn, at, f.len, true, frame_pages);
            if landed == f.len {
                (whole, bytes, paged) =
                    (whole + 1, bytes + f.len, paged + f.writes + f.cross_reads);
            } else {
                (torn, live) = (landed, false);
            }
        }
        let sent = bytes + torn;
        let out = match bracket {
            None => &self.tail[..sent],
            Some([_, (lsn, close)]) => {
                batch.extend_from_slice(&self.tail[..sent]);
                if live {
                    // A `Close` repeats the group's covering LSN after
                    // the records it covers, so it anchors no seek: an
                    // entry there would land past the shard's own
                    // record at that LSN.
                    let at = batch.len();
                    push_frame(&mut batch, lsn, &close.frame);
                    let len = batch.len() - at;
                    let landed = self.land_frame(injector, lsn, base + at, len, false, (&[], &[]));
                    batch.truncate(at + landed);
                }
                &batch[..]
            }
        };
        if !out.is_empty() {
            self.forces += 1;
            self.image.extend_from_slice(out);
            if let Some(medium) = &mut self.medium {
                medium.append(out);
            }
        }
        self.tail.drain(..bytes);
        self.tail_frames = frames;
        self.tail_frames.drain(..whole);
        self.tail_pages = pages;
        self.tail_pages.drain(..paged);
    }

    /// One faultable frame of a force — `len` bytes bound for image
    /// offset `at` — put to the injector. Returns how many of its bytes
    /// reach the image: all of them, and the stable bookkeeping
    /// advances over the frame; or fewer, and the force halts here (a
    /// torn frame keeps a strict, nonempty part, a suppressed one
    /// nothing), with the frame still in the tail. A landed frame is
    /// chained under its written and its cross-read `pages`.
    fn land_frame(
        &mut self,
        injector: &FaultInjector,
        lsn: Lsn,
        at: usize,
        len: usize,
        anchors_seek: bool,
        (writes, cross_reads): (&[PageId], &[PageId]),
    ) -> usize {
        match injector.on_log_flush() {
            FaultDecision::Proceed => {
                let entry = (lsn, at as u64);
                if self.seek_enabled
                    && anchors_seek
                    && self.stable_count.is_multiple_of(SEEK_INTERVAL)
                {
                    self.seek_index.push(entry);
                }
                for &page in writes {
                    self.page_chains.entry(page).or_default().push(entry);
                }
                for &page in cross_reads {
                    self.reader_chains.entry(page).or_default().push(entry);
                }
                self.stable_lsn = lsn;
                self.stable_count += 1;
                len
            }
            FaultDecision::Truncate { bytes } => bytes.clamp(1, len - 1),
            FaultDecision::Suppress | FaultDecision::Tear { .. } => 0,
        }
    }

    /// The highest durable LSN.
    pub(crate) fn stable_lsn(&self) -> Lsn {
        self.stable_lsn
    }

    /// Every `sync_data` the file medium issued (0 in memory) — the
    /// fsync-bound cost axis of the file benchmarks.
    pub(crate) fn syncs(&self) -> u64 {
        self.medium.as_ref().map_or(0, FileLog::syncs)
    }

    /// The file holding the image, on the file backend (tests damage it
    /// out-of-band to exercise real-file repair).
    pub(crate) fn path(&self) -> Option<&std::path::Path> {
        self.medium.as_ref().map(FileLog::path)
    }

    /// Simulates a crash: the volatile tail vanishes; the image, being
    /// disk-resident bytes, survives (on the file backend, as the file
    /// holds it), and so does the live origin, bookkeeping like
    /// `first_stable`. The stable bookkeeping (stable LSN, record count,
    /// seek index) is *re-derived* from the surviving live frames,
    /// exactly as a reopening process would — so out-of-band damage to
    /// a file-backed log (a real `truncate(2)` at an arbitrary byte) is
    /// observed here, and LSN assignment resumes after whatever the log
    /// actually still ends with.
    pub(crate) fn crash(&mut self) {
        self.tail.clear();
        self.tail_frames.clear();
        self.tail_pages.clear();
        if let Some(medium) = &mut self.medium {
            self.image = medium.reload();
        }
        self.verified = 0;
        // `first_stable` is 1-based by construction (it starts at 1 and
        // truncation only advances it); a zero here would wrap the
        // empty-image stable LSN to u64::MAX, so fail loudly instead.
        assert!(
            self.first_stable.0 >= 1,
            "first_stable invariant violated: {:?} (must be >= 1)",
            self.first_stable
        );
        // A file cut out of band below the origin leaves no live frame.
        self.live = self.live.min(self.image.len());
        debug_assert!(
            self.live == self.image.len()
                || self.live == skip_frames_below(&self.image, 0, self.first_stable).0,
            "the live origin is the first frame at or above first_stable"
        );
        // Walk the surviving live frames: CRC-valid whole frames are
        // stable; the first damaged or partial frame ends the covered
        // prefix (repair_tail discards the fragment later).
        let (pos, frames, last_lsn) = walk_valid_frames(&self.image, self.live);
        self.stable_count = frames;
        self.stable_lsn = last_lsn.unwrap_or(Lsn(self.first_stable.0 - 1));
        self.prune_to(pos);
    }

    /// Drops every seek and chain entry at or past `pos`, or above the
    /// stable LSN.
    fn prune_to(&mut self, pos: usize) {
        prune_index_to_prefix(&mut self.seek_index, pos, self.stable_lsn);
        prune_chains_to_prefix(&mut self.page_chains, pos, self.stable_lsn);
        prune_chains_to_prefix(&mut self.reader_chains, pos, self.stable_lsn);
    }

    /// Where a read from LSN `from` starts: the offset of the first
    /// live frame with LSN ≥ `from`, and what finding it cost.
    ///
    /// The sparse seek index supplies the long jump (greatest indexed
    /// frame with LSN ≤ `from`); a structural header walk — LSN and
    /// length fields only, no payload decode — lands exactly. With no
    /// entry to jump to the walk starts at the live origin: slower, but
    /// still decoding no payload below `from`.
    pub(crate) fn seek(&self, from: Lsn) -> (usize, ScanStats) {
        let i = self.seek_index.partition_point(|&(lsn, _)| lsn <= from);
        let start = i
            .checked_sub(1)
            .map_or(self.live, |i| self.seek_index[i].1 as usize);
        // One past the image names nothing.
        let start = if start > self.image.len() {
            self.live
        } else {
            start
        };
        let (pos, skipped) = skip_frames_below(&self.image, start, from);
        let stats = ScanStats {
            // The header walk reads FRAME_HEADER bytes per skipped
            // frame; the seek jump itself touches nothing — that
            // difference is exactly what the telemetry should show.
            bytes_scanned: skipped as u64 * FRAME_HEADER as u64,
            seek_hits: usize::from(start > self.live),
            ..ScanStats::default()
        };
        (pos, stats)
    }

    /// Drops the seek index and stops maintaining it;
    /// [`LogManager::seek`] falls back to a pure header walk from the
    /// live origin.
    pub(crate) fn disable_seek_index(&mut self) {
        self.seek_index.clear();
        self.seek_enabled = false;
    }

    /// The sparse seek index (LSN → image offset), for inspection.
    pub(crate) fn seek_index(&self) -> &[(Lsn, u64)] {
        &self.seek_index
    }

    /// Number of coalesced stable appends (group-commit forces) that
    /// have landed bytes so far.
    pub(crate) fn forces(&self) -> u64 {
        self.forces
    }

    /// The checksum extent a read of the frame at `pos` may trust:
    /// the verified live frames', none below the origin.
    pub(crate) fn trusted(&self, pos: usize) -> usize {
        if pos >= self.live {
            self.verified
        } else {
            0
        }
    }

    /// Image bytes at or after the first live frame with LSN ≥ `from` —
    /// the volume a restart scanning from `from` would read off this
    /// log. Pure telemetry (the seek, no payload decode); the checkpoint
    /// controller compares it against the restart budget.
    pub(crate) fn suffix_bytes(&self, from: Lsn) -> u64 {
        (self.image.len() - self.seek(from).0) as u64
    }

    /// Discards a torn tail: walks the live frames (header structure
    /// *and* CRC-32C verification) and truncates the image at the first
    /// frame that does not fit or does not verify — the fragment a
    /// [`crate::fault::FaultKind::TornFlush`] crash point (or a real
    /// partial file write) left behind. Returns the number of bytes
    /// dropped. The post-crash bookkeeping never covered the fragment,
    /// so it is already consistent with the repaired image, and what
    /// survives is the verified prefix later reads trust. The walk
    /// starts past the frames an earlier repair since the crash
    /// verified, so a restart that repairs twice walks each frame once.
    pub(crate) fn repair_tail(&mut self) -> usize {
        let (pos, _, _) = walk_valid_frames(&self.image, self.verified.max(self.live));
        let dropped = self.image.len() - pos;
        self.verified = pos;
        if dropped == 0 {
            // The crash walk already pruned every entry to this same
            // covered prefix, so the prunes below would remove nothing.
            debug_assert!(
                index_within_prefix(&self.seek_index, pos, self.stable_lsn)
                    && (self.page_chains.values())
                        .chain(self.reader_chains.values())
                        .all(|chain| index_within_prefix(chain, pos, self.stable_lsn)),
                "a seek or chain entry points at or past the covered end"
            );
            return 0;
        }
        self.truncate(pos);
        // Seek and chain entries only ever point at covered frame
        // starts, all of which the walk keeps; the prune is
        // belt-and-braces against an entry landing in the dropped
        // fragment.
        self.prune_to(pos);
        dropped
    }

    /// Physically cuts the image back to byte offset `pos` — a live
    /// frame boundary inside the valid prefix — and re-derives the
    /// bookkeeping from what survives, exactly as a reopen would. This
    /// is the sharded log's crash-time rollback of an incomplete
    /// cross-shard flush group: everything from the group's `Open`
    /// marker onward is discarded on this shard.
    pub(crate) fn rollback_to(&mut self, pos: usize) {
        self.truncate(pos);
        self.verified = self.verified.min(pos);
        let (covered, frames, last_lsn) = walk_valid_frames(&self.image, self.live);
        debug_assert_eq!(
            covered,
            self.image.len(),
            "rollback must cut at a live frame boundary"
        );
        self.stable_count = frames;
        self.stable_lsn = last_lsn.unwrap_or(Lsn(self.first_stable.0 - 1));
        self.prune_to(covered);
    }

    /// Cuts the image back to `pos` bytes, on the file too.
    fn truncate(&mut self, pos: usize) {
        self.image.truncate(pos);
        if let Some(medium) = &mut self.medium {
            medium.truncate(pos);
        }
    }

    /// Plans (without applying) the drain of every live frame with
    /// LSN < `below`. All the guards live in the shared planner
    /// (`index::plan_prefix_drain`): `below` is clamped to the stable
    /// end, a bound at or below `first_stable` (including one from a
    /// stale or replayed checkpoint) is a no-op, never an underflow, and
    /// a `dense` log — the lone shard of a single log — keeps its
    /// `first_stable..=stable_lsn` run.
    ///
    /// # Errors
    ///
    /// [`SimError::Corrupt`] at the offending offset if a dense image
    /// is not the LSN run the bookkeeping promises — the walk would
    /// land mid-sequence (e.g. `below` names an LSN the image skips)
    /// and moving the origin there would retire records the checkpoint
    /// still needs.
    pub(crate) fn plan_drain(&self, below: Lsn, dense: bool) -> SimResult<Option<DrainPlan>> {
        plan_prefix_drain(
            &self.image,
            self.live,
            self.first_stable,
            self.stable_lsn,
            below,
            dense,
        )
    }

    /// Applies a drain plan previously produced by
    /// [`LogManager::plan_drain`] for the same `below`: the live origin
    /// moves past the frames below it — which stay in the image, now
    /// archived — and the seek index and chains drop their entries
    /// there. No byte moves and nothing reaches the file. The caller
    /// must have established that no recovery can ever need those
    /// records from the live log — `below` is the redo-start LSN of a
    /// *published* checkpoint. Returns the live bytes drained.
    pub(crate) fn apply_drain(&mut self, below: Lsn, plan: DrainPlan) -> u64 {
        let drained = (plan.pos - self.live) as u64;
        self.truncated_bytes += drained;
        self.live = plan.pos;
        self.stable_count -= plan.skipped;
        self.first_stable = Lsn(below.0.min(self.stable_lsn.0 + 1));
        self.rebase(plan.pos, 0);
        drained
    }

    /// [`rebase_index`] of the seek index and both chain maps.
    fn rebase(&mut self, origin: usize, cut: usize) {
        rebase_index(&mut self.seek_index, origin, cut);
        rebase_chains(&mut self.page_chains, origin, cut);
        rebase_chains(&mut self.reader_chains, origin, cut);
    }

    /// Total bytes drained from the live log over this log's lifetime.
    pub(crate) fn truncated_bytes(&self) -> u64 {
        self.truncated_bytes
    }

    /// Destroys the archived frames with LSN < `genesis` and returns
    /// the bytes reclaimed: a structural header walk, so the cut is a
    /// frame boundary and the rest still a valid frame image. The one
    /// path that moves bytes: the image's front is cut, the origin and
    /// every entry shift with it, and the file is rewritten.
    pub(crate) fn compact_archive(&mut self, genesis: Lsn) -> u64 {
        let (pos, _) = skip_frames_below(&self.image[..self.live], 0, genesis);
        if pos > 0 {
            self.image.drain(..pos);
            self.live -= pos;
            self.verified = self.verified.saturating_sub(pos);
            self.rebase(0, pos);
            if let Some(medium) = &mut self.medium {
                medium.rewrite(&self.image);
            }
        }
        pos as u64
    }

    /// The per-page chain for `page`: the (LSN, image offset) of
    /// every stable record that writes it, in LSN order. Empty when no
    /// stable record writes the page (or the payload type reports no
    /// page work). On-demand recovery replays exactly this chain —
    /// filtered by the analysis bound — to bring one page current
    /// without scanning the rest of the log.
    pub(crate) fn page_chain(&self, page: PageId) -> &[(Lsn, u64)] {
        self.page_chains
            .get(&page)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Every page with at least one stable chained record, in id order.
    pub(crate) fn chained_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.page_chains.keys().copied()
    }

    /// Every non-empty writer chain as `(page, chain)`, in id order —
    /// one walk of the map, no lookup per page.
    pub(crate) fn page_chains(&self) -> impl Iterator<Item = (PageId, &[(Lsn, u64)])> + '_ {
        self.page_chains.iter().map(|(&p, c)| (p, c.as_slice()))
    }

    /// Every non-empty cross-reader chain as `(page, chain)`, in id
    /// order, as [`LogManager::page_chains`].
    pub(crate) fn reader_chains(&self) -> impl Iterator<Item = (PageId, &[(Lsn, u64)])> + '_ {
        self.reader_chains.iter().map(|(&p, c)| (p, c.as_slice()))
    }

    /// The cross-reader chain for `page`: the (LSN, image offset)
    /// of every stable record that reads it without writing it, in LSN
    /// order — the read-write edges of §6.4 as seen from the page read.
    pub(crate) fn readers_of(&self, page: PageId) -> &[(Lsn, u64)] {
        self.reader_chains.get(&page).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::sharded::tests::{damage, scan};
    use super::*;
    use redo_workload::pages::{PageOp, PageWorkloadSpec};

    /// A trivial payload for log tests.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Num(u64);

    impl LogPayload for Num {
        fn encode(&self, buf: &mut Vec<u8>) -> SimResult<()> {
            codec::put_u64(buf, self.0);
            Ok(())
        }
        fn decode(input: &[u8], pos: &mut usize) -> SimResult<Self> {
            Ok(Num(codec::get_u64(input, pos)?))
        }
    }

    /// Encodes one well-formed record frame by hand (for image-surgery
    /// tests): the header, the record tag, then `payload`.
    fn raw_frame(lsn: u64, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        codec::put_u64(&mut out, lsn);
        codec::put_u32(&mut out, u32::try_from(payload.len() + 1).unwrap());
        codec::put_u32(&mut out, 0);
        codec::put_u8(&mut out, 0);
        out.extend_from_slice(payload);
        let crc = frame_crc(&out[..12], &out[FRAME_HEADER..]);
        out[12..FRAME_HEADER].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Every stable record — nothing here is archived, so the whole
    /// history through the stable end is the live log.
    fn stable<P: LogPayload>(log: &ShardedLog<P>) -> SimResult<Vec<WalRecord<P>>> {
        log.pit_records(log.stable_lsn())
    }

    /// The live records from `from` on, read by the restart scanner.
    fn live<P: LogPayload>(log: &ShardedLog<P>, from: Lsn) -> Vec<WalRecord<P>> {
        let (records, end, _) = scan(log, from, 8);
        end.unwrap();
        records
    }

    /// What the scanner's read from `from` cost.
    fn stats<P: LogPayload>(log: &ShardedLog<P>, from: Lsn) -> ScanStats {
        scan(log, from, 8).2
    }

    /// The single log's live frames.
    fn image<P>(log: &ShardedLog<P>) -> &[u8] {
        let shard = &log.shards[0];
        &shard.image[shard.live..]
    }

    /// Records in the single log's volatile tail (lost on crash).
    fn volatile<P>(log: &ShardedLog<P>) -> usize {
        log.shards[0].tail_frames.len()
    }

    #[test]
    fn lsns_are_monotone_from_one() {
        let mut log = ShardedLog::new(1);
        assert_eq!(log.append(Num(10)).unwrap(), Lsn(1));
        assert_eq!(log.append(Num(20)).unwrap(), Lsn(2));
        assert_eq!(log.last_lsn(), Lsn(2));
        assert_eq!(log.stable_lsn(), Lsn::ZERO);
    }

    #[test]
    fn flush_moves_prefix_to_stable() {
        let mut log = ShardedLog::new(1);
        for i in 0..5 {
            log.append(Num(i)).unwrap();
        }
        log.flush(Lsn(3));
        assert_eq!(log.stable_lsn(), Lsn(3));
        assert_eq!(log.stable_count(), 3);
        assert_eq!(volatile(&log), 2);
        let decoded = stable(&log).unwrap();
        assert_eq!(decoded.len(), 3);
        assert_eq!(
            decoded[2],
            WalRecord {
                lsn: Lsn(3),
                payload: Num(2)
            }
        );
    }

    #[test]
    fn crash_loses_volatile_tail_only() {
        let mut log = ShardedLog::new(1);
        for i in 0..5 {
            log.append(Num(i)).unwrap();
        }
        log.flush(Lsn(2));
        log.crash();
        assert_eq!(volatile(&log), 0);
        assert_eq!(log.stable_lsn(), Lsn(2));
        // LSNs resume after the stable point, as re-derived from the log.
        assert_eq!(log.append(Num(99)).unwrap(), Lsn(3));
        let decoded = stable(&log).unwrap();
        assert_eq!(decoded.len(), 2);
    }

    #[test]
    fn flush_all_then_roundtrip() {
        let mut log = ShardedLog::new(1);
        for i in 0..10 {
            log.append(Num(i * i)).unwrap();
        }
        log.flush_all();
        let decoded = stable(&log).unwrap();
        assert_eq!(decoded.len(), 10);
        for (i, rec) in decoded.iter().enumerate() {
            assert_eq!(rec.payload, Num((i * i) as u64));
            assert_eq!(rec.lsn, Lsn(i as u64 + 1));
        }
    }

    #[test]
    fn appended_bytes_counts_everything() {
        let mut log = ShardedLog::new(1);
        log.append(Num(1)).unwrap();
        let one = log.appended_bytes();
        assert!(one > 0);
        log.append(Num(2)).unwrap();
        assert_eq!(log.appended_bytes(), one * 2);
    }

    #[test]
    fn corrupt_stable_bytes_detected() {
        #[derive(Clone, Debug, PartialEq)]
        struct Bad;
        impl LogPayload for Bad {
            fn encode(&self, buf: &mut Vec<u8>) -> SimResult<()> {
                codec::put_u8(buf, 1);
                Ok(())
            }
            fn decode(input: &[u8], pos: &mut usize) -> SimResult<Self> {
                // Claims to need more than was written.
                codec::get_u64(input, pos)?;
                Ok(Bad)
            }
        }
        let mut log = ShardedLog::new(1);
        log.append(Bad).unwrap();
        log.flush_all();
        assert!(matches!(stable(&log), Err(SimError::Corrupt(_))));
    }

    #[test]
    fn frame_crc_catches_a_body_bit_flip() {
        let mut log = ShardedLog::<Num>::new(1);
        log.append(Num(7)).unwrap();
        log.flush_all();
        // A bit flip inside the body of an image that is structurally
        // fine: only the checksum can catch it. (A Num body of any value
        // decodes, so the pre-CRC format could not.)
        let mut flipped = log.clone();
        let body_at = FRAME_HEADER + 3;
        damage(&mut flipped, 0, |image| image[body_at] ^= 0x40);
        assert!(
            matches!(
                stable(&flipped),
                Err(SimError::Corrupt(off)) if off == 12
            ),
            "flip must be reported at the CRC field"
        );
        // Intact image still decodes.
        assert_eq!(stable(&log).unwrap().len(), 1);
    }

    #[test]
    fn frame_crc_catches_a_header_bit_flip() {
        let mut image = raw_frame(1, &42u64.to_le_bytes());
        image.extend_from_slice(&raw_frame(2, &43u64.to_le_bytes()));
        image[2] ^= 0x01; // inside the first frame's LSN field
        let mut log = ShardedLog::<Num>::new(1);
        damage(&mut log, 0, |bytes| *bytes = image);
        assert!(matches!(
            log.pit_records(Lsn(u64::MAX)),
            Err(SimError::Corrupt(_))
        ));
    }

    #[test]
    fn oversized_payload_is_rejected_at_append() {
        // A payload that *claims* an enormous encoding without
        // allocating it would corrupt the frame stream; the checked path
        // rejects anything the 32-bit length field cannot describe.
        // Faking >4 GiB through the real encoder is not practical in a
        // unit test, so exercise the checked conversion directly…
        assert!(u32::try_from(usize::try_from(u64::from(u32::MAX) + 1).unwrap()).is_err());
        // …and the field-overflow path through the page-op codec.
        let op = PageOp {
            id: 1,
            kind: redo_workload::pages::PageOpKind::Physiological,
            reads: vec![
                redo_workload::pages::Cell {
                    page: redo_workload::pages::PageId(0),
                    slot: redo_workload::pages::SlotId(0),
                };
                usize::from(u16::MAX) + 1
            ],
            writes: Vec::new(),
            f_seed: 0,
        };
        let mut buf = Vec::new();
        assert_eq!(
            codec::put_page_op(&mut buf, &op),
            Err(SimError::FieldOverflow {
                field: "page-op read count",
                value: u64::from(u16::MAX) + 1,
            })
        );
    }

    #[test]
    fn page_op_codec_roundtrip() {
        let spec = PageWorkloadSpec {
            n_ops: 20,
            cross_page_fraction: 0.5,
            blind_fraction: 0.2,
            ..Default::default()
        };
        for op in spec.generate(4) {
            let mut buf = Vec::new();
            codec::put_page_op(&mut buf, &op).unwrap();
            let mut pos = 0;
            let back: PageOp = codec::get_page_op(&buf, &mut pos).unwrap();
            assert_eq!(back, op);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn page_op_codec_rejects_bad_kind() {
        let op = PageWorkloadSpec::default().generate(1).remove(0);
        let mut buf = Vec::new();
        codec::put_page_op(&mut buf, &op).unwrap();
        buf[4] = 77; // corrupt the kind byte
        let mut pos = 0;
        assert!(matches!(
            codec::get_page_op(&buf, &mut pos),
            Err(SimError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_input_is_corrupt_not_panic() {
        let mut buf = Vec::new();
        codec::put_u64(&mut buf, 5);
        let mut pos = 0;
        assert!(codec::get_u64(&buf, &mut pos).is_ok());
        assert!(matches!(
            codec::get_u32(&buf, &mut pos),
            Err(SimError::Corrupt(_))
        ));
    }

    #[test]
    fn torn_flush_truncates_mid_record_and_repair_drops_fragment() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut log = ShardedLog::new(1);
        log.append(Num(10)).unwrap();
        log.append(Num(20)).unwrap();
        log.append(Num(30)).unwrap();
        // The second record's flush tears 5 bytes in (inside its LSN
        // field).
        log.injector.arm(FaultPlan {
            at: 2,
            kind: FaultKind::TornFlush { bytes: 5 },
        });
        log.flush_all();
        // Only the first record became stable; the fragment is on disk
        // but uncovered by the bookkeeping.
        assert_eq!(log.stable_lsn(), Lsn(1));
        assert_eq!(log.stable_count(), 1);
        assert!(
            matches!(stable(&log), Err(SimError::Corrupt(_))),
            "the torn fragment must read as corruption"
        );
        log.injector.reset();
        log.crash();
        let dropped = log.repair_tail();
        assert_eq!(dropped, 5);
        let decoded = stable(&log).unwrap();
        assert_eq!(decoded.len(), 1);
        assert_eq!(decoded[0].payload, Num(10));
        // The un-flushed records were lost with the volatile tail; LSN
        // assignment resumes after the stable point.
        assert_eq!(log.append(Num(40)).unwrap(), Lsn(2));
    }

    #[test]
    fn clean_crash_point_stops_flush_between_records() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut log = ShardedLog::new(1);
        for i in 0..4 {
            log.append(Num(i)).unwrap();
        }
        log.injector.arm(FaultPlan {
            at: 3,
            kind: FaultKind::Clean,
        });
        log.flush_all();
        assert_eq!(log.stable_count(), 2);
        assert_eq!(log.stable_lsn(), Lsn(2));
        // No fragment: the stable image decodes cleanly as-is, and
        // repair is an in-place no-op — no whole-log copy needed.
        assert_eq!(stable(&log).unwrap().len(), 2);
        assert_eq!(log.repair_tail(), 0);
        assert_eq!(stable(&log).unwrap().len(), 2);
    }

    #[test]
    fn repair_tail_is_noop_on_intact_log() {
        let mut log = ShardedLog::new(1);
        for i in 0..6 {
            log.append(Num(i)).unwrap();
        }
        log.flush_all();
        assert_eq!(log.repair_tail(), 0);
        assert_eq!(stable(&log).unwrap().len(), 6);
    }

    /// Builds a fully flushed single log of `n` numbered records.
    fn numbered_log(n: u64) -> ShardedLog<Num> {
        numbered_log_on(BackendKind::Mem, n)
    }

    fn numbered_log_on(kind: BackendKind, n: u64) -> ShardedLog<Num> {
        let mut log = ShardedLog::on(kind, 1);
        for i in 0..n {
            log.append(Num(i * 3)).unwrap();
        }
        log.flush_all();
        log
    }

    #[test]
    fn scanner_streams_the_same_records_the_history_holds() {
        let log = numbered_log(40);
        let full = stable(&log).unwrap();
        assert_eq!(live(&log, Lsn::ZERO), full);
        let cost = stats(&log, Lsn::ZERO);
        assert_eq!(cost.records_decoded, 40);
        assert_eq!(cost.bytes_scanned, image(&log).len() as u64);
        assert_eq!(cost.seek_hits, 0);
    }

    #[test]
    fn seeked_scan_yields_the_exact_suffix() {
        let log = numbered_log(41);
        let full = stable(&log).unwrap();
        for from in 1..=42u64 {
            let suffix = live(&log, Lsn(from));
            assert_eq!(&suffix[..], &full[(from as usize - 1).min(full.len())..]);
        }
        // A seek well past the first index entry must actually use it.
        let cost = stats(&log, Lsn(33));
        assert_eq!(cost.seek_hits, 1);
        // The suffix decode touches fewer bytes than the full image.
        assert!(cost.bytes_scanned < image(&log).len() as u64);
        assert_eq!(cost.records_decoded, 9);
    }

    #[test]
    fn disabled_seek_index_still_lands_on_the_right_record() {
        let mut log = numbered_log(40);
        assert!(!log.shard_seek_index(0).is_empty());
        let seeked = live(&log, Lsn(20));
        log.disable_seek_index();
        assert!(log.shard_seek_index(0).is_empty());
        let walked = live(&log, Lsn(20));
        assert_eq!(walked, seeked);
        assert_eq!(stats(&log, Lsn(20)).seek_hits, 0);
        // The index stays off across later flushes.
        log.append(Num(999)).unwrap();
        log.flush_all();
        assert!(log.shard_seek_index(0).is_empty());
    }

    #[test]
    fn flush_batches_count_as_single_forces() {
        let mut log = ShardedLog::new(1);
        for i in 0..10 {
            log.append(Num(i)).unwrap();
        }
        log.flush(Lsn(6));
        log.flush_all();
        assert_eq!(log.forces(), 2, "one coalesced append per force");
        log.flush_all();
        assert_eq!(log.forces(), 2, "an empty force lands no bytes");
        assert_eq!(stable(&log).unwrap().len(), 10);
    }

    #[test]
    fn file_backend_syncs_once_per_force() {
        let mut log = ShardedLog::on(BackendKind::File, 1);
        for i in 0..10 {
            log.append(Num(i)).unwrap();
        }
        log.flush(Lsn(6));
        log.flush_all();
        assert_eq!(log.forces(), 2);
        assert_eq!(log.syncs(), 2, "group commit: one fsync per force");
        assert_eq!(stable(&log).unwrap().len(), 10);
    }

    /// Each kind keeps its image in memory; the file kind also gives
    /// each shard a directory of its own holding its one file.
    #[test]
    fn kind_constructs_matching_media() {
        for kind in [BackendKind::Mem, BackendKind::File] {
            let log = ShardedLog::<Num>::on(kind, 2);
            for shard in &log.shards {
                assert!(shard.image.is_empty());
                assert_eq!(shard.path().is_some(), kind == BackendKind::File);
            }
            if let (Some(a), Some(b)) = (log.shard_path(0), log.shard_path(1)) {
                assert_ne!(a.parent(), b.parent());
                assert!(a.is_file());
            }
        }
    }

    #[test]
    fn file_backend_survives_out_of_band_byte_boundary_truncation() {
        use std::fs::OpenOptions;
        let mut log = numbered_log_on(BackendKind::File, 6);
        let full_len = image(&log).len() as u64;
        // Chop the real file mid-way through the 5th frame — the crash
        // a real machine delivers when the tail write only partly hit
        // the platter.
        let frame = full_len / 6;
        let cut = frame * 4 + 7;
        let f = OpenOptions::new()
            .write(true)
            .open(log.shard_path(0).unwrap())
            .unwrap();
        f.set_len(cut).unwrap();
        drop(f);
        log.crash();
        // Reopen learns the shorter truth: 4 whole frames survive.
        assert_eq!(log.stable_count(), 4);
        assert_eq!(log.stable_lsn(), Lsn(4));
        assert_eq!(log.repair_tail(), 7);
        let recs = stable(&log).unwrap();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs.last().unwrap().lsn, Lsn(4));
        // And the log keeps working: LSNs resume after the surviving
        // end.
        assert_eq!(log.append(Num(7)).unwrap(), Lsn(5));
        log.flush_all();
        assert_eq!(stable(&log).unwrap().len(), 5);
    }

    #[test]
    fn seek_index_is_sparse_and_survives_crash_and_repair() {
        let mut log = numbered_log(20);
        // Entries at records 1, 9, 17 under SEEK_INTERVAL = 8.
        let index = |log: &ShardedLog<Num>| log.shard_seek_index(0).to_vec();
        assert_eq!(index(&log).len(), 20usize.div_ceil(SEEK_INTERVAL));
        assert_eq!(index(&log)[0], (Lsn(1), 0));
        log.crash();
        assert_eq!(index(&log).len(), 3);
        assert_eq!(log.repair_tail(), 0);
        assert_eq!(index(&log).len(), 3);
        let suffix = live(&log, Lsn(18));
        assert_eq!(suffix.len(), 3);
        assert_eq!(suffix[0].lsn, Lsn(18));
    }

    #[test]
    fn torn_flush_leaves_seek_index_consistent_after_repair() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut log = ShardedLog::new(1);
        for i in 0..12 {
            log.append(Num(i)).unwrap();
        }
        // Tear the 10th record's frame: records 1..=9 are covered, so the
        // index entry for record 9 stays valid and the fragment is
        // beyond every entry.
        log.injector.arm(FaultPlan {
            at: 10,
            kind: FaultKind::TornFlush { bytes: 3 },
        });
        log.flush_all();
        log.injector.reset();
        log.crash();
        assert!(log.repair_tail() > 0);
        assert_eq!(log.shard_seek_index(0).len(), 2);
        let tail = live(&log, Lsn(9));
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].lsn, Lsn(9));
    }

    #[test]
    fn truncate_prefix_elides_exactly_the_records_below() {
        let mut log = numbered_log(20);
        let full = stable(&log).unwrap();
        let before = image(&log).len();
        let dropped = log.archive_prefix(Lsn(8)).unwrap();
        assert!(dropped > 0);
        assert_eq!(log.first_stable(), Lsn(8));
        assert_eq!(log.stable_lsn(), Lsn(20));
        assert_eq!(log.stable_count(), 13);
        assert_eq!(log.truncated_records(), 7);
        assert_eq!(log.truncated_bytes(), dropped);
        assert_eq!(image(&log).len() as u64 + dropped, before as u64);
        let rest = live(&log, Lsn::ZERO);
        assert_eq!(&rest[..], &full[7..]);
        // LSN assignment is unaffected.
        assert_eq!(log.append(Num(99)).unwrap(), Lsn(21));
    }

    #[test]
    fn truncate_prefix_is_idempotent_and_clamped() {
        let mut log = numbered_log(10);
        assert_eq!(log.archive_prefix(Lsn(1)).unwrap(), 0, "nothing below 1");
        let dropped = log.archive_prefix(Lsn(5)).unwrap();
        assert!(dropped > 0);
        assert_eq!(log.archive_prefix(Lsn(5)).unwrap(), 0, "already elided");
        assert_eq!(
            log.archive_prefix(Lsn(3)).unwrap(),
            0,
            "below the new origin"
        );
        // A bound past the stable end clamps: the stable suffix may be
        // emptied but un-stable records are never touched.
        log.append(Num(7)).unwrap();
        log.archive_prefix(Lsn(999)).unwrap();
        assert_eq!(log.first_stable(), Lsn(11));
        assert_eq!(log.stable_count(), 0);
        assert_eq!(volatile(&log), 1);
        log.flush_all();
        let rest = live(&log, Lsn::ZERO);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].lsn, Lsn(11));
    }

    #[test]
    fn truncate_below_first_stable_is_a_noop_even_at_zero() {
        // Regression: a stale checkpoint (or a replayed one) may hand in
        // an LSN below the current origin — including LSN 0. That must
        // be a clean no-op, never an underflow or a byte drop.
        let mut log = numbered_log(10);
        log.archive_prefix(Lsn(6)).unwrap();
        let len = image(&log).len();
        for below in [0, 1, 5, 6] {
            assert_eq!(log.archive_prefix(Lsn(below)).unwrap(), 0);
            assert_eq!(image(&log).len(), len);
            assert_eq!(log.first_stable(), Lsn(6));
            assert_eq!(log.stable_count(), 5);
        }
        assert_eq!(live(&log, Lsn::ZERO).len(), 5);
    }

    #[test]
    fn truncate_to_a_missing_lsn_is_an_error_not_a_silent_cut() {
        // Regression: if the stable image is not the dense run the
        // bookkeeping promises (here: LSNs 1 then 3, written to the real
        // file out-of-band), truncating to the missing LSN 2 must
        // refuse — physically cutting at the walk's landing point would
        // destroy the LSN-3 record a recovery may still need.
        let mut log = ShardedLog::<Num>::on(BackendKind::File, 1);
        let mut bytes = raw_frame(1, &10u64.to_le_bytes());
        bytes.extend_from_slice(&raw_frame(3, &30u64.to_le_bytes()));
        std::fs::write(log.shard_path(0).unwrap(), &bytes).unwrap();
        log.crash();
        assert_eq!(log.shards[0].stable_count, 2);
        assert_eq!(log.stable_lsn(), Lsn(3));
        assert!(matches!(
            log.archive_prefix(Lsn(2)),
            Err(SimError::Corrupt(_))
        ));
        assert_eq!(image(&log), &bytes[..], "log untouched on error");
        assert_eq!(log.archived_bytes(), 0, "and nothing archived");
        assert_eq!(log.first_stable(), Lsn(1));
    }

    #[test]
    fn seeks_stay_exact_over_a_truncated_prefix() {
        let mut log = numbered_log(41);
        let full = stable(&log).unwrap();
        log.archive_prefix(Lsn(14)).unwrap();
        // Every seek target — below, at, and above the new origin —
        // still yields exactly the records with LSN >= target that the
        // live image retains.
        for from in 1..=42u64 {
            let suffix = live(&log, Lsn(from));
            let want: Vec<_> = full
                .iter()
                .filter(|r| r.lsn >= Lsn(from.max(14)))
                .cloned()
                .collect();
            assert_eq!(suffix, want, "seek to {from}");
        }
        // Index entries past the origin still jump.
        assert!(stats(&log, Lsn(35)).seek_hits >= 1);
        // New flushes extend the truncated image seamlessly.
        log.append(Num(1000)).unwrap();
        log.flush_all();
        let tail = live(&log, Lsn(42));
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].lsn, Lsn(42));
    }

    #[test]
    fn repair_tail_stays_consistent_after_truncation() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut log = numbered_log(16);
        log.archive_prefix(Lsn(9)).unwrap();
        // Tear a later flush, then repair: the repaired image must still
        // decode as the dense suffix 9..=17.
        log.append(Num(500)).unwrap();
        log.append(Num(501)).unwrap();
        log.injector.arm(FaultPlan {
            at: 2,
            kind: FaultKind::TornFlush { bytes: 6 },
        });
        log.flush_all();
        log.injector.reset();
        log.crash();
        assert!(log.repair_tail() > 0);
        let recs = live(&log, Lsn::ZERO);
        assert_eq!(recs.first().unwrap().lsn, Lsn(9));
        assert_eq!(recs.last().unwrap().lsn, Lsn(17));
        assert_eq!(log.first_stable(), Lsn(9));
        let shard = &log.shards[0];
        for &(lsn, off) in log.shard_seek_index(0) {
            assert!((shard.live..shard.image.len()).contains(&(off as usize)));
            let landed = live(&log, lsn);
            assert_eq!(landed.first().unwrap().lsn, lsn);
        }
    }

    #[test]
    fn truncation_with_disabled_seek_index_keeps_scans_exact() {
        let mut log = numbered_log(30);
        log.disable_seek_index();
        log.archive_prefix(Lsn(12)).unwrap();
        assert!(log.shard_seek_index(0).is_empty());
        let suffix = live(&log, Lsn(20));
        assert_eq!(suffix.first().unwrap().lsn, Lsn(20));
        assert_eq!(suffix.len(), 11);
    }

    /// The same fault schedule must leave the same observable log on
    /// both backends.
    #[test]
    fn backends_agree_under_torn_flush() {
        use crate::fault::{FaultKind, FaultPlan};
        let run = |kind: BackendKind| {
            let mut log = ShardedLog::on(kind, 1);
            for i in 0..9 {
                log.append(Num(i * 7)).unwrap();
            }
            log.injector.arm(FaultPlan {
                at: 6,
                kind: FaultKind::TornFlush { bytes: 11 },
            });
            log.flush_all();
            log.injector.reset();
            log.crash();
            log.repair_tail();
            (
                image(&log).to_vec(),
                log.stable_lsn(),
                log.stable_count(),
                stable(&log).unwrap(),
            )
        };
        assert_eq!(run(BackendKind::Mem), run(BackendKind::File));
    }

    /// A payload that writes one page — the smallest thing the per-page
    /// chains can see.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct PageRec(u32, u64);

    impl LogPayload for PageRec {
        fn encode(&self, buf: &mut Vec<u8>) -> SimResult<()> {
            codec::put_u32(buf, self.0);
            codec::put_u64(buf, self.1);
            Ok(())
        }
        fn decode(input: &[u8], pos: &mut usize) -> SimResult<Self> {
            let page = codec::get_u32(input, pos)?;
            let v = codec::get_u64(input, pos)?;
            Ok(PageRec(page, v))
        }
        fn write_pages(&self) -> Vec<PageId> {
            vec![PageId(self.0)]
        }
    }

    #[test]
    fn page_chains_index_every_stable_write_and_nothing_volatile() {
        let mut log = ShardedLog::new(1);
        for i in 0..9u64 {
            log.append(PageRec((i % 3) as u32, i)).unwrap();
        }
        log.flush(Lsn(6));
        // Only the six stable records are chained, per page, in order.
        let chain0: Vec<Lsn> = log.page_chain(PageId(0)).iter().map(|&(l, _)| l).collect();
        assert_eq!(chain0, vec![Lsn(1), Lsn(4)]);
        assert_eq!(log.page_chain(PageId(2)).len(), 2);
        assert_eq!(log.chained_pages().count(), 3);
        assert!(log.page_chain(PageId(9)).is_empty());
        // Every chain entry random-accesses back to its own record.
        for page in 0..3u32 {
            for &(lsn, off) in log.page_chain(PageId(page)) {
                let rec = log.record_in(0, off).unwrap();
                assert_eq!(rec.lsn, lsn);
                assert_eq!(rec.payload.parse(PageRec::decode).unwrap().0, page);
            }
        }
        // Chains stay in lockstep with the frames across a later flush.
        log.flush_all();
        assert_eq!(log.page_chain(PageId(0)).len(), 3);
    }

    #[test]
    fn page_chains_prune_with_the_tail_and_rebase_over_truncation() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut log = ShardedLog::new(1);
        for i in 0..12u64 {
            log.append(PageRec((i % 2) as u32, i)).unwrap();
        }
        // Tear the 10th record's flush: records 1..=9 stay covered.
        log.injector.arm(FaultPlan {
            at: 10,
            kind: FaultKind::TornFlush { bytes: 3 },
        });
        log.flush_all();
        log.injector.reset();
        log.crash();
        assert!(log.repair_tail() > 0);
        let total: usize = [PageId(0), PageId(1)]
            .iter()
            .map(|&p| log.page_chain(p).len())
            .sum();
        assert_eq!(total, 9, "chains cover exactly the surviving frames");
        for &(lsn, off) in log.page_chain(PageId(1)) {
            assert_eq!(log.record_in(0, off).unwrap().lsn, lsn);
        }
        // Drain the prefix: chain entries below the origin go, like the
        // seek index's, and the rest still land on their frames.
        log.archive_prefix(Lsn(5)).unwrap();
        let chain1: Vec<Lsn> = log.page_chain(PageId(1)).iter().map(|&(l, _)| l).collect();
        assert_eq!(chain1, vec![Lsn(6), Lsn(8)]);
        for p in [PageId(0), PageId(1)] {
            for &(lsn, off) in log.page_chain(p) {
                assert!(lsn >= Lsn(5));
                assert_eq!(log.record_in(0, off).unwrap().lsn, lsn);
            }
        }
    }

    #[test]
    fn out_of_band_file_truncation_prunes_chains_to_the_surviving_prefix() {
        use std::fs::OpenOptions;
        let mut log = ShardedLog::on(BackendKind::File, 1);
        for i in 0..6u64 {
            log.append(PageRec(0, i)).unwrap();
        }
        log.flush_all();
        let frame = image(&log).len() as u64 / 6;
        let f = OpenOptions::new()
            .write(true)
            .open(log.shard_path(0).unwrap())
            .unwrap();
        f.set_len(frame * 4 + 3).unwrap();
        drop(f);
        log.crash();
        assert_eq!(log.stable_count(), 4);
        assert_eq!(
            log.page_chain(PageId(0)).len(),
            4,
            "chain entries beyond the surviving prefix are pruned"
        );
        log.repair_tail();
        for &(lsn, off) in log.page_chain(PageId(0)) {
            assert_eq!(log.record_in(0, off).unwrap().lsn, lsn);
        }
    }

    #[test]
    fn record_in_rejects_non_frame_offsets() {
        let mut log: ShardedLog<PageRec> = ShardedLog::new(1);
        log.append(PageRec(0, 1)).unwrap();
        log.flush_all();
        assert!(log.record_in(0, 3).is_err(), "mid-frame offset is corrupt");
        assert!(
            log.record_in(0, log.suffix_bytes(Lsn::ZERO)).is_err(),
            "image end holds no record"
        );
        // Trusted after a repair, the same offsets are no frames either.
        log.crash();
        log.repair_tail();
        assert!(log.record_in(0, 3).is_err());
        let rec = log.record_in(0, 0).unwrap();
        assert_eq!(rec.payload.parse(PageRec::decode).unwrap(), PageRec(0, 1));
    }
}
