//! The one redo driver (§4, Figure 6, Corollary 4).
//!
//! The paper's claim is that a single procedure —
//! `recover(state, log, checkpoint)` with a pluggable analysis and redo
//! test — covers every §6 method. This module is that procedure over the
//! substrate, in the three pieces every method shares:
//!
//! * [`analyze`] — read the [`Checkpoint`] record the disk master names
//!   into a [`RestartAnalysis`]: where the scan starts, which checkpoint
//!   is in force, and the dirty-page table it logged. There is one
//!   record shape: a redo-start plus a [`DirtyTable`], which is either
//!   the whole table or its delta against the previous record of a
//!   chain. A heavyweight checkpoint is not a third kind — it is the
//!   empty table with a redo-start one past its own LSN.
//! * the serial restart — repair, analyze, seek to the redo-start, walk
//!   the log in place, and replay each record into the one replay
//!   kernel ([`ScratchImage`]), which decides *replayed / skipped*
//!   against its own page LSNs; at the end each page it replayed into
//!   is installed once. A checkpoint record is recognised here, through
//!   [`CheckpointView`], and never reaches the kernel. A method is its
//!   redo test and nothing else: [`recover_ops`] takes the operation
//!   logs' ([`RedoTest`]), and a §6.2/§6.3 method, whose conflicts all
//!   live inside one page, states its test once as a [`PageLocal`]
//!   payload — how a record splits into per-page parts, and one step
//!   that is the redo test and the apply — which [`recover_local`] runs
//!   on the kernel's scratch pages. [`recover`] is the same scan over
//!   the buffer pool, with a [`RedoStep`] that fetches and updates
//!   frames record by record: the B-tree's, whose records the kernel
//!   does not read, is the one step left on it.
//! * checkpoint publication — [`checkpoint_heavyweight`] (flush
//!   everything, then move the master) and [`checkpoint_fuzzy`], the one
//!   online publisher for every payload: diff the pool's table against
//!   the standing `Chain`, then [`publish`] (append → force → verify →
//!   master write → verify → archive the prefix).
//!
//! The other *executors* run the same analysis. Lazy restart — one
//! object, `ondemand::LazyRestart`, under two faces, [`crate::ondemand`]
//! over a sequential [`Db`] and
//! [`crate::concurrent::SharedDb::open_on_demand`] over the sharded
//! store — places its gates with `RestartAnalysis::gates`, drains the
//! owed suffix with this loop's scan (`scan_batch`) in LSN order, and
//! serves a read of a gated page by replaying the page's downset
//! (`RestartAnalysis::downset`, each record read in place) first, all
//! under the generalized redo step; only the store the pages live in
//! differs.
//! Partitioned-parallel restart
//! ([`crate::parallel::recover_partitioned`]) runs the same
//! [`PageLocal`] step as [`recover_local`], on page images its workers
//! hold, over the same `RestartAnalysis::owed_parts`: what a record
//! still owes, and so every replayed/skipped verdict, is decided in
//! one place for both.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::time::Instant;

use redo_sim::db::Db;
use redo_sim::disk::Disk;
use redo_sim::page::PageMut;
use redo_sim::wal::codec::{self, PageOpView};
use redo_sim::wal::{Batch, LogPayload, RecordBody, ShardedLog, ShardedScanner};
use redo_sim::{SimError, SimResult};
use redo_theory::log::Lsn;
use redo_workload::pages::{OpCells, PageId, SlotId};

use crate::media::{RedoTest, ScratchImage};
use crate::oprecord::PageOpPayload;
use crate::{RecoveryStats, SCAN_BATCH};

/// The dirty-page table a checkpoint logs: two encodings of the same
/// `(page, recLSN)` table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DirtyTable {
    /// The whole table, in page-id order.
    Full(Vec<(PageId, Lsn)>),
    /// The table as its difference from the checkpoint record at `prev`.
    /// Analysis rebuilds it by walking `prev` links back to the `Full`
    /// record at `base` and folding the deltas oldest→newest; a broken
    /// link falls back to `base` as logged, and failing that to a full
    /// scan — a delta only ever *narrows* the scan, it can never make
    /// recovery wrong.
    Delta {
        /// The previous checkpoint record in the chain.
        prev: Lsn,
        /// The `Full` record the chain grows from.
        base: Lsn,
        /// Pages dirtied (or re-dirtied at a new recLSN) since `prev`.
        added: Vec<(PageId, Lsn)>,
        /// Pages cleaned since `prev`.
        removed: Vec<PageId>,
    },
}

/// The one checkpoint record, whatever the method and however it was
/// taken: where the redo scan starts, and the dirty-page table as of
/// the snapshot. An online (fuzzy) checkpoint flushes nothing and logs
/// the pool's table with its minimum recLSN; a heavyweight one flushed
/// everything first, so it logs the empty table and a redo-start one
/// past itself ([`append_heavyweight`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// The LSN recovery must scan from: every record below it is
    /// durably installed.
    pub redo_start: Lsn,
    /// The dirty-page table at the snapshot.
    pub table: DirtyTable,
}

impl Checkpoint {
    /// First byte of a record whose table is [`DirtyTable::Full`]. A
    /// payload's own record tags must stay clear of the two kind bytes.
    const FULL: u8 = 0xC0;
    /// First byte of a record whose table is [`DirtyTable::Delta`].
    const DELTA: u8 = 0xC1;

    /// Does the table chain to an earlier record?
    #[must_use]
    pub fn is_delta(&self) -> bool {
        matches!(self.table, DirtyTable::Delta { .. })
    }

    /// The one encoder: kind byte, redo-start, a 16-bit count of
    /// `(page, recLSN)` pairs — the table, or the delta's `added` — and
    /// for a delta its two links and the 16-bit-counted `removed` list.
    ///
    /// # Errors
    ///
    /// [`SimError::FieldOverflow`] for a list past 65 535 entries.
    pub fn encode(&self, buf: &mut Vec<u8>) -> SimResult<()> {
        let (kind, pairs) = match &self.table {
            DirtyTable::Full(dirty) => (Self::FULL, dirty),
            DirtyTable::Delta { added, .. } => (Self::DELTA, added),
        };
        codec::put_u8(buf, kind);
        codec::put_u64(buf, self.redo_start.0);
        let n = codec::count_u16("dirty-page-table length", pairs.len())?;
        codec::put_u16(buf, n);
        for &(page, rec) in pairs {
            codec::put_u32(buf, page.0);
            codec::put_u64(buf, rec.0);
        }
        if let DirtyTable::Delta {
            prev,
            base,
            removed,
            ..
        } = &self.table
        {
            codec::put_u64(buf, prev.0);
            codec::put_u64(buf, base.0);
            let n = codec::count_u16("delta removed length", removed.len())?;
            codec::put_u16(buf, n);
            removed.iter().for_each(|page| codec::put_u32(buf, page.0));
        }
        Ok(())
    }

    /// The checkpoint a record holds, read in full — `None` for an
    /// operation record, whose first byte is never a checkpoint kind. How
    /// every executor tells the two apart, whatever the payload.
    ///
    /// # Errors
    ///
    /// [`SimError::Corrupt`] for a truncated checkpoint record.
    pub fn in_record(body: RecordBody<'_>) -> SimResult<Option<Checkpoint>> {
        match body.bytes().first() {
            Some(&kind) if kind == Self::FULL || kind == Self::DELTA => {
                let decode = |input: &[u8], pos: &mut usize| {
                    *pos += 1;
                    Checkpoint::decode(kind, input, pos)
                };
                body.parse(decode).map(Some)
            }
            _ => Ok(None),
        }
    }

    /// The one decoder. `kind` is the record's first byte, which the
    /// payload has already read to tell the record from its own.
    ///
    /// # Errors
    ///
    /// [`SimError::Corrupt`] for an unknown kind byte or a truncated
    /// record.
    pub fn decode(kind: u8, input: &[u8], pos: &mut usize) -> SimResult<Checkpoint> {
        if kind != Self::FULL && kind != Self::DELTA {
            return Err(SimError::Corrupt(pos.saturating_sub(1)));
        }
        let redo_start = Lsn(codec::get_u64(input, pos)?);
        let n = codec::get_u16(input, pos)? as usize;
        let mut pairs = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            let page = PageId(codec::get_u32(input, pos)?);
            pairs.push((page, Lsn(codec::get_u64(input, pos)?)));
        }
        let table = if kind == Self::FULL {
            DirtyTable::Full(pairs)
        } else {
            let prev = Lsn(codec::get_u64(input, pos)?);
            let base = Lsn(codec::get_u64(input, pos)?);
            let n = codec::get_u16(input, pos)? as usize;
            let mut removed = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                removed.push(PageId(codec::get_u32(input, pos)?));
            }
            DirtyTable::Delta {
                prev,
                base,
                added: pairs,
                removed,
            }
        };
        Ok(Checkpoint { redo_start, table })
    }
}

/// The bridge between a method's log payload and the [`Checkpoint`]
/// records logged in it: each payload has one variant holding the
/// record, and says so here — which is how the driver tells a checkpoint
/// from an operation, and how the publishers log one.
pub trait CheckpointView: LogPayload {
    /// The checkpoint this record publishes, or `None` for an operation
    /// record.
    fn as_checkpoint(&self) -> Option<&Checkpoint>;

    /// The payload that logs `checkpoint`.
    fn from_checkpoint(checkpoint: Checkpoint) -> Self;
}

/// A log payload whose redo is *page-local* (§6.2, §6.3): every
/// conflict between two of its records lives inside one page, so
/// (Theorem 3) LSN order matters only within a page. Such a method
/// states its redo once, here, and every executor that replays page by
/// page — [`recover_local`] on the kernel's scratch pages,
/// [`crate::parallel::recover_partitioned`] on images its workers hold
/// — runs it.
pub trait PageLocal: CheckpointView {
    /// One page's share of a record, as read off the log: it may borrow
    /// the record's bytes, and crosses to a redo worker's thread.
    type Part<'a>: Send;

    /// Splits an operation record, read in place, into the workload
    /// operation id and each written page's share of the record, every
    /// cell checked (`check_slot`) against pages of `slots_per_page`
    /// slots. (The executors never hand it a checkpoint record.)
    ///
    /// # Errors
    ///
    /// Log corruption, [`SimError::MethodViolation`] for a record whose
    /// shape the method does not log, or [`SimError::FieldOverflow`] for
    /// a slot past the geometry.
    fn parts(
        body: RecordBody<'_>,
        slots_per_page: u16,
    ) -> SimResult<(u32, impl Iterator<Item = (PageId, Self::Part<'_>)>)>;

    /// The redo test *and* the apply: brings `page` up to the record at
    /// `lsn` if the test says it misses `part`, and reports whether it
    /// did. `page` holds every earlier record's effect on it.
    fn redo(page: &mut PageMut<'_>, lsn: Lsn, part: &Self::Part<'_>) -> bool;
}

/// What restart analysis computed from the record the disk master
/// points at: where the redo scan starts, which checkpoint (if any) is
/// in force, and the dirty-page table it logged.
///
/// The DPT is what lets a page-local executor — the serial
/// [`recover_local`] and the partitioned [`crate::parallel`] alike —
/// prove records installed without reading their pages: a record
/// below the checkpoint whose page was clean at the snapshot (or dirty
/// but below its recLSN) is durably installed, so the router never
/// ships it to a partition. The per-page redo test would reach the
/// same verdict; the table only moves the decision from fetch time to
/// scan time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RestartAnalysis {
    /// The LSN the redo scan must start from.
    pub redo_start: Lsn,
    /// The published checkpoint the master named, if any.
    pub checkpoint_lsn: Option<Lsn>,
    /// The checkpoint's dirty-page table (page → recLSN) — empty for a
    /// heavyweight checkpoint, which left nothing dirty. `None` only
    /// for the no-checkpoint fallback.
    pub dirty: Option<BTreeMap<PageId, Lsn>>,
}

impl RestartAnalysis {
    /// The fallback when no checkpoint is in force: a full scan from
    /// the log's first retained record.
    #[must_use]
    pub fn full_scan() -> Self {
        RestartAnalysis {
            redo_start: Lsn(1),
            checkpoint_lsn: None,
            dirty: None,
        }
    }

    /// The analysis of the checkpoint at `ck`, with its table resolved.
    fn at_checkpoint(ck: Lsn, redo_start: Lsn, dirty: BTreeMap<PageId, Lsn>) -> Self {
        RestartAnalysis {
            redo_start,
            checkpoint_lsn: Some(ck),
            dirty: Some(dirty),
        }
    }

    /// Is the record `(page, lsn)` provably installed by this analysis
    /// alone — no page fetch, no LSN comparison against the image?
    ///
    /// True exactly when a checkpoint is in force, the record
    /// precedes it, and the page was clean at the snapshot or dirty
    /// with a recLSN above the record. In both cases every effect of
    /// the record had reached disk before the checkpoint published
    /// (that is what recLSN *means*), and redo tests are monotone: a
    /// page's durable LSN never regresses, so the verdict survives
    /// chaos flushes and mid-recovery crashes after the snapshot.
    #[must_use]
    pub fn provably_installed(&self, page: PageId, lsn: Lsn) -> bool {
        match (self.checkpoint_lsn, &self.dirty) {
            (Some(ck), Some(dirty)) if lsn < ck => match dirty.get(&page) {
                Some(&rec_lsn) => lsn < rec_lsn,
                None => true,
            },
            _ => false,
        }
    }

    /// Does restart still owe the record `(page, lsn)` a redo test — at
    /// or above the redo-start and not [provably
    /// installed](RestartAnalysis::provably_installed)? The gate
    /// criterion of the on-demand paths.
    #[must_use]
    pub fn owes(&self, page: PageId, lsn: Lsn) -> bool {
        lsn >= self.redo_start && !self.provably_installed(page, lsn)
    }

    /// Of the record at `lsn`'s [`PageLocal::parts`], those restart
    /// still [owes](RestartAnalysis::owes) a redo step: every part but
    /// those of the pages this analysis proves installed. An operation
    /// left with no part is *skipped* without a page being looked at.
    /// Every page-local executor takes its work from here, so they agree
    /// on each verdict by construction.
    pub(crate) fn owed_parts<'a, T: 'a>(
        &'a self,
        lsn: Lsn,
        parts: impl IntoIterator<Item = (PageId, T)> + 'a,
    ) -> impl Iterator<Item = (PageId, T)> + 'a {
        let owed = move |&(page, _): &(PageId, T)| !self.provably_installed(page, lsn);
        parts.into_iter().filter(owed)
    }

    /// `page`'s stable chain entries `(LSN, offset)` restart still
    /// [owes](RestartAnalysis::owes) a redo test, in LSN order: a
    /// suffix of the chain, since for a fixed page `owes` is monotone in
    /// LSN (it holds from the later of the redo-start and, below the
    /// checkpoint, the page's recLSN on).
    pub(crate) fn owed_chain<'a, P: LogPayload>(
        &self,
        log: &'a ShardedLog<P>,
        page: PageId,
    ) -> &'a [(Lsn, u64)] {
        let chain = log.page_chain(page);
        &chain[chain.partition_point(|&(lsn, _)| !self.owes(page, lsn))..]
    }

    /// Gate placement for the on-demand paths, one walk of each shard's
    /// writer and reader chains with no lookup per page. A page is gated
    /// when restart owes a record of its writer chain, or when a record
    /// at or above the redo-start reads it without writing it: that
    /// page is exposed to a residual reader, which must see it before
    /// anything new overwrites it. Each gated page maps to its *last
    /// entry*, the later of its last owed writer and its last reader at
    /// or above the redo-start: once everything up to it is redone, the
    /// page may open. Each test reads the chain's last entry only — the
    /// owed entries are a suffix ([`RestartAnalysis::owed_chain`]), and
    /// so are those at or above the redo-start. Each chain map yields
    /// its pages in id order, so the entries arrive as a few sorted
    /// runs, which a stable sort merges; a page read on several shards
    /// comes once per shard, and keeping each page's latest entry drops
    /// the copies.
    pub(crate) fn gates<P: LogPayload>(&self, log: &ShardedLog<P>) -> BTreeMap<PageId, Lsn> {
        let last = |chain: &[(Lsn, u64)]| chain.last().map(|&(lsn, _)| lsn);
        let writers = (log.page_chains())
            .filter_map(|(page, chain)| Some((page, last(chain).filter(|&l| self.owes(page, l))?)));
        let readers = (log.reader_chains()).filter_map(|(page, chain)| {
            Some((page, last(chain).filter(|&l| l >= self.redo_start)?))
        });
        let mut gates: Vec<(PageId, Lsn)> = writers.chain(readers).collect();
        gates.sort();
        gates.dedup_by(|later, earlier| {
            let same = later.0 == earlier.0;
            if same {
                earlier.1 = later.1;
            }
            same
        });
        gates.into_iter().collect()
    }

    /// The unit a demand read replays before `page` opens: every record
    /// restart still owes that must precede a new access to the page,
    /// closed downward under the residual conflict graph. By Theorem 3
    /// such a downset may replay, in LSN order, before everything else.
    /// The seeds are the page's gate entries, its owed writers
    /// ([`RestartAnalysis::owed_chain`]) and its readers at or above
    /// the redo-start ([`ShardedLog::readers_of`]): the downset of its
    /// last owed writer, and of the readers past that one, which do not
    /// conflict with one another. From each record the walk goes
    /// backwards in LSN — for each page it reads, that page's earlier
    /// owed writers (write-read edges); for each page it writes, that
    /// page's earlier owed writers (write-write) and earlier readers at
    /// or above the redo-start (read-write). A record that no page it
    /// writes owes is left out, and so is what only it leads to: it
    /// never replays. So is a record `done` names, redone by the drain
    /// or by an earlier demand with its own downset. Each chain is
    /// pushed once, however many records point into it. Each entry is
    /// read in place as a [`PageOpView`] and counted into `stats`; each
    /// record kept has its body appended to `bodies`, and is returned,
    /// by LSN, with its body's extent there.
    ///
    /// # Errors
    ///
    /// Log corruption at a chain offset.
    pub(crate) fn downset(
        &self,
        log: &ShardedLog<PageOpPayload>,
        page: PageId,
        done: impl Fn(Lsn) -> bool,
        bodies: &mut Vec<u8>,
        stats: &mut RecoveryStats,
    ) -> SimResult<Vec<(Lsn, Range<usize>)>> {
        // Per page, the bounds below which its owed writers and its
        // readers are already on the stack, and its readers once read.
        let mut pushed: HashMap<PageId, (Lsn, Lsn)> = HashMap::new();
        let mut readers: HashMap<PageId, Vec<(Lsn, usize, u64)>> = HashMap::new();
        let mut stack: Vec<(Lsn, usize, u64)> = Vec::new();
        let mut push = |stack: &mut Vec<_>, q: PageId, below: Lsn, with_readers: bool| {
            let (writers_below, readers_below) = pushed.entry(q).or_default();
            if below > *writers_below {
                let (home, chain) = (log.shard_of(q), self.owed_chain(log, q));
                let at = |bound: Lsn| chain.partition_point(|&(lsn, _)| lsn < bound);
                let entries = chain[at(*writers_below)..at(below)].iter();
                stack.extend(entries.map(|&(lsn, off)| (lsn, home, off)));
                *writers_below = below;
            }
            if with_readers && below > *readers_below {
                let entries = readers.entry(q).or_insert_with(|| {
                    let mut entries = log.readers_of(q);
                    entries.retain(|&(lsn, _, _)| lsn >= self.redo_start);
                    entries
                });
                let at = |bound: Lsn| entries.partition_point(|&(lsn, _, _)| lsn < bound);
                stack.extend_from_slice(&entries[at(*readers_below)..at(below)]);
                *readers_below = below;
            }
        };
        push(&mut stack, page, Lsn(u64::MAX), true);
        // Every record taken or left out; the walk meets most of them
        // again through a second chain.
        let mut seen = LsnBits::new(self.redo_start);
        let mut records: Vec<(Lsn, Range<usize>)> = Vec::new();
        while let Some((lsn, shard, off)) = stack.pop() {
            if done(lsn) || !seen.insert(lsn) {
                continue;
            }
            let rec = log.record_in(shard, off)?;
            debug_assert_eq!(rec.lsn, lsn, "chain entry points at a foreign frame");
            stats.records_decoded += 1;
            stats.seek_hits += 1;
            let Some(op) = rec.payload.parse(PageOpPayload::op_view)? else {
                continue;
            };
            if !op.writes().any(|w| self.owes(w.page, lsn)) {
                continue;
            }
            for cell in op.reads() {
                push(&mut stack, cell.page, lsn, false);
            }
            for cell in op.writes() {
                push(&mut stack, cell.page, lsn, true);
            }
            let start = bodies.len();
            bodies.extend_from_slice(rec.payload.bytes());
            records.push((lsn, start..bodies.len()));
        }
        // The stack pops each chain from its top, so the records come
        // mostly in descending runs, which a stable sort takes whole.
        records.sort_by_key(|(lsn, _)| *lsn);
        Ok(records)
    }
}

/// A set of the LSNs from `base` on, one bit each: the owed suffix is a
/// dense LSN range, so a lookup is one shift and a mask.
#[derive(Clone, Debug)]
pub(crate) struct LsnBits {
    base: Lsn,
    words: Vec<u64>,
}

impl LsnBits {
    /// The empty set of the LSNs from `base` on.
    pub(crate) fn new(base: Lsn) -> LsnBits {
        LsnBits {
            base,
            words: Vec::new(),
        }
    }

    /// `lsn`'s word and bit, `None` below `base`.
    fn bit(&self, lsn: Lsn) -> Option<(usize, u64)> {
        let at = usize::try_from(lsn.0.checked_sub(self.base.0)?).ok()?;
        Some((at / 64, 1 << (at % 64)))
    }

    /// Is `lsn` in the set?
    pub(crate) fn contains(&self, lsn: Lsn) -> bool {
        let bit = self.bit(lsn);
        bit.is_some_and(|(word, bit)| self.words.get(word).is_some_and(|w| w & bit != 0))
    }

    /// Adds `lsn`; `false` if it was there already, or if it lies below
    /// `base`, where the set holds nothing and adds nothing.
    pub(crate) fn insert(&mut self, lsn: Lsn) -> bool {
        let Some((word, bit)) = self.bit(lsn) else {
            return false;
        };
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }
}

/// The analysis step: decide where the redo scan starts from the record
/// the disk master points at. A [`Checkpoint`] carries its own
/// redo-start; its table is taken as logged ([`DirtyTable::Full`]) or
/// folded over its chain ([`DirtyTable::Delta`]). No master (or a master
/// pointing at anything else) falls back to a full scan from the log's
/// first retained record — always safe, since the per-record redo tests
/// decide installation on their own.
///
/// # Errors
///
/// Log corruption at the master record.
pub fn analyze<P: CheckpointView>(db: &Db<P>) -> SimResult<RestartAnalysis> {
    read_master(db).map(|(analysis, _)| analysis)
}

/// [`analyze`], also reporting — when the master names a healthy chain —
/// the chain's base LSN and its depth in delta links.
fn read_master<P: CheckpointView>(db: &Db<P>) -> SimResult<(RestartAnalysis, Option<(Lsn, u64)>)> {
    let master = db.disk.master();
    let rec = db.log.record_at_lsn(master)?;
    match rec.as_ref().and_then(|rec| rec.payload.as_checkpoint()) {
        Some(head) => Ok(resolve_table(db, master, head)),
        None => Ok((RestartAnalysis::full_scan(), None)),
    }
}

/// Longest delta chain analysis will walk before declaring it broken —
/// a guard against corrupt `prev` links forming a long (or cyclic-
/// looking) walk, far above any chain a sane controller publishes.
const MAX_DELTA_CHAIN: usize = 64;

/// Resolves the table of the checkpoint `head` the master names: a
/// [`DirtyTable::Full`] is the table; a [`DirtyTable::Delta`] walks
/// `prev` links (each strictly decreasing) back to the `Full` record at
/// `base`, then folds the deltas oldest→newest over it — each removes
/// its `removed` pages, then inserts its `added` pairs. Any break in the
/// chain — a link the log no longer holds or cannot decode, an operation
/// record, a `Full` that is not `base`, a delta of another chain, a
/// non-decreasing link, a chain past [`MAX_DELTA_CHAIN`] — falls back to
/// reading `base` as logged, and failing that to a full scan. The
/// fallbacks only ever *widen* the scan: records below the newest
/// published redo start are durably installed (that is what publication
/// proved), redo tests are monotone, and a base's `provably_installed`
/// verdicts were true at its own publication — so a stale analysis
/// replays more, never wrongly skips.
fn resolve_table<P: CheckpointView>(
    db: &Db<P>,
    master: Lsn,
    head: &Checkpoint,
) -> (RestartAnalysis, Option<(Lsn, u64)>) {
    let mut deltas = Vec::new();
    let (mut at, mut table) = (master, head.table.clone());
    // `Ok`: the walk reached a `Full` record at `at`. `Err`: the chain
    // tore on the way to the base it names.
    let walked = loop {
        let (prev, base) = match table {
            DirtyTable::Full(dirty) => break Ok(dirty),
            DirtyTable::Delta {
                prev,
                base,
                added,
                removed,
            } => {
                deltas.push((added, removed));
                (prev, base)
            }
        };
        if deltas.len() > MAX_DELTA_CHAIN || prev == Lsn::ZERO || prev >= at {
            break Err(base);
        }
        let same_chain = |link: &Checkpoint| match &link.table {
            DirtyTable::Full(_) => prev == base,
            DirtyTable::Delta { base: b, .. } => *b == base,
        };
        let link = db.log.record_at_lsn(prev).ok().flatten();
        table = match link.as_ref().and_then(|rec| rec.payload.as_checkpoint()) {
            Some(link) if same_chain(link) => link.table.clone(),
            _ => break Err(base),
        };
        at = prev;
    };
    match walked {
        Ok(dirty) => {
            let mut dpt: BTreeMap<PageId, Lsn> = dirty.into_iter().collect();
            let depth = deltas.len() as u64;
            for (added, removed) in deltas.into_iter().rev() {
                for page in removed {
                    dpt.remove(&page);
                }
                dpt.extend(added);
            }
            let analysis = RestartAnalysis::at_checkpoint(master, head.redo_start, dpt);
            (analysis, Some((at, depth)))
        }
        // The torn-chain fallback: `base`'s redo start and table are
        // stale relative to the master but were true at its own
        // publication — safe, just a wider scan.
        Err(base) => {
            let rec = db.log.record_at_lsn(base).ok().flatten();
            let analysis = match rec.as_ref().and_then(|rec| rec.payload.as_checkpoint()) {
                Some(Checkpoint {
                    redo_start,
                    table: DirtyTable::Full(dirty),
                }) => {
                    let dpt = dirty.iter().copied().collect();
                    RestartAnalysis::at_checkpoint(base, *redo_start, dpt)
                }
                _ => RestartAnalysis::full_scan(),
            };
            (analysis, None)
        }
    }
}

/// Every restart's opening moves, whichever executor finishes it:
/// recovery's first act is to repair crash damage the media can detect
/// (torn pages, a torn log-tail fragment); then [`analyze`], and stats
/// opened on the checkpoint found and the prefix already truncated.
///
/// # Errors
///
/// Log corruption at the master record.
pub(crate) fn begin<P: CheckpointView>(
    db: &mut Db<P>,
) -> SimResult<(RestartAnalysis, RecoveryStats)> {
    let mut clock = Instant::now();
    db.repair_after_crash();
    let analysis = analyze(db)?;
    let mut stats = RecoveryStats {
        checkpoint_lsn: analysis.checkpoint_lsn,
        truncated_bytes: db.log.truncated_bytes(),
        ..RecoveryStats::default()
    };
    stats.phase_ns.begin = lap(&mut clock);
    Ok((analysis, stats))
}

/// Nanoseconds since `clock` was last read; restarts it.
pub(crate) fn lap(clock: &mut Instant) -> u64 {
    let was = std::mem::replace(clock, Instant::now());
    u64::try_from((*clock - was).as_nanos()).unwrap_or(u64::MAX)
}

/// Is `slot` inside a page of `slots_per_page` slots? A logged cell past
/// the geometry would name another page's slot, or none: every replay
/// checks each cell here before it reads or writes one.
///
/// # Errors
///
/// [`SimError::FieldOverflow`] when it is not.
pub(crate) fn check_slot(slot: SlotId, slots_per_page: u16) -> SimResult<()> {
    if slot.0 < slots_per_page {
        return Ok(());
    }
    Err(SimError::FieldOverflow {
        field: "page-op slot",
        value: slot.0.into(),
    })
}

/// What a redo step answers if it is handed a checkpoint record. The
/// executors never do: they recognise one through [`CheckpointView`].
pub(crate) const NOT_AN_OPERATION: SimError =
    SimError::MethodViolation("a checkpoint record reached a redo step");

/// A method's verdict on one scanned operation record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Redo {
    /// The redo test fired and the operation (by workload op id) was
    /// re-applied.
    Replayed(u32),
    /// The redo test found the operation already installed.
    Skipped(u32),
}

impl Redo {
    /// The verdict on a page-local operation: *replayed* if the redo
    /// step fired on any of its parts, else *skipped*.
    #[must_use]
    pub fn of(op_id: u32, replayed: bool) -> Redo {
        if replayed {
            Redo::Replayed(op_id)
        } else {
            Redo::Skipped(op_id)
        }
    }
}

/// A redo step as the pool's serial loop ([`recover`]) runs it: how an
/// operation record's body is read, which pages prefetch faults in for
/// it, and the redo test and replay on the pool's frames. The loop
/// parses each record once per batch and hands the same view to
/// [`RedoStep::footprint`] and to [`RedoStep::redo`]; a checkpoint
/// record reaches none of them. The B-tree's step (`redo-btree`'s
/// `BtStep`) is the one left: every `RecoveryMethod` replays into the
/// kernel instead ([`recover_ops`], [`recover_local`]).
pub trait RedoStep<P: LogPayload> {
    /// One operation record as the step reads it; it may borrow the
    /// record's bytes.
    type View<'a>;

    /// Reads an operation record's body.
    ///
    /// # Errors
    ///
    /// Log corruption, or [`SimError::MethodViolation`] for a record
    /// whose shape the method does not log.
    fn parse(body: RecordBody<'_>) -> SimResult<Self::View<'_>>;

    /// Adds the pages the record's replay reads or writes to `pages`.
    ///
    /// # Errors
    ///
    /// As [`RedoStep::parse`], for a view that defers its parsing.
    fn footprint(view: &Self::View<'_>, pages: &mut Vec<PageId>) -> SimResult<()>;

    /// The redo test and the replay of the record at `lsn`.
    ///
    /// # Errors
    ///
    /// Substrate errors.
    fn redo(
        &mut self,
        db: &mut Db<P>,
        analysis: &RestartAnalysis,
        lsn: Lsn,
        view: &Self::View<'_>,
    ) -> SimResult<Redo>;
}

/// An empty vector on `spent`'s allocation, for items of another
/// lifetime: a batch's views borrow the scanner's buffer and cannot
/// outlive the batch, but their vector's allocation can. (Collecting a
/// vector's own `into_iter` reuses its buffer when the item layouts
/// agree, and here the items differ only in a lifetime.)
pub(crate) fn recycle<T, U>(mut spent: Vec<T>) -> Vec<U> {
    spent.clear();
    spent.into_iter().map(|_| unreachable!("cleared")).collect()
}

/// The scan phase of the serial loop, which the lazy drain runs too:
/// `batch`'s records at or below `upto` pushed onto `views` in LSN
/// order, each parsed once — a checkpoint record as `None`.
///
/// # Errors
///
/// Log corruption, and whatever `parse` returns.
pub(crate) fn scan_batch<'s, V>(
    batch: Batch<'s>,
    upto: Lsn,
    views: &mut Vec<(Lsn, Option<V>)>,
    parse: impl Fn(RecordBody<'s>) -> SimResult<V>,
) -> SimResult<()> {
    for rec in batch.take_while(|rec| rec.lsn <= upto) {
        let view = match Checkpoint::in_record(rec.payload)? {
            Some(_) => None,
            None => Some(parse(rec.payload)?),
        };
        views.push((rec.lsn, view));
    }
    Ok(())
}

/// The serial Figure-6 procedure over the buffer pool: `begin`
/// (repair, analyze), then a streaming scan that seeks past the
/// checkpointed (or fuzzily elided) prefix — never reading it — and goes
/// batch by batch: parse each record of the batch once
/// ([`RedoStep::parse`]), prefetch the pages their footprints name, then
/// hand each operation record's view (with the analysis) to the step's
/// redo test and replay. A checkpoint record is scanned and counted, and
/// reaches neither.
///
/// # Errors
///
/// Substrate errors, including log corruption.
pub fn recover<P, S>(db: &mut Db<P>, mut step: S) -> SimResult<RecoveryStats>
where
    P: CheckpointView,
    S: RedoStep<P>,
{
    let (analysis, mut stats) = begin(db)?;
    let mut clock = Instant::now();
    let mut scanner = ShardedScanner::seek(&db.log, analysis.redo_start);
    let upto = db.log.stable_lsn();
    let mut pages: Vec<PageId> = Vec::new();
    let mut spent: Vec<(Lsn, Option<S::View<'static>>)> = Vec::new();
    loop {
        let mut views = recycle(spent);
        scan_batch(
            scanner.next_batch(&db.log, SCAN_BATCH)?,
            upto,
            &mut views,
            S::parse,
        )?;
        stats.phase_ns.scan += lap(&mut clock);
        if views.is_empty() {
            break;
        }
        pages.clear();
        for view in views.iter().filter_map(|(_, view)| view.as_ref()) {
            S::footprint(view, &mut pages)?;
        }
        pages.sort_unstable();
        pages.dedup();
        stats.pages_prefetched += db.pool.prefetch(
            &mut db.disk,
            &pages,
            db.geometry.slots_per_page,
            db.log.stable_lsn(),
        );
        stats.phase_ns.prefetch += lap(&mut clock);
        for (lsn, view) in &views {
            stats.scanned += 1;
            match view {
                Some(view) => stats.note_verdict(step.redo(db, &analysis, *lsn, view)?),
                None => stats.checkpoint_records += 1,
            }
        }
        stats.phase_ns.redo += lap(&mut clock);
        spent = recycle(views);
    }
    stats.note_scan(scanner.stats(), db.log.forces());
    Ok(stats)
}

/// The operation a record's body holds, read in place.
///
/// # Errors
///
/// Log corruption, or [`NOT_AN_OPERATION`] for a checkpoint record.
pub(crate) fn op_view(body: RecordBody<'_>) -> SimResult<PageOpView<'_>> {
    body.parse(PageOpPayload::op_view)?.ok_or(NOT_AN_OPERATION)
}

/// Adds the pages an operation reads or writes to `pages`.
pub(crate) fn op_pages(op: &PageOpView<'_>, pages: &mut Vec<PageId>) {
    pages.extend(op.reads().chain(op.writes()).map(|cell| cell.page));
}

/// The serial restart over the replay kernel ([`ScratchImage`]):
/// `begin` (repair, analyze), then the scan of [`recover`], read in
/// place, with each operation record's body handed to `redo`, which
/// replays it into the kernel and answers the verdict; no pool frame or
/// page is touched until the kernel installs each page it replayed into
/// once ([`ScratchImage::install`]).
///
/// # Errors
///
/// Substrate errors, including log corruption, and whatever `redo`
/// returns.
fn replay_serially<P: CheckpointView>(
    db: &mut Db<P>,
    mut redo: impl FnMut(
        &mut ScratchImage,
        &Db<P>,
        &RestartAnalysis,
        Lsn,
        RecordBody<'_>,
    ) -> SimResult<Redo>,
) -> SimResult<RecoveryStats> {
    let (analysis, mut stats) = begin(db)?;
    let mut scratch = ScratchImage::new(db.geometry.slots_per_page, true);
    let mut clock = Instant::now();
    let mut suffix = db.log.suffix(analysis.redo_start, db.log.stable_lsn());
    let mut batch: Vec<(Lsn, Option<RecordBody<'_>>)> = Vec::with_capacity(SCAN_BATCH);
    loop {
        batch.clear();
        for rec in suffix.by_ref().take(SCAN_BATCH) {
            let rec = rec?;
            let operation = Checkpoint::in_record(rec.payload)?.is_none();
            batch.push((rec.lsn, operation.then_some(rec.payload)));
        }
        stats.phase_ns.scan += lap(&mut clock);
        if batch.is_empty() {
            break;
        }
        for &(lsn, body) in &batch {
            stats.scanned += 1;
            match body {
                Some(body) => stats.note_verdict(redo(&mut scratch, db, &analysis, lsn, body)?),
                None => stats.checkpoint_records += 1,
            }
        }
        stats.phase_ns.redo += lap(&mut clock);
    }
    stats.note_scan(suffix.stats(), db.log.forces());
    stats.pages_prefetched = scratch.pages().len();
    scratch.install(db)?;
    stats.phase_ns.install = lap(&mut clock);
    Ok(stats)
}

/// The serial restart of the operation-logging methods: each operation,
/// read in place, replays into the kernel if `test` finds it missing
/// there (`ScratchImage::replay_op`) — [`RedoTest::Stale`] for
/// §6.4's generalized test, [`RedoTest::Always`] for §6.1's logical one.
///
/// # Errors
///
/// Substrate errors, including log corruption, and
/// [`SimError::FieldOverflow`] for a logged slot past the geometry.
pub fn recover_ops(db: &mut Db<PageOpPayload>, test: RedoTest) -> SimResult<RecoveryStats> {
    replay_serially(db, |scratch, db, _, lsn, body| {
        let op = op_view(body)?;
        Ok(Redo::of(op.id, scratch.replay_op(lsn, &op, test, db)?))
    })
}

/// The serial restart of a [`PageLocal`] payload: each part restart
/// still owes (`RestartAnalysis::owed_parts`) meets `step`
/// ([`PageLocal::redo`], but for a deliberately broken method) on its
/// page's scratch image (`ScratchImage::replay_part`). A page the step
/// changed is dirty from its first such record on.
///
/// # Errors
///
/// Substrate errors, including log corruption, shape violations and
/// slots past the geometry.
pub fn recover_local<P, S>(db: &mut Db<P>, step: S) -> SimResult<RecoveryStats>
where
    P: PageLocal,
    S: Fn(&mut PageMut<'_>, Lsn, &P::Part<'_>) -> bool,
{
    let spp = db.geometry.slots_per_page;
    replay_serially(db, |scratch, db, analysis, lsn, body| {
        let (op_id, parts) = P::parts(body, spp)?;
        let mut replayed = false;
        for (page, part) in analysis.owed_parts(lsn, parts) {
            replayed |= scratch.replay_part(page, lsn, &part, &step, db)?;
        }
        Ok(Redo::of(op_id, replayed))
    })
}

/// A heavyweight (flush-everything) checkpoint: force the log, set the
/// stable values to those in the cache — `flush_all` retries around
/// write-order constraints, flushing prerequisite pages first — then
/// log the record ([`append_heavyweight`]) and move the master to it.
/// Afterwards every logged operation is installed, so recovery may
/// start just past the record. Nothing is archived.
///
/// # Errors
///
/// Substrate errors.
pub fn checkpoint_heavyweight<P: CheckpointView>(db: &mut Db<P>) -> SimResult<()> {
    db.flush_everything()?;
    let ck = append_heavyweight(&mut db.log)?;
    db.log.flush_all();
    db.disk.set_master(ck)
}

/// Appends the record a heavyweight checkpoint logs — the empty table
/// and a redo-start one past the LSN the record is about to take: the
/// claim "everything below me is installed". Making it true (flush
/// first) and moving the master are the caller's business.
///
/// # Errors
///
/// Substrate errors.
pub fn append_heavyweight<P: CheckpointView>(log: &mut ShardedLog<P>) -> SimResult<Lsn> {
    let redo_start = log.last_lsn().next().next();
    let table = DirtyTable::Full(Vec::new());
    log.append(P::from_checkpoint(Checkpoint { redo_start, table }))
}

/// One online (fuzzy) checkpoint attempt, for any payload: snapshot the
/// pool's dirty-page table — nothing is flushed — and [`publish`] it as
/// the standing chain's next record: a delta against a healthy chain
/// shallower than `full_every`, otherwise the full table (`full_every`
/// below 2 never chains). The chain is re-derived from the log each
/// time: the call is stateless, so the crash audit can fault any step
/// of publication and still find a consistent system afterwards.
///
/// Returns the LSN of the checkpoint now in force: the fresh one on
/// publication, the standing one on a quiescent skip, `None` when the
/// attempt was abandoned mid-publication.
///
/// # Errors
///
/// Substrate errors. (Fault suppression is not an error — it surfaces
/// as an abandoned attempt.)
pub fn checkpoint_fuzzy<P: CheckpointView>(
    db: &mut Db<P>,
    full_every: u64,
) -> SimResult<Option<Lsn>> {
    let chain = Chain::standing(db);
    let table = db.pool.dirty_page_table().into_iter().collect();
    match next_checkpoint(chain.as_ref(), full_every, &table, &db.log) {
        Some(checkpoint) => publish(&mut db.log, &mut db.disk, checkpoint),
        None => Ok(chain.map(|chain| chain.head)),
    }
}

/// One checkpoint publication, each step a faultable crash point:
/// append `checkpoint`, **force** it through the log, then `land` it.
/// Returns the published checkpoint LSN, or `None` if the attempt was
/// abandoned (the record never became durable, or the master write did
/// not land — both happen under fault injection); an abandoned attempt
/// publishes nothing and truncates nothing.
///
/// # Errors
///
/// Substrate errors. (Fault suppression is not an error — it surfaces
/// as an abandoned attempt.)
pub fn publish<P: CheckpointView>(
    log: &mut ShardedLog<P>,
    disk: &mut Disk,
    checkpoint: Checkpoint,
) -> SimResult<Option<Lsn>> {
    let redo_start = checkpoint.redo_start;
    let ck = log.append(P::from_checkpoint(checkpoint))?;
    log.flush_all();
    Ok(land(log, disk, ck, redo_start)?.map(|_| ck))
}

/// The tail of [`publish`], for a checkpoint record already appended at
/// `ck` and forced: both the force and the master write can be
/// suppressed by fault injection, and each suppression is silent — so
/// **verify** the record is stable, write the master, **verify** it
/// landed, and only then archive the stable-log prefix below
/// `redo_start` (every record there is applied and its page durably
/// installed, so no future recovery can need it; truncating any earlier
/// would be unsound — a crash before publication must still recover
/// from the previous checkpoint, whose scan may start inside the
/// would-be-truncated prefix). Returns the bytes reclaimed, or `None`
/// for an abandoned attempt.
///
/// # Errors
///
/// Substrate errors.
pub(crate) fn land<P: LogPayload>(
    log: &mut ShardedLog<P>,
    disk: &mut Disk,
    ck: Lsn,
    redo_start: Lsn,
) -> SimResult<Option<u64>> {
    if log.stable_lsn() < ck {
        return Ok(None);
    }
    disk.set_master(ck)?;
    if disk.master() != ck {
        return Ok(None);
    }
    log.archive_prefix(redo_start).map(Some)
}

/// The published checkpoint chain now in force: where its head and base
/// sit, how deep the delta chain is, and the exact table/redo-start the
/// head published. [`checkpoint_fuzzy`] re-derives it from the log
/// ([`Chain::standing`]); the concurrent daemon keeps it as volatile
/// state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Chain {
    /// LSN of the newest published checkpoint record (the master).
    pub(crate) head: Lsn,
    /// LSN of the full table the chain grows from.
    pub(crate) base: Lsn,
    /// Delta links from `head` back to `base` (0 when `head == base`).
    pub(crate) depth: u64,
    /// The full dirty-page table as published at `head`.
    pub(crate) dpt: BTreeMap<PageId, Lsn>,
    /// The redo-start published at `head`.
    pub(crate) redo_start: Lsn,
}

impl Chain {
    /// Re-derives the chain from the record the master points at.
    /// `None` when the master names no healthy checkpoint (fresh
    /// system, orphaned record, torn chain) — the next publication is
    /// then a full table, which is always sound.
    pub(crate) fn standing<P: CheckpointView>(db: &Db<P>) -> Option<Chain> {
        let (analysis, chain) = read_master(db).ok()?;
        let (base, depth) = chain?;
        Some(Chain {
            head: analysis.checkpoint_lsn?,
            base,
            depth,
            dpt: analysis.dirty?,
            redo_start: analysis.redo_start,
        })
    }

    /// The chain after `ck` published `table`: a delta extends `prev`
    /// (same base, one deeper); a full table starts a fresh chain.
    pub(crate) fn extended(
        prev: Option<Chain>,
        is_delta: bool,
        ck: Lsn,
        table: BTreeMap<PageId, Lsn>,
        redo_start: Lsn,
    ) -> Chain {
        let (base, depth) = match prev {
            Some(prev) if is_delta => (prev.base, prev.depth + 1),
            _ => (ck, 0),
        };
        Chain {
            head: ck,
            base,
            depth,
            dpt: table,
            redo_start,
        }
    }

    /// Quiescent skip: nothing was logged since the standing
    /// checkpoint, the table is unchanged, and the redo-start would not
    /// move. Republishing would force the log and swing the master for
    /// a byte-identical analysis — pure overhead. The clean-pool case
    /// needs care: with nothing dirty the would-be redo-start is the
    /// *drifting* next LSN, so an empty table compares through
    /// `unwrap_or` against the published one instead.
    pub(crate) fn quiescent(&self, last_lsn: Lsn, table: &BTreeMap<PageId, Lsn>) -> bool {
        let candidate = table.values().copied().min();
        last_lsn == self.head
            && *table == self.dpt
            && candidate.unwrap_or(self.redo_start) == self.redo_start
    }

    /// `table` as its [`DirtyTable::Delta`] against this chain's head.
    fn delta_against(&self, table: &BTreeMap<PageId, Lsn>) -> DirtyTable {
        let added = table
            .iter()
            .filter(|&(page, rec)| self.dpt.get(page) != Some(rec))
            .map(|(&page, &rec)| (page, rec))
            .collect();
        let removed = self
            .dpt
            .keys()
            .filter(|page| !table.contains_key(page))
            .copied()
            .collect();
        DirtyTable::Delta {
            prev: self.head,
            base: self.base,
            added,
            removed,
        }
    }
}

/// The record the next fuzzy checkpoint of `table` logs: `None` when
/// `chain` is [quiescent](Chain::quiescent); a delta against a live
/// chain shallower than `full_every`; otherwise the full table. Its
/// redo-start is the minimum recLSN, or — nothing dirty, everything
/// logged so far installed — the LSN the record itself is about to take.
pub(crate) fn next_checkpoint<P: LogPayload>(
    chain: Option<&Chain>,
    full_every: u64,
    table: &BTreeMap<PageId, Lsn>,
    log: &ShardedLog<P>,
) -> Option<Checkpoint> {
    if chain.is_some_and(|c| c.quiescent(log.last_lsn(), table)) {
        return None;
    }
    let redo_start = table.values().copied().min();
    Some(Checkpoint {
        redo_start: redo_start.unwrap_or_else(|| log.last_lsn().next()),
        table: match chain {
            Some(chain) if chain.depth + 1 < full_every => chain.delta_against(table),
            _ => DirtyTable::Full(table.iter().map(|(&page, &rec)| (page, rec)).collect()),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::Control;
    use crate::generalized::Generalized;
    use crate::logical::Logical;
    use crate::media::Media;
    use crate::ondemand::OnDemand;
    use crate::online::GeneralizedOnline;
    use crate::parallel::{
        recover_partitioned, ParallelOnline, ParallelPhysical, ParallelPhysiological,
    };
    use crate::physical::Physical;
    use crate::physiological::Physiological;
    use crate::testkit::{
        assert_matches_model, blind_workload, crashed_db, cross_page_workload, single_page_workload,
    };
    use crate::RecoveryMethod;
    use proptest::prelude::*;
    use redo_sim::db::Geometry;
    use redo_workload::pages::PageOp;
    use std::collections::BTreeSet;

    /// One roster row: `method` over `ops`, crashed under chaos flushes
    /// without checkpoints and with its own checkpoint discipline, must
    /// recover exactly the model — from the checkpoint when it took one.
    fn recovers_the_model<M: RecoveryMethod>(method: &M, ops: &[PageOp], seed: u64) {
        for checkpoint_every in [None, Some(7)] {
            let mut db = crashed_db(method, ops, seed ^ 0xabc, checkpoint_every);
            let stats = method.recover(&mut db).unwrap();
            assert_eq!(
                stats.checkpoint_lsn.is_some(),
                checkpoint_every.is_some(),
                "{} / {checkpoint_every:?}",
                method.name()
            );
            assert_matches_model(&mut db, ops);
        }
    }

    #[test]
    fn every_roster_method_recovers_the_model_with_and_without_checkpoints() {
        for seed in 0..4 {
            let single = single_page_workload(40, 6, seed);
            let blind = blind_workload(40, 6, seed);
            let cross = cross_page_workload(40, 6, seed);
            recovers_the_model(&Logical, &cross, seed);
            recovers_the_model(&Physical, &blind, seed);
            recovers_the_model(&Physiological, &single, seed);
            recovers_the_model(&Generalized, &cross, seed);
            recovers_the_model(&GeneralizedOnline, &cross, seed);
            recovers_the_model(&Control, &cross, seed);
            recovers_the_model(&OnDemand, &cross, seed);
            recovers_the_model(&Media, &cross, seed);
            recovers_the_model(&ParallelPhysiological { threads: 3 }, &single, seed);
            recovers_the_model(&ParallelPhysical { threads: 3 }, &blind, seed);
            recovers_the_model(&ParallelOnline { threads: 3 }, &single, seed);
        }
    }

    #[test]
    fn serial_recovery_honours_whatever_checkpoint_kind_the_master_names() {
        // Regression: `Physiological.recover` used to scan from
        // `master.next()` whatever the master named, so over a fuzzy
        // checkpoint (which installs nothing) it replayed 0 of these 40
        // operations and reported success.
        let ops = single_page_workload(40, 6, 5);
        let mut db = Db::new(Geometry::default());
        for (i, op) in ops.iter().enumerate() {
            Physiological.execute(&mut db, op).unwrap();
            if (i + 1) % 8 == 0 {
                checkpoint_fuzzy(&mut db, 0)
                    .unwrap()
                    .expect("no faults armed: publication must land");
            }
        }
        db.log.flush_all();
        db.crash();
        let mut parallel_db = db.clone();
        let serial = Physiological.recover(&mut db).unwrap();
        let parallel = recover_partitioned(&mut parallel_db, 2).unwrap();
        assert_eq!(serial.replayed, parallel.replayed);
        assert_eq!(serial.replay_count(), 40);
        assert_eq!(
            db.volatile_theory_state(),
            parallel_db.volatile_theory_state()
        );
        assert_matches_model(&mut db, &ops);
    }

    #[test]
    fn standing_chain_is_rederived_from_whatever_checkpoint_the_master_names() {
        let ops = cross_page_workload(24, 5, 7);
        let mut db = Db::new(Geometry::default());
        assert_eq!(Chain::standing(&db), None, "fresh system");
        for op in &ops[..12] {
            Control.execute(&mut db, op).unwrap();
        }
        let base = checkpoint_fuzzy(&mut db, Control::FULL_EVERY)
            .unwrap()
            .unwrap();
        Control.execute(&mut db, &ops[12]).unwrap();
        let head = checkpoint_fuzzy(&mut db, Control::FULL_EVERY)
            .unwrap()
            .unwrap();
        let chain = Chain::standing(&db).expect("delta over a full table");
        assert_eq!((chain.head, chain.base, chain.depth), (head, base, 1));
        assert_eq!(Some(chain.dpt), analyze(&db).unwrap().dirty);

        // A heavyweight record is a full (empty) table like any other,
        // so it bases a chain: the next fuzzy checkpoint is a delta
        // whose fold is the pool's table.
        Generalized.checkpoint(&mut db).unwrap();
        let heavy = db.disk.master();
        let chain = Chain::standing(&db).expect("a heavyweight master bases a chain");
        assert_eq!((chain.head, chain.base, chain.depth), (heavy, heavy, 0));
        assert!(chain.dpt.is_empty());
        assert_eq!(chain.redo_start, heavy.next());
        for op in &ops[13..] {
            Control.execute(&mut db, op).unwrap();
        }
        let delta = checkpoint_fuzzy(&mut db, Control::FULL_EVERY)
            .unwrap()
            .unwrap();
        let rec = db.log.record_at_lsn(delta).unwrap().unwrap();
        assert!(rec
            .payload
            .as_checkpoint()
            .is_some_and(Checkpoint::is_delta));
        let chain = Chain::standing(&db).unwrap();
        assert_eq!((chain.head, chain.base, chain.depth), (delta, heavy, 1));
        let pool: BTreeMap<PageId, Lsn> = db.pool.dirty_page_table().into_iter().collect();
        assert!(!pool.is_empty());
        assert_eq!(analyze(&db).unwrap().dirty, Some(pool));
        db.log.flush_all();
        db.crash();
        let stats = Control.recover(&mut db).unwrap();
        assert_eq!(stats.checkpoint_lsn, Some(delta));
        assert_matches_model(&mut db, &ops);
    }

    #[test]
    fn an_lsn_below_the_base_is_neither_held_nor_added() {
        let mut bits = LsnBits::new(Lsn(10));
        assert!(!bits.insert(Lsn(9)), "below the base: not added");
        assert!(!bits.contains(Lsn(9)));
        assert!(bits.insert(Lsn(10)));
        assert!(!bits.insert(Lsn(10)), "already there");
        assert!(bits.insert(Lsn(200)));
        assert!(bits.contains(Lsn(200)) && !bits.contains(Lsn(199)));
    }

    /// Pages of the gate-placement runs below.
    const GATE_PAGES: u32 = 8;

    /// A cross-page run over `log_shards` log shards under chaos
    /// flushes, with a fuzzy checkpoint (and so a truncation) every
    /// `checkpoint_every` operations — full tables, or delta chains when
    /// `full_every` ≥ 2 — crashed, optionally through a torn final
    /// flush, and repaired as every restart opens.
    fn crashed_and_repaired(
        seed: u64,
        n_ops: usize,
        log_shards: usize,
        full_every: u64,
        checkpoint_every: usize,
        torn: bool,
    ) -> Db<PageOpPayload> {
        use rand::SeedableRng;
        use redo_sim::fault::{FaultKind, FaultPlan};
        let ops = cross_page_workload(n_ops, GATE_PAGES, seed);
        let kind = redo_sim::backend::BackendKind::Mem;
        let mut db = Db::on_sharded(kind, Geometry::default(), None, log_shards);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for (i, op) in ops.iter().enumerate() {
            // Flushing before the operation leaves the last one in the
            // tail for the torn flush to cut.
            db.chaos_flush(&mut rng, 0.5, 0.4).unwrap();
            Generalized.execute(&mut db, op).unwrap();
            if (i + 1) % checkpoint_every == 0 {
                checkpoint_fuzzy(&mut db, full_every).unwrap();
            }
        }
        if torn {
            let kind = FaultKind::TornFlush { bytes: 7 };
            db.arm_faults(FaultPlan { at: 1, kind });
        }
        db.log.flush_all();
        db.crash();
        db.repair_after_crash();
        db
    }

    /// The per-page gate definition the one-pass placement replaced:
    /// a chained page whose chain holds an owed entry, or a page some
    /// record at or above the redo-start reads without writing — each
    /// page's chains looked up and tested entry by entry — with the
    /// last of those entries.
    fn gates_page_by_page(
        analysis: &RestartAnalysis,
        log: &ShardedLog<PageOpPayload>,
    ) -> BTreeMap<PageId, Lsn> {
        let owed = |page: PageId| {
            let chain = log.page_chain(page).iter().map(|&(lsn, _)| lsn);
            chain.filter(|&lsn| analysis.owes(page, lsn)).max()
        };
        let exposed = |page: PageId| {
            let readers = log.readers_of(page).into_iter().map(|(lsn, _, _)| lsn);
            readers.filter(|&lsn| lsn >= analysis.redo_start).max()
        };
        let pages: BTreeSet<PageId> = (log.chained_pages())
            .chain((0..GATE_PAGES).map(PageId))
            .collect();
        let last = |page| Some((page, owed(page).max(exposed(page))?));
        pages.into_iter().filter_map(last).collect()
    }

    /// An analysis the run's own log may never have produced: any
    /// redo-start, any checkpoint LSN, and a dirty-page table whose
    /// recLSNs lie below and above that checkpoint.
    fn arbitrary_analysis(
        top: u64,
        redo_start: u64,
        ck: Option<u64>,
        dirty: &[(u32, u64)],
    ) -> RestartAnalysis {
        let lsn = |x: u64| Lsn(1 + x % (top + 2));
        let table = dirty.iter().map(|&(p, x)| (PageId(p % GATE_PAGES), lsn(x)));
        match ck {
            Some(ck) => RestartAnalysis::at_checkpoint(lsn(ck), lsn(redo_start), table.collect()),
            None => RestartAnalysis {
                redo_start: lsn(redo_start),
                ..RestartAnalysis::full_scan()
            },
        }
    }

    /// `method` runs `ops` in a pool of `capacity` frames under chaos
    /// flushes, with its own checkpoint after every `checkpoint_every`
    /// operations, and crashes; the image is restarted by `method` in a
    /// pool of the same size, and every page the kernel's genesis replay
    /// of the whole history names must read back its genesis image.
    fn restarts_to_the_genesis_replay<M>(
        method: &M,
        ops: &[PageOp],
        seed: u64,
        capacity: Option<usize>,
        checkpoint_every: Option<usize>,
    ) -> Result<(), TestCaseError>
    where
        M: RecoveryMethod<Payload = PageOpPayload>,
    {
        use rand::SeedableRng;
        let mut db = Db::with_capacity(Geometry::default(), capacity);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let page_p = if method.allows_page_chaos() { 0.4 } else { 0.0 };
        for (i, op) in ops.iter().enumerate() {
            method.execute(&mut db, op).unwrap();
            db.chaos_flush(&mut rng, 0.7, page_p).unwrap();
            if checkpoint_every.is_some_and(|k| (i + 1) % k == 0) {
                method.checkpoint(&mut db).unwrap();
            }
        }
        db.log.flush_all();
        db.crash();
        let genesis = ScratchImage::replay(&db).unwrap();
        method.recover(&mut db).unwrap();
        for (&page, image) in genesis
            .pages()
            .iter()
            .map(|page| (page, genesis.image(*page)))
        {
            for slot in (0..db.geometry.slots_per_page).map(SlotId) {
                let cell = redo_workload::pages::Cell { page, slot };
                prop_assert_eq!(
                    db.read_cell(cell).unwrap(),
                    image.get(slot),
                    "{}",
                    method.name()
                );
            }
        }
        Ok(())
    }

    /// The known defect the proptest below steps round: `Logical` over
    /// a 2- or 4-frame pool restarts to another state than the genesis
    /// replay. The proptest's seed 10616609972245026926 found it, and
    /// the parent of the replay kernel fails the same case (ROADMAP
    /// "Small debts"). Run with `--ignored` to see it.
    #[test]
    #[ignore = "known defect: Logical over a bounded pool (ROADMAP, Small debts)"]
    fn logical_over_a_bounded_pool_reaches_the_genesis_replay() {
        let seed = 10_616_609_972_245_026_926;
        for n_ops in 10..60 {
            let ops = cross_page_workload(n_ops, 6, seed);
            for capacity in [Some(2), Some(4)] {
                for every in [None, Some(7)] {
                    restarts_to_the_genesis_replay(&Logical, &ops, seed, capacity, every)
                        .unwrap_or_else(|e| panic!("{n_ops} ops, pool {capacity:?}: {e}"));
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The serial restarts over the replay kernel and the lazy one
        /// over the pool reach what the kernel's genesis replay reaches,
        /// over crashed images: chaos flushes, pools of 2, 4 or
        /// unbounded frames, with and without checkpoints (heavyweight,
        /// fuzzy full tables, delta chains, the logical pointer swing).
        #[test]
        fn every_restart_reaches_the_genesis_replay(
            seed in any::<u64>(),
            n_ops in 10usize..60,
            pool in 0usize..3,
            checkpoints in any::<bool>(),
        ) {
            let capacity = [Some(2), Some(4), None][pool];
            let every = checkpoints.then_some(7);
            let ops = cross_page_workload(n_ops, 6, seed);
            restarts_to_the_genesis_replay(&Generalized, &ops, seed, capacity, every)?;
            restarts_to_the_genesis_replay(&GeneralizedOnline, &ops, seed, capacity, every)?;
            restarts_to_the_genesis_replay(&Control, &ops, seed, capacity, every)?;
            restarts_to_the_genesis_replay(&OnDemand, &ops, seed, capacity, every)?;
            // Logical over a bounded pool is a known defect, not a design
            // property: it restarts to another state than this replay
            // (ROADMAP "Small debts"), as it did before the kernel. It is
            // kept visible in `logical_over_a_bounded_pool_reaches_the_genesis_replay`,
            // ignored until mended; the crash audit runs logical over an
            // unbounded pool only too.
            if capacity.is_none() {
                restarts_to_the_genesis_replay(&Logical, &ops, seed, capacity, every)?;
            }
        }

        /// The one-pass gates equal the per-page definition, last
        /// entries included, and the owed chain is the per-entry filter
        /// — over the analysis the crashed image yields (full or delta
        /// checkpoints, truncation, torn-tail repair, 1 or 4 log shards)
        /// and over arbitrary ones.
        #[test]
        fn one_pass_gates_equal_the_page_by_page_definition(
            seed in any::<u64>(),
            n_ops in 10usize..60,
            four_shards in any::<bool>(),
            deltas in any::<bool>(),
            checkpoint_every in 3usize..15,
            torn in any::<bool>(),
            redo_start in any::<u64>(),
            ck in prop::option::of(any::<u64>()),
            dirty in prop::collection::vec((any::<u32>(), any::<u64>()), 0..8),
        ) {
            let log_shards = if four_shards { 4 } else { 1 };
            let full_every = if deltas { 3 } else { 0 };
            let db = crashed_and_repaired(seed, n_ops, log_shards, full_every, checkpoint_every, torn);
            let top = db.log.stable_lsn().0;
            let analyses = [analyze(&db).unwrap(), arbitrary_analysis(top, redo_start, ck, &dirty)];
            for analysis in &analyses {
                prop_assert_eq!(
                    analysis.gates(&db.log),
                    gates_page_by_page(analysis, &db.log),
                    "{:?}",
                    analysis
                );
                for page in (0..GATE_PAGES).map(PageId) {
                    let filtered: Vec<(Lsn, u64)> = (db.log.page_chain(page).iter().copied())
                        .filter(|&(lsn, _)| analysis.owes(page, lsn))
                        .collect();
                    prop_assert_eq!(analysis.owed_chain(&db.log, page), &filtered[..]);
                }
            }
        }

        /// `owes` is monotone in LSN for every page: once restart owes
        /// a page's record, it owes every later one. The last-entry
        /// test of `gates` and the suffix of `owed_chain` rest on it.
        #[test]
        fn owes_is_monotone_in_lsn_for_every_page(
            top in 1u64..40,
            redo_start in any::<u64>(),
            ck in prop::option::of(any::<u64>()),
            dirty in prop::collection::vec((any::<u32>(), any::<u64>()), 0..8),
        ) {
            let analysis = arbitrary_analysis(top, redo_start, ck, &dirty);
            for page in (0..GATE_PAGES).map(PageId) {
                for lsn in 0..top + 3 {
                    prop_assert!(
                        !analysis.owes(page, Lsn(lsn)) || analysis.owes(page, Lsn(lsn + 1)),
                        "{:?} owes {:?} at {} but not at {}",
                        analysis,
                        page,
                        lsn,
                        lsn + 1
                    );
                }
            }
        }
    }
}
