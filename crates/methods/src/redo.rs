//! The one redo driver (§4, Figure 6, Corollary 4).
//!
//! The paper's claim is that a single procedure —
//! `recover(state, log, checkpoint)` with a pluggable analysis and redo
//! test — covers every §6 method. This module is that procedure over the
//! substrate, in the three pieces every method shares:
//!
//! * [`analyze`] — read the record the disk master names and dispatch
//!   on its checkpoint kind ([`CheckpointRecord`]) to a
//!   [`RestartAnalysis`]: where the scan starts, which checkpoint is in
//!   force, and the dirty-page table when the checkpoint was fuzzy.
//! * [`recover`] — the serial loop: repair, analyze, seek to the
//!   redo-start, then batch by batch prefetch the method's footprint
//!   and hand each record to the method's redo closure, which decides
//!   *replayed / skipped / not an operation* and applies. A method is
//!   its `(footprint, redo test)` pair and nothing else — and a
//!   §6.2/§6.3 method, whose conflicts all live inside one page, states
//!   that pair once as a [`PageLocal`] payload: how a record splits
//!   into per-page parts, and one step that is the redo test and the
//!   apply. [`recover_local`] runs the step on the pool's frames.
//! * checkpoint publication — [`checkpoint_heavyweight`] (flush
//!   everything, then move the master) and [`publish`] (fuzzy: append →
//!   force → verify → master write → verify → archive the prefix), plus
//!   the `Chain` bookkeeping incremental checkpoints diff against.
//!
//! The other *executors* run the same analysis. Lazy restart — both
//! faces, [`crate::ondemand`] over a sequential [`Db`] and
//! [`crate::concurrent::SharedDb::open_on_demand`] over the sharded
//! store — places its gates with [`RestartAnalysis::gates`], finds its
//! replay unit with [`RestartAnalysis::component`] and replays it under
//! the generalized redo step; only the store the pages live in differs.
//! Partitioned-parallel restart
//! ([`crate::parallel::recover_partitioned`]) runs the same
//! [`PageLocal`] step as [`recover_local`], on page images its workers
//! hold, over the same `RestartAnalysis::owed_parts`: what a record
//! still owes, and so every replayed/skipped verdict, is decided in
//! one place for both.

use std::collections::{BTreeMap, BTreeSet};

use redo_sim::db::Db;
use redo_sim::disk::Disk;
use redo_sim::page::Page;
use redo_sim::wal::{LogPayload, ShardedLog, ShardedScanner};
use redo_sim::SimResult;
use redo_theory::log::Lsn;
use redo_workload::pages::{Cell, PageId, PageOp};

use crate::oprecord::PageOpPayload;
use crate::{RecoveryStats, SCAN_BATCH};

/// How a log record presents itself to restart analysis when the disk
/// master names it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CheckpointRecord {
    /// A heavyweight checkpoint: everything below it is installed.
    Heavyweight,
    /// A full fuzzy snapshot of the dirty-page table.
    Snapshot {
        /// Dirty pages with their recovery LSNs.
        dirty: Vec<(PageId, Lsn)>,
        /// The LSN recovery must scan from.
        redo_start: Lsn,
    },
    /// One link of an incremental chain: the table delta against `prev`.
    Delta {
        /// The previous checkpoint record in the chain.
        prev: Lsn,
        /// The full snapshot the chain grows from.
        base: Lsn,
        /// The LSN recovery must scan from, as of this delta.
        redo_start: Lsn,
        /// Pages dirtied (or re-dirtied at a new recLSN) since `prev`.
        added: Vec<(PageId, Lsn)>,
        /// Pages cleaned since `prev`.
        removed: Vec<PageId>,
    },
}

/// A log payload whose checkpoint records [`analyze`] can read.
pub trait CheckpointView: LogPayload {
    /// The checkpoint this record publishes, or `None` for an operation
    /// record.
    fn into_checkpoint(self) -> Option<CheckpointRecord>;
}

/// An operation record split for page-local redo: the workload
/// operation id, and each written page's share of the record.
pub type Parts<T> = (u32, Vec<(PageId, T)>);

/// A log payload whose redo is *page-local* (§6.2, §6.3): every
/// conflict between two of its records lives inside one page, so
/// (Theorem 3) LSN order matters only within a page. Such a method
/// states its redo once, here, and every executor that replays page by
/// page — [`recover_local`] on the pool's frames,
/// [`crate::parallel::recover_partitioned`] on images its workers hold
/// — runs it.
pub trait PageLocal: CheckpointView {
    /// One page's share of a record.
    type Part: Send;

    /// Splits the record into per-page parts; `None` for a checkpoint
    /// record.
    ///
    /// # Errors
    ///
    /// [`SimError::MethodViolation`](redo_sim::SimError::MethodViolation)
    /// for a record whose shape the method does not log.
    fn into_parts(self) -> SimResult<Option<Parts<Self::Part>>>;

    /// The redo test *and* the apply: brings `page` up to the record at
    /// `lsn` if the test says it misses `part`, and reports whether it
    /// did. `page` holds every earlier record's effect on it.
    fn redo(page: &mut Page, lsn: Lsn, part: &Self::Part) -> bool;
}

/// What restart analysis computed from the record the disk master
/// points at: where the redo scan starts, which checkpoint (if any) is
/// in force, and — for fuzzy checkpoints — the logged dirty-page table.
///
/// The DPT is what lets a page-local executor — the serial
/// [`recover_local`] and the partitioned [`crate::parallel`] alike —
/// prove records installed without fetching their pages: a record
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
    /// The fuzzy checkpoint's dirty-page table (page → recLSN), if the
    /// master named a fuzzy checkpoint. `None` for heavyweight
    /// checkpoints and for the no-checkpoint fallback.
    pub dirty: Option<BTreeMap<PageId, Lsn>>,
}

/// One unit of lazy replay ([`RestartAnalysis::component`]): the gated
/// pages that open together, and the residual records that replay
/// first, by LSN.
pub(crate) type Component = (BTreeSet<PageId>, BTreeMap<Lsn, PageOp>);

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

    /// Is the record `(page, lsn)` provably installed by this analysis
    /// alone — no page fetch, no LSN comparison against the image?
    ///
    /// True exactly when a fuzzy checkpoint is in force, the record
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

    /// The record at `lsn` split into the parts restart still
    /// [owes](RestartAnalysis::owes) a redo step: its
    /// [`PageLocal::into_parts`] minus the pages this analysis proves
    /// installed. An operation left with no part is *skipped* without a
    /// page being looked at. Every page-local executor takes its work
    /// from here, so they agree on each verdict by construction.
    ///
    /// # Errors
    ///
    /// [`PageLocal::into_parts`]'s shape violation.
    pub(crate) fn owed_parts<P: PageLocal>(
        &self,
        lsn: Lsn,
        payload: P,
    ) -> SimResult<Option<Parts<P::Part>>> {
        let mut split = payload.into_parts()?;
        if let Some((_, parts)) = &mut split {
            parts.retain(|&(page, _)| !self.provably_installed(page, lsn));
        }
        Ok(split)
    }

    /// `page`'s stable chain entries `(LSN, offset)` restart still
    /// [owes](RestartAnalysis::owes) a redo test, in LSN order.
    pub(crate) fn owed_chain<'a, P: LogPayload>(
        &'a self,
        log: &'a ShardedLog<P>,
        page: PageId,
    ) -> impl Iterator<Item = (Lsn, u64)> + 'a {
        let chain = log.page_chain(page).iter().copied();
        chain.filter(move |&(lsn, _)| self.owes(page, lsn))
    }

    /// Gate placement for the on-demand paths: every chained page whose
    /// stable chain holds a record restart still owes.
    pub(crate) fn gates<P: LogPayload>(&self, log: &ShardedLog<P>) -> Vec<PageId> {
        let owed = |&page: &PageId| self.owed_chain(log, page).next().is_some();
        log.chained_pages().filter(owed).collect()
    }

    /// The unit of lazy replay: the closure of the gated `page` under
    /// the residual conflict graph, chased chain by chain at the moment
    /// of the touch. Each member contributes its owed writers
    /// ([`RestartAnalysis::owed_chain`]) and its cross-readers
    /// ([`ShardedLog::readers_of`]: a record that read the page must
    /// replay before the page's later writers, or it would observe the
    /// future). A record joins while restart still owes it on a gated
    /// page it writes — anything else is installed, or was replayed
    /// with a component served earlier — and brings every gated page it
    /// touches. With both edge directions followed the closure is a
    /// whole connected component (DESIGN §14). `gated` is the caller's
    /// live gate set; each decode is counted into `stats`.
    ///
    /// # Errors
    ///
    /// Log corruption at a chain offset.
    pub(crate) fn component(
        &self,
        log: &ShardedLog<PageOpPayload>,
        page: PageId,
        gated: impl Fn(PageId) -> bool,
        stats: &mut RecoveryStats,
    ) -> SimResult<Component> {
        let mut pages = BTreeSet::new();
        let mut records: BTreeMap<Lsn, PageOp> = BTreeMap::new();
        let mut frontier = vec![page];
        while let Some(p) = frontier.pop() {
            if !pages.insert(p) {
                continue;
            }
            let home = log.shard_of(p);
            let writers = self
                .owed_chain(log, p)
                .map(|(lsn, off)| (lsn, home, off, true));
            let readers = log.readers_of(p).into_iter();
            let owed_readers = readers.filter(|&(lsn, _, _)| lsn >= self.redo_start);
            let entries = writers.chain(owed_readers.map(|(lsn, s, off)| (lsn, s, off, false)));
            for (lsn, shard, off, writes_p) in entries {
                if records.contains_key(&lsn) {
                    continue;
                }
                let rec = log.record_in(shard, off)?;
                debug_assert_eq!(rec.lsn, lsn, "chain entry points at a foreign frame");
                stats.records_decoded += 1;
                stats.seek_hits += 1;
                let PageOpPayload::Op(op) = rec.payload else {
                    continue;
                };
                // An owed writer of `p` is owed on a gated page by
                // construction; a reader has to show one.
                let owed = |w: &Cell| gated(w.page) && self.owes(w.page, lsn);
                if !(writes_p || op.writes.iter().any(owed)) {
                    continue;
                }
                frontier.extend(read_write_pages(&op).filter(|&q| gated(q) && !pages.contains(&q)));
                records.insert(lsn, op);
            }
        }
        Ok((pages, records))
    }
}

/// The analysis step: decide where the redo scan starts from the record
/// the disk master points at. A [`CheckpointRecord::Heavyweight`]
/// installed everything below it, so the scan starts just after; a
/// [`CheckpointRecord::Snapshot`] carries its own precomputed redo-start
/// and dirty-page table; a [`CheckpointRecord::Delta`] is folded over
/// its chain. No master (or a master pointing at anything else) falls
/// back to a full scan from the log's first retained record — always
/// safe, since the per-record redo tests decide installation on their
/// own.
///
/// # Errors
///
/// Log corruption at the master record.
pub fn analyze<P: CheckpointView>(db: &Db<P>) -> SimResult<RestartAnalysis> {
    read_master(db).map(|(analysis, _)| analysis)
}

/// [`analyze`], also reporting — when the master names a healthy fuzzy
/// chain — the chain's base snapshot LSN and its depth in delta links.
fn read_master<P: CheckpointView>(db: &Db<P>) -> SimResult<(RestartAnalysis, Option<(Lsn, u64)>)> {
    let master = db.disk.master();
    if master > Lsn::ZERO {
        let mut cursor = db.log.cursor_from(master);
        if let Some(rec) = cursor.next() {
            let rec = rec?;
            if rec.lsn == master {
                match rec.payload.into_checkpoint() {
                    Some(CheckpointRecord::Heavyweight) => {
                        let analysis = RestartAnalysis {
                            redo_start: master.next(),
                            checkpoint_lsn: Some(master),
                            dirty: None,
                        };
                        return Ok((analysis, None));
                    }
                    Some(CheckpointRecord::Snapshot { dirty, redo_start }) => {
                        let analysis = RestartAnalysis {
                            redo_start,
                            checkpoint_lsn: Some(master),
                            dirty: Some(dirty.into_iter().collect()),
                        };
                        return Ok((analysis, Some((master, 0))));
                    }
                    Some(CheckpointRecord::Delta {
                        prev,
                        base,
                        redo_start,
                        added,
                        removed,
                    }) => {
                        return Ok(fold_delta_chain(
                            db, master, prev, base, redo_start, added, removed,
                        ))
                    }
                    None => {}
                }
            }
        }
    }
    Ok((RestartAnalysis::full_scan(), None))
}

/// Longest delta chain analysis will walk before declaring it broken —
/// a guard against corrupt `prev` links forming a long (or cyclic-
/// looking) walk, far above any chain a sane controller publishes.
const MAX_DELTA_CHAIN: usize = 64;

/// Reconstructs the dirty-page table from a delta-checkpoint chain: walk
/// `prev` links (each strictly decreasing) back to the full
/// [`CheckpointRecord::Snapshot`] at `base`, then fold the deltas
/// oldest→newest over its snapshot — each delta removes its `removed`
/// pages, then inserts its `added` (page, recLSN) pairs. Any break in
/// the chain — a link the log no longer holds, a record of the wrong
/// kind, a foreign `base`, a non-decreasing link, a chain past
/// [`MAX_DELTA_CHAIN`] — falls back to reading `base` as a full
/// snapshot, and failing that to a full scan. The fallbacks only ever
/// *widen* the scan: records below the newest published redo start are
/// durably installed (that is what publication proved), redo tests are
/// monotone, and a base snapshot's `provably_installed` verdicts were
/// true at its own publication — so a stale analysis replays more, never
/// wrongly skips.
fn fold_delta_chain<P: CheckpointView>(
    db: &Db<P>,
    master: Lsn,
    prev: Lsn,
    base: Lsn,
    redo_start: Lsn,
    added: Vec<(PageId, Lsn)>,
    removed: Vec<PageId>,
) -> (RestartAnalysis, Option<(Lsn, u64)>) {
    let mut deltas = vec![(added, removed)];
    let mut link = prev;
    let mut at = master;
    let base_dirty = loop {
        if deltas.len() > MAX_DELTA_CHAIN || link == Lsn::ZERO || link >= at {
            break None;
        }
        let rec = match db.log.record_at_lsn(link) {
            Ok(Some(rec)) => rec,
            // The link is gone (compacted past) or the frame is damaged.
            Ok(None) | Err(_) => break None,
        };
        match rec.payload.into_checkpoint() {
            Some(CheckpointRecord::Snapshot { dirty, .. }) if rec.lsn == base => {
                break Some(dirty);
            }
            Some(CheckpointRecord::Delta {
                prev,
                base: b,
                added,
                removed,
                ..
            }) if b == base => {
                deltas.push((added, removed));
                at = link;
                link = prev;
            }
            // A full snapshot that is not `base`, a heavyweight marker,
            // an operation record, a delta from a different chain: the
            // link is torn.
            _ => break None,
        }
    };
    match base_dirty {
        Some(dirty) => {
            let depth = deltas.len() as u64;
            let mut dpt: BTreeMap<PageId, Lsn> = dirty.into_iter().collect();
            for (added, removed) in deltas.into_iter().rev() {
                for page in removed {
                    dpt.remove(&page);
                }
                for (page, rec) in added {
                    dpt.insert(page, rec);
                }
            }
            let analysis = RestartAnalysis {
                redo_start,
                checkpoint_lsn: Some(master),
                dirty: Some(dpt),
            };
            (analysis, Some((base, depth)))
        }
        None => (fall_back_to_base(db, base), None),
    }
}

/// The torn-delta fallback: read `base` directly as a full snapshot. Its
/// redo start and DPT are stale relative to the master delta but were
/// true at `base`'s own publication — safe, just a wider scan.
fn fall_back_to_base<P: CheckpointView>(db: &Db<P>, base: Lsn) -> RestartAnalysis {
    if let Ok(Some(rec)) = db.log.record_at_lsn(base) {
        if let Some(CheckpointRecord::Snapshot { dirty, redo_start }) =
            rec.payload.into_checkpoint()
        {
            return RestartAnalysis {
                redo_start,
                checkpoint_lsn: Some(base),
                dirty: Some(dirty.into_iter().collect()),
            };
        }
    }
    RestartAnalysis::full_scan()
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
    db.repair_after_crash();
    let analysis = analyze(db)?;
    let stats = RecoveryStats {
        checkpoint_lsn: analysis.checkpoint_lsn,
        truncated_bytes: db.log.truncated_bytes(),
        ..RecoveryStats::default()
    };
    Ok((analysis, stats))
}

/// A method's verdict on one scanned record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Redo {
    /// The redo test fired and the operation (by workload op id) was
    /// re-applied.
    Replayed(u32),
    /// The redo test found the operation already installed.
    Skipped(u32),
    /// A checkpoint marker: scanned, never replayed.
    NotAnOperation,
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

/// The serial Figure-6 procedure: `begin` (repair, analyze), then a
/// streaming scan that seeks past the checkpointed (or fuzzily elided)
/// prefix — never decoding it — and goes batch by batch: prefetch the
/// pages `footprint` names for the upcoming records, then hand each
/// record (with the analysis) to `redo`, the method's redo test and
/// replay.
///
/// # Errors
///
/// Substrate errors, including log corruption.
pub fn recover<P, F, I, R>(db: &mut Db<P>, footprint: F, mut redo: R) -> SimResult<RecoveryStats>
where
    P: CheckpointView,
    F: Fn(&P) -> I,
    I: IntoIterator<Item = PageId>,
    R: FnMut(&mut Db<P>, &RestartAnalysis, Lsn, P) -> SimResult<Redo>,
{
    let (analysis, mut stats) = begin(db)?;
    let mut scanner = ShardedScanner::seek(&db.log, analysis.redo_start);
    let mut pages: Vec<PageId> = Vec::new();
    loop {
        let batch = scanner.next_batch(&db.log, SCAN_BATCH)?;
        if batch.is_empty() {
            break;
        }
        pages.clear();
        pages.extend(batch.iter().flat_map(|rec| footprint(&rec.payload)));
        pages.sort_unstable();
        pages.dedup();
        stats.pages_prefetched += db.pool.prefetch(
            &mut db.disk,
            &pages,
            db.geometry.slots_per_page,
            db.log.stable_lsn(),
        );
        for rec in batch {
            stats.scanned += 1;
            stats.note_verdict(redo(db, &analysis, rec.lsn, rec.payload)?);
        }
    }
    stats.note_scan(scanner.stats(), db.log.forces());
    Ok(stats)
}

/// [`recover`] for the operation-logging methods: `footprint` and
/// `redo_test` see only [`PageOpPayload::Op`] records; `redo_test`
/// answers whether it replayed the operation.
///
/// # Errors
///
/// Substrate errors, including log corruption.
pub fn recover_ops<F, I, R>(
    db: &mut Db<PageOpPayload>,
    footprint: F,
    mut redo_test: R,
) -> SimResult<RecoveryStats>
where
    F: Fn(&PageOp) -> I,
    I: IntoIterator<Item = PageId>,
    R: FnMut(&mut Db<PageOpPayload>, Lsn, &PageOp) -> SimResult<bool>,
{
    recover(
        db,
        |payload| {
            let op = match payload {
                PageOpPayload::Op(op) => Some(op),
                _ => None,
            };
            op.map(&footprint).into_iter().flatten()
        },
        |db, _, lsn, payload| {
            let PageOpPayload::Op(op) = payload else {
                return Ok(Redo::NotAnOperation);
            };
            Ok(Redo::of(op.id, redo_test(db, lsn, &op)?))
        },
    )
}

/// [`recover`] for a [`PageLocal`] payload — the serial executor of its
/// redo: each part restart still owes (`RestartAnalysis::owed_parts`)
/// meets `step` ([`PageLocal::redo`], but for a deliberately broken
/// method) on the pool's frame of its page, through a bounded pool with
/// steal. A frame the step changed is dirty from the record's LSN on.
///
/// # Errors
///
/// Substrate errors, including log corruption and shape violations.
pub fn recover_local<P, S>(db: &mut Db<P>, step: S) -> SimResult<RecoveryStats>
where
    P: PageLocal,
    S: Fn(&mut Page, Lsn, &P::Part) -> bool,
{
    recover(db, P::write_pages, |db, analysis, lsn, payload| {
        let Some((op_id, parts)) = analysis.owed_parts(lsn, payload)? else {
            return Ok(Redo::NotAnOperation);
        };
        let mut replayed = false;
        for (page, part) in &parts {
            db.fetch_with_steal(*page)?;
            replayed |= db.pool.update_if(*page, lsn, |p| step(p, lsn, part))?;
        }
        Ok(Redo::of(op_id, replayed))
    })
}

/// The whole read+write footprint of an operation — what the methods
/// whose replay reads through the recovery cache prefetch.
pub(crate) fn read_write_pages(op: &PageOp) -> impl Iterator<Item = PageId> {
    op.read_pages().into_iter().chain(op.written_pages())
}

/// A heavyweight (flush-everything) checkpoint: force the log, set the
/// stable values to those in the cache — `flush_all` retries around
/// write-order constraints, flushing prerequisite pages first — then
/// write `marker` and move the master to it. Afterwards every logged
/// operation is installed, so recovery may start at the marker.
///
/// # Errors
///
/// Substrate errors.
pub fn checkpoint_heavyweight<P: LogPayload>(db: &mut Db<P>, marker: P) -> SimResult<()> {
    db.flush_everything()?;
    let ck = db.log.append(marker)?;
    db.log.flush_all();
    db.disk.set_master(ck)
}

/// The redo-start a fuzzy snapshot of `table` publishes: the minimum
/// recLSN, or — nothing dirty, everything logged so far installed — the
/// LSN the checkpoint record itself is about to take.
pub(crate) fn redo_start_of<P: LogPayload>(
    table: impl IntoIterator<Item = Lsn>,
    log: &ShardedLog<P>,
) -> Lsn {
    let ck_expected = Lsn(log.last_lsn().0 + 1);
    table.into_iter().min().unwrap_or(ck_expected)
}

/// One fuzzy checkpoint publication, each step a faultable crash point:
/// append `payload`, **force** it through the log, then `land` it.
/// Returns the published checkpoint LSN, or `None` if the attempt was
/// abandoned (the record never became durable, or the master write did
/// not land — both happen under fault injection); an abandoned attempt
/// publishes nothing and truncates nothing.
///
/// # Errors
///
/// Substrate errors. (Fault suppression is not an error — it surfaces
/// as an abandoned attempt.)
pub fn publish<P: LogPayload>(
    log: &mut ShardedLog<P>,
    disk: &mut Disk,
    payload: P,
    redo_start: Lsn,
) -> SimResult<Option<Lsn>> {
    let ck = log.append(payload)?;
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
/// head published. The sequential [`Control`](crate::control::Control)
/// method re-derives it from the log ([`Chain::standing`]); the
/// concurrent daemon keeps it as volatile state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Chain {
    /// LSN of the newest published checkpoint record (the master).
    pub(crate) head: Lsn,
    /// LSN of the full snapshot the chain grows from.
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
    /// `None` when the master names no healthy fuzzy checkpoint (fresh
    /// system, heavyweight marker, orphaned record, torn chain) — the
    /// next publication is then a full snapshot, which is always sound.
    pub(crate) fn standing(db: &Db<PageOpPayload>) -> Option<Chain> {
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
    /// (same base, one deeper); a full snapshot starts a fresh chain.
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

    /// The [`PageOpPayload::DeltaCheckpoint`] carrying `table`'s delta
    /// against this chain's head.
    pub(crate) fn delta_against(
        &self,
        table: &BTreeMap<PageId, Lsn>,
        redo_start: Lsn,
    ) -> PageOpPayload {
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
        PageOpPayload::DeltaCheckpoint {
            prev: self.head,
            base: self.base,
            redo_start,
            added,
            removed,
        }
    }
}

/// The record the next fuzzy checkpoint of `table` logs, with its
/// redo-start: `None` when `chain` is [quiescent](Chain::quiescent); a
/// delta against a live chain shallower than `full_every`; otherwise a
/// full [`PageOpPayload::FuzzyCheckpoint`] snapshot.
pub(crate) fn next_checkpoint(
    chain: Option<&Chain>,
    full_every: u64,
    table: &BTreeMap<PageId, Lsn>,
    log: &ShardedLog<PageOpPayload>,
) -> Option<(PageOpPayload, Lsn)> {
    if chain.is_some_and(|c| c.quiescent(log.last_lsn(), table)) {
        return None;
    }
    let redo_start = redo_start_of(table.values().copied(), log);
    let payload = match chain {
        Some(chain) if chain.depth + 1 < full_every => chain.delta_against(table, redo_start),
        _ => PageOpPayload::FuzzyCheckpoint {
            dirty: table.iter().map(|(&page, &rec)| (page, rec)).collect(),
            redo_start,
        },
    };
    Some((payload, redo_start))
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
    use redo_sim::db::Geometry;

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
                GeneralizedOnline::checkpoint_online(&mut db)
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
    fn standing_chain_is_rederived_only_from_a_healthy_fuzzy_master() {
        let ops = cross_page_workload(12, 5, 7);
        let mut db = Db::new(Geometry::default());
        assert_eq!(Chain::standing(&db), None, "fresh system");
        for op in &ops {
            Control.execute(&mut db, op).unwrap();
        }
        let base = Control::checkpoint_incremental(&mut db).unwrap().unwrap();
        Control.execute(&mut db, &ops[0]).unwrap();
        let head = Control::checkpoint_incremental(&mut db).unwrap().unwrap();
        let chain = Chain::standing(&db).expect("delta over a full snapshot");
        assert_eq!((chain.head, chain.base, chain.depth), (head, base, 1));
        assert_eq!(Some(chain.dpt), analyze(&db).unwrap().dirty);
        Generalized.checkpoint(&mut db).unwrap();
        assert_eq!(Chain::standing(&db), None, "heavyweight marker");
    }
}
