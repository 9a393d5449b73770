//! Page-partitioned, pipelined parallel redo for the physical and
//! physiological methods.
//!
//! Theorem 3 says redo may replay the uninstalled operations in *any*
//! order consistent with the conflict graph. For the §6.2/§6.3 methods
//! every conflict lives inside a single page — physiological operations
//! read and write exactly one page, and a physical record's per-cell
//! after-images commute across pages — so LSN order only matters
//! *within* a page. The stable log tail can therefore be partitioned by
//! [`PageId`] and the partitions redone concurrently, which is precisely
//! the per-variable partition view of
//! [`RedoSchedule::partition_by_var`](redo_theory::schedule::RedoSchedule::partition_by_var)
//! with a page playing the role of a variable.
//!
//! The execution scheme is a *pipeline* whose decode stage scales with
//! the log: one scan thread per log shard runs a streaming frame scan
//! over its shard (a seeked [`LogCursor`](redo_sim::wal::LogCursor) —
//! only the post-checkpoint suffix is ever decoded) and routes its
//! *own* pages' work items, coalesced into batches to amortize channel
//! synchronization, over channels to worker threads, which rebuild
//! page *images* from their durable copies in per-page LSN order
//! **while the scans are still decoding later records** — replay
//! overlaps decode, and with `--log-shards N` the decode itself runs
//! N-wide. Because the log routes a record to the shard of every page
//! it writes (see [`ShardedLog`](redo_sim::wal::ShardedLog)), shard
//! `s`'s scan observes every record touching its pages, and routing
//! only pages homed on `s` ships each page's work exactly once
//! globally, in that shard's LSN order. A page's first routed item
//! carries its starting image (cloned cache copy or durable read), so
//! workers never touch the buffer pool or disk and the substrate needs
//! no internal locking. Scan-settled bookkeeping (skips the dirty-page
//! table proves, checkpoint recognitions) is recorded only by a
//! record's *home* shard — the lowest shard id among its written pages
//! — then merged into global LSN order, so the stats are
//! indistinguishable from a serial scan's. When the scans finish, the
//! channels close, the workers drain, and the calling thread installs
//! the rebuilt images into the buffer pool.
//!
//! Restart is *checkpoint-aware*: the scheduler is fed by the same
//! analysis pass sequential recovery uses ([`redo::analyze`]). The
//! scan seeks straight to the checkpoint's redo-start LSN (the minimum
//! recLSN over the logged dirty-page table), checkpoint records are
//! recognized and never routed to a partition, and a record below the
//! checkpoint whose page the DPT proves installed
//! ([`RestartAnalysis::provably_installed`](crate::redo::RestartAnalysis::provably_installed))
//! is settled as *skipped*
//! at scan time — no partition, and no page fetch, ever sees it.
//!
//! [`ParallelPhysiological`], [`ParallelPhysical`], and
//! [`ParallelOnline`] wrap the scheme in [`RecoveryMethod`] (normal
//! operation delegates to the serial methods), so the harness can
//! crash-test the parallel recovery path exactly like the serial ones.
//! Worker failures stay contained: a panicking redo worker or a routing
//! protocol breach surfaces as a [`SimError`] from `recover_*_parallel`,
//! never as an unwind into the caller.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc;

use redo_sim::db::Db;
use redo_sim::page::Page;
use redo_sim::wal::{LogPayload, ScanStats, ShardFrame, WalRecord};
use redo_sim::{SimError, SimResult};
use redo_theory::log::Lsn;
use redo_workload::pages::{PageId, PageOp, SlotId};

use crate::online::GeneralizedOnline;
use crate::oprecord::PageOpPayload;
use crate::physical::{PhysPayload, Physical};
use crate::physiological::Physiological;
use crate::{redo, RecoveryMethod, RecoveryStats};

/// One unit of redo work in flight from the scan thread to a worker:
/// a page's record (or record fragment) plus, with the page's first
/// item, its starting image.
struct WorkItem<T> {
    page: PageId,
    lsn: Lsn,
    op_id: u32,
    payload: T,
    start: Option<Page>,
}

/// Items per channel send. Redo work items are tiny (a page op or a
/// handful of cell writes), so routing them one send apiece would cost
/// more in channel synchronization than the replay itself; the router
/// coalesces this many per worker before handing off.
const ROUTE_BATCH: usize = 256;

/// The outcome of redoing one partition.
struct Rebuilt {
    page: PageId,
    image: Page,
    replayed: Vec<(Lsn, u32)>,
    skipped: Vec<(Lsn, u32)>,
}

/// Bookkeeping a scan thread settles without routing any work — kept
/// as data (rather than mutating shared stats) so the per-shard scans
/// stay lock-free, and merged into global LSN order after they join.
enum ScanEvent {
    /// A record the scan decoded (checkpoints included), counted once
    /// at its home shard.
    Scanned,
    /// A checkpoint record recognized and declined as page work.
    Checkpoint,
    /// An operation settled *replayed* at scan time (physical
    /// fragments replay unconditionally; the op is counted here).
    Replayed(u32),
    /// An operation settled *skipped* at scan time (the dirty-page
    /// table proved every surviving fragment installed).
    Skipped(u32),
}

/// A worker's main loop: consume item batches as the scan routes them,
/// applying each to its page's image the moment it arrives. The channel
/// closing (scan finished) ends the loop.
///
/// An erroring worker drops its receiver early; the router tolerates
/// the resulting send failures and the error surfaces at join time.
fn redo_worker<T, F>(rx: mpsc::Receiver<Vec<WorkItem<T>>>, apply: &F) -> SimResult<Vec<Rebuilt>>
where
    F: Fn(&mut Page, Lsn, &T) -> bool + Sync,
{
    let mut parts: BTreeMap<PageId, Rebuilt> = BTreeMap::new();
    for WorkItem {
        page,
        lsn,
        op_id,
        payload,
        start,
    } in rx.into_iter().flatten()
    {
        let part = match parts.entry(page) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                // The routing protocol ships a page's starting image
                // with its first item; a breach is a structured error,
                // never a panic (the caller may be mid-recovery of a
                // production restart).
                let Some(image) = start else {
                    return Err(SimError::MissingStartImage(page));
                };
                e.insert(Rebuilt {
                    page,
                    image,
                    replayed: Vec::new(),
                    skipped: Vec::new(),
                })
            }
        };
        if apply(&mut part.image, lsn, &payload) {
            part.replayed.push((lsn, op_id));
        } else {
            part.skipped.push((lsn, op_id));
        }
    }
    Ok(parts.into_values().collect())
}

/// A record's *home* shard: the lowest shard id among its written
/// pages (shard 0 for page-less records, which broadcast everywhere).
/// Exactly one scan thread observes a record as home, so per-record
/// bookkeeping settles exactly once even when the record itself is
/// replicated across shards.
fn home_shard<P: LogPayload>(db: &Db<P>, rec: &WalRecord<P>) -> usize {
    rec.payload
        .write_pages()
        .iter()
        .map(|&p| db.log.shard_of(p))
        .min()
        .unwrap_or(0)
}

/// One shard's scan thread: streams the shard's frames from the seeked
/// cursor, shards each record into per-page work items via `shard_fn`,
/// and routes the items homed on this shard to the workers. Returns
/// the home-settled events (in this shard's LSN order) and the scan
/// telemetry.
fn scan_shard<P, T, S>(
    db: &Db<P>,
    s: usize,
    from: Lsn,
    shard_fn: &S,
    txs: &[mpsc::Sender<Vec<WorkItem<T>>>],
) -> SimResult<(Vec<(Lsn, ScanEvent)>, ScanStats)>
where
    P: LogPayload,
    T: Send,
    S: Fn(WalRecord<P>) -> SimResult<(Vec<(PageId, Lsn, u32, T)>, Vec<ScanEvent>)> + Sync,
{
    let threads = txs.len();
    let mut bufs: Vec<Vec<WorkItem<T>>> = (0..threads)
        .map(|_| Vec::with_capacity(ROUTE_BATCH))
        .collect();
    let mut routed: BTreeSet<PageId> = BTreeSet::new();
    let mut events: Vec<(Lsn, ScanEvent)> = Vec::new();
    let mut cursor = db.log.shard_cursor_from(s, from);
    let mut scan_err: Option<SimError> = None;
    'scan: for frame in cursor.by_ref() {
        let frame = match frame {
            Ok(frame) => frame,
            Err(e) => {
                scan_err = Some(e);
                break;
            }
        };
        // Flush-group markers are log plumbing, not records.
        let ShardFrame::Rec(payload) = frame.payload else {
            continue;
        };
        let rec = WalRecord {
            lsn: frame.lsn,
            payload,
        };
        let is_home = home_shard(db, &rec) == s;
        let lsn = rec.lsn;
        let (items, evs) = match shard_fn(rec) {
            Ok(out) => out,
            Err(e) => {
                scan_err = Some(e);
                break;
            }
        };
        if is_home {
            events.extend(evs.into_iter().map(|e| (lsn, e)));
        }
        for (page, lsn, op_id, payload) in items {
            // Every shard holding a copy of the record computes the
            // same item set; only the page's home shard ships it, so
            // each page's work routes exactly once globally.
            if db.log.shard_of(page) != s {
                continue;
            }
            // The page's first item ships its starting image: the
            // cached copy if recovery already progressed, else the
            // durable page.
            let start = match routed
                .insert(page)
                .then(|| start_image(db, page))
                .transpose()
            {
                Ok(start) => start,
                Err(e) => {
                    scan_err = Some(e);
                    break 'scan;
                }
            };
            let w = page.0 as usize % threads;
            bufs[w].push(WorkItem {
                page,
                lsn,
                op_id,
                payload,
                start,
            });
            if bufs[w].len() == ROUTE_BATCH {
                // A failed send means the worker panicked; the join in
                // the driver surfaces it.
                let batch = std::mem::replace(&mut bufs[w], Vec::with_capacity(ROUTE_BATCH));
                let _ = txs[w].send(batch);
            }
        }
    }
    for (w, buf) in bufs.into_iter().enumerate() {
        if !buf.is_empty() {
            let _ = txs[w].send(buf);
        }
    }
    match scan_err {
        Some(e) => Err(e),
        None => Ok((events, cursor.stats())),
    }
}

/// The pipeline's joined output: rebuilt partitions in page-id order,
/// scan telemetry summed over shards, and the scan-settled events
/// merged into global LSN order.
type PipelineOutput = (Vec<Rebuilt>, ScanStats, Vec<(Lsn, ScanEvent)>);

/// Drives the pipeline: one scan thread per log shard streams records
/// from its shard's seeked cursor, shards each into per-page work
/// items via `shard_fn`, and routes them to `threads` workers applying
/// `apply`. Returns the rebuilt partitions in page-id order, the scan
/// telemetry summed over shards, and the scan-settled events merged
/// into global LSN order.
fn pipeline_partitions<P, T, F, S>(
    db: &Db<P>,
    from: Lsn,
    threads: usize,
    shard_fn: S,
    apply: F,
) -> SimResult<PipelineOutput>
where
    P: LogPayload + Sync,
    T: Send,
    F: Fn(&mut Page, Lsn, &T) -> bool + Sync,
    S: Fn(WalRecord<P>) -> SimResult<(Vec<(PageId, Lsn, u32, T)>, Vec<ScanEvent>)> + Sync,
{
    let threads = threads.max(1);
    let n_shards = db.log.n_shards();
    let apply = &apply;
    let shard_fn = &shard_fn;
    std::thread::scope(|scope| {
        let mut txs = Vec::with_capacity(threads);
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let (tx, rx) = mpsc::channel::<Vec<WorkItem<T>>>();
            txs.push(tx);
            handles.push(scope.spawn(move || redo_worker(rx, apply)));
        }
        // One scan thread per log shard; each gets its own sender
        // clones (mpsc preserves per-sender order, and a page's items
        // all come from its home shard's sender, so per-page LSN order
        // survives the multi-producer merge).
        let scan_handles: Vec<_> = (0..n_shards)
            .map(|s| {
                let txs: Vec<mpsc::Sender<Vec<WorkItem<T>>>> = txs.clone();
                scope.spawn(move || scan_shard(db, s, from, shard_fn, &txs))
            })
            .collect();
        let mut events: Vec<(Lsn, ScanEvent)> = Vec::new();
        let mut stats = ScanStats::default();
        let mut scan_err: Option<SimError> = None;
        for h in scan_handles {
            match h.join() {
                Ok(Ok((evs, st))) => {
                    events.extend(evs);
                    stats.absorb(st);
                }
                Ok(Err(e)) => scan_err = scan_err.or(Some(e)),
                Err(_) => scan_err = scan_err.or(Some(SimError::RecoveryWorkerPanic)),
            }
        }
        // Closing the channels ends the workers' loops.
        drop(txs);
        // Every worker is joined before any error returns, so no
        // thread outlives the scope regardless of outcome. A panicking
        // worker is contained here and reported as a recovery error —
        // it must never unwind across `recover_*_parallel`.
        let mut rebuilt: Vec<Rebuilt> = Vec::new();
        let mut worker_err: Option<SimError> = None;
        for h in handles {
            match h.join() {
                Ok(Ok(parts)) => rebuilt.extend(parts),
                Ok(Err(e)) => worker_err = worker_err.or(Some(e)),
                Err(_) => worker_err = worker_err.or(Some(SimError::RecoveryWorkerPanic)),
            }
        }
        if let Some(e) = scan_err {
            return Err(e);
        }
        if let Some(e) = worker_err {
            return Err(e);
        }
        rebuilt.sort_by_key(|r| r.page);
        // Each shard's events arrive in its own LSN order; a stable
        // sort by LSN interleaves them into the global order (events of
        // one record share an LSN and a shard, so their relative order
        // is preserved).
        events.sort_by_key(|&(lsn, _)| lsn);
        Ok((rebuilt, stats, events))
    })
}

/// The durable (or already-cached) starting image for a page: recovery
/// normally begins with an empty pool, but re-entrant recovery must see
/// its own earlier progress just as the serial scan's `fetch` does.
fn start_image<P: LogPayload>(db: &Db<P>, page: PageId) -> SimResult<Page> {
    match db.pool.get(page) {
        Some(p) => Ok(p.clone()),
        None => db.disk.read_page(page, db.geometry.slots_per_page),
    }
}

/// Installs rebuilt images into the buffer pool and folds the
/// per-partition redo decisions — plus the records the DPT let the scan
/// settle as skipped before routing (`elided`) — into `stats` in global
/// LSN order, so the stats are indistinguishable from a serial scan's.
fn install<P: LogPayload>(
    db: &mut Db<P>,
    rebuilt: Vec<Rebuilt>,
    elided: Vec<(Lsn, u32)>,
    stats: &mut RecoveryStats,
) -> SimResult<()> {
    let mut replayed: Vec<(Lsn, u32)> = Vec::new();
    let mut skipped: Vec<(Lsn, u32)> = elided;
    for r in rebuilt {
        replayed.extend(r.replayed.iter().copied());
        skipped.extend(r.skipped.iter().copied());
        if r.replayed.is_empty() {
            // Nothing fired on this page: its image equals the durable
            // copy, so there is nothing to install (and dirtying it
            // would provoke spurious flushes later).
            continue;
        }
        let stable = db.log.stable_lsn();
        db.pool
            .fetch(&mut db.disk, r.page, db.geometry.slots_per_page, stable)?;
        let lsn = r.image.lsn();
        let image = r.image;
        db.pool.update(r.page, lsn, move |p| *p = image)?;
    }
    replayed.sort_unstable();
    skipped.sort_unstable();
    stats
        .replayed
        .extend(replayed.into_iter().map(|(_, id)| id));
    stats.skipped.extend(skipped.into_iter().map(|(_, id)| id));
    Ok(())
}

/// Physiological recovery (§6.3) with page-partitioned, pipelined
/// parallel redo, fed by the checkpoint analysis: the scan seeks to
/// the analysis' redo-start, the streaming scan routes each surviving
/// record to a per-page worker the moment it decodes, and the per-page
/// LSN redo test and replay run concurrently with the rest of the
/// scan. Records below a fuzzy checkpoint whose page the dirty-page
/// table proves installed are settled as skipped at scan time and
/// never reach a partition; checkpoint records themselves are counted
/// ([`ScanStats::checkpoint_records`]) but never routed.
///
/// Works against any [`PageOpPayload`] image whose operations are
/// single-page — [`Physiological`]'s heavyweight checkpoints and
/// [`GeneralizedOnline`]'s fuzzy online checkpoints alike. Reaches the
/// same rebuilt state and semantic stats as the sequential
/// checkpoint-aware scan (the harness, checker, and proptests enforce
/// this differentially).
///
/// # Errors
///
/// Substrate errors, including log corruption, shape violations, and
/// contained worker failures ([`SimError::RecoveryWorkerPanic`],
/// [`SimError::MissingStartImage`]).
pub fn recover_physiological_parallel(
    db: &mut Db<PageOpPayload>,
    threads: usize,
) -> SimResult<RecoveryStats> {
    // The analysis pass hands the partitioned scheduler its feed: the
    // redo-start LSN to seek to and the dirty-page table to route by.
    let (analysis, mut stats) = redo::begin(db)?;
    let analysis_ref = &analysis;
    let (rebuilt, mut scan, events) = pipeline_partitions(
        db,
        analysis.redo_start,
        threads,
        move |rec: WalRecord<PageOpPayload>| {
            let PageOpPayload::Op(op) = rec.payload else {
                // Checkpoint records are not page writes: they must
                // never be routed to a page partition.
                return Ok((Vec::new(), vec![ScanEvent::Scanned, ScanEvent::Checkpoint]));
            };
            let written = op.written_pages();
            if written.len() != 1 || op.read_pages().iter().any(|p| *p != written[0]) {
                return Err(SimError::MethodViolation(
                    "physiological operations access exactly one page",
                ));
            }
            if analysis_ref.provably_installed(written[0], rec.lsn) {
                // The DPT already decided this record: skipped, settled
                // at scan time, no partition or page fetch involved.
                return Ok((
                    Vec::new(),
                    vec![ScanEvent::Scanned, ScanEvent::Skipped(op.id)],
                ));
            }
            Ok((
                vec![(written[0], rec.lsn, op.id, op)],
                vec![ScanEvent::Scanned],
            ))
        },
        |image, lsn, op: &PageOp| {
            if image.lsn() >= lsn {
                return false; // already installed on the durable copy
            }
            // All reads are on this page, and the image holds every earlier
            // operation's effects — the operation is applicable.
            let read_values: Vec<u64> = op.reads.iter().map(|c| image.get(c.slot)).collect();
            for &cell in &op.writes {
                image.set(cell.slot, op.output(cell, &read_values));
            }
            image.set_lsn(lsn);
            true
        },
    )?;
    let mut elided: Vec<(Lsn, u32)> = Vec::new();
    for (lsn, ev) in events {
        match ev {
            ScanEvent::Scanned => stats.scanned += 1,
            ScanEvent::Checkpoint => scan.checkpoint_records += 1,
            ScanEvent::Skipped(id) => elided.push((lsn, id)),
            ScanEvent::Replayed(id) => stats.replayed.push(id),
        }
    }
    install(db, rebuilt, elided, &mut stats)?;
    stats.note_scan(scan, db.log.forces());
    Ok(stats)
}

/// Physical recovery (§6.2) with page-partitioned, pipelined parallel
/// redo, fed by the checkpoint analysis: the blind after-images are
/// split per page as they stream off the scan (a multi-page record
/// contributes a fragment to each page it touches) and replayed on
/// worker threads in per-page LSN order while the scan continues.
///
/// Under a heavyweight checkpoint this is equivalent to
/// [`Physical::recover`]: every record replays, so an operation is
/// counted replayed once even when its cells span pages. Under a
/// *fuzzy* checkpoint ([`Physical::checkpoint_fuzzy`]) the dirty-page
/// table additionally lets the router drop fragments it can prove
/// installed — the sequential path re-applies them harmlessly, the
/// partitioned path never ships them; a record all of whose fragments
/// are provably installed is counted skipped. Both paths rebuild the
/// identical state.
///
/// # Errors
///
/// Substrate errors, including log corruption and contained worker
/// failures ([`SimError::RecoveryWorkerPanic`],
/// [`SimError::MissingStartImage`]).
pub fn recover_physical_parallel(
    db: &mut Db<PhysPayload>,
    threads: usize,
) -> SimResult<RecoveryStats> {
    let (analysis, mut stats) = redo::begin(db)?;
    let analysis_ref = &analysis;
    let (rebuilt, mut scan, events) = pipeline_partitions(
        db,
        analysis.redo_start,
        threads,
        move |rec: WalRecord<PhysPayload>| {
            let lsn = rec.lsn;
            let PhysPayload::Writes { op_id, writes } = rec.payload else {
                // Checkpoint records are not page writes: count them,
                // never route them.
                return Ok((Vec::new(), vec![ScanEvent::Scanned, ScanEvent::Checkpoint]));
            };
            let mut per_page: BTreeMap<PageId, Vec<(SlotId, u64)>> = BTreeMap::new();
            for (cell, v) in writes {
                per_page.entry(cell.page).or_default().push((cell.slot, v));
            }
            // Fragments the DPT proves installed never reach a
            // partition; surviving fragments replay unconditionally
            // (blind, idempotent), so the per-operation verdict is
            // settled at scan time — at the record's home shard, in
            // LSN order — and the workers only rebuild images.
            per_page.retain(|&page, _| !analysis_ref.provably_installed(page, lsn));
            if per_page.is_empty() {
                return Ok((
                    Vec::new(),
                    vec![ScanEvent::Scanned, ScanEvent::Skipped(op_id)],
                ));
            }
            Ok((
                per_page
                    .into_iter()
                    .map(|(page, cells)| (page, lsn, op_id, cells))
                    .collect(),
                vec![ScanEvent::Scanned, ScanEvent::Replayed(op_id)],
            ))
        },
        |image, lsn, cells: &Vec<(SlotId, u64)>| {
            for &(slot, v) in cells {
                image.set(slot, v);
            }
            image.set_lsn(lsn);
            true
        },
    )?;
    for (_, ev) in events {
        match ev {
            ScanEvent::Scanned => stats.scanned += 1,
            ScanEvent::Checkpoint => scan.checkpoint_records += 1,
            ScanEvent::Skipped(id) => stats.skipped.push(id),
            ScanEvent::Replayed(id) => stats.replayed.push(id),
        }
    }
    // Worker-side replay bookkeeping is per-fragment; the scan already
    // settled the per-operation stats, so the install discards it.
    install(db, rebuilt, Vec::new(), &mut RecoveryStats::default())?;
    stats.note_scan(scan, db.log.forces());
    Ok(stats)
}

/// [`Physiological`] with the recovery path replaced by
/// [`recover_physiological_parallel`]. Normal operation (logging,
/// checkpoints) is identical, so crash states interchange freely with
/// the serial method's.
#[derive(Clone, Copy, Debug)]
pub struct ParallelPhysiological {
    /// Worker threads for the redo phase.
    pub threads: usize,
}

impl RecoveryMethod for ParallelPhysiological {
    type Payload = PageOpPayload;

    fn name(&self) -> &'static str {
        "physiological-parallel"
    }

    fn execute(&self, db: &mut Db<PageOpPayload>, op: &PageOp) -> SimResult<Lsn> {
        Physiological.execute(db, op)
    }

    fn checkpoint(&self, db: &mut Db<PageOpPayload>) -> SimResult<()> {
        Physiological.checkpoint(db)
    }

    fn recover(&self, db: &mut Db<PageOpPayload>) -> SimResult<RecoveryStats> {
        recover_physiological_parallel(db, self.threads)
    }

    fn parallel_restart(
        &self,
        db: &mut Db<PageOpPayload>,
        threads: usize,
    ) -> Option<SimResult<RecoveryStats>> {
        Some(recover_physiological_parallel(db, threads))
    }
}

/// [`Physical`] with the recovery path replaced by
/// [`recover_physical_parallel`] and the checkpoint discipline by the
/// *fuzzy* one ([`Physical::checkpoint_fuzzy`]) — so a crashed image
/// carries a dirty-page table for the partitioned restart to route by.
#[derive(Clone, Copy, Debug)]
pub struct ParallelPhysical {
    /// Worker threads for the redo phase.
    pub threads: usize,
}

impl RecoveryMethod for ParallelPhysical {
    type Payload = PhysPayload;

    fn name(&self) -> &'static str {
        "physical-parallel"
    }

    fn execute(&self, db: &mut Db<PhysPayload>, op: &PageOp) -> SimResult<Lsn> {
        Physical.execute(db, op)
    }

    fn checkpoint(&self, db: &mut Db<PhysPayload>) -> SimResult<()> {
        Physical::checkpoint_fuzzy(db).map(|_| ())
    }

    fn recover(&self, db: &mut Db<PhysPayload>) -> SimResult<RecoveryStats> {
        recover_physical_parallel(db, self.threads)
    }

    fn parallel_restart(
        &self,
        db: &mut Db<PhysPayload>,
        threads: usize,
    ) -> Option<SimResult<RecoveryStats>> {
        Some(recover_physical_parallel(db, threads))
    }
}

/// The online fuzzy-checkpoint discipline
/// ([`GeneralizedOnline::checkpoint_online`]) over physiological
/// (single-page) operations, with the recovery path replaced by the
/// DPT-fed [`recover_physiological_parallel`] — the full tentpole
/// combination: fuzzy checkpoints with log truncation during normal
/// operation, and a checkpoint-aware page-partitioned parallel
/// restart after a crash.
#[derive(Clone, Copy, Debug)]
pub struct ParallelOnline {
    /// Worker threads for the redo phase.
    pub threads: usize,
}

impl RecoveryMethod for ParallelOnline {
    type Payload = PageOpPayload;

    fn name(&self) -> &'static str {
        "online-parallel"
    }

    fn execute(&self, db: &mut Db<PageOpPayload>, op: &PageOp) -> SimResult<Lsn> {
        Physiological.execute(db, op)
    }

    fn checkpoint(&self, db: &mut Db<PageOpPayload>) -> SimResult<()> {
        GeneralizedOnline::checkpoint_online(db).map(|_| ())
    }

    fn recover(&self, db: &mut Db<PageOpPayload>) -> SimResult<RecoveryStats> {
        recover_physiological_parallel(db, self.threads)
    }

    fn parallel_restart(
        &self,
        db: &mut Db<PageOpPayload>,
        threads: usize,
    ) -> Option<SimResult<RecoveryStats>> {
        Some(recover_physiological_parallel(db, threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generalized::Generalized;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use redo_sim::db::Geometry;
    use redo_workload::pages::PageWorkloadSpec;

    fn chaotic_crashed_db<M: RecoveryMethod>(
        method: &M,
        ops: &[PageOp],
        seed: u64,
    ) -> Db<M::Payload> {
        crate::testkit::crashed_db(method, ops, seed, None)
    }

    #[test]
    fn physiological_parallel_matches_serial() {
        let ops = PageWorkloadSpec {
            n_ops: 40,
            n_pages: 6,
            ..Default::default()
        }
        .generate(11);
        for threads in [1, 2, 4, 8] {
            let mut serial_db = chaotic_crashed_db(&Physiological, &ops, 3);
            let serial = Physiological.recover(&mut serial_db).unwrap();
            let mut par_db = chaotic_crashed_db(&Physiological, &ops, 3);
            let parallel = recover_physiological_parallel(&mut par_db, threads).unwrap();
            assert_eq!(parallel, serial, "threads={threads}");
            assert_eq!(
                par_db.volatile_theory_state(),
                serial_db.volatile_theory_state(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn physical_parallel_matches_serial() {
        let ops = PageWorkloadSpec {
            n_ops: 40,
            n_pages: 6,
            blind_fraction: 1.0,
            cross_page_fraction: 0.4,
            multi_page_fraction: 0.4,
            ..Default::default()
        }
        .generate(12);
        for threads in [1, 2, 4, 8] {
            let mut serial_db = chaotic_crashed_db(&Physical, &ops, 5);
            let serial = Physical.recover(&mut serial_db).unwrap();
            let mut par_db = chaotic_crashed_db(&Physical, &ops, 5);
            let parallel = recover_physical_parallel(&mut par_db, threads).unwrap();
            assert_eq!(parallel, serial, "threads={threads}");
            assert_eq!(
                par_db.volatile_theory_state(),
                serial_db.volatile_theory_state(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn parallel_recovery_survives_repeated_crashes() {
        let ops = PageWorkloadSpec {
            n_ops: 25,
            n_pages: 4,
            ..Default::default()
        }
        .generate(13);
        let method = ParallelPhysiological { threads: 4 };
        let mut db = chaotic_crashed_db(&method, &ops, 7);
        method.recover(&mut db).unwrap();
        let once = db.volatile_theory_state();
        for _ in 0..3 {
            db.crash();
            method.recover(&mut db).unwrap();
            assert_eq!(db.volatile_theory_state(), once);
        }
    }

    #[test]
    fn fuzzy_checkpoint_feeds_the_parallel_scheduler() {
        // The tentpole path: online fuzzy checkpoints during normal
        // operation, then a DPT-fed partitioned restart that must match
        // the sequential checkpoint-aware scan exactly — same state,
        // same semantic stats — at every thread count.
        let ops = PageWorkloadSpec {
            n_ops: 40,
            n_pages: 6,
            ..Default::default()
        }
        .generate(21);
        let method = ParallelOnline { threads: 4 };
        let build = || {
            let mut db = Db::new(Geometry::default());
            let mut rng = StdRng::seed_from_u64(9);
            for (i, op) in ops.iter().enumerate() {
                method.execute(&mut db, op).unwrap();
                db.chaos_flush(&mut rng, 0.5, 0.3).unwrap();
                if (i + 1) % 11 == 0 {
                    method.checkpoint(&mut db).unwrap();
                }
            }
            db.log.flush_all();
            db.crash();
            db
        };
        let mut serial_db = build();
        let serial = Generalized.recover(&mut serial_db).unwrap();
        assert!(serial.checkpoint_lsn.is_some());
        for threads in [1, 2, 4, 8] {
            let mut par_db = build();
            let parallel = recover_physiological_parallel(&mut par_db, threads).unwrap();
            assert_eq!(parallel, serial, "threads={threads}");
            assert_eq!(
                par_db.volatile_theory_state(),
                serial_db.volatile_theory_state(),
                "threads={threads}"
            );
            assert_eq!(parallel.checkpoint_lsn, serial.checkpoint_lsn);
            // The scan covers the checkpoint record itself (redo_start
            // ≤ checkpoint LSN), recognizes it, and never routes it.
            assert!(
                parallel.checkpoint_records >= 1,
                "checkpoint records must be counted, not routed: {parallel:?}"
            );
        }
    }

    #[test]
    fn parallel_restart_is_idempotent_across_fuzzy_checkpoints() {
        let ops = PageWorkloadSpec {
            n_ops: 30,
            n_pages: 5,
            ..Default::default()
        }
        .generate(22);
        let method = ParallelOnline { threads: 3 };
        let mut db = Db::new(Geometry::default());
        let mut rng = StdRng::seed_from_u64(17);
        for (i, op) in ops.iter().enumerate() {
            method.execute(&mut db, op).unwrap();
            db.chaos_flush(&mut rng, 0.6, 0.3).unwrap();
            if (i + 1) % 7 == 0 {
                method.checkpoint(&mut db).unwrap();
            }
        }
        db.log.flush_all();
        db.crash();
        method.recover(&mut db).unwrap();
        let once = db.volatile_theory_state();
        for _ in 0..3 {
            db.crash();
            method.recover(&mut db).unwrap();
            assert_eq!(db.volatile_theory_state(), once);
        }
    }

    #[test]
    fn physical_fuzzy_checkpoints_match_serial_recovery() {
        // ParallelPhysical now checkpoints fuzzily: the parallel path
        // routes by the DPT (dropping provably-installed fragments),
        // the serial path blindly re-applies them; both must rebuild
        // the identical state.
        let ops = PageWorkloadSpec {
            n_ops: 30,
            n_pages: 6,
            blind_fraction: 1.0,
            cross_page_fraction: 0.4,
            multi_page_fraction: 0.4,
            ..Default::default()
        }
        .generate(15);
        let method = ParallelPhysical { threads: 3 };
        let build = || {
            let mut db = Db::new(Geometry::default());
            let mut rng = StdRng::seed_from_u64(4);
            for (i, op) in ops.iter().enumerate() {
                method.execute(&mut db, op).unwrap();
                db.chaos_flush(&mut rng, 0.6, 0.4).unwrap();
                if (i + 1) % 9 == 0 {
                    method.checkpoint(&mut db).unwrap();
                }
            }
            db.log.flush_all();
            db.crash();
            db
        };
        let mut serial_db = build();
        let serial = Physical.recover(&mut serial_db).unwrap();
        assert!(serial.checkpoint_lsn.is_some());
        for threads in [1, 2, 4, 8] {
            let mut par_db = build();
            let parallel = recover_physical_parallel(&mut par_db, threads).unwrap();
            assert_eq!(
                par_db.volatile_theory_state(),
                serial_db.volatile_theory_state(),
                "threads={threads}"
            );
            // Everything serial replayed is either replayed by the
            // parallel path too or proven installed by the DPT.
            assert_eq!(
                parallel.replayed.len() + parallel.skipped.len(),
                serial.replayed.len(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn worker_panic_is_contained_as_an_error() {
        let ops = PageWorkloadSpec {
            n_ops: 10,
            n_pages: 3,
            ..Default::default()
        }
        .generate(23);
        let mut db = chaotic_crashed_db(&Physiological, &ops, 3);
        db.repair_after_crash();
        let result = pipeline_partitions(
            &db,
            Lsn(1),
            2,
            |rec: WalRecord<PageOpPayload>| {
                let PageOpPayload::Op(op) = rec.payload else {
                    return Ok((Vec::new(), Vec::new()));
                };
                Ok((
                    vec![(op.written_pages()[0], rec.lsn, op.id, op)],
                    Vec::new(),
                ))
            },
            |_image: &mut Page, _lsn, _op: &PageOp| panic!("injected worker failure"),
        );
        assert!(
            matches!(result, Err(SimError::RecoveryWorkerPanic)),
            "a panicking worker must surface as a recovery error"
        );
    }

    #[test]
    fn missing_start_image_is_a_structured_error() {
        let (tx, rx) = mpsc::channel();
        tx.send(vec![WorkItem {
            page: PageId(3),
            lsn: Lsn(1),
            op_id: 0,
            payload: (),
            start: None,
        }])
        .unwrap();
        drop(tx);
        let apply = |_: &mut Page, _: Lsn, _: &()| true;
        assert!(
            matches!(redo_worker(rx, &apply), Err(SimError::MissingStartImage(p)) if p == PageId(3)),
            "a page routed without its start image must error, not panic"
        );
    }

    #[test]
    fn checkpoint_bounds_the_parallel_scan() {
        let ops = PageWorkloadSpec {
            n_ops: 16,
            n_pages: 4,
            ..Default::default()
        }
        .generate(14);
        let method = ParallelPhysiological { threads: 2 };
        let mut db = Db::new(Geometry::default());
        for op in &ops[..10] {
            method.execute(&mut db, op).unwrap();
        }
        method.checkpoint(&mut db).unwrap();
        for op in &ops[10..] {
            method.execute(&mut db, op).unwrap();
        }
        db.log.flush_all();
        db.crash();
        let stats = method.recover(&mut db).unwrap();
        assert_eq!(stats.scanned, 6);
        assert_eq!(stats.replay_count() + stats.skipped.len(), 6);
        // The seek index carried the scan past the checkpointed prefix:
        // only the post-checkpoint suffix was decoded.
        assert!(
            stats.records_decoded <= 6,
            "checkpoint must bound decode work: {stats:?}"
        );
    }
}
