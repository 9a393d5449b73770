//! Page-partitioned, pipelined parallel redo: the partitioned executor
//! of a [`PageLocal`] method's one redo step.
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
//! with a page playing the role of a variable. That makes this module
//! an *executor* of Figure 6's one procedure, not another method:
//! [`recover_partitioned`] is generic over the payload and runs exactly
//! what the serial executor ([`redo::recover_local`]) runs — the same
//! opening moves (`redo::begin`), the same split of a record into the
//! parts restart still owes (`RestartAnalysis::owed_parts`), the same
//! step ([`PageLocal::redo`]) — on page images held by worker threads
//! instead of in the serial executor's one scratch.
//!
//! The execution scheme is a *pipeline* whose decode stage scales with
//! the log: one scan thread per log shard reads its shard in place (a
//! seeked [`ShardedLog::shard_suffix`](redo_sim::wal::ShardedLog::shard_suffix)
//! — only the post-checkpoint suffix is ever read) and routes its
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
//! no internal locking. Per-record bookkeeping — the scanned and
//! checkpoint-record counts, and the verdict on an operation the
//! analysis left no part of — is settled only by a record's *home*
//! shard, the lowest shard id among its written pages. When the scans
//! finish, the channels close, the workers drain, and the calling
//! thread folds the verdicts and installs the rebuilt images.
//!
//! One verdict rule serves both payloads, and it is the serial
//! executor's: an operation is *replayed* if the step fired on any of
//! its parts, else *skipped* — folded in LSN order from the workers'
//! per-part answers plus the scan-time elisions, so the stats are
//! indistinguishable from a serial scan's.
//!
//! Restart is *checkpoint-aware* through the shared split: the scan
//! seeks straight to the checkpoint's redo-start LSN (the minimum
//! recLSN over the logged dirty-page table), checkpoint records are
//! recognized and never routed to a partition, and a part below the
//! checkpoint whose page the DPT proves installed
//! ([`RestartAnalysis::provably_installed`](crate::redo::RestartAnalysis::provably_installed))
//! never reaches a partition — no page fetch ever sees it.
//!
//! A rebuilt image enters the pool with the LSN of the **first** record
//! replayed into it as its recLSN
//! ([`BufferPool::install`](redo_sim::cache::BufferPool::install)) —
//! what the serial executor's first update of the frame records — so
//! the next fuzzy checkpoint publishes a redo-start the disk can
//! honour.
//!
//! [`ParallelPhysiological`], [`ParallelPhysical`], and
//! [`ParallelOnline`] wrap the executor in [`RecoveryMethod`] (normal
//! operation delegates to the serial methods), so the harness can
//! crash-test the parallel recovery path exactly like the serial ones.
//! Worker failures stay contained: a panicking redo worker or a routing
//! protocol breach surfaces as a [`SimError`] from
//! [`recover_partitioned`], never as an unwind into the caller.

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc;

use redo_sim::db::Db;
use redo_sim::page::{Page, PageMut};
use redo_sim::wal::{ScanStats, WalRecord};
use redo_sim::{SimError, SimResult};
use redo_theory::log::Lsn;
use redo_workload::pages::{PageId, PageOp};

use crate::oprecord::PageOpPayload;
use crate::physical::{PhysPayload, Physical};
use crate::physiological::Physiological;
use crate::redo::{self, Checkpoint, PageLocal, Redo, RestartAnalysis};
use crate::{RecoveryMethod, RecoveryStats};

/// One unit of redo work in flight from the scan thread to a worker:
/// a page's part of a record plus, with the page's first item, its
/// starting image.
struct WorkItem<T> {
    page: PageId,
    lsn: Lsn,
    op_id: u32,
    part: T,
    start: Option<Page>,
}

/// Items per channel send. Redo work items are tiny (a page op or a
/// handful of cell writes), so routing them one send apiece would cost
/// more in channel synchronization than the replay itself; the router
/// coalesces this many per worker before handing off.
const ROUTE_BATCH: usize = 256;

/// The step's answer on one part of an operation: `(LSN, op id,
/// replayed?)`. A scan-time elision is an answer of `false` with no
/// part behind it.
type Verdict = (Lsn, u32, bool);

/// The outcome of redoing one partition.
struct Rebuilt {
    page: PageId,
    image: Page,
    /// The first record replayed into `image` — the page's recLSN when
    /// the image is installed. `None`: nothing fired, the image equals
    /// its starting copy.
    first_replayed: Option<Lsn>,
    verdicts: Vec<Verdict>,
}

/// A worker's main loop: consume item batches as the scan routes them,
/// running `step` on each page's image the moment its part arrives.
/// The channel closing (scan finished) ends the loop.
///
/// An erroring worker drops its receiver early; the router tolerates
/// the resulting send failures and the error surfaces at join time.
fn redo_worker<T, F>(rx: mpsc::Receiver<Vec<WorkItem<T>>>, step: &F) -> SimResult<Vec<Rebuilt>>
where
    F: Fn(&mut PageMut<'_>, Lsn, &T) -> bool + Sync,
{
    let mut parts: BTreeMap<PageId, Rebuilt> = BTreeMap::new();
    for item in rx.into_iter().flatten() {
        let rebuilt = match parts.entry(item.page) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                // The routing protocol ships a page's starting image
                // with its first item; a breach is a structured error,
                // never a panic (the caller may be mid-recovery of a
                // production restart).
                let Some(image) = item.start else {
                    return Err(SimError::MissingStartImage(item.page));
                };
                e.insert(Rebuilt {
                    page: item.page,
                    image,
                    first_replayed: None,
                    verdicts: Vec::new(),
                })
            }
        };
        let replayed = step(&mut rebuilt.image.as_mut(), item.lsn, &item.part);
        if replayed {
            rebuilt.first_replayed.get_or_insert(item.lsn);
        }
        rebuilt.verdicts.push((item.lsn, item.op_id, replayed));
    }
    Ok(parts.into_values().collect())
}

/// What one shard's scan settled without a worker: its telemetry
/// (checkpoint records recognized at home included), the records it
/// was home to, and the operations the analysis left no part of.
type ShardScan = (ScanStats, usize, Vec<Verdict>);

/// One shard's scan thread: reads the shard's records in place from
/// its seek position, splits each into the parts restart still owes,
/// and routes the parts homed on this shard to the workers. The parts
/// borrow the log, which outlives every thread of the restart.
fn scan_shard<'db, P: PageLocal>(
    db: &'db Db<P>,
    s: usize,
    analysis: &RestartAnalysis,
    txs: &[mpsc::Sender<Vec<WorkItem<P::Part<'db>>>>],
) -> SimResult<ShardScan> {
    let threads = txs.len();
    let mut bufs: Vec<Vec<WorkItem<P::Part<'db>>>> = (0..threads)
        .map(|_| Vec::with_capacity(ROUTE_BATCH))
        .collect();
    let mut routed: BTreeSet<PageId> = BTreeSet::new();
    let (mut scanned, mut checkpoints, mut elided) = (0, 0, Vec::new());
    let mut records = db.log.shard_suffix(s, analysis.redo_start);
    let mut parts = Vec::new();
    let mut scan = || -> SimResult<()> {
        for rec in records.by_ref() {
            let WalRecord { lsn, payload: body } = rec?;
            // A record's *home* shard is the lowest shard id among its
            // written pages (shard 0 for page-less records, which
            // broadcast everywhere): exactly one scan observes a record
            // as home, so per-record bookkeeping settles exactly once
            // even when the record itself is replicated across shards.
            if Checkpoint::in_record(body)?.is_some() {
                // Checkpoint records are not page writes: counted,
                // never routed to a page partition.
                scanned += usize::from(s == 0);
                checkpoints += usize::from(s == 0);
                continue;
            }
            let (op_id, all) = P::parts(body, db.geometry.slots_per_page)?;
            parts.clear();
            parts.extend(all);
            let home = parts.iter().map(|&(page, _)| db.log.shard_of(page)).min();
            let is_home = home.unwrap_or(0) == s;
            scanned += usize::from(is_home);
            let mut owed = analysis.owed_parts(lsn, parts.drain(..)).peekable();
            if owed.peek().is_none() && is_home {
                // The DPT already decided this operation: skipped,
                // no partition or page fetch involved.
                elided.push((lsn, op_id, false));
            }
            for (page, part) in owed {
                // Every shard holding a copy of the record computes the
                // same parts; only the page's home shard ships its
                // part, so each page's work routes exactly once
                // globally.
                if db.log.shard_of(page) != s {
                    continue;
                }
                // The page's first item ships its starting image: the
                // cached copy if recovery already progressed (re-entrant
                // recovery must see its own earlier work just as the
                // serial scan's fetch does), else the durable page.
                let start = match routed.insert(page).then(|| db.pool.get(page)) {
                    Some(Some(cached)) => Some(cached.clone()),
                    Some(None) => Some(db.disk.read_page(page, db.geometry.slots_per_page)?),
                    None => None,
                };
                let w = page.0 as usize % threads;
                bufs[w].push(WorkItem {
                    page,
                    lsn,
                    op_id,
                    part,
                    start,
                });
                if bufs[w].len() == ROUTE_BATCH {
                    // A failed send means the worker panicked; the join
                    // in the driver surfaces it.
                    let batch = std::mem::replace(&mut bufs[w], Vec::with_capacity(ROUTE_BATCH));
                    let _ = txs[w].send(batch);
                }
            }
        }
        Ok(())
    };
    let outcome = scan();
    // Whatever stopped the scan, the workers get what was routed.
    for (tx, buf) in txs.iter().zip(bufs) {
        if !buf.is_empty() {
            let _ = tx.send(buf);
        }
    }
    outcome?;
    let mut stats = records.stats();
    stats.checkpoint_records = checkpoints;
    Ok((stats, scanned, elided))
}

/// Joins `handles`, folding each thread's result with `absorb`; the
/// first error wins, and a panic is contained as
/// [`SimError::RecoveryWorkerPanic`]. Every thread is joined before the
/// error returns, so none outlives the scope whatever the outcome.
fn join_all<T>(
    handles: Vec<std::thread::ScopedJoinHandle<'_, SimResult<T>>>,
    mut absorb: impl FnMut(T),
) -> SimResult<()> {
    let mut first_err = None;
    for h in handles {
        match h.join() {
            Ok(Ok(out)) => absorb(out),
            Ok(Err(e)) => first_err = first_err.or(Some(e)),
            Err(_) => first_err = first_err.or(Some(SimError::RecoveryWorkerPanic)),
        }
    }
    first_err.map_or(Ok(()), Err)
}

/// Drives the pipeline: one scan thread per log shard streams records
/// from its shard's seeked cursor and routes their owed parts to
/// `threads` workers running `step`. Returns the rebuilt partitions in
/// page-id order, and the scans' results summed over shards.
fn rebuild_partitions<'db, P, F>(
    db: &'db Db<P>,
    analysis: &RestartAnalysis,
    threads: usize,
    step: F,
) -> SimResult<(Vec<Rebuilt>, ShardScan)>
where
    P: PageLocal + Sync,
    F: Fn(&mut PageMut<'_>, Lsn, &P::Part<'_>) -> bool + Sync,
{
    let step = &step;
    std::thread::scope(|scope| {
        let mut txs = Vec::new();
        let mut workers = Vec::new();
        for _ in 0..threads.max(1) {
            let (tx, rx) = mpsc::channel::<Vec<WorkItem<P::Part<'db>>>>();
            txs.push(tx);
            workers.push(scope.spawn(move || redo_worker(rx, step)));
        }
        // One scan thread per log shard; each gets its own sender
        // clones (mpsc preserves per-sender order, and a page's items
        // all come from its home shard's sender, so per-page LSN order
        // survives the multi-producer merge).
        let scans: Vec<_> = (0..db.log.n_shards())
            .map(|s| {
                let txs = txs.clone();
                scope.spawn(move || scan_shard(db, s, analysis, &txs))
            })
            .collect();
        let mut total: ShardScan = Default::default();
        let scan_outcome = join_all(scans, |(stats, scanned, elided)| {
            total.0.absorb(stats);
            total.1 += scanned;
            total.2.extend(elided);
        });
        // Closing the channels ends the workers' loops. A panicking
        // worker is contained at the join and reported as a recovery
        // error — it must never unwind across `recover_partitioned`.
        drop(txs);
        let mut rebuilt: Vec<Rebuilt> = Vec::new();
        let worker_outcome = join_all(workers, |parts| rebuilt.extend(parts));
        scan_outcome.and(worker_outcome)?;
        // Page-id order, so what a bounded pool evicts while the images
        // are installed does not depend on the worker count.
        rebuilt.sort_unstable_by_key(|r| r.page);
        Ok((rebuilt, total))
    })
}

/// Recovery of a [`PageLocal`] payload (§6.2, §6.3) with
/// page-partitioned, pipelined parallel redo — the partitioned executor
/// of the procedure [`redo::recover_local`] executes serially, fed by
/// the same analysis: the scan seeks to the analysis' redo-start, each
/// part restart still owes is routed to a per-page worker the moment
/// its record decodes (a multi-page physical record contributes a part
/// to each page it touches), and the method's redo step runs there,
/// concurrently with the rest of the scan. Parts below a fuzzy
/// checkpoint whose page the dirty-page table proves installed never
/// reach a partition; checkpoint records are counted
/// ([`ScanStats::checkpoint_records`]) but never routed.
///
/// Works against any image of the payload — heavyweight
/// ([`redo::checkpoint_heavyweight`]) or fuzzy
/// ([`redo::checkpoint_fuzzy`]) checkpoints, full tables or delta
/// chains, over [`Physiological`]'s single-page operations or
/// [`Physical`]'s after-images — and leaves what the serial executor leaves: the
/// same state, the same semantic stats, the same dirty-page table (the
/// harness, checker, and proptests enforce this differentially).
///
/// # Errors
///
/// Substrate errors, including log corruption, shape violations, and
/// contained worker failures ([`SimError::RecoveryWorkerPanic`],
/// [`SimError::MissingStartImage`]).
pub fn recover_partitioned<P>(db: &mut Db<P>, threads: usize) -> SimResult<RecoveryStats>
where
    P: PageLocal + Sync,
{
    // The analysis pass hands the partitioned scheduler its feed: the
    // redo-start LSN to seek to and the dirty-page table to route by.
    let (analysis, mut stats) = redo::begin(db)?;
    let (rebuilt, (scan, scanned, mut verdicts)) =
        rebuild_partitions(db, &analysis, threads, P::redo)?;
    stats.scanned = scanned;
    let mut images = Vec::new();
    for r in rebuilt {
        verdicts.extend(r.verdicts);
        // A page nothing fired on equals its durable copy: there is
        // nothing to install (and dirtying it would provoke spurious
        // flushes later).
        if let Some(rec_lsn) = r.first_replayed {
            images.push((r.page, r.image, rec_lsn));
        }
    }
    let stable = db.log.stable_lsn();
    db.pool.install(&mut db.disk, images, stable)?;
    // One operation's parts share its LSN: fold them in LSN order.
    verdicts.sort_unstable_by_key(|&(lsn, ..)| lsn);
    for op in verdicts.chunk_by(|a, b| a.0 == b.0) {
        let replayed = op.iter().any(|&(.., replayed)| replayed);
        stats.note_verdict(Redo::of(op[0].1, replayed));
    }
    stats.note_scan(scan, db.log.forces());
    Ok(stats)
}

/// [`Physiological`] with the recovery path replaced by
/// [`recover_partitioned`]. Normal operation (logging, checkpoints) is
/// identical, so crash states interchange freely with the serial
/// method's.
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
        recover_partitioned(db, self.threads)
    }

    fn parallel_restart(
        &self,
        db: &mut Db<PageOpPayload>,
        threads: usize,
    ) -> Option<SimResult<RecoveryStats>> {
        Some(recover_partitioned(db, threads))
    }
}

/// [`Physical`] with the recovery path replaced by
/// [`recover_partitioned`] and the checkpoint discipline by the
/// *fuzzy* one ([`redo::checkpoint_fuzzy`]) — so a crashed image
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
        redo::checkpoint_fuzzy(db, 0).map(|_| ())
    }

    fn recover(&self, db: &mut Db<PhysPayload>) -> SimResult<RecoveryStats> {
        recover_partitioned(db, self.threads)
    }

    fn parallel_restart(
        &self,
        db: &mut Db<PhysPayload>,
        threads: usize,
    ) -> Option<SimResult<RecoveryStats>> {
        Some(recover_partitioned(db, threads))
    }
}

/// The online fuzzy-checkpoint discipline
/// ([`redo::checkpoint_fuzzy`]) over physiological
/// (single-page) operations, with the recovery path replaced by the
/// DPT-fed [`recover_partitioned`] — the full tentpole
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
        redo::checkpoint_fuzzy(db, 0).map(|_| ())
    }

    fn recover(&self, db: &mut Db<PageOpPayload>) -> SimResult<RecoveryStats> {
        recover_partitioned(db, self.threads)
    }

    fn parallel_restart(
        &self,
        db: &mut Db<PageOpPayload>,
        threads: usize,
    ) -> Option<SimResult<RecoveryStats>> {
        Some(recover_partitioned(db, threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generalized::Generalized;
    use crate::testkit::{blind_workload, crashed_db, crashed_db_sharded, single_page_workload};
    use redo_sim::db::Geometry;
    use redo_workload::pages::PageWorkloadSpec;

    /// Blind writes whose cells span pages: one physical record, several
    /// per-page parts.
    fn multi_page_blind_workload(n: usize, seed: u64) -> Vec<PageOp> {
        PageWorkloadSpec {
            n_ops: n,
            n_pages: 6,
            blind_fraction: 1.0,
            cross_page_fraction: 0.4,
            multi_page_fraction: 0.4,
            ..Default::default()
        }
        .generate(seed)
    }

    /// The two executors are interchangeable: on one image crashed
    /// under `method` (per log-shard count), [`recover_partitioned`] at
    /// every thread count leaves what `serial.recover` leaves — state,
    /// semantic stats, and the dirty-page table the next checkpoint
    /// will publish. Returns the last partitioned run's stats.
    fn assert_matches_serial<M, S>(
        method: &M,
        serial: &S,
        ops: &[PageOp],
        seed: u64,
        checkpoint_every: Option<usize>,
    ) -> RecoveryStats
    where
        M: RecoveryMethod,
        S: RecoveryMethod<Payload = M::Payload>,
        M::Payload: PageLocal + Sync + Clone,
    {
        let mut last = RecoveryStats::default();
        for log_shards in [1, 4] {
            let image = crashed_db_sharded(method, ops, seed, checkpoint_every, log_shards);
            let mut serial_db = image.clone();
            let expect = serial.recover(&mut serial_db).unwrap();
            assert_eq!(expect.checkpoint_lsn.is_some(), checkpoint_every.is_some());
            for threads in [1, 2, 4, 8] {
                let at = format!("log_shards={log_shards} threads={threads}");
                let mut par_db = image.clone();
                last = recover_partitioned(&mut par_db, threads).unwrap();
                assert_eq!(last, expect, "{at}");
                assert_eq!(last.checkpoint_lsn, expect.checkpoint_lsn, "{at}");
                assert_eq!(last.checkpoint_records, expect.checkpoint_records, "{at}");
                assert_eq!(
                    par_db.volatile_theory_state(),
                    serial_db.volatile_theory_state(),
                    "{at}"
                );
                assert_eq!(
                    par_db.pool.dirty_page_table(),
                    serial_db.pool.dirty_page_table(),
                    "{at}"
                );
            }
        }
        last
    }

    #[test]
    fn physiological_parallel_matches_serial() {
        let ops = single_page_workload(40, 6, 11);
        assert_matches_serial(&Physiological, &Physiological, &ops, 3, None);
        assert_matches_serial(&Physiological, &Physiological, &ops, 3, Some(9));
    }

    #[test]
    fn physical_parallel_matches_serial() {
        let ops = multi_page_blind_workload(40, 12);
        assert_matches_serial(&Physical, &Physical, &ops, 5, None);
        assert_matches_serial(&Physical, &Physical, &ops, 5, Some(9));
    }

    #[test]
    fn partitioned_restart_leaves_the_serial_executors_dirty_page_table() {
        // Regression: the install used to dirty a rebuilt page at its
        // image's LSN — its *last* replayed record — so the next fuzzy
        // checkpoint published a redo-start above records no disk page
        // held, and archived them. 40 single-page ops over 3 pages,
        // nothing flushed, crash: the recLSNs must be each page's first
        // logged LSN, as the serial executor's first update records.
        fn check<M: RecoveryMethod>(method: &M, ops: &[PageOp])
        where
            M::Payload: PageLocal + Sync + Clone,
        {
            for log_shards in [1, 4] {
                let mut image = Db::on_sharded(
                    redo_sim::backend::BackendKind::Mem,
                    Geometry::default(),
                    None,
                    log_shards,
                );
                let mut first: BTreeMap<PageId, Lsn> = BTreeMap::new();
                for op in ops {
                    let lsn = method.execute(&mut image, op).unwrap();
                    for page in op.written_pages() {
                        first.entry(page).or_insert(lsn);
                    }
                }
                image.log.flush_all();
                image.crash();
                let mut serial_db = image.clone();
                method.recover(&mut serial_db).unwrap();
                let expect: Vec<(PageId, Lsn)> = first.into_iter().collect();
                assert_eq!(serial_db.pool.dirty_page_table(), expect);
                for threads in [1, 2, 4] {
                    let mut par_db = image.clone();
                    recover_partitioned(&mut par_db, threads).unwrap();
                    assert_eq!(
                        par_db.pool.dirty_page_table(),
                        expect,
                        "{} log_shards={log_shards} threads={threads}",
                        method.name()
                    );
                }
            }
        }
        check(&Physiological, &single_page_workload(40, 3, 7));
        check(&Physical, &blind_workload(40, 3, 7));
    }

    #[test]
    fn parallel_recovery_survives_repeated_crashes() {
        let ops = single_page_workload(25, 4, 13);
        let method = ParallelPhysiological { threads: 4 };
        let mut db = crashed_db(&method, &ops, 7, None);
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
        // same semantic stats — at every thread count. Both serial
        // references: the page-local one and the generalized method's.
        let ops = single_page_workload(40, 6, 21);
        let method = ParallelOnline { threads: 4 };
        assert_matches_serial(&method, &Physiological, &ops, 9, Some(11));
        let parallel = assert_matches_serial(&method, &Generalized, &ops, 9, Some(11));
        // The scan covers the checkpoint record itself (redo_start
        // ≤ checkpoint LSN), recognizes it, and never routes it.
        assert!(
            parallel.checkpoint_records >= 1,
            "checkpoint records must be counted, not routed: {parallel:?}"
        );
    }

    #[test]
    fn parallel_restart_is_idempotent_across_fuzzy_checkpoints() {
        let ops = single_page_workload(30, 5, 22);
        let method = ParallelOnline { threads: 3 };
        let mut db = crashed_db(&method, &ops, 17, Some(7));
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
        // ParallelPhysical checkpoints fuzzily: both executors drop the
        // parts the DPT proves installed — the shared split does — so
        // they agree on every verdict, not just on the state.
        let ops = multi_page_blind_workload(30, 15);
        let method = ParallelPhysical { threads: 3 };
        let skipped: usize = (0..6)
            .map(|seed| assert_matches_serial(&method, &Physical, &ops, seed, Some(7)))
            .map(|parallel| parallel.skipped.len())
            .sum();
        assert!(skipped > 0, "no image let the DPT prove a record installed");
    }

    #[test]
    fn worker_panic_is_contained_as_an_error() {
        let ops = single_page_workload(10, 3, 23);
        let mut db = crashed_db(&Physiological, &ops, 3, None);
        let (analysis, _) = redo::begin(&mut db).unwrap();
        let result = rebuild_partitions(&db, &analysis, 2, |_: &mut PageMut<'_>, _, _: &_| {
            panic!("injected worker failure")
        });
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
            part: (),
            start: None,
        }])
        .unwrap();
        drop(tx);
        let step = |_: &mut PageMut<'_>, _: Lsn, _: &()| true;
        assert!(
            matches!(redo_worker(rx, &step), Err(SimError::MissingStartImage(p)) if p == PageId(3)),
            "a page routed without its start image must error, not panic"
        );
    }

    #[test]
    fn checkpoint_bounds_the_parallel_scan() {
        let ops = single_page_workload(16, 4, 14);
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
