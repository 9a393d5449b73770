//! Concurrent normal operation over the substrate.
//!
//! The paper's model is sequential, but its central insight — a log need
//! only order *conflicting* operations (Lemma 1) — is what makes
//! concurrent execution recoverable at all: operations on disjoint pages
//! may interleave freely, and any log order consistent with the
//! conflicts replays to the same state. [`SharedDb`] realizes this:
//!
//! * worker threads execute [`PageOp`]s under **per-page latches**
//!   (acquired in sorted order — no deadlocks), so each operation's
//!   read-then-write is atomic with respect to conflicting operations
//!   while non-conflicting operations proceed in parallel;
//! * a **group-commit thread** periodically forces the log;
//! * a **background flusher** cleans dirty pages under the WAL rule and
//!   the write-order constraints, exactly like the sequential cache
//!   manager;
//! * a **checkpoint daemon** periodically takes a fuzzy checkpoint —
//!   snapshot the dirty-page table (with per-page recLSNs), append the
//!   [`redo::Checkpoint`] record [`redo::checkpoint_fuzzy`] would (the
//!   same `next_checkpoint`, against a chain kept in memory) through
//!   the group-commit path, publish it with the master pointer swing, and truncate the
//!   log prefix the checkpoint proved redundant — so restart latency
//!   stays bounded no matter how long the live run was.
//!
//! Crashing tears the volatile components down and reassembles a
//! sequential [`Db`] for the §6 recovery method to repair; the test
//! suite then verifies the recovered state equals the replay of the
//! stable log — whatever interleaving the threads actually produced.
//!
//! The store itself is a [`ShardedStore`]: the buffer pool and the
//! latch map are both split into power-of-two page-id shards, so
//! operations on pages in different shards never contend on a shared
//! pool lock — only on the single disk, and only while actually doing
//! I/O. Lock ordering (strict, global): page latches → recovery gate →
//! store shards in ascending index order → disk → log (the per-shard
//! gate *sets* are leaves: taken briefly, never held across another
//! acquisition). The log comes last because two paths need it *inside*
//! the shards: [`SharedDb::execute`] appends under the lease it applies
//! under, and the checkpoint daemon's fuzzy snapshot reads the
//! dirty-page table (all shards, ascending —
//! [`ShardedStore::snapshot`]) and appends the checkpoint record with
//! no apply slipping in between. Every other path takes a subset of the
//! locks in that order; the flusher and committer never take latches;
//! so the system is deadlock-free by construction. The one apparent
//! exception is lazy replay ([`SharedDb::open_on_demand`]): it reads
//! per-page chains under the log lock *before* taking any shard lease,
//! but it releases the log lock first — no path ever holds the log
//! while acquiring a shard, so the order stands.
//!
//! That order is also why a checkpoint needs no floor under its
//! dirty-page table: a record is appended only under a lease covering
//! every page it writes, and that lease is held until the writes are
//! applied; a checkpoint snapshot holds every shard before the log, so
//! it sees a record iff it sees its dirt.
//!
//! ## Instant restart
//!
//! [`SharedDb::open_on_demand`] reopens a crashed [`Db`] immediately —
//! the concurrent face of the one lazy-restart executor
//! ([`crate::ondemand`] is the sequential one). Analysis places a
//! recovery gate on every page whose stable chain holds a record the
//! fuzzy dirty-page table cannot prove installed
//! (`RestartAnalysis::gates`), and the shard map refuses to serve
//! those pages until their lazy redo runs. The first
//! [`SharedDb::read_cell`] or [`SharedDb::execute`] touching a gated
//! page replays that page's `RestartAnalysis::component` — the same
//! unit, found by the same chase of writer and cross-reader chains, as
//! the sequential face — in global LSN order under the generalized
//! redo test and write order (`write_set_is_stale`, `write_order`),
//! and only then opens the gates; what is this module's own is fetching
//! and updating pages under shard leases. A
//! [`SharedDb::recovery_tick`] in the background loop sweeps leftover
//! gates so recovery terminates even if nothing ever reads them.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redo_sim::db::{Db, Geometry};
use redo_sim::shard::{PageLease, ShardedStore};
use redo_sim::wal::ShardedLog;
use redo_sim::{SimError, SimResult};
use redo_theory::log::Lsn;
use redo_workload::pages::{Cell, Footprint, OpCells, PageId, PageOp};

use crate::control::{ControlPlan, Controller, RestartBudget, RestartEstimate};
use crate::generalized::{write_order, write_set_is_stale};
use crate::oprecord::PageOpPayload;
use crate::redo::{self, Chain, RestartAnalysis};
use crate::RecoveryStats;

/// How many shards the store and the latch map split into. Power of
/// two; pages land in shard `page_id & (STORE_SHARDS - 1)`.
const STORE_SHARDS: usize = 8;

type LatchShard = Mutex<BTreeMap<PageId, Arc<Mutex<()>>>>;

struct Inner {
    geometry: Geometry,
    log: Mutex<ShardedLog<PageOpPayload>>,
    store: ShardedStore,
    latches: Box<[LatchShard]>,
    daemon: Mutex<DaemonStats>,
    /// The daemon's volatile view of the published checkpoint chain —
    /// what the quiescent skip compares against and what an incremental
    /// checkpoint diffs its delta from. Deliberately *not* re-derived
    /// from the log: it is updated only on successful publication, lost
    /// on crash (the first post-crash checkpoint is then full, which is
    /// always sound), and untouched by abandoned attempts. A leaf lock:
    /// taken briefly, never while acquiring another.
    chain: Mutex<Option<Chain>>,
    /// On-demand restart bookkeeping; gate *membership* lives in the
    /// shard map ([`ShardedStore::is_gated`]) so the servable fast path
    /// never touches this mutex. Holding it serializes lazy replay —
    /// two reads racing to the same component replay it once.
    recovery: Mutex<OnlineRecovery>,
    stop: AtomicBool,
}

/// The shared database's view of an in-progress (or finished)
/// on-demand restart.
#[derive(Default)]
struct OnlineRecovery {
    /// `Some` while gates may remain; taken when the last gate opens.
    active: Option<RecoveryState>,
    /// The closed-out stats once the restart drained.
    finished: Option<RecoveryStats>,
}

/// What lazy replay needs: the analysis the gates were placed from and
/// the stats accumulated so far.
struct RecoveryState {
    analysis: RestartAnalysis,
    stats: RecoveryStats,
}

/// Telemetry from the online checkpoint daemon.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Fuzzy checkpoints successfully published (master swung).
    pub checkpoints_taken: u64,
    /// Checkpoint attempts abandoned before publication (record not
    /// durable, or the pointer swing did not land) — recovery falls
    /// back to the previous checkpoint.
    pub checkpoints_abandoned: u64,
    /// Stable-log bytes reclaimed by prefix truncation (archived, when
    /// the log carries an archive tier), summed over log shards.
    pub truncated_bytes: u64,
    /// The summed [`DaemonStats::truncated_bytes`] broken out per log
    /// shard — the truncation-skew view the benches report.
    pub truncated_bytes_by_shard: Vec<u64>,
    /// Group-commit forces per log shard (each participant of a
    /// cross-shard flush group lands its own batch) — flush-skew
    /// telemetry.
    pub forces_by_shard: Vec<u64>,
    /// The most recently published checkpoint record.
    pub last_checkpoint: Option<Lsn>,
    /// Ticks that skipped publication because the system was quiescent
    /// (nothing logged, table unchanged, redo-start unmoved) — the
    /// republication bug the skip fixes used to burn a log force and a
    /// master swing on every one of these.
    pub checkpoints_skipped: u64,
    /// How many of [`DaemonStats::checkpoints_taken`] were incremental
    /// [`redo::DirtyTable::Delta`] records rather than full
    /// snapshots.
    pub deltas_published: u64,
    /// The redo-start of the most recently published checkpoint — the
    /// truncation horizon, and the baseline the controller's suffix
    /// estimate measures from.
    pub last_redo_start: Option<Lsn>,
    /// Rounds of the coldest-first drain: a log force and a walk of the
    /// recLSN order each, up to the first page that flushes.
    pub drain_rounds: u64,
    /// Flush attempts those walks had refused (WAL rule, write order):
    /// 0 wherever the coldest page is always flushable.
    pub drain_refused: u64,
    /// Rounds that walked every dirty page and flushed none: pages
    /// blocked on each other, the flush-order cycle of ROADMAP item 2.
    pub drain_stalled: u64,
}

/// The apply phase [`SharedDb::execute`] and lazy replay share: under a
/// lease covering the operation's pages (written pages resident), write
/// its outputs at `lsn`, then impose its [`write_order`] on the shards.
fn apply_under_lease(
    lease: &mut PageLease<'_>,
    op: &PageOp,
    fp: &Footprint,
    lsn: Lsn,
    read_values: &[u64],
) -> SimResult<()> {
    for &cell in &op.writes {
        let v = op.output(cell, read_values);
        lease.update(cell.page, lsn, |p| p.set(cell.slot, v))?;
    }
    for c in write_order(fp, lsn) {
        lease.add_constraint(c);
    }
    lease.add_atomic_group(&fp.written, lsn);
    Ok(())
}

/// The dirty-page table a checkpoint publishes: the buffer pool's
/// table, plus the pages still gated behind their deferred redo — dirty
/// *logically*, though no pool shard holds their dirt — each entered at
/// its first residual LSN (or its recLSN, if lower): their residual
/// records are not installed, so the redo-start floor must keep those
/// records from being truncated, and a crash before their replay must
/// not prove them installed.
fn checkpoint_table(
    pool: Vec<(PageId, Lsn)>,
    gated_residuals: impl IntoIterator<Item = (PageId, Lsn)>,
) -> BTreeMap<PageId, Lsn> {
    let mut table: BTreeMap<PageId, Lsn> = pool.into_iter().collect();
    for (page, lsn) in gated_residuals {
        let entry = table.entry(page).or_insert(lsn);
        *entry = (*entry).min(lsn);
    }
    table
}

/// A thread-shareable database executing page operations with
/// physiological/generalized logging.
#[derive(Clone)]
pub struct SharedDb {
    inner: Arc<Inner>,
}

impl SharedDb {
    /// A fresh shared database.
    #[must_use]
    pub fn new(geometry: Geometry) -> SharedDb {
        // Through `Db`, so the disk and the log share one fault injector.
        let Db { disk, log, .. } = Db::new(geometry);
        let store = ShardedStore::with_disk(STORE_SHARDS, disk);
        Self::assemble(geometry, log, store, None)
    }

    fn assemble(
        geometry: Geometry,
        log: ShardedLog<PageOpPayload>,
        store: ShardedStore,
        active: Option<RecoveryState>,
    ) -> SharedDb {
        SharedDb {
            inner: Arc::new(Inner {
                geometry,
                log: Mutex::new(log),
                store,
                latches: (0..STORE_SHARDS)
                    .map(|_| Mutex::new(BTreeMap::new()))
                    .collect::<Vec<_>>()
                    .into_boxed_slice(),
                daemon: Mutex::new(DaemonStats::default()),
                chain: Mutex::new(None),
                recovery: Mutex::new(OnlineRecovery {
                    active,
                    finished: None,
                }),
                stop: AtomicBool::new(false),
            }),
        }
    }

    /// Reopens a crashed sequential [`Db`] for business *immediately*:
    /// repair, analysis, and gate placement only — no log scan, no
    /// replay. Every page whose stable chain holds a record at or above
    /// the redo-start that the checkpoint's dirty-page table cannot
    /// prove installed is gated in the shard map; the first access to a
    /// gated page (or the background sweeper) pays for exactly that
    /// page's replay. Ungated pages are servable the moment this
    /// returns.
    ///
    /// # Errors
    ///
    /// Log corruption at the master record.
    pub fn open_on_demand(mut crashed: Db<PageOpPayload>) -> SimResult<SharedDb> {
        let (analysis, stats) = redo::begin(&mut crashed)?;
        let gates = analysis.gates(&crashed.log);
        // The crash survivors move in whole, still sharing the image's
        // fault injector: the repaired disk becomes the shard map's
        // disk, the repaired log (chains already pruned to the stable
        // tail) becomes the shared log. The sequential shell is dropped.
        let store = ShardedStore::with_disk(STORE_SHARDS, crashed.disk);
        let active = Some(RecoveryState { analysis, stats });
        let shared = Self::assemble(crashed.geometry, crashed.log, store, active);
        shared.inner.store.gate_pages(gates.iter().copied());
        // A restart with nothing owed closes out right away.
        if gates.is_empty() {
            shared.recovery_tick()?;
        }
        Ok(shared)
    }

    fn latch_shard(&self, page: PageId) -> &LatchShard {
        &self.inner.latches[page.0 as usize & (STORE_SHARDS - 1)]
    }

    fn latch_for(&self, page: PageId) -> Arc<Mutex<()>> {
        self.latch_shard(page)
            .lock()
            .entry(page)
            .or_insert_with(|| Arc::new(Mutex::new(())))
            .clone()
    }

    /// Ensures every page in `pages` has had its deferred redo, lazily
    /// replaying still-gated components. The fast path — all pages
    /// ungated — costs one leaf-lock peek per page and never touches
    /// the recovery mutex. Callers hold the pages' latches (or run on
    /// the sweeper, which takes none — gate state, not the latch, is
    /// what makes a page servable).
    fn ensure_recovered(&self, pages: &[PageId]) -> SimResult<()> {
        if pages.iter().all(|&p| !self.inner.store.is_gated(p)) {
            return Ok(());
        }
        let mut rec = self.inner.recovery.lock();
        let Some(state) = rec.active.as_mut() else {
            // Another thread drained the restart while we waited.
            return Ok(());
        };
        for &p in pages {
            self.replay_component(state, p)?;
        }
        Ok(())
    }

    /// Lazily replays the connected component of gated pages reachable
    /// from `page` (no-op if `page` is no longer gated). Caller holds
    /// the recovery mutex; gates open only after the whole component
    /// replays, so an error leaves every gate closed and a re-run owes
    /// exactly the same work.
    fn replay_component(&self, state: &mut RecoveryState, page: PageId) -> SimResult<()> {
        let store = &self.inner.store;
        if !store.is_gated(page) {
            return Ok(());
        }
        // The chase runs under the log lock — released before any
        // shard lease, preserving the shards-before-log order.
        let (component, records) = {
            let log = self.inner.log.lock();
            let (analysis, gated) = (&state.analysis, |p| store.is_gated(p));
            analysis.component(&log, page, gated, &mut state.stats)?
        };
        // Replay in global LSN order under short shard leases: the
        // redo test and write order of the sequential scan, over this
        // store's pages. As in `execute`, nothing pre-resolves a
        // would-be flush-order cycle: unbounded shards never *have* to
        // flush, but pages a cycle binds never *can* again (ROADMAP
        // item 2; `DaemonStats::drain_stalled` counts the symptom).
        let spp = self.inner.geometry.slots_per_page;
        for (lsn, op) in records {
            state.stats.scanned += 1;
            let fp = op.footprint();
            let mut lease = store.lock_pages(&fp.touched);
            let page_lsn = |p| Ok(lease.read_page(p, spp, Lsn::ZERO)?.lsn());
            if write_set_is_stale(&fp.written, lsn, page_lsn)? {
                let mut read_values = Vec::with_capacity(op.reads.len());
                for &cell in &op.reads {
                    read_values.push(lease.read_page(cell.page, spp, Lsn::ZERO)?.get(cell.slot));
                }
                apply_under_lease(&mut lease, &op, &fp, lsn, &read_values)?;
                state.stats.replayed.push(op.id);
            } else {
                state.stats.skipped.push(op.id);
            }
        }
        // Only now open the gates — a read must never observe a
        // half-replayed component.
        store.ungate_pages(component);
        Ok(())
    }

    /// Serves one read, lazily recovering the cell's page first if it
    /// is still gated. The value returned is final: every surviving
    /// record writing the page has been replayed or proven installed
    /// by the time the read is served.
    ///
    /// # Errors
    ///
    /// Substrate errors, including log corruption at a chain offset.
    pub fn read_cell(&self, cell: Cell) -> SimResult<u64> {
        let latch = self.latch_for(cell.page);
        let _guard = latch.lock();
        self.ensure_recovered(&[cell.page])?;
        let mut lease = self.inner.store.lock_pages(&[cell.page]);
        let page = lease.read_page(cell.page, self.inner.geometry.slots_per_page, Lsn::ZERO)?;
        Ok(page.get(cell.slot))
    }

    /// One background-sweeper step: replays the lowest-numbered gated
    /// page's component, and closes out the restart when no gates
    /// remain (publishing the final [`RecoveryStats`]). Returns whether
    /// recovery is still in progress — `false` once drained (or if no
    /// on-demand restart is active at all). The termination guarantee:
    /// each step either opens at least one gate or finishes.
    ///
    /// # Errors
    ///
    /// Substrate errors, including log corruption at a chain offset.
    pub fn recovery_tick(&self) -> SimResult<bool> {
        let mut rec = self.inner.recovery.lock();
        let Some(state) = rec.active.as_mut() else {
            return Ok(false);
        };
        if let Some(page) = self.inner.store.first_gated() {
            self.replay_component(state, page)?;
        }
        if self.inner.store.gated_count() == 0 {
            let mut state = rec.active.take().expect("checked active above");
            state.stats.forces = self.inner.log.lock().forces();
            rec.finished = Some(state.stats);
            return Ok(false);
        }
        Ok(true)
    }

    /// Is an on-demand restart still holding gates?
    #[must_use]
    pub fn recovering(&self) -> bool {
        self.inner.recovery.lock().active.is_some()
    }

    /// The drained restart's stats, once [`SharedDb::recovery_tick`]
    /// (or the reads themselves) opened the last gate.
    #[must_use]
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.inner.recovery.lock().finished.clone()
    }

    /// Pages still gated behind their deferred redo.
    #[must_use]
    pub fn gated_count(&self) -> usize {
        self.inner.store.gated_count()
    }

    /// Executes one operation: latches its page set (sorted), then
    /// under one lease reads its cells, appends the log record, applies
    /// the writes, and registers any write-order constraints. Returns
    /// the operation's LSN.
    ///
    /// # Errors
    ///
    /// An operation that writes nothing or does not encode, and
    /// substrate errors (pool exhaustion). No error leaves a record in
    /// the log: whatever can fail runs before the append.
    pub fn execute(&self, op: &PageOp) -> SimResult<Lsn> {
        if op.writes.is_empty() {
            return Err(SimError::MethodViolation(
                "operations must write at least one page",
            ));
        }
        // Encoded before any lock: every client queues on the log
        // mutex, and all that is left to do under it is to stamp an LSN
        // and a CRC on these bytes and copy them.
        let fp = op.footprint();
        let record = PageOpPayload::encode_op(op, &fp)?;
        // Latch every page the operation touches, in id order.
        let pages: &[PageId] = &fp.touched;
        let latches: Vec<Arc<Mutex<()>>> = pages.iter().map(|&p| self.latch_for(p)).collect();
        let _guards: Vec<_> = latches.iter().map(|l| l.lock()).collect();

        // Any page still gated behind its post-crash redo must replay
        // before this operation reads or overwrites it — a write to an
        // unrecovered page would build on a stale image.
        self.ensure_recovered(pages)?;

        // One lease from the read to the apply, the append inside it
        // (see the module's lock-ordering note for what that buys).
        let spp = self.inner.geometry.slots_per_page;
        let mut lease = self.inner.store.lock_pages(pages);
        let mut read_values = Vec::with_capacity(op.reads.len());
        for &cell in &op.reads {
            read_values.push(lease.read_page(cell.page, spp, Lsn::ZERO)?.get(cell.slot));
        }
        for &cell in &op.writes {
            lease.fetch(cell.page, spp, Lsn::ZERO)?;
        }
        let lsn = self.inner.log.lock().append_encoded(&record);
        apply_under_lease(&mut lease, op, &fp, lsn, &read_values)?;
        Ok(lsn)
    }

    /// One group-commit tick: forces the whole log.
    pub fn commit_tick(&self) {
        self.inner.log.lock().flush_all();
    }

    /// One background-flusher tick: attempts to flush each dirty page
    /// with probability `p`, skipping any flush the WAL rule or a
    /// write-order constraint forbids.
    ///
    /// # Errors
    ///
    /// Real substrate failures only: a refused page simply stays dirty
    /// for a later tick ([`ShardedStore::flush_unless_refused`]).
    pub fn flusher_tick(&self, rng: &mut impl Rng, p: f64) -> SimResult<()> {
        let stable = self.inner.log.lock().stable_lsn();
        for id in self.inner.store.dirty_pages() {
            if rng.gen_bool(p.clamp(0.0, 1.0)) {
                self.inner.store.flush_unless_refused(id, stable)?;
            }
        }
        Ok(())
    }

    /// One *targeted* flusher tick: flush the dirty page with the
    /// minimum recLSN — the page pinning the truncation horizon. A
    /// uniformly random flusher ([`SharedDb::flusher_tick`]) under
    /// Zipf-skewed traffic keeps picking hot pages (which are instantly
    /// re-dirtied) and almost never the coldest one, so the horizon
    /// never moves and the stable suffix grows without bound; this tick
    /// is the controller's cure. Returns whether any page was flushed
    /// (`false` at once, the log not forced, when none is dirty).
    ///
    /// # Errors
    ///
    /// Real substrate failures only, as [`SharedDb::flusher_tick`].
    pub fn flusher_tick_coldest(&self) -> SimResult<bool> {
        self.drain_round(None)
    }

    /// One round of the coldest-first drain; `false` once nothing is
    /// dirty, nothing can flush, or — given a budget — a checkpoint
    /// taken right now would already fit it: the horizon it can truncate
    /// to is the minimum dirty recLSN, the head of the store's
    /// `(recLSN, page)` order. Otherwise the log is forced, so the WAL
    /// rule cannot veto the flush, and the coldest page the write order
    /// allows is flushed ([`ShardedStore::flush_coldest`]).
    fn drain_round(&self, max_suffix_bytes: Option<u64>) -> SimResult<bool> {
        let store = &self.inner.store;
        let Some(&head) = store.coldest_dirty(None, 1).first() else {
            return Ok(false);
        };
        let stable = {
            let mut log = self.inner.log.lock();
            if max_suffix_bytes.is_some_and(|budget| log.suffix_bytes(head.0) <= budget) {
                return Ok(false);
            }
            log.flush_all();
            log.stable_lsn()
        };
        let (landed, refused) = store.flush_coldest(head, stable)?;
        let mut daemon = self.inner.daemon.lock();
        daemon.drain_rounds += 1;
        daemon.drain_refused += refused;
        daemon.drain_stalled += u64::from(!landed);
        Ok(landed)
    }

    /// One checkpoint-daemon tick: take a fuzzy snapshot of the
    /// dirty-page table, append a checkpoint record, force the log,
    /// publish the checkpoint by swinging the master pointer, and
    /// truncate the log prefix below the checkpoint's redo-start.
    ///
    /// While a healthy chain shallower than `full_every` is in force the
    /// record's table is a [`redo::DirtyTable::Delta`] carrying only the
    /// difference against the chain head; every `full_every`-th
    /// publication (and whenever no chain exists — fresh system, or
    /// first checkpoint after a crash wiped the volatile chain state)
    /// logs the [`redo::DirtyTable::Full`] table so analysis' walk stays
    /// bounded. A `full_every` below 2
    /// never chains. A quiescent tick publishes nothing.
    ///
    /// The snapshot and the append happen under the store **and** log
    /// locks together (see the module's lock-ordering note), so no
    /// apply — and no append — can slip between them. Returns the
    /// published checkpoint
    /// LSN, or `None` if the attempt was abandoned (record not durable,
    /// or the pointer swing did not land — e.g. suppressed by fault
    /// injection); an abandoned attempt leaves the previous checkpoint
    /// in force and truncates nothing.
    ///
    /// # Errors
    ///
    /// Substrate errors from the log force.
    pub fn checkpoint_tick(&self, full_every: u64) -> SimResult<Option<Lsn>> {
        // Snapshot + append, atomically w.r.t. appliers: the snapshot
        // holds every store shard (acquired in ascending order), so no
        // apply can slip between the table read and the append. The
        // recovery mutex is held across the same window (it precedes
        // the shards in the lock order) so lazy replay cannot move a
        // page from "gated" to "dirty in a shard" mid-snapshot.
        let (ck, redo_start, table, is_delta) = {
            let rec = self.inner.recovery.lock();
            let snapshot = self.inner.store.snapshot();
            let mut log = self.inner.log.lock();
            let residuals: Vec<(PageId, Lsn)> = match rec.active.as_ref() {
                Some(state) => (self.inner.store.gated_pages().into_iter())
                    .filter_map(|page| {
                        let first = state.analysis.owed_chain(&log, page).next();
                        first.map(|(lsn, _)| (page, lsn))
                    })
                    .collect(),
                None => Vec::new(),
            };
            let table = checkpoint_table(snapshot.dirty_page_table(), residuals);
            let (next, head) = {
                let chain = self.inner.chain.lock();
                let next = redo::next_checkpoint(chain.as_ref(), full_every, &table, &log);
                (next, chain.as_ref().map(|chain| chain.head))
            };
            let Some(next) = next else {
                self.inner.daemon.lock().checkpoints_skipped += 1;
                return Ok(head);
            };
            let (redo_start, is_delta) = (next.redo_start, next.is_delta());
            let ck = log.append(PageOpPayload::Checkpoint(next))?;
            (ck, redo_start, table, is_delta)
        };
        // Make the record durable through the group-commit path.
        self.commit_tick();
        // Publish + truncate. No shard locks here: publication touches
        // only the disk and the log.
        let mut disk = self.inner.store.disk();
        let mut log = self.inner.log.lock();
        let Some(reclaimed) = redo::land(&mut log, &mut disk, ck, redo_start)? else {
            self.inner.daemon.lock().checkpoints_abandoned += 1;
            return Ok(None);
        };
        // Publication landed: the chain bookkeeping moves to the new
        // head. An abandoned attempt never reaches here, so its orphaned
        // record leaves the chain untouched — exactly right, since the
        // master still names the old head and analysis will skip the
        // orphan.
        {
            let mut chain = self.inner.chain.lock();
            *chain = Some(Chain::extended(
                chain.take(),
                is_delta,
                ck,
                table,
                redo_start,
            ));
        }
        let mut daemon = self.inner.daemon.lock();
        daemon.checkpoints_taken += 1;
        daemon.deltas_published += u64::from(is_delta);
        daemon.truncated_bytes += reclaimed;
        daemon.truncated_bytes_by_shard = log.truncated_bytes_by_shard();
        daemon.forces_by_shard = log.forces_by_shard();
        daemon.last_checkpoint = Some(ck);
        daemon.last_redo_start = Some(redo_start);
        Ok(Some(ck))
    }

    /// Checkpoint-daemon telemetry so far.
    #[must_use]
    pub fn daemon_stats(&self) -> DaemonStats {
        self.inner.daemon.lock().clone()
    }

    /// A point-in-time [`RestartEstimate`] off the live telemetry: the
    /// stable suffix past the published truncation horizon (or past the
    /// log's first retained record when nothing has published yet), the
    /// current dirty-page count, and the per-shard live-byte skew.
    #[must_use]
    pub fn restart_estimate(&self) -> RestartEstimate {
        let dirty_pages = self.inner.store.dirty_count();
        let log = self.inner.log.lock();
        let redo_start = self
            .inner
            .daemon
            .lock()
            .last_redo_start
            .unwrap_or_else(|| log.first_stable());
        RestartEstimate {
            suffix_bytes: log.suffix_bytes(redo_start),
            dirty_pages,
            redo_start,
            live_bytes_by_shard: log.live_bytes_by_shard(),
        }
    }

    /// One controller tick: estimate restart cost, ask the planner, and
    /// fire whichever actuators it named — the coldest-page flush first
    /// (so the checkpoint that may follow computes a deeper redo-start),
    /// then an incremental checkpoint, then targeted archive drains for
    /// any shard over its skew budget. Returns the executed plan.
    ///
    /// # Errors
    ///
    /// Substrate errors from the actuators.
    pub fn control_tick(&self, controller: &Controller) -> SimResult<ControlPlan> {
        let est = self.restart_estimate();
        let plan = controller.plan(&est);
        if plan.flush_coldest {
            // Terminates: every round that goes on took a page out of
            // the dirty-page table.
            while self.drain_round(Some(controller.budget.max_suffix_bytes))? {}
        }
        if plan.checkpoint {
            self.checkpoint_tick(controller.budget.full_every)?;
        }
        if !plan.archive_shards.is_empty() {
            // `est.redo_start` is a *published* horizon (or the first
            // retained record, making the drain a no-op), so a per-shard
            // drain below it archives only bytes every future recovery
            // has provably stopped needing — even if a checkpoint just
            // advanced the horizon further, using the older estimate is
            // merely conservative.
            let mut log = self.inner.log.lock();
            let mut reclaimed = 0u64;
            for &s in &plan.archive_shards {
                reclaimed += log.archive_shard_prefix(s, est.redo_start)?;
            }
            if reclaimed > 0 {
                let by_shard = log.truncated_bytes_by_shard();
                let mut daemon = self.inner.daemon.lock();
                daemon.truncated_bytes += reclaimed;
                daemon.truncated_bytes_by_shard = by_shard;
            }
        }
        Ok(plan)
    }

    /// Drops latches no thread currently holds or awaits. [`latch_for`]
    /// inserts an entry per page id touched and never removes it, so a
    /// workload skewed over a large page universe would grow the maps
    /// without bound; the background loop calls this each tick. A strong
    /// count of 1 means the map holds the only reference, and because
    /// `latch_for` clones under the same latch-shard mutex we hold
    /// while sweeping that shard, no thread can acquire a reference
    /// concurrently with its check.
    ///
    /// [`latch_for`]: SharedDb::execute
    pub fn latch_gc_tick(&self) {
        for shard in self.inner.latches.iter() {
            shard.lock().retain(|_, latch| Arc::strong_count(latch) > 1);
        }
    }

    /// Number of per-page latches currently across the latch shards.
    #[must_use]
    pub fn latch_count(&self) -> usize {
        self.inner.latches.iter().map(|s| s.lock().len()).sum()
    }

    /// Signals background threads to stop.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
    }

    /// Has shutdown been requested?
    #[must_use]
    pub fn stopping(&self) -> bool {
        self.inner.stop.load(Ordering::SeqCst)
    }

    /// Spawns the background group-commit + flusher + latch-GC +
    /// checkpoint-controller loop on the current handle; returns when
    /// [`SharedDb::shutdown`] is called. Intended to run on its own
    /// thread. Each tick ends in a [`SharedDb::control_tick`] steering
    /// toward `budget` — checkpoints fire when estimated restart cost
    /// crosses the budget (and are skipped when the system is
    /// quiescent), the coldest page is flushed when the suffix builds,
    /// and skewed shards drain to the archive tier; a budget no
    /// estimate can cross disables online checkpointing.
    ///
    /// # Panics
    ///
    /// Panics if a tick hits an unexpected substrate error — a broken
    /// pool or log is not something the background thread can recover
    /// from, and limping on would mask the corruption.
    pub fn background_loop(&self, seed: u64, flush_prob: f64, budget: RestartBudget) {
        let controller = Controller::new(budget);
        let mut rng = StdRng::seed_from_u64(seed);
        while !self.stopping() {
            self.recovery_tick()
                .expect("recovery tick hit an unexpected substrate error");
            self.commit_tick();
            self.flusher_tick(&mut rng, flush_prob)
                .expect("flusher tick hit an unexpected substrate error");
            self.latch_gc_tick();
            self.control_tick(&controller)
                .expect("control tick hit an unexpected substrate error");
            std::thread::yield_now();
        }
    }

    /// CRASH: tears down the shared database (volatile state vanishes)
    /// and reassembles the surviving parts as a sequential [`Db`] ready
    /// for a §6 recovery method.
    ///
    /// # Panics
    ///
    /// Panics if other clones of this handle still exist (all workers
    /// must have stopped — a crashed machine has no running threads).
    #[must_use]
    pub fn crash(self) -> Db<PageOpPayload> {
        let inner = Arc::try_unwrap(self.inner)
            .unwrap_or_else(|_| panic!("crash requires exclusive ownership"));
        let mut disk = inner.store.into_disk();
        let mut log = inner.log.into_inner();
        log.crash();
        disk.crash();
        // One injector through every surviving device and the shell, so
        // `arm_faults` on the image reaches them.
        Db::from_parts(inner.geometry, None, disk, log)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generalized::Generalized;
    use crate::testkit::model;
    use crate::RecoveryMethod;
    use redo_sim::fault::{FaultKind, FaultPlan};
    use redo_workload::pages::{Cell, PageWorkloadSpec};
    use std::collections::BTreeSet;

    /// A budget no estimate can cross: the controller never fires.
    fn never_checkpoint() -> RestartBudget {
        RestartBudget {
            max_suffix_bytes: u64::MAX,
            max_dirty_pages: usize::MAX,
            ..Default::default()
        }
    }

    /// A budget nearly every estimate crosses: the controller
    /// checkpoints whenever anything is dirty.
    fn eager_checkpoints() -> RestartBudget {
        RestartBudget {
            max_suffix_bytes: 256,
            max_dirty_pages: 0,
            ..Default::default()
        }
    }

    /// Replays the durable history (`archive ∥ live`: checkpoints
    /// truncate the live log) in log order against a plain cell map —
    /// the serialization the log itself defines.
    fn model_from_stable_log(db: &Db<PageOpPayload>) -> BTreeMap<Cell, u64> {
        let stable = db.log.pit_records(db.log.stable_lsn());
        let stable = stable.expect("log intact");
        let ops: Vec<PageOp> = (stable.into_iter())
            .filter_map(|rec| match rec.payload {
                PageOpPayload::Op(op) => Some(op),
                _ => None,
            })
            .collect();
        model(&ops)
    }

    fn run_concurrent(n_threads: usize, ops_per_thread: usize, seed: u64) {
        use std::sync::atomic::AtomicUsize;
        let shared = SharedDb::new(Geometry { slots_per_page: 8 });
        let finished = AtomicUsize::new(0);
        std::thread::scope(|s| {
            // Workers on disjoint op-id ranges (ids must be unique; page
            // sets overlap freely).
            for t in 0..n_threads {
                let db = shared.clone();
                let finished = &finished;
                s.spawn(move || {
                    let ops = PageWorkloadSpec {
                        n_ops: ops_per_thread,
                        n_pages: 6,
                        cross_page_fraction: 0.3,
                        multi_page_fraction: 0.2,
                        blind_fraction: 0.2,
                        ..Default::default()
                    }
                    .generate(seed ^ ((t as u64) << 32));
                    for mut op in ops {
                        op.id = op.id * n_threads as u32 + t as u32;
                        db.execute(&op).expect("execute");
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                });
            }
            // The main thread plays cache cleaner + group committer
            // while the workers run.
            let mut rng = StdRng::seed_from_u64(seed);
            while finished.load(Ordering::SeqCst) < n_threads {
                shared.commit_tick();
                shared.flusher_tick(&mut rng, 0.3).expect("flusher tick");
                std::thread::yield_now();
            }
        });
        shared.shutdown();
        // Reacquire exclusive ownership and crash.
        shared.commit_tick(); // final group commit before the "crash"
        let mut db = shared.crash();
        let stats = Generalized.recover(&mut db).expect("recover");
        // The recovered state must equal the stable log's serialization.
        let model = model_from_stable_log(&db);
        for (cell, v) in model {
            assert_eq!(
                db.read_cell(cell).expect("read"),
                v,
                "cell {cell:?} diverged from the log's serialization"
            );
        }
        let _ = stats;
    }

    #[test]
    fn checkpoint_table_enters_gated_pages_at_their_lowest_lsn() {
        let pool = vec![(PageId(1), Lsn(5)), (PageId(2), Lsn(9))];
        let gated = vec![(PageId(2), Lsn(4)), (PageId(3), Lsn(7))];
        let table = checkpoint_table(pool.clone(), gated);
        let expect = [(1, 5), (2, 4), (3, 7)].map(|(p, l)| (PageId(p), Lsn(l)));
        assert_eq!(table, BTreeMap::from(expect));
        assert_eq!(
            checkpoint_table(pool.clone(), []),
            pool.into_iter().collect()
        );
    }

    /// The race a checkpoint's table must survive: executors dirty
    /// overlapping pages while one thread loops `checkpoint_tick` +
    /// `commit_tick` + `flusher_tick`, so snapshots land between an
    /// operation's read and its apply over and over. Then stop and crash
    /// with the tail unforced. Both restarts — the offline scan and an
    /// on-demand restart drained by its sweeper — must equal the replay
    /// of the durable history ([`model_from_stable_log`]).
    /// A record a snapshot saw in the log but not in its table is lost
    /// by both.
    fn executors_race_checkpoints_into_both_restarts(log_shards: usize, rounds: u64) {
        use redo_sim::backend::BackendKind;
        use std::sync::Barrier;
        let geometry = Geometry { slots_per_page: 8 };
        for round in 0..rounds {
            let n_threads = 2 + (round % 3) as usize;
            let fresh = Db::on_sharded(BackendKind::Mem, geometry, None, log_shards);
            let shared = SharedDb::open_on_demand(fresh).expect("nothing to recover");
            let start = Barrier::new(n_threads + 1);
            std::thread::scope(|s| {
                let executors: Vec<_> = (0..n_threads)
                    .map(|t| {
                        let (db, start) = (shared.clone(), &start);
                        s.spawn(move || {
                            let ops = PageWorkloadSpec {
                                n_ops: 60,
                                n_pages: 6,
                                cross_page_fraction: 0.3,
                                multi_page_fraction: 0.2,
                                blind_fraction: 0.2,
                                ..Default::default()
                            }
                            .generate(round << 8 | t as u64);
                            start.wait();
                            for mut op in ops {
                                op.id = op.id * n_threads as u32 + t as u32;
                                db.execute(&op).expect("execute");
                            }
                        })
                    })
                    .collect();
                let mut rng = StdRng::seed_from_u64(round);
                start.wait();
                while !executors.iter().all(|e| e.is_finished()) {
                    shared.checkpoint_tick(4).expect("checkpoint tick");
                    shared.commit_tick();
                    shared.flusher_tick(&mut rng, 0.5).expect("flusher tick");
                }
            });
            let crashed = shared.crash();
            let durable = model_from_stable_log(&crashed);
            let mut offline = crashed.clone();
            Generalized.recover(&mut offline).expect("offline recovery");
            let lazy = SharedDb::open_on_demand(crashed).expect("open on demand");
            while lazy.recovery_tick().expect("recovery tick") {}
            for (cell, v) in durable {
                let at = format!("{log_shards} log shards, round {round}, {cell:?}");
                assert_eq!(offline.read_cell(cell).expect("read"), v, "offline: {at}");
                assert_eq!(lazy.read_cell(cell).expect("read"), v, "on demand: {at}");
            }
        }
    }

    #[test]
    fn executors_racing_checkpoints_restart_to_the_durable_history() {
        executors_race_checkpoints_into_both_restarts(1, 20);
        executors_race_checkpoints_into_both_restarts(4, 20);
    }

    /// The same race, long enough to meet the rare interleaving; CI
    /// runs it in release.
    #[test]
    #[ignore = "soak: a few seconds in release"]
    fn soak_executors_racing_checkpoints() {
        executors_race_checkpoints_into_both_restarts(1, 400);
        executors_race_checkpoints_into_both_restarts(4, 400);
    }

    #[test]
    fn single_threaded_concurrent_api_matches_log() {
        run_concurrent(1, 40, 1);
    }

    #[test]
    fn four_threads_interleave_recoverably() {
        for seed in 0..3 {
            run_concurrent(4, 30, seed);
        }
    }

    #[test]
    fn eight_threads_heavy_contention() {
        run_concurrent(8, 25, 9);
    }

    #[test]
    fn background_loop_runs_until_shutdown() {
        let shared = SharedDb::new(Geometry { slots_per_page: 8 });
        let bg = shared.clone();
        let handle = std::thread::spawn(move || bg.background_loop(1, 0.5, never_checkpoint()));
        let ops = PageWorkloadSpec {
            n_ops: 30,
            n_pages: 4,
            ..Default::default()
        }
        .generate(3);
        for op in &ops {
            shared.execute(op).expect("execute");
        }
        shared.shutdown();
        handle.join().expect("background loop exits");
        shared.commit_tick();
        let mut db = shared.crash();
        Generalized.recover(&mut db).expect("recover");
        let model = model_from_stable_log(&db);
        for (cell, v) in model {
            assert_eq!(db.read_cell(cell).expect("read"), v);
        }
    }

    #[test]
    fn crash_mid_stream_recovers_durable_prefix() {
        // No final commit: whatever the group-commit thread managed to
        // force is what survives; recovery must match exactly that.
        let shared = SharedDb::new(Geometry { slots_per_page: 8 });
        std::thread::scope(|s| {
            for t in 0..4usize {
                let db = shared.clone();
                s.spawn(move || {
                    let ops = PageWorkloadSpec {
                        n_ops: 25,
                        n_pages: 5,
                        cross_page_fraction: 0.3,
                        ..Default::default()
                    }
                    .generate(77 ^ (t as u64) << 32);
                    for mut op in ops {
                        op.id = op.id * 4 + t as u32;
                        db.execute(&op).expect("execute");
                        if op.id % 7 == 0 {
                            db.commit_tick();
                        }
                    }
                });
            }
        });
        shared.shutdown();
        let mut db = shared.crash(); // volatile tail intentionally lost
        Generalized.recover(&mut db).expect("recover");
        let model = model_from_stable_log(&db);
        for (cell, v) in model {
            assert_eq!(db.read_cell(cell).expect("read"), v);
        }
    }

    #[test]
    fn latches_serialize_conflicting_increments() {
        // All threads read-modify-write the SAME cell; the final value
        // must reflect a chain (each op reads its predecessor's output),
        // which only holds if read-then-write is atomic per op.
        use redo_workload::pages::{PageOpKind, SlotId};
        let shared = SharedDb::new(Geometry { slots_per_page: 8 });
        let cell = Cell {
            page: PageId(0),
            slot: SlotId(0),
        };
        let per_thread = 20u32;
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let db = shared.clone();
                s.spawn(move || {
                    for i in 0..per_thread {
                        let op = PageOp {
                            id: t * per_thread + i,
                            kind: PageOpKind::Physiological,
                            reads: vec![cell],
                            writes: vec![cell],
                            f_seed: 42,
                        };
                        db.execute(&op).expect("execute");
                    }
                });
            }
        });
        shared.shutdown();
        shared.commit_tick();
        let mut db = shared.crash();
        Generalized.recover(&mut db).expect("recover");
        // Replaying the log serially must land on the same value: if any
        // op's read had been torn, the hash chain would diverge.
        let model = model_from_stable_log(&db);
        assert_eq!(db.read_cell(cell).expect("read"), model[&cell]);
        let stable = db.log.pit_records(db.log.stable_lsn()).unwrap();
        assert_eq!(stable.len(), 80);
    }

    #[test]
    fn checkpoint_daemon_truncates_and_recovery_stays_exact() {
        // Single-threaded driver: execution order is the log order, so
        // the ops list itself is ground truth — the stable log cannot be
        // (its prefix gets truncated, which is the point of the test).
        let shared = SharedDb::new(Geometry { slots_per_page: 8 });
        let ops = PageWorkloadSpec {
            n_ops: 60,
            n_pages: 6,
            cross_page_fraction: 0.3,
            multi_page_fraction: 0.2,
            blind_fraction: 0.2,
            ..Default::default()
        }
        .generate(11);
        let cells = model(&ops);
        let mut rng = StdRng::seed_from_u64(5);
        for (i, op) in ops.iter().enumerate() {
            shared.execute(op).expect("execute");
            if (i + 1) % 10 == 0 {
                shared.commit_tick();
                // Two passes so one-level write-order chains drain.
                shared.flusher_tick(&mut rng, 1.0).expect("flusher tick");
                shared.flusher_tick(&mut rng, 1.0).expect("flusher tick");
                let ck = shared.checkpoint_tick(0).expect("checkpoint tick");
                assert!(ck.is_some(), "no faults injected: every attempt publishes");
            }
        }
        let daemon = shared.daemon_stats();
        assert_eq!(daemon.checkpoints_taken, 6);
        assert_eq!(daemon.checkpoints_abandoned, 0);
        assert!(
            daemon.truncated_bytes > 0,
            "checkpoints reclaimed log prefix"
        );
        shared.commit_tick();
        let mut db = shared.crash();
        assert!(
            db.log.first_stable() > Lsn(1),
            "the stable log's prefix was elided"
        );
        let stats = Generalized.recover(&mut db).expect("recover");
        assert_eq!(stats.checkpoint_lsn, daemon.last_checkpoint);
        assert!(stats.truncated_bytes > 0);
        assert!(
            stats.records_decoded < 25,
            "restart scan must be bounded by the checkpoint, decoded {}",
            stats.records_decoded
        );
        for (cell, v) in cells {
            assert_eq!(
                db.read_cell(cell).expect("read"),
                v,
                "cell {cell:?} diverged from the issue order"
            );
        }
    }

    #[test]
    fn background_daemon_with_workers_recovers_exactly() {
        // Workers on disjoint page universes: each thread's issue order
        // is ground truth for its own pages, and the daemon checkpoints
        // (and truncates) concurrently underneath all of them.
        let shared = SharedDb::new(Geometry { slots_per_page: 8 });
        let bg = shared.clone();
        let handle = std::thread::spawn(move || bg.background_loop(2, 0.4, eager_checkpoints()));
        let n_threads = 4usize;
        let pages_per_thread = 3u32;
        let mut models: Vec<BTreeMap<Cell, u64>> = Vec::new();
        std::thread::scope(|s| {
            let workers: Vec<_> = (0..n_threads)
                .map(|t| {
                    let db = shared.clone();
                    s.spawn(move || {
                        let mut ops = PageWorkloadSpec {
                            n_ops: 40,
                            n_pages: pages_per_thread,
                            cross_page_fraction: 0.3,
                            multi_page_fraction: 0.2,
                            ..Default::default()
                        }
                        .generate(31 ^ ((t as u64) << 32));
                        for op in &mut ops {
                            op.id = op.id * n_threads as u32 + t as u32;
                            for c in op.reads.iter_mut().chain(op.writes.iter_mut()) {
                                c.page = PageId(c.page.0 + t as u32 * pages_per_thread);
                            }
                            db.execute(op).expect("execute");
                        }
                        model(&ops)
                    })
                })
                .collect();
            for w in workers {
                models.push(w.join().expect("worker"));
            }
        });
        // The scheduler may run every worker to completion before the
        // background thread gets a single tick; give the daemon until it
        // publishes one checkpoint before stopping it.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while shared.daemon_stats().checkpoints_taken == 0 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        shared.shutdown();
        handle.join().expect("background loop exits");
        shared.commit_tick();
        let daemon = shared.daemon_stats();
        assert!(daemon.checkpoints_taken > 0, "the daemon ran");
        let mut db = shared.crash();
        Generalized.recover(&mut db).expect("recover");
        for cells in models {
            for (cell, v) in cells {
                assert_eq!(
                    db.read_cell(cell).expect("read"),
                    v,
                    "cell {cell:?} diverged from its thread's issue order"
                );
            }
        }
    }

    /// Single-threaded driver with periodic flushes and fuzzy
    /// checkpoints, crashed with everything committed: the issue-order
    /// model is ground truth for every cell.
    fn run_with_checkpoints(seed: u64) -> (Db<PageOpPayload>, BTreeMap<Cell, u64>) {
        let shared = SharedDb::new(Geometry { slots_per_page: 8 });
        let ops = PageWorkloadSpec {
            n_ops: 60,
            n_pages: 6,
            cross_page_fraction: 0.3,
            multi_page_fraction: 0.2,
            blind_fraction: 0.2,
            ..Default::default()
        }
        .generate(seed);
        let cells = model(&ops);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xdead);
        for (i, op) in ops.iter().enumerate() {
            shared.execute(op).expect("execute");
            if (i + 1) % 10 == 0 {
                shared.commit_tick();
                shared.flusher_tick(&mut rng, 0.4).expect("flusher tick");
            }
            if (i + 1) % 25 == 0 {
                shared.checkpoint_tick(0).expect("checkpoint tick");
            }
        }
        shared.commit_tick();
        shared.shutdown();
        (shared.crash(), cells)
    }

    #[test]
    fn open_on_demand_serves_reads_while_gates_remain() {
        for seed in [21u64, 22, 23] {
            let (db, cells) = run_with_checkpoints(seed);
            let mut reference = db.clone();
            let seq = Generalized
                .recover(&mut reference)
                .expect("sequential recovery");
            let shared = SharedDb::open_on_demand(db).expect("open on demand");
            assert!(
                shared.recovering(),
                "seed {seed}: restart closed before any read"
            );
            assert!(
                shared.gated_count() > 0,
                "seed {seed}: nothing deferred — the workload is too tame to test anything"
            );
            // Every read below is served while recovery is (at least
            // initially) still in progress, and must already be final.
            for (&cell, &v) in &cells {
                assert_eq!(
                    shared.read_cell(cell).expect("read"),
                    v,
                    "seed {seed}: mid-recovery read of {cell:?} diverged from the issue order"
                );
            }
            while shared.recovery_tick().expect("recovery tick") {}
            let stats = shared.recovery_stats().expect("restart closed out");
            let lazy: BTreeSet<u32> = stats.replayed.iter().copied().collect();
            let sequential: BTreeSet<u32> = seq.replayed.iter().copied().collect();
            assert_eq!(
                lazy, sequential,
                "seed {seed}: lazy redo set diverged from the sequential scan"
            );
            for (cell, v) in cells {
                assert_eq!(shared.read_cell(cell).expect("read"), v);
            }
        }
    }

    #[test]
    fn an_image_from_crash_obeys_arm_faults() {
        // Regression: `SharedDb::new` built its disk and its log around
        // two unrelated injectors and `crash()` moved both into a shell
        // holding a third (`open_on_demand` did the same the other way),
        // so `arm_faults` armed a switchboard no device consulted: this
        // script landed 6 page writes and never tripped.
        let dies_at_first_event = |mut db: Db<PageOpPayload>| {
            Generalized.recover(&mut db).expect("recover");
            assert!(db.pool.dirty_count() > 0, "recovery left nothing to flush");
            let landed = db.disk.page_writes();
            db.arm_faults(FaultPlan {
                at: 1,
                kind: FaultKind::Clean,
            });
            let _ = db.flush_everything();
            assert!(db.fault_tripped(), "the armed plan reached no device");
            assert_eq!(
                db.disk.page_writes(),
                landed,
                "a dead machine writes nothing"
            );
        };
        let ops = PageWorkloadSpec {
            n_ops: 40,
            n_pages: 6,
            cross_page_fraction: 0.3,
            ..Default::default()
        }
        .generate(5);
        let shared = SharedDb::new(Geometry { slots_per_page: 8 });
        for op in &ops {
            shared.execute(op).expect("execute");
        }
        shared.commit_tick();
        dies_at_first_event(shared.crash());
        // The same for an image that went through the lazy face.
        let (db, _) = run_with_checkpoints(41);
        let shared = SharedDb::open_on_demand(db).expect("open on demand");
        while shared.recovery_tick().expect("recovery tick") {}
        for op in &ops {
            shared.execute(op).expect("execute");
        }
        shared.commit_tick();
        dies_at_first_event(shared.crash());
    }

    #[test]
    fn background_sweeper_drains_gates_without_reads() {
        let (db, cells) = run_with_checkpoints(31);
        let mut reference = db.clone();
        Generalized
            .recover(&mut reference)
            .expect("sequential recovery");
        let shared = SharedDb::open_on_demand(db).expect("open on demand");
        assert!(shared.gated_count() > 0, "nothing deferred");
        // The checkpoint daemon runs *during* recovery: gated pages
        // must ride in its dirty-page tables, or truncation would eat
        // their residual records.
        let bg = shared.clone();
        let handle = std::thread::spawn(move || bg.background_loop(7, 0.2, eager_checkpoints()));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while shared.recovering() && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        shared.shutdown();
        handle.join().expect("background loop exits");
        assert!(!shared.recovering(), "the sweeper drained the gates");
        let stats = shared.recovery_stats().expect("stats published");
        assert!(stats.scanned > 0, "the sweeper actually replayed something");
        for (cell, v) in cells {
            assert_eq!(
                shared.read_cell(cell).expect("read"),
                v,
                "cell {cell:?} diverged after the background sweep"
            );
        }
    }

    #[test]
    fn sweeper_drains_in_the_order_of_the_gate_listing() {
        // The sweeper used to list and sort every gate to take the
        // head; `first_gated` must drive the identical drain — the same
        // components in the same order, hence the same stats, replayed
        // and skipped order included.
        for seed in [21u64, 22, 23, 31, 41] {
            let (db, _) = run_with_checkpoints(seed);
            let swept = SharedDb::open_on_demand(db.clone()).expect("open on demand");
            while swept.recovery_tick().expect("recovery tick") {}
            let listed = SharedDb::open_on_demand(db).expect("open on demand");
            {
                let mut rec = listed.inner.recovery.lock();
                let state = rec.active.as_mut().expect("gates remain");
                while let Some(&page) = listed.inner.store.gated_pages().first() {
                    listed.replay_component(state, page).expect("replay");
                }
            }
            assert!(!listed.recovery_tick().expect("close-out tick"));
            let (swept, listed) = (swept.recovery_stats(), listed.recovery_stats());
            assert!(swept.as_ref().is_some_and(|stats| stats.scanned > 0));
            assert_eq!(swept, listed, "seed {seed}");
        }
    }

    #[test]
    fn execute_on_gated_page_reads_recovered_state() {
        use redo_workload::pages::PageOpKind;
        let (db, cells) = run_with_checkpoints(41);
        let mut reference = db.clone();
        Generalized
            .recover(&mut reference)
            .expect("sequential recovery");
        let shared = SharedDb::open_on_demand(db).expect("open on demand");
        let gated_cell = cells
            .keys()
            .copied()
            .find(|c| shared.inner.store.is_gated(c.page))
            .expect("some model cell sits on a gated page");
        let before = cells[&gated_cell];
        // A read-modify-write on the gated page must read the
        // *recovered* value, not the stale crash image.
        let op = PageOp {
            id: 9_999,
            kind: PageOpKind::Physiological,
            reads: vec![gated_cell],
            writes: vec![gated_cell],
            f_seed: 5,
        };
        shared.execute(&op).expect("execute mid-recovery");
        let expected = op.output(gated_cell, &[before]);
        assert_eq!(
            shared.read_cell(gated_cell).expect("read"),
            expected,
            "execute built on a stale image"
        );
        while shared.recovery_tick().expect("recovery tick") {}
        // Draining the rest must not disturb the already-served page.
        assert_eq!(shared.read_cell(gated_cell).expect("read"), expected);
    }

    #[test]
    fn mid_recovery_checkpoint_keeps_residual_records_recoverable() {
        // Crash *again* mid-recovery, right after a checkpoint that ran
        // while gates were still closed. If the daemon's table omitted
        // the gated pages, the second recovery would prove their
        // residual records installed and lose them.
        let (db, cells) = run_with_checkpoints(51);
        let shared = SharedDb::open_on_demand(db).expect("open on demand");
        assert!(shared.gated_count() > 0, "nothing deferred");
        shared.checkpoint_tick(0).expect("mid-recovery checkpoint");
        shared.shutdown();
        let mut db = shared.crash();
        Generalized.recover(&mut db).expect("second recovery");
        for (cell, v) in cells {
            assert_eq!(
                db.read_cell(cell).expect("read"),
                v,
                "cell {cell:?} lost to a mid-recovery checkpoint"
            );
        }
    }

    #[test]
    fn quiescent_daemon_skips_republication() {
        // Regression: the daemon used to re-publish an identical
        // checkpoint record on every tick of a quiescent system — a log
        // force and a master swing per tick for a byte-identical
        // analysis. Now the tick must recognize quiescence and reuse
        // the standing checkpoint without appending anything.
        let shared = SharedDb::new(Geometry { slots_per_page: 8 });
        let ops = PageWorkloadSpec {
            n_ops: 20,
            n_pages: 4,
            cross_page_fraction: 0.3,
            ..Default::default()
        }
        .generate(13);
        for op in &ops {
            shared.execute(op).expect("execute");
        }
        shared.commit_tick();
        let ck = shared
            .checkpoint_tick(0)
            .expect("checkpoint tick")
            .expect("published");
        let last = shared.inner.log.lock().last_lsn();
        for _ in 0..3 {
            let again = shared.checkpoint_tick(0).expect("checkpoint tick");
            assert_eq!(again, Some(ck), "quiescent tick must reuse the head");
        }
        assert_eq!(
            shared.inner.log.lock().last_lsn(),
            last,
            "a quiescent tick must append nothing"
        );
        let daemon = shared.daemon_stats();
        assert_eq!(daemon.checkpoints_taken, 1);
        assert_eq!(daemon.checkpoints_skipped, 3);
        // New work re-arms publication.
        let mut op = ops[0].clone();
        op.id = 999;
        shared.execute(&op).expect("execute");
        let next = shared
            .checkpoint_tick(0)
            .expect("checkpoint tick")
            .expect("published");
        assert!(next > ck);
        assert_eq!(shared.daemon_stats().checkpoints_taken, 2);
    }

    #[test]
    fn coldest_flush_unpins_the_truncation_horizon() {
        use redo_workload::pages::{PageOpKind, SlotId};
        // One cold write at LSN 1, then hot traffic elsewhere: the cold
        // page's recLSN pins the redo-start at 1, so checkpoints cannot
        // truncate anything — until the coldest-page flush clears it.
        let shared = SharedDb::new(Geometry { slots_per_page: 8 });
        let cold = Cell {
            page: PageId(0),
            slot: SlotId(0),
        };
        let op0 = PageOp {
            id: 0,
            kind: PageOpKind::Blind,
            reads: vec![],
            writes: vec![cold],
            f_seed: 1,
        };
        shared.execute(&op0).expect("execute");
        for i in 1..=30u32 {
            let cell = Cell {
                page: PageId(1 + i % 3),
                slot: SlotId(0),
            };
            let op = PageOp {
                id: i,
                kind: PageOpKind::Physiological,
                reads: vec![cell],
                writes: vec![cell],
                f_seed: 2,
            };
            shared.execute(&op).expect("execute");
        }
        shared.commit_tick();
        shared
            .checkpoint_tick(0)
            .expect("checkpoint tick")
            .expect("published");
        assert_eq!(
            shared.daemon_stats().truncated_bytes,
            0,
            "the cold page pins the horizon at LSN 1: nothing can truncate"
        );
        assert!(
            shared.flusher_tick_coldest().expect("coldest flush"),
            "the minimum-recLSN page must flush"
        );
        // The pool changed (the cold page is clean), so the next tick
        // publishes — and can finally truncate past the cold record.
        shared
            .checkpoint_tick(0)
            .expect("checkpoint tick")
            .expect("published");
        assert!(
            shared.daemon_stats().truncated_bytes > 0,
            "horizon unpinned: the prefix below the hot recLSNs truncates"
        );
        shared.shutdown();
        let db = shared.crash();
        assert!(
            db.log.first_stable() > Lsn(1),
            "the stable log no longer retains the cold record"
        );
    }

    #[test]
    fn adaptive_controller_bounds_suffix_and_recovers_exactly() {
        use redo_workload::pages::{PageOpKind, SlotId};
        use redo_workload::Zipf;
        // Zipf-skewed single-threaded traffic with the control loop
        // ticking every few ops: the estimated restart suffix must stay
        // near the budget, some checkpoints must be deltas, and a crash
        // must recover the issue-order state exactly through the
        // delta-chain analysis.
        let shared = SharedDb::new(Geometry { slots_per_page: 8 });
        let budget = RestartBudget {
            max_suffix_bytes: 2048,
            max_dirty_pages: 8,
            ..Default::default()
        };
        let controller = Controller::new(budget.clone());
        let zipf = Zipf::new(40, 0.9);
        let mut rng = StdRng::seed_from_u64(4);
        let mut cells: BTreeMap<Cell, u64> = BTreeMap::new();
        for i in 0..300u32 {
            let cell = Cell {
                page: PageId(zipf.sample(&mut rng) as u32),
                slot: SlotId(0),
            };
            let op = PageOp {
                id: i,
                kind: PageOpKind::Physiological,
                reads: vec![cell],
                writes: vec![cell],
                f_seed: 9,
            };
            let reads = vec![cells.get(&cell).copied().unwrap_or(0)];
            cells.insert(cell, op.output(cell, &reads));
            shared.execute(&op).expect("execute");
            if (i + 1) % 5 == 0 {
                shared.commit_tick();
                shared.control_tick(&controller).expect("control tick");
            }
        }
        shared.commit_tick();
        let est = shared.restart_estimate();
        assert!(
            est.suffix_bytes < 2 * budget.max_suffix_bytes,
            "controller failed to bound the restart suffix: {} bytes",
            est.suffix_bytes
        );
        let daemon = shared.daemon_stats();
        assert!(daemon.checkpoints_taken > 0, "the budget fired checkpoints");
        assert!(
            daemon.deltas_published > 0,
            "some checkpoints must be incremental deltas"
        );
        assert!(daemon.truncated_bytes > 0, "the horizon advanced");
        shared.shutdown();
        let mut db = shared.crash();
        let stats = Generalized.recover(&mut db).expect("recover");
        assert_eq!(stats.checkpoint_lsn, daemon.last_checkpoint);
        for (cell, v) in cells {
            assert_eq!(
                db.read_cell(cell).expect("read"),
                v,
                "cell {cell:?} diverged from the issue order"
            );
        }
    }

    #[test]
    fn latch_map_stays_bounded_under_zipf_skew() {
        use redo_workload::pages::{PageOpKind, SlotId};
        use redo_workload::Zipf;
        let shared = SharedDb::new(Geometry { slots_per_page: 8 });
        let zipf = Zipf::new(10_000, 1.1);
        let mut rng = StdRng::seed_from_u64(8);
        let mut grew = 0usize;
        for i in 0..600u32 {
            let cell = Cell {
                page: PageId(zipf.sample(&mut rng) as u32),
                slot: SlotId(0),
            };
            let op = PageOp {
                id: i,
                kind: PageOpKind::Physiological,
                reads: vec![cell],
                writes: vec![cell],
                f_seed: 7,
            };
            shared.execute(&op).expect("execute");
            if (i + 1) % 50 == 0 {
                grew = grew.max(shared.latch_count());
                shared.latch_gc_tick();
                // No thread holds a latch between operations, so GC can
                // reclaim the whole map; under real concurrency it keeps
                // exactly the latches workers are standing on.
                assert_eq!(shared.latch_count(), 0);
            }
        }
        assert!(
            grew > 20,
            "the workload must actually exercise map growth (saw {grew})"
        );
    }

    impl SharedDb {
        /// One drain round as it ran before the store kept a recLSN
        /// order — the oracle [`SharedDb::drain_round`] is held to: a
        /// consistent cut of every shard for the horizon, then the log
        /// force, then a second cut sorted by recLSN and walked to the
        /// first page that flushes. (Nothing dirty used to force the
        /// log all the same when no budget was given; no caller could
        /// tell, and the oracle does not.)
        fn drain_round_by_listing(&self, max_suffix_bytes: Option<u64>) -> SimResult<bool> {
            let table = self.inner.store.snapshot().dirty_page_table();
            let Some(horizon) = table.iter().map(|&(_, rec)| rec).min() else {
                return Ok(false);
            };
            let projected = self.inner.log.lock().suffix_bytes(horizon);
            if max_suffix_bytes.is_some_and(|budget| projected <= budget) {
                return Ok(false);
            }
            let stable = {
                let mut log = self.inner.log.lock();
                log.flush_all();
                log.stable_lsn()
            };
            let mut table = self.inner.store.snapshot().dirty_page_table();
            table.sort_unstable_by_key(|&(_, rec)| rec);
            for (page, _) in table {
                match self.inner.store.flush_page(page, stable) {
                    Ok(()) => return Ok(true),
                    Err(SimError::WalViolation { .. })
                    | Err(SimError::WriteOrderViolation { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
            Ok(false)
        }

        /// What a drain round can change, for twin comparison: the
        /// dirty-page table (so which page a round cleaned), the pages
        /// written, and the published horizon.
        fn drain_footprint(&self) -> (Vec<(PageId, Lsn)>, u64, Option<Lsn>) {
            let table = self.inner.store.snapshot().dirty_page_table();
            let writes = self.inner.store.disk().page_writes();
            (table, writes, self.daemon_stats().last_redo_start)
        }
    }

    #[test]
    fn drain_flushes_the_pages_the_sorted_listing_flushed_in_the_same_order() {
        use crate::testkit::cross_page_workload;
        // One client, three databases on one stream. `indexed` and
        // `listed` take each tick apart into rounds — the new round and
        // the oracle's — and must agree after every one, which pins the
        // page each round flushed, hence the order; `ticked` runs the
        // whole `control_tick` and must agree after every tick, redo-start
        // published included.
        let budget = RestartBudget {
            max_suffix_bytes: 1024,
            max_dirty_pages: 4,
            shard_skew_limit: f64::INFINITY,
            ..Default::default()
        };
        let controller = Controller::new(budget.clone());
        let multi_page_mix = |seed| {
            PageWorkloadSpec {
                n_ops: 600,
                n_pages: 96,
                skew: 0.8,
                multi_page_fraction: 0.3,
                blind_fraction: 0.1,
                ..Default::default()
            }
            .generate(seed)
        };
        let streams = [
            cross_page_workload(600, 24, 3),
            cross_page_workload(600, 48, 17),
            multi_page_mix(5),
            multi_page_mix(29),
        ];
        let (mut rounds, mut refused) = (0, 0);
        for ops in streams {
            let [indexed, listed, ticked] =
                [(); 3].map(|()| SharedDb::new(Geometry { slots_per_page: 8 }));
            for (i, op) in ops.iter().enumerate() {
                for db in [&indexed, &listed, &ticked] {
                    db.execute(op).expect("execute");
                }
                if (i + 1) % 12 != 0 {
                    continue;
                }
                let plan = controller.plan(&listed.restart_estimate());
                assert_eq!(controller.plan(&indexed.restart_estimate()), plan);
                if plan.flush_coldest {
                    let stop_at = Some(budget.max_suffix_bytes);
                    loop {
                        let landed = indexed.drain_round(stop_at).expect("round");
                        let oracle = listed
                            .drain_round_by_listing(stop_at)
                            .expect("oracle round");
                        assert_eq!(landed, oracle, "op {i}");
                        assert_eq!(
                            indexed.drain_footprint(),
                            listed.drain_footprint(),
                            "op {i}"
                        );
                        if !landed {
                            break;
                        }
                    }
                }
                if plan.checkpoint {
                    for db in [&indexed, &listed] {
                        db.checkpoint_tick(budget.full_every).expect("checkpoint");
                    }
                }
                assert_eq!(ticked.control_tick(&controller).expect("tick"), plan);
                assert_eq!(ticked.drain_footprint(), listed.drain_footprint(), "op {i}");
                assert_eq!(
                    indexed.drain_footprint(),
                    listed.drain_footprint(),
                    "op {i}"
                );
            }
            let (stats, whole) = (indexed.daemon_stats(), ticked.daemon_stats());
            assert_eq!(
                listed.daemon_stats().drain_rounds,
                0,
                "the oracle counts nothing"
            );
            assert_eq!(stats.last_redo_start, listed.daemon_stats().last_redo_start);
            let drain = |s: &DaemonStats| (s.drain_rounds, s.drain_refused, s.drain_stalled);
            assert_eq!(drain(&whole), drain(&stats));
            rounds += whole.drain_rounds;
            refused += whole.drain_refused;
        }
        assert!(rounds > 200, "the streams must drive the drain: {rounds}");
        assert!(
            refused > 0,
            "and meet a refused head, or the walk is untested"
        );
    }

    #[test]
    fn a_constraint_free_drain_flushes_one_page_per_round_and_is_never_refused() {
        use redo_workload::pages::{PageOpKind, SlotId};
        // 4 096 pages each written once, in a scattered order: every
        // page is dirty, no operation reads across pages, so the head
        // of the recLSN order is always flushable.
        let shared = SharedDb::new(Geometry { slots_per_page: 8 });
        let controller = Controller::new(RestartBudget {
            max_suffix_bytes: 16 * 1024,
            max_dirty_pages: 64,
            ..Default::default()
        });
        for i in 0..4096u32 {
            let cell = Cell {
                page: PageId(i.wrapping_mul(2_654_435_761) % 4096),
                slot: SlotId(0),
            };
            let op = PageOp {
                id: i,
                kind: PageOpKind::Physiological,
                reads: vec![cell],
                writes: vec![cell],
                f_seed: 3,
            };
            shared.execute(&op).expect("execute");
            if (i + 1) % 256 == 0 {
                shared.control_tick(&controller).expect("control tick");
            }
        }
        let stats = shared.daemon_stats();
        let flushed = shared.inner.store.flushes();
        assert!(flushed > 3000, "the drain kept up: {flushed} pages");
        assert_eq!(stats.drain_rounds, flushed);
        assert_eq!((stats.drain_refused, stats.drain_stalled), (0, 0));
        assert_eq!(shared.inner.store.disk().page_writes(), flushed);
    }

    #[test]
    fn drain_stalled_counts_the_walk_that_found_nothing_flushable() {
        use redo_workload::pages::{PageOpKind, SlotId};
        // The smallest flush-order cycle `execute` admits (ROADMAP
        // item 2): x <- f(y) @1 keeps y's later versions off disk until
        // x is durable at 1; y <- g(x) @2 keeps x's later versions off
        // until y is durable at 2; x <- .. @3 is such a version. Each
        // page now waits for the other. When `execute` pre-resolves, as
        // `Generalized::execute` does, the third op discharges the first
        // two and this becomes a test that nothing stalls.
        let cell = |page| Cell {
            page: PageId(page),
            slot: SlotId(0),
        };
        let op = |id, reads: &[Cell], write| PageOp {
            id,
            kind: PageOpKind::Generalized,
            reads: reads.to_vec(),
            writes: vec![write],
            f_seed: 11,
        };
        let (x, y) = (cell(0), cell(1));
        let shared = SharedDb::new(Geometry { slots_per_page: 8 });
        for op in [op(0, &[y, x], x), op(1, &[x, y], y), op(2, &[x], x)] {
            shared.execute(&op).expect("execute");
        }
        assert!(!shared.flusher_tick_coldest().expect("coldest flush"));
        let stats = shared.daemon_stats();
        let drain = (stats.drain_rounds, stats.drain_refused, stats.drain_stalled);
        assert_eq!(drain, (1, 2, 1), "one round, both pages refused, stalled");
        assert_eq!(shared.restart_estimate().dirty_pages, 2);
    }
}
