//! The assembled database: disk + buffer pool + log manager.
//!
//! [`Db`] wires the substrate together and owns the crash semantics:
//! [`Db::crash`] drops the cache and the volatile log tail, keeping only
//! the disk. It also carries the page geometry and the helpers shared by
//! every recovery method — executing a
//! [`PageOp`] against the cache, and
//! projecting either the *stable* (disk) or the *volatile* (cache over
//! disk) state into a theory-level [`State`] for invariant audits.

use rand::Rng;
use redo_theory::log::Lsn;
use redo_theory::state::{State, Value};
#[cfg(doc)]
use redo_workload::pages::PageOp;
use redo_workload::pages::{Cell, OpCells, PageId, SlotId};

use crate::cache::BufferPool;
use crate::disk::Disk;
use crate::error::{SimError, SimResult};
use crate::fault::{FaultInjector, FaultPlan, RepairReport};
use crate::wal::{LogPayload, ShardedLog};

/// Page geometry shared by every component.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Geometry {
    /// Slots per page.
    pub slots_per_page: u16,
}

impl Default for Geometry {
    fn default() -> Self {
        Geometry { slots_per_page: 8 }
    }
}

/// The simulated database.
#[derive(Clone, Debug)]
pub struct Db<P: LogPayload> {
    /// Stable storage (survives crashes).
    pub disk: Disk,
    /// The cache manager (volatile).
    pub pool: BufferPool,
    /// The write-ahead log (stable prefix survives; tail is volatile) —
    /// a [`ShardedLog`], one partition per store shard (1 by default).
    pub log: ShardedLog<P>,
    /// Page geometry.
    pub geometry: Geometry,
    crashes: u64,
    injector: FaultInjector,
    /// The values the operation being applied has read — a buffer kept
    /// between operations so that applying one allocates nothing.
    read_values: Vec<u64>,
}

impl<P: LogPayload> Db<P> {
    /// A fresh database with an unbounded pool.
    #[must_use]
    pub fn new(geometry: Geometry) -> Db<P> {
        Db::with_capacity(geometry, None)
    }

    /// A fresh database with a bounded buffer pool.
    #[must_use]
    pub fn with_capacity(geometry: Geometry, capacity: Option<usize>) -> Db<P> {
        Db::on(crate::backend::BackendKind::Mem, geometry, capacity)
    }

    /// A fresh database whose disk and log live on the chosen backend —
    /// [`BackendKind::Mem`](crate::backend::BackendKind::Mem) for the
    /// simulated devices, [`BackendKind::File`](crate::backend::BackendKind::File)
    /// for real files in a fresh temporary directory.
    #[must_use]
    pub fn on(
        kind: crate::backend::BackendKind,
        geometry: Geometry,
        capacity: Option<usize>,
    ) -> Db<P> {
        Db::on_sharded(kind, geometry, capacity, 1)
    }

    /// A fresh database whose log is split into `log_shards`
    /// per-partition logs (a power of two), routed by the same page-id
    /// mask as [`ShardedStore`](crate::shard::ShardedStore). `1` is the
    /// single-log database of [`Db::on`].
    #[must_use]
    pub fn on_sharded(
        kind: crate::backend::BackendKind,
        geometry: Geometry,
        capacity: Option<usize>,
        log_shards: usize,
    ) -> Db<P> {
        let (disk, log) = (Disk::on(kind), ShardedLog::on(kind, log_shards));
        Db::from_parts(geometry, capacity, disk, log)
    }

    /// A database assembled around a disk and a log that already exist —
    /// fresh ones, or the survivors of whatever ran on them before (a
    /// crashed [`ShardedStore`](crate::shard::ShardedStore)'s disk and
    /// its shared log) — under an empty cache. This is the one place the
    /// parts are wired together: a single new injector is threaded
    /// through the disk, every log shard and the shell, so a fault
    /// plan's event counter spans disk writes and log flushes alike and
    /// [`Db::arm_faults`] reaches every device, wherever the parts came
    /// from.
    #[must_use]
    pub fn from_parts(
        geometry: Geometry,
        capacity: Option<usize>,
        mut disk: Disk,
        mut log: ShardedLog<P>,
    ) -> Db<P> {
        let injector = FaultInjector::new();
        disk.injector = injector.clone();
        log.share_injector(injector.clone());
        Db {
            disk,
            pool: BufferPool::new(capacity),
            log,
            geometry,
            crashes: 0,
            injector,
            read_values: Vec::new(),
        }
    }

    /// The shared crash-fault injector. Cloning a `Db` shares it (clone
    /// exploration is safe while no plan is armed); arm a plan around
    /// exactly one database at a time.
    #[must_use]
    pub fn fault_injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// Arms a crash-point fault plan on this database's devices.
    pub fn arm_faults(&self, plan: FaultPlan) {
        self.injector.arm(plan);
    }

    /// Has an armed fault fired? Once true, the machine is dead: all
    /// stable-storage I/O is suppressed until [`Db::crash`].
    #[must_use]
    pub fn fault_tripped(&self) -> bool {
        self.injector.tripped()
    }

    /// Post-crash media repair, recovery's first act: restores torn
    /// pages from their journaled pre-images and discards a torn
    /// log-tail fragment. Idempotent; a no-op after clean crashes.
    pub fn repair_after_crash(&mut self) -> RepairReport {
        RepairReport {
            torn_pages: self.disk.repair_torn(),
            log_bytes_dropped: self.log.repair_tail(),
        }
    }

    /// Number of crashes injected so far.
    #[must_use]
    pub fn crashes(&self) -> u64 {
        self.crashes
    }

    /// CRASH: volatile state (cache, log tail) vanishes; the disk and the
    /// stable log prefix survive — including any torn-page or torn-tail
    /// damage an armed fault left ([`Db::repair_after_crash`] fixes it).
    /// The injector disarms: the restarted machine's I/O works.
    pub fn crash(&mut self) {
        self.pool.crash();
        self.log.crash();
        self.disk.crash();
        self.injector.reset();
        self.crashes += 1;
    }

    /// Reads one cell through the cache.
    ///
    /// # Errors
    ///
    /// Pool exhaustion while faulting the page in.
    pub fn read_cell(&mut self, cell: Cell) -> SimResult<u64> {
        self.fetch_with_steal(cell.page)?;
        Ok(self
            .pool
            .get(cell.page)
            .expect("just fetched page resident")
            .get(cell.slot))
    }

    /// Faults `page` in, stealing a frame if the pool is full. When the
    /// first attempt exhausts the pool, the log is forced — a victim
    /// whose flush the WAL rule blocked becomes flushable — and the
    /// fetch retried once. This is the log force a real cache manager
    /// performs to steal a dirty frame. Every method's apply path must
    /// fetch through this (not `pool.fetch` directly): under fuzzy
    /// checkpoints nothing else ever cleans the pool, so a bounded pool
    /// whose frames are all dirty above the stable LSN is a normal
    /// state, not an error.
    ///
    /// # Errors
    ///
    /// Pool exhaustion when every frame is pinned (the force cannot
    /// help), or disk faults from the victim flush.
    pub fn fetch_with_steal(&mut self, page: PageId) -> SimResult<()> {
        let spp = self.geometry.slots_per_page;
        let stable = self.log.stable_lsn();
        match self.pool.fetch(&mut self.disk, page, spp, stable) {
            Err(SimError::PoolExhausted) => {
                self.log.flush_all();
                let stable = self.log.stable_lsn();
                self.pool
                    .fetch(&mut self.disk, page, spp, stable)
                    .map(|_| ())
            }
            r => r.map(|_| ()),
        }
    }

    /// Executes a [`PageOp`] against the cache: reads its cells, computes
    /// its outputs, applies them, and tags every written page with `lsn`.
    /// (Logging is the caller's business — each method logs something
    /// different *before* calling this, per the WAL protocol.)
    ///
    /// The op applies atomically or not at all: every page it touches is
    /// faulted in and pinned *before* the first write, so a bounded pool
    /// exhausting mid-op cannot evict an earlier-fetched page and leave
    /// the op half-applied (an unexplainable cache state — no
    /// installation-graph prefix contains half an operation).
    ///
    /// # Errors
    ///
    /// Pool exhaustion while faulting pages in; no write has been
    /// applied when an error is returned.
    pub fn apply_page_op(&mut self, op: &impl OpCells, lsn: Lsn) -> SimResult<()> {
        self.apply_page_op_on(op, lsn, &op.footprint().touched)
    }

    /// [`Db::apply_page_op`] for a caller that has already named the
    /// operation's pages: `touched` is every page it reads or writes,
    /// ascending ([`Footprint::touched`](redo_workload::pages::Footprint)).
    /// One body for the foreground's [`PageOp`] and restart's view of
    /// its log record.
    ///
    /// # Errors
    ///
    /// As [`Db::apply_page_op`].
    pub fn apply_page_op_on(
        &mut self,
        op: &impl OpCells,
        lsn: Lsn,
        touched: &[PageId],
    ) -> SimResult<()> {
        let mut pinned = 0;
        let mut result = Ok(());
        for &page in touched {
            result = self
                .fetch_with_steal(page)
                .and_then(|()| self.pool.pin(page));
            if result.is_err() {
                break;
            }
            pinned += 1;
        }
        if result.is_ok() {
            result = self.write_pinned(op, lsn);
        }
        for &page in &touched[..pinned] {
            self.pool.unpin(page);
        }
        result
    }

    /// The read and write phases of an operation whose pages are all
    /// resident and pinned: they find every frame they ask for.
    fn write_pinned(&mut self, op: &impl OpCells, lsn: Lsn) -> SimResult<()> {
        self.read_values.clear();
        for cell in op.reads() {
            let page = self.pool.get(cell.page);
            let page = page.ok_or(SimError::NotCached(cell.page))?;
            self.read_values.push(page.get(cell.slot));
        }
        for cell in op.writes() {
            let v = op.output(cell, &self.read_values);
            self.pool.update(cell.page, lsn, |p| p.set(cell.slot, v))?;
        }
        Ok(())
    }

    /// Flushes the log fully, then every dirty page (ordering around
    /// write-order constraints).
    ///
    /// # Errors
    ///
    /// Propagates unresolvable flush violations.
    pub fn flush_everything(&mut self) -> SimResult<()> {
        self.log.flush_all();
        let stable = self.log.stable_lsn();
        self.pool.flush_all(&mut self.disk, stable)
    }

    /// Randomly flushes: forces the log with probability `log_prob`, then
    /// attempts each dirty page with probability `page_prob`, skipping
    /// pages whose flush would violate a rule. This is the background
    /// cache-cleaning a real system does between checkpoints, and the
    /// source of crash-state diversity in the experiments.
    ///
    /// # Errors
    ///
    /// WAL-rule and write-order refusals are the cache manager doing its
    /// job and are skipped silently; anything else (pool exhaustion, a
    /// page that claims to be dirty but is not cached) is a substrate
    /// bug and propagates.
    pub fn chaos_flush(
        &mut self,
        rng: &mut impl Rng,
        log_prob: f64,
        page_prob: f64,
    ) -> SimResult<()> {
        if rng.gen_bool(log_prob.clamp(0.0, 1.0)) {
            self.log.flush_all();
        }
        let stable = self.log.stable_lsn();
        for id in self.pool.dirty_pages() {
            if rng.gen_bool(page_prob.clamp(0.0, 1.0)) {
                match self.pool.flush_page(&mut self.disk, id, stable) {
                    Ok(())
                    | Err(SimError::WalViolation { .. })
                    | Err(SimError::WriteOrderViolation { .. }) => {}
                    Err(e) => return Err(e),
                }
            }
        }
        Ok(())
    }

    /// Projects the *stable* (disk-only) state into a theory state. This
    /// is what recovery starts from after a crash.
    #[must_use]
    pub fn stable_theory_state(&self) -> State {
        self.disk.theory_state(self.geometry.slots_per_page)
    }

    /// Projects the *volatile* view (cache over disk) into a theory
    /// state: what the database would answer queries from right now. At
    /// end of workload this is the theory's final state.
    #[must_use]
    pub fn volatile_theory_state(&self) -> State {
        let spp = self.geometry.slots_per_page;
        let mut s = self.stable_theory_state();
        // Overlay every cached page — the cache copy is the current
        // value whether the frame is clean or dirty, and zeros overwrite
        // stale disk values (`State::set` normalizes them out of the
        // support).
        for id in self.pool.cached_pages() {
            let page = self.pool.get(id).expect("cached_pages is resident");
            for slot in 0..spp {
                let cell = Cell {
                    page: id,
                    slot: SlotId(slot),
                };
                s.set(cell.var(spp), Value(page.get(SlotId(slot))));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::codec;
    use crate::SimError;
    use redo_workload::pages::{PageOp, PageOpKind, PageWorkloadSpec};

    #[derive(Clone, Debug, PartialEq)]
    struct OpRec(PageOp);

    impl LogPayload for OpRec {
        fn encode(&self, buf: &mut Vec<u8>) -> SimResult<()> {
            codec::put_page_op(buf, &self.0)
        }
        fn decode(input: &[u8], pos: &mut usize) -> SimResult<Self> {
            Ok(OpRec(codec::get_page_op(input, pos)?))
        }
    }

    fn blind_op(id: u32, page: u32, slot: u16) -> PageOp {
        PageOp {
            id,
            kind: PageOpKind::Blind,
            reads: vec![],
            writes: vec![Cell {
                page: PageId(page),
                slot: SlotId(slot),
            }],
            f_seed: 7,
        }
    }

    #[test]
    fn apply_page_op_updates_cache_not_disk() {
        let mut db: Db<OpRec> = Db::new(Geometry::default());
        let op = blind_op(0, 0, 1);
        let lsn = db.log.append(OpRec(op.clone())).unwrap();
        db.apply_page_op(&op, lsn).unwrap();
        let cell = op.writes[0];
        assert_eq!(db.read_cell(cell).unwrap(), op.output(cell, &[]));
        assert_eq!(db.disk.read_page(PageId(0), 8).unwrap().get(SlotId(1)), 0);
    }

    #[test]
    fn crash_loses_cache_keeps_disk() {
        let mut db: Db<OpRec> = Db::new(Geometry::default());
        let op = blind_op(0, 0, 1);
        let lsn = db.log.append(OpRec(op.clone())).unwrap();
        db.apply_page_op(&op, lsn).unwrap();
        db.flush_everything().unwrap();
        let op2 = blind_op(1, 0, 2);
        let lsn2 = db.log.append(OpRec(op2.clone())).unwrap();
        db.apply_page_op(&op2, lsn2).unwrap();
        db.crash();
        assert_eq!(db.crashes(), 1);
        let page = db.disk.read_page(PageId(0), 8).unwrap();
        assert_eq!(page.get(SlotId(1)), op.output(op.writes[0], &[]));
        assert_eq!(page.get(SlotId(2)), 0, "unflushed update lost");
        // Stable log retains only the first record.
        let stable = db.log.pit_records(db.log.stable_lsn()).unwrap();
        assert_eq!(stable.len(), 1);
    }

    #[test]
    fn wal_rule_enforced_through_db() {
        let mut db: Db<OpRec> = Db::new(Geometry::default());
        let op = blind_op(0, 0, 1);
        let lsn = db.log.append(OpRec(op.clone())).unwrap();
        db.apply_page_op(&op, lsn).unwrap();
        // Without flushing the log, the page flush must fail.
        let stable = db.log.stable_lsn();
        let err = db
            .pool
            .flush_page(&mut db.disk, PageId(0), stable)
            .unwrap_err();
        assert!(matches!(err, SimError::WalViolation { .. }));
        db.flush_everything().unwrap();
    }

    #[test]
    fn deterministic_outputs_across_replay() {
        // Applying the same op twice (normal run, then replay on a fresh
        // db) yields identical cell values.
        let spec = PageWorkloadSpec {
            n_ops: 20,
            cross_page_fraction: 0.3,
            ..Default::default()
        };
        let ops = spec.generate(5);
        let run = |crash_halfway: bool| {
            let mut db: Db<OpRec> = Db::new(Geometry::default());
            for op in &ops {
                let lsn = db.log.append(OpRec(op.clone())).unwrap();
                db.apply_page_op(op, lsn).unwrap();
                if crash_halfway {
                    db.flush_everything().unwrap();
                }
            }
            db.flush_everything().unwrap();
            db.stable_theory_state()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn volatile_state_overlays_cache() {
        let mut db: Db<OpRec> = Db::new(Geometry::default());
        let op = blind_op(0, 0, 1);
        let lsn = db.log.append(OpRec(op.clone())).unwrap();
        db.apply_page_op(&op, lsn).unwrap();
        let vol = db.volatile_theory_state();
        let stable = db.stable_theory_state();
        let var = op.writes[0].var(8);
        assert_ne!(vol.get(var), Value(0));
        assert_eq!(stable.get(var), Value(0));
    }

    #[test]
    fn multi_page_op_applies_atomically_or_not_at_all() {
        // Regression: with a one-frame pool, a two-page op used to fetch
        // page A, evict it fetching page B, and then half-apply (or fail
        // after dirtying one page). Pre-pinning makes the failure clean.
        let op = PageOp {
            id: 0,
            kind: PageOpKind::MultiPage,
            reads: vec![],
            writes: vec![
                Cell {
                    page: PageId(1),
                    slot: SlotId(0),
                },
                Cell {
                    page: PageId(0),
                    slot: SlotId(0),
                },
            ],
            f_seed: 3,
        };
        let mut db: Db<OpRec> = Db::with_capacity(Geometry::default(), Some(1));
        let lsn = db.log.append(OpRec(op.clone())).unwrap();
        let err = db.apply_page_op(&op, lsn).unwrap_err();
        assert_eq!(err, SimError::PoolExhausted);
        assert!(
            db.pool.dirty_pages().is_empty(),
            "no page may carry half the op"
        );
        assert_eq!(db.volatile_theory_state(), db.stable_theory_state());
        // A pool that fits the op applies it fully.
        let mut db: Db<OpRec> = Db::with_capacity(Geometry::default(), Some(2));
        let lsn = db.log.append(OpRec(op.clone())).unwrap();
        db.apply_page_op(&op, lsn).unwrap();
        assert_eq!(db.pool.dirty_pages().len(), 2);
        for &cell in &op.writes {
            assert_eq!(db.read_cell(cell).unwrap(), op.output(cell, &[]));
        }
        assert!(
            !db.pool.is_pinned(PageId(0)) && !db.pool.is_pinned(PageId(1)),
            "pins released after the op"
        );
    }

    #[test]
    fn volatile_state_overlays_clean_cached_pages_by_construction() {
        let mut db: Db<OpRec> = Db::new(Geometry::default());
        let op = blind_op(0, 2, 1);
        let lsn = db.log.append(OpRec(op.clone())).unwrap();
        db.apply_page_op(&op, lsn).unwrap();
        db.flush_everything().unwrap();
        // Page 2 is now cached AND clean; the overlay must still cover
        // it (previously it was only covered by the accident that clean
        // pages equal their disk copies).
        assert!(db.pool.get(PageId(2)).is_some());
        assert!(db.pool.dirty_pages().is_empty());
        assert_eq!(db.volatile_theory_state(), db.stable_theory_state());
        // And a clean cached page of an absent disk page contributes
        // nothing but zeros.
        db.read_cell(Cell {
            page: PageId(7),
            slot: SlotId(0),
        })
        .unwrap();
        assert_eq!(db.volatile_theory_state(), db.stable_theory_state());
    }

    #[test]
    fn torn_page_write_detected_and_repaired_end_to_end() {
        use crate::fault::{FaultKind, FaultPlan, InjectedFault};
        let mut db: Db<OpRec> = Db::new(Geometry::default());
        // Install op 0 durably on page 0.
        let op0 = blind_op(0, 0, 1);
        let lsn0 = db.log.append(OpRec(op0.clone())).unwrap();
        db.apply_page_op(&op0, lsn0).unwrap();
        db.flush_everything().unwrap();
        let durable = db.stable_theory_state();
        // Op 1 updates the same page; its flush tears.
        let op1 = blind_op(1, 0, 3);
        let lsn1 = db.log.append(OpRec(op1.clone())).unwrap();
        db.apply_page_op(&op1, lsn1).unwrap();
        db.log.flush_all();
        db.arm_faults(FaultPlan {
            at: 1,
            kind: FaultKind::TornWrite { sectors: 2 },
        });
        let stable = db.log.stable_lsn();
        db.pool.flush_page(&mut db.disk, PageId(0), stable).unwrap();
        assert!(db.fault_tripped());
        assert_eq!(
            db.fault_injector().injected(),
            Some(InjectedFault::TornWrite(PageId(0)))
        );
        db.crash();
        assert!(db.disk.is_torn(PageId(0)));
        let report = db.repair_after_crash();
        assert_eq!(report.torn_pages, vec![PageId(0)]);
        assert_eq!(report.log_bytes_dropped, 0);
        // The repaired disk is the pre-tear durable state: op 0's world.
        assert_eq!(db.stable_theory_state(), durable);
        // Repair is idempotent.
        assert!(db.repair_after_crash().is_clean());
    }

    #[test]
    fn torn_log_flush_repaired_end_to_end() {
        use crate::fault::{FaultKind, FaultPlan};
        let mut db: Db<OpRec> = Db::new(Geometry::default());
        let op0 = blind_op(0, 0, 1);
        let lsn0 = db.log.append(OpRec(op0.clone())).unwrap();
        db.apply_page_op(&op0, lsn0).unwrap();
        let op1 = blind_op(1, 1, 2);
        let lsn1 = db.log.append(OpRec(op1.clone())).unwrap();
        db.apply_page_op(&op1, lsn1).unwrap();
        // The second record's flush tears mid-frame.
        db.arm_faults(FaultPlan {
            at: 2,
            kind: FaultKind::TornFlush { bytes: 9 },
        });
        db.log.flush_all();
        assert!(db.fault_tripped());
        db.crash();
        let stable = |db: &Db<OpRec>| db.log.pit_records(db.log.stable_lsn());
        assert!(matches!(stable(&db), Err(SimError::Corrupt(_))));
        let report = db.repair_after_crash();
        assert_eq!(report.log_bytes_dropped, 9);
        let records = stable(&db).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].lsn, lsn0);
    }

    #[test]
    fn chaos_flush_respects_rules() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut db: Db<OpRec> = Db::new(Geometry::default());
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..20 {
            let op = blind_op(i, i % 3, (i % 8) as u16);
            let lsn = db.log.append(OpRec(op.clone())).unwrap();
            db.apply_page_op(&op, lsn).unwrap();
            db.chaos_flush(&mut rng, 0.5, 0.5).unwrap();
            // Invariant: no disk page may carry an LSN beyond the stable
            // log (the WAL rule, continuously).
            for (id, page) in db.disk.pages() {
                assert!(
                    page.lsn() <= db.log.stable_lsn(),
                    "page {id:?} violates WAL: {:?} > {:?}",
                    page.lsn(),
                    db.log.stable_lsn()
                );
            }
        }
    }
}
