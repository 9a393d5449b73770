//! On-demand ("instant") restart: serve reads *during* recovery via
//! per-page redo.
//!
//! The offline methods hold the database closed until the full redo
//! scan finishes. Instant-restart systems (Sauer & Härder) open
//! immediately, let the first access to each page pay for that page's
//! replay, and redo the rest in the background in log order.
//!
//! Lazy restart is one object, `LazyRestart`, which owns a restart's
//! state and makes every decision, under two faces (DESIGN §14, §20):
//! [`OnDemandRestart`] over a sequential [`Db`] and
//! [`SharedDb::open_on_demand`] over the sharded store, each with its
//! own gate map and store. Analysis is `redo::begin`; a page is *gated*
//! (`RestartAnalysis::gates`) when its stable chain holds a record at
//! or above the redo-start that the dirty-page table cannot prove
//! installed, or when a record at or above the redo-start reads it
//! without writing it (a residual reader must see it before anything
//! new overwrites it). Placement is one walk of each shard's chains,
//! each page decided from its chains' last entries, and notes each
//! gated page's *last entry*, the last record it waits for. Everything
//! else is servable at once.
//!
//! Two paths redo the owed records, and what they have redone is
//! always a downset of the residual conflict graph, which by Theorem 3
//! may replay first, in LSN order, with the rest after it:
//!
//! * the **drain** ([`OnDemandRestart::sweep_one`],
//!   [`SharedDb::recovery_tick`]) is the serial loop over the owed
//!   suffix, one batch a step, opening each gate as it passes the
//!   page's last entry;
//! * a **demand** — a read or write of a gated page — replays the
//!   page's downset (`RestartAnalysis::downset`), read in place, then
//!   opens the page.
//!
//! A gate opens only once its page's downset is redone, so an error or
//! crash mid-replay leaves it closed, and the next recovery starts from
//! the repaired image as if this one had never run.
//!
//! Media-lost pages ([`redo_sim::SimError::MediaLoss`]) are restored at
//! open, before any gate is placed, exactly as [`media::Media`] restores
//! them; every record touching them is then skipped by the redo test.
//! [`OnDemand::recover`] is open-then-drain: with no read in between it
//! is the serial loop over the same records, which is how the crash
//! auditor proves the lazy path equivalent to the sequential scan.

use std::collections::BTreeMap;
use std::ops::{DerefMut, Range};
use std::time::Instant;

use redo_sim::db::Db;
use redo_sim::wal::codec::PageOpView;
use redo_sim::wal::{Batch, ShardedLog, ShardedScanner};
use redo_sim::{SimError, SimResult};
use redo_theory::log::Lsn;
use redo_workload::pages::{Cell, OpCells, PageId, PageOp};

use crate::concurrent::SharedDb;
use crate::generalized::{redo_op, Generalized};
use crate::media;
use crate::oprecord::PageOpPayload;
use crate::redo::{self, lap, LsnBits, Redo, RestartAnalysis};
use crate::{RecoveryMethod, RecoveryStats, SCAN_BATCH};

/// Generalized-LSN recovery through the on-demand (instant restart)
/// path: online fuzzy checkpoints during normal operation, per-page
/// lazy redo after a crash.
#[derive(Clone, Copy, Debug, Default)]
pub struct OnDemand;

/// An open-for-business database that is still recovering: the lazy
/// restart, and the pages whose redo it still defers.
///
/// Obtained from [`OnDemand::open`]; drained by reads
/// ([`OnDemandRestart::read_cell`]) and the background sweeper
/// ([`OnDemandRestart::sweep_one`]); closed out by
/// [`OnDemandRestart::finish`].
#[derive(Clone, Debug)]
pub struct OnDemandRestart {
    lazy: LazyRestart,
    gates: BTreeMap<PageId, Lsn>,
}

/// One lazy restart, whichever face serves it: everything it owes and
/// has done. Its drain is the serial loop over the owed suffix, from
/// the redo-start to the last gate entry — nothing past it is owed, and
/// nothing appended since the open lies below it — one
/// [`crate::SCAN_BATCH`] a step, in LSN order, each record parsed once.
/// A demand replays a page's downset ahead of the drain, its records
/// read in place and their bodies copied into one reused buffer.
#[derive(Clone, Debug)]
pub(crate) struct LazyRestart {
    /// What the gates were placed from.
    analysis: RestartAnalysis,
    /// The drain's read position in the owed suffix.
    scanner: ShardedScanner,
    /// The last gate entry at the open.
    upto: Lsn,
    /// Every record at or below this LSN is redone.
    passed: Lsn,
    /// Records a demand redid: the drain passes over them, so none is
    /// redone or counted twice.
    demanded: LsnBits,
    /// The gated pages by last entry, listed at the first step: the
    /// order the drain opens them in.
    opens: Option<std::vec::IntoIter<(Lsn, PageId)>>,
    /// The last batch's view vector, emptied, for its allocation.
    spent: Vec<(Lsn, Option<PageOpView<'static>>)>,
    /// The error a step stopped at; the scanner is past its batch, so
    /// every later step returns it.
    failed: Option<SimError>,
    /// What the restart has done so far, phase clocks included.
    stats: RecoveryStats,
    /// Set once the drain is complete and the stats are closed out.
    closed: bool,
    /// The last demand's records by LSN, each with its body's extent
    /// in `bodies`.
    downset: Vec<(Lsn, Range<usize>)>,
    /// Those bodies, back to back, copied from the log image.
    bodies: Vec<u8>,
}

impl LazyRestart {
    /// Opens a crashed `db` lazily: `redo::begin` (repair, analysis),
    /// `media::restore`, then the gates (`RestartAnalysis::gates`),
    /// which go to the face, and the drain over the suffix they owe —
    /// nothing when nothing is gated.
    ///
    /// # Errors
    ///
    /// Those of `redo::begin` and `media::restore`.
    pub(crate) fn open(
        db: &mut Db<PageOpPayload>,
    ) -> SimResult<(LazyRestart, BTreeMap<PageId, Lsn>)> {
        let (analysis, stats) = redo::begin(db)?;
        media::restore(db)?;
        let gates = analysis.gates(&db.log);
        let lazy = LazyRestart {
            scanner: ShardedScanner::seek(&db.log, analysis.redo_start),
            upto: gates.values().copied().max().unwrap_or(Lsn::ZERO),
            passed: Lsn::ZERO,
            demanded: LsnBits::new(analysis.redo_start),
            opens: None,
            spent: Vec::new(),
            failed: None,
            stats,
            closed: false,
            downset: Vec::new(),
            bodies: Vec::new(),
            analysis,
        };
        Ok((lazy, gates))
    }

    /// What the gates were placed from.
    pub(crate) fn analysis(&self) -> &RestartAnalysis {
        &self.analysis
    }

    /// Has the drain redone everything restart owes?
    pub(crate) fn complete(&self) -> bool {
        self.passed >= self.upto
    }

    /// The stats, once [`LazyRestart::close`] closed them out.
    pub(crate) fn stats(&self) -> Option<&RecoveryStats> {
        self.closed.then_some(&self.stats)
    }

    /// Closes out a complete restart, once: folds the drain's scan
    /// telemetry and `log`'s force count into the stats, and frees the
    /// buffers a store that keeps the restart for its stats never uses.
    pub(crate) fn close(&mut self, log: &ShardedLog<PageOpPayload>) {
        debug_assert!(self.complete(), "closing a restart that owes records");
        if !self.closed {
            self.stats.note_scan(self.scanner.stats(), log.forces());
            self.closed = true;
            (self.scanner, self.spent, self.opens) = Default::default();
            (self.downset, self.bodies) = Default::default();
        }
    }

    /// A demand's walk: `page`'s downset in `log`
    /// (`RestartAnalysis::downset`), less what the drain or an earlier
    /// demand redid — or what lies past the owed suffix, where nothing
    /// is restart's to redo — each record read in place and the bodies
    /// kept copied into this restart's buffer.
    ///
    /// # Errors
    ///
    /// Log corruption at a chain offset.
    pub(crate) fn walk_downset(
        &mut self,
        log: &ShardedLog<PageOpPayload>,
        page: PageId,
    ) -> SimResult<()> {
        let mut clock = Instant::now();
        let (passed, upto, demanded) = (self.passed, self.upto, &self.demanded);
        let done = |lsn| lsn <= passed || lsn > upto || demanded.contains(lsn);
        self.bodies.clear();
        self.downset =
            (self.analysis).downset(log, page, done, &mut self.bodies, &mut self.stats)?;
        self.stats.phase_ns.scan += lap(&mut clock);
        Ok(())
    }

    /// A demand's replay: the walked records in LSN order through
    /// `redo`, the face's redo test and replay, each noted so the drain
    /// passes over it. Only then are the `gates` taken and opened —
    /// `page`'s own, and that of every page whose last entry is a
    /// replayed record writing it, since that record's downset holds
    /// every earlier entry of the page. (A last entry that only reads
    /// its page leaves the page's other readers out of its downset, so
    /// that gate waits for the drain or a demand of its own.) Returns
    /// the gates, still held.
    ///
    /// # Errors
    ///
    /// Whatever `redo` returns; no gate opens.
    pub(crate) fn replay_downset<G: DerefMut<Target = BTreeMap<PageId, Lsn>>>(
        &mut self,
        page: PageId,
        mut redo: impl FnMut(Lsn, &PageOpView<'_>) -> SimResult<bool>,
        gates: impl FnOnce() -> G,
    ) -> SimResult<G> {
        let mut clock = Instant::now();
        for (lsn, op) in kept(&self.downset, &self.bodies) {
            self.stats.note_verdict(Redo::of(op.id, redo(lsn, &op)?));
            self.demanded.insert(lsn);
        }
        self.stats.phase_ns.redo += lap(&mut clock);
        let mut gates = gates();
        for (lsn, op) in kept(&self.downset, &self.bodies) {
            for cell in op.writes() {
                if gates.get(&cell.page) == Some(&lsn) {
                    gates.remove(&cell.page);
                }
            }
        }
        gates.remove(&page);
        Ok(gates)
    }

    /// Opens every gate whose last entry the drain has passed.
    pub(crate) fn open_passed(&mut self, gates: &mut BTreeMap<PageId, Lsn>) {
        let opens = self.opens.get_or_insert_with(|| {
            let mut opens: Vec<(Lsn, PageId)> = gates.iter().map(|(&p, &l)| (l, p)).collect();
            opens.sort_unstable();
            opens.into_iter()
        });
        while let Some(&(lsn, page)) = opens.as_slice().first() {
            if lsn > self.passed {
                break;
            }
            opens.next();
            gates.remove(&page);
        }
    }

    /// One drain step, `false` once the drain is complete: `read` the
    /// next batch, parse it, `prefetch` what its records touch, then
    /// redo each in LSN order — a checkpoint record counted, one a
    /// demand redid passed over, one no page it writes owes skipped
    /// without a page test, any other handed to `redo`, the face's redo
    /// test and replay. `ctx` is what the face's steps work on.
    ///
    /// # Errors
    ///
    /// Log corruption and whatever `redo` returns; the drain then stops
    /// for good.
    pub(crate) fn step<C>(
        &mut self,
        ctx: &mut C,
        read: impl for<'s> FnOnce(&C, &'s mut ShardedScanner) -> SimResult<Batch<'s>>,
        prefetch: impl FnOnce(&mut C, &[(Lsn, Option<PageOpView<'_>>)]) -> usize,
        redo: impl FnMut(&mut C, Lsn, &PageOpView<'_>) -> SimResult<bool>,
    ) -> SimResult<bool> {
        if let Some(e) = &self.failed {
            return Err(e.clone());
        }
        if self.complete() {
            return Ok(false);
        }
        let batch = self.batch(ctx, read, prefetch, redo);
        self.failed = batch.as_ref().err().cloned();
        batch.map(|()| true)
    }

    /// [`LazyRestart::step`]'s batch.
    fn batch<C>(
        &mut self,
        ctx: &mut C,
        read: impl for<'s> FnOnce(&C, &'s mut ShardedScanner) -> SimResult<Batch<'s>>,
        prefetch: impl FnOnce(&mut C, &[(Lsn, Option<PageOpView<'_>>)]) -> usize,
        mut redo: impl FnMut(&mut C, Lsn, &PageOpView<'_>) -> SimResult<bool>,
    ) -> SimResult<()> {
        let mut clock = Instant::now();
        let stats = &mut self.stats;
        let mut views = redo::recycle(std::mem::take(&mut self.spent));
        let batch = read(ctx, &mut self.scanner)?;
        redo::scan_batch(batch, self.upto, &mut views, redo::op_view)?;
        if views.is_empty() {
            return Err(SimError::MethodViolation(
                "the owed suffix ended before its last gate entry",
            ));
        }
        stats.phase_ns.scan += lap(&mut clock);
        stats.pages_prefetched += prefetch(ctx, &views);
        stats.phase_ns.prefetch += lap(&mut clock);
        for (lsn, view) in &views {
            stats.scanned += 1;
            match view {
                None => stats.checkpoint_records += 1,
                Some(_) if self.demanded.contains(*lsn) => {}
                Some(op) if !op.writes().any(|w| self.analysis.owes(w.page, *lsn)) => {
                    stats.skipped.push(op.id);
                }
                Some(op) => stats.note_verdict(Redo::of(op.id, redo(ctx, *lsn, op)?)),
            }
            self.passed = *lsn;
        }
        stats.phase_ns.redo += lap(&mut clock);
        self.spent = redo::recycle(views);
        Ok(())
    }
}

/// A demand's records, each read from its body's copy in `bodies`.
fn kept<'a>(
    downset: &'a [(Lsn, Range<usize>)],
    bodies: &'a [u8],
) -> impl Iterator<Item = (Lsn, PageOpView<'a>)> + 'a {
    downset.iter().map(|(lsn, extent)| {
        let op = PageOpPayload::op_view(&bodies[extent.clone()], &mut 0)
            .ok()
            .flatten();
        (*lsn, op.expect("the walk keeps operations it parsed"))
    })
}

impl OnDemand {
    /// Opens a crashed database immediately: repair, analysis, the
    /// media restore and gate placement — no replay, no scan, and no
    /// record decoded (a restore, when pages are lost, is the one
    /// exception: it reads `archive ∥ live` in place and installs the
    /// lost pages' rebuild closure). Every page whose chain holds a
    /// record the analysis cannot prove installed, or that a residual
    /// record reads, is gated; reads on ungated pages are servable at
    /// once.
    ///
    /// # Errors
    ///
    /// Log or archive corruption; [`SimError::MediaLoss`] if the
    /// restore's install did not land.
    pub fn open(db: &mut Db<PageOpPayload>) -> SimResult<OnDemandRestart> {
        let (lazy, gates) = LazyRestart::open(db)?;
        Ok(OnDemandRestart { lazy, gates })
    }

    /// [`OnDemand::open`], then serve each probe cell mid-recovery,
    /// then drain. Returns the final stats plus the value each probe
    /// observed *while recovery was still in progress* — the crash
    /// auditor cross-validates those against the sequential probe's
    /// final state. The same image then goes through the concurrent
    /// face, [`SharedDb::open_on_demand`]: the same probes, a
    /// [`SharedDb::recovery_tick`] drain, every probe once more — each
    /// value must equal this face's.
    ///
    /// # Errors
    ///
    /// Substrate errors, including log corruption;
    /// [`SimError::MethodViolation`] if the two faces disagree.
    pub fn restart_with_probes(
        db: &mut Db<PageOpPayload>,
        probes: &[Cell],
    ) -> SimResult<(RecoveryStats, Vec<u64>)> {
        let image = db.clone();
        let mut restart = Self::open(db)?;
        let mut served = Vec::with_capacity(probes.len());
        for &cell in probes {
            served.push(restart.read_cell(db, cell)?);
        }
        let stats = restart.finish(db)?;
        let shared = SharedDb::open_on_demand(image)?;
        let mut agree = true;
        for (&cell, &v) in probes.iter().zip(&served) {
            agree &= shared.read_cell(cell)? == v;
        }
        while shared.recovery_tick()? {}
        for &cell in probes {
            agree &= shared.read_cell(cell)? == db.read_cell(cell)?;
        }
        if !agree {
            return Err(SimError::MethodViolation(
                "SharedDb::open_on_demand served or drained to a value \
                 the sequential on-demand restart did not",
            ));
        }
        Ok((stats, served))
    }
}

impl OnDemandRestart {
    /// Is this page still awaiting its lazy redo?
    #[must_use]
    pub fn is_gated(&self, page: PageId) -> bool {
        self.gates.contains_key(&page)
    }

    /// Pages still gated.
    #[must_use]
    pub fn gated_count(&self) -> usize {
        self.gates.len()
    }

    /// Ensures `page` is fully recovered, lazily replaying its downset
    /// (`RestartAnalysis::downset`) if it is still gated. A no-op for
    /// ungated pages.
    ///
    /// Gates open only after the whole downset replays: if this returns
    /// an error (a tripped fault, corruption), the page's gate is still
    /// closed and a fresh recovery of the repaired image owes exactly
    /// the same work.
    ///
    /// # Errors
    ///
    /// Substrate errors, including log corruption at a chain offset.
    pub fn ensure_recovered(&mut self, db: &mut Db<PageOpPayload>, page: PageId) -> SimResult<()> {
        if !self.gates.contains_key(&page) {
            return Ok(());
        }
        self.lazy.walk_downset(&db.log, page)?;
        let redo = |lsn, op: &PageOpView<'_>| redo_op(db, lsn, op);
        self.lazy.replay_downset(page, redo, || &mut self.gates)?;
        Ok(())
    }

    /// Serves one read mid-recovery: lazily recovers the cell's page
    /// (its downset), then reads through the buffer pool. The value
    /// returned is final — every surviving record writing the page has
    /// been replayed or proven installed by the time the read is
    /// served.
    ///
    /// # Errors
    ///
    /// Substrate errors, including log corruption.
    pub fn read_cell(&mut self, db: &mut Db<PageOpPayload>, cell: Cell) -> SimResult<u64> {
        self.ensure_recovered(db, cell.page)?;
        db.read_cell(cell)
    }

    /// One background sweeper step: the drain's next batch — scan,
    /// prefetch and redo, as the serial loop runs it — opening every
    /// gate whose last entry it passed. Returns `false`, having done
    /// nothing, once the whole owed suffix is redone and no gate
    /// remains — the termination condition that makes on-demand
    /// recovery a *bounded* restart rather than an indefinitely
    /// deferred one.
    ///
    /// # Errors
    ///
    /// Substrate errors, including log corruption.
    pub fn sweep_one(&mut self, db: &mut Db<PageOpPayload>) -> SimResult<bool> {
        let more = self.lazy.step(
            db,
            |db, scanner| scanner.next_batch(&db.log, SCAN_BATCH),
            |db, views| {
                let mut pages = Vec::new();
                for op in views.iter().filter_map(|(_, op)| op.as_ref()) {
                    redo::op_pages(op, &mut pages);
                }
                pages.sort_unstable();
                pages.dedup();
                let (spp, stable) = (db.geometry.slots_per_page, db.log.stable_lsn());
                db.pool.prefetch(&mut db.disk, &pages, spp, stable)
            },
            |db, lsn, op| redo_op(db, lsn, op),
        )?;
        self.lazy.open_passed(&mut self.gates);
        Ok(more)
    }

    /// Drains the rest and closes out the restart, returning the
    /// accumulated stats.
    ///
    /// # Errors
    ///
    /// Substrate errors, including log corruption.
    pub fn finish(mut self, db: &mut Db<PageOpPayload>) -> SimResult<RecoveryStats> {
        while self.sweep_one(db)? {}
        self.lazy.close(&db.log);
        Ok(self.lazy.stats)
    }
}

impl RecoveryMethod for OnDemand {
    type Payload = PageOpPayload;

    fn name(&self) -> &'static str {
        "ondemand"
    }

    fn execute(&self, db: &mut Db<PageOpPayload>, op: &PageOp) -> SimResult<Lsn> {
        Generalized.execute(db, op)
    }

    fn checkpoint(&self, db: &mut Db<PageOpPayload>) -> SimResult<()> {
        redo::checkpoint_fuzzy(db, 0).map(|_| ())
    }

    fn recover(&self, db: &mut Db<PageOpPayload>) -> SimResult<RecoveryStats> {
        // Open-then-drain: the lazy path run to completion, which with
        // no read in between is the serial loop over the same records.
        let restart = OnDemand::open(db)?;
        restart.finish(db)
    }

    fn ondemand_restart(
        &self,
        db: &mut Db<PageOpPayload>,
        probes: &[Cell],
    ) -> Option<SimResult<(RecoveryStats, Vec<u64>)>> {
        Some(OnDemand::restart_with_probes(db, probes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, assert_matches_model, model};
    use redo_sim::db::Geometry;
    use redo_sim::fault::{FaultKind, FaultPlan};
    use std::collections::BTreeSet;

    fn workload(n: usize, seed: u64) -> Vec<PageOp> {
        testkit::cross_page_workload(n, 6, seed)
    }

    fn crashed_db(ops: &[PageOp], seed: u64) -> Db<PageOpPayload> {
        testkit::crashed_db(&OnDemand, ops, seed, Some(9))
    }

    #[test]
    fn mid_recovery_reads_serve_final_values() {
        for seed in 0..12 {
            let ops = workload(36, seed);
            let mut db = crashed_db(&ops, seed ^ 0xbeef);
            let mut seq = db.clone();
            let seq_stats = Generalized.recover(&mut seq).unwrap();

            let mut restart = OnDemand::open(&mut db).unwrap();
            // Every cell read mid-recovery, in model order, must already
            // show its final recovered value.
            let expect = model(&ops);
            for (&cell, &v) in &expect {
                assert_eq!(
                    restart.read_cell(&mut db, cell).unwrap(),
                    v,
                    "cell {cell:?}"
                );
            }
            let stats = restart.finish(&mut db).unwrap();

            // Lazy and sequential recovery realize the same redo set
            // (a demand replays ahead of the drain, so compare sets),
            // and no operation gets two verdicts: the drain passes over
            // what a demand redid.
            let lazy: BTreeSet<u32> = stats.replayed.iter().copied().collect();
            let sequential: BTreeSet<u32> = seq_stats.replayed.iter().copied().collect();
            assert_eq!(lazy, sequential, "seed {seed}");
            let verdicts: BTreeSet<u32> = stats
                .replayed
                .iter()
                .chain(&stats.skipped)
                .copied()
                .collect();
            assert_eq!(verdicts.len(), stats.replayed.len() + stats.skipped.len());
            assert_eq!(db.volatile_theory_state(), seq.volatile_theory_state());
        }
    }

    #[test]
    fn open_places_gates_and_sweeper_drains_them() {
        let ops = workload(30, 9);
        let mut db = crashed_db(&ops, 0x5eed);
        let mut restart = OnDemand::open(&mut db).unwrap();
        assert!(restart.gated_count() > 0, "chaos left dirty pages");
        let mut steps = 0;
        while restart.sweep_one(&mut db).unwrap() {
            steps += 1;
        }
        assert!(steps >= 1);
        assert_eq!(restart.gated_count(), 0, "sweeper terminates");
        assert_matches_model(&mut db, &ops);
    }

    #[test]
    fn recover_equals_sequential_recovery() {
        // Open-then-drain is the serial loop over the owed suffix: the
        // same replayed sequence, not just the same set.
        for seed in 0..12 {
            let ops = workload(32, 40 + seed);
            let db = crashed_db(&ops, seed);
            let mut lazy = db.clone();
            let mut seq = db;
            let lazy_stats = OnDemand.recover(&mut lazy).unwrap();
            let seq_stats = Generalized.recover(&mut seq).unwrap();
            assert_eq!(lazy_stats.replayed, seq_stats.replayed, "seed {seed}");
            assert_eq!(lazy.volatile_theory_state(), seq.volatile_theory_state());
            assert_eq!(lazy_stats.checkpoint_lsn, seq_stats.checkpoint_lsn);
        }
    }

    #[test]
    fn a_read_replays_its_pages_downset_and_not_its_component() {
        // a <- blind @1; b <- f(a) @2; a <- g(a) @3; c <- h(b) @4;
        // b <- k(b) @5 — committed, nothing flushed. The cross-reads
        // join all three pages into one component of five records. b's
        // last entry is its writer @5, whose downset is @1, @2, @4 and
        // @5: @3, a's later writer, does not precede it, so a read of b
        // replays four records and a stays gated; c opens with b, since
        // its last entry @4 is in the downset and writes c.
        use redo_workload::pages::{PageOpKind, SlotId};
        let cell = |page| Cell {
            page: PageId(page),
            slot: SlotId(0),
        };
        let (a, b, c) = (cell(0), cell(1), cell(2));
        let op = |id, kind, reads: Vec<Cell>, write| PageOp {
            id,
            kind,
            reads,
            writes: vec![write],
            f_seed: u64::from(id) + 1,
        };
        let ops = [
            op(0, PageOpKind::Blind, vec![], a),
            op(1, PageOpKind::Generalized, vec![a], b),
            op(2, PageOpKind::Physiological, vec![a], a),
            op(3, PageOpKind::Generalized, vec![b], c),
            op(4, PageOpKind::Physiological, vec![b], b),
        ];
        let mut image: Db<PageOpPayload> = Db::new(Geometry::default());
        for op in &ops {
            OnDemand.execute(&mut image, op).unwrap();
        }
        image.log.flush_all();
        image.crash();
        let mut reference = image.clone();
        Generalized.recover(&mut reference).unwrap();

        let mut db = image.clone();
        let mut restart = OnDemand::open(&mut db).unwrap();
        assert_eq!(restart.gated_count(), 3);
        let served = restart.read_cell(&mut db, b).unwrap();
        assert_eq!(served, reference.read_cell(b).unwrap());
        assert_eq!(
            restart.lazy.stats.replayed,
            [0, 1, 3, 4],
            "b's downset, by LSN"
        );
        assert!(restart.is_gated(a.page), "a's later writer is not in it");
        assert!(!restart.is_gated(b.page) && !restart.is_gated(c.page));
        assert_eq!(
            restart.read_cell(&mut db, c).unwrap(),
            reference.read_cell(c).unwrap()
        );
        let stats = restart.finish(&mut db).unwrap();
        assert_eq!(stats.replayed, [0, 1, 3, 4, 2], "the drain adds only @3");
        assert_eq!(
            db.volatile_theory_state(),
            reference.volatile_theory_state()
        );

        // The concurrent face replays the same unit and leaves a gated.
        let shared = SharedDb::open_on_demand(image).unwrap();
        assert_eq!(shared.read_cell(b).unwrap(), served);
        assert_eq!(shared.gated_count(), 1);
        while shared.recovery_tick().unwrap() {}
        assert_eq!(shared.recovery_stats().unwrap().replayed, stats.replayed);
        for cell in [a, b, c] {
            assert_eq!(
                shared.read_cell(cell).unwrap(),
                reference.read_cell(cell).unwrap()
            );
        }
    }

    #[test]
    fn probe_hook_serves_values_identical_to_drained_state() {
        let ops = workload(28, 77);
        let db = crashed_db(&ops, 0x77);
        let probes: Vec<Cell> = model(&ops).keys().copied().collect();
        let mut lazy = db.clone();
        let (stats, served) = OnDemand
            .ondemand_restart(&mut lazy, &probes)
            .expect("ondemand implements the hook")
            .unwrap();
        assert_eq!(served.len(), probes.len());
        for (cell, v) in probes.iter().zip(&served) {
            assert_eq!(lazy.read_cell(*cell).unwrap(), *v, "{cell:?}");
        }
        assert!(stats.seek_hits > 0, "chains are positioned reads");
    }

    #[test]
    fn crash_during_lazy_replay_regates_the_page_and_rerun_converges() {
        // Satellite: a crash *during* a lazy per-page replay must leave
        // the interrupted page's gate closed — durably, the next open
        // gates it again, so no half-recovered page is ever servable —
        // and a from-scratch recovery of the re-crashed image must land
        // on the sequential full-redo state.
        //
        // Six independent blind writes, one per page, never flushed:
        // after the crash every page is stale and gated. Recovery runs
        // under a four-frame pool (the pool is volatile, so swapping it
        // in post-crash is the clean way to bound *recovery's* memory
        // without execute-time evictions pre-installing pages): draining
        // the gates in id order must evict a dirty frame on the fifth
        // replay — an eviction is a faultable page write, and the armed
        // fault tears it mid-recovery (injected faults are silent: the
        // machine is dead the moment the injector trips).
        use redo_sim::fault::InjectedFault;
        use redo_workload::pages::{PageOpKind, SlotId};
        let ops: Vec<PageOp> = (0..6)
            .map(|p| PageOp {
                id: p,
                kind: PageOpKind::Blind,
                reads: vec![],
                writes: vec![Cell {
                    page: PageId(p),
                    slot: SlotId(0),
                }],
                f_seed: u64::from(p) + 1,
            })
            .collect();
        let mut db: Db<PageOpPayload> = Db::new(Geometry::default());
        for op in &ops {
            OnDemand.execute(&mut db, op).unwrap();
        }
        db.log.flush_all();
        db.crash();
        let mut reference = db.clone();
        Generalized.recover(&mut reference).unwrap();

        let mut lazy = db;
        lazy.pool = redo_sim::cache::BufferPool::new(Some(4));
        let mut restart = OnDemand::open(&mut lazy).unwrap();
        assert_eq!(restart.gated_count(), 6, "every dirty page is gated");
        lazy.arm_faults(FaultPlan {
            at: 1,
            kind: FaultKind::TornWrite { sectors: 1 },
        });
        for p in (0..6).map(PageId) {
            restart.ensure_recovered(&mut lazy, p).unwrap();
            if lazy.fault_tripped() {
                break;
            }
        }
        assert!(
            lazy.fault_tripped(),
            "the fifth replay's eviction must hit the armed fault"
        );
        let torn = match lazy.fault_injector().injected() {
            Some(InjectedFault::TornWrite(id)) => id,
            other => panic!("expected a torn eviction, got {other:?}"),
        };
        // The restart object dies with the machine; everything volatile
        // — including every gate it had opened — is gone.
        drop(restart);
        lazy.crash();
        // Reopening repairs the torn page back to its pre-image and
        // must gate it again: its lazy replay never durably completed.
        let reopened = OnDemand::open(&mut lazy).unwrap();
        assert!(
            reopened.is_gated(torn),
            "the interrupted page must be gated again on reopen"
        );
        let stats = reopened.finish(&mut lazy).unwrap();
        assert!(stats.replayed.contains(&torn.0), "its redo work is re-done");
        assert_eq!(
            lazy.volatile_theory_state(),
            reference.volatile_theory_state(),
            "re-run recovery converges to the sequential full-redo state"
        );
        assert_matches_model(&mut lazy, &ops);
    }

    #[test]
    fn media_lost_page_is_gated_and_served_from_its_rebuild_image() {
        for seed in 0..3 {
            let ops = workload(32, 60 + seed);
            let db = crashed_db(&ops, seed ^ 0xcafe);
            let mut undamaged = db.clone();
            Generalized.recover(&mut undamaged).unwrap();
            let victim = db
                .disk
                .pages()
                .first()
                .map(|&(id, _)| id)
                .expect("chaos installed pages");
            let mut damaged = db.clone();
            damaged.disk.destroy_page(victim);
            damaged.crash();
            let mut restart = OnDemand::open(&mut damaged).unwrap();
            assert!(!damaged.disk.is_lost(victim));
            assert!(
                restart.is_gated(victim),
                "a media-lost page must be gated at open"
            );
            // Serve the lost page mid-recovery: the open installed the
            // rebuild image, and the read answers with the final value.
            let expect = model(&ops);
            for (&cell, &v) in expect.iter().filter(|(c, _)| c.page == victim) {
                assert_eq!(
                    restart.read_cell(&mut damaged, cell).unwrap(),
                    v,
                    "cell {cell:?}"
                );
            }
            assert!(!damaged.disk.is_lost(victim), "the page stays rebuilt");
            restart.finish(&mut damaged).unwrap();
            assert_eq!(
                damaged.volatile_theory_state(),
                undamaged.volatile_theory_state(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn ungated_read_does_no_replay() {
        // A freshly checkpointed, fully flushed database gates nothing:
        // the first read after a crash is served with zero redo work.
        let ops = workload(20, 5);
        let mut db = Db::new(Geometry::default());
        for op in &ops {
            OnDemand.execute(&mut db, op).unwrap();
        }
        db.log.flush_all();
        db.pool
            .flush_all(&mut db.disk, db.log.stable_lsn())
            .unwrap();
        OnDemand.checkpoint(&mut db).unwrap();
        db.crash();
        let mut restart = OnDemand::open(&mut db).unwrap();
        assert_eq!(restart.gated_count(), 0);
        for (c, v) in model(&ops) {
            assert_eq!(restart.read_cell(&mut db, c).unwrap(), v);
        }
        let stats = restart.finish(&mut db).unwrap();
        assert_eq!(stats.scanned, 0, "nothing to replay");
        assert!(stats.replayed.is_empty());
    }
}
