//! On-demand ("instant") restart: serve reads *during* recovery via
//! per-page redo.
//!
//! The offline methods hold the database closed until the full redo
//! scan finishes — restart latency is proportional to the retained log,
//! even when the first post-crash read touches a page no surviving
//! record writes. Instant-restart systems (Sauer & Härder) invert the
//! dependency: open immediately, and let the first access to each page
//! pay for exactly that page's replay.
//!
//! Lazy restart is one executor with two stores under it (DESIGN §14,
//! §20): this module is its face over a sequential [`Db`],
//! [`crate::concurrent::SharedDb::open_on_demand`] the one over the
//! sharded store, and every decision is shared. Analysis is
//! `redo::begin`; a page is *gated* (`RestartAnalysis::gates`)
//! when its stable chain holds a record at or above the redo-start that
//! the dirty-page table cannot prove installed, and everything else is
//! servable the moment the database opens. A gated page cannot replay
//! alone — generalized operations read pages they do not write, and a
//! multi-page write set installs atomically — so the unit of replay is
//! `RestartAnalysis::component`,
//! the page's connected component of the residual conflict graph,
//! chased through the log's writer *and* cross-reader chains at the
//! moment of the touch. Its records replay in global LSN order under
//! `redo_op`, the redo step of the sequential scan; per Theorem 3 the
//! order *between* components is free, so serving them in any access
//! order lands on the sequential result. Gates open only after the
//! whole component replays — an error (or crash) mid-component leaves
//! every gate closed, and the next recovery starts from the repaired
//! image as if this one had never run.
//!
//! Media-lost pages ([`redo_sim::SimError::MediaLoss`]) ride the same
//! machinery: every page of the [`media::rebuild_images`] plan is gated
//! unconditionally, and the first component that holds one installs
//! the whole plan ([`media::install_images`], one atomic write) before
//! it replays.
//!
//! Recovery terminates even without reads: a sweeper drains the
//! remaining gates ([`OnDemandRestart::sweep_one`]), and
//! [`OnDemand::recover`] is exactly open-then-drain, which is how the
//! crash auditor proves the lazy path equivalent to the sequential
//! scan.

use std::collections::{BTreeMap, BTreeSet};

use redo_sim::db::Db;
use redo_sim::page::Page;
use redo_sim::{SimError, SimResult};
use redo_theory::log::Lsn;
use redo_workload::pages::{Cell, PageId, PageOp};

use crate::concurrent::SharedDb;
use crate::generalized::{redo_op, Generalized};
use crate::media;
use crate::oprecord::PageOpPayload;
use crate::redo::{self, RestartAnalysis};
use crate::{RecoveryMethod, RecoveryStats};

/// Generalized-LSN recovery through the on-demand (instant restart)
/// path: online fuzzy checkpoints during normal operation, per-page
/// lazy redo after a crash.
#[derive(Clone, Copy, Debug, Default)]
pub struct OnDemand;

/// An open-for-business database that is still recovering: the set of
/// pages whose redo is deferred, and the stats accumulated so far.
///
/// Obtained from [`OnDemand::open`]; drained by reads
/// ([`OnDemandRestart::read_cell`]) and the background sweeper
/// ([`OnDemandRestart::sweep_one`]); closed out by
/// [`OnDemandRestart::finish`].
#[derive(Clone, Debug)]
pub struct OnDemandRestart {
    analysis: RestartAnalysis,
    gates: BTreeSet<PageId>,
    stats: RecoveryStats,
    /// The media-rebuild plan ([`media::rebuild_images`]): final images
    /// for the pages lost to media failure and their transitive
    /// closure. Empty when nothing is lost.
    media_images: BTreeMap<PageId, Page>,
}

impl OnDemand {
    /// Opens a crashed database immediately: repair, analysis and gate
    /// placement — no replay, no scan, and no record decoded (a media
    /// rebuild plan, when pages are lost, is the one exception: it
    /// reads `archive ∥ live` in place and replays the records the lost
    /// pages' final images depend on). Every page whose chain holds a
    /// record the analysis cannot prove installed is gated, and so is
    /// every page of the rebuild plan; reads on ungated pages are
    /// servable at once.
    ///
    /// # Errors
    ///
    /// Log corruption at the master record (or, with pages lost, in the
    /// archived history).
    pub fn open(db: &mut Db<PageOpPayload>) -> SimResult<OnDemandRestart> {
        let (analysis, stats) = redo::begin(db)?;
        let mut gates: BTreeSet<PageId> = analysis.gates(&db.log).into_iter().collect();
        let media_images = media::rebuild_images(db)?;
        gates.extend(media_images.keys().copied());
        Ok(OnDemandRestart {
            analysis,
            gates,
            stats,
            media_images,
        })
    }

    /// [`OnDemand::open`], then serve each probe cell mid-recovery,
    /// then drain the remaining gates. Returns the final stats plus the
    /// value each probe observed *while recovery was still in
    /// progress* — the crash auditor cross-validates those against the
    /// sequential probe's final state. Unless a page is media-lost (the
    /// shared store has no rebuild path) the same image then goes
    /// through the concurrent face, [`SharedDb::open_on_demand`]: the
    /// same probes, a [`SharedDb::recovery_tick`] drain, every probe
    /// once more — each value must equal this face's.
    ///
    /// # Errors
    ///
    /// Substrate errors, including log corruption;
    /// [`SimError::MethodViolation`] if the two faces disagree.
    pub fn restart_with_probes(
        db: &mut Db<PageOpPayload>,
        probes: &[Cell],
    ) -> SimResult<(RecoveryStats, Vec<u64>)> {
        let image = db.disk.lost_pages().is_empty().then(|| db.clone());
        let mut restart = Self::open(db)?;
        let mut served = Vec::with_capacity(probes.len());
        for &cell in probes {
            served.push(restart.read_cell(db, cell)?);
        }
        let stats = restart.finish(db)?;
        if let Some(image) = image {
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
        }
        Ok((stats, served))
    }
}

impl OnDemandRestart {
    /// Is this page still awaiting its lazy redo?
    #[must_use]
    pub fn is_gated(&self, page: PageId) -> bool {
        self.gates.contains(&page)
    }

    /// Pages still gated.
    #[must_use]
    pub fn gated_count(&self) -> usize {
        self.gates.len()
    }

    /// Ensures `page` is fully recovered, lazily replaying its
    /// connected component of gated pages if it is still gated. A no-op
    /// for ungated pages.
    ///
    /// Gates open only after the whole component replays: if this
    /// returns an error (a tripped fault, corruption), every gate is
    /// still closed and a fresh recovery of the repaired image owes
    /// exactly the same work.
    ///
    /// # Errors
    ///
    /// Substrate errors, including log corruption at a chain offset;
    /// [`SimError::MediaLoss`] if a member is still lost after the
    /// rebuild install (a fault suppressed it).
    pub fn ensure_recovered(&mut self, db: &mut Db<PageOpPayload>, page: PageId) -> SimResult<()> {
        if !self.gates.contains(&page) {
            return Ok(());
        }
        let (component, records) =
            self.analysis
                .component(&db.log, page, |p| self.gates.contains(&p), &mut self.stats)?;
        // Media rebuild: the whole plan lands before any redo test
        // fetches one of its pages (idempotently skipped once the disk
        // carries the images). A suppressed install leaves the pages
        // lost; refuse to open the gates over them, exactly as a
        // mid-replay error would.
        if component.iter().any(|p| self.media_images.contains_key(p)) {
            media::install_images(db, &self.media_images);
        }
        if let Some(&lost) = component.iter().find(|&&p| db.disk.is_lost(p)) {
            return Err(SimError::MediaLoss(lost));
        }
        for (lsn, op) in records {
            self.stats.scanned += 1;
            if redo_op(db, lsn, &op)? {
                self.stats.replayed.push(op.id);
            } else {
                self.stats.skipped.push(op.id);
            }
        }
        // Only now open the gates. Everything above is redo work a
        // crash may discard wholesale; opening early would let a read
        // observe a half-replayed page.
        for p in &component {
            self.gates.remove(p);
        }
        Ok(())
    }

    /// Serves one read mid-recovery: lazily recovers the cell's page
    /// (and its component), then reads through the buffer pool. The
    /// value returned is final — every surviving record writing the
    /// page has been replayed or proven installed by the time the read
    /// is served.
    ///
    /// # Errors
    ///
    /// Substrate errors, including log corruption.
    pub fn read_cell(&mut self, db: &mut Db<PageOpPayload>, cell: Cell) -> SimResult<u64> {
        self.ensure_recovered(db, cell.page)?;
        db.read_cell(cell)
    }

    /// One background sweeper step: recovers the lowest-numbered gated
    /// page's component. Returns `false` when no gates remain — the
    /// termination condition that makes on-demand recovery a *bounded*
    /// restart rather than an indefinitely deferred one.
    ///
    /// # Errors
    ///
    /// Substrate errors, including log corruption.
    pub fn sweep_one(&mut self, db: &mut Db<PageOpPayload>) -> SimResult<bool> {
        let Some(&page) = self.gates.iter().next() else {
            return Ok(false);
        };
        self.ensure_recovered(db, page)?;
        Ok(true)
    }

    /// Drains every remaining gate and closes out the restart,
    /// returning the accumulated stats.
    ///
    /// # Errors
    ///
    /// Substrate errors, including log corruption.
    pub fn finish(mut self, db: &mut Db<PageOpPayload>) -> SimResult<RecoveryStats> {
        while self.sweep_one(db)? {}
        self.stats.forces = db.log.forces();
        Ok(self.stats)
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
        // Open-then-drain: the lazy path run to completion. The redo
        // set it realizes equals the sequential scan's (component order
        // is free by Theorem 3), which the crash auditor checks.
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

    fn workload(n: usize, seed: u64) -> Vec<PageOp> {
        testkit::cross_page_workload(n, 6, seed)
    }

    fn crashed_db(ops: &[PageOp], seed: u64) -> Db<PageOpPayload> {
        testkit::crashed_db(&OnDemand, ops, seed, Some(9))
    }

    #[test]
    fn mid_recovery_reads_serve_final_values() {
        for seed in 0..4 {
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
            // (replay order across components is free, so compare sets).
            let lazy: BTreeSet<u32> = stats.replayed.iter().copied().collect();
            let sequential: BTreeSet<u32> = seq_stats.replayed.iter().copied().collect();
            assert_eq!(lazy, sequential, "seed {seed}");
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
        for seed in 0..4 {
            let ops = workload(32, 40 + seed);
            let db = crashed_db(&ops, seed);
            let mut lazy = db.clone();
            let mut seq = db;
            let lazy_stats = OnDemand.recover(&mut lazy).unwrap();
            let seq_stats = Generalized.recover(&mut seq).unwrap();
            let l: BTreeSet<u32> = lazy_stats.replayed.iter().copied().collect();
            let s: BTreeSet<u32> = seq_stats.replayed.iter().copied().collect();
            assert_eq!(l, s);
            assert_eq!(lazy.volatile_theory_state(), seq.volatile_theory_state());
            assert_eq!(lazy_stats.checkpoint_lsn, seq_stats.checkpoint_lsn);
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
            assert!(
                restart.is_gated(victim),
                "a media-lost page must be gated at open"
            );
            // Serve the lost page mid-recovery: the read installs the
            // rebuild image and answers with the final value.
            let expect = model(&ops);
            for (&cell, &v) in expect.iter().filter(|(c, _)| c.page == victim) {
                assert_eq!(
                    restart.read_cell(&mut damaged, cell).unwrap(),
                    v,
                    "cell {cell:?}"
                );
            }
            assert!(!damaged.disk.is_lost(victim), "serving rebuilds the page");
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
