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
//! The access path is the stable log's **per-page record chain**
//! ([`redo_sim::wal::ShardedLog::page_chain`]): flush time already
//! indexes, for every page, the (LSN, byte offset) of each stable
//! record that writes it, and crash repair prunes the chains with the
//! tail. Analysis is [`Generalized::analyze_dpt`] unchanged — master
//! record, redo-start LSN, fuzzy dirty-page table. A page is **gated**
//! when its chain holds a record at or above the redo-start that the
//! DPT cannot prove installed; everything else is servable the moment
//! the database opens.
//!
//! Serving a read on a gated page replays the page's chain — but not
//! alone. Generalized operations read pages they do not write, and a
//! multi-page write set installs atomically, so the unit of lazy
//! replay is the **transitive closure** of gated pages connected
//! through shared records (a connected component of the residual
//! conflict graph restricted to gated pages). The component's chains
//! merge in global LSN order and replay under the same whole-write-set
//! redo test, write-order constraints, and cycle pre-resolution as
//! [`Generalized::recover`]; per Theorem 3 the order *between*
//! components is free, so serving them on demand in any access order
//! lands on the sequential result. Gates open only after the whole
//! component replays — an error (or crash) mid-component leaves every
//! gate closed, and the next recovery starts from the repaired image
//! as if this one had never run.
//!
//! Media-lost pages ([`redo_sim::SimError::MediaLoss`]) ride the same
//! machinery: a lost page is gated unconditionally — its residual
//! chain is its *entire* history, starting at LSN 1 in the archive —
//! and serving its component first installs the precomputed
//! [`media::rebuild_images`] image, then replays normally.
//!
//! Recovery terminates even without reads: a sweeper drains the
//! remaining gates ([`OnDemandRestart::sweep_one`]), and
//! [`OnDemand::recover`] is exactly open-then-drain, which is how the
//! crash auditor proves the lazy path equivalent to the sequential
//! scan. The concurrent face of this module is
//! [`crate::concurrent::SharedDb::open_on_demand`].

use std::collections::{BTreeMap, BTreeSet};

use redo_sim::db::Db;
use redo_sim::SimResult;
use redo_theory::log::Lsn;
use redo_workload::pages::{Cell, PageId, PageOp};

use redo_sim::page::Page;
use redo_sim::SimError;

use crate::generalized::{redo_op, Generalized};
use crate::media;
use crate::online::GeneralizedOnline;
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
    gates_at_open: usize,
    /// The residual records, decoded through the gated chains at open,
    /// keyed by LSN.
    records: BTreeMap<Lsn, PageOp>,
    /// Gated page → index into `members`/`record_sets`. Components are
    /// fixed at open — computed over the full residual conflict graph,
    /// reads included — so the replay unit cannot shrink as earlier
    /// gates open.
    component_of: BTreeMap<PageId, usize>,
    /// Component → its gated pages.
    members: Vec<BTreeSet<PageId>>,
    /// Component → its record LSNs, ascending.
    record_sets: Vec<Vec<Lsn>>,
    /// Media-rebuild images ([`media::rebuild_images`]) for pages lost
    /// to media failure, plus their transitive closure. A media-lost
    /// page is a gated page whose residual chain is its *entire*
    /// history, starting at LSN 1 in the archive — realized as one
    /// precomputed image installed when its component is served.
    media_images: BTreeMap<PageId, Page>,
}

impl OnDemand {
    /// Opens a crashed database immediately: repair, analysis, gate
    /// placement, and component discovery — no replay, and no
    /// sequential scan of the installed prefix (the residual records
    /// are decoded through the per-page chains alone). Every page whose
    /// chain holds a record the analysis cannot prove installed is
    /// gated; reads on ungated pages are servable at once.
    ///
    /// Components must close over *read* edges as well as write edges:
    /// an operation that reads page `q` and writes page `p` must replay
    /// before a later record writes `q`, or it would observe the future
    /// value (sequential replay, which the write-order constraints
    /// protect, observes the pre-write one). Chains only index writers,
    /// so readers of `q` are discovered from the records on *other*
    /// gated chains — which is why the component structure is computed
    /// here, over every residual record, rather than per access.
    ///
    /// # Errors
    ///
    /// Log corruption at the master record or at a chain offset.
    pub fn open(db: &mut Db<PageOpPayload>) -> SimResult<OnDemandRestart> {
        let (analysis, mut stats) = redo::begin(db)?;
        let mut gates: BTreeSet<PageId> = analysis.gates(&db.log).into_iter().collect();
        // Media-lost pages are gated unconditionally — a lost page is
        // the extreme of "needs redo": its residual chain is its whole
        // archived history, collapsed into the rebuild image. The
        // closure pages come along so replayed cross-page reads never
        // observe a rebuilt (final) image at the wrong moment.
        let media_images = media::rebuild_images(db)?;
        for &page in media_images.keys() {
            gates.insert(page);
        }
        // Decode the residual records chain-directed: every gated
        // page's uninstalled chain entries, each record once.
        let mut records: BTreeMap<Lsn, PageOp> = BTreeMap::new();
        for &page in &gates {
            for (lsn, off) in analysis.owed_chain(&db.log, page) {
                if records.contains_key(&lsn) {
                    continue;
                }
                let rec = db.log.record_for(page, off)?;
                debug_assert_eq!(rec.lsn, lsn, "chain entry points at a foreign frame");
                stats.records_decoded += 1;
                stats.seek_hits += 1;
                if let PageOpPayload::Op(op) = rec.payload {
                    records.insert(lsn, op);
                }
            }
        }
        // Connected components of the residual conflict graph,
        // restricted to gated pages: a record links every gated page it
        // reads or writes.
        let mut touch: BTreeMap<PageId, Vec<Lsn>> = BTreeMap::new();
        for (&lsn, op) in &records {
            for p in op.read_pages().into_iter().chain(op.written_pages()) {
                if gates.contains(&p) {
                    touch.entry(p).or_default().push(lsn);
                }
            }
        }
        let mut component_of: BTreeMap<PageId, usize> = BTreeMap::new();
        let mut members: Vec<BTreeSet<PageId>> = Vec::new();
        let mut record_sets: Vec<Vec<Lsn>> = Vec::new();
        for &start in &gates {
            if component_of.contains_key(&start) {
                continue;
            }
            let id = members.len();
            let mut component: BTreeSet<PageId> = BTreeSet::new();
            let mut lsns: BTreeSet<Lsn> = BTreeSet::new();
            let mut frontier = vec![start];
            while let Some(p) = frontier.pop() {
                if !component.insert(p) {
                    continue;
                }
                component_of.insert(p, id);
                for &lsn in touch.get(&p).into_iter().flatten() {
                    if !lsns.insert(lsn) {
                        continue;
                    }
                    let op = &records[&lsn];
                    for q in op.read_pages().into_iter().chain(op.written_pages()) {
                        if gates.contains(&q) && !component.contains(&q) {
                            frontier.push(q);
                        }
                    }
                }
            }
            members.push(component);
            record_sets.push(lsns.into_iter().collect());
        }
        let gates_at_open = gates.len();
        Ok(OnDemandRestart {
            analysis,
            gates,
            stats,
            gates_at_open,
            records,
            component_of,
            members,
            record_sets,
            media_images,
        })
    }

    /// [`OnDemand::open`], then serve each probe cell mid-recovery,
    /// then drain the remaining gates. Returns the final stats plus the
    /// value each probe observed *while recovery was still in
    /// progress* — the crash auditor cross-validates those against the
    /// sequential probe's final state.
    ///
    /// # Errors
    ///
    /// Substrate errors, including log corruption.
    pub fn restart_with_probes(
        db: &mut Db<PageOpPayload>,
        probes: &[Cell],
    ) -> SimResult<(RecoveryStats, Vec<u64>)> {
        let mut restart = Self::open(db)?;
        let mut served = Vec::with_capacity(probes.len());
        for &cell in probes {
            served.push(restart.read_cell(db, cell)?);
        }
        let stats = restart.finish(db)?;
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

    /// Pages that were gated when the database opened.
    #[must_use]
    pub fn gates_at_open(&self) -> usize {
        self.gates_at_open
    }

    /// The analysis the gates were placed from.
    #[must_use]
    pub fn analysis(&self) -> &RestartAnalysis {
        &self.analysis
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
    /// Substrate errors, including log corruption at a chain offset.
    pub fn ensure_recovered(&mut self, db: &mut Db<PageOpPayload>, page: PageId) -> SimResult<()> {
        if !self.gates.contains(&page) {
            return Ok(());
        }
        // Phase 1: look up the page's component — fixed at open over
        // the full residual conflict graph (readers included), so the
        // replay unit is the same whichever access order the workload
        // drives. Per Theorem 3 the order *between* these components is
        // free; order within replays below in global LSN order.
        let id = self.component_of[&page];
        let component = self.members[id].clone();
        let records: Vec<(Lsn, PageOp)> = self.record_sets[id]
            .iter()
            .map(|lsn| (*lsn, self.records[lsn].clone()))
            .collect();
        // Phase 1.5: media rebuild. Install the archive-derived images
        // for the component's lost (and closure) pages before any redo
        // test fetches them — each install is an ordinary faultable
        // page write, idempotently skipped once the disk carries the
        // image. A suppressed or torn install leaves the page lost;
        // refuse to open the gates over it, exactly as a mid-replay
        // error would.
        for &p in &component {
            if let Some(image) = self.media_images.get(&p) {
                if db.disk.is_lost(p) || db.disk.page_lsn(p) < image.lsn() {
                    db.disk.write_page(p, image.clone());
                }
            }
        }
        for &p in &component {
            if db.disk.is_lost(p) {
                return Err(SimError::MediaLoss(p));
            }
        }
        // Phase 2: replay the merged chains in global LSN order under
        // the same redo test, constraints, and cycle pre-resolution as
        // the sequential scan.
        for (lsn, op) in records {
            self.stats.scanned += 1;
            if redo_op(db, lsn, &op)? {
                self.stats.replayed.push(op.id);
            } else {
                self.stats.skipped.push(op.id);
            }
        }
        // Phase 3: only now open the gates. Everything above is redo
        // work a crash may discard wholesale; opening early would let a
        // read observe a half-replayed page.
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
        GeneralizedOnline::checkpoint_online(db).map(|_| ())
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
        assert!(restart.gates_at_open() > 0, "chaos left dirty pages");
        assert_eq!(restart.gated_count(), restart.gates_at_open());
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
        assert_eq!(restart.gates_at_open(), 0);
        for (c, v) in model(&ops) {
            assert_eq!(restart.read_cell(&mut db, c).unwrap(), v);
        }
        let stats = restart.finish(&mut db).unwrap();
        assert_eq!(stats.scanned, 0, "nothing to replay");
        assert!(stats.replayed.is_empty());
    }
}
