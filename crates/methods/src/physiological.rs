//! Physiological recovery (§6.3).
//!
//! "A physiological operation reads and writes exactly one page. It
//! identifies the page by a 'physical' page identifier, but performs a
//! 'logical' operation on that page. [...] Each page of the system state
//! is tagged with the LSN of the last operation that updated it."
//!
//! The redo test compares the page's LSN with the record's: `page LSN ≥
//! record LSN` means the operation's effects are already on the page
//! (installed), so it is bypassed. Flushing a page to disk therefore
//! *atomically* installs every operation accumulated on it and removes
//! them from the future redo set — the write-graph collapse of a minimal
//! node into the stable-state node, with the page LSN carrying the redo
//! information. Since operations touch a single page, all uninstalled
//! write-graph nodes are minimal and the cache may flush pages in any
//! order.

use redo_sim::db::Db;
use redo_sim::page::PageMut;
use redo_sim::wal::codec::PageOpView;
use redo_sim::wal::RecordBody;
use redo_sim::{SimError, SimResult};
use redo_theory::log::Lsn;
use redo_workload::pages::{OpCells, PageId, PageOp};

use crate::oprecord::PageOpPayload;
use crate::redo::{self, PageLocal};
use crate::{RecoveryMethod, RecoveryStats};

/// The physiological recovery method.
#[derive(Clone, Copy, Debug, Default)]
pub struct Physiological;

/// Validates the §6.3 shape — reads and writes confined to one page —
/// and names the page.
fn single_page(op: &impl OpCells) -> SimResult<PageId> {
    let page = op.writes().next().map(|w| w.page);
    let Some(page) = page.filter(|&p| op.writes().all(|w| w.page == p)) else {
        return Err(SimError::MethodViolation(
            "physiological operations write exactly one page",
        ));
    };
    if op.reads().any(|r| r.page != page) {
        return Err(SimError::MethodViolation(
            "physiological operations read only the page they write",
        ));
    }
    Ok(page)
}

/// The §6.3 redo step: if `page` is older than `bar` — its LSN says it
/// misses the update — apply the single-page `op` and tag the page
/// `lsn`. Reads see the page with every earlier operation already on it
/// (replayed or installed), so the operation is applicable. The real
/// method's `bar` is `lsn` itself.
pub(crate) fn redo_if_older_than(
    page: &mut PageMut<'_>,
    bar: Lsn,
    lsn: Lsn,
    op: &impl OpCells,
) -> bool {
    if page.lsn() >= bar {
        return false;
    }
    let read_values: Vec<u64> = op.reads().map(|c| page.get(c.slot)).collect();
    for cell in op.writes() {
        page.set(cell.slot, op.output(cell, &read_values));
    }
    page.set_lsn(lsn);
    true
}

impl PageLocal for PageOpPayload {
    /// The operation, read in place: its one page is its one part.
    type Part<'a> = PageOpView<'a>;

    fn parts(
        body: RecordBody<'_>,
        slots_per_page: u16,
    ) -> SimResult<(u32, impl Iterator<Item = (PageId, PageOpView<'_>)>)> {
        let op = body.parse(PageOpPayload::op_view)?;
        let op = op.ok_or(redo::NOT_AN_OPERATION)?;
        let page = single_page(&op)?;
        for cell in op.reads().chain(op.writes()) {
            redo::check_slot(cell.slot, slots_per_page)?;
        }
        Ok((op.id, std::iter::once((page, op))))
    }

    fn redo(page: &mut PageMut<'_>, lsn: Lsn, op: &PageOpView<'_>) -> bool {
        redo_if_older_than(page, lsn, lsn, op)
    }
}

impl RecoveryMethod for Physiological {
    type Payload = PageOpPayload;

    fn name(&self) -> &'static str {
        "physiological"
    }

    fn execute(&self, db: &mut Db<PageOpPayload>, op: &PageOp) -> SimResult<Lsn> {
        single_page(op)?;
        let lsn = db.log.append(PageOpPayload::Op(op.clone()))?;
        db.apply_page_op(op, lsn)?;
        Ok(lsn)
    }

    fn checkpoint(&self, db: &mut Db<PageOpPayload>) -> SimResult<()> {
        // A heavyweight (flush-everything) checkpoint: afterwards every
        // logged operation is installed, so recovery may start at the
        // checkpoint record.
        redo::checkpoint_heavyweight(db)
    }

    fn recover(&self, db: &mut Db<PageOpPayload>) -> SimResult<RecoveryStats> {
        redo::recover_local(db, PageOpPayload::redo)
    }

    fn parallel_restart(
        &self,
        db: &mut Db<PageOpPayload>,
        threads: usize,
    ) -> Option<SimResult<RecoveryStats>> {
        Some(crate::parallel::recover_partitioned(db, threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_matches_model, single_page_workload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use redo_sim::db::Geometry;
    use redo_workload::pages::{Cell, PageId, PageOpKind, SlotId};

    fn workload(n: usize, seed: u64) -> Vec<PageOp> {
        single_page_workload(n, 4, seed)
    }

    #[test]
    fn rejects_cross_page_reads() {
        let op = PageOp {
            id: 0,
            kind: PageOpKind::Generalized,
            reads: vec![Cell {
                page: PageId(1),
                slot: SlotId(0),
            }],
            writes: vec![Cell {
                page: PageId(0),
                slot: SlotId(0),
            }],
            f_seed: 1,
        };
        let mut db = Db::new(Geometry::default());
        assert!(matches!(
            Physiological.execute(&mut db, &op),
            Err(SimError::MethodViolation(_))
        ));
    }

    #[test]
    fn page_lsn_test_skips_flushed_pages() {
        let mut db = Db::new(Geometry::default());
        let ops = workload(12, 1);
        for op in &ops {
            Physiological.execute(&mut db, op).unwrap();
        }
        db.flush_everything().unwrap(); // all installed
        db.crash();
        let stats = Physiological.recover(&mut db).unwrap();
        assert_eq!(
            stats.replay_count(),
            0,
            "everything installed, nothing replays"
        );
        assert_eq!(stats.skipped.len(), 12);
        assert_matches_model(&mut db, &ops);
    }

    #[test]
    fn partial_flush_replays_only_missing_updates() {
        let mut db = Db::new(Geometry::default());
        let ops = workload(20, 2);
        let mut rng = StdRng::seed_from_u64(9);
        for op in &ops {
            Physiological.execute(&mut db, op).unwrap();
            db.chaos_flush(&mut rng, 0.7, 0.4).unwrap();
        }
        db.log.flush_all();
        db.crash();
        let stats = Physiological.recover(&mut db).unwrap();
        assert_eq!(stats.replay_count() + stats.skipped.len(), 20);
        assert_matches_model(&mut db, &ops);
    }

    #[test]
    fn unflushed_log_tail_is_lost() {
        let mut db = Db::new(Geometry::default());
        let ops = workload(10, 3);
        for op in &ops[..6] {
            Physiological.execute(&mut db, op).unwrap();
        }
        db.log.flush_all();
        for op in &ops[6..] {
            Physiological.execute(&mut db, op).unwrap();
        }
        db.crash();
        Physiological.recover(&mut db).unwrap();
        assert_matches_model(&mut db, &ops[..6]);
    }

    #[test]
    fn checkpoint_bounds_the_scan() {
        let mut db = Db::new(Geometry::default());
        let ops = workload(16, 4);
        for op in &ops[..10] {
            Physiological.execute(&mut db, op).unwrap();
        }
        Physiological.checkpoint(&mut db).unwrap();
        for op in &ops[10..] {
            Physiological.execute(&mut db, op).unwrap();
        }
        db.log.flush_all();
        db.crash();
        let stats = Physiological.recover(&mut db).unwrap();
        assert_eq!(stats.scanned, 6);
        assert_matches_model(&mut db, &ops);
    }

    #[test]
    fn repeated_crashes_converge() {
        let mut db = Db::new(Geometry::default());
        let ops = workload(15, 5);
        for op in &ops {
            Physiological.execute(&mut db, op).unwrap();
        }
        db.log.flush_all();
        for _ in 0..3 {
            db.crash();
            Physiological.recover(&mut db).unwrap();
            assert_matches_model(&mut db, &ops);
        }
    }
}
