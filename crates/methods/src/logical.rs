//! Logical recovery (§6.1), System R style.
//!
//! "In System R, system stable state on disk is unchanged between
//! checkpoints. Pages updated since the last checkpoint are maintained
//! partially in a main memory cache and partially in a disk staging
//! area. [...] Writing this checkpoint record 'swings a pointer' that
//! atomically installs into stable state all operations logged since the
//! previous checkpoint."
//!
//! Concretely:
//!
//! * between checkpoints, **no page flushes** touch the installed state
//!   (the harness honours [`RecoveryMethod::allows_page_chaos`] = false);
//! * [`Logical::checkpoint`] quiesces: forces the log, writes every
//!   dirty cache page to the staging area, logs a checkpoint record,
//!   forces it, and then performs the pointer swing
//!   ([`Disk::swing_pointer`](redo_sim::disk::Disk::swing_pointer): the
//!   staged pages and the master update install as one atomic step, as
//!   the real pointer write does);
//! * recovery starts from the installed state (exactly the last
//!   checkpoint's) and replays **every** logged operation after the
//!   checkpoint record — the redo test is constant *true*, which is what
//!   makes fully *logical* operations (reading and writing anything)
//!   recoverable: the starting state is always the complete state the
//!   operations originally ran against.
//!
//! In write-graph terms the staging area is the second node of a
//! two-node write graph (stable state being the first); the pointer
//! swing collapses the two nodes while simultaneously moving the logged
//! operations out of `redo_set` — one atomic change preserving the
//! recovery invariant.

use redo_sim::db::Db;
use redo_sim::SimResult;
use redo_theory::log::Lsn;
use redo_workload::pages::PageOp;

use crate::oprecord::PageOpPayload;
use crate::{redo, RecoveryMethod, RecoveryStats};

/// The logical (System R-style) recovery method.
#[derive(Clone, Copy, Debug, Default)]
pub struct Logical;

impl RecoveryMethod for Logical {
    type Payload = PageOpPayload;

    fn name(&self) -> &'static str {
        "logical"
    }

    fn allows_page_chaos(&self) -> bool {
        false
    }

    fn execute(&self, db: &mut Db<PageOpPayload>, op: &PageOp) -> SimResult<Lsn> {
        // No shape restriction: logical operations may read and write
        // arbitrarily many pages.
        let lsn = db.log.append(PageOpPayload::Op(op.clone()))?;
        db.apply_page_op(op, lsn)?;
        Ok(lsn)
    }

    fn checkpoint(&self, db: &mut Db<PageOpPayload>) -> SimResult<()> {
        // Quiesce: write dirty pages (possibly none) to the staging area.
        db.log.flush_all();
        let dirty = db.pool.dirty_frames();
        for (id, page) in &dirty {
            db.disk.write_staging(*id, page.clone());
        }
        let ck = redo::append_heavyweight(&mut db.log)?;
        db.log.flush_all();
        // The pointer swing: staged pages and the new master install in
        // ONE atomic (and singly faultable) act — a crash point between
        // installing the pages and moving the master must not exist, or
        // recovery would see checkpoint pages installed while the master
        // still points at the previous checkpoint. With nothing staged
        // the swing only advances the master, so recovery scans less
        // log.
        db.disk.swing_pointer(ck)?;
        for (id, _) in dirty {
            db.pool.mark_clean(&db.disk, id)?;
        }
        Ok(())
    }

    fn recover(&self, db: &mut Db<PageOpPayload>) -> SimResult<RecoveryStats> {
        // Logical operations read and write arbitrary pages, so each
        // batch prefetches its whole read+write footprint.
        redo::recover_ops(db, |db, lsn, op| {
            // redo test: constant true.
            db.apply_page_op(op, lsn)?;
            Ok(true)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_matches_model, cross_page_workload};
    use redo_sim::db::Geometry;

    fn workload(n: usize, seed: u64) -> Vec<PageOp> {
        // Logical ops may be arbitrary: include cross-page reads.
        cross_page_workload(n, 4, seed)
    }

    #[test]
    fn disk_unchanged_between_checkpoints() {
        let mut db = Db::new(Geometry::default());
        let ops = workload(10, 1);
        for op in &ops {
            Logical.execute(&mut db, op).unwrap();
        }
        assert_eq!(
            db.disk.page_writes(),
            0,
            "no installed-state writes before checkpoint"
        );
    }

    #[test]
    fn checkpoint_installs_atomically() {
        let mut db = Db::new(Geometry::default());
        let ops = workload(10, 2);
        for op in &ops {
            Logical.execute(&mut db, op).unwrap();
        }
        Logical.checkpoint(&mut db).unwrap();
        db.crash();
        let stats = Logical.recover(&mut db).unwrap();
        assert_eq!(stats.replay_count(), 0);
        assert_matches_model(&mut db, &ops);
    }

    #[test]
    fn crash_before_checkpoint_replays_since_last_one() {
        let mut db = Db::new(Geometry::default());
        let ops = workload(12, 3);
        for op in &ops[..7] {
            Logical.execute(&mut db, op).unwrap();
        }
        Logical.checkpoint(&mut db).unwrap();
        for op in &ops[7..] {
            Logical.execute(&mut db, op).unwrap();
        }
        db.log.flush_all();
        db.crash();
        let stats = Logical.recover(&mut db).unwrap();
        assert_eq!(stats.replay_count(), 5);
        assert_matches_model(&mut db, &ops);
    }

    #[test]
    fn unflushed_tail_lost_but_prefix_recovered() {
        let mut db = Db::new(Geometry::default());
        let ops = workload(9, 4);
        for op in &ops[..4] {
            Logical.execute(&mut db, op).unwrap();
        }
        db.log.flush_all();
        for op in &ops[4..] {
            Logical.execute(&mut db, op).unwrap();
        }
        db.crash();
        Logical.recover(&mut db).unwrap();
        assert_matches_model(&mut db, &ops[..4]);
    }

    #[test]
    fn empty_checkpoint_still_advances_master() {
        let mut db = Db::new(Geometry::default());
        let ops = workload(4, 5);
        for op in &ops {
            Logical.execute(&mut db, op).unwrap();
        }
        Logical.checkpoint(&mut db).unwrap();
        // Nothing dirty now; checkpoint again.
        Logical.checkpoint(&mut db).unwrap();
        db.crash();
        let stats = Logical.recover(&mut db).unwrap();
        assert_eq!(stats.scanned, 0);
        assert_matches_model(&mut db, &ops);
    }
}
