//! Generalized recovery with *online* fuzzy checkpoints and log
//! truncation — the sequential face of the concurrent checkpoint daemon
//! ([`crate::concurrent::SharedDb::checkpoint_tick`]).
//!
//! [`crate::generalized::Generalized`]'s heavyweight checkpoint flushes
//! every dirty page before writing its record — simple, but it stalls
//! normal operation for the whole flush storm. The online discipline
//! checkpoints *fuzzily* ([`redo::checkpoint_fuzzy`]): snapshot the
//! buffer pool's dirty-page table with per-page recLSNs, append a
//! [`redo::Checkpoint`] record carrying the table and its redo-start
//! LSN (the minimum recLSN — every update below it is installed), and
//! publish the checkpoint by atomically moving the disk master pointer.
//! Nothing is flushed; the page-LSN redo tests make scanning from the
//! redo-start exact. This method always logs the full table
//! (`full_every` 0); [`Control`](crate::control::Control) is the same
//! call chaining deltas.
//!
//! Publication is a three-step protocol, and each step is a faultable
//! crash point ([`redo_sim::fault`]):
//!
//! 1. **Force** the checkpoint record through the log. A torn or
//!    suppressed flush leaves `stable_lsn` below the record — the
//!    attempt is *abandoned*: the previous checkpoint stays in force
//!    and recovery falls back to it.
//! 2. **Swing** the master pointer to the record's LSN. The write is
//!    a single faultable atomic act; if it is suppressed the master
//!    still names the previous checkpoint — abandoned again, and the
//!    now-orphaned checkpoint record is harmlessly skipped by the
//!    redo scan (it is not an operation).
//! 3. Only after *verifying* both steps landed does [`redo::publish`]
//!    **truncate** the stable-log prefix below the redo-start
//!    ([`redo_sim::wal::ShardedLog::archive_prefix`]): every record
//!    there is applied and its page durably installed, so no future
//!    recovery can need it. Truncating any earlier would be unsound —
//!    a crash before publication must still be able to recover from
//!    the previous checkpoint, whose scan may start inside the
//!    would-be-truncated prefix.
//!
//! Execution and recovery are exactly [`Generalized`]'s —
//! [`redo::analyze`] reads whatever record the master points at.

use redo_sim::db::Db;
use redo_sim::SimResult;
use redo_theory::log::Lsn;
use redo_workload::pages::PageOp;

use crate::generalized::Generalized;
use crate::oprecord::PageOpPayload;
use crate::{redo, RecoveryMethod, RecoveryStats};

/// Generalized LSN-based recovery whose checkpoints are online fuzzy
/// snapshots with log truncation.
#[derive(Clone, Copy, Debug, Default)]
pub struct GeneralizedOnline;

impl RecoveryMethod for GeneralizedOnline {
    type Payload = PageOpPayload;

    fn name(&self) -> &'static str {
        "generalized-online"
    }

    fn execute(&self, db: &mut Db<PageOpPayload>, op: &PageOp) -> SimResult<Lsn> {
        Generalized.execute(db, op)
    }

    fn checkpoint(&self, db: &mut Db<PageOpPayload>) -> SimResult<()> {
        redo::checkpoint_fuzzy(db, 0).map(|_| ())
    }

    fn recover(&self, db: &mut Db<PageOpPayload>) -> SimResult<RecoveryStats> {
        Generalized.recover(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_matches_model, cross_page_workload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use redo_sim::db::Geometry;
    use redo_sim::fault::{FaultKind, FaultPlan};

    fn workload(n: usize, seed: u64) -> Vec<PageOp> {
        cross_page_workload(n, 5, seed)
    }

    #[test]
    fn online_checkpoints_truncate_and_recover_exactly() {
        let ops = workload(40, 3);
        let mut db = Db::new(Geometry::default());
        let mut rng = StdRng::seed_from_u64(99);
        let mut published = 0u64;
        for (i, op) in ops.iter().enumerate() {
            GeneralizedOnline.execute(&mut db, op).unwrap();
            db.chaos_flush(&mut rng, 0.8, 0.5).unwrap();
            if (i + 1) % 8 == 0 {
                let ck = redo::checkpoint_fuzzy(&mut db, 0).unwrap();
                assert!(ck.is_some(), "no faults armed: publication must land");
                published += 1;
            }
        }
        assert_eq!(published, 5);
        db.log.flush_all();
        db.crash();
        let stats = GeneralizedOnline.recover(&mut db).unwrap();
        assert!(stats.checkpoint_lsn.is_some());
        assert_matches_model(&mut db, &ops);
    }

    #[test]
    fn redo_start_is_exactly_the_oldest_reclsn() {
        // Ten operations flushed clean, ten more left dirty, checkpoint:
        // nothing was dirty before op 11, so analysis elides — and
        // publication truncates — exactly the ten installed records.
        let ops = crate::testkit::single_page_workload(30, 5, 2);
        let mut db = Db::new(Geometry::default());
        for op in &ops[..10] {
            GeneralizedOnline.execute(&mut db, op).unwrap();
        }
        db.flush_everything().unwrap();
        for op in &ops[10..20] {
            GeneralizedOnline.execute(&mut db, op).unwrap();
        }
        let ck = redo::checkpoint_fuzzy(&mut db, 0).unwrap();
        for op in &ops[20..] {
            GeneralizedOnline.execute(&mut db, op).unwrap();
        }
        db.log.flush_all();
        db.crash();
        let analysis = redo::analyze(&db).unwrap();
        assert_eq!(analysis.checkpoint_lsn, ck);
        assert_eq!(analysis.redo_start, Lsn(11), "{analysis:?}");
        assert_eq!(db.log.first_stable(), Lsn(11));
        let stats = GeneralizedOnline.recover(&mut db).unwrap();
        assert_eq!(stats.scanned, 21, "ops 11..=30 and the checkpoint record");
        assert_matches_model(&mut db, &ops);
    }

    #[test]
    fn checkpoint_does_not_flush_pages() {
        let ops = workload(12, 7);
        let mut db = Db::new(Geometry::default());
        for op in &ops {
            GeneralizedOnline.execute(&mut db, op).unwrap();
        }
        let dirty_before = db.pool.dirty_pages();
        assert!(!dirty_before.is_empty());
        redo::checkpoint_fuzzy(&mut db, 0)
            .unwrap()
            .expect("published");
        assert_eq!(
            db.pool.dirty_pages(),
            dirty_before,
            "fuzzy checkpoints must not clean pages"
        );
    }

    #[test]
    fn clean_pool_checkpoint_truncates_everything_below_itself() {
        let ops = workload(10, 5);
        let mut db = Db::new(Geometry::default());
        for op in &ops {
            GeneralizedOnline.execute(&mut db, op).unwrap();
        }
        db.log.flush_all();
        db.pool
            .flush_all(&mut db.disk, db.log.stable_lsn())
            .unwrap();
        let ck = redo::checkpoint_fuzzy(&mut db, 0)
            .unwrap()
            .expect("published");
        assert_eq!(db.log.first_stable(), ck, "only the record itself remains");
        db.crash();
        let stats = GeneralizedOnline.recover(&mut db).unwrap();
        assert_eq!(stats.scanned, 1, "the scan sees only the checkpoint record");
        assert_matches_model(&mut db, &ops);
    }

    #[test]
    fn suppressed_pointer_swing_abandons_the_attempt() {
        let ops = workload(16, 11);
        let mut db = Db::new(Geometry::default());
        for op in &ops[..8] {
            GeneralizedOnline.execute(&mut db, op).unwrap();
        }
        let first = redo::checkpoint_fuzzy(&mut db, 0)
            .unwrap()
            .expect("published");
        let first_stable_then = db.log.first_stable();
        for op in &ops[8..] {
            GeneralizedOnline.execute(&mut db, op).unwrap();
        }
        // Pre-force the log so the checkpoint's own flush_all moves
        // exactly one record (the checkpoint record, event 1), then arm
        // a clean stop on event 2 — the master write: the record becomes
        // durable but its publication is suppressed.
        db.log.flush_all();
        db.arm_faults(FaultPlan {
            at: 2,
            kind: FaultKind::Clean,
        });
        let second = redo::checkpoint_fuzzy(&mut db, 0).unwrap();
        assert_eq!(second, None, "swing suppressed: attempt abandoned");
        assert_eq!(db.disk.master(), first, "previous checkpoint stands");
        assert_eq!(
            db.log.first_stable(),
            first_stable_then,
            "an abandoned attempt truncates nothing"
        );
        db.crash();
        db.repair_after_crash();
        let stats = GeneralizedOnline.recover(&mut db).unwrap();
        assert_eq!(stats.checkpoint_lsn, Some(first));
        assert_matches_model(&mut db, &ops);
    }
}
