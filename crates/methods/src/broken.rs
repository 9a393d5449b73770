//! Deliberately broken recovery methods — the checker's negative
//! controls.
//!
//! A verifier that never rejects anything is worthless. These two
//! methods each violate the recovery invariant in a classic way, and the
//! crash harness / exhaustive checker must catch them:
//!
//! * [`SkippyRedo`] — an off-by-one redo test (`page LSN ≥ record LSN −
//!   1` counts as installed), silently dropping the newest update of a
//!   page whose second-newest update was flushed. The bypassed set then
//!   fails to *explain* the state: an exposed variable holds a stale
//!   value.
//! * [`LyingCheckpoint`] — a checkpoint that advances the master record
//!   *without flushing the cache* while keeping the redo-everything
//!   test. Operations before the checkpoint are treated as installed
//!   but their effects may never have reached disk: the implied
//!   installed set does not explain the stable state.
//!
//! Both are perfectly plausible implementation bugs; both are found by
//! the same audit that passes the four correct methods. Keep them
//! around as regression tests for the checker itself.

use redo_sim::db::Db;
use redo_sim::SimResult;
use redo_theory::log::Lsn;
use redo_workload::pages::PageOp;

use crate::oprecord::PageOpPayload;
use crate::physiological::{redo_if_older_than, Physiological};
use crate::{redo, RecoveryMethod, RecoveryStats};

/// Physiological recovery with an off-by-one redo test.
#[derive(Clone, Copy, Debug, Default)]
pub struct SkippyRedo;

impl RecoveryMethod for SkippyRedo {
    type Payload = PageOpPayload;

    fn name(&self) -> &'static str {
        "broken-skippy-redo"
    }

    fn execute(&self, db: &mut Db<PageOpPayload>, op: &PageOp) -> SimResult<Lsn> {
        Physiological.execute(db, op)
    }

    fn checkpoint(&self, db: &mut Db<PageOpPayload>) -> SimResult<()> {
        Physiological.checkpoint(db)
    }

    fn recover(&self, db: &mut Db<PageOpPayload>) -> SimResult<RecoveryStats> {
        redo::recover_local(db, |page, lsn, op| {
            // BUG: `lsn - 1` instead of `lsn`. A page flushed at LSN L
            // causes the record at L+1 to be wrongly bypassed.
            redo_if_older_than(page, Lsn(lsn.0.saturating_sub(1)), lsn, op)
        })
    }
}

/// A checkpoint that claims installation without flushing.
#[derive(Clone, Copy, Debug, Default)]
pub struct LyingCheckpoint;

impl RecoveryMethod for LyingCheckpoint {
    type Payload = PageOpPayload;

    fn name(&self) -> &'static str {
        "broken-lying-checkpoint"
    }

    fn execute(&self, db: &mut Db<PageOpPayload>, op: &PageOp) -> SimResult<Lsn> {
        Physiological.execute(db, op)
    }

    fn checkpoint(&self, db: &mut Db<PageOpPayload>) -> SimResult<()> {
        // BUG: the §6.2/§6.3 checkpoint contract is "flush, THEN move
        // the master". This one skips the flush — and logs the empty
        // dirty-page table it did not earn.
        let ck = redo::append_heavyweight(&mut db.log)?;
        db.log.flush_all();
        db.disk.set_master(ck)?;
        Ok(())
    }

    fn recover(&self, db: &mut Db<PageOpPayload>) -> SimResult<RecoveryStats> {
        Physiological.recover(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{run, HarnessConfig, HarnessFailure};

    fn workload(seed: u64) -> Vec<PageOp> {
        crate::testkit::single_page_workload(80, 5, seed)
    }

    fn chaotic_cfg(seed: u64) -> HarnessConfig {
        HarnessConfig {
            checkpoint_every: Some(9),
            crash_every: Some(14),
            chaos: Some((0.9, 0.5)),
            seed,
            audit: true,
            slots_per_page: 8,
            pool_capacity: None,
            fault: None,
            ..Default::default()
        }
    }

    #[test]
    fn skippy_redo_is_caught() {
        let mut caught = 0usize;
        for seed in 0..6 {
            match run(&SkippyRedo, &workload(seed), &chaotic_cfg(seed)) {
                Err(HarnessFailure::StateMismatch { .. } | HarnessFailure::Invariant { .. }) => {
                    caught += 1;
                }
                Err(other) => panic!("unexpected failure class: {other}"),
                Ok(_) => {} // some schedules never hit the off-by-one window
            }
        }
        assert!(
            caught > 0,
            "the harness must catch the off-by-one redo test"
        );
    }

    #[test]
    fn lying_checkpoint_is_caught() {
        let mut caught = 0usize;
        for seed in 0..6 {
            match run(&LyingCheckpoint, &workload(seed), &chaotic_cfg(seed)) {
                Err(HarnessFailure::StateMismatch { .. } | HarnessFailure::Invariant { .. }) => {
                    caught += 1;
                }
                Err(other) => panic!("unexpected failure class: {other}"),
                Ok(_) => {}
            }
        }
        assert!(
            caught > 0,
            "the harness must catch the non-flushing checkpoint"
        );
    }

    #[test]
    fn correct_method_passes_where_broken_ones_fail() {
        // Same workloads, same schedules: the reference method is clean.
        for seed in 0..6 {
            crate::harness::run(&Physiological, &workload(seed), &chaotic_cfg(seed))
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        }
    }
}
