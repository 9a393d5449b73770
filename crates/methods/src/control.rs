//! The self-tuning checkpoint/flush control loop: close the loop the
//! open-loop daemon left dangling.
//!
//! The background daemon ([`crate::concurrent::SharedDb`]) used to run
//! *open loop*: checkpoint every N ticks, flush a uniformly random dirty
//! page, never look at what restart would actually cost. Three
//! pathologies follow. A quiescent system re-publishes identical
//! checkpoint records forever, each one forcing the log and swinging the
//! master for nothing. A skewed workload keeps re-dirtying the same hot
//! pages, so a random flusher almost never picks the *coldest* page —
//! the one whose recLSN pins the truncation horizon — and the stable
//! prefix past redo-start grows without bound. And a fixed cadence is
//! wrong in both directions at once: too slow under a write burst (the
//! suffix a restart must scan balloons between checkpoints), too fast at
//! idle (pure overhead).
//!
//! This module closes the loop. Each tick the controller *estimates*
//! restart cost from two numbers the substrate already keeps — the live
//! log's stable bytes ([`redo_sim::wal::ShardedLog::suffix_bytes`] from
//! its first retained record, which every landed publication moves to
//! the published redo-start) and the dirty-page-table size — compares
//! them against a configurable [`RestartBudget`], and emits a
//! [`ControlPlan`] naming which actuators to fire:
//!
//! 1. **Checkpoint cadence** — checkpoint when estimated replay cost
//!    crosses the budget, not on a timer. Checkpoints are *incremental*
//!    ([`redo::checkpoint_fuzzy`]): a [`redo::Checkpoint`] whose table
//!    is a [`redo::DirtyTable::Delta`] against the previous record,
//!    chained by `prev` links to the full table at `base`, with the full
//!    table republished every [`RestartBudget::full_every`] links to
//!    bound the chain analysis must walk.
//! 2. **Targeted flushing** — flush the dirty page with the *minimum*
//!    recLSN, the one pinning the truncation horizon, instead of a
//!    random one. Nothing else can move the horizon: the bytes above it
//!    are what restart needs, and the bytes below it were drained to the
//!    archive when the checkpoint that set it landed.
//!
//! The planner ([`Controller::plan`]) is a pure function of the
//! estimate, so its policy is unit-testable without a database. The
//! [`Control`] method at the bottom is the *sequential* face of the
//! loop — [`redo::checkpoint_fuzzy`] at [`Control::FULL_EVERY`], where
//! [`GeneralizedOnline`](crate::online) is the same call at 0 — and
//! exists chiefly so the crash audit can drive fault injection into
//! every step of delta-chain publication through the generic harness.

use redo_sim::db::Db;
use redo_sim::SimResult;
use redo_theory::log::Lsn;
use redo_workload::pages::PageOp;

use crate::generalized::Generalized;
use crate::oprecord::PageOpPayload;
use crate::redo;
use crate::{RecoveryMethod, RecoveryStats};

/// The restart-latency budget the controller steers toward: how much a
/// crash at this instant is allowed to cost the subsequent restart.
#[derive(Clone, Debug, PartialEq)]
pub struct RestartBudget {
    /// Ceiling on stable log bytes past the published redo-start — the
    /// volume restart's redo scan would read.
    pub max_suffix_bytes: u64,
    /// Ceiling on dirty-page-table size — a proxy for the page fetches
    /// restart performs before its redo tests can run.
    pub max_dirty_pages: usize,
    /// Republish a full snapshot every this many checkpoints; the links
    /// in between are deltas.
    pub full_every: u64,
}

impl Default for RestartBudget {
    fn default() -> Self {
        RestartBudget {
            max_suffix_bytes: 8 * 1024,
            max_dirty_pages: 16,
            full_every: Control::FULL_EVERY,
        }
    }
}

/// A point-in-time estimate of what restart would cost right now, read
/// off the live log and the store by
/// [`crate::concurrent::SharedDb::restart_estimate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RestartEstimate {
    /// Stable bytes at or past the published redo-start.
    pub suffix_bytes: u64,
    /// Current dirty-page-table size.
    pub dirty_pages: usize,
}

/// What the controller decided to do this tick.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ControlPlan {
    /// Publish a checkpoint (estimated restart cost crossed the budget).
    pub checkpoint: bool,
    /// Flush the minimum-recLSN dirty page to unpin the truncation
    /// horizon.
    pub flush_coldest: bool,
}

/// The pure planner: budget in, estimate in, actuator decisions out.
#[derive(Clone, Debug, Default)]
pub struct Controller {
    /// The budget this controller steers toward.
    pub budget: RestartBudget,
}

impl Controller {
    /// A controller steering toward `budget`.
    #[must_use]
    pub fn new(budget: RestartBudget) -> Self {
        Controller { budget }
    }

    /// The control decision: which actuators to fire for this estimate.
    ///
    /// Checkpoint when the scan suffix or the DPT crosses its ceiling;
    /// start flushing the coldest page already at half the suffix
    /// budget (cheap, and it lets the *next* checkpoint truncate
    /// deeper).
    #[must_use]
    pub fn plan(&self, est: &RestartEstimate) -> ControlPlan {
        let b = &self.budget;
        let checkpoint =
            est.suffix_bytes > b.max_suffix_bytes || est.dirty_pages > b.max_dirty_pages;
        let flush_coldest = est.dirty_pages > 0 && est.suffix_bytes > b.max_suffix_bytes / 2;
        ControlPlan {
            checkpoint,
            flush_coldest,
        }
    }
}

/// Generalized LSN-based recovery whose checkpoints are budget-driven
/// incremental deltas — the sequential face of the adaptive controller,
/// and the method the crash audit runs under `--method control`.
#[derive(Clone, Copy, Debug, Default)]
pub struct Control;

impl Control {
    /// Republish a full snapshot after this many consecutive deltas.
    pub const FULL_EVERY: u64 = 4;
}

impl RecoveryMethod for Control {
    type Payload = PageOpPayload;

    fn name(&self) -> &'static str {
        "control"
    }

    fn execute(&self, db: &mut Db<PageOpPayload>, op: &PageOp) -> SimResult<Lsn> {
        Generalized.execute(db, op)
    }

    fn checkpoint(&self, db: &mut Db<PageOpPayload>) -> SimResult<()> {
        redo::checkpoint_fuzzy(db, Self::FULL_EVERY).map(|_| ())
    }

    fn recover(&self, db: &mut Db<PageOpPayload>) -> SimResult<RecoveryStats> {
        Generalized.recover(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::redo::{Checkpoint, CheckpointView, DirtyTable};
    use crate::testkit::{assert_matches_model, cross_page_workload};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use redo_sim::db::Geometry;
    use redo_sim::fault::{FaultKind, FaultPlan};
    use redo_workload::pages::PageId;

    fn workload(n: usize, seed: u64) -> Vec<PageOp> {
        cross_page_workload(n, 5, seed)
    }

    #[test]
    fn planner_fires_checkpoint_on_suffix_budget() {
        let ctl = Controller::new(RestartBudget {
            max_suffix_bytes: 1000,
            max_dirty_pages: 100,
            ..Default::default()
        });
        let mut est = RestartEstimate {
            suffix_bytes: 999,
            dirty_pages: 3,
        };
        assert!(!ctl.plan(&est).checkpoint);
        est.suffix_bytes = 1001;
        let plan = ctl.plan(&est);
        assert!(plan.checkpoint);
        assert!(plan.flush_coldest, "past half budget: unpin the horizon");
    }

    #[test]
    fn planner_fires_checkpoint_on_dpt_budget() {
        let ctl = Controller::new(RestartBudget {
            max_suffix_bytes: 1_000_000,
            max_dirty_pages: 4,
            ..Default::default()
        });
        let est = RestartEstimate {
            suffix_bytes: 10,
            dirty_pages: 5,
        };
        let plan = ctl.plan(&est);
        assert!(plan.checkpoint);
        assert!(!plan.flush_coldest, "suffix is tiny: no flush pressure");
    }

    #[test]
    fn idle_estimate_plans_nothing() {
        let ctl = Controller::default();
        let est = RestartEstimate {
            suffix_bytes: 0,
            dirty_pages: 0,
        };
        assert_eq!(ctl.plan(&est), ControlPlan::default());
    }

    #[test]
    fn delta_chain_publishes_and_recovers_exactly() {
        let ops = workload(40, 3);
        let mut db = Db::new(Geometry::default());
        let mut rng = StdRng::seed_from_u64(99);
        let mut published = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            Control.execute(&mut db, op).unwrap();
            db.chaos_flush(&mut rng, 0.8, 0.5).unwrap();
            if (i + 1) % 5 == 0 {
                let ck = redo::checkpoint_fuzzy(&mut db, Control::FULL_EVERY)
                    .unwrap()
                    .expect("no faults armed: publication must land");
                published.push(ck);
            }
        }
        assert_eq!(published.len(), 8);
        // The master names the newest checkpoint, and it is a delta
        // (eight publications: full, d, d, d, full, d, d, d).
        let master = db.disk.master();
        assert_eq!(master, *published.last().unwrap());
        let rec = db.log.record_at_lsn(master).unwrap().unwrap();
        assert!(
            rec.payload
                .as_checkpoint()
                .is_some_and(Checkpoint::is_delta),
            "{:?}",
            rec.payload
        );
        db.log.flush_all();
        db.crash();
        let stats = Control.recover(&mut db).unwrap();
        assert_eq!(stats.checkpoint_lsn, Some(master));
        assert_matches_model(&mut db, &ops);
    }

    #[test]
    fn full_snapshot_republished_every_fourth_checkpoint() {
        let ops = workload(30, 17);
        let mut db = Db::new(Geometry::default());
        let mut kinds = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            Control.execute(&mut db, op).unwrap();
            if (i + 1) % 3 == 0 {
                let ck = redo::checkpoint_fuzzy(&mut db, Control::FULL_EVERY)
                    .unwrap()
                    .expect("published");
                let rec = db.log.record_at_lsn(ck).unwrap().unwrap();
                kinds.push(
                    match rec.payload.as_checkpoint().map(Checkpoint::is_delta) {
                        Some(false) => 'F',
                        Some(true) => 'D',
                        None => '?',
                    },
                );
            }
        }
        assert_eq!(kinds.iter().collect::<String>(), "FDDDFDDDFD");
    }

    #[test]
    fn quiescent_system_skips_republication() {
        let ops = workload(12, 7);
        let mut db = Db::new(Geometry::default());
        for op in &ops {
            Control.execute(&mut db, op).unwrap();
        }
        let ck = redo::checkpoint_fuzzy(&mut db, Control::FULL_EVERY)
            .unwrap()
            .expect("published");
        let last = db.log.last_lsn();
        // Nothing moved: the standing checkpoint must be reused, with
        // no new record appended.
        for _ in 0..3 {
            let again = redo::checkpoint_fuzzy(&mut db, Control::FULL_EVERY).unwrap();
            assert_eq!(again, Some(ck), "quiescent tick must reuse the head");
            assert_eq!(db.log.last_lsn(), last, "no record may be appended");
        }
        // New work re-arms publication.
        let more = workload(3, 8);
        for op in &more {
            Control.execute(&mut db, op).unwrap();
        }
        let next = redo::checkpoint_fuzzy(&mut db, Control::FULL_EVERY)
            .unwrap()
            .expect("published");
        assert!(next > ck);
    }

    #[test]
    fn quiescent_skip_survives_clean_pool() {
        // The empty-DPT case: candidate redo-start would be the drifting
        // `ck_expected`, which must not defeat the skip.
        let ops = workload(10, 21);
        let mut db = Db::new(Geometry::default());
        for op in &ops {
            Control.execute(&mut db, op).unwrap();
        }
        db.log.flush_all();
        db.pool
            .flush_all(&mut db.disk, db.log.stable_lsn())
            .unwrap();
        let ck = redo::checkpoint_fuzzy(&mut db, Control::FULL_EVERY)
            .unwrap()
            .expect("published");
        let last = db.log.last_lsn();
        let again = redo::checkpoint_fuzzy(&mut db, Control::FULL_EVERY).unwrap();
        assert_eq!(again, Some(ck));
        assert_eq!(db.log.last_lsn(), last);
    }

    #[test]
    fn torn_chain_falls_back_to_base_snapshot() {
        let ops = workload(20, 5);
        let mut db = Db::new(Geometry::default());
        for op in &ops[..10] {
            Control.execute(&mut db, op).unwrap();
        }
        // A healthy full snapshot to fall back to.
        let base = redo::checkpoint_fuzzy(&mut db, Control::FULL_EVERY)
            .unwrap()
            .expect("published");
        for op in &ops[10..] {
            Control.execute(&mut db, op).unwrap();
        }
        // Hand-publish a *lying* delta whose `prev` names an operation
        // record: its folded DPT would wrongly claim every page clean
        // and its redo-start would skip live work. Only the torn-chain
        // fallback to `base` keeps recovery exact.
        let bogus_redo = Lsn(db.log.last_lsn().0 + 1);
        let all_pages: Vec<PageId> = (0..5).map(PageId).collect();
        let lying = db
            .log
            .append(PageOpPayload::Checkpoint(Checkpoint {
                redo_start: bogus_redo,
                table: DirtyTable::Delta {
                    prev: Lsn(2),
                    base,
                    added: vec![],
                    removed: all_pages,
                },
            }))
            .unwrap();
        db.log.flush_all();
        db.disk.set_master(lying).unwrap();
        db.crash();
        let stats = Control.recover(&mut db).unwrap();
        assert_eq!(
            stats.checkpoint_lsn,
            Some(base),
            "analysis must fall back to the base snapshot"
        );
        assert_matches_model(&mut db, &ops);
    }

    #[test]
    fn suppressed_swing_abandons_delta_and_chain_survives() {
        let ops = workload(16, 11);
        let mut db = Db::new(Geometry::default());
        for op in &ops[..8] {
            Control.execute(&mut db, op).unwrap();
        }
        let first = redo::checkpoint_fuzzy(&mut db, Control::FULL_EVERY)
            .unwrap()
            .expect("published");
        for op in &ops[8..] {
            Control.execute(&mut db, op).unwrap();
        }
        // Pre-force so the checkpoint's own flush moves one record, then
        // suppress the master write (event 2): the delta record becomes
        // durable but orphaned.
        db.log.flush_all();
        db.arm_faults(FaultPlan {
            at: 2,
            kind: FaultKind::Clean,
        });
        let second = redo::checkpoint_fuzzy(&mut db, Control::FULL_EVERY).unwrap();
        assert_eq!(second, None, "swing suppressed: attempt abandoned");
        assert_eq!(db.disk.master(), first, "previous checkpoint stands");
        db.crash();
        db.repair_after_crash();
        let stats = Control.recover(&mut db).unwrap();
        assert_eq!(stats.checkpoint_lsn, Some(first));
        assert_matches_model(&mut db, &ops);
        // The orphaned delta does not poison the next publication: the
        // chain re-derives from the master (still `first`).
        let next = redo::checkpoint_fuzzy(&mut db, Control::FULL_EVERY)
            .unwrap()
            .expect("published");
        assert!(next > first);
    }

    #[test]
    fn live_suffix_tracks_truncation() {
        let ops = workload(24, 13);
        let mut db = Db::new(Geometry::default());
        for op in &ops {
            Control.execute(&mut db, op).unwrap();
        }
        db.log.flush_all();
        let live = |db: &Db<PageOpPayload>| db.log.suffix_bytes(db.log.first_stable());
        let before = live(&db);
        assert!(before > 0);
        // Clean pool + checkpoint: the live log collapses to (roughly)
        // the checkpoint record itself, and starts at its redo-start.
        db.pool
            .flush_all(&mut db.disk, db.log.stable_lsn())
            .unwrap();
        redo::checkpoint_fuzzy(&mut db, Control::FULL_EVERY)
            .unwrap()
            .expect("published");
        assert!(live(&db) < before, "{} !< {before}", live(&db));
        assert_eq!(
            db.log.first_stable(),
            redo::analyze(&db).unwrap().redo_start
        );
    }
}
