//! Exhaustive flush-schedule exploration of the simulated database.
//!
//! The abstract checker ([`crate::theorems`]) covers every crash *state*;
//! this module covers every crash *schedule* of the real substrate: for
//! a tiny workload under a §6 recovery method, it enumerates, by DFS,
//! the choices a cache/log manager could make between operations (do
//! nothing, force the log, flush one page, flush everything), injects a
//! crash at every node of that tree, runs the method's recovery on a
//! clone, and verifies that the rebuilt state equals the durable
//! prefix's final state *and* that the realized redo set satisfied the
//! recovery invariant.
//!
//! This is the checker a recovery implementor would point at a new
//! logging discipline: it searches schedules for invariant violations
//! instead of sampling them.

use std::collections::BTreeSet;
use std::fmt;

use redo_methods::harness::{DurablePrefix, HarnessFailure};
use redo_methods::RecoveryMethod;
use redo_sim::db::{Db, Geometry};
use redo_theory::log::Lsn;
use redo_workload::pages::{PageId, PageOp};

/// One scheduler choice at an operation boundary.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlushAction {
    /// Do nothing.
    None,
    /// Force the whole log.
    Log,
    /// Force the log, then flush one page (skipped silently if the
    /// flush is illegal — just as a real cache manager would defer it).
    LogAndPage(PageId),
    /// Force the log and flush every dirty page legally flushable.
    Everything,
}

/// What the exploration covered.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExploreReport {
    /// Schedule-tree nodes visited.
    pub nodes: usize,
    /// Crash+recover checks performed.
    pub crashes_checked: usize,
    /// Distinct stable states encountered at crash points.
    pub distinct_stable_states: usize,
}

/// A failed exploration: the schedule that broke, rendered.
#[derive(Clone, Debug)]
pub struct ExploreFailure {
    /// Actions taken before the failing crash, per boundary.
    pub schedule: Vec<FlushAction>,
    /// What went wrong.
    pub failure: HarnessFailure,
}

impl fmt::Display for ExploreFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "schedule {:?} failed: {}", self.schedule, self.failure)
    }
}

struct Explorer<'a, M: RecoveryMethod> {
    method: &'a M,
    ops: &'a [PageOp],
    pages: Vec<PageId>,
    spp: u16,
    limit: usize,
    report: ExploreReport,
    stable_states: BTreeSet<Vec<(u32, u64)>>,
    schedule: Vec<FlushAction>,
}

impl<M: RecoveryMethod> Explorer<'_, M> {
    fn actions(&self) -> Vec<FlushAction> {
        let mut a = vec![FlushAction::None, FlushAction::Log, FlushAction::Everything];
        for &p in &self.pages {
            a.push(FlushAction::LogAndPage(p));
        }
        a
    }

    fn apply(&self, db: &mut Db<M::Payload>, action: FlushAction) {
        match action {
            FlushAction::None => {}
            FlushAction::Log => db.log.flush_all(),
            FlushAction::LogAndPage(p) => {
                db.log.flush_all();
                let stable = db.log.stable_lsn();
                let _ = db.pool.flush_page(&mut db.disk, p, stable);
            }
            FlushAction::Everything => {
                db.log.flush_all();
                let stable = db.log.stable_lsn();
                let _ = db.pool.flush_all(&mut db.disk, stable);
            }
        }
    }

    fn check_crash(
        &mut self,
        db: &Db<M::Payload>,
        executed: &[(PageOp, Lsn)],
    ) -> Result<(), HarnessFailure> {
        self.report.crashes_checked += 1;
        let mut crashed = db.clone();
        let stable = crashed.log.stable_lsn();
        let pre_disk = crashed.stable_theory_state();
        // Record state diversity.
        let key: Vec<(u32, u64)> = crashed
            .disk
            .pages()
            .into_iter()
            .map(|(id, p)| {
                (
                    id.0,
                    p.slots()
                        .iter()
                        .fold(0u64, |h, &s| h.wrapping_mul(31).wrapping_add(s)),
                )
            })
            .collect();
        if self.stable_states.insert(key) {
            self.report.distinct_stable_states += 1;
        }
        crashed.crash();
        let stats = self.method.recover(&mut crashed)?;
        let durable: Vec<PageOp> = executed
            .iter()
            .filter(|(_, lsn)| *lsn <= stable)
            .map(|(op, _)| op.clone())
            .collect();
        DurablePrefix::of(&durable, self.spp).verify(
            &stats,
            &crashed.volatile_theory_state(),
            &pre_disk,
            self.report.crashes_checked as u64,
        )
    }

    fn dfs(
        &mut self,
        db: &Db<M::Payload>,
        executed: &[(PageOp, Lsn)],
        i: usize,
    ) -> Result<bool, ExploreFailure> {
        if self.report.nodes >= self.limit {
            return Ok(false); // budget exhausted, exploration truncated
        }
        self.report.nodes += 1;
        // Crash here, before any further action.
        if let Err(failure) = self.check_crash(db, executed) {
            return Err(ExploreFailure {
                schedule: self.schedule.clone(),
                failure,
            });
        }
        if i == self.ops.len() {
            return Ok(true);
        }
        let mut complete = true;
        for action in self.actions() {
            let mut next = db.clone();
            self.apply(&mut next, action);
            // Crash after the flush action as well (flushes themselves
            // are crash points).
            self.schedule.push(action);
            if let Err(failure) = self.check_crash(&next, executed) {
                return Err(ExploreFailure {
                    schedule: self.schedule.clone(),
                    failure,
                });
            }
            let mut executed = executed.to_vec();
            let lsn = self
                .method
                .execute(&mut next, &self.ops[i])
                .map_err(|e| ExploreFailure {
                    schedule: self.schedule.clone(),
                    failure: HarnessFailure::Sim(e),
                })?;
            executed.push((self.ops[i].clone(), lsn));
            complete &= self.dfs(&next, &executed, i + 1)?;
            self.schedule.pop();
        }
        Ok(complete)
    }
}

/// Explores every flush schedule of `ops` under `method`, crashing and
/// verifying at every node, visiting at most `node_limit` schedule
/// nodes. Returns the report and whether the exploration was complete
/// (`false` = truncated by the limit, still sound for what was visited).
///
/// # Errors
///
/// The first schedule found to violate recovery correctness or the
/// recovery invariant.
pub fn explore<M: RecoveryMethod>(
    method: &M,
    ops: &[PageOp],
    slots_per_page: u16,
    node_limit: usize,
) -> Result<(ExploreReport, bool), ExploreFailure> {
    let mut pages: Vec<PageId> = ops.iter().flat_map(|op| op.written_pages()).collect();
    pages.sort_unstable();
    pages.dedup();
    let mut explorer = Explorer {
        method,
        ops,
        pages,
        spp: slots_per_page,
        limit: node_limit,
        report: ExploreReport::default(),
        stable_states: BTreeSet::new(),
        schedule: Vec::new(),
    };
    let db: Db<M::Payload> = Db::new(Geometry { slots_per_page });
    let complete = explorer.dfs(&db, &[], 0)?;
    Ok((explorer.report, complete))
}

#[cfg(test)]
mod tests {
    use super::*;
    use redo_methods::generalized::Generalized;
    use redo_methods::physical::Physical;
    use redo_methods::physiological::Physiological;
    use redo_workload::pages::PageWorkloadSpec;

    fn tiny(blind: f64, cross: f64, seed: u64) -> Vec<PageOp> {
        PageWorkloadSpec {
            n_ops: 4,
            n_pages: 2,
            slots_per_page: 4,
            blind_fraction: blind,
            cross_page_fraction: cross,
            max_writes: 1,
            ..Default::default()
        }
        .generate(seed)
    }

    #[test]
    fn physical_schedules_all_pass() {
        for seed in 0..3 {
            let ops = tiny(1.0, 0.0, seed);
            let (report, complete) =
                explore(&Physical, &ops, 4, 50_000).unwrap_or_else(|e| panic!("{e}"));
            assert!(complete, "exploration truncated: {report:?}");
            assert!(report.crashes_checked > 100);
            assert!(report.distinct_stable_states > 1);
        }
    }

    #[test]
    fn physiological_schedules_all_pass() {
        for seed in 0..3 {
            let ops = tiny(0.0, 0.0, seed);
            let (report, complete) =
                explore(&Physiological, &ops, 4, 50_000).unwrap_or_else(|e| panic!("{e}"));
            assert!(complete, "exploration truncated: {report:?}");
            assert!(report.crashes_checked > 100);
        }
    }

    #[test]
    fn generalized_schedules_all_pass() {
        for seed in 0..3 {
            let ops = tiny(0.0, 0.8, seed);
            let (report, complete) =
                explore(&Generalized, &ops, 4, 80_000).unwrap_or_else(|e| panic!("{e}"));
            assert!(complete, "exploration truncated: {report:?}");
            assert!(report.crashes_checked > 100);
        }
    }

    #[test]
    fn generalized_multi_page_schedules_all_pass() {
        // §5's atomic multi-page installs under exhaustive scheduling:
        // no flush order may ever part-install a write set.
        for seed in 0..2 {
            let ops = PageWorkloadSpec {
                n_ops: 4,
                n_pages: 2,
                slots_per_page: 4,
                multi_page_fraction: 0.7,
                max_writes: 1,
                ..Default::default()
            }
            .generate(seed);
            let (report, complete) =
                explore(&Generalized, &ops, 4, 80_000).unwrap_or_else(|e| panic!("{e}"));
            assert!(complete, "exploration truncated: {report:?}");
        }
    }

    #[test]
    fn exploration_respects_node_limit() {
        let ops = tiny(1.0, 0.0, 0);
        let (report, complete) = explore(&Physical, &ops, 4, 50).unwrap();
        assert!(!complete);
        assert!(report.nodes <= 50);
    }
}
