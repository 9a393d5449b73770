//! The crash-injection harness: runs a workload under a recovery method
//! with randomized cache flushes, periodic checkpoints, and injected
//! crashes — verifying both *correctness* (recovery restores exactly the
//! durable prefix) and *theory conformance* (the recovery invariant held
//! at the instant of the crash).
//!
//! The conformance audit is the point of this whole reproduction: at
//! every crash we project the simulated disk into a theory-level
//! [`State`], project the durable operations into a theory-level
//! [`History`], take the realized redo set from the actual recovery run,
//! and check the paper's invariant — `operations(log) − redo_set` is an
//! installation-graph prefix explaining the state. Because page-op
//! semantics are bit-identical to their theory projections, the final
//! comparison is plain equality on states.

use std::collections::BTreeMap;
use std::fmt;

use rand::rngs::StdRng;
use rand::SeedableRng;
use redo_sim::backend::BackendKind;
use redo_sim::db::{Db, Geometry};
use redo_sim::fault::FaultPlan;
use redo_sim::wal::LogPayload;
use redo_sim::{SimError, SimResult};
use redo_theory::conflict::ConflictGraph;
use redo_theory::graph::NodeSet;
use redo_theory::history::History;
use redo_theory::installation::InstallationGraph;
use redo_theory::invariant::recovery_invariant;
use redo_theory::log::{Log, Lsn};
use redo_theory::state::State;
use redo_theory::state_graph::StateGraph;
use redo_workload::pages::PageOp;

use crate::{RecoveryMethod, RecoveryStats};

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct HarnessConfig {
    /// Take a checkpoint after every `n` operations.
    pub checkpoint_every: Option<usize>,
    /// Crash (and recover) after every `n` operations.
    pub crash_every: Option<usize>,
    /// Background flush probabilities `(log, pages)` applied after each
    /// operation; page chaos is suppressed for methods that forbid it.
    pub chaos: Option<(f64, f64)>,
    /// RNG seed for the chaos schedule.
    pub seed: u64,
    /// Run the theory audit at every crash (quadratic-ish in history
    /// length; disable for large benchmark runs).
    pub audit: bool,
    /// Page geometry.
    pub slots_per_page: u16,
    /// Buffer pool capacity (`None` = unbounded).
    pub pool_capacity: Option<usize>,
    /// A crash-point fault to arm before the first operation: when it
    /// trips, the harness crashes the database at the next operation
    /// boundary (substrate errors in between are expected — the machine
    /// is dying) and verifies recovery as usual.
    pub fault: Option<FaultPlan>,
    /// Which stable-storage backend the run's disk and log live on:
    /// the in-memory simulation or real files in a fresh tempdir.
    pub backend: BackendKind,
    /// How many per-partition log shards the database's WAL is split
    /// into (a power of two; `1` is the classic single log). Sharding
    /// is an access-path change only — every verification in this
    /// harness is identical regardless of the count.
    pub log_shards: usize,
}

impl Default for HarnessConfig {
    fn default() -> Self {
        HarnessConfig {
            checkpoint_every: Some(10),
            crash_every: Some(16),
            chaos: Some((0.7, 0.3)),
            seed: 0,
            audit: true,
            slots_per_page: 8,
            pool_capacity: None,
            fault: None,
            backend: BackendKind::Mem,
            log_shards: 1,
        }
    }
}

/// What a harness run observed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HarnessReport {
    /// Crashes injected.
    pub crashes: u64,
    /// Operations replayed across all recoveries.
    pub total_replayed: usize,
    /// Operations bypassed as installed across all recoveries.
    pub total_skipped: usize,
    /// Operations that survived to the end (durable at every crash they
    /// predated).
    pub survivors: usize,
    /// Operations lost to crashes (their log records never became
    /// durable).
    pub lost: usize,
    /// Theory audits performed (one per crash plus one final, when
    /// enabled).
    pub audits: usize,
    /// Total log bytes appended.
    pub log_bytes: u64,
    /// Total page writes to disk.
    pub page_writes: u64,
    /// Torn pages repaired from their pre-images across all crashes.
    pub torn_repairs: usize,
    /// Torn log-tail bytes discarded across all crashes.
    pub log_tail_dropped: usize,
    /// Stable-log bytes walked by recovery scans (headers of skipped
    /// frames plus full frames of decoded records).
    pub bytes_scanned: u64,
    /// Log records actually decoded by recovery scans — with a seek
    /// index this tracks the post-checkpoint suffix, not the whole log.
    pub records_decoded: usize,
    /// Recovery scans that entered the log through a seek-index jump.
    pub seek_hits: usize,
    /// Pages warmed by recovery's batched prefetch.
    pub pages_prefetched: usize,
    /// Group-commit log forces (coalesced stable appends) over the run.
    pub log_forces: u64,
    /// Restart wall time by phase, summed over every recovery.
    pub phase_ns: crate::PhaseNanos,
}

/// Why a harness run failed.
#[derive(Clone, Debug)]
pub enum HarnessFailure {
    /// The substrate refused an operation.
    Sim(SimError),
    /// The recovery invariant did not hold at a crash.
    Invariant {
        /// Which crash (1-based).
        crash: u64,
        /// The violation, rendered.
        detail: String,
    },
    /// Recovery produced a state different from the durable prefix's
    /// final state.
    StateMismatch {
        /// Which crash (1-based), or `None` for the end-of-run check.
        crash: Option<u64>,
    },
    /// The harness itself failed an out-of-band I/O step (e.g. the media
    /// auditor deleting a page file behind the database's back).
    Io(String),
}

impl fmt::Display for HarnessFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessFailure::Sim(e) => write!(f, "substrate error: {e}"),
            HarnessFailure::Invariant { crash, detail } => {
                write!(f, "recovery invariant violated at crash {crash}: {detail}")
            }
            HarnessFailure::StateMismatch { crash: Some(c) } => {
                write!(f, "recovered state mismatches durable prefix at crash {c}")
            }
            HarnessFailure::StateMismatch { crash: None } => {
                write!(f, "final state mismatches surviving operations")
            }
            HarnessFailure::Io(detail) => write!(f, "harness i/o failed: {detail}"),
        }
    }
}

impl std::error::Error for HarnessFailure {}

impl From<SimError> for HarnessFailure {
    fn from(e: SimError) -> Self {
        HarnessFailure::Sim(e)
    }
}

/// The theory's view of a durable prefix: the one oracle every crash
/// flow checks a completed recovery against (Corollary 4).
pub struct DurablePrefix {
    cg: ConflictGraph,
    ig: InstallationGraph,
    sg: StateGraph,
    log: Log,
    position_of: BTreeMap<u32, usize>,
}

impl DurablePrefix {
    /// Projects `durable` — the operations whose log records survived,
    /// in log order — into the theory.
    #[must_use]
    pub fn of(durable: &[PageOp], slots_per_page: u16) -> DurablePrefix {
        let history = History::renumbering(
            durable
                .iter()
                .map(|op| op.to_operation(slots_per_page))
                .collect(),
        );
        let cg = ConflictGraph::generate(&history);
        DurablePrefix {
            ig: InstallationGraph::from_conflict(&cg),
            sg: StateGraph::from_conflict(&history, &cg, &State::zeroed()),
            log: Log::from_history(&history),
            position_of: (durable.iter().enumerate())
                .map(|(i, op)| (op.id, i))
                .collect(),
            cg,
        }
    }

    /// The state the prefix leaves: what every recovery must rebuild.
    #[must_use]
    pub fn final_state(&self) -> State {
        self.sg.final_state()
    }

    /// Checks one *completed* recovery, the `crash`-th of its run:
    /// `recovered` is the prefix's final state, every replayed
    /// operation is durable, and the realized redo set satisfies the
    /// Recovery Invariant against `pre_disk`, the repaired stable state
    /// recovery started from.
    ///
    /// # Errors
    ///
    /// The first of those three that does not hold.
    pub fn verify(
        &self,
        stats: &RecoveryStats,
        recovered: &State,
        pre_disk: &State,
        crash: u64,
    ) -> Result<(), HarnessFailure> {
        if *recovered != self.final_state() {
            return Err(HarnessFailure::StateMismatch { crash: Some(crash) });
        }
        let invariant = |detail| HarnessFailure::Invariant { crash, detail };
        let mut redo_set = NodeSet::new(self.position_of.len());
        for id in &stats.replayed {
            let pos = (self.position_of.get(id)).ok_or_else(|| {
                invariant(format!("recovery replayed non-durable operation {id}"))
            })?;
            redo_set.insert(*pos);
        }
        recovery_invariant(&self.cg, &self.ig, &self.sg, &self.log, &redo_set, pre_disk)
            .map_err(|v| invariant(v.to_string()))
    }
}

/// Reads a substrate result on a machine that may be dying: once the
/// armed fault has tripped, post-trip I/O is suppressed and errors are
/// expected (`Ok(None)`) until the crash; an error *without* a trip is
/// a genuine failure.
///
/// # Errors
///
/// The substrate error, when no fault excuses it.
pub fn dying<P: LogPayload, T>(
    db: &Db<P>,
    result: SimResult<T>,
) -> Result<Option<T>, HarnessFailure> {
    match result {
        Ok(v) => Ok(Some(v)),
        Err(_) if db.fault_tripped() => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// The one workload driver: runs operations under a method with
/// background chaos and checkpoints until the armed fault trips, and
/// owns the durable-prefix rule — **an operation is in the durable
/// prefix iff its log record is, whether or not `execute` returned**.
/// `execute` appends before it applies, and under a small pool the
/// apply's steal path forces the log (the operation's own record
/// included) before the dying machine's suppressed victim write fails
/// the fetch: the record is durable and recovery rightly replays it.
pub struct Driver<'a, M: RecoveryMethod> {
    method: &'a M,
    chaos: Option<(f64, f64)>,
    checkpoint_every: Option<usize>,
    attempted: usize,
    logged: Vec<(PageOp, Lsn)>,
    in_doubt: Option<Lsn>,
}

impl<'a, M: RecoveryMethod> Driver<'a, M> {
    /// A driver applying `chaos` (`(log, page)` flush probabilities;
    /// page chaos is suppressed for methods that forbid it) after every
    /// operation and `method`'s checkpoint after every
    /// `checkpoint_every`-th.
    #[must_use]
    pub fn new(method: &'a M, chaos: Option<(f64, f64)>, checkpoint_every: Option<usize>) -> Self {
        Driver {
            method,
            chaos,
            checkpoint_every,
            attempted: 0,
            logged: Vec::new(),
            in_doubt: None,
        }
    }

    /// Operations attempted so far, across calls to [`Driver::run`].
    #[must_use]
    pub fn attempted(&self) -> usize {
        self.attempted
    }

    /// The LSN of the operation left *in doubt*, if one was: its append
    /// took an LSN, then `execute` failed under the tripped fault.
    #[must_use]
    pub fn in_doubt(&self) -> Option<Lsn> {
        self.in_doubt
    }

    /// Runs `ops` in order until the armed fault trips or they end.
    ///
    /// # Errors
    ///
    /// A substrate error with no tripped fault as an excuse.
    pub fn run(
        &mut self,
        db: &mut Db<M::Payload>,
        ops: &[PageOp],
        rng: &mut StdRng,
    ) -> Result<(), HarnessFailure> {
        for op in ops {
            let before = db.log.last_lsn();
            let executed = self.method.execute(db, op);
            let lsn = dying(db, executed)?.or_else(|| {
                // An `Err` under a tripped fault whose append took an
                // LSN: the repaired stable LSN decides it.
                self.in_doubt = Some(db.log.last_lsn()).filter(|lsn| *lsn > before);
                self.in_doubt
            });
            self.logged.extend(lsn.map(|lsn| (op.clone(), lsn)));
            self.attempted += 1;
            if let Some((log_p, page_p)) = self.chaos {
                let page_p = if self.method.allows_page_chaos() {
                    page_p
                } else {
                    0.0
                };
                let flushed = db.chaos_flush(rng, log_p, page_p);
                dying(db, flushed)?;
            }
            let cadence = self.checkpoint_every;
            if cadence.is_some_and(|k| self.attempted.is_multiple_of(k)) {
                let taken = self.method.checkpoint(db);
                dying(db, taken)?;
            }
            if db.fault_tripped() {
                break;
            }
        }
        Ok(())
    }

    /// The durable prefix of a crashed **and repaired** `db`, with
    /// LSNs: every operation this driver logged whose record reached
    /// the stable log. Everything after is forgotten — lost, by design
    /// of redo-only recovery.
    pub fn durable(&mut self, db: &Db<M::Payload>) -> &[(PageOp, Lsn)] {
        let stable = db.log.stable_lsn();
        self.logged.retain(|(_, lsn)| *lsn <= stable);
        &self.logged
    }
}

/// The operations of a [`Driver::durable`] prefix.
#[must_use]
pub fn ops_of(logged: &[(PageOp, Lsn)]) -> Vec<PageOp> {
    logged.iter().map(|(op, _)| op.clone()).collect()
}

/// Runs `ops` under `method` per `cfg`. See the module docs for what is
/// verified.
///
/// # Errors
///
/// [`HarnessFailure`] describing the first violation found.
pub fn run<M: RecoveryMethod>(
    method: &M,
    ops: &[PageOp],
    cfg: &HarnessConfig,
) -> Result<HarnessReport, HarnessFailure> {
    let mut db: Db<M::Payload> = Db::on_sharded(
        cfg.backend,
        Geometry {
            slots_per_page: cfg.slots_per_page,
        },
        cfg.pool_capacity,
        cfg.log_shards,
    );
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut report = HarnessReport::default();
    // The driver's log holds the operations the system has promised to
    // keep: durable at every crash that has happened since they ran.
    let mut driver = Driver::new(method, cfg.chaos, cfg.checkpoint_every);
    if let Some(plan) = cfg.fault {
        db.arm_faults(plan);
    }
    // Drive up to the next scheduled crash; a tripped fault crashes at
    // the operation boundary it stopped the driver on.
    let every = cfg.crash_every.unwrap_or(usize::MAX);
    while driver.attempted() < ops.len() {
        let from = driver.attempted();
        let until = ops.len().min((from / every + 1).saturating_mul(every));
        driver.run(&mut db, &ops[from..until], &mut rng)?;
        if db.fault_tripped() || driver.attempted().is_multiple_of(every) {
            crash_and_verify(method, &mut db, &mut driver, cfg, &mut report)?;
        }
    }

    // End-of-run verification against the surviving operations.
    let survivors = ops_of(&driver.logged);
    report.survivors = survivors.len();
    report.lost = ops.len() - survivors.len();
    if db.volatile_theory_state() != DurablePrefix::of(&survivors, cfg.slots_per_page).final_state()
    {
        return Err(HarnessFailure::StateMismatch { crash: None });
    }
    if cfg.audit {
        report.audits += 1;
    }
    report.log_bytes = db.log.appended_bytes();
    report.page_writes = db.disk.page_writes();
    report.log_forces = db.log.forces();
    Ok(report)
}

fn crash_and_verify<M: RecoveryMethod>(
    method: &M,
    db: &mut Db<M::Payload>,
    driver: &mut Driver<'_, M>,
    cfg: &HarnessConfig,
    report: &mut HarnessReport,
) -> Result<(), HarnessFailure> {
    db.crash();
    report.crashes += 1;
    // Media repair precedes everything: a torn page projects garbage
    // and a torn log tail reads as corruption, so the theory snapshot
    // below is taken from the repaired (= explainable) image — exactly
    // the state recovery itself starts from.
    let repair = db.repair_after_crash();
    report.torn_repairs += repair.torn_pages.len();
    report.log_tail_dropped += repair.log_bytes_dropped;
    let pre_crash_disk = db.stable_theory_state();
    let oracle = DurablePrefix::of(&ops_of(driver.durable(db)), cfg.slots_per_page);
    let stats = method.recover(db)?;
    report.total_replayed += stats.replay_count();
    report.total_skipped += stats.skipped.len();
    report.bytes_scanned += stats.bytes_scanned;
    report.records_decoded += stats.records_decoded;
    report.seek_hits += stats.seek_hits;
    report.pages_prefetched += stats.pages_prefetched;
    report.phase_ns += stats.phase_ns;

    let recovered = db.volatile_theory_state();
    if cfg.audit {
        oracle.verify(&stats, &recovered, &pre_crash_disk, report.crashes)?;
        report.audits += 1;
    } else if recovered != oracle.final_state() {
        // Correctness only: the recovered (volatile) state is the
        // durable prefix's final state, numerically.
        let crash = Some(report.crashes);
        return Err(HarnessFailure::StateMismatch { crash });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generalized::Generalized;
    use crate::logical::Logical;
    use crate::physical::Physical;
    use crate::physiological::Physiological;
    use crate::testkit::{blind_workload, single_page_workload};
    use redo_workload::pages::PageWorkloadSpec;

    fn phys_workload(seed: u64) -> Vec<PageOp> {
        blind_workload(60, 6, seed)
    }

    fn physio_workload(seed: u64) -> Vec<PageOp> {
        single_page_workload(60, 6, seed)
    }

    fn general_workload(seed: u64) -> Vec<PageOp> {
        PageWorkloadSpec {
            n_ops: 60,
            n_pages: 6,
            cross_page_fraction: 0.5,
            blind_fraction: 0.1,
            ..Default::default()
        }
        .generate(seed)
    }

    /// The oracle over a small single-page workload, with the stats of
    /// a recovery that replays all of it from an empty disk.
    fn oracle_and_full_replay() -> (DurablePrefix, RecoveryStats) {
        let ops = single_page_workload(6, 2, 1);
        let stats = RecoveryStats {
            replayed: ops.iter().map(|op| op.id).collect(),
            ..Default::default()
        };
        (DurablePrefix::of(&ops, 8), stats)
    }

    #[test]
    fn oracle_accepts_a_full_replay_and_rejects_a_state_mismatch() {
        let (oracle, stats) = oracle_and_full_replay();
        let (fin, empty) = (oracle.final_state(), State::zeroed());
        oracle.verify(&stats, &fin, &empty, 1).unwrap();
        let err = oracle.verify(&stats, &empty, &empty, 3).unwrap_err();
        assert!(
            matches!(err, HarnessFailure::StateMismatch { crash: Some(3) }),
            "{err}"
        );
    }

    #[test]
    fn oracle_rejects_a_replayed_operation_that_is_not_durable() {
        let (oracle, mut stats) = oracle_and_full_replay();
        stats.replayed.push(999);
        let fin = oracle.final_state();
        let err = oracle
            .verify(&stats, &fin, &State::zeroed(), 1)
            .unwrap_err();
        assert!(
            err.to_string().contains("non-durable operation 999"),
            "{err}"
        );
    }

    #[test]
    fn oracle_rejects_a_bypassed_set_that_does_not_explain_the_disk() {
        // Nothing replayed from an empty disk: every operation is
        // claimed installed, and the zeroed state shows none of them.
        let (oracle, _) = oracle_and_full_replay();
        let fin = oracle.final_state();
        let err = oracle
            .verify(&RecoveryStats::default(), &fin, &State::zeroed(), 1)
            .unwrap_err();
        assert!(matches!(err, HarnessFailure::Invariant { .. }), "{err}");
        assert!(!err.to_string().contains("non-durable"), "{err}");
    }

    #[test]
    fn an_operation_whose_own_record_the_steal_path_forced_is_durable() {
        // Two frames hold Figure 8's x and y, with x blocked until y is
        // durable. A fourth op pins y, appends (LSN 4) and faults a
        // third page in: the steal forces the log — records 1 to 4, its
        // own included — then must flush y to unblock its only victim,
        // x. A clean stop on that write (event 5) fails the fetch.
        use redo_workload::pages::{Cell, PageId, PageOpKind, SlotId};
        let cell = |page| Cell {
            page: PageId(page),
            slot: SlotId(0),
        };
        let mut ops = crate::testkit::figure8_ops().to_vec();
        ops.push(PageOp {
            id: 3,
            kind: PageOpKind::Generalized,
            reads: vec![cell(2), cell(1)],
            writes: vec![cell(1)],
            f_seed: 4,
        });
        let fresh = || -> Db<_> {
            let db = Db::with_capacity(Geometry::default(), Some(2));
            db.arm_faults(FaultPlan {
                at: 5,
                kind: redo_sim::fault::FaultKind::Clean,
            });
            db
        };

        let mut db = fresh();
        for op in &ops[..3] {
            Generalized.execute(&mut db, op).unwrap();
        }
        let err = Generalized.execute(&mut db, &ops[3]).unwrap_err();
        assert!(matches!(err, SimError::PoolExhausted), "{err}");
        assert!(db.fault_tripped());
        assert_eq!(db.log.stable_lsn(), Lsn(4), "the op's own record is stable");

        let mut db = fresh();
        let mut driver = Driver::new(&Generalized, None, None);
        let mut rng = StdRng::seed_from_u64(0);
        driver.run(&mut db, &ops, &mut rng).unwrap();
        assert_eq!(driver.in_doubt(), Some(Lsn(4)));
        db.crash();
        db.repair_after_crash();
        let durable = ops_of(driver.durable(&db));
        assert_eq!(durable, ops, "in doubt, and the stable LSN says durable");
        let pre = db.stable_theory_state();
        let stats = Generalized.recover(&mut db).unwrap();
        assert!(stats.replayed.contains(&3));
        DurablePrefix::of(&durable, 8)
            .verify(&stats, &db.volatile_theory_state(), &pre, 1)
            .unwrap();
    }

    #[test]
    fn physical_method_passes_audit() {
        for seed in 0..3 {
            let cfg = HarnessConfig {
                seed,
                ..Default::default()
            };
            let report = run(&Physical, &phys_workload(seed), &cfg).unwrap();
            assert!(report.crashes >= 3);
            assert!(report.audits > 0);
        }
    }

    #[test]
    fn physiological_method_passes_audit() {
        for seed in 0..3 {
            let cfg = HarnessConfig {
                seed,
                ..Default::default()
            };
            let report = run(&Physiological, &physio_workload(seed), &cfg).unwrap();
            assert!(report.crashes >= 3);
        }
    }

    #[test]
    fn generalized_method_passes_audit() {
        for seed in 0..3 {
            let cfg = HarnessConfig {
                seed,
                ..Default::default()
            };
            let report = run(&Generalized, &general_workload(seed), &cfg).unwrap();
            assert!(report.crashes >= 3);
        }
    }

    #[test]
    fn logical_method_passes_audit() {
        for seed in 0..3 {
            let cfg = HarnessConfig {
                seed,
                ..Default::default()
            };
            let report = run(&Logical, &general_workload(seed), &cfg).unwrap();
            assert!(report.crashes >= 3);
        }
    }

    #[test]
    fn page_lsn_test_skips_installed_work() {
        // With aggressive page flushing, physiological recovery should
        // skip a substantial share of records; physical replays all.
        let cfg = HarnessConfig {
            chaos: Some((1.0, 0.9)),
            checkpoint_every: None,
            ..Default::default()
        };
        let physio = run(&Physiological, &physio_workload(1), &cfg).unwrap();
        assert!(
            physio.total_skipped > physio.total_replayed,
            "{physio:?}: flushed pages should be bypassed"
        );
        let phys = run(&Physical, &phys_workload(1), &cfg).unwrap();
        assert_eq!(
            phys.total_skipped, 0,
            "physical replays everything since checkpoint"
        );
    }

    #[test]
    fn without_log_flushes_everything_is_lost() {
        let cfg = HarnessConfig {
            chaos: None,
            checkpoint_every: None,
            crash_every: Some(40),
            ..Default::default()
        };
        // 60 ops, crash after op 40 with a never-flushed log: the first
        // 40 vanish entirely; ops 41..60 survive only in cache.
        let report = run(&Physiological, &physio_workload(2), &cfg).unwrap();
        assert_eq!(
            report.survivors, 20,
            "ops after the last crash survive in cache"
        );
        assert_eq!(report.lost, 40);
    }

    #[test]
    fn armed_faults_trip_and_recovery_still_passes_audit() {
        // Sweep the crash point across the run: wherever the fault
        // lands — torn page write, torn log flush, or a clean stop —
        // recovery must restore the durable prefix and the invariant
        // must hold. Across the sweep both damage kinds must actually
        // occur (the sweep is vacuous if every fault degrades).
        use redo_sim::fault::FaultKind;
        let mut torn = 0usize;
        let mut dropped = 0usize;
        for at in 1..=24u64 {
            let cfg = HarnessConfig {
                chaos: Some((0.8, 0.6)),
                fault: Some(FaultPlan {
                    at,
                    kind: FaultKind::TornWrite { sectors: 1 },
                }),
                ..Default::default()
            };
            let report = run(&Physiological, &physio_workload(5), &cfg).unwrap();
            torn += report.torn_repairs;
            let cfg = HarnessConfig {
                chaos: Some((0.8, 0.6)),
                fault: Some(FaultPlan {
                    at,
                    kind: FaultKind::TornFlush { bytes: 5 },
                }),
                ..Default::default()
            };
            let report = run(&Physiological, &physio_workload(5), &cfg).unwrap();
            dropped += report.log_tail_dropped;
        }
        assert!(torn > 0, "no torn write ever landed in the sweep");
        assert!(dropped > 0, "no torn flush ever landed in the sweep");
    }

    #[test]
    fn scan_telemetry_reaches_the_report() {
        let cfg = HarnessConfig {
            chaos: Some((1.0, 0.3)),
            checkpoint_every: Some(8),
            crash_every: Some(13),
            ..Default::default()
        };
        let report = run(&Physiological, &physio_workload(4), &cfg).unwrap();
        assert!(report.crashes >= 3);
        assert!(report.bytes_scanned > 0, "{report:?}");
        assert!(report.log_forces > 0, "{report:?}");
        // Recovery decodes exactly what it scans: every replayed or
        // skipped operation was decoded, plus only checkpoint records.
        assert!(
            report.records_decoded >= report.total_replayed + report.total_skipped,
            "{report:?}"
        );
        // Checkpoints advance the master, and the seek index lets the
        // scan jump past the checkpointed prefix at least once.
        assert!(report.seek_hits > 0, "{report:?}");
        assert!(report.pages_prefetched > 0, "{report:?}");
    }

    #[test]
    fn checkpoints_reduce_replay_volume() {
        let base = HarnessConfig {
            chaos: Some((1.0, 0.0)),
            crash_every: Some(20),
            checkpoint_every: None,
            ..Default::default()
        };
        let no_ckpt = run(&Physical, &phys_workload(3), &base).unwrap();
        let with_ckpt = run(
            &Physical,
            &phys_workload(3),
            &HarnessConfig {
                checkpoint_every: Some(5),
                ..base
            },
        )
        .unwrap();
        assert!(
            with_ckpt.total_replayed < no_ckpt.total_replayed,
            "{} !< {}",
            with_ckpt.total_replayed,
            no_ckpt.total_replayed
        );
    }
}
