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
use redo_sim::SimError;
use redo_theory::conflict::ConflictGraph;
use redo_theory::graph::NodeSet;
use redo_theory::history::History;
use redo_theory::installation::InstallationGraph;
use redo_theory::invariant::recovery_invariant;
use redo_theory::log::Log;
use redo_theory::state::State;
use redo_theory::state_graph::StateGraph;
use redo_workload::pages::PageOp;

use crate::RecoveryMethod;

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

struct TheoryView {
    history: History,
    cg: ConflictGraph,
    ig: InstallationGraph,
    sg: StateGraph,
    log: Log,
    position_of: BTreeMap<u32, usize>,
}

fn theory_view(committed: &[PageOp], slots_per_page: u16) -> TheoryView {
    let history = History::renumbering(
        committed
            .iter()
            .map(|op| op.to_operation(slots_per_page))
            .collect(),
    );
    let cg = ConflictGraph::generate(&history);
    let ig = InstallationGraph::from_conflict(&cg);
    let sg = StateGraph::from_conflict(&history, &cg, &State::zeroed());
    let log = Log::from_history(&history);
    let position_of = committed
        .iter()
        .enumerate()
        .map(|(i, op)| (op.id, i))
        .collect();
    TheoryView {
        history,
        cg,
        ig,
        sg,
        log,
        position_of,
    }
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
    // Operations whose effects the system has promised to keep: durable
    // at every crash that has happened since they ran.
    let mut committed: Vec<(PageOp, redo_theory::log::Lsn)> = Vec::new();

    if let Some(plan) = cfg.fault {
        db.arm_faults(plan);
    }

    for (i, op) in ops.iter().enumerate() {
        // Once the armed fault trips, the machine is dying: substrate
        // errors are expected (post-trip I/O is suppressed, so e.g. a
        // checkpoint's page flush sees a WAL violation) and the next
        // operation boundary crashes for real. An error WITHOUT a trip
        // is a genuine failure.
        match method.execute(&mut db, op) {
            Ok(lsn) => committed.push((op.clone(), lsn)),
            Err(_) if db.fault_tripped() => {}
            Err(e) => return Err(e.into()),
        }
        if let Some((log_p, page_p)) = cfg.chaos {
            let page_p = if method.allows_page_chaos() {
                page_p
            } else {
                0.0
            };
            match db.chaos_flush(&mut rng, log_p, page_p) {
                Ok(()) => {}
                Err(_) if db.fault_tripped() => {}
                Err(e) => return Err(e.into()),
            }
        }
        if let Some(k) = cfg.checkpoint_every {
            if (i + 1) % k == 0 {
                match method.checkpoint(&mut db) {
                    Ok(()) => {}
                    Err(_) if db.fault_tripped() => {}
                    Err(e) => return Err(e.into()),
                }
            }
        }
        let scheduled_crash = cfg.crash_every.is_some_and(|k| (i + 1) % k == 0);
        if db.fault_tripped() || scheduled_crash {
            crash_and_verify(method, &mut db, &mut committed, cfg, &mut report)?;
        }
    }

    // End-of-run verification against the surviving operations.
    let survivors: Vec<PageOp> = committed.iter().map(|(op, _)| op.clone()).collect();
    report.survivors = survivors.len();
    report.lost = ops.len() - survivors.len();
    let view = theory_view(&survivors, cfg.slots_per_page);
    if db.volatile_theory_state() != view.sg.final_state() {
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
    committed: &mut Vec<(PageOp, redo_theory::log::Lsn)>,
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
    let stable = db.log.stable_lsn();
    let pre_crash_disk = db.stable_theory_state();
    // Durable prefix: operations whose log records reached the stable
    // log. Everything after is lost, by design of redo-only recovery.
    committed.retain(|(_, lsn)| *lsn <= stable);
    let stats = method.recover(db)?;
    report.total_replayed += stats.replay_count();
    report.total_skipped += stats.skipped.len();
    report.bytes_scanned += stats.bytes_scanned;
    report.records_decoded += stats.records_decoded;
    report.seek_hits += stats.seek_hits;
    report.pages_prefetched += stats.pages_prefetched;

    let durable: Vec<PageOp> = committed.iter().map(|(op, _)| op.clone()).collect();
    let view = theory_view(&durable, cfg.slots_per_page);

    // Correctness: the recovered (volatile) state is the durable
    // prefix's final state, numerically.
    if db.volatile_theory_state() != view.sg.final_state() {
        return Err(HarnessFailure::StateMismatch {
            crash: Some(report.crashes),
        });
    }

    if cfg.audit {
        // Theory conformance: the realized redo set satisfied the
        // recovery invariant against the pre-recovery disk state.
        let mut redo_set = NodeSet::new(view.history.len());
        for id in &stats.replayed {
            match view.position_of.get(id) {
                Some(&pos) => {
                    redo_set.insert(pos);
                }
                None => {
                    return Err(HarnessFailure::Invariant {
                        crash: report.crashes,
                        detail: format!("recovery replayed non-durable operation {id}"),
                    })
                }
            }
        }
        if let Err(v) = recovery_invariant(
            &view.cg,
            &view.ig,
            &view.sg,
            &view.log,
            &redo_set,
            &pre_crash_disk,
        ) {
            return Err(HarnessFailure::Invariant {
                crash: report.crashes,
                detail: v.to_string(),
            });
        }
        report.audits += 1;
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
