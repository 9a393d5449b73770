//! Seeded crash-schedule audit with fault injection.
//!
//! [`crate::exhaustive`] enumerates every *flush* schedule of a tiny
//! workload, but its crashes are polite: whole pages, whole log
//! records. This module samples many larger schedules and makes the
//! crashes hostile — each schedule arms a random
//! [`FaultPlan`](redo_sim::fault::FaultPlan) (a clean stop, a torn page
//! write, or a partial log flush at a random faultable I/O event) and
//! then drives the method through the full degradation loop the paper's
//! Corollary 4 must survive:
//!
//! 1. **Run** the workload with background chaos and checkpoints until
//!    the fault trips (or the workload ends), then crash and run media
//!    repair ([`redo_sim::db::Db::repair_after_crash`]).
//! 2. **Probe recovery**: on a clone of the crashed image, run recovery
//!    to completion and check the Recovery Invariant — the realized
//!    redo set joined with the repaired disk state must be explained by
//!    an installation-graph prefix of the durable history — plus exact
//!    state equality with the durable prefix's final state. A *second*
//!    clone recovers with the LSN seek index disabled: the index is
//!    purely an access-path optimization, so both probes must reach the
//!    identical recovered state with identical semantic redo stats. A
//!    *third* clone — for methods whose discipline admits one — runs
//!    the page-partitioned **parallel restart**
//!    ([`RecoveryMethod::parallel_restart`]) and must reach the same
//!    state while passing the invariant for its own redo set. A
//!    *fourth* clone — for methods implementing the instant-restart
//!    path ([`RecoveryMethod::ondemand_restart`]) — opens immediately
//!    and serves a read probe on every durable cell, in a shuffled
//!    order, *while recovery is still running*; each mid-recovery value
//!    must equal what the page finally holds, and the drained state
//!    must match the sequential probe exactly. The hook runs both faces
//!    of the lazy executor — the sequential restart and
//!    `SharedDb::open_on_demand` over the same image — and fails if
//!    they disagree on any probe, mid-recovery or drained.
//! 3. **Crash mid-recovery**: on the real image, arm a *second* fault
//!    plan and run recovery again, then crash unconditionally. Because
//!    recovery's replay is volatile until a post-recovery checkpoint,
//!    this discards all of recovery's work regardless of where the
//!    fault landed; for methods whose recovery does touch stable
//!    storage (evictions under a bounded pool), the armed plan
//!    additionally tears or suppresses that I/O partway.
//! 4. **Recover again** after repairing, and verify the invariant and
//!    final state once more.
//! 5. **Idempotence**: crash and recover a third time; the recovered
//!    state must be unchanged.
//! 6. **Checkpoint, crash, recover**: take the method's checkpoint of
//!    what the restart left in the pool — under a fuzzy discipline that
//!    publishes *recovery's* dirty-page table and archives the log
//!    below its redo-start — then crash and recover a fourth time. The
//!    state must again be unchanged: every executor's pool bookkeeping
//!    has to be something the next checkpoint may truthfully publish.
//!
//! The invariant is checked after *every completed* recovery (steps 2,
//! 4, 5, and 6) — an interrupted recovery has no realized redo set to
//! check, only the obligation that the next one still succeeds.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redo_methods::harness::HarnessFailure;
use redo_methods::online::GeneralizedOnline;
use redo_methods::oprecord::PageOpPayload;
use redo_methods::{RecoveryMethod, RecoveryStats};
use redo_sim::backend::BackendKind;
use redo_sim::db::{Db, Geometry};
use redo_sim::fault::{FaultKind, FaultPlan, InjectedFault};
use redo_theory::conflict::ConflictGraph;
use redo_theory::graph::NodeSet;
use redo_theory::history::History;
use redo_theory::installation::InstallationGraph;
use redo_theory::invariant::recovery_invariant;
use redo_theory::log::Log;
use redo_theory::log::Lsn;
use redo_theory::state::State;
use redo_theory::state_graph::StateGraph;
use redo_workload::pages::{Cell, PageOp, PageWorkloadSpec};

/// Crash-audit configuration.
#[derive(Clone, Debug)]
pub struct CrashAuditConfig {
    /// Seeded crash schedules per method.
    pub schedules: u64,
    /// Operations per schedule.
    pub n_ops: usize,
    /// Pages in the workload.
    pub n_pages: u32,
    /// Base RNG seed; schedule `s` derives its own stream from it.
    pub seed: u64,
    /// Buffer-pool capacity (`None` = unbounded). Methods that forbid
    /// page chaos (logical) always get an unbounded pool: an eviction
    /// is a page write, and their discipline freezes the disk between
    /// checkpoints.
    pub pool_capacity: Option<usize>,
    /// Checkpoint cadence within a schedule.
    pub checkpoint_every: Option<usize>,
    /// Background `(log, page)` flush probabilities; page chaos is
    /// suppressed for methods that forbid it.
    pub chaos: Option<(f64, f64)>,
    /// Page geometry.
    pub slots_per_page: u16,
    /// Which stable-storage backend each schedule's disk and log live
    /// on: the in-memory simulation, or real files in a fresh tempdir
    /// (every probe clone deep-copies into its own directory, so the
    /// degradation loop exercises real I/O end to end).
    pub backend: BackendKind,
    /// How many per-partition log shards the WAL is split into (a power
    /// of two; `1` is the classic single log). With more than one
    /// shard, multi-page records become cross-shard atomic flush
    /// groups, so the injected faults now land *between* a group's
    /// closure markers too — the audit proves the epoch-closure
    /// analysis makes every group all-or-nothing.
    pub log_shards: usize,
}

impl Default for CrashAuditConfig {
    fn default() -> Self {
        CrashAuditConfig {
            schedules: 100,
            n_ops: 40,
            n_pages: 6,
            seed: 0,
            pool_capacity: Some(4),
            checkpoint_every: Some(7),
            chaos: Some((0.7, 0.4)),
            slots_per_page: 8,
            backend: BackendKind::Mem,
            log_shards: 1,
        }
    }
}

/// What a crash audit observed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashAuditReport {
    /// Schedules driven.
    pub schedules: u64,
    /// Total crashes injected (four per schedule).
    pub crashes: u64,
    /// Crashes that discarded an in-flight recovery (one per schedule).
    pub mid_recovery_crashes: u64,
    /// Armed faults that actually fired.
    pub faults_tripped: u64,
    /// Fired faults that tore a page write.
    pub torn_writes: u64,
    /// Fired faults that truncated a log flush.
    pub torn_flushes: u64,
    /// Fired faults that stopped the machine cleanly (planned, or a
    /// torn kind that degraded on the wrong device).
    pub clean_stops: u64,
    /// Torn pages restored from their pre-images.
    pub torn_pages_repaired: usize,
    /// Torn log-tail bytes discarded.
    pub log_bytes_dropped: usize,
    /// Completed recoveries whose invariant and final state were
    /// verified (four per schedule).
    pub recoveries_verified: u64,
    /// Seek-index equivalence probes: recoveries re-run with the seek
    /// index disabled that reached the identical durable state and
    /// semantic redo stats (one per schedule).
    pub seekless_probes: u64,
    /// Parallel-restart equivalence probes: crashed images re-recovered
    /// through the page-partitioned parallel path
    /// ([`RecoveryMethod::parallel_restart`]) that reached the identical
    /// durable state and passed the Recovery Invariant (one per schedule
    /// for methods whose discipline admits a parallel restart; zero for
    /// the rest).
    pub parallel_probes: u64,
    /// On-demand (instant restart) equivalence probes: crashed images
    /// reopened through [`RecoveryMethod::ondemand_restart`], serving
    /// every durable cell mid-recovery, whose served values matched the
    /// final page contents and whose drained state matched the
    /// sequential probe (one per schedule for methods with a lazy
    /// path; zero for the rest).
    pub ondemand_probes: u64,
    /// Operations replayed across all verified recoveries.
    pub replayed: usize,
    /// Operations bypassed as installed across all verified recoveries.
    pub skipped: usize,
}

/// A schedule on which the method failed.
#[derive(Clone, Debug)]
pub struct CrashAuditFailure {
    /// The method under audit.
    pub method: &'static str,
    /// Which schedule (0-based).
    pub schedule: u64,
    /// Which step of the degradation loop.
    pub phase: &'static str,
    /// What went wrong.
    pub failure: HarnessFailure,
}

impl fmt::Display for CrashAuditFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: schedule {} failed during {}: {}",
            self.method, self.schedule, self.phase, self.failure
        )
    }
}

impl std::error::Error for CrashAuditFailure {}

/// The theory-level projection of a durable prefix.
struct View {
    cg: ConflictGraph,
    ig: InstallationGraph,
    sg: StateGraph,
    log: Log,
    n: usize,
    position_of: BTreeMap<u32, usize>,
}

fn view_of(durable: &[PageOp], spp: u16) -> View {
    let history = History::renumbering(durable.iter().map(|op| op.to_operation(spp)).collect());
    let cg = ConflictGraph::generate(&history);
    let ig = InstallationGraph::from_conflict(&cg);
    let sg = StateGraph::from_conflict(&history, &cg, &State::zeroed());
    let log = Log::from_history(&history);
    let n = history.len();
    let position_of = durable
        .iter()
        .enumerate()
        .map(|(i, op)| (op.id, i))
        .collect();
    View {
        cg,
        ig,
        sg,
        log,
        n,
        position_of,
    }
}

/// Checks one *completed* recovery: exact state equality with the
/// durable prefix's final state, and the Recovery Invariant for the
/// realized redo set against the pre-recovery disk state.
fn verify_recovery(
    view: &View,
    stats: &RecoveryStats,
    recovered: &State,
    pre_disk: &State,
    crash: u64,
) -> Result<(), HarnessFailure> {
    if *recovered != view.sg.final_state() {
        return Err(HarnessFailure::StateMismatch { crash: Some(crash) });
    }
    let mut redo_set = NodeSet::new(view.n);
    for id in &stats.replayed {
        match view.position_of.get(id) {
            Some(&pos) => {
                redo_set.insert(pos);
            }
            None => {
                return Err(HarnessFailure::Invariant {
                    crash,
                    detail: format!("recovery replayed non-durable operation {id}"),
                })
            }
        }
    }
    recovery_invariant(&view.cg, &view.ig, &view.sg, &view.log, &redo_set, pre_disk).map_err(|v| {
        HarnessFailure::Invariant {
            crash,
            detail: v.to_string(),
        }
    })
}

/// Samples a fault plan whose crash point lies in `1..=max_at`.
/// The on-demand probes of one schedule: every durable cell, in an
/// order shuffled from the schedule's seed — sorted order would serve
/// each page's cells together and low pages first, which is also the
/// sweeper's order, so an executor that is only right in that order
/// would pass. The shuffle draws from its own generator: the
/// schedule's fault plans must not move.
fn probe_cells(durable: &[PageOp], cfg: &CrashAuditConfig, s: u64) -> Vec<Cell> {
    let cells: BTreeSet<Cell> = (durable.iter())
        .flat_map(|op| op.writes.iter().copied())
        .collect();
    let mut cells: Vec<Cell> = cells.into_iter().collect();
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(s) ^ 0x0de3_a9d5_eed5);
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.gen_range(0..=i));
    }
    cells
}

fn sample_plan(rng: &mut StdRng, max_at: u64) -> FaultPlan {
    let at = rng.gen_range(1..=max_at.max(1));
    let kind = match rng.gen_range(0u32..10) {
        0..=3 => FaultKind::TornWrite {
            sectors: rng.gen_range(1..=3),
        },
        4..=7 => FaultKind::TornFlush {
            bytes: rng.gen_range(1..=24),
        },
        _ => FaultKind::Clean,
    };
    FaultPlan { at, kind }
}

/// Generates the operation shapes a method's logging discipline admits
/// (mirrors the harness and the `schedules` explorer).
fn shaped_workload(method_name: &str, cfg: &CrashAuditConfig, seed: u64) -> Vec<PageOp> {
    let (cross, blind, multi) = match method_name {
        "physical" | "physical-parallel" => (0.0, 1.0, 0.0),
        "generalized-lsn" | "generalized-online" | "ondemand" | "media" | "control" => {
            (0.5, 0.1, 0.2)
        }
        "logical" => (0.5, 0.1, 0.0),
        _ => (0.0, 0.2, 0.0),
    };
    PageWorkloadSpec {
        n_ops: cfg.n_ops,
        n_pages: cfg.n_pages,
        slots_per_page: cfg.slots_per_page,
        cross_page_fraction: cross,
        multi_page_fraction: multi,
        blind_fraction: blind,
        ..Default::default()
    }
    .generate(seed)
}

/// Drives `method` through `cfg.schedules` seeded crash schedules (see
/// the module docs for the per-schedule degradation loop).
///
/// # Errors
///
/// The first schedule on which a completed recovery violated the
/// Recovery Invariant, mismatched the durable prefix's state, failed to
/// be idempotent, or the substrate refused an operation with no fault
/// armed as an excuse.
pub fn audit<M: RecoveryMethod>(
    method: &M,
    cfg: &CrashAuditConfig,
) -> Result<CrashAuditReport, CrashAuditFailure> {
    let mut report = CrashAuditReport::default();
    for s in 0..cfg.schedules {
        run_schedule(method, cfg, s, &mut report).map_err(|(phase, failure)| {
            CrashAuditFailure {
                method: method.name(),
                schedule: s,
                phase,
                failure,
            }
        })?;
        report.schedules += 1;
    }
    Ok(report)
}

/// What a delta-checkpoint (control-method) audit observed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ControlAuditReport {
    /// Schedules driven.
    pub schedules: u64,
    /// Crashes injected (two per schedule — one per twin).
    pub crashes: u64,
    /// Schedules on which the shared fault plan actually fired.
    pub faults_tripped: u64,
    /// Completed recoveries whose invariant and final state were
    /// verified (two per schedule — one per twin).
    pub recoveries_verified: u64,
    /// Schedules on which both twins survived the same durable prefix
    /// and their recovered states were bit-identical.
    pub identity_checks: u64,
    /// Schedules whose surviving master named a
    /// [`PageOpPayload::DeltaCheckpoint`] — proof the crash landed
    /// while an incremental chain was in force.
    pub delta_masters: u64,
}

/// Drives the incremental-checkpoint method through seeded crash
/// schedules as a *twin run*: two databases with identical geometry,
/// backend, workload, chaos stream, and fault plan — one checkpointing
/// through the [`Control`](redo_methods::control::Control) delta chain,
/// the other through [`GeneralizedOnline`]'s full snapshots. Both twins
/// see the same append/flush/publish event sequence (delta records
/// differ only in payload bytes), so the armed fault trips at the same
/// protocol step in each — including inside delta-chain publication.
/// After the crash each twin's recovery is verified against its own
/// durable prefix (Recovery Invariant + exact state), and whenever the
/// twins kept the same durable prefix their recovered states must be
/// bit-identical: the delta chain is an *encoding* of the full
/// snapshot, never a semantic difference.
///
/// # Errors
///
/// The first schedule on which either twin's recovery failed
/// verification, or the twins diverged on an identical durable prefix.
pub fn audit_control(cfg: &CrashAuditConfig) -> Result<ControlAuditReport, CrashAuditFailure> {
    let mut report = ControlAuditReport::default();
    for s in 0..cfg.schedules {
        run_control_schedule(cfg, s, &mut report).map_err(|(phase, failure)| {
            CrashAuditFailure {
                method: "control",
                schedule: s,
                phase,
                failure,
            }
        })?;
        report.schedules += 1;
    }
    Ok(report)
}

/// Runs one twin through the shared workload: execute each operation,
/// apply background chaos, checkpoint on the configured cadence via
/// `checkpoint`, and stop once the armed fault trips. Returns the
/// committed operations with their LSNs.
fn drive_twin(
    db: &mut Db<PageOpPayload>,
    ops: &[PageOp],
    cfg: &CrashAuditConfig,
    chaos_rng: &mut StdRng,
    checkpoint: &dyn Fn(&mut Db<PageOpPayload>) -> redo_sim::SimResult<()>,
) -> Result<Vec<(PageOp, Lsn)>, HarnessFailure> {
    let mut committed = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match redo_methods::generalized::Generalized.execute(db, op) {
            Ok(lsn) => committed.push((op.clone(), lsn)),
            Err(_) if db.fault_tripped() => {}
            Err(e) => return Err(e.into()),
        }
        if let Some((log_p, page_p)) = cfg.chaos {
            match db.chaos_flush(chaos_rng, log_p, page_p) {
                Ok(()) => {}
                Err(_) if db.fault_tripped() => {}
                Err(e) => return Err(e.into()),
            }
        }
        if cfg.checkpoint_every.is_some_and(|k| (i + 1) % k == 0) {
            match checkpoint(db) {
                Ok(()) => {}
                Err(_) if db.fault_tripped() => {}
                Err(e) => return Err(e.into()),
            }
        }
        if db.fault_tripped() {
            break;
        }
    }
    Ok(committed)
}

fn run_control_schedule(
    cfg: &CrashAuditConfig,
    s: u64,
    report: &mut ControlAuditReport,
) -> PhaseResult {
    use redo_methods::control::Control;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let ops = shaped_workload("control", cfg, cfg.seed.wrapping_add(s));
    let fail = |phase: &'static str, e: HarnessFailure| (phase, e);
    let plan = sample_plan(&mut rng, ops.len() as u64 * 4);
    let geometry = Geometry {
        slots_per_page: cfg.slots_per_page,
    };

    let mut inc: Db<PageOpPayload> =
        Db::on_sharded(cfg.backend, geometry, cfg.pool_capacity, cfg.log_shards);
    let mut full: Db<PageOpPayload> =
        Db::on_sharded(cfg.backend, geometry, cfg.pool_capacity, cfg.log_shards);
    inc.arm_faults(plan);
    full.arm_faults(plan);
    // Cloned chaos streams: both twins draw the same flush decisions.
    let mut chaos_inc = StdRng::seed_from_u64(cfg.seed ^ s.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let mut chaos_full = chaos_inc.clone();

    let committed_inc = drive_twin(&mut inc, &ops, cfg, &mut chaos_inc, &|db| {
        Control.checkpoint(db)
    })
    .map_err(|e| fail("workload", e))?;
    let committed_full = drive_twin(&mut full, &ops, cfg, &mut chaos_full, &|db| {
        GeneralizedOnline.checkpoint(db)
    })
    .map_err(|e| fail("workload", e))?;
    if inc.fault_tripped() || full.fault_tripped() {
        report.faults_tripped += 1;
    }

    inc.crash();
    full.crash();
    report.crashes += 2;
    inc.repair_after_crash();
    full.repair_after_crash();
    if matches!(
        inc.log.record_at_lsn(inc.disk.master()),
        Ok(Some(rec)) if matches!(rec.payload, PageOpPayload::DeltaCheckpoint { .. })
    ) {
        report.delta_masters += 1;
    }

    // Each twin verifies against its own durable prefix.
    let durable_inc: Vec<(u32, Lsn)> = committed_inc
        .iter()
        .filter(|(_, lsn)| *lsn <= inc.log.stable_lsn())
        .map(|(op, lsn)| (op.id, *lsn))
        .collect();
    let durable_full: Vec<(u32, Lsn)> = committed_full
        .iter()
        .filter(|(_, lsn)| *lsn <= full.log.stable_lsn())
        .map(|(op, lsn)| (op.id, *lsn))
        .collect();
    for (db, committed, method_name) in [
        (&mut inc, &committed_inc, "control recovery"),
        (&mut full, &committed_full, "full-snapshot recovery"),
    ] {
        let stable = db.log.stable_lsn();
        let durable: Vec<PageOp> = committed
            .iter()
            .filter(|(_, lsn)| *lsn <= stable)
            .map(|(op, _)| op.clone())
            .collect();
        let view = view_of(&durable, cfg.slots_per_page);
        let pre = db.stable_theory_state();
        let stats = Control
            .recover(db)
            .map_err(|e| fail(method_name, e.into()))?;
        verify_recovery(&view, &stats, &db.volatile_theory_state(), &pre, 1)
            .map_err(|e| fail(method_name, e))?;
        report.recoveries_verified += 1;
    }

    // Cross-twin identity: same durable operations at the same LSNs
    // means the recovered states must agree exactly — the delta chain
    // may change what analysis *reads*, never what recovery *rebuilds*.
    if durable_inc == durable_full {
        if inc.volatile_theory_state() != full.volatile_theory_state() {
            return Err(fail(
                "delta/full identity",
                HarnessFailure::StateMismatch { crash: Some(1) },
            ));
        }
        report.identity_checks += 1;
    }
    Ok(())
}

/// What a point-in-time (archive-tier) audit observed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PitAuditReport {
    /// Schedules driven.
    pub schedules: u64,
    /// Crashes injected (one per schedule).
    pub crashes: u64,
    /// Armed faults that actually fired.
    pub faults_tripped: u64,
    /// Schedules on which `archive ∥ live` reproduced the *entire*
    /// durable operation history, record for record (one per schedule).
    pub full_replays_verified: u64,
    /// Schedules on which replaying the point-in-time record sequence
    /// at the truncation boundary reproduced the pre-truncation state —
    /// the prefix the live log no longer holds (zero only if no
    /// checkpoint ever archived anything).
    pub truncation_replays_verified: u64,
    /// Bytes resident in the archive tiers across all schedules.
    pub archived_bytes: u64,
}

/// Drives the archive tier through seeded crash schedules and verifies
/// point-in-time recovery: the workload runs under
/// [`GeneralizedOnline`], whose published checkpoints move the
/// drained log prefix into the archive
/// ([`redo_sim::wal::ShardedLog::archive_prefix`]); after the crash,
/// [`redo_sim::wal::ShardedLog::pit_records`] must reproduce (a) the
/// entire durable operation history from `archive ∥ live`, and (b) at
/// the truncation boundary, exactly the state the system had before
/// the prefix left the live log.
///
/// # Errors
///
/// The first schedule on which an archived record went missing, a
/// phantom record appeared, or the truncation-point replay reached a
/// different state than the durable prefix it claims to reproduce.
pub fn audit_pit(cfg: &CrashAuditConfig) -> Result<PitAuditReport, CrashAuditFailure> {
    let mut report = PitAuditReport::default();
    for s in 0..cfg.schedules {
        run_pit_schedule(cfg, s, &mut report).map_err(|(phase, failure)| CrashAuditFailure {
            method: "pit",
            schedule: s,
            phase,
            failure,
        })?;
        report.schedules += 1;
    }
    Ok(report)
}

fn run_pit_schedule(cfg: &CrashAuditConfig, s: u64, report: &mut PitAuditReport) -> PhaseResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let method = GeneralizedOnline;
    let ops = shaped_workload(method.name(), cfg, cfg.seed.wrapping_add(s));
    let mut db: Db<PageOpPayload> = Db::on_sharded(
        cfg.backend,
        Geometry {
            slots_per_page: cfg.slots_per_page,
        },
        cfg.pool_capacity,
        cfg.log_shards,
    );
    let fail = |phase: &'static str, e: HarnessFailure| (phase, e);

    db.arm_faults(sample_plan(&mut rng, ops.len() as u64 * 4));
    let mut committed: Vec<(PageOp, Lsn)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match method.execute(&mut db, op) {
            Ok(lsn) => committed.push((op.clone(), lsn)),
            Err(_) if db.fault_tripped() => {}
            Err(e) => return Err(fail("workload", e.into())),
        }
        if let Some((log_p, page_p)) = cfg.chaos {
            match db.chaos_flush(&mut rng, log_p, page_p) {
                Ok(()) => {}
                Err(_) if db.fault_tripped() => {}
                Err(e) => return Err(fail("workload", e.into())),
            }
        }
        if cfg.checkpoint_every.is_some_and(|k| (i + 1) % k == 0) {
            match method.checkpoint(&mut db) {
                Ok(()) => {}
                Err(_) if db.fault_tripped() => {}
                Err(e) => return Err(fail("checkpoint", e.into())),
            }
        }
        if db.fault_tripped() {
            break;
        }
    }
    if db.fault_tripped() {
        report.faults_tripped += 1;
    }
    db.crash();
    report.crashes += 1;
    db.repair_after_crash();

    let stable = db.log.stable_lsn();
    committed.retain(|(_, lsn)| *lsn <= stable);
    let pit_ops = |upto: Lsn| -> Result<Vec<PageOp>, (&'static str, HarnessFailure)> {
        let records = db
            .log
            .pit_records(upto)
            .map_err(|e| fail("pit decode", e.into()))?;
        Ok(records
            .into_iter()
            .filter_map(|rec| match rec.payload {
                PageOpPayload::Op(op) => Some(op),
                PageOpPayload::Checkpoint
                | PageOpPayload::FuzzyCheckpoint { .. }
                | PageOpPayload::DeltaCheckpoint { .. } => None,
            })
            .collect())
    };

    // (a) Full history: `archive ∥ live` up to the stable LSN is the
    // durable operation sequence, record for record — archiving moved
    // the prefix, it did not lose, duplicate, or reorder anything.
    let durable: Vec<PageOp> = committed.iter().map(|(op, _)| op.clone()).collect();
    let replayable = pit_ops(stable)?;
    if replayable != durable {
        return Err(fail(
            "pit full replay",
            HarnessFailure::Invariant {
                crash: 1,
                detail: format!(
                    "archive ∥ live holds {} replayable operations, durable history has {}",
                    replayable.len(),
                    durable.len()
                ),
            },
        ));
    }
    report.full_replays_verified += 1;

    // (b) Truncation point: replaying the point-in-time sequence at the
    // archive/live boundary must reproduce the state the system had
    // when that prefix was truncated — records the live log no longer
    // holds at all.
    let boundary = db.log.first_stable();
    if boundary > Lsn(1) && stable >= boundary {
        let upto = Lsn(boundary.0 - 1);
        let replayed = view_of(&pit_ops(upto)?, cfg.slots_per_page)
            .sg
            .final_state();
        let prefix: Vec<PageOp> = committed
            .iter()
            .filter(|(_, lsn)| *lsn <= upto)
            .map(|(op, _)| op.clone())
            .collect();
        if replayed != view_of(&prefix, cfg.slots_per_page).sg.final_state() {
            return Err(fail(
                "pit truncation replay",
                HarnessFailure::StateMismatch { crash: Some(1) },
            ));
        }
        report.truncation_replays_verified += 1;
    }
    report.archived_bytes += db.log.archived_bytes();
    Ok(())
}

/// What a media-recovery audit observed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MediaAuditReport {
    /// Schedules driven.
    pub schedules: u64,
    /// Crashes injected across all schedules.
    pub crashes: u64,
    /// Armed faults that actually fired (workload or interrupted leg).
    pub faults_tripped: u64,
    /// Pages destroyed by the media-failure adversary (one per schedule
    /// whose crashed image had any durable page; zero-page images skip
    /// the damage legs).
    pub pages_destroyed: u64,
    /// Damaged images whose sequential media recovery reached state
    /// identity with the undamaged probe.
    pub rebuilds_verified: u64,
    /// Damaged images whose on-demand restart (lost page gated, image
    /// installed lazily) reached the same identity, serving every
    /// durable cell mid-recovery.
    pub ondemand_rebuilds_verified: u64,
    /// Damaged images whose rebuild was interrupted by a second armed
    /// fault, re-crashed, and still converged to the undamaged state —
    /// the idempotence leg.
    pub interrupted_rebuilds_verified: u64,
    /// File-backend schedules that deleted the shard page file outright.
    pub file_deletions: u64,
    /// File-backend schedules that truncated the page file out-of-band
    /// (`truncate(2)` to zero length).
    pub file_truncations: u64,
}

/// Drives media recovery through seeded crash schedules: run a
/// [`Media`](redo_methods::media::Media) workload with chaos,
/// checkpoints, and an armed fault; crash; then destroy one durable
/// page **out-of-band** — [`Db::destroy_page`](redo_sim::disk::Disk::destroy_page)
/// on the memory backend, a deleted or `truncate(2)`-zeroed page file
/// on the file backend — and demand that media recovery rebuilds the
/// damaged image to *state identity* with an undamaged probe of the
/// same crash, through the sequential path, the on-demand path, and
/// across a second fault injected mid-rebuild.
///
/// The Recovery Invariant is checked on the undamaged probe only: a
/// destroyed page is outside the crash model the invariant assumes
/// (stable storage is no longer explainable by any installation-graph
/// prefix); identity with the undamaged recovery is exactly the
/// obligation that remains.
///
/// # Errors
///
/// The first schedule on which a rebuild diverged from the undamaged
/// probe, failed to converge after an interrupted rebuild, or the
/// substrate refused an operation with no fault armed as an excuse.
pub fn audit_media(cfg: &CrashAuditConfig) -> Result<MediaAuditReport, CrashAuditFailure> {
    let mut report = MediaAuditReport::default();
    for s in 0..cfg.schedules {
        run_media_schedule(cfg, s, &mut report).map_err(|(phase, failure)| CrashAuditFailure {
            method: "media",
            schedule: s,
            phase,
            failure,
        })?;
        report.schedules += 1;
    }
    Ok(report)
}

fn run_media_schedule(
    cfg: &CrashAuditConfig,
    s: u64,
    report: &mut MediaAuditReport,
) -> PhaseResult {
    use redo_methods::media::Media;
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let method = Media;
    let ops = shaped_workload(method.name(), cfg, cfg.seed.wrapping_add(s));
    let mut db: Db<PageOpPayload> = Db::on_sharded(
        cfg.backend,
        Geometry {
            slots_per_page: cfg.slots_per_page,
        },
        cfg.pool_capacity,
        cfg.log_shards,
    );
    let fail = |phase: &'static str, e: HarnessFailure| (phase, e);

    // Run the workload until the armed fault trips (or it ends).
    db.arm_faults(sample_plan(&mut rng, ops.len() as u64 * 4));
    let mut committed: Vec<(PageOp, Lsn)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match method.execute(&mut db, op) {
            Ok(lsn) => committed.push((op.clone(), lsn)),
            Err(_) if db.fault_tripped() => {}
            Err(e) => return Err(fail("workload", e.into())),
        }
        if let Some((log_p, page_p)) = cfg.chaos {
            match db.chaos_flush(&mut rng, log_p, page_p) {
                Ok(()) => {}
                Err(_) if db.fault_tripped() => {}
                Err(e) => return Err(fail("workload", e.into())),
            }
        }
        if cfg.checkpoint_every.is_some_and(|k| (i + 1) % k == 0) {
            match method.checkpoint(&mut db) {
                Ok(()) => {}
                Err(_) if db.fault_tripped() => {}
                Err(e) => return Err(fail("checkpoint", e.into())),
            }
        }
        if db.fault_tripped() {
            break;
        }
    }
    if db.fault_tripped() {
        report.faults_tripped += 1;
    }
    db.crash();
    report.crashes += 1;
    db.repair_after_crash();

    let stable = db.log.stable_lsn();
    committed.retain(|(_, lsn)| *lsn <= stable);
    let durable: Vec<PageOp> = committed.iter().map(|(op, _)| op.clone()).collect();
    let view = view_of(&durable, cfg.slots_per_page);
    let pre1 = db.stable_theory_state();

    // Undamaged probe: the reference every damaged leg must match. The
    // invariant and durable-prefix identity are checked here, once.
    let mut undamaged = db.clone();
    let stats = method
        .recover(&mut undamaged)
        .map_err(|e| fail("undamaged probe", e.into()))?;
    verify_recovery(&view, &stats, &undamaged.volatile_theory_state(), &pre1, 1)
        .map_err(|e| fail("undamaged probe", e))?;
    let reference = undamaged.volatile_theory_state();
    drop(undamaged);

    // The media-failure adversary destroys one durable page. A crashed
    // image with no durable pages at all has nothing to destroy — the
    // undamaged probe above already covered it.
    let pages = db.disk.pages();
    if pages.is_empty() {
        return Ok(());
    }
    let victim = pages[rng.gen_range(0..pages.len())].0;
    let mut damaged = db.clone();
    drop(db);
    match cfg.backend {
        BackendKind::Mem => damaged.disk.destroy_page(victim),
        BackendKind::File => {
            // Out-of-band damage on the real files, as a failing medium
            // would inflict it; the doublewrite journal copy goes too
            // (a torn-repair path must not mask the loss).
            let dir = damaged
                .disk
                .dir()
                .expect("file backend has a directory")
                .to_path_buf();
            let page_file = dir.join("pages").join(format!("p{}.pg", victim.0));
            if s.is_multiple_of(2) {
                std::fs::remove_file(&page_file)
                    .map_err(|e| fail("damage", HarnessFailure::Io(e.to_string())))?;
                report.file_deletions += 1;
            } else {
                std::fs::OpenOptions::new()
                    .write(true)
                    .open(&page_file)
                    .and_then(|f| f.set_len(0))
                    .map_err(|e| fail("damage", HarnessFailure::Io(e.to_string())))?;
                report.file_truncations += 1;
            }
            let _ = std::fs::remove_file(dir.join("journal").join(format!("p{}.pg", victim.0)));
        }
    }
    // Re-crash so the damage sits in a cold image — on the file backend
    // this is the rescan that diffs the manifest and marks the loss.
    damaged.crash();
    report.crashes += 1;
    if !damaged.disk.is_lost(victim) {
        return Err(fail(
            "damage",
            HarnessFailure::Invariant {
                crash: 1,
                detail: format!("destroyed page {victim:?} was not detected as media loss"),
            },
        ));
    }
    report.pages_destroyed += 1;

    // Sequential rebuild: state identity with the undamaged probe.
    let mut probe = damaged.clone();
    method
        .recover(&mut probe)
        .map_err(|e| fail("media rebuild", e.into()))?;
    if !probe.disk.lost_pages().is_empty() {
        return Err(fail(
            "media rebuild",
            HarnessFailure::Invariant {
                crash: 1,
                detail: "recovery completed with pages still lost".into(),
            },
        ));
    }
    if probe.volatile_theory_state() != reference {
        return Err(fail(
            "media rebuild",
            HarnessFailure::StateMismatch { crash: Some(1) },
        ));
    }
    report.rebuilds_verified += 1;
    drop(probe);

    // On-demand rebuild: the lost page is a gated page whose residual
    // chain is its whole archived history; serve every durable cell
    // mid-recovery and demand the same identity.
    let probes = probe_cells(&durable, cfg, s);
    let mut od_probe = damaged.clone();
    if let Some(res) = method.ondemand_restart(&mut od_probe, &probes) {
        let (_, served) = res.map_err(|e| fail("ondemand rebuild", e.into()))?;
        if od_probe.volatile_theory_state() != reference {
            return Err(fail(
                "ondemand rebuild",
                HarnessFailure::StateMismatch { crash: Some(1) },
            ));
        }
        for (&cell, &mid) in probes.iter().zip(&served) {
            let fin = od_probe
                .read_cell(cell)
                .map_err(|e| fail("ondemand rebuild", e.into()))?;
            if mid != fin {
                return Err(fail(
                    "ondemand rebuild",
                    HarnessFailure::Invariant {
                        crash: 1,
                        detail: format!(
                            "cell {cell:?} served {mid} mid-rebuild but holds {fin} after the drain"
                        ),
                    },
                ));
            }
        }
        report.ondemand_rebuilds_verified += 1;
    }
    drop(od_probe);

    // Interrupted rebuild: arm a second fault, let recovery die partway
    // through the install pass (or anywhere else), crash, and demand
    // the re-run still converges — the rebuild must be idempotent.
    damaged.arm_faults(sample_plan(&mut rng, 4));
    match method.recover(&mut damaged) {
        Ok(_) => {}
        Err(_) if damaged.fault_tripped() => {}
        Err(e) => return Err(fail("interrupted rebuild", e.into())),
    }
    if damaged.fault_tripped() {
        report.faults_tripped += 1;
    }
    damaged.crash();
    report.crashes += 1;
    method
        .recover(&mut damaged)
        .map_err(|e| fail("interrupted rebuild", e.into()))?;
    if damaged.volatile_theory_state() != reference {
        return Err(fail(
            "interrupted rebuild",
            HarnessFailure::StateMismatch { crash: Some(2) },
        ));
    }
    // Idempotence: once more around, nothing may move.
    damaged.crash();
    report.crashes += 1;
    method
        .recover(&mut damaged)
        .map_err(|e| fail("interrupted rebuild idempotence", e.into()))?;
    if damaged.volatile_theory_state() != reference {
        return Err(fail(
            "interrupted rebuild idempotence",
            HarnessFailure::StateMismatch { crash: Some(3) },
        ));
    }
    report.interrupted_rebuilds_verified += 1;
    Ok(())
}

type PhaseResult = Result<(), (&'static str, HarnessFailure)>;

fn run_schedule<M: RecoveryMethod>(
    method: &M,
    cfg: &CrashAuditConfig,
    s: u64,
    report: &mut CrashAuditReport,
) -> PhaseResult {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let ops = shaped_workload(method.name(), cfg, cfg.seed.wrapping_add(s));
    let capacity = if method.allows_page_chaos() {
        cfg.pool_capacity
    } else {
        None
    };
    let mut db: Db<M::Payload> = Db::on_sharded(
        cfg.backend,
        Geometry {
            slots_per_page: cfg.slots_per_page,
        },
        capacity,
        cfg.log_shards,
    );
    let fail = |phase: &'static str, e: HarnessFailure| (phase, e);

    // Step 1: run until the armed fault trips (or the workload ends).
    db.arm_faults(sample_plan(&mut rng, ops.len() as u64 * 4));
    let mut committed: Vec<(PageOp, redo_theory::log::Lsn)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match method.execute(&mut db, op) {
            Ok(lsn) => committed.push((op.clone(), lsn)),
            Err(_) if db.fault_tripped() => {}
            Err(e) => return Err(fail("workload", e.into())),
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
                Err(e) => return Err(fail("workload", e.into())),
            }
        }
        if cfg.checkpoint_every.is_some_and(|k| (i + 1) % k == 0) {
            match method.checkpoint(&mut db) {
                Ok(()) => {}
                Err(_) if db.fault_tripped() => {}
                Err(e) => return Err(fail("checkpoint", e.into())),
            }
        }
        if db.fault_tripped() {
            break;
        }
    }
    tally_fault(&db, report);
    db.crash();
    report.crashes += 1;
    let repair = db.repair_after_crash();
    report.torn_pages_repaired += repair.torn_pages.len();
    report.log_bytes_dropped += repair.log_bytes_dropped;

    let stable = db.log.stable_lsn();
    committed.retain(|(_, lsn)| *lsn <= stable);
    let durable: Vec<PageOp> = committed.iter().map(|(op, _)| op.clone()).collect();
    let view = view_of(&durable, cfg.slots_per_page);
    let pre1 = db.stable_theory_state();

    // Step 2: probe recovery on a clone of the crashed image. The clone
    // shares the (now disarmed) injector; it is discarded before the
    // second plan is armed.
    let mut probe = db.clone();
    let stats = method
        .recover(&mut probe)
        .map_err(|e| fail("probe recovery", e.into()))?;
    verify_recovery(&view, &stats, &probe.volatile_theory_state(), &pre1, 1)
        .map_err(|e| fail("probe recovery", e))?;
    report.recoveries_verified += 1;
    report.replayed += stats.replay_count();
    report.skipped += stats.skipped.len();

    // Seek-index equivalence: recover the same crashed image with the
    // seek index disabled. The index only changes where the scan enters
    // the stable log, so the recovered state and the semantic redo
    // stats (scanned / replayed / skipped) must be identical.
    let mut unseeked = db.clone();
    unseeked.log.disable_seek_index();
    let unseeked_stats = method
        .recover(&mut unseeked)
        .map_err(|e| fail("seekless probe", e.into()))?;
    if unseeked_stats != stats {
        return Err(fail(
            "seekless probe",
            HarnessFailure::Invariant {
                crash: 1,
                detail: format!(
                    "seeked and unseeked recovery disagree: {stats:?} vs {unseeked_stats:?}"
                ),
            },
        ));
    }
    if unseeked.volatile_theory_state() != probe.volatile_theory_state() {
        return Err(fail(
            "seekless probe",
            HarnessFailure::StateMismatch { crash: Some(1) },
        ));
    }
    report.seekless_probes += 1;
    drop(unseeked);

    // Parallel-restart equivalence: if the method's discipline admits a
    // page-partitioned restart, re-recover the same crashed image
    // through it with a fixed worker count and demand the identical
    // durable state plus the Recovery Invariant for its own realized
    // redo set. Theorem 3 says per-page replay order is all that
    // matters, so the partitioned path must land exactly where the
    // serial probe did — including from a fuzzy checkpoint's
    // dirty-page-table seek.
    let mut par_probe = db.clone();
    if let Some(res) = method.parallel_restart(&mut par_probe, 4) {
        let par_stats = res.map_err(|e| fail("parallel probe", e.into()))?;
        verify_recovery(
            &view,
            &par_stats,
            &par_probe.volatile_theory_state(),
            &pre1,
            1,
        )
        .map_err(|e| fail("parallel probe", e))?;
        if par_probe.volatile_theory_state() != probe.volatile_theory_state() {
            return Err(fail(
                "parallel probe",
                HarnessFailure::StateMismatch { crash: Some(1) },
            ));
        }
        // The executors must also agree on what the *next* checkpoint
        // will publish: each dirty page's recLSN is the first record
        // replayed into it. (Only comparable while nothing is evicted:
        // under a bounded pool the serial probe flushes as it goes.)
        if capacity.is_none() {
            let dpt = probe.pool.dirty_page_table();
            let par_dpt = par_probe.pool.dirty_page_table();
            if par_dpt != dpt {
                let detail = format!(
                    "serial and partitioned restart leave different dirty-page tables: {dpt:?} vs {par_dpt:?}"
                );
                return Err(fail(
                    "parallel probe",
                    HarnessFailure::Invariant { crash: 1, detail },
                ));
            }
        }
        report.parallel_probes += 1;
    }
    drop(par_probe);

    // On-demand (instant restart) equivalence: if the method has a lazy
    // per-page path, reopen the same crashed image through it and serve
    // a read on every durable cell mid-recovery. Three obligations:
    // each served value is *final* (re-reading after the drain returns
    // the same value — a served page's content never changes), the
    // realized redo set passes the Recovery Invariant, and the drained
    // state equals the sequential probe's. The hook answers for both
    // faces of the lazy executor: behind it the same image is reopened
    // through `SharedDb::open_on_demand`, served the same probes and
    // drained, and any value that differs from the sequential face's
    // fails the probe.
    let probes = probe_cells(&durable, cfg, s);
    let mut od_probe = db.clone();
    if let Some(res) = method.ondemand_restart(&mut od_probe, &probes) {
        let (od_stats, served) = res.map_err(|e| fail("ondemand probe", e.into()))?;
        verify_recovery(
            &view,
            &od_stats,
            &od_probe.volatile_theory_state(),
            &pre1,
            1,
        )
        .map_err(|e| fail("ondemand probe", e))?;
        if od_probe.volatile_theory_state() != probe.volatile_theory_state() {
            return Err(fail(
                "ondemand probe",
                HarnessFailure::StateMismatch { crash: Some(1) },
            ));
        }
        for (&cell, &mid) in probes.iter().zip(&served) {
            let fin = od_probe
                .read_cell(cell)
                .map_err(|e| fail("ondemand probe", e.into()))?;
            if mid != fin {
                return Err(fail(
                    "ondemand probe",
                    HarnessFailure::Invariant {
                        crash: 1,
                        detail: format!(
                            "cell {cell:?} served {mid} mid-recovery but holds {fin} after the drain"
                        ),
                    },
                ));
            }
        }
        report.ondemand_probes += 1;
    }
    drop(od_probe);
    drop(probe);

    // Step 3: crash the real image mid-recovery.
    db.arm_faults(sample_plan(&mut rng, 6));
    match method.recover(&mut db) {
        Ok(_) => {}
        Err(_) if db.fault_tripped() => {}
        Err(e) => return Err(fail("interrupted recovery", e.into())),
    }
    tally_fault(&db, report);
    db.crash();
    report.crashes += 1;
    report.mid_recovery_crashes += 1;
    let repair = db.repair_after_crash();
    report.torn_pages_repaired += repair.torn_pages.len();
    report.log_bytes_dropped += repair.log_bytes_dropped;

    // Step 4: recovery after the mid-recovery crash. The durable prefix
    // is unchanged (recovery appends nothing to the log), but the disk
    // may hold more installed work than at crash 1 — legal flushes the
    // interrupted recovery performed before its fault tripped.
    let pre2 = db.stable_theory_state();
    let stats = method
        .recover(&mut db)
        .map_err(|e| fail("re-recovery", e.into()))?;
    verify_recovery(&view, &stats, &db.volatile_theory_state(), &pre2, 2)
        .map_err(|e| fail("re-recovery", e))?;
    report.recoveries_verified += 1;
    report.replayed += stats.replay_count();
    report.skipped += stats.skipped.len();
    let recovered = db.volatile_theory_state();

    // Step 5: idempotence — crash the recovered-but-unchekpointed
    // system and recover once more; the state must not move.
    // Step 6: the same after checkpointing what the restart left
    // behind. The checkpoint publishes the pool bookkeeping *recovery*
    // produced (a fuzzy one, its dirty-page table and redo-start) and
    // may archive the log below it; the next restart has only that to
    // go on.
    let steps = [
        ("idempotence", 3, false),
        ("recovery from the post-recovery checkpoint", 4, true),
    ];
    for (phase, crash, checkpoint_first) in steps {
        if checkpoint_first {
            method
                .checkpoint(&mut db)
                .map_err(|e| fail("post-recovery checkpoint", e.into()))?;
        }
        db.crash();
        report.crashes += 1;
        let repair = db.repair_after_crash();
        report.torn_pages_repaired += repair.torn_pages.len();
        report.log_bytes_dropped += repair.log_bytes_dropped;
        let pre = db.stable_theory_state();
        let stats = method.recover(&mut db).map_err(|e| fail(phase, e.into()))?;
        verify_recovery(&view, &stats, &db.volatile_theory_state(), &pre, crash)
            .map_err(|e| fail(phase, e))?;
        report.recoveries_verified += 1;
        report.replayed += stats.replay_count();
        report.skipped += stats.skipped.len();
        if db.volatile_theory_state() != recovered {
            return Err(fail(phase, HarnessFailure::StateMismatch { crash: None }));
        }
    }
    Ok(())
}

fn tally_fault<P: redo_sim::wal::LogPayload>(db: &Db<P>, report: &mut CrashAuditReport) {
    if !db.fault_tripped() {
        return;
    }
    report.faults_tripped += 1;
    match db.fault_injector().injected() {
        Some(InjectedFault::TornWrite(_)) => report.torn_writes += 1,
        Some(InjectedFault::TornFlush) => report.torn_flushes += 1,
        Some(InjectedFault::Clean) | None => report.clean_stops += 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redo_methods::generalized::Generalized;
    use redo_methods::logical::Logical;
    use redo_methods::ondemand::OnDemand;
    use redo_methods::online::GeneralizedOnline;
    use redo_methods::parallel::{ParallelOnline, ParallelPhysical, ParallelPhysiological};
    use redo_methods::physical::Physical;
    use redo_methods::physiological::Physiological;

    fn small() -> CrashAuditConfig {
        CrashAuditConfig {
            schedules: 12,
            n_ops: 24,
            ..Default::default()
        }
    }

    fn assert_clean(report: &CrashAuditReport, cfg: &CrashAuditConfig) {
        assert_eq!(report.schedules, cfg.schedules);
        assert_eq!(report.mid_recovery_crashes, cfg.schedules);
        assert_eq!(report.crashes, cfg.schedules * 4);
        assert_eq!(report.recoveries_verified, cfg.schedules * 4);
        assert_eq!(report.seekless_probes, cfg.schedules);
        assert!(report.faults_tripped > 0, "no fault ever fired: {report:?}");
    }

    #[test]
    fn physical_survives_crash_audit() {
        let cfg = small();
        let report = audit(&Physical, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_clean(&report, &cfg);
        assert_eq!(report.parallel_probes, cfg.schedules);
    }

    #[test]
    fn physiological_survives_crash_audit() {
        let cfg = small();
        let report = audit(&Physiological, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_clean(&report, &cfg);
        assert_eq!(report.parallel_probes, cfg.schedules);
    }

    #[test]
    fn generalized_survives_crash_audit() {
        let cfg = small();
        let report = audit(&Generalized, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_clean(&report, &cfg);
        assert_eq!(
            report.parallel_probes, 0,
            "generalized reads cross pages: no parallel path"
        );
    }

    #[test]
    fn generalized_online_survives_crash_audit() {
        // The online method's checkpoint is a multi-step publication
        // (force, swing, truncate) and every step is a faultable crash
        // point: this audit drives crashes *into* checkpoint writes and
        // demands fallback to the previous published checkpoint.
        let cfg = small();
        let report = audit(&GeneralizedOnline, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_clean(&report, &cfg);
        assert_eq!(report.parallel_probes, 0);
    }

    #[test]
    fn control_survives_crash_audit() {
        // The control method's delta-checkpoint publication adds chained
        // incremental records to the fault surface: crashes land inside
        // delta appends and master swings, and recovery must fold the
        // surviving chain (or fall back to its base snapshot).
        let cfg = small();
        let report = audit(&redo_methods::control::Control, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_clean(&report, &cfg);
        assert_eq!(report.parallel_probes, 0, "generalized discipline");
    }

    #[test]
    fn control_dual_run_matches_full_snapshots() {
        let cfg = small();
        let report = audit_control(&cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(report.schedules, cfg.schedules);
        assert_eq!(report.crashes, cfg.schedules * 2);
        assert_eq!(report.recoveries_verified, cfg.schedules * 2);
        assert!(report.faults_tripped > 0, "no fault ever fired: {report:?}");
        assert!(
            report.identity_checks > 0,
            "twins never shared a durable prefix: {report:?}"
        );
        assert!(
            report.delta_masters > 0,
            "no crash ever landed on a delta master: {report:?}"
        );
    }

    #[test]
    fn ondemand_survives_crash_audit() {
        // The instant-restart method end to end: every probe recovery
        // additionally reopens the crashed image lazily and serves all
        // durable cells mid-recovery; mid-recovery crashes interrupt
        // lazy replay itself (gates must close back up).
        let cfg = small();
        let report = audit(&OnDemand, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_clean(&report, &cfg);
        assert_eq!(report.ondemand_probes, cfg.schedules);
        assert_eq!(report.parallel_probes, 0, "lazy path, not partitioned");
    }

    #[test]
    fn ondemand_survives_crash_audit_on_files() {
        let cfg = CrashAuditConfig {
            schedules: 6,
            n_ops: 24,
            backend: BackendKind::File,
            ..Default::default()
        };
        let report = audit(&OnDemand, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_clean(&report, &cfg);
        assert_eq!(report.ondemand_probes, cfg.schedules);
    }

    #[test]
    fn logical_survives_crash_audit() {
        let cfg = small();
        let report = audit(&Logical, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_clean(&report, &cfg);
    }

    #[test]
    fn parallel_methods_survive_crash_audit() {
        let cfg = CrashAuditConfig {
            schedules: 6,
            n_ops: 24,
            ..Default::default()
        };
        let report =
            audit(&ParallelPhysiological { threads: 3 }, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_clean(&report, &cfg);
        assert_eq!(report.parallel_probes, cfg.schedules);
        let report =
            audit(&ParallelPhysical { threads: 3 }, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_clean(&report, &cfg);
        assert_eq!(report.parallel_probes, cfg.schedules);
    }

    #[test]
    fn online_parallel_survives_crash_audit() {
        // The checkpoint-aware path end to end under hostile crashes:
        // fuzzy checkpoints (any publication step may be the fault
        // site), then every probe recovery re-run through the
        // DPT-seeded partitioned scheduler.
        let cfg = CrashAuditConfig {
            schedules: 8,
            n_ops: 24,
            ..Default::default()
        };
        let report = audit(&ParallelOnline { threads: 3 }, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_clean(&report, &cfg);
        assert_eq!(report.parallel_probes, cfg.schedules);
    }

    #[test]
    fn physiological_survives_crash_audit_on_files() {
        // The same degradation loop against real files: CRC-framed WAL,
        // checksummed page files, doublewrite journal, rename-published
        // checkpoint pointer. Fewer schedules — every clone copies a
        // directory tree — but the loop itself is unchanged.
        let cfg = CrashAuditConfig {
            schedules: 6,
            n_ops: 24,
            backend: BackendKind::File,
            ..Default::default()
        };
        let report = audit(&Physiological, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_clean(&report, &cfg);
    }

    #[test]
    fn methods_survive_crash_audit_with_sharded_logs() {
        // Four log shards: multi-page records become cross-shard atomic
        // flush groups, page-less checkpoints broadcast to every shard,
        // and the sampled faults land between a group's closure markers
        // too. The same degradation loop must stay clean — sharding is
        // an access-path change, not a semantic one.
        let cfg = CrashAuditConfig {
            schedules: 8,
            n_ops: 24,
            log_shards: 4,
            ..Default::default()
        };
        let report = audit(&Generalized, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_clean(&report, &cfg);
        let report = audit(&GeneralizedOnline, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_clean(&report, &cfg);
        let report = audit(&OnDemand, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_clean(&report, &cfg);
        assert_eq!(report.ondemand_probes, cfg.schedules);
        let report =
            audit(&ParallelPhysiological { threads: 3 }, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_clean(&report, &cfg);
        assert_eq!(report.parallel_probes, cfg.schedules);
    }

    #[test]
    fn sharded_log_crash_audit_on_files() {
        // The cross-shard degradation loop against real files: one
        // fsynced WAL file per shard, plus the archive files the online
        // checkpoints fill.
        let cfg = CrashAuditConfig {
            schedules: 4,
            n_ops: 24,
            backend: BackendKind::File,
            log_shards: 4,
            ..Default::default()
        };
        let report = audit(&GeneralizedOnline, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_clean(&report, &cfg);
    }

    #[test]
    fn pit_audit_replays_archive_plus_live() {
        let cfg = CrashAuditConfig {
            schedules: 20,
            log_shards: 4,
            ..Default::default()
        };
        let r = audit_pit(&cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(r.schedules, 20);
        assert_eq!(r.full_replays_verified, 20);
        assert!(
            r.truncation_replays_verified > 0,
            "no schedule ever archived a prefix: {r:?}"
        );
        assert!(r.archived_bytes > 0, "{r:?}");
        assert!(r.faults_tripped > 0, "no fault ever fired: {r:?}");
    }

    #[test]
    fn pit_audit_on_files() {
        let cfg = CrashAuditConfig {
            schedules: 4,
            n_ops: 24,
            backend: BackendKind::File,
            log_shards: 2,
            ..Default::default()
        };
        let r = audit_pit(&cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(r.full_replays_verified, 4);
    }

    #[test]
    fn media_method_survives_vanilla_crash_audit() {
        // The media method must first be an ordinary recovery method:
        // with no destroyed pages its rebuild pass is a no-op and the
        // standard degradation loop (including the on-demand probe)
        // must stay clean.
        let cfg = small();
        let report = audit(&redo_methods::media::Media, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_clean(&report, &cfg);
        assert_eq!(report.ondemand_probes, cfg.schedules);
    }

    #[test]
    fn media_audit_rebuilds_destroyed_pages() {
        let cfg = CrashAuditConfig {
            schedules: 12,
            n_ops: 24,
            log_shards: 4,
            ..Default::default()
        };
        let r = audit_media(&cfg).unwrap_or_else(|e| panic!("{e}"));
        assert_eq!(r.schedules, 12);
        assert!(r.pages_destroyed > 0, "no schedule ever lost a page: {r:?}");
        assert_eq!(r.rebuilds_verified, r.pages_destroyed);
        assert_eq!(r.ondemand_rebuilds_verified, r.pages_destroyed);
        assert_eq!(r.interrupted_rebuilds_verified, r.pages_destroyed);
        assert!(r.faults_tripped > 0, "no fault ever fired: {r:?}");
    }

    #[test]
    fn media_audit_on_files_deletes_and_truncates() {
        // Real files, damaged out-of-band: even schedules unlink the
        // page file, odd schedules truncate(2) it to zero length.
        let cfg = CrashAuditConfig {
            schedules: 8,
            n_ops: 24,
            backend: BackendKind::File,
            log_shards: 2,
            ..Default::default()
        };
        let r = audit_media(&cfg).unwrap_or_else(|e| panic!("{e}"));
        assert!(r.file_deletions > 0, "{r:?}");
        assert!(r.file_truncations > 0, "{r:?}");
        assert_eq!(r.rebuilds_verified, r.pages_destroyed);
        assert_eq!(r.interrupted_rebuilds_verified, r.pages_destroyed);
    }

    #[test]
    fn both_torn_kinds_occur_across_schedules() {
        let cfg = CrashAuditConfig {
            schedules: 40,
            n_ops: 24,
            ..Default::default()
        };
        let report = audit(&Physiological, &cfg).unwrap_or_else(|e| panic!("{e}"));
        assert!(report.torn_writes > 0, "{report:?}");
        assert!(report.torn_flushes > 0, "{report:?}");
        assert!(report.torn_pages_repaired > 0, "{report:?}");
        assert!(report.log_bytes_dropped > 0, "{report:?}");
    }
}
