//! The crash auditor: one oracle, one driver, one flow with legs, one
//! generated matrix.
//!
//! [`crate::exhaustive`] enumerates every *flush* schedule of a tiny
//! workload, but its crashes are polite: whole pages, whole log
//! records. This module samples many larger schedules and makes the
//! crashes hostile — each schedule arms a random
//! [`FaultPlan`](redo_sim::fault::FaultPlan) (a clean stop, a torn page
//! write, or a partial log flush at a random faultable I/O event).
//!
//! * **Oracle** — [`DurablePrefix::verify`]: state equality with the
//!   durable prefix, no non-durable replay, the Recovery Invariant
//!   (Corollary 4) for the realized redo set. Every completed recovery
//!   below goes through it.
//! * **Driver** — [`Driver`] runs the workload with background chaos
//!   and checkpoints until the fault trips and decides the durable
//!   prefix: an operation is in it iff its log record is.
//! * **Flow** — every schedule of every method is drive → crash →
//!   repair, then on clones of that image the *legs*, then on the image
//!   itself the degradation loop: arm a second plan and crash
//!   mid-recovery, recover, crash and recover again (idempotence),
//!   checkpoint what the restart left in the pool — under a fuzzy
//!   discipline that publishes *recovery's* dirty-page table and
//!   archives the log below its redo-start — crash and recover a
//!   fourth time. The state must not move.
//! * **Legs**, each counted by name in [`AuditReport::legs`]:
//!   `recovery` (the serial probe and the three re-recoveries),
//!   `seekless` (seek index disabled: same state, same semantic stats),
//!   `parallel` and `ondemand` where the method's
//!   [`RecoveryMethod::parallel_restart`] /
//!   [`RecoveryMethod::ondemand_restart`] hook answers (the lazy hook
//!   runs both faces of the lazy executor over shuffled probes),
//!   `archive` / `truncation` (`archive ∥ live` replays to the durable
//!   history, and at the truncation boundary to the pre-truncation
//!   state) for every method, and two the [`roster`] table selects —
//!   **media damage** (`destroyed`, `rebuild`, `ondemand-rebuild`,
//!   `interrupted-rebuild`; a method without media recovery cannot be
//!   told apart by observation) and the **delta/full twin** (`twin`,
//!   `identity`, `delta-master`). Legs draw from their own
//!   schedule-seeded generators: the main schedule's fault plans do not
//!   move when a leg is added.
//! * **Matrix** — [`matrix`] enumerates [`roster`] × backend × log
//!   shards × pool size; [`Row::judge`] fails a violation, a broken row
//!   that passes, and a required leg that verified nothing.

use std::collections::BTreeMap;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redo_methods::broken::{LyingCheckpoint, SkippyRedo};
use redo_methods::control::Control;
use redo_methods::generalized::Generalized;
use redo_methods::harness::{dying, ops_of, Driver, DurablePrefix, HarnessFailure};
use redo_methods::logical::Logical;
use redo_methods::media::Media;
use redo_methods::ondemand::OnDemand;
use redo_methods::online::GeneralizedOnline;
use redo_methods::oprecord::PageOpPayload;
use redo_methods::parallel::{ParallelOnline, ParallelPhysical, ParallelPhysiological};
use redo_methods::physical::{PhysPayload, Physical};
use redo_methods::physiological::Physiological;
use redo_methods::redo::{Checkpoint, CheckpointView};
use redo_methods::{RecoveryMethod, RecoveryStats};
use redo_sim::backend::BackendKind;
use redo_sim::db::{Db, Geometry};
use redo_sim::fault::{FaultKind, FaultPlan, InjectedFault};
use redo_theory::log::Lsn;
use redo_theory::state::{State, Value};
use redo_workload::pages::{Cell, PageOp, PageWorkloadSpec};

/// Crash-audit configuration: one cell of the [`matrix`].
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
    /// flow exercises real I/O end to end).
    pub backend: BackendKind,
    /// How many per-partition log shards the WAL is split into (a power
    /// of two; `1` is the classic single log). With more than one
    /// shard, multi-page records become cross-shard atomic flush
    /// groups, so the injected faults land *between* a group's closure
    /// markers too — the audit proves the epoch-closure analysis makes
    /// every group all-or-nothing.
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

/// What an audit of one cell observed. The tallies are the degradation
/// loop's (four crashes a schedule); legs crash clones, and count only
/// under their names.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditReport {
    /// Schedules driven.
    pub schedules: u64,
    /// Crashes injected.
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
    /// How many times each leg verified, by name (see the module docs).
    pub legs: BTreeMap<&'static str, u64>,
}

impl AuditReport {
    /// How many times `leg` verified.
    #[must_use]
    pub fn leg(&self, leg: &str) -> u64 {
        self.legs.get(leg).copied().unwrap_or(0)
    }

    fn verified(&mut self, leg: &'static str) {
        *self.legs.entry(leg).or_default() += 1;
    }

    /// Tallies the fault that fired (if one did), crashes `db` and runs
    /// media repair.
    fn crash<P: redo_sim::wal::LogPayload>(&mut self, db: &mut Db<P>) {
        if db.fault_tripped() {
            self.faults_tripped += 1;
            match db.fault_injector().injected() {
                Some(InjectedFault::TornWrite(_)) => self.torn_writes += 1,
                Some(InjectedFault::TornFlush) => self.torn_flushes += 1,
                Some(InjectedFault::Clean) | None => self.clean_stops += 1,
            }
        }
        db.crash();
        self.crashes += 1;
        let repair = db.repair_after_crash();
        self.torn_pages_repaired += repair.torn_pages.len();
        self.log_bytes_dropped += repair.log_bytes_dropped;
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} schedules, {} crashes ({} mid-recovery), {} faults fired ({} torn writes, \
             {} torn flushes, {} clean stops), {} torn pages repaired, {} log bytes dropped; \
             verified:",
            self.schedules,
            self.crashes,
            self.mid_recovery_crashes,
            self.faults_tripped,
            self.torn_writes,
            self.torn_flushes,
            self.clean_stops,
            self.torn_pages_repaired,
            self.log_bytes_dropped
        )?;
        self.legs
            .iter()
            .try_for_each(|(leg, n)| write!(f, " {leg} {n}"))
    }
}

/// A schedule on which the method failed.
#[derive(Clone, Debug)]
pub struct CrashAuditFailure {
    /// The method under audit.
    pub method: &'static str,
    /// Which schedule (0-based).
    pub schedule: u64,
    /// Which step of the flow.
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

/// The operation mix a logging discipline admits, as
/// [`PageWorkloadSpec`] fractions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Shape {
    /// Operations that read a second page (§6.4's B-tree-split shape).
    pub cross: f64,
    /// Blind single-cell writes.
    pub blind: f64,
    /// Operations that write two pages (atomic multi-page installs).
    pub multi: f64,
}

impl Shape {
    /// §6.2: after-images only.
    pub const BLIND: Shape = Shape::of(0.0, 1.0, 0.0);
    /// §6.3: every operation reads and writes one page.
    pub const SINGLE_PAGE: Shape = Shape::of(0.0, 0.2, 0.0);
    /// §6.1: cross-page reads, single-page write sets.
    pub const CROSS_PAGE: Shape = Shape::of(0.5, 0.1, 0.0);
    /// §6.4: cross-page reads and multi-page write sets.
    pub const GENERAL: Shape = Shape::of(0.5, 0.1, 0.2);

    const fn of(cross: f64, blind: f64, multi: f64) -> Shape {
        Shape {
            cross,
            blind,
            multi,
        }
    }

    /// `base` with this shape's fractions.
    #[must_use]
    pub fn spec(self, base: PageWorkloadSpec) -> PageWorkloadSpec {
        PageWorkloadSpec {
            cross_page_fraction: self.cross,
            blind_fraction: self.blind,
            multi_page_fraction: self.multi,
            ..base
        }
    }
}

/// How the `archive` leg and the `delta-master` count read a log record.
pub trait Replay: CheckpointView {
    /// Redoes the record from genesis into `cells` and names the
    /// workload operation it logged; `None`, `cells` untouched, for a
    /// checkpoint record.
    fn replay(self, cells: &mut BTreeMap<Cell, u64>) -> Option<u32>;
}

impl Replay for PageOpPayload {
    fn replay(self, cells: &mut BTreeMap<Cell, u64>) -> Option<u32> {
        let PageOpPayload::Op(op) = self else {
            return None;
        };
        let reads: Vec<u64> = (op.reads.iter())
            .map(|c| cells.get(c).copied().unwrap_or(0))
            .collect();
        cells.extend(op.writes.iter().map(|&w| (w, op.output(w, &reads))));
        Some(op.id)
    }
}

impl Replay for PhysPayload {
    fn replay(self, cells: &mut BTreeMap<Cell, u64>) -> Option<u32> {
        let PhysPayload::Writes { op_id, writes } = self else {
            return None;
        };
        cells.extend(writes);
        Some(op_id)
    }
}

/// What auditing one cell returns.
pub type Outcome = Result<AuditReport, CrashAuditFailure>;
type Run = dyn Fn(&Row, &CrashAuditConfig) -> Outcome;

/// One roster row: a method, the workload shape its discipline admits,
/// and what the audit must find.
pub struct Row {
    /// What `--method` selects (`parallel` selects three rows).
    pub cli: &'static str,
    /// The method's [`RecoveryMethod::name`].
    pub name: &'static str,
    /// The operation mix the method is fed.
    pub shape: Shape,
    /// Whether the pool axis applies ([`RecoveryMethod::allows_page_chaos`]).
    pub bounded_pool: bool,
    /// A deliberately broken method: the audit must *fail*.
    pub expect_violation: bool,
    /// Legs that must verify at least once in every cell, beyond the
    /// ones every schedule of every method runs (`recovery`,
    /// `seekless`, `archive`). Naming `rebuild` selects the
    /// media-damage legs.
    pub required: &'static [&'static str],
    run: Box<Run>,
}

impl Row {
    /// Audits this row's method in the cell `cfg` describes.
    ///
    /// # Errors
    ///
    /// See [`audit`].
    pub fn audit(&self, cfg: &CrashAuditConfig) -> Outcome {
        (self.run)(self, cfg)
    }

    /// Whether `outcome` is what this row's table entry demands.
    ///
    /// # Errors
    ///
    /// The violation found, a broken row that passed, or the first
    /// required leg that verified nothing.
    pub fn judge(&self, outcome: &Outcome) -> Result<(), String> {
        let name = self.name;
        match outcome {
            Err(_) if self.expect_violation => Ok(()),
            Err(e) => Err(e.to_string()),
            Ok(_) if self.expect_violation => Err(format!(
                "{name} is deliberately broken and passed: the auditor cannot say no"
            )),
            Ok(report) => match self.required.iter().find(|leg| report.leg(leg) == 0) {
                Some(leg) => Err(format!("{name}: required leg `{leg}` verified nothing")),
                None => Ok(()),
            },
        }
    }
}

const PAR: &[&str] = &["parallel"];
const ARCHIVE: &[&str] = &["truncation"];
const PAR_ARCHIVE: &[&str] = &["parallel", "truncation"];
const MEDIA: &[&str] = &[
    "truncation",
    "ondemand",
    "rebuild",
    "ondemand-rebuild",
    "interrupted-rebuild",
];
const TWIN: &[&str] = &["truncation", "twin", "identity", "delta-master"];

/// The roster: every method the repo ships, and next to each the legs
/// it must verify. A new executor is audited in every cell of the
/// [`matrix`] by joining this table.
#[must_use]
pub fn roster() -> Vec<Row> {
    type Legs = &'static [&'static str];
    fn twinned<M, T>(cli: &'static str, method: M, twin: Option<T>, shape: Shape, legs: Legs) -> Row
    where
        M: RecoveryMethod + 'static,
        T: RecoveryMethod + 'static,
        M::Payload: Replay,
    {
        Row {
            cli,
            name: method.name(),
            shape,
            bounded_pool: method.allows_page_chaos(),
            expect_violation: false,
            required: legs,
            run: Box::new(move |row, cfg| audit(&method, twin.as_ref(), row, cfg)),
        }
    }
    fn row<M>(cli: &'static str, method: M, shape: Shape, legs: Legs) -> Row
    where
        M: RecoveryMethod + 'static,
        M::Payload: Replay,
    {
        twinned(cli, method, None::<M>, shape, legs)
    }
    let broken = |row: Row| Row {
        expect_violation: true,
        ..row
    };
    let (blind, single) = (Shape::BLIND, Shape::SINGLE_PAGE);
    let (cross, general) = (Shape::CROSS_PAGE, Shape::GENERAL);
    let threads = 3;
    // The delta chain is an *encoding* of the full snapshot: control's
    // twin checkpoints the same schedule through full snapshots.
    let full = Some(GeneralizedOnline);
    vec![
        row("logical", Logical, cross, &[]),
        row("physical", Physical, blind, PAR),
        row("physiological", Physiological, single, PAR),
        row("generalized", Generalized, general, &[]),
        row("online", GeneralizedOnline, general, ARCHIVE),
        row("ondemand", OnDemand, general, MEDIA),
        row("parallel", ParallelPhysiological { threads }, single, PAR),
        row("parallel", ParallelPhysical { threads }, blind, PAR_ARCHIVE),
        row("parallel", ParallelOnline { threads }, single, PAR_ARCHIVE),
        row("media", Media, general, MEDIA),
        twinned("control", Control, full, general, TWIN),
        // The auditor must be able to say no.
        broken(row("skippy", SkippyRedo, single, &[])),
        broken(row("lying", LyingCheckpoint, single, &[])),
    ]
}

/// The workload shape the roster feeds the method named `method`.
///
/// # Errors
///
/// An unlisted name: a method nobody gave a shape is not silently fed
/// single-page operations.
pub fn shape_of(method: &str) -> Result<Shape, String> {
    (roster().iter().find(|row| row.name == method))
        .map(|row| row.shape)
        .ok_or_else(|| format!("method {method} is not on the roster: no workload shape"))
}

/// The matrix's backend axis.
pub const BACKENDS: [BackendKind; 2] = [BackendKind::Mem, BackendKind::File];
/// The matrix's log-shard axis.
pub const LOG_SHARDS: [usize; 2] = [1, 4];
/// The matrix's pool axis (`None` = unbounded). Capacity 2 is where
/// the steal path forces an operation's own record.
pub const POOLS: [Option<usize>; 3] = [Some(2), Some(4), None];
/// A file schedule costs ~50 mem schedules (every force and page write
/// is an fsync): when both backends are enumerated, a file cell runs
/// one in this many of the schedules.
pub const FILE_SCHEDULES: u64 = 5;

/// One cell of the matrix: a roster row and the configuration it is
/// audited under.
pub struct MatrixCell<'a> {
    /// The method and what it must verify.
    pub row: &'a Row,
    /// Backend, log shards, pool and schedule count of this cell.
    pub cfg: CrashAuditConfig,
}

impl fmt::Display for MatrixCell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (name, shards) = (self.row.name, self.cfg.log_shards);
        let backend = match self.cfg.backend {
            BackendKind::Mem => "mem",
            BackendKind::File => "file",
        };
        let pool = (self.cfg.pool_capacity).map_or("unbounded".into(), |n| n.to_string());
        write!(f, "{name} [{backend}, log shards {shards}, pool {pool}]")
    }
}

/// Enumerates the rows `method` selects (`all`, or a [`Row::cli`]) over
/// the given axes, `base` supplying everything else. A row whose
/// discipline ignores the pool axis lists that cell once.
#[must_use]
pub fn matrix<'a>(
    roster: &'a [Row],
    method: &str,
    backends: &[BackendKind],
    log_shards: &[usize],
    pools: &[Option<usize>],
    base: &CrashAuditConfig,
) -> Vec<MatrixCell<'a>> {
    let mut cells = Vec::new();
    for row in roster.iter().filter(|r| method == "all" || r.cli == method) {
        let mut row_pools: Vec<_> = pools
            .iter()
            .map(|p| p.filter(|_| row.bounded_pool))
            .collect();
        row_pools.dedup();
        for &backend in backends {
            let file_share = backend == BackendKind::File && backends.len() > 1;
            let schedules = match file_share {
                true => base.schedules.div_ceil(FILE_SCHEDULES),
                false => base.schedules,
            };
            for &log_shards in log_shards {
                cells.extend(row_pools.iter().map(|&pool_capacity| MatrixCell {
                    row,
                    cfg: CrashAuditConfig {
                        schedules,
                        pool_capacity,
                        backend,
                        log_shards,
                        ..base.clone()
                    },
                }));
            }
        }
    }
    cells
}

/// Drives `method` through `cfg.schedules` seeded crash schedules of
/// the one flow (see the module docs), fed `row.shape` and — when
/// `row.required` names `rebuild` — put through the media-damage legs;
/// `twin`, if any, is a method that must be observationally identical
/// to `method` on the same schedule.
///
/// # Errors
///
/// The first schedule on which a completed recovery failed the oracle,
/// a leg disagreed with the serial probe, or the substrate refused an
/// operation with no fault armed as an excuse.
pub fn audit<M, T>(method: &M, twin: Option<&T>, row: &Row, cfg: &CrashAuditConfig) -> Outcome
where
    M: RecoveryMethod,
    T: RecoveryMethod,
    M::Payload: Replay,
{
    let mut report = AuditReport::default();
    for s in 0..cfg.schedules {
        run_schedule(method, twin, row, cfg, s, &mut report).map_err(|(phase, failure)| {
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

type PhaseResult<T = ()> = Result<T, (&'static str, HarnessFailure)>;

fn mismatch(phase: &'static str, crash: Option<u64>) -> (&'static str, HarnessFailure) {
    (phase, HarnessFailure::StateMismatch { crash })
}

fn invariant(phase: &'static str, detail: String) -> (&'static str, HarnessFailure) {
    (phase, HarnessFailure::Invariant { crash: 1, detail })
}

/// Methods that forbid page chaos (logical) always get an unbounded
/// pool: an eviction is a page write.
fn pool_capacity<M: RecoveryMethod>(method: &M, cfg: &CrashAuditConfig) -> Option<usize> {
    cfg.pool_capacity.filter(|_| method.allows_page_chaos())
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

/// Schedule `s` of `cfg`: its workload, and the generator its fault
/// plans and chaos are drawn from.
fn schedule(shape: Shape, cfg: &CrashAuditConfig, s: u64) -> (Vec<PageOp>, StdRng) {
    let base = PageWorkloadSpec {
        n_ops: cfg.n_ops,
        n_pages: cfg.n_pages,
        slots_per_page: cfg.slots_per_page,
        ..Default::default()
    };
    let ops = shape.spec(base).generate(cfg.seed.wrapping_add(s));
    let rng = StdRng::seed_from_u64(cfg.seed ^ s.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    (ops, rng)
}

/// One schedule's crashed and repaired image, with the durable prefix
/// the driver decided and the oracle for it.
struct Crashed<'a, M: RecoveryMethod> {
    method: &'a M,
    cfg: &'a CrashAuditConfig,
    s: u64,
    db: Db<M::Payload>,
    /// The repaired stable state every probe recovery starts from.
    pre: State,
    durable: Vec<(PageOp, Lsn)>,
    oracle: DurablePrefix,
}

impl<'a, M: RecoveryMethod> Crashed<'a, M> {
    /// Drive → crash → repair: arms a plan sampled from `rng`, runs
    /// `ops` through the one driver until it trips, crashes, repairs.
    fn drive(
        method: &'a M,
        ops: &[PageOp],
        cfg: &'a CrashAuditConfig,
        s: u64,
        rng: &mut StdRng,
        report: &mut AuditReport,
    ) -> PhaseResult<Self> {
        let capacity = pool_capacity(method, cfg);
        let geometry = Geometry {
            slots_per_page: cfg.slots_per_page,
        };
        let mut db = Db::on_sharded(cfg.backend, geometry, capacity, cfg.log_shards);
        db.arm_faults(sample_plan(rng, ops.len() as u64 * 4));
        let mut driver = Driver::new(method, cfg.chaos, cfg.checkpoint_every);
        driver.run(&mut db, ops, rng).map_err(|e| ("workload", e))?;
        report.crash(&mut db);
        // The operation the fault left in doubt turned out durable.
        if (driver.in_doubt()).is_some_and(|lsn| lsn <= db.log.stable_lsn()) {
            report.verified("in-doubt");
        }
        let durable = driver.durable(&db).to_vec();
        Ok(Crashed {
            method,
            cfg,
            s,
            oracle: DurablePrefix::of(&ops_of(&durable), cfg.slots_per_page),
            pre: db.stable_theory_state(),
            db,
            durable,
        })
    }

    /// A leg's own generator, derived from the schedule's seed: the
    /// main schedule's fault plans must not move.
    fn leg_rng(&self, salt: u64) -> StdRng {
        StdRng::seed_from_u64(self.cfg.seed.wrapping_add(self.s) ^ salt)
    }

    /// Puts a recovery of the image (or a clone of it) through the oracle.
    fn checked(
        &self,
        phase: &'static str,
        recovered: &Db<M::Payload>,
        stats: redo_sim::SimResult<RecoveryStats>,
    ) -> PhaseResult<RecoveryStats> {
        let stats = stats.map_err(|e| (phase, e.into()))?;
        (self.oracle)
            .verify(&stats, &recovered.volatile_theory_state(), &self.pre, 1)
            .map_err(|e| (phase, e))?;
        Ok(stats)
    }

    /// The lazy executor over `db` (a clone of the image, damaged or
    /// not): serve every durable cell mid-recovery — shuffled, because
    /// sorted order serves each page's cells together and low pages
    /// first, which is also the sweeper's order — then drain. The
    /// drained state is `reference` and every served value is *final*
    /// (a served page's content never changes). The hook runs both
    /// faces of the executor and fails if they disagree. `None` when
    /// the method has no lazy path.
    fn lazy(
        &self,
        phase: &'static str,
        db: &mut Db<M::Payload>,
        reference: &State,
    ) -> PhaseResult<Option<RecoveryStats>> {
        let mut probes: Vec<Cell> = (self.durable.iter())
            .flat_map(|(op, _)| op.writes.iter().copied())
            .collect();
        probes.sort_unstable();
        probes.dedup();
        let mut rng = self.leg_rng(0x0de3_a9d5_eed5);
        for i in (1..probes.len()).rev() {
            probes.swap(i, rng.gen_range(0..=i));
        }
        let Some(res) = self.method.ondemand_restart(db, &probes) else {
            return Ok(None);
        };
        let (stats, served) = res.map_err(|e| (phase, e.into()))?;
        if db.volatile_theory_state() != *reference {
            return Err(mismatch(phase, Some(1)));
        }
        for (&cell, &mid) in probes.iter().zip(&served) {
            let fin = db.read_cell(cell).map_err(|e| (phase, e.into()))?;
            if mid != fin {
                let detail = format!(
                    "cell {cell:?} served {mid} mid-recovery but holds {fin} after the drain"
                );
                return Err(invariant(phase, detail));
            }
        }
        Ok(Some(stats))
    }

    /// `archive ∥ live` is the durable history, record for record —
    /// archiving moved the prefix, it did not lose, duplicate or
    /// reorder anything — and at the archive/live boundary it replays
    /// to the state the system had when that prefix was truncated:
    /// records the live log no longer holds at all.
    fn archive_leg(&self, report: &mut AuditReport) -> PhaseResult
    where
        M::Payload: Replay,
    {
        let spp = self.cfg.slots_per_page;
        let check = |phase, upto: Lsn| -> PhaseResult {
            let records = self.db.log.pit_records(upto);
            let mut cells = BTreeMap::new();
            let replayed: Vec<u32> = (records.map_err(|e| (phase, e.into()))?.into_iter())
                .filter_map(|rec| rec.payload.replay(&mut cells))
                .collect();
            let prefix = (self.durable.iter()).filter(|(_, lsn)| *lsn <= upto);
            if !replayed.iter().eq(prefix.clone().map(|(op, _)| &op.id)) {
                let detail = format!(
                    "archive ∥ live holds {} replayable operations up to {upto:?}, durable history has {}",
                    replayed.len(),
                    prefix.count()
                );
                return Err(invariant(phase, detail));
            }
            let (mut state, mut expected) = (State::zeroed(), State::zeroed());
            for (cell, v) in cells {
                state.set(cell.var(spp), Value(v));
            }
            prefix.for_each(|(op, _)| op.to_operation(spp).apply(&mut expected));
            if state != expected {
                return Err(mismatch(phase, Some(1)));
            }
            Ok(())
        };
        let (stable, boundary) = (self.db.log.stable_lsn(), self.db.log.first_stable());
        check("archive full replay", stable)?;
        report.verified("archive");
        if boundary > Lsn(1) && stable >= boundary {
            check("archive truncation replay", Lsn(boundary.0 - 1))?;
            report.verified("truncation");
        }
        Ok(())
    }

    /// The media-failure adversary: destroy one durable page **out of
    /// band** — [`destroy_page`](redo_sim::disk::Disk::destroy_page) on
    /// the memory backend, a deleted or `truncate(2)`-zeroed page file
    /// on the file backend — and demand state identity with the
    /// undamaged `reference` from a sequential rebuild, a lazy one, and
    /// one interrupted by a second fault. The Recovery Invariant is not
    /// checked here: a destroyed page is outside the crash model it
    /// assumes; identity is exactly the obligation that remains.
    fn media_legs(&self, reference: &State, report: &mut AuditReport) -> PhaseResult {
        let mut rng = self.leg_rng(0x3ed1_a105_7000);
        // No durable page at all: nothing to destroy.
        let pages = self.db.disk.pages();
        if pages.is_empty() {
            return Ok(());
        }
        let victim = pages[rng.gen_range(0..pages.len())].0;
        let mut damaged = self.db.clone();
        if let Some(dir) = damaged.disk.dir().map(std::path::Path::to_path_buf) {
            // As a failing medium would inflict it; the doublewrite
            // journal copy goes too (a torn-repair path must not mask
            // the loss).
            let page_file = dir.join("pages").join(format!("p{}.pg", victim.0));
            let (done, leg) = if self.s.is_multiple_of(2) {
                (std::fs::remove_file(&page_file), "file-deletion")
            } else {
                let file = std::fs::OpenOptions::new().write(true).open(&page_file);
                (file.and_then(|f| f.set_len(0)), "file-truncation")
            };
            done.map_err(|e| ("damage", HarnessFailure::Io(e.to_string())))?;
            report.verified(leg);
            let _ = std::fs::remove_file(dir.join("journal").join(format!("p{}.pg", victim.0)));
        } else {
            damaged.disk.destroy_page(victim);
        }
        // Re-crash so the damage sits in a cold image — on the file
        // backend this is the rescan that diffs the manifest and marks
        // the loss.
        damaged.crash();
        if !damaged.disk.is_lost(victim) {
            let detail = format!("destroyed page {victim:?} was not detected as media loss");
            return Err(invariant("damage", detail));
        }
        report.verified("destroyed");

        let mut rebuilt = damaged.clone();
        (self.method.recover(&mut rebuilt)).map_err(|e| ("media rebuild", e.into()))?;
        if !rebuilt.disk.lost_pages().is_empty() {
            let detail = "recovery completed with pages still lost".into();
            return Err(invariant("media rebuild", detail));
        }
        if rebuilt.volatile_theory_state() != *reference {
            return Err(mismatch("media rebuild", Some(1)));
        }
        report.verified("rebuild");

        // Both lazy faces restore the lost page at open, as the
        // rebuild above did, then serve the probes through it.
        if (self.lazy("ondemand rebuild", &mut damaged.clone(), reference)?).is_some() {
            report.verified("ondemand-rebuild");
        }

        // Let recovery die partway through the install pass (or
        // anywhere else), crash, and demand the re-run converges; then
        // once more around, where nothing may move.
        damaged.arm_faults(sample_plan(&mut rng, 4));
        let interrupted = self.method.recover(&mut damaged);
        dying(&damaged, interrupted).map_err(|e| ("interrupted rebuild", e))?;
        for crash in [2, 3] {
            damaged.crash();
            (self.method.recover(&mut damaged)).map_err(|e| ("interrupted rebuild", e.into()))?;
            if damaged.volatile_theory_state() != *reference {
                return Err(mismatch("interrupted rebuild", Some(crash)));
            }
        }
        report.verified("interrupted-rebuild");
        Ok(())
    }

    /// The twin run: `twin` drives the same workload, chaos stream and
    /// fault plan (`rng` is the main generator as it stood before the
    /// drive). Both see the same append/flush/publish event sequence —
    /// delta records differ from full snapshots only in payload bytes —
    /// so the fault trips at the same protocol step in each, including
    /// inside delta-chain publication. The twin's recovery goes through
    /// the oracle, and whenever the two kept the same durable
    /// operations at the same LSNs their recovered states are
    /// identical: the chain may change what analysis *reads*, never
    /// what recovery *rebuilds*.
    fn twin_leg<T: RecoveryMethod>(
        &self,
        twin: &T,
        ops: &[PageOp],
        mut rng: StdRng,
        reference: &State,
        report: &mut AuditReport,
    ) -> PhaseResult
    where
        M::Payload: Replay,
    {
        let tallies = &mut AuditReport::default();
        let mut other = Crashed::drive(twin, ops, self.cfg, self.s, &mut rng, tallies)?;
        let stats = twin.recover(&mut other.db);
        other.checked("twin recovery", &other.db, stats)?;
        report.verified("twin");
        if other.durable == self.durable {
            if other.db.volatile_theory_state() != *reference {
                return Err(mismatch("delta/full identity", Some(1)));
            }
            report.verified("identity");
        }
        // Proof the crash landed while an incremental chain was in force.
        let master = self.db.log.record_at_lsn(self.db.disk.master());
        if let Ok(Some(rec)) = master {
            if rec
                .payload
                .as_checkpoint()
                .is_some_and(Checkpoint::is_delta)
            {
                report.verified("delta-master");
            }
        }
        Ok(())
    }
}

fn run_schedule<M, T>(
    method: &M,
    twin: Option<&T>,
    row: &Row,
    cfg: &CrashAuditConfig,
    s: u64,
    report: &mut AuditReport,
) -> PhaseResult
where
    M: RecoveryMethod,
    T: RecoveryMethod,
    M::Payload: Replay,
{
    let (ops, mut rng) = schedule(row.shape, cfg, s);
    let twin_rng = rng.clone();
    let image = Crashed::drive(method, &ops, cfg, s, &mut rng, report)?;

    // The serial probe: the reference of every equivalence leg. Probes
    // share the image's (disarmed) injector; all are gone before the
    // second plan is armed.
    let mut serial = image.db.clone();
    let stats = method.recover(&mut serial);
    let stats = image.checked("probe recovery", &serial, stats)?;
    report.verified("recovery");
    let reference = serial.volatile_theory_state();

    // The seek index only changes where the scan enters the stable log.
    let mut seekless = image.db.clone();
    seekless.log.disable_seek_index();
    let seekless_stats = method.recover(&mut seekless);
    let seekless_stats = image.checked("seekless probe", &seekless, seekless_stats)?;
    if seekless_stats != stats {
        let detail =
            format!("seeked and unseeked recovery disagree: {stats:?} vs {seekless_stats:?}");
        return Err(invariant("seekless probe", detail));
    }
    report.verified("seekless");
    drop(seekless);

    // Theorem 3: per-page replay order is all that matters, so the
    // partitioned executor lands where the serial probe did — state,
    // invariant for its own redo set, and the dirty-page table the
    // *next* checkpoint will publish (each page's recLSN is the first
    // record replayed into it; only comparable while nothing is
    // evicted: under a bounded pool the serial probe flushes as it
    // goes).
    let mut par = image.db.clone();
    if let Some(par_stats) = method.parallel_restart(&mut par, 4) {
        image.checked("parallel probe", &par, par_stats)?;
        let (dpt, par_dpt) = (serial.pool.dirty_page_table(), par.pool.dirty_page_table());
        if pool_capacity(method, cfg).is_none() && par_dpt != dpt {
            let detail = format!(
                "serial and partitioned restart leave different dirty-page tables: {dpt:?} vs {par_dpt:?}"
            );
            return Err(invariant("parallel probe", detail));
        }
        report.verified("parallel");
    }
    drop((serial, par));

    let mut lazy = image.db.clone();
    if let Some(lazy_stats) = image.lazy("ondemand probe", &mut lazy, &reference)? {
        image.checked("ondemand probe", &lazy, Ok(lazy_stats))?;
        report.verified("ondemand");
    }
    drop(lazy);

    image.archive_leg(report)?;
    if row.required.contains(&"rebuild") {
        image.media_legs(&reference, report)?;
    }
    if let Some(twin) = twin {
        image.twin_leg(twin, &ops, twin_rng, &reference, report)?;
    }

    // Crash the real image mid-recovery. Recovery's replay is volatile
    // until a post-recovery checkpoint, so this discards all of its
    // work wherever the fault landed; where recovery does touch stable
    // storage (evictions under a bounded pool) the plan tears or
    // suppresses that I/O partway.
    let Crashed { mut db, oracle, .. } = image;
    db.arm_faults(sample_plan(&mut rng, 6));
    let interrupted = method.recover(&mut db);
    dying(&db, interrupted).map_err(|e| ("interrupted recovery", e))?;
    report.mid_recovery_crashes += 1;

    // Recover again (the durable prefix is unchanged — recovery appends
    // nothing — but the disk may hold more installed work: legal
    // flushes the interrupted recovery performed); crash and recover a
    // third time (idempotence); checkpoint, crash and recover a fourth.
    let steps = [
        ("re-recovery", false),
        ("idempotence", false),
        ("recovery from the post-recovery checkpoint", true),
    ];
    for (crash, (phase, checkpoint_first)) in (2..).zip(steps) {
        if checkpoint_first {
            (method.checkpoint(&mut db)).map_err(|e| ("post-recovery checkpoint", e.into()))?;
        }
        report.crash(&mut db);
        let pre = db.stable_theory_state();
        let stats = method.recover(&mut db).map_err(|e| (phase, e.into()))?;
        (oracle.verify(&stats, &db.volatile_theory_state(), &pre, crash))
            .map_err(|e| (phase, e))?;
        report.verified("recovery");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sums the tallies and leg counts of a row's cells.
    fn absorb(total: &mut AuditReport, cell: &AuditReport) {
        total.schedules += cell.schedules;
        total.faults_tripped += cell.faults_tripped;
        total.torn_writes += cell.torn_writes;
        total.torn_flushes += cell.torn_flushes;
        total.torn_pages_repaired += cell.torn_pages_repaired;
        total.log_bytes_dropped += cell.log_bytes_dropped;
        for (leg, n) in &cell.legs {
            *total.legs.entry(leg).or_default() += n;
        }
    }

    /// The whole matrix at small size: every roster row × {mem, file} ×
    /// {1, 4} log shards × pool {2, 4, unbounded}. Per cell, the flow's
    /// fixed counts; per row, summed over its cells, every leg its
    /// table entry requires — and a broken row caught.
    #[test]
    fn every_roster_row_verifies_its_legs_across_the_matrix() {
        let base = CrashAuditConfig {
            schedules: 12,
            n_ops: 24,
            seed: 7,
            ..Default::default()
        };
        let roster = roster();
        let mut rows: BTreeMap<&str, (AuditReport, u64)> = BTreeMap::new();
        for cell in matrix(&roster, "all", &BACKENDS, &LOG_SHARDS, &POOLS, &base) {
            let (row, n) = (cell.row, cell.cfg.schedules);
            let (total, caught) = rows.entry(row.name).or_default();
            let r = match cell.row.audit(&cell.cfg) {
                Ok(r) => r,
                Err(_) if row.expect_violation => {
                    *caught += 1;
                    continue;
                }
                Err(e) => panic!("{cell}: {e}"),
            };
            absorb(total, &r);
            if row.expect_violation {
                continue;
            }
            assert_eq!(r.schedules, n, "{cell}");
            assert_eq!((r.crashes, r.mid_recovery_crashes), (4 * n, n), "{cell}");
            assert_eq!(r.leg("recovery"), 4 * n, "{cell}");
            for leg in ["seekless", "archive", "parallel", "ondemand", "twin"] {
                let runs = leg == "seekless" || leg == "archive" || row.required.contains(&leg);
                assert_eq!(r.leg(leg), if runs { n } else { 0 }, "{cell}: {leg}");
            }
            // Media: every destroyed page rebuilt on all three legs.
            for leg in ["rebuild", "ondemand-rebuild", "interrupted-rebuild"] {
                assert_eq!(r.leg(leg), r.leg("destroyed"), "{cell}: {leg}");
            }
            if cell.cfg.backend == BackendKind::File {
                let damaged = r.leg("file-deletion") + r.leg("file-truncation");
                assert_eq!(damaged, r.leg("destroyed"), "{cell}");
            }
        }
        for row in &roster {
            let (total, caught) = &rows[row.name];
            if row.expect_violation {
                assert!(*caught > 0, "{} was never caught", row.name);
                continue;
            }
            row.judge(&Ok(total.clone()))
                .unwrap_or_else(|e| panic!("{e}"));
            assert!(
                total.faults_tripped > 0,
                "{}: no fault ever fired",
                row.name
            );
            if row.name == "physiological" {
                // Both torn kinds occur, and both get repaired.
                assert!(total.torn_writes > 0 && total.torn_flushes > 0, "{total}");
                assert!(total.torn_pages_repaired > 0, "{total}");
                assert!(total.log_bytes_dropped > 0, "{total}");
            }
            if row.required.contains(&"rebuild") {
                // Even schedules unlink the page file, odd ones
                // truncate(2) it to zero length.
                assert!(total.leg("file-deletion") > 0, "{total}");
                assert!(total.leg("file-truncation") > 0, "{total}");
            }
        }
    }

    #[test]
    fn the_matrix_lists_a_cell_once_where_the_discipline_ignores_the_pool() {
        let (roster, base) = (roster(), CrashAuditConfig::default());
        let all = matrix(&roster, "all", &BACKENDS, &LOG_SHARDS, &POOLS, &base);
        assert_eq!(all.len(), 12 * 12 + 4, "twelve pooled rows, and logical");
        let logical = matrix(&roster, "logical", &BACKENDS, &LOG_SHARDS, &POOLS, &base);
        assert!(logical.iter().all(|c| c.cfg.pool_capacity.is_none()));
        assert_eq!(
            matrix(&roster, "parallel", &BACKENDS[..1], &[2], &[None], &base).len(),
            3
        );
        assert!(matrix(&roster, "pit", &BACKENDS, &LOG_SHARDS, &POOLS, &base).is_empty());
        // Enumerating both backends, file cells run a fraction.
        for cell in &all {
            let file = cell.cfg.backend == BackendKind::File;
            assert_eq!(cell.cfg.schedules, if file { 20 } else { 100 }, "{cell}");
        }
    }

    #[test]
    fn judge_fails_a_passing_broken_row_and_a_required_leg_that_verified_nothing() {
        let roster = roster();
        let row = |name| roster.iter().find(|r| r.name == name).unwrap();
        let clean = AuditReport::default();
        assert!(row("broken-skippy-redo").judge(&Ok(clean.clone())).is_err());
        let mut report = clean.clone();
        for leg in [
            "recovery",
            "seekless",
            "archive",
            "truncation",
            "twin",
            "identity",
        ] {
            report.verified(leg);
        }
        let err = row("control").judge(&Ok(report.clone())).unwrap_err();
        assert!(err.contains("`delta-master` verified nothing"), "{err}");
        report.verified("delta-master");
        row("control").judge(&Ok(report)).unwrap();
        assert!(shape_of("control").is_ok());
        assert!(shape_of("my-new-method").is_err(), "unlisted: an error");
    }

    /// The geometry on which the parent's auditors dropped a durable
    /// operation: three pages through a two-frame pool.
    fn steal_cfg(seed: u64) -> CrashAuditConfig {
        CrashAuditConfig {
            n_ops: 80,
            n_pages: 3,
            pool_capacity: Some(2),
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn seed_32_schedule_77_keeps_the_operation_the_steal_path_made_durable() {
        // On 037e83e: "archive ∥ live holds 14 replayable operations,
        // durable history has 13", and five rows mismatch.
        let cfg = steal_cfg(32);
        let (ops, mut rng) = schedule(Shape::GENERAL, &cfg, 77);
        let mut report = AuditReport::default();
        let image = Crashed::drive(&Generalized, &ops, &cfg, 77, &mut rng, &mut report)
            .unwrap_or_else(|(phase, e)| panic!("{phase}: {e}"));
        assert_eq!(report.leg("in-doubt"), 1);
        let (_, in_doubt) = image.durable.last().unwrap();
        assert!(*in_doubt <= image.db.log.stable_lsn());
        assert_eq!(image.durable.len(), 14);
        let mut db = image.db.clone();
        let stats = Generalized.recover(&mut db);
        image
            .checked("probe recovery", &db, stats)
            .unwrap_or_else(|(_, e)| panic!("{e}"));
        image
            .archive_leg(&mut report)
            .unwrap_or_else(|(_, e)| panic!("{e}"));
    }

    #[test]
    fn seed_17_schedule_40_twin_keeps_the_operation_the_steal_path_made_durable() {
        // The parent's twin flow drew its chaos from a generator of its
        // own; on it op 51 fails with `PoolExhausted` at
        // `last_lsn == stable == 59`.
        let cfg = steal_cfg(17);
        let (ops, mut rng) = schedule(Shape::GENERAL, &cfg, 40);
        let mut db: Db<PageOpPayload> = Db::with_capacity(Geometry::default(), Some(2));
        db.arm_faults(sample_plan(&mut rng, ops.len() as u64 * 4));
        let mut chaos = StdRng::seed_from_u64(17 ^ 40u64.wrapping_mul(0xD1B5_4A32_D192_ED03));
        let mut driver = Driver::new(&Control, cfg.chaos, cfg.checkpoint_every);
        driver.run(&mut db, &ops, &mut chaos).unwrap();
        assert_eq!(driver.attempted(), 52, "op 51 is the last attempted");
        db.crash();
        db.repair_after_crash();
        assert_eq!(driver.in_doubt(), Some(Lsn(59)));
        assert_eq!(db.log.stable_lsn(), Lsn(59));
        let durable = ops_of(driver.durable(&db));
        assert_eq!(durable.last(), Some(&ops[51]));
        let pre = db.stable_theory_state();
        let stats = Control.recover(&mut db).unwrap();
        DurablePrefix::of(&durable, 8)
            .verify(&stats, &db.volatile_theory_state(), &pre, 1)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}
