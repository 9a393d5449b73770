//! One lifecycle of one workload: set-up → foreground → un-acked tail →
//! crash → restart (four ways, repeated) → verify.
//!
//! Everything here reaches the library through `SharedDb`, `Db`, the
//! `RecoveryMethod` trait and public counters only.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use redo_methods::concurrent::SharedDb;
use redo_methods::control::Controller;
use redo_methods::generalized::Generalized;
use redo_methods::media::Media;
use redo_methods::oprecord::PageOpPayload;
use redo_methods::parallel::ParallelOnline;
use redo_methods::{RecoveryMethod, RecoveryStats};
use redo_perfbench::reference::{self, NOMINAL_CPU_NS, NOMINAL_DISK_NS};
use redo_perfbench::trace::SpanRecorder;
use redo_perfbench::workloads::{Background, ClientStream, Workload, GROUP, SLOTS_PER_PAGE};
use redo_sim::backend::BackendKind;
use redo_sim::db::{Db, Geometry};
use redo_theory::log::Lsn;
use redo_workload::pages::{Cell, PageId, PageOp, SlotId};

use crate::os;

/// A crashed database image, as `SharedDb::crash` hands it over.
pub type Image = Db<PageOpPayload>;

/// A single `control_tick` longer than this aborts the run: the
/// cross-page + two-page op mix is known to make ticks take seconds,
/// and a benchmark that hangs tells nobody anything.
const TICK_GUARD_NS: u64 = 5_000_000_000;

/// Repetitions of each restart flavour per lifecycle; see [`repeat`].
const MAX_REPS: u64 = 10;
const REP_BUDGET: Duration = Duration::from_millis(100);

/// Bytes one page write moves: its slots plus the page LSN.
pub const PAGE_BYTES: u64 = SLOTS_PER_PAGE as u64 * 8 + 8;

/// The hottest cell: Zipf rank 0 is page 0 on every workload.
const HOT: Cell = Cell {
    page: PageId(0),
    slot: SlotId(0),
};

/// How fast the box ran during each phase of a lifecycle: the nominal
/// duration of the reference kernel over the mean of its durations
/// right before and right after the phase (1.0 = nominal speed). The
/// report multiplies a phase's times by it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Speeds {
    pub setup: f64,
    pub foreground: f64,
    pub offline: f64,
    pub ondemand: f64,
    pub media: f64,
}

fn speed(nominal_ns: f64, before_ns: f64, after_ns: f64) -> f64 {
    nominal_ns / ((before_ns + after_ns) / 2.0)
}

/// What one lifecycle measured. Times are raw samples; the report
/// reduces them.
#[derive(Debug, Default)]
pub struct Lifecycle {
    /// Op generation + fresh store creation, seconds.
    pub setup_s: f64,
    /// Foreground wall time, seconds (barrier release → last client done).
    pub fg_wall_s: f64,
    /// Writes whose `commit_tick` returned.
    pub acked_writes: u64,
    /// `read_cell` calls that returned a value.
    pub reads_served: u64,
    /// Calls issued: executes (tail included) + reads.
    pub attempted: u64,
    /// Calls that returned `Err`, acked writes outside the stable
    /// prefix, and recovered cells that differ from the oracle.
    pub failed: u64,
    /// `execute` start → return of the acking `commit_tick`, µs.
    pub commit_lat_us: Vec<f64>,
    /// Crashed image → first `read_cell` served, ms, per repetition.
    pub first_read_ms: Vec<f64>,
    /// Crashed image → `recovery_tick` returns `false`, ms.
    pub drained_ms: Vec<f64>,
    /// `Generalized.recover`, ms.
    pub offline_ms: Vec<f64>,
    /// `Media.recover` with one page destroyed, ms.
    pub media_ms: Vec<f64>,
    /// Stable log bytes the offline recovery scanned.
    pub crash_suffix_bytes: u64,
    /// Bytes written to log, archive and pages per byte of acked data.
    pub write_amp: f64,
    /// Box speed per phase, from the reference kernels.
    pub speeds: Speeds,
    /// Additive layer counters, by name; the report derives ratios.
    pub counts: BTreeMap<&'static str, f64>,
    /// The image the foreground left, for the traced run's probes.
    pub image: Option<Image>,
}

impl Lifecycle {
    /// Adds `v` to counter `name`.
    pub fn count(&mut self, name: &'static str, v: impl Into<f64>) {
        *self.counts.entry(name).or_insert(0.0) += v.into();
    }
}

/// What one client thread brings back from the foreground phase.
struct ClientOutcome {
    /// LSN of each write it issued, by stream index (0 = `Err`).
    lsns: Vec<u64>,
    /// Writes acknowledged: `lsns[..acked]`.
    acked: usize,
    reads_served: u64,
    errors: u64,
    commit_lat_ns: Vec<u64>,
    /// `restart_estimate().suffix_bytes` after each control tick
    /// (traced run only).
    suffix_samples: Vec<u64>,
    /// Barrier release and last commit, on the shared clock.
    started_ns: u64,
    finished_ns: u64,
    rec: SpanRecorder,
}

/// The closed loop of one client, pinned to `cpus[client]` — a CPU of
/// its own. Left to the scheduler, two clients sometimes share a CPU
/// and sometimes do not, and on this library the two cases differ 2-3x
/// in throughput (lock hand-offs between cores are the slow case): the
/// same inputs then measure two different systems.
///
/// Client 0 also runs the workload's background tick inline, on its
/// stated cadence, *before* the commit of the group it lands in — so a
/// controller stall delays that group's acknowledgement and shows in
/// the commit-latency tail.
fn run_client(
    db: &SharedDb,
    w: &Workload,
    stream: &ClientStream,
    client: usize,
    cpus: &[usize],
    mut rec: SpanRecorder,
    start: &Barrier,
) -> ClientOutcome {
    let writes = &stream.writes[..stream.tail_from];
    let traced = rec.enabled();
    rec.reserve(writes.len() * (1 + w.reads_per_write) + writes.len() / GROUP * 2 + 16);
    let mut out = ClientOutcome {
        lsns: Vec::with_capacity(stream.writes.len()),
        acked: 0,
        reads_served: 0,
        errors: 0,
        commit_lat_ns: Vec::with_capacity(writes.len()),
        suffix_samples: Vec::new(),
        started_ns: 0,
        finished_ns: 0,
        rec,
    };
    let controller = match &w.background {
        Background::Controller { budget, .. } => Some(Controller::new(budget.clone())),
        Background::Flusher { .. } => None,
    };
    let mut flush_rng = StdRng::seed_from_u64(u64::from(writes[0].id) ^ 0x5eed);
    let mut pending = [0u64; GROUP];
    if !cpus.is_empty() {
        os::run_on(&[cpus[client % cpus.len()]]);
    }
    start.wait();
    out.started_ns = out.rec.now_ns();
    out.rec.span("foreground.client", client as u64, |rec| {
        for (i, op) in writes.iter().enumerate() {
            let t0 = rec.now_ns();
            match db.execute(op) {
                Ok(lsn) => out.lsns.push(lsn.0),
                Err(_) => {
                    out.errors += 1;
                    out.lsns.push(0);
                }
            }
            if traced {
                rec.record("concurrent.execute", u64::from(op.id), t0, rec.now_ns());
            }
            pending[i % GROUP] = t0;
            for &cell in &stream.reads[i * w.reads_per_write..(i + 1) * w.reads_per_write] {
                let r0 = if traced { rec.now_ns() } else { 0 };
                match db.read_cell(cell) {
                    Ok(v) => {
                        std::hint::black_box(v);
                        out.reads_served += 1;
                    }
                    Err(_) => out.errors += 1,
                }
                if traced {
                    rec.record("concurrent.read_cell", u64::from(op.id), r0, rec.now_ns());
                }
            }
            let done = i + 1;
            if client == 0 {
                match &w.background {
                    Background::Controller { every, .. } if done % every == 0 => {
                        let controller = controller.as_ref().expect("built above");
                        let c0 = rec.now_ns();
                        if db.control_tick(controller).is_err() {
                            out.errors += 1;
                        }
                        let c1 = rec.now_ns();
                        rec.record("control.tick", (done / every) as u64, c0, c1);
                        if c1 - c0 > TICK_GUARD_NS {
                            eprintln!(
                                "redo-bench: {}: control_tick #{} took {:.1} s (> 5 s guard); aborting",
                                w.name,
                                done / every,
                                (c1 - c0) as f64 / 1e9
                            );
                            std::process::exit(3);
                        }
                        if traced {
                            let est = db.restart_estimate();
                            out.suffix_samples.push(est.suffix_bytes);
                        }
                    }
                    Background::Flusher { every, p } if done % every == 0 => {
                        let f0 = rec.now_ns();
                        if db.flusher_tick(&mut flush_rng, *p).is_err() {
                            out.errors += 1;
                        }
                        rec.record(
                            "concurrent.flusher_tick",
                            (done / every) as u64,
                            f0,
                            rec.now_ns(),
                        );
                    }
                    _ => {}
                }
            }
            if done % GROUP == 0 {
                let g0 = rec.now_ns();
                db.commit_tick();
                let g1 = rec.now_ns();
                rec.record("concurrent.commit_tick", (done / GROUP) as u64, g0, g1);
                out.commit_lat_ns.extend(pending.iter().map(|&t| g1 - t));
                out.acked = done;
            }
        }
    });
    out.finished_ns = out.rec.now_ns();
    out
}

/// On the file backend, commits the filesystem's pending metadata work
/// (the previous lifecycle's clones created and deleted hundreds of
/// files) before a timed phase starts: on a journalling filesystem an
/// `fdatasync` otherwise pays for whatever the journal still holds, and
/// foreground throughput drifts down lifecycle after lifecycle.
fn settle_files(w: &Workload) {
    if w.backend == BackendKind::File {
        os::sync_filesystem(&std::env::temp_dir());
    }
}

/// The reference kernel of the foreground phase: the disk kernel where
/// commits wait for `fdatasync`, the CPU kernel elsewhere. Returns its
/// duration and the nominal one it is judged against.
fn foreground_reference(w: &Workload) -> Result<(f64, f64), String> {
    match w.backend {
        BackendKind::Mem => Ok((reference::cpu_ns(), NOMINAL_CPU_NS)),
        BackendKind::File => reference::disk_ns(&std::env::temp_dir())
            .map(|ns| (ns, NOMINAL_DISK_NS))
            .map_err(|e| format!("{}: disk reference kernel: {e}", w.name)),
    }
}

/// The page the media restart loses: the hottest one if it was ever
/// materialized, else the first that was.
pub fn media_victim(image: &Image) -> PageId {
    if image.disk.page_lsn(HOT.page) > Lsn::ZERO {
        HOT.page
    } else {
        image.disk.pages().first().map_or(HOT.page, |&(id, _)| id)
    }
}

/// The oracle: replays every write that reached the stable prefix, in
/// LSN order, through `PageOp::output` into a plain cell vector
/// (page-major). Also counts acked writes that did *not* reach it.
fn oracle(
    streams: &[ClientStream],
    outcomes: &[ClientOutcome],
    stable: u64,
    n_pages: u32,
) -> (Vec<u64>, u64) {
    let mut durable: Vec<(u64, &PageOp)> = Vec::new();
    let mut lost_acks = 0u64;
    for (stream, outcome) in streams.iter().zip(outcomes) {
        for (i, (op, &lsn)) in stream.writes.iter().zip(&outcome.lsns).enumerate() {
            if lsn != 0 && lsn <= stable {
                durable.push((lsn, op));
            } else if i < outcome.acked && lsn != 0 {
                // Acknowledged, yet past the stable LSN: a broken promise.
                // (`Err` returns were already counted as errors.)
                lost_acks += 1;
            }
        }
    }
    durable.sort_unstable_by_key(|&(lsn, _)| lsn);
    let spp = usize::from(SLOTS_PER_PAGE);
    let at = |c: Cell| c.page.0 as usize * spp + usize::from(c.slot.0);
    let mut cells = vec![0u64; n_pages as usize * spp];
    let mut reads = Vec::new();
    for (_, op) in durable {
        reads.clear();
        reads.extend(op.reads.iter().map(|&c| cells[at(c)]));
        for &c in &op.writes {
            cells[at(c)] = op.output(c, &reads);
        }
    }
    (cells, lost_acks)
}

fn all_cells(n_pages: u32) -> impl Iterator<Item = Cell> {
    (0..n_pages).flat_map(|p| {
        (0..SLOTS_PER_PAGE).map(move |s| Cell {
            page: PageId(p),
            slot: SlotId(s),
        })
    })
}

/// Repeats one restart flavour: once, then on until [`REP_BUDGET`] of
/// wall time (cloning and verifying included) or [`MAX_REPS`] — a
/// restart that takes a millisecond needs many repetitions for a steady
/// median, one that takes a third of a second cannot afford them.
fn repeat(mut once: impl FnMut(u64) -> Result<(), String>) -> Result<(), String> {
    let started = Instant::now();
    for rep in 0..MAX_REPS {
        if rep > 0 && started.elapsed() >= REP_BUDGET {
            break;
        }
        once(rep)?;
    }
    Ok(())
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn note_recovery(life: &mut Lifecycle, stats: &RecoveryStats) {
    life.count("generalized.recover.scanned", stats.scanned as f64);
    life.count("generalized.recover.replayed", stats.replayed.len() as f64);
    life.count("generalized.recover.skipped", stats.skipped.len() as f64);
    life.count(
        "generalized.recover.bytes_scanned",
        stats.bytes_scanned as f64,
    );
    life.count(
        "generalized.recover.pages_prefetched",
        stats.pages_prefetched as f64,
    );
}

/// Runs one lifecycle of `w` on inputs generated from `seed`.
///
/// # Errors
///
/// A restart path returning `Err` — that is a broken build, not a
/// measurement, so the run stops instead of reporting numbers.
pub fn run(
    w: &Workload,
    seed: u64,
    smoke: bool,
    lifecycle: u64,
    rec: &mut SpanRecorder,
) -> Result<Lifecycle, String> {
    let mut life = Lifecycle::default();
    let fail = |what: &str, e: redo_sim::SimError| format!("{}: {what}: {e:?}", w.name);

    // ---- set-up -------------------------------------------------------
    let ref_before_setup = reference::cpu_ns();
    let s0 = rec.now_ns();
    let (streams, db) = rec.span("setup", lifecycle, |rec| {
        let streams = rec.span("workload.generate", lifecycle, |_| w.streams(seed, smoke));
        // A fresh file-backed or N-log-shard `SharedDb` is only reachable
        // by reopening a fresh `Db` — `SharedDb::new` is mem, one shard.
        let db = rec.span("concurrent.open_fresh", lifecycle, |_| {
            SharedDb::open_on_demand(Db::on_sharded(
                w.backend,
                Geometry {
                    slots_per_page: SLOTS_PER_PAGE,
                },
                None,
                w.log_shards,
            ))
        });
        (streams, db)
    });
    let db = db.map_err(|e| fail("open fresh store", e))?;
    life.setup_s = (rec.now_ns() - s0) as f64 / 1e9;
    life.speeds.setup = speed(NOMINAL_CPU_NS, ref_before_setup, reference::cpu_ns());

    // ---- foreground ---------------------------------------------------
    settle_files(w);
    let start = Barrier::new(w.clients);
    let cpus = os::allowed_cpus();
    // The reference kernel runs where client 0 will: on a shared host the
    // two CPUs need not be equally fast at the same moment.
    os::run_on(&cpus[..cpus.len().min(1)]);
    let (ref_before_fg, nominal_fg) = foreground_reference(w)?;
    let mut outcomes: Vec<ClientOutcome> = rec.span("foreground", lifecycle, |rec| {
        let mut outcomes = std::thread::scope(|s| {
            let workers: Vec<_> = (1..w.clients)
                .map(|client| {
                    let (db, stream, start, fork) = (&db, &streams[client], &start, rec.fork());
                    let cpus = &cpus;
                    s.spawn(move || run_client(db, w, stream, client, cpus, fork, start))
                })
                .collect();
            let mut outcomes = vec![run_client(
                &db,
                w,
                &streams[0],
                0,
                &cpus,
                rec.fork(),
                &start,
            )];
            outcomes.extend(
                workers
                    .into_iter()
                    .map(|h| h.join().expect("client thread panicked")),
            );
            outcomes
        });
        for outcome in &mut outcomes {
            let worker = std::mem::replace(&mut outcome.rec, rec.fork());
            rec.absorb(worker);
        }
        outcomes
    });
    let released = outcomes
        .iter()
        .map(|o| o.started_ns)
        .min()
        .expect("a client");
    let finished = outcomes
        .iter()
        .map(|o| o.finished_ns)
        .max()
        .expect("a client");
    life.fg_wall_s = (finished - released) as f64 / 1e9;
    life.speeds.foreground = speed(nominal_fg, ref_before_fg, foreground_reference(w)?.0);
    // Client 0 ran on this thread; give it (and the threads parallel redo
    // will spawn from it) every CPU back.
    os::run_on(&cpus);

    // ---- the un-acked tail, then the crash -----------------------------
    for op in &streams[0].writes[streams[0].tail_from..] {
        let lsn = db.execute(op).map_or(0, |lsn| lsn.0);
        if lsn == 0 {
            outcomes[0].errors += 1;
        }
        outcomes[0].lsns.push(lsn);
    }
    let daemon = db.daemon_stats();
    let final_estimate = db.restart_estimate();
    db.shutdown();
    let image = rec.span("concurrent.crash", lifecycle, |_| db.crash());
    let stable = image.log.stable_lsn().0;

    let mut acked_cells = 0u64;
    for (stream, outcome) in streams.iter().zip(&outcomes) {
        life.acked_writes += outcome.acked as u64;
        life.reads_served += outcome.reads_served;
        life.attempted += (outcome.lsns.len() + stream.reads.len()) as u64;
        life.failed += outcome.errors;
        life.count("concurrent.execute.errors", outcome.errors as f64);
        life.commit_lat_us
            .extend(outcome.commit_lat_ns.iter().map(|&ns| ns as f64 / 1e3));
        acked_cells += stream.writes[..outcome.acked]
            .iter()
            .map(|op| op.writes.len() as u64)
            .sum::<u64>();
    }
    let log_bytes = image.log.appended_bytes() + image.log.archived_bytes();
    let page_bytes = image.disk.page_writes() * PAGE_BYTES;
    life.write_amp = (log_bytes + page_bytes) as f64 / (8 * acked_cells).max(1) as f64;
    life.count("wal.appended_bytes", image.log.appended_bytes() as f64);
    life.count("wal.forces", image.log.forces() as f64);
    life.count("wal.syncs", image.log.syncs() as f64);
    life.count("wal.archived_bytes", image.log.archived_bytes() as f64);
    life.count("wal.records", image.log.last_lsn().0 as f64);
    life.count("disk.page_writes", image.disk.page_writes() as f64);
    life.count("control.checkpoints_taken", daemon.checkpoints_taken as f64);
    life.count("control.deltas_published", daemon.deltas_published as f64);
    life.count(
        "control.checkpoints_skipped",
        daemon.checkpoints_skipped as f64,
    );
    life.count(
        "control.checkpoints_abandoned",
        daemon.checkpoints_abandoned as f64,
    );
    life.count("control.truncated_bytes", daemon.truncated_bytes as f64);
    life.count(
        "control.dirty_pages_final",
        final_estimate.dirty_pages as f64,
    );
    if let Background::Controller { budget, .. } = &w.background {
        let samples = &outcomes[0].suffix_samples;
        let over = samples
            .iter()
            .filter(|&&s| s > budget.max_suffix_bytes)
            .count();
        life.count("control.suffix_samples", samples.len() as f64);
        life.count("control.suffix_samples_over_budget", over as f64);
        life.count(
            "control.suffix_bytes_max",
            samples.iter().copied().max().unwrap_or(0) as f64,
        );
    }

    // ---- verify: what must the recovered state be? ----------------------
    let (expect, lost_acks) = rec.span("verify.model_replay", lifecycle, |_| {
        oracle(&streams, &outcomes, stable, w.n_pages)
    });
    life.failed += lost_acks;
    // Every recovered image must equal the oracle cell for cell — which
    // also makes the restart flavours state-identical.
    //
    // One exception, reported rather than hidden: the *on-demand*
    // drained state diverges on the unmodified library in two ways
    // (README "Known defects" reproduces both): a component that replays
    // read page x before a still-gated reader `y <- f(x)` hands the
    // reader x's final value, and a page first dirtied while another
    // client's checkpoint is snapshotting the dirty-page table is
    // missing from it and never gated. Only on workloads of a shape that
    // can meet one of those, and only up to a measured cap per
    // lifecycle (`Workload::ondemand_waived_cells`), do such cells go to
    // `verify.ondemand_divergent_cells` instead of `failed`, so those
    // workloads stay measurable until the library is fixed.
    let waived = w.ondemand_waived_cells(smoke);
    let check = |life: &mut Lifecycle,
                 rec: &mut SpanRecorder,
                 flavour: &str,
                 rep: u64,
                 read: &mut dyn FnMut(Cell) -> redo_sim::SimResult<u64>| {
        let bad = rec.span("verify.compare", lifecycle, |_| {
            let mut bad = 0u64;
            for (cell, want) in all_cells(w.n_pages).zip(&expect) {
                if read(cell).map_err(|e| fail("verify read", e))? != *want {
                    bad += 1;
                }
            }
            Ok::<u64, String>(bad)
        })?;
        life.count("verify.cells_checked", expect.len() as f64);
        if flavour == "on-demand" && bad <= waived {
            // The restart is deterministic, so every repetition diverges
            // alike: count the lifecycle's cells once.
            if rep == 0 {
                life.count("verify.ondemand_divergent_cells", bad as f64);
            }
            return Ok(());
        }
        if bad > 0 {
            eprintln!(
                "redo-bench: {}: {flavour} restart: {bad} of {} cells differ from the oracle",
                w.name,
                expect.len()
            );
        }
        life.count("verify.mismatches", bad as f64);
        life.failed += bad;
        Ok::<(), String>(())
    };

    // ---- restart, four ways, each on a clone of the crashed image -------
    // Cloning and verifying stay outside every timed interval.
    let victim = media_victim(&image);
    let ref_before_offline = reference::cpu_ns();
    // Offline: the Figure-6 sequential procedure.
    repeat(|rep| {
        let mut copy = image.clone();
        let t0 = rec.now_ns();
        let stats = Generalized
            .recover(&mut copy)
            .map_err(|e| fail("Generalized.recover", e))?;
        let t1 = rec.now_ns();
        rec.record("generalized.recover", rep, t0, t1);
        life.offline_ms.push(ms(t1 - t0));
        if rep == 0 {
            life.crash_suffix_bytes = stats.bytes_scanned;
            note_recovery(&mut life, &stats);
        }
        check(&mut life, rec, "offline", rep, &mut |c| copy.read_cell(c))?;
        Ok(())
    })?;
    let ref_before_ondemand = reference::cpu_ns();
    life.speeds.offline = speed(NOMINAL_CPU_NS, ref_before_offline, ref_before_ondemand);

    // On demand: open, serve the hottest cell, sweep until drained.
    repeat(|rep| {
        let copy = image.clone();
        let t0 = rec.now_ns();
        let (shared, first, t_first, t_drained) = rec
            .span("restart.ondemand", rep, |rec| {
                let shared = rec.span("concurrent.open_on_demand", rep, |_| {
                    SharedDb::open_on_demand(copy)
                })?;
                if rep == 0 {
                    life.count(
                        "concurrent.open_on_demand.gates",
                        shared.gated_count() as f64,
                    );
                }
                let r0 = rec.now_ns();
                let first = shared.read_cell(HOT)?;
                let t_first = rec.now_ns();
                rec.record("concurrent.first_read", rep, r0, t_first);
                loop {
                    let k0 = rec.now_ns();
                    let more = shared.recovery_tick()?;
                    rec.record("concurrent.recovery_tick", rep, k0, rec.now_ns());
                    if !more {
                        break;
                    }
                }
                Ok((shared, first, t_first, rec.now_ns()))
            })
            .map_err(|e| fail("on-demand restart", e))?;
        life.first_read_ms.push(ms(t_first - t0));
        life.drained_ms.push(ms(t_drained - t0));
        if first != expect[0] {
            eprintln!("redo-bench: {}: first on-demand read is wrong", w.name);
            life.failed += 1;
        }
        check(&mut life, rec, "on-demand", rep, &mut |c| {
            shared.read_cell(c)
        })?;
        Ok(())
    })?;
    let ref_before_media = reference::cpu_ns();
    life.speeds.ondemand = speed(NOMINAL_CPU_NS, ref_before_ondemand, ref_before_media);

    // Media: one materialized page file is gone.
    repeat(|rep| {
        let mut copy = image.clone();
        copy.disk.destroy_page(victim);
        let t0 = rec.now_ns();
        Media
            .recover(&mut copy)
            .map_err(|e| fail("Media.recover", e))?;
        let t1 = rec.now_ns();
        rec.record("media.recover", rep, t0, t1);
        life.media_ms.push(ms(t1 - t0));
        check(&mut life, rec, "media", rep, &mut |c| copy.read_cell(c))?;
        Ok(())
    })?;
    life.speeds.media = speed(NOMINAL_CPU_NS, ref_before_media, reference::cpu_ns());

    // Partitioned parallel redo, where the log admits it. A layer metric
    // only, so the untraced run skips it.
    if w.parallel_redo && rec.enabled() {
        repeat(|rep| {
            let mut copy = image.clone();
            let t0 = rec.now_ns();
            ParallelOnline { threads: 2 }
                .recover(&mut copy)
                .map_err(|e| fail("ParallelOnline.recover", e))?;
            let t1 = rec.now_ns();
            rec.record("parallel.recover", rep, t0, t1);
            check(&mut life, rec, "parallel", rep, &mut |c| copy.read_cell(c))?;
            Ok(())
        })?;
    }
    life.image = Some(image);
    Ok(life)
}
