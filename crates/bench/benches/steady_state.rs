//! STEADY_STATE — the adaptive checkpoint/flush control loop vs the
//! open-loop fixed-period daemon, under sustained Zipf multi-tenant
//! traffic with one deliberately cold page (written once at the start
//! and never again — the recLSN anchor that defeats open-loop
//! checkpointing).
//!
//! Two configurations drive the identical operation stream through the
//! concurrent substrate:
//!
//! * `fixed` — the open-loop daemon: `checkpoint_tick(0)` on a fixed
//!   cadence, no targeted flushing. The cold page pins every
//!   checkpoint's redo-start at its recLSN, so the restart suffix (the
//!   stable bytes a crash would force recovery to scan) grows
//!   **monotonically** with the run — restart latency scales with
//!   lifetime, not churn.
//! * `controller` — the closed loop: `control_tick` against a
//!   [`RestartBudget`]. Each tick estimates the restart cost, flushes
//!   coldest-first until the truncation horizon clears the budget, and
//!   publishes (mostly incremental delta) checkpoints, each of which
//!   drains the log below its redo-start to the archive tier. The
//!   suffix stays **under twice the budget** for the whole run.
//!
//! Shape checks before timing assert exactly that story, plus state
//! identity: both crashed images recover to the same issue-order state,
//! and the controller image's restart scan decodes far fewer bytes.
//! Foreground latency percentiles (p50 / p95 / p99 / max per
//! operation, checkpoint stalls included) are printed for both
//! configurations. The timed benchmarks measure crash recovery on each
//! image.
//!
//! A fourth shape check guards the tick itself: `control_tick` over
//! 4 096 dirty pages must cost no more than twice as much *per page
//! flushed* as over 256 — a ratio of best-of-5 times, not an absolute.
//! The stream above never has more than 65 pages dirty, which is why
//! nothing here noticed a tick that re-listed and re-sorted the whole
//! dirty-page table for every page it flushed.
//!
//! Set `STEADY_STATE_SMOKE=1` to run the short CI smoke shape-check
//! (the asserts still run; the run is just shorter).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use redo_methods::concurrent::SharedDb;
use redo_methods::control::{Controller, RestartBudget};
use redo_methods::generalized::Generalized;
use redo_methods::RecoveryMethod;
use redo_sim::db::Geometry;
use redo_theory::state::State;
use redo_workload::pages::{Cell, PageId, PageOp, PageOpKind, SlotId};
use redo_workload::Zipf;

/// Tenants of the multi-tenant stream: each owns a disjoint page range
/// with its own skew — hot tenants churn a few pages, colder tenants
/// spread wide.
const TENANTS: [(u32, f64); 4] = [(0, 1.1), (16, 0.9), (32, 0.6), (48, 0.3)];
const PAGES_PER_TENANT: usize = 16;
/// The page written exactly once, first — the cold recLSN anchor.
const COLD_PAGE: PageId = PageId(200);

/// The shared multi-tenant operation stream: one cold write, then
/// round-robin Zipf traffic across the tenants.
fn workload(n_ops: u32, seed: u64) -> Vec<PageOp> {
    let mut rng = StdRng::seed_from_u64(seed);
    let zipfs: Vec<(u32, Zipf)> = TENANTS
        .iter()
        .map(|&(base, s)| (base, Zipf::new(PAGES_PER_TENANT, s)))
        .collect();
    let mut ops = Vec::with_capacity(n_ops as usize + 1);
    let cold = Cell {
        page: COLD_PAGE,
        slot: SlotId(0),
    };
    ops.push(PageOp {
        id: 0,
        kind: PageOpKind::Blind,
        reads: vec![],
        writes: vec![cold],
        f_seed: 77,
    });
    for i in 0..n_ops {
        let (base, zipf) = &zipfs[i as usize % TENANTS.len()];
        let cell = Cell {
            page: PageId(base + zipf.sample(&mut rng) as u32),
            slot: SlotId(0),
        };
        ops.push(PageOp {
            id: i + 1,
            kind: PageOpKind::Physiological,
            reads: vec![cell],
            writes: vec![cell],
            f_seed: 9,
        });
    }
    ops
}

struct RunOutcome {
    image: redo_sim::db::Db<redo_methods::oprecord::PageOpPayload>,
    /// Restart-suffix estimate sampled after every cadence tick.
    suffix_samples: Vec<u64>,
    /// Per-operation foreground latency (checkpoint stalls included).
    latencies: Vec<Duration>,
    checkpoints_taken: u64,
    deltas_published: u64,
    truncated_bytes: u64,
}

/// Drives the workload through one configuration and crashes it.
fn drive(ops: &[PageOp], cadence: usize, controller: Option<&Controller>) -> RunOutcome {
    let shared = SharedDb::new(Geometry { slots_per_page: 8 });
    let mut suffix_samples = Vec::new();
    let mut latencies = Vec::with_capacity(ops.len());
    for (i, op) in ops.iter().enumerate() {
        let t = Instant::now();
        shared.execute(op).expect("execute");
        if (i + 1).is_multiple_of(cadence) {
            shared.commit_tick();
            match controller {
                Some(c) => {
                    shared.control_tick(c).expect("control tick");
                }
                None => {
                    shared.checkpoint_tick(0).expect("fixed checkpoint");
                }
            }
            suffix_samples.push(shared.restart_estimate().suffix_bytes);
        }
        latencies.push(t.elapsed());
    }
    shared.commit_tick();
    let stats = shared.daemon_stats();
    shared.shutdown();
    RunOutcome {
        image: shared.crash(),
        suffix_samples,
        latencies,
        checkpoints_taken: stats.checkpoints_taken,
        deltas_published: stats.deltas_published,
        truncated_bytes: stats.truncated_bytes,
    }
}

/// Best-of-5 nanoseconds of one `control_tick` per page it flushed,
/// over `dirty_pages` pages each dirtied once (no write-order
/// constraints, so every round flushes the head of the recLSN order)
/// and a budget that has the tick drain nearly all of them.
fn tick_ns_per_page_flushed(dirty_pages: u32) -> f64 {
    let controller = Controller::new(RestartBudget {
        max_suffix_bytes: 1024,
        max_dirty_pages: 16,
        ..Default::default()
    });
    let dirtied = || {
        let shared = SharedDb::new(Geometry { slots_per_page: 8 });
        for i in 0..dirty_pages {
            // Scattered, so recLSN order is not page order.
            let cell = Cell {
                page: PageId(i.wrapping_mul(2_654_435_761) % dirty_pages),
                slot: SlotId(0),
            };
            let op = PageOp {
                id: i,
                kind: PageOpKind::Physiological,
                reads: vec![cell],
                writes: vec![cell],
                f_seed: 9,
            };
            shared.execute(&op).expect("execute");
        }
        shared.commit_tick();
        shared
    };
    let probe = dirtied();
    probe.control_tick(&controller).expect("control tick");
    let stats = probe.daemon_stats();
    assert_eq!(
        (stats.drain_refused, stats.drain_stalled),
        (0, 0),
        "constraint-free stream: the coldest page always flushes"
    );
    assert!(
        stats.drain_rounds >= u64::from(dirty_pages) * 9 / 10,
        "the tick must drain the table: {} of {dirty_pages} pages",
        stats.drain_rounds
    );
    let best = redo_bench::best_of(5, dirtied, |shared| {
        shared.control_tick(&controller).expect("control tick")
    });
    best.as_nanos() as f64 / stats.drain_rounds as f64
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn print_latencies(label: &str, latencies: &[Duration]) {
    let mut sorted = latencies.to_vec();
    sorted.sort_unstable();
    println!(
        "steady_state latency [{label}]: p50 {:?}, p95 {:?}, p99 {:?}, max {:?} over {} ops",
        percentile(&sorted, 0.50),
        percentile(&sorted, 0.95),
        percentile(&sorted, 0.99),
        sorted.last().copied().unwrap_or_default(),
        sorted.len(),
    );
}

fn recovered_state(
    image: &redo_sim::db::Db<redo_methods::oprecord::PageOpPayload>,
) -> (State, u64) {
    let mut db = image.clone();
    let stats = Generalized.recover(&mut db).expect("image recovers");
    (db.volatile_theory_state(), stats.bytes_scanned)
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::var("STEADY_STATE_SMOKE").is_ok();
    let n_ops: u32 = if smoke { 2_000 } else { 20_000 };
    let cadence = 50usize;
    let budget = RestartBudget {
        max_suffix_bytes: 16 * 1024,
        max_dirty_pages: 32,
        ..Default::default()
    };
    let controller = Controller::new(budget.clone());
    let ops = workload(n_ops, 23);

    let adaptive = drive(&ops, cadence, Some(&controller));
    let fixed = drive(&ops, cadence, None);

    // Shape check 1 — the open loop's pathology: with the cold page
    // pinning redo-start, the fixed daemon's restart suffix grows
    // monotonically for the entire run.
    assert!(
        fixed.suffix_samples.windows(2).all(|w| w[1] >= w[0]),
        "fixed daemon suffix must grow monotonically: {:?}",
        fixed.suffix_samples
    );
    assert!(
        fixed.suffix_samples.last().copied().unwrap_or(0) > 2 * budget.max_suffix_bytes,
        "the run is long enough that the open loop blows the budget"
    );

    // Shape check 2 — the closed loop's bound: after a short warmup
    // every post-tick estimate stays under twice the budget.
    let warmup = 4usize.min(adaptive.suffix_samples.len());
    for (k, &s) in adaptive.suffix_samples.iter().enumerate().skip(warmup) {
        assert!(
            s < 2 * budget.max_suffix_bytes,
            "controller suffix blew the budget at tick {k}: {s} bytes (budget {})",
            budget.max_suffix_bytes
        );
    }
    assert!(
        adaptive.checkpoints_taken > 0,
        "controller fired checkpoints"
    );
    assert!(
        adaptive.deltas_published > 0,
        "controller published incremental deltas"
    );
    assert!(
        adaptive.truncated_bytes > 0,
        "controller advanced the horizon"
    );

    // Shape check 3 — identical semantics, cheaper restart: both
    // crashed images recover the same issue-order state, and the
    // controller image's scan decodes fewer stable bytes.
    let (adaptive_state, adaptive_scanned) = recovered_state(&adaptive.image);
    let (fixed_state, fixed_scanned) = recovered_state(&fixed.image);
    assert_eq!(
        adaptive_state, fixed_state,
        "the controller changed the recovered state"
    );
    assert!(
        adaptive_scanned < fixed_scanned,
        "controller restart must scan less: {adaptive_scanned} vs {fixed_scanned} bytes"
    );

    // Shape check 4 — the tick costs what the pages it flushes cost,
    // not what the dirty-page table holds (a ratio: holds on a noisy
    // box where absolute times do not).
    let (small, large) = (
        tick_ns_per_page_flushed(256),
        tick_ns_per_page_flushed(4096),
    );
    println!(
        "steady_state shape-check [dirty_pages 256 vs 4096]: control_tick {small:.0} vs \
         {large:.0} ns per page flushed ({:.2}x)",
        large / small
    );
    assert!(
        large <= 2.0 * small,
        "control_tick per page flushed grew {:.1}x from 256 to 4096 dirty pages",
        large / small
    );

    println!(
        "steady_state shape-check [n={n_ops}]: controller suffix {:?} -> {:?} bytes \
         ({} checkpoints, {} deltas, {} bytes truncated); fixed suffix {:?} -> {:?} bytes; \
         restart scans {adaptive_scanned} vs {fixed_scanned} bytes",
        adaptive.suffix_samples.first(),
        adaptive.suffix_samples.last(),
        adaptive.checkpoints_taken,
        adaptive.deltas_published,
        adaptive.truncated_bytes,
        fixed.suffix_samples.first(),
        fixed.suffix_samples.last(),
    );
    print_latencies("controller", &adaptive.latencies);
    print_latencies("fixed", &fixed.latencies);

    let mut group = c.benchmark_group("steady_state");
    for (label, outcome) in [("recover_controller", &adaptive), ("recover_fixed", &fixed)] {
        group.bench_with_input(
            BenchmarkId::new(label, n_ops),
            &outcome.image,
            |b, image| {
                b.iter_batched(
                    || (*image).clone(),
                    |mut db| Generalized.recover(&mut db).unwrap(),
                    BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
