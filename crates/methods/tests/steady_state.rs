//! Steady-state property test for the adaptive checkpoint/flush
//! controller: under sustained Zipf-skewed traffic with randomized
//! cache chaos, the closed control loop must keep the *restart suffix*
//! (stable log bytes a crash would force recovery to scan) near its
//! configured budget, publish incremental delta checkpoints once a
//! chain exists, and still recover the exact issue-order state after a
//! crash — byte-for-byte the same state an open-loop fixed-period
//! daemon recovers from the identical operation stream.
//!
//! The twin runs share one workload: a controller-driven database
//! (`control_tick` on a cadence) and a fixed-period one
//! (`checkpoint_tick(0)` on the same cadence, no targeted flushing — the
//! open-loop daemon this PR's controller replaces). Checkpoint records
//! differ between the twins, but checkpoints never change operation
//! semantics, so both crashed images must recover to the workload's
//! issue-order model.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use redo_methods::concurrent::SharedDb;
use redo_methods::control::{Controller, RestartBudget};
use redo_methods::generalized::Generalized;
use redo_methods::RecoveryMethod;
use redo_sim::db::Geometry;
use redo_workload::pages::{Cell, PageId, PageOp, PageOpKind, SlotId};
use redo_workload::Zipf;

/// One Zipf-skewed physiological read-modify-write stream, plus the
/// issue-order model of its final cell values.
fn zipf_stream(
    seed: u64,
    n_ops: u32,
    n_pages: usize,
    s: f64,
) -> (Vec<PageOp>, BTreeMap<Cell, u64>) {
    let zipf = Zipf::new(n_pages, s);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cells: BTreeMap<Cell, u64> = BTreeMap::new();
    let mut ops = Vec::with_capacity(n_ops as usize);
    for i in 0..n_ops {
        let cell = Cell {
            page: PageId(zipf.sample(&mut rng) as u32),
            slot: SlotId(0),
        };
        let op = PageOp {
            id: i,
            kind: PageOpKind::Physiological,
            reads: vec![cell],
            writes: vec![cell],
            f_seed: 9,
        };
        let reads = vec![cells.get(&cell).copied().unwrap_or(0)];
        cells.insert(cell, op.output(cell, &reads));
        ops.push(op);
    }
    (ops, cells)
}

/// Crashes `shared`, recovers it through the generalized analysis
/// (which folds delta chains and reads full snapshots alike), and
/// asserts the recovered image equals the issue-order model.
fn crash_and_check(
    shared: SharedDb,
    model: &BTreeMap<Cell, u64>,
    twin: &str,
) -> Result<(), TestCaseError> {
    let mut db = shared.crash();
    let stats = Generalized
        .recover(&mut db)
        .expect("steady-state image recovers");
    prop_assert!(
        stats.checkpoint_lsn.is_some(),
        "{twin}: a long run must have published a checkpoint"
    );
    for (&cell, &v) in model {
        prop_assert_eq!(
            db.read_cell(cell).expect("recovered cell readable"),
            v,
            "{} diverged from the issue order at {:?}",
            twin,
            cell
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16 })]

    /// The closed loop vs the open loop, on one workload. The
    /// controller twin must end with its estimated restart suffix under
    /// twice the budget (the slack covers the ops issued since the last
    /// tick); the fixed-period twin is the recovery oracle: both
    /// crashed images recover to the identical issue-order state, so
    /// the delta chains and targeted flushes changed restart *cost*,
    /// never restart *semantics*.
    #[test]
    fn controller_bounds_suffix_and_matches_fixed_daemon_after_crash(
        seed in 0u64..10_000,
        zipf_centi_s in 30u32..120,
        cadence in 3u32..9,
        chaos_centi_p in 0u32..40,
    ) {
        let zipf_s = f64::from(zipf_centi_s) / 100.0;
        let chaos_p = f64::from(chaos_centi_p) / 100.0;
        let (ops, model) = zipf_stream(seed, 240, 40, zipf_s);
        let budget = RestartBudget {
            max_suffix_bytes: 2048,
            max_dirty_pages: 8,
            ..Default::default()
        };
        let controller = Controller::new(budget.clone());

        let adaptive = SharedDb::new(Geometry { slots_per_page: 8 });
        let fixed = SharedDb::new(Geometry { slots_per_page: 8 });
        let mut chaos_a = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        let mut chaos_f = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
        for (i, op) in ops.iter().enumerate() {
            adaptive.execute(op).expect("adaptive execute");
            fixed.execute(op).expect("fixed execute");
            adaptive.flusher_tick(&mut chaos_a, chaos_p).expect("chaos");
            fixed.flusher_tick(&mut chaos_f, chaos_p).expect("chaos");
            if (i as u32 + 1).is_multiple_of(cadence) {
                adaptive.commit_tick();
                fixed.commit_tick();
                adaptive.control_tick(&controller).expect("control tick");
                fixed.checkpoint_tick(0).expect("fixed checkpoint");
            }
        }
        adaptive.commit_tick();
        fixed.commit_tick();
        adaptive.control_tick(&controller).expect("final control tick");

        let est = adaptive.restart_estimate();
        prop_assert!(
            est.suffix_bytes < 2 * budget.max_suffix_bytes,
            "controller failed to bound the restart suffix: {} bytes (budget {})",
            est.suffix_bytes,
            budget.max_suffix_bytes
        );
        let stats = adaptive.daemon_stats();
        prop_assert!(
            stats.checkpoints_taken > 0,
            "the budget never fired a checkpoint: {stats:?}"
        );
        if stats.checkpoints_taken > 1 {
            prop_assert!(
                stats.deltas_published > 0,
                "follow-up checkpoints must ride the delta chain: {stats:?}"
            );
        }
        prop_assert!(
            stats.truncated_bytes > 0,
            "the truncation horizon never advanced: {stats:?}"
        );

        adaptive.shutdown();
        fixed.shutdown();
        crash_and_check(adaptive, &model, "adaptive twin")?;
        crash_and_check(fixed, &model, "fixed-period twin")?;
    }
}

/// **Known defect — ROADMAP item 2 ("the retrying half").**
/// `SharedDb::execute` and lazy replay never pre-resolve a would-be
/// flush-order cycle the way `Generalized::execute` does, so
/// `x <- f(y) @L1; y <- g(x) @L2; x <- .. @L3` leaves `x` waiting for
/// `y` on disk at L2 and `y` waiting for `x` on disk at L1, for ever.
/// This is `mem_cross`'s op mix (`perfbench/src/workloads.rs`) through
/// **one** thread with the benchmark's budget and cadence: today it ends
/// with `truncated_bytes` 0 and a suffix of ~0.8 MB against 64 KiB, and
/// after a final force the coldest-first drain lands a couple of dozen
/// pages and then stalls with over 500 still dirty. Un-ignore with the
/// fix (admission-time pre-resolution); it needs a `[benchmark]` re-pin
/// first, because truncation then starts archiving on `mem_cross` and
/// roughly doubles its `write_amp`.
#[test]
#[ignore = "known defect: SharedDb admits flush-order cycles (ROADMAP item 2)"]
fn controller_is_never_left_with_nothing_flushable() {
    use redo_workload::pages::PageWorkloadSpec;
    let ops = PageWorkloadSpec {
        n_pages: 1024,
        slots_per_page: 8,
        n_ops: 16_000,
        skew: 0.9,
        cross_page_fraction: 0.20,
        multi_page_fraction: 0.0,
        blind_fraction: 0.10,
        max_writes: 2,
    }
    .generate(7);
    let budget = RestartBudget {
        max_suffix_bytes: 64 * 1024,
        max_dirty_pages: 256,
        ..Default::default()
    };
    let controller = Controller::new(budget.clone());
    let shared = SharedDb::new(Geometry { slots_per_page: 8 });
    for (i, op) in ops.iter().enumerate() {
        shared.execute(op).expect("execute");
        if (i + 1) % 256 == 0 {
            shared.control_tick(&controller).expect("control tick");
        }
        if (i + 1) % 32 == 0 {
            shared.commit_tick();
        }
    }
    shared.commit_tick();
    let mut landed = 0;
    while shared.flusher_tick_coldest().expect("coldest flush") {
        landed += 1;
    }
    let (stats, est) = (shared.daemon_stats(), shared.restart_estimate());
    assert_eq!(
        stats.drain_stalled,
        0,
        "the drain walked every dirty page and could flush none: the final drain landed \
         {landed} pages and left {} dirty, suffix {} bytes against a budget of {}, {} bytes \
         truncated, {} attempts refused over {} rounds",
        est.dirty_pages,
        est.suffix_bytes,
        budget.max_suffix_bytes,
        stats.truncated_bytes,
        stats.drain_refused,
        stats.drain_rounds,
    );
    assert!(est.suffix_bytes < 2 * budget.max_suffix_bytes);
}
