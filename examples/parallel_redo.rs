//! Parallel redo: Theorem 3's order freedom as a level schedule.
//!
//! Run with `cargo run --example parallel_redo`.
//!
//! Theorem 3 says replaying the uninstalled operations in *any* order
//! consistent with the conflict graph reaches the final state. This
//! walkthrough plans a level schedule over the restricted conflict DAG,
//! replays it on worker threads, shows that an illegal schedule is
//! rejected up front, and finishes with page-partitioned recovery of a
//! crashed simulated database.

use rand::rngs::StdRng;
use rand::SeedableRng;
use redo_recovery::methods::parallel::recover_partitioned;
use redo_recovery::methods::physiological::Physiological;
use redo_recovery::methods::RecoveryMethod;
use redo_recovery::sim::db::{Db, Geometry};
use redo_recovery::theory::history::examples::figure4;
use redo_recovery::theory::prelude::*;
use redo_recovery::theory::schedule::replay_schedule;
use redo_recovery::workload::pages::PageWorkloadSpec;
use redo_recovery::workload::{Shape, WorkloadSpec};

fn main() {
    println!("== Level schedules on the Figure 4 history ==");
    let h = figure4();
    let cg = ConflictGraph::generate(&h);
    let ig = InstallationGraph::from_conflict(&cg);
    let sg = StateGraph::from_conflict(&h, &cg, &State::zeroed());

    // Crash with only the installation-legal prefix {O} installed.
    let installed = ig
        .dag()
        .prefix_closure(&NodeSet::from_indices(h.len(), 0..1));
    let schedule = RedoSchedule::plan(&cg, &installed);
    println!("installed: {:?}", installed.iter().collect::<Vec<_>>());
    for (i, level) in schedule.levels().iter().enumerate() {
        println!("  level {}: {:?}", i + 1, level);
    }
    println!("depth {} width {}", schedule.depth(), schedule.width());
    schedule
        .validate(&cg, &installed)
        .expect("planned schedules are legal");

    let crash_state = sg.state_determined_by(&installed);
    let recovered = replay_parallel(&h, &cg, &sg, &installed, &crash_state, 4).unwrap();
    assert_eq!(recovered, sg.final_state());
    println!("parallel replay (4 threads) reached the final state: {recovered:?}");

    println!("\n== Illegal schedules are rejected before touching state ==");
    let reversed = RedoSchedule::from_levels(
        schedule
            .order()
            .into_iter()
            .rev()
            .map(|id| vec![id])
            .collect(),
    );
    match replay_schedule(&h, &cg, &sg, &installed, &reversed, &crash_state, 4) {
        Err(e) => println!("reversed order rejected: {e}"),
        Ok(_) => unreachable!("a reversed conflict edge must not replay"),
    }

    println!("\n== Width across history shapes ==");
    for (label, shape, n_vars) in [
        ("blind writes (antichain-ish)", Shape::Blind, 256u32),
        ("read-modify-write chains", Shape::ReadModifyWrite, 16),
        ("single chain", Shape::Chain, 4),
    ] {
        let spec = WorkloadSpec {
            n_ops: 512,
            n_vars,
            shape,
            ..WorkloadSpec::default()
        };
        let wh = spec.generate(7);
        let wcg = ConflictGraph::generate(&wh);
        let none = NodeSet::new(wh.len());
        let s = RedoSchedule::plan(&wcg, &none);
        println!(
            "  {label:<30} depth {:>4} width {:>4}",
            s.depth(),
            s.width()
        );
    }

    println!("\n== Page-partitioned recovery (physiological method) ==");
    let ops = PageWorkloadSpec {
        n_ops: 200,
        n_pages: 12,
        ..Default::default()
    }
    .generate(5);
    let mut db = Db::new(Geometry::default());
    let mut rng = StdRng::seed_from_u64(9);
    for op in &ops {
        Physiological.execute(&mut db, op).unwrap();
        db.chaos_flush(&mut rng, 0.9, 0.05).unwrap();
    }
    db.log.flush_all();
    db.crash();
    let mut serial_db = db.clone();

    let stats = recover_partitioned(&mut db, 4).unwrap();
    let serial_stats = Physiological.recover(&mut serial_db).unwrap();
    assert_eq!(stats, serial_stats);
    assert_eq!(
        db.volatile_theory_state(),
        serial_db.volatile_theory_state()
    );
    println!(
        "scanned {} records, replayed {}, skipped {} — identical to the serial scan",
        stats.scanned,
        stats.replayed.len(),
        stats.skipped.len()
    );
}
