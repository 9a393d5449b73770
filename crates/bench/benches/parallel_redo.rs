//! PARALLEL_REDO — Theorem 3 as measured speedup.
//!
//! The theorem licenses replaying the uninstalled set in *any*
//! conflict-consistent order, which includes level-parallel execution
//! of the restricted conflict DAG. Two experiments:
//!
//! **Abstract replay** compares sequential `replay_uninstalled` against
//! the level scheduler (`replay_schedule` on a pre-planned
//! [`RedoSchedule`], plus planning benchmarked separately) at 1/2/4/8
//! worker threads over three history shapes with very different DAG
//! depths: `wide` (blind writes, near-antichain — maximal parallelism),
//! `rmw` (read-modify-write chains, moderate width), and `chain`
//! (depth = n, width ≈ 1 — the adversarial case where parallelism can
//! win nothing). Abstract operations are nanosecond-scale expression
//! evaluations, so this measures *scheduling overhead*, not speedup:
//! expect serial to win and the gap to quantify the per-level barrier
//! cost.
//!
//! **Partitioned recovery** is where the theorem pays: page-partitioned
//! redo for the physiological method (§6.3), where each worker rebuilds
//! whole page images from its own log partition — one thread spawn per
//! worker, work proportional to the log tail. Serial `recover` vs
//! `recover_partitioned` at 1/2/4/8 threads on a chaotically
//! flushed crashed database.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use redo_methods::parallel::recover_partitioned;
use redo_methods::physiological::Physiological;
use redo_methods::RecoveryMethod;
use redo_sim::db::{Db, Geometry};
use redo_theory::conflict::ConflictGraph;
use redo_theory::graph::NodeSet;
use redo_theory::history::History;
use redo_theory::installation::InstallationGraph;
use redo_theory::replay::replay_uninstalled;
use redo_theory::schedule::{replay_parallel, replay_schedule, RedoSchedule};
use redo_theory::state::State;
use redo_theory::state_graph::StateGraph;
use redo_workload::pages::PageWorkloadSpec;
use redo_workload::{Shape, WorkloadSpec};

struct Setup {
    h: History,
    cg: ConflictGraph,
    sg: StateGraph,
    installed: NodeSet,
    start: State,
}

fn setup(shape: Shape, n: usize, n_vars: u32) -> Setup {
    let spec = WorkloadSpec {
        n_ops: n,
        n_vars,
        shape,
        ..WorkloadSpec::default()
    };
    let h = spec.generate(17);
    let cg = ConflictGraph::generate(&h);
    let sg = StateGraph::conflict_state_graph(&h, &State::zeroed());
    // The first quarter of the history (closed downward in the
    // installation graph) is already installed, leaving a large
    // uninstalled tail for every shape.
    let ig = InstallationGraph::from_conflict(&cg);
    let seeds = NodeSet::from_indices(h.len(), 0..n / 4);
    let installed = ig.dag().prefix_closure(&seeds);
    let start = sg.state_determined_by(&installed);
    Setup {
        h,
        cg,
        sg,
        installed,
        start,
    }
}

fn bench_abstract(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    let cases = [
        ("wide", Shape::Blind, 4_000usize, 1_024u32),
        ("rmw", Shape::ReadModifyWrite, 4_000, 64),
        ("chain", Shape::Chain, 4_000, 8),
    ];
    for (label, shape, n, n_vars) in cases {
        let s = setup(shape, n, n_vars);
        let schedule = RedoSchedule::plan(&s.cg, &s.installed);
        // Shape checks before timing: the plan is legal and serial and
        // parallel replay agree on the final state at every width.
        schedule
            .validate(&s.cg, &s.installed)
            .expect("planned schedule must be legal");
        let serial = replay_uninstalled(&s.h, &s.sg, &s.installed, &s.start).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let parallel =
                replay_parallel(&s.h, &s.cg, &s.sg, &s.installed, &s.start, threads).unwrap();
            assert_eq!(serial, parallel, "serial and parallel replay must agree");
        }
        println!(
            "parallel_redo shape-check [{label}]: {} uninstalled ops, depth {}, width {}",
            schedule.len(),
            schedule.depth(),
            schedule.width()
        );

        group.bench_with_input(BenchmarkId::new(format!("{label}_plan"), n), &s, |b, s| {
            b.iter(|| RedoSchedule::plan(&s.cg, &s.installed))
        });
        group.bench_with_input(
            BenchmarkId::new(format!("{label}_serial"), n),
            &s,
            |b, s| b.iter(|| replay_uninstalled(&s.h, &s.sg, &s.installed, &s.start).unwrap()),
        );
        for threads in [1usize, 2, 4, 8] {
            group.bench_with_input(
                BenchmarkId::new(format!("{label}_parallel_t{threads}"), n),
                &(&s, &schedule),
                |b, (s, schedule)| {
                    b.iter(|| {
                        replay_schedule(
                            &s.h,
                            &s.cg,
                            &s.sg,
                            &s.installed,
                            schedule,
                            &s.start,
                            threads,
                        )
                        .unwrap()
                    })
                },
            );
        }
    }
}

fn crashed_physiological_db(
    n_ops: usize,
    n_pages: u32,
) -> Db<<Physiological as RecoveryMethod>::Payload> {
    let ops = PageWorkloadSpec {
        n_ops,
        n_pages,
        ..Default::default()
    }
    .generate(23);
    let mut db = Db::new(Geometry::default());
    let mut rng = StdRng::seed_from_u64(7);
    for op in &ops {
        Physiological.execute(&mut db, op).unwrap();
        // Flush the log eagerly but pages rarely, so recovery finds a
        // long tail of genuinely uninstalled operations to replay.
        db.chaos_flush(&mut rng, 0.9, 0.01).unwrap();
    }
    db.log.flush_all();
    db.crash();
    db
}

fn bench_partitioned(group: &mut criterion::BenchmarkGroup<'_, criterion::measurement::WallTime>) {
    let n_ops = 3_000;
    let n_pages = 64;
    let crashed = crashed_physiological_db(n_ops, n_pages);
    // Shape check: parallel recovery at every width reproduces the
    // serial stats and post-recovery state.
    let mut serial_db = crashed.clone();
    let serial_stats = Physiological.recover(&mut serial_db).unwrap();
    for threads in [1usize, 2, 4, 8] {
        let mut db = crashed.clone();
        let stats = recover_partitioned(&mut db, threads).unwrap();
        assert_eq!(stats, serial_stats, "threads={threads}");
        assert_eq!(
            db.volatile_theory_state(),
            serial_db.volatile_theory_state()
        );
    }
    println!(
        "parallel_redo shape-check [physiological]: scanned {}, replayed {}, skipped {}",
        serial_stats.scanned,
        serial_stats.replayed.len(),
        serial_stats.skipped.len()
    );

    group.bench_with_input(
        BenchmarkId::new("physiological_serial", n_ops),
        &crashed,
        |b, crashed| {
            b.iter_batched(
                || (*crashed).clone(),
                |mut db| Physiological.recover(&mut db).unwrap(),
                BatchSize::LargeInput,
            )
        },
    );
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new(format!("physiological_parallel_t{threads}"), n_ops),
            &crashed,
            |b, crashed| {
                b.iter_batched(
                    || (*crashed).clone(),
                    |mut db| recover_partitioned(&mut db, threads).unwrap(),
                    BatchSize::LargeInput,
                )
            },
        );
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("parallel_redo");
    bench_abstract(&mut group);
    bench_partitioned(&mut group);
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
