//! CRASH_STORM — recovery latency vs injected-fault density.
//!
//! Two questions about the fault-injection layer's cost model:
//!
//! * **recover_after**: does the *kind* of crash damage change recovery
//!   latency? A clean crash, a clean stop at a crash point, a torn page
//!   write, and a torn log flush each produce a different stable image
//!   of the same workload; repair + recovery runs over each. Torn
//!   damage adds a repair pass (pre-image restore, tail truncation) but
//!   also *shrinks* the durable log in the torn-flush case — the two
//!   effects pull latency in opposite directions.
//! * **fault_density**: a storm of crash/recover cycles where a rising
//!   fraction of cycles carries an armed fault. Recovery latency per
//!   storm should grow roughly linearly with density: every faulty
//!   cycle cuts the cycle short (less work to redo) but pays repair and
//!   re-replays the surviving tail after an earlier trip point.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use redo_methods::harness::Driver;
use redo_methods::oprecord::PageOpPayload;
use redo_methods::physiological::Physiological;
use redo_methods::RecoveryMethod;
use redo_sim::db::{Db, Geometry};
use redo_sim::fault::{FaultKind, FaultPlan};
use redo_workload::pages::{PageOp, PageWorkloadSpec};

fn workload(n: usize, seed: u64) -> Vec<PageOp> {
    PageWorkloadSpec {
        n_ops: n,
        n_pages: 8,
        ..Default::default()
    }
    .generate(seed)
}

/// Runs `ops` under physiological logging with background chaos and an
/// optional armed fault, then crashes. Returns the crashed image.
fn crashed_image(ops: &[PageOp], fault: Option<FaultPlan>) -> Db<PageOpPayload> {
    let mut db = Db::new(Geometry::default());
    if let Some(plan) = fault {
        db.arm_faults(plan);
    }
    Driver::new(&Physiological, Some((0.7, 0.3)), Some(20))
        .run(&mut db, ops, &mut StdRng::seed_from_u64(42))
        .expect("no substrate error without a fault");
    db.crash();
    db
}

fn bench_recover_after(c: &mut Criterion) {
    let ops = workload(200, 3);
    let cases: [(&str, Option<FaultPlan>); 4] = [
        ("clean-crash", None),
        (
            "clean-stop",
            Some(FaultPlan {
                at: 150,
                kind: FaultKind::Clean,
            }),
        ),
        (
            "torn-write",
            Some(FaultPlan {
                at: 150,
                kind: FaultKind::TornWrite { sectors: 2 },
            }),
        ),
        (
            "torn-flush",
            Some(FaultPlan {
                at: 150,
                kind: FaultKind::TornFlush { bytes: 7 },
            }),
        ),
    ];
    let mut group = c.benchmark_group("crash_storm/recover_after");
    for (label, fault) in cases {
        let image = crashed_image(&ops, fault);
        group.bench_function(label, |b| {
            b.iter_batched(
                || image.clone(),
                |mut db| {
                    db.repair_after_crash();
                    Physiological.recover(&mut db).expect("recovery succeeds");
                    db
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_fault_density(c: &mut Criterion) {
    const CYCLES: usize = 16;
    const OPS_PER_CYCLE: usize = 12;
    let ops = workload(CYCLES * OPS_PER_CYCLE, 9);
    let mut group = c.benchmark_group("crash_storm/fault_density");
    for faulty in [0usize, 4, 8, 16] {
        group.bench_with_input(
            BenchmarkId::new("density", format!("{faulty}of{CYCLES}")),
            &faulty,
            |b, &faulty| {
                b.iter(|| {
                    let mut db: Db<PageOpPayload> = Db::new(Geometry::default());
                    let mut rng = StdRng::seed_from_u64(1);
                    for cycle in 0..CYCLES {
                        // Bresenham spread: `faulty` of the CYCLES cycles
                        // carry a fault, evenly interleaved.
                        if (cycle + 1) * faulty / CYCLES > cycle * faulty / CYCLES {
                            let kind = if cycle % 2 == 0 {
                                FaultKind::TornWrite { sectors: 1 }
                            } else {
                                FaultKind::TornFlush { bytes: 5 }
                            };
                            db.arm_faults(FaultPlan { at: 12, kind });
                        }
                        let slice = &ops[cycle * OPS_PER_CYCLE..(cycle + 1) * OPS_PER_CYCLE];
                        for op in slice {
                            match Physiological.execute(&mut db, op) {
                                Ok(_) => {}
                                Err(_) if db.fault_tripped() => {}
                                Err(e) => panic!("execute failed without a fault: {e}"),
                            }
                            match db.chaos_flush(&mut rng, 0.7, 0.3) {
                                Ok(()) => {}
                                Err(_) if db.fault_tripped() => {}
                                Err(e) => panic!("chaos failed without a fault: {e}"),
                            }
                            if db.fault_tripped() {
                                break;
                            }
                        }
                        db.crash();
                        db.repair_after_crash();
                        Physiological.recover(&mut db).expect("recovery succeeds");
                    }
                    db
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_recover_after, bench_fault_density);
criterion_main!(benches);
