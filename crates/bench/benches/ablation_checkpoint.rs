//! ABLATION — checkpoint discipline: heavyweight vs fuzzy vs none.
//!
//! DESIGN.md calls out the checkpoint as a design choice worth ablating:
//! §6's methods use a flush-everything checkpoint, while real systems
//! take ARIES-style fuzzy checkpoints (dirty-page table only, §4.3's
//! analysis phase does the rest). This bench quantifies the trade on the
//! same workload:
//!
//! * normal-operation cost (a heavyweight checkpoint stalls to flush);
//! * recovery scan length (records examined after a crash);
//! * page writes (fuzzy defers them; none avoids them entirely until
//!   eviction).
//!
//! Expectation: heavy checkpoints pay at runtime and win at recovery;
//! fuzzy checkpoints cost almost nothing at runtime and bound the scan
//! via min-recLSN; no checkpoints maximize both scan and replay.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use redo_methods::online::GeneralizedOnline;
use redo_methods::physiological::Physiological;
use redo_methods::RecoveryMethod;
use redo_sim::db::{Db, Geometry};
use redo_workload::pages::{PageOp, PageWorkloadSpec};

fn workload(n: usize) -> Vec<PageOp> {
    PageWorkloadSpec {
        n_ops: n,
        n_pages: 16,
        ..Default::default()
    }
    .generate(21)
}

/// Runs a workload with checkpoints every `every` ops (None = never),
/// then crashes and recovers; returns (scanned, replayed).
fn run_once<M: RecoveryMethod>(method: &M, ops: &[PageOp], every: Option<usize>) -> (usize, usize) {
    let mut db: Db<M::Payload> = Db::new(Geometry { slots_per_page: 8 });
    let mut rng = StdRng::seed_from_u64(77);
    for (i, op) in ops.iter().enumerate() {
        method.execute(&mut db, op).expect("execute");
        db.chaos_flush(&mut rng, 0.8, 0.2).unwrap();
        if let Some(k) = every {
            if (i + 1) % k == 0 {
                method.checkpoint(&mut db).expect("checkpoint");
            }
        }
    }
    db.log.flush_all();
    db.crash();
    let stats = method.recover(&mut db).expect("recover");
    (stats.scanned, stats.replay_count())
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_checkpoint");
    let n = 400usize;
    let ops = workload(n);

    // Shape check + report.
    let (scan_none, replay_none) = run_once(&Physiological, &ops, None);
    let (scan_heavy, replay_heavy) = run_once(&Physiological, &ops, Some(25));
    let (scan_fuzzy, replay_fuzzy) = run_once(&GeneralizedOnline, &ops, Some(25));
    println!("ablation_checkpoint shape-check (n={n}):");
    println!("  none:  scanned {scan_none:>4}, replayed {replay_none:>4}");
    println!("  heavy: scanned {scan_heavy:>4}, replayed {replay_heavy:>4}");
    println!("  fuzzy: scanned {scan_fuzzy:>4}, replayed {replay_fuzzy:>4}");
    assert!(
        scan_heavy < scan_none,
        "heavy checkpoints must bound the scan"
    );
    assert!(
        scan_fuzzy < scan_none,
        "fuzzy checkpoints must bound the scan"
    );
    assert!(
        scan_heavy <= scan_fuzzy,
        "fuzzy scans at least as much as heavy"
    );

    for every in [10usize, 50, 200] {
        group.bench_with_input(
            BenchmarkId::new("heavy_run_and_recover", every),
            &(&ops, every),
            |b, (ops, every)| b.iter(|| run_once(&Physiological, ops, Some(*every))),
        );
        group.bench_with_input(
            BenchmarkId::new("fuzzy_run_and_recover", every),
            &(&ops, every),
            |b, (ops, every)| b.iter(|| run_once(&GeneralizedOnline, ops, Some(*every))),
        );
    }
    group.bench_function("no_checkpoint_run_and_recover", |b| {
        b.iter(|| run_once(&Physiological, &ops, None))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
