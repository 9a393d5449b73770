//! ABLATION — what the careful write order costs.
//!
//! §6.4's generalized operations make the cache manager enforce
//! write-order constraints; §6.3's physiological operations don't need
//! any. This bench isolates that overhead on *identical* single-page
//! workloads (where the constraint machinery is pure overhead for the
//! generalized method: zero constraints registered), and then on
//! cross-page workloads with growing cross-read fractions (real
//! constraint pressure: flush checks scan the live constraint list,
//! flush_all retries around blocked pages).
//!
//! Expectation: zero-constraint overhead is negligible; cost grows
//! mildly with the cross-read fraction; checkpoint flush-all still
//! terminates (write-graph acyclicity) at every setting.
//!
//! The `recover_standing_constraints` row is the restart side: a
//! crashed image whose every cross-page operation replays, re-imposing
//! its write ordering, so constraints pile up as the scan goes (the
//! recovery pool is unbounded; nothing flushes). The replayed
//! operation's cycle pre-resolution must look only at what the
//! operation can reach, not at everything standing: the shape check
//! grows the database and the log tenfold — ten times the standing
//! constraints at the same density — and asserts the time per replayed
//! record stays within 2×.
//!
//! The `flush_all_standing_constraints` row is the discharge that
//! follows: the recovered pool's `flush_all`, which a replayed
//! operation that would close a flush-order cycle also runs. A write
//! must drop only the constraints it satisfied, found through the page
//! it wrote, not sweep every standing one: at the same two sizes the
//! shape check asserts the time per page written stays within 2×.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use redo_methods::generalized::Generalized;
use redo_methods::physiological::Physiological;
use redo_methods::RecoveryMethod;
use redo_sim::db::{Db, Geometry};
use redo_workload::pages::{PageOp, PageWorkloadSpec};

type GeneralizedDb = Db<<Generalized as RecoveryMethod>::Payload>;

fn run_to_checkpoint<M: RecoveryMethod>(method: &M, ops: &[PageOp]) -> u64 {
    let mut db: Db<M::Payload> = Db::new(Geometry { slots_per_page: 8 });
    let mut rng = StdRng::seed_from_u64(5);
    for op in ops {
        method.execute(&mut db, op).expect("execute");
        db.chaos_flush(&mut rng, 0.6, 0.25).unwrap();
    }
    method.checkpoint(&mut db).expect("checkpoint");
    db.disk.page_writes()
}

/// A crashed image of `n_ops` operations over `n_pages` pages, 30 %
/// of them "read page x, write page y", nothing flushed but the log.
/// Every cross-page read is of a lower-numbered page than the write, so
/// the flush order never closes a cycle and no pre-resolution flush
/// discharges the constraints recovery accumulates.
fn crashed_with_standing_constraints(n_ops: usize, n_pages: u32) -> GeneralizedDb {
    let mut ops = PageWorkloadSpec {
        n_ops,
        n_pages,
        cross_page_fraction: 0.3,
        ..Default::default()
    }
    .generate(31);
    for op in &mut ops {
        let (read, written) = (op.reads[0].page, op.writes[0].page);
        if read > written {
            for cell in op.reads.iter_mut().chain(&mut op.writes) {
                cell.page = if cell.page == read { written } else { read };
            }
        }
    }
    let mut db: GeneralizedDb = Db::new(Geometry { slots_per_page: 8 });
    for op in &ops {
        Generalized.execute(&mut db, op).expect("execute");
    }
    db.log.flush_all();
    db.crash();
    db
}

/// The restart row: (ns per replayed record, constraints standing when
/// the scan ends) at one size, plus its timed bench.
fn bench_recover_standing(
    group: &mut criterion::BenchmarkGroup<'_>,
    n_ops: usize,
    n_pages: u32,
) -> (f64, usize) {
    let image = crashed_with_standing_constraints(n_ops, n_pages);
    let mut probe = image.clone();
    let stats = Generalized.recover(&mut probe).expect("recover");
    assert_eq!(stats.replay_count(), n_ops, "nothing was installed");
    let standing = probe.pool.constraints().len();
    let best = redo_bench::best_of(
        5,
        || image.clone(),
        |mut db| Generalized.recover(&mut db).expect("recover"),
    );
    group.bench_with_input(
        BenchmarkId::new("recover_standing_constraints", standing),
        &image,
        |b, image| {
            b.iter_batched(
                || (*image).clone(),
                |mut db| Generalized.recover(&mut db).expect("recover"),
                BatchSize::LargeInput,
            )
        },
    );
    (best.as_nanos() as f64 / n_ops as f64, standing)
}

/// The discharge row: (ns per page `flush_all` writes after the image
/// is recovered, constraints standing before it) at one size, plus its
/// timed bench.
fn bench_flush_all_standing(
    group: &mut criterion::BenchmarkGroup<'_>,
    n_ops: usize,
    n_pages: u32,
) -> (f64, usize) {
    let mut recovered = crashed_with_standing_constraints(n_ops, n_pages);
    Generalized.recover(&mut recovered).expect("recover");
    let standing = recovered.pool.constraints().len();
    let stable = recovered.log.stable_lsn();
    let flush_all = |mut db: GeneralizedDb| {
        db.pool.flush_all(&mut db.disk, stable).expect("flush_all");
        db
    };
    let flushed = flush_all(recovered.clone());
    assert!(flushed.pool.dirty_pages().is_empty() && flushed.pool.constraints().is_empty());
    let written = flushed.disk.page_writes() - recovered.disk.page_writes();
    let best = redo_bench::best_of(5, || recovered.clone(), flush_all);
    group.bench_with_input(
        BenchmarkId::new("flush_all_standing_constraints", standing),
        &recovered,
        |b, recovered| b.iter_batched(|| (*recovered).clone(), flush_all, BatchSize::LargeInput),
    );
    (best.as_nanos() as f64 / written as f64, standing)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_constraints");
    let n = 300usize;

    // Identical single-page workload under both methods: isolates the
    // constraint machinery's fixed overhead (zero constraints).
    let single = PageWorkloadSpec {
        n_ops: n,
        n_pages: 8,
        ..Default::default()
    }
    .generate(31);
    group.bench_function("physiological_single_page", |b| {
        b.iter(|| run_to_checkpoint(&Physiological, &single))
    });
    group.bench_function("generalized_single_page_no_constraints", |b| {
        b.iter(|| run_to_checkpoint(&Generalized, &single))
    });

    // Growing cross-read fractions: real constraint pressure.
    for pct in [10u32, 40, 80] {
        let ops = PageWorkloadSpec {
            n_ops: n,
            n_pages: 8,
            cross_page_fraction: f64::from(pct) / 100.0,
            blind_fraction: 0.1,
            ..Default::default()
        }
        .generate(31);
        // Shape check: it completes, and reports flush volume.
        let writes = run_to_checkpoint(&Generalized, &ops);
        println!("ablation_constraints shape-check: cross={pct}% -> {writes} page writes");
        group.bench_with_input(
            BenchmarkId::new("generalized_cross_page", pct),
            &ops,
            |b, ops| b.iter(|| run_to_checkpoint(&Generalized, ops)),
        );
    }

    // Restart under standing constraints, at two sizes a decade apart.
    let (small_ns, small_standing) = bench_recover_standing(&mut group, 2_000, 512);
    let (large_ns, large_standing) = bench_recover_standing(&mut group, 20_000, 5_120);
    println!(
        "ablation_constraints shape-check: recover with {small_standing} standing constraints \
         {small_ns:.0} ns per replayed record, with {large_standing} {large_ns:.0} ns ({:.2}x)",
        large_ns / small_ns
    );
    assert!(
        large_standing >= 8 * small_standing && small_standing >= 400,
        "the constraints must actually stand: {small_standing} then {large_standing}"
    );
    assert!(
        large_ns <= 2.0 * small_ns,
        "per-record replay cost grows with the standing constraints: \
         {small_ns:.0} ns at {small_standing}, {large_ns:.0} ns at {large_standing}"
    );

    // The discharge after that restart, at the same two sizes.
    let (small_ns, small_standing) = bench_flush_all_standing(&mut group, 2_000, 512);
    let (large_ns, large_standing) = bench_flush_all_standing(&mut group, 20_000, 5_120);
    println!(
        "ablation_constraints shape-check: flush_all with {small_standing} standing constraints \
         {small_ns:.0} ns per page written, with {large_standing} {large_ns:.0} ns ({:.2}x)",
        large_ns / small_ns
    );
    assert!(
        large_ns <= 2.0 * small_ns,
        "per-page flush cost grows with the standing constraints: \
         {small_ns:.0} ns at {small_standing}, {large_ns:.0} ns at {large_standing}"
    );
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
