//! PARALLEL_RESTART — checkpoint-aware parallel restart latency.
//!
//! The two restart accelerators this repo builds — the fuzzy
//! checkpoint's dirty-page-table seek and Theorem 3's page-partitioned
//! parallel replay — measured together. For live runs of 1k / 10k /
//! 100k operations, each in two images:
//!
//! * `no_ck` — no checkpoint: the restart scan decodes the whole log;
//! * `ck` — one online fuzzy checkpoint published a fifth of the way
//!   in (after draining the pool, so its dirty-page table is shallow
//!   and its redo-start truncates the entire prefix): the scan seeks
//!   past 20% of the history and replays the 80% suffix.
//!
//! each recovered serially (the checkpoint-aware [`Generalized`]
//! analyze path) and through
//! [`recover_partitioned`] at 1 / 2 / 4 / 8 worker threads.
//! The `ck` image additionally sweeps a `log_shards ∈ {1, 2, 4, 8}`
//! axis: the same run logged through a [`ShardedLog`] with that many
//! per-partition logs, so restart decodes N shard scans concurrently
//! instead of one merged scan. The interesting cells are
//! `ck × shards1 × 4 threads` (replay fanned out, decode still serial)
//! against `ck × shards4 × 4 threads` (decode fanned out too).
//!
//! Shape checks before timing assert the checkpoint image's parallel
//! recovery really started from the published checkpoint (checkpoint
//! LSN recorded, checkpoint record counted, prefix bytes reclaimed)
//! and that every thread count — and every shard count — lands on the
//! identical recovered state as the single-log serial path. The
//! sharded-log decode scaling is asserted deterministically at every
//! size: with 4 shards, the busiest shard's post-checkpoint decode
//! (the restart scan's critical path — each shard's scan decodes only
//! its own frames, concurrently) must be at most half the single log's.
//! At the largest size the check also wall-clocks 4 workers on the
//! single-log and 4-shard images against the serial baseline and
//! prints both speedups; when the host has at least 4 CPUs (wall-clock
//! parallelism is physically measurable) it additionally asserts the
//! 4-worker speedup with 4 log shards keeps up with the single-log
//! 4-worker speedup.
//!
//! [`ShardedLog`]: redo_sim::wal::ShardedLog
//!
//! Set `PARALLEL_RESTART_SMOKE=1` to run only the smallest size (CI's
//! smoke iteration).

use std::time::Instant;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use redo_methods::generalized::Generalized;
use redo_methods::oprecord::PageOpPayload;
use redo_methods::parallel::recover_partitioned;
use redo_methods::physiological::Physiological;
use redo_methods::redo;
use redo_methods::RecoveryMethod;
use redo_sim::backend::BackendKind;
use redo_sim::db::{Db, Geometry};
use redo_workload::pages::PageWorkloadSpec;

/// A crashed database after an `n_ops` single-page-op run with
/// group-committed log flushes. Background page cleaning runs only
/// through the first fifth of the run: the crash then catches the
/// write-behind with the entire suffix still uninstalled — the
/// worst-case restart depth the partitioned scheduler exists for (a
/// well-cleaned cache makes restart a pure scan with nothing to
/// parallelize). With `checkpoint` set, one online fuzzy checkpoint is
/// published right where the cleaning stops, after draining the pool:
/// its dirty-page table is then shallow, its redo-start sits at the
/// checkpoint itself, and the whole prefix truncates. `log_shards`
/// picks how many per-partition logs carry the history (1 = the plain
/// single log).
fn crashed_db(n_ops: usize, checkpoint: bool, log_shards: usize) -> Db<PageOpPayload> {
    let ops = PageWorkloadSpec {
        n_ops,
        n_pages: 64,
        cross_page_fraction: 0.0,
        multi_page_fraction: 0.0,
        blind_fraction: 0.1,
        ..Default::default()
    }
    .generate(41);
    let mut db = Db::on_sharded(BackendKind::Mem, Geometry::default(), None, log_shards);
    let mut rng = StdRng::seed_from_u64(13);
    let ck_at = n_ops / 5;
    for (i, op) in ops.iter().enumerate() {
        Physiological.execute(&mut db, op).unwrap();
        let page_p = if i < ck_at { 0.05 } else { 0.0 };
        db.chaos_flush(&mut rng, 0.9, page_p).unwrap();
        if checkpoint && i + 1 == ck_at {
            db.log.flush_all();
            let stable = db.log.stable_lsn();
            db.pool.flush_all(&mut db.disk, stable).unwrap();
            redo::checkpoint_fuzzy(&mut db, 0)
                .unwrap()
                .expect("unfaulted publication lands");
        }
    }
    db.log.flush_all();
    db.crash();
    db
}

/// Decoded bytes per shard for the post-checkpoint suffix — the decode
/// critical path of a partitioned restart, since each shard's scan
/// thread decodes only its own frames, concurrently with the others.
fn suffix_decode_bytes(image: &Db<PageOpPayload>) -> Vec<u64> {
    let mut probe = image.clone();
    probe.repair_after_crash();
    let analysis = Generalized::analyze_dpt(&probe).unwrap();
    (0..probe.log.n_shards())
        .map(|s| {
            let mut records = probe.log.shard_suffix(s, analysis.redo_start);
            for rec in records.by_ref() {
                rec.unwrap();
            }
            records.stats().bytes_scanned
        })
        .collect()
}

fn wall_clock(
    db: &Db<PageOpPayload>,
    reps: u32,
    mut recover: impl FnMut(&mut Db<PageOpPayload>),
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let mut image = db.clone();
        let start = Instant::now();
        recover(&mut image);
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::var("PARALLEL_RESTART_SMOKE").is_ok();
    let sizes: &[usize] = if smoke {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let threads: &[usize] = &[1, 2, 4, 8];
    let shard_counts: &[usize] = &[1, 2, 4, 8];
    let mut group = c.benchmark_group("parallel_restart");
    for &n in sizes {
        let no_ck = crashed_db(n, false, 1);
        let ck_images: Vec<(usize, Db<PageOpPayload>)> = shard_counts
            .iter()
            .map(|&s| (s, crashed_db(n, true, s)))
            .collect();

        // Shape checks: the checkpoint must actually feed the
        // partitioned scheduler, and every path — every thread count
        // on every shard count — must agree on the recovered state.
        let mut probe = ck_images[0].1.clone();
        let serial_stats = Generalized.recover(&mut probe).unwrap();
        let serial_state = probe.volatile_theory_state();
        let mut ck_records = 0;
        for (s, ck) in &ck_images {
            let mut shard_probe = ck.clone();
            let shard_serial_stats = Generalized.recover(&mut shard_probe).unwrap();
            assert_eq!(
                shard_probe.volatile_theory_state(),
                serial_state,
                "serial recovery over {s} log shards diverged from the single log"
            );
            for &t in threads {
                let mut image = ck.clone();
                let stats = recover_partitioned(&mut image, t).unwrap();
                assert!(
                    stats.checkpoint_lsn.is_some(),
                    "parallel restart must start from the published checkpoint"
                );
                assert!(
                    stats.checkpoint_records >= 1,
                    "the checkpoint record must be recognized (and kept out of the partitions)"
                );
                assert!(
                    stats.truncated_bytes > 0,
                    "the checkpoint must have reclaimed the log prefix"
                );
                assert_eq!(
                    image.volatile_theory_state(),
                    serial_state,
                    "parallel restart with {t} threads over {s} log shards \
                     diverged from serial recovery"
                );
                assert_eq!(
                    stats, shard_serial_stats,
                    "semantic stats diverged at {t} threads over {s} log shards"
                );
                ck_records = stats.checkpoint_records;
            }
        }
        // The decode-scaling claim itself, asserted on telemetry rather
        // than timing (robust on any host): the busiest shard's suffix
        // decode is the scan's critical path, and 4 shards must cut it
        // to at most half of the single log's.
        let ck1 = &ck_images[0].1;
        let ck4 = &ck_images
            .iter()
            .find(|(s, _)| *s == 4)
            .expect("4-shard image is in the sweep")
            .1;
        let single_decode: u64 = suffix_decode_bytes(ck1).iter().sum();
        let per_shard = suffix_decode_bytes(ck4);
        let busiest = per_shard.iter().copied().max().unwrap_or(0);
        assert!(
            busiest * 2 <= single_decode,
            "4 log shards must cut the restart decode critical path: \
             busiest shard decodes {busiest} of the single log's {single_decode} suffix bytes"
        );
        println!(
            "parallel_restart shape-check [n={n}]: checkpoint at {:?}, \
             {} records scanned ({} checkpoint), {} replayed, {} stable bytes reclaimed, \
             state identical across log shard counts {shard_counts:?}; \
             suffix decode critical path {single_decode} bytes on one log \
             vs {busiest} on the busiest of 4 shards (per shard: {per_shard:?})",
            serial_stats.checkpoint_lsn,
            serial_stats.scanned,
            ck_records,
            serial_stats.replay_count(),
            serial_stats.truncated_bytes,
        );
        if n >= 100_000 {
            let ts = wall_clock(ck1, 3, |db| {
                Generalized.recover(db).unwrap();
            });
            let t1 = wall_clock(ck1, 3, |db| {
                recover_partitioned(db, 1).unwrap();
            });
            let t4 = wall_clock(ck1, 3, |db| {
                recover_partitioned(db, 4).unwrap();
            });
            let t4_sharded = wall_clock(ck4, 3, |db| {
                recover_partitioned(db, 4).unwrap();
            });
            let single_log_speedup = ts / t4;
            let sharded_speedup = ts / t4_sharded;
            let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
            println!(
                "parallel_restart speedup [n={n}, ck, {cores} core(s)]: serial {:.1} ms, \
                 1 thread {:.1} ms, 4 threads {:.1} ms ({:.2}x), \
                 4 threads over 4 log shards {:.1} ms ({:.2}x)",
                ts * 1e3,
                t1 * 1e3,
                t4 * 1e3,
                single_log_speedup,
                t4_sharded * 1e3,
                sharded_speedup,
            );
            if cores >= 4 {
                assert!(
                    sharded_speedup >= single_log_speedup * 0.95,
                    "4-worker restart over 4 log shards ({sharded_speedup:.2}x) must not trail \
                     the single-log 4-worker speedup ({single_log_speedup:.2}x): \
                     sharding the log parallelizes the decode the merged scan serializes"
                );
            } else {
                println!(
                    "parallel_restart speedup [n={n}, ck]: {cores} core(s) — wall-clock \
                     parallel scaling is not measurable here; decode scaling asserted \
                     via per-shard scan telemetry above"
                );
            }
        }

        group.bench_with_input(BenchmarkId::new("no_ck/serial", n), &no_ck, |b, image| {
            b.iter_batched(
                || (*image).clone(),
                |mut db| Generalized.recover(&mut db).unwrap(),
                BatchSize::LargeInput,
            )
        });
        for &t in threads {
            group.bench_with_input(
                BenchmarkId::new(format!("no_ck/threads{t}"), n),
                &no_ck,
                |b, image| {
                    b.iter_batched(
                        || (*image).clone(),
                        |mut db| recover_partitioned(&mut db, t).unwrap(),
                        BatchSize::LargeInput,
                    )
                },
            );
        }
        for (s, ck) in &ck_images {
            group.bench_with_input(
                BenchmarkId::new(format!("ck/shards{s}/serial"), n),
                ck,
                |b, image| {
                    b.iter_batched(
                        || (*image).clone(),
                        |mut db| Generalized.recover(&mut db).unwrap(),
                        BatchSize::LargeInput,
                    )
                },
            );
            // The full thread sweep runs on the single log; sharded
            // images bench the interesting 4-worker cell to keep the
            // matrix tractable.
            let shard_threads: &[usize] = if *s == 1 { threads } else { &[4] };
            for &t in shard_threads {
                group.bench_with_input(
                    BenchmarkId::new(format!("ck/shards{s}/threads{t}"), n),
                    ck,
                    |b, image| {
                        b.iter_batched(
                            || (*image).clone(),
                            |mut db| recover_partitioned(&mut db, t).unwrap(),
                            BatchSize::LargeInput,
                        )
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
