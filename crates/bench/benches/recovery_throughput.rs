//! RECOVERY_THROUGHPUT — what the streaming scan and seek index buy.
//!
//! Recovery time for the §6.3 physiological method over growing logs
//! (1k / 10k / 100k operations), in three configurations per size:
//!
//! * `full` — no checkpoint ever taken: recovery decodes the entire
//!   stable log and replays everything. The baseline that scales with
//!   *total* log size.
//! * `ckpt_seek` — a checkpoint at 90% of the run: the master record
//!   bounds replay, and the sparse LSN seek index jumps the scan to the
//!   post-checkpoint suffix, so *decode* work too scales with the
//!   suffix, not the whole log.
//! * `ckpt_noseek` — the same crashed image with the seek index
//!   disabled: the master record still bounds replay, but the scan must
//!   walk (and skip) every pre-checkpoint frame header from offset 0.
//!   The gap to `ckpt_seek` is the seek index's contribution alone.
//! * `ckpt_seek_shards{2,4,8}` — the checkpointed run logged through a
//!   sharded log ([`redo_sim::wal::ShardedLog`]): the serial scan now
//!   merges per-shard cursors, each seeked through its own shard's
//!   index. The gap to `ckpt_seek` is the sharding overhead a *serial*
//!   restart pays (the per-shard decode win needs the parallel restart
//!   — see the `parallel_restart` bench).
//! * `media_intact` / `media_restore` — the same run driven by the
//!   media-capable method (online fuzzy checkpoints feeding the archive
//!   tier), recovered as-is vs. after one page is destroyed out-of-band.
//!   The restore rebuilds the lost page from `archive ∥ live`, read in
//!   place: one forward pass replays the whole history into a scratch
//!   image of the pages it names ([`ScratchImage`]), so its cost tracks
//!   *total* history rather than the checkpoint suffix, and the closure
//!   then walks the page edges the pass recorded — the gap to
//!   `media_intact` is the price of a media rebuild. At the smallest
//!   size the shape check asserts that gap as a ratio, best of 5 runs
//!   each side: restore ≤ 2.5× intact (~1.9× with the one pass, ~2.0×
//!   with a backward slice over the history kept as columns, ~3.1× when
//!   the history was merged into a map, decoded into owned records and
//!   replayed whole), and prints the rebuild by part (pass, closure).
//!   At every size it prints the minor page faults of five restores in
//!   a row and of five intact recoveries, read from `/proc/self/stat`.
//!
//! * `pool_pages{64,8192}` — the full (uncheckpointed) scan of one
//!   op count over a 64-page and an 8192-page database, nothing
//!   flushed before the crash. Every replayed record fetches and
//!   updates a cached page, so this is where a buffer pool whose
//!   bookkeeping walks the resident set shows: the shape check asserts
//!   the time per replayed record at 8192 pages is at most 1.5× that
//!   at 64, the two images timed in alternation (best of 7 rounds each,
//!   so a slow spell of a shared box lands on both). The accesses are
//!   Zipf-skewed and the op count is several times the page count, so
//!   the wide pool *holds* thousands of pages
//!   while first touches and cache misses — costs of the pages touched,
//!   not of the pool's size — stay a small share: 1.1× with the frame
//!   table, 1.2–1.7× when a frame was found by descending a tree over
//!   the resident set, 5.9× when `touch` scanned an LRU list. The line
//!   also prints one probe restart's wall time by phase
//!   ([`redo_methods::PhaseNanos`]).
//! * scan share — restart reads each record in place, checksummed only
//!   where repair did not already verify it, so over a 20 000-record
//!   single-page log that replays whole the shape check asserts the
//!   best scan phase of 5 restarts is at most 0.8× the best redo phase.
//!
//! Shape checks before timing assert the telemetry tells the same
//! story: the checkpointed scan decodes at most a quarter of what the
//! full scan decodes (it is ~10% by construction), enters the log
//! through a seek-index hit, and every configuration of the
//! checkpointed image — seek, no-seek, and each shard count — recovers
//! the identical state.
//!
//! Set `RECOVERY_THROUGHPUT_SMOKE=1` to run only the smallest size
//! (CI's smoke iteration).

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use redo_methods::media::{Media, ScratchImage};
use redo_methods::physiological::Physiological;
use redo_methods::{PhaseNanos, RecoveryMethod};
use redo_sim::backend::BackendKind;
use redo_sim::db::{Db, Geometry};
use redo_sim::page::Page;
use redo_workload::pages::PageWorkloadSpec;

type PhysioDb = Db<<Physiological as RecoveryMethod>::Payload>;
type MediaDb = Db<<Media as RecoveryMethod>::Payload>;

/// A crashed database after `n_ops` operations with an eagerly flushed
/// log, rare page flushes (so replay has real work), and optionally a
/// checkpoint at 90% of the run.
fn crashed_db(
    n_ops: usize,
    checkpoint_at_90: bool,
    kind: BackendKind,
    log_shards: usize,
) -> PhysioDb {
    let ops = PageWorkloadSpec {
        n_ops,
        n_pages: 64,
        ..Default::default()
    }
    .generate(23);
    let mut db = Db::on_sharded(kind, Geometry::default(), None, log_shards);
    let mut rng = StdRng::seed_from_u64(7);
    let ckpt_at = n_ops * 9 / 10;
    for (i, op) in ops.iter().enumerate() {
        Physiological.execute(&mut db, op).unwrap();
        db.chaos_flush(&mut rng, 0.9, 0.01).unwrap();
        if checkpoint_at_90 && i + 1 == ckpt_at {
            Physiological.checkpoint(&mut db).unwrap();
        }
    }
    db.log.flush_all();
    db.crash();
    db
}

/// A crashed database driven by the media-capable method: online fuzzy
/// checkpoints every 10% of the run keep moving the truncated log
/// prefix into the archive tier, so a media rebuild has real
/// `archive ∥ live` history to replay from genesis.
fn crashed_media_db(n_ops: usize, log_shards: usize) -> MediaDb {
    let ops = PageWorkloadSpec {
        n_ops,
        n_pages: 64,
        ..Default::default()
    }
    .generate(23);
    let mut db = Db::on_sharded(BackendKind::Mem, Geometry::default(), None, log_shards);
    let mut rng = StdRng::seed_from_u64(7);
    let every = (n_ops / 10).max(1);
    for (i, op) in ops.iter().enumerate() {
        Media.execute(&mut db, op).unwrap();
        db.chaos_flush(&mut rng, 0.9, 0.01).unwrap();
        if (i + 1) % every == 0 {
            Media.checkpoint(&mut db).unwrap();
        }
    }
    db.log.flush_all();
    db.crash();
    db
}

/// Ops behind the `pool_pages` axis, the same in smoke mode: enough to
/// make most of the larger database resident and to make each page's
/// first fetch a small share of the records.
const POOL_AXIS_OPS: usize = 60_000;

/// Timed rounds of the `pool_pages` guard, each recovering both images.
const POOL_AXIS_ROUNDS: usize = 7;

/// The `pool_pages` axis: per-record replay cost must not grow with the
/// number of pages the pool holds. No page is flushed before the crash,
/// so every record replays. The two images are timed in alternation,
/// one recovery of each per round and the best of the rounds per side,
/// so that a slow spell of a shared box lands on both sides.
fn bench_pool_pages(group: &mut criterion::BenchmarkGroup<'_>) {
    let mut images = Vec::new();
    let mut phases = Vec::new();
    for n_pages in [64u32, 8192] {
        let ops = PageWorkloadSpec {
            n_ops: POOL_AXIS_OPS,
            n_pages,
            skew: 1.0,
            ..Default::default()
        }
        .generate(23);
        let mut image: PhysioDb = Db::new(Geometry::default());
        for op in &ops {
            Physiological.execute(&mut image, op).unwrap();
        }
        image.log.flush_all();
        image.crash();
        let mut probe = image.clone();
        let stats = Physiological.recover(&mut probe).unwrap();
        assert_eq!(stats.replay_count(), POOL_AXIS_OPS, "nothing was installed");
        phases.push(stats.phase_ns);
        assert!(
            probe.pool.len() * 2 >= (n_pages as usize).min(POOL_AXIS_OPS),
            "the pool must end up holding most of the database: {} of {n_pages} pages",
            probe.pool.len()
        );
        images.push((n_pages, image));
    }
    let mut best = [Duration::MAX; 2];
    for _ in 0..POOL_AXIS_ROUNDS {
        for ((_, image), best) in images.iter().zip(&mut best) {
            let once = redo_bench::best_of(
                1,
                || image.clone(),
                |mut db| Physiological.recover(&mut db).unwrap(),
            );
            *best = (*best).min(once);
        }
    }
    for (n_pages, image) in &images {
        group.bench_with_input(
            BenchmarkId::new(format!("pool_pages{n_pages}"), POOL_AXIS_OPS),
            image,
            |b, image| {
                b.iter_batched(
                    || (*image).clone(),
                    |mut db| Physiological.recover(&mut db).unwrap(),
                    BatchSize::LargeInput,
                )
            },
        );
    }
    let [small, wide] = best.map(|best| best.as_nanos() as f64 / POOL_AXIS_OPS as f64);
    println!(
        "recovery_throughput shape-check [n={POOL_AXIS_OPS}]: {small:.0} ns per replayed record \
         over 64 pages, {wide:.0} ns over 8192 ({:.2}x, best of {POOL_AXIS_ROUNDS} alternating \
         rounds each); one probe restart by phase (begin/scan/prefetch/redo/install): {} over 64 pages, \
         {} over 8192",
        wide / small,
        phases[0],
        phases[1],
    );
    assert!(
        wide <= 1.5 * small,
        "per-record replay cost grows with the pool: {small:.0} ns at 64 pages, {wide:.0} ns at 8192"
    );
}

/// Records behind the scan-share guard.
const SCAN_GUARD_OPS: usize = 20_000;

/// The scan-share guard: restart reads each record in place, so the
/// scan costs well under the replay. Over a single-page log that
/// replays whole, the best scan phase of 5 restarts is at most 0.8× the
/// best redo phase.
fn bench_scan_share() {
    let ops = PageWorkloadSpec {
        n_ops: SCAN_GUARD_OPS,
        n_pages: 64,
        ..Default::default()
    }
    .generate(23);
    let mut image: PhysioDb = Db::new(Geometry::default());
    for op in &ops {
        Physiological.execute(&mut image, op).unwrap();
    }
    image.log.flush_all();
    image.crash();
    let mut phases = Vec::new();
    redo_bench::best_of(
        5,
        || image.clone(),
        |mut db| {
            phases.push(Physiological.recover(&mut db).unwrap().phase_ns);
        },
    );
    let best = |phase: fn(&PhaseNanos) -> u64| phases.iter().map(phase).min().unwrap_or(0);
    let (scan, redo) = (best(|p| p.scan), best(|p| p.redo));
    let ratio = scan as f64 / redo as f64;
    println!(
        "recovery_throughput shape-check [n={SCAN_GUARD_OPS}]: scan {ratio:.2}x redo \
         (best of 5 each: {} / {} us)",
        scan / 1_000,
        redo / 1_000,
    );
    assert!(
        ratio <= 0.8,
        "the scan costs {ratio:.2}x the replay: is restart decoding each record into an owned operation?"
    );
}

/// This process's minor page faults so far — `/proc/self/stat`'s
/// `minflt` — or `None` where the platform keeps no such file.
fn minor_faults() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // After the parenthesized command name: the state, then six more
    // fields, then `minflt`.
    let (_, fields) = stat.rsplit_once(')')?;
    fields.split_whitespace().nth(7)?.parse().ok()
}

/// The minor page faults of each of five `Media.recover`s of `image`,
/// one after another in this process, as `a/b/c/d/e`.
fn restore_faults(image: &MediaDb) -> String {
    let faults = (0..5).map(|_| {
        let mut db = image.clone();
        let before = minor_faults()?;
        Media.recover(&mut db).unwrap();
        Some(minor_faults()? - before)
    });
    let faults: Vec<String> = faults
        .map(|f| f.map_or_else(|| "n/a".to_string(), |f| f.to_string()))
        .collect();
    faults.join("/")
}

/// The media axis's guard: a restore costs at most 2.5× an intact
/// recovery of the same image (best of 5 each side). Also prints the
/// rebuild by part, each part best of 5: the replay of the history into
/// the scratch image, and the closure with its pages' images.
fn bench_media_ratio(n: usize, intact: &MediaDb, damaged: &MediaDb) {
    let best = |image: &MediaDb| {
        let recover = |mut db: MediaDb| Media.recover(&mut db).unwrap();
        redo_bench::best_of(5, || image.clone(), recover).as_secs_f64()
    };
    let ratio = best(damaged) / best(intact);
    let mut probe = damaged.clone();
    probe.repair_after_crash();
    let lost = probe.disk.lost_pages();
    let part = |run: &dyn Fn()| redo_bench::best_of(5, || (), |()| run()).as_micros();
    let scratch = ScratchImage::replay(&probe).unwrap();
    let images = || -> Vec<Page> {
        let closure = scratch.closure(&lost);
        closure
            .into_iter()
            .map(|page| scratch.image(page))
            .collect()
    };
    let parts = [
        part(&|| drop(ScratchImage::replay(&probe).unwrap())),
        part(&|| drop(images())),
    ];
    println!(
        "recovery_throughput shape-check [n={n}]: media restore {ratio:.2}x the intact recovery \
         (best of 5 each); rebuild by part (pass/closure): {}/{} us, {} page(s) rebuilt",
        parts[0],
        parts[1],
        images().len(),
    );
    assert!(
        ratio <= 2.5,
        "a media restore costs {ratio:.2}x an intact recovery: is the rebuild reading the history \
         more than once, or holding more than its pages?"
    );
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::var("RECOVERY_THROUGHPUT_SMOKE").is_ok();
    let sizes: &[usize] = if smoke {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let mut group = c.benchmark_group("recovery_throughput");
    let shard_counts: &[usize] = &[2, 4, 8];
    bench_pool_pages(&mut group);
    bench_scan_share();
    for &n in sizes {
        let full = crashed_db(n, false, BackendKind::Mem, 1);
        let ckpt = crashed_db(n, true, BackendKind::Mem, 1);
        let mut ckpt_noseek = ckpt.clone();
        ckpt_noseek.log.disable_seek_index();

        // Shape checks: the telemetry must show the checkpoint bounding
        // decode work and the seek index actually firing, and all three
        // configurations must agree on the recovered state.
        let mut probe = full.clone();
        let full_stats = Physiological.recover(&mut probe).unwrap();
        let mut probe = ckpt.clone();
        let seek_stats = Physiological.recover(&mut probe).unwrap();
        let seeked_state = probe.volatile_theory_state();
        let mut probe = ckpt_noseek.clone();
        let noseek_stats = Physiological.recover(&mut probe).unwrap();
        assert_eq!(seek_stats, noseek_stats, "seek index changed semantics");
        assert_eq!(
            probe.volatile_theory_state(),
            seeked_state,
            "seek index changed the recovered state"
        );
        assert!(
            seek_stats.records_decoded * 4 <= full_stats.records_decoded,
            "checkpointed decode must track the suffix: {} vs {}",
            seek_stats.records_decoded,
            full_stats.records_decoded
        );
        assert!(
            seek_stats.seek_hits >= 1,
            "checkpointed recovery must enter via the seek index"
        );
        println!(
            "recovery_throughput shape-check [n={n}]: full decodes {} records / {} bytes; \
             ckpt+seek decodes {} records / {} bytes ({} seek hit(s)); \
             ckpt without index scans {} bytes",
            full_stats.records_decoded,
            full_stats.bytes_scanned,
            seek_stats.records_decoded,
            seek_stats.bytes_scanned,
            seek_stats.seek_hits,
            noseek_stats.bytes_scanned,
        );

        for (label, image) in [
            ("full", &full),
            ("ckpt_seek", &ckpt),
            ("ckpt_noseek", &ckpt_noseek),
        ] {
            group.bench_with_input(BenchmarkId::new(label, n), image, |b, image| {
                b.iter_batched(
                    || (*image).clone(),
                    |mut db| Physiological.recover(&mut db).unwrap(),
                    BatchSize::LargeInput,
                )
            });
        }

        // The sharded-log axis: the same checkpointed run logged across
        // N per-partition logs, recovered by the serial merged-cursor
        // scan. Each shard's cursor must still enter through its own
        // seek index, and the state must match the single log's.
        for &s in shard_counts {
            let sharded = crashed_db(n, true, BackendKind::Mem, s);
            let mut probe = sharded.clone();
            let sharded_stats = Physiological.recover(&mut probe).unwrap();
            assert_eq!(
                probe.volatile_theory_state(),
                seeked_state,
                "{s} log shards changed the recovered state"
            );
            assert!(
                sharded_stats.seek_hits >= 1,
                "sharded checkpointed recovery must enter via the shard seek indexes"
            );
            println!(
                "recovery_throughput shape-check [n={n}]: {s} log shards decode \
                 {} records / {} bytes ({} seek hit(s))",
                sharded_stats.records_decoded, sharded_stats.bytes_scanned, sharded_stats.seek_hits,
            );
            group.bench_with_input(
                BenchmarkId::new(format!("ckpt_seek_shards{s}"), n),
                &sharded,
                |b, image| {
                    b.iter_batched(
                        || (*image).clone(),
                        |mut db| Physiological.recover(&mut db).unwrap(),
                        BatchSize::LargeInput,
                    )
                },
            );
        }

        // The media-restore axis: one page destroyed out-of-band after
        // the crash. Recovery must first rebuild it by replaying
        // `archive ∥ live` from genesis; the intact image of the same
        // run is the baseline the restore's extra cost is measured
        // against.
        {
            let intact = crashed_media_db(n, 2);
            let mut probe = intact.clone();
            Media.recover(&mut probe).unwrap();
            let reference = probe.volatile_theory_state();
            let victim = intact.disk.pages()[0].0;
            let mut damaged = intact.clone();
            damaged.disk.destroy_page(victim);
            damaged.crash();
            let mut probe = damaged.clone();
            Media.recover(&mut probe).unwrap();
            assert!(
                probe.disk.lost_pages().is_empty(),
                "media restore left pages lost"
            );
            assert_eq!(
                probe.volatile_theory_state(),
                reference,
                "media restore diverged from the intact recovery"
            );
            println!(
                "recovery_throughput shape-check [n={n}]: media restore rebuilt page \
                 {victim:?} from {} archived bytes plus {} live stable records",
                intact.log.archived_bytes(),
                intact.log.stable_count(),
            );
            println!(
                "recovery_throughput shape-check [n={n}]: minor page faults per media restore {} \
                 (intact recovery {})",
                restore_faults(&damaged),
                restore_faults(&intact),
            );
            if n == sizes[0] {
                bench_media_ratio(n, &intact, &damaged);
            }
            for (label, image) in [("media_intact", &intact), ("media_restore", &damaged)] {
                group.bench_with_input(BenchmarkId::new(label, n), image, |b, image| {
                    b.iter_batched(
                        || (*image).clone(),
                        |mut db| Media.recover(&mut db).unwrap(),
                        BatchSize::LargeInput,
                    )
                });
            }
        }

        // The fsync-bound axis, smallest size only: the same checkpointed
        // crash image living on real files. Recovery's repair pass and
        // every page it installs now pay real fsyncs; each timed iteration
        // recovers a fresh on-disk copy (the clone in the untimed setup
        // copies the backing directory).
        if n == sizes[0] {
            let file_ckpt = crashed_db(n, true, BackendKind::File, 1);
            let mut probe = file_ckpt.clone();
            let file_stats = Physiological.recover(&mut probe).unwrap();
            assert_eq!(
                probe.volatile_theory_state(),
                seeked_state,
                "file backend changed the recovered state"
            );
            println!(
                "recovery_throughput shape-check [n={n}]: file backend decodes {} records / {} bytes",
                file_stats.records_decoded, file_stats.bytes_scanned,
            );
            group.bench_with_input(
                BenchmarkId::new("file_ckpt_seek", n),
                &file_ckpt,
                |b, image| {
                    b.iter_batched(
                        || (*image).clone(),
                        |mut db| Physiological.recover(&mut db).unwrap(),
                        BatchSize::LargeInput,
                    )
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
