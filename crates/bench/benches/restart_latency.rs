//! RESTART_LATENCY — the checkpoint daemon's bounded-restart SLA.
//!
//! Recovery time for the generalized method over growing live runs
//! (1k / 10k / 100k operations), in two configurations per size:
//!
//! * `no_daemon` — no checkpoint ever published: recovery decodes the
//!   entire stable log. Restart latency scales with the *lifetime* of
//!   the database.
//! * `daemon` — online fuzzy checkpoints every 500 operations
//!   ([`redo::checkpoint_fuzzy`]): each publication moves
//!   the master pointer and truncates the log prefix below its
//!   redo-start, so the retained log — and with it the restart scan —
//!   tracks the *churn window* (how far the dirtiest page lags), not
//!   the run length. Restart latency stays roughly flat as the live
//!   run grows 10×.
//!
//! * `ondemand_first_read` — **time to first served read**: the
//!   instant-restart axis. On the daemon image, [`OnDemand::open`]
//!   places recovery gates from the analysis alone (no scan, no
//!   replay), and the first read pays for exactly its page's residual
//!   component. Where the two offline configurations measure
//!   time-to-*open*, this measures what a client actually waits:
//!   open + one lazy replay.
//!
//! Shape checks before timing assert the telemetry tells that story:
//! the daemon image's recovery starts from a published checkpoint and
//! decodes **under 20%** of the records the run ever logged (for the
//! 100k run it is well under 1%), while recovering the *identical*
//! state the full-scan image recovers; the on-demand drain also lands
//! on that state, and at the 100k image its time to first served read
//! is **at least 10× lower** than the full offline redo's completion.
//!
//! Set `RESTART_LATENCY_SMOKE=1` to run only the smallest size (CI's
//! smoke iteration).

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use redo_methods::ondemand::OnDemand;
use redo_methods::online::GeneralizedOnline;
use redo_methods::oprecord::PageOpPayload;
use redo_methods::redo;
use redo_methods::RecoveryMethod;
use redo_sim::db::{Db, Geometry};
use redo_workload::pages::{Cell, PageId, PageWorkloadSpec, SlotId};

/// A crashed database after an `n_ops` live run with group-committed
/// log flushes, background page cleaning, and (optionally) the online
/// checkpoint discipline every 500 operations. Also returns the total
/// number of records the run ever appended durably — truncated prefix
/// included — as the denominator for the bounded-scan check.
fn crashed_db(n_ops: usize, daemon: bool) -> (Db<PageOpPayload>, usize) {
    let ops = PageWorkloadSpec {
        n_ops,
        n_pages: 64,
        cross_page_fraction: 0.2,
        multi_page_fraction: 0.1,
        blind_fraction: 0.1,
        ..Default::default()
    }
    .generate(23);
    let mut db = Db::new(Geometry::default());
    let mut rng = StdRng::seed_from_u64(7);
    for (i, op) in ops.iter().enumerate() {
        GeneralizedOnline.execute(&mut db, op).unwrap();
        db.chaos_flush(&mut rng, 0.9, 0.05).unwrap();
        if daemon && (i + 1) % 500 == 0 {
            redo::checkpoint_fuzzy(&mut db, 0)
                .unwrap()
                .expect("unfaulted publication lands");
        }
    }
    db.log.flush_all();
    db.crash();
    let total = db.log.truncated_records() as usize + db.log.stable_count();
    (db, total)
}

fn bench(c: &mut Criterion) {
    let smoke = std::env::var("RESTART_LATENCY_SMOKE").is_ok();
    let sizes: &[usize] = if smoke {
        &[1_000]
    } else {
        &[1_000, 10_000, 100_000]
    };
    let mut group = c.benchmark_group("restart_latency");
    for &n in sizes {
        // (The daemon run's total is slightly larger: it includes the
        // checkpoint records themselves.)
        let (full, full_total) = crashed_db(n, false);
        let (daemon, daemon_total) = crashed_db(n, true);

        // Shape checks: the daemon bounds the restart scan and changes
        // nothing about the recovered state.
        let mut probe = full.clone();
        let full_stats = GeneralizedOnline.recover(&mut probe).unwrap();
        let full_state = probe.volatile_theory_state();
        let mut probe = daemon.clone();
        let daemon_stats = GeneralizedOnline.recover(&mut probe).unwrap();
        assert!(
            daemon_stats.checkpoint_lsn.is_some(),
            "daemon recovery must start from a published checkpoint"
        );
        assert!(
            daemon_stats.truncated_bytes > 0,
            "the daemon must have reclaimed log prefix"
        );
        assert!(
            daemon_stats.records_decoded * 5 <= daemon_total,
            "restart scan must stay under 20% of the log ever written: \
             decoded {} of {} records",
            daemon_stats.records_decoded,
            daemon_total
        );
        assert_eq!(
            probe.volatile_theory_state(),
            full_state,
            "the daemon changed the recovered state"
        );
        // The lazy path must drain to the same state as both offline
        // scans.
        let mut probe = daemon.clone();
        OnDemand.recover(&mut probe).unwrap();
        assert_eq!(
            probe.volatile_theory_state(),
            full_state,
            "the on-demand drain changed the recovered state"
        );
        // Fix the first-read probe: the lowest gated page of the
        // daemon image (falling back to page 0 if nothing is gated).
        let probe_cell = {
            let mut scout = daemon.clone();
            let restart = OnDemand::open(&mut scout).unwrap();
            let page = (0..64).map(PageId).find(|&p| restart.is_gated(p));
            Cell {
                page: page.unwrap_or(PageId(0)),
                slot: SlotId(0),
            }
        };
        println!(
            "restart_latency shape-check [n={n}]: full scan decodes {} of {} records; \
             daemon decodes {} (checkpoint at {:?}, {} stable bytes reclaimed)",
            full_stats.records_decoded,
            full_total,
            daemon_stats.records_decoded,
            daemon_stats.checkpoint_lsn,
            daemon_stats.truncated_bytes,
        );
        if n == 100_000 {
            // The acceptance ratio: time to first served read through
            // the lazy path vs the full offline redo's completion, on
            // the same 100k-operation run. Minimum of three runs each
            // to shave scheduler noise.
            let offline = (0..3)
                .map(|_| {
                    let mut db = full.clone();
                    let t = std::time::Instant::now();
                    GeneralizedOnline.recover(&mut db).unwrap();
                    t.elapsed()
                })
                .min()
                .unwrap();
            let first_read = (0..3)
                .map(|_| {
                    let mut db = daemon.clone();
                    let t = std::time::Instant::now();
                    let mut restart = OnDemand::open(&mut db).unwrap();
                    restart.read_cell(&mut db, probe_cell).unwrap();
                    t.elapsed()
                })
                .min()
                .unwrap();
            println!(
                "restart_latency shape-check [n={n}]: full offline redo {offline:?}, \
                 on-demand first served read {first_read:?} ({:.0}x)",
                offline.as_secs_f64() / first_read.as_secs_f64().max(f64::EPSILON),
            );
            assert!(
                offline >= first_read * 10,
                "time to first served read must beat full offline redo 10x: \
                 {first_read:?} vs {offline:?}"
            );
        }

        for (label, image) in [("no_daemon", &full), ("daemon", &daemon)] {
            group.bench_with_input(BenchmarkId::new(label, n), image, |b, image| {
                b.iter_batched(
                    || (*image).clone(),
                    |mut db| GeneralizedOnline.recover(&mut db).unwrap(),
                    BatchSize::LargeInput,
                )
            });
        }
        group.bench_with_input(
            BenchmarkId::new("ondemand_first_read", n),
            &daemon,
            |b, image| {
                b.iter_batched(
                    || (*image).clone(),
                    |mut db| {
                        let mut restart = OnDemand::open(&mut db).unwrap();
                        restart.read_cell(&mut db, probe_cell).unwrap()
                    },
                    BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
