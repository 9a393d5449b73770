//! Property tests for the checkpoint-aware parallel restart.
//!
//! The tentpole contract: restarting through the DPT-fed partitioned
//! scheduler ([`recover_partitioned`]) from a crashed image
//! carrying online fuzzy checkpoints must reach *exactly* the state
//! that sequential, checkpoint-blind, full-scan recovery reaches — the
//! reference that uses no dirty-page table, no redo-start seek, and no
//! partitioning, only the per-page LSN redo test over the entire
//! surviving stable log. Theorem 3 says the two replay orders are
//! interchangeable; the fuzzy-checkpoint contract says the records the
//! seek skips were all provably installed. The property exercises both
//! at once, across thread counts, arbitrary checkpoint cadences,
//! chaotic flush schedules, and injected crash-point faults (clean
//! stops, torn page writes, torn log flushes).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use redo_recovery::methods::harness::Driver;
use redo_recovery::methods::oprecord::PageOpPayload;
use redo_recovery::methods::parallel::{recover_partitioned, ParallelOnline, ParallelPhysical};
use redo_recovery::methods::physical::{PhysPayload, Physical};
use redo_recovery::methods::physiological::Physiological;
use redo_recovery::methods::redo::{self, PageLocal};
use redo_recovery::methods::RecoveryMethod;
use redo_recovery::sim::db::{Db, Geometry};
use redo_recovery::sim::fault::{FaultKind, FaultPlan};
use redo_recovery::sim::page::Page;
use redo_recovery::sim::wal::{LogPayload, ShardedScanner};
use redo_recovery::theory::log::Lsn;
use redo_recovery::theory::state::State;
use redo_recovery::workload::pages::{PageOp, PageWorkloadSpec};

/// Runs the workload under `method` — whose checkpoint is its fuzzy
/// discipline — with chaotic flushing and an optional armed crash-point
/// fault, then crashes: the method harness's own driver. Once a fault
/// trips the machine is dying — substrate errors are expected and the
/// run ends at that operation boundary; a publication the fault
/// interrupted mid-protocol is a legal crash state.
fn crashed_image_of<M: RecoveryMethod>(
    method: &M,
    ops: &[PageOp],
    seed: u64,
    ck_every: usize,
    chaos: (f64, f64),
    fault: Option<FaultPlan>,
) -> Db<M::Payload> {
    let mut db = Db::new(Geometry::default());
    if let Some(plan) = fault {
        db.arm_faults(plan);
    }
    Driver::new(method, Some(chaos), Some(ck_every))
        .run(&mut db, ops, &mut StdRng::seed_from_u64(seed ^ 0x9e37_79b9))
        .expect("no substrate error without a fault");
    db.log.flush_all();
    db.crash();
    db
}

/// [`crashed_image_of`] the physiological method under online fuzzy
/// checkpoints.
fn crashed_image(
    ops: &[PageOp],
    seed: u64,
    ck_every: usize,
    chaos: (f64, f64),
    fault: Option<FaultPlan>,
) -> Db<PageOpPayload> {
    let method = ParallelOnline { threads: 1 };
    crashed_image_of(&method, ops, seed, ck_every, chaos, fault)
}

/// The reference recovery: sequential, checkpoint-blind, full-scan.
/// Scans the entire surviving stable log from its first record (no
/// dirty-page table, no seek) and hands every record to `redo`, which
/// ignores checkpoint payloads entirely. Returns how many records
/// `redo` said it replayed.
fn full_scan<M: RecoveryMethod>(
    db: &mut Db<M::Payload>,
    mut redo: impl FnMut(&mut Db<M::Payload>, Lsn, M::Payload) -> bool,
) -> usize {
    db.repair_after_crash();
    let mut scanner = ShardedScanner::seek(&db.log, Lsn(1));
    let mut replayed = 0;
    loop {
        let batch = scanner
            .next_batch(&db.log, 32)
            .expect("surviving stable log decodes");
        if batch.is_empty() {
            return replayed;
        }
        for rec in batch {
            let payload = rec.payload.parse(M::Payload::decode);
            replayed += usize::from(redo(db, rec.lsn, payload.expect("records decode")));
        }
    }
}

/// The physiological reference: the per-page LSN redo test on every
/// page-op record.
fn recover_full_scan(db: &mut Db<PageOpPayload>) -> usize {
    full_scan::<Physiological>(db, |db, lsn, payload| {
        let PageOpPayload::Op(op) = payload else {
            return false;
        };
        let page = op.written_pages()[0];
        db.fetch_with_steal(page).expect("recovery fetch");
        let installed = db.pool.get(page).expect("just fetched").lsn() >= lsn;
        if !installed {
            db.apply_page_op(&op, lsn).expect("redo applies");
        }
        !installed
    })
}

/// The physical reference: every after-image, blindly.
fn recover_full_scan_blind(db: &mut Db<PhysPayload>) -> usize {
    full_scan::<Physical>(db, |db, lsn, payload| {
        let PhysPayload::Writes { writes, .. } = payload else {
            return false;
        };
        for (cell, v) in writes {
            db.fetch_with_steal(cell.page).expect("recovery fetch");
            let set = |p: &mut Page| p.set(cell.slot, v);
            db.pool.update(cell.page, lsn, set).expect("just fetched");
        }
        true
    })
}

/// Restart, optionally publish a fuzzy checkpoint, crash,
/// restart: both restarts must land on `reference`. The checkpoint
/// between them publishes the dirty-page table the *first restart* left
/// in the pool — if that table claims more installed than the disk
/// holds, the publication archives records the second restart needs.
fn restart_twice<P: PageLocal + Sync>(
    db: &mut Db<P>,
    threads: usize,
    checkpoint_between: bool,
    reference: &State,
) -> Result<(), TestCaseError> {
    recover_partitioned(db, threads).map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(&db.volatile_theory_state(), reference, "first restart");
    if checkpoint_between {
        let published =
            redo::checkpoint_fuzzy(db, 0).map_err(|e| TestCaseError::fail(e.to_string()))?;
        prop_assert!(
            published.is_some(),
            "no faults armed: publication must land"
        );
    }
    db.crash();
    recover_partitioned(db, threads).map_err(|e| TestCaseError::fail(e.to_string()))?;
    prop_assert_eq!(&db.volatile_theory_state(), reference, "second restart");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// DPT-fed parallel restart == checkpoint-blind full-scan recovery,
    /// for every thread count, under arbitrary fuzzy-checkpoint
    /// cadence, flush chaos, and injected crash schedules.
    #[test]
    fn parallel_restart_matches_checkpoint_blind_full_scan(
        seed in any::<u64>(),
        n_ops in 20..60usize,
        n_pages in 3..8u32,
        ck_every in 3..12usize,
        log_pct in 30..100u32,
        page_pct in 0..50u32,
        fault in prop::option::of((1..80u64, 0..3u8, 1..6usize)),
    ) {
        let (log_p, page_p) = (f64::from(log_pct) / 100.0, f64::from(page_pct) / 100.0);
        let ops = PageWorkloadSpec { n_ops, n_pages, ..Default::default() }.generate(seed);
        let plan = fault.map(|(at, kind, n)| FaultPlan {
            at,
            kind: match kind {
                0 => FaultKind::Clean,
                1 => FaultKind::TornWrite { sectors: n as u16 },
                _ => FaultKind::TornFlush { bytes: n * 5 },
            },
        });
        let mut ref_db = crashed_image(&ops, seed, ck_every, (log_p, page_p), plan);
        let ref_replayed = recover_full_scan(&mut ref_db);
        let reference = ref_db.volatile_theory_state();
        for threads in [1usize, 2, 4, 8] {
            let mut db = crashed_image(&ops, seed, ck_every, (log_p, page_p), plan);
            let stats = recover_partitioned(&mut db, threads)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(
                db.volatile_theory_state(),
                reference.clone(),
                "threads={} stats={:?}",
                threads,
                stats
            );
            // The checkpoint seek only ever *narrows* redo work: the
            // partitioned path must never replay more than the
            // checkpoint-blind reference scan did.
            prop_assert!(
                stats.replay_count() <= ref_replayed,
                "threads={}: parallel replayed {} > blind full scan {}",
                threads,
                stats.replay_count(),
                ref_replayed
            );
        }
    }

    /// Parallel restart is idempotent: a second crash after recovery (no
    /// new work; optionally one fuzzy checkpoint of what the restart
    /// left in the pool) recovers to the identical state — the
    /// checkpoint-blind full-scan reference — at any thread count, for
    /// both page-local payloads.
    #[test]
    fn parallel_restart_is_idempotent(
        seed in any::<u64>(),
        ck_every in 3..10usize,
        threads in 1..8usize,
        checkpoint_between in any::<bool>(),
    ) {
        let ops = PageWorkloadSpec { n_ops: 30, n_pages: 5, ..Default::default() }.generate(seed);
        let mut db = crashed_image(&ops, seed, ck_every, (0.7, 0.3), None);
        let mut ref_db = db.clone();
        recover_full_scan(&mut ref_db);
        let reference = ref_db.volatile_theory_state();
        restart_twice(&mut db, threads, checkpoint_between, &reference)?;

        let blind = PageWorkloadSpec {
            n_ops: 30,
            n_pages: 5,
            blind_fraction: 1.0,
            multi_page_fraction: 0.4,
            ..Default::default()
        }
        .generate(seed);
        let method = ParallelPhysical { threads };
        let mut db = crashed_image_of(&method, &blind, seed, ck_every, (0.7, 0.3), None);
        let mut ref_db = db.clone();
        recover_full_scan_blind(&mut ref_db);
        let reference = ref_db.volatile_theory_state();
        restart_twice(&mut db, threads, checkpoint_between, &reference)?;
    }
}
