//! Property tests for online fuzzy-checkpoint publication under fault
//! injection: a torn, partial, or unpublished checkpoint record must be
//! structurally discarded, recovery must fall back to the *previous*
//! published checkpoint, and the recovered state must be identical to
//! what a full log scan (no checkpoint, no seek index) produces.

use proptest::prelude::*;
use redo_recovery::methods::online::GeneralizedOnline;
use redo_recovery::methods::oprecord::PageOpPayload;
use redo_recovery::methods::redo;
use redo_recovery::methods::RecoveryMethod;
use redo_recovery::sim::db::{Db, Geometry};
use redo_recovery::sim::fault::{FaultKind, FaultPlan};
use redo_recovery::theory::log::Lsn;
use redo_recovery::workload::pages::{Cell, PageOp, PageWorkloadSpec};
use std::collections::BTreeMap;

fn workload(n: usize, seed: u64) -> Vec<PageOp> {
    PageWorkloadSpec {
        n_ops: n,
        n_pages: 5,
        cross_page_fraction: 0.3,
        multi_page_fraction: 0.2,
        blind_fraction: 0.1,
        ..Default::default()
    }
    .generate(seed)
}

/// Replays `ops` in issue order against a plain cell map — the ground
/// truth the recovered database must match. (The stable log cannot play
/// this role here: checkpoints truncate its prefix.)
fn model(ops: &[PageOp]) -> BTreeMap<Cell, u64> {
    let mut cells: BTreeMap<Cell, u64> = BTreeMap::new();
    for op in ops {
        let reads: Vec<u64> = op
            .reads
            .iter()
            .map(|c| cells.get(c).copied().unwrap_or(0))
            .collect();
        for &w in &op.writes {
            cells.insert(w, op.output(w, &reads));
        }
    }
    cells
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arm a fault on the second checkpoint's publication — tearing its
    /// record mid-flush, stopping before the flush, or suppressing the
    /// pointer swing after the record landed. In every case the attempt
    /// is abandoned, the first checkpoint stays in force, and recovery
    /// reaches exactly the durable prefix's state — the same state a
    /// checkpoint-blind full scan reaches.
    #[test]
    fn torn_checkpoint_falls_back_to_previous_published_one(
        seed in any::<u64>(),
        n1 in 6..20usize,
        n2 in 6..20usize,
        variant in 0..3u8,
        torn_bytes in 1..24usize,
    ) {
        let mut db: Db<PageOpPayload> = Db::new(Geometry { slots_per_page: 8 });
        let ops1 = workload(n1, seed);
        let ops2 = workload(n2, seed ^ 0x5eed);
        let mut committed: Vec<(PageOp, Lsn)> = Vec::new();
        for op in &ops1 {
            let lsn = GeneralizedOnline.execute(&mut db, op).unwrap();
            committed.push((op.clone(), lsn));
        }
        // First checkpoint: no faults armed, publication must land.
        let first = redo::checkpoint_fuzzy(&mut db, 0)
            .unwrap()
            .expect("unfaulted publication lands");
        for mut op in ops2 {
            op.id += n1 as u32; // unique ids across the two batches
            let lsn = GeneralizedOnline.execute(&mut db, &op).unwrap();
            committed.push((op, lsn));
        }
        // Pre-force the log so the second checkpoint's own flush moves
        // exactly one record: event 1 is the checkpoint-record flush,
        // event 2 the master-pointer write.
        db.log.flush_all();
        let plan = match variant {
            0 => FaultPlan { at: 1, kind: FaultKind::TornFlush { bytes: torn_bytes } },
            1 => FaultPlan { at: 1, kind: FaultKind::Clean },
            _ => FaultPlan { at: 2, kind: FaultKind::Clean },
        };
        db.arm_faults(plan);
        let second = redo::checkpoint_fuzzy(&mut db, 0).unwrap();
        prop_assert_eq!(second, None, "a faulted publication must be abandoned");

        db.crash();
        let repair = db.repair_after_crash();
        if variant == 0 {
            prop_assert!(
                repair.log_bytes_dropped > 0,
                "a torn checkpoint record leaves a fragment for repair to drop"
            );
        }
        prop_assert_eq!(db.disk.master(), first, "previous checkpoint still published");

        // Probe: the same crashed image, recovered checkpoint-blind
        // (master cleared, seek index disabled) — a full scan of the
        // retained log.
        let mut blind = db.clone();
        blind.disk.set_master(Lsn::ZERO).unwrap();
        blind.log.disable_seek_index();

        let stats = GeneralizedOnline.recover(&mut db).unwrap();
        prop_assert_eq!(
            stats.checkpoint_lsn, Some(first),
            "recovery starts from the fallback checkpoint"
        );
        let blind_stats = GeneralizedOnline.recover(&mut blind).unwrap();
        prop_assert_eq!(blind_stats.checkpoint_lsn, None);
        prop_assert_eq!(
            db.volatile_theory_state(),
            blind.volatile_theory_state(),
            "checkpointed and full-scan recovery must agree"
        );

        // Exactness: every op the stable log retained (all of them — the
        // final flush_all above preceded the armed fault) is reflected.
        let stable = db.log.stable_lsn();
        committed.retain(|(_, lsn)| *lsn <= stable);
        let durable: Vec<PageOp> = committed.into_iter().map(|(op, _)| op).collect();
        for (cell, v) in model(&durable) {
            prop_assert_eq!(db.read_cell(cell).unwrap(), v, "cell {:?} diverged", cell);
        }
    }

    /// With no faults at all, every publication lands and repeated
    /// checkpoint/crash cycles keep recovery exact while the log keeps
    /// shrinking — the truncation protocol never eats a needed record.
    #[test]
    fn repeated_publication_and_crash_cycles_stay_exact(
        seed in any::<u64>(),
        rounds in 2..5usize,
        per_round in 4..12usize,
    ) {
        let mut db: Db<PageOpPayload> = Db::new(Geometry { slots_per_page: 8 });
        let mut all_ops: Vec<PageOp> = Vec::new();
        for round in 0..rounds {
            let mut ops = workload(per_round, seed ^ (round as u64) << 8);
            for op in &mut ops {
                op.id += (round * per_round) as u32;
                GeneralizedOnline.execute(&mut db, op).unwrap();
            }
            all_ops.extend(ops);
            // Early rounds checkpoint fuzzily (dirty pages pin their
            // recLSNs); the last round cleans the pool first, so its
            // checkpoint's redo-start passes every earlier record and
            // truncation must reclaim a nonempty prefix.
            if round + 1 == rounds {
                db.log.flush_all();
                db.pool.flush_all(&mut db.disk, db.log.stable_lsn()).unwrap();
            }
            redo::checkpoint_fuzzy(&mut db, 0)
                .unwrap()
                .expect("unfaulted publication lands");
            db.log.flush_all();
            db.crash();
            db.repair_after_crash();
            GeneralizedOnline.recover(&mut db).unwrap();
            for (cell, v) in model(&all_ops) {
                prop_assert_eq!(db.read_cell(cell).unwrap(), v, "cell {:?} diverged", cell);
            }
        }
        prop_assert!(
            db.log.truncated_bytes() > 0,
            "repeated checkpoints must reclaim log prefix"
        );
    }
}
