//! B+tree crash-recovery integration across both split strategies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redo_recovery::btree::{BTree, SplitStrategy};
use redo_recovery::sim::fault::{FaultKind, FaultPlan};
use redo_recovery::workload::pages::mix64;
use std::collections::BTreeMap;

const STRATEGIES: [SplitStrategy; 2] = [SplitStrategy::Physiological, SplitStrategy::Generalized];

#[test]
fn mixed_workload_with_periodic_crashes() {
    for strategy in STRATEGIES {
        for seed in 0..3u64 {
            let mut tree = BTree::new(strategy, 16).unwrap();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut rng = StdRng::seed_from_u64(seed);
            for step in 0..400u64 {
                match rng.gen_range(0..10) {
                    0..=6 => {
                        let k = rng.gen_range(0..600);
                        let v = mix64(k ^ step);
                        tree.insert(k, v).unwrap();
                        model.insert(k, v);
                    }
                    7 => {
                        let k = rng.gen_range(0..600);
                        assert_eq!(tree.remove(k).unwrap(), model.remove(&k).is_some());
                    }
                    8 => {
                        tree.db.chaos_flush(&mut rng, 0.8, 0.4).unwrap();
                    }
                    _ => {
                        if rng.gen_bool(0.3) {
                            tree.checkpoint().unwrap();
                        } else {
                            tree.db.log.flush_all();
                            tree.crash();
                            tree.recover().unwrap();
                        }
                    }
                }
            }
            tree.db.log.flush_all();
            tree.crash();
            tree.recover().unwrap();
            for (&k, &v) in &model {
                assert_eq!(
                    tree.get(k).unwrap(),
                    Some(v),
                    "{strategy:?} seed {seed} key {k}"
                );
            }
            assert_eq!(tree.validate().unwrap(), model.len());
        }
    }
}

#[test]
fn strategies_agree_on_query_results() {
    let mut a = BTree::new(SplitStrategy::Physiological, 16).unwrap();
    let mut b = BTree::new(SplitStrategy::Generalized, 16).unwrap();
    for k in 0..500u64 {
        let key = mix64(k) % 10_000;
        a.insert(key, k).unwrap();
        b.insert(key, k).unwrap();
    }
    assert_eq!(a.range(0, u64::MAX).unwrap(), b.range(0, u64::MAX).unwrap());
    assert_eq!(a.range(100, 5_000).unwrap(), b.range(100, 5_000).unwrap());
}

#[test]
fn recovery_is_idempotent_across_repeated_crashes() {
    for strategy in STRATEGIES {
        let mut tree = BTree::new(strategy, 16).unwrap();
        for k in 0..300u64 {
            tree.insert(mix64(k), k).unwrap();
        }
        tree.db.log.flush_all();
        let mut last = None;
        for _ in 0..4 {
            tree.crash();
            tree.recover().unwrap();
            let snapshot = tree.range(0, u64::MAX).unwrap();
            if let Some(prev) = &last {
                assert_eq!(&snapshot, prev);
            }
            last = Some(snapshot);
        }
        assert_eq!(last.unwrap().len(), 300);
    }
}

#[test]
fn checkpointed_tree_survives_crash_without_log_tail() {
    for strategy in STRATEGIES {
        let mut tree = BTree::new(strategy, 16).unwrap();
        for k in 0..200u64 {
            tree.insert(k, k + 7).unwrap();
        }
        tree.checkpoint().unwrap();
        // Post-checkpoint inserts never make it to the stable log.
        for k in 200..260u64 {
            tree.insert(k, k + 7).unwrap();
        }
        tree.crash();
        tree.recover().unwrap();
        for k in 0..200u64 {
            assert_eq!(tree.get(k).unwrap(), Some(k + 7));
        }
        for k in 200..260u64 {
            assert_eq!(
                tree.get(k).unwrap(),
                None,
                "{strategy:?}: key {k} should be lost"
            );
        }
        tree.validate().unwrap();
    }
}

#[test]
fn deep_trees_stay_uniform_depth() {
    // Small pages force depth > 3; validate() enforces uniform depth.
    let mut tree = BTree::new(SplitStrategy::Generalized, 8).unwrap();
    for k in 0..1_000u64 {
        tree.insert(mix64(k), k).unwrap();
    }
    assert_eq!(tree.validate().unwrap(), 1_000);
    tree.db.log.flush_all();
    tree.crash();
    tree.recover().unwrap();
    assert_eq!(tree.validate().unwrap(), 1_000);
}

const SWEEP_KINDS: [FaultKind; 2] = [
    FaultKind::TornFlush { bytes: 9 },
    FaultKind::TornWrite { sectors: 2 },
];

/// Crash points of the sweep below that stop *between two records of
/// one split*: `SplitCopyHigh` and `SplitTruncate` are durable, the
/// parent's `InsertInternal` is not (ROADMAP item 3).
const MID_SPLIT_EVENTS: [u64; 5] = [5, 21, 30, 32, 38];

/// One point of the fault sweep: a generalized-split tree with keys
/// 0..30 installed, then keys 30..120 under chaos flushing with `kind`
/// armed at faultable event `event`; stops at the trip and crashes.
fn tree_crashed_at(event: u64, kind: FaultKind) -> BTree {
    let mut tree = BTree::new(SplitStrategy::Generalized, 16).unwrap();
    for k in 0..30u64 {
        tree.insert(k, k + 7).unwrap();
    }
    tree.db.flush_everything().unwrap();
    tree.db.arm_faults(FaultPlan { at: event, kind });
    let mut rng = StdRng::seed_from_u64(event);
    for k in 30..120u64 {
        let inserted = tree.insert(k, k + 7);
        let flushed = tree.db.chaos_flush(&mut rng, 0.7, 0.4);
        if tree.db.fault_tripped() {
            break;
        }
        inserted.unwrap();
        flushed.unwrap();
    }
    assert!(
        tree.db.fault_tripped(),
        "event {event} {kind:?} never fired"
    );
    tree.crash();
    tree
}

#[test]
fn recovery_repairs_torn_pages_and_log_tails_before_it_scans() {
    // Without `repair_after_crash` as recovery's first act, half of
    // these 78 crash points return `TornPage` or `Corrupt`.
    for event in 1..=39u64 {
        for kind in SWEEP_KINDS {
            let mut tree = tree_crashed_at(event, kind);
            tree.recover()
                .unwrap_or_else(|e| panic!("event {event} {kind:?}: {e}"));
            if MID_SPLIT_EVENTS.contains(&event) {
                continue;
            }
            let n = tree
                .validate()
                .unwrap_or_else(|e| panic!("event {event} {kind:?}: {e}"));
            assert!(n >= 30, "event {event} {kind:?}: installed keys lost");
            for k in 0..n as u64 {
                assert_eq!(tree.get(k).unwrap(), Some(k + 7), "event {event} key {k}");
            }
        }
    }
}

#[test]
#[ignore = "ROADMAP item 3: a split is several log records and nothing makes them atomic in the log"]
fn a_crash_between_the_records_of_one_split_leaves_a_valid_tree() {
    // Today `recover` returns `Ok` and `validate` says "leaf sibling
    // chain disagrees with tree order": the moved keys are unreachable
    // by descent.
    for event in MID_SPLIT_EVENTS {
        for kind in SWEEP_KINDS {
            let mut tree = tree_crashed_at(event, kind);
            tree.recover().unwrap();
            tree.validate()
                .unwrap_or_else(|e| panic!("event {event} {kind:?}: {e}"));
        }
    }
}
