//! B+tree crash-recovery integration across both split strategies.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redo_recovery::btree::{BTree, SplitStrategy};
use redo_recovery::methods::redo::{self, CheckpointView};
use redo_recovery::sim::backend::BackendKind;
use redo_recovery::sim::db::{Db, Geometry};
use redo_recovery::sim::fault::{FaultKind, FaultPlan};
use redo_recovery::sim::SimError;
use redo_recovery::theory::log::Lsn;
use redo_recovery::workload::pages::mix64;
use std::collections::{BTreeMap, BTreeSet};

const STRATEGIES: [SplitStrategy; 2] = [SplitStrategy::Physiological, SplitStrategy::Generalized];

#[test]
fn mixed_workload_with_periodic_crashes() {
    for strategy in STRATEGIES {
        // What the tree's checkpoints were, over the three lifecycles:
        // restarts that began from a fuzzy master, fuzzy masters that
        // were deltas, log bytes fuzzy publication truncated.
        let (mut fuzzy_restarts, mut deltas, mut truncated) = (0, 0, 0);
        for seed in 0..3u64 {
            let mut tree = BTree::new(strategy, 16).unwrap();
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fuzzy_masters = BTreeSet::new();
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
                    _ => match rng.gen_range(0..10) {
                        0..=1 => tree.checkpoint().unwrap(),
                        2..=5 => {
                            // The tree's fuzzy checkpoint is a call on
                            // its `db`, chaining deltas like any other.
                            let last = tree.db.log.last_lsn();
                            let ck = redo::checkpoint_fuzzy(&mut tree.db, 4).unwrap().unwrap();
                            if ck > last {
                                fuzzy_masters.insert(ck);
                                let rec = tree.db.log.record_at_lsn(ck).unwrap().unwrap();
                                let record = rec.payload.as_checkpoint().unwrap();
                                deltas += usize::from(record.is_delta());
                            }
                        }
                        _ => {
                            tree.db.log.flush_all();
                            tree.crash();
                            let master = tree.recover().unwrap().checkpoint_lsn;
                            fuzzy_restarts +=
                                usize::from(master.is_some_and(|ck| fuzzy_masters.contains(&ck)));
                        }
                    },
                }
            }
            truncated += tree.db.log.truncated_bytes();
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
        assert!(
            fuzzy_restarts > 0,
            "{strategy:?}: no restart from a fuzzy master"
        );
        assert!(deltas > 0, "{strategy:?}: no fuzzy master was a delta");
        assert!(
            truncated > 0,
            "{strategy:?}: fuzzy publication truncated nothing"
        );
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

/// One point of the fuzzy-checkpoint sweep: keys 0..60 under chaos
/// flushing, a fuzzy checkpoint taken with dirt outstanding (returned),
/// then keys 60..160 with a further fuzzy checkpoint every 25 and
/// `kind` armed at faultable event `event`; stops at the trip and
/// crashes.
fn fuzzy_tree_crashed_at(strategy: SplitStrategy, event: u64, kind: FaultKind) -> (BTree, Lsn) {
    let mut tree = BTree::new(strategy, 16).unwrap();
    let mut rng = StdRng::seed_from_u64(event);
    for k in 0..60u64 {
        tree.db.chaos_flush(&mut rng, 0.7, 0.4).unwrap();
        tree.insert(k, k + 7).unwrap();
    }
    let dirty = tree.db.pool.dirty_count();
    let first = redo::checkpoint_fuzzy(&mut tree.db, 4).unwrap().unwrap();
    assert!(
        dirty > 0 && tree.db.pool.dirty_count() == dirty,
        "fuzzy: nothing is flushed"
    );
    tree.db.arm_faults(FaultPlan { at: event, kind });
    for k in 60..160u64 {
        let inserted = tree.insert(k, k + 7);
        let flushed = tree.db.chaos_flush(&mut rng, 0.7, 0.4);
        let published = match (k + 1) % 25 {
            0 => redo::checkpoint_fuzzy(&mut tree.db, 4).map(|_| ()),
            _ => Ok(()),
        };
        if tree.db.fault_tripped() {
            break;
        }
        inserted.unwrap();
        flushed.unwrap();
        published.unwrap();
    }
    assert!(
        tree.db.fault_tripped(),
        "event {event} {kind:?} never fired"
    );
    tree.crash();
    (tree, first)
}

#[test]
fn the_tree_recovers_from_fuzzy_and_delta_checkpoints_at_every_fault_point() {
    // The tree takes no checkpoint of its own kind: `BtPayload` carries
    // the one record, and the one publisher chains it. A crash anywhere
    // in the protocol — record torn, master swing suppressed, prefix
    // half archived — restarts from the newest checkpoint that landed.
    let kinds = [FaultKind::Clean, SWEEP_KINDS[0], SWEEP_KINDS[1]];
    for strategy in STRATEGIES {
        for event in 1..=80u64 {
            for kind in kinds {
                let at = format!("{strategy:?} event {event} {kind:?}");
                let (mut tree, first) = fuzzy_tree_crashed_at(strategy, event, kind);
                let stats = tree.recover().unwrap_or_else(|e| panic!("{at}: {e}"));
                assert!(
                    stats.checkpoint_lsn.is_some_and(|ck| ck >= first),
                    "{at}: restarted from {:?}, first checkpoint {first:?}",
                    stats.checkpoint_lsn
                );
                let n = tree.validate().unwrap_or_else(|e| panic!("{at}: {e}"));
                assert!(n >= 60, "{at}: checkpointed keys lost");
                for k in 0..n as u64 {
                    assert_eq!(tree.get(k).unwrap(), Some(k + 7), "{at} key {k}");
                }
            }
        }
    }
}

#[test]
fn the_tree_is_valid_at_every_record_boundary() {
    // A structure modification is one log record, so whatever prefix of
    // the log a crash leaves is a whole number of tree actions: the
    // recovered tree validates and holds every key whose `Insert` made
    // it. Nothing else makes a split atomic in the log — spread over
    // several records, a boundary inside one recovers `Ok` to a tree
    // that cannot find its own keys.
    for strategy in STRATEGIES {
        let mut tree = BTree::new(strategy, 16).unwrap();
        let mut inserts = Vec::new();
        for k in 0..300u64 {
            let key = mix64(k) % 10_000;
            tree.insert(key, k).unwrap();
            inserts.push((tree.db.log.last_lsn(), key, k));
        }
        let records = tree.db.log.last_lsn().0;
        assert!(records > 300, "{strategy:?}: no split was logged");
        for boundary in 1..=records {
            let mut crashed = tree.clone();
            crashed.db.log.flush(Lsn(boundary));
            crashed.crash();
            crashed
                .recover()
                .unwrap_or_else(|e| panic!("{strategy:?} boundary {boundary}: {e}"));
            let durable = inserts.iter().filter(|(lsn, ..)| lsn.0 <= boundary);
            let model: BTreeMap<u64, u64> = durable.map(|&(_, key, v)| (key, v)).collect();
            let n = crashed
                .validate()
                .unwrap_or_else(|e| panic!("{strategy:?} boundary {boundary}: {e}"));
            assert_eq!(n, model.len(), "{strategy:?} boundary {boundary}");
            for (&key, &v) in &model {
                let got = crashed.get(key).unwrap();
                assert_eq!(got, Some(v), "{strategy:?} boundary {boundary} key {key}");
            }
        }
    }
}

#[test]
fn a_half_durable_bootstrap_cannot_exist() {
    // The bootstrap is one record: were the meta page and the root leaf
    // logged apart, a crash with only the first durable would leave a
    // tree whose every later call fails with "descent reached an
    // uninitialized page".
    for strategy in STRATEGIES {
        let mut tree = BTree::new(strategy, 16).unwrap();
        tree.db.log.flush(Lsn(1));
        tree.crash();
        tree.recover().unwrap();
        tree.insert(5, 50).unwrap();
        assert_eq!(tree.get(5).unwrap(), Some(50));
        assert_eq!(tree.validate().unwrap(), 1);
    }
}

#[test]
fn pages_too_small_for_a_node_are_an_error_not_a_panic() {
    let refused = BTree::new(SplitStrategy::Generalized, 5);
    assert!(matches!(refused, Err(SimError::MethodViolation(_))));
    BTree::new(SplitStrategy::Generalized, 6).unwrap();
}

#[test]
fn a_crash_between_the_records_of_one_split_leaves_a_valid_tree() {
    // A split is one log record, so the *log* can no longer stop inside
    // one (the sweep above). What a crash can still separate is the
    // split's four page writes — new node, old node, parent, meta —
    // which install independently: every subset of them the pool agrees
    // to flush must recover to the same tree. 8 keys split the root, 11
    // split a child.
    for strategy in STRATEGIES {
        for keys in [8u64, 11] {
            let mut tree = BTree::new(strategy, 16).unwrap();
            for k in 0..keys - 1 {
                tree.insert(k, k + 7).unwrap();
            }
            tree.checkpoint().unwrap();
            tree.insert(keys - 1, keys + 6).unwrap();
            tree.db.log.flush_all();
            let stable = tree.db.log.stable_lsn();
            let written = tree.db.pool.dirty_pages();
            assert_eq!(written.len(), 4, "{strategy:?} {keys}: not a split");
            for subset in 0..16u32 {
                let mut crashed = tree.clone();
                // Twice: a page Figure 8 held back goes once its
                // prerequisite is on disk.
                for (i, &page) in written.iter().chain(&written).enumerate() {
                    if subset & (1 << (i % 4)) != 0 {
                        let db = &mut crashed.db;
                        let _ = db.pool.flush_page(&mut db.disk, page, stable);
                    }
                }
                crashed.crash();
                crashed.recover().unwrap();
                let n = crashed.validate().unwrap_or_else(|e| {
                    panic!("{strategy:?} {keys} keys, subset {subset:#06b}: {e}")
                });
                assert_eq!(n as u64, keys);
                for k in 0..keys {
                    assert_eq!(crashed.get(k).unwrap(), Some(k + 7), "subset {subset:#06b}");
                }
            }
        }
    }
}

#[test]
fn the_tree_runs_on_whatever_db_it_is_given() {
    // {mem, file} × {1, 4} log shards × pool {4, 8, unbounded} × both
    // strategies, a crash after every insert. A bounded pool steals
    // (forcing the log mid-insert) instead of failing; a sharded log
    // routes a split by every page it writes. File cells are
    // fsync-bound, so they run a fraction of the inserts.
    for backend in [BackendKind::Mem, BackendKind::File] {
        for shards in [1usize, 4] {
            for capacity in [Some(4usize), Some(8), None] {
                for strategy in STRATEGIES {
                    let cell =
                        format!("{backend:?} {shards} shards pool {capacity:?} {strategy:?}");
                    let geometry = Geometry { slots_per_page: 16 };
                    let db = Db::on_sharded(backend, geometry, capacity, shards);
                    let mut tree = BTree::create(db, strategy).unwrap();
                    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
                    let mut rng = StdRng::seed_from_u64(shards as u64);
                    let inserts = if backend == BackendKind::File {
                        40
                    } else {
                        150
                    };
                    for i in 0..inserts {
                        let (k, v) = (mix64(i) % 400, i);
                        tree.insert(k, v).unwrap_or_else(|e| panic!("{cell}: {e}"));
                        let logged = tree.db.log.last_lsn();
                        tree.db.chaos_flush(&mut rng, 0.4, 0.2).unwrap();
                        if logged <= tree.db.log.stable_lsn() {
                            model.insert(k, v);
                        }
                        tree.crash();
                        tree.recover().unwrap_or_else(|e| panic!("{cell}: {e}"));
                        let n = tree.validate().unwrap_or_else(|e| panic!("{cell}: {e}"));
                        assert_eq!(n, model.len(), "{cell} after insert {i}");
                        for (&k, &v) in &model {
                            assert_eq!(tree.get(k).unwrap(), Some(v), "{cell} key {k}");
                        }
                    }
                    assert!(
                        model.len() as u64 * 5 > inserts,
                        "{cell}: too little was durable"
                    );
                }
            }
        }
    }
}
