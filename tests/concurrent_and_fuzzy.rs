//! Integration coverage for the concurrency layer and fuzzy checkpoints
//! through the public umbrella API.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use redo_recovery::methods::concurrent::SharedDb;
use redo_recovery::methods::generalized::Generalized;
use redo_recovery::methods::online::GeneralizedOnline;
use redo_recovery::methods::oprecord::PageOpPayload;
use redo_recovery::methods::RecoveryMethod;
use redo_recovery::sim::db::{Db, Geometry};
use redo_recovery::theory::log::Lsn;
use redo_recovery::workload::pages::{Cell, PageOp, PageWorkloadSpec};

fn log_model(db: &Db<PageOpPayload>) -> BTreeMap<Cell, u64> {
    let mut cells: BTreeMap<Cell, u64> = BTreeMap::new();
    let stable = db.log.pit_records(db.log.stable_lsn());
    for rec in stable.expect("log intact") {
        let PageOpPayload::Op(op) = rec.payload else {
            continue;
        };
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

#[test]
fn concurrent_workers_with_multi_page_ops_recover_to_log_serialization() {
    for seed in 0..3u64 {
        let shared = SharedDb::new(Geometry { slots_per_page: 8 });
        let n_threads = 6usize;
        std::thread::scope(|s| {
            for t in 0..n_threads {
                let db = shared.clone();
                s.spawn(move || {
                    let ops = PageWorkloadSpec {
                        n_ops: 20,
                        n_pages: 5,
                        cross_page_fraction: 0.2,
                        multi_page_fraction: 0.3,
                        blind_fraction: 0.2,
                        ..Default::default()
                    }
                    .generate(seed ^ ((t as u64) << 40));
                    for mut op in ops {
                        op.id = op.id * n_threads as u32 + t as u32;
                        db.execute(&op).expect("execute");
                    }
                });
            }
        });
        shared.shutdown();
        shared.commit_tick();
        let mut db = shared.crash();
        Generalized.recover(&mut db).expect("recover");
        for (cell, v) in log_model(&db) {
            assert_eq!(
                db.read_cell(cell).expect("read"),
                v,
                "seed {seed} cell {cell:?}"
            );
        }
    }
}

#[test]
fn concurrent_log_order_is_conflict_consistent() {
    // Lemma 1's requirement on logs, checked on a real concurrent
    // execution: project the stable log into a theory history and
    // validate the log order against its own conflict graph.
    use redo_recovery::theory::conflict::ConflictGraph;
    use redo_recovery::theory::history::History;
    use redo_recovery::theory::log::Log;

    let shared = SharedDb::new(Geometry { slots_per_page: 8 });
    std::thread::scope(|s| {
        for t in 0..4usize {
            let db = shared.clone();
            s.spawn(move || {
                let ops = PageWorkloadSpec {
                    n_ops: 25,
                    n_pages: 4,
                    cross_page_fraction: 0.3,
                    ..Default::default()
                }
                .generate(5 ^ ((t as u64) << 40));
                for mut op in ops {
                    op.id = op.id * 4 + t as u32;
                    db.execute(&op).expect("execute");
                }
            });
        }
    });
    shared.shutdown();
    shared.commit_tick();
    let db = shared.crash();
    let records = db.log.pit_records(db.log.stable_lsn());
    let records = records.expect("log intact");
    let ops_in_log_order: Vec<PageOp> = records
        .iter()
        .filter_map(|r| match &r.payload {
            PageOpPayload::Op(op) => Some(op.clone()),
            _ => None,
        })
        .collect();
    // Renumber by log position and regenerate: the log order must be a
    // linear extension of its own conflict graph (trivially true for a
    // sequence-generated graph, but the *content* check is that the log
    // is a total function of the leased execution: no record lost, no
    // duplicate ids).
    let mut seen = std::collections::BTreeSet::new();
    for op in &ops_in_log_order {
        assert!(seen.insert(op.id), "duplicate op id {} in log", op.id);
    }
    assert_eq!(seen.len(), 100);
    let h = History::renumbering(
        ops_in_log_order
            .iter()
            .map(|op| op.to_operation(8))
            .collect(),
    );
    let cg = ConflictGraph::generate(&h);
    Log::from_history(&h)
        .validate_against(&cg)
        .expect("log order conflict-consistent");
}

#[test]
fn fuzzy_checkpoints_survive_crash_storms() {
    for seed in 0..4u64 {
        let mut db: Db<_> = Db::new(Geometry { slots_per_page: 8 });
        let ops = PageWorkloadSpec {
            n_ops: 90,
            n_pages: 6,
            ..Default::default()
        }
        .generate(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut durable: Vec<(PageOp, Lsn)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let lsn = GeneralizedOnline.execute(&mut db, op).expect("execute");
            durable.push((op.clone(), lsn));
            db.chaos_flush(&mut rng, 0.7, 0.3).unwrap();
            if i % 9 == 8 {
                GeneralizedOnline.checkpoint(&mut db).expect("checkpoint");
            }
            if i % 31 == 30 {
                let stable = db.log.stable_lsn();
                db.crash();
                GeneralizedOnline.recover(&mut db).expect("recover");
                durable.retain(|(_, l)| *l <= stable);
            }
        }
        // Verify against the durable model.
        let mut cells: BTreeMap<Cell, u64> = BTreeMap::new();
        for (op, _) in &durable {
            let reads: Vec<u64> = op
                .reads
                .iter()
                .map(|c| cells.get(c).copied().unwrap_or(0))
                .collect();
            for &w in &op.writes {
                cells.insert(w, op.output(w, &reads));
            }
        }
        for (cell, v) in cells {
            assert_eq!(db.read_cell(cell).expect("read"), v, "seed {seed}");
        }
    }
}

#[test]
fn fuzzy_analysis_is_cheaper_than_full_scan_but_never_wrong() {
    let mut db: Db<_> = Db::new(Geometry { slots_per_page: 8 });
    let ops = PageWorkloadSpec {
        n_ops: 120,
        n_pages: 8,
        ..Default::default()
    }
    .generate(9);
    let mut rng = StdRng::seed_from_u64(9);
    for (i, op) in ops.iter().enumerate() {
        GeneralizedOnline.execute(&mut db, op).expect("execute");
        db.chaos_flush(&mut rng, 0.9, 0.5).unwrap();
        if i % 20 == 19 {
            GeneralizedOnline.checkpoint(&mut db).expect("checkpoint");
        }
    }
    db.log.flush_all();
    db.crash();
    let analysis = Generalized::analyze_dpt(&db).expect("analysis");
    assert!(analysis.checkpoint_lsn.is_some());
    assert!(analysis.redo_start > Lsn(1), "{analysis:?}");
    let stats = GeneralizedOnline.recover(&mut db).expect("recover");
    assert!(
        stats.scanned < 126,
        "analysis must bound the scan: {stats:?}"
    );
    // Full functional check.
    let mut cells: BTreeMap<Cell, u64> = BTreeMap::new();
    for op in &ops {
        let reads: Vec<u64> = op
            .reads
            .iter()
            .map(|c| cells.get(c).copied().unwrap_or(0))
            .collect();
        for &w in &op.writes {
            cells.insert(w, op.output(w, &reads));
        }
    }
    for (cell, v) in cells {
        assert_eq!(db.read_cell(cell).expect("read"), v);
    }
}
