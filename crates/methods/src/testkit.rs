//! Shared fixtures for the crate's unit tests: seeded workloads of the
//! shapes the methods admit, and the sequential model every recovered
//! database is compared against.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use redo_sim::backend::BackendKind;
use redo_sim::db::{Db, Geometry};
use redo_sim::wal::LogPayload;
use redo_workload::pages::{Cell, PageId, PageOp, PageOpKind, PageWorkloadSpec, SlotId};

use crate::RecoveryMethod;

/// `n` single-page read-modify-write operations — the shape every
/// operation-logging method admits.
pub(crate) fn single_page_workload(n: usize, n_pages: u32, seed: u64) -> Vec<PageOp> {
    PageWorkloadSpec {
        n_ops: n,
        n_pages,
        ..Default::default()
    }
    .generate(seed)
}

/// `n` blind writes — the shape physical logging admits.
pub(crate) fn blind_workload(n: usize, n_pages: u32, seed: u64) -> Vec<PageOp> {
    PageWorkloadSpec {
        n_ops: n,
        n_pages,
        blind_fraction: 1.0,
        ..Default::default()
    }
    .generate(seed)
}

/// `n` operations of the generalized mix: cross-page reads (the
/// B-tree-split shape), multi-page write sets, and a few blind writes.
pub(crate) fn cross_page_workload(n: usize, n_pages: u32, seed: u64) -> Vec<PageOp> {
    PageWorkloadSpec {
        n_ops: n,
        n_pages,
        cross_page_fraction: 0.4,
        multi_page_fraction: 0.2,
        blind_fraction: 0.1,
        ..Default::default()
    }
    .generate(seed)
}

/// The Figure 8 shape, with `x` = page 0 slot 0 and `y` = page 1 slot 0:
/// a blind write seeding `x`; `P`, which reads `x` and writes `y`; and
/// `Q`, which overwrites `x` — so `x`'s new value must not reach disk
/// before `y` does, and `x`'s *final* image is the wrong thing for a
/// replay of `P` to read.
pub(crate) fn figure8_ops() -> [PageOp; 3] {
    let cell = |page| Cell {
        page: PageId(page),
        slot: SlotId(0),
    };
    let op = |id, kind, reads, writes| PageOp {
        id,
        kind,
        reads,
        writes,
        f_seed: u64::from(id) + 1,
    };
    let (x, y) = (cell(0), cell(1));
    [
        op(0, PageOpKind::Blind, vec![], vec![x]),
        op(1, PageOpKind::Generalized, vec![x], vec![y]),
        op(2, PageOpKind::Physiological, vec![x], vec![x]),
    ]
}

/// The cell values `ops` produce when executed in order from a zeroed
/// store.
pub(crate) fn model(ops: &[PageOp]) -> BTreeMap<Cell, u64> {
    let mut cells = BTreeMap::new();
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

/// Asserts `db` reads back exactly [`model`]`(ops)`.
pub(crate) fn assert_matches_model<P: LogPayload>(db: &mut Db<P>, ops: &[PageOp]) {
    for (c, v) in model(ops) {
        assert_eq!(db.read_cell(c).unwrap(), v, "cell {c:?}");
    }
}

/// Runs `ops` under `method` with seeded chaos flushes (where the
/// method allows them) and a checkpoint after every `checkpoint_every`
/// operations, forces the log, and crashes.
pub(crate) fn crashed_db<M: RecoveryMethod>(
    method: &M,
    ops: &[PageOp],
    seed: u64,
    checkpoint_every: Option<usize>,
) -> Db<M::Payload> {
    crashed_db_sharded(method, ops, seed, checkpoint_every, 1)
}

/// [`crashed_db`] over a log split into `log_shards` partitions.
pub(crate) fn crashed_db_sharded<M: RecoveryMethod>(
    method: &M,
    ops: &[PageOp],
    seed: u64,
    checkpoint_every: Option<usize>,
    log_shards: usize,
) -> Db<M::Payload> {
    let mut db = Db::on_sharded(BackendKind::Mem, Geometry::default(), None, log_shards);
    let mut rng = StdRng::seed_from_u64(seed);
    let page_p = if method.allows_page_chaos() { 0.4 } else { 0.0 };
    for (i, op) in ops.iter().enumerate() {
        method.execute(&mut db, op).unwrap();
        db.chaos_flush(&mut rng, 0.7, page_p).unwrap();
        if checkpoint_every.is_some_and(|k| (i + 1) % k == 0) {
            method.checkpoint(&mut db).unwrap();
        }
    }
    db.log.flush_all();
    db.crash();
    db
}
