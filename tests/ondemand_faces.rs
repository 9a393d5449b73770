//! The two faces of the lazy-restart executor — `OnDemandRestart` over
//! a sequential `Db`, `SharedDb::open_on_demand` over the sharded store
//! — held to one standard: whatever is read, in whatever order, while
//! gates remain, and whatever the drained state is, equals sequential
//! recovery of the same crashed image.

use std::collections::BTreeSet;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redo_recovery::methods::concurrent::SharedDb;
use redo_recovery::methods::generalized::Generalized;
use redo_recovery::methods::ondemand::{OnDemand, OnDemandRestart};
use redo_recovery::methods::oprecord::PageOpPayload;
use redo_recovery::methods::RecoveryMethod;
use redo_recovery::sim::backend::BackendKind;
use redo_recovery::sim::db::{Db, Geometry};
use redo_recovery::workload::pages::{Cell, PageId, PageOp, PageOpKind, PageWorkloadSpec, SlotId};

/// One face of the executor, open over a crashed image.
enum Face {
    Sequential(Box<(Db<PageOpPayload>, OnDemandRestart)>),
    Shared(SharedDb),
}

impl Face {
    fn open(image: &Db<PageOpPayload>, shared: bool) -> Face {
        let mut db = image.clone();
        if shared {
            Face::Shared(SharedDb::open_on_demand(db).expect("open on demand"))
        } else {
            let restart = OnDemand::open(&mut db).expect("open");
            Face::Sequential(Box::new((db, restart)))
        }
    }

    fn name(&self) -> &'static str {
        match self {
            Face::Sequential(_) => "OnDemandRestart",
            Face::Shared(_) => "SharedDb::open_on_demand",
        }
    }

    fn read(&mut self, cell: Cell) -> u64 {
        match self {
            Face::Sequential(open) => {
                let (db, restart) = &mut **open;
                restart.read_cell(db, cell).expect("read")
            }
            Face::Shared(shared) => shared.read_cell(cell).expect("read"),
        }
    }

    /// One sweeper step; `false` once no gate remains.
    fn sweep(&mut self) -> bool {
        match self {
            Face::Sequential(open) => {
                let (db, restart) = &mut **open;
                restart.sweep_one(db).expect("sweep")
            }
            Face::Shared(shared) => shared.recovery_tick().expect("recovery tick"),
        }
    }

    /// Makes the drained state durable — commit, flush every page —
    /// then crashes and recovers sequentially.
    fn recrash_and_recover(self) -> Db<PageOpPayload> {
        let mut db = match self {
            Face::Sequential(open) => {
                let (mut db, restart) = *open;
                restart.finish(&mut db).expect("drain");
                db.flush_everything().expect("flush");
                db.crash();
                db
            }
            Face::Shared(shared) => {
                while shared.recovery_tick().expect("recovery tick") {}
                shared.commit_tick();
                let mut rng = StdRng::seed_from_u64(0);
                // Each pass flushes at least the pages no write-order
                // constraint still blocks.
                while shared.restart_estimate().dirty_pages > 0 {
                    shared.flusher_tick(&mut rng, 1.0).expect("flusher tick");
                }
                shared.crash()
            }
        };
        Generalized.recover(&mut db).expect("second recovery");
        db
    }
}

/// Sequential recovery's value for every cell of `cells`.
fn reference(image: &Db<PageOpPayload>, cells: &[Cell]) -> Vec<u64> {
    let mut db = image.clone();
    Generalized.recover(&mut db).expect("sequential recovery");
    let read = |&cell| db.read_cell(cell).expect("read");
    cells.iter().map(read).collect()
}

/// Slot 0 of `page`.
fn cell(page: u32) -> Cell {
    Cell {
        page: PageId(page),
        slot: SlotId(0),
    }
}

/// A hand-built operation whose function is seeded by its id.
fn op(id: u32, kind: PageOpKind, reads: Vec<Cell>, writes: Vec<Cell>) -> PageOp {
    PageOp {
        id,
        kind,
        reads,
        writes,
        f_seed: u64::from(id) + 1,
    }
}

/// Every cell of the first `n_pages` pages.
fn every_cell(n_pages: u32) -> Vec<Cell> {
    let slots = Geometry::default().slots_per_page;
    let page = |p| {
        (0..slots).map(move |s| Cell {
            page: PageId(p),
            slot: SlotId(s),
        })
    };
    (0..n_pages).flat_map(page).collect()
}

#[test]
fn a_reader_replays_before_the_later_writer_of_what_it_read() {
    // p ← blind; r ← g(p); p ← f(p) — committed, nothing flushed. The
    // middle record reads p and writes only r, so p's writer chain
    // never names it: a closure chased through writer chains alone
    // replays p to its final value first and then computes r from the
    // future (and, flushed, that r is durable for good).
    let (p, r) = (cell(0), cell(1));
    let ops = [
        op(0, PageOpKind::Blind, vec![], vec![p]),
        op(1, PageOpKind::Generalized, vec![p], vec![r]),
        op(2, PageOpKind::Physiological, vec![p], vec![p]),
    ];
    let mut image: Db<PageOpPayload> = Db::new(Geometry::default());
    for op in &ops {
        OnDemand.execute(&mut image, op).expect("execute");
    }
    image.log.flush_all();
    image.crash();
    let cells = [p, r];
    let expect = reference(&image, &cells);

    for shared in [false, true] {
        // (a) p first, then r; (b) nothing but the sweeper, which
        // drains p's page before r's.
        for reads_first in [true, false] {
            let mut face = Face::open(&image, shared);
            let how = format!("{}, reads first: {reads_first}", face.name());
            if reads_first {
                let served: Vec<u64> = cells.iter().map(|&c| face.read(c)).collect();
                assert_eq!(served, expect, "mid-recovery reads ({how})");
            }
            while face.sweep() {}
            let drained: Vec<u64> = cells.iter().map(|&c| face.read(c)).collect();
            assert_eq!(drained, expect, "drained state ({how})");
            // (c) what the lazy replay computed is what a flush makes
            // durable and a second recovery keeps.
            let mut again = face.recrash_and_recover();
            let kept: Vec<u64> = (cells.iter())
                .map(|&c| again.read_cell(c).expect("read"))
                .collect();
            assert_eq!(kept, expect, "after flush, crash and recovery ({how})");
        }
    }
}

#[test]
fn a_write_after_open_waits_for_the_residual_reader_of_the_old_value() {
    // x ← blind, committed, flushed and checkpointed, so restart owes x
    // nothing; g ← f(x), committed and unflushed. Restart owes g, and
    // its replay reads x: x is exposed to that residual reader, so a
    // write to x after the open must wait until g has replayed, or g is
    // computed from the new x.
    let (x, g) = (cell(0), cell(1));
    let live = SharedDb::new(Geometry::default());
    live.execute(&op(0, PageOpKind::Blind, vec![], vec![x]))
        .expect("execute");
    live.commit_tick();
    let mut rng = StdRng::seed_from_u64(0);
    while live.restart_estimate().dirty_pages > 0 {
        live.flusher_tick(&mut rng, 1.0).expect("flusher tick");
    }
    live.checkpoint_tick(0).expect("checkpoint");
    live.execute(&op(1, PageOpKind::Generalized, vec![x], vec![g]))
        .expect("execute");
    live.commit_tick();
    let image = live.crash();
    let expect = reference(&image, &[g]);

    let lazy = SharedDb::open_on_demand(image).expect("open on demand");
    lazy.execute(&op(3, PageOpKind::Blind, vec![], vec![x]))
        .expect("execute mid-recovery");
    assert_eq!(
        lazy.read_cell(g).expect("read"),
        expect[0],
        "g from the old x"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cross-page-heavy traffic on 1 or 4 log shards under chaos
    /// flushes and online checkpoints, crashed, and sometimes one
    /// durable page destroyed before either face opens: every durable
    /// cell served mid-recovery in a random order, through either face,
    /// already holds sequential recovery's value for the undamaged
    /// image, and so does the drained state. A demand reads its
    /// records in place from whichever shard images hold them.
    #[test]
    fn any_serving_order_through_either_face_matches_sequential_recovery(
        seed in any::<u64>(),
        n_ops in 20usize..70,
        checkpoint_every in 5usize..20,
        victim in prop::option::of(any::<prop::sample::Index>()),
        four_shards in any::<bool>(),
    ) {
        let ops = PageWorkloadSpec {
            n_ops,
            n_pages: 6,
            cross_page_fraction: 0.6,
            multi_page_fraction: 0.15,
            blind_fraction: 0.1,
            ..Default::default()
        }
        .generate(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let log_shards = if four_shards { 4 } else { 1 };
        let mut image: Db<PageOpPayload> =
            Db::on_sharded(BackendKind::Mem, Geometry::default(), None, log_shards);
        let mut logged = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            logged.push((OnDemand.execute(&mut image, op).unwrap(), op));
            image.chaos_flush(&mut rng, 0.6, 0.3).unwrap();
            if (i + 1) % checkpoint_every == 0 {
                OnDemand.checkpoint(&mut image).unwrap();
            }
        }
        image.crash();
        let stable = image.log.stable_lsn();
        let durable = logged.iter().filter(|(lsn, _)| *lsn <= stable);
        let mut cells: Vec<Cell> = durable
            .flat_map(|(_, op)| op.writes.iter().copied())
            .collect::<BTreeSet<Cell>>()
            .into_iter()
            .collect();
        for i in (1..cells.len()).rev() {
            cells.swap(i, rng.gen_range(0..=i));
        }
        let expect = reference(&image, &cells);
        let mut damaged = image.clone();
        let pages = image.disk.pages();
        if let Some(victim) = victim.filter(|_| !pages.is_empty()) {
            damaged.disk.destroy_page(pages[victim.index(pages.len())].0);
            damaged.crash();
        }
        for shared in [false, true] {
            let mut face = Face::open(&damaged, shared);
            let served: Vec<u64> = cells.iter().map(|&c| face.read(c)).collect();
            prop_assert_eq!(&served, &expect, "mid-recovery reads ({})", face.name());
            while face.sweep() {}
            let drained: Vec<u64> = cells.iter().map(|&c| face.read(c)).collect();
            prop_assert_eq!(&drained, &expect, "drained state ({})", face.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Blind-heavy new operations executed through `SharedDb` while
    /// recovery is still in progress — no sweep between them — then a
    /// drain: every cell equals sequential recovery followed by the same
    /// operations. A new write must not overwrite a page before the
    /// residual records that read it have replayed.
    #[test]
    fn writes_executed_mid_recovery_land_where_recovery_then_execution_does(
        seed in any::<u64>(),
        n_ops in 10usize..50,
        n_new in 1usize..12,
        checkpoint_every in 3usize..12,
    ) {
        let n_pages = 5;
        let ops = PageWorkloadSpec {
            n_ops,
            n_pages,
            cross_page_fraction: 0.6,
            multi_page_fraction: 0.1,
            blind_fraction: 0.1,
            ..Default::default()
        }
        .generate(seed);
        let new_ops = PageWorkloadSpec {
            n_ops: n_new,
            n_pages,
            cross_page_fraction: 0.2,
            blind_fraction: 0.7,
            ..Default::default()
        }
        .generate(seed ^ 0x0dd);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let mut image: Db<PageOpPayload> = Db::new(Geometry::default());
        for (i, op) in ops.iter().enumerate() {
            OnDemand.execute(&mut image, op).unwrap();
            image.chaos_flush(&mut rng, 0.6, 0.5).unwrap();
            if (i + 1) % checkpoint_every == 0 {
                OnDemand.checkpoint(&mut image).unwrap();
            }
        }
        image.crash();
        let mut expect = image.clone();
        Generalized.recover(&mut expect).unwrap();
        for op in &new_ops {
            Generalized.execute(&mut expect, op).unwrap();
        }
        let shared = SharedDb::open_on_demand(image).unwrap();
        for op in &new_ops {
            shared.execute(op).unwrap();
        }
        while shared.recovery_tick().unwrap() {}
        for c in every_cell(n_pages) {
            prop_assert_eq!(
                shared.read_cell(c).unwrap(),
                expect.read_cell(c).unwrap(),
                "cell {:?}",
                c
            );
        }
    }
}
