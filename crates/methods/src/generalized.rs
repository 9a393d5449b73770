//! Generalized LSN-based recovery (§6.4).
//!
//! Physiological operations read only the page they write. Generalized
//! operations relax that: they may *read other pages* while still writing
//! a single page atomically. §6.4's motivating example is the efficient
//! B-tree split — "read the old full page x, write a new page y with half
//! the contents" — which avoids physically logging the moved keys.
//!
//! The price is a *careful write order*: once such an operation `O`
//! (read `x`, write `y`, LSN `L`) exists, a later overwrite of `x` must
//! not reach disk before `y` does. Otherwise a crash could leave `y`
//! missing while the only copy of what `O` read has been destroyed —
//! `O` must be replayed but is no longer applicable. In write-graph
//! terms this is the read-write installation edge from `O` to `x`'s next
//! writer (Figure 8); operationally it is a buffer-pool
//! [constraint](redo_sim::cache::Constraint): "flushing `x` past LSN `L`
//! requires `y` durable at ≥ `L`".
//!
//! The redo test is the page-LSN test on the (single) written page, as in
//! physiological recovery; when an operation replays, its reads go
//! through the recovery cache, which at that point reflects exactly the
//! updates preceding it — the constraint guarantees the disk never got
//! ahead.

use redo_sim::cache::Constraint;
use redo_sim::db::Db;
use redo_sim::{SimError, SimResult};
use redo_theory::log::Lsn;
use redo_workload::pages::{Footprint, OpCells, PageId, PageOp};

use crate::oprecord::PageOpPayload;
use crate::redo::{self, RestartAnalysis};
use crate::{RecoveryMethod, RecoveryStats};

/// The generalized LSN-based recovery method.
#[derive(Clone, Copy, Debug, Default)]
pub struct Generalized;

fn check_shape(op: &PageOp) -> SimResult<()> {
    // Single-page write sets install atomically via the page write;
    // multi-page write sets (§5's "update sets of variables atomically")
    // are admitted too — execute() binds them into an atomic flush
    // group, so the whole write set still installs as one unit.
    if op.writes.is_empty() {
        return Err(SimError::MethodViolation(
            "generalized LSN operations must write at least one page",
        ));
    }
    Ok(())
}

/// The write ordering an operation at `lsn` imposes on whichever cache
/// holds its pages: one constraint per (cross-read page, written page)
/// — every write page must be durable before a later overwrite of the
/// read page reaches disk. (The written pages themselves a multi-page
/// write set binds into an atomic flush group, so the whole set
/// installs as one unit.) Nothing at all for the operation that writes
/// one page and reads no other.
pub(crate) fn write_order(fp: &Footprint, lsn: Lsn) -> impl Iterator<Item = Constraint> + '_ {
    fp.cross_reads.iter().flat_map(move |&blocked| {
        fp.written.iter().map(move |&requires| Constraint {
            blocked,
            blocked_above: lsn,
            requires,
            required_lsn: lsn,
        })
    })
}

pub(crate) fn register_constraints(db: &mut Db<PageOpPayload>, fp: &Footprint, lsn: Lsn) {
    for c in write_order(fp, lsn) {
        db.pool.add_constraint_subsuming(c);
    }
    db.pool.add_atomic_group(fp.written.iter().copied(), lsn);
}

/// Would this operation's constraints (and atomic group) close a cycle
/// in the flush-order graph ([`redo_sim::cache::BufferPool::would_cycle`])?
///
/// Most operations cannot: one that writes a single page and reads
/// nothing else registers no constraint and binds no group, so the
/// graph it leaves is the acyclic graph it found, and the answer is
/// `false` without looking at the graph at all.
#[cfg_attr(not(test), allow(unused_variables))]
pub(crate) fn would_cycle(db: &Db<PageOpPayload>, op: &impl OpCells, fp: &Footprint) -> bool {
    let cycle = (fp.written.len() > 1 || !fp.cross_reads.is_empty())
        && db.pool.would_cycle(&db.disk, &fp.written, &fp.cross_reads);
    #[cfg(test)]
    oracle::check(db, op, cycle);
    cycle
}

/// The whole-graph decision [`would_cycle`] replaced — rebuild the
/// quotient graph from every constraint and group, add the operation's
/// edges, topologically sort — kept to check the probe against on every
/// call the crate's tests make.
#[cfg(test)]
mod oracle {
    use std::collections::BTreeMap;

    use redo_sim::db::Db;
    use redo_workload::pages::{Cell, OpCells, PageId};

    use crate::oprecord::PageOpPayload;

    fn find(parent: &mut BTreeMap<PageId, PageId>, x: PageId) -> PageId {
        let p = *parent.entry(x).or_insert(x);
        if p == x {
            return x;
        }
        let root = find(parent, p);
        parent.insert(x, root);
        root
    }

    fn union(parent: &mut BTreeMap<PageId, PageId>, a: PageId, b: PageId) {
        let (ra, rb) = (find(parent, a), find(parent, b));
        if ra != rb {
            parent.insert(ra, rb);
        }
    }

    /// The distinct pages of `cells`, ascending.
    fn pages(cells: impl Iterator<Item = Cell>) -> Vec<PageId> {
        let mut pages: Vec<PageId> = cells.map(|cell| cell.page).collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// The distinct `(requires, blocked)` pairs of the write-order
    /// constraints still pending — the required copy not yet on disk —
    /// sorted.
    fn pending_constraints(db: &Db<PageOpPayload>) -> Vec<(PageId, PageId)> {
        let mut pending: Vec<(PageId, PageId)> = (db.pool.constraints().into_iter())
            .filter(|c| db.disk.page_lsn(c.requires) < c.required_lsn)
            .map(|c| (c.requires, c.blocked))
            .collect();
        pending.sort_unstable();
        pending.dedup();
        pending
    }

    /// The quotient flush-order graph over the `pending` constraints as
    /// it stands, or — with an operation's written and read pages — as
    /// it would stand once it registered.
    fn quotient_edges(
        db: &Db<PageOpPayload>,
        pending: &[(PageId, PageId)],
        op: Option<(&[PageId], &[PageId])>,
    ) -> Vec<(PageId, PageId)> {
        // Union-find over pages: identify members of active groups and
        // of the new op's write set.
        let mut parent = BTreeMap::new();
        for g in db.pool.atomic_groups() {
            if g.pages.iter().any(|&p| db.disk.page_lsn(p) < g.lsn) {
                let first = *g.pages.first().expect("groups have two members or more");
                for &m in &g.pages {
                    union(&mut parent, first, m);
                }
            }
        }
        let (written, reads) = op.unwrap_or_default();
        for pair in written.windows(2) {
            union(&mut parent, pair[0], pair[1]);
        }
        let mut edges = Vec::new();
        for &(requires, blocked) in pending {
            edges.push((find(&mut parent, requires), find(&mut parent, blocked)));
        }
        for r in reads {
            if !written.contains(r) {
                edges.push((find(&mut parent, written[0]), find(&mut parent, *r)));
            }
        }
        edges
    }

    /// Kahn's algorithm over the distinct edges, sorted, so each
    /// node's out-edges are one run found by a binary search; a
    /// self-loop (an edge whose endpoints were identified) is a cycle.
    fn has_cycle(edges: &[(PageId, PageId)]) -> bool {
        let mut edges = edges.to_vec();
        edges.sort_unstable();
        edges.dedup();
        if edges.iter().any(|&(a, b)| a == b) {
            return true;
        }
        let mut indeg: BTreeMap<PageId, usize> = BTreeMap::new();
        for &(a, b) in &edges {
            indeg.entry(a).or_insert(0);
            *indeg.entry(b).or_insert(0) += 1;
        }
        let mut ready: Vec<PageId> = indeg
            .iter()
            .filter(|(_, &d)| d == 0)
            .map(|(&n, _)| n)
            .collect();
        let mut seen = 0usize;
        while let Some(n) = ready.pop() {
            seen += 1;
            let from = edges.partition_point(|&(a, _)| a < n);
            for &(_, b) in edges[from..].iter().take_while(|&&(a, _)| a == n) {
                let d = indeg.get_mut(&b).expect("inserted");
                *d -= 1;
                if *d == 0 {
                    ready.push(b);
                }
            }
        }
        seen != indeg.len()
    }

    pub(super) fn check(db: &Db<PageOpPayload>, op: &impl OpCells, probe: bool) {
        let pending = pending_constraints(db);
        assert!(
            !has_cycle(&quotient_edges(db, &pending, None)),
            "the probe's precondition: the standing flush-order graph is acyclic (before op {})",
            op.id()
        );
        let (written, reads) = (pages(op.writes()), pages(op.reads()));
        assert_eq!(
            probe,
            has_cycle(&quotient_edges(db, &pending, Some((&written, &reads)))),
            "reachability probe and whole-graph sort disagree on op {}",
            op.id()
        );
    }
}

impl Generalized {
    /// The analysis step — [`redo::analyze`] over the operation log:
    /// redo-start, checkpoint in force, and the fuzzy checkpoint's
    /// dirty-page table, which a partitioned restart scheduler routes
    /// records by straight off the scan
    /// ([`RestartAnalysis::provably_installed`]).
    ///
    /// # Errors
    ///
    /// Log corruption at the master record.
    pub fn analyze_dpt(db: &Db<PageOpPayload>) -> SimResult<RestartAnalysis> {
        redo::analyze(db)
    }
}

/// The generalized redo test, over the whole write set `written`: is
/// the operation logged at `lsn` uninstalled? `page_lsn` answers with
/// the LSN of the caller's cached copy of a page, fetching it on a miss.
/// The atomic flush group guarantees all written pages agree (all
/// installed or none), so any stale page means the operation is
/// uninstalled.
///
/// # Errors
///
/// Whatever `page_lsn` returns.
pub(crate) fn write_set_is_stale(
    written: &[PageId],
    lsn: Lsn,
    mut page_lsn: impl FnMut(PageId) -> SimResult<Lsn>,
) -> SimResult<bool> {
    let mut stale = false;
    let mut fresh = false;
    for &page in written {
        if page_lsn(page)? < lsn {
            stale = true;
        } else {
            fresh = true;
        }
    }
    debug_assert!(
        !(stale && fresh),
        "atomic group violated: write set of the operation at {lsn:?} part-installed"
    );
    Ok(stale)
}

/// The generalized method's per-record step over a sequential [`Db`],
/// shared by the serial scan (which hands it the operation read in
/// place from its record) and on-demand replay (an owned one): the
/// redo test, then — if the operation is uninstalled — replay with its
/// write-order constraints re-imposed. The operation's pages are named
/// once, here. Returns whether the operation replayed.
///
/// # Errors
///
/// Substrate errors from fetching or flushing pages.
pub(crate) fn redo_op(db: &mut Db<PageOpPayload>, lsn: Lsn, op: &impl OpCells) -> SimResult<bool> {
    let fp = op.footprint();
    let stale = write_set_is_stale(&fp.written, lsn, |page| {
        let (stable, spp) = (db.log.stable_lsn(), db.geometry.slots_per_page);
        let cached = db.pool.fetch(&mut db.disk, page, spp, stable)?;
        Ok(cached.lsn())
    })?;
    if stale {
        // The replayed operation re-imposes its write ordering on
        // post-recovery cache management, with the same pre-resolution
        // of would-be cycles as normal execution.
        if would_cycle(db, op, &fp) {
            let stable = db.log.stable_lsn();
            db.pool.flush_all(&mut db.disk, stable)?;
        }
        db.apply_page_op_on(op, lsn, &fp.touched)?;
        register_constraints(db, &fp, lsn);
    }
    Ok(stale)
}

impl RecoveryMethod for Generalized {
    type Payload = PageOpPayload;

    fn name(&self) -> &'static str {
        "generalized-lsn"
    }

    fn execute(&self, db: &mut Db<PageOpPayload>, op: &PageOp) -> SimResult<Lsn> {
        check_shape(op)?;
        let fp = op.footprint();
        if would_cycle(db, op, &fp) {
            // Pre-resolution: the op's constraints/group would close a
            // cycle in the flush-order quotient graph, after which the
            // single-copy cache could never flush legally. Discharge the
            // standing constraints first — the pre-op graph is acyclic,
            // so a full constraint-ordered flush always succeeds — and
            // only then admit the op. (A finer cache manager would flush
            // just the entangled pages; correctness only needs *some*
            // discharge.)
            db.log.flush_all();
            let stable = db.log.stable_lsn();
            db.pool.flush_all(&mut db.disk, stable)?;
        }
        let lsn = db.log.append(PageOpPayload::Op(op.clone()))?;
        db.apply_page_op_on(op, lsn, &fp.touched)?;
        register_constraints(db, &fp, lsn);
        Ok(lsn)
    }

    fn checkpoint(&self, db: &mut Db<PageOpPayload>) -> SimResult<()> {
        // Write-graph acyclicity guarantees the constraint-ordered
        // flush terminates.
        redo::checkpoint_heavyweight(db)
    }

    fn recover(&self, db: &mut Db<PageOpPayload>) -> SimResult<RecoveryStats> {
        // Each batch prefetches the read+write footprint of its
        // operations (replay reads go through the recovery cache too).
        redo::recover_ops(db, |db, lsn, op| redo_op(db, lsn, op))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_matches_model, cross_page_workload, figure8_ops};
    use redo_sim::db::Geometry;
    use redo_workload::pages::{Cell, PageId, PageOpKind, SlotId};

    #[test]
    fn probe_agrees_with_the_whole_graph_sort_on_every_reachable_state() {
        // Every `would_cycle` call — the tally's, `execute`'s and, after
        // the crash, `redo_op`'s — checks its verdict (and the acyclic
        // standing graph the probe assumes) against `oracle`. Cross-page
        // reads, multi-page write sets and chaos flushes between them
        // walk the graph through edges, identifications and discharges;
        // a small bounded pool adds flushes forced by eviction.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let (mut cycles, mut clear) = (0, 0);
        for seed in 0..32u64 {
            let ops = cross_page_workload(120, 5, seed);
            let capacity = (seed % 2 == 1).then_some(4);
            let mut db = Db::with_capacity(Geometry::default(), capacity);
            let mut rng = StdRng::seed_from_u64(seed);
            for op in &ops {
                if would_cycle(&db, op, &op.footprint()) {
                    cycles += 1;
                } else {
                    clear += 1;
                }
                Generalized.execute(&mut db, op).unwrap();
                db.chaos_flush(&mut rng, 0.5, 0.3).unwrap();
            }
            db.log.flush_all();
            db.crash();
            Generalized.recover(&mut db).unwrap();
            assert_matches_model(&mut db, &ops);
        }
        assert!(
            cycles > 50 && clear > 50,
            "{cycles} / {clear}: both verdicts must be exercised"
        );
    }

    /// Everything a bounded-pool recovery decided, folded into one
    /// FNV-1a value: the disk image (what was flushed, by eviction and
    /// pre-resolution), the pool (what was evicted), the dirty-page
    /// table, the verdicts in order, and the page-write count.
    fn decisions_digest(db: &Db<PageOpPayload>, stats: &RecoveryStats) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |v: u64| {
            for byte in v.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let mut fold_page = |id: PageId, page: &redo_sim::page::Page| {
            fold(u64::from(id.0));
            fold(page.lsn().0);
            page.slots().iter().for_each(|&v| fold(v));
        };
        for (id, page) in db.disk.pages() {
            fold_page(id, &page);
        }
        for id in db.pool.cached_pages() {
            fold_page(id, db.pool.get(id).unwrap());
        }
        for (id, rec_lsn) in db.pool.dirty_page_table() {
            fold(u64::from(id.0));
            fold(rec_lsn.0);
        }
        fold(stats.scanned as u64);
        stats.replayed.iter().for_each(|&id| fold(u64::from(id)));
        fold(u64::MAX);
        stats.skipped.iter().for_each(|&id| fold(u64::from(id)));
        fold(db.disk.page_writes());
        hash
    }

    /// The constants were computed by this script on the tree whose
    /// pool kept its frames in a `BTreeMap` and whose redo step
    /// re-derived each record's page sets per use: they are what "no
    /// flush, eviction or redo verdict changed" means. Capacity 4 with
    /// steal makes every fetch order and every recency stamp count. They
    /// were re-pinned when an operation's constant took its id into the
    /// high word, which moves slot values only: with the slots left out
    /// of the fold, the three digests were equal before and after.
    #[test]
    fn bounded_pool_recovery_decisions_are_pinned() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let digest = |seed: u64, forward: Option<usize>| {
            let ops = cross_page_workload(240, 24, seed);
            let mut db = Db::with_capacity(Geometry::default(), forward);
            let mut rng = StdRng::seed_from_u64(seed);
            for op in &ops {
                Generalized.execute(&mut db, op).unwrap();
                db.chaos_flush(&mut rng, 0.3, 0.05).unwrap();
            }
            db.log.flush_all();
            db.crash();
            // Whatever pool ran forward, restart runs in four frames.
            let mut db = Db::from_parts(db.geometry, Some(4), db.disk, db.log);
            let stats = Generalized.recover(&mut db).unwrap();
            let digest = decisions_digest(&db, &stats);
            assert_matches_model(&mut db, &ops);
            (digest, stats.replay_count(), stats.scanned)
        };
        assert_eq!(digest(7, Some(4)), (18_342_891_989_630_532_790, 3, 240));
        assert_eq!(digest(11, None), (4_939_088_466_092_529_230, 19, 240));
        assert_eq!(digest(13, None), (13_705_965_790_940_029_543, 39, 240));
    }

    #[test]
    fn multi_page_writes_form_atomic_groups() {
        let op = PageOp {
            id: 0,
            kind: PageOpKind::MultiPage,
            reads: vec![],
            writes: vec![
                Cell {
                    page: PageId(0),
                    slot: SlotId(0),
                },
                Cell {
                    page: PageId(1),
                    slot: SlotId(0),
                },
            ],
            f_seed: 1,
        };
        let mut db = Db::new(Geometry::default());
        Generalized.execute(&mut db, &op).unwrap();
        assert_eq!(db.pool.atomic_groups().len(), 1);
        // A lone flush of either page carries the other along.
        db.log.flush_all();
        let stable = db.log.stable_lsn();
        db.pool.flush_page(&mut db.disk, PageId(0), stable).unwrap();
        assert_eq!(db.disk.page_lsn(PageId(0)), db.disk.page_lsn(PageId(1)));
    }

    #[test]
    fn efg_style_entanglement_recovers_atomically() {
        // §5's E, F example at page granularity: E reads page 1 writes
        // pages {0,1}? Simpler: one multi-page op writing {0,1} whose
        // partial install would be unexplainable; the atomic group makes
        // partial installs impossible and recovery exact.
        let x = Cell {
            page: PageId(0),
            slot: SlotId(0),
        };
        let y = Cell {
            page: PageId(1),
            slot: SlotId(0),
        };
        let seed = PageOp {
            id: 0,
            kind: PageOpKind::Blind,
            reads: vec![],
            writes: vec![x],
            f_seed: 1,
        };
        let entangled = PageOp {
            id: 1,
            kind: PageOpKind::MultiPage,
            reads: vec![x],
            writes: vec![x, y],
            f_seed: 2,
        };
        let later = PageOp {
            id: 2,
            kind: PageOpKind::Physiological,
            reads: vec![y],
            writes: vec![y],
            f_seed: 3,
        };
        let ops = [seed, entangled, later];
        let mut db = Db::new(Geometry::default());
        for op in &ops {
            Generalized.execute(&mut db, op).unwrap();
        }
        db.log.flush_all();
        // Attempt to flush page 0 alone: the group drags page 1 along.
        let stable = db.log.stable_lsn();
        db.pool.flush_page(&mut db.disk, PageId(0), stable).unwrap();
        let l0 = db.disk.page_lsn(PageId(0));
        let l1 = db.disk.page_lsn(PageId(1));
        assert!(l0 >= redo_theory::log::Lsn(2) && l1 >= redo_theory::log::Lsn(2));
        db.crash();
        Generalized.recover(&mut db).unwrap();
        assert_matches_model(&mut db, &ops);
    }

    #[test]
    fn empty_write_set_rejected() {
        // Operation::builder would reject this at theory level; the
        // method also guards it.
        let op = PageOp {
            id: 0,
            kind: PageOpKind::MultiPage,
            reads: vec![],
            writes: vec![],
            f_seed: 1,
        };
        let mut db = Db::new(Geometry::default());
        assert!(matches!(
            Generalized.execute(&mut db, &op),
            Err(SimError::MethodViolation(_))
        ));
    }

    #[test]
    fn cross_page_reads_register_constraints() {
        let mut db = Db::new(Geometry::default());
        let op = PageOp {
            id: 0,
            kind: PageOpKind::Generalized,
            reads: vec![Cell {
                page: PageId(1),
                slot: SlotId(0),
            }],
            writes: vec![Cell {
                page: PageId(0),
                slot: SlotId(0),
            }],
            f_seed: 7,
        };
        let lsn = Generalized.execute(&mut db, &op).unwrap();
        let cs = db.pool.constraints();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].blocked, PageId(1));
        assert_eq!(cs[0].requires, PageId(0));
        assert_eq!(cs[0].required_lsn, lsn);
    }

    #[test]
    fn a_replayed_run_of_one_read_write_pair_holds_one_constraint() {
        // x <- f(y), 1 000 times: each record's constraint (x durable
        // before y passes its LSN) subsumes the one before it, since y
        // is never written.
        let cell = |page| Cell {
            page: PageId(page),
            slot: SlotId(0),
        };
        let mut db = Db::new(Geometry::default());
        for id in 0..1_000 {
            let op = PageOp {
                id,
                kind: PageOpKind::Generalized,
                reads: vec![cell(1)],
                writes: vec![cell(0)],
                f_seed: u64::from(id) + 1,
            };
            Generalized.execute(&mut db, &op).unwrap();
        }
        assert_eq!(db.pool.constraints().len(), 1);
        db.log.flush_all();
        db.crash();
        let stats = Generalized.recover(&mut db).unwrap();
        assert_eq!(stats.replay_count(), 1_000);
        let cs = db.pool.constraints();
        assert_eq!(cs.len(), 1, "{cs:?}");
        assert_eq!((cs[0].blocked, cs[0].requires), (PageId(1), PageId(0)));
        assert_eq!(cs[0].required_lsn, db.log.stable_lsn());
    }

    #[test]
    fn figure8_write_order_enforced() {
        // P: read x (page 0), write y (page 1). Q: overwrite x.
        // The cache must refuse to flush x before y is durable.
        let mut db = Db::new(Geometry::default());
        let [seed_x, p, q] = figure8_ops();
        Generalized.execute(&mut db, &seed_x).unwrap();
        Generalized.execute(&mut db, &p).unwrap();
        let q_lsn = Generalized.execute(&mut db, &q).unwrap();
        db.log.flush_all();
        let stable = db.log.stable_lsn();
        // Flushing x (now at q_lsn > p_lsn) before y must be refused.
        let err = db
            .pool
            .flush_page(&mut db.disk, PageId(0), stable)
            .unwrap_err();
        assert!(
            matches!(err, SimError::WriteOrderViolation { .. }),
            "{err:?} at {q_lsn:?}"
        );
        // Flush y, then x: legal.
        db.pool.flush_page(&mut db.disk, PageId(1), stable).unwrap();
        db.pool.flush_page(&mut db.disk, PageId(0), stable).unwrap();
    }

    #[test]
    fn figure8_crash_between_y_and_x_recovers() {
        // The dangerous window: y durable, x's overwrite not. Recovery
        // must replay Q (x stale) and skip P (y durable).
        let mut db = Db::new(Geometry::default());
        let ops = figure8_ops();
        // Seed x and make it durable first (so Q's replay reads P's x).
        Generalized.execute(&mut db, &ops[0]).unwrap();
        db.log.flush_all();
        db.pool
            .flush_page(&mut db.disk, PageId(0), db.log.stable_lsn())
            .unwrap();
        Generalized.execute(&mut db, &ops[1]).unwrap();
        Generalized.execute(&mut db, &ops[2]).unwrap();
        db.log.flush_all();
        // Flush y only; x's overwrite stays volatile.
        db.pool
            .flush_page(&mut db.disk, PageId(1), db.log.stable_lsn())
            .unwrap();
        db.crash();
        let stats = Generalized.recover(&mut db).unwrap();
        assert!(stats.replayed.contains(&2), "Q must replay");
        assert!(stats.skipped.contains(&1), "P already installed via y");
        assert_matches_model(&mut db, &ops);
    }

    #[test]
    fn checkpoint_flushes_in_constraint_order() {
        let mut db = Db::new(Geometry::default());
        let ops = cross_page_workload(20, 4, 42);
        for op in &ops {
            Generalized.execute(&mut db, op).unwrap();
        }
        Generalized.checkpoint(&mut db).unwrap();
        assert!(db.pool.dirty_pages().is_empty());
        db.crash();
        let stats = Generalized.recover(&mut db).unwrap();
        assert_eq!(stats.scanned, 0, "checkpoint installed everything");
        assert_matches_model(&mut db, &ops);
    }
}
