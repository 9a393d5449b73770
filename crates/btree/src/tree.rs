//! The recoverable B+tree.
//!
//! All mutations follow the WAL discipline: append the record, then
//! apply it to the cache through [`apply_payload`] — which *is* the redo
//! step: normal execution and restart run the same function, so they
//! cannot drift apart. Restart itself is the one Figure-6 driver,
//! [`redo::recover`], with that step plugged in. The tree keeps no
//! volatile metadata: the root and the page allocator live on the meta
//! page (page 0), written by the records that move them, so a freshly
//! recovered tree is fully described by its pages.

use redo_methods::redo::{self, Redo, RedoStep, RestartAnalysis};
use redo_methods::RecoveryStats;
use redo_sim::cache::Constraint;
use redo_sim::db::{Db, Geometry};
use redo_sim::page::Page;
use redo_sim::wal::{LogPayload, RecordBody};
use redo_sim::{SimError, SimResult};
use redo_theory::log::Lsn;
use redo_workload::pages::{PageId, SlotId};

use crate::layout;
use crate::payload::{BtPayload, FIRST_ROOT, META};

/// How node splits are logged.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SplitStrategy {
    /// Conventional: the new node's contents are physically logged
    /// ([`BtPayload::Split`] with `image: Some`).
    Physiological,
    /// §6.4: the split is logged as "read old page, write new page"
    /// (`image: None`), with the cache manager ordering the new page's
    /// flush before the old page's truncation.
    Generalized,
}

/// A crash-recoverable B+tree.
#[derive(Clone, Debug)]
pub struct BTree {
    /// The underlying database; exposed for harnesses and benchmarks
    /// (log-volume metrics, crash injection, chaos flushing).
    pub db: Db<BtPayload>,
    strategy: SplitStrategy,
    spp: u16,
}

const META_ROOT: SlotId = SlotId(0);
const META_NEXT: SlotId = SlotId(1);

/// A copy of page `id` as the cache holds it, faulting it in (with
/// steal) if need be.
fn read_page(db: &mut Db<BtPayload>, id: PageId) -> SimResult<Page> {
    db.fetch_with_steal(id)?;
    let page = db.pool.get(id).ok_or(SimError::NotCached(id))?;
    Ok(page.clone())
}

/// One page's share of the record at `lsn`, under that page's own LSN
/// test: `write` runs iff the page predates the record.
fn redo_page(
    db: &mut Db<BtPayload>,
    page: PageId,
    lsn: Lsn,
    write: impl FnOnce(&mut Page),
) -> SimResult<bool> {
    db.fetch_with_steal(page)?;
    db.pool.update_if(page, lsn, |p| {
        let stale = p.lsn() < lsn;
        if stale {
            write(p);
        }
        stale
    })
}

/// The B-tree's [`RedoStep`]: [`apply_payload`], a record counting as
/// replayed iff some page it writes predated it. A B-tree record has no
/// workload operation id; the stats name it by its LSN. Its records are
/// few and small, so each is decoded owned.
pub struct BtStep;

impl RedoStep<BtPayload> for BtStep {
    type View<'a> = BtPayload;

    fn parse(body: RecordBody<'_>) -> SimResult<BtPayload> {
        body.parse(BtPayload::decode)
    }

    fn footprint(payload: &BtPayload, pages: &mut Vec<PageId>) -> SimResult<()> {
        pages.extend(payload.write_pages());
        Ok(())
    }

    fn redo(
        &mut self,
        db: &mut Db<BtPayload>,
        _: &RestartAnalysis,
        lsn: Lsn,
        payload: &BtPayload,
    ) -> SimResult<Redo> {
        let id = u32::try_from(lsn.0).unwrap_or(u32::MAX);
        Ok(Redo::of(id, apply_payload(db, payload, lsn)?))
    }
}

/// The redo step, shared by normal execution and restart: brings every
/// page the record at `lsn` writes up to it, each under its own page-LSN
/// test, and reports whether any page took its share. The pages install
/// independently afterwards, ordered only by Figure 8's edge, which a
/// generalized split registers here.
///
/// # Errors
///
/// Substrate errors (a pool with every frame pinned, disk faults).
pub fn apply_payload(db: &mut Db<BtPayload>, payload: &BtPayload, lsn: Lsn) -> SimResult<bool> {
    let spp = db.geometry.slots_per_page;
    match payload {
        BtPayload::Checkpoint(_) => Ok(false),
        BtPayload::Create => {
            let root = redo_page(db, FIRST_ROOT, lsn, |p| layout::format(p, true))?;
            let meta = redo_page(db, META, lsn, |p| {
                p.set(META_ROOT, u64::from(FIRST_ROOT.0));
                p.set(META_NEXT, u64::from(FIRST_ROOT.0 + 1));
            })?;
            Ok(root | meta)
        }
        BtPayload::Insert { page, key, value } => redo_page(db, *page, lsn, |p| {
            layout::leaf_insert(p, spp, *key, *value);
        }),
        BtPayload::Remove { page, key } => redo_page(db, *page, lsn, |p| {
            layout::leaf_remove(p, spp, *key);
        }),
        BtPayload::Split {
            from,
            to,
            parent,
            new_root,
            separator,
            next_free,
            image,
        } => {
            // `to` first: a generalized split reads the moved half from
            // `from` as it stood before this record.
            let moved = match image {
                Some(slots) => redo_page(db, *to, lsn, |p| {
                    for (i, &s) in (0..p.slot_count()).zip(slots) {
                        p.set(SlotId(i), s);
                    }
                })?,
                None => {
                    let src = read_page(db, *from)?;
                    let moved = redo_page(db, *to, lsn, |p| {
                        debug_assert!(src.lsn() < lsn, "Figure 8's write order was broken");
                        layout::split_copy_high(&src, p, spp);
                    })?;
                    if moved {
                        // Figure 8: `to` must reach disk before `from`
                        // does with this record's truncation (or
                        // anything later) in it.
                        db.pool.add_constraint(Constraint {
                            blocked: *from,
                            blocked_above: Lsn(lsn.0 - 1),
                            requires: *to,
                            required_lsn: lsn,
                        });
                    }
                    moved
                }
            };
            let cut = redo_page(db, *from, lsn, |p| layout::split_truncate(p, spp, *to))?;
            let linked = redo_page(db, *parent, lsn, |p| {
                if *new_root {
                    layout::format(p, false);
                    layout::set_child(p, spp, 0, *from);
                }
                layout::internal_insert(p, spp, *separator, *to);
            })?;
            let meta = redo_page(db, META, lsn, |p| {
                if *new_root {
                    p.set(META_ROOT, u64::from(parent.0));
                }
                p.set(META_NEXT, u64::from(*next_free));
            })?;
            Ok(moved | cut | linked | meta)
        }
    }
}

impl BTree {
    /// Creates (and bootstraps) a fresh tree on a fresh in-memory
    /// database: [`BTree::create`] over [`Db::new`].
    ///
    /// # Errors
    ///
    /// As [`BTree::create`].
    pub fn new(strategy: SplitStrategy, slots_per_page: u16) -> SimResult<BTree> {
        BTree::create(Db::new(Geometry { slots_per_page }), strategy)
    }

    /// Bootstraps a fresh tree on `db` — any backend, log sharding or
    /// pool bound — with one [`BtPayload::Create`] record: page 1 is an
    /// empty leaf root; page 0 holds the metadata.
    ///
    /// # Errors
    ///
    /// [`SimError::MethodViolation`] if `db`'s pages have fewer than 6
    /// slots (too small for a node); substrate errors during bootstrap.
    pub fn create(db: Db<BtPayload>, strategy: SplitStrategy) -> SimResult<BTree> {
        let spp = db.geometry.slots_per_page;
        if spp < 6 {
            return Err(SimError::MethodViolation(
                "pages need at least 6 slots for a B+tree node",
            ));
        }
        let mut tree = BTree { db, strategy, spp };
        tree.log_apply(BtPayload::Create)?;
        Ok(tree)
    }

    /// The split-logging strategy in force.
    #[must_use]
    pub fn strategy(&self) -> SplitStrategy {
        self.strategy
    }

    fn log_apply(&mut self, payload: BtPayload) -> SimResult<()> {
        let lsn = self.db.log.append(payload.clone())?;
        apply_payload(&mut self.db, &payload, lsn).map(|_| ())
    }

    /// Reads a page and verifies it is a formatted node — a zeroed page
    /// on the descent path means the tree structure was lost and would
    /// otherwise loop forever on null child pointers.
    fn read_node(&mut self, id: PageId) -> SimResult<Page> {
        let page = read_page(&mut self.db, id)?;
        if !layout::is_initialized(&page) {
            return Err(SimError::MethodViolation(
                "descent reached an uninitialized page",
            ));
        }
        Ok(page)
    }

    fn meta(&mut self) -> SimResult<(PageId, u32)> {
        let page = read_page(&mut self.db, META)?;
        Ok((
            PageId(page.get(META_ROOT) as u32),
            page.get(META_NEXT) as u32,
        ))
    }

    /// Splits the full node `from` as one log record: under `parent`,
    /// which has room, or — `None` — as the root, under a fresh page
    /// that becomes the new root. The tree is consistent before the
    /// record and after it, and the log holds nothing in between.
    fn split(&mut self, parent: Option<PageId>, from: PageId) -> SimResult<()> {
        let (_, next) = self.meta()?;
        let src = read_page(&mut self.db, from)?;
        let image = match self.strategy {
            SplitStrategy::Generalized => None,
            SplitStrategy::Physiological => {
                // The moved half travels through the log as a full
                // after-image of the new page.
                let mut scratch = Page::new(self.spp);
                layout::split_copy_high(&src, &mut scratch, self.spp);
                Some(scratch.slots().to_vec())
            }
        };
        self.log_apply(BtPayload::Split {
            from,
            to: PageId(next),
            parent: parent.unwrap_or(PageId(next + 1)),
            new_root: parent.is_none(),
            separator: layout::split_plan(&src).separator,
            next_free: next + 1 + u32::from(parent.is_none()),
            image,
        })
    }

    /// Inserts a key-value pair (overwrites on duplicate key).
    ///
    /// # Errors
    ///
    /// Substrate errors.
    pub fn insert(&mut self, key: u64, value: u64) -> SimResult<()> {
        let max = layout::max_keys(self.spp);
        let (root, _) = self.meta()?;
        if layout::n_keys(&self.read_node(root)?) == max {
            self.split(None, root)?;
        }
        let (mut current, _) = self.meta()?;
        loop {
            let page = self.read_node(current)?;
            if layout::is_leaf(&page) {
                debug_assert!(layout::n_keys(&page) < max);
                return self.log_apply(BtPayload::Insert {
                    page: current,
                    key,
                    value,
                });
            }
            let idx = layout::descend_index(&page, key);
            let child = layout::child(&page, self.spp, idx)?;
            let child_page = self.read_node(child)?;
            if layout::n_keys(&child_page) == max {
                self.split(Some(current), child)?;
                // Re-route: the separator may send us right.
                let page = read_page(&mut self.db, current)?;
                let idx = layout::descend_index(&page, key);
                current = layout::child(&page, self.spp, idx)?;
            } else {
                current = child;
            }
        }
    }

    /// Descends to the leaf that would hold `key`.
    fn find_leaf(&mut self, key: u64) -> SimResult<(PageId, Page)> {
        let (mut current, _) = self.meta()?;
        loop {
            let page = self.read_node(current)?;
            if layout::is_leaf(&page) {
                return Ok((current, page));
            }
            let idx = layout::descend_index(&page, key);
            current = layout::child(&page, self.spp, idx)?;
        }
    }

    /// Looks a key up.
    ///
    /// # Errors
    ///
    /// Substrate errors.
    pub fn get(&mut self, key: u64) -> SimResult<Option<u64>> {
        let (_, leaf) = self.find_leaf(key)?;
        let found = layout::search(&leaf, key).ok();
        Ok(found.map(|i| layout::value(&leaf, self.spp, i)))
    }

    /// Removes a key from its leaf (no rebalancing), returning whether
    /// it was present.
    ///
    /// # Errors
    ///
    /// Substrate errors.
    pub fn remove(&mut self, key: u64) -> SimResult<bool> {
        let (page, leaf) = self.find_leaf(key)?;
        if layout::search(&leaf, key).is_err() {
            return Ok(false);
        }
        self.log_apply(BtPayload::Remove { page, key })?;
        Ok(true)
    }

    /// All `(key, value)` pairs with `lo ≤ key < hi`, via the leaf
    /// sibling chain.
    ///
    /// # Errors
    ///
    /// Substrate errors.
    pub fn range(&mut self, lo: u64, hi: u64) -> SimResult<Vec<(u64, u64)>> {
        let mut out = Vec::new();
        let mut leaf = Some(self.find_leaf(lo)?.0);
        while let Some(id) = leaf {
            let page = self.read_node(id)?;
            for i in 0..layout::n_keys(&page) {
                let k = layout::key(&page, i);
                if k >= hi {
                    return Ok(out);
                }
                if k >= lo {
                    out.push((k, layout::value(&page, self.spp, i)));
                }
            }
            leaf = layout::right_sibling(&page);
        }
        Ok(out)
    }

    /// Takes a heavyweight checkpoint
    /// ([`redo::checkpoint_heavyweight`]): forces the log, flushes every
    /// dirty page (honoring write-order constraints), and advances the
    /// master record. (For an online one, call
    /// [`redo::checkpoint_fuzzy`] on [`BTree::db`]: same record, same
    /// recovery.)
    ///
    /// # Errors
    ///
    /// Substrate errors.
    pub fn checkpoint(&mut self) -> SimResult<()> {
        redo::checkpoint_heavyweight(&mut self.db)
    }

    /// Simulates a crash (volatile state vanishes).
    pub fn crash(&mut self) {
        self.db.crash();
    }

    /// Restart, through the one Figure-6 driver ([`redo::recover`]:
    /// repair, analysis of the master record, prefetch, scan) with
    /// [`apply_payload`] as the redo step ([`BtStep`]).
    ///
    /// # Errors
    ///
    /// Substrate errors, including log corruption.
    pub fn recover(&mut self) -> SimResult<RecoveryStats> {
        let stats = redo::recover(&mut self.db, BtStep)?;
        if self.db.log.last_lsn() == Lsn::ZERO {
            // Nothing ever became durable — not even the bootstrap
            // record. The tree is factually empty; re-bootstrap it.
            self.log_apply(BtPayload::Create)?;
        }
        Ok(stats)
    }

    /// Structural validation: uniform leaf depth, sorted keys,
    /// separators bounding subtrees, and a sibling chain that visits
    /// every leaf in key order. Returns the number of keys.
    ///
    /// # Errors
    ///
    /// [`SimError::MethodViolation`] describing the first structural
    /// defect.
    pub fn validate(&mut self) -> SimResult<usize> {
        let (root, _) = self.meta()?;
        let mut leaves_in_order = Vec::new();
        let count = self
            .validate_node(root, None, None, &mut leaves_in_order)?
            .1;
        // Leaf chain must visit the same leaves in the same order.
        let mut chain = Vec::new();
        let mut cur = Some(*leaves_in_order.first().unwrap_or(&root));
        while let Some(id) = cur {
            chain.push(id);
            let page = read_page(&mut self.db, id)?;
            cur = layout::right_sibling(&page);
        }
        if chain != leaves_in_order {
            return Err(SimError::MethodViolation(
                "leaf sibling chain disagrees with tree order",
            ));
        }
        Ok(count)
    }

    fn validate_node(
        &mut self,
        id: PageId,
        lo: Option<u64>,
        hi: Option<u64>,
        leaves: &mut Vec<PageId>,
    ) -> SimResult<(usize, usize)> {
        let page = read_page(&mut self.db, id)?;
        if !layout::is_initialized(&page) {
            return Err(SimError::MethodViolation("uninitialized page reached"));
        }
        let n = layout::n_keys(&page);
        for i in 0..n {
            let k = layout::key(&page, i);
            if i > 0 && layout::key(&page, i - 1) >= k {
                return Err(SimError::MethodViolation("keys out of order"));
            }
            if lo.is_some_and(|b| k < b) || hi.is_some_and(|b| k >= b) {
                return Err(SimError::MethodViolation("key outside separator bounds"));
            }
        }
        if layout::is_leaf(&page) {
            leaves.push(id);
            return Ok((1, n));
        }
        let mut depth = None;
        let mut total = 0usize;
        for i in 0..=n {
            let child_lo = if i == 0 {
                lo
            } else {
                Some(layout::key(&page, i - 1))
            };
            let child_hi = if i == n {
                hi
            } else {
                Some(layout::key(&page, i))
            };
            let child = layout::child(&page, self.spp, i)?;
            let (d, c) = self.validate_node(child, child_lo, child_hi, leaves)?;
            total += c;
            match depth {
                None => depth = Some(d),
                Some(prev) if prev != d => {
                    return Err(SimError::MethodViolation("non-uniform leaf depth"))
                }
                _ => {}
            }
        }
        Ok((depth.unwrap_or(0) + 1, total))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use redo_workload::pages::mix64;
    use std::collections::BTreeMap;

    const SPP: u16 = 16; // 7 keys per node: splits happen early and often

    fn insert_n(tree: &mut BTree, n: u64, seed: u64) -> BTreeMap<u64, u64> {
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..n {
            let k = rng.gen_range(0..n * 4);
            let v = mix64(k ^ seed);
            tree.insert(k, v).unwrap();
            model.insert(k, v);
        }
        model
    }

    fn assert_matches(tree: &mut BTree, model: &BTreeMap<u64, u64>) {
        for (&k, &v) in model {
            assert_eq!(tree.get(k).unwrap(), Some(v), "key {k}");
        }
        assert_eq!(tree.validate().unwrap(), model.len());
    }

    #[test]
    fn insert_get_basic() {
        for strategy in [SplitStrategy::Physiological, SplitStrategy::Generalized] {
            let mut tree = BTree::new(strategy, SPP).unwrap();
            tree.insert(5, 50).unwrap();
            tree.insert(3, 30).unwrap();
            assert_eq!(tree.get(5).unwrap(), Some(50));
            assert_eq!(tree.get(3).unwrap(), Some(30));
            assert_eq!(tree.get(4).unwrap(), None);
            tree.insert(5, 55).unwrap();
            assert_eq!(tree.get(5).unwrap(), Some(55));
        }
    }

    #[test]
    fn splits_maintain_structure() {
        for strategy in [SplitStrategy::Physiological, SplitStrategy::Generalized] {
            let mut tree = BTree::new(strategy, SPP).unwrap();
            let model = insert_n(&mut tree, 300, 1);
            assert_matches(&mut tree, &model);
        }
    }

    #[test]
    fn sequential_inserts_split_rightward() {
        let mut tree = BTree::new(SplitStrategy::Generalized, SPP).unwrap();
        for k in 0..200 {
            tree.insert(k, k * 2).unwrap();
        }
        assert_eq!(tree.validate().unwrap(), 200);
        let all = tree.range(0, u64::MAX).unwrap();
        assert_eq!(all.len(), 200);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn range_scans() {
        let mut tree = BTree::new(SplitStrategy::Generalized, SPP).unwrap();
        for k in (0..100).map(|i| i * 3) {
            tree.insert(k, k + 1).unwrap();
        }
        let r = tree.range(30, 60).unwrap();
        assert_eq!(
            r,
            vec![
                (30, 31),
                (33, 34),
                (36, 37),
                (39, 40),
                (42, 43),
                (45, 46),
                (48, 49),
                (51, 52),
                (54, 55),
                (57, 58)
            ]
        );
        assert!(tree.range(1000, 2000).unwrap().is_empty());
    }

    #[test]
    fn remove_keys() {
        let mut tree = BTree::new(SplitStrategy::Physiological, SPP).unwrap();
        let mut model = insert_n(&mut tree, 150, 2);
        let keys: Vec<u64> = model.keys().copied().step_by(3).collect();
        for k in keys {
            assert!(tree.remove(k).unwrap());
            model.remove(&k);
        }
        assert!(!tree.remove(u64::MAX).unwrap());
        assert_matches(&mut tree, &model);
    }

    #[test]
    fn crash_without_flush_loses_everything() {
        let mut tree = BTree::new(SplitStrategy::Generalized, SPP).unwrap();
        insert_n(&mut tree, 50, 3);
        tree.crash();
        tree.recover().unwrap();
        // Nothing was durable — not even the bootstrap record.
        assert_eq!(tree.range(0, u64::MAX).unwrap(), vec![]);
    }

    #[test]
    fn crash_recover_round_trips_both_strategies() {
        for strategy in [SplitStrategy::Physiological, SplitStrategy::Generalized] {
            let mut tree = BTree::new(strategy, SPP).unwrap();
            let model = insert_n(&mut tree, 250, 4);
            tree.db.log.flush_all();
            tree.crash();
            let stats = tree.recover().unwrap();
            assert!(stats.replay_count() > 0);
            assert_matches(&mut tree, &model);
        }
    }

    #[test]
    fn chaos_flushes_then_crash() {
        for strategy in [SplitStrategy::Physiological, SplitStrategy::Generalized] {
            for seed in 0..4 {
                let mut tree = BTree::new(strategy, SPP).unwrap();
                let mut rng = StdRng::seed_from_u64(seed);
                let mut model = BTreeMap::new();
                for i in 0..200u64 {
                    let k = rng.gen_range(0..500);
                    let v = mix64(k ^ i);
                    tree.insert(k, v).unwrap();
                    model.insert(k, v);
                    tree.db.chaos_flush(&mut rng, 0.6, 0.3).unwrap();
                }
                tree.db.log.flush_all();
                tree.crash();
                tree.recover().unwrap();
                assert_matches(&mut tree, &model);
            }
        }
    }

    #[test]
    fn checkpoint_shortens_recovery() {
        let mut tree = BTree::new(SplitStrategy::Generalized, SPP).unwrap();
        let model = insert_n(&mut tree, 100, 5);
        tree.checkpoint().unwrap();
        let extra: Vec<u64> = (1000..1010).collect();
        for &k in &extra {
            tree.insert(k, k).unwrap();
        }
        tree.db.log.flush_all();
        tree.crash();
        let stats = tree.recover().unwrap();
        assert!(
            stats.scanned <= 30,
            "scan bounded by checkpoint: {}",
            stats.scanned
        );
        assert_matches(&mut tree, &{
            let mut m = model.clone();
            m.extend(extra.iter().map(|&k| (k, k)));
            m
        });
    }

    #[test]
    fn generalized_split_logs_far_fewer_bytes() {
        let run = |strategy| {
            let mut tree = BTree::new(strategy, 64).unwrap();
            for k in 0..2000u64 {
                tree.insert(mix64(k), k).unwrap();
            }
            tree.validate().unwrap();
            tree.db.log.appended_bytes()
        };
        let physio = run(SplitStrategy::Physiological);
        let general = run(SplitStrategy::Generalized);
        // Total volume includes the (identical) per-key Insert records,
        // so the aggregate ratio is bounded by the split fraction; the
        // per-split ratio itself is ~40x (see the payload test). Demand
        // a solid aggregate saving.
        assert!(
            general * 4 < physio * 3,
            "generalized ({general}) should log notably less than physiological ({physio})"
        );
    }

    #[test]
    fn partial_split_flush_recovers_via_write_order() {
        // Force a split, flush only what the constraints allow, crash,
        // and verify the moved keys survive. This is Figure 8 end to
        // end: if the old page could be flushed before the new page,
        // the moved half would be lost.
        let mut tree = BTree::new(SplitStrategy::Generalized, SPP).unwrap();
        for k in 0..40u64 {
            tree.insert(k, k + 100).unwrap();
        }
        tree.db.log.flush_all();
        // Try to flush ONLY old (low-id) pages — the pool must refuse
        // where Figure 8's ordering demands, so this cannot lose data.
        let stable = tree.db.log.stable_lsn();
        for id in tree.db.pool.dirty_pages() {
            let _ = tree.db.pool.flush_page(&mut tree.db.disk, id, stable);
        }
        tree.crash();
        tree.recover().unwrap();
        for k in 0..40u64 {
            assert_eq!(
                tree.get(k).unwrap(),
                Some(k + 100),
                "key {k} lost across split+crash"
            );
        }
        tree.validate().unwrap();
    }

    #[test]
    fn repeated_crash_recover_cycles_with_updates_between() {
        let mut tree = BTree::new(SplitStrategy::Generalized, SPP).unwrap();
        let mut model = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(9);
        for round in 0..4u64 {
            for i in 0..60u64 {
                let k = rng.gen_range(0..400);
                let v = mix64(k ^ round ^ (i << 32));
                tree.insert(k, v).unwrap();
                model.insert(k, v);
            }
            tree.db.log.flush_all();
            tree.crash();
            tree.recover().unwrap();
            assert_matches(&mut tree, &model);
        }
    }
}
