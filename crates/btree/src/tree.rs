//! The recoverable B+tree.
//!
//! All mutations follow the WAL discipline: append the record, then
//! apply it to the cache through [`apply_payload`] — the *same* function
//! recovery uses, so normal execution and redo replay cannot drift
//! apart. The tree keeps no volatile metadata: the root and the page
//! allocator live on the meta page (page 0), updated by logged blind
//! writes, so a freshly recovered tree is fully described by its pages.

use redo_sim::cache::Constraint;
use redo_sim::db::{Db, Geometry};
use redo_sim::page::Page;
use redo_sim::wal::ShardedScanner;
use redo_sim::{SimError, SimResult};
use redo_theory::log::Lsn;
use redo_workload::pages::PageId;

use crate::layout;
use crate::payload::BtPayload;

/// How node splits are logged.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SplitStrategy {
    /// Conventional: the new node's contents are physically logged
    /// ([`BtPayload::PageImage`]).
    Physiological,
    /// §6.4: the split is logged as "read old page, write new page"
    /// ([`BtPayload::SplitCopyHigh`]), with the cache manager ordering
    /// the new page's flush before any later overwrite of the old one.
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

const META: PageId = PageId(0);
const META_ROOT: redo_workload::pages::SlotId = redo_workload::pages::SlotId(0);
const META_NEXT: redo_workload::pages::SlotId = redo_workload::pages::SlotId(1);

/// Applies one log record to the cache, tagging written pages with
/// `lsn`. Shared by normal execution and recovery.
///
/// # Errors
///
/// Substrate errors (pool exhaustion).
pub fn apply_payload(db: &mut Db<BtPayload>, payload: &BtPayload, lsn: Lsn) -> SimResult<()> {
    let spp = db.geometry.slots_per_page;
    let fetch = |db: &mut Db<BtPayload>, id: PageId| -> SimResult<()> {
        let stable = db.log.stable_lsn();
        db.pool.fetch(&mut db.disk, id, spp, stable)?;
        Ok(())
    };
    match payload {
        BtPayload::Checkpoint => {}
        BtPayload::InitLeaf { page } => {
            fetch(db, *page)?;
            db.pool.update(*page, lsn, |p| layout::format(p, true))?;
        }
        BtPayload::InitRoot {
            page,
            separator,
            left,
            right,
        } => {
            fetch(db, *page)?;
            db.pool.update(*page, lsn, |p| {
                layout::format(p, false);
                layout::set_key(p, 0, *separator);
                layout::set_child(p, spp, 0, *left);
                layout::set_child(p, spp, 1, *right);
                layout::set_n_keys(p, 1);
            })?;
        }
        BtPayload::Insert { page, key, value } => {
            fetch(db, *page)?;
            db.pool.update(*page, lsn, |p| {
                layout::leaf_insert(p, spp, *key, *value);
            })?;
        }
        BtPayload::Remove { page, key } => {
            fetch(db, *page)?;
            db.pool.update(*page, lsn, |p| {
                layout::leaf_remove(p, spp, *key);
            })?;
        }
        BtPayload::InsertInternal {
            page,
            separator,
            right_child,
        } => {
            fetch(db, *page)?;
            db.pool.update(*page, lsn, |p| {
                layout::internal_insert(p, spp, *separator, *right_child);
            })?;
        }
        BtPayload::PageImage { page, slots } => {
            fetch(db, *page)?;
            let slots = slots.clone();
            db.pool.update(*page, lsn, |p| {
                for (i, &s) in slots.iter().enumerate() {
                    p.set(redo_workload::pages::SlotId(i as u16), s);
                }
            })?;
        }
        BtPayload::SplitCopyHigh { from, to } => {
            fetch(db, *from)?;
            let src = db
                .pool
                .get(*from)
                .ok_or(SimError::NotCached(*from))?
                .clone();
            fetch(db, *to)?;
            db.pool
                .update(*to, lsn, |p| layout::split_copy_high(&src, p, spp))?;
        }
        BtPayload::SplitTruncate { page, new_right } => {
            fetch(db, *page)?;
            db.pool
                .update(*page, lsn, |p| layout::split_truncate(p, spp, *new_right))?;
        }
        BtPayload::MetaSet { root, next_free } => {
            fetch(db, META)?;
            db.pool.update(META, lsn, |p| {
                p.set(META_ROOT, u64::from(root.0));
                p.set(META_NEXT, u64::from(*next_free));
            })?;
        }
    }
    Ok(())
}

impl BTree {
    /// Creates (and bootstraps) a fresh tree: page 1 is an empty leaf
    /// root; page 0 holds the metadata.
    ///
    /// # Errors
    ///
    /// Substrate errors during bootstrap.
    ///
    /// # Panics
    ///
    /// Panics if `slots_per_page < 6` (too small for a node).
    pub fn new(strategy: SplitStrategy, slots_per_page: u16) -> SimResult<BTree> {
        let _ = layout::max_keys(slots_per_page); // validates geometry
        let mut tree = BTree {
            db: Db::new(Geometry { slots_per_page }),
            strategy,
            spp: slots_per_page,
        };
        tree.log_apply(BtPayload::MetaSet {
            root: PageId(1),
            next_free: 2,
        })?;
        tree.log_apply(BtPayload::InitLeaf { page: PageId(1) })?;
        Ok(tree)
    }

    /// The split-logging strategy in force.
    #[must_use]
    pub fn strategy(&self) -> SplitStrategy {
        self.strategy
    }

    fn log_apply(&mut self, payload: BtPayload) -> SimResult<Lsn> {
        let lsn = self.db.log.append(payload.clone())?;
        apply_payload(&mut self.db, &payload, lsn)?;
        if let BtPayload::SplitCopyHigh { from, to } = payload {
            // Figure 8: the new page must reach disk before any later
            // overwrite of the old page does.
            self.db.pool.add_constraint(Constraint {
                blocked: from,
                blocked_above: lsn,
                requires: to,
                required_lsn: lsn,
            });
        }
        Ok(lsn)
    }

    fn read_page(&mut self, id: PageId) -> SimResult<Page> {
        let stable = self.db.log.stable_lsn();
        Ok(self
            .db
            .pool
            .fetch(&mut self.db.disk, id, self.spp, stable)?
            .clone())
    }

    /// Reads a page and verifies it is a formatted node — a zeroed page
    /// on the descent path means the tree structure was lost (e.g. a
    /// crash with nothing durable) and would otherwise loop forever on
    /// null child pointers.
    fn read_node(&mut self, id: PageId) -> SimResult<Page> {
        let page = self.read_page(id)?;
        if !layout::is_initialized(&page) {
            return Err(SimError::MethodViolation(
                "descent reached an uninitialized page",
            ));
        }
        Ok(page)
    }

    fn meta(&mut self) -> SimResult<(PageId, u32)> {
        let page = self.read_page(META)?;
        Ok((
            PageId(page.get(META_ROOT) as u32),
            page.get(META_NEXT) as u32,
        ))
    }

    fn alloc(&mut self, root: PageId, next: u32) -> SimResult<(PageId, u32)> {
        self.log_apply(BtPayload::MetaSet {
            root,
            next_free: next + 1,
        })?;
        Ok((PageId(next), next + 1))
    }

    /// Splits the full child `child` of `parent` (which has room),
    /// returning nothing; the tree is consistent afterwards.
    fn split_child(&mut self, parent: PageId, child: PageId) -> SimResult<()> {
        let (root, next) = self.meta()?;
        let (new_page, _) = self.alloc(root, next)?;
        let child_page = self.read_page(child)?;
        let plan = layout::split_plan(&child_page);
        self.log_split_copy(child, new_page, &child_page)?;
        self.log_apply(BtPayload::SplitTruncate {
            page: child,
            new_right: new_page,
        })?;
        self.log_apply(BtPayload::InsertInternal {
            page: parent,
            separator: plan.separator,
            right_child: new_page,
        })?;
        Ok(())
    }

    fn split_root(&mut self) -> SimResult<()> {
        let (old_root, next) = self.meta()?;
        let (new_sibling, next) = self.alloc(old_root, next)?;
        let (new_root, next) = self.alloc(old_root, next)?;
        let root_page = self.read_page(old_root)?;
        let plan = layout::split_plan(&root_page);
        self.log_split_copy(old_root, new_sibling, &root_page)?;
        self.log_apply(BtPayload::SplitTruncate {
            page: old_root,
            new_right: new_sibling,
        })?;
        self.log_apply(BtPayload::InitRoot {
            page: new_root,
            separator: plan.separator,
            left: old_root,
            right: new_sibling,
        })?;
        self.log_apply(BtPayload::MetaSet {
            root: new_root,
            next_free: next,
        })?;
        Ok(())
    }

    fn log_split_copy(&mut self, from: PageId, to: PageId, src: &Page) -> SimResult<()> {
        match self.strategy {
            SplitStrategy::Generalized => {
                self.log_apply(BtPayload::SplitCopyHigh { from, to })?;
            }
            SplitStrategy::Physiological => {
                // The moved half travels through the log as a full
                // after-image of the new page.
                let mut scratch = Page::new(self.spp);
                layout::split_copy_high(src, &mut scratch, self.spp);
                self.log_apply(BtPayload::PageImage {
                    page: to,
                    slots: scratch.slots().to_vec(),
                })?;
            }
        }
        Ok(())
    }

    /// Inserts a key-value pair (overwrites on duplicate key).
    ///
    /// # Errors
    ///
    /// Substrate errors.
    pub fn insert(&mut self, key: u64, value: u64) -> SimResult<()> {
        let max = layout::max_keys(self.spp);
        let (root, _) = self.meta()?;
        let root_page = self.read_node(root)?;
        if layout::n_keys(&root_page) == max {
            self.split_root()?;
        }
        let (mut current, _) = self.meta()?;
        loop {
            let page = self.read_node(current)?;
            if layout::is_leaf(&page) {
                debug_assert!(layout::n_keys(&page) < max);
                self.log_apply(BtPayload::Insert {
                    page: current,
                    key,
                    value,
                })?;
                return Ok(());
            }
            let idx = layout::descend_index(&page, key);
            let child = layout::child(&page, self.spp, idx)?;
            let child_page = self.read_node(child)?;
            if layout::n_keys(&child_page) == max {
                self.split_child(current, child)?;
                // Re-route: the separator may send us right.
                let page = self.read_page(current)?;
                let idx = layout::descend_index(&page, key);
                current = layout::child(&page, self.spp, idx)?;
            } else {
                current = child;
            }
        }
    }

    /// Looks a key up.
    ///
    /// # Errors
    ///
    /// Substrate errors.
    pub fn get(&mut self, key: u64) -> SimResult<Option<u64>> {
        let (mut current, _) = self.meta()?;
        loop {
            let page = self.read_node(current)?;
            if layout::is_leaf(&page) {
                return Ok(match layout::search(&page, key) {
                    Ok(i) => Some(layout::value(&page, self.spp, i)),
                    Err(_) => None,
                });
            }
            let idx = layout::descend_index(&page, key);
            current = layout::child(&page, self.spp, idx)?;
        }
    }

    /// Removes a key from its leaf (no rebalancing), returning whether
    /// it was present.
    ///
    /// # Errors
    ///
    /// Substrate errors.
    pub fn remove(&mut self, key: u64) -> SimResult<bool> {
        let (mut current, _) = self.meta()?;
        loop {
            let page = self.read_node(current)?;
            if layout::is_leaf(&page) {
                if layout::search(&page, key).is_err() {
                    return Ok(false);
                }
                self.log_apply(BtPayload::Remove { page: current, key })?;
                return Ok(true);
            }
            let idx = layout::descend_index(&page, key);
            current = layout::child(&page, self.spp, idx)?;
        }
    }

    /// All `(key, value)` pairs with `lo ≤ key < hi`, via the leaf
    /// sibling chain.
    ///
    /// # Errors
    ///
    /// Substrate errors.
    pub fn range(&mut self, lo: u64, hi: u64) -> SimResult<Vec<(u64, u64)>> {
        let (mut current, _) = self.meta()?;
        // Descend to the leaf that would contain `lo`.
        loop {
            let page = self.read_node(current)?;
            if layout::is_leaf(&page) {
                break;
            }
            let idx = layout::descend_index(&page, lo);
            current = layout::child(&page, self.spp, idx)?;
        }
        let mut out = Vec::new();
        let mut leaf = Some(current);
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

    /// Takes a checkpoint: forces the log, flushes every dirty page
    /// (honoring write-order constraints), and advances the master
    /// record.
    ///
    /// # Errors
    ///
    /// Substrate errors.
    pub fn checkpoint(&mut self) -> SimResult<()> {
        self.db.log.flush_all();
        let stable = self.db.log.stable_lsn();
        self.db.pool.flush_all(&mut self.db.disk, stable)?;
        let ck = self.db.log.append(BtPayload::Checkpoint)?;
        self.db.log.flush_all();
        self.db.disk.set_master(ck)?;
        Ok(())
    }

    /// Simulates a crash (volatile state vanishes).
    pub fn crash(&mut self) {
        self.db.crash();
    }

    /// LSN-based redo recovery: scans the stable log from the master
    /// record; a record replays iff its target page's LSN is older.
    /// Returns `(replayed, skipped)` counts.
    ///
    /// # Errors
    ///
    /// Substrate errors, including log corruption.
    pub fn recover(&mut self) -> SimResult<(usize, usize)> {
        self.db.repair_after_crash();
        let master = self.db.disk.master();
        if self.db.log.stable_count() == 0 && master == Lsn::ZERO {
            // Nothing ever became durable — not even the bootstrap
            // records. The tree is factually empty; re-bootstrap it.
            self.log_apply(BtPayload::MetaSet {
                root: PageId(1),
                next_free: 2,
            })?;
            self.log_apply(BtPayload::InitLeaf { page: PageId(1) })?;
            return Ok((0, 0));
        }
        let (mut replayed, mut skipped) = (0usize, 0usize);
        // Streaming scan: the seek index jumps the cursor near the
        // master record, so only the post-checkpoint suffix is decoded.
        let mut scanner = ShardedScanner::seek(&self.db.log, master.next());
        loop {
            let batch = scanner.next_batch(&self.db.log, 32)?;
            if batch.is_empty() {
                break;
            }
            for rec in batch {
                let Some(target) = rec.payload.target() else {
                    continue;
                };
                let stable = self.db.log.stable_lsn();
                let page = self
                    .db
                    .pool
                    .fetch(&mut self.db.disk, target, self.spp, stable)?;
                if page.lsn() < rec.lsn {
                    apply_payload(&mut self.db, &rec.payload, rec.lsn)?;
                    if let BtPayload::SplitCopyHigh { from, to } = rec.payload {
                        self.db.pool.add_constraint(Constraint {
                            blocked: from,
                            blocked_above: rec.lsn,
                            requires: to,
                            required_lsn: rec.lsn,
                        });
                    }
                    replayed += 1;
                } else {
                    skipped += 1;
                }
            }
        }
        Ok((replayed, skipped))
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
            let page = self.read_page(id)?;
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
        let page = self.read_page(id)?;
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
        // Nothing was durable — not even the bootstrap records.
        assert_eq!(tree.range(0, u64::MAX).unwrap(), vec![]);
    }

    #[test]
    fn crash_recover_round_trips_both_strategies() {
        for strategy in [SplitStrategy::Physiological, SplitStrategy::Generalized] {
            let mut tree = BTree::new(strategy, SPP).unwrap();
            let model = insert_n(&mut tree, 250, 4);
            tree.db.log.flush_all();
            tree.crash();
            let (replayed, _) = tree.recover().unwrap();
            assert!(replayed > 0);
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
        let (replayed, skipped) = tree.recover().unwrap();
        assert!(
            replayed + skipped <= 30,
            "scan bounded by checkpoint: {replayed}+{skipped}"
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
