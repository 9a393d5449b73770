//! The frame table: where the pool keeps its frames, and how it finds
//! one.
//!
//! Every step of normal operation and of redo begins by finding the
//! frame of a page, several times per operation — so that lookup is
//! index arithmetic, not a tree descent whose depth grows with the
//! resident set. The frames sit in a dense slab; a compact index of
//! four bytes per page id maps a page to its slab position. The index
//! is cut into leaves of [`LEAF`] ids, allocated when one of their ids
//! is first cached, so a pool costs what the id ranges it has touched
//! cost — not what the largest id it has seen would cost a flat table,
//! and nothing up front (an eight-shard store zero-filling eight flat
//! tables per restart was measurable; see DESIGN §19).

use redo_workload::pages::PageId;

/// Page ids per index leaf.
const LEAF: u32 = 1024;

/// A map from page id to `T`: O(1) lookup, insertion and removal, ids
/// listed in ascending order. The pool's frames live in one; so does
/// any page-keyed lookup a per-record loop makes (media restore numbers
/// the pages of the history it reads with one).
///
/// Invariant: index and slab name each other exactly — `slab[n]` holds
/// page `p` iff `p`'s index entry is `n + 1`, and every other entry of
/// every leaf is 0.
#[derive(Clone, Debug)]
pub struct FrameTable<T> {
    /// The entries, dense and in no particular order: a removal moves
    /// the last entry into the hole.
    slab: Vec<(PageId, T)>,
    /// `(id / LEAF, leaf)` in ascending order — a handful of entries
    /// wherever ids are dense. `leaf[id % LEAF]` is the slab position
    /// of `id`'s entry plus one, or 0.
    leaves: Vec<(u32, Box<[u32]>)>,
}

impl<T> Default for FrameTable<T> {
    fn default() -> Self {
        FrameTable::new()
    }
}

impl<T> FrameTable<T> {
    /// The empty table: no entry, no leaf.
    #[must_use]
    pub fn new() -> Self {
        FrameTable {
            slab: Vec::new(),
            leaves: Vec::new(),
        }
    }

    pub(super) fn len(&self) -> usize {
        self.slab.len()
    }

    fn position(&self, id: PageId) -> Option<usize> {
        let at = self.leaves.binary_search_by_key(&(id.0 / LEAF), |l| l.0);
        let named = self.leaves[at.ok()?].1[(id.0 % LEAF) as usize];
        (named as usize).checked_sub(1)
    }

    /// `id`'s index entry, its leaf allocated if this is the first id
    /// of its range the table has seen.
    fn index_mut(&mut self, id: PageId) -> &mut u32 {
        let chunk = id.0 / LEAF;
        let at = match self.leaves.binary_search_by_key(&chunk, |l| l.0) {
            Ok(at) => at,
            Err(at) => {
                let leaf = vec![0; LEAF as usize].into_boxed_slice();
                self.leaves.insert(at, (chunk, leaf));
                at
            }
        };
        &mut self.leaves[at].1[(id.0 % LEAF) as usize]
    }

    pub(super) fn contains(&self, id: PageId) -> bool {
        self.position(id).is_some()
    }

    /// `id`'s entry.
    #[must_use]
    pub fn get(&self, id: PageId) -> Option<&T> {
        self.position(id).map(|at| &self.slab[at].1)
    }

    pub(super) fn get_mut(&mut self, id: PageId) -> Option<&mut T> {
        self.position(id).map(|at| &mut self.slab[at].1)
    }

    /// Adds an entry for `id`, which must have none.
    pub fn insert(&mut self, id: PageId, value: T) {
        debug_assert!(!self.contains(id), "{id:?} is already in the table");
        self.slab.push((id, value));
        let named = u32::try_from(self.slab.len());
        *self.index_mut(id) = named.expect("fewer than 2^32 frames fit in memory");
    }

    pub(super) fn remove(&mut self, id: PageId) -> Option<T> {
        let at = self.position(id)?;
        *self.index_mut(id) = 0;
        let (_, value) = self.slab.swap_remove(at);
        if let Some(&(moved, _)) = self.slab.get(at) {
            *self.index_mut(moved) = at as u32 + 1;
        }
        Some(value)
    }

    /// Forgets every entry and every leaf.
    pub(super) fn clear(&mut self) {
        self.slab.clear();
        self.leaves.clear();
    }

    /// Every id in the table, ascending.
    pub(super) fn ids(&self) -> impl Iterator<Item = PageId> + '_ {
        self.leaves.iter().flat_map(|(chunk, leaf)| {
            let named = (0..LEAF).zip(leaf.iter()).filter(|(_, &named)| named != 0);
            named.map(move |(at, _)| PageId(chunk * LEAF + at))
        })
    }

    /// Every entry, in slab order — no order a caller may rely on.
    pub(super) fn iter(&self) -> impl Iterator<Item = (PageId, &T)> + '_ {
        self.slab.iter().map(|(id, value)| (*id, value))
    }

    /// How many index leaves are allocated.
    #[cfg(test)]
    pub(super) fn leaf_count(&self) -> usize {
        self.leaves.len()
    }

    /// The invariant, checked: every index entry names the slot holding
    /// that page, and every slot is named exactly once.
    #[cfg(test)]
    pub(super) fn assert_index_mirrors_slab(&self) {
        let named: Vec<(PageId, u32)> = (self.leaves.iter())
            .flat_map(|(chunk, leaf)| {
                let entries = (0..LEAF).zip(leaf.iter().copied());
                entries.map(move |(at, named)| (PageId(chunk * LEAF + at), named))
            })
            .filter(|&(_, named)| named != 0)
            .collect();
        assert_eq!(named.len(), self.slab.len(), "a slot named twice or never");
        for (id, named) in named {
            assert_eq!(self.slab[named as usize - 1].0, id, "index entry of {id:?}");
        }
        assert!(self.leaves.windows(2).all(|w| w[0].0 < w[1].0));
        assert!(self.ids().map(|id| id.0).is_sorted());
    }
}
