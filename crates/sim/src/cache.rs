//! The buffer pool: the cache manager whose flush decisions the write
//! graph governs.
//!
//! §5's point is that a cache accumulates the effects of many operations
//! per page and installs them all at once when the page is flushed; §6.4
//! adds that once operations may read pages they do not write, the cache
//! must respect *write-order constraints* (Figure 8: the new B-tree node
//! must reach disk before the truncated old node overwrites the only
//! copy of the moved keys). This pool enforces both disciplines:
//!
//! * the **WAL rule** — a page may not be flushed while it carries
//!   updates whose log records are still volatile;
//! * **write-order constraints** — registered as
//!   [`Constraint`]s: flushing page *r* past LSN `blocked_above`
//!   requires page `requires` to be on disk at ≥ `required_lsn`;
//! * **atomic flush groups** — [`AtomicGroup`]s bind a multi-page write
//!   set (§5's "update sets of variables atomically") so that flushing
//!   any member atomically flushes the group's closure, via the disk's
//!   multi-page atomic write.
//!
//! Eviction is LRU with the same rules: a dirty victim is flushed if
//! legal, otherwise the next victim is tried.
//!
//! Nothing on the per-operation path scans the pool, or descends a tree
//! to find a frame: the frames sit in a frame table (`cache::frames`)
//! that finds one by index arithmetic, and a frame carries its own pin count.
//! Recency is a stamp in the frame, bumped from a pool clock and sorted
//! only when a victim is actually needed; the constraints are indexed
//! by `blocked` page (what a flush consults) and by `requires` page (the
//! flush-order graph's adjacency, what [`BufferPool::would_cycle`]
//! walks); and the
//! dirty-page table is kept as an index rather than filtered out of the
//! frames — twice, by page and by recLSN, so the page that pins
//! redo-start is read off the head of an order rather than sorted out of
//! a listing.

mod frames;

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use redo_theory::log::Lsn;
use redo_workload::pages::PageId;

use crate::disk::Disk;
use crate::error::{SimError, SimResult};
use crate::page::Page;
pub use frames::FrameTable;

/// A write-order constraint: "page `blocked` may not be flushed with an
/// LSN above `blocked_above` until `requires` is on disk at
/// `required_lsn` or later."
///
/// Registered when a generalized operation at LSN `L` reads page `r`
/// while writing page `w`: any *later* update of `r` (LSN > L) must not
/// reach disk before `w` does — the cache-manager enforcement of the
/// read-write installation-graph edge out of the operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Constraint {
    /// The page whose flush is conditionally blocked.
    pub blocked: PageId,
    /// Flushes of `blocked` at LSNs ≤ this are unaffected (they don't
    /// overwrite what the reader saw).
    pub blocked_above: Lsn,
    /// The page that must be durable first.
    pub requires: PageId,
    /// The LSN `requires` must have on disk.
    pub required_lsn: Lsn,
}

/// An atomic flush group: the write set of one multi-page operation
/// (§5's "update sets of variables atomically"). While any member's
/// durable copy predates `lsn`, the members may only reach disk
/// together, via one atomic multi-page write.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AtomicGroup {
    /// The pages bound together.
    pub pages: BTreeSet<PageId>,
    /// The binding operation's LSN.
    pub lsn: Lsn,
}

#[derive(Clone, Debug)]
struct Frame {
    page: Page,
    /// Set exactly while the page has an entry in [`BufferPool::dirty`].
    dirty: bool,
    /// The pool clock at the frame's last touch. Stamps are unique, so
    /// ascending stamp order *is* least-recently-used order.
    stamp: u64,
    /// Pins held on the page: while any is, the frame is ineligible for
    /// eviction (it may still be flushed — a pin protects residency, not
    /// cleanliness). The count lives and dies with the frame.
    pins: u32,
}

/// The buffer pool.
#[derive(Clone, Debug)]
pub struct BufferPool {
    frames: FrameTable<Frame>,
    /// Ticks once per touch; the source of [`Frame::stamp`].
    clock: u64,
    capacity: Option<usize>,
    /// The dirty-page table: every dirty frame's page with its recovery
    /// LSN — the LSN of the first update since the frame was last clean.
    /// A fuzzy checkpoint records exactly this: redo for the page can
    /// never be needed below its recLSN, so the min over the table
    /// bounds the restart scan.
    dirty: BTreeMap<PageId, Lsn>,
    /// The same table as `(recLSN, page)`, coldest first: its head is
    /// the page that pins redo-start, which is the page a controller
    /// wants to flush next. Written at exactly the places `dirty` is.
    coldest: BTreeSet<(Lsn, PageId)>,
    /// Active constraints by `blocked` page, in registration order per
    /// page — the only ones a flush of that page must consult.
    constraints: BTreeMap<PageId, Vec<Constraint>>,
    /// The same constraints by `requires` page, as `(blocked,
    /// required_lsn)`: the out-edges of the flush-order graph. Both
    /// maps always hold the same set — [`BufferPool::add_constraint`]
    /// and [`BufferPool::gc_constraints`] are the only writers and
    /// apply the same change to each.
    successors: BTreeMap<PageId, Vec<(PageId, Lsn)>>,
    groups: Vec<AtomicGroup>,
    flushes: u64,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages (`None` = unbounded).
    #[must_use]
    pub fn new(capacity: Option<usize>) -> BufferPool {
        BufferPool {
            frames: FrameTable::new(),
            clock: 0,
            capacity,
            dirty: BTreeMap::new(),
            coldest: BTreeSet::new(),
            constraints: BTreeMap::new(),
            successors: BTreeMap::new(),
            groups: Vec::new(),
            flushes: 0,
        }
    }

    /// Number of cached pages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Is the pool empty?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.frames.len() == 0
    }

    /// Every cached page id, clean or dirty, in id order. This is the
    /// ground truth for "what may differ from disk": volatile-state
    /// projections overlay exactly these pages.
    pub fn cached_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.frames.ids()
    }

    /// Pins a cached page: it cannot be evicted until unpinned. Pins
    /// nest (each `pin` needs a matching [`BufferPool::unpin`]).
    ///
    /// # Errors
    ///
    /// [`SimError::NotCached`] if the page is not resident.
    pub fn pin(&mut self, id: PageId) -> SimResult<()> {
        let frame = self.frames.get_mut(id).ok_or(SimError::NotCached(id))?;
        frame.pins += 1;
        Ok(())
    }

    /// Releases one pin on `id` (a no-op if the page is not pinned).
    pub fn unpin(&mut self, id: PageId) {
        if let Some(frame) = self.frames.get_mut(id) {
            frame.pins = frame.pins.saturating_sub(1);
        }
    }

    /// Is the page currently pinned?
    #[must_use]
    pub fn is_pinned(&self, id: PageId) -> bool {
        self.frames.get(id).is_some_and(|frame| frame.pins > 0)
    }

    /// Pages currently dirty, in id order.
    #[must_use]
    pub fn dirty_pages(&self) -> Vec<PageId> {
        self.dirty.keys().copied().collect()
    }

    /// How many pages are dirty.
    #[must_use]
    pub fn dirty_count(&self) -> usize {
        self.dirty.len()
    }

    /// The dirty-page table: every dirty page paired with its recovery
    /// LSN (first update since the frame was last clean), in id order.
    /// This is exactly what an ARIES-style fuzzy checkpoint records: no
    /// page in the table needs redo below its recLSN, and pages absent
    /// from the table are fully installed.
    #[must_use]
    pub fn dirty_page_table(&self) -> Vec<(PageId, Lsn)> {
        self.dirty.iter().map(|(&id, &rec)| (id, rec)).collect()
    }

    /// The dirty-page table coldest first: up to `n` entries in
    /// `(recLSN, page)` order, starting strictly after `after` (`None`:
    /// from the head — the page whose recLSN is the table's minimum, so
    /// the one a checkpoint's redo-start waits on).
    pub fn coldest_dirty(
        &self,
        after: Option<(Lsn, PageId)>,
        n: usize,
    ) -> impl Iterator<Item = (Lsn, PageId)> + '_ {
        let from = after.map_or(Bound::Unbounded, Bound::Excluded);
        let rest = self.coldest.range((from, Bound::Unbounded));
        rest.take(n).copied()
    }

    /// Total pages flushed to disk by this pool.
    #[must_use]
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Registers a write-order constraint.
    pub fn add_constraint(&mut self, c: Constraint) {
        self.constraints.entry(c.blocked).or_default().push(c);
        self.successors
            .entry(c.requires)
            .or_default()
            .push((c.blocked, c.required_lsn));
    }

    /// Currently active constraints (satisfied ones are garbage-collected
    /// on flush), by blocked page and in registration order within one.
    #[must_use]
    pub fn constraints(&self) -> Vec<Constraint> {
        self.constraints.values().flatten().copied().collect()
    }

    /// Binds a set of pages into an atomic flush group at `lsn`: until
    /// every member is durable at ≥ `lsn`, flushing any member flushes
    /// them all, atomically.
    pub fn add_atomic_group(&mut self, pages: impl IntoIterator<Item = PageId>, lsn: Lsn) {
        let pages: BTreeSet<PageId> = pages.into_iter().collect();
        if pages.len() > 1 {
            self.groups.push(AtomicGroup { pages, lsn });
        }
    }

    /// Currently active atomic groups (satisfied ones are collected on
    /// flush).
    #[must_use]
    pub fn atomic_groups(&self) -> &[AtomicGroup] {
        &self.groups
    }

    /// The transitive closure of active atomic groups containing `id`:
    /// the set of pages that must reach disk together with `id`.
    /// Overlapping groups chain (flushing a shared member at its newest
    /// LSN would otherwise part-install the other group).
    #[must_use]
    pub fn atomic_closure(&self, disk: &Disk, id: PageId) -> BTreeSet<PageId> {
        let mut members = BTreeSet::from([id]);
        self.extend_atomic_closure(disk, &mut members);
        members
    }

    /// Would an operation writing `written` (one atomic unit) after
    /// reading `cross_reads` — pages outside its write set — close a
    /// cycle in the flush-order graph?
    ///
    /// Edges run `requires → blocked` ("must flush before"), one per
    /// constraint whose prerequisite is not yet durable. Atomic groups
    /// act like write-graph collapses: their members flush together, so
    /// the graph is the *quotient* with each active group's members
    /// identified. The operation would identify its write set and add
    /// an edge from it to every cross-page read. The standing graph is
    /// acyclic — that is what a caller's pre-resolution maintains — so a
    /// new cycle must pass through the write set: this is a reachability
    /// probe from the cross-page reads (and, when several written pages
    /// are being identified, from what they already precede) back to
    /// the write set. A cycle corresponds to a collapse §5 would reject:
    /// the single-copy cache could never flush legally again.
    #[must_use]
    pub fn would_cycle(&self, disk: &Disk, written: &[PageId], cross_reads: &[PageId]) -> bool {
        let mut target: BTreeSet<PageId> = written.iter().copied().collect();
        self.extend_atomic_closure(disk, &mut target);
        let mut frontier: Vec<PageId> = cross_reads.to_vec();
        if written.len() > 1 {
            for &page in &target {
                frontier.extend(self.flushes_before(disk, page));
            }
        }
        let mut seen = BTreeSet::new();
        while let Some(page) = frontier.pop() {
            if target.contains(&page) {
                return true;
            }
            if !seen.insert(page) {
                continue;
            }
            for mate in self.atomic_closure(disk, page) {
                frontier.extend(self.flushes_before(disk, mate));
                seen.insert(mate);
            }
        }
        false
    }

    /// The pages `requires` must reach disk before: the `blocked` side
    /// of every constraint on it that is still unsatisfied.
    fn flushes_before<'a>(
        &'a self,
        disk: &Disk,
        requires: PageId,
    ) -> impl Iterator<Item = PageId> + 'a {
        let durable = disk.page_lsn(requires);
        let edges = self.successors.get(&requires).into_iter().flatten();
        edges
            .filter(move |&&(_, required)| durable < required)
            .map(|&(blocked, _)| blocked)
    }

    /// Ensures `id` is cached, reading from disk if necessary; evicts per
    /// LRU if the pool is at capacity.
    ///
    /// # Errors
    ///
    /// [`SimError::PoolExhausted`] if no frame can be legally freed;
    /// [`SimError::TornPage`] if the disk copy is torn (repair it
    /// before fetching).
    pub fn fetch(
        &mut self,
        disk: &mut Disk,
        id: PageId,
        slots_per_page: u16,
        stable_lsn: Lsn,
    ) -> SimResult<&Page> {
        self.clock += 1;
        let stamp = self.clock;
        if !self.frames.contains(id) {
            self.make_room(disk, stable_lsn)?;
            let page = disk.read_page(id, slots_per_page)?;
            let frame = Frame {
                page,
                dirty: false,
                stamp,
                pins: 0,
            };
            self.frames.insert(id, frame);
        }
        let frame = self.frames.get_mut(id).ok_or(SimError::NotCached(id))?;
        frame.stamp = stamp;
        Ok(&frame.page)
    }

    /// Batched best-effort prefetch: reads each listed page that is not
    /// already resident, in order, and returns how many were newly
    /// fetched. Recovery calls this with the distinct pages named by the
    /// next batch of log records so the per-record fetches hit cache.
    ///
    /// Pages are *not* pinned: pinning a whole lookahead window under a
    /// bounded pool could make the window unevictable and starve the
    /// replay fetch itself. Under a bounded pool the prefetch also stops
    /// short of filling every frame, leaving one for the replay's own
    /// working page, and a page that cannot be brought in (pool
    /// exhausted) simply ends the prefetch — replay's own fetch will
    /// surface any real error.
    pub fn prefetch(
        &mut self,
        disk: &mut Disk,
        pages: &[PageId],
        slots_per_page: u16,
        stable_lsn: Lsn,
    ) -> usize {
        let budget = match self.capacity {
            Some(cap) => cap.saturating_sub(1),
            None => usize::MAX,
        };
        let mut fetched = 0;
        for &id in pages {
            if self.frames.contains(id) {
                continue;
            }
            if fetched >= budget || self.fetch(disk, id, slots_per_page, stable_lsn).is_err() {
                break;
            }
            fetched += 1;
        }
        fetched
    }

    /// The cached copy of `id`, if present (no disk access, no LRU
    /// touch).
    #[must_use]
    pub fn get(&self, id: PageId) -> Option<&Page> {
        self.frames.get(id).map(|f| &f.page)
    }

    /// Mutates a cached page, tagging it with `lsn` and marking it dirty.
    ///
    /// # Errors
    ///
    /// [`SimError::NotCached`] if the page has not been fetched.
    pub fn update(&mut self, id: PageId, lsn: Lsn, f: impl FnOnce(&mut Page)) -> SimResult<()> {
        let always = |page: &mut Page| {
            f(page);
            true
        };
        self.update_if(id, lsn, always).map(|_| ())
    }

    /// [`BufferPool::update`] for a mutation that may decline — a redo
    /// step, whose test and apply are one: `f` reports whether it
    /// changed the page, and only then is the page tagged with `lsn`
    /// and marked dirty. A declined update leaves the frame's LSN and
    /// cleanliness exactly as they were. Returns `f`'s answer.
    ///
    /// # Errors
    ///
    /// [`SimError::NotCached`] if the page has not been fetched.
    pub fn update_if(
        &mut self,
        id: PageId,
        lsn: Lsn,
        f: impl FnOnce(&mut Page) -> bool,
    ) -> SimResult<bool> {
        let frame = self.frames.get_mut(id).ok_or(SimError::NotCached(id))?;
        let changed = f(&mut frame.page);
        if changed {
            frame.page.set_lsn(lsn);
            if !frame.dirty {
                frame.dirty = true;
                self.dirty.insert(id, lsn);
                self.coldest.insert((lsn, id));
            }
        }
        self.clock += 1;
        frame.stamp = self.clock;
        Ok(changed)
    }

    /// Places `image` — a page rebuilt outside the pool, by redo that
    /// started from the pool's own copy or the durable one — in `id`'s
    /// frame, making room as [`BufferPool::fetch`] does but reading
    /// nothing. The frame is dirty afterwards; one that was clean (or
    /// absent) enters the dirty-page table at `rec_lsn`, which must be
    /// the LSN of the **first** record replayed into the image: the
    /// durable copy holds nothing from that record on, and a later
    /// fuzzy checkpoint will publish this recLSN as the floor below
    /// which the page needs no redo. (The image's own LSN is its *last*
    /// record's — as a recLSN it would claim everything before it
    /// installed.) A frame that is already dirty keeps its older recLSN,
    /// and a resident frame keeps its pins.
    ///
    /// # Errors
    ///
    /// [`SimError::PoolExhausted`] if no frame can be legally freed.
    pub fn install(
        &mut self,
        disk: &mut Disk,
        id: PageId,
        image: Page,
        rec_lsn: Lsn,
        stable_lsn: Lsn,
    ) -> SimResult<()> {
        if !self.frames.contains(id) {
            self.make_room(disk, stable_lsn)?;
        }
        self.clock += 1;
        let frame = Frame {
            page: image,
            dirty: true,
            stamp: self.clock,
            pins: 0,
        };
        match self.frames.get_mut(id) {
            Some(resident) => {
                let pins = resident.pins;
                *resident = Frame { pins, ..frame };
            }
            None => self.frames.insert(id, frame),
        }
        if let Entry::Vacant(clean) = self.dirty.entry(id) {
            clean.insert(rec_lsn);
            self.coldest.insert((rec_lsn, id));
        }
        Ok(())
    }

    /// Would flushing `id` right now violate the WAL rule or a
    /// write-order constraint?
    ///
    /// # Errors
    ///
    /// The specific violation; `Ok(())` means the flush is legal.
    pub fn check_flush(&self, disk: &Disk, id: PageId, stable_lsn: Lsn) -> SimResult<()> {
        self.check_flush_in_batch(disk, id, stable_lsn, &BTreeSet::new())
    }

    /// As [`BufferPool::check_flush`], treating `batch` as pages that
    /// will reach disk in the same atomic write — a write-order
    /// prerequisite inside the batch counts as satisfied (the members'
    /// cached versions carry LSNs at or beyond any constraint their
    /// binding operation created).
    pub(crate) fn check_flush_in_batch(
        &self,
        disk: &Disk,
        id: PageId,
        stable_lsn: Lsn,
        batch: &BTreeSet<PageId>,
    ) -> SimResult<()> {
        let frame = self.frames.get(id).ok_or(SimError::NotCached(id))?;
        let page_lsn = frame.page.lsn();
        if page_lsn > stable_lsn {
            return Err(SimError::WalViolation {
                page: id,
                page_lsn,
                stable_lsn,
            });
        }
        for c in self.constraints.get(&id).into_iter().flatten() {
            if page_lsn > c.blocked_above
                && disk.page_lsn(c.requires) < c.required_lsn
                && !batch.contains(&c.requires)
            {
                return Err(SimError::WriteOrderViolation {
                    blocked: id,
                    requires: c.requires,
                    required_lsn: c.required_lsn,
                });
            }
        }
        Ok(())
    }

    /// Flushes a dirty page to disk (atomic page write), after checking
    /// the WAL rule and every write-order constraint. Clean pages flush
    /// trivially (no-op). Satisfied constraints are garbage-collected.
    ///
    /// # Errors
    ///
    /// See [`BufferPool::check_flush`].
    pub fn flush_page(&mut self, disk: &mut Disk, id: PageId, stable_lsn: Lsn) -> SimResult<()> {
        // Atomic groups widen the flush: every page bound to `id` by an
        // active group must go to disk in the same atomic write.
        let members = self.atomic_closure(disk, id);
        for &m in &members {
            self.check_flush_in_batch(disk, m, stable_lsn, &members)?;
        }
        let mut batch = Vec::new();
        for &m in &members {
            if let Some(page) = self.take_dirty_frame(m) {
                batch.push((m, page));
            }
        }
        match batch.len() {
            0 => {}
            1 => {
                let (m, page) = batch.pop().expect("len checked");
                disk.write_page(m, page);
            }
            _ => disk.write_pages_atomic(batch)?,
        }
        self.gc_constraints(disk);
        self.gc_groups(disk);
        Ok(())
    }

    /// Flushes every dirty page, ordering flushes so write-order
    /// constraints are honored (a blocked page is retried after its
    /// prerequisite flushes). The WAL rule still applies: the caller must
    /// have forced the log first.
    ///
    /// # Errors
    ///
    /// The first unresolvable violation (e.g. WAL rule, or circular
    /// constraints — which the write-graph acyclicity makes impossible
    /// for well-formed methods).
    pub fn flush_all(&mut self, disk: &mut Disk, stable_lsn: Lsn) -> SimResult<()> {
        loop {
            let dirty = self.dirty_pages();
            if dirty.is_empty() {
                return Ok(());
            }
            let mut progressed = false;
            let mut first_err = None;
            for id in dirty {
                match self.flush_page(disk, id, stable_lsn) {
                    Ok(()) => progressed = true,
                    Err(e) => {
                        if first_err.is_none() {
                            first_err = Some(e);
                        }
                    }
                }
            }
            if !progressed {
                return Err(first_err.expect("no progress implies an error"));
            }
        }
    }

    /// Drops a clean page from the pool (no disk write).
    ///
    /// # Errors
    ///
    /// [`SimError::NotCached`] if absent; [`SimError::DirtyEviction`] if
    /// the page is dirty (flush it first — dropping a dirty page would
    /// silently lose installed-state updates); [`SimError::PinnedPage`]
    /// if the page is pinned. Neither says anything about pool
    /// occupancy, so neither is `PoolExhausted`.
    pub fn drop_clean(&mut self, id: PageId) -> SimResult<()> {
        match self.frames.get(id) {
            None => Err(SimError::NotCached(id)),
            Some(f) if f.dirty => Err(SimError::DirtyEviction(id)),
            Some(f) if f.pins > 0 => Err(SimError::PinnedPage(id)),
            Some(_) => {
                self.frames.remove(id);
                Ok(())
            }
        }
    }

    /// Copies of every dirty frame, in id order — what a System R-style
    /// quiesce writes to the staging area (§6.1).
    #[must_use]
    pub fn dirty_frames(&self) -> Vec<(PageId, Page)> {
        let frames = self
            .dirty
            .keys()
            .filter_map(|&id| Some((id, self.frames.get(id)?)));
        frames.map(|(id, frame)| (id, frame.page.clone())).collect()
    }

    /// Marks a cached page clean *without* writing it through this pool —
    /// used after a checkpoint pointer swing has installed the page by
    /// other means (the staging-area promotion).
    ///
    /// # Errors
    ///
    /// [`SimError::NotCached`] if absent.
    pub fn mark_clean(&mut self, id: PageId) -> SimResult<()> {
        let frame = self.frames.get_mut(id).ok_or(SimError::NotCached(id))?;
        frame.dirty = false;
        self.leave_dirty_table(id);
        Ok(())
    }

    /// Simulates losing the cache in a crash: every frame vanishes, its
    /// pins with it. Constraints vanish too — they concern cached future
    /// flushes, and there are none.
    pub fn crash(&mut self) {
        self.frames.clear();
        self.dirty.clear();
        self.coldest.clear();
        self.constraints.clear();
        self.successors.clear();
        self.groups.clear();
    }

    pub(crate) fn gc_constraints(&mut self, disk: &Disk) {
        // The by-`requires` map needs one durable LSN per prerequisite
        // page, so it is swept first; the by-`blocked` map holds the
        // same constraints and is swept only if that dropped any.
        let mut dropped = false;
        self.successors.retain(|&requires, edges| {
            let (durable, before) = (disk.page_lsn(requires), edges.len());
            edges.retain(|&(_, required)| durable < required);
            dropped |= edges.len() < before;
            !edges.is_empty()
        });
        if dropped {
            self.constraints.retain(|_, list| {
                list.retain(|c| disk.page_lsn(c.requires) < c.required_lsn);
                !list.is_empty()
            });
        }
    }

    pub(crate) fn gc_groups(&mut self, disk: &Disk) {
        self.groups
            .retain(|g| g.pages.iter().any(|&p| disk.page_lsn(p) < g.lsn));
    }

    /// Grows `members` with every page bound to a current member by an
    /// active atomic group in *this* pool, to a local fixpoint. Returns
    /// whether the set grew. The sharded store registers each group in
    /// every member's shard and iterates this step across locked shards
    /// until no shard reports growth, then widens its lock set if the
    /// closure escaped it.
    pub(crate) fn extend_atomic_closure(
        &self,
        disk: &Disk,
        members: &mut BTreeSet<PageId>,
    ) -> bool {
        let mut grew = false;
        loop {
            let before = members.len();
            for g in &self.groups {
                let active = g.pages.iter().any(|&p| disk.page_lsn(p) < g.lsn);
                if active && g.pages.iter().any(|p| members.contains(p)) {
                    members.extend(g.pages.iter().copied());
                }
            }
            if members.len() == before {
                return grew;
            }
            grew = true;
        }
    }

    /// If `id` is cached and dirty: marks it clean, counts the flush,
    /// and hands back the frame's page for the caller to write to disk
    /// (the sharded store batches frames from several shards into one
    /// atomic multi-page write). Clean or absent pages yield `None`.
    pub(crate) fn take_dirty_frame(&mut self, id: PageId) -> Option<Page> {
        let frame = self.frames.get_mut(id)?;
        if !frame.dirty {
            return None;
        }
        frame.dirty = false;
        let page = frame.page.clone();
        self.leave_dirty_table(id);
        self.flushes += 1;
        Some(page)
    }

    /// Drops `id` from both orders of the dirty-page table.
    fn leave_dirty_table(&mut self, id: PageId) {
        if let Some(rec_lsn) = self.dirty.remove(&id) {
            self.coldest.remove(&(rec_lsn, id));
        }
    }

    /// Evicts until a frame is free (a no-op for an unbounded pool).
    fn make_room(&mut self, disk: &mut Disk, stable_lsn: Lsn) -> SimResult<()> {
        if let Some(cap) = self.capacity {
            while self.frames.len() >= cap {
                self.evict_one(disk, stable_lsn)?;
            }
        }
        Ok(())
    }

    fn evict_one(&mut self, disk: &mut Disk, stable_lsn: Lsn) -> SimResult<()> {
        if self.try_evict_one(disk, stable_lsn) {
            return Ok(());
        }
        // Every unpinned victim was individually unflushable. A victim
        // blocked by a write-order constraint may become flushable once
        // its prerequisite (possibly pinned — pins don't forbid
        // flushing) reaches disk, which is exactly the ordered discharge
        // flush_all performs. Best effort: WAL-blocked pages legitimately
        // stay dirty.
        let _ = self.flush_all(disk, stable_lsn);
        if self.try_evict_one(disk, stable_lsn) {
            return Ok(());
        }
        Err(SimError::PoolExhausted)
    }

    fn try_evict_one(&mut self, disk: &mut Disk, stable_lsn: Lsn) -> bool {
        // Try LRU order — ascending stamp: clean pages drop immediately;
        // dirty ones flush if legal (which may atomically flush their
        // whole group). Pinned pages are never victims. Stamps are
        // unique, so the order the frames are listed in cannot matter.
        let unpinned = self.frames.iter().filter(|(_, frame)| frame.pins == 0);
        let mut victims: Vec<(u64, PageId)> = unpinned.map(|(id, f)| (f.stamp, id)).collect();
        victims.sort_unstable();
        for (_, id) in victims {
            let dirty = self.frames.get(id).is_some_and(|frame| frame.dirty);
            if !dirty || self.flush_page(disk, id, stable_lsn).is_ok() {
                self.frames.remove(id);
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redo_workload::pages::SlotId;

    fn pool_with_page(id: PageId) -> (BufferPool, Disk) {
        let mut pool = BufferPool::new(None);
        let mut disk = Disk::new();
        pool.fetch(&mut disk, id, 4, Lsn::ZERO).unwrap();
        (pool, disk)
    }

    #[test]
    fn fetch_loads_and_caches() {
        let (pool, _disk) = pool_with_page(PageId(0));
        assert_eq!(pool.len(), 1);
        assert!(pool.get(PageId(0)).is_some());
        assert!(pool.get(PageId(1)).is_none());
    }

    #[test]
    fn update_requires_fetch() {
        let mut pool = BufferPool::new(None);
        let err = pool.update(PageId(0), Lsn(1), |_| {}).unwrap_err();
        assert_eq!(err, SimError::NotCached(PageId(0)));
    }

    #[test]
    fn prefetch_warms_missing_pages_only() {
        let (mut pool, mut disk) = pool_with_page(PageId(0));
        let want = [PageId(0), PageId(1), PageId(2)];
        let fetched = pool.prefetch(&mut disk, &want, 4, Lsn::ZERO);
        assert_eq!(fetched, 2, "already-resident pages are not re-read");
        assert_eq!(pool.len(), 3);
        assert_eq!(pool.prefetch(&mut disk, &want, 4, Lsn::ZERO), 0);
    }

    #[test]
    fn prefetch_under_bounded_pool_leaves_a_free_frame_and_never_pins() {
        let mut pool = BufferPool::new(Some(3));
        let mut disk = Disk::new();
        let want: Vec<PageId> = (0..5).map(PageId).collect();
        let fetched = pool.prefetch(&mut disk, &want, 4, Lsn::ZERO);
        assert_eq!(fetched, 2, "prefetch stops one frame short of capacity");
        assert!(pool.len() < 3);
        for id in want {
            assert!(!pool.is_pinned(id));
        }
    }

    #[test]
    fn update_marks_dirty_and_tags_lsn() {
        let (mut pool, _disk) = pool_with_page(PageId(0));
        pool.update(PageId(0), Lsn(5), |p| p.set(SlotId(0), 9))
            .unwrap();
        assert_eq!(pool.dirty_pages(), vec![PageId(0)]);
        assert_eq!(pool.get(PageId(0)).unwrap().lsn(), Lsn(5));
    }

    #[test]
    fn declined_update_leaves_the_frame_clean_and_its_lsn_alone() {
        let (mut pool, _disk) = pool_with_page(PageId(0));
        pool.update(PageId(0), Lsn(5), |p| p.set(SlotId(0), 9))
            .unwrap();
        pool.mark_clean(PageId(0)).unwrap();
        assert!(!pool.update_if(PageId(0), Lsn(3), |_| false).unwrap());
        assert!(pool.dirty_page_table().is_empty());
        assert_eq!(pool.get(PageId(0)).unwrap().lsn(), Lsn(5));
        assert!(pool.update_if(PageId(0), Lsn(7), |_| true).unwrap());
        assert_eq!(pool.dirty_page_table(), vec![(PageId(0), Lsn(7))]);
    }

    #[test]
    fn install_enters_the_dpt_at_the_first_replayed_lsn_not_the_images() {
        let mut pool = BufferPool::new(Some(1));
        let mut disk = Disk::new();
        let mut image = Page::new(4);
        image.set(SlotId(1), 7);
        image.set_lsn(Lsn(40));
        pool.install(&mut disk, PageId(0), image.clone(), Lsn(5), Lsn(40))
            .unwrap();
        assert_eq!(pool.get(PageId(0)), Some(&image));
        assert_eq!(pool.dirty_page_table(), vec![(PageId(0), Lsn(5))]);
        // Re-installing over a dirty frame keeps the older recLSN.
        pool.install(&mut disk, PageId(0), image.clone(), Lsn(33), Lsn(40))
            .unwrap();
        assert_eq!(pool.dirty_page_table(), vec![(PageId(0), Lsn(5))]);
        // A full pool makes room by flushing the victim, as a fetch would.
        pool.install(&mut disk, PageId(1), image.clone(), Lsn(6), Lsn(40))
            .unwrap();
        assert_eq!(pool.len(), 1);
        assert_eq!(disk.read_page(PageId(0), 4).unwrap(), image);
        assert_eq!(pool.dirty_page_table(), vec![(PageId(1), Lsn(6))]);
    }

    #[test]
    fn wal_rule_blocks_flush_of_unlogged_updates() {
        let (mut pool, mut disk) = pool_with_page(PageId(0));
        pool.update(PageId(0), Lsn(5), |p| p.set(SlotId(0), 9))
            .unwrap();
        // Log stable only to 3: flush must fail.
        let err = pool.flush_page(&mut disk, PageId(0), Lsn(3)).unwrap_err();
        assert_eq!(
            err,
            SimError::WalViolation {
                page: PageId(0),
                page_lsn: Lsn(5),
                stable_lsn: Lsn(3)
            }
        );
        // Once the log catches up the flush succeeds.
        pool.flush_page(&mut disk, PageId(0), Lsn(5)).unwrap();
        assert_eq!(disk.page_lsn(PageId(0)), Lsn(5));
        assert!(pool.dirty_pages().is_empty());
    }

    #[test]
    fn write_order_constraint_blocks_until_prerequisite_durable() {
        // Figure 8 in miniature: y (page 1) must reach disk at lsn >= 5
        // before x (page 0) may be flushed past lsn 5.
        let mut pool = BufferPool::new(None);
        let mut disk = Disk::new();
        pool.fetch(&mut disk, PageId(0), 4, Lsn::ZERO).unwrap();
        pool.fetch(&mut disk, PageId(1), 4, Lsn::ZERO).unwrap();
        pool.add_constraint(Constraint {
            blocked: PageId(0),
            blocked_above: Lsn(5),
            requires: PageId(1),
            required_lsn: Lsn(5),
        });
        pool.update(PageId(1), Lsn(5), |p| p.set(SlotId(0), 1))
            .unwrap();
        pool.update(PageId(0), Lsn(6), |p| p.set(SlotId(0), 2))
            .unwrap();
        let err = pool.flush_page(&mut disk, PageId(0), Lsn(10)).unwrap_err();
        assert_eq!(
            err,
            SimError::WriteOrderViolation {
                blocked: PageId(0),
                requires: PageId(1),
                required_lsn: Lsn(5)
            }
        );
        pool.flush_page(&mut disk, PageId(1), Lsn(10)).unwrap();
        pool.flush_page(&mut disk, PageId(0), Lsn(10)).unwrap();
        // Constraint satisfied and collected.
        assert!(pool.constraints().is_empty());
    }

    #[test]
    fn old_updates_of_blocked_page_still_flush() {
        // A flush of the blocked page at an LSN <= blocked_above is
        // harmless (it doesn't overwrite what the reader read).
        let mut pool = BufferPool::new(None);
        let mut disk = Disk::new();
        pool.fetch(&mut disk, PageId(0), 4, Lsn::ZERO).unwrap();
        pool.add_constraint(Constraint {
            blocked: PageId(0),
            blocked_above: Lsn(5),
            requires: PageId(1),
            required_lsn: Lsn(5),
        });
        pool.update(PageId(0), Lsn(4), |p| p.set(SlotId(0), 3))
            .unwrap();
        pool.flush_page(&mut disk, PageId(0), Lsn(10)).unwrap();
        assert_eq!(disk.page_lsn(PageId(0)), Lsn(4));
    }

    #[test]
    fn flush_all_orders_around_constraints() {
        let mut pool = BufferPool::new(None);
        let mut disk = Disk::new();
        pool.fetch(&mut disk, PageId(0), 4, Lsn::ZERO).unwrap();
        pool.fetch(&mut disk, PageId(1), 4, Lsn::ZERO).unwrap();
        pool.add_constraint(Constraint {
            blocked: PageId(0),
            blocked_above: Lsn::ZERO,
            requires: PageId(1),
            required_lsn: Lsn(2),
        });
        pool.update(PageId(0), Lsn(3), |p| p.set(SlotId(0), 1))
            .unwrap();
        pool.update(PageId(1), Lsn(2), |p| p.set(SlotId(0), 2))
            .unwrap();
        pool.flush_all(&mut disk, Lsn(10)).unwrap();
        assert!(pool.dirty_pages().is_empty());
        assert_eq!(disk.page_lsn(PageId(0)), Lsn(3));
        assert_eq!(disk.page_lsn(PageId(1)), Lsn(2));
    }

    #[test]
    fn flush_all_reports_wal_stall() {
        let (mut pool, mut disk) = pool_with_page(PageId(0));
        pool.update(PageId(0), Lsn(5), |p| p.set(SlotId(0), 9))
            .unwrap();
        let err = pool.flush_all(&mut disk, Lsn(1)).unwrap_err();
        assert!(matches!(err, SimError::WalViolation { .. }));
    }

    #[test]
    fn lru_eviction_prefers_oldest_clean() {
        let mut pool = BufferPool::new(Some(2));
        let mut disk = Disk::new();
        pool.fetch(&mut disk, PageId(0), 4, Lsn(10)).unwrap();
        pool.fetch(&mut disk, PageId(1), 4, Lsn(10)).unwrap();
        // Touch 0 so 1 is oldest.
        pool.fetch(&mut disk, PageId(0), 4, Lsn(10)).unwrap();
        pool.fetch(&mut disk, PageId(2), 4, Lsn(10)).unwrap();
        assert!(pool.get(PageId(1)).is_none(), "oldest clean page evicted");
        assert!(pool.get(PageId(0)).is_some());
    }

    #[test]
    fn eviction_flushes_dirty_victims() {
        let mut pool = BufferPool::new(Some(1));
        let mut disk = Disk::new();
        pool.fetch(&mut disk, PageId(0), 4, Lsn(10)).unwrap();
        pool.update(PageId(0), Lsn(1), |p| p.set(SlotId(0), 7))
            .unwrap();
        pool.fetch(&mut disk, PageId(1), 4, Lsn(10)).unwrap();
        assert_eq!(disk.read_page(PageId(0), 4).unwrap().get(SlotId(0)), 7);
    }

    #[test]
    fn eviction_blocked_by_wal_exhausts_pool() {
        let mut pool = BufferPool::new(Some(1));
        let mut disk = Disk::new();
        pool.fetch(&mut disk, PageId(0), 4, Lsn::ZERO).unwrap();
        pool.update(PageId(0), Lsn(9), |p| p.set(SlotId(0), 7))
            .unwrap();
        // Log stable at 0: the only victim is unflushable.
        let err = pool.fetch(&mut disk, PageId(1), 4, Lsn::ZERO).unwrap_err();
        assert_eq!(err, SimError::PoolExhausted);
    }

    #[test]
    fn crash_empties_everything() {
        let (mut pool, _disk) = pool_with_page(PageId(0));
        pool.add_constraint(Constraint {
            blocked: PageId(0),
            blocked_above: Lsn::ZERO,
            requires: PageId(1),
            required_lsn: Lsn(1),
        });
        pool.crash();
        assert!(pool.is_empty());
        assert!(pool.constraints().is_empty());
    }

    #[test]
    fn atomic_group_flushes_together() {
        let mut pool = BufferPool::new(None);
        let mut disk = Disk::new();
        pool.fetch(&mut disk, PageId(0), 4, Lsn::ZERO).unwrap();
        pool.fetch(&mut disk, PageId(1), 4, Lsn::ZERO).unwrap();
        pool.update(PageId(0), Lsn(3), |p| p.set(SlotId(0), 1))
            .unwrap();
        pool.update(PageId(1), Lsn(3), |p| p.set(SlotId(0), 2))
            .unwrap();
        pool.add_atomic_group([PageId(0), PageId(1)], Lsn(3));
        // Flushing either member installs both.
        pool.flush_page(&mut disk, PageId(0), Lsn(10)).unwrap();
        assert_eq!(disk.page_lsn(PageId(0)), Lsn(3));
        assert_eq!(disk.page_lsn(PageId(1)), Lsn(3));
        assert!(pool.dirty_pages().is_empty());
        // The satisfied group is collected.
        assert!(pool.atomic_groups().is_empty());
    }

    #[test]
    fn atomic_group_blocked_by_member_wal_violation() {
        let mut pool = BufferPool::new(None);
        let mut disk = Disk::new();
        pool.fetch(&mut disk, PageId(0), 4, Lsn::ZERO).unwrap();
        pool.fetch(&mut disk, PageId(1), 4, Lsn::ZERO).unwrap();
        pool.update(PageId(0), Lsn(2), |p| p.set(SlotId(0), 1))
            .unwrap();
        pool.update(PageId(1), Lsn(5), |p| p.set(SlotId(0), 2))
            .unwrap();
        pool.add_atomic_group([PageId(0), PageId(1)], Lsn(2));
        // Page 0 alone satisfies the WAL rule at stable=3, but its group
        // partner does not: the whole flush must be refused, leaving
        // BOTH pages unflushed (failure atomicity).
        let err = pool.flush_page(&mut disk, PageId(0), Lsn(3)).unwrap_err();
        assert!(matches!(
            err,
            SimError::WalViolation {
                page: PageId(1),
                ..
            }
        ));
        assert_eq!(disk.page_lsn(PageId(0)), Lsn::ZERO);
        assert_eq!(pool.dirty_pages().len(), 2);
    }

    #[test]
    fn overlapping_groups_chain() {
        // Group {0,1}@2 and {1,2}@4: flushing page 0 at its newest
        // version must carry pages 1 and 2 along.
        let mut pool = BufferPool::new(None);
        let mut disk = Disk::new();
        for p in 0..3u32 {
            pool.fetch(&mut disk, PageId(p), 4, Lsn::ZERO).unwrap();
        }
        pool.update(PageId(0), Lsn(2), |p| p.set(SlotId(0), 1))
            .unwrap();
        pool.update(PageId(1), Lsn(4), |p| p.set(SlotId(0), 2))
            .unwrap();
        pool.update(PageId(2), Lsn(4), |p| p.set(SlotId(0), 3))
            .unwrap();
        pool.add_atomic_group([PageId(0), PageId(1)], Lsn(2));
        pool.add_atomic_group([PageId(1), PageId(2)], Lsn(4));
        let closure = pool.atomic_closure(&disk, PageId(0));
        assert_eq!(closure.len(), 3);
        pool.flush_page(&mut disk, PageId(0), Lsn(10)).unwrap();
        assert_eq!(disk.page_lsn(PageId(2)), Lsn(4));
        assert!(pool.atomic_groups().is_empty());
    }

    #[test]
    fn singleton_groups_are_not_registered() {
        let mut pool = BufferPool::new(None);
        pool.add_atomic_group([PageId(7)], Lsn(1));
        assert!(pool.atomic_groups().is_empty());
    }

    #[test]
    fn crash_clears_groups() {
        let mut pool = BufferPool::new(None);
        pool.add_atomic_group([PageId(0), PageId(1)], Lsn(1));
        pool.crash();
        assert!(pool.atomic_groups().is_empty());
    }

    #[test]
    fn constraint_satisfied_within_batch() {
        // requires-page in the same atomic batch counts as satisfied.
        let mut pool = BufferPool::new(None);
        let mut disk = Disk::new();
        pool.fetch(&mut disk, PageId(0), 4, Lsn::ZERO).unwrap();
        pool.fetch(&mut disk, PageId(1), 4, Lsn::ZERO).unwrap();
        pool.update(PageId(0), Lsn(6), |p| p.set(SlotId(0), 1))
            .unwrap();
        pool.update(PageId(1), Lsn(6), |p| p.set(SlotId(0), 2))
            .unwrap();
        // Page 0 may not pass lsn 5 until page 1 is durable at >= 5 —
        // but they are in one atomic group, so flushing together is fine.
        pool.add_constraint(Constraint {
            blocked: PageId(0),
            blocked_above: Lsn(5),
            requires: PageId(1),
            required_lsn: Lsn(5),
        });
        pool.add_atomic_group([PageId(0), PageId(1)], Lsn(6));
        pool.flush_page(&mut disk, PageId(0), Lsn(10)).unwrap();
        assert_eq!(disk.page_lsn(PageId(0)), Lsn(6));
        assert_eq!(disk.page_lsn(PageId(1)), Lsn(6));
    }

    #[test]
    fn drop_clean_refuses_dirty_pages() {
        let (mut pool, _disk) = pool_with_page(PageId(0));
        pool.update(PageId(0), Lsn(1), |p| p.set(SlotId(0), 1))
            .unwrap();
        assert_eq!(
            pool.drop_clean(PageId(0)),
            Err(SimError::DirtyEviction(PageId(0))),
            "a dirty victim is not pool exhaustion"
        );
    }

    #[test]
    fn rec_lsn_pins_to_first_dirtying_update() {
        let (mut pool, mut disk) = pool_with_page(PageId(0));
        assert!(pool.dirty_page_table().is_empty());
        pool.update(PageId(0), Lsn(3), |p| p.set(SlotId(0), 1))
            .unwrap();
        pool.update(PageId(0), Lsn(7), |p| p.set(SlotId(0), 2))
            .unwrap();
        // recLSN stays at the *first* update since clean, not the newest.
        assert_eq!(pool.dirty_page_table(), vec![(PageId(0), Lsn(3))]);
        pool.flush_page(&mut disk, PageId(0), Lsn(10)).unwrap();
        assert!(pool.dirty_page_table().is_empty());
        // Re-dirtying after a flush restarts the recLSN.
        pool.update(PageId(0), Lsn(9), |p| p.set(SlotId(0), 3))
            .unwrap();
        assert_eq!(pool.dirty_page_table(), vec![(PageId(0), Lsn(9))]);
    }

    #[test]
    fn rec_lsn_cleared_by_mark_clean() {
        let (mut pool, _disk) = pool_with_page(PageId(0));
        pool.update(PageId(0), Lsn(2), |p| p.set(SlotId(0), 1))
            .unwrap();
        pool.mark_clean(PageId(0)).unwrap();
        assert!(pool.dirty_page_table().is_empty());
        pool.update(PageId(0), Lsn(5), |p| p.set(SlotId(0), 2))
            .unwrap();
        assert_eq!(pool.dirty_page_table(), vec![(PageId(0), Lsn(5))]);
    }

    #[test]
    fn dirty_page_table_covers_atomic_batch_flushes() {
        let mut pool = BufferPool::new(None);
        let mut disk = Disk::new();
        pool.fetch(&mut disk, PageId(0), 4, Lsn::ZERO).unwrap();
        pool.fetch(&mut disk, PageId(1), 4, Lsn::ZERO).unwrap();
        pool.update(PageId(0), Lsn(3), |p| p.set(SlotId(0), 1))
            .unwrap();
        pool.update(PageId(1), Lsn(3), |p| p.set(SlotId(0), 2))
            .unwrap();
        pool.add_atomic_group([PageId(0), PageId(1)], Lsn(3));
        assert_eq!(pool.dirty_page_table().len(), 2);
        // Flushing one member clears the whole group's recLSNs.
        pool.flush_page(&mut disk, PageId(0), Lsn(10)).unwrap();
        assert!(pool.dirty_page_table().is_empty());
    }

    #[test]
    fn cached_pages_covers_clean_and_dirty() {
        let mut pool = BufferPool::new(None);
        let mut disk = Disk::new();
        pool.fetch(&mut disk, PageId(3), 4, Lsn::ZERO).unwrap();
        pool.fetch(&mut disk, PageId(1), 4, Lsn::ZERO).unwrap();
        pool.update(PageId(1), Lsn(1), |p| p.set(SlotId(0), 1))
            .unwrap();
        let ids: Vec<PageId> = pool.cached_pages().collect();
        assert_eq!(ids, vec![PageId(1), PageId(3)], "id order, clean included");
    }

    #[test]
    fn pinned_pages_are_never_evicted() {
        let mut pool = BufferPool::new(Some(2));
        let mut disk = Disk::new();
        pool.fetch(&mut disk, PageId(0), 4, Lsn(10)).unwrap();
        pool.pin(PageId(0)).unwrap();
        pool.fetch(&mut disk, PageId(1), 4, Lsn(10)).unwrap();
        // Page 0 is LRU-oldest and clean, but pinned: page 1 must go
        // instead.
        pool.fetch(&mut disk, PageId(2), 4, Lsn(10)).unwrap();
        assert!(pool.get(PageId(0)).is_some());
        assert!(pool.get(PageId(1)).is_none());
        pool.unpin(PageId(0));
        pool.fetch(&mut disk, PageId(3), 4, Lsn(10)).unwrap();
        assert!(pool.get(PageId(0)).is_none(), "unpinned page evictable");
    }

    #[test]
    fn all_pinned_pool_exhausts() {
        let mut pool = BufferPool::new(Some(1));
        let mut disk = Disk::new();
        pool.fetch(&mut disk, PageId(0), 4, Lsn(10)).unwrap();
        pool.pin(PageId(0)).unwrap();
        let err = pool.fetch(&mut disk, PageId(1), 4, Lsn(10)).unwrap_err();
        assert_eq!(err, SimError::PoolExhausted);
    }

    #[test]
    fn pins_nest_and_unpin_is_saturating() {
        let (mut pool, _disk) = pool_with_page(PageId(0));
        pool.pin(PageId(0)).unwrap();
        pool.pin(PageId(0)).unwrap();
        pool.unpin(PageId(0));
        assert!(pool.is_pinned(PageId(0)));
        pool.unpin(PageId(0));
        assert!(!pool.is_pinned(PageId(0)));
        pool.unpin(PageId(0)); // extra unpin is harmless
        assert_eq!(pool.pin(PageId(9)), Err(SimError::NotCached(PageId(9))));
    }

    #[test]
    fn drop_clean_refuses_pinned_pages() {
        let (mut pool, _disk) = pool_with_page(PageId(0));
        pool.pin(PageId(0)).unwrap();
        assert_eq!(
            pool.drop_clean(PageId(0)),
            Err(SimError::PinnedPage(PageId(0)))
        );
    }

    #[test]
    fn crash_clears_pins() {
        let (mut pool, _disk) = pool_with_page(PageId(0));
        pool.pin(PageId(0)).unwrap();
        pool.crash();
        assert!(!pool.is_pinned(PageId(0)));
    }

    #[test]
    fn eviction_discharges_write_order_chains() {
        // Capacity 2: page 0 is dirty and blocked on page 1 reaching
        // disk, page 1 is dirty and pinned. A naive victim scan fails
        // (0 is blocked, 1 is pinned) — the discharge pass flushes the
        // pinned prerequisite, unblocking 0.
        let mut pool = BufferPool::new(Some(2));
        let mut disk = Disk::new();
        pool.fetch(&mut disk, PageId(0), 4, Lsn::ZERO).unwrap();
        pool.fetch(&mut disk, PageId(1), 4, Lsn::ZERO).unwrap();
        pool.add_constraint(Constraint {
            blocked: PageId(0),
            blocked_above: Lsn::ZERO,
            requires: PageId(1),
            required_lsn: Lsn(2),
        });
        pool.update(PageId(0), Lsn(3), |p| p.set(SlotId(0), 1))
            .unwrap();
        pool.update(PageId(1), Lsn(2), |p| p.set(SlotId(0), 2))
            .unwrap();
        pool.pin(PageId(1)).unwrap();
        pool.fetch(&mut disk, PageId(2), 4, Lsn(10)).unwrap();
        assert_eq!(disk.page_lsn(PageId(1)), Lsn(2), "prerequisite flushed");
        assert!(pool.get(PageId(1)).is_some(), "pinned page stayed resident");
    }

    fn constraint(blocked: u32, above: u64, requires: u32, required: u64) -> Constraint {
        Constraint {
            blocked: PageId(blocked),
            blocked_above: Lsn(above),
            requires: PageId(requires),
            required_lsn: Lsn(required),
        }
    }

    /// The indexes against the state they mirror: the frame table's
    /// index names its slab exactly and lists it in id order, recency
    /// stamps are distinct, the dirty-page table is exactly the dirty
    /// frames, its recLSN order is the table re-sorted (from any
    /// cursor), and the two constraint maps hold the same constraints.
    fn assert_indexes_mirror(pool: &BufferPool) {
        pool.frames.assert_index_mirrors_slab();
        let mut slab: Vec<PageId> = pool.frames.iter().map(|(id, _)| id).collect();
        slab.sort_unstable();
        assert_eq!(pool.cached_pages().collect::<Vec<_>>(), slab);
        assert_eq!(pool.len(), slab.len());
        let stamps: BTreeSet<u64> = pool.frames.iter().map(|(_, f)| f.stamp).collect();
        assert_eq!(stamps.len(), slab.len(), "two frames share a stamp");
        let dirty_frames: Vec<PageId> = (pool.cached_pages())
            .filter(|&id| pool.frames.get(id).unwrap().dirty)
            .collect();
        assert_eq!(pool.dirty_pages(), dirty_frames);
        assert_eq!(pool.dirty_count(), dirty_frames.len());
        let mut by_rec_lsn: Vec<(Lsn, PageId)> = (pool.dirty_page_table().into_iter())
            .map(|(id, rec)| (rec, id))
            .collect();
        by_rec_lsn.sort_unstable();
        let listed: Vec<(Lsn, PageId)> = pool.coldest_dirty(None, usize::MAX).collect();
        assert_eq!(listed, by_rec_lsn);
        for (at, &cursor) in by_rec_lsn.iter().enumerate() {
            let next: Vec<(Lsn, PageId)> = pool.coldest_dirty(Some(cursor), 2).collect();
            let behind = &by_rec_lsn[at + 1..];
            assert_eq!(next, behind[..behind.len().min(2)]);
        }
        for (id, rec) in pool.dirty_page_table() {
            assert!(
                rec <= pool.frames.get(id).unwrap().page.lsn(),
                "recLSN past the page LSN"
            );
        }
        let mut by_blocked: Vec<(PageId, PageId, Lsn)> = (pool.constraints())
            .iter()
            .map(|c| (c.requires, c.blocked, c.required_lsn))
            .collect();
        let mut by_requires: Vec<(PageId, PageId, Lsn)> = (pool.successors.iter())
            .flat_map(|(&r, edges)| edges.iter().map(move |&(b, l)| (r, b, l)))
            .collect();
        by_blocked.sort_unstable();
        by_requires.sort_unstable();
        assert_eq!(by_blocked, by_requires);
        assert!(pool.constraints.values().all(|list| !list.is_empty()));
        assert!(pool.successors.values().all(|edges| !edges.is_empty()));
    }

    #[test]
    fn check_flush_reports_the_first_registered_violation_of_the_page() {
        // Three constraints on page 0, registered around one on page 5:
        // whatever the map's key order, the refusal names page 0's
        // first unsatisfied one, in registration order.
        let mut pool = BufferPool::new(None);
        let mut disk = Disk::new();
        for p in [0, 5] {
            pool.fetch(&mut disk, PageId(p), 4, Lsn::ZERO).unwrap();
            pool.update(PageId(p), Lsn(9), |pg| pg.set(SlotId(0), 1))
                .unwrap();
        }
        pool.add_constraint(constraint(0, 9, 3, 4)); // not yet binding
        pool.add_constraint(constraint(0, 2, 7, 6));
        pool.add_constraint(constraint(5, 2, 1, 8));
        pool.add_constraint(constraint(0, 2, 2, 5));
        assert_eq!(
            pool.constraints(),
            vec![
                constraint(0, 9, 3, 4),
                constraint(0, 2, 7, 6),
                constraint(0, 2, 2, 5),
                constraint(5, 2, 1, 8),
            ],
            "by blocked page, registration order within one"
        );
        assert_eq!(
            pool.check_flush(&disk, PageId(0), Lsn(10)),
            Err(SimError::WriteOrderViolation {
                blocked: PageId(0),
                requires: PageId(7),
                required_lsn: Lsn(6)
            })
        );
        assert_eq!(
            pool.check_flush(&disk, PageId(5), Lsn(10)),
            Err(SimError::WriteOrderViolation {
                blocked: PageId(5),
                requires: PageId(1),
                required_lsn: Lsn(8)
            })
        );
        assert_indexes_mirror(&pool);
    }

    #[test]
    fn flush_collects_satisfied_constraints_from_both_indexes() {
        let mut pool = BufferPool::new(None);
        let mut disk = Disk::new();
        for p in 0..3 {
            pool.fetch(&mut disk, PageId(p), 4, Lsn::ZERO).unwrap();
        }
        pool.update(PageId(1), Lsn(4), |pg| pg.set(SlotId(0), 1))
            .unwrap();
        pool.add_constraint(constraint(0, 3, 1, 3));
        pool.add_constraint(constraint(2, 4, 1, 4));
        pool.add_constraint(constraint(0, 5, 1, 5));
        pool.add_constraint(constraint(0, 5, 2, 5));
        // Page 1 reaches disk at LSN 4: the two constraints that asked
        // for ≤ 4 are discharged, the one asking for 5 stands.
        pool.flush_page(&mut disk, PageId(1), Lsn(10)).unwrap();
        assert_eq!(
            pool.constraints(),
            vec![constraint(0, 5, 1, 5), constraint(0, 5, 2, 5)]
        );
        assert_indexes_mirror(&pool);
        pool.crash();
        assert_indexes_mirror(&pool);
        assert!(pool.constraints().is_empty());
    }

    #[test]
    fn would_cycle_probes_reachability_over_active_edges_only() {
        let mut pool = BufferPool::new(None);
        let mut disk = Disk::new();
        let (a, b, c) = (PageId(0), PageId(1), PageId(2));
        // a before b before c.
        pool.add_constraint(constraint(1, 0, 0, 1));
        pool.add_constraint(constraint(2, 0, 1, 2));
        // Read a, write c: c would also have to come *before* a.
        assert!(pool.would_cycle(&disk, &[c], &[a]));
        assert!(pool.would_cycle(&disk, &[c], &[b]));
        // Read c, write a: one more edge the same way round.
        assert!(!pool.would_cycle(&disk, &[a], &[c]));
        // Writing a and c as one unit folds the chain onto itself.
        assert!(pool.would_cycle(&disk, &[a, c], &[]));
        assert!(!pool.would_cycle(&disk, &[a, PageId(9)], &[]));
        // Once b is durable at 2 the b → c edge is spent: a → b is all
        // that stands, and c is free of it.
        let mut page_b = Page::new(4);
        page_b.set_lsn(Lsn(2));
        disk.write_page(b, page_b);
        assert!(!pool.would_cycle(&disk, &[c], &[a]));
        assert!(pool.would_cycle(&disk, &[b], &[a]));
    }

    #[test]
    fn would_cycle_identifies_the_members_of_active_groups() {
        let mut pool = BufferPool::new(None);
        let disk = Disk::new();
        let (a, b, c, d) = (PageId(0), PageId(1), PageId(2), PageId(3));
        // a before b; b and c flush together: so a before c.
        pool.add_constraint(constraint(1, 0, 0, 1));
        pool.add_atomic_group([b, c], Lsn(2));
        assert!(pool.would_cycle(&disk, &[c], &[a]));
        // Reading a page bound to the written one is a self-loop.
        assert!(pool.would_cycle(&disk, &[b], &[c]));
        // d is outside all of it.
        assert!(!pool.would_cycle(&disk, &[d], &[c]));
        assert!(!pool.would_cycle(&disk, &[a], &[d]));
        // Binding a to c closes a → b ~ c ~ a.
        assert!(pool.would_cycle(&disk, &[a, c], &[]));
    }

    proptest::proptest! {
        /// Every writer of the dirty-page table writes its recLSN order
        /// too: first-dirtying and declined updates, installs over clean
        /// and dirty frames, flushes that carry an atomic group along,
        /// eviction under a bounded pool, `mark_clean` and `crash`.
        #[test]
        fn rec_lsn_order_is_written_wherever_the_dirty_page_table_is(
            capacity in proptest::option::of(2usize..6),
            steps in proptest::collection::vec((0u8..9, 0u32..8, 0u32..8), 1..200),
        ) {
            let mut pool = BufferPool::new(capacity);
            let mut disk = Disk::new();
            let mut next = 1u64;
            for (what, a, b) in steps {
                // Everything logged so far is stable: the WAL rule never
                // refuses, write-order constraints are not in play.
                let (id, mate, stable) = (PageId(a), PageId(b), Lsn(next + 1));
                match what {
                    0..=2 => {
                        if pool.fetch(&mut disk, id, 4, stable).is_ok() {
                            let changed = what != 2;
                            pool.update_if(id, Lsn(next), |p| {
                                p.set(SlotId(0), next);
                                changed
                            })
                            .unwrap();
                        }
                    }
                    3 => {
                        // Redo rebuilt the page from records next..=next+1.
                        let mut image = Page::new(4);
                        image.set_lsn(Lsn(next + 1));
                        let _ = pool.install(&mut disk, id, image, Lsn(next), stable);
                    }
                    4 => {
                        // A two-page operation: same LSN, one atomic group.
                        let both = [id, mate];
                        if both.iter().all(|&p| pool.fetch(&mut disk, p, 4, stable).is_ok())
                            && both.iter().all(|&p| pool.get(p).is_some())
                        {
                            for p in both {
                                pool.update(p, Lsn(next), |pg| pg.set(SlotId(1), next)).unwrap();
                            }
                            pool.add_atomic_group(both, Lsn(next));
                        }
                    }
                    5 | 6 => {
                        let _ = pool.flush_page(&mut disk, id, stable);
                    }
                    7 => {
                        let _ = pool.mark_clean(id);
                    }
                    _ => {
                        if a == b {
                            pool.crash();
                        }
                    }
                }
                next += 2;
                assert_indexes_mirror(&pool);
            }
        }
    }

    /// The pool as first written, kept beside the pool: frames in a
    /// `BTreeMap`, each with its own dirty flag and pin count, recency
    /// as a deque (least recent first), the disk as a map. No
    /// constraints, no groups — a flush is legal iff the WAL rule allows
    /// it.
    #[derive(Clone, Default)]
    struct ReferencePool {
        frames: BTreeMap<PageId, (Page, bool, u32)>,
        lru: std::collections::VecDeque<PageId>,
        disk: BTreeMap<PageId, Page>,
        capacity: Option<usize>,
    }

    impl ReferencePool {
        fn touch(&mut self, id: PageId) {
            self.lru.retain(|&p| p != id);
            self.lru.push_back(id);
        }

        fn flush(&mut self, id: PageId, stable: Lsn) -> bool {
            match self.frames.get_mut(&id) {
                Some((page, dirty, _)) if *dirty && page.lsn() <= stable => {
                    self.disk.insert(id, page.clone());
                    *dirty = false;
                    true
                }
                Some((_, dirty, _)) => !*dirty,
                None => false,
            }
        }

        fn flush_all(&mut self, stable: Lsn) {
            for id in self.frames.keys().copied().collect::<Vec<_>>() {
                self.flush(id, stable);
            }
        }

        /// Frees a frame if the pool is full: the least recent unpinned
        /// page that is clean or may be flushed goes. When none can,
        /// everything flushable is flushed — pinned pages too — before
        /// the pool gives up.
        fn make_room(&mut self, stable: Lsn) -> bool {
            while self.capacity.is_some_and(|cap| self.frames.len() >= cap) {
                let unpinned = |id: &PageId| self.frames[id].2 == 0;
                let order: Vec<PageId> = self.lru.iter().copied().filter(unpinned).collect();
                let Some(victim) = order.into_iter().find(|&id| self.flush(id, stable)) else {
                    self.flush_all(stable);
                    return false;
                };
                self.frames.remove(&victim);
                self.lru.retain(|&p| p != victim);
            }
            true
        }

        fn fetch(&mut self, id: PageId, stable: Lsn) -> bool {
            if !self.frames.contains_key(&id) {
                if !self.make_room(stable) {
                    return false;
                }
                let page = self.disk.get(&id).cloned().unwrap_or_else(|| Page::new(4));
                self.frames.insert(id, (page, false, 0));
            }
            self.touch(id);
            true
        }

        fn install(&mut self, id: PageId, image: Page, stable: Lsn) -> bool {
            if !self.frames.contains_key(&id) && !self.make_room(stable) {
                return false;
            }
            let pins = self.frames.get(&id).map_or(0, |frame| frame.2);
            self.frames.insert(id, (image, true, pins));
            self.touch(id);
            true
        }
    }

    proptest::proptest! {
        /// Model-based: under any capacity and any mix of the pool's
        /// calls, the frame table with its stamps keeps exactly the
        /// frames — resident set, contents, dirt, pins — the reference
        /// pool keeps, evicts the same victims in the same order, leaves
        /// the same disk, and lists what it holds in id order.
        #[test]
        fn frame_table_pool_is_the_reference_pool(
            capacity in proptest::option::of(1usize..8),
            steps in proptest::collection::vec((0u8..16, 0u32..10, 0u32..3), 1..200),
        ) {
            let mut pool = BufferPool::new(capacity);
            let mut disk = Disk::new();
            let mut model = ReferencePool { capacity, ..ReferencePool::default() };
            let (mut next_lsn, mut stable) = (1u64, Lsn::ZERO);
            for (what, page, far) in steps {
                // Mostly ten neighbouring pages; now and then one whose
                // id lands in another index leaf.
                let id = PageId(page + if what % 2 == 0 { far * 5_000 } else { 0 });
                match what {
                    0..=2 => {
                        let fetched = pool.fetch(&mut disk, id, 4, stable).map(|_| ());
                        let expected = model.fetch(id, stable);
                        proptest::prop_assert_eq!(fetched.is_ok(), expected);
                        if !expected {
                            proptest::prop_assert_eq!(fetched, Err(SimError::PoolExhausted));
                        }
                    }
                    3 => {
                        let want = [id, PageId(page + 1), PageId(page + 2)];
                        let fetched = pool.prefetch(&mut disk, &want, 4, stable);
                        let budget = capacity.map_or(usize::MAX, |cap| cap - 1);
                        let mut expected = 0;
                        for p in want {
                            if model.frames.contains_key(&p) {
                                continue;
                            }
                            if expected >= budget || !model.fetch(p, stable) {
                                break;
                            }
                            expected += 1;
                        }
                        proptest::prop_assert_eq!(fetched, expected);
                    }
                    4..=6 => {
                        let changed = what != 6;
                        let updated = pool.update_if(id, Lsn(next_lsn), |p| {
                            p.set(SlotId(0), next_lsn);
                            changed
                        });
                        proptest::prop_assert_eq!(updated.is_ok(), model.frames.contains_key(&id));
                        if let Some((p, dirty, _)) = model.frames.get_mut(&id) {
                            // A declined step has scribbled on the page
                            // all the same; neither pool undoes it.
                            p.set(SlotId(0), next_lsn);
                            if changed {
                                p.set_lsn(Lsn(next_lsn));
                                *dirty = true;
                            }
                            model.touch(id);
                            next_lsn += 1;
                        }
                    }
                    7 => {
                        let mut image = Page::new(4);
                        image.set(SlotId(1), next_lsn);
                        image.set_lsn(Lsn(next_lsn));
                        let installed =
                            pool.install(&mut disk, id, image.clone(), Lsn(next_lsn), stable);
                        proptest::prop_assert_eq!(installed.is_ok(), model.install(id, image, stable));
                        next_lsn += 1;
                    }
                    8 => {
                        let pinned = pool.pin(id).is_ok();
                        proptest::prop_assert_eq!(pinned, model.frames.contains_key(&id));
                        if let Some(frame) = model.frames.get_mut(&id) {
                            frame.2 += 1;
                        }
                    }
                    9 => {
                        pool.unpin(id);
                        if let Some(frame) = model.frames.get_mut(&id) {
                            frame.2 = frame.2.saturating_sub(1);
                        }
                    }
                    10 => {
                        let droppable = matches!(model.frames.get(&id), Some((_, false, 0)));
                        proptest::prop_assert_eq!(pool.drop_clean(id).is_ok(), droppable);
                        if droppable {
                            model.frames.remove(&id);
                            model.lru.retain(|&p| p != id);
                        }
                    }
                    11 | 12 => {
                        // Force the log, then try to clean the page.
                        stable = Lsn(next_lsn - 1);
                        let _ = pool.flush_page(&mut disk, id, stable);
                        model.flush(id, stable);
                    }
                    13 => {
                        let _ = pool.flush_all(&mut disk, stable);
                        model.flush_all(stable);
                    }
                    14 => {
                        let cleaned = pool.mark_clean(id).is_ok();
                        proptest::prop_assert_eq!(cleaned, model.frames.contains_key(&id));
                        if let Some(frame) = model.frames.get_mut(&id) {
                            frame.1 = false;
                        }
                    }
                    _ if far == 0 => {
                        pool.crash();
                        model.frames.clear();
                        model.lru.clear();
                    }
                    // The copy carries on; the original is dropped.
                    _ => pool = pool.clone(),
                }
                let resident: Vec<PageId> = model.frames.keys().copied().collect();
                proptest::prop_assert_eq!(pool.cached_pages().collect::<Vec<_>>(), resident);
                proptest::prop_assert_eq!(pool.len(), model.frames.len());
                proptest::prop_assert_eq!(pool.is_empty(), model.frames.is_empty());
                let mut dirty = Vec::new();
                for (&id, (page, is_dirty, pins)) in &model.frames {
                    proptest::prop_assert_eq!(pool.get(id), Some(page));
                    proptest::prop_assert_eq!(pool.is_pinned(id), *pins > 0);
                    dirty.extend(is_dirty.then_some(id));
                }
                proptest::prop_assert_eq!(pool.dirty_pages(), dirty);
                let on_disk: Vec<(PageId, Page)> =
                    model.disk.iter().map(|(&id, page)| (id, page.clone())).collect();
                proptest::prop_assert_eq!(disk.pages(), on_disk);
                assert_indexes_mirror(&pool);
            }
        }
    }

    #[test]
    fn install_over_a_pinned_frame_keeps_its_pins() {
        let mut pool = BufferPool::new(Some(1));
        let mut disk = Disk::new();
        pool.fetch(&mut disk, PageId(0), 4, Lsn(9)).unwrap();
        pool.pin(PageId(0)).unwrap();
        pool.pin(PageId(0)).unwrap();
        let mut image = Page::new(4);
        image.set_lsn(Lsn(3));
        pool.install(&mut disk, PageId(0), image.clone(), Lsn(2), Lsn(9))
            .unwrap();
        assert_eq!(pool.get(PageId(0)), Some(&image));
        // Still pinned, twice: the one frame cannot be stolen until both
        // are released.
        let exhausted = pool.fetch(&mut disk, PageId(1), 4, Lsn(9)).map(|_| ());
        assert_eq!(exhausted, Err(SimError::PoolExhausted));
        pool.unpin(PageId(0));
        assert!(pool.is_pinned(PageId(0)));
        pool.unpin(PageId(0));
        pool.fetch(&mut disk, PageId(1), 4, Lsn(9)).unwrap();
        assert_eq!(disk.read_page(PageId(0), 4).unwrap(), image);
    }

    #[test]
    fn a_page_id_far_above_the_resident_set_costs_an_index_leaf_not_a_table() {
        let mut pool = BufferPool::new(None);
        let mut disk = Disk::new();
        let ids = [0, 7, 1023, 1024, 3_000_000_000, u32::MAX].map(PageId);
        for id in ids {
            pool.fetch(&mut disk, id, 4, Lsn::ZERO).unwrap();
            pool.update(id, Lsn(1), |p| p.set(SlotId(0), u64::from(id.0)))
                .unwrap();
        }
        // Ids 0, 7 and 1023 share a leaf; each of the others has its own.
        assert_eq!(pool.frames.leaf_count(), 4);
        assert_eq!(pool.cached_pages().collect::<Vec<_>>(), ids);
        for id in ids {
            assert_eq!(pool.get(id).unwrap().get(SlotId(0)), u64::from(id.0));
        }
        assert_indexes_mirror(&pool);
        // Dropping from the middle moves the last frame into the hole;
        // every survivor must still be found where the index says.
        pool.mark_clean(PageId(7)).unwrap();
        pool.drop_clean(PageId(7)).unwrap();
        assert!(pool.get(PageId(7)).is_none());
        assert_eq!(
            pool.get(PageId(u32::MAX)).unwrap().get(SlotId(0)),
            u64::from(u32::MAX)
        );
        assert_indexes_mirror(&pool);
        pool.crash();
        assert_eq!(pool.frames.leaf_count(), 0);
        assert!(pool.get(PageId(0)).is_none());
    }
}
