//! A page-sharded store for concurrent normal operation.
//!
//! Lemma 1 says a log need only order *conflicting* operations, and
//! conflicts are per-page for the single-page disciplines — so the
//! store's synchronization can be per-page-range too. [`ShardedStore`]
//! splits the buffer pool into N power-of-two shards keyed by the low
//! bits of the page id, each behind its own lock, over one shared
//! [`Disk`]. Operations touching disjoint shards proceed in parallel;
//! the global pool lock the sequential substrate implies disappears.
//!
//! What keeps this correct is a strict acquisition order:
//!
//! > **shards in ascending index order → disk**
//!
//! (callers put their recovery mutex before and the log after — see
//! `redo-methods`' `concurrent` module for the full chain: recovery →
//! shards ascending → disk → log; lazy restart's gates are its own).
//! Three paths exercise it:
//!
//! * [`ShardedStore::lock_pages`] — an operation leases exactly the
//!   shards its page set touches, ascending, and reads/updates under
//!   the lease ([`PageLease`]); nothing else synchronizes a page, so
//!   the lease is also what orders conflicting operations;
//! * [`ShardedStore::flush_page`] — a flush must honor atomic groups
//!   whose closure may span shards. Groups are registered in **every**
//!   member's shard, so the closure is discoverable from whatever
//!   shard the flush starts in; the flusher locks the shards it knows
//!   about and runs the pool's own flush over them, and if the closure
//!   escaped the locked set, drops everything and relocks the wider
//!   (monotonically growing, hence terminating) set. What a flush
//!   checks, writes and drops is the cache module's, written once for
//!   both stores; the store decides only which shards to hold;
//! * [`ShardedStore::snapshot`] — the fuzzy-checkpoint daemon's
//!   ordered-acquisition path: all shards, ascending, held together so
//!   the dirty-page table it reads is a consistent cut against every
//!   concurrent applier.
//!
//! A write-order constraint is filed in two halves. Its blocked page's
//! shard holds it in that page's list (the only shard whose flushes
//! must check it), checking its `requires` prerequisite against the
//! shared disk, not against another shard's volatile state. Its
//! prerequisite's shard holds it as an out-edge of that page, so the
//! flush that writes the prerequisite finds, under locks it already
//! holds, every edge it satisfied ([`BufferPool::discharge`]).
//! Registration holds both pages' shards. What a flush cannot reach —
//! the satisfied constraint in a list in another shard — is pruned
//! where that list is next touched under its own shard: the blocked
//! page's own flush, or a new constraint on it that finds the list
//! full. No path sweeps a shard's constraints.

use std::collections::BTreeSet;

use parking_lot::{Mutex, MutexGuard};
use redo_theory::log::Lsn;
use redo_workload::pages::PageId;

use crate::cache::{flush_closure, AtomicGroup, BufferPool, Constraint};
use crate::disk::Disk;
use crate::error::{SimError, SimResult};
use crate::page::Page;

/// A buffer pool split into power-of-two page-id shards over one shared
/// disk. See the module docs for the locking discipline.
pub struct ShardedStore {
    shards: Box<[Mutex<BufferPool>]>,
    disk: Mutex<Disk>,
    mask: u32,
}

impl ShardedStore {
    /// A store with `n_shards` (rounded up to a power of two, min 1)
    /// unbounded pool shards over a fresh disk.
    #[must_use]
    pub fn new(n_shards: usize) -> ShardedStore {
        ShardedStore::with_disk(n_shards, Disk::new())
    }

    /// A store over an *existing* disk — the crash survivor an
    /// on-demand restart reopens immediately, before any redo has run.
    #[must_use]
    pub fn with_disk(n_shards: usize, disk: Disk) -> ShardedStore {
        let n = n_shards.max(1).next_power_of_two();
        ShardedStore {
            shards: (0..n)
                .map(|_| Mutex::new(BufferPool::new(None)))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            disk: Mutex::new(disk),
            mask: (n - 1) as u32,
        }
    }

    /// Number of shards (a power of two).
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Which shard holds `page` (its id's low bits).
    #[must_use]
    pub fn shard_of(&self, page: PageId) -> usize {
        (page.0 & self.mask) as usize
    }

    /// Leases every shard the given page set touches, in ascending
    /// shard order. The lease is the only handle for reading and
    /// updating cached pages; holding it excludes every other lease,
    /// flush and snapshot of the same shards, so an operation that
    /// reads, logs and writes under one lease is atomic against
    /// conflicting operations — nothing else orders them.
    #[must_use]
    pub fn lock_pages(&self, pages: &[PageId]) -> PageLease<'_> {
        // A handful of pages at most: picking the next shard up by a
        // rescan is cheaper than building a set to sort them.
        let shards = || pages.iter().map(|&p| self.shard_of(p));
        let mut lease = PageLease {
            store: self,
            first: None,
            rest: Vec::new(),
        };
        let mut next = shards().min();
        while let Some(s) = next {
            let guard = (s, self.shards[s].lock());
            match lease.first {
                None => lease.first = Some(guard),
                Some(_) => lease.rest.push(guard),
            }
            next = shards().filter(|&t| t > s).min();
        }
        lease
    }

    /// Locks **all** shards in ascending order — the checkpoint
    /// daemon's consistent cut. While the snapshot is held no applier
    /// or flusher can move, so the dirty-page table it reads, paired
    /// with a log append in the same critical section, is exactly the
    /// atomicity a fuzzy checkpoint's published table needs.
    #[must_use]
    pub fn snapshot(&self) -> StoreSnapshot<'_> {
        StoreSnapshot {
            guards: self.shards.iter().map(|s| s.lock()).collect(),
        }
    }

    /// The shared disk (locked). Acquired *after* any shard locks per
    /// the module's ordering; the checkpoint daemon takes it alone for
    /// the master-pointer swing.
    #[must_use]
    pub fn disk(&self) -> MutexGuard<'_, Disk> {
        self.disk.lock()
    }

    /// Every dirty page across all shards, in id order (brief per-shard
    /// locks — a moving target under concurrency, as any dirty-page
    /// listing is).
    #[must_use]
    pub fn dirty_pages(&self) -> Vec<PageId> {
        let mut dirty = Vec::new();
        for shard in self.shards.iter() {
            let pool = shard.lock();
            dirty.extend(pool.coldest_dirty(None, usize::MAX).map(|(_, id)| id));
        }
        dirty.sort_unstable();
        dirty
    }

    /// How many pages are dirty across all shards (brief per-shard
    /// locks; nothing is listed or sorted).
    #[must_use]
    pub fn dirty_count(&self) -> usize {
        self.shards.iter().map(|s| s.lock().dirty_count()).sum()
    }

    /// The next `n` dirty pages across all shards in `(recLSN, page)`
    /// order, strictly after `after` (`None`: from the head, whose
    /// recLSN is the horizon a checkpoint taken now could truncate to).
    /// Each shard keeps that order ([`BufferPool::coldest_dirty`]), so
    /// this merges at most `n` entries from each under brief per-shard
    /// locks — a moving target under concurrency, not the cut
    /// [`ShardedStore::snapshot`] is.
    #[must_use]
    pub fn coldest_dirty(&self, after: Option<(Lsn, PageId)>, n: usize) -> Vec<(Lsn, PageId)> {
        let mut merged = Vec::new();
        for shard in self.shards.iter() {
            merged.extend(shard.lock().coldest_dirty(after, n));
        }
        // One ascending run per shard: a run-merging sort's best case.
        merged.sort();
        merged.truncate(n);
        merged
    }

    /// `page`'s recLSN if it is dirty, under its shard's lock alone —
    /// whether an entry of an earlier [`ShardedStore::coldest_dirty`]
    /// listing still stands.
    #[must_use]
    pub fn rec_lsn(&self, page: PageId) -> Option<Lsn> {
        self.shards[self.shard_of(page)].lock().rec_lsn(page)
    }

    /// Total pages flushed to disk across all shards.
    #[must_use]
    pub fn flushes(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().flushes()).sum()
    }

    /// Flushes `id` (and, atomically, the closure of any atomic groups
    /// binding it — possibly spanning shards) to disk, after checking
    /// the WAL rule and every write-order constraint in each member's
    /// shard. Clean pages flush trivially. The flush is the pool's own
    /// ([`BufferPool::flush_page`]'s body) over the locked shards.
    ///
    /// Lock acquisition: the needed shard set starts as `id`'s shard
    /// and grows monotonically while the atomic closure escapes it;
    /// each attempt locks the set ascending, then the disk, and the
    /// body recomputes the closure from scratch (groups may have been
    /// discharged by a concurrent flush between attempts) and either
    /// names the pages it could not reach or proceeds. The set is
    /// bounded by the shard count, so the loop terminates.
    ///
    /// # Errors
    ///
    /// See [`BufferPool::check_flush`]; failure flushes nothing.
    pub fn flush_page(&self, id: PageId, stable_lsn: Lsn) -> SimResult<()> {
        let mut lock_set: BTreeSet<usize> = BTreeSet::from([self.shard_of(id)]);
        loop {
            let mut pools: Vec<(usize, MutexGuard<'_, BufferPool>)> = lock_set
                .iter()
                .map(|&s| (s, self.shards[s].lock()))
                .collect();
            let mut disk = self.disk.lock();
            match flush_closure(&mut pools, |p| self.shard_of(p), &mut disk, id, stable_lsn)? {
                None => return Ok(()),
                Some(closure) => lock_set.extend(closure.iter().map(|&p| self.shard_of(p))),
            }
        }
    }

    /// [`ShardedStore::flush_page`] for a background flusher, to which a
    /// refusal is an answer, not a failure: `Ok(false)` if the WAL rule
    /// or a write-order constraint forbids the flush right now (the page
    /// stays dirty for a later tick), `Ok(true)` if it went through.
    ///
    /// # Errors
    ///
    /// Anything but those two protocol refusals — a missing frame, pool
    /// corruption — is a real substrate failure and propagates;
    /// swallowing it would let a flusher spin forever on a broken pool.
    pub fn flush_unless_refused(&self, id: PageId, stable_lsn: Lsn) -> SimResult<bool> {
        match self.flush_page(id, stable_lsn) {
            Ok(()) => Ok(true),
            Err(SimError::WalViolation { .. } | SimError::WriteOrderViolation { .. }) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Flushes the coldest page that may be flushed: tries `head` — the
    /// head of [`ShardedStore::coldest_dirty`], which the caller read
    /// its horizon from — and, only if that is refused, lists the rest
    /// of the order behind it and walks it until one flush lands (a
    /// page blocked by a write-order constraint has its prerequisite
    /// further down). Returns whether one landed and how many attempts
    /// were refused on the way; `(false, n)` walked all `n` dirty pages.
    ///
    /// # Errors
    ///
    /// As [`ShardedStore::flush_unless_refused`].
    pub fn flush_coldest(&self, head: (Lsn, PageId), stable_lsn: Lsn) -> SimResult<(bool, u64)> {
        let rest = std::iter::once_with(|| self.coldest_dirty(Some(head), usize::MAX)).flatten();
        let mut refused = 0;
        for (_, page) in std::iter::once(head).chain(rest) {
            if self.flush_unless_refused(page, stable_lsn)? {
                return Ok((true, refused));
            }
            refused += 1;
        }
        Ok((false, refused))
    }

    /// Consumes the store, keeping only what survives a crash: the
    /// disk. Every pool shard (volatile) is dropped on the floor.
    #[must_use]
    pub fn into_disk(self) -> Disk {
        self.disk.into_inner()
    }
}

/// A lease on the shards covering one operation's page set, acquired by
/// [`ShardedStore::lock_pages`]. All accessors address pages; a page
/// outside the leased set is a caller bug and panics.
pub struct PageLease<'a> {
    store: &'a ShardedStore,
    /// The lowest leased shard's guard, held inline: a lease on one
    /// shard allocates nothing.
    first: Option<(usize, MutexGuard<'a, BufferPool>)>,
    /// The other leased shards' guards, ascending.
    rest: Vec<(usize, MutexGuard<'a, BufferPool>)>,
}

impl<'a> PageLease<'a> {
    /// Every leased shard's index and guard, ascending.
    fn guards(&mut self) -> impl Iterator<Item = &mut (usize, MutexGuard<'a, BufferPool>)> {
        self.first.iter_mut().chain(&mut self.rest)
    }

    fn pool_mut(&mut self, id: PageId) -> &mut BufferPool {
        let shard = self.store.shard_of(id);
        self.guards()
            .find(|(s, _)| *s == shard)
            .map(|(_, g)| &mut **g)
            .expect("page not covered by this lease")
    }

    /// Ensures `id` is resident in its shard, reading from the shared
    /// disk (briefly locked, after the shard per the ordering) on a
    /// miss.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::PoolExhausted`] under a bounded pool (the
    /// store's shards are unbounded, so not in practice).
    pub fn fetch(&mut self, id: PageId, slots_per_page: u16, stable_lsn: Lsn) -> SimResult<()> {
        let store = self.store;
        let pool = self.pool_mut(id);
        if pool.get(id).is_none() {
            let mut disk = store.disk.lock();
            pool.fetch(&mut disk, id, slots_per_page, stable_lsn)?;
        }
        Ok(())
    }

    /// Reads `id` through the lease: [`PageLease::fetch`], then the
    /// resident copy.
    ///
    /// # Errors
    ///
    /// As [`PageLease::fetch`].
    pub fn read_page(
        &mut self,
        id: PageId,
        slots_per_page: u16,
        stable_lsn: Lsn,
    ) -> SimResult<&Page> {
        self.fetch(id, slots_per_page, stable_lsn)?;
        self.pool_mut(id).get(id).ok_or(SimError::NotCached(id))
    }

    /// Mutates a cached page, tagging it with `lsn` and marking it
    /// dirty in its shard.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::NotCached`] if `id` has not been fetched.
    pub fn update(&mut self, id: PageId, lsn: Lsn, f: impl FnOnce(&mut Page)) -> SimResult<()> {
        self.pool_mut(id).update(id, lsn, f)
    }

    /// Registers a write-order constraint: in the **blocked** page's
    /// shard, the only one whose flushes must consult it — pruning that
    /// page's list of what other shards' flushes satisfied first, if
    /// the list is full — and as an edge in the **required** page's
    /// shard, where that page's flush will discharge it. The lease must
    /// cover both pages.
    pub fn add_constraint(&mut self, c: Constraint) {
        let store = self.store;
        let blocked = self.pool_mut(c.blocked);
        if blocked.blocked_list_is_full(c.blocked) {
            blocked.prune_blocked(&store.disk.lock(), c.blocked);
        }
        blocked.add_blocked(c);
        self.pool_mut(c.requires).add_edge(c);
    }

    /// Binds `pages` into an atomic flush group at `lsn`
    /// ([`AtomicGroup::of`]), registering the group in **every** member's
    /// shard so a flush starting from any member discovers the closure.
    pub fn add_atomic_group(&mut self, pages: &[PageId], lsn: Lsn) {
        let Some(group) = AtomicGroup::of(pages.iter().copied(), lsn) else {
            return;
        };
        let store = self.store;
        for (shard, pool) in self.guards() {
            if group.pages.iter().any(|&p| store.shard_of(p) == *shard) {
                pool.add_group(group.clone());
            }
        }
    }
}

/// All shards locked at once (ascending) — the checkpoint daemon's
/// consistent cut, from [`ShardedStore::snapshot`].
pub struct StoreSnapshot<'a> {
    guards: Vec<MutexGuard<'a, BufferPool>>,
}

impl StoreSnapshot<'_> {
    /// The merged dirty-page table across every shard, in page-id
    /// order — what a fuzzy checkpoint records.
    #[must_use]
    pub fn dirty_page_table(&self) -> Vec<(PageId, Lsn)> {
        let shards = self.guards.iter();
        let entries = shards.flat_map(|g| g.coldest_dirty(None, usize::MAX));
        let mut table: Vec<(PageId, Lsn)> = entries.map(|(rec, id)| (id, rec)).collect();
        table.sort_unstable();
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redo_workload::pages::SlotId;

    const SPP: u16 = 4;

    fn write(store: &ShardedStore, page: PageId, lsn: Lsn, v: u64) {
        let mut lease = store.lock_pages(&[page]);
        lease.fetch(page, SPP, Lsn::ZERO).unwrap();
        lease.update(page, lsn, |p| p.set(SlotId(0), v)).unwrap();
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ShardedStore::new(0).n_shards(), 1);
        assert_eq!(ShardedStore::new(3).n_shards(), 4);
        assert_eq!(ShardedStore::new(8).n_shards(), 8);
    }

    #[test]
    fn pages_distribute_by_low_bits() {
        let store = ShardedStore::new(4);
        assert_eq!(store.shard_of(PageId(0)), 0);
        assert_eq!(store.shard_of(PageId(5)), 1);
        assert_eq!(store.shard_of(PageId(7)), 3);
    }

    #[test]
    fn update_and_flush_install_on_disk() {
        let store = ShardedStore::new(4);
        write(&store, PageId(3), Lsn(2), 9);
        assert_eq!(store.dirty_pages(), vec![PageId(3)]);
        store.flush_page(PageId(3), Lsn(10)).unwrap();
        assert!(store.dirty_pages().is_empty());
        assert_eq!(store.disk().page_lsn(PageId(3)), Lsn(2));
        assert_eq!(store.flushes(), 1);
    }

    #[test]
    fn wal_rule_still_blocks_sharded_flushes() {
        let store = ShardedStore::new(2);
        write(&store, PageId(0), Lsn(5), 1);
        let err = store.flush_page(PageId(0), Lsn(3)).unwrap_err();
        assert!(matches!(err, crate::SimError::WalViolation { .. }));
        assert_eq!(store.dirty_pages(), vec![PageId(0)]);
    }

    #[test]
    fn cross_shard_atomic_group_flushes_together() {
        // Pages 0 and 1 land in different shards of a 2-shard store;
        // the group closure must pull the partner shard into the flush.
        let store = ShardedStore::new(2);
        {
            let pages = [PageId(0), PageId(1)];
            let mut lease = store.lock_pages(&pages);
            for &p in &pages {
                lease.fetch(p, SPP, Lsn::ZERO).unwrap();
                lease.update(p, Lsn(3), |pg| pg.set(SlotId(0), 7)).unwrap();
            }
            lease.add_atomic_group(&pages, Lsn(3));
        }
        store.flush_page(PageId(0), Lsn(10)).unwrap();
        assert_eq!(store.disk().page_lsn(PageId(0)), Lsn(3));
        assert_eq!(store.disk().page_lsn(PageId(1)), Lsn(3));
        assert!(store.dirty_pages().is_empty());
    }

    #[test]
    fn cross_shard_group_refusal_is_atomic() {
        // Partner violates the WAL rule: neither page may reach disk.
        let store = ShardedStore::new(2);
        write(&store, PageId(0), Lsn(2), 1);
        write(&store, PageId(1), Lsn(5), 2);
        store
            .lock_pages(&[PageId(0), PageId(1)])
            .add_atomic_group(&[PageId(0), PageId(1)], Lsn(2));
        let err = store.flush_page(PageId(0), Lsn(3)).unwrap_err();
        assert!(matches!(err, crate::SimError::WalViolation { .. }));
        assert_eq!(store.disk().page_lsn(PageId(0)), Lsn::ZERO);
        assert_eq!(store.disk().page_lsn(PageId(1)), Lsn::ZERO);
        assert_eq!(store.dirty_pages().len(), 2);
    }

    #[test]
    fn overlapping_groups_chain_across_three_shards() {
        // {0,1}@2 and {1,2}@4 in a 4-shard store: flushing page 0 must
        // widen its lock set twice and carry all three pages.
        let store = ShardedStore::new(4);
        write(&store, PageId(0), Lsn(2), 1);
        write(&store, PageId(1), Lsn(4), 2);
        write(&store, PageId(2), Lsn(4), 3);
        store
            .lock_pages(&[PageId(0), PageId(1)])
            .add_atomic_group(&[PageId(0), PageId(1)], Lsn(2));
        store
            .lock_pages(&[PageId(1), PageId(2)])
            .add_atomic_group(&[PageId(1), PageId(2)], Lsn(4));
        store.flush_page(PageId(0), Lsn(10)).unwrap();
        assert_eq!(store.disk().page_lsn(PageId(2)), Lsn(4));
        assert!(store.dirty_pages().is_empty());
    }

    #[test]
    fn cross_shard_constraint_blocks_until_prerequisite_durable() {
        // Blocked page 0 (shard 0) requires page 1 (shard 1) on disk:
        // the constraint lives in shard 0 and checks the shared disk,
        // so no cross-shard lock is needed to enforce it.
        let store = ShardedStore::new(2);
        write(&store, PageId(1), Lsn(5), 1);
        write(&store, PageId(0), Lsn(6), 2);
        store
            .lock_pages(&[PageId(0), PageId(1)])
            .add_constraint(Constraint {
                blocked: PageId(0),
                blocked_above: Lsn(5),
                requires: PageId(1),
                required_lsn: Lsn(5),
            });
        let err = store.flush_page(PageId(0), Lsn(10)).unwrap_err();
        assert_eq!(
            err,
            crate::SimError::WriteOrderViolation {
                blocked: PageId(0),
                requires: PageId(1),
                required_lsn: Lsn(5)
            }
        );
        store.flush_page(PageId(1), Lsn(10)).unwrap();
        store.flush_page(PageId(0), Lsn(10)).unwrap();
        assert_eq!(store.disk().page_lsn(PageId(0)), Lsn(6));
    }

    /// Every flush-order edge requiring `page`, in whichever shard.
    fn edges_requiring(store: &ShardedStore, page: PageId) -> Vec<(PageId, Lsn)> {
        let shards = store.shards.iter();
        let edges: Vec<_> = shards
            .flat_map(|s| s.lock().edges().collect::<Vec<_>>())
            .collect();
        let requiring = edges.into_iter().filter(|&(r, _, _)| r == page);
        requiring.map(|(_, b, l)| (b, l)).collect()
    }

    /// `page`'s constraint list, from its own shard.
    fn list_of(store: &ShardedStore, page: PageId) -> Vec<Constraint> {
        let pool = store.shards[store.shard_of(page)].lock();
        let list = pool.constraints().into_iter();
        list.filter(|c| c.blocked == page).collect()
    }

    /// One read-`read`-write-`written` operation at `lsn`, under one
    /// lease, as `SharedDb` runs it.
    fn cross_write(store: &ShardedStore, read: PageId, written: PageId, lsn: Lsn) {
        let mut lease = store.lock_pages(&[read, written]);
        lease.fetch(read, SPP, Lsn::ZERO).unwrap();
        lease.fetch(written, SPP, Lsn::ZERO).unwrap();
        lease
            .update(written, lsn, |p| p.set(SlotId(0), lsn.0))
            .unwrap();
        lease.add_constraint(Constraint {
            blocked: read,
            blocked_above: lsn,
            requires: written,
            required_lsn: lsn,
        });
    }

    #[test]
    fn a_flush_leaves_no_edge_requiring_the_page_it_wrote() {
        // x (shard 1) read, y (shard 0) written: the edge lives in y's
        // shard, the constraint in x's list in x's shard.
        let store = ShardedStore::new(2);
        let (x, y) = (PageId(1), PageId(0));
        cross_write(&store, x, y, Lsn(3));
        write(&store, x, Lsn(4), 7);
        assert_eq!(edges_requiring(&store, y), vec![(x, Lsn(3))]);
        assert!(store.shards[1].lock().edges().next().is_none());
        assert_eq!(list_of(&store, x).len(), 1);
        assert_eq!(store.flush_unless_refused(x, Lsn(10)), Ok(false));
        store.flush_page(y, Lsn(10)).unwrap();
        assert!(edges_requiring(&store, y).is_empty());
        assert!(store
            .shards
            .iter()
            .all(|s| s.lock().edges().next().is_none()));
        // Shard 0's flush could not reach x's list; x's own flush
        // prunes it, and the satisfied constraint refuses nothing.
        assert_eq!(list_of(&store, x).len(), 1);
        store.flush_page(x, Lsn(10)).unwrap();
        assert!(list_of(&store, x).is_empty());
        assert_eq!(store.disk().page_lsn(x), Lsn(4));
    }

    #[test]
    fn a_page_read_a_thousand_times_and_never_dirtied_keeps_a_bounded_list() {
        // x in another shard than the page written, then in the same one.
        for (n_shards, x) in [(2, PageId(1)), (4, PageId(4))] {
            let store = ShardedStore::new(n_shards);
            let y = PageId(0);
            let mut longest = 0;
            for i in 1..=1_000 {
                cross_write(&store, x, y, Lsn(i));
                store.flush_page(y, Lsn(i)).unwrap();
                longest = longest.max(list_of(&store, x).len());
                assert!(edges_requiring(&store, y).is_empty());
            }
            assert!(store.dirty_pages().is_empty(), "x was never dirtied");
            // Same shard: y's flush reached x's list itself. Another
            // shard: the list is pruned when it fills its allocation, so
            // it never outgrows its first one.
            let bound = if n_shards == 2 { 8 } else { 1 };
            assert!(longest <= bound, "{n_shards} shards: {longest} entries");
        }
    }

    /// Flushes coldest-first until nothing is dirty, each round landing
    /// a page — the controller's drain, run to the end.
    fn drain(store: &ShardedStore, stable_lsn: Lsn) {
        while let Some(&head) = store.coldest_dirty(None, 1).first() {
            let landed = store
                .flush_coldest(head, stable_lsn)
                .map(|(landed, _)| landed);
            assert_eq!(landed, Ok(true), "{:?} stalled", store.dirty_pages());
        }
    }

    #[test]
    fn coldest_first_drain_discharges_ordered_chains() {
        // The coldest page waits on a hotter one: the drain flushes the
        // prerequisite first, then the page it blocked.
        let store = ShardedStore::new(4);
        write(&store, PageId(0), Lsn(2), 1);
        write(&store, PageId(1), Lsn(3), 2);
        store
            .lock_pages(&[PageId(0), PageId(1)])
            .add_constraint(Constraint {
                blocked: PageId(0),
                blocked_above: Lsn::ZERO,
                requires: PageId(1),
                required_lsn: Lsn(3),
            });
        let head = store.coldest_dirty(None, 1)[0];
        assert_eq!(store.flush_coldest(head, Lsn(10)), Ok((true, 1)));
        assert_eq!(store.dirty_pages(), vec![PageId(0)]);
        drain(&store, Lsn(10));
        assert_eq!(store.disk().page_lsn(PageId(0)), Lsn(2));
        assert_eq!(store.disk().page_lsn(PageId(1)), Lsn(3));
    }

    #[test]
    fn snapshot_merges_dirty_page_tables_in_id_order() {
        let store = ShardedStore::new(4);
        write(&store, PageId(5), Lsn(7), 1);
        write(&store, PageId(2), Lsn(3), 2);
        write(&store, PageId(8), Lsn(9), 3);
        let snap = store.snapshot();
        assert_eq!(
            snap.dirty_page_table(),
            vec![
                (PageId(2), Lsn(3)),
                (PageId(5), Lsn(7)),
                (PageId(8), Lsn(9))
            ]
        );
    }

    #[test]
    fn dirty_count_follows_updates_and_flushes_across_shards() {
        let store = ShardedStore::new(4);
        assert_eq!(store.dirty_count(), 0);
        for p in [1, 2, 6] {
            write(&store, PageId(p), Lsn(u64::from(p)), 1);
        }
        write(&store, PageId(2), Lsn(9), 2);
        assert_eq!(store.dirty_count(), store.dirty_pages().len());
        assert_eq!(
            store.dirty_count(),
            store.snapshot().dirty_page_table().len()
        );
        assert_eq!(store.dirty_count(), 3);
        store.flush_page(PageId(6), Lsn(10)).unwrap();
        assert_eq!(store.dirty_count(), 2);
        drain(&store, Lsn(10));
        assert_eq!(store.dirty_count(), 0);
    }

    #[test]
    fn rec_lsn_tells_whether_a_listed_entry_still_stands() {
        // Page 0 alone, pages 1 and 2 bound into one atomic group in
        // different shards, page 3 dirty throughout.
        let store = ShardedStore::new(4);
        write(&store, PageId(0), Lsn(1), 1);
        {
            let pages = [PageId(1), PageId(2)];
            let mut lease = store.lock_pages(&pages);
            for &p in &pages {
                lease.fetch(p, SPP, Lsn::ZERO).unwrap();
                lease.update(p, Lsn(2), |pg| pg.set(SlotId(0), 2)).unwrap();
            }
            lease.add_atomic_group(&pages, Lsn(2));
        }
        write(&store, PageId(3), Lsn(3), 3);
        let listed = store.coldest_dirty(None, usize::MAX);
        let stands = |&(lsn, page): &(Lsn, PageId)| store.rec_lsn(page) == Some(lsn);
        // Dirty: every entry stands.
        assert_eq!(listed.len(), 4);
        assert!(listed.iter().all(stands));
        // Clean after a flush.
        store.flush_page(PageId(0), Lsn(10)).unwrap();
        assert_eq!(store.rec_lsn(PageId(0)), None);
        // A group mate flushed with the head: page 2 went with page 1.
        store.flush_page(PageId(1), Lsn(10)).unwrap();
        assert_eq!(store.rec_lsn(PageId(2)), None);
        // Re-dirtied at a later LSN: the listed entry is stale.
        write(&store, PageId(0), Lsn(4), 4);
        assert_eq!(store.rec_lsn(PageId(0)), Some(Lsn(4)));
        let standing: Vec<_> = listed.into_iter().filter(stands).collect();
        assert_eq!(standing, vec![(Lsn(3), PageId(3))]);
    }

    #[test]
    fn flush_coldest_walks_past_a_refused_head_to_its_prerequisite() {
        // Page 0 is coldest but may not pass LSN 1 until page 1 is
        // durable at 3; page 2, between them, is not logged far enough.
        let store = ShardedStore::new(4);
        write(&store, PageId(0), Lsn(1), 1);
        write(&store, PageId(2), Lsn(2), 2);
        write(&store, PageId(1), Lsn(3), 3);
        write(&store, PageId(0), Lsn(4), 4);
        write(&store, PageId(2), Lsn(9), 5);
        store
            .lock_pages(&[PageId(0), PageId(1)])
            .add_constraint(Constraint {
                blocked: PageId(0),
                blocked_above: Lsn(1),
                requires: PageId(1),
                required_lsn: Lsn(3),
            });
        let head = store.coldest_dirty(None, 1)[0];
        assert_eq!(head, (Lsn(1), PageId(0)));
        assert_eq!(store.flush_unless_refused(PageId(0), Lsn(4)), Ok(false));
        assert_eq!(store.flush_unless_refused(PageId(2), Lsn(4)), Ok(false));
        assert_eq!(store.flush_coldest(head, Lsn(4)), Ok((true, 2)));
        assert_eq!(store.dirty_pages(), vec![PageId(0), PageId(2)]);
        // The prerequisite landed: the same head now flushes unrefused,
        // and what is left stalls on the WAL rule alone.
        assert_eq!(store.flush_coldest(head, Lsn(4)), Ok((true, 0)));
        let head = store.coldest_dirty(None, 1)[0];
        assert_eq!(store.flush_coldest(head, Lsn(4)), Ok((false, 1)));
        assert_eq!(store.flush_unless_refused(PageId(2), Lsn(9)), Ok(true));
        assert!(store.coldest_dirty(None, 1).is_empty());
    }

    proptest::proptest! {
        /// The controller's listing: after any run of one- and two-page
        /// writes and flushes, the merged walk from any cursor is the
        /// consistent cut's table in `(recLSN, page)` order behind it.
        #[test]
        fn coldest_dirty_is_the_snapshot_table_in_rec_lsn_order_from_any_cursor(
            n_shards in 1usize..9,
            steps in proptest::collection::vec((0u8..4, 0u32..40), 0..80),
            n in proptest::option::of(0usize..12),
        ) {
            let store = ShardedStore::new(n_shards);
            for (at, (what, page)) in steps.into_iter().enumerate() {
                let (id, mate, lsn) = (PageId(page), PageId(page / 2 + 20), Lsn(at as u64 + 1));
                match what {
                    0 => {
                        // A page never cached has no frame to flush.
                        let _ = store.flush_page(id, Lsn(u64::MAX));
                    }
                    1 => {
                        // One operation, two pages: equal recLSNs.
                        let mut lease = store.lock_pages(&[id, mate]);
                        for p in [id, mate] {
                            lease.fetch(p, SPP, Lsn::ZERO).unwrap();
                            lease.update(p, lsn, |pg| pg.set(SlotId(0), 1)).unwrap();
                        }
                        lease.add_atomic_group(&[id, mate], lsn);
                    }
                    _ => write(&store, id, lsn, 1),
                }
            }
            let mut table: Vec<(Lsn, PageId)> = (store.snapshot().dirty_page_table().into_iter())
                .map(|(id, rec)| (rec, id))
                .collect();
            table.sort_unstable();
            let n = n.unwrap_or(usize::MAX);
            // From the head, from every entry, and from a cursor that is
            // in no shard's order.
            let cursors = table.iter().copied().map(Some);
            for cursor in cursors.chain([None, Some((Lsn(7), PageId(999)))]) {
                let behind = table.iter().copied().filter(|&entry| Some(entry) > cursor);
                let expect: Vec<(Lsn, PageId)> = behind.take(n).collect();
                proptest::prop_assert_eq!(store.coldest_dirty(cursor, n), expect);
            }
        }
    }

    /// The store's [`ShardedStore::flush_coldest`], on a lone pool.
    fn pool_flush_coldest(pool: &mut BufferPool, disk: &mut Disk, stable: Lsn) -> (bool, u64) {
        let order: Vec<(Lsn, PageId)> = pool.coldest_dirty(None, usize::MAX).collect();
        let mut refused = 0;
        for (_, page) in order {
            match pool.flush_page(disk, page, stable) {
                Ok(()) => return (true, refused),
                Err(SimError::WalViolation { .. } | SimError::WriteOrderViolation { .. }) => {}
                Err(e) => panic!("{e}"),
            }
            refused += 1;
        }
        (false, refused)
    }

    /// `page`'s constraint list in a lone pool.
    fn pool_list(pool: &BufferPool, page: PageId) -> Vec<Constraint> {
        let list = pool.constraints().into_iter();
        list.filter(|c| c.blocked == page).collect()
    }

    proptest::proptest! {
        /// The store's locking adds no decision: one unbounded pool and
        /// a store of 1 and of 4 shards run the same writes, cross-page
        /// constraints, two-page groups, flushes, coldest-first flushes
        /// and log forces. Every flush answers the same on all three,
        /// and after every step the disks, the dirty-page tables and the
        /// recLSN orders are equal. A flushed page's own list holds in
        /// the store exactly what it holds in the pool: the write pruned
        /// what other shards' flushes satisfied.
        #[test]
        fn the_store_decides_every_flush_as_one_pool_does(
            steps in proptest::collection::vec((0u8..6, 0u32..8, 0u32..8), 1..120),
        ) {
            let mut pool = BufferPool::new(None);
            let mut disk = Disk::new();
            let stores = [ShardedStore::new(1), ShardedStore::new(4)];
            let (mut next, mut stable) = (1u64, Lsn::ZERO);
            for (what, a, b) in steps {
                let (id, other, lsn) = (PageId(a), PageId(b), Lsn(next));
                match what {
                    0 => {
                        pool.fetch(&mut disk, id, SPP, Lsn::ZERO).unwrap();
                        pool.update(id, lsn, |p| p.set(SlotId(0), next)).unwrap();
                        for store in &stores {
                            write(store, id, lsn, next);
                        }
                    }
                    1 | 2 if a != b => {
                        // Read `other`, write `id` (what 1), or write both
                        // as one atomic group (what 2).
                        let written: &[PageId] = if what == 1 { &[id] } else { &[id, other] };
                        let c = Constraint {
                            blocked: other,
                            blocked_above: lsn,
                            requires: id,
                            required_lsn: lsn,
                        };
                        for p in [id, other] {
                            pool.fetch(&mut disk, p, SPP, Lsn::ZERO).unwrap();
                        }
                        for &p in written {
                            pool.update(p, lsn, |pg| pg.set(SlotId(1), next)).unwrap();
                        }
                        if what == 1 {
                            pool.add_constraint(c);
                        } else {
                            pool.add_atomic_group(written.iter().copied(), lsn);
                        }
                        for store in &stores {
                            let mut lease = store.lock_pages(&[id, other]);
                            for p in [id, other] {
                                lease.fetch(p, SPP, Lsn::ZERO).unwrap();
                            }
                            for &p in written {
                                lease.update(p, lsn, |pg| pg.set(SlotId(1), next)).unwrap();
                            }
                            if what == 1 {
                                lease.add_constraint(c);
                            } else {
                                lease.add_atomic_group(written, lsn);
                            }
                        }
                    }
                    3 => {
                        let flushed = pool.flush_page(&mut disk, id, stable);
                        for store in &stores {
                            proptest::prop_assert_eq!(&store.flush_page(id, stable), &flushed);
                            if flushed.is_ok() {
                                proptest::prop_assert_eq!(list_of(store, id), pool_list(&pool, id));
                            }
                        }
                    }
                    4 => {
                        let landed = pool_flush_coldest(&mut pool, &mut disk, stable);
                        for store in &stores {
                            let by_store = match store.coldest_dirty(None, 1).first() {
                                Some(&head) => store.flush_coldest(head, stable).unwrap(),
                                None => (false, 0),
                            };
                            proptest::prop_assert_eq!(by_store, landed);
                        }
                    }
                    5 => stable = Lsn(next - 1),
                    _ => {}
                }
                next += 1;
                let by_rec_lsn: Vec<(Lsn, PageId)> = pool.coldest_dirty(None, usize::MAX).collect();
                for store in &stores {
                    proptest::prop_assert_eq!(store.disk().pages(), disk.pages());
                    proptest::prop_assert_eq!(store.snapshot().dirty_page_table(), pool.dirty_page_table());
                    proptest::prop_assert_eq!(&store.coldest_dirty(None, usize::MAX), &by_rec_lsn);
                    for page in (0..8).map(PageId) {
                        let standing = |c: &Constraint| store.disk().page_lsn(c.requires) < c.required_lsn;
                        let listed: Vec<Constraint> = list_of(store, page).into_iter().filter(standing).collect();
                        proptest::prop_assert_eq!(listed, pool_list(&pool, page));
                    }
                }
            }
        }
    }

    #[test]
    fn into_disk_keeps_installed_state_only() {
        let store = ShardedStore::new(2);
        write(&store, PageId(0), Lsn(1), 4);
        store.flush_page(PageId(0), Lsn(10)).unwrap();
        write(&store, PageId(1), Lsn(2), 5);
        let disk = store.into_disk();
        assert_eq!(disk.page_lsn(PageId(0)), Lsn(1));
        assert_eq!(disk.page_lsn(PageId(1)), Lsn::ZERO, "volatile dirt lost");
    }

    #[test]
    fn concurrent_leases_and_flushes_do_not_deadlock() {
        // Threads hammer overlapping page sets while a flusher sweeps;
        // the ascending shard order must keep everyone live.
        let store = std::sync::Arc::new(ShardedStore::new(4));
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let store = std::sync::Arc::clone(&store);
                s.spawn(move || {
                    for i in 0..50u64 {
                        let pages = [PageId(t), PageId((t + 1) % 4), PageId(t + 4)];
                        let mut lease = store.lock_pages(&pages);
                        for &p in &pages {
                            lease.fetch(p, SPP, Lsn::ZERO).unwrap();
                        }
                        let lsn = Lsn(u64::from(t) * 1000 + i + 1);
                        for &p in &pages {
                            lease.update(p, lsn, |pg| pg.set(SlotId(0), i)).unwrap();
                        }
                        lease.add_atomic_group(&pages, lsn);
                    }
                });
            }
            let store = std::sync::Arc::clone(&store);
            s.spawn(move || {
                for _ in 0..100 {
                    for id in store.dirty_pages() {
                        let _ = store.flush_page(id, Lsn(u64::MAX));
                    }
                    std::thread::yield_now();
                }
            });
        });
        drain(&store, Lsn(u64::MAX));
        assert!(store.dirty_pages().is_empty());
    }
}
