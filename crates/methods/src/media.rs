//! Media recovery: rebuild pages lost to media failure from
//! `archive ∥ live` plus the last checkpoint image.
//!
//! The crash model so far assumed the page files survive every failure
//! — only *volatile* state and in-flight transfers were at risk. Media
//! failure breaks that assumption: a page's durable copy is destroyed
//! outright ([`redo_sim::disk::Disk::destroy_page`], or a page file
//! deleted out-of-band), and reads answer [`SimError::MediaLoss`]
//! instead of data. No page-LSN redo test can help — there is no page
//! to test.
//!
//! What makes the loss recoverable is the archive
//! ([`redo_sim::wal::ShardedLog::archive_prefix`] retires drained
//! frames below each shard's live origin, it never destroys them): per
//! shard, `archive ∥ live` is the complete frame history from LSN 1 —
//! until [`compact_archive`](redo_sim::wal::ShardedLog::compact_archive)
//! cuts it or a log file is lost. A history with a hole cannot rebuild
//! anything: the restore counts one record per stable LSN and otherwise
//! answers the loss ([`rebuild_images`]). Over a whole history,
//! [`ShardedLog::history`](redo_sim::wal::ShardedLog::history) merges
//! it in LSN order, each record borrowed from the image that holds it.
//! The rebuild parses each operation record in place and replays it at
//! once into a scratch image of every page the history names
//! ([`ScratchImage::replay`]): one `u64` slot array and one page LSN per
//! page, each page numbered densely on first sight. Nothing of a record
//! outlives its step, so the restore holds memory for the pages, not
//! for the records. Once the walk ends every scratch page holds its
//! exact content at the stable LSN: the paper's installation-graph
//! reading, where the full stable log is an installation sequence for
//! the maximal explainable state.
//!
//! Installing a *final* image for page `x` is ahead of where the redo
//! scan may need `x` mid-replay: a generalized operation `O` that read
//! `x` and wrote `y` replays against the recovery cache's fetch of `x`,
//! and if `y` is stale the fetch must see `x` as of `O`'s LSN, not the
//! final value. The fix is the **transitive closure**
//! ([`ScratchImage::closure`]): any operation whose read-or-write
//! footprint meets the rebuild set has its stale written pages pulled
//! in too (whole write sets at a time, preserving install-atomicity),
//! to fixpoint. The same walk records what the fixpoint needs: for each
//! record that names two or more pages, an edge from every page it
//! touches to every page it writes that the disk holds stale, the disk
//! page LSN read once per page and only for such records. The closure is
//! a worklist from the lost pages over those edges, sorted and
//! deduplicated. Every record touching the closure is then *skipped* by
//! the redo test — its written pages already carry their final images —
//! so no replay ever reads a rebuilt page at the wrong moment. Closure
//! images are exact, so over-approximating is always sound.
//!
//! Crash-safety: the closure's images land together, through one
//! faultable
//! [`Disk::write_pages_atomic`](redo_sim::disk::Disk::write_pages_atomic).
//! The closure is computed *from* the disk — seeded by the lost marks,
//! grown through stale written pages — so a part-installed closure
//! would not be re-derived: a final image installed on a page that was
//! never lost looks merely "not stale" to the next recovery, which then
//! no longer reaches that page's earlier readers and replays them
//! against the wrong moment. All or nothing keeps the rebuild
//! idempotent: a crash at the install leaves every lost page still
//! marked lost — the mark is durable media state — and the next
//! recovery recomputes the same closure and images and finishes the job.

use std::collections::{BTreeMap, BTreeSet};

use redo_sim::cache::FrameTable;
use redo_sim::db::Db;
use redo_sim::page::Page;
use redo_sim::{SimError, SimResult};
use redo_theory::log::Lsn;
use redo_workload::pages::{Cell, OpCells, PageId, PageOp, SlotId};

use crate::generalized::Generalized;
use crate::ondemand::OnDemand;
use crate::oprecord::PageOpPayload;
use crate::{redo, RecoveryMethod, RecoveryStats};

/// Generalized-LSN recovery (online fuzzy checkpoints, archive-tier
/// truncation) that additionally survives **media failure**: restart
/// detects destroyed page files and rebuilds them from
/// `archive ∥ live` before running the ordinary redo scan.
#[derive(Clone, Copy, Debug, Default)]
pub struct Media;

/// Every page the durable history names, replayed from genesis to the
/// stable LSN, and the page edges the rebuild's closure grows along —
/// both from one forward walk of the history ([`ScratchImage::replay`]).
///
/// The whole history replays, not only the records the lost pages'
/// final images depend on: the walk reads and parses every record
/// anyway, and replaying a parsed record costs less than keeping what a
/// backward slice would need to pick it out.
#[derive(Debug)]
pub struct ScratchImage {
    /// Slots per page: each page's share of `slots`.
    slots_per_page: u16,
    /// The page behind each dense number.
    pages: Vec<PageId>,
    /// The dense number of each page.
    numbers: FrameTable<u32>,
    /// Dense page `p`'s slots, at `p * slots_per_page`.
    slots: Vec<u64>,
    /// Each dense page's LSN: its last writer's, or zero.
    lsns: Vec<Lsn>,
    /// Each dense page's LSN on disk, read on first need.
    disk_lsns: Vec<Option<Lsn>>,
    /// `from << 32 | to`: a record that touched page `from` wrote page
    /// `to`, which the disk holds older than that record. Sorted and
    /// deduplicated once the walk ends.
    edges: Vec<u64>,
    /// Every record read, checkpoints included: the stable LSN when the
    /// history is whole, since the merge yields each LSN once.
    yielded: u64,
}

/// The dense number after `count` pages.
///
/// # Errors
///
/// [`SimError::FieldOverflow`] when `count` exceeds `u32::MAX`: a
/// wrapped number would name another page's slots.
fn dense(count: usize) -> SimResult<u32> {
    u32::try_from(count).map_err(|_| SimError::FieldOverflow {
        field: "media scratch pages",
        value: count as u64,
    })
}

impl ScratchImage {
    /// Replays every operation record of `db`'s durable history —
    /// `archive ∥ live` up to the stable LSN ([`ShardedLog::history`])
    /// — into a zeroed scratch page per page it names, reading each
    /// record in place; checkpoint records are checked and passed over.
    /// A record that names two or more pages adds an edge from each of
    /// them to each page it writes whose disk page LSN is below its own.
    ///
    /// [`ShardedLog::history`]: redo_sim::wal::ShardedLog::history
    ///
    /// # Errors
    ///
    /// Log or archive corruption; [`SimError::FieldOverflow`] for a
    /// cell whose slot lies past the page geometry, or for a history
    /// naming more than `u32::MAX` pages.
    pub fn replay(db: &Db<PageOpPayload>) -> SimResult<ScratchImage> {
        let slots_per_page = db.geometry.slots_per_page;
        let mut image = ScratchImage {
            slots_per_page,
            pages: Vec::new(),
            numbers: FrameTable::new(),
            slots: Vec::new(),
            lsns: Vec::new(),
            disk_lsns: Vec::new(),
            edges: Vec::new(),
            yielded: 0,
        };
        // One record's cells, reads then writes, as (dense page, cell),
        // and the values it read: buffers reused record after record.
        let mut cells: Vec<(u32, Cell)> = Vec::new();
        let mut read_values: Vec<u64> = Vec::new();
        // An operation names its pages in runs (a read-modify-write
        // reads and writes one page): look each run up once.
        let mut last: Option<(PageId, u32)> = None;
        for rec in db.log.history(db.log.stable_lsn()) {
            let rec = rec?;
            image.yielded += 1;
            let Some(op) = rec.payload.parse(PageOpPayload::op_view)? else {
                continue;
            };
            cells.clear();
            for cell in op.reads().chain(op.writes()) {
                if cell.slot.0 >= slots_per_page {
                    return Err(SimError::FieldOverflow {
                        field: "page-op slot",
                        value: cell.slot.0.into(),
                    });
                }
                let p = match last {
                    Some((named, p)) if named == cell.page => p,
                    _ => {
                        let p = image.number(cell.page)?;
                        last = Some((cell.page, p));
                        p
                    }
                };
                cells.push((p, cell));
            }
            let (reads, writes) = cells.split_at(op.reads().len());
            read_values.clear();
            read_values.extend(reads.iter().map(|&(p, cell)| *image.slot(p, cell.slot)));
            for &(p, cell) in writes {
                *image.slot(p, cell.slot) = PageOp::output_of(op.id, op.f_seed, cell, &read_values);
                image.lsns[p as usize] = rec.lsn;
            }
            if cells.iter().any(|&(p, _)| p != cells[0].0) {
                image.link(&cells, reads.len(), rec.lsn, db);
            }
        }
        image.edges.sort_unstable();
        image.edges.dedup();
        Ok(image)
    }

    /// `page`'s dense number, assigned — with a zeroed scratch page —
    /// on first sight.
    fn number(&mut self, page: PageId) -> SimResult<u32> {
        if let Some(&p) = self.numbers.get(page) {
            return Ok(p);
        }
        let p = dense(self.pages.len())?;
        self.numbers.insert(page, p);
        self.pages.push(page);
        let slots = self.slots.len() + usize::from(self.slots_per_page);
        self.slots.resize(slots, 0);
        self.lsns.push(Lsn::ZERO);
        self.disk_lsns.push(None);
        Ok(p)
    }

    /// Dense page `p`'s scratch slot; the caller checked it against the
    /// geometry.
    fn slot(&mut self, p: u32, slot: SlotId) -> &mut u64 {
        &mut self.slots[p as usize * usize::from(self.slots_per_page) + usize::from(slot.0)]
    }

    /// Adds the edges of one record at `lsn` naming two or more pages:
    /// from each page of `cells` to each page of `cells[reads..]` the
    /// disk holds older than `lsn`.
    fn link(&mut self, cells: &[(u32, Cell)], reads: usize, lsn: Lsn, db: &Db<PageOpPayload>) {
        for &(to, cell) in &cells[reads..] {
            let on_disk =
                self.disk_lsns[to as usize].get_or_insert_with(|| db.disk.page_lsn(cell.page));
            if *on_disk >= lsn {
                continue;
            }
            for &(from, _) in cells {
                if from != to {
                    self.edge(u64::from(from) << 32 | u64::from(to));
                }
            }
        }
    }

    /// Pushes an edge. A full list is sorted and deduplicated before it
    /// may grow, and grows only if that left it over half full, so it
    /// holds at most about four times the distinct edges however many
    /// records repeat them.
    fn edge(&mut self, edge: u64) {
        let edges = &mut self.edges;
        if edges.len() == edges.capacity() {
            edges.sort_unstable();
            edges.dedup();
            if edges.len() * 2 > edges.capacity() {
                edges.reserve(edges.capacity());
            }
        }
        edges.push(edge);
    }

    /// The rebuild set: `lost`, grown to its transitive closure under
    /// shared-record footprints. Any record whose read-or-write
    /// footprint meets the set contributes every written page the disk
    /// has not installed (`page_lsn(page) < record LSN`) — whole write
    /// sets at a time, so a part-installed atomic group can never
    /// result from the rebuild. One worklist pass over the edges the
    /// replay recorded: a page entering the set follows its own.
    #[must_use]
    pub fn closure(&self, lost: &[PageId]) -> BTreeSet<PageId> {
        let mut closure: BTreeSet<PageId> = lost.iter().copied().collect();
        let mut in_closure = vec![false; self.pages.len()];
        let mut work: Vec<u32> = Vec::new();
        for &page in lost {
            if let Some(&p) = self.numbers.get(page) {
                in_closure[p as usize] = true;
                work.push(p);
            }
        }
        while let Some(from) = work.pop() {
            let start = self.edges.partition_point(|&e| e >> 32 < u64::from(from));
            let run = self.edges[start..]
                .iter()
                .take_while(|&&e| e >> 32 == u64::from(from));
            for &edge in run {
                let to = edge as u32;
                if !in_closure[to as usize] {
                    in_closure[to as usize] = true;
                    closure.insert(self.pages[to as usize]);
                    work.push(to);
                }
            }
        }
        closure
    }

    /// `page`'s content at the stable LSN, page LSN included: its
    /// scratch page, or a freshly formatted page when no record names
    /// it.
    #[must_use]
    pub fn image(&self, page: PageId) -> Page {
        let mut image = Page::new(self.slots_per_page);
        if let Some(&p) = self.numbers.get(page) {
            let at = p as usize * usize::from(self.slots_per_page);
            for slot in 0..self.slots_per_page {
                image.set(SlotId(slot), self.slots[at + usize::from(slot)]);
            }
            image.set_lsn(self.lsns[p as usize]);
        }
        image
    }
}

/// Computes the rebuild plan for the database's media-lost pages: one
/// [`ScratchImage::replay`] of the durable history, then the
/// [`ScratchImage::closure`] of the lost set, each page mapped to its
/// [`ScratchImage::image`]. Empty when nothing is lost. A lost page
/// with no logged history maps to a freshly formatted page: installing
/// it is what clears the loss honestly.
///
/// Pure analysis: nothing is written. Run it after
/// [`Db::repair_after_crash`] so torn pages have been restored to their
/// journaled pre-images and `page_lsn` answers from honest content.
///
/// # Errors
///
/// Log or archive corruption while reading `archive ∥ live`;
/// [`SimError::FieldOverflow`] for a record naming a slot past the page
/// geometry; [`SimError::MediaLoss`] for the first lost page when that
/// history has a hole — a compacted or lost archive — since Theorem 3
/// reaches a page's final image from genesis only by replaying every
/// operation.
pub fn rebuild_images(db: &Db<PageOpPayload>) -> SimResult<BTreeMap<PageId, Page>> {
    let lost = db.disk.lost_pages();
    if lost.is_empty() {
        return Ok(BTreeMap::new());
    }
    let scratch = ScratchImage::replay(db)?;
    if scratch.yielded != db.log.stable_lsn().0 {
        return Err(SimError::MediaLoss(lost[0]));
    }
    let closure = scratch.closure(&lost);
    Ok(closure
        .into_iter()
        .map(|page| (page, scratch.image(page)))
        .collect())
}

/// Installs rebuild images in one atomic multi-page write, skipping
/// pages the disk already carries at (or past) the image's LSN.
/// Returns the pages written. The disk alone is written: every restart
/// installs at open, on a freshly crashed and empty pool.
///
/// The write is one faultable event: an armed fault suppresses all of
/// it, leaving every lost page lost, to be re-detected and re-installed
/// by the next recovery. So does an install the backend cannot encode
/// (nothing lands, nothing is reported written); `restore` then
/// reports the loss.
pub fn install_images(db: &mut Db<PageOpPayload>, images: &BTreeMap<PageId, Page>) -> Vec<PageId> {
    let batch: Vec<(PageId, Page)> = images
        .iter()
        .filter(|(&id, image)| db.disk.is_lost(id) || db.disk.page_lsn(id) < image.lsn())
        .map(|(&id, image)| (id, image.clone()))
        .collect();
    let written: Vec<PageId> = batch.iter().map(|&(id, _)| id).collect();
    if batch.is_empty() || db.disk.write_pages_atomic(batch).is_err() {
        return Vec::new();
    }
    written
}

/// The media restore [`Media`] and both lazy faces open with, after
/// repair and before any gate or replay: [`rebuild_images`], then
/// [`install_images`].
///
/// # Errors
///
/// Log or archive corruption; [`SimError::MediaLoss`] for a lost page
/// the install did not land (a fault suppressed it).
pub(crate) fn restore(db: &mut Db<PageOpPayload>) -> SimResult<()> {
    let images = rebuild_images(db)?;
    install_images(db, &images);
    match images.keys().find(|&&page| db.disk.is_lost(page)) {
        Some(&lost) => Err(SimError::MediaLoss(lost)),
        None => Ok(()),
    }
}

impl RecoveryMethod for Media {
    type Payload = PageOpPayload;

    fn name(&self) -> &'static str {
        "media"
    }

    fn execute(&self, db: &mut Db<PageOpPayload>, op: &PageOp) -> SimResult<Lsn> {
        Generalized.execute(db, op)
    }

    fn checkpoint(&self, db: &mut Db<PageOpPayload>) -> SimResult<()> {
        redo::checkpoint_fuzzy(db, 0).map(|_| ())
    }

    fn recover(&self, db: &mut Db<PageOpPayload>) -> SimResult<RecoveryStats> {
        // Repair first: the rebuild closure consults page LSNs, which
        // must answer from honest (un-torn) durable content.
        db.repair_after_crash();
        restore(db)?;
        Generalized.recover(db)
    }

    fn ondemand_restart(
        &self,
        db: &mut Db<PageOpPayload>,
        probes: &[redo_workload::pages::Cell],
    ) -> Option<SimResult<(RecoveryStats, Vec<u64>)>> {
        // The on-demand open restores lost pages as this recovery does.
        Some(OnDemand::restart_with_probes(db, probes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, assert_matches_model};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use redo_sim::backend::BackendKind;
    use redo_sim::db::Geometry;

    fn workload(n: usize, seed: u64) -> Vec<PageOp> {
        testkit::cross_page_workload(n, 6, seed)
    }

    fn crashed_db(ops: &[PageOp], seed: u64) -> Db<PageOpPayload> {
        testkit::crashed_db(&Media, ops, seed, Some(9))
    }

    #[test]
    fn lost_page_rebuilds_to_the_undamaged_recovery_state() {
        for seed in 0..4 {
            let ops = workload(36, seed);
            let db = crashed_db(&ops, seed ^ 0xdead);
            let mut undamaged = db.clone();
            Generalized.recover(&mut undamaged).unwrap();
            for victim in db.disk.pages().into_iter().map(|(id, _)| id) {
                let mut damaged = db.clone();
                damaged.disk.destroy_page(victim);
                // Re-crash so the damage sits in a cold image, exactly
                // as restart would find it.
                damaged.crash();
                Media.recover(&mut damaged).unwrap();
                assert!(!damaged.disk.is_lost(victim));
                assert_eq!(
                    damaged.volatile_theory_state(),
                    undamaged.volatile_theory_state(),
                    "seed {seed}, victim {victim:?}"
                );
            }
        }
    }

    /// The rebuild plan as the parent computed it, kept as the oracle:
    /// every record of `pit_records(stable)` replayed from genesis into
    /// every page, and the closure grown pass by pass over the whole
    /// history until a pass adds nothing.
    fn oracle_plan(db: &Db<PageOpPayload>) -> BTreeMap<PageId, Page> {
        let lost = db.disk.lost_pages();
        if lost.is_empty() {
            return BTreeMap::new();
        }
        let spp = db.geometry.slots_per_page;
        let history = db.log.pit_records(db.log.stable_lsn()).unwrap();
        let records: Vec<(Lsn, PageOp)> = (history.into_iter())
            .filter_map(|rec| match rec.payload {
                PageOpPayload::Op(op) => Some((rec.lsn, op)),
                PageOpPayload::Checkpoint(_) => None,
            })
            .collect();
        let mut scratch: BTreeMap<PageId, Page> = BTreeMap::new();
        for (lsn, op) in &records {
            let read = |cell: &Cell| scratch.get(&cell.page).map_or(0, |p| p.get(cell.slot));
            let read_values: Vec<u64> = op.reads.iter().map(read).collect();
            for &cell in &op.writes {
                let page = scratch.entry(cell.page).or_insert_with(|| Page::new(spp));
                page.set(cell.slot, op.output(cell, &read_values));
                page.set_lsn(*lsn);
            }
        }
        let mut closure: BTreeSet<PageId> = lost.into_iter().collect();
        loop {
            let mut grew = false;
            for (lsn, op) in &records {
                let mut cells = op.reads.iter().chain(&op.writes);
                if !cells.any(|cell| closure.contains(&cell.page)) {
                    continue;
                }
                for w in op.writes.iter().map(|cell| cell.page) {
                    if !closure.contains(&w) && db.disk.page_lsn(w) < *lsn {
                        closure.insert(w);
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        let image = |id| scratch.get(&id).cloned().unwrap_or_else(|| Page::new(spp));
        closure.into_iter().map(|id| (id, image(id))).collect()
    }

    /// The plan — the closure set and every image, page LSN included —
    /// is the oracle's, for every single victim and for random victim
    /// pairs: cross-page, multi-page and blind histories, on one and
    /// four log shards, with and without a crash at a drain's fault
    /// point — on four shards, one that left two shards drained and the
    /// rest not.
    #[test]
    fn rebuild_plan_is_the_genesis_replay_oracle() {
        use rand::Rng;
        use redo_sim::fault::{FaultKind, FaultPlan};
        use redo_workload::pages::PageWorkloadSpec;
        let multi_page = |n, seed| {
            let spec = PageWorkloadSpec {
                n_ops: n,
                n_pages: 8,
                cross_page_fraction: 0.3,
                multi_page_fraction: 0.5,
                ..Default::default()
            };
            spec.generate(seed)
        };
        let workloads: [fn(usize, u64) -> Vec<PageOp>; 3] = [
            |n, seed| testkit::cross_page_workload(n, 6, seed),
            multi_page,
            |n, seed| testkit::blind_workload(n, 6, seed),
        ];
        let (mut plans, mut grown) = (0, 0);
        for (w, workload) in workloads.iter().enumerate() {
            for shards in [1, 4] {
                for partial in [false, true] {
                    let seed = (10 * w + shards) as u64;
                    let ops = workload(48, seed);
                    let mut db =
                        testkit::crashed_db_sharded(&Media, &ops, seed ^ 0x5eed, Some(9), shards);
                    db.repair_after_crash();
                    if partial {
                        // On four shards two drain and the crash stops
                        // the third; a single log stops before its own.
                        let (first, stable) = (db.log.first_stable(), db.log.stable_lsn());
                        let below = Lsn(first.0 + stable.0.saturating_sub(first.0) / 2 + 1);
                        let at = if shards == 4 { 3 } else { 1 };
                        db.arm_faults(FaultPlan {
                            at,
                            kind: FaultKind::Clean,
                        });
                        let archived = db.log.archived_bytes();
                        db.log.archive_prefix(below).unwrap();
                        assert!(db.fault_tripped(), "{w}/{shards}: the drain is interrupted");
                        let drained = db.log.archived_bytes() > archived;
                        assert_eq!(drained, shards == 4, "{w}/{shards}: shards drained");
                        db.crash();
                        db.repair_after_crash();
                    }
                    let victims: Vec<PageId> =
                        db.disk.pages().into_iter().map(|(id, _)| id).collect();
                    let mut rng = StdRng::seed_from_u64(seed);
                    let pairs = (0..8).map(|_| {
                        let a = victims[rng.gen_range(0..victims.len())];
                        let b = victims[rng.gen_range(0..victims.len())];
                        vec![a, b]
                    });
                    for lost in victims.iter().map(|&v| vec![v]).chain(pairs) {
                        let mut damaged = db.clone();
                        lost.iter().for_each(|&v| damaged.disk.destroy_page(v));
                        let plan = rebuild_images(&damaged).unwrap();
                        assert_eq!(
                            plan,
                            oracle_plan(&damaged),
                            "workload {w}, {shards} shards, partial {partial}, lost {lost:?}"
                        );
                        plans += 1;
                        grown += usize::from(plan.len() > damaged.disk.lost_pages().len());
                    }
                }
            }
        }
        assert!(
            grown * 10 >= plans,
            "the closure grows in {grown} of {plans} plans"
        );
    }

    /// Scratch pages are numbered in `u32`s: a count past `u32::MAX`
    /// is an error, never a wrapped number.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_page_count_past_u32_max_is_refused_not_wrapped() {
        let most = u32::MAX as usize;
        assert_eq!(dense(most), Ok(u32::MAX));
        assert_eq!(
            dense(most + 1),
            Err(SimError::FieldOverflow {
                field: "media scratch pages",
                value: u64::from(u32::MAX) + 1,
            })
        );
    }

    /// A logged cell whose slot lies past the page geometry would name
    /// the next page's scratch slot: the restore refuses it as an error
    /// instead of writing there or panicking.
    #[test]
    fn a_slot_past_the_geometry_is_an_error_not_another_pages_slot() {
        let mut db = crashed_db(&workload(20, 4), 0x51);
        let slots = db.geometry.slots_per_page;
        let past = Cell {
            page: PageId(0),
            slot: SlotId(slots),
        };
        let op = PageOp {
            id: 99,
            kind: redo_workload::pages::PageOpKind::Blind,
            reads: vec![],
            writes: vec![past],
            f_seed: 100,
        };
        db.log.append(PageOpPayload::Op(op)).unwrap();
        db.log.flush_all();
        db.crash();
        db.repair_after_crash();
        db.disk.destroy_page(PageId(1));
        assert_eq!(
            rebuild_images(&db),
            Err(SimError::FieldOverflow {
                field: "page-op slot",
                value: slots.into(),
            })
        );
    }

    /// Thousands of multi-page records over six pages repeat at most 30
    /// distinct edges, and the edge list holds about that many, not one
    /// per record. The records are logged straight, so no page reaches
    /// the disk and every written page is stale.
    #[test]
    fn the_edge_list_holds_its_distinct_edges_not_their_records() {
        let mut db: Db<PageOpPayload> = Db::new(Geometry::default());
        for op in testkit::cross_page_workload(4_000, 6, 45) {
            db.log.append(PageOpPayload::Op(op)).unwrap();
        }
        db.log.flush_all();
        let scratch = ScratchImage::replay(&db).unwrap();
        assert!(!scratch.edges.is_empty());
        assert!(scratch.edges.len() <= 6 * 5);
        assert!(
            scratch.edges.capacity() <= 4 * 6 * 5,
            "{} edges held for {} distinct",
            scratch.edges.capacity(),
            scratch.edges.len()
        );
    }

    #[test]
    fn rebuild_without_loss_is_empty_and_writes_nothing() {
        let ops = workload(20, 3);
        let mut db = crashed_db(&ops, 0xabc);
        db.repair_after_crash();
        let images = rebuild_images(&db).unwrap();
        assert!(images.is_empty());
        assert!(install_images(&mut db, &images).is_empty());
    }

    #[test]
    fn crash_mid_rebuild_is_idempotent() {
        use redo_sim::fault::{FaultKind, FaultPlan};
        let ops = workload(36, 21);
        let db = crashed_db(&ops, 0x21);
        let mut undamaged = db.clone();
        Generalized.recover(&mut undamaged).unwrap();
        let mut damaged = db.clone();
        // Destroy two pages so the install pass has at least two writes
        // to interrupt between.
        let victims: Vec<PageId> = damaged
            .disk
            .pages()
            .into_iter()
            .map(|(id, _)| id)
            .take(2)
            .collect();
        assert_eq!(victims.len(), 2, "workload touches at least two pages");
        for &v in &victims {
            damaged.disk.destroy_page(v);
        }
        damaged.crash();
        // The first page write of the recovery is the first rebuild
        // install; suppress it, killing the machine mid-rebuild.
        damaged.arm_faults(FaultPlan {
            at: 1,
            kind: FaultKind::Clean,
        });
        let interrupted = Media.recover(&mut damaged);
        assert!(damaged.fault_tripped(), "the install must hit the fault");
        // Whether the scan limped to an error or not, at least one
        // victim is still lost — the suppressed install left its mark.
        assert!(
            interrupted.is_err() || !damaged.disk.lost_pages().is_empty(),
            "a suppressed install cannot count as rebuilt"
        );
        damaged.crash();
        assert!(
            !damaged.disk.lost_pages().is_empty(),
            "media loss survives the re-crash"
        );
        Media.recover(&mut damaged).unwrap();
        assert!(damaged.disk.lost_pages().is_empty());
        assert_eq!(
            damaged.volatile_theory_state(),
            undamaged.volatile_theory_state(),
            "the re-run rebuild converges"
        );
        assert_matches_model(&mut damaged, &ops);
    }

    #[test]
    fn crash_mid_install_never_strands_a_stale_reader() {
        // Pages p < q < c. O0 seeds c (durable); O1 reads c, writes p;
        // O2 reads p, writes q; O3 overwrites p — so p's final image is
        // the wrong thing for a replay of O2 to read. Nothing but c ever
        // reaches disk, then c is destroyed. The closure is {c, p, q}: p
        // through O1 (touches c, p stale), q through O2 (touches p, q
        // stale). Installed page by page, a crash after p alone left p
        // "not stale" and never lost: the re-run's closure stopped at c,
        // O2 replayed against p's final image, and q came back wrong.
        use redo_workload::pages::{Cell, PageOpKind, SlotId};
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
        let (p, q, c) = (cell(0), cell(1), cell(2));
        let ops = [
            op(0, PageOpKind::Blind, vec![], vec![c]),
            op(1, PageOpKind::Generalized, vec![c], vec![p]),
            op(2, PageOpKind::Generalized, vec![p], vec![q]),
            op(3, PageOpKind::Physiological, vec![p], vec![p]),
        ];
        let mut db: Db<PageOpPayload> = Db::new(Geometry::default());
        Media.execute(&mut db, &ops[0]).unwrap();
        db.log.flush_all();
        db.pool
            .flush_page(&mut db.disk, c.page, db.log.stable_lsn())
            .unwrap();
        for op in &ops[1..] {
            Media.execute(&mut db, op).unwrap();
        }
        db.log.flush_all();
        db.crash();
        db.disk.destroy_page(c.page);
        let mut reference = db.clone();
        Media.recover(&mut reference).unwrap();
        assert_matches_model(&mut reference, &ops);
        // Both executors install through `restore`, at open: the
        // offline scan and the lazy one alike.
        every_crash_point_converges(&Media, &db, &reference);
        every_crash_point_converges(&OnDemand, &db, &reference);
    }

    /// Every `Clean` crash point of an interrupted `method.recover` of
    /// `db`, the install's among them, until a plan outlives the
    /// recovery: the re-crashed, re-recovered state is `reference`'s.
    fn every_crash_point_converges<M: RecoveryMethod<Payload = PageOpPayload>>(
        method: &M,
        db: &Db<PageOpPayload>,
        reference: &Db<PageOpPayload>,
    ) {
        use redo_sim::fault::{FaultKind, FaultPlan};
        for at in 1.. {
            let mut damaged = db.clone();
            damaged.arm_faults(FaultPlan {
                at,
                kind: FaultKind::Clean,
            });
            let interrupted = method.recover(&mut damaged);
            if !damaged.fault_tripped() {
                assert!(at > 1, "the install is a faultable event");
                break;
            }
            if at == 1 {
                // The suppressed install left the page lost, and no
                // gate or fetch may open over it.
                assert!(
                    matches!(interrupted, Err(redo_sim::SimError::MediaLoss(_))),
                    "{}: {interrupted:?}",
                    method.name()
                );
            }
            damaged.crash();
            method.recover(&mut damaged).unwrap();
            assert_eq!(
                damaged.volatile_theory_state(),
                reference.volatile_theory_state(),
                "{}: crash at event {at} of the interrupted recovery",
                method.name()
            );
        }
    }

    #[test]
    fn closure_pulls_in_readers_of_lost_pages() {
        // O1 seeds x; O2 reads x, writes y (generalized); O3 overwrites
        // x AFTER O2 — the reason x's final image is the wrong thing for
        // O2's replay to read. Crash with y never flushed, then destroy
        // x. The rebuild must install BOTH: x because it is lost, y
        // because replaying O2 against x's final image would read the
        // wrong moment.
        let ops = testkit::figure8_ops();
        let mut db: Db<PageOpPayload> = Db::new(Geometry::default());
        // x durable at O1 only; y (and x's O3 overwrite) never flushed.
        Media.execute(&mut db, &ops[0]).unwrap();
        db.log.flush_all();
        db.pool
            .flush_page(&mut db.disk, PageId(0), db.log.stable_lsn())
            .unwrap();
        Media.execute(&mut db, &ops[1]).unwrap();
        Media.execute(&mut db, &ops[2]).unwrap();
        db.log.flush_all();
        db.crash();
        let mut undamaged = db.clone();
        Generalized.recover(&mut undamaged).unwrap();
        let mut damaged = db.clone();
        damaged.disk.destroy_page(PageId(0));
        damaged.crash();
        damaged.repair_after_crash();
        let images = rebuild_images(&damaged).unwrap();
        assert!(images.contains_key(&PageId(0)), "the lost page itself");
        assert!(
            images.contains_key(&PageId(1)),
            "the stale reader's write page joins the closure: replaying \
             O2 against x's final image would read the wrong moment"
        );
        Media.recover(&mut damaged).unwrap();
        assert_eq!(
            damaged.volatile_theory_state(),
            undamaged.volatile_theory_state()
        );
        assert_matches_model(&mut damaged, &ops);
    }

    #[test]
    fn media_recovery_on_file_backend_survives_deleted_page_file() {
        let ops = workload(32, 5);
        let mut db: Db<PageOpPayload> = Db::on(
            redo_sim::backend::BackendKind::File,
            Geometry::default(),
            None,
        );
        let mut rng = StdRng::seed_from_u64(0x5);
        for (i, op) in ops.iter().enumerate() {
            Media.execute(&mut db, op).unwrap();
            db.chaos_flush(&mut rng, 0.7, 0.4).unwrap();
            if (i + 1) % 9 == 0 {
                Media.checkpoint(&mut db).unwrap();
            }
        }
        db.log.flush_all();
        db.crash();
        let mut undamaged = db.clone();
        Generalized.recover(&mut undamaged).unwrap();
        let victim = db
            .disk
            .pages()
            .first()
            .map(|&(id, _)| id)
            .expect("workload installed pages");
        // Delete the page file out-of-band, as a real media failure
        // would, and let crash-rescan detect the manifested-but-missing
        // file.
        let path = db
            .disk
            .dir()
            .expect("file backend has a directory")
            .join("pages")
            .join(format!("p{}.pg", victim.0));
        std::fs::remove_file(&path).unwrap();
        db.crash();
        assert!(db.disk.is_lost(victim), "rescan detects the missing file");
        Media.recover(&mut db).unwrap();
        assert!(!db.disk.is_lost(victim));
        assert_eq!(
            db.volatile_theory_state(),
            undamaged.volatile_theory_state()
        );
    }

    /// 200 cross-page operations on 8 pages under [`Media`], every page
    /// flushed and a checkpoint taken after each tenth, forced: the
    /// checkpoints' drains archive all history below the last one.
    fn archived_db(kind: BackendKind) -> Db<PageOpPayload> {
        let mut db = Db::on(kind, Geometry::default(), None);
        for (i, op) in testkit::cross_page_workload(200, 8, 7).iter().enumerate() {
            Media.execute(&mut db, op).unwrap();
            if (i + 1) % 10 == 0 {
                db.flush_everything().unwrap();
                Media.checkpoint(&mut db).unwrap();
            }
        }
        db.log.flush_all();
        assert_eq!(db.log.first_stable(), Lsn(220));
        assert!(db.log.archived_bytes() > 0);
        db
    }

    /// Destroys `db`'s first page and crashes: with a hole in the
    /// history, no replay reaches the page's final image, so the
    /// restore must answer the loss rather than install another state.
    fn assert_a_hole_is_media_loss(mut db: Db<PageOpPayload>) {
        let victim = db.disk.pages()[0].0;
        db.disk.destroy_page(victim);
        db.crash();
        assert_eq!(
            Media.recover(&mut db).err(),
            Some(SimError::MediaLoss(victim))
        );
        assert!(db.disk.is_lost(victim), "nothing was installed");
    }

    #[test]
    fn a_compacted_archive_leaves_lost_pages_lost() {
        let mut db = archived_db(BackendKind::Mem);
        let archived = db.log.archived_bytes();
        assert_eq!(db.log.compact_archive(db.log.first_stable()), archived);
        assert_a_hole_is_media_loss(db);
    }

    #[test]
    fn a_lost_archive_file_leaves_lost_pages_lost() {
        let db = archived_db(BackendKind::File);
        let wal = db.log.shard_path(0).expect("file backend has a path");
        std::fs::remove_file(wal).unwrap();
        assert_a_hole_is_media_loss(db);
    }
}
