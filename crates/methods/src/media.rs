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
//! The rebuild parses each operation record in place and keeps only
//! columns of it ([`PageHistory::read`]): per record its LSN, op id and
//! `f_seed`, per cell a dense `u32` page number and a `u16` slot, and
//! `u32` bounds between records — no owned cell list, no borrowed view.
//! From them it installs, for the lost pages, their exact content at
//! the stable LSN: the paper's installation-graph reading, where the
//! full stable log is an installation sequence for the maximal
//! explainable state.
//!
//! Installing a *final* image for page `x` is ahead of where the redo
//! scan may need `x` mid-replay: a generalized operation `O` that read
//! `x` and wrote `y` replays against the recovery cache's fetch of `x`,
//! and if `y` is stale the fetch must see `x` as of `O`'s LSN, not the
//! final value. The fix is the **transitive closure**
//! ([`PageHistory::closure`]): any operation whose read-or-write
//! footprint meets the rebuild set has its stale written pages pulled
//! in too (whole write sets at a time, preserving install-atomicity),
//! to fixpoint — one worklist pass over a page → touching-records
//! index, built once as compressed rows (the cells counted by page,
//! the counts summed into row starts, then one `u32` record position
//! per cell). Every record touching the closure is then *skipped* by
//! the redo test — its written pages already carry their final images
//! — so no replay ever reads a rebuilt page at the wrong moment.
//! Closure images are exact, so over-approximating is always sound.
//!
//! The images need no replay of the whole history. By Theorem 3 a
//! page's final value depends only on its ancestors along the
//! write-write and write-read edges, so [`PageHistory::slice`] walks
//! the history backward from the end with the closure's pages needed:
//! a record that writes a needed page is kept, and the pages it reads
//! become needed below it. [`PageHistory::replay`] runs the kept
//! records forward from genesis into a scratch image, each output
//! computed from the record's columns by [`PageOp::output_of`]; each
//! reads only pages whose every earlier writer was kept too.
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
use std::ops::Range;

use redo_sim::cache::FrameTable;
use redo_sim::db::Db;
use redo_sim::page::Page;
use redo_sim::wal::codec::CELL_BYTES;
use redo_sim::wal::ShardedLog;
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

/// The durable history's operation records, kept as columns: per
/// record its LSN, op id and `f_seed` — all an output needs besides the
/// cell and the values read ([`PageOp::output_of`]) — and per cell its
/// page, as a dense number, and its slot. What the rebuild's three steps
/// ([`PageHistory::closure`], [`PageHistory::slice`],
/// [`PageHistory::replay`]) index by, owned, so the history borrows
/// nothing from the log once read. Every position is a `u32`: a history
/// with more records, cells or pages than that is refused
/// ([`PageHistory::read`]), never wrapped.
#[derive(Debug)]
pub struct PageHistory {
    /// Each record's LSN, in LSN order.
    lsns: Vec<Lsn>,
    /// Each record's [`PageOp::id`].
    ids: Vec<u32>,
    /// Each record's [`PageOp::f_seed`].
    f_seeds: Vec<u64>,
    /// Each cell's page as a dense number, reads then writes, record
    /// after record.
    cells: Vec<u32>,
    /// Each cell's slot, beside `cells`.
    slots: Vec<SlotId>,
    /// Record `i` reads cells `bounds[2i]..bounds[2i + 1]` and writes
    /// cells `bounds[2i + 1]..bounds[2i + 2]`.
    bounds: Vec<u32>,
    /// The page behind each dense number.
    pages: Vec<PageId>,
    /// The dense number of each page.
    numbers: FrameTable<u32>,
    /// Every record read, checkpoints included: the stable LSN when the
    /// history is whole, since the merge yields each LSN once.
    yielded: u64,
}

/// `count` entries of the history's column `what`, as the `u32` its
/// positions are kept in.
///
/// # Errors
///
/// [`SimError::FieldOverflow`] naming `what` when `count` exceeds
/// `u32::MAX`: a wrapped position would index another record's cells.
fn column(what: &'static str, count: usize) -> SimResult<u32> {
    u32::try_from(count).map_err(|_| SimError::FieldOverflow {
        field: what,
        value: count as u64,
    })
}

impl PageHistory {
    /// Reads every operation record of `log` with LSN ≤ `upto` from
    /// `archive ∥ live` ([`ShardedLog::history`]); checkpoint records
    /// are checked and passed over.
    ///
    /// # Errors
    ///
    /// Log or archive corruption; [`SimError::FieldOverflow`] for a
    /// history of more than `u32::MAX` records, cells or pages.
    pub fn read(log: &ShardedLog<PageOpPayload>, upto: Lsn) -> SimResult<PageHistory> {
        let records = log.history(upto);
        // Sized once, from what the log already knows, so that no column
        // grows during the walk: the merge yields each LSN at most once,
        // and each cell a record names lies in the images' bytes.
        // Capacity the walk leaves untouched costs no page, and none is
        // reserved past `u32::MAX` records: the walk refuses more.
        let most_records = upto.min(log.stable_lsn()).0.min(u32::MAX.into()) as usize;
        let most_cells = records.image_bytes() / CELL_BYTES;
        let mut bounds = Vec::with_capacity(2 * most_records + 1);
        bounds.push(0);
        let mut history = PageHistory {
            lsns: Vec::with_capacity(most_records),
            ids: Vec::with_capacity(most_records),
            f_seeds: Vec::with_capacity(most_records),
            cells: Vec::with_capacity(most_cells),
            slots: Vec::with_capacity(most_cells),
            bounds,
            pages: Vec::new(),
            numbers: FrameTable::new(),
            yielded: 0,
        };
        // An operation names its pages in runs (a read-modify-write
        // reads and writes one page): look each run up once.
        let mut last: Option<(PageId, u32)> = None;
        let mut push = |history: &mut PageHistory, cell: Cell| -> SimResult<()> {
            let number = match last {
                Some((named, number)) if named == cell.page => number,
                _ => {
                    let number = history.number(cell.page)?;
                    last = Some((cell.page, number));
                    number
                }
            };
            history.cells.push(number);
            history.slots.push(cell.slot);
            Ok(())
        };
        for rec in records {
            let rec = rec?;
            history.yielded += 1;
            let Some(op) = rec.payload.parse(PageOpPayload::op_view)? else {
                continue;
            };
            for cell in op.reads() {
                push(&mut history, cell)?;
            }
            let cells = column("media history cells", history.cells.len())?;
            history.bounds.push(cells);
            for cell in op.writes() {
                push(&mut history, cell)?;
            }
            let cells = column("media history cells", history.cells.len())?;
            history.bounds.push(cells);
            history.lsns.push(rec.lsn);
            history.ids.push(op.id);
            history.f_seeds.push(op.f_seed);
            column("media history records", history.lsns.len())?;
        }
        Ok(history)
    }

    /// `page`'s dense number, assigned on first sight.
    fn number(&mut self, page: PageId) -> SimResult<u32> {
        if let Some(&number) = self.numbers.get(page) {
            return Ok(number);
        }
        let number = column("media history pages", self.pages.len())?;
        self.numbers.insert(page, number);
        self.pages.push(page);
        Ok(number)
    }

    /// How many operation records the history holds.
    #[must_use]
    pub fn records(&self) -> usize {
        self.lsns.len()
    }

    /// Every record's position, ascending. `read` refused a history of
    /// more records than a `u32` counts, so none is cut.
    fn positions(&self) -> Range<u32> {
        0..self.lsns.len() as u32
    }

    /// Record `i`'s read cells, as positions in `cells` and `slots`.
    fn reads(&self, i: u32) -> Range<usize> {
        let i = 2 * i as usize;
        self.bounds[i] as usize..self.bounds[i + 1] as usize
    }

    /// Record `i`'s written cells, as positions in `cells` and `slots`.
    fn writes(&self, i: u32) -> Range<usize> {
        let i = 2 * i as usize;
        self.bounds[i + 1] as usize..self.bounds[i + 2] as usize
    }

    /// The rebuild set: `lost`, grown to its transitive closure under
    /// shared-record footprints. Any record whose read-or-write
    /// footprint meets the set contributes every written page the disk
    /// has not installed (`page_lsn(page) < record LSN`) — whole write
    /// sets at a time, so a part-installed atomic group can never
    /// result from the rebuild. One worklist pass: a page entering the
    /// set visits the records that touch it, through a page →
    /// touching-records index built here.
    pub fn closure(&self, lost: &[PageId], page_lsn: impl Fn(PageId) -> Lsn) -> BTreeSet<PageId> {
        let n = self.pages.len();
        // The index, as compressed rows: the records that touch dense
        // page `p`, ascending, are `touching[start[p]..start[p + 1]]`,
        // one entry per cell — cells counted by page, the counts
        // summed into row starts, each record filled into its cells'
        // rows. A record that names a page twice sits beside itself.
        let mut start = vec![0u32; n + 1];
        for &p in &self.cells {
            start[p as usize + 1] += 1;
        }
        for p in 0..n {
            start[p + 1] += start[p];
        }
        let mut touching = vec![0u32; self.cells.len()];
        let mut next = start[..n].to_vec();
        for i in self.positions() {
            for &p in &self.cells[self.reads(i).start..self.writes(i).end] {
                let at = &mut next[p as usize];
                touching[*at as usize] = i;
                *at += 1;
            }
        }
        let mut closure: BTreeSet<PageId> = lost.iter().copied().collect();
        let mut in_closure = vec![false; n];
        let mut work: Vec<usize> = Vec::new();
        for &page in lost {
            if let Some(&p) = self.numbers.get(page) {
                in_closure[p as usize] = true;
                work.push(p as usize);
            }
        }
        while let Some(p) = work.pop() {
            let row = &touching[start[p] as usize..start[p + 1] as usize];
            for run in row.chunk_by(u32::eq) {
                let i = run[0];
                for &w in &self.cells[self.writes(i)] {
                    let w = w as usize;
                    if !in_closure[w] && page_lsn(self.pages[w]) < self.lsns[i as usize] {
                        in_closure[w] = true;
                        closure.insert(self.pages[w]);
                        work.push(w);
                    }
                }
            }
        }
        closure
    }

    /// The records the final images of `closure`'s pages depend on, as
    /// ascending positions in the history — Theorem 3 restricted to the
    /// closure's variables. Walking backward from the end with the
    /// closure's pages needed, a record that writes a needed page is
    /// kept, and every page it reads is needed from there down.
    #[must_use]
    pub fn slice(&self, closure: &BTreeSet<PageId>) -> Vec<u32> {
        let mut needed = vec![false; self.pages.len()];
        for page in closure {
            if let Some(&p) = self.numbers.get(*page) {
                needed[p as usize] = true;
            }
        }
        let mut kept = Vec::with_capacity(self.records());
        for i in self.positions().rev() {
            if self.cells[self.writes(i)]
                .iter()
                .any(|&w| needed[w as usize])
            {
                kept.push(i);
                for &r in &self.cells[self.reads(i)] {
                    needed[r as usize] = true;
                }
            }
        }
        kept.reverse();
        kept
    }

    /// Replays the `slice` records forward from genesis into a scratch
    /// image — reads from the scratch pages themselves, writes computed
    /// from the record's columns ([`PageOp::output_of`]) and tagged with
    /// its LSN — and returns each `closure` page's image: its exact
    /// content as of the last record read. A closure page no record
    /// writes maps to a freshly formatted page.
    #[must_use]
    pub fn replay(
        &self,
        slice: &[u32],
        closure: &BTreeSet<PageId>,
        slots_per_page: u16,
    ) -> BTreeMap<PageId, Page> {
        let mut scratch: Vec<Option<Page>> = vec![None; self.pages.len()];
        let mut read_values: Vec<u64> = Vec::new();
        for &i in slice {
            let at = i as usize;
            read_values.clear();
            for k in self.reads(i) {
                let page = scratch[self.cells[k] as usize].as_ref();
                read_values.push(page.map_or(0, |page| page.get(self.slots[k])));
            }
            for k in self.writes(i) {
                let p = self.cells[k] as usize;
                let cell = Cell {
                    page: self.pages[p],
                    slot: self.slots[k],
                };
                let page = scratch[p].get_or_insert_with(|| Page::new(slots_per_page));
                let value = PageOp::output_of(self.ids[at], self.f_seeds[at], cell, &read_values);
                page.set(cell.slot, value);
                page.set_lsn(self.lsns[at]);
            }
        }
        let mut image = |page: PageId| {
            let replayed = self
                .numbers
                .get(page)
                .and_then(|&p| scratch[p as usize].take());
            replayed.unwrap_or_else(|| Page::new(slots_per_page))
        };
        closure.iter().map(|&page| (page, image(page))).collect()
    }
}

/// Computes the rebuild plan for the database's media-lost pages:
/// [`PageHistory::closure`] of the lost set, mapped to the exact page
/// images at the stable LSN ([`PageHistory::slice`], then
/// [`PageHistory::replay`]). Empty when nothing is lost. A lost page
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
/// [`SimError::MediaLoss`] for the first lost page when that history
/// has a hole — a compacted or lost archive — since Theorem 3 reaches a
/// page's final image from genesis only by replaying every operation.
pub fn rebuild_images(db: &Db<PageOpPayload>) -> SimResult<BTreeMap<PageId, Page>> {
    let lost = db.disk.lost_pages();
    if lost.is_empty() {
        return Ok(BTreeMap::new());
    }
    let history = PageHistory::read(&db.log, db.log.stable_lsn())?;
    if history.yielded != db.log.stable_lsn().0 {
        return Err(SimError::MediaLoss(lost[0]));
    }
    let closure = history.closure(&lost, |page| db.disk.page_lsn(page));
    let slice = history.slice(&closure);
    Ok(history.replay(&slice, &closure, db.geometry.slots_per_page))
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

    /// A history column's positions are `u32`s: a count past
    /// `u32::MAX` is an error naming the column, never a wrapped
    /// position.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_column_past_u32_max_is_refused_not_wrapped() {
        let most = u32::MAX as usize;
        assert_eq!(column("media history cells", most), Ok(u32::MAX));
        assert_eq!(
            column("media history records", most + 1),
            Err(SimError::FieldOverflow {
                field: "media history records",
                value: u64::from(u32::MAX) + 1,
            })
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
