//! Stable storage: one page image, changed only by atomic writes and
//! installs, and the volatile System R staging area.
//!
//! The disk is the only component that survives [`crate::db::Db::crash`].
//! Its stable state is one [image](Disk::pages): the installed pages,
//! the torn marks with the pre-images their repair restores, the lost
//! marks, and the *master record* — the durable checkpoint pointer, the
//! log position recovery starts from. Every read is answered from it.
//! Page writes are atomic (the paper's model installs a write-graph
//! node's values atomically; page-granularity atomicity is the standard
//! realization), and so are [multi-page installs](Disk::write_pages_atomic).
//! For the logical method (§6.1), updated pages accumulate in a volatile
//! [staging area](Disk::write_staging) that becomes the installed state
//! only when the checkpoint record "swings the pointer"
//! ([`Disk::swing_pointer`]), one more atomic install.
//!
//! `Disk` owns the *protocol* too: fault-injector consultation and I/O
//! accounting. On [`BackendKind::File`] a `FileStorage` medium persists
//! every change to the image as it is made, and a crash rebuilds the
//! image from those files — what a reopening process would learn. On
//! [`BackendKind::Mem`] the image itself is the stable state.

use std::collections::{BTreeMap, BTreeSet};

use redo_theory::log::Lsn;
use redo_theory::state::{State, Value};
use redo_workload::pages::{PageId, SlotId};

use crate::backend::file::FileStorage;
use crate::backend::BackendKind;
use crate::error::{SimError, SimResult};
use crate::fault::{FaultDecision, FaultInjector, InjectedFault};
use crate::page::Page;

/// The stable state of a disk: what every page read answers from, and
/// what a file-backed disk rebuilds from its files at a crash.
#[derive(Clone, Debug, Default)]
pub(crate) struct Image {
    /// Installed page copies, raw: a torn page holds what landed.
    pub(crate) pages: BTreeMap<PageId, Page>,
    /// Torn pages, each with the pre-image its repair restores — `None`
    /// for damage no journal explains, which repair scrubs in place.
    pub(crate) torn: BTreeMap<PageId, Option<Page>>,
    /// Pages whose durable copy media failure destroyed.
    pub(crate) lost: BTreeSet<PageId>,
    /// The checkpoint pointer.
    pub(crate) master: Lsn,
}

/// Simulated stable storage: one page image, optionally persisted in
/// real files.
#[derive(Clone, Debug)]
pub struct Disk {
    image: Image,
    /// Pages written for the next pointer swing: volatile, unreferenced
    /// until the swing installs them, dropped by a crash.
    staging: BTreeMap<PageId, Page>,
    /// The files persisting `image` on [`BackendKind::File`].
    medium: Option<FileStorage>,
    page_writes: u64,
    /// Shared crash-point switchboard ([`crate::db::Db`] wires the same
    /// injector into the log manager).
    pub(crate) injector: FaultInjector,
}

impl Default for Disk {
    fn default() -> Disk {
        Disk::new()
    }
}

impl Disk {
    /// An empty in-memory disk: every page reads as freshly formatted
    /// (zeroed, LSN 0).
    #[must_use]
    pub fn new() -> Disk {
        Disk::on(BackendKind::Mem)
    }

    /// An empty disk on the given backend.
    #[must_use]
    pub fn on(kind: BackendKind) -> Disk {
        Disk {
            image: Image::default(),
            staging: BTreeMap::new(),
            medium: (kind == BackendKind::File).then(FileStorage::new_temp),
            page_writes: 0,
            injector: FaultInjector::default(),
        }
    }

    /// Reads a page (a copy — disk reads transfer, they don't alias).
    /// Absent pages materialize as zeroed pages of the given geometry.
    ///
    /// # Errors
    ///
    /// [`SimError::TornPage`] if the page's last write only partially
    /// landed (checksum mismatch) — the caller must run
    /// [`Disk::repair_torn`] (normally via
    /// [`crate::db::Db::repair_after_crash`]) before reading.
    /// [`SimError::MediaLoss`] if the page's durable copy is destroyed
    /// beyond repair — only a media rebuild from `archive ∥ live` can
    /// bring it back.
    pub fn read_page(&self, id: PageId, slots_per_page: u16) -> SimResult<Page> {
        if self.image.lost.contains(&id) {
            return Err(SimError::MediaLoss(id));
        }
        if self.image.torn.contains_key(&id) {
            return Err(SimError::TornPage(id));
        }
        Ok(self.raw_page(id, slots_per_page))
    }

    /// Reads a page's raw durable content without the torn check — what
    /// the medium actually holds, garbage included. For state audits and
    /// damage inspection, never for recovery reads.
    #[must_use]
    pub fn raw_page(&self, id: PageId, slots_per_page: u16) -> Page {
        self.image
            .pages
            .get(&id)
            .cloned()
            .unwrap_or_else(|| Page::new(slots_per_page))
    }

    /// The LSN of the page's durable copy (`Lsn::ZERO` when never
    /// written).
    #[must_use]
    pub fn page_lsn(&self, id: PageId) -> Lsn {
        self.image.pages.get(&id).map_or(Lsn::ZERO, Page::lsn)
    }

    /// Writes a page to the installed state. Atomic — unless an armed
    /// [`FaultInjector`] picks this write as its crash point, in which
    /// case it may land torn (partially transferred, detectably damaged)
    /// or not at all. A full write supersedes a tear's mark and its
    /// pre-image, and a media-lost mark.
    pub fn write_page(&mut self, id: PageId, page: Page) {
        match self.injector.on_page_write() {
            FaultDecision::Proceed => {
                self.page_writes += 1;
                if let Some(medium) = &mut self.medium {
                    medium.write_page(id, &page);
                }
                self.install(id, page);
            }
            FaultDecision::Tear { sectors } => {
                if self.tear(id, &page, sectors) {
                    self.page_writes += 1;
                    self.injector.record_injected(InjectedFault::TornWrite(id));
                } else {
                    // A one-sector page cannot tear; the write just
                    // never lands.
                    self.injector.record_injected(InjectedFault::Clean);
                }
            }
            FaultDecision::Suppress | FaultDecision::Truncate { .. } => {}
        }
    }

    /// The image side of a full, clean page write.
    fn install(&mut self, id: PageId, page: Page) {
        self.image.torn.remove(&id);
        self.image.lost.remove(&id);
        self.image.pages.insert(id, page);
    }

    /// Delivers a torn write of `new`: its LSN header and first
    /// `sectors` slots land, the rest keep the old bytes. The first tear
    /// of a page keeps its pre-image for repair. Returns `false`, landing
    /// nothing, if the page cannot tear (fewer than 2 sectors) or is
    /// lost — a partial image on destroyed media would mask the loss the
    /// rebuild must re-detect, and there is no honest pre-image to keep.
    fn tear(&mut self, id: PageId, new: &Page, sectors: u16) -> bool {
        let spp = new.slot_count();
        if spp < 2 || self.image.lost.contains(&id) {
            return false;
        }
        let k = sectors.clamp(1, spp - 1);
        let old = self.raw_page(id, spp);
        let mut landed = old.clone();
        landed.set_lsn(new.lsn());
        for s in 0..k {
            landed.set(SlotId(s), new.get(SlotId(s)));
        }
        let pre = (!self.image.torn.contains_key(&id)).then_some(old);
        if let Some(medium) = &mut self.medium {
            medium.tear_page(id, pre.as_ref(), new, &landed);
        }
        self.image.torn.entry(id).or_insert(pre);
        self.image.pages.insert(id, landed);
        true
    }

    /// Is this page's durable copy torn (its last write only partially
    /// landed)?
    #[must_use]
    pub fn is_torn(&self, id: PageId) -> bool {
        self.image.torn.contains_key(&id)
    }

    /// Pages currently torn, in id order.
    #[must_use]
    pub fn torn_pages(&self) -> Vec<PageId> {
        self.image.torn.keys().copied().collect()
    }

    /// Restores every torn page from its journaled pre-image and clears
    /// the torn state, returning the repaired ids. Recovery runs this
    /// before reading any page: a torn page's content is garbage, but its
    /// pre-image is a state the durable log explains, so repairing back
    /// to it keeps the whole disk explainable. Damage no pre-image
    /// explains (out-of-band corruption of a page file) is scrubbed in
    /// place: the page keeps the content it holds. A torn page with
    /// neither is lost.
    pub fn repair_torn(&mut self) -> Vec<PageId> {
        let torn = std::mem::take(&mut self.image.torn);
        let repaired = torn.keys().copied().collect();
        for (id, pre) in torn {
            match pre.or_else(|| self.image.pages.get(&id).cloned()) {
                Some(page) => {
                    if let Some(medium) = &mut self.medium {
                        medium.write_page(id, &page);
                    }
                    self.image.pages.insert(id, page);
                }
                None => {
                    self.image.lost.insert(id);
                }
            }
        }
        repaired
    }

    /// Destroys a page's durable copy out-of-band — the media-failure
    /// adversary, not a faultable I/O event, so the injector is never
    /// consulted. A page the disk held (installed, torn or already lost)
    /// reads as [`SimError::MediaLoss`] until a media rebuild installs a
    /// fresh copy; destroying a page no write reached marks nothing.
    pub fn destroy_page(&mut self, id: PageId) {
        let held = self.image.pages.remove(&id).is_some()
            | self.image.torn.remove(&id).is_some()
            | self.image.lost.contains(&id);
        if let Some(medium) = &mut self.medium {
            medium.destroy_page(id);
        }
        if held {
            self.image.lost.insert(id);
        }
    }

    /// Pages currently lost to media failure, in id order.
    #[must_use]
    pub fn lost_pages(&self) -> Vec<PageId> {
        self.image.lost.iter().copied().collect()
    }

    /// Is this page's durable copy lost to media failure?
    #[must_use]
    pub fn is_lost(&self, id: PageId) -> bool {
        self.image.lost.contains(&id)
    }

    /// Atomically writes a *set* of pages: either all reach the installed
    /// state or none do. This is the "large atomic transition" §5 and §7
    /// identify as the price of multi-variable write sets — real systems
    /// approximate it with shadowing or intentions lists (which is
    /// literally what the file backend does); the benchmarks charge one
    /// page write per member.
    ///
    /// # Errors
    ///
    /// [`SimError::FieldOverflow`] when the file backend cannot encode
    /// its intentions list; nothing is installed on error.
    pub fn write_pages_atomic(&mut self, pages: Vec<(PageId, Page)>) -> SimResult<()> {
        if self.injector.on_atomic_write() != FaultDecision::Proceed {
            return Ok(());
        }
        self.page_writes += pages.len() as u64;
        self.install_atomic(self.image.master, pages)
    }

    /// One atomic install — the pages and the master land together — on
    /// the medium first, so an install it refuses changes nothing.
    fn install_atomic(&mut self, master: Lsn, pages: Vec<(PageId, Page)>) -> SimResult<()> {
        if let Some(medium) = &mut self.medium {
            medium.install(master, &pages)?;
        }
        for (id, page) in pages {
            self.install(id, page);
        }
        self.image.master = master;
        Ok(())
    }

    /// Writes a page to the staging area (not yet installed). One
    /// faultable event; a crash point here loses the staged copy, which
    /// is safe — staging is unreferenced until the pointer swing, and a
    /// tripped injector suppresses that swing too.
    pub fn write_staging(&mut self, id: PageId, page: Page) {
        if self.injector.on_atomic_write() != FaultDecision::Proceed {
            return;
        }
        self.page_writes += 1;
        self.staging.insert(id, page);
    }

    /// The checkpoint pointer swing (§6.1) as one faultable, atomic act:
    /// installs whatever is staged (nothing, for an empty checkpoint)
    /// *and* moves the master record to `master`, together, and empties
    /// the staging area. This is the single atomic act that installs
    /// every operation logged since the previous checkpoint: a crash
    /// point here installs none of it, leaving only the pre-commit
    /// debris the medium would hold (a written-but-unrenamed intent, for
    /// the file backend) and the staged set, which the crash drops.
    ///
    /// # Errors
    ///
    /// [`SimError::FieldOverflow`] when the file backend cannot encode
    /// its intentions list; nothing is installed on error.
    pub fn swing_pointer(&mut self, master: Lsn) -> SimResult<()> {
        if self.injector.on_atomic_write() != FaultDecision::Proceed {
            return self.abandon_install(master);
        }
        let staged = std::mem::take(&mut self.staging).into_iter().collect();
        self.install_atomic(master, staged)
    }

    /// The machine died just before an install of the staged set and
    /// `master` committed: the medium keeps its pre-commit debris, the
    /// image is untouched.
    fn abandon_install(&mut self, master: Lsn) -> SimResult<()> {
        match &mut self.medium {
            Some(medium) => {
                let staged: Vec<_> = self
                    .staging
                    .iter()
                    .map(|(&id, p)| (id, p.clone()))
                    .collect();
                medium.abandon_install(master, &staged)
            }
            None => Ok(()),
        }
    }

    /// Durably records the checkpoint pointer (the LSN recovery should
    /// scan from). One faultable event; the master write itself is
    /// atomic (a single sector in the simulation, a temp + `fsync` +
    /// `rename` on files). A crash point here leaves pre-commit debris
    /// and the old pointer.
    ///
    /// # Errors
    ///
    /// [`SimError::FieldOverflow`] when the fault path's abandoned
    /// install cannot encode its intent debris; the master pointer
    /// itself never fails to publish.
    pub fn set_master(&mut self, lsn: Lsn) -> SimResult<()> {
        if self.injector.on_atomic_write() != FaultDecision::Proceed {
            return self.abandon_install(lsn);
        }
        if let Some(medium) = &mut self.medium {
            medium.set_master(lsn);
        }
        self.image.master = lsn;
        Ok(())
    }

    /// The durable checkpoint pointer.
    #[must_use]
    pub fn master(&self) -> Lsn {
        self.image.master
    }

    /// Crash handling: the image — installed pages, the master record,
    /// torn damage with its pre-images, lost marks — survives; the
    /// staging area, unreferenced until a pointer swing, is dropped.
    /// Repairing torn damage is recovery's first job
    /// ([`crate::db::Db::repair_after_crash`]). A file-backed disk
    /// rebuilds the image from its files: it replays a committed
    /// intentions list, discards uncommitted debris, and relearns every
    /// page, mark and pointer from what the files hold.
    pub fn crash(&mut self) {
        self.staging.clear();
        if let Some(medium) = &mut self.medium {
            self.image = medium.reopen();
        }
    }

    /// Total page writes issued (installed + staged) — an I/O metric for
    /// the benchmarks.
    #[must_use]
    pub fn page_writes(&self) -> u64 {
        self.page_writes
    }

    /// Snapshot of the pages currently materialized in the installed
    /// state (raw durable content), in id order.
    #[must_use]
    pub fn pages(&self) -> Vec<(PageId, Page)> {
        self.image
            .pages
            .iter()
            .map(|(&id, p)| (id, p.clone()))
            .collect()
    }

    /// The backing directory, when the pages live in real files (tests
    /// damage them out-of-band).
    #[must_use]
    pub fn dir(&self) -> Option<&std::path::Path> {
        self.medium.as_ref().map(FileStorage::dir)
    }

    /// Projects the installed state into a theory-level [`State`] at slot
    /// granularity: `Var(page · slots + slot) ↦ slot value`. Zero slots
    /// coincide with the theory's default value, so never-written cells
    /// agree with the theory's initial state by construction.
    #[must_use]
    pub fn theory_state(&self, slots_per_page: u16) -> State {
        let mut s = State::zeroed();
        for (&id, page) in &self.image.pages {
            for (slot, &v) in page.slots().iter().enumerate() {
                if v != 0 {
                    let var = redo_workload::pages::Cell {
                        page: id,
                        slot: SlotId(
                            u16::try_from(slot).expect("slot index bounded by page geometry"),
                        ),
                    }
                    .var(slots_per_page);
                    s.set(var, Value(v));
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};

    /// Every test in this module runs against both backends: the
    /// protocol in the `Disk` wrapper must not care where bytes live.
    fn both(f: impl Fn(Disk)) {
        f(Disk::on(BackendKind::Mem));
        f(Disk::on(BackendKind::File));
    }

    #[test]
    fn absent_pages_read_zeroed() {
        both(|d| {
            let p = d.read_page(PageId(9), 4).unwrap();
            assert_eq!(p.lsn(), Lsn::ZERO);
            assert!(p.slots().iter().all(|&s| s == 0));
            assert_eq!(d.page_lsn(PageId(9)), Lsn::ZERO);
        });
    }

    #[test]
    fn write_read_roundtrip() {
        both(|mut d| {
            let mut p = Page::new(4);
            p.set(SlotId(1), 7);
            p.set_lsn(Lsn(3));
            d.write_page(PageId(0), p.clone());
            assert_eq!(d.read_page(PageId(0), 4).unwrap(), p);
            assert_eq!(d.page_lsn(PageId(0)), Lsn(3));
            assert_eq!(d.page_writes(), 1);
        });
    }

    #[test]
    fn staging_is_invisible_until_the_swing() {
        both(|mut d| {
            let mut p = Page::new(4);
            p.set(SlotId(0), 42);
            d.write_staging(PageId(1), p);
            assert_eq!(d.read_page(PageId(1), 4).unwrap().get(SlotId(0)), 0);
            d.swing_pointer(Lsn(1)).unwrap();
            assert_eq!(d.read_page(PageId(1), 4).unwrap().get(SlotId(0)), 42);
        });
    }

    #[test]
    fn crash_drops_staging_keeps_installed() {
        both(|mut d| {
            let mut p = Page::new(4);
            p.set(SlotId(0), 1);
            d.write_page(PageId(0), p.clone());
            p.set(SlotId(0), 2);
            d.write_staging(PageId(0), p);
            d.set_master(Lsn(5)).unwrap();
            d.crash();
            assert_eq!(d.read_page(PageId(0), 4).unwrap().get(SlotId(0)), 1);
            assert_eq!(d.master(), Lsn(5));
            // The staged copy died with the machine: a swing now
            // installs nothing.
            d.swing_pointer(Lsn(6)).unwrap();
            assert_eq!(d.read_page(PageId(0), 4).unwrap().get(SlotId(0)), 1);
        });
    }

    #[test]
    fn theory_projection_covers_written_cells() {
        both(|mut d| {
            let mut p = Page::new(8);
            p.set(SlotId(3), 11);
            d.write_page(PageId(2), p);
            let s = d.theory_state(8);
            assert_eq!(s.get(redo_theory::state::Var(2 * 8 + 3)), Value(11));
            assert_eq!(s.get(redo_theory::state::Var(0)), Value(0));
            assert_eq!(s.support_len(), 1);
        });
    }

    #[test]
    fn torn_write_lands_partially_and_repairs_to_preimage() {
        both(|mut d| {
            // Establish a durable pre-image: slots [1, 2, 3, 4] at LSN 1.
            let mut pre = Page::new(4);
            for s in 0..4 {
                pre.set(SlotId(s), u64::from(s) + 1);
            }
            pre.set_lsn(Lsn(1));
            d.write_page(PageId(0), pre.clone());
            // The next write tears after 2 sectors.
            d.injector.arm(FaultPlan {
                at: 1,
                kind: FaultKind::TornWrite { sectors: 2 },
            });
            let mut new = Page::new(4);
            for s in 0..4 {
                new.set(SlotId(s), 100 + u64::from(s));
            }
            new.set_lsn(Lsn(2));
            d.write_page(PageId(0), new);
            assert!(d.is_torn(PageId(0)));
            // The torn copy is refused by checked reads and visible raw.
            assert_eq!(
                d.read_page(PageId(0), 4),
                Err(SimError::TornPage(PageId(0)))
            );
            let torn = d.raw_page(PageId(0), 4);
            assert_eq!(torn.lsn(), Lsn(2), "header sector carries the new LSN");
            assert_eq!(torn.get(SlotId(0)), 100);
            assert_eq!(torn.get(SlotId(1)), 101);
            assert_eq!(torn.get(SlotId(2)), 3, "tail sectors keep old bytes");
            assert_eq!(torn.get(SlotId(3)), 4);
            assert!(d.injector.tripped());
            // Post-trip writes are suppressed.
            d.write_page(PageId(1), Page::new(4));
            assert_eq!(d.read_page(PageId(1), 4).unwrap(), Page::new(4));
            // Torn damage and the pre-image survive the crash; repair
            // restores it.
            d.crash();
            d.injector.reset();
            assert_eq!(d.torn_pages(), vec![PageId(0)]);
            assert_eq!(d.repair_torn(), vec![PageId(0)]);
            assert!(!d.is_torn(PageId(0)));
            assert_eq!(d.read_page(PageId(0), 4).unwrap(), pre);
        });
    }

    #[test]
    fn swing_pointer_installs_staging_and_master_together() {
        both(|mut d| {
            let mut p = Page::new(4);
            p.set(SlotId(0), 9);
            d.write_staging(PageId(0), p);
            // A crash point on the swing installs neither the pages nor
            // the master.
            d.injector.arm(FaultPlan {
                at: 1,
                kind: FaultKind::Clean,
            });
            d.swing_pointer(Lsn(5)).unwrap();
            assert_eq!(d.master(), Lsn::ZERO);
            assert_eq!(d.read_page(PageId(0), 4).unwrap().get(SlotId(0)), 0);
            d.injector.reset();
            // With no fault both land at once.
            d.swing_pointer(Lsn(5)).unwrap();
            assert_eq!(d.master(), Lsn(5));
            assert_eq!(d.read_page(PageId(0), 4).unwrap().get(SlotId(0)), 9);
        });
    }

    #[test]
    fn suppressed_swing_survives_a_crash_with_the_old_master() {
        both(|mut d| {
            d.set_master(Lsn(3)).unwrap();
            let mut p = Page::new(4);
            p.set(SlotId(0), 9);
            d.write_staging(PageId(7), p);
            d.injector.arm(FaultPlan {
                at: 1,
                kind: FaultKind::Clean,
            });
            // Dies between temp-write and rename (file backend) / before
            // the atomic instant (mem backend)…
            d.swing_pointer(Lsn(8)).unwrap();
            d.crash();
            d.injector.reset();
            // …and reopen finds the old checkpoint, nothing installed.
            assert_eq!(d.master(), Lsn(3));
            assert_eq!(d.read_page(PageId(7), 4).unwrap(), Page::new(4));
        });
    }

    #[test]
    fn destroyed_page_reads_as_media_loss_until_rewritten_on_both_backends() {
        both(|mut d| {
            let mut p = Page::new(4);
            p.set(SlotId(0), 5);
            p.set_lsn(Lsn(2));
            d.write_page(PageId(3), p);
            d.destroy_page(PageId(3));
            assert!(d.is_lost(PageId(3)));
            assert_eq!(d.lost_pages(), vec![PageId(3)]);
            assert_eq!(
                d.read_page(PageId(3), 4),
                Err(SimError::MediaLoss(PageId(3)))
            );
            // The mark is durable media state: a crash re-detects it.
            d.crash();
            assert!(d.is_lost(PageId(3)));
            // A clean full write (the rebuild's install) clears it.
            let mut rebuilt = Page::new(4);
            rebuilt.set(SlotId(0), 5);
            rebuilt.set_lsn(Lsn(2));
            d.write_page(PageId(3), rebuilt.clone());
            assert!(!d.is_lost(PageId(3)));
            assert_eq!(d.read_page(PageId(3), 4).unwrap(), rebuilt);
        });
    }

    #[test]
    fn torn_rebuild_write_keeps_the_page_lost() {
        both(|mut d| {
            let mut p = Page::new(4);
            p.set(SlotId(0), 5);
            d.write_page(PageId(0), p.clone());
            d.destroy_page(PageId(0));
            d.injector.arm(FaultPlan {
                at: 1,
                kind: FaultKind::TornWrite { sectors: 2 },
            });
            // The rebuild's install tears: nothing may land — a partial
            // image would mask the loss and break rebuild idempotence.
            d.write_page(PageId(0), p);
            assert!(d.is_lost(PageId(0)));
            d.crash();
            d.injector.reset();
            assert!(d.is_lost(PageId(0)), "loss survives the re-crash");
            assert!(d.torn_pages().is_empty());
        });
    }

    #[test]
    fn atomic_multi_page_write_suppressed_wholesale() {
        both(|mut d| {
            d.injector.arm(FaultPlan {
                at: 1,
                kind: FaultKind::TornWrite { sectors: 1 },
            });
            d.write_pages_atomic(vec![(PageId(0), Page::new(4)), (PageId(1), Page::new(4))])
                .unwrap();
            // The tear degraded to a clean stop: nothing landed, nothing
            // is torn.
            assert_eq!(d.page_writes(), 0);
            assert!(d.torn_pages().is_empty());
        });
    }

    /// A four-slot page whose slots are the low bits of `fill`: a small
    /// domain, so a torn transfer often lands bytes equal to the image
    /// it was meant to write.
    fn drawn(lsn: u64, fill: u64) -> Page {
        let mut p = Page::new(4);
        p.set_lsn(Lsn(lsn));
        for s in 0..4 {
            p.set(SlotId(s), (fill >> s) & 1);
        }
        p
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// The in-memory and the file-backed disk, driven in lockstep
        /// through the same in-band events — writes, armed tears, atomic
        /// installs, staging and the pointer swing (completed or cut at
        /// its crash point), master updates, page destruction, crashes
        /// and repairs — answer every read alike after every step. A
        /// crash makes the file disk relearn everything from its files,
        /// so equality there means the files say what the image says.
        #[test]
        fn mem_and_file_disks_answer_alike(
            steps in proptest::collection::vec((0u8..12, 0u32..4, 0u64..16, 1u16..4), 1..40),
        ) {
            let mut disks = [Disk::on(BackendKind::Mem), Disk::on(BackendKind::File)];
            for (i, &(what, page, fill, sectors)) in steps.iter().enumerate() {
                let (id, lsn) = (PageId(page), i as u64 + 1);
                let mut repaired = Vec::new();
                for d in &mut disks {
                    match what {
                        0 | 1 => d.write_page(id, drawn(lsn, fill)),
                        2 => {
                            // A torn write the machine survives: later
                            // steps write over it before any crash.
                            d.injector.arm(FaultPlan {
                                at: 1,
                                kind: FaultKind::TornWrite { sectors },
                            });
                            d.write_page(id, drawn(lsn, fill));
                            d.injector.reset();
                        }
                        3 => d
                            .write_pages_atomic(vec![
                                (id, drawn(lsn, fill)),
                                (PageId((page + 1) % 4), drawn(lsn, !fill)),
                            ])
                            .unwrap(),
                        4 => d.write_staging(id, drawn(lsn, fill)),
                        5 => d.swing_pointer(Lsn(lsn)).unwrap(),
                        6 => {
                            d.injector.arm(FaultPlan {
                                at: 1,
                                kind: FaultKind::Clean,
                            });
                            d.swing_pointer(Lsn(lsn)).unwrap();
                            d.injector.reset();
                        }
                        7 => d.set_master(Lsn(lsn)).unwrap(),
                        8 => d.destroy_page(id),
                        9 => d.crash(),
                        _ => repaired.push(d.repair_torn()),
                    }
                }
                let [mem, file] = &disks;
                let step = format!("step {i}: {what} on page {page}");
                proptest::prop_assert_eq!(repaired.first(), repaired.last(), "{} repaired", step);
                proptest::prop_assert_eq!(mem.pages(), file.pages(), "{} pages", step);
                proptest::prop_assert_eq!(mem.torn_pages(), file.torn_pages(), "{} torn", step);
                proptest::prop_assert_eq!(mem.lost_pages(), file.lost_pages(), "{} lost", step);
                proptest::prop_assert_eq!(mem.master(), file.master(), "{} master", step);
                for p in 0..5 {
                    proptest::prop_assert_eq!(
                        mem.read_page(PageId(p), 4),
                        file.read_page(PageId(p), 4),
                        "{} read of page {}",
                        step,
                        p
                    );
                }
            }
        }
    }
}
