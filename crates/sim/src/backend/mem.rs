//! The original pure in-memory substrate, extracted verbatim from the
//! pre-trait `Disk` and log internals.
//!
//! Torn damage is *simulated*: a torn page write flags the page in an
//! explicit set (the stand-in for a checksum mismatch) and journals the
//! pre-image in a shadow map; a torn log flush leaves a byte-accounted
//! partial frame at the tail. Atomicity of multi-page installs and the
//! pointer swing is granted as a primitive — there is no window to
//! crash inside, so [`StorageBackend::abandon_install`] is a no-op.

use std::collections::{BTreeMap, BTreeSet};

use redo_theory::log::Lsn;
use redo_workload::pages::{PageId, SlotId};

use crate::error::{SimError, SimResult};
use crate::page::Page;

use super::{LogBackend, StorageBackend};

/// In-memory page store: installed pages, staging area, master record,
/// torn flags, and shadow (pre-image journal).
#[derive(Clone, Debug, Default)]
pub struct MemStorage {
    current: BTreeMap<PageId, Page>,
    staging: BTreeMap<PageId, Page>,
    master_lsn: Lsn,
    torn: BTreeSet<PageId>,
    shadow: BTreeMap<PageId, Page>,
    /// Pages destroyed by the media-failure adversary. Durable state —
    /// the damage is to the medium itself, so a crash/reload cannot
    /// clear it; only a rebuilt page write does.
    lost: BTreeSet<PageId>,
}

impl MemStorage {
    /// An empty store: every page reads as freshly formatted.
    #[must_use]
    pub fn new() -> MemStorage {
        MemStorage::default()
    }
}

impl StorageBackend for MemStorage {
    fn read_page(&self, id: PageId, slots_per_page: u16) -> SimResult<Page> {
        if self.lost.contains(&id) {
            return Err(SimError::MediaLoss(id));
        }
        if self.torn.contains(&id) {
            return Err(SimError::TornPage(id));
        }
        Ok(self.raw_page(id, slots_per_page))
    }

    fn raw_page(&self, id: PageId, slots_per_page: u16) -> Page {
        self.current
            .get(&id)
            .cloned()
            .unwrap_or_else(|| Page::new(slots_per_page))
    }

    fn page_lsn(&self, id: PageId) -> Lsn {
        self.current.get(&id).map_or(Lsn::ZERO, Page::lsn)
    }

    fn write_page(&mut self, id: PageId, page: Page) {
        self.lost.remove(&id);
        self.current.insert(id, page);
    }

    fn tear_page(&mut self, id: PageId, new: Page, sectors: u16) -> bool {
        let spp = new.slot_count();
        if spp < 2 {
            // A one-sector page cannot tear; the write just never lands.
            return false;
        }
        if self.lost.contains(&id) {
            // A torn transfer onto destroyed media leaves nothing: there
            // is no honest pre-image to journal, and landing a partial
            // image would mask the loss the rebuild must re-detect.
            return false;
        }
        let k = sectors.clamp(1, spp - 1);
        let old = self.raw_page(id, spp);
        let mut torn = old.clone();
        torn.set_lsn(new.lsn());
        for s in 0..k {
            torn.set(SlotId(s), new.get(SlotId(s)));
        }
        self.shadow.entry(id).or_insert(old);
        self.torn.insert(id);
        self.current.insert(id, torn);
        true
    }

    fn write_pages(&mut self, pages: Vec<(PageId, Page)>) -> SimResult<()> {
        for (id, page) in pages {
            self.lost.remove(&id);
            self.current.insert(id, page);
        }
        Ok(())
    }

    fn write_staging(&mut self, id: PageId, page: Page) {
        self.staging.insert(id, page);
    }

    fn staging_len(&self) -> usize {
        self.staging.len()
    }

    fn discard_staging(&mut self) {
        self.staging.clear();
    }

    fn promote_staging(&mut self) -> SimResult<()> {
        let staged = std::mem::take(&mut self.staging);
        for (id, page) in staged {
            self.lost.remove(&id);
            self.current.insert(id, page);
        }
        Ok(())
    }

    fn swing_pointer(&mut self, master: Lsn) -> SimResult<()> {
        self.promote_staging()?;
        self.master_lsn = master;
        Ok(())
    }

    fn set_master(&mut self, lsn: Lsn) {
        self.master_lsn = lsn;
    }

    fn master(&self) -> Lsn {
        self.master_lsn
    }

    fn is_torn(&self, id: PageId) -> bool {
        self.torn.contains(&id)
    }

    fn torn_pages(&self) -> Vec<PageId> {
        self.torn.iter().copied().collect()
    }

    fn repair_torn(&mut self) -> Vec<PageId> {
        let torn = std::mem::take(&mut self.torn);
        for &id in &torn {
            if let Some(pre) = self.shadow.remove(&id) {
                self.current.insert(id, pre);
            }
        }
        torn.into_iter().collect()
    }

    fn destroy_page(&mut self, id: PageId) {
        // Total media loss: the durable copy, its torn flag, and its
        // journaled pre-image are all gone. Only a clean full write
        // (a media rebuild installing a fresh copy) clears the mark.
        self.current.remove(&id);
        self.torn.remove(&id);
        self.shadow.remove(&id);
        self.lost.insert(id);
    }

    fn lost_pages(&self) -> Vec<PageId> {
        self.lost.iter().copied().collect()
    }

    fn is_lost(&self, id: PageId) -> bool {
        self.lost.contains(&id)
    }

    fn crash(&mut self) {
        // Installed pages, master, torn flags, shadow pre-images, and
        // media-lost marks are durable; only staging is volatile debris.
        self.staging.clear();
    }

    fn pages(&self) -> Vec<(PageId, Page)> {
        self.current
            .iter()
            .map(|(&id, p)| (id, p.clone()))
            .collect()
    }

    fn boxed_clone(&self) -> Box<dyn StorageBackend> {
        Box::new(self.clone())
    }
}

/// In-memory log store: the stable image is a plain byte vector.
#[derive(Clone, Debug, Default)]
pub struct MemLog {
    stable: Vec<u8>,
}

impl MemLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> MemLog {
        MemLog::default()
    }
}

impl LogBackend for MemLog {
    fn bytes(&self) -> &[u8] {
        &self.stable
    }

    fn append(&mut self, frames: &[u8]) {
        self.stable.extend_from_slice(frames);
    }

    fn truncate_to(&mut self, len: usize) {
        self.stable.truncate(len);
    }

    fn drain_prefix(&mut self, len: usize) {
        self.stable.drain(..len);
    }

    fn crash(&mut self) {
        // The stable image *is* the durable medium; nothing volatile to
        // drop.
    }

    fn syncs(&self) -> u64 {
        0
    }

    fn boxed_clone(&self) -> Box<dyn LogBackend> {
        Box::new(self.clone())
    }
}
