//! Pages: fixed arrays of 64-bit slots tagged with a page LSN.
//!
//! §6.3: "Each page of the system state is tagged with the LSN of the
//! last operation that updated it. The LSN is usually on the page." Here
//! it literally is: [`Page::lsn`] travels with the slot data through the
//! cache and onto disk, which is what makes the physiological redo test
//! (`page LSN < op LSN`?) work across crashes.

use redo_theory::log::Lsn;
use redo_theory::state::{Value, Var};
use redo_workload::pages::{Cell, SlotId};

/// One page: a small array of `u64` slots plus the page LSN.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Page {
    lsn: Lsn,
    slots: Box<[u64]>,
}

impl Page {
    /// A zero-filled page with the null LSN (a freshly formatted page).
    #[must_use]
    pub fn new(slots_per_page: u16) -> Page {
        Page {
            lsn: Lsn::ZERO,
            slots: vec![0; slots_per_page as usize].into_boxed_slice(),
        }
    }

    /// A page holding `slots`, tagged `lsn`.
    #[must_use]
    pub fn with_slots(lsn: Lsn, slots: &[u64]) -> Page {
        Page {
            lsn,
            slots: slots.into(),
        }
    }

    /// The page as a redo step reads and writes it.
    pub fn as_mut(&mut self) -> PageMut<'_> {
        PageMut {
            lsn: &mut self.lsn,
            slots: &mut self.slots,
        }
    }

    /// The LSN of the last update applied to this copy of the page.
    #[must_use]
    pub fn lsn(&self) -> Lsn {
        self.lsn
    }

    /// Tags the page with the LSN of an update just applied.
    pub fn set_lsn(&mut self, lsn: Lsn) {
        self.lsn = lsn;
    }

    /// Number of slots.
    #[must_use]
    pub fn slot_count(&self) -> u16 {
        self.slots.len() as u16
    }

    /// Reads a slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range for this page's geometry.
    #[must_use]
    pub fn get(&self, slot: SlotId) -> u64 {
        self.slots[slot.0 as usize]
    }

    /// Writes a slot (does not touch the LSN; update paths call
    /// [`Page::set_lsn`] with the operation's LSN explicitly).
    pub fn set(&mut self, slot: SlotId, value: u64) {
        self.slots[slot.0 as usize] = value;
    }

    /// All slots in order.
    #[must_use]
    pub fn slots(&self) -> &[u64] {
        &self.slots
    }

    /// Projects one cell of this page to a theory `(Var, Value)` pair.
    #[must_use]
    pub fn project_cell(&self, cell: Cell, slots_per_page: u16) -> (Var, Value) {
        (cell.var(slots_per_page), Value(self.get(cell.slot)))
    }
}

/// One page's slots and LSN, borrowed from wherever the page is kept:
/// a whole [`Page`] ([`Page::as_mut`]), or one page of a flat scratch
/// that keeps many pages' slots in one array. What a page-local redo
/// step reads and writes.
#[derive(Debug)]
pub struct PageMut<'a> {
    lsn: &'a mut Lsn,
    slots: &'a mut [u64],
}

impl<'a> PageMut<'a> {
    /// The page whose LSN is `lsn` and whose slots are `slots`.
    pub fn new(lsn: &'a mut Lsn, slots: &'a mut [u64]) -> PageMut<'a> {
        PageMut { lsn, slots }
    }

    /// As [`Page::lsn`].
    #[must_use]
    pub fn lsn(&self) -> Lsn {
        *self.lsn
    }

    /// As [`Page::set_lsn`].
    pub fn set_lsn(&mut self, lsn: Lsn) {
        *self.lsn = lsn;
    }

    /// As [`Page::get`].
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range for this page's geometry.
    #[must_use]
    pub fn get(&self, slot: SlotId) -> u64 {
        self.slots[slot.0 as usize]
    }

    /// As [`Page::set`].
    pub fn set(&mut self, slot: SlotId, value: u64) {
        self.slots[slot.0 as usize] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redo_workload::pages::PageId;

    #[test]
    fn fresh_pages_are_zeroed_with_null_lsn() {
        let p = Page::new(4);
        assert_eq!(p.lsn(), Lsn::ZERO);
        assert_eq!(p.slot_count(), 4);
        assert!(p.slots().iter().all(|&s| s == 0));
    }

    #[test]
    fn slot_roundtrip() {
        let mut p = Page::new(4);
        p.set(SlotId(2), 99);
        assert_eq!(p.get(SlotId(2)), 99);
        assert_eq!(p.get(SlotId(0)), 0);
    }

    #[test]
    fn lsn_tagging() {
        let mut p = Page::new(4);
        p.set_lsn(Lsn(7));
        assert_eq!(p.lsn(), Lsn(7));
    }

    #[test]
    #[should_panic]
    fn out_of_range_slot_panics() {
        let p = Page::new(2);
        let _ = p.get(SlotId(2));
    }

    #[test]
    fn projection_matches_geometry() {
        let mut p = Page::new(8);
        p.set(SlotId(3), 42);
        let cell = Cell {
            page: PageId(2),
            slot: SlotId(3),
        };
        let (var, val) = p.project_cell(cell, 8);
        assert_eq!(var, Var(2 * 8 + 3));
        assert_eq!(val, Value(42));
    }
}
