//! Page-structured workloads.
//!
//! The storage substrate (`redo-sim`) organizes state into pages of
//! fixed-size slots. A [`PageOp`] describes one logged operation at that
//! granularity: the cells it reads, the cells it writes, and a seed that
//! makes its output values unique. The same description serves three
//! consumers:
//!
//! * `redo-sim` executes it against the buffer pool;
//! * `redo-methods` logs it under each §6 recovery method;
//! * [`PageWorkloadSpec::to_history`] projects it into a theory-level
//!   [`History`] so the recovery invariant can be audited
//!   against the simulated database.
//!
//! Physiological operations (§6.3) read and write a single page.
//! Generalized-LSN operations (§6.4) may *read* other pages but still
//! write one page (the B-tree split's "read old page, write new page").
//! Blind writes never read (physical logging, §6.2).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redo_theory::expr::Expr;
use redo_theory::history::History;
use redo_theory::op::{OpId, Operation};
use redo_theory::state::Var;

use crate::Zipf;

/// Identifier of a page in the simulated database.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct PageId(pub u32);

/// Slot index within a page.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SlotId(pub u16);

/// One addressable cell: a slot of a page.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Cell {
    /// Containing page.
    pub page: PageId,
    /// Slot within the page.
    pub slot: SlotId,
}

impl Cell {
    /// The theory variable this cell projects to, given the workload's
    /// page geometry.
    #[must_use]
    pub fn var(self, slots_per_page: u16) -> Var {
        Var(self.page.0 * u32::from(slots_per_page) + u32::from(self.slot.0))
    }
}

/// How the operation is allowed to touch pages.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PageOpKind {
    /// Reads and writes exactly one page (§6.3).
    Physiological,
    /// Writes one page but may read others (§6.4).
    Generalized,
    /// Writes without reading (§6.2).
    Blind,
    /// Reads and writes cells across *several* pages — §5's
    /// multi-variable write sets, requiring an atomic multi-page
    /// install.
    MultiPage,
}

/// A logged operation over page slots.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PageOp {
    /// Sequence number within the workload (doubles as the theory OpId).
    pub id: u32,
    /// The operation's structural class.
    pub kind: PageOpKind,
    /// Cells read, in a fixed order (the order feeds the output mix).
    pub reads: Vec<Cell>,
    /// Cells written; all on one page for physiological and generalized
    /// operations.
    pub writes: Vec<Cell>,
    /// Seed folded into every output value.
    pub f_seed: u64,
}

/// A handful of distinct pages in ascending order: an operation's write
/// set, or the pages it reads besides. Up to [`PageSet::INLINE`] of
/// them live in the value itself, so naming the pages of an ordinary
/// operation allocates nothing.
#[derive(Clone, Debug)]
pub struct PageSet {
    /// The set is the first `len` entries, while it fits.
    inline: [PageId; PageSet::INLINE],
    len: usize,
    /// The whole set, once it has outgrown `inline` (`len` is then 0).
    spill: Vec<PageId>,
}

impl PageSet {
    /// How many pages a set holds without allocating.
    pub const INLINE: usize = 4;

    /// The empty set.
    #[must_use]
    pub fn new() -> PageSet {
        PageSet {
            inline: [PageId(0); PageSet::INLINE],
            len: 0,
            spill: Vec::new(),
        }
    }

    /// Adds `page`, keeping the order; a page already present is not
    /// added twice.
    pub fn insert(&mut self, page: PageId) {
        let Err(at) = self.binary_search(&page) else {
            return;
        };
        if self.spill.is_empty() && self.len < PageSet::INLINE {
            self.inline.copy_within(at..self.len, at + 1);
            self.inline[at] = page;
            self.len += 1;
        } else {
            self.spill.extend_from_slice(&self.inline[..self.len]);
            self.len = 0;
            self.spill.insert(at, page);
        }
    }
}

impl Default for PageSet {
    fn default() -> PageSet {
        PageSet::new()
    }
}

impl std::ops::Deref for PageSet {
    type Target = [PageId];

    fn deref(&self) -> &[PageId] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl FromIterator<PageId> for PageSet {
    fn from_iter<I: IntoIterator<Item = PageId>>(pages: I) -> PageSet {
        let mut set = PageSet::new();
        pages.into_iter().for_each(|page| set.insert(page));
        set
    }
}

impl IntoIterator for PageSet {
    type Item = PageId;
    type IntoIter = std::iter::Chain<
        std::iter::Take<std::array::IntoIter<PageId, { PageSet::INLINE }>>,
        std::vec::IntoIter<PageId>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.inline.into_iter().take(self.len).chain(self.spill)
    }
}

/// The pages of one operation, named once: every step of executing or
/// redoing it — the redo test, the flush-order probe, the apply, the
/// write order it registers — takes a slice of these instead of
/// deriving its own list from the cells.
#[derive(Clone, Debug)]
pub struct Footprint {
    /// Every page the operation reads or writes.
    pub touched: PageSet,
    /// The pages it writes.
    pub written: PageSet,
    /// The pages it reads but does not write: the far ends of its §6.4
    /// read-write edges. Empty for every operation that reads only what
    /// it writes.
    pub cross_reads: PageSet,
}

/// An operation's cells and the two fields its outputs mix in, wherever
/// it is held — a [`PageOp`], or its log encoding read in place — so
/// each step that executes or redoes an operation (naming its pages,
/// the flush-order probe, the apply, the redo test) is written once.
pub trait OpCells {
    /// As [`PageOp::id`].
    fn id(&self) -> u32;
    /// As [`PageOp::f_seed`].
    fn f_seed(&self) -> u64;
    /// The cells read, in [`PageOp::reads`] order.
    fn reads(&self) -> impl ExactSizeIterator<Item = Cell> + '_;
    /// The cells written, in [`PageOp::writes`] order.
    fn writes(&self) -> impl ExactSizeIterator<Item = Cell> + '_;

    /// As [`PageOp::output`].
    fn output(&self, cell: Cell, read_values: &[u64]) -> u64 {
        debug_assert_eq!(read_values.len(), self.reads().len());
        PageOp::output_of(self.id(), self.f_seed(), cell, read_values)
    }

    /// The operation's pages, each list distinct and ascending
    /// ([`Footprint`]); nothing is allocated for an operation that
    /// touches [`PageSet::INLINE`] pages or fewer.
    fn footprint(&self) -> Footprint {
        let written: PageSet = self.writes().map(|c| c.page).collect();
        let reads = || self.reads().map(|c| c.page);
        Footprint {
            touched: reads().chain(written.iter().copied()).collect(),
            cross_reads: reads().filter(|page| !written.contains(page)).collect(),
            written,
        }
    }
}

impl OpCells for PageOp {
    fn id(&self) -> u32 {
        self.id
    }

    fn f_seed(&self) -> u64 {
        self.f_seed
    }

    fn reads(&self) -> impl ExactSizeIterator<Item = Cell> + '_ {
        self.reads.iter().copied()
    }

    fn writes(&self) -> impl ExactSizeIterator<Item = Cell> + '_ {
        self.writes.iter().copied()
    }
}

/// The splitmix64 finalizer; the deterministic "logic" of generated
/// operations.
#[must_use]
pub fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl PageOp {
    /// A geometry-free 64-bit code for a cell, folded into output values
    /// and into the theory projection identically.
    #[must_use]
    pub fn cell_code(cell: Cell) -> u64 {
        (u64::from(cell.page.0) << 16) | u64::from(cell.slot.0)
    }

    /// The operation's own constant, folded into output values and into
    /// the theory projection identically. The id goes to the high word
    /// so that it cannot cancel against a seed's low bits: under the
    /// `f_seed = id + 1` convention of hand-built test operations,
    /// `f_seed ^ id` is 1 for every even id.
    fn seed_code(id: u32, f_seed: u64) -> u64 {
        f_seed ^ u64::from(id).rotate_left(32)
    }

    /// The value this operation writes into `cell`, given the values of
    /// its read cells (in `self.reads` order). Deterministic, so redo
    /// replay reproduces it exactly.
    ///
    /// The computation is *bit-identical* to evaluating the
    /// [`Expr::Mix`] body produced by [`PageOp::to_operation`]: the
    /// simulated database and the theory model therefore agree on every
    /// slot value, not merely on conflict structure, which lets the
    /// crash harness compare them with plain equality.
    #[must_use]
    pub fn output(&self, cell: Cell, read_values: &[u64]) -> u64 {
        OpCells::output(self, cell, read_values)
    }

    /// [`PageOp::output`] from the two fields it depends on, for a
    /// caller holding an operation's encoding rather than a `PageOp`.
    #[must_use]
    pub fn output_of(id: u32, f_seed: u64, cell: Cell, read_values: &[u64]) -> u64 {
        // Mirrors Expr::Mix evaluation: acc starts at the mix tag and
        // folds each part with xor-then-finalize.
        let mut acc = 0x51ed_270bu64;
        acc = mix64(acc ^ Self::seed_code(id, f_seed));
        acc = mix64(acc ^ Self::cell_code(cell));
        for &v in read_values {
            acc = mix64(acc ^ v);
        }
        acc
    }

    /// The distinct pages in the write set (one for physiological and
    /// generalized ops).
    #[must_use]
    pub fn written_pages(&self) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self.writes.iter().map(|c| c.page).collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// The distinct pages in the read set.
    #[must_use]
    pub fn read_pages(&self) -> Vec<PageId> {
        let mut pages: Vec<PageId> = self.reads.iter().map(|c| c.page).collect();
        pages.sort_unstable();
        pages.dedup();
        pages
    }

    /// Projects this operation into a theory-level [`Operation`] at slot
    /// granularity. The expression body evaluates to *exactly* the values
    /// [`PageOp::output`] computes (same mix chain over the same reads),
    /// so the theory-level state sequence and the simulated database
    /// agree slot-for-slot — the crash harness exploits this to audit the
    /// recovery invariant against real disk contents.
    #[must_use]
    pub fn to_operation(&self, slots_per_page: u16) -> Operation {
        let mut b = Operation::builder(OpId(self.id));
        for &w in &self.writes {
            let mut parts = vec![
                Expr::constant(Self::seed_code(self.id, self.f_seed)),
                Expr::constant(Self::cell_code(w)),
            ];
            parts.extend(
                self.reads
                    .iter()
                    .map(|&r| Expr::read(r.var(slots_per_page))),
            );
            b = b.assign(w.var(slots_per_page), Expr::mix(parts));
        }
        for &r in &self.reads {
            b = b.declare_read(r.var(slots_per_page));
        }
        b.build().expect("generated page ops are well-formed")
    }
}

/// Parameters for page-structured workload generation.
#[derive(Clone, Debug)]
pub struct PageWorkloadSpec {
    /// Number of pages.
    pub n_pages: u32,
    /// Slots per page.
    pub slots_per_page: u16,
    /// Number of operations.
    pub n_ops: usize,
    /// Zipf skew of page selection.
    pub skew: f64,
    /// Fraction of operations that read a second page (generalized ops);
    /// the rest are physiological unless blind.
    pub cross_page_fraction: f64,
    /// Fraction of operations that *write* two pages (multi-page ops,
    /// needing atomic installs). Checked after the blind/cross draws.
    pub multi_page_fraction: f64,
    /// Fraction of operations that are blind single-cell writes.
    pub blind_fraction: f64,
    /// Maximum cells written per operation (within one page).
    pub max_writes: usize,
}

impl Default for PageWorkloadSpec {
    fn default() -> Self {
        PageWorkloadSpec {
            n_pages: 8,
            slots_per_page: 8,
            n_ops: 64,
            skew: 0.0,
            cross_page_fraction: 0.0,
            blind_fraction: 0.0,
            multi_page_fraction: 0.0,
            max_writes: 2,
        }
    }
}

impl PageWorkloadSpec {
    /// Generates the page operations deterministically from `seed`.
    #[must_use]
    pub fn generate(&self, seed: u64) -> Vec<PageOp> {
        assert!(self.n_pages > 0 && self.slots_per_page > 0 && self.max_writes > 0);
        let mut rng = StdRng::seed_from_u64(seed);
        let zipf = Zipf::new(self.n_pages as usize, self.skew);
        let mut ops = Vec::with_capacity(self.n_ops);
        for i in 0..self.n_ops {
            let page = PageId(zipf.sample(&mut rng) as u32);
            let cell = |rng: &mut StdRng, p: PageId| Cell {
                page: p,
                slot: SlotId(rng.gen_range(0..self.slots_per_page)),
            };
            let blind = rng.gen_bool(self.blind_fraction.clamp(0.0, 1.0));
            let cross = !blind && rng.gen_bool(self.cross_page_fraction.clamp(0.0, 1.0));
            let multi = !blind
                && !cross
                && self.n_pages > 1
                && rng.gen_bool(self.multi_page_fraction.clamp(0.0, 1.0));
            let (kind, reads, writes) = if multi {
                // Read one cell of the primary page, write one cell on
                // each of two pages: the E/F-style entangled update.
                let mut other = PageId(zipf.sample(&mut rng) as u32);
                while other == page {
                    other = PageId(rng.gen_range(0..self.n_pages));
                }
                let mut writes = vec![cell(&mut rng, page), cell(&mut rng, other)];
                writes.sort_unstable();
                writes.dedup();
                (PageOpKind::MultiPage, vec![cell(&mut rng, page)], writes)
            } else if blind {
                (PageOpKind::Blind, Vec::new(), vec![cell(&mut rng, page)])
            } else if cross && self.n_pages > 1 {
                // Read one cell of a different page, write this page.
                let mut other = PageId(zipf.sample(&mut rng) as u32);
                while other == page {
                    other = PageId(rng.gen_range(0..self.n_pages));
                }
                let mut writes: Vec<Cell> = (0..rng.gen_range(1..=self.max_writes))
                    .map(|_| cell(&mut rng, page))
                    .collect();
                writes.sort_unstable();
                writes.dedup();
                (
                    PageOpKind::Generalized,
                    vec![cell(&mut rng, other), cell(&mut rng, page)],
                    writes,
                )
            } else {
                let mut writes: Vec<Cell> = (0..rng.gen_range(1..=self.max_writes))
                    .map(|_| cell(&mut rng, page))
                    .collect();
                writes.sort_unstable();
                writes.dedup();
                (
                    PageOpKind::Physiological,
                    vec![cell(&mut rng, page)],
                    writes,
                )
            };
            ops.push(PageOp {
                id: i as u32,
                kind,
                reads,
                writes,
                f_seed: mix64(seed ^ i as u64),
            });
        }
        ops
    }

    /// Projects a generated workload into a theory-level history at slot
    /// granularity.
    #[must_use]
    pub fn to_history(&self, ops: &[PageOp]) -> History {
        History::new(
            ops.iter()
                .map(|op| op.to_operation(self.slots_per_page))
                .collect(),
        )
        .expect("sequential ids")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cells_project_to_distinct_vars() {
        let a = Cell {
            page: PageId(0),
            slot: SlotId(7),
        };
        let b = Cell {
            page: PageId(1),
            slot: SlotId(0),
        };
        assert_ne!(a.var(8), b.var(8));
        assert_eq!(a.var(8), Var(7));
        assert_eq!(b.var(8), Var(8));
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = PageWorkloadSpec::default();
        assert_eq!(spec.generate(3), spec.generate(3));
    }

    #[test]
    fn physiological_ops_stay_on_one_page() {
        let spec = PageWorkloadSpec {
            n_ops: 80,
            ..Default::default()
        };
        for op in spec.generate(1) {
            assert_eq!(op.kind, PageOpKind::Physiological);
            assert_eq!(op.written_pages().len(), 1);
            assert_eq!(op.read_pages(), op.written_pages());
        }
    }

    #[test]
    fn footprint_names_what_the_per_use_listings_named() {
        let cells = |pages: &[u32]| -> Vec<Cell> {
            let cell = |&p| Cell {
                page: PageId(p),
                slot: SlotId(0),
            };
            pages.iter().map(cell).collect()
        };
        // Generated shapes, and one wide enough to leave the inline
        // buffer on every list.
        let spec = PageWorkloadSpec {
            n_ops: 120,
            n_pages: 6,
            cross_page_fraction: 0.4,
            multi_page_fraction: 0.2,
            blind_fraction: 0.1,
            ..Default::default()
        };
        let mut ops = spec.generate(4);
        ops.push(PageOp {
            id: 0,
            kind: PageOpKind::MultiPage,
            reads: cells(&[9, 3, 14, 3, 8, 1, 12, 7, 2]),
            writes: cells(&[7, 5, 6, 5, 4, 3, 11]),
            f_seed: 1,
        });
        for op in &ops {
            let fp = op.footprint();
            assert_eq!(*fp.written, *op.written_pages());
            let mut cross = op.read_pages();
            cross.retain(|p| !fp.written.contains(p));
            assert_eq!(*fp.cross_reads, *cross);
            let mut touched = op.read_pages();
            touched.extend(op.written_pages());
            touched.sort_unstable();
            touched.dedup();
            assert_eq!(*fp.touched, *touched);
            assert_eq!(fp.touched.into_iter().collect::<Vec<_>>(), touched);
        }
    }

    #[test]
    fn blind_ops_never_read() {
        let spec = PageWorkloadSpec {
            blind_fraction: 1.0,
            n_ops: 40,
            ..Default::default()
        };
        for op in spec.generate(2) {
            assert_eq!(op.kind, PageOpKind::Blind);
            assert!(op.reads.is_empty());
        }
    }

    #[test]
    fn generalized_ops_read_other_pages_but_write_one() {
        let spec = PageWorkloadSpec {
            cross_page_fraction: 1.0,
            n_pages: 4,
            n_ops: 40,
            ..Default::default()
        };
        let ops = spec.generate(3);
        let generalized: Vec<_> = ops
            .iter()
            .filter(|o| o.kind == PageOpKind::Generalized)
            .collect();
        assert!(!generalized.is_empty());
        for op in generalized {
            assert_eq!(op.written_pages().len(), 1);
            assert!(op.read_pages().len() >= 2, "{op:?}");
        }
    }

    #[test]
    fn output_depends_on_reads_and_cell() {
        let op = PageOp {
            id: 5,
            kind: PageOpKind::Physiological,
            reads: vec![Cell {
                page: PageId(0),
                slot: SlotId(0),
            }],
            writes: vec![Cell {
                page: PageId(0),
                slot: SlotId(1),
            }],
            f_seed: 99,
        };
        let c = op.writes[0];
        assert_eq!(op.output(c, &[1]), op.output(c, &[1]));
        assert_ne!(op.output(c, &[1]), op.output(c, &[2]));
        let other = Cell {
            page: PageId(0),
            slot: SlotId(2),
        };
        assert_ne!(op.output(c, &[1]), op.output(other, &[1]));
    }

    #[test]
    fn projection_preserves_conflict_structure() {
        let spec = PageWorkloadSpec {
            n_ops: 30,
            cross_page_fraction: 0.5,
            blind_fraction: 0.2,
            ..Default::default()
        };
        let ops = spec.generate(9);
        let h = spec.to_history(&ops);
        assert_eq!(h.len(), ops.len());
        for (page_op, theory_op) in ops.iter().zip(h.iter()) {
            let want_reads: std::collections::BTreeSet<Var> = page_op
                .reads
                .iter()
                .map(|c| c.var(spec.slots_per_page))
                .collect();
            let want_writes: std::collections::BTreeSet<Var> = page_op
                .writes
                .iter()
                .map(|c| c.var(spec.slots_per_page))
                .collect();
            assert_eq!(theory_op.reads(), &want_reads);
            assert_eq!(theory_op.writes(), &want_writes);
        }
    }

    #[test]
    fn mix64_spreads() {
        assert_ne!(mix64(0), 0);
        assert_ne!(mix64(1), mix64(2));
    }

    #[test]
    fn output_matches_theory_expression_bit_for_bit() {
        // The cornerstone of the sim/theory cross-validation: running a
        // page workload against the substrate and running its projection
        // through the theory produce identical slot values.
        use redo_theory::state::{State, Value};
        let spec = PageWorkloadSpec {
            n_ops: 40,
            cross_page_fraction: 0.4,
            blind_fraction: 0.2,
            n_pages: 4,
            ..Default::default()
        };
        let ops = spec.generate(17);
        let h = spec.to_history(&ops);
        // Simulated execution over a plain slot map.
        let mut cells: std::collections::BTreeMap<Cell, u64> = std::collections::BTreeMap::new();
        // Theory execution.
        let mut theory = State::zeroed();
        for (page_op, theory_op) in ops.iter().zip(h.iter()) {
            let reads: Vec<u64> = page_op
                .reads
                .iter()
                .map(|c| cells.get(c).copied().unwrap_or(0))
                .collect();
            for &w in &page_op.writes {
                cells.insert(w, page_op.output(w, &reads));
            }
            theory_op.apply(&mut theory);
        }
        for (&cell, &v) in &cells {
            assert_eq!(
                theory.get(cell.var(spec.slots_per_page)),
                Value(v),
                "cell {cell:?} diverged between sim and theory"
            );
        }
    }

    /// Hand-built operations take `f_seed = id + 1`: blind writes of one
    /// cell by ids 0 and 2 must still write different values, or a test
    /// that relies on an overwrite changing a cell passes vacuously.
    #[test]
    fn blind_writes_under_the_test_seed_convention_differ() {
        let cell = Cell {
            page: PageId(0),
            slot: SlotId(0),
        };
        let blind = |id: u32| PageOp {
            id,
            kind: PageOpKind::Blind,
            reads: vec![],
            writes: vec![cell],
            f_seed: u64::from(id) + 1,
        };
        assert_ne!(blind(0).output(cell, &[]), blind(2).output(cell, &[]));
    }
}
