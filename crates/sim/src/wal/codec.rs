//! Primitive encoders/decoders for log payloads.

use redo_workload::pages::{Cell, OpCells, PageId, PageOp, PageOpKind, SlotId};

use crate::error::{SimError, SimResult};

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a single byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Reads a little-endian `u64`.
///
/// # Errors
///
/// [`SimError::Corrupt`] if fewer than 8 bytes remain.
pub fn get_u64(input: &[u8], pos: &mut usize) -> SimResult<u64> {
    let end = pos.checked_add(8).ok_or(SimError::Corrupt(*pos))?;
    let bytes = input.get(*pos..end).ok_or(SimError::Corrupt(*pos))?;
    *pos = end;
    Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
}

/// Reads a little-endian `u32`.
///
/// # Errors
///
/// [`SimError::Corrupt`] if fewer than 4 bytes remain.
pub fn get_u32(input: &[u8], pos: &mut usize) -> SimResult<u32> {
    let end = pos.checked_add(4).ok_or(SimError::Corrupt(*pos))?;
    let bytes = input.get(*pos..end).ok_or(SimError::Corrupt(*pos))?;
    *pos = end;
    Ok(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
}

/// Reads a little-endian `u16`.
///
/// # Errors
///
/// [`SimError::Corrupt`] if fewer than 2 bytes remain.
pub fn get_u16(input: &[u8], pos: &mut usize) -> SimResult<u16> {
    let end = pos.checked_add(2).ok_or(SimError::Corrupt(*pos))?;
    let bytes = input.get(*pos..end).ok_or(SimError::Corrupt(*pos))?;
    *pos = end;
    Ok(u16::from_le_bytes(bytes.try_into().expect("2 bytes")))
}

/// Reads one byte.
///
/// # Errors
///
/// [`SimError::Corrupt`] at end of input.
pub fn get_u8(input: &[u8], pos: &mut usize) -> SimResult<u8> {
    let b = *input.get(*pos).ok_or(SimError::Corrupt(*pos))?;
    *pos += 1;
    Ok(b)
}

/// Appends a cell (page id + slot).
pub fn put_cell(buf: &mut Vec<u8>, c: Cell) {
    put_u32(buf, c.page.0);
    put_u16(buf, c.slot.0);
}

/// Reads a cell.
///
/// # Errors
///
/// [`SimError::Corrupt`] on truncated input.
pub fn get_cell(input: &[u8], pos: &mut usize) -> SimResult<Cell> {
    let page = PageId(get_u32(input, pos)?);
    let slot = SlotId(get_u16(input, pos)?);
    Ok(Cell { page, slot })
}

/// Checked conversion of a collection length into its 16-bit
/// on-disk count field.
///
/// # Errors
///
/// [`SimError::FieldOverflow`] naming `field` when `len` exceeds
/// `u16::MAX` — encoding it with a wrapping cast would silently
/// corrupt the record.
pub fn count_u16(field: &'static str, len: usize) -> SimResult<u16> {
    u16::try_from(len).map_err(|_| SimError::FieldOverflow {
        field,
        value: len as u64,
    })
}

/// Checked conversion of a collection length into its 32-bit
/// on-disk count field.
///
/// # Errors
///
/// [`SimError::FieldOverflow`] naming `field` when `len` exceeds
/// `u32::MAX` — encoding it with a wrapping cast would silently
/// corrupt the record.
pub fn count_u32(field: &'static str, len: usize) -> SimResult<u32> {
    u32::try_from(len).map_err(|_| SimError::FieldOverflow {
        field,
        value: len as u64,
    })
}

/// Appends a full [`PageOp`].
///
/// # Errors
///
/// [`SimError::FieldOverflow`] if a read or write set exceeds its
/// 16-bit count field. `buf`'s tail is unspecified on error.
pub fn put_page_op(buf: &mut Vec<u8>, op: &PageOp) -> SimResult<()> {
    put_u32(buf, op.id);
    put_u8(
        buf,
        match op.kind {
            PageOpKind::Physiological => 0,
            PageOpKind::Generalized => 1,
            PageOpKind::Blind => 2,
            PageOpKind::MultiPage => 3,
        },
    );
    put_u64(buf, op.f_seed);
    put_u16(buf, count_u16("page-op read count", op.reads.len())?);
    for &c in &op.reads {
        put_cell(buf, c);
    }
    put_u16(buf, count_u16("page-op write count", op.writes.len())?);
    for &c in &op.writes {
        put_cell(buf, c);
    }
    Ok(())
}

/// Reads a full [`PageOp`]: [`PageOpView::parse`], then
/// [`PageOpView::to_owned`].
///
/// # Errors
///
/// [`SimError::Corrupt`] on truncated or invalid input.
pub fn get_page_op(input: &[u8], pos: &mut usize) -> SimResult<PageOp> {
    PageOpView::parse(input, pos).map(PageOpView::to_owned)
}

/// Bytes of one encoded cell: a `u32` page id, then a `u16` slot.
const CELL_BYTES: usize = 6;

/// A [`PageOp`] read in place from its encoding: the scalar fields
/// decoded, the read and write sets left in the bytes that hold them —
/// what a reader of a long history holds per record instead of two heap
/// `Vec<Cell>`s. The one parser of the wire layout ([`get_page_op`] is
/// this plus [`PageOpView::to_owned`]).
#[derive(Clone, Copy, Debug)]
pub struct PageOpView<'a> {
    /// As [`PageOp::id`].
    pub id: u32,
    /// As [`PageOp::kind`].
    pub kind: PageOpKind,
    /// As [`PageOp::f_seed`].
    pub f_seed: u64,
    reads: &'a [[u8; CELL_BYTES]],
    writes: &'a [[u8; CELL_BYTES]],
}

/// A `u16` cell count, then that many cells, left encoded.
fn get_cells<'a>(input: &'a [u8], pos: &mut usize) -> SimResult<&'a [[u8; CELL_BYTES]]> {
    let n = get_u16(input, pos)? as usize;
    let (cells, rest) = input[*pos..].as_chunks::<CELL_BYTES>();
    let Some(cells) = cells.get(..n) else {
        // Where a cell-by-cell read fails: at the first cell that does
        // not fit, or at its slot when its page id does.
        let short = *pos + cells.len() * CELL_BYTES;
        return Err(SimError::Corrupt(
            short + if rest.len() >= 4 { 4 } else { 0 },
        ));
    };
    *pos += n * CELL_BYTES;
    Ok(cells)
}

fn cells(cells: &[[u8; CELL_BYTES]]) -> impl ExactSizeIterator<Item = Cell> + '_ {
    cells.iter().map(|&[p0, p1, p2, p3, s0, s1]| Cell {
        page: PageId(u32::from_le_bytes([p0, p1, p2, p3])),
        slot: SlotId(u16::from_le_bytes([s0, s1])),
    })
}

impl<'a> PageOpView<'a> {
    /// Reads one operation's encoding at `*pos`, advancing past it.
    ///
    /// # Errors
    ///
    /// [`SimError::Corrupt`] on truncated or invalid input, at the
    /// offset of the first field that does not parse.
    pub fn parse(input: &'a [u8], pos: &mut usize) -> SimResult<PageOpView<'a>> {
        let id = get_u32(input, pos)?;
        let kind = match get_u8(input, pos)? {
            0 => PageOpKind::Physiological,
            1 => PageOpKind::Generalized,
            2 => PageOpKind::Blind,
            3 => PageOpKind::MultiPage,
            _ => return Err(SimError::Corrupt(*pos - 1)),
        };
        let f_seed = get_u64(input, pos)?;
        let reads = get_cells(input, pos)?;
        let writes = get_cells(input, pos)?;
        Ok(PageOpView {
            id,
            kind,
            f_seed,
            reads,
            writes,
        })
    }

    /// The operation as an owned [`PageOp`].
    #[must_use]
    pub fn to_owned(self) -> PageOp {
        PageOp {
            id: self.id,
            kind: self.kind,
            reads: self.reads().collect(),
            writes: self.writes().collect(),
            f_seed: self.f_seed,
        }
    }
}

impl OpCells for PageOpView<'_> {
    fn id(&self) -> u32 {
        self.id
    }

    fn f_seed(&self) -> u64 {
        self.f_seed
    }

    fn reads(&self) -> impl ExactSizeIterator<Item = Cell> + '_ {
        cells(self.reads)
    }

    fn writes(&self) -> impl ExactSizeIterator<Item = Cell> + '_ {
        cells(self.writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The cell-by-cell parser [`get_page_op`] was before the view —
    /// the reference the view's fields and error offsets are held to.
    fn reference_get_page_op(input: &[u8], pos: &mut usize) -> SimResult<PageOp> {
        let id = get_u32(input, pos)?;
        let kind = match get_u8(input, pos)? {
            0 => PageOpKind::Physiological,
            1 => PageOpKind::Generalized,
            2 => PageOpKind::Blind,
            3 => PageOpKind::MultiPage,
            _ => return Err(SimError::Corrupt(*pos - 1)),
        };
        let f_seed = get_u64(input, pos)?;
        let n_reads = get_u16(input, pos)? as usize;
        let mut reads = Vec::with_capacity(n_reads.min(1024));
        for _ in 0..n_reads {
            reads.push(get_cell(input, pos)?);
        }
        let n_writes = get_u16(input, pos)? as usize;
        let mut writes = Vec::with_capacity(n_writes.min(1024));
        for _ in 0..n_writes {
            writes.push(get_cell(input, pos)?);
        }
        Ok(PageOp {
            id,
            kind,
            reads,
            writes,
            f_seed,
        })
    }

    /// The view and the reference, each read off `input` at `at`: the
    /// operation and where the parse ended, or the error (the position
    /// after an error is unspecified).
    fn both(input: &[u8], at: usize) -> [SimResult<(PageOp, usize)>; 2] {
        let (mut view_pos, mut reference_pos) = (at, at);
        let view = PageOpView::parse(input, &mut view_pos).map(PageOpView::to_owned);
        let reference = reference_get_page_op(input, &mut reference_pos);
        [
            view.map(|op| (op, view_pos)),
            reference.map(|op| (op, reference_pos)),
        ]
    }

    fn arb_cells() -> impl Strategy<Value = Vec<Cell>> {
        proptest::collection::vec(
            (any::<u32>(), any::<u16>()).prop_map(|(page, slot)| Cell {
                page: PageId(page),
                slot: SlotId(slot),
            }),
            0..6,
        )
    }

    proptest! {
        /// For every valid encoding the view holds what the reference
        /// decodes, field by field; for every truncation and every
        /// single-bit flip of it, the two agree on the result — the
        /// same `Corrupt` offset, or the same operation and end.
        #[test]
        fn the_view_reads_what_the_cell_by_cell_parser_reads(
            id in any::<u32>(),
            kind in 0usize..4,
            f_seed in any::<u64>(),
            reads in arb_cells(),
            writes in arb_cells(),
            lead in 0usize..3,
        ) {
            let kinds = [
                PageOpKind::Physiological,
                PageOpKind::Generalized,
                PageOpKind::Blind,
                PageOpKind::MultiPage,
            ];
            let op = PageOp { id, kind: kinds[kind], reads, writes, f_seed };
            // A few bytes before the operation, so offsets are absolute.
            let mut buf = vec![0xa5; lead];
            put_page_op(&mut buf, &op).unwrap();
            let mut pos = lead;
            let view = PageOpView::parse(&buf, &mut pos).unwrap();
            prop_assert_eq!(pos, buf.len());
            prop_assert_eq!((view.id, view.kind, view.f_seed), (op.id, op.kind, op.f_seed));
            prop_assert!(view.reads().eq(op.reads.iter().copied()));
            prop_assert!(view.writes().eq(op.writes.iter().copied()));
            prop_assert_eq!(view.reads().len(), op.reads.len());
            let values: Vec<u64> = (0..op.reads.len() as u64).collect();
            for &cell in &op.writes {
                prop_assert_eq!(view.output(cell, &values), op.output(cell, &values));
            }
            let [viewed, reference] = both(&buf, lead);
            prop_assert_eq!(&viewed, &reference);
            prop_assert_eq!(viewed, Ok((op, buf.len())));
            for cut in lead..buf.len() {
                let [viewed, reference] = both(&buf[..cut], lead);
                prop_assert!(matches!(reference, Err(SimError::Corrupt(_))));
                prop_assert_eq!(viewed, reference, "cut at {}", cut);
            }
            for at in lead..buf.len() {
                for bit in 0..8 {
                    let mut flipped = buf.clone();
                    flipped[at] ^= 1 << bit;
                    let [viewed, reference] = both(&flipped, lead);
                    prop_assert_eq!(viewed, reference, "bit {} of byte {}", bit, at);
                }
            }
        }
    }
}
