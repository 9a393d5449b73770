//! The shared log payload for operation-logging methods.
//!
//! Logical, physiological, and generalized-LSN recovery all log the
//! *operation* (not its output values): a [`PageOp`] plus checkpoint
//! markers. They differ only in their redo tests and checkpoint
//! disciplines, so they share this payload.

use redo_sim::wal::{codec, EncodedRecord, LogPayload, ShardedLog};
use redo_sim::{SimError, SimResult};
use redo_theory::log::Lsn;
use redo_workload::pages::{PageId, PageOp};

use crate::redo::{CheckpointRecord, CheckpointView};

/// An operation record or a checkpoint marker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PageOpPayload {
    /// A logged operation.
    Op(PageOp),
    /// A heavyweight checkpoint record: everything below it is
    /// installed, so recovery scans strictly after it.
    Checkpoint,
    /// A fuzzy checkpoint record, taken online without quiescing or
    /// flushing: the buffer pool's dirty-page table (page, recLSN)
    /// at the moment of the snapshot, plus the precomputed redo-start
    /// LSN (the min over those recLSNs).
    /// Recovery scans from `redo_start`; the per-page redo tests
    /// make replaying already-installed records harmless.
    FuzzyCheckpoint {
        /// Dirty pages with their recovery LSNs, in id order.
        dirty: Vec<(PageId, Lsn)>,
        /// The LSN recovery must scan from.
        redo_start: Lsn,
    },
    /// An incremental checkpoint record: the dirty-page-table *delta*
    /// against the previous checkpoint in the chain, not a full
    /// snapshot. Analysis reconstructs the DPT by walking `prev` links
    /// back to the full [`FuzzyCheckpoint`] at `base` and folding the
    /// deltas oldest→newest; a broken link (truncated past, torn
    /// record, foreign LSN) falls back to reading `base` as a full
    /// snapshot, and failing that to a full log scan — deltas only
    /// ever *narrow* the scan, they can never make recovery wrong.
    DeltaCheckpoint {
        /// The previous checkpoint record in the chain (a
        /// `FuzzyCheckpoint` or another `DeltaCheckpoint`).
        prev: Lsn,
        /// The full `FuzzyCheckpoint` snapshot the chain grows from.
        base: Lsn,
        /// The LSN recovery must scan from, as of this delta.
        redo_start: Lsn,
        /// Pages dirtied (or re-dirtied at a new recLSN) since `prev`.
        added: Vec<(PageId, Lsn)>,
        /// Pages cleaned since `prev`.
        removed: Vec<PageId>,
    },
}

/// The pages `op` reads but does not write, in id order — the far ends
/// of its §6.4 read-write edges. Empty (and allocation-free) for every
/// operation that reads only what it writes.
pub(crate) fn cross_reads(op: &PageOp) -> Vec<PageId> {
    let mut pages = Vec::new();
    for page in op.reads.iter().map(|cell| cell.page) {
        if !pages.contains(&page) && op.writes.iter().all(|w| w.page != page) {
            pages.push(page);
        }
    }
    pages.sort_unstable();
    pages
}

/// Appends a dirty-page table — a 16-bit count (`what` names it in the
/// overflow error), then `(page, recLSN)` pairs — the one wire shape of
/// every fuzzy and delta checkpoint record.
pub(crate) fn put_dirty_table(
    buf: &mut Vec<u8>,
    what: &'static str,
    table: &[(PageId, Lsn)],
) -> SimResult<()> {
    codec::put_u16(buf, codec::count_u16(what, table.len())?);
    for &(page, rec) in table {
        codec::put_u32(buf, page.0);
        codec::put_u64(buf, rec.0);
    }
    Ok(())
}

/// Decodes what [`put_dirty_table`] wrote.
pub(crate) fn get_dirty_table(input: &[u8], pos: &mut usize) -> SimResult<Vec<(PageId, Lsn)>> {
    let n = codec::get_u16(input, pos)? as usize;
    let mut table = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        let page = PageId(codec::get_u32(input, pos)?);
        let rec = Lsn(codec::get_u64(input, pos)?);
        table.push((page, rec));
    }
    Ok(table)
}

/// The body of a [`PageOpPayload::Op`] record.
fn put_op(buf: &mut Vec<u8>, op: &PageOp) -> SimResult<()> {
    codec::put_u8(buf, 0);
    codec::put_page_op(buf, op)
}

impl PageOpPayload {
    /// [`ShardedLog::encode`] of `PageOpPayload::Op(op)`, from a
    /// borrowed operation: the foreground path has no payload to give
    /// away and should not clone one to log it.
    ///
    /// # Errors
    ///
    /// As [`ShardedLog::encode`].
    pub fn encode_op(op: &PageOp) -> SimResult<EncodedRecord> {
        let put = |buf: &mut Vec<u8>| put_op(buf, op);
        ShardedLog::<PageOpPayload>::encode_with(put, op.written_pages(), cross_reads(op))
    }
}

impl LogPayload for PageOpPayload {
    fn encode(&self, buf: &mut Vec<u8>) -> SimResult<()> {
        match self {
            PageOpPayload::Op(op) => put_op(buf, op)?,
            PageOpPayload::Checkpoint => codec::put_u8(buf, 1),
            PageOpPayload::FuzzyCheckpoint { dirty, redo_start } => {
                codec::put_u8(buf, 2);
                codec::put_u64(buf, redo_start.0);
                put_dirty_table(buf, "dirty-page-table length", dirty)?;
            }
            PageOpPayload::DeltaCheckpoint {
                prev,
                base,
                redo_start,
                added,
                removed,
            } => {
                codec::put_u8(buf, 3);
                codec::put_u64(buf, prev.0);
                codec::put_u64(buf, base.0);
                codec::put_u64(buf, redo_start.0);
                put_dirty_table(buf, "delta added length", added)?;
                codec::put_u16(
                    buf,
                    codec::count_u16("delta removed length", removed.len())?,
                );
                for &page in removed {
                    codec::put_u32(buf, page.0);
                }
            }
        }
        Ok(())
    }

    fn decode(input: &[u8], pos: &mut usize) -> SimResult<Self> {
        match codec::get_u8(input, pos)? {
            0 => Ok(PageOpPayload::Op(codec::get_page_op(input, pos)?)),
            1 => Ok(PageOpPayload::Checkpoint),
            2 => {
                let redo_start = Lsn(codec::get_u64(input, pos)?);
                let dirty = get_dirty_table(input, pos)?;
                Ok(PageOpPayload::FuzzyCheckpoint { dirty, redo_start })
            }
            3 => {
                let prev = Lsn(codec::get_u64(input, pos)?);
                let base = Lsn(codec::get_u64(input, pos)?);
                let redo_start = Lsn(codec::get_u64(input, pos)?);
                let added = get_dirty_table(input, pos)?;
                let n = codec::get_u16(input, pos)? as usize;
                let mut removed = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    removed.push(PageId(codec::get_u32(input, pos)?));
                }
                Ok(PageOpPayload::DeltaCheckpoint {
                    prev,
                    base,
                    redo_start,
                    added,
                    removed,
                })
            }
            _ => Err(SimError::Corrupt(*pos - 1)),
        }
    }

    fn write_pages(&self) -> Vec<PageId> {
        // Only operation records extend per-page chains; checkpoint
        // markers touch no page.
        match self {
            PageOpPayload::Op(op) => op.written_pages(),
            PageOpPayload::Checkpoint
            | PageOpPayload::FuzzyCheckpoint { .. }
            | PageOpPayload::DeltaCheckpoint { .. } => Vec::new(),
        }
    }

    fn cross_read_pages(&self) -> Vec<PageId> {
        match self {
            PageOpPayload::Op(op) => cross_reads(op),
            PageOpPayload::Checkpoint
            | PageOpPayload::FuzzyCheckpoint { .. }
            | PageOpPayload::DeltaCheckpoint { .. } => Vec::new(),
        }
    }
}

impl CheckpointView for PageOpPayload {
    fn into_checkpoint(self) -> Option<CheckpointRecord> {
        match self {
            PageOpPayload::Op(_) => None,
            PageOpPayload::Checkpoint => Some(CheckpointRecord::Heavyweight),
            PageOpPayload::FuzzyCheckpoint { dirty, redo_start } => {
                Some(CheckpointRecord::Snapshot { dirty, redo_start })
            }
            PageOpPayload::DeltaCheckpoint {
                prev,
                base,
                redo_start,
                added,
                removed,
            } => Some(CheckpointRecord::Delta {
                prev,
                base,
                redo_start,
                added,
                removed,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redo_workload::pages::PageWorkloadSpec;

    #[test]
    fn roundtrip() {
        let spec = PageWorkloadSpec {
            n_ops: 10,
            cross_page_fraction: 0.5,
            ..Default::default()
        };
        for op in spec.generate(1) {
            let p = PageOpPayload::Op(op);
            let mut buf = Vec::new();
            p.encode(&mut buf).unwrap();
            let mut pos = 0;
            assert_eq!(PageOpPayload::decode(&buf, &mut pos).unwrap(), p);
        }
        let mut buf = Vec::new();
        PageOpPayload::Checkpoint.encode(&mut buf).unwrap();
        let mut pos = 0;
        assert_eq!(
            PageOpPayload::decode(&buf, &mut pos).unwrap(),
            PageOpPayload::Checkpoint
        );
    }

    #[test]
    fn fuzzy_checkpoint_roundtrip() {
        for dirty in [
            vec![],
            vec![(PageId(3), Lsn(7))],
            vec![
                (PageId(0), Lsn(1)),
                (PageId(9), Lsn(40)),
                (PageId(12), Lsn(2)),
            ],
        ] {
            let p = PageOpPayload::FuzzyCheckpoint {
                dirty,
                redo_start: Lsn(5),
            };
            let mut buf = Vec::new();
            p.encode(&mut buf).unwrap();
            let mut pos = 0;
            assert_eq!(PageOpPayload::decode(&buf, &mut pos).unwrap(), p);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_fuzzy_checkpoint_is_corrupt() {
        let p = PageOpPayload::FuzzyCheckpoint {
            dirty: vec![(PageId(1), Lsn(2)), (PageId(2), Lsn(3))],
            redo_start: Lsn(2),
        };
        let mut buf = Vec::new();
        p.encode(&mut buf).unwrap();
        for cut in 1..buf.len() {
            let mut pos = 0;
            assert!(
                matches!(
                    PageOpPayload::decode(&buf[..cut], &mut pos),
                    Err(SimError::Corrupt(_))
                ),
                "cut at {cut} must not parse"
            );
        }
    }

    #[test]
    fn delta_checkpoint_roundtrip() {
        for (added, removed) in [
            (vec![], vec![]),
            (vec![(PageId(3), Lsn(7))], vec![PageId(1)]),
            (
                vec![(PageId(0), Lsn(12)), (PageId(9), Lsn(40))],
                vec![PageId(2), PageId(5), PageId(8)],
            ),
        ] {
            let p = PageOpPayload::DeltaCheckpoint {
                prev: Lsn(11),
                base: Lsn(4),
                redo_start: Lsn(6),
                added,
                removed,
            };
            let mut buf = Vec::new();
            p.encode(&mut buf).unwrap();
            let mut pos = 0;
            assert_eq!(PageOpPayload::decode(&buf, &mut pos).unwrap(), p);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_delta_checkpoint_is_corrupt() {
        let p = PageOpPayload::DeltaCheckpoint {
            prev: Lsn(20),
            base: Lsn(10),
            redo_start: Lsn(12),
            added: vec![(PageId(1), Lsn(15)), (PageId(2), Lsn(18))],
            removed: vec![PageId(3)],
        };
        let mut buf = Vec::new();
        p.encode(&mut buf).unwrap();
        for cut in 1..buf.len() {
            let mut pos = 0;
            assert!(
                matches!(
                    PageOpPayload::decode(&buf[..cut], &mut pos),
                    Err(SimError::Corrupt(_))
                ),
                "cut at {cut} must not parse"
            );
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let buf = [9u8];
        let mut pos = 0;
        assert!(matches!(
            PageOpPayload::decode(&buf, &mut pos),
            Err(SimError::Corrupt(0))
        ));
    }
}
