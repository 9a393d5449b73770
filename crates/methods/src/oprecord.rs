//! The shared log payload for operation-logging methods.
//!
//! Logical, physiological, and generalized-LSN recovery all log the
//! *operation* (not its output values): a [`PageOp`], plus the one
//! [`Checkpoint`] record every method logs. They differ only in their
//! redo tests and in which checkpoint they take — and that is a call
//! ([`redo::checkpoint_heavyweight`](crate::redo::checkpoint_heavyweight)
//! or [`redo::checkpoint_fuzzy`](crate::redo::checkpoint_fuzzy)), not a
//! record shape — so they share this payload.

use redo_sim::wal::{codec, EncodedRecord, LogPayload, ShardedLog};
use redo_sim::SimResult;
use redo_workload::pages::{PageId, PageOp};

use crate::redo::{Checkpoint, CheckpointView};

/// An operation record or a checkpoint record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PageOpPayload {
    /// A logged operation.
    Op(PageOp),
    /// A checkpoint: heavyweight, fuzzy or a delta link, all one record.
    Checkpoint(Checkpoint),
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
            PageOpPayload::Op(op) => put_op(buf, op),
            PageOpPayload::Checkpoint(checkpoint) => checkpoint.encode(buf),
        }
    }

    fn decode(input: &[u8], pos: &mut usize) -> SimResult<Self> {
        match codec::get_u8(input, pos)? {
            0 => Ok(PageOpPayload::Op(codec::get_page_op(input, pos)?)),
            kind => Checkpoint::decode(kind, input, pos).map(PageOpPayload::Checkpoint),
        }
    }

    fn write_pages(&self) -> Vec<PageId> {
        // Only operation records extend per-page chains; a checkpoint
        // touches no page.
        match self {
            PageOpPayload::Op(op) => op.written_pages(),
            PageOpPayload::Checkpoint(_) => Vec::new(),
        }
    }

    fn cross_read_pages(&self) -> Vec<PageId> {
        match self {
            PageOpPayload::Op(op) => cross_reads(op),
            PageOpPayload::Checkpoint(_) => Vec::new(),
        }
    }
}

impl CheckpointView for PageOpPayload {
    fn as_checkpoint(&self) -> Option<&Checkpoint> {
        match self {
            PageOpPayload::Op(_) => None,
            PageOpPayload::Checkpoint(checkpoint) => Some(checkpoint),
        }
    }

    fn from_checkpoint(checkpoint: Checkpoint) -> Self {
        PageOpPayload::Checkpoint(checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redo_sim::SimError;
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
