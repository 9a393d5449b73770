//! The shared log payload for operation-logging methods.
//!
//! Logical, physiological, and generalized-LSN recovery all log the
//! *operation* (not its output values): a [`PageOp`], plus the one
//! [`Checkpoint`] record every method logs. They differ only in their
//! redo tests and in which checkpoint they take — and that is a call
//! ([`redo::checkpoint_heavyweight`](crate::redo::checkpoint_heavyweight)
//! or [`redo::checkpoint_fuzzy`](crate::redo::checkpoint_fuzzy)), not a
//! record shape — so they share this payload.

use redo_sim::wal::codec::PageOpView;
use redo_sim::wal::{codec, EncodedRecord, LogPayload, ShardedLog};
use redo_sim::SimResult;
use redo_workload::pages::{Footprint, OpCells, PageId, PageOp};

use crate::redo::{Checkpoint, CheckpointView};

/// An operation record or a checkpoint record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PageOpPayload {
    /// A logged operation.
    Op(PageOp),
    /// A checkpoint: heavyweight, fuzzy or a delta link, all one record.
    Checkpoint(Checkpoint),
}

/// The body of a [`PageOpPayload::Op`] record.
fn put_op(buf: &mut Vec<u8>, op: &PageOp) -> SimResult<()> {
    codec::put_u8(buf, 0);
    codec::put_page_op(buf, op)
}

impl PageOpPayload {
    /// [`ShardedLog::encode`] of `PageOpPayload::Op(op)`, from a
    /// borrowed operation and its [`PageOp::footprint`]: the foreground
    /// path has no payload to give away and should not clone one to log
    /// it, and has named the operation's pages already.
    ///
    /// # Errors
    ///
    /// As [`ShardedLog::encode`].
    pub fn encode_op(op: &PageOp, fp: &Footprint) -> SimResult<EncodedRecord> {
        let put = |buf: &mut Vec<u8>| put_op(buf, op);
        let (writes, cross_reads) = (fp.written.to_vec(), fp.cross_reads.to_vec());
        ShardedLog::<PageOpPayload>::encode_with(put, writes, cross_reads)
    }

    /// The operation a record's encoding holds, read in place: the
    /// borrowing twin of [`LogPayload::decode`] (give it to
    /// [`RecordBody::parse`](redo_sim::wal::RecordBody::parse)). `None`
    /// for a checkpoint record, which is still decoded in full, so a
    /// damaged one is `Corrupt` here exactly as there.
    ///
    /// # Errors
    ///
    /// As [`LogPayload::decode`].
    pub fn op_view<'a>(input: &'a [u8], pos: &mut usize) -> SimResult<Option<PageOpView<'a>>> {
        match codec::get_u8(input, pos)? {
            0 => PageOpView::parse(input, pos).map(Some),
            kind => Checkpoint::decode(kind, input, pos).map(|_| None),
        }
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
            PageOpPayload::Op(op) => op.footprint().cross_reads.to_vec(),
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
