//! Log records of the recoverable B+tree.
//!
//! One record is one *logical action* of the tree, whole: a key insert
//! or remove on one leaf, the bootstrap, or a complete structure
//! modification. The log frame is the atomic unit, so the tree a crash
//! leaves is the tree as of some record boundary — there is no such
//! thing as half a split in the log. A record may therefore write
//! several pages ([`LogPayload::write_pages`] names them all); redo
//! gives each its share under that page's own LSN test
//! ([`apply_payload`](crate::tree::apply_payload)).
//!
//! The two split styles are one record shape, [`BtPayload::Split`],
//! differing in one field:
//!
//! * physiological: `image: Some(..)` carries the new node's full
//!   contents (the moved half travels through the log);
//! * generalized: `image: None` — the moved half is *read from the old
//!   page* at replay time (§6.4, Figure 8).

use redo_methods::redo::{Checkpoint, CheckpointView};
use redo_sim::wal::{codec, LogPayload};
use redo_sim::{SimError, SimResult};
use redo_workload::pages::PageId;

/// The metadata page: current root and page allocator.
pub(crate) const META: PageId = PageId(0);
/// The empty leaf a fresh tree starts from.
pub(crate) const FIRST_ROOT: PageId = PageId(1);

/// A B+tree log record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BtPayload {
    /// Bootstrap (blind): format page 1 as an empty leaf root and point
    /// the meta page at it.
    Create,
    /// Insert `(key, value)` into leaf `page` (reads and writes `page`).
    Insert {
        /// Target leaf.
        page: PageId,
        /// Key.
        key: u64,
        /// Value.
        value: u64,
    },
    /// Remove `key` from leaf `page`.
    Remove {
        /// Target leaf.
        page: PageId,
        /// Key.
        key: u64,
    },
    /// One whole node split: the upper half of `from` moves to the
    /// fresh page `to`, `from` is truncated (and, a leaf, linked to
    /// `to`), `parent` gains `separator` with `to` to its right, and the
    /// meta page's allocator moves to `next_free`.
    Split {
        /// The overfull page being split.
        from: PageId,
        /// The freshly allocated right sibling.
        to: PageId,
        /// The internal node that gains the separator.
        parent: PageId,
        /// A root split: `parent` is a fresh page, formatted as the
        /// new root over `from` and `to`, and the meta page's root moves
        /// to it.
        new_root: bool,
        /// The separator between `from` and `to`.
        separator: u64,
        /// The next unallocated page id after this split.
        next_free: u32,
        /// `to`'s complete slot contents (the physiological split), or
        /// `None` for §6.4's generalized split: `to` is written from
        /// what `from` held just before this record.
        image: Option<Vec<u64>>,
    },
    /// A checkpoint. Heavyweight ([`BTree::checkpoint`](crate::BTree::checkpoint))
    /// or fuzzy (`redo::checkpoint_fuzzy` on `tree.db`) is a call, not a variant.
    Checkpoint(Checkpoint),
}

const NEW_ROOT: u8 = 1;
const HAS_IMAGE: u8 = 2;

impl LogPayload for BtPayload {
    fn encode(&self, buf: &mut Vec<u8>) -> SimResult<()> {
        match self {
            BtPayload::Create => codec::put_u8(buf, 0),
            BtPayload::Insert { page, key, value } => {
                codec::put_u8(buf, 1);
                codec::put_u32(buf, page.0);
                codec::put_u64(buf, *key);
                codec::put_u64(buf, *value);
            }
            BtPayload::Remove { page, key } => {
                codec::put_u8(buf, 2);
                codec::put_u32(buf, page.0);
                codec::put_u64(buf, *key);
            }
            BtPayload::Split {
                from,
                to,
                parent,
                new_root,
                separator,
                next_free,
                image,
            } => {
                codec::put_u8(buf, 3);
                let flags = if *new_root { NEW_ROOT } else { 0 };
                codec::put_u8(buf, flags | image.as_ref().map_or(0, |_| HAS_IMAGE));
                codec::put_u32(buf, from.0);
                codec::put_u32(buf, to.0);
                codec::put_u32(buf, parent.0);
                codec::put_u64(buf, *separator);
                codec::put_u32(buf, *next_free);
                if let Some(slots) = image {
                    let n = codec::count_u16("split image slot count", slots.len())?;
                    codec::put_u16(buf, n);
                    slots.iter().for_each(|&s| codec::put_u64(buf, s));
                }
            }
            BtPayload::Checkpoint(checkpoint) => checkpoint.encode(buf)?,
        }
        Ok(())
    }

    fn decode(input: &[u8], pos: &mut usize) -> SimResult<Self> {
        Ok(match codec::get_u8(input, pos)? {
            0 => BtPayload::Create,
            1 => BtPayload::Insert {
                page: PageId(codec::get_u32(input, pos)?),
                key: codec::get_u64(input, pos)?,
                value: codec::get_u64(input, pos)?,
            },
            2 => BtPayload::Remove {
                page: PageId(codec::get_u32(input, pos)?),
                key: codec::get_u64(input, pos)?,
            },
            3 => {
                let flags = codec::get_u8(input, pos)?;
                if flags & !(NEW_ROOT | HAS_IMAGE) != 0 {
                    return Err(SimError::Corrupt(*pos - 1));
                }
                BtPayload::Split {
                    from: PageId(codec::get_u32(input, pos)?),
                    to: PageId(codec::get_u32(input, pos)?),
                    parent: PageId(codec::get_u32(input, pos)?),
                    new_root: flags & NEW_ROOT != 0,
                    separator: codec::get_u64(input, pos)?,
                    next_free: codec::get_u32(input, pos)?,
                    image: if flags & HAS_IMAGE != 0 {
                        let n = codec::get_u16(input, pos)?;
                        let slots = (0..n).map(|_| codec::get_u64(input, pos));
                        Some(slots.collect::<SimResult<_>>()?)
                    } else {
                        None
                    },
                }
            }
            kind => BtPayload::Checkpoint(Checkpoint::decode(kind, input, pos)?),
        })
    }

    /// Every page the record writes — what a sharded log routes it by
    /// and what restart prefetches for it.
    fn write_pages(&self) -> Vec<PageId> {
        match self {
            BtPayload::Create => vec![META, FIRST_ROOT],
            BtPayload::Insert { page, .. } | BtPayload::Remove { page, .. } => vec![*page],
            BtPayload::Split {
                from, to, parent, ..
            } => vec![*to, *from, *parent, META],
            BtPayload::Checkpoint(_) => Vec::new(),
        }
    }
}

impl CheckpointView for BtPayload {
    fn as_checkpoint(&self) -> Option<&Checkpoint> {
        match self {
            BtPayload::Checkpoint(checkpoint) => Some(checkpoint),
            _ => None,
        }
    }

    fn from_checkpoint(checkpoint: Checkpoint) -> Self {
        BtPayload::Checkpoint(checkpoint)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redo_methods::redo::DirtyTable;
    use redo_theory::log::Lsn;

    fn split(new_root: bool, image: Option<Vec<u64>>) -> BtPayload {
        BtPayload::Split {
            from: PageId(1),
            to: PageId(3),
            parent: PageId(2),
            new_root,
            separator: 50,
            next_free: 4,
            image,
        }
    }

    fn checkpoint() -> Checkpoint {
        Checkpoint {
            redo_start: Lsn(10),
            table: DirtyTable::Full(Vec::new()),
        }
    }

    fn marker() -> BtPayload {
        BtPayload::from_checkpoint(checkpoint())
    }

    fn all_variants() -> Vec<BtPayload> {
        vec![
            BtPayload::Create,
            BtPayload::Insert {
                page: PageId(1),
                key: 42,
                value: 420,
            },
            BtPayload::Remove {
                page: PageId(1),
                key: 42,
            },
            split(false, None),
            split(true, None),
            split(false, Some(vec![1, 2, 3])),
            split(true, Some(Vec::new())),
            marker(),
        ]
    }

    #[test]
    fn codec_roundtrip_every_variant() {
        for p in all_variants() {
            let mut buf = Vec::new();
            p.encode(&mut buf).unwrap();
            let mut pos = 0;
            assert_eq!(BtPayload::decode(&buf, &mut pos).unwrap(), p);
            assert_eq!(pos, buf.len(), "{p:?} decoded short");
        }
    }

    #[test]
    fn write_pages_names_every_page_a_record_writes() {
        assert_eq!(BtPayload::Create.write_pages(), vec![META, FIRST_ROOT]);
        assert_eq!(
            split(false, None).write_pages(),
            vec![PageId(3), PageId(1), PageId(2), META],
            "the new page first: a generalized split reads the old one"
        );
        assert!(marker().write_pages().is_empty());
    }

    #[test]
    fn only_the_checkpoint_variant_is_a_checkpoint() {
        for p in all_variants() {
            let expect = (p == marker()).then(checkpoint);
            assert_eq!(p.as_checkpoint(), expect.as_ref());
        }
    }

    #[test]
    fn bad_tag_and_bad_split_flags_are_corrupt() {
        for buf in [&[42u8][..], &[3u8, 4][..]] {
            let mut pos = 0;
            let bad = buf.len() - 1;
            assert!(matches!(
                BtPayload::decode(buf, &mut pos),
                Err(SimError::Corrupt(at)) if at == bad
            ));
        }
    }

    #[test]
    fn generalized_split_record_is_tiny() {
        let mut gen_buf = Vec::new();
        split(false, None).encode(&mut gen_buf).unwrap();
        let mut img_buf = Vec::new();
        split(false, Some(vec![0; 64]))
            .encode(&mut img_buf)
            .unwrap();
        assert!(
            gen_buf.len() * 10 < img_buf.len(),
            "{} vs {}",
            gen_buf.len(),
            img_buf.len()
        );
    }
}
