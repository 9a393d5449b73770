//! # redo-btree
//!
//! A crash-recoverable paged B+tree over the `redo-sim` substrate,
//! reproducing §6.4's headline application: logging a node split as a
//! *generalized* operation — "read the old full page `x`, write a new
//! page `y` with half its contents" — instead of physically logging the
//! moved half.
//!
//! Every structure modification is **one log record**
//! ([`BtPayload::Split`]; the bootstrap is [`BtPayload::Create`]), so
//! the log frame is the atomic unit and the tree is valid at every
//! record boundary. The two [`SplitStrategy`]s differ in one field of
//! that record:
//!
//! * [`SplitStrategy::Physiological`] — the conventional approach:
//!   `image: Some(..)` carries the new page's initial contents as a
//!   physical page image (the moved keys travel through the log);
//! * [`SplitStrategy::Generalized`] — §6.4: `image: None`; the record
//!   reads the old page and writes the new one, and the only thing
//!   logged is page ids and the separator. The cache manager must then
//!   flush the new page before the old page's truncation (Figure 8's
//!   write-graph edge), which the redo step registers as a buffer-pool
//!   [constraint](redo_sim::cache::Constraint).
//!
//! Recovery is the one Figure-6 driver of `redo-methods`
//! ([`redo_methods::redo::recover`]) with the tree's redo step
//! ([`tree::apply_payload`]) plugged in: each page a record writes
//! takes its share iff its own page LSN is older than the record, so
//! the pages of one split install independently, ordered only by that
//! one edge. [`BTree::checkpoint`] is
//! [`redo_methods::redo::checkpoint_heavyweight`]; a fuzzy or delta
//! checkpoint is [`redo_methods::redo::checkpoint_fuzzy`] on the tree's
//! `db` — the one record, [`BtPayload::Checkpoint`], carries both.
//! [`BTree::create`]
//! takes whatever [`Db`](redo_sim::db::Db) it is to run on — memory or
//! files, one log shard or several, a bounded pool (which steals) or
//! not.
//!
//! The tree is a textbook B+tree (values at leaves, separator keys
//! duplicated upward, preemptive splitting on descent, right-sibling
//! links for range scans). Deletion removes keys from leaves without
//! rebalancing — the standard simplification for recovery studies, since
//! structure-modification logging is what §6.4 is about.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod layout;
pub mod payload;
pub mod tree;

pub use payload::BtPayload;
pub use tree::{BTree, SplitStrategy};
