//! # redo-sim
//!
//! A simulated storage substrate for the §6 recovery methods: the
//! database "under" the theory.
//!
//! The paper deliberately abstracts away stable vs volatile storage,
//! cache managers and log managers (§2.1) — but its §6 explains how
//! *real* systems maintain the recovery invariant, and reproducing that
//! section needs real moving parts. This crate provides them:
//!
//! * [`page::Page`] — fixed-geometry pages of 64-bit slots, each tagged
//!   with the LSN of its last update (§6.3's page LSN);
//! * [`disk::Disk`] — stable storage with atomic page writes, a stable
//!   log, and a *staging area* plus checkpoint pointer swing for the
//!   System R-style logical method (§6.1);
//! * [`wal::ShardedLog`] — a write-ahead log split into a stable prefix
//!   and a volatile tail, kept by one or more per-partition shards of
//!   untyped frames, generic over the payload each recovery method
//!   logs, and read in place by one reader;
//! * [`backend`] — the [`backend::StorageBackend`] /
//!   [`backend::LogBackend`] trait pair behind `Disk` and the log:
//!   the pure in-memory simulation is one implementation, and a
//!   file-backed one (CRC-framed WAL, checksummed page files,
//!   rename-committed checkpoint pointer) makes the crash model honest
//!   against real media;
//! * [`cache::BufferPool`] — the cache manager: dirty tracking, LRU
//!   eviction, enforcement of the WAL rule (no page reaches disk before
//!   its log records) and of *write-order constraints* — the
//!   installation-graph edges §6.4 requires the cache to respect when
//!   operations read pages they do not write;
//! * [`shard::ShardedStore`] — the buffer pool split into power-of-two
//!   page-id shards over one shared disk, with an ordered-acquisition
//!   snapshot path for fuzzy checkpoints — the store concurrent normal
//!   operation runs on;
//! * [`db::Db`] — the assembled database with [`db::Db::crash`]
//!   dropping every volatile component, and a projection of the stable
//!   state into a theory-level [`redo_theory::state::State`] so the
//!   recovery invariant can be audited mechanically;
//! * [`fault::FaultInjector`] — deterministic crash points with torn
//!   page writes and partial log-tail flushes, so crash states are not
//!   limited to the polite ones atomic I/O produces; the damage is
//!   detectable (torn flags, log-tail corruption) and repairable
//!   ([`db::Db::repair_after_crash`]) before recovery proper begins.
//!
//! Nothing here knows *which* redo test will run: the concrete methods
//! (logical, physical, physiological, generalized-LSN) live in
//! `redo-methods` and drive this substrate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod backend;
pub mod cache;
pub mod db;
pub mod disk;
pub mod fault;
pub mod page;
pub mod shard;
pub mod wal;

mod error;

pub use error::{SimError, SimResult};
