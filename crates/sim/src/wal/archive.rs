//! The append-only archive tier behind
//! [`ShardedLog::archive_prefix`](super::ShardedLog::archive_prefix).
//!
//! Prefix truncation used to destroy history; the archive tier turns it
//! into a *move*: the drained byte prefix of each shard — already
//! CRC-framed, already LSN-ordered — is appended verbatim to a per-shard
//! archive backend before it leaves the live log. Archive bytes are
//! therefore a valid frame image in their own right, and concatenating
//! `archive ∥ live` per shard reproduces the shard's complete history
//! from LSN 1, which is exactly what
//! [`ShardedLog::history`](super::ShardedLog::history) reads in place —
//! media restore and point-in-time replay borrow each record's body
//! from these bytes instead of copying it out. A drain interrupted
//! between its archive append and its live truncation leaves frames in
//! both tiers, and its retry archives them a second time; the history
//! merge drops every such copy. The tier is append-only in steady
//! state; the single exception is [`ArchiveTier::compact`], which
//! destroys a frame-exact prefix the caller has proven no recovery
//! protocol can still name.

use crate::backend::{BackendKind, LogBackend};

/// One append-only archive backend per log shard.
#[derive(Clone, Debug)]
pub(crate) struct ArchiveTier {
    tiers: Vec<Box<dyn LogBackend>>,
}

impl ArchiveTier {
    /// An empty archive tier for `n` shards on the given backend kind
    /// (a real fsynced file per shard under [`BackendKind::File`]).
    pub(crate) fn new(kind: BackendKind, n: usize) -> ArchiveTier {
        ArchiveTier {
            tiers: (0..n).map(|_| kind.new_log()).collect(),
        }
    }

    /// Appends a drained frame prefix to shard `s`'s archive.
    pub(crate) fn append(&mut self, s: usize, bytes: &[u8]) {
        self.tiers[s].append(bytes);
    }

    /// Shard `s`'s archived frame image (oldest frames first).
    pub(crate) fn bytes(&self, s: usize) -> &[u8] {
        self.tiers[s].bytes()
    }

    /// Destroys the first `pos` bytes of shard `s`'s archive — the one
    /// exception to the tier's append-only discipline, reserved for
    /// [`ShardedLog::compact_archive`](super::ShardedLog::compact_archive),
    /// which guarantees `pos` is a frame boundary below every LSN any
    /// recovery protocol can still name.
    pub(crate) fn compact(&mut self, s: usize, pos: usize) {
        self.tiers[s].drain_prefix(pos);
    }

    /// Total bytes resident in the archive tier, read off the tier
    /// bytes themselves.
    pub(crate) fn archived_bytes(&self) -> u64 {
        self.tiers.iter().map(|t| t.bytes().len() as u64).sum()
    }

    /// Crash pass-through: archive bytes are durable (the file backend
    /// relearns them from disk on reopen, the mem backend models a
    /// surviving device).
    pub(crate) fn crash(&mut self) {
        for tier in &mut self.tiers {
            tier.crash();
        }
    }
}
