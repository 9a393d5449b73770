use std::fmt;

use redo_theory::log::Lsn;
use redo_workload::pages::PageId;

/// Failures of the storage substrate. Most are *protocol* violations —
/// the caller tried to do something the write-ahead or write-order rules
/// forbid — and are exactly the situations the paper's recovery invariant
/// exists to prevent.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A page flush would violate the write-ahead-log rule: the page
    /// carries updates whose log records are not yet stable.
    WalViolation {
        /// The page being flushed.
        page: PageId,
        /// The page's LSN (newest update it contains).
        page_lsn: Lsn,
        /// The log's stable LSN (everything ≤ this is durable).
        stable_lsn: Lsn,
    },
    /// A page flush would violate a write-order constraint registered by
    /// a generalized-LSN operation: the required page has not reached
    /// disk at the required LSN yet (Figure 8's "new node before old
    /// node" rule).
    WriteOrderViolation {
        /// The page whose flush was blocked.
        blocked: PageId,
        /// The page that must reach disk first.
        requires: PageId,
        /// The LSN `requires` must have on disk.
        required_lsn: Lsn,
    },
    /// The page is not cached (fetch it first).
    NotCached(PageId),
    /// The buffer pool is full and every frame is pinned or unflushable.
    PoolExhausted,
    /// Decoding a log record failed at the given byte offset.
    Corrupt(usize),
    /// An operation was handed to a recovery method whose logging
    /// discipline cannot express it (e.g. a multi-page write under an
    /// LSN-based method, which would require multi-page atomic installs).
    MethodViolation(&'static str),
    /// A parallel-redo worker thread panicked. The panic is contained
    /// to the worker: recovery reports it as an error instead of
    /// propagating the unwind into the caller's process.
    RecoveryWorkerPanic,
    /// A parallel-redo partition received a record for a page whose
    /// starting image was never shipped — the router violated the
    /// first-item-carries-image protocol.
    MissingStartImage(PageId),
    /// A log payload's encoding is larger than the 32-bit frame length
    /// field can describe; appending it would corrupt the frame stream.
    OversizedRecord(usize),
    /// A value does not fit the field it is encoded into (e.g. a
    /// page-op read set larger than its 16-bit count field, a slot
    /// index beyond the page geometry, or a media restore naming more
    /// pages than its `u32` page numbers count).
    FieldOverflow {
        /// Which field overflowed.
        field: &'static str,
        /// The value that did not fit.
        value: u64,
    },
    /// A page read found a torn image: the page's last write only
    /// partially reached stable storage (checksum mismatch). Run
    /// [`crate::disk::Disk::repair_torn`] before reading.
    TornPage(PageId),
    /// A page read found the durable copy destroyed beyond the
    /// torn-page repair path: the page file is missing, unreadable, or
    /// has no journaled pre-image to fall back on. Only a media
    /// rebuild — replaying `archive ∥ live` from the last checkpoint
    /// image — can bring the page back.
    MediaLoss(PageId),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::WalViolation { page, page_lsn, stable_lsn } => write!(
                f,
                "WAL violation: page {page:?} at {page_lsn:?} but log stable only to {stable_lsn:?}"
            ),
            SimError::WriteOrderViolation { blocked, requires, required_lsn } => write!(
                f,
                "write-order violation: page {blocked:?} must wait for {requires:?} to reach disk at {required_lsn:?}"
            ),
            SimError::NotCached(p) => write!(f, "page {p:?} is not cached"),
            SimError::PoolExhausted => write!(f, "buffer pool exhausted"),
            SimError::Corrupt(off) => write!(f, "log corrupt at byte {off}"),
            SimError::MethodViolation(msg) => write!(f, "recovery-method violation: {msg}"),
            SimError::RecoveryWorkerPanic => write!(f, "a parallel-redo worker panicked"),
            SimError::MissingStartImage(p) => {
                write!(f, "page {p:?} was routed without its starting image")
            }
            SimError::OversizedRecord(len) => {
                write!(f, "log payload of {len} bytes exceeds the frame length field")
            }
            SimError::FieldOverflow { field, value } => {
                write!(f, "{field} value {value} overflows its on-disk field")
            }
            SimError::TornPage(p) => {
                write!(f, "page {p:?} is torn (checksum mismatch); repair before reading")
            }
            SimError::MediaLoss(p) => {
                write!(f, "page {p:?} is lost to media failure; rebuild from archive + checkpoint")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Result alias for substrate operations.
pub type SimResult<T> = std::result::Result<T, SimError>;
