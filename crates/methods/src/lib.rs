//! # redo-methods
//!
//! The concrete redo-recovery methods of the paper's §6, implemented over
//! the `redo-sim` substrate:
//!
//! * [`logical`] — §6.1, System R-style: the disk state is frozen
//!   between checkpoints, updated pages quiesce into a staging area, and
//!   writing the checkpoint record "swings a pointer" that atomically
//!   installs every operation logged since the previous checkpoint.
//!   Recovery replays *everything* after the checkpoint.
//! * [`physical`] — §6.2: log records carry the exact values written
//!   (blind after-images); pages may flush at any time under the WAL
//!   rule because the affected variables stay unexposed; recovery
//!   replays everything after the checkpoint, idempotently.
//! * [`physiological`] — §6.3: operations read and write exactly one
//!   page; every page carries the LSN of its last update; the redo test
//!   compares page LSN with record LSN, so installation happens
//!   page-at-a-time whenever the cache flushes.
//! * [`generalized`] — §6.4: operations may *read* pages they do not
//!   write (the B-tree-split shape of Figure 8); the cache manager must
//!   then respect installation-graph write ordering, which it does via
//!   the buffer pool's write-order [constraints](redo_sim::cache::Constraint).
//! * [`parallel`] — the page-partitioned parallel *executor* of the
//!   physical and physiological methods' redo: Theorem 3 makes LSN
//!   order matter only within a page, so the log tail splits by page id
//!   and the partitions replay on worker threads — running the step the
//!   serial executor runs ([`redo::PageLocal`]).
//! * [`online`] — the generalized method with *online* fuzzy
//!   checkpoints: no flushing at checkpoint time, a dirty-page-table
//!   snapshot published via the master pointer, and prefix truncation
//!   of the stable log below the checkpoint's redo-start. The
//!   [`concurrent`] substrate runs the same discipline as a background
//!   checkpoint daemon.
//! * [`media`] — media recovery over the archive: a destroyed page
//!   file is rebuilt from `archive ∥ live`, read in place and replayed
//!   from genesis by the replay kernel every serial restart runs; the
//!   lost pages grow to a transitive closure guarding generalized
//!   cross-page reads, and the closure's final images install together —
//!   then ordinary redo finishes the restart.
//!
//! Every method implements [`RecoveryMethod`], and every serial
//! `recover` is the one Figure-6 driver in [`redo`] — repair, analyze
//! the record the master names, scan from the redo-start, apply the
//! method's redo test to each record — instantiated with that method's
//! redo test, and replaying into the one replay kernel
//! ([`media::ScratchImage`]), which installs each page it replayed into
//! once. The partitioned and the lazy restart are executors of the same
//! procedure over the same analysis.
//! The [`harness`] module
//! runs workloads against a method with randomized cache flushes,
//! checkpoints, and injected crashes, verifying after every crash that
//!
//! 1. recovery restores exactly the durable prefix of the workload, and
//! 2. the paper's **recovery invariant** held at the moment of the
//!    crash: the operations the redo test bypassed form a prefix of the
//!    installation graph explaining the stable state (checked by
//!    projecting the simulated disk into the theory, bit-for-bit).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![warn(clippy::significant_drop_in_scrutinee)]
#![forbid(unsafe_code)]

pub mod broken;
pub mod concurrent;
pub mod control;
pub mod generalized;
pub mod harness;
pub mod logical;
pub mod media;
pub mod ondemand;
pub mod online;
pub mod oprecord;
pub mod parallel;
pub mod physical;
pub mod physiological;
pub mod redo;
#[cfg(test)]
mod testkit;

use redo_sim::db::Db;
use redo_sim::wal::{LogPayload, ScanStats};
use redo_sim::SimResult;
use redo_theory::log::Lsn;
use redo_workload::pages::{Cell, PageOp};

/// How many records a recovery scan reads per [`redo_sim::wal::ShardedScanner`]
/// batch before replaying them — the size of the streaming window.
pub const SCAN_BATCH: usize = 32;

/// Where one restart's wall time went, in nanoseconds, by phase; each
/// loop reads the clock once per phase per [`SCAN_BATCH`] records.
///
/// | face | begin | scan | prefetch | redo | install |
/// |---|---|---|---|---|---|
/// | serial, over the replay kernel ([`redo::recover_ops`], [`redo::recover_local`]) | ✓ | ✓ | 0 | ✓ | ✓ |
/// | serial, over the pool ([`redo::recover`], the B-tree's step) | ✓ | ✓ | ✓ | ✓ | 0 |
/// | lazy drain, sequential face | ✓ | ✓ | ✓ | ✓ | 0 |
/// | lazy drain, concurrent face | ✓ | ✓ | 0 | ✓ | 0 |
/// | partitioned | ✓ | 0 | 0 | 0 | 0 |
/// | [`media::Media`]'s restore and restart in one walk | ✓ | 0 | 0 | ✓ | ✓ |
///
/// A lazy demand charges its chain walk to `scan` and its replay to
/// `redo`; the concurrent face faults each page in under the record's
/// own lease, so it has no prefetch to charge. The partitioned executor
/// times `begin`, which it shares with the serial one: its scan and redo
/// run on worker threads and have no serial phase to charge. A media
/// restart from a cold pool charges its one walk of the history, scan
/// and replay alike, to `redo`, and the closure's install, the verdicts
/// and the kernel's hand-over to `install`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseNanos {
    /// Media repair (torn pages, torn log tail) and analysis of the
    /// master record.
    pub begin: u64,
    /// Seeking to the redo-start and reading the log in place: each
    /// batch's frames walked, with the checksum of only those frames
    /// `begin`'s repair did not verify. Parsing a body is the phase that
    /// needs it.
    pub scan: u64,
    /// Listing each batch's pages and faulting the missing ones into
    /// the pool.
    pub prefetch: u64,
    /// The redo test and the replay of every scanned record — in the
    /// kernel, a page's first read from the pool or the disk too.
    pub redo: u64,
    /// The kernel's hand-over: the atomic write of the pages entangled
    /// records wrote, then each replayed page into the pool once.
    pub install: u64,
}

impl std::ops::AddAssign for PhaseNanos {
    fn add_assign(&mut self, other: PhaseNanos) {
        self.begin += other.begin;
        self.scan += other.scan;
        self.prefetch += other.prefetch;
        self.redo += other.redo;
        self.install += other.install;
    }
}

impl std::fmt::Display for PhaseNanos {
    /// `begin/scan/prefetch/redo/install`, in whole microseconds.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let phases = [
            self.begin,
            self.scan,
            self.prefetch,
            self.redo,
            self.install,
        ];
        let [begin, scan, prefetch, redo, install] = phases.map(|ns| ns / 1_000);
        write!(f, "{begin}/{scan}/{prefetch}/{redo}/{install} us")
    }
}

/// What one recovery pass did.
///
/// Splits into two layers: the *semantic* outcome (`scanned`,
/// `replayed`, `skipped` — which operations the redo test chose) and
/// I/O-path *telemetry* (`bytes_scanned`, `records_decoded`,
/// `seek_hits`, `forces`, `pages_prefetched`, `phase_ns`). Equality compares only
/// the semantic layer: equivalent recoveries — serial vs. parallel,
/// seeked vs. full scan — must agree on what they replayed, while
/// legitimately taking different I/O paths to get there.
#[derive(Clone, Debug, Default, Eq)]
pub struct RecoveryStats {
    /// Log records examined during the scan.
    pub scanned: usize,
    /// Operations replayed (the realized `redo_set`), by workload op id,
    /// in replay order.
    pub replayed: Vec<u32>,
    /// Operations bypassed as already installed.
    pub skipped: Vec<u32>,
    /// Stable-log bytes the recovery scan decoded.
    pub bytes_scanned: u64,
    /// Log records the scan decoded (post-seek; elided prefix records
    /// are neither decoded nor counted).
    pub records_decoded: usize,
    /// Scans that jumped via the LSN seek index.
    pub seek_hits: usize,
    /// Checkpoint records the scan recognized (and, on partitioned
    /// paths, kept out of the page routers).
    pub checkpoint_records: usize,
    /// Coalesced stable log appends (group-commit forces) the database
    /// had performed by the end of recovery.
    pub forces: u64,
    /// Pages read from the pool or the disk before their first replay:
    /// into the replay kernel's scratch on a serial restart, into the
    /// buffer pool by a lazy drain's prefetch.
    pub pages_prefetched: usize,
    /// The published checkpoint recovery started from, if any.
    pub checkpoint_lsn: Option<Lsn>,
    /// Stable-log bytes already reclaimed by checkpoint prefix
    /// truncation when recovery ran (work the scan never saw).
    pub truncated_bytes: u64,
    /// Wall time by phase.
    pub phase_ns: PhaseNanos,
}

impl PartialEq for RecoveryStats {
    fn eq(&self, other: &Self) -> bool {
        self.scanned == other.scanned
            && self.replayed == other.replayed
            && self.skipped == other.skipped
    }
}

impl RecoveryStats {
    /// Number of replayed operations.
    #[must_use]
    pub fn replay_count(&self) -> usize {
        self.replayed.len()
    }

    /// Records a method's verdict on one scanned record.
    pub fn note_verdict(&mut self, verdict: redo::Redo) {
        match verdict {
            redo::Redo::Replayed(id) => self.replayed.push(id),
            redo::Redo::Skipped(id) => self.skipped.push(id),
        }
    }

    /// Folds one finished scan's telemetry plus the log's force count
    /// into the stats.
    pub fn note_scan(&mut self, scan: ScanStats, forces: u64) {
        self.bytes_scanned += scan.bytes_scanned;
        self.records_decoded += scan.records_decoded;
        self.seek_hits += scan.seek_hits;
        self.checkpoint_records += scan.checkpoint_records;
        self.forces = forces;
    }
}

/// A §6 recovery method: how to log an operation during normal
/// operation, how to checkpoint, and how to recover after a crash.
///
/// Methods keep **no volatile state of their own** — everything recovery
/// needs must live on the disk or in the stable log, because `recover`
/// runs against a freshly crashed [`Db`].
pub trait RecoveryMethod {
    /// What this method writes to the log.
    type Payload: LogPayload;

    /// Human-readable name ("physical", "physiological", ...).
    fn name(&self) -> &'static str;

    /// May the harness flush arbitrary dirty pages between operations?
    /// True for the LSN-based and physical methods; false for logical
    /// recovery, whose disk state may only advance via the checkpoint
    /// pointer swing.
    fn allows_page_chaos(&self) -> bool {
        true
    }

    /// Executes one operation during normal operation: writes the log
    /// record(s), applies the operation to the cache, and registers any
    /// write-order constraints. Returns the operation's LSN.
    ///
    /// # Errors
    ///
    /// Substrate errors (pool exhaustion, protocol violations).
    fn execute(&self, db: &mut Db<Self::Payload>, op: &PageOp) -> SimResult<Lsn>;

    /// Takes a checkpoint, advancing the point from which recovery will
    /// scan the log.
    ///
    /// # Errors
    ///
    /// Substrate errors.
    fn checkpoint(&self, db: &mut Db<Self::Payload>) -> SimResult<()>;

    /// Recovers a crashed database: scans the stable log from the master
    /// record, applies the redo test to each record, and replays the
    /// chosen operations. On return the database is open for business
    /// (its volatile view equals the durable prefix's final state).
    ///
    /// # Errors
    ///
    /// Substrate errors, including log corruption.
    fn recover(&self, db: &mut Db<Self::Payload>) -> SimResult<RecoveryStats>;

    /// Recovers the crashed database through the page-partitioned
    /// *parallel* restart path with `threads` workers, if this method's
    /// logging discipline admits one. Returns `None` for disciplines
    /// that cannot partition by page — generalized-LSN operations may
    /// read pages they do not write, so their conflicts (and Theorem 3's
    /// replay-order freedom) do not decompose per page. The crash
    /// auditor uses this hook to re-run every probe recovery through
    /// the parallel path and demand the identical state.
    fn parallel_restart(
        &self,
        _db: &mut Db<Self::Payload>,
        _threads: usize,
    ) -> Option<SimResult<RecoveryStats>> {
        None
    }

    /// Recovers the crashed database through the *on-demand* (instant
    /// restart) path, if this method implements one: open immediately,
    /// serve each probe cell by lazily replaying only its page's
    /// residual log chain, then drain the remaining gates. Returns the
    /// final stats plus the value each probe observed **while recovery
    /// was still running** — the crash auditor cross-validates those
    /// mid-recovery reads against a sequential full-redo probe's final
    /// state (the Recovery Invariant's instant-restart corollary: a
    /// served page's content never changes after it is served).
    fn ondemand_restart(
        &self,
        _db: &mut Db<Self::Payload>,
        _probes: &[Cell],
    ) -> Option<SimResult<(RecoveryStats, Vec<u64>)>> {
        None
    }
}
