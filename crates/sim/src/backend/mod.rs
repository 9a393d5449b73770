//! Storage and log backends: the durable substrate behind [`crate::disk::Disk`]
//! and each shard of a [`crate::wal::ShardedLog`].
//!
//! The simulator's protocol machinery — WAL-rule enforcement, fault
//! injection, seek indexing, staging/checkpoint discipline — lives in
//! `Disk` and the log's shards and is backend-agnostic. What
//! varies is where the durable bytes live:
//!
//! * [`mem::MemStorage`] / [`mem::MemLog`] keep them in process memory —
//!   the original pure simulation the model checker and crash auditor
//!   were built on. Torn damage is *simulated* (an explicit per-page
//!   flag, a byte-accounted log fragment).
//! * [`file::FileStorage`] / [`file::FileLog`] keep them in real files
//!   under a temporary directory: CRC-framed WAL bytes appended with one
//!   `fsync` per group commit, per-page files with checksummed headers
//!   so torn writes are *detected* rather than flagged, a doublewrite
//!   journal for pre-images, and checkpoint-pointer publication via
//!   write-temp + `fsync` + `rename`.
//!
//! Both implement the same two traits, so every recovery method, the
//! checkpoint daemon, and the parallel restart path run unchanged
//! against either. A backend's `crash` discards whatever a process
//! death would (in-memory mirrors reload from the durable medium), which
//! is what makes the file pair honest: after a crash the only truth is
//! the bytes on disk.
//!
//! Host-filesystem *write* errors (disk full, permissions) are not part
//! of the simulated failure model and panic; *simulated* damage (torn
//! pages, torn tails) surfaces through the normal
//! [`SimError`](crate::SimError) channels. Open/read failures on page
//! and archive files are different: a file that vanished or turned
//! unreadable out-of-band is exactly what media failure looks like, so
//! the file backend records it as a lost page
//! ([`SimError::MediaLoss`](crate::SimError::MediaLoss)) instead of
//! aborting — recoverable by the media-rebuild pass, which replays
//! `archive ∥ live` from the last checkpoint image.

pub mod file;
pub mod mem;

use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use redo_theory::log::Lsn;
use redo_workload::pages::PageId;

use crate::error::SimResult;
use crate::page::Page;

/// Which durable substrate a database runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// Pure in-memory simulation (the default; fastest, fully
    /// deterministic).
    #[default]
    Mem,
    /// Real files in a per-backend temporary directory, removed when the
    /// backend is dropped.
    File,
}

impl BackendKind {
    /// A fresh storage backend of this kind.
    #[must_use]
    pub fn new_storage(self) -> Box<dyn StorageBackend> {
        match self {
            BackendKind::Mem => Box::new(mem::MemStorage::new()),
            BackendKind::File => Box::new(file::FileStorage::new_temp()),
        }
    }

    /// A fresh log backend of this kind.
    #[must_use]
    pub fn new_log(self) -> Box<dyn LogBackend> {
        match self {
            BackendKind::Mem => Box::new(mem::MemLog::new()),
            BackendKind::File => Box::new(file::FileLog::new_temp()),
        }
    }
}

/// The durable byte store behind one shard of a
/// [`crate::wal::ShardedLog`] (and one shard of its archive tier).
///
/// The log owns all framing (LSN/length/CRC headers), fault
/// consultation, and bookkeeping; a backend only persists the framed
/// bytes. `bytes` is the full current stable image — file backends keep
/// an in-memory mirror of the file and reload it on [`LogBackend::crash`],
/// so a scan never touches the filesystem.
pub trait LogBackend: fmt::Debug + Send + Sync {
    /// The current stable image (mirror of the durable medium).
    fn bytes(&self) -> &[u8];
    /// Durably appends one group-commit batch of framed bytes (a single
    /// `fsync` for file backends).
    fn append(&mut self, frames: &[u8]);
    /// Truncates the image to `len` bytes — tail repair after a torn
    /// flush.
    fn truncate_to(&mut self, len: usize);
    /// Removes the first `len` bytes — checkpoint prefix truncation.
    /// File backends rewrite through a temp file and `rename` so a crash
    /// during truncation never loses the suffix.
    fn drain_prefix(&mut self, len: usize);
    /// Process death: drop anything volatile and reload the mirror from
    /// the durable medium.
    fn crash(&mut self);
    /// Durable syncs issued so far (0 for in-memory backends) — the
    /// fsync-bound cost axis of the file benchmarks.
    fn syncs(&self) -> u64;
    /// The backing file, if the bytes live in one (tests damage it
    /// out-of-band to exercise real-file repair).
    fn path(&self) -> Option<&Path> {
        None
    }
    /// A deep copy (file backends copy their files into a fresh
    /// temporary directory).
    fn boxed_clone(&self) -> Box<dyn LogBackend>;
}

impl Clone for Box<dyn LogBackend> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// The durable page store behind [`crate::disk::Disk`].
///
/// The disk wrapper owns fault consultation and I/O accounting; a
/// backend persists pages, the staging area, and the master (checkpoint
/// pointer) record, and answers for torn-page detection and repair.
pub trait StorageBackend: fmt::Debug + Send + Sync {
    /// Reads a page, verifying integrity.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::TornPage`] if the page's last write only
    /// partially landed (torn flag / checksum mismatch).
    fn read_page(&self, id: PageId, slots_per_page: u16) -> SimResult<Page>;
    /// Reads a page's raw content without the integrity check — what the
    /// medium actually holds, garbage and all.
    fn raw_page(&self, id: PageId, slots_per_page: u16) -> Page;
    /// The LSN of the page's durable copy (`Lsn::ZERO` when never
    /// written).
    fn page_lsn(&self, id: PageId) -> Lsn;
    /// Durably writes a page to the installed state.
    fn write_page(&mut self, id: PageId, page: Page);
    /// Delivers a torn write of `page`: the first `sectors` slots (and
    /// the LSN header) land, the rest keep old bytes. Journals the
    /// pre-image first so the damage is repairable. Returns `false` if
    /// the page cannot tear (fewer than 2 sectors) and nothing landed.
    fn tear_page(&mut self, id: PageId, page: Page, sectors: u16) -> bool;
    /// Atomically installs a set of pages: all or none.
    ///
    /// # Errors
    ///
    /// [`crate::SimError::FieldOverflow`] if the install's on-disk
    /// encoding (e.g. the file backend's intentions list) cannot
    /// describe the set; nothing is installed on error.
    fn write_pages(&mut self, pages: Vec<(PageId, Page)>) -> SimResult<()>;
    /// Writes a page to the staging area (invisible until promoted).
    fn write_staging(&mut self, id: PageId, page: Page);
    /// Number of staged pages.
    fn staging_len(&self) -> usize;
    /// Discards the staging area.
    fn discard_staging(&mut self);
    /// Atomically replaces installed copies with every staged page.
    ///
    /// # Errors
    ///
    /// As [`StorageBackend::write_pages`]: the staged set's encoding
    /// must fit its on-disk fields; nothing is promoted on error.
    fn promote_staging(&mut self) -> SimResult<()>;
    /// The full checkpoint pointer swing: staged pages and the new
    /// master become visible in the same atomic instant. File backends
    /// realize this with an intentions list committed by `rename`.
    ///
    /// # Errors
    ///
    /// As [`StorageBackend::write_pages`]; neither the pages nor the
    /// master move on error.
    fn swing_pointer(&mut self, master: Lsn) -> SimResult<()>;
    /// The machine died during a pointer install, *before* the commit
    /// point: leave whatever pre-commit debris the medium would hold (a
    /// written-but-unrenamed temp file) without installing anything.
    /// In-memory backends have no debris; default is a no-op.
    ///
    /// # Errors
    ///
    /// As [`StorageBackend::write_pages`] — the debris is the encoded
    /// intent, so an unencodable staged set leaves none.
    fn abandon_install(&mut self, master: Lsn) -> SimResult<()> {
        let _ = master;
        Ok(())
    }
    /// Durably records the checkpoint pointer.
    fn set_master(&mut self, lsn: Lsn);
    /// The durable checkpoint pointer.
    fn master(&self) -> Lsn;
    /// Is this page's durable copy torn?
    fn is_torn(&self, id: PageId) -> bool;
    /// Pages currently torn, in id order.
    fn torn_pages(&self) -> Vec<PageId>;
    /// Restores torn pages from their journaled pre-images (scrubbing a
    /// journal-less page in place), clearing the torn state; returns the
    /// previously-torn ids.
    fn repair_torn(&mut self) -> Vec<PageId>;
    /// Destroys a page's durable copy out-of-band — the media-failure
    /// adversary, not a faultable I/O event. The page becomes *lost*:
    /// reads fail with [`crate::SimError::MediaLoss`] until a rebuild
    /// writes a fresh copy.
    fn destroy_page(&mut self, id: PageId);
    /// Pages currently lost to media failure, in id order.
    fn lost_pages(&self) -> Vec<PageId> {
        Vec::new()
    }
    /// Is this page's durable copy lost to media failure?
    fn is_lost(&self, id: PageId) -> bool {
        let _ = id;
        false
    }
    /// Process death: staging (unreferenced until a swing) is dropped;
    /// installed pages, the master record, and any torn damage survive.
    /// File backends reload all mirrors from the files and resolve
    /// interrupted installs (replay a committed intent, discard an
    /// uncommitted temp).
    fn crash(&mut self);
    /// Snapshot of the installed pages (raw content), in id order.
    fn pages(&self) -> Vec<(PageId, Page)>;
    /// The backing directory, if the pages live in one.
    fn dir(&self) -> Option<&Path> {
        None
    }
    /// A deep copy (file backends copy their files into a fresh
    /// temporary directory).
    fn boxed_clone(&self) -> Box<dyn StorageBackend>;
}

impl Clone for Box<dyn StorageBackend> {
    fn clone(&self) -> Self {
        self.boxed_clone()
    }
}

/// Slice-by-8 tables for the reflected IEEE polynomial: `[0]` is the
/// classic byte-at-a-time table, and `[k][b]` is the checksum state
/// after byte `b` followed by `k` zero bytes — so eight input bytes
/// fold in eight independent lookups, not eight dependent ones.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    tables
};

/// One byte into the checksum state: the whole algorithm, and the tail
/// step of [`Crc32::update`].
fn crc32_step(state: u32, byte: u8) -> u32 {
    CRC32_TABLES[0][((state ^ u32::from(byte)) & 0xFF) as usize] ^ (state >> 8)
}

/// Incremental CRC-32 (IEEE 802.3, the zlib/`crc32fast` polynomial) —
/// the checksum shared by the WAL frame format and the page-file
/// format. Hand-rolled because this workspace vendors no checksum
/// crate.
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Crc32 {
    /// A fresh checksum state.
    #[must_use]
    pub fn new() -> Crc32 {
        Crc32(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the checksum.
    ///
    /// Eight bytes at a time; the state after any prefix is the same
    /// 32-bit value whatever the chunking, so splitting the input
    /// across calls (a frame's header, then its body) changes nothing.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC32_TABLES;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let lo = self.0 ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            self.0 = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][c[4] as usize]
                ^ t[2][c[5] as usize]
                ^ t[1][c[6] as usize]
                ^ t[0][c[7] as usize];
        }
        for &b in chunks.remainder() {
            self.0 = crc32_step(self.0, b);
        }
    }

    /// The final checksum value.
    #[must_use]
    pub fn finish(self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Crc32 {
        Crc32::new()
    }
}

/// One-shot CRC-32 of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

static TEMPDIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// An owned temporary directory, removed (best-effort) on drop. A
/// std-only stand-in for the `tempfile` crate, which this workspace does
/// not vendor.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `<system tmp>/<prefix>-<pid>-<seq>`.
    ///
    /// # Panics
    ///
    /// If the directory cannot be created (host-filesystem failure, not
    /// part of the simulated fault model).
    #[must_use]
    pub fn new(prefix: &str) -> TempDir {
        let path = std::env::temp_dir().join(format!(
            "{prefix}-{}-{}",
            std::process::id(),
            TEMPDIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&path)
            .unwrap_or_else(|e| panic!("creating tempdir {}: {e}", path.display()));
        TempDir { path }
    }

    /// The directory's path.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tempdirs_are_unique_and_removed_on_drop() {
        let a = TempDir::new("redo-sim-test");
        let b = TempDir::new("redo-sim-test");
        assert_ne!(a.path(), b.path());
        let path = a.path().to_path_buf();
        assert!(path.is_dir());
        drop(a);
        assert!(!path.exists());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Incremental == one-shot.
        let mut c = Crc32::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finish(), 0xCBF4_3926);
    }

    /// The byte-at-a-time algorithm, whole: what every stored checksum
    /// was computed by before the kernel went eight bytes at a time.
    fn bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(0xFFFF_FFFF, |c, &b| crc32_step(c, b))
    }

    #[test]
    fn slice_by_eight_equals_the_bytewise_oracle() {
        let mut x = 0x9E37_79B9u32;
        let noise: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect();
        // Every length through several chunks, at every alignment.
        for start in 0..8 {
            for len in 0..=64 {
                let bytes = &noise[start..start + len];
                assert_eq!(crc32(bytes), bytewise(bytes), "start {start} len {len}");
            }
            let page = &noise[start..start + 4096];
            assert_eq!(crc32(page), bytewise(page), "4 KiB at {start}");
        }
        // Every two-way split: the frame path feeds 12 header bytes and
        // then the body, so chunk boundaries fall differently from the
        // one-shot call's.
        let whole = &noise[3..43];
        for cut in 0..=whole.len() {
            let mut c = Crc32::new();
            c.update(&whole[..cut]);
            c.update(&whole[cut..]);
            assert_eq!(c.finish(), bytewise(whole), "split at {cut}");
        }
    }

    #[test]
    fn kind_constructs_matching_backends() {
        assert_eq!(BackendKind::Mem.new_storage().master(), Lsn::ZERO);
        assert_eq!(BackendKind::File.new_storage().master(), Lsn::ZERO);
        assert!(BackendKind::Mem.new_log().bytes().is_empty());
        assert!(BackendKind::File.new_log().bytes().is_empty());
        assert!(BackendKind::Mem.new_log().path().is_none());
        assert!(BackendKind::File.new_log().path().is_some());
    }
}
