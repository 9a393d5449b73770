//! Backends: where the durable bytes of [`crate::disk::Disk`] and of
//! each shard of a [`crate::wal::ShardedLog`] live.
//!
//! The simulator's protocol machinery — WAL-rule enforcement, fault
//! injection, seek indexing, the staging/checkpoint discipline, and
//! what every page and log read answers — lives in `Disk` and the log's
//! shards and is backend-agnostic. Each keeps its stable state once, as
//! one image: the disk its pages, marks and master, a log shard its live
//! and archive bytes. What [`BackendKind`] chooses is whether that image
//! also lives in real files:
//!
//! * On [`BackendKind::Mem`] the image *is* the stable state. Torn
//!   damage is *simulated*: a torn page write marks the page in the
//!   image, a torn log flush leaves a byte-accounted partial frame.
//! * On [`BackendKind::File`] a medium in the crate's `file` module
//!   persists the image change by change. For the disk, `FileStorage`:
//!   per-page files with checksummed headers so torn writes are
//!   *detected* rather than flagged, a doublewrite journal for
//!   pre-images, rename-committed intentions lists for atomic installs
//!   and the checkpoint pointer. For each log shard, `FileLog`: its
//!   CRC-framed image, `archive ∥ live`, in one `wal.log`, with one
//!   `fsync` per group commit and none per drain. A crash throws the
//!   image away and rebuilds it from the files, which is what makes the
//!   file pair honest: after a crash the only truth is the bytes on
//!   disk.
//!
//! Every recovery method, the checkpoint daemon, and the parallel
//! restart path run unchanged on either kind.
//!
//! Host-filesystem *write* errors (disk full, permissions) are not part
//! of the simulated failure model and panic; *simulated* damage (torn
//! pages, torn tails) surfaces through the normal
//! [`SimError`](crate::SimError) channels. Open/read failures on page
//! and log files are different: a file that vanished or turned
//! unreadable out-of-band is exactly what media failure looks like, so
//! the reopen records a lost page
//! ([`SimError::MediaLoss`](crate::SimError::MediaLoss)) or reads a lost
//! log file as empty instead of aborting. A lost page is recoverable by
//! the media-rebuild pass, which replays `archive ∥ live` — while that
//! history is whole from LSN 1.

pub(crate) mod file;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

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
}
