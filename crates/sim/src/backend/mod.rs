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
//! Every checksum either kind stores — WAL frames, page files, the
//! doublewrite journal, `master.bin` — is the CRC-32C of [`Crc32c`],
//! one kernel for all of them: the CPU's `crc32` instruction where it
//! has SSE4.2, slice-by-8 tables elsewhere, the same bytes either way.
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

/// The Castagnoli polynomial, reflected: what the SSE4.2 `crc32`
/// instruction computes, and what every table below is generated from.
const CASTAGNOLI: u32 = 0x82F6_3B78;

/// Slice-by-8 tables for [`CASTAGNOLI`]: `[0]` is the classic
/// byte-at-a-time table, and `[k][b]` is the checksum state after byte
/// `b` followed by `k` zero bytes — so eight input bytes fold in eight
/// independent lookups, not eight dependent ones.
const CRC32C_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CASTAGNOLI ^ (c >> 1)
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

/// The table kernel: `bytes` folded into checksum state `state`, eight
/// bytes a step by slice-by-8, the tail a byte at a time. It runs
/// where the CPU has no CRC-32C instruction.
fn update_table(mut state: u32, bytes: &[u8]) -> u32 {
    let t = &CRC32C_TABLES;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = state ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        state = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][c[4] as usize]
            ^ t[2][c[5] as usize]
            ^ t[1][c[6] as usize]
            ^ t[0][c[7] as usize];
    }
    for &b in chunks.remainder() {
        state = t[0][((state ^ u32::from(b)) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// The hardware kernel: as [`update_table`], by the SSE4.2 `crc32`
/// instruction, eight bytes a step.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn update_sse42(state: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut chunks = bytes.chunks_exact(8);
    let mut wide = u64::from(state);
    for c in &mut chunks {
        let word = u64::from_le_bytes(c.try_into().expect("chunks of eight"));
        wide = _mm_crc32_u64(wide, word);
    }
    // The instruction leaves the 32-bit state zero-extended.
    let mut state = wide as u32;
    for &b in chunks.remainder() {
        state = _mm_crc32_u8(state, b);
    }
    state
}

/// Incremental CRC-32C (Castagnoli, the iSCSI / ext4 polynomial) — the
/// one checksum of the substrate: WAL frames, page files, the
/// doublewrite journal and the master record. Computed by the CPU's
/// `crc32` instruction where it has SSE4.2, otherwise by slice-by-8
/// tables; both give the same value. Hand-rolled because this workspace
/// vendors no checksum crate.
#[derive(Clone, Copy, Debug)]
pub struct Crc32c(u32);

impl Crc32c {
    /// A fresh checksum state.
    #[must_use]
    pub fn new() -> Crc32c {
        Crc32c(0xFFFF_FFFF)
    }

    /// Folds `bytes` into the checksum.
    ///
    /// The state after any prefix is the same 32-bit value whatever
    /// the chunking, so splitting the input across calls (a frame's
    /// header, then its body) changes nothing.
    pub fn update(&mut self, bytes: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("sse4.2") {
            // SAFETY: `update_sse42` needs SSE4.2 and nothing else, and
            // the running CPU has it.
            self.0 = unsafe { update_sse42(self.0, bytes) };
            return;
        }
        self.0 = update_table(self.0, bytes);
    }

    /// The final checksum value.
    #[must_use]
    pub fn finish(self) -> u32 {
        !self.0
    }
}

impl Default for Crc32c {
    fn default() -> Crc32c {
        Crc32c::new()
    }
}

/// One-shot CRC-32C of `bytes`.
#[must_use]
pub fn crc32c(bytes: &[u8]) -> u32 {
    let mut c = Crc32c::new();
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
pub(crate) mod tests {
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
    fn crc32c_matches_known_vectors() {
        // The CRC-32C check value for "123456789".
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        // RFC 3720 §B.4.
        assert_eq!(crc32c(&[0x00; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFF; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
        // Incremental == one-shot.
        let mut c = Crc32c::new();
        c.update(b"1234");
        c.update(b"56789");
        assert_eq!(c.finish(), 0xE306_9283);
    }

    /// One byte into a CRC-32C state, a bit at a time from the
    /// polynomial: shares nothing with either kernel.
    fn bytewise_step(mut c: u32, b: u8) -> u32 {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = (c >> 1) ^ (0x82F6_3B78 & (c & 1).wrapping_neg());
        }
        c
    }

    /// CRC-32C by [`bytewise_step`]: the oracle both kernels are held
    /// to, and the one the log's reference decoder checks frames with.
    pub(crate) fn bytewise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(0xFFFF_FFFF, |c, &b| bytewise_step(c, b))
    }

    #[test]
    fn both_kernels_equal_the_bytewise_oracle() {
        let mut x = 0x9E37_79B9u32;
        let noise: Vec<u8> = (0..4104 + 8)
            .map(|_| {
                x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (x >> 24) as u8
            })
            .collect();
        #[cfg(target_arch = "x86_64")]
        let hardware = std::is_x86_feature_detected!("sse4.2");
        // Every length through a page and a frame past it, at every
        // alignment.
        for start in 0..8 {
            let mut oracle = 0xFFFF_FFFF;
            for len in 0..=4104 {
                let bytes = &noise[start..start + len];
                if let Some(&last) = bytes.last() {
                    oracle = bytewise_step(oracle, last);
                }
                let want = !oracle;
                assert_eq!(
                    !update_table(!0, bytes),
                    want,
                    "table: start {start} len {len}"
                );
                assert_eq!(crc32c(bytes), want, "start {start} len {len}");
                #[cfg(target_arch = "x86_64")]
                if hardware {
                    // SAFETY: the running CPU has SSE4.2.
                    let got = !unsafe { update_sse42(!0, bytes) };
                    assert_eq!(got, want, "sse4.2: start {start} len {len}");
                }
            }
        }
        // Every two-way split: the frame path feeds 12 header bytes and
        // then the body, so chunk boundaries fall differently from the
        // one-shot call's.
        let whole = &noise[3..67];
        for cut in 0..=whole.len() {
            let mut c = Crc32c::new();
            c.update(&whole[..cut]);
            c.update(&whole[cut..]);
            assert_eq!(c.finish(), crc32c(whole), "split at {cut}");
            assert_eq!(c.finish(), bytewise(whole), "split at {cut}");
        }
    }
}
