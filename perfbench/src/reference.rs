//! Reference kernels: fixed work of the benchmark's own, timed right
//! before and after every measured phase.
//!
//! The sandbox this benchmark was calibrated on changes speed by up to
//! a third for seconds to minutes at a stretch (a shared host), and its
//! virtual disk by a factor of two. A wall time measured there says as
//! much about the minute it was taken in as about the code. So every
//! clock metric is reported **at reference speed**: scaled by how fast a
//! fixed kernel ran beside it, relative to a nominal duration. The
//! kernels call no library code, so a library change cannot move them —
//! a change that slows every library path alike still shows in full.
//!
//! What the CPU kernel computes matters as much as that it is fixed. The
//! slow stretches of a shared host are mostly another tenant busy on the
//! same physical core: code that keeps the core's ports full (allocating,
//! hashing, copying, branching — what the library does) loses a quarter
//! of its speed there while a chain of dependent loads, which leaves the
//! core idle most of the time anyway, loses a twentieth, and a kernel
//! made of one corrects a fifth of such a stretch. (With a busy loop
//! pinned to the other CPU: `mem_hot`'s foreground −9.2 %, a dependent
//! load chain over 256 KiB −1.8 %, this kernel −7.6 %.) So [`cpu_ns`] is
//! a redo engine in miniature: the library's instruction mix, none of
//! its code.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use redo_workload::pages::mix64;

/// What [`cpu_ns`] takes on the calibration box at its usual speed: a
/// time measured while the kernel takes exactly this long is reported
/// unchanged.
pub const NOMINAL_CPU_NS: f64 = 2_100_000.0;
/// The same for [`disk_ns`].
pub const NOMINAL_DISK_NS: f64 = 14_500_000.0;

const CPU_RECORDS: u64 = 12_000;
const CPU_PAGES: u64 = 1024;
const CPU_SLOTS: usize = 8;
/// Records between two trims of the kernel's dirty-page table, and the
/// entries a trim leaves.
const CPU_CHECKPOINT_EVERY: u64 = 256;
const CPU_DIRTY_KEPT: usize = 64;
const DISK_PUBLISHES: u32 = 32;

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

fn crc32(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |c, &b| {
        CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8)
    })
}

type Pages = HashMap<u32, [u64; CPU_SLOTS]>;

/// A redo engine in miniature: a byte log, a hashed page table, an
/// ordered dirty-page table, and the page table recovery rebuilds. The
/// buffers are kept from run to run, so that after the first one a run
/// neither grows them nor faults a page in — what the process's heap
/// happens to look like must not show in the kernel's time.
#[derive(Default)]
struct MiniEngine {
    log: Vec<u8>,
    pages: Pages,
    dirty: BTreeMap<u32, u64>,
    replayed: Pages,
}

impl MiniEngine {
    /// Logs and applies [`CPU_RECORDS`] fixed updates, then recovers
    /// from the log and compares.
    fn run(&mut self) {
        self.log.clear();
        self.pages.clear();
        self.dirty.clear();
        self.replayed.clear();
        let mut x = 1u64;
        for lsn in 1..=CPU_RECORDS {
            x = mix64(x);
            let page = (x % CPU_PAGES) as u32;
            let slot = (x >> 10) as usize % CPU_SLOTS;
            let mut record: Vec<u8> = Vec::with_capacity(24);
            record.extend_from_slice(&lsn.to_le_bytes());
            record.extend_from_slice(&page.to_le_bytes());
            record.push(slot as u8);
            record.extend_from_slice(&x.to_le_bytes());
            self.log
                .extend_from_slice(&(record.len() as u32).to_le_bytes());
            self.log.extend_from_slice(&record);
            self.log.extend_from_slice(&crc32(&record).to_le_bytes());
            let cells = self.pages.entry(page).or_insert([0; CPU_SLOTS]);
            cells[slot] = cells[slot].wrapping_add(x);
            self.dirty.entry(page).or_insert(lsn);
            if lsn % CPU_CHECKPOINT_EVERY == 0 {
                while self.dirty.len() > CPU_DIRTY_KEPT {
                    self.dirty.pop_first();
                }
            }
        }
        let mut frames = self.log.as_slice();
        while let [l0, l1, l2, l3, rest @ ..] = frames {
            let len = u32::from_le_bytes([*l0, *l1, *l2, *l3]) as usize;
            let (record, rest) = rest.split_at(len);
            let (crc, rest) = rest.split_at(4);
            assert_eq!(
                crc,
                crc32(record).to_le_bytes(),
                "reference kernel: torn frame"
            );
            let page = u32::from_le_bytes(record[8..12].try_into().expect("4 bytes"));
            let value = u64::from_le_bytes(record[13..21].try_into().expect("8 bytes"));
            let cells = self.replayed.entry(page).or_insert([0; CPU_SLOTS]);
            let slot = usize::from(record[12]);
            cells[slot] = cells[slot].wrapping_add(value);
            frames = rest;
        }
        assert!(
            self.replayed == self.pages,
            "reference kernel: replay diverged"
        );
    }
}

thread_local! {
    static ENGINE: RefCell<Option<MiniEngine>> = const { RefCell::new(None) };
}

/// Times a redo engine in miniature on a fixed input: encode each of
/// [`CPU_RECORDS`] updates into a buffer of its own, checksum it, append
/// the frame to a byte log, apply it to a hashed page table, keep an
/// ordered dirty-page table and trim it now and then; then recover —
/// scan the log, verify every checksum, replay into a second page table
/// and compare. Small allocations, hashing, table-driven CRC, byte
/// copies, tree updates and unpredictable branches: the mix the
/// in-memory paths of the library are made of. The calling thread's
/// first call runs the engine once untimed, to size its buffers.
/// Nanoseconds.
///
/// # Panics
///
/// If the replayed pages differ from the live ones — the kernel checks
/// its own work, so the optimizer cannot drop any of it.
#[must_use]
pub fn cpu_ns() -> f64 {
    ENGINE.with(|engine| {
        let mut engine = engine.borrow_mut();
        let engine = engine.get_or_insert_with(|| {
            let mut fresh = MiniEngine::default();
            fresh.run();
            fresh
        });
        let started = Instant::now();
        engine.run();
        started.elapsed().as_nanos() as f64
    })
}

/// Times a fixed number of durable publishes in `dir` — write a small
/// temp file, `fsync` it, rename it into place, `fsync` the directory —
/// the sequence any crash-safe page write on a filesystem comes down
/// to. Nanoseconds.
///
/// # Errors
///
/// I/O errors from the filesystem under `dir`.
pub fn disk_ns(dir: &Path) -> io::Result<f64> {
    let dir = dir.join("redo-bench-reference");
    std::fs::create_dir_all(&dir)?;
    let handle = File::open(&dir)?;
    let tmp = dir.join("page.tmp");
    let started = Instant::now();
    for i in 0..DISK_PUBLISHES {
        let mut f = File::create(&tmp)?;
        f.write_all(&[i as u8; 72])?;
        f.sync_all()?;
        std::fs::rename(&tmp, dir.join(format!("page.{}", i % 4)))?;
        handle.sync_all()?;
    }
    Ok(started.elapsed().as_nanos() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_take_time_and_leave_one_directory() {
        assert!(cpu_ns() > 0.0);
        let dir = std::env::temp_dir().join(format!("redo-bench-ref-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        assert!(disk_ns(&dir).expect("a writable temp dir") > 0.0);
        let left: Vec<_> = std::fs::read_dir(&dir).expect("listing").collect();
        assert_eq!(left.len(), 1);
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}
