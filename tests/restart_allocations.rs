//! The serial restart allocates nothing per record.
//!
//! The scan reads each record in place and the redo step replays the
//! operation from that view, so a restart's heap allocations are set by
//! the pages it touches and a few amortized vectors (the stats' op-id
//! lists), not by the number of records. This binary counts every
//! allocation through its own global allocator and compares a restart
//! of an N-record log with one of a 2N-record log over the same pages:
//! a decode into owned operations — two `Vec<Cell>`s a record — costs
//! 2N more allocations, where the in-place read costs a handful.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use redo_recovery::methods::generalized::Generalized;
use redo_recovery::methods::RecoveryMethod;
use redo_recovery::sim::db::{Db, Geometry};
use redo_recovery::workload::pages::PageWorkloadSpec;

/// [`System`], counting allocations.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the count is a
// relaxed side effect.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Pages the operations touch: few enough that the first N records
/// already fault every one of them in.
const PAGES: u32 = 16;

/// Allocations made by `Generalized.recover` of a crashed image whose
/// log holds `n` single-page operations over [`PAGES`] pages, none of
/// them installed.
fn restart_allocations(n: usize) -> usize {
    let ops = PageWorkloadSpec {
        n_ops: n,
        n_pages: PAGES,
        ..Default::default()
    }
    .generate(11);
    let mut image: Db<_> = Db::new(Geometry::default());
    for op in &ops {
        Generalized.execute(&mut image, op).unwrap();
    }
    image.log.flush_all();
    image.crash();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let stats = Generalized.recover(&mut image).unwrap();
    let made = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(stats.replay_count(), n, "every record replays");
    made
}

#[test]
fn the_redo_loop_allocates_nothing_per_record() {
    const N: usize = 2_000;
    let (once, twice) = (restart_allocations(N), restart_allocations(2 * N));
    // Doubling the log doubles the op-id lists in the stats: one more
    // growth step each.
    assert!(
        twice <= once + 8,
        "{N} more records cost {} more allocations ({once} for {N}, {twice} for {})",
        twice.saturating_sub(once),
        2 * N,
    );
}
