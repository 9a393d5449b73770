//! The serial restart, the lazy drain that runs its scan, a lazy
//! demand and a media restore allocate nothing per record.
//!
//! The scan reads each record in place and the redo step replays the
//! operation from that view, and a demand reads its page's downset in
//! place and replays it from one reused buffer, so a restart's heap
//! allocations are set by the pages it touches and a few amortized
//! vectors (the stats' op-id lists), not by the number of records. This binary counts every
//! allocation through its own global allocator, per thread (the tests
//! run side by side, and a restart here allocates on its caller's
//! thread only), and compares a restart of an N-record log with one of
//! a 2N-record log over the same pages:
//! a decode into owned operations — two `Vec<Cell>`s a record — costs
//! 2N more allocations, where the in-place read costs a handful.
//!
//! The allocator also keeps each thread's live heap bytes and their
//! peak, so a restart's peak can be held to its pages: a history four
//! times longer over the same pages may raise it only by the stats'
//! op-id lists, and a media restore's not at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use redo_recovery::methods::concurrent::SharedDb;
use redo_recovery::methods::generalized::Generalized;
use redo_recovery::methods::media::Media;
use redo_recovery::methods::ondemand::OnDemand;
use redo_recovery::methods::oprecord::PageOpPayload;
use redo_recovery::methods::{RecoveryMethod, RecoveryStats};
use redo_recovery::sim::db::{Db, Geometry};
use redo_recovery::workload::pages::{self, PageId, PageWorkloadSpec, SlotId};

/// [`System`], counting allocations and live bytes.
struct Counting;

thread_local! {
    /// Allocations made on this thread. Constant-initialized with no
    /// destructor, so counting allocates nothing and works at any point
    /// of a thread's life.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes allocated on this thread less those freed on it: signed,
    /// since a block may be freed on another thread than its own.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The most `LIVE` has been since [`reset_peak`].
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Counts one allocation on the calling thread.
fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Moves the calling thread's live bytes by `by`, raising the peak.
fn grow(by: isize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get().wrapping_add(by));
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// A block's size as a byte delta.
fn bytes(size: usize) -> isize {
    isize::try_from(size).unwrap_or(isize::MAX)
}

/// Allocations made on this thread so far.
fn allocations() -> usize {
    ALLOCATIONS.with(Cell::get)
}

/// Starts a new peak at this thread's live bytes, and returns them.
fn reset_peak() -> isize {
    let live = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(live));
    live
}

/// The most live bytes this thread has held since [`reset_peak`].
fn peak() -> isize {
    PEAK.with(Cell::get)
}

// SAFETY: every call forwards to `System` unchanged; the counts are
// side effects on thread-local cells.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        grow(bytes(layout.size()));
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grow(-bytes(layout.size()));
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        grow(bytes(new_size) - bytes(layout.size()));
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Pages the operations touch: few enough that the first N records
/// already fault every one of them in.
const PAGES: u32 = 16;

/// `n` single-page operations over [`PAGES`] pages, page `k` first
/// named by record `k * n / PAGES` and every record before it naming a
/// page below `k`: histories of different lengths name their pages at
/// the same fractions of their length, so whatever grows as pages
/// appear grows the same way over each.
fn spread_ops(n: usize) -> Vec<pages::PageOp> {
    let mut ops = PageWorkloadSpec {
        n_ops: n,
        n_pages: PAGES,
        ..Default::default()
    }
    .generate(11);
    let pages = PAGES as usize;
    for (i, op) in ops.iter_mut().enumerate() {
        let newest = i * pages / n;
        let page = if i == newest * n / pages {
            newest as u32
        } else {
            op.writes[0].page.0 % (newest as u32 + 1)
        };
        for cell in op.reads.iter_mut().chain(&mut op.writes) {
            cell.page = PageId(page);
        }
    }
    ops
}

/// A crashed image whose log holds `n` single-page operations over
/// [`PAGES`] pages, none of them installed.
fn crashed_image(n: usize) -> Db<PageOpPayload> {
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
    image
}

/// Allocations made by `restart` of the image of `n` operations, which
/// must replay every one of them.
fn restart_allocations(
    n: usize,
    restart: impl FnOnce(Db<PageOpPayload>) -> RecoveryStats,
) -> usize {
    let image = crashed_image(n);
    let before = allocations();
    let stats = restart(image);
    let made = allocations() - before;
    assert_eq!(stats.replay_count(), n, "every record replays");
    made
}

/// The serial restart.
fn offline(mut image: Db<PageOpPayload>) -> RecoveryStats {
    Generalized.recover(&mut image).unwrap()
}

/// The concurrent face's lazy restart, drained by its sweeper with no
/// read in between.
fn drained(image: Db<PageOpPayload>) -> RecoveryStats {
    let shared = SharedDb::open_on_demand(image).unwrap();
    while shared.recovery_tick().unwrap() {}
    shared.recovery_stats().unwrap()
}

/// Records in the smaller log of each pair.
const N: usize = 2_000;

#[test]
fn the_redo_loop_allocates_nothing_per_record() {
    let (once, twice) = (
        restart_allocations(N, offline),
        restart_allocations(2 * N, offline),
    );
    // Doubling the log doubles the op-id lists in the stats: one more
    // growth step each.
    assert!(
        twice <= once + 8,
        "{N} more records cost {} more allocations ({once} for {N}, {twice} for {})",
        twice.saturating_sub(once),
        2 * N,
    );
}

#[test]
fn the_lazy_drain_allocates_no_more_per_record_than_the_redo_loop() {
    // The drain is the serial loop's scan; each record replays under a
    // lease of its own, which must cost no allocation either. Owned
    // decodes, as a drain that chases chains makes them, cost two
    // `Vec<Cell>`s a record.
    let serial = restart_allocations(2 * N, offline) - restart_allocations(N, offline);
    let (once, twice) = (
        restart_allocations(N, drained),
        restart_allocations(2 * N, drained),
    );
    assert!(
        twice <= once + serial.max(8),
        "{N} more records cost the drain {} more allocations ({once} for {N}, {twice} for {}), \
         the serial restart {serial}",
        twice.saturating_sub(once),
        2 * N,
    );
}

/// A cell of page 0, which about one record in [`PAGES`] writes.
const DEMANDED: pages::Cell = pages::Cell {
    page: PageId(0),
    slot: SlotId(0),
};

/// Allocations made by the first read of [`DEMANDED`] on the opened
/// image of `n` operations, through the sequential face (`false`) or
/// the concurrent one: a demand that replays page 0's downset, a share
/// of the log that grows with it.
fn demand_allocations(n: usize, shared: bool) -> usize {
    let mut image = crashed_image(n);
    if shared {
        let shared = SharedDb::open_on_demand(image).unwrap();
        assert!(shared.gated_count() > 0);
        let before = allocations();
        shared.read_cell(DEMANDED).unwrap();
        allocations() - before
    } else {
        let mut restart = OnDemand::open(&mut image).unwrap();
        assert!(restart.is_gated(DEMANDED.page));
        let before = allocations();
        restart.read_cell(&mut image, DEMANDED).unwrap();
        let made = allocations() - before;
        assert!(!restart.is_gated(DEMANDED.page));
        made
    }
}

#[test]
fn a_demand_allocates_nothing_per_record() {
    // Doubling the log doubles page 0's downset: one more growth step
    // for each vector the walk and the replay fill. A decode into owned
    // operations costs two `Vec<Cell>`s for each of the N/PAGES more
    // records.
    for shared in [false, true] {
        let (once, twice) = (
            demand_allocations(N, shared),
            demand_allocations(2 * N, shared),
        );
        assert!(
            twice <= once + 16,
            "{N} more records cost a demand {} more allocations ({once} for {N}, {twice} for {}; \
             shared face: {shared})",
            twice.saturating_sub(once),
            2 * N,
        );
    }
}

/// The image of [`spread_ops`]`(n)`, every page installed and
/// checkpointed before the crash, with page 0 destroyed: a media restore
/// reads the whole history from LSN 1, and the redo scan after it has
/// nothing to replay. (`Media.recover` keeps one note per record of the
/// restart's suffix, as a serial restart keeps its op ids; no operation
/// record follows the checkpoint here, so what these tests hold is the
/// genesis pass.)
fn media_image(n: usize) -> Db<PageOpPayload> {
    let mut image: Db<_> = Db::new(Geometry::default());
    for op in &spread_ops(n) {
        Media.execute(&mut image, op).unwrap();
    }
    image.log.flush_all();
    let stable = image.log.stable_lsn();
    image.pool.flush_all(&mut image.disk, stable).unwrap();
    Media.checkpoint(&mut image).unwrap();
    image.crash();
    image.disk.destroy_page(DEMANDED.page);
    image
}

/// Restores [`media_image`]`(n)`'s lost page, checking that it did.
fn media_restore(image: &mut Db<PageOpPayload>) {
    let stats = Media.recover(image).unwrap();
    assert!(
        !image.disk.is_lost(DEMANDED.page),
        "the restore installed it"
    );
    assert_eq!(stats.replay_count(), 0, "the checkpoint covers every page");
}

/// Allocations made by a media restore of [`media_image`]`(n)`.
fn media_allocations(n: usize) -> usize {
    let mut image = media_image(n);
    let before = allocations();
    media_restore(&mut image);
    allocations() - before
}

#[test]
fn a_media_restore_allocates_nothing_per_record() {
    // The scratch, its page numbers and its edge list grow by pushing
    // as pages and edges appear, and both histories name their pages at
    // the same fractions of their length, so doubling the history grows
    // each the same number of times. A buffer sized by records, or
    // anything allocated per record, allocates more at 2N.
    let (once, twice) = (media_allocations(N), media_allocations(2 * N));
    assert_eq!(
        once,
        twice,
        "a media restore of {N} records made {once} allocations, of {} records {twice}",
        2 * N,
    );
}

/// Heap bytes a media restore of 4N records may hold at its peak beyond
/// a restore of N records over the same pages. The restore replays the
/// history into a scratch image of the pages it names and keeps nothing
/// per record, so the two peaks are equal here; a history kept as
/// columns — 88 bytes a record — held about 0.5 MB more.
const MEDIA_PEAK_SLACK: usize = 1024;

/// The most heap bytes a media restore of [`media_image`]`(n)` held
/// beyond those live when it began.
fn media_peak(n: usize) -> usize {
    let mut image = media_image(n);
    let live = reset_peak();
    media_restore(&mut image);
    usize::try_from(peak() - live).unwrap()
}

#[test]
fn a_media_restore_holds_its_pages_not_its_records() {
    let (once, four) = (media_peak(N), media_peak(4 * N));
    assert!(
        four <= once + MEDIA_PEAK_SLACK,
        "a media restore of {N} records held {once} bytes at its peak, of {} records {four}: \
         more than {MEDIA_PEAK_SLACK} bytes apart over the same {PAGES} pages",
        4 * N,
    );
}

/// Heap bytes a restart of 4N records may hold at its peak beyond one of
/// N records over the same pages, per replayed record: the stats' two
/// op-id lists (every record replays, so one of them holds all 4N ids)
/// at their largest growth step, when the old buffer and the new one,
/// twice as long, are both live.
const OP_ID_PEAK_BYTES: usize = 3 * std::mem::size_of::<u32>();

/// The most heap bytes a serial restart of [`spread_ops`]`(n)`, none of
/// it installed, held beyond those live when it began.
fn serial_peak(n: usize) -> usize {
    let mut image: Db<PageOpPayload> = Db::new(Geometry::default());
    for op in &spread_ops(n) {
        Generalized.execute(&mut image, op).unwrap();
    }
    image.log.flush_all();
    image.crash();
    let live = reset_peak();
    let stats = Generalized.recover(&mut image).unwrap();
    let peak = usize::try_from(peak() - live).unwrap();
    assert_eq!(stats.replay_count(), n, "every record replays");
    peak
}

#[test]
fn a_serial_restart_holds_its_pages_not_its_records() {
    // The restart replays into a scratch of the pages it names and
    // installs each once; nothing it holds grows with the records but
    // the op-id lists of its stats.
    let (once, four) = (serial_peak(N), serial_peak(4 * N));
    let slack = OP_ID_PEAK_BYTES * 4 * N + MEDIA_PEAK_SLACK;
    assert!(
        four <= once + slack,
        "a serial restart of {N} records held {once} bytes at its peak, of {} records {four}: \
         more than {slack} bytes apart over the same {PAGES} pages",
        4 * N,
    );
}
