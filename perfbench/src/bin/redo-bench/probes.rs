//! Standalone probes of the layers the lifecycle cannot see inside.
//!
//! `wal`, `shard` and `backend` sit below `SharedDb`, so the traced run
//! times them on their own: a bare `ShardedLog` fed the run's payloads,
//! a `ShardedScanner` over the crashed image, a bare `ShardedStore`, a
//! bare `Disk`. Same generated inputs, same backend kind, no other
//! layer in the way. Also times recovery's first two steps (repair,
//! analysis) and the media rebuild's two halves, which `SharedDb` and
//! `Media.recover` run internally.

use redo_methods::generalized::Generalized;
use redo_methods::media;
use redo_methods::oprecord::PageOpPayload;
use redo_perfbench::trace::SpanRecorder;
use redo_perfbench::workloads::{ClientStream, Workload, GROUP, SLOTS_PER_PAGE};
use redo_sim::disk::Disk;
use redo_sim::page::Page;
use redo_sim::shard::ShardedStore;
use redo_sim::wal::{ShardedLog, ShardedScanner};
use redo_theory::log::Lsn;
use redo_workload::pages::{PageId, SlotId};

use crate::lifecycle::{media_victim, Image, Lifecycle};

/// Records each probe feeds its layer: enough for a stable mean, few
/// enough that 512 file-backed forces stay under a second.
const PROBE_RECORDS: usize = 16 * 1024;
/// Page writes per backend probe (each is an fsync on files).
const PROBE_PAGES: u32 = 64;

/// Runs every probe, recording spans into `rec` and counts into `life`.
///
/// # Errors
///
/// A probed layer returning `Err` on inputs the lifecycle just ran.
pub fn run(
    w: &Workload,
    stream: &ClientStream,
    image: &Image,
    life: &mut Lifecycle,
    rec: &mut SpanRecorder,
) -> Result<(), String> {
    let fail = |what: &str, e: redo_sim::SimError| format!("{}: probe {what}: {e:?}", w.name);
    let writes = &stream.writes[..stream.tail_from.min(PROBE_RECORDS)];

    // wal: append + group-commit force, on the workload's backend.
    rec.span("probe.wal", 0, |rec| -> Result<(), String> {
        let mut log = ShardedLog::<PageOpPayload>::on(w.backend, w.log_shards);
        for (i, op) in writes.iter().enumerate() {
            let payload = PageOpPayload::Op(op.clone());
            let t0 = rec.now_ns();
            log.append(payload).map_err(|e| fail("wal.append", e))?;
            rec.record("wal.append", u64::from(op.id), t0, rec.now_ns());
            if (i + 1) % GROUP == 0 {
                let t0 = rec.now_ns();
                log.flush_all();
                rec.record("wal.flush_all", (i / GROUP) as u64, t0, rec.now_ns());
            }
        }
        Ok(())
    })?;

    // wal: the restart scan and the media-restore history merge, over
    // the crashed image's own log.
    let mut scanner = ShardedScanner::seek(&image.log, image.log.first_stable());
    rec.span("wal.scan", 0, |_| -> Result<(), String> {
        while !scanner
            .next_batch(&image.log, redo_methods::SCAN_BATCH)
            .map_err(|e| fail("wal.scan", e))?
            .is_empty()
        {}
        Ok(())
    })?;
    let scan = scanner.stats();
    life.count("wal.scan.bytes", scan.bytes_scanned as f64);
    life.count("wal.scan.records_decoded", scan.records_decoded as f64);
    life.count("wal.scan.seek_hits", scan.seek_hits as f64);
    let history = rec
        .span("wal.pit_records", 0, |_| {
            image.log.pit_records(image.log.stable_lsn())
        })
        .map_err(|e| fail("wal.pit_records", e))?;
    life.count("media.history_records", history.len() as f64);
    drop(history);

    // shard: lease + update per op, then flush every dirty page.
    rec.span("probe.shard", 0, |rec| -> Result<(), String> {
        let store = ShardedStore::with_disk(8, Disk::on(w.backend));
        for (i, op) in writes.iter().enumerate() {
            let pages = op.written_pages();
            let lsn = Lsn(i as u64 + 1);
            let t0 = rec.now_ns();
            let mut lease = store.lock_pages(&pages);
            for &cell in &op.writes {
                lease
                    .fetch(cell.page, SLOTS_PER_PAGE, Lsn::ZERO)
                    .and_then(|()| lease.update(cell.page, lsn, |p| p.set(cell.slot, lsn.0)))
                    .map_err(|e| fail("shard.lease_update", e))?;
            }
            drop(lease);
            rec.record("shard.lease_update", u64::from(op.id), t0, rec.now_ns());
        }
        let stable = Lsn(writes.len() as u64);
        for page in store.dirty_pages() {
            let t0 = rec.now_ns();
            store
                .flush_page(page, stable)
                .map_err(|e| fail("shard.flush_page", e))?;
            rec.record("shard.flush_page", u64::from(page.0), t0, rec.now_ns());
        }
        Ok(())
    })?;

    // backend: single page writes, atomic pairs, master-pointer swings.
    rec.span("probe.backend", 0, |rec| -> Result<(), String> {
        let mut disk = Disk::on(w.backend);
        let page_at = |lsn: u64| {
            let mut page = Page::new(SLOTS_PER_PAGE);
            page.set(SlotId(0), lsn);
            page.set_lsn(Lsn(lsn));
            page
        };
        for i in 0..PROBE_PAGES {
            let page = page_at(u64::from(i) + 1);
            let t0 = rec.now_ns();
            disk.write_page(PageId(i), page);
            rec.record("backend.page_write", u64::from(i), t0, rec.now_ns());
        }
        for i in 0..PROBE_PAGES / 2 {
            let lsn = u64::from(PROBE_PAGES + i) + 1;
            let pair = vec![
                (PageId(2 * i), page_at(lsn)),
                (PageId(2 * i + 1), page_at(lsn)),
            ];
            let t0 = rec.now_ns();
            disk.write_pages_atomic(pair)
                .map_err(|e| fail("backend.write_pages_atomic", e))?;
            rec.record("backend.write_pages_atomic", u64::from(i), t0, rec.now_ns());
        }
        for i in 0..PROBE_PAGES {
            let t0 = rec.now_ns();
            disk.swing_pointer(Lsn(u64::from(i) + 1))
                .map_err(|e| fail("backend.swing_pointer", e))?;
            rec.record("backend.swing_pointer", u64::from(i), t0, rec.now_ns());
        }
        Ok(())
    })?;

    // generalized: repair and analysis, the whole of an instant restart
    // when the suffix is within budget.
    let mut copy = image.clone();
    rec.span("generalized.repair", 0, |_| copy.repair_after_crash());
    rec.span("generalized.analyze_dpt", 0, |_| {
        Generalized::analyze_dpt(&copy)
    })
    .map_err(|e| fail("generalized.analyze_dpt", e))?;

    // media: the rebuild's two halves, on the page the lifecycle lost.
    let victim = media_victim(image);
    copy.disk.destroy_page(victim);
    let images = rec
        .span("media.rebuild_images", 0, |_| media::rebuild_images(&copy))
        .map_err(|e| fail("media.rebuild_images", e))?;
    rec.span("media.install_images", 0, |_| {
        media::install_images(&mut copy, &images)
    });
    Ok(())
}
