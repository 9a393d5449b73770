//! Media recovery: rebuild pages lost to media failure from
//! `archive ∥ live` plus the last checkpoint image.
//!
//! The crash model so far assumed the page files survive every failure
//! — only *volatile* state and in-flight transfers were at risk. Media
//! failure breaks that assumption: a page's durable copy is destroyed
//! outright ([`redo_sim::disk::Disk::destroy_page`], or a page file
//! deleted out-of-band), and reads answer
//! [`SimError::MediaLoss`](redo_sim::SimError::MediaLoss) instead of
//! data. No page-LSN redo test can help — there is no page to test.
//!
//! What makes the loss recoverable is the archive tier
//! ([`redo_sim::wal::ShardedLog::archive_prefix`] moves drained frames,
//! it never destroys them): per shard, `archive ∥ live` is the complete
//! frame history from LSN 1, and
//! [`ShardedLog::pit_records`](redo_sim::wal::ShardedLog::pit_records)
//! merges it in LSN order. Replaying that merged history *from genesis*
//! into a scratch map reproduces every page's exact content at the
//! stable LSN — the paper's installation-graph reading: the full stable
//! log is an installation sequence for the maximal explainable state,
//! so a fresh replay of all of it lands every page at its final
//! position. The rebuild then installs the scratch images for the lost
//! pages.
//!
//! Installing a *final* image for page `x` is ahead of where the redo
//! scan may need `x` mid-replay: a generalized operation `O` that read
//! `x` and wrote `y` replays against the recovery cache's fetch of `x`,
//! and if `y` is stale the fetch must see `x` as of `O`'s LSN, not the
//! final value. The fix is the **transitive closure**: any operation
//! whose read-or-write footprint meets the rebuild set has its stale
//! written pages pulled in too (whole write sets at a time, preserving
//! install-atomicity), to fixpoint. Every record touching the closure is
//! then *skipped* by the redo test — its written pages already carry
//! their final images — so no replay ever reads a rebuilt page at the
//! wrong moment. Closure images are exact, so over-approximating is
//! always sound.
//!
//! Crash-safety: the closure's images land together, through one
//! faultable
//! [`Disk::write_pages_atomic`](redo_sim::disk::Disk::write_pages_atomic).
//! The closure is computed *from* the disk — seeded by the lost marks,
//! grown through stale written pages — so a part-installed closure
//! would not be re-derived: a final image installed on a page that was
//! never lost looks merely "not stale" to the next recovery, which then
//! no longer reaches that page's earlier readers and replays them
//! against the wrong moment. All or nothing keeps the rebuild
//! idempotent: a crash at the install leaves every lost page still
//! marked lost — the mark is durable media state — and the next
//! recovery recomputes the same closure and images and finishes the job.

use std::collections::{BTreeMap, BTreeSet};

use redo_sim::db::Db;
use redo_sim::page::Page;
use redo_sim::SimResult;
use redo_theory::log::Lsn;
use redo_workload::pages::{Cell, PageId, PageOp};

use crate::generalized::Generalized;
use crate::ondemand::OnDemand;
use crate::oprecord::PageOpPayload;
use crate::{redo, RecoveryMethod, RecoveryStats};

/// Generalized-LSN recovery (online fuzzy checkpoints, archive-tier
/// truncation) that additionally survives **media failure**: restart
/// detects destroyed page files and rebuilds them from
/// `archive ∥ live` before running the ordinary redo scan.
#[derive(Clone, Copy, Debug, Default)]
pub struct Media;

/// Replays the full merged history `records` from genesis into a
/// scratch page map: reads come from the scratch pages themselves,
/// writes land with the record's LSN. On return every written page
/// holds its exact content as of the last record — for
/// `pit_records(stable)` input, its content at the stable LSN.
fn scratch_replay(records: &[(Lsn, PageOp)], slots_per_page: u16) -> BTreeMap<PageId, Page> {
    let mut scratch: BTreeMap<PageId, Page> = BTreeMap::new();
    let mut read_values: Vec<u64> = Vec::new();
    for (lsn, op) in records {
        read_values.clear();
        let read = |cell: &Cell| scratch.get(&cell.page).map_or(0, |p| p.get(cell.slot));
        read_values.extend(op.reads.iter().map(read));
        for &cell in &op.writes {
            let v = op.output(cell, &read_values);
            let page = scratch
                .entry(cell.page)
                .or_insert_with(|| Page::new(slots_per_page));
            page.set(cell.slot, v);
            page.set_lsn(*lsn);
        }
    }
    scratch
}

/// Computes the rebuild plan for the database's media-lost pages: the
/// transitive closure of the lost set under shared-record footprints,
/// mapped to the exact page images a genesis replay of
/// `pit_records(stable)` produces. Empty when nothing is lost.
///
/// The closure rule: any operation whose read-or-write footprint meets
/// the set contributes every written page the disk has not installed
/// (`page_lsn < record LSN`) — whole write sets at a time, so a
/// part-installed atomic group can never result from the rebuild — to
/// fixpoint. A lost page with no logged history maps to a freshly
/// formatted page: installing it is what clears the loss honestly.
///
/// Pure analysis: nothing is written. Run it after
/// [`Db::repair_after_crash`] so torn pages have been restored to their
/// journaled pre-images and `page_lsn` answers from honest content.
///
/// # Errors
///
/// Log or archive corruption while merging `archive ∥ live`.
pub fn rebuild_images(db: &Db<PageOpPayload>) -> SimResult<BTreeMap<PageId, Page>> {
    let lost = db.disk.lost_pages();
    if lost.is_empty() {
        return Ok(BTreeMap::new());
    }
    let stable = db.log.stable_lsn();
    let records: Vec<(Lsn, PageOp)> = db
        .log
        .pit_records(stable)?
        .into_iter()
        .filter_map(|rec| match rec.payload {
            PageOpPayload::Op(op) => Some((rec.lsn, op)),
            _ => None,
        })
        .collect();
    let scratch = scratch_replay(&records, db.geometry.slots_per_page);
    let mut closure: BTreeSet<PageId> = lost.into_iter().collect();
    loop {
        let mut grew = false;
        for (lsn, op) in &records {
            // Straight off the cells: a page named twice is tested
            // twice, and nothing is listed, sorted or allocated per
            // record per pass.
            let mut cells = op.reads.iter().chain(&op.writes);
            if !cells.any(|cell| closure.contains(&cell.page)) {
                continue;
            }
            for w in op.writes.iter().map(|cell| cell.page) {
                if !closure.contains(&w) && db.disk.page_lsn(w) < *lsn {
                    closure.insert(w);
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }
    Ok(closure
        .into_iter()
        .map(|id| {
            let image = scratch
                .get(&id)
                .cloned()
                .unwrap_or_else(|| Page::new(db.geometry.slots_per_page));
            (id, image)
        })
        .collect())
}

/// Installs rebuild images in one atomic multi-page write, skipping
/// pages the disk already carries at (or past) the image's LSN. Returns
/// the pages written.
///
/// The write is one faultable event: an armed fault suppresses all of
/// it, leaving every lost page lost, to be re-detected and re-installed
/// by the next recovery. So does an install the backend cannot encode
/// (nothing lands, nothing is reported written); the redo scan's first
/// fetch of a lost page then surfaces the loss.
pub fn install_images(db: &mut Db<PageOpPayload>, images: &BTreeMap<PageId, Page>) -> Vec<PageId> {
    let batch: Vec<(PageId, Page)> = images
        .iter()
        .filter(|(&id, image)| db.disk.is_lost(id) || db.disk.page_lsn(id) < image.lsn())
        .map(|(&id, image)| (id, image.clone()))
        .collect();
    let written: Vec<PageId> = batch.iter().map(|&(id, _)| id).collect();
    if written.is_empty() {
        return written;
    }
    match db.disk.write_pages_atomic(batch) {
        Ok(()) => written,
        Err(_) => Vec::new(),
    }
}

impl RecoveryMethod for Media {
    type Payload = PageOpPayload;

    fn name(&self) -> &'static str {
        "media"
    }

    fn execute(&self, db: &mut Db<PageOpPayload>, op: &PageOp) -> SimResult<Lsn> {
        Generalized.execute(db, op)
    }

    fn checkpoint(&self, db: &mut Db<PageOpPayload>) -> SimResult<()> {
        redo::checkpoint_fuzzy(db, 0).map(|_| ())
    }

    fn recover(&self, db: &mut Db<PageOpPayload>) -> SimResult<RecoveryStats> {
        // Repair first: the rebuild closure consults page LSNs, which
        // must answer from honest (un-torn) durable content.
        db.repair_after_crash();
        let images = rebuild_images(db)?;
        install_images(db, &images);
        // If a fault interrupted the install pass, some page is still
        // lost; the redo scan's first fetch of it surfaces MediaLoss,
        // and the next recovery of the re-crashed image starts over.
        Generalized.recover(db)
    }

    fn ondemand_restart(
        &self,
        db: &mut Db<PageOpPayload>,
        probes: &[redo_workload::pages::Cell],
    ) -> Option<SimResult<(RecoveryStats, Vec<u64>)>> {
        // The on-demand open gates media-lost pages and installs their
        // rebuild images lazily, component by component.
        Some(OnDemand::restart_with_probes(db, probes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{self, assert_matches_model};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use redo_sim::db::Geometry;

    fn workload(n: usize, seed: u64) -> Vec<PageOp> {
        testkit::cross_page_workload(n, 6, seed)
    }

    fn crashed_db(ops: &[PageOp], seed: u64) -> Db<PageOpPayload> {
        testkit::crashed_db(&Media, ops, seed, Some(9))
    }

    #[test]
    fn lost_page_rebuilds_to_the_undamaged_recovery_state() {
        for seed in 0..4 {
            let ops = workload(36, seed);
            let db = crashed_db(&ops, seed ^ 0xdead);
            let mut undamaged = db.clone();
            Generalized.recover(&mut undamaged).unwrap();
            for victim in db.disk.pages().into_iter().map(|(id, _)| id) {
                let mut damaged = db.clone();
                damaged.disk.destroy_page(victim);
                // Re-crash so the damage sits in a cold image, exactly
                // as restart would find it.
                damaged.crash();
                Media.recover(&mut damaged).unwrap();
                assert!(!damaged.disk.is_lost(victim));
                assert_eq!(
                    damaged.volatile_theory_state(),
                    undamaged.volatile_theory_state(),
                    "seed {seed}, victim {victim:?}"
                );
            }
        }
    }

    #[test]
    fn rebuild_image_equals_genesis_scratch_replay() {
        let ops = workload(40, 11);
        let mut db = crashed_db(&ops, 0xfeed);
        db.repair_after_crash();
        let stable = db.log.stable_lsn();
        let merged: Vec<(Lsn, PageOp)> = db
            .log
            .pit_records(stable)
            .unwrap()
            .into_iter()
            .filter_map(|rec| match rec.payload {
                PageOpPayload::Op(op) => Some((rec.lsn, op)),
                _ => None,
            })
            .collect();
        let scratch = scratch_replay(&merged, db.geometry.slots_per_page);
        for (victim, _) in db.disk.pages() {
            let mut damaged = db.clone();
            damaged.disk.destroy_page(victim);
            let images = rebuild_images(&damaged).unwrap();
            assert_eq!(
                images.get(&victim),
                scratch.get(&victim),
                "rebuild of {victim:?} must be the genesis replay image"
            );
        }
    }

    #[test]
    fn rebuild_without_loss_is_empty_and_writes_nothing() {
        let ops = workload(20, 3);
        let mut db = crashed_db(&ops, 0xabc);
        db.repair_after_crash();
        let images = rebuild_images(&db).unwrap();
        assert!(images.is_empty());
        assert!(install_images(&mut db, &images).is_empty());
    }

    #[test]
    fn crash_mid_rebuild_is_idempotent() {
        use redo_sim::fault::{FaultKind, FaultPlan};
        let ops = workload(36, 21);
        let db = crashed_db(&ops, 0x21);
        let mut undamaged = db.clone();
        Generalized.recover(&mut undamaged).unwrap();
        let mut damaged = db.clone();
        // Destroy two pages so the install pass has at least two writes
        // to interrupt between.
        let victims: Vec<PageId> = damaged
            .disk
            .pages()
            .into_iter()
            .map(|(id, _)| id)
            .take(2)
            .collect();
        assert_eq!(victims.len(), 2, "workload touches at least two pages");
        for &v in &victims {
            damaged.disk.destroy_page(v);
        }
        damaged.crash();
        // The first page write of the recovery is the first rebuild
        // install; suppress it, killing the machine mid-rebuild.
        damaged.arm_faults(FaultPlan {
            at: 1,
            kind: FaultKind::Clean,
        });
        let interrupted = Media.recover(&mut damaged);
        assert!(damaged.fault_tripped(), "the install must hit the fault");
        // Whether the scan limped to an error or not, at least one
        // victim is still lost — the suppressed install left its mark.
        assert!(
            interrupted.is_err() || !damaged.disk.lost_pages().is_empty(),
            "a suppressed install cannot count as rebuilt"
        );
        damaged.crash();
        assert!(
            !damaged.disk.lost_pages().is_empty(),
            "media loss survives the re-crash"
        );
        Media.recover(&mut damaged).unwrap();
        assert!(damaged.disk.lost_pages().is_empty());
        assert_eq!(
            damaged.volatile_theory_state(),
            undamaged.volatile_theory_state(),
            "the re-run rebuild converges"
        );
        assert_matches_model(&mut damaged, &ops);
    }

    #[test]
    fn crash_mid_install_never_strands_a_stale_reader() {
        // Pages p < q < c. O0 seeds c (durable); O1 reads c, writes p;
        // O2 reads p, writes q; O3 overwrites p — so p's final image is
        // the wrong thing for a replay of O2 to read. Nothing but c ever
        // reaches disk, then c is destroyed. The closure is {c, p, q}: p
        // through O1 (touches c, p stale), q through O2 (touches p, q
        // stale). Installed page by page, a crash after p alone left p
        // "not stale" and never lost: the re-run's closure stopped at c,
        // O2 replayed against p's final image, and q came back wrong.
        use redo_workload::pages::{Cell, PageOpKind, SlotId};
        let cell = |page| Cell {
            page: PageId(page),
            slot: SlotId(0),
        };
        let op = |id, kind, reads, writes| PageOp {
            id,
            kind,
            reads,
            writes,
            f_seed: u64::from(id) + 1,
        };
        let (p, q, c) = (cell(0), cell(1), cell(2));
        let ops = [
            op(0, PageOpKind::Blind, vec![], vec![c]),
            op(1, PageOpKind::Generalized, vec![c], vec![p]),
            op(2, PageOpKind::Generalized, vec![p], vec![q]),
            op(3, PageOpKind::Physiological, vec![p], vec![p]),
        ];
        let mut db: Db<PageOpPayload> = Db::new(Geometry::default());
        Media.execute(&mut db, &ops[0]).unwrap();
        db.log.flush_all();
        db.pool
            .flush_page(&mut db.disk, c.page, db.log.stable_lsn())
            .unwrap();
        for op in &ops[1..] {
            Media.execute(&mut db, op).unwrap();
        }
        db.log.flush_all();
        db.crash();
        db.disk.destroy_page(c.page);
        let mut reference = db.clone();
        Media.recover(&mut reference).unwrap();
        assert_matches_model(&mut reference, &ops);
        // Both executors install through `install_images`: the offline
        // scan up front, the lazy one on the first component that holds
        // a rebuilt page.
        every_crash_point_converges(&Media, &db, &reference);
        every_crash_point_converges(&OnDemand, &db, &reference);
    }

    /// Every `Clean` crash point of an interrupted `method.recover` of
    /// `db`, the install's among them, until a plan outlives the
    /// recovery: the re-crashed, re-recovered state is `reference`'s.
    fn every_crash_point_converges<M: RecoveryMethod<Payload = PageOpPayload>>(
        method: &M,
        db: &Db<PageOpPayload>,
        reference: &Db<PageOpPayload>,
    ) {
        use redo_sim::fault::{FaultKind, FaultPlan};
        for at in 1.. {
            let mut damaged = db.clone();
            damaged.arm_faults(FaultPlan {
                at,
                kind: FaultKind::Clean,
            });
            let interrupted = method.recover(&mut damaged);
            if !damaged.fault_tripped() {
                assert!(at > 1, "the install is a faultable event");
                break;
            }
            if at == 1 {
                // The suppressed install left the page lost, and no
                // gate or fetch may open over it.
                assert!(
                    matches!(interrupted, Err(redo_sim::SimError::MediaLoss(_))),
                    "{}: {interrupted:?}",
                    method.name()
                );
            }
            damaged.crash();
            method.recover(&mut damaged).unwrap();
            assert_eq!(
                damaged.volatile_theory_state(),
                reference.volatile_theory_state(),
                "{}: crash at event {at} of the interrupted recovery",
                method.name()
            );
        }
    }

    #[test]
    fn closure_pulls_in_readers_of_lost_pages() {
        // O1 seeds x; O2 reads x, writes y (generalized); O3 overwrites
        // x AFTER O2 — the reason x's final image is the wrong thing for
        // O2's replay to read. Crash with y never flushed, then destroy
        // x. The rebuild must install BOTH: x because it is lost, y
        // because replaying O2 against x's final image would read the
        // wrong moment.
        let ops = testkit::figure8_ops();
        let mut db: Db<PageOpPayload> = Db::new(Geometry::default());
        // x durable at O1 only; y (and x's O3 overwrite) never flushed.
        Media.execute(&mut db, &ops[0]).unwrap();
        db.log.flush_all();
        db.pool
            .flush_page(&mut db.disk, PageId(0), db.log.stable_lsn())
            .unwrap();
        Media.execute(&mut db, &ops[1]).unwrap();
        Media.execute(&mut db, &ops[2]).unwrap();
        db.log.flush_all();
        db.crash();
        let mut undamaged = db.clone();
        Generalized.recover(&mut undamaged).unwrap();
        let mut damaged = db.clone();
        damaged.disk.destroy_page(PageId(0));
        damaged.crash();
        damaged.repair_after_crash();
        let images = rebuild_images(&damaged).unwrap();
        assert!(images.contains_key(&PageId(0)), "the lost page itself");
        assert!(
            images.contains_key(&PageId(1)),
            "the stale reader's write page joins the closure: replaying \
             O2 against x's final image would read the wrong moment"
        );
        Media.recover(&mut damaged).unwrap();
        assert_eq!(
            damaged.volatile_theory_state(),
            undamaged.volatile_theory_state()
        );
        assert_matches_model(&mut damaged, &ops);
    }

    #[test]
    fn media_recovery_on_file_backend_survives_deleted_page_file() {
        let ops = workload(32, 5);
        let mut db: Db<PageOpPayload> = Db::on(
            redo_sim::backend::BackendKind::File,
            Geometry::default(),
            None,
        );
        let mut rng = StdRng::seed_from_u64(0x5);
        for (i, op) in ops.iter().enumerate() {
            Media.execute(&mut db, op).unwrap();
            db.chaos_flush(&mut rng, 0.7, 0.4).unwrap();
            if (i + 1) % 9 == 0 {
                Media.checkpoint(&mut db).unwrap();
            }
        }
        db.log.flush_all();
        db.crash();
        let mut undamaged = db.clone();
        Generalized.recover(&mut undamaged).unwrap();
        let victim = db
            .disk
            .pages()
            .first()
            .map(|&(id, _)| id)
            .expect("workload installed pages");
        // Delete the page file out-of-band, as a real media failure
        // would, and let crash-rescan detect the manifested-but-missing
        // file.
        let path = db
            .disk
            .dir()
            .expect("file backend has a directory")
            .join("pages")
            .join(format!("p{}.pg", victim.0));
        std::fs::remove_file(&path).unwrap();
        db.crash();
        assert!(db.disk.is_lost(victim), "rescan detects the missing file");
        Media.recover(&mut db).unwrap();
        assert!(!db.disk.is_lost(victim));
        assert_eq!(
            db.volatile_theory_state(),
            undamaged.volatile_theory_state()
        );
    }
}
