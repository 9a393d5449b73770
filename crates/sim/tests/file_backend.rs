//! End-to-end acceptance tests for the file-backed durable substrate:
//! out-of-band damage inflicted on the *real files* (a `truncate(2)` of
//! the WAL at an arbitrary byte, a bit flipped in a page file) must be
//! observed on reopen exactly as the crash model promises — a
//! repairable torn tail, a checksum-detected torn page — and an
//! interrupted checkpoint-pointer publication must leave the old master
//! in force.
//!
//! These tests talk to the durable layer the way an external adversary
//! would (through the filesystem), not through the simulator's fault
//! hooks, so they pin down the on-disk formats themselves.

use std::fs::OpenOptions;

use redo_sim::backend::BackendKind;
use redo_sim::db::{Db, Geometry};
use redo_sim::disk::Disk;
use redo_sim::fault::{FaultKind, FaultPlan};
use redo_sim::page::Page;
use redo_sim::wal::{codec, LogPayload, ShardedLog, WalRecord, FRAME_HEADER};
use redo_sim::{SimError, SimResult};
use redo_theory::log::Lsn;
use redo_workload::pages::{PageId, SlotId};

/// Bytes logged against page `.0` — so a sharded log routes each
/// record to that page's shard.
#[derive(Clone, Debug, PartialEq)]
struct Blob(u32, Vec<u8>);

impl LogPayload for Blob {
    fn encode(&self, buf: &mut Vec<u8>) -> SimResult<()> {
        codec::put_u32(buf, self.0);
        codec::put_u32(buf, codec::count_u16("blob len", self.1.len())?.into());
        buf.extend_from_slice(&self.1);
        Ok(())
    }
    fn decode(input: &[u8], pos: &mut usize) -> SimResult<Self> {
        let page = codec::get_u32(input, pos)?;
        let n = codec::get_u32(input, pos)? as usize;
        let end = *pos + n;
        if end > input.len() {
            return Err(SimError::Corrupt(*pos));
        }
        let body = input[*pos..end].to_vec();
        *pos = end;
        Ok(Blob(page, body))
    }
    fn write_pages(&self) -> Vec<PageId> {
        vec![PageId(self.0)]
    }
}

fn blob(i: u64, len: usize) -> Blob {
    let page = u32::try_from(i).expect("small page id");
    Blob(
        page,
        (0..len).map(|j| (i as u8).wrapping_add(j as u8)).collect(),
    )
}

/// The records logged before the group of [`file_log`].
const SINGLES: u64 = 6;

/// A file-backed log of `shards` shards: [`SINGLES`] records of varied
/// sizes on pages 0, 1, … — each forced alone, so it lands on its
/// page's shard unbracketed — then a record on page 0 and one on page
/// 1 forced together: on several shards a cross-shard flush group,
/// bracketed in `Open`/`Close` markers on shards 0 and 1.
fn file_log(shards: usize) -> ShardedLog<Blob> {
    let mut log: ShardedLog<Blob> = ShardedLog::on(BackendKind::File, shards);
    for i in 0..SINGLES {
        let lsn = log
            .append(blob(i, 3 + (i as usize % 5) * 7))
            .expect("encodable");
        log.flush(lsn);
    }
    log.append(blob(0, 4)).expect("encodable");
    log.append(blob(1, 9)).expect("encodable");
    log.flush_all();
    log
}

/// One frame of a shard image, walked by its documented header: where
/// it ends, its LSN, and whether it is a record (body tag 0) rather
/// than a flush-group marker.
fn frames(bytes: &[u8]) -> Vec<(usize, u64, bool)> {
    let (mut out, mut pos) = (Vec::new(), 0);
    while pos + FRAME_HEADER < bytes.len() {
        let lsn = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
        let len = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().unwrap()) as usize;
        let is_record = bytes[pos + FRAME_HEADER] == 0;
        pos += FRAME_HEADER + len;
        out.push((pos, lsn, is_record));
    }
    out
}

#[test]
fn out_of_band_wal_truncation_repairs_to_the_longest_whole_prefix() {
    // Cut one shard's real wal.log at several non-boundary offsets —
    // inside a record, the group's `Open`, or its `Close` — and reopen:
    // the shard keeps exactly its whole frames, repair_tail (or, inside
    // a group, the crash's rollback) discards the dangling fragment, a
    // group whose `Close` did not survive is gone from every
    // participant, and the history is the whole-frame prefix.
    let single = [
        (0usize, 5),
        (1, 9),
        (2, 7),
        (2, FRAME_HEADER + 2),
        (3, 4),
        (5, 1),
        (7, 3),
    ];
    let sharded = [
        (0usize, 5),
        (1, 9),
        (2, 7),
        (2, FRAME_HEADER + 2),
        (3, 4),
        (4, 3),
    ];
    let runs = (single.map(|(keep, extra)| (1, 0, keep, extra)).into_iter())
        .chain(sharded.map(|(keep, extra)| (4, 0, keep, extra)))
        // Shard 2 of four holds one record and no group.
        .chain([(4usize, 2, 0, 5)]);
    for (shards, target, keep_frames, extra) in runs {
        let mut log = file_log(shards);
        let all = log
            .pit_records(log.stable_lsn())
            .expect("clean log decodes");
        assert_eq!(all.len(), SINGLES as usize + 2);
        let path = log.shard_path(target).expect("file backend has a path");
        let path = path.to_path_buf();
        let image = frames(&std::fs::read(&path).expect("wal.log exists"));
        // Find the boundary after `keep_frames` whole frames, then cut
        // strictly inside the next frame.
        let start = keep_frames.checked_sub(1).map_or(0, |k| image[k].0);
        let cut = (start + extra).min(image[keep_frames].0 - 1);
        OpenOptions::new()
            .write(true)
            .open(&path)
            .expect("wal.log exists")
            .set_len(cut as u64)
            .expect("truncate");

        log.crash();
        let dropped = log.repair_tail();
        let whole = &image[..keep_frames];
        // The group survives the cut only if the shard's `Close` did
        // (one shard brackets nothing).
        let closed = (image.iter()).all(|&(end, _, is_record)| is_record || end <= cut);
        let group = [Lsn(SINGLES + 1), Lsn(SINGLES + 2)];
        let want: Vec<WalRecord<Blob>> = (all.iter())
            .filter(|rec| {
                let on_target = rec.payload.0 as usize % shards == target;
                let kept = !on_target
                    || (whole.iter()).any(|&(_, lsn, is_record)| is_record && lsn == rec.lsn.0);
                kept && (closed || !group.contains(&rec.lsn))
            })
            .cloned()
            .collect();
        let survived = log
            .pit_records(log.stable_lsn())
            .expect("repaired log decodes");
        let context = format!("shards {shards}, shard {target}, cut {cut}");
        assert_eq!(survived, want, "{context}");
        if closed {
            assert!(dropped > 0, "a mid-frame cut leaves a fragment to drop");
        } else {
            // Every participant was rolled back to before its `Open`:
            // no frame of the group, record or marker, is left on disk.
            for s in 0..2 {
                let bytes = std::fs::read(log.shard_path(s).unwrap()).unwrap();
                for (_, lsn, is_record) in frames(&bytes) {
                    assert!(is_record && !group.contains(&Lsn(lsn)), "{context}");
                }
            }
        }
        // Repair truncates the files themselves, not just their mirrors:
        // the cut file holds whole frames only, and the shard files
        // together hold exactly the live log.
        let bytes = std::fs::read(&path).expect("wal.log exists");
        let whole_end = frames(&bytes).last().map_or(0, |&(end, _, _)| end);
        assert_eq!(bytes.len(), whole_end, "{context}");
        let on_disk: u64 = (0..shards)
            .map(|s| std::fs::metadata(log.shard_path(s).unwrap()).unwrap().len())
            .sum();
        assert_eq!(on_disk, log.suffix_bytes(Lsn::ZERO), "{context}");
    }
}

#[test]
fn appends_group_commit_under_one_fsync() {
    let mut log: ShardedLog<Blob> = ShardedLog::on(BackendKind::File, 1);
    let mut last = Lsn(0);
    for i in 0..10 {
        last = log.append(blob(i, 8)).expect("encodable");
    }
    assert_eq!(log.syncs(), 0, "appends alone must not touch the file");
    log.flush(last);
    assert_eq!(log.syncs(), 1, "a flush batch is one write + one fsync");
    assert_eq!(log.stable_count(), 10);
}

/// A drain moves each shard's live origin and nothing else: every
/// `wal.log` keeps its length and no `fsync` is issued, on one shard
/// and on four — and the drained history still reads whole, from the
/// files too.
#[test]
fn a_drain_writes_nothing_to_the_files() {
    for shards in [1, 4] {
        let mut log = file_log(shards);
        let all = log
            .pit_records(log.stable_lsn())
            .expect("clean log decodes");
        let lens = |log: &ShardedLog<Blob>| -> Vec<u64> {
            let len = |s| std::fs::metadata(log.shard_path(s).unwrap()).unwrap().len();
            (0..shards).map(len).collect()
        };
        let (before, syncs) = (lens(&log), log.syncs());
        let drained = log.archive_prefix(Lsn(SINGLES)).expect("clean drain");
        assert!(
            drained > 0,
            "{shards} shards: the drain reclaimed live bytes"
        );
        assert_eq!(log.archived_bytes(), drained, "{shards} shards");
        assert_eq!(
            lens(&log),
            before,
            "{shards} shards: no file changed length"
        );
        assert_eq!(log.syncs(), syncs, "{shards} shards: no fsync");
        log.crash();
        log.repair_tail();
        assert_eq!(log.first_stable(), Lsn(SINGLES), "{shards} shards");
        assert_eq!(
            log.pit_records(log.stable_lsn()).unwrap(),
            all,
            "{shards} shards"
        );
    }
}

#[test]
fn out_of_band_page_bit_flip_reads_as_torn_until_repaired() {
    let spp: u16 = 8;
    let id = PageId(5);
    let mut disk = Disk::on(BackendKind::File);
    let mut page = Page::new(spp);
    page.set_lsn(Lsn(9));
    for s in 0..spp {
        page.set(SlotId(s), 0xA5A5_0000 + u64::from(s));
    }
    disk.write_page(id, page.clone());

    // Flip one bit in the page body, behind the simulator's back.
    let file = disk
        .dir()
        .expect("file backend has a directory")
        .join("pages")
        .join("p5.pg");
    let mut bytes = std::fs::read(&file).expect("page file exists");
    let body = bytes.len() - 1;
    bytes[body] ^= 0x04;
    std::fs::write(&file, &bytes).expect("rewrite page file");

    disk.crash(); // reopen: the mirror is relearned from the files
    match disk.read_page(id, spp) {
        Err(SimError::TornPage(p)) => assert_eq!(p, id),
        other => panic!("expected TornPage, got {other:?}"),
    }
    assert_eq!(disk.torn_pages(), vec![id]);

    let repaired = disk.repair_torn();
    assert_eq!(repaired, vec![id]);
    let after = disk.read_page(id, spp).expect("repaired page reads");
    // No journaled pre-image exists for out-of-band damage, so repair
    // scrubs the file to a self-consistent image; the page must at
    // least read cleanly and keep its honest (flipped) content.
    assert_eq!(after.lsn(), Lsn(9));
}

#[test]
fn interrupted_master_publication_keeps_the_old_pointer() {
    let mut db: Db<Blob> = Db::on(BackendKind::File, Geometry { slots_per_page: 4 }, None);
    db.log.append(blob(0, 4)).expect("encodable");
    db.log.append(blob(1, 4)).expect("encodable");
    db.log.flush_all();
    db.disk.set_master(Lsn(2)).unwrap();
    assert_eq!(db.disk.master(), Lsn(2));

    // Die between the temp write and the rename: the new master is
    // fully written to master.tmp but never published.
    db.arm_faults(FaultPlan {
        at: 1,
        kind: FaultKind::Clean,
    });
    db.disk.set_master(Lsn(9)).unwrap();
    assert!(db.fault_tripped());
    let dir = db
        .disk
        .dir()
        .expect("file backend has a directory")
        .to_path_buf();
    assert!(
        dir.join("master.tmp").exists(),
        "the interrupted publication leaves its temp file behind"
    );

    db.crash();
    assert_eq!(
        db.disk.master(),
        Lsn(2),
        "reopen must keep the old pointer: rename is the commit point"
    );
    assert!(
        !dir.join("master.tmp").exists(),
        "reopen sweeps pre-commit debris"
    );

    // The machine is alive again: the next publication goes through.
    db.disk.set_master(Lsn(9)).unwrap();
    assert_eq!(db.disk.master(), Lsn(9));
}

#[test]
fn a_torn_page_whose_journal_vanished_after_reopen_repairs_to_its_pre_image() {
    let spp: u16 = 4;
    let id = PageId(2);
    let slots = |lsn: u64, base: u64| {
        let mut page = Page::new(spp);
        page.set_lsn(Lsn(lsn));
        for s in 0..spp {
            page.set(SlotId(s), base + u64::from(s));
        }
        page
    };
    let mut db: Db<Blob> = Db::on(
        BackendKind::File,
        Geometry {
            slots_per_page: spp,
        },
        None,
    );
    let pre = slots(1, 10);
    db.disk.write_page(id, pre.clone());
    db.arm_faults(FaultPlan {
        at: 1,
        kind: FaultKind::TornWrite { sectors: 2 },
    });
    db.disk.write_page(id, slots(2, 20));
    assert!(db.disk.is_torn(id));
    let dir = db
        .disk
        .dir()
        .expect("file backend has a directory")
        .to_path_buf();

    // Cut the torn page's file below its header, behind the simulator's
    // back: the reopen finds it structurally unreadable, and only its
    // doublewrite journal keeps it torn rather than lost.
    OpenOptions::new()
        .write(true)
        .open(dir.join("pages").join("p2.pg"))
        .expect("page file exists")
        .set_len(3)
        .expect("truncate page file");
    db.crash();
    assert_eq!(db.disk.torn_pages(), vec![id]);

    // The journal vanishes after the reopen read it; the repair must
    // still answer with the pre-image (or a loss), never a page of some
    // other geometry — and so must the files after another reopen.
    std::fs::remove_file(dir.join("journal").join("p2.pg")).expect("journal exists");
    assert_eq!(db.repair_after_crash().torn_pages, vec![id]);
    for reopened in [false, true] {
        if reopened {
            db.crash();
        }
        match db.disk.read_page(id, spp) {
            Ok(page) => assert_eq!(page, pre, "reopened: {reopened}"),
            Err(SimError::MediaLoss(p)) => assert_eq!(p, id),
            Err(e) => panic!("reopened: {reopened}: {e:?}"),
        }
    }
}
