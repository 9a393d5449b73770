//! Property tests for the log's seek and index discipline: a scan
//! seeked through the sparse index (or with it disabled) yields exactly
//! the tail of a full scan, before and after a torn force is repaired,
//! and the seek index and per-page chains stay consistent with the
//! image through flushes, drains, compactions, crashes and repair.
//! (The byte-level corruption properties — every truncation, every bit
//! flip, against an independent reference decoder — sit next to the
//! reader itself, in `wal::sharded`'s tests.)
//!
//! Every property runs against BOTH stable-storage backends — the
//! in-memory simulation and the file-backed implementation (in a fresh
//! temporary directory) — and asserts they recover identical states.

use proptest::prelude::*;
use redo_sim::backend::BackendKind;
use redo_sim::db::{Db, Geometry};
use redo_sim::fault::{FaultKind, FaultPlan};
use redo_sim::wal::{codec, LogPayload, ShardedLog, ShardedScanner, WalRecord};
use redo_sim::{SimError, SimResult};
use redo_theory::log::Lsn;
use redo_workload::pages::{PageId, PageOp, PageWorkloadSpec};

const BACKENDS: [BackendKind; 2] = [BackendKind::Mem, BackendKind::File];

#[derive(Clone, Debug, PartialEq)]
struct OpRec(PageOp);

impl LogPayload for OpRec {
    fn encode(&self, buf: &mut Vec<u8>) -> SimResult<()> {
        codec::put_page_op(buf, &self.0)
    }
    fn decode(input: &[u8], pos: &mut usize) -> SimResult<Self> {
        Ok(OpRec(codec::get_page_op(input, pos)?))
    }
    fn write_pages(&self) -> Vec<PageId> {
        self.0.written_pages()
    }
    fn cross_read_pages(&self) -> Vec<PageId> {
        let written = self.0.written_pages();
        let mut reads = self.0.read_pages();
        reads.retain(|page| !written.contains(page));
        reads
    }
}

/// The live records from the first with LSN ≥ `from`, read by the
/// restart scanner one record per batch — so every record before a
/// damaged frame is read — and how the scan ended.
fn live(log: &ShardedLog<OpRec>, from: Lsn) -> (Vec<WalRecord<OpRec>>, SimResult<()>) {
    let mut scanner = ShardedScanner::seek(log, from);
    let mut got = Vec::new();
    loop {
        match scanner.next_batch(log, 1) {
            Ok(batch) if batch.is_empty() => return (got, Ok(())),
            Ok(batch) => {
                for WalRecord { lsn, payload } in batch {
                    match payload.parse(OpRec::decode) {
                        Ok(payload) => got.push(WalRecord { lsn, payload }),
                        Err(e) => return (got, Err(e)),
                    }
                }
            }
            Err(e) => return (got, Err(e)),
        }
    }
}

/// [`live`] of an image that must read whole.
fn live_whole(log: &ShardedLog<OpRec>, from: Lsn) -> Vec<WalRecord<OpRec>> {
    let (records, end) = live(log, from);
    end.expect("seeked scan decodes");
    records
}

/// The discipline the stable-offset indexes promise, checked
/// wholesale: every surviving seek entry, per-page chain entry and
/// cross-reader chain entry must point at a frame bearing its own LSN
/// (chains additionally at one writing their page, reader chains at one
/// reading it without writing it), all must be strictly increasing, the
/// seek index's first entry, if any, must lie at or past the live
/// origin (none when no live frame is left), and the chains must cover every stable
/// write and every stable cross-read — no more, no fewer. Runs against
/// the database's (possibly sharded) log.
fn check_index_discipline(log: &ShardedLog<OpRec>) -> Result<(), TestCaseError> {
    // The image may still carry a torn tail awaiting repair; index and
    // chain entries only ever point into the valid prefix, so decode
    // exactly the records before the tear.
    let (full, end) = live(log, Lsn::ZERO);
    if let Err(e) = end {
        if !matches!(e, SimError::Corrupt(_)) {
            return Err(TestCaseError::fail(format!("unexpected scan error {e:?}")));
        }
    }
    // The seek index is held to exact entries on a single log only,
    // whose live origin is what it has archived. (A single log writes
    // no flush-group markers, so every frame is a record.)
    let seek_audited = usize::from(log.n_shards() == 1);
    for s in 0..seek_audited {
        let index = log.shard_seek_index(s);
        let origin = log.archived_bytes();
        if log.record_in(s, origin).is_err() {
            // No valid live frame: wholly drained, or torn inside its
            // first frame.
            prop_assert!(
                index.is_empty(),
                "shard {s} index over an empty live log: {index:?}"
            );
        } else {
            prop_assert!(
                index.first().is_none_or(|&(_, off)| off >= origin),
                "shard {} index {:?} starts below the live origin {}",
                s,
                index,
                origin
            );
            for &(lsn, off) in index {
                let rec = log.record_in(s, off).expect("seek entry points at a frame");
                prop_assert_eq!(
                    rec.lsn,
                    lsn,
                    "shard {} seek entry {} lands on a foreign frame",
                    s,
                    lsn.0
                );
            }
        }
        for w in index.windows(2) {
            prop_assert!(
                w[0].0 < w[1].0 && w[0].1 < w[1].1,
                "shard {} seek index not strictly increasing: {:?}",
                s,
                w
            );
        }
    }
    for page in log.chained_pages() {
        let chain = log.page_chain(page);
        prop_assert!(!chain.is_empty(), "empty chain kept for page {page:?}");
        for w in chain.windows(2) {
            prop_assert!(
                w[0].0 < w[1].0 && w[0].1 < w[1].1,
                "chain of {:?} not strictly increasing: {:?}",
                page,
                w
            );
        }
        for &(lsn, off) in chain {
            let rec = log
                .record_in(log.shard_of(page), off)
                .expect("chain entry points at a frame");
            prop_assert_eq!(
                rec.lsn,
                lsn,
                "chain entry of {:?} lands on a foreign frame",
                page
            );
            let payload = rec
                .payload
                .parse(OpRec::decode)
                .expect("a chained record decodes");
            prop_assert!(
                payload.write_pages().contains(&page),
                "chain of {:?} holds a record that does not write it",
                page
            );
        }
    }
    // The cross-reader chains, over every page the workloads touch, by
    // the same rules. `record_in` reads only a frame whose CRC holds (or
    // held when a repair walked it), so an entry that resolves names
    // neither a volatile nor a torn record.
    for page in (0..PageWorkloadSpec::default().n_pages).map(PageId) {
        let readers = log.readers_of(page);
        for w in readers.windows(2) {
            prop_assert!(
                w[0].0 < w[1].0,
                "readers of {:?} not strictly increasing: {:?}",
                page,
                w
            );
        }
        for &(lsn, shard, off) in &readers {
            let rec = log
                .record_in(shard, off)
                .expect("reader entry points at a frame");
            prop_assert_eq!(
                rec.lsn,
                lsn,
                "reader entry of {:?} lands on a foreign frame",
                page
            );
            let payload = rec
                .payload
                .parse(OpRec::decode)
                .expect("a reader record decodes");
            prop_assert!(
                payload.cross_read_pages().contains(&page),
                "readers of {:?} hold a record that does not cross-read it",
                page
            );
        }
    }
    // Completeness: every stable write appears on its page's chain,
    // every stable cross-read among its page's readers.
    for rec in &full {
        for page in rec.payload.write_pages() {
            prop_assert!(
                log.page_chain(page).iter().any(|&(l, _)| l == rec.lsn),
                "stable record {} writes {:?} but is missing from its chain",
                rec.lsn.0,
                page
            );
        }
        for page in rec.payload.cross_read_pages() {
            prop_assert!(
                log.readers_of(page).iter().any(|&(l, _, _)| l == rec.lsn),
                "stable record {} cross-reads {:?} but is missing from its readers",
                rec.lsn.0,
                page
            );
        }
    }
    Ok(())
}

/// Builds a single log on `kind` from a seeded workload, forcing every
/// `flush_every` records (so the seek index has entries and the
/// group-commit path is exercised), then forcing the rest.
fn flushed_log_on(
    kind: BackendKind,
    seed: u64,
    n_ops: usize,
    flush_every: usize,
) -> ShardedLog<OpRec> {
    let spec = PageWorkloadSpec {
        n_ops,
        cross_page_fraction: 0.3,
        blind_fraction: 0.2,
        ..Default::default()
    };
    let mut log: ShardedLog<OpRec> = ShardedLog::on(kind, 1);
    for (i, op) in spec.generate(seed).into_iter().enumerate() {
        let lsn = log.append(OpRec(op)).expect("encodable payload");
        if (i + 1) % flush_every == 0 {
            log.flush(lsn);
        }
    }
    log.flush_all();
    log
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32 })]

    /// Seek-then-scan equals the tail of a full scan for EVERY starting
    /// LSN — with the sparse index consulted and with it disabled, on
    /// both backends — so the index can change where the scan enters
    /// the log but never what it yields.
    #[test]
    fn seeked_scan_equals_tail_of_full_scan(seed in 0u64..10_000, flush_every in 1usize..6) {
        let mut per_backend: Vec<Vec<WalRecord<OpRec>>> = Vec::new();
        for kind in BACKENDS {
            let log = flushed_log_on(kind, seed, 24, flush_every);
            let full = live_whole(&log, Lsn::ZERO);
            let mut unindexed = log.clone();
            unindexed.disable_seek_index();
            prop_assert!(log.shard_seek_index(0).len() > 1, "index too sparse to test a jump");
            for from in 0..=log.stable_lsn().0 + 2 {
                let want: Vec<&WalRecord<OpRec>> =
                    full.iter().filter(|r| r.lsn >= Lsn(from)).collect();
                for (name, l) in [("indexed", &log), ("unindexed", &unindexed)] {
                    let got = live_whole(l, Lsn(from));
                    prop_assert_eq!(
                        got.iter().collect::<Vec<_>>(), want.clone(),
                        "{} {:?} scan from {} is not the tail", name, kind, from
                    );
                }
            }
            per_backend.push(full);
        }
        prop_assert_eq!(&per_backend[0], &per_backend[1], "backends recover different logs");
    }

    /// The same seek-scan equivalence on an image torn mid-force and
    /// then repaired: `repair_tail` must leave the seek index consistent
    /// with the surviving prefix, whatever byte the tear landed on —
    /// and the in-memory and file backends must recover the SAME state
    /// from the same torn schedule.
    #[test]
    fn seeked_scan_equals_tail_after_torn_repair(
        seed in 0u64..10_000,
        at in 1u64..30,
        tear in 1usize..25,
    ) {
        let mut per_backend: Vec<Vec<WalRecord<OpRec>>> = Vec::new();
        for kind in BACKENDS {
            let mut db: Db<OpRec> = Db::on(kind, Geometry::default(), None);
            db.arm_faults(FaultPlan { at, kind: FaultKind::TornFlush { bytes: tear } });
            let spec = PageWorkloadSpec { n_ops: 24, ..Default::default() };
            for (i, op) in spec.generate(seed).into_iter().enumerate() {
                let lsn = db.log.append(OpRec(op)).expect("encodable payload");
                if i % 3 == 2 {
                    db.log.flush(lsn);
                }
            }
            db.log.flush_all();
            db.crash();
            db.repair_after_crash();
            let full = db.log.pit_records(db.log.stable_lsn()).expect("repaired image decodes");
            for from in 0..=db.log.stable_lsn().0 + 2 {
                let want: Vec<&WalRecord<OpRec>>  =
                    full.iter().filter(|r| r.lsn >= Lsn(from)).collect();
                let got = live_whole(&db.log, Lsn(from));
                prop_assert_eq!(
                    got.iter().collect::<Vec<_>>(), want,
                    "post-repair {:?} scan from {} is not the tail", kind, from
                );
            }
            per_backend.push(full);
        }
        prop_assert_eq!(
            &per_backend[0], &per_backend[1],
            "backends recover different states from the same torn schedule"
        );
    }

    /// The page-op codec itself round-trips, and survives any single
    /// bit flip in its encoding without panicking.
    #[test]
    fn page_op_codec_roundtrip_under_bit_flips(seed in 0u64..10_000, flip in 0usize..1usize << 12) {
        let op = PageWorkloadSpec {
            n_ops: 1,
            cross_page_fraction: 0.5,
            ..Default::default()
        }
        .generate(seed)
        .remove(0);
        let mut buf = Vec::new();
        codec::put_page_op(&mut buf, &op).expect("encodable op");
        let mut pos = 0;
        let back = codec::get_page_op(&buf, &mut pos).expect("roundtrip decodes");
        prop_assert_eq!(&back, &op);
        prop_assert_eq!(pos, buf.len());
        let i = flip % buf.len();
        let bit = (flip / buf.len()) % 8;
        buf[i] ^= 1 << bit;
        let mut pos = 0;
        match codec::get_page_op(&buf, &mut pos) {
            Ok(_) | Err(SimError::Corrupt(_)) => {}
            Err(e) => return Err(TestCaseError::Fail(format!("unexpected error {e:?}"))),
        }
    }

    /// The unified retain/rebase helpers behind `archive_prefix`,
    /// `repair_tail`, and `crash` keep both stable-offset indexes (the
    /// sparse seek index and the per-page chains) disciplined across an
    /// adversarial interleaving: group-commit flushes, mid-run prefix
    /// truncations *and archive compactions*, a torn-flush crash, tail
    /// repair, and a post-repair truncation. After every mutation
    /// [`check_index_discipline`] must hold, the archive's byte total
    /// must drop by exactly what each compaction reclaims and survive
    /// the crash unchanged (the archive is durable storage), and
    /// the two backends must recover identical records.
    #[test]
    fn index_and_chain_discipline_survives_flush_truncate_repair(
        seed in 0u64..10_000,
        at in 1u64..40,
        tear in 1usize..25,
        truncate_every in 3usize..9,
    ) {
        let mut per_backend: Vec<Vec<WalRecord<OpRec>>> = Vec::new();
        for (kind, log_shards) in BACKENDS.into_iter().flat_map(|kind| [(kind, 1), (kind, 4)]) {
            let mut db: Db<OpRec> = Db::on_sharded(kind, Geometry::default(), None, log_shards);
            db.arm_faults(FaultPlan { at, kind: FaultKind::TornFlush { bytes: tear } });
            let spec = PageWorkloadSpec {
                n_ops: 30,
                cross_page_fraction: 0.3,
                blind_fraction: 0.2,
                ..Default::default()
            };
            for (i, op) in spec.generate(seed).into_iter().enumerate() {
                let lsn = db.log.append(OpRec(op)).expect("encodable payload");
                if i % 3 == 2 {
                    db.log.flush(lsn);
                }
                // Interleave prefix truncation with the append stream.
                // Guarded on the injector: once it trips, stable I/O is
                // suppressed, so a drain would desync the bookkeeping
                // from the bytes — a dead machine does not truncate.
                if (i + 1) % truncate_every == 0 && !db.fault_tripped() {
                    let stable = db.log.stable_lsn();
                    if stable.0 > db.log.first_stable().0 + 4 {
                        db.log
                            .archive_prefix(Lsn(stable.0 - 4))
                            .expect("clean mid-run truncation");
                        check_index_discipline(&db.log)?;
                    }
                    // Every other truncation also compacts the archive
                    // tier up to a drifting genesis, exercising partial
                    // and full compactions against live drains.
                    if (i + 1) % (truncate_every * 2) == 0 {
                        let genesis =
                            Lsn(db.log.first_stable().0.saturating_sub((i % 4) as u64));
                        let before = db.log.archived_bytes();
                        let reclaimed = db.log.compact_archive(genesis);
                        prop_assert_eq!(
                            db.log.archived_bytes(),
                            before - reclaimed,
                            "compaction reclaimed {} but telemetry moved from {}",
                            reclaimed,
                            before
                        );
                        check_index_discipline(&db.log)?;
                    }
                }
            }
            db.log.flush_all();
            check_index_discipline(&db.log)?;
            let tripped = db.fault_tripped();
            let archived_before_crash = db.log.archived_bytes();
            db.crash();
            check_index_discipline(&db.log)?;
            prop_assert_eq!(
                db.log.archived_bytes(),
                archived_before_crash,
                "the archive is durable: its byte telemetry must ride through a crash"
            );
            db.repair_after_crash();
            check_index_discipline(&db.log)?;
            // The crash disarmed the injector, so the restarted
            // machine's truncation must land cleanly too.
            let (first, stable) = (db.log.first_stable(), db.log.stable_lsn());
            if stable >= first {
                let mid = Lsn(first.0 + (stable.0 - first.0) / 2);
                db.log.archive_prefix(mid).expect("post-repair truncation");
                check_index_discipline(&db.log)?;
            }
            // Full compaction up to the completed-drain boundary. A
            // drain the armed fault interrupted leaves some shards
            // drained past `first_stable`, and compaction must keep
            // their archived frames at or above it — but on a run whose
            // fault never fired, the archive must empty exactly.
            let before = db.log.archived_bytes();
            let reclaimed = db.log.compact_archive(db.log.first_stable());
            prop_assert_eq!(
                db.log.archived_bytes(),
                before - reclaimed,
                "full compaction reclaimed {} but telemetry moved from {}",
                reclaimed,
                before
            );
            prop_assert!(
                db.log.archived_bytes() == 0 || tripped,
                "no drain was ever interrupted, yet {} archived bytes survived full compaction",
                db.log.archived_bytes()
            );
            prop_assert_eq!(
                db.log.compact_archive(db.log.first_stable()),
                0,
                "full compaction must be a fixed point"
            );
            check_index_discipline(&db.log)?;
            per_backend.push(live_whole(&db.log, Lsn::ZERO));
        }
        // `per_backend` is [mem × 1, mem × 4, file × 1, file × 4].
        for shards in 0..2 {
            prop_assert_eq!(
                &per_backend[shards], &per_backend[shards + 2],
                "backends keep different records through the same truncate/repair schedule"
            );
        }
    }
}
