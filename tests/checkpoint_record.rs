//! The one checkpoint record (`redo::Checkpoint`), checked once for every
//! payload that carries it: its codec, and the chain of tables
//! `redo::checkpoint_fuzzy` publishes — `PhysPayload` and `BtPayload`
//! chain deltas through exactly the code `PageOpPayload` does.

use std::collections::BTreeMap;
use std::fmt::Debug;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redo_recovery::btree::BtPayload;
use redo_recovery::methods::oprecord::PageOpPayload;
use redo_recovery::methods::physical::PhysPayload;
use redo_recovery::methods::redo::{self, Checkpoint, CheckpointView, DirtyTable};
use redo_recovery::sim::db::{Db, Geometry};
use redo_recovery::sim::SimError;
use redo_recovery::theory::log::Lsn;
use redo_recovery::workload::pages::{Cell, PageId, PageOp, PageOpKind, SlotId};

fn full(entries: &[(u32, u64)]) -> DirtyTable {
    DirtyTable::Full(entries.iter().map(|&(p, l)| (PageId(p), Lsn(l))).collect())
}

fn delta(added: &[(u32, u64)], removed: &[u32]) -> DirtyTable {
    DirtyTable::Delta {
        prev: Lsn(11),
        base: Lsn(4),
        added: added.iter().map(|&(p, l)| (PageId(p), Lsn(l))).collect(),
        removed: removed.iter().map(|&p| PageId(p)).collect(),
    }
}

fn encoded<P: CheckpointView>(checkpoint: Checkpoint) -> Result<Vec<u8>, SimError> {
    let mut buf = Vec::new();
    P::from_checkpoint(checkpoint).encode(&mut buf)?;
    Ok(buf)
}

/// Every record shape round-trips through `P`, every proper prefix of
/// every encoding is `Corrupt`, an unknown kind byte is `Corrupt`, and a
/// list past its 16-bit count is `FieldOverflow`.
fn codec_holds_through<P: CheckpointView + PartialEq + Debug>() {
    let tables = [
        full(&[]),
        full(&[(3, 7)]),
        full(&[(0, 1), (9, 40), (12, 2)]),
        delta(&[], &[]),
        delta(&[(3, 7)], &[1]),
        delta(&[(0, 12), (9, 40)], &[2, 5, 8]),
    ];
    let fuzzy = tables.into_iter().map(|table| Checkpoint {
        redo_start: Lsn(5),
        table,
    });
    // What a heavyweight checkpoint at LSN 9 logs.
    let heavyweight = Checkpoint {
        redo_start: Lsn(10),
        table: full(&[]),
    };
    for checkpoint in fuzzy.chain([heavyweight]) {
        let payload = P::from_checkpoint(checkpoint.clone());
        assert_eq!(payload.as_checkpoint(), Some(&checkpoint));
        assert!(
            payload.write_pages().is_empty(),
            "a checkpoint writes no page"
        );
        let buf = encoded::<P>(checkpoint.clone()).unwrap();
        let mut pos = 0;
        assert_eq!(P::decode(&buf, &mut pos).unwrap(), payload);
        assert_eq!(pos, buf.len(), "{checkpoint:?} decoded short");
        for cut in 0..buf.len() {
            let short = P::decode(&buf[..cut], &mut 0);
            assert!(
                matches!(short, Err(SimError::Corrupt(_))),
                "{checkpoint:?} cut at {cut} must not parse: {short:?}"
            );
        }
        let mut unknown = buf;
        unknown[0] ^= 0x02;
        let bad = P::decode(&unknown, &mut 0);
        assert!(matches!(bad, Err(SimError::Corrupt(0))), "{bad:?}");
    }
    let big: Vec<(u32, u64)> = (0..=u32::from(u16::MAX)).map(|p| (p, 1)).collect();
    let pages: Vec<u32> = big.iter().map(|&(p, _)| p).collect();
    for table in [full(&big), delta(&big, &[]), delta(&[], &pages)] {
        let overflow = encoded::<P>(Checkpoint {
            redo_start: Lsn(1),
            table,
        });
        assert!(
            matches!(overflow, Err(SimError::FieldOverflow { value: 65_536, .. })),
            "{overflow:?}"
        );
    }
}

#[test]
fn the_checkpoint_codec_is_one_codec_through_every_payload() {
    codec_holds_through::<PageOpPayload>();
    codec_holds_through::<PhysPayload>();
    codec_holds_through::<BtPayload>();
    // One encoder: the bytes do not depend on the payload carrying them.
    let record = Checkpoint {
        redo_start: Lsn(5),
        table: delta(&[(3, 7)], &[1]),
    };
    let bytes = encoded::<PageOpPayload>(record.clone()).unwrap();
    assert_eq!(encoded::<PhysPayload>(record.clone()).unwrap(), bytes);
    assert_eq!(encoded::<BtPayload>(record).unwrap(), bytes);
}

const PAGES: u32 = 6;

/// The chain links from the master back to its base, newest first.
fn chain_links<P: CheckpointView>(db: &Db<P>) -> Vec<Lsn> {
    let mut links = vec![db.disk.master()];
    loop {
        let at = *links.last().unwrap();
        let rec = db.log.record_at_lsn(at).unwrap().expect("a chain link");
        match &rec.payload.as_checkpoint().expect("a checkpoint").table {
            DirtyTable::Delta { prev, .. } => links.push(*prev),
            DirtyTable::Full(_) => return links,
        }
    }
}

/// `db`'s whole log re-appended into a fresh database, with the record
/// at `link` replaced by `junk` (an operation record: the link is torn),
/// and the master where `db`'s is.
fn with_link_torn<P: CheckpointView>(db: &Db<P>, link: Lsn, junk: P) -> Db<P> {
    let mut twin = Db::new(db.geometry);
    for rec in db.log.pit_records(db.log.stable_lsn()).unwrap() {
        let payload = if rec.lsn == link {
            junk.clone()
        } else {
            rec.payload
        };
        assert_eq!(twin.log.append(payload).unwrap(), rec.lsn);
    }
    twin.log.flush_all();
    twin.disk.set_master(db.disk.master()).unwrap();
    twin
}

/// Random dirty / clean / re-dirty rounds, each closed by
/// `redo::checkpoint_fuzzy(db, full_every)`. After every publication the
/// analysis reads back exactly the pool's table and its minimum recLSN;
/// a second, quiescent call publishes nothing; and with any one link of
/// the standing chain torn the analysis only widens.
fn chain_holds_through<P: CheckpointView>(write: impl Fn(PageId, u64) -> P, full_every: u64) {
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ full_every << 8);
        let mut db: Db<P> = Db::new(Geometry::default());
        let mut deltas = 0;
        for round in 0..14u64 {
            for step in 0..rng.gen_range(1..5u64) {
                let page = PageId(rng.gen_range(0..PAGES));
                // Always dirty something first: a round that logs
                // nothing is the quiescent case, checked below.
                if step > 0 && rng.gen_bool(0.4) {
                    db.log.flush_all();
                    let stable = db.log.stable_lsn();
                    if db.pool.dirty_pages().contains(&page) {
                        db.pool.flush_page(&mut db.disk, page, stable).unwrap();
                    }
                    continue;
                }
                let value = round * 100 + step + 1;
                let lsn = db.log.append(write(page, value)).unwrap();
                db.fetch_with_steal(page).unwrap();
                db.pool
                    .update(page, lsn, |p| p.set(SlotId(0), value))
                    .unwrap();
            }
            let at = format!("seed {seed} full_every {full_every} round {round}");
            let ck = redo::checkpoint_fuzzy(&mut db, full_every)
                .unwrap()
                .expect("no faults armed: publication must land");
            assert_eq!(db.disk.master(), ck, "{at}");
            let pool: BTreeMap<PageId, Lsn> = db.pool.dirty_page_table().into_iter().collect();
            let healthy = redo::analyze(&db).unwrap();
            assert_eq!(healthy.checkpoint_lsn, Some(ck), "{at}");
            assert_eq!(healthy.dirty.as_ref(), Some(&pool), "{at}");
            let oldest = pool.values().copied().min();
            assert_eq!(healthy.redo_start, oldest.unwrap_or(ck), "{at}");

            let links = chain_links(&db);
            assert!((links.len() as u64) <= full_every.max(1), "{at}: {links:?}");
            deltas += usize::from(links.len() > 1);

            let again = redo::checkpoint_fuzzy(&mut db, full_every).unwrap();
            assert_eq!(again, Some(ck), "{at}: a quiescent call returns the head");
            assert_eq!(db.log.last_lsn(), ck, "{at}: and appends nothing");

            for &link in &links {
                let twin = with_link_torn(&db, link, write(PageId(0), 0));
                let torn = redo::analyze(&twin).unwrap();
                assert!(torn.redo_start <= healthy.redo_start, "{at} link {link:?}");
                for page in (0..PAGES).map(PageId) {
                    for lsn in (1..=ck.0).map(Lsn) {
                        assert!(
                            !torn.provably_installed(page, lsn)
                                || healthy.provably_installed(page, lsn),
                            "{at} link {link:?}: torn analysis proves {page:?}@{lsn:?} installed"
                        );
                    }
                }
            }
        }
        assert_eq!(
            deltas > 0,
            full_every >= 2,
            "seed {seed} full_every {full_every}"
        );
    }
}

#[test]
fn every_payload_chains_fuzzy_checkpoints_the_same_way() {
    for full_every in [0, 2, 4] {
        chain_holds_through(
            |page, v| {
                PageOpPayload::Op(PageOp {
                    id: v as u32,
                    kind: PageOpKind::Blind,
                    reads: vec![],
                    writes: vec![Cell {
                        page,
                        slot: SlotId(0),
                    }],
                    f_seed: v,
                })
            },
            full_every,
        );
        chain_holds_through(
            |page, v| PhysPayload::Writes {
                op_id: v as u32,
                writes: vec![(
                    Cell {
                        page,
                        slot: SlotId(0),
                    },
                    v,
                )],
            },
            full_every,
        );
        chain_holds_through(
            |page, v| BtPayload::Insert {
                page,
                key: v,
                value: v,
            },
            full_every,
        );
    }
}
