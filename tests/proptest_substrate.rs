//! Property-based tests of the storage substrate and the recovery
//! methods: codec roundtrips, WAL-rule preservation under arbitrary
//! flush interleavings, and method correctness on generated workloads.

use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use redo_recovery::btree::{BTree, SplitStrategy};
use redo_recovery::methods::generalized::Generalized;
use redo_recovery::methods::harness::{run, HarnessConfig};
use redo_recovery::methods::logical::Logical;
use redo_recovery::methods::ondemand::OnDemand;
use redo_recovery::methods::online::GeneralizedOnline;
use redo_recovery::methods::oprecord::PageOpPayload;
use redo_recovery::methods::parallel::{ParallelOnline, ParallelPhysical, ParallelPhysiological};
use redo_recovery::methods::physical::Physical;
use redo_recovery::methods::physiological::Physiological;
use redo_recovery::methods::redo;
use redo_recovery::methods::RecoveryMethod;
use redo_recovery::sim::backend::BackendKind;
use redo_recovery::sim::db::{Db, Geometry};
use redo_recovery::sim::wal::{codec, LogPayload, ShardedLog};
use redo_recovery::sim::SimResult;
use redo_recovery::theory::log::Lsn;
use redo_recovery::workload::pages::{Cell, PageId, PageOp, PageOpKind, PageWorkloadSpec, SlotId};
use std::collections::BTreeMap;

#[derive(Clone, Debug, PartialEq)]
struct Blob(Vec<u8>);

impl LogPayload for Blob {
    fn encode(&self, buf: &mut Vec<u8>) -> SimResult<()> {
        codec::put_u32(buf, self.0.len() as u32);
        buf.extend_from_slice(&self.0);
        Ok(())
    }
    fn decode(input: &[u8], pos: &mut usize) -> SimResult<Self> {
        let n = codec::get_u32(input, pos)? as usize;
        let end = pos
            .checked_add(n)
            .filter(|&e| e <= input.len())
            .ok_or(redo_recovery::sim::SimError::Corrupt(*pos))?;
        let out = input[*pos..end].to_vec();
        *pos = end;
        Ok(Blob(out))
    }
}

fn arb_page_op(n_pages: u32, spp: u16) -> impl Strategy<Value = PageOp> {
    (
        0..n_pages,
        0..n_pages,
        0..spp,
        0..spp,
        0..3u8,
        any::<u64>(),
        any::<u32>(),
    )
        .prop_map(move |(wp, rp, ws, rs, kind, f_seed, id)| {
            let write = Cell {
                page: PageId(wp),
                slot: SlotId(ws),
            };
            let (kind, reads) = match kind {
                0 => (PageOpKind::Blind, vec![]),
                1 => (
                    PageOpKind::Physiological,
                    vec![Cell {
                        page: PageId(wp),
                        slot: SlotId(rs),
                    }],
                ),
                _ => (
                    PageOpKind::Generalized,
                    vec![Cell {
                        page: PageId(rp),
                        slot: SlotId(rs),
                    }],
                ),
            };
            PageOp {
                id,
                kind,
                reads,
                writes: vec![write],
                f_seed,
            }
        })
}

/// Runs `method` over `ops` twice — classic single WAL vs four
/// per-partition log shards — and demands identical semantic outcomes.
/// The harness itself verifies exact state equality against the durable
/// prefix at every crash in *both* runs; this comparison adds that the
/// two runs crashed at the same points and replayed, skipped, kept, and
/// lost the same operations. Decode telemetry (bytes scanned, records
/// decoded, seek hits) legitimately differs: sharded scans see marker
/// frames and broadcast copies.
fn assert_shard_count_invariant<M: RecoveryMethod>(
    method: &M,
    ops: &[PageOp],
    base: &HarnessConfig,
) -> Result<(), TestCaseError> {
    let single = run(
        method,
        ops,
        &HarnessConfig {
            log_shards: 1,
            ..base.clone()
        },
    )
    .map_err(|e| TestCaseError::fail(format!("{} single-log: {e}", method.name())))?;
    let sharded = run(
        method,
        ops,
        &HarnessConfig {
            log_shards: 4,
            ..base.clone()
        },
    )
    .map_err(|e| TestCaseError::fail(format!("{} sharded-log: {e}", method.name())))?;
    let name = method.name();
    prop_assert_eq!(single.crashes, sharded.crashes, "{}: crashes", name);
    prop_assert_eq!(
        single.total_replayed,
        sharded.total_replayed,
        "{}: replayed",
        name
    );
    prop_assert_eq!(
        single.total_skipped,
        sharded.total_skipped,
        "{}: skipped",
        name
    );
    prop_assert_eq!(single.survivors, sharded.survivors, "{}: survivors", name);
    prop_assert_eq!(single.lost, sharded.lost, "{}: lost", name);
    prop_assert_eq!(single.log_bytes, sharded.log_bytes, "{}: log bytes", name);
    Ok(())
}

/// Replays an operation sequence from genesis, producing the final cell
/// values — the reference model for point-in-time recovery.
fn replay_cells(ops: &[PageOp]) -> BTreeMap<Cell, u64> {
    let mut cells = BTreeMap::new();
    for op in ops {
        let reads: Vec<u64> = op
            .reads
            .iter()
            .map(|c| cells.get(c).copied().unwrap_or(0))
            .collect();
        for &w in &op.writes {
            cells.insert(w, op.output(w, &reads));
        }
    }
    cells
}

/// The sharded-vs-single equivalence against the fsync-backed file
/// backend: fewer seeds (every run pays real I/O), same invariant.
#[test]
fn sharded_log_recovery_matches_single_log_on_files() {
    for seed in 0..3u64 {
        let cfg = HarnessConfig {
            backend: BackendKind::File,
            audit: false,
            seed,
            ..Default::default()
        };
        let physio = PageWorkloadSpec {
            n_ops: 40,
            n_pages: 5,
            ..Default::default()
        }
        .generate(seed);
        let cross = PageWorkloadSpec {
            n_ops: 40,
            n_pages: 5,
            cross_page_fraction: 0.4,
            multi_page_fraction: 0.2,
            blind_fraction: 0.1,
            ..Default::default()
        }
        .generate(seed);
        assert_shard_count_invariant(&Physiological, &physio, &cfg).unwrap();
        assert_shard_count_invariant(&GeneralizedOnline, &cross, &cfg).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary byte payloads survive the stable-log encode/decode
    /// cycle across arbitrary flush points and crashes.
    #[test]
    fn log_roundtrip_with_flushes_and_crashes(
        blobs in vec(vec(any::<u8>(), 0..40), 1..20),
        flush_at in vec(any::<bool>(), 1..20),
    ) {
        let mut log: ShardedLog<Blob> = ShardedLog::new(1);
        let mut durable: Vec<Blob> = Vec::new();
        let mut pending: Vec<Blob> = Vec::new();
        for (i, bytes) in blobs.iter().enumerate() {
            let blob = Blob(bytes.clone());
            log.append(blob.clone()).unwrap();
            pending.push(blob);
            if flush_at.get(i).copied().unwrap_or(false) {
                log.flush_all();
                durable.append(&mut pending);
            }
        }
        log.crash();
        let stable = log.pit_records(log.stable_lsn()).unwrap();
        let decoded: Vec<Blob> = stable.into_iter().map(|r| r.payload).collect();
        prop_assert_eq!(decoded, durable);
    }

    /// PageOp codec roundtrips arbitrary operations.
    #[test]
    fn page_op_codec_roundtrip(op in arb_page_op(8, 8)) {
        let mut buf = Vec::new();
        codec::put_page_op(&mut buf, &op).unwrap();
        let mut pos = 0;
        prop_assert_eq!(codec::get_page_op(&buf, &mut pos).unwrap(), op);
        prop_assert_eq!(pos, buf.len());
    }

    /// Truncating an encoded PageOp anywhere yields Corrupt, never a
    /// panic or a bogus success.
    #[test]
    fn truncated_page_op_is_corrupt(op in arb_page_op(8, 8), cut in any::<prop::sample::Index>()) {
        let mut buf = Vec::new();
        codec::put_page_op(&mut buf, &op).unwrap();
        let cut = cut.index(buf.len()); // 0..len-1: strictly truncated
        let mut pos = 0;
        let r = codec::get_page_op(&buf[..cut], &mut pos);
        prop_assert!(r.is_err(), "decoded {:?} from a truncated buffer", r);
    }

    /// The WAL rule is a substrate invariant: no matter how chaotically
    /// we flush, no disk page ever carries an LSN beyond the stable log.
    #[test]
    fn wal_rule_is_unbreakable(
        ops in vec(arb_page_op(4, 8), 1..25),
        chaos in vec((any::<bool>(), 0..4u32), 1..25),
    ) {
        let mut db: Db<Blob> = Db::new(Geometry { slots_per_page: 8 });
        for (i, op) in ops.iter().enumerate() {
            let lsn = db.log.append(Blob(vec![0u8; 4])).unwrap();
            db.apply_page_op(op, lsn).unwrap();
            if let Some(&(flush_log, page)) = chaos.get(i) {
                if flush_log {
                    db.log.flush_all();
                }
                let stable = db.log.stable_lsn();
                let _ = db.pool.flush_page(&mut db.disk, PageId(page), stable);
            }
            for (id, p) in db.disk.pages() {
                prop_assert!(
                    p.lsn() <= db.log.stable_lsn(),
                    "page {:?} at {:?} > stable {:?}", id, p.lsn(), db.log.stable_lsn()
                );
            }
        }
    }

    /// Every method recovers the durable prefix under harness-driven
    /// chaos, for arbitrary seeds and crash cadences.
    #[test]
    fn methods_recover_under_chaos(
        seed in any::<u64>(),
        crash_every in 5..25usize,
        ckpt_every in prop::option::of(3..15usize),
    ) {
        let cfg = HarnessConfig {
            checkpoint_every: ckpt_every,
            crash_every: Some(crash_every),
            chaos: Some((0.7, 0.3)),
            seed,
            audit: false, // keep proptest runs fast; audited suites run elsewhere
            slots_per_page: 8,
            pool_capacity: None,
            fault: None,
            backend: BackendKind::Mem,
            log_shards: 1,
        };
        let blind = PageWorkloadSpec { n_ops: 40, n_pages: 5, blind_fraction: 1.0, ..Default::default() }
            .generate(seed);
        let physio = PageWorkloadSpec { n_ops: 40, n_pages: 5, ..Default::default() }.generate(seed);
        let cross = PageWorkloadSpec {
            n_ops: 40, n_pages: 5, cross_page_fraction: 0.4, multi_page_fraction: 0.2,
            blind_fraction: 0.1, ..Default::default()
        }.generate(seed);
        run(&Physical, &blind, &cfg).map_err(|e| TestCaseError::fail(e.to_string()))?;
        run(&Physiological, &physio, &cfg).map_err(|e| TestCaseError::fail(e.to_string()))?;
        run(&Generalized, &cross, &cfg).map_err(|e| TestCaseError::fail(e.to_string()))?;
        run(&Logical, &cross, &cfg).map_err(|e| TestCaseError::fail(e.to_string()))?;
    }

    /// Splitting the WAL into per-partition logs must not change what
    /// any crash-audit roster method recovers: the same schedule driven
    /// over one log and over four shards produces the same durable
    /// prefixes and the same replay decisions (satellite of the
    /// sharded-log PR; the crash audit covers the fault-injected side).
    #[test]
    fn sharded_log_recovery_is_state_identical_to_single_log(
        seed in any::<u64>(),
        crash_every in 5..25usize,
        ckpt_every in prop::option::of(3..15usize),
    ) {
        let cfg = HarnessConfig {
            checkpoint_every: ckpt_every,
            crash_every: Some(crash_every),
            chaos: Some((0.7, 0.3)),
            seed,
            audit: false, // both runs still verify state at every crash
            slots_per_page: 8,
            pool_capacity: None,
            fault: None,
            backend: BackendKind::Mem,
            log_shards: 1,
        };
        let blind = PageWorkloadSpec { n_ops: 40, n_pages: 5, blind_fraction: 1.0, ..Default::default() }
            .generate(seed);
        let physio = PageWorkloadSpec { n_ops: 40, n_pages: 5, ..Default::default() }.generate(seed);
        let cross = PageWorkloadSpec {
            n_ops: 40, n_pages: 5, cross_page_fraction: 0.4, multi_page_fraction: 0.2,
            blind_fraction: 0.1, ..Default::default()
        }.generate(seed);
        assert_shard_count_invariant(&Physical, &blind, &cfg)?;
        assert_shard_count_invariant(&Physiological, &physio, &cfg)?;
        assert_shard_count_invariant(&GeneralizedOnline, &physio, &cfg)?;
        assert_shard_count_invariant(&Logical, &cross, &cfg)?;
        assert_shard_count_invariant(&Generalized, &cross, &cfg)?;
        assert_shard_count_invariant(&GeneralizedOnline, &cross, &cfg)?;
        assert_shard_count_invariant(&OnDemand, &cross, &cfg)?;
        assert_shard_count_invariant(&ParallelPhysiological { threads: 3 }, &physio, &cfg)?;
        assert_shard_count_invariant(&ParallelPhysical { threads: 3 }, &blind, &cfg)?;
        assert_shard_count_invariant(&ParallelOnline { threads: 3 }, &physio, &cfg)?;
    }

    /// Point-in-time replay over `archive ∥ live` at the truncation
    /// boundary reproduces exactly the operations — and therefore the
    /// state — of the pre-truncation prefix the live log no longer
    /// holds.
    #[test]
    fn pit_replay_at_truncation_boundary_matches_pre_truncation_state(
        seed in any::<u64>(),
        n_ops in 24..48usize,
        ckpt_every in 4..10usize,
        log_shards_pow in 0..3u32,
    ) {
        let ops = PageWorkloadSpec {
            n_ops, n_pages: 6, cross_page_fraction: 0.4, multi_page_fraction: 0.2,
            blind_fraction: 0.1, ..Default::default()
        }.generate(seed);
        let mut db: Db<PageOpPayload> = Db::on_sharded(
            BackendKind::Mem,
            Geometry { slots_per_page: 8 },
            None,
            1 << log_shards_pow,
        );
        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5A5);
        let mut committed: Vec<(PageOp, Lsn)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            let lsn = GeneralizedOnline
                .execute(&mut db, op)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            committed.push((op.clone(), lsn));
            db.chaos_flush(&mut rng, 0.8, 0.4)
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            if (i + 1) % ckpt_every == 0 {
                redo::checkpoint_fuzzy(&mut db, 0)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
            }
        }
        db.log.flush_all();
        // The truncation boundary: everything below `first_stable` has
        // left the live log and survives only in the archive tier.
        let upto = Lsn(db.log.first_stable().0.saturating_sub(1));
        let pit: Vec<PageOp> = db
            .log
            .pit_records(upto)
            .map_err(|e| TestCaseError::fail(e.to_string()))?
            .into_iter()
            .filter_map(|r| match r.payload {
                PageOpPayload::Op(op) => Some(op),
                _ => None,
            })
            .collect();
        let expected: Vec<PageOp> = committed
            .iter()
            .filter(|(_, lsn)| *lsn <= upto)
            .map(|(op, _)| op.clone())
            .collect();
        prop_assert_eq!(&pit, &expected, "archive ∥ live must hold the drained prefix record for record");
        prop_assert_eq!(replay_cells(&pit), replay_cells(&expected));
    }

    /// The B+tree agrees with a BTreeMap model under arbitrary
    /// insert/remove/crash sequences.
    #[test]
    fn btree_models_btreemap(
        actions in vec((0..4u8, 0..200u64, any::<u64>()), 1..80),
        strategy_pick in any::<bool>(),
    ) {
        let strategy = if strategy_pick { SplitStrategy::Generalized } else { SplitStrategy::Physiological };
        let mut tree = BTree::new(strategy, 16).unwrap();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for (kind, key, val) in actions {
            match kind {
                0 | 1 => {
                    tree.insert(key, val).unwrap();
                    model.insert(key, val);
                }
                2 => {
                    let in_tree = tree.remove(key).unwrap();
                    prop_assert_eq!(in_tree, model.remove(&key).is_some());
                }
                _ => {
                    tree.db.log.flush_all();
                    tree.crash();
                    tree.recover().unwrap();
                }
            }
            if model.len().is_multiple_of(17) {
                for (&k, &v) in &model {
                    prop_assert_eq!(tree.get(k).unwrap(), Some(v));
                }
            }
        }
        prop_assert_eq!(tree.validate().unwrap(), model.len());
        let all = tree.range(0, u64::MAX).unwrap();
        prop_assert_eq!(all, model.into_iter().collect::<Vec<_>>());
    }
}
