//! Physical recovery (§6.2).
//!
//! "Early recovery techniques frequently exploited physical recovery,
//! logging the exact bytes of data and the exact locations written by the
//! logged operations. Physical operations do not read data, they only
//! write." Log records here carry `(cell, value)` after-images; replay is
//! a blind, idempotent overwrite.
//!
//! Because the logged operations never read, the installation graph has
//! only write-write edges (one chain per cell); any cache flush order is
//! legal under the WAL rule, and while an operation sits in the redo set,
//! the cells it wrote are *unexposed* — which is why the checkpoint can
//! simply flush the cache (setting the stable values to whatever the
//! cache holds) and then atomically shift every logged operation out of
//! the redo set by writing the checkpoint record.

use std::collections::{BTreeMap, BTreeSet};

use redo_sim::db::Db;
use redo_sim::page::PageMut;
use redo_sim::wal::{codec, LogPayload, RecordBody};
use redo_sim::SimResult;
use redo_theory::log::Lsn;
use redo_workload::pages::{Cell, PageId, PageOp, SlotId};

use crate::redo::{self, Checkpoint, CheckpointView, PageLocal};
use crate::{RecoveryMethod, RecoveryStats};

/// Log payload for physical recovery: blind after-images or a checkpoint
/// record.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PhysPayload {
    /// The exact cells and values an operation wrote.
    Writes {
        /// The workload operation id (for auditing; replay ignores it).
        op_id: u32,
        /// After-images in write order.
        writes: Vec<(Cell, u64)>,
    },
    /// A checkpoint. Blind replay makes re-applying installed records
    /// harmless, so recovery may simply scan from its redo-start; its
    /// table additionally lets every executor drop the per-page parts it
    /// proves installed before a page is touched.
    Checkpoint(Checkpoint),
}

impl LogPayload for PhysPayload {
    fn encode(&self, buf: &mut Vec<u8>) -> SimResult<()> {
        match self {
            PhysPayload::Writes { op_id, writes } => {
                codec::put_u8(buf, 0);
                codec::put_u32(buf, *op_id);
                codec::put_u16(buf, codec::count_u16("after-image count", writes.len())?);
                for &(c, v) in writes {
                    codec::put_cell(buf, c);
                    codec::put_u64(buf, v);
                }
            }
            PhysPayload::Checkpoint(checkpoint) => checkpoint.encode(buf)?,
        }
        Ok(())
    }

    fn decode(input: &[u8], pos: &mut usize) -> SimResult<Self> {
        match codec::get_u8(input, pos)? {
            0 => {
                let op_id = codec::get_u32(input, pos)?;
                let n = codec::get_u16(input, pos)? as usize;
                let mut writes = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    let c = codec::get_cell(input, pos)?;
                    let v = codec::get_u64(input, pos)?;
                    writes.push((c, v));
                }
                Ok(PhysPayload::Writes { op_id, writes })
            }
            kind => Checkpoint::decode(kind, input, pos).map(PhysPayload::Checkpoint),
        }
    }

    fn write_pages(&self) -> Vec<PageId> {
        match self {
            PhysPayload::Writes { writes, .. } => {
                let pages: BTreeSet<PageId> = writes.iter().map(|&(c, _)| c.page).collect();
                pages.into_iter().collect()
            }
            PhysPayload::Checkpoint(_) => Vec::new(),
        }
    }
}

impl CheckpointView for PhysPayload {
    fn as_checkpoint(&self) -> Option<&Checkpoint> {
        match self {
            PhysPayload::Writes { .. } => None,
            PhysPayload::Checkpoint(checkpoint) => Some(checkpoint),
        }
    }

    fn from_checkpoint(checkpoint: Checkpoint) -> Self {
        PhysPayload::Checkpoint(checkpoint)
    }
}

impl PageLocal for PhysPayload {
    /// One page's after-images, in write order, decoded owned.
    type Part<'a> = Vec<(SlotId, u64)>;

    fn parts(
        body: RecordBody<'_>,
        slots_per_page: u16,
    ) -> SimResult<(u32, impl Iterator<Item = (PageId, Self::Part<'_>)>)> {
        let PhysPayload::Writes { op_id, writes } = body.parse(PhysPayload::decode)? else {
            return Err(redo::NOT_AN_OPERATION);
        };
        let mut per_page: BTreeMap<PageId, Self::Part<'_>> = BTreeMap::new();
        for (cell, v) in writes {
            redo::check_slot(cell.slot, slots_per_page)?;
            per_page.entry(cell.page).or_default().push((cell.slot, v));
        }
        Ok((op_id, per_page.into_iter()))
    }

    /// The §6.2 redo step: the test is "always" — after-images are
    /// blind and idempotent — and the apply overwrites.
    fn redo(page: &mut PageMut<'_>, lsn: Lsn, cells: &Self::Part<'_>) -> bool {
        for &(slot, v) in cells {
            page.set(slot, v);
        }
        page.set_lsn(lsn);
        true
    }
}

/// The physical recovery method.
#[derive(Clone, Copy, Debug, Default)]
pub struct Physical;

impl RecoveryMethod for Physical {
    type Payload = PhysPayload;

    fn name(&self) -> &'static str {
        "physical"
    }

    fn execute(&self, db: &mut Db<PhysPayload>, op: &PageOp) -> SimResult<Lsn> {
        // Compute the after-images by reading the cache (the *logged*
        // record is blind; the computation that produced it is not our
        // concern, exactly as in real systems).
        let mut read_values = Vec::with_capacity(op.reads.len());
        for &cell in &op.reads {
            read_values.push(db.read_cell(cell)?);
        }
        let writes: Vec<(Cell, u64)> = op
            .writes
            .iter()
            .map(|&c| (c, op.output(c, &read_values)))
            .collect();
        let lsn = db.log.append(PhysPayload::Writes {
            op_id: op.id,
            writes: writes.clone(),
        })?;
        for (cell, v) in writes {
            // Fetch through the steal path: under the fuzzy-checkpoint
            // discipline nothing else cleans the pool, so a bounded
            // pool full of WAL-blocked dirty frames must force the log
            // to evict, not error out.
            db.fetch_with_steal(cell.page)?;
            db.pool.update(cell.page, lsn, |p| p.set(cell.slot, v))?;
        }
        Ok(lsn)
    }

    fn checkpoint(&self, db: &mut Db<PhysPayload>) -> SimResult<()> {
        // §6.2: set the stable values to those in the cache (which
        // include every pending operation's effects), then write the
        // checkpoint record — atomically installing the lot.
        redo::checkpoint_heavyweight(db)
    }

    fn recover(&self, db: &mut Db<PhysPayload>) -> SimResult<RecoveryStats> {
        redo::recover_local(db, PhysPayload::redo)
    }

    fn parallel_restart(
        &self,
        db: &mut Db<PhysPayload>,
        threads: usize,
    ) -> Option<SimResult<RecoveryStats>> {
        Some(crate::parallel::recover_partitioned(db, threads))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redo_sim::db::Geometry;
    use redo_workload::pages::{PageId, PageWorkloadSpec, SlotId};

    fn db() -> Db<PhysPayload> {
        Db::new(Geometry::default())
    }

    #[test]
    fn payload_roundtrip() {
        let p = PhysPayload::Writes {
            op_id: 3,
            writes: vec![(
                Cell {
                    page: PageId(1),
                    slot: SlotId(2),
                },
                99,
            )],
        };
        let mut buf = Vec::new();
        p.encode(&mut buf).unwrap();
        let mut pos = 0;
        assert_eq!(PhysPayload::decode(&buf, &mut pos).unwrap(), p);
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn fuzzy_checkpoint_publishes_without_flushing() {
        let mut db = db();
        let ops = PageWorkloadSpec {
            blind_fraction: 1.0,
            n_ops: 12,
            ..Default::default()
        }
        .generate(9);
        for op in &ops {
            Physical.execute(&mut db, op).unwrap();
        }
        let dirty_before = db.pool.dirty_pages();
        assert!(!dirty_before.is_empty());
        let ck = redo::checkpoint_fuzzy(&mut db, 0)
            .unwrap()
            .expect("no faults armed: publication must land");
        assert_eq!(
            db.pool.dirty_pages(),
            dirty_before,
            "fuzzy: nothing flushed"
        );
        assert_eq!(db.disk.master(), ck);
        let analysis = redo::analyze(&db).unwrap();
        assert_eq!(analysis.checkpoint_lsn, Some(ck));
        assert!(analysis.dirty.is_some());
        db.crash();
        let stats = Physical.recover(&mut db).unwrap();
        assert_eq!(stats.checkpoint_lsn, Some(ck));
        let mut expect = std::collections::BTreeMap::new();
        for op in &ops {
            for &c in &op.writes {
                expect.insert(c, op.output(c, &[]));
            }
        }
        for (c, v) in expect {
            assert_eq!(db.read_cell(c).unwrap(), v);
        }
    }

    #[test]
    fn crash_without_any_flush_recovers_nothing() {
        let mut db = db();
        let ops = PageWorkloadSpec {
            blind_fraction: 1.0,
            n_ops: 5,
            ..Default::default()
        }
        .generate(1);
        for op in &ops {
            Physical.execute(&mut db, op).unwrap();
        }
        db.crash();
        let stats = Physical.recover(&mut db).unwrap();
        assert_eq!(stats.replay_count(), 0);
        assert_eq!(
            db.volatile_theory_state(),
            redo_theory::state::State::zeroed()
        );
    }

    #[test]
    fn checkpoint_truncates_recovery_scan() {
        let mut db = db();
        let ops = PageWorkloadSpec {
            blind_fraction: 1.0,
            n_ops: 10,
            ..Default::default()
        }
        .generate(3);
        for op in &ops[..6] {
            Physical.execute(&mut db, op).unwrap();
        }
        Physical.checkpoint(&mut db).unwrap();
        for op in &ops[6..] {
            Physical.execute(&mut db, op).unwrap();
        }
        db.log.flush_all();
        db.crash();
        let stats = Physical.recover(&mut db).unwrap();
        assert_eq!(
            stats.replay_count(),
            4,
            "only post-checkpoint records replay"
        );
        // And the state is complete nevertheless.
        for op in &ops {
            for &c in &op.writes {
                assert_ne!(db.read_cell(c).unwrap(), 0);
            }
        }
    }

    #[test]
    fn replay_is_idempotent() {
        let mut db = db();
        let ops = PageWorkloadSpec {
            blind_fraction: 1.0,
            n_ops: 6,
            ..Default::default()
        }
        .generate(4);
        for op in &ops {
            Physical.execute(&mut db, op).unwrap();
        }
        db.log.flush_all();
        // Flush some pages so replay partially overlaps installed state.
        let stable = db.log.stable_lsn();
        db.pool.flush_all(&mut db.disk, stable).unwrap();
        db.crash();
        Physical.recover(&mut db).unwrap();
        let once = db.volatile_theory_state();
        db.crash();
        Physical.recover(&mut db).unwrap();
        assert_eq!(db.volatile_theory_state(), once);
    }
}
