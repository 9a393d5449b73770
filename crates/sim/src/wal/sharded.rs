//! `ShardedLog`: N per-partition logs behind a global-LSN sequencer.
//!
//! Partition = page id routed with the *same* power-of-two mask as
//! [`ShardedStore`](crate::shard::ShardedStore), so the log shard that
//! holds a page's records is the store shard that holds the page — the
//! property that lets restart feed each store partition from its own
//! log scan with no cross-shard traffic. Each shard is an untyped
//! byte log (`LogManager`: own backend, append buffer, group-commit
//! fsync, seek index, per-page chains); with several it runs in
//! *sparse* mode: the sequencer assigns globally dense LSNs and each
//! shard stores a monotone subset of them. One shard is the single log:
//! it holds the whole dense run and keeps the dense-run drain guards.
//!
//! ## Routing
//!
//! A record lands on the shard of every page it writes (a multi-page
//! record spanning shards is *broadcast* to each, under one LSN — scans
//! deduplicate by LSN). A record that writes no pages (checkpoint
//! markers) broadcasts to every shard, so any single shard's scan still
//! observes the checkpoint sequence.
//!
//! ## Cross-shard atomic flush groups
//!
//! A force whose covered records span several shards must be atomic:
//! recovery must see either every covered record or none, or the global
//! dense-LSN invariant breaks. Each participating shard's batch is
//! bracketed by `Open`/`Close` marker frames carrying a group epoch and
//! the participant roster (the ordering protocol PR 5's store-side
//! closure groups defined, applied to the log). The `Close` only lands
//! if every frame before it in the shard's batch landed, so crash
//! analysis has a purely durable criterion: *an epoch is applied iff
//! every rostered participant's image contains its `Close`*. Incomplete
//! epochs are rolled back to their `Open` offset per shard. A force
//! covering a single shard writes no markers and keeps the single-log
//! partial-prefix tear semantics bit for bit — `--log-shards 1` is the
//! PR 6 log, observably.
//!
//! ## Archive tier and point-in-time replay
//!
//! [`ShardedLog::archive_prefix`] drains the live prefix with the
//! bytes *moved* (per shard, frame-exact) into an append-only archive
//! tier instead of destroyed. Because the
//! archive preserves every frame since LSN 1,
//! [`ShardedLog::history`] yields the exact record sequence `1..=upto`
//! from `archive ∥ live`, each record's body borrowed from the tier
//! bytes that hold it — replaying it from genesis state reproduces the
//! state as of `upto`, even after the live log has been truncated past
//! it (media recovery and the crash auditor's `archive` leg;
//! [`ShardedLog::pit_records`] is the same sequence decoded).

use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;

use redo_theory::log::Lsn;
use redo_workload::pages::PageId;

use crate::backend::BackendKind;
use crate::error::{SimError, SimResult};
use crate::fault::{FaultDecision, FaultInjector};

use super::archive::ArchiveTier;
use super::framing::{end_of_frames_below, read_frame, skip_frames_below, Frame, ScanStats};
use super::{codec, EncodedRecord, LogManager, LogPayload, WalRecord};

/// The byte a shard frame's body opens with: a routed (possibly
/// broadcast) record's payload follows, or the epoch and roster of a
/// cross-shard flush group's `Open` or `Close` marker.
const REC: u8 = 0;
const OPEN: u8 = 1;
const CLOSE: u8 = 2;

fn put_marker(buf: &mut Vec<u8>, epoch: u64, participants: &[u16]) -> SimResult<()> {
    codec::put_u64(buf, epoch);
    codec::put_u16(
        buf,
        codec::count_u16("flush-group participant count", participants.len())?,
    );
    for &p in participants {
        codec::put_u16(buf, p);
    }
    Ok(())
}

fn get_marker(input: &[u8], pos: &mut usize) -> SimResult<(u64, Vec<u16>)> {
    let epoch = codec::get_u64(input, pos)?;
    let n = codec::get_u16(input, pos)? as usize;
    let mut participants = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        participants.push(codec::get_u16(input, pos)?);
    }
    Ok((epoch, participants))
}

/// The flush-group markers of one tier's whole, checksum-valid frames
/// (a torn fragment ends them): each one's offset, kind, epoch and
/// roster — a crash's evidence of which groups closed.
fn markers(bytes: &[u8]) -> impl Iterator<Item = (usize, u8, u64, Vec<u16>)> + '_ {
    let mut pos = 0;
    std::iter::from_fn(move || loop {
        let frame = read_frame(bytes, pos, 0).ok()?;
        let (at, mut body) = (pos, frame.body);
        pos = frame.end;
        let tag = codec::get_u8(bytes, &mut body).ok()?;
        if tag == OPEN || tag == CLOSE {
            let (epoch, participants) = get_marker(&bytes[..frame.end], &mut body).ok()?;
            return Some((at, tag, epoch, participants));
        }
    })
}

/// N per-partition logs behind one sequencer — the log of a
/// [`Db`](crate::db::Db); `ShardedLog::new(1)` is the single log.
#[derive(Clone, Debug)]
pub struct ShardedLog<P> {
    pub(super) shards: Vec<LogManager>,
    archive: ArchiveTier,
    mask: u32,
    next_lsn: Lsn,
    /// The globally dense stable end: every LSN in
    /// `first_stable..=stable` is durable on its home shard(s).
    stable: Lsn,
    first_stable: Lsn,
    next_epoch: u64,
    appended_bytes: u64,
    truncated_records: u64,
    /// Shared crash-point switchboard, mirrored into every shard.
    pub(crate) injector: FaultInjector,
    /// The shards hold bytes; the payload type lives here.
    _payload: PhantomData<fn() -> P>,
}

impl<P: LogPayload> ShardedLog<P> {
    /// An empty in-memory sharded log with `n` partitions (a power of
    /// two; `1` collapses to single-log behavior).
    #[must_use]
    pub fn new(n: usize) -> ShardedLog<P> {
        ShardedLog::on(BackendKind::Mem, n)
    }

    /// An empty sharded log on the given backend kind: one log backend
    /// per shard, plus one archive backend per shard.
    ///
    /// # Panics
    ///
    /// If `n` is not a power of two (the routing mask requires it —
    /// exactly as [`ShardedStore`](crate::shard::ShardedStore)), or is
    /// more than 2¹⁵ (a flush group's roster, which a page-less record's
    /// force fills with every shard, counts its entries in 16 bits).
    #[must_use]
    pub fn on(kind: BackendKind, n: usize) -> ShardedLog<P> {
        assert!(
            n.is_power_of_two(),
            "log shard count must be a power of two, got {n}"
        );
        assert!(
            n <= 1 << 15,
            "log shard count must be at most 32768, got {n}"
        );
        let injector = FaultInjector::new();
        let shards = (0..n)
            .map(|_| {
                // A lone shard holds the full dense sequence, so it keeps
                // the dense-run truncation guards; only a real partition
                // stores a sparse subset.
                let mut shard = LogManager::on(kind, n == 1);
                shard.injector = injector.clone();
                shard
            })
            .collect();
        ShardedLog {
            shards,
            archive: ArchiveTier::new(kind, n),
            mask: u32::try_from(n - 1).expect("shard count fits u32"),
            next_lsn: Lsn(1),
            stable: Lsn::ZERO,
            first_stable: Lsn(1),
            next_epoch: 1,
            appended_bytes: 0,
            truncated_records: 0,
            injector,
            _payload: PhantomData,
        }
    }

    /// Number of log partitions.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard holding `page`'s records — the same power-of-two mask
    /// route as [`ShardedStore`](crate::shard::ShardedStore).
    #[must_use]
    pub fn shard_of(&self, page: PageId) -> usize {
        (page.0 & self.mask) as usize
    }

    /// Rewires the fault injector shared by every shard (and callers
    /// like [`Db`](crate::db::Db), which mirror it into the disk).
    pub(crate) fn share_injector(&mut self, injector: FaultInjector) {
        for shard in &mut self.shards {
            shard.injector = injector.clone();
        }
        self.injector = injector;
    }

    /// Encodes a record for [`ShardedLog::append_encoded`] — the half
    /// of an append that needs no lock, so a caller sharing the log
    /// behind a mutex does it before taking the mutex.
    ///
    /// # Errors
    ///
    /// [`SimError::FieldOverflow`] if the payload does not encode;
    /// [`SimError::OversizedRecord`] if its encoding exceeds the 32-bit
    /// frame length field.
    pub fn encode(payload: &P) -> SimResult<EncodedRecord> {
        EncodedRecord::of(&[REC], payload)
    }

    /// [`ShardedLog::encode`] for a caller holding the payload's parts
    /// rather than a `P`: `put` must append exactly what `P::encode`
    /// would for a payload writing `writes` and cross-reading
    /// `cross_reads`.
    ///
    /// # Errors
    ///
    /// As [`ShardedLog::encode`].
    pub fn encode_with(
        put: impl FnOnce(&mut Vec<u8>) -> SimResult<()>,
        writes: Vec<PageId>,
        cross_reads: Vec<PageId>,
    ) -> SimResult<EncodedRecord> {
        EncodedRecord::new(&[REC], put, writes, cross_reads)
    }

    /// Appends a record under the next global LSN, routing it to the
    /// shard of every page it writes (broadcast when it writes none).
    ///
    /// # Errors
    ///
    /// As [`ShardedLog::encode`]; a failed append assigns no LSN and
    /// leaves the log untouched.
    pub fn append(&mut self, payload: P) -> SimResult<Lsn> {
        Ok(self.append_encoded(&Self::encode(&payload)?))
    }

    /// The one append path: assigns the next global LSN and frames
    /// `rec` into the tail of every shard a page it writes routes to —
    /// every shard for a page-less record (checkpoints must be visible
    /// to any single-shard scan).
    pub fn append_encoded(&mut self, rec: &EncodedRecord) -> Lsn {
        let lsn = self.next_lsn;
        if rec.writes.is_empty() {
            self.shards.iter_mut().for_each(|sh| sh.append_at(lsn, rec));
        }
        for (i, &page) in rec.writes.iter().enumerate() {
            // Once per shard: at the first page that routes there.
            let s = self.shard_of(page);
            if rec.writes[..i].iter().all(|&q| self.shard_of(q) != s) {
                self.shards[s].append_at(lsn, rec);
            }
        }
        self.next_lsn = lsn.next();
        // Count the logical record once (not per broadcast copy, not the
        // shard-frame tag byte) so the log-volume metric stays
        // comparable across shard counts.
        self.appended_bytes += rec.frame.len() as u64 - 1;
        lsn
    }

    /// Forces the log through `upto` (inclusive), group-committing each
    /// participating shard. A force covering one shard delegates to the
    /// plain shard flush (identical fault semantics to the single log);
    /// a force covering several brackets each shard's batch in
    /// `Open`/`Close` epoch markers so recovery can prove the group
    /// atomic. The global stable LSN only advances when every
    /// participant's batch fully landed — a halt anywhere leaves it
    /// unmoved, and the crash analysis rolls the partial group back.
    pub fn flush(&mut self, upto: Lsn) {
        let mut participants = Vec::new();
        let mut covered_max = Lsn::ZERO;
        for (s, shard) in self.shards.iter().enumerate() {
            if let Some((lo, hi)) = shard.tail_extent(upto) {
                participants.push((s, lo));
                covered_max = covered_max.max(hi);
            }
        }
        match participants.as_slice() {
            [] => {}
            &[(s, _)] => {
                // Single-shard force: no markers, plain partial-prefix
                // tear semantics. The whole covered range lives on this
                // shard, so whatever prefix landed is globally dense.
                self.shards[s].flush_with_bracket(upto, None);
                self.stable = self.stable.max(self.shards[s].stable_lsn());
            }
            _ => {
                let epoch = self.next_epoch;
                self.next_epoch += 1;
                let roster: Vec<u16> = participants
                    .iter()
                    .map(|&(s, _)| u16::try_from(s).expect("shard count fits u16"))
                    .collect();
                // Every participant's brackets carry the same body.
                let [open, close] = [OPEN, CLOSE].map(|tag| {
                    let put = |buf: &mut Vec<u8>| put_marker(buf, epoch, &roster);
                    EncodedRecord::new(&[tag], put, Vec::new(), Vec::new())
                        .expect("a roster is no longer than the shard count, which fits u16")
                });
                let mut all_landed = true;
                for &(s, open_lsn) in &participants {
                    let bracket = [(open_lsn, &open), (covered_max, &close)];
                    self.shards[s].flush_with_bracket(upto, Some(bracket));
                    if self.shards[s].stable_lsn() != covered_max {
                        all_landed = false;
                    }
                }
                if all_landed {
                    // Covered records are exactly the globally dense
                    // range stable+1..=covered_max (every earlier LSN
                    // was already stable or covered here), so the
                    // global end jumps to the group's close.
                    self.stable = covered_max;
                }
                // Otherwise: a fault halted some participant mid-batch.
                // Faults in this simulator are always followed by a
                // crash, whose epoch analysis rolls the group back; the
                // global stable end never covered any of it.
            }
        }
    }

    /// Forces the entire log.
    pub fn flush_all(&mut self) {
        let last = self.last_lsn();
        self.flush(last);
    }

    /// The highest globally durable LSN: every LSN at or below it is
    /// stable on its home shard(s).
    #[must_use]
    pub fn stable_lsn(&self) -> Lsn {
        self.stable
    }

    /// The highest assigned LSN (stable or volatile).
    #[must_use]
    pub fn last_lsn(&self) -> Lsn {
        Lsn(self.next_lsn.0 - 1)
    }

    /// Number of logical records in the stable prefix (broadcast copies
    /// counted once) — the dense run `first_stable..=stable`.
    #[must_use]
    pub fn stable_count(&self) -> usize {
        usize::try_from((self.stable.0 + 1).saturating_sub(self.first_stable.0))
            .expect("stable count fits usize")
    }

    /// Total logical bytes appended so far (stable or not), counted
    /// once per record regardless of broadcast fan-out.
    #[must_use]
    pub fn appended_bytes(&self) -> u64 {
        self.appended_bytes
    }

    /// Durable syncs across all shard backends (0 in memory).
    #[must_use]
    pub fn syncs(&self) -> u64 {
        self.shards.iter().map(LogManager::syncs).sum()
    }

    /// Coalesced stable appends (group-commit forces) across all
    /// shards. One logical force may count once per participating
    /// shard — each participant lands its own batch with its own fsync.
    #[must_use]
    pub fn forces(&self) -> u64 {
        self.shards.iter().map(LogManager::forces).sum()
    }

    /// Per-shard force counts — the flush-skew telemetry the bench
    /// shard-skew reports read.
    #[must_use]
    pub fn forces_by_shard(&self) -> Vec<u64> {
        self.shards.iter().map(LogManager::forces).collect()
    }

    /// Shard 0's backing file, when file-backed (tests damage shard
    /// files out-of-band; each shard's own path comes from
    /// [`ShardedLog::shard_path`]).
    #[must_use]
    pub fn path(&self) -> Option<&std::path::Path> {
        self.shards[0].path()
    }

    /// Shard `s`'s backing file, when file-backed.
    #[must_use]
    pub fn shard_path(&self, s: usize) -> Option<&std::path::Path> {
        self.shards[s].path()
    }

    /// Simulates a crash: every shard loses its volatile tail and
    /// re-derives its bookkeeping from the surviving bytes, then the
    /// epoch analysis enforces cross-shard flush-group atomicity — any
    /// epoch whose rostered participants do not *all* have a durable
    /// `Close` is rolled back to its `Open` offset on every shard that
    /// landed one. The global stable end is whatever dense prefix
    /// survives.
    pub fn crash(&mut self) {
        for shard in &mut self.shards {
            shard.crash();
        }
        self.archive.crash();
        // Collect each shard's epoch evidence. The archive's counts too:
        // only stable, published prefixes ever drain, so a participant
        // whose portion of an epoch moved to the archive tier closed
        // that epoch long ago — its `Close` frame now lives there. A
        // crash between one shard's drain and another's would otherwise
        // make the fully durable group look torn and roll durable
        // records back on the undrained shards.
        let n = self.shards.len();
        let mut open_at: Vec<BTreeMap<u64, usize>> = vec![BTreeMap::new(); n];
        let mut closed: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
        let mut roster: BTreeMap<u64, Vec<u16>> = BTreeMap::new();
        for (s, open_at) in open_at.iter_mut().enumerate() {
            let [(archive, _), (live, _)] = self.tiers(s);
            for (is_live, bytes) in [(false, archive), (true, live)] {
                for (at, tag, epoch, participants) in markers(bytes) {
                    if tag == CLOSE {
                        closed.entry(epoch).or_default().insert(s);
                        continue;
                    }
                    if is_live {
                        open_at.insert(epoch, at);
                    }
                    roster.entry(epoch).or_insert(participants);
                }
            }
        }
        // Roll incomplete epochs back to their Open offset per shard.
        let mut cut: Vec<Option<usize>> = vec![None; n];
        for (&epoch, participants) in &roster {
            let complete = participants.iter().all(|&p| {
                closed
                    .get(&epoch)
                    .is_some_and(|c| c.contains(&(p as usize)))
            });
            if complete {
                continue;
            }
            for &p in participants {
                let p = p as usize;
                if let Some(&off) = open_at[p].get(&epoch) {
                    cut[p] = Some(cut[p].map_or(off, |c| c.min(off)));
                }
            }
        }
        for (s, cut) in cut.into_iter().enumerate() {
            if let Some(pos) = cut {
                self.shards[s].rollback_to(pos);
            }
        }
        let max_stable = self
            .shards
            .iter()
            .map(|sh| sh.stable_lsn())
            .max()
            .unwrap_or(Lsn::ZERO);
        self.stable = if max_stable.0 + 1 < self.first_stable.0 {
            Lsn(self.first_stable.0 - 1)
        } else {
            max_stable
        };
        self.next_lsn = self.stable.next();
    }

    /// Discards each shard's torn tail; returns total bytes dropped.
    pub fn repair_tail(&mut self) -> usize {
        self.shards.iter_mut().map(LogManager::repair_tail).sum()
    }

    /// Drops and disables every shard's seek index.
    pub fn disable_seek_index(&mut self) {
        for shard in &mut self.shards {
            shard.disable_seek_index();
        }
    }

    /// Shard `s`'s own records from the first with LSN ≥ `from`, seeked
    /// through its index and read in place — the per-shard feed of the
    /// parallel restart pipeline, which runs one scan thread per shard.
    /// Marker frames are read and passed over; a broadcast record is
    /// yielded on every shard that holds a copy.
    #[must_use]
    pub fn shard_suffix(&self, s: usize, from: Lsn) -> History<'_> {
        History {
            merge: LsnMerge::new(1),
            shards: vec![(TierStream::seek(&self.shards[s], from), self.tiers(s))],
            upto: Lsn(u64::MAX),
            failed: false,
        }
    }

    /// Shard `s`'s `archive ∥ live`, each tier with the prefix whose
    /// checksums a repair verified (none of the archive's).
    fn tiers(&self, s: usize) -> Tiers<'_> {
        let live = &self.shards[s];
        [
            (self.archive.bytes(s), 0),
            (live.stable_bytes(), live.verified),
        ]
    }

    /// Moves every stable frame with LSN < `below` into the archive
    /// tier, per shard, and drains it from the live log, rebasing each
    /// shard's seek index and chains onto the shortened image. Returns
    /// the live bytes reclaimed (== bytes archived). The caller must
    /// have established that no recovery can ever need those records
    /// from the live log — `below` is the redo-start LSN of a
    /// *published* checkpoint (appended, forced, and installed via the
    /// master pointer swing); the history still exists —
    /// [`ShardedLog::history`] reads across the boundary. `below` is
    /// clamped to the stable end, so records not yet stable are never
    /// touched, and a bound at or below [`ShardedLog::first_stable`]
    /// (including one from a stale or replayed checkpoint) is a no-op.
    ///
    /// The protocol is archive-first: each shard's drained prefix is
    /// durable in the archive *before* the live log forgets it, and the
    /// window between the two is a faultable crash point. A crash there
    /// leaves the frames in both tiers (and `first_stable` unmoved), so
    /// no drained frame is ever lost; the overlap — including the
    /// re-archive a post-recovery retry performs — is dropped by
    /// [`ShardedLog::history`], which keeps each shard's records in
    /// strictly increasing LSN order.
    ///
    /// # Errors
    ///
    /// [`SimError::Corrupt`] at the offending offset if a single log's
    /// image is not the dense LSN run its bookkeeping promises — the
    /// walk would land mid-sequence (e.g. `below` names an LSN the
    /// image skips) and cutting there would destroy records the
    /// checkpoint still needs. Every shard is planned before any is
    /// touched, so an error leaves the whole log (and the archive)
    /// unchanged.
    pub fn archive_prefix(&mut self, below: Lsn) -> SimResult<u64> {
        let below = Lsn(below.0.min(self.stable.0 + 1));
        if below <= self.first_stable {
            return Ok(0);
        }
        if self.injector.tripped() {
            // The machine is already dead: no further stable I/O.
            return Ok(0);
        }
        let mut plans = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            plans.push(shard.plan_drain(below)?);
        }
        let mut reclaimed = 0u64;
        for (s, plan) in plans.into_iter().enumerate() {
            let Some(plan) = plan else { continue };
            self.archive
                .append(s, &self.shards[s].stable_bytes()[..plan.pos]);
            if self.injector.on_atomic_write() != FaultDecision::Proceed {
                // Crash between archive-append and live-truncate: the
                // live log keeps every frame and the boundary does not
                // advance, so the interrupted drain is retryable.
                return Ok(reclaimed);
            }
            self.shards[s].apply_drain(below, plan);
            reclaimed += plan.pos as u64;
        }
        self.truncated_records += below.0 - self.first_stable.0;
        self.first_stable = below;
        Ok(reclaimed)
    }

    /// Moves shard `s`'s stable frames with LSN < `below` into the
    /// archive tier without waiting for the other shards — the
    /// controller's archive-pressure actuator for a shard whose live
    /// suffix outgrew its share of the restart budget. Semantically this
    /// is a partial [`ShardedLog::archive_prefix`]: the global
    /// `first_stable` boundary does not move (the other shards still
    /// hold older frames), which is exactly the state an interrupted
    /// global drain already leaves, so every scan, crash analysis, and
    /// retry path handles it. The caller's obligation is unchanged:
    /// `below` must be the redo-start LSN of a *published* checkpoint.
    ///
    /// # Errors
    ///
    /// [`SimError::Corrupt`] as [`ShardedLog::archive_prefix`]; an error
    /// leaves the shard (and the archive) unchanged.
    pub fn archive_shard_prefix(&mut self, s: usize, below: Lsn) -> SimResult<u64> {
        let below = Lsn(below.0.min(self.stable.0 + 1));
        if below <= self.first_stable || self.injector.tripped() {
            return Ok(0);
        }
        let Some(plan) = self.shards[s].plan_drain(below)? else {
            return Ok(0);
        };
        self.archive
            .append(s, &self.shards[s].stable_bytes()[..plan.pos]);
        if self.injector.on_atomic_write() != FaultDecision::Proceed {
            // Same crash point as the global drain: the frames exist in
            // both tiers and a retry re-drains; scans deduplicate by LSN.
            return Ok(0);
        }
        self.shards[s].apply_drain(below, plan);
        Ok(plan.pos as u64)
    }

    /// Destroys archived frames with LSN < `genesis`, per shard,
    /// returning the archive bytes reclaimed. `genesis` is clamped to
    /// [`ShardedLog::first_stable`], so only history below the
    /// completed-drain boundary is ever compacted — every cross-shard
    /// flush group entirely below that boundary has its closure evidence
    /// wholly in the archive, so dropping it can never make a live group
    /// look torn. The caller forfeits point-in-time replay and media
    /// recovery below `genesis`: it must pass the oldest LSN those
    /// protocols still need (the redo start of the oldest checkpoint it
    /// intends to fall back to). Compaction is frame-exact (a
    /// structural header walk, no payload decode), so the surviving
    /// tier is still a valid frame image — and it leaves no frame below
    /// `genesis`, even where an interrupted drain and its retry
    /// archived a run twice (the cut is past the second copy's frames
    /// below `genesis`; the first copy's above it are in the second).
    pub fn compact_archive(&mut self, genesis: Lsn) -> u64 {
        let genesis = Lsn(genesis.0.min(self.first_stable.0));
        if self.injector.tripped() {
            return 0;
        }
        let mut reclaimed = 0u64;
        for s in 0..self.shards.len() {
            let pos = end_of_frames_below(self.archive.bytes(s), genesis);
            if pos == 0 {
                continue;
            }
            self.archive.compact(s, pos);
            reclaimed += pos as u64;
        }
        reclaimed
    }

    /// The lowest LSN still present in the *live* stable image.
    #[must_use]
    pub fn first_stable(&self) -> Lsn {
        self.first_stable
    }

    /// Live bytes reclaimed by prefix archiving over this log's
    /// lifetime (all of them now resident in the archive tier).
    #[must_use]
    pub fn truncated_bytes(&self) -> u64 {
        self.shards.iter().map(LogManager::truncated_bytes).sum()
    }

    /// Per-shard reclaimed-byte counts — truncation-skew telemetry.
    #[must_use]
    pub fn truncated_bytes_by_shard(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(LogManager::truncated_bytes)
            .collect()
    }

    /// Logical records elided from the live log by prefix archiving
    /// (broadcast copies counted once).
    #[must_use]
    pub fn truncated_records(&self) -> u64 {
        self.truncated_records
    }

    /// Stable bytes at or after the first frame with LSN ≥ `from`,
    /// summed across shards — the volume a restart scanning from `from`
    /// would read. Pure telemetry: each shard's seek (index jump plus
    /// a header walk), no payload decode.
    #[must_use]
    pub fn suffix_bytes(&self, from: Lsn) -> u64 {
        self.shards
            .iter()
            .map(|shard| shard.suffix_bytes(from))
            .sum()
    }

    /// Per-shard suffix volume — the skew breakdown the controller's
    /// archive-pressure actuator reads.
    #[must_use]
    pub fn suffix_bytes_by_shard(&self, from: Lsn) -> Vec<u64> {
        self.shards
            .iter()
            .map(|shard| shard.suffix_bytes(from))
            .collect()
    }

    /// Per-shard *live* stable byte counts (bytes not yet drained to the
    /// archive tier). Under skewed traffic a hot shard's live image can
    /// dwarf the others'; the controller compares each shard's share
    /// against its budget slice to decide targeted archive drains.
    #[must_use]
    pub fn live_bytes_by_shard(&self) -> Vec<u64> {
        self.shards
            .iter()
            .map(|shard| shard.stable_bytes().len() as u64)
            .collect()
    }

    /// Decodes the single logical record at `lsn`, searching the live
    /// image first and the archive tier second (checkpoint records
    /// broadcast to every shard, so any shard's `archive ∥ live` holds
    /// the chain links delta-checkpoint analysis resolves through this).
    /// Returns `Ok(None)` when no tier holds the record — a chain link
    /// pointing at compacted or never-stable history.
    ///
    /// # Errors
    ///
    /// [`SimError::Corrupt`] if the frame at the sought position does
    /// not decode.
    pub fn record_at_lsn(&self, lsn: Lsn) -> SimResult<Option<WalRecord<P>>> {
        if lsn == Lsn::ZERO || lsn > self.stable {
            return Ok(None);
        }
        // Every shard's live tier, seeked through its index; only then
        // (drained, or mid-drain on its home shards) an archive, past a
        // structural walk of it. A stream stops at its first frame past
        // `lsn`; an archived one has no live tier to run on into.
        let shards = 0..self.shards.len();
        let live = shards.clone().map(|s| {
            let stream = TierStream::seek(&self.shards[s], lsn);
            (stream, self.tiers(s))
        });
        let archived = shards.map(|s| {
            let archive = self.tiers(s)[0];
            let pos = skip_frames_below(archive.0, 0, lsn).0;
            let stream = TierStream {
                pos,
                ..TierStream::default()
            };
            (stream, [archive, (&[][..], 0)])
        });
        for (mut stream, tiers) in live.chain(archived) {
            if let Some(rec) = stream.next(tiers, lsn)? {
                let payload = rec.payload.parse(P::decode)?;
                return Ok(Some(WalRecord { lsn, payload }));
            }
        }
        Ok(None)
    }

    /// Total bytes resident in the archive tier.
    #[must_use]
    pub fn archived_bytes(&self) -> u64 {
        self.archive.archived_bytes()
    }

    /// Per-shard archive-resident byte counts, measured from the tier
    /// bytes themselves — the durable ground truth the
    /// [`ShardedLog::archived_bytes`] telemetry is audited against.
    #[must_use]
    pub fn archived_bytes_by_shard(&self) -> Vec<u64> {
        (0..self.shards.len())
            .map(|s| self.archive.bytes(s).len() as u64)
            .collect()
    }

    /// The per-page chain for `page`, served by its home shard. Offsets
    /// are into that shard's stable bytes; resolve them with
    /// [`ShardedLog::record_in`].
    #[must_use]
    pub fn page_chain(&self, page: PageId) -> &[(Lsn, u64)] {
        self.shards[self.shard_of(page)].page_chain(page)
    }

    /// Every page with at least one stable chained record, in id order.
    /// Each shard contributes only its *home* pages: a broadcast record
    /// also chains its foreign pages into the shards it landed on, and
    /// those duplicate entries must not surface twice.
    pub fn chained_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        let mut pages = BTreeSet::new();
        for (s, shard) in self.shards.iter().enumerate() {
            pages.extend(shard.chained_pages().filter(|&p| self.shard_of(p) == s));
        }
        pages.into_iter()
    }

    /// Every stable record that reads `page` without writing it, as
    /// `(LSN, shard, offset)` in LSN order. A cross-reader is stored
    /// with the pages it *writes*, so the entries come from whichever
    /// shards those are (a broadcast copy counts once, on its lowest
    /// shard); resolve them with [`ShardedLog::record_in`].
    #[must_use]
    pub fn readers_of(&self, page: PageId) -> Vec<(Lsn, usize, u64)> {
        let shards = self.shards.iter().enumerate();
        let mut readers: Vec<(Lsn, usize, u64)> = shards
            .flat_map(|(s, shard)| {
                shard
                    .readers_of(page)
                    .iter()
                    .map(move |&(lsn, off)| (lsn, s, off))
            })
            .collect();
        readers.sort_unstable();
        readers.dedup_by_key(|&mut (lsn, _, _)| lsn);
        readers
    }

    /// Decodes the single stable record at byte offset `off` of shard
    /// `s` — the random-access read a [`ShardedLog::page_chain`] entry
    /// (in the page's [home shard](ShardedLog::shard_of)) or a
    /// [`ShardedLog::readers_of`] entry authorizes. Read in place, its
    /// checksum verified unless a repair already did; the parts it
    /// decodes cross threads, so they are owned.
    ///
    /// # Errors
    ///
    /// [`SimError::Corrupt`] if `off` is not a well-formed frame start
    /// (or holds a marker frame, which no chain entry ever names).
    pub fn record_in(&self, s: usize, off: u64) -> SimResult<WalRecord<P>> {
        let pos = usize::try_from(off).map_err(|_| SimError::Corrupt(usize::MAX))?;
        let (live, trusted) = self.tiers(s)[1];
        let (frame, body) = shard_frame(live, pos, trusted)?;
        let body = body.ok_or(SimError::Corrupt(pos))?;
        let payload = body.parse(P::decode)?;
        Ok(WalRecord {
            lsn: frame.lsn,
            payload,
        })
    }

    /// Shard `s`'s sparse seek index — diagnostic surface for the
    /// index-discipline audits.
    #[must_use]
    pub fn shard_seek_index(&self, s: usize) -> &[(Lsn, u64)] {
        self.shards[s].seek_index()
    }

    /// The durable history through `upto`: every logical record with
    /// LSN ≤ `upto`, in LSN order, read in place from each shard's
    /// `archive ∥ live` — one k-way merge, each body borrowed, none
    /// decoded, each checksum verified unless a repair already did.
    /// Because the archive preserves complete
    /// history from LSN 1, replaying it against genesis state
    /// reproduces the state as of `upto`, even after
    /// [`ShardedLog::archive_prefix`] has drained the live prefix past
    /// it.
    ///
    /// Marker frames are skipped, broadcast copies yielded once, and a
    /// shard's record frame at or below the last one its own stream
    /// yielded is dropped: that is the copy an interrupted drain leaves
    /// in both tiers (or twice in the archive, once its retry has run).
    /// Each tier is read up to its first frame past `upto`.
    ///
    /// Yields [`SimError::Corrupt`] once, then ends, if a tier's bytes
    /// do not parse (repair the live tail first after a crash).
    #[must_use]
    pub fn history(&self, upto: Lsn) -> History<'_> {
        let n = self.shards.len();
        History {
            shards: (0..n)
                .map(|s| (TierStream::default(), self.tiers(s)))
                .collect(),
            merge: LsnMerge::new(n),
            upto,
            failed: false,
        }
    }

    /// Point-in-time record sequence: [`ShardedLog::history`] through
    /// `upto`, decoded.
    ///
    /// # Errors
    ///
    /// [`SimError::Corrupt`] if any tier's bytes do not parse (repair
    /// the live tail first after a crash).
    pub fn pit_records(&self, upto: Lsn) -> SimResult<Vec<WalRecord<P>>> {
        let decode = |rec: SimResult<WalRecord<RecordBody<'_>>>| {
            let WalRecord { lsn, payload } = rec?;
            let payload = payload.parse(P::decode)?;
            Ok(WalRecord { lsn, payload })
        };
        self.history(upto).map(decode).collect()
    }
}

/// The payload of one record frame, not yet decoded: borrowed from the
/// tier bytes that hold it, or from the buffer a [`ShardedScanner`]
/// copied a batch into.
#[derive(Clone, Copy, Debug)]
pub struct RecordBody<'a> {
    /// The payload, through the end of its frame.
    bytes: &'a [u8],
    /// Where `bytes` starts in its tier: the origin of every offset a
    /// [`SimError::Corrupt`] reports.
    at: usize,
}

impl<'a> RecordBody<'a> {
    /// Reads the payload with `parse`, which must consume all of it —
    /// [`LogPayload::decode`]'s shape, so a borrowing reader and the
    /// owned decode ([`ShardedLog::pit_records`]) see the same bytes and
    /// report a [`SimError::Corrupt`] at the same tier offsets.
    ///
    /// # Errors
    ///
    /// `parse`'s error, or [`SimError::Corrupt`] where the payload
    /// ends short of its frame.
    pub fn parse<T>(
        &self,
        parse: impl FnOnce(&'a [u8], &mut usize) -> SimResult<T>,
    ) -> SimResult<T> {
        let mut pos = 0;
        let in_tier = |e| match e {
            SimError::Corrupt(off) => SimError::Corrupt(self.at + off),
            e => e,
        };
        let value = parse(self.bytes, &mut pos).map_err(in_tier)?;
        if pos != self.bytes.len() {
            return Err(SimError::Corrupt(self.at + pos));
        }
        Ok(value)
    }

    /// The payload's bytes.
    #[must_use]
    pub fn bytes(&self) -> &'a [u8] {
        self.bytes
    }
}

/// The frame of a shard tier at `pos` (a frame boundary), its checksum
/// verified unless it ends inside the `trusted` prefix: where it lies,
/// and its record's body — `None` for a flush-group marker, which is
/// checked and passed over.
fn shard_frame(
    bytes: &[u8],
    pos: usize,
    trusted: usize,
) -> SimResult<(Frame, Option<RecordBody<'_>>)> {
    let frame = read_frame(bytes, pos, trusted)?;
    let image = &bytes[..frame.end];
    let mut at = frame.body;
    match codec::get_u8(image, &mut at)? {
        REC => Ok((
            frame,
            Some(RecordBody {
                bytes: &image[at..],
                at,
            }),
        )),
        OPEN | CLOSE => {
            get_marker(image, &mut at)?;
            if at != frame.end {
                return Err(SimError::Corrupt(at));
            }
            Ok((frame, None))
        }
        _ => Err(SimError::Corrupt(at - 1)),
    }
}

/// The iterator [`ShardedLog::history`] and [`ShardedLog::shard_suffix`]
/// return.
#[derive(Debug)]
pub struct History<'a> {
    shards: Vec<(TierStream, Tiers<'a>)>,
    merge: LsnMerge<RecordBody<'a>>,
    upto: Lsn,
    failed: bool,
}

impl<'a> History<'a> {
    /// What the read so far has cost, over every shard.
    #[must_use]
    pub fn stats(&self) -> ScanStats {
        let mut total = ScanStats::default();
        for (stream, _) in &self.shards {
            total.absorb(stream.stats);
        }
        total
    }
}

impl<'a> Iterator for History<'a> {
    type Item = SimResult<WalRecord<RecordBody<'a>>>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        let (shards, upto) = (&mut self.shards, self.upto);
        let next = self.merge.pop(|s| {
            let (stream, tiers) = &mut shards[s];
            stream.next(*tiers, upto)
        });
        self.failed = next.is_err();
        next.map(|next| next.map(|(_, rec)| rec)).transpose()
    }
}

/// One shard's `archive ∥ live`, each tier with the length of its
/// prefix whose checksums a repair verified.
type Tiers<'a> = [(&'a [u8], usize); 2];

/// One shard's read position in its [`Tiers`], yielding its record
/// frames as bodies in strictly increasing LSN order. It holds no
/// borrow, so a scan can keep it between reads of the log.
#[derive(Clone, Debug, Default)]
struct TierStream {
    tier: usize,
    pos: usize,
    /// The last record this stream yielded. Only record frames move
    /// it: a marker echoes an LSN out of order (a `Close` carries its
    /// group's covering LSN).
    last: Option<Lsn>,
    /// Every frame read, markers included, plus the seek that placed
    /// the stream.
    stats: ScanStats,
}

impl TierStream {
    /// A stream over `shard`'s live tier from its first frame with
    /// LSN ≥ `from`, seeked through its index.
    fn seek(shard: &LogManager, from: Lsn) -> TierStream {
        let (pos, stats) = shard.seek(from);
        TierStream {
            tier: 1,
            pos,
            stats,
            ..TierStream::default()
        }
    }

    /// The next record frame with LSN ≤ `upto`; each tier is read up
    /// to its first frame past it.
    fn next<'a>(
        &mut self,
        tiers: Tiers<'a>,
        upto: Lsn,
    ) -> SimResult<Option<WalRecord<RecordBody<'a>>>> {
        while let Some(&(bytes, trusted)) = tiers.get(self.tier) {
            let frame = (self.pos < bytes.len())
                .then(|| shard_frame(bytes, self.pos, trusted))
                .transpose()?;
            let Some((frame, body)) = frame.filter(|(frame, _)| frame.lsn <= upto) else {
                (self.tier, self.pos) = (self.tier + 1, 0);
                continue;
            };
            self.stats.records_decoded += 1;
            self.stats.bytes_scanned += (frame.end - self.pos) as u64;
            self.pos = frame.end;
            let fresh = self.last.is_none_or(|last| frame.lsn > last);
            if let (Some(payload), true) = (body, fresh) {
                self.last = Some(frame.lsn);
                let lsn = frame.lsn;
                return Ok(Some(WalRecord { lsn, payload }));
            }
        }
        Ok(None)
    }
}

/// The k-way step both merged scans — [`ShardedScanner`] over the live
/// tier, [`History`] over `archive ∥ live` — take: one head per shard,
/// the least LSN taken first (the lowest shard on a tie), and a head
/// whose LSN was the last one taken dropped as a broadcast copy.
#[derive(Clone, Debug)]
struct LsnMerge<P> {
    heads: Vec<Option<WalRecord<P>>>,
    last: Option<Lsn>,
}

impl<P> Default for LsnMerge<P> {
    fn default() -> Self {
        LsnMerge::new(0)
    }
}

impl<P> LsnMerge<P> {
    fn new(n: usize) -> Self {
        LsnMerge {
            heads: (0..n).map(|_| None).collect(),
            last: None,
        }
    }

    /// Refills every empty head with `next(s)` — shard `s`'s next item,
    /// `None` once it is done — drops a head that is a copy of the item
    /// last taken, and takes the least head, with the shard it came
    /// from.
    fn pop(
        &mut self,
        mut next: impl FnMut(usize) -> SimResult<Option<WalRecord<P>>>,
    ) -> SimResult<Option<(usize, WalRecord<P>)>> {
        loop {
            for (s, head) in self.heads.iter_mut().enumerate() {
                if head.is_none() {
                    *head = next(s)?;
                }
            }
            let heads = self.heads.iter().enumerate();
            let least = heads
                .filter_map(|(s, head)| Some((head.as_ref()?.lsn, s)))
                .min();
            let Some((lsn, s)) = least else {
                return Ok(None);
            };
            let head = self.heads[s].take();
            if self.last != Some(lsn) {
                self.last = Some(lsn);
                return Ok(head.map(|rec| (s, rec)));
            }
        }
    }
}

impl<P: LogPayload> Default for ShardedLog<P> {
    fn default() -> Self {
        ShardedLog::new(1)
    }
}

/// The resumable batched scan the serial restart reads the live log
/// through: a streaming min-LSN merge over every shard's stable frames
/// from a seek position, yielding the globally ordered logical record
/// sequence — marker frames passed over, broadcast copies once — as
/// undecoded [`RecordBody`]s. A recovery loop also needs the database
/// mutably, to replay, so the scanner holds no borrow of the log between
/// calls: only each shard's byte position, and a copy of each batch's
/// bodies in one buffer it reuses, so a record costs no allocation.
#[derive(Clone, Debug, Default)]
pub struct ShardedScanner {
    streams: Vec<TierStream>,
    /// One head per shard: the record's LSN and where its body lies in
    /// the shard's live tier.
    merge: LsnMerge<std::ops::Range<usize>>,
    /// The current batch's bodies, back to back.
    buf: Vec<u8>,
    /// The current batch's records: LSN, body's tier offset, body's end
    /// in `buf`.
    batch: Vec<(Lsn, usize, usize)>,
    failed: bool,
}

impl ShardedScanner {
    /// A scanner positioned at the first record with LSN ≥ `from`, each
    /// shard seeked through its own index.
    #[must_use]
    pub fn seek<P: LogPayload>(log: &ShardedLog<P>, from: Lsn) -> ShardedScanner {
        let streams = log.shards.iter().map(|shard| TierStream::seek(shard, from));
        ShardedScanner {
            streams: streams.collect(),
            merge: LsnMerge::new(log.n_shards()),
            ..ShardedScanner::default()
        }
    }

    /// Reads up to `max` merged records at the current position,
    /// advancing past them. An empty batch means the scan is complete.
    ///
    /// # Errors
    ///
    /// [`SimError::Corrupt`] at the failing offset; subsequent calls
    /// return empty batches.
    pub fn next_batch<P: LogPayload>(
        &mut self,
        log: &ShardedLog<P>,
        max: usize,
    ) -> SimResult<Batch<'_>> {
        self.buf.clear();
        self.batch.clear();
        let streams = &mut self.streams;
        let mut next = |s: usize| {
            let rec = streams[s].next(log.tiers(s), Lsn(u64::MAX))?;
            Ok(rec.map(|WalRecord { lsn, payload }| {
                let payload = payload.at..payload.at + payload.bytes.len();
                WalRecord { lsn, payload }
            }))
        };
        while !self.failed && self.batch.len() < max {
            match self.merge.pop(&mut next) {
                Ok(Some((s, WalRecord { lsn, payload }))) => {
                    let at = payload.start;
                    self.buf
                        .extend_from_slice(&log.shards[s].stable_bytes()[payload]);
                    self.batch.push((lsn, at, self.buf.len()));
                }
                Ok(None) => break,
                Err(e) => {
                    self.failed = true;
                    return Err(e);
                }
            }
        }
        Ok(Batch {
            buf: &self.buf,
            records: &self.batch,
            start: 0,
        })
    }

    /// Telemetry summed across every shard's scan.
    #[must_use]
    pub fn stats(&self) -> ScanStats {
        let mut total = ScanStats::default();
        for stream in &self.streams {
            total.absorb(stream.stats);
        }
        total
    }
}

/// One batch of [`ShardedScanner::next_batch`], in LSN order: each
/// record's LSN and its body, borrowed from the scanner's buffer.
#[derive(Clone, Copy, Debug)]
pub struct Batch<'a> {
    buf: &'a [u8],
    records: &'a [(Lsn, usize, usize)],
    /// Where the next record's body starts in `buf`.
    start: usize,
}

impl Batch<'_> {
    /// Is the batch spent — or, fresh from the scanner, the scan done?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl<'a> Iterator for Batch<'a> {
    type Item = WalRecord<RecordBody<'a>>;

    fn next(&mut self) -> Option<Self::Item> {
        let (&(lsn, at, end), rest) = self.records.split_first()?;
        let bytes = &self.buf[self.start..end];
        (self.records, self.start) = (rest, end);
        Some(WalRecord {
            lsn,
            payload: RecordBody { bytes, at },
        })
    }
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use crate::fault::{FaultKind, FaultPlan};
    use crate::wal::FRAME_HEADER;
    use proptest::prelude::{prop_assert, prop_assert_eq, proptest, ProptestConfig, TestCaseError};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A payload writing an arbitrary page set (empty = page-less, like
    /// a checkpoint marker) — the smallest thing that exercises routing,
    /// broadcast, and cross-shard groups.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Rec(Vec<u32>, u64);

    impl LogPayload for Rec {
        fn encode(&self, buf: &mut Vec<u8>) -> SimResult<()> {
            codec::put_u16(buf, codec::count_u16("test page count", self.0.len())?);
            for &p in &self.0 {
                codec::put_u32(buf, p);
            }
            codec::put_u64(buf, self.1);
            Ok(())
        }
        fn decode(input: &[u8], pos: &mut usize) -> SimResult<Self> {
            let n = codec::get_u16(input, pos)? as usize;
            let mut pages = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                pages.push(codec::get_u32(input, pos)?);
            }
            Ok(Rec(pages, codec::get_u64(input, pos)?))
        }
        fn write_pages(&self) -> Vec<PageId> {
            self.0.iter().map(|&p| PageId(p)).collect()
        }
    }

    /// One frame as [`reference_decode`] reads it.
    #[derive(Clone, Debug)]
    struct RefFrame<P> {
        lsn: Lsn,
        /// The frame's length, header included.
        len: usize,
        /// Offset one past the frame.
        end: usize,
        /// The body's first byte: 0 for a record, 1 for a flush group's
        /// `Open` marker, 2 for its `Close`.
        tag: u8,
        /// A record frame's payload.
        payload: Option<P>,
    }

    /// An independent decoder of a shard tier from offset `pos`, written
    /// against the documented format rather than the production reader:
    /// an 8-byte LE LSN, a 4-byte LE body length, a 4-byte LE CRC-32 over
    /// the first 12 header bytes plus the body, then the body — a tag
    /// byte, then a record's payload or a marker's 8-byte epoch, 2-byte
    /// roster count and 2-byte roster entries. It checks every checksum,
    /// so it is the one oracle the reader is held to: a bug in the
    /// reader cannot hide behind itself. Returns the frames before the
    /// first damage, and the damage.
    fn reference_decode<P: LogPayload>(
        bytes: &[u8],
        mut pos: usize,
    ) -> (Vec<RefFrame<P>>, SimResult<()>) {
        let frame = |pos: &mut usize| -> SimResult<RefFrame<P>> {
            let start = *pos;
            let lsn = codec::get_u64(bytes, pos)?;
            let len = codec::get_u32(bytes, pos)? as usize;
            let stored_crc = codec::get_u32(bytes, pos)?;
            let end = (pos.checked_add(len))
                .filter(|&end| end <= bytes.len())
                .ok_or(SimError::Corrupt(*pos))?;
            let mut crc = crate::backend::Crc32::new();
            crc.update(&bytes[start..start + 12]);
            crc.update(&bytes[start + FRAME_HEADER..end]);
            if crc.finish() != stored_crc {
                return Err(SimError::Corrupt(start + 12));
            }
            let image = &bytes[..end];
            let tag = codec::get_u8(image, pos)?;
            let payload = match tag {
                0 => Some(P::decode(image, pos)?),
                1 | 2 => {
                    codec::get_u64(image, pos)?;
                    for _ in 0..codec::get_u16(image, pos)? {
                        codec::get_u16(image, pos)?;
                    }
                    None
                }
                _ => return Err(SimError::Corrupt(*pos - 1)),
            };
            if *pos != end {
                return Err(SimError::Corrupt(*pos));
            }
            let (lsn, len) = (Lsn(lsn), end - start);
            Ok(RefFrame {
                lsn,
                len,
                end,
                tag,
                payload,
            })
        };
        let mut frames = Vec::new();
        while pos < bytes.len() {
            match frame(&mut pos) {
                Ok(f) => {
                    pos = f.end;
                    frames.push(f);
                }
                Err(e) => return (frames, Err(e)),
            }
        }
        (frames, Ok(()))
    }

    /// Every frame of shard `s`'s live tier, markers included.
    fn shard_frames(log: &ShardedLog<Rec>, s: usize) -> Vec<RefFrame<Rec>> {
        let (frames, end) = reference_decode(log.shards[s].stable_bytes(), 0);
        end.unwrap();
        frames
    }

    /// Every stable record — where nothing is archived, the live log.
    fn stable(log: &ShardedLog<Rec>) -> Vec<WalRecord<Rec>> {
        log.pit_records(log.stable_lsn()).unwrap()
    }

    #[test]
    fn routes_records_to_page_shards_and_merges_in_lsn_order() {
        let mut log: ShardedLog<Rec> = ShardedLog::new(4);
        for i in 0..8u32 {
            assert_eq!(
                log.append(Rec(vec![i], u64::from(i))).unwrap(),
                Lsn(u64::from(i) + 1)
            );
        }
        log.flush_all();
        assert_eq!(log.stable_lsn(), Lsn(8));
        assert_eq!(log.stable_count(), 8);
        let recs = stable(&log);
        assert_eq!(recs.len(), 8);
        for (i, rec) in recs.iter().enumerate() {
            assert_eq!(rec.lsn, Lsn(i as u64 + 1), "merge must be LSN-ordered");
            assert_eq!(rec.payload.1, i as u64);
        }
        for i in 0..8u32 {
            assert_eq!(log.shard_of(PageId(i)), (i & 3) as usize);
            let chain = log.page_chain(PageId(i));
            assert_eq!(chain.len(), 1);
            let (lsn, off) = chain[0];
            let rec = log.record_in(log.shard_of(PageId(i)), off).unwrap();
            assert_eq!(rec.lsn, lsn);
            assert_eq!(rec.payload.0, vec![i]);
        }
    }

    #[test]
    fn pageless_records_broadcast_to_every_shard_and_deduplicate() {
        let mut log: ShardedLog<Rec> = ShardedLog::new(4);
        log.append(Rec(vec![0], 7)).unwrap();
        let ck = log.append(Rec(vec![], 99)).unwrap();
        log.append(Rec(vec![1], 8)).unwrap();
        log.flush_all();
        // Every single-shard scan observes the page-less record...
        for s in 0..4 {
            let copies = log
                .shard_suffix(s, Lsn(1))
                .map(|rec| rec.unwrap().payload.parse(Rec::decode).unwrap())
                .filter(|rec| *rec == Rec(vec![], 99))
                .count();
            assert_eq!(copies, 1, "shard {s} must hold one broadcast copy");
        }
        // ...but the merged scan yields it exactly once.
        let recs = stable(&log);
        assert_eq!(recs.len(), 3);
        assert_eq!(recs.iter().filter(|r| r.lsn == ck).count(), 1);
    }

    #[test]
    fn single_shard_forces_write_no_markers() {
        let mut log: ShardedLog<Rec> = ShardedLog::new(2);
        log.append(Rec(vec![0], 1)).unwrap();
        log.append(Rec(vec![2], 2)).unwrap(); // page 2 also routes to shard 0
        log.flush_all();
        let frames = shard_frames(&log, 0);
        assert_eq!(frames.len(), 2, "no markers for a single-shard force");
        assert!(frames.iter().all(|f| f.tag == REC));
        // A force spanning both shards brackets each batch in markers.
        log.append(Rec(vec![0], 3)).unwrap();
        log.append(Rec(vec![1], 4)).unwrap();
        log.flush_all();
        let shard1 = shard_frames(&log, 1);
        assert!(shard1.iter().any(|f| f.tag == OPEN));
        assert!(shard1.iter().any(|f| f.tag == CLOSE));
    }

    /// The satellite scenario: a flush group spanning shards A and B
    /// lands six faultable frames — A's `Open`, record, `Close`, then
    /// B's `Open`, record, `Close`. Crash the machine at every one of
    /// them (events 4..=6 are exactly "the closure marker landed on
    /// shard A but not on shard B") and the group must be
    /// all-or-nothing: either both records are durable or neither is.
    fn assert_group_atomic(kind_of: impl Fn() -> BackendKind) {
        for at in 1..=7u64 {
            for kind in [FaultKind::Clean, FaultKind::TornFlush { bytes: 3 }] {
                let mut log: ShardedLog<Rec> = ShardedLog::on(kind_of(), 2);
                log.append(Rec(vec![0], 10)).unwrap();
                log.append(Rec(vec![1], 11)).unwrap();
                log.injector.arm(FaultPlan { at, kind });
                log.flush_all();
                log.injector.reset();
                log.crash();
                log.repair_tail();
                let recs = stable(&log);
                if at <= 6 {
                    assert_eq!(
                        log.stable_lsn(),
                        Lsn::ZERO,
                        "at={at} {kind:?}: a partial group must roll back"
                    );
                    assert!(recs.is_empty(), "at={at} {kind:?}: {recs:?}");
                    assert!(log.page_chain(PageId(0)).is_empty());
                    assert!(log.page_chain(PageId(1)).is_empty());
                } else {
                    assert_eq!(log.stable_lsn(), Lsn(2), "at={at} {kind:?}: group landed");
                    assert_eq!(recs.len(), 2);
                }
            }
        }
    }

    #[test]
    fn cross_shard_flush_groups_are_atomic_at_every_crash_point() {
        assert_group_atomic(|| BackendKind::Mem);
    }

    #[test]
    fn cross_shard_flush_groups_are_atomic_on_files() {
        assert_group_atomic(|| BackendKind::File);
    }

    #[test]
    fn committed_groups_survive_and_later_appends_continue_the_sequence() {
        let mut log: ShardedLog<Rec> = ShardedLog::new(2);
        log.append(Rec(vec![0], 10)).unwrap();
        log.append(Rec(vec![1], 11)).unwrap();
        log.flush_all();
        log.crash();
        assert_eq!(
            log.stable_lsn(),
            Lsn(2),
            "a closed group survives the crash"
        );
        assert_eq!(stable(&log).len(), 2);
        let lsn = log.append(Rec(vec![1], 12)).unwrap();
        assert_eq!(lsn, Lsn(3), "the sequencer resumes past the stable end");
        log.flush_all();
        assert_eq!(log.stable_lsn(), Lsn(3));
    }

    #[test]
    fn archive_prefix_moves_history_and_pit_replays_across_the_boundary() {
        let mut log: ShardedLog<Rec> = ShardedLog::new(4);
        for i in 0..16u32 {
            log.append(Rec(vec![i % 8], u64::from(i))).unwrap();
        }
        log.flush_all();
        let full = stable(&log);
        let reclaimed = log.archive_prefix(Lsn(9)).unwrap();
        assert!(reclaimed > 0);
        assert_eq!(log.archived_bytes(), reclaimed);
        assert_eq!(log.truncated_bytes(), reclaimed, "a move, not a loss");
        assert_eq!(log.first_stable(), Lsn(9));
        assert_eq!(log.truncated_records(), 8);
        let (live, end, _) = scan(&log, Lsn::ZERO, 8);
        end.unwrap();
        assert_eq!(
            live.first().unwrap().lsn,
            Lsn(9),
            "live log starts at the boundary"
        );
        // Point-in-time replay reconstructs the drained prefix exactly.
        assert_eq!(log.pit_records(Lsn(16)).unwrap(), full);
        assert_eq!(log.pit_records(Lsn(8)).unwrap(), full[..8]);
        assert_eq!(log.pit_records(Lsn(11)).unwrap(), full[..11]);
        // A second round appends to the archive — never rewrites it.
        for i in 16..20u32 {
            log.append(Rec(vec![i % 8], u64::from(i))).unwrap();
        }
        log.flush_all();
        let full2 = log.pit_records(Lsn(20)).unwrap();
        log.archive_prefix(Lsn(17)).unwrap();
        assert_eq!(log.first_stable(), Lsn(17));
        assert_eq!(log.pit_records(Lsn(20)).unwrap(), full2);
        assert_eq!(log.pit_records(Lsn(16)).unwrap(), full);
    }

    /// The satellite-bugfix scenario: `archive_prefix` is archive-first
    /// with a faultable crash point between each shard's archive-append
    /// and live-truncate. Crash at every such point; no drained frame
    /// may be lost, and a post-recovery retry must complete the drain.
    fn assert_archive_crash_point_loses_nothing(kind_of: impl Fn() -> BackendKind) {
        for at in 1..=2u64 {
            for kind in [FaultKind::Clean, FaultKind::TornFlush { bytes: 3 }] {
                let mut log: ShardedLog<Rec> = ShardedLog::on(kind_of(), 2);
                for i in 0..4u32 {
                    log.append(Rec(vec![i % 2], u64::from(i))).unwrap();
                }
                log.flush_all();
                let full = stable(&log);
                log.injector.arm(FaultPlan { at, kind });
                log.archive_prefix(Lsn(3)).unwrap();
                assert!(
                    log.injector.tripped(),
                    "at={at} {kind:?}: the crash point must fire"
                );
                log.injector.reset();
                log.crash();
                log.repair_tail();
                // Every frame survives — in the archive, the live log,
                // or both — and the boundary never advanced.
                assert_eq!(log.stable_lsn(), Lsn(4), "at={at} {kind:?}");
                assert_eq!(log.first_stable(), Lsn(1), "at={at} {kind:?}");
                assert_eq!(log.pit_records(Lsn(4)).unwrap(), full, "at={at} {kind:?}");
                // The retry completes; the duplicated frames (archived
                // on both runs) are deduplicated by LSN in every scan.
                log.archive_prefix(Lsn(3)).unwrap();
                assert_eq!(log.first_stable(), Lsn(3), "at={at} {kind:?}");
                assert_eq!(log.pit_records(Lsn(4)).unwrap(), full, "at={at} {kind:?}");
                assert_eq!(
                    log.archived_bytes(),
                    log.archived_bytes_by_shard().iter().sum::<u64>(),
                    "at={at} {kind:?}: telemetry matches the tier bytes"
                );
            }
        }
    }

    #[test]
    fn archive_prefix_crash_point_loses_no_frames_in_memory() {
        assert_archive_crash_point_loses_nothing(|| BackendKind::Mem);
    }

    /// A drain interrupted *between shards* must not make a durable
    /// cross-shard group look torn: shard 0's `Open`/`Close` markers for
    /// the group move to the archive while shard 1 still holds its live
    /// copies, and the crash-time epoch analysis has to find shard 0's
    /// closure evidence in the archive tier — otherwise it would roll
    /// shard 1 back to the group's `Open` offset and destroy durable
    /// records logged after it.
    #[test]
    fn interrupted_drain_keeps_archived_groups_closed() {
        let mut log: ShardedLog<Rec> = ShardedLog::new(2);
        // One atomic group spanning both shards (lsns 1 and 2)...
        log.append(Rec(vec![0], 10)).unwrap();
        log.append(Rec(vec![1], 11)).unwrap();
        log.flush_all();
        // ...then a later single-shard record that must survive.
        log.append(Rec(vec![1], 12)).unwrap();
        log.flush_all();
        let full = stable(&log);
        assert_eq!(full.len(), 3);
        // Interrupt the drain after shard 0 truncated but before shard 1
        // did: the group now exists only in shard 0's archive and shard
        // 1's live log.
        log.injector.arm(FaultPlan {
            at: 2,
            kind: FaultKind::Clean,
        });
        log.archive_prefix(Lsn(3)).unwrap();
        assert!(log.injector.tripped(), "the inter-shard crash point fires");
        log.injector.reset();
        log.crash();
        log.repair_tail();
        assert_eq!(
            log.stable_lsn(),
            Lsn(3),
            "the archived group is closed; nothing rolls back"
        );
        assert_eq!(log.pit_records(Lsn(3)).unwrap(), full);
        // The retry completes the drain; history is still whole.
        log.archive_prefix(Lsn(3)).unwrap();
        assert_eq!(log.first_stable(), Lsn(3));
        assert_eq!(log.pit_records(Lsn(3)).unwrap(), full);
    }

    #[test]
    fn archive_prefix_crash_point_loses_no_frames_on_files() {
        assert_archive_crash_point_loses_nothing(|| BackendKind::File);
    }

    #[test]
    fn pit_records_boundary_lsns() {
        let mut log: ShardedLog<Rec> = ShardedLog::new(4);
        for i in 0..12u32 {
            log.append(Rec(vec![i % 8], u64::from(i))).unwrap();
        }
        log.flush_all();
        let full = stable(&log);
        log.archive_prefix(Lsn(7)).unwrap();
        assert_eq!(log.first_stable(), Lsn(7));
        // upto == 0: before any record exists.
        assert!(log.pit_records(Lsn(0)).unwrap().is_empty());
        // upto == first_stable - 1: served entirely from the archive.
        assert_eq!(log.pit_records(Lsn(6)).unwrap(), full[..6]);
        // upto exactly at the stable end, and far past it: the full
        // sequence either way — there is nothing beyond stable to find.
        assert_eq!(log.pit_records(Lsn(12)).unwrap(), full);
        assert_eq!(log.pit_records(Lsn(1_000_000)).unwrap(), full);
    }

    /// The merge `pit_records` was before [`ShardedLog::history`]: every
    /// tier of every shard decoded by [`reference_decode`] into a map
    /// keyed by LSN, the first copy of each LSN kept, each tier read up
    /// to its first frame past `upto`.
    fn reference_pit(log: &ShardedLog<Rec>, upto: Lsn) -> SimResult<Vec<WalRecord<Rec>>> {
        let mut merged: BTreeMap<Lsn, Rec> = BTreeMap::new();
        for (s, shard) in log.shards.iter().enumerate() {
            for tier in [log.archive.bytes(s), shard.stable_bytes()] {
                let (frames, end) = reference_decode::<Rec>(tier, 0);
                let upto_frames = frames.iter().take_while(|f| f.lsn <= upto);
                for f in upto_frames.clone() {
                    if let Some(payload) = &f.payload {
                        merged.entry(f.lsn).or_insert_with(|| payload.clone());
                    }
                }
                if upto_frames.count() == frames.len() {
                    end?;
                }
            }
        }
        Ok(merged
            .into_iter()
            .map(|(lsn, payload)| WalRecord { lsn, payload })
            .collect())
    }

    proptest! {
        /// `history` (through `pit_records`) is the reference merge at
        /// every `upto`, over logs built from single-page, multi-page
        /// and page-less (broadcast) records; partial and full forces
        /// (cross-shard flush groups, with their markers); drains at
        /// random LSNs, whole and per shard; drains a fault interrupts
        /// between archive append and live truncation — left as they
        /// are, or retried — and archive compaction.
        #[test]
        fn history_is_the_reference_merge(
            shard_bits in 0u32..3,
            steps in proptest::collection::vec((0u8..10, 0u32..8, 0u32..8), 1..120),
        ) {
            let shards = 1usize << shard_bits;
            let mut log: ShardedLog<Rec> = ShardedLog::new(shards);
            let mut value = 0u64;
            let pick = |log: &ShardedLog<Rec>, x: u32| {
                let (first, stable) = (log.first_stable().0, log.stable_lsn().0);
                Lsn(first + u64::from(x) * (stable + 1).saturating_sub(first) / 7)
            };
            for (what, a, b) in steps {
                value += 1;
                match what {
                    0..=2 => drop(log.append(Rec(vec![a], value)).unwrap()),
                    3 => drop(log.append(Rec(vec![a, b], value)).unwrap()),
                    4 => drop(log.append(Rec(vec![], value)).unwrap()),
                    5 => log.flush(Lsn(log.stable_lsn().0 + u64::from(a))),
                    6 => log.flush_all(),
                    7 => drop(log.archive_prefix(pick(&log, a)).unwrap()),
                    8 => {
                        // Interrupted at the first or second shard's
                        // archive-then-truncate window, then maybe
                        // retried after the crash.
                        let below = pick(&log, a);
                        log.injector.arm(FaultPlan { at: u64::from(b % 2) + 1, kind: FaultKind::Clean });
                        log.archive_prefix(below).unwrap();
                        log.injector.reset();
                        log.crash();
                        log.repair_tail();
                        if b % 3 == 0 {
                            log.archive_prefix(below).unwrap();
                        }
                    }
                    _ => {
                        if b % 2 == 0 {
                            log.archive_shard_prefix(a as usize % shards, pick(&log, b)).unwrap();
                        } else {
                            log.compact_archive(pick(&log, a));
                        }
                    }
                }
            }
            log.flush_all();
            let stable = log.stable_lsn().0;
            for upto in [0, stable / 3, stable / 2, log.first_stable().0.saturating_sub(1), stable, stable + 4] {
                let upto = Lsn(upto);
                let history = log.pit_records(upto).unwrap();
                prop_assert_eq!(&history, &reference_pit(&log, upto).unwrap(), "upto {:?}", upto);
                prop_assert!(history.windows(2).all(|w| w[0].lsn < w[1].lsn));
            }
        }
    }

    #[test]
    fn per_shard_telemetry_sums_to_the_global_view() {
        let mut log: ShardedLog<Rec> = ShardedLog::new(4);
        for i in 0..12u32 {
            log.append(Rec(vec![i % 4], u64::from(i))).unwrap();
            if i % 3 == 2 {
                log.flush_all();
            }
        }
        log.flush_all();
        assert_eq!(log.forces_by_shard().iter().sum::<u64>(), log.forces());
        log.archive_prefix(Lsn(7)).unwrap();
        assert_eq!(
            log.truncated_bytes_by_shard().iter().sum::<u64>(),
            log.truncated_bytes()
        );
        assert!(log.truncated_bytes_by_shard().iter().any(|&b| b > 0));
    }

    /// What one scan from `from` in batches of at most `max` read: each
    /// record decoded, how the scan ended, and its telemetry.
    pub(crate) type Scan<P> = (Vec<WalRecord<P>>, SimResult<()>, ScanStats);

    /// [`ShardedScanner`] from `from` to its end.
    pub(crate) fn scan<P: LogPayload>(log: &ShardedLog<P>, from: Lsn, max: usize) -> Scan<P> {
        let mut scanner = ShardedScanner::seek(log, from);
        let mut got = Vec::new();
        let end = 'scan: loop {
            let batch = match scanner.next_batch(log, max) {
                Ok(batch) if batch.is_empty() => break Ok(()),
                Ok(batch) => batch,
                Err(e) => break Err(e),
            };
            assert!(batch.count() <= max);
            for WalRecord { lsn, payload } in batch {
                match payload.parse(P::decode) {
                    Ok(payload) => got.push(WalRecord { lsn, payload }),
                    Err(e) => break 'scan Err(e),
                }
            }
        };
        (got, end, scanner.stats())
    }

    /// The reader the scanner is held to: each shard's live tier decoded
    /// by [`reference_decode`] — checksum, payload and all — from the
    /// shard's seek position into owned records, merged through the
    /// same [`LsnMerge`], in batches of at most `max`.
    fn reference_scan(log: &ShardedLog<Rec>, from: Lsn, max: usize) -> Scan<Rec> {
        let mut stats = Vec::new();
        let mut shards = Vec::new();
        for shard in &log.shards {
            let (pos, seeked) = shard.seek(from);
            let (frames, end) = reference_decode::<Rec>(shard.stable_bytes(), pos);
            stats.push(seeked);
            shards.push((frames.into_iter(), end));
        }
        let mut merge: LsnMerge<Rec> = LsnMerge::new(log.n_shards());
        let mut next = |s: usize| -> SimResult<Option<WalRecord<Rec>>> {
            let (frames, end) = &mut shards[s];
            for f in frames.by_ref() {
                stats[s].records_decoded += 1;
                stats[s].bytes_scanned += f.len as u64;
                if let Some(payload) = f.payload {
                    return Ok(Some(WalRecord {
                        lsn: f.lsn,
                        payload,
                    }));
                }
            }
            end.clone().map(|()| None)
        };
        let (mut got, mut batch) = (Vec::new(), Vec::new());
        let end = loop {
            match merge.pop(&mut next) {
                Ok(Some((_, rec))) => batch.push(rec),
                Ok(None) => break Ok(()),
                // The batch in hand is lost with the error.
                Err(e) => break Err(e),
            }
            if batch.len() == max {
                got.append(&mut batch);
            }
        };
        if end.is_ok() {
            got.append(&mut batch);
        }
        let mut total = ScanStats::default();
        stats.iter().for_each(|s| total.absorb(*s));
        (got, end, total)
    }

    #[test]
    fn scanner_resumes_across_batches_and_matches_full_scan() {
        let mut log: ShardedLog<Rec> = ShardedLog::new(1);
        for i in 0..25u32 {
            log.append(Rec(vec![i], u64::from(i) * 3)).unwrap();
        }
        log.flush_all();
        let full = stable(&log);
        assert_eq!(full.len(), 25);
        let (got, end, stats) = scan(&log, Lsn::ZERO, 4);
        assert_eq!((got, end), (full.clone(), Ok(())));
        assert_eq!(stats.records_decoded, 25);

        let (got, _, stats) = scan(&log, Lsn(14), 5);
        assert_eq!(&got[..], &full[13..]);
        assert_eq!(stats.seek_hits, 1);
    }

    #[test]
    fn scanner_reports_corruption_once_then_stays_done() {
        let mut log: ShardedLog<Rec> = ShardedLog::new(1);
        for i in 0..3 {
            log.append(Rec(vec![0], i)).unwrap();
        }
        log.injector.arm(FaultPlan {
            at: 3,
            kind: FaultKind::TornFlush { bytes: 4 },
        });
        log.flush_all();
        let mut scanner = ShardedScanner::seek(&log, Lsn::ZERO);
        let first = scanner.next_batch(&log, 16).map(Iterator::count);
        assert!(matches!(first, Err(SimError::Corrupt(_))));
        assert!(scanner.next_batch(&log, 16).unwrap().is_empty());
        // The history reports it the same way.
        let mut history = log.history(Lsn(u64::MAX));
        let first = history.find(Result::is_err);
        assert!(matches!(first, Some(Err(SimError::Corrupt(_)))));
        assert!(history.next().is_none());
    }

    /// Rewrites shard `s`'s live image with `edit`, as a failing medium
    /// would: under the log's bookkeeping.
    pub(crate) fn damage<P>(log: &mut ShardedLog<P>, s: usize, edit: impl FnOnce(&mut Vec<u8>)) {
        let shard = &mut log.shards[s];
        let mut image = shard.stable_bytes().to_vec();
        edit(&mut image);
        shard.backend.truncate_to(0);
        shard.backend.append(&image);
    }

    /// Flips bit `bit` of byte `at` of shard `s`'s live image.
    fn flip<P>(log: &mut ShardedLog<P>, s: usize, at: usize, bit: u32) {
        damage(log, s, |image| image[at] ^= 1 << bit);
    }

    /// Each shard's verified extent.
    fn extents(log: &ShardedLog<Rec>) -> Vec<usize> {
        log.shards.iter().map(|shard| shard.verified).collect()
    }

    proptest! {
        /// The one reader is the reference merge: from any seek LSN and
        /// in batches of any size, the same records decoded, the same
        /// telemetry, and the same `Corrupt` offset — over logs of
        /// single-page, multi-page (broadcast, spanning flush groups)
        /// and page-less records on 1, 2 and 4 shards; after global,
        /// per-shard and fault-interrupted drains; on images torn by a
        /// force, before and after `repair_tail`; and with a bit flipped
        /// in bytes appended after the last repair, which the verified
        /// extent does not cover.
        #[test]
        fn the_scanner_reads_what_the_owned_merge_read(
            shard_bits in 0u32..3,
            steps in proptest::collection::vec((0u8..12, 0u32..8, 0u32..8), 1..100),
            seeks in proptest::collection::vec(0u32..64, 3..4),
            max in 1usize..9,
            flip_at in proptest::option::of((0usize..4, 0usize..4096, 0u32..8)),
        ) {
            let shards = 1usize << shard_bits;
            let mut log: ShardedLog<Rec> = ShardedLog::new(shards);
            let mut value = 0u64;
            let pick = |log: &ShardedLog<Rec>, x: u32| {
                let (first, stable) = (log.first_stable().0, log.stable_lsn().0);
                Lsn(first + u64::from(x) * (stable + 1).saturating_sub(first) / 7)
            };
            let check = |log: &ShardedLog<Rec>| -> Result<(), TestCaseError> {
                let stable = log.stable_lsn().0;
                let froms = [0, 1, log.first_stable().0, stable, stable + 1];
                let picked = seeks.iter().map(|&x| u64::from(x) % (stable + 2));
                for from in froms.into_iter().chain(picked).map(Lsn) {
                    prop_assert_eq!(scan(log, from, max), reference_scan(log, from, max), "from {:?}", from);
                }
                Ok(())
            };
            for (what, a, b) in steps {
                value += 1;
                match what {
                    0..=2 => drop(log.append(Rec(vec![a], value)).unwrap()),
                    3 => drop(log.append(Rec(vec![a, b], value)).unwrap()),
                    4 => drop(log.append(Rec(vec![], value)).unwrap()),
                    5 => log.flush(Lsn(log.stable_lsn().0 + u64::from(a))),
                    6 => log.flush_all(),
                    7 => drop(log.archive_prefix(pick(&log, a)).unwrap()),
                    8 => drop(log.archive_shard_prefix(a as usize % shards, pick(&log, b)).unwrap()),
                    9 => {
                        // A drain interrupted between a shard's archive
                        // append and its live truncation.
                        let below = pick(&log, a);
                        log.injector.arm(FaultPlan { at: u64::from(b % 2) + 1, kind: FaultKind::Clean });
                        log.archive_prefix(below).unwrap();
                        log.injector.reset();
                        log.crash();
                        log.repair_tail();
                    }
                    10 => {
                        // A force torn mid-frame: the image holds the
                        // fragment until the repair.
                        log.injector.arm(FaultPlan { at: u64::from(a) + 1, kind: FaultKind::TornFlush { bytes: b as usize + 1 } });
                        log.flush_all();
                        log.injector.reset();
                        log.crash();
                        check(&log)?;
                        log.repair_tail();
                    }
                    _ => {
                        log.crash();
                        log.repair_tail();
                    }
                }
            }
            log.flush_all();
            check(&log)?;
            if let Some((s, at, bit)) = flip_at {
                let s = s % shards;
                let (verified, len) = (log.shards[s].verified, log.shards[s].stable_bytes().len());
                if len > verified {
                    flip(&mut log, s, verified + at % (len - verified), bit);
                    check(&log)?;
                    prop_assert!(scan(&log, Lsn::ZERO, max).1.is_err(), "a flip past the extent is caught");
                }
            }
        }
    }

    /// The log the corruption properties damage, on `kind` with
    /// `shards` shards: each of `recs` writes page `a`, pages `a` and
    /// `b`, or (`what` 2) no page, and every third is forced with what
    /// precedes it; then a record on page 0 and one on page 1 are forced
    /// together, so on two shards each image holds a cross-shard
    /// `Open`/`Close` group. Nothing is repaired, so nothing is trusted.
    fn forced_log(kind: BackendKind, shards: usize, recs: &[(u8, u32, u32)]) -> ShardedLog<Rec> {
        let mut log = ShardedLog::on(kind, shards);
        for (i, &(what, a, b)) in (0u64..).zip(recs) {
            let pages = match what {
                0 => vec![a],
                1 => vec![a, b],
                _ => vec![],
            };
            let lsn = log.append(Rec(pages, i)).unwrap();
            if i % 3 == 2 {
                log.flush(lsn);
            }
        }
        log.append(Rec(vec![0], 1000)).unwrap();
        log.append(Rec(vec![1], 1001)).unwrap();
        log.flush_all();
        log
    }

    /// [`forced_log`] built on both backends, which must hold
    /// bit-identical images — so every property of the in-memory one
    /// returned holds for the file one at once.
    fn stable_image(shards: usize, recs: &[(u8, u32, u32)]) -> ShardedLog<Rec> {
        let mem = forced_log(BackendKind::Mem, shards, recs);
        let file = forced_log(BackendKind::File, shards, recs);
        for (m, f) in mem.shards.iter().zip(&file.shards) {
            assert_eq!(
                m.stable_bytes(),
                f.stable_bytes(),
                "backends diverge on the durable image"
            );
        }
        if shards == 2 {
            for s in 0..2 {
                let tags: Vec<u8> = shard_frames(&mem, s).iter().map(|f| f.tag).collect();
                assert!(
                    tags.contains(&1) && tags.contains(&2),
                    "shard {s}: {tags:?}"
                );
            }
        }
        mem
    }

    /// A history read whole, decoded, and a scan from LSN 0.
    type Read = (SimResult<Vec<WalRecord<Rec>>>, Scan<Rec>);

    /// What the two readers make of `log` read whole: the history
    /// through every LSN, decoded, and the scanner from LSN 0 in
    /// batches of `max`.
    fn read_whole(log: &ShardedLog<Rec>, max: usize) -> Read {
        (log.pit_records(Lsn(u64::MAX)), scan(log, Lsn::ZERO, max))
    }

    /// One damaged image [`for_each_damage`] hands its check.
    struct Damaged<'a> {
        /// The intact log's records.
        full: &'a [WalRecord<Rec>],
        /// The damaged shard's intact frames.
        frames: &'a [RefFrame<Rec>],
        /// The damaged shard's intact length.
        len: usize,
        /// Where the damage is: the cut, or the flipped byte.
        at: usize,
        log: ShardedLog<Rec>,
    }

    /// Every image [`stable_image`] builds from `recs` — on 1 shard, and
    /// on 2 — with each shard's image replaced in turn by every edit
    /// `edits(len)` names: a cut at a byte, or a bit flipped in it.
    fn for_each_damage(
        recs: &[(u8, u32, u32)],
        edits: impl Fn(usize) -> Vec<(usize, Option<u32>)>,
        mut check: impl FnMut(Damaged<'_>) -> Result<(), TestCaseError>,
    ) -> Result<(), TestCaseError> {
        for shards in [1, 2] {
            let log = stable_image(shards, recs);
            let full = stable(&log);
            for s in 0..shards {
                let frames = shard_frames(&log, s);
                let len = log.shards[s].stable_bytes().len();
                for (at, bit) in edits(len) {
                    let mut damaged = log.clone();
                    damage(&mut damaged, s, |image| match bit {
                        Some(bit) => image[at] ^= 1 << bit,
                        None => image.truncate(at),
                    });
                    check(Damaged {
                        full: &full,
                        frames: &frames,
                        len,
                        at,
                        log: damaged,
                    })?;
                }
            }
        }
        Ok(())
    }

    /// Every cut of an image of `len` bytes, as [`for_each_damage`]
    /// edits.
    fn cuts(len: usize) -> Vec<(usize, Option<u32>)> {
        (0..=len).map(|cut| (cut, None)).collect()
    }

    /// The one flip `flip` picks in an image of `len` bytes.
    fn one_flip(flip: usize) -> impl Fn(usize) -> Vec<(usize, Option<u32>)> {
        move |len| vec![(flip % len, Some(((flip / len) % 8) as u32))]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Truncate one shard's stable bytes at EVERY byte boundary —
        /// marker frames included — with nothing trusted: a cut on a
        /// frame boundary reads a clean shorter log through both
        /// readers, every record frame before the cut still there and no
        /// record the intact log did not hold (on one shard, exactly the
        /// records before the cut); every mid-frame cut is reported as
        /// `Corrupt`. No cut panics.
        #[test]
        fn truncation_at_every_byte_boundary(
            recs in proptest::collection::vec((0u8..3, 0u32..4, 0u32..4), 2..8),
        ) {
            for_each_damage(&recs, cuts, |Damaged { full, frames, at: cut, log, .. }| {
                let (history, (scanned, end, _)) = read_whole(&log, 4);
                let whole = frames.iter().take_while(|f| f.end <= cut);
                if cut != 0 && whole.clone().last().is_none_or(|f| f.end != cut) {
                    prop_assert!(matches!(history, Err(SimError::Corrupt(_))), "mid-frame cut {}: {:?}", cut, history);
                    prop_assert!(matches!(end, Err(SimError::Corrupt(_))), "mid-frame cut {}: {:?}", cut, end);
                    return Ok(());
                }
                let Ok(history) = history else {
                    return Err(TestCaseError::fail(format!("boundary cut {cut}: {history:?}")));
                };
                prop_assert_eq!(end, Ok(()), "boundary cut {}", cut);
                prop_assert_eq!(&scanned, &history, "boundary cut {}", cut);
                for rec in &history {
                    prop_assert!(full.contains(rec), "phantom or altered record at cut {}: {:?}", cut, rec);
                }
                let kept: Vec<Lsn> = whole.filter(|f| f.tag == 0).map(|f| f.lsn).collect();
                for lsn in &kept {
                    prop_assert!(history.iter().any(|r| r.lsn == *lsn), "cut {} lost {:?}", cut, lsn);
                }
                if log.n_shards() == 1 {
                    prop_assert_eq!(history.len(), kept.len(), "boundary cut {} record count", cut);
                }
                Ok(())
            })?;
        }

        /// A single flipped bit anywhere in a shard's stable image —
        /// marker frames included — is DETECTED: with per-frame CRC-32s
        /// and nothing trusted, both readers report `Corrupt` at a sane
        /// offset, never panic, never yield silently altered records.
        #[test]
        fn bit_flips_are_always_detected(
            recs in proptest::collection::vec((0u8..3, 0u32..4, 0u32..4), 2..8),
            flip in 0usize..1usize << 16,
        ) {
            for_each_damage(&recs, one_flip(flip), |Damaged { len, at, log, .. }| {
                let (history, (_, end, _)) = read_whole(&log, 4);
                match history {
                    Err(SimError::Corrupt(off)) => prop_assert!(off <= len),
                    other => return Err(TestCaseError::fail(format!("flip at {at} went undetected: {other:?}"))),
                }
                prop_assert!(matches!(end, Err(SimError::Corrupt(_))), "flip at {}: {:?}", at, end);
                Ok(())
            })?;
        }

        /// Both readers are byte-for-byte the independent reference
        /// decoder on EVERY truncation of a shard's image: same records
        /// on boundary cuts, same `Corrupt` offset on torn ones, the
        /// scanner also with the same telemetry, from LSN 0 and from a
        /// seek, in batches of any size.
        #[test]
        fn readers_match_reference_decoder_on_any_truncation(
            recs in proptest::collection::vec((0u8..3, 0u32..4, 0u32..4), 2..8),
            max in 1usize..9,
        ) {
            for_each_damage(&recs, cuts, |Damaged { at: cut, log, .. }| {
                let upto = Lsn(u64::MAX);
                prop_assert_eq!(log.pit_records(upto), reference_pit(&log, upto), "cut {}", cut);
                for from in [Lsn::ZERO, Lsn(log.stable_lsn().0 / 2)] {
                    prop_assert_eq!(scan(&log, from, max), reference_scan(&log, from, max), "cut {} from {:?}", cut, from);
                }
                Ok(())
            })?;
        }

        /// Same equivalence under a single flipped bit anywhere in a
        /// shard's image: whatever the reference decoder makes of the
        /// damage, both readers make of it identically.
        #[test]
        fn readers_match_reference_decoder_under_bit_flips(
            recs in proptest::collection::vec((0u8..3, 0u32..4, 0u32..4), 2..8),
            flip in 0usize..1usize << 16,
            max in 1usize..9,
        ) {
            for_each_damage(&recs, one_flip(flip), |Damaged { at, log, .. }| {
                let upto = Lsn(u64::MAX);
                prop_assert_eq!(log.pit_records(upto), reference_pit(&log, upto), "flip at {}", at);
                for from in [Lsn::ZERO, Lsn(log.stable_lsn().0 / 2)] {
                    prop_assert_eq!(scan(&log, from, max), reference_scan(&log, from, max), "flip at {} from {:?}", at, from);
                }
                Ok(())
            })?;
        }
    }

    /// The verified extent's discipline: only a repair's CRC walk sets
    /// it; a crash resets it, a rollback clamps it, a drain rebases it,
    /// and appends never extend it — so a frame outside it, or damaged
    /// while the system was down, is still checksummed.
    #[test]
    fn each_frame_is_verified_once_per_restart() {
        let mut log: ShardedLog<Rec> = ShardedLog::new(2);
        for i in 0..24u32 {
            log.append(Rec(vec![i % 4], u64::from(i))).unwrap();
            if i % 3 == 2 {
                log.flush_all();
            }
        }
        let lens = |log: &ShardedLog<Rec>| -> Vec<usize> {
            let live = log.live_bytes_by_shard().into_iter();
            live.map(|len| len as usize).collect()
        };
        assert_eq!(extents(&log), [0, 0], "nothing is trusted before a repair");
        log.crash();
        assert_eq!(extents(&log), [0, 0]);
        log.repair_tail();
        let repaired = lens(&log);
        assert_eq!(extents(&log), repaired, "the repair verified every frame");

        // Appends never extend it, and a flip past it is caught.
        log.append(Rec(vec![0], 100)).unwrap();
        log.append(Rec(vec![1], 101)).unwrap();
        log.flush_all();
        assert_eq!(extents(&log), repaired);
        let (len, full) = (lens(&log)[0], scan(&log, Lsn::ZERO, 4));
        flip(&mut log, 0, len - 1, 0);
        assert!(matches!(
            scan(&log, Lsn::ZERO, 4).1,
            Err(SimError::Corrupt(_))
        ));
        flip(&mut log, 0, len - 1, 0);
        assert_eq!(scan(&log, Lsn::ZERO, 4), full);

        // A global drain, then a per-shard one, rebase it.
        let before = (extents(&log), lens(&log));
        log.archive_prefix(Lsn(7)).unwrap();
        let drained: Vec<usize> = (before.1.iter().zip(lens(&log)))
            .map(|(b, a)| b - a)
            .collect();
        let rebased: Vec<usize> = (before.0.iter().zip(&drained))
            .map(|(e, d)| e - d)
            .collect();
        assert!(drained.iter().all(|&d| d > 0));
        assert_eq!(extents(&log), rebased);
        let before = (extents(&log)[1], lens(&log)[1]);
        log.archive_shard_prefix(1, Lsn(13)).unwrap();
        assert!(lens(&log)[1] < before.1);
        assert_eq!(extents(&log)[1], before.0 - (before.1 - lens(&log)[1]));
        assert_eq!(scan(&log, Lsn::ZERO, 4), reference_scan(&log, Lsn::ZERO, 4));

        // A rollback clamps it.
        let mut rolled = log.clone();
        let first_frame = read_frame(rolled.shards[0].stable_bytes(), 0, 0)
            .unwrap()
            .end;
        rolled.shards[0].rollback_to(first_frame);
        assert_eq!(extents(&rolled)[0], first_frame);

        // A crash resets it: a record damaged while the system was down
        // — here the last byte of its value, so it still parses — is
        // caught by the scan before the repair, not read as trusted.
        log.append(Rec(vec![1], 102)).unwrap();
        log.flush_all();
        log.crash();
        log.repair_tail();
        let last = lens(&log)[1] - 1;
        assert_eq!(extents(&log)[1], last + 1);
        flip(&mut log, 1, last, 3);
        log.crash();
        assert_eq!(extents(&log), [0, 0]);
        assert!(matches!(
            scan(&log, Lsn::ZERO, 4).1,
            Err(SimError::Corrupt(_))
        ));
        log.repair_tail();
        assert_eq!(extents(&log), lens(&log));
        assert_eq!(scan(&log, Lsn::ZERO, 4), reference_scan(&log, Lsn::ZERO, 4));
    }

    /// FNV-1a, the checksum the wire-format pins are stated in.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// One fixed append/force script; returns each shard's stable-image
    /// checksum. Single-page records, a multi-page record (spanning
    /// shards when there are several), a page-less broadcast, a partial
    /// force that leaves a tail (on four shards a cross-shard group, so
    /// `Open`/`Close` brackets are in the image), a single-shard force,
    /// then `flush_all`.
    fn wire_script(n: usize) -> Vec<u64> {
        let mut log: ShardedLog<Rec> = ShardedLog::new(n);
        for i in 0..12u32 {
            log.append(Rec(vec![i % 8], u64::from(i) * 7)).unwrap();
        }
        log.append(Rec(vec![1, 2, 5], 100)).unwrap();
        log.append(Rec(vec![], 101)).unwrap();
        log.flush(Lsn(9));
        assert_eq!(log.stable_lsn(), Lsn(9));
        assert_eq!(log.last_lsn(), Lsn(14), "the partial force leaves a tail");
        log.flush(Lsn(10));
        log.append(Rec(vec![3], 102)).unwrap();
        log.flush_all();
        assert_eq!(log.stable_lsn(), Lsn(15));
        log.shards.iter().map(|s| fnv(s.stable_bytes())).collect()
    }

    /// The constants were computed by this script on the tree whose
    /// tail still held decoded records and whose force encoded them:
    /// with [`reference_decode`], they are what "the stable bytes did
    /// not change" means.
    #[test]
    fn wire_format_is_pinned() {
        assert_eq!(wire_script(1), [0xe5c0_e807_5096_c19c]);
        let four = [
            0xbd92_90c4_93b6_d4d2,
            0x1647_4b14_6ae3_fb2d,
            0xf285_66d8_79f8_640d,
            0x73e5_26b1_b644_46d1,
        ];
        assert_eq!(wire_script(4), four);
    }

    /// Counts the trait calls an append + force costs.
    #[derive(Clone, Debug)]
    struct Counted(u32);

    static ENCODES: AtomicUsize = AtomicUsize::new(0);
    static WRITE_PAGES: AtomicUsize = AtomicUsize::new(0);

    impl LogPayload for Counted {
        fn encode(&self, buf: &mut Vec<u8>) -> SimResult<()> {
            ENCODES.fetch_add(1, Ordering::Relaxed);
            codec::put_u32(buf, self.0);
            Ok(())
        }
        fn decode(input: &[u8], pos: &mut usize) -> SimResult<Self> {
            Ok(Counted(codec::get_u32(input, pos)?))
        }
        fn write_pages(&self) -> Vec<PageId> {
            WRITE_PAGES.fetch_add(1, Ordering::Relaxed);
            vec![PageId(self.0)]
        }
    }

    #[test]
    fn a_record_is_encoded_once_however_it_is_forced() {
        let mut log: ShardedLog<Counted> = ShardedLog::new(4);
        for i in 0..40 {
            log.append(Counted(i)).unwrap();
            if i % 7 == 0 {
                log.flush(Lsn(u64::from(i)));
            }
        }
        log.flush_all();
        assert_eq!(log.pit_records(log.stable_lsn()).unwrap().len(), 40);
        assert_eq!(ENCODES.load(Ordering::Relaxed), 40);
        assert_eq!(WRITE_PAGES.load(Ordering::Relaxed), 40);
    }

    /// Encodes until its value says the field is too small.
    #[derive(Clone, Debug)]
    struct Overflows(Vec<u32>);

    impl LogPayload for Overflows {
        fn encode(&self, buf: &mut Vec<u8>) -> SimResult<()> {
            codec::put_u8(buf, 9);
            Err(SimError::FieldOverflow {
                field: "test field",
                value: 1 << 40,
            })
        }
        fn decode(_: &[u8], pos: &mut usize) -> SimResult<Self> {
            Err(SimError::Corrupt(*pos))
        }
        fn write_pages(&self) -> Vec<PageId> {
            self.0.iter().map(|&p| PageId(p)).collect()
        }
    }

    #[test]
    fn a_payload_that_does_not_encode_assigns_no_lsn_and_touches_no_tail() {
        // One page, pages on two shards, and the page-less broadcast.
        for pages in [vec![1], vec![1, 2], vec![]] {
            let mut log: ShardedLog<Overflows> = ShardedLog::new(4);
            let refused = log.append(Overflows(pages));
            assert!(matches!(refused, Err(SimError::FieldOverflow { .. })));
            assert_eq!(log.last_lsn(), Lsn::ZERO);
            assert_eq!(log.appended_bytes(), 0);
            for shard in &log.shards {
                assert!(shard.tail_frames.is_empty() && shard.tail.is_empty());
                assert_eq!(shard.next_lsn, Lsn(1));
            }
            log.flush_all();
            assert_eq!((log.forces(), log.stable_lsn()), (0, Lsn::ZERO));
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shard_count_is_rejected() {
        let _ = ShardedLog::<Rec>::new(3);
    }

    /// 2¹⁶ passes the power-of-two check, but a page-less record's force
    /// would roster every shard in a marker whose count is 16 bits: it
    /// is refused where it is set, not at that first force.
    #[test]
    #[should_panic(expected = "at most 32768")]
    fn shard_count_past_the_roster_width_is_rejected() {
        let _ = ShardedLog::<Rec>::new(1 << 16);
    }
}
