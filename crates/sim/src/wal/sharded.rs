//! `ShardedLog`: N per-partition logs behind a global-LSN sequencer.
//!
//! Partition = page id routed with the *same* power-of-two mask as
//! [`ShardedStore`](crate::shard::ShardedStore), so the log shard that
//! holds a page's records is the store shard that holds the page — the
//! property that lets restart feed each store partition from its own
//! log scan with no cross-shard traffic. Each shard is an untyped
//! byte log (`LogManager`: its one frame image, append buffer,
//! group-commit fsync, seek index, per-page chains); with several it
//! runs in *sparse* mode: the sequencer assigns globally dense LSNs and
//! each shard stores a monotone subset of them. One shard is the single log:
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
//! ## Archive and point-in-time replay
//!
//! [`ShardedLog::archive_prefix`] drains the live prefix by moving each
//! shard's live origin past it (frame-exact): the drained frames stay
//! where they are, below the origin, as the shard's archive. Because
//! the image keeps every frame since LSN 1 until
//! [`ShardedLog::compact_archive`] cuts its front,
//! [`ShardedLog::history`] yields the exact record sequence `1..=upto`
//! from `archive ∥ live`, each record's body borrowed from the image —
//! replaying it from genesis state reproduces the state as of `upto`,
//! even after the live log has been drained past it (media recovery and
//! the crash auditor's `archive` leg; [`ShardedLog::pit_records`] is the
//! same sequence decoded).

use std::collections::{BTreeMap, BTreeSet};
use std::marker::PhantomData;

use redo_theory::log::Lsn;
use redo_workload::pages::PageId;

use crate::backend::BackendKind;
use crate::error::{SimError, SimResult};
use crate::fault::{FaultDecision, FaultInjector};

use super::framing::{read_frame, skip_frames_below, Frame, ScanStats};
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

/// The flush-group markers of one image's whole, checksum-valid frames
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
    mask: u32,
    next_lsn: Lsn,
    /// The globally dense stable end: every LSN in
    /// `first_stable..=stable` is durable on its home shard(s).
    stable: Lsn,
    first_stable: Lsn,
    next_epoch: u64,
    appended_bytes: u64,
    truncated_records: u64,
    /// Shared crash-point switchboard, consulted for every frame a
    /// force lands and before each shard's drain moves its origin.
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

    /// An empty sharded log on the given backend kind: on
    /// [`BackendKind::File`], one directory of files per shard.
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
        ShardedLog {
            shards: (0..n).map(|_| LogManager::on(kind)).collect(),
            mask: u32::try_from(n - 1).expect("shard count fits u32"),
            next_lsn: Lsn(1),
            stable: Lsn::ZERO,
            first_stable: Lsn(1),
            next_epoch: 1,
            appended_bytes: 0,
            truncated_records: 0,
            injector: FaultInjector::new(),
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

    /// Rewires the fault injector (callers like
    /// [`Db`](crate::db::Db) share it with the disk).
    pub(crate) fn share_injector(&mut self, injector: FaultInjector) {
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
                self.shards[s].flush_with_bracket(&self.injector, upto, None);
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
                    self.shards[s].flush_with_bracket(&self.injector, upto, Some(bracket));
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

    /// Every `sync_data` of every shard's file (0 in memory).
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

    /// Shard `s`'s backing file, when file-backed (tests damage it
    /// out-of-band).
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
        // Collect each shard's epoch evidence, the archived frames'
        // too: only stable, published prefixes ever drain, so a
        // participant whose portion of an epoch lies below its origin
        // closed that epoch long ago — its `Close` frame lies there, or
        // past it. A crash between one shard's drain and another's
        // would otherwise make the fully durable group look torn and
        // roll durable records back on the undrained shards. Only a
        // live `Open` is a place to roll back to.
        let n = self.shards.len();
        let mut open_at: Vec<BTreeMap<u64, usize>> = vec![BTreeMap::new(); n];
        let mut closed: BTreeMap<u64, BTreeSet<usize>> = BTreeMap::new();
        let mut roster: BTreeMap<u64, Vec<u16>> = BTreeMap::new();
        for (s, (shard, open_at)) in self.shards.iter().zip(&mut open_at).enumerate() {
            for (at, tag, epoch, participants) in markers(&shard.image) {
                if tag == CLOSE {
                    closed.entry(epoch).or_default().insert(s);
                    continue;
                }
                if at >= shard.live {
                    open_at.insert(epoch, at);
                }
                roster.entry(epoch).or_insert(participants);
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
            shards: vec![(ShardStream::seek(&self.shards[s], from), &self.shards[s])],
            upto: Lsn(u64::MAX),
            failed: false,
        }
    }

    /// The live records with LSNs from `from` through `upto`, every
    /// shard seeked through its own index, merged in LSN order and read
    /// in place: the walk [`ShardedScanner`] makes, with the same
    /// telemetry, for a reader that holds the log for the whole walk and
    /// so needs no copy of the bodies.
    #[must_use]
    pub fn suffix(&self, from: Lsn, upto: Lsn) -> History<'_> {
        History {
            shards: (self.shards.iter())
                .map(|shard| (ShardStream::seek(shard, from), shard))
                .collect(),
            merge: LsnMerge::new(self.shards.len()),
            upto,
            failed: false,
        }
    }

    /// Drains every stable frame with LSN < `below` from the live log,
    /// per shard, by moving the shard's live origin past it: the frames
    /// stay in the image as its archive, and the seek index and chains
    /// drop their entries below the new origin. No byte is copied and
    /// nothing is written. Returns the live bytes reclaimed (== bytes
    /// newly archived). The caller must have established that no
    /// recovery can ever need those records from the live log — `below`
    /// is the redo-start LSN of a *published* checkpoint (appended,
    /// forced, and installed via the master pointer swing); the history
    /// still exists — [`ShardedLog::history`] reads across the
    /// boundary. `below` is clamped to the stable end, so records not
    /// yet stable are never touched, and a bound at or below
    /// [`ShardedLog::first_stable`] (including one from a stale or
    /// replayed checkpoint) is a no-op.
    ///
    /// Before each shard's origin moves, the drain is a faultable crash
    /// point. A crash there leaves the shards before it drained and the
    /// rest not (and the log's `first_stable` unmoved): every frame is
    /// still in its image, and a post-recovery retry completes the
    /// drain.
    ///
    /// # Errors
    ///
    /// [`SimError::Corrupt`] at the offending offset if a single log's
    /// image is not the dense LSN run its bookkeeping promises — the
    /// walk would land mid-sequence (e.g. `below` names an LSN the
    /// image skips) and draining there would retire records the
    /// checkpoint still needs. Every shard is planned before any is
    /// touched, so an error leaves the whole log unchanged.
    pub fn archive_prefix(&mut self, below: Lsn) -> SimResult<u64> {
        let below = Lsn(below.0.min(self.stable.0 + 1));
        if below <= self.first_stable {
            return Ok(0);
        }
        if self.injector.tripped() {
            // The machine is already dead: no further stable I/O.
            return Ok(0);
        }
        // A lone shard holds the full dense sequence, so it keeps the
        // dense-run guards; a shard of several stores a sparse subset.
        let dense = self.shards.len() == 1;
        let mut plans = Vec::with_capacity(self.shards.len());
        for shard in &self.shards {
            plans.push(shard.plan_drain(below, dense)?);
        }
        let mut reclaimed = 0u64;
        for (shard, plan) in self.shards.iter_mut().zip(plans) {
            let Some(plan) = plan else { continue };
            if self.injector.on_atomic_write() != FaultDecision::Proceed {
                // Crash before this shard's origin moves: it keeps every
                // frame live and the log's boundary does not advance,
                // so the interrupted drain is retryable.
                return Ok(reclaimed);
            }
            reclaimed += shard.apply_drain(below, plan);
        }
        self.truncated_records += below.0 - self.first_stable.0;
        self.first_stable = below;
        Ok(reclaimed)
    }

    /// Destroys archived frames with LSN < `genesis`, per shard,
    /// returning the archive bytes reclaimed. `genesis` is clamped to
    /// [`ShardedLog::first_stable`], so only history below the
    /// completed-drain boundary is ever compacted — every cross-shard
    /// flush group entirely below that boundary has its closure evidence
    /// wholly in the archive, so dropping it can never make a live group
    /// look torn. The caller forfeits point-in-time replay below
    /// `genesis`, and with it media recovery altogether: a media restore
    /// replays the whole history from LSN 1, so after a compaction that
    /// reclaimed anything every restore of a lost page answers
    /// [`SimError::MediaLoss`] (no page has an archived image to replay
    /// from instead). Compaction is frame-exact (a structural header
    /// walk, no payload decode), so the surviving image is still a valid
    /// frame image, and it is the one path that moves bytes: each shard
    /// cuts its image's front and rewrites its file.
    pub fn compact_archive(&mut self, genesis: Lsn) -> u64 {
        let genesis = Lsn(genesis.0.min(self.first_stable.0));
        if self.injector.tripped() {
            return 0;
        }
        let shards = self.shards.iter_mut();
        shards.map(|shard| shard.compact_archive(genesis)).sum()
    }

    /// The lowest LSN still present in the *live* stable image.
    #[must_use]
    pub fn first_stable(&self) -> Lsn {
        self.first_stable
    }

    /// Live bytes reclaimed by prefix archiving over this log's
    /// lifetime (all of them archived, until a compaction).
    #[must_use]
    pub fn truncated_bytes(&self) -> u64 {
        self.shards.iter().map(LogManager::truncated_bytes).sum()
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

    /// Decodes the single logical record at `lsn`, searching each
    /// shard's image in turn (checkpoint records broadcast to every
    /// shard, so any shard's `archive ∥ live` holds the chain links
    /// delta-checkpoint analysis resolves through this). A live record
    /// is found through the shard's seek index, an archived one past a
    /// structural walk of the archive. Returns `Ok(None)` when no shard
    /// holds the record — a chain link pointing at compacted or
    /// never-stable history.
    ///
    /// # Errors
    ///
    /// [`SimError::Corrupt`] if the frame at the sought position does
    /// not decode.
    pub fn record_at_lsn(&self, lsn: Lsn) -> SimResult<Option<WalRecord<P>>> {
        if lsn == Lsn::ZERO || lsn > self.stable {
            return Ok(None);
        }
        for shard in &self.shards {
            // A stream stops at its first frame past `lsn`.
            let mut stream = if lsn >= shard.first_stable {
                ShardStream::seek(shard, lsn)
            } else {
                let pos = skip_frames_below(&shard.image, 0, lsn).0;
                ShardStream {
                    pos,
                    ..ShardStream::default()
                }
            };
            if let Some(rec) = stream.next(shard, lsn)? {
                let payload = rec.payload.parse(P::decode)?;
                return Ok(Some(WalRecord { lsn, payload }));
            }
        }
        Ok(None)
    }

    /// Total bytes archived: every shard's image below its origin.
    #[must_use]
    pub fn archived_bytes(&self) -> u64 {
        self.shards.iter().map(|shard| shard.live as u64).sum()
    }

    /// The per-page chain for `page`, served by its home shard. Offsets
    /// are into that shard's image; resolve them with
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

    /// Every writer chain, from each shard's own map in one walk — no
    /// lookup per page: `(page, chain)` for each page with a stable
    /// chained record, once, shard by shard and in id order within a
    /// shard. A shard yields only its *home* pages' chains, the whole
    /// [`ShardedLog::page_chain`] of each (as [`ShardedLog::chained_pages`]).
    pub fn page_chains(&self) -> impl Iterator<Item = (PageId, &[(Lsn, u64)])> + '_ {
        let shards = self.shards.iter().enumerate();
        shards.flat_map(move |(s, shard)| {
            (shard.page_chains()).filter(move |&(page, _)| self.shard_of(page) == s)
        })
    }

    /// Every cross-reader chain, from each shard's own map in one walk:
    /// `(page, chain)`, shard by shard and in id order within a shard.
    /// A reader is stored with the pages it writes, so a page comes
    /// once from every shard holding one of its readers, and each chain
    /// is that shard's part of [`ShardedLog::readers_of`].
    pub fn reader_chains(&self) -> impl Iterator<Item = (PageId, &[(Lsn, u64)])> + '_ {
        self.shards.iter().flat_map(LogManager::reader_chains)
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

    /// The single stable record at image offset `off` of shard `s` —
    /// the random-access read a [`ShardedLog::page_chain`] entry (in the
    /// page's [home shard](ShardedLog::shard_of)) or a
    /// [`ShardedLog::readers_of`] entry authorizes — its body borrowed
    /// from the image, not decoded, and its checksum verified unless a
    /// repair already did.
    ///
    /// # Errors
    ///
    /// [`SimError::Corrupt`] if `off` is not a well-formed frame start
    /// (or holds a marker frame, which no chain entry ever names).
    pub fn record_in(&self, s: usize, off: u64) -> SimResult<WalRecord<RecordBody<'_>>> {
        let pos = usize::try_from(off).map_err(|_| SimError::Corrupt(usize::MAX))?;
        let shard = &self.shards[s];
        let (frame, body) = shard_frame(&shard.image, pos, shard.trusted(pos))?;
        let payload = body.ok_or(SimError::Corrupt(pos))?;
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
    /// whole image, `archive ∥ live` — one k-way merge, each body
    /// borrowed, none decoded, each checksum verified unless a repair
    /// already did. Because the image keeps complete history from LSN
    /// 1, replaying it against genesis state reproduces the state as of
    /// `upto`, even after [`ShardedLog::archive_prefix`] has drained the
    /// live prefix past it.
    ///
    /// Marker frames are skipped and broadcast copies yielded once.
    /// Each image is read up to its first frame past `upto`.
    ///
    /// Yields [`SimError::Corrupt`] once, then ends, if an image's bytes
    /// do not parse (repair the live tail first after a crash).
    #[must_use]
    pub fn history(&self, upto: Lsn) -> History<'_> {
        let n = self.shards.len();
        History {
            shards: (self.shards.iter())
                .map(|shard| (ShardStream::default(), shard))
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
    /// [`SimError::Corrupt`] if any image's bytes do not parse (repair
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
/// image that holds it, or from the buffer a [`ShardedScanner`] copied
/// a batch into.
#[derive(Clone, Copy, Debug)]
pub struct RecordBody<'a> {
    /// The payload, through the end of its frame.
    bytes: &'a [u8],
    /// Where `bytes` starts in its shard's image: the origin of every
    /// offset a [`SimError::Corrupt`] reports.
    at: usize,
}

impl<'a> RecordBody<'a> {
    /// Reads the payload with `parse`, which must consume all of it —
    /// [`LogPayload::decode`]'s shape, so a borrowing reader and the
    /// owned decode ([`ShardedLog::pit_records`]) see the same bytes and
    /// report a [`SimError::Corrupt`] at the same image offsets.
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
        let in_image = |e| match e {
            SimError::Corrupt(off) => SimError::Corrupt(self.at + off),
            e => e,
        };
        let value = parse(self.bytes, &mut pos).map_err(in_image)?;
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

/// The frame of a shard image at `pos` (a frame boundary), its checksum
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
    shards: Vec<(ShardStream, &'a LogManager)>,
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
            let (stream, shard) = &mut shards[s];
            stream.next(shard, upto)
        });
        self.failed = next.is_err();
        next.map(|next| next.map(|(_, rec)| rec)).transpose()
    }
}

/// One shard's read position in its image, yielding its record frames
/// as bodies in LSN order. It holds no borrow, so a scan can keep it
/// between reads of the log.
#[derive(Clone, Debug, Default)]
struct ShardStream {
    pos: usize,
    /// Set once the stream has met its end: the image's, or a frame
    /// past `upto`.
    done: bool,
    /// Every frame read, markers included, plus the seek that placed
    /// the stream.
    stats: ScanStats,
}

impl ShardStream {
    /// A stream over `shard`'s live frames from its first with
    /// LSN ≥ `from`, seeked through its index.
    fn seek(shard: &LogManager, from: Lsn) -> ShardStream {
        let (pos, stats) = shard.seek(from);
        ShardStream {
            pos,
            stats,
            ..ShardStream::default()
        }
    }

    /// The next record frame of `shard`'s image with LSN ≤ `upto`; the
    /// image is read up to its first frame past it.
    fn next<'a>(
        &mut self,
        shard: &'a LogManager,
        upto: Lsn,
    ) -> SimResult<Option<WalRecord<RecordBody<'a>>>> {
        let bytes = &shard.image[..];
        while !self.done && self.pos < bytes.len() {
            let (frame, body) = shard_frame(bytes, self.pos, shard.trusted(self.pos))?;
            if frame.lsn > upto {
                break;
            }
            self.stats.records_decoded += 1;
            self.stats.bytes_scanned += (frame.end - self.pos) as u64;
            self.pos = frame.end;
            if let Some(payload) = body {
                let lsn = frame.lsn;
                return Ok(Some(WalRecord { lsn, payload }));
            }
        }
        self.done = true;
        Ok(None)
    }
}

/// The k-way step both merged scans — [`ShardedScanner`] over the live
/// frames, [`History`] over `archive ∥ live` — take: one head per shard,
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
    streams: Vec<ShardStream>,
    /// One head per shard: the record's LSN and where its body lies in
    /// the shard's image.
    merge: LsnMerge<std::ops::Range<usize>>,
    /// The current batch's bodies, back to back.
    buf: Vec<u8>,
    /// The current batch's records: LSN, body's image offset, body's
    /// end in `buf`.
    batch: Vec<(Lsn, usize, usize)>,
    failed: bool,
}

impl ShardedScanner {
    /// A scanner positioned at the first record with LSN ≥ `from`, each
    /// shard seeked through its own index.
    #[must_use]
    pub fn seek<P: LogPayload>(log: &ShardedLog<P>, from: Lsn) -> ShardedScanner {
        let streams = log
            .shards
            .iter()
            .map(|shard| ShardStream::seek(shard, from));
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
            let rec = streams[s].next(&log.shards[s], Lsn(u64::MAX))?;
            Ok(rec.map(|WalRecord { lsn, payload }| {
                let payload = payload.at..payload.at + payload.bytes.len();
                WalRecord { lsn, payload }
            }))
        };
        while !self.failed && self.batch.len() < max {
            match self.merge.pop(&mut next) {
                Ok(Some((s, WalRecord { lsn, payload }))) => {
                    let at = payload.start;
                    self.buf.extend_from_slice(&log.shards[s].image[payload]);
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

    /// An independent decoder of a shard image from offset `pos`, written
    /// against the documented format rather than the production reader:
    /// an 8-byte LE LSN, a 4-byte LE body length, a 4-byte LE CRC-32C
    /// over the first 12 header bytes plus the body, then the body — a
    /// tag byte, then a record's payload or a marker's 8-byte epoch,
    /// 2-byte roster count and 2-byte roster entries. It checks every
    /// checksum with the bitwise oracle, not the kernel under test, so
    /// it is the one oracle the reader is held to: a bug in the reader
    /// or the kernel cannot hide behind itself. Returns the frames before the
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
            let covered = [&bytes[start..start + 12], &bytes[start + FRAME_HEADER..end]].concat();
            if crate::backend::tests::bytewise(&covered) != stored_crc {
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

    /// Every frame of shard `s`'s image, markers included.
    fn shard_frames(log: &ShardedLog<Rec>, s: usize) -> Vec<RefFrame<Rec>> {
        let (frames, end) = reference_decode(&log.shards[s].image, 0);
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
            assert_eq!(rec.payload.parse(Rec::decode).unwrap().0, vec![i]);
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

    /// The LSNs [`ShardedLog::history`] yields through `upto`.
    fn history_lsns(log: &ShardedLog<Rec>, upto: Lsn) -> Vec<Lsn> {
        log.history(upto).map(|rec| rec.unwrap().lsn).collect()
    }

    /// `archive_prefix` has a faultable crash point before each shard's
    /// origin moves. Crash at every such point; no drained frame may be
    /// lost or doubled — the history is each LSN once, the images keep
    /// their lengths — and a post-recovery retry must complete the
    /// drain.
    fn assert_archive_crash_point_loses_nothing(kind_of: impl Fn() -> BackendKind) {
        for at in 1..=2u64 {
            for kind in [FaultKind::Clean, FaultKind::TornFlush { bytes: 3 }] {
                let mut log: ShardedLog<Rec> = ShardedLog::on(kind_of(), 2);
                for i in 0..4u32 {
                    log.append(Rec(vec![i % 2], u64::from(i))).unwrap();
                }
                log.flush_all();
                let full = stable(&log);
                let lens: Vec<usize> = log.shards.iter().map(|s| s.image.len()).collect();
                let whole: Vec<Lsn> = (1..=4).map(Lsn).collect();
                log.injector.arm(FaultPlan { at, kind });
                log.archive_prefix(Lsn(3)).unwrap();
                assert!(
                    log.injector.tripped(),
                    "at={at} {kind:?}: the crash point must fire"
                );
                log.injector.reset();
                log.crash();
                log.repair_tail();
                // Every frame survives, once, above or below its
                // shard's origin, and the boundary never advanced.
                assert_eq!(log.stable_lsn(), Lsn(4), "at={at} {kind:?}");
                assert_eq!(log.first_stable(), Lsn(1), "at={at} {kind:?}");
                assert_eq!(history_lsns(&log, Lsn(4)), whole, "at={at} {kind:?}");
                assert_eq!(log.pit_records(Lsn(4)).unwrap(), full, "at={at} {kind:?}");
                // The retry completes, copying nothing.
                log.archive_prefix(Lsn(3)).unwrap();
                assert_eq!(log.first_stable(), Lsn(3), "at={at} {kind:?}");
                assert_eq!(history_lsns(&log, Lsn(4)), whole, "at={at} {kind:?}");
                assert_eq!(log.pit_records(Lsn(4)).unwrap(), full, "at={at} {kind:?}");
                let after: Vec<usize> = log.shards.iter().map(|s| s.image.len()).collect();
                assert_eq!(after, lens, "at={at} {kind:?}");
            }
        }
    }

    #[test]
    fn archive_prefix_crash_point_loses_no_frames_in_memory() {
        assert_archive_crash_point_loses_nothing(|| BackendKind::Mem);
    }

    /// A drain interrupted *between shards* must not make a durable
    /// cross-shard group look torn: shard 0's `Open`/`Close` markers for
    /// the group fall below its origin while shard 1 still holds its
    /// live copies, and the crash-time epoch analysis has to find shard
    /// 0's closure evidence in its archive — otherwise it would roll
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
        // Interrupt the drain after shard 0 drained but before shard 1
        // did: the group now lies in shard 0's archive and shard 1's
        // live log.
        log.injector.arm(FaultPlan {
            at: 2,
            kind: FaultKind::Clean,
        });
        log.archive_prefix(Lsn(3)).unwrap();
        assert!(log.injector.tripped(), "the inter-shard crash point fires");
        assert!(log.shards[0].live > 0 && log.shards[1].live == 0);
        log.injector.reset();
        log.crash();
        log.repair_tail();
        assert_eq!(
            log.stable_lsn(),
            Lsn(3),
            "the archived group is closed; nothing rolls back"
        );
        let whole: Vec<Lsn> = (1..=3).map(Lsn).collect();
        assert_eq!(history_lsns(&log, Lsn(3)), whole);
        assert_eq!(log.pit_records(Lsn(3)).unwrap(), full);
        // The retry completes the drain; history is still whole.
        log.archive_prefix(Lsn(3)).unwrap();
        assert_eq!(log.first_stable(), Lsn(3));
        assert_eq!(history_lsns(&log, Lsn(3)), whole);
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
    /// shard's image decoded by [`reference_decode`] into a map keyed by
    /// LSN, the first copy of each LSN kept, each image read up to its
    /// first frame past `upto`.
    fn reference_pit(log: &ShardedLog<Rec>, upto: Lsn) -> SimResult<Vec<WalRecord<Rec>>> {
        let mut merged: BTreeMap<Lsn, Rec> = BTreeMap::new();
        for shard in &log.shards {
            let (frames, end) = reference_decode::<Rec>(&shard.image, 0);
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
        /// random LSNs; drains a fault interrupts before some shard's
        /// origin moves — left as they are, or retried — and archive
        /// compaction.
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
                        // Interrupted before the first or second
                        // shard's origin moves, then maybe retried
                        // after the crash.
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
                            // Interrupted after shard `a`'s part, so the
                            // shards up to it are drained and the rest are
                            // not — the shard-partial drain state.
                            log.injector.arm(FaultPlan { at: (a as usize % shards) as u64 + 2, kind: FaultKind::Clean });
                            log.archive_prefix(pick(&log, b)).unwrap();
                            log.injector.reset();
                            log.crash();
                            log.repair_tail();
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

    /// The reader the scanner is held to: each shard's image decoded
    /// by [`reference_decode`] — checksum, payload and all — from the
    /// shard's seek position into owned records, merged through the
    /// same [`LsnMerge`], in batches of at most `max`.
    fn reference_scan(log: &ShardedLog<Rec>, from: Lsn, max: usize) -> Scan<Rec> {
        let mut stats = Vec::new();
        let mut shards = Vec::new();
        for shard in &log.shards {
            let (pos, seeked) = shard.seek(from);
            let (frames, end) = reference_decode::<Rec>(&shard.image, pos);
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

    /// Rewrites shard `s`'s image with `edit`, as a failing medium
    /// would: under the log's bookkeeping, and through to its file.
    pub(crate) fn damage<P>(log: &mut ShardedLog<P>, s: usize, edit: impl FnOnce(&mut Vec<u8>)) {
        let shard = &mut log.shards[s];
        edit(&mut shard.image);
        if let Some(medium) = &mut shard.medium {
            medium.rewrite(&shard.image);
        }
    }

    /// Flips bit `bit` of byte `at` of shard `s`'s image.
    fn flip<P>(log: &mut ShardedLog<P>, s: usize, at: usize, bit: u32) {
        damage(log, s, |image| image[at] ^= 1 << bit);
    }

    /// Each shard's verified extent, from its live origin.
    fn extents(log: &ShardedLog<Rec>) -> Vec<usize> {
        let extent = |shard: &LogManager| shard.verified.saturating_sub(shard.live);
        log.shards.iter().map(extent).collect()
    }

    proptest! {
        /// The one reader is the reference merge: from any seek LSN and
        /// in batches of any size, the same records decoded, the same
        /// telemetry, and the same `Corrupt` offset — over logs of
        /// single-page, multi-page (broadcast, spanning flush groups)
        /// and page-less records on 1, 2 and 4 shards; after global
        /// drains and drains a fault interrupted at any shard, which
        /// leave some shards drained and some not; on images torn by a
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
                    8 => {
                        // Interrupted after shard `a`'s part, so the
                        // shards up to it are drained and the rest are
                        // not — the shard-partial drain state.
                        log.injector.arm(FaultPlan { at: (a as usize % shards) as u64 + 2, kind: FaultKind::Clean });
                        log.archive_prefix(pick(&log, b)).unwrap();
                        log.injector.reset();
                        log.crash();
                        log.repair_tail();
                    }
                    9 => {
                        // A drain interrupted before the first or
                        // second shard's origin moves.
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
                let shard = &log.shards[s];
                let (trusted, len) = (shard.verified.max(shard.live), shard.image.len());
                if len > trusted {
                    flip(&mut log, s, trusted + at % (len - trusted), bit);
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
            assert_eq!(m.image, f.image, "backends diverge on the durable image");
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
                let len = log.shards[s].image.len();
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
        /// marker frames included — is DETECTED: with per-frame CRC-32Cs
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
    /// it; a crash resets it, a rollback clamps it, a drain leaves the
    /// frames it archives outside it, and appends never extend it — so a frame outside it, or damaged
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
            log.shards.iter().map(|s| s.image.len() - s.live).collect()
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

        // A global drain leaves the archived frames outside it, and so
        // does the part of a drain a crash interrupts after shard 0's:
        // on shard 0 alone.
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
        let before = (extents(&log), lens(&log));
        log.injector.arm(FaultPlan {
            at: 2,
            kind: FaultKind::Clean,
        });
        log.archive_prefix(Lsn(13)).unwrap();
        assert!(lens(&log)[0] < before.1[0]);
        assert_eq!(
            extents(&log)[0],
            before.0[0] - (before.1[0] - lens(&log)[0])
        );
        assert_eq!(
            (extents(&log)[1], lens(&log)[1]),
            (before.0[1], before.1[1])
        );
        assert_eq!(scan(&log, Lsn::ZERO, 4), reference_scan(&log, Lsn::ZERO, 4));
        log.injector.reset();
        log.crash();
        log.repair_tail();

        // A rollback clamps it.
        let mut rolled = log.clone();
        let shard = &mut rolled.shards[0];
        let first_frame = read_frame(&shard.image, shard.live, 0).unwrap().end;
        shard.rollback_to(first_frame);
        assert_eq!(extents(&rolled)[0], first_frame - rolled.shards[0].live);

        // A crash resets it: a record damaged while the system was down
        // — here the last byte of its value, so it still parses — is
        // caught by the scan before the repair, not read as trusted.
        log.append(Rec(vec![1], 102)).unwrap();
        log.flush_all();
        log.crash();
        log.repair_tail();
        assert_eq!(extents(&log)[1], lens(&log)[1]);
        let last = log.shards[1].image.len() - 1;
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

    /// A restart that repairs twice — a media restore repairs, then the
    /// recovery it runs repairs again — walks each frame once: the
    /// second repair starts past the frames the first verified, so it
    /// drops nothing and every read stays as trusted as after the
    /// first. It walks what was forced since, and a crash hands the
    /// whole live log back to the next repair.
    #[test]
    fn a_second_repair_walks_only_what_the_first_did_not_verify() {
        let mut log: ShardedLog<Rec> = ShardedLog::new(2);
        for i in 0..24u32 {
            log.append(Rec(vec![i % 4], u64::from(i))).unwrap();
            if i % 3 == 2 {
                log.flush_all();
            }
        }
        log.append(Rec(vec![0], 99)).unwrap();
        log.injector.arm(FaultPlan {
            at: 1,
            kind: FaultKind::TornFlush { bytes: 5 },
        });
        log.flush_all();
        log.injector.reset();
        log.crash();
        assert!(log.repair_tail() > 0, "the first repair drops the tear");
        let (repaired, full) = (extents(&log), scan(&log, Lsn::ZERO, 4));
        assert_eq!(log.repair_tail(), 0);
        assert_eq!(extents(&log), repaired);
        assert_eq!(scan(&log, Lsn::ZERO, 4), full);

        // A frame inside the extent is not walked again: a bit flipped
        // there since the first repair drops nothing.
        let lens = |log: &ShardedLog<Rec>| -> Vec<usize> {
            log.shards.iter().map(|s| s.image.len() - s.live).collect()
        };
        let live = log.shards[0].live;
        flip(&mut log, 0, live + FRAME_HEADER, 0);
        assert_eq!(log.repair_tail(), 0);
        assert_eq!(extents(&log), repaired);

        // What was forced since is walked, and verified.
        log.append(Rec(vec![1], 100)).unwrap();
        log.flush_all();
        assert_eq!(log.repair_tail(), 0);
        assert_eq!(extents(&log), lens(&log));

        // After a crash the whole live log is walked again, and the
        // flipped frame is where the repair cuts.
        log.crash();
        assert!(log.repair_tail() > 0);
        assert_eq!(lens(&log)[0], 0);
    }

    /// FNV-1a, the checksum the wire-format pins are stated in.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// Each image's bytes with every frame's four CRC bytes zeroed:
    /// what the image says apart from its checksums.
    fn crc_masked(image: &[u8]) -> Vec<u8> {
        let mut masked = image.to_vec();
        let mut pos = 0;
        while let Some((_, end)) = crate::wal::framing::frame_header(image, pos) {
            masked[pos + 12..pos + FRAME_HEADER].fill(0);
            pos = end;
        }
        assert_eq!(pos, image.len(), "the image is whole frames");
        masked
    }

    /// One fixed append/force script; returns each shard's stable-image
    /// checksum, and the checksum of that image with its frames' CRC
    /// fields zeroed ([`crc_masked`]). Single-page records, a multi-page
    /// record (spanning shards when there are several), a page-less
    /// broadcast, a partial force that leaves a tail (on four shards a
    /// cross-shard group, so `Open`/`Close` brackets are in the image),
    /// a single-shard force, then `flush_all`.
    fn wire_script(n: usize) -> Vec<(u64, u64)> {
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
        (log.shards.iter())
            .map(|s| (fnv(&s.image), fnv(&crc_masked(&s.image))))
            .collect()
    }

    /// Two pins, both computed by [`wire_script`]. The masked ones
    /// were computed on the tree whose frames carried IEEE CRC-32s —
    /// and whose tail, before that, still held decoded records — so
    /// that no byte but a checksum moved when the checksum became
    /// CRC-32C. The full ones hold the CRC-32C images. With
    /// [`reference_decode`], they are what "the stable bytes did not
    /// change" means.
    #[test]
    fn wire_format_is_pinned() {
        let (one, four) = (wire_script(1), wire_script(4));
        let masked = |pins: &[(u64, u64)]| pins.iter().map(|p| p.1).collect::<Vec<_>>();
        let full = |pins: &[(u64, u64)]| pins.iter().map(|p| p.0).collect::<Vec<_>>();
        assert_eq!(masked(&one), [0xe6ca_db7b_7ad5_2a02]);
        let four_masked = [
            0x39d5_8480_e102_809b,
            0x4e69_9d20_5081_c70d,
            0x7b33_9c17_944e_80fb,
            0x2e46_3208_497e_705b,
        ];
        assert_eq!(masked(&four), four_masked);
        assert_eq!(full(&one), [0xe92e_4afe_3087_babb]);
        let four_full = [
            0x6c26_a117_aa01_5941,
            0xaa51_ab7f_2dcd_0360,
            0x7232_2487_0434_6089,
            0xcacf_9cf0_f29e_ae07,
        ];
        assert_eq!(full(&four), four_full);
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
            }
            log.flush_all();
            assert_eq!((log.forces(), log.stable_lsn()), (0, Lsn::ZERO));
        }
    }

    /// A record writing `.0` and reading `.1` besides: what fills both
    /// the writer and the reader chains.
    #[derive(Clone, Debug)]
    struct ReadWrite(Vec<u32>, Vec<u32>);

    impl LogPayload for ReadWrite {
        fn encode(&self, buf: &mut Vec<u8>) -> SimResult<()> {
            for pages in [&self.0, &self.1] {
                codec::put_u16(buf, codec::count_u16("test page count", pages.len())?);
                pages.iter().for_each(|&p| codec::put_u32(buf, p));
            }
            Ok(())
        }
        fn decode(input: &[u8], pos: &mut usize) -> SimResult<Self> {
            let mut pages = || -> SimResult<Vec<u32>> {
                let n = codec::get_u16(input, pos)?;
                (0..n).map(|_| codec::get_u32(input, pos)).collect()
            };
            Ok(ReadWrite(pages()?, pages()?))
        }
        fn write_pages(&self) -> Vec<PageId> {
            self.0.iter().map(|&p| PageId(p)).collect()
        }
        fn cross_read_pages(&self) -> Vec<PageId> {
            self.1.iter().map(|&p| PageId(p)).collect()
        }
    }

    /// Everything one shard answers from: its image and live origin,
    /// its stable LSN, its seek index, and its writer and reader chains.
    type ShardView = (
        Vec<u8>,
        usize,
        Lsn,
        Vec<(Lsn, u64)>,
        BTreeMap<PageId, Vec<(Lsn, u64)>>,
        BTreeMap<PageId, Vec<(Lsn, u64)>>,
    );

    fn shard_view(shard: &LogManager) -> ShardView {
        (
            shard.image.clone(),
            shard.live,
            shard.stable_lsn,
            shard.seek_index.clone(),
            shard.page_chains.clone(),
            shard.reader_chains.clone(),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The log-side twin of the disk's
        /// `mem_and_file_disks_answer_alike`: a mem and a file log, on 1
        /// and on 4 shards, driven in lockstep through single-page,
        /// read-write, multi-page and page-less appends, single- and
        /// cross-shard forces, a `TornFlush` or `Clean` fault inside a
        /// force, a fault at a drain's crash point before a shard's
        /// origin moves, crashes, repairs, drains and compactions. After
        /// every step each shard answers alike on both, and each file
        /// holds exactly its shard's image: the medium only persists and
        /// reloads it.
        #[test]
        fn mem_and_file_logs_answer_alike(
            wide in 0u8..2,
            steps in proptest::collection::vec((0u8..12, 0u32..8, 0u32..8), 1..60),
        ) {
            let shards = if wide == 1 { 4 } else { 1 };
            let mut logs: [ShardedLog<ReadWrite>; 2] =
                [BackendKind::Mem, BackendKind::File].map(|kind| ShardedLog::on(kind, shards));
            let pick = |log: &ShardedLog<ReadWrite>, x: u32| {
                let (first, stable) = (log.first_stable().0, log.stable_lsn().0);
                Lsn(first + u64::from(x) * (stable + 1).saturating_sub(first) / 7)
            };
            for (i, &(what, a, b)) in steps.iter().enumerate() {
                let mut answers = Vec::new();
                for log in &mut logs {
                    let answer = match what {
                        0 => format!("{:?}", log.append(ReadWrite(vec![a], vec![]))),
                        1 => format!("{:?}", log.append(ReadWrite(vec![a], vec![b]))),
                        2 => format!("{:?}", log.append(ReadWrite(vec![a, b], vec![]))),
                        3 => format!("{:?}", log.append(ReadWrite(vec![], vec![]))),
                        4 => format!("{:?}", log.flush(Lsn(log.stable_lsn().0 + u64::from(a)))),
                        5 => format!("{:?}", log.flush_all()),
                        6 => {
                            let kind = if b % 2 == 0 {
                                FaultKind::Clean
                            } else {
                                FaultKind::TornFlush { bytes: b as usize }
                            };
                            log.injector.arm(FaultPlan { at: u64::from(a) + 1, kind });
                            log.flush_all();
                            let tripped = log.injector.tripped();
                            log.injector.reset();
                            log.crash();
                            format!("{tripped}")
                        }
                        7 => {
                            log.injector.arm(FaultPlan { at: u64::from(b % 2) + 1, kind: FaultKind::Clean });
                            let drained = log.archive_prefix(pick(log, a));
                            let tripped = log.injector.tripped();
                            log.injector.reset();
                            log.crash();
                            format!("{drained:?} {tripped}")
                        }
                        8 => format!("{:?}", log.crash()),
                        9 => format!("{}", log.repair_tail()),
                        10 => format!("{:?}", log.archive_prefix(pick(log, a))),
                        _ => format!("{}", log.compact_archive(pick(log, a))),
                    };
                    answers.push(answer);
                }
                let [mem, file] = &logs;
                let step = format!("step {i}: {what} ({a}, {b})");
                prop_assert_eq!(&answers[0], &answers[1], "{} answered", step);
                prop_assert_eq!(mem.stable_lsn(), file.stable_lsn(), "{} stable_lsn", step);
                prop_assert_eq!(mem.first_stable(), file.first_stable(), "{} first_stable", step);
                for (s, (m, f)) in mem.shards.iter().zip(&file.shards).enumerate() {
                    prop_assert_eq!(shard_view(m), shard_view(f), "{} shard {}", step, s);
                    let wal = std::fs::read(f.path().unwrap()).unwrap();
                    prop_assert_eq!(&wal, &f.image, "{} shard {} wal.log", step, s);
                }
            }
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
