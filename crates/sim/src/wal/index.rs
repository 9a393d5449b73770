//! Maintenance of the LSN → byte-offset structures over a shard's
//! frame image: the sparse seek index and the per-page record chains.
//! Their offsets are absolute into the image, `archive ∥ live`, and
//! every entry lies at or past the live origin.
//!
//! Both structures obey the same discipline — entries only ever point
//! at live frame starts the stable bookkeeping covers — so the prune,
//! the rebase, *and the guards that authorize a prefix drain in the
//! first place* are shared helpers. Duplicating any of this per index
//! (or, in a sharded log, per shard) is how the chain-discipline bug of
//! PR 7 would creep back in; everything funnels through here instead.

use std::collections::BTreeMap;

use redo_theory::log::Lsn;
use redo_workload::pages::PageId;

use crate::error::{SimError, SimResult};

use super::framing::{frame_header, skip_frames_below};

/// One seek-index entry every this many stable records. Small enough
/// that the post-seek header walk touches at most a handful of frames,
/// sparse enough that the index stays a rounding error next to the log.
pub const SEEK_INTERVAL: usize = 8;

/// Prunes an LSN → byte-offset index down to the covered prefix
/// `[0, pos)` left by a crash walk or tail repair: entries pointing at
/// or beyond `pos` (into a torn or out-of-band-truncated fragment), or
/// carrying an LSN above `max_lsn`, are dropped. This is the *single*
/// predicate for post-damage index maintenance; the seek index and the
/// per-page chains both go through it so they can never disagree about
/// what the surviving image covers.
pub(crate) fn prune_index_to_prefix(index: &mut Vec<(Lsn, u64)>, pos: usize, max_lsn: Lsn) {
    index.retain(|&entry| within_prefix(entry, pos, max_lsn));
}

/// Would [`prune_index_to_prefix`] keep every entry of `index`?
pub(crate) fn index_within_prefix(index: &[(Lsn, u64)], pos: usize, max_lsn: Lsn) -> bool {
    index
        .iter()
        .all(|&entry| within_prefix(entry, pos, max_lsn))
}

fn within_prefix((lsn, off): (Lsn, u64), pos: usize, max_lsn: Lsn) -> bool {
    (off as usize) < pos && lsn <= max_lsn
}

/// [`prune_index_to_prefix`] applied to every per-page chain; pages
/// whose chain empties are removed entirely.
pub(crate) fn prune_chains_to_prefix(
    chains: &mut BTreeMap<PageId, Vec<(Lsn, u64)>>,
    pos: usize,
    max_lsn: Lsn,
) {
    chains.retain(|_, chain| {
        prune_index_to_prefix(chain, pos, max_lsn);
        !chain.is_empty()
    });
}

/// Rebases an LSN → byte-offset index onto a new front of the image:
/// entries below byte `origin` are dropped, and the survivors shift
/// left by `cut` bytes. A drain moves the live origin and cuts nothing
/// (`cut` 0); an archive compaction cuts the image's front, below every
/// entry, and shifts them all.
pub(crate) fn rebase_index(index: &mut Vec<(Lsn, u64)>, origin: usize, cut: usize) {
    index.retain(|&(_, off)| off as usize >= origin);
    index.iter_mut().for_each(|(_, off)| *off -= cut as u64);
}

/// [`rebase_index`] applied to every per-page chain; pages whose chain
/// empties are removed entirely.
pub(crate) fn rebase_chains(
    chains: &mut BTreeMap<PageId, Vec<(Lsn, u64)>>,
    origin: usize,
    cut: usize,
) {
    chains.retain(|_, chain| {
        rebase_index(chain, origin, cut);
        !chain.is_empty()
    });
}

/// A validated plan to drain the stable prefix below some LSN: the new
/// live origin and how many frames lie below it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct DrainPlan {
    /// Byte offset of the new live origin (a frame boundary).
    pub pos: usize,
    /// Whole live frames below it.
    pub skipped: usize,
}

/// Plans a prefix drain: walks frame headers from the live origin
/// `live` to the cut point for `below` and applies every guard a drain
/// needs — the 1-based-origin assertion, the `below ≤ first_stable`
/// no-op, the stable-end clamp, and (for dense images) the density and
/// landed-LSN checks that refuse to cut where the image disagrees with
/// the bookkeeping. Centralizing the guards is what lets the sharded
/// log reuse them per shard without reintroducing the PR 7
/// chain-discipline bug: a shard plans with `dense = false` (it holds a
/// monotone *subset* of the global LSNs, so "landed exactly
/// `below - first_stable` frames in, on `below` itself" cannot hold
/// there) but gets the identical clamping, no-op, and boundary
/// discipline.
///
/// Returns `None` when there is nothing to drain. The caller mutates
/// nothing until a plan is in hand, so an error leaves the log
/// untouched.
///
/// # Errors
///
/// [`SimError::Corrupt`] at the offending offset if a dense image is
/// not the dense LSN run the bookkeeping promises — the walk would land
/// mid-sequence, and moving the origin there would retire records a
/// recovery may still need.
pub(crate) fn plan_prefix_drain(
    bytes: &[u8],
    live: usize,
    first_stable: Lsn,
    stable_lsn: Lsn,
    below: Lsn,
    dense: bool,
) -> SimResult<Option<DrainPlan>> {
    // The origin is 1-based and only ever advances; enforcing it here
    // keeps the `first_stable - 1` computations at the crash/reopen
    // sites from ever underflowing.
    assert!(
        first_stable.0 >= 1,
        "first_stable invariant violated: {first_stable:?} (must be >= 1)"
    );
    let below = Lsn(below.0.min(stable_lsn.0 + 1));
    if below <= first_stable {
        return Ok(None);
    }
    let (pos, skipped) = skip_frames_below(bytes, live, below);
    if pos == live {
        return Ok(None);
    }
    if dense {
        // The walk must have landed exactly `below - first_stable`
        // frames in, on a frame carrying `below` itself (or the image
        // end when the whole stable suffix is elided). Anything else
        // means the image is not dense where the bookkeeping says it is.
        if first_stable.0 + skipped as u64 != below.0 {
            return Err(SimError::Corrupt(pos));
        }
        match frame_header(bytes, pos) {
            Some((landed, _)) if landed != below => return Err(SimError::Corrupt(pos)),
            None if pos != bytes.len() => return Err(SimError::Corrupt(pos)),
            _ => {}
        }
    }
    Ok(Some(DrainPlan { pos, skipped }))
}
