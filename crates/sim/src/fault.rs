//! Crash-fault injection: deterministic crash points, torn page writes,
//! and partial log-tail flushes.
//!
//! The paper's Corollary 4 promises recovery from *any* state explained
//! by an installation-graph prefix — but a simulator whose page writes
//! are atomic and whose log flushes move whole records only ever
//! produces polite crash states. This module manufactures the hostile
//! ones:
//!
//! * **Deterministic crash points.** Every stable-storage mutation
//!   ([`crate::disk::Disk::write_page`], the per-frame appends inside
//!   [`crate::wal::ShardedLog::flush`], the checkpoint pointer swing,
//!   …) consults the shared [`FaultInjector`] and counts as one
//!   *faultable event*. A [`FaultPlan`] names the 1-based event index at
//!   which the fault fires. After the fault fires ("trips"), **all**
//!   further stable-storage mutations are suppressed until
//!   [`crate::db::Db::crash`] — the machine is dead, its last I/O may be
//!   damaged, and nothing else reaches disk.
//! * **Torn page writes** ([`FaultKind::TornWrite`]): the write at the
//!   crash point transfers only its first `sectors` sectors (one sector
//!   per slot; the page-LSN header travels with sector 0). The disk
//!   remembers a per-page *torn flag* — the detectable checksum
//!   mismatch — plus the pre-image (the page-journal / doublewrite copy
//!   real systems keep precisely so torn pages are repairable), and
//!   [`crate::disk::Disk::repair_torn`] restores it.
//! * **Partial log flushes** ([`FaultKind::TornFlush`]): the record
//!   being forced at the crash point lands truncated mid-record. The
//!   stable-LSN bookkeeping never covers the fragment, and
//!   [`crate::wal::ShardedLog::repair_tail`] discards it structurally —
//!   exercising the same corruption handling a read of the fragment
//!   reports as [`crate::SimError::Corrupt`].
//!
//! One injector is shared by a [`crate::db::Db`]'s disk and log
//! so a single event counter spans both devices. Cloning a `Db` (the
//! exhaustive checker does, freely) shares the injector; that is benign
//! while it is disarmed — fault campaigns arm a plan around exactly one
//! database at a time and [`FaultInjector::reset`] on crash.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use redo_workload::pages::PageId;

/// The damage delivered at the crash point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// A clean stop: the I/O at the crash point never happens (nor does
    /// anything after it). This models power loss *between* writes.
    Clean,
    /// A torn page write: only the first `sectors` sectors (slots) of
    /// the new image reach disk; the rest of the page keeps its old
    /// bytes. Fires only if the crash-point event is a plain page write
    /// (atomic multi-page writes and the pointer swing are primitives —
    /// a tear there degrades to [`FaultKind::Clean`]).
    TornWrite {
        /// Leading sectors that make it to disk (clamped to a strictly
        /// partial transfer).
        sectors: u16,
    },
    /// A partial log flush: only the first `bytes` bytes of the
    /// crash-point record's frame (LSN + length header + body) reach the
    /// stable log. Fires only if the crash-point event is a log-record
    /// flush; degrades to [`FaultKind::Clean`] otherwise.
    TornFlush {
        /// Bytes of the record frame that land (clamped to a strictly
        /// partial transfer).
        bytes: usize,
    },
}

/// A deterministic crash point: deliver `kind` at the `at`-th faultable
/// I/O event (1-based) after arming.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// The 1-based faultable-event index at which the fault fires.
    pub at: u64,
    /// The damage to deliver there.
    pub kind: FaultKind,
}

/// What actually fired (the planned kind may degrade — see
/// [`FaultKind`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// The crash point suppressed an I/O cleanly.
    Clean,
    /// This page's write was torn.
    TornWrite(PageId),
    /// A log record landed truncated.
    TornFlush,
}

/// What the device should do with the I/O that consulted the injector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FaultDecision {
    /// Perform the I/O normally.
    Proceed,
    /// The machine is (now) dead: the I/O never happens.
    Suppress,
    /// Tear this page write after `sectors` sectors.
    Tear {
        /// Leading sectors that land.
        sectors: u16,
    },
    /// Truncate this log-record flush to `bytes` bytes.
    Truncate {
        /// Leading bytes that land.
        bytes: usize,
    },
}

#[derive(Debug, Default)]
struct FaultState {
    plan: Option<FaultPlan>,
    events: u64,
    tripped: bool,
    injected: Option<InjectedFault>,
}

/// The shared crash-point switchboard. Cheap to clone (it is a handle);
/// all clones observe the same plan, event counter, and trip state.
#[derive(Clone, Debug, Default)]
pub struct FaultInjector {
    /// Fast path: devices skip the mutex entirely while nothing is armed
    /// (true from `arm` until `reset`, including while tripped).
    armed: Arc<AtomicBool>,
    state: Arc<Mutex<FaultState>>,
}

impl FaultInjector {
    /// A disarmed injector.
    #[must_use]
    pub fn new() -> FaultInjector {
        FaultInjector::default()
    }

    /// Arms `plan`, restarting the event counter at zero. Replaces any
    /// previous plan and clears a previous trip.
    pub fn arm(&self, plan: FaultPlan) {
        let mut st = self.state.lock().expect("injector poisoned");
        *st = FaultState {
            plan: Some(plan),
            ..FaultState::default()
        };
        self.armed.store(true, Ordering::Release);
    }

    /// Disarms: clears the plan, the counter, and the trip state.
    /// [`crate::db::Db::crash`] calls this — the damage is on disk, the
    /// replacement machine's I/O works.
    pub fn reset(&self) {
        let mut st = self.state.lock().expect("injector poisoned");
        *st = FaultState::default();
        self.armed.store(false, Ordering::Release);
    }

    /// Is a plan currently armed (tripped or not)?
    #[must_use]
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::Acquire)
    }

    /// Has the armed fault fired? Once true, every stable-storage
    /// mutation is suppressed until [`FaultInjector::reset`].
    #[must_use]
    pub fn tripped(&self) -> bool {
        self.is_armed() && self.state.lock().expect("injector poisoned").tripped
    }

    /// The fault that actually fired, if any (survives until re-arm or
    /// reset).
    #[must_use]
    pub fn injected(&self) -> Option<InjectedFault> {
        self.state.lock().expect("injector poisoned").injected
    }

    /// Faultable events counted since the last arm.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.state.lock().expect("injector poisoned").events
    }

    /// A plain page write is about to happen (may tear).
    pub(crate) fn on_page_write(&self) -> FaultDecision {
        self.decide(true, false)
    }

    /// A log-record flush is about to happen (may truncate).
    pub(crate) fn on_log_flush(&self) -> FaultDecision {
        self.decide(false, true)
    }

    /// An atomic primitive (multi-page write, staging write, master
    /// update, pointer swing) is about to happen: all-or-nothing, so
    /// torn kinds degrade to a clean stop.
    pub(crate) fn on_atomic_write(&self) -> FaultDecision {
        self.decide(false, false)
    }

    /// Records what a device actually injected (the disk knows which
    /// page tore; the injector does not).
    pub(crate) fn record_injected(&self, f: InjectedFault) {
        self.state.lock().expect("injector poisoned").injected = Some(f);
    }

    fn decide(&self, can_tear: bool, can_truncate: bool) -> FaultDecision {
        if !self.armed.load(Ordering::Acquire) {
            return FaultDecision::Proceed;
        }
        let mut st = self.state.lock().expect("injector poisoned");
        if st.tripped {
            return FaultDecision::Suppress;
        }
        let Some(plan) = st.plan else {
            return FaultDecision::Proceed;
        };
        st.events += 1;
        if st.events < plan.at {
            return FaultDecision::Proceed;
        }
        st.tripped = true;
        match plan.kind {
            FaultKind::TornWrite { sectors } if can_tear => FaultDecision::Tear { sectors },
            FaultKind::TornFlush { bytes } if can_truncate => {
                st.injected = Some(InjectedFault::TornFlush);
                FaultDecision::Truncate { bytes }
            }
            _ => {
                st.injected = Some(InjectedFault::Clean);
                FaultDecision::Suppress
            }
        }
    }
}

/// What [`crate::db::Db::repair_after_crash`] fixed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// Torn pages restored from their pre-images.
    pub torn_pages: Vec<PageId>,
    /// Bytes of torn log tail discarded.
    pub log_bytes_dropped: usize,
}

impl RepairReport {
    /// Did the repair change anything?
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.torn_pages.is_empty() && self.log_bytes_dropped == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_injector_always_proceeds() {
        let inj = FaultInjector::new();
        for _ in 0..5 {
            assert_eq!(inj.on_page_write(), FaultDecision::Proceed);
            assert_eq!(inj.on_log_flush(), FaultDecision::Proceed);
        }
        assert!(!inj.tripped());
        assert_eq!(inj.events(), 0, "disarmed events are not counted");
    }

    #[test]
    fn clean_fault_fires_at_exact_event_then_suppresses() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan {
            at: 3,
            kind: FaultKind::Clean,
        });
        assert_eq!(inj.on_page_write(), FaultDecision::Proceed);
        assert_eq!(inj.on_log_flush(), FaultDecision::Proceed);
        assert_eq!(inj.on_page_write(), FaultDecision::Suppress);
        assert!(inj.tripped());
        assert_eq!(inj.injected(), Some(InjectedFault::Clean));
        // Everything after the trip is suppressed, on every device.
        assert_eq!(inj.on_log_flush(), FaultDecision::Suppress);
        assert_eq!(inj.on_atomic_write(), FaultDecision::Suppress);
        assert_eq!(inj.events(), 3, "post-trip I/O does not count");
    }

    #[test]
    fn torn_write_degrades_on_wrong_device() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan {
            at: 1,
            kind: FaultKind::TornWrite { sectors: 2 },
        });
        // The first event is a log flush: a page tear cannot happen
        // there, so the machine just stops cleanly.
        assert_eq!(inj.on_log_flush(), FaultDecision::Suppress);
        assert_eq!(inj.injected(), Some(InjectedFault::Clean));
    }

    #[test]
    fn torn_write_tears_on_page_write() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan {
            at: 1,
            kind: FaultKind::TornWrite { sectors: 2 },
        });
        assert_eq!(inj.on_page_write(), FaultDecision::Tear { sectors: 2 });
        assert!(inj.tripped());
    }

    #[test]
    fn torn_flush_truncates_on_log_flush_only() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan {
            at: 2,
            kind: FaultKind::TornFlush { bytes: 5 },
        });
        assert_eq!(inj.on_page_write(), FaultDecision::Proceed);
        assert_eq!(inj.on_log_flush(), FaultDecision::Truncate { bytes: 5 });
        assert_eq!(inj.injected(), Some(InjectedFault::TornFlush));
    }

    #[test]
    fn atomic_writes_never_tear() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan {
            at: 1,
            kind: FaultKind::TornWrite { sectors: 1 },
        });
        assert_eq!(inj.on_atomic_write(), FaultDecision::Suppress);
        assert_eq!(inj.injected(), Some(InjectedFault::Clean));
    }

    #[test]
    fn reset_restores_normal_io() {
        let inj = FaultInjector::new();
        inj.arm(FaultPlan {
            at: 1,
            kind: FaultKind::Clean,
        });
        assert_eq!(inj.on_page_write(), FaultDecision::Suppress);
        inj.reset();
        assert!(!inj.tripped());
        assert_eq!(inj.on_page_write(), FaultDecision::Proceed);
        assert_eq!(inj.injected(), None);
    }

    #[test]
    fn clones_share_state() {
        let inj = FaultInjector::new();
        let other = inj.clone();
        inj.arm(FaultPlan {
            at: 2,
            kind: FaultKind::Clean,
        });
        assert_eq!(other.on_page_write(), FaultDecision::Proceed);
        assert_eq!(other.on_page_write(), FaultDecision::Suppress);
        assert!(inj.tripped(), "trip observed through the original handle");
    }
}
