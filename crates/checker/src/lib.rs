//! # redo-checker
//!
//! A model checker for redo recovery: it decides, *exhaustively* on
//! small histories, every question the paper answers with a theorem —
//! and confirms the two agree.
//!
//! * [`cuts`] enumerates candidate crash states (every per-variable
//!   combination of the values a variable held during the execution,
//!   plus arbitrary garbage for probing unexposed positions).
//! * [`theorems`] validates the paper's main results on a history:
//!   - **Theorem 3** (Potential Recoverability): every state explained
//!     by an installation-graph prefix replays to the final state, with
//!     every replayed operation applicable;
//!   - its **converse** (the paper's second main result): whenever
//!     *any* subset of operations strictly replays to the final state,
//!     the remaining operations form an installation-graph prefix
//!     explaining the starting state — so explainability exactly
//!     characterizes recoverability;
//!   - **Corollary 4**: the abstract recovery procedure, run with a
//!     redo test satisfying the recovery invariant, terminates in the
//!     final state.
//! * [`wg_walk`] drives random (but legal) write-graph evolutions —
//!   install / add-edge / collapse / remove-write — asserting
//!   **Corollary 5** after every step: the installed state stays
//!   explainable.
//! * [`schedule`] validates the parallel redo scheduler built on
//!   Theorem 3: for every installation-graph prefix the planned level
//!   schedule is legal (each conflict edge inside the uninstalled set
//!   goes forward), and multi-threaded replay reaches exactly the state
//!   sequential replay reaches — exhaustively on small histories and on
//!   hundreds of random large ones.
//! * [`crash_audit`] samples seeded crash schedules with *injected
//!   faults* — torn page writes, partial log flushes, crashes in the
//!   middle of recovery itself — and checks the Recovery Invariant
//!   after every completed recovery, plus recovery idempotence: one
//!   flow with legs, over a generated method × backend × log shards ×
//!   pool matrix.
//! * [`exhaustive`] explores the *simulated database* instead of the
//!   abstract model: every reachable (log-flush × page-flush) schedule
//!   of a workload under a §6 recovery method, crashing at every
//!   boundary and checking that recovery rebuilds the durable prefix.
//!
//! The checker is the part of this reproduction a recovery implementor
//! would actually reuse: hand it a logging discipline (as a
//! [`redo_methods::RecoveryMethod`]) and a workload shape, and it
//! searches for schedules that violate the recovery invariant.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod beyond;
pub mod crash_audit;
pub mod cuts;
pub mod exhaustive;
pub mod schedule;
pub mod theorems;
pub mod wg_walk;

pub use schedule::{
    check_parallel_random, check_parallel_schedule, ScheduleCounterexample, ScheduleReport,
};
pub use theorems::{check_history, CheckReport, Counterexample};
