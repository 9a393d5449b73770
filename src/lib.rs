//! # redo-recovery
//!
//! Umbrella crate for the mechanized reproduction of *A Theory of Redo
//! Recovery* (Lomet & Tuttle, SIGMOD 2003). Re-exports the workspace
//! crates under one roof:
//!
//! * [`theory`] — the paper's formalism: conflict/installation/state/
//!   write graphs, exposed variables, explainable states, the abstract
//!   recovery procedure and the recovery invariant.
//! * [`workload`] — operation-sequence generators.
//! * [`sim`] — the simulated storage substrate (pages, disk, buffer
//!   pool, write-ahead log, checkpoints, crash injection).
//! * [`methods`] — the four concrete recovery methods of §6.
//! * [`btree`] — a paged B-tree exercising physiological vs
//!   generalized-LSN split logging (Figure 8).
//! * [`checker`] — the exhaustive recovery model checker.
//!
//! See `examples/` for runnable walkthroughs, starting with
//! `examples/quickstart.rs`.

#![forbid(unsafe_code)]

pub use redo_btree as btree;
pub use redo_checker as checker;
pub use redo_methods as methods;
pub use redo_sim as sim;
pub use redo_theory as theory;
pub use redo_workload as workload;
