//! # redo-workload
//!
//! Deterministic workload generators for the redo-recovery experiments.
//!
//! Every figure-level benchmark and most property tests need operation
//! sequences with controllable *conflict structure*: how often operations
//! read what earlier operations wrote (write-read edges the installation
//! graph may ignore), how often they blindly overwrite (unexposed
//! variables), how skewed variable access is (collapse pressure on the
//! write graph), and how long dependency chains grow. [`WorkloadSpec`]
//! exposes those knobs; [`WorkloadSpec::generate`] renders a
//! [`History`] reproducibly from a seed.
//!
//! The [`pages`] module generates *page-structured* workloads — abstract
//! descriptions of operations over `(page, slot)` cells — which
//! `redo-sim` and `redo-methods` interpret against the storage substrate.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod pages;
mod zipf;

pub use zipf::Zipf;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use redo_theory::expr::Expr;
use redo_theory::history::History;
use redo_theory::op::{OpId, Operation};
use redo_theory::state::Var;

/// The overall conflict shape of a generated history.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Shape {
    /// Independent reads and writes drawn from the variable distribution.
    Random,
    /// Operation *i* reads a variable written by operation *i−1*,
    /// producing one long write-read/read-write chain — the worst case
    /// for installation freedom.
    Chain,
    /// Blind writes only: the physical-logging regime of §6.2. No
    /// read-write or write-read conflicts exist, so the installation
    /// graph is a union of per-variable write chains.
    Blind,
    /// Read-modify-write: every operation reads exactly the variables it
    /// writes (`x ← f(x)`), the classic page-update pattern of
    /// physiological logging (§6.3).
    ReadModifyWrite,
    /// Write-read heavy: most reads target recently written variables,
    /// maximizing the edges the installation graph gets to drop.
    WriteReadHeavy,
    /// Per-operation mixture: with probability `blind_fraction` the
    /// operation is a blind write, otherwise a read-modify-write of its
    /// target. The cleanest knob for sweeping *exposure*: a variable is
    /// unexposed exactly when its next uninstalled accessor drew the
    /// blind branch.
    MixedRmwBlind,
}

/// Parameters of a generated history.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Number of distinct variables.
    pub n_vars: u32,
    /// Number of operations.
    pub n_ops: usize,
    /// Maximum read-set size (actual sizes are drawn uniformly from
    /// `0..=max_reads`, except where the shape dictates otherwise).
    pub max_reads: usize,
    /// Maximum write-set size (sizes drawn from `1..=max_writes`).
    pub max_writes: usize,
    /// Probability that a written variable is written *blindly*
    /// (its assignment ignores every read), creating unexposed variables.
    pub blind_fraction: f64,
    /// Zipf skew of variable selection; `0.0` is uniform, larger values
    /// concentrate accesses on few variables (collapse pressure).
    pub skew: f64,
    /// The conflict shape.
    pub shape: Shape,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            n_vars: 16,
            n_ops: 32,
            max_reads: 2,
            max_writes: 2,
            blind_fraction: 0.3,
            skew: 0.0,
            shape: Shape::Random,
        }
    }
}

impl WorkloadSpec {
    /// A small spec suitable for the exhaustive checker (≤ `n_ops`
    /// operations over few variables so prefix enumeration stays cheap).
    #[must_use]
    pub fn tiny(n_ops: usize, n_vars: u32) -> WorkloadSpec {
        WorkloadSpec {
            n_vars,
            n_ops,
            max_reads: 1,
            max_writes: 1,
            ..WorkloadSpec::default()
        }
    }

    /// The physical-logging regime: blind single-variable writes.
    #[must_use]
    pub fn physical(n_ops: usize, n_vars: u32) -> WorkloadSpec {
        WorkloadSpec {
            n_vars,
            n_ops,
            max_reads: 0,
            max_writes: 1,
            blind_fraction: 1.0,
            shape: Shape::Blind,
            ..WorkloadSpec::default()
        }
    }

    /// The physiological regime: single-variable read-modify-writes.
    #[must_use]
    pub fn physiological(n_ops: usize, n_vars: u32) -> WorkloadSpec {
        WorkloadSpec {
            n_vars,
            n_ops,
            max_reads: 1,
            max_writes: 1,
            blind_fraction: 0.0,
            shape: Shape::ReadModifyWrite,
            ..WorkloadSpec::default()
        }
    }

    /// Generates the history deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `n_vars == 0`, or if `max_writes == 0`.
    #[must_use]
    pub fn generate(&self, seed: u64) -> History {
        assert!(self.n_vars > 0, "need at least one variable");
        let mut rng = StdRng::seed_from_u64(seed);
        let zipf = Zipf::new(self.n_vars as usize, self.skew);
        let mut last_written: Option<Var> = None;
        let mut recently_written: Vec<Var> = Vec::new();
        let mut ops = Vec::with_capacity(self.n_ops);

        for i in 0..self.n_ops {
            let id = OpId(i as u32);
            let mut builder = Operation::builder(id);
            let (reads, writes) = match self.shape {
                Shape::Blind => (Vec::new(), self.draw_writes(&mut rng, &zipf)),
                Shape::ReadModifyWrite => {
                    let w = self.draw_writes(&mut rng, &zipf);
                    (w.clone(), w)
                }
                Shape::Chain => {
                    let reads = match last_written {
                        Some(v) => vec![v],
                        None => Vec::new(),
                    };
                    (reads, self.draw_writes(&mut rng, &zipf))
                }
                Shape::WriteReadHeavy => {
                    let n_reads = rng.gen_range(0..=self.max_reads);
                    let reads = (0..n_reads)
                        .map(|_| {
                            if !recently_written.is_empty() && rng.gen_bool(0.8) {
                                let k = rng.gen_range(0..recently_written.len());
                                recently_written[k]
                            } else {
                                Var(zipf.sample(&mut rng) as u32)
                            }
                        })
                        .collect();
                    (reads, self.draw_writes(&mut rng, &zipf))
                }
                Shape::Random => {
                    let n_reads = rng.gen_range(0..=self.max_reads);
                    let reads = (0..n_reads)
                        .map(|_| Var(zipf.sample(&mut rng) as u32))
                        .collect();
                    (reads, self.draw_writes(&mut rng, &zipf))
                }
                Shape::MixedRmwBlind => {
                    let w = self.draw_writes(&mut rng, &zipf);
                    if rng.gen_bool(self.blind_fraction.clamp(0.0, 1.0)) {
                        (Vec::new(), w)
                    } else {
                        (w.clone(), w)
                    }
                }
            };

            let mut dedup_writes = writes;
            dedup_writes.sort_unstable();
            dedup_writes.dedup();
            for &target in &dedup_writes {
                let blind = self.shape == Shape::Blind
                    || reads.is_empty()
                    || rng.gen_bool(self.blind_fraction.clamp(0.0, 1.0));
                let expr = if blind {
                    // A unique constant per (operation, target): any
                    // misordered install shows up as a value mismatch.
                    Expr::mix(vec![
                        Expr::constant(seed),
                        Expr::constant(i as u64),
                        Expr::constant(u64::from(target.0)),
                    ])
                } else {
                    let mut parts = vec![Expr::constant(seed ^ ((i as u64) << 20))];
                    parts.extend(reads.iter().map(|&r| Expr::read(r)));
                    Expr::mix(parts)
                };
                builder = builder.assign(target, expr);
            }
            // Reads that feed no expression still conflict; declare them.
            for &r in &reads {
                builder = builder.declare_read(r);
            }
            let op = builder
                .build()
                .expect("generator produces valid operations");
            last_written = op.writes().iter().next().copied();
            recently_written.extend(op.writes().iter().copied());
            let len = recently_written.len();
            if len > 8 {
                recently_written.drain(0..len - 8);
            }
            ops.push(op);
        }
        History::new(ops).expect("sequentially numbered")
    }

    fn draw_writes(&self, rng: &mut StdRng, zipf: &Zipf) -> Vec<Var> {
        assert!(
            self.max_writes > 0,
            "operations must write at least one variable"
        );
        let n = rng.gen_range(1..=self.max_writes);
        (0..n).map(|_| Var(zipf.sample(rng) as u32)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use redo_theory::conflict::ConflictGraph;
    use redo_theory::installation::InstallationGraph;
    use redo_theory::state::State;
    use redo_theory::state_graph::StateGraph;

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::default();
        assert_eq!(spec.generate(7), spec.generate(7));
        assert_ne!(spec.generate(7), spec.generate(8));
    }

    #[test]
    fn generates_requested_counts() {
        let spec = WorkloadSpec {
            n_ops: 50,
            ..WorkloadSpec::default()
        };
        let h = spec.generate(1);
        assert_eq!(h.len(), 50);
        for op in h.iter() {
            assert!(!op.writes().is_empty());
            assert!(op.writes().iter().all(|v| v.0 < spec.n_vars));
            assert!(op.reads().iter().all(|v| v.0 < spec.n_vars));
        }
    }

    #[test]
    fn blind_shape_has_no_reads() {
        let h = WorkloadSpec::physical(40, 8).generate(3);
        for op in h.iter() {
            assert!(op.reads().is_empty(), "{op:?}");
            assert_eq!(op.writes().len(), 1);
        }
        // With no reads the installation graph equals the conflict graph.
        let cg = ConflictGraph::generate(&h);
        let ig = InstallationGraph::from_conflict(&cg);
        assert_eq!(cg.dag().edge_count(), ig.dag().edge_count());
    }

    #[test]
    fn read_modify_write_reads_equal_writes() {
        let h = WorkloadSpec::physiological(40, 8).generate(5);
        for op in h.iter() {
            assert_eq!(op.reads(), op.writes(), "{op:?}");
        }
    }

    #[test]
    fn chain_shape_builds_long_chains() {
        let spec = WorkloadSpec {
            n_ops: 30,
            n_vars: 64,
            shape: Shape::Chain,
            blind_fraction: 0.0,
            ..WorkloadSpec::default()
        };
        let h = spec.generate(11);
        let cg = ConflictGraph::generate(&h);
        // Each op (after the first) reads its predecessor's write, so
        // consecutive ops are connected.
        for i in 1..h.len() {
            assert!(
                !h.op(OpId(i as u32)).reads().is_empty(),
                "op {i} should read the previous write"
            );
        }
        assert!(cg.dag().edge_count() >= h.len() - 1);
    }

    #[test]
    fn write_read_heavy_drops_edges_in_installation_graph() {
        let spec = WorkloadSpec {
            n_ops: 60,
            n_vars: 16,
            shape: Shape::WriteReadHeavy,
            blind_fraction: 0.9,
            max_reads: 2,
            max_writes: 1,
            ..WorkloadSpec::default()
        };
        let h = spec.generate(13);
        let cg = ConflictGraph::generate(&h);
        let ig = InstallationGraph::from_conflict(&cg);
        assert!(
            !ig.removed_edges().is_empty(),
            "write-read heavy workloads should produce droppable edges"
        );
    }

    #[test]
    fn skewed_workloads_concentrate_accesses() {
        let uniform = WorkloadSpec {
            skew: 0.0,
            n_ops: 400,
            n_vars: 64,
            ..Default::default()
        };
        let skewed = WorkloadSpec {
            skew: 1.5,
            n_ops: 400,
            n_vars: 64,
            ..Default::default()
        };
        let hot = |h: &History| {
            let mut counts = vec![0usize; 64];
            for op in h.iter() {
                for v in op.writes() {
                    counts[v.0 as usize] += 1;
                }
            }
            *counts.iter().max().unwrap()
        };
        assert!(hot(&skewed.generate(2)) > hot(&uniform.generate(2)));
    }

    #[test]
    fn generated_histories_satisfy_theorem3_on_prefixes() {
        // Smoke-level cross-check with the theory crate: conflict-order
        // prefixes of generated workloads are recoverable.
        for seed in 0..5 {
            let h = WorkloadSpec {
                n_ops: 12,
                ..Default::default()
            }
            .generate(seed);
            let s0 = State::zeroed();
            let cg = ConflictGraph::generate(&h);
            let sg = StateGraph::from_conflict(&h, &cg, &s0);
            for cut in [0, h.len() / 2, h.len()] {
                let prefix = redo_theory::graph::NodeSet::from_indices(h.len(), 0..cut);
                let state = sg.state_determined_by(&prefix);
                assert!(redo_theory::replay::potentially_recoverable(
                    &h, &cg, &sg, &prefix, &state
                ));
            }
        }
    }
}
