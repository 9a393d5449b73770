//! Shared helpers of `redo-bench`, the end-to-end foreground → crash →
//! restart benchmark: order statistics, a JSON value, the span recorder
//! of the traced run, the reference kernels that clock metrics are
//! scaled by, and the workloads with their seeded inputs. The lifecycle
//! itself lives in the `redo-bench` binary beside this file;
//! `README.md` one level up explains every metric and workload.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod json;
pub mod reference;
pub mod stats;
pub mod trace;
pub mod workloads;
