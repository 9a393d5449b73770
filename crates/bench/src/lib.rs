//! Criterion benchmark harness for the paper reproduction; see `benches/`.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

/// The shortest of `reps` timed runs of `run`, each on a fresh value
/// from `setup` (untimed). The benches' shape checks compare two such
/// times as a *ratio*: the minimum is the run the box disturbed least,
/// so the ratio holds on a noisy single-core CI runner where absolute
/// times do not.
pub fn best_of<T, R>(
    reps: usize,
    mut setup: impl FnMut() -> T,
    mut run: impl FnMut(T) -> R,
) -> Duration {
    let timed = (0..reps).map(|_| {
        let input = setup();
        let t0 = Instant::now();
        std::hint::black_box(run(input));
        t0.elapsed()
    });
    timed.min().expect("at least one repetition")
}
