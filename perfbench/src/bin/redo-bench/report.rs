//! The metric catalogue, the reduction of raw lifecycle samples to the
//! named metrics, and `compare`.

use std::collections::BTreeMap;

use redo_perfbench::json::Json;
use redo_perfbench::stats::{iqr_share, median, percentile, quartiles, sort, tail_percentile};
use redo_perfbench::trace::{LayerTime, SpanRecorder};
use redo_perfbench::workloads::MIN_LIFECYCLES;

use crate::lifecycle::Lifecycle;

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Raw samples behind the value (latencies, repetitions, lifecycles).
    pub samples: usize,
    /// The per-lifecycle samples, at reference speed; empty for
    /// per-layer metrics.
    pub series: Vec<f64>,
    /// For a clock metric, the median as the box's clock read it,
    /// before scaling to reference speed.
    pub raw: Option<f64>,
}

/// How a run's lifecycles become one reported number.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Reduce {
    /// The median over the lifecycles of the per-lifecycle sample.
    Median,
    /// The same over the first [`MIN_LIFECYCLES`] only — the ones every
    /// run completes whatever the clock says — so that with one client a
    /// count is a function of the seed.
    MedianOfCounted,
    /// This percentile of the run's pooled commit latencies, each scaled
    /// by its own lifecycle's speed: a lifecycle holds a dozen
    /// controller ticks, too few for its own p99 to be more than one
    /// tick's length.
    PooledCommits(f64),
}

/// `(name, unit, gated, reduction)` of every number the untraced run
/// reports, in report order. The gated ones are the end-to-end metrics
/// of `BENCHMARK.json` — the result line carries exactly those, and
/// each has a regression bound there. The others are printed, kept in
/// `--out` and compared as INFO.
pub const END_TO_END: [(&str, &str, bool, Reduce); 13] = [
    ("setup_s", "s", true, Reduce::Median),
    ("fg_ops_per_s", "ops/s", true, Reduce::Median),
    ("commit_p50_us", "us", true, Reduce::PooledCommits(0.5)),
    ("commit_p99_us", "us", true, Reduce::PooledCommits(0.99)),
    ("restart_first_read_ms", "ms", true, Reduce::Median),
    ("restart_drained_ms", "ms", true, Reduce::Median),
    ("restart_offline_ms", "ms", true, Reduce::Median),
    ("media_restore_ms", "ms", true, Reduce::Median),
    ("crash_suffix_kb", "KiB", true, Reduce::MedianOfCounted),
    ("write_amp", "ratio", true, Reduce::MedianOfCounted),
    ("first_read_vs_offline", "ratio", false, Reduce::Median),
    ("drained_vs_offline", "ratio", false, Reduce::Median),
    ("media_vs_offline", "ratio", false, Reduce::Median),
];

/// Is `name` one of the reported-but-unbounded numbers of [`END_TO_END`]?
pub fn ungated(name: &str) -> bool {
    END_TO_END
        .iter()
        .any(|&(n, _, gated, _)| n == name && !gated)
}

/// Foreground throughput of one lifecycle as the box's clock read it:
/// acked writes + served reads per wall-second.
pub fn ops_per_s(life: &Lifecycle) -> f64 {
    (life.acked_writes + life.reads_served) as f64 / life.fg_wall_s
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One lifecycle's sample of one number of [`END_TO_END`].
#[derive(Clone, Copy)]
struct Sample {
    /// What the box's clock, or a counter, read.
    raw: f64,
    /// `raw * scale` is the sample at reference speed: a time is scaled
    /// by the box speed of the phase it was measured in, a rate by its
    /// inverse; a count or a ratio has none.
    scale: Option<f64>,
    /// Measurements behind `raw`: commits, restart repetitions, or 1.
    n: usize,
}

/// One lifecycle's samples, in [`END_TO_END`] order. A commit
/// percentile's is taken within the lifecycle, a restart time's is the
/// median of the lifecycle's repetitions.
fn samples(l: &Lifecycle) -> [Sample; 13] {
    let mut commits = l.commit_lat_us.clone();
    sort(&mut commits);
    let (first_read, drained) = (median(&l.first_read_ms), median(&l.drained_ms));
    let (offline, media) = (median(&l.offline_ms), median(&l.media_ms));
    let s = &l.speeds;
    let clock = |raw, scale, n| Sample {
        raw,
        scale: Some(scale),
        n,
    };
    let plain = |raw| Sample {
        raw,
        scale: None,
        n: 1,
    };
    [
        clock(l.setup_s, s.setup, 1),
        clock(ops_per_s(l), ratio(1.0, s.foreground), 1),
        clock(percentile(&commits, 0.5), s.foreground, commits.len()),
        clock(percentile(&commits, 0.99), s.foreground, commits.len()),
        clock(first_read, s.ondemand, l.first_read_ms.len()),
        clock(drained, s.ondemand, l.drained_ms.len()),
        clock(offline, s.offline, l.offline_ms.len()),
        clock(media, s.media, l.media_ms.len()),
        plain(l.crash_suffix_bytes as f64 / 1024.0),
        plain(l.write_amp),
        plain(ratio(first_read * s.ondemand, offline * s.offline)),
        plain(ratio(drained * s.ondemand, offline * s.offline)),
        plain(ratio(media * s.media, offline * s.offline)),
    ]
}

/// Every lifecycle's commit latencies in one ascending vector, µs: as
/// clocked, or each scaled by its lifecycle's foreground box speed.
fn commit_pool(lifes: &[Lifecycle], at_reference: bool) -> Vec<f64> {
    let mut pool: Vec<f64> = lifes
        .iter()
        .flat_map(|l| {
            let scale = if at_reference {
                l.speeds.foreground
            } else {
                1.0
            };
            l.commit_lat_us.iter().map(move |&us| us * scale)
        })
        .collect();
    sort(&mut pool);
    pool
}

/// Reduces the untraced lifecycles to the numbers of [`END_TO_END`],
/// each by its [`Reduce`], at reference speed (see [`Sample`]).
///
/// Also returns, for the human-readable report, the highest percentile
/// of the pooled commit latencies with at least ten samples beyond it
/// and the latency there (at reference speed, µs).
pub fn end_to_end(lifes: &[Lifecycle]) -> (Vec<Metric>, Option<(f64, f64)>) {
    let per_life: Vec<[Sample; 13]> = lifes.iter().map(samples).collect();
    let (as_clocked, at_reference) = (commit_pool(lifes, false), commit_pool(lifes, true));
    let metrics = END_TO_END
        .iter()
        .enumerate()
        .map(|(i, &(name, unit, _, reduce))| {
            let counted = match reduce {
                Reduce::MedianOfCounted => lifes.len().min(MIN_LIFECYCLES),
                Reduce::Median | Reduce::PooledCommits(_) => lifes.len(),
            };
            let column: Vec<Sample> = per_life[..counted].iter().map(|s| s[i]).collect();
            let raw: Vec<f64> = column.iter().map(|s| s.raw).collect();
            let series: Vec<f64> = column
                .iter()
                .map(|s| s.raw * s.scale.unwrap_or(1.0))
                .collect();
            let is_clock = column.iter().any(|s| s.scale.is_some());
            let (value, raw) = match reduce {
                Reduce::PooledCommits(p) => {
                    (percentile(&at_reference, p), percentile(&as_clocked, p))
                }
                Reduce::Median | Reduce::MedianOfCounted => (median(&series), median(&raw)),
            };
            Metric {
                name,
                value,
                unit,
                samples: column.iter().map(|s| s.n).sum(),
                series,
                raw: is_clock.then_some(raw),
            }
        })
        .collect();
    let tail = tail_percentile(at_reference.len()).map(|p| (p, percentile(&at_reference, p)));
    (metrics, tail)
}

/// The box's speed over the run, for the report: the median over the
/// lifecycles of each phase's speed, in `Speeds` order.
pub fn box_speeds(lifes: &[Lifecycle]) -> [f64; 5] {
    let of = |f: &dyn Fn(&Lifecycle) -> f64| median(&lifes.iter().map(f).collect::<Vec<_>>());
    [
        of(&|l| l.speeds.setup),
        of(&|l| l.speeds.foreground),
        of(&|l| l.speeds.offline),
        of(&|l| l.speeds.ondemand),
        of(&|l| l.speeds.media),
    ]
}

/// On-demand cells per lifecycle that differ from the oracle within the
/// waiver (README "Known defects"); `compare` fails a run where it grew.
pub fn ondemand_divergent_cells(lifes: &[Lifecycle]) -> f64 {
    let cells: f64 = lifes
        .iter()
        .filter_map(|l| l.counts.get("verify.ondemand_divergent_cells"))
        .fold(0.0, |sum, cells| sum + cells);
    ratio(cells, lifes.len() as f64)
}

/// Span totals and counters of the traced lifecycles, with the few
/// reductions the per-layer metrics are built from. The run stops on a
/// clock, so how many lifecycles it holds varies with the box: calls,
/// busy time and counters are reported **per lifecycle**.
struct Layers {
    spans: BTreeMap<&'static str, LayerTime>,
    counts: BTreeMap<&'static str, f64>,
    lifecycles: f64,
}

impl Layers {
    fn layer(&self, name: &str) -> Option<&LayerTime> {
        self.spans.get(name)
    }
    fn calls(&self, name: &str) -> f64 {
        self.layer(name).map_or(0.0, |l| l.calls as f64) / self.lifecycles
    }
    /// Self time per lifecycle, seconds.
    fn busy_s(&self, name: &str) -> f64 {
        self.layer(name).map_or(0.0, |l| l.self_ns as f64 / 1e9) / self.lifecycles
    }
    /// Mean self time per call, in units of `ns_per_unit` nanoseconds.
    fn per_call(&self, name: &str, ns_per_unit: f64) -> f64 {
        self.layer(name)
            .map_or(0.0, |l| l.self_ns as f64 / l.calls as f64 / ns_per_unit)
    }
    /// Percentile of the call durations, µs.
    fn pctl_us(&self, name: &str, p: f64) -> f64 {
        self.layer(name)
            .map_or(0.0, |l| percentile(&l.durations_ns, p) / 1e3)
    }
    /// A counter, per lifecycle.
    fn count(&self, name: &str) -> f64 {
        self.total(name) / self.lifecycles
    }
    /// A counter of the probes, which run once, or a high-water mark.
    fn total(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// Reduces the traced lifecycles to the per-layer metrics. Counts,
/// `calls` and `busy_s` (self time) are per lifecycle; `busy_ms` and
/// `*_us` are per call; the probes' counts are of their one run. A
/// layer the workload never enters reports 0.
#[rustfmt::skip] // the catalogue below reads as a table: one metric per line
pub fn per_layer(
    traced: &[Lifecycle],
    rec: &SpanRecorder,
    untraced: &Lifecycle,
    attempted: u64,
    failed: u64,
) -> Vec<Metric> {
    let mut counts: BTreeMap<&'static str, f64> = BTreeMap::new();
    for life in traced {
        for (&name, &v) in &life.counts {
            let slot = counts.entry(name).or_insert(0.0);
            // The one counter that is a high-water mark, not a sum.
            if name == "control.suffix_bytes_max" {
                *slot = slot.max(v);
            } else {
                *slot += v;
            }
        }
    }
    let l = Layers {
        spans: rec.by_name(),
        counts,
        lifecycles: traced.len() as f64,
    };
    let restarts = l.calls("concurrent.open_on_demand");
    let offline_ms = l.per_call("generalized.recover", 1e6);
    let parallel_ms = l.per_call("parallel.recover", 1e6);
    let traced_ops: Vec<f64> = traced.iter().map(ops_per_s).collect();
    let m = |name: &'static str, unit: &'static str, value: f64| Metric {
        name,
        value,
        unit,
        samples: traced.len(),
        series: Vec::new(),
        raw: None,
    };
    vec![
        m("concurrent.execute.calls", "count", l.calls("concurrent.execute")),
        m("concurrent.execute.busy_s", "s", l.busy_s("concurrent.execute")),
        m("concurrent.execute.p50_us", "us", l.pctl_us("concurrent.execute", 0.5)),
        m("concurrent.execute.p99_us", "us", l.pctl_us("concurrent.execute", 0.99)),
        m("concurrent.execute.errors", "count", l.count("concurrent.execute.errors")),
        m("concurrent.read_cell.calls", "count", l.calls("concurrent.read_cell")),
        m("concurrent.read_cell.busy_s", "s", l.busy_s("concurrent.read_cell")),
        m("concurrent.read_cell.p50_us", "us", l.pctl_us("concurrent.read_cell", 0.5)),
        m("concurrent.read_cell.p99_us", "us", l.pctl_us("concurrent.read_cell", 0.99)),
        m("concurrent.commit_tick.calls", "count", l.calls("concurrent.commit_tick")),
        m("concurrent.commit_tick.busy_s", "s", l.busy_s("concurrent.commit_tick")),
        m("concurrent.commit_tick.p99_us", "us", l.pctl_us("concurrent.commit_tick", 0.99)),
        m("concurrent.flusher_tick.calls", "count", l.calls("concurrent.flusher_tick")),
        m("concurrent.flusher_tick.busy_s", "s", l.busy_s("concurrent.flusher_tick")),
        m("control.tick.calls", "count", l.calls("control.tick")),
        m("control.tick.busy_s", "s", l.busy_s("control.tick")),
        m("control.tick.p50_us", "us", l.pctl_us("control.tick", 0.5)),
        m("control.tick.max_ms", "ms", l.pctl_us("control.tick", 1.0) / 1e3),
        m("control.checkpoints_taken", "count", l.count("control.checkpoints_taken")),
        m("control.deltas_published", "count", l.count("control.deltas_published")),
        m("control.checkpoints_skipped", "count", l.count("control.checkpoints_skipped")),
        m("control.checkpoints_abandoned", "count", l.count("control.checkpoints_abandoned")),
        m("control.truncated_bytes", "bytes", l.count("control.truncated_bytes")),
        m("control.suffix_bytes_max", "bytes", l.total("control.suffix_bytes_max")),
        m("control.over_budget_share", "ratio", ratio(l.count("control.suffix_samples_over_budget"), l.count("control.suffix_samples"))),
        m("control.dirty_pages_final", "count", l.count("control.dirty_pages_final")),
        m("wal.appended_bytes", "bytes", l.count("wal.appended_bytes")),
        m("wal.bytes_per_op", "bytes", ratio(l.count("wal.appended_bytes"), l.count("wal.records"))),
        m("wal.forces", "count", l.count("wal.forces")),
        m("wal.syncs", "count", l.count("wal.syncs")),
        m("wal.archived_bytes", "bytes", l.count("wal.archived_bytes")),
        m("wal.append.ns_per_rec", "ns", l.per_call("wal.append", 1.0)),
        m("wal.flush_all.us_per_force", "us", l.per_call("wal.flush_all", 1e3)),
        m("wal.scan.mb_per_s", "MB/s", ratio(l.total("wal.scan.bytes") / 1e6, l.per_call("wal.scan", 1e9))),
        m("wal.scan.records_decoded", "count", l.total("wal.scan.records_decoded")),
        m("wal.scan.seek_hits", "count", l.total("wal.scan.seek_hits")),
        m("wal.pit_records.busy_ms", "ms", l.per_call("wal.pit_records", 1e6)),
        m("shard.lease_update.ns_per_op", "ns", l.per_call("shard.lease_update", 1.0)),
        m("shard.flush_page.us_per_page", "us", l.per_call("shard.flush_page", 1e3)),
        m("backend.page_write_us", "us", l.per_call("backend.page_write", 1e3)),
        m("backend.write_pages_atomic_us", "us", l.per_call("backend.write_pages_atomic", 1e3)),
        m("backend.swing_pointer_us", "us", l.per_call("backend.swing_pointer", 1e3)),
        m("disk.page_writes", "count", l.count("disk.page_writes")),
        m("generalized.repair.busy_ms", "ms", l.per_call("generalized.repair", 1e6)),
        m("generalized.analyze_dpt.busy_ms", "ms", l.per_call("generalized.analyze_dpt", 1e6)),
        m("generalized.recover.busy_ms", "ms", offline_ms),
        m("generalized.recover.scanned", "count", l.count("generalized.recover.scanned")),
        m("generalized.recover.replayed", "count", l.count("generalized.recover.replayed")),
        m("generalized.recover.skipped", "count", l.count("generalized.recover.skipped")),
        m("generalized.recover.bytes_scanned", "bytes", l.count("generalized.recover.bytes_scanned")),
        m("generalized.recover.pages_prefetched", "count", l.count("generalized.recover.pages_prefetched")),
        m("generalized.recover.us_per_replayed", "us", ratio(offline_ms * 1e3, l.count("generalized.recover.replayed"))),
        m("concurrent.open_on_demand.busy_ms", "ms", l.per_call("concurrent.open_on_demand", 1e6)),
        m("concurrent.open_on_demand.gates", "count", l.count("concurrent.open_on_demand.gates")),
        m("concurrent.first_read.busy_ms", "ms", l.per_call("concurrent.first_read", 1e6)),
        m("concurrent.recovery_tick.calls", "count", l.calls("concurrent.recovery_tick")),
        // Per restart, not per tick: a restart is drained by many ticks.
        m("concurrent.recovery_tick.busy_ms", "ms", ratio(l.busy_s("concurrent.recovery_tick") * 1e3, restarts)),
        m("parallel.recover.busy_ms", "ms", parallel_ms),
        m("parallel.speedup_vs_offline", "ratio", ratio(offline_ms, parallel_ms)),
        m("media.rebuild_images.busy_ms", "ms", l.per_call("media.rebuild_images", 1e6)),
        m("media.install_images.busy_ms", "ms", l.per_call("media.install_images", 1e6)),
        m("media.recover.busy_ms", "ms", l.per_call("media.recover", 1e6)),
        m("media.history_records", "count", l.total("media.history_records")),
        m("workload.generate.busy_s", "s", l.busy_s("workload.generate")),
        m("concurrent.crash.busy_ms", "ms", l.per_call("concurrent.crash", 1e6)),
        m("verify.model_replay_ms", "ms", l.per_call("verify.model_replay", 1e6)),
        m("verify.cells_checked", "count", l.count("verify.cells_checked")),
        m("verify.mismatches", "count", l.count("verify.mismatches")),
        m("verify.ondemand_divergent_cells", "count", l.count("verify.ondemand_divergent_cells")),
        // Same inputs with spans off, then on: what the spans cost.
        m("trace.overhead_share", "ratio", 1.0 - ratio(traced_ops[0], ops_per_s(untraced))),
        m("failed_ops_share", "ratio", ratio(failed as f64, attempted as f64)),
    ]
}

/// The one-line result the harness reads: exactly `correct`,
/// `attempted`, `failed`, `metrics` — the gated end-to-end metrics of an
/// untraced run, every per-layer metric of a traced one.
pub fn result_line(metrics: &[Metric], attempted: u64, failed: u64) -> String {
    let metrics = metrics.iter().filter(|m| !ungated(m.name));
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(metrics.map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })),
        ),
    ])
    .to_line()
}

/// The metrics as the `--out` file stores them: sample counts, the
/// per-lifecycle series and, for a clock metric, the raw median too.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let mut fields = vec![
            ("value", Json::Num(m.value)),
            ("unit", Json::str(m.unit)),
            ("samples", Json::Num(m.samples as f64)),
        ];
        fields.extend(m.raw.map(|raw| ("raw", Json::Num(raw))));
        fields.push((
            "series",
            Json::Arr(m.series.iter().map(|&v| Json::Num(v)).collect()),
        ));
        (m.name, Json::obj(fields))
    }))
}

/// The `workloads` object of a `redo-bench --out` document, as pairs.
fn workloads_of(doc: &Json) -> Result<&[(String, Json)], String> {
    doc.get("workloads")
        .and_then(Json::as_obj)
        .ok_or_else(|| "not a redo-bench --out file: no workloads object".to_string())
}

/// Key of the on-demand waiver count in a workload's `--out` section.
pub const DIVERGENT_KEY: &str = "ondemand_divergent_cells";

/// By how much the waived on-demand cells per lifecycle may grow over
/// the baseline's `a` before `compare` says WORSE: the count is small
/// and varies with the interleaving, so it may double, and a workload
/// that the rarer defect hits once in a run (one page, in one of some
/// thirty lifecycles) must not fail for it.
fn divergent_allowed(a: f64) -> f64 {
    2.0 * a + 0.25
}

fn end_to_end_value(workload: &Json, metric: &str) -> Option<f64> {
    workload
        .get("end_to_end")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// `compare a.json b.json`: per workload × reported number, both
/// values, the ratio (base: `a`), and PASS / WORSE against the metric's
/// bound in `BENCHMARK.json`; what `BENCHMARK.json` does not list is
/// printed as INFO and gates nothing. The waived on-demand cells are
/// judged by [`divergent_allowed`]. Returns whether everything gated
/// passed.
///
/// # Errors
///
/// A file that is not a `redo-bench --out` / `BENCHMARK.json` document.
pub fn compare(a: &Json, b: &Json, benchmark: &Json) -> Result<bool, String> {
    let bounds: BTreeMap<&str, (f64, bool)> = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no end_to_end list")?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?,
                (
                    m.get("bound")?.as_f64()?,
                    m.get("better")?.as_str()? == "higher",
                ),
            ))
        })
        .collect();
    let gated_workloads: Vec<&str> = benchmark
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json: no workloads list")?
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    let b_workloads = workloads_of(b)?;
    let mut all_pass = true;
    println!(
        "{:<12} {:<24} {:>14} {:>14} {:>8}  {:>6}  verdict",
        "workload", "metric", "a", "b", "b/a", "bound"
    );
    for (name, wa) in workloads_of(a)? {
        let Some((_, wb)) = b_workloads.iter().find(|(n, _)| n == name) else {
            println!("{name:<12} missing from b");
            all_pass = false;
            continue;
        };
        for (metric, ..) in END_TO_END {
            let (Some(va), Some(vb)) = (end_to_end_value(wa, metric), end_to_end_value(wb, metric))
            else {
                println!("{name:<12} {metric:<24} missing");
                all_pass = false;
                continue;
            };
            let row = format!(
                "{name:<12} {metric:<24} {va:>14.4} {vb:>14.4} {:>8.3}",
                vb / va
            );
            match bounds.get(metric) {
                Some(&(bound, higher_better)) if gated_workloads.contains(&name.as_str()) => {
                    let worse_by = if higher_better { va - vb } else { vb - va } / va.abs();
                    let pass = worse_by <= bound;
                    all_pass &= pass;
                    let verdict = if pass { "PASS" } else { "WORSE" };
                    println!("{row}  {bound:>6.2}  {verdict}");
                }
                _ => println!("{row}  {:>6}  INFO", "-"),
            }
        }
        let cells = |w: &Json| w.get(DIVERGENT_KEY).and_then(Json::as_f64).unwrap_or(0.0);
        let (va, vb) = (cells(wa), cells(wb));
        let pass = vb <= divergent_allowed(va);
        all_pass &= pass;
        println!(
            "{name:<12} {DIVERGENT_KEY:<24} {va:>14.4} {vb:>14.4} {:>8}  {:>6.2}  {}",
            "-",
            divergent_allowed(va),
            if pass { "PASS" } else { "WORSE" }
        );
    }
    Ok(all_pass)
}

/// `summarize a.json b.json …`: per workload × end-to-end metric, the
/// median and quartiles of the files' values and the spread a bound is
/// judged against (interquartile distance ÷ median). Returns a document
/// of the `--out` shape holding the medians — the baseline `compare`
/// takes as its `a`.
///
/// # Errors
///
/// Fewer than two files, or one that is not a `redo-bench --out` file.
pub fn summarize(runs: &[Json]) -> Result<Json, String> {
    let [first, _, ..] = runs else {
        return Err("summarize needs at least two --out files".into());
    };
    println!(
        "{:<12} {:<24} {:>3} {:>14} {:>14} {:>14}  spread",
        "workload", "metric", "n", "q1", "median", "q3"
    );
    let mut workloads = Vec::new();
    for (name, section) in workloads_of(first)? {
        let mut metrics = Vec::new();
        for (metric, unit, ..) in END_TO_END {
            let mut values = Vec::new();
            for run in runs {
                let workload = workloads_of(run)?.iter().find(|(n, _)| n == name);
                values.extend(workload.and_then(|(_, w)| end_to_end_value(w, metric)));
            }
            let Some([q1, med, q3]) = quartiles(&values) else {
                return Err(format!("{name} {metric}: in fewer than two of the files"));
            };
            let spread = iqr_share(&values).unwrap_or(0.0);
            println!(
                "{name:<12} {metric:<24} {:>3} {q1:>14.4} {med:>14.4} {q3:>14.4}  {spread:.3}",
                values.len()
            );
            metrics.push((
                metric,
                Json::obj([
                    ("value", Json::Num(med)),
                    ("unit", Json::str(unit)),
                    ("samples", Json::Num(values.len() as f64)),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                    ("spread", Json::Num(spread)),
                ]),
            ));
        }
        let why = section.get("why").cloned().unwrap_or(Json::Null);
        let divergent: Vec<f64> = runs
            .iter()
            .filter_map(|run| {
                let (_, w) = workloads_of(run).ok()?.iter().find(|(n, _)| n == name)?;
                w.get(DIVERGENT_KEY)?.as_f64()
            })
            .collect();
        workloads.push((
            name.as_str(),
            Json::obj([
                ("why", why),
                (DIVERGENT_KEY, Json::Num(median(&divergent))),
                ("end_to_end", Json::obj(metrics)),
            ]),
        ));
    }
    let header = ["schema", "seconds", "smoke", "host", "flush_policy"];
    let mut doc: Vec<(&str, Json)> = header
        .iter()
        .filter_map(|&k| Some((k, first.get(k)?.clone())))
        .collect();
    doc.push(("runs", Json::Num(runs.len() as f64)));
    doc.push(("workloads", Json::obj(workloads)));
    Ok(Json::obj(doc))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::Speeds;
    use redo_perfbench::json::is_metric_name;
    use redo_perfbench::workloads;
    use std::time::Instant;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    /// `BENCHMARK.json` is what the harness expects and this file is
    /// what the binary prints: name for name, unit for unit, in order.
    #[test]
    fn benchmark_json_lists_what_the_binary_prints() {
        let doc = benchmark_json();
        let life = Lifecycle {
            fg_wall_s: 1.0,
            ..Lifecycle::default()
        };
        let rec = SpanRecorder::new(false, Instant::now());
        let (mut gated, _) = end_to_end(std::slice::from_ref(&life));
        gated.retain(|m| !ungated(m.name));
        let printed = [
            ("end_to_end", gated),
            (
                "per_layer",
                per_layer(std::slice::from_ref(&life), &rec, &life, 1, 0),
            ),
        ];
        for (key, metrics) in printed {
            let listed: Vec<(&str, &str)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect("a string");
                    (field("name"), field("unit"))
                })
                .collect();
            let printed: Vec<(&str, &str)> = metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(listed, printed, "{key}");
            for (name, unit) in printed {
                assert!(is_metric_name(name), "{name}");
                assert!(unit.len() <= 16 && is_metric_name(&unit.replace(['/', '%'], "_")));
            }
        }
        for listed in doc.get("workloads").and_then(Json::as_arr).expect("list") {
            let field = |f: &str| listed.get(f).and_then(Json::as_str).expect("a string");
            let known = workloads::by_name(field("name")).expect("a workload the binary runs");
            assert_eq!(known.why, field("why"));
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(workloads::RUN_SECONDS as f64)
        );
    }

    #[test]
    fn clock_metrics_are_scaled_to_reference_speed_and_counts_are_not() {
        // A box at half the nominal speed: times read twice too long.
        let life = |suffix_bytes: u64| Lifecycle {
            setup_s: 2.0,
            fg_wall_s: 1.0,
            acked_writes: 100,
            commit_lat_us: vec![10.0; 4],
            offline_ms: vec![4.0, 4.0],
            crash_suffix_bytes: suffix_bytes,
            speeds: Speeds {
                setup: 0.5,
                foreground: 0.5,
                offline: 0.5,
                ondemand: 0.5,
                media: 0.5,
            },
            ..Lifecycle::default()
        };
        // The lifecycles past the counted ones outnumber them.
        let mut lifes: Vec<Lifecycle> = (0..MIN_LIFECYCLES).map(|_| life(1024)).collect();
        lifes.extend((0..=MIN_LIFECYCLES).map(|_| life(4096)));
        let (metrics, _) = end_to_end(&lifes);
        let of = |name: &str| {
            let m = metrics.iter().find(|m| m.name == name).expect(name);
            (m.value, m.raw, m.samples)
        };
        assert_eq!(of("setup_s"), (1.0, Some(2.0), lifes.len()));
        assert_eq!(of("fg_ops_per_s"), (200.0, Some(100.0), lifes.len()));
        assert_eq!(of("commit_p99_us"), (5.0, Some(10.0), 4 * lifes.len()));
        assert_eq!(of("restart_offline_ms"), (2.0, Some(4.0), 2 * lifes.len()));
        assert_eq!(of("crash_suffix_kb"), (1.0, None, MIN_LIFECYCLES));
    }

    /// An `--out` document of one workload: every number 1 except the
    /// two given.
    fn suite_with(workload: &str, fg_ops_per_s: f64, divergent_cells: f64) -> Json {
        let metrics = END_TO_END.map(|(name, unit, ..)| Metric {
            name,
            value: if name == "fg_ops_per_s" {
                fg_ops_per_s
            } else {
                1.0
            },
            unit,
            samples: 1,
            series: Vec::new(),
            raw: None,
        });
        let section = Json::obj([
            (DIVERGENT_KEY, Json::Num(divergent_cells)),
            ("end_to_end", metrics_json(&metrics)),
        ]);
        Json::obj([("workloads", Json::obj([(workload, section)]))])
    }

    fn suite(workload: &str, fg_ops_per_s: f64) -> Json {
        suite_with(workload, fg_ops_per_s, 0.0)
    }

    #[test]
    fn compare_gates_listed_workloads_only() {
        let bounds = benchmark_json();
        let gate = |w: &str, a: f64, b: f64| compare(&suite(w, a), &suite(w, b), &bounds);
        assert_eq!(gate("mem_wide", 100.0, 90.0), Ok(true));
        assert_eq!(gate("mem_wide", 100.0, 200.0), Ok(true));
        assert_eq!(gate("mem_wide", 100.0, 50.0), Ok(false));
        // Not in BENCHMARK.json: reported, never gating.
        assert_eq!(gate("elsewhere", 100.0, 50.0), Ok(true));
        assert_eq!(
            compare(&suite("mem_wide", 1.0), &suite("mem_cross", 1.0), &bounds),
            Ok(false)
        );
        assert!(compare(&Json::Null, &suite("mem_wide", 1.0), &bounds).is_err());
    }

    #[test]
    fn compare_fails_growth_of_the_waived_ondemand_cells() {
        let bounds = benchmark_json();
        let gate = |a: f64, b: f64| {
            compare(
                &suite_with("mem_cross", 1.0, a),
                &suite_with("mem_cross", 1.0, b),
                &bounds,
            )
        };
        assert_eq!(gate(0.8, 0.8), Ok(true));
        assert_eq!(gate(0.8, 1.8), Ok(true));
        assert_eq!(gate(0.8, 1.9), Ok(false));
        // One page in one of some thirty lifecycles, where there was none.
        assert_eq!(gate(0.0, 0.25), Ok(true));
        assert_eq!(gate(0.0, 0.3), Ok(false));
    }

    #[test]
    fn summarize_takes_medians_and_feeds_compare() {
        let runs = [90.0, 100.0, 130.0].map(|v| suite("mem_wide", v));
        let baseline = summarize(&runs).expect("three runs");
        let fg = baseline
            .get("workloads")
            .and_then(|w| w.get("mem_wide"))
            .and_then(|w| end_to_end_value(w, "fg_ops_per_s"));
        assert_eq!(fg, Some(100.0));
        assert_eq!(compare(&baseline, &runs[0], &benchmark_json()), Ok(true));
        assert!(summarize(&runs[..1]).is_err());
    }
}
