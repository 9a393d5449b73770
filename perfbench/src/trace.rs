//! An in-memory span recorder for the traced run.
//!
//! The benchmark wraps every call it makes into a layer in a span —
//! name (the layer's module and function), start, end, the span that
//! caused it, and a request id (operation id, commit-group id or
//! repetition). Spans stay in memory until the run ends. A layer's
//! *self time* is its spans' duration minus the part their child spans
//! cover, so nested calls are never counted twice.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

/// "No parent": the span is a root.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded interval.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `concurrent.execute`.
    pub name: &'static str,
    /// Index of the span this one ran inside, or [`NO_PARENT`].
    pub parent: u32,
    /// What the span worked for: op id, group id or repetition.
    pub req: u64,
    /// Start, in nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// Per-name totals over a recorder's spans.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Every span's full duration in nanoseconds, ascending.
    pub durations_ns: Vec<f64>,
}

/// Records spans on one thread; recorders of worker threads are folded
/// into the main one with [`SpanRecorder::absorb`].
#[derive(Debug)]
pub struct SpanRecorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanRecorder {
    /// A recorder measuring from `epoch`. A disabled recorder reads no
    /// clock and stores nothing, so the untraced run pays one branch
    /// per call site.
    #[must_use]
    pub fn new(enabled: bool, epoch: Instant) -> SpanRecorder {
        SpanRecorder {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for a worker thread: same switch, same epoch.
    #[must_use]
    pub fn fork(&self) -> SpanRecorder {
        SpanRecorder::new(self.enabled, self.epoch)
    }

    /// Is this recorder storing spans?
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the epoch, for callers that time a call
    /// themselves and hand the interval to [`SpanRecorder::record`].
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Room for `additional` more spans, so the hot loop never grows
    /// the vector.
    pub fn reserve(&mut self, additional: usize) {
        if self.enabled {
            self.spans.reserve(additional);
        }
    }

    /// Stores a finished leaf span under the innermost open span.
    pub fn record(&mut self, name: &'static str, req: u64, start_ns: u64, end_ns: u64) {
        if self.enabled {
            self.spans.push(Span {
                name,
                parent: self.open.last().copied().unwrap_or(NO_PARENT),
                req,
                start_ns,
                end_ns,
            });
        }
    }

    /// Runs `f` inside a span; spans `f` records nest under it.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        req: u64,
        f: impl FnOnce(&mut SpanRecorder) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.record(name, req, start_ns, start_ns);
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx as usize].end_ns = self.now_ns();
        out
    }

    /// Folds a worker thread's spans in, hanging its roots under the
    /// innermost span open here.
    pub fn absorb(&mut self, worker: SpanRecorder) {
        let base = self.spans.len() as u32;
        let adopt = self.open.last().copied().unwrap_or(NO_PARENT);
        self.spans.extend(worker.spans.into_iter().map(|mut s| {
            s.parent = if s.parent == NO_PARENT {
                adopt
            } else {
                s.parent + base
            };
            s
        }));
    }

    /// The spans recorded so far.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Calls, self time and sorted durations per span name.
    #[must_use]
    pub fn by_name(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(covered) {
            let dur = s.end_ns - s.start_ns;
            let layer = out.entry(s.name).or_default();
            layer.calls += 1;
            // Children on another thread can overlap each other, so
            // their sum may exceed the parent: self time floors at 0.
            layer.self_ns += dur.saturating_sub(covered);
            layer.durations_ns.push(dur as f64);
        }
        for layer in out.values_mut() {
            crate::stats::sort(&mut layer.durations_ns);
        }
        out
    }

    /// Writes the span file: a name table, then one
    /// `[name, parent, req, start_ns, end_ns]` row per span (`parent`
    /// is a row index, `-1` for a root).
    ///
    /// # Errors
    ///
    /// I/O errors from `w`.
    pub fn write_json(&self, w: &mut impl Write) -> io::Result<()> {
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let quoted: Vec<String> = names
            .iter()
            .map(|n| crate::json::Json::str(*n).to_line())
            .collect();
        writeln!(w, "{{\"names\":[{}],", quoted.join(","))?;
        writeln!(
            w,
            "\"columns\":[\"name\",\"parent\",\"req\",\"start_ns\",\"end_ns\"],"
        )?;
        writeln!(w, "\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let name = names.binary_search(&s.name).expect("name was collected");
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "[{name},{parent},{},{},{}]{sep}",
                s.req, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut rec = SpanRecorder::new(false, Instant::now());
        let out = rec.span("outer", 1, |rec| {
            rec.record("leaf", 2, 0, 10);
            7
        });
        assert_eq!(out, 7);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut rec = SpanRecorder::new(true, Instant::now());
        rec.span("outer", 0, |rec| {
            rec.record("leaf", 1, 100, 150);
            rec.record("leaf", 2, 200, 230);
        });
        // Pin the outer interval so the arithmetic is exact.
        rec.spans[0].start_ns = 0;
        rec.spans[0].end_ns = 1000;
        let by = rec.by_name();
        assert_eq!(by["leaf"].calls, 2);
        assert_eq!(by["leaf"].self_ns, 80);
        assert_eq!(by["leaf"].durations_ns, vec![30.0, 50.0]);
        assert_eq!(by["outer"].self_ns, 920);
        assert_eq!(rec.spans()[1].parent, 0);
        assert_eq!(rec.spans()[0].parent, NO_PARENT);
    }

    #[test]
    fn absorbed_worker_spans_hang_under_the_open_span() {
        let mut main = SpanRecorder::new(true, Instant::now());
        main.record("before", 0, 0, 1);
        let mut worker = main.fork();
        worker.span("client", 1, |w| w.record("op", 9, 5, 6));
        main.span("foreground", 0, |main| main.absorb(worker));
        let spans = main.spans();
        assert_eq!(spans[1].name, "foreground");
        assert_eq!(spans[2].name, "client");
        assert_eq!(spans[2].parent, 1);
        assert_eq!(spans[3].name, "op");
        assert_eq!(spans[3].parent, 2);
    }

    #[test]
    fn span_file_is_json() {
        let mut rec = SpanRecorder::new(true, Instant::now());
        rec.span("b.outer", 3, |rec| rec.record("a.leaf", 4, 1, 2));
        let mut buf = Vec::new();
        rec.write_json(&mut buf).expect("write to a Vec");
        let doc = Json::parse(std::str::from_utf8(&buf).expect("utf-8")).expect("valid JSON");
        let names = doc.get("names").and_then(Json::as_arr).expect("names");
        assert_eq!(names, [Json::str("a.leaf"), Json::str("b.outer")]);
        let spans = doc.get("spans").and_then(Json::as_arr).expect("spans");
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].to_line(), "[0,0,4,1,2]");
        assert_eq!(spans[0].as_arr().expect("row")[1], Json::Num(-1.0));
    }
}
