//! Spans recorded by the benchmark around its calls into each layer.
//!
//! An op span is the parent of the layer spans inside it (`prepare`,
//! `run_prepared`, `request`, `checkpoint`, ...), and every span of one op
//! carries the op's id. Set-up and recovery calls are spans without an op.
//! Spans stay in memory until the run ends and are then written out.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Op id of spans that belong to no op (set-up, recovery).
pub const NO_OP: u64 = u64::MAX;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Id of the op the span belongs to, or [`NO_OP`].
    pub op: u64,
    /// The layer call (or `op`).
    pub name: &'static str,
    /// Index of the parent span in the same [`Tracer`].
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The open span of one op and where its last lap ended. Laps keep time
/// whether or not the tracer records, since op latency is measured by them.
pub struct Laps {
    op: u64,
    span: Option<usize>,
    at: Instant,
}

/// An in-memory span recorder; records nothing when off.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder measuring from `epoch`; `on = false` records nothing.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span over `[start, end]`, returning its index.
    pub fn record(
        &mut self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            op,
            name,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        Some(self.spans.len() - 1)
    }

    /// Opens a span ending at [`close`](Self::close).
    fn open(&mut self, op: u64, name: &'static str, start: Instant) -> Option<usize> {
        self.record(op, name, None, start, start)
    }

    /// Closes a span opened with [`open`](Self::open).
    fn close(&mut self, idx: Option<usize>, end: Instant) {
        if let Some(i) = idx {
            self.spans[i].end_ns = self.ns(end);
        }
    }

    /// Opens op `op`'s span at `start`; its layer calls follow as laps.
    pub fn begin_op(&mut self, op: u64, start: Instant) -> Laps {
        Laps {
            op,
            span: self.open(op, "op", start),
            at: start,
        }
    }

    /// Runs `f` as the op's next lap, a span named `name` that starts where
    /// the previous lap ended. The benchmark's own bookkeeping between two
    /// calls is thereby charged to the next call, so an op's spans tile its
    /// whole duration even when the thread is descheduled between calls.
    pub fn lap<R>(&mut self, laps: &mut Laps, name: &'static str, f: impl FnOnce() -> R) -> R {
        let r = f();
        let now = Instant::now();
        self.record(laps.op, name, laps.span, laps.at, now);
        laps.at = now;
        r
    }

    /// Closes the op's span where its last lap ended and returns that
    /// instant, the op's end.
    pub fn end_op(&mut self, laps: Laps) -> Instant {
        self.close(laps.span, laps.at);
        laps.at
    }

    /// Runs `f` inside a span named `name` that belongs to no op (set-up
    /// and recovery calls).
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.record(NO_OP, name, None, start, Instant::now());
        r
    }

    /// Appends another tracer's spans (same epoch), keeping parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in nanoseconds, of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// For each op span, the share of its duration covered by its child
    /// spans; the smallest share over all ops, in percent (100 when there
    /// are no ops).
    pub fn min_op_coverage_pct(&self) -> f64 {
        let mut covered: BTreeMap<usize, u64> = BTreeMap::new();
        for s in &self.spans {
            if let Some(p) = s.parent {
                *covered.entry(p).or_default() += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == "op" && s.dur_ns() > 0)
            .map(|(i, s)| covered.get(&i).copied().unwrap_or(0) as f64 * 100.0 / s.dur_ns() as f64)
            .fold(100.0, f64::min)
    }

    /// Total and self nanoseconds per span name, where self time is a
    /// span's duration minus the part its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns();
            e.2 += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let op = if s.op == NO_OP {
                "null".to_string()
            } else {
                s.op.to_string()
            };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"op\":{op},\"name\":\"{}\",\"parent\":{parent},\
                 \"start_ns\":{},\"dur_ns\":{}}}{}",
                s.name,
                s.start_ns,
                s.dur_ns(),
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn coverage_and_self_time_follow_parent_links() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut t = Tracer::new(true, t0);
        let op = t.open(0, "op", at(0));
        t.record(0, "prepare", op, at(0), at(2));
        t.record(0, "run_prepared", op, at(2), at(9));
        t.close(op, at(10));
        assert_eq!(t.min_op_coverage_pct(), 90.0);
        let st = t.self_times();
        assert_eq!(st["op"], (1, 10_000_000, 1_000_000));
        assert_eq!(st["run_prepared"], (1, 7_000_000, 7_000_000));
        let mut other = Tracer::new(true, t0);
        let op2 = other.open(1, "op", at(20));
        other.record(1, "request", op2, at(20), at(30));
        other.close(op2, at(30));
        t.absorb(other);
        assert_eq!(t.spans()[4].parent, Some(3));
        assert!(t.to_json().contains("\"name\":\"request\",\"parent\":3"));
    }

    #[test]
    fn laps_tile_the_op_and_keep_time_when_off() {
        for on in [true, false] {
            let t0 = Instant::now();
            let mut t = Tracer::new(on, t0);
            let mut laps = t.begin_op(3, t0);
            assert_eq!(t.lap(&mut laps, "prepare", || 7), 7);
            std::thread::sleep(Duration::from_millis(2));
            t.lap(&mut laps, "run_prepared", || ());
            let end = t.end_op(laps);
            assert!(end.duration_since(t0) >= Duration::from_millis(2));
            if on {
                assert_eq!(t.min_op_coverage_pct(), 100.0);
                assert_eq!(t.spans()[2].end_ns, t.spans()[0].end_ns);
            } else {
                assert!(t.spans().is_empty());
            }
        }
    }
}
