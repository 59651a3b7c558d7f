//! In-memory spans around the benchmark's calls into each layer.
//!
//! Every timed call goes through [`Tracer::time`], which always reads the
//! clock (the untraced run needs the duration for its end-to-end metrics)
//! and, only when tracing is on, also keeps a [`Span`]. Spans stay in
//! memory and are written out as JSON lines when the run ends.

use lsra_trace::json::JsonWriter;
use std::time::{Duration, Instant};

/// Identifies what a span worked on.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct Ids {
    /// Round number within the run (the warm-up round is never traced).
    pub round: u32,
    /// Program index within the workload (`u32::MAX` for none).
    pub program: u32,
    /// Allocator name, or `""` when the call is not allocator-specific.
    pub alloc: &'static str,
}

impl Ids {
    /// Ids of a call made once per round, outside any program.
    pub fn round(round: u32) -> Ids {
        Ids { round, program: u32::MAX, alloc: "" }
    }
}

/// One finished (or still open) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer metric name, e.g. `core.alloc` or `checker.check`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (`start_ns` while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Round, program and allocator of the work.
    pub ids: Ids,
}

/// Span recorder for one thread of one run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns span recording on or off (open spans stay open).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a parent span; children timed before [`Tracer::close`] nest
    /// under it.
    pub fn open(&mut self, name: &'static str, ids: Ids) {
        if !self.enabled {
            return;
        }
        let now = self.ns(Instant::now());
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, ids });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = self.ns(Instant::now());
        }
    }

    /// Times `f`, keeping a leaf span when tracing is on, and returns its
    /// result with the elapsed wall time.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        ids: Ids,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let r = std::hint::black_box(f());
        let end = Instant::now();
        if self.enabled {
            let parent = self.open.last().copied();
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span { name, start_ns, end_ns, parent, ids });
        }
        (r, end - start)
    }

    /// Every span kept so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another thread's spans into this tracer, re-basing their
    /// clock and parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.origin.saturating_duration_since(self.origin).as_nanos() as u64;
        for mut s in other.spans {
            s.start_ns += shift;
            s.end_ns += shift;
            s.parent = s.parent.map(|p| p + base);
            self.spans.push(s);
        }
    }

    /// Self time of every span: its duration minus the part its direct
    /// children cover. Children of one parent never overlap (each tracer
    /// belongs to one thread).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Renders every span as one JSON object per line.
    pub fn to_jsonl(&self, workload: &str, programs: &[String]) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let mut w = JsonWriter::new();
            w.begin_object();
            w.field_uint("id", i as u64);
            w.field_str("name", s.name);
            w.field_uint("start_ns", s.start_ns);
            w.field_uint("end_ns", s.end_ns);
            w.key("parent");
            match s.parent {
                Some(p) => w.uint(p as u64),
                None => w.null(),
            }
            w.field_str("workload", workload);
            w.field_uint("round", u64::from(s.ids.round));
            w.field_str("program", programs.get(s.ids.program as usize).map_or("", String::as_str));
            w.field_str("allocator", s.ids.alloc);
            w.end_object();
            out.push_str(&w.finish());
            out.push('\n');
        }
        out
    }
}

/// Per-layer totals over the traced rounds of a run: for each traced
/// round, the self time of every span that passes `keep`, summed; then
/// the median over rounds, in milliseconds.
pub fn layer_ms(tr: &Tracer, rounds: &[u32], keep: impl Fn(&Span) -> bool) -> f64 {
    let own = tr.self_ns();
    let per_round: Vec<f64> = rounds
        .iter()
        .map(|&r| {
            tr.spans()
                .iter()
                .zip(&own)
                .filter(|(s, _)| s.ids.round == r && keep(s))
                .map(|(_, &ns)| ns as f64 / 1e6)
                .sum()
        })
        .collect();
    crate::stats::median(&per_round)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.open("parent", Ids::round(0));
        tr.time("child", Ids::round(0), || std::thread::sleep(Duration::from_millis(2)));
        tr.close();
        let own = tr.self_ns();
        let child = tr.spans()[1].end_ns - tr.spans()[1].start_ns;
        let parent = tr.spans()[0].end_ns - tr.spans()[0].start_ns;
        assert_eq!(own[0], parent - child);
        assert_eq!(own[1], child);
        assert_eq!(tr.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_tracer_keeps_nothing_but_still_times() {
        let mut tr = Tracer::new(false);
        tr.open("p", Ids::round(0));
        let (_, dt) = tr.time("c", Ids::round(0), || std::thread::sleep(Duration::from_millis(1)));
        tr.close();
        assert!(tr.spans().is_empty());
        assert!(dt >= Duration::from_millis(1));
    }
}
