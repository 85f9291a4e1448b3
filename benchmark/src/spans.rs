//! Spans recorded from the benchmark's own files around each call into a
//! layer's public functions: kept in memory, written as chrome-trace JSON
//! when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One call (or one chunk of 1 024 `push` calls) into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Core speed ÷ reference while it ran (see [`crate::clock`]); totals
    /// are reported at the reference clock, the chrome trace is raw.
    pub factor: f64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The pass this span belongs to: spans of one pass share it.
    pub pass: u32,
}

impl Span {
    /// Duration at the reference core clock.
    fn scaled_ns(&self) -> u64 {
        ((self.end_ns - self.start_ns) as f64 * self.factor) as u64
    }
}

/// Handle returned by [`Tracer::open`].
pub struct Open(Option<u32>);

/// Span recorder. Switched off it costs one branch per call site, so the
/// untraced and the traced pass run the same code.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    pass: u32,
    stack: Vec<u32>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            pass: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn next_pass(&mut self) {
        self.pass += 1;
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            factor: crate::clock::last_factor(),
            parent: self.stack.last().copied(),
            pass: self.pass,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn close(&mut self, open: Open) {
        if let Some(id) = open.0 {
            self.spans[id as usize].end_ns = self.now();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Total and self time per span name; a span's self time is its
    /// duration minus the part its children cover.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.scaled_ns();
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let t = out.entry(s.name).or_default();
            t.calls += 1;
            t.total_ns += s.scaled_ns();
            t.self_ns += s.scaled_ns().saturating_sub(children);
        }
        out
    }

    /// Total time under `name`, 0 when it never ran.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::scaled_ns)
            .sum()
    }

    /// Chrome trace events (`chrome://tracing`, Perfetto): complete events
    /// in µs, one viewer process per `pid`, one thread per pass. Wrap them
    /// as `{"traceEvents": [...]}`.
    pub fn chrome_events(&self, pid: u32) -> Vec<Json> {
        self.spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("pid", Json::Num(f64::from(pid))),
                    ("tid", Json::Num(f64::from(s.pass))),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
                            ),
                            ("pass", Json::Num(f64::from(s.pass))),
                        ]),
                    ),
                ])
            })
            .collect()
    }
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NameTotals {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tr = Tracer::new(true);
        let outer = tr.open("outer");
        for _ in 0..3 {
            let inner = tr.open("inner");
            std::hint::black_box((0..1000).sum::<u64>());
            tr.close(inner);
        }
        tr.close(outer);
        let t = tr.by_name();
        assert_eq!(t["inner"].calls, 3);
        assert_eq!(t["inner"].self_ns, t["inner"].total_ns);
        assert_eq!(
            t["outer"].self_ns,
            t["outer"].total_ns - t["inner"].total_ns
        );
        assert_eq!(tr.spans[1].parent, Some(0));
        let events = tr.chrome_events(7);
        assert_eq!(events.len(), 4);
        assert_eq!(events[1].get("pid"), Some(&Json::Num(7.0)));
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.open("x");
        tr.close(s);
        assert!(tr.spans.is_empty());
    }
}
