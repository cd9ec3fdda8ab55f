//! Spans around the benchmark's calls into the measured layers.
//!
//! A span is recorded from the benchmark's side of a public call: name,
//! start, end, the enclosing span and the input chunk it served. Spans
//! stay in memory (up to [`MAX_KEPT_SPANS`]; every span still counts in
//! the per-name totals) and are written as JSON lines when the run ends.
//! A span's *self time* is its duration minus the time its child spans
//! cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::measure::Samples;

/// Spans kept verbatim for the JSON-lines file; later spans only feed
/// the per-name totals.
pub const MAX_KEPT_SPANS: usize = 20_000;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    chunk: u64,
}

struct Open {
    name: &'static str,
    start_ns: u64,
    kept: Option<usize>,
    child_ns: u64,
}

/// Per-name totals over every span recorded, kept or not.
#[derive(Debug, Clone, Default)]
pub struct SpanTotals {
    pub durations: Samples,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanTotals {
    pub fn count(&self) -> u64 {
        self.durations.count()
    }
}

/// A span recorder. Disabled tracers record nothing and cost one branch
/// per call, so the same code path runs in traced and untraced rounds.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    dropped: u64,
    stack: Vec<Open>,
    totals: BTreeMap<&'static str, SpanTotals>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin` (share it between
    /// threads so their spans line up).
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            enabled: false,
            spans: Vec::new(),
            dropped: 0,
            stack: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    pub fn set_enabled(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty(), "toggled inside an open span");
        self.enabled = on;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, chunk: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let kept = if self.spans.len() < MAX_KEPT_SPANS {
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.stack.last().and_then(|o| o.kept),
                chunk,
            });
            Some(self.spans.len() - 1)
        } else {
            self.dropped += 1;
            None
        };
        self.stack.push(Open {
            name,
            start_ns,
            kept,
            child_ns: 0,
        });
    }

    /// Closes the innermost open span and returns its duration
    /// (0 when disabled).
    pub fn exit(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end_ns = self.now_ns();
        let open = self.stack.pop().expect("exit without a matching enter");
        let dur = end_ns - open.start_ns;
        if let Some(i) = open.kept {
            self.spans[i].end_ns = end_ns;
        }
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let t = self.totals.entry(open.name).or_default();
        t.durations.add(dur);
        t.total_ns += dur;
        t.self_ns += dur - open.child_ns.min(dur);
        dur
    }

    /// Totals of one span name (empty when it never ran traced).
    pub fn totals(&self, name: &str) -> SpanTotals {
        self.totals.get(name).cloned().unwrap_or_default()
    }

    /// Moves another tracer's spans (recorded on another thread against
    /// the same origin) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        for mut s in other.spans {
            if self.spans.len() >= MAX_KEPT_SPANS {
                self.dropped += 1;
                continue;
            }
            s.parent = s.parent.map(|p| p + offset);
            self.spans.push(s);
        }
        self.dropped += other.dropped;
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.durations.absorb(&t.durations);
            mine.total_ns += t.total_ns;
            mine.self_ns += t.self_ns;
        }
    }

    /// Kept spans as JSON lines.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"chunk\": {}}}",
                s.name, s.start_ns, s.end_ns, s.chunk
            );
        }
        out
    }

    /// Per-name and per-layer self time, as one JSON document.
    pub fn summary_json(&self, layer_of: impl Fn(&str) -> &'static str) -> String {
        let mut by_layer: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let mut names = Vec::new();
        for (name, t) in &self.totals {
            let layer = layer_of(name);
            let e = by_layer.entry(layer).or_default();
            e.0 += t.count();
            e.1 += t.self_ns;
            names.push(format!(
                "    {{\"span\": \"{name}\", \"layer\": \"{layer}\", \"count\": {}, \"total_us\": {:.1}, \"self_us\": {:.1}}}",
                t.count(),
                t.total_ns as f64 / 1e3,
                t.self_ns as f64 / 1e3
            ));
        }
        let layers: Vec<String> = by_layer
            .iter()
            .map(|(layer, (count, self_ns))| {
                format!(
                    "    {{\"layer\": \"{layer}\", \"spans\": {count}, \"self_us\": {:.1}}}",
                    *self_ns as f64 / 1e3
                )
            })
            .collect();
        format!(
            "{{\n  \"spans_kept\": {},\n  \"spans_dropped\": {},\n  \"layers\": [\n{}\n  ],\n  \"spans\": [\n{}\n  ]\n}}\n",
            self.spans.len(),
            self.dropped,
            layers.join(",\n"),
            names.join(",\n")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_links_parents() {
        let mut t = Tracer::new(Instant::now());
        t.enter("outer", 0);
        t.exit(); // disabled: nothing recorded
        assert_eq!(t.totals("outer").count(), 0);

        t.set_enabled(true);
        t.enter("outer", 7);
        t.enter("inner", 7);
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner = t.exit();
        let outer = t.exit();
        assert!(outer >= inner && inner >= 2_000_000);
        let o = t.totals("outer");
        assert_eq!(o.total_ns, outer);
        assert_eq!(o.self_ns, outer - inner);
        assert_eq!(t.totals("inner").self_ns, inner);

        let lines = t.spans_jsonl();
        let lines: Vec<&str> = lines.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\": \"outer\"") && lines[0].contains("\"parent\": null"));
        assert!(lines[1].contains("\"parent\": 0") && lines[1].contains("\"chunk\": 7"));
        let summary = t.summary_json(|n| if n == "outer" { "a" } else { "b" });
        assert!(summary.contains("\"layer\": \"a\""), "{summary}");
    }

    #[test]
    fn absorb_offsets_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.set_enabled(true);
        a.enter("x", 0);
        a.exit();
        let mut b = Tracer::new(origin);
        b.set_enabled(true);
        b.enter("y", 1);
        b.enter("z", 1);
        b.exit();
        b.exit();
        a.absorb(b);
        let lines = a.spans_jsonl();
        assert!(
            lines.lines().nth(2).unwrap().contains("\"parent\": 1"),
            "{lines}"
        );
        assert_eq!(a.totals("z").count(), 1);
    }
}
