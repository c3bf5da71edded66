//! In-memory span recorder for the traced pass.
//!
//! A span is `{name, workload, start_ns, end_ns, parent}`. Spans are kept in
//! a `Vec` and written out once, when the pass ends. A name that has already
//! stored its cap of spans ([`DEFAULT_CAP`]) is from then on folded into its per-name
//! aggregate (count, total, self time, log₂ histogram) instead of being
//! stored one by one, so a long run cannot grow the trace without bound.
//!
//! Self time is a span's duration minus the time its child spans cover. It
//! is accumulated when a span closes, so it is exact for aggregated names
//! too. The recorder is single-threaded by design: every span is opened and
//! closed by the thread that drives the replay.

use std::time::Instant;

/// Stored spans per name before the name switches to aggregate-only.
pub const DEFAULT_CAP: usize = 100_000;

/// Buckets of the log₂ duration histogram: bucket `i` holds durations `d`
/// with `floor(log2(d)) == i - 1`, bucket 0 holds `d == 0`.
pub const HIST_BUCKETS: usize = 65;

/// One stored span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index into [`Tracer::names`].
    pub name: usize,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created; 0 while still open.
    pub end_ns: u64,
    /// Index of the nearest *stored* enclosing span.
    pub parent: Option<usize>,
}

/// Per-name totals over every span of that name, stored or not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NameStats {
    /// The span name.
    pub name: &'static str,
    /// Spans closed.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
    /// Spans stored individually (at most the cap).
    pub stored: usize,
    /// log₂ histogram of durations.
    pub hist: [u64; HIST_BUCKETS],
}

#[derive(Debug)]
struct Open {
    name: usize,
    start_ns: u64,
    child_ns: u64,
    slot: Option<usize>,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    workload: String,
    epoch: Instant,
    cap: usize,
    names: Vec<NameStats>,
    spans: Vec<Span>,
    open: Vec<Open>,
}

fn bucket(ns: u64) -> usize {
    (u64::BITS - ns.leading_zeros()) as usize
}

impl Tracer {
    /// A recorder for one workload's traced pass.
    pub fn new(workload: &str) -> Self {
        Self::with_cap(workload, DEFAULT_CAP)
    }

    /// A recorder with an explicit per-name storage cap.
    pub fn with_cap(workload: &str, cap: usize) -> Self {
        Tracer {
            workload: workload.to_string(),
            epoch: Instant::now(),
            cap,
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn name_index(&mut self, name: &'static str) -> usize {
        if let Some(i) = self.names.iter().position(|n| n.name == name) {
            return i;
        }
        self.names.push(NameStats {
            name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
            stored: 0,
            hist: [0; HIST_BUCKETS],
        });
        self.names.len() - 1
    }

    /// Open a span at the current time.
    pub fn enter(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.enter_at(name, start_ns);
    }

    /// Close the innermost open span at the current time.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        self.exit_at(end_ns);
    }

    /// Run `f` inside a span; `f` gets the tracer back to open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.enter(name);
        let out = f(self);
        self.exit();
        out
    }

    /// [`Tracer::enter`] with an explicit clock reading (tests).
    pub fn enter_at(&mut self, name: &'static str, start_ns: u64) {
        let name = self.name_index(name);
        let slot = (self.names[name].stored < self.cap).then(|| {
            self.names[name].stored += 1;
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: 0,
                parent: self.open.iter().rev().find_map(|o| o.slot),
            });
            self.spans.len() - 1
        });
        self.open.push(Open {
            name,
            start_ns,
            child_ns: 0,
            slot,
        });
    }

    /// [`Tracer::exit`] with an explicit clock reading (tests).
    pub fn exit_at(&mut self, end_ns: u64) {
        let o = self.open.pop().expect("exit without a matching enter");
        let dur = end_ns.saturating_sub(o.start_ns);
        let stats = &mut self.names[o.name];
        stats.count += 1;
        stats.total_ns += dur;
        stats.self_ns += dur.saturating_sub(o.child_ns);
        stats.hist[bucket(dur)] += 1;
        if let Some(slot) = o.slot {
            self.spans[slot].end_ns = end_ns;
        }
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
    }

    /// Per-name totals, in first-seen order.
    pub fn names(&self) -> &[NameStats] {
        &self.names
    }

    /// Totals for one name, if any span of it was closed.
    pub fn stats(&self, name: &str) -> Option<&NameStats> {
        self.names.iter().find(|n| n.name == name && n.count > 0)
    }

    /// Sum of durations of `name`'s spans (0 if none).
    pub fn total_ns(&self, name: &str) -> u64 {
        self.stats(name).map_or(0, |s| s.total_ns)
    }

    /// `total_ns / count` (0 if none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.stats(name)
            .map_or(0.0, |s| s.total_ns as f64 / s.count as f64)
    }

    /// Durations of the individually stored spans of `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        let Some(idx) = self.names.iter().position(|n| n.name == name) else {
            return Vec::new();
        };
        self.spans
            .iter()
            .filter(|s| s.name == idx && s.end_ns >= s.start_ns)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Spans closed so far, stored or aggregated.
    pub fn span_count(&self) -> u64 {
        self.names.iter().map(|n| n.count).sum()
    }

    /// Stored spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        assert!(self.open.is_empty(), "trace written with spans still open");
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(out, "{{\"workload\":\"{}\",\"spans\":[", self.workload);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"workload\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
                self.names[s.name].name, self.workload, s.start_ns, s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}}}");
                }
                None => out.push_str("null}"),
            }
        }
        out.push_str("\n],\"aggregates\":[");
        for (i, n) in self.names.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let last = n.hist.iter().rposition(|&c| c > 0).map_or(0, |p| p + 1);
            let hist: Vec<String> = n.hist[..last].iter().map(u64::to_string).collect();
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"stored\":{},\"log2_hist\":[{}]}}",
                n.name,
                n.count,
                n.total_ns,
                n.self_ns,
                n.stored,
                hist.join(",")
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new("w");
        t.enter_at("gen", 0);
        t.enter_at("plan", 10);
        t.exit_at(30); // 20
        t.enter_at("provide", 30);
        t.enter_at("game", 40);
        t.exit_at(90); // 50
        t.exit_at(100); // 70, self 20
        t.exit_at(120); // 120, self 120 - 20 - 70 = 30
        let s = |n| t.stats(n).unwrap().clone();
        assert_eq!((s("gen").total_ns, s("gen").self_ns), (120, 30));
        assert_eq!((s("plan").total_ns, s("plan").self_ns), (20, 20));
        assert_eq!((s("provide").total_ns, s("provide").self_ns), (70, 20));
        assert_eq!((s("game").total_ns, s("game").self_ns), (50, 50));
        // Self times of a tree sum to the root's duration.
        let sum: u64 = t.names().iter().map(|n| n.self_ns).sum();
        assert_eq!(sum, 120);
        assert_eq!(t.span_count(), 4);
    }

    #[test]
    fn parents_point_at_the_enclosing_stored_span() {
        let mut t = Tracer::new("w");
        t.enter_at("a", 0);
        t.enter_at("b", 1);
        t.exit_at(2);
        t.enter_at("b", 3);
        t.exit_at(4);
        t.exit_at(5);
        let parents: Vec<Option<usize>> = t.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        assert_eq!(t.durations("b"), vec![1, 1]);
    }

    #[test]
    fn names_over_the_cap_are_aggregated_not_stored() {
        let mut t = Tracer::with_cap("w", 3);
        t.enter_at("run", 0);
        for i in 0..10u64 {
            t.enter_at("gen", i * 10);
            t.enter_at("inner", i * 10 + 1);
            t.exit_at(i * 10 + 5);
            t.exit_at(i * 10 + 8);
        }
        t.exit_at(100);
        let gen = t.stats("gen").unwrap();
        assert_eq!(
            (gen.count, gen.stored, gen.total_ns, gen.self_ns),
            (10, 3, 80, 40)
        );
        // 8 ns falls in the [8, 16) bucket, 4 ns in [4, 8).
        assert_eq!(gen.hist[4], 10);
        assert_eq!(t.stats("inner").unwrap().hist[3], 10);
        assert_eq!(t.spans().len(), 1 + 3 + 3);
        // A stored child of an unstored parent hangs off the nearest stored
        // ancestor; here every "inner" beyond the cap is unstored as well.
        assert!(t.spans().iter().skip(1).all(|s| s.parent.is_some()));
        assert_eq!(t.stats("run").unwrap().self_ns, 20);
    }

    #[test]
    fn json_lists_spans_and_aggregates() {
        let mut t = Tracer::new("wm");
        t.enter_at("a", 5);
        t.enter_at("b", 6);
        t.exit_at(7);
        t.exit_at(9);
        let json = t.to_json();
        assert!(json.contains(
            "{\"name\":\"a\",\"workload\":\"wm\",\"start_ns\":5,\"end_ns\":9,\"parent\":null}"
        ));
        assert!(json.contains(
            "{\"name\":\"b\",\"workload\":\"wm\",\"start_ns\":6,\"end_ns\":7,\"parent\":0}"
        ));
        assert!(json.contains("\"name\":\"a\",\"count\":1,\"total_ns\":4,\"self_ns\":3"));
    }
}
