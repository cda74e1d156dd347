//! In-memory spans recorded around calls into each layer, from the
//! benchmark's side of the call. Written out once, when the run ends.
//!
//! A span is `{name, start_ns, end_ns, parent, op_id}` plus the number
//! of `units` (calls, bytes, rows...) the timed call processed, so a
//! per-unit cost is `total time / total units`. A span's *self time* is
//! its duration minus its direct children's: what the layer spent that
//! no inner layer accounts for.

use std::collections::BTreeMap;
use std::time::Instant;

use dmp_service::wire::Json;

/// The span every traced operation is wrapped in.
pub const OP: &str = "op";

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer function, e.g. `service.journal.append`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, same clock.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation this span belongs to.
    pub op_id: u64,
    /// Units of work the call processed.
    pub units: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-name totals over a trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Aggregate {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Sum of their units.
    pub units: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their self times.
    pub self_ns: u64,
}

/// A single-threaded span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op_id: u64,
    /// `name -> (sum, samples)` for counts taken at layer boundaries.
    counters: BTreeMap<&'static str, (f64, f64)>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op_id: 0,
            counters: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name` that processed `units` units.
    /// Spans opened inside `f` (through the tracer it is handed) become
    /// children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        units: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id: self.op_id,
            units,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Time one whole operation: a root [`OP`] span with a fresh op id.
    pub fn op<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.op_id += 1;
        self.span(OP, 1, f)
    }

    /// Correct the units of the most recently *closed* span named
    /// `name` — for calls whose work size is only known afterwards.
    pub fn set_units(&mut self, name: &'static str, units: u64) {
        if let Some(span) = self.spans.iter_mut().rev().find(|s| s.name == name) {
            span.units = units;
        }
    }

    /// Record a count observed at a layer boundary: `value` over `per`
    /// occasions (a ratio metric is `Σvalue / Σper`).
    pub fn count(&mut self, name: &'static str, value: f64, per: f64) {
        let slot = self.counters.entry(name).or_insert((0.0, 0.0));
        slot.0 += value;
        slot.1 += per;
    }

    /// `Σvalue / Σper` of a counter; `None` if never recorded.
    pub fn ratio(&self, name: &str) -> Option<f64> {
        self.counters
            .get(name)
            .filter(|(_, per)| *per > 0.0)
            .map(|(sum, per)| sum / per)
    }

    /// Append another thread's tracer (its clock is re-based onto this
    /// one's, its parent links and op ids are kept distinct).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other
            .origin
            .saturating_duration_since(self.origin)
            .as_nanos() as u64;
        let op_base = self.op_id;
        for mut span in other.spans {
            span.start_ns += shift;
            span.end_ns += shift;
            span.parent = span.parent.map(|p| p + base);
            span.op_id += op_base;
            self.spans.push(span);
        }
        self.op_id += other.op_id;
        for (name, (sum, per)) in other.counters {
            self.count(name, sum, per);
        }
    }

    /// Totals per span name, self times included.
    pub fn aggregate(&self) -> BTreeMap<&'static str, Aggregate> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children_ns[parent] += span.dur_ns();
            }
        }
        let mut out: BTreeMap<&'static str, Aggregate> = BTreeMap::new();
        for (span, child_ns) in self.spans.iter().zip(children_ns) {
            let agg = out.entry(span.name).or_default();
            agg.calls += 1;
            agg.units += span.units;
            agg.total_ns += span.dur_ns();
            agg.self_ns += span.dur_ns().saturating_sub(child_ns);
        }
        out
    }

    /// Share of operation wall time no child span covers: the root
    /// spans' self time over their total. 0 when no operation ran.
    pub fn unattributed_share(&self) -> f64 {
        match self.aggregate().get(OP) {
            Some(agg) if agg.total_ns > 0 => agg.self_ns as f64 / agg.total_ns as f64,
            _ => 0.0,
        }
    }

    /// The trace file: every span, then the per-name totals.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op_id", Json::Num(s.op_id as f64)),
                    ("units", Json::Num(s.units as f64)),
                ])
            })
            .collect();
        let totals = self
            .aggregate()
            .into_iter()
            .map(|(name, a)| {
                (
                    name.to_string(),
                    Json::obj([
                        ("calls", Json::Num(a.calls as f64)),
                        ("units", Json::Num(a.units as f64)),
                        ("total_ns", Json::Num(a.total_ns as f64)),
                        ("self_ns", Json::Num(a.self_ns as f64)),
                    ]),
                )
            })
            .collect();
        Json::obj([("spans", Json::Arr(spans)), ("totals", Json::Obj(totals))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
            units: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut t = Tracer::new();
        // op [0,100) ⊃ a [10,60) ⊃ b [20,30); op ⊃ a [70,90)
        t.spans = vec![
            span(OP, 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
            span("a", 70, 90, Some(0)),
        ];
        let agg = t.aggregate();
        assert_eq!(agg[OP].total_ns, 100);
        assert_eq!(
            agg[OP].self_ns, 30,
            "100 - (50 + 20): grandchildren do not count twice"
        );
        assert_eq!(agg["a"].calls, 2);
        assert_eq!(agg["a"].total_ns, 70);
        assert_eq!(agg["a"].self_ns, 60);
        assert_eq!(agg["b"].self_ns, 10);
        assert!((t.unattributed_share() - 0.30).abs() < 1e-12);
    }

    #[test]
    fn nesting_follows_the_call_structure() {
        let mut t = Tracer::new();
        t.op(|t| {
            t.span("outer", 2, |t| t.span("inner", 3, |_| ()));
            t.span("sibling", 1, |_| ());
        });
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                (OP, None),
                ("outer", Some(0)),
                ("inner", Some(1)),
                ("sibling", Some(0))
            ]
        );
        assert!(t
            .spans
            .iter()
            .all(|s| s.op_id == 1 && s.end_ns >= s.start_ns));
        t.set_units("inner", 9);
        assert_eq!(t.aggregate()["inner"].units, 9);
    }

    #[test]
    fn absorb_keeps_parents_and_ops_apart() {
        let mut a = Tracer::new();
        a.op(|t| t.span("x", 1, |_| ()));
        let mut b = Tracer::new();
        b.op(|t| t.span("y", 1, |_| ()));
        b.count("c", 4.0, 2.0);
        a.absorb(b);
        assert_eq!(a.spans[3].parent, Some(2));
        assert_eq!(a.spans[3].op_id, 2);
        assert_eq!(a.ratio("c"), Some(2.0));
        assert_eq!(a.ratio("missing"), None);
    }
}
