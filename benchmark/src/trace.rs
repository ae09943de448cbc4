//! In-memory spans, recorded by the benchmark around its calls into the
//! layers and written out once, at exit.
//!
//! A span is `{id, parent, name, start_ns, end_ns, retrieval}`; spans of one
//! retrieval share its identifier.  A layer's *self time* is its span's
//! duration minus the part of that interval its child spans cover; the
//! *residual* is the self time of the root spans — whatever no layer call
//! accounts for.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in its tracer; `NO_PARENT` marks a root.
pub type SpanId = u32;
pub const NO_PARENT: SpanId = u32::MAX;

/// An interned span name (cheap to copy into every span).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct NameId(u16);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub parent: SpanId,
    pub name: NameId,
    pub start_ns: u64,
    pub end_ns: u64,
    pub retrieval: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans.  A disabled tracer records nothing and hands out
/// `NO_PARENT`, so the untraced run pays one branch per call site.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    names: Vec<&'static str>,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            names: Vec::new(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Interns `name`; call once per call site, outside the hot loop.
    pub fn name(&mut self, name: &'static str) -> NameId {
        let index = match self.names.iter().position(|n| *n == name) {
            Some(index) => index,
            None => {
                self.names.push(name);
                self.names.len() - 1
            }
        };
        NameId(u16::try_from(index).expect("a trace has a few dozen span names"))
    }

    pub fn name_of(&self, id: NameId) -> &'static str {
        self.names[id.0 as usize]
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: NameId, parent: SpanId, retrieval: u32) -> SpanId {
        if !self.enabled {
            return NO_PARENT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            retrieval,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NO_PARENT {
            self.spans[id as usize].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: NameId,
        parent: SpanId,
        retrieval: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, retrieval);
        let out = f();
        self.end(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals over every recorded span.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotal> {
        let selfs = self_times(&self.spans);
        let mut totals: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let entry = totals.entry(self.name_of(span.name)).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += self_ns;
        }
        totals
    }

    /// The spans as JSON, root spans always, child spans only for the first
    /// `full_retrievals` retrievals — a bulk retrieval is ten thousand
    /// calls, and the totals already cover every one of them.
    pub fn to_json(&self, full_retrievals: u32) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent == NO_PARENT || s.retrieval < full_retrievals)
            .map(|(id, s)| {
                Json::obj(vec![
                    ("id", Json::Num(id as f64)),
                    (
                        "parent",
                        if s.parent == NO_PARENT {
                            Json::Null
                        } else {
                            Json::Num(s.parent as f64)
                        },
                    ),
                    ("name", Json::str(self.name_of(s.name))),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("retrieval", Json::Num(s.retrieval as f64)),
                ])
            })
            .collect();
        Json::Arr(spans)
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTotal {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the union of its children's
/// intervals clipped to it (children that overlap each other are not
/// subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            if let Some(list) = children.get_mut(span.parent as usize) {
                list.push((span.start_ns, span.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = span.start_ns;
            for &(start, end) in intervals.iter() {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

/// What the root spans of a trace add up to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Σ duration of root spans.
    pub root_ns: u64,
    /// Σ self time of every non-root span.
    pub layers_ns: u64,
    /// Σ self time of root spans: time no layer call covers.
    pub residual_ns: u64,
}

impl Budget {
    pub fn residual_share(&self) -> f64 {
        if self.root_ns == 0 {
            0.0
        } else {
            self.residual_ns as f64 / self.root_ns as f64
        }
    }

    /// `(layers + residual) / roots`; 1.0 when the budget adds up.
    pub fn coverage(&self) -> f64 {
        if self.root_ns == 0 {
            1.0
        } else {
            (self.layers_ns + self.residual_ns) as f64 / self.root_ns as f64
        }
    }
}

pub fn budget(spans: &[Span]) -> Budget {
    let selfs = self_times(spans);
    let mut budget = Budget {
        root_ns: 0,
        layers_ns: 0,
        residual_ns: 0,
    };
    for (span, self_ns) in spans.iter().zip(selfs) {
        if span.parent == NO_PARENT {
            budget.root_ns += span.duration_ns();
            budget.residual_ns += self_ns;
        } else {
            budget.layers_ns += self_ns;
        }
    }
    budget
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: SpanId, name: u16, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            name: NameId(name),
            start_ns,
            end_ns,
            retrieval: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_coverage() {
        let spans = [
            span(NO_PARENT, 0, 0, 100), // root
            span(0, 1, 10, 30),         // child a
            span(0, 2, 40, 90),         // child b
            span(2, 3, 50, 60),         // grandchild under b
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = [
            span(NO_PARENT, 0, 100, 200),
            span(0, 1, 110, 150),
            span(0, 1, 140, 170), // overlaps the previous child by 10
            span(0, 1, 190, 250), // hangs over the parent's end by 50
        ];
        // Covered: [110,170) ∪ [190,200) = 70 → self 30.
        assert_eq!(self_times(&spans)[0], 30);
    }

    #[test]
    fn the_budget_adds_up_to_the_roots() {
        let spans = [
            span(NO_PARENT, 0, 0, 100),
            span(0, 1, 10, 30),
            span(0, 2, 40, 90),
            span(2, 3, 50, 60),
            span(NO_PARENT, 0, 200, 260),
            span(4, 1, 200, 255),
        ];
        let b = budget(&spans);
        assert_eq!(b.root_ns, 160);
        assert_eq!(b.layers_ns, 20 + 40 + 10 + 55);
        assert_eq!(b.residual_ns, 30 + 5);
        assert_eq!(b.layers_ns + b.residual_ns, b.root_ns);
        assert!((b.coverage() - 1.0).abs() < 1e-12);
        assert!((b.residual_share() - 35.0 / 160.0).abs() < 1e-12);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tracer = Tracer::new(false);
        let name = tracer.name("x");
        let id = tracer.begin(name, NO_PARENT, 0);
        tracer.end(id);
        assert_eq!(tracer.span(name, id, 0, || 7), 7);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn totals_group_by_name_and_json_caps_child_spans() {
        let mut tracer = Tracer::new(true);
        let root = tracer.name("retrieval");
        let call = tracer.name("layer.call");
        assert_eq!(tracer.name("retrieval"), root);
        for retrieval in 0..3 {
            let r = tracer.begin(root, NO_PARENT, retrieval);
            tracer.span(call, r, retrieval, || std::hint::black_box(1 + 1));
            tracer.span(call, r, retrieval, || std::hint::black_box(2 + 2));
            tracer.end(r);
        }
        let totals = tracer.totals();
        assert_eq!(totals["retrieval"].count, 3);
        assert_eq!(totals["layer.call"].count, 6);
        assert_eq!(totals["layer.call"].self_ns, totals["layer.call"].total_ns);
        // Roots of all three retrievals, children of the first only.
        let Json::Arr(written) = tracer.to_json(1) else {
            panic!("spans are written as an array");
        };
        assert_eq!(written.len(), 3 + 2);
    }
}
