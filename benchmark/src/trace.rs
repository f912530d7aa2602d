//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer of the program.
//!
//! A span is `(name, start, end, parent, operation id)`; the name is
//! the layer (`crate.module` of the function called). Spans stay in
//! memory and are written to `out/<workload>.trace.json` when the run
//! ends. A layer's **self time** is its spans' length minus the part
//! their child spans cover.
//!
//! One boundary is too hot to record call by call: `Scheduler::decide`
//! runs up to a million times a second, and a span per call would
//! measure the tracer. Those calls are **folded**: the timing wrapper
//! sums them, and one span per episode carries the summed length and
//! the call count ([`Tracer::folded`]).

use std::collections::BTreeMap;
use std::ops::Range;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer the span belongs to.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin. For a folded span, `start + summed
    /// length of its calls`.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Operation (episode, iteration, scenario) the span belongs to;
    /// spans of one operation share it.
    pub op: u64,
    /// Calls folded into the span (1 for an ordinary span).
    pub calls: u64,
}

impl Span {
    /// Length in ns.
    pub fn len_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; every method is a no-op otherwise, so
/// workloads are written once and the untraced run pays one branch.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores everything.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op,
            calls: 1,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records `calls` calls of summed length `busy_ns` as one child of
    /// the innermost open span, starting where that span started.
    pub fn folded(&mut self, name: &'static str, op: u64, busy_ns: u64, calls: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.stack.last().copied();
        let start_ns = parent.map_or_else(|| self.now_ns(), |p| self.spans[p].start_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + busy_ns,
            parent,
            op,
            calls,
        });
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"calls\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op, s.calls
            ));
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}

/// Self time of every span, in ns: its length minus its children's
/// lengths (never below zero — folded children are sums, and clock
/// granularity can push them a few ns past their parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::len_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.len_ns());
        }
    }
    own
}

/// The index range of every root span with its descendants. A root's
/// descendants are recorded after it and before the next root, so each
/// range is contiguous.
pub fn root_ranges(spans: &[Span]) -> Vec<(&'static str, Range<usize>)> {
    let roots: Vec<usize> = (0..spans.len())
        .filter(|&i| spans[i].parent.is_none())
        .collect();
    roots
        .iter()
        .enumerate()
        .map(|(k, &r)| {
            let end = roots.get(k + 1).copied().unwrap_or(spans.len());
            (spans[r].name, r..end)
        })
        .collect()
}

/// The range of the last root span named `name` (empty when absent).
pub fn root_range(spans: &[Span], name: &str) -> Range<usize> {
    root_ranges(spans)
        .into_iter()
        .rev()
        .find(|(n, _)| *n == name)
        .map_or(0..0, |(_, r)| r)
}

/// Self time per layer name, in seconds, over the spans in `range`.
pub fn layer_self_secs(spans: &[Span], range: Range<usize>) -> BTreeMap<&'static str, f64> {
    let own = self_times(spans);
    let mut out = BTreeMap::new();
    for i in range {
        *out.entry(spans[i].name).or_insert(0.0) += own[i] as f64 * 1e-9;
    }
    out
}

/// Summed length, in seconds, and summed call count of the spans named
/// `name` in `range`.
pub fn total_secs(spans: &[Span], range: Range<usize>, name: &str) -> (f64, u64) {
    spans[range]
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0), |(t, c), s| {
            (t + s.len_ns() as f64 * 1e-9, c + s.calls)
        })
}
