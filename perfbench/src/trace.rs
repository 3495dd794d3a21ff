//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around its calls into
//! each layer; nothing inside the program is instrumented. A span
//! records its name, start, end, parent and a count of the calls it
//! covers, so a loop of many cheap calls (one `submit` per job) is one
//! span rather than one per call. Calls made by the engine itself
//! (`select_victim`) are added afterwards as one aggregated child per
//! parent, laid at the parent's start.
//!
//! A disabled tracer records nothing and never reads the clock, so the
//! untraced passes run the same code with no timer cost.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::{Duration, Instant};

/// Index of a recorded span (a dummy when the tracer is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer (or unit-run) name.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Calls the span covers.
    pub count: u64,
    /// Roots of unit runs are the denominator of coverage; set-up roots
    /// are not.
    pub unit: bool,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Self time and calls of one layer, summed over the run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotal {
    /// Seconds of self time (duration minus child spans).
    pub self_s: f64,
    /// Calls covered.
    pub count: u64,
}

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that starts enabled or disabled.
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// True while spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, parent: Option<SpanId>, unit: bool) -> SpanId {
        if !self.on {
            return SpanId(usize::MAX);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map(|p| p.0),
            count: 0,
            unit,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Opens the root span of one unit run.
    pub fn unit(&mut self, name: &'static str) -> SpanId {
        self.push(name, None, true)
    }

    /// Opens a span; `parent` is `None` for a root that is not a unit
    /// run (set-up).
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        self.push(name, parent, false)
    }

    /// Closes `id`, recording the number of calls it covered.
    pub fn close(&mut self, id: SpanId, count: u64) {
        if !self.on {
            return;
        }
        let end_ns = self.now_ns();
        let span = &mut self.spans[id.0];
        span.end_ns = end_ns;
        span.count = count;
    }

    /// Adds an aggregated child of `parent`: `total` time over `count`
    /// calls, laid at the parent's start.
    pub fn aggregate(&mut self, parent: SpanId, name: &'static str, total: Duration, count: u64) {
        if !self.on {
            return;
        }
        let start_ns = self.spans[parent.0].start_ns;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + total.as_nanos() as u64,
            parent: Some(parent.0),
            count,
            unit: false,
        });
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and calls per span name, over every non-root span.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTotal> {
        let self_ns = self.self_ns();
        let mut out: BTreeMap<&'static str, LayerTotal> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            if span.parent.is_none() {
                continue;
            }
            let t = out.entry(span.name).or_default();
            t.self_s += own as f64 / 1e9;
            t.count += span.count;
        }
        out
    }

    /// Share of unit-run wall time covered by layer self times, in
    /// percent (0 when no unit run was traced).
    pub fn coverage_pct(&self) -> f64 {
        let self_ns = self.self_ns();
        let mut in_unit = vec![false; self.spans.len()];
        let (mut wall, mut covered) = (0u64, 0u64);
        for (i, span) in self.spans.iter().enumerate() {
            in_unit[i] = match span.parent {
                None => span.unit,
                Some(p) => in_unit[p],
            };
            if span.parent.is_none() && span.unit {
                wall += span.duration_ns();
            } else if span.parent.is_some() && in_unit[i] {
                covered += self_ns[i];
            }
        }
        if wall == 0 {
            0.0
        } else {
            covered as f64 / wall as f64 * 100.0
        }
    }

    /// Duration of each span minus the durations of its children.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Writes the spans as Chrome trace-event JSON (complete events,
    /// microsecond timestamps), which Perfetto and `chrome://tracing`
    /// open.
    pub fn write_chrome(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "{{\"traceEvents\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"count\": {}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.duration_ns() as f64 / 1e3,
                s.count,
                if i + 1 < self.spans.len() { "," } else { "" },
            )?;
        }
        writeln!(out, "], \"displayTimeUnit\": \"ms\"}}")
    }
}
