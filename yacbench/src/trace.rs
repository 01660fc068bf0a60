//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each call it makes into a layer's public function
//! in a span: name, start, end, the span that caused it, and the request
//! it belongs to. Batch spans, which cover many calls or one long one,
//! also record the calling thread's on-CPU time; reading it costs a few
//! microseconds, too much for spans around microsecond calls. Spans are
//! kept in memory and written out once, when the run ends. With tracing
//! off, [`Tracer::span`] returns an inert guard and records nothing.
//!
//! The overhead the recording adds is measured where spans are dense:
//! [`overhead_s`] times loops of empty spans traced and untraced and
//! charges the difference per span to every span the run recorded.

use crate::measure::{median, thread_cpu_ns};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id, unique within the run (ids start at 1).
    pub id: u32,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// `layer.function`, e.g. `pipeline.run`.
    pub name: &'static str,
    /// Request id: spans serving one request or one work item share it.
    pub request: u64,
    /// Start, ns since the tracer was made.
    pub start_ns: u64,
    /// End, ns since the tracer was made.
    pub end_ns: u64,
    /// On-CPU ns of the recording thread over the span (batch spans).
    pub cpu_ns: Option<u64>,
    /// Calls into the layer the span covers (1 unless a batch).
    pub calls: u64,
}

impl Span {
    /// Wall seconds.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    /// Calling-thread CPU seconds (NaN for a span that did not record
    /// them).
    #[must_use]
    pub fn cpu_s(&self) -> f64 {
        self.cpu_ns.map_or(f64::NAN, |ns| ns as f64 * 1e-9)
    }
}

/// Records spans from any thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a wall-clock span covering one call; it closes when the
    /// guard drops.
    #[must_use]
    pub fn span(&self, name: &'static str, parent: Option<u32>, request: u64) -> SpanGuard<'_> {
        self.open(name, parent, request, 1, false)
    }

    /// Opens a span covering `calls` calls into one function, recording
    /// the calling thread's CPU time as well.
    #[must_use]
    pub fn batch(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        calls: u64,
    ) -> SpanGuard<'_> {
        self.open(name, parent, request, calls, true)
    }

    fn open(
        &self,
        name: &'static str,
        parent: Option<u32>,
        request: u64,
        calls: u64,
        cpu: bool,
    ) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard { open: None };
        }
        SpanGuard {
            open: Some(Open {
                tracer: self,
                id: self.next_id.fetch_add(1, Ordering::Relaxed),
                parent,
                name,
                request,
                calls,
                cpu0: cpu.then(thread_cpu_ns),
                start: Instant::now(),
            }),
        }
    }

    /// All spans recorded so far, in order of closing.
    ///
    /// # Panics
    ///
    /// Panics if a recording thread panicked while holding the span list.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics while pushing a span")
            .clone()
    }

    fn push(&self, span: Span) {
        self.spans
            .lock()
            .expect("no thread panics while pushing a span")
            .push(span);
    }
}

#[derive(Debug)]
struct Open<'t> {
    tracer: &'t Tracer,
    id: u32,
    parent: Option<u32>,
    name: &'static str,
    request: u64,
    calls: u64,
    start: Instant,
    cpu0: Option<u64>,
}

/// Closes its span on drop.
#[derive(Debug)]
pub struct SpanGuard<'t> {
    open: Option<Open<'t>>,
}

impl SpanGuard<'_> {
    /// The span's id, to parent child spans on (`None` when tracing is
    /// off).
    #[must_use]
    pub fn id(&self) -> Option<u32> {
        self.open.as_ref().map(|o| o.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(o) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        let cpu_ns = o.cpu0.map(|c0| thread_cpu_ns().saturating_sub(c0));
        let at = |t: Instant| t.duration_since(o.tracer.epoch).as_nanos() as u64;
        o.tracer.push(Span {
            id: o.id,
            parent: o.parent,
            name: o.name,
            request: o.request,
            start_ns: at(o.start),
            end_ns: at(end),
            cpu_ns,
            calls: o.calls,
        });
    }
}

/// Calling-thread CPU seconds of the batch spans named `name`.
#[must_use]
pub fn cpu_s_of(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::cpu_s)
        .sum()
}

/// Empty spans opened and closed per calibration loop.
const CALIBRATION_SPANS: u32 = 2_000;
/// Calibration loops per span kind; the cost is their median.
const CALIBRATION_ROUNDS: usize = 9;

/// Wall seconds one span of the given kind adds: the median over
/// [`CALIBRATION_ROUNDS`] of (traced loop − untraced loop) per span, each
/// loop opening and closing [`CALIBRATION_SPANS`] empty spans.
fn span_cost_s(batch: bool) -> f64 {
    let loop_s = |tracer: &Tracer| {
        let t0 = Instant::now();
        for i in 0..CALIBRATION_SPANS {
            let guard = if batch {
                tracer.batch("trace.calibrate", None, u64::from(i), 1)
            } else {
                tracer.span("trace.calibrate", None, u64::from(i))
            };
            drop(std::hint::black_box(guard));
        }
        t0.elapsed().as_secs_f64()
    };
    let costs: Vec<f64> = (0..CALIBRATION_ROUNDS)
        .map(|_| {
            let untraced = loop_s(&Tracer::new(false));
            let traced = loop_s(&Tracer::new(true));
            (traced - untraced) / f64::from(CALIBRATION_SPANS)
        })
        .collect();
    median(&costs)
}

/// Tracing overhead of a run, traced wall minus untraced wall, in
/// seconds: each recorded span charged the measured cost of one span of
/// its kind (batch spans also read schedstat twice). Lock contention
/// between recording threads is not modelled.
#[must_use]
pub fn overhead_s(spans: &[Span]) -> f64 {
    let batch = spans.iter().filter(|s| s.cpu_ns.is_some()).count();
    let plain = spans.len() - batch;
    plain as f64 * span_cost_s(false) + batch as f64 * span_cost_s(true)
}

/// Per span name: total wall seconds, and self seconds — each span's
/// duration minus the part of it its child spans cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (f64, f64)> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for s in spans {
        let covered = children
            .get_mut(&s.id)
            .map_or(0, |c| union_ns(c, s.start_ns, s.end_ns));
        let entry = out.entry(s.name).or_default();
        entry.0 += s.wall_s();
        entry.1 += (s.end_ns - s.start_ns - covered) as f64 * 1e-9;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// The spans as one JSON document (`yacbench-spans/1`).
#[must_use]
pub fn spans_json(workload: &str, seed: u64, spans: &[Span]) -> String {
    let mut out = format!(
        "{{\"schema\":\"yacbench-spans/1\",\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
    );
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let or_null = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        let _ = write!(
            out,
            "\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\
             \"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{},\"calls\":{}}}",
            s.id,
            or_null(s.parent.map(u64::from)),
            s.name,
            s.request,
            s.start_ns,
            s.end_ns,
            or_null(s.cpu_ns),
            s.calls
        );
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent.is_some() { "child" } else { "root" },
            request: 0,
            start_ns,
            end_ns,
            cpu_ns: None,
            calls: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(3, Some(1), 30, 50),
            span(4, Some(1), 90, 120),
        ];
        let t = self_times(&spans);
        // Children cover [10, 50) and [90, 100) of the root: 50 ns.
        assert!((t["root"].1 - 50e-9).abs() < 1e-15);
        assert!((t["child"].0 - 80e-9).abs() < 1e-15);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let g = t.span("x.y", None, 0);
        assert!(g.id().is_none());
        drop(g);
        assert!(t.spans().is_empty());
        let t = Tracer::new(true);
        let outer = t.span("a.b", None, 7);
        drop(t.span("c.d", outer.id(), 7));
        drop(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, Some(spans[1].id));
    }

    #[test]
    fn overhead_charges_every_recorded_span() {
        assert_eq!(overhead_s(&[]), 0.0);
        let spans: Vec<Span> = (1..=1_000).map(|id| span(id, None, 0, 1)).collect();
        assert!(overhead_s(&spans) > 0.0);
    }
}
