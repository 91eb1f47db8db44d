//! Spans recorded by the benchmark around its own calls into each layer.
//!
//! A span is `(name, start, end, parent, request)`. Spans stay in memory
//! until the run ends; then they are written out as one JSON document and
//! folded into a per-layer ledger of *self* times (a span's duration minus
//! the part of it its child spans cover). With tracing off, [`Tracer`]
//! records nothing and [`Tracer::begin`] costs one branch.

use obase_ser::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One closed span; times are microseconds since the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: Option<u64>,
    pub request: Option<u64>,
}

/// An open span, closed by [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct Open {
    id: u64,
    name: &'static str,
    start: Instant,
    parent: Option<u64>,
}

impl Open {
    /// The span's id, for children to name as their parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

struct Inner {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// A cheap, cloneable span recorder; `Tracer::off()` records nothing.
#[derive(Clone)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer { inner: None }
    }

    pub fn on() -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                origin: Instant::now(),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Allocates a span id ahead of the span, so children recorded
    /// before it closes can name it as their parent; `None` when off.
    pub fn reserve(&self) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        Some(inner.next_id.fetch_add(1, Ordering::Relaxed))
    }

    /// Opens a span now; `None` when tracing is off.
    pub fn begin(&self, name: &'static str, parent: Option<u64>) -> Option<Open> {
        Some(Open {
            id: self.reserve()?,
            name,
            start: Instant::now(),
            parent,
        })
    }

    /// Closes a span opened by [`Tracer::begin`] now.
    pub fn end(&self, open: Option<Open>) {
        if let Some(o) = open {
            self.record(Some(o.id), o.name, o.start, Instant::now(), o.parent, None);
        }
    }

    /// Records a span whose bounds were taken by the caller. `id` comes
    /// from [`Tracer::reserve`]; a `None` id (tracing off) records nothing.
    pub fn record(
        &self,
        id: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        request: Option<u64>,
    ) {
        let (Some(inner), Some(id)) = (self.inner.as_ref(), id) else {
            return;
        };
        let us = |t: Instant| t.saturating_duration_since(inner.origin).as_secs_f64() * 1e6;
        let span = Span {
            id,
            name,
            start_us: us(start),
            end_us: us(end),
            parent,
            request,
        };
        inner.spans.lock().expect("span buffer lock").push(span);
    }

    /// Everything recorded so far, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let Some(inner) = self.inner.as_ref() else {
            return Vec::new();
        };
        let mut spans = inner.spans.lock().expect("span buffer lock").clone();
        spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us).then(a.id.cmp(&b.id)));
        spans
    }
}

/// Runs `f` inside a span named `name` under `parent`.
pub fn timed<T>(
    tracer: &Tracer,
    name: &'static str,
    parent: Option<u64>,
    f: impl FnOnce() -> T,
) -> T {
    let open = tracer.begin(name, parent);
    let out = f();
    tracer.end(open);
    out
}

/// The spans as one JSON document.
pub fn spans_json(spans: &[Span]) -> Json {
    let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Int(v as i64));
    Json::Array(
        spans
            .iter()
            .map(|s| {
                Json::object([
                    ("id", Json::Int(s.id as i64)),
                    ("name", Json::str(s.name)),
                    ("start_us", Json::Float(s.start_us)),
                    ("end_us", Json::Float(s.end_us)),
                    ("parent", opt(s.parent)),
                    ("request", opt(s.request)),
                ])
            })
            .collect(),
    )
}

/// Per span name: how many spans, and their summed self time in µs.
#[derive(Clone, Copy, Debug, Default)]
pub struct SelfTime {
    pub count: u64,
    pub self_us: f64,
}

impl SelfTime {
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_us / self.count as f64
        }
    }
}

/// Self time per span name: each span's duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let mut covered = 0.0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut cursor = s.start_us;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_us));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let slot = out.entry(s.name).or_default();
        slot.count += 1;
        slot.self_us += (s.end_us - s.start_us - covered).max(0.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start: f64, end: f64, parent: Option<u64>) -> Span {
        Span {
            id,
            name,
            start_us: start,
            end_us: end,
            parent,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, "batch", 0.0, 100.0, None),
            span(2, "run", 10.0, 50.0, Some(1)),
            // Overlaps the first child: only 50..60 is new cover.
            span(3, "verify", 40.0, 60.0, Some(1)),
            span(4, "inner", 20.0, 30.0, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["batch"].self_us, 50.0);
        assert_eq!(t["run"].self_us, 30.0);
        assert_eq!(t["verify"].self_us, 20.0);
        assert_eq!(t["inner"].self_us, 10.0);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let t = Tracer::off();
        let open = t.begin("x", None);
        assert!(open.is_none());
        t.end(open);
        assert!(t.spans().is_empty());
    }
}
