//! In-memory spans for the traced run.
//!
//! A span is recorded around each call the benchmark makes into a layer:
//! its name, start, end, parent span and the request or scenario id it
//! belongs to. Spans stay in memory until the run ends, then
//! [`Tracer::dump`] writes them out with each span's self time — its
//! duration minus the part of it that its children cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use manticore_serve::json::Value;

/// One finished span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `machine.boot`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (0 while the span is open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request or scenario id the span belongs to.
    pub id: u64,
}

/// A handle to an open span; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// Records spans when enabled; every call is a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    counts: Mutex<BTreeMap<&'static str, u64>>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counts: Mutex::new(BTreeMap::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn open(&self, name: &'static str, parent: SpanId, id: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            id,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, span: SpanId) {
        if let Some(index) = span {
            let end_ns = self.now_ns();
            self.spans.lock().expect("span list poisoned")[index].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&self, name: &'static str, parent: SpanId, id: u64, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, parent, id);
        let out = f();
        self.close(span);
        out
    }

    /// Adds `n` to the count `name`, recorded at a span boundary.
    pub fn count(&self, name: &'static str, n: u64) {
        if self.on {
            *self
                .counts
                .lock()
                .expect("count map poisoned")
                .entry(name)
                .or_default() += n;
        }
    }

    /// The count `name` (0 if never counted).
    pub fn counted(&self, name: &str) -> u64 {
        self.counts
            .lock()
            .expect("count map poisoned")
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Per span name: (count, total duration ns, total self time ns).
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, self_ns) in spans.iter().zip(selfs) {
            let entry = out.entry(span.name).or_default();
            entry.0 += 1;
            entry.1 += span.end_ns.saturating_sub(span.start_ns);
            entry.2 += self_ns;
        }
        out
    }

    /// Mean duration in ns of the spans named `name` (`NaN` if none).
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.summary()
            .get(name)
            .map_or(f64::NAN, |&(n, total, _)| total as f64 / n as f64)
    }

    /// Total duration in ns of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.summary()
            .get(name)
            .map_or(0.0, |&(_, total, _)| total as f64)
    }

    /// Writes every span, with its self time, plus the per-name summary
    /// to `path` as JSON.
    ///
    /// # Errors
    ///
    /// Filesystem failure.
    pub fn dump(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        let rows = spans
            .iter()
            .zip(&selfs)
            .map(|(s, &self_ns)| {
                Value::obj(vec![
                    ("name", Value::Str(s.name.into())),
                    ("start_ns", Value::Int(s.start_ns)),
                    ("end_ns", Value::Int(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Int(p as u64)),
                    ),
                    ("id", Value::Int(s.id)),
                    ("self_ns", Value::Int(self_ns)),
                ])
            })
            .collect();
        let summary = self
            .summary()
            .into_iter()
            .map(|(name, (count, total, self_ns))| {
                (
                    name.to_string(),
                    Value::obj(vec![
                        ("count", Value::Int(count)),
                        ("total_ns", Value::Int(total)),
                        ("self_ns", Value::Int(self_ns)),
                    ]),
                )
            })
            .collect();
        let counts = self
            .counts
            .lock()
            .expect("count map poisoned")
            .iter()
            .map(|(name, n)| (name.to_string(), Value::Int(*n)))
            .collect();
        let doc = Value::obj(vec![
            ("spans", Value::Arr(rows)),
            ("summary", Value::Obj(summary)),
            ("counts", Value::Obj(counts)),
        ]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render())
    }
}

/// Each span's self time: its duration minus the union of its children's
/// intervals, clipped to the span (children may overlap when they run on
/// several threads).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            children[p].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            let (lo, hi) = (span.start_ns, span.end_ns.max(span.start_ns));
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, lo);
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(reach), e.min(hi));
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            (hi - lo) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("run", 0, 100, None),
            span("boot", 10, 30, Some(0)),
            // Two overlapping children (two threads): their union is
            // 40..80, not 30 + 30 ns.
            span("a", 40, 70, Some(0)),
            span("b", 50, 80, Some(0)),
            // A child that outlives its parent counts only inside it.
            span("late", 90, 120, Some(0)),
            span("leaf", 45, 60, Some(2)),
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 20 - 40 - 10, 20, 15, 30, 30, 15]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let s = t.open("x", None, 1);
        assert_eq!(s, None);
        t.close(s);
        assert_eq!(t.span("y", None, 2, || 7), 7);
        assert!(t.spans().is_empty());
        t.count("jobs", 1);
        assert_eq!(t.counted("jobs"), 0);
    }

    #[test]
    fn summary_aggregates_by_name() {
        let t = Tracer::new(true);
        let outer = t.open("outer", None, 1);
        t.span("inner", outer, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.span("inner", outer, 2, || ());
        t.close(outer);
        let summary = t.summary();
        let (n, total, self_ns) = summary["inner"];
        assert_eq!(n, 2);
        assert_eq!(total, self_ns, "leaves are all self time");
        let (n, total, self_ns) = summary["outer"];
        assert_eq!(n, 1);
        assert!(self_ns < total);
        assert!(t.mean_ns("inner") >= 1e6);
        t.count("jobs", 2);
        t.count("jobs", 3);
        assert_eq!(t.counted("jobs"), 5);
        assert!(t.mean_ns("absent").is_nan());
    }
}
