//! Spans around the calls the benchmark makes into each layer, kept in
//! memory and written out when the run ends, plus the small statistics
//! helpers every report uses.
//!
//! With tracing off, [`Trace::timed`] still measures (the end-to-end
//! numbers come from the same clock reads) but records nothing.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent` is 0 for a root span; spans of one request
/// share `req`.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

pub struct Trace {
    on: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    pub fn new(on: bool) -> Self {
        Self { on, origin: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh request id (ids and span ids never collide).
    pub fn request(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    /// Run `f`, returning its result, its duration in seconds, and the id
    /// of the span recorded for it (0 when tracing is off).
    pub fn timed<T>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64, u64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let id = if self.on { self.record(name, parent, req, start, end) } else { 0 };
        (out, (end - start).as_secs_f64(), id)
    }

    /// Record a span measured by the caller.
    fn record(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(id, name, parent, req, start, end);
        id
    }

    /// Record the root span of request `req` under the request's own id,
    /// so the spans recorded while it ran can name `req` as their parent.
    pub fn record_request(&self, name: &'static str, req: u64, start: Instant, end: Instant) {
        self.push(req, name, 0, req, start, end);
    }

    fn push(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        let span = Span { id, parent, req, name, start_ns: ns(start), end_ns: ns(end) };
        self.spans.lock().expect("trace lock").push(span);
    }

    /// Durations in seconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("trace lock");
        spans.iter().filter(|s| s.name == name).map(Span::secs).collect()
    }

    /// For every span called `parent`, the summed duration of its
    /// children. Children either nest inside the parent or, for calls that
    /// hide several layers, replay those layers right after it on the same
    /// inputs.
    pub fn children_secs(&self, parent: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("trace lock");
        let mut index = HashMap::new();
        for s in spans.iter().filter(|s| s.name == parent) {
            index.insert(s.id, index.len());
        }
        let mut out = vec![0.0; index.len()];
        for s in spans.iter() {
            if let Some(&i) = index.get(&s.parent) {
                out[i] += s.secs();
            }
        }
        out
    }

    /// Per span name: count, total time, self time (duration minus the
    /// part of its interval that nested children cover), median, and the
    /// share of its time its children (nested or replayed) account for.
    pub fn summary(&self) -> String {
        let spans = self.spans.lock().expect("trace lock");
        let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
        let mut covered: HashMap<u64, u64> = HashMap::new();
        let mut child_total: HashMap<u64, f64> = HashMap::new();
        for s in spans.iter() {
            if let Some(p) = by_id.get(&s.parent) {
                let lo = s.start_ns.max(p.start_ns);
                let hi = s.end_ns.min(p.end_ns);
                *covered.entry(p.id).or_insert(0) += hi.saturating_sub(lo);
                *child_total.entry(p.id).or_insert(0.0) += s.secs();
            }
        }
        let mut rows: Vec<(&str, Vec<f64>, f64, f64)> = Vec::new();
        let mut at: HashMap<&str, usize> = HashMap::new();
        for s in spans.iter() {
            let i = *at.entry(s.name).or_insert_with(|| {
                rows.push((s.name, Vec::new(), 0.0, 0.0));
                rows.len() - 1
            });
            let own = s.end_ns - s.start_ns;
            rows[i].1.push(s.secs());
            rows[i].2 += own.saturating_sub(covered.get(&s.id).copied().unwrap_or(0)) as f64 * 1e-9;
            rows[i].3 += child_total.get(&s.id).copied().unwrap_or(0.0);
        }
        let mut text = format!(
            "{:<32} {:>8} {:>12} {:>12} {:>12} {:>9}\n",
            "span", "count", "total_s", "self_s", "median_ms", "children"
        );
        for (name, durations, self_s, children) in &rows {
            let total: f64 = durations.iter().sum();
            text.push_str(&format!(
                "{name:<32} {:>8} {total:>12.4} {self_s:>12.4} {:>12.4} {:>8.1}%\n",
                durations.len(),
                median(durations) * 1e3,
                100.0 * children / total.max(1e-12),
            ));
        }
        text
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("trace lock");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in spans.iter() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Median (mean of the middle pair for even counts); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest percentile with at least ten samples beyond it:
/// `(value, percentile, sample count)`; NaN when there are fewer than
/// eleven samples.
pub fn tail(values: &[f64]) -> (f64, f64, usize) {
    let n = values.len();
    if n < 11 {
        return (f64::NAN, f64::NAN, n);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    (v[n - 11], 100.0 * (n - 10) as f64 / n as f64, n)
}
