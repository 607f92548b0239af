//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code around each public call it
//! makes into a library module; nothing inside the library is instrumented.
//! Each span carries the op it belongs to and a link to the span that caused
//! it. Spans stay in memory while the workload runs, are written out as JSON
//! lines when it ends, and are reduced to per-name self times: a span's
//! duration minus its children's durations.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: usize,
    /// The span that caused this one, if any.
    pub parent: Option<usize>,
    /// Workload op (round, step or job) the span belongs to.
    pub op: u64,
    /// Module boundary crossed, e.g. `core.plan_into`.
    pub name: &'static str,
    /// Replica, arm or job class the call ran for.
    pub tag: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the span in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span id a disabled tracer hands out.
const NO_SPAN: usize = usize::MAX;

/// Collects spans; nested synchronous calls use [`Tracer::enter`] /
/// [`Tracer::exit`], overlapping asynchronous ones [`Tracer::record`].
/// A disabled tracer records nothing and reads no clock.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records spans.
    pub fn enabled() -> Self {
        Self::new(true)
    }

    /// A tracer whose calls do nothing (the untraced runs).
    pub fn disabled() -> Self {
        Self::new(false)
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, tag: &'static str, op: u64) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len();
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op,
            name,
            tag,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a finished span with explicit bounds and parent.
    pub fn record(
        &mut self,
        name: &'static str,
        tag: &'static str,
        op: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        if !self.enabled {
            return NO_SPAN;
        }
        let id = self.spans.len();
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            tag,
            start_ns,
            end_ns,
        });
        id
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in milliseconds of the spans with this name and tag,
    /// among those recorded from index `from` on.
    pub fn durations_ms(&self, from: usize, name: &str, tag: &str) -> Vec<f64> {
        self.spans[from.min(self.spans.len())..]
            .iter()
            .filter(|s| s.name == name && s.tag == tag)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"tag\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.op, s.name, s.tag, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Total and self time of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SelfTime {
    /// Spans with this name.
    pub count: u64,
    /// Sum of their durations.
    pub total_ns: u64,
    /// Sum of their durations minus their children's durations.
    pub self_ns: u64,
}

/// Reduces spans to per-name total and self times. Children never overlap
/// (nested spans close innermost first and run one after another), so a
/// span's self time is its duration minus the sum of its children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (s, &kids) in spans.iter().zip(&children_ns) {
        let entry = out.entry(s.name).or_default();
        entry.count += 1;
        entry.total_ns += s.duration_ns();
        entry.self_ns += s.duration_ns().saturating_sub(kids);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            tag: "",
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children_only_from_their_parent() {
        let spans = [
            span(0, None, "op", 0, 100),
            span(1, Some(0), "plan", 10, 30),
            span(2, Some(0), "train", 30, 90),
            span(3, Some(2), "kernel", 40, 60),
            span(4, None, "op", 100, 150),
        ];
        let t = self_times(&spans);
        assert_eq!(
            t["op"],
            SelfTime {
                count: 2,
                total_ns: 150,
                self_ns: 20 + 50
            }
        );
        assert_eq!(t["plan"].self_ns, 20);
        assert_eq!(t["train"].self_ns, 40);
        assert_eq!(t["kernel"].self_ns, 20);
        // Self times partition the root spans' wall time.
        let self_sum: u64 = t.values().map(|s| s.self_ns).sum();
        assert_eq!(self_sum, 150);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::disabled();
        let id = tr.enter("op", "a", 0);
        tr.exit(id);
        let now = Instant::now();
        tr.record("job", "a", 0, None, now, now);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn tracer_links_nested_spans_to_their_parent() {
        let mut tr = Tracer::enabled();
        let outer = tr.enter("op", "a", 7);
        let inner = tr.enter("step", "a", 7);
        tr.exit(inner);
        tr.exit(outer);
        let spans = tr.spans();
        assert_eq!(spans[inner].parent, Some(outer));
        assert_eq!(spans[outer].parent, None);
        assert!(spans[outer].start_ns <= spans[inner].start_ns);
        assert!(spans[inner].end_ns <= spans[outer].end_ns);
        assert_eq!(tr.durations_ms(0, "step", "a").len(), 1);
        assert!(tr.durations_ms(0, "step", "b").is_empty());
        assert!(tr.durations_ms(2, "step", "a").is_empty());
    }
}
