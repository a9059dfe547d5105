//! Harness-side spans: one record per call the harness makes into a
//! layer's public API (choosing-metrics §4). Spans live in memory and
//! are written out once, when the traced run ends. There are no spans
//! inside the program; that is a later issue.

use std::time::Instant;

use crate::sys::thread_cpu_ns;

/// One timed call. Times are nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Identifier shared by every span of one operation.
    pub op: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// CPU the recording thread consumed inside the span (its thread
    /// CPU clock, read outside the wall interval): what the CPU budget
    /// adds up, where the wall times above would count waiting too.
    pub cpu_ns: u64,
}

/// Handle returned by [`Tracer::enter`]; `None` when tracing is off.
pub type SpanId = Option<usize>;

/// Span recorder. Switched off it costs one branch per call site and
/// never reads the clock, so the end-to-end runs share the workload
/// code with the traced run.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Temporarily switches recording (the overhead probe alternates
    /// traced and untraced slices of the same workload).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str, op: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        // Until the span closes, `cpu_ns` holds the clock at its start.
        let cpu_ns = thread_cpu_ns();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            cpu_ns,
        });
        self.open.push(id);
        Some(id)
    }

    /// Closes `id` (and, defensively, anything opened inside it that
    /// an early return left open).
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let end_ns = self.now_ns();
        let cpu_ns = thread_cpu_ns();
        while let Some(top) = self.open.pop() {
            let span = &mut self.spans[top];
            span.end_ns = end_ns;
            span.cpu_ns = cpu_ns.saturating_sub(span.cpu_ns);
            if top == id {
                break;
            }
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in microseconds, of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Summed self time, in microseconds, of every span called `name`.
    pub fn self_us(&self, name: &str) -> f64 {
        let selfs = self_times_ns(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e3)
            .sum()
    }

    /// Summed CPU, in microseconds, of every span called `name`.
    pub fn cpu_us(&self, name: &str) -> f64 {
        let spans = self.spans.iter().filter(|s| s.name == name);
        spans.map(|s| s.cpu_ns as f64 / 1e3).sum()
    }

    /// Summed self CPU, in microseconds, of every span called `name`:
    /// its CPU minus its direct children's (one thread records, so
    /// children never overlap).
    pub fn self_cpu_us(&self, name: &str) -> f64 {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.cpu_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.cpu_ns);
            }
        }
        let named = self.spans.iter().zip(own).filter(|(s, _)| s.name == name);
        named.map(|(_, ns)| ns as f64 / 1e3).sum()
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "\n{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"cpu_ns\":{}}}",
                s.name, s.op, s.start_ns, s.end_ns, s.cpu_ns
            ));
        }
        out.push_str("\n]");
        out
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover. Children may overlap one another
/// (and, from a sloppy recorder, stick out of the parent); the cover is
/// the union of the child intervals clipped to the parent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 0,
            parent,
            start_ns,
            end_ns,
            cpu_ns: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_child_cover() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 50, 60),
            span("a.inner", Some(1), 12, 20),
        ];
        assert_eq!(self_times_ns(&spans), vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = [
            span("root", None, 0, 100),
            span("a", Some(0), 10, 50),
            span("b", Some(0), 40, 70),
            span("c", Some(0), 45, 48),
        ];
        // Cover is [10, 70): 60 ns, not 40 + 30 + 3.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span("root", None, 10, 20),
            span("early", Some(0), 0, 12),
            span("late", Some(0), 18, 40),
            span("outside", Some(0), 30, 35),
        ];
        assert_eq!(self_times_ns(&spans)[0], 6);
    }

    #[test]
    fn recorder_nests_and_reports() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 7);
        let inner = t.enter("inner", 7);
        t.exit(inner);
        let leaked = t.enter("leaked", 7);
        assert!(leaked.is_some());
        t.exit(outer); // closes "leaked" too
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns && x.op == 7));
        assert_eq!(t.durations_us("inner").len(), 1);
        let total = (s[0].end_ns - s[0].start_ns) as f64 / 1e3;
        assert!(t.self_us("outer") <= total);
        assert!(t.to_json().contains("\"name\":\"leaked\""));
    }

    #[test]
    fn self_cpu_is_parent_minus_direct_children() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 1);
        let inner = t.enter("inner", 1);
        // Burn measurable CPU inside the child only.
        let from = thread_cpu_ns();
        while thread_cpu_ns() - from < 2_000_000 {
            std::hint::black_box(0u64);
        }
        t.exit(inner);
        t.exit(outer);
        let (outer_us, inner_us) = (t.cpu_us("outer"), t.cpu_us("inner"));
        assert!(inner_us >= 2_000.0 && outer_us >= inner_us);
        assert_eq!(t.self_cpu_us("inner"), inner_us);
        assert!((t.self_cpu_us("outer") - (outer_us - inner_us)).abs() < 1e-6);
        assert!(t.self_cpu_us("outer") < 1_000.0);
        assert!(t.to_json().contains("\"cpu_ns\":"));
    }

    #[test]
    fn switched_off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.enter("x", 1);
        assert!(id.is_none());
        t.exit(id);
        assert!(t.spans().is_empty());
        t.set_on(true);
        assert!(t.is_on());
    }
}
