//! The benchmark's own spans: one around every call it makes into a layer.
//!
//! Kept in memory and written as a Chrome trace when the run ends. A span
//! knows the span that caused it, so a layer's self time is its duration
//! minus what its children cover. The recorder is inert in untraced runs,
//! which lets traced and untraced passes share every call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    /// Unique id (1-based); `parent` is 0 for a root.
    pub id: u64,
    pub parent: u64,
    /// Shared by every span of one request or iteration.
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub thread: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    recs: Mutex<Vec<SpanRec>>,
}

/// A span in flight; records itself when dropped.
#[derive(Debug)]
pub struct OpenSpan<'a> {
    spans: &'a Spans,
    name: &'static str,
    id: u64,
    parent: u64,
    request: u64,
    start_ns: u64,
}

impl OpenSpan<'_> {
    /// The id children name as their parent (0 when the recorder is off).
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for OpenSpan<'_> {
    fn drop(&mut self) {
        if self.id != 0 {
            let end_ns = self.spans.now_ns();
            self.spans.push(SpanRec {
                name: self.name,
                id: self.id,
                parent: self.parent,
                request: self.request,
                start_ns: self.start_ns,
                end_ns,
                thread: thread_number(),
            });
        }
    }
}

/// A small stable number per OS thread, for the trace's `tid`.
fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static NUMBER: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    NUMBER.with(|n| *n)
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            recs: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&self, rec: SpanRec) {
        self.recs.lock().expect("span store poisoned").push(rec);
    }

    /// Opens a span caused by `parent` (0 for none) on behalf of `request`.
    pub fn open(&self, name: &'static str, parent: u64, request: u64) -> OpenSpan<'_> {
        let (id, start_ns) = if self.enabled {
            (self.next_id.fetch_add(1, Ordering::Relaxed), self.now_ns())
        } else {
            (0, 0)
        };
        OpenSpan {
            spans: self,
            name,
            id,
            parent,
            request,
            start_ns,
        }
    }

    /// Every finished span, in completion order.
    pub fn records(&self) -> Vec<SpanRec> {
        self.recs.lock().expect("span store poisoned").clone()
    }
}

/// Per span name: how many, their total time and their self time (total minus
/// the part their direct children cover), in nanoseconds.
pub fn self_times(recs: &[SpanRec]) -> BTreeMap<&'static str, (usize, u64, u64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for r in recs.iter().filter(|r| r.parent != 0) {
        children
            .entry(r.parent)
            .or_default()
            .push((r.start_ns, r.end_ns));
    }
    let mut out: BTreeMap<&'static str, (usize, u64, u64)> = BTreeMap::new();
    for r in recs {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&r.id) {
            // Union of the child intervals, clipped to the parent: children on
            // other threads may overlap each other.
            kids.sort_unstable();
            let mut reach = r.start_ns;
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(reach), e.min(r.end_ns));
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
        }
        let total = r.end_ns - r.start_ns;
        let row = out.entry(r.name).or_default();
        row.0 += 1;
        row.1 += total;
        row.2 += total - covered.min(total);
    }
    out
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto): complete
/// events with microsecond timestamps, parent and request ids in `args`.
pub fn chrome_trace(recs: &[SpanRec]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, r) in recs.iter().enumerate() {
        let sep = if i + 1 == recs.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}{sep}",
            r.name,
            r.start_ns as f64 / 1e3,
            (r.end_ns - r.start_ns) as f64 / 1e3,
            r.thread,
            r.id,
            r.parent,
            r.request,
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, id: u64, parent: u64, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name,
            id,
            parent,
            request: 7,
            start_ns,
            end_ns,
            thread: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let recs = [
            rec("iteration", 1, 0, 0, 100),
            rec("run", 2, 1, 10, 60),
            // Overlaps the first child and sticks out of the parent.
            rec("check", 3, 1, 50, 120),
        ];
        let t = self_times(&recs);
        // Children cover [10, 100) of the parent's [0, 100).
        assert_eq!(t["iteration"], (1, 100, 10));
        assert_eq!(t["run"], (1, 50, 50));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let spans = Spans::new(false);
        let root = spans.open("root", 0, 1);
        assert_eq!(root.id(), 0);
        drop(root);
        assert!(spans.records().is_empty());
    }

    #[test]
    fn recorded_spans_nest_and_export() {
        let spans = Spans::new(true);
        {
            let root = spans.open("root", 0, 3);
            let _child = spans.open("child", root.id(), 3);
        }
        let recs = spans.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "child");
        assert_eq!(recs[0].parent, recs[1].id);
        let json = chrome_trace(&recs);
        assert!(json.starts_with("{\"traceEvents\":["));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"request\":3"));
    }
}
