//! The harness's own span recorder: one span around each call into a
//! layer, kept in memory and written out as Chrome Trace Events when
//! the run ends. Spans inside the program are a later issue.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` indexes the recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The operation (pipeline run or request) this span belongs to.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span recorder. Disabled, `span` only calls the closure.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    /// Track id in the written trace (one per caller thread).
    pub tid: u32,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Recorder {
    /// A recorder whose timestamps count from `epoch`, so that several
    /// threads' recorders share one timeline.
    pub fn new(enabled: bool, epoch: Instant, tid: u32) -> Recorder {
        Recorder {
            enabled,
            epoch,
            tid,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn disabled() -> Recorder {
        Recorder::new(false, Instant::now(), 0)
    }

    /// Sets the operation id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`, nested under the span
    /// currently open on this recorder.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }
}

/// Self time of every span: its duration minus the part of it covered
/// by its direct children (children of one parent on one thread never
/// overlap, so that part is the sum of their durations).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self times in seconds of the spans called `name`, one per span.
pub fn self_seconds(spans: &[Span], name: &str) -> Vec<f64> {
    let own = self_times_ns(spans);
    spans
        .iter()
        .zip(own)
        .filter(|(s, _)| s.name == name)
        .map(|(_, ns)| ns as f64 * 1e-9)
        .collect()
}

/// Writes the recorders' spans as Chrome Trace Event JSON (complete
/// `X` events, microsecond timestamps): loads in Perfetto and
/// `chrome://tracing`.
pub fn write_chrome_trace(path: &Path, recorders: &[Recorder]) -> std::io::Result<()> {
    let mut out = String::from("{\"traceEvents\":[\n");
    for rec in recorders {
        let _ = writeln!(
            out,
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"caller-{}\"}}}},",
            rec.tid, rec.tid
        );
        let own = self_times_ns(&rec.spans);
        for (i, s) in rec.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = writeln!(
                out,
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"span\":{},\"parent\":{},\"self_us\":{:.3}}}}},",
                rec.tid,
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.op,
                i,
                parent,
                own[i] as f64 / 1e3
            );
        }
    }
    // Drop the trailing ",\n" so the array is valid JSON.
    out.truncate(out.len() - 2);
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 50, 90, Some(0)),
            span("b.inner", 60, 70, Some(2)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 30, 30, 10]);
        let b = self_seconds(&spans, "b");
        assert!(b.len() == 1 && (b[0] - 30e-9).abs() < 1e-15);
    }

    #[test]
    fn recorder_nests_and_stamps_ops() {
        let mut rec = Recorder::new(true, Instant::now(), 3);
        rec.set_op(7);
        let got = rec.span("op", |r| r.span("child", |_| 42));
        assert_eq!(got, 42);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[0].parent, None);
        assert!(rec.spans.iter().all(|s| s.op == 7));
        assert!(rec.spans[0].dur_ns() >= rec.spans[1].dur_ns());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::disabled();
        assert_eq!(rec.span("op", |_| 1), 1);
        assert!(rec.spans.is_empty());
    }
}
