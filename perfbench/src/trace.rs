//! Host-time spans recorded from the benchmark's own wrappers.
//!
//! Each span has a name, a start, an end, a parent (the span that was open
//! when it began) and a job id (0 outside the service workload). Spans are
//! kept in memory and written out when the run ends; a layer's self time
//! is the duration of its spans minus the part of each interval that the
//! span's children cover.
//!
//! Leaf spans recorded back to back under one parent with one name (the
//! work callbacks of one handler call) are kept as one record: it starts
//! where the first one started, lasts their summed length and counts them
//! in `n`. Its children-cover arithmetic is unchanged, and the log stays
//! one record per handler call instead of one per callback.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One recorded interval, in nanoseconds since the tracer's epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub job: u32,
    /// Spans this record stands for (see the module notes).
    pub n: u32,
}

/// An in-memory span log with a stack of open spans.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Nanoseconds from the epoch to `t` (0 for instants before it).
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        let start = self.ns(Instant::now());
        self.open.push(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            job: 0,
            n: 1,
        });
    }

    /// Record a leaf span `[start, end)` under the innermost open span,
    /// folding it into the previous record when that is a sibling of the
    /// same name.
    fn leaf(&mut self, name: &'static str, start: u64, end: u64) {
        let parent = self.open.last().copied().unwrap_or(ROOT);
        if let Some(last) = self.spans.last_mut() {
            if last.name == name && last.parent == parent {
                last.end += end - start;
                last.n += 1;
                return;
            }
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            job: 0,
            n: 1,
        });
    }

    fn exit(&mut self) {
        let end = self.ns(Instant::now());
        let at = self.open.pop().expect("span exit without a matching enter");
        self.spans[at as usize].end = end;
    }

    /// Append a finished span measured elsewhere; returns its index so
    /// that later spans can name it as their parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: u32,
        job: u32,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            job,
            n: 1,
        });
        self.spans.len() as u32 - 1
    }
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Start recording on this thread, discarding any earlier log.
pub fn start() {
    TRACER.with(|t| *t.borrow_mut() = Some(Tracer::new()));
}

/// Stop recording on this thread and hand back the log.
pub fn finish() -> Vec<Span> {
    TRACER.with(|t| {
        let tracer = t.borrow_mut().take().expect("tracing was not started");
        assert!(tracer.open.is_empty(), "spans still open at finish");
        tracer.spans
    })
}

/// Drop this thread's log, open spans included (after a failed solve).
pub fn discard() {
    TRACER.with(|t| *t.borrow_mut() = None);
}

/// Run `f` on this thread's tracer (which must be started).
pub fn with<R>(f: impl FnOnce(&mut Tracer) -> R) -> R {
    TRACER.with(|t| f(t.borrow_mut().as_mut().expect("tracing was not started")))
}

/// Open a span named `name` under the innermost open span.
pub fn enter(name: &'static str) {
    with(|t| t.enter(name));
}

/// Close the innermost open span.
pub fn exit() {
    with(|t| t.exit());
}

/// Run `f` as a leaf span named `name` (it may open no spans itself).
pub fn leaf<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let r = f();
    let end = Instant::now();
    with(|t| {
        let (start, end) = (t.ns(start), t.ns(end));
        t.leaf(name, start, end)
    });
    r
}

/// A span that closes when dropped.
pub struct Guard(());

/// Open a span that closes at the end of the caller's scope.
pub fn span(name: &'static str) -> Guard {
    enter(name);
    Guard(())
}

impl Drop for Guard {
    fn drop(&mut self) {
        exit();
    }
}

/// Per span name: `(total duration, self duration, span count)` in ns.
/// Self duration is each span's length minus the union of its children's
/// intervals, clipped to the span.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != ROOT {
            children[s.parent as usize].push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(children.iter_mut()) {
        kids.sort_unstable();
        let mut covered = 0;
        let mut reach = s.start;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let dur = s.end - s.start;
        let e = out.entry(s.name).or_default();
        e.0 += dur;
        e.1 += dur - covered;
        e.2 += s.n as u64;
    }
    out
}

/// Write the log as tab-separated `name parent job n start_ns end_ns` lines.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "# name\tparent\tjob\tn\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = if s.parent == ROOT {
            -1
        } else {
            s.parent as i64
        };
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}",
            s.name, parent, s.job, s.n, s.start, s.end
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            job: 0,
            n: 1,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        // root [0,100) holds a [10,40) and b [50,90); a holds leaf [15,25)
        // and leaf [20,35) (overlapping); b holds leaf [80,120), which
        // runs past b's end and is clipped to [80,90).
        let spans = [
            sp("root", 0, 100, ROOT),
            sp("a", 10, 40, 0),
            sp("leaf", 15, 25, 1),
            sp("leaf", 20, 35, 1),
            sp("b", 50, 90, 0),
            sp("leaf", 80, 120, 4),
        ];
        let s = summarize(&spans);
        assert_eq!(s["root"], (100, 100 - 30 - 40, 1));
        assert_eq!(s["a"], (30, 30 - 20, 1));
        assert_eq!(s["b"], (40, 40 - 10, 1));
        assert_eq!(s["leaf"], (10 + 15 + 40, 10 + 15 + 40, 3));
    }

    #[test]
    fn guards_nest_and_record_parents() {
        start();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        let spans = finish();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, ROOT);
        assert_eq!(spans[1].parent, 0);
        assert!(spans[1].start >= spans[0].start && spans[1].end <= spans[0].end);
        let s = summarize(&spans);
        assert_eq!(s["outer"].0, s["outer"].1 + s["inner"].0);
    }

    #[test]
    fn back_to_back_leaves_fold_into_one_record() {
        start();
        {
            let _h = span("handler");
            leaf("work", || ());
            leaf("work", || ());
            leaf("work", || ());
        }
        {
            let _h = span("handler");
            leaf("work", || ());
        }
        let spans = finish();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.n)).collect();
        assert_eq!(
            names,
            [("handler", 1), ("work", 3), ("handler", 1), ("work", 1)]
        );
        let s = summarize(&spans);
        assert_eq!(s["work"].2, 4);
        assert_eq!(s["handler"].0, s["handler"].1 + s["work"].0);
    }
}
