//! In-memory span recorder for the traced run.
//!
//! A span is a name, a start, an end and the span that was open on the
//! same thread when it began (its parent). Spans are kept in memory and
//! written out once, when the run ends. With tracing off, [`span`]
//! returns an inert guard and records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span; times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `mln.probe`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span on the same thread.
    pub parent: Option<usize>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn spans() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS
        .lock()
        .expect("span recorder poisoned by a panicking thread")
}

/// Turn recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Closes its span when dropped.
pub struct Guard(Option<usize>);

/// Open a span named `name`, closed when the returned guard drops.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let parent = OPEN.with(|open| open.borrow().last().copied());
    let start_ns = now_ns();
    let idx = {
        let mut spans = spans();
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
        });
        spans.len() - 1
    };
    OPEN.with(|open| open.borrow_mut().push(idx));
    Guard(Some(idx))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some(idx) = self.0 {
            let end = now_ns();
            OPEN.with(|open| {
                open.borrow_mut().pop();
            });
            if let Ok(mut spans) = SPANS.lock() {
                spans[idx].end_ns = end;
            }
        }
    }
}

/// Take every recorded span, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *spans())
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed self time (duration minus the part its children cover),
    /// seconds.
    pub self_s: f64,
}

/// Aggregate `spans` by name. A span's self time is its duration minus
/// the union of its children's intervals, clipped to the span.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let kids = &mut children[i];
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut reach = s.start_ns;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end_ns));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += dur as f64 / 1e9;
        t.self_s += dur.saturating_sub(covered) as f64 / 1e9;
    }
    out
}

/// Write `spans` as JSON lines (`name`, `start_ns`, `end_ns`, `parent`).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            s("run", 0, 100, None),
            s("mln", 10, 30, Some(0)),
            s("mln", 20, 40, Some(0)),  // overlaps the first child
            s("mln", 90, 120, Some(0)), // runs past the parent's end
        ];
        let t = totals(&spans);
        // Children cover [10, 40) and [90, 100): 40 ns of 100.
        assert!((t["run"].self_s - 60e-9).abs() < 1e-15);
        assert_eq!(t["mln"].count, 3);
        assert!((t["mln"].total_s - 70e-9).abs() < 1e-15);
    }
}
