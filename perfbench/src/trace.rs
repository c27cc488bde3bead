//! The benchmark's own span recorder.
//!
//! A traced run wraps every call into a layer in a [`span`]: name, start,
//! end, parent and thread.  Spans are kept in memory and written as a
//! Chrome trace when the run ends.  A span's layer is its name up to the
//! first `.`, which is the crate name without its `alpha-` prefix (`bench`
//! marks the benchmark's own phases).  Nothing inside the program is
//! instrumented: every span sits around a public call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<SpanRecord>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// One finished span; times are microseconds since the process epoch.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Unique id (never 0).
    pub id: u64,
    /// Id of the enclosing span on the same thread, 0 for a root.
    pub parent: u64,
    /// `layer.operation`.
    pub name: &'static str,
    /// Small per-thread number.
    pub thread: u64,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
}

/// An open span; recorded when dropped.  Inert while tracing is off.
pub struct Span {
    open: Option<(u64, u64, &'static str, Instant)>,
}

/// Turns recording on or off for spans opened from now on.
pub fn set_enabled(on: bool) {
    epoch();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Opens a span called `name` under the innermost open span of this thread.
pub fn span(name: &'static str) -> Span {
    if !ENABLED.load(Ordering::Relaxed) {
        return Span { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    Span {
        open: Some((id, parent, name, Instant::now())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((id, parent, name, start)) = self.open.take() {
            let end = Instant::now();
            STACK.with(|s| {
                s.borrow_mut().retain(|&open| open != id);
            });
            let base = epoch();
            let record = SpanRecord {
                id,
                parent,
                name,
                thread: THREAD.with(|t| *t),
                start_us: start.duration_since(base).as_secs_f64() * 1e6,
                end_us: end.duration_since(base).as_secs_f64() * 1e6,
            };
            if let Ok(mut spans) = SPANS.lock() {
                spans.push(record);
            }
        }
    }
}

/// Takes every span recorded so far.
pub fn take() -> Vec<SpanRecord> {
    std::mem::take(&mut *SPANS.lock().expect("span list lock is never poisoned"))
}

/// The layer of a span name: everything before the first `.`.
pub fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time per layer in µs, with the number of spans: a span's duration
/// minus the part of it its child spans cover.
pub fn self_times(spans: &[SpanRecord]) -> BTreeMap<String, (f64, usize)> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_us, s.end_us));
        }
    }
    let mut out: BTreeMap<String, (f64, usize)> = BTreeMap::new();
    for s in spans {
        let mut covered = 0.0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut cursor = s.start_us;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_us);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
        }
        let entry = out.entry(layer(s.name).to_string()).or_default();
        entry.0 += (s.end_us - s.start_us - covered).max(0.0);
        entry.1 += 1;
    }
    out
}

/// Writes `spans` as a Chrome trace (`chrome://tracing`, Perfetto).
pub fn write_chrome_trace(path: &std::path::Path, spans: &[SpanRecord]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(out, "{{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            write!(out, ",")?;
        }
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{},\"parent\":{}}}}}",
            s.name,
            layer(s.name),
            s.start_us,
            s.end_us - s.start_us,
            s.thread,
            s.id,
            s.parent
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_time() {
        let spans = vec![
            SpanRecord {
                id: 1,
                parent: 0,
                name: "bench.phase",
                thread: 1,
                start_us: 0.0,
                end_us: 10.0,
            },
            SpanRecord {
                id: 2,
                parent: 1,
                name: "cpu.run",
                thread: 1,
                start_us: 2.0,
                end_us: 5.0,
            },
            SpanRecord {
                id: 3,
                parent: 1,
                name: "cpu.run",
                thread: 1,
                start_us: 4.0,
                end_us: 6.0,
            },
        ];
        let times = self_times(&spans);
        assert_eq!(times["bench"], (6.0, 1));
        assert_eq!(times["cpu"], (5.0, 2));
    }
}
