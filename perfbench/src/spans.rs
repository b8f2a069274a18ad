//! In-memory span recording for the traced run.
//!
//! A span is `{name, start, end, parent, request}`; spans are recorded by
//! the benchmark around its own calls into each layer (no span is recorded
//! inside the program).  Each thread appends to its own [`SpanBuf`]; ids come
//! from one process-wide counter, so a parent recorded on one thread can be
//! referenced from another.  Buffers are merged and written out once, when
//! the run ends.

use std::collections::HashMap;
use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

static NEXT_ID: AtomicUsize = AtomicUsize::new(1);

/// The `request` of spans that belong to no request (set-up).
pub const NO_REQUEST: u64 = u64::MAX;

/// The instant every span time is measured from.
pub fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds from [`epoch`] to `t`.
pub fn ns(t: Instant) -> u64 {
    t.saturating_duration_since(epoch()).as_nanos() as u64
}

/// Allocates a span id (ids are never 0; `parent == 0` means a root span).
pub fn new_id() -> usize {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}

/// One recorded span; times are nanoseconds from [`epoch`].
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: usize,
    pub parent: usize,
    pub name: &'static str,
    pub request: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A per-thread span buffer.
#[derive(Debug, Default)]
pub struct SpanBuf {
    pub spans: Vec<Span>,
}

impl SpanBuf {
    /// Records a finished span with a pre-allocated `id`.
    pub fn record(
        &mut self,
        id: usize,
        name: &'static str,
        parent: usize,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start: ns(start),
            end: ns(end),
        });
    }

    /// Runs `f` inside a new span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = f();
        self.record(new_id(), name, parent, request, start, Instant::now());
        out
    }

    pub fn extend(&mut self, other: SpanBuf) {
        self.spans.extend(other.spans);
    }

    /// Durations, in milliseconds, of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect()
    }

    /// Self time of every span called `name`, in milliseconds: its duration
    /// minus the part of its interval covered by its children.
    pub fn self_times_ms(&self, name: &str) -> Vec<f64> {
        let mut children: HashMap<usize, Vec<(u64, u64)>> = HashMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                let mut covered = 0u64;
                let mut cursor = s.start;
                let mut kids = children.remove(&s.id).unwrap_or_default();
                kids.sort_unstable();
                for (a, b) in kids {
                    let (a, b) = (a.max(cursor), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.duration_ns().saturating_sub(covered) as f64 / 1e6
            })
            .collect()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(fs::File::create(path)?);
        let mut spans = self.spans.clone();
        spans.sort_by_key(|s| (s.start, s.id));
        for s in spans {
            let request = match s.request {
                NO_REQUEST => "null".to_string(),
                r => r.to_string(),
            };
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id, s.name, s.start, s.end, s.parent, request
            )?;
        }
        out.flush()
    }
}
