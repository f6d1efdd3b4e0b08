//! In-memory span recorder for the traced runs.
//!
//! A span is a timed call into one layer: its name, start, end and the
//! span that was open when it began. Per-name totals are updated as each
//! span ends. The first [`MAX_STORED`] spans are also kept in memory and
//! written out as JSON lines when the run ends, which bounds memory and
//! disk for the runs that make millions of calls.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write as _};
use std::path::Path;
use std::time::Instant;

/// Spans kept for the span file; later spans count only in the totals.
const MAX_STORED: usize = 1 << 18;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<u32>,
}

/// A span that has begun and not yet ended.
struct Open {
    name: &'static str,
    start_ns: u64,
    /// Time covered by its ended child spans.
    child_ns: u64,
    /// Its index among the stored spans, if it is stored.
    stored: Option<u32>,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use = "an opened span must be ended"]
pub struct SpanId(usize);

/// Count, total duration and self time (total minus the time covered by
/// child spans) of every span with one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SpanTotals {
    /// Mean duration per span, in `unit_ns` nanoseconds (0 when no span
    /// with this name ran).
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64 / unit_ns
        }
    }
}

pub struct Tracer {
    origin: Instant,
    stored: Vec<Span>,
    dropped: u64,
    open: Vec<Open>,
    totals: BTreeMap<&'static str, SpanTotals>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            stored: Vec::new(),
            dropped: 0,
            open: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let start_ns = self.now_ns();
        let stored = if self.stored.len() < MAX_STORED {
            self.stored.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent: self.open.last().and_then(|o| o.stored),
            });
            Some(u32::try_from(self.stored.len() - 1).expect("MAX_STORED fits in u32"))
        } else {
            self.dropped += 1;
            None
        };
        self.open.push(Open {
            name,
            start_ns,
            child_ns: 0,
            stored,
        });
        SpanId(self.open.len())
    }

    pub fn end(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.len(), id.0, "spans must end innermost first");
        let span = self.open.pop().expect("an open span");
        let duration = end_ns - span.start_ns;
        let t = self.totals.entry(span.name).or_default();
        t.count += 1;
        t.total_ns += duration;
        t.self_ns += duration.saturating_sub(span.child_ns);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += duration;
        }
        if let Some(i) = span.stored {
            self.stored[i as usize].end_ns = end_ns;
        }
    }

    /// Times `f` as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Totals of the ended spans named `name`.
    pub fn get(&self, name: &str) -> SpanTotals {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Writes the stored spans to `<out-dir>/spans-<workload>-seed<n>.jsonl`
    /// and prints the self-time table on stderr.
    pub fn dump(&self, opts: &crate::common::Opts) -> Result<(), String> {
        let path = opts
            .out_dir
            .join(format!("spans-{}-seed{}.jsonl", opts.workload, opts.seed));
        self.write_jsonl(&path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprint!("{}", self.summary());
        if self.dropped > 0 {
            eprintln!(
                "{} spans written; {} more count only in the totals",
                self.stored.len(),
                self.dropped
            );
        }
        Ok(())
    }

    /// One JSON line per stored span:
    /// `{"id":3,"name":"graph.apply_batch","start_ns":..,"end_ns":..,"parent":2}`.
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(File::create(path)?);
        for (id, s) in self.stored.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Human-readable self-time table, heaviest first.
    fn summary(&self) -> String {
        let mut rows: Vec<_> = self.totals.iter().collect();
        rows.sort_by_key(|(_, t)| std::cmp::Reverse(t.self_ns));
        let mut out =
            String::from("span                         count     total_ms      self_ms\n");
        for (name, t) in rows {
            out.push_str(&format!(
                "{name:<26} {:>8} {:>12.3} {:>12.3}\n",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
        out
    }
}
