//! Spans the benchmark records around its own calls into each crate.
//!
//! A span has a name, a start and an end (microseconds since the recorder
//! was made), the span that was open when it started, and the work item
//! (query, run or batch) it belongs to. Spans stay in memory and are
//! written out as JSONL once the run ends. A disabled recorder records
//! nothing and never reads the clock, so the untraced passes pay nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRecord {
    /// Layer call, for example `core.query` or `aig.parse`.
    pub name: String,
    /// Start, in microseconds since the recorder was made.
    pub start_us: u64,
    /// End, in microseconds since the recorder was made.
    pub end_us: u64,
    /// Index of the enclosing span in the record list.
    pub parent: Option<usize>,
    /// The work item the span belongs to.
    pub item: String,
}

impl SpanRecord {
    /// Duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us - self.start_us
    }
}

/// An in-memory span recorder for one thread of control.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRecord>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled == false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> u64 {
        self.origin.elapsed().as_micros() as u64
    }

    /// Runs `f` inside a span called `name` for work item `item`.
    pub fn span<R>(&mut self, name: &str, item: &str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(SpanRecord {
            name: name.to_string(),
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            item: item.to_string(),
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_us = self.now_us();
        self.spans[index].end_us = end_us;
        out
    }

    /// Every finished span, in start order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }

    /// Writes the spans as one JSON object per line, each with its self
    /// time.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let self_us = self_times(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"self_us\":{},\"parent\":{parent},\"item\":\"{}\"}}",
                escape(&s.name),
                s.start_us,
                s.end_us,
                self_us[i],
                escape(&s.item)
            )?;
        }
        Ok(())
    }
}

fn escape(text: &str) -> String {
    text.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Each span's self time in microseconds: its duration minus the part its
/// child spans cover. Children of one span never overlap, since a recorder
/// serves one thread.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.duration_us();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_us().saturating_sub(c))
        .collect()
}

/// Total and self time per span name, in microseconds.
pub fn layer_times(spans: &[SpanRecord]) -> BTreeMap<String, (u64, u64)> {
    let mut out: BTreeMap<String, (u64, u64)> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(self_times(spans)) {
        let entry = out.entry(s.name.clone()).or_default();
        entry.0 += s.duration_us();
        entry.1 += self_us;
    }
    out
}
