//! In-memory spans recorded around the benchmark's calls into each layer.
//! Spans are kept while the run lasts and written out once at its end;
//! per-layer metrics are medians of the per-call samples taken with them.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the output file; samples keep counting past it.
const MAX_KEPT: usize = 200_000;

struct Span {
    id: u32,
    parent: u32,
    trace: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    frames: u64,
}

/// An open span, closed with [`Spans::close`].
pub struct Open {
    id: u32,
    name: &'static str,
    start: Instant,
}

pub struct Spans {
    origin: Instant,
    kept: Vec<Span>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    open: Vec<u32>,
    next_id: u32,
    trace: u32,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            kept: Vec::new(),
            samples: BTreeMap::new(),
            open: Vec::new(),
            next_id: 1,
            trace: 0,
        }
    }

    /// Starts a new trace: spans recorded from here on share its id.
    pub fn set_trace(&mut self, trace: u32) {
        self.trace = trace;
    }

    /// Opens a span whose children are the spans recorded until it closes.
    pub fn open(&mut self, name: &'static str) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        self.open.push(id);
        Open {
            id,
            name,
            start: Instant::now(),
        }
    }

    pub fn close(&mut self, open: Open, frames: usize) {
        let end = Instant::now();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(open.id), "spans close in order");
        self.push(open.id, open.name, open.start, end, frames);
    }

    /// Records a span without children from two clock reads.
    pub fn leaf(&mut self, name: &'static str, start: Instant, end: Instant, frames: usize) {
        let id = self.next_id;
        self.next_id += 1;
        self.push(id, name, start, end, frames);
    }

    fn push(&mut self, id: u32, name: &'static str, start: Instant, end: Instant, frames: usize) {
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let end_ns = end.duration_since(self.origin).as_nanos() as u64;
        if self.kept.len() < MAX_KEPT {
            self.kept.push(Span {
                id,
                parent: self.open.last().copied().unwrap_or(0),
                trace: self.trace,
                name,
                start_ns,
                end_ns,
                frames: frames as u64,
            });
        }
    }

    /// Records one measurement of `name` (say, ns per frame over one
    /// batch); [`Spans::median`] reduces them.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Median of the samples of `name`; 0 when the layer was never called.
    pub fn median(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .map_or(0.0, |v| crate::harness::median(&mut v.clone()))
    }

    pub fn recorded(&self) -> usize {
        self.kept.len()
    }

    /// Writes the kept spans as JSON lines, one span per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.kept {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"frames\":{}}}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns, s.frames
            )?;
        }
        out.flush()
    }
}
