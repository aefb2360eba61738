//! In-memory span recorder for the traced run. Spans are recorded by
//! the benchmark around its calls into each layer's public functions;
//! nothing inside the engine is instrumented for it.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Op id given to spans recorded while setting up, outside every op.
pub const SETUP: u32 = u32::MAX;
const NONE: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    op: u32,
}

/// Inclusive and self time of every span with one name.
#[derive(Clone, Copy, Default)]
pub struct Total {
    pub incl_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    /// Op id stamped on spans opened from now on.
    pub op: u32,
}

impl Tracer {
    /// A recorder that records nothing until [`Tracer::set_on`].
    pub fn new() -> Tracer {
        Tracer {
            on: false,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: SETUP,
        }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Open a span; returns its id for [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) -> u32 {
        if !self.on {
            return NONE;
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start: self.t0.elapsed().as_nanos() as u64,
            end: 0,
            parent: self.stack.last().copied().unwrap_or(NONE),
            op: self.op,
        });
        self.stack.push(id);
        id
    }

    pub fn exit(&mut self, id: u32) {
        if id == NONE {
            return;
        }
        let popped = self.stack.pop();
        debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
        self.spans[id as usize].end = self.t0.elapsed().as_nanos() as u64;
    }

    /// Per-name totals over the spans whose op id passes `keep`. Self
    /// time is a span's duration minus its direct children's.
    pub fn totals(&self, keep: impl Fn(u32) -> bool) -> BTreeMap<&'static str, Total> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            if !keep(s.op) {
                continue;
            }
            let t = out.entry(s.name).or_default();
            let d = s.end - s.start;
            t.incl_ns += d;
            t.self_ns += d.saturating_sub(*child);
            t.count += 1;
        }
        out
    }

    /// Write every span as a tab-separated line:
    /// `id name op parent start_ns end_ns`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id\tname\top\tparent\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let op = if s.op == SETUP { -1 } else { s.op as i64 };
            let parent = if s.parent == NONE {
                -1
            } else {
                s.parent as i64
            };
            writeln!(
                f,
                "{id}\t{}\t{op}\t{parent}\t{}\t{}",
                s.name, s.start, s.end
            )?;
        }
        f.flush()
    }
}
