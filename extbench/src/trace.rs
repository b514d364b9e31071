//! In-memory spans for the traced run.
//!
//! The benchmark wraps each public call it makes into the system crates
//! in a span (name, start, end, parent, op id). A *top* span is a call
//! the workload itself makes; a *child* span is a shadow call made right
//! after it to decompose it (the inner `Vm::run` of a `run_input`, the
//! `Verifier::verify` inside an `upgrade`, ...). A top span's self time
//! is its duration minus its children's. Durations and self times are
//! aggregated per span name as they are recorded; the raw spans, up to
//! [`SPAN_CAP`], are written out at exit.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats::{ns_between, LatHist};

/// Raw spans kept for the dump; aggregation continues past the cap.
pub const SPAN_CAP: usize = 1 << 18;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: u16,
    parent: u32,
    op: u64,
    start_ns: u64,
    end_ns: u64,
}

struct Open {
    name: u16,
    dur: u64,
    children: u64,
    /// Index in `spans`, if the span was kept.
    id: u32,
}

/// Deterministic counts gathered from shadow `Verifier::verify` calls.
#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
pub struct VerifCounts {
    pub insns_processed: u64,
    pub states_pushed: u64,
    pub states_pruned: u64,
    pub peak_states: u64,
    pub verdict_mismatches: u64,
}

pub struct Tracer {
    /// Whether this run records spans at all (`--trace 1`).
    pub enabled: bool,
    /// Whether the current block is traced; spans and shadow calls are
    /// made only while this is set.
    pub on: bool,
    /// The op the next spans belong to.
    pub op: u64,
    origin: Instant,
    names: Vec<&'static str>,
    index: HashMap<&'static str, u16>,
    dur: Vec<LatHist>,
    self_ns: Vec<LatHist>,
    open: Option<Open>,
    spans: Vec<Span>,
    /// Verifier counts while `counting` is set.
    pub verif: VerifCounts,
    pub counting: bool,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            on: enabled,
            op: 0,
            origin: Instant::now(),
            names: Vec::new(),
            index: HashMap::new(),
            dur: Vec::new(),
            self_ns: Vec::new(),
            open: None,
            spans: Vec::new(),
            verif: VerifCounts::default(),
            counting: true,
        }
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = self.names.len() as u16;
        self.names.push(name);
        self.index.insert(name, id);
        self.dur.push(LatHist::default());
        self.self_ns.push(LatHist::default());
        id
    }

    fn keep(&mut self, name: u16, parent: u32, t0: Instant, t1: Instant) -> u32 {
        if self.spans.len() >= SPAN_CAP {
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            parent,
            op: self.op,
            start_ns: ns_between(self.origin, t0),
            end_ns: ns_between(self.origin, t1),
        });
        (self.spans.len() - 1) as u32
    }

    /// Records a top span; later [`Tracer::child`] spans belong to it.
    pub fn top(&mut self, name: &'static str, t0: Instant, t1: Instant) {
        if !self.on {
            return;
        }
        self.close();
        let name = self.name_id(name);
        let dur = ns_between(t0, t1);
        self.dur[name as usize].record(dur);
        let id = self.keep(name, NO_PARENT, t0, t1);
        self.open = Some(Open {
            name,
            dur,
            children: 0,
            id,
        });
    }

    /// Records a child of the open top span (or a parentless span).
    pub fn child(&mut self, name: &'static str, t0: Instant, t1: Instant) {
        if !self.on {
            return;
        }
        let name = self.name_id(name);
        let dur = ns_between(t0, t1);
        self.dur[name as usize].record(dur);
        let parent = match &mut self.open {
            Some(open) => {
                open.children += dur;
                open.id
            }
            None => NO_PARENT,
        };
        self.keep(name, parent, t0, t1);
    }

    /// Times `f` as a child span.
    pub fn shadow<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.child(name, t0, t1);
        out
    }

    /// Ends the open top span, recording its self time.
    pub fn close(&mut self) {
        if let Some(open) = self.open.take() {
            self.self_ns[open.name as usize].record(open.dur.saturating_sub(open.children));
        }
    }

    fn hist<'a>(&'a self, table: &'a [LatHist], name: &str) -> Option<&'a LatHist> {
        self.index.get(name).map(|&id| &table[id as usize])
    }

    /// Percentile `q` of the durations of spans named `name`.
    pub fn dur_q(&self, name: &str, q: f64) -> f64 {
        self.hist(&self.dur, name).map_or(0.0, |h| h.quantile(q))
    }

    /// Percentile `q` of the self times of top spans named `name`.
    pub fn self_q(&self, name: &str, q: f64) -> f64 {
        self.hist(&self.self_ns, name)
            .map_or(0.0, |h| h.quantile(q))
    }

    /// Writes the kept spans as tab-separated lines.
    pub fn dump(&mut self, path: &Path) -> std::io::Result<()> {
        self.close();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}",
                s.op, self.names[s.name as usize], s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
