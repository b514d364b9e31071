//! What every workload shares: the run configuration, the timed phase's
//! clock and windows, the deterministic checkpoint counts, the outcome
//! record, and [`drive`], which runs any [`Workload`].

use std::time::Instant;

use kernel_sim::MetricsSnapshot;
use tenancy::{RunVerdict, TenantId};

use crate::lanes::{Lane, LaneRt};
use crate::speed::Probe;
use crate::stats::{median, ns_between, LatHist};
use crate::trace::{Tracer, VerifCounts};

/// Input sizes: `Full` is what the benchmark measures, `Smoke` what its
/// self-tests run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// The traced run: spans, shadow calls, per-layer metrics.
    pub trace: bool,
    pub size: Size,
}

/// splitmix64: every generator in the benchmark derives from the seed
/// through it.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A seeded Fisher-Yates permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed ^ i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// Counts taken at the end of the first epoch: a fixed, seeded amount
/// of work, so they repeat exactly from run to run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub ops: u64,
    pub runs: u64,
    pub refused: u64,
    pub killed: u64,
    pub helper_calls: u64,
    pub domain_crossings: u64,
    pub ct_evicted: u64,
    pub ct_misses: u64,
    pub flow_log_lines: u64,
    pub audit_events: u64,
    pub peak_bytes_mapped: u64,
    pub faults_injected: u64,
    pub quarantine_trips: u64,
    pub verif: VerifCounts,
}

impl Counts {
    pub fn note(&mut self, verdict: Option<RunVerdict>) {
        self.runs += 1;
        match verdict {
            Some(RunVerdict::Refused) => self.refused += 1,
            Some(RunVerdict::Killed) => self.killed += 1,
            _ => {}
        }
    }
}

/// Per-lane kernel readings at the start of the timed phase.
struct Base {
    metrics: Vec<MetricsSnapshot>,
    audit: Vec<usize>,
}

impl Base {
    fn take<'a, 'w: 'a>(lanes: impl Iterator<Item = &'a LaneRt<'w>>) -> Base {
        let kernels: Vec<_> = lanes.map(|l| &l.world.kernel).collect();
        Base {
            metrics: kernels.iter().map(|k| k.metrics.snapshot()).collect(),
            audit: kernels.iter().map(|k| k.audit.len()).collect(),
        }
    }

    /// Takes the first-epoch counts: the ops so far, the lanes' kernel
    /// counters since [`Base::take`], and the tracer's verifier counts
    /// (which stop accumulating here).
    fn checkpoint<'a, 'w: 'a>(
        &self,
        lanes: impl Iterator<Item = &'a LaneRt<'w>>,
        out: &mut Outcome,
        tr: &mut Tracer,
    ) {
        let counts = &mut out.counts;
        counts.ops = out.phase.ops();
        counts.verif = tr.verif;
        tr.counting = false;
        for (i, lane) in lanes.enumerate() {
            let k = &lane.world.kernel;
            let now = k.metrics.snapshot();
            let was = &self.metrics[i];
            counts.helper_calls += now.helper_calls - was.helper_calls;
            counts.domain_crossings +=
                (now.domain_entries + now.domain_exits) - (was.domain_entries + was.domain_exits);
            counts.faults_injected += now.fault_injections - was.fault_injections;
            counts.quarantine_trips += now.quarantine_trips - was.quarantine_trips;
            let ct = k.net.conntrack.stats();
            counts.ct_evicted += ct.evicted;
            counts.ct_misses += ct.misses;
            counts.flow_log_lines += k.net.conntrack.flow_log_fingerprint().lines().count() as u64;
            counts.audit_events += (k.audit.len() - self.audit[i]) as u64;
            counts.peak_bytes_mapped = counts.peak_bytes_mapped.max(k.mem.peak_bytes_mapped());
        }
    }
}

/// Where [`Phase::advance`] leaves the timed phase.
pub enum Step {
    /// Run the next round.
    Next,
    /// An epoch (one pass over the workload's input) just ended; `first`
    /// for the first, `last` if the time is up.
    EpochEnd { first: bool, last: bool },
    /// Time is up and at least one epoch is complete.
    Stop,
}

const SETUP_EVERY_NS: u64 = 1_000_000_000;

/// The timed phase's clock and position. Each round runs one block of
/// the input on every lane; lane blocks are timed and summed, while the
/// oracle's cross-lane comparison and epoch rollovers between rounds are
/// not. The phase ends at a round boundary once its time is spent and
/// the first epoch is complete.
pub struct Phase {
    budget_ns: u64,
    spent_ns: u64,
    /// `[untraced, traced]` (ops, ns) over lane blocks.
    pub blocks: [(u64, u64); 2],
    pub round: usize,
    pub epoch: u32,
    cursor: usize,
    next_setup_ns: u64,
}

impl Phase {
    pub fn new(seconds: f64) -> Phase {
        Phase {
            budget_ns: (seconds * 1e9) as u64,
            spent_ns: 0,
            blocks: [(0, 0); 2],
            round: 0,
            epoch: 0,
            cursor: 0,
            next_setup_ns: SETUP_EVERY_NS,
        }
    }

    /// This round's slice of an input of `len` items.
    pub fn range(&self, len: usize, block: usize) -> std::ops::Range<usize> {
        self.cursor..(self.cursor + block).min(len)
    }

    /// Whether this round's blocks are traced: every other round of a
    /// traced run, so traced and untraced blocks see the same drift. The
    /// parity flips every epoch so both see every part of the input.
    pub fn traced(&self, tr: &Tracer) -> bool {
        tr.enabled && (self.round + self.epoch as usize) % 2 == 1
    }

    /// Lane indices in this round's order: rotated every round so no
    /// lane always runs first.
    pub fn order(&self, lanes: usize) -> impl Iterator<Item = usize> {
        let r = self.round;
        (0..lanes).map(move |k| (r + k) % lanes)
    }

    pub fn add_block(&mut self, traced: bool, ops: u64, t0: Instant) {
        let ns = ns_between(t0, Instant::now());
        let b = &mut self.blocks[traced as usize];
        b.0 += ops;
        b.1 += ns;
        self.spent_ns += ns;
    }

    /// Whether to time another setup now: one per second of the timed
    /// phase, so `setup_s` samples the same host conditions as the ops.
    pub fn setup_due(&mut self) -> bool {
        let due = self.spent_ns >= self.next_setup_ns;
        if due {
            self.next_setup_ns += SETUP_EVERY_NS;
        }
        due
    }

    /// Ends a round that ran the input up to `end` of `len`.
    pub fn advance(&mut self, end: usize, len: usize) -> Step {
        self.round += 1;
        let expired = self.spent_ns >= self.budget_ns;
        if end < len {
            self.cursor = end;
            return if expired && self.epoch > 0 {
                Step::Stop
            } else {
                Step::Next
            };
        }
        self.cursor = 0;
        self.epoch += 1;
        Step::EpochEnd {
            first: self.epoch == 1,
            last: expired,
        }
    }

    pub fn ops(&self) -> u64 {
        self.blocks[0].0 + self.blocks[1].0
    }
}

/// Shortest window, in lane-block time.
const WINDOW_NS: u64 = 250_000_000;
/// Lane-block time between host-speed probes.
const PROBE_EVERY_NS: u64 = 10_000_000;

/// The untraced rounds cut into windows of whole epochs, each at least
/// [`WINDOW_NS`] long, so every window sees the same input mix. Each
/// window's figures are scaled by the median host-speed probe taken
/// during it; the end-to-end metrics are medians over the windows.
pub struct Windows {
    pub probe: Probe,
    /// Per-lane op latency in the open window.
    open: Vec<LatHist>,
    /// Probe times in the open window.
    open_probes: Vec<f64>,
    next_probe_ns: u64,
    /// Untraced (ops, ns) and phase time when the open window began.
    start: (u64, u64),
    start_spent_ns: u64,
    /// Every probe time of the run, nanoseconds.
    pub probes: Vec<f64>,
    /// Each closed window's median probe time.
    pub window_probe: Vec<f64>,
    /// Each closed window's ops per second.
    pub ops_per_s: Vec<f64>,
    /// Each closed window's op latency percentiles, per lane.
    pub p50: Vec<Vec<f64>>,
    pub p99: Vec<Vec<f64>>,
}

impl Windows {
    fn new(lanes: usize) -> Windows {
        Windows {
            probe: Probe::default(),
            open: (0..lanes).map(|_| LatHist::default()).collect(),
            open_probes: Vec::new(),
            next_probe_ns: 0,
            start: (0, 0),
            start_spent_ns: 0,
            probes: Vec::new(),
            window_probe: Vec::new(),
            ops_per_s: Vec::new(),
            p50: vec![Vec::new(); lanes],
            p99: vec![Vec::new(); lanes],
        }
    }

    /// Probes the host's speed.
    pub fn probe(&mut self) -> f64 {
        let ns = self.probe.time() as f64;
        self.probes.push(ns);
        ns
    }

    /// After a round: probes the host's speed if one is due.
    fn round_end(&mut self, phase: &Phase) {
        if phase.spent_ns >= self.next_probe_ns {
            self.next_probe_ns = phase.spent_ns + PROBE_EVERY_NS;
            let ns = self.probe();
            self.open_probes.push(ns);
        }
    }

    /// At an epoch's end: closes the open window if it is long enough,
    /// or if it is the run's last and no window has closed yet.
    fn epoch_end(&mut self, phase: &Phase, last: bool) {
        let long = phase.spent_ns - self.start_spent_ns >= WINDOW_NS;
        if !(long || last && self.ops_per_s.is_empty()) {
            return;
        }
        if self.open_probes.is_empty() {
            let ns = self.probe();
            self.open_probes.push(ns);
        }
        self.window_probe.push(median(&self.open_probes));
        self.open_probes.clear();
        let (ops, ns) = phase.blocks[0];
        let (ops0, ns0) = self.start;
        self.ops_per_s
            .push((ops - ops0) as f64 * 1e9 / (ns - ns0).max(1) as f64);
        for (lane, hist) in self.open.iter_mut().enumerate() {
            self.p50[lane].push(hist.quantile(0.50));
            self.p99[lane].push(hist.quantile(0.99));
            hist.clear();
        }
        self.start = (ops, ns);
        self.start_spent_ns = phase.spent_ns;
    }
}

/// What one workload run produced.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Whole-run oracle failures (health, leak census, determinism).
    pub problems: Vec<String>,
    /// Each timed setup's wall nanoseconds and the probe time taken
    /// right before it.
    pub setups: Vec<(u64, f64)>,
    pub phase: Phase,
    /// Op latency per lane, untraced and traced blocks.
    pub lat: Vec<LatHist>,
    pub lat_traced: Vec<LatHist>,
    pub windows: Windows,
    pub counts: Counts,
    /// SHA-256 of each lane's first-epoch outcome log.
    pub digests: Vec<String>,
}

impl Outcome {
    pub fn new(phase: Phase, lanes: usize) -> Outcome {
        Outcome {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            setups: Vec::new(),
            phase,
            lat: (0..lanes).map(|_| LatHist::default()).collect(),
            lat_traced: (0..lanes).map(|_| LatHist::default()).collect(),
            windows: Windows::new(lanes),
            counts: Counts::default(),
            digests: Vec::new(),
        }
    }

    /// Records one timed op of lane `lane`.
    pub fn op(&mut self, lane: usize, traced: bool, ns: u64, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
        if traced {
            self.lat_traced[lane].record(ns);
        } else {
            self.lat[lane].record(ns);
            self.windows.open[lane].record(ns);
        }
    }

    pub fn problem(&mut self, what: String) {
        eprintln!("oracle: {what}");
        self.problems.push(what);
    }
}

/// What a workload supplies to [`drive`]: its lanes, the step that runs
/// one item of its input, and the oracle checks only it knows.
pub trait Workload<'w> {
    /// Items of the input one lane runs per round.
    const BLOCK: usize;

    /// Items in one epoch (one pass over the input).
    fn items(&self) -> usize;

    /// Tenants per lane.
    fn tenants(&self) -> u32;

    fn rt(&self, lane: usize) -> &LaneRt<'w>;

    fn rt_mut(&mut self, lane: usize) -> &mut LaneRt<'w>;

    /// Runs item `i` on lane `lane`; returns whether the oracle accepts
    /// the outcome and the op's wall nanoseconds.
    fn step(&mut self, tr: &mut Tracer, lane: usize, i: usize, out: &mut Outcome) -> (bool, u64);

    /// Oracle checks over a round's items once every lane has run them.
    fn check_round(&mut self, _items: std::ops::Range<usize>, _out: &mut Outcome) {}

    /// Times one full setup on freshly booted kernels, dropped again.
    fn time_setup(&self) -> u64;

    /// At the end of every epoch, before the first epoch's checkpoint.
    fn epoch_end(&mut self, _first: bool, _out: &mut Outcome) {}

    /// Between epochs: empties the state that grows with every op.
    fn rollover(&mut self, tr: &mut Tracer, out: &mut Outcome);

    /// Whole-run oracle checks before the closing census.
    fn final_checks(&self, _out: &mut Outcome) {}

    /// Untimed closing check of tenant `t` on lane `lane` (an upgrade
    /// and a run); [`drive`] then unloads the tenant.
    fn close_tenant(&mut self, tr: &mut Tracer, lane: usize, t: TenantId) -> bool;

    /// What lane `lane`'s kernel maps once every tenant is unloaded.
    fn baseline(&self, lane: usize) -> u64 {
        self.rt(lane).world.boot_bytes
    }
}

/// Runs a workload's timed phase and its closing census. Each round
/// runs one block of the input on every lane, in a rotated order; a
/// traced run alternates traced and untraced rounds.
pub fn drive<'w, W: Workload<'w>>(
    cfg: &Config,
    tr: &mut Tracer,
    w: &mut W,
    setup_ns: u64,
) -> Outcome {
    let lanes = Lane::ALL.len();
    let base = Base::take((0..lanes).map(|li| w.rt(li)));
    let mut out = Outcome::new(Phase::new(cfg.seconds), lanes);
    let probe = out.windows.probe();
    out.setups.push((setup_ns, probe));
    loop {
        let traced = out.phase.traced(tr);
        tr.on = traced;
        let range = out.phase.range(w.items(), W::BLOCK);
        let epoch = out.phase.epoch as u64;
        for li in out.phase.order(lanes) {
            let t0 = Instant::now();
            for i in range.clone() {
                tr.op = (epoch << 32) | i as u64;
                let (ok, ns) = w.step(tr, li, i, &mut out);
                out.op(li, traced, ns, ok);
            }
            out.phase.add_block(traced, range.len() as u64, t0);
        }
        tr.close();
        tr.on = false;
        w.check_round(range.clone(), &mut out);
        out.windows.round_end(&out.phase);
        if out.phase.setup_due() {
            let probe = out.windows.probe();
            out.setups.push((w.time_setup(), probe));
        }
        match out.phase.advance(range.end, w.items()) {
            Step::Next => {}
            Step::Stop => break,
            Step::EpochEnd { first, last } => {
                out.windows.epoch_end(&out.phase, last);
                w.epoch_end(first, &mut out);
                if first {
                    base.checkpoint((0..lanes).map(|li| w.rt(li)), &mut out, tr);
                }
                if last {
                    break;
                }
                w.rollover(tr, &mut out);
            }
        }
    }
    close(tr, w, &mut out);
    out
}

/// Untimed: the workload's closing checks, then every tenant unloaded
/// and the leak census.
fn close<'w, W: Workload<'w>>(tr: &mut Tracer, w: &mut W, out: &mut Outcome) {
    tr.on = tr.enabled;
    w.final_checks(out);
    for li in 0..Lane::ALL.len() {
        let mut ok = true;
        for t in 0..w.tenants() {
            ok &= w.close_tenant(tr, li, t);
            ok &= w.rt_mut(li).unload(tr, t).0;
        }
        let name = Lane::ALL[li].name();
        if !ok {
            out.problem(format!("{name}: closing upgrade, run or unload failed"));
        }
        if !w.rt(li).census(w.baseline(li)) {
            out.problem(format!(
                "{name}: kernel not pristine or memory not returned"
            ));
        }
    }
    tr.close();
    tr.on = false;
}

/// Unloads every tenant of a lane, takes the leak census, empties the
/// audit log and rebuilds the registry for the workload to repopulate.
pub fn reset(rt: &mut LaneRt<'_>, tr: &mut Tracer, tenants: u32, baseline: u64, out: &mut Outcome) {
    for t in 0..tenants {
        rt.unload(tr, t);
    }
    if !rt.census(baseline) {
        out.problem(format!(
            "{}: kernel not pristine or memory not returned",
            rt.lane.name()
        ));
    }
    rt.world.kernel.audit.clear();
    rt.renew_registry();
}
