//! Metric assembly and the result line.

use crate::lanes::Lane;
use crate::phase::Outcome;
use crate::speed::NOMINAL_NS;
use crate::stats::{median, nearest_rank};
use crate::trace::Tracer;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Ops per second over untraced (`0`) or traced (`1`) lane blocks.
fn ops_per_s(out: &Outcome, traced: usize) -> f64 {
    let (ops, ns) = out.phase.blocks[traced];
    ratio(ops * 1_000_000_000, ns)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A latency taken while the host-speed probe took `probe_ns`, scaled
/// to the nominal probe time.
fn scaled(ns: f64, probe_ns: f64) -> f64 {
    ns * NOMINAL_NS / probe_ns
}

/// The run's median probe time.
fn run_probe(out: &Outcome) -> f64 {
    median(&out.windows.probes)
}

/// The slow side over windows of each window's figure scaled by the
/// window's probe: the 90th percentile of latencies (`latency`, which
/// scale down on a slow host), the 10th of throughput (which scales
/// up). The scaling removes most of the host's state and the slow side
/// keeps what it leaves from depending on the run's mix of states (see
/// `NOTES.md`, "Host noise"). With no closed window, the whole run's
/// figure scaled by the run's probe.
fn over_windows(out: &Outcome, figures: &[f64], whole_run: f64, latency: bool) -> f64 {
    let scale = |x: f64, probe: f64| match latency {
        true => scaled(x, probe),
        false => x * probe / NOMINAL_NS,
    };
    let q = if latency { 0.9 } else { 0.1 };
    let w = &out.windows;
    match figures.is_empty() {
        true => scale(whole_run, run_probe(out)),
        false => {
            let v: Vec<f64> = figures
                .iter()
                .zip(&w.window_probe)
                .map(|(&x, &p)| scale(x, p))
                .collect();
            nearest_rank(&v, q)
        }
    }
}

/// The untraced run's metrics.
pub fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let w = &out.windows;
    let setup: Vec<f64> = out
        .setups
        .iter()
        .map(|&(ns, probe)| scaled(ns as f64, probe) / 1e9)
        .collect();
    let mut v = vec![
        m("setup_s", median(&setup), "s"),
        m(
            "ops_per_s",
            over_windows(out, &w.ops_per_s, ops_per_s(out, 0), false),
            "1/s",
        ),
    ];
    for (i, lane) in Lane::ALL.iter().enumerate() {
        v.push(m(
            format!("{}.op_ns_p50", lane.name()),
            over_windows(out, &w.p50[i], out.lat[i].quantile(0.50), true),
            "ns",
        ));
        v.push(m(
            format!("{}.op_ns_p99", lane.name()),
            over_windows(out, &w.p99[i], out.lat[i].quantile(0.99), true),
            "ns",
        ));
    }
    v.push(m("peak_rss_mb", peak_rss_mb(), "MiB"));
    v
}

/// Span-duration percentiles the traced run reports: (metric, span,
/// percentile).
const SPAN_METRICS: [(&str, &str, f64); 24] = [
    ("tenancy.upgrade.ns_p50", "tenancy.upgrade", 0.50),
    ("tenancy.upgrade.ns_p99", "tenancy.upgrade", 0.99),
    ("tenancy.attach.ns_p50", "tenancy.attach", 0.50),
    (
        "tenancy.unload_tenant.ns_p50",
        "tenancy.unload_tenant",
        0.50,
    ),
    ("ebpf.vm_run.interp.ns_p50", "ebpf.vm_run.interp", 0.50),
    ("ebpf.vm_run.interp.ns_p99", "ebpf.vm_run.interp", 0.99),
    ("ebpf.vm_run.jit.ns_p50", "ebpf.vm_run.jit", 0.50),
    ("ebpf.vm_run.jit.ns_p99", "ebpf.vm_run.jit", 0.99),
    ("ebpf.vm_run.sandbox.ns_p50", "ebpf.vm_run.sandbox", 0.50),
    ("ebpf.vm_run.sandbox.ns_p99", "ebpf.vm_run.sandbox", 0.99),
    (
        "ebpf.vm_run.sandbox_jit.ns_p50",
        "ebpf.vm_run.sandbox_jit",
        0.50,
    ),
    (
        "ebpf.vm_run.sandbox_jit.ns_p99",
        "ebpf.vm_run.sandbox_jit",
        0.99,
    ),
    ("ebpf.load_jit.ns_p50", "ebpf.load_jit", 0.50),
    ("ebpf.load_sandboxed.ns_p50", "ebpf.load_sandboxed", 0.50),
    (
        "ebpf.load_sandboxed_jit.ns_p50",
        "ebpf.load_sandboxed_jit",
        0.50,
    ),
    ("core.runtime_run.ns_p50", "core.runtime_run", 0.50),
    ("core.runtime_run.ns_p99", "core.runtime_run", 0.99),
    ("core.loader_load.ns_p50", "core.loader_load", 0.50),
    ("core.toolchain_build.ns_p50", "core.toolchain_build", 0.50),
    (
        "signing.keystore_validate.ns_p50",
        "signing.keystore_validate",
        0.50,
    ),
    ("verifier.verify.ns_p50", "verifier.verify", 0.50),
    ("verifier.verify.ns_p99", "verifier.verify", 0.99),
    ("kernel_sim.boot.ns", "kernel_sim.boot", 0.50),
    (
        "kernel_sim.rcu_synchronize.ns_p50",
        "kernel_sim.rcu_synchronize",
        0.50,
    ),
];

/// The traced run's metrics, layer by layer (layers are crate names):
/// span times, then the first epoch's counts, then tracing overhead.
/// Times are scaled by the run's median probe.
pub fn per_layer(out: &Outcome, tr: &Tracer) -> Vec<Metric> {
    let c = &out.counts;
    let probe = run_probe(out);
    let mut v: Vec<Metric> = Lane::ALL
        .iter()
        .map(|lane| {
            let span = format!("tenancy.run_input.{}", lane.name());
            let ns = scaled(tr.self_q(&span, 0.50), probe);
            m(format!("{span}.self_ns_p50"), ns, "ns")
        })
        .collect();
    v.extend(
        SPAN_METRICS
            .iter()
            .map(|&(metric, span, q)| m(metric, scaled(tr.dur_q(span, q), probe), "ns")),
    );
    let counts = [
        ("tenancy.refused_ratio", ratio(c.refused, c.runs), "ratio"),
        ("tenancy.killed_ratio", ratio(c.killed, c.runs), "ratio"),
        (
            "ebpf.helper_calls_per_run",
            ratio(c.helper_calls, c.runs),
            "calls/run",
        ),
        (
            "ebpf.domain_crossings_per_run",
            ratio(c.domain_crossings, c.runs),
            "crossings/run",
        ),
        (
            "verifier.insns_processed",
            c.verif.insns_processed as f64,
            "count",
        ),
        (
            "verifier.states_pushed",
            c.verif.states_pushed as f64,
            "count",
        ),
        (
            "verifier.states_pruned",
            c.verif.states_pruned as f64,
            "count",
        ),
        ("verifier.peak_states", c.verif.peak_states as f64, "count"),
        (
            "verifier.verdict_mismatches",
            c.verif.verdict_mismatches as f64,
            "count",
        ),
        (
            "kernel_sim.conntrack.evictions",
            c.ct_evicted as f64,
            "count",
        ),
        (
            "kernel_sim.conntrack.evict_ratio",
            ratio(c.ct_evicted, c.ct_misses),
            "ratio",
        ),
        (
            "kernel_sim.conntrack.flow_log_lines",
            c.flow_log_lines as f64,
            "count",
        ),
        (
            "kernel_sim.audit.events_per_op",
            ratio(c.audit_events, c.ops),
            "events/op",
        ),
        (
            "kernel_sim.mem.peak_bytes_mapped",
            c.peak_bytes_mapped as f64,
            "bytes",
        ),
        (
            "kernel_sim.faults_injected",
            c.faults_injected as f64,
            "count",
        ),
        (
            "kernel_sim.quarantine_trips",
            c.quarantine_trips as f64,
            "count",
        ),
    ];
    v.extend(
        counts
            .into_iter()
            .map(|(name, value, unit)| m(name, value, unit)),
    );
    // Tracing overhead: this run's traced blocks minus its untraced ones.
    v.push(m(
        "trace.overhead.ops_per_s",
        (ops_per_s(out, 1) - ops_per_s(out, 0)) * probe / NOMINAL_NS,
        "1/s",
    ));
    for (i, lane) in Lane::ALL.iter().enumerate() {
        let ns = out.lat_traced[i].quantile(0.50) - out.lat[i].quantile(0.50);
        v.push(m(
            format!("trace.overhead.{}.op_ns_p50", lane.name()),
            scaled(ns, probe),
            "ns",
        ));
    }
    v
}

/// A human-readable breakdown on standard error: ops, mean cost and
/// share of op time per lane.
pub fn summary(workload: &str, out: &Outcome) {
    let total: u64 = out.lat.iter().chain(&out.lat_traced).map(|h| h.sum()).sum();
    for (i, lane) in Lane::ALL.iter().enumerate() {
        let (n, sum) = (
            out.lat[i].len() + out.lat_traced[i].len(),
            out.lat[i].sum() + out.lat_traced[i].sum(),
        );
        let w = &out.windows.p50[i];
        eprintln!(
            "{workload} {:<11} ops {:>9}  mean {:>9.0} ns  p50 {:>9.0} ns  share {:>5.1}%  \
             window p50 q10/q50/q90 {:.0}/{:.0}/{:.0} ns",
            lane.name(),
            n,
            ratio(sum, n),
            out.lat[i].quantile(0.5),
            100.0 * ratio(sum, total),
            nearest_rank(w, 0.1),
            nearest_rank(w, 0.5),
            nearest_rank(w, 0.9),
        );
    }
    let w = &out.windows.ops_per_s;
    let p = &out.windows.probes;
    eprintln!(
        "{workload} {} windows, ops/s q10/q50/q90 {:.0}/{:.0}/{:.0}; \
         probe q10/q50/q90 {:.0}/{:.0}/{:.0} ns of nominal {NOMINAL_NS} (figures here are unscaled)",
        w.len(),
        nearest_rank(w, 0.1),
        nearest_rank(w, 0.5),
        nearest_rank(w, 0.9),
        nearest_rank(p, 0.1),
        nearest_rank(p, 0.5),
        nearest_rank(p, 0.9),
    );
    eprintln!(
        "{workload} setup {:?} ms, counts {:?}",
        out.setups
            .iter()
            .map(|(ns, _)| (*ns as f64 / 1e6 * 100.0).round() / 100.0)
            .collect::<Vec<_>>(),
        out.counts
    );
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result line.
pub fn json(out: &Outcome, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name,
                number(x.value),
                x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.problems.is_empty(),
        out.attempted,
        out.failed,
        body.join(", ")
    )
}
