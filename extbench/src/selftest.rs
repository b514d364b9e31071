//! The benchmark's own checks, at smoke size: `cargo test --release`
//! in this directory.

use crate::load::{self, Expect};
use crate::phase::{Config, Outcome, Size};
use crate::report;
use crate::trace::Tracer;
use crate::WORKLOADS;

fn smoke(seed: u64, trace: bool) -> Config {
    Config {
        seed,
        seconds: 0.05,
        trace,
        size: Size::Smoke,
    }
}

fn run(workload: &str, cfg: Config) -> (Outcome, Tracer) {
    let mut tr = Tracer::new(cfg.trace);
    let out = crate::run(workload, &cfg, &mut tr);
    (out, tr)
}

/// `(name, unit)` of every entry of the array under `key`.
fn declared(json: &str, key: &str) -> Vec<(String, String)> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |entry: &str, f: &str| -> Option<String> {
        let at = entry.find(&format!("\"{f}\""))?;
        let rest = &entry[at + f.len() + 2..];
        let open = rest.find('"')? + 1;
        let close = rest[open..].find('"')? + open;
        Some(rest[open..close].to_string())
    };
    body.split('{')
        .skip(1)
        .filter_map(|entry| {
            Some((
                field(entry, "name")?,
                field(entry, "unit").unwrap_or_default(),
            ))
        })
        .collect()
}

fn benchmark_json() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory")
}

fn printed(metrics: &[report::Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

#[test]
fn printed_names_match_benchmark_json() {
    let json = benchmark_json();
    let workloads: Vec<String> = declared(&json, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, WORKLOADS);
    let e2e = declared(&json, "end_to_end");
    let layers = declared(&json, "per_layer");
    for workload in WORKLOADS {
        let (out, _) = run(workload, smoke(7, false));
        assert_eq!(
            printed(&report::end_to_end(&out)),
            e2e,
            "{workload} end-to-end"
        );
        let (out, tr) = run(workload, smoke(7, true));
        assert_eq!(
            printed(&report::per_layer(&out, &tr)),
            layers,
            "{workload} per-layer"
        );
    }
}

#[test]
fn every_workload_passes_its_oracle() {
    for workload in WORKLOADS {
        let (out, _) = run(workload, smoke(3, false));
        assert!(out.attempted > 0, "{workload}: no ops");
        assert_eq!(out.failed, 0, "{workload}: failed ops");
        assert!(out.problems.is_empty(), "{workload}: {:?}", out.problems);
    }
}

#[test]
fn wrong_expected_verdict_fails_ops() {
    let mut tr = Tracer::new(false);
    let out = load::run_with(&smoke(5, false), &mut tr, |corpus| {
        let e = corpus
            .iter_mut()
            .find(|e| e.expect != Expect::Accept)
            .expect("the corpus holds violations");
        e.expect = Expect::Accept;
    });
    assert!(out.failed > 0, "a wrong expected verdict went unnoticed");
    // Only the verifying lanes judge the planted entry.
    assert!(out.failed < out.attempted / 5);
}

#[test]
fn counts_repeat_exactly() {
    for workload in WORKLOADS {
        let (a, _) = run(workload, smoke(11, true));
        let (b, _) = run(workload, smoke(11, true));
        assert_eq!(a.counts, b.counts, "{workload}");
        assert_eq!(a.digests, b.digests, "{workload}");
    }
    let (xdp, _) = run("xdp", smoke(11, true));
    assert!(xdp.counts.ct_evicted > 0, "smoke xdp overflows conntrack");
    assert!(xdp.counts.verif.insns_processed > 0);
    let (load, _) = run("load", smoke(11, true));
    assert!(load.counts.audit_events > 0);
    let (churn, _) = run("churn", smoke(11, false));
    assert_eq!(churn.digests.len(), 5, "one outcome-log digest per lane");
}
