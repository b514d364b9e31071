//! Host-time benchmark of the extension run path (`xdp`), the load path
//! (`load`) and tenant churn (`churn`) across the five execution lanes.
//!
//! ```text
//! extbench --workload <xdp|load|churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One thread drives the system crates in closed loop: one caller, the
//! next op issued when the previous returns. The last line of standard
//! output is a JSON object with `correct`, `attempted`, `failed` and
//! `metrics`: the end-to-end metrics untraced, the per-layer metrics
//! with `--trace 1`. There are no queues and no second thread, so no
//! time-waited metric exists.

mod churn;
mod lanes;
mod load;
mod phase;
mod progs;
mod report;
mod speed;
mod stats;
mod trace;
mod xdp;

#[cfg(test)]
mod selftest;

use std::path::PathBuf;
use std::process::ExitCode;

use phase::{Config, Outcome, Size};
use trace::Tracer;

pub const WORKLOADS: [&str; 3] = ["xdp", "load", "churn"];

struct Args {
    workload: String,
    cfg: Config,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        cfg: Config {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            size: Size::Full,
        },
    })
}

/// Runs one workload.
pub fn run(workload: &str, cfg: &Config, tr: &mut Tracer) -> Outcome {
    match workload {
        "xdp" => xdp::run(cfg, tr),
        "load" => load::run(cfg, tr),
        "churn" => churn::run(cfg, tr),
        other => unreachable!("workload {other} was validated"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("extbench: {e}");
            eprintln!(
                "usage: extbench --workload <xdp|load|churn> --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut tr = Tracer::new(args.cfg.trace);
    let out = run(&args.workload, &args.cfg, &mut tr);
    if args.cfg.trace {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{}-{}.tsv", args.workload, args.cfg.seed));
        match tr.dump(&path) {
            Ok(()) => eprintln!("extbench: spans written to {}", path.display()),
            Err(e) => eprintln!("extbench: could not write spans: {e}"),
        }
    }
    let metrics = if args.cfg.trace {
        report::per_layer(&out, &tr)
    } else {
        report::end_to_end(&out)
    };
    report::summary(&args.workload, &out);
    println!("{}", report::json(&out, &metrics));
    ExitCode::SUCCESS
}
