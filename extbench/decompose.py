#!/usr/bin/env python3
"""Checks the traced run's decomposition of the `xdp` op against an
independent untraced run.

For each lane, `tenancy.run_input.<lane>.self_ns_p50` plus the inner
run's p50 (from the traced run) should land within the benchmark's
bound of `<lane>.op_ns_p50` (from a separate untraced run) plus the
traced run's `trace.overhead.<lane>.op_ns_p50`.

    python3 extbench/decompose.py [--seed N] [--seconds S]

Run from the repository root. Prints one line per lane and exits 1 if
any lane misses the bound.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
INNER = {
    "ebpf": "ebpf.vm_run.interp.ns_p50",
    "ebpf_jit": "ebpf.vm_run.jit.ns_p50",
    "safe": "core.runtime_run.ns_p50",
    "sandbox": "ebpf.vm_run.sandbox.ns_p50",
    "sandbox_jit": "ebpf.vm_run.sandbox_jit.ns_p50",
}


def run(seed, seconds, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        command = json.load(f)["command"]
    args = command + ["--workload", "xdp", "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(args, cwd=ROOT, check=True, capture_output=True, text=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"trace {trace}: the oracle rejected the run")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=101)
    p.add_argument("--seconds", type=float, default=35)
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    plain = run(a.seed, a.seconds, 0)
    traced = run(a.seed, a.seconds, 1)
    missed = 0
    print(f"{'lane':<12}{'self':>8}{'inner':>8}{'sum':>8}{'op p50':>9}"
          f"{'overhead':>10}{'expect':>9}{'diff':>8}  bound")
    for lane, inner in INNER.items():
        s = traced[f"tenancy.run_input.{lane}.self_ns_p50"]
        i = traced[inner]
        op = plain[f"{lane}.op_ns_p50"]
        over = traced[f"trace.overhead.{lane}.op_ns_p50"]
        expect = op + over
        diff = (s + i - expect) / expect
        bound = bounds[f"{lane}.op_ns_p50"]
        ok = abs(diff) <= bound
        missed += not ok
        print(f"{lane:<12}{s:>8.0f}{i:>8.0f}{s + i:>8.0f}{op:>9.0f}{over:>10.0f}"
              f"{expect:>9.0f}{diff:>+8.1%}  {bound} {'ok' if ok else 'MISSED'}")
    sys.exit(1 if missed else 0)


if __name__ == "__main__":
    main()
