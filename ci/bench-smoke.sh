#!/usr/bin/env bash
# Stage: bench-smoke — one pass over each bench smoke's internal
# assertions (packet counts, shard invariance, zero trace overhead),
# then the host-time benchmark's self-tests, so a crate API change that
# breaks `extbench` (its own Cargo package) fails here.
# The determinism stage re-runs these for cross-process hash compares;
# this stage exists so `--stage bench-smoke` gives a quick sanity pass
# without the soak.
set -euo pipefail
cd "$(dirname "$0")/.."
source ci/lib.sh

say "throughput smoke"
cargo run --release -q -p bench --bin throughput -- --smoke

say "netbench smoke"
cargo run --release -q -p bench --bin netbench -- --smoke

say "profile smoke"
cargo run --release -q -p bench --bin profile -- --smoke

say "churn smoke (2 shards, storm armed)"
cargo run --release -q -p bench --bin churn -- --smoke

say "hooks smoke (3 scenarios, 2 shards, storm armed)"
cargo run --release -q -p bench --bin hooks -- --smoke

say "extbench self-tests (smoke-size workloads, oracles, printed metric names)"
cargo test --release -q --offline --manifest-path extbench/Cargo.toml
