#!/usr/bin/env bash
# Build the benchmark, run its unit tests, and check that two sets of runs
# of the same code agree within the benchmark's own bounds.
#
# Not wired into .github/workflows/ci.yml yet (a later PR): selfcheck takes
# about three minutes and wants a machine that is otherwise idle.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test --release --offline
cargo run --release --offline --bin bench -- selfcheck
