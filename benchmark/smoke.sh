#!/usr/bin/env bash
# A two-second pass over everything (probes at a tenth of their
# iterations) that only asserts every metric BENCHMARK.json names is
# emitted, finite, and non-zero where it must be. Numbers from it mean
# nothing.
set -euo pipefail
cd "$(dirname "$0")/.."
exec bash benchmark/run.sh --smoke --seconds 2 --out benchmark/out/smoke.json "$@"
