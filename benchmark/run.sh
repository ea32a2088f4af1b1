#!/usr/bin/env bash
# Build the benchmark package, then run it. From the root of the checkout:
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in one process; the last line of standard output is
#       the result object (this is the command BENCHMARK.json records)
#   benchmark/run.sh [--seed N] [--seconds S] [--workloads a,b] [--traces 0,1] [--out FILE]
#       the suite: every workload untraced and traced, each in a fresh
#       process, printed as `workload name value unit samples` and written
#       to benchmark/out/results.json
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
bin="$CARGO_TARGET_DIR/release/clarens-benchmark"
case " $* " in
*" --workload "*) exec "$bin" "$@" ;;
*) exec python3 benchmark/suite.py run --bin "$bin" "$@" ;;
esac
