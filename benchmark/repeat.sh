#!/usr/bin/env bash
# benchmark/repeat.sh N [suite options]: run the suite N times, each with
# another seed, then print per metric min / median / max, (max - min) /
# median and the interquartile spread / median, flagging every end-to-end
# metric whose interquartile spread is outside its bound (the measure the
# benchmark driver applies). `--traces 0` keeps it to the runs the
# bounds apply to.
set -euo pipefail
cd "$(dirname "$0")/.."
n="${1:?usage: benchmark/repeat.sh N [suite options]}"
shift
files=()
for i in $(seq 1 "$n"); do
    out="benchmark/out/repeat-$i.json"
    bash benchmark/run.sh --seed "$i" --out "$out" "$@" >/dev/null
    files+=("$out")
    echo "suite $i of $n done" >&2
done
exec python3 benchmark/suite.py summarize "${files[@]}"
