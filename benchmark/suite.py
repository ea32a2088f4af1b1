#!/usr/bin/env python3
"""Bookkeeping around the benchmark binary: run the whole suite and write
the ledger, or summarise several ledgers. The measuring is all in the Rust
binary; this only starts it, reads what it prints and checks it against
BENCHMARK.json. Use it through run.sh / repeat.sh / smoke.sh."""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Per-layer metrics that are rightly zero on some workloads (no file
# traffic, no im calls, no open loop, a GET has no ACL phase, ...). Every
# other metric must be non-zero on every workload.
MAY_BE_ZERO = {
    "httpd.sendfile_share", "httpd.write_stalls", "httpd.poll_wakeups_per_op",
    "core.session_cache_hit_ratio", "core.acl_cache_hit_ratio",
    "core.phase_auth_us_mean", "core.phase_acl_us_mean", "core.phase_dispatch_us_mean",
    "core.im_send_p50_us", "core.im_peek_p50_us",
    "db.compactions", "db.wal_syncs_per_op", "db.lookups_per_op",
    "trace.httpd_self_share", "trace.wire_self_share", "trace.core_self_share",
    "trace.db_self_share", "trace.pki_self_share",
    "bench.late_frac", "bench.trace_overhead_frac",
}


def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True)
        return out.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


# The bound ISSUE 12 fixes for every timing metric. The timing metrics that
# did not repeat within it on every workload are diagnostics (`bench.*`):
# an untraced run prints them as `metric` lines beside the result object.
ISSUE_BOUND = 0.10


def run_one(binary, workload, seed, seconds, trace, smoke):
    """One workload in a fresh process. Returns (exit code, result object,
    {metric: (value, unit, samples)} of every `metric` line)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    printed = {}
    for line in lines:
        if line.startswith("# "):
            print(line)
        parts = line.split(" ")
        if parts[0] == "metric" and len(parts) == 6:
            printed[parts[2]] = (float(parts[3]), parts[4], int(parts[5]))
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, result, printed


def run(args):
    spec = contract()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workloads:
        workloads = [w for w in workloads if w in args.workloads.split(",")]
    kinds = {0: ("end_to_end", spec["end_to_end"]), 1: ("per_layer", spec["per_layer"])}
    rows, problems = [], []
    for workload in workloads:
        for trace in [int(t) for t in args.traces.split(",")]:
            kind, wanted = kinds[trace]
            code, result, printed = run_one(args.bin, workload, args.seed, seconds, trace, args.smoke)
            where = f"{workload} --trace {trace}"
            if result is None:
                problems.append(f"{where}: no result (exit code {code})")
                continue
            if code != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{where}: exit code {code}, {result['failed']} of {result['attempted']} failed")
            metrics = result["metrics"]
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None:
                    problems.append(f"{where}: {m['name']} not emitted")
                    continue
                value = got["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {m['name']} is not finite: {value}")
                elif got["unit"] != m["unit"]:
                    problems.append(f"{where}: {m['name']} in {got['unit']}, BENCHMARK.json says {m['unit']}")
                elif value == 0 and m["name"] not in MAY_BE_ZERO:
                    problems.append(f"{where}: {m['name']} is 0")
                samples = printed.get(m["name"], (0, "", 0))[2]
                print(workload, m["name"], value, got["unit"], samples)
                rows.append({
                    "name": m["name"], "unit": got["unit"], "value": value, "workload": workload,
                    "samples": samples, "bound": m.get("bound"), "kind": kind,
                })
            for extra in sorted(set(metrics) - {m["name"] for m in wanted}):
                problems.append(f"{where}: {extra} emitted but not in BENCHMARK.json")
            # The whole-window timing diagnostics of an untraced run.
            for name in sorted(set(printed) - set(metrics)):
                value, unit, samples = printed[name]
                if not math.isfinite(value) or value == 0:
                    problems.append(f"{where}: {name} is {value}")
                print(workload, name, value, unit, samples)
                rows.append({
                    "name": name, "unit": unit, "value": value, "workload": workload,
                    "samples": samples, "bound": None, "kind": "diagnostic",
                })
    ledger = {
        "claim": None,
        "git_rev": git_rev(),
        "host": {"nproc": os.cpu_count(), "kernel": platform.release(), "machine": platform.machine()},
        "transport": "loopback",
        "seed": args.seed,
        "seconds": seconds,
        "smoke": args.smoke,
        "rows": rows,
    }
    out = os.path.join(ROOT, args.out)
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(ledger, f, indent=1)
    print(f"# {len(rows)} rows written to {args.out}")
    for p in problems:
        print("PROBLEM", p)
    return 1 if problems else 0


def summarize(args):
    spec = contract()
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    values = {}
    for path in args.ledgers:
        with open(path) as f:
            for row in json.load(f)["rows"]:
                values.setdefault((row["kind"], row["workload"], row["name"]), {"row": row, "v": []})["v"].append(row["value"])
    flagged = 0
    print("| workload | metric | unit | better | min | median | max | (max-min)/median | IQR/median | bound | |")
    print("|---|---|---|---|---|---|---|---|---|---|---|")
    for (kind, workload, name), entry in values.items():
        v, row = entry["v"], entry["row"]
        med = statistics.median(v)
        spread = (max(v) - min(v)) / abs(med) if med else 0.0
        if len(v) >= 2:
            q = statistics.quantiles(v, n=4)
            iqr = (q[2] - q[0]) / abs(med) if med else 0.0
        else:
            iqr = 0.0
        bound = row["bound"]
        flag = ""
        if kind == "end_to_end" and bound is not None and iqr > bound:
            flag = "OUTSIDE BOUND"
            flagged += 1
        elif kind == "diagnostic" and spread > ISSUE_BOUND:
            flag = f"does not repeat within {ISSUE_BOUND}"
        print(f"| {workload} | {name} | {row['unit']} | {better.get(name, '')} | {min(v):.6g} | {med:.6g} | {max(v):.6g} "
              f"| {spread:.3f} | {iqr:.3f} | {'' if bound is None else bound} | {flag} |")
    print(f"# {len(args.ledgers)} ledgers; {flagged} end-to-end metric x workload pairs whose IQR/median is outside their bound")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run the suite and write the ledger")
    r.add_argument("--bin", required=True, help="the built clarens-benchmark binary")
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    r.add_argument("--workloads", default="", help="comma-separated subset")
    r.add_argument("--traces", default="0,1", help="0 = end-to-end runs, 1 = per-layer runs")
    r.add_argument("--smoke", action="store_true")
    r.add_argument("--out", default="benchmark/out/results.json")
    r.set_defaults(func=run)
    s = sub.add_parser("summarize", help="min / median / max per metric over several ledgers")
    s.add_argument("ledgers", nargs="+")
    s.set_defaults(func=summarize)
    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
