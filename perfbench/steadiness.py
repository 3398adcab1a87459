#!/usr/bin/env python3
"""Steadiness report: runs the benchmark N times per workload, each run
with its own seed, and prints for every workload x end-to-end metric the
median, the quartiles and the spread (interquartile range over median)
against the metric's bound in BENCHMARK.json. Each run is untraced and
lasts `run_seconds` of BENCHMARK.json.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10
    python3 perfbench/steadiness.py --runs 5 --workloads learned-tree --seed-base 100

Raw results are written to perfbench/out/steadiness-<time>.json. A spread
above a third of its bound is marked "wide", above the bound "OVER".
setup_s is exempt from the spread rule (its bound applies between two
sets of runs), so it is marked "(setup)".
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", "0",
    ]
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - started
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    meta = next((json.loads(l[len("# meta "):]) for l in lines if l.startswith("# meta ")), {})
    return {"seed": seed, "wall_s": wall, "result": result, "meta": meta}


def spread_of(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med if med else float("inf")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    ap.add_argument("--seed-base", type=int, default=1)
    args = ap.parse_args()
    if args.runs < 4:
        sys.exit("need at least 4 runs for quartiles")

    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    report = {"seconds": seconds, "runs": args.runs, "workloads": {}}
    ok = True
    for w in workloads:
        runs = []
        for i in range(args.runs):
            r = run_once(bench, w, args.seed_base + i)
            runs.append(r)
            print(f"{w} seed {r['seed']}: {r['wall_s']:.1f}s wall, "
                  f"steal {r['meta'].get('steal_ticks', '?')} ticks, "
                  f"wall pps {r['meta'].get('wall_pps', '?')}, "
                  f"{r['result']['failed']}/{r['result']['attempted']} failed",
                  file=sys.stderr, flush=True)
        report["workloads"][w] = runs
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
        correct = all(r["result"]["correct"] for r in runs)
        print(f"\n{w}: {args.runs} runs of {seconds}s, correct={correct}, "
              f"failed share(s)={sorted(shares)}, "
              f"steal ticks median={statistics.median(r['meta'].get('steal_ticks', 0) for r in runs)}")
        print(f"  {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}  verdict")
        names = list(runs[0]["result"]["metrics"])
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            unit = runs[0]["result"]["metrics"][name]["unit"]
            q1, med, q3, spread = spread_of(values)
            bound = bounds.get(name)
            if bound is None:
                verdict = ""
            elif name == "setup_s":
                verdict = "(setup)"
            elif spread > bound:
                verdict, ok = "OVER", False
            elif spread > bound / 3:
                verdict = "wide"
            else:
                verdict = "ok"
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {b:>6}  {verdict} [{unit}]")
        ok = ok and correct and len(shares) == 1

    out = Path("perfbench/out")
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"steadiness-{time.strftime('%Y%m%d-%H%M%S')}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"\nraw results: {path}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
