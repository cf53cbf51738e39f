"""Steadiness check: two interleaved sets of benchmark runs on one checkout.

    python3 perfbench/steady.py [--runs 5] [--workloads a,b] [--seconds S] [--trace 0|1]

Runs ``run.py`` ``--runs`` times per set and workload, alternating which
set goes first, every run with its own seed.  For each workload and
metric it prints each set's median and quartiles, the relative difference
of the two medians, and the spread of all runs together (distance between
the quartiles as a share of the median) next to the metric's bound in
BENCHMARK.json.  Raw values go to ``.perfbench_out/steady-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from stats import quartiles, relative_iqr  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[1] == "=" and parts[0] not in result["metrics"]:
            result["metrics"][parts[0]] = {"value": float(parts[2]), "unit": parts[3]}
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect\n{out.stderr}")
    return result


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set and workload")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: Dict[str, Dict[str, Dict[str, List[float]]]] = {
        w: {"A": {}, "B": {}} for w in workloads}
    for i in range(args.runs):
        for w in workloads:
            for side in ("AB" if i % 2 == 0 else "BA"):
                seed = (1000 if side == "A" else 2000) + i
                start = time.perf_counter()
                result = run_once(w, seed, args.seconds, args.trace)
                print(f"# run {i} set {side} {w} seed {seed}: "
                      f"{time.perf_counter() - start:.1f}s", file=sys.stderr)
                for name, m in result["metrics"].items():
                    values[w][side].setdefault(name, []).append(m["value"])

    print(f"{'workload':12s} {'metric':40s} {'set A median [q1,q3]':>32s} "
          f"{'set B median [q1,q3]':>32s} {'B/A-1':>8s} {'spread':>7s} {'bound':>6s}")
    for w in workloads:
        for name in values[w]["A"]:
            a, b = values[w]["A"][name], values[w]["B"][name]
            qa, qb = quartiles(a), quartiles(b)
            diff = qb[1] / qa[1] - 1 if qa[1] else float("nan")
            spread = relative_iqr(a + b) if (a + b) and quartiles(a + b)[1] else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                limit = bound if name == "setup_s" else bound / 3
                worst = max(abs(diff), 0 if name == "setup_s" else spread)
                flag = "ok" if worst <= limit else "WIDE"
            print(f"{w:12s} {name:40s} "
                  f"{qa[1]:>12.5g} [{qa[0]:.5g},{qa[2]:.5g}] "
                  f"{qb[1]:>12.5g} [{qb[0]:.5g},{qb[2]:.5g}] "
                  f"{diff:>+8.3f} {spread:>7.3f} {bound if bound is not None else '-':>6} {flag}")
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".perfbench_out", f"steady-{int(time.time())}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"seconds": args.seconds, "trace": args.trace, "values": values}, fh)
    print(f"raw values: {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
