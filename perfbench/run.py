"""jrl benchmark runner.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload for about ``--seconds`` seconds in a fresh pass process
(one client, closed loop: the next item is sent only when the previous
one has answered), checks every item's output against ``expected.json``
and prints one JSON result as the last line of stdout.

With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json.
Items are cycled for the whole run; a second pass process runs each item
at the same moment on the frozen copy in ``frozen/``, and the time
figures are ratios of the two (see README.md).  Set-up probes (fresh
processes) are spread across the run.  With ``--trace 1`` each item runs
untraced and then traced on the checkout's jrl, and the run reports the
per-layer metrics plus the tracing overhead.

Exits 2 without a result when the checkout holds no jrl sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FROZEN = os.path.join(HERE, "frozen")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
EXPECTED = os.path.join(HERE, "expected.json")
# source_hash of frozen/jrl_frozen; the ratios are only comparable while it holds
FROZEN_SHA256 = "f4ee645f14e23970"

sys.path.insert(0, HERE)
from stats import median, tail  # noqa: E402
from workloads import WORKLOADS, items, key, structures  # noqa: E402

# Set-up probes per untraced run, plus one discarded warm-up probe that
# lets a fresh checkout write its bytecode cache first.
PROBES = 9
# A visit to an item repeats it, in pairs of runs, until VISIT_SECONDS
# have passed or VISIT_REPEATS runs are done: millisecond items get
# several samples per pass, second-long items two.
VISIT_SECONDS = 0.05
VISIT_REPEATS = 6
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


def pinned_env(package: str = "jrl") -> Dict[str, str]:
    """One thread everywhere, a fixed hash seed, the package from this
    checkout: jrl from ``src``, the frozen copy from ``perfbench/frozen``."""
    env = dict(os.environ)
    env.pop("JRL_JOBS", None)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # A fixed mmap threshold turns off glibc's adaptive one, whose state
    # depends on the order of earlier frees and moved peak RSS by ~8%.
    env["MALLOC_MMAP_THRESHOLD_"] = str(128 * 1024)
    env["PYTHONPATH"] = SRC if package == "jrl" else FROZEN
    return env


def source_hash(pkg: str) -> str:
    """Hash of a package's Python sources."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def commit() -> Optional[str]:
    """HEAD of the checkout when it is a git work tree, else None."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


class Worker:
    """The pass process and its line protocol."""

    def __init__(self, workload: str, seed: int, package: str = "jrl", trace_out: str = ""):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
               "--seed", str(seed), "--package", package]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        self.proc = subprocess.Popen(cmd, env=pinned_env(package), cwd=ROOT, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.ready = self.read()

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"pass process ended (exit {self.proc.wait()})")
        return json.loads(line)

    def pin(self, cpu: Optional[int]) -> None:
        if cpu is not None:
            os.sched_setaffinity(self.proc.pid, {cpu})

    def send(self, **req) -> None:
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()

    def request(self, **req) -> dict:
        self.send(**req)
        return self.read()

    def finish(self) -> dict:
        done = self.request(finish=True)
        self.proc.stdin.close()
        self.proc.wait()
        return done

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def probe(workload: str) -> float:
    rings, groups = structures(workload)
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "probe.py"), ",".join(rings), ",".join(groups)],
        env=pinned_env(), cwd=ROOT, check=True, capture_output=True, text=True)
    return float(out.stdout.strip())


class Ledger:
    """Per-item samples and the output check."""

    def __init__(self, workload: str, expected: dict):
        self.expected = expected
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def record(self, reply: dict, times: Dict[str, List[float]]) -> None:
        self.attempted += 1
        k = key(tuple(reply["item"]))
        want = self.expected.get(k)
        if "error" in reply or reply.get("output") != want:
            self.failed += 1
            got = reply.get("error", reply.get("output"))
            print(f"FAILED {self.workload} {k}: got {got!r}, expected {want!r}",
                  file=sys.stderr)
        times.setdefault(k, []).append(reply["s"])


def run_untraced(workload: str, seed: int, seconds: float, ledger: Ledger) -> dict:
    order = items(workload, seed)
    probe(workload)  # warm-up, discarded
    start = time.perf_counter()
    plan = [seconds * (i + 0.5) / PROBES for i in range(PROBES)]
    setups: List[float] = []
    cur = Worker(workload, seed)
    ref = Worker(workload, seed, package="jrl_frozen")
    frozen = Ledger(workload + " (frozen copy)", ledger.expected)
    try:
        times: Dict[str, List[float]] = {}
        ref_times: Dict[str, List[float]] = {}
        crossovers: Dict[str, List[float]] = {}
        visits = 0

        cpus = sorted(os.sched_getaffinity(0))[:2]
        if len(cpus) < 2:
            cpus = [None, None]

        def fits(k: str) -> bool:
            # every item gets one visit; after that, only what should end in time
            return (visits < len(order) or time.perf_counter() - start
                    + 2 * max(times[k][-1], ref_times[k][-1]) <= seconds)

        while True:
            if len(setups) < PROBES and time.perf_counter() - start >= plan[len(setups)]:
                setups.append(probe(workload))
            item = order[visits % len(order)]
            k = key(item)
            if not fits(k):
                break
            visit_start = time.perf_counter()
            for rep in range(VISIT_REPEATS):
                # Both sides run the item at the same moment, one per CPU,
                # and swap CPUs on every repeat, so neither the host's drift
                # nor a difference between the two CPUs favours a side.
                cur.pin(cpus[rep % 2])
                ref.pin(cpus[1 - rep % 2])
                cur.send(item=item)
                ref.send(item=item)
                ledger.record(cur.read(), times)
                frozen.record(ref.read(), ref_times)
                if rep % 2:
                    # one crossover: the geometric mean of its two pair ratios
                    crossovers.setdefault(k, []).append(math.sqrt(
                        times[k][-1] / ref_times[k][-1]
                        * times[k][-2] / ref_times[k][-2]))
                    if time.perf_counter() - visit_start >= VISIT_SECONDS:
                        break
            visits += 1
        while len(setups) < PROBES:
            setups.append(probe(workload))
        done = cur.finish()
        ref.finish()
    finally:
        cur.kill()
        ref.kill()
    if frozen.failed:
        raise SystemExit("the frozen copy gave outputs that differ from expected.json")
    names = sorted(times)
    item_s = [median(times[k]) for k in names]
    ref_s = [median(ref_times[k]) for k in names]
    # the checkout's item times as the frozen times scaled by paired ratios
    paired_s = [median(crossovers[k]) * r for k, r in zip(names, ref_s)]
    t, t_ref, t_paired = tail(item_s), tail(ref_s), tail(paired_s)
    if t is None:
        # Fewer than eleven items have no percentile with ten beyond it;
        # the slowest item stands in so every workload reports the metric.
        t, t_ref, t_paired = ((max(v), 100.0, len(v)) for v in (item_s, ref_s, paired_s))
    wall, wall_ref = sum(item_s), sum(ref_s)
    p50, p50_ref = median(item_s), median(ref_s)
    return {
        "metrics": {
            "wall_ratio": (sum(paired_s) / wall_ref, "ratio"),
            "setup_s": (median(setups), "s"),
            "peak_rss_mb": (done["rss_mb"], "MB"),
            "item_ms_p50_ratio": (median(paired_s) / p50_ref, "ratio"),
            "item_ms_tail_ratio": (t_paired[0] / t_ref[0], "ratio"),
        },
        "raw": {
            "wall_s": (wall, "s"), "frozen_wall_s": (wall_ref, "s"),
            "item_ms_p50": (p50 * 1e3, "ms"), "frozen_item_ms_p50": (p50_ref * 1e3, "ms"),
            "item_ms_tail": (t[0] * 1e3, "ms"), "frozen_item_ms_tail": (t_ref[0] * 1e3, "ms"),
        },
        "info": {"passes": visits / len(order), "items": len(order),
                 "item_ms_tail_percentile": round(t[1], 1), "item_samples": t[2],
                 "setup_probes": len(setups),
                 "numpy": cur.ready["numpy"], "python": cur.ready["python"]},
    }


def run_traced(workload: str, seed: int, seconds: float, ledger: Ledger) -> dict:
    import tracer as tr
    order = items(workload, seed)
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_out = os.path.join(OUT_DIR, f"trace-{workload}-{seed}.jsonl")
    start = time.perf_counter()
    worker = Worker(workload, seed, trace_out=trace_out)
    try:
        plain: Dict[str, List[float]] = {}
        traced: Dict[str, List[float]] = {}
        layers: Dict[str, List[Dict[str, float]]] = {}
        i = 0
        while True:
            now = time.perf_counter() - start
            item = order[i % len(order)]
            k = key(item)
            if i >= len(order) and now + plain[k][-1] + traced[k][-1] > seconds:
                break
            # Untraced first, so the traced run sees the caches warm, as
            # every later pass does.
            ledger.record(worker.request(item=item), plain)
            reply = worker.request(item=item, traced=True, tag=f"{i // len(order)}:{k}")
            ledger.record(reply, traced)
            if "layers" in reply:
                layers.setdefault(k, []).append(reply["layers"])
            i += 1
        done = worker.finish()
    finally:
        worker.kill()
    totals: Dict[str, float] = dict(worker.ready["setup_layers"] or {})
    for runs in layers.values():
        for metric in runs[0]:
            totals[metric] = totals.get(metric, 0) + median([r[metric] for r in runs])
    totals = tr.derive(totals)
    totals[tr.OVERHEAD_METRIC] = sum(median(traced[k]) - median(plain[k]) for k in plain)
    absent = worker.ready["absent"]
    metrics = {}
    for m in tr.metric_names():
        if m in totals:
            unit = tr.metric_unit(m)
            metrics[m] = (int(totals[m]) if unit == "count" else totals[m], unit)
    return {"metrics": metrics,
            "info": {"passes": i / len(order), "items": len(order), "absent_hooks": absent,
                     "spans_file": os.path.relpath(trace_out, ROOT),
                     "rss_mb": done["rss_mb"], "numpy": worker.ready["numpy"],
                     "python": worker.ready["python"]}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "jrl", "__init__.py")):
        print(f"error: no jrl sources under {SRC}", file=sys.stderr)
        return 2
    if source_hash(os.path.join(FROZEN, "jrl_frozen")) != FROZEN_SHA256:
        print("error: perfbench/frozen/jrl_frozen changed; it must stay as frozen",
              file=sys.stderr)
        return 2
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)[args.workload]

    ledger = Ledger(args.workload, expected)
    run = run_traced if args.trace else run_untraced
    result = run(args.workload, args.seed, args.seconds, ledger)

    info = dict(result["info"], workload=args.workload, seed=args.seed,
                nproc=os.cpu_count(), commit=commit(),
                src_sha256=source_hash(os.path.join(SRC, "jrl")))
    print("env: " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in {**result.get("raw", {}), **result["metrics"]}.items():
        print(f"{name} = {value:.6g} {unit}")
    if result["info"].get("absent_hooks"):
        print("absent hooks: " + ", ".join(result["info"]["absent_hooks"]))
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
