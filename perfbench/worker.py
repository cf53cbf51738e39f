"""Pass process: runs one workload's items on request, one at a time.

Started by ``run.py`` with a pinned environment.  It imports jrl from the
checkout's ``src``, or the frozen copy with ``--package jrl_frozen``, and
refuses any other copy.  It builds the workload's built-in rings and
groups, then answers one JSON request per line on stdin with one JSON
reply per line.  A request names an item and whether
to trace it; the reply carries the item's time, its output for the
expected-value check, and, when traced, its per-layer totals.

The protocol uses a private copy of stdout; fd 1 itself is pointed at
stderr so that nothing jrl prints can corrupt a reply.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import sys
import time
import traceback

from workloads import (CATALOG_MAX_INDEX, EXHAUSTIVE_DEGREES, ORACLE_MAX_INDEX,
                       Item, structures)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Where each package may come from: the checkout's sources, or the frozen
# copy that paired runs are measured against (see frozen/README.md).
PACKAGES = {
    "jrl": os.path.join(ROOT, "src", "jrl"),
    "jrl_frozen": os.path.join(ROOT, "perfbench", "frozen", "jrl_frozen"),
}


def import_package(package: str):
    """Import the package and check that it is this checkout's copy."""
    mod = importlib.import_module(package)
    expected = os.path.realpath(os.path.join(PACKAGES[package], "__init__.py"))
    found = os.path.realpath(mod.__file__ or "")
    if found != expected:
        raise SystemExit(f"{package} resolved to {found}, expected {expected}")
    return mod


def _mod(package: str, name: str):
    return importlib.import_module(f"{package}.{name}")


def build_structures(package: str, workload: str) -> None:
    rings, groups = structures(workload)
    for name in rings:
        _mod(package, "rings").builtin_ring(name)
    for name in groups:
        _mod(package, "groups").builtin_group(name)


def _context(package: str, item: Item):
    return _mod(package, "groupring").GroupRing(
        _mod(package, "rings").builtin_ring(item[0]),
        _mod(package, "groups").builtin_group(item[1]))


def run_catalog(package: str, item: Item, seed: int):
    harness = _mod(package, "harness")
    entry = harness.CatalogEntry(harness.BUILTIN_PREFIX + item[0],
                                 harness.BUILTIN_PREFIX + item[1])
    (rec,) = harness.crosscheck([entry], max_n=CATALOG_MAX_INDEX)
    return [rec.predicted.index, rec.predicted.clause, rec.oracle, rec.status]


def run_deep_search(package: str, item: Item, seed: int):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = _mod(package, "cli").main(
            ["oracle", "--ring", "builtin:" + item[0], "--group",
             "builtin:" + item[1], "--max-index", str(ORACLE_MAX_INDEX)])
    lines = [line for line in buf.getvalue().splitlines() if line.strip()]
    return [code, lines[-1] if lines else ""]


def run_exhaustive(package: str, item: Item, seed: int):
    nil = _mod(package, "nilpotency")
    rg = _context(package, item)
    span = nil.spanning_set(rg)
    out = []
    for n in EXHAUSTIVE_DEGREES:
        full = nil.exhaustive_check(rg, n)
        search = nil.vanishes_left_normed(span, n)
        if full != bool(search):
            raise AssertionError(f"degree {n}: exhaustive {full} != search {bool(search)}")
        out.append([bool(full), list(search.indices) if search.indices else None])
    return out


def run_identities(package: str, item: Item, seed: int):
    checks = _mod(package, "identities").run_identity_suite(_context(package, item), seed=seed)
    return [[c.name, c.mode, c.tuples, c.failures == 0] for c in checks]


RUNNERS = {
    "catalog": run_catalog,
    "deep_search": run_deep_search,
    "exhaustive": run_exhaustive,
    "identities": run_identities,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--package", default="jrl", choices=sorted(PACKAGES))
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)

    proto = os.fdopen(os.dup(1), "w", buffering=1, encoding="utf-8")
    os.dup2(2, 1)
    sys.stdout = sys.stderr

    pkg = import_package(args.package)
    import numpy
    tracer = None
    if args.trace_out:
        from tracer import Tracer
        tracer = Tracer(item="setup")
        tracer.install()
    build_structures(args.package, args.workload)
    setup = tracer.layer_metrics() if tracer else None
    if tracer:
        tracer.uninstall()
    # Objects from set-up leave the collector's view, and a collection runs
    # after each item, outside its time: a reference cycle left by one item
    # (GroupRing <-> TableContext) then cannot carry its tables into the
    # next item's peak memory, and collections stay cheap.
    gc.collect()
    gc.freeze()
    proto.write(json.dumps({
        "ready": True, "version": pkg.__version__, "numpy": numpy.__version__,
        "python": sys.version.split()[0],
        "absent": tracer.absent if tracer else [], "setup_layers": setup}) + "\n")

    runner = RUNNERS[args.workload]
    for line in sys.stdin:
        req = json.loads(line)
        if req.get("finish"):
            break
        item = tuple(req["item"])
        traced = bool(req.get("traced")) and tracer is not None
        reply = {"item": req["item"]}
        if traced:
            tracer.item = req["tag"]
            lo = len(tracer.names)
            tracer.install()
        start = time.perf_counter()
        try:
            reply["output"] = runner(args.package, item, args.seed)
        except Exception as exc:  # a failed item is reported, not fatal
            reply["error"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        reply["s"] = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            reply["layers"] = tracer.layer_metrics(lo)
        gc.collect()
        proto.write(json.dumps(reply) + "\n")

    if tracer:
        tracer.dump(args.trace_out)
    usage = resource.getrusage(resource.RUSAGE_SELF)
    proto.write(json.dumps({"done": True, "rss_mb": usage.ru_maxrss / 1024.0}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
