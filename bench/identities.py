"""Time run_identity_suite in-process, for one or more copies of jrl.

    python bench/identities.py parent=/path/to/old/src change=src [--repeats 3]

Each LABEL=SRC names a copy of the package.  Every repeat runs each copy in
its own fresh process, pinned to one CPU with MALLOC_MMAP_THRESHOLD_=131072
(the benchmark's allocator setting), alternating which copy goes first.  A
process times the suite on the four `identities` workload items and on all
81 built-in (ring, group) contexts (criterion 2 of tests/test_acceptance.py),
building each GroupRing outside the timer.  The medians over the repeats go
into BENCH_identities.json at the repository root, under each label, with
the machine's nproc, Python and numpy; labels already in the file are kept.
"""

import json, os, platform, subprocess, sys, time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ITEMS = [("Z8", "C2"), ("Z2", "D4"), ("M2F2", "D4xD4"), ("T2Z4", "D4xD4")]


def measure(src):
    """One repeat in this process: ms per item, and s for the 81 contexts."""
    sys.path.insert(0, src)
    from jrl.groupring import GroupRing
    from jrl.groups import BUILTIN_GROUP_NAMES, builtin_group
    from jrl.identities import run_identity_suite
    from jrl.rings import BUILTIN_RING_NAMES, builtin_ring

    def timed(r, g):
        rg = GroupRing(builtin_ring(r), builtin_group(g))
        start = time.perf_counter()
        run_identity_suite(rg)
        return time.perf_counter() - start
    items = {f"{r}[{g}]": timed(r, g) * 1e3 for r, g in ITEMS}
    total = sum(timed(r, g) for r in BUILTIN_RING_NAMES for g in BUILTIN_GROUP_NAMES)
    return {"items_ms": items, "criterion2_s": total}


def main(argv):
    repeats = int(argv[argv.index("--repeats") + 1]) if "--repeats" in argv else 3
    copies = [a.split("=", 1) for a in argv if "=" in a]
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072", PYTHONHASHSEED="0")
    cpu = max(os.sched_getaffinity(0))
    runs = {label: [] for label, _ in copies}
    for rep in range(repeats):
        for label, src in copies[::-1] if rep % 2 else copies:
            out = subprocess.run([sys.executable, __file__, "--one", str(cpu), os.path.abspath(src)],
                                 env=env, check=True, capture_output=True, text=True).stdout
            runs[label].append(json.loads(out))
    path = os.path.join(ROOT, "BENCH_identities.json")
    doc = json.load(open(path)) if os.path.exists(path) else {}
    import numpy
    doc["machine"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                      "numpy": numpy.__version__, "pinned_cpu": cpu}
    for label, rs in runs.items():
        doc.setdefault("runs", {})[label] = {
            "repeats": len(rs),
            "items_ms": {k: round(median(r["items_ms"][k] for r in rs), 1)
                         for k in rs[0]["items_ms"]},
            "criterion2_s": round(median(r["criterion2_s"] for r in rs), 3),
            "criterion2_s_all": [round(r["criterion2_s"], 3) for r in rs]}
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    print(json.dumps(doc["runs"], indent=1))


if __name__ == "__main__":
    if sys.argv[1] == "--one":
        os.sched_setaffinity(0, {int(sys.argv[2])})
        print(json.dumps(measure(sys.argv[3])))
    else:
        main(sys.argv[1:])
