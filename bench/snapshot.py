"""Time jrl in-process, end to end and layer by layer, for copies of jrl.

    python bench/snapshot.py NAME parent=/path/to/old/src change=src [--repeats 3]

Each LABEL=SRC names a copy of the package.  Every repeat runs each copy in
three fresh processes, pinned to one CPU with MALLOC_MMAP_THRESHOLD_=131072
(the benchmark's allocator setting), alternating which copy goes first.
One process times, end to end, run_identity_suite on the four `identities`
workload items, with each check's own IdentityCheck.ms (so the exhaustive
and sampled tiers show apart), and on all 81 built-in (ring, group)
contexts (criterion 2 of tests/test_acceptance.py), and the search
against exhaustive_check at degrees 2-4 on the 31 contexts of at most
4096 elements (criterion 3), building each GroupRing outside the timer.
Another times layers on a heap that no suite has used, as the history
of earlier allocations moves in-process times: the median of several
calls of table validation (FiniteGroup and FiniteRing on the built-in
tables as lists: D4xD4, T2Z4, H32, and all nine groups and nine rings
together), of ring_conditions at bound 4 on each built-in ring, cold (a
fresh FiniteRing with nothing kept on it, built outside the timer), of
rows_mul (the fold), rows_add and rows_neg on 1667 x 64
seeded rows over D4xD4, of the bound-4 search on T2Z4, H32, M2F2 and Z16
over D4xD4, of the full circle tables of T2Z4[C2], H32[C2] and Z8[C4],
each on a fresh GroupRing, and of the exhaustive level walk to degree 4
(`_exhaustive_levels(rg, 4)`) on T2Z4[C2] and Z8[C4], each on a fresh
GroupRing whose circle table is built outside the timer.
The third runs the 81-pair crosscheck (`jrl crosscheck`) once, cold, on
rings and groups that nothing has classified yet, and sums its records'
classify_ms and search_ms.
The medians over the repeats go into BENCH_<NAME>.json at the repository
root, under each label, with the machine's nproc, Python and numpy; labels
already in the file are kept.
"""

import json, os, platform, subprocess, sys, time
from statistics import median

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ITEMS = [("Z8", "C2"), ("Z2", "D4"), ("M2F2", "D4xD4"), ("T2Z4", "D4xD4")]
RINGS = ("T2Z4", "H32", "M2F2", "Z16")   # over D4xD4
TABLES = [("T2Z4", "C2"), ("H32", "C2"), ("Z8", "C4")]
LEVELS = [("T2Z4", "C2"), ("Z8", "C4")]
CRITERIA = ("criterion2_s", "criterion3_s", "classify_ms", "search_ms")


def layers():
    """ms per layer call, each the median of several calls."""
    import numpy as np
    from jrl import _engine, nilpotency
    from jrl.groupring import GroupRing
    from jrl.groups import BUILTIN_GROUP_NAMES, FiniteGroup, builtin_group
    from jrl.rings import BUILTIN_RING_NAMES, FiniteRing, builtin_ring

    def ms(call, calls, setup=tuple):
        times = []
        for _ in range(calls):
            args = setup()          # untimed
            start = time.perf_counter()
            call(*args)
            times.append((time.perf_counter() - start) * 1e3)
        return median(times)

    groups = {g: (builtin_group(g).table.tolist(), builtin_group(g).identity)
              for g in BUILTIN_GROUP_NAMES}
    rings = {r: (R.add_table.tolist(), R.mul_table.tolist(), R.zero, R.one)
             for r, R in ((r, builtin_ring(r)) for r in BUILTIN_RING_NAMES)}
    out = {"validate D4xD4": ms(lambda: FiniteGroup("G", *groups["D4xD4"]), 9)}
    for r in ("T2Z4", "H32"):
        out[f"validate {r}"] = ms(lambda: FiniteRing(r, *rings[r]), 9)
    out["validate all built-ins"] = ms(lambda: ([FiniteGroup(g, *t) for g, t in groups.items()],
                                                [FiniteRing(r, *t) for r, t in rings.items()]), 5)
    for r in BUILTIN_RING_NAMES:
        out[f"ring_conditions cold {r}"] = ms(lambda R: nilpotency.ring_conditions(R, 4), 5,
                                              lambda: (FiniteRing(r, *rings[r]),))
    for r in RINGS:
        rg = GroupRing(builtin_ring(r), builtin_group("D4xD4"))
        ctx = _engine.table_context(rg)
        rng = np.random.default_rng(0)
        A, B = (rng.integers(0, ctx.nr, size=(1667, 64)).astype(np.int16) for _ in range(2))
        out[f"fold {r}[D4xD4]"] = ms(lambda: _engine.rows_mul(ctx, A, B), 9)
        out[f"rows_add {r}[D4xD4]"] = ms(lambda: _engine.rows_add(ctx, A, B), 31)
        out[f"rows_neg {r}[D4xD4]"] = ms(lambda: _engine.rows_neg(ctx, A), 31)
    for r in RINGS:
        rg = GroupRing(builtin_ring(r), builtin_group("D4xD4"))
        S = nilpotency.spanning_set(rg)
        out[f"search4 {r}[D4xD4]"] = ms(lambda: nilpotency.minimal_jordan_index(S, 4), 5)
    for r, g in TABLES:
        out[f"circle table {r}[{g}]"] = ms(lambda: nilpotency._full_circle_table(
            GroupRing(builtin_ring(r), builtin_group(g))), 3)

    def tabled(r, g):
        rg = GroupRing(builtin_ring(r), builtin_group(g))
        nilpotency._full_circle_table(rg)
        return (rg,)
    for r, g in LEVELS:
        out[f"exhaustive levels {r}[{g}]"] = ms(lambda rg: nilpotency._exhaustive_levels(rg, 4), 5,
                                                lambda: tabled(r, g))
    return out


def suite():
    """ms per item, and s for criteria 2 and 3."""
    from jrl.groupring import GroupRing
    from jrl.groups import BUILTIN_GROUP_NAMES, builtin_group
    from jrl.identities import run_identity_suite
    from jrl.nilpotency import EXHAUSTIVE_CAP, exhaustive_check, spanning_set, vanishes_left_normed
    from jrl.rings import BUILTIN_RING_NAMES, builtin_ring

    def timed(r, g):
        rg = GroupRing(builtin_ring(r), builtin_group(g))
        start = time.perf_counter()
        checks = run_identity_suite(rg)
        return time.perf_counter() - start, {c.name: c.ms for c in checks}
    items = {f"{r}[{g}]": timed(r, g) for r, g in ITEMS}
    total = sum(timed(r, g)[0] for r in BUILTIN_RING_NAMES for g in BUILTIN_GROUP_NAMES)
    small = [rg for rg in (GroupRing(builtin_ring(r), builtin_group(g))
                           for r in BUILTIN_RING_NAMES for g in BUILTIN_GROUP_NAMES)
             if rg.size <= EXHAUSTIVE_CAP]
    start = time.perf_counter()
    for rg in small:
        S = spanning_set(rg)
        for n in (2, 3, 4):
            assert exhaustive_check(rg, n) == bool(vanishes_left_normed(S, n)), (rg.name, n)
    return {"items_ms": {k: s * 1e3 for k, (s, _) in items.items()},
            "checks_ms": {k: checks for k, (_, checks) in items.items()}, "criterion2_s": total,
            "criterion3_s": time.perf_counter() - start}


def catalog():
    """Summed classify and search ms of one crosscheck over the catalog."""
    from jrl.harness import crosscheck, default_catalog

    records = crosscheck(default_catalog())
    assert all(r.status == "Agree" for r in records)
    return {"classify_ms": sum(r.classify_ms for r in records),
            "search_ms": sum(r.search_ms for r in records)}


PARTS = {"suite": suite, "layers": lambda: {"layers_ms": layers()}, "catalog": catalog}


def main(argv):
    name, argv = argv[0], argv[1:]
    repeats = int(argv[argv.index("--repeats") + 1]) if "--repeats" in argv else 3
    copies = [a.split("=", 1) for a in argv if "=" in a]
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072", PYTHONHASHSEED="0")
    cpu = max(os.sched_getaffinity(0))
    runs = {label: [] for label, _ in copies}
    for rep in range(repeats):
        for label, src in copies[::-1] if rep % 2 else copies:
            runs[label].append({})
            for part in PARTS:
                out = subprocess.run([sys.executable, __file__, "--one", str(cpu),
                                      os.path.abspath(src), part],
                                     env=env, check=True, capture_output=True, text=True).stdout
                runs[label][-1].update(json.loads(out))
    path = os.path.join(ROOT, f"BENCH_{name}.json")
    doc = json.load(open(path)) if os.path.exists(path) else {}
    import numpy
    doc["machine"] = {"nproc": os.cpu_count(), "python": platform.python_version(),
                      "numpy": numpy.__version__, "pinned_cpu": cpu}
    for label, rs in runs.items():
        doc.setdefault("runs", {})[label] = {
            "repeats": len(rs),
            "items_ms": {k: round(median(r["items_ms"][k] for r in rs), 1)
                         for k in rs[0]["items_ms"]},
            "checks_ms": {k: {c: round(median(r["checks_ms"][k][c] for r in rs), 2)
                              for c in checks} for k, checks in rs[0]["checks_ms"].items()},
            **{k: round(median(r[k] for r in rs), 3) for k in CRITERIA},
            **{k + "_all": [round(r[k], 3) for r in rs] for k in CRITERIA},
            "layers_ms": {k: round(median(r["layers_ms"][k] for r in rs), 3)
                          for k in rs[0]["layers_ms"]}}
    with open(path, "w") as f:
        json.dump(doc, f, indent=1)
    print(json.dumps(doc["runs"], indent=1))


if __name__ == "__main__":
    if sys.argv[1] == "--one":
        os.sched_setaffinity(0, {int(sys.argv[2])})
        sys.path.insert(0, sys.argv[3])
        print(json.dumps(PARTS[sys.argv[4]]()))
    else:
        main(sys.argv[1:])
