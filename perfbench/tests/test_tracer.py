import importlib

import tracer
from tracer import HOOKS, Hook, Tracer, absent_hooks, metric_names


def test_every_hook_resolves():
    importlib.import_module("jrl")
    assert absent_hooks() == []


def test_benchmark_lists_every_tracer_metric():
    import json
    import os
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [m["name"] for m in bench["per_layer"]] == metric_names()


def test_missing_target_is_absent_not_zero(monkeypatch):
    ghost = Hook("nilpotency.no_such_walk", "jrl.nilpotency", "no_such_walk", ("ms", "calls"))
    monkeypatch.setattr(tracer, "HOOKS", HOOKS + (ghost,))
    t = Tracer()
    t.install()
    try:
        from jrl.groupring import GroupRing
        from jrl.groups import builtin_group
        from jrl.nilpotency import minimal_jordan_index, spanning_set
        from jrl.rings import builtin_ring
        minimal_jordan_index(spanning_set(GroupRing(builtin_ring("Z2"), builtin_group("C2"))))
    finally:
        t.uninstall()
    assert t.absent == ["nilpotency.no_such_walk"]
    metrics = t.layer_metrics()
    assert "nilpotency.no_such_walk.ms" not in metrics
    assert "nilpotency.no_such_walk.calls" not in metrics
    assert metrics["nilpotency.minimal_jordan_index.calls"] == 1


def test_hooks_reach_from_imports_and_uninstall_restores():
    # jrl.classify the attribute is the function; the module is in sys.modules
    classify_mod = importlib.import_module("jrl.classify")
    harness = importlib.import_module("jrl.harness")
    original = classify_mod.classify
    t = Tracer(item="Z2[C2]")
    t.install()
    try:
        assert harness.classify is not original
        assert harness.classify is classify_mod.classify
        entry = harness.CatalogEntry("builtin:Z2", "builtin:C2")
        (rec,) = harness.crosscheck([entry])
    finally:
        t.uninstall()
    assert harness.classify is original and classify_mod.classify is original
    assert rec.status == "Agree"
    top = t.names.index("harness.crosscheck")
    child = t.names.index("classify.classify")
    assert t.parents[child] == top and t.parents[top] == -1
    assert set(t.items) == {"Z2[C2]"}
    metrics = t.layer_metrics()
    assert metrics["nilpotency.ring_conditions.calls"] == 1
    assert metrics["harness.crosscheck.self_ms"] > 0
