"""Spans around jrl's layer functions, recorded from outside the package.

A hook replaces one function (or one method on a class) with a wrapper
that records a span: name, start, end, parent span and item id.  Every
module of the package that holds the same function object gets the
wrapper, so calls through ``from .x import f`` bindings are seen too.
Spans stay in memory and are written out when the run ends.

A hook whose target does not exist is reported as absent, with its
metrics left out; it is never read as zero work.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from stats import outermost, self_times


def _rows(arr) -> int:
    return int(arr.shape[0])


# Counters: each maps (args, kwargs, result) to {counter: value} for one call.
def _unique_counts(args, kwargs, result):
    rows_in = _rows(args[0])
    rows_out = int(len(result[1]))
    return {"rows_in": rows_in, "rows_out": rows_out}


def _candidate_counts(args, kwargs, result):
    return {"cells": int(result.size)}


def _zero_mask_counts(args, kwargs, result):
    return {"zeros": int(result.sum())}


def _next_level_counts(args, kwargs, result):
    V, pairs = args[1], args[3]
    return {"partials_in": _rows(V), "candidates": _rows(V) * len(pairs),
            "survivors": _rows(result[0])}


def _scan_counts(args, kwargs, result):
    return {"rows": _rows(args[1])}


def _rows_add_counts(args, kwargs, result):
    return {"cells": int(result.size)}


def _suite_counts(args, kwargs, result):
    return {"tuples": sum(c.tuples for c in result),
            "sampled_checks": sum(1 for c in result if c.mode == "sampled")}


@dataclass(frozen=True)
class Hook:
    """One layer boundary.

    ``name`` is the metric prefix, ``module`` and ``attr`` locate the
    target (``attr`` may be ``Class.method``), ``metrics`` lists the
    suffixes reported, and ``counter`` derives per-call counts.
    """

    name: str
    module: str
    attr: str
    metrics: Tuple[str, ...]
    counter: Optional[Callable] = None


HOOKS: Tuple[Hook, ...] = (
    Hook("rings.FiniteRing", "jrl.rings", "FiniteRing.__init__", ("ms", "calls")),
    Hook("groups.FiniteGroup", "jrl.groups", "FiniteGroup.__init__", ("ms", "calls")),
    Hook("classify.classify", "jrl.classify", "classify", ("ms", "self_ms")),
    Hook("nilpotency.ring_conditions", "jrl.nilpotency", "ring_conditions", ("ms", "calls")),
    Hook("groups.derived_subgroup", "jrl.groups", "derived_subgroup", ("ms",)),
    Hook("engine.table_context", "jrl._engine", "table_context", ("ms", "calls")),
    Hook("nilpotency.spanning_set", "jrl.nilpotency", "spanning_set", ("ms",)),
    Hook("harness.crosscheck", "jrl.harness", "crosscheck", ("self_ms",)),
    Hook("engine.unique_rows_keep_first", "jrl._engine", "unique_rows_keep_first",
         ("ms", "rows_in", "rows_out", "merged", "keep_ratio"), _unique_counts),
    Hook("engine.candidate_block", "jrl._engine", "candidate_block",
         ("ms", "cells"), _candidate_counts),
    Hook("engine.TableContext.zero_row_mask", "jrl._engine", "TableContext.zero_row_mask",
         ("ms", "zeros"), _zero_mask_counts),
    Hook("nilpotency._next_level", "jrl.nilpotency", "_next_level",
         ("ms", "self_ms", "calls", "partials_in", "candidates", "survivors"),
         _next_level_counts),
    Hook("nilpotency.minimal_jordan_index", "jrl.nilpotency", "minimal_jordan_index",
         ("ms", "calls")),
    Hook("nilpotency.vanishes_left_normed", "jrl.nilpotency", "vanishes_left_normed",
         ("ms", "calls")),
    Hook("cli.main", "jrl.cli", "main", ("self_ms",)),
    Hook("engine.scan_final_level", "jrl._engine", "scan_final_level",
         ("ms", "rows"), _scan_counts),
    Hook("nilpotency._full_circle_table", "jrl.nilpotency", "_full_circle_table", ("ms",)),
    Hook("engine.product_with_row", "jrl._engine", "product_with_row", ("ms", "calls")),
    Hook("nilpotency.exhaustive_check", "jrl.nilpotency", "exhaustive_check", ("self_ms",)),
    Hook("engine.rows_mul", "jrl._engine", "rows_mul",
         ("ms", "calls", "fold_calls", "generic_calls")),
    # Marks the native-fold path inside rows_mul; reports nothing itself.
    Hook("engine._rows_mul_fold", "jrl._engine", "_rows_mul_fold", ()),
    Hook("engine.rows_add", "jrl._engine", "rows_add", ("ms", "cells"), _rows_add_counts),
    Hook("engine.rows_neg", "jrl._engine", "rows_neg", ("ms",)),
    Hook("identities.run_identity_suite", "jrl.identities", "run_identity_suite",
         ("self_ms", "tuples", "sampled_checks"), _suite_counts),
)

# Metrics that need a second hook besides their own.
_NEEDS = {"engine.rows_mul.fold_calls": "engine._rows_mul_fold",
          "engine.rows_mul.generic_calls": "engine._rows_mul_fold"}

OVERHEAD_METRIC = "trace.overhead_s"
_UNIQUE = "engine.unique_rows_keep_first"


def derive(totals: Dict[str, float]) -> Dict[str, float]:
    """Fill in the metrics that are not sums over calls."""
    out = dict(totals)
    if _UNIQUE + ".rows_in" in out:
        rows_in, rows_out = out[_UNIQUE + ".rows_in"], out[_UNIQUE + ".rows_out"]
        out[_UNIQUE + ".merged"] = rows_in - rows_out
        out[_UNIQUE + ".keep_ratio"] = rows_out / rows_in if rows_in else 0.0
    return out


def metric_unit(metric: str) -> str:
    suffix = metric.rsplit(".", 1)[1]
    if suffix in ("ms", "self_ms"):
        return "ms"
    if suffix == "overhead_s":
        return "s"
    if suffix == "keep_ratio":
        return "ratio"
    return "count"


def metric_names() -> List[str]:
    """Every per-layer metric the tracer can report, in table order."""
    return [f"{h.name}.{m}" for h in HOOKS for m in h.metrics] + [OVERHEAD_METRIC]


def _resolve(hook: Hook) -> Optional[Tuple[Any, str, Any]]:
    """(owner, attribute, original) for a hook, or None when absent."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return None
    *path, last = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(last) if isinstance(owner, type) else getattr(owner, last, None)
    if original is None or not callable(original):
        return None
    return owner, last, original


def absent_hooks() -> List[str]:
    return [h.name for h in HOOKS if _resolve(h) is None]


@dataclass
class Tracer:
    """In-memory span store with install/uninstall of the hooks."""

    names: List[str] = field(default_factory=list)
    starts: List[float] = field(default_factory=list)
    ends: List[float] = field(default_factory=list)
    parents: List[int] = field(default_factory=list)
    items: List[str] = field(default_factory=list)
    counts: List[Optional[Dict[str, int]]] = field(default_factory=list)
    absent: List[str] = field(default_factory=list)
    item: str = ""
    _stack: List[int] = field(default_factory=list)
    _patches: List[Tuple[Any, str, Any]] = field(default_factory=list)

    def _wrap(self, hook: Hook, original: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            idx = len(tracer.names)
            tracer.names.append(hook.name)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer.parents.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.items.append(tracer.item)
            tracer.counts.append(None)
            tracer._stack.append(idx)
            tracer.starts[idx] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.ends[idx] = time.perf_counter()
                tracer._stack.pop()
            if hook.counter is not None:
                tracer.counts[idx] = hook.counter(args, kwargs, result)
            return result

        traced.__wrapped__ = original
        return traced

    def install(self) -> None:
        """Patch every hook that resolves; record the rest as absent."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "jrl" or name.startswith("jrl."))]
        for hook in HOOKS:
            found = _resolve(hook)
            if found is None:
                self.absent.append(hook.name)
                continue
            owner, last, original = found
            wrapper = self._wrap(hook, original)
            if isinstance(owner, type):
                self._patches.append((owner, last, original))
                setattr(owner, last, wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def layer_metrics(self, lo: int = 0, hi: Optional[int] = None) -> Dict[str, float]:
        """Per-layer totals over spans ``lo:hi`` (one item's spans).

        ``ms`` counts each layer's outermost spans once; ``self_ms`` is the
        sum of its spans' self times.  Metrics of absent hooks are left out;
        ratios are filled in by ``derive`` once totals are summed.
        """
        hi = len(self.names) if hi is None else hi
        names = self.names[lo:hi]
        parents = [p - lo if p >= lo else -1 for p in self.parents[lo:hi]]
        spans = list(zip(self.starts[lo:hi], self.ends[lo:hi], parents))
        own = self_times(spans)
        top = outermost(names, parents)
        total: Dict[str, float] = {}
        for i, name in enumerate(names):
            start, end, _ = spans[i]
            if top[i]:
                total[name + ".ms"] = total.get(name + ".ms", 0.0) + (end - start) * 1e3
            total[name + ".self_ms"] = total.get(name + ".self_ms", 0.0) + own[i] * 1e3
            total[name + ".calls"] = total.get(name + ".calls", 0) + 1
            for counter, value in (self.counts[lo + i] or {}).items():
                total[f"{name}.{counter}"] = total.get(f"{name}.{counter}", 0) + value
        # a rows_mul call took the fold path when a fold span sits under it
        folded = {parents[i] for i, name in enumerate(names)
                  if name == "engine._rows_mul_fold" and parents[i] >= 0
                  and names[parents[i]] == "engine.rows_mul"}
        out: Dict[str, float] = {}
        for hook in HOOKS:
            if hook.name in self.absent:
                continue
            for m in hook.metrics:
                metric = f"{hook.name}.{m}"
                if _NEEDS.get(metric) in self.absent:
                    continue
                out[metric] = total.get(metric, 0)
        if "engine.rows_mul.fold_calls" in out:
            out["engine.rows_mul.fold_calls"] = len(folded)
            out["engine.rows_mul.generic_calls"] = (
                out["engine.rows_mul.calls"] - len(folded))
        return out

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "name": name, "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i], "item": self.items[i],
                    "counts": self.counts[i]}) + "\n")
