"""Catalog resolution and the classifier-vs-oracle cross-check."""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

from .classify import ClassificationResult, classify
from .errors import AlgebraError
from .fileio import parse_group_file, parse_ring_file
from .groups import BUILTIN_GROUP_NAMES, FiniteGroup, builtin_group
from .nilpotency import minimal_jordan_index, spanning_set
from .groupring import GroupRing
from .rings import BUILTIN_RING_NAMES, FiniteRing, builtin_ring

BUILTIN_PREFIX = "builtin:"


@dataclass(frozen=True)
class CatalogEntry:
    ring_name: str
    group_name: str


@dataclass(frozen=True)
class CrossCheckRecord:
    """One pair's verdicts and times.  classify keeps each ring's and each
    group's facts on the structure, so the first pair on a ring carries the
    cost of that ring's conditions in classify_ms, and later pairs on it
    read them back."""

    entry: CatalogEntry
    predicted: ClassificationResult
    oracle: Optional[int]          # minimal index, None when past the bound
    status: str                    # Agree | Disagree
    elapsed_ms: float = field(compare=False)   # classify_ms + search_ms
    classify_ms: float = field(default=0.0, compare=False)
    search_ms: float = field(default=0.0, compare=False)


def resolve_ring(name: str) -> FiniteRing:
    """``builtin:<name>`` picks a built-in, anything else is a file path."""
    if name.startswith(BUILTIN_PREFIX):
        return builtin_ring(name[len(BUILTIN_PREFIX):])
    return parse_ring_file(name)


def resolve_group(name: str) -> FiniteGroup:
    if name.startswith(BUILTIN_PREFIX):
        return builtin_group(name[len(BUILTIN_PREFIX):])
    return parse_group_file(name)


def default_catalog() -> List[CatalogEntry]:
    return [CatalogEntry(BUILTIN_PREFIX + r, BUILTIN_PREFIX + g)
            for r in BUILTIN_RING_NAMES for g in BUILTIN_GROUP_NAMES]


def catalog_from_dir(path: Union[str, os.PathLike]) -> List[CatalogEntry]:
    """All .ring x .group file pairs under one directory, sorted by name."""
    rings = sorted(f for f in os.listdir(path) if f.endswith(".ring"))
    groups = sorted(f for f in os.listdir(path) if f.endswith(".group"))
    return [CatalogEntry(os.path.join(path, r), os.path.join(path, g))
            for r in rings for g in groups]


def _agrees(predicted: ClassificationResult, oracle: Optional[int]) -> bool:
    if predicted.index is not None:
        return oracle == predicted.index
    return oracle is None or oracle > 4


def crosscheck(entries: Sequence[CatalogEntry], max_n: int = 4,
               on_error: Optional[Callable[[CatalogEntry, Exception], None]] = None,
               ) -> List[CrossCheckRecord]:
    """Run classify and the search oracle on every entry and compare.

    Records come back in input order.  An entry that fails to resolve is
    dropped after reporting through on_error; every other pair is searched.
    """
    records: List[CrossCheckRecord] = []
    for entry in entries:
        try:
            ring = resolve_ring(entry.ring_name)
            group = resolve_group(entry.group_name)
        except (AlgebraError, OSError) as exc:
            if on_error is None:
                raise
            on_error(entry, exc)
            continue
        start = time.perf_counter()
        predicted = classify(ring, group)
        classified = time.perf_counter()
        oracle = minimal_jordan_index(spanning_set(GroupRing(ring, group)), max_n=max_n)
        searched = time.perf_counter()
        classify_ms = (classified - start) * 1000.0
        search_ms = (searched - classified) * 1000.0
        status = "Agree" if _agrees(predicted, oracle) else "Disagree"
        records.append(CrossCheckRecord(entry, predicted, oracle, status,
                                        classify_ms + search_ms, classify_ms, search_ms))
    return records


REPORT_HEADER = "ring\tgroup\tpredicted\tclause\toracle\tstatus\tms"


def report_lines(records: Sequence[CrossCheckRecord]) -> List[str]:
    lines = [REPORT_HEADER]
    for rec in records:
        predicted = ("none<=4" if rec.predicted.index is None
                     else str(rec.predicted.index))
        clause = rec.predicted.clause or "-"
        oracle = str(rec.oracle) if rec.oracle is not None else "none<=bound"
        lines.append("\t".join([
            rec.entry.ring_name.removeprefix(BUILTIN_PREFIX),
            rec.entry.group_name.removeprefix(BUILTIN_PREFIX),
            predicted, clause, oracle, rec.status,
            f"{rec.elapsed_ms:.1f}",
        ]))
    return lines


def emit_report(records: Sequence[CrossCheckRecord],
                path: Union[str, os.PathLike]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(report_lines(records)) + "\n")


def has_disagreement(records: Sequence[CrossCheckRecord]) -> bool:
    return any(rec.status == "Disagree" for rec in records)
