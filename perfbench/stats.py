"""Summary statistics shared by the runner, the tracer and the steadiness
command.  Standard library only."""

from __future__ import annotations

import statistics
from typing import List, Optional, Sequence, Tuple

TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def tail(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(value, percentile, sample_count)``, or None when fewer than
    eleven samples leave no value with ten beyond it.
    """
    n = len(values)
    if n < TAIL_BEYOND + 1:
        return None
    ordered = sorted(values)
    k = n - TAIL_BEYOND - 1  # exactly TAIL_BEYOND samples lie above index k
    return float(ordered[k]), 100.0 * (k + 1) / n, n


def self_times(spans: Sequence[Tuple[float, float, int]]) -> List[float]:
    """Self time of each span: its duration minus the part of its interval
    that its child spans cover.

    ``spans`` holds ``(start, end, parent)`` with ``parent`` the index of
    the enclosing span or -1.  Children of one span never overlap, since
    the pass runs on one thread, so their durations add up.
    """
    own = [end - start for start, end, _ in spans]
    for start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def outermost(names: Sequence[str], parents: Sequence[int]) -> List[bool]:
    """Per span, whether no ancestor carries the same name, so that a
    layer's total time counts a recursive or re-entrant call once."""
    out = []
    for i, name in enumerate(names):
        p = parents[i]
        while p >= 0 and names[p] != name:
            p = parents[p]
        out.append(p < 0)
    return out
