"""The benchmark's four workloads as plain data.

Each item is a (ring, group) pair of built-in names.  The runner permutes
the items with the run's seed; the pass process turns each item into a
call on one of jrl's public entry points (see ``worker.py``).  Nothing
here imports jrl, so the runner never loads the program it measures.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

Item = Tuple[str, str]

RINGS = ("Z2", "Z4", "Z8", "Z16", "M2F2", "T2F2", "T2Z4", "H16", "H32")
GROUPS = ("C1", "C2", "C4", "C8", "C2xC2", "D4", "Q8", "S3", "D4xD4")

# The 81 default-catalog pairs minus the five non-Z rings over D4xD4,
# which the crosscheck at this benchmark's first commit skips for budget.
# Fixing the list keeps the work the same if a later change searches them.
CATALOG: List[Item] = [
    (r, g) for r in RINGS for g in GROUPS
    if not (g == "D4xD4" and not r.startswith("Z"))
]

# The largest oracle searches: 256 and 192 spanning monomials over D4xD4.
DEEP_SEARCH: List[Item] = [("M2F2", "D4xD4"), ("H32", "D4xD4"), ("T2F2", "D4xD4")]

# Every context of at most 1024 elements, plus two of 4096 elements, whose
# full circle tables dominate the pass.
EXHAUSTIVE: List[Item] = [
    ("Z2", "C1"), ("Z2", "C2"), ("Z2", "C4"), ("Z2", "C8"), ("Z2", "C2xC2"),
    ("Z2", "D4"), ("Z2", "Q8"), ("Z2", "S3"),
    ("Z4", "C1"), ("Z4", "C2"), ("Z4", "C4"), ("Z4", "C2xC2"),
    ("Z8", "C1"), ("Z8", "C2"), ("Z16", "C1"), ("Z16", "C2"),
    ("M2F2", "C1"), ("M2F2", "C2"), ("T2F2", "C1"), ("T2F2", "C2"),
    ("T2Z4", "C1"), ("H16", "C1"), ("H16", "C2"), ("H32", "C1"), ("H32", "C2"),
    ("T2Z4", "C2"), ("Z8", "C4"),
]
EXHAUSTIVE_DEGREES = (2, 3, 4)

# Mod fold (Z8), xor fold (Z2), the generic rows_mul path (M2F2, T2Z4),
# and both the exhaustive and the sampled tiers of the suite.
IDENTITIES: List[Item] = [("Z8", "C2"), ("Z2", "D4"), ("M2F2", "D4xD4"), ("T2Z4", "D4xD4")]

WORKLOADS: Dict[str, List[Item]] = {
    "catalog": CATALOG,
    "deep_search": DEEP_SEARCH,
    "exhaustive": EXHAUSTIVE,
    "identities": IDENTITIES,
}

CATALOG_MAX_INDEX = 4
ORACLE_MAX_INDEX = 4


def key(item: Item) -> str:
    return f"{item[0]}[{item[1]}]"


def items(workload: str, seed: int) -> List[Item]:
    """The workload's items in the order the seed gives them."""
    out = list(WORKLOADS[workload])
    random.Random(seed).shuffle(out)
    return out


def structures(workload: str) -> Tuple[List[str], List[str]]:
    """Built-in ring and group names the workload uses, in catalog order."""
    pairs = WORKLOADS[workload]
    rings = [r for r in RINGS if any(p[0] == r for p in pairs)]
    groups = [g for g in GROUPS if any(p[1] == g for p in pairs)]
    return rings, groups
