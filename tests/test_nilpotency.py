"""Spanning-set Jordan searches pinned against literal tuple enumeration.

The reference implementations here use no pruning, no dedup and no
vectorization: they walk every index tuple in lexicographic order with
the scalar arithmetic, so they independently witness both the verdict
and the choice of first counterexample.
"""

from itertools import product

import numpy as np
import pytest

from jrl import _engine, nilpotency
from jrl.cli import main as cli_main
from jrl.errors import TooLarge
from jrl.groupring import GroupRing, circle, left_normed_jordan, left_normed_lie
from jrl.groups import builtin_group
from jrl.nilpotency import (
    EXHAUSTIVE_CAP,
    RingConditions,
    exhaustive_check,
    lie_vanishes_left_normed,
    minimal_jordan_index,
    ring_conditions,
    spanning_set,
    vanishes_left_normed,
)
from jrl.rings import BUILTIN_RING_NAMES, builtin_ring

from support_rings import scalar_plus_strict_upper_4x4_gf2


def make(ring, group):
    return GroupRing(builtin_ring(ring), builtin_group(group))


def brute_first_violation(S, n):
    """First index tuple (lex order) whose left-normed circle product is
    nonzero, by evaluating every tuple with the scalar layer."""
    for tup in product(range(len(S.pairs)), repeat=n):
        if not left_normed_jordan([S.monomials[i] for i in tup]).is_zero():
            return tup
    return None


BRUTE_CASES = [
    ("Z4", "C2", [2, 3]),
    ("Z2", "C4", [2, 3, 4]),
    ("M2F2", "C1", [2, 3, 4]),
    ("T2F2", "C2", [2, 3]),
    ("Z2", "D4", [2, 3]),
    ("Z8", "C1", [2, 3, 4]),
]


@pytest.mark.parametrize("ring,group,degrees", BRUTE_CASES)
def test_search_matches_literal_enumeration(ring, group, degrees):
    rg = make(ring, group)
    S = spanning_set(rg)
    for n in degrees:
        want = brute_first_violation(S, n)
        got = vanishes_left_normed(S, n)
        if want is None:
            assert got.vanishes and got.indices is None and got.witness is None
        else:
            assert not got.vanishes
            assert got.indices == want
            assert got.witness == tuple(S.monomials[i] for i in want)


def test_reported_witness_actually_violates():
    S = spanning_set(make("Z8", "S3"))
    res = vanishes_left_normed(S, 3)
    assert not res.vanishes
    assert not left_normed_jordan(list(res.witness)).is_zero()
    assert res.witness == tuple(S.monomials[i] for i in res.indices)


FROZEN_VIOLATIONS = [
    ("Z2", "D4", 2, (1, 4)),
    ("Z4", "C2", 2, (0, 0)),
    ("M2F2", "C2", 4, (0, 2, 0, 0)),
    ("Z8", "C4", 3, (0, 0, 0)),
]


@pytest.mark.parametrize("ring,group,n,indices", FROZEN_VIOLATIONS)
def test_frozen_first_violations(ring, group, n, indices):
    res = vanishes_left_normed(spanning_set(make(ring, group)), n)
    assert not res.vanishes
    assert res.indices == indices


ANCHOR_INDICES = [
    ("Z2", "C2", 2),
    ("Z4", "C1", 3),
    ("Z2", "D4", 3),
    ("Z8", "C4", 4),
    ("Z4", "D4", 4),
]


@pytest.mark.parametrize("ring,group,index", ANCHOR_INDICES)
def test_minimal_index_anchors(ring, group, index):
    rg = make(ring, group)
    assert minimal_jordan_index(spanning_set(rg)) == index


def test_vanishing_is_monotone_in_degree():
    for ring, group in [("Z4", "C4"), ("Z2", "Q8"), ("H16", "C2")]:
        S = spanning_set(make(ring, group))
        seen_vanish = False
        for n in range(2, 7):
            v = bool(vanishes_left_normed(S, n))
            if seen_vanish:
                assert v
            seen_vanish = seen_vanish or v


def test_minimal_index_consistent_with_vanishing():
    for ring, group in [("Z4", "D4"), ("Z8", "C2"), ("Z2", "S3")]:
        S = spanning_set(make(ring, group))
        idx = minimal_jordan_index(S, max_n=6)
        if idx is None:
            assert not vanishes_left_normed(S, 6)
        else:
            assert vanishes_left_normed(S, idx)
            assert vanishes_left_normed(S, 6).index == idx
            assert vanishes_left_normed(S, idx).index == idx
            if idx > 2:
                assert not vanishes_left_normed(S, idx - 1)


def test_m2f2_d4xd4_walk_pins(monkeypatch, capsys):
    # levels 2 and 3 are materialised; degree 4 is the early-exit scan
    frontiers = []
    step = nilpotency._next_level

    def spy(ctx, V, prefixes, pairs, op):
        out = step(ctx, V, prefixes, pairs, op)
        frontiers.append((V.shape[0], out[0].shape[0]))
        return out

    monkeypatch.setattr(nilpotency, "_next_level", spy)
    assert cli_main(["oracle", "--ring", "builtin:M2F2", "--group", "builtin:D4xD4",
                     "--max-index", "4"]) == 0
    assert frontiers == [(256, 456), (456, 678)]
    assert "degree-4 counterexample" in capsys.readouterr().out
    res = vanishes_left_normed(spanning_set(make("M2F2", "D4xD4")), 4)
    assert not res.vanishes and res.index is None
    assert res.indices == (0, 64, 0, 0)


# --- full-space oracle -------------------------------------------------------

def brute_exhaustive(rg, n):
    """Literal nested loop over all element tuples."""
    els = [rg.element(list(c))
           for c in product(range(rg.ring.order), repeat=rg.group.order)]
    return all(left_normed_jordan(list(tup)).is_zero()
               for tup in product(els, repeat=n))


def test_exhaustive_check_matches_literal_loops():
    small = [("Z4", "C1", [2, 3, 4]), ("Z2", "C2", [2, 3]), ("Z4", "C2", [2])]
    for ring, group, degrees in small:
        rg = make(ring, group)
        for n in degrees:
            assert exhaustive_check(rg, n) == brute_exhaustive(rg, n)


def test_exhaustive_check_agrees_with_spanning_decision():
    for ring, group in [("Z4", "C4"), ("M2F2", "C2"), ("Z2", "D4"),
                        ("T2F2", "C2"), ("Z8", "C2"), ("H16", "C2"),
                        ("T2Z4", "C1"), ("H32", "C1")]:
        rg = make(ring, group)
        S = spanning_set(rg)
        for n in (2, 3, 4):
            assert exhaustive_check(rg, n) == bool(vanishes_left_normed(S, n))


# Z2[S3] is the non-abelian one: g^-1 h differs from h g^-1 there, so a
# convolution index taken the wrong way round shows.
TABLE_CONTEXTS = [("Z2", "C2", "xor"), ("Z4", "C2", "mod"),
                  ("T2Z4", "C1", "table"), ("H32", "C1", "table"),
                  ("Z2", "S3", "xor")]


# Columns per batch: three puts most columns next to a batch edge, five
# does not divide any of the sizes so the last batch is partial, and None
# keeps the default batch.
@pytest.mark.parametrize("ring,group,kind,columns", [
    pytest.param(*ctx, columns, id="-".join(ctx[:3]) + suffix)
    for ctx in TABLE_CONTEXTS
    for columns, suffix in ((3, ""), (5, "-5cols"), (None, "-default"))
])
def test_full_circle_table_matches_scalar_circle(monkeypatch, ring, group, kind, columns):
    rg = make(ring, group)
    ctx = _engine.table_context(rg)
    assert kind == ("xor" if ctx.add_is_xor else "mod" if ctx.add_is_mod else "table")
    if columns is not None:
        monkeypatch.setattr(nilpotency, "_TABLE_BATCH_CELLS", columns * rg.size * ctx.ng)
    table, zero_id = nilpotency._full_circle_table(rg)
    nr, ng = ctx.nr, ctx.ng

    def element(i):
        return rg.element([(i // nr ** g) % nr for g in range(ng)])

    def element_id(e):
        return sum(c * nr ** g for g, c in enumerate(e.coeffs))

    els = [element(i) for i in range(rg.size)]
    assert zero_id == element_id(rg.zero())
    for a in range(rg.size):
        for b in range(rg.size):
            assert table[a, b] == element_id(circle(els[a], els[b]))


def unique_level_walk(rg, n):
    """Degree-2..n nonzero value sets, each the np.unique of the previous
    set's whole circle-table rows, stopping after the first empty set."""
    table, zero_id = nilpotency._full_circle_table(rg)
    values = np.arange(rg.size)
    values = values[values != zero_id]
    levels = []
    for _level in range(2, n + 1):
        values = np.unique(table[values, :])
        values = values[values != zero_id]
        levels.append(values)
        if values.size == 0:
            break
    return levels


@pytest.mark.parametrize("ring,group", [("Z4", "C2"), ("H32", "C1"), ("T2Z4", "C1")])
def test_exhaustive_level_sets_match_unique_walk(ring, group):
    rg = make(ring, group)
    for n in (2, 3, 4):
        want = unique_level_walk(rg, n)
        got = list(nilpotency._exhaustive_levels(rg, n))
        assert len(got) == len(want)
        for mine, ref in zip(got, want):
            assert np.array_equal(mine, ref)
        assert exhaustive_check(rg, n) == (want[-1].size == 0)


def test_exhaustive_check_accepts_bare_rings():
    assert exhaustive_check(builtin_ring("Z4"), 3)
    assert not exhaustive_check(builtin_ring("Z4"), 2)
    assert exhaustive_check(builtin_ring("Z2"), 2)


def test_exhaustive_check_refuses_huge_contexts():
    rg = make("Z2", "D4xD4")
    assert rg.size > EXHAUSTIVE_CAP
    with pytest.raises(TooLarge):
        exhaustive_check(rg, 2)


# --- spanning sets -----------------------------------------------------------

def test_spanning_set_layout():
    S = spanning_set(make("Z4", "C2"))
    assert S.pairs == ((1, 0), (1, 1))
    assert len(S) == 2
    S2 = spanning_set(make("M2F2", "C2"))
    assert S2.pairs == ((1, 0), (1, 1), (2, 0), (2, 1),
                        (4, 0), (4, 1), (8, 0), (8, 1))
    for (r, g), m in zip(S2.pairs, S2.monomials):
        assert m.coeffs[g] == r
        assert sum(1 for c in m.coeffs if c != 0) == 1


def test_spanning_set_on_bare_ring():
    S = spanning_set(builtin_ring("Z8"))
    assert S.pairs == ((1, 0),)
    assert minimal_jordan_index(S) == 4


# --- Lie variant -------------------------------------------------------------

def brute_lie_vanishes(S, n):
    return all(left_normed_lie([S.monomials[i] for i in tup]).is_zero()
               for tup in product(range(len(S.pairs)), repeat=n))


def test_lie_matches_literal_enumeration():
    for ring, group, degrees in [("M2F2", "C1", [2, 3]), ("Z4", "C2", [2, 3]),
                                 ("Z2", "C4", [2, 3])]:
        S = spanning_set(make(ring, group))
        for n in degrees:
            assert lie_vanishes_left_normed(S, n) == brute_lie_vanishes(S, n)


def test_lie_equals_jordan_in_characteristic_two():
    # ab + ba and ab - ba coincide when 2 = 0
    for ring, group in [("Z2", "D4"), ("T2F2", "C2"), ("M2F2", "C2")]:
        S = spanning_set(make(ring, group))
        for n in (2, 3, 4):
            assert lie_vanishes_left_normed(S, n) == bool(vanishes_left_normed(S, n))


def test_lie_differs_from_jordan_on_z4_d4():
    S = spanning_set(make("Z4", "D4"))
    assert not lie_vanishes_left_normed(S, 2)
    assert not bool(vanishes_left_normed(S, 2))
    assert lie_vanishes_left_normed(S, 4)


# --- ring-level conditions ---------------------------------------------------

FROZEN_CONDITIONS = {
    "Z2": RingConditions(True, True, True, 2),
    "Z4": RingConditions(True, True, True, 3),
    "Z8": RingConditions(False, False, False, 4),
    "Z16": RingConditions(False, False, False, 5),
    "M2F2": RingConditions(True, False, False, None),
    "T2F2": RingConditions(True, False, True, None),
    "T2Z4": RingConditions(False, False, False, None),
    "H16": RingConditions(True, True, True, 3),
    "H32": RingConditions(True, True, True, 3),
}


@pytest.mark.parametrize("name", sorted(FROZEN_CONDITIONS))
def test_frozen_ring_conditions(name):
    assert ring_conditions(builtin_ring(name)) == FROZEN_CONDITIONS[name]


def test_ring_conditions_match_definitions():
    for name in BUILTIN_RING_NAMES:
        R = builtin_ring(name)
        got = ring_conditions(R)
        els = range(R.order)
        assert got.two_circle_zero == all(
            R.dbl(R.circle(a, b)) == R.zero for a in els for b in els)
        assert got.circle_circle_zero == all(
            R.circle(R.circle(a, b), c) == R.zero
            for a in els for b in els for c in els)
        vals = {R.circle(a, b) for a in els for b in els}
        assert got.circle_square_zero == all(
            R.mul(u, v) == R.zero for u in vals for v in vals)


def test_ring_conditions_on_large_test_ring():
    U = scalar_plus_strict_upper_4x4_gf2()
    assert U.order == 128 and U.characteristic() == 2
    assert not U.is_commutative()
    assert U.additive_generating_set() == (1, 2, 4, 8, 16, 32, 64)
    assert ring_conditions(U) == RingConditions(True, False, True, 4)


def test_ring_jordan_nilpotent_wrapper():
    # a bare ring goes straight into the search
    assert vanishes_left_normed(spanning_set(builtin_ring("Z4")), 3)
    assert not vanishes_left_normed(spanning_set(builtin_ring("Z4")), 2)


# --- argument validation -----------------------------------------------------

def test_degree_bounds_are_enforced():
    S = spanning_set(make("Z2", "C2"))
    with pytest.raises(ValueError):
        vanishes_left_normed(S, 1)
    with pytest.raises(ValueError):
        minimal_jordan_index(S, max_n=1)
    with pytest.raises(ValueError):
        lie_vanishes_left_normed(S, 0)
    with pytest.raises(ValueError):
        exhaustive_check(make("Z2", "C2"), 1)
