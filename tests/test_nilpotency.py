"""Spanning-set Jordan searches pinned against literal tuple enumeration.

The reference implementations here use no pruning, no dedup and no
vectorization: they walk every index tuple in lexicographic order with
the scalar arithmetic, so they independently witness both the verdict
and the choice of first counterexample.
"""

import gc
import tracemalloc
import weakref
from itertools import product

import numpy as np
import pytest

from jrl import _engine, nilpotency
from jrl.cli import main as cli_main
from jrl.errors import InvalidExponent, TooLarge
from jrl.groupring import GroupRing, circle, left_normed_jordan, left_normed_lie
from jrl.groups import BUILTIN_GROUP_NAMES, builtin_group
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
from jrl.rings import BUILTIN_RING_NAMES, FiniteRing, builtin_ring, zmod_ring

from support_rings import id_addition, relabelled_z4, scalar_plus_strict_upper_4x4_gf2


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
    # the first degree-4 witnesses over D4xD4 (M2F2's is pinned below)
    ("H32", "D4xD4", 4, (0, 1, 12, 32)),
    ("T2F2", "D4xD4", 4, (0, 64, 0, 0)),
    ("T2Z4", "D4xD4", 4, (0, 0, 64, 0)),
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


# Distinct nonzero partial values at degrees 1 to 4 over D4xD4.
D4XD4_FRONTIERS = [
    ("T2F2", [192, 196, 190, 176]),
    ("H16", [256, 328, 156, 16]),
    ("Z2", [64, 66, 15, 0]),
]


@pytest.mark.parametrize("ring,sizes", D4XD4_FRONTIERS)
def test_d4xd4_frontier_sizes(monkeypatch, ring, sizes):
    # a scan at degree 5 materialises the frontiers of degrees 2 to 4
    frontiers = []
    step = nilpotency._next_level

    def spy(ctx, V, prefixes, pairs, op):
        out = step(ctx, V, prefixes, pairs, op)
        if not frontiers:
            frontiers.append(V.shape[0])
        frontiers.append(out[0].shape[0])
        return out

    monkeypatch.setattr(nilpotency, "_next_level", spy)
    vanishes_left_normed(spanning_set(make(ring, "D4xD4")), 5)
    assert frontiers == sizes


def walk_levels(S, n):
    """Every (V, prefixes) that _next_level returns in one walk to degree n,
    the row count of each candidate block it asks for, and the result."""
    levels, blocks = [], []
    step, block = nilpotency._next_level, _engine.candidate_block

    def spy(ctx, V, prefixes, pairs, op):
        out = step(ctx, V, prefixes, pairs, op)
        levels.append(out)
        return out

    with pytest.MonkeyPatch.context() as m:
        m.setattr(nilpotency, "_next_level", spy)
        m.setattr(_engine, "candidate_block",
                  lambda *args: blocks.append(args[1].shape[0]) or block(*args))
        res = vanishes_left_normed(S, n)
    return levels, blocks, res


@pytest.mark.parametrize("ring,group,n,rows,want_blocks", [
    # 100-row chunks: frontiers of 256 and 456 rows, each ending in a part chunk
    ("M2F2", "D4xD4", 4, 100, [100, 100, 56, 100, 100, 100, 100, 56]),
    # s = 1: one monomial, so candidate c extends partial c with monomial 0
    ("Z8", "C1", 4, 1, [1, 1]),
])
def test_next_level_chunks_match_one_chunk(monkeypatch, ring, group, n, rows,
                                           want_blocks):
    S = spanning_set(make(ring, group))
    whole, one_chunk, res = walk_levels(S, n)
    assert len(one_chunk) == len(whole)
    cells = rows * len(S.pairs) * S.context.group.order
    monkeypatch.setattr(nilpotency, "_CHUNK_CELLS", cells)
    chunked, blocks, chunked_res = walk_levels(S, n)
    assert blocks == want_blocks
    assert chunked_res == res
    assert len(chunked) == len(whole)
    for (V1, p1), (V2, p2) in zip(whole, chunked):
        assert V1.dtype == V2.dtype and p1.dtype == p2.dtype
        assert V1.tobytes() == V2.tobytes() and V1.shape == V2.shape
        assert p1.tobytes() == p2.tobytes() and p1.shape == p2.shape


def test_zero_ring_has_no_monomials_and_index_two():
    zero_ring = FiniteRing("Z1", [[0]], [[0]], 0, 0)
    for group in ("C1", "D4"):
        S = spanning_set(GroupRing(zero_ring, builtin_group(group)))
        assert len(S) == 0
        assert vanishes_left_normed(S, 5) == nilpotency.JordanSearchResult(True, index=2)
        assert lie_vanishes_left_normed(S, 3)


def test_real_frontiers_never_take_the_exact_dedup(monkeypatch):
    # a key collision between different rows would send a level to the
    # void-row sort; the 64-bit keys must keep every catalog frontier off it
    calls = []
    exact = _engine._unique_rows_exact
    monkeypatch.setattr(_engine, "_unique_rows_exact",
                        lambda arr: calls.append(arr.shape) or exact(arr))
    for ring in BUILTIN_RING_NAMES:
        for group in BUILTIN_GROUP_NAMES:
            S = spanning_set(make(ring, group))
            vanishes_left_normed(S, 4)
            lie_vanishes_left_normed(S, 4)
    for ring in ("M2F2", "H32", "T2F2"):
        vanishes_left_normed(spanning_set(make(ring, "D4xD4")), 5)
    assert calls == []


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
# convolution index taken the wrong way round shows.  Z6[C2] reduces its
# plane sums by np.remainder (an order that is not a power of two).  The
# kind is how the ring's own ids add (see id_addition); T2Z4 and H32 add
# per field, several fields to an id.
TABLE_CONTEXTS = [("Z2", "C2", "xor"), ("Z4", "C2", "mod"),
                  ("T2Z4", "C1", "table"), ("H32", "C1", "table"),
                  ("Z2", "S3", "xor"), ("Z6", "C2", "mod")]


EXTRA_RINGS = {"Z3": lambda: zmod_ring(3), "Z6": lambda: zmod_ring(6), "Z4'": relabelled_z4}


def make_any(ring, group):
    R = EXTRA_RINGS[ring]() if ring in EXTRA_RINGS else builtin_ring(ring)
    return GroupRing(R, builtin_group(group))


def spy_product_with_row(monkeypatch):
    """A list that gets the row count of every later product_with_row call."""
    calls = []
    real = _engine.product_with_row

    def spy(ctx, P):
        calls.append(P.shape[0])
        return real(ctx, P)

    monkeypatch.setattr(_engine, "product_with_row", spy)
    return calls


def whole_table(rg, rows=None):
    """The whole circle table, assembled from _full_circle_table's batches of
    `rows` rows (None: the context's own batch)."""
    step = rows or nilpotency._circle_setup(rg).step
    table = np.empty((rg.size, rg.size), dtype=np.int16)
    for lo in range(0, rg.size, step):
        nilpotency._full_circle_table(rg, slice(lo, lo + step), table[lo:lo + step])
    return table


def batch_table(monkeypatch, rg, rows):
    """whole_table(rg, rows), checking that every batch is one
    product_with_row call and that a batch of ids in any order gives their
    rows."""
    step = rows or nilpotency._circle_setup(rg).step
    calls = spy_product_with_row(monkeypatch)
    table = whole_table(rg, rows)
    assert calls == [min(step, rg.size - lo) for lo in range(0, rg.size, step)]
    ids = np.random.default_rng(rg.size).permutation(rg.size)[:step]
    out = np.empty((ids.size, rg.size), dtype=np.int16)
    assert np.array_equal(nilpotency._full_circle_table(rg, ids, out), table[ids])
    return table


def scalar_ids(rg):
    """Element i of rg by its base-|R| digits, which are canonical ring ids,
    and the id of an element."""
    nr, ng = rg.ring.order, rg.group.order
    ctx = _engine.table_context(rg)

    def element(i):
        return rg.element([int(ctx.ids[(i // nr ** g) % nr]) for g in range(ng)])

    def element_id(e):
        return sum(int(ctx.canon[c]) * nr ** g for g, c in enumerate(e.coeffs))

    return element, element_id


# Row batches: three puts most rows next to a batch edge, five divides
# none of the sizes, so the last batch is partial, and None keeps the
# default batch.  The ids ending -5cols name the batch of five rows.
@pytest.mark.parametrize("ring,group,kind,rows", [
    pytest.param(*ctx, rows, id="-".join(ctx[:3]) + suffix)
    for ctx in TABLE_CONTEXTS
    for rows, suffix in ((3, ""), (5, "-5cols"), (None, "-default"))
])
def test_full_circle_table_matches_scalar_circle(monkeypatch, ring, group, kind, rows):
    rg = make_any(ring, group)
    assert kind == id_addition(rg.ring)
    table = batch_table(monkeypatch, rg, rows)
    element, element_id = scalar_ids(rg)
    els = [element(i) for i in range(rg.size)]
    assert element_id(rg.zero()) == 0
    for a in range(rg.size):
        for b in range(rg.size):
            assert table[a, b] == element_id(circle(els[a], els[b]))


# T2Z4[C2] sums six packed fields in one outer-sum step (|G| = 2), straight
# into the table; Z3[S3] reduces six fields of an odd radix by np.remainder,
# over a non-abelian group, in five outer-sum steps; Z4'[C2xC2], renumbered,
# sums in three steps, the first two into fresh arrays.
# Too large for a full compare, each is checked on seeded pairs and a few
# whole rows.
@pytest.mark.parametrize("ring,group,kind,rows", [
    ("T2Z4", "C2", "table", None), ("T2Z4", "C2", "table", 7),
    ("Z3", "S3", "mod", None), ("Z3", "S3", "mod", 5),
    ("Z4'", "C2xC2", "table", None), ("Z4'", "C2xC2", "table", 5),
])
def test_full_circle_table_sampled_against_scalar_circle(monkeypatch, ring, group, kind, rows):
    rg = make_any(ring, group)
    assert kind == id_addition(rg.ring)
    table = batch_table(monkeypatch, rg, rows)
    element, element_id = scalar_ids(rg)
    assert element_id(rg.zero()) == 0
    rng = np.random.default_rng(97)
    pairs = rng.integers(0, rg.size, size=(400, 2)).tolist()
    for a in (0, 1, rg.size - 1) + tuple(rng.integers(0, rg.size, size=2).tolist()):
        pairs += [(a, b) for b in range(rg.size)]
    for a, b in pairs:
        assert table[a, b] == element_id(circle(element(a), element(b))), (a, b)


@pytest.mark.parametrize("ring,group", [("T2Z4", "C2"), ("Z8", "C4")])
def test_full_circle_table_transient_memory(ring, group):
    # one batch of a 4096-element context's rows, at its own batch size,
    # holds at most 1 MB next to the rows themselves
    rg = make(ring, group)
    step = nilpotency._circle_setup(rg).step
    out = np.empty((step, rg.size), dtype=np.int16)
    tracemalloc.start()
    try:
        nilpotency._full_circle_table(rg, slice(0, step), out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 1 < step < rg.size
    assert peak <= 1 << 20, peak


def unique_level_walk(rg, n):
    """Degree-2..n nonzero value sets, each the np.unique of the previous
    set's whole circle-table rows, stopping after the first empty set."""
    table = whole_table(rg)
    values = np.arange(1, rg.size)       # zero is id 0
    levels = []
    for _level in range(2, n + 1):
        values = np.unique(table[values, :])
        values = values[values != 0]
        levels.append(values)
        if values.size == 0:
            break
    return levels


# T2Z4[C2] and Z8[C4] take degree 2 from the upper triangle at full size;
# Z2[D4] and Z2[S3] are over non-abelian groups, Z3[S3] has an odd radix.
@pytest.mark.parametrize("ring,group", [
    ("Z4", "C2"), ("H32", "C1"), ("T2Z4", "C1"), ("T2Z4", "C2"), ("Z8", "C4"),
    ("Z2", "D4"), ("Z2", "S3"), ("Z3", "S3"),
])
def test_exhaustive_level_sets_match_unique_walk(ring, group):
    rg = make_any(ring, group)
    walk = unique_level_walk(rg, 6)
    for n in range(2, 7):
        want = walk[:n - 1]
        got = list(nilpotency._exhaustive_levels(rg, n))
        assert len(got) == len(want)
        for mine, ref in zip(got, want):
            assert np.array_equal(mine, ref)
        assert exhaustive_check(rg, n) == (want[-1].size == 0)


def test_only_degree_2_reads_the_upper_triangle(monkeypatch):
    # a symmetric table whose degree-3 value 2 lies only at [3, 1], below
    # the diagonal, in a row of degree 2's value 3 and a column (1) that is
    # no degree-2 value; it stands in for the rows of a 4-element context,
    # kept whole from degree 2 on, or computed a row at a time, where
    # degree 2 reads exactly the upper triangle and degree 3 the rows of
    # its values
    table = np.array([[0, 0, 0, 0],
                      [0, 3, 0, 2],
                      [0, 0, 0, 0],
                      [0, 2, 0, 3]], dtype=np.int16)

    def rows(context, ids, out):
        out[...] = table[ids]
        return out

    monkeypatch.setattr(nilpotency, "_full_circle_table", rows)
    for batch_bytes in (nilpotency._TABLE_BATCH_BYTES, 1):
        monkeypatch.setattr(nilpotency, "_TABLE_BATCH_BYTES", batch_bytes)
        context = make("Z2", "C2")
        levels = nilpotency._exhaustive_levels(context, 4)
        assert [level.tolist() for level in levels] == [[2, 3], [2, 3], [2, 3]]
        assert (context._circle_setup.step >= context.size) == (batch_bytes > 1)


SMALL_BUILTIN_CONTEXTS = [(r, g) for r in BUILTIN_RING_NAMES for g in BUILTIN_GROUP_NAMES
                          if builtin_ring(r).order ** builtin_group(g).order <= EXHAUSTIVE_CAP]


@pytest.mark.parametrize("ring,group", SMALL_BUILTIN_CONTEXTS + [("Z3", "S3"), ("Z4'", "C2xC2")])
def test_circle_table_is_symmetric(ring, group):
    # a o b = ab + ba = b o a, which degree 2 of the level walk rests on
    table = whole_table(make_any(ring, group))
    assert np.array_equal(table, table.T)


@pytest.mark.parametrize("ring,group", [("T2Z4", "C2"), ("Z8", "C4")])
def test_exhaustive_levels_transient_memory(ring, group):
    # a cold check to degree 4 holds at most 4 MB, rows included: the
    # degree-2 batches and the kept rows of the degree-2 values (about 2 MB
    # here), where the whole table would take 32 MB
    rg = make(ring, group)
    tracemalloc.start()
    try:
        exhaustive_check(rg, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    levels = nilpotency._exhaustive_levels(rg, 4)
    assert len(levels) == 3 and levels[0].size > 0
    assert peak <= 4 << 20, peak


@pytest.mark.parametrize("ring,group", [("Z8", "C2"), ("Z4", "C1"), ("T2Z4", "C1")])
def test_exhaustive_levels_are_cached_in_any_call_order(ring, group):
    fresh = {n: exhaustive_check(make(ring, group), n) for n in (2, 3, 4)}
    rg = make(ring, group)
    assert {n: exhaustive_check(rg, n) for n in (4, 2, 3)} == fresh
    levels = nilpotency._exhaustive_levels(rg, 4)
    assert levels[-1].size == 0 or len(levels) == 3
    # a deeper call extends the cached levels and recomputes none of them
    deeper = nilpotency._exhaustive_levels(rg, 6)
    assert all(a is b for a, b in zip(levels, deeper))
    assert exhaustive_check(rg, 6) == exhaustive_check(make(ring, group), 6)


# Batches of one, three and seven rows: degree 2 marks each batch alone,
# degree 3 computes and keeps the rows of the degree-2 values across batch
# edges, and no context keeps its one batch.
@pytest.mark.parametrize("rows", [1, 3, 7])
@pytest.mark.parametrize("ring,group", [("Z4", "C2"), ("T2Z4", "C1"), ("Z2", "D4"),
                                        ("Z2", "S3"), ("Z3", "S3"), ("M2F2", "C2")])
def test_exhaustive_levels_do_not_depend_on_the_batch(monkeypatch, ring, group, rows):
    rg = make_any(ring, group)
    want = unique_level_walk(rg, 6)
    monkeypatch.setattr(nilpotency, "_TABLE_BATCH_BYTES",
                        rows * nilpotency._table_row_bytes(_engine.table_context(rg)))
    rg = make_any(ring, group)
    got = nilpotency._exhaustive_levels(rg, 6)
    assert rg._circle_setup.step == rows
    assert len(got) == len(want)
    assert all(np.array_equal(mine, ref) for mine, ref in zip(got, want))


NESTED_CONTEXTS = SMALL_BUILTIN_CONTEXTS + [("Z3", "S3"), ("Z4'", "C2xC2")]


@pytest.mark.parametrize("ring,group", NESTED_CONTEXTS)
def test_exhaustive_levels_are_nested(ring, group):
    # L_{k+1} is in L_k, which lets every level past 2 read only the rows of
    # L_2's values
    levels = nilpotency._exhaustive_levels(make_any(ring, group), 6)
    for deeper, level in zip(levels[1:], levels):
        assert np.isin(deeper, level).all()


# T2Z4[C2] takes 46 rows a batch of 4096; Z2[D4] and Z4[C2] take their
# whole table in one batch.
@pytest.mark.parametrize("ring,group", [("T2Z4", "C2"), ("Z2", "D4"), ("Z4", "C2")])
def test_each_circle_row_is_computed_once(monkeypatch, ring, group):
    # every row at degree 2, then the rows of the degree-2 values once,
    # unless the one batch of degree 2 is kept; degrees asked out of order
    fresh = [exhaustive_check(make(ring, group), n) for n in (4, 2, 3, 6)]
    rg = make(ring, group)
    calls = spy_product_with_row(monkeypatch)
    assert [exhaustive_check(rg, n) for n in (4, 2, 3, 6)] == fresh
    setup, levels = rg._circle_setup, rg._circle_levels
    one_batch = setup.step >= rg.size
    assert one_batch == ((ring, group) != ("T2Z4", "C2"))
    assert sum(calls) == rg.size + (0 if one_batch else levels[0].size)
    assert np.array_equal(setup.kept[0], np.arange(rg.size) if one_batch else levels[0])


def test_exhaustive_check_accepts_bare_rings():
    assert exhaustive_check(builtin_ring("Z4"), 3)
    assert not exhaustive_check(builtin_ring("Z4"), 2)
    assert exhaustive_check(builtin_ring("Z2"), 2)


def test_bare_ring_builds_its_table_once(monkeypatch):
    # three degrees on one bare ring: one batch of rows, kept.
    # A fresh copy of T2Z4, since the built-in one is shared by every test.
    want = [exhaustive_check(make("T2Z4", "C1"), n) for n in (2, 3, 4)]
    calls = spy_product_with_row(monkeypatch)
    R = builtin_ring("T2Z4")
    T = FiniteRing("T2Z4'", R.add_table, R.mul_table, R.zero, R.one)
    assert [exhaustive_check(T, n) for n in (2, 3, 4)] == want
    assert calls == [R.order]


def test_bare_ring_dies_after_an_exhaustive_check():
    # the ring caches its table and levels; they must not hold the ring
    R = zmod_ring(4)
    ring = weakref.ref(R)
    gc.disable()
    try:
        assert exhaustive_check(R, 3) and not exhaustive_check(R, 2)
        assert R._circle_setup.kept is not None and R._circle_levels
        del R
        assert ring() is None
    finally:
        gc.enable()


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
            R.add(R.circle(a, b), R.circle(a, b)) == R.zero for a in els for b in els)
        assert got.circle_circle_zero == all(
            R.circle(R.circle(a, b), c) == R.zero
            for a in els for b in els for c in els)
        vals = {R.circle(a, b) for a in els for b in els}
        assert got.circle_square_zero == all(
            R.mul(u, v) == R.zero for u in vals for v in vals)


@pytest.mark.parametrize("bound", (4, 6))
@pytest.mark.parametrize("name", BUILTIN_RING_NAMES + ("U4F2",))
def test_kept_ring_conditions_equal_a_fresh_computation(name, bound):
    R = scalar_plus_strict_upper_4x4_gf2() if name == "U4F2" else builtin_ring(name)
    warm = ring_conditions(R, bound)
    assert ring_conditions(R, bound) is warm
    fresh = FiniteRing(R.name, R.add_table, R.mul_table, R.zero, R.one)
    assert ring_conditions(fresh, bound) == warm


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


def no_table_work(monkeypatch):
    """Make every table build and every table-context lookup fail."""
    def refuse(*args):
        raise AssertionError("table work before the degree check")
    for name in ("_full_circle_table", "_exhaustive_levels", "_circle_setup", "_table_context"):
        monkeypatch.setattr(nilpotency, name, refuse)


@pytest.mark.parametrize("n", [3.0, "3", None, True, False, np.float64(4), np.True_])
def test_non_integer_degrees_raise_invalid_exponent(monkeypatch, n):
    S = spanning_set(make("Z2", "C2"))
    rg = make("T2Z4", "C2")
    no_table_work(monkeypatch)
    with pytest.raises(InvalidExponent):
        exhaustive_check(rg, n)
    with pytest.raises(InvalidExponent):
        vanishes_left_normed(S, n)
    with pytest.raises(InvalidExponent):
        lie_vanishes_left_normed(S, n)
    with pytest.raises(InvalidExponent):
        minimal_jordan_index(S, max_n=n)


@pytest.mark.parametrize("n", [3, np.int64(3), np.int16(3), np.uint8(3)])
def test_integer_degrees_are_taken_numpy_ones_included(n):
    S = spanning_set(make("Z2", "C2"))
    assert exhaustive_check(make("Z2", "C2"), n) == exhaustive_check(make("Z2", "C2"), 3)
    assert vanishes_left_normed(S, n) == vanishes_left_normed(S, 3)
    assert lie_vanishes_left_normed(S, n) == lie_vanishes_left_normed(S, 3)
    assert minimal_jordan_index(S, max_n=n) == minimal_jordan_index(S, max_n=3)
