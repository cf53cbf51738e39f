"""Scalar group-ring arithmetic, pinned against a dict-of-terms model,
and the vectorized kernels pinned against the scalar layer."""

import functools
import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import jrl._engine as eng
from jrl._engine import (
    TableContext,
    candidate_block,
    product_with_monomial,
    product_with_row,
    rows_add,
    rows_bracket,
    rows_circle,
    rows_mul,
    rows_neg,
    scan_final_level,
    table_context,
    unique_rows_keep_first,
)
from jrl.errors import ContextMismatch, EmptySequence, InvalidExponent
from jrl.groupring import (
    GroupRing,
    check_monomial_circle_expansion,
    check_product_circle_expansion,
    circle,
    format_element,
    gr_mul,
    jordan_power,
    left_normed_jordan,
    left_normed_lie,
    lie_bracket,
)
from jrl.groups import builtin_group, cyclic_group
from jrl.nilpotency import minimal_jordan_index, spanning_set
from jrl.rings import builtin_ring, zmod_ring


def make(ring, group):
    return GroupRing(builtin_ring(ring), builtin_group(group))


def random_elements(rg, count, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, rg.ring.order, size=(count, rg.group.order))
    return [rg.element([int(c) for c in row]) for row in rows]


# --- scalar layer ------------------------------------------------------------

def dict_convolve(rg, a, b):
    """Convolution written over sparse dicts instead of dense tuples."""
    R, G = rg.ring, rg.group
    terms = {}
    for g, ag in enumerate(a.coeffs):
        for h, bh in enumerate(b.coeffs):
            k = G.mul(g, h)
            terms[k] = R.add(terms.get(k, R.zero), R.mul(ag, bh))
    out = [terms.get(g, R.zero) for g in range(G.order)]
    return rg.element(out)


@pytest.mark.parametrize("ring,group", [
    ("Z4", "D4"), ("M2F2", "S3"), ("T2Z4", "C4"), ("H32", "Q8"), ("Z2", "C2xC2"),
])
def test_product_matches_dict_convolution(ring, group):
    rg = make(ring, group)
    els = random_elements(rg, 40, seed=7)
    for a, b in zip(els[::2], els[1::2]):
        assert gr_mul(a, b) == dict_convolve(rg, a, b)


def test_product_on_monomials_is_single_term():
    rg = make("M2F2", "D4")
    R, G = rg.ring, rg.group
    for r in (1, 3, 7):
        for s in (2, 5):
            for g in range(G.order):
                for h in range(G.order):
                    got = gr_mul(rg.embed(r, g), rg.embed(s, h))
                    assert got == rg.embed(R.mul(r, s), G.mul(g, h))


def test_unit_and_zero_behave():
    rg = make("T2F2", "S3")
    for a in random_elements(rg, 10, seed=1):
        assert gr_mul(a, rg.one()) == a
        assert gr_mul(rg.one(), a) == a
        assert gr_mul(a, rg.zero()).is_zero()
        assert (a + rg.zero()) == a
        assert (a - a).is_zero()


def test_associativity_and_distributivity_sampled():
    rg = make("H16", "D4")
    els = random_elements(rg, 30, seed=3)
    for a, b, c in zip(els[::3], els[1::3], els[2::3]):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) * c == a * c + b * c


def test_circle_and_bracket_shapes():
    rg = make("Z4", "S3")
    els = random_elements(rg, 20, seed=11)
    for a, b in zip(els[::2], els[1::2]):
        assert circle(a, b) == circle(b, a)
        assert circle(a, b) == a * b + b * a
        assert lie_bracket(a, b) == a * b - b * a
        assert (lie_bracket(a, b) + lie_bracket(b, a)).is_zero()


def test_left_normed_products_fold_left():
    rg = make("Z4", "D4")
    a, b, c, d = random_elements(rg, 4, seed=5)
    assert left_normed_jordan([a]) == a
    assert left_normed_jordan([a, b, c]) == circle(circle(a, b), c)
    assert left_normed_jordan([a, b, c, d]) == circle(circle(circle(a, b), c), d)
    assert left_normed_lie([a, b, c]) == lie_bracket(lie_bracket(a, b), c)
    assert jordan_power(a, 3) == circle(circle(a, a), a)
    assert jordan_power(a, 1) == a


def test_error_types():
    rg1 = make("Z4", "C4")
    rg2 = GroupRing(builtin_ring("Z4"), builtin_group("C4"))
    a = rg1.one()
    b = rg2.one()
    with pytest.raises(ContextMismatch):
        gr_mul(a, b)
    with pytest.raises(ContextMismatch):
        a + b
    with pytest.raises(EmptySequence):
        left_normed_jordan([])
    with pytest.raises(EmptySequence):
        left_normed_lie([])
    with pytest.raises(InvalidExponent):
        jordan_power(a, 0)
    with pytest.raises(ValueError):
        rg1.element([0, 0])
    with pytest.raises(ValueError):
        rg1.element([0, 0, 0, 9])


def test_format_element():
    rg = make("Z4", "C4")
    assert format_element(rg.zero()) == "0"
    assert format_element(rg.embed(3, 2)) == "3@2"
    assert format_element(rg.element([1, 0, 2, 0])) == "1@0 + 2@2"


def test_equality_requires_same_context_object():
    rg1 = make("Z2", "C2")
    rg2 = GroupRing(builtin_ring("Z2"), builtin_group("C2"))
    assert rg1.element([1, 0]) == rg1.element([1, 0])
    assert rg1.element([1, 0]) != rg2.element([1, 0])
    assert hash(rg1.element([1, 1])) == hash(rg1.element([1, 1]))


# --- closed-form expansion checks -------------------------------------------

@pytest.mark.parametrize("ring", ["Z8", "M2F2", "T2F2", "H32"])
def test_product_circle_expansion_exhaustive_in_ring(ring):
    R = builtin_ring(ring)
    for a in R.elements():
        for b in R.elements():
            for c in R.elements():
                assert check_product_circle_expansion(R, a, b, c)


def test_monomial_circle_expansion_exhaustive_t2f2_d4():
    rg = make("T2F2", "D4")
    for alpha in rg.ring.elements():
        for beta in rg.ring.elements():
            for x in rg.group.elements():
                for y in rg.group.elements():
                    assert check_monomial_circle_expansion(rg, alpha, beta, x, y)


# --- vectorized kernels vs the scalar layer ---------------------------------

ENGINE_CONTEXTS = [
    ("Z2", "D4"),      # xor fold
    ("Z8", "S3"),      # mod fold
    ("M2F2", "Q8"),    # xor fold, non-commutative ring
    ("T2Z4", "D4"),    # table addition
    ("H32", "S3"),     # table addition
]


def rows_and_elements(rg, count, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, rg.ring.order, size=(count, rg.group.order)).astype(np.int16)
    els = [rg.element([int(c) for c in row]) for row in rows]
    return rows, els


@pytest.mark.parametrize("ring,group", ENGINE_CONTEXTS)
def test_rows_mul_matches_scalar(ring, group):
    rg = make(ring, group)
    ctx = table_context(rg)
    A, ea = rows_and_elements(rg, 60, seed=21)
    B, eb = rows_and_elements(rg, 60, seed=22)
    got = rows_mul(ctx, A, B)
    for i in range(60):
        assert tuple(int(v) for v in got[i]) == gr_mul(ea[i], eb[i]).coeffs
    gc = rows_circle(ctx, A, B)
    gb = rows_bracket(ctx, A, B)
    for i in range(0, 60, 7):
        assert tuple(int(v) for v in gc[i]) == circle(ea[i], eb[i]).coeffs
        assert tuple(int(v) for v in gb[i]) == lie_bracket(ea[i], eb[i]).coeffs


@pytest.mark.parametrize("ring,group", ENGINE_CONTEXTS)
def test_fast_and_generic_folds_agree(ring, group):
    rg = make(ring, group)
    base = table_context(rg)
    forced = TableContext(rg)
    forced.add_is_xor = False
    forced.add_is_mod = False
    A, _ = rows_and_elements(rg, 80, seed=31)
    B, _ = rows_and_elements(rg, 80, seed=32)
    for kernel in (rows_mul, rows_add, rows_circle, rows_bracket):
        got, want = kernel(base, A, B), kernel(forced, A, B)
        assert got.dtype == want.dtype and np.array_equal(got, want), kernel.__name__
    got, want = rows_neg(base, A), rows_neg(forced, A)
    assert got.dtype == want.dtype and np.array_equal(got, want)


# --- the row-blocked fold across block edges ----------------------------------

def fold_kind(ctx):
    return "xor" if ctx.add_is_xor else "mod" if ctx.add_is_mod else "table"


def read_only_rows(rg, count, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, rg.ring.order, size=(count, rg.group.order)).astype(np.int16)
    rows.setflags(write=False)   # an in-place write to an input raises
    return rows


def check_fold_across_block_edges(rg, kind):
    """rows_mul at 0 and 1 rows, one row either side of a block, one full
    block, and several blocks with a partial last one: int16, C-contiguous,
    equal to the forced table-addition fold on every row and to gr_mul on
    the rows at the block edges."""
    ctx = table_context(rg)
    assert fold_kind(ctx) == kind
    forced = TableContext(rg)
    forced.add_is_xor = forced.add_is_mod = False
    ng = rg.group.order
    block = max(1, eng._FOLD_CELLS // ng)
    for count in (0, 1, block - 1, block, block + 1, 3 * block + 5):
        A = read_only_rows(rg, count, seed=count)
        B = read_only_rows(rg, count, seed=count + 7)
        got = rows_mul(ctx, A, B)
        assert got.dtype == np.int16 and got.flags.c_contiguous, count
        assert got.shape == (count, ng), count
        assert np.array_equal(got, rows_mul(forced, A, B)), count
        edges = {i for lo in range(0, count, block) for i in (lo, lo + block - 1)}
        for i in sorted(i for i in edges | {count - 1} if 0 <= i < count):
            want = gr_mul(rg.element([int(v) for v in A[i]]),
                          rg.element([int(v) for v in B[i]]))
            assert tuple(int(v) for v in got[i]) == want.coeffs, (count, i)


@pytest.mark.parametrize("ring,group,kind", [
    ("M2F2", "D4", "xor"), ("M2F2", "D4xD4", "xor"),
    ("Z8", "D4", "mod"), ("Z8", "D4xD4", "mod"),
    ("T2Z4", "D4", "table"), ("T2Z4", "D4xD4", "table"),
])
def test_fold_across_block_edges(ring, group, kind):
    check_fold_across_block_edges(make(ring, group), kind)


@functools.lru_cache(maxsize=None)
def zmod_over_c128(order):
    """Z_order[C128], built once per module: validating Z258 takes a second."""
    return GroupRing(zmod_ring(order), cyclic_group(128))


def test_mod_fold_with_an_int32_total():
    # |G| (|R| - 1) = 128 * 257 overflows int16, so the mod fold sums in int32
    rg = zmod_over_c128(258)
    assert rg.group.order * (rg.ring.order - 1) > np.iinfo(np.int16).max
    check_fold_across_block_edges(rg, "mod")
    # random rows stay far below the bound; 1 * 257 in every term reaches it
    ones = np.full((3, 128), rg.ring.one, dtype=np.int16)
    top = np.full((3, 128), 257, dtype=np.int16)
    assert (rows_mul(table_context(rg), ones, top) == 128 * 257 % 258).all()


@pytest.mark.parametrize("ring,group", ENGINE_CONTEXTS)
@pytest.mark.parametrize("op", ["circle", "bracket"])
def test_product_with_monomial_matches_scalar(ring, group, op):
    rg = make(ring, group)
    ctx = table_context(rg)
    P, els = rows_and_elements(rg, 12, seed=51)
    scalar = circle if op == "circle" else lie_bracket
    for r in (1, rg.ring.order - 1):
        for g in (0, rg.group.order - 1):
            got = product_with_monomial(ctx, P, r, g, op)
            mono = rg.embed(r, g)
            for i, e in enumerate(els):
                assert tuple(int(v) for v in got[i]) == scalar(e, mono).coeffs


@pytest.mark.parametrize("ring,group", ENGINE_CONTEXTS)
@pytest.mark.parametrize("op", ["circle", "bracket"])
def test_product_with_row_matches_scalar(ring, group, op):
    rg = make(ring, group)
    ctx = table_context(rg)
    P, els = rows_and_elements(rg, 12, seed=61)
    brow, bels = rows_and_elements(rg, 1, seed=62)
    scalar = circle if op == "circle" else lie_bracket
    got = product_with_row(ctx, P, brow[0], op)
    for i, e in enumerate(els):
        assert tuple(int(v) for v in got[i]) == scalar(e, bels[0]).coeffs
    block, bels = rows_and_elements(rg, 3, seed=63)
    got = product_with_row(ctx, P, block, op)
    assert got.shape == (12, 3, rg.group.order)
    for i, e in enumerate(els):
        for j, b in enumerate(bels):
            assert tuple(int(v) for v in got[i, j]) == scalar(e, b).coeffs


def pairwise_reference(ctx, P, block, op):
    """product_with_row by its definition: the row-aligned circle or
    bracket of np.repeat/np.tile copies of the two operands."""
    m, k = P.shape[0], block.shape[0]
    kernel = rows_circle if op == "circle" else rows_bracket
    return kernel(ctx, np.repeat(P, k, axis=0), np.tile(block, (m, 1))).reshape(m, k, ctx.ng)


def check_product_with_row(ctx, P, block, op):
    """2-D and 1-D product_with_row equal the reference, on read-only inputs."""
    P, block = P.copy(), block.copy()
    P.setflags(write=False)
    block.setflags(write=False)
    want = pairwise_reference(ctx, P, block, op)
    got = product_with_row(ctx, P, block, op)
    assert got.dtype == np.int16 and got.shape == want.shape
    assert np.array_equal(got, want)
    for j in range(block.shape[0]):
        got = product_with_row(ctx, P, block[j], op)
        assert got.shape == (P.shape[0], ctx.ng)
        assert np.array_equal(got, want[:, j]), j


@pytest.mark.parametrize("order", [129, 258])
@pytest.mark.parametrize("op", ["circle", "bracket"])
def test_product_with_row_int16_boundary(order, op):
    # The pairwise sum has 2|G| terms: 2 * 128 * (|R| - 1) overflows int16
    # for both orders, though the fold's 128 * 128 does not for Z129.
    rg = zmod_over_c128(order)
    ctx = table_context(rg)
    assert ctx.add_is_mod and 2 * 128 * (order - 1) > np.iinfo(np.int16).max
    top = np.full(128, order - 1, dtype=np.int16)
    ones = np.full(128, rg.ring.one, dtype=np.int16)
    rows = np.stack([top, ones, top])
    check_product_with_row(ctx, rows, rows[::-1], op)
    if op == "circle":   # 2|G| terms of (|R| - 1) * 1 each
        got = product_with_row(ctx, top[None], ones, op)
        assert (got == -2 * 128 % order).all()


@pytest.mark.parametrize("ring,group", [("M2F2", "D4"), ("Z8", "D4"), ("T2Z4", "D4")])
@pytest.mark.parametrize("op", ["circle", "bracket"])
def test_product_with_row_across_row_blocks(monkeypatch, ring, group, op):
    # three rows per block of the term buffer, so seven rows end in a
    # partial block
    rg = make(ring, group)
    ctx = table_context(rg)
    k = 5
    itemsize = 2 if ctx.add_is_xor or ctx.add_is_mod else np.dtype(np.intp).itemsize
    monkeypatch.setattr(eng, "_TERM_BYTES", 3 * k * itemsize)
    P, _ = rows_and_elements(rg, 7, seed=71)
    block, _ = rows_and_elements(rg, k, seed=72)
    check_product_with_row(ctx, P, block, op)
    assert product_with_row(ctx, P, block[:0], op).shape == (7, 0, rg.group.order)
    assert product_with_row(ctx, P[:0], block, op).shape == (0, k, rg.group.order)


def test_unique_rows_keep_first():
    arr = np.array([[1, 2], [3, 4], [1, 2], [5, 6], [3, 4]], dtype=np.int16)
    uniq, keep = unique_rows_keep_first(arr)
    assert np.array_equal(uniq, [[1, 2], [3, 4], [5, 6]])
    assert list(keep) == [0, 1, 3]
    empty, keep0 = unique_rows_keep_first(np.empty((0, 2), dtype=np.int16))
    assert empty.shape == (0, 2) and keep0.size == 0


def void_unique_reference(arr):
    """First occurrences by sorting whole rows as void scalars."""
    view = np.ascontiguousarray(arr).view([("", arr.dtype)] * arr.shape[1]).ravel()
    return np.sort(np.unique(view, return_index=True)[1])


def rows_with_duplicates(width, count, planted, value_range, row_seed):
    rng = np.random.default_rng(row_seed)
    lo, hi = value_range
    arr = rng.integers(lo, hi, size=(count, width), dtype=np.int16)
    for _ in range(planted):
        src, dst = sorted(rng.integers(0, count, size=2))
        arr[dst] = arr[src]
    return arr


@seed(20251224)
@settings(max_examples=60, deadline=None, database=None)
@given(width=st.sampled_from([1, 6, 8, 64]), count=st.integers(1, 300),
       planted=st.integers(0, 200),
       value_range=st.sampled_from([(0, 2), (0, 4), (-32768, 32767)]),
       row_seed=st.integers(0, 2 ** 32 - 1))
def test_unique_rows_keep_first_matches_void_reference(width, count, planted,
                                                       value_range, row_seed):
    arr = rows_with_duplicates(width, count, planted, value_range, row_seed)
    want = void_unique_reference(arr)
    uniq, keep = unique_rows_keep_first(arr)
    assert np.array_equal(keep, want)
    assert np.array_equal(uniq, arr[want])


def test_unique_rows_keep_first_survives_total_key_collision(monkeypatch):
    monkeypatch.setattr(eng, "_hash_weights",
                        lambda count: np.zeros(count, dtype=np.uint64))
    for width in (1, 6, 8, 64):
        arr = rows_with_duplicates(width, 500, 300, (0, 3), width)
        assert not eng._row_keys(arr).any()  # every row collides
        uniq, keep = unique_rows_keep_first(arr)
        want = void_unique_reference(arr)
        assert np.array_equal(keep, want)
        assert np.array_equal(uniq, arr[want])


def test_table_context_dies_with_its_group_ring():
    rg = make("M2F2", "C2")
    ctx = weakref.ref(table_context(rg))
    gc.disable()
    try:
        del rg
        assert ctx() is None
    finally:
        gc.enable()


def test_bare_ring_dies_after_a_search():
    # the search caches the ring's tables on the ring; they must not hold
    # the ring, or only the cycle collector could free it
    R = zmod_ring(4)
    ring = weakref.ref(R)
    gc.disable()
    try:
        assert minimal_jordan_index(spanning_set(R)) == 3
        del R
        assert ring() is None
    finally:
        gc.enable()


def test_candidate_block_order_is_row_major():
    rg = make("Z4", "C4")
    ctx = table_context(rg)
    V, _ = rows_and_elements(rg, 5, seed=71)
    monos = [(1, 0), (3, 2), (2, 1)]
    block = candidate_block(ctx, V, monos, "circle")
    assert block.shape == (15, 4)
    k = 0
    for i in range(5):
        for j, (r, g) in enumerate(monos):
            want = product_with_monomial(ctx, V[i:i + 1], r, g, "circle")[0]
            assert np.array_equal(block[k], want)
            k += 1


def test_scan_final_level_first_hit():
    rg = make("Z2", "D4")
    ctx = table_context(rg)
    V, _ = rows_and_elements(rg, 300, seed=81)
    monos = [(1, g) for g in range(8)]

    def brute(V, monos, op):
        for i in range(V.shape[0]):
            for j, (r, g) in enumerate(monos):
                out = product_with_monomial(ctx, V[i:i + 1], r, g, op)
                if not ctx.zero_row_mask(out)[0]:
                    return (i, j)
        return None

    for op in ("circle", "bracket"):
        want = brute(V, monos, op)
        assert scan_final_level(ctx, V, monos, op) == want

    zeros = np.zeros((10, 8), dtype=np.int16)
    assert scan_final_level(ctx, zeros, monos, "circle") is None
    assert scan_final_level(ctx, np.empty((0, 8), dtype=np.int16), monos, "circle") is None


def test_scan_final_level_blocked_jobs_agree(monkeypatch):
    monkeypatch.setattr(eng, "_BLOCK_CELLS", 256)  # many small blocks
    rg = make("Z2", "D4")
    ctx = table_context(rg)
    rng = np.random.default_rng(91)
    V = np.zeros((400, 8), dtype=np.int16)
    # plant a single late nonzero row so earlier blocks all come back empty
    V[353] = rng.integers(0, 2, size=8, dtype=np.int16)
    V[353, 0] = 1
    monos = [(1, 3)]
    hit = scan_final_level(ctx, V, monos, "circle")
    assert hit is not None and hit[0] == 353
