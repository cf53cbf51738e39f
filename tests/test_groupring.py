"""Scalar group-ring arithmetic, pinned against a dict-of-terms model,
and the vectorized kernels pinned against the scalar layer."""

import functools
import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

import jrl._engine as eng
from jrl._engine import (
    TableContext,
    candidate_block,
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
from jrl.errors import AlgebraError, ContextMismatch, EmptySequence, InvalidElement
from jrl.groupring import (
    GroupRing,
    circle,
    format_element,
    gr_add,
    gr_mul,
    gr_neg,
    left_normed_jordan,
    left_normed_lie,
    lie_bracket,
)
from jrl.groups import builtin_group, cyclic_group
from jrl.nilpotency import minimal_jordan_index, spanning_set
from jrl.rings import builtin_ring, zmod_ring
from support_rings import (
    id_addition, permuted_ring, relabelled_z4, scalar_plus_strict_upper_4x4_gf2)


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
    # wrong length, out of range, or not an integer: a float must not
    # truncate to an index
    for coeffs in ([0, 0], [0, 0, 0, 9], [0, 0, 0, -1], [0, 1.5, 0, 0], [0, 1.0, 0, 0],
                   [None, 0, 0, 0]):
        with pytest.raises(InvalidElement):
            rg1.element(coeffs)
    assert issubclass(InvalidElement, AlgebraError) and issubclass(InvalidElement, ValueError)
    assert rg1.element([np.int64(1), 0, np.int16(2), 0]) == rg1.element([1, 0, 2, 0])


@pytest.mark.parametrize("coeffs", [None, 3, 2.5, object()])
def test_element_refuses_coefficients_that_are_no_sequence(coeffs):
    rg = make("Z4", "C4")
    with pytest.raises(InvalidElement, match="must be a sequence"):
        rg.element(coeffs)
    assert rg.element(np.array([1, 0, 2, 0])) == rg.element(iter([1, 0, 2, 0]))


def test_embed_is_the_monomial_and_checks_its_indices():
    rg = make("Z4", "C4")
    for r in range(4):
        for g in range(4):
            coeffs = [0] * 4
            coeffs[g] = r
            assert rg.embed(r, g) == rg.element(coeffs)
    # a negative group index must not wrap to the last coefficient
    for r, g in [(0, -1), (1, -4), (1, 4), (-1, 0), (4, 0),
                 (1.5, 0), (1, 2.0), (None, 0), (1, None)]:
        with pytest.raises(InvalidElement):
            rg.embed(r, g)


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

def check_product_circle_expansion(R, a: int, b: int, c: int) -> bool:
    """(ab) o c should expand to a(b o c) + (c o a)b - 2acb inside R."""
    lhs = R.circle(R.mul(a, b), c)
    acb = R.mul(R.mul(a, c), b)
    rhs = R.add(
        R.mul(a, R.circle(b, c)),
        R.add(R.mul(R.circle(c, a), b), R.neg(R.add(acb, acb))),
    )
    return lhs == rhs


def check_monomial_circle_expansion(ctx: GroupRing, alpha: int, beta: int,
                                    x: int, y: int) -> bool:
    """(alpha x) o (beta y) should equal (alpha o beta) yx + alpha beta yx((x,y) - 1)."""
    R, G = ctx.ring, ctx.group
    lhs = circle(ctx.embed(alpha, x), ctx.embed(beta, y))
    yx = G.mul(y, x)
    s = G.commutator(x, y)
    tail = gr_mul(
        ctx.embed(R.mul(alpha, beta), yx),
        gr_add(ctx.embed(R.one, s), gr_neg(ctx.one())),
    )
    rhs = gr_add(ctx.embed(R.circle(alpha, beta), yx), tail)
    return lhs == rhs


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

def product_with_monomial(ctx, P, r: int, g: int, op: str) -> np.ndarray:
    """circle or bracket of every row of P with the monomial r*g: the
    one-monomial case of candidate_block."""
    return candidate_block(ctx, P, ((r, g),), op)


ENGINE_CONTEXTS = [
    ("Z2", "D4"),      # xor
    ("Z8", "S3"),      # one field of order 8
    ("M2F2", "Q8"),    # xor, non-commutative ring
    ("T2Z4", "D4"),    # three fields of order 4
    ("H32", "S3"),     # fields of orders 4, 2, 2, 2
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


def table_kernels(R, G):
    """rows_mul, rows_add and rows_neg through R's own tables, in R's ids,
    with no adder: the reference the adder's sums are held to."""
    add, mul, neg = (np.asarray(t, dtype=np.intp) for t in (R.add_table, R.mul_table, R._neg))
    cols = np.asarray(G.table)[np.asarray(G._inv)]          # [g, h] = g^-1 h

    def rows_mul(A, B):
        out = np.full(A.shape, R.zero, dtype=np.intp)
        for g in range(G.order):
            out = add[out, mul[A[:, g:g + 1], B[:, cols[g]]]]
        return out.astype(np.int16)
    return rows_mul, lambda A, B: add[A, B].astype(np.int16), lambda A: neg[A].astype(np.int16)


@pytest.mark.parametrize("ring,group", ENGINE_CONTEXTS)
def test_fast_and_generic_folds_agree(ring, group):
    # the adder's native sums against gathers from the ring's own tables
    rg = make(ring, group)
    base = table_context(rg)
    mul, add, neg = table_kernels(rg.ring, rg.group)
    A, _ = rows_and_elements(rg, 80, seed=31)
    B, _ = rows_and_elements(rg, 80, seed=32)
    wants = {rows_mul: mul(A, B), rows_add: add(A, B),
             rows_circle: add(mul(A, B), mul(B, A)),
             rows_bracket: add(mul(A, B), neg(mul(B, A)))}
    for kernel, want in wants.items():
        got = kernel(base, A, B)
        assert got.dtype == want.dtype and np.array_equal(got, want), kernel.__name__
    got = rows_neg(base, A)
    assert got.dtype == np.int16 and np.array_equal(got, neg(A))


# --- the row-blocked fold across block edges ----------------------------------

def rows_kind(ctx):
    """The sum that rows_mul's fold takes: XOR, one field mod |R|, or
    several fields in slots ("native"); "table" marks a ring whose own ids
    do not add per field, so that its context renumbers them."""
    if not np.array_equal(ctx.ids, np.arange(ctx.nr)):
        return "table"
    return "xor" if ctx.adder.xor else "mod" if len(ctx.adder.fields) == 1 else "native"


def read_only_rows(rg, count, seed):
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, rg.ring.order, size=(count, rg.group.order)).astype(np.int16)
    rows.setflags(write=False)   # an in-place write to an input raises
    return rows


def check_fold_across_block_edges(rg, kind):
    """rows_mul at 0 and 1 rows, one row either side of a block, one full
    block, and several blocks with a partial last one: int16, C-contiguous,
    equal to the fold through the ring's own tables on every row and to
    gr_mul on the rows at the block edges.  Rows are drawn in ring ids and
    mapped through the context's numbering."""
    ctx = table_context(rg)
    assert rows_kind(ctx) == kind
    table_mul = table_kernels(rg.ring, rg.group)[0]
    canon, ids = ctx.canon, ctx.ids
    ng = rg.group.order
    block = max(1, eng._FOLD_CELLS // ng)
    for count in (0, 1, block - 1, block, block + 1, 3 * block + 5):
        A = read_only_rows(rg, count, seed=count)
        B = read_only_rows(rg, count, seed=count + 7)
        got = rows_mul(ctx, canon[A], canon[B])
        assert got.dtype == np.int16 and got.flags.c_contiguous, count
        assert got.shape == (count, ng), count
        got = ids[got]
        assert np.array_equal(got, table_mul(A, B)), count
        edges = {i for lo in range(0, count, block) for i in (lo, lo + block - 1)}
        for i in sorted(i for i in edges | {count - 1} if 0 <= i < count):
            want = gr_mul(rg.element([int(v) for v in A[i]]),
                          rg.element([int(v) for v in B[i]]))
            assert tuple(int(v) for v in got[i]) == want.coeffs, (count, i)


@pytest.mark.parametrize("ring,group,kind", [
    ("M2F2", "D4", "xor"), ("M2F2", "D4xD4", "xor"),
    ("Z8", "D4", "mod"), ("Z8", "D4xD4", "mod"),
    ("T2Z4", "D4", "native"), ("T2Z4", "D4xD4", "native"),
    ("Z4'", "D4", "table"), ("Z4'", "D4xD4", "table"),   # renumbered, then one field
])
def test_fold_across_block_edges(ring, group, kind):
    R = relabelled_z4() if ring == "Z4'" else builtin_ring(ring)
    check_fold_across_block_edges(GroupRing(R, builtin_group(group)), kind)


@pytest.mark.parametrize("ring,fields", [
    ("Z2", (2,)), ("Z4", (4,)), ("Z8", (8,)), ("Z16", (16,)),
    ("M2F2", (2, 2, 2, 2)), ("T2F2", (2, 2, 2)), ("T2Z4", (4, 4, 4)),
    ("H16", (2, 2, 2, 2)), ("H32", (4, 2, 2, 2)), ("U4F2", (2,) * 7), ("Z4'", (4,)),
])
def test_ring_fields_are_detected(ring, fields):
    # every built-in ring, and U4F2, is numbered canonically already; Z4'
    # lists 0, 1, 3, 2, which its context renumbers as 0, 1, 2, 3
    R = {"U4F2": scalar_plus_strict_upper_4x4_gf2, "Z4'": relabelled_z4}.get(
        ring, functools.partial(builtin_ring, ring))()
    ctx = table_context(GroupRing(R, builtin_group("C2")))
    assert ctx.adder.fields == fields
    assert ctx.ids.tolist() == ([0, 1, 3, 2] if ring == "Z4'" else list(range(R.order)))
    assert np.array_equal(ctx.canon[ctx.ids], np.arange(R.order))


def test_native_fold_slots_at_their_bound():
    # T2Z4[S3]: three fields of order 4, six terms of 3 each fill 5 bits a
    # slot, so the int16 total uses all 15 bits; a ones row times a row of
    # id 63 (3 in every field) sums 18 = 2 mod 4 in every field, id 42.
    rg = make("T2Z4", "S3")
    ctx = table_context(rg)
    assert ctx.adder.encode(ctx.rmul, 6)[0].dtype == np.int16 and rows_kind(ctx) == "native"
    ones = np.full((3, 6), rg.ring.one, dtype=np.int16)
    top = np.full((3, 6), 63, dtype=np.int16)
    assert (rows_mul(ctx, ones, top) == 42).all()
    check_fold_across_block_edges(rg, "native")


def test_fold_falls_back_when_slots_overflow_int32():
    # H32 over C128: 9 + 3 * 8 slot bits do not fit int32, so the fold sums
    # in int64, and still matches gr_mul at the block edges.
    rg = GroupRing(builtin_ring("H32"), cyclic_group(128))
    ctx = table_context(rg)
    assert ctx.adder.fields == (4, 2, 2, 2)
    assert ctx.adder.encode(ctx.rmul, 128)[0].dtype == np.int64
    check_fold_across_block_edges(rg, "native")


@functools.lru_cache(maxsize=None)
def zmod_over_c128(order):
    """Z_order[C128], built once per module: validating Z258 takes a second."""
    return GroupRing(zmod_ring(order), cyclic_group(128))


def test_mod_fold_with_an_int32_total():
    # |G| (|R| - 1) = 128 * 257 overflows int16, so the mod fold sums in int32
    rg = zmod_over_c128(258)
    assert rg.group.order * (rg.ring.order - 1) > np.iinfo(np.int16).max
    ctx = table_context(rg)
    assert ctx.adder.encode(ctx.rmul, 128)[0].dtype == np.int32
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


def any_ring(name):
    """A built-in ring, or Z3, Z6 or the relabelled Z4'."""
    return {"Z3": functools.partial(zmod_ring, 3), "Z6": functools.partial(zmod_ring, 6),
            "Z4'": relabelled_z4}.get(name, functools.partial(builtin_ring, name))()


# xor, one field, packed fields, an odd radix, and a renumbered ring
@pytest.mark.parametrize("ring,group", ENGINE_CONTEXTS + [("Z3", "S3"), ("Z4'", "D4")])
def test_product_with_row_matches_scalar(ring, group):
    # [i, h, x, v] is coordinate h of row i circled with the monomial v x,
    # in canonical ids; read-only rows, so an in-place write raises
    rg = GroupRing(any_ring(ring), builtin_group(group))
    ctx = table_context(rg)
    nr, ng, ids = ctx.nr, ctx.ng, ctx.ids
    P, els = rows_and_elements(rg, 4, seed=61)
    P = ctx.canon[P]
    P.setflags(write=False)
    got = product_with_row(ctx, P)
    assert got.dtype == np.int16 and got.shape == (4, ng, ng, nr)
    for i, e in enumerate(els):
        for x in range(ng):
            for v in range(nr):
                want = circle(e, rg.embed(int(ids[v]), x)).coeffs
                assert tuple(int(c) for c in ids[got[i, :, x, v]]) == want, (i, x, v)


# contexts whose element ids add by XOR, by one field mod 8, by packed
# fields (Z8[C4] and T2Z4[C2] have 4096 elements), by slots in an odd
# radix, and in a renumbered ring
ADDER_CONTEXTS = [("Z2", "C8"), ("Z8", "C1"), ("Z8", "C4"), ("T2Z4", "C2"), ("H32", "C2"),
                  ("Z3", "S3"), ("Z6", "C4"), ("Z4'", "S3")]


@seed(20261020)
@settings(max_examples=80, deadline=None, database=None)
@given(context=st.sampled_from(ADDER_CONTEXTS), data=st.data())
def test_group_ring_adder_sums_element_ids(context, data):
    # Adder(fields * |G|) on element ids against the ring's own addition
    # on every coordinate of element_rows
    ring, group = context
    rg = GroupRing(any_ring(ring), builtin_group(group))
    ctx = table_context(rg)
    size = rg.size
    ids = st.integers(0, size - 1) | st.integers(max(0, size - 4), size - 1)
    pairs = np.array(data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=40)),
                     dtype=np.int16)
    got = eng.Adder(ctx.adder.fields * ctx.ng).add(pairs[:, 0], pairs[:, 1])
    rows, add = eng.element_rows(ctx), np.asarray(rg.ring.add_table)
    want = ctx.canon[add[ctx.ids[rows[pairs[:, 0]]], ctx.ids[rows[pairs[:, 1]]]]]
    assert got.dtype == np.int16 and np.array_equal(rows[got], want)


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
@given(width=st.sampled_from([1, 4, 6, 8, 16, 64]), count=st.integers(1, 300),
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
    exact = eng._unique_rows_exact
    calls = []
    monkeypatch.setattr(eng, "_unique_rows_exact",
                        lambda arr: calls.append(arr.shape) or exact(arr))
    for width in (1, 6, 8, 64):
        arr = rows_with_duplicates(width, 500, 300, (0, 3), width)
        assert not eng._row_keys(arr).any()  # every row collides
        uniq, keep = unique_rows_keep_first(arr)
        want = void_unique_reference(arr)
        assert np.array_equal(keep, want)
        assert np.array_equal(uniq, arr[want])
    assert calls == [(500, width) for width in (1, 6, 8, 64)]


@pytest.mark.parametrize("group", ["C1", "C2", "S3", "D4", "D4xD4"])
@pytest.mark.parametrize("ring,shift", [("Z4", 0), ("M2F2", 0), ("T2Z4", 5)])
def test_zero_row_mask_matches_entrywise_compare(ring, shift, group):
    # widths 1, 2, 6, 8 and 64: below a word, a non-word width, and whole
    # words; the shifted ring has a zero index of 5, set in every lane, which
    # its context numbers 0 as it numbers every zero
    R = builtin_ring(ring)
    if shift:
        R = permuted_ring(R, (np.arange(R.order) + shift) % R.order)
    ctx = TableContext(GroupRing(R, builtin_group(group)))
    ng, zero = ctx.ng, R.zero
    assert ctx.canon[zero] == 0
    rng = np.random.default_rng(ng)
    random = rng.integers(0, ctx.nr, size=(200, ng)).astype(np.int16)
    random[::7] = zero
    lanes = np.full((ng, ng), zero, dtype=np.int16)   # row j: nonzero at j only
    lanes[np.arange(ng), np.arange(ng)] = (zero + 1) % ctx.nr
    rows = np.concatenate([random, np.full((3, ng), zero, dtype=np.int16), lanes])
    got = ctx.zero_row_mask(ctx.canon[rows])
    assert got.dtype == bool
    assert np.array_equal(got, (rows == zero).all(axis=1))
    assert not got[-ng:].any() and got[200:203].all()
    assert ctx.zero_row_mask(rows[:0]).shape == (0,)


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
    monkeypatch.setattr(eng, "_TILE_CELLS", 256)  # many small tiles
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


# --- the coefficient-grouped monomial kernel ----------------------------------

# How each ring's own ids add (see id_addition): the last two add per
# field, several fields to an id.
KERNEL_CONTEXTS = [
    ("M2F2", "D4", "xor"),
    ("Z8", "D4", "mod"),
    ("T2Z4", "D4", "table"),
    ("H32", "S3", "table"),
]


def shuffled_monomials(rg, seed):
    """Three ring coefficients in random order, so each repeats away from
    its other uses, then one coefficient five times in a row."""
    rng = np.random.default_rng(seed)
    coeffs = rng.choice(np.arange(1, rg.ring.order), size=3, replace=False)
    rs = [*rng.choice(coeffs, size=9), *[coeffs[0]] * 5]
    return [(int(r), int(rng.integers(rg.group.order))) for r in rs]


# Tile sizes in products per |G|: the default; 15 monomials per tile, so
# the widest run (5) gives three-row tiles and seven rows end in a partial
# one; 2, so every run is cut into runs of at most two.
@pytest.mark.parametrize("ring,group,kind", KERNEL_CONTEXTS)
@pytest.mark.parametrize("op", ["circle", "bracket"])
@pytest.mark.parametrize("tile", [None, 15, 2])
def test_candidate_block_matches_scalar(monkeypatch, ring, group, kind, op, tile):
    rg = make(ring, group)
    ctx = TableContext(rg)   # a fresh context holds no plan from another tile size
    assert id_addition(rg.ring) == kind
    if tile is not None:
        monkeypatch.setattr(eng, "_TILE_CELLS", tile * rg.group.order)
    P, els = rows_and_elements(rg, 7, seed=101)
    monos = shuffled_monomials(rg, seed=102)
    scalar = circle if op == "circle" else lie_bracket
    got = candidate_block(ctx, P, monos, op).reshape(7, len(monos), -1)
    for i, e in enumerate(els):
        for j, (r, g) in enumerate(monos):
            assert tuple(int(v) for v in got[i, j]) == scalar(e, rg.embed(r, g)).coeffs
    # zero rows first, so the first hit lies past the first tile
    P[:4] = rg.ring.zero
    got = candidate_block(ctx, P, monos, op)
    nonzero = np.flatnonzero(~ctx.zero_row_mask(got))
    want = None if nonzero.size == 0 else divmod(int(nonzero[0]), len(monos))
    assert want is None or want[0] >= 4
    assert scan_final_level(ctx, P, monos, op) == want


def test_scan_final_level_takes_the_least_hit_across_coefficient_groups():
    # Over Z8[C1], v o r = 2vr.  Row 0 (v = 2) vanishes against r = 2 and
    # not against r = 1; row 1 (v = 1) does not vanish against r = 2.  The
    # r = 2 group comes first and hits row 1; the r = 1 group hits row 0,
    # which is the first hit in (row, monomial) order.
    rg = make("Z8", "C1")
    ctx = TableContext(rg)
    V = np.array([[2], [1]], dtype=np.int16)
    monos = [(2, 0), (1, 0)]
    assert candidate_block(ctx, V, monos, "circle").ravel().tolist() == [0, 4, 4, 2]
    assert scan_final_level(ctx, V, monos, "circle") == (0, 1)


def degree_one_frontier(rg):
    S = spanning_set(rg)
    ctx = TableContext(rg)
    pairs = np.asarray(S.pairs)
    V = ctx.mono_rows(pairs[:, 0], pairs[:, 1])
    return ctx, V[~ctx.zero_row_mask(V)], S.pairs


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernel_memory_is_bounded():
    # fresh contexts, so each call also builds its plan
    rg = make("M2F2", "D4xD4")
    ctx, V, pairs = degree_one_frontier(rg)
    assert V.shape == (256, 64)
    out, peak = traced_peak(candidate_block, ctx, V, pairs, "circle")
    assert out.nbytes == 256 * 256 * 64 * 2
    assert peak <= out.nbytes + (1 << 20)
    del out
    ctx, V, pairs = degree_one_frontier(rg)
    hit, peak = traced_peak(scan_final_level, ctx, V, pairs, "circle")
    assert hit is not None and peak <= 1 << 20
