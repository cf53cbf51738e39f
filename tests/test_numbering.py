"""Results do not depend on how a ring numbers its elements.

Each case renames a ring's elements by a random permutation that moves
zero away from id 0.  The kernels, which work in the context's canonical
ids, must match the scalar arithmetic of groupring.py once ids are mapped
through the context's numbering; and the searches, the Lie scan, the
full-space check, the ring conditions and the identity suite must give
what they give on the ring as built.
"""

import numpy as np
from hypothesis import given, seed, settings, strategies as st

from jrl import _engine
from jrl.groupring import GroupRing, circle, gr_add, gr_mul, gr_neg, lie_bracket
from jrl.groups import builtin_group
from jrl.identities import run_identity_suite, suite_passed
from jrl.nilpotency import (
    SpanningSet,
    exhaustive_check,
    lie_vanishes_left_normed,
    ring_conditions,
    spanning_set,
    vanishes_left_normed,
)
from jrl.rings import FiniteRing, builtin_ring, zmod_ring
from support_rings import permuted_ring, z2_times_z6, z3_dual_numbers

RINGS = {
    "Z4": lambda: builtin_ring("Z4"), "T2Z4": lambda: builtin_ring("T2Z4"),
    "H32": lambda: builtin_ring("H32"), "M2F2": lambda: builtin_ring("M2F2"),
    "Z3": lambda: zmod_ring(3), "Z6": lambda: zmod_ring(6),
    "Z2xZ6": z2_times_z6, "Z3[x]/(x2)": z3_dual_numbers,
}
GROUPS = ("C1", "C2", "S3")


def random_permutation(order, draw_seed):
    """A permutation of range(order) that sends 0 elsewhere (order > 1)."""
    perm = np.random.default_rng(draw_seed).permutation(order)
    if order > 1 and perm[0] == 0:
        perm[[0, 1]] = perm[[1, 0]]
    return perm


def degree(R, G):
    """The search degree: deep enough to reach a vanishing level where the
    frontier stays small, and never more than the full-space check's 4."""
    return 4 if R.order ** G.order <= 4096 else 3


def check_kernels(rg, rng):
    """Every kernel against the scalar layer, on rows drawn in ring ids."""
    ctx = _engine.table_context(rg)
    canon, ids = ctx.canon, ctx.ids
    nr, ng = ctx.nr, ctx.ng
    A, B = (rng.integers(0, nr, size=(6, ng)).astype(np.int16) for _ in range(2))
    ea, eb = ([rg.element([int(v) for v in row]) for row in X] for X in (A, B))

    def coeffs(rows):
        return [tuple(int(v) for v in row) for row in ids[rows]]

    Ac, Bc = canon[A], canon[B]
    assert coeffs(_engine.rows_mul(ctx, Ac, Bc)) == [gr_mul(a, b).coeffs for a, b in zip(ea, eb)]
    assert coeffs(_engine.rows_add(ctx, Ac, Bc)) == [gr_add(a, b).coeffs for a, b in zip(ea, eb)]
    assert coeffs(_engine.rows_neg(ctx, Ac)) == [gr_neg(a).coeffs for a in ea]
    assert coeffs(_engine.rows_circle(ctx, Ac, Bc)) == [circle(a, b).coeffs for a, b in zip(ea, eb)]
    assert coeffs(_engine.rows_bracket(ctx, Ac, Bc)) == [
        lie_bracket(a, b).coeffs for a, b in zip(ea, eb)]
    monos = [(int(r), int(g)) for r, g in zip(rng.integers(0, nr, 5), rng.integers(0, ng, 5))]
    got = _engine.product_with_row(ctx, Ac).transpose(0, 2, 3, 1)   # [i, x, v, h]
    assert [coeffs(row.reshape(-1, ng)) for row in got] == [
        [circle(a, rg.embed(int(ids[v]), x)).coeffs for x in range(ng) for v in range(nr)]
        for a in ea]
    for op, scalar in (("circle", circle), ("bracket", lie_bracket)):
        got = _engine.candidate_block(ctx, Ac, monos, op).reshape(6, len(monos), ng)
        assert [coeffs(row) for row in got] == [
            [scalar(a, rg.embed(r, g)).coeffs for r, g in monos] for a in ea]


def mapped_spanning_set(S, rg, perm):
    """S carried over to rg, whose ring renames element r as perm[r]."""
    pairs = tuple((int(perm[r]), g) for r, g in S.pairs)
    return SpanningSet(rg, tuple(rg.embed(r, g) for r, g in pairs), pairs)


@seed(20261020)
@settings(max_examples=40, deadline=None, database=None)
@given(ring=st.sampled_from(sorted(RINGS)), group=st.sampled_from(GROUPS),
       draw_seed=st.integers(0, 2 ** 32 - 1))
def test_results_do_not_depend_on_the_numbering(ring, group, draw_seed):
    R, G = RINGS[ring](), builtin_group(group)
    perm = random_permutation(R.order, draw_seed)
    P = permuted_ring(R, perm)
    assert P.zero != 0
    rg, pg = GroupRing(R, G), GroupRing(P, G)
    check_kernels(pg, np.random.default_rng(draw_seed))

    n = degree(R, G)
    S = spanning_set(rg)
    want = vanishes_left_normed(S, n)
    got = vanishes_left_normed(mapped_spanning_set(S, pg, perm), n)
    assert (got.vanishes, got.index, got.indices) == (want.vanishes, want.index, want.indices)
    if not want.vanishes:
        assert [e.coeffs for e in got.witness] == [
            tuple(int(perm[c]) for c in e.coeffs) for e in want.witness]
    own = vanishes_left_normed(spanning_set(pg), n)   # P's own generators
    assert (own.vanishes, own.index) == (want.vanishes, want.index)
    assert lie_vanishes_left_normed(spanning_set(pg), n) == lie_vanishes_left_normed(S, n)
    if rg.size <= 4096:
        for k in (2, 3, 4):
            assert exhaustive_check(pg, k) == exhaustive_check(rg, k)
    assert ring_conditions(P, bound=4) == ring_conditions(R, bound=4)
    assert run_identity_suite(pg, samples=50) == run_identity_suite(rg, samples=50)


def test_canonical_numbering_of_the_extra_rings():
    # Z2 x Z6 lists (a, b) with a fastest; its context takes an element of
    # order 6 first, so it renumbers.  Z3[x]/(x^2) is canonical as built.
    for R, fields, identity in ((z2_times_z6(), (6, 2), False),
                                (z3_dual_numbers(), (3, 3), True), (zmod_ring(6), (6,), True)):
        ctx = _engine.table_context(GroupRing(R, builtin_group("C1")))
        assert ctx.adder.fields == fields and ctx.ids[0] == R.zero
        assert np.array_equal(ctx.ids, np.arange(R.order)) == identity
        # canonical addition is the per-digit sum, and zero is id 0
        digits = np.arange(R.order)[:, None] // np.cumprod((1,) + fields[:-1]) % fields
        add = ctx.canon[np.asarray(R.add_table)[np.ix_(ctx.ids, ctx.ids)]]
        want = (digits[:, None] + digits[None]) % fields @ np.cumprod((1,) + fields[:-1])
        assert np.array_equal(add, want)


def test_the_zero_ring_has_no_fields():
    rg = GroupRing(FiniteRing("Z1", [[0]], [[0]], 0, 0), builtin_group("C2"))
    ctx = _engine.table_context(rg)
    assert ctx.adder.fields == () and ctx.adder.bases == []
    zero = np.zeros((3, 2), dtype=np.int16)
    for got in (_engine.rows_add(ctx, zero, zero), _engine.rows_neg(ctx, zero),
                _engine.rows_mul(ctx, zero, zero)):
        assert np.array_equal(got, zero)
    assert suite_passed(run_identity_suite(rg))


def test_sums_past_int64_add_two_terms_at_a_time():
    # Fields (4, 2, 2, 2, 2, 2, 2) need 10 + 6 * 9 slot bits for a sum of
    # 256 terms, more than int64 has: such sums take the ids as they are,
    # add them two at a time and decode nothing.
    fields = (4, 2, 2, 2, 2, 2, 2)
    bases = np.cumprod((1,) + fields[:-1])
    adder = _engine.Adder(fields)
    ids = np.random.default_rng(5).integers(0, 256, size=(256, 40)).astype(np.int16)
    terms, add = adder.encode(ids, 256)
    assert terms is ids and add == adder.add
    total = terms[0]
    for term in terms[1:]:
        total = add(total, term)
    got = adder.decode(total, 256, np.empty(40, dtype=np.int16))
    want = (ids[..., None] // bases % fields).sum(axis=0) % fields @ bases
    assert np.array_equal(got, want)
    # rows_mul's fold takes the same path on H32[C8] once its 8-term slots
    # are withheld
    rg = GroupRing(builtin_ring("H32"), builtin_group("C8"))
    ctx = _engine.TableContext(rg)
    ctx.adder = _engine.Adder(ctx.adder.fields)
    ctx.adder._layouts[8] = (None, None)
    assert ctx.adder.encode(ctx.rmul, 8)[1] == ctx.adder.add
    rng = np.random.default_rng(5)
    A, B = (rng.integers(0, 32, size=(40, 8)).astype(np.int16) for _ in range(2))
    want = _engine.table_context(rg)
    assert np.array_equal(_engine.rows_mul(ctx, A, B), _engine.rows_mul(want, A, B))
