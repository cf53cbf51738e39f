"""Every table fact that the helpers in groups.py compute, against
brute-force scalar definitions that use only G.mul, G.inv and R.add: on
the built-in groups and rings, six direct products, and seeded
relabellings of all of them.  Then single-entry corruptions of every
built-in table, each refused with the exception class and the first
witness that a scalar scan in the constructor's order finds."""

import itertools

import numpy as np
import pytest

from jrl import _engine, groups
from jrl.errors import (NoIdentity, NoInverse, NotAbelianGroup, NotAssociative,
                        NotDistributive, ValidationError)
from jrl.groups import (BUILTIN_GROUP_NAMES, FiniteGroup, builtin_group, center,
                        derived_subgroup, direct_product, iso_class)
from jrl.rings import BUILTIN_RING_NAMES, FiniteRing, builtin_ring, zmod_ring
from support_groups import cyclic_span
from support_rings import (permuted_ring, relabelled_z4, scalar_plus_strict_upper_4x4_gf2,
                           z2_times_z6, z3_dual_numbers)

SEEDS = (0, 1)
PRODUCTS = [("C2", "D4"), ("C2", "Q8"), ("C4", "D4"), ("D4", "Q8"), ("S3", "C2"), ("C4", "C4")]
BASE_GROUPS = [builtin_group(n) for n in BUILTIN_GROUP_NAMES] + [
    direct_product(builtin_group(a), builtin_group(b)) for a, b in PRODUCTS]
BASE_RINGS = [builtin_ring(n) for n in BUILTIN_RING_NAMES] + [
    scalar_plus_strict_upper_4x4_gf2(), relabelled_z4(), z2_times_z6(), z3_dual_numbers(),
    zmod_ring(3), zmod_ring(6), zmod_ring(12)]


def relabelled_group(G, seed):
    """G with element i renamed perm[i], for a seeded permutation."""
    perm = np.random.default_rng(seed).permutation(G.order)
    old = np.argsort(perm)                        # [new id] = old id
    table = perm[np.asarray(G.table)[np.ix_(old, old)]]
    return FiniteGroup(f"{G.name}'{seed}", table, int(perm[G.identity]))


def relabelled_ring(R, seed):
    return permuted_ring(R, np.random.default_rng(seed).permutation(R.order))


GROUPS = BASE_GROUPS + [relabelled_group(G, s) for G in BASE_GROUPS for s in SEEDS]
RINGS = BASE_RINGS + [relabelled_ring(R, s) for R in BASE_RINGS for s in SEEDS]


def scalar_power(op, a, k):
    acc = a
    for _ in range(k - 1):
        acc = op(acc, a)
    return acc


def scalar_order(op, a, e):
    k, acc = 1, a
    while acc != e:
        acc, k = op(acc, a), k + 1
    return k


def scalar_closure(op, seed, e):
    """seed and e closed under op, to a fixpoint."""
    members, grew = set(seed) | {e}, True
    while grew:
        new = {op(a, b) for a in members for b in members} - members
        members |= new
        grew = bool(new)
    return members


@pytest.mark.parametrize("G", GROUPS, ids=[G.name for G in GROUPS])
def test_group_facts_match_scalar_definitions(G):
    n, e, mul, inv = G.order, G.identity, G.mul, G.inv
    elements = range(n)
    assert [inv(g) for g in elements] == [
        next(h for h in elements if mul(g, h) == e) for g in elements]
    orders = [scalar_order(mul, a, e) for a in elements]
    assert [G.element_order(a) for a in elements] == orders
    powers = groups._powers(G.table, e)
    assert powers.shape == (np.lcm.reduce(orders), n)
    assert powers.tolist() == [[scalar_power(mul, a, k) for a in elements]
                               for k in range(1, len(powers) + 1)]
    comm = [[mul(mul(inv(x), inv(y)), mul(x, y)) for y in elements] for x in elements]
    assert groups._commutators(G.table, G._inv).tolist() == comm
    want = scalar_closure(mul, {c for row in comm for c in row}, e)
    assert derived_subgroup(G).members == tuple(sorted(want))
    rng = np.random.default_rng(n)
    for size in (0, 1, 2):
        seed = rng.choice(n, size=size).tolist()
        got = np.flatnonzero(groups._generated(G.table, seed, e)).tolist()
        assert got == sorted(scalar_closure(mul, seed, e)), seed


@pytest.mark.parametrize("G", BASE_GROUPS, ids=[G.name for G in BASE_GROUPS])
def test_cyclic_tag_marks_a_generating_member(G):
    # classify reads the "C<order>" tag; criterion 5 reads it as cyclicity
    for H in (derived_subgroup(G), center(G)):
        generated = any(cyclic_span(G, m) == set(H.members) for m in H.members)
        assert (iso_class(H) == f"C{H.order}") == generated, H.members


@pytest.mark.parametrize("R", RINGS, ids=[R.name for R in RINGS])
def test_ring_facts_match_scalar_definitions(R):
    n, zero, add = R.order, R.zero, R.add
    elements = range(n)
    assert [R.neg(a) for a in elements] == [
        next(b for b in elements if add(a, b) == zero) for a in elements]
    assert R.characteristic() == scalar_order(add, R.one, zero)
    multiples = groups._powers(R.add_table, zero)
    assert multiples.tolist() == [[scalar_power(add, a, k) for a in elements]
                                  for k in range(1, len(multiples) + 1)]
    gens, span = [], {zero}
    for a in elements:                 # greedy, lowest id first
        if a not in span:
            gens.append(a)
            span = scalar_closure(add, gens, zero)
    assert R.additive_generating_set() == tuple(gens)
    # the canonical numbering: id d_0 + m_0 (d_1 + ...) is d_0 x_0 + d_1 x_1 + ...
    fields, ids = _engine._cyclic_fields(R.add_table, zero)
    bases = np.cumprod((1,) + fields)[:-1].tolist()
    assert int(np.prod(fields)) == n and sorted(ids.tolist()) == list(elements)
    xs = [int(ids[b]) for b in bases]
    assert [scalar_order(add, x, zero) for x in xs] == list(fields)
    for c in elements:
        total = zero
        for m, b, x in zip(fields, bases, xs):
            for _ in range(c // b % m):
                total = add(total, x)
        assert ids[c] == total, c


# ---------------------------------------------------------------------------
# corruptions: the constructor's exception and witness, against scalar scans
# ---------------------------------------------------------------------------

def first_assoc(t, n):
    for a, b, c in itertools.product(range(n), repeat=3):
        if t[t[a][b]][c] != t[a][t[b][c]]:
            return (a, b, c)
    return None


def first_unfixed(t, n, e):
    return next(((e, g) for g in range(n) if t[e][g] != g or t[g][e] != g), None)


def scalar_group_failure(t, e):
    """(class, witness) of FiniteGroup's first check that t fails, in its
    order; None if t is a group table."""
    n = len(t)
    for cls, witness in ((NoIdentity, first_unfixed(t, n, e)),
                         (NotAssociative, first_assoc(t, n))):
        if witness is not None:
            return cls, witness
    for g in range(n):
        right = [h for h in range(n) if t[g][h] == e]
        if not right or t[right[0]][g] != e:
            return NoInverse, (g,)
    return None


def scalar_ring_failure(add, mul, zero, one):
    """(class, witness) of FiniteRing's first check that the tables fail,
    in its order; None if they form a ring."""
    n = len(add)
    pairs = itertools.product(range(n), repeat=2)
    checks = [
        (NotAbelianGroup, lambda: next((p for p in pairs if add[p[0]][p[1]] != add[p[1]][p[0]]),
                                       None)),
        (NotAbelianGroup, lambda: first_assoc(add, n)),
        (NotAbelianGroup, lambda: next(((zero, a) for a in range(n) if add[zero][a] != a), None)),
        (NoInverse, lambda: next(((a,) for a in range(n) if zero not in add[a]), None)),
        (NotAssociative, lambda: first_assoc(mul, n)),
        (NoIdentity, lambda: first_unfixed(mul, n, one)),
        (NotDistributive, lambda: first_distributive(add, mul, n)),
        (ValidationError, lambda: next(((zero, a) for a in range(n)
                                        if mul[zero][a] != zero or mul[a][zero] != zero), None)),
    ]
    for cls, check in checks:
        witness = check()
        if witness is not None:
            return cls, witness
    return None


def first_distributive(add, mul, n, chunk=64):
    """Left, then right distributivity, over each chunk of 64 first factors."""
    for lo in range(0, n, chunk):
        block = range(lo, min(lo + chunk, n))
        for a, b, c in itertools.product(block, range(n), range(n)):
            if mul[a][add[b][c]] != add[mul[a][b]][mul[a][c]]:
                return (a, b, c)
        for a, b, c in itertools.product(block, range(n), range(n)):
            if mul[add[b][c]][a] != add[mul[b][a]][mul[c][a]]:
                return (a, b, c)
    return None


def corruptions(table, e, seed):
    """Single-entry changes of table: seeded random cells, a diagonal cell
    and a cell in e's row, each set to another seeded value."""
    n = len(table)
    rng = np.random.default_rng(seed)
    cells = [tuple(rng.integers(0, n, size=2).tolist()) for _ in range(4)]
    cells += [(int(rng.integers(n)),) * 2, (e, int(rng.integers(n)))]
    for i, j in cells:
        bad = [list(row) for row in table]
        bad[i][j] = (bad[i][j] + 1 + int(rng.integers(n - 1))) % n
        yield (i, j), bad


def raised(build):
    with pytest.raises(ValidationError) as info:
        build()
    return type(info.value), info.value.witness


@pytest.mark.parametrize("name", [g for g in BUILTIN_GROUP_NAMES if g != "C1"])
def test_corrupted_group_tables_fail_at_the_scalar_witness(name):
    G = builtin_group(name)
    for cell, bad in corruptions(G.table.tolist(), G.identity, G.order):
        want = scalar_group_failure(bad, G.identity)
        assert want is not None, cell
        assert raised(lambda: FiniteGroup("bad", bad, G.identity)) == want, cell


@pytest.mark.parametrize("name", BUILTIN_RING_NAMES)
@pytest.mark.parametrize("which", ["add", "mul"])
def test_corrupted_ring_tables_fail_at_the_scalar_witness(name, which):
    R = builtin_ring(name)
    tables = {"add": R.add_table.tolist(), "mul": R.mul_table.tolist()}
    e = R.zero if which == "add" else R.one
    for cell, bad in corruptions(tables[which], e, R.order):
        add, mul = (bad, tables["mul"]) if which == "add" else (tables["add"], bad)
        want = scalar_ring_failure(add, mul, R.zero, R.one)
        assert want is not None, cell
        assert raised(lambda: FiniteRing("bad", add, mul, R.zero, R.one)) == want, cell


def test_scans_name_the_first_of_several_faults():
    # max() on {0, 1, 2} is commutative and associative with identity 0,
    # and neither 1 nor 2 has an inverse under it
    maxes = [[max(a, b) for b in range(3)] for a in range(3)]
    with pytest.raises(NoInverse, match="element 1 has no additive inverse") as info:
        FiniteRing("bad", maxes, [[0, 0, 0], [0, 1, 2], [0, 2, 1]], 0, 1)
    assert info.value.witness == (1,)
    with pytest.raises(NoInverse, match="element 1 has no right inverse") as info:
        FiniteGroup("g", maxes, 0)
    assert info.value.witness == (1,)
    # C4 with 0 * 1 and 0 * 2 swapped: 0 fixes neither 1 nor 2
    c4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    c4[0][1], c4[0][2] = 2, 1
    with pytest.raises(NoIdentity) as info:
        FiniteGroup("g", c4, 0)
    assert info.value.witness == (0, 1)
    # the zero product is associative, and 1 fixes none of 1, 2, 3 under it
    with pytest.raises(NoIdentity) as info:
        FiniteRing("bad", [[(a + b) % 4 for b in range(4)] for a in range(4)], [[0] * 4] * 4, 0, 1)
    assert info.value.witness == (1, 1)


@pytest.mark.parametrize("table", [
    [[0, 1.5], [1.9, 0]],              # floats would truncate to a group table
    [[0, 1.2], [1, 0.7]],
    [[0, 40000], [1, 0]],              # past int16
    [[0, 2 ** 70], [1, 0]],            # past int64
    [[0, 1], [1]],                     # ragged
    [["0", "1"], ["1", "0"]],
])
def test_tables_with_bad_entries_raise_validation_error(table):
    with pytest.raises(ValidationError):
        FiniteGroup("g", table, 0)
    with pytest.raises(ValidationError):
        FiniteRing("r", table, [[0, 0], [0, 1]], 0, 1)


@pytest.mark.parametrize("dtype", [np.int8, np.uint8, np.int16, np.int32, np.uint32, np.int64,
                                   np.uint64])
def test_integer_arrays_of_any_dtype_are_accepted(dtype):
    xor = np.array([[0, 1], [1, 0]], dtype=dtype)
    assert FiniteGroup("C2", xor, 0).table.tolist() == [[0, 1], [1, 0]]
    R = FiniteRing("F2", xor, np.array([[0, 0], [0, 1]], dtype=dtype), 0, 1)
    assert R.add_table.dtype == np.int16 and R.characteristic() == 2
