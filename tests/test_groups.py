import itertools

import numpy as np
import pytest

from jrl import groups
from jrl.errors import NoInverse, NotAssociative, UnknownName, ValidationError
from jrl.groups import (BUILTIN_GROUP_NAMES, FiniteGroup, builtin_group, center,
                        cyclic_group, derived_subgroup, dihedral_group_8, direct_product,
                        is_central, iso_class, quaternion_group, symmetric_group_3)
from support_groups import commutator_span_condition, squares_central

ALL_GROUPS = [builtin_group(n) for n in BUILTIN_GROUP_NAMES]


def order_multiset(G):
    return sorted(G.element_order(a) for a in G.elements())


def test_cyclic_table_is_addition_mod_n():
    for n in (1, 2, 3, 4, 8):
        G = cyclic_group(n)
        for a in range(n):
            for b in range(n):
                assert G.mul(a, b) == (a + b) % n
        assert G.identity == 0
        assert G.is_abelian


def test_dihedral_structure():
    # five involutions and two order-4 rotations pin the dihedral group of
    # order 8 among the order-8 groups
    G = dihedral_group_8()
    assert G.order == 8
    assert order_multiset(G) == [1, 2, 2, 2, 2, 2, 4, 4]
    assert not G.is_abelian
    assert center(G).order == 2
    assert derived_subgroup(G).order == 2


def test_quaternion_structure():
    # a single involution pins the quaternion group
    G = quaternion_group()
    assert G.order == 8
    assert order_multiset(G) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert not G.is_abelian
    assert center(G).order == 2
    assert derived_subgroup(G).order == 2
    minus_one = [a for a in G.elements() if G.element_order(a) == 2]
    assert len(minus_one) == 1
    # i^2 = j^2 = k^2 = the unique involution
    for a in G.elements():
        if G.element_order(a) == 4:
            assert G.mul(a, a) == minus_one[0]


def test_symmetric_3_structure():
    G = symmetric_group_3()
    assert G.order == 6
    assert order_multiset(G) == [1, 2, 2, 2, 3, 3]
    assert center(G).order == 1
    D = derived_subgroup(G)
    assert D.order == 3
    assert iso_class(D) == "C3"


def test_direct_product_componentwise():
    A, B = dihedral_group_8(), cyclic_group(4)
    P = direct_product(A, B)
    assert P.order == 32
    for (a, b) in itertools.product(range(A.order), range(B.order)):
        for (c, d) in itertools.product(range(A.order), range(B.order)):
            left = P.mul(a * B.order + b, c * B.order + d)
            assert left == A.mul(a, c) * B.order + B.mul(b, d)
    assert not P.is_abelian
    assert direct_product(cyclic_group(2), cyclic_group(2)).is_abelian


@pytest.mark.parametrize("G", ALL_GROUPS, ids=BUILTIN_GROUP_NAMES)
def test_commutator_and_conjugate_match_loops(G):
    for x in G.elements():
        for y in G.elements():
            # (x,y) = x^-1 y^-1 x y, spelled out
            want = G.mul(G.mul(G.mul(G.inv(x), G.inv(y)), x), y)
            assert G.commutator(x, y) == want
            # (x,y) = x^-1 (y^-1 x y), x^-1 times x conjugated by y
            assert G.commutator(x, y) == G.mul(G.inv(x), G.mul(G.mul(G.inv(y), x), y))
            assert G.mul(x, G.inv(x)) == G.identity


@pytest.mark.parametrize("G", ALL_GROUPS, ids=BUILTIN_GROUP_NAMES)
def test_derived_subgroup_matches_brute_closure(G):
    comms = {G.commutator(x, y) for x in G.elements() for y in G.elements()}
    members = set(comms) | {G.identity}
    grew = True
    while grew:
        grew = False
        for a, b in itertools.product(sorted(members), repeat=2):
            c = G.mul(a, b)
            if c not in members:
                members.add(c)
                grew = True
    D = derived_subgroup(G)
    assert D.members == tuple(sorted(members))
    # a derived subgroup of order 2 is always central
    if D.order == 2:
        assert is_central(G, D.members)


@pytest.mark.parametrize("G", ALL_GROUPS, ids=BUILTIN_GROUP_NAMES)
def test_center_matches_loops(G):
    want = {a for a in G.elements()
            if all(G.mul(a, b) == G.mul(b, a) for b in G.elements())}
    assert center(G).members == tuple(sorted(want))


# The two hypotheses of criterion 5, as the scalar definitions in
# support_groups.py, against a second reading of each off the tables.
@pytest.mark.parametrize("G", ALL_GROUPS, ids=BUILTIN_GROUP_NAMES)
def test_squares_central_matches_definition(G):
    squares = {G.mul(g, g) for g in G.elements()}
    assert squares_central(G) == (squares <= set(center(G).members))


@pytest.mark.parametrize("G", ALL_GROUPS, ids=BUILTIN_GROUP_NAMES)
def test_commutator_span_condition_matches_definition(G):
    comm = groups._commutators(G.table, G._inv)        # [x, y] = (x,y)
    powers = groups._powers(G.table, G.identity)       # [k - 1, a] = a^k

    def spans(x, y):   # (x,y) = e, or every (y,z) is a power of (x,y)
        s = comm[x, y]
        return s == G.identity or set(comm[y]) <= set(powers[:, s])
    assert commutator_span_condition(G) == all(
        spans(x, y) for x, y in itertools.product(G.elements(), repeat=2))


def test_condition_implies_cyclic_derived_and_fails_on_klein_derived():
    assert not commutator_span_condition(builtin_group("D4xD4"))
    for G in ALL_GROUPS:
        if commutator_span_condition(G):
            assert iso_class(derived_subgroup(G)) != "C2xC2"


def test_iso_class_labels():
    assert iso_class(derived_subgroup(builtin_group("D4"))) == "C2"
    assert iso_class(derived_subgroup(builtin_group("C8"))) == "C1"
    assert iso_class(derived_subgroup(builtin_group("S3"))) == "C3"
    assert iso_class(derived_subgroup(builtin_group("D4xD4"))) == "C2xC2"
    assert iso_class(center(builtin_group("S3"))) == "C1"


def test_builtin_names_and_products():
    assert builtin_group("C2xC2").order == 4
    assert builtin_group("D4xD4").order == 64
    assert builtin_group("C4xC2").order == 8
    with pytest.raises(UnknownName):
        builtin_group("F20")
    with pytest.raises(UnknownName):
        builtin_group("")


def test_builtin_group_is_cached():
    assert builtin_group("D4") is builtin_group("D4")


def test_validate_group_rejects_bad_tables():
    # last row repeats an element: no inverse for 1
    with pytest.raises(NoInverse):
        FiniteGroup("g", [[0, 1], [1, 1]], 0)
    with pytest.raises(ValidationError):
        FiniteGroup("g", [[0, 1], [1, 0]], 1)  # 1 is not an identity
    # a non-associative magma on 3 points
    table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    with pytest.raises(NotAssociative):
        FiniteGroup("g", table, 0)


def test_group_tables_are_frozen():
    G = builtin_group("D4")
    with pytest.raises(ValueError):
        G.table[0, 0] = 3


def test_element_order_divides_group_order():
    for G in ALL_GROUPS:
        for a in G.elements():
            k = G.element_order(a)
            assert G.order % k == 0
            acc = G.identity
            for _ in range(k):
                acc = G.mul(acc, a)
            assert acc == G.identity
