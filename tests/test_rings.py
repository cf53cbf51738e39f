"""Ring tables checked against independent element models.

Each builtin ring is rebuilt here from a different representation (numpy
matrix arithmetic, plain modular ints) and compared entry by entry, so a
bug in the tabulation code cannot hide behind itself.
"""

import numpy as np
import pytest

from jrl.errors import (
    NoIdentity,
    NoInverse,
    NotAbelianGroup,
    NotAssociative,
    NotDistributive,
    UnknownName,
    ValidationError,
)
from jrl.rings import (
    BUILTIN_RING_NAMES,
    FiniteRing,
    builtin_ring,
    zmod_ring,
)

ALL_RINGS = [builtin_ring(n) for n in BUILTIN_RING_NAMES]


def ring_ids(rings):
    return [R.name for R in rings]


# --- integers mod n ---------------------------------------------------------

@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_zmod_matches_integer_arithmetic(n):
    R = zmod_ring(n)
    assert R.order == n and R.zero == 0 and R.one == 1 % n
    for a in range(n):
        for b in range(n):
            assert R.add(a, b) == (a + b) % n
            assert R.mul(a, b) == (a * b) % n
        assert R.neg(a) == (-a) % n
    assert R.characteristic() == n
    assert R.is_commutative()


# --- matrix models ----------------------------------------------------------

def m2f2_matrix(i):
    return np.array([[i & 1, (i >> 1) & 1], [(i >> 2) & 1, (i >> 3) & 1]])


def test_full_2x2_gf2_matches_numpy_matmul():
    R = builtin_ring("M2F2")
    mats = [m2f2_matrix(i) for i in range(16)]
    lut = {m.tobytes(): i for i, m in enumerate(mats)}
    assert len(lut) == 16
    for a in range(16):
        for b in range(16):
            assert R.mul(a, b) == lut[((mats[a] @ mats[b]) % 2).tobytes()]
            assert R.add(a, b) == lut[((mats[a] + mats[b]) % 2).tobytes()]
    assert np.array_equal(mats[R.one], np.eye(2, dtype=int))
    assert not R.is_commutative()
    assert R.characteristic() == 2


@pytest.mark.parametrize("m", [2, 4])
def test_triangular_2x2_matches_numpy_matmul(m):
    R = builtin_ring("T2F2" if m == 2 else "T2Z4")

    def mat(i):
        a, b, d = i % m, (i // m) % m, i // (m * m)
        return np.array([[a, b], [0, d]])

    mats = [mat(i) for i in range(m ** 3)]
    lut = {mt.tobytes(): i for i, mt in enumerate(mats)}
    for a in range(R.order):
        for b in range(R.order):
            assert R.mul(a, b) == lut[((mats[a] @ mats[b]) % m).tobytes()]
            assert R.add(a, b) == lut[((mats[a] + mats[b]) % m).tobytes()]
    assert R.characteristic() == m
    assert not R.is_commutative()


def scalar_upper_matrix(a, p, q, r):
    return np.array([[a, p, q], [0, a, r], [0, 0, a]])


def test_scalar_plus_upper_16_matches_3x3_matmul():
    R = builtin_ring("H16")

    def mat(i):
        return scalar_upper_matrix(i & 1, (i >> 1) & 1, (i >> 2) & 1, (i >> 3) & 1)

    mats = [mat(i) for i in range(16)]
    lut = {mt.tobytes(): i for i, mt in enumerate(mats)}
    for a in range(16):
        for b in range(16):
            assert R.mul(a, b) == lut[((mats[a] @ mats[b]) % 2).tobytes()]
            assert R.add(a, b) == lut[((mats[a] + mats[b]) % 2).tobytes()]
    assert R.characteristic() == 2
    assert not R.is_commutative()


def test_scalar_plus_upper_32_matches_mixed_modulus_matmul():
    # Diagonal lives mod 4, the strict upper part mod 2: multiply as integer
    # matrices, then reduce each region by its own modulus.
    R = builtin_ring("H32")

    def reduce_mixed(mt):
        out = mt % 2
        out[0, 0] = out[1, 1] = out[2, 2] = mt[0, 0] % 4
        return out

    def mat(i):
        return scalar_upper_matrix(i % 4, (i >> 2) & 1, (i >> 3) & 1, (i >> 4) & 1)

    mats = [mat(i) for i in range(32)]
    lut = {mt.tobytes(): i for i, mt in enumerate(mats)}
    for a in range(32):
        for b in range(32):
            assert R.mul(a, b) == lut[reduce_mixed(mats[a] @ mats[b]).tobytes()]
            assert R.add(a, b) == lut[reduce_mixed(mats[a] + mats[b]).tobytes()]
    assert R.characteristic() == 4
    assert not R.is_commutative()


# --- frozen facts over the whole catalog ------------------------------------

FROZEN = {
    # name: (order, characteristic, commutative, additive generators)
    "Z2": (2, 2, True, (1,)),
    "Z4": (4, 4, True, (1,)),
    "Z8": (8, 8, True, (1,)),
    "Z16": (16, 16, True, (1,)),
    "M2F2": (16, 2, False, (1, 2, 4, 8)),
    "T2F2": (8, 2, False, (1, 2, 4)),
    "T2Z4": (64, 4, False, (1, 4, 16)),
    "H16": (16, 2, False, (1, 2, 4, 8)),
    "H32": (32, 4, False, (1, 4, 8, 16)),
}


@pytest.mark.parametrize("R", ALL_RINGS, ids=ring_ids(ALL_RINGS))
def test_frozen_ring_facts(R):
    order, char, comm, gens = FROZEN[R.name]
    assert R.order == order
    assert R.characteristic() == char
    assert R.is_commutative() == comm
    assert R.additive_generating_set() == gens


@pytest.mark.parametrize("R", ALL_RINGS, ids=ring_ids(ALL_RINGS))
def test_generating_set_spans_additively(R):
    span = {R.zero}
    for g in R.additive_generating_set():
        grew = True
        span.add(g)
        while grew:
            grew = False
            for x in list(span):
                for y in list(span):
                    s = R.add(x, y)
                    if s not in span:
                        span.add(s)
                        grew = True
    assert len(span) == R.order


@pytest.mark.parametrize("R", ALL_RINGS, ids=ring_ids(ALL_RINGS))
def test_derived_operations(R):
    for a in R.elements():
        assert R.add(a, R.neg(a)) == R.zero
        for b in R.elements():
            assert R.circle(a, b) == R.add(R.mul(a, b), R.mul(b, a))
            assert R.circle(a, b) == R.circle(b, a)


def test_characteristic_is_additive_order_of_one():
    for R in ALL_RINGS:
        acc, k = R.one, 1
        while acc != R.zero:
            acc = R.add(acc, R.one)
            k += 1
        assert R.characteristic() == k


# --- lookup and construction ------------------------------------------------

def test_builtin_lookup_spellings_and_cache():
    spelled = builtin_ring("M2(F2)")
    assert spelled.name == "M2F2"
    assert np.array_equal(spelled.mul_table, builtin_ring("M2F2").mul_table)
    assert builtin_ring("Z4") is builtin_ring("Z4")
    assert builtin_ring("Z32").order == 32
    with pytest.raises(UnknownName):
        builtin_ring("GF9")
    with pytest.raises(UnknownName):
        builtin_ring("Z1")


def test_tables_are_write_protected():
    R = builtin_ring("Z4")
    with pytest.raises(ValueError):
        R.add_table[0, 0] = 1
    with pytest.raises(ValueError):
        R.mul_table[0, 0] = 1


def test_validate_ring_accepts_z3():
    R = FiniteRing("Z3", [[(a + b) % 3 for b in range(3)] for a in range(3)],
                   [[(a * b) % 3 for b in range(3)] for a in range(3)], 0, 1)
    assert isinstance(R, FiniteRing)
    assert R.characteristic() == 3


# --- rejection of broken tables ---------------------------------------------

Z4_ADD = [[(a + b) % 4 for b in range(4)] for a in range(4)]
Z4_MUL = [[(a * b) % 4 for b in range(4)] for a in range(4)]


def test_rejects_nonabelian_addition():
    from jrl.groups import builtin_group
    s3 = [list(row) for row in builtin_group("S3").table]
    mul = [[0] * 6 for _ in range(6)]
    with pytest.raises(NotAbelianGroup):
        FiniteRing("bad", s3, mul, 0, 1)


def test_rejects_missing_additive_inverse():
    # max() is commutative and associative with identity 0, but 1 has no inverse
    with pytest.raises(NoInverse):
        FiniteRing("bad", [[0, 1], [1, 1]], [[0, 0], [0, 1]], 0, 1)


def test_rejects_nonassociative_multiplication():
    mul = [list(row) for row in Z4_MUL]
    mul[2][2] = 1
    with pytest.raises(NotAssociative):
        FiniteRing("bad", Z4_ADD, mul, 0, 1)


def test_rejects_wrong_identity():
    with pytest.raises(NoIdentity):
        FiniteRing("bad", Z4_ADD, Z4_MUL, 0, 2)
    with pytest.raises(NoIdentity):
        FiniteRing("bad", Z4_ADD, Z4_MUL, 0, 7)


def test_rejects_nondistributive_product():
    # XNOR is associative with identity 1 over XOR addition, but not distributive
    with pytest.raises(NotDistributive):
        FiniteRing("bad", [[0, 1], [1, 0]], [[1, 0], [0, 1]], 0, 1)


def test_rejects_malformed_tables():
    with pytest.raises(ValidationError):
        FiniteRing("bad", [[0, 1], [1, 0]], [[0, 0], [0, 5]], 0, 1)
    with pytest.raises(ValidationError):
        FiniteRing("bad", [[0, 1, 2], [1, 0, 3], [2, 3, 0]][:2], [[0, 0], [0, 1]], 0, 1)
