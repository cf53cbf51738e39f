"""Extra structures used only by the tests."""

import numpy as np

from jrl.rings import FiniteRing, _ring_from_model


def scalar_plus_strict_upper_4x4_gf2() -> FiniteRing:
    """128-element ring: F2 multiples of the identity plus the strictly
    upper triangular 4x4 matrices over F2.

    Non-commutative, characteristic 2, and Jordan nilpotent of index
    exactly 4 (the strict upper part cubes to a nonzero corner entry but
    every length-4 product dies).  Bits: (scalar, u12, u13, u14, u23,
    u24, u34).
    """
    def unpack(i):
        return tuple((i >> k) & 1 for k in range(7))

    elements = [unpack(i) for i in range(128)]

    def add(x, y):
        return tuple((u + v) % 2 for u, v in zip(x, y))

    def mul(x, y):
        a, p12, p13, p14, p23, p24, p34 = x
        b, q12, q13, q14, q23, q24, q34 = y
        return (
            a * b % 2,
            (a * q12 + b * p12) % 2,
            (a * q13 + b * p13 + p12 * q23) % 2,
            (a * q14 + b * p14 + p12 * q24 + p13 * q34) % 2,
            (a * q23 + b * p23) % 2,
            (a * q24 + b * p24 + p23 * q34) % 2,
            (a * q34 + b * p34) % 2,
        )

    return _ring_from_model("U4F2", elements, add, mul, unpack(0), unpack(1))


def relabelled_z4() -> FiniteRing:
    """Z/4 with its elements listed as 0, 1, 3, 2, so that its addition
    table is neither XOR nor addition mod 4 on indices."""
    return _ring_from_model("Z4'", [0, 1, 3, 2], lambda a, b: (a + b) % 4,
                            lambda a, b: a * b % 4, 0, 1)


def z2_times_z6() -> FiniteRing:
    """Z/2 x Z/6, componentwise: (R, +) has fields of orders 6 and 2."""
    elements = [(a, b) for b in range(6) for a in range(2)]
    return _ring_from_model("Z2xZ6", elements,
                            lambda x, y: ((x[0] + y[0]) % 2, (x[1] + y[1]) % 6),
                            lambda x, y: (x[0] * y[0] % 2, x[1] * y[1] % 6), (0, 0), (1, 1))


def z3_dual_numbers() -> FiniteRing:
    """Z3[x]/(x^2): a + b x with index a + 3 b, so (R, +) is Z/3 x Z/3, a
    non-cyclic group of odd order."""
    elements = [(a, b) for b in range(3) for a in range(3)]
    return _ring_from_model("Z3[x]/(x2)", elements,
                            lambda x, y: ((x[0] + y[0]) % 3, (x[1] + y[1]) % 3),
                            lambda x, y: (x[0] * y[0] % 3, (x[0] * y[1] + x[1] * y[0]) % 3),
                            (0, 0), (1, 0))


def permuted_ring(R: FiniteRing, perm) -> FiniteRing:
    """R with element i renamed perm[i]."""
    perm = np.asarray(perm)
    old = np.argsort(perm)                        # [new id] = old id
    add = perm[np.asarray(R.add_table)[np.ix_(old, old)]]
    mul = perm[np.asarray(R.mul_table)[np.ix_(old, old)]]
    return FiniteRing(R.name + "'", add.tolist(), mul.tolist(),
                      int(perm[R.zero]), int(perm[R.one]))


def id_addition(R: FiniteRing) -> str:
    """How R's own ids add: "xor", "mod" (modulo |R|), else "table"; the
    kernels read the last kind as several fields, or renumber it."""
    ids, add = np.arange(R.order), np.asarray(R.add_table)
    if R.zero == 0 and np.array_equal(add, ids[:, None] ^ ids):
        return "xor"
    if R.zero == 0 and np.array_equal(add, (ids[:, None] + ids) % R.order):
        return "mod"
    return "table"
