"""Finite associative rings with identity, stored as dense 0-based
addition/multiplication tables and validated exhaustively on construction."""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import (
    NoIdentity,
    NoInverse,
    NotAbelianGroup,
    NotAssociative,
    NotDistributive,
    UnknownName,
    ValidationError,
)
from .groups import (_as_table, _first_assoc_failure, _first_unfixed, _generated, _inverse_scan,
                     _powers)

_DIST_CHUNK = 64


def _first_distributive_failure(add: np.ndarray, mul: np.ndarray) -> tuple | None:
    n = add.shape[0]
    for lo in range(0, n, _DIST_CHUNK):
        hi = min(lo + _DIST_CHUNK, n)
        a = np.arange(lo, hi)
        # left: a*(b+c) == a*b + a*c
        lhs = mul[a[:, None, None], add[None, :, :]]
        rhs = add[mul[a][:, :, None], mul[a][:, None, :]]
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            i, b, c = bad[0]
            return ("left", int(i) + lo, int(b), int(c))
        # right: (b+c)*a == b*a + c*a
        lhs = mul[add[None, :, :], a[:, None, None]]
        ba = mul[:, a].T  # ba[i, b] = b * a[i]
        rhs = add[ba[:, :, None], ba[:, None, :]]
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            i, b, c = bad[0]
            return ("right", int(i) + lo, int(b), int(c))
    return None


class FiniteRing:
    """Immutable finite ring with identity over indices 0..order-1."""

    def __init__(
        self,
        name: str,
        add_table: Sequence[Sequence[int]],
        mul_table: Sequence[Sequence[int]],
        zero: int,
        one: int,
    ):
        n = len(add_table)
        add = _as_table(add_table, n)
        mul = _as_table(mul_table, n)
        if not (0 <= zero < n):
            raise NoIdentity(f"zero index {zero} out of range", (zero,))
        if not (0 <= one < n):
            raise NoIdentity(f"one index {one} out of range", (one,))
        # (add, zero) must be an abelian group
        if not np.array_equal(add, add.T):
            bad = np.argwhere(add != add.T)[0]
            raise NotAbelianGroup(f"a+b != b+a at {tuple(int(v) for v in bad)}",
                                  tuple(int(v) for v in bad))
        fail = _first_assoc_failure(add)
        if fail is not None:
            raise NotAbelianGroup(f"(a+b)+c != a+(b+c) at {fail}", fail)
        a = _first_unfixed(add, zero)   # + is commutative: one side decides
        if a is not None:
            raise NotAbelianGroup(f"zero does not fix element {a}", (zero, a))
        neg, a = _inverse_scan(add, zero)
        if a is not None:
            raise NoInverse(f"element {a} has no additive inverse", (a,))
        fail = _first_assoc_failure(mul)
        if fail is not None:
            raise NotAssociative(f"(a*b)*c != a*(b*c) at {fail}", fail)
        a = _first_unfixed(mul, one)
        if a is not None:
            raise NoIdentity(f"element {one} is not a multiplicative identity at {a}", (one, a))
        fail = _first_distributive_failure(add, mul)
        if fail is not None:
            raise NotDistributive(f"{fail[0]} distributivity fails at {fail[1:]}", fail[1:])
        for a in range(n):
            if mul[zero, a] != zero or mul[a, zero] != zero:
                raise ValidationError(f"zero does not annihilate element {a}", (zero, a))

        self.name = name
        self.order = n
        self.zero = int(zero)
        self.one = int(one)
        self.add_table = add
        self.mul_table = mul
        self.add_table.setflags(write=False)
        self.mul_table.setflags(write=False)
        self._neg = neg
        self._add_rows: List[List[int]] = [[int(x) for x in row] for row in add]
        self._mul_rows: List[List[int]] = [[int(x) for x in row] for row in mul]
        self._char: int | None = None
        self._comm: bool | None = None
        self._gens: Tuple[int, ...] | None = None

    def __repr__(self) -> str:
        return f"FiniteRing({self.name!r}, order={self.order})"

    def add(self, a: int, b: int) -> int:
        return self._add_rows[a][b]

    def mul(self, a: int, b: int) -> int:
        return self._mul_rows[a][b]

    def neg(self, a: int) -> int:
        return int(self._neg[a])

    def circle(self, a: int, b: int) -> int:
        """Jordan product ab + ba inside the ring."""
        return self.add(self.mul(a, b), self.mul(b, a))

    def characteristic(self) -> int:
        """Additive order of the multiplicative identity."""
        if self._char is None:
            powers = _powers(self.add_table, self.zero)
            self._char = int((powers[:, self.one] == self.zero).argmax()) + 1
        return self._char

    def is_commutative(self) -> bool:
        if self._comm is None:
            self._comm = bool(np.array_equal(self.mul_table, self.mul_table.T))
        return self._comm

    def additive_generating_set(self) -> Tuple[int, ...]:
        """Greedy additive generating set, lowest index first.

        Grows the additive span from {0}, repeatedly adjoining the smallest
        element outside it; not guaranteed minimal, but deterministic.
        """
        if self._gens is None:
            gens: List[int] = []
            span = _generated(self.add_table, gens, self.zero)
            while not span.all():
                gens.append(int(span.argmin()))   # the least element outside the span
                span = _generated(self.add_table, gens, self.zero)
            self._gens = tuple(gens)
        return self._gens

    def elements(self) -> range:
        return range(self.order)


# ---------------------------------------------------------------------------
# built-in rings
# ---------------------------------------------------------------------------

def _ring_from_model(
    name: str,
    elements: list,
    add: Callable,
    mul: Callable,
    zero,
    one,
) -> FiniteRing:
    """Tabulate a concrete element model (tuples, matrices, ...) into index tables."""
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    add_table = [[index[add(elements[a], elements[b])] for b in range(n)] for a in range(n)]
    mul_table = [[index[mul(elements[a], elements[b])] for b in range(n)] for a in range(n)]
    return FiniteRing(name, add_table, mul_table, index[zero], index[one])


def zmod_ring(n: int) -> FiniteRing:
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[(a * b) % n for b in range(n)] for a in range(n)]
    return FiniteRing(f"Z{n}", add, mul, 0, 1 % n)


def matrix_ring_2x2_gf2() -> FiniteRing:
    """All 2x2 matrices over the two-element field; index bits are
    (a11, a12, a21, a22) from least significant up."""
    elements = [(i & 1, (i >> 1) & 1, (i >> 2) & 1, (i >> 3) & 1) for i in range(16)]

    def add(x, y):
        return tuple((u + v) % 2 for u, v in zip(x, y))

    def mul(x, y):
        a, b, c, d = x
        e, f, g, h = y
        return ((a * e + b * g) % 2, (a * f + b * h) % 2,
                (c * e + d * g) % 2, (c * f + d * h) % 2)

    return _ring_from_model("M2F2", elements, add, mul, (0, 0, 0, 0), (1, 0, 0, 1))


def upper_triangular_2x2(char_ring: int) -> FiniteRing:
    """Upper-triangular 2x2 matrices [[a, b], [0, d]] over Z mod m;
    index = a + m*b + m^2*d."""
    m = char_ring
    elements = [(i % m, (i // m) % m, i // (m * m)) for i in range(m ** 3)]

    def add(x, y):
        return tuple((u + v) % m for u, v in zip(x, y))

    def mul(x, y):
        a, b, d = x
        e, f, g = y
        return ((a * e) % m, (a * f + b * g) % m, (d * g) % m)

    name = "T2F2" if m == 2 else f"T2Z{m}"
    return _ring_from_model(name, elements, add, mul, (0, 0, 0), (1, 0, 1))


def scalar_plus_strict_upper_3x3(scalar_mod: int) -> FiniteRing:
    """Z/m multiples of the identity (m even) plus the strictly upper-
    triangular 3x3 matrices over F2, so twice any nilpotent part is zero:
    H16 at m = 2, H32 at m = 4.  Index = scalar + m*(u12 + 2*u13 + 4*u23)."""
    m = scalar_mod
    elements = [(i % m, (i // m) & 1, (i // m >> 1) & 1, (i // m >> 2) & 1)
                for i in range(8 * m)]

    def add(x, y):
        return ((x[0] + y[0]) % m, (x[1] + y[1]) % 2, (x[2] + y[2]) % 2, (x[3] + y[3]) % 2)

    def mul(x, y):
        a, p, q, r = x
        b, s, t, u = y
        # (a + U)(b + V) = ab + aV + bU + UV, with UV landing on the (1,3) slot
        return ((a * b) % m, (a * s + b * p) % 2,
                (a * t + b * q + p * u) % 2, (a * u + b * r) % 2)

    return _ring_from_model(f"H{8 * m}", elements, add, mul, (0, 0, 0, 0), (1, 0, 0, 0))


BUILTIN_RING_NAMES = ("Z2", "Z4", "Z8", "Z16", "M2F2", "T2F2", "T2Z4", "H16", "H32")


@lru_cache(maxsize=None)
def builtin_ring(name: str) -> FiniteRing:
    """Look up a built-in ring; accepts M2(F2)-style spellings too."""
    key = name.replace("(", "").replace(")", "")
    if key == "M2F2":
        return matrix_ring_2x2_gf2()
    if key == "T2F2":
        return upper_triangular_2x2(2)
    if key == "T2Z4":
        return upper_triangular_2x2(4)
    if key in ("H16", "H32"):
        return scalar_plus_strict_upper_3x3(2 if key == "H16" else 4)
    if key.startswith("Z") and key[1:].isdigit() and int(key[1:]) >= 2:
        return zmod_ring(int(key[1:]))
    raise UnknownName(f"unknown ring {name!r}")
