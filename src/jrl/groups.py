"""Finite groups as 0-based multiplication tables, with the structure
queries the classifier needs: derived subgroup, center, commutators,
and a coarse isomorphism tag for small subgroups.

Each table fact has one private helper here, shared with rings.py and
the kernels: _as_table (entry checks), _first_assoc_failure,
_first_unfixed (identities: G's e, R's zero and one), _inverse_scan
(inverses in G, negation in R), _generated (derived_subgroup and
FiniteRing.additive_generating_set), _powers (element_order,
FiniteRing.characteristic and _engine._cyclic_fields) and _commutators
(derived_subgroup and identities.check_table).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence

import numpy as np

from .errors import NoIdentity, NoInverse, NotAssociative, UnknownName, ValidationError

_ASSOC_CHUNK = 64  # rows per broadcast slab; keeps the (chunk, n, n) cube small


def _as_table(table: Sequence[Sequence[int]], n: int) -> np.ndarray:
    """table as an int16 array, checked to be n x n integers in [0, n)."""
    try:
        arr = np.asarray(table)
    except ValueError:   # ragged rows
        raise ValidationError(f"table rows are not all of length {n}") from None
    if arr.shape != (n, n):
        raise ValidationError(f"table shape {arr.shape} does not match order {n}")
    if arr.dtype.kind not in "biu":   # floats would truncate, objects overflow
        raise ValidationError(f"table entries must be integers, not {arr.dtype}")
    if arr.size and (arr.min() < 0 or arr.max() >= n):
        bad = np.argwhere((arr < 0) | (arr >= n))[0]
        raise ValidationError(
            f"table entry {int(arr[tuple(bad)])} at {tuple(int(v) for v in bad)} "
            f"out of range [0,{n - 1}]"
        )
    return arr.astype(np.int16, copy=False)


def _first_assoc_failure(table: np.ndarray) -> tuple | None:
    """Return the first (a, b, c) with (ab)c != a(bc), scanning a-major."""
    n = table.shape[0]
    for lo in range(0, n, _ASSOC_CHUNK):
        hi = min(lo + _ASSOC_CHUNK, n)
        ab = table[lo:hi, :]                       # (m, n)
        left = table[ab[:, :, None], np.arange(n)[None, None, :]]
        right = table[np.arange(lo, hi)[:, None, None], table[None, :, :]]
        bad = np.argwhere(left != right)
        if bad.size:
            a, b, c = bad[0]
            return (int(a) + lo, int(b), int(c))
    return None


def _first_unfixed(table: np.ndarray, e: int) -> int | None:
    """The first g with e g != g or g e != g, else None."""
    g = np.arange(table.shape[0])
    bad = np.flatnonzero((table[e] != g) | (table[:, e] != g))
    return int(bad[0]) if bad.size else None


def _inverse_scan(table: np.ndarray, e: int) -> tuple:
    """Each g's first h with g h = e (else -1), and the first g whose h is
    missing or not also a left inverse (else None)."""
    hits = table == e
    inv = np.where(hits.any(axis=1), hits.argmax(axis=1), -1).astype(np.int16)
    bad = np.flatnonzero((inv < 0) | (table[inv, np.arange(table.shape[0])] != e))
    return inv, (int(bad[0]) if bad.size else None)


def _generated(table: np.ndarray, seed, e: int) -> np.ndarray:
    """Membership mask of the subgroup that seed generates: e times every
    product of seed elements (in a finite group g^-1 is a power of g)."""
    cols, inside = table[:, np.asarray(seed, dtype=np.intp)], np.zeros(len(table), dtype=bool)
    inside[e] = True
    while not inside[step := cols[inside]].all():
        inside[step] = True
    return inside


def _powers(table: np.ndarray, e: int) -> np.ndarray:
    """[k - 1, a] = a^k, for k up to the exponent (whose row is all e)."""
    powers = [np.arange(table.shape[0], dtype=table.dtype)]
    while (powers[-1] != e).any():
        powers.append(table[powers[-1], powers[0]])
    return np.array(powers)


def _commutators(table: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """[x, y] = x^-1 y^-1 x y, in table's dtype."""
    return table[table[inv[:, None], inv[None, :]], table]


class FiniteGroup:
    """Immutable finite group over element indices 0..order-1.

    The multiplication table is validated exhaustively at construction;
    instances never change afterwards.
    """

    def __init__(self, name: str, mul_table: Sequence[Sequence[int]], identity: int):
        n = len(mul_table)
        table = _as_table(mul_table, n)
        if not (0 <= identity < n):
            raise NoIdentity(f"identity index {identity} out of range", (identity,))
        g = _first_unfixed(table, identity)
        if g is not None:
            raise NoIdentity(f"element {identity} is not an identity at {g}", (identity, g))
        fail = _first_assoc_failure(table)
        if fail is not None:
            raise NotAssociative(f"(a*b)*c != a*(b*c) at {fail}", fail)
        inv, g = _inverse_scan(table, identity)
        if g is not None:
            side = "right" if inv[g] < 0 else "two-sided"
            raise NoInverse(f"element {g} has no {side} inverse", (g,))
        self.name = name
        self.order = n
        self.identity = int(identity)
        self.table = table
        self.table.setflags(write=False)
        self._inv = inv
        self._rows: List[List[int]] = [[int(x) for x in row] for row in table]
        self._abelian: bool | None = None

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name!r}, order={self.order})"

    def mul(self, a: int, b: int) -> int:
        return self._rows[a][b]

    def inv(self, a: int) -> int:
        return int(self._inv[a])

    def commutator(self, x: int, y: int) -> int:
        """x^-1 y^-1 x y."""
        return self.mul(self.mul(self.inv(x), self.inv(y)), self.mul(x, y))

    def element_order(self, a: int) -> int:
        if getattr(self, "_orders", None) is None:   # kept on G, as _derived is
            powers = _powers(self.table, self.identity)
            self._orders = ((powers == self.identity).argmax(axis=0) + 1).tolist()
        return self._orders[a]

    @property
    def is_abelian(self) -> bool:
        if self._abelian is None:
            self._abelian = bool(np.array_equal(self.table, self.table.T))
        return self._abelian

    def elements(self) -> range:
        return range(self.order)


# ---------------------------------------------------------------------------
# subgroups and structure queries
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its sorted member indices inside a parent group."""

    parent: FiniteGroup
    members: tuple

    @property
    def order(self) -> int:
        return len(self.members)


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    """Subgroup generated by all commutators x^-1 y^-1 x y, read off the
    group table in one gather.  The members are kept on G; the Subgroup
    is built per call, since keeping it would make a cycle through G."""
    members = getattr(G, "_derived", None)
    if members is None:
        seed = np.flatnonzero(np.bincount(_commutators(G.table, G._inv).ravel()))
        members = np.flatnonzero(_generated(G.table, seed, G.identity))
        members = G._derived = tuple(members.tolist())
    return Subgroup(G, members)


def center(G: FiniteGroup) -> Subgroup:
    """The elements whose table row equals their table column, kept on G
    as derived_subgroup keeps its members."""
    members = getattr(G, "_center", None)
    if members is None:
        members = np.flatnonzero((G.table == G.table.T).all(axis=1))
        members = G._center = tuple(members.tolist())
    return Subgroup(G, members)


def is_central(G: FiniteGroup, members: Sequence[int]) -> bool:
    z = set(center(G).members)
    return all(m in z for m in members)


def iso_class(H: Subgroup) -> str:
    """Coarse isomorphism tag: "C1", "C<n>" for cyclic, "C2xC2", else "other".

    Determined by the order and the multiset of element orders, which
    suffices for the subgroups the classifier inspects.
    """
    n = H.order
    orders = sorted(H.parent.element_order(m) for m in H.members)
    if max(orders) == n:
        return f"C{n}"
    if n == 4 and orders == [1, 2, 2, 2]:
        return "C2xC2"
    return "other"


# ---------------------------------------------------------------------------
# built-in groups
# ---------------------------------------------------------------------------

def cyclic_group(n: int) -> FiniteGroup:
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(f"C{n}", table, 0)


def dihedral_group_8() -> FiniteGroup:
    """Symmetries of the square, elements s^p r^i with index 4p + i.

    Presentation r^4 = s^2 = 1, s r s = r^-1.
    """
    def mul(a: int, b: int) -> int:
        p, i = divmod(a, 4)
        q, j = divmod(b, 4)
        rot = (-i if q else i) + j
        return ((p + q) % 2) * 4 + rot % 4

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return FiniteGroup("D4", table, 0)


_QUAT_UNITS = {
    # (u, v) -> (sign, unit) for units 0=1, 1=i, 2=j, 3=k
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
    (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
    (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
}


def quaternion_group() -> FiniteGroup:
    """The eight quaternion units; index = unit + 4*sign with units 1,i,j,k."""
    def mul(a: int, b: int) -> int:
        sa, ua = divmod(a, 4)
        sb, ub = divmod(b, 4)
        flip, u = _QUAT_UNITS[(ua, ub)]
        return u + 4 * ((sa + sb + flip) % 2)

    table = [[mul(a, b) for b in range(8)] for a in range(8)]
    return FiniteGroup("Q8", table, 0)


_S3_PERMS = [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]


def symmetric_group_3() -> FiniteGroup:
    """Permutations of three points in lexicographic order; a*b applies b first."""
    index = {p: i for i, p in enumerate(_S3_PERMS)}

    def mul(a: int, b: int) -> int:
        pa, pb = _S3_PERMS[a], _S3_PERMS[b]
        return index[tuple(pa[pb[x]] for x in range(3))]

    table = [[mul(a, b) for b in range(6)] for a in range(6)]
    return FiniteGroup("S3", table, 0)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Componentwise product; index encodes (a, b) as a*|H| + b."""
    m = H.order

    def mul(x: int, y: int) -> int:
        a, b = divmod(x, m)
        c, d = divmod(y, m)
        return G.mul(a, c) * m + H.mul(b, d)

    n = G.order * m
    table = [[mul(x, y) for y in range(n)] for x in range(n)]
    return FiniteGroup(f"{G.name}x{H.name}", table, G.identity * m + H.identity)


_GROUP_ATOMS = {
    "D4": dihedral_group_8,
    "Q8": quaternion_group,
    "S3": symmetric_group_3,
}

BUILTIN_GROUP_NAMES = ("C1", "C2", "C4", "C8", "C2xC2", "D4", "Q8", "S3", "D4xD4")


@lru_cache(maxsize=None)
def builtin_group(name: str) -> FiniteGroup:
    """Look up a built-in group; 'x'-joined names build direct products."""
    parts = name.split("x")
    atoms = []
    for part in parts:
        if part in _GROUP_ATOMS:
            atoms.append(_GROUP_ATOMS[part]())
        elif part.startswith("C") and part[1:].isdigit() and int(part[1:]) >= 1:
            atoms.append(cyclic_group(int(part[1:])))
        else:
            raise UnknownName(f"unknown group {name!r}")
    out = atoms[0]
    for extra in atoms[1:]:
        out = direct_product(out, extra)
    if out.name != name:  # keep the requested spelling, e.g. C2xC2
        out.name = name
    return out
