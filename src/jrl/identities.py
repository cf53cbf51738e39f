"""Identity suite for group-ring arithmetic.

The suite is one table with a row per check: its name, its domain (one
size per coordinate; an _ELEMENT coordinate ranges over every element of
the group ring), a seed offset, and a vectorised test that returns both
sides of the identity for a batch of tuples.  One rule runs every row: a
domain of at most EXHAUSTIVE_CELL_LIMIT tuples is enumerated, a larger one
is sampled with a generator seeded by seed + offset, so runs are
reproducible, and the sampled checks together see at least
MIN_SAMPLED_AGGREGATE tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import List

import numpy as np

from . import _engine
from .groupring import GroupRing

EXHAUSTIVE_CELL_LIMIT = 2_000_000
DEFAULT_SAMPLES = 1500
MIN_SAMPLED_AGGREGATE = 10_000
_MONO_CHUNK = 1 << 16
_ELEMENT = "element"  # a domain coordinate over whole group-ring elements


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    mode: str            # "exhaustive" or "sampled"
    tuples: int
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0


def run_identity_suite(rg: GroupRing, samples: int = DEFAULT_SAMPLES,
                       seed: int = 0) -> List[IdentityCheck]:
    """Run every identity check against one context and report each one."""
    ctx = _engine.table_context(rg)
    ng, nr, rzero, one = ctx.ng, ctx.nr, ctx.rzero, rg.ring.one
    gmul, inv, radd, rmul, rneg = ctx.gmul, ctx.ginv, ctx.radd, ctx.rmul, ctx.rneg
    add, neg = partial(_engine.rows_add, ctx), partial(_engine.rows_neg, ctx)
    mul = partial(_engine.rows_mul, ctx)
    circle = partial(_engine.rows_circle, ctx)
    bracket = partial(_engine.rows_bracket, ctx)
    mono = ctx.mono_rows

    ids = np.arange(ng)
    comm = gmul[gmul[inv[:, None], inv[None, :]], gmul]  # [x, y] = x^-1 y^-1 x y
    conj = gmul[gmul[inv[None, :], ids[:, None]], ids]   # [x, y] = y^-1 x y
    circ = radd[rmul, rmul.T]                           # [a, b] = a o b in R

    # A product of two monomials is one coefficient at one position, so
    # both sides of a monomial identity are built straight from the tables
    # and compared as coefficient rows (coinciding positions add in R).
    def mono_circle(r, x, s, y):       # (r x) o (s y) as rows
        return add(mono(rmul[r, s], gmul[x, y]), mono(rmul[s, r], gmul[y, x]))

    def product_left(x, y, z):         # (xy, z) = (x, z)^y (y, z)
        return comm[gmul[x, y], z], gmul[conj[comm[x, z], y], comm[y, z]]

    def product_right(x, y, z):        # (x, yz) = (x, z) (x, y)^z
        return comm[x, gmul[y, z]], gmul[comm[x, z], conj[comm[x, y], z]]

    def monomial_circle(x, y):         # x o y = yx (x, y) + yx
        yx = gmul[y, x]
        return (mono_circle(one, x, one, y),
                add(mono(one, gmul[yx, comm[x, y]]), mono(one, yx)))

    def inverse_pair_circle(x, y):     # (x^-1 y^-1) o x = (x, y) y^-1 + y^-1
        return (mono_circle(one, gmul[inv[x], inv[y]], one, x),
                add(mono(one, gmul[comm[x, y], inv[y]]), mono(one, inv[y])))

    def conjugate_circle(x, y):        # (y^-1 x) o y = x (x, y) + x
        return (mono_circle(one, gmul[inv[y], x], one, y),
                add(mono(one, gmul[x, comm[x, y]]), mono(one, x)))

    def product_circle(a, b, c):       # (ab) o c = a(b o c) + (c o a)b - 2acb
        acb = rmul[rmul[a, c], b]
        return circ[rmul[a, b], c], radd[rmul[a, circ[b, c]],
                                         radd[rmul[circ[c, a], b], rneg[radd[acb, acb]]]]

    def monomial_expansion(r, s, x, y):  # (r x) o (s y) = (r o s) yx + rs yx ((x, y) - 1)
        yx, rs = gmul[y, x], rmul[r, s]
        rhs = add(mono(circ[r, s], yx), mono(rs, gmul[yx, comm[x, y]]))
        return mono_circle(r, x, s, y), add(rhs, neg(mono(rs, yx)))

    def circle_commutative(A, B):
        ab, ba = mul(A, B), mul(B, A)
        return add(ab, ba), add(ba, ab)

    def jordan(A, B):                  # (a^2 o b) o a = a^2 o (b o a), a^2 = a o a
        sq = circle(A, A)
        return circle(circle(sq, B), A), circle(sq, circle(B, A))

    def bracket_alternating(A):        # [a, a] = 0
        sq = mul(A, A)
        return add(sq, neg(sq)), rzero

    def jacobi(A, B, C):
        return add(bracket(bracket(A, B), C),
                   add(bracket(bracket(B, C), A), bracket(bracket(C, A), B))), rzero

    def circle_additive(A, B, C):
        return circle(add(A, B), C), add(circle(A, C), circle(B, C))

    def bracket_additive(A, B, C):
        return bracket(add(A, B), C), add(bracket(A, C), bracket(B, C))

    E = _ELEMENT
    table = (  # name, domain, seed offset, test
        ("commutator-of-product-left", (ng, ng, ng), 8, product_left),
        ("commutator-of-product-right", (ng, ng, ng), 9, product_right),
        ("monomial-circle", (ng, ng), 10, monomial_circle),
        ("inverse-pair-circle", (ng, ng), 11, inverse_pair_circle),
        ("conjugate-circle", (ng, ng), 12, conjugate_circle),
        ("product-circle-expansion", (nr, nr, nr), 0, product_circle),
        ("monomial-circle-expansion", (nr, nr, ng, ng), 1, monomial_expansion),
        ("circle-commutative", (E, E), 2, circle_commutative),
        ("jordan-identity", (E, E), 3, jordan),
        ("bracket-alternating", (E,), 4, bracket_alternating),
        ("bracket-jacobi", (E, E, E), 5, jacobi),
        ("circle-additive-in-slot", (E, E, E), 6, circle_additive),
        ("bracket-additive-in-slot", (E, E, E), 7, bracket_additive),
    )

    shapes = [[rg.size if d is E else d for d in dims] for _, dims, _, _ in table]
    # Contexts too big to enumerate must still see >= 10^4 random tuples
    # in total, however many of the checks end up sampled.
    will_sample = sum(math.prod(s) > EXHAUSTIVE_CELL_LIMIT for s in shapes)
    if will_sample:
        samples = max(samples, -(-MIN_SAMPLED_AGGREGATE // will_sample))
    rows = _engine.element_rows(ctx)[0] if rg.size <= EXHAUSTIVE_CELL_LIMIT else None

    checks: List[IdentityCheck] = []
    for (name, dims, salt, test), shape in zip(table, shapes):
        count = math.prod(shape)
        exhaustive = count <= EXHAUSTIVE_CELL_LIMIT
        if not exhaustive:
            rng = np.random.default_rng(seed + salt)
            drawn = [rng.integers(0, nr, size=(samples, ng)).astype(np.int16) if d is E
                     else rng.integers(0, d, size=samples) for d in dims]
            count = samples
        bad = 0
        for lo in range(0, count, _MONO_CHUNK):
            at = np.arange(lo, min(lo + _MONO_CHUNK, count))
            if exhaustive:
                coords = [rows[c] if d is E else c
                          for d, c in zip(dims, np.unravel_index(at, shape))]
            else:
                coords = [c[at] for c in drawn]
            lhs, rhs = test(*coords)
            bad += int(np.not_equal(lhs, rhs).reshape(at.size, -1).any(axis=1).sum())
        checks.append(IdentityCheck(
            name, "exhaustive" if exhaustive else "sampled", count, bad))
    return checks


def suite_passed(checks: List[IdentityCheck]) -> bool:
    return all(c.ok for c in checks)
