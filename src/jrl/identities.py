"""Identity suite for group-ring arithmetic.

The suite is one table with a row per check: its name, its domain (one
size per coordinate; an _ELEMENT coordinate ranges over every element of
the group ring), a seed offset, and a vectorised test that returns both
sides of the identity for a batch of tuples.  One rule runs every row: a
domain of at most EXHAUSTIVE_CELL_LIMIT tuples is enumerated, a larger one
is sampled with a generator seeded by seed + offset, so runs are
reproducible, and the sampled checks together see at least
MIN_SAMPLED_AGGREGATE tuples.  Element checks take rows, or element ids
where every pair of elements can be enumerated (see _element_ids).  A
check's ms runs from the end of the one before, so set-up is charged to the
first check and the id tables to the first element check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from functools import cache, partial, reduce
from types import SimpleNamespace
from typing import List

import numpy as np

from . import _engine
from .groupring import GroupRing
from .groups import _commutators

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
    ms: float = field(default=0.0, compare=False)  # wall time of this check

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _element_ids(ctx: _engine.TableContext) -> SimpleNamespace:
    """Element arithmetic on ids (element_rows' order) through tables that
    rows_mul and rows_add fill over all pairs and rows_neg over all elements,
    at first use: the kernels are pure per row, so each tuple gets the very
    two sides that rows would give it."""
    n, weights = ctx.nr ** ctx.ng, ctx.nr ** np.arange(ctx.ng)

    @cache
    def tables():                      # product, sum, negation, circle, bracket
        rows, k = _engine.element_rows(ctx), max(1, _MONO_CHUNK // n)
        mul, add = np.empty((n, n), np.int32), np.empty((n, n), np.int32)
        for lo in range(0, n, k):      # k first elements at a time
            a, b = rows[lo:lo + k].repeat(n, 0), np.tile(rows, (min(k, n - lo), 1))
            mul[lo:lo + k].flat = _engine.rows_mul(ctx, a, b) @ weights
            add[lo:lo + k].flat = _engine.rows_add(ctx, a, b) @ weights
        neg = (_engine.rows_neg(ctx, rows) @ weights).astype(np.int32)
        return mul, add, neg, add[mul, mul.T], add[mul, neg[mul.T]]

    def op(i):                         # a n + b < n^2 <= EXHAUSTIVE_CELL_LIMIT fits int32
        return lambda a, b: tables()[i].take(a * n + b)
    return SimpleNamespace(mul=op(0), add=op(1), neg=lambda a: tables()[2].take(a),
                           circle=op(3), bracket=op(4), tables=tables, zero=0,
                           encode=lambda rows: rows @ weights)


def check_table(rg: GroupRing, element_ids: SimpleNamespace | None = None) -> tuple:
    """The suite's rows, (name, domain, seed offset, test): a test maps one
    coordinate array per domain entry to both sides of its identity, in the
    context's canonical ring ids.  The element checks take rows, or ids
    when element_ids is given."""
    ctx = _engine.table_context(rg)
    ng, nr, rmul, one = ctx.ng, ctx.nr, ctx.rmul, int(ctx.canon[rg.ring.one])
    add, neg, mul, circle, bracket = (partial(f, ctx) for f in (
        _engine.rows_add, _engine.rows_neg, _engine.rows_mul, _engine.rows_circle,
        _engine.rows_bracket))
    el = element_ids or SimpleNamespace(add=add, neg=neg, mul=mul, circle=circle,
                                        bracket=bracket, zero=0)

    gmul, inv = ctx.gmul.astype(np.intp), ctx.ginv.astype(np.intp)
    ids = np.arange(ng)
    comm = _commutators(gmul, inv)                      # [x, y] = x^-1 y^-1 x y
    conj = gmul[gmul[inv[None, :], ids[:, None]], ids]   # [x, y] = y^-1 x y
    circ = add(rmul, rmul.T)                            # [a, b] = a o b in R

    def pick(table, a, b):             # table[a, b], as one flat take
        return table.take(a * table.shape[1] + b)

    # A side of a monomial identity is a few (position, coefficient) terms,
    # one group element and one ring element per tuple.  Two sides are equal
    # in RG exactly when, at each position that a term of either side names,
    # their coefficients there add up to the same element of R (all other
    # positions are zero).  probe returns both sides' sums, one column per
    # distinct position array; equal positions of different arrays are
    # found per tuple by one equality mask per pair of arrays.
    def probe(lhs, rhs):
        places = list({id(p): p for p, _ in lhs + rhs}.values())
        same = {frozenset((id(p), id(q))): np.equal(p, q)
                for i, p in enumerate(places) for q in places[:i]}

        def sums(terms):               # [tuple, place] = the side's sum there
            side = np.empty((len(places), places[0].size), dtype=np.int16)
            for a, q in enumerate(places):
                side[a] = reduce(add, [c if p is q else np.where(
                    same[frozenset((id(p), id(q)))], c, 0) for p, c in terms])
            return side.T
        return sums(lhs), sums(rhs)

    def mono_circle(r, x, s, y, yx):   # (r x) o (s y) = rs xy + sr yx
        return [(pick(gmul, x, y), pick(rmul, r, s)), (yx, pick(rmul, s, r))]

    def product_left(x, y, z):         # (xy, z) = (x, z)^y (y, z)
        return (pick(comm, pick(gmul, x, y), z),
                pick(gmul, pick(conj, pick(comm, x, z), y), pick(comm, y, z)))

    def product_right(x, y, z):        # (x, yz) = (x, z) (x, y)^z
        return (pick(comm, x, pick(gmul, y, z)),
                pick(gmul, pick(comm, x, z), pick(conj, pick(comm, x, y), z)))

    def monomial_circle(x, y):         # x o y = yx (x, y) + yx
        yx = pick(gmul, y, x)
        return probe(mono_circle(one, x, one, y, yx),
                     [(pick(gmul, yx, pick(comm, x, y)), one), (yx, one)])

    def inverse_pair_circle(x, y):     # (x^-1 y^-1) o x = (x, y) y^-1 + y^-1
        a, y_inv = pick(gmul, inv[x], inv[y]), inv[y]
        return probe(mono_circle(one, a, one, x, pick(gmul, x, a)),
                     [(pick(gmul, pick(comm, x, y), y_inv), one), (y_inv, one)])

    def conjugate_circle(x, y):        # (y^-1 x) o y = x (x, y) + x
        a = pick(gmul, inv[y], x)
        return probe(mono_circle(one, a, one, y, pick(gmul, y, a)),
                     [(pick(gmul, x, pick(comm, x, y)), one), (x, one)])

    def product_circle(a, b, c):       # (ab) o c = a(b o c) + (c o a)b - 2acb
        acb = rmul[rmul[a, c], b]
        return circ[rmul[a, b], c], add(rmul[a, circ[b, c]],
                                        add(rmul[circ[c, a], b], neg(add(acb, acb))))

    def monomial_expansion(r, s, x, y):  # (r x) o (s y) = (r o s) yx + rs yx ((x, y) - 1)
        yx, rs = pick(gmul, y, x), pick(rmul, r, s)
        rhs = [(yx, add(pick(circ, r, s), neg(rs))),       # (r o s - rs) yx
               (pick(gmul, yx, pick(comm, x, y)), rs)]      # + rs yx (x, y)
        return probe(mono_circle(r, x, s, y, yx), rhs)

    def circle_commutative(A, B):
        ab, ba = el.mul(A, B), el.mul(B, A)
        return el.add(ab, ba), el.add(ba, ab)

    def jordan(A, B):                  # (a^2 o b) o a = a^2 o (b o a), a^2 = a o a
        aa = el.mul(A, A)              # a o a = aa + aa, from one product
        sq = el.add(aa, aa)
        return el.circle(el.circle(sq, B), A), el.circle(sq, el.circle(B, A))

    def bracket_alternating(A):        # [a, a] = 0
        sq = el.mul(A, A)
        return el.add(sq, el.neg(sq)), el.zero

    def jacobi(A, B, C):
        br = el.bracket
        return el.add(br(br(A, B), C), el.add(br(br(B, C), A), br(br(C, A), B))), el.zero

    def circle_additive(A, B, C):
        return el.circle(el.add(A, B), C), el.add(el.circle(A, C), el.circle(B, C))

    def bracket_additive(A, B, C):
        return el.bracket(el.add(A, B), C), el.add(el.bracket(A, C), el.bracket(B, C))

    E = _ELEMENT
    return (  # name, domain, seed offset, test
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


def run_identity_suite(rg: GroupRing, samples: int = DEFAULT_SAMPLES,
                       seed: int = 0) -> List[IdentityCheck]:
    """Run every identity check against one context and report each one."""
    start = time.perf_counter()
    ctx = _engine.table_context(rg)
    ids = _element_ids(ctx) if rg.size ** 2 <= EXHAUSTIVE_CELL_LIMIT else None
    table, ng, nr, E = check_table(rg, ids), ctx.ng, ctx.nr, _ELEMENT
    shapes = [[rg.size if d is E else d for d in dims] for _, dims, _, _ in table]
    # Contexts too big to enumerate must still see >= 10^4 random tuples
    # in total, however many of the checks end up sampled.
    will_sample = sum(math.prod(s) > EXHAUSTIVE_CELL_LIMIT for s in shapes)
    if will_sample:
        samples = max(samples, -(-MIN_SAMPLED_AGGREGATE // will_sample))
    rows = None if ids or rg.size > EXHAUSTIVE_CELL_LIMIT else _engine.element_rows(ctx)
    encode = ids.encode if ids else np.asarray

    checks: List[IdentityCheck] = []
    for (name, dims, salt, test), shape in zip(table, shapes):
        count = math.prod(shape)
        exhaustive = count <= EXHAUSTIVE_CELL_LIMIT
        if not exhaustive:
            rng = np.random.default_rng(seed + salt)
            drawn = [encode(rng.integers(0, nr, size=(samples, ng)).astype(np.int16))
                     if d is E else rng.integers(0, d, size=samples) for d in dims]
            count = samples
        bad = 0
        for lo in range(0, count, _MONO_CHUNK):
            at = np.arange(lo, min(lo + _MONO_CHUNK, count))
            if exhaustive:
                coords = [rows[c] if d is E and rows is not None else c
                          for d, c in zip(dims, np.unravel_index(at, shape))]
            else:
                coords = [c[at] for c in drawn]
            lhs, rhs = test(*coords)
            bad += int(np.not_equal(lhs, rhs).reshape(at.size, -1).any(axis=1).sum())
        end = time.perf_counter()
        checks.append(IdentityCheck(
            name, "exhaustive" if exhaustive else "sampled", count, bad, (end - start) * 1e3))
        start = end
    return checks


def suite_passed(checks: List[IdentityCheck]) -> bool:
    return all(c.ok for c in checks)
