"""Jordan-nilpotency searches over group rings.

The main oracle reduces "every left-normed circle product of degree n
vanishes" to the same statement over spanning monomials (additive ring
generators times group elements); the circle product is additive in each
slot, so the two statements agree.  exhaustive_check decides the same
question over the full element space and is the independent witness the
reduction is tested against: its circle table only regroups each
product's defining sum by coordinate, which uses that addition is
commutative and associative with 0 as identity and that 0 annihilates,
and no distributivity or additivity in a slot.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from . import _engine
from .errors import InvalidExponent, TooLarge
from .groupring import GroupRing, GroupRingElement
from .groups import builtin_group
from .rings import FiniteRing

EXHAUSTIVE_CAP = 4096

Context = Union[GroupRing, FiniteRing]


def _as_group_ring(context: Context) -> GroupRing:
    """Group rings pass through; a bare ring is viewed over the one-element
    group, which leaves its arithmetic untouched."""
    if isinstance(context, GroupRing):
        return context
    return GroupRing(context, builtin_group("C1"))


def _table_context(context: Context) -> _engine.TableContext:
    """The numpy tables of a context.  A bare ring caches its own: they hold
    no reference back to the ring, so the cache makes no reference cycle,
    which caching the wrapping GroupRing would."""
    if isinstance(context, GroupRing):
        return _engine.table_context(context)
    cached = getattr(context, "_trivial_tables", None)
    if cached is None:
        cached = context._trivial_tables = _engine.table_context(_as_group_ring(context))
    return cached


@dataclass(frozen=True)
class SpanningSet:
    """Monomials that additively span a context, in ring-generator-major,
    group-index-minor order."""

    context: Context
    monomials: Tuple[GroupRingElement, ...]
    pairs: Tuple[Tuple[int, int], ...]

    def __len__(self) -> int:
        return len(self.pairs)


def spanning_set(context: Context) -> SpanningSet:
    rg = _as_group_ring(context)
    gens = rg.ring.additive_generating_set()
    pairs = tuple((r, g) for r in gens for g in rg.group.elements())
    monos = tuple(rg.embed(r, g) for r, g in pairs)
    # the generators span R additively by construction; every group index
    # appears, so the monomials span the whole coefficient module
    covered = {g for _, g in pairs}
    if gens and covered != set(rg.group.elements()):
        raise AssertionError("spanning monomials missed a group element")
    return SpanningSet(context, monos, pairs)


def _check_degree(n: int) -> int:
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidExponent(f"degree must be an integer, got {n!r}") from None
    if n < 2:
        raise InvalidExponent(f"degree must be >= 2, got {n}")
    return n


@dataclass(frozen=True)
class JordanSearchResult:
    """Outcome of a vanishing scan.

    Truthiness mirrors ``vanishes``.  ``index`` is the least degree, at
    most the scanned one, at which every product vanishes (None when the
    scanned degree does not vanish).  On failure ``indices`` holds the
    lexicographically first violating tuple of monomial positions and
    ``witness`` the corresponding elements.
    """

    vanishes: bool
    indices: Optional[Tuple[int, ...]] = None
    witness: Optional[Tuple[GroupRingElement, ...]] = None
    index: Optional[int] = None

    def __bool__(self) -> bool:
        return self.vanishes


def _nonzero_unique(ctx: _engine.TableContext, cand: np.ndarray):
    """cand's distinct nonzero rows, first occurrences, and their indices."""
    nz = np.flatnonzero(~ctx.zero_row_mask(cand))
    uniq, keep = _engine.unique_rows_keep_first(cand.take(nz, 0))
    return uniq, nz[keep]


_CHUNK_CELLS = 1 << 23  # bound on candidate cells materialised at once


def _next_level(ctx: _engine.TableContext, V: np.ndarray, prefixes: np.ndarray,
                pairs: Sequence[Tuple[int, int]], op: str):
    """Extend every partial in V by every monomial, pruning zeros and
    merging equal values.  Work proceeds in row chunks so the candidate
    array never balloons; chunk order preserves the global candidate
    order, so first-occurrence dedup still finds prefix-lex minima.
    Candidate c is partial c // s times monomial c % s."""
    s = len(pairs)
    chunk = max(1, _CHUNK_CELLS // max(1, s * ctx.ng))
    parts = [_nonzero_unique(ctx, _engine.candidate_block(ctx, V[lo:lo + chunk], pairs, op))
             for lo in range(0, V.shape[0], chunk)]
    if len(parts) == 1:
        V, c = parts[0]
    else:
        V, keep = _engine.unique_rows_keep_first(np.concatenate([u for u, _ in parts]))
        c = np.concatenate([at + i * chunk * s for i, (_, at) in enumerate(parts)])[keep]
    return V, np.column_stack((prefixes[c // s], c % s))


def _walk(S: SpanningSet, n: int, op: str) -> JordanSearchResult:
    """The one level walk behind the circle and bracket searches.

    Partial products are built level by level up to degree n-1: only
    nonzero partials are extended (a zero partial stays zero under every
    further factor), and equal partial values are merged while remembering
    the lexicographically least index prefix.  A frontier that empties
    gives the least vanishing degree at once; degree n itself is decided
    by the early-exit final scan, whose first hit is the first violating
    tuple in tuple order.
    """
    n = _check_degree(n)
    ctx = _table_context(S.context)
    pairs = np.asarray(S.pairs, dtype=np.intp).reshape(-1, 2)
    V, first = _nonzero_unique(ctx, ctx.mono_rows(pairs[:, 0], pairs[:, 1]))
    prefixes = first[:, None]
    if V.shape[0] == 0:
        return JordanSearchResult(True, index=2)
    for degree in range(2, n):
        V, prefixes = _next_level(ctx, V, prefixes, S.pairs, op)
        if V.shape[0] == 0:
            return JordanSearchResult(True, index=degree)
    hit = _engine.scan_final_level(ctx, V, S.pairs, op)
    if hit is None:
        return JordanSearchResult(True, index=n)
    row, j = hit
    indices = tuple(int(x) for x in prefixes[row]) + (j,)
    witness = tuple(S.monomials[i] for i in indices)
    return JordanSearchResult(False, indices, witness)


def vanishes_left_normed(S: SpanningSet, n: int) -> JordanSearchResult:
    """Decide whether every degree-n left-normed circle product over S is
    zero; the reported counterexample is the first one in tuple order."""
    return _walk(S, n, "circle")


def minimal_jordan_index(S: SpanningSet, max_n: int = 6) -> Optional[int]:
    """Least n in [2, max_n] at which every degree-n product vanishes,
    or None when no such n exists within the bound.

    Vanishing is monotone in the degree (a longer product factors through
    a shorter one), so one walk to max_n finds it.
    """
    return vanishes_left_normed(S, max_n).index


def lie_vanishes_left_normed(S: SpanningSet, n: int) -> bool:
    """Same scan for the Lie bracket; boolean only."""
    return _walk(S, n, "bracket").vanishes


# ---------------------------------------------------------------------------
# full-space oracle
# ---------------------------------------------------------------------------

# Bytes of buffers that one batch of circle-table rows may hold; a row
# takes at most _table_row_bytes of them.  At 2^19 a 4096-element context
# fills its 32 MB table in 78 to 90 batches, and a build's transient
# memory stays under 0.5 MB.  On one CPU with a 128 KB mmap threshold,
# those builds took up to 1.1 times as long at 2^18 and 1.7 at 2^17, and
# no less at 2^20 or 2^21.
_TABLE_BATCH_BYTES = 1 << 19

# Table cells per step of the exhaustive level walk, through one index buffer of
# at most 128 KB.  2^15 cut a 4096-element walk by 12% but held 360 KB, not 200,
# and doubled small ones' times (one CPU, 128 KB mmap threshold).
_LEVEL_BLOCK_CELLS = 1 << 14


def _table_row_bytes(ctx: _engine.TableContext) -> int:
    """A table row's share of a batch's transient buffers, at most.  Per
    cell of the row: the outer sum's earlier steps and its sums'
    temporaries, 2 bytes where the ring's fields add natively (XOR or
    2^w fields) and 12 where the adder spreads digits to slots of at most
    an int32 (a 4096-element table needs no wider) and decodes them
    through a scratch of that type: 10-11.6 bytes by tracemalloc on Z3[S3]
    and Z6[C4].  Per plane and monomial: product_with_row's two gathers
    and their sum's temporaries, 12 bytes natively and 18 spread
    (16.1-17.2 by tracemalloc)."""
    native = ctx.adder.xor or ctx.adder.high is not None
    return (2 if native else 12) * ctx.nr ** ctx.ng + (12 if native else 18) * ctx.ng ** 2 * ctx.nr


def _full_circle_table(context: Context) -> Tuple[np.ndarray, int]:
    """Pairwise circle products over every element of the context, as a
    (size, size) table of element ids, and the id of zero.  Cached on the
    context; a bare ring caches its own, arrays only, so no cycle.

    Plane h of a o b is the sum over x in G of a_{h x^-1} b_x + b_x a_{x^-1 h},
    and the two terms that hold b_x are plane h of a o (b_x x), the product
    with the monomial b_x x.  So one product_with_row call per batch of
    rows gives every term the batch needs, and each term's planes are
    encoded as one element id.  An element id is the base-|R| number of its
    coordinates, coordinate 0 fastest, each a canonical ring id: the
    mixed-radix number over the ring's fields repeated |G| times, so
    Adder(fields * |G|) sums whole elements.  Row a of the table is then one
    outer sum over x of the ids of a o (v x), built one coordinate at a
    time, the new coordinate on the outer axis so that numpy's inner loop
    grows to the row length; zero is id 0.

    Each entry's defining sum is only regrouped by the coordinate of b,
    which uses that + is commutative and associative; the monomials' other
    terms are products with 0, which vanish as 0 annihilates and is the
    additive identity.  FiniteRing checks all four of every ring it
    accepts.  No distributivity and no additivity in a slot is used.
    """
    cached = getattr(context, "_full_circle", None)
    if cached is not None:
        return cached
    ctx = _table_context(context)
    nr, ng = ctx.nr, ctx.ng
    size = nr ** ng
    rows = _engine.element_rows(ctx)
    adder = _engine.Adder(ctx.adder.fields * ng)
    powers = (nr ** np.arange(ng)).astype(np.int16)   # exact: size <= EXHAUSTIVE_CAP
    table = np.empty((size, size), dtype=np.int16)
    step = max(1, _TABLE_BATCH_BYTES // _table_row_bytes(ctx))
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        n = hi - lo
        terms = _engine.product_with_row(ctx, rows[lo:hi])           # [i, h, x, v]
        ids = np.einsum("ihxv,h->ixv", terms, powers)                # [i, x, v]
        total = ids[:, 0]
        for x in range(1, ng):
            out = table[lo:hi].reshape(n, nr, -1) if x == ng - 1 else None
            total = adder.add(ids[:, x, :, None], total[:, None], out=out).reshape(n, -1)
        if ng == 1:
            table[lo:hi] = total
    context._full_circle = (table, 0)
    return table, 0


def _exhaustive_levels(context: Context, n: int) -> List[np.ndarray]:
    """The nonzero degree-k values of left-normed circle products over all
    elements, as increasing element ids, for k = 2..n; stops after the
    first empty set.

    The levels are cached on the context next to its circle table and
    extended only as far as a call asks, so calls at several degrees walk
    each level once, in any order.  Each new level copies the previous
    level's table rows, a block at a time, into one index buffer, marks them
    in a membership mask of length size, clears zero and reads the marked
    ids back.  Degree 2 reads each block from its first row's column on: as
    a o b = ab + ba = b o a, the upper triangle holds every value.
    """
    table, zero_id = _full_circle_table(context)
    size = table.shape[0]
    levels = getattr(context, "_circle_levels", None)
    if levels is None:
        levels = context._circle_levels = []
    step = min(size, max(1, _LEVEL_BLOCK_CELLS // size))
    buf = np.empty(step * size, dtype=np.intp)
    while len(levels) < n - 1 and (not levels or levels[-1].size):
        values = levels[-1] if levels else np.arange(size)
        seen = np.zeros(size, dtype=bool)
        for lo in range(0, values.size, step):
            rows = values[lo:lo + step]
            first = 0 if levels else lo         # degree 2: values[lo] is lo
            block = buf[:rows.size * (size - first)].reshape(rows.size, -1)
            block[...] = table[rows, first:]
            seen[block] = True
        seen[zero_id] = False
        level = np.flatnonzero(seen)
        level.setflags(write=False)
        levels.append(level)
    return levels[:n - 1]


def exhaustive_check(context: Context, n: int) -> bool:
    """Brute-force decision over all n-tuples of actual elements.

    Walks the set of degree-k partial values instead of materialising the
    tuple list; that set is exact, so the verdict equals the literal nested
    loop.  The circle table behind it regroups each product's defining sum
    by coordinate, which uses only that addition is commutative and
    associative with 0 as its identity and that 0 annihilates; it assumes
    no distributivity and no additivity in a slot, so it is independent of
    the spanning reduction.  Commutative addition makes the table symmetric,
    so degree 2 reads only its upper triangle, rounded out to blocks of
    rows.  The sets are cached on the context, a bare ring included (see
    _exhaustive_levels).
    Contexts above EXHAUSTIVE_CAP elements are refused.
    """
    n = _check_degree(n)
    size = context.size if isinstance(context, GroupRing) else context.order
    if size > EXHAUSTIVE_CAP:
        raise TooLarge(
            f"{context.name} has {size} elements, cap is {EXHAUSTIVE_CAP}")
    *_, last = _exhaustive_levels(context, n)
    return last.size == 0


# ---------------------------------------------------------------------------
# ring-level circle conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RingConditions:
    """Circle-product facts about a bare ring used by the classifier."""

    two_circle_zero: bool        # 2(a o b) = 0 for all a, b
    circle_circle_zero: bool     # (a o b) o c = 0 for all a, b, c
    circle_square_zero: bool     # (a o b)(c o d) = 0 for all a, b, c, d
    jordan_index_upper: Optional[int]  # least vanishing degree within bound


def ring_conditions(R: FiniteRing, bound: int = 6) -> RingConditions:
    """Evaluate the circle conditions over the additive generators of R.

    Each condition is additive in every slot, so it holds on all of R
    exactly when it holds on generators.  One gather builds the circle
    products of generator pairs and one more decides each condition.
    The result is kept on R per bound; it holds no reference back to R.
    """
    cached = getattr(R, "_ring_conditions", None)
    if cached is None:
        cached = R._ring_conditions = {}
    if bound in cached:
        return cached[bound]
    radd, rmul, zero = R.add_table, R.mul_table, R.zero
    g = np.asarray(R.additive_generating_set(), dtype=np.intp)
    circ = radd[rmul[g[:, None], g], rmul[g, g[:, None]]]   # [i, j] = g_i o g_j
    two = bool((radd[circ, circ] == zero).all())
    ab = circ[:, :, None]
    cc = bool((radd[rmul[ab, g], rmul[g, ab]] == zero).all())
    sq = bool((rmul[ab[..., None], circ] == zero).all())
    upper = minimal_jordan_index(spanning_set(R), max_n=bound)
    cached[bound] = RingConditions(two, cc, sq, upper)
    return cached[bound]
