"""Jordan-nilpotency searches over group rings.

The main oracle reduces "every left-normed circle product of degree n
vanishes" to the same statement over spanning monomials (additive ring
generators times group elements); the circle product is additive in each
slot, so the two statements agree.  exhaustive_check decides the same
question over the full element space with no such reduction and is the
independent witness the reduction is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple, Union

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


def _check_degree(n: int) -> None:
    if n < 2:
        raise InvalidExponent(f"degree must be >= 2, got {n}")


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


def _nonzero_unique(ctx: _engine.TableContext, cand: np.ndarray,
                    prefixes: np.ndarray):
    """Drop zero rows, dedup by value keeping first (prefix-lex least)
    occurrence; orders output by original candidate position."""
    nz = np.flatnonzero(~ctx.zero_row_mask(cand))
    uniq, keep = _engine.unique_rows_keep_first(cand[nz])
    return uniq, prefixes[nz[keep]]


def _extend_prefixes(prefixes: np.ndarray, count: int) -> np.ndarray:
    m = prefixes.shape[0]
    reps = np.repeat(prefixes, count, axis=0)
    tail = np.tile(np.arange(count, dtype=prefixes.dtype), m)[:, None]
    return np.concatenate([reps, tail], axis=1)


_CHUNK_CELLS = 1 << 23  # bound on candidate cells materialised at once


def _next_level(ctx: _engine.TableContext, V: np.ndarray, prefixes: np.ndarray,
                pairs: Sequence[Tuple[int, int]], op: str):
    """Extend every partial in V by every monomial, pruning zeros and
    merging equal values.  Work proceeds in row chunks so the candidate
    array never balloons; chunk order preserves the global candidate
    order, so first-occurrence dedup still finds prefix-lex minima."""
    s = len(pairs)
    chunk = max(1, _CHUNK_CELLS // max(1, s * ctx.ng))
    parts = [_nonzero_unique(ctx, _engine.candidate_block(ctx, V[lo:lo + chunk], pairs, op),
                             _extend_prefixes(prefixes[lo:lo + chunk], s))
             for lo in range(0, V.shape[0], chunk)]
    if len(parts) == 1:
        return parts[0]
    return _nonzero_unique(ctx, np.concatenate([c for c, _ in parts]),
                           np.concatenate([p for _, p in parts]))


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
    _check_degree(n)
    if len(S.pairs) == 0:
        return JordanSearchResult(True, index=2)
    ctx = _table_context(S.context)
    pairs = np.asarray(S.pairs)
    V = ctx.mono_rows(pairs[:, 0], pairs[:, 1])
    prefixes = np.arange(len(S.pairs), dtype=np.int64)[:, None]
    V, prefixes = _nonzero_unique(ctx, V, prefixes)
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

# Cells (products times |G|) computed at once for the circle table: a
# batch of `step` rows against at most `size` columns fills one
# (|G|, step, size) int16 buffer of at most this many cells, and
# product_with_row's term buffer adds at most _engine._TERM_BYTES.  At 2^17
# a 4096-element context takes at most 512 calls and its transient buffers
# stay under half a megabyte next to its 32 MB table; at 2^18 the peak RSS
# of a pass over the 27 contexts of at most 4096 elements rose by 0.6 MB.
_TABLE_BATCH_CELLS = 1 << 17

# Table rows marked per step of the exhaustive level walk.
_LEVEL_BLOCK_ROWS = 16


def _full_circle_table(rg: GroupRing) -> Tuple[np.ndarray, int]:
    """Pairwise circle products over every element of the context, as a
    (size, size) table of element ids.  Cached on the context; built from
    the coordinates of each pair of actual elements through the ring's own
    tables, a batch of rows at a time, with no spanning or additivity
    shortcut.

    Each unordered pair is computed once: a batch of rows [lo, hi) is
    product_with_row's gathered operand, against the columns [0, hi), and
    fills table[lo:hi, :hi]; the batch's columns above it,
    table[:lo, lo:hi], are the transpose of table[lo:hi, :lo].  That mirror
    is exact because a o b = ab + ba and b o a = ba + ab are equal whenever
    addition commutes, which FiniteRing checks of every addition table it
    accepts.  Ids are encoded plane by plane in int16 (Horner over the
    coordinates); every id is below size <= EXHAUSTIVE_CAP."""
    cached = getattr(rg, "_full_circle", None)
    if cached is not None:
        return cached
    ctx = _engine.table_context(rg)
    size, nr, ng = rg.size, ctx.nr, ctx.ng
    rows, powers = _engine.element_rows(ctx)
    table = np.empty((size, size), dtype=np.int16)
    step = max(1, _TABLE_BATCH_CELLS // (size * ng))
    for lo in range(0, size, step):
        hi = min(lo + step, size)
        prod = _engine.product_with_row(ctx, rows[lo:hi], rows[:hi], "circle")
        ids = table[lo:hi, :hi]
        np.copyto(ids, prod[..., ng - 1])
        for h in range(ng - 2, -1, -1):
            ids *= nr
            ids += prod[..., h]
        table[:lo, lo:hi] = table[lo:hi, :lo].T
    zero_id = int(np.full(ng, ctx.rzero, dtype=np.int64) @ powers)
    rg._full_circle = (table, zero_id)
    return table, zero_id


def _exhaustive_levels(rg: GroupRing, n: int) -> Iterator[np.ndarray]:
    """The nonzero degree-k values of left-normed circle products over all
    elements, as increasing element ids, for k = 2..n; stops after the
    first empty set.

    Each level marks every circle-table entry of the previous level's
    values in a membership mask of length size, a block of table rows at a
    time, clears zero and reads the marked ids back.
    """
    table, zero_id = _full_circle_table(rg)
    values = np.flatnonzero(np.arange(rg.size) != zero_id)
    seen = np.zeros(rg.size, dtype=bool)
    for _level in range(2, n + 1):
        seen[:] = False
        for lo in range(0, values.size, _LEVEL_BLOCK_ROWS):
            seen[table[values[lo:lo + _LEVEL_BLOCK_ROWS]]] = True
        seen[zero_id] = False
        values = np.flatnonzero(seen)
        yield values
        if values.size == 0:
            return


def exhaustive_check(context: Context, n: int) -> bool:
    """Brute-force decision over all n-tuples of actual elements.

    Walks the set of degree-k partial values instead of materialising the
    tuple list; that set is exact (no linearity is assumed anywhere), so
    the verdict equals the literal nested loop.  Each level's set is a
    membership mask over every element id (see _exhaustive_levels).
    Contexts above EXHAUSTIVE_CAP elements are refused.
    """
    _check_degree(n)
    rg = _as_group_ring(context)
    if rg.size > EXHAUSTIVE_CAP:
        raise TooLarge(
            f"{rg.name} has {rg.size} elements, cap is {EXHAUSTIVE_CAP}")
    *_, last = _exhaustive_levels(rg, n)
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
    """
    ctx = _table_context(R)
    radd, rmul, zero = ctx.radd, ctx.rmul, ctx.rzero
    g = np.asarray(R.additive_generating_set(), dtype=np.intp)
    circ = radd[rmul[g[:, None], g], rmul[g, g[:, None]]]   # [i, j] = g_i o g_j
    two = bool((radd[circ, circ] == zero).all())
    ab = circ[:, :, None]
    cc = bool((radd[rmul[ab, g], rmul[g, ab]] == zero).all())
    sq = bool((rmul[ab[..., None], circ] == zero).all())
    upper = minimal_jordan_index(spanning_set(R), max_n=bound)
    return RingConditions(two, cc, sq, upper)
