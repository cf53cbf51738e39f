"""Vectorized kernels for tuple searches over group-ring coefficients.

Elements are numpy rows of ring-element indices, one column per group
element.  Everything here is a faithful restatement of the scalar
arithmetic in groupring.py; the test suite pins the two against each
other on sampled inputs.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .groupring import GroupRing

_BLOCK_CELLS = 1 << 22  # target workload per final-level block


class TableContext:
    """numpy handles for one (ring, group) pair.

    radd, rmul and gmul are the ring's and group's own validated tables.
    The derived tables are kept here, once: rneg and ginv, taken from the
    ring and group that computed them at construction, ginv_cols for the
    convolution fold, and the add_is_xor / add_is_mod flags.
    """

    def __init__(self, rg: GroupRing):
        ring, group = rg.ring, rg.group
        self.radd = np.asarray(ring.add_table, dtype=np.int16)
        self.rmul = np.asarray(ring.mul_table, dtype=np.int16)
        self.rneg = np.asarray(ring._neg, dtype=np.int16)
        self.gmul = np.asarray(group.table, dtype=np.int16)
        self.nr = ring.order
        self.ng = group.order
        self.rzero = ring.zero
        ids = np.arange(self.nr)
        # When the addition table happens to be XOR on indices, or plain
        # integer addition mod the order, the convolution fold can run as
        # native arithmetic instead of repeated table gathers.
        self.add_is_xor = bool(
            self.rzero == 0
            and np.array_equal(self.radd, np.bitwise_xor.outer(ids, ids)))
        self.add_is_mod = bool(
            self.rzero == 0
            and np.array_equal(self.radd, (ids[:, None] + ids[None, :]) % self.nr))
        self.ginv = np.asarray(group._inv, dtype=np.int16)
        self.ginv_cols = self.gmul[self.ginv]   # [g, h] -> g^-1 * h

    def mono_rows(self, rs: np.ndarray, gs: np.ndarray) -> np.ndarray:
        """The monomials rs[i]*gs[i] as rows (coefficient arrays)."""
        rows = np.full((len(gs), self.ng), self.rzero, dtype=np.int16)
        rows[np.arange(len(gs)), gs] = rs
        return rows

    def zero_row_mask(self, rows: np.ndarray) -> np.ndarray:
        return (rows == self.rzero).all(axis=1)


def table_context(rg: GroupRing) -> TableContext:
    cached = getattr(rg, "_tables", None)
    if cached is None:
        cached = TableContext(rg)
        rg._tables = cached
    return cached


def element_rows(ctx: TableContext) -> Tuple[np.ndarray, np.ndarray]:
    """Every element of the group ring as a row, in id order, and the
    base-|R| powers that encode a row as its id: id = row @ powers."""
    powers = ctx.nr ** np.arange(ctx.ng, dtype=np.int64)
    ids = np.arange(ctx.nr ** ctx.ng, dtype=np.int64)
    return (ids[:, None] // powers % ctx.nr).astype(np.int16), powers


def product_with_monomial(ctx: TableContext, P: np.ndarray, r: int, g: int,
                          op: str) -> np.ndarray:
    """circle or bracket of every row of P with the monomial r*g.

    Multiplying by a monomial permutes columns and rescales coefficients,
    so each side costs one gather instead of a full convolution.
    """
    right = np.empty_like(P)
    right[:, ctx.gmul[:, g]] = ctx.rmul[P, r]      # (p * rg)[h*g] = p[h]*r
    left = np.empty_like(P)
    left[:, ctx.gmul[g, :]] = ctx.rmul[r, P]       # (rg * p)[g*h] = r*p[h]
    return rows_add(ctx, right, left if op == "circle" else rows_neg(ctx, left))


def _rows_mul_fold(ctx: TableContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # out[:, h] = sum over g of A[:, g] * B[:, g^-1 h], started from the
    # g = 0 term.  The per-term ring products go through the flattened
    # table; the sum is native XOR, an int32 sum reduced mod the order, or
    # a gather from the flattened addition table.  One g at a time keeps
    # every temporary the size of the output.
    mul, add = ctx.rmul.ravel(), ctx.radd.ravel()

    def term(g: int) -> np.ndarray:
        return mul[A[:, g, None].astype(np.intp) * ctx.nr + B[:, ctx.ginv_cols[g]]]

    out = term(0).astype(np.int32) if ctx.add_is_mod else term(0)
    for g in range(1, ctx.ng):
        if ctx.add_is_xor:
            out ^= term(g)
        elif ctx.add_is_mod:
            out += term(g)
        else:
            out = add[out.astype(np.intp) * ctx.nr + term(g)]
    return (out % ctx.nr).astype(np.int16) if ctx.add_is_mod else out


def rows_mul(ctx: TableContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-aligned convolution product: out[i] = A[i] * B[i]."""
    return _rows_mul_fold(ctx, A, B)


def rows_add(ctx: TableContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Entrywise ring sum, by native XOR or mod-order addition when the
    addition table is one of those, else by the table itself."""
    if ctx.add_is_xor:
        return A ^ B
    if ctx.add_is_mod:
        # unsigned, so the sum of two ids below 2^15 cannot wrap
        total = np.add(A, B, dtype=np.uint16, casting="unsafe")
        total %= ctx.nr
        return total.view(np.int16)
    return ctx.radd[A, B]


def rows_neg(ctx: TableContext, A: np.ndarray) -> np.ndarray:
    """Entrywise additive inverse; under XOR every element is its own
    inverse, so the rows come back as they are."""
    if ctx.add_is_xor:
        return A
    if ctx.add_is_mod:
        return -A % ctx.nr
    return ctx.rneg[A]


def rows_circle(ctx: TableContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return rows_add(ctx, rows_mul(ctx, A, B), rows_mul(ctx, B, A))


def rows_bracket(ctx: TableContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return rows_add(ctx, rows_mul(ctx, A, B), rows_neg(ctx, rows_mul(ctx, B, A)))


def product_with_row(ctx: TableContext, P: np.ndarray, brow: np.ndarray,
                     op: str) -> np.ndarray:
    """circle/bracket of every row of P with one fixed element row, or with
    each row of a (k, |G|) block: then out[i, j] = P[i] op block[j]."""
    block = np.atleast_2d(brow)
    m, k = P.shape[0], block.shape[0]
    prod = (rows_circle if op == "circle" else rows_bracket)(
        ctx, np.repeat(P, k, axis=0), np.tile(block, (m, 1)))
    return prod.reshape(m, k, ctx.ng) if brow.ndim == 2 else prod


_PAIR_BLOCK = 4096  # adjacent equal-key pairs compared per block


def _hash_weights(count: int) -> np.ndarray:
    """Fixed odd 64-bit multipliers, one per key column: a Weyl sequence
    of the golden ratio, so the keys never depend on a random generator."""
    steps = np.arange(1, count + 1, dtype=np.uint64)
    return steps * np.uint64(0x9E3779B97F4A7C15) | np.uint64(1)


def _row_keys(arr: np.ndarray) -> np.ndarray:
    """One uint64 key per row: the row's bytes read as 64-bit words (each
    entry cast on its own when the row width is not a whole number of
    words), mixed in column by column."""
    if arr.shape[1] * arr.itemsize % 8 == 0:
        cols = np.ascontiguousarray(arr).view(np.uint64)
    else:
        cols = arr
    weights = _hash_weights(cols.shape[1])
    key = np.zeros(arr.shape[0], dtype=np.uint64)
    tmp = np.empty_like(key)
    for j in range(cols.shape[1]):
        key ^= cols[:, j].astype(np.uint64, copy=False)
        key *= weights[j]
        np.right_shift(key, np.uint64(32), out=tmp)
        key ^= tmp
    return key


def unique_rows_keep_first(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct rows in original order, keeping each value's first occurrence.

    The searches feed candidates in prefix-lexicographic order, so the
    first occurrence of a value carries its least index prefix; keeping
    any other occurrence would change the reported witness.  Rows are
    sorted by a 64-bit key (stably, so ties keep input order) and every
    pair of neighbours with equal keys is compared exactly; any key
    collision between different rows falls back to the exact row sort.
    """
    if arr.shape[0] == 0:
        return arr, np.empty(0, dtype=np.int64)
    keys = _row_keys(arr)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    same = keys[1:] == keys[:-1]
    keep = np.sort(order[np.concatenate(([True], ~same))])
    tied = np.flatnonzero(same)
    for lo in range(0, tied.size, _PAIR_BLOCK):
        at = tied[lo:lo + _PAIR_BLOCK]
        if not np.array_equal(arr[order[at]], arr[order[at + 1]]):
            view = np.ascontiguousarray(arr).view(
                [("", arr.dtype)] * arr.shape[1]).ravel()
            keep = np.sort(np.unique(view, return_index=True)[1])
            break
    return arr[keep], keep


def candidate_block(ctx: TableContext, V: np.ndarray,
                    monos: Sequence[Tuple[int, int]], op: str) -> np.ndarray:
    """All products of rows in V with every monomial, ordered row-major
    (V index major, monomial index minor)."""
    m, s = V.shape[0], len(monos)
    out = np.empty((m, s, ctx.ng), dtype=V.dtype)
    for j, (r, g) in enumerate(monos):
        out[:, j, :] = product_with_monomial(ctx, V, r, g, op)
    return out.reshape(m * s, ctx.ng)


def scan_final_level(ctx: TableContext, V: np.ndarray, monos: Sequence[Tuple[int, int]],
                     op: str) -> Tuple[int, int] | None:
    """Find the first (row index into V, monomial index) whose product is
    nonzero, treating candidates in (row, monomial) order; None if all vanish.

    Rows are scanned in blocks, and the first block with a hit ends the scan.
    """
    m, s = V.shape[0], len(monos)
    block = max(1, _BLOCK_CELLS // max(1, s * ctx.ng))
    for lo in range(0, m, block):
        hits = []
        for j, (r, g) in enumerate(monos):
            nz = ~ctx.zero_row_mask(product_with_monomial(ctx, V[lo:lo + block], r, g, op))
            if nz.any():
                hits.append((lo + int(np.argmax(nz)), j))
        if hits:
            return min(hits)
    return None
