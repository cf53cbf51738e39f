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
    convolution kernels, rmul_scaled for the row-aligned fold, and the
    add_is_xor / add_is_mod flags.
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
        # products times |R|: row offsets into the flattened addition table
        self.rmul_scaled = self.rmul.ravel().astype(np.intp) * self.nr

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


# The fold works through row blocks of at most _FOLD_CELLS cells.  Each
# block is held transposed, as (|G|, rows), so every numpy call runs along
# rows as long as the block, not along rows of |G| entries.  The buffers
# (A's entries times |R|, B's entries, the product index, one term, the
# running sum) are allocated once per call, sized to one block, and each
# group element of each block writes into them through out=: no array is
# allocated per term, whatever the allocator's state.  (Fresh per-term
# arrays the size of the output each became a new zero-filled mapping under
# a fixed glibc mmap threshold.)  The sum is native XOR; native int16
# addition, reduced mod |R| once per block (int32 only when |G| (|R| - 1)
# overflows int16); or a gather from the flattened addition table at
# t |R| + sum, which commutativity of addition allows, so each term t |R|
# comes straight from rmul_scaled.  Each block's last ufunc writes the
# transposed sum into the C-contiguous output.
_FOLD_CELLS = 1 << 15
_INT16_MAX = int(np.iinfo(np.int16).max)


def _rows_mul_fold(ctx: TableContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # out[:, h] = sum over g of A[:, g] * B[:, g^-1 h], started from the
    # g = 0 term.  Every index is in range, so take's mode="clip" changes no
    # value; it only spares numpy the copy of out that mode="raise" makes.
    n, ng, nr = A.shape[0], ctx.ng, ctx.nr
    mul, add, cols = ctx.rmul.ravel(), ctx.radd.ravel(), ctx.ginv_cols
    mul_scaled = ctx.rmul_scaled
    xor = ctx.add_is_xor
    mod = ctx.add_is_mod and not xor
    wide = mod and ng * (nr - 1) > _INT16_MAX
    out = np.empty((n, ng), dtype=np.int16)
    rows = max(1, _FOLD_CELLS // ng)
    m = min(n, rows)
    scaled = np.empty((ng, m), dtype=np.intp)
    right = np.empty((ng, m), dtype=np.intp)
    index = np.empty((ng, m), dtype=np.intp)
    term = np.empty((ng, m), dtype=np.int16 if xor or mod else np.intp)
    total = np.empty((ng, m), dtype=np.int32 if wide else np.int16)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        if hi - lo < m:  # a partial last block, on the buffers' contiguous heads
            scaled, right, index, term, total = (
                buf.reshape(-1)[:ng * (hi - lo)].reshape(ng, hi - lo)
                for buf in (scaled, right, index, term, total))
        np.multiply(A[lo:hi].T, nr, out=scaled, dtype=np.intp)
        np.copyto(right, B[lo:hi].T)
        if wide:
            total.fill(0)
        for g in range(ng):
            right.take(cols[g], 0, index, "clip")
            np.add(index, scaled[g], out=index)
            if g == 0 and not wide:
                mul.take(index, None, total, "clip")
            elif xor:
                mul.take(index, None, term, "clip")
                np.bitwise_xor(total, term, out=total)
            elif mod:
                mul.take(index, None, term, "clip")
                np.add(total, term, out=total)
            else:
                mul_scaled.take(index, None, term, "clip")
                np.add(term, total, out=index)
                add.take(index, None, total, "clip")
        # a ufunc walks the block's long rows; copyto would walk the
        # output's rows of |G| entries, about twice as slow at small |G|
        block = out[lo:hi].T
        if not mod:
            np.positive(total, out=block)
        elif nr & (nr - 1):
            np.remainder(total, nr, out=block, casting="unsafe")
        else:
            np.bitwise_and(total, nr - 1, out=block, casting="unsafe")
    return out


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


# product_with_row sums each coordinate plane a block of rows at a time,
# so that its one term buffer stays within _TERM_BYTES: 2^16 int16 terms
# for native addition, 2^14 8-byte row offsets for the addition-table
# gather.
_TERM_BYTES = 1 << 17


def product_with_row(ctx: TableContext, P: np.ndarray, brow: np.ndarray,
                     op: str) -> np.ndarray:
    """circle/bracket of every row of P with one fixed element row, or with
    each row of a (k, |G|) block: then out[i, j] = P[i] op block[j].

    Pairwise, with no copy of either operand per pair.  The products of
    P's entries with every ring element are gathered once, as
    left[g, i, r] = P[i, g] r and right[x, i, r] = r P[i, x] (negated
    through rows_neg for the bracket).  Coordinate h of the (m, k) plane
    of all pairs is then the sum over g of two column gathers,
    left[g] at block[:, g^-1 h] and right[g^-1 h] at block[:, g]: the
    2|G| terms of ab + ba (or ab - ba).  The terms are added by native
    XOR, by native int16 addition reduced mod |R| once per plane (int32
    when 2|G| (|R| - 1) overflows int16), or by gathers from the
    flattened addition table at t |R| + sum.  The planes fill one
    (|G|, m, k) buffer, returned as an (m, k, |G|) view, or (m, |G|) for
    a 1-D brow.
    """
    Q = np.atleast_2d(brow)
    m, k, ng, nr = P.shape[0], Q.shape[0], ctx.ng, ctx.nr
    xor = ctx.add_is_xor
    mod = ctx.add_is_mod and not xor
    wide = mod and 2 * ng * (nr - 1) > _INT16_MAX
    left = ctx.rmul[P.T]                  # [g, i, r] = P[i, g] * r
    right = ctx.rmul.T[P.T]               # [x, i, r] = r * P[i, x]
    if op != "circle":
        right = rows_neg(ctx, right)
    if xor or mod:
        sources = (left, right)
    else:                                 # terms as row offsets t |R|
        sources = (np.multiply(left, nr, dtype=np.intp),
                   np.multiply(right, nr, dtype=np.intp))
        add = ctx.radd.ravel()
    QT = Q.T.astype(np.intp)              # [g] = entry g of every block row
    out = np.empty((ng, m, k), dtype=np.int16)
    dtype = np.dtype(np.int16 if xor or mod else np.intp)
    rows = max(1, _TERM_BYTES // (max(k, 1) * dtype.itemsize))
    term = np.empty((min(m, rows), k), dtype=dtype)
    total = np.empty_like(term, dtype=np.int32) if wide else None
    # Every index is in range, so take's mode="clip" changes no value; it
    # only spares numpy the copy of out that mode="raise" makes.
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        t = term[:hi - lo]
        for h in range(ng):
            plane = out[h, lo:hi]
            acc = plane if total is None else total[:hi - lo]
            x = ctx.ginv_cols[:, h]       # [g] = g^-1 h
            steps = ([(sources[0][g, lo:hi], QT[x[g]]) for g in range(ng)]
                     + [(sources[1][x[g], lo:hi], QT[g]) for g in range(ng)])
            if wide:
                acc.fill(0)
            else:                         # the first term, unscaled, into acc
                left[0, lo:hi].take(QT[x[0]], 1, acc, "clip")
                steps = steps[1:]
            for src, at in steps:
                src.take(at, 1, t, "clip")
                if xor:
                    np.bitwise_xor(acc, t, out=acc)
                elif mod:
                    np.add(acc, t, out=acc)
                else:
                    np.add(t, acc, out=t)
                    add.take(t, None, acc, "clip")
            if mod and nr & (nr - 1):
                np.remainder(acc, nr, out=plane, casting="unsafe")
            elif mod:
                np.bitwise_and(acc, nr - 1, out=plane, casting="unsafe")
    prod = out.transpose(1, 2, 0)
    return prod if brow.ndim == 2 else prod[:, 0, :]


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
