"""Vectorized kernels for tuple searches over group-ring coefficients.

Elements are numpy rows of ring-element indices, one column per group
element.  Everything here is a faithful restatement of the scalar
arithmetic in groupring.py; the test suite pins the two against each
other on sampled inputs.

The search frontier runs through one monomial kernel, behind
candidate_block and scan_final_level.  Its monomials are grouped by
ring coefficient: the products of the frontier rows with r are gathered
once per distinct r, and each group element g of that r then costs one
column permutation per side, through two (|G|, |G|) tables built once per
context.  The work goes in bounded row tiles, held transposed, and the
final scan stops at the first tile with a nonzero product, taking the
least (row, monomial) hit across the tile's coefficient groups.  Between
levels, zero rows are found a word at a time and equal rows merged by
64-bit keys, each row checked exactly against its key group's first row.
"""

from __future__ import annotations

from functools import cached_property, lru_cache, reduce
from typing import Sequence, Tuple

import numpy as np

from .groupring import GroupRing

class TableContext:
    """numpy handles for one (ring, group) pair.

    radd, rmul and gmul are the ring's and group's own validated tables.
    Derived tables are kept here, once: rneg and ginv, from the ring and
    group, ginv_cols for the convolution kernels, rmul_scaled for the fold,
    the monomial kernel's shift tables, the add_is_xor / add_is_mod flags
    and zero_word, rzero in each int16 lane of a uint64 word.
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
        self.zero_word = np.full(4, self.rzero, dtype=np.int16).view(np.uint64)[0]
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
        # column permutations of a product with a monomial r g, as take
        # indices: [g, x] = x g^-1 (right side) and [g, x] = g^-1 x (left)
        self.right_shift = self.gmul[:, self.ginv].T.astype(np.intp)
        self.left_shift = self.ginv_cols.astype(np.intp)
        self.last_plan = None   # (key, _MonomialPlan) of the last kernel call

    @cached_property
    def fields(self):
        """Orders of the additive fields that ids pack, lowest bits first:
        (|R|,) under addition mod |R|, else fields of 2^w ids if the whole
        addition table is field-wise addition (every built-in ring)."""
        if self.add_is_mod:
            return (self.nr,)
        bits = np.arange(self.nr.bit_length() - 1)
        top = self.radd[1 << bits, 1 << bits] == 0     # u + u = 0: u tops its field
        ids, high = np.arange(self.nr), int(np.sum(top << bits))
        low = ids & (self.nr - 1 - high)   # low bits add, carrying into the top bit
        if np.array_equal(self.radd, (low[:, None] + low) ^ ((ids[:, None] ^ ids) & high)):
            return tuple(1 << int(w) for w in np.diff(np.flatnonzero(top), prepend=-1))
        return None

    @cached_property
    def slots(self):
        """The fold's native sum: products as a flat table with each field in
        a slot of an int16 (else int32) word wide enough for |G| terms, and
        per field (shift, mask) back into an id; None if int32 is too narrow."""
        if self.fields is None:
            return None
        prods, spread, unpack, shift, base = self.rmul.ravel().astype(np.int64), 0, [], 0, 1
        for m in self.fields:
            spread = spread + (prods // base % m << shift)
            unpack.append((shift - base.bit_length() + 1, (m - 1) * base))
            shift, base = shift + (self.ng * (m - 1)).bit_length(), base * m
        return None if shift > 31 else (
            spread.astype(np.int16 if shift <= 15 else np.int32), unpack)

    def mono_rows(self, rs: np.ndarray, gs: np.ndarray) -> np.ndarray:
        """The monomials rs[i]*gs[i] as rows (coefficient arrays)."""
        rows = np.full((len(gs), self.ng), self.rzero, dtype=np.int16)
        rows[np.arange(len(gs)), gs] = rs
        return rows

    def zero_row_mask(self, rows: np.ndarray) -> np.ndarray:
        """Which rows are all rzero: flags per word (else per entry), OR-ed
        a column of up to 8 bytes at a time, not reduced along the row."""
        words = _words(rows)
        flags = words != self.zero_word if words is not rows else rows != self.rzero
        width = flags.shape[1]
        cols = np.ascontiguousarray(flags).view(f"u{min(8, width & -width)}")
        return reduce(np.bitwise_or, cols.T) == 0


def _words(rows: np.ndarray) -> np.ndarray:
    """int16 rows as uint64 words when a row is whole words, else rows."""
    if rows.dtype != np.int16 or rows.shape[1] % 4:
        return rows
    return np.ascontiguousarray(rows).view(np.uint64)


def table_context(rg: GroupRing) -> TableContext:
    cached = getattr(rg, "_tables", None)
    if cached is None:
        cached = TableContext(rg)
        rg._tables = cached
    return cached


def element_rows(ctx: TableContext) -> np.ndarray:
    """Every element of the group ring as a row, in id order: coordinate x
    of element id is its base-|R| digit x, so coordinate 0 runs fastest."""
    nr, ng = ctx.nr, ctx.ng
    rows = np.empty((nr ** ng, ng), dtype=np.int16)
    values = np.arange(nr, dtype=np.int16)[:, None]
    for x in range(ng):
        rows.reshape(-1, nr, nr ** x, ng)[..., x] = values
    return rows


# The fold works through row blocks of at most _FOLD_CELLS cells.  Each
# block is held transposed, as (|G|, rows), so every numpy call runs along
# rows as long as the block, not along rows of |G| entries.  The buffers
# (A's entries times |R|, B's entries, the product index, one term, the
# running sum) are allocated once per call, sized to one block, and each
# group element of each block writes into them through out=: no array is
# allocated per term, whatever the allocator's state.  (Fresh per-term
# arrays the size of the output each became a new zero-filled mapping under
# a fixed glibc mmap threshold.)  The sum is one of three: native XOR; the
# native sum of a ring's fields, each in its own slot of the total (see
# TableContext.slots), decoded once per block; or a gather from the
# flattened addition table at t |R| + sum, which commutativity of addition
# allows, so each term t |R| comes straight from rmul_scaled.  Each block's
# last ufunc writes its sums, transposed, into the C-contiguous output.
_FOLD_CELLS = 1 << 15
_INT16_MAX = int(np.iinfo(np.int16).max)


def _rows_mul_fold(ctx: TableContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # out[:, h] = sum over g of A[:, g] * B[:, g^-1 h], started from the
    # g = 0 term.  Every index is in range, so take's mode="clip" changes no
    # value; it only spares numpy the copy of out that mode="raise" makes.
    n, ng, nr = A.shape[0], ctx.ng, ctx.nr
    mul, add, cols = ctx.rmul.ravel(), ctx.radd.ravel(), ctx.ginv_cols
    xor = ctx.add_is_xor
    native = None if xor else ctx.slots
    first = mul if native is None else native[0]      # the g = 0 term's table
    terms = ctx.rmul_scaled if native is None and not xor else first
    out = np.empty((n, ng), dtype=np.int16)
    rows = max(1, _FOLD_CELLS // ng)
    m = min(n, rows)
    scaled = np.empty((ng, m), dtype=np.intp)
    right = np.empty((ng, m), dtype=np.intp)
    index = np.empty((ng, m), dtype=np.intp)
    term = np.empty((ng, m), dtype=terms.dtype)
    total = np.empty((ng, m), dtype=first.dtype)
    for lo in range(0, n, rows):
        hi = min(lo + rows, n)
        if hi - lo < m:  # a partial last block, on the buffers' contiguous heads
            scaled, right, index, term, total = (
                buf.reshape(-1)[:ng * (hi - lo)].reshape(ng, hi - lo)
                for buf in (scaled, right, index, term, total))
        np.multiply(A[lo:hi].T, nr, out=scaled, dtype=np.intp)
        np.copyto(right, B[lo:hi].T)
        for g in range(ng):
            right.take(cols[g], 0, index, "clip")
            np.add(index, scaled[g], out=index)
            if g == 0:
                first.take(index, None, total, "clip")
                continue
            terms.take(index, None, term, "clip")
            if xor:
                np.bitwise_xor(total, term, out=total)
            elif native is not None:
                np.add(total, term, out=total)
            else:
                np.add(term, total, out=index)
                add.take(index, None, total, "clip")
        # a ufunc walks the block's long rows; copyto would walk the
        # output's rows of |G| entries, about twice as slow at small |G|
        block = out[lo:hi].T
        if native is None:
            np.positive(total, out=block)
        elif nr & (nr - 1):                           # one field, mod |R|
            np.remainder(total, nr, out=block, casting="unsafe")
        else:
            np.bitwise_and(total, ctx.fields[0] - 1, out=block, casting="unsafe")
            for shift, mask in native[1][1:]:
                np.right_shift(total, shift, out=index)
                np.bitwise_and(index, mask, out=index)
                np.bitwise_or(block, index, out=block, casting="unsafe")
    return out


def rows_mul(ctx: TableContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-aligned convolution product: out[i] = A[i] * B[i]."""
    return _rows_mul_fold(ctx, A, B)


def rows_add(ctx: TableContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Entrywise ring sum: native XOR, the native sum of fields packed in
    2^w ids, else the addition table itself."""
    if ctx.add_is_xor:
        return A ^ B
    if ctx.fields is None or ctx.nr & (ctx.nr - 1):
        return ctx.radd[A, B]
    if len(ctx.fields) == 1:           # addition mod 2^w
        total = A + B
        total &= ctx.nr - 1
        return total
    high = int(np.cumprod(ctx.fields).sum()) // 2   # the top bit of every field
    total = A & (ctx.nr - 1 - high)    # low bits add, carrying into the top bits
    total += B & (ctx.nr - 1 - high)
    total ^= (A ^ B) & high
    return total


def rows_neg(ctx: TableContext, A: np.ndarray) -> np.ndarray:
    """Entrywise additive inverse; under XOR every element is its own
    inverse, so the rows come back as they are."""
    if ctx.add_is_xor:
        return A
    if ctx.add_is_mod:
        return -A % ctx.nr if ctx.nr & (ctx.nr - 1) else -A & (ctx.nr - 1)
    return ctx.rneg[A]


def rows_circle(ctx: TableContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return rows_add(ctx, rows_mul(ctx, A, B), rows_mul(ctx, B, A))


def rows_bracket(ctx: TableContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return rows_add(ctx, rows_mul(ctx, A, B), rows_neg(ctx, rows_mul(ctx, B, A)))


# product_with_row sums its terms a block of rows at a time, so that its
# one term buffer, every coordinate plane of the block's rows, stays within
# _TERM_BYTES: 2^16 int16 terms for native addition, 2^14 8-byte row
# offsets for the addition-table gather.
_TERM_BYTES = 1 << 17


def product_with_row(ctx: TableContext, P: np.ndarray, brow: np.ndarray,
                     op: str) -> np.ndarray:
    """circle/bracket of every row of P with one fixed element row, or with
    each row of a (k, |G|) block: then out[i, j] = P[i] op block[j].

    Pairwise, with no copy of either operand per pair.  The products of
    P's entries with every ring element are gathered once, as
    left[g, i, r] = P[i, g] r and right[y, i, r] = r P[i, y] (negated
    through rows_neg for the bracket).  Coordinate h of the pair (i, j) is
    then the sum of left[g, i] at block[j, g^-1 h] over g and of right[y, i]
    at block[j, h y^-1] over y: the 2|G| terms of ab + ba (or ab - ba).
    Each g (and each y) is one column gather for every plane at once,
    through an (|G|, k) index of block entries.  The terms are added by
    native XOR, by native int16 addition reduced mod |R| once (int32 when
    2|G| (|R| - 1) overflows int16), or by gathers from the flattened
    addition table at t |R| + sum.  The sums fill one (m, |G|, k) buffer,
    returned as an (m, k, |G|) view, or (m, |G|) for a 1-D brow.
    """
    Q = brow if brow.ndim == 2 else brow[None]
    m, k, ng, nr = P.shape[0], Q.shape[0], ctx.ng, ctx.nr
    xor = ctx.add_is_xor
    mod = ctx.add_is_mod and not xor
    wide = mod and 2 * ng * (nr - 1) > _INT16_MAX
    left = ctx.rmul[P.T]                  # [g, i, r] = P[i, g] * r
    right = ctx.rmul.T[P.T]               # [y, i, r] = r * P[i, y]
    if op != "circle":
        right = rows_neg(ctx, right)
    if xor or mod:
        sources = (left, right)
    else:                                 # terms as row offsets t |R|
        sources = (np.multiply(left, nr, dtype=np.intp),
                   np.multiply(right, nr, dtype=np.intp))
        add = ctx.radd.ravel()
    QT = Q.T.astype(np.intp)              # [g] = entry g of every block row
    # [g, h] = block entries g^-1 h for left[g]; [y, h] = h y^-1 for right[y]
    at = (QT.take(ctx.left_shift, 0), QT.take(ctx.right_shift, 0))
    out = np.empty((m, ng, k), dtype=np.int16)
    dtype = np.dtype(np.int16 if xor or mod else np.intp)
    rows = max(1, _TERM_BYTES // (max(ng * k, 1) * dtype.itemsize))
    term = np.empty((min(m, rows), ng, k), dtype=dtype)
    total = np.empty_like(term, dtype=np.int32) if wide else None
    # Every index is in range, so take's mode="clip" changes no value; it
    # only spares numpy the copy of out that mode="raise" makes.
    for lo in range(0, m, rows):
        hi = min(lo + rows, m)
        t, block = term[:hi - lo], out[lo:hi]
        acc = block if total is None else total[:hi - lo]
        steps = [(side[g, lo:hi], cols[g]) for side, cols in zip(sources, at)
                 for g in range(ng)]
        if wide:
            acc.fill(0)
        else:                             # the first term, unscaled, into acc
            left[0, lo:hi].take(at[0][0], 1, acc, "clip")
            steps = steps[1:]
        for src, cols in steps:
            src.take(cols, 1, t, "clip")
            if xor:
                np.bitwise_xor(acc, t, out=acc)
            elif mod:
                np.add(acc, t, out=acc)
            else:
                np.add(t, acc, out=t)
                add.take(t, None, acc, "clip")
        if mod and nr & (nr - 1):
            np.remainder(acc, nr, out=block, casting="unsafe")
        elif mod:
            np.bitwise_and(acc, nr - 1, out=block, casting="unsafe")
    prod = out.transpose(0, 2, 1)
    return prod if brow.ndim == 2 else prod[:, 0, :]


@lru_cache(maxsize=None)
def _hash_weights(count: int) -> np.ndarray:
    """Fixed odd splitmix64 outputs, one per key column (Weyl steps are linear)."""
    z = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31)) | np.uint64(1)


def _row_keys(arr: np.ndarray) -> np.ndarray:
    """One uint64 key per row: its words (else entries) times the weights, summed."""
    words = _words(arr).astype(np.uint64, copy=False)
    return words @ _hash_weights(words.shape[1])


def _unique_rows_exact(arr: np.ndarray) -> np.ndarray:
    """First-occurrence indices, increasing, by sorting whole rows as voids."""
    view = np.ascontiguousarray(arr).view([("", arr.dtype)] * arr.shape[1]).ravel()
    return np.sort(np.unique(view, return_index=True)[1])


_CHECK_BYTES = 1 << 17  # rows gathered per block of the exact check


def unique_rows_keep_first(arr: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Distinct rows in original order, keeping each value's first occurrence.

    The searches feed candidates in prefix-lexicographic order, so the
    first occurrence of a value carries its least index prefix; keeping
    any other occurrence would change the reported witness.  Every row, in
    order, must equal the least row of its key group (from a plain sort and
    np.minimum.reduceat); else the exact row sort decides.
    """
    n = arr.shape[0]
    if n == 0:
        return arr, np.empty(0, dtype=np.int64)
    keys = _row_keys(arr)
    order = np.argsort(keys)
    keys = keys.take(order)
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    first = np.minimum.reduceat(order, starts)
    least = np.empty_like(order)                # [i] = least row of i's group
    least[order] = np.repeat(first, np.concatenate((starts[1:], [n])) - starts)
    words = _words(arr)
    step = max(1, _CHECK_BYTES // words[:1].nbytes)
    buf = np.empty_like(words[:step])
    keep = np.sort(first)
    for lo in range(0, n, step):
        at = least[lo:lo + step]
        # every index is in range: mode="clip" only spares take a copy of buf
        if not (words.take(at, 0, buf[:at.size], "clip") == words[lo:lo + step]).all():
            keep = _unique_rows_exact(arr)
            break
    return arr.take(keep, 0), keep


# The monomial kernel.  The product of a row p with a monomial r g permutes
# p's columns and rescales its entries: (p rg)[x] = p[x g^-1] r and
# (rg p)[x] = r p[g^-1 x].  Per distinct r, a tile's rows are rescaled on
# each side through one |R|-entry lookup row (the bracket's negation is
# folded into the left one, the addition table's row offset t |R| into the
# right one).  Consecutive monomials with the same r form a run; a run
# costs one take per side, through right_shift and left_shift, and one
# sum: native XOR, native addition reduced mod |R|, or a gather from the
# flattened addition table.  A tile holds at most _TILE_CELLS products
# (rows times run length times |G|); its buffers are allocated once per
# call and a partial last tile uses their contiguous heads.  Tiles are held
# transposed, as (|G|, rows), so each take moves whole rows of the buffer
# instead of single entries, and candidate_block transposes each run's
# sums into its output once.
_TILE_CELLS = 1 << 15


class _MonomialPlan:
    """The monomials of one kernel call, grouped by ring coefficient in
    order of first appearance: for each distinct r its two lookup rows and
    its runs (first position, length).  Holds no buffer and no reference
    to the context, so a context can keep its last plan at little cost."""

    def __init__(self, ctx: TableContext, monos: Sequence[Tuple[int, int]], op: str):
        ng = ctx.ng
        pairs = np.asarray(monos, dtype=np.intp).reshape(-1, 2)
        self.gs = pairs[:, 1]
        self.kind = "xor" if ctx.add_is_xor else "mod" if ctx.add_is_mod else "table"
        rs = pairs[:, 0].tolist()
        distinct = list(dict.fromkeys(rs))
        right = ctx.rmul.T[distinct]                    # [i, p] = p r_i
        left = ctx.rmul[distinct]                       # [i, p] = r_i p
        if op != "circle":
            left = ctx.rneg[left]
        if self.kind == "table":
            right = right.astype(np.intp) * ctx.nr
        cap = max(1, _TILE_CELLS // ng)          # monomials per run, at most
        cuts = [j for j in range(1, len(rs)) if rs[j] != rs[j - 1]]
        runs: dict = {r: [] for r in distinct}
        for a, b in zip([0, *cuts], [*cuts, len(rs)]):
            runs[rs[a]].extend((j0, min(cap, b - j0)) for j0 in range(a, b, cap))
        self.groups = list(zip(right, left, runs.values()))
        self.widest = max((k for group in runs.values() for _, k in group), default=1)
        self.rows = max(1, _TILE_CELLS // (self.widest * ng))

    def tiles(self, ctx: TableContext, V: np.ndarray):
        """For each row tile of V, yield (lo, hi, runs), where runs yields
        (j0, k, prod) for each run: the products of V[lo:hi] with monomials
        j0 .. j0 + k - 1, transposed, so prod[j |G| + x, i] is entry x of
        row lo + i times monomial j0 + j.  prod is a buffer that the next
        run overwrites.  Every index is in range, so take's mode="clip"
        changes no value; it only spares numpy the copy of out that
        mode="raise" makes."""
        m, ng, nr = V.shape[0], ctx.ng, ctx.nr
        rows = min(self.rows, m)
        cells = self.widest * ng * rows
        wide = np.intp if self.kind == "table" else np.int16
        Vr_buf = np.empty(ng * rows, dtype=wide)
        rV_buf = np.empty(ng * rows, dtype=np.int16)
        right_buf = np.empty(cells, dtype=wide)
        left_buf = np.empty(cells, dtype=np.int16)
        sums_buf = np.empty(cells, dtype=np.int16)
        rcols, lcols = ctx.right_shift[self.gs], ctx.left_shift[self.gs]
        add = ctx.radd.ravel()

        def runs(lo, hi):
            n = hi - lo
            PT = V[lo:hi].T
            Vr = Vr_buf[:ng * n].reshape(ng, n)
            rV = rV_buf[:ng * n].reshape(ng, n)
            for right, left, group in self.groups:
                right.take(PT, None, Vr, "clip")
                left.take(PT, None, rV, "clip")
                for j0, k in group:
                    size = k * ng * n
                    a = right_buf[:size].reshape(k * ng, n)
                    b = left_buf[:size].reshape(k * ng, n)
                    sums = sums_buf[:size].reshape(k * ng, n)
                    Vr.take(rcols[j0:j0 + k].ravel(), 0, a, "clip")
                    rV.take(lcols[j0:j0 + k].ravel(), 0, b, "clip")
                    if self.kind == "xor":
                        np.bitwise_xor(a, b, out=sums)
                    elif self.kind == "mod":
                        # unsigned, so the sum of two ids below 2^15 cannot wrap
                        au = a.view(np.uint16)
                        np.add(au, b.view(np.uint16), out=au)
                        if nr & (nr - 1):
                            np.remainder(au, nr, out=sums, casting="unsafe")
                        else:
                            np.bitwise_and(au, nr - 1, out=sums, casting="unsafe")
                    else:
                        np.add(a, b, out=a)
                        add.take(a, None, sums, "clip")
                    yield j0, k, sums

        for lo in range(0, m, self.rows):
            hi = min(lo + self.rows, m)
            yield lo, hi, runs(lo, hi)


def _plan(ctx: TableContext, monos: Sequence[Tuple[int, int]], op: str) -> _MonomialPlan:
    """The plan of the last kernel call on ctx when it had the same
    monomials and op, else a new one: a search asks for one plan at every
    level and again for its final scan."""
    key = (tuple(map(tuple, monos)), op)
    if ctx.last_plan is None or ctx.last_plan[0] != key:
        ctx.last_plan = (key, _MonomialPlan(ctx, monos, op))
    return ctx.last_plan[1]


def candidate_block(ctx: TableContext, V: np.ndarray,
                    monos: Sequence[Tuple[int, int]], op: str) -> np.ndarray:
    """All products of rows in V with every monomial, ordered row-major
    (V index major, monomial index minor)."""
    m, s, ng = V.shape[0], len(monos), ctx.ng
    out = np.empty((m, s * ng), dtype=np.int16)
    for lo, hi, runs in _plan(ctx, monos, op).tiles(ctx, V):
        for j0, k, prod in runs:
            np.copyto(out[lo:hi, j0 * ng:(j0 + k) * ng], prod.T)
    return out.reshape(m * s, ng)


def scan_final_level(ctx: TableContext, V: np.ndarray, monos: Sequence[Tuple[int, int]],
                     op: str) -> Tuple[int, int] | None:
    """Find the first (row index into V, monomial index) whose product is
    nonzero, treating candidates in (row, monomial) order; None if all vanish.

    Rows are scanned in the kernel's row tiles, and the first tile with a
    hit ends the scan.  A tile's runs come in coefficient-group order, not
    monomial order, so the tile's answer is the least of every run's first
    hit (its first row with one, and that row's first monomial).
    """
    ng = ctx.ng
    for lo, hi, runs in _plan(ctx, monos, op).tiles(ctx, V):
        best = None
        for j0, k, prod in runs:
            nz = prod != ctx.rzero
            if not nz.any():
                continue
            hits = nz.reshape(k, ng, hi - lo).any(axis=1)      # [j, i]
            i = int(np.argmax(hits.any(axis=0)))
            hit = (lo + i, j0 + int(np.argmax(hits[:, i])))
            best = hit if best is None else min(best, hit)
        if best is not None:
            return best
    return None
