"""Vectorized kernels for tuple searches over group-ring coefficients.

Elements are numpy rows of ring-element indices, one column per group
element.  Everything here is a faithful restatement of the scalar
arithmetic in groupring.py; the test suite pins the two against each
other on sampled inputs.

Each ring is numbered once, as a direct sum of cyclic fields, and the
kernels work in those canonical ids, where zero is 0, adding only
through an Adder over the fields.  Ring ids enter at one boundary, the
monomials of a search (TableContext.mono_rows and the monomial plan).  A
search reports monomial indices and the full-space check counts values,
so no result depends on how a ring numbers its elements.

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
The full-space check's circle rows take their terms from
product_with_row, the circle of rows with every monomial at once: two
gathers through the same shift tables and one two-term sum.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import prod
from typing import Sequence, Tuple

import numpy as np

from .groupring import GroupRing
from .groups import _powers


def _cyclic_fields(add: np.ndarray, zero: int) -> Tuple[tuple, np.ndarray]:
    """Orders of cyclic fields whose direct sum is (R, +), and the ring id
    of each canonical id, the Adder id of an element's digits.  The first
    field is generated by an element of greatest order, lowest id first,
    each next one by an element of greatest order modulo the fields so far,
    lifted to one of that order (the fields so far are a direct summand, so
    one exists).  Each built-in ring is numbered so already."""
    multiples, ids, fields = _powers(add, zero), np.array([zero]), ()   # [k - 1, a] = k a
    while ids.size < add.shape[0]:
        order = np.isin(multiples, ids).argmax(axis=0) + 1    # modulo the fields so far
        m = int(order.max())
        lifts = add[order.argmax(), ids]
        lift = lifts[multiples[m - 1, lifts] == zero].min()   # one of order m
        ids = add[np.append(zero, multiples[:m - 1, lift])[:, None], ids].ravel()
        fields += (m,)
    return fields, ids


class Adder:
    """The one sum that the kernels use, over a direct sum of cyclic fields
    of the given orders.  The id of d_0 x_0 + d_1 x_1 + ... is
    d_0 + m_0 (d_1 + m_1 (...)), field 0 fastest, so zero is id 0.  A sum is
    then a sum per digit: XOR when every field has order 2; for two terms,
    modulo the order on one field of order 2^w and
    ((a&L) + (b&L)) ^ ((a^b)&H) on several (H the top bit of each field, L
    the bits below).  Other sums spread each term's digits to slots of an
    int16, int32 or int64 that no sum carries out of, add plainly and decode
    once, by a mask on a field of order 2^w and a remainder on the others;
    past int64 they add two terms at a time.
    """

    def __init__(self, fields: tuple):
        self.fields, self.nr = fields, prod(fields)
        self.bases = np.cumprod((1,) + fields)[:-1].tolist()
        self.xor = all(m == 2 for m in fields)
        packed = all(m & (m - 1) == 0 for m in fields)
        self.high = sum(b * m // 2 for b, m in zip(self.bases, fields)) if packed else None
        self._layouts = {}

    def _layout(self, k: int):
        """Slots for k-term sums: per field (order, base, bit offset, width),
        and each id's encoding; (None, None) under XOR or past int64."""
        if k not in self._layouts:
            widths = [(k * (m - 1)).bit_length() for m in self.fields]
            offsets = np.cumsum([0] + widths[:-1]).tolist()
            dtypes = [t for t in (np.int16, np.int32, np.int64) if sum(widths) < np.iinfo(t).bits]
            spread = sum(np.arange(self.nr) // b % m << o
                         for m, b, o in zip(self.fields, self.bases, offsets))
            self._layouts[k] = (None, None) if self.xor or not dtypes else (
                list(zip(self.fields, self.bases, offsets, widths)), spread.astype(dtypes[0]))
        return self._layouts[k]

    def encode(self, table: np.ndarray, k: int):
        """table's ids as terms of a k-term sum, and how to add
        two: encodings plainly, else ids by XOR or by add."""
        spread = self._layout(k)[1]
        if spread is None:
            return table, np.bitwise_xor if self.xor else self.add
        return spread.take(table), np.add

    def decode(self, total: np.ndarray, k: int, out: np.ndarray, scratch=None) -> np.ndarray:
        """The ids of k-term sums, into out; scratch (shaped as
        total) spares an array per field after the first."""
        slots = self._layout(k)[0]
        if slots is None:
            return np.positive(total, out=out)
        scratch = np.empty(total.shape, np.intp) if scratch is None else scratch
        for i, (m, base, offset, width) in enumerate(slots):
            digit = scratch if i else out
            src = np.right_shift(total, offset, out=digit, casting="unsafe") if offset else total
            if m & (m - 1) == 0:
                np.bitwise_and(src, m - 1, out=digit, casting="unsafe")
            else:   # the slot, cut from the slots above it, may not fit digit: cut in scratch
                np.bitwise_and(src, (1 << width) - 1, out=scratch, casting="unsafe")
                np.remainder(scratch, m, out=digit, casting="unsafe")
            if i:
                np.multiply(digit, base, out=digit)
                np.add(out, digit, out=out, casting="unsafe")
        return out

    def add(self, a, b, out=None) -> np.ndarray:
        """a + b entrywise; a and b may broadcast, and out may overlap them."""
        if self.xor:
            return np.bitwise_xor(a, b, out=out)
        if self.high is None:
            total = self._layout(2)[1].take(a) + self._layout(2)[1].take(b)
            out = np.empty(total.shape, np.int16) if out is None else out
            return self.decode(total, 2, out, np.empty_like(total))
        if len(self.fields) == 1:    # an int16 sum that wraps keeps its low bits
            out = np.add(a, b, out=out)
            return np.bitwise_and(out, self.nr - 1, out=out)
        low, high = self.nr - 1 - self.high, self.high
        ah, bh, bl = a & high, b & high, b & low   # read before out is written
        out = np.add(a & low, bl, out=out)
        out ^= ah
        return np.bitwise_xor(out, bh, out=out)

    def neg(self, a: np.ndarray) -> np.ndarray:
        """-a entrywise: |R| - 1 - a complements every digit without a borrow,
        and adding one to each digit makes it m - d mod m."""
        return self.add(self.nr - 1 - a, sum(self.bases))


def _numbering(ring) -> tuple:
    """The ring's Adder, the ring id of each canonical id, the canonical id
    of each ring id, and its products in canonical ids: built at the ring's
    first context and kept on the ring, holding no reference back."""
    if getattr(ring, "_numbering", None) is None:
        fields, ids = _cyclic_fields(ring.add_table, ring.zero)
        canon = np.argsort(ids).astype(np.int16)
        ring._numbering = (Adder(fields), ids, canon,
                           canon[ring.mul_table[np.ix_(ids, ids)]])
    return ring._numbering


class TableContext:
    """numpy handles for one (ring, group) pair, in canonical ring ids.

    adder, ids, canon and rmul are the ring's numbering (see _numbering),
    and gmul the group's own table.  Derived tables are kept here, once:
    ginv, and the monomial shift tables, which the convolution fold
    reads too.
    """

    def __init__(self, rg: GroupRing):
        ring, group = rg.ring, rg.group
        self.adder, self.ids, self.canon, self.rmul = _numbering(ring)
        self.gmul = np.asarray(group.table, dtype=np.int16)
        self.nr = ring.order
        self.ng = group.order
        self.ginv = np.asarray(group._inv, dtype=np.int16)
        # column permutations of a product with a monomial r g, as take
        # indices: [g, x] = x g^-1 (right side) and [g, x] = g^-1 x (left)
        self.right_shift = self.gmul[:, self.ginv].T.astype(np.intp)
        self.left_shift = self.gmul[self.ginv].astype(np.intp)
        self.last_plan = None   # (key, _MonomialPlan) of the last kernel call

    def mono_rows(self, rs: np.ndarray, gs: np.ndarray) -> np.ndarray:
        """The monomials rs[i]*gs[i], rs in ring ids, as rows."""
        rows = np.zeros((len(gs), self.ng), dtype=np.int16)
        rows[np.arange(len(gs)), gs] = self.canon[rs]
        return rows

    def zero_row_mask(self, rows: np.ndarray) -> np.ndarray:
        """Which rows are all zero: flags per word (else per entry), OR-ed
        a column of up to 8 bytes at a time, not reduced along the row."""
        flags = _words(rows) != 0
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
# a fixed glibc mmap threshold.)  The terms come from the product table as
# the adder encodes it for |G| terms, summed as it says (XOR, or plain
# addition of slots), and decoded into the output once per block with the
# index buffer as scratch.
_FOLD_CELLS = 1 << 15


def _rows_mul_fold(ctx: TableContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    # out[:, h] = sum over g of A[:, g] * B[:, g^-1 h], started from the
    # g = 0 term.  Every index is in range, so take's mode="clip" changes no
    # value; it only spares numpy the copy of out that mode="raise" makes.
    n, ng, nr, adder = A.shape[0], ctx.ng, ctx.nr, ctx.adder
    (terms, add), cols = adder.encode(ctx.rmul.ravel(), ng), ctx.left_shift   # [g, h] = g^-1 h
    out = np.empty((n, ng), dtype=np.int16)
    rows = max(1, _FOLD_CELLS // ng)
    m = min(n, rows)
    scaled = np.empty((ng, m), dtype=np.intp)
    right = np.empty((ng, m), dtype=np.intp)
    index = np.empty((ng, m), dtype=np.intp)
    term = np.empty((ng, m), dtype=terms.dtype)
    total = np.empty((ng, m), dtype=terms.dtype)
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
            terms.take(index, None, term if g else total, "clip")
            if g:
                add(total, term, out=total)
        # a ufunc walks the block's long rows; copyto would walk the
        # output's rows of |G| entries, about twice as slow at small |G|
        adder.decode(total, ng, out[lo:hi].T, index)
    return out


def rows_mul(ctx: TableContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Row-aligned convolution product: out[i] = A[i] * B[i]."""
    return _rows_mul_fold(ctx, A, B)


def rows_add(ctx: TableContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Entrywise ring sum."""
    return ctx.adder.add(A, B)


def rows_neg(ctx: TableContext, A: np.ndarray) -> np.ndarray:
    """Entrywise additive inverse."""
    return ctx.adder.neg(A)


def rows_circle(ctx: TableContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return rows_add(ctx, rows_mul(ctx, A, B), rows_mul(ctx, B, A))


def rows_bracket(ctx: TableContext, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return rows_add(ctx, rows_mul(ctx, A, B), rows_neg(ctx, rows_mul(ctx, B, A)))


def product_with_row(ctx: TableContext, P: np.ndarray) -> np.ndarray:
    """Every row of P circled with every monomial v x, as [i, h, x, v] =
    coordinate h of P[i] o (v x) = P[i, h x^-1] v + v P[i, x^-1 h]: one
    gather of the products per side, through the monomial shift tables,
    and one two-term sum."""
    left = ctx.rmul[P[:, ctx.right_shift.T]]      # [i, h, x, v] = P[i, h x^-1] v
    return ctx.adder.add(left, ctx.rmul.T[P[:, ctx.left_shift.T]], out=left)


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
# folded into the left one).  Consecutive monomials with the same r form a
# run; a run costs one take per side, through right_shift and left_shift,
# and one two-term sum by the adder.  A tile holds at most _TILE_CELLS
# products (rows times run length times |G|); its buffers are allocated
# once per call and a partial last tile uses their contiguous heads.  Tiles
# are held transposed, as (|G|, rows), so each take moves whole rows of
# the buffer instead of single entries, and candidate_block transposes
# each run's sums into its output once.
_TILE_CELLS = 1 << 15


class _MonomialPlan:
    """The monomials of one kernel call, grouped by ring coefficient in
    order of first appearance: for each distinct r its two lookup rows and
    its runs (first position, length).  Coefficients come in ring ids and
    are mapped to canonical ones here.  Holds no buffer and no reference
    to the context, so a context can keep its last plan at little cost."""

    def __init__(self, ctx: TableContext, monos: Sequence[Tuple[int, int]], op: str):
        ng = ctx.ng
        pairs = np.asarray(monos, dtype=np.intp).reshape(-1, 2)
        self.gs = pairs[:, 1]
        rs = ctx.canon[pairs[:, 0]].tolist()
        distinct = list(dict.fromkeys(rs))
        right = ctx.rmul.T[distinct]                    # [i, p] = p r_i
        left = ctx.rmul[distinct]                       # [i, p] = r_i p
        if op != "circle":
            left = ctx.adder.neg(left)
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
        m, ng = V.shape[0], ctx.ng
        rows = min(self.rows, m)
        cells = self.widest * ng * rows
        Vr_buf = np.empty(ng * rows, dtype=np.int16)
        rV_buf = np.empty(ng * rows, dtype=np.int16)
        right_buf = np.empty(cells, dtype=np.int16)
        left_buf = np.empty(cells, dtype=np.int16)
        rcols, lcols = ctx.right_shift[self.gs], ctx.left_shift[self.gs]

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
                    Vr.take(rcols[j0:j0 + k].ravel(), 0, a, "clip")
                    rV.take(lcols[j0:j0 + k].ravel(), 0, b, "clip")
                    yield j0, k, ctx.adder.add(a, b, out=a)

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
            nz = prod != 0
            if not nz.any():
                continue
            hits = nz.reshape(k, ng, hi - lo).any(axis=1)      # [j, i]
            i = int(np.argmax(hits.any(axis=0)))
            hit = (lo + i, j0 + int(np.argmax(hits[:, i])))
            best = hit if best is None else min(best, hit)
        if best is not None:
            return best
    return None
