"""Identity suite for group-ring arithmetic.

Each check quantifies over its own tuple domain (group elements, ring
elements, monomials, or whole group-ring elements).  Domains small enough
to enumerate are checked exhaustively; the rest are sampled with a seeded
generator so runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from . import _engine
from .groupring import GroupRing

EXHAUSTIVE_CELL_LIMIT = 2_000_000
DEFAULT_SAMPLES = 1500
MIN_SAMPLED_AGGREGATE = 10_000
_MONO_CHUNK = 1 << 17


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    mode: str            # "exhaustive" or "sampled"
    tuples: int
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0


def _group_tables(ctx: _engine.TableContext):
    g, inv = ctx.gmul, ctx.ginv
    idx = np.arange(g.shape[0])
    comm = g[g[inv[:, None], inv[None, :]], g]
    conj = g[g[inv[None, :], idx[:, None]], idx[None, :]]
    return idx, inv, comm, conj


def _rg_rows_sample(ctx: _engine.TableContext, rng: np.random.Generator,
                    count: int) -> np.ndarray:
    return rng.integers(0, ctx.nr, size=(count, ctx.ng)).astype(np.int16)


def run_identity_suite(rg: GroupRing, samples: int = DEFAULT_SAMPLES,
                       seed: int = 0) -> List[IdentityCheck]:
    """Run every identity check against one context and report each one."""
    ctx = _engine.table_context(rg)
    checks: List[IdentityCheck] = []
    ng, nr = ctx.ng, ctx.nr
    idx, inv, comm, conj = _group_tables(ctx)
    gmul = ctx.gmul
    radd, rmul, rneg = ctx.radd, ctx.rmul, ctx.rneg
    rzero, rone = ctx.rzero, rg.ring.one
    circ_r = radd[rmul, rmul.T]

    # Contexts too big to enumerate must still see >= 10^4 random tuples
    # in total, however many of the checks end up sampled.
    will_sample = sum(
        1 for arity in (2, 2, 1, 3, 3, 3)
        if rg.size ** arity > EXHAUSTIVE_CELL_LIMIT)
    if nr ** 3 > EXHAUSTIVE_CELL_LIMIT:
        will_sample += 1
    if nr * nr * ng * ng > EXHAUSTIVE_CELL_LIMIT:
        will_sample += 1
    if will_sample:
        samples = max(samples, -(-MIN_SAMPLED_AGGREGATE // will_sample))

    def record(name: str, mode: str, tuples: int, bad: int):
        checks.append(IdentityCheck(name, mode, tuples, bad))

    # --- group commutator identities, always exhaustive (|G| <= small) ---
    lhs = comm[gmul[:, :, None], idx[None, None, :]]
    rhs = gmul[conj[comm[:, None, :], idx[None, :, None]], comm[None, :, :]]
    record("commutator-of-product-left", "exhaustive", ng ** 3,
           int((lhs != rhs).sum()))

    lhs = comm[idx[:, None, None], gmul[None, :, :]]
    rhs = gmul[comm[:, None, :], conj[comm[:, :, None], idx[None, None, :]]]
    record("commutator-of-product-right", "exhaustive", ng ** 3,
           int((lhs != rhs).sum()))

    # --- monomial circle identities over coefficient-1 group pairs ---
    # A product of two monomials is a single coefficient at a single
    # position, so both sides are built directly from the group table and
    # compared as coefficient rows (coinciding positions add in R).
    def mono_circle(rs1, gs1, rs2, gs2) -> np.ndarray:
        left = ctx.mono_rows(rmul[rs1, rs2], gmul[gs1, gs2])
        right = ctx.mono_rows(rmul[rs2, rs1], gmul[gs2, gs1])
        return _engine.rows_add(ctx, left, right)

    xs, ys = np.meshgrid(idx, idx, indexing="ij")
    xs, ys = xs.ravel(), ys.ravel()
    ones = np.full(xs.shape, rone, dtype=np.int16)
    s = comm[xs, ys]
    yx = gmul[ys, xs]

    lhs = mono_circle(ones, xs, ones, ys)
    rhs = _engine.rows_add(ctx, ctx.mono_rows(ones, gmul[yx, s]), ctx.mono_rows(ones, yx))
    record("monomial-circle", "exhaustive", ng * ng, int((lhs != rhs).any(axis=1).sum()))

    lhs = mono_circle(ones, gmul[inv[xs], inv[ys]], ones, xs)
    rhs = _engine.rows_add(
        ctx, ctx.mono_rows(ones, gmul[s, inv[ys]]), ctx.mono_rows(ones, inv[ys]))
    record("inverse-pair-circle", "exhaustive", ng * ng,
           int((lhs != rhs).any(axis=1).sum()))

    lhs = mono_circle(ones, gmul[inv[ys], xs], ones, ys)
    rhs = _engine.rows_add(
        ctx, ctx.mono_rows(ones, gmul[xs, s]), ctx.mono_rows(ones, xs))
    record("conjugate-circle", "exhaustive", ng * ng,
           int((lhs != rhs).any(axis=1).sum()))

    # --- ring-level expansion of (ab) o c ---
    if nr ** 3 <= EXHAUSTIVE_CELL_LIMIT:
        a = np.arange(nr)
        lhs = circ_r[rmul[:, :, None], a[None, None, :]]
        t1 = rmul[a[:, None, None], circ_r[None, :, :]]
        t2 = rmul[circ_r.T[:, None, :], a[None, :, None]]
        acb = rmul[rmul[:, None, :], a[None, :, None]]  # [a,b,c] = (a*c)*b
        twice = radd[acb, acb]
        rhs = radd[t1, radd[t2, rneg[twice]]]
        record("product-circle-expansion", "exhaustive", nr ** 3,
               int((lhs != rhs).sum()))
    else:
        rng = np.random.default_rng(seed)
        trip = rng.integers(0, nr, size=(samples, 3))
        bad = 0
        for a, b, c in trip:
            lhs = circ_r[rmul[a, b], c]
            rhs = radd[rmul[a, circ_r[b, c]],
                       radd[rmul[circ_r[c, a], b],
                            rneg[radd[rmul[rmul[a, c], b], rmul[rmul[a, c], b]]]]]
            bad += int(lhs != rhs)
        record("product-circle-expansion", "sampled", samples, bad)

    # --- mixed expansion of (alpha x) o (beta y) ---
    total = nr * nr * ng * ng
    rng = np.random.default_rng(seed + 1)
    if total <= EXHAUSTIVE_CELL_LIMIT:
        alphas, betas, gxs, gys = np.meshgrid(
            np.arange(nr), np.arange(nr), idx, idx, indexing="ij")
        alphas, betas = alphas.ravel(), betas.ravel()
        gxs, gys = gxs.ravel(), gys.ravel()
        mode, count = "exhaustive", total
    else:
        alphas = rng.integers(0, nr, size=samples)
        betas = rng.integers(0, nr, size=samples)
        gxs = rng.integers(0, ng, size=samples)
        gys = rng.integers(0, ng, size=samples)
        mode, count = "sampled", samples
    alphas = alphas.astype(np.int16)
    betas = betas.astype(np.int16)
    bad = 0
    for lo in range(0, count, _MONO_CHUNK):
        al = alphas[lo:lo + _MONO_CHUNK]
        be = betas[lo:lo + _MONO_CHUNK]
        cx = gxs[lo:lo + _MONO_CHUNK]
        cy = gys[lo:lo + _MONO_CHUNK]
        s = comm[cx, cy]
        yx = gmul[cy, cx]
        ab = rmul[al, be]
        lhs = mono_circle(al, cx, be, cy)
        rhs = _engine.rows_add(
            ctx,
            ctx.mono_rows(circ_r[al, be], yx),
            _engine.rows_add(ctx, ctx.mono_rows(ab, gmul[yx, s]),
                             _engine.rows_neg(ctx, ctx.mono_rows(ab, yx))),
        )
        bad += int((lhs != rhs).any(axis=1).sum())
    record("monomial-circle-expansion", mode, count, bad)

    # --- identities over whole group-ring elements ---
    size = rg.size

    def domain(arity: int, salt: int) -> Tuple[np.ndarray, ...]:
        if size ** arity <= EXHAUSTIVE_CELL_LIMIT:
            all_rows, _ = _engine.element_rows(ctx)
            grids = np.meshgrid(*[np.arange(size)] * arity, indexing="ij")
            return ("exhaustive",) + tuple(all_rows[g.ravel()] for g in grids)
        gen = np.random.default_rng(seed + salt)
        return ("sampled",) + tuple(
            _rg_rows_sample(ctx, gen, samples) for _ in range(arity))

    def rows_bad(diff: np.ndarray) -> int:
        return int(diff.any(axis=1).sum())

    mode, A, B = domain(2, 2)
    ab = _engine.rows_mul(ctx, A, B)
    ba = _engine.rows_mul(ctx, B, A)
    lhs = _engine.rows_add(ctx, ab, ba)
    rhs = _engine.rows_add(ctx, ba, ab)
    record("circle-commutative", mode, A.shape[0], rows_bad(lhs != rhs))

    mode, A, B = domain(2, 3)
    sq = _engine.rows_circle(ctx, A, A)
    lhs = _engine.rows_circle(ctx, _engine.rows_circle(ctx, sq, B), A)
    rhs = _engine.rows_circle(ctx, sq, _engine.rows_circle(ctx, B, A))
    record("jordan-identity", mode, A.shape[0], rows_bad(lhs != rhs))

    mode, A = domain(1, 4)
    sq = _engine.rows_mul(ctx, A, A)
    lhs = _engine.rows_add(ctx, sq, _engine.rows_neg(ctx, sq))
    record("bracket-alternating", mode, A.shape[0],
           int((lhs != rzero).any(axis=1).sum()))

    mode, A, B, C = domain(3, 5)
    j1 = _engine.rows_bracket(ctx, _engine.rows_bracket(ctx, A, B), C)
    j2 = _engine.rows_bracket(ctx, _engine.rows_bracket(ctx, B, C), A)
    j3 = _engine.rows_bracket(ctx, _engine.rows_bracket(ctx, C, A), B)
    total_rows = _engine.rows_add(ctx, j1, _engine.rows_add(ctx, j2, j3))
    record("bracket-jacobi", mode, A.shape[0],
           int((total_rows != rzero).any(axis=1).sum()))

    mode, A, B, C = domain(3, 6)
    lhs = _engine.rows_circle(ctx, _engine.rows_add(ctx, A, B), C)
    rhs = _engine.rows_add(ctx, _engine.rows_circle(ctx, A, C),
                           _engine.rows_circle(ctx, B, C))
    record("circle-additive-in-slot", mode, A.shape[0], rows_bad(lhs != rhs))

    mode, A, B, C = domain(3, 7)
    lhs = _engine.rows_bracket(ctx, _engine.rows_add(ctx, A, B), C)
    rhs = _engine.rows_add(ctx, _engine.rows_bracket(ctx, A, C),
                           _engine.rows_bracket(ctx, B, C))
    record("bracket-additive-in-slot", mode, A.shape[0], rows_bad(lhs != rhs))

    return checks


def suite_passed(checks: List[IdentityCheck]) -> bool:
    return all(c.ok for c in checks)
