"""The identity suite itself: modes, determinism, sampling floor, and a
negative control proving the checks can actually fail."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from jrl import _engine, identities
from jrl.groupring import GroupRing, circle, lie_bracket
from jrl.groups import FiniteGroup, builtin_group
from jrl.identities import (
    DEFAULT_SAMPLES,
    MIN_SAMPLED_AGGREGATE,
    IdentityCheck,
    run_identity_suite,
    suite_passed,
)
from jrl.rings import FiniteRing, builtin_ring

CHECK_NAMES = [
    "commutator-of-product-left",
    "commutator-of-product-right",
    "monomial-circle",
    "inverse-pair-circle",
    "conjugate-circle",
    "product-circle-expansion",
    "monomial-circle-expansion",
    "circle-commutative",
    "jordan-identity",
    "bracket-alternating",
    "bracket-jacobi",
    "circle-additive-in-slot",
    "bracket-additive-in-slot",
]


def make(ring, group):
    return GroupRing(builtin_ring(ring), builtin_group(group))


@pytest.mark.parametrize("ring,group", [
    ("Z2", "C2"), ("Z4", "D4"), ("M2F2", "S3"), ("H32", "C2"), ("T2Z4", "C4"),
])
def test_suite_passes_and_covers_all_checks(ring, group):
    checks = run_identity_suite(make(ring, group), samples=300)
    assert [c.name for c in checks] == CHECK_NAMES
    assert suite_passed(checks)
    for c in checks:
        assert c.ok and c.failures == 0 and c.tuples > 0
        assert c.mode in ("exhaustive", "sampled")


def test_tiny_context_is_fully_exhaustive():
    checks = run_identity_suite(make("Z2", "C2"))
    assert all(c.mode == "exhaustive" for c in checks)
    by_name = {c.name: c for c in checks}
    assert by_name["monomial-circle"].tuples == 4
    assert by_name["product-circle-expansion"].tuples == 8
    assert by_name["monomial-circle-expansion"].tuples == 16
    assert by_name["circle-commutative"].tuples == 16
    assert by_name["bracket-jacobi"].tuples == 64


def test_sampled_aggregate_floor():
    # 1024-element context: the three arity-3 checks sample, everything
    # else enumerates, and the floor must push the sampled total past 10^4.
    checks = run_identity_suite(make("H32", "C2"), samples=50)
    sampled = [c for c in checks if c.mode == "sampled"]
    assert {c.name for c in sampled} == {
        "bracket-jacobi", "circle-additive-in-slot", "bracket-additive-in-slot"}
    assert sum(c.tuples for c in sampled) >= MIN_SAMPLED_AGGREGATE
    assert suite_passed(checks)


def test_explicit_samples_above_floor_win():
    checks = run_identity_suite(make("H32", "C2"), samples=5000)
    for c in checks:
        if c.mode == "sampled":
            assert c.tuples == 5000


def test_seed_determinism():
    a = run_identity_suite(make("Z8", "D4"), samples=200, seed=9)
    b = run_identity_suite(make("Z8", "D4"), samples=200, seed=9)
    assert a == b
    c = run_identity_suite(make("Z8", "D4"), samples=200, seed=10)
    assert suite_passed(c)


def test_identity_check_ok_property():
    assert IdentityCheck("x", "sampled", 10, 0).ok
    assert not IdentityCheck("x", "sampled", 10, 1).ok
    good = run_identity_suite(make("Z2", "C1"))
    assert suite_passed(good)
    assert not suite_passed(good + [IdentityCheck("x", "sampled", 10, 3)])


def test_every_check_reports_its_time():
    checks = run_identity_suite(make("Z4", "D4"), samples=200)
    assert [c.name for c in checks] == CHECK_NAMES
    assert all(c.ms > 0 for c in checks)
    # the time is reported, not compared: equal checks stay equal
    assert IdentityCheck("x", "sampled", 10, 0, 1.5) == IdentityCheck("x", "sampled", 10, 0)


def scalar_spot_checks(rg, count, seed):
    """The same laws, written with the scalar element type."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, rg.ring.order, size=(3 * count, rg.group.order))
    els = [rg.element([int(v) for v in r]) for r in rows]
    for a, b, c in zip(els[::3], els[1::3], els[2::3]):
        sq = circle(a, a)
        assert circle(circle(sq, b), a) == circle(sq, circle(b, a))
        assert lie_bracket(a, a).is_zero()
        j = (lie_bracket(lie_bracket(a, b), c)
             + lie_bracket(lie_bracket(b, c), a)
             + lie_bracket(lie_bracket(c, a), b))
        assert j.is_zero()


def test_laws_also_hold_in_scalar_arithmetic():
    scalar_spot_checks(make("Z4", "S3"), 15, seed=2)
    scalar_spot_checks(make("H16", "D4"), 10, seed=3)


def broken_z4() -> FiniteRing:
    """Z4 with one corrupted product entry, built without the validating
    constructor so the suite's sensitivity can be observed."""
    good = builtin_ring("Z4")
    R = object.__new__(FiniteRing)
    R.name = "Z4broken"
    R.order = 4
    R.zero = 0
    R.one = 1
    R.add_table = np.array(good.add_table)
    mul = np.array(good.mul_table)
    mul[3, 3] = 2
    R.mul_table = mul
    R._neg = np.array([good.neg(a) for a in range(4)], dtype=np.int16)
    R._add_rows = [[good.add(a, b) for b in range(4)] for a in range(4)]
    R._mul_rows = [[int(mul[a, b]) for b in range(4)] for a in range(4)]
    R._char = None
    R._comm = None
    R._gens = None
    return R


def test_suite_detects_corrupted_arithmetic():
    rg = GroupRing(broken_z4(), builtin_group("C2"))
    checks = run_identity_suite(rg, samples=200)
    assert not suite_passed(checks)
    assert any(c.failures > 0 for c in checks)


def test_every_check_can_run_sampled(monkeypatch):
    # With a limit of one tuple no domain is enumerated: all 13 checks go
    # through the sampled path and share the 10^4 floor equally
    # (ceil(10^4 / 13) = 770 tuples each).
    monkeypatch.setattr(identities, "EXHAUSTIVE_CELL_LIMIT", 1)
    checks = run_identity_suite(make("Z2", "C2"), samples=50)
    assert [c.name for c in checks] == CHECK_NAMES
    assert all(c.mode == "sampled" and c.tuples == 770 for c in checks)
    assert suite_passed(checks)
    broken = run_identity_suite(GroupRing(broken_z4(), builtin_group("C2")), samples=50)
    assert all(c.mode == "sampled" for c in broken)
    assert not suite_passed(broken)


def test_sampled_draws_are_pinned():
    # The corrupted ring over D4 at seed 3: the five element checks of
    # arity 2 and 3 are sampled, so these failure counts change whenever
    # the seeded draws do.
    checks = run_identity_suite(GroupRing(broken_z4(), builtin_group("D4")), seed=3)
    assert [c.name for c in checks] == CHECK_NAMES
    failures = {c.name: c.failures for c in checks if c.failures}
    assert failures == {
        "product-circle-expansion": 2,
        "bracket-jacobi": 1482,
        "circle-additive-in-slot": 1748,
        "bracket-additive-in-slot": 1310,
    }
    sampled = {c.name: c.tuples for c in checks if c.mode == "sampled"}
    assert sampled == {"jordan-identity": 2000, "bracket-jacobi": 2000,
                       "circle-additive-in-slot": 2000,
                       "bracket-additive-in-slot": 2000, "circle-commutative": 2000}


def broken_group(name: str, kind: str) -> FiniteGroup:
    """A built-in group with one fault, built without the validating
    constructor: "inverse" swaps the inverses of elements 1 and 2, "table"
    overwrites the product 1*2 with 1*3."""
    good = builtin_group(name)
    G = object.__new__(FiniteGroup)
    G.name = f"{name}broken"
    G.order = good.order
    G.identity = good.identity
    table, inv = np.array(good.table), np.array(good._inv)
    if kind == "inverse":
        inv[[1, 2]] = inv[[2, 1]]
    else:
        table[1, 2] = table[1, 3]
    G.table = table
    G._inv = inv
    G._rows = [[int(x) for x in row] for row in table]
    G._abelian = None
    return G


MONOMIAL_CHECKS = ("monomial-circle", "inverse-pair-circle", "conjugate-circle",
                   "monomial-circle-expansion")


@pytest.mark.parametrize("ring,group,kind,failures", [
    ("Z4", "D4", "inverse", {
        "commutator-of-product-left": 308, "commutator-of-product-right": 276,
        "monomial-circle": 26, "inverse-pair-circle": 28, "conjugate-circle": 28,
        "monomial-circle-expansion": 208, "jordan-identity": 1276,
        "bracket-jacobi": 1953}),
    ("M2F2", "S3", "table", {
        "commutator-of-product-left": 47, "commutator-of-product-right": 45,
        "monomial-circle": 4, "inverse-pair-circle": 5, "conjugate-circle": 6,
        "monomial-circle-expansion": 792, "bracket-jacobi": 1666}),
], ids=["Z4-D4-inverse", "M2F2-S3-table"])
def test_monomial_checks_detect_a_corrupted_group(ring, group, kind, failures):
    # broken_z4 stays consistent with its own circle table, so the four
    # monomial checks pass on it; a corrupted group makes each of them fail.
    # The counts are pinned: they are exactly the tuples whose two sides
    # differ, so any change to how the sides are compared shows here.
    checks = run_identity_suite(GroupRing(builtin_ring(ring), broken_group(group, kind)))
    assert [c.name for c in checks] == CHECK_NAMES
    assert {c.name: c.failures for c in checks if c.failures} == failures
    assert all(failures[name] > 0 for name in MONOMIAL_CHECKS)


def test_monomial_expansion_chunk_memory_is_bounded():
    # One chunk of 2^16 (r, s, x, y) tuples over the 64-element D4xD4: both
    # sides and their comparison.  Built as dense coefficient rows, each
    # side alone would be a (2^16, 64) int16 block of 8 MB.
    rg = make("M2F2", "D4xD4")
    tests = {name: (dims, test) for name, dims, _, test in identities.check_table(rg)}
    dims, test = tests["monomial-circle-expansion"]
    n = identities._MONO_CHUNK
    coords = np.unravel_index(np.arange(n), dims)
    tracemalloc.start()
    try:
        lhs, rhs = test(*coords)
        bad = int(np.not_equal(lhs, rhs).reshape(n, -1).any(axis=1).sum())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert bad == 0
    assert peak <= 4 << 20


def test_monomial_expansion_mesh_chunk_memory_is_bounded():
    # The suite's own chunk of the (r, s, x, y) mesh over M2F2[D4xD4]: the
    # domain (16, 16, 64, 64) splits after r, so a chunk is one r against
    # every s, x and y, and factors of (x, y) alone are 64 x 64 arrays.
    rg = make("M2F2", "D4xD4")
    tests = {name: (dims, test) for name, dims, _, test in identities.check_table(rg)}
    dims, test = tests["monomial-circle-expansion"]
    t = identities._split(dims)
    step = identities._MONO_CHUNK // math.prod(dims[t:])
    tracemalloc.start()
    try:
        lhs, rhs = test(*identities._mesh(dims, t, np.arange(step)))
        bad = int(np.not_equal(lhs, rhs).any(axis=-1).sum())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (t, step, bad) == (1, 1, 0)
    assert peak <= 4 << 20


# --- mesh enumeration ---------------------------------------------------------

MESH_CONTEXTS = {
    "Z8-C2": lambda: make("Z8", "C2"),
    "Z4broken-C2": lambda: GroupRing(broken_z4(), builtin_group("C2")),
    "Z4-D4inverse": lambda: GroupRing(builtin_ring("Z4"), broken_group("D4", "inverse")),
    "M2F2-S3table": lambda: GroupRing(builtin_ring("M2F2"), broken_group("S3", "table")),
}


MESH_CASES = [  # context, on rows?, chunk sizes, the splits of 4- and 3-coordinate domains
    # the exhaustive 3-ary element checks' (64, 64, 64) split at 3 and 2
    ("Z8-C2", False, (50, 100), {1}, {1, 2, 3}),
    # (r, s, x, y) = (4, 4, 2, 2) and (a, b, c) = (4, 4, 4) split at 3, 2, 1
    ("Z4broken-C2", False, (3, 12, 100), {1, 2, 3}, {1, 2, 3}),
    ("Z4-D4inverse", False, (16, 100, 1000), {1, 2, 3}, {1, 2}),
    ("M2F2-S3table", False, (12, 100), {2, 3}, {1, 2, 3}),
    ("Z4broken-C2", True, (12, 100), {1, 2}, {1, 2}),
]


@pytest.mark.parametrize("name,rows,chunks,splits4,splits3", MESH_CASES,
                         ids=[case[0] + "-rows" * case[1] for case in MESH_CASES])
def test_mesh_equals_flat_enumeration(monkeypatch, name, rows, chunks, splits4, splits3):
    # Smaller chunks move the split between the flat leading coordinates
    # and the mesh's trailing ones; every check must count the same tuples
    # and the same failures wherever it falls (or with no mesh at all).
    if rows:
        monkeypatch.setattr(identities, "_element_ids", lambda ctx: None)
    expected = [(c.name, c.mode, c.tuples, c.failures)
                for c in run_identity_suite(MESH_CONTEXTS[name](), seed=3)]
    seen, split = set(), identities._split
    monkeypatch.setattr(identities, "_split", lambda shape: seen.add(
        (len(shape), split(shape))) or split(shape))
    for chunk in chunks:
        monkeypatch.setattr(identities, "_MONO_CHUNK", chunk)
        checks = run_identity_suite(MESH_CONTEXTS[name](), seed=3)
        assert [(c.name, c.mode, c.tuples, c.failures) for c in checks] == expected, chunk
    assert {t for k, t in seen if k == 4} == splits4
    assert {t for k, t in seen if k == 3} == splits3


def test_sides_that_ignore_a_coordinate_count_every_tuple(monkeypatch):
    # A test need only return sides that broadcast against the mesh: these
    # depend on x alone, and each failing x fails for every y with it.
    row = ("x-only", (3, 5), 0, lambda x, y: (x, 0))
    monkeypatch.setattr(identities, "check_table", lambda rg, element_ids=None: (row,))
    [check] = run_identity_suite(make("Z2", "C2"))
    assert (check.mode, check.tuples, check.failures) == ("exhaustive", 15, 10)


@pytest.mark.parametrize("rg", [
    lambda: GroupRing(builtin_ring("Z4"), broken_group("D4", "inverse")),
    lambda: GroupRing(builtin_ring("M2F2"), broken_group("S3", "table")),
    lambda: GroupRing(broken_z4(), builtin_group("D4")),
], ids=["Z4-D4inverse", "M2F2-S3table", "Z4broken-D4"])
def test_rows_circle_and_bracket_stay_literal(rg):
    # ab + ba and ab - ba, each term at its own g: a fold that pairs the
    # BA term at g with h g^-1 regroups by group axioms, which a corrupted
    # group breaks, and changes the suite's pinned failure counts.
    ctx = _engine.table_context(rg())
    rng = np.random.default_rng(7)
    A, B = (rng.integers(0, ctx.nr, size=(200, ctx.ng)).astype(np.int16) for _ in range(2))
    ab, ba = _engine.rows_mul(ctx, A, B), _engine.rows_mul(ctx, B, A)
    np.testing.assert_array_equal(_engine.rows_circle(ctx, A, B), _engine.rows_add(ctx, ab, ba))
    np.testing.assert_array_equal(_engine.rows_bracket(ctx, A, B),
                                  _engine.rows_add(ctx, ab, _engine.rows_neg(ctx, ba)))


# --- element checks on id tables ----------------------------------------------

ID_TABLE_CONTEXTS = {
    "Z2-S3": lambda: make("Z2", "S3"),
    "Z4-C2": lambda: make("Z4", "C2"),
    "H32-C2": lambda: make("H32", "C2"),
    # broken_z4 over C4, not D4: 4^8 elements over D4 are too many pairs
    "Z4broken-C4": lambda: GroupRing(broken_z4(), builtin_group("C4")),
    "Z4-C4inverse": lambda: GroupRing(builtin_ring("Z4"), broken_group("C4", "inverse")),
}


@pytest.mark.parametrize("name", list(ID_TABLE_CONTEXTS))
def test_id_path_equals_row_path(monkeypatch, name):
    # Every pair of elements can be enumerated, so the element checks run on
    # id tables; without them they run on rows, through the same kernels.
    rg = ID_TABLE_CONTEXTS[name]()
    assert rg.size ** 2 <= identities.EXHAUSTIVE_CELL_LIMIT
    by_ids = run_identity_suite(rg, seed=3)
    monkeypatch.setattr(identities, "_element_ids", lambda ctx: None)
    by_rows = run_identity_suite(ID_TABLE_CONTEXTS[name](), seed=3)
    assert by_ids == by_rows
    if "broken" in name or "inverse" in name:
        assert not suite_passed(by_ids)


def test_id_tables_come_from_rows_mul_on_every_pair(monkeypatch):
    from jrl import _engine
    rg = make("Z2", "S3")
    pairs, real = [], _engine.rows_mul
    monkeypatch.setattr(_engine, "rows_mul", lambda ctx, A, B: pairs.append(len(A)) or
                        real(ctx, A, B))

    def refuse(*args):
        raise AssertionError("the id tables must not come from product_with_row")
    monkeypatch.setattr(_engine, "product_with_row", refuse)
    identities._element_ids(_engine.table_context(rg)).tables()
    assert sum(pairs) == rg.size ** 2
    assert suite_passed(run_identity_suite(rg))


@pytest.mark.parametrize("ring,group", [("Z2", "S3"), ("H32", "C2"), ("Z8", "D4")])
def test_check_times_sum_to_the_suite_wall_time(ring, group):
    # set-up and the id tables are charged to the checks, so no time goes
    # unreported
    rg = make(ring, group)
    start = time.perf_counter()
    checks = run_identity_suite(rg, samples=200)
    wall = (time.perf_counter() - start) * 1e3
    assert abs(sum(c.ms for c in checks) - wall) <= 0.05 * wall
