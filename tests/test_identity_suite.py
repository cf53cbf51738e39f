"""The identity suite itself: modes, determinism, sampling floor, and a
negative control proving the checks can actually fail."""

import numpy as np
import pytest

from jrl import identities
from jrl.groupring import GroupRing, circle, lie_bracket
from jrl.groups import builtin_group
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
