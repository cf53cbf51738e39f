"""Structural classifier: frozen verdict map plus agreement with the
tuple-search oracle on representative contexts."""

import gc
import weakref

import pytest

from jrl import groups, nilpotency
from jrl.classify import CLAUSE_TEXT, ClassificationResult, classify, explain
from jrl.groupring import GroupRing
from jrl.groups import BUILTIN_GROUP_NAMES, FiniteGroup, builtin_group, center, derived_subgroup
from jrl.nilpotency import minimal_jordan_index, spanning_set
from jrl.rings import BUILTIN_RING_NAMES, FiniteRing, builtin_ring

from support_rings import scalar_plus_strict_upper_4x4_gf2

ABELIAN = ("C1", "C2", "C4", "C8", "C2xC2")

# Every context whose index is decided; everything else in the catalog
# must come back as "not within four".
CLASSIFIED = {}
for g in ABELIAN:
    CLASSIFIED[("Z2", g)] = (2, "index2:commutative-char2-abelian")
    CLASSIFIED[("Z4", g)] = (3, "index3:char4-abelian")
    CLASSIFIED[("Z8", g)] = (4, "index4:char8-abelian")
    CLASSIFIED[("H16", g)] = (3, "index3:abelian-ring-index3")
    CLASSIFIED[("H32", g)] = (3, "index3:abelian-ring-index3")
for g in ("D4", "Q8"):
    CLASSIFIED[("Z2", g)] = (3, "index3:char2-derived-c2")
    CLASSIFIED[("Z4", g)] = (4, "index4:char4-derived-c2")
    CLASSIFIED[("H16", g)] = (4, "index4:char2-circle-conds-derived-c2")
    CLASSIFIED[("H32", g)] = (4, "index4:char4-circle-conds-derived-c2")
CLASSIFIED[("Z2", "D4xD4")] = (4, "index4:char2-derived-klein-central")


@pytest.mark.parametrize("ring", BUILTIN_RING_NAMES)
@pytest.mark.parametrize("group", BUILTIN_GROUP_NAMES)
def test_frozen_catalog_verdicts(ring, group):
    res = classify(builtin_ring(ring), builtin_group(group))
    index, clause = CLASSIFIED.get((ring, group), (None, None))
    assert res.index == index
    assert res.clause == clause
    assert res.within_four == (index is not None)


def test_every_clause_fires_somewhere():
    seen = {clause for _, clause in CLASSIFIED.values()}
    U = scalar_plus_strict_upper_4x4_gf2()
    seen.add(classify(U, builtin_group("C2")).clause)
    assert seen == set(CLAUSE_TEXT)


def test_nonstandard_ring_with_abelian_group_hits_ring_index4_clause():
    U = scalar_plus_strict_upper_4x4_gf2()
    for g in ("C1", "C2", "C4", "C2xC2"):
        res = classify(U, builtin_group(g))
        assert res.index == 4
        assert res.clause == "index4:abelian-ring-index4"
    assert classify(U, builtin_group("S3")).index is None


ORACLE_SUBSET = [
    ("Z2", "C2"), ("Z2", "D4"), ("Z2", "S3"), ("Z4", "C1"), ("Z4", "D4"),
    ("Z8", "C4"), ("Z16", "C1"), ("M2F2", "S3"), ("T2F2", "C4"),
    ("H16", "C2xC2"), ("H16", "D4"), ("H32", "Q8"), ("H32", "C4"),
]


@pytest.mark.parametrize("ring,group", ORACLE_SUBSET)
def test_verdict_agrees_with_search_oracle(ring, group):
    R, G = builtin_ring(ring), builtin_group(group)
    res = classify(R, G)
    oracle = minimal_jordan_index(spanning_set(GroupRing(R, G)), max_n=4)
    assert res.index == oracle


def test_nonstandard_ring_verdicts_agree_with_oracle():
    U = scalar_plus_strict_upper_4x4_gf2()
    for g in ("C1", "C2", "C4"):
        rg = GroupRing(U, builtin_group(g))
        assert minimal_jordan_index(spanning_set(rg), max_n=4) == 4


def test_facts_record():
    res = classify(builtin_ring("Z4"), builtin_group("D4"))
    assert res.facts == {
        "characteristic": 4,
        "ring_commutative": True,
        "ring_order": 4,
        "group_abelian": False,
        "group_order": 8,
        "derived_order": 2,
        "derived_iso": "C2",
        "derived_central": True,
        "ring_jordan_upper": 3,
        "two_circle_zero": True,
        "circle_circle_zero": True,
        "circle_square_zero": True,
    }


def test_result_equality_ignores_facts():
    a = ClassificationResult(3, "index3:char4-abelian", {"characteristic": 4})
    b = ClassificationResult(3, "index3:char4-abelian", {})
    assert a == b


def test_explain_positive_verdict():
    text = explain(classify(builtin_ring("Z4"), builtin_group("D4")))
    assert "minimal Jordan nilpotency index 4" in text
    assert "index4:char4-derived-c2" in text
    assert CLAUSE_TEXT["index4:char4-derived-c2"] in text
    assert "order 4, characteristic 4, commutative" in text
    assert "order 8, non-abelian, derived subgroup C2 (order 2, central)" in text


def test_explain_negative_verdict():
    text = explain(classify(builtin_ring("M2F2"), builtin_group("D4")))
    assert "not Jordan nilpotent of any index up to 4" in text
    assert "clause" not in text
    assert "non-commutative" in text


def test_explain_mentions_ring_own_index():
    text = explain(classify(builtin_ring("H16"), builtin_group("C2")))
    assert "Jordan nilpotent of index 3 on its own" in text


# --- facts kept on the structures ---------------------------------------------

def rebuilt_ring(R):
    """R's tables in a new FiniteRing, with nothing kept on it yet."""
    return FiniteRing(R.name, R.add_table, R.mul_table, R.zero, R.one)


def rebuilt_group(G):
    return FiniteGroup(G.name, G.table, G.identity)


def built_without_init(structure):
    """A copy made by object.__new__, as the identity suite builds its
    corrupted rings and groups: what the constructor set, and nothing
    kept on first use."""
    copy = object.__new__(type(structure))
    vars(copy).update(vars(structure))
    return copy


def verdict_and_facts(res):
    return res.index, res.clause, res.facts


def test_kept_facts_classify_as_fresh_structures():
    for r in BUILTIN_RING_NAMES:
        for g in BUILTIN_GROUP_NAMES:
            R, G = builtin_ring(r), builtin_group(g)
            classify(R, G)
            warm = classify(R, G)
            fresh = classify(rebuilt_ring(R), rebuilt_group(G))
            assert verdict_and_facts(warm) == verdict_and_facts(fresh), (r, g)


def test_a_fresh_ring_is_searched_once_over_two_groups(monkeypatch):
    searched = []
    search = nilpotency.minimal_jordan_index

    def spy(S, max_n=6):
        searched.append(S.context)
        return search(S, max_n)

    monkeypatch.setattr(nilpotency, "minimal_jordan_index", spy)
    R = rebuilt_ring(builtin_ring("H16"))
    assert [classify(R, builtin_group(g)).index for g in ("C2", "D4")] == [3, 4]
    assert searched == [R]


def test_a_fresh_group_closes_its_commutators_once(monkeypatch):
    closed = []
    generated = groups._generated

    def spy(table, seed, e):
        closed.append(table)
        return generated(table, seed, e)

    monkeypatch.setattr(groups, "_generated", spy)
    G = rebuilt_group(builtin_group("D4xD4"))
    assert [classify(builtin_ring(r), G).index for r in ("Z2", "Z4")] == [4, None]
    assert len(closed) == 1 and closed[0] is G.table
    assert derived_subgroup(G).members == G._derived == (0, 2, 16, 18)
    assert center(G).members == G._center == center(builtin_group("D4xD4")).members


def test_structures_built_without_init_classify():
    R, G = builtin_ring("H32"), builtin_group("Q8")
    want = classify(R, G)
    got = classify(built_without_init(rebuilt_ring(R)), built_without_init(rebuilt_group(G)))
    assert verdict_and_facts(got) == verdict_and_facts(want)


def test_classified_structures_die_by_reference_counting():
    # the facts kept on R and G must not hold R or G
    R, G = rebuilt_ring(builtin_ring("H16")), rebuilt_group(builtin_group("D4"))
    refs = weakref.ref(R), weakref.ref(G)
    gc.disable()
    try:
        assert classify(R, G).index == 4
        assert R._ring_conditions and G._derived and G._center
        del R, G
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
