"""Acceptance gate: seven end-to-end criteria, one printed verdict line each.

Every test prints its [PASS]/[FAIL] line through capsys.disabled() before
asserting, so the verdicts show up under a plain ``pytest -v`` run even
when a criterion fails.
"""

import time

import pytest

from jrl.cli import main as cli_main
from jrl.classify import classify
from jrl.fileio import write_ring_file
from jrl.groups import (
    BUILTIN_GROUP_NAMES,
    FiniteGroup,
    builtin_group,
    derived_subgroup,
    is_central,
    iso_class,
)
from jrl.groupring import GroupRing, left_normed_jordan
from jrl.harness import crosscheck, default_catalog
from jrl.identities import (
    EXHAUSTIVE_CELL_LIMIT,
    MIN_SAMPLED_AGGREGATE,
    run_identity_suite,
    suite_passed,
)
from jrl.nilpotency import (
    exhaustive_check,
    ring_conditions,
    spanning_set,
    vanishes_left_normed,
)
from jrl.rings import BUILTIN_RING_NAMES, FiniteRing, builtin_ring
from support_groups import commutator_span_condition, squares_central

EXHAUSTIVE_SIZE_CAP = 4096


def all_contexts():
    for rn in BUILTIN_RING_NAMES:
        for gn in BUILTIN_GROUP_NAMES:
            yield rn, gn, GroupRing(builtin_ring(rn), builtin_group(gn))


def verdict(capsys, ok, label, detail):
    with capsys.disabled():
        print(f"\n[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


@pytest.fixture(scope="module")
def catalog_records():
    return crosscheck(default_catalog())


def test_criterion_1_axiom_validation_speed(capsys):
    start = time.perf_counter()
    for name in BUILTIN_RING_NAMES:
        R = builtin_ring(name)
        rebuilt = FiniteRing(R.name, R.add_table, R.mul_table, R.zero, R.one)
        assert rebuilt.order == R.order
    for name in BUILTIN_GROUP_NAMES:
        G = builtin_group(name)
        rebuilt = FiniteGroup(G.name, G.table, G.identity)
        assert rebuilt.order == G.order
    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    verdict(capsys, ok, "criterion 1",
            f"all {len(BUILTIN_RING_NAMES)} rings and {len(BUILTIN_GROUP_NAMES)} "
            f"groups revalidated exhaustively in {elapsed:.2f}s (limit 5s)")
    assert ok


def test_criterion_2_identity_suite(capsys):
    start = time.perf_counter()
    contexts = checks_total = 0
    for rn, gn, rg in all_contexts():
        checks = run_identity_suite(rg)
        contexts += 1
        checks_total += len(checks)
        assert suite_passed(checks), f"identity failure on {rg.name}"
        sampled = [c for c in checks if c.mode == "sampled"]
        if sampled:
            agg = sum(c.tuples for c in sampled)
            assert agg >= MIN_SAMPLED_AGGREGATE, (rg.name, agg)
        if rg.size ** 3 <= EXHAUSTIVE_CELL_LIMIT:
            assert not sampled, f"{rg.name} is small enough to enumerate fully"
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    verdict(capsys, ok, "criterion 2",
            f"{checks_total} identity checks over {contexts} contexts in "
            f"{elapsed:.1f}s (limit 60s), sampled tiers all >= "
            f"{MIN_SAMPLED_AGGREGATE} tuples")
    assert ok


def test_criterion_3_spanning_equals_exhaustive(capsys):
    start = time.perf_counter()
    compared = 0
    for rn, gn, rg in all_contexts():
        if rg.size > EXHAUSTIVE_SIZE_CAP:
            continue
        S = spanning_set(rg)
        for n in (2, 3, 4):
            assert (exhaustive_check(rg, n)
                    == bool(vanishes_left_normed(S, n))), (rg.name, n)
        compared += 1
    elapsed = time.perf_counter() - start
    ok = elapsed < 120.0 and compared == 31
    verdict(capsys, ok, "criterion 3",
            f"spanning decision == full-space decision on {compared} contexts "
            f"(<= {EXHAUSTIVE_SIZE_CAP} elements) x degrees 2-4 in "
            f"{elapsed:.1f}s (limit 120s)")
    assert ok


ANCHORS = {
    ("Z2", "C2"): 2,
    ("Z4", "C1"): 3,
    ("Z2", "D4"): 3,
    ("Z8", "C4"): 4,
    ("Z4", "D4"): 4,
}


def test_criterion_4_catalog_crosscheck(capsys, catalog_records):
    records = catalog_records
    assert len(records) == 81
    by_pair = {(r.entry.ring_name.split(":")[1],
                r.entry.group_name.split(":")[1]): r for r in records}

    disagreements = [r for r in records if r.status == "Disagree"]
    assert not disagreements, [r.entry for r in disagreements]

    for pair, index in ANCHORS.items():
        rec = by_pair[pair]
        assert rec.predicted.index == index, (pair, rec.predicted.index)
        assert rec.oracle == index, (pair, rec.oracle)

    # The two clauses that rest on ring-level circle conditions must each
    # fire on catalog instances, and the rings must actually satisfy the
    # conditions those clauses require; a silent regression here would
    # hollow out the classifier, so fail hard.
    char4_clause = {p for p, r in by_pair.items()
                    if r.predicted.clause == "index4:char4-circle-conds-derived-c2"}
    char2_clause = {p for p, r in by_pair.items()
                    if r.predicted.clause == "index4:char2-circle-conds-derived-c2"}
    assert ("H32", "D4") in char4_clause and ("H32", "Q8") in char4_clause
    assert ("H16", "D4") in char2_clause
    c16 = ring_conditions(builtin_ring("H16"))
    c32 = ring_conditions(builtin_ring("H32"))
    assert c16.two_circle_zero and c16.circle_circle_zero and c16.circle_square_zero, \
        "H16 stopped satisfying its circle conditions"
    assert c32.two_circle_zero and c32.circle_circle_zero and c32.circle_square_zero, \
        "H32 stopped satisfying its circle conditions"

    agree = sum(1 for r in records if r.status == "Agree")
    ok = agree == 81 and not disagreements
    classify_ms = sum(r.classify_ms for r in records)
    search_ms = sum(r.search_ms for r in records)
    verdict(capsys, ok, "criterion 4",
            f"9x9 catalog: {agree} Agree, 0 Disagree; "
            f"anchors and both circle-condition clauses verified; "
            f"classify {classify_ms:.1f} ms, search {search_ms:.1f} ms")
    assert ok


def test_criterion_5_structural_consequences(capsys, catalog_records):
    # index n forces the characteristic to divide 2^(n-1)
    checked_div = 0
    for rec in catalog_records:
        if rec.oracle is None:
            continue
        ring_name = rec.entry.ring_name.split(":")[1]
        char = builtin_ring(ring_name).characteristic()
        assert 2 ** (rec.oracle - 1) % char == 0, (rec.entry, char)
        checked_div += 1

    # characteristic exactly 2^(n-1) at index n forces an abelian group
    checked_ab = 0
    for rec in catalog_records:
        if rec.oracle is None:
            continue
        ring_name = rec.entry.ring_name.split(":")[1]
        group_name = rec.entry.group_name.split(":")[1]
        if builtin_ring(ring_name).characteristic() == 2 ** (rec.oracle - 1):
            assert builtin_group(group_name).is_abelian, rec.entry
            checked_ab += 1

    # squares all central forces a central derived subgroup of exponent <= 2
    sq_holds = []
    for name in BUILTIN_GROUP_NAMES:
        G = builtin_group(name)
        if squares_central(G):
            sq_holds.append(name)
            D = derived_subgroup(G)
            assert is_central(G, D.members), name
            assert all(G.element_order(d) <= 2 for d in D.members), name

    # the commutator-span condition forces a cyclic derived subgroup
    span_holds = []
    for name in BUILTIN_GROUP_NAMES:
        G = builtin_group(name)
        if commutator_span_condition(G):
            span_holds.append(name)
            D = derived_subgroup(G)
            assert iso_class(D) == f"C{D.order}", name

    ok = checked_div > 0 and checked_ab > 0 and sq_holds and span_holds
    verdict(capsys, ok, "criterion 5",
            f"divisibility on {checked_div} oracle verdicts, abelian forcing on "
            f"{checked_ab}, central-exponent-2 on {len(sq_holds)} groups, "
            f"cyclic derived on {len(span_holds)} groups")
    assert ok


def test_criterion_6_large_context_search(capsys):
    rg = GroupRing(builtin_ring("Z2"), builtin_group("D4xD4"))
    S = spanning_set(rg)
    start = time.perf_counter()
    three = vanishes_left_normed(S, 3)
    four = vanishes_left_normed(S, 4)
    elapsed = time.perf_counter() - start
    assert four.vanishes and (four.indices, four.witness) == (None, None)
    assert not three.vanishes and three.indices == (1, 12, 32)
    assert three.witness == tuple(S.monomials[i] for i in three.indices)
    assert not left_normed_jordan(three.witness).is_zero()
    assert classify(rg.ring, rg.group).index == 4
    ok = elapsed < 60.0
    verdict(capsys, ok, "criterion 6",
            f"Z2[D4xD4] degrees 3+4 in {elapsed:.2f}s (limit 60s)")
    assert ok


def test_criterion_7_cli_crosscheck_and_corruption(capsys, tmp_path):
    report = tmp_path / "report.tsv"
    code = cli_main(["crosscheck", "--report", str(report)])
    out = capsys.readouterr().out
    rows = report.read_text().strip().splitlines()
    statuses = [line.split("\t")[5] for line in rows[1:]]
    assert code == 0
    assert len(rows) == 82
    assert "Disagree" not in statuses

    good_path = tmp_path / "z4.ring"
    write_ring_file(builtin_ring("Z4"), good_path)
    bad_path = tmp_path / "corrupt.ring"
    bad_path.write_text(good_path.read_text().replace("0 2 0 2", "0 2 1 2"))
    bad_code = cli_main(["validate", str(bad_path)])
    err = capsys.readouterr().err
    assert bad_code == 1
    assert "NotAssociative" in err

    ok = code == 0 and "Disagree" not in statuses and bad_code == 1
    verdict(capsys, ok, "criterion 7",
            f"CLI crosscheck wrote {len(rows) - 1} rows, exit 0, zero Disagree; "
            f"corrupted table entry rejected as NotAssociative")
    assert ok
