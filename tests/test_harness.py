"""Catalog handling and the classifier-vs-oracle crosscheck records."""

import pytest

from jrl.errors import UnknownName
from jrl.fileio import write_group_file, write_ring_file
from jrl.groups import builtin_group
from jrl.harness import (
    BUILTIN_PREFIX,
    CatalogEntry,
    CrossCheckRecord,
    catalog_from_dir,
    crosscheck,
    default_catalog,
    emit_report,
    has_disagreement,
    report_lines,
    resolve_group,
    resolve_ring,
)
from jrl.rings import builtin_ring


def B(ring, group):
    return CatalogEntry(BUILTIN_PREFIX + ring, BUILTIN_PREFIX + group)


def test_default_catalog_is_ring_major():
    cat = default_catalog()
    assert len(cat) == 81
    assert cat[0] == B("Z2", "C1")
    assert cat[8] == B("Z2", "D4xD4")
    assert cat[9] == B("Z4", "C1")
    assert cat[-1] == B("H32", "D4xD4")


def test_catalog_from_dir(tmp_path):
    write_ring_file(builtin_ring("Z4"), tmp_path / "b.ring")
    write_ring_file(builtin_ring("Z2"), tmp_path / "a.ring")
    write_group_file(builtin_group("C2"), tmp_path / "g.group")
    (tmp_path / "notes.txt").write_text("ignored\n")
    cat = catalog_from_dir(tmp_path)
    assert [e.ring_name for e in cat] == [str(tmp_path / "a.ring"),
                                          str(tmp_path / "b.ring")]
    assert all(e.group_name == str(tmp_path / "g.group") for e in cat)


def test_resolvers(tmp_path):
    assert resolve_ring("builtin:Z8").order == 8
    assert resolve_group("builtin:Q8").order == 8
    write_ring_file(builtin_ring("Z4"), tmp_path / "z4.ring")
    assert resolve_ring(str(tmp_path / "z4.ring")).characteristic() == 4
    with pytest.raises(UnknownName):
        resolve_ring("builtin:Nope")
    with pytest.raises(OSError):
        resolve_group(str(tmp_path / "missing.group"))


def test_agreeing_records():
    records = crosscheck([B("Z2", "C2"), B("M2F2", "C1"), B("Z4", "D4")])
    assert [r.status for r in records] == ["Agree"] * 3
    assert [r.oracle for r in records] == [2, None, 4]
    assert not has_disagreement(records)
    assert all(r.elapsed_ms >= 0 for r in records)


def test_record_splits_time_into_classify_and_search():
    records = crosscheck([B("Z2", "C2"), B("T2F2", "D4")])
    for rec in records:
        assert rec.classify_ms >= 0 and rec.search_ms >= 0
        assert rec.classify_ms + rec.search_ms == rec.elapsed_ms
    # the split is timing, not outcome: records differing only there are equal
    rec = records[0]
    assert rec == CrossCheckRecord(rec.entry, rec.predicted, rec.oracle, rec.status,
                                   rec.elapsed_ms)


def test_records_of_one_verdict_are_equal_whatever_their_times():
    first, second = (crosscheck([B("Z4", "D4")])[0] for _ in range(2))
    assert first == second
    retimed = CrossCheckRecord(first.entry, first.predicted, first.oracle, first.status,
                               first.elapsed_ms + 1.0, first.classify_ms + 0.5,
                               first.search_ms + 0.5)
    assert retimed == first
    assert CrossCheckRecord(first.entry, first.predicted, 3, first.status, 0.0) != first


def test_non_z_ring_over_d4xd4_is_searched_and_agrees():
    records = crosscheck([B("T2Z4", "D4xD4")])
    rec = records[0]
    assert rec.status == "Agree"
    assert rec.oracle is None
    assert rec.predicted.index is None
    assert not has_disagreement(records)


def test_within_budget_large_group_still_searched():
    rec = crosscheck([B("Z2", "D4xD4")])[0]
    assert rec.status == "Agree"
    assert rec.predicted.index == 4 and rec.oracle == 4


def test_low_bound_forces_disagreement():
    # With the search capped below the true index the oracle comes back
    # empty while the prediction stands, which must surface as Disagree.
    records = crosscheck([B("Z8", "C1")], max_n=3)
    assert records[0].status == "Disagree"
    assert has_disagreement(records)


def test_resolution_failure_drops_entry_via_callback(tmp_path):
    seen = []
    bad = CatalogEntry(str(tmp_path / "no.ring"), "builtin:C2")
    records = crosscheck([bad, B("Z2", "C1")],
                         on_error=lambda e, exc: seen.append((e, exc)))
    assert len(records) == 1 and records[0].status == "Agree"
    assert len(seen) == 1 and seen[0][0] is bad
    assert isinstance(seen[0][1], OSError)
    with pytest.raises(OSError):
        crosscheck([bad])


def test_report_lines_format():
    records = crosscheck([B("Z2", "C2"), B("M2F2", "C1"), B("T2Z4", "D4xD4")])
    lines = report_lines(records)
    assert lines[0] == "ring\tgroup\tpredicted\tclause\toracle\tstatus\tms"
    first = lines[1].split("\t")
    assert first[:6] == ["Z2", "C2", "2", "index2:commutative-char2-abelian",
                         "2", "Agree"]
    float(first[6])  # elapsed column parses
    assert lines[2].split("\t")[:6] == [
        "M2F2", "C1", "none<=4", "-", "none<=bound", "Agree"]
    assert lines[3].split("\t")[:6] == [
        "T2Z4", "D4xD4", "none<=4", "-", "none<=bound", "Agree"]


def test_emit_report_round_trip(tmp_path):
    records = crosscheck([B("Z2", "C1")])
    out = tmp_path / "report.tsv"
    emit_report(records, out)
    text = out.read_text()
    assert text.endswith("\n")
    assert text.splitlines() == report_lines(records)
