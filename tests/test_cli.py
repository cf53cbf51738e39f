"""Command line behavior, driven in-process through main(argv)."""

import subprocess
import sys

import pytest

from jrl.cli import main
from jrl.fileio import write_group_file, write_ring_file
from jrl.groups import builtin_group
from jrl.rings import builtin_ring


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ring_file(tmp_path, capsys):
    path = tmp_path / "z4.ring"
    write_ring_file(builtin_ring("Z4"), path)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 0 and err == ""
    assert out.strip() == "ring Z4: order 4, characteristic 4, commutative, valid"


def test_validate_group_file(tmp_path, capsys):
    path = tmp_path / "d4.group"
    write_group_file(builtin_group("D4"), path)
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 0
    assert out.strip() == "group D4: order 8, non-abelian, valid"


def test_validate_corrupted_table_names_the_failure(tmp_path, capsys):
    path = tmp_path / "bad.ring"
    write_ring_file(builtin_ring("Z4"), tmp_path / "good.ring")
    good = (tmp_path / "good.ring").read_text()
    path.write_text(good.replace("0 2 0 2", "0 2 1 2"))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 1
    assert "error: NotAssociative:" in err


def test_validate_missing_file(capsys):
    code, out, err = run_cli(capsys, "validate", "/no/such/file.ring")
    assert code == 1
    assert "error: FileNotFoundError:" in err


def test_list_builtins(capsys):
    code, out, err = run_cli(capsys, "list-builtins")
    assert code == 0
    assert "rings:" in out and "groups:" in out
    for name in ("Z2", "Z16", "M2F2", "H32", "C1", "Q8", "D4xD4"):
        assert name in out


def test_classify_builtin_pair(capsys):
    code, out, err = run_cli(capsys, "classify",
                             "--ring", "builtin:Z4", "--group", "builtin:D4")
    assert code == 0
    assert "minimal Jordan nilpotency index 4" in out
    assert "index4:char4-derived-c2" in out


def test_classify_unknown_builtin(capsys):
    code, out, err = run_cli(capsys, "classify",
                             "--ring", "builtin:Nope", "--group", "builtin:C2")
    assert code == 1
    assert "error: UnknownName:" in err


def test_oracle_reports_index(capsys):
    code, out, err = run_cli(capsys, "oracle",
                             "--ring", "builtin:Z4", "--group", "builtin:C2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "context Z4[C2]: spanning set of 2 monomials"
    assert lines[1] == "minimal Jordan index: 3"


def test_oracle_reports_counterexample_past_bound(capsys):
    code, out, err = run_cli(capsys, "oracle",
                             "--ring", "builtin:M2F2", "--group", "builtin:C2",
                             "--max-index", "4")
    assert code == 0
    assert "not Jordan nilpotent within bound 4" in out
    assert "degree-4 counterexample (monomials): 1@0 , 2@0 , 1@0 , 1@0" in out


def test_oracle_on_file_based_pair(tmp_path, capsys):
    write_ring_file(builtin_ring("Z2"), tmp_path / "r.ring")
    write_group_file(builtin_group("D4"), tmp_path / "g.group")
    code, out, err = run_cli(capsys, "oracle",
                             "--ring", str(tmp_path / "r.ring"),
                             "--group", str(tmp_path / "g.group"))
    assert code == 0
    assert "minimal Jordan index: 3" in out


def test_identities_output(capsys):
    code, out, err = run_cli(capsys, "identities",
                             "--ring", "builtin:Z2", "--group", "builtin:C4")
    assert code == 0 and err == ""
    assert "all 13 identity checks passed on Z2[C4]" in out
    assert "jordan-identity" in out
    for line in out.strip().splitlines()[:-1]:
        assert "tuples" in line and " ms " in line and line.rstrip().endswith("ok")


def test_crosscheck_directory_catalog(tmp_path, capsys):
    write_ring_file(builtin_ring("Z2"), tmp_path / "z2.ring")
    write_ring_file(builtin_ring("Z4"), tmp_path / "z4.ring")
    write_group_file(builtin_group("C2"), tmp_path / "c2.group")
    write_group_file(builtin_group("D4"), tmp_path / "d4.group")
    report = tmp_path / "out.tsv"
    code, out, err = run_cli(capsys, "crosscheck",
                             "--catalog", str(tmp_path),
                             "--report", str(report))
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[0].startswith("ring\tgroup\t")
    assert len(lines) == 5
    assert all(line.split("\t")[5] == "Agree" for line in lines[1:])
    assert report.read_text().strip() == out.strip()


def test_crosscheck_reports_bad_entry_and_continues(tmp_path, capsys):
    write_ring_file(builtin_ring("Z2"), tmp_path / "z2.ring")
    good = (tmp_path / "z2.ring").read_text()
    (tmp_path / "bad.ring").write_text(good.replace("ring Z2 2", "ring Z2"))
    write_group_file(builtin_group("C2"), tmp_path / "c2.group")
    code, out, err = run_cli(capsys, "crosscheck", "--catalog", str(tmp_path))
    assert code == 0
    assert "ParseError" in err
    lines = out.strip().splitlines()
    assert len(lines) == 2  # header plus the surviving pair
    cols = lines[1].split("\t")
    assert cols[0].endswith("z2.ring") and cols[1].endswith("c2.group")
    assert cols[5] == "Agree"


@pytest.mark.parametrize("command", [
    ["oracle", "--ring", "builtin:Z4", "--group", "builtin:C2"],
    ["crosscheck"],
])
def test_degree_below_two_is_a_typed_error(command):
    proc = subprocess.run([sys.executable, "-m", "jrl.cli", *command, "--max-index", "1"],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: InvalidExponent:")
    assert "Traceback" not in proc.stdout + proc.stderr


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "jrl.cli", "list-builtins"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "rings:" in proc.stdout
