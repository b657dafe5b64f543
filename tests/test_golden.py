"""The canonical reports against their stored golden copies (``tests/golden``).

A value that moves by more than 1e-12, a key, its order or any exact field
that changes, fails here; ``tests/golden/regenerate.py`` rewrites the copies
and lists every moved field.
"""

import math
import subprocess
import sys

import pytest

from golden import regenerate
from golden.regenerate import CASES, HERE, USAGE, moved_fields, run_case, stored


@pytest.mark.parametrize("case", list(CASES))
def test_report_matches_its_golden_copy(case, tmp_path):
    assert moved_fields(stored(case), run_case(case, tmp_path)) == []


def test_moved_fields_reads_every_kind_of_change():
    old = {"a": 1.0, "b": [1, "x", True, None], "c": {"d": 0.5}}
    assert moved_fields(old, {"a": 1.0 + 5e-13, "b": [1, "x", True, None], "c": {"d": 0.5}}) == []
    assert moved_fields(old, {"a": 1.0 + 2e-12, "b": [1, "x", True, None], "c": {"d": 0.5}})[0][0] == ".a"
    assert moved_fields(old, {"b": [1, "x", True, None], "a": 1.0, "c": {"d": 0.5}})[0][0] == ".keys"
    for b in ([2, "x", True, None], [1, "y", True, None], [1, "x", False, None], [1, "x", True, 0],
              [1.0, "x", True, None], [1, "x", True]):
        assert moved_fields(old, {"a": 1.0, "b": b, "c": {"d": 0.5}}), b


@pytest.mark.parametrize("args", [["--chek"], ["--help"], ["--check", "extra"]])
def test_regenerate_rejects_unknown_arguments(args):
    # a typo must not rewrite the stored reports: usage on stderr, exit 2
    before = {case: (HERE / f"{case}.report.json").read_bytes() for case in CASES}
    run = subprocess.run([sys.executable, str(HERE / "regenerate.py"), *args],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2
    assert run.stderr.strip() == USAGE and run.stdout == ""
    assert {case: (HERE / f"{case}.report.json").read_bytes() for case in CASES} == before


def test_check_exits_1_when_a_field_moved_by_one_ulp(monkeypatch, capsys):
    # --check compares at tolerance 0 and writes nothing; a fresh run is
    # stubbed by the stored report, once as it is and once one ulp off
    before = {case: (HERE / f"{case}.report.json").read_bytes() for case in CASES}
    monkeypatch.setattr(regenerate, "run_case", lambda case, out_dir: stored(case))
    assert regenerate.main(["--check"]) == 0

    def nudged(case, out_dir):
        report = stored(case)
        if case == "twist":
            report["cal2"] = math.nextafter(report["cal2"], 1.0)
        return report

    monkeypatch.setattr(regenerate, "run_case", nudged)
    capsys.readouterr()
    assert regenerate.main(["--check"]) == 1
    assert "twist: 1 field(s) moved" in capsys.readouterr().out
    assert {case: (HERE / f"{case}.report.json").read_bytes() for case in CASES} == before
