"""Golden reports of the canonical configs, and the script that regenerates them.

Each case is a config ``<case>.config.json`` in this directory, run through
``diskcal.cli.main`` as the command of ``CASES``; its stored report is
``<case>.report.json``.  ``tests/test_golden.py`` compares a fresh run with
the stored report by ``moved_fields``: keys and their order must be equal,
strings, booleans, integers and nulls exactly, floats within ``FLOAT_TOL``.

Run ``python tests/golden/regenerate.py`` to rewrite the stored reports; it
prints every field that moved, with its size, down to the last bit.  With
``--check`` it prints the same, writes nothing, and exits 1 if any field
moved, below ``FLOAT_TOL`` too, else 0.  Any other argument is
rejected with a usage line and exit code 2, before a report is run or
written.  A change that regenerates them states each moved field in
CHANGES.md.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
USAGE = "usage: python tests/golden/regenerate.py [--check]"
FLOAT_TOL = 1e-12
# case -> the CLI command that runs its config, and the report file it writes
CASES = {
    "twist": (["compute"], "report.json"),
    "bump4": (["compute"], "report.json"),
    "readme": (["compute"], "report.json"),
    "conjugated": (["compute"], "report.json"),
    "rigidity": (["experiment", "rigidity"], "rigidity.json"),
    "c0": (["experiment", "c0-discontinuity"], "c0-discontinuity.json"),
    "c1": (["experiment", "c1-continuity"], "c1-continuity.json"),
}


def run_case(case: str, out_dir) -> dict:
    """The report of one case from a fresh CLI run into ``out_dir``."""
    from diskcal.cli import main

    command, report = CASES[case]
    argv = ["--out", str(out_dir), "--format", "json", *command,
            "--config", str(HERE / f"{case}.config.json")]
    code = main(argv)
    if code != 0:
        raise RuntimeError(f"{case}: the CLI exited {code}")
    return json.loads((Path(out_dir) / report).read_text())


def stored(case: str) -> dict:
    return json.loads((HERE / f"{case}.report.json").read_text())


def moved_fields(old, new, tol=FLOAT_TOL, path="") -> list:
    """``(path, old, new, size)`` of every field of ``new`` that differs from ``old``.

    ``size`` is ``|new - old|`` for two floats; a float within ``tol`` does
    not count as moved.  Any other difference (a key, the key order, a
    type, a string, a boolean, an integer, a length) is listed with size None.
    """
    if type(old) is not type(new):
        return [(path, old, new, None)]
    if isinstance(old, dict):
        if list(old) != list(new):
            return [(path + ".keys", list(old), list(new), None)]
        return [m for k in old for m in moved_fields(old[k], new[k], tol, f"{path}.{k}")]
    if isinstance(old, list):
        if len(old) != len(new):
            return [(path + ".len", len(old), len(new), None)]
        return [m for i, (a, b) in enumerate(zip(old, new)) for m in moved_fields(a, b, tol, f"{path}[{i}]")]
    if isinstance(old, float):
        if math.isnan(old) and math.isnan(new):
            return []
        size = abs(new - old)
        return [] if size <= tol else [(path, old, new, size)]
    return [] if old == new else [(path, old, new, None)]


def regenerate(write: bool = True) -> int:
    """Print each field that moved, with its size; rewrite the stored reports
    when ``write``.  Returns the number of moved fields, a case without a
    stored report counting as one."""
    moved = 0
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            fresh = run_case(case, Path(tmp) / case)
            path = HERE / f"{case}.report.json"
            old = stored(case) if path.exists() else None
            if write:
                path.write_text(json.dumps(fresh, indent=2, allow_nan=True) + "\n")
            if old is None:
                print(f"{case}: no stored report")
                moved += 1
                continue
            moves = moved_fields(old, fresh, tol=0.0)  # below FLOAT_TOL too
            moved += len(moves)
            print(f"{case}: {len(moves)} field(s) moved")
            for p, a, b, size in moves:
                print(f"  {p}: {a!r} -> {b!r}" + ("" if size is None else f"  (by {size:.3g})"))
    return moved


def main(argv) -> int:
    """Regenerate (no argument, 0) or check (``--check``, 1 if any field
    moved); 2 for anything else."""
    if argv not in ([], ["--check"]):
        print(USAGE, file=sys.stderr)
        return 2
    moved = regenerate(write=not argv)
    return 1 if argv and moved else 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))
    sys.exit(main(sys.argv[1:]))
