"""Mutants of the verdict code, each of which the tests must kill.

Each entry of ``MUTANTS`` is ``(file, exact line, replacement)``: one
comparison of a verdict (a PASS flag, a bound or a budget) or a line of a
measurement it reads (rigidity's d0 shift), written as it stands in
``src/``, and a one-line fault in it.  The script copies the tree
into a temporary directory; for each mutant it replaces the line there, runs
``pytest -x`` over ``TEST_FILES`` and restores the line.  A mutant survives
when those tests pass.  Before the mutants, the unmutated copy must pass the
same tests, so a copy that fails for another reason cannot count as a kill.

Run ``python tests/mutants.py`` from any directory.  It prints one line per
mutant and exits 1 if a mutant survives or a listed line does not occur
exactly once in its file, 2 if the unmutated copy fails, else 0.  It uses
the standard library alone (and pytest in the child runs); pytest does not
collect it.  ``tests/test_mutant_list.py`` checks in tier-1 that every
listed line still occurs once, so a change to a verdict line must update
its mutant here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TEST_FILES = ["tests/test_calabi.py", "tests/test_experiments.py", "tests/test_cli.py",
              "tests/test_golden.py", "tests/test_acceptance.py"]
EXPERIMENTS = "src/diskcal/experiments.py"
CALABI = "src/diskcal/calabi.py"
ROW_PASS = "        row_pass = bool(lemma_ok and kq_res <= kq_bound and drift <= drift_budget)"
MUTANTS = [
    (EXPERIMENTS, "        lemma_ok = (not lemma_applies) or dev <= lemma_bound",
     "        lemma_ok = True"),
    (EXPERIMENTS, ROW_PASS, "        row_pass = bool(lemma_ok and drift <= drift_budget)"),
    (EXPERIMENTS, ROW_PASS, "        row_pass = bool(lemma_ok and kq_res <= kq_bound)"),
    (EXPERIMENTS, "            shifted = np.fft.ifft(coeffs * np.exp(2j * np.pi * k * theta))",
     "            shifted = np.fft.ifft(coeffs * np.exp(-2j * np.pi * k * theta))"),
    (EXPERIMENTS, "        lemma_applies = bool(eps <= 1.0 / 16.0)",
     "        lemma_applies = bool(eps <= 1.0 / 4.0)"),
    (EXPERIMENTS, "        ok = bool(abs(c3 - target) <= C0_CAL_BUDGET and d0 <= 2.0 / n + 1e-9)",
     "        ok = bool(abs(c3 - target) <= C0_CAL_BUDGET)"),
    (EXPERIMENTS, '    passed = all(r["pass"] for r in rows) and decreasing',
     '    passed = all(r["pass"] for r in rows)'),
    (EXPERIMENTS, '    passed = all(r["pass"] for r in rows) and abs(cal_f) <= RIGIDITY_CAL_BUDGET',
     '    passed = all(r["pass"] for r in rows)'),
    (EXPERIMENTS, "        bound = np.sqrt(2.0 * eps) / np.pi + 3.0 * c2.stderr",
     "        bound = 2.0 * np.sqrt(2.0 * eps) / np.pi + 3.0 * c2.stderr"),
    (EXPERIMENTS, '            "cal3": c3, "bound": float(bound), "pass": bool(abs(c2.value) <= bound),',
     '            "cal3": c3, "bound": float(bound), "pass": True,'),
    (CALABI, "    report.pass_23 = bool(report.residual_23 <= report.budget)",
     "    report.pass_23 = True"),
    (CALABI, "    report.budget = 3.0 * report.cal2_stderr + quad_budget",
     "    report.budget = 30.0 * report.cal2_stderr + quad_budget"),
]


def occurrences(root: Path, file: str, line: str) -> int:
    """How many lines of ``root / file`` equal ``line`` exactly."""
    return (root / file).read_text().splitlines().count(line)


def tests_pass(tree: Path) -> bool:
    """Whether ``pytest -x`` over ``TEST_FILES`` passes in ``tree``, on its own ``src``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *TEST_FILES],
                         cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return run.returncode == 0


def main() -> int:
    missing = [(file, line) for file, line, _ in MUTANTS if occurrences(ROOT, file, line) != 1]
    for file, line in missing:
        print(f"not exactly once in {file}: {line.strip()}")
    if missing:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
        if not tests_pass(tree):
            print("the unmutated tree fails its tests: no mutant can be judged")
            return 2
        survivors = 0
        for file, line, replacement in MUTANTS:
            path = tree / file
            original = path.read_text()
            path.write_text("".join(replacement + "\n" if text.rstrip("\n") == line else text
                                    for text in original.splitlines(keepends=True)))
            start = time.perf_counter()
            killed = not tests_pass(tree)
            path.write_text(original)
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVES'} ({time.perf_counter() - start:.1f} s): "
                  f"{file}: {line.strip()} -> {replacement.strip()}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
