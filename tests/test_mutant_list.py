"""The mutant list of ``tests/mutants.py`` names lines that exist.

The script itself runs outside tier-1 (each mutant reruns five test files);
this check keeps its table in step with ``src/``: a verdict line that is
edited must have its mutant edited with it.
"""

import pytest

from mutants import MUTANTS, ROOT, occurrences


@pytest.mark.parametrize("file, line, replacement", MUTANTS)
def test_each_mutated_line_occurs_once(file, line, replacement):
    assert occurrences(ROOT, file, line) == 1
    assert replacement != line
