"""The repository's pytest configuration, run on a test of its own.

Every warning is an error there, except one that Hypothesis itself raises
while it reports a falsifying example.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

BOUND_TO_FAIL = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 10
"""


def test_failing_property_reports_its_example(tmp_path):
    test = tmp_path / "test_property.py"
    test.write_text(BOUND_TO_FAIL)
    argv = [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider", str(test)]
    result = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "Falsifying example" in result.stdout
