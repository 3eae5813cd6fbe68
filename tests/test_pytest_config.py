"""The project's pytest settings still report a failing property test."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_below_five(n):
    assert n < 5
"""


def test_failing_property_test_prints_its_example(tmp_path):
    # To report a failure, Hypothesis imports libcst, which raises a
    # DeprecationWarning that the settings would otherwise make an error.
    test = tmp_path / "test_property.py"
    test.write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), str(test)],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
