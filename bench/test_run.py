"""Set-ups run in a forked child and hand their result back.

Run from the repository root:

    PYTHONPATH=src python -m pytest bench/test_run.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def test_in_child_returns_the_result_and_removes_its_file(tmp_path):
    path = tmp_path / "result.pickle"
    assert run.in_child(path, divmod, 17, 5) == (3, 2)
    assert not path.exists()


def test_in_child_raises_when_the_child_fails(tmp_path):
    with pytest.raises(RuntimeError, match="divmod failed"):
        run.in_child(tmp_path / "result.pickle", divmod, 1, 0)


def test_at_reference_speed_scales_by_the_kernels_mean():
    runner = run.Runner.__new__(run.Runner)
    runner.reference_s = [4 * run.speed.NOMINAL_S, 2 * run.speed.NOMINAL_S,
                          3 * run.speed.NOMINAL_S]
    samples = [{"compare_s": 3.0}, {"compare_s": 2.0}, {"compare_s": 10.0}]
    assert run.at_reference_speed(runner, samples, "compare_s") == pytest.approx(5 / 3)


def test_reference_kernel_runs_for_the_time_asked():
    assert len(run.speed.reference_s(0.0)) == run.speed.MIN_REPEATS
    times = run.speed.reference_s(0.3)
    assert sum(times) >= 0.3 and all(0 < t < 1 for t in times)
