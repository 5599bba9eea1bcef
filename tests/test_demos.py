"""Each demo script runs to completion from a checkout, with numeric warnings as errors."""

from pathlib import Path

import pytest

from conftest import fresh_python

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = fresh_python(["-W", "error::RuntimeWarning", str(demo)], cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
