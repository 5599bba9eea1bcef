"""Each demo script and the README Quickstart run to completion from a checkout, with
numeric warnings as errors."""

from pathlib import Path

import pytest

from conftest import fresh_python

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def readme_quickstart() -> str:
    """The first ```python block under the README's ``## Quickstart`` heading."""
    section = (ROOT / "README.md").read_text().split("\n## Quickstart\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("program", [pytest.param([str(demo)], id=demo.stem) for demo in DEMOS]
                         + [pytest.param(["-c", readme_quickstart()], id="readme_quickstart")])
def test_demo_runs(program, tmp_path):
    proc = fresh_python(["-W", "error::RuntimeWarning", *program], cwd=tmp_path, timeout=300)
    assert proc.returncode == 0, proc.stderr
