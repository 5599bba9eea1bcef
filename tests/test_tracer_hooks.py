"""The benchmark tracer's hooks still fit the package they trace.

``perfbench/tracing.py`` wraps named ``asgc`` functions, and its hooks read
what they return (its ``generate_sbm`` hook reads ``Graph.indices``). A hook
that raises does not fail the run: the worker lists it under ``absent`` and
its metric reads 0. So this test runs one traced ``synth`` pass through the
worker's documented ``'<json spec>'`` entry point and requires that list to be
empty. It runs at ``--jobs 1``, because hooks that run in forked workers are
lost.
"""

import json
from pathlib import Path

from conftest import fresh_python

ROOT = Path(__file__).resolve().parent.parent


def test_traced_synth_pass_runs_every_tracer_hook(tmp_path):
    argv = ["synth", "--k", "2", "--trials", "2", "--log-ratio-steps", "3", "--jobs", "1",
            "--out", str(tmp_path / "out")]
    spec = {"src": str(ROOT / "src"), "argv": argv, "trace": True, "pass_id": 0, "load_bytes": 0}
    proc = fresh_python([str(ROOT / "perfbench" / "worker.py"), json.dumps(spec)], cwd=ROOT,
                        OPENBLAS_NUM_THREADS="1")
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("PERFBENCH ")]
    report = json.loads(lines[-1][len("PERFBENCH "):])
    assert report["exit_code"] == 0
    assert report["absent"] == []
