"""One benchmark pass: a fresh process that runs one asgc CLI invocation.

Usage: ``python3 worker.py '<json spec>'``. The spec holds ``src`` (the
directory holding the ``asgc`` package), ``argv`` (CLI arguments, or null for
a set-up probe that only imports), ``trace``, ``pass_id`` and ``load_bytes``.
The parent pins BLAS threads through the environment before this process
starts. The last stdout line is ``PERFBENCH <json>`` with ``ready`` (the
monotonic clock once asgc is imported), ``wall_s`` and ``cpu_s`` (wall and
process CPU time of the ``asgc.cli.main`` call), ``exit_code``,
``peak_rss_mb`` and, when traced, ``metrics`` and ``absent``.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import asgc.cli

    ready = time.monotonic()
    if not os.path.abspath(asgc.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        print(f"asgc imported from {asgc.__file__}, not from {spec['src']}", file=sys.stderr)
        return 3
    out = {"ready": ready}
    if spec["argv"] is not None:
        tracer = None
        if spec["trace"]:
            import tracing

            tracer = tracing.install(tracing.Tracer(spec["pass_id"], spec["load_bytes"]))
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                code = asgc.cli.main(spec["argv"])
            else:
                with tracer.span("cli.main"):
                    code = asgc.cli.main(spec["argv"])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        out["wall_s"] = time.perf_counter() - start
        out["cpu_s"] = time.process_time() - cpu_start
        out["exit_code"] = code
        if tracer is not None:
            out["metrics"] = tracing.layer_metrics(tracer)
            out["absent"] = tracer.absent + sorted(tracer.broken)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print("PERFBENCH " + json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
