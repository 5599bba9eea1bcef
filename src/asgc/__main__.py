"""The ``asgc`` command: ``python -m asgc`` and the console script.

BLAS runs one thread unless the environment sets any of ``THREAD_VARS``, in
which case none is touched. The fits and the ASGC solves make many small BLAS
calls, which extra threads slow down, and forked ``--jobs`` workers inherit
the pin. BLAS reads these variables when numpy loads, so they are set here,
before ``asgc.cli`` imports numpy; ``asgc.cli.main`` called as a library
function leaves the environment to its caller.
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS")

if not any(var in os.environ for var in THREAD_VARS):
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

from .cli import main  # noqa: E402  # after the pin

if __name__ == "__main__":
    sys.exit(main())
