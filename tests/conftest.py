"""Run the suite with one OpenBLAS thread, by ``pblab.cli``'s rule: only when the caller set no count and
numpy is not yet loaded (OpenBLAS reads the variable once, when numpy loads it). On 2 cores the second thread
buys the suite's small products nothing and spins; the outputs are the same bytes either way."""

import os
import sys

if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
