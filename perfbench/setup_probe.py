"""Time one workload set-up in a fresh interpreter, and the reference loop after it.

Run by ``run.py`` as ``python3 perfbench/setup_probe.py WORKLOAD SEED``
from the root of a checkout.  It prints two numbers: the seconds of the
set-up, which covers importing the library (through
``perfbench.workloads``) and generating the workload's inputs, and the
seconds of one reference loop (``refloop.py``) run right after it in the
same process.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402  (imports leavitt)

workloads.setup(sys.argv[1], int(sys.argv[2]), ROOT, ROOT / ".bench_out")
setup = time.perf_counter() - t0

from perfbench.refloop import time_reference  # noqa: E402

print(setup, time_reference())
