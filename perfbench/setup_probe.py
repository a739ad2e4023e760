"""Time-to-first-op probe, run in a fresh interpreter.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG_JSON

Imports numpy and qisim, loads and validates the workload config, then
prints the wall-clock time at which the first op could begin.
"""

import sys
import time

sys.path.insert(0, sys.argv[1])

import numpy  # noqa: E402,F401

import qisim  # noqa: E402,F401
from qisim import model  # noqa: E402

model.validate_config(model.load_config(sys.argv[2]))
print(repr(time.time()), flush=True)
