"""Set-up probe, run by run.py in a fresh interpreter.

Usage: python3 perfbench/probe.py WORKLOAD (with the package on PYTHONPATH)

Imports `rispaces.cli`, finishes the workload's lazy set-up and prints one
JSON line with the time the import took and the time both took together.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import rispaces.cli  # noqa: E402,F401

_IMPORTED = time.perf_counter()

import workloads  # noqa: E402

workloads.setup(sys.argv[1])
_DONE = time.perf_counter()
print(json.dumps({"import_s": _IMPORTED - _START, "setup_s": _DONE - _START}))
