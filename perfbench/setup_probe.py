"""Time one cold set-up in this fresh process and print it in seconds.

Set-up is: import gridseek, build the workload's configuration, and build
its unit prior once. Usage: python3 perfbench/setup_probe.py <workload>
"""

import sys
import time

start = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import gridseek.bench  # noqa: E402
from workloads import get_workload  # noqa: E402

workload = get_workload(sys.argv[1])
gridseek.bench.build_unit_prior(workload.config)
print(repr(time.perf_counter() - start))
