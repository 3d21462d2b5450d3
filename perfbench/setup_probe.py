"""One benchmark set-up in a fresh interpreter: import chemowave, then the workload's set-up.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
run.py times this process from start to exit.  After the set-up the probe
times PROBE_SLICES calibration slices (hostspeed.py) on the same CPU and in
the same moment, and prints their times as one JSON line; run.py takes the
slices' time out of the wall time and scales the rest by their median.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports chemowave)

from hostspeed import calibration_slice  # noqa: E402

PROBE_SLICES = 5

if __name__ == "__main__":
    WORKLOADS[sys.argv[1]].setup(int(sys.argv[2]))
    t0 = time.perf_counter()
    calibration_slice()  # pays for numpy's lazy set-up; not a sample
    slices = [calibration_slice() for _ in range(PROBE_SLICES)]
    print(json.dumps({"slices_s": slices, "slice_total_s": time.perf_counter() - t0}))
