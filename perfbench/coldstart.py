"""One cold start, in the fresh interpreter this script runs in.

Times ``import repro`` plus the first call of each timed path of the
named workload (for ``serve_fp32`` that includes ``HessService``
start-up and its pool fork), then prints ``{"setup_s": ...}``. Input
generation is not timed.

    python3 perfbench/coldstart.py <workload> <seed>
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro  # noqa: F401

    import_s = time.perf_counter() - T0
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[workload](seed)
    try:
        t1 = time.perf_counter()
        wl.setup()
        first_s = time.perf_counter() - t1
    finally:
        wl.close()
    print(json.dumps({"setup_s": import_s + first_s}))


if __name__ == "__main__":
    main()
