"""Benchmark entry point: LAPACK-normalized ratios for the Hessenberg drivers.

    python3 perfbench/run.py --workload reduce_fp64 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src/`` directory. ``--trace 0`` prints the end-to-end metrics of the
named workload; ``--trace 1`` prints the per-layer metrics of the traced
run (see ``perfbench/traced.py``). The last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# both bundled OpenBLAS builds read this when they load: set before NumPy
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
COLD_STARTS = 9


def pin_to_one_cpu() -> None:
    """Run on the highest allowed CPU, so both sides of a timed pair share
    one core's state; the serve pool worker is moved to another
    (:meth:`perfbench.workloads.Serve.start`). Cold starts inherit it."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def declared_units(kind: str) -> dict[str, str]:
    """``{metric: unit}`` for the ``end_to_end`` or ``per_layer`` list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _fail(msg: str, code: int) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _fail(f"no program source at {src}/repro; run from a full checkout", 2)
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        _fail(f"imported repro from {repro.__file__}, not from {src}", 2)


def cold_starts(workload: str, seed: int, count: int) -> list[float]:
    """``setup_s`` of *count* fresh interpreters, one after another."""
    out = []
    for k in range(count):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "coldstart.py"), workload, str(seed + k)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            _fail(f"cold start failed:\n{proc.stderr[-2000:]}", 1)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def end_to_end(workload: str, seed: int, seconds: float):
    from perfbench import stats
    from perfbench.verify import bound
    from perfbench.workloads import WORKLOADS

    # cold starts are spread through the measurement: the host's speed
    # changes within tens of seconds, and one burst would catch one state
    setups: list[float] = []
    measured = 0.0  # seconds spent in the workload loop so far
    wl = WORKLOADS[workload](seed)
    try:
        wl.warm()
        for k in range(COLD_STARTS):
            setups += cold_starts(workload, seed + k, 1)
            t0 = time.perf_counter()
            wl.run(t0 + (k + 1) * seconds / COLD_STARTS - measured)
            measured += time.perf_counter() - t0
    finally:
        wl.close()
    ratios = {"ft_x_lapack": wl.ft_x_lapack(), "plain_x_lapack": wl.plain_x_lapack()}
    values = {"setup_s": stats.median(setups), **ratios,
              "verified_frac": wl.tally.verified_frac}
    a0 = wl.matrices()[0]
    unit = "cycles" if workload == "recover_fp64" else "pairs"
    print(f"{workload} seed={seed}: {wl.samples()} {unit}, {COLD_STARTS} cold starts "
          f"{[round(s, 3) for s in setups]}; median LAPACK side "
          f"{1e3 * stats.median(wl.t['lapack']):.2f} ms (host speed gauge)")
    print(f"  correctness: {wl.tally.attempted} outputs, {wl.tally.failed} failed; "
          f"bound {bound(a0.shape[0], a0.dtype):.2e} (n={a0.shape[0]}, {a0.dtype}); "
          f"worst {({k: f'{v:.2e}' for k, v in wl.tally.worst.items()})}; "
          f"LAPACK residual on input 0: {wl.lapack_resid():.2e}")
    for reason in wl.tally.reasons:
        print(f"  FAILED {reason}")
    return wl.tally, values, []


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_program()
    pin_to_one_cpu()
    from perfbench.host import blas_state, host_block
    from perfbench.traced import traced_run
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r} (want one of {sorted(WORKLOADS)})", 2)
    blas = blas_state()
    print(json.dumps({"host": host_block(blas)}))
    unpinned = {pkg: b["threads"] for pkg, b in blas.items() if b["threads"] != 1}
    if unpinned:
        _fail(f"BLAS not pinned to 1 thread: {unpinned}", 3)

    if args.trace:
        tally, values, problems = traced_run(args.seed, args.seconds, OUT)
        units = declared_units("per_layer")
    else:
        tally, values, problems = end_to_end(args.workload, args.seed, args.seconds)
        units = declared_units("end_to_end")
    for p in problems:
        print(f"  PROBLEM {p}")
    missing = sorted(set(units) - set(values))
    if missing:
        problems.append(f"missing metrics {missing}")
        print(f"  PROBLEM missing metrics {missing}")
    result = {
        "correct": tally.failed == 0 and not problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(values[k]), "unit": units[k]} for k in units
                    if k in values},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
