"""Steadiness report: run the benchmark repeatedly and summarize each metric.

    python3 perfbench/steady.py --workload reduce_fp64 --runs 10 [--seed0 1]
        [--seconds 20] [--trace 0] [--same-seed]

Runs ``perfbench/run.py`` once per seed (``seed0``, ``seed0 + 1``, ...),
one after another, and prints for every metric its per-run values,
median, quartiles, the quartile spread ``(Q3 − Q1) / median`` and the
range spread ``(max − min) / median``. End-to-end metrics whose
quartile spread exceeds their bound in BENCHMARK.json are flagged
``OVER``, those above a third of it ``WIDE``. With ``--same-seed`` every
run uses ``seed0``, and any metric whose unit is a count that differs
between runs is flagged ``NOT EXACT``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import stats  # noqa: E402

EXACT_UNITS = ("count", "flop", "B", "sim_s")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed (seed {seed}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(runs: list[dict], spec: dict, *, same_seed: bool) -> list[str]:
    """Printable lines for *runs*; flags as described in the module docstring."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines = []
    for name in runs[0]["metrics"]:
        unit = runs[0]["metrics"][name]["unit"]
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = stats.quartiles(vals)
        iqr, rng = stats.iqr_spread(vals), stats.range_spread(vals)
        flag = ""
        if name in bounds:
            flag = "OVER" if iqr > bounds[name] else "WIDE" if iqr > bounds[name] / 3 else "ok"
        if same_seed and unit in EXACT_UNITS and len(set(vals)) > 1:
            flag = "NOT EXACT"
        lines.append(f"{name:36s} {unit:6s} median {med:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
                     f"iqr/med {iqr:.4f}  range/med {rng:.4f}  {flag}")
        lines.append("    " + " ".join(f"{v:.6g}" for v in vals))
    ok = sum(r["correct"] for r in runs)
    lines.append(f"{ok}/{len(runs)} runs correct; "
                 f"{sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)} "
                 "outputs failed")
    return lines


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--same-seed", action="store_true")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    runs = []
    for k in range(args.runs):
        seed = args.seed0 if args.same_seed else args.seed0 + k
        runs.append(run_once(args.workload, seed, seconds, args.trace))
        print(f"run {k + 1}/{args.runs} seed {seed}: correct={runs[-1]['correct']}",
              flush=True)
    for line in report(runs, spec, same_seed=args.same_seed):
        print(line)


if __name__ == "__main__":
    main()
