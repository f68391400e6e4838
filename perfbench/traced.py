"""The traced run (``--trace 1``): per-layer metrics and exact counts.

One pass over all three workloads, so that each layer is measured on
the workload that exercises it, whichever ``--workload`` is named:

* ``reduce_fp64`` — each step times LAPACK, the untraced unprotected
  and protected drivers, and both drivers again with spans on, in
  rotating order (:meth:`Reduce.step` with two extra sides). The
  untraced samples give the raw per-layer reference times and the
  untraced ``ft_x_lapack``; the traced ones give self time per layer and
  the tracing overhead.
* ``recover_fp64`` — the protected driver traced through the fault
  cycle: recovery and tau-guard self time.
* ``serve_fp32`` — untraced rounds; the batch and serve metrics come
  from job results and service statistics.

Counts come from a fixed probe run twice on the same seed; any count
that differs between the two runs fails the run. So does a span that
does not nest in its parent (then self plus child time would not equal
the parent), or a root span that differs by more than
:data:`ROOT_GAP_S` from the wall time :meth:`Workload.timed` clocked
for the same call.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path

from perfbench import stats
from perfbench.spans import Tracer, install_program_spans, nesting_error
from perfbench.verify import Tally
from perfbench.workloads import (
    SERVE_SMALL_N,
    Recover,
    Reduce,
    Serve,
)

#: most by which a root span may fall short of the clocked call; the
#: difference is the wrapper's own bookkeeping (and, on traced
#: ``reduce_fp64`` sides, installing and removing the spans)
ROOT_GAP_S = 5e-3

TIERS = ("in_place", "reverse_redo", "deep_rollback", "restart", "tau_repair")
FLOP_CATEGORIES = (
    "panel", "right_update", "left_update",
    "abft_init", "abft_maintain", "abft_detect", "abft_qprotect",
)

#: per-layer metric -> (section, span names whose self time it sums)
SELF_TIME_LAYERS = {
    "linalg.panel_ms": ("reduce", ("lahr2",)),
    "linalg.update_ms": ("reduce_plain", ("apply_right_updates", "apply_left_update")),
    "abft.update_ms": ("reduce", ("right_update_encoded", "left_update_encoded")),
    "abft.vy_checksum_ms": ("reduce", ("v_col_checksums", "y_col_checksums")),
    "abft.encode_ms": ("reduce", ("EncodedMatrix.encode",)),
    "abft.refresh_ms": ("reduce", ("EncodedMatrix.refresh_finished_segment",)),
    "abft.detect_ms": ("reduce", ("Detector.check",)),
    "abft.qprotect_ms": ("reduce", ("QProtector.update_for_panel",
                                    "QProtector.verify_and_correct")),
    "abft.checkpoint_ms": ("reduce", ("DisklessCheckpointStore.save",
                                      "DisklessCheckpointStore.save_initial")),
    "abft.recover_ms": ("recover", (
        "locate_errors", "locate_errors_rowonly", "correct_all", "unwind_iteration",
        "reverse_left_update_encoded", "reverse_right_update_encoded",
        "rebuild_col_checksums", "DisklessCheckpointStore.restore",
        "DisklessCheckpointStore.restore_initial", "QProtector.rollback_panel",
        "EncodedMatrix.checksum_gap",
    )),
    "resilience.tau_guard_ms": ("recover", ("TauGuard.record", "TauGuard.verify_and_repair",
                                            "TauGuard.rollback")),
    "hybrid.sim_ms": ("reduce", ("HybridRuntime.submit",)),
    "flops.count_ms": ("reduce", ("FlopCounter.add",)),
    "core.driver_self_ms": ("reduce", ("ft_gehrd", "thunk")),
}


def tier_counts(res) -> Counter:
    """Recoveries per ladder tier of one protected run, from its result."""
    c = Counter(ev.tier for ev in res.recoveries)
    c["restart"] += res.restarts
    c["tau_repair"] += res.tau_repairs
    return c


def per_root_self_ms(tracer: Tracer, root: str) -> tuple[dict[str, float], int]:
    """Self ms per span name summed over *root*'s trees, and the tree count."""
    spans = tracer.by_root(root)
    return tracer.self_ms_by_name(spans), sum(1 for s in spans if s.parent is None)


def traced_call(tracer: Tracer, fn, name: str):
    """*fn* under a root span *name*, with the program's spans installed
    for the duration of the call only."""
    root = tracer.wrap(fn, name)

    def call(*args):
        install_program_spans(tracer)
        try:
            return root(*args)
        finally:
            tracer.uninstall()

    return call


def span_checks(tracer: Tracer, root: str, clocked: list[float]) -> dict:
    """How far the spans under *root* are from nesting, and the least and
    largest ``clocked − root duration`` over the calls, paired in order."""
    roots = [s for s in tracer.spans if s.parent is None and s.name == root]
    if len(roots) != len(clocked):
        gaps = [float("nan")]  # a failed call's timing was dropped
    else:
        gaps = [c - r.duration for c, r in zip(clocked, roots)]
    return {"nesting_s": nesting_error(tracer.by_root(root)),
            "root_gap_s": (min(gaps), max(gaps))}


def reduce_section(seed: int, deadline: float, tally: Tally, out: Path) -> dict:
    wl = Reduce(seed)
    wl.tally = tally
    wl.warm()
    tracer = Tracer()
    extra = {"plain_traced": traced_call(tracer, wl.plain, "hybrid_gehrd"),
             "ft_traced": traced_call(tracer, wl.ft, "ft_gehrd")}
    wl.t.update({side: [] for side in extra})
    i = 0
    while i < 3 or time.perf_counter() < deadline:
        tracer.request = i
        wl.step(i, extra)
        i += 1
    t = wl.t

    ft_self, n_ft = per_root_self_ms(tracer, "ft_gehrd")
    plain_self, n_plain = per_root_self_ms(tracer, "hybrid_gehrd")
    checks = [span_checks(tracer, "ft_gehrd", t["ft_traced"]),
              span_checks(tracer, "hybrid_gehrd", t["plain_traced"])]
    tracer.write_chrome(out / "reduce_fp64.json")
    ft_x = stats.median_pair_ratio(t["ft"], t["lapack"])
    traced_x = stats.median_pair_ratio(t["ft_traced"], t["lapack"])
    return {
        "ft_self": ft_self, "n_ft": n_ft, "plain_self": plain_self, "n_plain": n_plain,
        "checks": checks,
        "ref.lapack_ms": 1e3 * stats.median(t["lapack"]),
        "driver.ft_ms": 1e3 * stats.median(t["ft"]),
        "driver.plain_ms": 1e3 * stats.median(t["plain"]),
        "protection.overhead_pct": 100.0 * (stats.median_pair_ratio(t["ft"], t["plain"]) - 1.0),
        "trace.overhead_pct": 100.0 * (traced_x / ft_x - 1.0),
        "samples": len(t["ft"]),
    }


def recover_section(seed: int, deadline: float, tally: Tally, out: Path) -> dict:
    wl = Recover(seed)
    wl.tally = tally
    wl.warm()
    tracer = Tracer()
    traced_ft = tracer.wrap(wl.ft, "ft_gehrd")
    install_program_spans(tracer)
    try:
        wl.run(deadline, ft=traced_ft, plain=False)
    finally:
        tracer.uninstall()
    rec_self, n_rec = per_root_self_ms(tracer, "ft_gehrd")
    checks = [span_checks(tracer, "ft_gehrd", wl.t["ft"])]
    tracer.write_chrome(out / "recover_fp64.json")
    return {"rec_self": rec_self, "n_rec": n_rec, "checks": checks, "cycles": wl.samples()}


def serve_section(seed: int, deadline: float, tally: Tally) -> dict:
    wl = Serve(seed)
    wl.tally = tally
    try:
        wl.warm()
        before = wl.svc.stats()["batch_lane"]
        wl.run(deadline)
        after = wl.svc.stats()["batch_lane"]
    finally:
        wl.close()
    executed = [r for r in wl.results if not r.cache_hit]
    small = [r for r in executed if r.payload and r.payload.get("n") == SERVE_SMALL_N]
    waits = [1e3 * (r.started_at - r.submitted_at) for r in executed]
    batches = after["batches"] - before["batches"]
    batched = after["batched_jobs"] - before["batched_jobs"]
    return {
        "batch.ms_per_item": 1e3 * stats.median([r.payload["elapsed_s"] for r in small]),
        "batch.ejected_frac": (after["ejections"] - before["ejections"]) / max(batched, 1),
        "batch.fill": batched / max(batches, 1),
        "serve.queue_wait_ms.p50": stats.percentile(waits, 50),
        "serve.queue_wait_ms.p90": stats.percentile(waits, 90),
        "serve.execute_ms.p50": stats.percentile(
            [1e3 * (r.finished_at - r.started_at) for r in executed], 50),
        "serve.cache_hit_frac": sum(r.cache_hit for r in wl.results) / len(wl.results),
        "serve.jobs_per_s": len(wl.results) / sum(wl.t["ft"]),
        "rounds": wl.samples(),
    }


def count_probe(seed: int) -> dict:
    """Counts the program reports in its results, on fixed inputs."""
    red = Reduce(seed)
    res = red.ft(red.mats[0])
    flops = res.counter.snapshot()
    counts = {f"flops.{c}": flops.get(c, 0.0) for c in FLOP_CATEGORIES}
    counts["flops.abft_share"] = (
        sum(v for k, v in flops.items() if k.startswith("abft")) / sum(flops.values())
    )
    counts.update({
        "abft.detect_calls": res.checks,
        "abft.checkpoint_saves": res.checkpoint_saves,
        "abft.checkpoint_bytes": res.checkpoint_peak_bytes,
        "hybrid.ops": len(res.timeline.ops),
        "hybrid.modelled_s": res.seconds,
    })
    rec = Recover(seed)
    tiers = Counter()
    for pos in range(len(rec.plans)):
        tiers += tier_counts(rec.protected(pos)[1])
    counts.update({f"resilience.recoveries.{t}": tiers.get(t, 0) for t in TIERS})
    srv = Serve(seed)
    try:
        srv.setup()
        hits = sum(r.cache_hit for r in srv.serve_round(srv.round_matrices(1)))
        ejections = srv.svc.stats()["batch_lane"]["ejections"]
    finally:
        srv.close()
    counts["batch.ejections"] = ejections
    counts["serve.cache_hits"] = hits
    # every category, not only the reported ones, must repeat
    return {"metrics": counts, "all_flops": flops}


def traced_run(seed: int, seconds: float, out: Path) -> tuple[Tally, dict, list[str]]:
    """(tally, per-layer metric values, problems) for one traced run."""
    tally = Tally()
    problems: list[str] = []
    t0 = time.perf_counter()
    red = reduce_section(seed, t0 + 0.5 * seconds, tally, out)
    rec = recover_section(seed, t0 + 0.8 * seconds, tally, out)
    srv = serve_section(seed, t0 + seconds, tally)

    first, second = count_probe(seed), count_probe(seed)
    for key in sorted(set(first["all_flops"]) | set(second["all_flops"])):
        if first["all_flops"].get(key) != second["all_flops"].get(key):
            problems.append(f"flop count {key} differs between identical runs")
    for key, v in first["metrics"].items():
        if second["metrics"][key] != v:
            problems.append(f"count {key} differs between identical runs: {v} vs "
                            f"{second['metrics'][key]}")
    checks = red["checks"] + rec["checks"]
    for name, c in zip(("reduce ft", "reduce plain", "recover ft"), checks):
        if c["nesting_s"] > 0:
            problems.append(f"{name}: a span leaves its parent or overlaps a sibling by "
                            f"{c['nesting_s']:.2e} s")
        lo, hi = c["root_gap_s"]
        if not (0.0 <= lo and hi <= ROOT_GAP_S):
            problems.append(f"{name}: root spans differ from the clocked calls by "
                            f"{lo:.2e}..{hi:.2e} s")

    values = dict(first["metrics"])
    sections = {
        "reduce": (red["ft_self"], red["n_ft"]),
        "reduce_plain": (red["plain_self"], red["n_plain"]),
        "recover": (rec["rec_self"], rec["n_rec"]),
    }
    for metric, (section, names) in SELF_TIME_LAYERS.items():
        by_name, n = sections[section]
        values[metric] = sum(by_name.get(x, 0.0) for x in names) / max(n, 1)
    for key in ("ref.lapack_ms", "driver.ft_ms", "driver.plain_ms",
                "protection.overhead_pct", "trace.overhead_pct"):
        values[key] = red[key]
    values.update({k: v for k, v in srv.items() if "." in k})
    print(f"traced run: reduce {red['samples']} steps, recover {rec['cycles']} cycles, "
          f"serve {srv['rounds']} rounds; root spans short of the clocked calls by at most "
          f"{1e3 * max(c['root_gap_s'][1] for c in checks):.3f} ms; "
          f"tracing overhead {red['trace.overhead_pct']:.1f}% on ft_x_lapack")
    return tally, values, problems
