"""The benchmark's three closed-loop workloads.

One caller; each call starts only after the previous one returned. The
seed makes every input (matrices, fault plans); the program receives
only those inputs. Each timed call is paired with LAPACK
(``scipy.linalg.hessenberg``) on the same matrices at the same lane,
back to back, and the order of the sides rotates from step to step so
no side always runs first.

* ``reduce_fp64`` — fault-free n=512, nb=32: panel, fused encoded
  updates and the fixed-cost protection machinery; recovery, batching
  and serving do no work.
* ``recover_fp64`` — n=384: every protected call plants exactly one
  soft error from a 16-position cycle (trailing matrix at the
  ``boundary`` and ``post_right`` phases, finished-Q region, live
  checkpoint, tau), so detection, rollback, location, correction and
  redo dominate.
* ``serve_fp32`` — rounds of jobs through ``HessService``: distinct
  n=48 fp32 jobs for the batch-coalescing lane, repeated keys for the
  cache, an n=192 fp64 job for one pool worker.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time

import numpy as np
from scipy.linalg import hessenberg

from perfbench import stats
from perfbench.verify import (
    Tally,
    bound,
    check_packed,
    h_distance,
    lapack_residual,
    match_bound,
)

NB = 32

REDUCE_N, REDUCE_MATRICES = 512, 4

RECOVER_N, RECOVER_MATRICES = 384, 4
#: (target, phase, iteration) per cycle position. Positions are fixed so
#: every cycle has the same mix; each cycle draws the struck elements and
#: magnitudes (:func:`recover_plans`). Finished H entries above the subdiagonal
#: are left out: without ``audit_every`` the scheme does not cover them
#: (``FTConfig.audit_every``), so an error there is a known silent
#: corruption, not a recovery path.
RECOVER_CYCLE = (
    ("trailing", "boundary", 1), ("trailing", "boundary", 4),
    ("trailing", "boundary", 7), ("trailing", "boundary", 10),
    ("trailing", "post_right", 2), ("trailing", "post_right", 5),
    ("trailing", "post_right", 8), ("trailing", "post_right", 10),
    ("finished_q", "boundary", 3), ("finished_q", "boundary", 6),
    ("finished_q", "boundary", 9),
    ("checkpoint", "post_right", 4), ("checkpoint", "post_right", 8),
    ("tau", "boundary", 2), ("tau", "boundary", 6), ("tau", "boundary", 10),
)

SERVE_SMALL_N, SERVE_BIG_N = 48, 192
SERVE_DISTINCT, SERVE_REPEATS, SERVE_BIG = 32, 8, 1
SERVE_BATCH = 8  # SERVE_DISTINCT is a multiple: batches flush on fill, never on the timer

SIDES = ("lapack", "plain", "ft")


def make_matrix(rng: np.random.Generator, n: int, dtype=np.float64) -> np.ndarray:
    return np.asfortranarray(rng.standard_normal((n, n)).astype(dtype))


def clock(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return time.perf_counter() - t0, out


def lapack_reduce(a: np.ndarray):
    return hessenberg(a, check_finite=False)


def rotated(items, step: int):
    """The *step*-th permutation of *items* (cycles through all orders)."""
    perms = list(itertools.permutations(items))
    return perms[step % len(perms)]


def _drivers():
    from repro.core import ft_gehrd, hybrid_gehrd

    return hybrid_gehrd, ft_gehrd


class Workload:
    """Shared plumbing: the tally, timed samples and failure isolation."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.tally = Tally()
        self.t: dict[str, list[float]] = {side: [] for side in SIDES}  # seconds per side
        self.steps = 0  # steps taken so far; run() may be called in slices
        self._verified: dict = {}

    def timed(self, side: str, fn, *args, outputs: int = 1):
        """(seconds, output), or (None, None) with each of the call's
        *outputs* counted as a miss."""
        try:
            return clock(fn, *args)
        except Exception as exc:  # noqa: BLE001 - a failed call is a counted miss
            for _ in range(outputs):
                self.tally.record(False, side, reason=f"{type(exc).__name__}: {exc}")
            return None, None

    def check_repeatable(self, side: str, key, a: np.ndarray, res) -> None:
        """Full check the first time; afterwards a byte-identical output
        of the same call on the same matrix (same *key*) counts as
        verified. ``key=None`` always runs the full check."""
        packed = np.asarray(res.a)
        prev = self._verified.get((side, key)) if key is not None else None
        if prev is not None and np.array_equal(prev[0], packed) and np.array_equal(
            prev[1], res.taus
        ):
            self.tally.record(True)
            return
        ok, r, why = check_packed(a, packed, res.taus)
        self.tally.record(ok, f"{side}_resid", r, why)
        if ok and key is not None:
            self._verified[(side, key)] = (packed.copy(), np.array(res.taus))

    def lapack_resid(self) -> float:
        return lapack_residual(self.matrices()[0])

    def matrices(self) -> list[np.ndarray]:
        raise NotImplementedError

    def step(self, i: int) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Stop whatever the workload started (the serve workload's service)."""

    def run(self, deadline: float) -> None:
        first = self.steps
        while self.steps == first or time.perf_counter() < deadline:
            self.step(self.steps)
            self.steps += 1

    def samples(self) -> int:
        """Timed pairs (per-pair workloads) or whole cycles (``recover_fp64``)."""
        return len(self.t["ft"])

    def ft_x_lapack(self) -> float:
        return stats.median_pair_ratio(self.t["ft"], self.t["lapack"])

    def plain_x_lapack(self) -> float:
        return stats.median_pair_ratio(self.t["plain"], self.t["lapack"])


class Reduce(Workload):
    name = "reduce_fp64"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng([seed, 1])
        self.mats = [make_matrix(rng, REDUCE_N) for _ in range(REDUCE_MATRICES)]
        self.plain, self.ft = _drivers()

    def matrices(self):
        return self.mats

    def setup(self) -> None:
        """First call of each timed path (what a cold start pays)."""
        self.plain(self.mats[0]), self.ft(self.mats[0])

    def warm(self) -> None:
        self.setup()
        lapack_reduce(self.mats[0])

    def step(self, i: int, extra: dict | None = None) -> None:
        """One pair step. *extra* adds sides ``{name: fn}`` (the traced
        run's ``plain_traced``/``ft_traced``) to the rotation; each output
        must match its untraced side's byte for byte."""
        idx = i % len(self.mats)
        a = self.mats[idx]
        calls = {"lapack": lapack_reduce, "plain": self.plain, "ft": self.ft, **(extra or {})}
        got = {}
        for side in rotated(tuple(calls), i):
            got[side] = self.timed(side, calls[side], a)
        for side, (_, out) in got.items():
            if side != "lapack" and out is not None:
                self.check_repeatable(side.split("_")[0], idx, a, out)
        if all(sec is not None for sec, _ in got.values()):
            for side, (sec, _) in got.items():
                self.t.setdefault(side, []).append(sec)


def recover_plans(rng: np.random.Generator):
    """One cycle: a :class:`FaultSpec` drawn for each position of :data:`RECOVER_CYCLE`."""
    from repro.faults import FaultSpec

    n, plans = RECOVER_N, []
    for target, phase, it in RECOVER_CYCLE:
        p = it * NB  # finished columns at the start of iteration it
        mag = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 1.0))
        if target == "trailing":
            lo = p if phase == "boundary" else p + NB  # past the live panel
            spec = FaultSpec(it, int(rng.integers(p + 1, n)), int(rng.integers(lo, n)),
                             magnitude=mag, phase=phase)
        elif target == "finished_q":
            j = int(rng.integers(0, p))
            spec = FaultSpec(it, int(rng.integers(j + 2, n)), j, magnitude=mag, phase=phase)
        elif target == "checkpoint":
            spec = FaultSpec(it, int(rng.integers(0, n)), int(rng.integers(0, NB)),
                             magnitude=mag, space="checkpoint", phase=phase)
        else:
            spec = FaultSpec(it, int(rng.integers(0, p)), 0, magnitude=mag,
                             space="tau", phase=phase)
        plans.append(spec)
    return plans


class Recover(Workload):
    name = "recover_fp64"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = np.random.default_rng([seed, 2, 0])
        self.mats = [make_matrix(rng, RECOVER_N) for _ in range(RECOVER_MATRICES)]
        # every cycle draws fresh struck elements, so a run samples many
        # fault sites instead of repeating one seed's 16
        self.plan_rng = np.random.default_rng([seed, 2])
        self.plans = recover_plans(self.plan_rng)
        self.plain, self.ft = _drivers()
        self.h_ref: dict[int, np.ndarray] = {}

    def matrices(self):
        return self.mats

    def setup(self) -> None:
        self.protected(0), self.plain(self.mats[0])

    def warm(self) -> None:
        """Fault-free reference H per matrix (checked like any output)."""
        for idx, a in enumerate(self.mats):
            res = self.ft(a)
            ok, r, why = check_packed(a, np.asarray(res.a), res.taus)
            self.tally.record(ok, "ft_clean_resid", r, why)
            self.h_ref[idx] = np.triu(res.a, -1)
        self.setup()
        lapack_reduce(self.mats[0])

    def protected(self, pos: int, ft=None):
        from repro.faults import FaultInjector

        injector = FaultInjector(faults=[self.plans[pos]])
        a = self.mats[pos % len(self.mats)]
        return injector, (ft or self.ft)(a, injector=injector)

    def check_fault_run(self, pos: int, injector, res) -> None:
        """One verdict for one protected output: its plan fired once, its
        residual is in bound and its H matches the fault-free H."""
        idx = pos % len(self.mats)
        a = self.mats[idx]
        if injector.count_fired != 1:
            self.tally.record(False, "fault", reason=f"plan {pos} fired {injector.count_fired}x")
            return
        ok, r, why = check_packed(a, np.asarray(res.a), res.taus)
        self.tally.note("ft_fault_resid", r)
        d = h_distance(a, np.triu(res.a, -1), self.h_ref[idx])
        tol = match_bound(a.shape[0], a.dtype)
        if ok and not d <= tol:
            ok, why = False, f"H differs from fault-free H by {d:.3e} > {tol:.3e}"
        self.tally.record(ok, "h_vs_fault_free", d, why)

    def plan_step(self, pos: int, rotation: int, *, ft=None, plain: bool = True) -> bool:
        idx = pos % len(self.mats)
        a = self.mats[idx]
        sides = SIDES if plain else ("lapack", "ft")
        got = {}
        for side in rotated(sides, rotation):
            if side == "ft":
                got[side] = self.timed(side, self.protected, pos, ft)
            else:
                got[side] = self.timed(side, lapack_reduce if side == "lapack" else self.plain, a)
        if got["ft"][1] is not None:
            self.check_fault_run(pos, *got["ft"][1])
        if plain and got["plain"][1] is not None:
            self.check_repeatable("plain", idx, a, got["plain"][1])
        if all(got[s][0] is not None for s in sides):
            for side in sides:
                self.t[side].append(got[side][0])
            return True
        return False

    def run(self, deadline: float, *, ft=None, plain: bool = True) -> None:
        """Whole cycles until the deadline; a cycle with a failed call is
        dropped from the timings (its failure is already counted)."""
        first = self.steps
        while self.steps == first or time.perf_counter() < deadline:
            if self.steps:
                self.plans = recover_plans(self.plan_rng)
            marks = {s: len(v) for s, v in self.t.items()}
            whole = True
            for pos in range(len(self.plans)):
                whole &= self.plan_step(pos, self.steps, ft=ft, plain=plain)
                self.steps += 1
            if not whole:
                for s, v in self.t.items():
                    del v[marks[s]:]

    def samples(self) -> int:
        return len(self.t["ft"]) // len(self.plans)

    def ft_x_lapack(self) -> float:
        return stats.median(stats.cycle_sum_ratios(self.t["ft"], self.t["lapack"], len(self.plans)))

    def plain_x_lapack(self) -> float:
        return stats.median(
            stats.cycle_sum_ratios(self.t["plain"], self.t["lapack"], len(self.plans))
        )


class Serve(Workload):
    """Rounds through ``HessService``; round 0 warms the service and is untimed."""

    name = "serve_fp32"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.plain, _ = _drivers()
        self.svc = None
        self.results: list = []  # JobResults of the timed rounds

    def small(self, r: int) -> list[np.ndarray]:
        rng = np.random.default_rng([self.seed, 3, r])
        return [make_matrix(rng, SERVE_SMALL_N, np.float32) for _ in range(SERVE_DISTINCT)]

    def round_matrices(self, r: int) -> list[np.ndarray]:
        rng = np.random.default_rng([self.seed, 4, r])
        repeats = self.small(r - 1)[:SERVE_REPEATS] if r > 0 else []
        big = [make_matrix(rng, SERVE_BIG_N) for _ in range(SERVE_BIG)]
        # the pool job is submitted first, so it runs beside the batch
        # lane instead of after it
        return big + self.small(r) + repeats

    def matrices(self):
        return self.round_matrices(0)

    def start(self) -> None:
        from repro.serve import HessService

        self.svc = HessService(
            workers=1,
            max_queue=256,
            small_n_threshold=SERVE_SMALL_N,
            batch_max=SERVE_BATCH,
            batch_linger_ms=50.0,
        )
        # the pool worker gets its own CPU when the caller is pinned to one
        if hasattr(os, "sched_getaffinity"):
            others = set(range(os.cpu_count() or 1)) - os.sched_getaffinity(0)
            for proc in multiprocessing.active_children():
                if others:
                    os.sched_setaffinity(proc.pid, others)

    def close(self) -> None:
        if self.svc is not None:
            self.svc.close()
            self.svc = None
        for proc in multiprocessing.active_children():
            proc.join(timeout=30)

    def serve_round(self, mats: list[np.ndarray]) -> list:
        from repro.serve import JobSpec

        subs = [
            self.svc.submit(JobSpec(driver="ft_gehrd", matrix=m, dtype=m.dtype.name, nb=NB))
            for m in mats
        ]
        refused = [sub.reason for sub in subs if not sub.accepted]
        if refused:
            raise RuntimeError(f"job refused: {refused[0]}")
        # one wait for the whole round: per-job waits would each hop to
        # the service's event-loop thread and contend for the GIL with
        # the batch lane
        self.svc.drain(timeout=120)
        return [self.svc.peek(sub.job_id) for sub in subs]

    def check_results(self, mats: list[np.ndarray], results: list) -> None:
        for a, res in zip(mats, results):
            n = a.shape[0]
            tol = bound(n, a.dtype)
            if res is None or res.status != "done" or not res.payload:
                why = "no result" if res is None else f"{res.status}: {res.error}"
                self.tally.record(False, "job", reason=why)
                continue
            # the payload residual is ‖A − QHQᵀ‖₁ / (n ‖A‖₁)
            r = float(res.payload.get("residual", float("nan"))) * n
            self.tally.record(r <= tol, f"serve_resid_n{n}", r, f"{r:.3e} > {tol:.3e}")

    def setup(self) -> list:
        self.start()
        return self.serve_round(self.round_matrices(0))

    def warm(self) -> None:
        mats = self.round_matrices(0)
        self.check_results(mats, self.setup())
        for a in mats[: SERVE_BIG + 1]:
            lapack_reduce(a), self.plain(a)

    def step(self, i: int) -> None:
        r = i + 1  # round 0 is the untimed warm-up
        mats = self.round_matrices(r)

        def lapack_all():
            for a in mats:
                lapack_reduce(a)

        def plain_all():
            return [self.plain(a) for a in mats]

        calls = {"lapack": lapack_all, "plain": plain_all,
                 "ft": lambda: self.serve_round(mats)}
        # a failed round or batch of direct calls misses every output in it
        got = {}
        for side in rotated(SIDES, r):
            got[side] = self.timed(side, calls[side], outputs=1 if side == "lapack" else len(mats))
        if got["ft"][1] is not None:
            self.check_results(mats, got["ft"][1])
            self.results.extend(got["ft"][1])
        if got["plain"][1] is not None:
            for a, res in zip(mats, got["plain"][1]):
                self.check_repeatable("plain", None, a, res)
        if all(got[s][0] is not None for s in SIDES):
            for side in SIDES:
                self.t[side].append(got[side][0])


WORKLOADS = {cls.name: cls for cls in (Reduce, Recover, Serve)}
