"""Typed job model for the batch-reduction service.

A :class:`JobSpec` describes one unit of work against any driver the
library has — the plain blocked reduction, the hybrid baseline, the
fault-tolerant Hessenberg/tridiagonal drivers, or a whole fault
campaign. Specs are declarative and picklable, so the same object is
what travels to a pool worker and what a JSONL job file deserializes
into.

Execution goes through one driver table: each driver names how to run
one spec, how to run a stacked group (the batch lane), and the one
function that turns an outcome into payload rows.

:attr:`JobSpec.key` digests everything that can change the *result*
(the matrix recipe or the byte-exact fingerprint of an inline matrix,
plus the driver configuration) and nothing else, so two matrices that
differ in one ulp are two jobs; see ``docs/serving.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from repro.errors import ReproError, ShapeError
from repro.utils.precision import lane_dtype
from repro.utils.shm import (
    DEFAULT_MIN_BYTES,
    SharedMatrix,
    hash_update_array,
    shm_available,
)

#: Priority lanes, highest first. The scheduler always drains a higher
#: lane before looking at a lower one.
LANES = ("high", "normal", "low")

#: Job lifecycle states (terminal: done / failed / cancelled).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


class JobSpecError(ReproError, ValueError):
    """A job specification is malformed (unknown driver, bad size, ...)."""


@dataclass(frozen=True)
class JobSpec:
    """One unit of work for the batch service.

    The matrix is generated deterministically from ``(kind, n, seed)`` or
    supplied inline via ``matrix``, which overrides the recipe and is
    fingerprinted byte-exactly. An inline matrix may arrive as a
    :class:`~repro.utils.shm.SharedMatrix` handle: that is how the
    scheduler ships large matrices to pool workers without re-pickling
    them per attempt (see ``docs/performance.md``). ``dtype`` names the
    precision lane; an inline float32 matrix keeps its lane even under
    the default ``dtype="float64"`` (see :attr:`lane`).

    ``faults`` holds :class:`~repro.faults.FaultSpec` keyword dicts
    injected into the FT drivers, so resilience jobs flow through the
    same pipeline as clean runs. ``return_factors=True`` ships the
    factors back with the payload (see :meth:`JobResult.factor`); such
    results bypass the result cache, whose JSON entries cannot own
    shared segments. ``crash`` / ``crash_once_path`` are chaos hooks for
    the broken-pool tests: the worker dies hard (``os._exit``) before
    any work, once only if a sentinel path is given. Scheduling metadata
    and chaos hooks are excluded from the content key.
    """

    driver: str = "ft_gehrd"
    n: int = 128
    seed: int = 0
    kind: str = "uniform"
    dtype: str = "float64"
    nb: int = 32
    channels: int = 1
    audit_every: int = 0
    functional: bool = True
    faults: tuple = ()
    moments: int = 2
    adversarial: bool = False
    return_factors: bool = False
    # eigensolver drivers only: also compute right eigenvectors via
    # inverse iteration and back-transformation
    eigvecs: bool = False
    # scheduling metadata (not part of the content key)
    priority: str = "normal"
    submitter: str = "anon"
    timeout: float | None = None
    # chaos hooks (not part of the content key)
    crash: bool = False
    crash_once_path: str | None = None
    matrix: np.ndarray | None = field(default=None, compare=False, repr=False)

    # -- validation ---------------------------------------------------------

    def validate(self) -> None:
        """Raise :class:`JobSpecError` on anything the drivers would
        only reject deep inside a worker."""
        from repro.utils.rng import MatrixKind

        if self.driver not in DRIVERS:
            raise JobSpecError(f"unknown driver {self.driver!r} (want one of {DRIVERS})")
        try:
            lane_dtype(self.dtype)
        except ShapeError as exc:
            raise JobSpecError(str(exc)) from exc
        if self.driver == "ft_sytrd" and self.lane != np.float64:
            raise JobSpecError(
                "ft_sytrd runs in the float64 lane only "
                f"(got dtype {self.lane.name!r})"
            )
        if self.priority not in LANES:
            raise JobSpecError(f"unknown priority {self.priority!r} (want one of {LANES})")
        if self.matrix is None and self.n < 2:
            raise JobSpecError(f"matrix order must be >= 2, got {self.n}")
        if self.matrix is not None:
            shape = self._inline()[0]
            if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 2:
                raise JobSpecError(
                    f"inline matrix must be square of order >= 2, got {tuple(shape)}"
                )
            # a NaN/Inf entry would look like a soft error to every tier
            # of the recovery ladder; refuse it here instead of retrying
            if not isinstance(self.matrix, SharedMatrix):
                with np.errstate(over="ignore"):
                    m = np.asarray(self.matrix, dtype=self.lane)
                if not np.isfinite(m).all():
                    raise JobSpecError(
                        f"inline matrix has non-finite entries in the {self.lane.name} lane"
                    )
        if self.return_factors:
            if self.driver in ("ft_sytrd", "campaign"):
                raise JobSpecError(
                    f"return_factors is not available for driver {self.driver!r}"
                )
            if not self.functional:
                raise JobSpecError("return_factors needs functional=True")
            if self.driver == "ft_eig" and not self.eigvecs:
                raise JobSpecError(
                    "ft_eig has no factors without eigvecs=True "
                    "(eigenvalues travel in the payload; use ft_schur for T/Z)"
                )
        if self.eigvecs and self.driver not in EIG_DRIVERS:
            raise JobSpecError(
                f"eigvecs is only available for {EIG_DRIVERS}, "
                f"not driver {self.driver!r}"
            )
        if self.nb < 1:
            raise JobSpecError(f"nb must be >= 1, got {self.nb}")
        if self.channels not in (1, 2):
            raise JobSpecError(f"channels must be 1 or 2, got {self.channels}")
        if self.moments < 1:
            raise JobSpecError(f"moments must be >= 1, got {self.moments}")
        if self.timeout is not None and self.timeout <= 0:
            raise JobSpecError(f"timeout must be positive, got {self.timeout}")
        try:
            MatrixKind(self.kind)
        except ValueError as exc:
            raise JobSpecError(f"unknown matrix kind {self.kind!r}") from exc
        for f in self.faults:
            if not isinstance(f, dict):
                raise JobSpecError(f"faults entries must be FaultSpec kwarg dicts, got {f!r}")

    # -- content addressing -------------------------------------------------

    def _inline(self) -> tuple[tuple, np.dtype]:
        """Shape and dtype of the inline matrix (array or shared handle)."""
        m = self.matrix if isinstance(self.matrix, SharedMatrix) else np.asarray(self.matrix)
        return tuple(m.shape), np.dtype(m.dtype)

    @property
    def order(self) -> int:
        """The matrix order the job will actually run at."""
        return self.n if self.matrix is None else int(self._inline()[0][0])

    @property
    def lane(self) -> np.dtype:
        """The precision lane the job actually runs at.

        ``dtype`` rules unless it is the default float64 *and* an inline
        float32 matrix was supplied — then the matrix's own lane wins, so
        fp32 submissions survive end-to-end without an explicit flag.
        """
        if self.dtype == "float64" and self.matrix is not None:
            if self._inline()[1] == np.float32:
                return np.dtype(np.float32)
        return lane_dtype(self.dtype)

    def matrix_fingerprint(self) -> str:
        """Deterministic identity of the input matrix.

        Generated matrices hash their recipe; inline matrices hash their
        exact bytes (shape + dtype + data) straight from the array's
        buffer — a contiguous matrix is hashed with zero copies.
        ``ft_sytrd`` always symmetrizes the recipe, so its fingerprint
        pins ``kind`` to ``symmetric`` regardless of what the spec says.
        """
        if self.matrix is not None:
            m = np.asarray(self.matrix, dtype=self.lane)
            h = hashlib.sha256()
            h.update(repr((m.shape, str(m.dtype))).encode())
            hash_update_array(h, m)
            return f"sha256:{h.hexdigest()[:16]}"
        kind = "symmetric" if self.driver == "ft_sytrd" else self.kind
        return f"rng:{kind}:n={self.n}:seed={self.seed}:dtype={self.lane.name}"

    def content_dict(self) -> dict:
        """Everything that determines the result, canonically ordered."""
        return {
            "driver": self.driver,
            "matrix": self.matrix_fingerprint(),
            "dtype": self.lane.name,
            "nb": self.nb,
            "channels": self.channels,
            "audit_every": self.audit_every,
            "functional": self.functional,
            "faults": [dict(sorted(f.items())) for f in self.faults],
            "return_factors": self.return_factors,
            "moments": self.moments if self.driver == "campaign" else None,
            "adversarial": self.adversarial if self.driver == "campaign" else None,
            "seed": self.seed if self.driver == "campaign" else None,
            "eigvecs": self.eigvecs if self.driver in EIG_DRIVERS else None,
        }

    @property
    def key(self) -> str:
        """The content-addressed job key (stable across processes)."""
        blob = json.dumps(self.content_dict(), sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(blob.encode()).hexdigest()[:16]
        return f"{self.driver}:{self.matrix_fingerprint()}:{digest}"

    # -- (de)serialization --------------------------------------------------

    def to_json(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "matrix":
                if isinstance(v, SharedMatrix):
                    # a transport artifact, not a portable description;
                    # serialize the identity, not unreachable segment bytes
                    out["matrix"] = None
                elif v is not None:
                    out["matrix"] = np.asarray(v, dtype=self.lane).tolist()
                continue
            if f.name == "dtype":
                # round-trip the *effective* lane, so an inline fp32
                # matrix re-materializes as fp32 from nested JSON lists
                out["dtype"] = self.lane.name
                continue
            if f.name == "faults":
                v = [dict(x) for x in v]
            out[f.name] = v
        return out

    @classmethod
    def from_json(cls, data: dict) -> "JobSpec":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise JobSpecError(f"unknown JobSpec fields: {sorted(unknown)}")
        kw = dict(data)
        if kw.get("matrix") is not None:
            try:
                dt = lane_dtype(kw.get("dtype", "float64"))
            except ShapeError as exc:
                raise JobSpecError(str(exc)) from exc
            kw["matrix"] = np.asarray(kw["matrix"], dtype=dt)
        if "faults" in kw:
            kw["faults"] = tuple(dict(x) for x in kw["faults"])
        return cls(**kw)


@dataclass
class JobResult:
    """The JSON-serializable lifecycle record of one submitted job.

    ``payload`` is the driver outcome (residuals, recovery counts, tier
    tally, ...) — always plain JSON types, which is what lets the result
    cache spill it to disk and the CLI stream it as JSONL. A
    factor-returning job's payload carries a ``"factors"`` table of
    references (inline nested lists for small factors, shared-memory
    handles for large ones); the arrays themselves are reconstructed
    lazily on first access through :meth:`factor` / :attr:`factors` —
    a result nobody inspects never pays the copy.
    """

    job_id: int
    key: str
    status: str = QUEUED
    lane: str = "normal"
    submitter: str = "anon"
    payload: dict | None = None
    error: str = ""
    failure_class: str = ""
    retries: int = 0
    cache_hit: bool = False
    coalesced: bool = False
    submitted_at: float = 0.0
    started_at: float = 0.0
    finished_at: float = 0.0
    # lazy-materialization plumbing (process-local, never serialized)
    _registry: object = field(default=None, init=False, repr=False, compare=False)
    _materialized: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)

    @property
    def terminal(self) -> bool:
        return self.status in TERMINAL_STATES

    # -- lazy factors --------------------------------------------------------

    def bind_registry(self, registry) -> None:
        """Attach the owning scheduler's segment registry so shm-backed
        factor references can be resolved (and their segments released)."""
        self._registry = registry

    @property
    def has_factors(self) -> bool:
        return bool(self.payload and self.payload.get("factors"))

    def factor(self, name: str) -> np.ndarray:
        """Materialize one returned factor (``"h"`` or ``"q"``).

        Inline references decode from the payload; shared-memory
        references attach the worker-written segment, copy it out once,
        and drop this result's reference (the last reader's release
        unlinks the segment). The copy is cached — repeated access is
        free — and survives the service closing afterwards.
        """
        if name in self._materialized:
            return self._materialized[name]
        refs = (self.payload or {}).get("factors") or {}
        if name not in refs:
            raise KeyError(
                f"no factor {name!r} on this result (have {sorted(refs)}); "
                "submit with return_factors=True to get factors back"
            )
        ref = refs[name]
        if "data" in ref:
            arr = np.asarray(ref["data"], dtype=ref.get("dtype", "float64"))
        else:
            handle = SharedMatrix.from_json(ref["shm"])
            if self._registry is not None:
                arr = self._registry.materialize(handle)
            else:
                # a result rehydrated from JSON in another process: the
                # segment may or may not still exist — attach_view gives
                # the definitive answer either way
                arr = np.array(handle.attach())
        self._materialized[name] = arr
        return arr

    @property
    def factors(self) -> dict:
        """All returned factors, materialized (see :meth:`factor`)."""
        refs = (self.payload or {}).get("factors") or {}
        return {name: self.factor(name) for name in refs}

    @property
    def tier_tally(self) -> dict:
        """Recovery-ladder tiers the job's driver run climbed through."""
        if not self.payload:
            return {}
        return dict(self.payload.get("tier_tally", {}))

    def to_json(self) -> dict:
        # the init fields; the lazy-materialization plumbing stays local
        return {f.name: getattr(self, f.name) for f in fields(self) if f.init}

    @classmethod
    def from_json(cls, data: dict) -> "JobResult":
        return cls(**data)


# ---------------------------------------------------------------------------
# Execution — runs inside a pool worker process or an in-thread lane.
# ---------------------------------------------------------------------------


def _maybe_crash(spec: JobSpec) -> None:
    """Chaos hook: die like a segfault (no exception, no cleanup)."""
    if not spec.crash:
        return
    if spec.crash_once_path is not None:
        if os.path.exists(spec.crash_once_path):
            return
        with open(spec.crash_once_path, "w") as fh:
            fh.write("crashed\n")
    os._exit(23)


def _build_matrix(spec: JobSpec, workspace=None) -> np.ndarray:
    from repro.utils.rng import random_matrix

    if isinstance(spec.matrix, SharedMatrix):
        # zero-deserialization: view the shared pages the scheduler
        # wrote once, then land them in a pooled arena buffer (zero
        # allocation on a warm worker) or a private copy without one
        view = spec.matrix.attach()
        if workspace is not None:
            return workspace.matrix_like("jobs.inline_a", view)
        return view.copy(order="F")
    if spec.matrix is not None:
        return np.asfortranarray(np.asarray(spec.matrix, dtype=spec.lane))
    kind = "symmetric" if spec.driver == "ft_sytrd" else spec.kind
    return random_matrix(spec.n, kind=kind, seed=spec.seed, dtype=spec.lane)


def _injectors(spec: JobSpec):
    """``(reduction, qr)`` injectors for the spec's fault plan, either
    side None when empty. On the eigensolver drivers ``qr_*`` faults
    drive :func:`~repro.eigen.ft_hqr.ft_hqr`; every other fault drives
    the reduction."""
    if not spec.faults:
        return None, None
    from repro.faults import FaultInjector, FaultSpec
    from repro.faults.injector import QR_SPACES

    plan = [FaultSpec(**f) for f in spec.faults]
    on_qr = [spec.driver in EIG_DRIVERS and f.space in QR_SPACES for f in plan]
    red = [f for f, q in zip(plan, on_qr) if not q]
    qr = [f for f, q in zip(plan, on_qr) if q]
    return (
        FaultInjector(faults=red) if red else None,
        FaultInjector(faults=qr) if qr else None,
    )


def _tier_tally(recoveries, restarts: int) -> dict:
    tally = Counter(rec.tier for rec in recoveries)
    if restarts:
        tally["restart"] += restarts
    return dict(tally)


def _pack_factor(arr: np.ndarray, *, shm_factors: bool, shm_min_bytes: int) -> dict:
    """One factor's payload reference: a shared-memory handle when the
    transport is on and the factor is big enough to beat a pickle,
    inline nested lists otherwise. The segment created here is owned by
    nobody yet — the scheduler adopts it when the payload arrives, and
    the dead-pid sweep reclaims it if the worker dies in between."""
    arr = np.asarray(arr)
    if arr.dtype != np.float32:
        arr = np.asarray(arr, dtype=np.float64)
    if shm_factors and arr.nbytes >= shm_min_bytes and shm_available():
        return {"shm": SharedMatrix.create(arr).to_json()}
    return {"data": arr.tolist(), "dtype": str(arr.dtype)}


def _ft_config(spec: JobSpec, ladder=None, *, functional: bool = True):
    from repro.core import FTConfig

    cfg = FTConfig(nb=spec.nb, channels=spec.channels, audit_every=spec.audit_every,
                   functional=functional)
    if ladder is not None:
        cfg.ladder = ladder
    return cfg


def _residual_and_factors(spec: JobSpec, a: np.ndarray, res):
    """The Table II residual of a packed reduction, plus its H/Q
    factors when the spec asks for them."""
    from repro.linalg import extract_hessenberg, factorization_residual, orghr

    q, h = orghr(res.a, res.taus), extract_hessenberg(res.a)
    factors = {"h": h, "q": q} if spec.return_factors else None
    return factorization_residual(a, q, h), factors


def _stack_residuals(stack: np.ndarray, idx: list[int], packed: list) -> list[float]:
    """Batched Q formation + Table II residuals for items *idx* of
    *stack*, given their packed results (``.a`` / ``.taus``)."""
    from repro.batch import (
        as_item_f_stack,
        extract_hessenberg_batched,
        factorization_residuals_batched,
        orghr_batched,
    )

    if not idx:
        return []
    a_pack = as_item_f_stack([r.a for r in packed])
    qs = orghr_batched(a_pack, np.stack([r.taus for r in packed]))
    hs = extract_hessenberg_batched(a_pack)
    return list(factorization_residuals_batched(stack[idx], qs, hs))


# -- the driver table --------------------------------------------------------
#
# One _DRIVER_TABLE row per driver. The scalar and batched paths both build
# payloads through its ``rows``, so their payloads agree by construction:
#
#   run(spec, *, workspace, ladder, max_sweeps) -> (outcome, factors | None)
#   run_stack(specs, stack, workspace) -> (outcomes, ejections), where
#       outcomes[i] is item i's outcome or the exception it raised;
#       None when the driver cannot batch
#   rows(spec, outcome) -> dict


def _run_gehrd(spec, *, workspace, ladder, max_sweeps):
    from repro.linalg import gehrd

    a = _build_matrix(spec, workspace)
    fact = gehrd(a.copy(order="F"), nb=spec.nb)
    return _residual_and_factors(spec, a, fact)


def _stack_gehrd(specs, stack, workspace):
    from repro.batch import gehrd_batched

    facts = gehrd_batched(stack, nb=specs[0].nb, workspace=workspace)
    return _stack_residuals(stack, list(range(len(specs))), facts), 0


def _gehrd_rows(spec, residual):
    return {"residual": float(residual)}


def _run_packed(spec, workspace, reduce):
    """Run a packed-output reduction on the spec's matrix (functional
    mode) or on its order (metadata mode); the outcome is ``(result,
    residual)``, the residual None without a matrix."""
    arg = _build_matrix(spec, workspace) if spec.functional else spec.order
    res = reduce(arg)
    if not spec.functional:
        return (res, None), None
    residual, factors = _residual_and_factors(spec, arg, res)
    return (res, residual), factors


def _with_residual(rows: dict, residual) -> dict:
    if residual is not None:
        rows["residual"] = float(residual)
    return rows


def _run_hybrid(spec, *, workspace, ladder, max_sweeps):
    from repro.core import HybridConfig, hybrid_gehrd

    cfg = HybridConfig(nb=spec.nb, functional=spec.functional)
    return _run_packed(spec, workspace, lambda a: hybrid_gehrd(a, cfg, workspace=workspace))


def _hybrid_rows(spec, outcome):
    res, residual = outcome
    rows = {"seconds_simulated": float(res.seconds), "gflops": float(res.gflops)}
    return _with_residual(rows, residual)


def _run_ft_gehrd(spec, *, workspace, ladder, max_sweeps):
    from repro.core import ft_gehrd

    cfg = _ft_config(spec, ladder, functional=spec.functional)
    inj = _injectors(spec)[0]
    return _run_packed(
        spec, workspace, lambda a: ft_gehrd(a, cfg, injector=inj, workspace=workspace)
    )


def _stack_ft_gehrd(specs, stack, workspace):
    from repro.batch import ft_gehrd_batched

    injectors = [_injectors(spec)[0] for spec in specs]
    br = ft_gehrd_batched(stack, _ft_config(specs[0]), injectors=injectors, workspace=workspace)
    ok = [i for i in range(len(specs)) if i not in br.errors]
    residuals = dict(zip(ok, _stack_residuals(stack, ok, [br.results[i] for i in ok])))
    outcomes = [
        br.errors[i] if i in br.errors else (br.results[i], residuals[i])
        for i in range(len(specs))
    ]
    return outcomes, len(br.ejected)


def _ft_gehrd_rows(spec, outcome):
    res, residual = outcome
    rows = {
        "seconds_simulated": float(res.seconds),
        "detections": int(res.detections),
        "recoveries": len(res.recoveries),
        "restarts": int(res.restarts),
        "tau_repairs": int(res.tau_repairs),
        "tier_tally": _tier_tally(res.recoveries, res.restarts),
    }
    return _with_residual(rows, residual)


def _run_ft_sytrd(spec, *, workspace, ladder, max_sweeps):
    from repro.core import ft_sytrd
    from repro.core.ft_tridiag import DEFAULT_AUDIT_EVERY

    # the tridiagonal driver's audit is mandatory (>= 1); 0 means
    # "driver default" here, unlike the gehrd family where it's "off"
    audit = spec.audit_every or DEFAULT_AUDIT_EVERY
    res = ft_sytrd(_build_matrix(spec, workspace), audit_every=audit, injector=_injectors(spec)[0])
    return res, None


def _ft_sytrd_rows(spec, res):
    return {
        "detections": int(res.detections),
        "recoveries": len(res.recoveries),
        "checks": int(res.checks),
        "tier_tally": _tier_tally(res.recoveries, 0),
    }


def _qr_stage(h, spec, qr_inj, *, ladder=None, max_sweeps=None):
    """The protected Francis QR on a reduced H (the eigensolver's
    second stage)."""
    from repro.eigen.ft_hqr import QRProtectConfig, ft_hqr

    qcfg = QRProtectConfig(want_z=spec.driver == "ft_schur")
    if max_sweeps:
        qcfg.max_sweeps_per_eig = max_sweeps
    if ladder is not None:
        qcfg.ladder = ladder
    return ft_hqr(h, qcfg, injector=qr_inj, check_input=False)


def _run_eig(spec, *, workspace, ladder, max_sweeps):
    from repro.core import ft_gehrd
    from repro.eigen import hessenberg_eigvecs
    from repro.linalg import extract_hessenberg, factorization_residual, orghr

    a = _build_matrix(spec, workspace)
    red_inj, qr_inj = _injectors(spec)
    res = ft_gehrd(a, _ft_config(spec, ladder), injector=red_inj, workspace=workspace)
    h = extract_hessenberg(res.a)
    q = orghr(res.a, res.taus) if spec.driver == "ft_schur" or spec.eigvecs else None
    fr = _qr_stage(h, spec, qr_inj, ladder=ladder, max_sweeps=max_sweeps)
    extra: dict = {}
    factors: dict = {}
    if spec.driver == "ft_schur":
        qz = np.asfortranarray(q @ fr.z)
        # ‖A − (QZ) T (QZ)ᵀ‖₁ / (N ‖A‖₁): the Schur-form analogue of
        # the Table II factorization residual
        extra["schur_residual"] = float(factorization_residual(a, qz, fr.t))
        factors.update(t=np.asarray(fr.t), z=qz)
    if spec.eigvecs:
        v = q @ hessenberg_eigvecs(h, fr.eigvals, check_input=False)
        av = np.asarray(a, dtype=np.float64) @ v
        lv = v * fr.eigvals[None, :]
        scale = max(float(np.max(np.abs(a))), 1.0)
        extra["eigvec_residual"] = float(np.max(np.abs(av - lv)) / scale)
        factors.update(v_re=np.ascontiguousarray(v.real), v_im=np.ascontiguousarray(v.imag))
    return (res, fr, extra), (factors if spec.return_factors else None)


def _stack_eig(specs, stack, workspace):
    """The reduction front runs through the stacked FT engine; each item
    finishes with a scalar protected QR — the QR stage is already O(n³)
    scalar work, so only the reduction's Python overhead needed
    amortizing."""
    from repro.batch import ft_gehrd_batched
    from repro.linalg import extract_hessenberg

    split = [_injectors(spec) for spec in specs]
    br = ft_gehrd_batched(
        stack, _ft_config(specs[0]), injectors=[s[0] for s in split], workspace=workspace
    )
    outcomes: list = []
    for i, (spec, res) in enumerate(zip(specs, br.results)):
        if i in br.errors:
            outcomes.append(br.errors[i])
            continue
        try:
            outcomes.append((res, _qr_stage(extract_hessenberg(res.a), spec, split[i][1]), {}))
        except BaseException as exc:  # noqa: BLE001 - item retry isolation
            outcomes.append(exc)
    return outcomes, len(br.ejected)


def _eig_rows(spec, outcome):
    """The spectrum (as ``[re, im]`` pairs, JSON-safe) plus both stages'
    detection/recovery accounting and the QR checkpoint statistics."""
    res, fr, extra = outcome
    return {
        "eigvals": [[float(z.real), float(z.imag)] for z in fr.eigvals],
        "seconds_simulated": float(res.seconds),
        "detections": int(res.detections) + int(fr.detections),
        "recoveries": len(res.recoveries) + len(fr.recoveries),
        "restarts": int(res.restarts),
        "tau_repairs": int(res.tau_repairs),
        "sweeps": int(fr.sweeps),
        "qr_verifications": int(fr.verifications),
        "rollbacks": int(fr.rollbacks),
        "deep_rollbacks": int(fr.deep_rollbacks),
        "checkpoint_saves": int(fr.checkpoint_saves),
        "checkpoint_restores": int(fr.checkpoint_restores),
        "checkpoint_corruptions": int(fr.checkpoint_corruptions),
        "verify_every_final": int(fr.verify_every_final),
        "tier_tally": _tier_tally(list(res.recoveries) + list(fr.recoveries), res.restarts),
        **extra,
    }


def _run_campaign(spec, *, workspace, ladder, max_sweeps):
    from repro.core import FTConfig
    from repro.faults import run_campaign

    channels = max(spec.channels, 2) if spec.adversarial else spec.channels
    res = run_campaign(
        _build_matrix(spec, workspace),
        nb=spec.nb,
        moments=spec.moments,
        seed=spec.seed,
        config=FTConfig(nb=spec.nb, channels=channels),
        adversarial=spec.adversarial,
        workers=1,  # the service already owns the process fan-out
    )
    return res, None


def _campaign_rows(spec, res):
    return {
        "trials": len(res.trials),
        "recovery_rate": float(res.recovery_rate),
        "worst_residual": float(res.worst_residual),
        "outcomes": {k: int(v) for k, v in res.outcome_counts.items()},
    }


class _Driver(NamedTuple):
    run: Callable
    run_stack: Callable | None
    rows: Callable


#: ``ft_eig`` runs the end-to-end protected eigensolver (FT reduction →
#: protected Francis QR, eigenvalues only); ``ft_schur`` additionally
#: accumulates and returns the real Schur form ``A = (QZ) T (QZ)ᵀ``.
_DRIVER_TABLE: dict[str, _Driver] = {
    "gehrd": _Driver(_run_gehrd, _stack_gehrd, _gehrd_rows),
    "hybrid_gehrd": _Driver(_run_hybrid, None, _hybrid_rows),
    "ft_gehrd": _Driver(_run_ft_gehrd, _stack_ft_gehrd, _ft_gehrd_rows),
    "ft_sytrd": _Driver(_run_ft_sytrd, None, _ft_sytrd_rows),
    "campaign": _Driver(_run_campaign, None, _campaign_rows),
    "ft_eig": _Driver(_run_eig, _stack_eig, _eig_rows),
    "ft_schur": _Driver(_run_eig, None, _eig_rows),
}

#: Drivers a job may target.
DRIVERS = tuple(_DRIVER_TABLE)

#: Drivers built on the protected Francis QR stage.
EIG_DRIVERS = tuple(name for name, d in _DRIVER_TABLE.items() if d.rows is _eig_rows)

#: Drivers the stacked engine can run (see :mod:`repro.batch`).
BATCHABLE_DRIVERS = tuple(name for name, d in _DRIVER_TABLE.items() if d.run_stack is not None)


def _payload(spec: JobSpec, outcome) -> dict:
    """The driver-independent rows followed by the driver's own."""
    return {
        "driver": spec.driver,
        "n": spec.order,
        "nb": spec.nb,
        "dtype": spec.lane.name,
        **_DRIVER_TABLE[spec.driver].rows(spec, outcome),
    }


def execute_job(
    spec: JobSpec,
    *,
    workspace=None,
    ladder=None,
    shm_factors: bool = False,
    shm_min_bytes: int = DEFAULT_MIN_BYTES,
    max_sweeps: int | None = None,
) -> dict:
    """Run the job's driver and return a JSON-safe outcome payload.

    ``workspace`` is the caller's long-lived scratch arena (one per pool
    worker / in-thread lane); ``ladder`` overrides the FT driver's
    escalation-ladder budgets — the retry policy passes a stricter one
    after an :class:`~repro.errors.EscalationExhausted` failure.
    ``max_sweeps`` similarly overrides the eigensolver drivers' Francis
    stall budget (``max_sweeps_per_eig``) — the retry policy raises it
    after a :class:`~repro.errors.ConvergenceError`.
    ``shm_factors`` lets a ``return_factors`` job ship its H/Q factors
    back as shared-memory handles instead of inline lists (pool workers
    only — an in-thread job has no process line to cross).

    Failures propagate as the driver's own exceptions; classification
    into retryable/permanent is the scheduler's job, not this one's.
    """
    _maybe_crash(spec)
    t0 = time.perf_counter()
    if spec.driver not in _DRIVER_TABLE:  # pragma: no cover - validate() runs first
        raise JobSpecError(f"unknown driver {spec.driver!r}")
    outcome, factors = _DRIVER_TABLE[spec.driver].run(
        spec, workspace=workspace, ladder=ladder, max_sweeps=max_sweeps
    )
    payload = _payload(spec, outcome)
    if factors is not None:
        payload["factors"] = {
            name: _pack_factor(arr, shm_factors=shm_factors, shm_min_bytes=shm_min_bytes)
            for name, arr in factors.items()
        }
    payload["elapsed_s"] = time.perf_counter() - t0
    return payload


# -- batched execution (the serve coalescing lane's fast path) --------------


def batch_compatible(spec: JobSpec) -> bool:
    """Can this spec ride the batched fast path at all?

    Static surface only: functional jobs of a :data:`BATCHABLE_DRIVERS`
    driver without factors, eigenvectors, audits, chaos hooks, or
    shared-memory inputs. Fault plans *are* allowed — the batched driver
    ejects faulty items to the scalar resilience ladder (and QR-stage
    faults strike the per-item protected QR), so recovery semantics are
    unchanged.
    """
    return (
        spec.driver in BATCHABLE_DRIVERS
        and spec.functional
        and not spec.crash
        and not spec.return_factors
        and not spec.eigvecs
        and spec.audit_every == 0
        and not isinstance(spec.matrix, SharedMatrix)
    )


def batch_group_key(spec: JobSpec) -> tuple:
    """Jobs sharing this key may run in one stacked execution.

    The precision lane is part of the key: the stacked engine runs one
    dtype per `(B, n, n)` stack, so fp32 and fp64 jobs at identical
    shapes still bucket into separate batch lanes.
    """
    return (spec.driver, spec.order, spec.nb, spec.channels, spec.lane.name)


def execute_jobs_batched(specs: list[JobSpec], *, workspace=None) -> dict:
    """Run a group of batch-compatible jobs through the stacked engine.

    All *specs* must share one :func:`batch_group_key`. Returns::

        {"outcomes": [...], "ejections": int, "batch_size": int}

    where each outcome is ``{"ok": True, "payload": dict}`` — a payload
    with exactly the keys :func:`execute_job` would produce for that
    spec (byte-identical numerics; only the wall-clock ``elapsed_s``,
    reported as the batch wall divided by the batch size, differs) — or
    ``{"ok": False, "error": BaseException}`` for an item whose scalar
    re-run failed. Item failures never poison siblings; a *batch-level*
    failure (bad group, engine bug) raises instead, and the caller
    re-routes the whole group to the scalar path.
    """
    if not specs:
        return {"outcomes": [], "ejections": 0, "batch_size": 0}
    bad = [s for s in specs if not batch_compatible(s)]
    keys = {batch_group_key(s) for s in specs}
    if bad or len(keys) != 1:
        raise JobSpecError(
            f"incompatible batch group: {len(bad)} unbatchable specs, "
            f"{len(keys)} distinct group keys"
        )
    from repro.batch import as_item_f_stack

    t0 = time.perf_counter()
    # the drivers copy; this stack stays pristine for the residuals
    stack = as_item_f_stack([_build_matrix(spec, workspace) for spec in specs])
    items, ejections = _DRIVER_TABLE[specs[0].driver].run_stack(specs, stack, workspace)
    per_item = (time.perf_counter() - t0) / len(specs)
    outcomes = [
        {"ok": False, "error": item}
        if isinstance(item, BaseException)
        else {"ok": True, "payload": {**_payload(spec, item), "elapsed_s": per_item}}
        for spec, item in zip(specs, items)
    ]
    return {"outcomes": outcomes, "ejections": ejections, "batch_size": len(specs)}


# -- pool-worker entry points (top-level, so they pickle) -------------------


def pool_worker_init() -> None:
    """Prime a pool worker: import the hot modules and create the
    per-process scratch arena once, off the first job's latency."""
    import repro.core  # noqa: F401  (driver import cost paid here)
    from repro.perf.workspace import process_workspace

    process_workspace()


def execute_job_pooled(
    spec: JobSpec,
    ladder=None,
    shm_factors: bool = False,
    shm_min_bytes: int = DEFAULT_MIN_BYTES,
    max_sweeps: int | None = None,
) -> dict:
    """Worker-side wrapper binding the per-process Workspace arena."""
    from repro.perf.workspace import process_workspace

    return execute_job(spec, workspace=process_workspace(), ladder=ladder,
                       shm_factors=shm_factors, shm_min_bytes=shm_min_bytes,
                       max_sweeps=max_sweeps)
