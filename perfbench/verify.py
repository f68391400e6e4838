"""Correctness checks on every output the benchmark times.

Checks run outside the timed region and use only NumPy and SciPy's
LAPACK bindings, not the program's own verification code (except for a
served job, whose factors stay in the worker and whose payload carries
the program's residual). A failed check is counted, never filtered:
``verified_frac`` is passed outputs over attempted outputs.

Tolerances, in units of ``n · ε`` of the precision lane: ``C_RESID`` for
the backward residual ``‖A − QHQᵀ‖_F / ‖A‖_F``, ``C_MATCH`` for the
distance of a planted-fault run's H from the fault-free H on the same
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lapack

#: Multiple of ``n · ε`` a verified residual may reach. LAPACK itself
#: lands near ``0.02 · n · ε`` at n=512 in float64.
C_RESID = 4.0
#: Multiple of ``n · ε`` by which a recovered run's H may differ from the
#: fault-free H. Recovery (reverse updates, restore, redo) changes the
#: rounding, and the Householder sequence amplifies that in H while the
#: backward residual stays at ~0.02 · n · ε: the largest distance seen
#: over 1120 planted-fault runs (``recover_fp64``, seeds 1–70) and the
#: recorded benchmark runs was ~41 · n · ε. A
#: missed or wrong correction leaves a distance of the fault's own size,
#: ~1e-3 at n=384, far above this.
C_MATCH = 1024.0


def bound(n: int, dtype) -> float:
    return C_RESID * n * float(np.finfo(dtype).eps)


def match_bound(n: int, dtype) -> float:
    return C_MATCH * n * float(np.finfo(dtype).eps)


def form_q(packed: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """Explicit Q from a packed gehrd factorization, via LAPACK ?orghr."""
    n = packed.shape[0]
    orghr = lapack.sorghr if packed.dtype == np.float32 else lapack.dorghr
    q, info = orghr(np.array(packed, order="F"), np.asarray(taus), lo=0, hi=n - 1)[:2]
    if info != 0:
        raise ValueError(f"?orghr failed with info={info}")
    return q


def residual(a: np.ndarray, h: np.ndarray, q: np.ndarray) -> float:
    """``‖A − QHQᵀ‖_F / ‖A‖_F``, evaluated in float64."""
    a64, h64, q64 = (np.asarray(x, dtype=np.float64) for x in (a, h, q))
    return float(np.linalg.norm(a64 - q64 @ h64 @ q64.T) / np.linalg.norm(a64))


def is_upper_hessenberg(h: np.ndarray) -> bool:
    return not np.any(np.tril(h, -2))


def check_factors(a: np.ndarray, h: np.ndarray, q: np.ndarray) -> tuple[bool, float, str]:
    """(ok, residual, reason) for a claimed ``A = Q H Qᵀ``."""
    if h.shape != a.shape or q.shape != a.shape:
        return False, float("nan"), f"shape {h.shape}/{q.shape} for A {a.shape}"
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(q))):
        return False, float("nan"), "non-finite output"
    if not is_upper_hessenberg(h):
        return False, float("nan"), "H is not upper Hessenberg"
    return _residual_check(a, h, q)


def _residual_check(a: np.ndarray, h: np.ndarray, q: np.ndarray) -> tuple[bool, float, str]:
    n = a.shape[0]
    r = residual(a, h, q)
    if not r <= bound(n, a.dtype):
        return False, r, f"residual {r:.3e} > {bound(n, a.dtype):.3e}"
    return True, r, ""


def check_packed(a: np.ndarray, packed: np.ndarray, taus: np.ndarray) -> tuple[bool, float, str]:
    """(ok, residual, reason) for a driver's packed output (H + reflectors, taus).

    H is read as ``triu(packed, -1)``: below the subdiagonal the packed
    array holds the Householder vectors, so H is upper Hessenberg by
    construction and the structure check of :func:`check_factors` cannot
    fail here. The residual, with Q formed from the reflectors, is the
    check that has force; a corrupted H or reflector shows in it.
    """
    if not (np.all(np.isfinite(packed)) and np.all(np.isfinite(taus))):
        return False, float("nan"), "non-finite output"
    return _residual_check(a, np.triu(packed, -1), form_q(packed, taus))


def h_distance(a: np.ndarray, h: np.ndarray, h_ref: np.ndarray) -> float:
    """``‖H − H_ref‖_F / ‖A‖_F``."""
    return float(np.linalg.norm(h - h_ref) / np.linalg.norm(a))


def lapack_residual(a: np.ndarray) -> float:
    """LAPACK's own backward residual on *a*, printed beside ours."""
    from scipy.linalg import hessenberg

    h, q = hessenberg(a, calc_q=True, check_finite=False)
    return residual(a, h, q)


@dataclass
class Tally:
    """Outputs attempted and failed, with the worst residual seen."""

    attempted: int = 0
    failed: int = 0
    worst: dict = field(default_factory=dict)
    reasons: list = field(default_factory=list)

    def note(self, what: str, value: float) -> None:
        """Keep the worst *value* seen for *what* (printed in the summary)."""
        if what and np.isfinite(value):
            self.worst[what] = max(self.worst.get(what, 0.0), value)

    def record(self, ok: bool, what: str = "", value: float = 0.0, reason: str = "") -> None:
        """Count one output, passed or failed."""
        self.attempted += 1
        self.note(what, value)
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{what}: {reason}")

    @property
    def verified_frac(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0
