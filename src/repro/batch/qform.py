"""Batched Q formation (stacked DORGHR) and residual verification.

The per-job tail of a serve batch — forming Q from the packed
reflectors, extracting H, and computing the Table II residual — costs
as much Python overhead per item as the reduction itself once the
drivers are batched. These stacked mirrors collapse that tail to a
handful of 3-D ops per *batch*, with the same bit-identity argument as
the reduction kernels: every scalar GEMV/GEMM/reduction becomes the
identical per-item operation under one stacked call.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.linalg import flops as F
from repro.linalg.flops import FlopCounter

from repro.batch.stack import fstack


def orghr_batched(
    a_packed: np.ndarray,
    taus: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    category: str = "orghr",
) -> np.ndarray:
    """Explicit Q for every packed factorization in the (B, n, n) stack.

    The stacked mirror of :func:`repro.linalg.orghr.orghr` — backward
    reflector accumulation confined to the trailing principal block,
    with ``tau == 0`` items masked out of each rank-1 update exactly as
    the scalar kernel skips them.
    """
    if a_packed.ndim != 3 or a_packed.shape[1] != a_packed.shape[2]:
        raise ShapeError(
            f"orghr_batched needs a (B, n, n) stack, got {a_packed.shape}"
        )
    b, n = a_packed.shape[0], a_packed.shape[1]
    if taus.shape != (b, max(n - 1, 0)):
        raise ShapeError(
            f"orghr_batched: taus must be ({b}, {max(n - 1, 0)}), got {taus.shape}"
        )
    q = fstack(b, n, n, a_packed.dtype)
    q[:, range(n), range(n)] = 1.0
    for i in range(n - 2, -1, -1):
        tau = taus[:, i]
        active = tau != 0.0
        if not active.any():
            continue
        m = n - i - 1
        u = np.empty((b, m), dtype=a_packed.dtype)
        u[:, 0] = 1.0
        u[:, 1:] = a_packed[:, i + 2 : n, i]
        block = q[:, i + 1 : n, i + 1 : n]
        w = np.matmul(u[:, None, :], block)
        upd = tau[:, None, None] * (u[:, :, None] * w)
        if active.all():
            block -= upd
        else:
            np.subtract(block, upd, out=block, where=active[:, None, None])
        if counter is not None:
            counter.add(category, F.batched_flops(int(active.sum()), 4 * m * m))
    return q


def extract_hessenberg_batched(a_packed: np.ndarray) -> np.ndarray:
    """Stacked :func:`~repro.linalg.verify.extract_hessenberg` — zero
    below the first subdiagonal of every item (exact, so trivially
    bit-identical)."""
    return np.triu(a_packed, -1)


def _one_norms(stack: np.ndarray) -> np.ndarray:
    """Per-item matrix 1-norms (max absolute column sums)."""
    return np.max(np.sum(np.abs(stack), axis=1), axis=1)


def factorization_residuals_batched(
    a: np.ndarray, q: np.ndarray, h: np.ndarray
) -> np.ndarray:
    """Per-item Table II residuals ``‖A − Q H Qᵀ‖₁ / (N ‖A‖₁)`` over
    (B, n, n) stacks — the stacked
    :func:`~repro.linalg.verify.factorization_residual`."""
    if a.shape != q.shape or a.shape != h.shape:
        raise ShapeError(f"shape mismatch: A {a.shape}, Q {q.shape}, H {h.shape}")
    n = a.shape[1]
    # the norms are summed at the lane's precision, as the scalar
    # residual does; the division runs in float64, as its Python floats do
    na = _one_norms(a).astype(np.float64)
    resid = _one_norms(a - np.matmul(np.matmul(q, h), q.transpose(0, 2, 1)))
    out = np.zeros(a.shape[0])
    np.divide(resid.astype(np.float64), n * na, out=out, where=na != 0.0)
    return out
