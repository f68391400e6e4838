"""BLAS-like kernels on NumPy arrays with optional flop accounting.

These are the only routines through which the factorizations touch data.
Routing everything through one layer gives us three things the
reproduction needs:

* a single place to count flops (Section-V overhead measurements),
* a single place the hybrid runtime can wrap to timestamp operations,
* in-place semantics that mirror the LAPACK routines the paper builds on,
  which is what makes *reverse computation* exact: the reverse update
  applies the transposed block reflector through these same kernels.

All 2-D operands are expected to be float64; subviews of Fortran-ordered
arrays (as produced by basic slicing) are fine — NumPy handles the strides
and we keep updates in place via ``out[...]`` assignments.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.linalg import flops as F
from repro.linalg.flops import FlopCounter


def _count(counter: FlopCounter | None, category: str, n: int | float) -> None:
    if counter is not None:
        counter.add(category, n)


def gemm(
    alpha: float,
    a: np.ndarray,
    b: np.ndarray,
    beta: float,
    c: np.ndarray,
    *,
    trans_a: bool = False,
    trans_b: bool = False,
    counter: FlopCounter | None = None,
    category: str = "gemm",
) -> np.ndarray:
    """``C <- alpha * op(A) @ op(B) + beta * C``; returns C.

    ``op(X)`` is ``X`` or ``X.T`` per the ``trans_*`` flags, matching the
    DGEMM interface the hybrid algorithm's pseudocode calls out.
    """
    opa = a.T if trans_a else a
    opb = b.T if trans_b else b
    if opa.ndim != 2 or opb.ndim != 2 or c.ndim != 2:
        raise ShapeError("gemm operands must be 2-D")
    m, k = opa.shape
    k2, n = opb.shape
    if k != k2 or c.shape != (m, n):
        raise ShapeError(
            f"gemm shape mismatch: op(A) {opa.shape}, op(B) {opb.shape}, C {c.shape}"
        )
    prod = opa @ opb
    if beta == 0.0:
        c[...] = alpha * prod
    elif beta == 1.0:
        if alpha == 1.0:
            c += prod
        elif alpha == -1.0:
            c -= prod
        else:
            c += alpha * prod
    else:
        c *= beta
        c += alpha * prod
    _count(counter, category, F.gemm_flops(m, n, k))
    return c


def gemv(
    alpha: float,
    a: np.ndarray,
    x: np.ndarray,
    beta: float,
    y: np.ndarray,
    *,
    trans: bool = False,
    counter: FlopCounter | None = None,
    category: str = "gemv",
) -> np.ndarray:
    """``y <- alpha * op(A) @ x + beta * y`` in place; returns y."""
    opa = a.T if trans else a
    m, n = opa.shape
    if x.shape != (n,) or y.shape != (m,):
        raise ShapeError(f"gemv shape mismatch: op(A) {opa.shape}, x {x.shape}, y {y.shape}")
    prod = opa @ x
    if beta == 0.0:
        y[...] = alpha * prod
    else:
        if beta != 1.0:
            y *= beta
        y += alpha * prod
    _count(counter, category, F.gemv_flops(m, n))
    return y


def ger(
    alpha: float,
    x: np.ndarray,
    y: np.ndarray,
    a: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    category: str = "ger",
) -> np.ndarray:
    """Rank-1 update ``A <- A + alpha * x yᵀ`` in place; returns A."""
    m, n = a.shape
    if x.shape != (m,) or y.shape != (n,):
        raise ShapeError(f"ger shape mismatch: A {a.shape}, x {x.shape}, y {y.shape}")
    a += alpha * np.outer(x, y)
    _count(counter, category, F.ger_flops(m, n))
    return a


def trmm(
    alpha: float,
    t: np.ndarray,
    b: np.ndarray,
    *,
    side: str = "left",
    lower: bool = False,
    trans: bool = False,
    unit: bool = False,
    counter: FlopCounter | None = None,
    category: str = "trmm",
) -> np.ndarray:
    """Triangular matrix multiply ``B <- alpha * op(T) @ B`` (or from the right).

    *t* supplies the triangle; elements on the wrong side of the diagonal
    are ignored, and with ``unit=True`` the diagonal is taken to be 1
    (LAPACK stores Householder vectors under an implicit unit diagonal,
    which is exactly how `dlahr2`/`dgehrd` use this routine).
    """
    if side not in ("left", "right"):
        raise ShapeError(f"trmm side must be 'left' or 'right', got {side!r}")
    nt = t.shape[0]
    if t.shape != (nt, nt):
        raise ShapeError(f"trmm triangle must be square, got {t.shape}")
    tri = np.tril(t) if lower else np.triu(t)
    if unit:
        np.fill_diagonal(tri, 1.0)
    opt = tri.T if trans else tri
    if side == "left":
        if b.shape[0] != nt:
            raise ShapeError(f"trmm left: T {t.shape} vs B {b.shape}")
        b[...] = alpha * (opt @ b)
        _count(counter, category, F.trmm_flops(nt, b.shape[1], True))
    else:
        if b.shape[1] != nt:
            raise ShapeError(f"trmm right: T {t.shape} vs B {b.shape}")
        b[...] = alpha * (b @ opt)
        _count(counter, category, F.trmm_flops(b.shape[0], nt, False))
    return b


def trmv(
    t: np.ndarray,
    x: np.ndarray,
    *,
    lower: bool = False,
    trans: bool = False,
    unit: bool = False,
    counter: FlopCounter | None = None,
    category: str = "trmv",
) -> np.ndarray:
    """Triangular matrix-vector multiply ``x <- op(T) @ x`` in place."""
    n = t.shape[0]
    if t.shape != (n, n) or x.shape != (n,):
        raise ShapeError(f"trmv shape mismatch: T {t.shape}, x {x.shape}")
    tri = np.tril(t) if lower else np.triu(t)
    if unit:
        tri = tri.copy()
        np.fill_diagonal(tri, 1.0)
    opt = tri.T if trans else tri
    x[...] = opt @ x
    _count(counter, category, F.trmv_flops(n))
    return x


def axpy(
    alpha: float,
    x: np.ndarray,
    y: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    category: str = "axpy",
) -> np.ndarray:
    """``y <- alpha * x + y`` in place; returns y."""
    if x.shape != y.shape:
        raise ShapeError(f"axpy shape mismatch: x {x.shape}, y {y.shape}")
    y += alpha * x
    _count(counter, category, F.axpy_flops(x.size))
    return y


def scal(
    alpha: float,
    x: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    category: str = "scal",
) -> np.ndarray:
    """``x <- alpha * x`` in place; returns x."""
    x *= alpha
    _count(counter, category, F.scal_flops(x.size))
    return x


def dot(
    x: np.ndarray,
    y: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    category: str = "dot",
) -> float:
    """Dot product with exact (2n-1) flop accounting."""
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError(f"dot shape mismatch: x {x.shape}, y {y.shape}")
    _count(counter, category, F.dot_flops(x.size))
    return float(x @ y)


def nrm2(
    x: np.ndarray,
    *,
    counter: FlopCounter | None = None,
    category: str = "nrm2",
) -> float:
    """Euclidean norm of a vector."""
    _count(counter, category, F.dot_flops(x.size))
    return float(np.linalg.norm(x))
