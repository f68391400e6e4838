"""Error location (paper §IV-F) — single errors and non-rectangular
multi-error patterns.

After the rollback restores a checksum-consistent previous state, fresh
row/column sums of the mathematical matrix are recomputed and compared
against the maintained checksum vectors. Rows and columns whose residual
exceeds the threshold are candidates:

* one row + one column           → a single data error at their crossing;
* bad rows with *no* bad columns → the row-checksum elements themselves
  were hit (a data error always perturbs both vectors); symmetric for
  columns;
* several rows and columns       → multiple simultaneous errors, resolved
  by **iterative peeling**:

  1. if only one bad row remains, every remaining bad column's error lies
     in that row (magnitude = the column residual); symmetric for one bad
     column;
  2. otherwise peel any (row, column) pair whose residuals match uniquely
     — such a pair can only be a lone error on both of its lines.

  The paper's correctability condition — error positions not forming a
  rectangle — is exactly the condition under which peeling makes progress
  (a rectangle with consistent magnitudes leaves every line with ≥2
  errors and no unique match). An unpeelable pattern raises
  :class:`~repro.errors.UncorrectableError`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import UncorrectableError
from repro.linalg.flops import FlopCounter
from repro.abft.encoding import EncodedMatrix


@dataclass(frozen=True)
class LocatedError:
    """A located soft error.

    ``kind`` is ``"data"`` (fix ``A[row, col]``), ``"row_checksum"``
    (fix the row-checksum element ``[row]`` of *channel*) or
    ``"col_checksum"`` (dito for a column checksum); ``magnitude`` is the
    signed corruption the correction must remove (corrupted value minus
    true value). *channel* is always 0 under the paper's unit encoding.
    """

    kind: str
    row: int
    col: int
    magnitude: float
    channel: int = 0


@dataclass
class LocationReport:
    """Everything the locator derived, for reporting and tests."""

    errors: list[LocatedError] = field(default_factory=list)
    row_residuals: np.ndarray | None = None
    col_residuals: np.ndarray | None = None

    @property
    def count(self) -> int:
        return len(self.errors)


def residual_threshold(em: EncodedMatrix, norm_a: float, eps_factor: float = 1.0e3) -> float:
    """Per-line residual threshold for candidate selection.

    At float64 this is the norm-scaled bound the paper implies
    (``eps_factor · eps · max(1, ‖A‖₁) · N``). Below double precision
    that bound sits orders of magnitude *above* the variance-adaptive
    detection threshold — corruption the detector flags would be
    unlocatable, forcing a restart — so the fp32 lane scales with the
    observed checksum energy instead: ``sigma_factor · eps · sqrt(m2)``,
    the per-line analogue of the V-ABFT grand-sum rule (one sqrt(N)
    fewer, since a line residual accumulates N terms, not N²). The
    caller's *eps_factor* still acts as a relative tighten/loosen knob.
    """
    eps = float(np.finfo(em.ext.dtype).eps)
    if em.ext.dtype.itemsize >= 8:
        return eps_factor * eps * max(1.0, norm_a) * em.n
    from repro.abft.detection import (
        DEFAULT_EPS_FACTOR,
        DEFAULT_SIGMA_FACTOR,
        checksum_second_moment,
    )

    m2 = checksum_second_moment(em)
    if not np.isfinite(m2) or m2 <= 0.0:
        return eps_factor * eps * max(1.0, norm_a) * em.n
    rel = eps_factor / DEFAULT_EPS_FACTOR
    return rel * DEFAULT_SIGMA_FACTOR * eps * float(np.sqrt(max(m2, 1.0)))


def _close(a, b, tol: float) -> np.ndarray:
    """Elementwise residual match. The magnitude-relative term is needed
    because the sums' roundoff scales with the corruption size itself; a
    NaN operand never matches."""
    return np.abs(a - b) <= np.maximum(tol, 1e-9 * np.maximum(np.abs(a), np.abs(b)))


def _hot(x: np.ndarray, tol: float) -> np.ndarray:
    """Residual entries above *tol*. Non-finite residuals (Inf/NaN
    corruption) always count — plain magnitude comparison would drop them."""
    return (np.abs(x) > tol) | ~np.isfinite(x)


def decode_residuals(dr: np.ndarray, dc: np.ndarray, tol: float) -> list[LocatedError]:
    """Decode row/column residuals into located errors by peeling.

    *dr*/*dc* hold ``fresh − maintained`` sums (a corruption of magnitude
    ``m`` at (i, j) contributes ``+m`` to both ``dr[i]`` and ``dc[j]``; a
    corrupted row-checksum element contributes ``−m`` to ``dr[i]`` only).
    The arrays are consumed (modified in place on a copy made by the
    caller). Shared by the H-matrix locator and the Q protector.

    The peeling step works on one boolean match matrix over bad rows ×
    bad columns, built once and kept current as lines are peeled.
    """
    errors: list[LocatedError] = []
    rows = np.flatnonzero(_hot(dr, tol))
    cols = np.flatnonzero(_hot(dc, tol))
    match = None
    with np.errstate(invalid="ignore", over="ignore"):
        for _ in range(rows.size + cols.size + 1):
            if not rows.size and not cols.size:
                break

            # Checksum-element corruption: residual on one side only. For a
            # corrupted checksum the fresh sum is the truth, so the stored
            # checksum is off by -residual.
            if not cols.size:
                errors += [LocatedError("row_checksum", i, -1, m)
                           for i, m in zip(rows.tolist(), (-dr[rows]).tolist())]
                rows = rows[:0]
                continue
            if not rows.size:
                errors += [LocatedError("col_checksum", -1, j, m)
                           for j, m in zip(cols.tolist(), (-dc[cols]).tolist())]
                cols = cols[:0]
                continue

            # Structural rule: a single bad row owns every bad column's error.
            if rows.size == 1:
                i = int(rows[0])
                total = dc[cols].sum()
                if not _close(dr[i], total, tol) and np.isfinite(total):
                    raise UncorrectableError(
                        f"inconsistent residuals: row {i} residual {dr[i]:.3e} vs "
                        f"column total {total:.3e}"
                    )
                errors += [LocatedError("data", i, j, m)
                           for j, m in zip(cols.tolist(), dc[cols].tolist())]
                rows, cols = rows[:0], cols[:0]
                continue
            if cols.size == 1:
                j = int(cols[0])
                total = dr[rows].sum()
                if not _close(dc[j], total, tol) and np.isfinite(total):
                    raise UncorrectableError(
                        f"inconsistent residuals: column {j} residual {dc[j]:.3e} vs "
                        f"row total {total:.3e}"
                    )
                errors += [LocatedError("data", i, j, m)
                           for i, m in zip(rows.tolist(), dr[rows].tolist())]
                rows, cols = rows[:0], cols[:0]
                continue

            # Magnitude peeling: the first bad row matching exactly one bad
            # column that no other bad row matches must be a lone error on
            # each of its lines.
            if match is None:
                match = _close(dr[rows, None], dc[None, cols], tol)
            first = match.argmax(axis=1)
            lone = (match.sum(axis=1) == 1) & (match.sum(axis=0)[first] == 1)
            if not lone.any():
                raise UncorrectableError(
                    "error pattern cannot be peeled (rectangular or ambiguous): "
                    f"rows {rows.tolist()}, cols {cols.tolist()}"
                )
            r = int(lone.argmax())
            c = int(first[r])
            i, j = int(rows[r]), int(cols[c])
            m = float(dr[i])
            errors.append(LocatedError("data", i, j, m))
            dr[i] -= m
            dc[j] -= m
            rows, match = np.delete(rows, r), np.delete(match, r, axis=0)
            if abs(dc[j]) <= tol:
                cols, match = np.delete(cols, c), np.delete(match, c, axis=1)
            else:
                match[:, c] = _close(dr[rows], dc[j], tol)
        else:
            raise UncorrectableError(
                f"peeling did not converge: rows {rows.tolist()}, cols {cols.tolist()}"
            )
    return errors


def locate_errors(
    em: EncodedMatrix,
    finished_cols: int,
    norm_a: float,
    *,
    eps_factor: float = 1.0e3,
    counter: FlopCounter | None = None,
) -> LocationReport:
    """Locate every correctable error in the (rolled-back) encoded matrix.

    Parameters
    ----------
    em:
        The encoded matrix, rolled back to a checksum-consistent state
        (apart from the corruption being located).
    finished_cols:
        Number of reduced columns at the rolled-back state (their
        sub-subdiagonal storage is Q data, excluded from the sums).
    norm_a:
        1-norm of the original input (threshold scale).

    Raises
    ------
    UncorrectableError
        If the residual pattern cannot be resolved by peeling (the paper's
        rectangle condition) or is internally inconsistent.
    """
    tol = residual_threshold(em, norm_a, eps_factor)
    fresh_rb, fresh_cb = em.fresh_blocks(finished_cols, counter=counter)
    drb = np.asarray(fresh_rb - em.row_checksum_block, dtype=np.float64)
    dcb = np.asarray(fresh_cb - em.col_checksum_block, dtype=np.float64)
    report = LocationReport(row_residuals=drb[:, 0].copy(), col_residuals=dcb[0].copy())
    if em.k > 1:
        report.errors = decode_residuals_weighted(drb, dcb, em.weights, tol)
    else:
        report.errors = decode_residuals(drb[:, 0], dcb[0], tol)
    return report


def decode_residuals_weighted(
    drb: np.ndarray, dcb: np.ndarray, weights: np.ndarray, tol: float
) -> list[LocatedError]:
    """Decode residuals under the weighted (k ≥ 2) encoding.

    *drb* is (N, k): per-row ``fresh − maintained`` for every channel;
    *dcb* is (k, N) for the columns; *weights* is the (k, N) weight
    matrix whose channel 1 is strictly increasing.

    The extra channel turns location into a **ratio test** (Huang &
    Abraham): a lone error of magnitude ``m`` at (i, j) gives
    ``drb[i] = m · weights[:, j]``, so ``drb[i, 1] / drb[i, 0] = w₁(j)``
    identifies ``j`` directly — per *line*, independent of the other
    lines. Peeling a located error from all four residual vectors then
    exposes the next one, which is what decodes patterns the unit
    encoding provably cannot (the 2-rows × 2-cols L-shape).

    A corrupted checksum *element* perturbs exactly one channel on one
    side (``drb[i, q] = −m``, everything else clean) and is recognized by
    that signature.

    Each step ratio-tests every bad line at once and peels the first bad
    row that passes, else the first bad column; a line whose ratio is not
    finite fails the test.
    """
    n, k = drb.shape
    if k < 2:
        raise UncorrectableError("weighted decode needs at least two channels")
    errors: list[LocatedError] = []

    def ratio_hits(lines: np.ndarray) -> np.ndarray:
        """Per line of *lines* (L, k): the crossing index on the other
        axis when the line is one lone error's signature, else -1."""
        m = lines[:, 0]
        pos = np.rint(lines[:, 1] / m * n)
        ok = np.isfinite(m) & (np.abs(m) > tol) & (pos >= 1) & (pos <= n)
        other = np.where(ok, pos, 1).astype(np.intp) - 1
        # verify across ALL channels: line ≈ m * weights[:, other], with
        # the product in the weights' dtype as in the peel below
        target = m.astype(weights.dtype)[:, None] * weights[:, other].T
        off = np.abs(lines - target) > np.maximum(tol, 1e-8 * np.abs(m))[:, None]
        return np.where(ok & ~off.any(axis=1), other, -1)

    def peel_first(bad: np.ndarray, own: np.ndarray, cross: np.ndarray, by_row: bool) -> bool:
        """Peel the first line of *own* (N, k) in *bad* that passes the
        ratio test from both residual sets (*cross* is the other side)."""
        hits = ratio_hits(own[bad])
        found = np.flatnonzero(hits >= 0)
        if not found.size:
            return False
        idx, other = int(bad[found[0]]), int(hits[found[0]])
        m = float(own[idx, 0])
        errors.append(LocatedError("data", *((idx, other) if by_row else (other, idx)), m))
        own[idx] -= m * weights[:, other]
        cross[other] -= m * weights[:, idx]
        return True

    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for _ in range(2 * n + 4):
            hot_r, hot_c = _hot(drb, tol), _hot(dcb, tol).T
            bad_rows = np.flatnonzero(hot_r.any(axis=1))
            bad_cols = np.flatnonzero(hot_c.any(axis=1))
            if not bad_rows.size and not bad_cols.size:
                break
            if peel_first(bad_rows, drb, dcb.T, True) or peel_first(bad_cols, dcb.T, drb, False):
                continue
            # checksum-element signatures: exactly one channel of one side hot
            progress = False
            for own, bad, hot, by_row in ((drb, bad_rows, hot_r, True), (dcb.T, bad_cols, hot_c, False)):
                for i in bad[hot[bad].sum(axis=1) == 1].tolist():
                    q = int(hot[i].argmax())
                    kind, at = ("row_checksum", (i, -1)) if by_row else ("col_checksum", (-1, i))
                    errors.append(LocatedError(kind, *at, float(-own[i, q]), q))
                    own[i, q] = 0.0
                    progress = True
            if not progress:
                raise UncorrectableError(
                    "weighted decode stalled: "
                    f"rows {bad_rows[:8].tolist()}, cols {bad_cols[:8].tolist()}"
                )
        else:
            raise UncorrectableError("weighted decode did not converge")
    return errors
