"""The array-op ABFT host layer against frozen copies of the loops it replaced.

The decoders, the masked fresh sums, the panel refresh and the
Q-protection checksums used to be per-pair, per-row or per-column
Python loops. Those loops are kept here, verbatim, as the reference:

* both decoders must return the same ``LocatedError`` list and raise
  ``UncorrectableError`` in the same cases, over random sparse patterns,
  rectangles, checksum-only lines and ±inf/NaN residuals;
* the checksums must agree with the loops within ``k·n·eps`` on the
  fp64 and fp32 lanes, and the batched refresh must equal the scalar
  one byte for byte;
* every flop charge must equal the loops' per-column charges.

Two departures of the array-op decoders are deliberate and pinned here.
The single-line consistency total is summed in index order (the loop
summed in set-iteration order); the patterns draw magnitudes in
``[1e-3, 1e3]``, where that last-bit difference cannot reach the match
tolerance. And where the weighted loop crashed on a line whose ratio
``drb[i, 1] / drb[i, 0]`` is not finite (``round`` of NaN or Inf raised
``ValueError``/``OverflowError`` out of the driver), the array-op decoder
lets that line fail the ratio test.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.abft.encoding import EncodedMatrix, make_weight_block
from repro.abft.location import (
    LocatedError,
    decode_residuals,
    decode_residuals_weighted,
)
from repro.abft.qprotect import QProtector
from repro.batch.stack import EncodedMatrixBatch, as_item_f_stack
from repro.errors import UncorrectableError
from repro.linalg import flops as F
from repro.linalg.flops import FlopCounter

CASES = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
LANES = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ---------------------------------------------------------------------------
# frozen loop implementations (the reference)
# ---------------------------------------------------------------------------


def loop_decode_residuals(dr: np.ndarray, dc: np.ndarray, tol: float) -> list[LocatedError]:
    errors: list[LocatedError] = []

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= max(tol, 1e-9 * max(abs(a), abs(b)))

    bad_rows = set(np.flatnonzero((np.abs(dr) > tol) | ~np.isfinite(dr)).tolist())
    bad_cols = set(np.flatnonzero((np.abs(dc) > tol) | ~np.isfinite(dc)).tolist())

    guard = len(bad_rows) + len(bad_cols) + 1
    for _ in range(guard):
        if not bad_rows and not bad_cols:
            break
        if bad_rows and not bad_cols:
            for i in sorted(bad_rows):
                errors.append(LocatedError("row_checksum", i, -1, float(-dr[i])))
            bad_rows.clear()
            continue
        if bad_cols and not bad_rows:
            for j in sorted(bad_cols):
                errors.append(LocatedError("col_checksum", -1, j, float(-dc[j])))
            bad_cols.clear()
            continue
        if len(bad_rows) == 1:
            i = next(iter(bad_rows))
            total = sum(dc[j] for j in bad_cols)
            if not close(dr[i], total) and np.isfinite(total):
                raise UncorrectableError(
                    f"inconsistent residuals: row {i} residual {dr[i]:.3e} vs "
                    f"column total {total:.3e}"
                )
            for j in sorted(bad_cols):
                errors.append(LocatedError("data", i, j, float(dc[j])))
            bad_rows.clear()
            bad_cols.clear()
            continue
        if len(bad_cols) == 1:
            j = next(iter(bad_cols))
            total = sum(dr[i] for i in bad_rows)
            if not close(dc[j], total) and np.isfinite(total):
                raise UncorrectableError(
                    f"inconsistent residuals: column {j} residual {dc[j]:.3e} vs "
                    f"row total {total:.3e}"
                )
            for i in sorted(bad_rows):
                errors.append(LocatedError("data", i, j, float(dr[i])))
            bad_rows.clear()
            bad_cols.clear()
            continue
        peeled = False
        for i in sorted(bad_rows):
            matches = [j for j in bad_cols if close(dr[i], dc[j])]
            if len(matches) == 1:
                j = matches[0]
                back = [i2 for i2 in bad_rows if close(dc[j], dr[i2])]
                if len(back) == 1:
                    m = float(dr[i])
                    errors.append(LocatedError("data", i, j, m))
                    dr[i] -= m
                    dc[j] -= m
                    bad_rows.discard(i)
                    if abs(dc[j]) <= tol:
                        bad_cols.discard(j)
                    peeled = True
                    break
        if not peeled:
            raise UncorrectableError(
                "error pattern cannot be peeled (rectangular or ambiguous): "
                f"rows {sorted(bad_rows)}, cols {sorted(bad_cols)}"
            )
    else:
        raise UncorrectableError(
            f"peeling did not converge: rows {sorted(bad_rows)}, cols {sorted(bad_cols)}"
        )
    return errors


def loop_decode_residuals_weighted(
    drb: np.ndarray, dcb: np.ndarray, weights: np.ndarray, tol: float
) -> list[LocatedError]:
    n, k = drb.shape
    if k < 2:
        raise UncorrectableError("weighted decode needs at least two channels")
    errors: list[LocatedError] = []

    def bad(x: np.ndarray) -> bool:
        return bool(np.any(~np.isfinite(x)) or np.any(np.abs(x) > tol))

    def match_tol(m: float) -> float:
        return max(tol, 1e-8 * abs(m))

    def try_line(vec: np.ndarray, along_rows: bool, idx: int) -> bool:
        m = float(vec[0])
        if not np.isfinite(m) or abs(m) <= tol:
            return False
        ratio = float(vec[1]) / m
        other = int(round(ratio * n)) - 1
        if not (0 <= other < n):
            return False
        target = m * weights[:, other]
        if np.any(np.abs(vec - target) > match_tol(m)):
            return False
        if along_rows:
            errors.append(LocatedError("data", idx, other, m))
            drb[idx] -= target
            dcb[:, other] -= m * weights[:, idx]
        else:
            errors.append(LocatedError("data", other, idx, m))
            dcb[:, idx] -= target
            drb[other] -= m * weights[:, idx]
        return True

    guard = 2 * n + 4
    for _ in range(guard):
        bad_rows = [i for i in range(n) if bad(drb[i])]
        bad_cols = [j for j in range(n) if bad(dcb[:, j])]
        if not bad_rows and not bad_cols:
            break
        progress = False
        for i in bad_rows:
            if try_line(drb[i], True, i):
                progress = True
                break
        if progress:
            continue
        for j in bad_cols:
            if try_line(dcb[:, j], False, j):
                progress = True
                break
        if progress:
            continue
        for i in bad_rows:
            hot = [q for q in range(k) if abs(drb[i, q]) > tol or not np.isfinite(drb[i, q])]
            if len(hot) == 1:
                q = hot[0]
                errors.append(LocatedError("row_checksum", i, -1, float(-drb[i, q]), q))
                drb[i, q] = 0.0
                progress = True
        for j in bad_cols:
            hot = [q for q in range(k) if abs(dcb[q, j]) > tol or not np.isfinite(dcb[q, j])]
            if len(hot) == 1:
                q = hot[0]
                errors.append(LocatedError("col_checksum", -1, j, float(-dcb[q, j]), q))
                dcb[q, j] = 0.0
                progress = True
        if not progress:
            raise UncorrectableError(
                "weighted decode stalled: "
                f"rows {bad_rows[:8]}, cols {bad_cols[:8]}"
            )
    else:
        raise UncorrectableError("weighted decode did not converge")
    return errors


def loop_masked(em: EncodedMatrix, finished_cols: int) -> np.ndarray:
    m = em.data.copy()
    for j in range(min(finished_cols, em.n)):
        m[j + 2 :, j] = 0.0
    return m


def loop_fresh_sums(em: EncodedMatrix, finished_cols: int, counter: FlopCounter):
    """The per-side fresh sums ``locate_errors`` used to issue."""
    n, k = em.n, em.k
    if k > 1:
        counter.add("abft_locate", k * n * F.dot_flops(n))
        rb = loop_masked(em, finished_cols) @ em.weights.T
        counter.add("abft_locate", k * n * F.dot_flops(n))
        cb = em.weights @ loop_masked(em, finished_cols)
        return rb, cb
    ones = np.ones(n, dtype=em.ext.dtype)
    counter.add("abft_locate", n * F.dot_flops(n))
    r = loop_masked(em, finished_cols) @ ones
    counter.add("abft_locate", n * F.dot_flops(n))
    c = ones @ loop_masked(em, finished_cols)
    return r[:, None], c[None, :]


def loop_refresh(em: EncodedMatrix, p: int, ib: int, counter: FlopCounter) -> None:
    n = em.n
    for j in range(p, min(p + ib, n)):
        hi = min(j + 2, n)
        em.ext[n:, j] = em.weights[:, :hi] @ em.ext[:hi, j]
        counter.add("abft_maintain", em.k * F.dot_flops(hi))


def loop_refresh_batch(emb: EncodedMatrixBatch, p: int, ib: int, counter: FlopCounter) -> None:
    n = emb.n
    for j in range(p, min(p + ib, n)):
        hi = min(j + 2, n)
        np.matmul(
            emb.weights[None, :, :hi],
            emb.ext[:, :hi, j][:, :, None],
            out=emb.ext[:, n:, j][:, :, None],
        )
        counter.add("abft_maintain", F.batched_flops(emb.b, emb.k * F.dot_flops(hi)))


class LoopQ:
    """The per-column Q-protection checksum loops."""

    def __init__(self, n: int, offset: int):
        self.n, self.offset, self.finished_cols = n, offset, 0
        self.qr_chk = np.zeros(n)
        self.qc_chk = np.zeros(n)

    def update_for_panel(self, a, p, ib, counter):
        n = self.n
        for j in range(p, p + ib):
            rows = slice(j + self.offset, n)
            col = a[rows, j]
            self.qc_chk[j] = float(np.sum(col))
            self.qr_chk[rows] += col
            counter.add("abft_qprotect", 2 * F.dot_flops(max(col.size, 1)))
        self.finished_cols = p + ib

    def rollback_panel(self, a, p, ib):
        for j in range(p, p + ib):
            rows = slice(j + self.offset, self.n)
            self.qr_chk[rows] -= a[rows, j]
            self.qc_chk[j] = 0.0
        self.finished_cols = p

    def fresh_sums(self, a):
        fr = np.zeros(self.n)
        fc = np.zeros(self.n)
        for j in range(self.finished_cols):
            rows = slice(j + self.offset, self.n)
            col = a[rows, j]
            fc[j] = float(np.sum(col))
            fr[rows] += col
        return fr, fc

    def row_checksum(self, a, i):
        total = 0.0
        for j in range(self.finished_cols):
            if i >= j + self.offset:
                total += float(a[i, j])
        return total


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def outcome(decode, *args):
    """What a decoder does with *args*: its error list (floats by repr,
    so NaN magnitudes compare) or the message it raised."""
    try:
        errs = decode(*args)
    except UncorrectableError as exc:
        return ("raise", str(exc))
    return ("ok", [(e.kind, e.row, e.col, e.channel, repr(e.magnitude)) for e in errs])


def lane_bound(x: np.ndarray, k: int = 1) -> float:
    """``k·n·eps`` scaled by the largest absolute row or column sum."""
    n = max(x.shape[-2:])
    scale = max(1.0, float(np.abs(x).sum(axis=-1).max()), float(np.abs(x).sum(axis=-2).max()))
    return 4 * k * n * float(np.finfo(x.dtype).eps) * scale


magnitudes = st.one_of(
    st.floats(1e-3, 1e3),
    st.floats(-1e3, -1e-3),
    st.sampled_from([1.0, -1.0, 2.0, 0.5]),  # repeats make patterns ambiguous
)
specials = st.sampled_from([np.inf, -np.inf, np.nan])


@st.composite
def unit_patterns(draw):
    """Residuals of a random sparse error pattern under the unit encoding."""
    n = draw(st.integers(2, 24))
    tol = 1e-8
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    dr = rng.uniform(-tol / 2, tol / 2, n)
    dc = rng.uniform(-tol / 2, tol / 2, n)
    idx = st.integers(0, n - 1)
    for i, j, m in draw(st.lists(st.tuples(idx, idx, magnitudes), max_size=8)):
        dr[i] += m
        dc[j] += m
    for i, m in draw(st.lists(st.tuples(idx, magnitudes), max_size=3)):
        dr[i] -= m  # row-checksum element hit
    for j, m in draw(st.lists(st.tuples(idx, magnitudes), max_size=3)):
        dc[j] -= m
    for on_rows, i, v in draw(st.lists(st.tuples(st.booleans(), idx, specials), max_size=2)):
        (dr if on_rows else dc)[i] = v
    return dr, dc, tol


@st.composite
def weighted_patterns(draw):
    """Residual blocks of a random sparse pattern under the weighted encoding."""
    n = draw(st.integers(2, 24))
    k = draw(st.sampled_from([2, 3]))
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    weights = make_weight_block(n, k, dtype)
    tol = 1e-8 if dtype == np.float64 else 1e-4
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    drb = rng.uniform(-tol / 2, tol / 2, (n, k))
    dcb = rng.uniform(-tol / 2, tol / 2, (k, n))
    idx = st.integers(0, n - 1)
    for i, j, m in draw(st.lists(st.tuples(idx, idx, magnitudes), max_size=6)):
        drb[i] += m * weights[:, j]
        dcb[:, j] += m * weights[:, i]
    ch = st.integers(0, k - 1)
    for on_rows, i, q, m in draw(st.lists(st.tuples(st.booleans(), idx, ch, magnitudes), max_size=3)):
        if on_rows:
            drb[i, q] -= m
        else:
            dcb[q, i] -= m
    for on_rows, i, q, v in draw(st.lists(st.tuples(st.booleans(), idx, ch, specials), max_size=2)):
        if on_rows:
            drb[i, q] = v
        else:
            dcb[q, i] = v
    return drb, dcb, weights, tol


# ---------------------------------------------------------------------------
# decoders
# ---------------------------------------------------------------------------


class TestUnitDecoder:
    @CASES
    @given(unit_patterns())
    def test_random_patterns(self, case):
        dr, dc, tol = case
        with np.errstate(all="ignore"):
            want = outcome(loop_decode_residuals, dr.copy(), dc.copy(), tol)
        assert outcome(decode_residuals, dr.copy(), dc.copy(), tol) == want

    @LANES
    @given(
        n=st.integers(4, 40),
        corners=st.tuples(st.integers(0, 39), st.integers(0, 39), st.integers(0, 39), st.integers(0, 39)),
        m=magnitudes,
        extra=st.booleans(),
    )
    def test_rectangles(self, n, corners, m, extra):
        r1, r2, c1, c2 = (x % n for x in corners)
        if r1 == r2 or c1 == c2:
            r2, c2 = (r1 + 1) % n, (c1 + 1) % n
        dr, dc = np.zeros(n), np.zeros(n)
        for i, j in ((r1, c1), (r1, c2), (r2, c1), (r2, c2)):
            dr[i] += m
            dc[j] += m
        if extra:  # a lone error elsewhere peels first, then the rectangle stalls
            i, j = (max(r1, r2) + 1) % n, (max(c1, c2) + 1) % n
            if i not in (r1, r2) and j not in (c1, c2):
                dr[i] += 3.75 * m
                dc[j] += 3.75 * m
        want = outcome(loop_decode_residuals, dr.copy(), dc.copy(), 1e-8)
        assert want[0] == "raise"
        assert outcome(decode_residuals, dr.copy(), dc.copy(), 1e-8) == want

    @LANES
    @given(n=st.integers(2, 40), rows=st.booleans(), seed=st.integers(0, 2**31 - 1))
    def test_checksum_only_lines(self, n, rows, seed):
        rng = np.random.default_rng(seed)
        hit = rng.random(n) < 0.4
        dr = np.where(hit, rng.uniform(-5, 5, n), 0.0) if rows else np.zeros(n)
        dc = np.zeros(n) if rows else np.where(hit, rng.uniform(-5, 5, n), 0.0)
        want = outcome(loop_decode_residuals, dr.copy(), dc.copy(), 1e-8)
        assert outcome(decode_residuals, dr.copy(), dc.copy(), 1e-8) == want

    def test_long_peel_chain(self):
        """Many lone errors with distinct magnitudes: every step peels one
        and updates the match matrix in place."""
        n = 200
        rng = np.random.default_rng(3)
        rows, cols = rng.permutation(n)[:60], rng.permutation(n)[:60]
        dr, dc = np.zeros(n), np.zeros(n)
        for i, j, m in zip(rows, cols, rng.uniform(1.0, 100.0, 60)):
            dr[i] += m
            dc[j] += m
        want = outcome(loop_decode_residuals, dr.copy(), dc.copy(), 1e-8)
        assert want[0] == "ok" and len(want[1]) == 60
        assert outcome(decode_residuals, dr.copy(), dc.copy(), 1e-8) == want

    def test_peel_leaves_column_residual(self):
        """A match within the relative tolerance but not within *tol*
        leaves the peeled column bad; its match column must be rebuilt
        against the new residual before the next peel."""
        dr, dc = np.zeros(6), np.zeros(6)
        dr[0], dc[0] = 1000.0 + 5e-7, 1000.0
        dr[1] = -5e-7
        dr[2], dc[1] = 7.0, 7.0
        want = outcome(loop_decode_residuals, dr.copy(), dc.copy(), 1e-8)
        assert want[0] == "ok" and [e[:3] for e in want[1]] == [
            ("data", 0, 0), ("data", 1, 0), ("data", 2, 1)
        ]
        assert outcome(decode_residuals, dr.copy(), dc.copy(), 1e-8) == want

    @pytest.mark.parametrize("seed", range(4))
    def test_smeared_patterns(self, seed):
        """A trailing fault smeared over hundreds of lines (the shape the
        in-place tier meets on late faults) is refused the same way."""
        n = 384
        rng = np.random.default_rng(seed)
        r0, c0 = rng.integers(20, 120, 2)
        dr, dc = np.zeros(n), np.zeros(n)
        dr[r0:] = rng.standard_normal(n - r0)
        dc[c0:] = rng.standard_normal(n - c0)
        dc[c0 + 5] = dr[r0 + 7]  # one lone match to peel before stalling
        want = outcome(loop_decode_residuals, dr.copy(), dc.copy(), 1e-10)
        assert want[0] == "raise"
        assert outcome(decode_residuals, dr.copy(), dc.copy(), 1e-10) == want


class TestWeightedDecoder:
    @CASES
    @given(weighted_patterns())
    def test_random_patterns(self, case):
        drb, dcb, weights, tol = case
        try:
            with np.errstate(all="ignore"):
                want = outcome(loop_decode_residuals_weighted, drb.copy(), dcb.copy(), weights, tol)
        except (ValueError, OverflowError):
            want = None  # the loop crashed on a non-finite ratio
        got = outcome(decode_residuals_weighted, drb.copy(), dcb.copy(), weights, tol)
        if want is not None:
            assert got == want

    def test_non_finite_ratio_fails_the_line(self):
        """A line whose channel-1 residual is NaN cannot be ratio-decoded;
        the loop raised ValueError, the array-op decoder reports the
        pattern uncorrectable instead."""
        n = 8
        weights = make_weight_block(n, 2)
        drb, dcb = np.zeros((n, 2)), np.zeros((2, n))
        drb[3] = (1.5, np.nan)
        with pytest.raises(ValueError):
            loop_decode_residuals_weighted(drb.copy(), dcb.copy(), weights, 1e-8)
        with pytest.raises(UncorrectableError):
            decode_residuals_weighted(drb.copy(), dcb.copy(), weights, 1e-8)


# ---------------------------------------------------------------------------
# fresh sums, refresh and Q-protection checksums
# ---------------------------------------------------------------------------


dtypes = st.sampled_from([np.float64, np.float32])


class TestFreshSums:
    @LANES
    @given(n=st.integers(3, 40), k=st.integers(1, 2), dtype=dtypes,
           frac=st.floats(0, 1.2), seed=st.integers(0, 2**31 - 1))
    def test_masked_copy_and_sums(self, n, k, dtype, frac, seed):
        a = np.random.default_rng(seed).standard_normal((n, n)).astype(dtype)
        em = EncodedMatrix(np.asfortranarray(a), channels=k)
        finished = int(frac * n)
        assert np.array_equal(em._masked(finished), loop_masked(em, finished))
        want_c, got_c = FlopCounter(), FlopCounter()
        want = loop_fresh_sums(em, finished, want_c)
        got = em.fresh_blocks(finished, counter=got_c)
        bound = lane_bound(em.data, k)
        for w, g in zip(want, got):
            assert np.abs(g - w).max() <= bound
        assert got_c.snapshot() == want_c.snapshot()


class TestRefresh:
    @LANES
    @given(n=st.integers(3, 40), b=st.integers(1, 4), k=st.integers(1, 2), dtype=dtypes,
           nb=st.integers(1, 9), seed=st.integers(0, 2**31 - 1))
    def test_scalar_and_batched_lanes(self, n, b, k, dtype, nb, seed):
        rng = np.random.default_rng(seed)
        mats = [rng.standard_normal((n, n)).astype(dtype) for _ in range(b)]
        emb = EncodedMatrixBatch(as_item_f_stack(mats), channels=k)
        loop_b = EncodedMatrixBatch(as_item_f_stack(mats), channels=k)
        items = [EncodedMatrix(np.asfortranarray(m), channels=k) for m in mats]
        loops = [EncodedMatrix(np.asfortranarray(m), channels=k) for m in mats]
        cnt = {name: FlopCounter() for name in ("batch", "loop_batch", "scalar", "loop")}
        for p in range(0, n, nb):
            emb.refresh_finished_segment(p, nb, counter=cnt["batch"])
            loop_refresh_batch(loop_b, p, nb, cnt["loop_batch"])
            for em, ref in zip(items, loops):
                em.refresh_finished_segment(p, nb, counter=cnt["scalar"])
                loop_refresh(ref, p, nb, cnt["loop"])
        for i, (em, ref) in enumerate(zip(items, loops)):
            bound = lane_bound(em.data, k)
            assert np.abs(em.ext[n:, :n] - ref.ext[n:, :n]).max() <= bound
            assert np.abs(emb.ext[i, n:, :n] - loop_b.ext[i, n:, :n]).max() <= bound
            # one formulation on both lanes: batched equals scalar bytewise
            assert np.array_equal(emb.ext[i, n:, :n], em.ext[n:, :n])
        assert cnt["scalar"].snapshot() == cnt["loop"].snapshot()
        assert cnt["batch"].snapshot() == cnt["loop_batch"].snapshot()


class TestQProtection:
    @LANES
    @given(n=st.integers(3, 40), offset=st.sampled_from([1, 2]), dtype=dtypes,
           nb=st.integers(1, 9), frac=st.floats(0.05, 1.0), seed=st.integers(0, 2**31 - 1))
    def test_checksums_track_the_loops(self, n, offset, dtype, nb, frac, seed):
        rng = np.random.default_rng(seed)
        a = np.asfortranarray(rng.standard_normal((n, n)).astype(dtype))
        qp, ref = QProtector(n, offset=offset), LoopQ(n, offset)
        got_c, want_c = FlopCounter(), FlopCounter()
        panels = [(p, min(nb, n - p)) for p in range(0, max(1, int(frac * n)), nb)]
        for p, ib in panels:
            qp.update_for_panel(a, p, ib, counter=got_c)
            ref.update_for_panel(a, p, ib, want_c)
        assert got_c.snapshot() == want_c.snapshot()
        bound = lane_bound(a)

        def close(got, want):
            return np.abs(np.asarray(got) - np.asarray(want)).max() <= bound

        assert close(qp.qr_chk, ref.qr_chk) and close(qp.qc_chk, ref.qc_chk)
        for g, w in zip(qp.fresh_sums(a), ref.fresh_sums(a)):
            assert close(g, w)
        for i in range(n):
            qp.qr_chk[i] = 1e6
            qp.correct(a, [LocatedError("row_checksum", i, -1, 0.0)])
            assert abs(qp.qr_chk[i] - ref.row_checksum(a, i)) <= bound
        p, ib = panels[-1]
        qp.rollback_panel(a, p, ib)
        ref.rollback_panel(a, p, ib)
        assert qp.finished_cols == ref.finished_cols == p
        assert close(qp.qr_chk, ref.qr_chk) and close(qp.qc_chk, ref.qc_chk)
