"""Tests for the checksum-extended updates and reverse computation —
Theorem 1 and the rollback identity (paper §IV-C/IV-D)."""

import numpy as np
import pytest

from repro.abft import (
    EncodedMatrix,
    left_update_encoded,
    reverse_left_update_encoded,
    reverse_right_update_encoded,
    right_update_encoded,
    v_col_checksums,
    y_col_checksums,
)
from repro.errors import ShapeError
from repro.linalg.lahr2 import lahr2
from repro.utils.rng import random_matrix


def _one_iteration(em, p, ib, n):
    pf = lahr2(em.ext, p, ib, n)
    vce = v_col_checksums(pf, em)
    ychk = y_col_checksums(em, pf)
    right_update_encoded(em, pf, vce, ychk)
    left_update_encoded(em, pf, vce)
    em.refresh_finished_segment(p, ib)
    return pf, vce, ychk


def _checksum_errors(em, finished):
    frb, fcb = em.fresh_blocks(finished)
    fr, fc = frb[:, 0], fcb[0]
    return (
        float(np.max(np.abs(em.row_checksums - fr))),
        float(np.max(np.abs(em.col_checksums - fc))),
    )


class TestTheorem1:
    """The checksum invariant holds at the end of every iteration."""

    @pytest.mark.parametrize("n,nb", [(32, 8), (48, 16), (65, 8)])
    def test_invariant_through_full_factorization(self, n, nb):
        em = EncodedMatrix(random_matrix(n, seed=n))
        p = 0
        while n - 1 - p > 0:
            ib = min(nb, n - 1 - p)
            _one_iteration(em, p, ib, n)
            p += ib
            er, ec = _checksum_errors(em, p)
            assert er < 1e-11, f"row checksum broken at p={p}"
            assert ec < 1e-11, f"col checksum broken at p={p}"

    def test_vce_is_column_sums_of_v(self):
        n = 24
        em = EncodedMatrix(random_matrix(n, seed=1))
        pf = lahr2(em.ext, 0, 6, n)
        vce = v_col_checksums(pf, em)
        assert vce.shape == (1, 6)
        np.testing.assert_allclose(vce[0], pf.v.sum(axis=0), rtol=1e-13)

    def test_ychk_matches_column_sums_of_y(self):
        """Ychk_c derived from the maintained checksums equals eᵀY."""
        n = 24
        em = EncodedMatrix(random_matrix(n, seed=2))
        pf = lahr2(em.ext, 0, 6, n)
        ychk = y_col_checksums(em, pf)
        assert ychk.shape == (1, 6)
        np.testing.assert_allclose(ychk[0], pf.y[:n].sum(axis=0), atol=1e-10)

    def test_gap_stays_small_no_error(self):
        n, nb = 64, 16
        em = EncodedMatrix(random_matrix(n, seed=3))
        p = 0
        while n - 1 - p > 0:
            ib = min(nb, n - 1 - p)
            _one_iteration(em, p, ib, n)
            p += ib
            assert em.checksum_gap() < 1e-10


class TestReverseComputation:
    """Reversal restores the previous iteration's state to roundoff."""

    def test_reverse_restores_trailing_state(self):
        n, nb = 48, 8
        em = EncodedMatrix(random_matrix(n, seed=4))
        # first iteration forward (clean)
        _one_iteration(em, 0, nb, n)
        snapshot = em.ext.copy()
        # second iteration forward, then reversed
        pf, vce, ychk = _one_iteration(em, nb, nb, n)
        reverse_left_update_encoded(em, pf, vce)
        reverse_right_update_encoded(em, pf, vce, ychk)
        # trailing columns (beyond the panel) and checksums must be restored;
        # the panel columns themselves come back from the checkpoint instead.
        np.testing.assert_allclose(
            em.ext[:, 2 * nb :], snapshot[:, 2 * nb :], atol=1e-10
        )
        np.testing.assert_allclose(em.ext[:n, n], snapshot[:n, n], atol=1e-10)

    def test_reverse_preserves_injected_corruption(self):
        """Reversal is linear: a corruption injected before the iteration
        survives the roundtrip as the same single-element delta."""
        n, nb = 48, 8
        em = EncodedMatrix(random_matrix(n, seed=5))
        _one_iteration(em, 0, nb, n)
        snapshot = em.ext.copy()
        em.data[30, 40] += 2.5  # corrupt, then run + reverse an iteration
        pf, vce, ychk = _one_iteration(em, nb, nb, n)
        reverse_left_update_encoded(em, pf, vce)
        reverse_right_update_encoded(em, pf, vce, ychk)
        diff = em.ext[:, 2 * nb :] - snapshot[:, 2 * nb :]
        # single-element delta in the trailing region
        i, j = np.unravel_index(np.argmax(np.abs(diff)), diff.shape)
        assert (i, j + 2 * nb) == (30, 40)
        assert diff[i, j] == pytest.approx(2.5, rel=1e-9)
        diff[i, j] = 0.0
        assert np.max(np.abs(diff)) < 1e-9

    def test_shape_validation(self):
        n = 16
        em = EncodedMatrix(random_matrix(n, seed=6))
        pf = lahr2(em.ext, 0, 4, n)
        with pytest.raises(ShapeError):
            right_update_encoded(em, pf, np.zeros((1, 3)), np.zeros((1, 4)))
