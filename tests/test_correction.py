"""Tests for error correction (the paper's dot-product formula, §IV-F)."""

import numpy as np
import pytest

from repro.abft import EncodedMatrix, LocatedError, apply_correction, correct_all, locate_errors
from repro.errors import UncorrectableError
from repro.utils.rng import random_matrix


def _em(n=20, seed=0):
    a = random_matrix(n, seed=seed)
    return EncodedMatrix(a), float(np.linalg.norm(a, 1)), a


class TestApplyCorrection:
    def test_data_error_row_formula(self):
        em, norm_a, a = _em(seed=1)
        true_val = float(em.data[6, 9])
        em.data[6, 9] += 3.0
        err = LocatedError("data", 6, 9, 3.0)
        got = apply_correction(em, err, 0, use="row")
        assert got == pytest.approx(true_val, abs=1e-12)
        assert em.data[6, 9] == pytest.approx(true_val, abs=1e-12)

    def test_data_error_col_formula(self):
        em, norm_a, a = _em(seed=2)
        true_val = float(em.data[6, 9])
        em.data[6, 9] -= 1.7
        err = LocatedError("data", 6, 9, -1.7)
        got = apply_correction(em, err, 0, use="col")
        assert got == pytest.approx(true_val, abs=1e-12)

    def test_row_checksum_recompute(self):
        em, norm_a, a = _em(seed=3)
        em.ext[4, em.n] += 9.0
        err = LocatedError("row_checksum", 4, -1, 9.0)
        apply_correction(em, err, 0)
        assert em.row_checksums[4] == pytest.approx(float(a[4].sum()), rel=1e-12)

    def test_col_checksum_recompute(self):
        em, norm_a, a = _em(seed=4)
        em.ext[em.n, 7] -= 2.0
        err = LocatedError("col_checksum", -1, 7, -2.0)
        apply_correction(em, err, 0)
        assert em.col_checksums[7] == pytest.approx(float(a[:, 7].sum()), rel=1e-12)

    def test_masked_correction_with_finished_columns(self):
        """Correction in a mid-factorization state must sum over the
        mathematical row (Q storage masked)."""
        em, norm_a, a = _em(seed=5)
        finished = 5
        # build a consistent masked state
        em.ext[: em.n, em.n] = em.fresh_row_block(finished)[:, 0]
        em.refresh_finished_segment(0, finished)
        true_val = float(em.data[8, 10])
        em.data[8, 10] += 2.0
        apply_correction(em, LocatedError("data", 8, 10, 2.0), finished, use="row")
        assert em.data[8, 10] == pytest.approx(true_val, abs=1e-11)

    def test_out_of_range_rejected(self):
        em, norm_a, _ = _em(seed=6)
        with pytest.raises(UncorrectableError):
            apply_correction(em, LocatedError("data", 50, 2, 1.0), 0)

    def test_unknown_kind_rejected(self):
        em, norm_a, _ = _em(seed=7)
        with pytest.raises(UncorrectableError):
            apply_correction(em, LocatedError("weird", 1, 1, 1.0), 0)


class TestCorrectAll:
    def test_locate_then_correct_roundtrip(self):
        em, norm_a, a = _em(seed=8)
        em.data[3, 4] += 1.0
        em.data[15, 11] -= 2.0
        rep = locate_errors(em, 0, norm_a)
        correct_all(em, rep.errors, 0)
        np.testing.assert_allclose(em.data, a, atol=1e-11)
        # residuals clean after correction
        assert locate_errors(em, 0, norm_a).count == 0

    def test_shared_row_uses_column_checksums(self):
        em, norm_a, a = _em(seed=9)
        em.data[5, 2] += 1.0
        em.data[5, 9] += 2.0
        rep = locate_errors(em, 0, norm_a)
        correct_all(em, rep.errors, 0)
        np.testing.assert_allclose(em.data, a, atol=1e-11)

    def test_shared_line_both_ways_rejected(self):
        em, norm_a, _ = _em(seed=10)
        errors = [
            LocatedError("data", 1, 1, 1.0),
            LocatedError("data", 1, 2, 1.0),
            LocatedError("data", 2, 1, 1.0),
            LocatedError("data", 2, 2, 1.0),
        ]
        with pytest.raises(UncorrectableError):
            correct_all(em, errors, 0)
