"""Tests for error location: single errors, checksum-element errors, and
the multi-error peeling decoder (paper §IV-F + the non-rectangle claim)."""

import numpy as np
import pytest

from repro.abft import EncodedMatrix, decode_residuals, locate_errors
from repro.errors import UncorrectableError
from repro.utils.rng import random_matrix


def _em(n=24, seed=0):
    a = random_matrix(n, seed=seed)
    return EncodedMatrix(a), float(np.linalg.norm(a, 1))


class TestSingleError:
    def test_locates_data_error(self):
        em, norm_a = _em(seed=1)
        em.data[7, 11] += 3.25
        rep = locate_errors(em, 0, norm_a)
        assert rep.count == 1
        e = rep.errors[0]
        assert (e.kind, e.row, e.col) == ("data", 7, 11)
        assert e.magnitude == pytest.approx(3.25, rel=1e-10)

    def test_locates_row_checksum_error(self):
        em, norm_a = _em(seed=2)
        em.ext[5, em.n] += 2.0
        rep = locate_errors(em, 0, norm_a)
        assert rep.count == 1
        e = rep.errors[0]
        assert (e.kind, e.row) == ("row_checksum", 5)
        assert e.magnitude == pytest.approx(2.0, rel=1e-10)

    def test_locates_col_checksum_error(self):
        em, norm_a = _em(seed=3)
        em.ext[em.n, 9] -= 1.5
        rep = locate_errors(em, 0, norm_a)
        e = rep.errors[0]
        assert (e.kind, e.col) == ("col_checksum", 9)
        assert e.magnitude == pytest.approx(-1.5, rel=1e-10)

    def test_clean_matrix_locates_nothing(self):
        em, norm_a = _em(seed=4)
        assert locate_errors(em, 0, norm_a).count == 0

    def test_respects_q_region_mask(self):
        """An error in the Q region of finished columns must NOT register
        (those sums exclude the reflector storage)."""
        em, norm_a = _em(seed=5)
        finished = 6
        em.refresh_finished_segment(0, finished)
        # recompute row checksums against the masked matrix to emulate a
        # consistent mid-factorization state
        em.ext[: em.n, em.n] = em.fresh_row_block(finished)[:, 0]
        em.data[10, 2] += 4.0  # (10, 2): i >= j+2, j < finished → Q region
        assert locate_errors(em, finished, norm_a).count == 0


class TestMultiError:
    def test_two_errors_different_rows_and_cols(self):
        em, norm_a = _em(seed=6)
        em.data[3, 4] += 1.0
        em.data[10, 15] += 2.0
        rep = locate_errors(em, 0, norm_a)
        got = {(e.row, e.col, round(e.magnitude, 6)) for e in rep.errors}
        assert got == {(3, 4, 1.0), (10, 15, 2.0)}

    def test_two_errors_same_row(self):
        em, norm_a = _em(seed=7)
        em.data[5, 2] += 1.0
        em.data[5, 9] += 2.0
        rep = locate_errors(em, 0, norm_a)
        got = {(e.row, e.col, round(e.magnitude, 6)) for e in rep.errors}
        assert got == {(5, 2, 1.0), (5, 9, 2.0)}

    def test_two_errors_same_col(self):
        em, norm_a = _em(seed=8)
        em.data[2, 6] += 1.0
        em.data[9, 6] += 2.5
        rep = locate_errors(em, 0, norm_a)
        got = {(e.row, e.col, round(e.magnitude, 6)) for e in rep.errors}
        assert got == {(2, 6, 1.0), (9, 6, 2.5)}

    def test_three_errors_l_shape_is_ambiguous(self):
        """An L-shaped triple spanning 2 rows x 2 cols is *provably*
        ambiguous from line sums alone: with residuals dr=[3,4],
        dc=[1,6], every a gives a consistent support
        {(1,1)=a, (1,8)=3-a, (12,1)=1-a, (12,8)=3+a} — including two
        distinct non-rectangular 3-cell solutions (a=0 and a=1). The
        paper's "not a rectangle" condition is therefore necessary but
        not sufficient; the decoder must refuse rather than guess.
        (Documented in EXPERIMENTS.md as a refinement of §I's claim.)"""
        em, norm_a = _em(seed=9)
        em.data[1, 1] += 1.0
        em.data[1, 8] += 2.0
        em.data[12, 8] += 4.0
        with pytest.raises(UncorrectableError):
            locate_errors(em, 0, norm_a)

    def test_three_errors_distinct_lines_decode(self):
        """Three errors on pairwise-distinct rows and columns peel by
        unique magnitude matching."""
        em, norm_a = _em(seed=12)
        em.data[1, 2] += 1.0
        em.data[6, 9] += 2.0
        em.data[14, 17] += 4.0
        rep = locate_errors(em, 0, norm_a)
        got = {(e.row, e.col, round(e.magnitude, 6)) for e in rep.errors}
        assert got == {(1, 2, 1.0), (6, 9, 2.0), (14, 17, 4.0)}

    def test_rectangle_pattern_raises(self):
        """The paper's stated uncorrectable configuration."""
        em, norm_a = _em(seed=10)
        em.data[2, 3] += 1.0
        em.data[2, 7] += 2.0
        em.data[11, 3] += 2.0
        em.data[11, 7] += 1.0
        with pytest.raises(UncorrectableError):
            locate_errors(em, 0, norm_a)

    def test_mixed_data_and_checksum_error_consistency_guard(self):
        """A data error plus a checksum-element hit in the same column
        triggers the consistency check rather than silent miscorrection."""
        em, norm_a = _em(seed=11)
        em.data[4, 6] += 1.0
        em.ext[9, em.n] += 5.0  # row-checksum element
        with pytest.raises(UncorrectableError):
            locate_errors(em, 0, norm_a)


class TestDecodeResiduals:
    def test_empty_residuals(self):
        errs = decode_residuals(np.zeros(5), np.zeros(5), 1e-12)
        assert errs == []

    def test_tolerance_respected(self):
        dr = np.array([0.0, 1e-14, 0.0])
        dc = np.array([1e-14, 0.0, 0.0])
        assert decode_residuals(dr, dc, 1e-12) == []
