"""Property-based tests (hypothesis) on the core invariants.

Strategies generate random shapes, seeds, fault positions and magnitudes;
the properties are the load-bearing identities of the reproduction:
reflector algebra, Theorem 1's checksum invariant, reversal exactness,
locate/correct roundtrips, and scheduler sanity.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.abft import (
    EncodedMatrix,
    left_update_encoded,
    locate_errors,
    correct_all,
    reverse_left_update_encoded,
    reverse_right_update_encoded,
    right_update_encoded,
    v_col_checksums,
    y_col_checksums,
)
from repro.faults.injector import flip_bit
from repro.linalg.householder import full_vector, larfg, reflector_matrix
from repro.linalg.lahr2 import lahr2
from repro.utils.rng import random_matrix

SLOWISH = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
QUICK = settings(max_examples=60, deadline=None)


class TestReflectorProperties:
    @QUICK
    @given(
        alpha=st.floats(-1e3, 1e3, allow_nan=False),
        seed=st.integers(0, 2**20),
        n=st.integers(1, 30),
    )
    def test_larfg_annihilates_and_preserves_norm(self, alpha, seed, n):
        x = np.random.default_rng(seed).standard_normal(n)
        assume(np.linalg.norm(x) > 1e-12)
        orig = np.concatenate(([alpha], x))
        refl = larfg(alpha, x.copy())
        h = reflector_matrix(refl.tau, np.concatenate(([1.0], refl.v)))
        out = h @ orig
        assert abs(out[0] - refl.beta) <= 1e-10 * max(1.0, abs(refl.beta))
        assert np.max(np.abs(out[1:])) <= 1e-10 * max(1.0, np.linalg.norm(orig))
        # orthogonal: norm preserved
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(orig), rel=1e-10)

    @QUICK
    @given(seed=st.integers(0, 2**20), n=st.integers(2, 20))
    def test_reflector_involution(self, seed, n):
        rng = np.random.default_rng(seed)
        refl = larfg(rng.standard_normal(), rng.standard_normal(n))
        h = reflector_matrix(refl.tau, full_vector(refl))
        np.testing.assert_allclose(h @ h, np.eye(n + 1), atol=1e-12)


class TestChecksumInvariant:
    @SLOWISH
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(12, 56),
        nb=st.sampled_from([4, 8, 16]),
    )
    def test_theorem1_holds_for_random_problems(self, seed, n, nb):
        em = EncodedMatrix(random_matrix(n, seed=seed))
        p = 0
        while n - 1 - p > 0:
            ib = min(nb, n - 1 - p)
            pf = lahr2(em.ext, p, ib, n)
            vce = v_col_checksums(pf, em)
            ychk = y_col_checksums(em, pf)
            right_update_encoded(em, pf, vce, ychk)
            left_update_encoded(em, pf, vce)
            em.refresh_finished_segment(p, ib)
            p += ib
        frb, fcb = em.fresh_blocks(p)
        fr, fc = frb[:, 0], fcb[0]
        scale = max(1.0, float(np.max(np.abs(em.data)))) * n
        assert np.max(np.abs(em.row_checksums - fr)) < 1e-12 * scale
        assert np.max(np.abs(em.col_checksums - fc)) < 1e-12 * scale

    @SLOWISH
    @given(seed=st.integers(0, 2**16), nb=st.sampled_from([4, 8]))
    def test_reverse_is_exact_inverse(self, seed, nb):
        n = 32
        em = EncodedMatrix(random_matrix(n, seed=seed))
        snapshot = em.ext.copy()
        pf = lahr2(em.ext, 0, nb, n)
        vce = v_col_checksums(pf, em)
        ychk = y_col_checksums(em, pf)
        right_update_encoded(em, pf, vce, ychk)
        left_update_encoded(em, pf, vce)
        reverse_left_update_encoded(em, pf, vce)
        reverse_right_update_encoded(em, pf, vce, ychk)
        # everything outside the panel (which the checkpoint restores)
        # must round-trip to near machine precision
        scale = max(1.0, float(np.max(np.abs(snapshot))))
        assert np.max(np.abs(em.ext[:, nb:] - snapshot[:, nb:])) < 1e-11 * scale


class TestLocateCorrectRoundtrip:
    @SLOWISH
    @given(
        seed=st.integers(0, 2**16),
        i=st.integers(0, 31),
        j=st.integers(0, 31),
        magnitude=st.floats(1e-6, 1e6, allow_nan=False),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_single_error_always_recovered(self, seed, i, j, magnitude, sign):
        n = 32
        a = random_matrix(n, seed=seed)
        em = EncodedMatrix(a)
        norm_a = float(np.linalg.norm(a, 1))
        em.data[i, j] += sign * magnitude
        rep = locate_errors(em, 0, norm_a)
        tol_detect = 1e-10 * max(1.0, norm_a) * n
        if magnitude < tol_detect:
            return  # sub-roundoff faults legitimately invisible
        assert rep.count == 1
        e = rep.errors[0]
        assert (e.row, e.col) == (i, j)
        correct_all(em, rep.errors, 0)
        assert abs(em.data[i, j] - a[i, j]) <= 1e-11 * max(1.0, magnitude, norm_a)

    @SLOWISH
    @given(
        seed=st.integers(0, 2**16),
        i1=st.integers(0, 15),
        j1=st.integers(0, 15),
        i2=st.integers(16, 31),
        j2=st.integers(16, 31),
        m1=st.floats(0.5, 100.0),
        m2=st.floats(0.5, 100.0),
    )
    def test_two_disjoint_errors_recovered(self, seed, i1, j1, i2, j2, m1, m2):
        assume(abs(m1 - m2) > 1e-3)  # distinguishable magnitudes
        n = 32
        a = random_matrix(n, seed=seed)
        em = EncodedMatrix(a)
        em.data[i1, j1] += m1
        em.data[i2, j2] += m2
        rep = locate_errors(em, 0, float(np.linalg.norm(a, 1)))
        assert {(e.row, e.col) for e in rep.errors} == {(i1, j1), (i2, j2)}
        correct_all(em, rep.errors, 0)
        np.testing.assert_allclose(em.data, a, atol=1e-9)


class TestBitFlipProperties:
    @QUICK
    @given(
        x=st.floats(-1e10, 1e10, allow_nan=False, allow_infinity=False),
        bit=st.integers(0, 63),
    )
    def test_flip_is_involution_and_changes_value(self, x, bit):
        y = flip_bit(x, bit)
        assert flip_bit(y, bit) == x or (np.isnan(y) and flip_bit(y, bit) == x)
        if x != 0.0 or bit != 63:
            # flipping any bit of a nonzero value changes the bits
            assert np.float64(x).tobytes() != np.float64(y).tobytes()


class TestSchedulerProperties:
    @QUICK
    @given(
        durations=st.lists(st.floats(0.001, 10.0), min_size=1, max_size=30),
        resources=st.lists(st.sampled_from(["cpu", "gpu", "h2d", "d2h"]),
                           min_size=1, max_size=30),
    )
    def test_makespan_bounds(self, durations, resources):
        """makespan >= max per-resource busy time, and <= total duration
        (list scheduling with chain deps cannot beat serial)."""
        from repro.hybrid.engine import SimEngine

        k = min(len(durations), len(resources))
        eng = SimEngine()
        prev = None
        for d, r in zip(durations[:k], resources[:k]):
            # alternate: every other op depends on the previous one
            deps = [prev] if (prev is not None and d > 5.0) else []
            prev = eng.submit("op", r, d, deps=deps)
        for r in {"cpu", "gpu", "h2d", "d2h"}:
            assert eng.makespan >= eng.busy_time(r) - 1e-12
        assert eng.makespan <= sum(durations[:k]) + 1e-12
