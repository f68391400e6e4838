"""Tests of the benchmark harness itself (statistics, spans, verifier).

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import hessenberg, lapack

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import stats  # noqa: E402
from perfbench.spans import Span, Tracer, nesting_error, self_times  # noqa: E402
from perfbench.steady import report  # noqa: E402
from perfbench.verify import (  # noqa: E402
    Tally,
    bound,
    check_factors,
    check_packed,
    h_distance,
    match_bound,
)
from perfbench.workloads import Recover, Serve  # noqa: E402


class TestRatios:
    def test_pair_ratio_is_median_of_per_pair_ratios(self):
        # a host slowdown halfway through scales both sides of each pair
        lapack = [1.0, 1.0, 1.0, 2.0, 2.0]
        ft = [2.5, 2.4, 2.6, 5.0, 5.2]
        assert stats.pair_ratios(ft, lapack) == [2.5, 2.4, 2.6, 2.5, 2.6]
        assert stats.median_pair_ratio(ft, lapack) == 2.5

    def test_pair_ratio_rejects_unpaired_samples(self):
        with pytest.raises(ValueError):
            stats.pair_ratios([1.0, 2.0], [1.0])

    def test_cycle_sum_ratio_sums_whole_cycles_only(self):
        num = [1.0, 3.0, 2.0, 6.0, 100.0]
        den = [1.0, 1.0, 1.0, 1.0, 1.0]
        # cycles (1+3)/(1+1) and (2+6)/(1+1); the partial fifth pair is dropped
        assert stats.cycle_sum_ratios(num, den, 2) == [2.0, 4.0]

    def test_quartiles_match_the_steadiness_rule(self):
        vals = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        q1, med, q3 = stats.quartiles(vals)
        assert (q1, med, q3) == (2.75, 5.5, 8.25)
        assert stats.iqr_spread(vals) == pytest.approx(5.5 / 5.5)

    def test_percentile_is_nearest_rank(self):
        vals = list(range(1, 11))
        assert stats.percentile(vals, 50) == 5
        assert stats.percentile(vals, 90) == 9
        assert stats.percentile(vals, 100) == 10


class TestSelfTime:
    def test_self_time_plus_child_time_equals_parent(self):
        root = Span("driver", 0.0, 10.0)
        a = Span("panel", 1.0, 4.0, parent=root)
        b = Span("update", 5.0, 9.0, parent=root)
        leaf = Span("flops", 2.0, 2.5, parent=a)
        st = self_times([root, a, b, leaf])
        assert st[id(root)] == pytest.approx(10.0 - 3.0 - 4.0)
        assert st[id(a)] == pytest.approx(3.0 - 0.5)
        assert st[id(b)] == pytest.approx(4.0)
        assert st[id(leaf)] == pytest.approx(0.5)
        assert sum(st.values()) == pytest.approx(root.duration)

    def test_overlapping_children_are_counted_once(self):
        root = Span("round", 0.0, 10.0)
        kids = [Span("job", 2.0, 6.0, parent=root), Span("job", 4.0, 8.0, parent=root)]
        assert self_times([root, *kids])[id(root)] == pytest.approx(4.0)

    def test_nesting_error_is_zero_for_nested_spans_only(self):
        root = Span("driver", 0.0, 10.0)
        nested = [root, Span("panel", 1.0, 4.0, parent=root), Span("update", 4.0, 9.0, parent=root)]
        assert nesting_error(nested) == 0.0
        # a span from another thread, parented to the driver, that outlives it
        stray = Span("job", 8.0, 12.5, parent=root)
        assert nesting_error([*nested, stray]) == pytest.approx(2.5)
        overlap = Span("update2", 3.0, 5.0, parent=root)
        assert nesting_error([*nested, overlap]) == pytest.approx(1.0)  # 3..4 and 4..5

    def test_tracer_records_nested_spans_and_restores_originals(self):
        class Box:
            def inner(self, x):
                return x + 1

            def outer(self, x):
                return self.inner(x) * 2

        orig = Box.__dict__["inner"]
        tracer = Tracer()
        tracer.patch(Box, "inner", "inner")
        tracer.patch(Box, "outer", "outer")
        assert Box().outer(1) == 4
        tracer.uninstall()
        assert Box.__dict__["inner"] is orig
        names = {s.name: s for s in tracer.spans}
        assert names["inner"].parent is names["outer"]
        st = self_times(tracer.spans)
        total = st[id(names["inner"])] + st[id(names["outer"])]
        assert total == pytest.approx(names["outer"].duration)


def _reduction(n=24, seed=3):
    a = np.random.default_rng(seed).standard_normal((n, n))
    h, q = hessenberg(a, calc_q=True)
    return a, h, q


class TestVerifier:
    def test_correct_factorization_passes(self):
        a, h, q = _reduction()
        ok, r, _ = check_factors(a, h, q)
        assert ok and r <= bound(a.shape[0], a.dtype)

    @pytest.mark.parametrize("where", ["below_subdiagonal", "inside_band"])
    def test_corrupted_h_is_caught_and_lowers_verified_frac(self, where):
        a, h, q = _reduction()
        bad = h.copy()
        if where == "below_subdiagonal":
            bad[7, 2] = 1e-3  # breaks the Hessenberg structure
        else:
            bad[5, 5] += 1e-9  # keeps the structure, breaks A = QHQᵀ
        tally = Tally()
        for hh in (h, bad, h):
            ok, r, why = check_factors(a, hh, q)
            tally.record(ok, "resid", r, why)
        assert (tally.attempted, tally.failed) == (3, 1)
        assert tally.verified_frac == pytest.approx(2 / 3)

    def test_h_match_separates_rounding_from_a_missed_fault(self):
        a, h, _ = _reduction(n=64)
        rounding = h * (1 + 50 * np.finfo(float).eps)
        missed = h.copy()
        missed[10, 20] += 1.0  # an uncorrected soft error of unit size
        tol = match_bound(64, a.dtype)
        assert h_distance(a, rounding, h) <= tol < h_distance(a, missed, h)

    def test_program_output_passes_and_corrupted_reflector_fails(self):
        from repro.core import ft_gehrd

        a = np.random.default_rng(5).standard_normal((40, 40))
        res = ft_gehrd(a)
        assert check_packed(a, np.asarray(res.a), res.taus)[0]
        packed = np.array(res.a)
        packed[30, 3] += 1e-6  # a Householder vector entry: Q changes, H does not
        assert not check_packed(a, packed, res.taus)[0]


class TestVerifiedFrac:
    """verified_frac counts outputs: one verdict per output, one miss per
    output of a failed call."""

    def test_recover_output_counts_once_whatever_check_fails(self):
        wl = Recover(1)
        a = wl.mats[0]
        packed, taus, info = lapack.dgehrd(a)
        assert info == 0
        res = SimpleNamespace(a=packed, taus=taus)
        h = np.triu(packed, -1)
        fired = SimpleNamespace(count_fired=1)

        wl.h_ref[0] = h
        wl.check_fault_run(0, fired, res)  # passes every check
        assert (wl.tally.attempted, wl.tally.failed) == (1, 0)

        wl.h_ref[0] = h.copy()
        wl.h_ref[0][5, 100] += 1e-3  # residual fine, H differs from fault-free
        wl.check_fault_run(0, fired, res)
        assert (wl.tally.attempted, wl.tally.failed) == (2, 1)

        wl.check_fault_run(0, SimpleNamespace(count_fired=0), res)  # plan never fired
        assert (wl.tally.attempted, wl.tally.failed) == (3, 2)
        assert wl.tally.verified_frac == pytest.approx(1 / 3)

    def test_failed_serve_round_misses_every_job_in_it(self):
        class Refusing:
            def submit(self, spec):
                return SimpleNamespace(accepted=False, reason="queue full", job_id=None)

        wl = Serve(1)
        wl.svc = Refusing()
        jobs = len(wl.round_matrices(1))
        wl.step(0)
        # the direct unprotected calls pass; every job of the refused round is a miss
        assert (wl.tally.attempted, wl.tally.failed) == (2 * jobs, jobs)
        assert wl.t["ft"] == []


def test_report_flags_spread_beyond_bound_and_inexact_counts():
    spec = {"end_to_end": [{"name": "ft_x_lapack", "bound": 0.1},
                           {"name": "setup_s", "bound": 0.25}]}
    runs = [
        {"correct": True, "attempted": 1, "failed": 0, "metrics": {
            "ft_x_lapack": {"value": v, "unit": "x"},
            "setup_s": {"value": t, "unit": "s"},
            "hybrid.ops": {"value": c, "unit": "count"}}}
        for v, t, c in ((2.0, 0.5, 244), (2.5, 0.9, 244), (3.0, 0.5, 245), (2.2, 0.8, 244))
    ]
    lines = report(runs, spec, same_seed=True)
    assert lines[0].endswith("OVER")
    assert lines[2].endswith("OVER")  # setup_s is flagged like every other metric
    assert lines[4].endswith("NOT EXACT")
