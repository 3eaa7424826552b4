"""Unit tests for the NormalDelay random variable."""

import math

import pytest
from scipy.stats import norm

from repro.core import clark
from repro.core.rv import NormalDelay, ZERO_DELAY


class TestConstruction:
    def test_fields_and_derived(self):
        rv = NormalDelay(100.0, 5.0)
        assert rv.mean == 100.0  # repro-lint: allow=RL004 -- stored verbatim
        assert rv.sigma == 5.0  # repro-lint: allow=RL004 -- stored verbatim
        assert rv.variance == pytest.approx(25.0)
        assert rv.cv == pytest.approx(0.05)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            NormalDelay(1.0, -0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            NormalDelay(float("nan"), 1.0)
        with pytest.raises(ValueError):
            NormalDelay(1.0, float("inf"))

    def test_zero_delay_constant(self):
        assert ZERO_DELAY.mean == 0.0  # repro-lint: allow=RL004 -- exact constant
        assert ZERO_DELAY.sigma == 0.0  # repro-lint: allow=RL004 -- exact constant


class TestArithmetic:
    def test_sum_of_independent_normals(self):
        a = NormalDelay(10.0, 3.0)
        b = NormalDelay(20.0, 4.0)
        c = a + b
        assert c.mean == pytest.approx(30.0)
        assert c.sigma == pytest.approx(5.0)  # sqrt(9 + 16)

    def test_sum_with_scalar(self):
        rv = NormalDelay(10.0, 2.0) + 5.0
        assert rv.mean == pytest.approx(15.0)
        assert rv.sigma == pytest.approx(2.0)
        rv2 = 5.0 + NormalDelay(10.0, 2.0)
        assert rv2.mean == pytest.approx(15.0)

    def test_shift_and_scale(self):
        rv = NormalDelay(10.0, 2.0)
        assert rv.shift(-3.0).mean == pytest.approx(7.0)
        scaled = rv.scale(2.0)
        assert scaled.mean == pytest.approx(20.0)
        assert scaled.sigma == pytest.approx(4.0)
        with pytest.raises(ValueError):
            rv.scale(-1.0)

    def test_quantile_matches_scipy(self):
        rv = NormalDelay(100.0, 15.0)
        for q in (0.01, 0.1, 0.5, 0.9, 0.99, 0.999):
            assert rv.quantile(q) == pytest.approx(norm.ppf(q, 100.0, 15.0), abs=1e-3)

    def test_quantile_bounds(self):
        with pytest.raises(ValueError):
            NormalDelay(0.0, 1.0).quantile(0.0)
        with pytest.raises(ValueError):
            NormalDelay(0.0, 1.0).quantile(1.0)


class TestMaximum:
    def test_max_of_identical_normals(self):
        a = NormalDelay(100.0, 10.0)
        result = a.maximum(a)
        # E[max(X, Y)] for iid normals = mu + sigma/sqrt(pi)
        assert result.mean == pytest.approx(100.0 + 10.0 / math.sqrt(math.pi), rel=0.02)
        assert result.sigma < 10.0  # max of two iid normals has smaller variance

    def test_dominant_operand_returned_directly(self):
        slow = NormalDelay(500.0, 5.0)
        fast = NormalDelay(100.0, 5.0)
        result = slow.maximum(fast)
        assert result.mean == pytest.approx(500.0)
        assert result.sigma == pytest.approx(5.0)

    def test_exact_and_fast_agree_when_dominant(self):
        slow = NormalDelay(500.0, 5.0)
        fast = NormalDelay(100.0, 5.0)
        exact_mean, _ = clark.clark_max_exact(slow.mean, slow.sigma, fast.mean, fast.sigma)
        approx = slow.maximum(fast)
        assert exact_mean == pytest.approx(approx.mean, rel=1e-3)

    def test_maximum_of_list(self):
        rvs = [NormalDelay(m, 5.0) for m in (10.0, 50.0, 300.0)]
        result = NormalDelay.maximum_of(rvs)
        assert result.mean == pytest.approx(300.0, rel=0.01)

    def test_maximum_of_empty_raises(self):
        with pytest.raises(ValueError):
            NormalDelay.maximum_of([])

    def test_dominates(self):
        assert NormalDelay(500.0, 5.0).dominates(NormalDelay(100.0, 5.0))
        assert not NormalDelay(100.0, 5.0).dominates(NormalDelay(500.0, 5.0))
        assert not NormalDelay(105.0, 5.0).dominates(NormalDelay(100.0, 5.0))
