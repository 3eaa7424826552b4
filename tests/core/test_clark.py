"""Unit tests for Clark's max moments and the paper's approximations."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from repro.core import clark


class TestNormalHelpers:
    def test_phi_is_standard_normal_pdf(self):
        for x in (-2.0, -0.5, 0.0, 1.0, 3.0):
            assert clark.phi(x) == pytest.approx(norm.pdf(x), rel=1e-12)

    def test_capital_phi_is_cdf(self):
        for x in (-3.0, -1.0, 0.0, 0.7, 2.5):
            assert clark.capital_phi(x) == pytest.approx(norm.cdf(x), rel=1e-9)

    def test_quadratic_cdf_two_decimal_accuracy(self):
        # The paper claims the quadratic approximation is accurate to two
        # decimal places; verify over the whole real line.
        for x in np.linspace(-5.0, 5.0, 201):
            assert abs(clark.capital_phi_quadratic(x) - norm.cdf(x)) < 0.012

    def test_quadratic_cdf_is_odd_about_half(self):
        for x in (0.1, 0.5, 1.3, 2.4, 3.0):
            assert clark.capital_phi_quadratic(-x) == pytest.approx(
                1.0 - clark.capital_phi_quadratic(x)
            )

    def test_quadratic_cdf_saturation(self):
        assert clark.capital_phi_quadratic(2.7) == 1.0
        assert clark.capital_phi_quadratic(-2.7) == 0.0
        assert clark.capital_phi_quadratic(2.4) == pytest.approx(0.99)

    def test_erf_quadratic_matches_math_erf(self):
        for x in np.linspace(-2.5, 2.5, 101):
            assert abs(clark.erf_quadratic(x) - math.erf(x)) < 0.025

    def test_erf_quadratic_odd(self):
        for x in (0.2, 0.9, 1.7):
            assert clark.erf_quadratic(-x) == pytest.approx(-clark.erf_quadratic(x))


class TestDominance:
    def test_a_dominates(self):
        assert clark.dominance(100.0, 3.0, 10.0, 4.0) == 1

    def test_b_dominates(self):
        assert clark.dominance(10.0, 3.0, 100.0, 4.0) == -1

    def test_no_dominance_when_close(self):
        assert clark.dominance(100.0, 10.0, 95.0, 10.0) == 0

    def test_threshold_is_2_6_normalized_sigmas(self):
        # a = sqrt(3^2 + 4^2) = 5; separation of exactly 13 = 2.6 * 5.
        assert clark.dominance(113.0, 3.0, 100.0, 4.0) == 1
        assert clark.dominance(112.9, 3.0, 100.0, 4.0) == 0

    def test_deterministic_degenerate_case(self):
        assert clark.dominance(5.0, 0.0, 3.0, 0.0) == 1
        assert clark.dominance(3.0, 0.0, 5.0, 0.0) == -1
        assert clark.dominance(5.0, 0.0, 5.0, 0.0) == 1


class TestClarkExact:
    def test_against_monte_carlo(self):
        rng = np.random.default_rng(42)
        cases = [
            (100.0, 10.0, 100.0, 10.0),
            (100.0, 10.0, 110.0, 5.0),
            (50.0, 20.0, 80.0, 3.0),
            (200.0, 1.0, 100.0, 40.0),
        ]
        for mu_a, s_a, mu_b, s_b in cases:
            a = rng.normal(mu_a, s_a, 200_000)
            b = rng.normal(mu_b, s_b, 200_000)
            samples = np.maximum(a, b)
            mean, var = clark.clark_max_exact(mu_a, s_a, mu_b, s_b)
            assert mean == pytest.approx(samples.mean(), rel=0.01)
            assert var == pytest.approx(samples.var(), rel=0.05)

    def test_iid_closed_form(self):
        # max of two iid N(0, 1): mean = 1/sqrt(pi), var = 1 - 1/pi.
        mean, var = clark.clark_max_exact(0.0, 1.0, 0.0, 1.0)
        assert mean == pytest.approx(1.0 / math.sqrt(math.pi))
        assert var == pytest.approx(1.0 - 1.0 / math.pi)

    def test_deterministic_inputs(self):
        mean, var = clark.clark_max_exact(7.0, 0.0, 3.0, 0.0)
        assert mean == 7.0
        assert var == 0.0

    def test_scipy_reference_agrees(self):
        for case in [(10.0, 2.0, 11.0, 3.0), (0.0, 1.0, 0.5, 0.2)]:
            exact = clark.clark_max_exact(*case)
            reference = clark.clark_max_scipy(*case)
            assert exact[0] == pytest.approx(reference[0], rel=1e-9)
            assert exact[1] == pytest.approx(reference[1], rel=1e-9)


class TestClarkFast:
    def test_matches_exact_in_overlap_region(self):
        cases = [
            (100.0, 10.0, 100.0, 10.0),
            (100.0, 10.0, 105.0, 12.0),
            (300.0, 30.0, 320.0, 25.0),
        ]
        for case in cases:
            exact_mean, exact_var = clark.clark_max_exact(*case)
            fast_mean, fast_var = clark.clark_max_fast(*case)
            assert fast_mean == pytest.approx(exact_mean, rel=0.02)
            assert fast_var == pytest.approx(exact_var, rel=0.15)

    def test_dominance_shortcut_returns_operand_moments(self):
        mean, var = clark.clark_max_fast(500.0, 5.0, 100.0, 7.0)
        assert mean == 500.0
        assert var == 25.0
        mean, var = clark.clark_max_fast(100.0, 7.0, 500.0, 5.0)
        assert mean == 500.0
        assert var == 25.0

    def test_mean_of_max_at_least_max_of_means(self):
        for case in [(100.0, 10.0, 100.0, 10.0), (90.0, 20.0, 100.0, 5.0)]:
            mean, _ = clark.clark_max_fast(*case)
            assert mean >= max(case[0], case[2]) - 1e-9

    def test_variance_never_negative(self):
        for case in [(0.0, 0.0, 0.0, 0.0), (10.0, 1e-9, 10.0, 1e-9), (5.0, 3.0, 5.0, 3.0)]:
            _, var = clark.clark_max_fast(*case)
            assert var >= 0.0


class TestSensitivities:
    def test_dominant_input_has_higher_sensitivity(self):
        # B has a slightly lower mean but a much larger sigma: perturbing B's
        # mean changes Var[max] more than perturbing A's (the Fig. 3 situation).
        sens_a, sens_b = clark.variance_sensitivities(
            320.0, 27.0, 310.0, 45.0, coupling=0.3
        )
        assert sens_b > sens_a

    def test_symmetric_case_is_symmetric(self):
        sens_a, sens_b = clark.variance_sensitivities(
            100.0, 10.0, 100.0, 10.0, coupling=0.2
        )
        assert sens_a == pytest.approx(sens_b, rel=0.05)

    def test_invalid_step_rejected(self):
        with pytest.raises(ValueError):
            clark.variance_sensitivities(1.0, 1.0, 1.0, 1.0, 0.1, rel_step=0.0)

    def test_coupling_increases_sensitivity(self):
        low = clark.variance_sensitivities(100.0, 10.0, 98.0, 12.0, coupling=0.0)
        high = clark.variance_sensitivities(100.0, 10.0, 98.0, 12.0, coupling=0.5)
        # With coupling, increasing a mean also increases its sigma, which
        # contributes additional variance to the max.
        assert high[0] > low[0]
        assert high[1] > low[1]


class TestClarkMaxFastArrays:
    def test_elementwise_matches_scalar(self):
        import numpy as np

        rng = np.random.default_rng(11)
        count = 10_000
        mu_a = rng.uniform(-50.0, 500.0, count)
        # Half the pairs close enough to overlap, so the Clark branch runs.
        mu_b = np.where(
            np.arange(count) % 2 == 0,
            rng.uniform(-50.0, 500.0, count),
            mu_a + rng.normal(0.0, 30.0, count),
        )
        sigma_a = rng.uniform(0.0, 40.0, count)
        sigma_b = rng.uniform(0.0, 40.0, count)
        # Edge rows: alpha exactly +2.6 and -2.6 (a = 5), a zero sigma on
        # either side, and equal deterministic means.
        edges = np.array(
            [
                [13.0, 3.0, 0.0, 4.0],
                [0.0, 3.0, 13.0, 4.0],
                [100.0, 0.0, 90.0, 7.0],
                [90.0, 7.0, 100.0, 0.0],
                [100.0, 0.0, 100.0, 0.0],
            ]
        )
        mu_a, sigma_a, mu_b, sigma_b = (
            np.concatenate([column, edge])
            for column, edge in zip((mu_a, sigma_a, mu_b, sigma_b), edges.T, strict=True)
        )
        mean, var = clark.clark_max_fast_arrays(mu_a, sigma_a, mu_b, sigma_b)
        reference = [
            clark.clark_max_fast(*args)
            for args in zip(mu_a, sigma_a, mu_b, sigma_b, strict=True)
        ]
        # Bitwise: the array kernel replays the scalar arithmetic exactly.
        assert np.array_equal(mean, [m for m, _ in reference])
        assert np.array_equal(var, [v for _, v in reference])

    def test_deterministic_pairs_collapse_to_plain_max(self):
        import numpy as np

        mean, var = clark.clark_max_fast_arrays(
            np.array([3.0, 7.0]), np.zeros(2), np.array([5.0, 2.0]), np.zeros(2)
        )
        assert mean.tolist() == [5.0, 7.0]
        assert var.tolist() == [0.0, 0.0]

    def test_dominant_operand_passes_through(self):
        import numpy as np

        # Separation far beyond 2.6 normalized sigmas: Eq. 5 applies.
        mean, var = clark.clark_max_fast_arrays(
            np.array([1000.0]), np.array([5.0]), np.array([10.0]), np.array([5.0])
        )
        assert mean[0] == 1000.0
        assert var[0] == 25.0
