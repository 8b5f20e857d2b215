import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from pathfact.dist import (
    GammaParams,
    NormalParams,
    TruncatedNormalParams,
    expected_log_ndtr,
    expected_log_ndtr_grad,
    gamma_expectations,
    gh_grid,
    normal_entropy,
    pdf_over_cdf,
    std_normal_quantile,
    trunc_norm_moments,
)


def quadrature_cdf(x):
    # independent oracle: integrate the Gaussian density from 0 to x
    density = lambda t: np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
    val, _ = integrate.quad(density, 0.0, x)
    return 0.5 + val


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_against_inverted_quadrature(self):
        from scipy.optimize import brentq

        target = brentq(lambda x: quadrature_cdf(x) - 0.975, 0.0, 10.0, xtol=1e-12)
        assert std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert std_normal_quantile(0.975) == pytest.approx(target, abs=1e-9)

    def test_tiny_probability_round_trip(self):
        q = std_normal_quantile(1e-12)
        assert q < 0
        assert special.ndtr(q) == pytest.approx(1e-12, rel=1e-14)

    def test_round_trip_grid(self):
        p = np.concatenate([[1e-10], np.linspace(1e-6, 1 - 1e-6, 41), [1 - 1e-10]])
        np.testing.assert_allclose(special.ndtr(std_normal_quantile(p)), p, rtol=1e-9)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                std_normal_quantile(bad)


class TestPdfOverCdf:
    def test_matches_log_space_ratio(self):
        h = np.linspace(-30.0, 30.0, 6001)
        expected = np.exp(-0.5 * h * h - 0.5 * np.log(2.0 * np.pi) - special.log_ndtr(h))
        np.testing.assert_allclose(pdf_over_cdf(h), expected, rtol=1e-12, atol=0)

    def test_zero(self):
        assert pdf_over_cdf(0.0) == np.sqrt(2.0 / np.pi)

    def test_far_below_zero_approaches_minus_h(self):
        np.testing.assert_allclose(pdf_over_cdf(-1e8), 1e8, rtol=1e-12)

    def test_far_above_zero_is_zero_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = pdf_over_cdf([38.0, 50.0, 1e3, 1e300, np.inf])
        np.testing.assert_array_equal(out, 0.0)


class TestTruncNormMoments:
    def test_standard_case_closed_form(self):
        mean, var, _ = trunc_norm_moments(0.0, 1.0)
        assert mean == pytest.approx(np.sqrt(2.0 / np.pi), abs=1e-9)
        assert var == pytest.approx(1.0 - 2.0 / np.pi, abs=1e-9)

    def test_standard_case_monte_carlo(self):
        rng = np.random.default_rng(7)
        draws = np.abs(rng.standard_normal(10_000_000))
        mean, var, _ = trunc_norm_moments(0.0, 1.0)
        se = draws.std() / np.sqrt(draws.size)
        assert abs(mean - draws.mean()) < 3 * se

    def test_negligible_truncation(self):
        mean, var, _ = trunc_norm_moments(10.0, 1.0)
        assert mean == pytest.approx(10.0, abs=1e-8)
        assert var == pytest.approx(1.0, abs=1e-8)

    def test_deep_truncation_matches_asymptotics(self):
        mean, var, _ = trunc_norm_moments(-30.0, 1.0)
        t = 30.0
        series = 1.0 / t - 2.0 / t**3 + 10.0 / t**5  # tail expansion of the mean
        assert 0.0 < mean < 0.04
        assert mean == pytest.approx(series, rel=1e-6)
        assert np.isfinite(var) and var > 0

    def test_monotone_and_finite_to_minus_38(self):
        locations = np.linspace(-38.0, 5.0, 300)
        mean, var, entropy = trunc_norm_moments(locations, 1.0)
        assert np.all(np.isfinite(mean))
        assert np.all(np.isfinite(var))
        assert np.all(np.isfinite(entropy))
        assert np.all(mean > 0)
        assert np.all(np.diff(mean) > 0)  # decreasing toward 0 as location -> -inf
        assert np.all(var <= 1.0 + 1e-12)

    def test_variance_in_bounds_random(self):
        rng = np.random.default_rng(11)
        loc = rng.uniform(-20, 20, size=200)
        scale = rng.uniform(0.01, 9.0, size=200)
        _, var, _ = trunc_norm_moments(loc, scale)
        assert np.all(var > 0)
        assert np.all(var <= scale * (1 + 1e-12))

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            trunc_norm_moments(0.0, 0.0)
        with pytest.raises(ValueError):
            TruncatedNormalParams(location=0.0, scale_sq=-1.0)


class TestGammaExpectations:
    def test_exponential_case(self):
        mean, _, _ = gamma_expectations(GammaParams(1.0, 1.0))
        assert mean == 1.0

    def test_mean_is_shape_over_rate(self):
        mean, _, _ = gamma_expectations(GammaParams(2.0, 4.0))
        assert mean == 0.5

    def test_mean_log_against_quadrature_and_monte_carlo(self):
        params = GammaParams(3.5, 2.0)
        _, mean_log, _ = gamma_expectations(params)
        pdf = stats.gamma(a=3.5, scale=0.5).pdf
        oracle, _ = integrate.quad(lambda x: np.log(x) * pdf(x), 0, np.inf)
        assert mean_log == pytest.approx(oracle, abs=1e-6)
        rng = np.random.default_rng(3)
        draws = np.log(rng.gamma(3.5, 0.5, size=10_000_000))
        se = draws.std() / np.sqrt(draws.size)
        assert abs(mean_log - draws.mean()) < 3 * se


class TestEntropies:
    def test_gamma_entropy_monte_carlo(self):
        params = GammaParams(2.5, 3.0)
        _, _, entropy = gamma_expectations(params)
        rng = np.random.default_rng(5)
        draws = rng.gamma(2.5, 1 / 3.0, size=1_000_000)
        logq = stats.gamma(a=2.5, scale=1 / 3.0).logpdf(draws)
        se = logq.std() / np.sqrt(logq.size)
        assert abs(entropy - (-logq.mean())) < 3 * se

    def test_trunc_norm_entropy_monte_carlo(self):
        loc, scale_sq = 0.7, 2.0
        sd = np.sqrt(scale_sq)
        _, _, entropy = trunc_norm_moments(loc, scale_sq)
        dist = stats.truncnorm(
            a=(0.0 - loc) / sd, b=np.inf, loc=loc, scale=sd
        )
        oracle, _ = integrate.quad(lambda s: -dist.pdf(s) * dist.logpdf(s), 0, np.inf)
        assert entropy == pytest.approx(oracle, abs=1e-9)
        rng = np.random.default_rng(9)
        draws = dist.rvs(size=1_000_000, random_state=rng)
        logq = dist.logpdf(draws)
        se = logq.std() / np.sqrt(logq.size)
        assert abs(entropy - (-logq.mean())) < 3 * se

    def test_normal_entropy_monte_carlo(self):
        variance = 0.3
        entropy = normal_entropy(variance)
        rng = np.random.default_rng(13)
        draws = rng.normal(0.0, np.sqrt(variance), size=1_000_000)
        logq = stats.norm(0.0, np.sqrt(variance)).logpdf(draws)
        se = logq.std() / np.sqrt(logq.size)
        assert abs(entropy - (-logq.mean())) < 3 * se


class TestExpectedLogNdtr:
    def test_against_quadrature(self):
        from scipy.special import log_ndtr

        for mu, var in [(0.0, 1.0), (-2.0, 0.5), (1.5, 3.0), (-6.0, 0.2)]:
            oracle, _ = integrate.quad(
                lambda z: log_ndtr(mu + np.sqrt(var) * z) * stats.norm.pdf(z), -12, 12
            )
            assert expected_log_ndtr(gh_grid(np.array([mu]), np.array([var])))[0] == pytest.approx(
                oracle, rel=1e-8, abs=1e-10
            )

    def test_gradient_matches_finite_differences(self):
        mu = np.array([0.3, -1.2, 2.0])
        var = np.array([0.7, 1.5, 0.2])
        d_mu, d_var = expected_log_ndtr_grad(gh_grid(mu, var))
        eps = 1e-6

        def eln(m, v):
            return expected_log_ndtr(gh_grid(m, v))

        fd_mu = (eln(mu + eps, var) - eln(mu - eps, var)) / (2 * eps)
        fd_var = (eln(mu, var + eps) - eln(mu, var - eps)) / (2 * eps)
        np.testing.assert_allclose(d_mu, fd_mu, rtol=1e-6)
        np.testing.assert_allclose(d_var, fd_var, rtol=1e-6)


class TestParamValidation:
    def test_gamma_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GammaParams(0.0, 1.0)
        with pytest.raises(ValueError):
            GammaParams(1.0, -2.0)

    def test_normal_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError):
            NormalParams(0.0, 0.0)
