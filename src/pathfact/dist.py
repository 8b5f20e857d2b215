"""Distributions and special functions shared by the model and inference layers.

Everything here is a pure function of its arguments. Densities are handled in
log space throughout; the only unlogged probabilities are returned marginals.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

LOG_2PI = np.log(2.0 * np.pi)
_SQRT_2 = np.sqrt(2.0)
_SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)

# Gauss-Hermite rule used for Gaussian expectations of log(Phi); fixed order
# keeps objective and gradient evaluations mutually consistent.
_GH_ORDER = 40
_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite.hermgauss(_GH_ORDER)
_GH_WEIGHTS = _GH_WEIGHTS / np.sqrt(np.pi)


def _store_broadcast(params, *names):
    """Store the named fields of ``params`` as float arrays broadcast together."""
    arrays = np.broadcast_arrays(*(np.asarray(getattr(params, n), dtype=float) for n in names))
    for name, array in zip(names, arrays):
        object.__setattr__(params, name, array.copy())


@dataclass(frozen=True)
class GammaParams:
    """Shape/rate parameters of a Gamma distribution (arrays broadcast together)."""

    shape: np.ndarray
    rate: np.ndarray

    def __post_init__(self):
        _store_broadcast(self, "shape", "rate")
        if not np.all(self.shape > 0):
            raise ValueError("Gamma shape must be positive")
        if not np.all(self.rate > 0):
            raise ValueError("Gamma rate must be positive")

    @property
    def mean(self):
        """E[x] = shape / rate."""
        return self.shape / self.rate


@dataclass(frozen=True)
class TruncatedNormalParams:
    """Location/scale parameters of a normal truncated to [0, inf).

    ``scale_sq`` is the variance of the untruncated Gaussian, not its
    standard deviation.
    """

    location: np.ndarray
    scale_sq: np.ndarray

    def __post_init__(self):
        _store_broadcast(self, "location", "scale_sq")
        if not np.all(np.isfinite(self.location)):
            raise ValueError("truncated-normal location must be finite")
        if not np.all(self.scale_sq > 0):
            raise ValueError("truncated-normal scale_sq must be positive")


@dataclass(frozen=True)
class NormalParams:
    """Mean/variance parameters of a Gaussian (``variance``, not std dev)."""

    mean: np.ndarray
    variance: np.ndarray

    def __post_init__(self):
        _store_broadcast(self, "mean", "variance")
        if not np.all(np.isfinite(self.mean)):
            raise ValueError("normal mean must be finite")
        if not np.all(self.variance > 0):
            raise ValueError("normal variance must be positive")


def std_normal_quantile(p):
    """Inverse standard normal CDF for p strictly inside (0, 1)."""
    p = np.asarray(p, dtype=float)
    if not np.all((p > 0.0) & (p < 1.0)):
        raise ValueError("std_normal_quantile requires 0 < p < 1")
    return special.ndtri(p)


def pdf_over_cdf(h):
    """phi(h) / Phi(h) for every h, as sqrt(2/pi) / erfcx(-h/sqrt(2)).

    The scaled complementary error function keeps the ratio accurate where
    phi and Phi both underflow, far below zero. Above h = 37.6 erfcx
    overflows and the ratio reads 0; its true value there is below 1e-308.
    Dividing by -sqrt(2) gives the bits of negating first, in one pass.
    """
    return _SQRT_2_OVER_PI / special.erfcx(np.asarray(h, dtype=float) / -_SQRT_2)


def trunc_norm_mean(sd, h):
    """Mean ``sd * (h + phi(h) / Phi(h))`` of N(h * sd, sd^2) truncated to
    [0, inf), elementwise, followed by ``phi(h) / Phi(h)`` and
    ``h + phi(h) / Phi(h)``. Works on arrays and on single floats alike."""
    ratio = pdf_over_cdf(h)
    shifted = h + ratio  # mean / sd, computed before multiplying to keep precision
    return sd * shifted, ratio, shifted


def trunc_norm_moments(location, scale_sq):
    """Mean, variance and entropy of N(location, scale_sq) truncated to [0, inf).

    Stable down to location / sqrt(scale_sq) around -38, where nearly all
    prior mass sits below the truncation point.
    """
    location = np.asarray(location, dtype=float)
    scale_sq = np.asarray(scale_sq, dtype=float)
    if not np.all(scale_sq > 0):
        raise ValueError("scale_sq must be positive")
    location, scale_sq = np.broadcast_arrays(location, scale_sq)
    sd = np.sqrt(scale_sq)
    h = location / sd
    mean, ratio, shifted = trunc_norm_mean(sd, h)
    var = scale_sq * np.maximum(1.0 - ratio * shifted, np.finfo(float).tiny)
    log_mass = special.log_ndtr(h)
    entropy = 0.5 * (LOG_2PI + 1.0) + 0.5 * np.log(scale_sq) + log_mass - 0.5 * h * ratio
    return mean, var, entropy


def gamma_expectations(params: GammaParams):
    """E[x], E[log x] and entropy of Gam(shape, rate)."""
    a, b = params.shape, params.rate
    mean = params.mean
    mean_log = special.digamma(a) - np.log(b)
    entropy = a - np.log(b) + special.gammaln(a) + (1.0 - a) * special.digamma(a)
    return mean, mean_log, entropy


def normal_entropy(variance):
    return 0.5 * (LOG_2PI + 1.0) + 0.5 * np.log(np.asarray(variance, dtype=float))


def gh_grid(mean, variance):
    """The Gauss-Hermite grid of N(mean, variance) that :func:`expected_log_ndtr`
    and its gradient read: the points ``mean + sqrt(2 variance) * nodes``,
    one row per entry of the arrays ``mean`` and ``variance``, and
    ``sqrt(2 variance)``."""
    root = np.sqrt(2.0 * variance)
    return mean[..., None] + root[..., None] * _GH_NODES, root


def expected_log_ndtr(grid):
    """Gauss-Hermite estimate of E[log Phi(x)] for x ~ N(mean, variance),
    from the :func:`gh_grid` of that Gaussian."""
    return special.log_ndtr(grid[0]) @ _GH_WEIGHTS


def expected_log_ndtr_grad(grid):
    """Gradient of :func:`expected_log_ndtr` w.r.t. mean and variance, from
    the same grid.

    Differentiates the quadrature itself, so finite differences of the
    quadrature value match these gradients to rounding error.
    """
    z, root = grid
    ratio = pdf_over_cdf(z)
    return ratio @ _GH_WEIGHTS, (ratio * _GH_NODES) @ _GH_WEIGHTS / root
