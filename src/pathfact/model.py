"""Model types and pure evaluation of the variational objective.

The generative model approximates an N x D observation matrix X by
U S (Z o V)^T, with U mixed from known one-hot cluster labels and learned
logits, S nonnegative cluster/set associations, V real-valued basis rows,
and Z binary set memberships coupled across features by a graph prior.
All functions here are side-effect free; inference drives them.
"""

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from types import SimpleNamespace

import numpy as np
from scipy import special

from .dist import (
    LOG_2PI,
    GammaParams,
    NormalParams,
    TruncatedNormalParams,
    expected_log_ndtr,
    gamma_expectations,
    gh_grid,
    normal_entropy,
    trunc_norm_moments,
)
from .graph import InteractionGraph, normalized_laplacian


class NumericalError(RuntimeError):
    """Raised when an objective evaluation produces a non-finite block."""


def all_finite(a):
    """Whether every entry of ``a`` is finite, without an array of flags: the
    minimum and the maximum carry any NaN or infinity."""
    return a.size == 0 or bool(np.isfinite([a.min(), a.max()]).all())


@dataclass(frozen=True)
class ObservationSet:
    """Aligned observations plus structured prior knowledge.

    The feature order is the single source of truth: columns of X, rows of
    Z0 and the graph's node order all follow ``feature_ids``.
    """

    X: np.ndarray
    U0: np.ndarray
    Z0: np.ndarray
    graph: InteractionGraph
    sample_ids: tuple
    feature_ids: tuple
    cluster_ids: tuple
    set_ids: tuple

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        U0 = np.asarray(self.U0, dtype=float)
        Z0 = np.asarray(self.Z0)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "U0", U0)
        object.__setattr__(self, "sample_ids", tuple(self.sample_ids))
        object.__setattr__(self, "feature_ids", tuple(self.feature_ids))
        object.__setattr__(self, "cluster_ids", tuple(self.cluster_ids))
        object.__setattr__(self, "set_ids", tuple(self.set_ids))
        if not all_finite(X):
            raise ValueError("X contains non-finite values")
        n, d = X.shape
        if U0.shape != (n, len(self.cluster_ids)):
            raise ValueError("U0 shape does not match samples x clusters")
        if not (np.all((U0 == 0) | (U0 == 1)) and np.all(U0.sum(axis=1) == 1)):
            raise ValueError("U0 rows must be one-hot")
        if Z0.shape != (d, len(self.set_ids)):
            raise ValueError("Z0 shape does not match features x sets")
        if not np.all((Z0 == 0) | (Z0 == 1)):
            raise ValueError("Z0 must be binary")
        object.__setattr__(self, "Z0", Z0.astype(np.int8, copy=False))
        if len(self.sample_ids) != n or len(self.feature_ids) != d:
            raise ValueError("label list lengths do not match matrix dimensions")
        if len(set(self.sample_ids)) != n or len(set(self.feature_ids)) != d:
            raise ValueError("duplicate sample or feature identifiers")
        if tuple(self.graph.node_labels) != self.feature_ids:
            raise ValueError("graph node order must equal the feature order")

    @property
    def n_samples(self):
        return self.X.shape[0]

    @property
    def n_features(self):
        return self.X.shape[1]

    @property
    def n_clusters(self):
        return self.U0.shape[1]

    @property
    def n_sets(self):
        return self.Z0.shape[1]

    @cached_property
    def mask_indices(self):
        """Known-membership indices (rows, cols), sorted by (row, col),
        computed once per dataset and read-only."""
        rows, cols = np.nonzero(self.Z0)
        rows.flags.writeable = cols.flags.writeable = False
        return rows, cols

    @cached_property
    def x_sq(self):
        """Squared Frobenius norm of X, computed once per dataset and read
        in place, in any memory order."""
        return float(np.einsum("ij,ij->", self.X, self.X))


@dataclass(frozen=True)
class Hyperparameters:
    """Prior constants plus fit schedule.

    ``lambda_s0`` broadcasts to K x R, ``mu_v0``/``sigma_v0`` to D x R.
    ``beta_a`` defaults to R / 10 when left unset.
    """

    alpha_a0: float = 1.0
    alpha_b0: float = 1.0
    lambda_s0: object = 1.0
    mu_v0: object = 0.0
    sigma_v0: object = 1.0
    beta_a: float = None
    zeta: float = 0.9
    xi: float = 100.0
    epsilon: float = 0.05
    max_sweeps: int = 1000
    elbo_rel_tol: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # an int is finite, and may be too large for a float
            if value is None or f.type is int:
                continue
            if not np.all(np.isfinite(np.asarray(value, dtype=float))):
                raise ValueError(f"{f.name} must be finite")
        if self.alpha_a0 <= 0 or self.alpha_b0 <= 0:
            raise ValueError("noise prior shape/rate must be positive")
        if not np.all(np.asarray(self.lambda_s0, dtype=float) > 0):
            raise ValueError("lambda_s0 must be positive")
        if not np.all(np.asarray(self.sigma_v0, dtype=float) > 0):
            raise ValueError("sigma_v0 must be positive")
        if self.beta_a is not None and self.beta_a <= 0:
            raise ValueError("beta_a must be positive")
        if not 0.0 <= self.zeta <= 1.0:
            raise ValueError("zeta must lie in [0, 1]")
        if self.xi < 0:
            raise ValueError("xi must be nonnegative")
        if self.epsilon < 0:
            raise ValueError("epsilon must be nonnegative")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be >= 1")
        if self.elbo_rel_tol <= 0:
            raise ValueError("elbo_rel_tol must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")

    def resolve(self, data: ObservationSet) -> "ResolvedHyperparameters":
        """Prior arrays broadcast to the data's shapes, ``beta_a`` filled in
        and every scalar cast to its declared type."""
        if self.epsilon == 0 and data.graph.n_edges:
            raise ValueError("epsilon must be positive for a graph with edges")
        k, r, d = data.n_clusters, data.n_sets, data.n_features
        shapes = {"lambda_s0": (k, r), "mu_v0": (d, r), "sigma_v0": (d, r)}
        values = {}
        for f in fields(self):
            value = self.beta_a_for(r) if f.name == "beta_a" else getattr(self, f.name)
            if f.name in shapes:
                value = np.broadcast_to(np.asarray(value, dtype=float), shapes[f.name])
            elif value is not None:
                value = f.type(value)
            values[f.name] = value
        return ResolvedHyperparameters(**values)

    def beta_a_for(self, n_sets):
        """``beta_a``, or its default ``n_sets / 10`` when unset."""
        return n_sets / 10.0 if self.beta_a is None else self.beta_a


@dataclass(frozen=True)
class ResolvedHyperparameters(Hyperparameters):
    """Hyperparameters already resolved against one dataset."""

    def resolve(self, data: ObservationSet) -> "ResolvedHyperparameters":
        return self


@dataclass(frozen=True)
class VariationalState:
    """All variational parameters plus the cluster logits point estimate."""

    noise: GammaParams
    assoc: TruncatedNormalParams
    basis: NormalParams
    coupling: NormalParams
    sparsity: NormalParams
    cluster_logits: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "cluster_logits", np.asarray(self.cluster_logits, dtype=float)
        )
        k, r = self.assoc.location.shape
        d = self.basis.mean.shape[0]
        if self.basis.mean.shape != (d, r):
            raise ValueError("basis must be D x R")
        if self.coupling.mean.shape != (d, r):
            raise ValueError("coupling must be D x R")
        if self.sparsity.mean.shape != (r,):
            raise ValueError("sparsity must be length R")
        if self.cluster_logits.ndim != 2 or self.cluster_logits.shape[1] != k:
            raise ValueError("cluster_logits must be N x K")

    def updated(self, **changes) -> "VariationalState":
        return replace(self, **changes)


@dataclass(frozen=True)
class SweepRecord:
    sweep: int
    elbo: float
    penalty: float
    objective: float
    block_deltas: dict = field(default_factory=dict)


class ElboTrace:
    """Per-sweep history of the regularized objective and its pieces."""

    def __init__(self):
        self.records = []

    def append(self, record: SweepRecord):
        self.records.append(record)

    def objectives(self):
        return np.array([rec.objective for rec in self.records])

    def is_monotone(self, rtol: float = 1e-8):
        """True when no sweep decreases the objective by more than ``rtol``
        relative to its magnitude; also returns the worst signed violation."""
        obj = self.objectives()
        if obj.size < 2:
            return True, 0.0
        diffs = np.diff(obj)
        allowed = -rtol * np.maximum(np.abs(obj[:-1]), 1.0)
        return bool(np.all(diffs >= allowed)), min(0.0, float(diffs.min()))

    def __len__(self):
        return len(self.records)


@dataclass(frozen=True)
class AssociationResult:
    """Posterior summaries: association means, membership marginals, mixed
    cluster weights, and per-cluster set rankings."""

    assoc_mean: np.ndarray
    z_marginal: np.ndarray
    u_mixed: np.ndarray
    ranked: tuple
    cluster_ids: tuple
    set_ids: tuple


def softmax_rows(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    expd = np.exp(shifted)
    return expd / expd.sum(axis=1, keepdims=True)


def mix_cluster(theta_u, u0, zeta):
    """Row-stochastic cluster weights: zeta * u0 + (1 - zeta) * softmax(theta)."""
    theta_u = np.asarray(theta_u, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    if theta_u.shape != u0.shape:
        raise ValueError("theta_U and U0 shapes differ")
    if not 0.0 <= zeta <= 1.0:
        raise ValueError("zeta must lie in [0, 1]")
    if zeta == 1.0:
        return u0.copy()
    return zeta * u0 + (1.0 - zeta) * softmax_rows(theta_u)


def membership_logit(coupling: NormalParams, sparsity: NormalParams):
    """Standardized threshold margin whose Gaussian cdf is q(Z=1)."""
    return (sparsity.mean - coupling.mean) / np.sqrt(sparsity.variance + coupling.variance)


def z_marginal(coupling: NormalParams, sparsity: NormalParams):
    """Marginal membership probability q(Z=1), elementwise."""
    return special.ndtr(membership_logit(coupling, sparsity))


def factor_moments(state: VariationalState, data: ObservationSet, hyper, side=None, prev=None):
    """Moments shared by the objective and the coordinate updates.

    With A = U S and W = Z o V, ``aa`` is E[A^T A] and ``ww`` is E[W^T W]
    under the factorized posterior: products of first moments across
    distinct sets, second moments (``a2_sum``, ``w2_sum``) on the diagonal.
    ``xw`` is X E[W] and ``xta`` is X^T E[A]. ``t`` is the membership margin
    with ``rho`` = Phi(t).

    The moments fall in two sides. The A side (``s_*``, ``u``, ``a``,
    ``a2_sum``, ``aa``, ``xta``) reads q(S) and the cluster logits; the W side
    (``t``, ``rho``, ``v_*``, ``w``, ``w2_sum``, ``ww``, ``xw``) reads q(V),
    q(g) and q(pi). No moment depends on q(alpha). With ``side`` ("a" or
    "w"), only that side is computed and the other is taken from ``prev``,
    the moments of a state that differs from ``state`` on that side only.
    ``c`` = X E[W] E[S]^T, ``m`` = E[S] E[W^T W] E[S]^T and ``var_load``
    read both sides and are recomputed after either (see :func:`sq_residual_at`).
    """
    hyper = hyper.resolve(data)
    mom = SimpleNamespace(**vars(prev)) if side else SimpleNamespace()
    if side in (None, "a"):
        mom.s_mean, mom.s_var, mom.s_entropy = trunc_norm_moments(
            state.assoc.location, state.assoc.scale_sq
        )
        mom.u = u = mix_cluster(state.cluster_logits, data.U0, hyper.zeta)
        mom.a = a = u @ mom.s_mean
        mom.a2_sum = np.einsum("ir,ir->r", a, a) + (u * u).sum(axis=0) @ mom.s_var
        mom.aa = a.T @ a
        np.fill_diagonal(mom.aa, mom.a2_sum)
        mom.xta = data.X.T @ a
    if side in (None, "w"):
        mom.t = membership_logit(state.coupling, state.sparsity)
        mom.rho = rho = special.ndtr(mom.t)
        mom.v_mean = v_mean = state.basis.mean
        # an overflowing basis is reported by the objective's finiteness check
        with np.errstate(over="ignore", invalid="ignore"):
            mom.v_second = state.basis.variance + v_mean**2
            mom.w = w = rho * v_mean
            mom.w2_sum = (rho * mom.v_second).sum(axis=0)
            mom.ww = w.T @ w
            mom.xw = data.X @ w
        np.fill_diagonal(mom.ww, mom.w2_sum)
    mom.c = mom.xw @ mom.s_mean.T
    mom.m = mom.s_mean @ mom.ww @ mom.s_mean.T
    mom.var_load = mom.s_var @ mom.w2_sum
    return mom


def expected_reconstruction(state, data, hyper, mom=None):
    """Posterior mean of U S (Z o V)^T."""
    mom = mom or factor_moments(state, data, hyper)
    return mom.a @ mom.w.T


def sq_residual_at(u, x_sq, mom):
    """E[||X - u S (Z o V)^T||^2] at cluster weights ``u`` in cluster space, O(NK^2):
    ||X||^2 - 2 <u, C> + <u, u M> + (u o u)^T 1 . var_load. Also returns u M."""
    um = u @ mom.m
    total = x_sq - float((u * (2.0 * mom.c - um)).sum())
    return total + float((u * u).sum(axis=0) @ mom.var_load), um


def expected_sq_residual(state, data, hyper, mom=None):
    """E[ sum_ij (X_ij - reconstruction_ij)^2 ] under the factorized posterior:
    :func:`sq_residual_at` at the state's cluster weights."""
    mom = mom or factor_moments(state, data, hyper)
    return sq_residual_at(mom.u, data.x_sq, mom)[0]


def membership_terms(g, pi, t_mask, hyper, lap):
    """The objective terms that depend on q(g) and q(pi), each without its
    constant, in the order the membership line search adds them: the
    penalty ``xi * sum log q(Z=1)`` over the known entries, the GMRF prior's
    ``-mu^T P mu / 2`` and ``-diag(P) . var / 2``, the coupling entropy, the
    sparsity prior and the sparsity entropy. Also returns the
    :func:`gh_grid` of q(pi), which the sparsity prior's gradient reads.

    ``g`` and ``pi`` are (mean, variance, log variance) triples of arrays
    and ``t_mask`` is the membership margin at the known entries. The
    prior-mean term is the one term that needs the D x R product P mu, so it
    holds None here and :func:`fill_prior_mean` fills it in; the line search
    sums the others first (see ``_CouplingProblem.value``). An entropy whose
    variance underflowed to zero is -inf, as its log gives.
    """
    _, var_g, log_var_g = g
    mu_pi, var_pi, log_var_pi = pi
    terms = {"penalty": 0.0, "coupling_prior_mean": None}
    if t_mask.size > 0 and hyper.xi > 0:
        terms["penalty"] = hyper.xi * float(special.log_ndtr(t_mask).sum())
    terms["coupling_prior_var"] = -0.5 * float((lap.precision_diag @ var_g).sum())
    terms["coupling_entropy"] = 0.5 * float(log_var_g.sum()) if var_g.all() else -np.inf
    a = hyper.beta_a / mu_pi.size
    grid = gh_grid(mu_pi, var_pi)
    eln = expected_log_ndtr(grid)
    terms["sparsity_prior"] = float(((a - 1.0) * eln - 0.5 * (mu_pi**2 + var_pi)).sum())
    terms["sparsity_entropy"] = 0.5 * float(log_var_pi.sum()) if var_pi.all() else -np.inf
    return terms, grid


def fill_prior_mean(terms, mu_g, lap):
    """Fill in the GMRF prior-mean term of :func:`membership_terms`, in
    place, and return ``P mu``."""
    prec_mu = lap.precision @ mu_g
    terms["coupling_prior_mean"] = -0.5 * float(np.vdot(mu_g, prec_mu))
    return prec_mu


def state_membership_terms(state: VariationalState, data: ObservationSet, hyper, lap, mom):
    """:func:`membership_terms` of the state with the prior-mean term filled
    in, the margin read from its moments ``mom``."""
    g, pi = ((q.mean, q.variance, np.log(q.variance)) for q in (state.coupling, state.sparsity))
    rows, cols = data.mask_indices
    terms = membership_terms(g, pi, mom.t[rows, cols], hyper, lap)[0]
    fill_prior_mean(terms, state.coupling.mean, lap)
    return terms


@np.errstate(over="ignore", invalid="ignore")
def elbo_terms(state, data: ObservationSet, hyper, lap=None, mom=None, member=None):
    """The evidence lower bound split by named block, followed by the
    ``penalty`` on the known memberships, which the bound leaves out.
    ``mom`` and ``member`` are the state's moments and
    :func:`state_membership_terms`, computed when absent.

    Raises :class:`NumericalError` naming the first non-finite block.
    """
    hyper = hyper.resolve(data)
    lap = lap or normalized_laplacian(data.graph, hyper.epsilon)
    mom = mom or factor_moments(state, data, hyper)
    member = member or state_membership_terms(state, data, hyper, lap, mom)
    n, d = data.X.shape
    r = data.n_sets
    noise_mean, noise_mean_log, noise_entropy = gamma_expectations(state.noise)
    residual = expected_sq_residual(state, data, hyper, mom=mom)

    terms = {}
    terms["likelihood"] = 0.5 * n * d * (noise_mean_log - LOG_2PI) - 0.5 * noise_mean * residual
    terms["noise_prior"] = (
        hyper.alpha_a0 * math.log(hyper.alpha_b0)
        - special.gammaln(hyper.alpha_a0)
        + (hyper.alpha_a0 - 1.0) * noise_mean_log
        - hyper.alpha_b0 * noise_mean
    )
    terms["noise_entropy"] = float(noise_entropy)
    terms["assoc_prior"] = float(
        np.sum(np.log(hyper.lambda_s0) - hyper.lambda_s0 * mom.s_mean)
    )
    terms["assoc_entropy"] = float(np.sum(mom.s_entropy))
    terms["basis_prior"] = float(
        np.sum(
            -0.5 * (LOG_2PI + np.log(hyper.sigma_v0))
            - ((state.basis.mean - hyper.mu_v0) ** 2 + state.basis.variance)
            / (2.0 * hyper.sigma_v0)
        )
    )
    terms["basis_entropy"] = float(np.sum(normal_entropy(state.basis.variance)))
    # the constants: log|P| and 2 pi of each GMRF column, the Gaussian
    # entropies' 2 pi e per entry, and the sparsity prior's log a and 2 pi
    # per set
    terms["coupling_prior"] = float(
        0.5 * r * (lap.log_det_precision - d * LOG_2PI)
        + member["coupling_prior_mean"]
        + member["coupling_prior_var"]
    )
    terms["coupling_entropy"] = float(0.5 * (LOG_2PI + 1.0) * d * r + member["coupling_entropy"])
    terms["sparsity_prior"] = float(
        r * (math.log(hyper.beta_a / r) - 0.5 * LOG_2PI) + member["sparsity_prior"]
    )
    terms["sparsity_entropy"] = float(0.5 * (LOG_2PI + 1.0) * r + member["sparsity_entropy"])
    terms["penalty"] = member["penalty"]

    for name, value in terms.items():
        if not np.isfinite(value):
            raise NumericalError(f"non-finite objective block: {name}")
    return terms


def elbo(state, data, hyper, lap=None, mom=None) -> float:
    return regularized_objective(state, data, hyper, lap=lap, mom=mom)[1]


def regularized_objective(state, data, hyper, lap=None, mom=None, member=None):
    """Objective of the penalized variational problem.

    Returns (objective, elbo, penalty) with objective = elbo + penalty.
    """
    terms = elbo_terms(state, data, hyper, lap=lap, mom=mom, member=member)
    penalty = terms.pop("penalty")
    bound = float(sum(terms.values()))
    return bound + penalty, bound, penalty


def rank_row(row, set_ids, top_m: int):
    """The ``top_m`` highest-scoring (set_id, score) pairs of one row.

    Ties break lexicographically on set id so rankings are reproducible.
    """
    n_sets = len(set_ids)
    if not 1 <= top_m <= n_sets:
        raise ValueError(f"top_m must lie in [1, {n_sets}]")
    order = sorted(range(n_sets), key=lambda j: (-row[j], set_ids[j]))
    return [(set_ids[j], float(row[j])) for j in order[:top_m]]


def summarize(
    state: VariationalState,
    data: ObservationSet,
    hyper,
    top_m: int = 5,
    clamp_known: bool = False,
    mom=None,
) -> AssociationResult:
    """Posterior summary used for reporting and serialization; each
    cluster's sets are ranked by posterior association mean.

    ``clamp_known`` optionally reports q(Z=1) as exactly 1 on the curated
    mask without altering the fitted state. ``mom`` are the moments of
    ``state`` when the caller holds them, as :class:`FitReport` does.
    """
    mom = mom or factor_moments(state, data, hyper)
    z_marg = mom.rho.copy()
    if clamp_known:
        rows, cols = data.mask_indices
        z_marg[rows, cols] = 1.0
    top_m = min(top_m, data.n_sets)
    return AssociationResult(
        assoc_mean=mom.s_mean,
        z_marginal=z_marg,
        u_mixed=mom.u,
        ranked=tuple(rank_row(row, data.set_ids, top_m) for row in mom.s_mean),
        cluster_ids=data.cluster_ids,
        set_ids=data.set_ids,
    )
