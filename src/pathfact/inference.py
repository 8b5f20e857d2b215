"""Coordinate-ascent optimization of the penalized variational objective.

Sweep order is noise -> associations -> basis -> cluster logits ->
(coupling, sparsity): the conjugate blocks run first so the gradient blocks
see stabilized residuals. Closed-form blocks are exact conditional
maximizers; gradient blocks use backtracking line search with a
sufficient-ascent test, so the objective never decreases.
"""

import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .dist import (
    GammaParams,
    NormalParams,
    TruncatedNormalParams,
    expected_log_ndtr,
    expected_log_ndtr_grad,
    pdf_over_cdf,
    std_normal_pdf,
    std_normal_quantile,
    trunc_norm_moments,
)
from .graph import normalized_laplacian
from .model import (
    ElboTrace,
    NumericalError,
    ObservationSet,
    SweepRecord,
    VariationalState,
    expected_sq_residual,
    factor_moments,
    regularized_objective,
    softmax_rows,
)

# precision floor / scale cap for sites the likelihood no longer touches;
# the update then degenerates gracefully toward the prior
_MIN_PRECISION = 1e-300
_MAX_SCALE = 1e12


@dataclass(frozen=True)
class GradientBlockConfig:
    """Backtracking line-search settings for the non-conjugate blocks."""

    max_iters: int = 25
    init_step: float = 1.0
    shrink: float = 0.5
    armijo_c: float = 1e-4
    grad_tol: float = 1e-7

    def __post_init__(self):
        if not 0.0 < self.shrink < 1.0:
            raise ValueError("shrink must lie in (0, 1)")
        if self.max_iters < 1 or self.init_step <= 0 or self.armijo_c <= 0:
            raise ValueError("line-search constants must be positive")
        if self.grad_tol <= 0:
            raise ValueError("grad_tol must be positive")


@dataclass(frozen=True)
class FitReport:
    """Outcome of a fit: final state, trace, stop reason, block timings, and
    per gradient block the number of line searches that stalled."""

    state: VariationalState
    trace: ElboTrace
    status: str
    sweeps: int
    block_seconds: dict = field(default_factory=dict)
    stalled: dict = field(default_factory=dict)

    @property
    def converged(self):
        return self.status == "converged"


def init_state(data: ObservationSet, hyper) -> VariationalState:
    """Prior-anchored initialization; a small seeded jitter on the basis
    means breaks the sign symmetry of V."""
    rh = hyper.resolve(data)
    rng = np.random.default_rng(rh.seed)
    k, r, d, n = data.n_clusters, data.n_sets, data.n_features, data.n_samples
    a = rh.beta_a / r
    pi_mean = float(std_normal_quantile(a / (a + 1.0)))
    return VariationalState(
        noise=GammaParams(rh.alpha_a0, rh.alpha_b0),
        assoc=TruncatedNormalParams(1.0 / rh.lambda_s0, np.ones((k, r))),
        basis=NormalParams(
            rh.mu_v0 + 0.01 * rng.standard_normal((d, r)), rh.sigma_v0.copy()
        ),
        coupling=NormalParams(np.zeros((d, r)), np.ones((d, r))),
        sparsity=NormalParams(np.full(r, pi_mean), np.ones(r)),
        cluster_logits=np.zeros((n, k)),
    )


def update_noise(state, data, hyper) -> GammaParams:
    """Conjugate Gamma update of the observation precision."""
    rh = hyper.resolve(data)
    residual = expected_sq_residual(state, data, rh)
    shape = rh.alpha_a0 + 0.5 * data.n_samples * data.n_features
    rate = rh.alpha_b0 + 0.5 * residual
    return GammaParams(shape, rate)


def _assoc_site(k, r, m, gram_u, proj, gram_w, w2_sum, noise_mean, lam_kr):
    """Conditional truncated-normal maximizer for one association entry."""
    prec = noise_mean * gram_u[k, k] * w2_sum[r]
    pm = gram_u[k] @ m
    linear = noise_mean * (
        proj[k, r]
        - pm @ gram_w[:, r]
        + gram_w[r, r] * pm[r]
        - w2_sum[r] * (pm[r] - gram_u[k, k] * m[k, r])
    )
    scale = min(1.0 / max(prec, _MIN_PRECISION), _MAX_SCALE)
    return (linear - lam_kr) * scale, scale


def update_association(state, data, hyper, k, r) -> TruncatedNormalParams:
    """Closed-form update of q(S_kr) with every other factor held fixed."""
    rh = hyper.resolve(data)
    mom = factor_moments(state, data, rh)
    noise_mean = float(state.noise.shape / state.noise.rate)
    gram_u = mom.u.T @ mom.u
    proj = mom.u.T @ data.X @ mom.w
    gram_w = mom.w.T @ mom.w
    loc, scale = _assoc_site(
        k, r, mom.s_mean, gram_u, proj, gram_w, mom.w2_sum, noise_mean, rh.lambda_s0[k, r]
    )
    return TruncatedNormalParams(loc, scale)


def _association_sweep(state, data, rh, mom) -> TruncatedNormalParams:
    noise_mean = float(state.noise.shape / state.noise.rate)
    gram_u = mom.u.T @ mom.u
    proj = mom.u.T @ data.X @ mom.w
    gram_w = mom.w.T @ mom.w
    w2_sum = mom.w2_sum
    loc = state.assoc.location.copy()
    scale = state.assoc.scale_sq.copy()
    m = mom.s_mean.copy()
    for k in range(data.n_clusters):
        for r in range(data.n_sets):
            loc_new, scale_new = _assoc_site(
                k, r, m, gram_u, proj, gram_w, w2_sum, noise_mean, rh.lambda_s0[k, r]
            )
            loc[k, r] = loc_new
            scale[k, r] = scale_new
            m[k, r] = trunc_norm_moments(loc_new, scale_new)[0]
    return TruncatedNormalParams(loc, scale)


def update_basis(state, data, hyper, j, r) -> NormalParams:
    """Closed-form update of q(V_jr) with every other factor held fixed."""
    rh = hyper.resolve(data)
    mom = factor_moments(state, data, rh)
    noise_mean = float(state.noise.shape / state.noise.rate)
    resid = data.X[:, j] - mom.a @ mom.w[j]
    prec = 1.0 / rh.sigma_v0[j, r] + noise_mean * mom.rho[j, r] * mom.a2_sum[r]
    linear = rh.mu_v0[j, r] / rh.sigma_v0[j, r] + noise_mean * mom.rho[j, r] * (
        mom.a[:, r] @ resid + mom.w[j, r] * mom.a_sq_sum[r]
    )
    return NormalParams(linear / prec, 1.0 / prec)


def _basis_sweep(state, data, rh, mom) -> NormalParams:
    """Gauss-Seidel over the sets. With U, S and Z fixed the rows of V are
    conditionally independent, so each step updates column r for all
    features at once from the sufficient statistics X^T A and A^T A."""
    noise_mean = float(state.noise.shape / state.noise.rate)
    rho = mom.rho
    proj = data.X.T @ mom.a  # (D, R)
    gram = mom.a.T @ mom.a
    mean = mom.v_mean.copy()
    var = np.empty_like(mean)
    w = rho * mean
    for r in range(data.n_sets):
        prec = 1.0 / rh.sigma_v0[:, r] + noise_mean * rho[:, r] * mom.a2_sum[r]
        linear = rh.mu_v0[:, r] / rh.sigma_v0[:, r] + noise_mean * rho[:, r] * (
            proj[:, r] - w @ gram[:, r] + w[:, r] * gram[r, r]
        )
        mean[:, r] = linear / prec
        var[:, r] = 1.0 / prec
        w[:, r] = rho[:, r] * mean[:, r]
    return NormalParams(mean, var)


def _backtracking_ascent(x0, value, value_and_grad, cfg: GradientBlockConfig):
    """Maximize by steepest ascent with Armijo backtracking.

    Returns (x, stalled); stalled means not a single step was accepted even
    at machine-precision step sizes.
    """
    x = x0
    f, g = value_and_grad(x)
    if not np.isfinite(f):
        raise NumericalError("gradient block started from a non-finite objective")
    accepted_any = False
    step = cfg.init_step
    for _ in range(cfg.max_iters):
        gnorm_sq = float(np.sum(g * g))
        if np.sqrt(gnorm_sq) <= cfg.grad_tol:
            break
        s = step
        accepted = False
        while s > 1e-20:
            cand = x + s * g
            fc = value(cand)
            if np.isfinite(fc) and fc >= f + cfg.armijo_c * s * gnorm_sq:
                x = cand
                f, g = value_and_grad(cand)
                step = min(s * 2.0, cfg.init_step * 1024.0)
                accepted = True
                accepted_any = True
                break
            s *= cfg.shrink
        if not accepted:
            break
    stalled = not accepted_any and bool(np.sqrt(float(np.sum(g * g))) > cfg.grad_tol)
    return x, stalled


class _ClusterStats:
    """Sufficient statistics of the cluster block: everything its objective
    needs that does not depend on the logits, so that an evaluation costs
    O(NKR + NR^2) and forms no N x D residual."""

    def __init__(self, state, data, rh):
        mom = factor_moments(state, data, rh)
        self.noise_mean = float(state.noise.shape / state.noise.rate)
        self.s_mean = mom.s_mean
        self.var_load = mom.s_var @ mom.w2_sum  # per-cluster variance load
        self.xw = data.X @ mom.w  # (N, R)
        # E[W^T W] under the factorized posterior: second moments on the
        # diagonal, products of first moments across distinct sets
        self.gram_w = mom.w.T @ mom.w
        np.fill_diagonal(self.gram_w, mom.w2_sum)
        self.x_sq = float(np.sum(data.X * data.X))


def cluster_objective_and_grad(theta, state, data, hyper, with_grad=True, stats=None):
    """Likelihood part of the objective as a function of the cluster logits.

    Every other objective term is constant in theta, so ascent on this
    restriction is ascent on the full objective. ``stats`` holds the
    theta-independent statistics; they are built from the state when absent.
    """
    rh = hyper.resolve(data)
    st = stats or _ClusterStats(state, data, rh)
    tilde = softmax_rows(theta)
    u = rh.zeta * data.U0 + (1.0 - rh.zeta) * tilde
    a = u @ st.s_mean
    a_gram = a @ st.gram_w
    total = (
        st.x_sq
        - float(np.sum(a * (2.0 * st.xw - a_gram)))
        + float((u * u).sum(axis=0) @ st.var_load)
    )
    value = -0.5 * st.noise_mean * total
    if not with_grad:
        return value, None
    d_value_du = st.noise_mean * ((st.xw - a_gram) @ st.s_mean.T - u * st.var_load)
    inner = (tilde * d_value_du).sum(axis=1, keepdims=True)
    grad = (1.0 - rh.zeta) * tilde * (d_value_du - inner)
    return value, grad


def update_cluster(state, data, hyper, cfg: GradientBlockConfig = None):
    """Line-search ascent on the cluster logits. Returns (logits, stalled)."""
    cfg = cfg or GradientBlockConfig()
    rh = hyper.resolve(data)
    if rh.zeta == 1.0:
        return state.cluster_logits.copy(), False

    stats = _ClusterStats(state, data, rh)

    def value(theta):
        return cluster_objective_and_grad(
            theta, state, data, rh, with_grad=False, stats=stats
        )[0]

    def value_and_grad(theta):
        return cluster_objective_and_grad(theta, state, data, rh, stats=stats)

    theta, stalled = _backtracking_ascent(
        state.cluster_logits, value, value_and_grad, cfg
    )
    return theta, stalled


class _CouplingProblem:
    """Restriction of the penalized objective to the membership block.

    Parameters are packed as [mu_g, log sig_g, mu_pi, log sig_pi]; variances
    travel in log space so positivity needs no projection.
    """

    def __init__(self, state, data, rh, lap, mom):
        self.data = data
        self.rh = rh
        self.lap = lap
        self.noise_mean = float(state.noise.shape / state.noise.rate)
        self.v_mean = mom.v_mean
        self.v_second = mom.v_second
        self.a2_sum = mom.a2_sum
        self.gram_a = mom.a.T @ mom.a
        self.proj = data.X.T @ mom.a  # (D, R)
        self.a_sq = np.diag(self.gram_a).copy()
        self.mask = data.mask_indices()
        self.shape = mom.v_mean.shape
        self.a_beta = rh.beta_a / data.n_sets
        self.x_sq = float(np.sum(data.X * data.X))

    def pack(self, coupling: NormalParams, sparsity: NormalParams):
        return np.concatenate(
            [
                coupling.mean.ravel(),
                np.log(coupling.variance).ravel(),
                sparsity.mean,
                np.log(sparsity.variance),
            ]
        )

    def unpack(self, x):
        d, r = self.shape
        mu_g = x[: d * r].reshape(d, r)
        sig_g = np.exp(x[d * r : 2 * d * r]).reshape(d, r)
        mu_pi = x[2 * d * r : 2 * d * r + r]
        sig_pi = np.exp(x[2 * d * r + r :])
        return mu_g, sig_g, mu_pi, sig_pi

    def _common(self, x):
        mu_g, sig_g, mu_pi, sig_pi = self.unpack(x)
        total_var = sig_pi[None, :] + sig_g
        t = (mu_pi[None, :] - mu_g) / np.sqrt(total_var)
        rho = special.ndtr(t)
        return mu_g, sig_g, mu_pi, sig_pi, total_var, t, rho

    def value(self, x):
        # candidate steps may underflow a variance to zero; the resulting
        # -inf/nan objective is rejected by the line search
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            mu_g, sig_g, mu_pi, sig_pi, total_var, t, rho = self._common(x)
            w = rho * self.v_mean
            w2 = rho * self.v_second
            residual = (
                self.x_sq
                - 2.0 * float(np.sum(w * self.proj))
                + float(np.sum((w @ self.gram_a) * w))
                + float(self.a2_sum @ w2.sum(axis=0))
                - float(self.a_sq @ np.einsum("jr,jr->r", w, w))
            )
            value = -0.5 * self.noise_mean * residual
            value -= 0.5 * float(np.sum(self.lap.quadratic_form(mu_g)))
            value -= 0.5 * float(np.sum(self.lap.precision_diag @ sig_g))
            value += 0.5 * float(np.sum(np.log(sig_g)))
            value += float(
                np.sum(
                    (self.a_beta - 1.0) * expected_log_ndtr(mu_pi, sig_pi)
                    - 0.5 * (mu_pi**2 + sig_pi)
                )
            )
            value += 0.5 * float(np.sum(np.log(sig_pi)))
            rows, cols = self.mask
            if rows.size and self.rh.xi > 0:
                value += self.rh.xi * float(np.sum(special.log_ndtr(t[rows, cols])))
        return value

    def value_and_grad(self, x):
        mu_g, sig_g, mu_pi, sig_pi, total_var, t, rho = self._common(x)
        w = rho * self.v_mean
        w2 = rho * self.v_second

        residual = (
            self.x_sq
            - 2.0 * float(np.sum(w * self.proj))
            + float(np.sum((w @ self.gram_a) * w))
            + float(self.a2_sum @ w2.sum(axis=0))
            - float(self.a_sq @ np.einsum("jr,jr->r", w, w))
        )
        value = -0.5 * self.noise_mean * residual

        d_resid_dw = -2.0 * self.proj + 2.0 * (w @ self.gram_a) - 2.0 * self.a_sq[None, :] * w
        d_value_drho = -0.5 * self.noise_mean * (
            self.v_mean * d_resid_dw + self.v_second * self.a2_sum[None, :]
        )

        phi_t = std_normal_pdf(t)
        d_value_dt = d_value_drho * phi_t
        rows, cols = self.mask
        if rows.size and self.rh.xi > 0:
            value += self.rh.xi * float(np.sum(special.log_ndtr(t[rows, cols])))
            pen = np.zeros_like(t)
            pen[rows, cols] = self.rh.xi * pdf_over_cdf(t[rows, cols])
            d_value_dt = d_value_dt + pen

        root = np.sqrt(total_var)
        d_t_dvar = -0.5 * t / total_var

        prec_mu = self.lap.apply_precision(mu_g)
        value -= 0.5 * float(np.sum(mu_g * prec_mu))
        value -= 0.5 * float(np.sum(self.lap.precision_diag @ sig_g))
        value += 0.5 * float(np.sum(np.log(sig_g)))

        grad_mu_g = -d_value_dt / root - prec_mu
        grad_sig_g = (
            d_value_dt * d_t_dvar
            - 0.5 * self.lap.precision_diag[:, None]
            + 0.5 / sig_g
        )

        eln = expected_log_ndtr(mu_pi, sig_pi)
        d_eln_mu, d_eln_var = expected_log_ndtr_grad(mu_pi, sig_pi)
        value += float(
            np.sum((self.a_beta - 1.0) * eln - 0.5 * (mu_pi**2 + sig_pi))
        )
        value += 0.5 * float(np.sum(np.log(sig_pi)))

        grad_mu_pi = (
            (d_value_dt / root).sum(axis=0)
            + (self.a_beta - 1.0) * d_eln_mu
            - mu_pi
        )
        grad_sig_pi = (
            (d_value_dt * d_t_dvar).sum(axis=0)
            + (self.a_beta - 1.0) * d_eln_var
            - 0.5
            + 0.5 / sig_pi
        )

        grad = np.concatenate(
            [
                grad_mu_g.ravel(),
                (grad_sig_g * sig_g).ravel(),
                grad_mu_pi,
                grad_sig_pi * sig_pi,
            ]
        )
        return value, grad


def coupling_objective_and_grad(state, data, hyper, lap=None):
    """Objective restriction and gradient for the membership block at the
    state's current coupling/sparsity parameters (testing hook)."""
    rh = hyper.resolve(data)
    lap = lap or normalized_laplacian(data.graph, rh.epsilon)
    mom = factor_moments(state, data, rh)
    problem = _CouplingProblem(state, data, rh, lap, mom)
    x = problem.pack(state.coupling, state.sparsity)
    return problem.value_and_grad(x)


def update_coupling(state, data, hyper, cfg: GradientBlockConfig = None, lap=None):
    """Joint line-search ascent over the coupling functions and set levels.

    Returns (coupling, sparsity, stalled).
    """
    cfg = cfg or GradientBlockConfig()
    rh = hyper.resolve(data)
    lap = lap or normalized_laplacian(data.graph, rh.epsilon)
    mom = factor_moments(state, data, rh)
    problem = _CouplingProblem(state, data, rh, lap, mom)
    x0 = problem.pack(state.coupling, state.sparsity)
    x, stalled = _backtracking_ascent(x0, problem.value, problem.value_and_grad, cfg)
    mu_g, sig_g, mu_pi, sig_pi = problem.unpack(x)
    return NormalParams(mu_g, sig_g), NormalParams(mu_pi, sig_pi), stalled


def fit(data: ObservationSet, hyper, cfg: GradientBlockConfig = None) -> FitReport:
    """Run coordinate-ascent sweeps until the objective stabilizes.

    Stops when the relative objective change stays below ``elbo_rel_tol``
    for three consecutive sweeps, or at ``max_sweeps``. Deterministic for a
    fixed seed and BLAS thread count.
    """
    rh = hyper.resolve(data)
    cfg = cfg or GradientBlockConfig()
    if rh.xi > 0 and not data.Z0.any():
        warnings.warn("penalty weight xi > 0 but the known-membership set is empty")
    lap = normalized_laplacian(data.graph, rh.epsilon)
    state = init_state(data, rh)
    block_seconds = {name: 0.0 for name in ("noise", "association", "basis", "cluster", "coupling")}
    stalled = {"cluster": 0, "coupling": 0}

    # warm-up: one coupling pass before any factor block, so the curated
    # memberships shape q(Z) before the basis commits to features; pure
    # ascent, so the monotonicity contract is unaffected
    start = time.perf_counter()
    coupling0, sparsity0, stuck = update_coupling(state, data, rh, cfg, lap=lap)
    stalled["coupling"] += stuck
    state = state.updated(coupling=coupling0, sparsity=sparsity0)
    block_seconds["coupling"] += time.perf_counter() - start
    trace = ElboTrace()

    def objective(current, block):
        try:
            obj, bound, penalty = regularized_objective(current, data, rh, lap=lap)
        except NumericalError as exc:
            raise NumericalError(f"after block '{block}': {exc}") from exc
        if not np.isfinite(obj):
            raise NumericalError(f"non-finite objective after block '{block}'")
        return obj, bound, penalty

    obj, bound, penalty = objective(state, "init")
    trace.append(SweepRecord(sweep=0, elbo=bound, penalty=penalty, objective=obj, block_deltas={}))
    status = "max_sweeps"
    quiet = 0
    sweeps_done = 0
    for sweep in range(1, rh.max_sweeps + 1):
        prev_obj = obj
        deltas = {}

        def timed(name, action):
            nonlocal state, obj, bound, penalty
            start = time.perf_counter()
            state = action(state)
            block_seconds[name] += time.perf_counter() - start
            new_obj, new_bound, new_penalty = objective(state, name)
            deltas[name] = new_obj - obj
            obj, bound, penalty = new_obj, new_bound, new_penalty

        timed("noise", lambda s: s.updated(noise=update_noise(s, data, rh)))
        timed(
            "association",
            lambda s: s.updated(
                assoc=_association_sweep(s, data, rh, factor_moments(s, data, rh))
            ),
        )
        timed(
            "basis",
            lambda s: s.updated(
                basis=_basis_sweep(s, data, rh, factor_moments(s, data, rh))
            ),
        )

        def cluster_step(s):
            theta, stuck = update_cluster(s, data, rh, cfg)
            stalled["cluster"] += stuck
            return s.updated(cluster_logits=theta)

        timed("cluster", cluster_step)

        def coupling_step(s):
            coupling, sparsity, stuck = update_coupling(s, data, rh, cfg, lap=lap)
            stalled["coupling"] += stuck
            return s.updated(coupling=coupling, sparsity=sparsity)

        timed("coupling", coupling_step)

        trace.append(
            SweepRecord(sweep=sweep, elbo=bound, penalty=penalty, objective=obj, block_deltas=deltas)
        )
        sweeps_done = sweep
        rel_change = abs(obj - prev_obj) / max(abs(prev_obj), 1e-12)
        quiet = quiet + 1 if rel_change < rh.elbo_rel_tol else 0
        if quiet >= 3:
            status = "converged"
            break

    return FitReport(
        state=state,
        trace=trace,
        status=status,
        sweeps=sweeps_done,
        block_seconds=block_seconds,
        stalled=stalled,
    )
