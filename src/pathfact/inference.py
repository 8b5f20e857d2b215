"""Coordinate-ascent optimization of the penalized variational objective.

Sweep order is noise -> associations -> basis -> cluster logits ->
(coupling, sparsity): the conjugate blocks run first so the gradient blocks
see stabilized residuals. Closed-form blocks are exact conditional
maximizers; gradient blocks use backtracking line search with a
sufficient-ascent test, so the objective never decreases.
"""

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .dist import (
    GammaParams,
    NormalParams,
    TruncatedNormalParams,
    expected_log_ndtr_grad,
    pdf_over_cdf,
    std_normal_quantile,
    trunc_norm_mean,
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
    fill_prior_mean,
    membership_terms,
    regularized_objective,
    softmax_rows,
    sq_residual_at,
    state_membership_terms,
)

# precision floor / scale cap for sites the likelihood no longer touches;
# the update then degenerates gracefully toward the prior
_MIN_PRECISION = 1e-300
_MAX_SCALE = 1e12

# the line search: iterations per search, first step, gradient-norm
# tolerance, backtracking factor and sufficient-ascent constant
_MAX_ITERS = 25
_INIT_STEP = 1.0
_GRAD_TOL = 1e-7
_SHRINK = 0.5
_ARMIJO_C = 1e-4

# relative rounding error allowed, in the coupling screen, for the two terms
# it leaves out (see _CouplingProblem.value)
_SCREEN_RTOL = 1e-4

# the floating-point state that every caller of _CouplingProblem's
# evaluations enters, once per block (see _CouplingProblem)
_COUPLING_ERRSTATE = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


@dataclass(frozen=True)
class FitReport:
    """Outcome of a fit: final state, trace, stop reason, block timings,
    per gradient block the number of line searches that stalled and of
    objective evaluations they made, and the final state's moments (see
    :func:`factor_moments`)."""

    state: VariationalState
    trace: ElboTrace
    status: str
    sweeps: int
    block_seconds: dict = field(default_factory=dict)
    stalled: dict = field(default_factory=dict)
    evaluations: dict = field(default_factory=dict)
    moments: object = None

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


def update_noise(state, data, hyper, mom=None) -> GammaParams:
    """Conjugate Gamma update of the observation precision."""
    rh = hyper.resolve(data)
    residual = expected_sq_residual(state, data, rh, mom=mom)
    shape = rh.alpha_a0 + 0.5 * data.n_samples * data.n_features
    rate = rh.alpha_b0 + 0.5 * residual
    return GammaParams(shape, rate)


def _assoc_site(k, r, m, gram_u, proj, gram_w, noise_mean, lam_kr):
    """Conditional truncated-normal maximizer for one association entry;
    ``gram_w`` is E[W^T W]."""
    prec = noise_mean * gram_u[k, k] * gram_w[r, r]
    linear = noise_mean * (proj[k, r] - (gram_u[k] @ m) @ gram_w[:, r]) + prec * m[k, r]
    scale = min(1.0 / max(prec, _MIN_PRECISION), _MAX_SCALE)
    return (linear - lam_kr) * scale, scale


def update_association(state, data, hyper, k, r) -> TruncatedNormalParams:
    """Closed-form update of q(S_kr) with every other factor held fixed."""
    rh = hyper.resolve(data)
    mom = factor_moments(state, data, rh)
    noise_mean = float(state.noise.mean)
    gram_u = mom.u.T @ mom.u
    proj = mom.u.T @ mom.xw
    loc, scale = _assoc_site(
        k, r, mom.s_mean, gram_u, proj, mom.ww, noise_mean, rh.lambda_s0[k, r]
    )
    return TruncatedNormalParams(loc, scale)


def _association_sweep(state, data, rh, mom) -> TruncatedNormalParams:
    noise_mean = float(state.noise.mean)
    gram_u = mom.u.T @ mom.u
    proj = mom.u.T @ mom.xw
    loc = state.assoc.location.copy()
    scale = state.assoc.scale_sq.copy()
    m = mom.s_mean.copy()
    for k in range(data.n_clusters):
        for r in range(data.n_sets):
            loc_new, scale_new = _assoc_site(
                k, r, m, gram_u, proj, mom.ww, noise_mean, rh.lambda_s0[k, r]
            )
            loc[k, r] = loc_new
            scale[k, r] = scale_new
            sd = math.sqrt(scale_new)
            m[k, r] = trunc_norm_mean(sd, loc_new / sd)[0]
    return TruncatedNormalParams(loc, scale)


def _basis_column(r, w, noise_mean, rh, mom):
    """Conditional Gaussian maximizer of q(V_jr) for every feature j at once:
    with U, S and Z fixed the rows of V are conditionally independent. ``w``
    holds E[W] with the current means of the other sets; the sufficient
    statistics are X^T E[A] and E[A^T A]. Returns the mean and variance
    columns."""
    rho = mom.rho[:, r]
    gram = mom.aa
    prec = 1.0 / rh.sigma_v0[:, r] + noise_mean * rho * mom.a2_sum[r]
    linear = rh.mu_v0[:, r] / rh.sigma_v0[:, r] + noise_mean * rho * (
        mom.xta[:, r] - w @ gram[:, r] + w[:, r] * gram[r, r]
    )
    return linear / prec, 1.0 / prec


def update_basis(state, data, hyper, j, r) -> NormalParams:
    """Closed-form update of q(V_jr) with every other factor held fixed."""
    rh = hyper.resolve(data)
    mom = factor_moments(state, data, rh)
    noise_mean = float(state.noise.mean)
    mean, var = _basis_column(r, mom.w, noise_mean, rh, mom)
    return NormalParams(mean[j], var[j])


def _basis_sweep(state, data, rh, mom) -> NormalParams:
    """Gauss-Seidel over the sets, one column of V per step."""
    noise_mean = float(state.noise.mean)
    mean = mom.v_mean.copy()
    var = np.empty_like(mean)
    w = mom.w.copy()
    for r in range(data.n_sets):
        mean[:, r], var[:, r] = _basis_column(r, w, noise_mean, rh, mom)
        w[:, r] = mom.rho[:, r] * mean[:, r]
    return NormalParams(mean, var)


def _next_step(s, g_old, g_new, max_step):
    """Start of the search after the accepted step ``s * g_old`` (the rule
    is in :func:`_backtracking_ascent`). A function of its own, so that
    ``y`` is freed before the next search runs."""
    y = g_new - g_old
    curvature = -s * float(np.vdot(g_old, y))
    y_sq = float(np.vdot(y, y))
    if curvature > 0 and y_sq > 0:
        return min(curvature / y_sq, max_step)
    return min(s * 2.0, max_step)


def _backtracking_ascent(x, value, value_and_grad):
    """Maximize by steepest ascent with Armijo backtracking.

    The first search starts at ``_INIT_STEP``. After a step ``s * g_old`` is
    accepted, the next search starts at the Barzilai-Borwein short step
    ``-s * g_old.y / y.y`` with ``y = g_new - g_old``, the inverse of a
    scalar fit to the curvature along the step; when that curvature or
    ``y.y`` is not positive (a linear objective, say) it starts at twice
    the accepted step instead. Either start is capped at
    ``_INIT_STEP * 1024`` and then shrunk until the Armijo test passes, so
    every accepted step is a sufficient ascent.

    Each trial is evaluated as ``value(x, floor)``, with ``floor`` its
    Armijo floor ``f + _ARMIJO_C * s * |g|^2``, and returns (value, pass).
    Only the test against the floor reads a trial's value, so ``value`` may
    return any number below the floor, and no pass, in place of those of a
    trial that falls below it. The accepted trial and its pass go to
    ``value_and_grad(x, kept=pass)``, which then need not form the pass
    again; the start point goes without one. A pass is dropped before the
    next trial is evaluated, so memory holds one pass at a time.

    Returns (x, stalled, evaluations): stalled means not a single step was
    accepted even at machine-precision step sizes; evaluations counts the
    calls of ``value`` and ``value_and_grad``.
    """
    f, g = value_and_grad(x)
    evaluations = 1
    if not math.isfinite(f):
        raise NumericalError("gradient block started from a non-finite objective")
    accepted_any = False
    step = _INIT_STEP
    max_step = _INIT_STEP * 1024.0
    for _ in range(_MAX_ITERS):
        gnorm_sq = float(np.vdot(g, g))
        if math.sqrt(gnorm_sq) <= _GRAD_TOL:
            break
        s = step
        accepted = False
        while s > 1e-20:
            cand = s * g
            cand += x  # x + s * g, without a second temporary
            floor = f + _ARMIJO_C * s * gnorm_sq
            kept = None  # the last pass goes before value forms the next
            fc, kept = value(cand, floor)
            evaluations += 1
            if math.isfinite(fc) and fc >= floor:
                x = cand
                f, g_new = value_and_grad(cand, kept=kept)
                evaluations += 1
                step = _next_step(s, g, g_new, max_step)
                g = g_new
                accepted = True
                accepted_any = True
                break
            s *= _SHRINK
        if not accepted:
            break
    stalled = not accepted_any and math.sqrt(float(np.vdot(g, g))) > _GRAD_TOL
    return x, stalled, evaluations


def _cluster_fixed(state, data, rh):
    """The terms of the cluster objective that stay fixed through a block:
    E[gamma], zeta U0 and 1 - zeta."""
    return float(state.noise.mean), rh.zeta * data.U0, 1.0 - rh.zeta


def cluster_objective_and_grad(
    theta, state, data, hyper, with_grad=True, mom=None, kept=None, fixed=None
):
    """Likelihood part of the objective as a function of the cluster logits.

    Every other objective term is constant in theta, so ascent on this
    restriction is ascent on the full objective. ``mom`` holds the state's
    moments and ``fixed`` its :func:`_cluster_fixed` terms; each is
    computed when absent. Only ``c``, ``m`` and ``var_load`` of ``mom``,
    which do not depend on theta, are read, so an evaluation costs O(NK^2).
    Returns (value, gradient), or with ``with_grad=False`` (value, pass);
    given ``kept``, the pass of a call at theta, the gradient reuses it.
    """
    rh = hyper.resolve(data)
    mom = mom or factor_moments(state, data, rh)
    noise_mean, zeta_u0, share = fixed or _cluster_fixed(state, data, rh)
    if kept is None:
        tilde = softmax_rows(theta)
        u = zeta_u0 + share * tilde
        total, um = sq_residual_at(u, data.x_sq, mom)
        kept = -0.5 * noise_mean * total, tilde, u, um
    value, tilde, u, um = kept
    if not with_grad:
        return value, kept
    d_value_du = noise_mean * (mom.c - um - u * mom.var_load)
    inner = (tilde * d_value_du).sum(axis=1, keepdims=True)
    grad = share * tilde * (d_value_du - inner)
    return value, grad


def update_cluster(state, data, hyper, mom=None):
    """Line-search ascent on the cluster logits.

    Returns (logits, stalled, evaluations) as :func:`_backtracking_ascent`.
    """
    rh = hyper.resolve(data)
    if rh.zeta == 1.0:
        return state.cluster_logits.copy(), False, 0

    mom = mom or factor_moments(state, data, rh)
    fixed = _cluster_fixed(state, data, rh)

    def value(theta, _floor):  # the likelihood alone: nothing cheaper to screen by
        return cluster_objective_and_grad(
            theta, state, data, rh, with_grad=False, mom=mom, fixed=fixed
        )

    def value_and_grad(theta, kept=None):
        return cluster_objective_and_grad(
            theta, state, data, rh, mom=mom, kept=kept, fixed=fixed
        )

    return _backtracking_ascent(state.cluster_logits, value, value_and_grad)


class _CouplingProblem:
    """Restriction of the penalized objective to the membership block.

    Parameters are packed as [mu_g, log sig_g, mu_pi, log sig_pi]; variances
    travel in log space so positivity needs no projection. Trial steps may
    underflow a variance to zero or overflow one; the resulting -inf/nan
    objective is rejected by the line search, so callers run the block
    under one ``np.errstate`` that ignores overflow, invalid values and
    division by zero (see :data:`_COUPLING_ERRSTATE`).
    """

    def __init__(self, state, data, rh, lap, mom):
        self.rh = rh
        self.lap = lap
        self.noise_mean = float(state.noise.mean)
        self.pdf_scale = -self.noise_mean / np.sqrt(2.0 * np.pi)  # -E[gamma] phi(0)
        self.v_mean = mom.v_mean
        self.v_second = mom.v_second
        self.a2_sum = mom.a2_sum
        self.gram_a = mom.aa
        self.proj = mom.xta
        self.mask = data.mask_indices
        self.mask_flat = self.mask[0] * data.n_sets + self.mask[1]  # into a D x R array
        self.penalized = self.mask[0].size > 0 and rh.xi > 0
        self.shape = mom.v_mean.shape
        self.n_g = mom.v_mean.size
        # the gradient's terms that stay fixed through the block
        self.half_a2_v_second = (0.5 * mom.a2_sum) * mom.v_second
        self.half_precision_diag = 0.5 * lap.precision_diag[:, None]
        self.a_beta_less_1 = rh.beta_a / data.n_sets - 1.0
        self.x_sq = data.x_sq
        # how far rounding can lift the likelihood above zero (see value())
        self.likelihood_cap = _SCREEN_RTOL * 0.5 * self.noise_mean * self.x_sq

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
        """(mu_g, sig_g, mu_pi, sig_pi) at ``x``; the means are views of it."""
        n_g, r = self.n_g, self.shape[1]
        mu_g, mu_pi = x[:n_g].reshape(self.shape), x[2 * n_g : 2 * n_g + r]
        sig_g = np.exp(x[n_g : 2 * n_g]).reshape(self.shape)
        return mu_g, sig_g, mu_pi, np.exp(x[2 * n_g + r :])

    def value(self, x, floor=-np.inf):
        """(value, pass) at ``x``: the block objective and the pass that
        :meth:`value_and_grad` at ``x`` can reuse, or, when the terms that
        need no Phi(t), P mu or E[W] E[A^T A] already put the objective
        below ``floor``, a bound below ``floor`` and no pass."""
        head = self._membership(x)
        # The screen. The likelihood -E[gamma]/2 E||X - A (Z o V)^T||^2 and the
        # prior-mean term -mu^T P mu / 2 (P positive definite) are never
        # positive, and a rounded sum does not fall when one addend rises. So
        # the pass's value, which adds the same terms in the same order, is at
        # most this sum of the other terms and two caps on how far rounding
        # can lift those two above zero: _SCREEN_RTOL of the size on which
        # their parts cancel, E[gamma] ||X||^2 / 2 for the likelihood (its
        # residual is small next to its parts only when the fit is near X)
        # and (2 + eps) |mu|^2 / 2 for the prior mean (|P| has norm at most
        # 2 + eps). Only the final additions round differently from the pass.
        mu_g, terms = head[0], head[7]
        mean_cap = _SCREEN_RTOL * 0.5 * (2.0 + self.lap.jitter) * float(np.vdot(mu_g, mu_g))
        bound = self.likelihood_cap
        for term in terms.values():
            bound += mean_cap if term is None else term
        if bound < floor:
            return bound, None
        kept = self._forward(x, head)
        return kept[0], kept

    def value_and_grad(self, x, kept=None):
        """(value, gradient) at ``x``. ``kept``, the pass of :meth:`value`
        at ``x``, is reused; without it a pass is formed here."""
        value, gradient = kept or self._forward(x, self._membership(x))
        return value, gradient()

    def _membership(self, x):
        """The head of a pass at ``x``: the means and variances as
        (mu_g, sig_g, mu_pi, sig_pi), the margins ``t`` and ``root`` =
        sqrt(sig_pi + sig_g), the margins at the known entries, and
        :func:`membership_terms` with its grid. Each margin is formed once,
        so the penalty, the screen and the penalty's gradient read the bits
        of the full margins at the known entries."""
        n_g, r = self.n_g, self.shape[1]
        mu_g = x[:n_g].reshape(self.shape)
        log_sig_g, log_sig_pi = x[n_g : 2 * n_g], x[2 * n_g + r :]
        sig_g = np.exp(log_sig_g).reshape(self.shape)
        mu_pi = x[2 * n_g : 2 * n_g + r]
        sig_pi = np.exp(log_sig_pi)
        root = sig_pi + sig_g
        np.sqrt(root, out=root)
        t = (mu_pi - mu_g) / root
        t_mask = t.take(self.mask_flat)
        terms, grid = membership_terms(
            (mu_g, sig_g, log_sig_g), (mu_pi, sig_pi, log_sig_pi), t_mask, self.rh, self.lap
        )
        return mu_g, sig_g, mu_pi, sig_pi, root, t, t_mask, terms, grid

    def _forward(self, x, head):
        """The block objective at ``x``, and a function that computes its
        gradient from this pass's intermediates; ``head`` is
        ``_membership(x)``. Trial steps and gradient points share this body,
        so the line search compares values summed in one order."""
        mu_g, sig_g, mu_pi, sig_pi, root, t, t_mask, terms, grid = head
        n_g, r = self.n_g, mu_pi.size
        rho = special.ndtr(t)
        w = rho * self.v_mean
        err = w @ self.gram_a - self.proj  # E[W] E[A^T A] - X^T E[A]
        # ||X||^2 - 2 <W, X^T A> + <E[A^T A], E[W^T W]>, where E[W^T W] is
        # W^T W off the diagonal and the second moments on it
        residual = (
            self.x_sq
            + float(np.vdot(w, err))
            - float(np.vdot(w, self.proj))
            + float(np.einsum("jr,jr->r", rho, self.v_second) @ self.a2_sum)
            - float(np.einsum("jr,jr->r", w, w) @ self.a2_sum)
        )
        value = -0.5 * self.noise_mean * residual
        prec_mu = fill_prior_mean(terms, mu_g, self.lap)
        for term in terms.values():
            value += term

        def gradient():
            out = np.empty(x.size)
            mu_out = out[:n_g].reshape(self.shape)
            sig_out = out[n_g : 2 * n_g].reshape(self.shape)
            # d_t = ((err - a2_sum w) v_mean + half_a2_v_second) exp(-t^2 / 2)
            # pdf_scale, formed in place: the fixed D x R term the block holds
            # then adds nothing to the memory at the gradient's peak
            d_t = self.a2_sum * w
            np.subtract(err, d_t, out=d_t)
            d_t *= self.v_mean
            d_t += self.half_a2_v_second
            density = -0.5 * t
            density *= t
            d_t *= np.exp(density, out=density)
            d_t *= self.pdf_scale  # d value / d t
            if self.penalized:  # d_t is a new C-ordered array: reshape gives a view
                d_t.reshape(-1)[self.mask_flat] += self.rh.xi * pdf_over_cdf(t_mask)
            # d t / d mu_pi = -d t / d mu_g = 1 / root
            d_mu = np.divide(d_t, root, out=d_t)
            np.negative(d_mu, out=mu_out)
            mu_out -= prec_mu
            d_eln_mu, d_eln_var = expected_log_ndtr_grad(grid)
            out[2 * n_g : -r] = d_mu.sum(axis=0) + self.a_beta_less_1 * d_eln_mu - mu_pi
            # d t / d var = -t / (2 root^2) for either variance
            d_var = np.multiply(d_mu, t, out=sig_out)
            d_var /= root
            d_var *= -0.5
            out[-r:] = (d_var.sum(axis=0) + self.a_beta_less_1 * d_eln_var - 0.5) * sig_pi + 0.5
            sig_out -= self.half_precision_diag
            sig_out *= sig_g
            sig_out += 0.5
            return out

        return value, gradient


def coupling_objective_and_grad(state, data, hyper, lap=None):
    """Objective restriction and gradient for the membership block at the
    state's current coupling/sparsity parameters (testing hook)."""
    rh = hyper.resolve(data)
    lap = lap or normalized_laplacian(data.graph, rh.epsilon)
    mom = factor_moments(state, data, rh)
    problem = _CouplingProblem(state, data, rh, lap, mom)
    with np.errstate(**_COUPLING_ERRSTATE):
        return problem.value_and_grad(problem.pack(state.coupling, state.sparsity))


def update_coupling(state, data, hyper, lap=None, mom=None):
    """Joint line-search ascent over the coupling functions and set levels.

    Returns (coupling, sparsity, stalled, evaluations).
    """
    rh = hyper.resolve(data)
    lap = lap or normalized_laplacian(data.graph, rh.epsilon)
    mom = mom or factor_moments(state, data, rh)
    problem = _CouplingProblem(state, data, rh, lap, mom)
    with np.errstate(**_COUPLING_ERRSTATE):
        x, stalled, evaluations = _backtracking_ascent(
            problem.pack(state.coupling, state.sparsity), problem.value, problem.value_and_grad
        )
    mu_g, sig_g, mu_pi, sig_pi = problem.unpack(x)
    return NormalParams(mu_g, sig_g), NormalParams(mu_pi, sig_pi), stalled, evaluations


def render_counts(counts) -> str:
    """Per-block line-search counts as ``block=n`` words, in block order."""
    return " ".join(f"{block}={n}" for block, n in counts.items())


def fit(data: ObservationSet, hyper) -> FitReport:
    """Run coordinate-ascent sweeps until the objective stabilizes.

    Stops when the relative objective change stays below ``elbo_rel_tol``
    for three consecutive sweeps, or at ``max_sweeps``. Deterministic for a
    fixed seed and BLAS thread count.
    """
    rh = hyper.resolve(data)
    if rh.xi > 0 and not data.Z0.any():
        warnings.warn("penalty weight xi > 0 but the known-membership set is empty")
    lap = normalized_laplacian(data.graph, rh.epsilon)
    state = init_state(data, rh)
    stalled = {"cluster": 0, "coupling": 0}
    evaluations = {"cluster": 0, "coupling": 0}

    def cluster_step(s, m):
        theta, stuck, evals = update_cluster(s, data, rh, mom=m)
        stalled["cluster"] += stuck
        evaluations["cluster"] += evals
        return s.updated(cluster_logits=theta)

    def coupling_step(s, m):
        coupling, sparsity, stuck, evals = update_coupling(s, data, rh, lap=lap, mom=m)
        stalled["coupling"] += stuck
        evaluations["coupling"] += evals
        return s.updated(coupling=coupling, sparsity=sparsity)

    # the blocks in sweep order, each with the side of the moments it
    # changes (see factor_moments); no moment depends on q(alpha)
    blocks = {
        "noise": (lambda s, m: s.updated(noise=update_noise(s, data, rh, mom=m)), None),
        "association": (lambda s, m: s.updated(assoc=_association_sweep(s, data, rh, m)), "a"),
        "basis": (lambda s, m: s.updated(basis=_basis_sweep(s, data, rh, m)), "w"),
        "cluster": (cluster_step, "a"),
        "coupling": (coupling_step, "w"),
    }
    block_seconds = {name: 0.0 for name in blocks}

    def run(name, state, mom):
        """Run one block on ``state`` and its moments ``mom``; return the new
        state and its moments, with only the side the block changed
        recomputed. One moments pass per state: the moments behind each
        objective check are the input of the next block."""
        step, side = blocks[name]
        start = time.perf_counter()
        state = step(state, mom)
        block_seconds[name] += time.perf_counter() - start
        return state, factor_moments(state, data, rh, side, mom) if side else mom

    def objective(current, block, mom, member):
        try:
            obj, bound, penalty = regularized_objective(current, data, rh, lap, mom, member)
        except NumericalError as exc:
            raise NumericalError(f"after block '{block}': {exc}") from exc
        if not np.isfinite(obj):
            raise NumericalError(f"non-finite objective after block '{block}'")
        return obj, bound, penalty

    # warm-up: one coupling pass before any factor block, so the curated
    # memberships shape q(Z) before the basis commits to features; pure
    # ascent, so the monotonicity contract is unaffected
    state, mom = run("coupling", state, factor_moments(state, data, rh))
    # the membership terms read only q(g) and q(pi): recomputed after coupling
    member = state_membership_terms(state, data, rh, lap, mom)
    trace = ElboTrace()
    obj, bound, penalty = objective(state, "init", mom, member)
    trace.append(SweepRecord(sweep=0, elbo=bound, penalty=penalty, objective=obj, block_deltas={}))
    status = "max_sweeps"
    quiet = 0
    sweeps_done = 0
    for sweep in range(1, rh.max_sweeps + 1):
        prev_obj = obj
        deltas = {}
        for name in blocks:
            state, mom = run(name, state, mom)
            if name == "coupling":
                member = state_membership_terms(state, data, rh, lap, mom)
            new_obj, new_bound, new_penalty = objective(state, name, mom, member)
            deltas[name] = new_obj - obj
            obj, bound, penalty = new_obj, new_bound, new_penalty

        trace.append(
            SweepRecord(sweep=sweep, elbo=bound, penalty=penalty, objective=obj, block_deltas=deltas)
        )
        sweeps_done = sweep
        rel_change = abs(obj - prev_obj) / max(abs(prev_obj), 1e-12)
        quiet = quiet + 1 if rel_change < rh.elbo_rel_tol else 0
        if quiet >= 3:
            status = "converged"
            break

    if any(stalled.values()):
        warnings.warn(f"line searches accepted no step: {render_counts(stalled)}")
    return FitReport(
        state=state,
        trace=trace,
        status=status,
        sweeps=sweeps_done,
        block_seconds=block_seconds,
        stalled=stalled,
        evaluations=evaluations,
        moments=mom,
    )
