"""Shared builders for small random instances used across the test suite,
the oracle optimizer that the closed-form blocks are checked against, a
memory probe, and the text that the writers write."""

import io
import tracemalloc

import numpy as np
from scipy import optimize

from pathfact import dataio
from pathfact.dist import GammaParams, NormalParams, TruncatedNormalParams
from pathfact.graph import InteractionGraph
from pathfact.model import Hyperparameters, ObservationSet, VariationalState
from pathfact.synth import _draw_edges


def labeled_graph(labels, edges):
    """The graph on ``labels`` whose edges join the label pairs that key the
    mapping ``edges``, weighted by its values."""
    index = {label: i for i, label in enumerate(labels)}
    ends = [index[label] for pair in edges for label in pair]
    return InteractionGraph(labels, ends[0::2], ends[1::2], list(edges.values()))


def make_graph(rng, feature_ids, edge_prob=0.3):
    """Unit-weight Erdos-Renyi graph; isolated nodes stay isolated."""
    heads, tails = _draw_edges(len(feature_ids), rng, lambda rows, cols: edge_prob)
    return InteractionGraph(feature_ids, heads, tails, np.ones(len(heads)))


def make_dataset(rng, n=6, d=5, k=2, r=3, edge_prob=0.3, mask_prob=0.4):
    feature_ids = tuple(f"G{j:03d}" for j in range(d))
    sample_ids = tuple(f"S{i:03d}" for i in range(n))
    cluster_ids = tuple(f"C{c}" for c in range(k))
    set_ids = tuple(f"SET{s:02d}" for s in range(r))
    x = rng.normal(size=(n, d))
    u0 = np.zeros((n, k))
    u0[np.arange(n), rng.integers(0, k, size=n)] = 1.0
    z0 = (rng.random(size=(d, r)) < mask_prob).astype(int)
    graph = make_graph(rng, feature_ids, edge_prob)
    return ObservationSet(
        X=x,
        U0=u0,
        Z0=z0,
        graph=graph,
        sample_ids=sample_ids,
        feature_ids=feature_ids,
        cluster_ids=cluster_ids,
        set_ids=set_ids,
    )


def make_state(rng, data, spread=1.0):
    n, d = data.X.shape
    k, r = data.n_clusters, data.n_sets
    return VariationalState(
        noise=GammaParams(rng.uniform(0.5, 4.0), rng.uniform(0.5, 4.0)),
        assoc=TruncatedNormalParams(
            location=rng.normal(0.5, spread, size=(k, r)),
            scale_sq=rng.uniform(0.1, 2.0, size=(k, r)),
        ),
        basis=NormalParams(
            mean=rng.normal(0.0, spread, size=(d, r)),
            variance=rng.uniform(0.1, 2.0, size=(d, r)),
        ),
        coupling=NormalParams(
            mean=rng.normal(0.0, spread, size=(d, r)),
            variance=rng.uniform(0.1, 2.0, size=(d, r)),
        ),
        sparsity=NormalParams(
            mean=rng.normal(0.0, spread, size=r),
            variance=rng.uniform(0.1, 2.0, size=r),
        ),
        cluster_logits=rng.normal(0.0, spread, size=(n, k)),
    )


def deep_tail_state(rng, data):
    """A state whose membership margins lie near -20 in every set but the
    first, with the basis means there of the order of q(Z=1), as the basis
    update leaves them far in the tail: the entries of E[W] fall far below
    sqrt(tiny), and most of their squares underflow."""
    state = make_state(rng, data)
    d, r = data.n_features, data.n_sets
    margins = rng.uniform(-21.0, -19.0, size=(d, r - 1))
    mean_g = state.coupling.mean.copy()
    mean_g[:, 1:] = -margins  # q(g) and q(pi) have variance 1/2, so root = 1
    var_g = np.full((d, r), 0.5)
    mean_v = state.basis.mean.copy()
    mean_v[:, 1:] *= np.exp(-0.5 * margins**2) / 20.0
    return state.updated(
        coupling=NormalParams(mean_g, var_g),
        sparsity=NormalParams(np.zeros(r), np.full(r, 0.5)),
        basis=NormalParams(mean_v, state.basis.variance),
    )


def oracle_state(truth, data):
    """State whose moments reproduce the planted truth almost exactly."""
    k, r = truth.associations.shape
    d = truth.basis.shape[0]
    n = truth.noiseless_mean.shape[0]
    return VariationalState(
        noise=GammaParams(1e6 * truth.noise_precision, 1e6),
        assoc=TruncatedNormalParams(truth.associations, np.full((k, r), 1e-18)),
        basis=NormalParams(truth.basis, np.full((d, r), 1e-18)),
        coupling=NormalParams(
            np.where(truth.membership == 1, -40.0, 40.0), np.full((d, r), 1e-12)
        ),
        sparsity=NormalParams(np.zeros(r), np.full(r, 1e-12)),
        cluster_logits=np.zeros((n, k)),
    )


def default_hyper(**overrides):
    base = dict(
        alpha_a0=1.0,
        alpha_b0=1.0,
        lambda_s0=1.0,
        mu_v0=0.0,
        sigma_v0=1.0,
        beta_a=1.0,
        zeta=0.9,
        xi=10.0,
        epsilon=0.05,
        max_sweeps=50,
        elbo_rel_tol=1e-6,
        seed=0,
    )
    base.update(overrides)
    return Hyperparameters(**base)


def polished_minimum(fun, x0):
    """Nelder-Mead, then coordinate-wise Brent refinement, then
    coordinate-wise Newton steps on central differences; oracle optimizer.

    Near its minimum an objective of size F is flat to rounding over a width
    of about sqrt(F * eps / curvature), which Brent on function values cannot
    resolve (about 2.6e-7 for a basis site where F = 325). A difference
    quotient over a step h = 1e-4 resolves the minimum to about
    F * eps / (curvature * h), and is exact in a coordinate where
    the objective is quadratic. A Newton step is kept only when it does not
    raise the objective."""
    res = optimize.minimize(
        fun, x0, method="Nelder-Mead", options=dict(xatol=1e-12, fatol=1e-14, maxiter=5000)
    )
    x = res.x.copy()
    for _ in range(2):
        for i in range(x.size):
            def along(v, i=i):
                xi = x.copy()
                xi[i] = v
                return fun(xi)

            bracket = optimize.minimize_scalar(
                along, bracket=(x[i] - 0.5, x[i] + 0.5), options=dict(xtol=1e-13)
            )
            x[i] = bracket.x
    for _ in range(3):
        for i in range(x.size):
            step = np.zeros_like(x)
            step[i] = 1e-4
            f0, fp, fm = fun(x), fun(x + step), fun(x - step)
            curvature = fp - 2.0 * f0 + fm
            if curvature > 0:
                cand = x - step * (fp - fm) / (2.0 * curvature)
                if fun(cand) <= f0:
                    x = cand
    return x


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the most bytes it held at once, as
    tracemalloc counts them; numpy reports its buffers to tracemalloc, and
    what the call returns is counted too."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def render_matrix(*args, **kwargs):
    """The text :func:`dataio.write_labeled_matrix` writes for these
    arguments."""
    out = io.StringIO()
    dataio.write_labeled_matrix(out, *args, **kwargs)
    return out.getvalue()


def render_expression(expr):
    """(matrix_text, label_text) that :func:`dataio.write_expression`
    writes for ``expr``."""
    matrix_out, labels_out = io.StringIO(), io.StringIO()
    dataio.write_expression(expr, matrix_out, labels_out)
    return matrix_out.getvalue(), labels_out.getvalue()
