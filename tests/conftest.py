"""Shared builders for small random instances used across the test suite."""

import numpy as np

from pathfact.dist import GammaParams, NormalParams, TruncatedNormalParams
from pathfact.graph import InteractionGraph
from pathfact.model import Hyperparameters, ObservationSet, VariationalState


def make_graph(rng, feature_ids, edge_prob=0.3):
    edges = {}
    d = len(feature_ids)
    for i in range(d):
        for j in range(i + 1, d):
            if rng.random() < edge_prob:
                edges[(feature_ids[i], feature_ids[j])] = 1.0
    return InteractionGraph(node_labels=tuple(feature_ids), edges=edges)


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


def oracle_state(truth, data):
    """State whose moments reproduce the planted truth almost exactly."""
    k, r = truth.associations.shape
    d = truth.basis.shape[0]
    n = truth.cluster_onehot.shape[0]
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
