"""Planted-truth data generation and recovery scoring.

The generator samples the full generative process (memberships from the
graph-coupled threshold prior, nonnegative associations, Gaussian basis,
Gaussian noise) and then hides a controlled fraction of the true
memberships, mimicking an incomplete curated database. Scoring measures
how much of the hidden structure a fit recovers.
"""

from dataclasses import dataclass

import numpy as np

from .graph import InteractionGraph, precision_lu, precision_root
from .model import Hyperparameters, ObservationSet, expected_reconstruction, factor_moments, rank_row
from .dist import std_normal_quantile

# rows of the pair triangle drawn at once by _draw_edges; at D = 20,000 a
# block holds at most 1.3 million pairs
_EDGE_BLOCK_ROWS = 64


@dataclass(frozen=True)
class PlantedTruth:
    """Ground truth behind a generated dataset.

    ``shown_mask`` is the corrupted copy of ``membership`` the model sees;
    corruption only deletes ones, it never invents memberships.
    """

    associations: np.ndarray  # K x R, nonnegative
    basis: np.ndarray  # D x R
    membership: np.ndarray  # D x R binary
    shown_mask: np.ndarray  # D x R binary, subset of membership
    noise_precision: float
    noiseless_mean: np.ndarray  # N x D


@dataclass(frozen=True)
class RecoveryMetrics:
    precision_at_m: float
    rmse: float
    mask_auc: float
    sign_agreement: float


def _draw_edges(d, rng, edge_prob):
    """Heads and tails of independent edges over the pairs i < j of ``d``
    nodes, in row-major order.

    ``edge_prob(rows, cols)`` gives each pair's probability. One uniform is
    drawn per pair in that order, ``_EDGE_BLOCK_ROWS`` rows at a time, so the
    edges, their order and the generator's state afterwards equal those of
    a nested loop that calls ``rng.random()`` once per pair.
    """
    heads, tails = [np.empty(0, np.intp)], [np.empty(0, np.intp)]
    for start in range(0, d, _EDGE_BLOCK_ROWS):
        rows, cols = np.triu_indices(min(_EDGE_BLOCK_ROWS, d - start), start + 1, d)
        rows += start
        hit = rng.random(rows.size) < edge_prob(rows, cols)
        heads.append(rows[hit])
        tails.append(cols[hit])
    return np.concatenate(heads), np.concatenate(tails)


def _join_isolated(d, heads, tails, partner):
    """``heads`` and ``tails`` with each of the ``d`` nodes they leave
    isolated, in node order, joined to node ``partner(i)`` so the edge-list
    serialization stays lossless. A single node has no partner and stays
    alone."""
    degree = np.bincount(np.concatenate((heads, tails)), minlength=d)
    joined = []
    for i in np.flatnonzero(degree == 0).tolist():
        if degree[i] == 0 and d > 1:  # an earlier join may have reached node i
            j = partner(i)
            joined.append((i, j))
            degree[[i, j]] += 1
    joined = np.array(joined, dtype=np.intp).reshape(-1, 2)
    return np.concatenate((heads, joined[:, 0])), np.concatenate((tails, joined[:, 1]))


def random_graph(feature_ids, edge_prob, rng) -> InteractionGraph:
    """Erdos-Renyi graph over the features; isolated nodes are joined to
    their ring neighbor."""
    d = len(feature_ids)
    heads, tails = _draw_edges(d, rng, lambda rows, cols: edge_prob)
    heads, tails = _join_isolated(d, heads, tails, lambda i: (i + 1) % d)
    return InteractionGraph(feature_ids, heads, tails, np.ones(len(heads)))


def community_graph(feature_ids, assignment, p_in, p_out, rng) -> InteractionGraph:
    """Planted-partition graph: dense within communities, sparse across.

    Isolated nodes are joined to their first community mate, or to their
    ring neighbor when they have none.
    """
    assignment = np.asarray(assignment)
    d = len(feature_ids)
    heads, tails = _draw_edges(
        d, rng, lambda rows, cols: np.where(assignment[rows] == assignment[cols], p_in, p_out)
    )

    def mate(i):
        mates = np.flatnonzero(assignment == assignment[i])
        mates = mates[mates != i]
        return mates[0] if mates.size else (i + 1) % d

    heads, tails = _join_isolated(d, heads, tails, mate)
    return InteractionGraph(feature_ids, heads, tails, np.ones(len(heads)))


def sample_membership(graph, jitter, n_sets, a, rng):
    """One draw of (Z, G, pi_bar) from the coupled threshold prior, with set levels
    Beta(a, 1). G = P^{-1} B^T E, for P = B^T B the graph's precision and E standard
    normal, has covariance exactly P^{-1}; each set draws its m + D normals in turn."""
    root = precision_root(graph, jitter)
    pi = rng.beta(a, 1.0, size=n_sets)
    pi_bar = std_normal_quantile(np.clip(pi, 1e-300, 1 - 1e-16))
    step = max(1, (1 << 20) // root.shape[0])  # sets per block, which holds <= 2^20 normals
    noise = np.vstack([rng.standard_normal((min(step, n_sets - j), root.shape[0])) @ root
                       for j in range(0, n_sets, step)]).T
    g = precision_lu(graph, root.T @ root).solve(noise)
    return (g < pi_bar[None, :]).astype(int), g, pi_bar


def _patch_coverage(z, g, pi_bar, min_members=1):
    """Force every feature into >= 1 set and every set up to >= min_members
    members by flipping the entries closest to their activation threshold."""
    margin = pi_bar[None, :] - g
    for j in np.flatnonzero(z.sum(axis=1) == 0):
        z[j, int(np.argmax(margin[j]))] = 1
    for r in range(z.shape[1]):
        deficit = min_members - int(z[:, r].sum())
        if deficit > 0:
            candidates = np.flatnonzero(z[:, r] == 0)
            best = candidates[np.argsort(-margin[candidates, r], kind="stable")]
            z[best[:deficit], r] = 1
    return z


def _corrupt_mask(z, rho, rng, keep_features):
    """Delete about a rho-fraction of the ones, never inserting any.

    Every set keeps one shown member; with ``keep_features`` every feature
    also keeps one shown set.
    """
    shown = z.copy()
    ones = np.argwhere(shown == 1)
    n_delete = int(round(rho * len(ones)))
    if n_delete == 0:
        return shown
    deleted = 0
    for idx in rng.permutation(len(ones)):
        if deleted == n_delete:
            break
        j, r = ones[idx]
        if shown[:, r].sum() <= 1 or (keep_features and shown[j].sum() <= 1):
            continue
        shown[j, r] = 0
        deleted += 1
    return shown


def _ids(dims):
    """Sample, cluster, feature and set ids, zero-padded to one width."""
    n, k, d, r = dims
    pad = max(2, len(str(max(n, d, r, k) - 1)))
    return (
        tuple(f"S{i:0{pad}d}" for i in range(n)),
        tuple(f"C{c:0{pad}d}" for c in range(k)),
        tuple(f"G{j:0{pad}d}" for j in range(d)),
        tuple(f"SET{s:0{pad}d}" for s in range(r)),
    )


def _check_plant(noise_precision, snr, corruption):
    """Reject bad settings of :func:`_plant` before a generator's first draw."""
    if not 0.0 <= corruption < 0.5:
        raise ValueError("corruption must lie in [0, 0.5)")
    if noise_precision is not None and snr is not None:
        raise ValueError("give either noise_precision or snr, not both")
    level = snr if noise_precision is None else noise_precision
    if not (level is None or level > 0):  # also rejects nan
        raise ValueError("noise precision must be positive")


def _plant(rng, ids, z, graph, *, noise_precision, snr, corruption, keep_features):
    """The dataset and truth around memberships ``z`` and ``graph``.

    Draws the associations S ~ Exp(1), the basis V ~ N(0, 1) and the noise,
    with one-hot round-robin clusters, then hides a ``corruption`` share of
    ``z`` from the model (see :func:`_corrupt_mask` for ``keep_features``).
    """
    sample_ids, cluster_ids, feature_ids, set_ids = ids
    n, k, d, r = len(sample_ids), len(cluster_ids), len(feature_ids), len(set_ids)
    s = rng.exponential(size=(k, r))
    v = rng.standard_normal((d, r))
    u0 = np.zeros((n, k))
    u0[np.arange(n), np.arange(n) % k] = 1.0

    mean = u0 @ s @ (z * v).T
    if snr is not None:
        signal_var = float(mean.var())
        if signal_var == 0:
            raise ValueError("zero-variance signal; snr is undefined")
        gamma = snr / signal_var
    else:
        gamma = 1.0 if noise_precision is None else float(noise_precision)
    x = mean + rng.normal(0.0, 1.0 / np.sqrt(gamma), size=(n, d))

    shown = _corrupt_mask(z, corruption, rng, keep_features)

    data = ObservationSet(
        X=x,
        U0=u0,
        Z0=shown,
        graph=graph,
        sample_ids=sample_ids,
        feature_ids=feature_ids,
        cluster_ids=cluster_ids,
        set_ids=set_ids,
    )
    truth = PlantedTruth(
        associations=s,
        basis=v,
        membership=z,
        shown_mask=shown,
        noise_precision=gamma,
        noiseless_mean=mean,
    )
    return data, truth


def generate(
    dims,
    *,
    edge_prob: float = 0.15,
    beta_a: float = None,
    noise_precision: float = None,
    snr: float = None,
    corruption: float = 0.0,
    epsilon: float = 0.05,
    seed: int = 0,
    min_members: int = 1,
):
    """Sample a dataset with planted ground truth.

    ``dims`` is (n_samples, n_clusters, n_features, n_sets). Exactly one of
    ``noise_precision`` or ``snr`` picks the noise level (default precision
    1.0). ``corruption`` in [0, 0.5) is the fraction of true memberships
    hidden from the model; every set and every feature keeps one shown
    membership. ``min_members`` pads undersized sets with their
    nearest-to-threshold features so every planted association has enough
    data behind it to be estimable. Deterministic given ``seed``. Every
    setting is checked before the first draw.
    """
    n, k, d, r = dims
    if min(n, k, d, r) < 1 or k > n:
        raise ValueError("degenerate dimensions")
    if not 0 <= edge_prob <= 1:
        raise ValueError("edge_prob must lie in [0, 1]")
    hyper = Hyperparameters(beta_a=beta_a, epsilon=epsilon, seed=seed)  # the model's own checks
    hyper.check_epsilon(d > 1)  # random_graph joins every isolated node
    _check_plant(noise_precision, snr, corruption)
    if min_members > d:
        raise ValueError("min_members cannot exceed the feature count")
    rng = np.random.default_rng(seed)
    ids = _ids(dims)

    graph = random_graph(ids[2], edge_prob, rng)
    z, g, pi_bar = sample_membership(graph, epsilon, r, hyper.set_shape(r), rng)
    z = _patch_coverage(z, g, pi_bar, min_members=min_members)

    return _plant(
        rng, ids, z, graph, noise_precision=noise_precision, snr=snr,
        corruption=corruption, keep_features=True,
    )


def generate_planted(
    dims,
    *,
    p_in: float = 0.35,
    p_out: float = 0.02,
    noise_precision: float = None,
    snr: float = None,
    corruption: float = 0.0,
    seed: int = 0,
):
    """Benchmark variant with identifiable planted structure.

    Features are partitioned into equally sized disjoint sets and the
    interaction graph is built as communities over that partition, so a
    member deleted from the shown mask keeps in-set neighbors whose graph
    coupling can pull it back in. Hiding keeps every set nonempty, but a
    feature may lose all its shown memberships. This is the recovery
    benchmark; use :func:`generate` to sample the model's own prior.
    """
    n, k, d, r = dims
    if min(n, k, d, r) < 1 or k > n or r > d:
        raise ValueError("degenerate dimensions")
    _check_plant(noise_precision, snr, corruption)
    rng = np.random.default_rng(seed)
    ids = _ids(dims)

    assignment = rng.permutation(np.arange(d) % r)
    z = np.zeros((d, r), dtype=int)
    z[np.arange(d), assignment] = 1
    graph = community_graph(ids[2], assignment, p_in, p_out, rng)

    return _plant(
        rng, ids, z, graph, noise_precision=noise_precision, snr=snr,
        corruption=corruption, keep_features=False,
    )


def ranking_auc(scores, labels):
    """Area under the ROC curve via the rank-sum statistic (ties averaged).

    Returns nan when either class is absent or any score is nan.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0 or np.isnan(scores).any():
        return float("nan")
    # average ranks: a run of equal scores shares the mean of its positions
    _, inv, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inv]
    u = ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def score_arrays(
    assoc_mean, recon, z_marginal, basis_mean, truth: PlantedTruth, top_m: int
) -> RecoveryMetrics:
    """Recovery metrics from posterior summaries against the planted truth.

    - precision_at_m: overlap of fitted and planted top sets, averaged over
      clusters
    - rmse: reconstruction error against the noiseless planted mean
    - mask_auc: ranking skill of q(Z=1) on entries hidden from the model
    - sign_agreement: basis sign accuracy on true memberships
    """
    assoc_mean = np.asarray(assoc_mean, dtype=float)
    k, r = assoc_mean.shape
    if truth.associations.shape != (k, r):
        raise ValueError("association shape mismatch against truth")

    def top(matrix, cluster):
        return {j for j, _ in rank_row(matrix[cluster], range(r), top_m)}

    hits = sum(len(top(assoc_mean, c) & top(truth.associations, c)) for c in range(k))
    precision = hits / (k * top_m)

    rmse = float(np.sqrt(np.mean((np.asarray(recon) - truth.noiseless_mean) ** 2)))

    hidden = truth.shown_mask == 0
    auc = ranking_auc(np.asarray(z_marginal)[hidden], truth.membership[hidden])

    active = truth.membership == 1
    agree = float(
        np.mean(np.sign(np.asarray(basis_mean)[active]) == np.sign(truth.basis[active]))
    )
    return RecoveryMetrics(
        precision_at_m=float(precision), rmse=rmse, mask_auc=auc, sign_agreement=agree
    )


def score(report, truth: PlantedTruth, data: ObservationSet, hyper, top_m: int = 5):
    """Score a fit report against the truth that generated ``data``, from
    the final moments the report holds; they are computed when it holds
    none."""
    mom = report.moments or factor_moments(report.state, data, hyper)
    recon = expected_reconstruction(report.state, data, hyper, mom=mom)
    return score_arrays(mom.s_mean, recon, mom.rho, report.state.basis.mean, truth, top_m)
