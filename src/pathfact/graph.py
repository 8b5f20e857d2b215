"""Interaction-graph prior: normalized Laplacian, the smoothing precision and its factors.

The coupling functions over features get a Gaussian Markov random field
prior whose precision is the jittered normalized Laplacian, so values on
connected features are pulled together while isolated features fall back
to an independent unit-variance prior.
"""

from dataclasses import dataclass
from itertools import repeat

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu


def _label_ranks(labels):
    """Each label's position in the sorted order of ``labels`` (distinct)."""
    ranks = np.empty(len(labels), dtype=np.intp)
    ranks[sorted(range(len(labels)), key=labels.__getitem__)] = np.arange(len(labels))
    return ranks


@dataclass(frozen=True, eq=False, init=False)
class InteractionGraph:
    """Undirected weighted graph over an ordered feature universe.

    Edge k joins nodes ``heads[k]`` and ``tails[k]``, indices into
    ``node_labels`` with the head's label the smaller, and weighs
    ``weights[k]``. The three arrays are read-only. No pair repeats, there
    are no self-loops, and weights are finite and nonnegative.
    """

    node_labels: tuple
    heads: np.ndarray
    tails: np.ndarray
    weights: np.ndarray

    def __init__(self, node_labels, heads=(), tails=(), weights=()):
        """Edge k joins nodes ``heads[k]`` and ``tails[k]``, in either order,
        with weight ``weights[k]``. Each pair is oriented in label order and a
        repeated pair is merged into its first position with its largest
        weight."""
        labels = tuple(node_labels)
        n = len(labels)
        if len(set(labels)) != n:
            raise ValueError("duplicate node labels in interaction graph")
        heads = np.asarray(heads, dtype=np.intp)
        tails = np.asarray(tails, dtype=np.intp)
        weights = np.array(weights, dtype=float)
        unknown = (np.minimum(heads, tails) < 0) | (np.maximum(heads, tails) >= n)
        bad = unknown | (heads == tails) | ~((weights >= 0) & (weights < np.inf))
        if bad.any():
            k = int(np.argmax(bad))
            a, b = (labels[i] if 0 <= i < n else int(i) for i in (heads[k], tails[k]))
            if a == b:
                raise ValueError(f"self-loop on node {a!r}")
            if unknown[k]:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown node")
            w = float(weights[k])
            raise ValueError(f"weight {w} on edge ({a!r}, {b!r}) is not finite and nonnegative")
        ranks = _label_ranks(labels)
        swap = ranks[heads] > ranks[tails]
        heads, tails = np.where(swap, tails, heads), np.where(swap, heads, tails)
        key = heads * n + tails
        order = np.argsort(key, kind="stable")
        key = key[order]
        repeated = key[1:] == key[:-1]
        if repeated.any():
            starts = np.flatnonzero(~np.concatenate(([False], repeated)))
            first = order[starts]  # the stable sort keeps each pair's first position
            weights = np.maximum.reduceat(weights[order], starts)
            by_position = np.argsort(first)
            first, weights = first[by_position], weights[by_position]
            heads, tails = heads[first], tails[first]
        for array in (heads, tails, weights):
            array.flags.writeable = False
        object.__setattr__(self, "node_labels", labels)
        object.__setattr__(self, "heads", heads)
        object.__setattr__(self, "tails", tails)
        object.__setattr__(self, "weights", weights)

    @property
    def n_nodes(self):
        return len(self.node_labels)

    @property
    def n_edges(self):
        return len(self.weights)

    @property
    def edges(self):
        """A new mapping from label pairs, the smaller label first, to
        weights, in edge order."""
        at = self.node_labels.__getitem__
        pairs = zip(map(at, self.heads.tolist()), map(at, self.tails.tolist()))
        return dict(zip(pairs, self.weights.tolist()))

    def subgraph(self, labels):
        """Induced subgraph on ``labels``, which become the new node order."""
        labels = tuple(labels)
        index = dict(zip(self.node_labels, range(self.n_nodes)))
        old = np.fromiter(map(index.get, labels, repeat(-1)), np.intp, len(labels))
        if (old < 0).any():
            missing = {lbl for lbl in labels if lbl not in index}
            raise ValueError(f"labels not in graph: {sorted(missing)[:5]}")
        new = np.full(self.n_nodes, -1, dtype=np.intp)
        new[old] = np.arange(len(labels))
        heads, tails = new[self.heads], new[self.tails]
        kept = (heads >= 0) & (tails >= 0)
        return InteractionGraph(labels, heads[kept], tails[kept], self.weights[kept])


@dataclass(frozen=True)
class LaplacianOperator:
    """Normalized Laplacian L with jittered precision P = L + eps*I.

    The log-determinant of P and its diagonal are precomputed once; the
    operator is immutable afterwards, so one instance serves a whole fit.
    """

    laplacian: sparse.csr_matrix
    jitter: float
    precision: sparse.csr_matrix
    precision_diag: np.ndarray
    log_det_precision: float


def normalized_laplacian(graph: InteractionGraph, jitter: float = 0.05) -> LaplacianOperator:
    """Build L = I - D^{-1/2} A D^{-1/2} and its jittered precision.

    Rows and columns follow the graph's node-label order. Isolated nodes get
    L_jj = 1 with zero off-diagonals, i.e. an independent standard-normal
    coupling prior for that feature.
    """
    _check_jitter(graph, jitter)
    lap = _laplacian(graph)  # its temporaries are freed before the sparse LU
    prec = (lap + jitter * sparse.identity(graph.n_nodes, format="csr")).tocsr()
    log_det = float(np.sum(np.log(np.abs(precision_lu(graph, prec).U.diagonal()))))
    return LaplacianOperator(lap, float(jitter), prec, prec.diagonal().copy(), log_det)


def precision_root(graph: InteractionGraph, jitter: float) -> sparse.csr_matrix:
    """The (m + D) x D matrix B with B^T B = L + jitter*I on a graph of m
    edges: one row sqrt(w) (e_h / sqrt(d_h) - e_t / sqrt(d_t)) per edge,
    then the diagonal sqrt(jitter + [d_j = 0])."""
    _check_jitter(graph, jitter)
    m, n, inv_root = graph.n_edges, graph.n_nodes, _inverse_root_degrees(graph)
    h, t, root_w, diag = graph.heads, graph.tails, np.sqrt(graph.weights), np.arange(n)
    values = (root_w * inv_root[h], -root_w * inv_root[t], np.sqrt(jitter + (inv_root == 0)))
    rows = np.concatenate((np.arange(m), np.arange(m), m + diag))
    cols = np.concatenate((h, t, diag))
    return sparse.csr_matrix((np.concatenate(values), (rows, cols)), shape=(m + n, n))


def precision_lu(graph: InteractionGraph, precision):
    """Sparse LU of ``precision``, L + jitter*I or its B^T B on ``graph``."""
    # SPD, so diagonal pivots on a symmetric minimum-degree order are stable and fill little
    try:
        return splu(precision.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                    options={"SymmetricMode": True})
    except MemoryError:
        raise MemoryError("out of memory in the graph precision's sparse LU "
                          f"(D={graph.n_nodes}, {graph.n_edges} edges)") from None


def _check_jitter(graph, jitter):
    """Reject a graph and jitter whose L + jitter*I is not positive definite."""
    if graph.n_nodes < 1:
        raise ValueError("graph must have at least one node")
    if not jitter >= 0:  # also rejects nan
        raise ValueError("jitter must be nonnegative")
    # L itself is singular on any graph with edges; precision needs jitter
    if graph.n_edges and not jitter > 0:
        raise ValueError("jitter must be positive for a graph with edges")


def _inverse_root_degrees(graph):
    """D^{-1/2}: each node's weighted degree to the power -1/2, 0 if it is 0."""
    n = graph.n_nodes
    rows = np.concatenate((graph.heads, graph.tails))
    cols = np.concatenate((graph.tails, graph.heads))
    # each degree sums its row in column order, whatever the edge order
    order = np.argsort(rows * n + cols, kind="stable")
    degrees = np.bincount(rows[order], np.tile(graph.weights, 2)[order], n)
    return np.divide(1.0, np.sqrt(degrees), out=np.zeros(n), where=degrees > 0)


def _laplacian(graph):
    """L = I - D^{-1/2} A D^{-1/2} in CSR form, from the edge arrays."""
    n, h, t, inv_root = graph.n_nodes, graph.heads, graph.tails, _inverse_root_degrees(graph)
    # one product per edge, stored at (h, t) and at (t, h), keeps L exactly symmetric
    off = -(graph.weights * inv_root[h] * inv_root[t])
    diag = np.arange(n)
    lap = sparse.csr_matrix(
        (np.concatenate((off, off, np.ones(n))),
         (np.concatenate((h, t, diag)), np.concatenate((t, h, diag)))),
        shape=(n, n),
    )
    lap.eliminate_zeros()  # a zero-weight edge stores no entry
    return lap
