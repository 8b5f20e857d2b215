"""Interaction-graph prior: normalized Laplacian and the smoothing precision.

The coupling functions over features get a Gaussian Markov random field
prior whose precision is the jittered normalized Laplacian, so values on
connected features are pulled together while isolated features fall back
to an independent unit-variance prior.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu


@dataclass(frozen=True)
class InteractionGraph:
    """Undirected weighted graph over an ordered feature universe.

    ``edges`` maps label pairs (stored in sorted order) to positive weights.
    Self-loops are disallowed; endpoints must be known labels.
    """

    node_labels: tuple
    edges: dict = field(default_factory=dict)

    def __post_init__(self):
        labels = tuple(self.node_labels)
        object.__setattr__(self, "node_labels", labels)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate node labels in interaction graph")
        known = set(labels)
        canonical = {}
        for (a, b), w in dict(self.edges).items():
            if a == b:
                raise ValueError(f"self-loop on node {a!r}")
            if a not in known or b not in known:
                raise ValueError(f"edge ({a!r}, {b!r}) references unknown node")
            if not 0 <= w < np.inf:  # NaN fails both
                raise ValueError(f"weight {w} on edge ({a!r}, {b!r}) is not finite and nonnegative")
            key = (a, b) if a <= b else (b, a)
            canonical[key] = float(w)
        object.__setattr__(self, "edges", canonical)

    @property
    def n_nodes(self):
        return len(self.node_labels)

    @property
    def n_edges(self):
        return len(self.edges)

    def adjacency(self):
        """Symmetric sparse adjacency in node-label order."""
        index = {lbl: i for i, lbl in enumerate(self.node_labels)}
        n = self.n_nodes
        rows, cols, vals = [], [], []
        for (a, b), w in self.edges.items():
            i, j = index[a], index[b]
            rows += [i, j]
            cols += [j, i]
            vals += [w, w]
        return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))

    def subgraph(self, labels):
        """Induced subgraph on ``labels``, which become the new node order."""
        keep = set(labels)
        missing = keep - set(self.node_labels)
        if missing:
            raise ValueError(f"labels not in graph: {sorted(missing)[:5]}")
        edges = {
            pair: w for pair, w in self.edges.items() if pair[0] in keep and pair[1] in keep
        }
        return InteractionGraph(node_labels=tuple(labels), edges=edges)


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
    if graph.n_nodes < 1:
        raise ValueError("graph must have at least one node")
    if jitter < 0:
        raise ValueError("jitter must be nonnegative")
    # L itself is singular on any graph with edges; precision needs jitter
    if graph.n_edges and not jitter > 0:
        raise ValueError("jitter must be positive for a graph with edges")
    adj = graph.adjacency().tocoo()
    degrees = np.asarray(adj.sum(axis=1)).ravel()
    inv_root = np.zeros_like(degrees)
    nz = degrees > 0
    inv_root[nz] = 1.0 / np.sqrt(degrees[nz])
    scaled = sparse.coo_matrix(
        (adj.data * inv_root[adj.row] * inv_root[adj.col], (adj.row, adj.col)),
        shape=adj.shape,
    )
    n = graph.n_nodes
    lap = (sparse.identity(n, format="csr") - scaled.tocsr()).tocsr()
    prec = (lap + jitter * sparse.identity(n, format="csr")).tocsr()
    try:
        log_det = _sparse_log_det(prec)
    except MemoryError:
        msg = f"out of memory in the graph precision's sparse LU (D={n}, {graph.n_edges} edges)"
        raise MemoryError(msg) from None
    return LaplacianOperator(
        laplacian=lap,
        jitter=float(jitter),
        precision=prec,
        precision_diag=prec.diagonal().copy(),
        log_det_precision=log_det,
    )


def _sparse_log_det(matrix) -> float:
    # the precision is symmetric positive definite, so diagonal pivots under a
    # symmetric minimum-degree ordering are stable and fill far less than the
    # default column ordering
    lu = splu(
        matrix.tocsc(),
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    diag = lu.U.diagonal()
    if np.any(diag == 0):
        raise ValueError("precision matrix is singular")
    return float(np.sum(np.log(np.abs(diag))))

