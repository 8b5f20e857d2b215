import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from pathfact.graph import InteractionGraph, normalized_laplacian


def random_graph(n_nodes, edge_prob, rng):
    labels = tuple(f"g{i:03d}" for i in range(n_nodes))
    edges = {}
    for i in range(n_nodes):
        for j in range(i + 1, n_nodes):
            if rng.random() < edge_prob:
                edges[(labels[i], labels[j])] = 1.0
    return InteractionGraph(node_labels=labels, edges=edges)


class TestInteractionGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            InteractionGraph(node_labels=("a", "b"), edges={("a", "a"): 1.0})

    def test_rejects_unknown_node(self):
        with pytest.raises(ValueError):
            InteractionGraph(node_labels=("a",), edges={("a", "b"): 1.0})

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            InteractionGraph(node_labels=("a", "a"))

    @pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_weight_not_finite_and_nonnegative(self, w):
        with pytest.raises(ValueError, match=r"on edge \('a', 'b'\) is not finite and nonnegative"):
            InteractionGraph(node_labels=("a", "b"), edges={("a", "b"): w})

    def test_edges_stored_symmetrically(self):
        g = InteractionGraph(node_labels=("b", "a"), edges={("b", "a"): 2.0})
        assert g.edges == {("a", "b"): 2.0}
        adj = g.adjacency().toarray()
        np.testing.assert_array_equal(adj, adj.T)

    def test_subgraph_induced(self):
        g = InteractionGraph(
            node_labels=("a", "b", "c"), edges={("a", "b"): 1.0, ("b", "c"): 1.0}
        )
        sub = g.subgraph(["c", "b"])
        assert sub.node_labels == ("c", "b")
        assert sub.edges == {("b", "c"): 1.0}


class TestNormalizedLaplacian:
    def test_empty_graph_is_identity(self):
        g = InteractionGraph(node_labels=("a", "b", "c"))
        lap = normalized_laplacian(g, jitter=0.0)
        np.testing.assert_array_equal(lap.laplacian.toarray(), np.eye(3))

    def test_path_graph(self):
        g = InteractionGraph(
            node_labels=("a", "b", "c"), edges={("a", "b"): 1.0, ("b", "c"): 1.0}
        )
        lap = normalized_laplacian(g, jitter=0.05)
        L = lap.laplacian.toarray()
        # degrees (1, 2, 1): off-diagonal entries -1/sqrt(2)
        np.testing.assert_allclose(np.diag(L), [1.0, 1.0, 1.0])
        assert L[0, 1] == pytest.approx(-1.0 / np.sqrt(2.0))
        assert L[1, 2] == pytest.approx(-1.0 / np.sqrt(2.0))
        assert L[0, 2] == 0.0

    def test_triangle_graph(self):
        g = InteractionGraph(
            node_labels=("a", "b", "c"),
            edges={("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 1.0},
        )
        lap = normalized_laplacian(g, jitter=0.05)
        L = lap.laplacian.toarray()
        off = L[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, -0.5)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(L)), [0.0, 1.5, 1.5], atol=1e-12)

    def test_isolated_node_row(self):
        g = InteractionGraph(node_labels=("a", "b", "iso"), edges={("a", "b"): 1.0})
        L = normalized_laplacian(g, jitter=0.1).laplacian.toarray()
        np.testing.assert_array_equal(L[2], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(L[:, 2], [0.0, 0.0, 1.0])

    def test_weighted_degrees(self):
        g = InteractionGraph(node_labels=("a", "b", "c"), edges={("a", "b"): 4.0, ("b", "c"): 1.0})
        L = normalized_laplacian(g, jitter=0.05).laplacian.toarray()
        # degrees: a=4, b=5, c=1
        assert L[0, 1] == pytest.approx(-4.0 / np.sqrt(4.0 * 5.0))
        assert L[1, 2] == pytest.approx(-1.0 / np.sqrt(5.0))

    def test_exact_symmetry_random(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            g = random_graph(30, 0.1, rng)
            L = normalized_laplacian(g, jitter=0.05).laplacian
            assert (L != L.T).nnz == 0

    def test_eigenvalues_in_zero_two_random(self):
        rng = np.random.default_rng(1)
        for trial in range(20):
            n = int(rng.integers(2, 201))
            g = random_graph(n, float(rng.uniform(0.01, 0.3)), rng)
            L = normalized_laplacian(g, jitter=0.05).laplacian.toarray()
            eigs = np.linalg.eigvalsh(L)
            assert eigs.min() >= -1e-10
            assert eigs.max() <= 2.0 + 1e-10

    def test_log_det_matches_dense(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            g = random_graph(int(rng.integers(5, 200)), 0.08, rng)
            lap = normalized_laplacian(g, jitter=0.05)
            sign, dense = np.linalg.slogdet(lap.precision.toarray())
            assert sign == 1.0
            assert lap.log_det_precision == pytest.approx(dense, rel=1e-8)

    def test_log_det_matches_dense_on_weighted_communities(self):
        """Three weighted communities with no edges between them, and 20
        isolated nodes: the factorization's ordering must not change the
        log-determinant beyond rounding."""
        rng = np.random.default_rng(6)
        labels = tuple(f"g{i:03d}" for i in range(300))
        community = np.repeat([0, 1, 2, -1], [120, 100, 60, 20])
        edges = {}
        for i in range(300):
            for j in range(i + 1, 300):
                if community[i] >= 0 and community[i] == community[j] and rng.random() < 0.05:
                    edges[(labels[i], labels[j])] = float(rng.uniform(0.1, 5.0))
        lap = normalized_laplacian(InteractionGraph(node_labels=labels, edges=edges), 0.05)
        sizes = np.bincount(connected_components(lap.laplacian, directed=False)[1])
        assert np.count_nonzero(sizes > 1) >= 2
        assert np.count_nonzero(sizes == 1) >= 20
        sign, dense = np.linalg.slogdet(lap.precision.toarray())
        assert sign == 1.0
        assert lap.log_det_precision == pytest.approx(dense, rel=1e-12)

    def test_jitter_required_with_edges(self):
        g = InteractionGraph(node_labels=("a", "b"), edges={("a", "b"): 1.0})
        with pytest.raises(ValueError):
            normalized_laplacian(g, jitter=0.0)
        with pytest.raises(ValueError):
            normalized_laplacian(g, jitter=float("nan"))
