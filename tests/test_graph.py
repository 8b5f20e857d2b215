import numpy as np
import pytest
from scipy import sparse
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

    def test_subgraph_remaps_indices_and_keeps_edge_order(self):
        g = InteractionGraph(
            node_labels=("d", "a", "c", "b"),
            edges={("c", "d"): 4.0, ("a", "b"): 1.0, ("b", "d"): 2.0, ("a", "c"): 3.0},
        )
        sub = g.subgraph(["b", "d", "c"])
        assert list(sub.edges.items()) == [(("c", "d"), 4.0), (("b", "d"), 2.0)]
        np.testing.assert_array_equal(sub.heads, [2, 0])
        np.testing.assert_array_equal(sub.tails, [1, 1])
        with pytest.raises(ValueError, match=r"labels not in graph: \['x', 'y'\]"):
            g.subgraph(["y", "a", "x"])
        with pytest.raises(ValueError, match="duplicate node labels"):
            g.subgraph(["a", "b", "a"])

    def test_arrays_are_read_only_and_edges_a_new_mapping(self):
        g = InteractionGraph(node_labels=("b", "a", "c"), edges={("b", "a"): 2.0, ("c", "b"): 1})
        for array in (g.heads, g.tails, g.weights):
            with pytest.raises(ValueError):
                array[0] = 0
        assert g.weights.dtype == float and g.heads.dtype == np.intp
        edges = g.edges
        edges[("a", "b")] = 9.0
        assert g.edges == {("a", "b"): 2.0, ("b", "c"): 1.0}
        assert g.n_edges == 2 and g.n_nodes == 3

    def test_pair_given_in_both_orientations_is_one_edge(self):
        g = InteractionGraph(
            node_labels=("a", "b", "c"), edges={("b", "c"): 1.0, ("b", "a"): 2.0, ("a", "b"): 0.5}
        )
        assert list(g.edges.items()) == [(("b", "c"), 1.0), (("a", "b"), 2.0)]
        assert g.adjacency().nnz == 4

    @pytest.mark.parametrize(
        "edges, message",
        [
            ({("a", "b"): 1.0, ("x", "x"): -1.0}, "self-loop on node 'x'"),
            ({("a", "b"): np.nan, ("a", "a"): 1.0}, r"weight nan on edge \('a', 'b'\)"),
            ({("a", "x"): np.nan}, r"edge \('a', 'x'\) references unknown node"),
            ({("x", "y"): 1.0}, r"edge \('x', 'y'\) references unknown node"),
        ],
    )
    def test_first_bad_edge_is_reported(self, edges, message):
        with pytest.raises(ValueError, match=message):
            InteractionGraph(node_labels=("a", "b"), edges=edges)

    def test_from_arrays_orients_and_merges(self):
        g = InteractionGraph.from_arrays(("c", "a", "b"), [0, 1, 2, 0], [1, 2, 0, 2], [1, 2, 0, 5])
        assert list(g.edges.items()) == [(("a", "c"), 1.0), (("a", "b"), 2.0), (("b", "c"), 5.0)]
        with pytest.raises(ValueError, match=r"edge \('c', 3\) references unknown node"):
            InteractionGraph.from_arrays(("c", "a", "b"), [0], [3], [1.0])


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

    def test_precision_matches_a_per_edge_build(self):
        """The precision's CSR arrays equal those of an adjacency built one
        edge at a time from the label-pair mapping, on a weighted graph whose
        pairs were given in both orientations."""
        rng = np.random.default_rng(8)
        labels = tuple(f"g{i}" for i in rng.permutation(400))
        edges = {}
        for _ in range(3000):
            a, b = rng.choice(len(labels), size=2, replace=False)
            edges[(labels[a], labels[b])] = float(rng.uniform(0.0, 4.0))
        graph = InteractionGraph(node_labels=labels, edges=edges)
        index = {lbl: i for i, lbl in enumerate(labels)}
        rows, cols, vals = [], [], []
        for (a, b), w in graph.edges.items():
            i, j = index[a], index[b]
            rows += [i, j]
            cols += [j, i]
            vals += [w, w]
        adj = sparse.csr_matrix((vals, (rows, cols)), shape=(400, 400)).tocoo()
        degrees = np.asarray(adj.sum(axis=1)).ravel()
        inv_root = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1e-300)), 0.0)
        scaled = sparse.coo_matrix(
            (adj.data * inv_root[adj.row] * inv_root[adj.col], (adj.row, adj.col)), shape=adj.shape
        )
        eye = sparse.identity(400, format="csr")
        want = ((eye - scaled.tocsr()).tocsr() + 0.05 * eye).tocsr()
        got = normalized_laplacian(graph, jitter=0.05).precision
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_jitter_required_with_edges(self):
        g = InteractionGraph(node_labels=("a", "b"), edges={("a", "b"): 1.0})
        with pytest.raises(ValueError):
            normalized_laplacian(g, jitter=0.0)
        with pytest.raises(ValueError):
            normalized_laplacian(g, jitter=float("nan"))
