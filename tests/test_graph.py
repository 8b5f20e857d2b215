import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from conftest import labeled_graph

from pathfact.graph import InteractionGraph, normalized_laplacian


def random_graph(n_nodes, edge_prob, rng, weighted=False):
    """Erdos-Renyi graph over labels g000, g001, ...; with ``weighted`` its
    weights are uniform on [0.1, 5)."""
    heads, tails = np.triu_indices(n_nodes, 1)
    hit = rng.random(heads.size) < edge_prob
    weights = rng.uniform(0.1, 5.0, hit.sum()) if weighted else np.ones(hit.sum())
    labels = tuple(f"g{i:03d}" for i in range(n_nodes))
    return InteractionGraph(labels, heads[hit], tails[hit], weights)


class TestInteractionGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            InteractionGraph(("a", "b"), [0], [0], [1.0])

    def test_rejects_unknown_node(self):
        with pytest.raises(ValueError):
            InteractionGraph(("a",), [0], [1], [1.0])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            InteractionGraph(node_labels=("a", "a"))

    @pytest.mark.parametrize("w", [np.nan, np.inf, -np.inf, -1.0])
    def test_rejects_weight_not_finite_and_nonnegative(self, w):
        with pytest.raises(ValueError, match=r"on edge \('a', 'b'\) is not finite and nonnegative"):
            InteractionGraph(("a", "b"), [0], [1], [w])

    def test_edges_stored_in_label_order(self):
        g = InteractionGraph(("b", "a"), [0], [1], [2.0])
        assert g.edges == {("a", "b"): 2.0}
        assert (g.heads.tolist(), g.tails.tolist()) == ([1], [0])

    def test_subgraph_induced(self):
        g = labeled_graph(("a", "b", "c"), {("a", "b"): 1.0, ("b", "c"): 1.0})
        sub = g.subgraph(["c", "b"])
        assert sub.node_labels == ("c", "b")
        assert sub.edges == {("b", "c"): 1.0}

    def test_subgraph_remaps_indices_and_keeps_edge_order(self):
        g = labeled_graph(
            ("d", "a", "c", "b"),
            {("c", "d"): 4.0, ("a", "b"): 1.0, ("b", "d"): 2.0, ("a", "c"): 3.0},
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
        g = labeled_graph(("b", "a", "c"), {("b", "a"): 2.0, ("c", "b"): 1})
        for array in (g.heads, g.tails, g.weights):
            with pytest.raises(ValueError):
                array[0] = 0
        assert g.weights.dtype == float and g.heads.dtype == np.intp
        edges = g.edges
        edges[("a", "b")] = 9.0
        assert g.edges == {("a", "b"): 2.0, ("b", "c"): 1.0}
        assert g.n_edges == 2 and g.n_nodes == 3

    def test_pair_given_in_both_orientations_is_one_edge(self):
        g = labeled_graph(("a", "b", "c"), {("b", "c"): 1.0, ("b", "a"): 2.0, ("a", "b"): 0.5})
        assert list(g.edges.items()) == [(("b", "c"), 1.0), (("a", "b"), 2.0)]
        assert (g.heads.tolist(), g.tails.tolist()) == ([1, 0], [2, 1])

    @pytest.mark.parametrize(
        "edges, message",
        [
            (([0, 2], [1, 2], [1.0, -1.0]), "self-loop on node 'x'"),
            (([0, 0], [1, 0], [np.nan, 1.0]), r"weight nan on edge \('a', 'b'\)"),
            (([0], [3], [np.nan]), r"edge \('a', 3\) references unknown node"),
            (([1], [-1], [1.0]), r"edge \('b', -1\) references unknown node"),
            (([3, 4], [4, 3], [1.0, 1.0]), r"edge \(3, 4\) references unknown node"),
        ],
    )
    def test_first_bad_edge_is_reported(self, edges, message):
        """``edges`` holds the heads, the tails and the weights."""
        with pytest.raises(ValueError, match=message):
            InteractionGraph(("a", "b", "x"), *edges)

    def test_orients_and_merges(self):
        """Each pair is oriented in label order; a repeated pair keeps its
        first position and its largest weight."""
        g = InteractionGraph(("c", "a", "b"), [0, 1, 2, 0], [1, 2, 0, 2], [1, 2, 0, 5])
        assert list(g.edges.items()) == [(("a", "c"), 1.0), (("a", "b"), 2.0), (("b", "c"), 5.0)]
        assert (g.heads.tolist(), g.tails.tolist()) == ([1, 1, 2], [0, 2, 0])

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_a_mapping_filled_edge_by_edge(self, seed):
        """On random index arrays that repeat pairs in both orientations, the
        edges, in order, are those of a mapping filled one edge at a time:
        each pair keyed with the smaller label first, at its first position,
        with the largest weight it was given."""
        rng = np.random.default_rng(seed)
        labels = tuple(f"g{i}" for i in rng.permutation(12))
        heads, tails = rng.integers(0, 12, (2, 60))
        distinct = heads != tails
        heads, tails = heads[distinct], tails[distinct]
        weights = rng.choice([0.0, 0.5, 1.0, 2.0], heads.size)
        want = {}
        for h, t, w in zip(heads.tolist(), tails.tolist(), weights.tolist()):
            pair = tuple(sorted((labels[h], labels[t])))
            want[pair] = max(want.get(pair, w), w)
        g = InteractionGraph(labels, heads, tails, weights)
        assert len(want) < heads.size  # some pairs repeat
        assert list(g.edges.items()) == list(want.items())
        at = labels.__getitem__
        assert list(zip(map(at, g.heads), map(at, g.tails))) == list(want)


class TestNormalizedLaplacian:
    def test_empty_graph_is_identity(self):
        g = InteractionGraph(node_labels=("a", "b", "c"))
        lap = normalized_laplacian(g, jitter=0.0)
        np.testing.assert_array_equal(lap.laplacian.toarray(), np.eye(3))

    def test_path_graph(self):
        g = labeled_graph(
            ("a", "b", "c"), {("a", "b"): 1.0, ("b", "c"): 1.0}
        )
        lap = normalized_laplacian(g, jitter=0.05)
        L = lap.laplacian.toarray()
        # degrees (1, 2, 1): off-diagonal entries -1/sqrt(2)
        np.testing.assert_allclose(np.diag(L), [1.0, 1.0, 1.0])
        assert L[0, 1] == pytest.approx(-1.0 / np.sqrt(2.0))
        assert L[1, 2] == pytest.approx(-1.0 / np.sqrt(2.0))
        assert L[0, 2] == 0.0

    def test_triangle_graph(self):
        g = labeled_graph(
            ("a", "b", "c"),
            {("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 1.0},
        )
        lap = normalized_laplacian(g, jitter=0.05)
        L = lap.laplacian.toarray()
        off = L[~np.eye(3, dtype=bool)]
        np.testing.assert_allclose(off, -0.5)
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(L)), [0.0, 1.5, 1.5], atol=1e-12)

    def test_isolated_node_row(self):
        g = labeled_graph(("a", "b", "iso"), {("a", "b"): 1.0})
        L = normalized_laplacian(g, jitter=0.1).laplacian.toarray()
        np.testing.assert_array_equal(L[2], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(L[:, 2], [0.0, 0.0, 1.0])

    def test_weighted_degrees(self):
        g = labeled_graph(("a", "b", "c"), {("a", "b"): 4.0, ("b", "c"): 1.0})
        L = normalized_laplacian(g, jitter=0.05).laplacian.toarray()
        # degrees: a=4, b=5, c=1
        assert L[0, 1] == pytest.approx(-4.0 / np.sqrt(4.0 * 5.0))
        assert L[1, 2] == pytest.approx(-1.0 / np.sqrt(5.0))

    @pytest.mark.parametrize("weighted", [False, True])
    def test_exact_symmetry_random(self, weighted):
        rng = np.random.default_rng(0)
        for _ in range(5):
            g = random_graph(30, 0.1, rng, weighted)
            lap = normalized_laplacian(g, jitter=0.05)
            for matrix in (lap.laplacian, lap.precision):
                assert (matrix != matrix.T).nnz == 0

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("weights", ["unit", "random", "some zero"])
    def test_matches_the_dense_formula(self, weights, seed):
        """L equals I - D^{-1/2} A D^{-1/2} formed densely, an isolated node's
        row and column those of I, and P = L + eps*I; L and P are exactly
        symmetric and a zero-weight edge stores no entry."""
        rng = np.random.default_rng(seed)
        g = random_graph(40, 0.08, rng, weighted=weights != "unit")
        if weights == "some zero":
            w = np.where(rng.random(g.n_edges) < 0.3, 0.0, g.weights)
            g = InteractionGraph(g.node_labels, g.heads, g.tails, w)
        adj = np.zeros((40, 40))
        adj[g.heads, g.tails] = adj[g.tails, g.heads] = g.weights
        degrees = adj.sum(axis=1)
        inv_root = np.divide(1.0, np.sqrt(degrees), out=np.zeros(40), where=degrees > 0)
        want = np.eye(40) - inv_root[:, None] * adj * inv_root[None, :]
        lap = normalized_laplacian(g, jitter=0.05)
        np.testing.assert_allclose(lap.laplacian.toarray(), want, rtol=1e-13, atol=0)
        np.testing.assert_allclose(
            lap.precision.toarray(), want + 0.05 * np.eye(40), rtol=1e-13, atol=0
        )
        np.testing.assert_array_equal(lap.precision_diag, lap.precision.diagonal())
        assert lap.laplacian.nnz == 40 + 2 * np.count_nonzero(g.weights)
        for matrix in (lap.laplacian, lap.precision):
            assert (matrix != matrix.T).nnz == 0

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
        lap = normalized_laplacian(labeled_graph(labels, edges), 0.05)
        sizes = np.bincount(connected_components(lap.laplacian, directed=False)[1])
        assert np.count_nonzero(sizes > 1) >= 2
        assert np.count_nonzero(sizes == 1) >= 20
        sign, dense = np.linalg.slogdet(lap.precision.toarray())
        assert sign == 1.0
        assert lap.log_det_precision == pytest.approx(dense, rel=1e-12)

    def test_precision_matches_a_per_edge_build(self):
        """The precision's CSR arrays equal those of a dense matrix built one
        edge at a time from the label-pair mapping, on a weighted graph whose
        pairs were given in both orientations and some of whose weights are
        zero: each degree sums its row in column order, each edge's entry is
        one product stored at both of its places, and a zero-weight edge
        stores no entry."""
        rng = np.random.default_rng(8)
        labels = tuple(f"g{i}" for i in rng.permutation(400))
        edges = {}
        for _ in range(3000):
            a, b = rng.choice(len(labels), size=2, replace=False)
            edges[(labels[a], labels[b])] = float(rng.uniform(0.0, 4.0)) * (rng.random() < 0.9)
        graph = labeled_graph(labels, edges)
        assert (graph.weights == 0).sum() > 100
        index = {lbl: i for i, lbl in enumerate(labels)}
        pairs = [(index[a], index[b], w) for (a, b), w in graph.edges.items()]
        adj = np.zeros((400, 400))
        for i, j, w in pairs:
            adj[i, j] = adj[j, i] = w
        degrees = np.cumsum(adj, axis=1)[:, -1]
        inv_root = np.where(degrees > 0, 1.0 / np.sqrt(np.maximum(degrees, 1e-300)), 0.0)
        lap = np.eye(400)
        for i, j, w in pairs:
            lap[i, j] = lap[j, i] = -(w * inv_root[i] * inv_root[j])
        want = sparse.csr_matrix(lap + 0.05 * np.eye(400))
        got = normalized_laplacian(graph, jitter=0.05).precision
        for name in ("indptr", "indices", "data"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    def test_jitter_required_with_edges(self):
        g = labeled_graph(("a", "b"), {("a", "b"): 1.0})
        with pytest.raises(ValueError):
            normalized_laplacian(g, jitter=0.0)
        with pytest.raises(ValueError):
            normalized_laplacian(g, jitter=float("nan"))
