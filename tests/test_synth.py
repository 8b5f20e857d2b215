import numpy as np
import pytest
from scipy.stats import rankdata

from conftest import default_hyper, labeled_graph, oracle_state

from pathfact import model, synth
from pathfact.graph import InteractionGraph, normalized_laplacian
from pathfact.inference import FitReport, fit
from pathfact.model import ElboTrace
from pathfact.synth import (
    community_graph,
    ranking_auc,
    random_graph,
    generate,
    generate_planted,
    sample_membership,
    score,
    score_arrays,
)


def wrap_report(state):
    return FitReport(state=state, trace=ElboTrace(), status="converged", sweeps=0)


class TestGenerate:
    def test_no_corruption_keeps_mask(self):
        data, truth = generate((12, 3, 10, 4), corruption=0.0, seed=7)
        np.testing.assert_array_equal(data.Z0, truth.membership)
        np.testing.assert_array_equal(truth.shown_mask, truth.membership)

    def test_corruption_only_deletes(self):
        data, truth = generate((12, 3, 20, 6), corruption=0.3, seed=11, beta_a=12.0)
        diff = truth.membership - truth.shown_mask
        assert np.all(diff >= 0)  # never inserts
        assert diff.sum() > 0
        n_ones = truth.membership.sum()
        assert diff.sum() <= int(round(0.3 * n_ones))
        # coverage preserved for the file round trip
        assert np.all(truth.shown_mask.sum(axis=1) >= 1)
        assert np.all(truth.shown_mask.sum(axis=0) >= 1)

    def test_noiseless_rank_one(self):
        data, truth = generate(
            (8, 1, 6, 1), beta_a=1e8, noise_precision=1e32, seed=3
        )
        assert np.all(truth.membership == 1)
        np.testing.assert_allclose(data.X, truth.noiseless_mean, atol=1e-10)
        singular = np.linalg.svd(data.X, compute_uv=False)
        assert singular[1] < 1e-10 * max(singular[0], 1.0)

    def test_deterministic_in_seed(self):
        a_data, a_truth = generate((10, 2, 8, 3), corruption=0.2, seed=5)
        b_data, b_truth = generate((10, 2, 8, 3), corruption=0.2, seed=5)
        np.testing.assert_array_equal(a_data.X, b_data.X)
        np.testing.assert_array_equal(a_truth.membership, b_truth.membership)
        np.testing.assert_array_equal(a_truth.shown_mask, b_truth.shown_mask)
        c_data, _ = generate((10, 2, 8, 3), corruption=0.2, seed=6)
        assert not np.array_equal(a_data.X, c_data.X)

    def test_snr_controls_noise(self):
        _, low = generate((40, 2, 20, 4), snr=1.0, seed=9, beta_a=8.0)
        _, high = generate((40, 2, 20, 4), snr=25.0, seed=9, beta_a=8.0)
        assert high.noise_precision > low.noise_precision
        assert high.noise_precision == pytest.approx(25.0 * low.noise_precision, rel=1e-9)

    def test_noise_is_centered_on_planted_mean(self):
        # N * D = 10^4 noise draws; residual mean within 3 standard errors
        data, truth = generate((100, 4, 100, 5), noise_precision=4.0, seed=13, beta_a=10.0)
        resid = data.X - truth.noiseless_mean
        n_entries = resid.size
        se = (1.0 / np.sqrt(4.0)) / np.sqrt(n_entries)
        assert abs(resid.mean()) < 3 * se
        assert abs(resid.std() - 0.5) < 0.05

    def test_round_robin_cluster_assignment(self):
        data, _ = generate((9, 3, 6, 2), seed=1)
        np.testing.assert_array_equal(data.U0.sum(axis=1), 1.0)
        np.testing.assert_array_equal(np.argmax(data.U0, axis=1), np.arange(9) % 3)

    def test_rejects_bad_dims_and_rho(self):
        with pytest.raises(ValueError):
            generate((0, 1, 4, 2))
        with pytest.raises(ValueError):
            generate((5, 2, 4, 2), corruption=0.6)
        with pytest.raises(ValueError):
            generate((5, 2, 4, 2), noise_precision=1.0, snr=2.0)


class TestMembershipPrior:
    def test_expected_nonzero_count_independent_model(self):
        # empty graph with zero jitter: exact standard-normal marginals
        d, r, beta_a = 50, 20, 2.0
        labels = tuple(f"G{j}" for j in range(d))
        lap = normalized_laplacian(InteractionGraph(node_labels=labels), jitter=0.0)
        rng = np.random.default_rng(21)
        counts = np.array(
            [sample_membership(d, r, beta_a, lap, rng)[0].sum() for _ in range(2000)]
        )
        expected = d * beta_a / (1.0 + beta_a / r)
        se = counts.std(ddof=1) / np.sqrt(counts.size)
        assert abs(counts.mean() - expected) < 3 * se

    def test_graph_coupling_smooths_columns(self):
        # ring graph, tiny jitter: adjacent features agree more often
        d, r = 12, 4
        labels = tuple(f"G{j:02d}" for j in range(d))
        graph = labeled_graph(labels, {(labels[i], labels[(i + 1) % d]): 1.0 for i in range(d)})
        lap = normalized_laplacian(graph, jitter=0.01)
        rng = np.random.default_rng(22)
        adjacent = [(i, (i + 1) % d) for i in range(d)]
        far = [(i, (i + 6) % d) for i in range(d)]
        agree_adj, agree_far = [], []
        for _ in range(400):
            z = sample_membership(d, r, 8.0, lap, rng)[0]
            for i, j in adjacent:
                agree_adj.append(np.mean(z[i] == z[j]))
            for i, j in far:
                agree_far.append(np.mean(z[i] == z[j]))
        assert np.mean(agree_adj) > np.mean(agree_far) + 0.01


    def test_dense_factor_out_of_memory_names_d(self, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(synth.np.linalg, "cholesky", out_of_memory)
        with pytest.raises(MemoryError) as caught:
            generate((6, 2, 9, 3), seed=1)
        assert str(caught.value) == (
            "out of memory in the dense Cholesky factor of the graph precision (D=9)"
        )


class TestGeneratePlanted:
    def test_balanced_disjoint_sets(self):
        data, truth = generate_planted((20, 2, 24, 4), seed=3)
        np.testing.assert_array_equal(truth.membership.sum(axis=1), 1)
        np.testing.assert_array_equal(truth.membership.sum(axis=0), 6)

    def test_graph_follows_communities(self):
        data, truth = generate_planted((20, 2, 40, 4), p_in=0.4, p_out=0.02, seed=4)
        assign = np.argmax(truth.membership, axis=1)
        index = {f: i for i, f in enumerate(data.feature_ids)}
        within = sum(
            1 for a, b in data.graph.edges if assign[index[a]] == assign[index[b]]
        )
        assert within / data.graph.n_edges > 0.6

    def test_corruption_deletes_only_and_keeps_sets(self):
        data, truth = generate_planted((20, 2, 30, 5), corruption=0.2, seed=5)
        diff = truth.membership - truth.shown_mask
        assert np.all(diff >= 0)
        assert diff.sum() == round(0.2 * truth.membership.sum())
        assert np.all(truth.shown_mask.sum(axis=0) >= 1)

    def test_deterministic(self):
        a = generate_planted((10, 2, 12, 3), corruption=0.1, snr=4.0, seed=9)
        b = generate_planted((10, 2, 12, 3), corruption=0.1, snr=4.0, seed=9)
        np.testing.assert_array_equal(a[0].X, b[0].X)
        np.testing.assert_array_equal(a[1].shown_mask, b[1].shown_mask)
        assert a[0].graph.edges == b[0].graph.edges

    def test_single_feature(self):
        data, truth = generate_planted((6, 2, 1, 1), seed=2)
        assert data.graph.edges == {}
        np.testing.assert_array_equal(truth.membership, [[1]])


def no_draw(*args, **kwargs):
    raise AssertionError("drew before checking the settings")


@pytest.mark.parametrize("generator", [generate, generate_planted])
@pytest.mark.parametrize(
    "noise",
    [
        {"noise_precision": -1.0},
        {"noise_precision": 0.0},
        {"noise_precision": float("nan")},
        {"snr": -2.0},
        {"snr": float("nan")},
    ],
)
def test_rejects_nonpositive_noise_precision(generator, noise, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match="noise precision must be positive"):
        generator((10, 2, 12, 3), seed=9, **noise)


@pytest.mark.parametrize(
    "generator, setting, message",
    [
        (generate, {"corruption": 0.7}, r"corruption must lie in \[0, 0.5\)"),
        (generate_planted, {"corruption": 0.7}, r"corruption must lie in \[0, 0.5\)"),
        (generate, {"noise_precision": 1.0, "snr": 2.0}, "give either noise_precision or snr"),
        (generate_planted, {"noise_precision": 1.0, "snr": 2.0}, "give either noise_precision"),
        (generate, {"min_members": 13}, "min_members cannot exceed the feature count"),
        (generate, {"beta_a": 0.0}, "beta_a must be positive"),
        (generate, {"epsilon": -1.0}, "epsilon must be nonnegative"),
        (generate, {"epsilon": float("nan")}, "epsilon must be finite"),
        (generate, {"seed": -1}, "seed must be nonnegative"),
    ],
)
def test_rejects_settings_before_any_draw(generator, setting, message, monkeypatch):
    monkeypatch.setattr(np.random, "default_rng", no_draw)
    with pytest.raises(ValueError, match=message):
        generator((10, 2, 12, 3), **setting)


def loop_edges(feature_ids, rng, edge_prob):
    """Reference draw: one ``rng.random()`` call per pair i < j."""
    edges = {}
    d = len(feature_ids)
    for i in range(d):
        for j in range(i + 1, d):
            if rng.random() < edge_prob(i, j):
                edges[(feature_ids[i], feature_ids[j])] = 1.0
    return edges


class TestEdgeDraws:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_graph_matches_loop(self, seed):
        ids = tuple(f"G{i:02d}" for i in range(37))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_graph(ids, 0.1, rng)
        want = loop_edges(ids, ref_rng, lambda i, j: 0.1)
        # joined edges for isolated nodes come after the drawn ones
        assert list(got.edges.items())[: len(want)] == list(want.items())
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_community_graph_matches_loop(self, seed):
        ids = tuple(f"G{i:02d}" for i in range(37))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assignment = rng.permutation(np.arange(37) % 4)
        ref_rng.permutation(np.arange(37) % 4)
        got = community_graph(ids, assignment, 0.4, 0.02, rng)
        want = loop_edges(
            ids, ref_rng, lambda i, j: 0.4 if assignment[i] == assignment[j] else 0.02
        )
        # patched edges for isolated nodes come after the drawn ones
        assert list(got.edges.items())[: len(want)] == list(want.items())
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1])
    def test_draw_spans_several_row_blocks(self, seed, monkeypatch):
        # 37 rows in blocks of 5: eight blocks, the last one partial
        monkeypatch.setattr(synth, "_EDGE_BLOCK_ROWS", 5)
        ids = tuple(f"G{i:02d}" for i in range(37))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assignment = np.arange(37) % 3
        got = community_graph(ids, assignment, 0.4, 0.05, rng)
        want = loop_edges(
            ids, ref_rng, lambda i, j: 0.4 if assignment[i] == assignment[j] else 0.05
        )
        assert list(got.edges.items())[: len(want)] == list(want.items())
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        got = random_graph(ids, 0.1, rng)
        want = loop_edges(ids, ref_rng, lambda i, j: 0.1)
        assert list(got.edges.items())[: len(want)] == list(want.items())
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_community_graph_joins_isolated_nodes(self):
        # no edges are drawn, so every node is joined in node order: to its
        # first community mate, or to its ring neighbor when it has none
        ids = ("G0", "G1", "G2", "G3")
        rng = np.random.default_rng(0)
        g = community_graph(ids, [0, 1, 0, 2], 0.0, 0.0, rng)
        assert list(g.edges) == [("G0", "G2"), ("G1", "G2"), ("G0", "G3")]
        assert community_graph(("G0",), [0], 0.5, 0.5, rng).edges == {}

    def test_single_feature_draws_nothing(self):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        assert random_graph(("G0",), 0.5, rng).edges == {}
        assert rng.bit_generator.state == before


class TestRandomGraph:
    def test_min_degree_patched(self):
        rng = np.random.default_rng(23)
        g = random_graph([f"G{i}" for i in range(30)], edge_prob=0.02, rng=rng)
        degree = {f: 0 for f in g.node_labels}
        for a, b in g.edges:
            degree[a] += 1
            degree[b] += 1
        assert min(degree.values()) >= 1

    @pytest.mark.parametrize("seed", range(4))
    def test_isolated_nodes_joined_to_their_ring_neighbor(self, seed):
        """After the drawn edges, each node still isolated, in node order, is
        joined to node i + 1 (mod d), unless an earlier join reached it."""
        ids = tuple(f"G{i:02d}" for i in range(30))
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = random_graph(ids, 0.03, rng)
        want = loop_edges(ids, ref_rng, lambda i, j: 0.03)
        degree = np.zeros(30, dtype=int)
        for a, b in want:
            degree[[ids.index(a), ids.index(b)]] += 1
        assert (degree == 0).sum() >= 3
        for i in range(30):
            if degree[i] == 0:
                j = (i + 1) % 30
                want[tuple(sorted((ids[i], ids[j])))] = 1.0
                degree[[i, j]] += 1
        assert list(got.edges.items()) == list(want.items())
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestRankingAuc:
    def test_perfect_and_chance(self):
        assert ranking_auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0
        assert ranking_auc([0.1, 0.9, 0.2, 0.8], [1, 0, 1, 0]) == 0.0
        assert ranking_auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == 0.5

    def test_degenerate_returns_nan(self):
        assert np.isnan(ranking_auc([0.5, 0.2], [1, 1]))

    @staticmethod
    def rankdata_auc(scores, labels):
        labels = np.asarray(labels, dtype=bool)
        n_pos = int(labels.sum())
        n_neg = labels.size - n_pos
        u = rankdata(scores)[labels].sum() - n_pos * (n_pos + 1) / 2.0
        return float(u / (n_pos * n_neg))

    @pytest.mark.parametrize(
        "scores",
        [
            np.random.default_rng(5).integers(0, 7, 501) / 4.0,  # tie-heavy
            np.random.default_rng(6).random(400),
            np.full(64, 0.3),
            np.r_[np.inf, -np.inf, 0.0, -0.0, 1.0, np.inf, -np.inf, 2.0],
        ],
        ids=["ties", "distinct", "all-equal", "infinite"],
    )
    def test_bit_equal_to_rankdata(self, scores):
        labels = np.random.default_rng(scores.size).random(scores.size) < 0.4
        labels[:2] = (True, False)  # both classes present
        assert ranking_auc(scores, labels) == self.rankdata_auc(scores, labels)

    def test_nan_score_gives_nan(self):
        scores = np.array([0.9, np.nan, 0.2, 0.1])
        assert np.isnan(ranking_auc(scores, [1, 1, 0, 0]))
        with np.errstate(invalid="ignore"):
            assert np.isnan(self.rankdata_auc(scores, [1, 1, 0, 0]))


class TestScore:
    def test_oracle_state_scores_perfectly(self):
        data, truth = generate((12, 3, 15, 5), corruption=0.2, seed=31, beta_a=10.0)
        report = wrap_report(oracle_state(truth, data))
        hyper = default_hyper(zeta=1.0)
        metrics = score(report, truth, data, hyper, top_m=2)
        assert metrics.precision_at_m == 1.0
        assert metrics.rmse < 1e-9
        assert metrics.mask_auc == 1.0
        assert metrics.sign_agreement == 1.0

    def test_random_associations_score_at_chance(self):
        rng = np.random.default_rng(32)
        data, truth = generate((6, 2, 10, 8), corruption=0.2, seed=33, beta_a=16.0)
        top_m = 3
        r = 8
        precisions = []
        for _ in range(400):
            fake = rng.uniform(size=truth.associations.shape)
            metrics = score_arrays(
                fake,
                truth.noiseless_mean,
                truth.shown_mask.astype(float),
                truth.basis,
                truth,
                top_m,
            )
            precisions.append(metrics.precision_at_m)
        mean = np.mean(precisions)
        se = np.std(precisions, ddof=1) / np.sqrt(len(precisions))
        assert abs(mean - top_m / r) < 4 * se + 1e-12

    def test_fitted_model_beats_chance(self):
        data, truth = generate_planted(
            (60, 2, 30, 5), corruption=0.1, snr=8.0, seed=34
        )
        hyper = default_hyper(max_sweeps=120, xi=10.0, beta_a=2.0, zeta=1.0)
        report = fit(data, hyper)
        metrics = score(report, truth, data, hyper, top_m=2)
        assert metrics.precision_at_m > 2 / 5  # beats chance = top_m / R
        assert metrics.mask_auc > 0.6
        assert metrics.rmse < np.sqrt(np.mean(truth.noiseless_mean**2))

    def test_fit_report_scored_from_its_moments(self, monkeypatch):
        """Scoring a fit report reads the final moments it holds and
        computes none; the metrics equal those of a fresh moments pass."""
        data, truth = generate_planted((30, 2, 20, 4), corruption=0.2, snr=8.0, seed=36)
        hyper = default_hyper(max_sweeps=5, xi=10.0, beta_a=2.0)
        report = fit(data, hyper)
        fresh = score(wrap_report(report.state), truth, data, hyper, top_m=2)
        calls = []
        moments = model.factor_moments

        def counted(*args, **kwargs):
            calls.append(args)
            return moments(*args, **kwargs)

        monkeypatch.setattr(model, "factor_moments", counted)
        monkeypatch.setattr(synth, "factor_moments", counted)
        assert score(report, truth, data, hyper, top_m=2) == fresh
        assert calls == []
        assert not np.isnan(fresh.mask_auc)

    @pytest.mark.parametrize("top_m", [0, 4])
    def test_top_m_out_of_range_rejected(self, top_m):
        data, truth = generate((6, 2, 8, 3), seed=35)
        with pytest.raises(ValueError, match=r"top_m must lie in \[1, 3\]"):
            score_arrays(
                truth.associations,
                truth.noiseless_mean,
                truth.shown_mask,
                truth.basis,
                truth,
                top_m,
            )

    def test_shape_mismatch_rejected(self):
        data, truth = generate((6, 2, 8, 3), seed=35)
        with pytest.raises(ValueError):
            score_arrays(
                np.zeros((3, 3)),
                truth.noiseless_mean,
                truth.shown_mask,
                truth.basis,
                truth,
                2,
            )
