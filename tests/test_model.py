from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate, stats

from conftest import default_hyper, make_dataset, make_state, traced_peak

from pathfact.dist import (
    GammaParams,
    NormalParams,
    TruncatedNormalParams,
    trunc_norm_moments,
)
from pathfact.graph import InteractionGraph, normalized_laplacian
from pathfact.model import (
    ElboTrace,
    ObservationSet,
    SweepRecord,
    VariationalState,
    elbo,
    elbo_terms,
    expected_reconstruction,
    expected_sq_residual,
    factor_moments,
    membership_terms,
    mix_cluster,
    rank_row,
    regularized_objective,
    summarize,
    with_prior_mean,
    z_marginal,
)


def sample_posterior(rng, state, data, hyper, n_draws):
    """Joint draws from the factorized posterior, for Monte Carlo oracles."""
    hyper = hyper.resolve(data)
    k, r = data.n_clusters, data.n_sets
    d = data.n_features
    loc, sc = state.assoc.location, np.sqrt(state.assoc.scale_sq)
    s = stats.truncnorm.rvs(
        a=-loc / sc, b=np.inf, loc=loc, scale=sc, size=(n_draws, k, r), random_state=rng
    )
    v = rng.normal(state.basis.mean, np.sqrt(state.basis.variance), size=(n_draws, d, r))
    g = rng.normal(
        state.coupling.mean, np.sqrt(state.coupling.variance), size=(n_draws, d, r)
    )
    pi_bar = rng.normal(
        state.sparsity.mean, np.sqrt(state.sparsity.variance), size=(n_draws, r)
    )
    z = (g < pi_bar[:, None, :]).astype(float)
    u = mix_cluster(state.cluster_logits, data.U0, hyper.zeta)
    return u, s, v, z


class TestMixCluster:
    def test_full_reliance_returns_labels(self):
        rng = np.random.default_rng(0)
        u0 = np.eye(3)[[0, 1, 2, 0]]
        theta = rng.normal(size=(4, 3))
        np.testing.assert_array_equal(mix_cluster(theta, u0, 1.0), u0)

    def test_uniform_softmax(self):
        u0 = np.eye(4)[[0]]
        out = mix_cluster(np.zeros((1, 4)), u0, 0.0)
        np.testing.assert_allclose(out, 0.25)

    def test_convex_combination(self):
        u0 = np.array([[1.0, 0.0]])
        out = mix_cluster(np.zeros((1, 2)), u0, 0.9)
        np.testing.assert_allclose(out, [[0.95, 0.05]])

    def test_rows_stochastic_for_any_inputs(self):
        rng = np.random.default_rng(1)
        for zeta in (0.0, 0.3, 0.77, 1.0):
            theta = rng.normal(scale=50, size=(10, 4))
            u0 = np.eye(4)[rng.integers(0, 4, 10)]
            out = mix_cluster(theta, u0, zeta)
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
            assert np.all(out >= 0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            mix_cluster(np.zeros((2, 3)), np.eye(2), 0.5)


class TestZMarginal:
    def test_symmetric_threshold(self):
        c = NormalParams(0.7, 1.3)
        s = NormalParams(0.7, 0.4)
        assert z_marginal(c, s) == pytest.approx(0.5)

    def test_unit_margin(self):
        c = NormalParams(0.0, 0.5)
        s = NormalParams(1.0, 0.5)
        assert z_marginal(c, s) == pytest.approx(0.8413447460685429, abs=1e-12)

    def test_monte_carlo(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            mu_g, var_g = rng.normal(), rng.uniform(0.2, 2.0)
            mu_p, var_p = rng.normal(), rng.uniform(0.2, 2.0)
            val = z_marginal(NormalParams(mu_g, var_g), NormalParams(mu_p, var_p))
            n = 1_000_000
            hits = (
                rng.normal(mu_g, np.sqrt(var_g), n) < rng.normal(mu_p, np.sqrt(var_p), n)
            ).mean()
            se = np.sqrt(hits * (1 - hits) / n)
            assert abs(val - hits) < 3 * se

    def test_monotone_in_means(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            mu_g, var_g = rng.normal(), rng.uniform(0.2, 2.0)
            mu_p, var_p = rng.normal(), rng.uniform(0.2, 2.0)
            base = z_marginal(NormalParams(mu_g, var_g), NormalParams(mu_p, var_p))
            up_pi = z_marginal(NormalParams(mu_g, var_g), NormalParams(mu_p + 1e-4, var_p))
            up_g = z_marginal(NormalParams(mu_g + 1e-4, var_g), NormalParams(mu_p, var_p))
            assert up_pi > base
            assert up_g < base


class TestExpectedReconstruction:
    def test_empty_mask_gives_zero(self):
        rng = np.random.default_rng(4)
        data = make_dataset(rng)
        state = make_state(rng, data)
        # q(Z) ~ 0 via a huge negative threshold margin
        state = state.updated(
            coupling=NormalParams(np.full((data.n_features, data.n_sets), 60.0), 1e-12),
            sparsity=NormalParams(np.zeros(data.n_sets), 1e-12),
        )
        np.testing.assert_allclose(
            expected_reconstruction(state, data, default_hyper()), 0.0, atol=1e-200
        )

    def test_scalar_product(self):
        data = ObservationSet(
            X=np.array([[0.0]]),
            U0=np.array([[1.0]]),
            Z0=np.array([[1]]),
            graph=InteractionGraph(node_labels=("G0",)),
            sample_ids=("S0",),
            feature_ids=("G0",),
            cluster_ids=("C0",),
            set_ids=("SET0",),
        )
        state = VariationalState(
            noise=GammaParams(1.0, 1.0),
            assoc=TruncatedNormalParams([[2.0]], [[1e-18]]),
            basis=NormalParams([[3.0]], [[1e-18]]),
            coupling=NormalParams([[-40.0]], [[0.5]]),
            sparsity=NormalParams([0.0], [0.5]),
            cluster_logits=np.zeros((1, 1)),
        )
        out = expected_reconstruction(state, data, default_hyper(zeta=1.0))
        assert out[0, 0] == pytest.approx(6.0, rel=1e-12)

    def test_monte_carlo(self):
        rng = np.random.default_rng(5)
        data = make_dataset(rng, n=3, d=4, k=2, r=3)
        state = make_state(rng, data)
        hyper = default_hyper()
        u, s, v, z = sample_posterior(rng, state, data, hyper, 200_000)
        recon = np.einsum("ik,nkr,njr->nij", u, s, z * v)
        mc_mean = recon.mean(axis=0)
        mc_se = recon.std(axis=0) / np.sqrt(recon.shape[0])
        ours = expected_reconstruction(state, data, hyper)
        assert np.all(np.abs(ours - mc_mean) < 3 * mc_se + 1e-12)


def set_space_residual(data, mom):
    """The expected squared residual in set space, from A- and W-side
    moments: ||X||^2 - 2 <E[A], X E[W]> + <E[A^T A], E[W^T W]>."""
    return data.x_sq - 2.0 * float(np.sum(mom.a * mom.xw)) + float(np.sum(mom.aa * mom.ww))


class TestExpectedSqResidual:
    @pytest.mark.parametrize("zeta", [0.0, 0.9, 1.0])
    def test_equals_set_space_moment_form(self, zeta):
        """The cluster-space residual equals the set-space moment form, at
        fresh moments and at moments refreshed on either side."""
        rng = np.random.default_rng(89)
        hyper = default_hyper(zeta=zeta)
        for _ in range(10):
            data = make_dataset(rng, n=7, d=6, k=3, r=4)
            state, other = make_state(rng, data), make_state(rng, data)
            mom = factor_moments(state, data, hyper)
            cases = [(state, mom)]
            a_side = state.updated(assoc=other.assoc, cluster_logits=other.cluster_logits)
            w_side = state.updated(
                basis=other.basis, coupling=other.coupling, sparsity=other.sparsity
            )
            for side, changed in (("a", a_side), ("w", w_side)):
                cases.append((changed, factor_moments(changed, data, hyper, side, mom)))
            for current, moments in cases:
                want = set_space_residual(data, moments)
                got = expected_sq_residual(current, data, hyper, mom=moments)
                assert got == pytest.approx(want, rel=1e-12, abs=0)

    def test_zero_reconstruction_gives_frobenius(self):
        rng = np.random.default_rng(6)
        data = make_dataset(rng)
        state = make_state(rng, data).updated(
            coupling=NormalParams(np.full((data.n_features, data.n_sets), 60.0), 1e-12),
            sparsity=NormalParams(np.zeros(data.n_sets), 1e-12),
        )
        out = expected_sq_residual(state, data, default_hyper())
        assert out == pytest.approx(np.sum(data.X**2), rel=1e-12)

    def test_deterministic_limit(self):
        rng = np.random.default_rng(7)
        data = make_dataset(rng, n=4, d=3, k=2, r=2)
        k, r, d = data.n_clusters, data.n_sets, data.n_features
        s = rng.uniform(0.5, 2.0, size=(k, r))
        v = rng.normal(size=(d, r))
        z = rng.integers(0, 2, size=(d, r)).astype(float)
        state = VariationalState(
            noise=GammaParams(1.0, 1.0),
            assoc=TruncatedNormalParams(s, np.full((k, r), 1e-20)),
            basis=NormalParams(v, np.full((d, r), 1e-20)),
            coupling=NormalParams(np.where(z > 0, -40.0, 40.0), np.full((d, r), 1e-12)),
            sparsity=NormalParams(np.zeros(r), np.full(r, 1e-12)),
            cluster_logits=np.zeros((data.n_samples, k)),
        )
        hyper = default_hyper(zeta=1.0)
        point = data.U0 @ s @ (z * v).T
        expected = np.sum((data.X - point) ** 2)
        assert expected_sq_residual(state, data, hyper) == pytest.approx(expected, rel=1e-9)

    def test_monte_carlo(self):
        rng = np.random.default_rng(8)
        data = make_dataset(rng, n=3, d=4, k=2, r=3)
        state = make_state(rng, data)
        hyper = default_hyper()
        u, s, v, z = sample_posterior(rng, state, data, hyper, 200_000)
        recon = np.einsum("ik,nkr,njr->nij", u, s, z * v)
        sq = ((data.X[None] - recon) ** 2).sum(axis=(1, 2))
        se = sq.std() / np.sqrt(sq.size)
        assert abs(expected_sq_residual(state, data, hyper) - sq.mean()) < 3 * se

    def test_monte_carlo_twenty_instances(self):
        rng = np.random.default_rng(88)
        hyper = default_hyper()
        for _ in range(20):
            data = make_dataset(rng, n=3, d=3, k=2, r=2)
            state = make_state(rng, data)
            u, s, v, z = sample_posterior(rng, state, data, hyper, 40_000)
            recon = np.einsum("ik,nkr,njr->nij", u, s, z * v)
            sq = ((data.X[None] - recon) ** 2).sum(axis=(1, 2))
            se = sq.std() / np.sqrt(sq.size)
            value = expected_sq_residual(state, data, hyper)
            assert value >= 0
            assert abs(value - sq.mean()) < 3 * se

    def test_nonnegative_on_random_instances(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            data = make_dataset(rng, n=4, d=4, k=2, r=3)
            state = make_state(rng, data)
            assert expected_sq_residual(state, data, default_hyper()) >= 0


def one_by_one_instance(x=1.3):
    data = ObservationSet(
        X=np.array([[x]]),
        U0=np.array([[1.0]]),
        Z0=np.array([[1]]),
        graph=InteractionGraph(node_labels=("G0",)),
        sample_ids=("S0",),
        feature_ids=("G0",),
        cluster_ids=("C0",),
        set_ids=("SET0",),
    )
    state = VariationalState(
        noise=GammaParams(2.0, 3.0),
        assoc=TruncatedNormalParams([[0.8]], [[0.6]]),
        basis=NormalParams([[0.4]], [[0.9]]),
        coupling=NormalParams([[-0.3]], [[1.4]]),
        sparsity=NormalParams([0.2], [0.7]),
        cluster_logits=np.zeros((1, 1)),
    )
    hyper = default_hyper(
        alpha_a0=1.5, alpha_b0=2.5, lambda_s0=1.2, mu_v0=0.3, sigma_v0=1.1, beta_a=0.4,
        xi=2.0, epsilon=0.05,
    )
    return data, state, hyper


class TestElbo:
    def test_hand_assembled_one_by_one(self):
        data, state, hyper = one_by_one_instance()
        rh = hyper.resolve(data)
        a0, b0 = rh.alpha_a0, rh.alpha_b0
        aq, bq = 2.0, 3.0
        lam, mu0, s0 = 1.2, 0.3, 1.1
        a = rh.beta_a / 1.0

        e_gamma = aq / bq
        e_log_gamma = stats.gamma(a=aq, scale=1 / bq).expect(np.log)
        h_gamma = stats.gamma(a=aq, scale=1 / bq).entropy()

        sd = np.sqrt(0.6)
        tn = stats.truncnorm(a=-0.8 / sd, b=np.inf, loc=0.8, scale=sd)
        e_s, e_s2 = tn.mean(), tn.moment(2)
        h_s, _ = integrate.quad(lambda t: -tn.pdf(t) * tn.logpdf(t), 0, np.inf)

        e_v, var_v = 0.4, 0.9
        e_v2 = var_v + e_v**2

        rho = stats.norm.cdf((0.2 - (-0.3)) / np.sqrt(0.7 + 1.4))

        resid = data.X[0, 0] ** 2 - 2 * data.X[0, 0] * e_s * rho * e_v + e_s2 * rho * e_v2
        lik = 0.5 * (e_log_gamma - np.log(2 * np.pi)) - 0.5 * e_gamma * resid

        # E_q[log p(gamma)] with the expectation over q, the density the prior's
        prior_dist = stats.gamma(a=a0, scale=1 / b0)
        noise_prior, _ = integrate.quad(
            lambda g: stats.gamma(a=aq, scale=1 / bq).pdf(g) * prior_dist.logpdf(g),
            0,
            60,
        )

        assoc_prior = np.log(lam) - lam * e_s
        h_v = stats.norm(0.4, np.sqrt(0.9)).entropy()
        basis_prior, _ = integrate.quad(
            lambda t: stats.norm(0.4, np.sqrt(0.9)).pdf(t)
            * stats.norm(mu0, np.sqrt(s0)).logpdf(t),
            -20,
            20,
        )

        prec = 1.0 + 0.05
        coupling_prior, _ = integrate.quad(
            lambda t: stats.norm(-0.3, np.sqrt(1.4)).pdf(t)
            * stats.norm(0.0, np.sqrt(1.0 / prec)).logpdf(t),
            -20,
            20,
        )
        h_g = stats.norm(-0.3, np.sqrt(1.4)).entropy()

        def pi_prior_logpdf(t):
            return (
                np.log(a)
                + (a - 1) * stats.norm.logcdf(t)
                + stats.norm.logpdf(t)
            )

        sparsity_prior, _ = integrate.quad(
            lambda t: stats.norm(0.2, np.sqrt(0.7)).pdf(t) * pi_prior_logpdf(t), -20, 20
        )
        h_pi = stats.norm(0.2, np.sqrt(0.7)).entropy()

        oracle = (
            lik
            + noise_prior
            + h_gamma
            + assoc_prior
            + h_s
            + basis_prior
            + h_v
            + coupling_prior
            + h_g
            + sparsity_prior
            + h_pi
        )
        assert elbo(state, data, hyper) == pytest.approx(oracle, abs=1e-7)

    def test_importance_sampling_upper_bounds_elbo(self):
        rng = np.random.default_rng(10)
        feature_ids = ("G0", "G1")
        graph = InteractionGraph(node_labels=feature_ids, edges={("G0", "G1"): 1.0})
        data = ObservationSet(
            X=rng.normal(size=(2, 2)),
            U0=np.array([[1.0], [1.0]]),
            Z0=np.array([[1], [0]]),
            graph=graph,
            sample_ids=("S0", "S1"),
            feature_ids=feature_ids,
            cluster_ids=("C0",),
            set_ids=("SET0",),
        )
        hyper = default_hyper(beta_a=0.5, xi=0.0, epsilon=0.05)
        rh = hyper.resolve(data)
        state = make_state(rng, data, spread=0.5)

        n = 2_000_000
        gamma = rng.gamma(rh.alpha_a0, 1 / rh.alpha_b0, n)
        s = rng.exponential(1.0 / rh.lambda_s0[0, 0], size=(n, 1, 1))
        v = rng.normal(rh.mu_v0[0, 0], np.sqrt(rh.sigma_v0[0, 0]), size=(n, 2, 1))
        lap = normalized_laplacian(graph, rh.epsilon)
        cov = np.linalg.inv(lap.precision.toarray())
        g = rng.multivariate_normal(np.zeros(2), cov, size=n)[:, :, None]
        pi = rng.beta(rh.beta_a / 1.0, 1.0, size=(n, 1))
        pi_bar = stats.norm.ppf(pi)[:, None, :]
        z = (g < pi_bar).astype(float)
        u = mix_cluster(state.cluster_logits, data.U0, rh.zeta)
        recon = np.einsum("ik,nkr,njr->nij", u, s, z * v)
        loglik = (
            0.5 * 4 * (np.log(gamma) - np.log(2 * np.pi))
            - 0.5 * gamma * ((data.X[None] - recon) ** 2).sum(axis=(1, 2))
        )
        peak = loglik.max()
        weights = np.exp(loglik - peak)
        log_marginal = peak + np.log(weights.mean())
        se_log = weights.std() / (weights.mean() * np.sqrt(n))
        assert elbo(state, data, hyper) <= log_marginal + 3 * se_log

    def test_unused_zero_column_adds_only_its_own_terms(self):
        rng = np.random.default_rng(11)
        data = make_dataset(rng, n=4, d=3, k=2, r=2, mask_prob=0.5)
        per_column_shape = 0.3
        hyper1 = default_hyper(beta_a=per_column_shape * 2, xi=0.0)
        hyper2 = default_hyper(beta_a=per_column_shape * 3, xi=0.0)
        state1 = make_state(rng, data)

        z0_ext = np.hstack([data.Z0, np.zeros((3, 1), dtype=int)])
        data2 = ObservationSet(
            X=data.X,
            U0=data.U0,
            Z0=z0_ext,
            graph=data.graph,
            sample_ids=data.sample_ids,
            feature_ids=data.feature_ids,
            cluster_ids=data.cluster_ids,
            set_ids=data.set_ids + ("SET_EXTRA",),
        )
        # extra column kept out of the likelihood by a huge negative margin
        ext = lambda arr, col: np.hstack([arr, col])
        state2 = VariationalState(
            noise=state1.noise,
            assoc=TruncatedNormalParams(
                ext(state1.assoc.location, np.full((2, 1), 0.9)),
                ext(state1.assoc.scale_sq, np.full((2, 1), 0.8)),
            ),
            basis=NormalParams(
                ext(state1.basis.mean, np.full((3, 1), 0.2)),
                ext(state1.basis.variance, np.full((3, 1), 1.1)),
            ),
            coupling=NormalParams(
                ext(state1.coupling.mean, np.full((3, 1), 70.0)),
                ext(state1.coupling.variance, np.full((3, 1), 0.8)),
            ),
            sparsity=NormalParams(
                np.append(state1.sparsity.mean, 0.1),
                np.append(state1.sparsity.variance, 0.9),
            ),
            cluster_logits=state1.cluster_logits,
        )
        t1 = elbo_terms(state1, data, hyper1)
        t2 = elbo_terms(state2, data2, hyper2)
        assert t2["likelihood"] == pytest.approx(t1["likelihood"], rel=1e-12)
        assert t2["noise_prior"] == t1["noise_prior"]
        # the new column's own prior/entropy contribution explains every delta
        lam = 1.0
        tn_mean, _, tn_ent = trunc_norm_moments(0.9, 0.8)
        d_assoc = 2 * (np.log(lam) - lam * tn_mean)
        assert t2["assoc_prior"] - t1["assoc_prior"] == pytest.approx(d_assoc, rel=1e-10)
        assert t2["assoc_entropy"] - t1["assoc_entropy"] == pytest.approx(2 * tn_ent, rel=1e-10)

    def test_raises_on_nonfinite_block(self):
        from pathfact.model import NumericalError

        rng = np.random.default_rng(0)
        data2 = make_dataset(rng, n=2, d=2, k=2, r=2)
        state2 = make_state(rng, data2)
        huge = state2.updated(
            basis=NormalParams(np.full((2, 2), 1e200), np.full((2, 2), 1.0))
        )
        with pytest.raises(NumericalError):
            elbo(huge, data2, default_hyper())


def gmrf_expectation(mu, var, lap):
    """E[g^T P g], summed over the columns of q(g) = N(mu, var), from the
    GMRF prior's two parts in the shared membership terms."""
    r = mu.shape[1]
    terms = membership_terms(
        (mu, var, np.log(var)),
        (np.zeros(r), np.ones(r), np.zeros(r)),
        np.array([]),
        default_hyper(),
        lap,
    )
    terms, _ = with_prior_mean(terms, mu, lap)
    return -2.0 * (terms["coupling_prior_mean"] + terms["coupling_prior_var"])


def quadratic_form(g, lap):
    """g^T P g of one column, as the variance of q(g) vanishes."""
    return gmrf_expectation(g[:, None], np.full((g.size, 1), 1e-300), lap)


class TestGmrfPrior:
    def small_operator(self):
        g = InteractionGraph(node_labels=("a", "b"), edges={("a", "b"): 1.0})
        return normalized_laplacian(g, jitter=0.1)

    def test_zero_vector_is_mode(self):
        lap = self.small_operator()
        at_zero = quadratic_form(np.zeros(2), lap)
        rng = np.random.default_rng(3)
        for _ in range(20):
            assert quadratic_form(rng.normal(size=2), lap) >= at_zero

    def test_hand_quadratic_form(self):
        lap = self.small_operator()
        # precision [[1.1, -1], [-1, 1.1]]
        rough = quadratic_form(np.array([1.0, -1.0]), lap)
        smooth = quadratic_form(np.array([1.0, 1.0]), lap)
        assert rough == pytest.approx(4.2, abs=1e-12)
        assert smooth == pytest.approx(0.2, abs=1e-12)

    def test_smooth_beats_alternating_on_connected_graph(self):
        labels = tuple(f"n{i}" for i in range(6))
        edges = {(labels[i], labels[i + 1]): 1.0 for i in range(5)}
        lap = normalized_laplacian(InteractionGraph(node_labels=labels, edges=edges), 0.05)
        const = np.ones(6)
        alternating = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
        alternating *= np.linalg.norm(const) / np.linalg.norm(alternating)
        assert quadratic_form(const, lap) < quadratic_form(alternating, lap)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            self.small_operator().apply_precision(np.zeros(3))

    def test_zero_mean_gives_trace(self):
        g = InteractionGraph(node_labels=("a", "b", "c"), edges={("a", "b"): 1.0})
        lap = normalized_laplacian(g, jitter=0.2)
        c = 0.7
        out = gmrf_expectation(np.zeros((3, 4)), np.full((3, 4), c), lap)
        assert out == pytest.approx(4 * c * lap.precision.diagonal().sum(), rel=1e-14)

    def test_vanishing_variance_reduces_to_quadratic_form(self):
        g = InteractionGraph(node_labels=("a", "b", "c"), edges={("a", "b"): 1.0})
        lap = normalized_laplacian(g, jitter=0.2)
        dense = lap.precision.toarray()
        mu = np.random.default_rng(4).normal(size=(3, 2))
        for r in range(2):
            assert quadratic_form(mu[:, r], lap) == pytest.approx(
                mu[:, r] @ dense @ mu[:, r], rel=1e-12
            )

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(5)
        g = InteractionGraph(
            node_labels=("a", "b", "c", "d"),
            edges={("a", "b"): 1.0, ("b", "c"): 1.0, ("c", "d"): 1.0},
        )
        lap = normalized_laplacian(g, jitter=0.1)
        mu = rng.normal(size=(4, 1))
        var = rng.uniform(0.2, 2.0, size=(4, 1))
        samples = mu[:, 0] + np.sqrt(var[:, 0]) * rng.standard_normal((1_000_000, 4))
        quads = np.einsum("ij,ij->i", samples @ lap.precision.toarray(), samples)
        se = quads.std() / np.sqrt(quads.size)
        assert abs(gmrf_expectation(mu, var, lap) - quads.mean()) < 3 * se


ONE_NODE_LAP = normalized_laplacian(InteractionGraph(node_labels=("G0",)), 0.05)


def sparsity_log_prior(pi_bar, a):
    """log p(pi_bar) for one set with a = beta_a / R: the ELBO's sparsity
    prior term when q(pi_bar) puts its mass on ``pi_bar``."""
    data, state, _ = one_by_one_instance()
    state = state.updated(sparsity=NormalParams([pi_bar], [1e-300]))
    return elbo_terms(state, data, default_hyper(beta_a=a), lap=ONE_NODE_LAP)["sparsity_prior"]


class TestSparsityPrior:
    """The probit Beta-Bernoulli prior: Beta(Phi(pi_bar) | a, 1) N(pi_bar | 0, 1)."""

    def test_uniform_beta_leaves_gaussian(self):
        # a = 1 makes the Beta factor uniform
        assert sparsity_log_prior(0.0, 1.0) == pytest.approx(-0.9189385332046727, abs=1e-9)

    def test_direct_substitution(self):
        expected = -0.9189385332046727 + np.log(2.0) + np.log(0.5)
        assert sparsity_log_prior(0.0, 2.0) == pytest.approx(expected, abs=1e-9)

    def test_far_tail_against_log_quadrature(self):
        a = 0.1
        tail_mass, _ = integrate.quad(
            lambda u: np.exp(-0.5 * (8.0 + u) ** 2) / np.sqrt(2 * np.pi), 0, np.inf
        )
        oracle = (a - 1.0) * np.log(tail_mass) + np.log(a) + stats.norm.logpdf(-8.0)
        assert sparsity_log_prior(-8.0, a) == pytest.approx(oracle, abs=1e-6)

    def test_finite_deep_into_tail(self):
        assert np.isfinite(sparsity_log_prior(-38.0, 0.05))

    @pytest.mark.parametrize("a", [0.05, 0.5, 1.0, 2.0])
    def test_normalizes(self, a):
        total, _ = integrate.quad(
            lambda t: np.exp(sparsity_log_prior(t, a)), -np.inf, np.inf, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-6)


class TestRegularizedObjective:
    def test_zero_xi(self):
        rng = np.random.default_rng(12)
        data = make_dataset(rng)
        state = make_state(rng, data)
        hyper = default_hyper(xi=0.0)
        objective, bound, penalty = regularized_objective(state, data, hyper)
        assert penalty == 0.0
        assert objective == bound

    def test_empty_mask(self):
        rng = np.random.default_rng(13)
        data = make_dataset(rng, mask_prob=0.0)
        state = make_state(rng, data)
        objective, bound, penalty = regularized_objective(state, data, default_hyper(xi=5.0))
        assert penalty == 0.0
        assert objective == bound

    def test_single_known_entry(self):
        data = ObservationSet(
            X=np.array([[0.5]]),
            U0=np.array([[1.0]]),
            Z0=np.array([[1]]),
            graph=InteractionGraph(node_labels=("G0",)),
            sample_ids=("S0",),
            feature_ids=("G0",),
            cluster_ids=("C0",),
            set_ids=("SET0",),
        )
        state = VariationalState(
            noise=GammaParams(1.0, 1.0),
            assoc=TruncatedNormalParams([[0.5]], [[1.0]]),
            basis=NormalParams([[0.0]], [[1.0]]),
            coupling=NormalParams([[0.4]], [[0.6]]),
            sparsity=NormalParams([0.4], [0.9]),  # margin 0 -> q(Z=1) = 0.5
            cluster_logits=np.zeros((1, 1)),
        )
        hyper = default_hyper(xi=2.0)
        objective, bound, penalty = regularized_objective(state, data, hyper)
        assert penalty == pytest.approx(2.0 * np.log(0.5), abs=1e-12)
        assert objective == pytest.approx(bound + penalty)


class TestRankRow:
    def ranked_ids(self, row, ids, top_m):
        return [s for s, _ in rank_row(np.array(row), tuple(ids), top_m)]

    def test_sorts_descending(self):
        assert self.ranked_ids([0.1, 0.9, 0.5], ["set1", "set2", "set3"], 2) == ["set2", "set3"]

    def test_full_permutation(self):
        assert self.ranked_ids([0.3, 0.1, 0.2], ["a", "b", "c"], 3) == ["a", "c", "b"]

    def test_tie_breaks_lexicographically(self):
        assert self.ranked_ids([0.5, 0.5], ["BETA", "ALPHA"], 2) == ["ALPHA", "BETA"]

    def test_invariant_to_monotone_transform(self):
        rng = np.random.default_rng(14)
        row = rng.uniform(0.1, 3.0, size=6)
        ids = [f"P{i}" for i in range(6)]
        assert self.ranked_ids(row, ids, 6) == self.ranked_ids(np.exp(2 * row), ids, 6)


class TestSummarize:
    def test_invariants(self):
        rng = np.random.default_rng(15)
        data = make_dataset(rng)
        state = make_state(rng, data)
        res = summarize(state, data, default_hyper(), top_m=2)
        assert np.all(res.assoc_mean > 0)
        assert np.all((res.z_marginal >= 0) & (res.z_marginal <= 1))
        np.testing.assert_allclose(res.u_mixed.sum(axis=1), 1.0, atol=1e-12)
        assert len(res.ranked) == data.n_clusters
        assert all(len(lst) == 2 for lst in res.ranked)

    def test_clamp_flag(self):
        rng = np.random.default_rng(16)
        data = make_dataset(rng, mask_prob=0.5)
        state = make_state(rng, data)
        res = summarize(state, data, default_hyper(), clamp_known=True)
        rows, cols = data.mask_indices
        assert np.all(res.z_marginal[rows, cols] == 1.0)

    def test_given_moments_are_used_as_is(self):
        rng = np.random.default_rng(16)
        data = make_dataset(rng, mask_prob=0.5)
        state = make_state(rng, data)
        hyper = default_hyper()
        mom = factor_moments(state, data, hyper)
        res = summarize(state, data, hyper, clamp_known=True, mom=mom)
        assert res.assoc_mean is mom.s_mean and res.u_mixed is mom.u
        # clamping writes to a copy, not to the moments it was given
        np.testing.assert_array_equal(mom.rho, factor_moments(state, data, hyper).rho)
        fresh = summarize(state, data, hyper, clamp_known=True)
        assert res.z_marginal.tobytes() == fresh.z_marginal.tobytes()
        assert res.ranked == fresh.ranked


class TestHyperparameters:
    @pytest.mark.parametrize(
        "name, value", [("lambda_s0", [1.0, np.inf]), ("sigma_v0", np.nan), ("zeta", np.nan)]
    )
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            default_hyper(**{name: value})

    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("zeta", 1.5, r"zeta must lie in \[0, 1\]"),
            ("xi", -1.0, "xi must be nonnegative"),
            ("max_sweeps", 0, "max_sweeps must be >= 1"),
            ("seed", -1, "seed must be nonnegative"),
        ],
    )
    def test_out_of_range_rejected(self, name, value, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            default_hyper(**{name: value})

    def test_int_beyond_float_range_accepted(self):
        assert default_hyper(seed=10**400).seed == 10**400


class TestObservationSetValidation:
    def test_rejects_bad_one_hot(self):
        rng = np.random.default_rng(17)
        data = make_dataset(rng)
        bad_u0 = data.U0.copy()
        bad_u0[0] = 0.5
        with pytest.raises(ValueError):
            ObservationSet(
                X=data.X,
                U0=bad_u0,
                Z0=data.Z0,
                graph=data.graph,
                sample_ids=data.sample_ids,
                feature_ids=data.feature_ids,
                cluster_ids=data.cluster_ids,
                set_ids=data.set_ids,
            )

    def test_rejects_mismatched_graph_order(self):
        rng = np.random.default_rng(18)
        data = make_dataset(rng)
        shuffled = data.graph.subgraph(tuple(reversed(data.feature_ids)))
        with pytest.raises(ValueError):
            ObservationSet(
                X=data.X,
                U0=data.U0,
                Z0=data.Z0,
                graph=shuffled,
                sample_ids=data.sample_ids,
                feature_ids=data.feature_ids,
                cluster_ids=data.cluster_ids,
                set_ids=data.set_ids,
            )


    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_x(self, bad):
        data = make_dataset(np.random.default_rng(20))
        x = data.X.copy()
        x[-1, 0] = bad
        with pytest.raises(ValueError, match="^X contains non-finite values$"):
            replace(data, X=x)

    def test_accepts_no_samples(self):
        data = make_dataset(np.random.default_rng(21))
        empty = replace(data, X=np.empty((0, data.n_features)), U0=np.empty((0, 2)), sample_ids=())
        assert empty.n_samples == 0 and empty.x_sq == 0.0

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_x_sq_reads_x_in_place(self, order):
        """||X||^2 needs no N x D temporary, in either memory order, and
        equals the sum of X * X to rounding."""
        base = make_dataset(np.random.default_rng(22), n=200, d=300, edge_prob=0.02)
        data = replace(base, X=np.asarray(base.X, order=order))
        assert data.X.flags.c_contiguous == (order == "C")
        value, peak = traced_peak(lambda: data.x_sq)
        assert peak < data.X.nbytes / 4
        want = float(np.sum(data.X * data.X))
        assert abs(value - want) <= 1e-12 * want

    def test_mask_indices_computed_once_and_read_only(self):
        data = make_dataset(np.random.default_rng(19), mask_prob=0.5)
        rows, cols = data.mask_indices
        again = data.mask_indices
        assert again[0] is rows and again[1] is cols
        np.testing.assert_array_equal(np.stack([rows, cols]), np.nonzero(data.Z0))
        for index in (rows, cols):
            with pytest.raises(ValueError, match="read-only"):
                index[0] = 0


class TestElboTrace:
    def test_monotone_check(self):
        trace = ElboTrace()
        for i, val in enumerate([-100.0, -50.0, -50.0 + 1e-12, -49.0]):
            trace.append(SweepRecord(sweep=i, elbo=val, penalty=0.0, objective=val))
        ok, worst = trace.is_monotone()
        assert ok and worst == 0.0

    def test_detects_decrease(self):
        trace = ElboTrace()
        for i, val in enumerate([-100.0, -50.0, -51.0]):
            trace.append(SweepRecord(sweep=i, elbo=val, penalty=0.0, objective=val))
        ok, worst = trace.is_monotone()
        assert not ok
        assert worst == pytest.approx(-1.0)
