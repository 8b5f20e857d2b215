import warnings
import weakref
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import special

from conftest import default_hyper, labeled_graph, make_dataset, make_state, polished_minimum

from pathfact.dist import (
    GammaParams,
    NormalParams,
    TruncatedNormalParams,
    expected_log_ndtr_grad,
    gh_grid,
    pdf_over_cdf,
)
from pathfact import inference, model
from pathfact.graph import InteractionGraph, normalized_laplacian
from pathfact.inference import (
    _basis_sweep,
    _CouplingProblem,
    cluster_objective_and_grad,
    coupling_objective_and_grad,
    fit,
    init_state,
    update_association,
    update_basis,
    update_cluster,
    update_coupling,
    update_noise,
)
from pathfact.model import (
    ObservationSet,
    VariationalState,
    elbo,
    expected_reconstruction,
    factor_moments,
    regularized_objective,
    softmax_rows,
)


def singleton_dataset(x=2.0):
    return ObservationSet(
        X=np.array([[x]]),
        U0=np.array([[1.0]]),
        Z0=np.array([[1]]),
        graph=InteractionGraph(node_labels=("G0",)),
        sample_ids=("S0",),
        feature_ids=("G0",),
        cluster_ids=("C0",),
        set_ids=("SET0",),
    )


def deterministic_singleton_state(s_loc=1.0, s_scale=1e-18, v_mean=1.0, v_var=1e-18):
    """All factors pinned: q(Z) = 1 in floating point, E[gamma] = 1."""
    return VariationalState(
        noise=GammaParams(5.0, 5.0),
        assoc=TruncatedNormalParams([[s_loc]], [[s_scale]]),
        basis=NormalParams([[v_mean]], [[v_var]]),
        coupling=NormalParams([[-60.0]], [[1e-12]]),
        sparsity=NormalParams([0.0], [1e-12]),
        cluster_logits=np.zeros((1, 1)),
    )


class TestUpdateNoise:
    def test_formula_with_negligible_residual(self):
        data = singleton_dataset(x=0.0)
        state = deterministic_singleton_state(s_loc=1e-12, v_mean=0.0)
        # residual ~ 0: shape = 1 + 1/2, rate = 1 + 0/2
        out = update_noise(state, data, default_hyper(zeta=1.0))
        assert float(out.shape) == 1.5
        assert float(out.rate) == pytest.approx(1.0, abs=1e-10)

    def test_rate_increment_scales_quadratically(self):
        rng = np.random.default_rng(0)
        data = make_dataset(rng, n=4, d=3, k=2, r=2)
        state = make_state(rng, data).updated(
            coupling=NormalParams(np.full((3, 2), 60.0), 1e-12),
            sparsity=NormalParams(np.zeros(2), 1e-12),
        )  # reconstruction pinned at 0
        hyper = default_hyper()
        doubled = ObservationSet(
            X=2 * data.X,
            U0=data.U0,
            Z0=data.Z0,
            graph=data.graph,
            sample_ids=data.sample_ids,
            feature_ids=data.feature_ids,
            cluster_ids=data.cluster_ids,
            set_ids=data.set_ids,
        )
        inc1 = float(update_noise(state, data, hyper).rate) - 1.0
        inc2 = float(update_noise(state, doubled, hyper).rate) - 1.0
        assert inc2 == pytest.approx(4.0 * inc1, rel=1e-12)

    def test_matches_numerical_elbo_maximum(self):
        rng = np.random.default_rng(1)
        data = make_dataset(rng, n=6, d=5, k=2, r=3)
        state = make_state(rng, data)
        hyper = default_hyper()
        closed = update_noise(state, data, hyper)
        lap = normalized_laplacian(data.graph, hyper.epsilon)

        def neg(x):
            return -elbo(
                state.updated(noise=GammaParams(np.exp(x[0]), np.exp(x[1]))), data, hyper, lap=lap
            )

        x = polished_minimum(neg, np.log([float(closed.shape), float(closed.rate)]) + 0.25)
        np.testing.assert_allclose(
            np.exp(x), [float(closed.shape), float(closed.rate)], rtol=1e-4
        )

    def test_raises_nothing_and_improves_elbo(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            data = make_dataset(rng, n=5, d=4, k=2, r=2)
            state = make_state(rng, data)
            hyper = default_hyper()
            before = elbo(state, data, hyper)
            after = elbo(state.updated(noise=update_noise(state, data, hyper)), data, hyper)
            assert after >= before - 1e-10


class TestUpdateAssociation:
    def test_hand_conjugate_limit(self):
        # X = 2 with every other factor pinned at 1 and a vanishing prior rate
        data = singleton_dataset(x=2.0)
        state = deterministic_singleton_state()
        hyper = default_hyper(zeta=1.0, lambda_s0=1e-12)
        out = update_association(state, data, hyper, 0, 0)
        assert float(out.location) == pytest.approx(2.0, abs=1e-9)
        assert float(out.scale_sq) == pytest.approx(1.0, abs=1e-9)

    def test_redundant_factor_is_switched_off(self):
        # factor 0 already explains X exactly; factor 1 should shut down
        rng = np.random.default_rng(3)
        n, d = 6, 2
        u0 = np.ones((n, 1))
        v = np.array([[1.0, 0.5], [-1.0, 0.8]])
        s = np.array([[2.0, 0.5]])
        x = u0 @ s[:, :1] @ v[:, :1].T
        data = ObservationSet(
            X=x,
            U0=u0,
            Z0=np.ones((d, 2), dtype=int),
            graph=InteractionGraph(node_labels=("G0", "G1")),
            sample_ids=tuple(f"S{i}" for i in range(n)),
            feature_ids=("G0", "G1"),
            cluster_ids=("C0",),
            set_ids=("SET0", "SET1"),
        )
        state = VariationalState(
            noise=GammaParams(100.0, 1.0),
            assoc=TruncatedNormalParams(s, np.full((1, 2), 1e-12)),
            basis=NormalParams(v, np.full((d, 2), 1e-12)),
            coupling=NormalParams(np.full((d, 2), -60.0), np.full((d, 2), 1e-12)),
            sparsity=NormalParams(np.zeros(2), np.full(2, 1e-12)),
            cluster_logits=np.zeros((n, 1)),
        )
        hyper = default_hyper(zeta=1.0, lambda_s0=1.0, xi=0.0)
        out = update_association(state, data, hyper, 0, 1)
        from pathfact.dist import trunc_norm_moments

        mean = trunc_norm_moments(out.location, out.scale_sq)[0]
        assert float(out.location) < 0
        assert float(mean) < 0.1
        lap = normalized_laplacian(data.graph, hyper.epsilon)

        def neg(xv):
            loc = state.assoc.location.copy()
            sc = state.assoc.scale_sq.copy()
            loc[0, 1] = xv[0]
            sc[0, 1] = np.exp(xv[1])
            return -regularized_objective(
                state.updated(assoc=TruncatedNormalParams(loc, sc)), data, hyper, lap=lap
            )[0]

        best = polished_minimum(neg, np.array([float(out.location), np.log(float(out.scale_sq))]) + 0.1)
        assert best[0] == pytest.approx(float(out.location), rel=1e-4, abs=1e-6)
        assert np.exp(best[1]) == pytest.approx(float(out.scale_sq), rel=1e-4)

    def test_matches_numerical_maximum_random(self):
        rng = np.random.default_rng(4)
        data = make_dataset(rng, n=7, d=5, k=2, r=3)
        state = make_state(rng, data)
        hyper = default_hyper(xi=2.0)
        lap = normalized_laplacian(data.graph, hyper.epsilon)
        for k, r in [(0, 0), (1, 2)]:
            closed = update_association(state, data, hyper, k, r)

            def neg(xv, k=k, r=r):
                loc = state.assoc.location.copy()
                sc = state.assoc.scale_sq.copy()
                loc[k, r] = xv[0]
                sc[k, r] = np.exp(xv[1])
                return -regularized_objective(
                    state.updated(assoc=TruncatedNormalParams(loc, sc)), data, hyper, lap=lap
                )[0]

            x0 = np.array([float(closed.location), np.log(float(closed.scale_sq))]) + 0.2
            best = polished_minimum(neg, x0)
            assert best[0] == pytest.approx(float(closed.location), rel=1e-4, abs=1e-7)
            assert np.exp(best[1]) == pytest.approx(float(closed.scale_sq), rel=1e-4)

    def test_ascent_contract(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            data = make_dataset(rng, n=5, d=4, k=2, r=3)
            state = make_state(rng, data)
            hyper = default_hyper(xi=1.0)
            k = int(rng.integers(0, 2))
            r = int(rng.integers(0, 3))
            out = update_association(state, data, hyper, k, r)
            assert float(out.scale_sq) > 0
            loc = state.assoc.location.copy()
            sc = state.assoc.scale_sq.copy()
            loc[k, r] = float(out.location)
            sc[k, r] = float(out.scale_sq)
            before = regularized_objective(state, data, hyper)[0]
            after = regularized_objective(
                state.updated(assoc=TruncatedNormalParams(loc, sc)), data, hyper
            )[0]
            assert after >= before - 1e-10


def trunc_norm_mean_oracle(location, scale_sq):
    """The mean as trunc_norm_moments formed it for one site, on 0-d arrays."""
    sd = np.sqrt(np.asarray(scale_sq, dtype=float))
    h = np.asarray(location, dtype=float) / sd
    ratio = np.sqrt(2.0 / np.pi) / special.erfcx(-h / np.sqrt(2.0))
    return sd * (h + ratio)


class TestAssociationSweep:
    def test_forms_the_mean_alone_with_the_same_bits(self, monkeypatch):
        """The sweep forms each site's mean without trunc_norm_moments, and
        every later site reads the bits the full moments would give, at
        standardized locations deep in the lower tail, at zero and where
        phi/Phi underflows to zero."""
        rng = np.random.default_rng(12)
        data = make_dataset(rng, n=9, d=7, k=3, r=4)
        state = make_state(rng, data)
        rh = default_hyper(xi=1.0).resolve(data)
        mom = factor_moments(state, data, rh)
        # site -> the standardized location h = loc / sd it is moved to
        placed_h = {
            (0, 0): -38.0, (0, 2): -36.5, (1, 1): 0.0, (1, 3): -1e-9, (2, 0): 40.0, (2, 2): 38.5
        }
        means_read = []
        site = inference._assoc_site

        def placed(k, r, m, *args):
            means_read.append(m.copy())
            loc, scale = site(k, r, m, *args)
            if (k, r) in placed_h:
                loc = placed_h[k, r] * np.sqrt(scale)
            return loc, scale

        def forbidden(*args, **kwargs):
            raise AssertionError("trunc_norm_moments called")

        monkeypatch.setattr(inference, "_assoc_site", placed)
        got = inference._association_sweep(state, data, rh, mom)
        got_means, means_read[:] = means_read[:], []

        loc = state.assoc.location.copy()
        scale = state.assoc.scale_sq.copy()
        m = mom.s_mean.copy()
        for k in range(data.n_clusters):
            for r in range(data.n_sets):
                loc[k, r], scale[k, r] = inference._assoc_site(
                    k, r, m, mom.u.T @ mom.u, mom.u.T @ mom.xw, mom.ww,
                    float(state.noise.mean), rh.lambda_s0[k, r],
                )
                m[k, r] = trunc_norm_mean_oracle(loc[k, r], scale[k, r])
        assert got.location.tobytes() == loc.tobytes()
        assert got.scale_sq.tobytes() == scale.tobytes()
        assert [a.tobytes() for a in got_means] == [a.tobytes() for a in means_read]
        h = loc / np.sqrt(scale)
        for at, want in placed_h.items():
            assert h[at] == pytest.approx(want, rel=1e-12, abs=1e-20)
        assert m[2, 0] == 40.0 * np.sqrt(scale[2, 0])  # phi/Phi read 0 there
        assert 0 < m[0, 0] < 0.03 * np.sqrt(scale[0, 0])

        monkeypatch.setattr("pathfact.dist.trunc_norm_moments", forbidden)
        monkeypatch.setattr(inference, "trunc_norm_moments", forbidden, raising=False)
        again = inference._association_sweep(state, data, rh, mom)
        assert again.location.tobytes() == loc.tobytes()


class TestUpdateBasis:
    def test_disconnected_site_returns_prior(self):
        rng = np.random.default_rng(6)
        data = make_dataset(rng, n=5, d=4, k=2, r=2)
        state = make_state(rng, data).updated(
            coupling=NormalParams(np.full((4, 2), 60.0), 1e-12),
            sparsity=NormalParams(np.zeros(2), 1e-12),
        )  # q(Z) = 0 in floating point
        hyper = default_hyper(mu_v0=0.7, sigma_v0=1.3)
        out = update_basis(state, data, hyper, 2, 1)
        assert float(out.mean) == pytest.approx(0.7, abs=1e-12)
        assert float(out.variance) == pytest.approx(1.3, abs=1e-12)

    def test_hand_symmetric_case(self):
        # mirror of the association hand case with S pinned instead of V
        data = singleton_dataset(x=2.0)
        state = deterministic_singleton_state()
        hyper = default_hyper(zeta=1.0, mu_v0=0.0, sigma_v0=1e12)
        out = update_basis(state, data, hyper, 0, 0)
        assert float(out.mean) == pytest.approx(2.0, abs=1e-9)
        assert float(out.variance) == pytest.approx(1.0, abs=1e-9)

    def test_matches_numerical_maximum_random(self):
        rng = np.random.default_rng(7)
        data = make_dataset(rng, n=6, d=4, k=2, r=3)
        state = make_state(rng, data)
        hyper = default_hyper(xi=2.0)
        lap = normalized_laplacian(data.graph, hyper.epsilon)
        for j, r in [(0, 0), (3, 2)]:
            closed = update_basis(state, data, hyper, j, r)

            def neg(xv, j=j, r=r):
                mean = state.basis.mean.copy()
                var = state.basis.variance.copy()
                mean[j, r] = xv[0]
                var[j, r] = np.exp(xv[1])
                return -regularized_objective(
                    state.updated(basis=NormalParams(mean, var)), data, hyper, lap=lap
                )[0]

            x0 = np.array([float(closed.mean), np.log(float(closed.variance))]) + 0.2
            best = polished_minimum(neg, x0)
            assert best[0] == pytest.approx(float(closed.mean), rel=1e-6, abs=1e-8)
            assert np.exp(best[1]) == pytest.approx(float(closed.variance), rel=1e-6)

    def test_sweep_matches_sequential_site_updates(self):
        # reference: every row in turn, its sets in order, each site update
        # written back before the next one
        rng = np.random.default_rng(31)
        data = make_dataset(rng, n=9, d=7, k=3, r=4)
        state = make_state(rng, data)
        hyper = default_hyper(
            mu_v0=rng.normal(0.0, 0.5, size=(7, 4)),
            sigma_v0=rng.uniform(0.3, 2.0, size=(7, 4)),
        )
        rho = factor_moments(state, data, hyper).rho
        assert rho.min() > 1e-3 and rho.max() < 1.0 - 1e-3 and rho.std() > 0.1
        mean = state.basis.mean.copy()
        var = state.basis.variance.copy()
        for j in range(data.n_features):
            for r in range(data.n_sets):
                current = state.updated(basis=NormalParams(mean.copy(), var.copy()))
                site = update_basis(current, data, hyper, j, r)
                mean[j, r] = float(site.mean)
                var[j, r] = float(site.variance)
        rh = hyper.resolve(data)
        swept = _basis_sweep(state, data, rh, factor_moments(state, data, rh))
        np.testing.assert_allclose(
            swept.mean, mean, rtol=0, atol=1e-12 * np.abs(mean).max()
        )
        np.testing.assert_array_equal(swept.variance, var)


def direct_cluster_objective_and_grad(theta, state, data, hyper):
    """Reference cluster objective: the N x D residual formed explicitly."""
    rh = hyper.resolve(data)
    mom = factor_moments(state, data, rh)
    noise_mean = float(state.noise.shape / state.noise.rate)
    col_scale = mom.w2_sum - np.einsum("jr,jr->r", mom.w, mom.w)
    var_load = mom.s_var @ mom.w2_sum
    tilde = softmax_rows(theta)
    u = rh.zeta * data.U0 + (1.0 - rh.zeta) * tilde
    a = u @ mom.s_mean
    err = data.X - a @ mom.w.T
    total = (
        float(np.sum(err * err))
        + float(np.einsum("ir,ir,r->", a, a, col_scale))
        + float((u * u).sum(axis=0) @ var_load)
    )
    value = -0.5 * noise_mean * total
    d_total_du = (
        -2.0 * (err @ mom.w) @ mom.s_mean.T
        + 2.0 * (a * col_scale) @ mom.s_mean.T
        + 2.0 * u * var_load
    )
    d_value_du = -0.5 * noise_mean * d_total_du
    inner = (tilde * d_value_du).sum(axis=1, keepdims=True)
    return value, (1.0 - rh.zeta) * tilde * (d_value_du - inner)


def doubling_ascent(x0, value, value_and_grad):
    """Reference: the same Armijo ascent, but each search starts at twice the
    last accepted step."""
    x = x0
    f, g = value_and_grad(x)
    step = inference._INIT_STEP
    for _ in range(inference._MAX_ITERS):
        gnorm_sq = float((g * g).sum())
        if np.sqrt(gnorm_sq) <= inference._GRAD_TOL:
            break
        s = step
        while s > 1e-20:
            cand = x + s * g
            floor = f + inference._ARMIJO_C * s * gnorm_sq
            if value(cand, floor)[0] >= floor:
                x = cand
                f, g = value_and_grad(cand)
                step = min(s * 2.0, inference._INIT_STEP * 1024.0)
                break
            s *= inference._SHRINK
        else:
            break
    return x


class Pass:
    """A fake trial's pass, weak-referenceable: the point it was formed at."""

    def __init__(self, x):
        self.x = x


class RecordedObjective:
    """f(x) = -x.H.x / 2 + b.x (H = 0: linear), recording each trial point
    and floor passed to ``value``, with the (x, f, g) the trial steps from,
    and each (x, f, g) of ``value_and_grad``. Each trial forms a
    :class:`Pass`, held here only by a weak reference. Recorded too: at each
    trial, how many earlier passes were still alive, and at each gradient,
    the point of the pass it was handed (None without one)."""

    def __init__(self, h, b):
        self.h, self.b = np.asarray(h, dtype=float), np.asarray(b, dtype=float)
        self.trials, self.floors, self.points = [], [], []
        self.passes, self.alive, self.handed = [], [], []

    def f(self, x):
        return float(-0.5 * x @ self.h @ x + self.b @ x)

    def value(self, x, floor):
        self.alive.append(sum(ref() is not None for ref in self.passes))
        self.trials.append(x.copy())
        self.floors.append((floor, self.points[-1]))
        kept = Pass(x.copy())
        self.passes.append(weakref.ref(kept))
        return self.f(x), kept

    def value_and_grad(self, x, kept=None):
        self.handed.append(None if kept is None else kept.x)
        out = (self.f(x), self.b - self.h @ x)
        self.points.append((x.copy(), *out))
        return out


def step_of(x_from, x_to, g):
    return float((x_to - x_from) @ g / (g @ g))


class TestBacktrackingAscent:
    """The step rule of the shared line search: a Barzilai-Borwein start
    after each accepted step, doubling where the curvature is not positive,
    the _INIT_STEP * 1024 cap, and the Armijo test on every accepted step."""

    def test_second_trial_is_barzilai_borwein_step(self, monkeypatch):
        h = np.array([[2.0, 0.5], [0.5, 1.0]])
        obj = RecordedObjective(h, [1.0, -1.0])
        monkeypatch.setattr(inference, "_MAX_ITERS", 2)
        monkeypatch.setattr(inference, "_INIT_STEP", 0.1)
        inference._backtracking_ascent(np.zeros(2), obj.value, obj.value_and_grad)
        (x0, _, g0), (x1, _, g1) = obj.points[:2]
        np.testing.assert_array_equal(obj.trials[0], x1)  # the first trial was accepted
        s, y = x1 - x0, g1 - g0
        # ascent form of s.y / y.y; on a quadratic y = -H s, so it is g.H.g / g.H^2.g
        expected = -(s @ y) / (y @ y)
        np.testing.assert_allclose(expected, (g0 @ h @ g0) / (g0 @ h @ h @ g0), rtol=1e-12)
        assert expected != pytest.approx(0.2)  # not the doubled step
        np.testing.assert_allclose(step_of(x1, obj.trials[1], g1), expected, rtol=1e-12)

    def test_linear_objective_doubles_up_to_cap(self, monkeypatch):
        obj = RecordedObjective(np.zeros((2, 2)), [3.0, -4.0])
        monkeypatch.setattr(inference, "_MAX_ITERS", 14)
        monkeypatch.setattr(inference, "_INIT_STEP", 0.5)
        x, stalled, evaluations = inference._backtracking_ascent(
            np.zeros(2), obj.value, obj.value_and_grad
        )
        starts = [np.zeros(2)] + obj.trials[:-1]
        steps = [step_of(a, b, obj.b) for a, b in zip(starts, obj.trials)]
        np.testing.assert_allclose(steps, [0.5 * min(2.0**k, 1024.0) for k in range(14)])
        np.testing.assert_array_equal(x, obj.trials[-1])
        assert not stalled
        assert evaluations == 1 + 2 * 14

    def test_ill_conditioned_quadratic_ascends_with_fewer_evaluations(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
        h = (q * np.logspace(0, 3, 10)) @ q.T
        b = rng.standard_normal(10)
        obj = RecordedObjective(h, b)
        x, _, evaluations = inference._backtracking_ascent(
            np.zeros(10), obj.value, obj.value_and_grad
        )
        assert evaluations == len(obj.trials) + len(obj.points)
        assert len(obj.points) == inference._MAX_ITERS + 1
        for (xa, fa, ga), (xb, fb, _) in zip(obj.points, obj.points[1:]):
            margin = inference._ARMIJO_C * step_of(xa, xb, ga) * (ga @ ga)
            assert fb - fa >= margin * (1.0 - 1e-9)
        ref = RecordedObjective(h, b)
        x_ref = doubling_ascent(np.zeros(10), ref.value, ref.value_and_grad)
        assert len(obj.trials) < len(ref.trials)
        assert obj.f(x) > ref.f(x_ref)

    def test_each_trial_gets_its_armijo_floor(self):
        """value(x, floor) receives f + _ARMIJO_C * s * |g|^2 for the step s
        of that trial from the point (x, f, g) it steps from."""
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        obj = RecordedObjective((q * np.logspace(0, 2, 6)) @ q.T, rng.standard_normal(6))
        inference._backtracking_ascent(np.zeros(6), obj.value, obj.value_and_grad)
        shrunk = 0
        for trial, (floor, (x, f, g)) in zip(obj.trials, obj.floors):
            s = step_of(x, trial, g)
            assert floor == pytest.approx(f + inference._ARMIJO_C * s * (g @ g), rel=1e-12, abs=0)
            shrunk += obj.f(trial) < floor
        assert shrunk > 0  # some trials were rejected and shrunk

    def test_hands_each_accepted_pass_to_its_gradient_and_holds_one(self):
        """The gradient at each accepted trial gets that trial's pass, the
        gradient at the start none, and every pass is dropped before the
        next trial forms its own: memory holds one pass at a time."""
        rng = np.random.default_rng(2)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        obj = RecordedObjective((q * np.logspace(0, 2, 6)) @ q.T, rng.standard_normal(6))
        inference._backtracking_ascent(np.zeros(6), obj.value, obj.value_and_grad)
        assert len(obj.points) > 2 and len(obj.trials) > len(obj.points)
        assert obj.alive == [0] * len(obj.trials)
        assert obj.handed[0] is None
        for (x, _, _), handed in zip(obj.points[1:], obj.handed[1:]):
            assert handed.tobytes() == x.tobytes()


class TestUpdateCluster:
    @pytest.mark.parametrize("zeta", [0.0, 0.5, 0.9])
    def test_matches_direct_residual_formula(self, zeta):
        rng = np.random.default_rng(24)
        for _ in range(5):
            data = make_dataset(rng, n=9, d=7, k=3, r=4, mask_prob=0.5)
            assert data.Z0.any()
            state = make_state(rng, data)
            hyper = default_hyper(zeta=zeta)
            theta = state.cluster_logits
            want_val, want_grad = direct_cluster_objective_and_grad(theta, state, data, hyper)
            val, grad = cluster_objective_and_grad(theta, state, data, hyper)
            assert val == pytest.approx(want_val, rel=1e-10, abs=0)
            np.testing.assert_allclose(
                grad, want_grad, rtol=0, atol=1e-10 * np.abs(want_grad).max()
            )
            trial, _ = cluster_objective_and_grad(theta, state, data, hyper, with_grad=False)
            assert trial == val

    def test_reads_only_cluster_space_statistics(self):
        """Given moments that hold only c, m and var_load, an evaluation and
        the whole block give the same bits as with the full moments."""
        rng = np.random.default_rng(25)
        data = make_dataset(rng, n=9, d=7, k=3, r=4)
        state = make_state(rng, data)
        hyper = default_hyper(zeta=0.6)
        mom = factor_moments(state, data, hyper)
        lean = SimpleNamespace(c=mom.c, m=mom.m, var_load=mom.var_load)
        theta = rng.normal(size=state.cluster_logits.shape)
        for with_grad in (True, False):  # the gradient, then the pass
            val, out = cluster_objective_and_grad(
                theta, state, data, hyper, with_grad=with_grad, mom=mom
            )
            lean_val, lean_out = cluster_objective_and_grad(
                theta, state, data, hyper, with_grad=with_grad, mom=lean
            )
            assert lean_val == val
            for a, b in [(out, lean_out)] if with_grad else zip(out, lean_out):
                assert np.asarray(b).tobytes() == np.asarray(a).tobytes()
        full = update_cluster(state, data, hyper, mom=mom)
        only = update_cluster(state, data, hyper, mom=lean)
        assert only[0].tobytes() == full[0].tobytes() and only[1:] == full[1:]

    def test_one_softmax_per_trial_and_one_at_the_start(self, monkeypatch):
        """The gradient at an accepted trial reuses that trial's pass, so the
        block forms one softmax per trial plus one for its first gradient,
        and returns the bits of an ascent that hands over no pass."""
        rng = np.random.default_rng(26)
        data = make_dataset(rng, n=9, d=7, k=3, r=4)
        state = make_state(rng, data)
        rh = default_hyper(zeta=0.4).resolve(data)
        mom = factor_moments(state, data, rh)
        counts = {"softmax": 0, "trials": 0}
        softmax, evaluate = inference.softmax_rows, inference.cluster_objective_and_grad

        def counted_softmax(logits):
            counts["softmax"] += 1
            return softmax(logits)

        def counted_evaluate(*args, **kwargs):
            counts["trials"] += kwargs.get("with_grad", True) is False
            return evaluate(*args, **kwargs)

        monkeypatch.setattr(inference, "softmax_rows", counted_softmax)
        monkeypatch.setattr(inference, "cluster_objective_and_grad", counted_evaluate)
        theta, stalled, evaluations = update_cluster(state, data, rh, mom=mom)
        assert counts["softmax"] == counts["trials"] + 1 < evaluations
        assert not stalled

        fresh = inference._backtracking_ascent(
            state.cluster_logits,
            lambda th, _floor: (evaluate(th, state, data, rh, with_grad=False, mom=mom)[0], None),
            lambda th, kept=None: evaluate(th, state, data, rh, mom=mom),
        )
        assert theta.tobytes() == fresh[0].tobytes() and evaluations == fresh[2]

    def test_zeta_one_leaves_logits(self):
        rng = np.random.default_rng(8)
        data = make_dataset(rng)
        state = make_state(rng, data)
        hyper = default_hyper(zeta=1.0)
        theta, stalled, _ = update_cluster(state, data, hyper)
        np.testing.assert_array_equal(theta, state.cluster_logits)
        assert not stalled

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(9)
        data = make_dataset(rng, n=5, d=4, k=3, r=2)
        state = make_state(rng, data)
        hyper = default_hyper(zeta=0.6)
        theta = state.cluster_logits
        val, grad = cluster_objective_and_grad(theta, state, data, hyper)
        shifted_val, _ = cluster_objective_and_grad(theta + 3.7, state, data, hyper)
        assert shifted_val == pytest.approx(val, rel=1e-12)
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        for _ in range(3):
            data = make_dataset(rng, n=4, d=4, k=3, r=2)
            state = make_state(rng, data)
            hyper = default_hyper(zeta=0.7)
            theta = state.cluster_logits
            _, grad = cluster_objective_and_grad(theta, state, data, hyper)
            eps = 1e-5
            for _ in range(4):
                i = int(rng.integers(0, theta.shape[0]))
                k = int(rng.integers(0, theta.shape[1]))
                tp = theta.copy()
                tm = theta.copy()
                tp[i, k] += eps
                tm[i, k] -= eps
                fd = (
                    elbo(state.updated(cluster_logits=tp), data, hyper)
                    - elbo(state.updated(cluster_logits=tm), data, hyper)
                ) / (2 * eps)
                assert grad[i, k] == pytest.approx(fd, rel=1e-4, abs=1e-9)

    def test_ascends_objective(self):
        rng = np.random.default_rng(11)
        data = make_dataset(rng, n=6, d=5, k=3, r=2)
        state = make_state(rng, data)
        hyper = default_hyper(zeta=0.5)
        before = regularized_objective(state, data, hyper)[0]
        theta, stalled, _ = update_cluster(state, data, hyper)
        after = regularized_objective(state.updated(cluster_logits=theta), data, hyper)[0]
        assert after >= before - 1e-10
        assert not stalled


def reference_coupling(state, data, rh, lap, mom, x):
    """Value and gradient of the coupling block at the packed point ``x``,
    each term formed on its own: the residual in E[W], d value / d t
    through the Gaussian density, and the chain rule into each packed
    parameter."""
    d, r = data.n_features, data.n_sets
    n_g = d * r
    noise_mean = float(state.noise.shape / state.noise.rate)
    proj = data.X.T @ mom.a
    mu_g = x[:n_g].reshape(d, r)
    sig_g = np.exp(x[n_g : 2 * n_g]).reshape(d, r)
    mu_pi = x[2 * n_g : 2 * n_g + r]
    sig_pi = np.exp(x[2 * n_g + r :])
    total_var = sig_pi[None, :] + sig_g
    root = np.sqrt(total_var)
    t = (mu_pi[None, :] - mu_g) / root
    rho = special.ndtr(t)
    w = rho * mom.v_mean
    w_gram = w @ mom.aa
    residual = (
        data.x_sq
        - 2.0 * float((w * proj).sum())
        + float((w_gram * w).sum())
        + float(mom.a2_sum @ (rho * mom.v_second - w * w).sum(axis=0))
    )
    value = -0.5 * noise_mean * residual
    rows, cols = data.mask_indices
    terms, _ = model.membership_terms(
        (mu_g, sig_g, x[n_g : 2 * n_g]),
        (mu_pi, sig_pi, x[2 * n_g + r :]),
        t[rows, cols],
        rh,
        lap,
    )
    prec_mu = model.fill_prior_mean(terms, mu_g, lap)
    for term in terms.values():
        value += term

    d_resid_dw = 2.0 * (w_gram - proj - mom.a2_sum[None, :] * w)
    d_value_drho = -0.5 * noise_mean * (
        mom.v_mean * d_resid_dw + mom.v_second * mom.a2_sum[None, :]
    )
    d_value_dt = d_value_drho * np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)
    if rows.size > 0 and rh.xi > 0:
        pen = np.zeros_like(t)
        pen[rows, cols] = rh.xi * pdf_over_cdf(t[rows, cols])
        d_value_dt = d_value_dt + pen
    d_t_dvar = -0.5 * t / total_var
    a_beta = rh.beta_a / r
    d_eln_mu, d_eln_var = expected_log_ndtr_grad(gh_grid(mu_pi, sig_pi))
    grad_mu_g = -d_value_dt / root - prec_mu
    grad_sig_g = d_value_dt * d_t_dvar - 0.5 * lap.precision_diag[:, None] + 0.5 / sig_g
    grad_mu_pi = (d_value_dt / root).sum(axis=0) + (a_beta - 1.0) * d_eln_mu - mu_pi
    grad_sig_pi = (
        (d_value_dt * d_t_dvar).sum(axis=0) + (a_beta - 1.0) * d_eln_var - 0.5 + 0.5 / sig_pi
    )
    grad = np.concatenate(
        [grad_mu_g.ravel(), (grad_sig_g * sig_g).ravel(), grad_mu_pi, grad_sig_pi * sig_pi]
    )
    return value, grad


class TestUpdateCoupling:
    def test_penalty_drives_known_entries_to_one(self):
        feature_ids = ("G0", "G1")
        data = ObservationSet(
            X=np.zeros((2, 2)),
            U0=np.array([[1.0], [1.0]]),
            Z0=np.array([[1], [0]]),
            graph=InteractionGraph(node_labels=feature_ids),
            sample_ids=("S0", "S1"),
            feature_ids=feature_ids,
            cluster_ids=("C0",),
            set_ids=("SET0",),
        )
        hyper = default_hyper(xi=500.0, beta_a=0.5, zeta=1.0)
        state = VariationalState(
            noise=GammaParams(1.0, 1.0),
            assoc=TruncatedNormalParams(np.full((1, 1), 0.5), np.ones((1, 1))),
            basis=NormalParams(np.zeros((2, 1)), np.ones((2, 1))),
            coupling=NormalParams(np.array([[0.5], [0.0]]), np.ones((2, 1))),
            sparsity=NormalParams(np.array([0.0]), np.array([1.0])),
            cluster_logits=np.zeros((2, 1)),
        )
        rho_path = [float(factor_moments(state, data, hyper).rho[0, 0])]
        for _ in range(10):
            coupling, sparsity, _, _ = update_coupling(state, data, hyper)
            state = state.updated(coupling=coupling, sparsity=sparsity)
            rho_path.append(float(factor_moments(state, data, hyper).rho[0, 0]))
        assert rho_path[0] < 0.5
        climbing = [b >= a - 5e-4 for a, b in zip(rho_path, rho_path[1:])]
        assert all(climbing)
        assert rho_path[-1] >= 0.99
        # threshold margin widened
        final_margin = float(state.sparsity.mean[0] - state.coupling.mean[0, 0])
        assert final_margin > 0

    def test_edge_couples_updates(self):
        # known membership on feature 0 only; its graph neighbor should be
        # dragged along relative to the disconnected run
        feature_ids = ("G0", "G1", "G2")
        base = dict(
            X=np.zeros((2, 3)),
            U0=np.array([[1.0], [1.0]]),
            Z0=np.array([[1], [0], [0]]),
            sample_ids=("S0", "S1"),
            feature_ids=feature_ids,
            cluster_ids=("C0",),
            set_ids=("SET0",),
        )
        with_edge = ObservationSet(
            graph=labeled_graph(feature_ids, {("G0", "G1"): 1.0}),
            **base,
        )
        without_edge = ObservationSet(
            graph=InteractionGraph(node_labels=feature_ids), **base
        )
        hyper = default_hyper(xi=200.0, beta_a=0.5, zeta=1.0)

        def run(data):
            state = init_state(data, hyper)
            for _ in range(8):
                coupling, sparsity, _, _ = update_coupling(state, data, hyper)
                state = state.updated(coupling=coupling, sparsity=sparsity)
            return state

        coupled = run(with_edge)
        independent = run(without_edge)
        # the constrained feature's coupling mean drops in both runs
        assert coupled.coupling.mean[0, 0] < 0
        # its neighbor moves the same direction only under the edge
        assert coupled.coupling.mean[1, 0] < independent.coupling.mean[1, 0] - 1e-3

    def test_prior_fixed_point_without_penalty_or_data(self, monkeypatch):
        rng = np.random.default_rng(12)
        data = make_dataset(rng, n=4, d=3, k=2, r=2, mask_prob=0.5)
        hyper = default_hyper(xi=0.0, beta_a=2.0)  # beta_a / R = 1: flat Beta
        from pathfact.graph import normalized_laplacian

        lap = normalized_laplacian(data.graph, 0.05)
        state = make_state(rng, data).updated(
            noise=GammaParams(1e-10, 1.0),  # negligible likelihood weight
            assoc=TruncatedNormalParams(
                np.full((2, 2), -100.0), np.ones((2, 2))
            ),  # E[S] ~ 1e-2 at most, squared through tiny noise
            coupling=NormalParams(
                np.zeros((3, 2)), np.tile(1.0 / lap.precision_diag[:, None], (1, 2))
            ),
            sparsity=NormalParams(np.zeros(2), np.ones(2)),
        )
        before = regularized_objective(state, data, hyper)[0]
        monkeypatch.setattr(inference, "_GRAD_TOL", 1e-5)
        coupling, sparsity, _, _ = update_coupling(state, data, hyper)
        after = regularized_objective(
            state.updated(coupling=coupling, sparsity=sparsity), data, hyper
        )[0]
        np.testing.assert_allclose(coupling.mean, 0.0, atol=1e-12)
        np.testing.assert_allclose(sparsity.mean, 0.0, atol=1e-12)
        assert after == pytest.approx(before, abs=1e-9)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(3):
            data = make_dataset(rng, n=4, d=3, k=2, r=2, mask_prob=0.5)
            state = make_state(rng, data)
            hyper = default_hyper(xi=3.0)
            _, grad = coupling_objective_and_grad(state, data, hyper)
            d, r = 3, 2

            def obj_at(x):
                mu_g = x[: d * r].reshape(d, r)
                sig_g = np.exp(x[d * r : 2 * d * r]).reshape(d, r)
                mu_pi = x[2 * d * r : 2 * d * r + r]
                sig_pi = np.exp(x[2 * d * r + r :])
                st = state.updated(
                    coupling=NormalParams(mu_g, sig_g),
                    sparsity=NormalParams(mu_pi, sig_pi),
                )
                return regularized_objective(st, data, hyper)[0]

            x0 = np.concatenate(
                [
                    state.coupling.mean.ravel(),
                    np.log(state.coupling.variance).ravel(),
                    state.sparsity.mean,
                    np.log(state.sparsity.variance),
                ]
            )
            eps = 1e-5
            idx = rng.choice(x0.size, size=6, replace=False)
            for i in idx:
                xp = x0.copy()
                xm = x0.copy()
                xp[i] += eps
                xm[i] -= eps
                fd = (obj_at(xp) - obj_at(xm)) / (2 * eps)
                assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    @pytest.mark.parametrize(
        "xi, mask_prob", [(4.0, 0.3), (0.0, 0.3), (4.0, 0.0)], ids=["xi", "xi0", "empty_mask"]
    )
    def test_matches_reference_formula(self, xi, mask_prob):
        """The block's value and gradient equal the direct formula below,
        which forms each term on its own, up to the rounding of the sums."""
        rng = np.random.default_rng(15)
        data = make_dataset(rng, n=30, d=40, k=3, r=6, edge_prob=0.2, mask_prob=mask_prob)
        rh = default_hyper(zeta=0.6, xi=xi).resolve(data)
        lap = normalized_laplacian(data.graph, rh.epsilon)
        for _ in range(4):
            state = make_state(rng, data)
            mom = factor_moments(state, data, rh)
            problem = _CouplingProblem(state, data, rh, lap, mom)
            x0 = problem.pack(state.coupling, state.sparsity)
            for x in (x0, x0 + 0.3 * rng.standard_normal(x0.size)):
                value, grad = problem.value_and_grad(x)
                want_value, want_grad = reference_coupling(state, data, rh, lap, mom, x)
                assert value == pytest.approx(want_value, rel=1e-12, abs=0)
                scale = np.abs(want_grad).max()
                np.testing.assert_allclose(grad, want_grad, rtol=0, atol=1e-12 * scale)

    def test_ascends_objective(self):
        rng = np.random.default_rng(14)
        data = make_dataset(rng, n=5, d=4, k=2, r=3, mask_prob=0.4)
        state = make_state(rng, data)
        hyper = default_hyper(xi=5.0)
        before = regularized_objective(state, data, hyper)[0]
        coupling, sparsity, stalled, _ = update_coupling(state, data, hyper)
        after = regularized_objective(
            state.updated(coupling=coupling, sparsity=sparsity), data, hyper
        )[0]
        assert after >= before - 1e-10
        assert not stalled


class TestTrialValues:
    """The values the line searches compare: a trial step's value equals the
    value at a gradient point, and both track the full objective. A
    gradient handed a trial's pass is compared bit for bit with one that
    forms its own.
    It also screens a trial against its Armijo floor, which must leave every
    accept/reject decision as the exact value makes it."""

    def points(self, seed, n_points=24):
        rng = np.random.default_rng(seed)
        data = make_dataset(rng, n=30, d=20, k=3, r=5, edge_prob=0.2, mask_prob=0.3)
        assert data.Z0.any()
        state = make_state(rng, data)
        return rng, data, state, default_hyper(zeta=0.6, xi=4.0).resolve(data), n_points

    def coupling_setup(self, seed):
        """A problem whose forward passes are counted, and a reference that
        evaluates each point on a fresh problem, with a pass of its own."""
        rng, data, state, rh, n_points = self.points(seed)
        lap = normalized_laplacian(data.graph, rh.epsilon)
        mom = factor_moments(state, data, rh)
        problem = _CouplingProblem(state, data, rh, lap, mom)
        passes = []
        forward = problem._forward

        def counted(x, head):
            passes.append(x)
            return forward(x, head)

        problem._forward = counted

        def fresh(x):
            return _CouplingProblem(state, data, rh, lap, mom).value_and_grad(x)

        x0 = problem.pack(state.coupling, state.sparsity)
        points = [x0 + 0.5 * rng.standard_normal(x0.size) for _ in range(n_points)]
        return data, state, rh, lap, problem, passes, fresh, points

    @staticmethod
    def assert_same(got, want):
        assert got[0] == want[0]
        assert got[1].tobytes() == want[1].tobytes()

    def test_coupling_value_matches_value_and_grad_and_objective(self):
        data, state, rh, lap, problem, passes, fresh, points = self.coupling_setup(41)
        gaps, scale = [], 0.0
        for x in points:
            value, kept = problem.value(x)
            want = fresh(x)
            assert value == want[0]
            self.assert_same(problem.value_and_grad(x, kept), want)
            mu_g, sig_g, mu_pi, sig_pi = problem.unpack(x)
            moved = state.updated(
                coupling=NormalParams(mu_g, sig_g), sparsity=NormalParams(mu_pi, sig_pi)
            )
            obj = regularized_objective(moved, data, rh, lap=lap)[0]
            gaps.append(obj - value)
            scale = max(scale, abs(obj))
        np.testing.assert_allclose(gaps, gaps[0], rtol=0, atol=1e-9 * scale)
        # the gradient handed a point's pass reuses it
        assert len(passes) == len(points)

    def test_coupling_gradient_at_another_point_is_fresh(self):
        _, _, _, _, problem, passes, fresh, points = self.coupling_setup(43)
        for x1, x2 in zip(points[::2], points[1::2]):
            problem.value(x1)
            self.assert_same(problem.value_and_grad(x2), fresh(x2))
        assert len(passes) == len(points)

    def test_coupling_gradient_reads_only_block_invariants(self):
        """The gradient of a handed pass reads the block's fixed terms formed
        once, and the known margins of that pass, not the moments, the
        Laplacian or the mask they come from, and gives the bits of a fresh
        problem's gradient."""
        _, _, _, _, problem, passes, fresh, points = self.coupling_setup(49)
        assert problem.penalized
        raw = {name: vars(problem).get(name) for name in ("v_second", "lap", "mask", "a_beta")}
        for x in points:
            _, kept = problem.value(x)
            vars(problem).update(dict.fromkeys(raw))
            self.assert_same(problem.value_and_grad(x, kept), fresh(x))
            vars(problem).update(raw)
        assert len(passes) == len(points)

    def test_coupling_underflowed_variance_is_rejected(self):
        """A trial variance that underflows to zero makes the value -inf,
        as the objective's entropy would, so the line search rejects it."""
        data, _, _, _, problem, _, _, points = self.coupling_setup(45)
        n_g = data.n_features * data.n_sets
        for index in (n_g, 2 * n_g - 1, 2 * n_g + data.n_sets, points[0].size - 1):
            x = points[0].copy()
            assert np.isfinite(problem.value(x)[0])
            x[index] = -800.0  # exp(-800) is 0.0 in float64
            assert problem.value(x)[0] == -np.inf

    def test_known_margins_are_the_full_margins_at_the_mask(self, monkeypatch):
        """The margins that the penalty, and so the screen, reads are the
        pass's full margins at the known entries, bit for bit, and both have
        the bits of the margin formula (mu_pi - mu_g) / sqrt(sig_pi + sig_g)."""
        data, _, _, _, problem, _, _, points = self.coupling_setup(50)
        rows, cols = data.mask_indices
        read, heads = [], []
        terms = inference.membership_terms

        def recorded(g, pi, t_mask, *args):
            read.append(t_mask)
            return terms(g, pi, t_mask, *args)

        forward = problem._forward

        def kept_head(x, head):
            heads.append(head)
            return forward(x, head)

        monkeypatch.setattr(inference, "membership_terms", recorded)
        problem._forward = kept_head
        for x in points:
            for floor in (np.inf, -np.inf):  # screened, then a full pass
                read.clear()
                heads.clear()
                problem.value(x, floor)
                mu_g, sig_g, mu_pi, sig_pi = problem.unpack(x)
                t = (mu_pi[None, :] - mu_g) / np.sqrt(sig_pi[None, :] + sig_g)
                assert len(read) == 1 and read[0].tobytes() == t[rows, cols].tobytes()
                if heads:
                    full = heads[0][5]
                    assert full.tobytes() == t.tobytes()
                    assert full.take(problem.mask_flat).tobytes() == read[0].tobytes()
            assert len(heads) == 1

    def test_coupling_pass_forms_the_grid_once(self, monkeypatch):
        """Each pass forms the Gauss-Hermite grid of q(pi) once, in its
        membership terms, and its gradient reads that grid: a search forms
        one grid per trial plus one for its start, whose gradient is handed
        no pass."""
        rng, data, state, rh, _ = self.points(51)
        grids, trials = [], []
        grid = model.gh_grid

        def counted(*args):
            grids.append(args)
            return grid(*args)

        monkeypatch.setattr(model, "gh_grid", counted)
        monkeypatch.setattr("pathfact.dist.gh_grid", counted)
        monkeypatch.setattr(inference, "gh_grid", counted, raising=False)
        lap = normalized_laplacian(data.graph, rh.epsilon)
        problem = _CouplingProblem(state, data, rh, lap, factor_moments(state, data, rh))
        x = problem.pack(state.coupling, state.sparsity)
        _, kept = problem.value(x)
        problem.value_and_grad(x, kept)
        assert len(grids) == 1
        problem.value_and_grad(x)  # no pass handed: a pass of its own
        assert len(grids) == 2

        value = _CouplingProblem.value

        def trial(self, x, floor=-np.inf):
            trials.append(x)
            return value(self, x, floor)

        grids.clear()
        monkeypatch.setattr(_CouplingProblem, "value", trial)
        update_coupling(state, data, rh, lap=lap)
        assert len(trials) > 1 and len(grids) == len(trials) + 1

    def test_screened_decisions_are_exact(self):
        """value(x, floor) falls below the floor exactly when value(x) does,
        and where it runs the full pass it returns value(x) bit for bit, at
        floors far off and within 1e-12 of the value, and at points whose
        variances underflow to zero or overflow to infinity. Like the
        block, the test calls the problem under the block's errstate."""
        screened = unscreened = 0
        errstate = inference._COUPLING_ERRSTATE
        for seed in (46, 47, 48):
            data, _, _, _, problem, passes, _, points = self.coupling_setup(seed)
            n_g, r = data.n_features * data.n_sets, data.n_sets
            for index in (n_g, 2 * n_g - 1, 2 * n_g + r, points[0].size - 1):
                for log_var in (-800.0, 800.0):  # exp gives 0.0 and inf
                    x = points[0].copy()
                    x[index] = log_var
                    points.append(x)
            for x in points:
                with np.errstate(**errstate):
                    exact = problem.value(x)[0]
                floors = [-1e300, -1e7, 1e7]
                if np.isfinite(exact):
                    size = abs(exact)
                    floors += [exact * (1.0 - 1e-12), exact * (1.0 + 1e-12), exact]
                    floors += [exact - 1e3 * size, exact + 1e3 * size]
                for floor in floors:
                    passes.clear()
                    with np.errstate(**errstate):
                        got, kept = problem.value(x, floor)
                    assert (kept is None) == (not passes)
                    assert (got < floor) == (exact < floor)
                    assert (np.isfinite(got) and got >= floor) == (
                        np.isfinite(exact) and exact >= floor
                    )
                    if passes:
                        assert np.float64(got).tobytes() == np.float64(exact).tobytes()
                        unscreened += 1
                    else:
                        assert got < floor
                        screened += 1
        assert screened > 0 and unscreened > 0

    def test_cluster_value_matches_value_and_grad_and_objective(self):
        rng, data, state, rh, n_points = self.points(42)
        mom = factor_moments(state, data, rh)
        gaps, scale = [], 0.0
        for _ in range(n_points):
            theta = state.cluster_logits + rng.standard_normal(state.cluster_logits.shape)
            value, kept = cluster_objective_and_grad(
                theta, state, data, rh, with_grad=False, mom=mom
            )
            want = cluster_objective_and_grad(theta, state, data, rh, mom=mom)
            assert value == want[0]
            self.assert_same(
                cluster_objective_and_grad(theta, state, data, rh, mom=mom, kept=kept), want
            )
            obj = regularized_objective(state.updated(cluster_logits=theta), data, rh)[0]
            gaps.append(obj - value)
            scale = max(scale, abs(obj))
        np.testing.assert_allclose(gaps, gaps[0], rtol=0, atol=1e-9 * scale)


class TestFit:
    def test_computes_moments_once_per_state(self, monkeypatch):
        """Moments are computed in full once, for the initial state read by
        the warm-up coupling pass. After that, each block that changes a
        moment recomputes the side it changed: the W side after the warm-up,
        the basis and the coupling blocks, the A side after the association
        and the cluster blocks. The noise block changes none, so its
        objective check reuses the moments it read. Three sweeps: 2 + 4 * 3
        = 14 calls, beside 1 + 5 * 3 = 16 objective checks. X E[W] is formed
        by the full pass and each W side, 2 + 2 * 3 = 8 times, where
        recomputing both sides formed it 14 times. X^T E[A] is formed by the
        full pass and each A side, 1 + 2 * 3 = 7 times, and read by the basis
        and the coupling blocks."""
        counts = {"factor_moments": 0, "regularized_objective": 0, "x_ew": 0, "xt_ea": 0}

        def counted(name, original):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        moments = counted("factor_moments", model.factor_moments)
        monkeypatch.setattr(model, "factor_moments", moments)
        monkeypatch.setattr(inference, "factor_moments", moments)
        monkeypatch.setattr(
            inference,
            "regularized_objective",
            counted("regularized_objective", model.regularized_objective),
        )
        rng = np.random.default_rng(19)
        data = make_dataset(rng, n=10, d=8, k=2, r=3)

        class CountedX(np.ndarray):
            """X that counts its products X @ (D x R) and X^T @ (N x R)."""

            def __matmul__(self, other):
                if self.shape == data.X.shape:
                    counts["x_ew"] += 1
                elif self.shape == data.X.T.shape:
                    counts["xt_ea"] += 1
                return np.asarray(self) @ other

        object.__setattr__(data, "X", data.X.view(CountedX))
        report = fit(data, default_hyper(max_sweeps=3))
        assert report.sweeps == 3
        assert counts == {
            "factor_moments": 2 + 4 * 3,
            "regularized_objective": 1 + 5 * 3,
            "x_ew": 2 + 2 * 3,
            "xt_ea": 1 + 2 * 3,
        }

    def test_refreshed_moments_equal_fresh_moments(self, monkeypatch):
        """After every block, the moments the fit holds, each side either
        recomputed or kept, equal a fresh pass over the state byte for
        byte in every field."""
        checks = []

        def objective(state, data, rh, lap=None, mom=None, member=None):
            fresh = vars(model.factor_moments(state, data, rh))
            held = vars(mom)
            assert held.keys() == fresh.keys()
            assert {"xw", "xta", "c", "m", "var_load"} <= fresh.keys()
            for name, value in fresh.items():
                kept = np.asarray(held[name])
                assert kept.dtype == value.dtype and kept.shape == value.shape, name
                assert kept.tobytes() == value.tobytes(), name
            checks.append(state)
            return model.regularized_objective(state, data, rh, lap=lap, mom=mom, member=member)

        monkeypatch.setattr(inference, "regularized_objective", objective)
        rng = np.random.default_rng(23)
        data = make_dataset(rng, n=12, d=9, k=3, r=4, mask_prob=0.4)
        report = fit(data, default_hyper(max_sweeps=3, xi=5.0))
        assert report.sweeps == 3
        assert len(checks) == 1 + 5 * 3

    def test_membership_terms_once_per_coupling_block(self, monkeypatch):
        """The objective checks reuse the membership terms computed after the
        warm-up and after each coupling block: no other block changes q(g)
        or q(pi), so terms computed afresh at every check give the same
        trace bit for bit."""
        calls = []
        terms = model.state_membership_terms

        def counted(*args, **kwargs):
            calls.append(args[0])
            return terms(*args, **kwargs)

        def fresh_terms(*args, member=None, **kwargs):
            return model.regularized_objective(*args, **kwargs)

        rng = np.random.default_rng(20)
        data = make_dataset(rng, n=10, d=8, k=2, r=3)
        hyper = default_hyper(max_sweeps=3)
        monkeypatch.setattr(inference, "state_membership_terms", counted)
        report = fit(data, hyper)
        assert report.sweeps == 3
        assert len(calls) == 1 + report.sweeps
        assert calls[-1] is report.state
        monkeypatch.setattr(inference, "regularized_objective", fresh_terms)
        fresh = fit(data, hyper)
        for got, want in zip(report.trace.records, fresh.trace.records, strict=True):
            assert (got.elbo, got.penalty, got.objective) == (want.elbo, want.penalty, want.objective)
            assert got.block_deltas == want.block_deltas

    def test_report_holds_final_moments(self):
        """The moments a fit returns equal a fresh pass over its final
        state byte for byte, so a summary may read them as they are."""
        rng = np.random.default_rng(23)
        data = make_dataset(rng, n=12, d=9, k=3, r=4, mask_prob=0.4)
        hyper = default_hyper(max_sweeps=2, xi=5.0)
        report = fit(data, hyper)
        fresh = vars(factor_moments(report.state, data, hyper))
        assert vars(report.moments).keys() == fresh.keys()
        for name, value in fresh.items():
            assert np.asarray(vars(report.moments)[name]).tobytes() == value.tobytes(), name

    def test_small_instance_converges_monotone(self):
        rng = np.random.default_rng(15)
        data = make_dataset(rng, n=20, d=12, k=3, r=4, mask_prob=0.4)
        hyper = default_hyper(max_sweeps=200, xi=10.0, seed=3)
        report = fit(data, hyper)
        assert report.status == "converged"
        assert report.sweeps <= 200
        ok, worst = report.trace.is_monotone(rtol=1e-8)
        assert ok, f"objective decreased by {worst}"
        assert set(report.block_seconds) == {
            "noise",
            "association",
            "basis",
            "cluster",
            "coupling",
        }

    def test_null_signal_shrinks_everything(self):
        rng = np.random.default_rng(16)
        proto = make_dataset(rng, n=12, d=8, k=2, r=3)
        data = ObservationSet(
            X=np.zeros_like(proto.X),
            U0=proto.U0,
            Z0=proto.Z0,
            graph=proto.graph,
            sample_ids=proto.sample_ids,
            feature_ids=proto.feature_ids,
            cluster_ids=proto.cluster_ids,
            set_ids=proto.set_ids,
        )
        hyper = default_hyper(max_sweeps=60, xi=5.0)
        report = fit(data, hyper)
        recon = expected_reconstruction(report.state, data, hyper)
        assert np.linalg.norm(recon) < 1e-8
        mom = factor_moments(report.state, data, hyper)
        assert mom.s_mean.mean() < 0.2  # shrunk well below the prior mean 1.0

    def test_same_seed_reproduces(self):
        rng = np.random.default_rng(18)
        data = make_dataset(rng, n=8, d=6, k=2, r=2)
        a = fit(data, default_hyper(max_sweeps=8, seed=11))
        b = fit(data, default_hyper(max_sweeps=8, seed=11))
        np.testing.assert_array_equal(a.trace.objectives(), b.trace.objectives())

    def test_warns_on_empty_mask_with_penalty(self):
        rng = np.random.default_rng(19)
        data = make_dataset(rng, mask_prob=0.0)
        with pytest.warns(UserWarning, match="membership set is empty"):
            fit(data, default_hyper(max_sweeps=2, xi=5.0))

    def test_max_sweeps_status(self):
        rng = np.random.default_rng(20)
        data = make_dataset(rng, n=10, d=8, k=2, r=3)
        report = fit(data, default_hyper(max_sweeps=2))
        assert report.status == "max_sweeps"
        assert report.sweeps == 2
        assert not report.converged


    def test_counts_stalled_line_searches(self, monkeypatch):
        rng = np.random.default_rng(23)
        data = make_dataset(rng, n=10, d=8, k=2, r=3)
        hyper = default_hyper(max_sweeps=3)
        with monkeypatch.context() as patch:
            patch.setattr(inference, "_INIT_STEP", 1e-30)
            with pytest.warns(UserWarning, match="accepted no step"):
                report = fit(data, hyper)
        # every call stalls; the coupling warm-up counts under coupling
        assert report.stalled == {"cluster": 3, "coupling": 4}
        # a stalled search evaluates its start and tries no step below 1e-20
        assert report.evaluations == {"cluster": 3, "coupling": 4}
        assert fit(data, hyper).stalled == {"cluster": 0, "coupling": 0}

    def test_counts_line_search_evaluations(self, monkeypatch):
        calls = {"cluster": 0, "coupling": 0}

        def counted(block, original):
            def wrapper(*args, **kwargs):
                calls[block] += 1
                return original(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            inference,
            "cluster_objective_and_grad",
            counted("cluster", inference.cluster_objective_and_grad),
        )
        for name in ("value", "value_and_grad"):
            monkeypatch.setattr(
                _CouplingProblem, name, counted("coupling", getattr(_CouplingProblem, name))
            )
        rng = np.random.default_rng(23)
        data = make_dataset(rng, n=10, d=8, k=2, r=3)
        report = fit(data, default_hyper(max_sweeps=3))
        assert report.evaluations == calls
        # the coupling count includes the warm-up's evaluations
        assert calls["cluster"] > 3 and calls["coupling"] > 4

    def test_line_search_call_pattern(self, monkeypatch):
        """The call pattern by which the benchmark's per-layer metrics
        (perfbench/layers.py) attribute line-search evaluations. Inside each
        update_cluster or update_coupling call, a trial is a call of
        cluster_objective_and_grad with the keyword with_grad=False, or of
        _CouplingProblem.value; a gradient evaluation is any other call of
        cluster_objective_and_grad, or a call of
        _CouplingProblem.value_and_grad. A block evaluates the gradient once
        at its start and once after each accepted step, at the trial point
        it accepted, so its accepted steps number its gradient calls less
        one. The calls sum to FitReport.evaluations."""
        current = []  # the calls of the running block, as (trial, point)
        blocks = {"cluster": [], "coupling": []}

        def block(kind, original):
            def wrapper(*args, **kwargs):
                current.append([])
                try:
                    return original(*args, **kwargs)
                finally:
                    blocks[kind].append(current.pop())

            return wrapper

        def evaluation(original, trial_of, point_of):
            def wrapper(*args, **kwargs):
                assert len(current) == 1, "evaluation outside a line-search block"
                current[-1].append((trial_of(args, kwargs), point_of(args).copy()))
                return original(*args, **kwargs)

            return wrapper

        def cluster_trial(args, kwargs):
            assert len(args) == 4, "with_grad or mom passed by position"
            return kwargs.get("with_grad", True) is False

        monkeypatch.setattr(inference, "update_cluster", block("cluster", update_cluster))
        monkeypatch.setattr(inference, "update_coupling", block("coupling", update_coupling))
        monkeypatch.setattr(
            inference,
            "cluster_objective_and_grad",
            evaluation(cluster_objective_and_grad, cluster_trial, lambda args: args[0]),
        )
        for name, trial in (("value", True), ("value_and_grad", False)):
            monkeypatch.setattr(
                _CouplingProblem,
                name,
                evaluation(
                    getattr(_CouplingProblem, name),
                    lambda args, kwargs, trial=trial: trial,
                    lambda args: args[1],
                ),
            )
        rng = np.random.default_rng(23)
        data = make_dataset(rng, n=10, d=8, k=2, r=3)
        report = fit(data, default_hyper(max_sweeps=3))
        assert {kind: len(runs) for kind, runs in blocks.items()} == {
            "cluster": 3,
            "coupling": 4,
        }
        assert report.evaluations == {
            kind: sum(len(calls) for calls in runs) for kind, runs in blocks.items()
        }
        accepted = rejected = 0
        for runs in blocks.values():
            for calls in runs:
                assert not calls[0][0]
                for (was_trial, at), (trial, point) in zip(calls, calls[1:]):
                    if not trial:
                        assert was_trial and np.array_equal(at, point)
                        accepted += 1
                    elif was_trial:
                        rejected += 1
        assert accepted > 0 and rejected > 0

    @staticmethod
    def count_coupling_passes(monkeypatch):
        """Count the calls of _CouplingProblem.value and _forward."""
        calls = {"value": 0, "_forward": 0}
        for name in calls:
            original = getattr(_CouplingProblem, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(_CouplingProblem, name, counted)
        return calls

    def test_screen_skips_passes_of_a_backtracking_search(self, monkeypatch):
        """From the initial state the first coupling search backtracks, and
        some of its trials are decided without the full pass."""
        rng = np.random.default_rng(23)
        data = make_dataset(rng, n=30, d=20, k=3, r=5)
        rh = default_hyper().resolve(data)
        calls = self.count_coupling_passes(monkeypatch)
        update_coupling(init_state(data, rh), data, rh)
        assert calls["_forward"] < calls["value"]

    def test_screen_leaves_the_fit_bit_equal(self, monkeypatch):
        """A fit whose coupling value ignores the floor, and so screens
        nothing, has the same trace, final state and evaluation counts."""
        rng = np.random.default_rng(23)
        data = make_dataset(rng, n=30, d=20, k=3, r=5)
        hyper = default_hyper(max_sweeps=4)
        calls = self.count_coupling_passes(monkeypatch)
        screened = fit(data, hyper)
        assert calls["_forward"] < calls["value"]
        value = _CouplingProblem.value
        monkeypatch.setattr(_CouplingProblem, "value", lambda self, x, floor: value(self, x))
        exact = fit(data, hyper)
        assert screened.evaluations == exact.evaluations
        assert screened.trace.records == exact.trace.records

        def state_bytes(state):
            factors = (state.noise, state.assoc, state.basis, state.coupling, state.sparsity)
            arrays = [a for q in factors for a in vars(q).values()] + [state.cluster_logits]
            return [a.tobytes() for a in arrays]

        assert state_bytes(screened.state) == state_bytes(exact.state)

    def test_stalled_fit_warns_once_with_counts(self, monkeypatch):
        rng = np.random.default_rng(23)
        data = make_dataset(rng, n=10, d=8, k=2, r=3)
        monkeypatch.setattr(inference, "_INIT_STEP", 1e-30)
        with pytest.warns(UserWarning) as caught:
            fit(data, default_hyper(max_sweeps=3))
        assert [str(w.message) for w in caught] == [
            "line searches accepted no step: cluster=3 coupling=4"
        ]

    def test_default_fit_does_not_warn(self):
        rng = np.random.default_rng(23)
        data = make_dataset(rng, n=10, d=8, k=2, r=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit(data, default_hyper(max_sweeps=3))


class TestInitState:
    def test_prior_anchored_and_seeded(self):
        rng = np.random.default_rng(21)
        data = make_dataset(rng, n=5, d=4, k=2, r=3)
        hyper = default_hyper(beta_a=1.5, lambda_s0=2.0, seed=9)
        s1 = init_state(data, hyper)
        s2 = init_state(data, hyper)
        np.testing.assert_array_equal(s1.basis.mean, s2.basis.mean)
        np.testing.assert_allclose(s1.assoc.location, 0.5)
        a = 1.5 / 3
        from pathfact.dist import std_normal_quantile

        np.testing.assert_allclose(s1.sparsity.mean, std_normal_quantile(a / (a + 1)))
        assert np.all(s1.cluster_logits == 0)

    def test_basis_jitter_breaks_symmetry(self):
        rng = np.random.default_rng(22)
        data = make_dataset(rng)
        state = init_state(data, default_hyper(seed=1))
        assert np.std(state.basis.mean) > 0

