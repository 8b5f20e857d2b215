"""Acceptance gate: every criterion prints one pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Each test is one
criterion, checked at the stated tolerance; thresholds are frozen here and
not tuned per run.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    default_hyper,
    labeled_graph,
    make_dataset,
    make_state,
    polished_minimum,
    render_expression,
)

from pathfact.dist import NormalParams, TruncatedNormalParams, GammaParams
from pathfact.graph import InteractionGraph, normalized_laplacian
from pathfact.inference import (
    cluster_objective_and_grad,
    coupling_objective_and_grad,
    fit,
    update_association,
    update_basis,
    update_noise,
)
from pathfact.model import (
    elbo,
    factor_moments,
    regularized_objective,
    z_marginal,
)
import pathfact
from pathfact import dataio
from pathfact.cli import EXIT_OK, EXIT_MAX_SWEEPS, FIT_OUTPUTS, main
from pathfact.synth import generate, generate_planted, sample_membership, score


def report(criterion, ok, detail):
    print(f"\ncriterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_monotonicity_suite():
    start = time.perf_counter()
    worst_drop = 0.0
    hyper = default_hyper(
        max_sweeps=200, elbo_rel_tol=1e-16, xi=10.0, beta_a=2.0, seed=0
    )
    for trial in range(20):
        if trial < 10:
            data, _ = generate(
                (60, 3, 40, 8),
                corruption=0.1,
                snr=4.0,
                seed=100 + trial,
                beta_a=4.0,
                min_members=2,
            )
        else:
            rng = np.random.default_rng(200 + trial)
            data = make_dataset(rng, n=60, d=40, k=3, r=8, edge_prob=0.12, mask_prob=0.2)
        report_obj = fit(data, hyper)
        assert report_obj.sweeps == 200
        ok, drop = report_obj.trace.is_monotone(rtol=1e-8)
        worst_drop = min(worst_drop, drop)
        assert ok, f"instance {trial}: objective decreased by {drop}"
    elapsed = time.perf_counter() - start
    report(
        1,
        elapsed < 300.0,
        f"20 instances x 200 sweeps monotone at 1e-8; worst drop {worst_drop:.3e}; {elapsed:.0f}s",
    )


def test_criterion_2_block_optimality():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(10):
        data = make_dataset(rng, n=7, d=5, k=2, r=3, mask_prob=0.4)
        state = make_state(rng, data)
        hyper = default_hyper(xi=2.0)
        lap = normalized_laplacian(data.graph, hyper.epsilon)  # one per trial, not per call

        closed = update_noise(state, data, hyper)

        def neg_noise(x):
            return -elbo(
                state.updated(noise=GammaParams(np.exp(x[0]), np.exp(x[1]))), data, hyper, lap=lap
            )

        best = np.exp(
            polished_minimum(
                neg_noise, np.log([float(closed.shape), float(closed.rate)]) + 0.2
            )
        )
        err = np.max(
            np.abs(best - [float(closed.shape), float(closed.rate)])
            / np.maximum(np.abs(best), 1e-12)
        )
        worst = max(worst, err)
        assert err < 1e-4, f"noise update off by {err}"

        k = int(rng.integers(0, data.n_clusters))
        r = int(rng.integers(0, data.n_sets))
        site = update_association(state, data, hyper, k, r)

        def neg_assoc(x, k=k, r=r):
            loc = state.assoc.location.copy()
            sc = state.assoc.scale_sq.copy()
            loc[k, r] = x[0]
            sc[k, r] = np.exp(x[1])
            return -regularized_objective(
                state.updated(assoc=TruncatedNormalParams(loc, sc)), data, hyper, lap=lap
            )[0]

        best = polished_minimum(
            neg_assoc,
            np.array([float(site.location), np.log(float(site.scale_sq))]) + 0.2,
        )
        got = np.array([float(site.location), float(site.scale_sq)])
        ref = np.array([best[0], np.exp(best[1])])
        err = np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-12))
        worst = max(worst, err)
        assert err < 1e-4, f"association update off by {err}"

        j = int(rng.integers(0, data.n_features))
        r = int(rng.integers(0, data.n_sets))
        vsite = update_basis(state, data, hyper, j, r)

        def neg_basis(x, j=j, r=r):
            mean = state.basis.mean.copy()
            var = state.basis.variance.copy()
            mean[j, r] = x[0]
            var[j, r] = np.exp(x[1])
            return -regularized_objective(
                state.updated(basis=NormalParams(mean, var)), data, hyper, lap=lap
            )[0]

        best = polished_minimum(
            neg_basis,
            np.array([float(vsite.mean), np.log(float(vsite.variance))]) + 0.2,
        )
        got = np.array([float(vsite.mean), float(vsite.variance)])
        ref = np.array([best[0], np.exp(best[1])])
        err = np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-12))
        worst = max(worst, err)
        assert err < 1e-4, f"basis update off by {err}"
    report(2, True, f"noise/association/basis optima match oracle; worst rel err {worst:.2e}")


def test_criterion_3_gradient_suite():
    rng = np.random.default_rng(11)
    eps = 1e-5
    worst = 0.0
    for trial in range(10):
        data = make_dataset(rng, n=5, d=4, k=3, r=2, mask_prob=0.5)
        state = make_state(rng, data)
        hyper = default_hyper(xi=3.0, zeta=0.7)

        theta = state.cluster_logits
        _, grad_theta = cluster_objective_and_grad(theta, state, data, hyper)
        for _ in range(3):
            i = int(rng.integers(0, theta.shape[0]))
            kk = int(rng.integers(0, theta.shape[1]))
            tp, tm = theta.copy(), theta.copy()
            tp[i, kk] += eps
            tm[i, kk] -= eps
            fd = (
                elbo(state.updated(cluster_logits=tp), data, hyper)
                - elbo(state.updated(cluster_logits=tm), data, hyper)
            ) / (2 * eps)
            err = abs(grad_theta[i, kk] - fd) / max(abs(fd), 1e-8)
            worst = max(worst, err)
            assert err < 1e-4, f"cluster gradient off by {err}"

        _, grad = coupling_objective_and_grad(state, data, hyper)
        d, r = data.n_features, data.n_sets
        x0 = np.concatenate(
            [
                state.coupling.mean.ravel(),
                np.log(state.coupling.variance).ravel(),
                state.sparsity.mean,
                np.log(state.sparsity.variance),
            ]
        )

        def objective_at(x):
            mu_g = x[: d * r].reshape(d, r)
            sig_g = np.exp(x[d * r : 2 * d * r]).reshape(d, r)
            mu_pi = x[2 * d * r : 2 * d * r + r]
            sig_pi = np.exp(x[2 * d * r + r :])
            st = state.updated(
                coupling=NormalParams(mu_g, sig_g), sparsity=NormalParams(mu_pi, sig_pi)
            )
            return regularized_objective(st, data, hyper)[0]

        blocks = {
            "mu_g": rng.choice(d * r, 2, replace=False),
            "log_sig_g": d * r + rng.choice(d * r, 2, replace=False),
            "mu_pi": 2 * d * r + rng.choice(r, 1, replace=False),
            "log_sig_pi": 2 * d * r + r + rng.choice(r, 1, replace=False),
        }
        for name, idx in blocks.items():
            for i in np.atleast_1d(idx):
                xp, xm = x0.copy(), x0.copy()
                xp[i] += eps
                xm[i] -= eps
                fd = (objective_at(xp) - objective_at(xm)) / (2 * eps)
                err = abs(grad[i] - fd) / max(abs(fd), 1e-8)
                worst = max(worst, err)
                assert err < 1e-4, f"{name} gradient off by {err}"
    report(3, True, f"all analytic gradients match central differences; worst rel err {worst:.2e}")


def test_criterion_4_membership_marginal_oracle():
    rng = np.random.default_rng(13)
    n = 1_000_000
    worst_sigma = 0.0
    for _ in range(20):
        mu_g, var_g = rng.normal(), rng.uniform(0.1, 3.0)
        mu_p, var_p = rng.normal(), rng.uniform(0.1, 3.0)
        value = float(z_marginal(NormalParams(mu_g, var_g), NormalParams(mu_p, var_p)))
        hits = (
            rng.normal(mu_g, np.sqrt(var_g), n) < rng.normal(mu_p, np.sqrt(var_p), n)
        ).mean()
        se = max(np.sqrt(hits * (1.0 - hits) / n), 1e-9)
        sigmas = abs(value - hits) / se
        worst_sigma = max(worst_sigma, sigmas)
        assert sigmas < 3.0, f"marginal off by {sigmas:.2f} standard errors"
    report(4, True, f"20 settings within 3 standard errors of paired MC; worst {worst_sigma:.2f} SE")


def test_criterion_5_prior_mass():
    d, r, beta_a = 50, 20, 2.0
    labels = tuple(f"G{j}" for j in range(d))
    # empty graph with zero jitter: exactly the independent standard-normal model
    lap = normalized_laplacian(InteractionGraph(node_labels=labels), jitter=0.0)
    rng = np.random.default_rng(17)
    counts = np.array(
        [sample_membership(d, r, beta_a, lap, rng)[0].sum() for _ in range(10_000)]
    )
    expected = d * beta_a / (1.0 + beta_a / r)
    se = counts.std(ddof=1) / np.sqrt(counts.size)
    sigmas = abs(counts.mean() - expected) / se
    report(
        5,
        sigmas < 3.0,
        f"mean nonzeros {counts.mean():.2f} vs {expected:.2f} expected; {sigmas:.2f} SE",
    )


def test_criterion_6_laplacian_spectrum():
    rng = np.random.default_rng(19)
    worst_low, worst_high = 0.0, 2.0
    for _ in range(20):
        d = int(rng.integers(2, 201))
        labels = tuple(f"g{i:03d}" for i in range(d))
        edges = {}
        prob = float(rng.uniform(0.01, 0.25))
        for i in range(d):
            for j in range(i + 1, d):
                if rng.random() < prob:
                    edges[(labels[i], labels[j])] = 1.0
        lap = normalized_laplacian(labeled_graph(labels, edges), 0.05)
        eigs = np.linalg.eigvalsh(lap.laplacian.toarray())
        worst_low = min(worst_low, eigs.min())
        worst_high = max(worst_high, eigs.max())
        assert eigs.min() >= -1e-10 and eigs.max() <= 2.0 + 1e-10

    path = normalized_laplacian(
        labeled_graph(("a", "b", "c"), {("a", "b"): 1.0, ("b", "c"): 1.0}),
        0.05,
    ).laplacian.toarray()
    assert np.allclose(np.diag(path), 1.0)
    assert path[0, 1] == pytest.approx(-1.0 / np.sqrt(2.0))
    assert path[0, 2] == 0.0
    tri = normalized_laplacian(
        labeled_graph(("a", "b", "c"), {("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 1.0}),
        0.05,
    ).laplacian.toarray()
    assert np.allclose(tri[~np.eye(3, dtype=bool)], -0.5)
    assert np.allclose(np.sort(np.linalg.eigvalsh(tri)), [0.0, 1.5, 1.5], atol=1e-12)
    report(
        6,
        True,
        f"20 random graphs in [{worst_low:.1e}, {worst_high:.10f}]; path/triangle exact",
    )


def test_criterion_7_constraint_pressure():
    worst = 1.0
    for seed in range(3):
        data, _ = generate_planted((40, 2, 24, 4), snr=5.0, corruption=0.1, seed=seed)
        hyper = default_hyper(
            xi=100.0, beta_a=2.0, zeta=1.0, max_sweeps=400, elbo_rel_tol=1e-8
        )
        rep = fit(data, hyper)
        mom = factor_moments(rep.state, data, hyper)
        rows, cols = data.mask_indices
        lowest = float(mom.rho[rows, cols].min())
        worst = min(worst, lowest)
        assert lowest >= 0.99, f"seed {seed}: min known-membership marginal {lowest}"
    report(7, True, f"xi=100 drives min q(Z=1) on known memberships to {worst:.5f} >= 0.99")


# Recovery benchmark frozen after calibration: disjoint planted sets with a
# community interaction graph (the graph is the intended recovery channel
# for deleted memberships), penalty xi=10 so the shared set-level threshold
# cannot saturate whole columns, beta_a=2 for a sparse baseline, zeta=1
# since the generated labels are exact. Calibrated mean precision@3 0.867
# and mean AUC 0.946 over seeds 0..9.
def test_criterion_8_synthetic_recovery():
    precisions, aucs = [], []
    for seed in range(10):
        data, truth = generate_planted((120, 4, 60, 10), snr=5.0, corruption=0.1, seed=seed)
        hyper = default_hyper(
            max_sweeps=250, xi=10.0, beta_a=2.0, elbo_rel_tol=1e-7, zeta=1.0
        )
        rep = fit(data, hyper)
        metrics = score(rep, truth, data, hyper, top_m=3)
        precisions.append(metrics.precision_at_m)
        aucs.append(metrics.mask_auc)
    mean_p = float(np.mean(precisions))
    mean_auc = float(np.mean(aucs))
    report(
        8,
        mean_p >= 0.8 and mean_auc >= 0.75,
        f"10 seeds: mean precision@3 {mean_p:.3f} (>= 0.8), mean mask AUC {mean_auc:.3f} (>= 0.75)",
    )


def test_criterion_9_thread_determinism(tmp_path):
    dataset = tmp_path / "data"
    code = main(
        [
            "simulate",
            "--out",
            str(dataset),
            "--n-samples",
            "30",
            "--n-clusters",
            "3",
            "--n-features",
            "24",
            "--n-sets",
            "4",
            "--corruption",
            "0.1",
            "--seed",
            "5",
            "--beta-a",
            "6",
            "--snr",
            "5",
            "--min-members",
            "3",
        ]
    )
    assert code == EXIT_OK

    def run(out, blas_threads):
        args = [
            sys.executable,
            "-m",
            "pathfact.cli",
            "fit",
            "--expression",
            f"{dataset}/expression.tsv",
            "--labels",
            f"{dataset}/labels.tsv",
            "--gmt",
            f"{dataset}/sets.gmt",
            "--edges",
            f"{dataset}/edges.tsv",
            "--out",
            str(out),
            "--max-sweeps",
            "30",
            "--xi",
            "10",
            "--beta-a",
            "2",
            "--seed",
            "11",
        ]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads, OMP_NUM_THREADS=blas_threads)
        src = str(Path(pathfact.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(args, env=env, capture_output=True, text=True)
        assert done.returncode in (EXIT_OK, EXIT_MAX_SWEEPS), done.stderr

    run(tmp_path / "b1", "1")
    run(tmp_path / "b2", "2")
    for name in FIT_OUTPUTS:
        if name == "run_meta":
            continue  # names the differing output directory
        b1 = (tmp_path / "b1" / name).read_bytes()
        b2 = (tmp_path / "b2" / name).read_bytes()
        assert b1 == b2, f"{name} differs between 1 and 2 BLAS threads"
    report(9, True, "fit outputs byte-identical across 1 and 2 BLAS threads")


def test_criterion_10_format_round_trips():
    rng = np.random.default_rng(23)
    cases = 0

    for _ in range(400):
        n_sets = int(rng.integers(1, 6))
        lines = []
        for s in range(n_sets):
            members = list(
                dict.fromkeys(
                    f"G{int(rng.integers(0, 40)):02d}" for _ in range(int(rng.integers(1, 8)))
                )
            )
            desc = "" if rng.random() < 0.2 else f"desc {s}"
            lines.append(f"SET{s:02d}\t{desc}\t" + "\t".join(members) + "\n")
        once = dataio.parse_gmt(lines)
        text = dataio.write_gmt(once)
        twice = dataio.parse_gmt(text.splitlines(keepends=True))
        assert once == twice and dataio.write_gmt(twice) == text
        cases += 1

    for _ in range(300):
        n_edges = int(rng.integers(1, 12))
        pairs = set()
        lines = []
        for _ in range(n_edges):
            a, b = rng.integers(0, 15, size=2)
            if a == b:
                continue
            key = (min(a, b), max(a, b))
            if key in pairs:
                continue
            pairs.add(key)
            weight = "" if rng.random() < 0.5 else f" {rng.uniform(0.1, 9.0):.6g}"
            lines.append(f"N{key[0]:02d} N{key[1]:02d}{weight}\n")
        if not lines:
            lines = ["N00 N01\n"]
        once = dataio.parse_edge_list(lines)
        text = dataio.write_edge_list(once)
        twice = dataio.parse_edge_list(text.splitlines(keepends=True))
        assert once.edges == twice.edges
        assert dataio.write_edge_list(twice) == text
        cases += 1

    for _ in range(300):
        n = int(rng.integers(1, 6))
        d = int(rng.integers(1, 6))
        features = [f"F{c:02d}" for c in range(d)]
        header = "sample_id\t" + "\t".join(features) + "\n"
        rows = [
            f"S{i:02d}\t" + "\t".join(repr(float(v)) for v in rng.normal(size=d)) + "\n"
            for i in range(n)
        ]
        labels = [f"S{i:02d}\tL{int(rng.integers(0, 3))}\n" for i in range(n)]
        once = dataio.parse_expression([header] + rows, labels)
        m_text, l_text = render_expression(once)
        twice = dataio.parse_expression(
            m_text.splitlines(keepends=True), l_text.splitlines(keepends=True)
        )
        assert np.array_equal(once.matrix, twice.matrix)
        assert once.sample_ids == twice.sample_ids and once.labels == twice.labels
        assert render_expression(twice) == (m_text, l_text)
        cases += 1

    report(10, cases == 1000, f"{cases} fuzzed parse-serialize-parse identities")
