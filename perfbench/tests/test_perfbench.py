"""Tests of the benchmark's own code: generator, scoring, spans, checks.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import math
import shutil
import types

import numpy as np
import pytest

import checks
import gen
import layers
import spans
from pathfact import cli

TINY = gen.Shape(16, 2, 20, 2)


def test_generator_is_byte_identical_for_a_fixed_seed(tmp_path):
    first, _ = gen.planted(TINY, [7, 0])
    again, _ = gen.planted(TINY, [7, 0])
    other, _ = gen.planted(TINY, [8, 0])
    assert first == again
    assert first["expression.tsv"] != other["expression.tsv"]
    assert gen.write_inputs(first, tmp_path / "a") == gen.write_inputs(again, tmp_path / "b")
    for name, text in first.items():
        assert (tmp_path / "a" / name).read_bytes() == text.encode()


def test_generator_keeps_hidden_features_in_the_universe():
    files, truth = gen.planted(gen.Shape(20, 2, 40, 4), [1, 0])
    ids = checks.aligned_ids(files)
    assert ids.feature_ids == truth.feature_ids
    assert ids.set_ids == truth.set_ids
    hidden = (truth.membership == 1) & (truth.shown == 0)
    assert hidden.sum() == round(gen.HIDDEN_SHARE * truth.membership.sum())
    assert np.all(truth.shown.sum(axis=1) >= 1)


def test_ranking_auc_matches_hand_computed_values():
    assert checks.ranking_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
    # the tied pair shares rank 2.5: (2.5 - 1) / (1 * 2)
    assert checks.ranking_auc([0.5, 0.5, 0.2], [1, 0, 0]) == 0.75
    assert checks.ranking_auc([3.0, 2.0, 1.0], [1, 1, 0]) == 1.0
    with pytest.raises(ValueError):
        checks.ranking_auc([0.1, 0.2], [1, 1])


def test_reconstruction_rmse_matches_hand_computed_value():
    u = np.array([[1.0, 0.0], [0.5, 0.5]])
    assoc = np.array([[2.0], [0.0]])
    z = np.array([[1.0], [0.5]])
    basis = np.array([[1.0], [2.0]])
    # u @ assoc = [[2], [1]]; (z * basis).T = [[1, 1]]; recon = [[2, 2], [1, 1]]
    truth = np.array([[2.0, 1.0], [1.0, 3.0]])
    expected = math.sqrt((0 + 1 + 0 + 4) / 4)
    assert checks.reconstruction_rmse(u, assoc, z, basis, truth) == pytest.approx(expected, abs=1e-15)


def test_self_time_subtracts_the_union_of_direct_children():
    records = [
        {"name": "root", "start": 0.0, "end": 10.0, "parent": -1},
        {"name": "a", "start": 1.0, "end": 3.0, "parent": 0},
        {"name": "b", "start": 2.0, "end": 5.0, "parent": 0},
        {"name": "c", "start": 6.0, "end": 7.0, "parent": 0},
        {"name": "grandchild", "start": 6.2, "end": 6.5, "parent": 3},
    ]
    assert spans.covered([(1.0, 3.0), (2.0, 5.0), (6.0, 7.0)]) == 5.0
    assert spans.self_times(records) == pytest.approx([5.0, 2.0, 3.0, 0.7, 0.3])


def test_install_wraps_every_namespace_and_reports_missing_names():
    def helper(x):
        return x + 1

    owner = types.ModuleType("owner")
    owner.helper = helper
    importer = types.ModuleType("importer")
    importer.helper = helper
    importer.call = lambda x: importer.helper(x) * 2

    class Problem:
        def value(self):
            return owner.helper(1)

    owner.Problem = Problem
    tracer = spans.Tracer("run-1")
    missing = spans.install(
        tracer,
        {"owner": owner, "importer": importer},
        [("owner", "helper", None), ("owner", "Problem.value", None), ("owner", "gone", None)],
    )
    assert missing == ["owner.gone"]
    assert importer.helper is owner.helper is not helper
    assert importer.call(1) == 4
    assert Problem().value() == 2
    names = [(r["name"], r["parent"], r["run"]) for r in tracer.records()]
    assert names == [
        ("owner.helper", -1, "run-1"),
        ("owner.Problem.value", -1, "run-1"),
        ("owner.helper", 1, "run-1"),
    ]


def test_line_search_counts_evaluations_and_accepted_steps():
    def span(name, parent):
        return {"name": name, "start": 0.0, "end": 0.5, "parent": parent}

    block, trial, grad = layers.LINE_SEARCHES["coupling"]
    records = [
        span(block, -1),
        span(grad, 0),  # start of the block
        span(trial, 0),
        span(trial, 0),
        span(grad, 0),  # after the accepted second trial
        span(trial, 0),
        span(block, -1),
        span(grad, 6),  # already stationary: no trial
    ]
    evals_per_block, eval_s, accept_ratio = layers.line_search_stats(records, "coupling")
    assert evals_per_block == 3.0  # 6 evaluations in 2 blocks
    assert eval_s == 0.5
    assert accept_ratio == pytest.approx(1 / 3)
    assert layers.line_search_stats([], "cluster") == (0.0, 0.0, 0.0)


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A tiny real fit through the CLI, plus what the checks need."""
    root = tmp_path_factory.mktemp("fit")
    files, truth = gen.planted(TINY, [3, 0])
    gen.write_inputs(files, root / "in")
    code = cli.main(
        ["fit", "--expression", str(root / "in" / "expression.tsv"),
         "--labels", str(root / "in" / "labels.tsv"), "--gmt", str(root / "in" / "sets.gmt"),
         "--edges", str(root / "in" / "edges.tsv"), "--out", str(root / "out"),
         "--xi", "10", "--beta-a", "2", "--max-sweeps", "3"]
    )  # fmt: skip
    return root / "out", code, checks.aligned_ids(files), truth


def _corrupted(fitted, tmp_path, edit):
    out, code, ids, truth = fitted
    copy = tmp_path / "out"
    shutil.copytree(out, copy)
    edit(copy)
    return checks.check_fit(copy, code, 3, ids, truth)


def _replace(name, old, new):
    def edit(directory):
        path = directory / name
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))

    return edit


def test_a_clean_fit_passes_the_checks(fitted, tmp_path):
    problems, quality, digest = _corrupted(fitted, tmp_path, lambda d: None)
    assert problems == []
    assert set(quality) == {"objective", "sweeps", "mask_auc", "rmse"}
    assert digest == checks.output_digest(fitted[0])


def test_an_unexpected_exit_code_fails(fitted):
    out, _, ids, truth = fitted
    problems, _, _ = checks.check_fit(out, 0, 3, ids, truth)
    assert problems and "exit code" in problems[0]


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d: (d / "u_mixed.tsv").unlink(), "missing outputs"),
        (_replace("z_posterior.tsv", "SET0\t", "SETX\t"), "ids differ"),
        (_replace("association.tsv", "\n", "\nC9\t1\t1\n"), "ids differ"),
    ],
)
def test_corrupted_outputs_fail(fitted, tmp_path, edit, message):
    problems, _, _ = _corrupted(fitted, tmp_path, edit)
    assert any(message in p for p in problems)


def _set_value(name, row, col, value):
    def edit(directory):
        path = directory / name
        lines = path.read_text().splitlines()
        fields = lines[row].split("\t")
        fields[col] = value
        lines[row] = "\t".join(fields)
        path.write_text("\n".join(lines) + "\n")

    return edit


@pytest.mark.parametrize(
    "edit, message",
    [
        (_set_value("z_posterior.tsv", 1, 1, "1.5"), "outside [0, 1]"),
        (_set_value("association.tsv", 1, 1, "-0.25"), "negative association"),
        (_set_value("u_mixed.tsv", 2, 1, "0.75"), "do not sum to 1"),
        (_set_value("elbo_trace.tsv", 3, 3, "-1e300"), "objective decreased"),
    ],
)
def test_out_of_range_outputs_fail(fitted, tmp_path, edit, message):
    problems, _, _ = _corrupted(fitted, tmp_path, edit)
    assert any(message in p for p in problems)


def test_changed_output_bytes_change_the_digest(fitted, tmp_path):
    copy = tmp_path / "out"
    shutil.copytree(fitted[0], copy)
    before = checks.output_digest(copy)
    with open(copy / "basis_mean.tsv", "a") as handle:
        handle.write("\n")
    assert checks.output_digest(copy) != before


def test_fit_server_runs_untraced_and_traced_fits_with_identical_outputs(tmp_path):
    import run

    workload = run.Workload(TINY, ("--max-sweeps", "3"), 1)
    inputs = run.make_inputs(workload, 5, tmp_path)[0]
    plan = {
        "sets": [run.fit_args(inputs, workload, 5)],
        "out": str(tmp_path),
        "trace": 1,
        "probed": False,
        "seconds": 0,
        "min_fits": 2,
        "limit": 60.0,
        "run_id": "test",
    }
    software, fits = run.run_fits(plan, tmp_path, run.child_env(), 120.0)
    assert software["numpy"] == np.__version__
    assert [f["traced"] for f in fits] == [False, True]
    for record in fits:
        run.check_record(record, inputs)
        assert record["problems"] == []
        assert record["setup_s"] > 0 and record["fit_s"] > 0 and record["write_s"] > 0
    assert fits[0]["digest"] == fits[1]["digest"]
    per_layer = fits[1]["layers"]
    assert fits[1]["missing"] == []
    assert set(per_layer) == set(layers.UNITS) - {layers.OVERHEAD}
    assert per_layer["inference.sweeps"] == 3
    assert per_layer["graph.normalized_laplacian.calls"] == 1
    assert per_layer["model.factor_moments.calls"] > 0


def test_probed_fits_keep_their_outputs_and_scale_their_timings(tmp_path):
    import run

    workload = run.Workload(TINY, ("--max-sweeps", "20"), 1)
    inputs = run.make_inputs(workload, 5, tmp_path)[0]
    digests = []
    for probed in (False, True):
        out = tmp_path / f"probed{probed}"
        out.mkdir()
        plan = {
            "sets": [run.fit_args(inputs, workload, 5)],
            "out": str(out),
            "trace": 0,
            "probed": probed,
            "seconds": 0,
            "min_fits": 1,
            "limit": 60.0,
            "run_id": "test",
        }
        _, fits = run.run_fits(plan, out, run.child_env(), 120.0)
        record = fits[0]
        run.check_record(record, inputs)
        assert record["problems"] == []
        digests.append(record["digest"])
        if not probed:
            assert record["probes"] == 0 and record["probe_s"] is None
            assert "cpu_total_s" not in record
            continue
        assert record["probes"] > 0 and record["probe_s"] > 0
        scale = run.PROBE_REF_S / record["probe_s"]
        for key in run.SCALED:
            assert math.isclose(record[key], record["cpu_" + key] * scale)
    assert digests[0] == digests[1]

