import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy
from conftest import render_matrix

import pathfact
from pathfact import cli, dataio, inference, model
from pathfact.cli import (
    EXIT_DATA,
    EXIT_MAX_SWEEPS,
    EXIT_OK,
    FIT_OUTPUTS,
    RunConfig,
    main,
    parse_config_file,
)
from pathfact.model import Hyperparameters
from pathfact.synth import generate


def simulate_args(out, n=24, k=2, d=16, r=3, rho=0.1, seed=7, extra=()):
    return [
        "simulate",
        "--out",
        str(out),
        "--n-samples",
        str(n),
        "--n-clusters",
        str(k),
        "--n-features",
        str(d),
        "--n-sets",
        str(r),
        "--corruption",
        str(rho),
        "--seed",
        str(seed),
        "--beta-a",
        "6",
        "--snr",
        "6",
        "--min-members",
        "3",
        *extra,
    ]


def fit_args(dataset, out, extra=()):
    return [
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
        "40",
        "--xi",
        "10",
        "--beta-a",
        "2",
        "--seed",
        "3",
    ] + list(extra)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("dataset")
    assert main(simulate_args(out)) == EXIT_OK
    return out


class TestSimulate:
    def test_files_round_trip_through_dataio(self, dataset):
        expr = dataio.load_expression(
            dataset / "expression.tsv", dataset / "labels.tsv"
        )
        sets = dataio.load_gmt(dataset / "sets.gmt")
        graph = dataio.load_edge_list(dataset / "edges.tsv")
        data = dataio.align(expr, sets, graph)
        reference, _ = generate(
            (24, 2, 16, 3),
            edge_prob=0.15,
            beta_a=6.0,
            snr=6.0,
            corruption=0.1,
            seed=7,
            min_members=3,
        )
        np.testing.assert_array_equal(data.X, reference.X)
        np.testing.assert_array_equal(data.Z0, reference.Z0)
        np.testing.assert_array_equal(data.U0, reference.U0)
        assert data.feature_ids == reference.feature_ids
        assert data.graph.edges == reference.graph.edges

    def test_zero_corruption_matches_truth_mask(self, tmp_path):
        out = tmp_path / "clean"
        assert main(simulate_args(out, rho=0.0)) == EXIT_OK
        _, _, shown = dataio.load_labeled_matrix(out / "truth" / "shown_mask.tsv")
        _, _, member = dataio.load_labeled_matrix(out / "truth" / "membership.tsv")
        np.testing.assert_array_equal(shown, member)
        sets = dataio.load_gmt(out / "sets.gmt")
        assert sum(len(s.members) for s in sets.sets) == int(member.sum())

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(simulate_args(a, seed=1)) == EXIT_OK
        assert main(simulate_args(b, seed=2)) == EXIT_OK
        assert (a / "expression.tsv").read_text() != (b / "expression.tsv").read_text()

    def test_membership_draw_out_of_memory_exit_one(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(np.linalg, "cholesky", out_of_memory)
        out = tmp_path / "out"
        assert main(simulate_args(out)) == EXIT_DATA
        assert capsys.readouterr().err == (
            "error: out of memory in the dense Cholesky factor of the graph precision (D=16)\n"
        )
        assert not out.exists()

    def test_invalid_dims_exit_one(self, tmp_path):
        assert main(simulate_args(tmp_path / "x", n=0)) == EXIT_DATA

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--beta-a", "-1", "--beta-a must be positive, got -1.0"),
            ("--beta-a", "0", "--beta-a must be positive, got 0.0"),
            ("--beta-a", "nan", "--beta-a must be positive, got nan"),
            ("--edge-prob", "-1", "--edge-prob must lie in [0, 1], got -1.0"),
            ("--edge-prob", "2", "--edge-prob must lie in [0, 1], got 2.0"),
            ("--edge-prob", "nan", "--edge-prob must lie in [0, 1], got nan"),
        ],
    )
    def test_out_of_range_flag_exit_one(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "out"
        assert main(simulate_args(out, extra=[flag, value])) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_commands_load_only_the_scipy_a_fit_runs(dataset, tmp_path):
    """A fresh interpreter loads no public scipy subpackage beyond
    scipy.special, scipy.sparse and the scipy.linalg that its LU solver
    loads: not on importing the package, nor the CLI, nor through a fit."""
    script = """
import json, sys
def scipy_subpackages():
    return sorted({
        name.split(".")[1] for name in sys.modules
        if name.startswith("scipy.") and not name.split(".")[1].startswith("_")
    })
import pathfact
loaded = [scipy_subpackages()]
import pathfact.cli
loaded.append(scipy_subpackages())
pathfact.cli.main(json.loads(sys.argv[1]))
loaded.append(scipy_subpackages())
print(json.dumps(loaded))
"""
    env = dict(os.environ)
    src = str(Path(pathfact.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    args = json.dumps(fit_args(dataset, tmp_path / "fit"))
    done = subprocess.run(
        [sys.executable, "-c", script, args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout.splitlines()[-1])
    assert len(loaded) == 3
    for subpackages in loaded:
        assert set(subpackages) <= {"linalg", "sparse", "special", "version"}


def _build_info_unreadable(mode):
    raise TypeError("no build information")


class TestFit:
    def test_outputs_exist_and_trace_monotone(self, dataset, tmp_path):
        out = tmp_path / "fit"
        code = main(fit_args(dataset, out))
        assert code in (EXIT_OK, EXIT_MAX_SWEEPS)
        for name in FIT_OUTPUTS:
            assert (out / name).exists(), name
        lines = (out / "elbo_trace.tsv").read_text().splitlines()[1:]
        objectives = np.array([float(line.split("\t")[3]) for line in lines])
        drops = np.diff(objectives)
        assert np.all(drops >= -1e-8 * np.maximum(np.abs(objectives[:-1]), 1.0))

    def test_rerun_is_byte_identical(self, dataset, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(fit_args(dataset, out1))
        main(fit_args(dataset, out2))
        for name in FIT_OUTPUTS:
            if name == "run_meta":
                continue  # embeds the output directory path
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    def test_zeta_one_outputs_one_hot_mixture(self, dataset, tmp_path):
        out = tmp_path / "zeta1"
        main(fit_args(dataset, out, extra=["--zeta", "1.0"]))
        _, _, u_mixed = dataio.load_labeled_matrix(out / "u_mixed.tsv")
        expr = dataio.load_expression(
            dataset / "expression.tsv", dataset / "labels.tsv"
        )
        sets = dataio.load_gmt(dataset / "sets.gmt")
        graph = dataio.load_edge_list(dataset / "edges.tsv")
        data = dataio.align(expr, sets, graph)
        np.testing.assert_array_equal(u_mixed, data.U0)

    def test_run_meta_reproduces_run(self, dataset, tmp_path, monkeypatch):
        out1, out2 = tmp_path / "m1", tmp_path / "m2"
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        main(fit_args(dataset, out1))
        meta = (out1 / "run_meta").read_text().splitlines()
        stalled = meta.index("# stalled: cluster=0 coupling=0")
        assert meta[stalled + 1] == (
            f"# versions: pathfact={pathfact.__version__} numpy={np.__version__}"
            f" scipy={scipy.__version__}"
        )
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert meta[stalled + 2] == (
            f"# blas: {blas['name']} {blas['version']}"
            " OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset"
        )
        assert re.fullmatch(
            r"# blas: \S+ \S+ OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset", meta[stalled + 2]
        )
        counts = re.fullmatch(r"# evaluations: cluster=(\d+) coupling=(\d+)", meta[stalled + 3])
        assert counts and min(map(int, counts.groups())) > 0
        # comment lines only: the file still reads as a config
        assert set(parse_config_file(out1 / "run_meta")) == {f.name for f in fields(RunConfig)}
        code = main(["fit", "--config", str(out1 / "run_meta"), "--out", str(out2)])
        assert code in (EXIT_OK, EXIT_MAX_SWEEPS)
        for name in FIT_OUTPUTS:
            if name == "run_meta":
                continue
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        assert meta[stalled + 3] in (out2 / "run_meta").read_text().splitlines()

    @pytest.mark.parametrize(
        "show_config", [_build_info_unreadable, lambda mode: {}], ids=["raises", "empty"]
    )
    def test_run_meta_without_blas_info(self, dataset, tmp_path, monkeypatch, show_config):
        monkeypatch.setattr(np, "show_config", show_config)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        out = tmp_path / "fit"
        assert main(fit_args(dataset, out)) in (EXIT_OK, EXIT_MAX_SWEEPS)
        meta = (out / "run_meta").read_text().splitlines()
        assert "# blas: unknown OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset" in meta
        assert set(parse_config_file(out / "run_meta")) == {f.name for f in fields(RunConfig)}

    def test_outputs_parse_back(self, dataset, tmp_path):
        out = tmp_path / "parse"
        main(fit_args(dataset, out))
        for name in ("association.tsv", "z_posterior.tsv", "u_mixed.tsv", "basis_mean.tsv"):
            row_ids, col_ids, matrix = dataio.load_labeled_matrix(out / name)
            rendered = render_matrix(
                row_ids,
                col_ids,
                matrix,
                corner=(out / name).read_text().split("\t", 1)[0],
            )
            assert rendered == (out / name).read_text()

    def test_format_error_exit_one(self, dataset, tmp_path):
        bad = tmp_path / "bad.gmt"
        bad.write_text("ONLY_TWO\tfields\n")
        args = fit_args(dataset, tmp_path / "out")
        args[args.index("--gmt") + 1] = str(bad)
        assert main(args) == EXIT_DATA

    def test_empty_set_id_exit_one_before_output(self, dataset, tmp_path, capsys):
        bad = tmp_path / "blank_id.gmt"
        lines = (dataset / "sets.gmt").read_text().splitlines(keepends=True)
        bad.write_text("".join(["\t" + lines[0].split("\t", 1)[1]] + lines[1:]))
        args = fit_args(dataset, tmp_path / "out")
        args[args.index("--gmt") + 1] = str(bad)
        assert main(args) == EXIT_DATA
        assert capsys.readouterr().err == "error: line 1: empty set id\n"
        assert not (tmp_path / "out").exists()

    def test_missing_file_exit_one(self, dataset, tmp_path):
        args = fit_args(dataset, tmp_path / "out")
        args[args.index("--expression") + 1] = str(tmp_path / "nope.tsv")
        assert main(args) == EXIT_DATA

    def test_missing_required_setting_exit_one(self):
        assert main(["fit", "--out", "/tmp/x"]) == EXIT_DATA

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--zeta", "2", "zeta must lie in [0, 1]"),
            ("--xi", "-1", "xi must be nonnegative"),
            ("--epsilon", "nan", "epsilon must be finite"),
            ("--epsilon", "0", "epsilon must be positive for a graph with edges"),
            ("--alpha-a0", "nan", "alpha_a0 must be finite"),
            ("--alpha-b0", "nan", "alpha_b0 must be finite"),
            ("--beta-a", "nan", "beta_a must be finite"),
            ("--mu-v0", "nan", "mu_v0 must be finite"),
            ("--xi", "nan", "xi must be finite"),
            ("--xi", "inf", "xi must be finite"),
            ("--elbo-rel-tol", "nan", "elbo_rel_tol must be finite"),
            ("--seed", "-1", "seed must be nonnegative"),
        ],
    )
    def test_out_of_range_hyperparameter_exit_one(
        self, dataset, tmp_path, capsys, flag, value, message
    ):
        out = tmp_path / "out"
        assert main(fit_args(dataset, out, extra=[flag, value])) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_top_m_below_one_exit_one(self, dataset, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(fit_args(dataset, out, extra=["--top-m", "0"])) == EXIT_DATA
        assert capsys.readouterr().err == "error: top_m must be at least 1, got 0\n"
        assert not out.exists()

    def test_repeated_gene_in_header_exit_one(self, dataset, tmp_path, capsys):
        expression = tmp_path / "expression.tsv"
        lines = (dataset / "expression.tsv").read_text().splitlines(keepends=True)
        header = lines[0].split("\t")
        header[2] = header[1]
        expression.write_text("\t".join(header) + "".join(lines[1:]))
        args = fit_args(dataset, tmp_path / "out")
        args[args.index("--expression") + 1] = str(expression)
        assert main(args) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"error: line 1: duplicate column id {header[1]!r} in header\n"
        assert not (tmp_path / "out").exists()

    def test_laplacian_out_of_memory_exit_one(self, dataset, tmp_path, capsys, monkeypatch):
        def out_of_memory(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr("pathfact.graph.splu", out_of_memory)
        expr = dataio.load_expression(dataset / "expression.tsv", dataset / "labels.tsv")
        data = dataio.align(
            expr, dataio.load_gmt(dataset / "sets.gmt"), dataio.load_edge_list(dataset / "edges.tsv")
        )
        assert main(fit_args(dataset, tmp_path / "out")) == EXIT_DATA
        assert capsys.readouterr().err == (
            "error: out of memory in the graph precision's sparse LU "
            f"(D={data.n_features}, {data.graph.n_edges} edges)\n"
        )
        assert not (tmp_path / "out").exists()

    def test_summary_computes_no_moments(self, dataset, tmp_path, monkeypatch):
        """The summary reads the final moments fit() returns, so every
        factor_moments call of a CLI fit is made inside fit()."""
        calls = {"all": 0, "in_fit": 0}
        factor_moments, fit = model.factor_moments, cli.fit

        def moments(*args, **kwargs):
            calls["all"] += 1
            return factor_moments(*args, **kwargs)

        def counted_fit(*args, **kwargs):
            before = calls["all"]
            report = fit(*args, **kwargs)
            calls["in_fit"] += calls["all"] - before
            return report

        monkeypatch.setattr(model, "factor_moments", moments)
        monkeypatch.setattr(inference, "factor_moments", moments)
        monkeypatch.setattr(cli, "fit", counted_fit)
        main(fit_args(dataset, tmp_path / "out", extra=["--max-sweeps", "2"]))
        assert calls["in_fit"] > 0 and calls["all"] == calls["in_fit"]

    def test_max_sweeps_exit_three(self, dataset, tmp_path):
        out = tmp_path / "short"
        code = main(fit_args(dataset, out, extra=["--max-sweeps", "1"]))
        assert code == EXIT_MAX_SWEEPS


@pytest.fixture(scope="module")
def fitted(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("fitted")
    main(fit_args(dataset, out))
    return out


class TestEvalAndRank:
    def test_eval_writes_metrics(self, dataset, fitted, capsys):
        code = main(
            [
                "eval",
                "--fit-dir",
                str(fitted),
                "--truth-dir",
                str(dataset / "truth"),
                "--top-m",
                "2",
            ]
        )
        assert code == EXIT_OK
        text = (fitted / "metrics.tsv").read_text()
        captured = capsys.readouterr().out
        assert text in captured
        names = [line.split("\t")[0] for line in text.splitlines()[1:]]
        assert names == ["precision_at_m", "rmse", "mask_auc", "sign_agreement"]

    def test_eval_oracle_fixture_scores_perfectly(self, dataset, tmp_path):
        # fabricate a fit directory from the truth itself
        expr = dataio.load_expression(
            dataset / "expression.tsv", dataset / "labels.tsv"
        )
        sets = dataio.load_gmt(dataset / "sets.gmt")
        graph = dataio.load_edge_list(dataset / "edges.tsv")
        data = dataio.align(expr, sets, graph)
        _, _, associations = dataio.load_labeled_matrix(
            dataset / "truth" / "associations.tsv"
        )
        _, _, basis = dataio.load_labeled_matrix(dataset / "truth" / "basis.tsv")
        _, _, membership = dataio.load_labeled_matrix(
            dataset / "truth" / "membership.tsv"
        )
        fake = tmp_path / "oracle_fit"
        fake.mkdir()
        (fake / "association.tsv").write_text(
            render_matrix(data.cluster_ids, data.set_ids, associations, corner="cluster")
        )
        (fake / "z_posterior.tsv").write_text(
            render_matrix(data.feature_ids, data.set_ids, membership, corner="feature")
        )
        (fake / "u_mixed.tsv").write_text(
            render_matrix(data.sample_ids, data.cluster_ids, data.U0, corner="sample")
        )
        (fake / "basis_mean.tsv").write_text(
            render_matrix(data.feature_ids, data.set_ids, basis, corner="feature")
        )
        code = main(
            [
                "eval",
                "--fit-dir",
                str(fake),
                "--truth-dir",
                str(dataset / "truth"),
                "--top-m",
                "2",
            ]
        )
        assert code == EXIT_OK
        metrics = dict(
            line.split("\t")
            for line in (fake / "metrics.tsv").read_text().splitlines()[1:]
        )
        assert float(metrics["precision_at_m"]) == 1.0
        assert float(metrics["rmse"]) < 1e-9
        assert float(metrics["mask_auc"]) == 1.0
        assert float(metrics["sign_agreement"]) == 1.0

    def test_eval_missing_file_exit_one(self, dataset, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert (
            main(
                [
                    "eval",
                    "--fit-dir",
                    str(empty),
                    "--truth-dir",
                    str(dataset / "truth"),
                ]
            )
            == EXIT_DATA
        )

    def eval_copy(self, dataset, fitted, tmp_path, edit=None, top_m="2"):
        """Exit code of eval on a copy of the fit whose z_posterior.tsv
        lines have gone through ``edit``."""
        fit_dir = tmp_path / "edited"
        shutil.copytree(fitted, fit_dir)
        z_path = fit_dir / "z_posterior.tsv"
        if edit:
            lines = z_path.read_text().splitlines(keepends=True)
            z_path.write_text("".join(edit(lines)))
        args = ["eval", "--fit-dir", str(fit_dir), "--truth-dir", str(dataset / "truth")]
        return main(args + (["--top-m", top_m] if top_m else []))

    def test_eval_swapped_rows_exit_one(self, dataset, fitted, tmp_path, capsys):
        def swap(lines):
            return [lines[0], lines[2], lines[1], *lines[3:]]

        assert self.eval_copy(dataset, fitted, tmp_path, swap) == EXIT_DATA
        err = capsys.readouterr().err
        assert "z_posterior.tsv" in err and "feature id 1 is" in err

    def test_eval_dropped_row_exit_one(self, dataset, fitted, tmp_path, capsys):
        assert self.eval_copy(dataset, fitted, tmp_path, lambda ls: ls[:-1]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "z_posterior.tsv" in err and "feature ids, truth has" in err

    @pytest.mark.parametrize(
        "name, edit, message",
        [
            (
                "membership.tsv",
                lambda lines: [lines[0], lines[2], lines[1], *lines[3:]],
                "membership.tsv: feature id 1 is",
            ),
            (
                "shown_mask.tsv",
                lambda lines: [line.rsplit("\t", 1)[0] + "\n" for line in lines],
                "shown_mask.tsv: 2 set ids, truth has 3",
            ),
            (
                "noiseless_mean.tsv",
                lambda lines: [line.rsplit("\t", 1)[0] + "\n" for line in lines],
                "noiseless_mean.tsv: 15 feature ids, truth has 16",
            ),
        ],
        ids=["swapped_membership_rows", "dropped_mask_column", "dropped_mean_column"],
    )
    def test_eval_checks_truth_ids(
        self, dataset, fitted, tmp_path, capsys, name, edit, message
    ):
        truth = tmp_path / "truth"
        shutil.copytree(dataset / "truth", truth)
        path = truth / name
        path.write_text("".join(edit(path.read_text().splitlines(keepends=True))))
        args = ["eval", "--fit-dir", str(fitted), "--truth-dir", str(truth), "--top-m", "2"]
        assert main(args) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}") and message in err

    def test_eval_top_m_beyond_sets_exit_one(self, dataset, fitted, tmp_path, capsys):
        # the default --top-m 5 on a three-set fit
        assert self.eval_copy(dataset, fitted, tmp_path, top_m=None) == EXIT_DATA
        err = capsys.readouterr().err
        assert "--top-m 5" in err and "association.tsv has 3 sets" in err

    @pytest.mark.parametrize(
        "meta, message",
        [
            ("noise_precision 3\n", "meta:1: expected 'key = value'"),
            (
                "noise_precision = abc\n",
                "meta:1: config key 'noise_precision' has non-numeric value 'abc'",
            ),
            ("", "meta: missing key 'noise_precision'"),
        ],
        ids=["no_equals", "non_numeric", "empty"],
    )
    def test_eval_bad_truth_meta_exit_one(self, dataset, fitted, tmp_path, capsys, meta, message):
        truth = tmp_path / "truth"
        shutil.copytree(dataset / "truth", truth)
        (truth / "meta").write_text(meta)
        args = ["eval", "--fit-dir", str(fitted), "--truth-dir", str(truth), "--top-m", "2"]
        assert main(args) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {truth}/{message}\n"

    def test_rank_rewrites_with_new_top_m(self, fitted, tmp_path):
        out = tmp_path / "rr.tsv"
        code = main(
            [
                "rank",
                "--association",
                str(fitted / "association.tsv"),
                "--top-m",
                "3",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "cluster\trank\tset_id\tscore"
        _, col_ids, assoc = dataio.load_labeled_matrix(fitted / "association.tsv")
        assert len(lines) == 1 + assoc.shape[0] * 3

    def test_rank_bad_top_m_exit_one(self, fitted):
        assert (
            main(
                [
                    "rank",
                    "--association",
                    str(fitted / "association.tsv"),
                    "--top-m",
                    "99",
                ]
            )
            == EXIT_DATA
        )


    @pytest.mark.parametrize("repeat", ["set", "cluster"])
    def test_rank_repeated_id_exit_one(self, fitted, tmp_path, capsys, repeat):
        lines = (fitted / "association.tsv").read_text().splitlines(keepends=True)
        if repeat == "set":
            header = lines[0].split("\t")
            header[2] = header[1]
            lines[0] = "\t".join(header)
            message = f"line 1: duplicate column id {header[1]!r} in header"
        else:
            lines.append(lines[1])
            row_id = lines[1].split("\t")[0]
            message = f"line {len(lines)}: duplicate row id {row_id!r}"
        association = tmp_path / "association.tsv"
        association.write_text("".join(lines))
        args = ["rank", "--association", str(association), "--top-m", "1"]
        assert main(args) == EXIT_DATA
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "ranked_sets.tsv").exists()


class TestConfigFile:
    def test_parse_and_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "xi = 5.0  # trailing comment\n"
            "seed = 42\n"
            "clamp_known = true\n"
            "beta_a = none\n"
        )
        values = parse_config_file(cfg)
        assert values == {"xi": 5.0, "seed": 42, "clamp_known": True, "beta_a": None}

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("mystery = 1\n")
        assert main(["fit", "--config", str(cfg)]) == EXIT_DATA

    def test_config_carries_every_hyperparameter(self):
        defaults = {f.name: f.default for f in fields(RunConfig)}
        for f in fields(Hyperparameters):
            assert defaults[f.name] == f.default, f.name
        assert RunConfig().hyperparameters() == Hyperparameters()
        # the broadcast priors are given as one number
        types = {f.name: f.type for f in fields(RunConfig)}
        assert [types[name] for name in ("lambda_s0", "mu_v0", "sigma_v0")] == [float] * 3
        assert list(types) == [
            "expression", "labels", "gmt", "edges", "out",
            *(f.name for f in fields(Hyperparameters)),
            "top_m", "clamp_known",
        ]

    def test_removed_threads_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "old_run_meta"
        cfg.write_text("seed = 3\nthreads = 1\n")
        assert main(["fit", "--config", str(cfg)]) == EXIT_DATA
        assert "unknown config key 'threads'" in capsys.readouterr().err

    def test_unknown_command(self):
        assert main(["transmogrify"]) == EXIT_DATA
