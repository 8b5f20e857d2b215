"""Command-line interface: fit, simulate, eval and rank.

Configuration comes from optional flat ``key = value`` files ('#' starts a
comment) with command-line flags taking precedence. Exit codes are the
process-level contract: 0 success/converged, 1 input or configuration
problems, 2 numerical aborts, 3 fit stopped at the sweep limit.
"""

import argparse
import os
import sys
from dataclasses import field, fields, make_dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from . import __version__, dataio
from .dataio import DataError, format_number
from .inference import fit, render_counts
from .model import Hyperparameters, NumericalError, rank_row, summarize
from .synth import PlantedTruth, generate, score_arrays

EXIT_OK = 0
EXIT_DATA = 1
EXIT_NUMERIC = 2
EXIT_MAX_SWEEPS = 3

# the labeled matrices fit writes and eval reads back, in the order of
# fit's values, with the kinds of id that label their rows and columns
_FIT_MATRICES = {
    "association.tsv": ("cluster", "set"),
    "z_posterior.tsv": ("feature", "set"),
    "u_mixed.tsv": ("sample", "cluster"),
    "basis_mean.tsv": ("feature", "set"),
}
FIT_OUTPUTS = (*_FIT_MATRICES, "ranked_sets.tsv", "elbo_trace.tsv", "run_meta")
# the planted-truth matrices simulate writes and eval reads back: each
# PlantedTruth field goes to <field>.tsv
_TRUTH_MATRICES = {
    "associations": ("cluster", "set"),
    "basis": ("feature", "set"),
    "membership": ("feature", "set"),
    "shown_mask": ("feature", "set"),
    "noiseless_mean": ("sample", "feature"),
}


class UsageError(Exception):
    pass


def _path(help_text):
    return field(default=None, metadata={"help": help_text})


def _hyperparameter(f):
    # the broadcast priors are set as one number
    return f.name, float if f.type is object else f.type, field(default=f.default)


RunConfig = make_dataclass(
    "RunConfig",
    [
        ("expression", str, _path("expression matrix TSV")),
        ("labels", str, _path("sample cluster-label TSV")),
        ("gmt", str, _path("gene-set GMT file")),
        ("edges", str, _path("interaction edge list")),
        ("out", str, _path("output directory")),
        *map(_hyperparameter, fields(Hyperparameters)),
        ("top_m", int, field(default=5)),
        ("clamp_known", bool, field(default=False)),
    ],
    frozen=True,
    namespace={
        "__module__": __name__,
        "__doc__": """Everything a fit run needs: the paths, the fields of
        :class:`Hyperparameters` and the reporting settings. Each field is a
        config key and a command-line flag.""",
        "hyperparameters": lambda self: Hyperparameters(
            **{f.name: getattr(self, f.name) for f in fields(Hyperparameters)}
        ),
    },
)


_CONFIG_TYPES = {f.name: f.type for f in fields(RunConfig)}
_PATH_KEYS = tuple(name for name, kind in _CONFIG_TYPES.items() if kind is str)
# settings that may be left unset ('none') and are then derived from the data
_OPTIONAL_KEYS = {
    f.name for f in fields(RunConfig) if f.default is None and f.type is not str
}


def _coerce(key, kind, text):
    if kind is str:
        return text
    if text.lower() == "none" and key in _OPTIONAL_KEYS:
        return None
    if kind is bool:
        if text.lower() in ("true", "1", "yes"):
            return True
        if text.lower() in ("false", "0", "no"):
            return False
        raise UsageError(f"config key {key!r} expects true/false, got {text!r}")
    try:
        return kind(text)
    except ValueError:
        raise UsageError(f"config key {key!r} has non-numeric value {text!r}")


def parse_config_file(path, types=_CONFIG_TYPES) -> dict:
    """Flat ``key = value`` settings; '#' starts a comment anywhere.
    ``types`` maps each allowed key to its type."""
    values = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _coerce(key, types[key], text)
        except UsageError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}") from None
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_config_flags(parser):
    parser.add_argument("--config", help="flat key = value settings file")
    for f in fields(RunConfig):
        flag = "--" + f.name.replace("_", "-")
        if f.type is bool:
            parser.add_argument(flag, choices=("true", "false"))
        else:
            parser.add_argument(flag, type=f.type, help=f.metadata.get("help"))


def build_config(args) -> RunConfig:
    config = RunConfig()
    if args.config:
        config = replace(config, **parse_config_file(args.config))
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = value == "true" if f.type is bool else value
    return replace(config, **overrides)


def _write(path: Path, text: str):
    path.write_text(text, encoding="utf-8")


def _write_matrix(path: Path, data, kinds, matrix):
    """Write ``matrix`` labeled with the ids of ``data`` of the (row,
    column) ``kinds``; the corner cell names the row kind."""
    rows, cols = kinds
    _write(
        path,
        dataio.write_labeled_matrix(
            getattr(data, f"{rows}_ids"), getattr(data, f"{cols}_ids"), matrix, corner=rows
        ),
    )


def _render_ranked(cluster_ids, ranked) -> str:
    lines = ["cluster\trank\tset_id\tscore"]
    for cluster, pairs in zip(cluster_ids, ranked):
        for rank, (set_id, value) in enumerate(pairs, start=1):
            lines.append(f"{cluster}\t{rank}\t{set_id}\t{format_number(value)}")
    return "\n".join(lines) + "\n"


def _render_run_meta(config: RunConfig, hyper, data, report) -> str:
    lines = ["# pathfact run metadata; reusable as a --config file"]
    lines.append(
        f"# dims: samples={data.n_samples} features={data.n_features}"
        f" clusters={data.n_clusters} sets={data.n_sets}"
    )
    lines.append("# cluster_order: " + ",".join(data.cluster_ids))
    lines.append("# set_order: " + ",".join(data.set_ids))
    lines.append(f"# status: {report.status} after {report.sweeps} sweep(s)")
    lines.append("# stalled: " + render_counts(report.stalled))
    lines.append(
        f"# versions: pathfact={__version__} numpy={np.__version__} scipy={scipy.__version__}"
    )
    # outputs are byte-identical only at a fixed BLAS thread count
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    lines.append(
        f"# blas: {blas['name']} {blas['version']} "
        + " ".join(
            f"{var}={os.environ.get(var, 'unset')}"
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        )
    )
    lines.append("# evaluations: " + render_counts(report.evaluations))
    # scalar settings as resolved; the broadcast prior arrays keep the
    # config's scalar
    resolved = replace(
        config,
        **{
            f.name: getattr(hyper, f.name)
            for f in fields(Hyperparameters)
            if np.ndim(getattr(hyper, f.name)) == 0
        },
    )
    for f in fields(RunConfig):
        value = getattr(resolved, f.name)
        if value is None:
            text = "none"
        elif isinstance(value, bool):
            text = "true" if value else "false"
        elif isinstance(value, float):
            text = format_number(value)
        else:
            text = str(value)
        lines.append(f"{f.name} = {text}")
    return "\n".join(lines) + "\n"


def cmd_fit(argv) -> int:
    parser = _Parser(prog="pathfact fit", description="fit the factorization model")
    _add_config_flags(parser)
    args = parser.parse_args(argv)
    config = build_config(args)
    for key in _PATH_KEYS:
        if not getattr(config, key):
            raise UsageError(f"missing required setting {key!r}")
    try:
        hyper = config.hyperparameters()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    if config.top_m < 1:
        raise UsageError(f"top_m must be at least 1, got {config.top_m}")

    expr = dataio.load_expression(config.expression, config.labels)
    sets = dataio.load_gmt(config.gmt)
    graph = dataio.load_edge_list(config.edges)
    data = dataio.align(expr, sets, graph)
    try:
        hyper = hyper.resolve(data)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    report = fit(data, hyper)
    result = summarize(
        report.state,
        data,
        hyper,
        top_m=config.top_m,
        clamp_known=config.clamp_known,
        mom=report.moments,
    )

    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    matrices = (
        result.assoc_mean, result.z_marginal, result.u_mixed, report.state.basis.mean
    )
    for (name, kinds), matrix in zip(_FIT_MATRICES.items(), matrices):
        _write_matrix(out / name, data, kinds, matrix)
    _write(out / "ranked_sets.tsv", _render_ranked(data.cluster_ids, result.ranked))
    trace_lines = ["sweep\telbo\tpenalty\tobjective"]
    for rec in report.trace.records:
        trace_lines.append(
            f"{rec.sweep}\t{format_number(rec.elbo)}\t{format_number(rec.penalty)}"
            f"\t{format_number(rec.objective)}"
        )
    _write(out / "elbo_trace.tsv", "\n".join(trace_lines) + "\n")
    _write(out / "run_meta", _render_run_meta(config, hyper, data, report))

    print(f"{report.status} after {report.sweeps} sweep(s); outputs in {out}")
    return EXIT_OK if report.converged else EXIT_MAX_SWEEPS


def cmd_simulate(argv) -> int:
    parser = _Parser(prog="pathfact simulate", description="emit a synthetic dataset")
    parser.add_argument("--out", required=True)
    parser.add_argument("--n-samples", type=int, required=True)
    parser.add_argument("--n-clusters", type=int, required=True)
    parser.add_argument("--n-features", type=int, required=True)
    parser.add_argument("--n-sets", type=int, required=True)
    parser.add_argument("--corruption", type=float, default=0.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--beta-a", type=float, default=None)
    parser.add_argument("--edge-prob", type=float, default=0.15)
    parser.add_argument("--epsilon", type=float, default=0.05)
    parser.add_argument("--noise-precision", type=float, default=None)
    parser.add_argument("--snr", type=float, default=None)
    parser.add_argument("--min-members", type=int, default=1)
    args = parser.parse_args(argv)
    if not (args.beta_a is None or args.beta_a > 0):
        raise UsageError(f"--beta-a must be positive, got {args.beta_a}")
    if not 0 <= args.edge_prob <= 1:
        raise UsageError(f"--edge-prob must lie in [0, 1], got {args.edge_prob}")

    try:
        data, truth = generate(
            (args.n_samples, args.n_clusters, args.n_features, args.n_sets),
            edge_prob=args.edge_prob,
            beta_a=args.beta_a,
            noise_precision=args.noise_precision,
            snr=args.snr,
            corruption=args.corruption,
            epsilon=args.epsilon,
            seed=args.seed,
            min_members=args.min_members,
        )
    except ValueError as exc:
        raise UsageError(str(exc))

    out = Path(args.out)
    truth_dir = out / "truth"
    truth_dir.mkdir(parents=True, exist_ok=True)

    expr = dataio.LabeledExpression(
        sample_ids=data.sample_ids,
        feature_ids=data.feature_ids,
        matrix=data.X,
        labels=tuple(data.cluster_ids[int(np.argmax(row))] for row in data.U0),
    )
    matrix_text, labels_text = dataio.write_expression(expr)
    _write(out / "expression.tsv", matrix_text)
    _write(out / "labels.tsv", labels_text)
    sets = dataio.GeneSetCollection(
        sets=tuple(
            dataio.GeneSet(
                set_id=sid,
                description=f"synthetic set {r}",
                members=tuple(
                    data.feature_ids[j]
                    for j in range(data.n_features)
                    if data.Z0[j, r]
                ),
            )
            for r, sid in enumerate(data.set_ids)
        )
    )
    _write(out / "sets.gmt", dataio.write_gmt(sets))
    _write(out / "edges.tsv", dataio.write_edge_list(data.graph))

    for name, kinds in _TRUTH_MATRICES.items():
        _write_matrix(truth_dir / f"{name}.tsv", data, kinds, getattr(truth, name))
    _write(
        truth_dir / "meta",
        f"noise_precision = {format_number(truth.noise_precision)}\n",
    )
    print(f"synthetic dataset written to {out}")
    return EXIT_OK


def _load_matrix(path: Path, kinds, ids):
    """Load a labeled matrix and check its ids against ``ids``, which maps
    each kind of id to the ids first read for it; a kind seen for the first
    time is taken from this file."""
    row_ids, col_ids, matrix = dataio.load_labeled_matrix(path)
    for kind, found in zip(kinds, (row_ids, col_ids)):
        _check_ids(path, kind, found, ids.setdefault(kind, found))
    return matrix


def _check_ids(path, kind, found, expected):
    for i, (got, want) in enumerate(zip(found, expected), start=1):
        if got != want:
            raise UsageError(f"{path}: {kind} id {i} is {got!r}, truth has {want!r}")
    if len(found) != len(expected):
        raise UsageError(f"{path}: {len(found)} {kind} ids, truth has {len(expected)}")


def _load_truth(truth_dir: Path):
    """The planted truth, and its ids by kind (cluster, set, feature,
    sample). Each truth file's ids must match the first file of that kind."""
    ids = {}
    matrices = {
        name: _load_matrix(truth_dir / f"{name}.tsv", kinds, ids)
        for name, kinds in _TRUTH_MATRICES.items()
    }
    meta_path = truth_dir / "meta"
    meta = parse_config_file(meta_path, types={"noise_precision": float})
    if "noise_precision" not in meta:
        raise UsageError(f"{meta_path}: missing key 'noise_precision'")
    return PlantedTruth(**matrices, noise_precision=meta["noise_precision"]), ids


def cmd_eval(argv) -> int:
    parser = _Parser(prog="pathfact eval", description="score a fit against truth")
    parser.add_argument("--fit-dir", required=True)
    parser.add_argument("--truth-dir", required=True)
    parser.add_argument("--top-m", type=int, default=5)
    args = parser.parse_args(argv)
    fit_dir = Path(args.fit_dir)
    truth_dir = Path(args.truth_dir)
    for name in _FIT_MATRICES:
        if not (fit_dir / name).exists():
            raise UsageError(f"missing fit output {name!r} in {fit_dir}")

    truth, truth_ids = _load_truth(truth_dir)
    assoc, z_post, u_mixed, basis_mean = (
        _load_matrix(fit_dir / name, kinds, truth_ids)
        for name, kinds in _FIT_MATRICES.items()
    )
    n_sets = assoc.shape[1]
    if not 1 <= args.top_m <= n_sets:
        raise UsageError(
            f"--top-m {args.top_m} must lie in [1, {n_sets}]:"
            f" {fit_dir / 'association.tsv'} has {n_sets} sets"
        )
    recon = u_mixed @ assoc @ (z_post * basis_mean).T
    metrics = score_arrays(assoc, recon, z_post, basis_mean, truth, args.top_m)

    rows = [
        ("precision_at_m", metrics.precision_at_m),
        ("rmse", metrics.rmse),
        ("mask_auc", metrics.mask_auc),
        ("sign_agreement", metrics.sign_agreement),
    ]
    text = "metric\tvalue\n" + "".join(
        f"{name}\t{format_number(value)}\n" for name, value in rows
    )
    _write(fit_dir / "metrics.tsv", text)
    print(text, end="")
    return EXIT_OK


def cmd_rank(argv) -> int:
    parser = _Parser(prog="pathfact rank", description="re-rank an association matrix")
    parser.add_argument("--association", required=True)
    parser.add_argument("--top-m", type=int, required=True)
    parser.add_argument("--out", default=None, help="defaults next to the input")
    args = parser.parse_args(argv)
    cluster_ids, set_ids, assoc = dataio.load_labeled_matrix(args.association)
    try:
        ranked = [rank_row(row, set_ids, args.top_m) for row in assoc]
    except ValueError as exc:
        raise UsageError(str(exc))
    out = Path(args.out) if args.out else Path(args.association).parent / "ranked_sets.tsv"
    _write(out, _render_ranked(cluster_ids, ranked))
    print(f"rankings written to {out}")
    return EXIT_OK


COMMANDS = {
    "fit": cmd_fit,
    "simulate": cmd_simulate,
    "eval": cmd_eval,
    "rank": cmd_rank,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: pathfact {fit,simulate,eval,rank} [options]")
        print(__doc__)
        return EXIT_OK if argv else EXIT_DATA
    command = argv[0]
    if command not in COMMANDS:
        print(f"unknown command {command!r}; expected one of {sorted(COMMANDS)}", file=sys.stderr)
        return EXIT_DATA
    try:
        return COMMANDS[command](argv[1:])
    except (UsageError, DataError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
