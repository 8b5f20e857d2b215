"""Per-fit output checks and quality scores, independent of ``pathfact``.

A fit fails when its exit code is unexpected, an output is missing, the
objective trace decreases beyond the monotonicity tolerance, output ids
differ from the aligned inputs, or a posterior summary leaves its range.
Quality is scored against the generator's own truth.
"""

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

OUTPUTS = (
    "association.tsv",
    "z_posterior.tsv",
    "u_mixed.tsv",
    "basis_mean.tsv",
    "ranked_sets.tsv",
    "elbo_trace.tsv",
    "run_meta",
)
# run_meta carries no timing today, but it names the output directory,
# which differs between the fits of one run
DETERMINISTIC = OUTPUTS[:-1]
# the outputs written through the labeled-matrix writer
MATRICES = OUTPUTS[:4]
# criterion 1 of the acceptance suite: a sweep may lower the objective by at
# most this share of its magnitude (floored at 1)
MONOTONE_RTOL = 1e-8
ROW_SUM_TOL = 1e-9


@dataclass(frozen=True)
class AlignedIds:
    """Ids the fit must report, in the order alignment produces them."""

    sample_ids: tuple
    feature_ids: tuple
    cluster_ids: tuple
    set_ids: tuple


def aligned_ids(files) -> AlignedIds:
    """Alignment worked out from the input texts: features are expression
    columns listed in some set and in the graph, in column order; sets keep
    file order; clusters are the sorted labels."""
    lines = files["expression.tsv"].splitlines()
    columns = lines[0].split("\t")[1:]
    samples = tuple(line.split("\t", 1)[0] for line in lines[1:] if line)
    sets = [line.split("\t") for line in files["sets.gmt"].splitlines() if line]
    members = {m for fields in sets for m in fields[2:]}
    nodes = set(files["edges.tsv"].split())
    features = tuple(c for c in columns if c in members and c in nodes)
    feature_set = set(features)
    set_ids = tuple(f[0] for f in sets if any(m in feature_set for m in f[2:]))
    labels = {line.split("\t")[1] for line in files["labels.tsv"].splitlines() if line}
    return AlignedIds(samples, features, tuple(sorted(labels)), set_ids)


def read_matrix(path):
    """(row_ids, col_ids, values) of a labeled TSV matrix."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    col_ids = tuple(lines[0].split("\t")[1:])
    rows = [line.split("\t") for line in lines[1:] if line]
    values = np.array([[float(v) for v in row[1:]] for row in rows], dtype=float)
    return tuple(row[0] for row in rows), col_ids, values.reshape(len(rows), len(col_ids))


def read_objectives(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    column = lines[0].split("\t").index("objective")
    return np.array([float(line.split("\t")[column]) for line in lines[1:] if line])


def ranking_auc(scores, labels):
    """Rank-sum AUC with tied scores sharing their average rank."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels).astype(bool)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both positive and negative entries")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    average_rank = np.cumsum(counts) - (counts - 1) / 2.0
    ranks = average_rank[inverse]
    return float((ranks[labels].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def reconstruction_rmse(u_mixed, association, z_posterior, basis_mean, noiseless_mean):
    """RMSE of u_mixed . association . (z o basis)^T against the planted mean."""
    recon = u_mixed @ association @ (z_posterior * basis_mean).T
    return float(np.sqrt(np.mean((recon - noiseless_mean) ** 2)))


def output_digest(out_dir):
    """sha256 over the deterministic outputs, in a fixed order."""
    digest = hashlib.sha256()
    for name in DETERMINISTIC:
        digest.update(name.encode())
        digest.update(hashlib.sha256((Path(out_dir) / name).read_bytes()).digest())
    return digest.hexdigest()


def check_fit(out_dir, exit_code, expected_exit, ids: AlignedIds, truth):
    """Returns (problems, quality, digest); the fit failed if problems is
    non-empty, and then quality and digest may be None."""
    out_dir = Path(out_dir)
    if exit_code != expected_exit:
        return [f"exit code {exit_code}, expected {expected_exit}"], None, None
    missing = [name for name in OUTPUTS if not (out_dir / name).is_file()]
    if missing:
        return [f"missing outputs: {', '.join(missing)}"], None, None

    problems = []
    objectives = read_objectives(out_dir / "elbo_trace.tsv")
    drops = np.diff(objectives)
    allowed = -MONOTONE_RTOL * np.maximum(np.abs(objectives[:-1]), 1.0)
    if np.any(drops < allowed):
        problems.append(f"objective decreased by {-float(drops.min()):.3e}")

    matrices = {}
    expected = {
        "association.tsv": (ids.cluster_ids, ids.set_ids),
        "z_posterior.tsv": (ids.feature_ids, ids.set_ids),
        "u_mixed.tsv": (ids.sample_ids, ids.cluster_ids),
        "basis_mean.tsv": (ids.feature_ids, ids.set_ids),
    }
    for name, (rows, cols) in expected.items():
        got_rows, got_cols, values = read_matrix(out_dir / name)
        if (got_rows, got_cols) != (rows, cols):
            problems.append(f"{name}: ids differ from the aligned inputs")
        matrices[name] = values
    ranked_text = (out_dir / "ranked_sets.tsv").read_text(encoding="utf-8")
    ranked = [line.split("\t") for line in ranked_text.splitlines()[1:]]
    if {row[0] for row in ranked} != set(ids.cluster_ids) or not {
        row[2] for row in ranked
    } <= set(ids.set_ids):
        problems.append("ranked_sets.tsv: ids differ from the aligned inputs")
    if problems:
        return problems, None, None

    z = matrices["z_posterior.tsv"]
    assoc = matrices["association.tsv"]
    u = matrices["u_mixed.tsv"]
    if np.any((z < 0) | (z > 1)):
        problems.append("z_posterior outside [0, 1]")
    if np.any(assoc < 0):
        problems.append("negative association")
    if np.any(np.abs(u.sum(axis=1) - 1.0) > ROW_SUM_TOL):
        problems.append("u_mixed rows do not sum to 1")
    if problems:
        return problems, None, None

    hidden = truth.shown == 0
    quality = {
        "objective": float(objectives[-1]),
        "sweeps": len(objectives) - 1,
        "mask_auc": ranking_auc(z[hidden], truth.membership[hidden]),
        "rmse": reconstruction_rmse(
            u, assoc, z, matrices["basis_mean.tsv"], truth.noiseless_mean
        ),
    }
    return [], quality, output_digest(out_dir)
