"""Seeded planted-partition inputs for the benchmark, written with numpy only.

The generator deliberately shares no code with ``pathfact.synth`` or the
``pathfact.dataio`` writers: a change to the program must not be able to
change the workload it is measured on.

Features are split into equal disjoint sets and the interaction graph is a
community graph over that partition. A share of the features also belongs
to a second set, and only such features lose their partition membership when
a share of the true memberships is hidden from the curated GMT: a feature
listed in no set leaves the fitted universe at alignment, so its hidden
membership could not be scored, while the partition membership is the one
the graph's communities support. The planted mean is ``U0 S (Z o V)^T`` with
one-hot clusters, and Gaussian noise is added at a fixed signal-to-noise
ratio.
"""

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SNR = 5.0
# the planted mean is rescaled to this variance, so the noise precision
# (SNR / MEAN_VAR) and with it the objective's scale do not vary by seed; at
# this scale the objective is positive, which keeps its relative bound
# meaningful
MEAN_VAR = 0.01
HIDDEN_SHARE = 0.1
SECOND_SET_SHARE = 0.2
P_IN = 0.35
VALUE_FORMAT = "%.10g"


@dataclass(frozen=True)
class Shape:
    """(N, K, D, R): samples, clusters, features, sets."""

    n_samples: int
    n_clusters: int
    n_features: int
    n_sets: int


@dataclass(frozen=True)
class Truth:
    """Planted factors, indexed by the ids written to the input files."""

    sample_ids: tuple
    feature_ids: tuple
    cluster_ids: tuple
    set_ids: tuple
    membership: np.ndarray  # D x R binary
    shown: np.ndarray  # D x R binary, the part written to the GMT
    noiseless_mean: np.ndarray  # N x D


def community_edges(groups, p_in, p_out, rng):
    """Upper-triangle edges (i, j): p_in inside a group, p_out across.

    Nodes left isolated are joined to the next node of their own group, so
    every node appears in the edge list.
    """
    groups = np.asarray(groups)
    d = groups.size
    rows, cols = [], []
    for i in range(d - 1):
        j = np.arange(i + 1, d)
        keep = rng.random(j.size) < np.where(groups[j] == groups[i], p_in, p_out)
        rows.append(np.full(int(keep.sum()), i))
        cols.append(j[keep])
    i_idx = np.concatenate(rows) if rows else np.empty(0, dtype=int)
    j_idx = np.concatenate(cols) if cols else np.empty(0, dtype=int)
    degree = np.bincount(np.concatenate([i_idx, j_idx]), minlength=d)
    extra = []
    for node in np.flatnonzero(degree == 0):
        if degree[node]:
            continue
        mates = np.flatnonzero(groups == groups[node])
        mate = mates[(np.searchsorted(mates, node) + 1) % mates.size]
        if mate == node:
            mate = (node + 1) % d
        extra.append((min(node, mate), max(node, mate)))
        degree[[node, mate]] += 1
    if extra:
        extra_arr = np.asarray(extra, dtype=int)
        i_idx = np.concatenate([i_idx, extra_arr[:, 0]])
        j_idx = np.concatenate([j_idx, extra_arr[:, 1]])
    return i_idx, j_idx


def hide_memberships(z, primary, share, rng):
    """Copy of ``z`` with round(share * ones) primary memberships removed,
    drawn among features that keep another membership, so every feature
    stays in the fitted universe; fewer are removed when fewer qualify."""
    shown = z.copy()
    target = int(round(share * int(z.sum())))
    candidates = np.flatnonzero(z.sum(axis=1) > 1)
    hidden = rng.permutation(candidates)[:target]
    shown[hidden, primary[hidden]] = 0
    return shown


def planted(shape: Shape, seed):
    """Draw one planted dataset from ``seed`` (anything numpy accepts as a
    seed). Returns (files, truth) where ``files`` maps an input name to its
    text."""
    rng = np.random.default_rng(seed)
    n, k, d, r = shape.n_samples, shape.n_clusters, shape.n_features, shape.n_sets
    if d % r or k > n or r < 2:
        raise ValueError(f"unsupported shape {shape}")

    feature_ids = tuple(f"G{j:0{len(str(d - 1))}d}" for j in range(d))
    sample_ids = tuple(f"S{i:0{len(str(n - 1))}d}" for i in range(n))
    cluster_ids = tuple(f"C{c:0{len(str(k - 1))}d}" for c in range(k))
    set_ids = tuple(f"SET{s:0{len(str(r - 1))}d}" for s in range(r))

    primary = rng.permutation(np.arange(d) % r)
    i_idx, j_idx = community_edges(primary, P_IN, min(0.02, 2.0 / d), rng)
    z = np.zeros((d, r), dtype=int)
    z[np.arange(d), primary] = 1
    second = np.flatnonzero(rng.random(d) < SECOND_SET_SHARE)
    z[second, (primary[second] + rng.integers(1, r, size=second.size)) % r] = 1

    s = rng.exponential(1.0, size=(k, r))
    v = rng.normal(0.0, 1.0, size=(d, r))
    u0 = np.zeros((n, k))
    u0[np.arange(n), np.arange(n) % k] = 1.0
    mean = u0 @ s @ (z * v).T
    mean *= np.sqrt(MEAN_VAR / float(mean.var()))
    x = mean + rng.normal(0.0, np.sqrt(MEAN_VAR / SNR), size=(n, d))
    shown = hide_memberships(z, primary, HIDDEN_SHARE, rng)

    row_format = "%s" + ("\t" + VALUE_FORMAT) * d + "\n"
    expression = "sample_id\t" + "\t".join(feature_ids) + "\n" + "".join(
        row_format % (sid, *row) for sid, row in zip(sample_ids, x.tolist())
    )
    labels = "".join(f"{sid}\t{cluster_ids[i % k]}\n" for i, sid in enumerate(sample_ids))
    gmt = "".join(
        f"{set_ids[c]}\tplanted set {c}\t"
        + "\t".join(feature_ids[j] for j in np.flatnonzero(shown[:, c]))
        + "\n"
        for c in range(r)
    )
    edges = "".join(f"{feature_ids[a]}\t{feature_ids[b]}\n" for a, b in zip(i_idx, j_idx))
    files = {
        "expression.tsv": expression,
        "labels.tsv": labels,
        "sets.gmt": gmt,
        "edges.tsv": edges,
    }
    truth = Truth(
        sample_ids=sample_ids,
        feature_ids=feature_ids,
        cluster_ids=cluster_ids,
        set_ids=set_ids,
        membership=z,
        shown=shown,
        noiseless_mean=mean,
    )
    return files, truth


def write_inputs(files, directory):
    """Write the input texts; returns {name: {"bytes": n, "sha256": hex}}."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    record = {}
    for name, text in files.items():
        data = text.encode("utf-8")
        (directory / name).write_bytes(data)
        record[name] = {"bytes": len(data), "sha256": hashlib.sha256(data).hexdigest()}
    return record
