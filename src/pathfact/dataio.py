"""Parsing, validation, alignment and canonical serialization of inputs.

Formats:
  - gene sets: GMT, tab separated: set_id, description, member labels
  - interactions: edge list, whitespace separated, optional weight, '#' comments
  - labeled matrix: TSV with a header row of a corner cell and the column ids,
    then one row id and one value per column on each row; used by the
    expression matrix (sample rows, feature columns) and every fit and truth
    matrix
  - labels: two-column TSV of sample_id, cluster_label

Feature identity is exact string match after trimming surrounding
whitespace; no case folding or alias resolution happens here.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .graph import InteractionGraph
from .model import ObservationSet, all_finite


class DataError(Exception):
    """Base class for input-data failures."""


class FormatError(DataError):
    """Malformed input; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class AlignmentError(DataError):
    """The three data sources share no usable features."""


_NUMBER = "%.17g"


def format_number(x) -> str:
    """Canonical 17-significant-digit rendering used by every writer."""
    return _NUMBER % float(x)


@dataclass(frozen=True)
class GeneSet:
    set_id: str
    description: str
    members: tuple


@dataclass(frozen=True)
class GeneSetCollection:
    sets: tuple

    def __post_init__(self):
        ids = [s.set_id for s in self.sets]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate set identifiers")
        for s in self.sets:
            if not s.members:
                raise ValueError(f"set {s.set_id!r} has no members")

    @property
    def set_ids(self):
        return tuple(s.set_id for s in self.sets)

    def member_union(self):
        out = set()
        for s in self.sets:
            out.update(s.members)
        return out


@dataclass(frozen=True)
class LabeledExpression:
    sample_ids: tuple
    feature_ids: tuple
    matrix: np.ndarray
    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=float))
        if len(set(self.sample_ids)) != len(self.sample_ids):
            raise ValueError("duplicate sample identifiers")
        if len(set(self.feature_ids)) != len(self.feature_ids):
            raise ValueError("duplicate feature identifiers")
        if self.matrix.shape != (len(self.sample_ids), len(self.feature_ids)):
            raise ValueError("matrix shape does not match identifier lists")
        if len(self.labels) != len(self.sample_ids):
            raise ValueError("one cluster label required per sample")
        if not all_finite(self.matrix):
            raise ValueError("expression matrix contains non-finite values")


def parse_gmt(lines) -> GeneSetCollection:
    """Parse GMT text: one set per line, tab separated, >= 1 member.

    Duplicate members within a line are dropped with a warning; an empty or
    duplicate set id is an error.
    """
    sets = []
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        while fields and not fields[-1].strip():
            fields.pop()
        if len(fields) < 3:
            raise FormatError(
                f"expected set_id, description and at least one member, got {len(fields)} fields",
                line=lineno,
            )
        set_id = fields[0].strip()
        if not set_id:
            raise FormatError("empty set id", line=lineno)
        description = fields[1].strip()
        members = []
        listed = set()
        dupes = 0
        for token in fields[2:]:
            member = token.strip()
            if not member:
                continue
            if member in listed:
                dupes += 1
                continue
            listed.add(member)
            members.append(member)
        if not members:
            raise FormatError(f"set {set_id!r} has no members", line=lineno)
        if dupes:
            warnings.warn(
                f"line {lineno}: set {set_id!r} lists {dupes} duplicate member(s); deduplicated"
            )
        if set_id in seen:
            raise FormatError(f"duplicate set id {set_id!r}", line=lineno)
        seen.add(set_id)
        sets.append(GeneSet(set_id=set_id, description=description, members=tuple(members)))
    return GeneSetCollection(sets=tuple(sets))


def write_gmt(collection: GeneSetCollection) -> str:
    return "".join(
        "\t".join((s.set_id, s.description) + s.members) + "\n" for s in collection.sets
    )


def parse_edge_list(lines) -> InteractionGraph:
    """Parse an undirected edge list; '#' lines are comments.

    Self-loops are dropped with a warning, but their labels stay nodes;
    repeated edges keep the maximum weight. Node order is first appearance.
    One pass over the lines collects the labels and weights, which numpy
    then indexes and merges.
    """
    ends = []  # both labels of each edge line, in file order
    weights = []
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) == 2:
            weight = 1.0
        elif len(fields) == 3:
            try:
                weight = float(fields[2]) + 0.0  # -0.0 reads as 0.0
            except ValueError:
                raise FormatError(f"non-numeric edge weight {fields[2]!r}", line=lineno)
            if not 0 <= weight < np.inf:  # NaN fails both
                raise FormatError(f"invalid edge weight {fields[2]!r}", line=lineno)
        else:
            raise FormatError(
                f"expected two labels and an optional weight, got {len(fields)} fields",
                line=lineno,
            )
        if fields[0] == fields[1]:
            warnings.warn(f"line {lineno}: self-loop on {fields[0]!r} dropped")
        ends += fields[:2]
        weights.append(weight)
    nodes = tuple(dict.fromkeys(ends))
    index = dict(zip(nodes, range(len(nodes))))
    pairs = np.fromiter(map(index.__getitem__, ends), np.intp, len(ends)).reshape(-1, 2)
    kept = pairs[:, 0] != pairs[:, 1]
    return InteractionGraph(nodes, pairs[kept, 0], pairs[kept, 1], np.array(weights)[kept])


def write_edge_list(graph: InteractionGraph) -> str:
    lines = [
        f"{a}\t{b}\t{format_number(w)}\n" for (a, b), w in sorted(graph.edges.items())
    ]
    return "".join(lines)


# what float() strips around a number: every str.isspace() character (all
# lie below U+3001) but the separators \x1c-\x1f
_FLOAT_SPACE = "".join(
    c for c in map(chr, range(0x3001)) if c.isspace() and c not in "\x1c\x1d\x1e\x1f"
)


def _parse_cell(token, lineno, column_name):
    text = token.strip(_FLOAT_SPACE)
    if not text:
        raise FormatError(f"empty cell in column {column_name!r}", line=lineno)
    try:
        value = float(text)
    except ValueError:
        raise FormatError(f"non-numeric value {text!r} in column {column_name!r}", line=lineno)
    if not np.isfinite(value):
        raise FormatError(f"non-finite value {text!r} in column {column_name!r}", line=lineno)
    return value


# a block of rows goes to np.loadtxt once it holds this many characters of
# values: bounded by text, not rows, so its memory does not grow with the
# number of columns. Parse speed is flat from 128 KiB to 1 MiB.
_BLOCK_CHARS = 1 << 18
# np.loadtxt strips these around a number; float() rejects them
_SEPARATORS = "\x1c\x1d\x1e\x1f"


def _parse_block(tails, linenos, row_ids, column_names):
    """The rows' values as one float array; ``tails`` holds each row's text
    after its id.

    One ``np.loadtxt`` call converts the block. It reads a cell as
    ``float()`` does, but strips the ``_SEPARATORS`` around a number and
    rejects some spellings that ``float()`` takes, such as ``1_000``. So a
    block holding a separator, one that call rejects or reads into another
    shape, or one with a non-finite value is read again row by row, in file
    order. A row with another number of values than columns is an error;
    its cells are read one by one. That gives the values :func:`_parse_cell`
    gives, or its error naming the first bad cell's line and column.
    """
    # np.loadtxt skips an empty row, and warns when every row is empty
    if "" not in tails and not any(sep in tail for tail in tails for sep in _SEPARATORS):
        try:
            values = np.loadtxt(
                tails, delimiter="\t", dtype=float, ndmin=2, comments=None, quotechar=None
            )
        except ValueError:
            pass
        else:
            if values.shape == (len(tails), len(column_names)) and all_finite(values):
                return values
    values = np.empty((len(tails), len(column_names)))
    for r, (tail, lineno, row_id) in enumerate(zip(tails, linenos, row_ids)):
        tokens = tail.split("\t")
        if len(tokens) != len(column_names):
            raise FormatError(
                f"row for {row_id!r} has {len(tokens)} values, expected {len(column_names)}",
                line=lineno,
            )
        values[r] = [_parse_cell(tok, lineno, column_names[c]) for c, tok in enumerate(tokens)]
    return values


def parse_expression(matrix_lines, label_lines, keep=None) -> LabeledExpression:
    """Parse the expression matrix (see :func:`parse_labeled_matrix`, which
    reads ``keep``) and the sample-label TSV together. Samples without a
    label are dropped with a warning."""
    sample_ids, feature_ids, matrix = parse_labeled_matrix(matrix_lines, keep)

    label_map = {}
    for lineno, raw in enumerate(label_lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        fields = [f.strip() for f in line.split("\t")]
        if len(fields) != 2 or not fields[0] or not fields[1]:
            raise FormatError("expected sample_id<TAB>cluster_label", line=lineno)
        if fields[0] in label_map:
            raise FormatError(f"duplicate label for sample {fields[0]!r}", line=lineno)
        label_map[fields[0]] = fields[1]

    dropped = [sid for sid in sample_ids if sid not in label_map]
    if dropped:
        names = ", ".join(dropped[:5])
        warnings.warn(f"{len(dropped)} sample(s) missing cluster labels dropped: {names}")
        keep = [i for i, sid in enumerate(sample_ids) if sid in label_map]
        sample_ids = tuple(sample_ids[i] for i in keep)
        for row, kept in enumerate(keep):  # compacted in place: rows only move up
            matrix[row] = matrix[kept]
        matrix.resize((len(keep), len(feature_ids)), refcheck=False)
    if not sample_ids:
        raise FormatError("no labelled samples remain")
    return LabeledExpression(
        sample_ids=sample_ids,
        feature_ids=feature_ids,
        matrix=matrix,
        labels=tuple(label_map[sid] for sid in sample_ids),
    )


def write_expression(expr: LabeledExpression, matrix_out, labels_out):
    """Write the canonical matrix and label TSVs to two text handles."""
    write_labeled_matrix(matrix_out, expr.sample_ids, expr.feature_ids, expr.matrix, "sample_id")
    labels_out.writelines(f"{sid}\t{lab}\n" for sid, lab in zip(expr.sample_ids, expr.labels))


def align(
    expr: LabeledExpression, sets: GeneSetCollection, graph: InteractionGraph
) -> ObservationSet:
    """Intersect the three feature universes and assemble an ObservationSet.

    The surviving feature order is the expression column order. Sets left
    empty by the intersection are dropped (with a warning). Cluster columns
    follow sorted label order.
    """
    set_members = sets.member_union()
    graph_nodes = set(graph.node_labels)
    universe = tuple(
        f for f in expr.feature_ids if f in set_members and f in graph_nodes
    )
    if not universe:
        raise AlignmentError(
            "no features shared by expression matrix, gene sets and interaction graph"
        )
    if len(universe) == len(expr.feature_ids):  # every column kept, in order
        x = expr.matrix
    else:
        col_of = {f: i for i, f in enumerate(expr.feature_ids)}
        x = expr.matrix.take([col_of[f] for f in universe], axis=1)

    index = {f: j for j, f in enumerate(universe)}
    kept_sets = []
    for s in sets.sets:
        members = [m for m in s.members if m in index]
        if members:
            kept_sets.append((s.set_id, members))
        else:
            warnings.warn(f"set {s.set_id!r} has no members after alignment; dropped")
    if not kept_sets:
        raise AlignmentError("every gene set is empty after alignment")
    z0 = np.zeros((len(universe), len(kept_sets)), dtype=int)
    for r, (_, members) in enumerate(kept_sets):
        for m in members:
            z0[index[m], r] = 1

    cluster_ids = tuple(sorted(set(expr.labels)))
    cluster_col = {c: k for k, c in enumerate(cluster_ids)}
    u0 = np.zeros((len(expr.sample_ids), len(cluster_ids)))
    for i, label in enumerate(expr.labels):
        u0[i, cluster_col[label]] = 1.0

    return ObservationSet(
        X=x,
        U0=u0,
        Z0=z0,
        graph=graph.subgraph(universe),
        sample_ids=expr.sample_ids,
        feature_ids=universe,
        cluster_ids=cluster_ids,
        set_ids=tuple(set_id for set_id, _ in kept_sets),
    )


def write_labeled_matrix(out, row_ids, col_ids, matrix, corner="row_id"):
    """Write a labeled TSV to the text handle ``out``, a row at a time, with
    17-significant-digit values (round-trips exactly): each value as
    :func:`format_number` renders it, through one ``%`` template per matrix."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (len(row_ids), len(col_ids)):
        raise ValueError("matrix shape does not match label lists")
    template = "\t".join([_NUMBER] * matrix.shape[1])
    out.write(f"{corner}\t" + "\t".join(col_ids) + "\n")
    for rid, row in zip(row_ids, matrix):
        out.write(f"{rid}\t{template % tuple(row.tolist())}\n")


def _parse_header(line, lineno, keep):
    """The column ids, and the stored columns' positions when ``keep`` does
    not hold every id (else None)."""
    col_ids = tuple(f.strip() for f in line.split("\t")[1:])
    if not col_ids:
        raise FormatError("header row declares no columns", line=lineno)
    seen = set()
    for col in col_ids:
        if not col:
            raise FormatError("empty column id in header", line=lineno)
        if col in seen:
            raise FormatError(f"duplicate column id {col!r} in header", line=lineno)
        seen.add(col)
    stored = [j for j, col in enumerate(col_ids) if keep is None or col in keep]
    if len(stored) == len(col_ids):
        return col_ids, None
    return col_ids, np.array(stored, dtype=np.intp)


def parse_labeled_matrix(lines, keep=None):
    """Inverse of :func:`write_labeled_matrix`: (row_ids, col_ids, matrix).

    Blank lines are skipped. Ids are trimmed; there must be at least one
    column, and no id may be empty or repeat among the columns or among
    the rows. A ragged row or a bad cell is an error naming its line; errors
    come in file order. With ``keep``, a set of ids, only the columns whose
    id it holds are stored and returned, in file order; every id and cell is
    still checked. Rows are converted a block at a time (:func:`_parse_block`).
    """
    col_ids = None
    take = None  # the stored columns' positions, when some column is not stored
    rows = {}  # row id -> its row of ``matrix``, in file order
    matrix = None
    tails, linenos, ids = [], [], []  # the rows not yet converted: values text, line, id
    chars = 0

    def store():
        """Convert the pending rows into the last rows of ``matrix``."""
        if not tails:
            return
        values = _parse_block(tails, linenos, ids, col_ids)
        end = len(rows)
        if end > len(matrix):
            # grows by an eighth in place: realloc moves the pages of a large
            # buffer instead of copying them, so the file's values are held once
            grown = max(end, len(matrix) + len(matrix) // 8 + 8)
            matrix.resize((grown, matrix.shape[1]), refcheck=False)
        matrix[end - len(tails) : end] = values if take is None else values[:, take]
        tails.clear()
        linenos.clear()
        ids.clear()

    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        if col_ids is None:
            col_ids, take = _parse_header(line, lineno, keep)
            matrix = np.empty((0, len(col_ids) if take is None else len(take)))
            continue
        row_id, tab, tail = line.partition("\t")
        row_id = row_id.strip()
        # the row length is checked where a block is read row by row
        if not row_id or row_id in rows or not tab:
            store()  # a bad cell on an earlier line is reported first
            if not row_id:
                raise FormatError("missing row id", line=lineno)
            if row_id in rows:
                raise FormatError(f"duplicate row id {row_id!r}", line=lineno)
            raise FormatError(
                f"row for {row_id!r} has 0 values, expected {len(col_ids)}", line=lineno
            )
        rows[row_id] = len(rows)
        tails.append(tail)
        linenos.append(lineno)
        ids.append(row_id)
        chars += len(tail)
        if chars >= _BLOCK_CHARS:
            store()
            chars = 0
    if col_ids is None:
        raise FormatError("empty matrix file")
    store()
    matrix.resize((len(rows), matrix.shape[1]), refcheck=False)
    if take is not None:
        col_ids = tuple(col_ids[j] for j in take)
    return tuple(rows), col_ids, matrix


def load_labeled_matrix(path):
    with open(path, encoding="utf-8") as handle:
        return parse_labeled_matrix(handle)


def load_gmt(path) -> GeneSetCollection:
    with open(path, encoding="utf-8") as handle:
        return parse_gmt(handle)


def load_edge_list(path) -> InteractionGraph:
    with open(path, encoding="utf-8") as handle:
        return parse_edge_list(handle)


def load_expression(matrix_path, labels_path, keep=None) -> LabeledExpression:
    with open(matrix_path, encoding="utf-8") as mh, open(labels_path, encoding="utf-8") as lh:
        return parse_expression(mh, lh, keep)


def load_observations(matrix_path, labels_path, gmt_path, edges_path) -> ObservationSet:
    """Load and :func:`align` the four input files. The gene sets and the
    graph are read first, so that the expression parser stores only the
    columns both of them name: X is held once even when columns drop."""
    sets = load_gmt(gmt_path)
    graph = load_edge_list(edges_path)
    keep = sets.member_union().intersection(graph.node_labels)
    return align(load_expression(matrix_path, labels_path, keep), sets, graph)
