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
from .model import ObservationSet


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
        if not np.all(np.isfinite(self.matrix)):
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

    Self-loops are dropped with a warning; repeated edges keep the maximum
    weight. Node order is first appearance.
    """
    nodes = []
    seen = set()
    edges = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (2, 3):
            raise FormatError(
                f"expected two labels and an optional weight, got {len(fields)} fields",
                line=lineno,
            )
        a, b = fields[0].strip(), fields[1].strip()
        weight = 1.0
        if len(fields) == 3:
            try:
                weight = float(fields[2])
            except ValueError:
                raise FormatError(f"non-numeric edge weight {fields[2]!r}", line=lineno)
            if not np.isfinite(weight) or weight < 0:
                raise FormatError(f"invalid edge weight {fields[2]!r}", line=lineno)
        for label in (a, b):
            if label not in seen:
                seen.add(label)
                nodes.append(label)
        if a == b:
            warnings.warn(f"line {lineno}: self-loop on {a!r} dropped")
            continue
        key = (a, b) if a <= b else (b, a)
        edges[key] = max(edges.get(key, 0.0), weight)
    return InteractionGraph(node_labels=tuple(nodes), edges=edges)


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


def _parse_row(tokens, lineno, column_names):
    """The row's cells as a float array, converted in one numpy call.

    numpy converts each string as ``float()`` does, so :func:`_parse_cell`
    accepts every row numpy accepts, with the same values. Any other row,
    or one holding a non-finite value, is read again cell by cell: that
    gives the values :func:`_parse_cell` gives, or its error naming the
    first bad cell's line and column.
    """
    try:
        row = np.array(tokens, dtype=float)
    except ValueError:
        pass
    else:
        if np.isfinite(row).all():
            return row
    return np.array(
        [_parse_cell(tok, lineno, column_names[c]) for c, tok in enumerate(tokens)],
        dtype=float,
    )


def parse_expression(matrix_lines, label_lines) -> LabeledExpression:
    """Parse the expression matrix (see :func:`parse_labeled_matrix`) and the
    sample-label TSV together. Samples without a label are dropped with a
    warning."""
    sample_ids, feature_ids, matrix = parse_labeled_matrix(matrix_lines)

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
        matrix = matrix[keep]
    if not sample_ids:
        raise FormatError("no labelled samples remain")
    return LabeledExpression(
        sample_ids=sample_ids,
        feature_ids=feature_ids,
        matrix=matrix,
        labels=tuple(label_map[sid] for sid in sample_ids),
    )


def write_expression(expr: LabeledExpression):
    """Canonical matrix and label TSVs; returns (matrix_text, label_text)."""
    matrix = write_labeled_matrix(expr.sample_ids, expr.feature_ids, expr.matrix, "sample_id")
    labels = "".join(f"{sid}\t{lab}\n" for sid, lab in zip(expr.sample_ids, expr.labels))
    return matrix, labels


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
    col_of = {f: i for i, f in enumerate(expr.feature_ids)}
    x = expr.matrix[:, [col_of[f] for f in universe]]

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


def write_labeled_matrix(row_ids, col_ids, matrix, corner="row_id") -> str:
    """Labeled TSV with 17-significant-digit values (round-trips exactly):
    each value as :func:`format_number` renders it, through one ``%``
    template per matrix."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (len(row_ids), len(col_ids)):
        raise ValueError("matrix shape does not match label lists")
    template = "\t".join([_NUMBER] * matrix.shape[1])
    return f"{corner}\t" + "\t".join(col_ids) + "\n" + "".join(
        f"{rid}\t{template % tuple(row)}\n" for rid, row in zip(row_ids, matrix.tolist())
    )


def parse_labeled_matrix(lines):
    """Inverse of :func:`write_labeled_matrix`: (row_ids, col_ids, matrix).

    Blank lines are skipped. Ids are trimmed; there must be at least one
    column, and no id may be empty or repeat among the columns or among
    the rows. A ragged row or a bad cell is an error naming its line.
    """
    col_ids = None
    rows = {}  # row id -> values, in file order
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        if col_ids is None:
            col_ids = tuple(f.strip() for f in fields[1:])
            if not col_ids:
                raise FormatError("header row declares no columns", line=lineno)
            seen = set()
            for col in col_ids:
                if not col:
                    raise FormatError("empty column id in header", line=lineno)
                if col in seen:
                    raise FormatError(f"duplicate column id {col!r} in header", line=lineno)
                seen.add(col)
            continue
        row_id = fields[0].strip()
        if not row_id:
            raise FormatError("missing row id", line=lineno)
        if row_id in rows:
            raise FormatError(f"duplicate row id {row_id!r}", line=lineno)
        if len(fields) != len(col_ids) + 1:
            raise FormatError(
                f"row for {row_id!r} has {len(fields) - 1} values, expected {len(col_ids)}",
                line=lineno,
            )
        rows[row_id] = _parse_row(fields[1:], lineno, col_ids)
    if col_ids is None:
        raise FormatError("empty matrix file")
    matrix = np.asarray(list(rows.values()), dtype=float).reshape(len(rows), len(col_ids))
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


def load_expression(matrix_path, labels_path) -> LabeledExpression:
    with open(matrix_path, encoding="utf-8") as mh, open(labels_path, encoding="utf-8") as lh:
        return parse_expression(mh, lh)
