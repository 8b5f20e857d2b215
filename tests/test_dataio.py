import warnings

import numpy as np
import pytest

from pathfact.dataio import (
    AlignmentError,
    FormatError,
    GeneSet,
    GeneSetCollection,
    LabeledExpression,
    align,
    format_number,
    parse_edge_list,
    parse_expression,
    parse_gmt,
    parse_labeled_matrix,
    write_edge_list,
    write_expression,
    write_gmt,
    write_labeled_matrix,
)
from pathfact.graph import InteractionGraph


class TestParseGmt:
    def test_basic(self):
        out = parse_gmt(["PWAY_A\tdesc\tG1\tG2\n"])
        assert out.set_ids == ("PWAY_A",)
        assert out.sets[0].members == ("G1", "G2")
        assert out.sets[0].description == "desc"

    def test_duplicate_member_warns_and_dedups(self):
        with pytest.warns(UserWarning, match="duplicate member"):
            out = parse_gmt(["PWAY_A\tdesc\tG1\tG1\n"])
        assert out.sets[0].members == ("G1",)

    def test_large_set_dedups_in_first_appearance_order(self):
        rng = np.random.default_rng(0)
        unique = [f"G{i}" for i in rng.permutation(5000)]
        repeats = [unique[i] for i in rng.integers(0, 5000, size=300)]
        tokens = list(unique)
        for position, member in zip(sorted(rng.integers(0, 5000, size=300)), repeats):
            tokens.insert(position, member)
        first = list(dict.fromkeys(tokens))
        with pytest.warns(UserWarning) as caught:
            out = parse_gmt(["", "BIG\tdesc\t" + "\t".join(tokens) + "\n"])
        assert out.sets[0].members == tuple(first)
        assert [str(w.message) for w in caught] == [
            f"line 2: set 'BIG' lists {len(tokens) - len(first)} duplicate member(s); "
            "deduplicated"
        ]

    def test_two_lines_preserve_order(self):
        out = parse_gmt(["B\td\tG1\n", "A\td\tG2\n"])
        assert out.set_ids == ("B", "A")

    def test_trailing_empty_fields_ignored(self):
        out = parse_gmt(["P\tdesc\tG1\t\t\n"])
        assert out.sets[0].members == ("G1",)

    def test_too_few_fields(self):
        with pytest.raises(FormatError, match="line 2"):
            parse_gmt(["P\tdesc\tG1\n", "Q\tdesc\n"])

    def test_duplicate_set_id(self):
        with pytest.raises(FormatError, match="duplicate set id"):
            parse_gmt(["P\td\tG1\n", "P\td\tG2\n"])

    def test_blank_lines_skipped(self):
        out = parse_gmt(["\n", "P\td\tG1\n", "   \n"])
        assert out.set_ids == ("P",)

    def test_empty_set_id(self):
        """A blank id would become an empty column id in every fit matrix,
        which no reader accepts."""
        with pytest.raises(FormatError, match=r"^line 2: empty set id$"):
            parse_gmt(["P\td\tG1\n", " \td\tG2\n"])


class TestParseEdgeList:
    def test_path_graph(self):
        g = parse_edge_list(["A B\n", "B C\n"])
        assert g.node_labels == ("A", "B", "C")
        assert g.n_edges == 2

    def test_self_loop_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="self-loop"):
            g = parse_edge_list(["A A\n"])
        assert g.n_edges == 0
        assert g.node_labels == ("A",)

    def test_duplicate_edge_keeps_max_weight(self):
        g = parse_edge_list(["A B 2.0\n", "B A 1.0\n"])
        assert g.edges == {("A", "B"): 2.0}

    def test_comments_and_blanks(self):
        g = parse_edge_list(["# header\n", "\n", "A B\n"])
        assert g.n_edges == 1

    def test_non_numeric_weight(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_edge_list(["A B heavy\n"])

    def test_wrong_field_count(self):
        with pytest.raises(FormatError, match="line 1"):
            parse_edge_list(["A\n"])

    def test_default_weight_is_one(self):
        g = parse_edge_list(["A B\n"])
        assert g.edges[("A", "B")] == 1.0


class TestParseExpression:
    MATRIX = ["sample_id\tG1\tG2\n", "S1\t0.5\t-1.25\n", "S2\t2\t3\n"]
    LABELS = ["S1\tbrca\n", "S2\tluad\n"]

    def test_well_formed(self):
        out = parse_expression(self.MATRIX, self.LABELS)
        assert out.sample_ids == ("S1", "S2")
        assert out.feature_ids == ("G1", "G2")
        np.testing.assert_array_equal(out.matrix, [[0.5, -1.25], [2.0, 3.0]])
        assert out.labels == ("brca", "luad")

    def test_ragged_row_errors_with_coordinates(self):
        with pytest.raises(FormatError, match="line 3"):
            parse_expression(["s\tG1\tG2\n", "S1\t1\t2\n", "S2\t1\n"], self.LABELS)

    def test_bad_cell_names_column(self):
        with pytest.raises(FormatError, match="G2"):
            parse_expression(["s\tG1\tG2\n", "S1\t1\t\n"], self.LABELS)
        with pytest.raises(FormatError, match="G1"):
            parse_expression(["s\tG1\tG2\n", "S1\tnan\t2\n"], self.LABELS)

    def test_missing_label_drops_sample_with_warning(self):
        with pytest.warns(UserWarning, match="missing cluster labels"):
            out = parse_expression(self.MATRIX, ["S1\tbrca\n"])
        assert out.sample_ids == ("S1",)
        assert out.matrix.shape == (1, 2)

    def test_duplicate_sample_row(self):
        with pytest.raises(FormatError) as caught:
            parse_expression(
                ["s\tG1\n", "S1\t1\n", "S1\t2\n"], ["S1\tx\n"]
            )
        assert str(caught.value) == "line 3: duplicate row id 'S1'"
        assert caught.value.line == 3

    def test_duplicate_label_line(self):
        with pytest.raises(FormatError, match="duplicate label"):
            parse_expression(self.MATRIX, ["S1\ta\n", "S1\tb\n"])

    def test_unknown_labels_ignored(self):
        out = parse_expression(self.MATRIX, self.LABELS + ["S9\tx\n"])
        assert out.sample_ids == ("S1", "S2")


def _conversion(convert, token):
    """The float's bytes, or "ValueError" when the conversion rejects the token."""
    try:
        return np.float64(convert(token)).tobytes()
    except ValueError:
        return "ValueError"


def _parse_with(parser, lines):
    """The matrix ``parser`` reads from ``lines``; samples S0-S2 are labelled."""
    if parser == "expression":
        return parse_expression(lines, ["S0\tk\n", "S1\tk\n", "S2\tk\n"]).matrix
    return parse_labeled_matrix(lines)[2]


def _parse_row_with(parser, row):
    """Parse a header, one good row (line 2) and ``row`` (line 3)."""
    return _parse_with(parser, ["id\tG1\tG2\tG3\n", "S0\t1\t2\t3\n", f"S1\t{row}\n"])


class TestNumericRows:
    """Rows are converted by one numpy call; a row it cannot take is read
    again cell by cell, which gives the values or the error."""

    @pytest.mark.parametrize(
        "token",
        [
            "1_000", "infinity", "nan", "1e400", "-1e400", "1e-400", "-0", "+.5",
            "0x10", "1d3", "", " 2 ", "\xa01.5", "\u0661\u0662", "\uff11\uff12",
        ],
    )
    def test_numpy_conversion_agrees_with_float(self, token):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            by_numpy = _conversion(lambda t: np.array([t], dtype=float)[0], token)
        assert by_numpy == _conversion(float, token)

    PARSERS = ["expression", "labeled_matrix"]

    @pytest.mark.parametrize("parser", PARSERS)
    @pytest.mark.parametrize(
        "row, message",
        [
            ("1\t\t3", "empty cell in column 'G2'"),
            ("1\t \t3", "empty cell in column 'G2'"),
            ("1\tabc\t3", "non-numeric value 'abc' in column 'G2'"),
            ("1\t x y \t3", "non-numeric value 'x y' in column 'G2'"),
            ("1\t2\tnan", "non-finite value 'nan' in column 'G3'"),
            ("1\t2\tinf", "non-finite value 'inf' in column 'G3'"),
            ("1\t2\t-1e400", "non-finite value '-1e400' in column 'G3'"),
            ("1e400\t2\t3", "non-finite value '1e400' in column 'G1'"),
            ("nan\tabc\t3", "non-finite value 'nan' in column 'G1'"),
            ("1\tinf\t", "non-finite value 'inf' in column 'G2'"),
            ("abc\tnan\t3", "non-numeric value 'abc' in column 'G1'"),
            ("1\tx\ty", "non-numeric value 'x' in column 'G2'"),
        ],
    )
    def test_bad_cell_message(self, parser, row, message):
        with pytest.raises(FormatError) as caught:
            _parse_row_with(parser, row)
        assert str(caught.value) == "line 3: " + message
        assert caught.value.line == 3

    @pytest.mark.parametrize("parser", PARSERS)
    def test_float_spellings_parse_as_before(self, parser):
        matrix = _parse_row_with(parser, "1_000\t\u0661\u0662\t\u3000-0 ")
        expected = np.array([[1.0, 2.0, 3.0], [1000.0, 12.0, -0.0]])
        assert matrix.tobytes() == expected.tobytes()
        # str.strip() removes the \x1c-\x1f separators and float() does
        # not, so a cell is a number only where float() accepts it
        for sep in "\x1c\x1d\x1e\x1f":
            with pytest.raises(ValueError):
                float(sep + "-0")
            with pytest.raises(FormatError) as caught:
                _parse_row_with(parser, f"1_000\t{sep}-0\t3")
            assert str(caught.value) == f"line 3: non-numeric value {sep + '-0'!r} in column 'G2'"
            assert caught.value.line == 3


class TestLabeledMatrixIds:
    """Every labeled matrix, the expression matrix among them, follows one
    set of id rules, each broken rule an error naming its line."""

    @pytest.mark.parametrize("parser", TestNumericRows.PARSERS)
    @pytest.mark.parametrize(
        "lines, message",
        [
            (["\n", "id\n", "S0\n"], "line 2: header row declares no columns"),
            (["id\tG1\t\tG3\n", "S0\t1\t2\t3\n"], "line 1: empty column id in header"),
            (["id\tG1\t \n", "S0\t1\t2\n"], "line 1: empty column id in header"),
            (
                ["id\tG1\tG2\t G1 \n", "S0\t1\t2\t3\n"],
                "line 1: duplicate column id 'G1' in header",
            ),
            (["id\tG1\n", "S0\t1\n", "\t2\n"], "line 3: missing row id"),
            (["id\tG1\n", "S0\t1\n", "\n", " S0\t2\n"], "line 4: duplicate row id 'S0'"),
            (
                ["id\tG1\tG2\n", "S0\t1\t2\t3\n"],
                "line 2: row for 'S0' has 3 values, expected 2",
            ),
            (["id\tG1\tG2\n", "S0\n"], "line 2: row for 'S0' has 0 values, expected 2"),
            (["\n", " \n"], "empty matrix file"),
        ],
        ids=[
            "no_columns", "empty_column", "blank_column", "duplicate_column",
            "missing_row_id", "duplicate_row", "long_row", "bare_row_id", "empty_file",
        ],
    )
    def test_id_rule_message(self, parser, lines, message):
        with pytest.raises(FormatError) as caught:
            _parse_with(parser, lines)
        assert str(caught.value) == message

    def test_header_only_matrix_is_two_dimensional(self):
        row_ids, col_ids, matrix = parse_labeled_matrix(["id\tA\tB\tC\n", "\n"])
        assert row_ids == () and col_ids == ("A", "B", "C")
        assert matrix.shape == (0, 3) and matrix.dtype == float

    def test_expression_keeps_parsed_matrix_when_no_sample_dropped(self, monkeypatch):
        parsed = parse_labeled_matrix(TestParseExpression.MATRIX)
        monkeypatch.setattr(
            "pathfact.dataio.parse_labeled_matrix", lambda lines: parsed
        )
        out = parse_expression(TestParseExpression.MATRIX, TestParseExpression.LABELS)
        assert out.matrix is parsed[2]


class TestMatrixWriters:
    def test_rows_render_as_format_number(self):
        rng = np.random.default_rng(0)
        specials = [-0.0, 5e-324, 1e308, 2.0, 0.1, 0.0, -1e-310, 1.0 / 3.0]
        matrix = np.concatenate(
            [np.array([specials]), rng.standard_normal((40, len(specials)))]
        )
        row_ids = [f"S{i}" for i in range(matrix.shape[0])]
        col_ids = tuple(f"G{j}" for j in range(matrix.shape[1]))
        # the rendering every writer has used: format() at 17 digits
        body = "".join(
            rid + "\t" + "\t".join(format(float(v), ".17g") for v in row) + "\n"
            for rid, row in zip(row_ids, matrix)
        )
        assert all(format_number(v) == format(float(v), ".17g") for v in matrix.ravel())
        header = "\t" + "\t".join(col_ids) + "\n"
        assert write_labeled_matrix(row_ids, col_ids, matrix) == "row_id" + header + body
        expr = LabeledExpression(tuple(row_ids), col_ids, matrix, ("k",) * len(row_ids))
        assert write_expression(expr)[0] == "sample_id" + header + body

    def test_single_column_and_non_finite(self):
        assert write_labeled_matrix(["a", "b"], ["c"], [[np.nan], [-np.inf]]) == (
            "row_id\tc\na\tnan\nb\t-inf\n"
        )


class TestRoundTrips:
    def test_gmt_round_trip(self):
        text = "P1\tfirst\tG1\tG2\nP2\tsecond\tG3\n"
        once = parse_gmt(text.splitlines(keepends=True))
        serialized = write_gmt(once)
        twice = parse_gmt(serialized.splitlines(keepends=True))
        assert once == twice
        assert write_gmt(twice) == serialized

    def test_edge_list_round_trip(self):
        text = "A B 2\nB C\n"
        once = parse_edge_list(text.splitlines(keepends=True))
        serialized = write_edge_list(once)
        twice = parse_edge_list(serialized.splitlines(keepends=True))
        assert once.edges == twice.edges
        assert set(once.node_labels) == set(twice.node_labels)
        assert write_edge_list(twice) == serialized

    def test_expression_round_trip(self):
        matrix = ["sample_id\tG1\tG2\n", "S1\t0.1234567890123456\t-2\n"]
        labels = ["S1\tk\n"]
        once = parse_expression(matrix, labels)
        m_text, l_text = write_expression(once)
        twice = parse_expression(
            m_text.splitlines(keepends=True), l_text.splitlines(keepends=True)
        )
        np.testing.assert_array_equal(once.matrix, twice.matrix)
        assert once.sample_ids == twice.sample_ids
        assert once.labels == twice.labels
        assert write_expression(twice) == (m_text, l_text)

    def test_fuzzed_round_trips(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n_sets = int(rng.integers(1, 5))
            used = set()
            lines = []
            for s in range(n_sets):
                members = [f"G{int(rng.integers(0, 30)):02d}" for _ in range(int(rng.integers(1, 6)))]
                members = list(dict.fromkeys(members))
                lines.append(f"SET{s}\tdesc {s}\t" + "\t".join(members) + "\n")
            once = parse_gmt(lines)
            assert parse_gmt(write_gmt(once).splitlines(keepends=True)) == once


class TestAlign:
    def build(self):
        expr = LabeledExpression(
            sample_ids=("S1", "S2", "S3"),
            feature_ids=("G1", "G2", "G3"),
            matrix=np.arange(9, dtype=float).reshape(3, 3),
            labels=("b", "a", "b"),
        )
        sets = GeneSetCollection(
            sets=(
                GeneSet("P1", "d", ("G2", "G3")),
                GeneSet("P2", "d", ("G4",)),
            )
        )
        graph = InteractionGraph(
            node_labels=("G2", "G3", "G4"), edges={("G2", "G3"): 1.0}
        )
        return expr, sets, graph

    def test_intersection_and_dropped_set(self):
        expr, sets, graph = self.build()
        with pytest.warns(UserWarning, match="P2"):
            data = align(expr, sets, graph)
        assert data.feature_ids == ("G2", "G3")
        assert data.set_ids == ("P1",)
        assert data.n_features == 2
        np.testing.assert_array_equal(data.X, expr.matrix[:, [1, 2]])
        np.testing.assert_array_equal(data.Z0, [[1], [1]])

    def test_cluster_columns_sorted(self):
        expr, sets, graph = self.build()
        with pytest.warns(UserWarning):
            data = align(expr, sets, graph)
        assert data.cluster_ids == ("a", "b")
        np.testing.assert_array_equal(data.U0, [[0, 1], [1, 0], [0, 1]])

    def test_identical_universe_no_warning(self):
        expr = LabeledExpression(
            sample_ids=("S1",),
            feature_ids=("G1", "G2", "G3", "G4", "G5"),
            matrix=np.ones((1, 5)),
            labels=("x",),
        )
        sets = GeneSetCollection(sets=(GeneSet("P", "d", ("G1", "G2", "G3", "G4", "G5")),))
        graph = InteractionGraph(node_labels=expr.feature_ids, edges={("G1", "G2"): 1.0})
        import warnings as w

        with w.catch_warnings():
            w.simplefilter("error")
            data = align(expr, sets, graph)
        assert data.n_features == 5

    def test_empty_intersection_fatal(self):
        expr, sets, _ = self.build()
        graph = InteractionGraph(node_labels=("G9",))
        with pytest.raises(AlignmentError):
            align(expr, sets, graph)

    def test_idempotent(self):
        expr, sets, graph = self.build()
        with pytest.warns(UserWarning):
            data = align(expr, sets, graph)
        expr2 = LabeledExpression(
            sample_ids=data.sample_ids,
            feature_ids=data.feature_ids,
            matrix=data.X,
            labels=tuple(
                data.cluster_ids[int(np.argmax(row))] for row in data.U0
            ),
        )
        sets2 = GeneSetCollection(
            sets=tuple(
                GeneSet(
                    sid,
                    "d",
                    tuple(
                        data.feature_ids[j]
                        for j in range(data.n_features)
                        if data.Z0[j, r]
                    ),
                )
                for r, sid in enumerate(data.set_ids)
            )
        )
        data2 = align(expr2, sets2, data.graph)
        np.testing.assert_array_equal(data.X, data2.X)
        np.testing.assert_array_equal(data.Z0, data2.Z0)
        np.testing.assert_array_equal(data.U0, data2.U0)
        assert data.feature_ids == data2.feature_ids
        assert data.graph.edges == data2.graph.edges

    def test_feature_order_single_source(self):
        expr, sets, graph = self.build()
        with pytest.warns(UserWarning):
            data = align(expr, sets, graph)
        assert data.graph.node_labels == data.feature_ids
