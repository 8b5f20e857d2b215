import gc
import warnings

import numpy as np
import pytest
from conftest import labeled_graph, render_expression, render_matrix, traced_peak

from pathfact import dataio
from pathfact.dataio import (
    AlignmentError,
    FormatError,
    GeneSet,
    GeneSetCollection,
    LabeledExpression,
    align,
    format_number,
    load_edge_list,
    load_expression,
    load_gmt,
    load_observations,
    parse_edge_list,
    parse_expression,
    parse_gmt,
    parse_labeled_matrix,
    write_edge_list,
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

    def test_label_seen_only_on_a_self_loop_stays_a_node(self):
        with pytest.warns(UserWarning) as caught:
            g = parse_edge_list(["B C\n", "# A A\n", "A A 2\n", "C D\n", "E\tE\n"])
        assert [str(w.message) for w in caught] == [
            "line 3: self-loop on 'A' dropped",
            "line 5: self-loop on 'E' dropped",
        ]
        assert g.node_labels == ("B", "C", "A", "D", "E")
        assert g.edges == {("B", "C"): 1.0, ("C", "D"): 1.0}
        degrees = np.bincount(np.concatenate((g.heads, g.tails)), minlength=g.n_nodes)
        np.testing.assert_array_equal(degrees, [1, 2, 0, 1, 0])

    @pytest.mark.parametrize(
        "lines",
        [
            ["A B 1\n", "C A 5\n", "B A 3\n", "A C 0.5\n"],
            ["B A 3\n", "A C 0.5\n", "A B 1\n", "C A 5\n"],
            ["A C 5\n", "B A 1\n", "A B 3\n", "C A 0.5\n"],
        ],
    )
    def test_pair_in_both_orientations_keeps_its_maximum(self, lines):
        g = parse_edge_list(lines)
        assert g.n_edges == 2
        assert g.edges[("A", "B")] == 3.0 and g.edges[("A", "C")] == 5.0

    def test_repeated_pairs_keep_first_appearance_order(self):
        g = parse_edge_list(["C D 1\n", "B A 2\n", "D C 4\n", "A B 0\n", "B D\n"])
        assert list(g.edges.items()) == [(("C", "D"), 4.0), (("A", "B"), 2.0), (("B", "D"), 1.0)]

    def test_negative_zero_weight_reads_as_zero(self):
        g = parse_edge_list(["A B -0\n", "B C -0.0\n", "C A 0\n", "A C -0\n"])
        assert np.signbit(g.weights).sum() == 0
        assert write_edge_list(g) == "A\tB\t0\nA\tC\t0\nB\tC\t0\n"

    def test_bad_line_is_reported_after_the_warnings_before_it(self):
        with pytest.warns(UserWarning, match="line 1: self-loop"):
            with pytest.raises(FormatError, match=r"^line 2: invalid edge weight 'nan'$"):
                parse_edge_list(["A A\n", "A B nan\n", "A B C D\n"])
        with pytest.raises(FormatError, match=r"^line 2: expected two labels"):
            parse_edge_list(["A B\n", "A B 1 2\n", "A B x\n"])

    def test_graph_is_held_in_arrays_not_per_edge_objects(self):
        """10^4 edges leave fewer than 1,000 objects for the garbage
        collector to track: a dict keyed by label-pair tuples would leave one
        tuple per edge, and its allocations would start collections."""
        rng = np.random.default_rng(3)
        lines = [f"G{a}\tG{b}\t{w}\n" for a, b, w in zip(
            rng.integers(0, 2000, 10_000), rng.integers(2000, 4000, 10_000), rng.random(10_000)
        )]
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            graph = parse_edge_list(lines)
            added = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert graph.n_edges > 9_900
        assert added < 1_000


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

    def test_dropped_samples_leave_the_others_in_order(self):
        matrix = ["s\tG1\tG2\n"] + [f"S{i}\t{i}\t{-i}\n" for i in range(6)]
        with pytest.warns(UserWarning, match="2 sample"):
            out = parse_expression(matrix, [f"S{i}\tk\n" for i in (1, 2, 4, 5)])
        assert out.sample_ids == ("S1", "S2", "S4", "S5")
        np.testing.assert_array_equal(out.matrix, [[1, -1], [2, -2], [4, -4], [5, -5]])

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


def _parse_with(parser, lines, keep=None):
    """The matrix ``parser`` reads from ``lines``; samples S0-S2 are labelled."""
    if parser == "expression":
        return parse_expression(lines, ["S0\tk\n", "S1\tk\n", "S2\tk\n"], keep).matrix
    return parse_labeled_matrix(lines, keep)[2]


def _parse_row_with(parser, row):
    """Parse a header, one good row (line 2) and ``row`` (line 3)."""
    return _parse_with(parser, ["id\tG1\tG2\tG3\n", "S0\t1\t2\t3\n", f"S1\t{row}\n"])


class TestNumericRows:
    """A block of rows is converted by one np.loadtxt call; a block it cannot
    take is read again cell by cell, which gives the values or the error."""

    TOKENS = [
        "1_000", "infinity", "nan", "1e400", "-1e400", "1e-400", "-0", "+.5",
        "0x10", "1d3", "", " 2 ", "\xa01.5", "\u0661\u0662", "\uff11\uff12",
    ]

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

    SEPARATED = [f"{sep}1.5" for sep in "\x1c\x1d\x1e\x1f"] + [
        f"-2{sep}" for sep in "\x1c\x1d\x1e\x1f"
    ]

    @pytest.mark.parametrize("parser", PARSERS)
    @pytest.mark.parametrize("token", TOKENS + SEPARATED)
    def test_block_conversion_agrees_with_float(self, parser, token):
        """The cell of line 3, column G2 is a number exactly when float()
        takes the token and gives a finite value, and then it is that value."""
        expected = _conversion(float, token)
        if expected == "ValueError" or not np.isfinite(np.frombuffer(expected)[0]):
            with pytest.raises(FormatError) as caught:
                _parse_row_with(parser, f"1\t{token}\t3")
            assert caught.value.line == 3
            assert str(caught.value).endswith(" in column 'G2'")
            if token in self.SEPARATED:
                assert str(caught.value) == f"line 3: non-numeric value {token!r} in column 'G2'"
        else:
            matrix = _parse_row_with(parser, f"1\t{token}\t3")
            assert matrix[1, 1].tobytes() == expected
            assert matrix.tobytes() == np.array([[1, 2, 3], [1, matrix[1, 1], 3]]).tobytes()

    @pytest.mark.parametrize("parser", PARSERS)
    def test_empty_rows_of_one_column_warn_nothing(self, parser):
        """np.loadtxt would skip an empty row, and warn when every row is."""
        for tails in (["", ""], ["1", ""]):
            lines = ["id\tG1\n"] + [f"S{i}\t{t}\n" for i, t in enumerate(tails)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(FormatError) as caught:
                    _parse_with(parser, lines)
            assert str(caught.value) == f"line {2 + tails.index('')}: empty cell in column 'G1'"

    def test_block_np_loadtxt_misreads_takes_the_cell_path(self, monkeypatch):
        """A block whose np.loadtxt result has another shape than its rows
        and columns is read cell by cell."""
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda rows, **kwargs: loadtxt(rows[1:], **kwargs))
        matrix = _parse_row_with("labeled_matrix", "4\t5\t6")
        assert matrix.tobytes() == np.array([[1.0, 2, 3], [4, 5, 6]]).tobytes()

    @pytest.mark.parametrize("token", ["1_000", "\u0661\u0662", "\uff11\uff12"])
    def test_spellings_loadtxt_rejects_parse_as_float_does(self, token):
        with pytest.raises(ValueError):
            np.loadtxt([token], delimiter="\t", comments=None, quotechar=None)
        for parser in self.PARSERS:
            matrix = _parse_row_with(parser, f"{token}\t2\t3")
            assert matrix[1].tobytes() == np.array([float(token), 2, 3]).tobytes()

    @pytest.mark.parametrize("parser", PARSERS)
    def test_row_length_is_checked_before_the_rows_cells(self, parser):
        head = ["id\tG1\tG2\tG3\n", "S0\t1\t2\t3\n"]
        for rows, message in [
            (["S1\tabc\t2\n"], "line 3: row for 'S1' has 2 values, expected 3"),
            (
                ["S1\t1\t2\t3\t4\n", "S2\tabc\t2\t3\n"],
                "line 3: row for 'S1' has 4 values, expected 3",
            ),
            (
                ["S1\t1\t2\t3\n", "S2\t1\tabc\t3\n", "S3\t1\n"],
                "line 4: non-numeric value 'abc' in column 'G2'",
            ),
        ]:
            with pytest.raises(FormatError) as caught:
                _parse_with(parser, head + rows)
            assert str(caught.value) == message

    # the largest double rounds up to an overflow at 10 digits
    LARGEST = {"%.17g": 1.7976931348623157e308, "%.10g": 1.797693134e308}

    @pytest.mark.parametrize("number_format", ["%.17g", "%.10g"])
    def test_blocks_give_the_cell_path_bits(self, number_format, monkeypatch):
        """Fuzzed matrices, read a few rows per block, hold the bits that
        _parse_cell gives each cell, and no block takes the cell path."""
        rng = np.random.default_rng(29)
        n, d = 60, 24
        magnitude = rng.uniform(1, 10, size=(n, d)) * 10.0 ** rng.integers(-330, 308, size=(n, d))
        matrix = np.where(rng.random((n, d)) < 0.5, rng.standard_normal((n, d)), magnitude)
        matrix *= rng.choice([-1.0, 1.0], size=(n, d))
        largest = self.LARGEST[number_format]
        specials = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308, -1e-310,
                    2.2250738585072014e-308, largest, -largest]
        matrix[0, : len(specials)] = specials
        cells = [[number_format % v for v in row] for row in matrix]
        expected = np.array([[dataio._parse_cell(c, 0, "G") for c in row] for row in cells])
        lines = ["id\t" + "\t".join(f"G{j}" for j in range(d)) + "\n"] + [
            f"S{i}\t" + "\t".join(row) + "\n" for i, row in enumerate(cells)
        ]

        def cell_path(*args):
            raise AssertionError("a block took the cell path")

        monkeypatch.setattr(dataio, "_BLOCK_CHARS", 2000)
        monkeypatch.setattr(dataio, "_parse_cell", cell_path)
        for keep in (None, {f"G{j}" for j in range(0, d, 3)}):
            _, col_ids, parsed = parse_labeled_matrix(lines, keep)
            cols = [int(c[1:]) for c in col_ids]
            assert parsed.tobytes() == expected[:, cols].tobytes()


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

    @pytest.mark.parametrize("parser", TestNumericRows.PARSERS)
    @pytest.mark.parametrize("keep", [None, {"G1", "G3"}])
    @pytest.mark.parametrize(
        "later, message",
        [
            ("S0\t4\t5\t6\n", "line 5: duplicate row id 'S0'"),
            ("\t4\t5\t6\n", "line 5: missing row id"),
            ("S2\t4\t5\n", "line 5: row for 'S2' has 2 values, expected 3"),
        ],
        ids=["duplicate_row", "missing_row_id", "short_row"],
    )
    def test_errors_come_in_file_order_across_a_block(self, parser, keep, later, message):
        """A bad cell in a block not yet converted is reported before an id
        or length error on a later line, also in a column not kept."""
        lines = ["id\tG1\tG2\tG3\n", "S0\t1\t2\t3\n", "S1\t1\tabc\t3\n", "\n", later]
        assert sum(map(len, lines)) < dataio._BLOCK_CHARS
        with pytest.raises(FormatError) as caught:
            _parse_with(parser, lines, keep)
        assert str(caught.value) == "line 3: non-numeric value 'abc' in column 'G2'"
        lines[2] = "S1\t1\t2\t3\n"
        with pytest.raises(FormatError) as caught:
            _parse_with(parser, lines, keep)
        assert str(caught.value) == message

    def test_header_only_matrix_is_two_dimensional(self):
        row_ids, col_ids, matrix = parse_labeled_matrix(["id\tA\tB\tC\n", "\n"])
        assert row_ids == () and col_ids == ("A", "B", "C")
        assert matrix.shape == (0, 3) and matrix.dtype == float

    HEADER = ["id\tG1\tG2\tG3\n"]

    @pytest.mark.parametrize("keep", [set(), {"G1"}, {"G1", "G3", "G9"}])
    @pytest.mark.parametrize(
        "lines, message",
        [
            (["id\tG1\tG2\t G2 \n"], "line 1: duplicate column id 'G2' in header"),
            (["id\tG1\t\tG3\n"], "line 1: empty column id in header"),
            (HEADER + ["S0\t1\tabc\t3\n"], "line 2: non-numeric value 'abc' in column 'G2'"),
            (HEADER + ["S0\t1\t2\tinf\n"], "line 2: non-finite value 'inf' in column 'G3'"),
            (HEADER + ["S0\t1\t2\n"], "line 2: row for 'S0' has 2 values, expected 3"),
        ],
        ids=["duplicate_column", "empty_column", "non_numeric", "non_finite", "short_row"],
    )
    def test_columns_not_kept_are_still_checked(self, keep, lines, message):
        with pytest.raises(FormatError) as caught:
            parse_labeled_matrix(lines, keep)
        assert str(caught.value) == message

    def test_keep_stores_the_columns_it_names_in_file_order(self):
        lines = ["id\tG1\tG2\tG3\tG4\n", "S0\t1\t2\t3\t4\n", "\n", "S1\t5\t6\t7\t8\n"]
        full = parse_labeled_matrix(lines)
        for keep, cols in [({"G4", "G2", "G9"}, [1, 3]), (set(), []), (set(full[1]), range(4))]:
            row_ids, col_ids, matrix = parse_labeled_matrix(lines, keep)
            assert row_ids == full[0] and col_ids == tuple(full[1][j] for j in cols)
            assert matrix.tobytes() == full[2][:, cols].tobytes()
            assert matrix.flags.c_contiguous

    def test_expression_keeps_parsed_matrix_when_no_sample_dropped(self, monkeypatch):
        parsed = parse_labeled_matrix(TestParseExpression.MATRIX)
        monkeypatch.setattr(
            "pathfact.dataio.parse_labeled_matrix", lambda lines, keep=None: parsed
        )
        out = parse_expression(TestParseExpression.MATRIX, TestParseExpression.LABELS)
        assert out.matrix is parsed[2]


class TestMatrixWriters:
    def test_rows_render_as_format_number(self):
        rng = np.random.default_rng(0)
        specials = [-0.0, 5e-324, 1e308, -1e308, 2.0, 0.1, 0.0, -1e-310, 2.225073858507201e-308]
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
        assert body == "".join(
            rid + "\t" + "\t".join("%.17g" % v for v in row) + "\n"
            for rid, row in zip(row_ids, matrix.tolist())
        )
        header = "\t" + "\t".join(col_ids) + "\n"
        assert render_matrix(row_ids, col_ids, matrix) == "row_id" + header + body
        expr = LabeledExpression(tuple(row_ids), col_ids, matrix, ("k",) * len(row_ids))
        assert render_expression(expr)[0] == "sample_id" + header + body
        # any memory order renders the same
        fortran = np.asfortranarray(matrix)
        assert render_matrix(row_ids, col_ids, fortran) == "row_id" + header + body

    def test_writes_row_by_row(self, tmp_path):
        matrix = np.random.default_rng(6).standard_normal((500, 2000))
        row_ids = [f"S{i}" for i in range(matrix.shape[0])]
        col_ids = [f"G{j}" for j in range(matrix.shape[1])]
        path = tmp_path / "matrix.tsv"

        def write():
            with path.open("w", encoding="utf-8") as handle:
                write_labeled_matrix(handle, row_ids, col_ids, matrix, "sample_id")

        _, peak = traced_peak(write)
        # the whole text is 20 MB; a row's is 40 kB
        assert peak < 1e6
        assert path.read_text() == render_matrix(row_ids, col_ids, matrix, "sample_id")

    def test_single_column_and_non_finite(self):
        assert render_matrix(["a", "b"], ["c"], [[np.nan], [-np.inf]]) == (
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
        m_text, l_text = render_expression(once)
        twice = parse_expression(
            m_text.splitlines(keepends=True), l_text.splitlines(keepends=True)
        )
        np.testing.assert_array_equal(once.matrix, twice.matrix)
        assert once.sample_ids == twice.sample_ids
        assert once.labels == twice.labels
        assert render_expression(twice) == (m_text, l_text)

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
        graph = labeled_graph(("G2", "G3", "G4"), {("G2", "G3"): 1.0})
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
        graph = labeled_graph(expr.feature_ids, {("G1", "G2"): 1.0})
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


class TestMatrixHeldOnce:
    """From file to ObservationSet the expression matrix is held once: the
    parser grows one buffer in place, and align passes the matrix on
    uncopied unless a column drops."""

    def test_load_expression_peak_is_near_one_matrix(self, tmp_path):
        rng = np.random.default_rng(5)
        matrix = rng.standard_normal((400, 1500))
        sample_ids = [f"S{i}" for i in range(matrix.shape[0])]
        feature_ids = [f"G{j}" for j in range(matrix.shape[1])]
        with (tmp_path / "expression.tsv").open("w", encoding="utf-8") as handle:
            write_labeled_matrix(handle, sample_ids, feature_ids, matrix, "sample_id")
        (tmp_path / "labels.tsv").write_text("".join(f"{sid}\tk\n" for sid in sample_ids))
        expr, peak = traced_peak(
            load_expression, tmp_path / "expression.tsv", tmp_path / "labels.tsv"
        )
        np.testing.assert_array_equal(expr.matrix, matrix)
        assert expr.matrix.flags.c_contiguous
        # the buffer grows by an eighth; the slack covers one line's strings
        assert peak <= 1.25 * expr.matrix.nbytes + 1e6

    def test_load_observations_holds_only_the_kept_columns(self, tmp_path):
        """With a tenth of the genes in no set, the parser stores only the
        columns that survive alignment, and the result is what aligning the
        whole parsed matrix gives."""
        rng = np.random.default_rng(6)
        matrix = rng.standard_normal((400, 1500))
        sample_ids = [f"S{i}" for i in range(matrix.shape[0])]
        feature_ids = [f"G{j}" for j in range(matrix.shape[1])]
        kept = [j for j in range(matrix.shape[1]) if j % 10]
        paths = [tmp_path / name for name in ("x.tsv", "labels.tsv", "sets.gmt", "edges.tsv")]
        with paths[0].open("w", encoding="utf-8") as handle:
            write_labeled_matrix(handle, sample_ids, feature_ids, matrix, "sample_id")
        paths[1].write_text("".join(f"{sid}\tk{i % 3}\n" for i, sid in enumerate(sample_ids)))
        paths[2].write_text(
            "".join(
                f"P{p}\td\t" + "\t".join(feature_ids[j] for j in kept[p::30]) + "\n"
                for p in range(30)
            )
        )
        paths[3].write_text("".join(f"{a}\t{b}\n" for a, b in zip(feature_ids, feature_ids[1:])))
        data, peak = traced_peak(load_observations, *paths)
        np.testing.assert_array_equal(data.X, matrix[:, kept])
        assert data.X.flags.c_contiguous
        assert peak <= 1.25 * data.X.nbytes + 1e6
        whole = align(load_expression(*paths[:2]), load_gmt(paths[2]), load_edge_list(paths[3]))
        assert data.X.tobytes() == whole.X.tobytes()
        for field in ("U0", "Z0"):
            assert getattr(data, field).tobytes() == getattr(whole, field).tobytes()
        for field in ("sample_ids", "feature_ids", "cluster_ids", "set_ids"):
            assert getattr(data, field) == getattr(whole, field)
        assert data.graph.edges == whole.graph.edges

    def test_one_loadtxt_call_per_block(self, monkeypatch):
        """Rows are converted a block of text at a time: a return to one
        conversion per row fails."""
        matrix = np.random.default_rng(7).standard_normal((500, 2000))
        text = render_matrix(
            [f"S{i}" for i in range(500)], [f"G{j}" for j in range(2000)], matrix
        )
        blocks = []
        loadtxt = np.loadtxt

        def counted(rows, **kwargs):
            blocks.append(len(rows))
            return loadtxt(rows, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counted)
        parsed = parse_labeled_matrix(text.splitlines(keepends=True))[2]
        assert parsed.tobytes() == matrix.tobytes()
        assert sum(blocks) == 500
        assert len(blocks) <= len(text) // dataio._BLOCK_CHARS + 1

    def test_block_memory_does_not_grow_with_the_columns(self):
        """A block is bounded by its text, not by a number of rows, so at
        20,000 columns it holds one or two rows."""
        matrix = np.random.default_rng(8).standard_normal((16, 20000))
        lines = render_matrix(
            [f"S{i}" for i in range(16)], [f"G{j}" for j in range(20000)], matrix
        ).splitlines(keepends=True)
        (_, _, parsed), peak = traced_peak(parse_labeled_matrix, lines)
        assert parsed.tobytes() == matrix.tobytes()
        # the 6 MB cover a block's 0.4 MB rows, np.loadtxt's 4-byte-per-
        # character copy of one, the copies of the current line and the
        # column ids; all 16 rows in one block peak 10.7 MB above the matrix
        assert peak <= matrix.nbytes + 6e6

    def test_align_passes_the_matrix_on_when_every_column_survives(self):
        expr = LabeledExpression(
            sample_ids=("S1", "S2"),
            feature_ids=("G1", "G2", "G3"),
            matrix=np.arange(6, dtype=float).reshape(2, 3),
            labels=("a", "b"),
        )
        graph = labeled_graph(("G3", "G2", "G1"), {("G1", "G2"): 1.0})
        sets = GeneSetCollection(sets=(GeneSet("P", "d", ("G1", "G2", "G3")),))
        data = align(expr, sets, graph)
        assert data.X is expr.matrix

    def test_align_copies_once_when_a_column_drops(self):
        expr, sets, graph = TestAlign().build()
        with pytest.warns(UserWarning, match="P2"):
            data = align(expr, sets, graph)
        assert not np.shares_memory(data.X, expr.matrix)
        assert data.X.flags.c_contiguous
        np.testing.assert_array_equal(data.X, expr.matrix[:, [1, 2]])


class TestFiniteness:
    """Non-finite entries are found without an N x D array of flags."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_rejected(self, bad):
        matrix = np.ones((3, 4))
        matrix[1, 2] = bad
        with pytest.raises(ValueError, match="^expression matrix contains non-finite values$"):
            LabeledExpression(("a", "b", "c"), ("G1", "G2", "G3", "G4"), matrix, ("k",) * 3)

    def test_extreme_finite_values_accepted(self):
        matrix = np.array([[-1.7976931348623157e308, 1.7976931348623157e308, 5e-324]])
        expr = LabeledExpression(("a",), ("G1", "G2", "G3"), matrix, ("k",))
        assert expr.matrix is not None

    def test_empty_matrix_accepted(self):
        expr = LabeledExpression((), ("G1", "G2"), np.empty((0, 2)), ())
        assert expr.matrix.shape == (0, 2)
