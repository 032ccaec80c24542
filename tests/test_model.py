"""Polytope construction, parsing, residuals, interior search."""

import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_interior_point, random_polytope, random_unit
from polycenter import (
    InteriorSearchError,
    LineSection,
    NotInteriorError,
    Polytope,
    PolytopeFormatError,
    TraceRecord,
    bi_center,
    bi_point_on_axis,
    cs_step,
    directional_sum,
    f_norm,
    f_vector,
    find_interior_point,
    harmonic_center,
    harmonic_hyperplane,
    harmonic_point_on_line,
    parse_polytope,
    residuals,
    section,
    solve_harmonic_offset,
)
from polycenter.lines import line_bracket
from polycenter.model import (
    _ZERO_ROW_TOL,
    INTERIOR_BUDGET,
    PARALLEL_EPS,
    SLACK_FLOOR,
    _axis_line,
    normalize_rows,
)

SQUARE_TEXT = """\
# unit square
dims 4 2
-1 0 0
0 -1 0
1 0 1
0 1 1
"""

SLANTED_TEXT = """\
dims 7 2
1.5 -1 8
0.2 1 8.4
-5 -1 -10
-4 1 1
0.5 -1 2
-1 0 0 x_nonneg
0 -1 0 y_nonneg
"""


class TestParse:
    def test_unit_square(self):
        poly = parse_polytope(SQUARE_TEXT)
        assert (poly.m, poly.n) == (4, 2)
        assert repr(poly) == "Polytope(m=4, n=2)"
        norms = np.linalg.norm(poly.A, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-12

    def test_seven_row_fixture(self):
        poly = parse_polytope(SLANTED_TEXT)
        assert (poly.m, poly.n) == (7, 2)
        assert poly.labels[5] == "x_nonneg"
        assert poly.labels[0] == "c1"

    def test_zero_row_rejected(self):
        text = "dims 3 2\n0 0 5\n1 0 1\n0 1 1\n"
        with pytest.raises(PolytopeFormatError, match="line 2.*zero"):
            parse_polytope(text)

    def test_m_not_greater_than_n(self):
        with pytest.raises(PolytopeFormatError, match="m=2 <= n=2"):
            parse_polytope("dims 2 2\n1 0 1\n0 1 1\n")

    def test_bad_header(self):
        with pytest.raises(PolytopeFormatError, match="line 1"):
            parse_polytope("size 4 2\n")
        for text, match in (
            ("dims 0 2\n", "line 1: dims must be positive"),
            ("dims a b\n", "line 1: dims header takes two integers"),
            ("# no header\n\n", "missing 'dims <m> <n>' header"),
        ):
            with pytest.raises(PolytopeFormatError, match=match):
                parse_polytope(text)

    def test_non_numeric_field(self):
        with pytest.raises(PolytopeFormatError, match="line 3: could not convert"):
            parse_polytope("dims 3 2\n1 0 1\n0 one 1\n-1 -1 0\n")

    def test_wrong_field_count(self):
        with pytest.raises(PolytopeFormatError, match="line 2.*fields"):
            parse_polytope("dims 3 2\n1 0\n0 1 1\n-1 -1 0\n")

    def test_numeric_trailing_token_rejected(self):
        with pytest.raises(PolytopeFormatError, match="line 2"):
            parse_polytope("dims 3 2\n1 0 1 7\n0 1 1\n-1 -1 0\n")

    def test_missing_rows(self):
        with pytest.raises(PolytopeFormatError, match="expected 4"):
            parse_polytope("dims 4 2\n1 0 1\n0 1 1\n-1 0 0\n")

    def test_extra_rows(self):
        text = SQUARE_TEXT + "1 1 9\n"
        with pytest.raises(PolytopeFormatError, match="extra data"):
            parse_polytope(text)

    def test_scientific_notation_and_comments(self):
        text = "# c\n\ndims 3 2\n1e0 0 1.0e0\n# mid comment\n0 1E0 1\n-1 -1 0\n"
        poly = parse_polytope(text)
        assert poly.m == 3

    def test_rows_are_read_only(self):
        poly = parse_polytope(SQUARE_TEXT)
        with pytest.raises(ValueError):
            poly.A[0, 0] = 5.0
        # and so is the axis-line table derived from them
        for line in poly.axis_lines:
            for array in (line.rows, line.g):
                with pytest.raises(ValueError):
                    array[0] = 1
            with pytest.raises(AttributeError):
                line.ahead = 0


class TestPolytopeInvariants:
    def test_m_le_n_rejected_at_construction(self):
        with pytest.raises(PolytopeFormatError):
            Polytope(np.array([[1.0, 0.0]]), np.array([1.0]))

    def test_zero_row_rejected_at_construction(self):
        A = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(PolytopeFormatError):
            Polytope(A, np.array([1.0, 1.0, 1.0]))

    def test_non_finite_rejected_at_construction(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(PolytopeFormatError, match="non-finite"):
                Polytope(A, np.array([1.0, bad, 0.0]))
            A_bad = A.copy()
            A_bad[1, 0] = bad
            with pytest.raises(PolytopeFormatError, match="non-finite"):
                Polytope(A_bad, np.array([1.0, 1.0, 0.0]))
        for rhs in ("nan", "inf"):
            with pytest.raises(PolytopeFormatError, match="line 4: non-finite"):
                parse_polytope(f"dims 4 2\n-1 0 0\n0 -1 0\n1 0 {rhs}\n0 1 1\n")
        # a coefficient, and a literal that overflows to inf
        for row in ("nan -1 0", "0 -1e400 0"):
            with pytest.raises(PolytopeFormatError, match="line 3: non-finite"):
                parse_polytope(f"dims 4 2\n-1 0 0\n{row}\n1 0 1\n0 1 1\n")

    def test_construction_makes_no_second_copy(self):
        # the row rule sums squares row by row and the rows are divided by
        # their norms in place, so the copy of A is the only m x n array
        # made (with np.linalg.norm's row norms: 2.02x; with the quotient
        # taken into a second array: 2.05x)
        rng = np.random.default_rng(17)
        A = rng.normal(size=(1000, 200))
        b = rng.uniform(1, 2, 1000)
        tracemalloc.start()
        try:
            Polytope(A, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * A.nbytes

    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_rows_are_unit_at_any_scale(self, n):
        # each row (A_i, b_i) scaled by 10**U(-11, 150): a smaller norm is
        # a zero row (_ZERO_ROW_TOL), and a larger one's squares can overflow
        rng = np.random.default_rng([61, n])
        # the rounding of n squares' sum, its root, the scaling and the
        # quotient, in each of the two polytopes compared
        rel = (n + 4) * 2.0**-53
        for _ in range(5):
            unit, anchor = random_polytope(rng, n, extra=2 * n)
            scales = 10.0 ** rng.uniform(-11.0, 150.0, size=unit.m)
            poly = Polytope(unit.A * scales[:, None], unit.b * scales)
            assert np.abs(np.linalg.norm(poly.A, axis=1) - 1.0).max() <= 1e-15
            assert (np.abs(poly.A - unit.A) <= rel * np.abs(unit.A)).all()
            assert (np.abs(poly.b - unit.b) <= rel * np.abs(unit.b)).all()
            # no distance at an interior point is +-0, which line_bracket
            # has no branch for
            p = random_interior_point(rng, poly, anchor)
            s = residuals(poly, p)
            for line in poly.axis_lines:
                assert line_bracket(line, s)[0].all()
            for _ in range(3):
                assert section(poly, p, random_unit(rng, n)).finite_distances.all()
        # nor at the smallest interior slack: a box whose every slack at
        # the origin is one ulp above the floor, its rows scaled by powers
        # of two, so that the quotients are exact
        s_min = float(np.nextafter(SLACK_FLOOR, 1.0))
        scales = 2.0 ** rng.integers(0, 500, size=2 * n)
        A = np.vstack([np.eye(n), -np.eye(n)]) * scales[:, None]
        box = Polytope(A, s_min * scales)
        p = np.zeros(n)
        assert residuals(box, p).tolist() == [s_min] * (2 * n)
        for line in box.axis_lines:
            assert line_bracket(line, residuals(box, p))[0].all()
        assert section(box, p, random_unit(rng, n)).finite_distances.all()

    def test_rhs_length_mismatch(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        with pytest.raises(PolytopeFormatError):
            Polytope(A, np.array([1.0, 1.0]))
        # so must the labels, when given
        with pytest.raises(PolytopeFormatError, match="^2 labels for 3 constraints$"):
            Polytope(A, np.array([1.0, 1.0, 0.0]), labels=["a", "b"])

    def test_none_label_names_its_row_by_index(self):
        # a None label stays None, so the row is named c<i + 1>, not "None";
        # every other label is its str
        A = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        poly = Polytope(A, [1.0, 0.0, 1.0, 0.0], labels=[None, "left", None, "bottom"])
        assert poly.labels == (None, "left", None, "bottom")
        labels = Polytope(A, poly.b, labels=[1, 2, None, 4.5]).labels
        assert labels == ("1", "2", None, "4.5")
        with pytest.raises(NotInteriorError) as exc:
            section(poly, (1.0, 1.0), (1.0, 0.0))
        assert str(exc.value) == "point is not strictly interior (rows: c1, c3)"

    def test_matrix_shape(self):
        with pytest.raises(PolytopeFormatError, match="two-dimensional"):
            Polytope(np.ones(3), np.ones(3))
        with pytest.raises(PolytopeFormatError, match="at least 1"):
            Polytope(np.ones((3, 0)), np.ones(3))

    @pytest.mark.parametrize(
        "make",
        [
            lambda A: A,
            np.asfortranarray,
            lambda A: A.astype(int),
            lambda A: A.tolist(),
        ],
        ids=["C-order", "F-order", "int", "list"],
    )
    def test_column_major_read_only_copy(self, make):
        given = make(np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -2.0]]))
        poly = Polytope(given, [1.0, 1.0, 0.0])
        assert poly.A.flags.f_contiguous and not poly.A.flags.writeable
        assert poly.A.dtype == np.float64
        # the rows, each divided by its norm
        want = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -2.0]])
        assert np.array_equal(poly.A, want / np.sqrt([[1.0], [1.0], [5.0]]))
        if isinstance(given, np.ndarray):
            assert not np.shares_memory(poly.A, given)


NON_FINITE, ZERO = "non-finite entry", "zero coefficient row"


class TestRowRule:
    """One rule for every row, wherever it is checked: a non-finite entry
    first, then a norm at most ``_ZERO_ROW_TOL``.  The row goes in at
    index 1 of a triangle, which is line 3 of its file."""

    BASE = [((-1.0, 0.0), 1.0), ((0.0, -1.0), 1.0), ((1.0, 1.0), 1.0)]

    def _rows(self, row, rhs):
        rows = self.BASE[:1] + [(row, rhs)] + self.BASE[1:]
        A = np.array([r for r, _ in rows])
        b = np.array([c for _, c in rows])
        text = "dims 4 2\n" + "".join(
            f"{r[0]!r} {r[1]!r} {c!r}\n" for r, c in rows
        )
        return A, b, text

    # (row, rhs, error, found in the quotient rather than the raw rows)
    @pytest.mark.parametrize(
        "row, rhs, error, on_normalize",
        [
            ((0.0, 0.0), 1.0, ZERO, False),
            ((0.0, 1e-300), 1.0, ZERO, False),
            ((math.nan, 1.0), 1.0, NON_FINITE, False),
            ((1.0, -math.inf), 1.0, NON_FINITE, False),
            ((1.0, 1.0), math.nan, NON_FINITE, False),
            ((1.0, 1.0), math.inf, NON_FINITE, False),
            # a zero row with a non-finite right-hand side: non-finite first
            ((0.0, 0.0), math.nan, NON_FINITE, False),
            ((0.0, 0.0), -math.inf, NON_FINITE, False),
            # the norm overflows, so the normalized row is zero
            ((1e200, 1e200), 1.0, ZERO, True),
            # the norm is tiny, so the normalized right-hand side overflows
            ((1e-11, -1e-11), 1e300, NON_FINITE, True),
            ((_ZERO_ROW_TOL, 0.0), 1.0, ZERO, False),
            ((float(np.nextafter(_ZERO_ROW_TOL, 0.0)), 0.0), 1.0, ZERO, False),
        ],
    )
    def test_same_error_everywhere(self, row, rhs, error, on_normalize):
        A, b, text = self._rows(row, rhs)
        at = " in row at index 1" if error == NON_FINITE else " at index 1"
        # one check of the rows and their quotients by the row norms, under
        # its own error state: Polytope names the index, the parser the line
        with pytest.raises(PolytopeFormatError) as lib:
            Polytope(A, b)
        with pytest.raises(PolytopeFormatError) as parsed:
            parse_polytope(text)
        assert str(lib.value) == error + at
        assert str(parsed.value) == f"line 3: {error}"
        # a row bad only in its quotient is finite, with a norm above the
        # threshold, as written
        written = np.isfinite([*row, rhs]).all() and math.hypot(*row) > _ZERO_ROW_TOL
        assert written == on_normalize

    @pytest.mark.parametrize(
        "row, error",
        [("1e200 1e200 1", ZERO), ("1e-11 -1e-11 1e300", NON_FINITE)],
    )
    def test_quotient_error_names_its_line(self, row, error):
        # a norm that overflows leaves a zero row, and a tiny one overflows
        # b_i: the parse names the file line, Polytope the index
        text = f"dims 5 2\n-1 0 0\n0 -1 0\n{row}\n1 0 1\n0 1 1\n"
        with pytest.raises(PolytopeFormatError) as parsed:
            parse_polytope(text)
        assert str(parsed.value) == f"line 4: {error}"
        values = np.array([line.split() for line in text.splitlines()[1:]], float)
        at = " in row at index" if error == NON_FINITE else " at index"
        with pytest.raises(PolytopeFormatError) as lib:
            Polytope(values[:, :2], values[:, 2])
        assert str(lib.value) == f"{error}{at} 2"

    def test_row_errors_come_before_the_labels_count(self):
        # every row error, one found in a quotient too, before a labels count
        # that differs from m
        A = [[1.0, 0.0], [1e200, 1e200], [0.0, 1.0], [-1.0, -1.0]]
        with pytest.raises(PolytopeFormatError) as exc:
            Polytope(A, [1.0, 1.0, 1.0, 1.0], labels=["a"])
        assert str(exc.value) == "zero coefficient row at index 1"

    def test_one_ulp_above_the_threshold_is_kept(self):
        A, b, text = self._rows((float(np.nextafter(_ZERO_ROW_TOL, 1.0)), 0.0), 1.0)
        poly = Polytope(A, b)
        assert np.array_equal(poly.A, parse_polytope(text).A)
        assert poly.A[1, 0] == 1.0

    def test_first_bad_line_wins(self):
        # a zero row on line 2 comes before a non-finite one on line 3;
        # Polytope names the same row, the first bad one in row order
        text = "dims 4 2\n0 0 1\nnan 1 1\n1 0 1\n0 1 1\n"
        with pytest.raises(PolytopeFormatError, match="^line 2: zero"):
            parse_polytope(text)
        with pytest.raises(PolytopeFormatError) as exc:
            Polytope([[0, 0], [math.nan, 1], [1, 0], [0, 1]], [1, 1, 1, 1])
        assert str(exc.value) == "zero coefficient row at index 0"


class TestParseErrorOrder:
    """The first error in the file wins: reading stops at the first syntax
    or value error, and a bad row on an earlier line is reported before
    it."""

    @pytest.mark.parametrize(
        "body, message",
        [
            # a zero row before a value error on a later line, and the reverse
            ("0 0 1\n1 x 1\n1 0 1\n0 1 1\n", "line 2: zero coefficient row"),
            (
                "1 x 1\n0 0 1\n1 0 1\n0 1 1\n",
                "line 2: could not convert string to float: 'x'",
            ),
            # comments and blank lines between rows count as file lines
            ("# c\n\nnan 0 1\n\n1 x 1\n1 0 1\n0 1 1\n", "line 4: non-finite entry"),
            # a row error before a later syntax error, and the reverse
            ("0 0 nan\n1 0\n1 0 1\n0 1 1\n", "line 2: non-finite entry"),
            # a row bad only in its quotient before a later syntax error
            ("1e200 1e200 1\n1 x 1\n1 0 1\n0 1 1\n", "line 2: zero coefficient row"),
            ("1e-11 -1e-11 1e300\n1 0\n1 0 1\n0 1 1\n", "line 2: non-finite entry"),
            ("1 0\n0 0 nan\n1 0 1\n0 1 1\n", "line 2: row has 2 fields, expected 3"),
            (
                "1 0 1 7\n0 0 1\n1 0 1\n0 1 1\n",
                "line 2: row has 4 numbers, expected 2 coefficients "
                "and one right-hand side",
            ),
            # a row error before extra data, and extra data alone
            ("-1 0 0\n0 -1 0\n0 0 1\n1 1 1\n5 5 5\n", "line 4: zero coefficient row"),
            (
                "-1 0 0\n0 -1 0\n1 0 1\n1 1 1\n5 5 5\n",
                "line 6: extra data after 4 constraint rows",
            ),
            # a row error before too few rows, and too few rows alone
            ("-1 0 0\n0 -1 0\n1 1 inf\n", "line 4: non-finite entry"),
            ("-1 0 0\n0 -1 0\n1 1 1\n", "expected 4 constraint rows, found 3"),
        ],
    )
    def test_first_error_in_the_file_wins(self, body, message):
        with pytest.raises(PolytopeFormatError) as exc:
            parse_polytope("dims 4 2\n" + body)
        assert str(exc.value) == message

    def test_same_floats_as_the_rows_written(self):
        # each row written with repr, so that the parse gives its floats back
        rng = np.random.default_rng(2000)
        m, n = 2000, 20
        A = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-5, 5, size=(m, 1))
        b = rng.uniform(1, 2, m) * 10.0 ** rng.uniform(-5, 5, m)
        names = [f"row_{i}" if i % 3 == 0 else f"c{i + 1}" for i in range(m)]
        text = ["# seeded rows\n", f"dims {m} {n}\n"]
        for i in range(m):
            if i % 7 == 0:
                text.append("\n# a comment\n")
            label = f" {names[i]}" if i % 3 == 0 else ""
            row = A[i].tolist() + [b[i].item()]
            text.append(" ".join(map(repr, row)) + label + "\n")
        parsed = parse_polytope("".join(text))
        want = Polytope(A, b, names)
        assert np.array_equal(parsed.A, want.A)
        assert np.array_equal(parsed.b, want.b)
        assert parsed.labels == want.labels


# Every function that reads the slacks of a point, called at ``p``.
SLACK_READERS = {
    "section": lambda poly, p: section(poly, p, (1.0, 0.0)),
    "f_vector": f_vector,
    "f_norm": f_norm,
    "directional_sum": lambda poly, p: directional_sum(poly, p, (1.0, 0.0)),
    "harmonic_hyperplane": harmonic_hyperplane,
    # the harmonic point of the axis-1 line, the one-axis update
    "harmonic_point_on_axis": lambda poly, p: harmonic_point_on_line(
        poly, p, (1.0, 0.0)
    ),
    "bi_point_on_axis": lambda poly, p: bi_point_on_axis(poly, p, 1),
    "cs_step": cs_step,
    "harmonic_center": harmonic_center,
    "bi_center": bi_center,
}

# A polytope that passes the row rule, whose first slack at the origin is
# the subnormal 1e-310 / sqrt(2): the projection search used to stop there
SUBNORMAL_SLACK_TEXT = "dims 4 2\n1 1 1e-310\n-1 0 1e308\n0 -1 1\n1 -1 1\n"


class TestSlackFloor:
    """One rule for a usable point, wherever it is read: every slack above
    ``SLACK_FLOOR``, so that every reciprocal slack is finite.  Row c1 is
    ``(1, 0)`` with right-hand side ``rhs``, so its slack at x = 0 is
    ``rhs``."""

    @staticmethod
    def _poly(rhs):
        A = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]
        return Polytope(A, [rhs, 1.0, 1.0, 1.0])

    def test_floor_is_where_the_reciprocal_overflows(self):
        above = float(np.nextafter(SLACK_FLOOR, 1.0))
        with np.errstate(over="ignore"):
            assert np.isinf(np.reciprocal(SLACK_FLOOR))
        assert np.isfinite(np.reciprocal(above))

    @pytest.mark.parametrize("reader", SLACK_READERS)
    def test_at_the_floor_every_reader_rejects(self, reader):
        poly = self._poly(SLACK_FLOOR)
        assert residuals(poly, (0.0, 0.0))[0] == SLACK_FLOOR
        with pytest.raises(NotInteriorError) as exc:
            SLACK_READERS[reader](poly, (0.0, 0.0))
        assert str(exc.value) == "point is not strictly interior (rows: c1)"

    @pytest.mark.parametrize("reader", SLACK_READERS)
    def test_one_ulp_above_every_reader_accepts(self, reader):
        poly = self._poly(float(np.nextafter(SLACK_FLOOR, 1.0)))
        assert residuals(poly, (0.0, 0.0))[0] > SLACK_FLOOR
        # 1 / s is finite, but its square and sums of such may overflow
        with np.errstate(over="ignore"):
            SLACK_READERS[reader](poly, (0.0, 0.0))

    def test_auto_start_projects_past_a_subnormal_slack(self):
        poly = parse_polytope(SUBNORMAL_SLACK_TEXT)
        assert 0.0 < residuals(poly, (0.0, 0.0))[0] <= SLACK_FLOOR
        p = find_interior_point(poly)
        assert residuals(poly, p).min() > SLACK_FLOOR
        for reader in SLACK_READERS.values():
            reader(poly, p)
        hp = harmonic_hyperplane(poly, p)
        assert np.isfinite(f_vector(poly, p)).all()
        assert np.isfinite(hp.normal).all() and math.isfinite(hp.offset)


class TestAxisLines:
    @staticmethod
    def _polytopes(square, simplex, example1, example2):
        polys = [square, simplex, example1, example2]
        for n in (1, 2, 10, 33, 100):
            rng = np.random.default_rng([41, n])
            polys.append(random_polytope(rng, n, extra=2 * n)[0])
        # rows with entries on both sides of the threshold
        polys.append(
            Polytope(
                np.array([[1.0, 1e-12], [-1.0, -2e-12], [3.0, -1e-13], [0.0, 1.0]]),
                np.ones(4),
            )
        )
        return polys

    def test_entries_match_columns(self, square, simplex, example1, example2):
        for poly in self._polytopes(square, simplex, example1, example2):
            assert len(poly.axis_lines) == poly.n
            for k, (rows, g, ahead) in enumerate(poly.axis_lines):
                column = poly.A[:, k]
                # every row the axis line meets, exactly once
                want = np.flatnonzero(np.abs(column) > 1e-12)
                assert len(rows) == len(want)
                assert np.array_equal(np.sort(rows), want)
                assert np.array_equal(g, column[rows])
                # the rows ahead (positive coefficient), then those behind,
                # each in increasing row order
                assert np.all(g[:ahead] > 0.0) and np.all(g[ahead:] < 0.0)
                assert np.all(np.diff(rows[:ahead]) > 0)
                assert np.all(np.diff(rows[ahead:]) > 0)

    def test_two_words_per_nonzero(self, square, simplex, example1, example2):
        # each axis owns its rows and coefficients and keeps nothing else
        for poly in self._polytopes(square, simplex, example1, example2):
            nonzeros = np.count_nonzero(np.abs(poly.A) > 1e-12)
            arrays = [a for line in poly.axis_lines for a in (line.rows, line.g)]
            assert all(array.base is None for array in arrays)
            assert sum(array.nbytes for array in arrays) == 16 * nonzeros

    def test_read_only_and_disjoint(self, example2):
        # both arrays of every axis are read-only and overlap neither A nor
        # any other array of the table
        arrays = [a for line in example2.axis_lines for a in (line.rows, line.g)]
        assert len(arrays) == 2 * example2.n
        for i, array in enumerate(arrays):
            assert not array.flags.writeable
            assert not np.shares_memory(array, example2.A)
            for other in arrays[i + 1 :]:
                assert not np.shares_memory(array, other)

    @pytest.mark.parametrize(
        "column",
        [
            # exact zeros of both signs
            [0.0, 1.0, -2.0, 0.0, 3.0, -0.0, -4.0, 0.0],
            # at, just inside and just beyond +-PARALLEL_EPS
            [PARALLEL_EPS, -PARALLEL_EPS, 2e-12, -2e-12, 5e-13, 1.0, -1.0, 1.1e-12],
            # one sign only
            [1.0, 2.0, 0.0, 3.0],
            [-1.0, 0.0, -2.0, -1e-13],
            # meets no row
            [0.0, -0.0, 1e-13],
        ],
    )
    def test_matches_ahead_first_construction(self, column):
        column = np.array(column)
        kept = np.flatnonzero(np.abs(column) > PARALLEL_EPS)
        # positive coefficients, then negative, each group in row order
        rows = kept[np.argsort(np.signbit(column[kept]), kind="stable")]
        g = column[rows]
        line = _axis_line(column)
        assert line.rows.dtype == rows.dtype
        assert line.rows.tobytes() == rows.tobytes()
        assert line.g.tobytes() == g.tobytes()
        assert type(line.ahead) is int
        assert line.ahead == np.count_nonzero(g > 0.0)

    def test_built_once_per_polytope(self, example2):
        poly = Polytope(example2.A, example2.b)
        assert "axis_lines" not in vars(poly)
        harmonic_center(poly, (1.0, 2.0, 2.5, 1.3))
        table = poly.axis_lines
        bi_center(poly, (1.0, 2.0, 2.5, 1.3))
        harmonic_center(poly, (1.5, 2.5, 3.0, 1.5))
        assert poly.axis_lines is table


class TestNormalizeRows:
    def test_three_four_five(self):
        poly = Polytope(
            np.array([[3.0, 4.0], [1.0, 0.0], [0.0, 1.0]]),
            np.array([10.0, 1.0, 1.0]),
        )
        out = normalize_rows(poly)
        assert np.allclose(out.A[0], [0.6, 0.8], atol=1e-15)
        assert out.b[0] == pytest.approx(2.0, abs=1e-15)

    def test_unit_row_unchanged(self):
        poly = Polytope(
            np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]),
            np.array([1.0, 1.0, 0.0]),
        )
        out = normalize_rows(poly)
        assert np.array_equal(out.A[0], poly.A[0])
        assert out.b[0] == poly.b[0]

    def test_slanted_row(self):
        # independent recomputation: divide by the row norm sqrt(1.5^2 + 1)
        scale = math.sqrt(3.25)
        poly = parse_polytope(SLANTED_TEXT)
        assert poly.A[0, 0] == pytest.approx(1.5 / scale, abs=1e-12)
        assert poly.A[0, 1] == pytest.approx(-1.0 / scale, abs=1e-12)
        assert poly.b[0] == pytest.approx(8.0 / scale, abs=1e-12)
        assert poly.A[0, 0] == pytest.approx(0.83205, abs=5e-6)
        assert poly.A[0, 1] == pytest.approx(-0.55470, abs=5e-6)
        assert poly.b[0] == pytest.approx(4.43760, abs=5e-6)

    def test_idempotent_bitwise(self):
        # a polytope made from a polytope's unit rows divides them again
        rng = np.random.default_rng(7)
        once, _ = random_polytope(rng, 3)
        twice = Polytope(once.A, once.b)
        assert np.max(np.abs(twice.A - once.A)) <= 1e-15
        assert np.max(np.abs(twice.b - once.b)) <= 1e-15

    def test_quotient_kept_column_major(self):
        rng = np.random.default_rng(13)
        unit, _ = random_polytope(rng, 40, extra=60)
        A = unit.A * rng.uniform(0.5, 3.0, size=(unit.m, 1))
        out = Polytope(A, unit.b)
        norms = np.linalg.norm(A, axis=1)
        assert np.array_equal(out.A, A / norms[:, None])
        assert np.array_equal(out.b, unit.b / norms)
        assert out.A.flags.f_contiguous and not out.A.flags.writeable
        assert not out.b.flags.writeable
        assert not np.shares_memory(out.A, A)
        assert not np.shares_memory(out.b, unit.b)

    def test_one_copy_of_A(self):
        # the sweep_large shape: a polytope's rows are unit when it is made,
        # so normalize_rows returns its argument and copies nothing
        rng = np.random.default_rng(17)
        poly = Polytope(rng.normal(size=(1000, 200)), rng.uniform(1, 2, 1000))
        tracemalloc.start()
        try:
            out = normalize_rows(poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out is poly
        assert peak < poly.A.nbytes / 100

    def test_overflow_keeps_construction_errors(self):
        # a row norm that overflows leaves a zero row, a tiny norm can
        # overflow b: the errors of the row rule, raised by Polytope on the
        # quotients of rows that passed it, with no warning.  Row 1 is the
        # overflowing row, or a plain one, so that the first bad quotient is
        # row 3's
        cases = [
            ([1e200, 1e200], 1.0, "zero coefficient row at index 1"),
            ([-1.0, -1.0], 1e300, "non-finite entry in row at index 3"),
        ]
        for row, rhs, message in cases:
            A = [[1.0, 0.0], row, [0.0, 1.0], [1e-11, -1e-11]]
            with pytest.raises(PolytopeFormatError, match=message):
                Polytope(A, [1.0, 1.0, 1.0, rhs])

    def test_feasible_set_preserved(self):
        rng = np.random.default_rng(11)
        A = np.array([[3.0, 4.0], [0.0, -2.0], [-5.0, 1.0], [1.0, 1.0]])
        b = np.array([10.0, 3.0, 2.0, 1.5])
        normed = Polytope(A, b)
        pts = rng.uniform(-4, 4, size=(1000, 2))
        for p in pts:
            s_raw = b - A @ p
            s_new = residuals(normed, p)
            sign_raw = np.sign(np.where(np.abs(s_raw) <= 1e-9, 0.0, s_raw))
            sign_new = np.sign(np.where(np.abs(s_new) <= 1e-9, 0.0, s_new))
            assert np.array_equal(sign_raw, sign_new)


class TestResiduals:
    def test_square_center(self, square):
        s = residuals(square, (0.5, 0.5))
        assert np.allclose(s, 0.5, atol=1e-15)

    def test_square_boundary(self, square):
        s = residuals(square, (1.0, 0.5))
        assert np.allclose(s, [1.0, 0.5, 0.0, 0.5], atol=1e-15)

    def test_fixture_start_strictly_interior(self, example2):
        s = residuals(example2, (1.0, 2.0, 2.5, 1.3))
        assert np.min(s) > 0.0

    def test_affine_in_the_point(self):
        rng = np.random.default_rng(3)
        poly, anchor = random_polytope(rng, 4)
        for _ in range(200):
            u = rng.normal(size=4)
            t = rng.uniform(-2, 2)
            lhs = residuals(poly, anchor + t * u)
            rhs = residuals(poly, anchor) - t * (poly.A @ u)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_dimension_mismatch(self, square):
        with pytest.raises(ValueError, match="shape"):
            residuals(square, (0.5, 0.5, 0.5))
        # a sweep reads its slacks in the same order, with the same check; a
        # column point would otherwise broadcast the slacks to m x m
        with pytest.raises(ValueError, match="shape"):
            cs_step(square, [[0.5], [0.5]])

    def test_plain_product_up_to_block_width(self, square, example1, example2):
        cases = [(square, (0.25, 0.5)), (example1, (9.0, 6.0))]
        cases.append((example2, (1.0, 2.0, 2.5, 1.3)))
        for n in (2, 10, 32):
            rng = np.random.default_rng([31, n])
            poly, anchor = random_polytope(rng, n, extra=2 * n)
            cases.append((poly, random_interior_point(rng, poly, anchor)))
        for poly, p in cases:
            p = np.asarray(p)
            assert np.array_equal(residuals(poly, p), poly.b - poly.A @ p)

    @pytest.mark.parametrize("n", [33, 100, 200])
    def test_block_sum_above_block_width(self, n):
        rng = np.random.default_rng([37, n])
        poly, anchor = random_polytope(rng, n, extra=2 * n)
        p = random_interior_point(rng, poly, anchor)
        s = residuals(poly, p)
        # one (1, -1, ..., -1)-weighted dot over b and the 32-column block
        # products, rebuilt here
        terms = [poly.b]
        for lo in range(0, n, 32):
            terms.append(poly.A[:, lo : lo + 32] @ p[lo : lo + 32])
        signs = np.array([1.0] + [-1.0] * (len(terms) - 1))
        assert np.array_equal(s, signs.dot(np.array(terms)))
        # and within rounding of the plain product
        scale = np.abs(poly.b) + np.abs(poly.A) @ np.abs(p)
        assert np.all(np.abs(s - (poly.b - poly.A @ p)) <= 1e-12 * scale)


class TestFindInteriorPoint:
    def test_square(self, square):
        p = find_interior_point(square)
        assert np.min(residuals(square, p)) > 0.0

    def test_slanted_fixture(self, example1):
        p = find_interior_point(example1)
        assert np.min(residuals(example1, p)) > 0.0

    def test_four_dim_fixture(self, example2):
        p = find_interior_point(example2)
        assert np.min(residuals(example2, p)) > 0.0

    def test_empty_interior(self):
        # x <= 0 and x >= 1 cannot both hold; y rows pad m above n
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([0.0, -1.0, 5.0, 5.0])
        with pytest.raises(InteriorSearchError) as exc:
            find_interior_point(Polytope(A, b))
        assert INTERIOR_BUDGET == 1000
        assert str(exc.value) == (
            "no strictly interior point found in 1000 projection steps"
        )

    def test_random_polytopes(self):
        rng = np.random.default_rng(23)
        for n in (2, 3, 4, 5):
            poly, _ = random_polytope(rng, n)
            p = find_interior_point(poly)
            assert np.min(residuals(poly, p)) > 0.0


@pytest.mark.parametrize(
    "make",
    [
        lambda sq: Polytope(sq.A, sq.b),
        lambda sq: LineSection.from_distances([-0.5, 0.5]),
        lambda sq: harmonic_hyperplane(sq, (0.25, 0.5)),
    ],
    ids=["Polytope", "LineSection", "Hyperplane"],
)
def test_array_types_compare_and_hash_by_identity(square, make):
    # equal fields hold arrays, whose == is elementwise: compare identities
    one, twin = make(square), make(square)
    assert one == one and one != twin
    assert one in [twin, one] and twin not in [one]
    assert {one: 1, twin: 2}[twin] == 2


VALUE_RECORDS = {
    "TraceRecord": lambda sq: TraceRecord(iteration=0, point=(0.5, 0.5), fnorm=0.0),
    "CenterTrace": lambda sq: harmonic_center(sq, (0.25, 0.5))[1],
    "HarmonicSolveResult": lambda sq: solve_harmonic_offset(
        LineSection.from_distances([-0.25, 0.75])
    ),
}

IDENTITY_TYPES = {
    "Polytope": lambda sq: Polytope(A=sq.A, b=sq.b, labels=sq.labels),
    "LineSection": lambda sq: LineSection.from_distances([-0.5, 0.5]),
    "Hyperplane": lambda sq: harmonic_hyperplane(sq, (0.25, 0.5)),
}

FIELDS = {
    "Polytope": ("A", "b", "labels"),
    "LineSection": ("distances", "parallel", "d_plus", "d_minus", "i_plus", "i_minus"),
    "Hyperplane": ("normal", "offset"),
    "TraceRecord": ("iteration", "point", "fnorm"),
    "CenterTrace": ("records", "converged", "repeats", "measure"),
    "HarmonicSolveResult": ("h", "iterations", "residual", "converged"),
}


@pytest.mark.parametrize("name", list(FIELDS))
def test_fields_cannot_be_assigned_or_deleted(square, name):
    obj = {**VALUE_RECORDS, **IDENTITY_TYPES}[name](square)
    for field in FIELDS[name]:
        before = getattr(obj, field)
        with pytest.raises(AttributeError):
            setattr(obj, field, None)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field) is before
    # nor can a new attribute be added
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("name", list(VALUE_RECORDS))
def test_value_records_compare_and_hash_by_field(square, name):
    one, twin = VALUE_RECORDS[name](square), VALUE_RECORDS[name](square)
    assert one is not twin
    assert one == twin and hash(one) == hash(twin)
    assert len({one, twin}) == 1
    assert one._fields == FIELDS[name]
    for field in one._fields:
        assert one._replace(**{field: object()}) != one


@pytest.mark.parametrize("name", ["Polytope", "Hyperplane"])
def test_identity_types_are_built_by_keyword(square, name):
    one = IDENTITY_TYPES[name](square)
    fields = {field: getattr(one, field) for field in FIELDS[name]}
    twin = type(one)(**fields)
    for field, value in fields.items():
        assert np.array_equal(getattr(twin, field), value)
    assert twin != one


def test_line_section_is_built_from_a_line_only(square):
    # a section comes from a line's table (section or from_distances), so
    # its fields cannot be given one by one, nor a bracket that misses 0
    one = IDENTITY_TYPES["LineSection"](square)
    fields = {field: getattr(one, field) for field in FIELDS["LineSection"]}
    with pytest.raises(TypeError):
        LineSection(**fields)
    # the distances it solves on, in its table's order, are frozen too
    assert not one._ordered.flags.writeable
    with pytest.raises(AttributeError):
        one._ordered = None
