"""Polytope construction, parsing, residuals, classification, interior search."""

import math

import numpy as np
import pytest

from conftest import random_interior_point, random_polytope
from polycenter import (
    InteriorSearchError,
    LineSection,
    Polytope,
    PolytopeFormatError,
    Region,
    bi_center,
    classify_point,
    cs_step,
    find_interior_point,
    harmonic_center,
    harmonic_hyperplane,
    normalize_rows,
    parse_polytope,
    residuals,
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

    def test_rhs_length_mismatch(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]])
        with pytest.raises(PolytopeFormatError):
            Polytope(A, np.array([1.0, 1.0]))

    def test_matrix_shape(self):
        with pytest.raises(PolytopeFormatError, match="two-dimensional"):
            Polytope(np.ones(3), np.ones(3))
        with pytest.raises(PolytopeFormatError, match="at least 1"):
            Polytope(np.ones((3, 0)), np.ones(3))


class TestAxisLines:
    @staticmethod
    def _polytopes(square, simplex, example1, example2):
        polys = [square, simplex, example1, example2]
        for n in (1, 2, 10, 33, 100):
            rng = np.random.default_rng([41, n])
            polys.append(random_polytope(rng, n, extra=2 * n)[0])
        # an unnormalized row with entries on both sides of the threshold
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
        rng = np.random.default_rng(7)
        poly, _ = random_polytope(rng, 3)
        once = normalize_rows(poly)
        twice = normalize_rows(once)
        assert np.max(np.abs(twice.A - once.A)) <= 1e-15
        assert np.max(np.abs(twice.b - once.b)) <= 1e-15

    def test_feasible_set_preserved(self):
        rng = np.random.default_rng(11)
        raw = Polytope(
            np.array([[3.0, 4.0], [0.0, -2.0], [-5.0, 1.0], [1.0, 1.0]]),
            np.array([10.0, 3.0, 2.0, 1.5]),
        )
        normed = normalize_rows(raw)
        pts = rng.uniform(-4, 4, size=(1000, 2))
        for p in pts:
            s_raw = residuals(raw, p)
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
        # b minus the 32-column block products, summed in block order
        total = poly.A[:, :32] @ p[:32]
        for lo in range(32, n, 32):
            total = total + poly.A[:, lo : lo + 32] @ p[lo : lo + 32]
        assert np.array_equal(s, poly.b - total)
        # and within rounding of the plain product
        scale = np.abs(poly.b) + np.abs(poly.A) @ np.abs(p)
        assert np.all(np.abs(s - (poly.b - poly.A @ p)) <= 1e-12 * scale)


class TestClassifyPoint:
    def test_interior(self, square):
        pc = classify_point(square, (0.5, 0.5), 1e-9)
        assert pc.region is Region.INTERIOR
        assert pc.is_interior
        assert pc.indices == ()

    def test_boundary(self, square):
        pc = classify_point(square, (1.0, 0.5), 1e-9)
        assert pc.region is Region.BOUNDARY
        assert pc.indices == (2,)

    def test_exterior(self, square):
        pc = classify_point(square, (2.0, 0.5), 1e-9)
        assert pc.region is Region.EXTERIOR
        assert pc.indices == (2,)

    def test_negative_eps_rejected(self, square):
        with pytest.raises(ValueError):
            classify_point(square, (0.5, 0.5), -1.0)


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
        with pytest.raises(InteriorSearchError):
            find_interior_point(Polytope(A, b), max_iter=400)

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
