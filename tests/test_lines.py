"""Line sections: signed distances, feasible bracket, parallel handling."""

import numpy as np
import pytest

from conftest import random_polytope, random_unit
from polycenter import (
    BracketInvalidError,
    LineSection,
    NotInteriorError,
    Polytope,
    UnboundedDirectionError,
    axis_direction,
    point_at,
    residuals,
    section,
    unit_direction,
)
from polycenter.lines import largest, smallest


class TestAxisDirection:
    @pytest.mark.parametrize(
        "k, n, expected",
        [(1, 2, (1, 0)), (2, 2, (0, 1)), (3, 4, (0, 0, 1, 0))],
    )
    def test_basis_vectors(self, k, n, expected):
        assert np.array_equal(axis_direction(k, n), expected)

    @pytest.mark.parametrize("k", [0, 3, -1])
    def test_out_of_range(self, k):
        with pytest.raises(ValueError):
            axis_direction(k, 2)


class TestPointAt:
    def test_cases(self):
        assert np.allclose(point_at((0, 0), (1, 0), 2.5), (2.5, 0))
        assert np.allclose(point_at((1, 1), (0, 1), -1), (1, 0))
        assert np.allclose(point_at((0.5, 0.5), (0.6, 0.8), 0.5), (0.8, 0.9))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            point_at((0, 0), (1, 0, 0), 1.0)


class TestUnitDirection:
    def test_normalizes(self):
        u = unit_direction((3.0, 4.0))
        assert np.allclose(u, (0.6, 0.8), atol=1e-15)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            unit_direction((0.0, 0.0))

    @pytest.mark.parametrize(
        "v, want",
        [
            ((1e-320, 0.0), (1.0, 0.0)),
            ((0.0, -5e-324), (0.0, -1.0)),
            ((1e308, 1e308), (1.0, 1.0)),
            ((-1.7e308, 0.0, 1.7e308), (-1.0, 0.0, 1.0)),
        ],
    )
    def test_norm_under_and_overflow(self, v, want):
        # the norm of v is 0 or inf; v / max|v| has the same direction
        want = np.asarray(want)
        assert np.array_equal(unit_direction(v), want / np.linalg.norm(want))

    def test_ordinary_vectors_divided_by_norm(self):
        rng = np.random.default_rng(83)
        for _ in range(200):
            v = rng.normal(size=int(rng.integers(1, 50))) * 10.0 ** rng.integers(
                -150, 150
            )
            assert np.array_equal(unit_direction(v), v / np.linalg.norm(v))

    @pytest.mark.parametrize(
        "v", [(np.nan, 1.0), (np.inf, 1.0), (1.0, -np.inf), (np.nan, np.nan)]
    )
    def test_non_finite_rejected(self, v):
        # NaN has no norm to compare with 0, and inf / inf is NaN
        with pytest.raises(ValueError, match="finite"):
            unit_direction(v)


class TestExtremes:
    """``smallest``/``largest`` read the argmin/argmax: the value of
    ``np.minimum.reduce``/``np.maximum.reduce``, NaN included."""

    CASES = [
        [np.nan, 1.0, -2.0],
        [1.0, -2.0, np.nan],
        [1.0, np.nan, -2.0, np.nan],
        [np.inf, -np.inf, 3.0],
        [-np.inf, 2.0, np.inf],
        [0.0, -0.0, 1.0],
        [-0.0, 0.0, -1.0],
        [0.0, -0.0],
        [-0.0, 0.0],
        [-0.0],
        [5.0],
        [np.nan],
    ]

    @staticmethod
    def _check(x):
        for helper, ufunc in ((smallest, np.minimum), (largest, np.maximum)):
            got, want = helper(x), ufunc.reduce(x)
            assert np.array_equal(got, want, equal_nan=True)
            if got == 0.0:
                # of several zeros the first, whichever its sign
                first = x[x == 0.0][0]
                assert np.signbit(got) == np.signbit(first)
            else:
                assert got.tobytes() == want.tobytes()

    # 37 copies take numpy's vectorised loops past their unrolled blocks
    @pytest.mark.parametrize("copies", [1, 37])
    @pytest.mark.parametrize("values", CASES)
    def test_equal_to_reduce(self, values, copies):
        self._check(np.array(values * copies))

    def test_random(self):
        rng = np.random.default_rng(461)
        for _ in range(300):
            x = rng.normal(size=int(rng.integers(1, 300)))
            if rng.random() < 0.3:
                x[rng.integers(x.size)] = np.nan
            if rng.random() < 0.3:
                x[rng.integers(x.size)] = rng.choice([np.inf, -np.inf, 0.0, -0.0])
            self._check(x)


class TestSection:
    def test_square_centered(self, square):
        sec = section(square, (0.5, 0.5), (1.0, 0.0))
        assert sec.distances[0] == pytest.approx(-0.5)
        assert sec.distances[2] == pytest.approx(0.5)
        assert tuple(sec.parallel) == (False, True, False, True)
        assert sec.d_plus == pytest.approx(0.5)
        assert sec.d_minus == pytest.approx(-0.5)
        assert (sec.i_minus, sec.i_plus) == (0, 2)

    def test_square_off_center(self, square):
        sec = section(square, (0.25, 0.5), (1.0, 0.0))
        assert sec.distances[0] == pytest.approx(-0.25)
        assert sec.distances[2] == pytest.approx(0.75)
        assert sec.d_plus == pytest.approx(0.75)
        assert sec.d_minus == pytest.approx(-0.25)
        assert sec.width == pytest.approx(1.0)

    def test_unbounded_direction(self):
        # x >= 0 with only y bounds: nothing blocks +x
        A = np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        b = np.array([0.0, 5.0, 5.0])
        poly = Polytope(A, b)
        with pytest.raises(UnboundedDirectionError):
            section(poly, (1.0, 0.0), (1.0, 0.0))

    def test_not_interior_on_boundary(self, square):
        with pytest.raises(NotInteriorError):
            section(square, (1.0, 0.5), (1.0, 0.0))

    def test_not_interior_outside(self, square):
        with pytest.raises(NotInteriorError):
            section(square, (2.0, 0.5), (1.0, 0.0))

    def test_non_unit_direction_rejected(self, square):
        with pytest.raises(ValueError):
            section(square, (0.5, 0.5), (1.0, 1.0))

    @pytest.mark.parametrize("u", [(np.nan, 0.0), (0.0, np.nan), (np.nan, np.nan)])
    def test_nan_direction_rejected(self, square, u):
        # NaN fails the unit check; it used to pass it and raise
        # UnboundedDirectionError
        with pytest.raises(ValueError, match="unit vector"):
            section(square, (0.25, 0.5), u)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_blocking_rows_not_parallel_when_distances_overflow(self, sign):
        # along +-x, row 0 is parallel and row 1 (coefficient +-1e-11, slack
        # 1e300) is the only row on its side, at a distance that overflows
        # to +-inf; the blocking row on that side is row 1
        A = np.array([[0.0, 1.0], [1e-11, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        poly = Polytope(A, np.array([1.0, 1e300, 1.0, 1.0]))
        with np.errstate(over="ignore"):
            sec = section(poly, (0.0, 0.0), (sign, 0.0))
        assert not sec.parallel[sec.i_plus]
        assert not sec.parallel[sec.i_minus]
        assert (sec.i_plus, sec.i_minus) == ((1, 2) if sign > 0 else (2, 1))
        ends = (-1.0, np.inf) if sign > 0 else (-np.inf, 1.0)
        assert (sec.d_minus, sec.d_plus) == ends

    def test_tie_breaks_to_lowest_index(self):
        # duplicate x <= 1 rows produce exactly equal forward distances
        A = np.array(
            [[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]
        )
        b = np.array([0.0, 0.0, 1.0, 1.0, 1.0])
        poly = Polytope(A, b)
        sec = section(poly, (0.5, 0.5), (1.0, 0.0))
        assert sec.distances[2] == sec.distances[4]
        assert sec.i_plus == 2

    def test_bracket_keeps_point_interior(self):
        rng = np.random.default_rng(17)
        poly, anchor = random_polytope(rng, 3)
        u = random_unit(rng, 3)
        sec = section(poly, anchor, u)
        for t in np.linspace(sec.d_minus, sec.d_plus, 102)[1:-1]:
            assert np.min(residuals(poly, point_at(anchor, u, t))) > 0.0

    def test_no_finite_distance_inside_bracket(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            poly, anchor = random_polytope(rng, 3)
            sec = section(poly, anchor, random_unit(rng, 3))
            inner = sec.finite_distances
            assert not np.any(
                (inner > sec.d_minus + 1e-12) & (inner < sec.d_plus - 1e-12)
            )

    def test_antisymmetry(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            poly, anchor = random_polytope(rng, 3)
            u = random_unit(rng, 3)
            fwd = section(poly, anchor, u)
            rev = section(poly, anchor, -u)
            assert np.array_equal(fwd.parallel, rev.parallel)
            keep = ~fwd.parallel
            assert np.allclose(
                fwd.distances[keep], -rev.distances[keep], atol=1e-12
            )
            assert rev.d_plus == pytest.approx(-fwd.d_minus, abs=1e-12)
            assert rev.d_minus == pytest.approx(-fwd.d_plus, abs=1e-12)

    def test_row_scaling_leaves_distances_unchanged(self):
        rng = np.random.default_rng(53)
        poly, anchor = random_polytope(rng, 3)
        scales = rng.uniform(0.1, 10.0, size=poly.m)
        scaled = Polytope(poly.A * scales[:, None], poly.b * scales)
        u = random_unit(rng, 3)
        a = section(poly, anchor, u)
        b = section(scaled, anchor, u)
        keep = ~a.parallel
        assert np.array_equal(a.parallel, b.parallel)
        assert np.max(np.abs(a.distances[keep] - b.distances[keep])) <= 1e-12


class TestContactConsistency:
    def test_residual_vanishes_at_contact(self):
        rng = np.random.default_rng(61)
        for n in (2, 3, 5):
            for _ in range(20):
                poly, anchor = random_polytope(rng, n)
                u = random_unit(rng, n)
                sec = section(poly, anchor, u)
                for i in np.flatnonzero(~sec.parallel):
                    contact = point_at(anchor, u, sec.distances[i])
                    s = residuals(poly, contact)
                    assert abs(s[i]) <= 1e-9


class TestFromDistances:
    def test_infinite_entries_marked_parallel(self):
        sec = LineSection.from_distances([-0.5, np.inf, 0.5, np.nan])
        assert tuple(sec.parallel) == (False, True, False, True)
        assert sec.d_plus == 0.5
        assert sec.d_minus == -0.5

    def test_zero_distance_rejected(self):
        with pytest.raises(BracketInvalidError):
            LineSection.from_distances([-0.5, 0.0, 0.5])

    def test_one_sided_rejected(self):
        with pytest.raises(BracketInvalidError):
            LineSection.from_distances([0.5, 1.5, np.inf])
