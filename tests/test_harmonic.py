"""Root solver for the reciprocal-distance sum, and harmonic points of lines."""

import math

import numpy as np
import pytest

from conftest import random_interior_point, random_polytope, random_section, random_unit
from polycenter import (
    LineSection,
    Polytope,
    axis_direction,
    bisection_oracle,
    harmonic_point_on_line,
    residuals,
    section,
    solve_harmonic_offset,
    unit_direction,
)
from polycenter import harmonic
from polycenter.harmonic import _ONES, LINE_BUDGET, newton_offset
from polycenter.lines import line_bracket

# root of 1/(-1-h) + 1/(1-h) + 1/(2-h) = 0 inside (-1, 1): the equation
# clears to 3h^2 - 4h - 1 = 0, and only this quadratic root is bracketed
QUADRATIC_ROOT = (4.0 - math.sqrt(28.0)) / 6.0


def reciprocal_sum(sec, h):
    return float(np.sum(1.0 / (sec.finite_distances - h)))


class TestClosedForms:
    def test_symmetric_pair(self):
        sec = LineSection.from_distances([-0.5, 0.5])
        assert solve_harmonic_offset(sec).h == pytest.approx(0.0, abs=1e-10)
        assert bisection_oracle(sec).h == pytest.approx(0.0, abs=1e-10)

    def test_shifted_pair_is_midpoint(self):
        # two-term equation: (d1 - h) + (d2 - h) = 0  =>  h = (d1 + d2) / 2
        sec = LineSection.from_distances([-0.25, 0.75])
        assert solve_harmonic_offset(sec).h == pytest.approx(0.25, abs=1e-10)
        assert bisection_oracle(sec).h == pytest.approx(0.25, abs=1e-10)

    def test_three_term_quadratic(self):
        sec = LineSection.from_distances([-1.0, 1.0, 2.0])
        assert solve_harmonic_offset(sec).h == pytest.approx(
            QUADRATIC_ROOT, abs=1e-10
        )
        assert bisection_oracle(sec).h == pytest.approx(QUADRATIC_ROOT, abs=1e-10)

    def test_result_fields(self):
        sec = LineSection.from_distances([-1.0, 1.0, 2.0])
        res = solve_harmonic_offset(sec)
        assert res.converged
        assert abs(reciprocal_sum(sec, res.h)) <= 1e-10
        assert sec.d_minus < res.h < sec.d_plus
        assert bisection_oracle(sec).converged


class TestOnesBuffer:
    """``newton_offset`` reads F against a slice of a read-only buffer of
    ones, or a fresh array for a line longer than the buffer."""

    @pytest.mark.parametrize("size", [4095, 4096, 4097, 5000])
    def test_long_line(self, size):
        before = _ONES.copy()
        rng = np.random.default_rng([467, size])
        ahead = size // 2 + 37
        values = np.concatenate(
            [rng.uniform(0.05, 3.0, ahead), -rng.uniform(0.05, 3.0, size - ahead)]
        )
        sec = LineSection.from_distances(rng.permutation(values))
        d = sec.finite_distances
        h, its, converged = newton_offset(d, sec.d_minus, sec.d_plus)
        assert converged and abs(reciprocal_sum(sec, h)) <= 1e-10
        assert abs(h - bisection_oracle(sec).h) <= 1e-10
        assert solve_harmonic_offset(sec).converged
        assert not _ONES.flags.writeable
        assert np.array_equal(_ONES, before)


class TestSolverBehavior:
    def test_oracle_equivalence(self):
        rng = np.random.default_rng(101)
        for _ in range(1000):
            sec = random_section(rng)
            a = solve_harmonic_offset(sec, tol=1e-12)
            b = bisection_oracle(sec, tol=1e-12)
            assert abs(a.h - b.h) <= 1e-10

    def test_sum_is_monotone_on_bracket(self):
        rng = np.random.default_rng(103)
        for _ in range(1000):
            sec = random_section(rng)
            w = sec.width
            hs = np.sort(
                rng.uniform(sec.d_minus + 1e-9 * w, sec.d_plus - 1e-9 * w, size=4)
            )
            vals = [reciprocal_sum(sec, h) for h in hs]
            assert all(x < y for x, y in zip(vals, vals[1:]))

    def test_poles_dominate_near_bracket_ends(self):
        rng = np.random.default_rng(107)
        for _ in range(200):
            sec = random_section(rng)
            w = sec.width
            assert reciprocal_sum(sec, sec.d_minus + 1e-6 * w) < 0.0
            assert reciprocal_sum(sec, sec.d_plus - 1e-6 * w) > 0.0

    def test_huge_finite_distances_kept(self):
        sec = LineSection.from_distances([-0.5, 0.5, 1e14])
        res = solve_harmonic_offset(sec)
        assert res.converged
        # the far term only nudges the root off zero by ~1/1e14
        assert res.h == pytest.approx(0.0, abs=1e-12)

    def test_bracket_width_stop(self):
        # a pole 3e-13 behind the point is too steep for |F| <= tol in
        # float64: the solve stops once the sub-bracket is tol times as
        # wide as the bracket, and counts that as converged
        sec = LineSection.from_distances([-3e-13, -11.7, 1.7e-10, 32.9])
        res = solve_harmonic_offset(sec)
        assert res.converged
        assert abs(reciprocal_sum(sec, res.h)) > 1e3 * 1e-10
        assert sec.d_minus < res.h < sec.d_plus

    def test_iteration_budget_flag(self, monkeypatch):
        # the budget is LINE_BUDGET, which has no argument; set to 1, it
        # runs out before the solve meets tol
        monkeypatch.setattr(harmonic, "LINE_BUDGET", 1)
        sec = LineSection.from_distances([-1.0, 5.0, 6.0])
        res = solve_harmonic_offset(sec, tol=1e-14)
        assert not res.converged
        assert res.iterations == 1
        assert sec.d_minus < res.h < sec.d_plus

    @pytest.mark.parametrize("kwargs", [{"tol": -1.0}, {"tol": np.nan}])
    def test_bad_arguments_rejected(self, kwargs):
        sec = LineSection.from_distances([-1.0, 5.0, 6.0])
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            solve_harmonic_offset(sec, **kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"tol": 0.0}, "tol must be positive"),
            ({"tol": -1.0}, "tol must be positive"),
            ({"tol": np.nan}, "tol must be positive"),
        ],
    )
    @pytest.mark.parametrize("solve", [solve_harmonic_offset, bisection_oracle])
    def test_both_solvers_reject_the_same_arguments(self, solve, kwargs, message):
        sec = LineSection.from_distances([-1.0, 5.0, 6.0])
        with pytest.raises(ValueError) as exc:
            solve(sec, **kwargs)
        assert str(exc.value) == message

    @pytest.mark.parametrize("max_iter", [-1, -3])
    def test_bisection_oracle_rejects_a_negative_budget(self, max_iter):
        # the oracle keeps its budget argument, with the centers' message
        sec = LineSection.from_distances([-1.0, 5.0, 6.0])
        with pytest.raises(ValueError) as exc:
            bisection_oracle(sec, max_iter=max_iter)
        assert str(exc.value) == "max_iter must be non-negative"

    @pytest.mark.parametrize("max_iter", [0, 1, 7])
    def test_bisection_oracle_reports_the_sum_at_its_h(self, max_iter):
        # with no budget, h is the middle of the shrunk bracket, (-1, 5)
        # less 1e-12 of its width at each end, and F(2) = 1/4; unconverged,
        # the sum at h misses tol
        sec = LineSection.from_distances([-1.0, 5.0, 6.0])
        res = bisection_oracle(sec, tol=1e-14, max_iter=max_iter)
        assert res.iterations == max_iter and not res.converged
        assert abs(reciprocal_sum(sec, res.h)) > 1e-14
        if max_iter == 0:
            assert res.h == 2.0
            assert reciprocal_sum(sec, res.h) == pytest.approx(0.25)


class TestInfiniteBracketEnd:
    """A bracket end at +-inf: every distance on that side overflowed, so
    F keeps one sign at every finite h and the solve cannot converge."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_section_with_an_overflowed_side(self, sign):
        # row 1's distance along +-x is 1e300 / 1e-11, past the largest float
        A = np.array([[0.0, 1.0], [1e-11, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        poly = Polytope(A, np.array([1.0, 1e300, 1.0, 1.0]))
        with np.errstate(over="ignore"):
            sec = section(poly, (0.0, 0.0), (sign, 0.0))
        assert math.isinf(sec.width)
        res = solve_harmonic_offset(sec)
        assert not res.converged
        assert res.iterations == 100
        assert math.isfinite(res.h) and math.isfinite(reciprocal_sum(sec, res.h))
        # the solve moves towards the infinite end, inside the bracket
        assert sec.d_minus < res.h < sec.d_plus and res.h * sign > 0.0

    @pytest.mark.parametrize(
        "d, lo, hi",
        [
            ([np.inf, -1.0], -1.0, np.inf),
            ([1.0, -np.inf], -np.inf, 1.0),
            # F' underflows to 0 at the start: no Newton step, no midpoint
            ([np.inf, -1e300], -1e300, np.inf),
            # Newton doubles h until F' underflows to 0, near h = 1e162
            ([np.inf, -1.0, -2.0], -1.0, np.inf),
        ],
    )
    @pytest.mark.parametrize("budget", [1, LINE_BUDGET, 3000])
    def test_budget_runs_out_at_a_finite_offset(self, monkeypatch, d, lo, hi, budget):
        # RuntimeWarnings are errors in this suite; a ZeroDivisionError
        # or an inf or NaN step would fail here too.  The budget has no
        # argument: the shortest and a long run set the module's constant
        monkeypatch.setattr(harmonic, "LINE_BUDGET", budget)
        h, its, converged = newton_offset(np.array(d), lo, hi)
        assert not converged
        assert its == budget
        assert math.isfinite(h) and math.isfinite(np.sum(1.0 / (np.array(d) - h)))
        assert lo < h < hi or h == 0.0


    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_bisection_oracle_with_an_overflowed_side(self, sign):
        # no root among the floats: a finite h, unconverged
        A = np.array([[0.0, 1.0], [1e-11, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        poly = Polytope(A, np.array([1.0, 1e300, 1.0, 1.0]))
        with np.errstate(over="ignore"):
            sec = section(poly, (0.0, 0.0), (sign, 0.0))
        res = bisection_oracle(sec)
        assert not res.converged and res.iterations == 200
        assert math.isfinite(res.h) and math.isfinite(reciprocal_sum(sec, res.h))
        assert sec.d_minus < res.h < sec.d_plus and res.h * sign > 0.0

    def test_bisection_oracle_floats_on_finite_brackets(self):
        # plain bisection, which a finite bracket follows float for float
        def reference(sec, tol=1e-10, max_iter=200):
            d, width = sec.finite_distances, sec.width
            lo, hi = sec.d_minus + 1e-12 * width, sec.d_plus - 1e-12 * width
            h = 0.0
            for its in range(1, max_iter + 1):
                h = 0.5 * (lo + hi)
                f = float(np.sum(1.0 / (d - h)))
                if abs(f) <= tol or (hi - lo) <= 1e-15 * width:
                    return h, its, True
                lo, hi = (lo, h) if f > 0.0 else (h, hi)
            return h, max_iter, False

        rng = np.random.default_rng(457)
        for _ in range(200):
            sec = random_section(rng)
            assert tuple(bisection_oracle(sec)) == reference(sec)

    @pytest.mark.parametrize(
        "d, lo, hi, want",
        [
            # F' = 1e600 overflows: no Newton step, and no finite midpoint
            ([np.inf, -1e-300], -1e-300, np.inf, (0.0, 100, False)),
            # 1 / 1e-320 overflows to inf
            ([1e-320, -1e-300], -1e-300, 1e-320, (-5e-301, 2, True)),
            # F' overflows until the sub-bracket is narrow enough
            (
                [1e-200, -1e-200, 2e-200, -3.0],
                -1e-200,
                1e-200,
                (-2.1525043703150007e-201, 34, True),
            ),
        ],
    )
    def test_near_bracket_is_warning_free(self, d, lo, hi, want):
        # the floats of a near bracket's solve, under the error state its
        # callers set for it; that they set it, so that no public entry
        # point warns, is test_center.py's test_line_solve_callers_own_its_error_state
        with np.errstate(all="ignore"):
            assert newton_offset(np.array(d), lo, hi) == want


class TestHarmonicPoints:
    def test_square_horizontal_line(self, square):
        q, _ = harmonic_point_on_line(square, (0.25, 0.5), (1.0, 0.0))
        assert np.allclose(q, (0.5, 0.5), atol=1e-10)

    def test_simplex_diagonal(self, simplex):
        # along x = y the two axis rows sit at -a*sqrt(2) (double pole) and
        # the diagonal row at (1 - 2a)/sqrt(2); solving the three-term sum
        # lands on (1/3, 1/3) for every start on the line
        u = unit_direction((1.0, 1.0))
        for a in (0.05, 0.2, 0.4):
            q, _ = harmonic_point_on_line(simplex, (a, a), u)
            assert np.allclose(q, (1.0 / 3.0, 1.0 / 3.0), atol=1e-9)

    def test_orientation_invariant(self):
        rng = np.random.default_rng(109)
        for _ in range(25):
            poly, anchor = random_polytope(rng, 3)
            p = random_interior_point(rng, poly, anchor)
            u = random_unit(rng, 3)
            fwd, _ = harmonic_point_on_line(poly, p, u)
            rev, _ = harmonic_point_on_line(poly, p, -u)
            assert np.max(np.abs(fwd - rev)) <= 1e-9

    @pytest.mark.parametrize("tol", [1e-10, 1e-300])
    def test_point_comes_with_its_line_solve(self, example1, tol):
        # the result is the section's solve, field for field, converged or
        # not (no solve of this line meets 1e-300), and the point is at its h
        p, u = (9.0, 6.0), axis_direction(2, 2)
        q, res = harmonic_point_on_line(example1, p, u, tol=tol)
        want = solve_harmonic_offset(section(example1, p, u), tol=tol)
        assert type(res) is type(want) and res == want
        assert res.converged is (tol == 1e-10)
        assert np.array_equal(q, np.asarray(p) + want.h * u)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
    def test_a_loose_tol_is_not_read_as_a_relative_width(self, square):
        # F(0) = 1/0.75 - 1/0.25 = -2.67 on the axis-1 line through
        # (0.25, 0.5), which misses tol 1, and the root is at h = 0.25; but
        # newton_offset also stops when the sub-bracket is within tol times
        # the bracket's width, which tol 1 meets as soon as the first
        # iteration moves lo to 0: converged at h = 0, the start
        p, u = (0.25, 0.5), axis_direction(1, 2)
        _, res = harmonic_point_on_line(square, p, u, tol=1.0)
        assert abs(reciprocal_sum(section(square, p, u), res.h)) <= 1.0

    def test_axis_form_matches_line_form(self, square):
        q, _ = harmonic_point_on_line(square, (0.25, 0.5), axis_direction(1, 2))
        assert np.allclose(q, (0.5, 0.5), atol=1e-10)

    def test_axis_fixed_point(self, square):
        q, _ = harmonic_point_on_line(square, (0.5, 0.5), axis_direction(2, 2))
        assert np.allclose(q, (0.5, 0.5), atol=1e-12)

    def test_axis_leaves_other_coordinates_bit_identical(self):
        rng = np.random.default_rng(113)
        poly, anchor = random_polytope(rng, 4)
        p = random_interior_point(rng, poly, anchor)
        q, _ = harmonic_point_on_line(poly, p, axis_direction(2, 4))
        assert q[0] == p[0] and q[2] == p[2] and q[3] == p[3]

    def test_shape_mismatch(self, square):
        # section's checks: a point of shape (n,), a direction of n entries
        with pytest.raises(ValueError, match="point has shape"):
            harmonic_point_on_line(square, (0.5, 0.5, 0.5), (1.0, 0.0))
        with pytest.raises(ValueError, match="direction has shape"):
            harmonic_point_on_line(square, (0.5, 0.5), (1.0, 0.0, 0.0))

    def test_result_strictly_interior(self):
        rng = np.random.default_rng(127)
        for _ in range(25):
            poly, anchor = random_polytope(rng, 3)
            p = random_interior_point(rng, poly, anchor, frac=0.9)
            q, _ = harmonic_point_on_line(poly, p, random_unit(rng, 3))
            assert np.min(residuals(poly, q)) > 0.0

    def test_idempotent_within_tolerance(self):
        rng = np.random.default_rng(131)
        for _ in range(25):
            poly, anchor = random_polytope(rng, 3)
            p = random_interior_point(rng, poly, anchor)
            u = random_unit(rng, 3)
            q1, _ = harmonic_point_on_line(poly, p, u, tol=1e-10)
            q2, _ = harmonic_point_on_line(poly, q1, u, tol=1e-10)
            assert np.linalg.norm(q2 - q1) < 1e-10


def _ahead_then_behind(d):
    behind = np.signbit(d)
    return np.concatenate((d[~behind], d[behind]))


class TestSummationOrder:
    """``solve_harmonic_offset`` sums a section's distances ahead, then
    behind, each in row order: the order of the axis table, so that both
    paths give the root solve the same array."""

    @staticmethod
    def _check(poly, p, u):
        sec = section(poly, p, u)
        # at positive slacks the sign bit of a distance is its coefficient's
        g = (poly.A @ u)[~sec.parallel]
        assert np.array_equal(np.signbit(sec.finite_distances), g < 0.0)
        d = _ahead_then_behind(sec.finite_distances)
        res = solve_harmonic_offset(sec)
        # the error state solve_harmonic_offset sets
        with np.errstate(all="ignore"):
            want = newton_offset(d, sec.d_minus, sec.d_plus)
        assert repr(tuple(res)) == repr(want)
        return d

    @pytest.mark.parametrize("n", [2, 5, 40])
    def test_random_lines(self, n):
        rng = np.random.default_rng([137, n])
        for _ in range(5):
            poly, anchor = random_polytope(rng, n, extra=2 * n)
            p = random_interior_point(rng, poly, anchor)
            self._check(poly, p, random_unit(rng, n))
            s = residuals(poly, p)
            for k in range(1, n + 1):
                d = self._check(poly, p, axis_direction(k, n))
                # the axis stage's distances, bit for bit
                got = line_bracket(poly.axis_lines[k - 1], s)[0]
                assert got.tobytes() == d.tobytes()

    def test_from_distances(self):
        # raw distances, +-inf (no intersection) among them: the section
        # solves on its finite distances ahead, then behind, in row order
        rng = np.random.default_rng(151)
        for _ in range(40):
            base = random_section(rng, max_side=8)
            at = rng.integers(0, base.distances.size + 1, size=2)
            raw = np.insert(base.distances, at, [np.inf, -np.inf])
            for sec in (base, LineSection.from_distances(raw)):
                res = solve_harmonic_offset(sec)
                want = newton_offset(
                    _ahead_then_behind(sec.finite_distances), sec.d_minus, sec.d_plus
                )
                assert repr(tuple(res)) == repr(want)
