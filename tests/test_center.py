"""F-vector, coordinate search to the harmonic center, hyperplanes, BI center."""

import math
import sys

import numpy as np
import pytest

from conftest import (
    CENTER1,
    TABLE1,
    TABLE2,
    TABLE_TOL,
    analytic_center,
    barrier,
    random_interior_point,
    random_polytope,
    random_unit,
)
from polycenter import (
    DegenerateAtCenterError,
    NotInteriorError,
    Polytope,
    PolytopeError,
    UnboundedDirectionError,
    axis_direction,
    bi_center,
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
from polycenter.center import _f_at
from polycenter.harmonic import newton_offset

THIRD = 1.0 / 3.0


class TestFVector:
    def test_square_center_is_zero(self, square):
        assert np.allclose(f_vector(square, (0.5, 0.5)), 0.0, atol=1e-14)
        assert f_norm(square, (0.5, 0.5)) == pytest.approx(0.0, abs=1e-14)

    def test_simplex_center_is_zero(self, simplex):
        # -1/x + 1/(1 - x - y) and -1/y + 1/(1 - x - y) both vanish at 1/3
        assert np.allclose(
            f_vector(simplex, (THIRD, THIRD)), 0.0, atol=1e-12
        )

    def test_matches_raw_row_formula(self, example2):
        # recompute sum_i A_ij / S_i from the unnormalized coefficients;
        # per-row scaling cancels, so the normalized fixture must agree
        A = np.array(
            [
                [1, 1, -1, 1],
                [1, 0.5, -1, 0],
                [0.5, -2, 1, 0],
                [-1, 0.5, 0, -0.5],
                [1, 3, 1.5, 2],
                [-1, 0, 0, 0],
                [0, -1, 0, 0],
                [0, 0, -1, 0],
                [0, 0, 0, -1],
            ],
            dtype=float,
        )
        b = np.array([8, 3, 2, 3, 25, 0, 0, 0, 0], dtype=float)
        p = np.array([1.0, 2.0, 2.5, 1.3])
        s = b - A @ p
        expected = (A / s[:, None]).sum(axis=0)
        got = f_vector(example2, p)
        assert np.max(np.abs(got - expected)) <= 1e-10
        assert f_norm(example2, p) == pytest.approx(1.013, abs=TABLE_TOL)

    def test_plain_product_is_the_fallback_float_for_float(self, monkeypatch):
        # within the polytope's reciprocal cap the plain product is taken
        # bare; with a cap of 0, every call runs the fallback block, whose
        # product is finite here and so gives the same floats
        rng = np.random.default_rng(503)
        poly, anchor = random_polytope(rng, 10, extra=40)
        points = [random_interior_point(rng, poly, anchor) for _ in range(10)]
        slacks = [residuals(poly, p) for p in points]
        assert all((1.0 / s).max() <= poly._reciprocal_cap for s in slacks)
        bare = [_f_at(poly, s) for s in slacks]
        monkeypatch.setitem(poly.__dict__, "_reciprocal_cap", 0.0)
        for s, f in zip(slacks, bare):
            assert np.array_equal(_f_at(poly, s), f)

    def test_reciprocal_cap_bounds_every_partial_sum(self, example2):
        # a quarter of the largest float over m, the bound on every column's
        # sum of |A_ij| for unit rows: no column's sum of |r_i A_ij| can overflow
        cap = example2._reciprocal_cap
        assert cap == sys.float_info.max / 4 / example2.m
        assert cap * np.abs(example2.A).sum(axis=0).max() < sys.float_info.max / 2


class TestDirectionalSum:
    def test_axis_direction_picks_component(self):
        rng = np.random.default_rng(211)
        poly, anchor = random_polytope(rng, 4)
        p = random_interior_point(rng, poly, anchor)
        fv = f_vector(poly, p)
        for k in range(1, 5):
            got = directional_sum(poly, p, axis_direction(k, 4))
            assert got == pytest.approx(fv[k - 1], abs=1e-12)

    def test_zero_at_square_center(self, square):
        rng = np.random.default_rng(223)
        for _ in range(20):
            u = random_unit(rng, 2)
            assert directional_sum(square, (0.5, 0.5), u) == pytest.approx(
                0.0, abs=1e-12
            )

    def test_equals_projection_of_f_vector(self):
        rng = np.random.default_rng(227)
        for _ in range(200):
            poly, anchor = random_polytope(rng, int(rng.integers(2, 6)))
            p = random_interior_point(rng, poly, anchor)
            u = random_unit(rng, poly.n)
            lhs = directional_sum(poly, p, u)
            rhs = float(u @ f_vector(poly, p))
            assert abs(lhs - rhs) <= 1e-12

    def test_non_unit_rejected(self, square):
        with pytest.raises(ValueError):
            directional_sum(square, (0.5, 0.5), (1.0, 1.0))

    @pytest.mark.parametrize("u", [(np.nan, 0.0), (0.0, np.nan)])
    def test_nan_direction_rejected(self, square, u):
        # it used to return nan
        with pytest.raises(ValueError, match="unit vector"):
            directional_sum(square, (0.5, 0.5), u)


class TestFNorm:
    def test_is_linalg_norm_of_f_vector(self, square, simplex, example1, example2):
        cases = [
            (square, (0.3, 0.6)),
            (simplex, (0.2, 0.3)),
            (example1, (9.0, 6.0)),
            (example1, (3.0, 0.25)),
            (example2, (1.0, 2.0, 2.5, 1.3)),
        ]
        for n in range(2, 201, 11):
            rng = np.random.default_rng([463, n])
            poly, anchor = random_polytope(rng, n, extra=2 * n)
            cases += [(poly, random_interior_point(rng, poly, anchor)) for _ in range(3)]
        for poly, p in cases:
            got = f_norm(poly, p)
            assert type(got) is float
            assert got == float(np.linalg.norm(f_vector(poly, p)))

    def test_trace_records_hold_python_floats(self, example2):
        for search in (harmonic_center, bi_center):
            _, trace = search(example2, np.array((1.0, 2.0, 2.5, 1.3)))
            for rec in trace.records:
                assert all(type(v) is float for v in rec.point)
                assert type(rec.fnorm) is float


class TestHarmonicHyperplane:
    def test_square_off_center(self, square):
        hp = harmonic_hyperplane(square, (0.25, 0.5))
        # f = (-1/0.25 + 1/0.75, -1/0.5 + 1/0.5) = (-8/3, 0): the vertical
        # line x = 0.25
        assert hp.normal[0] == pytest.approx(-8.0 / 3.0, abs=1e-12)
        assert hp.normal[1] == pytest.approx(0.0, abs=1e-12)
        assert hp.offset == pytest.approx(-8.0 / 3.0 * 0.25, abs=1e-12)
        assert hp.offset / hp.normal[0] == pytest.approx(0.25, abs=1e-12)

    def test_degenerate_at_center(self, square):
        with pytest.raises(DegenerateAtCenterError):
            harmonic_hyperplane(square, (0.5, 0.5))

    def test_overflowing_f_vector_has_no_hyperplane(self):
        # three rows of slack 6e-309 on one side: f_1 at 0,0 overflows, so
        # the normal has no finite value; raised before any product with p
        poly = parse_polytope(
            "dims 6 2\n" + "1 0 6e-309\n" * 3 + "-1 0 1\n0 1 1\n0 -1 1\n"
        )
        assert f_vector(poly, (0.0, 0.0))[0] == np.inf
        with pytest.raises(PolytopeError, match="f-vector overflows") as info:
            harmonic_hyperplane(poly, (0.0, 0.0))
        assert type(info.value) is PolytopeError and info.value.exit_code == 1

    def test_point_is_harmonic_along_in_plane_lines(self):
        rng = np.random.default_rng(229)
        done = 0
        while done < 40:
            poly, anchor = random_polytope(rng, int(rng.integers(2, 5)))
            p = random_interior_point(rng, poly, anchor)
            fv = f_vector(poly, p)
            norm = np.linalg.norm(fv)
            if norm <= 1e-6:
                continue
            nhat = fv / norm
            w = rng.normal(size=poly.n)
            w -= (w @ nhat) * nhat
            if np.linalg.norm(w) < 1e-8:
                continue
            u = w / np.linalg.norm(w)
            q, _ = harmonic_point_on_line(poly, p, u)
            assert np.max(np.abs(q - p)) <= 1e-8
            done += 1

    def test_center_lies_on_the_negative_side(self):
        # the normal is the gradient of the convex barrier, minimal at the
        # center x*, so normal . (x* - p) < 0 at every p other than x*;
        # measured: the cosine of that angle is at most -0.70
        for case in range(20):
            rng = np.random.default_rng([263, case])
            poly, anchor = random_polytope(rng, 2 + case % 6)
            center, trace = harmonic_center(
                poly, anchor, stop_tol=1e-10, max_iter=1000, inner_tol=1e-12
            )
            assert trace.converged
            for _ in range(5):
                p = random_interior_point(rng, poly, anchor)
                normal = harmonic_hyperplane(poly, p).normal
                assert normal @ (center - p) < 0.0


class TestCsStep:
    def test_fixture_first_sweeps(self, example1, example2):
        q = cs_step(example1, (9.0, 6.0))
        assert np.allclose(q, TABLE1[(9.0, 6.0)][0], atol=TABLE_TOL)
        q = cs_step(example1, (3.0, 0.25))
        assert np.allclose(q, TABLE1[(3.0, 0.25)][0], atol=TABLE_TOL)
        # a sweep is exactly n axis updates in turn, bit for bit
        for poly, start in [
            (example1, (9.0, 6.0)),
            (example1, (3.0, 0.25)),
            (example2, (1.0, 2.0, 2.5, 1.3)),
        ]:
            q = np.array(start)
            for k in range(1, poly.n + 1):
                q = harmonic_point_on_line(poly, q, axis_direction(k, poly.n))[0]
            assert np.array_equal(cs_step(poly, start), q)

    def test_square_fixed_point(self, square):
        q = cs_step(square, (0.5, 0.5))
        assert np.allclose(q, (0.5, 0.5), atol=1e-12)


class TestHarmonicCenter:
    def test_reference_iterations(self, example1):
        finals = []
        for start, (first, final) in TABLE1.items():
            center, trace = harmonic_center(example1, start, stop_tol=0.01)
            assert trace.converged
            assert trace.iterations <= 3
            assert np.allclose(trace.records[1].point, first, atol=TABLE_TOL)
            if final is not None:
                assert np.allclose(center, final, atol=TABLE_TOL)
            assert np.allclose(center, CENTER1, atol=TABLE_TOL)
            finals.append(center)
        for other in finals[1:]:
            assert np.max(np.abs(other - finals[0])) <= TABLE_TOL

    def test_reference_four_dim_trace(self, example2):
        center, trace = harmonic_center(
            example2, (1.0, 2.0, 2.5, 1.3), stop_tol=0.01
        )
        assert trace.converged
        assert trace.iterations == 3
        assert len(trace.records) == len(TABLE2)
        for rec, (coords, fnorm) in zip(trace.records, TABLE2):
            assert np.allclose(rec.point, coords, atol=TABLE_TOL)
            assert rec.fnorm == pytest.approx(fnorm, abs=TABLE_TOL)

    def test_fnorm_decreases_across_sweeps(self, example1, example2):
        for poly, start in [
            (example1, (9.0, 6.0)),
            (example1, (3.0, 0.25)),
            (example2, (1.0, 2.0, 2.5, 1.3)),
        ]:
            _, trace = harmonic_center(poly, start, stop_tol=0.01)
            fnorms = [rec.fnorm for rec in trace.records]
            assert all(a > b for a, b in zip(fnorms, fnorms[1:]))

    def test_square_from_anywhere(self, square):
        rng = np.random.default_rng(233)
        for _ in range(5):
            start = rng.uniform(0.05, 0.95, size=2)
            center, trace = harmonic_center(square, start, stop_tol=1e-3)
            assert np.allclose(center, (0.5, 0.5), atol=1e-3)

    def test_simplex_center(self, simplex):
        center, trace = harmonic_center(simplex, (0.2, 0.3), stop_tol=1e-3)
        assert trace.converged
        assert np.allclose(center, (THIRD, THIRD), atol=1e-3)

    def test_trace_structure(self, example2):
        _, trace = harmonic_center(example2, (1.0, 2.0, 2.5, 1.3))
        iters = [rec.iteration for rec in trace.records]
        assert iters == list(range(len(iters)))
        assert trace.final.fnorm <= 0.01

    def test_non_interior_start(self, square):
        with pytest.raises(NotInteriorError):
            harmonic_center(square, (2.0, 2.0))

    def test_max_iter_flag(self, example2, overflowing_f):
        point, trace = harmonic_center(
            example2, (1.0, 2.0, 2.5, 1.3), stop_tol=1e-9, max_iter=2
        )
        assert not trace.converged
        assert trace.iterations == 2
        assert np.min(residuals(example2, point)) > 0.0
        # a NaN start is not interior
        with pytest.raises(NotInteriorError):
            harmonic_center(example2, (np.nan, 2.0, 2.5, 1.3))
        # f_1 = 3 / 6e-309 - 3 / 6e-309 overflows as a plain product; scaled
        # by the largest reciprocal it is 3 - 3 = 0, so the origin is the
        # center, and the search converges at once, with no warning
        _, trace = harmonic_center(overflowing_f, (0.0, 0.0))
        assert trace.converged
        assert trace.iterations == 0
        assert trace.final.fnorm == 0.0

    def test_bad_tolerance(self, square):
        with pytest.raises(ValueError):
            harmonic_center(square, (0.5, 0.5), stop_tol=0.0)
        for search in (harmonic_center, bi_center):
            with pytest.raises(ValueError, match="max_iter"):
                search(square, (0.5, 0.5), max_iter=-1)
            # NaN fails every comparison, so "<= 0" alone lets it through
            with pytest.raises(ValueError, match="stop_tol"):
                search(square, (0.5, 0.5), stop_tol=np.nan)
        for inner_tol in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="inner_tol"):
                harmonic_center(square, (0.5, 0.5), inner_tol=inner_tol)
        with pytest.raises(ValueError, match="tol"):
            cs_step(square, (0.5, 0.5), tol=-1.0)
        for tol in (0.0, -1.0, np.nan):
            with pytest.raises(ValueError, match="tol must be positive"):
                harmonic_point_on_line(square, (0.25, 0.5), (1.0, 0.0), tol=tol)

    def test_inner_budget_flag(self, example2):
        start = (1.0, 2.0, 2.5, 1.3)
        _, trace = harmonic_center(example2, start)
        assert trace.converged
        # no line solve can meet 1e-300 within its budget: the f-norm
        # still meets stop_tol, but the search is reported unconverged
        point, trace = harmonic_center(example2, start, inner_tol=1e-300)
        assert trace.final.fnorm <= 0.01
        assert not trace.converged
        assert np.min(residuals(example2, point)) > 0.0


class TestStageDiagnostics:
    def test_per_stage_fnorm_changes_logged(self, example1, example2, capsys):
        # a single axis move may raise the f-norm (it only zeroes its own
        # component); log any increases rather than asserting, since only
        # the full-sweep trend is checked by the stopping rule
        cases = [
            (example1, (9.0, 6.0)),
            (example1, (3.0, 0.25)),
            (example2, (1.0, 2.0, 2.5, 1.3)),
        ]
        increases = []
        for poly, start in cases:
            p = np.asarray(start, dtype=float)
            for sweep in range(6):
                if f_norm(poly, p) <= 0.01:
                    break
                q = np.array(p)
                prev = f_norm(poly, q)
                for k in range(1, poly.n + 1):
                    q, _ = harmonic_point_on_line(poly, q, axis_direction(k, poly.n))
                    cur = f_norm(poly, q)
                    if cur > prev + 1e-12:
                        increases.append((start, sweep + 1, k, prev, cur))
                    prev = cur
                p = q
        for start, sweep, k, prev, cur in increases:
            print(
                f"stage increase: start={start} sweep={sweep} axis={k} "
                f"fnorm {prev:.4f} -> {cur:.4f}"
            )


def _one_bi_sweep(poly, p):
    point, trace = bi_center(poly, p, stop_tol=1e-12, max_iter=1)
    assert trace.iterations == 1
    return point


class TestBiCenter:
    def test_square_axis_midpoint(self, square):
        q = _one_bi_sweep(square, (0.25, 0.5))
        assert np.allclose(q, (0.5, 0.5), atol=1e-12)

    def test_simplex_axis_midpoint(self, simplex):
        # nearest contacts along x at (0, .25) and (.75, .25), then along y
        # at (.375, 0) and (.375, .625)
        q = _one_bi_sweep(simplex, (0.25, 0.25))
        assert q[0] == pytest.approx(0.375, abs=1e-12)
        assert q[1] == pytest.approx(0.3125, abs=1e-12)

    def test_symmetric_section_no_move(self, square):
        # the x chord is bisected already: its stage moves by exactly 0
        q = _one_bi_sweep(square, (0.5, 0.3))
        assert q[0] == 0.5
        assert q[1] == pytest.approx(0.5, abs=1e-12)

    def test_square_center(self, square):
        point, trace = bi_center(square, (0.1, 0.8), stop_tol=1e-6)
        assert trace.converged
        assert np.allclose(point, (0.5, 0.5), atol=1e-5)

    def test_simplex_matches_harmonic_center(self, simplex):
        # every axis line here meets exactly two constraints, so midpoint
        # and harmonic updates coincide and both centers agree: the
        # harmonic center generalises the BI center
        bi, _ = bi_center(simplex, (0.2, 0.3), stop_tol=1e-8)
        hc, _ = harmonic_center(simplex, (0.2, 0.3), stop_tol=1e-6)
        gap = float(np.linalg.norm(bi - hc))
        print(f"simplex: |bi - harmonic| = {gap:.2e}")
        assert np.allclose(bi, (THIRD, THIRD), atol=1e-6)
        # chain simplices x1 <= 1, x_j - x_{j-1} <= j, -x_n <= n + 1: axis
        # line j meets rows j and j + 1 only; measured gaps 2.9e-12 (n = 3,
        # 39 harmonic sweeps) and 2.6e-11 (n = 5, 91)
        for n in (3, 5):
            A = np.eye(n + 1, n) - np.eye(n + 1, n, k=-1)
            b = np.arange(1.0, n + 2)
            chain = Polytope(A, b)
            start = -0.1 * np.arange(1.0, n + 1)
            bi, bi_trace = bi_center(chain, start, stop_tol=1e-12, max_iter=300)
            hc, hc_trace = harmonic_center(
                chain, start, stop_tol=1e-12, max_iter=300, inner_tol=1e-14
            )
            assert bi_trace.converged and hc_trace.converged
            assert np.linalg.norm(bi - hc) <= 1e-10

    def test_fixture_fixed_point_differs_from_harmonic(self, example1):
        bi, trace = bi_center(example1, (9.0, 6.0), stop_tol=1e-8)
        assert trace.converged
        # fixed-point property, verified independently of the loop
        for k in (1, 2):
            sec = section(example1, bi, axis_direction(k, 2))
            assert abs(sec.d_plus + sec.d_minus) / 2 <= 1e-8
        hc, _ = harmonic_center(example1, (9.0, 6.0), stop_tol=0.01)
        gap = float(np.linalg.norm(bi - hc))
        print(f"2-D fixture: |bi - harmonic| = {gap:.3f}")
        assert gap > 1.0

    def test_start_independent(self, example1):
        a, _ = bi_center(example1, (9.0, 6.0), stop_tol=1e-9)
        b, _ = bi_center(example1, (3.0, 0.25), stop_tol=1e-9)
        assert np.max(np.abs(a - b)) <= 1e-7
        # one bisection sweep is exactly n axis midpoint moves in turn
        for start in [(9.0, 6.0), (3.0, 0.25)]:
            q = _section_sweep(example1, start, _chord_midpoint)
            assert np.array_equal(_one_bi_sweep(example1, start), q)


def _section_stage(poly, p, k, move):
    """One axis-k stage through the generic path: ``section`` along
    ``axis_direction(k, n)``, then ``move(section)``."""
    q = np.array(p, dtype=float)
    q[k - 1] += move(section(poly, q, axis_direction(k, poly.n)))
    return q


def _section_sweep(poly, p, move):
    """One sweep through the generic path: n chained section stages."""
    q = p
    for k in range(1, poly.n + 1):
        q = _section_stage(poly, q, k, move)
    return q


def _harmonic_offset(sec):
    return solve_harmonic_offset(sec).h


def _chord_midpoint(sec):
    return 0.5 * (sec.d_plus + sec.d_minus)


# the one-axis move, called as (poly, p, k): the harmonic point of the
# axis-k line, through harmonic_point_on_line along axis_direction(k, n);
# a bisection stage runs only in a whole sweep (test_bi_center_one_sweep)
AXIS_MOVES = pytest.mark.parametrize(
    "call",
    [
        lambda poly, p, k: harmonic_point_on_line(
            poly, p, axis_direction(k, poly.n)
        )[0],
    ],
    ids=["harmonic_point_on_axis"],
)


class TestAxisStageMatchesSection:
    """The axis stage reads its bracket from the slacks and one column of
    ``A``; it must give the same floats as the generic ``section`` path."""

    # 33 and 100 cross the 32-column blocks of the slack sum
    @pytest.mark.parametrize("n", [2, 10, 33, 50, 100])
    def test_cs_step(self, n):
        rng = np.random.default_rng([401, n])
        for _ in range(5):
            poly, anchor = random_polytope(rng, n, extra=2 * n)
            p = random_interior_point(rng, poly, anchor)
            assert np.array_equal(
                cs_step(poly, p), _section_sweep(poly, p, _harmonic_offset)
            )

    @pytest.mark.parametrize("n", [2, 10, 33, 50, 100])
    def test_bi_center_one_sweep(self, n):
        rng = np.random.default_rng([409, n])
        for _ in range(5):
            poly, anchor = random_polytope(rng, n, extra=2 * n)
            p = random_interior_point(rng, poly, anchor)
            point, trace = bi_center(poly, p, stop_tol=1e-12, max_iter=1)
            assert trace.iterations == 1
            assert np.array_equal(
                point, _section_sweep(poly, p, _chord_midpoint)
            )

    @pytest.mark.parametrize("n", [2, 10])
    def test_bi_center_stop_measure(self, n):
        rng = np.random.default_rng([419, n])
        poly, anchor = random_polytope(rng, n, extra=2 * n)
        p = random_interior_point(rng, poly, anchor)
        stop_tol = 1e-6
        point, trace = bi_center(poly, p, stop_tol=stop_tol, max_iter=200)
        # the same search with the largest chord-midpoint offset taken from
        # n generic sections at each iterate
        q, sweeps = np.asarray(p, dtype=float), 0
        while sweeps < 200 and stop_tol < max(
            abs(_chord_midpoint(section(poly, q, axis_direction(k, n))))
            for k in range(1, n + 1)
        ):
            q = _section_sweep(poly, q, _chord_midpoint)
            sweeps += 1
        assert trace.converged
        assert trace.iterations == sweeps
        assert np.array_equal(point, q)

    @pytest.mark.parametrize("n", [2, 33, 100])
    def test_one_axis_calls(self, n):
        # the harmonic point of the axis line, whose point moves only
        # coordinate k; at n > 32 it crosses the 32-column blocks of the
        # slack sum
        rng = np.random.default_rng([431, n])
        poly, anchor = random_polytope(rng, n, extra=2 * n)
        p = random_interior_point(rng, poly, anchor)
        for k in range(1, n + 1):
            assert np.array_equal(
                harmonic_point_on_line(poly, p, axis_direction(k, n))[0],
                _section_stage(poly, p, k, _harmonic_offset),
            )

    @AXIS_MOVES
    def test_axis_out_of_range(self, square, call):
        # axis_direction's check: no axis moves, whatever k wraps to
        for k in (0, -1, 3):
            with pytest.raises(ValueError, match=f"axis index {k} out of range 1..2"):
                call(square, (0.25, 0.5), k)

    def _same_error(self, error, call, poly, p, k):
        with pytest.raises(error) as ref:
            section(poly, p, axis_direction(k, poly.n))
        with pytest.raises(error) as got:
            call(poly, p, k)
        assert str(got.value) == str(ref.value)

    @AXIS_MOVES
    def test_exterior_start(self, square, call):
        for p in [(2.0, 0.5), (0.5, -1.0), (1.0, 1.0), (1.5, 1.5)]:
            for k in (1, 2):
                self._same_error(NotInteriorError, call, square, p, k)

    @AXIS_MOVES
    def test_open_axis(self, call):
        # x in (0, 1); y bounded on one side only
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        for sign in (1.0, -1.0):
            poly = Polytope(A * [1.0, sign], np.array([1.0, 0.0, 1.0]))
            self._same_error(UnboundedDirectionError, call, poly, (0.5, 0.0), 2)

    def test_two_signed_zeros(self):
        # distances +0 and -0, which only a direct call can pass (a unit
        # row's distance at an interior point is never zero), ahead then
        # behind as a line's table orders them: the first sum is inf - inf,
        # a chord of zero width, and the solve stops at h = 0, unconverged
        d = np.array([0.0, 1.0, -0.0, -1.0])
        with np.errstate(divide="ignore", invalid="ignore"):
            h, its, converged = newton_offset(d, -1.0, 1.0)
            # one zero is a pole at the start: the solve cuts the bracket
            # there and finds the root on the other side
            ahead = newton_offset(np.array([0.0, 1.0, -1.0]), -1.0, 1.0)
            behind = newton_offset(np.array([1.0, -0.0, -1.0]), -1.0, 1.0)
        assert (h, its, converged) == (0.0, 1, False)
        assert -1.0 < ahead[0] < 0.0 < behind[0] < 1.0
        assert ahead[2] and behind[2]


# every reader of a point's slacks that README's "Library" names
INTERIOR_READERS = {
    "section": lambda poly, p: section(poly, p, axis_direction(1, poly.n)),
    "f_vector": f_vector,
    "f_norm": f_norm,
    "directional_sum": lambda poly, p: directional_sum(poly, p, (1.0, 0.0)),
    "harmonic_hyperplane": harmonic_hyperplane,
    # the harmonic point of the axis-1 line, the one-axis update
    "harmonic_point_on_axis": lambda poly, p: harmonic_point_on_line(
        poly, p, axis_direction(1, poly.n)
    ),
    "cs_step": cs_step,
    "harmonic_center": harmonic_center,
    "bi_center": bi_center,
}


@pytest.mark.parametrize(
    "p",
    [(np.nan, 0.5), (np.inf, 0.5), (0.5, -np.inf), (2.0, 0.5), (1.0, 0.5)],
    ids=["nan", "inf", "minus-inf", "exterior", "facet"],
)
@pytest.mark.parametrize("reader", list(INTERIOR_READERS))
def test_one_interior_rule(square, reader, p):
    # an infinite coordinate meets a zero coefficient in the slack sum,
    # 0 * inf, which numpy reports under the caller's error state
    with np.errstate(invalid="ignore"), pytest.raises(NotInteriorError):
        INTERIOR_READERS[reader](square, p)


class TestKeptSearch:
    """A search keeps one point and one slack sum across its sweeps; its
    traces must equal a loop that starts each sweep afresh."""

    @staticmethod
    def _harmonic_reference(poly, p0, stop_tol, max_iter):
        # cs_step from scratch each sweep, f_norm from fresh residuals; each
        # stage's exactness from the solve of its axis line's section, whose
        # point is the stage's, float for float
        p, exact = np.array(p0, dtype=float), True
        records = [(p, f_norm(poly, p))]
        while records[-1][1] > stop_tol and len(records) <= max_iter:
            q = p
            for k in range(1, poly.n + 1):
                q, res = harmonic_point_on_line(poly, q, axis_direction(k, poly.n))
                exact = exact and res.converged
            p = cs_step(poly, p)
            assert np.array_equal(q, p)
            records.append((p, f_norm(poly, p)))
        return records, records[-1][1] <= stop_tol and exact

    @staticmethod
    def _bi_reference(poly, p0, stop_tol, max_iter):
        # each axis moved to the midpoint of its generic section's chord,
        # p + h * u, or left where it is when that midpoint is not finite;
        # the stop measure from generic sections too
        def measure(q):
            return max(
                abs(_chord_midpoint(section(poly, q, axis_direction(k, poly.n))))
                for k in range(1, poly.n + 1)
            )

        p = np.array(p0, dtype=float)
        records = [(p, f_norm(poly, p))]
        value = measure(p)
        while value > stop_tol and len(records) <= max_iter:
            for k in range(1, poly.n + 1):
                u = axis_direction(k, poly.n)
                h = _chord_midpoint(section(poly, p, u))
                if math.isfinite(h):
                    p = p + h * u
            records.append((p, f_norm(poly, p)))
            value = measure(p)
        return records, value <= stop_tol

    @staticmethod
    def _assert_same(trace, records, converged):
        assert trace.iterations == len(records) - 1
        assert trace.converged == converged
        for i, (rec, (p, fnorm)) in enumerate(zip(trace.records, records)):
            assert rec.iteration == i
            assert np.array_equal(rec.point, p)
            assert rec.fnorm == fnorm

    # 33 and 100 cross the 32-column blocks of the slack sum
    @pytest.mark.parametrize("n", [2, 10, 33, 100])
    def test_traces_equal_fresh_sweeps(self, n):
        rng = np.random.default_rng([443, n])
        for _ in range(2):
            poly, anchor = random_polytope(rng, n, extra=2 * n)
            p = random_interior_point(rng, poly, anchor)
            # the first budget runs out; the second is enough for every
            # harmonic search and for some of the bisection ones
            for stop_tol, max_iter in ((1e-8, 12), (1e-3, 40)):
                point, trace = harmonic_center(
                    poly, p, stop_tol=stop_tol, max_iter=max_iter
                )
                records, converged = self._harmonic_reference(
                    poly, p, stop_tol, max_iter
                )
                self._assert_same(trace, records, converged)
                assert np.array_equal(point, records[-1][0])
                point, trace = bi_center(
                    poly, p, stop_tol=stop_tol, max_iter=max_iter
                )
                records, converged = self._bi_reference(poly, p, stop_tol, max_iter)
                self._assert_same(trace, records, converged)
                assert np.array_equal(point, records[-1][0])

    def test_slack_sum_set_up_once_per_search(self, monkeypatch):
        from polycenter import center

        calls = []
        set_up = center.SlackSum.__init__

        def counted(*args):
            calls.append(1)
            return set_up(*args)

        monkeypatch.setattr(center.SlackSum, "__init__", counted)
        rng = np.random.default_rng(449)
        poly, anchor = random_polytope(rng, 40, extra=40)
        p = random_interior_point(rng, poly, anchor)
        # budgets below the sweep where the harmonic search stalls (25 with
        # numpy 2.4), so that each search spends all of its budget
        for search in (harmonic_center, bi_center):
            for max_iter in (1, 5, 20):
                calls.clear()
                _, trace = search(poly, p, stop_tol=1e-12, max_iter=max_iter)
                assert trace.iterations == max_iter
                assert len(calls) == 1
        calls.clear()
        cs_step(poly, p)
        assert len(calls) == 1

    def test_caller_start_is_not_written(self, example1):
        for search in (harmonic_center, bi_center, cs_step):
            p0 = np.array([9.0, 6.0])
            result = search(example1, p0)
            point = result if search is cs_step else result[0]
            assert p0.tolist() == [9.0, 6.0]
            assert point is not p0 and not np.array_equal(point, p0)
        # a search that makes no sweep returns a copy too
        p0 = np.array([9.0, 6.0])
        point, trace = harmonic_center(example1, p0, max_iter=0)
        assert trace.iterations == 0
        assert point is not p0 and np.array_equal(point, p0)

    def test_nan_start(self, square):
        # a NaN slack is not interior: both searches raise at the start
        for search in (harmonic_center, bi_center):
            with pytest.raises(NotInteriorError):
                search(square, (np.nan, 0.5))


class TestInfiniteChordEnd:
    """Along +x from the origin, row 2's distance 1e300 / 1e-11 overflows:
    that chord has no finite midpoint."""

    @staticmethod
    def _poly():
        A = np.array([[0.0, 1.0], [1e-11, 1.0], [-1.0, 0.0], [0.0, -1.0]])
        return Polytope(A, np.array([1.0, 1e300, 1.0, 1.0]))

    def test_bi_point_stays(self):
        # the chord's end is infinite; test_bi_center_does_not_converge
        # checks that the sweep leaves the coordinate there
        poly = self._poly()
        p = np.zeros(2)
        with np.errstate(over="ignore"):
            assert math.isinf(section(poly, p, (1.0, 0.0)).d_plus)

    def test_bi_center_does_not_converge(self):
        # the search stays interior and reports that it did not converge;
        # its first sweep moves nothing, so it ends there
        with np.errstate(over="ignore"):
            point, trace = bi_center(self._poly(), (0.0, 0.0), max_iter=7)
        assert trace.iterations == 1 and not trace.converged
        assert np.array_equal(point, (0.0, 0.0))
        assert all(np.isfinite(rec.fnorm) for rec in trace.records)


# the box |x|, |y| <= 1 with x <= 1e-200: at the origin the axis-1 line's
# reciprocal distance 1e200 is finite, but its square overflows
TINY_SLACK_BOX = Polytope(
    np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
    np.array([1e-200, 1.0, 1.0, 1.0]),
)


@pytest.mark.parametrize(
    "call",
    [
        lambda: cs_step(TINY_SLACK_BOX, (0.0, 0.0)),
        lambda: harmonic_point_on_line(
            TINY_SLACK_BOX, (0.0, 0.0), axis_direction(1, 2)
        ),
        lambda: solve_harmonic_offset(section(TINY_SLACK_BOX, (0.0, 0.0), (1.0, 0.0))),
        # the +x distance overflows to an infinite bracket end
        lambda: cs_step(TestInfiniteChordEnd._poly(), (0.0, 0.0)),
    ],
    ids=["cs_step", "harmonic_point_on_axis", "solve_harmonic_offset", "infinite-end"],
)
def test_line_solve_callers_own_its_error_state(call):
    # under numpy's default state and this suite's error filter: the stage
    # loop and solve_harmonic_offset each set the line solve's error state
    # once, so no overflow or invalid operation warns, and give it back
    with np.errstate(all="warn", under="ignore"):
        before = np.geterr()
        call()
        assert np.geterr() == before


def test_bi_center_ends_on_a_sweep_that_moves_nothing(example2):
    # finite chords: from the auto start the midpoint sweeps come to rest
    # before the stop measure reaches 1e-300, and the search ends there
    p0 = find_interior_point(example2)
    _, trace = bi_center(example2, p0, stop_tol=1e-300, max_iter=1000)
    assert not trace.converged and trace.iterations < 1000
    points = [rec.point for rec in trace.records]
    assert points[-1] == points[-2]
    assert all(a != b for a, b in zip(points[:-2], points[1:-1]))
    assert trace.stalled


# bisection runs whose iterate comes back at a period above 1, at
# stop_tol=1e-300: one per fixture start, and a seeded n = 10 polytope
BI_CYCLES = ["simplex-0.2,0.3", "simplex-auto", "example1-auto", "seeded-n10"]


def _bi_cycle_start(request, case):
    """The polytope and start of a :data:`BI_CYCLES` case."""
    if case == "seeded-n10":
        rng = np.random.default_rng([901, 10, 2])
        poly, anchor = random_polytope(rng, 10, extra=20)
        return poly, random_interior_point(rng, poly, anchor)
    fixture, start = case.split("-")
    poly = request.getfixturevalue(fixture)
    if start == "auto":
        return poly, find_interior_point(poly)
    return poly, tuple(map(float, start.split(",")))


@pytest.mark.parametrize("case", BI_CYCLES)
def test_bi_center_ends_on_a_revisited_iterate(request, case):
    # the search ends when a sweep returns to an earlier row's point, at
    # any period, long before its budget and unconverged; no sweep count
    # or period is pinned, since other numpy builds sum in other orders
    poly, p0 = _bi_cycle_start(request, case)
    point, trace = bi_center(poly, p0, stop_tol=1e-300, max_iter=1000)
    assert trace.iterations < 1000 and not trace.converged
    points = [rec.point for rec in trace.records]
    assert points[trace.repeats] == points[-1] == tuple(point)
    assert len(set(points[:-1])) == len(points) - 1
    period = trace.iterations - trace.repeats
    assert period > 1 and not trace.stalled
    # the cycle is the search's: from its returned point, the search runs
    # through the same rows and comes back to it after one period
    _, again = bi_center(poly, point, stop_tol=1e-300, max_iter=period)
    assert again.iterations == period and again.repeats == 0
    cycle = [rec[1:] for rec in trace.records[trace.repeats :]]
    assert [rec[1:] for rec in again.records] == cycle


# each fixture from its table start, at the default tolerance and at one
# that only a stall or a repeat ends
MEASURED = [
    (fixture, start, tol)
    for fixture, start in (
        ("example1", (3.0, 0.25)),
        ("example2", (1.0, 2.0, 2.5, 1.3)),
        ("square", (0.25, 0.5)),
        ("simplex", (0.2, 0.3)),
    )
    for tol in (0.01, 1e-300)
]


@pytest.mark.parametrize("fixture, start, tol", MEASURED)
def test_trace_keeps_the_harmonic_stop_measure(request, fixture, start, tol):
    # the last row's f-norm, the very float the search compared with tol
    poly = request.getfixturevalue(fixture)
    _, trace = harmonic_center(poly, start, stop_tol=tol, max_iter=1000)
    assert trace.measure is trace.final.fnorm
    assert trace.converged is (tol == 0.01)


@pytest.mark.parametrize("fixture, start, tol", MEASURED)
def test_trace_keeps_the_bisection_stop_measure(request, fixture, start, tol):
    # the largest axis midpoint offset at the returned point, each read
    # here from the section of the axis line through it
    poly = request.getfixturevalue(fixture)
    point, trace = bi_center(poly, start, stop_tol=tol, max_iter=1000)
    axes = (axis_direction(k, poly.n) for k in range(1, poly.n + 1))
    sections = (section(poly, point, u) for u in axes)
    offset = max(abs(0.5 * (sec.d_plus + sec.d_minus)) for sec in sections)
    assert type(trace.measure) is float and trace.measure == offset
    assert trace.converged is (offset <= tol)


class TestHarmonicStall:
    """The harmonic search ends on a sweep that moves nothing, as the
    bisection search does: every later sweep would repeat it."""

    @staticmethod
    def _case():
        # the kept-search polytope: at stop_tol=1e-12 its iterate comes to
        # rest with the f-norm above the tolerance
        rng = np.random.default_rng(449)
        poly, anchor = random_polytope(rng, 40, extra=40)
        return poly, random_interior_point(rng, poly, anchor)

    def test_ends_on_a_sweep_that_moves_nothing(self):
        poly, p = self._case()
        point, trace = harmonic_center(poly, p, stop_tol=1e-12, max_iter=200)
        assert trace.stalled and not trace.converged
        assert trace.iterations < 200 and trace.final.fnorm > 1e-12
        points = [rec.point for rec in trace.records]
        assert points[-1] == points[-2]
        assert all(a != b for a, b in zip(points[:-2], points[1:-1]))
        # the returned point is a fixed point of the sweep
        assert np.array_equal(cs_step(poly, point), point)

    def test_a_budget_below_the_stall_is_not_stalled(self):
        poly, p = self._case()
        _, full = harmonic_center(poly, p, stop_tol=1e-12, max_iter=200)
        budget = full.iterations - 1
        _, trace = harmonic_center(poly, p, stop_tol=1e-12, max_iter=budget)
        assert trace.iterations == budget
        assert not trace.stalled and not trace.converged
        assert trace.records == full.records[:-1]

    def test_a_start_row_alone_is_not_stalled(self, example1):
        _, trace = harmonic_center(example1, (3.0, 0.25), max_iter=0)
        assert trace.iterations == 0 and not trace.stalled


class TestBarrierOracle:
    """Coordinate search is exact coordinate descent on the log barrier
    ``phi = -sum log S_i``, whose gradient is the f-vector: the harmonic
    center is the analytic center."""

    STOP_TOL = 1e-8

    @staticmethod
    def _cases(square, simplex, example1, example2):
        cases = [(square, (0.1, 0.8)), (simplex, (0.2, 0.3))]
        cases += [(example1, start) for start in TABLE1]
        cases.append((example2, (1.0, 2.0, 2.5, 1.3)))
        for n in (2, 10, 50):
            rng = np.random.default_rng([431, n])
            for _ in range(3):
                poly, anchor = random_polytope(rng, n, extra=2 * n)
                cases.append((poly, random_interior_point(rng, poly, anchor)))
        return cases

    def _searches(self, square, simplex, example1, example2):
        for poly, start in self._cases(square, simplex, example1, example2):
            center, trace = harmonic_center(
                poly, start, stop_tol=self.STOP_TOL, max_iter=1000
            )
            assert trace.converged
            yield poly, start, center, trace

    def test_barrier_non_increasing(self, square, simplex, example1, example2):
        for poly, _, _, trace in self._searches(square, simplex, example1, example2):
            phi = [barrier(poly, rec.point) for rec in trace.records]
            for before, after in zip(phi, phi[1:]):
                assert after <= before + 1e-12 * abs(before)

    def test_center_is_analytic_center(self, square, simplex, example1, example2):
        for poly, start, center, trace in self._searches(
            square, simplex, example1, example2
        ):
            ref, hess = analytic_center(poly, start)
            # the f-norm is the barrier's gradient norm, within STOP_TOL at
            # the search's center; near the minimizer the distance is about
            # that over the Hessian's smallest eigenvalue (2x for curvature)
            bound = 2.0 * self.STOP_TOL / np.linalg.eigvalsh(hess)[0]
            assert np.linalg.norm(center - ref) <= bound


class TestInvariances:
    @staticmethod
    def _oracle_bound(poly, start, tol):
        # TestBarrierOracle's bound on a search's distance from the
        # analytic center
        _, hess = analytic_center(poly, start)
        return 2.0 * tol / np.linalg.eigvalsh(hess)[0]

    def test_row_scaling_leaves_center_fixed(self):
        rng = np.random.default_rng(239)
        for _ in range(10):
            poly, anchor = random_polytope(rng, 3)
            scales = rng.uniform(0.1, 10.0, size=poly.m)
            scaled = Polytope(poly.A * scales[:, None], poly.b * scales)
            a, _ = harmonic_center(poly, anchor, inner_tol=1e-12)
            b, _ = harmonic_center(scaled, anchor, inner_tol=1e-12)
            assert np.max(np.abs(a - b)) <= 1e-9

    @pytest.mark.parametrize(
        "fixture, start",
        [("example1", (3.0, 0.25)), ("example2", (1.0, 2.0, 2.5, 1.3))],
    )
    def test_scaling_by_a_power_of_two_is_exact(self, request, fixture, start):
        # the polytope and the start times 2**k, each tolerance times the
        # scale of its measure: every sum, product, quotient and root the
        # searches take scales exactly, and no threshold reads an absolute
        # size, so each float comes out times 2**k and each verdict the
        # same.  Both polytopes divide the same rows by the same norms.
        # The searches keep k >= -20: newton_offset also reads inner_tol as
        # a relative width (ROADMAP item 2), which ends a line solve early
        # from k = -25 on example2
        poly = request.getfixturevalue(fixture)
        base, start = Polytope(poly.A, poly.b), np.array(start)
        for k in (-20, 20, 60):
            c = 2.0**k
            scaled = Polytope(poly.A, poly.b * c)
            runs = [
                (
                    harmonic_center(base, start),
                    harmonic_center(
                        scaled, start * c, stop_tol=0.01 / c, inner_tol=1e-10 / c
                    ),
                ),
                (bi_center(base, start), bi_center(scaled, start * c, 0.01 * c)),
            ]
            for (_, trace), (_, got) in runs:
                assert (got.iterations, got.converged) == (
                    trace.iterations,
                    trace.converged,
                )
                for rec, scaled_rec in zip(trace.records, got.records):
                    assert np.array_equal(np.array(rec.point) * c, scaled_rec.point)
        # the hyperplane at any scale: its normal, the f-vector, has units
        # of 1 / length, and there is no f-norm below which it is undefined
        hp = harmonic_hyperplane(base, start)
        for k in range(-900, 901, 50):
            c = 2.0**k
            got = harmonic_hyperplane(Polytope(poly.A, poly.b * c), start * c)
            assert np.array_equal(got.normal, hp.normal / c)
            assert got.offset == hp.offset

    def test_row_scales_change_nothing(self):
        # criterion 7 at any scale: each row (A_i, b_i) times 10**U(-300,
        # 300) gives the same unit rows, to rounding, and a center within
        # TestBarrierOracle's bound of the analytic center of the rows as
        # they were
        tol = TestBarrierOracle.STOP_TOL
        for case in range(20):
            rng = np.random.default_rng([281, case])
            n = 2 + case % 4
            unit, anchor = random_polytope(rng, n)
            scales = 10.0 ** rng.uniform(-300.0, 300.0, size=unit.m)
            poly = Polytope(unit.A * scales[:, None], unit.b * scales)
            assert np.abs(poly.A - unit.A).max() <= 1e-15
            center, trace = harmonic_center(poly, anchor, stop_tol=tol, max_iter=1000)
            assert trace.converged
            ref, _ = analytic_center(unit, anchor)
            bound = self._oracle_bound(unit, anchor, tol)
            assert np.linalg.norm(center - ref) <= bound

    def test_translation_moves_center_exactly(self):
        rng = np.random.default_rng(241)
        for _ in range(10):
            poly, anchor = random_polytope(rng, 3)
            t = rng.uniform(-2.0, 2.0, size=3)
            moved = Polytope(poly.A, poly.b + poly.A @ t, poly.labels)
            a, _ = harmonic_center(poly, anchor, inner_tol=1e-12)
            b, _ = harmonic_center(moved, anchor + t, inner_tol=1e-12)
            assert np.max(np.abs(b - (a + t))) <= 1e-9

    def test_linear_map_moves_the_center_with_it(self):
        # {y : A T^-1 y <= b} is the image of the polytope under y = T x, and
        # its center is T x*.  Each search is within TestBarrierOracle's
        # bound of its analytic center, the first one carried through T;
        # measured: at most 0.21 of that sum
        tol = TestBarrierOracle.STOP_TOL
        for case in range(10):
            rng = np.random.default_rng([269, case])
            n = 2 + case % 4
            poly, anchor = random_polytope(rng, n)
            Q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
            Q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
            # singular values in [0.5, 2]: a condition number of at most 4
            T = Q1 @ np.diag(rng.uniform(0.5, 2.0, size=n)) @ Q2
            mapped, start = Polytope(poly.A @ np.linalg.inv(T), poly.b), T @ anchor
            x, x_trace = harmonic_center(poly, anchor, stop_tol=tol, max_iter=1000)
            y, y_trace = harmonic_center(mapped, start, stop_tol=tol, max_iter=1000)
            assert x_trace.converged and y_trace.converged
            bound = np.linalg.norm(T, 2) * self._oracle_bound(poly, anchor, tol)
            bound += self._oracle_bound(mapped, start, tol)
            assert np.linalg.norm(y - T @ x) <= bound


class TestRotation:
    """The paper's case for the harmonic center over the BI center: the
    harmonic center is the analytic center, so it moves with a rotation of
    the polytope; the BI center bisects axis-parallel chords, and a
    rotation changes which chords those are."""

    @staticmethod
    def _pairs(n):
        """``(polytope, start, rotated polytope, Q)`` for 10 seeds: the
        rotated polytope is ``{y : A Q^T y <= b}``, the image of the first
        under ``y = Q x``."""
        for seed in range(10):
            rng = np.random.default_rng([91, n, seed])
            poly, anchor = random_polytope(rng, n, extra=3 * n)
            Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
            yield poly, anchor, Polytope(poly.A @ Q.T, poly.b), Q

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_harmonic_center_moves_with_the_rotation(self, n):
        # measured: at most 6.6e-9
        for poly, start, rotated, Q in self._pairs(n):
            center, trace = harmonic_center(poly, start, stop_tol=1e-8)
            moved, moved_trace = harmonic_center(rotated, Q @ start, stop_tol=1e-8)
            assert trace.converged and moved_trace.converged
            assert np.linalg.norm(moved - Q @ center) <= 1e-8

    @pytest.mark.parametrize("n", [2, 5, 10])
    def test_bi_center_does_not(self, n):
        # measured: both searches converge for 10, 10 and 4 of the seeds,
        # and the smallest miss is 0.022, 0.23 and 1.1
        converged = 0
        for poly, start, rotated, Q in self._pairs(n):
            center, trace = bi_center(poly, start, stop_tol=1e-8, max_iter=300)
            moved, moved_trace = bi_center(
                rotated, Q @ start, stop_tol=1e-8, max_iter=300
            )
            if trace.converged and moved_trace.converged:
                converged += 1
                assert np.linalg.norm(moved - Q @ center) > 0.01
        assert converged


class TestTraceCsv:
    def test_round_trip(self, example2):
        # each cell is a float's repr, so the text gives back every float
        _, trace = harmonic_center(example2, (1.0, 2.0, 2.5, 1.3))
        header, *rows = trace.to_csv().splitlines()
        assert header == "iter,x1,x2,x3,x4,fnorm"
        assert len(rows) == len(trace.records)
        for row, record in zip(rows, trace.records):
            first, *point, fnorm = row.split(",")
            assert int(first) == record.iteration
            assert [float(cell) for cell in point] == list(record.point)
            assert float(fnorm) == record.fnorm
