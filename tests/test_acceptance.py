"""Acceptance suite: every shipped guarantee, one test and one printed line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the pytest verdicts.
"""

import contextlib
import io
import math
import time

import numpy as np
import pytest

from conftest import (
    CENTER1,
    TABLE1,
    TABLE2,
    TABLE_TOL,
    random_interior_point,
    random_polytope,
    random_section,
    random_unit,
)
from polycenter import (
    InteriorSearchError,
    LineSection,
    NotInteriorError,
    Polytope,
    UnboundedDirectionError,
    bisection_oracle,
    directional_sum,
    f_vector,
    find_interior_point,
    harmonic_center,
    harmonic_point_on_line,
    parse_polytope,
    section,
    solve_harmonic_offset,
)
from polycenter.cli import EXIT_MAXITER, EXIT_PARSE, main
from polycenter.errors import PolytopeFormatError


@contextlib.contextmanager
def criterion(num, label):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {label}")
        raise
    print(f"criterion {num}: PASS - {label}")


def test_criterion_1_two_dim_regression(example1):
    with criterion(1, "2-D fixture: six starts reach (6.02, 5.55), sweep-1 points as expected"):
        t0 = time.perf_counter()
        for start, (first, final) in TABLE1.items():
            center, trace = harmonic_center(example1, start, stop_tol=0.01)
            assert trace.converged
            assert trace.iterations <= 3
            assert np.allclose(center, CENTER1, atol=TABLE_TOL)
            assert np.allclose(trace.records[1].point, first, atol=TABLE_TOL)
            if final is not None:
                assert np.allclose(center, final, atol=TABLE_TOL)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_four_dim_regression(example2):
    with criterion(2, "4-D fixture: reference trace and f-norm column, 3 sweeps"):
        t0 = time.perf_counter()
        center, trace = harmonic_center(example2, (1.0, 2.0, 2.5, 1.3), stop_tol=0.01)
        assert trace.converged
        assert trace.iterations == 3
        assert len(trace.records) == len(TABLE2)
        for rec, (coords, fnorm) in zip(trace.records, TABLE2):
            assert np.allclose(rec.point, coords, atol=TABLE_TOL)
            assert rec.fnorm == pytest.approx(fnorm, abs=TABLE_TOL)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_3_directional_identity():
    with criterion(3, "directional sum equals projected f-vector to 1e-12, 1000 triples"):
        rng = np.random.default_rng(1003)
        for i in range(1000):
            n = 2 + i % 4
            poly, anchor = random_polytope(rng, n)
            p = random_interior_point(rng, poly, anchor)
            u = random_unit(rng, n)
            lhs = directional_sum(poly, p, u)
            rhs = float(u @ f_vector(poly, p))
            assert abs(lhs - rhs) <= 1e-12


def test_criterion_4_center_line_property():
    with criterion(4, "at 50 random centers every random line is near harmonic"):
        rng = np.random.default_rng(1004)
        stop_tol = 0.01
        for i in range(50):
            n = 2 + i % 4
            poly, anchor = random_polytope(rng, n)
            center, trace = harmonic_center(poly, anchor, stop_tol=stop_tol)
            assert trace.converged
            for _ in range(100):
                u = random_unit(rng, n)
                assert abs(directional_sum(poly, center, u)) <= 2 * stop_tol


def test_criterion_5_hyperplane_property():
    with criterion(5, "100 points are harmonic along 20 in-hyperplane lines each"):
        rng = np.random.default_rng(1005)
        done = 0
        while done < 100:
            n = 2 + done % 4
            poly, anchor = random_polytope(rng, n)
            p = random_interior_point(rng, poly, anchor)
            fv = f_vector(poly, p)
            norm = float(np.linalg.norm(fv))
            if norm <= 1e-6:
                continue
            nhat = fv / norm
            lines = 0
            while lines < 20:
                w = rng.normal(size=n)
                w -= (w @ nhat) * nhat
                wn = float(np.linalg.norm(w))
                if wn < 1e-8:
                    continue
                q, _ = harmonic_point_on_line(poly, p, w / wn)
                assert np.max(np.abs(q - p)) <= 1e-8
                lines += 1
            done += 1


def test_criterion_6_oracle_equivalence():
    with criterion(6, "Newton and bisection agree to 1e-10; closed forms reproduced"):
        rng = np.random.default_rng(1006)
        for _ in range(1000):
            sec = random_section(rng)
            a = solve_harmonic_offset(sec, tol=1e-12)
            b = bisection_oracle(sec, tol=1e-12)
            assert abs(a.h - b.h) <= 1e-10
        for distances, expected in [
            ([-0.5, 0.5], 0.0),
            ([-0.25, 0.75], 0.25),
            ([-1.0, 1.0, 2.0], (4.0 - math.sqrt(28.0)) / 6.0),
        ]:
            sec = LineSection.from_distances(distances)
            assert solve_harmonic_offset(sec).h == pytest.approx(expected, abs=1e-10)
            assert bisection_oracle(sec).h == pytest.approx(expected, abs=1e-10)


def test_criterion_7_invariance_suite():
    with criterion(7, "row scaling fixes the center; translation moves it exactly"):
        rng = np.random.default_rng(1007)
        for i in range(50):
            n = 2 + i % 4
            poly, anchor = random_polytope(rng, n)
            base, _ = harmonic_center(poly, anchor, inner_tol=1e-12)

            scales = rng.uniform(0.1, 10.0, size=poly.m)
            scaled = Polytope(poly.A * scales[:, None], poly.b * scales)
            moved, _ = harmonic_center(scaled, anchor, inner_tol=1e-12)
            assert np.max(np.abs(moved - base)) <= 1e-9

            t = rng.uniform(-2.0, 2.0, size=n)
            shifted = Polytope(poly.A, poly.b + poly.A @ t)
            moved, _ = harmonic_center(shifted, anchor + t, inner_tol=1e-12)
            assert np.max(np.abs(moved - (base + t))) <= 1e-9


def test_criterion_8_analytic_fixtures(square, simplex):
    with criterion(8, "unit square center (0.5, 0.5); unit simplex center (1/3, 1/3)"):
        center, trace = harmonic_center(square, (0.13, 0.77), stop_tol=1e-3)
        assert trace.converged
        assert np.allclose(center, (0.5, 0.5), atol=1e-3)
        center, trace = harmonic_center(simplex, (0.2, 0.3), stop_tol=1e-3)
        assert trace.converged
        assert np.allclose(center, (1.0 / 3.0, 1.0 / 3.0), atol=1e-3)


def test_criterion_9_error_paths(square, tmp_path):
    with criterion(9, "documented errors and exit codes on every failure class"):
        # library surface
        with pytest.raises(NotInteriorError):
            harmonic_center(square, (2.0, 2.0))
        empty = Polytope(
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            np.array([0.0, -1.0, 5.0, 5.0]),
        )
        with pytest.raises(InteriorSearchError):
            find_interior_point(empty)
        open_poly = Polytope(
            np.array([[-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            np.array([0.0, 5.0, 5.0]),
        )
        with pytest.raises(UnboundedDirectionError):
            section(open_poly, (1.0, 0.0), (1.0, 0.0))
        with pytest.raises(PolytopeFormatError):
            parse_polytope("dims 3 2\n0 0 5\n1 0 1\n0 1 1\n")

        # CLI exit codes
        square_file = str(tmp_path / "square.poly")
        with open(square_file, "w") as fh:
            fh.write("dims 4 2\n-1 0 0\n0 -1 0\n1 0 1\n0 1 1\n")
        bad_file = str(tmp_path / "bad.poly")
        with open(bad_file, "w") as fh:
            fh.write("dims 3 2\n0 0 5\n1 0 1\n0 1 1\n")
        empty_file = str(tmp_path / "empty.poly")
        with open(empty_file, "w") as fh:
            fh.write("dims 4 2\n1 0 0\n-1 0 -1\n0 1 5\n0 -1 5\n")
        open_file = str(tmp_path / "open.poly")
        with open(open_file, "w") as fh:
            fh.write("dims 3 2\n-1 0 0\n0 -1 0\n0 1 5\n")

        quiet_out, quiet_err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(quiet_out), contextlib.redirect_stderr(
            quiet_err
        ):
            start_outside = main(["center", square_file, "--start", "2,2"])
            assert start_outside == NotInteriorError.exit_code
            assert main(["center", empty_file]) == InteriorSearchError.exit_code
            opened = main(["center", open_file, "--start", "1,1"])
            assert opened == UnboundedDirectionError.exit_code
            assert main(["center", bad_file]) == EXIT_PARSE
            assert (
                main(["center", square_file, "--start", "0.9,0.9", "--max-iter", "0"])
                == EXIT_MAXITER
            )
