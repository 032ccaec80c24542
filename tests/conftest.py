"""Shared fixtures and random-instance generators for the test suite."""

from pathlib import Path

import numpy as np
import pytest

from polycenter import LineSection, Polytope, normalize_rows, parse_polytope, section

DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def square():
    return parse_polytope((DATA / "square.poly").read_text())


@pytest.fixture(scope="session")
def simplex():
    return parse_polytope((DATA / "simplex.poly").read_text())


@pytest.fixture(scope="session")
def example1():
    return parse_polytope((DATA / "example1.poly").read_text())


@pytest.fixture(scope="session")
def example2():
    return parse_polytope((DATA / "example2.poly").read_text())


@pytest.fixture(scope="session")
def two_zeros():
    """The box ``|x|, |y| <= 1`` plus the unnormalized rows ``(1e300, 0)``
    and ``(-1e300, 0)``, each with right-hand side 1e-30.  At the origin
    their axis-1 distances +-1e-330 underflow to +0 and -0, so the line
    solve's first sum is ``inf - inf``, and so is ``f_1``."""
    A = [[1e300, 0.0], [-1e300, 0.0], [1.0, 0.0], [-1.0, 0.0]]
    A += [[0.0, 1.0], [0.0, -1.0]]
    with np.errstate(over="ignore"):  # the two row norms overflow
        return Polytope(np.array(A), np.array([1e-30, 1e-30, 1.0, 1.0, 1.0, 1.0]))


def random_polytope(rng, n, extra=3):
    """Bounded polytope with a known deep interior point.

    A box around a random anchor guarantees boundedness; extra random
    halfspaces pass at distance >= 0.4 from the anchor, so the anchor is
    strictly interior with slack >= 0.4 everywhere.  Returns
    ``(polytope, anchor)``.
    """
    anchor = rng.uniform(-1.0, 1.0, size=n)
    rows, rhs = [], []
    for k in range(n):
        e = np.zeros(n)
        e[k] = 1.0
        rows.append(e.copy())
        rhs.append(anchor[k] + rng.uniform(1.0, 2.5))
        rows.append(-e)
        rhs.append(-(anchor[k] - rng.uniform(1.0, 2.5)))
    for _ in range(extra):
        a = rng.normal(size=n)
        a /= np.linalg.norm(a)
        rows.append(a)
        rhs.append(float(a @ anchor) + rng.uniform(0.4, 2.0))
    poly = normalize_rows(Polytope(np.array(rows), np.array(rhs)))
    return poly, anchor


def random_unit(rng, n):
    u = rng.normal(size=n)
    return u / np.linalg.norm(u)


def random_interior_point(rng, poly, anchor, frac=0.6):
    """Point at most ``frac`` of the way from ``anchor`` to the boundary.

    Every slack at the result is >= (1 - frac) times its value at the
    anchor, keeping reciprocal sums well conditioned.
    """
    u = random_unit(rng, poly.n)
    sec = section(poly, anchor, u)
    t = rng.uniform(frac * sec.d_minus, frac * sec.d_plus)
    return anchor + t * u


def random_section(rng, max_side=4, with_parallel=True):
    """Synthetic line section with distances in +-(0.05, 3)."""
    npos = rng.integers(1, max_side + 1)
    nneg = rng.integers(1, max_side + 1)
    values = np.concatenate(
        [
            rng.uniform(0.05, 3.0, size=npos),
            -rng.uniform(0.05, 3.0, size=nneg),
        ]
    )
    if with_parallel and rng.random() < 0.3:
        values = np.append(values, np.inf)
    return LineSection.from_distances(rng.permutation(values))


def barrier(poly, p):
    """The log barrier ``phi(p) = -sum_i log S_i`` at an interior point."""
    return float(-np.log(poly.b - poly.A @ np.asarray(p, dtype=float)).sum())


def analytic_center(poly, x0, tol=1e-20, max_iter=100):
    """Minimizer of the log barrier by damped Newton, from interior ``x0``.

    The harmonic center is the barrier's minimizer (its gradient is the
    f-vector), so this is an oracle for coordinate search that shares no
    code with it: Newton steps with Hessian ``A^T diag(1/S^2) A``, a
    backtracking line search that stays interior and decreases the barrier
    (Boyd & Vandenberghe, Convex Optimization, 9.2 and 9.5), stopping when
    half the squared Newton decrement is below ``tol``: the default leaves
    the point within about 1e-10 of the minimizer in the Hessian norm.
    Returns the point and the Hessian there.
    """
    A, b = poly.A, poly.b
    x = np.array(x0, dtype=float)
    for _ in range(max_iter):
        s = b - A @ x
        grad = A.T @ (1.0 / s)
        hess = A.T @ (A / (s * s)[:, None])
        step = -np.linalg.solve(hess, grad)
        decrement2 = float(-grad @ step)
        if decrement2 / 2.0 <= tol:
            return x, hess
        phi, t = -np.log(s).sum(), 1.0
        while True:
            s_new = b - A @ (x + t * step)
            if s_new.min() > 0.0 and (
                -np.log(s_new).sum() <= phi - 0.25 * t * decrement2
            ):
                break
            t *= 0.5
        x = x + t * step
    raise AssertionError(f"damped Newton did not converge in {max_iter} steps")


# Reference iteration table for the 2-D fixture: start -> (sweep-1 point,
# final point).  A None final means the search stops after one sweep.
TABLE1 = {
    (9.0, 6.0): ((6.01, 5.55), None),
    (3.0, 0.25): ((3.31, 5.47), (6.02, 5.55)),
    (2.0, 7.5): ((3.46, 5.48), (6.02, 5.55)),
    (5.0, 1.0): ((3.91, 5.49), (6.02, 5.55)),
    (7.0, 3.0): ((5.07, 5.52), (6.03, 5.55)),
    (5.0, 7.0): ((4.86, 5.51), (6.03, 5.55)),
}
# Where the search stops at stop_tol 0.01, not the exact harmonic center:
# from (3, 0.25), (2, 7.5) and (5, 1) it stops at x = 6.0196, 6.0205 and
# 6.0225.  The exact center is (6.0301, 5.5544), where a search at
# stop_tol 1e-12 from (3, 0.25) ends; it prints as (6.03, 5.55).
CENTER1 = (6.02, 5.55)

# Reference trace for the 4-D fixture: iterate coordinates and f-norm.
TABLE2 = (
    ((1.00, 2.00, 2.50, 1.30), 1.013),
    ((1.70, 2.68, 4.10, 2.11), 0.185),
    ((1.66, 2.82, 4.03, 2.05), 0.016),
    ((1.68, 2.83, 4.05, 2.03), 0.007),
)

TABLE_TOL = 0.02
