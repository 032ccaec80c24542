"""Harmonic point of a line: root of the reciprocal-distance sum.

For a line section with signed intersection distances ``d_i``, the
harmonic point sits at the offset ``h`` solving

    F(h) = sum_i 1 / (d_i - h) = 0,    d_minus < h < d_plus,

where the sum runs over the constraints the line intersects.  On the
feasible bracket ``F`` is strictly increasing (F'(h) = sum 1/(d_i - h)^2
> 0) and runs from -inf at ``d_minus`` to +inf at ``d_plus``, so the root
exists and is unique.

:func:`newton_offset` is the one solver: Newton's method with a bisection
safeguard on an array of distances and a bracket.  Each iteration takes
one reciprocal per distance, ``1 / (d_i - h)``, and reads both ``F`` (its
dot product with ones) and ``F'`` (its dot product with itself) from it.
The sums follow the order of the array, so that order is part of the
result; it is stated once, in :func:`~polycenter.model.ahead_first`: the
distances ahead of the point, then those behind it, each group in row
order.  Every line's distances come in that order from one reader,
:func:`~polycenter.lines.line_bracket`, which the coordinate search passes
on as they are.  A :class:`LineSection` keeps them in row order (it can
also be built from its fields), so :func:`solve_harmonic_offset` orders
its finite distances again.  A pure-bisection solver is kept as an
independent cross-check.
"""

import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import BracketInvalidError
from .lines import point_at, section
from .model import _count, _positive, ahead_first

# F is the dot of the reciprocals with ones; a line's ones are a slice of
# this buffer, allocated once, or a fresh array for a longer line
_ONES = np.ones(4096)
_ONES.setflags(write=False)

# a line whose nearest distance is below this may take reciprocals, or
# squares of them, beyond the float range
_NEAR = 1e-150

# half the largest float: the sum of two ends within it is finite
_HALF_MAX = sys.float_info.max / 2


class HarmonicSolveResult(NamedTuple):
    """Root-solve outcome; a named tuple, so it compares and hashes by field.

    ``h`` is the offset along the line (in the same units as the section
    distances), ``residual`` the value of the reciprocal sum at ``h``, and
    ``method`` one of ``"newton"`` or ``"bisection"``.  ``converged`` is
    False only when the iteration budget ran out, in which case ``h`` is
    the best bracketed estimate, or when the Newton sum was NaN at the
    start, ``h = 0`` (see :func:`newton_offset`).
    """

    h: float
    iterations: int
    residual: float
    method: str
    converged: bool


def _check_bracket(sec):
    if not (sec.d_minus < 0.0 < sec.d_plus):
        raise BracketInvalidError(
            f"invalid bracket ({sec.d_minus}, {sec.d_plus}): must straddle 0"
        )
    return sec.finite_distances


def newton_offset(d, lo, hi, tol=1e-10, max_iter=100):
    """Root of ``sum 1/(d_i - h)`` in the bracket ``lo < 0 < hi``.

    The one Newton loop of the package: :func:`solve_harmonic_offset` runs
    it on a section's finite distances, and the coordinate search on the
    distances of each axis line.  Safeguarded Newton iteration: starts at
    ``h = 0`` (inside the bracket, since the base point is interior), keeps
    a shrinking sub-bracket using the sign of the sum, and replaces any
    Newton step that leaves the sub-bracket by its midpoint.  Stops when
    ``|F(h)| <= tol`` or the sub-bracket is narrower than ``tol`` times
    ``hi - lo``.  A bracket with an infinite end meets neither stop: every
    distance on that side overflowed, so ``F`` keeps one sign at every
    finite ``h`` and has no root among the floats.  Such a solve runs out
    of ``max_iter`` with ``converged=False`` and a finite ``h``: a step
    with no finite Newton value and no finite midpoint leaves ``h`` where
    it is.

    Each iteration computes ``inv = 1 / (d - h)`` once, into one buffer
    (``1 / d`` at the start, ``h = 0``), and takes ``F = inv @ ones`` and
    ``F' = inv @ inv`` from it, each one BLAS dot.  ``ones`` is a slice of
    a read-only module buffer of 4096 ones (``np.ones(d.size)`` for a
    longer line), so a solve allocates only ``inv``.  Both sums follow the
    order of ``d`` and the BLAS library's order of additions; the package
    passes every line's distances ahead-then-behind (see
    :func:`~polycenter.model.ahead_first`), so that equal lines give equal
    floats.

    A bracket whose nearer end is within ``_NEAR`` of 0 is solved under
    ``np.errstate(over="ignore", invalid="ignore")``: its reciprocals may
    overflow, which only sends the step to the midpoint.  Ordinary lines
    pay one comparison per solve for this; numpy's error state is the
    caller's again on return.

    A distance of exactly 0 is a quotient that underflowed (only a
    coefficient beyond ``2**51`` along the line makes one at an interior
    point).  It lies on neither side of the bracket, and it is a pole at
    the start.  One such zero makes ``F`` infinite there: the first step
    cuts the bracket at 0 on the zero's side and goes to the midpoint.  A
    +0 and a -0 make ``F`` NaN, ``inf - inf``: poles on both sides of the
    start, a chord of zero width, so the solve stops at ``h = 0``,
    unconverged.  A NaN ``F`` later on, from reciprocals that overflowed
    on both sides of ``h``, is read as below the root: the step goes to
    the midpoint of ``(h, hi)``.  The reciprocal of a zero divides by
    zero and their sum is invalid, and only a look at every distance could
    tell them apart, so the callers that can pass one run the solve under
    ``np.errstate(divide="ignore", invalid="ignore")``: the coordinate
    search once per sweep, :func:`solve_harmonic_offset` once per call.

    Returns ``(h, iterations, residual, converged)``; ``converged`` is
    False only when ``max_iter`` ran out, and ``h`` is then the last
    bracketed estimate, or when ``F`` was NaN at the start, ``h = 0``.
    """
    if hi < _NEAR or lo > -_NEAR:
        with np.errstate(over="ignore", invalid="ignore"):
            return _newton(d, lo, hi, tol, max_iter)
    return _newton(d, lo, hi, tol, max_iter)


def _newton(d, lo, hi, tol, max_iter):
    width = hi - lo
    if width < math.inf:
        f_tol, width_tol = tol, tol * width
    else:
        f_tol = width_tol = -1.0
    h = 0.0
    inv = np.reciprocal(d)
    ones = _ONES[: d.size] if d.size <= _ONES.size else np.ones(d.size)
    converged = False
    its = 0
    for its in range(1, max_iter + 1):
        f = float(inv.dot(ones))
        if abs(f) <= f_tol:
            converged = True
            break
        if f > 0.0:
            hi = h
        elif f == f or its > 1:
            lo = h
        else:  # inf - inf at the start: poles on both sides, a zero-width chord
            break
        if hi - lo <= width_tol:
            converged = True
            break
        try:
            # inv.dot(inv) is inv @ inv, one BLAS dot, with less call overhead
            step = h - f / float(inv.dot(inv))
        except ZeroDivisionError:  # every square underflowed: no Newton step
            step = math.nan
        if not math.isfinite(step) or step <= lo or step >= hi:
            mid = 0.5 * (lo + hi)
            step = mid if math.isfinite(mid) else h
        h = step
        np.reciprocal(np.subtract(d, h, out=inv), out=inv)
    if not converged:
        f = float(inv.dot(ones))
    return h, its, f, converged


def solve_harmonic_offset(sec, tol=1e-10, max_iter=100):
    """Solve ``sum 1/(d_i - h) = 0`` on the feasible bracket of ``sec``.

    Runs :func:`newton_offset` on the section's finite distances, ordered
    by :func:`~polycenter.model.ahead_first` (by sign bit: at positive
    slacks, the sign of each row's coefficient along the line), so that an
    axis line gives the coordinate search's floats bit for bit.

    Parameters
    ----------
    sec : LineSection
        Section with a valid bracket ``d_minus < 0 < d_plus``.
    tol : float
        Tolerance (> 0, else ``ValueError``) on the reciprocal sum, with a
        relative bracket-width fallback for poles too steep to meet it in float64.
    max_iter : int
        Iteration cap (>= 0, else ``ValueError``); on exhaustion the result
        carries ``converged=False`` instead of raising.

    Returns
    -------
    HarmonicSolveResult
    """
    _positive("tol", tol)
    _count("max_iter", max_iter)
    d = _check_bracket(sec)
    d = d.take(ahead_first(d))
    # an underflowed distance: see newton_offset
    with np.errstate(divide="ignore", invalid="ignore"):
        h, its, f, converged = newton_offset(d, sec.d_minus, sec.d_plus, tol, max_iter)
    return HarmonicSolveResult(
        h=h, iterations=its, residual=f, method="newton", converged=converged
    )


def bisection_oracle(sec, tol=1e-10, max_iter=200):
    """Pure-bisection solve of the same root equation.

    Bisects ``(d_minus + eps, d_plus - eps)`` with ``eps = 1e-12`` of the
    bracket width, driven only by the sign of the reciprocal sum, so it
    converges unconditionally by monotonicity.  A bracket with an infinite
    end has no root among the floats (the sum keeps one sign): it bisects
    the bracket's part within half the largest float, meets no stop, and
    returns a finite ``h`` with ``converged=False``.  It shares the bracket
    check and its ``ValueError`` unless ``tol > 0`` and ``max_iter >= 0``
    with :func:`solve_harmonic_offset`, and deliberately neither its root
    iteration nor its summation order: it exists to cross-check it.
    ``residual`` is the sum at the returned ``h``, also when ``max_iter``
    is 0 and ``h`` is the midpoint of the shrunk bracket.
    """
    _positive("tol", tol)
    _count("max_iter", max_iter)
    d = _check_bracket(sec)
    width = sec.width
    if width < math.inf:
        eps = 1e-12 * width
        lo, hi = sec.d_minus + eps, sec.d_plus - eps
        f_tol, width_tol = tol, 1e-15 * width
    else:
        lo, hi = max(sec.d_minus, -_HALF_MAX), min(sec.d_plus, _HALF_MAX)
        f_tol = width_tol = -1.0
    h = 0.5 * (lo + hi)
    f = float(np.sum(1.0 / (d - h)))
    converged = False
    its = 0
    for its in range(1, max_iter + 1):
        h = 0.5 * (lo + hi)
        f = float(np.sum(1.0 / (d - h)))
        if abs(f) <= f_tol or (hi - lo) <= width_tol:
            converged = True
            break
        if f > 0.0:
            hi = h
        else:
            lo = h
    return HarmonicSolveResult(
        h=h, iterations=its, residual=f, method="bisection", converged=converged
    )


def harmonic_point_on_line(polytope, p, u, tol=1e-10):
    """Harmonic point of the line through interior point ``p`` along unit ``u``.

    The result is strictly interior and is a property of the line, not of
    its orientation: ``u`` and ``-u`` give the same point.  Raises
    ``ValueError`` unless ``tol > 0``.  The point is returned even when the
    line solve runs out of its budget; call :func:`solve_harmonic_offset`
    on the :func:`section` to see whether it converged.
    """
    res = solve_harmonic_offset(section(polytope, p, u), tol=tol)
    return point_at(p, u, res.h)
