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
result; it is the order of the line's table, stated once, in
:func:`~polycenter.model._axis_line`: the distances ahead of the point,
then those behind it, each group in row order.  Every line's distances
come in that order from one reader, :func:`~polycenter.lines.line_bracket`,
which the coordinate search passes on as they are, and a
:class:`~polycenter.lines.LineSection` keeps them so for
:func:`solve_harmonic_offset`.  A pure-bisection solver is kept as an
independent cross-check.
"""

import math
import sys
from typing import NamedTuple

import numpy as np

from .lines import section
from .model import _count, _positive

# F is the dot of the reciprocals with ones; a line's ones are a slice of
# this buffer, allocated once, or a fresh array for a longer line
_ONES = np.ones(4096)
_ONES.setflags(write=False)

# half the largest float: the sum of two ends within it is finite
_HALF_MAX = sys.float_info.max / 2

# the iterations of one line solve, newton_offset's, before it gives up
LINE_BUDGET = 100


class HarmonicSolveResult(NamedTuple):
    """Root-solve outcome; a named tuple, so it compares and hashes by field.

    ``h`` is the offset along the line (in the same units as the section
    distances) and ``residual`` the value of the reciprocal sum at ``h``.
    ``converged`` is False only when the iteration budget ran out, in
    which case ``h`` is the best bracketed estimate, or when the Newton sum
    was NaN at the start, ``h = 0`` (see :func:`newton_offset`).  The
    solver is the function that returned it: :func:`solve_harmonic_offset`
    or :func:`bisection_oracle`.
    """

    h: float
    iterations: int
    residual: float
    converged: bool


def newton_offset(d, lo, hi, tol=1e-10):
    """Root of ``sum 1/(d_i - h)`` in the bracket ``lo < 0 < hi``.

    The one Newton loop of the package: :func:`solve_harmonic_offset` runs
    it on a section's distances, and the coordinate search on the
    distances of each axis line, both as
    :func:`~polycenter.lines.line_bracket` returns them.  Safeguarded
    Newton iteration: starts at ``h = 0`` (inside the bracket, since the
    base point is interior), keeps a shrinking sub-bracket using the sign
    of the sum, and replaces any Newton step that leaves the sub-bracket by
    its midpoint.  Stops when
    ``|F(h)| <= tol`` or the sub-bracket is narrower than ``tol`` times
    ``hi - lo``.  A bracket with an infinite end meets neither stop: every
    distance on that side overflowed, so ``F`` keeps one sign at every
    finite ``h`` and has no root among the floats.  Such a solve runs out
    of its budget, :data:`LINE_BUDGET` (100) iterations, with
    ``converged=False`` and a finite ``h``: a step with no finite Newton
    value and no finite midpoint leaves ``h`` where it is.

    Each iteration computes ``inv = 1 / (d - h)`` once, into one buffer
    (``1 / d`` at the start, ``h = 0``), and takes ``F = inv @ ones`` and
    ``F' = inv @ inv`` from it, each one BLAS dot.  ``ones`` is a slice of
    a read-only module buffer of 4096 ones (``np.ones(d.size)`` for a
    longer line), so a solve allocates only ``inv``.  Both sums follow the
    order of ``d`` and the BLAS library's order of additions; the package
    passes every line's distances in its table's order, ahead then behind
    (see :func:`~polycenter.model._axis_line`), so that equal lines give
    equal floats.

    A distance of exactly 0 comes only from a direct call: a polytope's
    rows are unit, so at an interior point no line's distance is zero (see
    :func:`~polycenter.lines.line_bracket`).  It lies on neither side of
    the bracket, and it is a pole at the start.  One such zero makes ``F``
    infinite there: the first step cuts the bracket at 0 on the zero's
    side and goes to the midpoint.  A +0 and a -0 make ``F`` NaN,
    ``inf - inf``: poles on both sides of the start, a chord of zero
    width, so the solve stops at ``h = 0``, unconverged.  A NaN ``F``
    later on, from reciprocals that overflowed on both sides of ``h``, is
    read as below the root: the step goes to the midpoint of ``(h, hi)``.

    The loop sets no error state of its own.  Each floating-point event it
    can meet is a value it handles: a zero's reciprocal divides by zero,
    a reciprocal or square of a distance near 0 overflows (which sends the
    step to the midpoint), and ``inf - inf`` is invalid.  Its two callers
    run it under ``np.errstate(all="ignore")``, each set once per call:
    the coordinate search's stage loop (see
    :meth:`~polycenter.center._Search.stages`) and
    :func:`solve_harmonic_offset`.  A direct call warns as numpy's state
    says.

    Returns ``(h, iterations, residual, converged)``; ``converged`` is
    False only when the budget ran out, and ``h`` is then the last
    bracketed estimate, or when ``F`` was NaN at the start, ``h = 0``.
    """
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
    for its in range(1, LINE_BUDGET + 1):
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


def solve_harmonic_offset(sec, tol=1e-10):
    """Solve ``sum 1/(d_i - h) = 0`` on the feasible bracket of ``sec``.

    Runs :func:`newton_offset` on the section's distances as it keeps them,
    in its table's order (ahead, then behind, each in row order; see
    :func:`~polycenter.model._axis_line`), with no sort and no bracket
    check: a section's bracket straddles 0 by construction.  So an axis
    line gives the coordinate search's floats bit for bit.  The solve runs
    under ``np.errstate(all="ignore")``, set once per call: its overflow
    and ``inf - inf`` are values it handles (see :func:`newton_offset`).
    :func:`section` keeps the caller's state.  The solve has
    :func:`newton_offset`'s budget, :data:`LINE_BUDGET` (100) iterations;
    when it runs out, the result carries ``converged=False`` instead of
    raising.

    Parameters
    ----------
    sec : LineSection
        Section of a line, from :func:`section` or
        :meth:`~polycenter.lines.LineSection.from_distances`.
    tol : float
        Tolerance (> 0, else ``ValueError``) on the reciprocal sum, with a
        relative bracket-width fallback for poles too steep to meet it in float64.

    Returns
    -------
    HarmonicSolveResult
    """
    _positive("tol", tol)
    d = sec._ordered
    with np.errstate(all="ignore"):
        h, its, f, converged = newton_offset(d, sec.d_minus, sec.d_plus, tol)
    return HarmonicSolveResult(h, its, f, converged)


def bisection_oracle(sec, tol=1e-10, max_iter=200):
    """Pure-bisection solve of the same root equation.

    Bisects ``(d_minus + eps, d_plus - eps)`` with ``eps = 1e-12`` of the
    bracket width, driven only by the sign of the reciprocal sum, so it
    converges unconditionally by monotonicity.  A bracket with an infinite
    end has no root among the floats (the sum keeps one sign): it bisects
    the bracket's part within half the largest float, meets no stop, and
    returns a finite ``h`` with ``converged=False``.  It shares its
    ``ValueError`` unless ``tol > 0`` with :func:`solve_harmonic_offset`,
    and raises one unless ``max_iter >= 0`` too.  Deliberately, it shares
    neither the root iteration nor the summation order (it sums
    ``finite_distances``, in row order): it exists to cross-check them,
    at a budget the cross-check sets.
    ``residual`` is the sum at the returned ``h``, also when ``max_iter``
    is 0 and ``h`` is the midpoint of the shrunk bracket.
    """
    _positive("tol", tol)
    _count("max_iter", max_iter)
    d = sec.finite_distances
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
    return HarmonicSolveResult(h, its, f, converged)


def harmonic_point_on_line(polytope, p, u, tol=1e-10):
    """Harmonic point of the line through interior point ``p`` along unit ``u``.

    Returns ``(point, result)``: the point at the offset ``result.h`` along
    ``u``, and the :class:`HarmonicSolveResult` of the line solve, which
    :func:`solve_harmonic_offset` gives on the :func:`section`.  The point
    is returned even when that solve runs out of its budget, with
    ``result.converged`` False.  It is strictly interior and is a property
    of the line, not of its orientation: ``u`` and ``-u`` give the same
    point.  Along ``axis_direction(k, n)`` it is the one-axis update of the
    coordinate search, float for float.  Raises ``ValueError`` unless
    ``tol > 0``, and as :func:`section` does unless ``p`` has shape
    ``(n,)`` and ``u`` has ``n`` entries.
    """
    res = solve_harmonic_offset(section(polytope, p, u), tol=tol)
    return np.asarray(p, dtype=float) + res.h * np.asarray(u, dtype=float), res
