"""Harmonic center search, harmonic hyperplanes, and the bisection center.

The f-vector of an interior point ``p`` has components
``f_j = sum_i A_ij / S_i`` (slacks ``S_i`` at ``p``).  Its norm is the
convergence indicator: zero exactly at the harmonic center, growing
without bound at the boundary.  The center is found by cyclic coordinate
search: one sweep replaces each coordinate in turn with the harmonic
point of the axis line through the current iterate, and sweeps repeat
until the f-norm drops below the stopping tolerance.

For comparison, the bisection center is the point whose axis-parallel
chords it bisects; it is computed with the same sweep structure but
midpoint moves, and its own stopping rule (largest axis midpoint offset).
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateAtCenterError

# section and solve_harmonic_offset are not called here (the axis stage
# reads its bracket from the slacks), but perfbench's tracer wraps them
# under these module names.
from .harmonic import _positive, newton_offset, solve_harmonic_offset  # noqa: F401
from .lines import (  # noqa: F401
    axis_index,
    checked_unit,
    interior_slacks,
    line_bracket,
    not_interior,
    section,
    smallest,
)
from .model import _Frozen, stage_slacks

# An f-norm at or below this has no hyperplane: the point is the center.
_DEGENERATE_EPS = 1e-9


def f_vector(polytope, p):
    """The vector ``f_j = sum_i A_ij / S_i`` at interior point ``p``.

    Vanishes exactly at the harmonic center.  Rows parallel to an axis
    contribute nothing to that component (their coefficient is 0), and the
    whole vector is invariant to per-row rescaling of ``(A_i, b_i)``.
    Raises :class:`NotInteriorError` when a slack at ``p`` is not positive
    (NaN included), as does every function built on it.
    """
    s = interior_slacks(polytope, p)
    return (1.0 / s) @ polytope.A


def f_norm(polytope, p):
    """Euclidean norm of the f-vector: the closeness-to-center indicator.

    ``sqrt(v . v)``: what ``np.linalg.norm`` computes for a 1-D float
    vector ``v``, float for float, without its dispatch.
    """
    v = f_vector(polytope, p)
    return math.sqrt(v.dot(v))


def directional_sum(polytope, p, u):
    """Sum of reciprocal intersection distances along unit direction ``u``.

    Evaluates ``sum_i (A_i . u) / S_i`` directly; by rearrangement this
    equals ``u . f_vector(p)``, so it is zero for every ``u`` at the
    harmonic center and for every in-hyperplane ``u`` at any point.
    """
    u = checked_unit(u)
    s = interior_slacks(polytope, p)
    return float(((polytope.A @ u) / s).sum())


class Hyperplane(_Frozen):
    """Hyperplane ``normal . x = offset``; compares and hashes by identity."""

    def __init__(self, normal, offset):
        self.__dict__.update(normal=normal, offset=offset)


def harmonic_hyperplane(polytope, p):
    """The unique hyperplane through ``p`` in which ``p`` is harmonic.

    Its normal is the f-vector at ``p``: any line through ``p`` with a
    direction orthogonal to it has reciprocal-distance sum zero, i.e. ``p``
    is already the harmonic point of that line.  At the harmonic center the
    f-vector vanishes and no single such hyperplane exists, which raises
    :class:`DegenerateAtCenterError` (every direction is harmonic there).
    """
    v = f_vector(polytope, p)
    if np.linalg.norm(v) <= _DEGENERATE_EPS:
        raise DegenerateAtCenterError(
            "point is the harmonic center: hyperplane undefined"
        )
    p = np.asarray(p, dtype=float)
    return Hyperplane(normal=v, offset=float(v @ p))


class TraceRecord(NamedTuple):
    """One row of a center-search trace: iterate and its f-norm; a named
    tuple, so it compares and hashes by field."""

    iteration: int
    point: tuple
    fnorm: float


class CenterTrace(NamedTuple):
    """Full history of a center search, starting at iteration 0; a named
    tuple, so it compares and hashes by field."""

    records: tuple
    converged: bool

    @property
    def final(self):
        return self.records[-1]

    @property
    def iterations(self):
        return self.final.iteration

    def to_csv(self):
        """Serialize as ``iter,x1,...,xn,fnorm`` with full-precision decimals."""
        n = len(self.records[0].point)
        header = "iter," + ",".join(f"x{j}" for j in range(1, n + 1)) + ",fnorm"
        lines = [header]
        for rec in self.records:
            cells = [str(rec.iteration)]
            cells += [repr(v) for v in rec.point]
            cells.append(repr(rec.fnorm))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def parse_trace_csv(text):
    """Parse trace CSV back into the tuple of :class:`TraceRecord`.

    Values written by :meth:`CenterTrace.to_csv` round-trip exactly.
    """
    # imported here: the CLI process never reads a trace back
    import csv
    import io

    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("empty trace CSV") from None
    if header[0] != "iter" or header[-1] != "fnorm":
        raise ValueError(f"unexpected trace header: {header}")
    records = []
    for row in reader:
        if not row:
            continue
        records.append(
            TraceRecord(
                iteration=int(row[0]),
                point=tuple(float(v) for v in row[1:-1]),
                fnorm=float(row[-1]),
            )
        )
    return tuple(records)


def _record(polytope, iteration, p):
    # a NaN coordinate has no f-norm; a NaN in the record stops the search
    fnorm = float("nan") if np.isnan(p).any() else f_norm(polytope, p)
    return TraceRecord(iteration=iteration, point=tuple(p.tolist()), fnorm=fnorm)


def _sweep(polytope, p, move, axes=None, inexact=None):
    """One coordinate-search stage per 0-based axis of ``axes`` (all n by
    default), each from the point the previous one left.

    A stage reads the slacks at its point from
    :func:`~polycenter.model.stage_slacks`, exactly the floats ``residuals``
    gives there, reads the bracket of its ``polytope.axis_lines`` table
    with :func:`~polycenter.lines.line_bracket` and moves its coordinate by
    ``move(d, d_minus, d_plus)``, which returns the offset and whether it
    met its tolerance.  The axis (1-based) of every stage whose move
    missed it is appended to ``inexact`` when a list is given.  A stage computes the same floats as ``section`` along the axis
    direction and raises the same errors.  Returns the moved copy of ``p``.
    """
    q = np.array(p, dtype=float)
    axes = range(polytope.n) if axes is None else axes
    for j, s in zip(axes, stage_slacks(polytope, q, axes)):
        if not smallest(s) > 0.0:
            raise not_interior(polytope, s)
        h, exact = move(*line_bracket(polytope.axis_lines[j], s))
        q[j] += h
        if not exact and inexact is not None:
            inexact.append(j + 1)
    return q


def _harmonic_move(tol):
    _positive("tol", tol)

    def move(d, lo, hi):
        h, _, _, converged = newton_offset(d, lo, hi, tol)
        return h, converged

    return move


def _midpoint(lo, hi):
    return 0.5 * (hi + lo)


def _midpoint_move(d, lo, hi):
    return _midpoint(lo, hi), True


def _search(polytope, p0, sweep, measure, stop_tol, max_iter):
    """Sweep from ``p0`` while ``measure(p, fnorm)`` exceeds ``stop_tol``.

    The trace records the start as iteration 0 and one row per sweep, at
    most ``max_iter`` of them.  ``converged`` holds when the measure of
    the last iterate is within ``stop_tol``; a NaN measure stops the
    search unconverged.  Raises ``ValueError`` unless ``stop_tol > 0``
    and ``max_iter >= 0``.
    """
    _positive("stop_tol", stop_tol)
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    p = np.asarray(p0, dtype=float)
    records = [_record(polytope, 0, p)]
    value = measure(p, records[-1].fnorm)
    while value > stop_tol and records[-1].iteration < max_iter:
        p = sweep(p)
        records.append(_record(polytope, records[-1].iteration + 1, p))
        value = measure(p, records[-1].fnorm)
    return p, CenterTrace(records=tuple(records), converged=value <= stop_tol)


def harmonic_point_on_axis(polytope, p, k, tol=1e-10):
    """Harmonic point of the line through ``p`` parallel to axis ``k`` (1-based).

    Only coordinate ``k`` changes; the others are returned bit-identical.
    Raises ``ValueError`` for an axis outside ``1..n``.
    """
    return _sweep(polytope, p, _harmonic_move(tol), (axis_index(k, polytope.n),))


def cs_step(polytope, p, tol=1e-10, inexact=None):
    """One coordinate-search sweep: n sequential axis updates.

    For k = 1..n, moves coordinate k of the current point to the harmonic
    point of the axis-k line through it.  Each stage reads the slacks at
    the current point in :func:`~polycenter.model.stage_slacks`' summation
    order and takes the line's distances from them and the axis-k entry of
    ``polytope.axis_lines``, with no line section or direction vector.
    The result is bit-identical to n chained :func:`harmonic_point_on_axis`
    calls, which are one-stage runs of the same loop.
    If ``inexact`` is a list, the axis of every stage whose root solve ran
    out of its iteration budget before meeting ``tol`` is appended to it.
    Returns the point after stage n.
    """
    return _sweep(polytope, p, _harmonic_move(tol), inexact=inexact)


def harmonic_center(polytope, p0, stop_tol=0.01, max_iter=100, inner_tol=1e-10):
    """Run coordinate search from interior point ``p0`` to the harmonic center.

    Sweeps repeat while the f-norm of the current iterate exceeds
    ``stop_tol``; the trace records the start as iteration 0 and one row
    per completed sweep.  When ``max_iter`` runs out, or a line solve runs
    out of its own iteration budget (``inner_tol`` too tight to meet), the
    trace carries ``converged=False`` and the best iterate is still
    returned.  Raises ``ValueError`` unless ``stop_tol`` and ``inner_tol``
    are positive.

    Returns ``(center, trace)``.
    """
    _positive("inner_tol", inner_tol)
    inexact = []
    point, trace = _search(
        polytope,
        p0,
        lambda p: cs_step(polytope, p, tol=inner_tol, inexact=inexact),
        lambda p, fnorm: fnorm,
        stop_tol,
        max_iter,
    )
    if inexact:
        trace = CenterTrace(records=trace.records, converged=False)
    return point, trace


def bi_point_on_axis(polytope, p, k):
    """Midpoint of the nearest contacts of the axis-k line through ``p``.

    Coordinate k moves by ``(d_plus + d_minus) / 2``; the others are
    unchanged.  Raises ``ValueError`` for an axis outside ``1..n``.
    """
    return _sweep(polytope, p, _midpoint_move, (axis_index(k, polytope.n),))


def bi_center(polytope, p0, stop_tol=0.01, max_iter=100):
    """Fixed point whose axis-parallel chords are all bisected.

    Same sweep structure as :func:`harmonic_center` but each stage moves to
    the chord midpoint, and the stopping rule is the largest axis midpoint
    offset at the iterate (the f-norm measures harmonic centrality, which
    this point does not optimize; it is still recorded in the trace for
    comparison).

    Returns ``(point, trace)``.
    """

    def largest_offset(p, fnorm):
        s = interior_slacks(polytope, p)
        return max(
            abs(_midpoint(*line_bracket(line, s)[1:]))
            for line in polytope.axis_lines
        )

    return _search(
        polytope,
        p0,
        lambda p: _sweep(polytope, p, _midpoint_move),
        largest_offset,
        stop_tol,
        max_iter,
    )
