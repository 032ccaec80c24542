"""Harmonic center search, harmonic hyperplanes, and the bisection center.

The f-vector of an interior point ``p`` has components
``f_j = sum_i A_ij / S_i`` (slacks ``S_i`` at ``p``).  Its norm is the
convergence indicator: zero exactly at the harmonic center, growing
without bound at the boundary.  The center is found by cyclic coordinate
search: one sweep replaces each coordinate in turn with the harmonic
point of the axis line through the current iterate, and sweeps repeat
until the f-norm drops below the stopping tolerance.  For comparison, the
bisection center bisects its axis-parallel chords: the same stage loop
with midpoint moves and its own stop measure.  A search keeps one point
and one slack sum across its sweeps; the slacks after a sweep's last
stage, which are ``residuals`` there, give both stop measures.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateAtCenterError

# section and solve_harmonic_offset are not called here, but perfbench's
# tracer wraps them under these module names.
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
from .model import SlackSum, _Frozen

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
    return _fnorm(polytope, interior_slacks(polytope, p))


def _fnorm(polytope, s):
    v = (1.0 / s) @ polytope.A  # the f-vector at positive slacks s
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


class _Search:
    """What a search keeps across its sweeps: its own float copy ``q`` of
    the start, the :class:`~polycenter.model.SlackSum` at ``q``, its slacks
    ``s`` and the 1-based axes of the stages that missed their tolerance."""

    __slots__ = ("polytope", "q", "sum", "s", "inexact")

    def __init__(self, polytope, p, inexact=None):
        self.polytope, self.q = polytope, np.array(p, dtype=float)
        self.sum = SlackSum(polytope, self.q)
        self.s = self.sum.slacks()
        self.inexact = [] if inexact is None else inexact

    def stages(self, axes, tol):
        """One stage per 0-based axis of ``axes``; returns ``q``.  A stage
        moves its coordinate by ``newton_offset`` on its axis line's bracket
        at the slacks, or with ``tol`` None to the chord midpoint unless that
        is not finite (then it is inexact), as ``section`` would."""
        polytope, q, s = self.polytope, self.q, self.s
        lines, moved, slacks = polytope.axis_lines, self.sum.moved, self.sum.slacks
        for j in axes:
            if not smallest(s) > 0.0:
                raise not_interior(polytope, s)
            d, lo, hi = line_bracket(lines[j], s)
            if tol is None:
                h = 0.5 * (hi + lo)
                exact = math.isfinite(h)
            else:
                h, _, _, exact = newton_offset(d, lo, hi, tol)
            if not exact:
                self.inexact.append(j + 1)
                if tol is None:
                    continue
            q[j] += h
            moved(j)
            s = slacks()
        self.s = s
        return q

    def record(self, iteration):
        """The trace row of ``q``, with the f-norm at the slacks ``s``."""
        s = self.s
        if smallest(s) > 0.0:
            fnorm = _fnorm(self.polytope, s)
        elif np.isnan(self.q).any():  # no f-norm; a NaN stops the search
            fnorm = math.nan
        else:
            raise not_interior(self.polytope, s)
        return TraceRecord(iteration, tuple(self.q.tolist()), fnorm)

    def largest_offset(self):
        """``bi_center``'s stop measure at the slacks ``s``."""
        s = self.s
        if not smallest(s) > 0.0:
            raise not_interior(self.polytope, s)
        brackets = (line_bracket(line, s) for line in self.polytope.axis_lines)
        return max(abs(0.5 * (hi + lo)) for _, lo, hi in brackets)


def _search(polytope, p0, tol, stop_tol, max_iter):
    """Sweep from ``p0`` while the stop measure exceeds ``stop_tol``: with
    line-solve tolerance ``tol``, :func:`cs_step` (by module name, which a
    tracer can wrap) and the f-norm; with ``tol`` None, midpoint moves and
    the largest axis midpoint offset.  The trace records the start as
    iteration 0 and at most ``max_iter`` sweeps.  ``converged`` holds when
    the last measure is within ``stop_tol`` (not NaN) and every stage met
    its tolerance.  Raises ``ValueError`` unless ``stop_tol > 0`` and
    ``max_iter >= 0``.
    """
    _positive("stop_tol", stop_tol)
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    run = _Search(polytope, p0)
    records = [run.record(0)]
    value = run.largest_offset() if tol is None else records[0].fnorm
    while value > stop_tol and len(records) <= max_iter:
        if tol is None:
            run.stages(range(polytope.n), None)
        else:
            cs_step(polytope, run.q, tol, _run=run)
        records.append(run.record(len(records)))
        value = run.largest_offset() if tol is None else records[-1].fnorm
    converged = value <= stop_tol and not run.inexact
    return run.q, CenterTrace(records=tuple(records), converged=converged)


def harmonic_point_on_axis(polytope, p, k, tol=1e-10):
    """Harmonic point of the line through ``p`` parallel to axis ``k`` (1-based).

    Only coordinate ``k`` changes; the others are returned bit-identical.
    Raises ``ValueError`` for an axis outside ``1..n``.
    """
    _positive("tol", tol)
    return _Search(polytope, p).stages((axis_index(k, polytope.n),), tol)


def cs_step(polytope, p, tol=1e-10, inexact=None, *, _run=None):
    """One coordinate-search sweep: n sequential axis updates.

    For k = 1..n, moves coordinate k of the current point to the harmonic
    point of the axis-k line through it.  Each stage reads the slacks at
    the current point, in :class:`~polycenter.model.SlackSum`'s summation
    order, and takes the line's distances from them and the axis-k entry
    of ``polytope.axis_lines``, with no line section or direction vector.
    The result is bit-identical to n chained :func:`harmonic_point_on_axis`
    calls, which are one-stage runs of the same loop.
    If ``inexact`` is a list, the axis of every stage whose root solve ran
    out of its iteration budget before meeting ``tol`` is appended to it.
    Returns the point after stage n, a new array; with ``_run``, a kept
    :class:`_Search` whose point is ``p``, the sweep continues it in place.
    """
    _positive("tol", tol)
    run = _Search(polytope, p, inexact) if _run is None else _run
    return run.stages(range(polytope.n), tol)


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
    return _search(polytope, p0, inner_tol, stop_tol, max_iter)


def bi_point_on_axis(polytope, p, k):
    """Midpoint of the nearest contacts of the axis-k line through ``p``.

    Coordinate k moves by ``(d_plus + d_minus) / 2``, unless that is not
    finite; the others are unchanged.  Raises ``ValueError`` for an axis
    outside ``1..n``.
    """
    return _Search(polytope, p).stages((axis_index(k, polytope.n),), None)


def bi_center(polytope, p0, stop_tol=0.01, max_iter=100):
    """Fixed point whose axis-parallel chords are all bisected.

    Same sweep structure as :func:`harmonic_center` but each stage moves to
    the chord midpoint, and the stopping rule is the largest axis midpoint
    offset at the iterate (the f-norm measures harmonic centrality, which
    this point does not optimize; it is still recorded in the trace for
    comparison).  A chord with an infinite end has no finite midpoint: its
    stage leaves the coordinate where it is, and the trace carries
    ``converged=False``.

    Returns ``(point, trace)``.
    """
    return _search(polytope, p0, None, stop_tol, max_iter)
