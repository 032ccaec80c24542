"""Harmonic center search, harmonic hyperplanes, and the bisection center.

The f-vector of an interior point ``p`` has components
``f_j = sum_i A_ij / S_i`` (slacks ``S_i`` at ``p``).  Its norm is the
convergence indicator: zero exactly at the harmonic center, growing
without bound at the boundary.  The center is found by cyclic coordinate
search: one sweep moves each coordinate in turn to the harmonic point
of the axis line through the current iterate, until the f-norm drops
below the stopping tolerance.  The bisection center, for comparison,
moves to chord midpoints under its own stop measure.  One search loop
runs both, given the sweep and the stop measure; it keeps one point and one
slack sum across the sweeps, whose last slacks give both measures.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateAtCenterError

# section and solve_harmonic_offset are not called here, but perfbench's
# tracer wraps them under these module names.
from .harmonic import newton_offset, solve_harmonic_offset  # noqa: F401
from .lines import (  # noqa: F401
    axis_index,
    checked_unit,
    interior,
    interior_slacks,
    line_bracket,
    norm,
    section,
)
from .model import SlackSum, _count, _Frozen, _positive, residuals

# An f-norm at or below this has no hyperplane: the point is the center.
_DEGENERATE_EPS = 1e-9


def f_vector(polytope, p):
    """The vector ``f_j = sum_i A_ij / S_i`` at interior point ``p``.

    Vanishes exactly at the harmonic center.  Rows parallel to an axis
    contribute nothing to that component (their coefficient is 0), and the
    whole vector is invariant to per-row rescaling of ``(A_i, b_i)``.
    Raises :class:`NotInteriorError` unless ``p`` is strictly interior,
    every slack above :data:`~polycenter.model.SLACK_FLOOR` so that every
    ``1 / S_i`` is finite (a NaN slack is not), as does every function
    built on it and every search, from a NaN start too.
    """
    return _f_at(polytope, residuals(polytope, p))


def _f_at(polytope, s):
    """The f-vector at the slacks ``s``: the one statement of its formula,
    which :func:`f_vector` and each trace record read."""
    return (1.0 / interior(polytope, s)) @ polytope.A


def f_norm(polytope, p):
    """Euclidean norm of the f-vector: the closeness-to-center indicator.

    :func:`~polycenter.lines.norm`: ``sqrt(v . v)`` of the f-vector ``v``,
    float for float what ``np.linalg.norm`` gives, rescaled by
    ``max|v_i|`` when that under- or overflows: finite wherever the
    f-vector is, unless the norm itself exceeds the largest float.
    """
    return norm(f_vector(polytope, p))


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
    f-vector vanishes and no single such hyperplane exists: an f-norm
    (:func:`~polycenter.lines.norm`) at or below ``_DEGENERATE_EPS`` raises
    :class:`DegenerateAtCenterError` (every direction is harmonic there).
    """
    v = f_vector(polytope, p)
    if norm(v) <= _DEGENERATE_EPS:
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
        header = ["iter", *(f"x{j}" for j in range(1, n + 1)), "fnorm"]
        rows = ((rec.iteration, *rec.point, rec.fnorm) for rec in self.records)
        return csv_rows(header, *rows)


def csv_rows(*rows):
    """Each row as one line of comma-separated cells.  A cell is a name, an
    int or a Python float, whose ``str`` is its full-precision ``repr``."""
    return "".join(",".join(map(str, row)) + "\n" for row in rows)


def parse_trace_csv(text):
    """Parse trace CSV back into the tuple of :class:`TraceRecord`.

    Values written by :meth:`CenterTrace.to_csv` round-trip exactly.  Blank
    lines are skipped.  ``ValueError`` for a text with no header, a header
    not ``iter,...,fnorm``, or a row whose cell count differs from it.
    """
    rows = [line.split(",") for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty trace CSV")
    header, *body = rows
    if header[0] != "iter" or header[-1] != "fnorm":
        raise ValueError(f"unexpected trace header: {header}")
    for row in body:
        if len(row) != len(header):
            raise ValueError(
                f"trace row {','.join(row)!r} has {len(row)} cells, "
                f"header has {len(header)}"
            )
    return tuple(
        TraceRecord(int(row[0]), tuple(map(float, row[1:-1])), float(row[-1]))
        for row in body
    )


def _midpoint(d, lo, hi, tol):
    """The chord midpoint, as a move like ``newton_offset``: exact if finite."""
    h = 0.5 * (hi + lo)
    return h, 0, 0.0, math.isfinite(h)


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

    def stages(self, axes, move, tol):
        """One stage per 0-based axis of ``axes``; returns ``q``.  A stage
        moves by ``h`` from ``h, _, _, exact = move(d, lo, hi, tol)`` on its
        axis line's bracket.  An inexact stage is recorded; one whose ``h``
        is not finite (never exact) leaves the coordinate, as ``section`` would.

        The stages run under ``np.errstate(divide="ignore", invalid="ignore")``,
        set once per call: a distance that underflowed to 0 is a pole at the
        start of a line solve, and two of opposite sign make its first sum
        ``inf - inf`` (see :func:`newton_offset`).  No other step of a stage
        divides by a value that can be 0, and a slack that comes out NaN is
        not interior: the next stage or trace record raises."""
        polytope, q, s = self.polytope, self.q, self.s
        lines, moved, slacks = polytope.axis_lines, self.sum.moved, self.sum.slacks
        with np.errstate(divide="ignore", invalid="ignore"):
            for j in axes:
                d, lo, hi = line_bracket(lines[j], interior(polytope, s))
                h, _, _, exact = move(d, lo, hi, tol)
                if not exact:
                    self.inexact.append(j + 1)
                    if not math.isfinite(h):
                        continue
                q[j] += h
                moved(j)
                s = slacks()
        self.s = s
        return q

    def bisect(self):
        """``bi_center``'s sweep; False when it moved no coordinate."""
        before = self.q.copy()
        return (self.stages(range(self.polytope.n), _midpoint, 0.0) != before).any()

    def record(self, iteration):
        """The trace row of ``q``, with the f-norm at the slacks ``s``.
        Raises :class:`NotInteriorError` unless they are strictly interior,
        as at a start with a NaN coordinate."""
        fnorm = norm(_f_at(self.polytope, self.s))
        return TraceRecord(iteration, tuple(self.q.tolist()), fnorm)

    def offset(self, _record):
        """``bi_center``'s stop measure, the largest axis midpoint offset."""
        s = interior(self.polytope, self.s)
        brackets = (line_bracket(line, s) for line in self.polytope.axis_lines)
        return max(abs(0.5 * (hi + lo)) for _, lo, hi in brackets)


def _search(polytope, p0, sweep, measure, stop_tol, max_iter):
    """Sweep a kept :class:`_Search` ``run`` from ``p0`` with ``sweep(run)``
    while ``measure(run, record)``, the stop measure at trace row ``record``,
    exceeds ``stop_tol``, and until a sweep returns False (it moved nothing).
    The trace holds the start as iteration 0 and at most ``max_iter`` sweeps;
    it is ``converged`` if the last measure is within ``stop_tol`` and every
    stage was exact.  ``ValueError`` unless ``stop_tol > 0``, ``max_iter >= 0``."""
    _positive("stop_tol", stop_tol)
    _count("max_iter", max_iter)
    run = _Search(polytope, p0)
    records = [run.record(0)]
    value, moved = measure(run, records[0]), True
    while moved and value > stop_tol and len(records) <= max_iter:
        moved = sweep(run)
        records.append(run.record(len(records)))
        value = measure(run, records[-1])
    converged = value <= stop_tol and not run.inexact
    return run.q, CenterTrace(records=tuple(records), converged=converged)


def harmonic_point_on_axis(polytope, p, k, tol=1e-10):
    """Harmonic point of the line through ``p`` parallel to axis ``k`` (1-based).

    Only coordinate ``k`` changes; the others are returned bit-identical.
    Raises ``ValueError`` for an axis outside ``1..n``.
    """
    _positive("tol", tol)
    return _Search(polytope, p).stages((axis_index(k, polytope.n),), newton_offset, tol)


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
    return run.stages(range(polytope.n), newton_offset, tol)


def harmonic_center(polytope, p0, stop_tol=0.01, max_iter=100, inner_tol=1e-10):
    """Run coordinate search from interior point ``p0`` to the harmonic center.

    Sweeps repeat while the f-norm of the current iterate exceeds
    ``stop_tol``; the trace records the start as iteration 0 and one row
    per completed sweep.  When ``max_iter`` runs out, or a line solve runs
    out of its own iteration budget (``inner_tol`` too tight to meet), the
    trace carries ``converged=False`` and the best iterate is still
    returned.  Raises :class:`NotInteriorError` unless ``p0`` is strictly
    interior (a NaN coordinate is not), as :func:`bi_center` does, and
    ``ValueError`` unless ``stop_tol`` and ``inner_tol`` are positive.
    A NaN f-norm at a strictly interior iterate (an f-vector entry that is
    ``inf - inf``) fails every comparison, so it stops the search there,
    unconverged.

    Returns ``(center, trace)``.
    """
    _positive("inner_tol", inner_tol)

    def sweep(run):  # through cs_step by module name, which a tracer wraps
        cs_step(polytope, run.q, inner_tol, _run=run)
        return True

    return _search(polytope, p0, sweep, lambda _, rec: rec.fnorm, stop_tol, max_iter)


def bi_point_on_axis(polytope, p, k):
    """Midpoint of the nearest contacts of the axis-k line through ``p``.

    Coordinate k moves by ``(d_plus + d_minus) / 2``, unless that is not
    finite; the others are unchanged.  Raises ``ValueError`` for an axis
    outside ``1..n``.
    """
    return _Search(polytope, p).stages((axis_index(k, polytope.n),), _midpoint, 0.0)


def bi_center(polytope, p0, stop_tol=0.01, max_iter=100):
    """Fixed point whose axis-parallel chords are all bisected.

    Same sweep structure as :func:`harmonic_center` but each stage moves to
    the chord midpoint, and the stopping rule is the largest axis midpoint
    offset at the iterate (the f-norm measures harmonic centrality, which
    this point does not optimize; it is still recorded in the trace for
    comparison).  A chord with an infinite end has no finite midpoint: its
    stage leaves the coordinate where it is.  Then, or when a sweep moves
    no coordinate (which ends the search), ``converged`` is False.

    Returns ``(point, trace)``.
    """
    return _search(polytope, p0, _Search.bisect, _Search.offset, stop_tol, max_iter)
