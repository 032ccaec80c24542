"""Harmonic center search, harmonic hyperplanes, and the bisection center.

The f-vector of an interior point ``p`` has components
``f_j = sum_i A_ij / S_i`` (slacks ``S_i`` at ``p``).  Its norm is the
convergence indicator: zero exactly at the harmonic center, growing
without bound at the boundary.  The center is found by cyclic coordinate
search: one sweep moves each coordinate in turn to the harmonic point
of the axis line through the current iterate, until the f-norm drops
below the stopping tolerance or the iterate comes back to an earlier
one.  The bisection center, for comparison, moves to chord midpoints
under its own stop measure.  One search loop runs both, given the sweep
and the stop measure, with one stop rule for a revisited iterate at any
period (a sweep that moves nothing is period 1); it keeps one point and
one slack sum across the sweeps, whose last slacks give both measures.
"""

import math
from typing import NamedTuple

import numpy as np

from .errors import DegenerateAtCenterError, PolytopeError

# section and solve_harmonic_offset are not called here, but perfbench's
# tracer wraps them under these module names.
from .harmonic import newton_offset, solve_harmonic_offset  # noqa: F401
from .lines import (  # noqa: F401
    axis_index,
    checked_unit,
    interior,
    largest,
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
    which :func:`f_vector` and each trace record read.

    ``r @ A`` with the reciprocals ``r = 1 / s``, unless that product is
    not finite: reciprocals near the largest float can overflow a partial
    sum, or cancel as ``inf - inf``, where the true sum is finite.  Then it
    is ``((r / r_max) @ A) * r_max``, the weights ``s_min / s`` in (0, 1]
    (each term at most ``|A_ij|``), which overflows only where the true
    entry does.  So every finite product keeps its floats.
    When ``r_max`` is within the polytope's ``_reciprocal_cap``, no partial
    sum can overflow, so the plain product is returned as it is, with no
    error state and no test.  Only above it do both products run, under
    ``np.errstate(over="ignore", invalid="ignore")``: an overflow or
    ``inf - inf`` is the test's input, and a true overflow is an infinite
    entry.
    """
    r = 1.0 / interior(polytope, s)
    top = largest(r)
    if top <= polytope._reciprocal_cap:
        return r @ polytope.A
    with np.errstate(over="ignore", invalid="ignore"):
        f = r @ polytope.A
        if not np.isfinite(f).all():
            f = (r / top) @ polytope.A * top
    return f


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
    ``ValueError`` unless ``u`` is a unit vector of shape ``(n,)``.
    """
    u = checked_unit(u, polytope.n)
    s = interior(polytope, residuals(polytope, p))
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
    Where the f-vector itself overflows (see :func:`_f_at`), the normal
    has no finite value: that raises :class:`PolytopeError`.
    """
    v = f_vector(polytope, p)
    if not np.isfinite(v).all():
        raise PolytopeError("the f-vector overflows at the point: hyperplane undefined")
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
    tuple, so it compares and hashes by field.  ``repeats`` is the
    iteration of the earlier row whose point the last row has, else
    ``None``: a search ends on such a revisited iterate, since the rows
    from ``repeats`` on would recur forever, and ``iterations - repeats``
    is the period of that cycle.  ``measure`` is the stop measure at the
    last row, the value the search compared with its ``stop_tol``: the
    f-norm ``final.fnorm`` of a harmonic search, the largest axis midpoint
    offset of a bisection search.  Both default to ``None``, so a trace
    built from its rows alone repeats nothing and has no measure."""

    records: tuple
    converged: bool
    repeats: object = None
    measure: object = None

    @property
    def final(self):
        return self.records[-1]

    @property
    def iterations(self):
        return self.final.iteration

    @property
    def stalled(self):
        """Whether the search ended on a sweep that moved nothing: the
        period-1 reading of ``repeats``, the last row having the point of
        the row just before it."""
        return self.repeats == self.iterations - 1

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
    ``s`` and whether every stage so far met its tolerance, ``exact``."""

    __slots__ = ("polytope", "q", "sum", "s", "exact")

    def __init__(self, polytope, p):
        self.polytope, self.q = polytope, np.array(p, dtype=float)
        self.sum = SlackSum(polytope, self.q)
        self.s = self.sum.slacks()
        self.exact = True

    def stages(self, axes, move, tol):
        """One stage per 0-based axis of ``axes``; returns ``q``.  A stage
        moves by ``h`` from ``h, _, _, exact = move(d, lo, hi, tol)`` on its
        axis line's bracket.  An inexact stage clears ``exact``; one whose
        ``h`` is not finite (never exact) leaves the coordinate, as
        ``section`` would.

        The stages run under ``np.errstate(all="ignore")``, set once per
        call, so the line solve sets none (see :func:`newton_offset`).  Each
        event a stage can meet is a value it handles: a distance ``s / g``
        that overflows is an infinite bracket end, on which the solve does
        not converge and the midpoint does not move; a slack that comes out
        NaN is not interior, and the next stage or trace record raises.
        :meth:`offset`, :func:`section` and the trace record's norm keep the
        caller's state; the f-vector's product sets its own (see
        :func:`_f_at`)."""
        polytope, q, s = self.polytope, self.q, self.s
        lines, moved, slacks = polytope.axis_lines, self.sum.moved, self.sum.slacks
        with np.errstate(all="ignore"):
            for j in axes:
                d, lo, hi = line_bracket(lines[j], interior(polytope, s))
                h, _, _, exact = move(d, lo, hi, tol)
                if not exact:
                    self.exact = False
                    if not math.isfinite(h):
                        continue
                q[j] += h
                moved(j)
                s = slacks()
        self.s = s
        return q

    def bisect(self):
        """``bi_center``'s sweep: a chord-midpoint stage on every axis."""
        self.stages(range(self.polytope.n), _midpoint, 0.0)

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
    exceeds ``stop_tol``, and until a sweep returns to the point of an
    earlier row, at any period (:attr:`CenterTrace.repeats`; period 1 is
    :attr:`CenterTrace.stalled`).  A sweep is a pure function of its
    iterate (kept slacks equal a fresh sum's bit for bit), so the rows from
    that earlier one on would recur forever, each with a measure that
    already missed ``stop_tol``.  The trace holds the start as iteration 0,
    at most ``max_iter`` sweeps and the last measure
    (:attr:`CenterTrace.measure`); it is ``converged`` if that measure is
    within ``stop_tol`` and every stage was exact, so a search that ends on
    a repeat is not.  ``ValueError`` unless ``stop_tol > 0``,
    ``max_iter >= 0``."""
    _positive("stop_tol", stop_tol)
    _count("max_iter", max_iter)
    run = _Search(polytope, p0)
    rows, seen = [run.record(0)], {}  # seen: each earlier row's point, its iteration
    value = measure(run, rows[-1])
    while value > stop_tol and len(rows) <= max_iter and rows[-1].point not in seen:
        seen[rows[-1].point] = len(rows) - 1
        sweep(run)
        rows.append(run.record(len(rows)))
        value = measure(run, rows[-1])
    converged = value <= stop_tol and run.exact
    return run.q, CenterTrace(tuple(rows), converged, seen.get(rows[-1].point), value)


def cs_step(polytope, p, tol=1e-10, *, _run=None):
    """One coordinate-search sweep: n sequential axis updates.

    For k = 1..n, moves coordinate k of the current point to the harmonic
    point of the axis-k line through it.  Each stage reads the slacks at
    the current point, in :class:`~polycenter.model.SlackSum`'s summation
    order, and takes the line's distances from them and the axis-k entry
    of ``polytope.axis_lines``, with no line section or direction vector.
    The result is bit-identical to n chained one-axis updates,
    :func:`~polycenter.harmonic.harmonic_point_on_line` along
    ``axis_direction(k, n)``, which solve on the same distances in the
    same order.  Returns the point after stage n, a new array; with
    ``_run``, a kept :class:`_Search` whose point is ``p``, the sweep
    continues it in place.
    """
    _positive("tol", tol)
    run = _Search(polytope, p) if _run is None else _run
    return run.stages(range(polytope.n), newton_offset, tol)


def harmonic_center(polytope, p0, stop_tol=0.01, max_iter=100, inner_tol=1e-10):
    """Run coordinate search from interior point ``p0`` to the harmonic center.

    Sweeps repeat while the f-norm of the current iterate exceeds
    ``stop_tol``; the trace records the start as iteration 0 and one row
    per completed sweep.  A sweep that returns to an earlier row's point
    ends the search, since every later sweep would repeat the rows from
    there (:attr:`CenterTrace.repeats`).  On every run measured so far
    that row was the one just before, a sweep that moved nothing
    (:attr:`CenterTrace.stalled`).
    When ``max_iter`` runs out, the search stalls above ``stop_tol``, or a
    line solve runs out of its own iteration budget (``inner_tol`` too
    tight to meet), the trace carries ``converged=False`` and the best
    iterate is still returned.  Raises :class:`NotInteriorError` unless
    ``p0`` is strictly interior (a NaN coordinate is not), as
    :func:`bi_center` does, and ``ValueError`` unless ``stop_tol`` and
    ``inner_tol`` are positive.
    The f-vector's product is rescaled where its plain sums overflow (see
    :func:`_f_at`), so the f-norm is infinite only where the true f-vector
    overflows, and the search sweeps on from there.  It is never NaN: a
    polytope's rows are unit, so the rescaled product's sums, of weights
    in (0, 1] times entries at most 1, are finite, and their product with
    the largest reciprocal is finite or infinite.

    Returns ``(center, trace)``.
    """
    _positive("inner_tol", inner_tol)

    def sweep(run):  # through cs_step by module name, which a tracer wraps
        cs_step(polytope, run.q, inner_tol, _run=run)

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
    stage leaves the coordinate where it is, and ``converged`` is then
    False.  A sweep that returns to an earlier row's point ends the search
    as it ends :func:`harmonic_center` (:attr:`CenterTrace.repeats`),
    unconverged.  Midpoint sweeps often cycle rather than stall: the
    returned point is then the last row's, a point of the cycle, and
    ``iterations - repeats`` is its period.

    Returns ``(point, trace)``.
    """
    return _search(polytope, p0, _Search.bisect, _Search.offset, stop_tol, max_iter)
