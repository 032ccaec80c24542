"""Halfspace polytopes: construction, file parsing, residuals.

A polytope is the solution set of ``A @ x <= b`` with ``A`` of shape
``(m, n)``, ``m > n``.  Rows are unit-normalized on ingestion so that the
slack of a constraint at a point equals the Euclidean distance from the
point to the constraint's boundary hyperplane.

File format (``.poly``, UTF-8 text; a leading byte-order mark is skipped)::

    # comment lines start with '#'; blank lines are ignored
    dims <m> <n>
    <A_i1> <A_i2> ... <A_in> <b_i> [label]     (exactly m such rows)

Every bound, including nonnegativity, must appear as an explicit row
(e.g. ``-1 0 0 x_nonneg`` for ``x >= 0``).  Numbers use standard decimal
or scientific notation; parsing is locale-independent.
"""

import math
import sys
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InteriorSearchError, PolytopeFormatError

# A line whose direction meets row i with |A_i . u| at or below this is
# parallel to constraint i: it never meets it.
PARALLEL_EPS = 1e-12

# Columns per block of the slack sum (see residuals).
BLOCK = 32

# The one rule for a usable point: a slack at or below this has an infinite
# reciprocal (1 / 2**-1024 overflows), a slack above it a finite one.  A
# point is strictly interior when every slack is above it (NaN is not).
SLACK_FLOOR = 2.0 ** -1024

# The projection steps find_interior_point takes before it gives up.
INTERIOR_BUDGET = 1000


def _row_label(labels, i):
    """Display name of row ``i`` (0-based): ``labels[i]``, or ``c<i + 1>``
    when ``labels`` or that entry is None."""
    return f"c{i + 1}" if labels is None or labels[i] is None else labels[i]


def _positive(name, value):
    """Raise ``ValueError`` unless ``value > 0`` (NaN fails too)."""
    if not value > 0.0:
        raise ValueError(f"{name} must be positive")


def _count(name, value):
    """Raise ``ValueError`` unless the iteration budget ``value >= 0``."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative")


class AxisLine(NamedTuple):
    """What the line along ``u`` meets, read from ``A @ u`` (column k of
    ``A`` for the axis-k line): the table of every line.

    ``rows`` are the rows with ``|A_i . u| > PARALLEL_EPS``, in the order
    :func:`_axis_line` states: first the ``ahead`` rows with a positive
    coefficient ``g = A[rows] @ u``, then those with a negative one, each
    group in row order.  At an interior point the line meets the first
    group ahead of it and the second behind it.  A line's distances are
    summed in this order, which is part of the result: the coordinate
    search and every ``LineSection`` keep it.  ``rows`` and ``g`` are
    read-only, 2 words per row the line meets.
    """

    rows: np.ndarray
    g: np.ndarray
    ahead: int


def _axis_line(column):
    """The :class:`AxisLine` of coefficients ``column``, arrays read-only.

    The rows with a coefficient above ``PARALLEL_EPS`` and then those below
    ``-PARALLEL_EPS``, each in row order, without a sort.  This is the one
    statement of the order in which a line's distances are summed: the
    coordinate search reads them in it, a ``LineSection`` keeps them in it,
    and ``solve_harmonic_offset`` solves on them as kept.  At an interior
    point a distance has the sign of its coefficient (see
    :func:`~polycenter.lines.line_bracket`), so the order is also ahead,
    then behind.
    """
    above = column > PARALLEL_EPS
    below = column < -PARALLEL_EPS
    ahead = int(np.count_nonzero(above))
    # rows and g are allocated before the index temporaries and filled in
    # place: per-axis arrays allocated after them left the heap fragmented
    # when a table was freed, which raised the peak RSS of a stream of
    # n = 200 polytopes (the sweep_large benchmark) by 1.1 to 1.6 MB
    rows = np.empty(ahead + int(np.count_nonzero(below)), dtype=np.intp)
    g = np.empty(rows.size)
    np.concatenate((above.nonzero()[0], below.nonzero()[0]), out=rows)
    column.take(rows, out=g)
    rows.setflags(write=False)
    g.setflags(write=False)
    return AxisLine(rows, g, ahead)


def _normal(s):
    """Whether the sum of squares ``s`` (a float, or an array of them) is a
    normal float, at least ``sys.float_info.min`` and finite: the one
    statement of when a norm rescales (see :func:`_scaled_norm`)."""
    return (s >= sys.float_info.min) & (s < math.inf)


def _scaled_norm(v):
    """``(m, r)``: ``v / m`` has norm ``r = sqrt((v / m) . (v / m))``.

    ``m`` is 1.0, so that ``r`` is ``sqrt(v . v)``, unless ``v . v`` is not
    a normal float (:func:`_normal`): a sum below the smallest normal float,
    subnormal or 0, has lost bits to underflow, and one that is not finite
    has overflowed or holds a NaN or inf.  Then, for a finite nonzero ``v``,
    ``m = max|v_i|`` (Blue 1978, *ACM TOMS* 4), and ``r`` is finite and at
    least 1.
    """
    s = v.dot(v)
    if not _normal(s):
        m = float(np.abs(v).max())
        if 0.0 < m < math.inf:  # else zero, or an inf or NaN entry: s is right
            return m, norm(v / m)  # (v / m) . (v / m) is at least 1: normal
    return 1.0, math.sqrt(s)


def norm(v):
    """Euclidean norm of the 1-D float array ``v``: every vector norm in
    the package, and the norm of each row of ``A`` whose sum of squares is
    not normal (see :func:`_check_rows`).

    ``sqrt(v . v)``, float for float what ``np.linalg.norm`` gives, where
    ``v . v`` is a normal float; else ``m * sqrt(w . w)`` with
    ``w = v / m`` and ``m = max|v_i|`` (:func:`_scaled_norm`).  So a finite
    vector's norm is finite unless it exceeds the largest float, 0 only for
    the zero vector, and otherwise within a few ulps of the true norm,
    however small or large; a vector with a NaN entry has norm NaN, else
    one with an infinite entry has norm inf.  An overflow in ``v . v``
    warns under the caller's numpy error state.
    """
    m, r = _scaled_norm(v)
    return m * r


def _check_rows(A, b, lines=None):
    """The one rule for the rows of ``A @ x <= b``: raise
    :class:`PolytopeFormatError` for the first bad row in row order.  A row
    is bad when it has a non-finite entry in ``A`` or ``b``, else when its
    norm is exactly 0; so ``0 0 nan`` is a non-finite entry.  After every
    such row comes the first row whose quotient by its norm, the unit row
    :class:`Polytope` keeps, breaks the rule: a norm above the largest
    float leaves a zero row, and ``b_i`` over a tiny norm can overflow to
    a non-finite entry.  No threshold decides what is zero, so scaling a
    row changes no verdict unless a float overflows.  The error names
    ``lines[i]``, the file line of row ``i``, when ``lines`` is given,
    else the row's index.  Returns the row norms.

    The squares are summed by ``einsum``, so no m x n temporary is made,
    and a row's norm is the root of its sum.  A row whose sum is not a
    normal float (:func:`_normal`: it underflowed or overflowed, or the row
    holds a non-finite entry) or whose quotient ``b_i / norm`` is not
    finite is measured again by :func:`norm`, which rescales it; only the
    rows so flagged are read again.  The check runs under its own
    ``np.errstate(all="ignore")``: an overflowed square, a division by a
    zero norm and an overflowed quotient are values it reads, so it warns
    under no caller's state.
    """
    with np.errstate(all="ignore"):
        sq = np.einsum("ij,ij->i", A, A)
        norms = np.sqrt(sq)
        unit = _normal(sq) & np.isfinite(b / norms)
        if not unit.all():
            rows = np.flatnonzero(~unit)
            norms[rows] = [norm(A[i]) for i in rows]
            rows = rows[~((norms[rows] < np.inf) & np.isfinite(b[rows] / norms[rows]))]
            if rows.size:
                finite = np.isfinite(A[rows]).all(axis=1) & np.isfinite(b[rows])
                # the first row bad as it is; with none, argmax gives 0, the
                # first row left, which is bad only in its quotient
                j = (~finite | (norms[rows] == 0.0)).argmax()
                zero = finite[j] and not 0.0 < norms[rows[j]] < np.inf
                error = "zero coefficient row" if zero else "non-finite entry"
                if lines is not None:
                    raise PolytopeFormatError(error, line=lines[rows[j]])
                at = " at index" if zero else " in row at index"
                raise PolytopeFormatError(f"{error}{at} {rows[j]}")
    return norms


class _Frozen:
    """Base of the types that compare and hash by identity, as objects do:
    their fields hold arrays, whose ``==`` is elementwise.  The fields are
    set once, when the object is made; assigning to or deleting one raises
    ``AttributeError``.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Polytope(_Frozen):
    """Closed convex polytope ``{x : A @ x <= b}``, with unit rows.

    ``A`` and ``b`` are stored as read-only float arrays: the arguments,
    each row ``(A_i, b_i)`` divided by the norm of ``A_i``, so the feasible
    set is the arguments' and the slack of a constraint at a point is the
    distance to its boundary.  ``A`` is column-major, so that a block of
    its columns, as :class:`SlackSum` reads it, is one contiguous slab; the
    quotient is taken in place in that copy, the one m x n array made.
    ``labels``, when given, names each constraint row: ``str`` of each
    entry, or None, which names the row ``c<i + 1>``.  Construction
    requires more rows than columns (``m > n``) and rejects, by its index,
    the first row in row order with a non-finite entry or else a norm of
    exactly 0; then the first row whose quotient breaks that rule: a norm
    above the largest float leaves a zero row, a tiny one can overflow
    ``b_i`` (:func:`_check_rows`).  A row's norm is rescaled where its sum
    of squares is not a normal float (:func:`norm`), so a row scaled by
    any factor that keeps its entries normal floats and its quotient
    finite gives the same unit row, to rounding.  A labels count other
    than ``m`` is rejected after every row error.  It does not verify
    boundedness.
    The per-axis table :attr:`axis_lines` is derived from ``A`` on first
    use and kept; it is read-only too.  Polytopes compare and hash by
    identity, and their fields cannot be reassigned.
    """

    def __init__(self, A, b, labels=None):
        A = np.array(A, dtype=float, order="F")
        b = np.array(b, dtype=float).ravel()
        if A.ndim != 2:
            raise PolytopeFormatError("coefficient matrix must be two-dimensional")
        m, n = A.shape
        if n < 1:
            raise PolytopeFormatError("dimension count must be at least 1")
        if b.shape != (m,):
            raise PolytopeFormatError(
                f"right-hand side has {b.shape[0]} entries, expected {m}"
            )
        if m <= n:
            raise PolytopeFormatError(
                f"need more constraints than dimensions, got m={m} <= n={n}"
            )
        norms = _check_rows(A, b)
        if labels is not None:
            labels = tuple(None if s is None else str(s) for s in labels)
            if len(labels) != m:
                raise PolytopeFormatError(f"{len(labels)} labels for {m} constraints")
        A /= norms[:, None]
        b /= norms
        A.setflags(write=False)
        b.setflags(write=False)
        self.__dict__.update(A=A, b=b, labels=labels)

    @property
    def m(self):
        """Number of constraints."""
        return self.A.shape[0]

    @property
    def n(self):
        """Number of variables."""
        return self.A.shape[1]

    @cached_property
    def axis_lines(self):
        """One :class:`AxisLine` per axis, built on first use and then kept.

        ``A`` never changes, so neither does the table.
        """
        return tuple(_axis_line(column) for column in self.A.T)

    @cached_property
    def _reciprocal_cap(self):
        """The largest reciprocal slack at which no partial sum of ``r @ A``
        can overflow (see :func:`~polycenter.center._f_at`): a quarter of
        the largest float over ``m``.  A unit row's entries are at most 1 up
        to rounding, so every column's ``sum_i |A_ij|`` is at most ``m``
        up to rounding, well within the factor 2 the quarter leaves."""
        return sys.float_info.max / 4 / self.m

    def __repr__(self):
        return f"Polytope(m={self.m}, n={self.n})"


def normalize_rows(polytope):
    """Return ``polytope`` itself: its rows are unit already, since
    :class:`Polytope` divides every row by its norm when it is made.

    Not exported: kept only for the benchmark, whose workloads
    (``perfbench/workloads.py``) call ``model.normalize_rows`` and whose
    tracer wraps it as its ``model.polytope_build`` span."""
    return polytope


def parse_polytope(text):
    """Parse ``.poly`` file content into a row-normalized :class:`Polytope`.

    Raises :class:`PolytopeFormatError`, naming the offending line, on
    syntax errors, ``m <= n``, row/dimension mismatches, or rows that
    :func:`_check_rows` rejects.  The rows are checked together, once:
    reading stops at the first syntax or value error, and the first bad
    row on an earlier line is reported before it, also a row that turns
    zero or non-finite only when normalized.
    """
    content = (
        (lineno, line.split())
        for lineno, line in enumerate(map(str.strip, text.splitlines()), start=1)
        if line and not line.startswith("#")
    )
    lineno, tokens = next(content, (None, None))
    if tokens is None:
        raise PolytopeFormatError("missing 'dims <m> <n>' header")
    if tokens[0] != "dims" or len(tokens) != 3:
        raise PolytopeFormatError("expected header 'dims <m> <n>'", line=lineno)
    try:
        m, n = int(tokens[1]), int(tokens[2])
    except ValueError:
        raise PolytopeFormatError(
            "dims header takes two integers", line=lineno
        ) from None
    if m < 1 or n < 1:
        raise PolytopeFormatError("dims must be positive", line=lineno)
    if m <= n:
        raise PolytopeFormatError(
            f"need more constraints than dimensions, got m={m} <= n={n}", line=lineno
        )
    values, lines, labels = [], [], []
    held = None
    try:
        for lineno, tokens in content:
            if len(lines) == m:
                raise PolytopeFormatError(
                    f"extra data after {m} constraint rows", line=lineno
                )
            label = f"c{len(lines) + 1}"
            if len(tokens) == n + 2:
                try:
                    float(tokens[-1])
                except ValueError:
                    label = tokens[-1]
                    tokens = tokens[:-1]
                else:
                    raise PolytopeFormatError(
                        f"row has {n + 2} numbers, expected {n} coefficients "
                        "and one right-hand side",
                        line=lineno,
                    )
            if len(tokens) != n + 1:
                raise PolytopeFormatError(
                    f"row has {len(tokens)} fields, expected {n + 1}", line=lineno
                )
            try:
                values.append([float(t) for t in tokens])
            except ValueError as exc:
                raise PolytopeFormatError(str(exc), line=lineno) from None
            lines.append(lineno)
            labels.append(label)
    except PolytopeFormatError as exc:
        held = exc
    # the rows read before the error that stopped the reading come first
    if lines:
        rows = np.array(values)
        _check_rows(rows[:, :n], rows[:, n], lines)
    if held is not None:
        raise held
    if len(lines) != m:
        raise PolytopeFormatError(f"expected {m} constraint rows, found {len(lines)}")
    return Polytope(rows[:, :n], rows[:, n], labels)


def load_polytope(path):
    """Read and parse a ``.poly`` file."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        return parse_polytope(fh.read())


class SlackSum:
    """The slacks at a point ``q`` that a coordinate search moves in place.

    :meth:`slacks` is the one statement of the summation order, which is
    part of the result: ``signs @ terms``, one BLAS matrix-vector product
    with ``signs = (1, -1, ..., -1)``; for ``n <= BLOCK`` exactly
    ``b - A @ q``, since a product by 1 or -1 is exact.  :meth:`moved`
    recomputes the one block a move of ``q[j]`` changed (``BLOCK`` columns
    of ``A``, not n), so the slacks stay a fresh sum's, float for float.
    """

    __slots__ = ("_signs", "_terms", "_blocks")

    def __init__(self, polytope, q):
        """The sum at ``q``: ``terms`` holds ``b`` and, per block of
        ``BLOCK`` columns, that block's product; each block keeps its slab
        of the column-major ``A`` (one contiguous slab), its view of ``q``
        and its row of ``terms``.  Raises ``ValueError`` unless ``q`` has
        shape ``(n,)``."""
        A = polytope.A
        m, n = A.shape
        if q.shape != (n,):
            raise ValueError(f"point has shape {q.shape}, expected ({n},)")
        starts = range(0, n, BLOCK)
        self._terms = np.empty((len(starts) + 1, m))
        self._terms[0] = polytope.b
        self._blocks = [
            (A[:, lo : lo + BLOCK], q[lo : lo + BLOCK], term)
            for lo, term in zip(starts, self._terms[1:])
        ]
        for slab, x, term in self._blocks:
            slab.dot(x, out=term)
        self._signs = np.array((1.0,) + (-1.0,) * len(starts))

    def slacks(self):
        """The slacks at ``q``, a new array."""
        return self._signs.dot(self._terms)

    def moved(self, j):
        """Take in a move of ``q[j]`` (0-based ``j``)."""
        slab, x, term = self._blocks[j // BLOCK]
        slab.dot(x, out=term)


def residuals(polytope, p):
    """Per-constraint slack ``S_i = b_i - A_i . p`` at point ``p``.

    Positive entries mean the point is strictly on the feasible side of the
    constraint; with unit-normalized rows each entry is the Euclidean
    distance to the constraint boundary.  These are a fresh
    :class:`SlackSum`'s first slacks at ``p`` (for ``n <= BLOCK`` exactly
    ``b - A @ p``).  Raises ``ValueError`` unless ``p`` has shape ``(n,)``.
    """
    return SlackSum(polytope, np.asarray(p, dtype=float)).slacks()


def find_interior_point(polytope):
    """Search for a strictly interior point by relaxation projection.

    Starting from the origin, repeatedly projects onto the worst (smallest
    slack) constraint, aiming for a positive target slack that shrinks when
    progress stalls.  Returns the first point reached that is strictly
    interior, every slack above :data:`SLACK_FLOOR` (so every reciprocal
    slack is finite), with no further margin: a slack at or below the floor
    is projected past like a violated one.

    This is a convenience for callers without a known interior point; a
    user-supplied start is preferred.  Raises :class:`InteriorSearchError`
    after :data:`INTERIOR_BUDGET` (1000) projections, which signals an
    empty or degenerate interior.
    """
    A = polytope.A
    sq = np.einsum("ij,ij->i", A, A)
    x = np.zeros(polytope.n)
    best = -np.inf
    target = 1.0
    stall_limit = max(20, 2 * polytope.m)
    stalled = 0
    for _ in range(INTERIOR_BUDGET):
        s = residuals(polytope, x)
        worst = int(np.argmin(s))
        smin = float(s[worst])
        if smin > SLACK_FLOOR:
            return x
        if smin > best:
            best = smin
            stalled = 0
        else:
            stalled += 1
            if stalled >= stall_limit:
                target *= 0.5
                stalled = 0
        x = x - (target - smin) * A[worst] / sq[worst]
    raise InteriorSearchError(
        f"no strictly interior point found in {INTERIOR_BUDGET} projection steps"
    )
