"""Halfspace polytopes: construction, file parsing, residuals, classification.

A polytope is the solution set of ``A @ x <= b`` with ``A`` of shape
``(m, n)``, ``m > n``.  Rows are unit-normalized on ingestion so that the
slack of a constraint at a point equals the Euclidean distance from the
point to the constraint's boundary hyperplane.

File format (``.poly``, UTF-8 text)::

    # comment lines start with '#'; blank lines are ignored
    dims <m> <n>
    <A_i1> <A_i2> ... <A_in> <b_i> [label]     (exactly m such rows)

Every bound, including nonnegativity, must appear as an explicit row
(e.g. ``-1 0 0 x_nonneg`` for ``x >= 0``).  Numbers use standard decimal
or scientific notation; parsing is locale-independent.
"""

from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import InteriorSearchError, PolytopeFormatError

_ZERO_ROW_TOL = 1e-12

# A line whose direction meets row i with |A_i . u| at or below this is
# parallel to constraint i: it never meets it.
PARALLEL_EPS = 1e-12

# Columns per block of the slack sum (see residuals).
BLOCK = 32


def ahead_first(x):
    """Positions of ``x`` with a clear sign bit, then those with it set.

    Each group keeps its order.  This is the one statement of the order in
    which a line's distances are summed, which is part of the result: the
    axis table stores its rows ahead-then-behind (see :class:`AxisLine`),
    and ``solve_harmonic_offset`` orders a section's finite distances the
    same way.  With positive slacks a distance has the sign bit of its
    coefficient, an underflowed signed zero included, so both give the
    root solve the same array.
    """
    return np.argsort(np.signbit(x), kind="stable")


class AxisLine(NamedTuple):
    """What the line along ``u`` meets, read from ``A @ u`` (column k of
    ``A`` for the axis-k line): the table of every line.

    ``rows`` are the rows with ``|A_i . u| > PARALLEL_EPS``, ordered by
    :func:`ahead_first` on their coefficients ``g = A[rows] @ u``: first the
    ``ahead`` rows with a positive coefficient, then those with a negative
    one, each group in row order.  At an interior point the line meets the
    first group ahead of it and the second behind it.  ``rows`` and ``g``
    are read-only, 2 words per row the line meets.
    """

    rows: np.ndarray
    g: np.ndarray
    ahead: int


def _axis_line(column):
    """The :class:`AxisLine` of coefficients ``column``, arrays read-only.

    The rows with a coefficient above ``PARALLEL_EPS`` and then those below
    ``-PARALLEL_EPS``, each in row order: the :func:`ahead_first` order of
    the kept coefficients (a kept coefficient is nonzero, so its sign bit
    is its sign) without a sort.
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


def _check_rows(finite, nonzero):
    """Raise for the first row not ``finite``, else the first not ``nonzero``."""
    bad = np.flatnonzero(~finite)
    if bad.size:
        raise PolytopeFormatError(f"non-finite entry in row at index {bad[0]}")
    zero = np.flatnonzero(~nonzero)
    if zero.size:
        raise PolytopeFormatError(f"zero coefficient row at index {zero[0]}")


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
    """Closed convex polytope ``{x : A @ x <= b}``.

    ``A`` and ``b`` are stored as read-only float arrays, copied from the
    arguments; ``A`` is column-major, so that a block of its columns, as
    :class:`SlackSum` reads it, is one contiguous slab.  ``labels``, when
    given, names each constraint row.  Construction requires more rows than
    columns (``m > n``) and rejects zero rows and non-finite entries.  It
    does not normalize rows (see :func:`normalize_rows`) and does not
    verify boundedness.  The per-axis table :attr:`axis_lines` is derived
    from ``A`` on first use and kept; it is read-only too.  Polytopes
    compare and hash by identity, and their fields cannot be reassigned.
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
        _check_rows(
            np.isfinite(A).all(axis=1) & np.isfinite(b),
            np.linalg.norm(A, axis=1) > _ZERO_ROW_TOL,
        )
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != m:
                raise PolytopeFormatError(
                    f"{len(labels)} labels for {m} constraints"
                )
        self._freeze(A, b, labels)

    def _freeze(self, A, b, labels):
        A.setflags(write=False)
        b.setflags(write=False)
        self.__dict__.update(A=A, b=b, labels=labels)

    @classmethod
    def _adopt(cls, A, b, labels):
        """A polytope that keeps ``A`` and ``b`` themselves.

        For arrays the caller made and validated and holds no other
        reference to: ``A`` must be column-major float64, ``labels`` a
        tuple or None.  Nothing is copied or checked.
        """
        poly = object.__new__(cls)
        poly._freeze(A, b, labels)
        return poly

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

    def label(self, i):
        """Display name of constraint ``i`` (0-based row index)."""
        if self.labels is not None:
            return self.labels[i]
        return f"c{i + 1}"

    def __repr__(self):
        return f"Polytope(m={self.m}, n={self.n})"


class Region(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


class PointClass(NamedTuple):
    """Classification of a point against a polytope; a named tuple, so it
    compares and hashes by field.

    ``indices`` holds the 0-based rows within ``boundary_eps`` of contact
    (for BOUNDARY) or strictly violated (for EXTERIOR); it is empty for
    INTERIOR.
    """

    region: Region
    indices: tuple = ()

    @property
    def is_interior(self):
        return self.region is Region.INTERIOR


def normalize_rows(polytope):
    """Return a copy with every row of ``A`` scaled to unit Euclidean norm.

    The right-hand side entry is divided by the same norm, so the feasible
    set is unchanged.  Already-normalized polytopes come back unchanged up
    to floating-point rounding.  The new polytope keeps the quotient
    ``A / norms[:, None]`` itself, column-major like ``A``, so the call
    holds at most one m x n array beyond ``polytope.A`` at a time.
    """
    norms = np.linalg.norm(polytope.A, axis=1)
    b = polytope.b / norms
    # the rows of a polytope are finite and nonzero, so the quotients are
    # too, unless the norm (a zero row) or an entry of b overflowed
    _check_rows(np.isfinite(b), np.isfinite(norms))
    return Polytope._adopt(polytope.A / norms[:, None], b, polytope.labels)


def parse_polytope(text):
    """Parse ``.poly`` file content into a row-normalized :class:`Polytope`.

    Raises :class:`PolytopeFormatError` (with the offending line number) on
    syntax errors, zero rows, non-finite values, ``m <= n``, or
    row/dimension mismatches.
    """
    dims = None
    rows, rhs, labels = [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if dims is None:
            if tokens[0] != "dims" or len(tokens) != 3:
                raise PolytopeFormatError(
                    "expected header 'dims <m> <n>'", line=lineno
                )
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
                    f"need more constraints than dimensions, got m={m} <= n={n}",
                    line=lineno,
                )
            dims = (m, n)
            continue
        m, n = dims
        if len(rows) == m:
            raise PolytopeFormatError(
                f"extra data after {m} constraint rows", line=lineno
            )
        label = None
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
            values = [float(t) for t in tokens]
        except ValueError as exc:
            raise PolytopeFormatError(str(exc), line=lineno) from None
        row = np.array(values[:n])
        if np.linalg.norm(row) <= _ZERO_ROW_TOL:
            raise PolytopeFormatError("zero coefficient row", line=lineno)
        if not np.isfinite(values).all():
            raise PolytopeFormatError("non-finite entry", line=lineno)
        rows.append(row)
        rhs.append(values[n])
        labels.append(label)
    if dims is None:
        raise PolytopeFormatError("missing 'dims <m> <n>' header")
    if len(rows) != dims[0]:
        raise PolytopeFormatError(
            f"expected {dims[0]} constraint rows, found {len(rows)}"
        )
    named = tuple(
        lab if lab is not None else f"c{i + 1}" for i, lab in enumerate(labels)
    )
    return normalize_rows(Polytope(np.array(rows), np.array(rhs), named))


def load_polytope(path):
    """Read and parse a ``.poly`` file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_polytope(fh.read())


@lru_cache(maxsize=None)
def _signs(blocks):
    """The read-only weights ``(1, -1, ..., -1)`` of ``b`` and ``blocks``
    block products in the slack sum."""
    signs = np.full(blocks + 1, -1.0)
    signs[0] = 1.0
    signs.setflags(write=False)
    return signs


def _slack_terms(polytope, q):
    """``(signs, terms, blocks)``, a :class:`SlackSum`'s set-up at ``q``:
    ``terms`` is ``b`` and, per block of ``BLOCK`` columns, that block's
    product; ``blocks`` holds per block its slab of the column-major ``A``
    (one contiguous slab), its view of ``q`` and its row of ``terms``.
    Raises ``ValueError`` unless ``q`` has shape ``(n,)``."""
    A = polytope.A
    m, n = A.shape
    if q.shape != (n,):
        raise ValueError(f"point has shape {q.shape}, expected ({n},)")
    starts = range(0, n, BLOCK)
    terms = np.empty((len(starts) + 1, m))
    terms[0] = polytope.b
    blocks = [
        (A[:, lo : lo + BLOCK], q[lo : lo + BLOCK], terms[i])
        for i, lo in enumerate(starts, start=1)
    ]
    for slab, x, term in blocks:
        slab.dot(x, out=term)
    return _signs(len(blocks)), terms, blocks


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
        self._signs, self._terms, self._blocks = _slack_terms(polytope, q)

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


def classify_point(polytope, p, boundary_eps=1e-9):
    """Classify ``p`` as interior, boundary, or exterior.

    INTERIOR requires every slack above ``boundary_eps``; EXTERIOR means a
    slack below ``-boundary_eps`` (violated rows reported); everything else
    is BOUNDARY with the near-contact rows reported.  Raises
    ``ValueError`` unless ``boundary_eps >= 0`` (NaN fails too).
    """
    if not boundary_eps >= 0.0:
        raise ValueError("boundary_eps must be nonnegative")
    s = residuals(polytope, p)
    violated = np.flatnonzero(s < -boundary_eps)
    if violated.size:
        return PointClass(Region.EXTERIOR, tuple(int(i) for i in violated))
    if np.all(s > boundary_eps):
        return PointClass(Region.INTERIOR)
    touching = np.flatnonzero(np.abs(s) <= boundary_eps)
    return PointClass(Region.BOUNDARY, tuple(int(i) for i in touching))


def find_interior_point(polytope, max_iter=1000):
    """Search for a strictly interior point by relaxation projection.

    Starting from the origin, repeatedly projects onto the worst (smallest
    slack) constraint, aiming for a positive target slack that shrinks when
    progress stalls.  Returns the first point reached at which every slack
    is positive, with no further margin.

    This is a convenience for callers without a known interior point; a
    user-supplied start is preferred.  Raises :class:`InteriorSearchError`
    after ``max_iter`` projections, which signals an empty or degenerate
    interior (or an unreasonably small budget), and ``ValueError`` unless
    ``max_iter >= 0``.
    """
    if max_iter < 0:
        raise ValueError("max_iter must be non-negative")
    A = polytope.A
    sq = np.einsum("ij,ij->i", A, A)
    x = np.zeros(polytope.n)
    best = -np.inf
    target = 1.0
    stall_limit = max(20, 2 * polytope.m)
    stalled = 0
    for _ in range(max_iter):
        s = residuals(polytope, x)
        worst = int(np.argmin(s))
        smin = float(s[worst])
        if smin > 0.0:
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
        f"no strictly interior point found in {max_iter} projection steps"
    )
