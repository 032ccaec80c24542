"""Signed intersection distances of a line with every constraint.

A line through a strictly interior point ``p`` with unit direction ``u``
meets constraint ``i`` at parameter ``d_i = S_i / (A_i . u)``: positive
ahead of ``p``, negative behind, no intersection when the line is parallel
to the constraint.  The open interval ``(d_minus, d_plus)`` between the
first contacts in each direction is the feasible bracket: the set of
parameters keeping the point strictly inside.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BracketInvalidError, NotInteriorError, UnboundedDirectionError
from .model import PARALLEL_EPS, residuals

_UNIT_TOL = 1e-9
_NO_FORWARD = "line has no forward intersection: polytope unbounded along it"
_NO_BACKWARD = "line has no backward intersection: polytope unbounded along it"


def axis_index(k, n):
    """The column of axis ``k`` (1-based) in ``n`` dimensions, 0-based.

    Raises ``ValueError`` unless ``1 <= k <= n``.
    """
    if not 1 <= k <= n:
        raise ValueError(f"axis index {k} out of range 1..{n}")
    return k - 1


def axis_direction(k, n):
    """Unit vector along coordinate axis ``k`` (1-based) in ``n`` dimensions."""
    u = np.zeros(n)
    u[axis_index(k, n)] = 1.0
    return u


def unit_direction(v):
    """Normalize ``v`` to unit Euclidean norm.

    Raises ``ValueError`` for a zero or non-finite vector.
    """
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("direction must be finite")
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    return v / norm


def point_at(p, u, t):
    """The point ``p + t * u``."""
    p = np.asarray(p, dtype=float)
    u = np.asarray(u, dtype=float)
    if p.shape != u.shape:
        raise ValueError(f"shape mismatch: point {p.shape}, direction {u.shape}")
    return p + t * u


@dataclass(frozen=True, eq=False)
class LineSection:
    """Intersection distances of one line with all m constraints.

    ``distances[i]`` is the signed parameter at which the line meets
    constraint ``i``; entries are ``inf`` where there is no intersection
    (mask in ``parallel``).  ``d_minus < 0 < d_plus`` bound the feasible
    bracket; ``i_plus`` / ``i_minus`` are the blocking row indices
    (lowest index wins ties).  No finite distance lies strictly inside
    the bracket.  Sections compare and hash by identity.
    """

    distances: np.ndarray
    parallel: np.ndarray
    d_plus: float
    d_minus: float
    i_plus: int
    i_minus: int

    @property
    def width(self):
        return self.d_plus - self.d_minus

    @property
    def finite_distances(self):
        """Distances of the constraints the line actually intersects."""
        return self.distances[~self.parallel]

    @classmethod
    def from_distances(cls, values):
        """Build a section from raw signed distances.

        Non-finite entries mean "no intersection".  Raises
        :class:`BracketInvalidError` when a distance is zero (the point
        would lie on that constraint) or when either side of the bracket
        is missing.
        """
        d = np.array(values, dtype=float).ravel()
        par = ~np.isfinite(d)
        d = np.where(par, np.inf, d)
        if np.any((d == 0.0) & ~par):
            raise BracketInvalidError("zero distance: point lies on a constraint")
        return cls._from_bracket(d, par, BracketInvalidError)

    @classmethod
    def _from_bracket(cls, d, par, error):
        """Freeze distances ``d`` and parallel mask ``par`` into a section.

        The blocking rows are the nearest non-parallel contacts on each
        side; ``error`` is raised when a side has none.
        """
        pos = ~par & (d > 0.0)
        neg = ~par & (d < 0.0)
        if not pos.any():
            raise error(_NO_FORWARD)
        if not neg.any():
            raise error(_NO_BACKWARD)
        i_plus = int(np.argmin(np.where(pos, d, np.inf)))
        i_minus = int(np.argmax(np.where(neg, d, -np.inf)))
        d.setflags(write=False)
        par.setflags(write=False)
        return cls(
            distances=d,
            parallel=par,
            d_plus=float(d[i_plus]),
            d_minus=float(d[i_minus]),
            i_plus=i_plus,
            i_minus=i_minus,
        )


def smallest(x):
    """The smallest entry of the non-empty array ``x``, or its first NaN.

    Read at the argmin, which numpy vectorises: the value of
    ``np.minimum.reduce(x)`` at about half the cost, except that of
    several zeros it returns the first, whichever its sign.  Every
    minimum a coordinate-search stage reads goes through here.
    """
    return x[x.argmin()]


def largest(x):
    """The largest entry of the non-empty array ``x``, or its first NaN.

    The mirror of :func:`smallest`: ``np.maximum.reduce(x)`` by value.
    """
    return x[x.argmax()]


def interior_slacks(polytope, p):
    """Slacks at ``p``, which must all be positive.

    Raises :class:`NotInteriorError` naming the first rows whose slack is
    not positive (NaN included).
    """
    s = residuals(polytope, p)
    if not smallest(s) > 0.0:
        raise not_interior(polytope, s)
    return s


def not_interior(polytope, s):
    """The :class:`NotInteriorError` for slacks ``s`` with a row not > 0."""
    bad = np.flatnonzero(~(s > 0.0))[:4]
    names = ", ".join(polytope.label(int(i)) for i in bad)
    return NotInteriorError(f"point is not strictly interior (rows: {names})")


def axis_bracket(polytope, s, k):
    """Finite distances and bracket of the axis-``k`` line (1-based) at slacks ``s``.

    Returns ``(d, d_minus, d_plus)``: the floats of
    ``section(polytope, p, axis_direction(k, n))``'s ``finite_distances``
    in the table's ahead-then-behind order (see
    :func:`~polycenter.model.ahead_first`), and its ``d_minus`` and
    ``d_plus``, when ``s`` are the slacks at ``p``.  The rows and
    coefficients come from ``polytope.axis_lines``, in place of ``A @ e_k``
    (equal to column k bit for bit) and its masks.  Each end is one
    :func:`smallest` or :func:`largest` read over its side;
    :func:`_nearest` reads it again only when a side is empty or its
    nearest distance is zero.  Raises
    :class:`UnboundedDirectionError` with ``section``'s messages, the
    forward one first.
    """
    rows, g, ahead = polytope.axis_lines[k - 1]
    d = s.take(rows)
    d /= g
    if 0 < ahead < d.size:
        d_plus = smallest(d[:ahead])
        d_minus = largest(d[ahead:])
        if d_plus and d_minus:
            return d, float(d_minus), float(d_plus)
    d_plus = _nearest(d[:ahead], smallest, _NO_FORWARD)
    return d, _nearest(d[ahead:], largest, _NO_BACKWARD), d_plus


def _nearest(near, reduce, message):
    """``reduce`` (:func:`smallest` or :func:`largest`) of the distances
    ``near`` on one side of the line.

    With positive slacks each of these distances has the sign of its
    coefficient, except a quotient that underflowed to a signed zero:
    ``section`` counts it on neither side of the bracket, and neither does
    this.  Raises :class:`UnboundedDirectionError` with ``message`` when no
    distance is left.
    """
    if near.size:
        x = float(reduce(near))
        if x != 0.0:
            return x
        near = near[near != 0.0]
        if near.size:
            return float(reduce(near))
    raise UnboundedDirectionError(message)


def section(polytope, p, u):
    """Section of the line through interior point ``p`` with direction ``u``.

    ``u`` must be a unit vector (a NaN entry is not).  A constraint whose
    normal is orthogonal to ``u`` within ``PARALLEL_EPS`` is marked parallel
    (no intersection); near-parallel constraints beyond that threshold keep
    their huge finite distances, which downstream reciprocal sums handle
    naturally.

    Raises :class:`NotInteriorError` if some slack at ``p`` is not > 0, and
    :class:`UnboundedDirectionError` if the line never exits the polytope
    in one of the two directions (the polytope is not bounded along it).
    """
    u = np.asarray(u, dtype=float)
    if not abs(np.linalg.norm(u) - 1.0) <= _UNIT_TOL:
        raise ValueError("direction must be a unit vector")
    s = interior_slacks(polytope, p)
    g = polytope.A @ u
    par = np.abs(g) <= PARALLEL_EPS
    d = np.where(par, np.inf, s / np.where(par, 1.0, g))
    return LineSection._from_bracket(d, par, UnboundedDirectionError)
