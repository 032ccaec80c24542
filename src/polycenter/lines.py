"""Signed intersection distances of a line with every constraint.

A line through a strictly interior point ``p`` with unit direction ``u``
meets constraint ``i`` at parameter ``d_i = S_i / (A_i . u)``: positive
ahead of ``p``, negative behind, no intersection when the line is parallel
to the constraint.  The open interval ``(d_minus, d_plus)`` between the
first contacts in each direction is the feasible bracket: the set of
parameters keeping the point strictly inside.
"""

import numpy as np

from .errors import NotInteriorError, UnboundedDirectionError
from .model import SLACK_FLOOR, _axis_line, _Frozen, _row_label, residuals
from .model import _scaled_norm, norm

_UNIT_TOL = 1e-9
_NO_FORWARD = "line has no forward intersection: polytope unbounded along it"
_NO_BACKWARD = "line has no backward intersection: polytope unbounded along it"


def axis_direction(k, n):
    """Unit vector along coordinate axis ``k`` (1-based) in ``n`` dimensions.

    Raises ``ValueError`` unless ``1 <= k <= n``.
    """
    if not 1 <= k <= n:
        raise ValueError(f"axis index {k} out of range 1..{n}")
    u = np.zeros(n)
    u[k - 1] = 1.0
    return u


def unit_direction(v):
    """Normalize ``v`` to unit Euclidean norm.

    ``(v / m) / r`` with :func:`~polycenter.model._scaled_norm`'s
    ``(m, r)``: ``v / norm(v)`` where ``v . v`` is a normal float, else
    ``v`` is first divided by its largest magnitude.  So every finite
    nonzero vector has a direction, however small or large.  Raises
    ``ValueError`` for a zero or non-finite vector.
    """
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("direction must be finite")
    if not v.any():
        raise ValueError("direction must be nonzero")
    with np.errstate(over="ignore"):
        m, r = _scaled_norm(v)
    return v / m / r


def checked_unit(u, n):
    """``u`` as floats; ``ValueError`` unless a unit vector (NaN is not) of
    shape ``(n,)``."""
    u = np.asarray(u, dtype=float)
    if u.shape != (n,):
        raise ValueError(f"direction has shape {u.shape}, expected ({n},)")
    if not abs(norm(u) - 1.0) <= _UNIT_TOL:
        raise ValueError("direction must be a unit vector")
    return u


class LineSection(_Frozen):
    """Intersection distances of one line with all m constraints.

    ``distances[i]`` is the signed parameter at which the line meets
    constraint ``i``; entries are ``inf`` where there is no intersection
    (mask in ``parallel``).  ``d_minus < 0 < d_plus`` bound the feasible
    bracket, and no finite distance lies strictly inside it.  The rows
    that block the line are those, not parallel, at an end's distance;
    the section does not name them.

    A section is built from a line's table (an
    :class:`~polycenter.model.AxisLine`) and slacks, by :func:`section` or
    :meth:`from_distances`, and keeps its distances in the table's order
    too, the order :func:`~polycenter.model._axis_line` states: that is
    the array :func:`~polycenter.harmonic.solve_harmonic_offset` solves
    on.  Its bracket straddles 0 by construction, since
    :func:`line_bracket` raises otherwise.  Sections compare and hash by
    identity, and their fields cannot be reassigned.
    """

    @property
    def width(self):
        return self.d_plus - self.d_minus

    @property
    def finite_distances(self):
        """Distances of the constraints the line actually intersects, in
        row order."""
        return self.distances[~self.parallel]

    @classmethod
    def from_distances(cls, values):
        """Build a section from raw signed distances.

        Non-finite entries mean "no intersection".  The finite ones are
        distances from a point to constraints, so their magnitudes are its
        slacks, and :func:`interior`'s rule applies to them: a distance
        whose magnitude is not above ``SLACK_FLOOR`` (0 and -0 included,
        a point on that constraint) raises :class:`NotInteriorError`, in
        :func:`section`'s words, naming entry ``i`` (0-based) ``c<i + 1>``.
        Raises :class:`UnboundedDirectionError` when either side of the
        bracket is missing.
        """
        d = np.array(values, dtype=float).ravel()
        finite = np.isfinite(d)
        # slacks |d| (inf: parallel; none to test when empty) and
        # coefficients sign(d) (0: parallel): |d| / +-1 == d
        s = interior(None, np.where(finite, np.abs(d), np.inf)) if d.size else d
        line = _axis_line(np.where(finite, np.sign(d), 0.0))
        return cls._of_line(line, s)

    @classmethod
    def _of_line(cls, line, s):
        """The section of the line with table ``line`` at slacks ``s``: the
        one builder of a section.  It keeps :func:`line_bracket`'s
        distances as they are, in the table's order (``_ordered``), and
        scatters them into m rows.
        """
        rows = line.rows
        d, d_minus, d_plus = line_bracket(line, s)
        distances = np.full(s.size, np.inf)
        distances[rows] = d
        parallel = np.ones(s.size, dtype=bool)
        parallel[rows] = False
        for array in (d, distances, parallel):
            array.setflags(write=False)
        sec = object.__new__(cls)
        sec.__dict__.update(
            distances=distances,
            parallel=parallel,
            d_plus=d_plus,
            d_minus=d_minus,
            _ordered=d,
        )
        return sec


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


def interior(polytope, s):
    """The slacks ``s`` of a point, if it is strictly interior: every slack
    above :data:`~polycenter.model.SLACK_FLOOR`, so that every reciprocal
    ``1 / s_i`` is finite.  The one reader of that rule; else raises
    :func:`not_interior`'s error, which names the rows by ``polytope``'s
    labels (``None``: ``c1``, ``c2``, ...).
    """
    if not smallest(s) > SLACK_FLOOR:
        raise not_interior(polytope, s)
    return s


def not_interior(polytope, s):
    """The :class:`NotInteriorError` for slacks ``s``, naming the first four
    rows whose slack is not above ``SLACK_FLOOR`` (NaN included) by the
    labels of ``polytope``, or as an unlabelled one does if it is None."""
    bad = np.flatnonzero(~(s > SLACK_FLOOR))[:4]
    labels = None if polytope is None else polytope.labels
    names = ", ".join(_row_label(labels, int(i)) for i in bad)
    return NotInteriorError(f"point is not strictly interior (rows: {names})")


def line_bracket(line, s):
    """Distances and bracket of the line with table ``line`` (an
    :class:`~polycenter.model.AxisLine`) at slacks ``s``.

    Returns ``(d, d_minus, d_plus)``: ``s[rows] / g``, ahead then behind,
    and the nearest of them on each side, one :func:`smallest` or
    :func:`largest` read over it.  A slack above ``SLACK_FLOOR`` over a
    coefficient of a unit row or direction, at most 1 up to rounding, is
    no zero, so each distance lies on its coefficient's side.  Raises
    :class:`UnboundedDirectionError` when a side has no distance, the
    forward one first.
    """
    rows, g, ahead = line
    d = s.take(rows)
    d /= g
    if not ahead:
        raise UnboundedDirectionError(_NO_FORWARD)
    if ahead == d.size:
        raise UnboundedDirectionError(_NO_BACKWARD)
    return d, float(largest(d[ahead:])), float(smallest(d[:ahead]))


def section(polytope, p, u):
    """Section of the line through interior point ``p`` with direction ``u``.

    ``u`` must be a unit vector of shape ``(n,)`` (a NaN entry is not), or
    ``ValueError`` is raised.  The line's table is ``_axis_line(A @ u)``,
    so a constraint whose normal is orthogonal to ``u`` within
    ``PARALLEL_EPS`` is marked parallel (no intersection); near-parallel
    constraints beyond that threshold keep their huge finite distances,
    which downstream reciprocal sums handle naturally.

    Raises :class:`NotInteriorError` unless ``p`` is strictly interior, and
    :class:`UnboundedDirectionError` if the line never exits the polytope
    in one of the two directions (the polytope is not bounded along it).
    """
    u = checked_unit(u, polytope.n)
    s = interior(polytope, residuals(polytope, p))
    line = _axis_line(polytope.A @ u)
    return LineSection._of_line(line, s)
