"""An exact reference for the paper's iteration tables.

Coordinate search and the f-norm in ``decimal`` arithmetic at ``DIGITS``
significant digits, on a fixture's rows as its file writes them, not
normalized: the harmonic point of a line and the f-vector do not change
when a row ``(A_i, b_i)`` is rescaled, so the raw rows give the paper's
numbers independently of how the package normalizes them.  Each stage
moves one coordinate to the harmonic point of its axis line, the root of
``sum_i 1 / (d_i - h)`` with ``d_i = S_i / A_ik`` over the rows with
``A_ik != 0``, found by bisection of the bracket between the nearest
intersections on either side down to a width of ``BISECT_TOL``.  The
harmonic point of a line along any direction is found by the same
bisection.  It shares no code with the package.
"""

import decimal
from decimal import Decimal

DIGITS = 60
BISECT_TOL = Decimal("1e-45")


def read_rows(path):
    """``(A, b)`` of a ``.poly`` file as written, each entry a ``Decimal``."""
    A, b, n = [], [], None
    for line in path.read_text().splitlines():
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if n is None:
            n = int(tokens[2])
            continue
        A.append([Decimal(t) for t in tokens[:n]])
        b.append(Decimal(tokens[n]))
    return A, b


def _slacks(A, b, x):
    return [bi - sum(a * xj for a, xj in zip(row, x)) for row, bi in zip(A, b)]


def _f_norm(A, b, x):
    s = _slacks(A, b, x)
    f = [sum(row[j] / si for row, si in zip(A, s)) for j in range(len(x))]
    return sum(v * v for v in f).sqrt()


def _harmonic_offset(A, s, k):
    """The root of the axis-k line's reciprocal sum, by bisection."""
    return _root([si / row[k] for row, si in zip(A, s) if row[k]])


def _root(d):
    """The root of ``sum 1 / (v - h)`` over the distances ``d``, bisected
    between the nearest of them on either side of 0."""
    lo = max(v for v in d if v < 0)
    hi = min(v for v in d if v > 0)
    while hi - lo > BISECT_TOL:
        h = (lo + hi) / 2
        if sum(1 / (v - h) for v in d) > 0:
            hi = h
        else:
            lo = h
    return (lo + hi) / 2


def search(A, b, start, stop_tol, max_iter=100):
    """The exact search from ``start`` (floats, read as their shortest
    decimal repr): a list of ``(point, fnorm)``, the start first, then one
    per sweep while the f-norm exceeds ``stop_tol``, at most ``max_iter``
    sweeps."""
    with decimal.localcontext(decimal.Context(prec=DIGITS)):
        x = [Decimal(repr(float(v))) for v in start]
        rows = [(x, _f_norm(A, b, x))]
        while rows[-1][1] > Decimal(repr(stop_tol)) and len(rows) <= max_iter:
            x = list(x)
            for k in range(len(x)):
                x[k] += _harmonic_offset(A, _slacks(A, b, x), k)
            rows.append((x, _f_norm(A, b, x)))
        return rows


def harmonic_point(A, b, x, v):
    """The harmonic point of the line through ``x`` along the direction
    ``v`` (floats, read as their shortest decimal repr), each a list of
    ``Decimal``: ``x + h * u`` with ``u = v / |v|`` and ``h`` the root of
    the line's reciprocal sum, ``d_i = S_i / (A_i . u)`` over the rows with
    ``A_i . u != 0``."""
    with decimal.localcontext(decimal.Context(prec=DIGITS)):
        v = [Decimal(repr(float(c))) for c in v]
        length = sum(c * c for c in v).sqrt()
        u = [c / length for c in v]
        g = [sum(a * c for a, c in zip(row, u)) for row in A]
        h = _root([si / gi for si, gi in zip(_slacks(A, b, x), g) if gi])
        return [xj + h * c for xj, c in zip(x, u)]
