"""Exception types shared across the library.

Each kind carries the CLI's exit code for it as ``exit_code``: a new kind
sets its own, or inherits its base's.
"""


class PolytopeError(Exception):
    """Base class for all domain errors raised by this package.  Its exit
    code is that of a parse error or a degenerate request."""

    exit_code = 1


class PolytopeFormatError(PolytopeError):
    """Invalid polytope data: bad file syntax, zero row, m <= n, shape mismatch."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotInteriorError(PolytopeError):
    """The supplied point is not strictly inside the polytope: a slack, or
    a distance given to :meth:`~polycenter.lines.LineSection.from_distances`,
    is not above :data:`~polycenter.model.SLACK_FLOOR` (0 is a point on a
    constraint)."""

    exit_code = 2


class UnboundedDirectionError(PolytopeError):
    """A line through the point never meets a constraint in one direction.

    This signals that the input is not a closed (bounded) polytope along
    the queried line: a line section with no distance on one side, the one
    way a section's bracket can fail, since at a strictly interior point
    every distance is on one side or the other.
    """

    exit_code = 3


class InteriorSearchError(PolytopeError):
    """No strictly interior point was found within the iteration budget:
    infeasible input, with the exit code of a start outside it."""

    exit_code = 2


class DegenerateAtCenterError(PolytopeError):
    """The point coincides with the harmonic center, where no single
    harmonic hyperplane exists (every direction is harmonic)."""


class DimensionUnsupportedError(PolytopeError):
    """The operation is only available for a specific dimension (SVG: n = 2)."""
