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
    """The supplied point is not strictly inside the polytope."""

    exit_code = 2


class BracketInvalidError(PolytopeError):
    """A line section has no valid root bracket: a zero distance, or a
    bracket that does not straddle 0, or (:class:`UnboundedDirectionError`)
    no distance on one side."""

    exit_code = 3


class UnboundedDirectionError(BracketInvalidError):
    """A line through the point never meets a constraint in one direction.

    This signals that the input is not a closed (bounded) polytope along
    the queried line.  A missing side is a bracket that is not valid, so
    this is a :class:`BracketInvalidError`.
    """


class InteriorSearchError(PolytopeError):
    """No strictly interior point was found within the iteration budget:
    infeasible input, with the exit code of a start outside it."""

    exit_code = 2


class DegenerateAtCenterError(PolytopeError):
    """The point coincides with the harmonic center, where no single
    harmonic hyperplane exists (every direction is harmonic)."""


class DimensionUnsupportedError(PolytopeError):
    """The operation is only available for a specific dimension (SVG: n = 2)."""
