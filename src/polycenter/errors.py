"""Exception types shared across the library."""


class PolytopeError(Exception):
    """Base class for all domain errors raised by this package."""


class PolytopeFormatError(PolytopeError):
    """Invalid polytope data: bad file syntax, zero row, m <= n, shape mismatch."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotInteriorError(PolytopeError):
    """The supplied point is not strictly inside the polytope."""


class BracketInvalidError(PolytopeError):
    """A line section has no valid root bracket: a zero distance, or a
    bracket that does not straddle 0, or (:class:`UnboundedDirectionError`)
    no distance on one side."""


class UnboundedDirectionError(BracketInvalidError):
    """A line through the point never meets a constraint in one direction.

    This signals that the input is not a closed (bounded) polytope along
    the queried line.  A missing side is a bracket that is not valid, so
    this is a :class:`BracketInvalidError`.
    """


class InteriorSearchError(PolytopeError):
    """No strictly interior point was found within the iteration budget."""


class DegenerateAtCenterError(PolytopeError):
    """The point coincides with the harmonic center, where no single
    harmonic hyperplane exists (every direction is harmonic)."""


class DimensionUnsupportedError(PolytopeError):
    """The operation is only available for a specific dimension (SVG: n = 2)."""
