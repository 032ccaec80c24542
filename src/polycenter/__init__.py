"""Harmonic centers, points, and hyperplanes of convex polytopes.

A polytope is given in halfspace form ``A @ x <= b``.  The harmonic point
of a line through an interior point is where the reciprocals of the signed
distances to all constraint intersections sum to zero; the harmonic center
is the point that is harmonic for every line through it.  The center is
located by cyclic coordinate search and compared, when wanted, against the
bisection center (axis chords bisected).
"""

from .center import (
    CenterTrace,
    Hyperplane,
    TraceRecord,
    bi_center,
    bi_point_on_axis,
    cs_step,
    directional_sum,
    f_norm,
    f_vector,
    harmonic_center,
    harmonic_hyperplane,
    parse_trace_csv,
)
from .errors import (
    DegenerateAtCenterError,
    DimensionUnsupportedError,
    InteriorSearchError,
    NotInteriorError,
    PolytopeError,
    PolytopeFormatError,
    UnboundedDirectionError,
)
from .harmonic import (
    HarmonicSolveResult,
    bisection_oracle,
    harmonic_point_on_line,
    solve_harmonic_offset,
)
from .lines import LineSection, axis_direction, section, unit_direction
from .model import (
    Polytope,
    find_interior_point,
    load_polytope,
    normalize_rows,
    parse_polytope,
    residuals,
)
from .svg import emit_svg

__version__ = "0.1.0"

__all__ = [
    "CenterTrace",
    "DegenerateAtCenterError",
    "DimensionUnsupportedError",
    "HarmonicSolveResult",
    "Hyperplane",
    "InteriorSearchError",
    "LineSection",
    "NotInteriorError",
    "Polytope",
    "PolytopeError",
    "PolytopeFormatError",
    "TraceRecord",
    "UnboundedDirectionError",
    "axis_direction",
    "bi_center",
    "bi_point_on_axis",
    "bisection_oracle",
    "cs_step",
    "directional_sum",
    "emit_svg",
    "f_norm",
    "f_vector",
    "find_interior_point",
    "harmonic_center",
    "harmonic_hyperplane",
    "harmonic_point_on_line",
    "load_polytope",
    "normalize_rows",
    "parse_polytope",
    "parse_trace_csv",
    "residuals",
    "section",
    "solve_harmonic_offset",
    "unit_direction",
]
