"""Deterministic SVG rendering of 2-D center-search trajectories.

Output is plain text assembled with fixed float formatting, so identical
inputs produce byte-identical documents.
"""

import numpy as np

from .errors import DimensionUnsupportedError

WIDTH, HEIGHT, MARGIN = 640, 480, 40

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#e377c2",
)


def _clip_line_to_box(a, c, box):
    """Segment of the line ``a . x = c`` inside an axis-aligned box, or None."""
    x0, x1, y0, y1 = box
    base = np.asarray(a, dtype=float) * (c / float(np.dot(a, a)))
    v = np.array([-a[1], a[0]], dtype=float)
    t_lo, t_hi = -np.inf, np.inf
    for pos, vel, lo, hi in (
        (base[0], v[0], x0, x1),
        (base[1], v[1], y0, y1),
    ):
        if vel == 0.0:
            if not lo <= pos <= hi:
                return None
        else:
            ta, tb = (lo - pos) / vel, (hi - pos) / vel
            if ta > tb:
                ta, tb = tb, ta
            t_lo, t_hi = max(t_lo, ta), min(t_hi, tb)
    if not t_lo < t_hi:
        return None
    return base + t_lo * v, base + t_hi * v


def require_plane(polytope):
    """Raise :class:`DimensionUnsupportedError` unless ``polytope.n == 2``."""
    if polytope.n != 2:
        raise DimensionUnsupportedError(
            f"SVG rendering requires n = 2, got n = {polytope.n}"
        )


def emit_svg(traces, polytope):
    """Render center-search traces over the polytope's constraint lines.

    Only n = 2 is supported.  The canvas is ``WIDTH`` x ``HEIGHT`` pixels
    with a ``MARGIN`` on every side.  The view covers the bounding box of
    all trace points, expanded 10% per side (1 unit when degenerate);
    constraint lines are clipped to it.  Each trace becomes a colored
    polyline with a filled marker at its final point; single-point traces
    draw only the marker.

    Returns the SVG document as a string.
    """
    require_plane(polytope)
    if not traces:
        raise ValueError("need at least one trace")
    pts = np.array(
        [rec.point for trace in traces for rec in trace.records], dtype=float
    )
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    extent = hi - lo
    pad = np.where(extent > 0.0, 0.1 * extent, 1.0)
    lo = lo - pad
    hi = hi + pad
    box = (lo[0], hi[0], lo[1], hi[1])

    inner_w = WIDTH - 2 * MARGIN
    inner_h = HEIGHT - 2 * MARGIN
    scale = min(inner_w / (hi[0] - lo[0]), inner_h / (hi[1] - lo[1]))
    off_x = MARGIN + 0.5 * (inner_w - scale * (hi[0] - lo[0]))
    off_y = MARGIN + 0.5 * (inner_h - scale * (hi[1] - lo[1]))

    def px(pt):
        x = off_x + (pt[0] - lo[0]) * scale
        y = HEIGHT - off_y - (pt[1] - lo[1]) * scale
        return f"{x:.2f}", f"{y:.2f}"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
    ]
    for row, rhs in zip(polytope.A, polytope.b):
        seg = _clip_line_to_box(row, rhs, box)
        if seg is None:
            continue
        (x1, y1), (x2, y2) = px(seg[0]), px(seg[1])
        parts.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            'stroke="#999999" stroke-width="1"/>'
        )
    for idx, trace in enumerate(traces):
        color = _PALETTE[idx % len(_PALETTE)]
        coords = [px(rec.point) for rec in trace.records]
        if len(coords) > 1:
            parts.append(
                f'<polyline points="{" ".join(map(",".join, coords))}" fill="none" '
                f'stroke="{color}" stroke-width="1.5"/>'
            )
        cx, cy = coords[-1]
        parts.append(f'<circle cx="{cx}" cy="{cy}" r="4" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
