"""In-memory span tracing around the library's module-level names.

A span is ``[name, start, end, parent, op, info]``: ``parent`` is the index
of the enclosing span (-1 at top level), ``op`` the benchmark op id and
``info`` whatever the wrapped call's result says about the work done
(iteration counts, convergence).  Spans stay in memory and are written out
once, at the end of the run.

The wrappers are installed from the benchmark, around the names through
which the library calls itself (``polycenter.center.section`` and so on),
so the library code is unchanged.  ``uninstall`` puts the originals back,
which keeps untraced ops free of any wrapper cost.
"""

import importlib
import time

# (module, attribute, span name); the same layer can be reached through
# several modules, each of which binds its own name.
TARGETS = (
    ("polycenter.center", "section", "lines.section"),
    ("polycenter.center", "solve_harmonic_offset", "harmonic.solve"),
    ("polycenter.center", "cs_step", "center.cs_step"),
    ("polycenter.center", "f_norm", "center.f_norm"),
    ("polycenter.center", "harmonic_center", "center.harmonic_center"),
    ("polycenter.center", "bi_center", "center.bi_center"),
    ("polycenter.center", "harmonic_hyperplane", "center.hyperplane"),
    ("polycenter.harmonic", "section", "lines.section"),
    ("polycenter.harmonic", "solve_harmonic_offset", "harmonic.solve"),
    ("polycenter.model", "parse_polytope", "model.parse"),
    ("polycenter.model", "normalize_rows", "model.polytope_build"),
    ("polycenter.cli", "load_polytope", "cli.load"),
    ("polycenter.cli", "find_interior_point", "model.interior_search"),
    ("polycenter.cli", "harmonic_center", "center.harmonic_center"),
    ("polycenter.cli", "bi_center", "center.bi_center"),
    ("polycenter.cli", "harmonic_hyperplane", "center.hyperplane"),
    ("polycenter.cli", "harmonic_point_on_line", "harmonic.point_on_line"),
    ("polycenter.cli", "f_norm", "center.f_norm"),
    ("polycenter.cli", "emit_svg", "svg.emit"),
    ("polycenter.cli", "main", "cli.main"),
)


def _info(result):
    """What a result says about the work behind it, or None."""
    if hasattr(result, "converged") and hasattr(result, "iterations"):
        # HarmonicSolveResult
        return [result.iterations, bool(result.converged)]
    if isinstance(result, tuple) and len(result) == 2 and hasattr(result[1], "records"):
        # (point, CenterTrace) from harmonic_center / bi_center
        return [result[1].iterations, bool(result[1].converged)]
    return None


class Tracer:
    """Collects spans from wrapped library calls while installed."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            span[5] = _info(result)
            return result

        return traced

    def install(self):
        """Wrap every target name; a second install is a no-op."""
        if self._saved:
            return
        for modname, attr, name in TARGETS:
            mod = importlib.import_module(modname)
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(name, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    covered by its direct children (overlapping children counted once)."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda j: spans[j][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def rebase(spans, op, offset):
    """Spans read back from a child process, renumbered to follow ``offset``
    spans already held and tagged with ``op``."""
    return [
        [s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1, op, s[5]]
        for s in spans
    ]
