"""Command-line front end.

Commands operate on ``.poly`` files (format documented in
:mod:`polycenter.model`).  Results go to stdout; diagnostics and errors go
to stderr.  Exit codes: 0 success, 1 parse or I/O error, 2 infeasible
input or non-interior start, 3 unbounded line or polytope, 4 iteration
budget exhausted.
"""

import argparse
import json
import sys

import numpy as np

from .center import (
    bi_center,
    directional_sum,
    f_norm,
    f_vector,
    harmonic_center,
    harmonic_hyperplane,
)
from .errors import (
    BracketInvalidError,
    DegenerateAtCenterError,
    DimensionUnsupportedError,
    InteriorSearchError,
    NotInteriorError,
    PolytopeFormatError,
    UnboundedDirectionError,
)
from . import harmonic
# not called here (point needs the line solve's converged flag), but
# perfbench's tracer wraps it under this module name
from .harmonic import harmonic_point_on_line  # noqa: F401
from .lines import axis_direction, point_at, unit_direction
from .model import find_interior_point, load_polytope
from .svg import emit_svg, require_plane

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_MAXITER = 4


def _vector(text):
    try:
        values = tuple(float(tok) for tok in text.split(","))
        if np.isfinite(values).all():
            return values
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected comma-separated finite numbers, got {text!r}"
    )


def _positive(text):
    try:
        value = float(text)
        if value > 0.0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")


def _count(text):
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a non-negative integer, got {text!r}"
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="polycenter",
        description="Harmonic centers, points, and hyperplanes of convex "
        "polytopes in halfspace form.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_loop=True):
        p.add_argument("input", help="path to a .poly file")
        p.add_argument(
            "--start",
            type=_vector,
            default=None,
            metavar="X1,...,XN",
            help="interior start point (default: search for one); write one "
            "with a negative first coordinate as --start=-1,0.5",
        )
        p.add_argument(
            "--inner-tol",
            type=_positive,
            default=1e-10,
            help="tolerance of the per-line root solver (default 1e-10)",
        )
        p.add_argument(
            "--format",
            dest="fmt",
            choices=("table", "csv", "json"),
            default="table",
            help="output format (default table)",
        )
        if with_loop:
            p.add_argument(
                "--tol",
                type=_positive,
                default=0.01,
                help="stopping tolerance of the outer loop (default 0.01)",
            )
            p.add_argument(
                "--max-iter",
                type=_count,
                default=100,
                help="outer iteration cap (default 100)",
            )

    p_center = sub.add_parser("center", help="compute the harmonic center")
    common(p_center)
    p_center.add_argument("--trace", default=None, help="write iteration CSV here")
    p_center.add_argument(
        "--svg", default=None, help="write an SVG of the trajectory (n = 2 only)"
    )

    p_point = sub.add_parser(
        "point", help="harmonic point of one line through the start"
    )
    common(p_point, with_loop=False)
    group = p_point.add_mutually_exclusive_group(required=True)
    group.add_argument("--axis", type=int, help="1-based coordinate axis")
    group.add_argument(
        "--dir",
        dest="direction",
        type=_vector,
        metavar="V1,...,VN",
        help="line direction (normalized on ingestion); write one with a "
        "negative first component as --dir=-1,0",
    )

    p_hyp = sub.add_parser(
        "hyperplane", help="harmonic hyperplane of the start point"
    )
    common(p_hyp, with_loop=False)

    p_cmp = sub.add_parser(
        "compare-bi", help="harmonic center vs bisection center from one start"
    )
    common(p_cmp)

    p_check = sub.add_parser(
        "check", help="test whether the start point is the harmonic center"
    )
    common(p_check)

    return parser


def _fmt_point(p):
    return "(" + ", ".join(f"{v:.2f}" for v in p) + ")"


def _csv(*rows):
    # cells are names or Python floats, whose str() is their full repr()
    return "".join(",".join(str(v) for v in row) + "\n" for row in rows)


def _sized(values, poly, name, parts):
    """``values`` as an array of ``poly.n`` floats, or a parse error."""
    v = np.asarray(values, dtype=float)
    if v.shape != (poly.n,):
        raise PolytopeFormatError(
            f"{name} has {v.size} {parts}, polytope has n={poly.n}"
        )
    return v


def _resolve_start(start, poly):
    if start is not None:
        return _sized(start, poly, "start point", "coordinates")
    p0 = find_interior_point(poly)
    print(
        "start (auto): " + ",".join(repr(float(v)) for v in p0),
        file=sys.stderr,
    )
    return p0


# Each command returns (JSON result, table lines, CSV text or None,
# failure).  A command without its own CSV prints its table lines for
# --format csv.  ``failure`` is the stderr line of a search that did not
# converge, or None; run() turns it into the exit status.


def _harmonic_center(args, poly, p0):
    return harmonic_center(
        poly,
        p0,
        stop_tol=args.tol,
        max_iter=args.max_iter,
        inner_tol=args.inner_tol,
    )


def _cmd_center(args, poly, p0):
    if args.svg:
        # fail before the search, and so before any output file is written
        require_plane(poly)
    point, trace = _harmonic_center(args, poly, p0)
    csv_text = trace.to_csv()
    if args.trace:
        with open(args.trace, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    if args.svg:
        doc = emit_svg([trace], poly)
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(doc)
    final = trace.final
    result = {
        "center": [float(v) for v in point],
        "fnorm": final.fnorm,
        "iterations": final.iteration,
        "converged": trace.converged,
    }
    rows = [
        f"center: {_fmt_point(point)}",
        f"fnorm: {final.fnorm:.3f}",
        f"iterations: {final.iteration}",
        f"converged: {'yes' if trace.converged else 'no'}",
    ]
    failure = None
    if not trace.converged:
        if final.fnorm > args.tol:
            reason = f"fnorm {final.fnorm:.6g} > {args.tol:.6g}"
        else:
            reason = f"a line solve missed --inner-tol {args.inner_tol:.6g}"
        failure = f"not converged after {final.iteration} iterations ({reason})"
    return result, rows, csv_text, failure


def _cmd_point(args, poly, p0):
    if args.axis is not None:
        u = axis_direction(args.axis, poly.n)
    else:
        u = unit_direction(_sized(args.direction, poly, "direction", "components"))
    # through the harmonic module's names, which perfbench's tracer wraps
    res = harmonic.solve_harmonic_offset(
        harmonic.section(poly, p0, u), tol=args.inner_tol
    )
    q = point_at(p0, u, res.h)
    result = {"point": [float(v) for v in q]}
    csv_text = _csv([f"x{j + 1}" for j in range(poly.n)], result["point"])
    failure = None
    if not res.converged:
        failure = (
            f"not converged after {res.iterations} iterations "
            f"(the line solve missed --inner-tol {args.inner_tol:.6g})"
        )
    return result, [f"point: {_fmt_point(q)}"], csv_text, failure


def _cmd_hyperplane(args, poly, p0):
    hp = harmonic_hyperplane(poly, p0)
    result = {"normal": [float(v) for v in hp.normal], "offset": hp.offset}
    rows = [f"normal: {_fmt_point(hp.normal)}", f"offset: {hp.offset:.2f}"]
    names = [f"v{j + 1}" for j in range(poly.n)] + ["offset"]
    return result, rows, _csv(names, result["normal"] + [hp.offset]), None


def _cmd_compare_bi(args, poly, p0):
    hc, htrace = _harmonic_center(args, poly, p0)
    bc, btrace = bi_center(poly, p0, stop_tol=args.tol, max_iter=args.max_iter)
    gap = float(np.linalg.norm(hc - bc))
    result = {
        "harmonic_center": [float(v) for v in hc],
        "bisection_center": [float(v) for v in bc],
        "gap": gap,
    }
    rows = [
        f"harmonic center: {_fmt_point(hc)}",
        f"bisection center: {_fmt_point(bc)}",
        f"gap: {gap:.2f}",
    ]
    csv_text = _csv(
        ["which"] + [f"x{j + 1}" for j in range(poly.n)],
        ["harmonic"] + result["harmonic_center"],
        ["bisection"] + result["bisection_center"],
    )
    failure = None
    if not (htrace.converged and btrace.converged):
        failure = "one or both searches did not converge"
    return result, rows, csv_text, failure


def _cmd_check(args, poly, p0):
    # max over unit u of |u . f| is |f|, attained along f / |f|; the one
    # directional sum there cross-checks that identity
    fn = f_norm(poly, p0)
    worst = 0.0
    if fn > 0.0:
        worst = abs(directional_sum(poly, p0, f_vector(poly, p0) / fn))
    ok = fn <= args.tol and worst <= args.tol
    result = {"fnorm": fn, "max_directional_sum": worst, "pass": ok}
    rows = [
        f"fnorm: {fn:.6g}",
        f"max |directional sum| (along f/|f|): {worst:.6g}",
        f"check: {'PASS' if ok else 'FAIL'} (tol {args.tol:.6g})",
    ]
    return result, rows, None, None


_COMMANDS = {
    "center": _cmd_center,
    "point": _cmd_point,
    "hyperplane": _cmd_hyperplane,
    "compare-bi": _cmd_compare_bi,
    "check": _cmd_check,
}


def run(args, out=None):
    """Execute one command from a namespace parsed by :func:`build_parser`.

    Loads ``args.input``, resolves the start point, runs ``args.command``
    and writes its result to ``out`` (default stdout) as ``args.fmt``.
    Returns the exit status, which is decided here for every command that
    completes: 4 when its search did not converge (the reason goes to
    stderr and the result is still written), else 0.  Errors propagate as
    exceptions, which :func:`main` maps to their exit codes.
    """
    out = out if out is not None else sys.stdout
    poly = load_polytope(args.input)
    p0 = _resolve_start(args.start, poly)
    result, rows, csv_text, failure = _COMMANDS[args.command](args, poly, p0)
    if failure is not None:
        print(failure, file=sys.stderr)
    if args.fmt == "json":
        out.write(json.dumps(result) + "\n")
    elif args.fmt == "csv" and csv_text is not None:
        out.write(csv_text)
    else:
        out.write("".join(row + "\n" for row in rows))
    return EXIT_OK if failure is None else EXIT_MAXITER


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse prints usage problems itself and exits 2, which is
        # reserved for infeasible input: they are parse errors (exit 1)
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return run(args)
    except (PolytopeFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (NotInteriorError, InteriorSearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (UnboundedDirectionError, BracketInvalidError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNBOUNDED
    except (DimensionUnsupportedError, DegenerateAtCenterError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
