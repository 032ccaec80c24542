"""Command-line front end.

Commands operate on ``.poly`` files (format documented in
:mod:`polycenter.model`).  Results go to stdout; diagnostics and errors go
to stderr.  Exit codes: 0 success, 1 parse or I/O error, 2 infeasible
input or non-interior start, 3 unbounded line or polytope, 4 iteration
budget exhausted.
"""

import argparse
import sys
from collections import namedtuple

import numpy as np

from .center import (
    bi_center,
    csv_rows,
    directional_sum,
    f_norm,
    f_vector,
    harmonic_center,
    harmonic_hyperplane,
)
from .errors import (
    BracketInvalidError,
    NotInteriorError,
    PolytopeError,
    PolytopeFormatError,
)
from . import harmonic
# not called here (point needs the line solve's converged flag), but
# perfbench's tracer wraps it under this module name
from .harmonic import harmonic_point_on_line  # noqa: F401
from .lines import axis_direction, norm, point_at, unit_direction
from .model import find_interior_point, load_polytope
from .svg import emit_svg, require_plane

# every error kind carries its own exit code (see polycenter.errors)
EXIT_OK = 0
EXIT_PARSE = PolytopeError.exit_code
EXIT_INFEASIBLE = NotInteriorError.exit_code
EXIT_UNBOUNDED = BracketInvalidError.exit_code
EXIT_MAXITER = 4


def _value(parse, valid, expected):
    """An argparse type: ``parse(text)`` if ``valid`` of it, else a usage
    error naming what was ``expected``."""

    def convert(text):
        try:
            value = parse(text)
            if valid(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")

    return convert


_vector = _value(
    lambda text: tuple(float(tok) for tok in text.split(",")),
    lambda values: np.isfinite(values).all(),
    "comma-separated finite numbers",
)
_positive = _value(float, lambda value: value > 0.0, "a positive number")
_count = _value(int, lambda value: value >= 0, "a non-negative integer")


# Every option once, by flag: its argparse arguments.
_OPTIONS = {
    "--start": dict(
        type=_vector,
        metavar="X1,...,XN",
        help="interior start point (default: search for one); write one "
        "with a negative first coordinate as --start=-1,0.5",
    ),
    "--inner-tol": dict(
        type=_positive,
        default=1e-10,
        help="tolerance of the per-line root solver (default 1e-10)",
    ),
    "--format": dict(
        dest="fmt",
        choices=("table", "csv", "json"),
        default="table",
        help="output format (default table)",
    ),
    "--tol": dict(
        type=_positive,
        default=0.01,
        help="tolerance of the outer search, or check's pass threshold "
        "(default 0.01)",
    ),
    "--max-iter": dict(
        type=_count, default=100, help="outer iteration cap (default 100)"
    ),
    "--trace": dict(help="write iteration CSV here"),
    "--svg": dict(help="write an SVG of the trajectory (n = 2 only)"),
    "--axis": dict(type=int, help="1-based coordinate axis"),
    "--dir": dict(
        dest="direction",
        type=_vector,
        metavar="V1,...,VN",
        help="line direction (normalized on ingestion); write one with a "
        "negative first component as --dir=-1,0",
    ),
}


def _field(key, value, spec=".2f", line=None):
    """One result field: its JSON key and value, and its table line.

    A vector's value is its list of floats.  The line is ``line`` if given,
    else ``key: text`` with the key's underscores as spaces: a bool as
    yes/no, else the number, or each coordinate as ``(v1, ..., vn)``, in
    format ``spec`` (2 decimals unless given).
    """
    if np.ndim(value):
        value = [float(v) for v in value]
        text = "(" + ", ".join(format(v, spec) for v in value) + ")"
    elif isinstance(value, bool):
        text = "yes" if value else "no"
    else:
        text = format(value, spec)
    return key, value, line or f"{key.replace('_', ' ')}: {text}"


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
    print("start (auto): " + ",".join(repr(float(v)) for v in p0), file=sys.stderr)
    return p0


def _harmonic_center(args, poly, p0):
    return harmonic_center(
        poly, p0, stop_tol=args.tol, max_iter=args.max_iter, inner_tol=args.inner_tol
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
    fields = [
        _field("center", point),
        _field("fnorm", final.fnorm, ".3f"),
        _field("iterations", final.iteration, "d"),
        _field("converged", trace.converged),
    ]
    failure = None
    if not trace.converged:
        if final.fnorm > args.tol:
            reason = f"fnorm {final.fnorm:.6g} > {args.tol:.6g}"
        else:
            reason = f"a line solve missed --inner-tol {args.inner_tol:.6g}"
        failure = f"not converged after {final.iteration} iterations ({reason})"
    return fields, csv_text, failure


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
    csv_text = csv_rows([f"x{j + 1}" for j in range(poly.n)], q.tolist())
    failure = None
    if not res.converged:
        failure = (
            f"not converged after {res.iterations} iterations "
            f"(the line solve missed --inner-tol {args.inner_tol:.6g})"
        )
    return [_field("point", q)], csv_text, failure


def _cmd_hyperplane(args, poly, p0):
    hp = harmonic_hyperplane(poly, p0)
    fields = [_field("normal", hp.normal), _field("offset", hp.offset)]
    names = [f"v{j + 1}" for j in range(poly.n)] + ["offset"]
    return fields, csv_rows(names, [*hp.normal.tolist(), hp.offset]), None


def _cmd_compare_bi(args, poly, p0):
    hc, htrace = _harmonic_center(args, poly, p0)
    bc, btrace = bi_center(poly, p0, stop_tol=args.tol, max_iter=args.max_iter)
    fields = [
        _field("harmonic_center", hc),
        _field("bisection_center", bc),
        _field("gap", norm(hc - bc)),
    ]
    csv_text = csv_rows(
        ["which"] + [f"x{j + 1}" for j in range(poly.n)],
        ["harmonic", *hc.tolist()],
        ["bisection", *bc.tolist()],
    )
    failure = None
    if not (htrace.converged and btrace.converged):
        failure = "one or both searches did not converge"
    return fields, csv_text, failure


def _cmd_check(args, poly, p0):
    # max over unit u of |u . f| is |f|, attained along f / |f|; the one
    # directional sum there cross-checks that identity
    fn = f_norm(poly, p0)
    worst = 0.0
    if fn > 0.0:
        worst = abs(directional_sum(poly, p0, f_vector(poly, p0) / fn))
    ok = fn <= args.tol and worst <= args.tol
    sums = f"max |directional sum| (along f/|f|): {worst:.6g}"
    verdict = f"check: {'PASS' if ok else 'FAIL'} (tol {args.tol:.6g})"
    fields = [
        _field("fnorm", fn, ".6g"),
        _field("max_directional_sum", worst, line=sums),
        _field("pass", ok, line=verdict),
    ]
    return fields, None, None


# A command's handler, help line, the options it reads (in usage order) and
# those of which it needs exactly one.  A handler returns (its result as
# :func:`_field` fields, CSV text or None for the table, failure: the stderr
# line of a search that did not converge, or None).
_Command = namedtuple("_Command", "handler help options one_of", defaults=("",))

_COMMAND_TABLE = {
    "center": _Command(
        _cmd_center,
        "compute the harmonic center",
        "--start --inner-tol --format --tol --max-iter --trace --svg",
    ),
    "point": _Command(
        _cmd_point,
        "harmonic point of one line through the start",
        "--start --inner-tol --format",
        one_of="--axis --dir",
    ),
    "hyperplane": _Command(
        _cmd_hyperplane, "harmonic hyperplane of the start point", "--start --format"
    ),
    "compare-bi": _Command(
        _cmd_compare_bi,
        "harmonic center vs bisection center from one start",
        "--start --inner-tol --format --tol --max-iter",
    ),
    "check": _Command(
        _cmd_check,
        "test whether the start point is the harmonic center",
        "--start --format --tol",
    ),
}


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: reports an option the command does not take
    under its own usage line.  argparse leaves such an argument to the
    top-level parser, whose usage line names no command's options.
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser():
    """One subcommand per command, with only the options its handler reads."""
    parser = argparse.ArgumentParser(
        prog="polycenter",
        description="Harmonic centers, points, and hyperplanes of convex "
        "polytopes in halfspace form.",
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_CommandParser
    )
    for name, command in _COMMAND_TABLE.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("input", help="path to a .poly file")
        for flag in command.options.split():
            p.add_argument(flag, **_OPTIONS[flag])
        if command.one_of:
            group = p.add_mutually_exclusive_group(required=True)
            for flag in command.one_of.split():
                group.add_argument(flag, **_OPTIONS[flag])
    return parser


def run(args, out=None):
    """Execute one command from a namespace parsed by :func:`build_parser`.

    Loads ``args.input``, resolves the start point, runs the handler of
    ``args.command`` with numpy's overflow warnings off (the library handles
    an overflowed distance or norm as a value) and writes its result to
    ``out`` (default stdout) as ``args.fmt``.  Returns the exit status, which
    is decided here for every command that completes: 4 when its search did
    not converge (the reason goes to stderr and the result is still
    written), else 0.  Errors propagate as exceptions; :func:`main` prints
    each and returns its kind's ``exit_code``.
    """
    out = out if out is not None else sys.stdout
    handler = _COMMAND_TABLE[args.command].handler
    with np.errstate(over="ignore"):
        poly = load_polytope(args.input)
        p0 = _resolve_start(args.start, poly)
        fields, csv_text, failure = handler(args, poly, p0)
    if failure is not None:
        print(failure, file=sys.stderr)
    if args.fmt == "json":
        # imported here: the table and csv formats do not pay for it
        import json

        out.write(json.dumps({key: value for key, value, _ in fields}) + "\n")
    elif args.fmt == "csv" and csv_text is not None:
        out.write(csv_text)
    else:
        out.write("".join(line + "\n" for _, _, line in fields))
    return EXIT_OK if failure is None else EXIT_MAXITER


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse prints usage problems itself and exits 2, which is
        # reserved for infeasible input: they are parse errors (exit 1)
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        return run(args)
    except (PolytopeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a domain error's own code; I/O errors and bad values are exit 1
        return getattr(exc, "exit_code", EXIT_PARSE)


if __name__ == "__main__":
    sys.exit(main())
