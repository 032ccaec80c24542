"""CLI behavior: commands, formats, exit codes, determinism."""

import argparse
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import polycenter
from conftest import DATA
from polycenter import (
    CenterTrace,
    TraceRecord,
    bi_center,
    cli,
    harmonic_center,
    parse_trace_csv,
)
from polycenter.cli import (
    EXIT_INFEASIBLE,
    EXIT_MAXITER,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNBOUNDED,
    build_parser,
    main,
    run,
)

EXAMPLE1 = str(DATA / "example1.poly")
EXAMPLE2 = str(DATA / "example2.poly")
SQUARE = str(DATA / "square.poly")


@pytest.fixture
def unbounded_file(tmp_path):
    path = tmp_path / "open.poly"
    path.write_text("dims 3 2\n-1 0 0\n0 -1 0\n0 1 5\n")
    return str(path)


@pytest.fixture
def infeasible_file(tmp_path):
    path = tmp_path / "empty.poly"
    path.write_text("dims 4 2\n1 0 0\n-1 0 -1\n0 1 5\n0 -1 5\n")
    return str(path)


class TestCenterCommand:
    def test_reference_result(self, capsys):
        assert main(["center", EXAMPLE1, "--start", "3,0.25"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "center: (6.02, 5.55)" in out
        assert "converged: yes" in out

    def test_trace_csv_written(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code = main(
            [
                "center",
                EXAMPLE2,
                "--start",
                "1,2,2.5,1.3",
                "--trace",
                str(trace_path),
            ]
        )
        assert code == EXIT_OK
        records = parse_trace_csv(trace_path.read_text())
        assert len(records) == 4
        assert records[0].iteration == 0
        assert records[-1].fnorm <= 0.01

    def test_csv_format_matches_trace_file(self, capsys, tmp_path):
        trace_path = tmp_path / "trace.csv"
        code = main(
            [
                "center",
                EXAMPLE2,
                "--start",
                "1,2,2.5,1.3",
                "--format",
                "csv",
                "--trace",
                str(trace_path),
            ]
        )
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert out == trace_path.read_text()

    def test_json_format(self, capsys):
        assert (
            main(
                [
                    "center",
                    EXAMPLE2,
                    "--start",
                    "1,2,2.5,1.3",
                    "--format",
                    "json",
                ]
            )
            == EXIT_OK
        )
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"center", "fnorm", "iterations", "converged"}
        assert payload["converged"] is True
        assert payload["iterations"] == 3
        assert np.allclose(payload["center"], (1.68, 2.83, 4.05, 2.03), atol=0.02)

    def test_auto_start_reported(self, capsys):
        assert main(["center", EXAMPLE1]) == EXIT_OK
        captured = capsys.readouterr()
        assert "start (auto):" in captured.err
        assert "center: (6.02, 5.55)" in captured.out
        # the reported start can be fed back in via --start
        start = captured.err.split("start (auto): ")[1].strip()
        assert main(["center", EXAMPLE1, "--start", start]) == EXIT_OK

    def test_svg_written(self, tmp_path, capsys):
        svg_path = tmp_path / "run.svg"
        code = main(
            ["center", EXAMPLE1, "--start", "9,6", "--svg", str(svg_path)]
        )
        assert code == EXIT_OK
        assert svg_path.read_text().startswith("<svg")

    def test_deterministic_outputs(self, tmp_path, capsys):
        files = []
        for tag in ("a", "b"):
            trace = tmp_path / f"{tag}.csv"
            svg = tmp_path / f"{tag}.svg"
            main(
                [
                    "center",
                    EXAMPLE1,
                    "--start",
                    "3,0.25",
                    "--trace",
                    str(trace),
                    "--svg",
                    str(svg),
                ]
            )
            files.append((trace.read_bytes(), svg.read_bytes()))
        assert files[0] == files[1]


class TestPointCommand:
    def test_axis(self, capsys):
        assert (
            main(["point", SQUARE, "--start", "0.25,0.5", "--axis", "1"])
            == EXIT_OK
        )
        assert "point: (0.50, 0.50)" in capsys.readouterr().out

    def test_direction_normalized_on_ingestion(self, capsys):
        assert (
            main(["point", SQUARE, "--start", "0.25,0.5", "--dir", "2,0"])
            == EXIT_OK
        )
        assert "point: (0.50, 0.50)" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extreme, ordinary", [("1e-320,0", "1,0"), ("1e308,1e308", "1,1")]
    )
    def test_direction_norm_under_and_overflow(self, capsys, extreme, ordinary):
        # the norm of the first underflows to 0 and of the second overflows
        # to inf; both are still the ordinary direction
        outputs = []
        for v in (extreme, ordinary):
            argv = ["point", SQUARE, "--start", "0.5,0.5", "--dir", v]
            assert main([*argv, "--format", "json"]) == EXIT_OK
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]

    def test_axis_and_dir_mutually_exclusive(self, capsys):
        code = main(
            ["point", SQUARE, "--start", "0.25,0.5", "--axis", "1", "--dir", "1,0"]
        )
        assert code == EXIT_PARSE

    def test_axis_out_of_range(self, capsys):
        code = main(["point", SQUARE, "--start", "0.25,0.5", "--axis", "5"])
        assert code == EXIT_PARSE

    @pytest.mark.parametrize(
        "argv",
        [
            [EXAMPLE1, "--start", "9,6", "--axis", "2"],
            [EXAMPLE2, "--start", "1,2,2.5,1.3", "--dir", "1,1,0,0"],
        ],
    )
    def test_line_solve_budget_exhausted(self, capsys, argv):
        # no root solve of these lines meets 1e-300 within its budget: the
        # point is still printed, and the exit status says it is inexact
        assert main(["point", *argv]) == EXIT_OK
        capsys.readouterr()
        code = main(["point", *argv, "--inner-tol", "1e-300"])
        assert code == EXIT_MAXITER
        captured = capsys.readouterr()
        assert captured.out.startswith("point: (")
        assert captured.err == (
            "not converged after 100 iterations "
            "(the line solve missed --inner-tol 1e-300)\n"
        )

    def test_json(self, capsys):
        main(
            [
                "point",
                SQUARE,
                "--start",
                "0.25,0.5",
                "--axis",
                "1",
                "--format",
                "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        assert np.allclose(payload["point"], (0.5, 0.5), atol=1e-9)


class TestHyperplaneCommand:
    def test_table(self, capsys):
        assert main(["hyperplane", SQUARE, "--start", "0.25,0.5"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "normal: (-2.67, 0.00)" in out
        assert "offset: -0.67" in out

    def test_degenerate_at_center(self, capsys):
        code = main(["hyperplane", SQUARE, "--start", "0.5,0.5"])
        assert code == EXIT_PARSE
        assert "harmonic center" in capsys.readouterr().err


class TestCompareBiCommand:
    def test_fixture_gap(self, capsys):
        assert main(["compare-bi", EXAMPLE1, "--start", "9,6"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "harmonic center:" in out
        assert "bisection center:" in out
        gap = float(out.split("gap: ")[1])
        assert gap > 1.0

    def test_not_converged(self, capsys):
        code = main(["compare-bi", EXAMPLE1, "--start", "9,6", "--max-iter", "1"])
        assert code == EXIT_MAXITER
        captured = capsys.readouterr()
        # the partial result is still reported, and the search that missed
        # --tol is named with its stop measure
        assert "gap: " in captured.out
        assert captured.err == (
            "bisection search: not converged after 1 iterations "
            "(offset 0.693125 > 0.01)\n"
        )

    def test_json(self, capsys):
        main(["compare-bi", SQUARE, "--start", "0.3,0.4", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert np.allclose(payload["harmonic_center"], (0.5, 0.5), atol=0.02)
        assert np.allclose(payload["bisection_center"], (0.5, 0.5), atol=0.02)
        assert payload["gap"] == pytest.approx(0.0, abs=0.05)


class TestCheckCommand:
    def test_pass_at_center(self, capsys):
        assert main(["check", SQUARE, "--start", "0.5,0.5"]) == EXIT_OK
        assert "check: PASS" in capsys.readouterr().out

    def test_fail_off_center(self, capsys):
        assert main(["check", SQUARE, "--start", "0.25,0.5"]) == EXIT_OK
        assert "check: FAIL" in capsys.readouterr().out

    def test_json(self, capsys):
        main(["check", SQUARE, "--start", "0.5,0.5", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        assert payload["fnorm"] <= 1e-12

    def test_max_directional_sum_is_exact(self, capsys):
        # max over unit u of |u . f| is |f|, not a sampled lower bound
        main(["check", EXAMPLE1, "--start", "3,0.25", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"fnorm", "max_directional_sum", "pass"}
        assert payload["max_directional_sum"] == pytest.approx(
            payload["fnorm"], abs=1e-12
        )
        assert payload["pass"] is False


class TestExitCodes:
    def test_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.poly"
        bad.write_text("dims 3 2\n0 0 5\n1 0 1\n0 1 1\n")
        assert main(["center", str(bad)]) == EXIT_PARSE
        assert "zero" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["center", "/nonexistent/x.poly"]) == EXIT_PARSE

    def test_non_interior_start(self, capsys):
        assert main(["center", SQUARE, "--start", "2,2"]) == EXIT_INFEASIBLE

    def test_empty_interior(self, infeasible_file, capsys):
        assert main(["center", infeasible_file]) == EXIT_INFEASIBLE

    def test_unbounded(self, unbounded_file, tmp_path, capsys):
        code = main(["center", unbounded_file, "--start", "1,1"])
        assert code == EXIT_UNBOUNDED
        # the strip |x - y| <= 1, x + y >= 0 is open along (1, 1)
        strip = tmp_path / "strip.poly"
        strip.write_text("dims 3 2\n1 -1 1\n-1 1 1\n-1 -1 0\n")
        capsys.readouterr()
        code = main(["point", str(strip), "--start", "0.5,0.5", "--dir", "1,1"])
        assert code == EXIT_UNBOUNDED
        assert capsys.readouterr().err == (
            "error: line has no forward intersection: polytope unbounded along it\n"
        )

    def test_max_iter_exceeded(self, capsys):
        code = main(
            ["center", EXAMPLE2, "--start", "1,2,2.5,1.3", "--max-iter", "1"]
        )
        assert code == EXIT_MAXITER
        # the partial result is still reported
        assert "converged: no" in capsys.readouterr().out

    def test_wrong_start_dimension(self, capsys):
        assert main(["center", SQUARE, "--start", "0.5"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == "error: start point has 1 coordinates, polytope has n=2\n"
        argv = ["point", SQUARE, "--start", "0.25,0.5", "--dir", "1,0,0"]
        assert main(argv) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == "error: direction has 3 components, polytope has n=2\n"

    def test_bad_start_token(self, capsys):
        assert main(["center", SQUARE, "--start", "a,b"]) == EXIT_PARSE

    def test_svg_wrong_dimension(self, tmp_path, capsys):
        code = main(
            [
                "center",
                EXAMPLE2,
                "--start",
                "1,2,2.5,1.3",
                "--svg",
                str(tmp_path / "x.svg"),
            ]
        )
        assert code == EXIT_PARSE

    def test_svg_wrong_dimension_fails_before_search(self, tmp_path, capsys):
        trace, svg = tmp_path / "t.csv", tmp_path / "x.svg"
        argv = ["center", EXAMPLE2, "--start", "1,2,2.5,1.3"]
        argv += ["--trace", str(trace), "--svg", str(svg)]
        assert main(argv) == EXIT_PARSE
        captured = capsys.readouterr()
        assert "n = 2" in captured.err
        assert captured.out == ""
        assert not trace.exists() and not svg.exists()

    def test_negative_tolerance(self, capsys):
        assert main(["center", SQUARE, "--tol", "-1"]) == EXIT_PARSE
        for flag in ("--tol", "--inner-tol"):
            for value in ("0", "-1e-3", "nan", "abc"):
                assert main(["center", SQUARE, flag, value]) == EXIT_PARSE
        for value in ("-5", "x", "1.5"):
            assert main(["center", SQUARE, f"--max-iter={value}"]) == EXIT_PARSE

    @pytest.mark.parametrize(
        "rows, start",
        [
            ("-1 0 0\n0 -1 0\n1 0 nan\n0 1 1\n", []),
            ("1 -1 1\n-1 1 1\n-1 -1 0\n1 1 inf\n", ["--start", "0.5,0"]),
            # a row that is zero and non-finite is non-finite
            ("0 0 nan\n-1 0 0\n0 -1 0\n", []),
        ],
    )
    def test_non_finite_input(self, tmp_path, capsys, rows, start):
        lines = rows.splitlines()
        path = tmp_path / "bad.poly"
        path.write_text(f"dims {len(lines)} 2\n{rows}")
        # the line of the first row with a nan or inf (no number has an "n")
        line = 2 + next(i for i, row in enumerate(lines) if "n" in row)
        for command in ("center", "check"):
            assert main([command, str(path), *start]) == EXIT_PARSE
            err = capsys.readouterr().err
            assert err == f"error: line {line}: non-finite entry\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["point", EXAMPLE1, "--start", "nan,1", "--axis", "1"],
            ["point", EXAMPLE1, "--start", "9,6", "--dir", "nan,1"],
            ["point", EXAMPLE1, "--start", "9,6", "--dir", "1,-inf"],
            ["center", EXAMPLE1, "--start", "inf,1"],
            ["center", EXAMPLE1, "--start", "9,nan"],
        ],
    )
    def test_non_finite_vector_is_bad_usage(self, capsys, argv):
        assert main(argv) == EXIT_PARSE
        assert "finite numbers" in capsys.readouterr().err

    def test_negative_first_component(self, tmp_path, capsys):
        # argparse reads "-0.5,0.25" as an option, not as a value; the
        # "=" form passes it as the flag's value
        box = tmp_path / "box.poly"
        box.write_text("dims 4 2\n1 0 1\n-1 0 1\n0 1 1\n0 -1 1\n")
        argv = ["compare-bi", str(box)]
        assert main([*argv, "--start=-0.5,0.25"]) == EXIT_OK
        assert "bisection center: (0.00, 0.00)" in capsys.readouterr().out
        assert main([*argv, "--start", "-0.5,0.25"]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert "argument --start: expected one argument" in err
        argv = ["point", str(box), "--start=-0.5,0.25", "--format", "json"]
        assert main([*argv, "--dir=-1,0"]) == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert np.allclose(payload["point"], (0.0, 0.25), atol=1e-12)
        assert main([*argv, "--dir", "-1,0"]) == EXIT_PARSE
        assert "argument --dir: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["center"],
            ["point", "--axis", "1"],
            ["hyperplane"],
            ["compare-bi"],
            ["check"],
        ],
    )
    def test_subnormal_slack_start(self, tmp_path, capsys, command):
        # the first slack at the origin is 1e-310 / sqrt(2), whose
        # reciprocal overflows: the auto start projects past it, and a
        # given start there is not strictly interior
        path = tmp_path / "subnormal.poly"
        path.write_text("dims 4 2\n1 1 1e-310\n-1 0 1e308\n0 -1 1\n1 -1 1\n")
        argv = [command[0], str(path), *command[1:]]
        code = main(argv)
        out, err = capsys.readouterr()
        start = "start (auto): -0.7071067811865476,-0.7071067811865476\n"
        assert err.startswith(start)
        if command[0] in ("hyperplane", "check"):
            assert code == EXIT_OK
            assert "inf" not in out + err and "nan" not in out + err
        assert main([*argv, "--start", "0,0"]) == EXIT_INFEASIBLE
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: point is not strictly interior (rows: c1)\n"

    def test_tiny_slack_start_has_a_finite_fnorm(self, tmp_path, capsys):
        # the slack 1e-200 at the origin is above the floor, but squaring
        # the f-vector (1e200, 0) overflows: the norm rescales instead
        path = tmp_path / "box.poly"
        path.write_text("dims 4 2\n1 0 1e-200\n-1 0 1\n0 1 1\n0 -1 1\n")
        assert main(["check", str(path), "--start", "0,0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "fnorm: 1e+200\n" in out
        assert "check: FAIL" in out
        main(["center", str(path), "--start", "0,0", "--format", "csv"])
        rows = capsys.readouterr().out.splitlines()
        assert rows[1] == "0,0.0,0.0,1e+200"

    def test_subnormal_slack_gap_is_finite(self, tmp_path, capsys):
        # the bisection search runs towards the row at 1e308, and the
        # squared gap overflows though the gap itself is a float
        path = tmp_path / "subnormal.poly"
        path.write_text("dims 4 2\n1 1 1e-310\n-1 0 1e308\n0 -1 1\n1 -1 1\n")
        code = main(["compare-bi", str(path), "--format", "json"])
        assert code == EXIT_MAXITER
        got = json.loads(capsys.readouterr().out)
        diff = np.subtract(got["harmonic_center"], got["bisection_center"])
        assert got["gap"] == math.hypot(*diff) == 7.453559924999299e307

    def test_inner_solve_budget_exhausted(self, capsys):
        # every outer sweep completes, but the line solves cannot meet
        # an inner tolerance of 1e-300 within their iteration budget
        code = main(["center", EXAMPLE1, "--start", "9,6", "--inner-tol", "1e-300"])
        assert code == EXIT_MAXITER
        captured = capsys.readouterr()
        assert "converged: no" in captured.out
        assert "--inner-tol" in captured.err

    def test_each_error_kind_has_readme_exit_code(self, monkeypatch, capsys):
        # README's table of error kinds: "| `A`, `B` | code |"
        readme = (DATA.parent / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| (`\w+`(?:, `\w+`)*) \| (\d) \|$", readme, re.M)
        documented = {
            name: int(code)
            for names, code in rows
            for name in re.findall(r"`(\w+)`", names)
        }
        kinds = {
            name: obj
            for name in polycenter.__all__
            if isinstance(obj := getattr(polycenter, name), type)
            and issubclass(obj, polycenter.PolytopeError)
        }
        # every kind, a new one too, is in the table, and the table only
        # names kinds
        assert set(documented) == set(kinds)
        for name, kind in kinds.items():
            assert kind.exit_code == documented[name], name

            def fail(path, kind=kind):
                raise kind("boom")

            monkeypatch.setattr(cli, "load_polytope", fail)
            assert main(["check", SQUARE]) == documented[name], name
            assert capsys.readouterr().err == "error: boom\n"


def test_run_with_config_object(capsys):
    args = build_parser().parse_args(["center", EXAMPLE1, "--start", "3,0.25"])
    buf = io.StringIO()
    assert run(args, out=buf) == EXIT_OK
    assert "center: (6.02, 5.55)" in buf.getvalue()


def test_console_script_end_to_end():
    env = dict(os.environ)
    src = str(DATA.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "polycenter.cli",
            "center",
            EXAMPLE1,
            "--start",
            "3,0.25",
            "--format",
            "json",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert np.allclose(payload["center"], (6.02, 5.55), atol=0.02)


# the options each command reads, in usage order: the whole CLI surface
COMMAND_OPTIONS = {
    "center": [
        "--start", "--inner-tol", "--format", "--tol", "--max-iter", "--trace", "--svg"
    ],
    "point": ["--start", "--inner-tol", "--format", "--axis", "--dir"],
    "hyperplane": ["--start", "--format"],
    "compare-bi": ["--start", "--inner-tol", "--format", "--tol", "--max-iter"],
    "check": ["--start", "--format", "--tol"],
}


def test_each_command_has_only_the_options_it_reads():
    (sub,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    got = {
        name: [s for a in p._actions if a.dest != "help" for s in a.option_strings]
        for name, p in sub.choices.items()
    }
    assert list(got.items()) == list(COMMAND_OPTIONS.items())


@pytest.mark.parametrize(
    "argv",
    [
        ["hyperplane", SQUARE, "--start", "0.25,0.5", "--inner-tol", "1e-8"],
        ["check", SQUARE, "--start", "0.5,0.5", "--inner-tol", "1e-8"],
        ["check", SQUARE, "--start", "0.5,0.5", "--max-iter", "5"],
        ["check", SQUARE, "--max-iter", "5"],
    ],
)
def test_option_a_command_does_not_read_is_bad_usage(capsys, argv):
    assert main(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in captured.err
    # under the command's usage line, which lists the options it does take
    assert captured.err.startswith(f"usage: polycenter {argv[0]} [-h] [--start")


@pytest.mark.parametrize(
    "rows, argv, code, err",
    [
        # the +x distance of row 2 overflows to inf: the bracket has an
        # infinite end, which the line solve cannot converge on
        (
            "0 1 1\n1e-11 1 1e300\n-1 0 1\n0 -1 1\n",
            ["point", "--start", "0,0", "--axis", "1"],
            EXIT_MAXITER,
            "not converged after 100 iterations "
            "(the line solve missed --inner-tol 1e-10)\n",
        ),
        # the norm of row 1 overflows, so the normalized row is zero
        (
            "1e200 1e200 1\n-1 0 1\n1 0 1\n0 -1 1\n",
            ["center"],
            EXIT_PARSE,
            "error: zero coefficient row at index 0\n",
        ),
        # the f-vector (1e200, 0) at the start squares to inf: its norm
        # rescales, under the command's error state
        (
            "1 0 1e-200\n-1 0 1\n0 1 1\n0 -1 1\n",
            ["check", "--start", "0,0"],
            EXIT_OK,
            "",
        ),
    ],
    ids=["distance", "norm", "fnorm"],
)
def test_no_numpy_overflow_warning_on_stderr(tmp_path, rows, argv, code, err):
    path = tmp_path / "over.poly"
    path.write_text("dims 4 2\n" + rows)
    env = dict(os.environ)
    src = str(DATA.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "polycenter.cli", argv[0], str(path), *argv[1:]],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (proc.returncode, proc.stderr) == (code, err)


def test_compare_bi_with_an_infinite_chord_end(tmp_path):
    # the +x chord from the origin has an infinite end: the bisection
    # search stays put, ends on its first sweep, which moved nothing, and
    # does not converge; the harmonic search's solve on that line has no
    # root to meet.  stderr names both and holds no numpy warning
    path = tmp_path / "over.poly"
    path.write_text("dims 4 2\n0 1 1\n1e-11 1 1e300\n-1 0 1\n0 -1 1\n")
    env = dict(os.environ)
    src = str(DATA.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "polycenter.cli", "compare-bi", str(path), "--start", "0,0"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (proc.returncode, proc.stderr) == (
        EXIT_MAXITER,
        "harmonic search: not converged after 1 iterations (a line solve "
        "missed --inner-tol 1e-10); bisection search: not converged after 1 "
        "iterations (offset inf > 0.01; the last sweep moved nothing)\n",
    )
    assert "bisection center: (0.00, 0.00)\n" in proc.stdout


# three rows on each side of the x axis at a slack of 6e-309: every
# reciprocal slack is finite, but their plain sums overflow, so at 0,0, its
# center by symmetry, the product (1 / s) @ A is inf - inf; the f-vector is
# (0, 0), which the product scaled by the largest reciprocal gives
OVERFLOWING_F = (
    "dims 8 2\n" + "1 0 6e-309\n" * 3 + "-1 0 6e-309\n" * 3 + "0 1 1\n0 -1 1\n"
)

# three rows of slack 6e-309 on one side only: f_1 at 0,0 is 3 / 6e-309 - 1,
# which itself overflows, so the f-norm is inf
TRUE_OVERFLOW_F = "dims 6 2\n" + "1 0 6e-309\n" * 3 + "-1 0 1\n0 1 1\n0 -1 1\n"


def _cli_warning_free(tmp_path, text, argv):
    """Run the CLI's ``argv[0]`` on a file holding ``text``, with
    ``argv[1:]``, in a subprocess under ``-W error``: any warning fails it."""
    path = tmp_path / "over.poly"
    path.write_text(text)
    env = dict(os.environ)
    src = str(DATA.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-W", "error", "-m", "polycenter.cli", argv[0], str(path)]
        + argv[1:],
        capture_output=True,
        text=True,
        env=env,
    )


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (
            ["center"],
            EXIT_OK,
            "center: (0.00, 0.00)\nfnorm: 0.000\niterations: 0\nconverged: yes\n",
            "",
        ),
        (["point", "--axis", "1"], EXIT_OK, "point: (-0.00, 0.00)\n", ""),
        (
            ["hyperplane"],
            EXIT_PARSE,
            "",
            "error: point is the harmonic center: hyperplane undefined\n",
        ),
        (
            ["compare-bi"],
            EXIT_OK,
            "harmonic center: (0.00, 0.00)\nbisection center: (0.00, 0.00)\n"
            "gap: 0.00\n",
            "",
        ),
        (
            ["check"],
            EXIT_OK,
            "fnorm: 0\nmax |directional sum| (along f/|f|): 0\n"
            "check: PASS (tol 0.01)\n",
            "",
        ),
    ],
    ids=["center", "point", "hyperplane", "compare-bi", "check"],
)
def test_overflowing_sums_of_finite_reciprocals(tmp_path, argv, code, out, err):
    # the start is the center: the f-vector is (0, 0), with no warning
    proc = _cli_warning_free(tmp_path, OVERFLOWING_F, [*argv, "--start", "0,0"])
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)


def test_center_names_an_infinite_fnorm_as_the_miss(tmp_path):
    # no sweep ran, so no line solve was inexact: the miss is the f-norm,
    # which is inf, and the output names it
    argv = ["center", "--start", "0,0", "--max-iter", "0"]
    proc = _cli_warning_free(tmp_path, TRUE_OVERFLOW_F, argv)
    assert (proc.returncode, proc.stderr) == (
        EXIT_MAXITER,
        "not converged after 0 iterations (fnorm inf > 0.01)\n",
    )
    assert "fnorm: inf\n" in proc.stdout


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_hyperplane_with_an_infinite_f_vector_is_undefined(tmp_path, fmt):
    # the normal would be (inf, 0) and the offset inf * 0: no hyperplane,
    # exit 1 with nothing on stdout in either format, and no warning
    argv = ["hyperplane", "--start", "0,0", "--format", fmt]
    proc = _cli_warning_free(tmp_path, TRUE_OVERFLOW_F, argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        EXIT_PARSE,
        "",
        "error: the f-vector overflows at the point: hyperplane undefined\n",
    )


def test_check_with_an_infinite_fnorm_completes(tmp_path):
    # f / |f| is inf / inf: check reports |f| as the maximum, warns of
    # nothing (the run has -W error), fails the point and exits 0
    proc = _cli_warning_free(tmp_path, TRUE_OVERFLOW_F, ["check", "--start", "0,0"])
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    assert proc.stdout == (
        "fnorm: inf\n"
        "max |directional sum| (along f/|f|): inf\n"
        "check: FAIL (tol 0.01)\n"
    )


def test_cli_imports_only_what_it_runs():
    env = dict(os.environ)
    src = str(DATA.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    loaded = subprocess.run(
        [
            sys.executable,
            "-c",
            "import sys, polycenter.cli; "
            "print(sorted({'csv', 'dataclasses', 'json'} & set(sys.modules)))",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (loaded.returncode, loaded.stdout) == (0, "[]\n")
    # json is imported when --format json asks for it
    proc = subprocess.run(
        [sys.executable, "-m", "polycenter.cli", "center", SQUARE, "--format", "json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == EXIT_OK
    assert json.loads(proc.stdout) == {
        "center": [0.5, 0.5],
        "fnorm": 0.0,
        "iterations": 0,
        "converged": True,
    }


# each fixture with an interior start that is not its center
STARTS = {
    "square": "0.25,0.5",
    "simplex": "0.2,0.3",
    "example1": "3,0.25",
    "example2": "1,2,2.5,1.3",
}


def _two(v):
    """README's table format for points, normals, offsets and the gap."""
    if isinstance(v, list):
        return "(" + ", ".join(f"{x:.2f}" for x in v) + ")"
    return f"{v:.2f}"


# a command's table lines, from its JSON payload, in README's formats
TABLES = {
    "center": lambda r: [
        f"center: {_two(r['center'])}",
        f"fnorm: {r['fnorm']:.3f}",
        f"iterations: {r['iterations']}",
        f"converged: {'yes' if r['converged'] else 'no'}",
    ],
    "point": lambda r: [f"point: {_two(r['point'])}"],
    "hyperplane": lambda r: [
        f"normal: {_two(r['normal'])}",
        f"offset: {_two(r['offset'])}",
    ],
    "compare-bi": lambda r: [
        f"harmonic center: {_two(r['harmonic_center'])}",
        f"bisection center: {_two(r['bisection_center'])}",
        f"gap: {_two(r['gap'])}",
    ],
    "check": lambda r: [
        f"fnorm: {r['fnorm']:.6g}",
        f"max |directional sum| (along f/|f|): {r['max_directional_sum']:.6g}",
        f"check: {'PASS' if r['pass'] else 'FAIL'} (tol 0.01)",
    ],
}

# a command's CSV data rows, from its JSON payload
CSV_ROWS = {
    "point": lambda r: [r["point"]],
    "hyperplane": lambda r: [r["normal"] + [r["offset"]]],
    "compare-bi": lambda r: [
        ["harmonic"] + r["harmonic_center"],
        ["bisection"] + r["bisection_center"],
    ],
}


@pytest.mark.parametrize("fixture", list(STARTS))
@pytest.mark.parametrize("command", list(TABLES))
def test_each_result_is_written_once(capsys, tmp_path, fixture, command):
    argv = [command, str(DATA / f"{fixture}.poly"), "--start", STARTS[fixture]]
    argv += ["--axis", "1"] if command == "point" else []
    outs, codes = {}, set()
    for fmt in ("table", "csv", "json"):
        extra = ["--trace", str(tmp_path / "t.csv")] if command == "center" else []
        codes.add(main([*argv, "--format", fmt, *extra]))
        outs[fmt] = capsys.readouterr().out
    assert len(codes) == 1 and codes <= {EXIT_OK, EXIT_MAXITER}
    payload = json.loads(outs["json"])
    assert outs["table"] == "".join(line + "\n" for line in TABLES[command](payload))
    csv_rows = [line.split(",") for line in outs["csv"].splitlines()]
    if command == "center":
        assert outs["csv"] == (tmp_path / "t.csv").read_text()
        iteration, *center, fnorm = csv_rows[-1]
        assert int(iteration) == payload["iterations"]
        assert [float(v) for v in center] == payload["center"]
        assert float(fnorm) == payload["fnorm"]
    elif command == "check":
        assert outs["csv"] == outs["table"]
    else:
        body = [[c if c.isalpha() else float(c) for c in row] for row in csv_rows[1:]]
        assert body == CSV_ROWS[command](payload)


@pytest.mark.parametrize("fixture", list(STARTS))
def test_center_names_a_stalled_search(capsys, tmp_path, fixture):
    # at --tol 1e-300 every fixture's iterate comes to rest above the
    # tolerance: the search ends on the sweep that moved nothing, long
    # before --max-iter, and stderr says so
    trace_path = tmp_path / "t.csv"
    argv = ["center", str(DATA / f"{fixture}.poly"), "--start", STARTS[fixture]]
    argv += ["--tol", "1e-300", "--max-iter", "1000", "--trace", str(trace_path)]
    assert main([*argv, "--format", "json"]) == EXIT_MAXITER
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["iterations"] < 1000 and not payload["converged"]
    records = parse_trace_csv(trace_path.read_text())
    assert len(records) == payload["iterations"] + 1
    assert records[-1].point == records[-2].point
    assert re.fullmatch(
        rf"not converged after {payload['iterations']} iterations "
        r"\(fnorm \S+ > 1e-300; the last sweep moved nothing at --inner-tol "
        r"1e-10\)\n",
        captured.err,
    )


def test_a_stall_names_the_inner_tol(capsys):
    # every axis solve starts from F(0) = f_j, so a sweep moves nothing once
    # each |f_j| is within --inner-tol: the stall names it, and a smaller
    # one converges after the same 7 sweeps
    argv = ["center", EXAMPLE1, "--start", "3,0.25", "--tol", "1e-12"]
    assert main(argv) == EXIT_MAXITER
    assert capsys.readouterr().err == (
        "not converged after 7 iterations (fnorm 5.08148e-11 > 1e-12; "
        "the last sweep moved nothing at --inner-tol 1e-10)\n"
    )
    assert main([*argv, "--inner-tol", "1e-14", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert (payload["iterations"], payload["converged"]) == (7, True)


def test_center_on_its_budget_keeps_its_reason(capsys):
    # the budget runs out before the iterate comes to rest: no stall named
    argv = ["center", EXAMPLE1, "--start", "3,0.25", "--tol", "1e-300"]
    assert main([*argv, "--max-iter", "2"]) == EXIT_MAXITER
    err = capsys.readouterr().err
    reason = r"\(fnorm \S+ > 1e-300\)"
    assert re.fullmatch(rf"not converged after 2 iterations {reason}\n", err)
    # no sweep at all: the reason is the start's f-norm
    argv = ["center", EXAMPLE1, "--start", "3,0.25", "--max-iter", "0"]
    assert main(argv) == EXIT_MAXITER
    err = capsys.readouterr().err
    assert err == "not converged after 0 iterations (fnorm 5.60252 > 0.01)\n"


def test_compare_bi_names_each_repeat(capsys, simplex):
    # at --tol 1e-300 the harmonic search stalls and the bisection search
    # comes back to an earlier iterate at a period above 1: both end long
    # before --max-iter, and stderr gives each one's measure and reason.
    # The counts and measures are the library's, which other numpy builds
    # can sum to other floats
    argv = ["compare-bi", str(DATA / "simplex.poly"), "--start", "0.2,0.3"]
    assert main([*argv, "--tol", "1e-300", "--max-iter", "1000"]) == EXIT_MAXITER
    err = capsys.readouterr().err
    _, h = harmonic_center(simplex, (0.2, 0.3), stop_tol=1e-300, max_iter=1000)
    _, b = bi_center(simplex, (0.2, 0.3), stop_tol=1e-300, max_iter=1000)
    assert h.stalled and b.repeats < b.iterations - 1 and b.iterations < 1000
    assert err == (
        f"harmonic search: not converged after {h.iterations} iterations "
        f"(fnorm {h.measure:.6g} > 1e-300; the last sweep moved nothing at "
        f"--inner-tol 1e-10); bisection search: not converged after "
        f"{b.iterations} iterations (offset {b.measure:.6g} > 1e-300; sweep "
        f"{b.iterations} returned to the point of sweep {b.repeats})\n"
    )


def test_compare_bi_names_each_budget_miss(capsys):
    # --max-iter runs out in both searches, each above --tol: each is
    # named with its own stop measure, and no repeat
    argv = ["compare-bi", EXAMPLE1, "--start", "9,6", "--tol", "1e-300"]
    assert main([*argv, "--max-iter", "3"]) == EXIT_MAXITER
    assert capsys.readouterr().err == (
        "harmonic search: not converged after 3 iterations "
        "(fnorm 1.41834e-07 > 1e-300); bisection search: not converged after "
        "3 iterations (offset 0.000849078 > 1e-300)\n"
    )


def test_compare_bi_names_an_inner_tol_miss(capsys):
    # the harmonic f-norm met --tol but a line solve missed --inner-tol, in
    # center's words; the bisection search converged and is not named
    argv = ["compare-bi", EXAMPLE2, "--start", "1,2,2.5,1.3"]
    assert main([*argv, "--inner-tol", "1e-300"]) == EXIT_MAXITER
    assert capsys.readouterr().err == (
        "harmonic search: not converged after 3 iterations "
        "(a line solve missed --inner-tol 1e-300)\n"
    )


def test_compare_bi_names_a_chord_with_no_finite_midpoint(tmp_path):
    # from 0,0 the +x chord ends at 1e300 / 3e-9, beyond the largest float:
    # its first stage stays put.  Once y has moved up the chord is finite
    # again, and the offset meets --tol 1e299, but the search is inexact
    argv = ["compare-bi", "--start", "0,0", "--tol", "1e299", "--max-iter", "50"]
    proc = _cli_warning_free(tmp_path, "dims 3 2\n3e-9 1 1e300\n-1 0 1\n0 -1 1\n", argv)
    assert (proc.returncode, proc.stderr) == (
        EXIT_MAXITER,
        "bisection search: not converged after 16 iterations "
        "(a chord had no finite midpoint)\n",
    )


def test_each_repeat_has_one_reason():
    # a repeat at period 1 is a stall, named with a harmonic search's
    # inner_tol; one at a longer period names both sweeps; a search that
    # ended on no repeat names only its measure: fnorm for a harmonic
    # search, offset for a bisection one.  The line reads only the trace's
    # measure, its repeats and its last iteration.
    rows = tuple(TraceRecord(i, (float(i),), 1.0) for i in range(6))
    reasons = {
        4: ("; the last sweep moved nothing", " at --inner-tol 1e-10"),
        2: ("; sweep 5 returned to the point of sweep 2", ""),
        None: ("", ""),
    }
    head = "not converged after 5 iterations ("
    for repeats, (reason, at) in reasons.items():
        trace = CenterTrace(rows, False, repeats, 0.75)
        assert cli._unconverged(trace, 0.5) == f"{head}offset 0.75 > 0.5{reason})"
        harmonic = cli._unconverged(trace, 0.5, 1e-10)
        assert harmonic == f"{head}fnorm 0.75 > 0.5{reason}{at})"


def test_byte_order_mark_is_skipped(tmp_path, capsys):
    bom = tmp_path / "square.poly"
    bom.write_bytes(b"\xef\xbb\xbf" + (DATA / "square.poly").read_bytes())
    assert main(["center", SQUARE]) == EXIT_OK
    plain = capsys.readouterr()
    assert main(["center", str(bom)]) == EXIT_OK
    assert capsys.readouterr() == plain
