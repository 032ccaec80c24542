"""The names the benchmark's tracer patches must exist in the package.

``perfbench/tracing.py`` wraps module attributes such as
``polycenter.cli.harmonic_point_on_line``; a traced run fails at install
when one of them is renamed or deleted, so this checks every target.  It
also reads what a wrapped call returned, by attribute, which this checks
for the result types.
"""

import importlib.util

import numpy as np

from conftest import DATA
from polycenter import (
    Polytope,
    bi_center,
    center,
    cli,
    harmonic_center,
    harmonic_hyperplane,
    section,
    solve_harmonic_offset,
)


def _tracing():
    path = DATA.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_exists():
    targets = _tracing().TARGETS
    assert targets
    missing = [
        f"{mod}.{attr}"
        for mod, attr, _ in targets
        if not hasattr(importlib.import_module(mod), attr)
    ]
    assert missing == []


def test_span_info_reads_solve_results_and_center_runs(square):
    # the tracer's _info tells the result kinds apart by their attributes;
    # the value records are tuples, so each must still take its own branch
    info = _tracing()._info
    # row 1's distance along +x overflows: an infinite bracket end, on which
    # the solve runs out of its 100 iterations
    poly = Polytope([[0, 1], [1e-11, 1], [-1, 0], [0, -1]], [1, 1e300, 1, 1])
    with np.errstate(over="ignore"):
        sec = section(poly, (0.0, 0.0), (1.0, 0.0))
    assert info(solve_harmonic_offset(sec)) == [100, False]
    point, trace = harmonic_center(square, (0.25, 0.5))
    assert info((point, trace)) == [trace.iterations, True]
    assert trace.iterations > 0
    others = (trace.final, harmonic_hyperplane(square, (0.25, 0.5)))
    assert [info(other) for other in others] == [None, None]


def test_each_harmonic_sweep_calls_cs_step_by_module_name(monkeypatch, example1):
    # the tracer's center.cs_step span is the wrapper of this name: one per
    # harmonic sweep, and none in a bisection search
    calls = []
    step = center.cs_step

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(center, "cs_step", counted)
    _, trace = harmonic_center(example1, (9.0, 6.0), stop_tol=1e-8)
    assert trace.iterations > 1 and len(calls) == trace.iterations
    calls.clear()
    _, trace = bi_center(example1, (9.0, 6.0), stop_tol=1e-8)
    assert trace.iterations > 1 and calls == []


def test_point_calls_harmonic_point_on_line_by_module_name(monkeypatch, capsys):
    # the tracer's harmonic.point_on_line span is the wrapper of this name:
    # one per point command, on the converged and the unconverged path
    calls = []
    point_on_line = cli.harmonic_point_on_line

    def counted(*args, **kwargs):
        calls.append(1)
        return point_on_line(*args, **kwargs)

    monkeypatch.setattr(cli, "harmonic_point_on_line", counted)
    argv = ["point", str(DATA / "example1.poly"), "--start", "9,6", "--axis", "2"]
    assert cli.main(argv) == 0
    assert cli.main([*argv, "--inner-tol", "1e-300"]) == 4
    capsys.readouterr()
    assert len(calls) == 2
