"""Tests of the benchmark's own arithmetic, checks and input generation."""

import json
import os

import pytest

import run
from reference import analytic_center
from tracing import self_times
from workloads import (
    KNOWN_DEFECTS,
    ROOT,
    CliMix,
    SweepLarge,
    WarmCuts,
    read_poly,
    write_cli_inputs,
)


def test_self_time_subtracts_children_once_and_only_inside_the_parent():
    # name, start, end, parent, op, info
    spans = [
        ["root", 0.0, 10.0, -1, 0, None],
        ["a", 1.0, 3.0, 0, 0, None],
        ["b", 2.0, 5.0, 0, 0, None],  # overlaps a: [1, 5] is covered once
        ["c", 8.0, 12.0, 0, 0, None],  # runs past the parent: [8, 10] counts
        ["a.child", 1.5, 2.5, 1, 0, None],  # grandchild: only a's concern
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 3.0, 4.0, 1.0])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, n = run.tail(list(range(100, 0, -1)))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(1 for v in range(1, 101) if v > value) == 10
    value, pct, n = run.tail(list(range(1, 31)))
    assert value == 20 and pct == pytest.approx(100 * 20 / 30)


def test_tail_with_too_few_samples_reports_the_maximum():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def _cli_op(mix, name):
    _, argv, code = next(op for op in mix.ops if op[0] == name)
    return {"op": 0, "name": name, "argv": argv, "expect": code}


def test_wrong_exit_code_is_a_failure(tmp_path):
    mix = CliMix(0, tmp_path)
    record, failures, _ = mix.check(_cli_op(mix, "malformed"), (0, b"", []), False)
    assert failures == ["malformed:exit"] and record["exit"] == 0
    res = {"failures": [failures, []]}
    summary = run.summarize_failures(res)
    assert summary == (1, 1, ["malformed:exit"], {"malformed:exit": 1})


def test_known_defect_is_reported_but_not_an_unexpected_failure(tmp_path):
    mix = CliMix(0, tmp_path)
    expected, observed = KNOWN_DEFECTS["nan_rhs"]
    _, failures, _ = mix.check(_cli_op(mix, "nan_rhs"), (observed, b"", []), False)
    assert failures == ["nan_rhs:known_exit"]
    failed, unexpected_ops, unexpected, _ = run.summarize_failures({"failures": [failures]})
    assert (failed, unexpected_ops, unexpected) == (1, 0, [])
    _, failures, _ = mix.check(_cli_op(mix, "nan_rhs"), (expected, b"", []), False)
    assert failures == []


def test_known_defect_with_another_wrong_exit_code_is_a_failure(tmp_path):
    mix = CliMix(0, tmp_path)
    _, failures, _ = mix.check(_cli_op(mix, "nan_rhs"), (0, b"", []), False)
    assert failures == ["nan_rhs:exit"]
    assert run.summarize_failures({"failures": [failures]})[1:3] == (1, ["nan_rhs:exit"])


def test_repeat_with_different_output_is_a_failure(tmp_path):
    mix = CliMix(0, tmp_path)
    op = _cli_op(mix, "hyperplane")
    assert mix.check(op, (0, b"normal: (1.00, 0.00)\n", []), False)[1] == []
    assert mix.check(op, (0, b"normal: (1.00, 0.01)\n", []), False)[1] == [
        "hyperplane:not_identical"
    ]


def test_table_mismatch_is_a_failure(tmp_path):
    mix = CliMix(0, tmp_path)
    out = b"center: (6.10, 5.55)\nfnorm: 0.003\niterations: 2\nconverged: yes\n"
    _, failures, _ = mix.check(_cli_op(mix, "center_table_ex1"), (0, out, []), False)
    assert failures == ["center_table_ex1:table1"]
    _, failures, _ = mix.check(_cli_op(mix, "center_table_ex1"), (1, b"", []), False)
    assert failures == [
        "center_table_ex1:exit",
        "center_table_ex1:not_identical",
        "center_table_ex1:unreadable_output",
    ]


def test_same_seed_writes_byte_identical_cli_inputs(tmp_path):
    def snapshot(seed, d):
        ops, rng = write_cli_inputs(seed, d)
        files = {p.name: p.read_bytes() for p in sorted(d.iterdir())}
        argv = json.dumps([a for _, a, _ in ops]).replace(os.path.relpath(d, ROOT), "RUN")
        return files, argv, rng.permutation(len(ops)).tolist()

    assert snapshot(7, tmp_path / "a") == snapshot(7, tmp_path / "b")
    assert snapshot(7, tmp_path / "a") != snapshot(8, tmp_path / "c")


@pytest.mark.parametrize("cls", [SweepLarge, WarmCuts])
def test_same_seed_generates_byte_identical_solver_inputs(cls):
    def inputs(seed):
        w = cls(seed, None)
        out = []
        for i in range(3):
            inp = w.prepare(i)
            out.append(inp["A"].tobytes() + inp["b"].tobytes() + inp["start"].tobytes())
        return out

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_reference_matches_known_centers():
    A, b = read_poly(ROOT / "data" / "square.poly")
    assert analytic_center(A, b, [0.2, 0.7]) == pytest.approx([0.5, 0.5], abs=1e-9)
    A, b = read_poly(ROOT / "data" / "example1.poly")
    assert analytic_center(A, b, [3.0, 0.25]) == pytest.approx([6.030, 5.554], abs=5e-4)


def test_reference_rejects_exterior_start():
    A, b = read_poly(ROOT / "data" / "square.poly")
    with pytest.raises(ValueError):
        analytic_center(A, b, [2.0, 2.0])


def test_compare_reports_coordinate_and_sweep_differences(tmp_path, capsys):
    def write(path, recs):
        path.write_text("\n".join(json.dumps(r) for r in [{"env": {}}] + recs) + "\n")

    base = {"op": 0, "traced": False, "input": "sweep", "exit": 0}
    write(tmp_path / "a.jsonl", [dict(base, point=[1.0, 2.0], sweeps=5)])
    write(tmp_path / "b.jsonl", [dict(base, point=[1.0, 2.5], sweeps=5)])
    write(tmp_path / "c.jsonl", [dict(base, point=[1.0, 2.0], sweeps=6)])
    assert run.compare(tmp_path / "a.jsonl", tmp_path / "b.jsonl") == 0
    assert json.loads(capsys.readouterr().out)["max_coord_diff"] == 0.5
    assert run.compare(tmp_path / "a.jsonl", tmp_path / "c.jsonl") == 1
    diffs = json.loads(capsys.readouterr().out)["sweep_differences"]
    assert diffs == [{"op": 0, "field": "sweeps", "a": 5, "b": 6}]
