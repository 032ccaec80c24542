"""The paper's iteration tables against an exact reference.

``exact_reference`` runs coordinate search in 60-digit decimal arithmetic
on each fixture's raw rows; these tests read every number the tables
print against it, and the float search's trace too.
"""

from decimal import Decimal

import pytest

from conftest import DATA, TABLE1, TABLE2
from exact_reference import read_rows, search
from polycenter import harmonic_center, parse_polytope

STOP_TOL = 0.01


@pytest.fixture(scope="module")
def exact_traces():
    """``(fixture, start) -> exact search`` for every table start."""
    A1, b1 = read_rows(DATA / "example1.poly")
    A2, b2 = read_rows(DATA / "example2.poly")
    traces = {("example1", s): search(A1, b1, s, STOP_TOL) for s in TABLE1}
    start2 = TABLE2[0][0]
    traces["example2", start2] = search(A2, b2, start2, STOP_TOL)
    return traces


def _printed(exact_traces):
    """Each printed table number with its exact value and printed places."""
    for start, (first, final) in TABLE1.items():
        rows = exact_traces["example1", start]
        # a table row with no final point stops after its first sweep
        assert len(rows) == (2 if final is None else 3)
        for (point, _), printed in zip(rows[1:], (first, final)):
            if printed is not None:
                yield from ((v, x, 2) for v, x in zip(printed, point))
    rows = exact_traces["example2", TABLE2[0][0]]
    assert len(rows) == len(TABLE2)
    for (point, fnorm), (coords, printed_fnorm) in zip(rows, TABLE2):
        yield from ((v, x, 2) for v, x in zip(coords, point))
        yield printed_fnorm, fnorm, 3


def test_every_printed_number_is_the_rounded_exact_iterate(exact_traces):
    printed = list(_printed(exact_traces))
    assert len(printed) == 42
    for value, exact, places in printed:
        assert abs(Decimal(repr(value)) - exact) <= Decimal("0.005")
        # and each is the exact value correctly rounded to its places
        assert exact.quantize(Decimal(10) ** -places) == Decimal(repr(value))


def test_float_trace_follows_the_exact_iterates(exact_traces):
    fixtures = {
        name: parse_polytope((DATA / f"{name}.poly").read_text())
        for name in ("example1", "example2")
    }
    for (name, start), rows in exact_traces.items():
        _, trace = harmonic_center(fixtures[name], start, stop_tol=STOP_TOL)
        assert len(trace.records) == len(rows)
        for rec, (point, fnorm) in zip(trace.records, rows):
            assert max(abs(float(x) - p) for x, p in zip(point, rec.point)) <= 1e-8
            assert abs(float(fnorm) - rec.fnorm) <= 1e-8
