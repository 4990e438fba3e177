"""The acceptance gate: one test per criterion, printing a pass/fail line.

Every check is an exact integer identity; there are no tolerances to pin.
Bounds (dimensions, counts, random-input sizes) live inside
``steinerlab.acceptance``; the stated wall-clock budgets are asserted here.
"""

import time

import pytest

from steinerlab.acceptance import CRITERIA

TIME_BUDGETS = {
    "1 validity battery": 30.0,
    "5 retraction theorems": 60.0,
}


def _run(name, fn):
    start = time.monotonic()
    report = fn()
    elapsed = time.monotonic() - start
    status = "PASS" if report.passed else "FAIL"
    print(f"{status}  criterion {name}  ({len(report.checks)} checks, {elapsed:.1f}s)")
    if not report.passed:
        details = "; ".join(
            f"{item.name}" + (f" [{item.witness}]" if item.witness else "")
            for item in report.failures()[:10]
        )
        pytest.fail(f"criterion {name} failed: {details}")
    budget = TIME_BUDGETS.get(name)
    if budget is not None and elapsed > budget:
        pytest.fail(f"criterion {name} exceeded its {budget:.0f}s budget: {elapsed:.1f}s")
    return elapsed


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[name for name, _ in CRITERIA])
def test_acceptance_criterion(name, fn):
    _run(name, fn)


def test_full_battery_within_budget():
    start = time.monotonic()
    for name, fn in CRITERIA:
        assert fn().passed, name
    elapsed = time.monotonic() - start
    print(f"full battery: {elapsed:.1f}s")
    assert elapsed < 120.0


def _failures(report):
    return [(item.name, item.witness) for item in report.failures()]


def test_a_failing_retraction_names_its_first_failing_item(monkeypatch):
    from steinerlab import RetractionPair, acceptance, q2, s2

    monkeypatch.setattr(acceptance, "section_xi", lambda n: RetractionPair(q2(), s2()))
    assert _failures(acceptance.criterion_retractions()) == [
        (f"section_xi({n})", "COMPOSITE_IDENTITY at 01") for n in range(5)
    ]


def test_a_failing_shape_names_its_first_failing_validity_item(monkeypatch):
    """``is_steiner`` validates first, so a broken d∘d fails there."""
    from steinerlab import acceptance

    monkeypatch.setattr(acceptance, "cube", lambda n: acceptance.fixture_broken_d2())
    assert _failures(acceptance.criterion_validity()) == [
        (f"valid+steiner:cube({n})", "D2_ZERO at c") for n in range(7)
    ]


def test_a_failing_isomorphism_names_its_first_failing_item(monkeypatch):
    """Swapping the ends of the interval is a basis bijection, its own
    inverse, that breaks the chain rule at the edge."""
    from steinerlab import ComplexMap, acceptance, chain_of, interval

    i = interval()
    swap = {("0",): chain_of(0, ("1",)), ("1",): chain_of(0, ("0",)), ("i",): chain_of(1, ("i",))}
    monkeypatch.setattr(acceptance, "cube_selfduality", lambda n, which: ComplexMap(i, i, swap))
    assert _failures(acceptance.criterion_dualities()) == [
        (f"cube_selfduality({n},{which})", "CHAIN_RULE at i")
        for n in range(6)
        for which in ("op", "co")
    ]


def test_a_failing_decomposition_names_its_first_failing_item(monkeypatch):
    """Atom tables whose level-zero plus entry is their minus entry attach
    the top cell by a map that breaks the chain rule."""
    from steinerlab import acceptance, steiner
    from steinerlab.cells import CellTable

    real = steiner.atom_table

    def bent(c, b):
        t = real(c, b)
        return CellTable(t.ambient, t.dim, t.minus, (t.minus[0],) + t.plus[1:])

    monkeypatch.setattr(steiner, "atom_table", bent)
    failures = _failures(acceptance.criterion_decompositions())
    assert failures[0] == (
        "top_cell_decomposition(oriental,2)", "oriental:2:ATTACH_VALID at CHAIN_RULE at s.(b0)"
    )
    assert [name for name, _ in failures] == [
        f"top_cell_decomposition({family},{n})"
        for family, dims in (("oriental", range(2, 7)), ("cube", range(2, 6)))
        for n in dims
    ]
