"""Stated costs checked by counting work, not by timing it.

The work of a call is the number of line events the interpreter reports in
one library module while the call runs: exact, and independent of the
machine's speed.  Line events do not see work inside builtins, so a bound
is asserted as the ratio between sizes, not as a raw count, which also
keeps the check independent of how Python versions number their events.
A call that runs past ``CAP`` events is stopped and fails, so that a cost
turned exponential fails at once instead of stalling the suite.
"""
import sys
from fractions import Fraction

import pytest

from symcret import (
    CellCover, Controller, FiniteTransitionSystem, IntervalCell, ReachAvoidSpec, Relation,
    RelationKind, build_abstraction, check_asr, check_controlled_simulability, check_spec,
    concretize, constant_shift_abstraction, core, count_dynamic_runs, interval, jsonio,
    maximal_interface, mcr_extension, oracle, quantize, relations, synthesis,
    synthesize_reach_avoid, verify_asr_interval, verify_mcr_interval,
)

from conftest import chain, cycle_product, grid_cover_document, overlapping_line

SIZES = (200, 400, 800)
# About three times the largest count a test here takes.
CAP = 1_000_000


def line_events(modules, fn, *args):
    """Line events in the source files of ``modules`` while ``fn(*args)``
    runs, failing past ``CAP``.  A trace function set before the call is set
    again after it."""
    sources = {module.__file__ for module in modules}
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
            if count > CAP:
                raise AssertionError(f"{fn.__name__} ran past {CAP} line events")
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in sources else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def chain_problem(n):
    return chain(n), ReachAvoidSpec(frozenset({"s0"}), frozenset({f"s{n - 1}"}), frozenset())


def ratios(counts):
    return [big / small for small, big in zip(counts, counts[1:])]


@pytest.mark.parametrize("fn", [synthesize_reach_avoid, check_spec])
def test_synthesis_work_is_linear(fn):
    # O(states + rows + sum of successor-set sizes): each doubling of the
    # chain doubles the work.
    counts = [line_events((synthesis,), fn, *chain_problem(n)) for n in SIZES]
    assert all(1.8 <= r <= 2.2 for r in ratios(counts)), (counts, ratios(counts))


def grid(cells):
    """The benchmark's uniform grid of ``cells`` + 1 cells, decoded."""
    return jsonio.cover_from_obj(grid_cover_document(cells // 2))


def test_cover_decoding_work_is_linear():
    # One bulk pass per field, then the O(n log n) index, whose sort is a
    # builtin: each doubling of the grid doubles the line events.
    docs = [grid_cover_document(n // 2) for n in SIZES]
    counts = [line_events((jsonio, interval), jsonio.cover_from_obj, doc) for doc in docs]
    assert all(1.8 <= r <= 2.2 for r in ratios(counts)), (counts, ratios(counts))


@pytest.mark.parametrize("check", [None, verify_mcr_interval, verify_asr_interval],
                         ids=["build_abstraction", "verify_mcr_interval", "verify_asr_interval"])
def test_interval_abstraction_work_is_linear(check):
    # O(r log n + v) for r rows over n cells, v cells visited: on the grid
    # r and v grow with n, and the bisection is a builtin.
    counts = []
    for n in SIZES:
        cover, laws, availability = grid(n)
        abstraction = build_abstraction(cover, laws, availability)
        if check is None:
            counts.append(line_events((interval,), build_abstraction, cover, laws, availability))
        else:
            counts.append(line_events((interval,), check, cover, abstraction, laws))
    assert all(1.8 <= r <= 2.2 for r in ratios(counts)), (counts, ratios(counts))


def test_quantizing_a_point_does_not_grow_with_the_grid():
    # O(log n + cells visited): a bisection, then one cell on the grid.
    point = Fraction(3, 7) * Fraction(101, 3)
    counts = [line_events((interval,), quantize, grid(n)[0], point) for n in SIZES]
    assert len(set(counts)) == 1, counts


def test_dynamic_run_count_work_is_linear_in_the_horizon():
    # Two states a and b, one input u with (x, u) -> {a, b}: 2^(h - 1) runs
    # but 2h (x1, x2, depth) nodes, each explored once thanks to the memo.
    s = FiniteTransitionSystem(("a", "b"), ("u",), {(x, "u"): frozenset("ab") for x in "ab"})
    rel = Relation.identity(s.states)
    args = (s, s, Controller({"a": ["u"], "b": ["u"]}), rel,
            maximal_interface(s, s, rel, RelationKind.ASR), "a")
    counts = [line_events((concretize,), count_dynamic_runs, *args, h) for h in (20, 40, 80)]
    assert all(1.8 <= r <= 2.2 for r in ratios(counts)), (counts, ratios(counts))
    assert count_dynamic_runs(*args, 80) == 2 ** 79


def test_constant_shift_work_is_quadratic():
    # O(n) shifts per cell for n cells: on the unit-width grid each doubling
    # quadruples the rows and the work, including the table's fill in core,
    # since the endpoint differences take O(n) values and so do the labels.
    covers = [jsonio.cover_from_obj(grid_cover_document(k, 1))[0] for k in (10, 20, 40)]
    rows = [sum(1 for succ in constant_shift_abstraction(cover).trans.values() if succ)
            for cover in covers]
    assert rows == [821, 3241, 12881]
    counts = [line_events((interval, core), constant_shift_abstraction, cover) for cover in covers]
    assert all(3.6 <= r <= 4.4 for r in ratios(counts)), (counts, ratios(counts))


def test_constant_shift_table_is_cubic_on_distinct_differences():
    # Endpoints 2^i - 1 have pairwise distinct differences, so the labels
    # grow as n^2 and the table, dense over them, as n^3; the non-empty
    # rows stay quadratic.  The work may grow no faster than the table.
    def cell(i, n):
        return IntervalCell(Fraction(2 ** i - 1), Fraction(2 ** (i + 1) - 1), True, i == n - 1)

    covers = [CellCover((f"c{i:02d}", cell(i, n)) for i in range(n)) for n in (10, 20, 40)]
    systems = [constant_shift_abstraction(cover) for cover in covers]
    assert [sum(1 for succ in s.trans.values() if succ) for s in systems] == [280, 1160, 4720]
    assert [len(s.inputs) for s in systems] == [211, 916, 3826]
    assert all(len(s.trans) == len(s.states) * len(s.inputs) for s in systems)
    counts = [line_events((interval, core), constant_shift_abstraction, cover) for cover in covers]
    assert all(4 <= r <= 8.8 for r in ratios(counts)), (counts, ratios(counts))


@pytest.mark.parametrize("fn, modules, extra", [
    (check_asr, (relations,), ()),
    (maximal_interface, (relations,), (RelationKind.ASR,)),
    (mcr_extension, (relations, core), ()),
], ids=["check_asr", "maximal_interface", "mcr_extension"])
def test_relation_walk_work_is_linear(fn, modules, extra):
    # One visit per related pair and input, each image tested once: on the
    # overlapping line, whose cells, rows and pairs all grow with it, each
    # doubling doubles the work.
    lines = [overlapping_line(n, 7) for n in (25, 50, 100)]
    counts = [line_events(modules, fn, *line, *extra) for line in lines]
    assert all(1.8 <= r <= 2.2 for r in ratios(counts)), (counts, ratios(counts))


def test_simulability_without_a_horizon_is_linear_in_the_witness():
    # Breadth-first over (plant state, tracked set) nodes, each expanded
    # once: on the cycle product the nodes grow with the shortest failure.
    # The work per witness state may only creep up, since each tracked set
    # holds one state per cycle, while the witness grows x7 and then x11.
    # A return to path enumeration fails inside CAP.
    counts, lengths = [], []
    for cycles in ((2, 3, 5), (2, 3, 5, 7), (2, 3, 5, 7, 11)):
        case = cycle_product(cycles)
        lengths.append(len(check_controlled_simulability(*case).witness.concrete))
        counts.append(line_events((oracle,), check_controlled_simulability, *case))
    assert lengths == [30, 210, 2310]
    per_state = [count / length for count, length in zip(counts, lengths)]
    assert all(r <= 1.3 for r in ratios(per_state)), (counts, per_state)


def test_work_past_the_cap_fails(monkeypatch):
    monkeypatch.setattr(sys.modules[__name__], "CAP", 50)
    with pytest.raises(AssertionError, match="synthesize_reach_avoid ran past 50 line events"):
        line_events((synthesis,), synthesize_reach_avoid, *chain_problem(100))


def test_trace_function_restored():
    def outer(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(outer)
    try:
        assert line_events((synthesis,), synthesize_reach_avoid, *chain_problem(4)) > 0
        assert sys.gettrace() is outer
    finally:
        sys.settrace(previous)
