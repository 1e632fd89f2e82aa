"""Stated costs checked by counting work, not by timing it.

The work of a call is the number of line events the interpreter reports in
one library module while the call runs: exact, and independent of the
machine's speed.  Line events do not see work inside builtins, so a bound
is asserted as the ratio between sizes, not as a raw count, which also
keeps the check independent of how Python versions number their events.
"""
import sys
from fractions import Fraction

import pytest

from symcret import (
    ReachAvoidSpec, build_abstraction, check_spec, interval, jsonio, quantize, synthesis,
    synthesize_reach_avoid, verify_asr_interval, verify_mcr_interval,
)

from conftest import chain, grid_cover_document

SIZES = (200, 400, 800)


def line_events(modules, fn, *args):
    """Line events in the source files of ``modules`` while ``fn(*args)``
    runs.  A trace function set before the call is set again after it."""
    sources = {module.__file__ for module in modules}
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
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
