"""Stated costs checked by counting work, not by timing it.

The work of a call is the number of line events the interpreter reports in
one library module while the call runs: exact, and independent of the
machine's speed.  Line events do not see work inside builtins, so a bound
is asserted as the ratio between sizes, not as a raw count, which also
keeps the check independent of how Python versions number their events.
"""
import sys

import pytest

from symcret import ReachAvoidSpec, check_spec, synthesis, synthesize_reach_avoid

from conftest import chain

SIZES = (200, 400, 800)


def line_events(module, fn, *args):
    """Line events in ``module``'s source file while ``fn(*args)`` runs.  A
    trace function set before the call is set again after it."""
    source = module.__file__
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename == source else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        fn(*args)
    finally:
        sys.settrace(previous)
    return count


def chain_problem(n):
    return chain(n), ReachAvoidSpec(frozenset({"s0"}), frozenset({f"s{n - 1}"}), frozenset())


@pytest.mark.parametrize("fn", [synthesize_reach_avoid, check_spec])
def test_synthesis_work_is_linear(fn):
    # O(states + rows + sum of successor-set sizes): each doubling of the
    # chain doubles the work.
    counts = [line_events(synthesis, fn, *chain_problem(n)) for n in SIZES]
    ratios = [big / small for small, big in zip(counts, counts[1:])]
    assert all(1.8 <= r <= 2.2 for r in ratios), (counts, ratios)


def test_trace_function_restored():
    def outer(frame, event, arg):
        return None

    previous = sys.gettrace()
    sys.settrace(outer)
    try:
        assert line_events(synthesis, synthesize_reach_avoid, *chain_problem(4)) > 0
        assert sys.gettrace() is outer
    finally:
        sys.settrace(previous)
