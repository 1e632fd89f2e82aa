"""The verdicts of ``tools/bench_pairs.py`` on made-up pairs of runs."""
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

RATE = {"name": "pipelines_per_s", "better": "higher", "bound": 0.25}
MEMORY = {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}
PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.5, 99.5]  # quartiles 99.5, 100.5


def verdict(metric, parent, change, claimed=False):
    return bench_pairs.summarize(metric, parent, change, claimed)["verdict"]


@pytest.mark.parametrize("change, expected", [
    ([run + 5 for run in PARENT], "met"),
    # Nine wins of ten are enough; eight are not.
    ([run + 5 for run in PARENT[:9]] + [PARENT[9] - 1], "met"),
    ([run + 5 for run in PARENT[:8]] + [run - 1 for run in PARENT[8:]], "not met"),
    # Ten wins, but the medians differ by less than the parent's spread.
    ([run + 0.5 for run in PARENT], "not met"),
    ([run - 5 for run in PARENT], "not met"),
])
def test_a_claim_needs_nine_wins_in_ten_and_a_gap_past_the_spread(change, expected):
    assert verdict(RATE, PARENT, change, claimed=True) == expected


def test_a_claim_reads_the_better_direction():
    assert verdict(MEMORY, PARENT, [run - 5 for run in PARENT], claimed=True) == "met"
    assert verdict(MEMORY, PARENT, [run + 5 for run in PARENT], claimed=True) == "not met"


@pytest.mark.parametrize("metric, change, expected", [
    (RATE, [run * 0.8 for run in PARENT], "within bound"),
    (RATE, [run * 0.7 for run in PARENT], "worse than bound"),
    (RATE, [run * 2 for run in PARENT], "within bound"),
    (MEMORY, [run * 1.09 for run in PARENT], "within bound"),
    (MEMORY, [run * 1.2 for run in PARENT], "worse than bound"),
])
def test_other_metrics_are_held_to_their_bound(metric, change, expected):
    assert verdict(metric, PARENT, change) == expected


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [60.0, 140.0] * 5  # quartiles 60 and 140: a spread of 0.8 of the median
    assert verdict(RATE, wide, [run * 0.99 for run in wide]) == "unresolved"
    assert verdict(RATE, wide, [run * 0.5 for run in wide]) == "unresolved"
    # Unless every run of the change is better than every run of the parent.
    assert verdict(RATE, wide, [141.0] * 10) == "within bound"
