"""End-to-end acceptance suite: one test per shipped guarantee, each printing
a pass line with the exact values it pinned."""
from collections import Counter
from fractions import Fraction

from symcret import (
    RelationKind,
    build_abstraction,
    check_asr,
    check_mcr,
    check_memoryless_concretization,
    constant_shift_abstraction,
    count_dynamic_runs,
    is_sub_controller,
    maximal_interface,
    mcr_extension,
    memoryless_controller,
    synthesize_reach_avoid,
    verify_mcr_interval,
)
from symcret.interval import FIG8_AVAILABILITY, fig8_affine_inputs, fig8_cover, fig8_target_spec
from symcret.relations import Relation

from conftest import ALPHA, BETA, reference_enumerate_dynamic_runs
from test_laws import PREMISES, SCOPES, tally


def _report(index: int, label: str) -> None:
    print(f"[{index:2d}/10] {label}: PASS")


def test_01_relation_split(fx):
    """The overlap example passes the alternating check and fails the
    memoryless one at exactly the documented spot."""
    assert check_asr(fx.s1, fx.s2, fx.relation).holds
    verdict = check_mcr(fx.s1, fx.s2, fx.relation)
    assert not verdict.holds
    assert (verdict.witness.x1, verdict.witness.x2, verdict.witness.u2) == ("1", "a", ALPHA)
    assert verdict.witness.evidence == ("2", "c")
    _report(1, "alternating holds, memoryless refuted at (1, a, alpha) via (2, c)")


def test_02_interface_table(fx):
    iface = maximal_interface(fx.s1, fx.s2, fx.relation, RelationKind.ASR)
    assert iface.inputs_for("1", "a", ALPHA) == frozenset({"0"})
    assert iface.inputs_for("2", "b", ALPHA) == frozenset({"0"})
    assert iface.inputs_for("2", "c", ALPHA) == frozenset({"1"})
    _report(2, "maximal interface values on the overlap keys are exact")


def test_03_memoryless_controller_values(fx):
    iface = maximal_interface(fx.s1, fx.s2, fx.relation, RelationKind.ASR)
    c1 = memoryless_controller(fx.c2_via_b, fx.relation, iface)
    assert c1.choices["1"] == frozenset({"0"})
    assert c1.choices["2"] == frozenset({"0", "1"})
    _report(3, "concretized choices are {0} at state 1 and {0, 1} at state 2")


def test_04_memoryless_guarantee_refutation(fx):
    iface = maximal_interface(fx.s1, fx.s2, fx.relation, RelationKind.ASR)
    bad = check_memoryless_concretization(fx.s1, fx.s2, fx.relation, iface, fx.c2_via_b)
    assert not bad.holds
    assert bad.witness.concrete == ("1", "2", "3")
    assert bad.witness.quantization == ("a", "c", "d")
    good = check_memoryless_concretization(fx.s1, fx.s2, fx.relation, iface, fx.c2_via_e)
    assert good.holds
    _report(4, "route controller refuted by (1,2,3) -> (a,c,d); detour controller passes")


def test_05_extension(fx):
    extended = mcr_extension(fx.s1, fx.s2, fx.relation)
    assert extended == fx.s2_extended
    assert extended.successors("a", ALPHA) == frozenset({"b", "c"})
    assert all(
        extended.trans[key] == fx.s2.trans[key]
        for key in fx.s2.trans
        if key != ("a", ALPHA)
    )
    assert check_mcr(fx.s1, extended, fx.relation).holds
    assert check_mcr(fx.s2, extended, Relation.identity(fx.s2.states)).holds
    _report(5, "extension grows only row (a, alpha) to {b, c} and passes both checks")


def test_06_synthesis_collapse(fx):
    original = synthesize_reach_avoid(fx.s2, fx.spec2)
    assert original is not None
    assert is_sub_controller(fx.c2_via_b, original.controller)
    assert is_sub_controller(fx.c2_via_e, original.controller)
    extended = synthesize_reach_avoid(fx.s2_extended, fx.spec2)
    assert extended is not None
    assert extended.controller.choices["a"] == frozenset({BETA})
    _report(6, "original abstraction admits both routes; extension pins a -> {beta}")


def test_07_exhaustive_law_suite():
    # The tally is the one tests/test_laws.py runs: the enumeration runs
    # once per test run, whichever module asks first.
    counts = sum(map(tally, SCOPES), Counter())
    assert counts["triples"] == 36_450
    assert all(counts[premise] > 0 for premise in PREMISES)
    _report(7, f"every law on all {counts['triples']} triples at scopes {SCOPES}, "
               f"{counts['mcr']} with mcr and {counts['asr without mcr']} with asr only")


def test_08_segment_separation():
    """Every constant shift, read off one abstraction, leaves the origin
    unreachable from the side cells; affine feedback reaches it in one step."""
    cover = fig8_cover(Fraction(1))
    spec = fig8_target_spec(cover)
    shifts = constant_shift_abstraction(cover)
    assert shifts.successors("q1", "1/2") == frozenset({"q1", "q2", "q3"})
    assert shifts.successors("q1", "1/1") == frozenset({"q2", "q3"})
    assert shifts.successors("q1", "0/1") == frozenset({"q1"})
    assert synthesize_reach_avoid(shifts, spec) is None
    inputs = fig8_affine_inputs()
    affine = build_abstraction(cover, inputs, FIG8_AVAILABILITY)
    result = synthesize_reach_avoid(affine, spec)
    assert result is not None and affine.is_deterministic()
    assert result.rank["q1"] == 1 and result.rank["q3"] == 1
    assert verify_mcr_interval(cover, affine, inputs)
    _report(8, "no constant shift reaches the origin; affine feedback solves in one step")


def test_09_dynamic_architecture_invariant(fx):
    iface = maximal_interface(fx.s1, fx.s2, fx.relation, RelationKind.ASR)
    total = 0
    for c2 in (fx.c2_via_b, fx.c2_via_e):
        for x0 in fx.s1.states:
            if not any(x2 in c2.choices for x2 in fx.relation.forward(x0)):
                continue
            # Both walkers raise if any re-synchronisation intersection is
            # empty; the reference also if the relation breaks.
            args = (fx.s1, fx.s2, c2, fx.relation, iface, x0, 6)
            runs = reference_enumerate_dynamic_runs(*args)
            assert count_dynamic_runs(*args) == len(runs)
            total += len(runs)
            for run in runs:
                assert all(
                    (x1, x2) in fx.relation.pairs
                    for x1, x2 in zip(run.concrete, run.abstract)
                )
    assert total > 0
    _report(9, f"relation held across all {total} fully branched tracker runs")


def test_10_fixture_consistency_oracle(fx):
    # The structure the scenario rests on, read off the packaged bundle.
    # Its relation verdicts and interface entries are tests 01 and 02.
    assert fx.s1.is_non_blocking()
    assert fx.s2.is_non_blocking()
    assert fx.s2.is_deterministic()
    assert not fx.s2_extended.is_deterministic()
    assert fx.relation.is_strict()
    assert fx.relation.forward("2") == frozenset({"b", "c"})
    _report(10, "the packaged bundle has the structure the scenario rests on")
