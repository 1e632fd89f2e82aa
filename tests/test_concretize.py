import random
import sys as sys_module
from collections import Counter

import pytest

from symcret import (
    BrokenCertificateError,
    Controller,
    ContractError,
    ControllerUndefinedError,
    DomainError,
    DynamicConcretizer,
    DynamicConcretizerState,
    FiniteTransitionSystem,
    Interface,
    Relation,
    RelationKind,
    SymcretError,
    Trajectory,
    closed_loop_run,
    count_dynamic_runs,
    maximal_interface,
    memoryless_controller,
    scripted,
)
from symcret.relations import StrictnessError

from conftest import (
    ALPHA,
    BETA,
    DynamicRun,
    chain,
    controlled_system,
    induced_abstraction,
    outcome,
    random_partial_controller,
    random_strict_relation,
    random_system,
    reference_enumerate_dynamic_runs,
    reference_is_valid_for,
    reference_maximal_trajectories,
)


def _reference_commit(c2, interface, x1, candidates):
    covered = [x2 for x2 in sorted(candidates) if x2 in c2.choices]
    if not covered:
        raise ControllerUndefinedError(x1, who="abstract controller (via quantizer)")
    x2 = covered[0]
    u2 = sorted(c2.choices[x2])[0]
    u1 = sorted(interface.inputs_for(x1, x2, u2))[0]
    return DynamicConcretizerState(x2, u2), u1


def reference_dynamic_init(c2, rel, interface, x1_0):
    """The former free function behind ``DynamicConcretizer.initialize``,
    with its default (least) choices."""
    related = rel.forward(x1_0)
    if not related:
        raise ContractError(f"state {x1_0!r} is related to no abstract state")
    return _reference_commit(c2, interface, x1_0, related)


def reference_dynamic_step(state, c2, rel, interface, s2, x1_next):
    """The former free function behind ``DynamicConcretizer.step``."""
    sync = s2.successors(state.x2, state.u2) & rel.forward(x1_next)
    if not sync:
        raise BrokenCertificateError(
            f"no abstract successor of ({state.x2!r}, {state.u2!r}) is related to {x1_next!r}"
        )
    return _reference_commit(c2, interface, x1_next, sync)


def reference_dynamic_loop(s1, s2, c2, rel, interface, x1_0, horizon, *, resolver, trace):
    """The former dynamic branch of ``closed_loop_run``: initialise before the
    first move, step after every move that leaves steps to go; ``trace``
    collects the (x1, x2, u2, u1) commitments."""
    states, inputs = [x1_0], []
    if horizon > 1:
        state, u1 = reference_dynamic_init(c2, rel, interface, x1_0)
        trace.append((x1_0, state.x2, state.u2, u1))
    while len(states) < horizon:
        x = states[-1]
        succ = sorted(s1.successors(x, u1))
        if not succ:
            raise ContractError(f"input {u1!r} is unavailable at state {x!r}")
        xp = resolver(succ)
        states.append(xp)
        inputs.append(u1)
        if len(states) < horizon:
            state, u1 = reference_dynamic_step(state, c2, rel, interface, s2, xp)
            trace.append((xp, state.x2, state.u2, u1))
    return Trajectory(tuple(states), tuple(inputs))


def dynamic_case(seed):
    """A dynamic loop over an overlapping strict relation with an interface
    that is either maximal (certified) or hand-built from arbitrary entries,
    some missing and some naming an input unavailable at x1, so that some
    runs break the certificate, hit a missing entry or have no move."""
    rng = random.Random(seed)
    s1 = random_system(rng, rng.randint(1, 5), rng.randint(1, 3))
    s2 = random_system(rng, rng.randint(1, 4), rng.randint(1, 3),
                       state_prefix="q", input_prefix="v")
    rel = random_strict_relation(rng, s1.states, s2.states,
                                 overlap=rng.choice([0.0, 0.25, 0.6]))
    kind = rng.choice([RelationKind.ASR, RelationKind.MCR])
    interface = None
    if rng.random() < 0.5:
        try:
            interface = maximal_interface(s1, s2, rel, kind)
        except SymcretError:
            pass
    if interface is None:
        table = {}
        for x1, x2 in sorted(rel.pairs):
            for u2 in s2.available_inputs(x2):
                if rng.random() < 0.9:
                    available = s1.available_inputs(x1)
                    table[(x1, x2, u2)] = frozenset(
                        rng.sample(available, rng.randint(1, len(available)))
                    )
                    unavailable = sorted(set(s1.inputs) - set(available))
                    if unavailable and rng.random() < 0.2:
                        table[(x1, x2, u2)] = frozenset({rng.choice(unavailable)})
        interface = Interface(kind, table)
    c2 = random_partial_controller(rng, s2)
    return s1, s2, c2, rel, interface, rng.choice(s1.states), rng.randint(1, 6)


def reference_memoryless_controller(c2, rel, interface):
    """The former ``memoryless_controller``: related cells and choices in
    sorted order."""
    choices = {}
    for x1 in rel.domain:
        covered = [x2 for x2 in sorted(rel.forward(x1)) if x2 in c2.choices]
        if covered:
            choices[x1] = frozenset().union(*(interface.inputs_for(x1, x2, u2)
                                              for x2 in covered for u2 in sorted(c2.choices[x2])))
    return Controller(choices)


@pytest.fixture(scope="module")
def asr_interface(fx):
    return maximal_interface(fx.s1, fx.s2, fx.relation, RelationKind.ASR)


class TestMemorylessController:
    def test_fig5_values(self, fx, asr_interface):
        c1 = memoryless_controller(fx.c2_via_b, fx.relation, asr_interface)
        assert c1.choices == {"1": frozenset({"0"}), "2": frozenset({"0", "1"})}

    def test_detour_values(self, fx, asr_interface):
        c1 = memoryless_controller(fx.c2_via_e, fx.relation, asr_interface)
        assert c1.choices == {"1": frozenset({"1"}), "4": frozenset({"0"})}

    def test_frr_interface_reduces_to_composition(self, fx):
        ident = Relation.identity(fx.s1.states)
        iface = maximal_interface(fx.s1, fx.s1, ident, RelationKind.FRR)
        c2 = Controller({"1": {"0"}, "2": {"0", "1"}})
        c1 = memoryless_controller(c2, ident, iface)
        assert c1.choices == c2.choices

    def test_identity_relation_contains_original(self, fx):
        ident = Relation.identity(fx.s1.states)
        iface = maximal_interface(fx.s1, fx.s1, ident, RelationKind.MCR)
        c2 = Controller({"1": {"0"}, "3": {"0"}})
        c1 = memoryless_controller(c2, ident, iface)
        for x, us in c2.choices.items():
            assert us <= c1.choices[x]

    def test_needs_strict_relation(self, fx, asr_interface):
        partial = Relation(fx.s1.states, fx.s2.states, fx.relation.pairs - {("3", "d")})
        with pytest.raises(StrictnessError):
            memoryless_controller(fx.c2_via_b, partial, asr_interface)

    def test_missing_interface_entry_is_contract_error(self, fx):
        stub = Interface(RelationKind.ASR, {("1", "a", ALPHA): frozenset({"0"})})
        with pytest.raises(ContractError):
            memoryless_controller(fx.c2_via_e, fx.relation, stub)

    def test_matches_the_former_sorted_loops(self):
        """Equal choices, or the same error: the union is taken in any order,
        and a missing interface entry is the least one of the first state."""
        kinds = set()
        for seed in range(400):
            rng = random.Random(seed)
            s1 = random_system(rng, rng.randint(2, 8), 3, fully_available=True)
            rel = random_strict_relation(rng, s1.states, [f"q{i}" for i in range(3)], overlap=0.5)
            s2 = induced_abstraction(s1, rel)
            table = maximal_interface(s1, s2, rel, RelationKind.ASR).table
            partial = Interface(RelationKind.ASR,
                                {key: us for key, us in table.items() if rng.random() < 0.9})
            c2 = random_partial_controller(rng, s2)
            got = outcome(memoryless_controller, c2, rel, partial)
            assert got == outcome(reference_memoryless_controller, c2, rel, partial), seed
            kinds.add(type(got).__name__)
        assert kinds == {"Controller", "tuple"}

    def test_output_is_static_value(self, fx, asr_interface):
        c1 = memoryless_controller(fx.c2_via_b, fx.relation, asr_interface)
        assert isinstance(c1, Controller)

    def test_stateless_across_call_orders(self, fx, asr_interface):
        c1 = memoryless_controller(fx.c2_via_b, fx.relation, asr_interface)
        rng = random.Random(11)
        states = [x for x in fx.s1.states if x in c1.choices]
        baseline = {x: c1.choices[x] for x in states}
        for _ in range(5):
            rng.shuffle(states)
            assert all(c1.choices[x] == baseline[x] for x in states)


class TestDynamicArchitecture:
    def test_init_direct_route(self, fx, asr_interface):
        tracker = DynamicConcretizer(fx.s2, fx.c2_via_b, fx.relation, asr_interface)
        u1 = tracker.initialize("1")
        assert (tracker.state.x2, tracker.state.u2, u1) == ("a", ALPHA, "0")

    def test_init_detour_route(self, fx, asr_interface):
        tracker = DynamicConcretizer(fx.s2, fx.c2_via_e, fx.relation, asr_interface)
        u1 = tracker.initialize("1")
        assert (tracker.state.x2, tracker.state.u2) == ("a", BETA)
        assert u1 in asr_interface.inputs_for("1", "a", BETA)

    def test_init_uncovered_everywhere(self, fx, asr_interface):
        tracker = DynamicConcretizer(fx.s2, fx.c2_via_e, fx.relation, asr_interface)
        with pytest.raises(ControllerUndefinedError):
            tracker.initialize("3")

    def test_init_unrelated_state(self, fx, asr_interface):
        partial = Relation(fx.s1.states, fx.s2.states, fx.relation.pairs - {("3", "d")})
        tracker = DynamicConcretizer(fx.s2, fx.c2_via_b, partial, asr_interface)
        with pytest.raises(ContractError):
            tracker.initialize("3")

    def test_codomain_off_the_abstraction_is_rejected(self, fx, asr_interface):
        wider = Relation(fx.s1.states, fx.s2.states + ("z",), fx.relation.pairs)
        with pytest.raises(DomainError) as err:
            DynamicConcretizer(fx.s2, fx.c2_via_b, wider, asr_interface)
        assert str(err.value) == "relation codomain must be the abstract state set"

    def test_step_resynchronises_through_overlap(self, fx, asr_interface):
        tracker = DynamicConcretizer(fx.s2, fx.c2_via_b, fx.relation, asr_interface)
        tracker.initialize("1")
        # Plant moved 1 -> 2; of the two quantizations {b, c} only b is a
        # successor of (a, alpha), so the tracker commits to b.
        u1 = tracker.step("2")
        assert (tracker.state.x2, u1) == ("b", "0")

    def test_three_step_run_reproduces_abstract_route(self, fx, asr_interface):
        tracker = DynamicConcretizer(fx.s2, fx.c2_via_b, fx.relation, asr_interface)
        run = closed_loop_run(fx.s1, tracker, "1", 3)
        assert run.states == ("1", "2", "5")
        assert tuple(step[1] for step in tracker.trace) == ("a", "b")
        final = fx.s2.successors(tracker.state.x2, tracker.state.u2) & fx.relation.forward("5")
        assert final == frozenset({"f"})

    def test_reused_tracker_keeps_only_the_latest_run(self, fx, asr_interface):
        tracker = DynamicConcretizer(fx.s2, fx.c2_via_b, fx.relation, asr_interface)
        for _ in range(2):
            closed_loop_run(fx.s1, tracker, "1", 3)
            assert tracker.trace == [("1", "a", ALPHA, "0"), ("2", "b", ALPHA, "0")]
        closed_loop_run(fx.s1, tracker, "1", 1)
        assert tracker.trace == [] and tracker.state is None
        closed_loop_run(fx.s1, tracker, "1", 3)
        tracker.initialize("1")
        assert tracker.trace == [("1", "a", ALPHA, "0")]

    def test_partition_case_has_no_choice(self, fx):
        # Tracking a system against itself along identity: the quantizer is
        # single-valued, so both the start and every re-synchronisation are
        # forced singletons.
        ident = Relation.identity(fx.s1.states)
        iface = maximal_interface(fx.s1, fx.s1, ident, RelationKind.MCR)
        tracker = DynamicConcretizer(fx.s1, fx.c1_safe, ident, iface)
        u1 = tracker.initialize("1")
        assert (tracker.state.x2, tracker.state.u2, u1) == ("1", "0", "0")
        u1 = tracker.step("2")
        assert (tracker.state.x2, u1) == ("2", "0")

    def test_broken_certificate_detected(self):
        s1 = FiniteTransitionSystem(("x", "y"), ("u",), {("x", "u"): {"y"}, ("y", "u"): {"y"}})
        s2 = FiniteTransitionSystem(("q", "r"), ("v",), {("q", "v"): {"q"}, ("r", "v"): {"r"}})
        rel = Relation(s1.states, s2.states, frozenset({("x", "q"), ("y", "r")}))
        # Hand-built interface that was never certified: q loops while the
        # plant escapes to y, whose only quantization r is not a successor.
        iface = Interface(RelationKind.ASR, {("x", "q", "v"): frozenset({"u"})})
        c2 = Controller({"q": {"v"}})
        tracker = DynamicConcretizer(s2, c2, rel, iface)
        tracker.initialize("x")
        with pytest.raises(BrokenCertificateError):
            tracker.step("y")

    def test_closed_loop_matches_the_former_functions(self):
        outcomes = Counter()
        for seed in range(400):
            s1, s2, c2, rel, interface, x0, horizon = dynamic_case(seed)
            tracker = DynamicConcretizer(s2, c2, rel, interface)
            got = outcome(closed_loop_run, s1, tracker, x0, horizon,
                          resolver=random.Random(seed).choice)
            trace = []
            want = outcome(reference_dynamic_loop, s1, s2, c2, rel, interface, x0, horizon,
                           resolver=random.Random(seed).choice, trace=trace)
            assert got == want
            assert tracker.trace == trace
            outcomes["finished" if isinstance(got, Trajectory) else got[0].__name__] += 1
        assert set(outcomes) == {"finished", "ControllerUndefinedError",
                                 "BrokenCertificateError", "ContractError"}


class TestClosedLoopRun:
    def test_scripted_inputs_reach_the_obstacle(self, fx, asr_interface):
        c1 = memoryless_controller(fx.c2_via_b, fx.relation, asr_interface)
        run = closed_loop_run(fx.s1, c1, "1", 3, choose_input=["0", "1"])
        assert run == Trajectory(("1", "2", "3"), ("0", "1"))

    def test_safe_controller_default_run(self, fx):
        run = closed_loop_run(fx.s1, fx.c1_safe, "1", 3)
        assert run.states == ("1", "2", "5")

    def test_horizon_one(self, fx):
        run = closed_loop_run(fx.s1, fx.c1_safe, "1", 1)
        assert run == Trajectory(("1",))

    def test_undefined_state_raises_with_name(self, fx):
        with pytest.raises(ControllerUndefinedError) as err:
            closed_loop_run(fx.s1, fx.c1_safe, "1", 4)
        assert err.value.state == "5"

    def test_scripted_resolver_validates(self, fx):
        with pytest.raises(ContractError, match=r"scripted choice '4' not among \['2'\]"):
            closed_loop_run(fx.s1, fx.c1_safe, "1", 3, resolver=["4"])

    def test_callable_policy_validates(self, fx):
        with pytest.raises(ContractError, match=r"policy chose 'zz' outside \['2'\]"):
            closed_loop_run(fx.s1, fx.c1_safe, "1", 3, resolver=lambda options: "zz")

    def test_script_exhaustion(self, fx):
        with pytest.raises(ContractError):
            closed_loop_run(fx.s1, fx.c1_safe, "1", 3, choose_input=scripted(["0"]))

    def test_closed_loop_maximal_runs(self, fx, asr_interface):
        c1 = memoryless_controller(fx.c2_via_b, fx.relation, asr_interface)
        runs = reference_maximal_trajectories(controlled_system(fx.s1, c1), {"1"}, 6)
        assert {t.states for t in runs} == {("1", "2", "3"), ("1", "2", "5")}


def ladder(rungs):
    """Two states per rung; from either one, ``go`` reaches both states of
    the next rung, and the last rung steps within itself.  From ``l0`` there
    are 2^(h-1) runs of h states."""
    sides = ("l", "r")
    last = rungs - 1
    trans = {
        (f"{a}{i}", "go"): {f"{b}{min(i + 1, last)}" for b in sides}
        for i in range(rungs)
        for a in sides
    }
    states = tuple(f"{a}{i}" for i in range(rungs) for a in sides)
    return FiniteTransitionSystem(states, ("go",), trans)


class TestDynamicEnumeration:
    def test_all_runs_keep_the_relation_and_never_block(self, fx, asr_interface):
        total = 0
        for c2 in (fx.c2_via_b, fx.c2_via_e):
            for x0 in fx.s1.states:
                if not any(x2 in c2.choices for x2 in fx.relation.forward(x0)):
                    continue
                args = (fx.s1, fx.s2, c2, fx.relation, asr_interface, x0, 6)
                runs = reference_enumerate_dynamic_runs(*args)
                assert count_dynamic_runs(*args) == len(runs)
                total += len(runs)
                for run in runs:
                    assert all(
                        (x1, x2) in fx.relation.pairs
                        for x1, x2 in zip(run.concrete, run.abstract)
                    )
                    assert reference_is_valid_for(
                        Trajectory(run.concrete, run.concrete_inputs), fx.s1)
                    assert reference_is_valid_for(
                        Trajectory(run.abstract, run.abstract_inputs), fx.s2)
                    assert all(
                        u2 in c2.choices[x2]
                        for x2, u2 in zip(run.abstract, run.abstract_inputs)
                    )
        assert total > 0

    def test_count_matches_reference(self):
        outcomes = Counter()
        for seed in range(1200):
            case = dynamic_case(seed)
            expected = outcome(lambda *c: len(reference_enumerate_dynamic_runs(*c)), *case)
            got = outcome(count_dynamic_runs, *case)
            assert got == expected, seed
            outcomes[got[0].__name__ if isinstance(got, tuple) else min(got, 2)] += 1
        # No run, one run, several runs, and every error a generated case
        # can raise.
        assert set(outcomes) == {0, 1, 2, "ContractError", "BrokenCertificateError"}

    @pytest.mark.parametrize("x0, horizon", [("1", 0), ("nowhere", 6)])
    def test_bad_arguments_raise_like_the_reference(self, fx, asr_interface, x0, horizon):
        args = (fx.s1, fx.s2, fx.c2_via_b, fx.relation, asr_interface, x0, horizon)
        expected = outcome(reference_enumerate_dynamic_runs, *args)
        assert expected[0] in (ContractError, DomainError)
        assert outcome(count_dynamic_runs, *args) == expected

    def test_covered_node_without_moves_ends_no_run(self):
        # The interface plays u, which has no successor at x.
        s1 = FiniteTransitionSystem(("x",), ("u",), {("x", "u"): set()})
        s2 = FiniteTransitionSystem(("q",), ("v",), {("q", "v"): {"q"}})
        rel = Relation(s1.states, s2.states, frozenset({("x", "q")}))
        iface = Interface(RelationKind.ASR, {("x", "q", "v"): frozenset({"u"})})
        args = (s1, s2, Controller({"q": {"v"}}), rel, iface, "x")
        assert count_dynamic_runs(*args, 3) == len(reference_enumerate_dynamic_runs(*args, 3)) == 0
        assert count_dynamic_runs(*args, 1) == 1

    def test_stray_codomain_state_is_a_domain_error(self):
        # `z` is related to x but is no state of s2: without the check it
        # would end a second run, uncovered.
        s1 = FiniteTransitionSystem(("x",), ("u",), {("x", "u"): {"x"}})
        s2 = FiniteTransitionSystem(("q",), ("v",), {("q", "v"): {"q"}})
        rel = Relation(s1.states, ("q", "z"), frozenset({("x", "q"), ("x", "z")}))
        iface = Interface(RelationKind.ASR, {("x", "q", "v"): frozenset({"u"})})
        args = (s1, s2, Controller({"q": {"v"}}), rel, iface, "x", 3)
        expected = (DomainError, "relation codomain must be the abstract state set")
        assert outcome(count_dynamic_runs, *args) == expected
        assert outcome(reference_enumerate_dynamic_runs, *args) == expected

    def test_ladder_count_needs_no_enumeration(self):
        sys = ladder(60)
        ident = Relation.identity(sys.states)
        iface = maximal_interface(sys, sys, ident, RelationKind.MCR)
        everywhere = Controller({x: {"go"} for x in sys.states})
        assert count_dynamic_runs(sys, sys, everywhere, ident, iface, "l0", 61) == 2**60
        assert count_dynamic_runs(sys, sys, everywhere, ident, iface, "l0", 4) == len(
            reference_enumerate_dynamic_runs(sys, sys, everywhere, ident, iface, "l0", 4)
        ) == 8

    def test_long_chain_needs_no_recursion(self):
        sys = chain(1500)
        ident = Relation.identity(sys.states)
        iface = maximal_interface(sys, sys, ident, RelationKind.MCR)
        everywhere = Controller({x: {"go"} for x in sys.states})
        assert count_dynamic_runs(sys, sys, everywhere, ident, iface, "s0", 1501) == 1
        # The recursive reference needs a deeper stack for the same run.
        limit = sys_module.getrecursionlimit()
        sys_module.setrecursionlimit(limit + 1600)
        try:
            (run,) = reference_enumerate_dynamic_runs(
                sys, sys, everywhere, ident, iface, "s0", 1501
            )
        finally:
            sys_module.setrecursionlimit(limit)
        expected = tuple(f"s{i}" for i in range(1500)) + ("s1499",)
        assert run == DynamicRun(expected, expected, ("go",) * 1500, ("go",) * 1500)
