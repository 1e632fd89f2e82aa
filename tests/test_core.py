import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcret import (
    Controller,
    ContractError,
    DomainError,
    FiniteTransitionSystem,
    ReachAvoidSpec,
    Trajectory,
    bounded_behavior,
    check_spec,
    controlled_system,
    maximal_trajectories,
)
from symcret.fixtures import ALPHA, BETA, GAMMA

from conftest import small_systems


# Recursive reference versions of the two trajectory enumerations, kept to
# test the shared explicit-stack traversal against.

def _reference_moves(sys, x):
    return [(u, xp) for u in sys.available_inputs(x) for xp in sorted(sys.successors(x, u))]


def reference_bounded_behavior(sys, start, horizon):
    out = set()

    def grow(states, inputs):
        out.add(Trajectory(states, inputs))
        if len(states) == horizon:
            return
        for u, xp in _reference_moves(sys, states[-1]):
            grow(states + (xp,), inputs + (u,))

    for x0 in sorted(set(start)):
        grow((x0,), ())
    return frozenset(out)


def reference_maximal_trajectories(sys, start, horizon):
    out = []

    def grow(states, inputs):
        moves = _reference_moves(sys, states[-1]) if len(states) < horizon else []
        if not moves:
            out.append(Trajectory(states, inputs))
            return
        for u, xp in moves:
            grow(states + (xp,), inputs + (u,))

    for x0 in sorted(set(start)):
        grow((x0,), ())
    return tuple(sorted(out, key=lambda t: (t.states, t.inputs)))


def chain(n, loop_last=True):
    states = [f"s{i}" for i in range(n)]
    trans = {(states[i], "go"): {states[i + 1]} for i in range(n - 1)}
    if loop_last:
        trans[(states[-1], "go")] = {states[-1]}
    return FiniteTransitionSystem(tuple(states), ("go",), trans)


class TestAvailableInputs:
    def test_fig5_concrete(self, fx):
        assert fx.s1.available_inputs("1") == ("0", "1")

    def test_fig5_abstract_completion(self, fx):
        assert fx.s2.available_inputs("a") == (ALPHA, BETA)
        assert GAMMA not in fx.s2.available_inputs("a")

    def test_all_empty_row_state(self):
        sys = FiniteTransitionSystem(("p", "q"), ("u",), {("p", "u"): {"q"}})
        assert sys.available_inputs("q") == ()

    def test_unknown_state(self, fx):
        with pytest.raises(DomainError):
            fx.s1.available_inputs("99")


class TestPredicates:
    def test_fig5_non_blocking(self, fx):
        assert fx.s1.is_non_blocking()
        assert fx.s2.is_non_blocking()

    def test_self_loop_single_state(self):
        assert FiniteTransitionSystem(("x",), ("u",), {("x", "u"): {"x"}}).is_non_blocking()

    def test_blocking_single_state(self):
        assert not FiniteTransitionSystem(("x",), ("u",), {}).is_non_blocking()

    def test_determinism(self, fx):
        assert fx.s2.is_deterministic()
        assert not fx.s2_extended.is_deterministic()

    def test_degenerate_empty_system_is_deterministic(self):
        assert FiniteTransitionSystem(("x",), ("u",), {}).is_deterministic()

    def test_construction_rejects_stray_successor(self):
        with pytest.raises(DomainError):
            FiniteTransitionSystem(("x",), ("u",), {("x", "u"): {"y"}})


class TestControlledSystem:
    def test_fig5_route_controller_prunes_beta(self, fx):
        closed = controlled_system(fx.s2, fx.c2_via_b)
        assert closed.successors("a", ALPHA) == frozenset({"b"})
        assert closed.successors("a", BETA) == frozenset()

    def test_identity_controller_keeps_everything(self, fx):
        everything = Controller({
            x: frozenset(fx.s1.available_inputs(x)) for x in fx.s1.states
        })
        assert controlled_system(fx.s1, everything).trans == fx.s1.trans

    def test_safe_controller_behavior_contains_direct_run(self, fx):
        closed = controlled_system(fx.s1, fx.c1_safe)
        runs = bounded_behavior(closed, {"1"}, 3)
        assert Trajectory(("1", "2", "5"), ("0", "0")) in runs

    def test_unavailable_choice_rejected(self, fx):
        with pytest.raises(ContractError):
            controlled_system(fx.s1, Controller({"3": {"1"}}))

    @settings(max_examples=60, deadline=None)
    @given(sys=small_systems())
    def test_never_adds_transitions(self, sys):
        ctrl = Controller({
            x: frozenset(sys.available_inputs(x)[:1])
            for x in sys.states
            if sys.available_inputs(x)
        })
        closed = controlled_system(sys, ctrl)
        assert all(closed.trans[key] <= sys.trans[key] for key in sys.trans)


class TestBoundedBehavior:
    def test_fig5_documented_runs(self, fx):
        runs = bounded_behavior(fx.s1, {"1"}, 3)
        assert Trajectory(("1", "2", "3"), ("0", "1")) in runs
        assert Trajectory(("1", "2", "5"), ("0", "0")) in runs

    def test_horizon_one_is_singletons(self, fx):
        assert bounded_behavior(fx.s1, {"1", "4"}, 1) == frozenset(
            {Trajectory(("1",)), Trajectory(("4",))}
        )

    def test_chain_count_from_head(self):
        # Independent count: a 3-chain at horizon 3 has one run per length.
        assert len(bounded_behavior(chain(3), {"s0"}, 3)) == 3

    def test_bad_horizon(self, fx):
        with pytest.raises(ContractError):
            bounded_behavior(fx.s1, {"1"}, 0)

    @settings(max_examples=40, deadline=None)
    @given(sys=small_systems())
    def test_prefix_closed_and_monotone(self, sys):
        small = bounded_behavior(sys, sys.states[:1], 2)
        large = bounded_behavior(sys, sys.states[:1], 4)
        assert small <= large
        for traj in large:
            for cut in range(1, traj.length):
                assert Trajectory(traj.states[:cut], traj.inputs[: cut - 1]) in large

    def test_deterministic_singleton_has_one_maximal_run(self):
        sys = chain(4)
        ctrl = Controller({x: {"go"} for x in sys.states})
        runs = maximal_trajectories(controlled_system(sys, ctrl), {"s0"}, 5)
        assert len(runs) == 1


    @settings(max_examples=80, deadline=None)
    @given(sys=small_systems(), data=st.data())
    def test_traversal_matches_recursive_reference(self, sys, data):
        start = data.draw(st.frozensets(st.sampled_from(sys.states), min_size=1))
        horizon = data.draw(st.integers(1, 5))
        assert bounded_behavior(sys, start, horizon) == (
            reference_bounded_behavior(sys, start, horizon))
        assert maximal_trajectories(sys, start, horizon) == (
            reference_maximal_trajectories(sys, start, horizon))

    def test_long_chain_needs_no_recursion(self):
        sys = chain(1500)
        runs = bounded_behavior(sys, {"s0"}, 1501)
        assert len(runs) == 1501
        (longest,) = maximal_trajectories(sys, {"s0"}, 1501)
        assert longest.states == tuple(f"s{i}" for i in range(1500)) + ("s1499",)
        assert max(runs, key=lambda t: t.length) == longest


class TestCheckSpec:
    def test_leaky_concretized_controller_violates(self, fx):
        leaky = Controller({"1": {"0"}, "2": {"0", "1"}})
        verdict = check_spec(controlled_system(fx.s1, leaky), fx.spec1, 6)
        assert not verdict.holds
        assert verdict.witness.states == ("1", "2", "3")

    def test_detour_controller_satisfies(self, fx):
        detour = Controller({"1": {"1"}, "4": {"0"}})
        assert check_spec(controlled_system(fx.s1, detour), fx.spec1, 6).holds

    def test_empty_initial_vacuous(self, fx):
        spec = ReachAvoidSpec(frozenset(), frozenset({"5"}), frozenset({"3"}))
        assert check_spec(fx.s1, spec, 6).holds

    def test_witness_is_valid_and_violating(self, fx):
        leaky = Controller({"1": {"0"}, "2": {"0", "1"}})
        closed = controlled_system(fx.s1, leaky)
        verdict = check_spec(closed, fx.spec1, 6)
        w = verdict.witness
        assert w.is_valid_for(closed)
        first_target = next(
            (k for k, x in enumerate(w.states) if x in fx.spec1.target), None
        )
        hit_obstacle_first = any(
            x in fx.spec1.obstacle
            for x in w.states[: first_target if first_target is not None else len(w.states)]
        )
        assert first_target is None or hit_obstacle_first

    def test_start_on_obstacle_violates_immediately(self, fx):
        spec = ReachAvoidSpec(frozenset({"3"}), frozenset({"5"}), frozenset({"3"}))
        verdict = check_spec(fx.s1, spec, 6)
        assert not verdict.holds and verdict.witness.states == ("3",)

    def test_start_on_target_satisfies_even_if_obstacle(self, fx):
        # The goal asks for an obstacle-free prefix strictly before the target.
        spec = ReachAvoidSpec(frozenset({"5"}), frozenset({"5"}), frozenset({"5"}))
        assert check_spec(fx.s1, spec, 6).holds

    def test_stuck_without_target_violates(self):
        sys = FiniteTransitionSystem(("p", "q"), ("u",), {("p", "u"): {"q"}})
        spec = ReachAvoidSpec(frozenset({"q"}), frozenset({"p"}), frozenset())
        verdict = check_spec(sys, spec, 5)
        assert not verdict.holds and verdict.witness.states == ("q",)


class TestTrajectory:
    def test_shape_validation(self):
        with pytest.raises(ContractError):
            Trajectory((), ())
        with pytest.raises(ContractError):
            Trajectory(("a", "b"), ())

    def test_validity(self, fx):
        assert Trajectory(("1", "2", "5"), ("0", "0")).is_valid_for(fx.s1)
        assert not Trajectory(("1", "5"), ("0",)).is_valid_for(fx.s1)
