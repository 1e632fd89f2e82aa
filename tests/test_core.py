import gc
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcret import (
    Controller,
    ContractError,
    DomainError,
    FiniteTransitionSystem,
    ReachAvoidSpec,
    Relation,
    RelationCheckError,
    RelationKind,
    SpecVerdict,
    Trajectory,
    check_spec,
    maximal_interface,
    mcr_extension,
    synthesize_reach_avoid,
)
from symcret import jsonio
from symcret.cli import fig5_bundle

from conftest import (
    ALPHA,
    BETA,
    GAMMA,
    chain,
    controlled_system,
    outcome,
    random_partial_controller,
    random_system,
    reference_is_valid_for,
    reference_maximal_trajectories,
    reference_moves,
)


def reference_bounded_behavior(sys, start, horizon):
    """Every trajectory of length at most ``horizon`` from ``start``;
    recursive and exponential."""
    if horizon < 1:
        raise ContractError("horizon must be at least 1")
    out = set()

    def grow(states, inputs):
        out.add(Trajectory(states, inputs))
        if len(states) == horizon:
            return
        for u, xp in reference_moves(sys, states[-1]):
            grow(states + (xp,), inputs + (u,))

    for x0 in sorted(set(start)):
        grow((x0,), ())
    return frozenset(out)


def reference_check_spec(sys, spec):
    # Depth-first search of the runs in (initial state, input, successor)
    # order, stopping at the target; recursive and exponential.
    spec.validate_for(sys)

    def explore(states, inputs):
        x = states[-1]
        if x in spec.target:
            return None
        if x in spec.obstacle or x in states[:-1]:
            return Trajectory(states, inputs)
        moves = reference_moves(sys, x)
        if not moves:
            return Trajectory(states, inputs)
        for u, xp in moves:
            bad = explore(states + (xp,), inputs + (u,))
            if bad is not None:
                return bad
        return None

    for x0 in sorted(spec.initial):
        bad = explore((x0,), ())
        if bad is not None:
            return SpecVerdict(False, bad)
    return SpecVerdict(True, None)


def reference_memoised_check_spec(sys, spec):
    # The same search on an explicit stack, so it also runs on long chains.
    # A state explored without a violation is remembered: every run from it
    # reaches the target without repeating a state, whatever run led to it.
    spec.validate_for(sys)

    def enter(x, run):
        # The moves still to try below x, or None if the run ends here in a
        # violation.
        if x in spec.target:
            return iter(())
        if x in spec.obstacle or x in run:
            return None
        moves = reference_moves(sys, x)
        return iter(moves) if moves else None

    clean = set()
    for x0 in sorted(spec.initial):
        states, inputs = [x0], []
        stack = [enter(x0, ())]
        on_run = {x0}
        while stack:
            if stack[-1] is None:
                return SpecVerdict(False, Trajectory(states, inputs))
            for u, xp in stack[-1]:
                if xp not in clean:
                    stack.append(enter(xp, on_run))
                    states.append(xp)
                    inputs.append(u)
                    on_run.add(xp)
                    break
            else:
                on_run.discard(states[-1])
                clean.add(states.pop())
                stack.pop()
                if inputs:
                    inputs.pop()
    return SpecVerdict(True, None)


def spec_case(seed):
    """A random system, usually restricted to a random partial controller so
    that some states block, and a random goal whose target and obstacle may
    overlap; now and then the initial set names a state the system lacks,
    and now and then it is empty."""
    rng = random.Random(seed)
    sys = random_system(rng, rng.randint(1, 6), rng.randint(1, 3))
    if rng.random() < 0.75:
        sys = controlled_system(sys, random_partial_controller(rng, sys))

    def some():
        return frozenset(x for x in sys.states if rng.random() < 0.3)

    initial, target, obstacle = some() | {rng.choice(sys.states)}, some(), some()
    draw = rng.random()
    if draw < 0.03:
        initial |= {"stray"}
    elif draw > 0.97:
        initial = frozenset()
    return sys, ReachAvoidSpec(initial, target, obstacle)


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
        runs = reference_bounded_behavior(closed, {"1"}, 3)
        assert Trajectory(("1", "2", "5"), ("0", "0")) in runs

    def test_unavailable_choice_rejected(self, fx):
        with pytest.raises(ContractError):
            controlled_system(fx.s1, Controller({"3": {"1"}}))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_never_adds_transitions(self, seed):
        rng = random.Random(seed)
        sys = random_system(rng, rng.randint(2, 4), rng.randint(1, 2))
        ctrl = Controller({
            x: frozenset(sys.available_inputs(x)[:1])
            for x in sys.states
            if sys.available_inputs(x)
        })
        closed = controlled_system(sys, ctrl)
        assert all(closed.trans[key] <= sys.trans[key] for key in sys.trans)


class TestBoundedBehavior:
    # The trajectory enumerations are test references; these pin them on
    # runs known by hand.

    def test_fig5_documented_runs(self, fx):
        runs = reference_bounded_behavior(fx.s1, {"1"}, 3)
        assert Trajectory(("1", "2", "3"), ("0", "1")) in runs
        assert Trajectory(("1", "2", "5"), ("0", "0")) in runs

    def test_horizon_one_is_singletons(self, fx):
        assert reference_bounded_behavior(fx.s1, {"1", "4"}, 1) == frozenset(
            {Trajectory(("1",)), Trajectory(("4",))}
        )

    def test_chain_count_from_head(self):
        # Independent count: a 3-chain at horizon 3 has one run per length.
        assert len(reference_bounded_behavior(chain(3), {"s0"}, 3)) == 3

    def test_bad_horizon(self, fx):
        with pytest.raises(ContractError):
            reference_bounded_behavior(fx.s1, {"1"}, 0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_prefix_closed_and_monotone(self, seed):
        rng = random.Random(seed)
        sys = random_system(rng, rng.randint(2, 4), rng.randint(1, 2))
        small = reference_bounded_behavior(sys, sys.states[:1], 2)
        large = reference_bounded_behavior(sys, sys.states[:1], 4)
        assert small <= large
        for traj in large:
            for cut in range(1, len(traj.states)):
                assert Trajectory(traj.states[:cut], traj.inputs[: cut - 1]) in large

    def test_deterministic_singleton_has_one_maximal_run(self):
        sys = chain(4)
        ctrl = Controller({x: {"go"} for x in sys.states})
        runs = reference_maximal_trajectories(controlled_system(sys, ctrl), {"s0"}, 5)
        assert len(runs) == 1


class TestCheckSpec:
    def test_leaky_concretized_controller_violates(self, fx):
        leaky = Controller({"1": {"0"}, "2": {"0", "1"}})
        verdict = check_spec(controlled_system(fx.s1, leaky), fx.spec1)
        assert not verdict.holds
        assert verdict.witness.states == ("1", "2", "3")

    def test_detour_controller_satisfies(self, fx):
        detour = Controller({"1": {"1"}, "4": {"0"}})
        assert check_spec(controlled_system(fx.s1, detour), fx.spec1).holds

    def test_empty_initial_vacuous(self, fx):
        spec = ReachAvoidSpec(frozenset(), frozenset({"5"}), frozenset({"3"}))
        assert check_spec(fx.s1, spec).holds

    def test_witness_is_valid_and_violating(self, fx):
        leaky = Controller({"1": {"0"}, "2": {"0", "1"}})
        closed = controlled_system(fx.s1, leaky)
        verdict = check_spec(closed, fx.spec1)
        w = verdict.witness
        assert reference_is_valid_for(w, closed)
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
        verdict = check_spec(fx.s1, spec)
        assert not verdict.holds and verdict.witness.states == ("3",)

    def test_start_on_target_satisfies_even_if_obstacle(self, fx):
        # The goal asks for an obstacle-free prefix strictly before the target.
        spec = ReachAvoidSpec(frozenset({"5"}), frozenset({"5"}), frozenset({"5"}))
        assert check_spec(fx.s1, spec).holds

    def test_stuck_without_target_violates(self):
        sys = FiniteTransitionSystem(("p", "q"), ("u",), {("p", "u"): {"q"}})
        spec = ReachAvoidSpec(frozenset({"q"}), frozenset({"p"}), frozenset())
        verdict = check_spec(sys, spec)
        assert not verdict.holds and verdict.witness.states == ("q",)

    def test_witness_ends_at_its_first_repeated_state(self):
        # x0 may stay put forever, so the loop x0 x0 refutes the goal; the
        # chain c1 c2 c3 behind it reaches the target and is no part of it.
        sys = FiniteTransitionSystem(("c1", "c2", "c3", "t", "x0"), ("u",), {
            ("x0", "u"): {"c1", "x0"}, ("c1", "u"): {"c2"}, ("c2", "u"): {"c3"},
            ("c3", "u"): {"t"},
        })
        spec = ReachAvoidSpec(frozenset({"x0"}), frozenset({"t"}), frozenset())
        assert check_spec(sys, spec).witness == Trajectory(("x0", "x0"), ("u",))

    def test_matches_references_on_seeded_systems(self):
        ends = Counter()
        for seed in range(2000):
            sys, spec = spec_case(seed)
            got = outcome(check_spec, sys, spec)
            assert got == outcome(reference_check_spec, sys, spec), seed
            assert got == outcome(reference_memoised_check_spec, sys, spec), seed
            if isinstance(got, tuple):
                ends[got[0].__name__] += 1
            elif got.holds:
                ends["holds"] += 1
            else:
                w = got.witness
                *run, last = w.states
                assert reference_is_valid_for(w, sys), seed
                assert spec.target.isdisjoint(w.states), seed
                assert spec.obstacle.isdisjoint(run) and len(set(run)) == len(run), seed
                ends["obstacle" if last in spec.obstacle else
                     "lasso" if last in run else
                     "dead end" if not reference_moves(sys, last) else "other"] += 1
        # Every way a verdict can come out: a witness that ends at an
        # obstacle, at a dead end or at its first repeated state, and an
        # unknown state.
        assert set(ends) == {"holds", "obstacle", "dead end", "lasso", "DomainError"}

    def test_long_chain_closed_loop_verifies(self):
        sys = chain(1500)
        spec = ReachAvoidSpec(frozenset({"s0"}), frozenset({"s1499"}), frozenset())
        result = synthesize_reach_avoid(sys, spec)
        closed = controlled_system(sys, result.controller)
        assert check_spec(closed, spec).holds
        # Without a target the run loops at its last state.
        missing = ReachAvoidSpec(spec.initial, frozenset(), frozenset())
        lasso = check_spec(sys, missing)
        assert lasso.witness.states == tuple(f"s{i}" for i in range(1500)) + ("s1499",)
        for s, goal in ((closed, spec), (sys, spec), (sys, missing)):
            assert check_spec(s, goal) == reference_memoised_check_spec(s, goal)

    def test_large_synthesized_closed_loop_matches_memoised_reference(self):
        # `down` falls one to three states, `jump` lands anywhere; a few
        # obstacles make some states lose.
        rng = random.Random(5)
        states = [f"p{i:04d}" for i in range(1200)]
        trans = {}
        for i, x in enumerate(states):
            trans[(x, "down")] = {states[max(0, i - rng.randint(1, 3))] for _ in range(2)}
            trans[(x, "jump")] = {rng.choice(states) for _ in range(rng.randint(1, 2))}
        sys = FiniteTransitionSystem(tuple(states), ("down", "jump"), trans)
        target = frozenset(states[:1])
        obstacle = frozenset(rng.sample(states[1:], 12))
        result = synthesize_reach_avoid(sys, ReachAvoidSpec(frozenset(), target, obstacle))
        assert len(result.winning) >= 1000
        closed = controlled_system(sys, result.controller)
        spec = ReachAvoidSpec(result.winning, target, obstacle)
        verdict = check_spec(closed, spec)
        assert verdict.holds and verdict == reference_memoised_check_spec(closed, spec)
        # The open system may jump anywhere, obstacles included.
        verdict = check_spec(sys, spec)
        assert not verdict.holds and verdict == reference_memoised_check_spec(sys, spec)

    def test_ladder_with_exponentially_many_runs(self):
        # 60 layers of two states, each wired to both of the next layer:
        # 2^60 runs, but only 120 (state, depth) nodes.
        layers = [(f"a{k:02d}", f"b{k:02d}") for k in range(60)]
        trans = {
            (x, u): {nxt}
            for here, there in zip(layers, layers[1:])
            for x in here
            for u, nxt in zip(("l", "r"), there)
        }
        sys = FiniteTransitionSystem(
            tuple(x for layer in layers for x in layer), ("l", "r"), trans)
        spec = ReachAvoidSpec(frozenset(layers[0]), frozenset(layers[-1]), frozenset())
        assert check_spec(sys, spec).holds
        spec = ReachAvoidSpec(frozenset(layers[0]), frozenset({"b59"}), frozenset())
        verdict = check_spec(sys, spec)
        assert verdict.witness.states == tuple(a for a, _ in layers)


class TestTrajectory:
    def test_shape_validation(self):
        with pytest.raises(ContractError):
            Trajectory((), ())
        with pytest.raises(ContractError):
            Trajectory(("a", "b"), ())

    def test_validity(self, fx):
        assert reference_is_valid_for(Trajectory(("1", "2", "5"), ("0", "0")), fx.s1)
        assert not reference_is_valid_for(Trajectory(("1", "5"), ("0",)), fx.s1)


class TestCollectorPause:
    """The library's table builders run with the cyclic collector paused and
    leave it as they found it: on again after a result or an error, off
    throughout when the caller turned it off."""

    @pytest.fixture
    def collector_on(self):
        gc.enable()
        yield
        gc.enable()

    def test_enabled_again_after_a_decode(self, collector_on):
        doc = jsonio.bundle_to_obj(fig5_bundle())
        assert jsonio.bundle_from_obj(doc).systems.keys() == {"S1", "S2", "S2x"}
        assert gc.isenabled()

    def test_enabled_again_after_an_error(self, collector_on):
        doc = jsonio.bundle_to_obj(fig5_bundle())
        doc["systems"]["S2"]["trans"] = 7
        with pytest.raises(jsonio.FormatError, match="system 'S2': malformed system document"):
            jsonio.bundle_from_obj(doc)
        assert gc.isenabled()
        # ASR fails at (x, a, v): the successor y is related only to b.
        s1 = FiniteTransitionSystem(("x", "y"), ("u",), {("x", "u"): {"y"}, ("y", "u"): {"y"}})
        s2 = FiniteTransitionSystem(("a", "b"), ("v",), {("a", "v"): {"a"}, ("b", "v"): {"b"}})
        rel = Relation(s1.states, s2.states, {("x", "a"), ("y", "b")})
        with pytest.raises(RelationCheckError, match=r"asr check failed at \(x, a, v\)"):
            mcr_extension(s1, s2, rel)
        assert gc.isenabled()

    def test_a_disabled_collector_stays_disabled(self, fx, tmp_path, collector_on):
        doc = jsonio.bundle_to_obj(fig5_bundle())
        path = tmp_path / "fig5.json"
        jsonio.save(path, doc)
        calls = [
            lambda: jsonio.load(path),
            lambda: jsonio.bundle_from_obj(doc),
            lambda: jsonio.dumps(doc),
            lambda: mcr_extension(fx.s1, fx.s2, fx.relation),
            lambda: maximal_interface(fx.s1, fx.s2_extended, fx.relation, RelationKind.MCR),
        ]
        gc.disable()
        for call in calls:
            call()
            assert not gc.isenabled()

    def test_nested_decoders_keep_the_collector_paused(self, collector_on, monkeypatch):
        # bundle_from_obj runs system_from_obj and relation_from_obj, each
        # paused on its own; returning from one must not resume collection
        # before the bundle is done.
        seen = []

        def recording(name, build):
            def call(*args):
                seen.append((name, gc.isenabled()))
                return build(*args)
            return call

        system_from_obj = jsonio.system_from_obj
        # Made first: building fig5's extension calls the entry recorded below.
        doc = jsonio.bundle_to_obj(fig5_bundle())

        def decode_system(obj):
            system = system_from_obj(obj)
            seen.append(("after", gc.isenabled()))
            return system

        # A valid system document goes to the unchecked constructor entry.
        monkeypatch.setattr(FiniteTransitionSystem, "_trusted",
                            recording("constructor", FiniteTransitionSystem._trusted))
        monkeypatch.setattr(jsonio, "system_from_obj", decode_system)
        monkeypatch.setattr(jsonio, "Relation", recording("relation", Relation))
        jsonio.bundle_from_obj(doc)
        assert seen == [("constructor", False), ("after", False)] * 3 + [("relation", False)] * 2
        assert gc.isenabled()
