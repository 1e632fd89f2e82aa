import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcret import (
    Controller,
    ContractError,
    FiniteTransitionSystem,
    ReachAvoidSpec,
    check_spec,
    controller_count,
    is_sub_controller,
    synthesize_reach_avoid,
    winning_region,
)

from conftest import (
    ALPHA,
    BETA,
    chain,
    controlled_system,
    enumerate_controllers,
    outcome,
    random_system,
    seeded_rng,
)


def brute_force_predecessor(sys, safe, target):
    # Independent oracle: literal set comprehension over raw rows.
    return frozenset(
        x
        for x in safe
        if any(
            sys.trans[(x, u)] and sys.trans[(x, u)] <= target
            for u in sys.inputs
        )
    )


def reference_controllable_predecessor(sys, safe, target):
    """States in ``safe`` with some input forcing every successor into
    ``target``: the one-step operator of the Kleene iteration."""
    safe = frozenset(safe)
    target = frozenset(target)
    if not target <= safe:
        raise ContractError("target must be contained in safe")
    return frozenset(
        x
        for x in safe
        if any(sys.successors(x, u) <= target for u in sys.available_inputs(x))
    )


def reference_losing_initial_states(sys, spec):
    winning, _ = winning_region(sys, spec)
    return frozenset(spec.initial) - winning


# The Kleene iteration that `winning_region` replaced, kept as the reference:
# rescan every safe state with the one-step operator until nothing enters.

def reference_winning_region(sys, spec):
    spec.validate_for(sys)
    if spec.target & spec.obstacle:
        raise ContractError("a target state may not also be an obstacle")
    safe = frozenset(sys.states) - spec.obstacle
    winning = frozenset(spec.target)
    rank = {x: 0 for x in winning}
    level = 0
    while True:
        level += 1
        fresh = reference_controllable_predecessor(sys, safe, winning) - winning
        if not fresh:
            return winning, rank
        for x in fresh:
            rank[x] = level
        winning |= fresh


# The second scan over every row that the synthesis pass replaced, kept as the
# reference: at each ranked non-target state, every input whose successors all
# have a strictly smaller rank, in sorted state order.

def rank_decreasing_controller(sys, rank, target):
    target = frozenset(target)
    choices = {}
    for x in sorted(rank.keys() - target):
        here = rank[x]
        choices[x] = frozenset(
            u
            for u in sys.available_inputs(x)
            if all(rank.get(xp, here) < here for xp in sys.successors(x, u))
        )
    return Controller(choices)


def reference_choices(sys, spec, winning, rank):
    return {
        x: frozenset(
            u
            for u in sys.available_inputs(x)
            if sys.successors(x, u) <= winning
            and max(rank[xp] for xp in sys.successors(x, u)) < rank[x]
        )
        for x in winning - spec.target
    }


@st.composite
def reach_avoid_problems(draw):
    # Any row may be unavailable, so states can block; successor sets may
    # hold the tail itself and mix target, obstacle and other states.
    n = draw(st.integers(1, 6))
    states = [f"x{i}" for i in range(n)]
    inputs = [f"u{j}" for j in range(draw(st.integers(1, 3)))]
    trans = {
        (x, u): draw(st.frozensets(st.sampled_from(states), min_size=1))
        for x in states
        for u in inputs
        if draw(st.integers(0, 2))
    }
    sys = FiniteTransitionSystem(tuple(states), tuple(inputs), trans)
    some = st.frozensets(st.sampled_from(states))
    target = draw(some)
    obstacle = draw(some)
    if draw(st.integers(0, 9)):
        obstacle -= target
    initial = draw(some)
    if not draw(st.integers(0, 19)):
        initial |= {"stray"}
    return sys, ReachAvoidSpec(initial, target, obstacle)


class TestControllablePredecessor:
    # The Kleene step is a test reference; these pin it on known values.

    def test_extended_abstraction_row(self, fx):
        safe = frozenset(fx.s2_extended.states) - {"d"}
        got = reference_controllable_predecessor(fx.s2_extended, safe, {"f"})
        assert got == frozenset({"b", "e", "f"})
        assert got == brute_force_predecessor(fx.s2_extended, safe, frozenset({"f"}))

    def test_target_equals_safe(self, fx):
        everything = frozenset(fx.s2.states)
        assert reference_controllable_predecessor(fx.s2, everything, everything) == everything

    def test_chain_parent(self):
        sys = FiniteTransitionSystem(
            ("s0", "s1", "s2"), ("go",),
            {("s0", "go"): {"s1"}, ("s1", "go"): {"s2"}, ("s2", "go"): {"s2"}},
        )
        got = reference_controllable_predecessor(sys, frozenset(sys.states), {"s1"})
        assert got == frozenset({"s0"})

    def test_target_outside_safe_rejected(self, fx):
        with pytest.raises(ContractError):
            reference_controllable_predecessor(fx.s2, {"a"}, {"f"})


class TestSynthesis:
    def test_original_abstraction_admits_both_routes(self, fx):
        result = synthesize_reach_avoid(fx.s2, fx.spec2)
        assert result is not None
        assert result.winning == frozenset({"a", "b", "e", "f"})
        assert result.controller.choices["a"] == frozenset({ALPHA, BETA})
        assert is_sub_controller(fx.c2_via_b, result.controller)
        assert is_sub_controller(fx.c2_via_e, result.controller)

    def test_both_routes_actually_solve(self, fx):
        for c2 in (fx.c2_via_b, fx.c2_via_e):
            assert check_spec(controlled_system(fx.s2, c2), fx.spec2).holds

    def test_extension_collapses_to_one_route(self, fx):
        result = synthesize_reach_avoid(fx.s2_extended, fx.spec2)
        assert result is not None
        assert result.controller.choices["a"] == frozenset({BETA})
        # The discarded route genuinely fails on the extension.
        assert not check_spec(controlled_system(fx.s2_extended, fx.c2_via_b), fx.spec2).holds

    def test_unreachable_target(self, fx):
        spec = ReachAvoidSpec(frozenset({"a"}), frozenset({"d"}), frozenset())
        assert synthesize_reach_avoid(fx.s2, spec) is None
        assert reference_losing_initial_states(fx.s2, spec) == frozenset({"a"})

    def test_target_obstacle_clash_rejected(self, fx):
        spec = ReachAvoidSpec(frozenset({"a"}), frozenset({"d"}), frozenset({"d"}))
        with pytest.raises(ContractError):
            winning_region(fx.s2, spec)

    def test_result_invariants(self, fx):
        result = synthesize_reach_avoid(fx.s2_extended, fx.spec2)
        assert fx.spec2.target <= result.winning
        assert not result.winning & fx.spec2.obstacle
        for x, us in result.controller.choices.items():
            assert x in result.winning - fx.spec2.target
            for u in us:
                succ = fx.s2_extended.successors(x, u)
                assert succ and succ <= result.winning
                assert max(result.rank[xp] for xp in succ) < result.rank[x]

    def test_ranks_on_extension(self, fx):
        result = synthesize_reach_avoid(fx.s2_extended, fx.spec2)
        assert result.rank == {"f": 0, "b": 1, "e": 1, "a": 2}

    def test_mutation_breaks_soundness(self, fx):
        # Re-enabling the pruned route at `a` lets a run reach the obstacle.
        result = synthesize_reach_avoid(fx.s2_extended, fx.spec2)
        widened = dict(result.controller.choices)
        widened["a"] = widened["a"] | {ALPHA}
        bad = Controller(widened)
        assert not check_spec(controlled_system(fx.s2_extended, bad), fx.spec2).holds

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_winning_region_monotone(self, seed):
        rng = seeded_rng(seed)
        sys = random_system(rng, rng.randint(3, 5), rng.randint(1, 2))
        states = list(sys.states)
        target = frozenset(rng.sample(states, 1))
        extra = frozenset(rng.sample(states, 1))
        obstacle = frozenset(rng.sample(states, 1)) - target - extra
        base = ReachAvoidSpec(frozenset(), target, obstacle)
        wider_target = ReachAvoidSpec(frozenset(), target | extra, obstacle)
        w_base, _ = winning_region(sys, base)
        w_wide, _ = winning_region(sys, wider_target)
        assert w_base <= w_wide
        more_obstacle = frozenset(rng.sample(states, 1)) - (target | extra)
        harder = ReachAvoidSpec(frozenset(), target, obstacle | more_obstacle)
        w_hard, _ = winning_region(sys, harder)
        assert w_hard <= w_base

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_random_synthesis_is_sound(self, seed):
        rng = seeded_rng(seed)
        sys = random_system(rng, rng.randint(2, 5), rng.randint(1, 3))
        states = list(sys.states)
        target = frozenset(rng.sample(states, rng.randint(1, len(states))))
        obstacle = frozenset(rng.sample(states, rng.randint(0, len(states) - 1))) - target
        initial = frozenset(rng.sample(states, rng.randint(1, len(states))))
        spec = ReachAvoidSpec(initial, target, obstacle)
        result = synthesize_reach_avoid(sys, spec)
        if result is None:
            assert reference_losing_initial_states(sys, spec)
            return
        closed = controlled_system(sys, result.controller)
        assert check_spec(closed, spec).holds


class TestAgainstKleeneReference:
    @settings(max_examples=300, deadline=None)
    @given(problem=reach_avoid_problems())
    def test_matches_reference(self, problem):
        sys, spec = problem
        expected = outcome(reference_winning_region, sys, spec)
        assert outcome(winning_region, sys, spec) == expected
        result = outcome(synthesize_reach_avoid, sys, spec)
        losing = outcome(reference_losing_initial_states, sys, spec)
        if not isinstance(expected[0], frozenset):
            assert result == losing == expected
            return
        winning, rank = expected
        assert losing == spec.initial - winning
        if losing:
            assert result is None
            return
        assert result.winning == winning and result.rank == rank
        assert result.controller.choices == reference_choices(sys, spec, winning, rank)
        assert rank_decreasing_controller(sys, rank, spec.target) == result.controller
        assert list(result.controller.choices) == sorted(result.controller.choices)

    def test_long_chain_rank_is_distance(self):
        sys = chain(1500)
        spec = ReachAvoidSpec(frozenset({"s0"}), frozenset({"s1499"}), frozenset())
        result = synthesize_reach_avoid(sys, spec)
        assert result.rank == {f"s{i}": 1499 - i for i in range(1500)}
        assert result.controller.choices == {f"s{i}": {"go"} for i in range(1499)}


def solve_rows(states, rows, target, obstacle=()):
    """Synthesis, with no initial state, on the system with ``rows``
    ((state, input) -> successors); its ranks and controller are checked
    against the Kleene and rescanning references before it is returned."""
    inputs = sorted({u for _, u in rows})
    sys = FiniteTransitionSystem(tuple(states), tuple(inputs), rows)
    spec = ReachAvoidSpec(frozenset(), frozenset(target), frozenset(obstacle))
    result = synthesize_reach_avoid(sys, spec)
    assert rank_decreasing_controller(sys, result.rank, spec.target) == result.controller
    assert (result.winning, result.rank) == reference_winning_region(sys, spec)
    return result


class TestEntryLevelRule:
    # A row joins its tail's choices exactly when it completes at the level
    # where the tail enters; one case for each place that could slip.

    def test_self_loop_row(self):
        # (x, stay) completes only once x itself is processed, a level late.
        result = solve_rows("tx", {("x", "stay"): {"x", "t"}, ("x", "go"): {"t"}}, {"t"})
        assert result.rank == {"t": 0, "x": 1}
        assert result.controller.choices == {"x": {"go"}}

    def test_two_rows_complete_at_entry(self):
        result = solve_rows("tx", {("x", "u"): {"t"}, ("x", "v"): {"t"}}, {"t"})
        assert result.controller.choices == {"x": {"u", "v"}}

    def test_row_completing_above_rank_left_out(self):
        # (x, slow) waits for y, which enters at x's level, so it completes
        # at level 2 > rank(x) = 1.
        rows = {("x", "fast"): {"t"}, ("x", "slow"): {"t", "y"}, ("y", "fast"): {"t"}}
        result = solve_rows("txy", rows, {"t"})
        assert result.rank == {"t": 0, "x": 1, "y": 1}
        assert result.controller.choices == {"x": {"fast"}, "y": {"fast"}}

    def test_obstacle_head_row_left_out(self):
        rows = {("x", "u"): {"t", "o"}, ("x", "v"): {"t"}, ("y", "u"): {"o", "t"}}
        result = solve_rows("otxy", rows, {"t"}, {"o"})
        assert result.winning == {"t", "x"}
        assert result.controller.choices == {"x": {"v"}}

    def test_head_never_ranked(self):
        # z is a dead end outside the target, so (x, u) never completes.
        rows = {("x", "u"): {"t", "z"}, ("x", "v"): {"x", "t"}, ("x", "w"): {"t"}}
        result = solve_rows("txz", rows, {"t"})
        assert "z" not in result.rank
        assert result.controller.choices == {"x": {"w"}}

    def test_blocking_state(self):
        # b has no available input: it never enters, and a row into it
        # never completes.
        rows = {("x", "u"): {"b"}, ("x", "v"): {"t"}}
        result = solve_rows("btx", rows, {"t"})
        assert result.winning == {"t", "x"}
        assert result.controller.choices == {"x": {"v"}}
        sys = FiniteTransitionSystem(("b", "t", "x"), ("u", "v"), rows)
        assert synthesize_reach_avoid(sys, ReachAvoidSpec({"b"}, {"t"}, set())) is None

    def test_target_tail(self):
        # A target's own rows are settled: no rank change, no choices.
        rows = {("t", "u"): {"x"}, ("x", "u"): {"t"}, ("s", "u"): {"t"}}
        result = solve_rows("stx", rows, {"t", "s"})
        assert result.rank == {"s": 0, "t": 0, "x": 1}
        assert result.controller.choices == {"x": {"u"}}


class TestEnumeration:
    def test_two_input_state_order(self, fx):
        menus = [
            sorted(c.choices["a"]) for c in enumerate_controllers(fx.s2, {"a"})
        ]
        assert menus == [[ALPHA], [BETA], [ALPHA, BETA]]

    def test_empty_domain_single_empty_controller(self, fx):
        ctrls = list(enumerate_controllers(fx.s2, set()))
        assert len(ctrls) == 1 and ctrls[0].choices == {}

    def test_count_matches_enumeration(self, fx):
        n = controller_count(fx.s2, fx.s2.states)
        assert n == 3  # only `a` has more than one available input
        assert len(list(enumerate_controllers(fx.s2, fx.s2.states))) == n

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_count_formula_random(self, seed):
        rng = seeded_rng(seed)
        sys = random_system(rng, rng.randint(2, 3), rng.randint(1, 2))
        domain = sys.states[: rng.randint(1, len(sys.states))]
        assert controller_count(sys, domain) == len(list(enumerate_controllers(sys, domain)))


class TestSubController:
    def test_reflexive(self, fx):
        assert is_sub_controller(fx.c2_via_b, fx.c2_via_b)

    def test_respects_pointwise_containment(self, fx):
        big = Controller({"a": {ALPHA, BETA}})
        small = Controller({"a": {ALPHA}})
        assert is_sub_controller(small, big)
        assert not is_sub_controller(big, small)
