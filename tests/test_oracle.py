import gc
import json
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcret import (
    AllControllersVerdict,
    BudgetExceededError,
    Controller,
    FiniteTransitionSystem,
    Interface,
    PropertyVerdict,
    PropertyWitness,
    Relation,
    RelationKind,
    RelationVerdict,
    check_controlled_simulability,
    check_memoryless_concretization,
    check_memoryless_concretization_all_controllers,
    check_mcr,
    controller_count,
    count_dynamic_runs,
    maximal_interface,
    mcr_extension,
    memoryless_controller,
    replay_memoryless_witness,
)
from symcret import jsonio, oracle
from symcret.cli import fig5_bundle
from symcret.core import ContractError, DomainError, SymcretError
from symcret.relations import RelationCheckError, StrictnessError, _validate_triplet

from conftest import (
    ALPHA,
    GAMMA,
    chain,
    cycle_product,
    enumerate_controllers,
    induced_abstraction,
    outcome,
    overlapping_line,
    perturb_abstraction,
    random_partial_controller,
    random_strict_relation,
    random_system,
    reference_enumerate_dynamic_runs,
    seeded_rng,
)


@pytest.fixture(scope="module")
def asr_interface(fx):
    return maximal_interface(fx.s1, fx.s2, fx.relation, RelationKind.ASR)


def brute_force_memoryless_check(s1, s2, rel, interface, c2, horizon):
    """Independent oracle: explicitly unroll every quantizer-in-the-loop run
    as a (concrete, abstract) path and test the abstract trace for membership
    in the abstract closed loop, trajectory by trajectory."""

    def abstract_step_ok(q, q_next):
        return any(
            q_next in s2.successors(q, u2) for u2 in c2.choices.get(q, frozenset())
        )

    stack = [((x1,), (x2,)) for x1, x2 in sorted(rel.pairs)]
    while stack:
        xs, qs = stack.pop()
        if len(xs) >= horizon:
            continue
        x1, x2 = xs[-1], qs[-1]
        for u2 in sorted(c2.choices.get(x2, frozenset())):
            for u1 in sorted(interface.inputs_for(x1, x2, u2)):
                for x1p in sorted(s1.successors(x1, u1)):
                    for x2p in sorted(rel.forward(x1p)):
                        if x2p not in s2.successors(x2, u2):
                            return False
                        if not abstract_step_ok(x2, x2p):
                            return False
                        stack.append((xs + (x1p,), qs + (x2p,)))
    return True


def reference_controlled_simulability(s1, s2, rel, c1, c2, horizon):
    """The former path enumeration, kept as the reference for the product
    search: every concrete path up to the horizon, the least failure by
    (length, states) among all of them.  It needs a horizon of at least 1."""
    if horizon < 1:
        raise ContractError("horizon must be at least 1")
    c1.validate_for(s1)
    c2.validate_for(s2)
    post = {}
    for q in s2.states:
        succ = set()
        for u2 in c2.choices.get(q, frozenset()):
            succ |= s2.successors(q, u2)
        post[q] = frozenset(succ)
    found = []

    def walk(x1s, u1s, tracked):
        if len(x1s) >= horizon:
            return
        x = x1s[-1]
        reachable = frozenset().union(*(post[q] for q in tracked)) if tracked else frozenset()
        for u in sorted(c1.choices.get(x, frozenset())):
            for xp in sorted(s1.successors(x, u)):
                tracked_next = rel.forward(xp) & reachable
                if not tracked_next:
                    found.append((x1s + (xp,), u1s + (u,)))
                else:
                    walk(x1s + (xp,), u1s + (u,), tracked_next)

    for x0 in sorted(s1.states):
        start = rel.forward(x0)
        if not start:
            found.append(((x0,), ()))
            continue
        walk((x0,), (), start)
    if found:
        states, inputs = min(found, key=lambda pair: (len(pair[0]), pair[0]))
        return PropertyVerdict(False, PropertyWitness(states, inputs, None))
    return PropertyVerdict(True, None)


def simulability_case(seed):
    """A random closed loop: overlapping, sometimes non-strict relations,
    partial controllers on both sides, horizons 0-7."""
    rng = seeded_rng(seed)
    s1 = random_system(rng, rng.randint(1, 6), rng.randint(1, 3),
                       fully_available=rng.random() < 0.5)
    s2 = random_system(rng, rng.randint(1, 4), rng.randint(1, 3),
                       state_prefix="q", input_prefix="v")
    rel = random_strict_relation(rng, s1.states, s2.states,
                                 overlap=rng.choice([0.0, 0.25, 0.6]))
    if rng.random() < 0.2:
        kept = frozenset(pair for pair in sorted(rel.pairs) if rng.random() < 0.8)
        rel = Relation(rel.domain, rel.codomain, kept)
    c1, c2 = random_partial_controller(rng, s1), random_partial_controller(rng, s2)
    return s1, s2, rel, c1, c2, rng.randrange(8)


def reference_memoryless_concretization(s1, s2, rel, interface, c2):
    """The former memoryless check, kept as the reference for the shared
    step-local test and the lasso witness: nested loops over every
    (x1, x2, u2, u1, x1', x2'), and a witness extended one step at a time
    until its last (x1, x2) pair occurred before.  A relation that does not
    match the two systems is a domain error, as for every entry point."""
    _validate_triplet(s1, s2, rel)
    if not rel.is_strict():
        raise StrictnessError("the memoryless guarantee is stated for strict relations")
    c2.validate_for(s2)
    for x1, x2 in sorted(rel.pairs):
        for u2 in sorted(c2.choices.get(x2, frozenset())):
            succ2 = s2.successors(x2, u2)
            for u1 in sorted(interface.inputs_for(x1, x2, u2)):
                for x1p in sorted(s1.successors(x1, u1)):
                    for x2p in sorted(rel.forward(x1p)):
                        if x2p in succ2:
                            continue
                        states, quant, inputs = [x1, x1p], [x2, x2p], [u1]
                        while True:
                            y1, y2 = states[-1], quant[-1]
                            if (y1, y2) in zip(states[:-1], quant[:-1]):
                                break
                            menu = sorted(c2.choices.get(y2, frozenset()))
                            if not menu:
                                break
                            v1 = sorted(interface.inputs_for(y1, y2, menu[0]))[0]
                            successors = sorted(s1.successors(y1, v1))
                            if not successors:
                                break
                            states.append(successors[0])
                            inputs.append(v1)
                            quant.append(sorted(rel.forward(successors[0]))[0])
                        witness = PropertyWitness(tuple(states), tuple(inputs), tuple(quant))
                        return PropertyVerdict(False, witness)
    return PropertyVerdict(True, None)


def reference_all_controllers(s1, s2, rel, interface, budget=None):
    """The former enumeration, kept as the reference for the closed form: the
    memoryless check on every total abstract controller in order, stopping at
    the first violator."""
    _validate_triplet(s1, s2, rel)
    total = controller_count(s2, s2.states)
    if budget is not None and total > budget:
        raise BudgetExceededError(f"{total} controllers exceed the budget of {budget}")
    checked = 0
    for c2 in enumerate_controllers(s2, s2.states):
        verdict = reference_memoryless_concretization(s1, s2, rel, interface, c2)
        checked += 1
        if not verdict.holds:
            return AllControllersVerdict(False, c2, verdict.witness, checked)
    return AllControllersVerdict(True, None, None, checked)


def outcome(check, *args):
    """The verdict, or the type and message of the library error raised."""
    try:
        return check(*args)
    except SymcretError as err:
        return type(err), str(err)


def memoryless_case(seed):
    """A random memoryless-check instance: overlap 0/0.25/0.6; induced,
    perturbed or unrelated abstractions over the relation's cells; sometimes
    a blocking abstract state or a non-strict relation; a maximal interface,
    or a hand-built one with missing and non-maximal entries, unavailable
    inputs and inputs the plant does not know."""
    rng = seeded_rng(seed)
    s1 = random_system(rng, rng.randint(1, 5), rng.randint(1, 3),
                       fully_available=rng.random() < 0.5)
    cells = [f"q{i}" for i in range(rng.randint(1, 4))]
    rel = random_strict_relation(rng, s1.states, cells, overlap=rng.choice([0.0, 0.25, 0.6]))
    flavor = rng.randrange(3)
    if flavor == 2:
        s2 = random_system(rng, len(cells), rng.randint(1, 3), state_prefix="q", input_prefix="v")
    else:
        s2 = induced_abstraction(s1, rel)
        if flavor == 1:
            s2 = perturb_abstraction(rng, s2)
    if rng.random() < 0.1:
        dead = rng.choice(s2.states)
        s2 = FiniteTransitionSystem(
            s2.states, s2.inputs, {k: v for k, v in s2.trans.items() if k[0] != dead}
        )
    if rng.random() < 0.15:
        kept = frozenset(pair for pair in sorted(rel.pairs) if rng.random() < 0.8)
        rel = Relation(rel.domain, rel.codomain, kept)
    interface = None
    if rng.random() < 0.4 and rel.is_strict() and flavor != 2:
        for kind in (RelationKind.MCR, RelationKind.ASR):
            try:
                interface = maximal_interface(s1, s2, rel, kind)
                break
            except RelationCheckError:
                pass
    if interface is None:
        table = {}
        for x1, x2 in sorted(rel.pairs):
            for u2 in s2.available_inputs(x2):
                if rng.random() < 0.9:
                    pool = s1.inputs if rng.random() < 0.2 else s1.available_inputs(x1)
                    if rng.random() < 0.05:
                        pool += ("w",)
                    table[x1, x2, u2] = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
        interface = Interface(RelationKind.ASR, table)
    return rng, s1, s2, rel, interface


def memoryless_case_controller(rng, s2):
    """A random non-empty subset of the available inputs at about 85 % of the
    states that have any."""
    return Controller({
        q: frozenset(rng.sample(s2.available_inputs(q), rng.randint(1, len(s2.available_inputs(q)))))
        for q in s2.states
        if s2.available_inputs(q) and rng.random() < 0.85
    })


def asr_gap_cases(seeds):
    """Fully available plants of 2-5 states, overlap 0.4, a perturbed induced
    abstraction with its maximal ASR interface, and every abstract controller
    where there are at most 300."""
    for seed in seeds:
        rng = seeded_rng(seed)
        s1 = random_system(rng, rng.randint(2, 5), rng.randint(1, 3), fully_available=True)
        cells = [f"q{i}" for i in range(rng.randint(1, 4))]
        rel = random_strict_relation(rng, s1.states, cells, overlap=0.4)
        s2 = perturb_abstraction(rng, induced_abstraction(s1, rel))
        try:
            interface = maximal_interface(s1, s2, rel, RelationKind.ASR)
        except RelationCheckError:
            continue
        if controller_count(s2, s2.states) <= 300:
            for c2 in enumerate_controllers(s2, s2.states):
                yield s1, s2, rel, interface, c2


class TestTripletValidation:
    @pytest.mark.parametrize("short_domain", [True, False])
    def test_every_oracle_validates_the_triplet(self, fx, asr_interface, short_domain):
        if short_domain:
            domain = ("1", "2")
            rel = Relation(domain, fx.s2.states,
                           frozenset(p for p in fx.relation.pairs if p[0] in domain))
        else:  # an extra codomain state z that s2 does not have
            rel = Relation(fx.s1.states, fx.s2.states + ("z",), fx.relation.pairs | {("1", "z")})
        with pytest.raises(DomainError):
            check_controlled_simulability(fx.s1, fx.s2, rel, fx.c1_safe, fx.c2_via_b)
        with pytest.raises(DomainError):
            check_memoryless_concretization(fx.s1, fx.s2, rel, asr_interface, fx.c2_via_b)
        with pytest.raises(DomainError):
            check_memoryless_concretization_all_controllers(fx.s1, fx.s2, rel, asr_interface)


class TestControlledSimulability:
    def test_concretized_route_controller_leaks(self, fx, asr_interface):
        c1 = memoryless_controller(fx.c2_via_b, fx.relation, asr_interface)
        verdict = check_controlled_simulability(fx.s1, fx.s2, fx.relation, c1, fx.c2_via_b, 6)
        assert not verdict.holds
        assert verdict.witness.concrete == ("1", "2", "3")

    def test_safe_controller_is_simulated(self, fx):
        verdict = check_controlled_simulability(
            fx.s1, fx.s2, fx.relation, fx.c1_safe, fx.c2_via_b, 6
        )
        assert verdict.holds

    def test_empty_controller_trivially_simulated(self, fx):
        verdict = check_controlled_simulability(
            fx.s1, fx.s2, fx.relation, Controller({}), fx.c2_via_b, 6
        )
        assert verdict.holds

    def test_unrelated_start_is_the_witness(self, fx):
        partial = Relation(fx.s1.states, fx.s2.states, fx.relation.pairs - {("3", "d")})
        verdict = check_controlled_simulability(
            fx.s1, fx.s2, partial, Controller({}), fx.c2_via_b, 6
        )
        assert not verdict.holds and verdict.witness.concrete == ("3",)

    def test_zero_horizon_is_a_contract_error(self, fx):
        # No run has at most 0 states, so there is nothing to refute.
        with pytest.raises(ContractError, match="^horizon must be at least 1$"):
            check_controlled_simulability(fx.s1, fx.s2, fx.relation, fx.c1_safe, fx.c2_via_b, 0)

    def test_monotone_in_horizon(self, fx, asr_interface):
        c1 = memoryless_controller(fx.c2_via_b, fx.relation, asr_interface)
        verdicts = [
            check_controlled_simulability(fx.s1, fx.s2, fx.relation, c1, fx.c2_via_b, h).holds
            for h in (1, 2, 3, 6, 12)
        ]
        assert verdicts == sorted(verdicts, reverse=True)  # True may only flip to False
        assert verdicts[0] and not verdicts[-1]

    @settings(max_examples=1000, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_product_search_matches_path_enumeration(self, seed):
        case = simulability_case(seed)
        assert (outcome(check_controlled_simulability, *case)
                == outcome(reference_controlled_simulability, *case))

    def test_no_horizon_refutes_a_failure_longer_than_the_state_pairs(self):
        s1, s2, rel, c1, c2 = cycle_product()
        verdict = check_controlled_simulability(s1, s2, rel, c1, c2)
        assert verdict == check_controlled_simulability(s1, s2, rel, c1, c2, 10**6)
        assert verdict.witness == PropertyWitness(
            ("s",) + ("a",) * 208 + ("b",), ("u",) * 209, None)
        # The former default horizon, one more than the 68 state pairs.
        assert check_controlled_simulability(s1, s2, rel, c1, c2, 69).holds

    def test_no_horizon_equals_the_pigeonhole_horizon(self):
        """Without a horizon the search runs until no new node appears, so it
        equals the horizon n1 * 2^n2 + 1, one more than the (x1, tracked set)
        nodes there can be.  Every fourth case is a cycle product with random
        lengths, starts and holes, whose failures can outrun the state pairs
        (and never come when 2 and 4 disagree)."""
        kinds = Counter()
        for seed in range(1200):
            rng = seeded_rng(seed)
            if seed % 4:
                s1, s2, rel, c1, c2, _ = simulability_case(seed)
            else:
                lengths = rng.sample((2, 3, 4, 5, 7), rng.randint(1, 4))
                s1, s2, rel, c1, c2 = cycle_product(
                    lengths, [rng.randrange(n) for n in lengths],
                    [rng.randrange(n) for n in lengths])
            n1, n2 = len(s1.states), len(s2.states)
            verdict = check_controlled_simulability(s1, s2, rel, c1, c2)
            assert verdict == check_controlled_simulability(
                s1, s2, rel, c1, c2, n1 * 2**n2 + 1), seed
            if verdict.holds:
                kinds["holds"] += 1
            else:
                kinds["long" if len(verdict.witness.concrete) > n1 * n2 + 1 else "short"] += 1
        assert min(kinds["holds"], kinds["short"], kinds["long"]) >= 20, kinds

    def test_witness_orders_states_before_inputs(self):
        s1 = FiniteTransitionSystem(("a", "b", "c"), ("u0", "u1"), {
            ("a", "u0"): {"c"}, ("a", "u1"): {"b"}, ("b", "u0"): {"b"}, ("c", "u0"): {"c"},
        })
        s2 = FiniteTransitionSystem(("q",), ("v",), {("q", "v"): {"q"}})
        rel = Relation(s1.states, s2.states, frozenset((x, "q") for x in s1.states))
        c1 = Controller({"a": {"u0", "u1"}})
        # The abstract controller plays nothing, so every concrete move fails.
        verdict = check_controlled_simulability(s1, s2, rel, c1, Controller({}), 4)
        assert verdict.witness == PropertyWitness(("a", "b"), ("u1",), None)

    def test_long_chain_needs_no_recursion(self):
        sys = chain(1500)
        ident = Relation.identity(sys.states)
        everywhere = Controller({x: {"go"} for x in sys.states})
        verdict = check_controlled_simulability(sys, sys, ident, everywhere, everywhere, 1501)
        assert verdict == PropertyVerdict(True, None)
        # The abstract copy stops short of the loop, so every run that
        # reaches the last state leaves the abstract closed loop there.
        short = Controller({f"s{i}": {"go"} for i in range(1499)})
        verdict = check_controlled_simulability(sys, sys, ident, everywhere, short, 1501)
        assert verdict.witness == PropertyWitness(("s1499", "s1499"), ("go",), None)


class TestNoCyclicGarbage:
    def test_transfer_checks_leave_nothing_for_the_collector(self, fx, asr_interface):
        c1 = memoryless_controller(fx.c2_via_b, fx.relation, asr_interface)
        gc.collect()
        gc.disable()
        try:
            verdict = check_controlled_simulability(
                fx.s1, fx.s2, fx.relation, c1, fx.c2_via_b, 6
            )
            runs = count_dynamic_runs(
                fx.s1, fx.s2, fx.c2_via_b, fx.relation, asr_interface, "1", 6
            )
            assert not verdict.holds and runs
            assert gc.collect() == 0
        finally:
            gc.enable()
        # The recursive reference's closure is itself a cycle, so it runs
        # only after the check.
        assert runs == len(reference_enumerate_dynamic_runs(
            fx.s1, fx.s2, fx.c2_via_b, fx.relation, asr_interface, "1", 6
        ))

    # The library pauses the collector while it reads and writes documents
    # and builds extensions and interfaces; that is free only while those
    # paths leave no cycles behind.

    @staticmethod
    def garbage_after(build):
        """What ``gc.collect`` finds after ``build()`` ran with the collector off."""
        gc.collect()
        gc.disable()
        try:
            result = build()
            found = gc.collect()
        finally:
            gc.enable()
        assert result is not None
        return found

    @pytest.fixture(scope="class")
    def bundles(self, tmp_path_factory):
        """The fig5 bundle and a 3,000-state line bundle, with their files."""
        s1, s2, rel = overlapping_line(600, 11)
        line = jsonio.ProjectBundle(
            systems={"S1": s1, "S2": s2, "S2x": mcr_extension(s1, s2, rel)},
            relations={"R": ("S1", "S2", rel), "Rx": ("S1", "S2x", rel)},
        )
        out = []
        for name, bundle in (("fig5", fig5_bundle()), ("line", line)):
            path = tmp_path_factory.mktemp("bundles") / f"{name}.json"
            jsonio.save(path, jsonio.bundle_to_obj(bundle))
            out.append((bundle, path))
        return out

    def test_documents_leave_nothing_for_the_collector(self, bundles):
        for bundle, path in bundles:
            assert self.garbage_after(lambda: jsonio.bundle_from_obj(jsonio.load(path))) == 0
            assert self.garbage_after(lambda: jsonio.dumps(jsonio.bundle_to_obj(bundle))) == 0

    def test_extension_and_interface_leave_nothing_for_the_collector(self, bundles):
        for bundle, _ in bundles:
            s1, s2, s2x = (bundle.systems[name] for name in ("S1", "S2", "S2x"))
            rel = bundle.relations["R"][2]
            assert self.garbage_after(lambda: mcr_extension(s1, s2, rel)) == 0
            assert self.garbage_after(
                lambda: maximal_interface(s1, s2x, rel, RelationKind.MCR)) == 0

    def test_decoding_a_large_bundle_runs_no_collection(self, bundles):
        # Each paused call is recorded on its own, from a fresh young
        # generation: the collection it defers runs at the first allocation
        # after it returns, which is outside the recording.
        _, path = bundles[1]
        started = []

        def record(phase, info):
            if phase == "start":
                started.append(info["generation"])

        def collections_in(call, *args):
            gc.collect()
            gc.callbacks.append(record)
            try:
                result = call(*args)
            finally:
                gc.callbacks.remove(record)
            return result

        obj = collections_in(jsonio.load, path)
        bundle = collections_in(jsonio.bundle_from_obj, obj)
        assert len(bundle.systems["S1"].states) == 3000
        assert started == []


class TestMemorylessConcretization:
    def test_route_controller_refuted_with_exact_witness(self, fx, asr_interface):
        verdict = check_memoryless_concretization(
            fx.s1, fx.s2, fx.relation, asr_interface, fx.c2_via_b
        )
        assert not verdict.holds
        assert verdict.witness.concrete == ("1", "2", "3")
        assert verdict.witness.quantization == ("a", "c", "d")
        assert verdict.witness.concrete_inputs == ("0", "1")

    def test_detour_controller_holds(self, fx, asr_interface):
        assert check_memoryless_concretization(
            fx.s1, fx.s2, fx.relation, asr_interface, fx.c2_via_e
        ).holds

    def test_extension_repairs_the_route_controller(self, fx):
        iface = maximal_interface(fx.s1, fx.s2_extended, fx.relation, RelationKind.MCR)
        assert check_memoryless_concretization(
            fx.s1, fx.s2_extended, fx.relation, iface, fx.c2_via_b
        ).holds

    def test_witness_replays(self, fx, asr_interface):
        verdict = check_memoryless_concretization(
            fx.s1, fx.s2, fx.relation, asr_interface, fx.c2_via_b
        )
        assert replay_memoryless_witness(
            fx.s1, fx.s2, fx.relation, asr_interface, fx.c2_via_b, verdict.witness
        )

    def test_every_refutation_replays(self):
        refuted = 0
        for s1, s2, rel, interface, c2 in asr_gap_cases(range(1000)):
            verdict = check_memoryless_concretization(s1, s2, rel, interface, c2)
            if not verdict.holds:
                refuted += 1
                assert replay_memoryless_witness(s1, s2, rel, interface, c2, verdict.witness)
        assert refuted > 1000

    def test_runs_of_a_passing_controller_do_not_replay(self):
        runs = 0
        for s1, s2, rel, interface, c2 in asr_gap_cases(range(300)):
            if not check_memoryless_concretization(s1, s2, rel, interface, c2).holds:
                continue
            c1 = memoryless_controller(c2, rel, interface)
            for x1, x2 in sorted(rel.pairs):
                for u in sorted(c1.choices.get(x1, ())):
                    for x1p in sorted(s1.successors(x1, u)):
                        for x2p in sorted(rel.forward(x1p)):
                            runs += 1
                            run = PropertyWitness((x1, x1p), (u,), (x2, x2p))
                            assert not replay_memoryless_witness(s1, s2, rel, interface, c2, run)
        assert runs > 1000

    def test_agreement_with_brute_force_walker(self, fx, asr_interface):
        for c2, expected in ((fx.c2_via_b, False), (fx.c2_via_e, True)):
            fast = check_memoryless_concretization(
                fx.s1, fx.s2, fx.relation, asr_interface, c2
            ).holds
            slow = brute_force_memoryless_check(
                fx.s1, fx.s2, fx.relation, asr_interface, c2, 6
            )
            assert fast == slow == expected

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_agreement_on_random_instances(self, seed):
        from symcret import FiniteTransitionSystem, check_asr

        rng = seeded_rng(seed)
        s1 = random_system(rng, rng.randint(2, 3), rng.randint(1, 2), fully_available=True)
        rel = random_strict_relation(rng, s1.states, ["q0", "q1"])
        s2 = induced_abstraction(s1, rel)
        wide = [k for k, v in s2.trans.items() if len(v) > 1]
        if wide and rng.random() < 0.5:
            # Shrink one row to move some instances off the safe side.
            key = rng.choice(wide)
            trans = {k: (frozenset(sorted(v)[:1]) if k == key else v) for k, v in s2.trans.items()}
            s2 = FiniteTransitionSystem(s2.states, s2.inputs, trans)
        if check_mcr(s1, s2, rel).holds:
            kind = RelationKind.MCR
        elif check_asr(s1, s2, rel).holds:
            kind = RelationKind.ASR
        else:
            return
        interface = maximal_interface(s1, s2, rel, kind)
        c2 = Controller({
            q: frozenset(sorted(s2.available_inputs(q))[:1])
            for q in s2.states
            if s2.available_inputs(q)
        })
        fast = check_memoryless_concretization(s1, s2, rel, interface, c2).holds
        slow = brute_force_memoryless_check(s1, s2, rel, interface, c2, 5)
        assert fast == slow


    @settings(max_examples=500, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_step_by_step_reference(self, seed):
        rng, s1, s2, rel, interface = memoryless_case(seed)
        c2 = memoryless_case_controller(rng, s2)
        args = (s1, s2, rel, interface, c2)
        assert outcome(check_memoryless_concretization, *args) == outcome(
            reference_memoryless_concretization, *args
        )

    def test_cyclic_witness_is_a_lasso(self):
        s1 = FiniteTransitionSystem(("a", "b", "c"), ("u",), {
            ("a", "u"): {"b"}, ("b", "u"): {"c"}, ("c", "u"): {"a"},
        })
        s2 = FiniteTransitionSystem(s1.states, ("u",), {
            ("a", "u"): {"c"}, ("b", "u"): {"c"}, ("c", "u"): {"a"},
        })
        ident = Relation.identity(s1.states)
        iface = Interface(RelationKind.ASR, {(x, x, "u"): {"u"} for x in s1.states})
        c2 = Controller({x: {"u"} for x in s1.states})
        # (a, a) escapes to b outside F2(a, u); the run ends where (a, a)
        # comes round again.
        lasso = check_memoryless_concretization(s1, s2, ident, iface, c2)
        assert lasso.witness == PropertyWitness(tuple("abca"), ("u",) * 3, tuple("abca"))

    def test_no_horizon_witness_is_a_lasso_within_the_state_pairs(self):
        # (x, q0) escapes to (x, q1), whose least step returns to (x, q0):
        # the first pair counts as seen, or the run would have 4 states.
        s1 = FiniteTransitionSystem(("x",), ("u",), {("x", "u"): {"x"}})
        s2 = FiniteTransitionSystem(("q0", "q1"), ("v",), {("q0", "v"): {"q0"}, ("q1", "v"): {"q0"}})
        rel = Relation(s1.states, s2.states, frozenset({("x", "q0"), ("x", "q1")}))
        iface = Interface(RelationKind.ASR, {("x", q, "v"): {"u"} for q in s2.states})
        c2 = Controller({q: {"v"} for q in s2.states})
        verdict = check_memoryless_concretization(s1, s2, rel, iface, c2)
        assert verdict.witness == PropertyWitness(("x",) * 3, ("u",) * 2, ("q0", "q1", "q0"))
        kinds = Counter()
        for seed in range(2000):
            rng, s1, s2, rel, interface = memoryless_case(seed)
            c2 = memoryless_case_controller(rng, s2)
            verdict = outcome(check_memoryless_concretization, s1, s2, rel, interface, c2)
            if isinstance(verdict, tuple) or verdict.holds:
                continue
            pairs = list(zip(verdict.witness.concrete, verdict.witness.quantization))
            assert len(pairs) <= len(s1.states) * len(s2.states) + 1, seed
            # The run stops at its first repeated pair, or where it cannot go on.
            assert len(set(pairs[:-1])) == len(pairs) - 1, seed
            kinds["lasso" if pairs[-1] in pairs[:-1] else "stuck"] += 1
            kinds[len(pairs)] += 1
        assert kinds["lasso"] > 100 and kinds["stuck"] > 0 and kinds[4] > 0, kinds


def line_system(rng, n_cells):
    """A line of five-state cells; the first state of about half the cells
    also lies in the cell to its left.  `l` and `r` move six states with a
    second successor half the time, `ja` and `jb` jump 10 to 20 states right
    with width 1 to 3; moves are clamped to the line."""
    n = 5 * n_cells
    states = [f"s{i:04d}" for i in range(n)]
    trans = {}
    for i, x in enumerate(states):
        trans[x, "l"] = {states[max(0, i - 6 - k)] for k in range(rng.randint(1, 2))}
        trans[x, "r"] = {states[min(n - 1, i + 6 + k)] for k in range(rng.randint(1, 2))}
        for u in ("ja", "jb"):
            start = i + rng.randint(10, 20)
            trans[x, u] = {states[min(n - 1, j)] for j in range(start, start + rng.randint(1, 3))}
    s1 = FiniteTransitionSystem(tuple(states), ("ja", "jb", "l", "r"), trans)
    pairs = {(x, f"c{i // 5:03d}") for i, x in enumerate(states)}
    pairs |= {(states[5 * j], f"c{j - 1:03d}") for j in range(2, n_cells) if rng.random() < 0.5}
    return s1, Relation(s1.states, tuple(f"c{j:03d}" for j in range(n_cells)), frozenset(pairs))


class TestAllControllers:
    def test_base_abstraction_has_a_violating_controller(self, fx, asr_interface):
        outcome = check_memoryless_concretization_all_controllers(
            fx.s1, fx.s2, fx.relation, asr_interface, budget=100
        )
        assert not outcome.holds
        assert outcome.witness_controller.choices["a"] == frozenset({ALPHA})
        assert replay_memoryless_witness(
            fx.s1, fx.s2, fx.relation, asr_interface,
            outcome.witness_controller, outcome.witness,
        )

    def test_default_witness_ends_at_its_first_repeated_pair(self, fx, asr_interface):
        verdict = check_memoryless_concretization_all_controllers(
            fx.s1, fx.s2, fx.relation, asr_interface)
        witness = verdict.witness
        assert witness.concrete == ("1", "2", "3", "3")
        assert witness.quantization == ("a", "c", "d", "d")
        assert replay_memoryless_witness(
            fx.s1, fx.s2, fx.relation, asr_interface, verdict.witness_controller, witness)

    def test_extension_passes_for_every_controller(self, fx):
        iface = maximal_interface(fx.s1, fx.s2_extended, fx.relation, RelationKind.MCR)
        outcome = check_memoryless_concretization_all_controllers(
            fx.s1, fx.s2_extended, fx.relation, iface, budget=100
        )
        assert outcome.holds and outcome.checked == 3

    def test_identity_passes(self, fx):
        ident = Relation.identity(fx.s2.states)
        iface = maximal_interface(fx.s2, fx.s2, ident, RelationKind.MCR)
        outcome = check_memoryless_concretization_all_controllers(
            fx.s2, fx.s2, ident, iface, budget=100
        )
        assert outcome.holds

    def test_walks_the_relation_in_its_own_order(self, fx, monkeypatch):
        # How much work runs before the first event depends on the walk's
        # order: the relation's fixed order, not its pair set's, which
        # follows the string-hash seed.
        iface = maximal_interface(fx.s1, fx.s2_extended, fx.relation, RelationKind.MCR)
        escape, seen = oracle._escape, []

        def spy(s1, rel, x1, u1, row):
            seen.append(x1)
            return escape(s1, rel, x1, u1, row)

        monkeypatch.setattr(oracle, "_escape", spy)
        assert check_memoryless_concretization_all_controllers(
            fx.s1, fx.s2_extended, fx.relation, iface).holds
        order = [x1 for x1, _ in fx.relation._order]
        assert len(set(seen)) > 1 and seen == sorted(seen, key=order.index)

    def test_budget_enforced(self, fx, asr_interface):
        with pytest.raises(BudgetExceededError):
            check_memoryless_concretization_all_controllers(
                fx.s1, fx.s2, fx.relation, asr_interface, budget=2
            )

    @settings(max_examples=1000, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_closed_form_matches_enumeration(self, seed):
        _, s1, s2, rel, interface = memoryless_case(seed)
        args = (s1, s2, rel, interface)
        assert outcome(check_memoryless_concretization_all_controllers, *args) == outcome(
            reference_all_controllers, *args
        )

    def test_cases_cover_every_branch(self):
        seen = set()
        for seed in range(300):
            _, s1, s2, rel, interface = memoryless_case(seed)
            result = outcome(check_memoryless_concretization_all_controllers,
                             s1, s2, rel, interface)
            if isinstance(result, tuple):
                seen.add(result[0])
            elif result.holds:
                seen.add("blocked" if result.checked == 0 else "holds")
            else:
                seen.add("first" if result.checked == 1 else "later")
        assert seen >= {"holds", "blocked", "first", "later", StrictnessError,
                        ContractError, DomainError}

    def test_line_plant_holds_for_every_controller(self):
        s1, rel = line_system(seeded_rng(7), 200)
        s2 = induced_abstraction(s1, rel)
        iface = maximal_interface(s1, s2, rel, RelationKind.MCR)
        started = time.perf_counter()
        verdict = check_memoryless_concretization_all_controllers(s1, s2, rel, iface)
        elapsed = time.perf_counter() - started
        assert verdict == AllControllersVerdict(True, None, None, controller_count(s2, s2.states))
        assert verdict.checked == 15**200
        assert elapsed < 1.0


@pytest.fixture(scope="module")
def laws():
    # Imported here, not at the top: test_laws imports this module's references.
    import test_laws

    return test_laws


class TestCrosscheck:
    def test_degenerate_single_state_laws(self):
        from symcret import FiniteTransitionSystem, check_asr, check_frr

        sys = FiniteTransitionSystem(("x",), ("u",), {("x", "u"): {"x"}})
        ident = Relation.identity(sys.states)
        assert check_asr(sys, sys, ident).holds
        assert check_mcr(sys, sys, ident).holds
        assert check_frr(sys, sys, ident).holds
        iface = maximal_interface(sys, sys, ident, RelationKind.MCR)
        outcome = check_memoryless_concretization_all_controllers(
            sys, sys, ident, iface, budget=10
        )
        assert outcome.holds and outcome.checked == 1

    def test_fig5_meets_every_law(self, fx, laws):
        # The faults below are the first law to fail on fig5.
        assert laws.assert_laws(fx.s1, fx.s2, fx.relation) == {
            "asr without mcr", "extension", "merging quotient"}

    def test_a_failed_law_raises_a_replayable_bundle(self, fx, laws, monkeypatch):
        # A check_mcr that refutes everything breaks reflexivity, the first
        # law; the message carries the instance as JSON.
        monkeypatch.setattr(laws, "check_mcr", lambda *args: RelationVerdict(False, None))
        with pytest.raises(AssertionError) as caught:
            laws.assert_laws(fx.s1, fx.s2, fx.relation)
        law, _, bundle = str(caught.value).partition(" failed on ")
        assert law == "law 'reflexivity'"
        bundle = json.loads(bundle)
        assert jsonio.system_from_obj(bundle["S1"]) == fx.s1
        assert jsonio.system_from_obj(bundle["S2"]) == fx.s2
        assert jsonio.relation_from_obj(bundle["R"], fx.s1, fx.s2) == fx.relation

    def test_the_extension_is_re_walked(self, fx, laws, monkeypatch):
        # The extension checks only its own certificate; the laws walk both
        # memoryless relations again.  On fig5, handing back S2 itself
        # breaks the one with S1; moving the row (b, α) to {d} keeps that
        # one and breaks the one with S2 along identity.
        moved = FiniteTransitionSystem(fx.s2.states, fx.s2.inputs,
                                       {**fx.s2_extended.trans, ("b", ALPHA): {"d"}})
        assert check_mcr(fx.s1, moved, fx.relation).holds
        for extended, law in ((fx.s2, "extension mcr with s1"),
                              (moved, "extension mcr with s2 along identity")):
            monkeypatch.setattr(laws, "mcr_extension", lambda *args, ext=extended: ext)
            with pytest.raises(AssertionError, match=f"^law '{law}' failed on "):
                laws.assert_laws(fx.s1, fx.s2, fx.relation)

    def test_the_extension_keeps_availability(self, fx, laws, monkeypatch):
        # γ is unavailable at a in S2.  Adding the row (a, γ) -> {b, c} keeps
        # both memoryless relations (input 0 at state 1 fits, and S2's rows
        # stay inside theirs); only the availability law sees it.
        grown = FiniteTransitionSystem(fx.s2.states, fx.s2.inputs,
                                       {**fx.s2_extended.trans, ("a", GAMMA): {"b", "c"}})
        monkeypatch.setattr(laws, "mcr_extension", lambda *args: grown)
        with pytest.raises(AssertionError, match="^law 'extension availability' failed on "):
            laws.assert_laws(fx.s1, fx.s2, fx.relation)
