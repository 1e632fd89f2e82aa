import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcret import (
    ContractError,
    DomainError,
    FiniteTransitionSystem,
    Interface,
    ReachAvoidSpec,
    Relation,
    RelationCheckError,
    RelationKind,
    RelationVerdict,
    RelationWitness,
    StrictnessError,
    SymcretError,
    check_asr,
    check_frr,
    check_mcr,
    check_relation,
    extended_relation,
    maximal_interface,
    mcr_extension,
    replay_witness,
    translate_spec,
    validate_interface,
)
import symcret
from symcret import relations

from conftest import (
    ALPHA,
    BETA,
    GAMMA,
    availability_quotient,
    compose,
    induced_abstraction,
    overlapping_line,
    random_strict_relation,
    random_system,
    seeded_rng,
)


# Reference implementations: the per-tuple evaluation every relation operation
# used before the admissible-input kernel, kept to test the kernel against.

def reference_tuple_ok(kind, s1, s2, rel, x1, x2, u1, u2):
    if kind is RelationKind.FRR and u1 != u2:
        return False
    succ2 = s2.successors(x2, u2)
    for x1p in s1.successors(x1, u1):
        img = rel.forward(x1p)
        if kind is RelationKind.ASR:
            if img.isdisjoint(succ2):
                return False
        else:
            if not img <= succ2:
                return False
    return True


def reference_check(kind, s1, s2, rel):
    if set(rel.domain) != set(s1.states) or set(rel.codomain) != set(s2.states):
        raise DomainError("relation carriers must match the systems")
    if kind is not RelationKind.ASR and not rel.is_strict():
        raise StrictnessError(f"{kind.value} guarantees assume a strict relation")
    for x1, x2 in sorted(rel.pairs):
        avail1 = s1.available_inputs(x1)
        for u2 in s2.available_inputs(x2):
            if kind is RelationKind.ASR:
                if not any(reference_tuple_ok(kind, s1, s2, rel, x1, x2, u1, u2)
                           for u1 in avail1):
                    return RelationVerdict(False, RelationWitness(x1, x2, u2))
                continue
            if kind is RelationKind.FRR and u2 not in avail1:
                return RelationVerdict(False, RelationWitness(x1, x2, u2))
            candidates = (u2,) if kind is RelationKind.FRR else avail1
            succ2 = s2.successors(x2, u2)
            violations = []
            for u1 in candidates:
                failure = None
                for x1p in sorted(s1.successors(x1, u1)):
                    escaped = sorted(rel.forward(x1p) - succ2)
                    if escaped:
                        failure = (x1p, escaped[0])
                        break
                if failure is None:
                    break
                violations.append(failure)
            else:
                # A blocking x1 has no candidate, and so no evidence.
                evidence = min(violations, default=None)
                return RelationVerdict(False, RelationWitness(x1, x2, u2, evidence))
    return RelationVerdict(True, None)


def reference_replay_witness(kind, s1, s2, rel, witness):
    x1, x2, u2 = witness.x1, witness.x2, witness.u2
    if (x1, x2) not in rel.pairs or u2 not in s2.available_inputs(x2):
        return False
    if kind is RelationKind.FRR and u2 not in s1.available_inputs(x1):
        return True
    candidates = (u2,) if kind is RelationKind.FRR else s1.available_inputs(x1)
    if any(reference_tuple_ok(kind, s1, s2, rel, x1, x2, u1, u2) for u1 in candidates):
        return False
    if witness.evidence is not None:
        x1p, x2p = witness.evidence
        if not any(x1p in s1.successors(x1, u1) for u1 in candidates):
            return False
        if x2p not in rel.forward(x1p) or x2p in s2.successors(x2, u2):
            return False
    return True


def reference_extended_relation(kind, s1, s2, rel):
    return frozenset(
        (x1, x2, u1, u2)
        for x1, x2 in rel.pairs
        for u2 in s2.available_inputs(x2)
        for u1 in s1.available_inputs(x1)
        if reference_tuple_ok(kind, s1, s2, rel, x1, x2, u1, u2)
    )


def reference_maximal_interface(s1, s2, rel, kind):
    verdict = reference_check(kind, s1, s2, rel)
    if not verdict.holds:
        raise RelationCheckError(kind, verdict)
    return Interface(kind, {
        (x1, x2, u2): frozenset(
            u1 for u1 in s1.available_inputs(x1)
            if reference_tuple_ok(kind, s1, s2, rel, x1, x2, u1, u2)
        )
        for x1, x2 in rel.pairs
        for u2 in s2.available_inputs(x2)
    })


def reference_mcr_extension(s1, s2, rel):
    if not rel.is_strict():
        raise StrictnessError("extension needs a strict relation")
    asr = reference_check(RelationKind.ASR, s1, s2, rel)
    if not asr.holds:
        raise RelationCheckError(RelationKind.ASR, asr)
    table = {key: set(succ) for key, succ in s2.trans.items()}
    for x1, x2 in rel.pairs:
        for u2 in s2.available_inputs(x2):
            for u1 in s1.available_inputs(x1):
                if reference_tuple_ok(RelationKind.ASR, s1, s2, rel, x1, x2, u1, u2):
                    table[(x2, u2)] |= rel.image(s1.successors(x1, u1))
    return FiniteTransitionSystem(s2.states, s2.inputs, table)


def reference_validate_interface(s1, s2, rel, interface):
    """Raise the library's ContractError for the first bad entry, in sorted
    (x1, x2, u2) order, naming its least offending input."""
    kind = interface.kind
    for x1, x2 in sorted(rel.pairs):
        for u2 in s2.available_inputs(x2):
            for u1 in sorted(interface.inputs_for(x1, x2, u2)):
                if u1 not in s1.available_inputs(x1):
                    raise ContractError(
                        f"interface offers unavailable input {u1} at ({x1}, {x2}, {u2})")
                if not reference_tuple_ok(kind, s1, s2, rel, x1, x2, u1, u2):
                    raise ContractError(f"interface entry ({x1}, {x2}, {u2}) -> {u1} "
                                        f"violates the {kind.value} condition")


def outcome(fn, *args):
    """A call's value, or the type and message of the library error it
    raised, with the verdict of a failed check."""
    try:
        return ("value", fn(*args))
    except SymcretError as err:
        return ("error", type(err), str(err), getattr(err, "verdict", None))


def walk_instance(seed):
    """A concrete system, a relation and an abstraction drawn from ``seed``.
    The seed picks the relation's shape (a cover that puts each state in one
    to three cells, a partition, or a non-strict relation) and the
    abstraction (random over the concrete input names, induced, or induced
    and thinned); a fifth of the systems get a blocking state."""
    rng = seeded_rng(seed)
    s1 = random_system(rng, rng.randint(2, 6), rng.randint(1, 3))
    if rng.random() < 0.2:
        blocked = rng.choice(s1.states)
        s1 = FiniteTransitionSystem(s1.states, s1.inputs, {
            key: succ for key, succ in s1.trans.items() if key[0] != blocked})
    cells = [f"q{i}" for i in range(rng.randint(1, 4))]
    shape, abstraction = seed % 3, seed // 3 % 3
    if shape == 0:
        pairs = {(x, q) for x in s1.states
                 for q in rng.sample(cells, rng.randint(1, min(3, len(cells))))}
    elif shape == 1:
        pairs = random_strict_relation(rng, s1.states, cells, overlap=0.0).pairs
    else:
        pairs = {(x, q) for x in s1.states for q in cells if rng.random() < 0.3}
    rel = Relation(s1.states, cells, frozenset(pairs))
    if abstraction == 0:
        return s1, random_system(rng, len(cells), rng.randint(1, 3), state_prefix="q"), rel
    s2 = induced_abstraction(s1, rel)
    if abstraction == 2:
        s2 = FiniteTransitionSystem(s2.states, s2.inputs, {
            key: rng.sample(sorted(succ), rng.randint(1, len(succ)))
            for key, succ in s2.trans.items() if succ})
    return s1, s2, rel


def walk_classes(seed):
    """The cases of ``walk_instance(seed)`` that the walk must get right."""
    s1, s2, rel = walk_instance(seed)

    def live(x1):
        return [x2 for x2 in rel.forward(x1) if s2.available_inputs(x2)]

    frr = check_frr(s1, s2, rel) if rel.is_strict() else None
    mcr = check_mcr(s1, s2, rel) if rel.is_strict() else None
    return {
        "images reused across cells": any(len(live(x1)) >= 2 for x1 in s1.states),
        "non-strict": not rel.is_strict(),
        "frr input unavailable at x1": frr is not None and not frr.holds
        and frr.witness.u2 not in s1.available_inputs(frr.witness.x1),
        "blocking related state": any(
            live(x1) and not s1.available_inputs(x1) for x1 in s1.states),
        "thinned, mcr refuted with evidence": seed // 3 % 3 == 2 and mcr is not None
        and not mcr.holds and mcr.witness.evidence is not None,
    }


def assert_walk_matches_references(s1, s2, rel, rng):
    """Every operation read off the walk equals its reference: values,
    witnesses with evidence, tables, tuples, and error type and message."""
    assert outcome(mcr_extension, s1, s2, rel) == outcome(
        reference_mcr_extension, s1, s2, rel)
    evidences = [None] + [(a, b) for a in s1.states for b in s2.states]
    for kind in RelationKind:
        checked = outcome(check_relation, kind, s1, s2, rel)
        assert checked == outcome(reference_check, kind, s1, s2, rel)
        if checked[0] == "value" and not checked[1].holds:
            assert replay_witness(kind, s1, s2, rel, checked[1].witness)
        iface = outcome(maximal_interface, s1, s2, rel, kind)
        assert iface == outcome(reference_maximal_interface, s1, s2, rel, kind)
        assert extended_relation(kind, s1, s2, rel).tuples == (
            reference_extended_relation(kind, s1, s2, rel))
        for _ in range(12):
            w = RelationWitness(rng.choice(s1.states), rng.choice(s2.states),
                                rng.choice(s2.inputs), rng.choice(evidences))
            assert replay_witness(kind, s1, s2, rel, w) == (
                reference_replay_witness(kind, s1, s2, rel, w))
        # The maximal interface where there is one, then random entries over
        # the concrete inputs and one unknown name; some entries go missing.
        keys = [(x1, x2, u2) for x1, x2 in sorted(rel.pairs) for u2 in s2.available_inputs(x2)]
        names = [*s1.inputs, "u9"]
        tables = [iface[1].table] if iface[0] == "value" else []
        for _ in range(4):
            tables.append({key: rng.sample(names, rng.randint(1, 2)) for key in keys
                           if rng.random() < 0.95})
        for table in tables:
            candidate = Interface(kind, table)
            assert outcome(validate_interface, s1, s2, rel, candidate) == outcome(
                reference_validate_interface, s1, s2, rel, candidate)


def small_instance(rng, shape):
    """A concrete system of 2-4 states and 1-2 inputs, and a relation onto
    1-3 cells of the given shape: ``overlap`` (strict, a quarter of the
    states in a second cell), ``partition`` or ``non_strict``."""
    s1 = random_system(rng, rng.randint(2, 4), rng.randint(1, 2))
    cells = [f"q{i}" for i in range(rng.randint(1, 3))]
    if shape == "non_strict":
        pairs = frozenset((x, q) for x in s1.states for q in cells if rng.random() < 0.3)
        return s1, Relation(s1.states, cells, pairs)
    overlap = 0.25 if shape == "overlap" else 0.0
    return s1, random_strict_relation(rng, s1.states, cells, overlap=overlap)


def relation_instance(seed):
    """A small concrete system, a strict (with or without overlap) or
    non-strict relation, and an abstraction that is random, induced, or
    induced and thinned, drawn from ``seed``."""
    rng = seeded_rng(seed)
    s1, rel = small_instance(rng, rng.choice(["overlap", "partition", "non_strict"]))
    abstraction = rng.choice(["random", "induced", "thinned"])
    if abstraction == "random":
        return s1, random_system(rng, len(rel.codomain), 2, state_prefix="q"), rel
    s2 = induced_abstraction(s1, rel)
    if abstraction == "thinned":
        s2 = FiniteTransitionSystem(s2.states, s2.inputs, {
            key: rng.sample(sorted(succ), rng.randint(1, len(succ)))
            for key, succ in s2.trans.items() if succ})
    return s1, s2, rel


class TestRelationBasics:
    def test_fig5_strict_not_single_valued(self, fx):
        assert fx.relation.is_strict()
        assert not fx.relation.is_single_valued()

    def test_identity_both(self):
        ident = Relation.identity(("a", "b"))
        assert ident.is_strict() and ident.is_single_valued()

    def test_empty_relation_not_strict(self):
        rel = Relation(("a", "b"), ("q",), frozenset())
        assert not rel.is_strict()

    @pytest.mark.parametrize("seed", range(60))
    def test_pairs_kept_in_walk_order(self, seed):
        # Pairs drawn with repeats over carriers named with repeats; the
        # draw often leaves a domain state unrelated.
        rng = seeded_rng(seed)
        domain = [f"x{i}" for i in range(rng.randint(1, 6))]
        codomain = [f"q{i}" for i in range(rng.randint(1, 4))]
        drawn = [(rng.choice(domain), rng.choice(codomain)) for _ in range(rng.randint(0, 8))]
        rel = Relation(domain + domain[:2], codomain[::-1], iter(drawn + drawn[:3]))
        assert rel._order == tuple(sorted(rel.pairs)) == tuple(sorted(set(drawn)))
        assert rel.is_strict() == all(rel.forward(a) for a in rel.domain)

    def test_pairs_outside_carriers_rejected(self):
        with pytest.raises(DomainError):
            Relation(("a",), ("q",), frozenset({("b", "q")}))
        # A name is not coerced: the number 1 is not the state "1".
        with pytest.raises(DomainError):
            Relation(("1",), ("q",), frozenset({(1, "q")}))

    def test_stray_pair_message_ignores_hash_order(self):
        # The message names the least stray pair, whatever order string
        # hashing gives the frozenset; an int name must not break the order,
        # and the int 1 and the string "1" must not tie.
        code = (
            "from symcret import DomainError, Relation\n"
            "cases = [\n"
            "    (('1', '2'), ('a',), {('1', 'zz'), ('2', 'yy'), ('1', 'a')}),\n"
            "    (('1',), ('a', 'b'), {('3', 'a'), ('2', 'b'), ('1', 'a')}),\n"
            "    (('1',), ('a',), {(1, 'a'), ('0', 'a'), ('1', 'a')}),\n"
            "    (('1',), ('a',), {(1, 'x'), ('1', 'x')}),\n"
            "]\n"
            "for domain, codomain, pairs in cases:\n"
            "    try:\n"
            "        Relation(domain, codomain, frozenset(pairs))\n"
            "    except DomainError as err:\n"
            "        print(err)\n"
        )
        src = str(Path(symcret.__file__).resolve().parent.parent)
        outputs = {
            subprocess.run(
                [sys.executable, "-c", code], capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src},
            ).stdout
            for seed in range(1, 7)
        }
        assert outputs == {
            "pair (1, zz) leaves the codomain\n"
            "pair (2, b) leaves the domain\n"
            "pair (0, a) leaves the domain\n"
            "pair (1, x) leaves the codomain\n"
        }


class TestRelationAlgebra:
    def test_compose_with_identity(self, fx):
        ident = Relation.identity(fx.relation.codomain)
        assert compose(fx.relation, ident) == fx.relation

    def test_self_composition_through_inverse(self, fx):
        # Independent oracle: brute-force the composition pairs.
        expected = frozenset(
            (x, y)
            for x, q in fx.relation.pairs
            for y, q2 in fx.relation.pairs
            if q == q2
        )
        inverse = Relation(fx.relation.codomain, fx.relation.domain,
                           frozenset((q, x) for x, q in fx.relation.pairs))
        got = compose(fx.relation, inverse)
        assert got.pairs == expected
        assert expected == frozenset((x, x) for x in fx.s1.states)

    def test_domain_mismatch(self, fx):
        with pytest.raises(DomainError):
            compose(fx.relation, fx.relation)


class TestCheckers:
    def test_fig5_asr_holds(self, fx):
        assert check_asr(fx.s1, fx.s2, fx.relation).holds

    def test_extended_asr_holds(self, fx):
        assert check_asr(fx.s1, fx.s2_extended, fx.relation).holds

    def test_identity_reflexive(self, fx):
        ident = Relation.identity(fx.s1.states)
        assert check_asr(fx.s1, fx.s1, ident).holds
        assert check_mcr(fx.s1, fx.s1, ident).holds
        assert check_frr(fx.s1, fx.s1, ident).holds

    def test_fig5_mcr_refuted_with_minimal_witness(self, fx):
        verdict = check_mcr(fx.s1, fx.s2, fx.relation)
        assert not verdict.holds
        w = verdict.witness
        assert (w.x1, w.x2, w.u2) == ("1", "a", ALPHA)
        assert w.evidence == ("2", "c")

    def test_extended_mcr_holds(self, fx):
        assert check_mcr(fx.s1, fx.s2_extended, fx.relation).holds

    def test_non_strict_rejected_by_default(self, fx):
        partial = Relation(
            fx.s1.states, fx.s2.states, fx.relation.pairs - {("3", "d")}
        )
        with pytest.raises(StrictnessError):
            check_mcr(fx.s1, fx.s2, partial)
        with pytest.raises(StrictnessError):
            check_frr(fx.s1, fx.s2, partial)

    def test_fig5_frr_fails_on_input_alphabets(self, fx):
        verdict = check_frr(fx.s1, fx.s2, fx.relation)
        assert not verdict.holds
        w = verdict.witness
        assert (w.x1, w.x2, w.u2) == ("1", "a", ALPHA)
        assert w.evidence is None

    def test_relation_must_match_systems(self, fx):
        rel = Relation(("1", "2"), fx.s2.states, frozenset({("1", "a")}))
        with pytest.raises(DomainError):
            check_asr(fx.s1, fx.s2, rel)

    @pytest.mark.parametrize("domain", [("1", "2"), ("1", "2", "3", "4", "5", "6")])
    def test_every_entry_point_validates_the_triplet(self, fx, domain):
        pairs = frozenset(p for p in fx.relation.pairs if p[0] in domain)
        rel = Relation(domain, fx.s2.states, pairs)
        iface = maximal_interface(fx.s1, fx.s2, fx.relation, RelationKind.ASR)
        witness = RelationWitness("1", "a", ALPHA, ("2", "c"))
        with pytest.raises(DomainError):
            replay_witness(RelationKind.MCR, fx.s1, fx.s2, rel, witness)
        with pytest.raises(DomainError):
            validate_interface(fx.s1, fx.s2, rel, iface)
        for kind in RelationKind:
            with pytest.raises(DomainError):
                maximal_interface(fx.s1, fx.s2, rel, kind)
            with pytest.raises(DomainError):
                extended_relation(kind, fx.s1, fx.s2, rel)
        with pytest.raises(DomainError):
            mcr_extension(fx.s1, fx.s2, rel)

    def test_blocking_concrete_state_refutes_without_evidence(self):
        s1 = FiniteTransitionSystem(("x",), ("u",), {})
        s2 = FiniteTransitionSystem(("q",), ("u",), {("q", "u"): {"q"}})
        rel = Relation(s1.states, s2.states, frozenset({("x", "q")}))
        for kind in RelationKind:
            verdict = check_relation(kind, s1, s2, rel)
            assert verdict == RelationVerdict(False, RelationWitness("x", "q", "u"))
            assert replay_witness(kind, s1, s2, rel, verdict.witness)


class TestWitnessReplay:
    def test_fig5_mcr_witness_replays(self, fx):
        verdict = check_mcr(fx.s1, fx.s2, fx.relation)
        assert replay_witness(RelationKind.MCR, fx.s1, fx.s2, fx.relation, verdict.witness)

    def test_fig5_frr_witness_replays(self, fx):
        verdict = check_frr(fx.s1, fx.s2, fx.relation)
        assert replay_witness(RelationKind.FRR, fx.s1, fx.s2, fx.relation, verdict.witness)

    def test_replay_does_not_trust_the_walk(self, fx, monkeypatch):
        # A walk that finds no admissible input anywhere makes ASR refute
        # fig5, which does stand in ASR; the replay reads the definition and
        # finds the input the walk missed.
        real_walk = symcret.relations._walk

        def blind_walk(*args, **kwargs):
            for x1, x2, u2, _, post in real_walk(*args, **kwargs):
                yield x1, x2, u2, [], post

        monkeypatch.setattr(symcret.relations, "_walk", blind_walk)
        verdict = check_asr(fx.s1, fx.s2, fx.relation)
        assert not verdict.holds
        assert not replay_witness(RelationKind.ASR, fx.s1, fx.s2, fx.relation, verdict.witness)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_random_refutations_replay(self, seed):
        rng = seeded_rng(seed)
        s1 = random_system(rng, rng.randint(2, 4), rng.randint(1, 2))
        rel = random_strict_relation(rng, s1.states, ["q0", "q1"])
        s2 = random_system(rng, 2, 2, state_prefix="q", input_prefix="v")
        rel = Relation(rel.domain, s2.states, rel.pairs)
        for checker, kind in (
            (check_asr, RelationKind.ASR),
            (check_mcr, RelationKind.MCR),
            (check_frr, RelationKind.FRR),
        ):
            verdict = checker(s1, s2, rel)
            if not verdict.holds:
                assert replay_witness(kind, s1, s2, rel, verdict.witness)


class TestInterfaces:
    def test_fig5_maximal_interface_exact_on_overlap_keys(self, fx):
        iface = maximal_interface(fx.s1, fx.s2, fx.relation, RelationKind.ASR)
        assert iface.inputs_for("1", "a", ALPHA) == frozenset({"0"})
        assert iface.inputs_for("2", "b", ALPHA) == frozenset({"0"})
        assert iface.inputs_for("2", "c", ALPHA) == frozenset({"1"})
        assert iface.inputs_for("1", "a", BETA) == frozenset({"1"})
        validate_interface(fx.s1, fx.s2, fx.relation, iface)

    def test_frr_interface_is_input_identity(self, fx):
        ident = Relation.identity(fx.s1.states)
        iface = maximal_interface(fx.s1, fx.s1, ident, RelationKind.FRR)
        for (x1, x2, u2), us in iface.table.items():
            assert x1 == x2 and us == frozenset({u2})

    def test_identity_mcr_interface_contains_own_input(self, fx):
        ident = Relation.identity(fx.s1.states)
        iface = maximal_interface(fx.s1, fx.s1, ident, RelationKind.MCR)
        for x in fx.s1.states:
            for u in fx.s1.available_inputs(x):
                assert u in iface.inputs_for(x, x, u)

    def test_failed_check_raises_with_verdict(self, fx):
        with pytest.raises(RelationCheckError) as err:
            maximal_interface(fx.s1, fx.s2, fx.relation, RelationKind.MCR)
        w = err.value.verdict.witness
        assert (w.x1, w.x2, w.u2) == ("1", "a", ALPHA)

    def test_empty_entry_rejected(self):
        with pytest.raises(ContractError):
            Interface(RelationKind.ASR, {("x", "q", "u"): frozenset()})

    def test_empty_entry_with_a_number_name_is_named(self):
        # Names are written with str, as Relation writes its int names.
        with pytest.raises(ContractError) as caught:
            Interface(RelationKind.MCR, {("x", "q", "u"): ["u"], (1, "a", "b"): frozenset()})
        assert type(caught.value) is ContractError
        assert str(caught.value) == "interface entry (1, a, b) is empty"

    def test_tampered_interface_detected(self, fx):
        iface = maximal_interface(fx.s1, fx.s2, fx.relation, RelationKind.ASR)
        table = dict(iface.table)
        table[("1", "a", ALPHA)] = frozenset({"1"})  # wrong side of the fork
        with pytest.raises(ContractError):
            validate_interface(fx.s1, fx.s2, fx.relation, Interface(RelationKind.ASR, table))

    def test_least_offender_named(self):
        # u1 and u2 both lead x out of q's row; only u3 keeps it there.
        s1 = FiniteTransitionSystem(
            ("x", "y"), ("u1", "u2", "u3"),
            {("x", "u1"): {"y"}, ("x", "u2"): {"y"}, ("x", "u3"): {"x"}},
        )
        s2 = FiniteTransitionSystem(("q", "r"), ("v",), {("q", "v"): {"q"}})
        rel = Relation(s1.states, s2.states, frozenset({("x", "q"), ("y", "r")}))
        for entry, message in (
            ({"u1", "u2"}, r"^interface entry \(x, q, v\) -> u1 violates the asr condition$"),
            ({"u2", "u3", "u9"}, r"-> u2 violates"),
            ({"u0", "u1"}, r"^interface offers unavailable input u0 at \(x, q, v\)$"),
        ):
            iface = Interface(RelationKind.ASR, {("x", "q", "v"): frozenset(entry)})
            with pytest.raises(ContractError, match=message):
                validate_interface(s1, s2, rel, iface)

    def test_extended_relation_tuples(self, fx):
        ext = extended_relation(RelationKind.ASR, fx.s1, fx.s2, fx.relation)
        assert ("1", "a", "0", ALPHA) in ext.tuples
        assert ("1", "a", "1", ALPHA) not in ext.tuples


class TestExtension:
    def test_fig5_extension_exact(self, fx):
        # The bundle states the extension; it must be the one derived.
        extended = mcr_extension(fx.s1, fx.s2, fx.relation)
        assert extended == fx.s2_extended
        assert extended.successors("a", ALPHA) == frozenset({"b", "c"})
        unchanged = [key for key in fx.s2.trans if key != ("a", ALPHA)]
        assert all(extended.trans[key] == fx.s2.trans[key] for key in unchanged)

    def test_fig5_extension_postconditions(self, fx):
        assert check_mcr(fx.s1, fx.s2_extended, fx.relation).holds
        assert check_mcr(fx.s2, fx.s2_extended, Relation.identity(fx.s2.states)).holds

    @pytest.mark.parametrize("fault, message", [
        ("drop a grown successor", "extension postcondition failed against the concrete system"),
        ("make an input available",
         "extension postcondition failed against the original abstraction"),
    ])
    def test_postconditions_read_the_constructed_system(self, fx, monkeypatch, fault, message):
        # The certificate is checked against the system the unchecked
        # constructor entry hands back, not against the rows the walk grew.
        # (a, α) grows by c; γ is unavailable at a in S2.
        trusted = FiniteTransitionSystem._trusted

        def faulty(states, inputs, table, empty):
            if fault == "drop a grown successor":
                table = {**table, ("a", ALPHA): table[("a", ALPHA)] - {"c"}}
            else:
                table = {**table, ("a", GAMMA): frozenset({"a"})}
            return trusted(states, inputs, table, empty)

        assert fx.s2_extended.successors("a", ALPHA) - fx.s2.successors("a", ALPHA) == {"c"}
        assert GAMMA not in fx.s2.available_inputs("a")
        monkeypatch.setattr(FiniteTransitionSystem, "_trusted", faulty)
        with pytest.raises(SymcretError) as caught:
            mcr_extension(fx.s1, fx.s2, fx.relation)
        assert type(caught.value) is SymcretError and str(caught.value) == message

    def test_extension_keeps_one_object_per_name(self):
        # A relation whose codomain holds other objects for S2's names grows
        # the rows by those objects; the extension must still hold S2's own.
        s1, s2, rel = overlapping_line(40, 3)
        other = tuple("".join(list(q)) for q in s2.states)
        assert all(a == b and a is not b for a, b in zip(other, s2.states))
        for codomain in (s2.states, other):
            pairs = {(x, other[s2.states.index(q)] if codomain is other else q)
                     for x, q in rel.pairs}
            extended = mcr_extension(s1, s2, Relation(s1.states, codomain, pairs))
            assert extended.trans != s2.trans
            names = dict(zip(s2.states, s2.states))
            assert all(x is names[x] for x, _ in extended.trans)
            assert all(y is names[y] for row in extended.trans.values() for y in row)

    def test_extension_holds_both_relations_on_seeded_instances(self):
        # Both memoryless relations, walked in full, on every strict
        # instance of the walk seeds where alternating simulation holds.
        held = 0
        for seed in range(600):
            s1, s2, rel = walk_instance(seed)
            if not rel.is_strict() or not check_asr(s1, s2, rel).holds:
                continue
            extended = mcr_extension(s1, s2, rel)
            assert check_mcr(s1, extended, rel).holds
            assert check_mcr(s2, extended, Relation.identity(s2.states)).holds
            held += 1
        assert held >= 100, held

    def test_extension_requires_asr(self):
        s1 = FiniteTransitionSystem(("x",), ("u",), {("x", "u"): {"x"}})
        s2 = FiniteTransitionSystem(("q", "r"), ("v",), {("q", "v"): {"r"}, ("r", "v"): {"r"}})
        rel = Relation(s1.states, s2.states, frozenset({("x", "q")}))
        # Abstract input v at q forces a move to r, but x only loops outside r's cell.
        with pytest.raises(RelationCheckError):
            mcr_extension(s1, s2, rel)

    def test_extension_requires_strict(self, fx):
        partial = Relation(fx.s1.states, fx.s2.states, fx.relation.pairs - {("3", "d")})
        with pytest.raises(StrictnessError):
            mcr_extension(fx.s1, fx.s2, partial)

    def test_extension_of_already_compliant_pair_only_grows(self):
        # Two states funnelling into an overlap cell: the check already
        # passes, and the completion may only add successors, never remove.
        s1 = FiniteTransitionSystem(
            ("x0", "x1"), ("u",), {("x0", "u"): {"x1"}, ("x1", "u"): {"x1"}}
        )
        s2 = FiniteTransitionSystem(
            ("qa", "qb"), ("u",),
            {("qa", "u"): {"qa", "qb"}, ("qb", "u"): {"qa", "qb"}},
        )
        rel = Relation(
            s1.states, s2.states,
            frozenset({("x0", "qa"), ("x1", "qa"), ("x1", "qb")}),
        )
        assert check_mcr(s1, s2, rel).holds
        extended = mcr_extension(s1, s2, rel)
        assert all(s2.trans[key] <= extended.trans[key] for key in s2.trans)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_extension_only_grows_rows(self, seed):
        rng = seeded_rng(seed)
        s1 = random_system(rng, rng.randint(2, 4), rng.randint(1, 2), fully_available=True)
        rel = random_strict_relation(rng, s1.states, ["q0", "q1", "q2"])
        s2 = induced_abstraction(s1, rel)
        if not check_asr(s1, s2, rel).holds:
            return
        extended = mcr_extension(s1, s2, rel)
        assert all(s2.trans[key] <= extended.trans[key] for key in s2.trans)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_partition_extension_adds_nothing(self, seed):
        rng = seeded_rng(seed)
        s1 = random_system(rng, 4, 2, fully_available=True)
        rel = random_strict_relation(rng, s1.states, ["q0", "q1"], overlap=0.0)
        s2 = induced_abstraction(s1, rel)
        assert rel.is_single_valued()
        if check_asr(s1, s2, rel).holds:
            assert mcr_extension(s1, s2, rel).trans == s2.trans


class TestTranslateSpec:
    def test_fig5_translation(self, fx):
        got = translate_spec(fx.spec1, fx.relation)
        assert got == ReachAvoidSpec(frozenset({"a"}), frozenset({"f"}), frozenset({"d"}))

    def test_full_target_maps_to_everything_but_obstacles(self, fx):
        spec = ReachAvoidSpec(frozenset({"1"}), frozenset(fx.s1.states), frozenset({"3"}))
        got = translate_spec(spec, fx.relation)
        assert got.target == frozenset(fx.s2.states) - got.obstacle

    def test_straddling_cell_excluded_from_target(self):
        # x1 sits in both cells; only the cell fully inside the target stays.
        rel = Relation(
            ("x0", "x1"), ("qa", "qb"),
            frozenset({("x0", "qa"), ("x1", "qa"), ("x1", "qb")}),
        )
        spec = ReachAvoidSpec(frozenset({"x0"}), frozenset({"x1"}), frozenset())
        got = translate_spec(spec, rel)
        assert got.target == frozenset({"qb"})

    def test_empty_target_warns(self):
        rel = Relation(("x0", "x1"), ("qa",), frozenset({("x0", "qa"), ("x1", "qa")}))
        spec = ReachAvoidSpec(frozenset({"x0"}), frozenset({"x1"}), frozenset())
        with pytest.warns(UserWarning):
            got = translate_spec(spec, rel)
        assert got.target == frozenset()

    def test_needs_strict(self):
        rel = Relation(("x0", "x1"), ("qa",), frozenset({("x0", "qa")}))
        with pytest.raises(StrictnessError):
            translate_spec(ReachAvoidSpec(frozenset(), frozenset(), frozenset()), rel)


class TestKernelAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_every_operation_matches(self, seed):
        s1, s2, rel = relation_instance(seed)
        assert_walk_matches_references(s1, s2, rel, seeded_rng(0))
        for kind, checker in (
            (RelationKind.ASR, check_asr),
            (RelationKind.MCR, check_mcr),
            (RelationKind.FRR, check_frr),
        ):
            assert outcome(checker, s1, s2, rel) == outcome(check_relation, kind, s1, s2, rel)
            # Perturbed witnesses: every triple (related or not, any input)
            # with no evidence and with every shifted evidence pair, which
            # includes FRR witnesses whose u2 is unavailable at x1.
            evidences = [None] + [(a, b) for a in s1.states for b in s2.states]
            for x1 in s1.states:
                for x2 in s2.states:
                    for u2 in s2.inputs:
                        for evidence in evidences:
                            w = RelationWitness(x1, x2, u2, evidence)
                            assert replay_witness(kind, s1, s2, rel, w) == (
                                reference_replay_witness(kind, s1, s2, rel, w))


class TestWalkAgainstReference:
    @pytest.mark.parametrize("block", range(4))
    def test_seeded_instances_match(self, block):
        seen = dict.fromkeys(walk_classes(0), 0)
        for seed in range(150 * block, 150 * (block + 1)):
            assert_walk_matches_references(*walk_instance(seed), seeded_rng(-seed))
            for name, hit in walk_classes(seed).items():
                seen[name] += hit
        assert all(seen.values()), seen

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_drawn_seeds_match(self, seed):
        assert_walk_matches_references(*walk_instance(seed), seeded_rng(seed))

    def test_overlapping_line_matches(self):
        # A few hundred cells in the shape of the paper's repair problem.
        s1, s2, rel = overlapping_line(300, 1)
        assert check_asr(s1, s2, rel).holds
        verdict = check_mcr(s1, s2, rel)
        assert not verdict.holds and verdict.witness.evidence is not None
        assert verdict == reference_check(RelationKind.MCR, s1, s2, rel)
        assert replay_witness(RelationKind.MCR, s1, s2, rel, verdict.witness)
        assert maximal_interface(s1, s2, rel, RelationKind.ASR) == (
            reference_maximal_interface(s1, s2, rel, RelationKind.ASR))
        extended = mcr_extension(s1, s2, rel)
        assert extended == reference_mcr_extension(s1, s2, rel)
        assert maximal_interface(s1, extended, rel, RelationKind.MCR) == (
            reference_maximal_interface(s1, extended, rel, RelationKind.MCR))

    def test_check_stops_at_the_first_admissible_input(self):
        # Inputs a and b both implement v at x.  The check tests the image of
        # a's successor y only; the interface tests b's successor z as well.
        tested = []

        class Image(frozenset):
            def isdisjoint(self, row):
                tested.append(self.state)
                return super().isdisjoint(row)

        s1 = FiniteTransitionSystem(
            ("x", "y", "z"), ("a", "b"), {("x", "a"): {"y"}, ("x", "b"): {"z"}})
        s2 = FiniteTransitionSystem(("p", "q", "r"), ("v",), {("q", "v"): {"p", "r"}})
        rel = Relation(s1.states, s2.states, frozenset({("x", "q"), ("y", "p"), ("z", "r")}))
        images = {x: Image(cells) for x, cells in rel._fwd.items()}
        for x, image in images.items():
            image.state = x
        object.__setattr__(rel, "_fwd", images)
        assert check_asr(s1, s2, rel).holds
        assert tested == ["y"]
        tested.clear()
        assert maximal_interface(s1, s2, rel, RelationKind.ASR).table == {
            ("x", "q", "v"): frozenset({"a", "b"})}
        assert tested == ["y", "z"]


class TestRelationLaws:
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_mcr_implies_asr(self, seed):
        rng = seeded_rng(seed)
        s1, rel = small_instance(rng, "overlap")
        s2 = random_system(rng, len(rel.codomain), 2, state_prefix="q", input_prefix="v")
        if check_mcr(s1, s2, rel).holds:
            assert check_asr(s1, s2, rel).holds

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_partition_collapses_the_two_checks(self, seed):
        rng = seeded_rng(seed)
        s1, rel = small_instance(rng, "partition")
        s2 = random_system(rng, len(rel.codomain), 2, state_prefix="q", input_prefix="v")
        assert rel.is_single_valued()
        assert check_asr(s1, s2, rel).holds == check_mcr(s1, s2, rel).holds

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_frr_implies_mcr(self, seed):
        rng = seeded_rng(seed)
        s1 = random_system(rng, rng.randint(2, 4), 2, fully_available=True)
        rel = random_strict_relation(rng, s1.states, ["q0", "q1"])
        s2 = induced_abstraction(s1, rel)
        if check_frr(s1, s2, rel).holds:
            assert check_mcr(s1, s2, rel).holds

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_transitivity_along_composition(self, seed):
        rng = seeded_rng(seed)
        s1 = random_system(rng, rng.randint(2, 4), rng.randint(1, 2), fully_available=True)
        rel = random_strict_relation(rng, s1.states, ["q0", "q1", "q2"])
        s2 = induced_abstraction(s1, rel)
        assert check_mcr(s1, s2, rel).holds
        s3, q_rel = availability_quotient(rng, s2)
        assert check_mcr(s2, s3, q_rel).holds
        assert check_mcr(s1, s3, compose(rel, q_rel)).holds
