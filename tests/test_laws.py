"""The paper's laws, checked on every instance up to a small size.

Every non-blocking S1 and S2 and every strict R at the scopes (n1, m1, n2, m2)
in ``SCOPES``: n states and the first m of the inputs ``u0``, ``u1``, shared
by both systems so that feedback refinement can hold.  Checking every
instance at a small size is stronger there than drawing instances (the
small-scope hypothesis; bounded-exhaustive generation as in Korat).
"""
import functools
import json
from collections import Counter
from itertools import combinations, product

import pytest

from symcret import (
    FiniteTransitionSystem,
    Relation,
    RelationKind,
    check_memoryless_concretization_all_controllers,
    check_mcr,
    check_relation,
    jsonio,
    maximal_interface,
    mcr_extension,
    replay_memoryless_witness,
    replay_witness,
)

from conftest import compose, induced_abstraction
from test_oracle import reference_all_controllers
from test_relations import reference_check, reference_mcr_extension

SCOPES = ((2, 2, 2, 1), (2, 1, 2, 2))
INPUTS = ("u0", "u1")

# The premises a law needs, each of which some instance must meet.
PREMISES = ("mcr", "asr without mcr", "single-valued with asr", "frr", "extension",
            "merging quotient")


def subsets(items, least=0):
    """Every subset of ``items`` with at least ``least`` members."""
    return [frozenset(c) for k in range(least, len(items) + 1) for c in combinations(items, k)]


def systems(n, m, prefix):
    """Every non-blocking system on n states and the first m inputs."""
    states, inputs = tuple(f"{prefix}{i}" for i in range(n)), INPUTS[:m]
    menus = [rows for rows in product(subsets(states), repeat=m) if any(rows)]
    for choice in product(menus, repeat=n):
        yield FiniteTransitionSystem(states, inputs, {
            (x, u): row for x, rows in zip(states, choice) for u, row in zip(inputs, rows) if row})


def strict_relations(domain, codomain):
    """Every relation that relates each state of ``domain`` to something."""
    for images in product(subsets(codomain, least=1), repeat=len(domain)):
        yield Relation(domain, codomain, {(x, q) for x, image in zip(domain, images) for q in image})


def availability_partitions(sys):
    """Every partition of the states of ``sys`` into blocks of equal available
    inputs, as the relation onto its blocks ``p0``, ``p1``, ..."""
    partitions = [[]]
    for x in sys.states:
        partitions = [
            blocks[:i] + [blocks[i] + [x]] + blocks[i + 1:]
            for blocks in partitions for i in range(len(blocks))
            if sys.available_inputs(blocks[i][0]) == sys.available_inputs(x)
        ] + [blocks + [[x]] for blocks in partitions]
    for blocks in partitions:
        labels = [f"p{i}" for i in range(len(blocks))]
        yield Relation(sys.states, labels, {(x, p) for p, block in zip(labels, blocks) for x in block})


def _instance(**parts):
    encode = {FiniteTransitionSystem: jsonio.system_to_obj, Relation: jsonio.relation_to_obj}
    return json.dumps({name: encode[type(part)](part) for name, part in parts.items()},
                      sort_keys=True)


# The enumeration meets few distinct carriers, extensions and relations, so
# these are built once per distinct value.  A relation is immutable and
# hashable; a system is keyed by its rows.
identity = functools.cache(Relation.identity)
compose_once = functools.cache(compose)


def quotients(sys):
    """(relation, quotient) for every partition of ``sys`` into blocks of
    equal available inputs and its induced quotient, each checked to stand in
    MCR with ``sys`` (the law ``quotient construction``)."""
    return _quotients(sys.states, sys.inputs, frozenset(sys.trans.items()))


@functools.cache
def _quotients(states, inputs, rows):
    sys = FiniteTransitionSystem(states, inputs, dict(rows))
    built = []
    for q_rel in availability_partitions(sys):
        quotient = induced_abstraction(sys, q_rel)
        if not check_mcr(sys, quotient, q_rel).holds:
            raise AssertionError(f"law 'quotient construction' failed on "
                                 f"{_instance(S2=sys, S3=quotient, R=q_rel)}")
        built.append((q_rel, quotient))
    return built


def assert_laws(s1, s2, rel):
    """Assert every law that applies to the instance and return the premises
    it met.  A failed law raises an AssertionError that names it and carries
    the instance as JSON."""

    def law(name, ok):
        if not ok:
            raise AssertionError(f"law {name!r} failed on {_instance(S1=s1, S2=s2, R=rel)}")

    ident = identity(s2.states)
    law("reflexivity", check_mcr(s1, s1, identity(s1.states)).holds
        and check_mcr(s2, s2, ident).holds)
    holds = {}
    for kind in RelationKind:
        verdict = check_relation(kind, s1, s2, rel)
        law(f"{kind.value} reference", verdict == reference_check(kind, s1, s2, rel))
        if not verdict.holds:
            law(f"{kind.value} witness replay", replay_witness(kind, s1, s2, rel, verdict.witness))
        holds[kind] = verdict.holds
    asr, mcr, frr = holds[RelationKind.ASR], holds[RelationKind.MCR], holds[RelationKind.FRR]
    single = rel.is_single_valued()
    law("frr implies mcr", mcr or not frr)
    law("mcr implies asr", asr or not mcr)
    if single:
        law("partition collapse", asr == mcr)
    met = {"frr"} if frr else set()
    if not asr:
        return met
    met |= {"mcr" if mcr else "asr without mcr", "extension"}
    if single:
        met.add("single-valued with asr")

    # The reference checks every total controller: sufficiency and necessity.
    iface = maximal_interface(s1, s2, rel, RelationKind.MCR if mcr else RelationKind.ASR)
    verdict = check_memoryless_concretization_all_controllers(s1, s2, rel, iface)
    law("two-all reference", verdict == reference_all_controllers(s1, s2, rel, iface))
    law("two-all iff mcr", verdict.holds == mcr)
    if not verdict.holds:
        law("memoryless witness replay", replay_memoryless_witness(
            s1, s2, rel, iface, verdict.witness_controller, verdict.witness))

    extended = mcr_extension(s1, s2, rel)
    law("extension mcr with s1", check_mcr(s1, extended, rel).holds)
    law("extension mcr with s2 along identity", check_mcr(s2, extended, ident).holds)
    law("extension inclusion", all(row <= extended.trans[key] for key, row in s2.trans.items()))
    law("extension availability", all(
        extended.available_inputs(x) == s2.available_inputs(x) for x in s2.states))
    if single:
        law("partition extension identity", extended.trans == s2.trans)
    law("extension reference", extended == reference_mcr_extension(s1, s2, rel))

    for q_rel, quotient in quotients(extended):
        law("transitivity", check_mcr(s1, quotient, compose_once(rel, q_rel)).holds)
        if len(q_rel.codomain) < len(extended.states):
            met.add("merging quotient")
    return met


@functools.cache
def tally(scope):
    """Run :func:`assert_laws` on every triple of ``scope`` and count the
    triples and the premises they met.  Cached, so that every test reading
    the tally shares one enumeration."""
    n1, m1, n2, m2 = scope
    counts = Counter()
    concretes, abstractions = list(systems(n1, m1, "x")), list(systems(n2, m2, "q"))
    relations = list(strict_relations(concretes[0].states, abstractions[0].states))
    for s1 in concretes:
        for rel in relations:
            for s2 in abstractions:
                counts.update(assert_laws(s1, s2, rel))
                counts["triples"] += 1
    return counts


@pytest.mark.parametrize("scope", SCOPES, ids=lambda scope: "-".join(map(str, scope)))
def test_every_law_holds_at_scope(scope):
    # 225 systems on two states and two inputs, 9 on one input, 9 strict
    # relations between two states each.
    assert tally(scope)["triples"] == 225 * 9 * 9


def test_every_premise_is_met():
    counts = sum(map(tally, SCOPES), Counter())
    assert counts["triples"] == 36_450
    assert all(counts[premise] > 0 for premise in PREMISES), counts
