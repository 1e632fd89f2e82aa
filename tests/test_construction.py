"""The table constructors against the ones they replaced.

``FiniteTransitionSystem`` and ``Relation`` make one pass over their input:
each name is checked once, by a lookup in the sorted carrier, and the
carrier's own object is stored, so that a name is one object wherever a
table holds it.  ``Interface`` builds its table without copying its input
first.  The constructors before that change copied their input and checked
it in several passes; they are kept here as ``reference_*``.  On seeded
inputs the fields must be equal, and an error must match in class and
message.
"""
import json

import pytest

from symcret import (
    FiniteTransitionSystem, Interface, Relation, RelationKind, jsonio, maximal_interface,
)
from symcret.core import ContractError, DomainError
from symcret.jsonio import ProjectBundle
from symcret.oracle import induced_abstraction, random_strict_relation, random_system

from conftest import seeded_rng


def reference_system(states, inputs, trans):
    """The former ``FiniteTransitionSystem.__post_init__``: its states,
    inputs, rows in table order and availability."""
    states = tuple(sorted(dict.fromkeys(states)))
    inputs = tuple(sorted(dict.fromkeys(inputs)))
    state_set = frozenset(states)
    input_set = frozenset(inputs)
    table = {}
    for (x, u), succ in dict(trans).items():
        if x not in state_set:
            raise DomainError(f"transition key uses unknown state {x!r}")
        if u not in input_set:
            raise DomainError(f"transition key uses unknown input {u!r}")
        succ = frozenset(succ)
        stray = succ - state_set
        if stray:
            raise DomainError(f"successors {sorted(stray)!r} of ({x!r}, {u!r}) are not states")
        table[(x, u)] = succ
    for x in states:
        for u in inputs:
            table.setdefault((x, u), frozenset())
    avail = {x: tuple(u for u in inputs if table[(x, u)]) for x in states}
    return states, inputs, list(table.items()), avail


def reference_relation(domain, codomain, pairs):
    """The former ``Relation.__post_init__``: its carriers, pairs and both
    views."""
    domain = tuple(sorted(dict.fromkeys(domain)))
    codomain = tuple(sorted(dict.fromkeys(codomain)))
    pairs = frozenset((a, b) for a, b in pairs)
    fwd = {a: set() for a in domain}
    inv = {b: set() for b in codomain}
    for a, b in pairs:
        if a not in fwd or b not in inv:
            a, b = min((p for p in pairs if p[0] not in fwd or p[1] not in inv),
                       key=lambda p: (str(p[0]), str(p[1]), repr(p)))
            side = "domain" if a not in fwd else "codomain"
            raise DomainError(f"pair ({a}, {b}) leaves the {side}")
        fwd[a].add(b)
        inv[b].add(a)
    return (domain, codomain, pairs, {a: frozenset(bs) for a, bs in fwd.items()},
            {b: frozenset(as_) for b, as_ in inv.items()})


def reference_interface(kind, table):
    """The former ``Interface.__post_init__``: its kind and table."""
    table = {k: frozenset(v) for k, v in dict(table).items()}
    for key, us in table.items():
        if not us:
            raise ContractError(f"interface entry ({', '.join(key)}) is empty")
    return kind, table


def system_fields(states, inputs, trans):
    sys = FiniteTransitionSystem(states, inputs, trans)
    names, labels = dict(zip(sys.states, sys.states)), dict(zip(sys.inputs, sys.inputs))
    assert all(y is names[y] for row in sys.trans.values() for y in row)
    assert all(x is names[x] and u is labels[u] for x, u in sys.trans)
    return sys.states, sys.inputs, list(sys.trans.items()), sys._avail


def relation_fields(domain, codomain, pairs):
    rel = Relation(domain, codomain, pairs)
    left, right = dict(zip(rel.domain, rel.domain)), dict(zip(rel.codomain, rel.codomain))
    assert all(a is left[a] and b is right[b] for a, b in rel.pairs)
    assert all(b is right[b] for image in rel._fwd.values() for b in image)
    return rel.domain, rel.codomain, rel.pairs, rel._fwd, rel._inv


def interface_fields(kind, table):
    interface = Interface(kind, table)
    return interface.kind, interface.table


def fields_or_error(build, make):
    """The fields ``build`` gives on a fresh copy of the arguments, or the
    class and message of the error it raises."""
    try:
        return "value", build(*make())
    except Exception as err:
        return "error", type(err), str(err)


STATES = [f"s{i}" for i in range(8)]
INPUTS = ["up", "down", "hold"]
# Names no carrier holds; the numbers are not coerced to the state "s1".
STRAYS = ["zz", "s9", 1, 7]


def fresh(name):
    """An equal string that is another object, as a decoder would make it."""
    return "".join(list(name)) if isinstance(name, str) else name


def carrier(rng, names):
    """``names`` shuffled, some twice, each occurrence its own object."""
    listed = [fresh(x) for x in names + rng.choices(names, k=rng.randint(0, 3))]
    rng.shuffle(listed)
    return listed


def system_case(seed):
    """Arguments of a 1-5-state system: rows as lists with repeats, sets,
    frozensets or tuples, some empty; a seventh of the cases get a stray
    successor, an unknown state or an unknown input somewhere."""
    rng = seeded_rng(seed)
    states = rng.sample(STATES, rng.randint(1, 5))
    inputs = rng.sample(INPUTS, rng.randint(1, 3))
    keys = [(x, u) for x in states for u in inputs if rng.random() < 0.7]
    rng.shuffle(keys)
    trans = {}
    for x, u in keys:
        succ = [fresh(y) for y in rng.choices(states, k=rng.randint(0, 3))]
        trans[(fresh(x), fresh(u))] = rng.choice((list, set, frozenset, tuple))(succ)
    fault = rng.randrange(21)
    if fault < 3 and trans:
        key = rng.choice(list(trans))
        trans[key] = [*trans[key], *rng.sample(STRAYS, rng.randint(1, 2))]
    elif fault == 3:
        trans[(rng.choice(STRAYS), inputs[0])] = [states[0]]
    elif fault == 4:
        trans[(states[0], rng.choice(["left", 2]))] = [states[0]]
    return carrier(rng, states), carrier(rng, inputs), trans


def relation_case(seed):
    """Arguments of a relation over 1-5 by 1-4 states, its pairs a frozenset
    of tuples, a list of lists or a one-shot map; a fifth of the cases get
    one to three stray pairs, some with number names, and some of those a
    pair of three names."""
    rng = seeded_rng(seed)
    domain = rng.sample(STATES, rng.randint(1, 5))
    codomain = rng.sample(["qa", "qb", "qc", "qd"], rng.randint(1, 4))
    pairs = [(fresh(a), fresh(b)) for a in domain for b in codomain if rng.random() < 0.4]
    if rng.random() < 0.2:
        for _ in range(rng.randint(1, 3)):
            a, b = rng.choice(domain + STRAYS), rng.choice(codomain + STRAYS)
            pairs.insert(rng.randint(0, len(pairs)), (a, b))
        if rng.random() < 0.2:
            pairs.insert(rng.randint(0, len(pairs)), (domain[0], codomain[0], "qx"))
    shape = rng.randrange(3)
    if shape == 0:
        pairs = frozenset(pairs)
    elif shape == 1:
        pairs = [list(p) for p in pairs]
    else:
        pairs = map(tuple, pairs)
    return carrier(rng, domain), carrier(rng, codomain), pairs


def interface_case(seed):
    """Arguments of an interface: entries as lists, sets or frozensets, and
    in a fifth of the cases an empty one."""
    rng = seeded_rng(seed)
    table = {}
    for _ in range(rng.randint(0, 6)):
        key = (rng.choice(STATES), rng.choice(["qa", "qb"]), rng.choice(INPUTS))
        us = rng.sample(INPUTS, rng.randint(1, 3))
        table[key] = rng.choice((list, set, frozenset))(us)
    if table and rng.random() < 0.2:
        table[rng.choice(list(table))] = rng.choice(([], set(), frozenset()))
    return rng.choice(list(RelationKind)), table


@pytest.mark.parametrize("build, reference, case, errors", [
    pytest.param(system_fields, reference_system, system_case,
                 {"successors", "transition key uses unknown state",
                  "transition key uses unknown input", "'<' not supported"}, id="system"),
    pytest.param(relation_fields, reference_relation, relation_case,
                 {"pair", "too many values"}, id="relation"),
    pytest.param(interface_fields, reference_interface, interface_case,
                 {"interface entry"}, id="interface"),
])
def test_constructor_matches_the_former_one(build, reference, case, errors):
    drawn = []
    for seed in range(1500):
        got = fields_or_error(build, lambda: case(seed))
        assert got == fields_or_error(reference, lambda: case(seed)), seed
        drawn.append(got[0] if got[0] == "value" else got[2])
    # Values and every kind of error are compared.
    assert drawn.count("value") > 1000
    assert all(any(message.startswith(error) for message in drawn) for error in errors)


def test_decoded_bundle_keeps_one_object_per_name():
    """After decoding, every transition key and successor, every relation
    pair and image, and every key and input of an interface built on the
    decoded objects is the carrier's own object.  The names have two or
    more characters: CPython keeps one object per one-character string, so
    such names would share objects whatever the decoder does."""
    rng = seeded_rng(19)
    s1 = random_system(rng, 12, 2, fully_available=True)
    rel = random_strict_relation(rng, s1.states, [f"q{i}" for i in range(4)])
    s2 = induced_abstraction(s1, rel)
    bundle = ProjectBundle(systems={"S1": s1, "S2": s2}, relations={"R": ("S1", "S2", rel)})
    text = jsonio.dumps(jsonio.bundle_to_obj(bundle))
    loaded = jsonio.bundle_from_obj(json.loads(text))
    s1, s2 = loaded.systems["S1"], loaded.systems["S2"]
    rel = loaded.relations["R"][2]
    assert all(len(name) >= 2 for sys in (s1, s2) for name in (*sys.states, *sys.inputs))

    def shared(names, carrier):
        one = dict(zip(carrier, carrier))
        return all(name is one[name] for name in names)

    for sys in (s1, s2):
        assert shared((x for x, _ in sys.trans), sys.states)
        assert shared((u for _, u in sys.trans), sys.inputs)
        assert shared((x for row in sys.trans.values() for x in row), sys.states)
        assert shared((u for us in sys._avail.values() for u in us), sys.inputs)
    assert shared((a for a, _ in rel.pairs), s1.states)
    assert shared((b for _, b in rel.pairs), s2.states)
    assert shared((q for x in s1.states for q in rel.forward(x)), s2.states)
    assert shared((x for q in s2.states for x in rel.inverse_map(q)), s1.states)
    interface = maximal_interface(s1, s2, rel, RelationKind.ASR)
    assert shared((x1 for x1, _, _ in interface.table), s1.states)
    assert shared((x2 for _, x2, _ in interface.table), s2.states)
    assert shared((u2 for _, _, u2 in interface.table), s2.inputs)
    assert shared((u1 for us in interface.table.values() for u1 in us), s1.inputs)
    assert jsonio.dumps(jsonio.bundle_to_obj(loaded)) == text
