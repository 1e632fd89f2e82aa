"""The table constructors against the ones they replaced.

``FiniteTransitionSystem`` and ``Relation`` make one pass over their input:
each name is checked once, by a lookup in the sorted carrier, and the
carrier's own object is stored, so that a name is one object wherever a
table holds it.  ``Interface`` builds its table without copying its input
first.  The constructors before that change copied their input and checked
it in several passes; they are kept here as ``reference_*``.  On seeded
inputs the fields must be equal, and an error must match in class and
message.

The tables also keep one object per distinct value, transition rows
included; a pooled row may iterate in another order than the set it was
built from, and no result may show it.  The system decoder reads a valid
document in one pass; a malformed one must raise what the two-pass decoder
raised.
"""
import copy
import json
from fractions import Fraction

import pytest

from symcret import (
    AbstractInput, AffineMap, CellCover, Controller, FiniteTransitionSystem, Interface,
    IntervalCell, Relation, ReachAvoidSpec, RelationKind, build_abstraction, check_asr,
    check_controlled_simulability, check_frr, check_mcr, check_memoryless_concretization,
    check_spec, closed_loop_run, jsonio, maximal_interface, mcr_extension, memoryless_controller,
    synthesize_reach_avoid, translate_spec, winning_region,
)
from symcret.core import ContractError, DomainError
from symcret.jsonio import FormatError, ProjectBundle

from conftest import (
    fig5,
    fresh,
    induced_abstraction,
    outcome,
    overlapping_line,
    random_strict_relation,
    random_system,
    seeded_rng,
)


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


def shared_tables(s1, s2, rel, spec):
    """The values of every table that keeps one object per distinct value,
    built by the line_plant pipeline on the triplet and its concrete goal."""
    s2x = mcr_extension(s1, s2, rel)
    interface = maximal_interface(s1, s2x, rel, RelationKind.MCR)
    c2 = synthesize_reach_avoid(s2x, translate_spec(spec, rel)).controller
    c1 = memoryless_controller(c2, rel, interface)
    return {
        "S1 rows": list(s1.trans.values()),
        "S2 rows": list(s2.trans.values()),
        "extension rows": list(s2x.trans.values()),
        "S1 availability": list(s1._avail.values()),
        "S2 availability": list(s2._avail.values()),
        "extension availability": list(s2x._avail.values()),
        "relation images": list(rel._fwd.values()),
        "interface": list(interface.table.values()),
        "abstract controller": list(c2.choices.values()),
        "concretized controller": list(c1.choices.values()),
    }


def one_object_per_value(values):
    return len({id(value) for value in values}) == len(set(values))


def decoded(s1, s2, rel, spec):
    """The triplet and goal after a JSON round trip, on the decoder's objects."""
    bundle = ProjectBundle(systems={"S1": s1, "S2": s2}, relations={"R": ("S1", "S2", rel)},
                           specs={"spec": ("S1", spec)})
    loaded = jsonio.bundle_from_obj(json.loads(jsonio.dumps(jsonio.bundle_to_obj(bundle))))
    return (loaded.systems["S1"], loaded.systems["S2"], loaded.relations["R"][2],
            loaded.specs["spec"][1])


def fig5_case():
    fx = fig5()
    return fx.s1, fx.s2, fx.relation, fx.spec1


def line_case():
    s1, s2, rel = overlapping_line(300, 1)
    return s1, s2, rel, ReachAvoidSpec(frozenset(), frozenset(s1.states[:50]), frozenset())


@pytest.mark.parametrize("case", [fig5_case, line_case], ids=["fig5", "line"])
@pytest.mark.parametrize("load", [lambda *built: built, decoded], ids=["built", "decoded"])
def test_tables_keep_one_object_per_distinct_value(case, load):
    tables = shared_tables(*load(*case()))
    for name, values in tables.items():
        assert one_object_per_value(values), name
    if case is line_case:
        # Where values repeat, they are shared: 1,500 states, few distinct sets.
        for name in ("S1 availability", "interface", "concretized controller"):
            assert len({id(value) for value in tables[name]}) < len(tables[name]) // 10, name
        # Neighbouring states move alike: 2,885 objects for S1's 4,500 rows, 442 for S2's 900.
        for name in ("S1 rows", "S2 rows", "extension rows"):
            assert len({id(value) for value in tables[name]}) < len(tables[name]), name


def test_built_abstraction_keeps_one_object_per_distinct_row():
    # Halving sends two cells into one, and a unit step lands where a halving does.
    cells, availability = [("z", IntervalCell.point(0))], {"z": ["halve"]}
    for i in range(1, 21):
        cells += [(f"n{i:02d}", IntervalCell(-i, 1 - i, True, False)),
                  (f"p{i:02d}", IntervalCell(i - 1, i, False, True))]
        availability.update({f"n{i:02d}": ["halve", "right"], f"p{i:02d}": ["halve", "left"]})
    laws = (AbstractInput("halve", AffineMap(Fraction(-1, 2), 0)),
            AbstractInput("left", AffineMap(0, -1)), AbstractInput("right", AffineMap(0, 1)))
    rows = list(build_abstraction(CellCover(cells), laws, availability).trans.values())
    assert one_object_per_value(rows)
    assert len({id(row) for row in rows}) < len(rows)


def test_no_value_is_kept_across_calls():
    # Each pool lives for one call: two builds of equal tables share no value.
    first, second = shared_tables(*line_case()), shared_tables(*line_case())
    for name in first:
        assert first[name] == second[name], name
        assert not {id(v) for v in first[name]} & {id(v) for v in second[name]}, name


def with_history(rng, row, states):
    """A set equal to ``row`` with an insertion history of its own: its
    members in a shuffled order, half the time after other states that are
    then removed, which leaves it a larger table."""
    made = set(rng.sample(states, rng.randint(0, len(states))) if rng.random() < 0.5 else ())
    extra = made - row
    made.update(rng.sample(sorted(row), len(row)))
    made.difference_update(extra)
    return made


def history_case(seed):
    """A fully available plant whose rows are drawn from three successor
    sets, a strict relation onto 2-5 cells and the induced abstraction with
    cells dropped as in ``overlapping_line`` (ASR kept, MCR broken); every
    row is a set with its own insertion history."""
    rng = seeded_rng(seed)
    states = [f"x{i:02d}" for i in range(rng.randint(6, 16))]
    inputs = [f"u{j}" for j in range(rng.randint(1, 3))]
    cells = [f"q{k}" for k in range(rng.randint(2, 5))]
    palette = [set(rng.sample(states, rng.randint(1, 6))) for _ in range(3)]
    rows1 = {(x, u): with_history(rng, rng.choice(palette), states)
             for x in states for u in inputs}
    rel = random_strict_relation(rng, states, cells)
    induced = induced_abstraction(FiniteTransitionSystem(states, inputs, rows1), rel)
    rows2 = {}
    for (q, u), row in induced.trans.items():
        row = set(row)
        images = [rel.forward(t) for x in rel.inverse_map(q) for t in rows1[x, u]]
        for c in sorted(row):
            if rng.random() < 0.4 and all(img & (row - {c}) for img in images if c in img):
                row.discard(c)
        rows2[q, u] = with_history(rng, row, cells)
    target = frozenset(rng.sample(states, rng.randint(1, len(states) // 2)))
    obstacle = frozenset(rng.sample(states, 1)) - target
    spec = ReachAvoidSpec(frozenset(states) - obstacle, target, obstacle)
    return (states, inputs, rows1), (cells, inputs, rows2), rel, spec


def frozen_apart(states, inputs, rows):
    """The system of ``rows`` with each row frozen on its own, from an
    iterator as the constructor freezes it, so that only pooling can change
    a row's order."""
    table = {key: frozenset(iter(row)) for key, row in rows.items()}
    return FiniteTransitionSystem._trusted(tuple(sorted(states)), tuple(sorted(inputs)), table)


def ordered(ctrl):
    return [(x, list(us)) for x, us in ctrl.choices.items()]


def everything(s1, s2, rel, spec):
    """Every verdict, witness, order and text the library derives from the
    triplet and goal, with errors as their class and message.  Controllers
    are synthesized from every state; on the abstractions each is
    concretized through the maximal interface, and checked with it and with
    the plant's every input."""
    s2x, spec2 = mcr_extension(s1, s2, rel), translate_spec(spec, rel)
    every_input = Controller({x: s1.available_inputs(x) for x in s1.states})
    bundle = ProjectBundle(systems={"S1": s1, "S2": s2, "S2x": s2x},
                           relations={"R": ("S1", "S2", rel), "Rx": ("S1", "S2x", rel)},
                           specs={"spec": ("S1", spec)})
    got = {"extension rows": list(s2x.trans.items()),
           "texts": [jsonio.dumps(jsonio.bundle_to_obj(bundle))]}
    for name, sys, goal, kind in (("S1", s1, spec, None), ("S2", s2, spec2, RelationKind.ASR),
                                  ("S2x", s2x, spec2, RelationKind.MCR)):
        winning, rank = winning_region(sys, goal)
        whole = ReachAvoidSpec(frozenset(), goal.target, goal.obstacle)
        solved = synthesize_reach_avoid(sys, whole)
        got[name] = [outcome(check, s1, sys, rel) for check in (check_asr, check_mcr, check_frr)]
        got[name] += [outcome(check_spec, sys, goal), list(winning), list(rank.items()),
                      list(solved.winning), list(solved.rank.items()), ordered(solved.controller)]
        if kind is None:
            continue
        interface, c2 = maximal_interface(s1, sys, rel, kind), solved.controller
        c1 = memoryless_controller(c2, rel, interface)
        got[name] += [
            ordered(c1), outcome(check_memoryless_concretization, s1, sys, rel, interface, c2),
            *(outcome(check_controlled_simulability, s1, sys, rel, c, c2, 4)
              for c in (c1, every_input)),
            *(outcome(closed_loop_run, s1, c, x, 5) for c in (c1, every_input) for x in s1.states),
        ]
        got["texts"] += [jsonio.dumps(obj) for obj in (
            jsonio.interface_to_obj(interface), jsonio.controller_to_obj(c2),
            jsonio.controller_to_obj(c1))]
    return got


@pytest.mark.filterwarnings("ignore:translated target set is empty")
def test_pooled_rows_are_invisible(monkeypatch):
    """Pooled rows may iterate in another order than the rows they replace;
    no result may show it.  The reference freezes every row on its own, the
    extension's too (``_share`` held off in ``relations``)."""
    reordered = 0
    for seed in range(200):
        plant, abstraction, rel, spec = history_case(seed)
        s1, s2 = FiniteTransitionSystem(*plant), FiniteTransitionSystem(*abstraction)
        apart1, apart2 = frozen_apart(*plant), frozen_apart(*abstraction)
        assert (s1, s2) == (apart1, apart2), seed
        reordered += sum(list(s1.trans[key]) != list(row) for key, row in apart1.trans.items())
        reordered += sum(list(s2.trans[key]) != list(row) for key, row in apart2.trans.items())
        pooled = everything(s1, s2, rel, spec)
        with monkeypatch.context() as patch:
            patch.setattr("symcret.relations._share", list)
            assert everything(apart1, apart2, rel, spec) == pooled, seed
    # The rows pooled did change some orders, so the comparison saw them.
    assert reordered > 0


def test_decoded_system_equals_the_encoded_one():
    for seed in range(300):
        rng = seeded_rng(seed)
        sys = random_system(rng, rng.randint(1, 12), rng.randint(1, 4), state_prefix="st",
                            fully_available=rng.random() < 0.3, input_prefix="in")
        back = jsonio.system_from_obj(json.loads(json.dumps(jsonio.system_to_obj(sys))))
        assert back == sys and back._avail == sys._avail, seed
        names, labels = dict(zip(back.states, back.states)), dict(zip(back.inputs, back.inputs))
        assert all(x is names[x] and u is labels[u] for x, u in back.trans)
        assert all(y is names[y] for row in back.trans.values() for y in row)
        assert all(u is labels[u] for us in back._avail.values() for u in us)
        assert one_object_per_value(back._avail.values()), seed
        assert one_object_per_value(back.trans.values()), seed


def test_a_valid_system_document_takes_one_path(monkeypatch):
    doc = jsonio.system_to_obj(fig5().s1)
    checked = []
    monkeypatch.setattr(FiniteTransitionSystem, "__post_init__", checked.append)
    jsonio.system_from_obj(doc)
    assert checked == []


SYSTEM_DOC = {
    "format": "symcret/1", "kind": "system", "states": ["s0", "s1", "s2"],
    "inputs": ["go", "stay"],
    "trans": {"s0|go": ["s1"], "s0|stay": ["s0"], "s1|go": ["s2", "s0"], "s2|stay": ["s2"]},
}


def rows(**changed):
    return lambda doc: doc["trans"].update(changed)


def field(name, value):
    return lambda doc: doc.update({name: value})


def rekey(old, new):
    return lambda doc: doc.update(trans={new if key == old else key: succ
                                         for key, succ in doc["trans"].items()})


def both(first, second):
    return lambda doc: (first(doc), second(doc))


@pytest.mark.parametrize("edit, error, message", [
    pytest.param(rekey("s1|go", "s1go"), FormatError,
                 "transition key 's1go' lacks the '|' separator", id="missing-separator"),
    pytest.param(rows(**{"s0|go": "s1"}), FormatError,
                 'malformed system document (TypeError: expected an array of names, got "s1")',
                 id="string-row"),
    pytest.param(rows(**{"s0|go": 7}), FormatError,
                 "malformed system document (TypeError: expected an array of names, got 7)",
                 id="number-row"),
    pytest.param(rows(**{"s0|go": {"s1": 1}}), FormatError,
                 'malformed system document (TypeError: expected an array of names, '
                 'got {"s1": 1})', id="object-row"),
    pytest.param(rows(**{"s0|go": ("s1",)}), FormatError,
                 'malformed system document (TypeError: expected an array of names, '
                 'got ["s1"])', id="tuple-row"),
    pytest.param(rows(**{"s0|go": ["s1", 3]}), FormatError,
                 'malformed system document (TypeError: expected an array of names, '
                 'got ["s1", 3])', id="number-in-row"),
    pytest.param(rows(**{"s0|go": ["s1", ["s2"]]}), FormatError,
                 'malformed system document (TypeError: expected an array of names, '
                 'got ["s1", ["s2"]])', id="array-in-row"),
    pytest.param(rekey("s1|go", "zz|go"), DomainError,
                 "transition key uses unknown state 'zz'", id="unknown-state"),
    pytest.param(rekey("s1|go", "|go"), DomainError,
                 "transition key uses unknown state ''", id="empty-state"),
    pytest.param(rekey("s1|go", "s1|fly"), DomainError,
                 "transition key uses unknown input 'fly'", id="unknown-input"),
    pytest.param(rekey("s1|go", "s1|go|x"), DomainError,
                 "transition key uses unknown input 'go|x'", id="two-separators"),
    pytest.param(rows(**{"s1|go": ["s2", "zz", "s0", "yy"]}), DomainError,
                 "successors ['yy', 'zz'] of ('s1', 'go') are not states",
                 id="unknown-successors"),
    pytest.param(field("states", "s0"), FormatError,
                 'malformed system document (TypeError: expected an array of names, got "s0")',
                 id="states-a-string"),
    pytest.param(field("states", ["s0", 1, "s2"]), FormatError,
                 'malformed system document (TypeError: expected an array of names, '
                 'got ["s0", 1, "s2"])', id="states-with-a-number"),
    pytest.param(field("inputs", [["go"], "stay"]), FormatError,
                 'malformed system document (TypeError: expected an array of names, '
                 'got [["go"], "stay"])', id="inputs-nested"),
    pytest.param(lambda doc: doc.pop("states"), FormatError,
                 "malformed system document (KeyError: 'states')", id="states-missing"),
    pytest.param(both(field("trans", {}), field("inputs", "go")), FormatError,
                 'malformed system document (TypeError: expected an array of names, got "go")',
                 id="no-rows-and-inputs-a-string"),
    pytest.param(field("trans", 7), FormatError,
                 "malformed system document (AttributeError: 'int' object has no attribute "
                 "'items')", id="trans-a-number"),
    pytest.param(lambda doc: doc["trans"].update({1: ["s1"]}), FormatError,
                 "malformed system document (AttributeError: 'int' object has no attribute "
                 "'partition')", id="number-key"),
    pytest.param(both(rekey("s0|go", "zz|go"), rows(**{"s2|stay": "s2"})), FormatError,
                 'malformed system document (TypeError: expected an array of names, got "s2")',
                 id="domain-fault-then-string-row"),
    pytest.param(both(rows(**{"s0|go": ["zz"]}), rekey("s2|stay", "s2stay")), FormatError,
                 "transition key 's2stay' lacks the '|' separator",
                 id="domain-fault-then-missing-separator"),
    pytest.param(both(rekey("s0|go", "s0|fly"), field("states", "s0")), FormatError,
                 'malformed system document (TypeError: expected an array of names, got "s0")',
                 id="domain-fault-then-malformed-states"),
    pytest.param(lambda doc: doc["trans"].pop("s2|stay"), ContractError,
                 "system blocks at states ['s2']", id="blocking"),
])
def test_a_malformed_system_document_raises_what_two_passes_raised(edit, error, message):
    doc = copy.deepcopy(SYSTEM_DOC)
    edit(doc)
    with pytest.raises(error) as caught:
        jsonio.system_from_obj(doc)
    assert type(caught.value) is error and str(caught.value) == message
