import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

import pytest
from hypothesis import strategies as st

from symcret import (
    AbstractInput,
    AffineMap,
    BrokenCertificateError,
    CellCover,
    ContractError,
    Controller,
    DomainError,
    FiniteTransitionSystem,
    IntervalCell,
    ReachAvoidSpec,
    Relation,
    SymcretError,
    Trajectory,
    jsonio,
)
from symcret.cli import fig5_bundle

# The abstract inputs of the paper's fig5.
ALPHA, BETA, GAMMA = "α", "β", "γ"


@dataclass(frozen=True)
class Fig5:
    """The packaged fig5 bundle under the names the tests use: the plant S1,
    the abstraction S2 over the overlapping quantizer R (state 2 maps to
    both b and c), its extension S2x, the reach-avoid goals sigma1 and
    sigma2, the abstract controllers routing a -> b -> f and a -> e -> f, and
    a safe concrete controller."""

    s1: FiniteTransitionSystem
    s2: FiniteTransitionSystem
    s2_extended: FiniteTransitionSystem
    relation: Relation
    spec1: ReachAvoidSpec
    spec2: ReachAvoidSpec
    c2_via_b: Controller
    c2_via_e: Controller
    c1_safe: Controller


def fig5() -> Fig5:
    bundle = fig5_bundle()
    return Fig5(
        *(bundle.systems[name] for name in ("S1", "S2", "S2x")),
        bundle.relations["R"][2],
        *(bundle.specs[name][1] for name in ("sigma1", "sigma2")),
        *(bundle.controllers[name][1] for name in ("c2_via_b", "c2_via_e", "c1_safe")),
    )


@pytest.fixture(scope="session")
def fx():
    return fig5()


def compose(first: Relation, second: Relation) -> Relation:
    """Relational composition: (a, c) related iff some b links a to c."""
    if first.codomain != second.domain:
        raise DomainError("composition needs matching middle state sets")
    pairs = {(a, c) for a, b in first.pairs for c in second.forward(b)}
    return Relation(first.domain, second.codomain, pairs)


def _nonempty_subsets(items: tuple[str, ...]) -> list[frozenset[str]]:
    # Bitmask order: bit i stands for items[i]; the full set comes last.
    return [
        frozenset(items[i] for i in range(len(items)) if mask >> i & 1)
        for mask in range(1, 2 ** len(items))
    ]


def enumerate_controllers(
    sys: FiniteTransitionSystem, domain: Iterable[str]
) -> Iterator[Controller]:
    """Every controller over ``domain``, ``controller_count`` of them: states
    sorted, the last state varying fastest, each state's non-empty subsets
    of its available inputs in bitmask order.  A domain state with no
    available input admits no controller at all.  The reference for
    ``AllControllersVerdict.checked``."""
    dom = sorted(set(domain))
    for x in dom:
        sys.require_state(x)
    menus = [_nonempty_subsets(sys.available_inputs(x)) for x in dom]
    for combo in itertools.product(*menus):
        yield Controller(dict(zip(dom, combo)))


# Seeded instance generators: one seed, one instance.

def random_system(
    rng: random.Random,
    n_states: int,
    n_inputs: int,
    *,
    fully_available: bool = False,
    state_prefix: str = "x",
    input_prefix: str = "u",
) -> FiniteTransitionSystem:
    """Random non-blocking system.  With ``fully_available`` every input is
    available at every state, which the constructive generators below rely
    on."""
    states = [f"{state_prefix}{i}" for i in range(n_states)]
    inputs = [f"{input_prefix}{j}" for j in range(n_inputs)]
    trans: dict[tuple[str, str], frozenset[str]] = {}
    for x in states:
        live = list(inputs) if fully_available else [u for u in inputs if rng.random() < 0.7]
        if not live:
            live = [rng.choice(inputs)]
        for u in live:
            width = 1 if rng.random() < 0.6 else rng.randint(1, min(3, n_states))
            trans[(x, u)] = frozenset(rng.sample(states, width))
    return FiniteTransitionSystem(tuple(states), tuple(inputs), trans)


def random_strict_relation(
    rng: random.Random,
    concrete_states: Iterable[str],
    abstract_states: Iterable[str],
    *,
    overlap: float = 0.25,
) -> Relation:
    """Strict cover of the concrete states: one cell each, and with
    probability ``overlap`` membership in a second cell as well."""
    concrete = tuple(concrete_states)
    abstract = tuple(abstract_states)
    pairs = set()
    for x in concrete:
        pairs.add((x, rng.choice(abstract)))
        if rng.random() < overlap:
            pairs.add((x, rng.choice(abstract)))
    return Relation(concrete, abstract, frozenset(pairs))


def induced_abstraction(s1: FiniteTransitionSystem, rel: Relation) -> FiniteTransitionSystem:
    """Existential abstraction over the cells of ``rel`` with the concrete
    input alphabet.  When ``s1`` is fully available this is a memoryless
    concretization abstraction by construction.  Abstract states with empty
    cells get a self loop under the first input to stay non-blocking."""
    trans: dict[tuple[str, str], frozenset[str]] = {}
    for q in rel.codomain:
        cell = rel.inverse_map(q)
        if not cell:
            trans[(q, s1.inputs[0])] = frozenset({q})
            continue
        for u in s1.inputs:
            succ: set[str] = set()
            for x in cell:
                succ |= rel.image(s1.successors(x, u))
            if succ:
                trans[(q, u)] = frozenset(succ)
    return FiniteTransitionSystem(rel.codomain, s1.inputs, trans)


def perturb_abstraction(
    rng: random.Random, s2: FiniteTransitionSystem
) -> FiniteTransitionSystem:
    """Randomly drop successors (rows stay non-empty) and occasionally add
    some, to move instances around the strict/loose boundary."""
    trans: dict[tuple[str, str], frozenset[str]] = {}
    for (q, u), succ in s2.trans.items():
        if not succ:
            continue
        kept = set(succ)
        for target in sorted(succ):
            if len(kept) > 1 and rng.random() < 0.3:
                kept.discard(target)
        if rng.random() < 0.15:
            kept.add(rng.choice(s2.states))
        trans[(q, u)] = frozenset(kept)
    return FiniteTransitionSystem(s2.states, s2.inputs, trans)


def availability_quotient(
    rng: random.Random, s2: FiniteTransitionSystem
) -> tuple[FiniteTransitionSystem, Relation]:
    """Random partition quotient that only merges states with identical
    available-input sets; the quotient abstracts the original in the
    memoryless sense by construction.  Every cell is non-empty, so it is the
    induced abstraction of the partition."""
    groups: dict[frozenset[str], list[str]] = {}
    for q in s2.states:
        groups.setdefault(frozenset(s2.available_inputs(q)), []).append(q)
    assignment: dict[str, str] = {}
    counter = 0
    for _, members in sorted(groups.items(), key=lambda kv: sorted(kv[1])):
        buckets = rng.randint(1, len(members))
        labels = [f"p{counter + i}" for i in range(buckets)]
        counter += buckets
        for q in members:
            assignment[q] = rng.choice(labels)
    used = sorted(set(assignment.values()))
    rel = Relation(s2.states, used, frozenset(assignment.items()))
    return induced_abstraction(s2, rel), rel


def chain(n, loop_last=True):
    states = [f"s{i}" for i in range(n)]
    trans = {(states[i], "go"): {states[i + 1]} for i in range(n - 1)}
    if loop_last:
        trans[(states[-1], "go")] = {states[-1]}
    return FiniteTransitionSystem(tuple(states), ("go",), trans)


def cycle_product(lengths=(2, 3, 5, 7), start=None, hole=None):
    """A simulability instance whose shortest failure is long.  The plant
    runs s -> a, a -> {a, b}, b -> d, d -> d under one input; the abstraction
    is disjoint cycles of the given lengths.  R(s) is position ``start[i]``
    (default 1) of cycle i, R(a) = R(d) = every abstract state, and R(b)
    leaves out position ``hole[i]`` (default 0).  Both controllers allow every
    input, so the tracked set empties at b exactly when every cycle sits at
    its hole: the shortest failure is s a...a b with b at the least k >= 2
    such that start[i] + k = hole[i] modulo lengths[i] for every i, if there
    is one.  With the defaults k = 209, a 210-state run."""
    start = start or [1] * len(lengths)
    hole = hole or [0] * len(lengths)
    s1 = FiniteTransitionSystem(("a", "b", "d", "s"), ("u",), {
        ("s", "u"): {"a"}, ("a", "u"): {"a", "b"}, ("b", "u"): {"d"}, ("d", "u"): {"d"},
    })
    cycles = [[f"c{i}_{p}" for p in range(n)] for i, n in enumerate(lengths)]
    s2 = FiniteTransitionSystem(tuple(q for cyc in cycles for q in cyc), ("v",), {
        (cyc[p], "v"): {cyc[(p + 1) % len(cyc)]} for cyc in cycles for p in range(len(cyc))
    })
    pairs = {("s", cyc[start[i]]) for i, cyc in enumerate(cycles)}
    pairs |= {(x, q) for x in ("a", "d") for q in s2.states}
    pairs |= {("b", q) for i, cyc in enumerate(cycles) for p, q in enumerate(cyc) if p != hole[i]}
    rel = Relation(s1.states, s2.states, frozenset(pairs))
    c1 = Controller({x: {"u"} for x in s1.states})
    c2 = Controller({q: {"v"} for q in s2.states})
    return s1, s2, rel, c1, c2


def overlapping_line(n_cells, seed):
    """A line of five states per cell, in the shape of the paper's repair
    problem: alternating simulation holds, the memoryless condition fails.

    About half of the cells also own the first state of their right
    neighbour.  ``dn`` and ``up`` move six states (one more than a cell), and
    to a seventh half the time; ``hop`` jumps 9 to 11 states up with width 1
    to 3; moves stop at the ends.  The abstraction is the induced one with
    some cells dropped from each row: a cell goes, with probability 1/2,
    only when every concrete successor that quantizes to it keeps another
    cell of the row, so u1 = u2 still meets it (ASR), while the dropped
    quantization breaks containment (MCR)."""
    rng = seeded_rng(seed)
    n = 5 * n_cells
    states = [f"x{i:04d}" for i in range(n)]
    cells = [f"c{j:03d}" for j in range(n_cells)]
    pairs = {(states[i], cells[i // 5]) for i in range(n)}
    pairs |= {(states[5 * j], cells[j - 1]) for j in range(1, n_cells) if rng.random() < 0.5}
    trans = {}
    for i, x in enumerate(states):
        for u, step in (("dn", -6), ("up", 6)):
            hops = {i + step, i + step + step // 6} if rng.random() < 0.5 else {i + step}
            trans[(x, u)] = {states[min(n - 1, max(0, t))] for t in hops}
        start, width = i + rng.randint(9, 11), rng.randint(1, 3)
        trans[(x, "hop")] = {states[min(n - 1, t)] for t in range(start, start + width)}
    s1 = FiniteTransitionSystem(tuple(states), ("dn", "hop", "up"), trans)
    rel = Relation(s1.states, tuple(cells), frozenset(pairs))
    induced = induced_abstraction(s1, rel)
    rows = {}
    for (q, u), row in induced.trans.items():
        row = set(row)
        images = [rel.forward(t) for x in rel.inverse_map(q) for t in s1.successors(x, u)]
        for c in sorted(row):
            if rng.random() < 0.5 and all(img & (row - {c}) for img in images if c in img):
                row.discard(c)
        rows[(q, u)] = row
    return s1, FiniteTransitionSystem(induced.states, induced.inputs, rows), rel


def grid_cover_document(k=100, width=Fraction(3, 7)):
    """The 2k+1-cell grid of the benchmark, with its four laws and the
    availability of each cell: a cover document of dicts of strings and
    booleans."""
    cells = [("z", IntervalCell.point(0))]
    availability = {"z": ["halve"]}
    for i in range(1, k + 1):
        neg, pos = f"n{i:04d}", f"p{i:04d}"
        cells.append((neg, IntervalCell(-i * width, -(i - 1) * width, True, False)))
        cells.append((pos, IntervalCell((i - 1) * width, i * width, False, True)))
        availability[neg] = ["halve", "right"] + (["zero"] if i == 1 else [])
        availability[pos] = ["halve", "left"] + (["zero"] if i == 1 else [])
    laws = (
        AbstractInput("halve", AffineMap(Fraction(-1, 2), 0)),
        AbstractInput("left", AffineMap(0, -width)),
        AbstractInput("right", AffineMap(0, width)),
        AbstractInput("zero", AffineMap(-1, 0)),
    )
    return jsonio.cover_to_obj(CellCover(cells), laws, availability)


def outcome(fn, *args, **kwargs):
    """The result of ``fn``, or the type and message of the library error it
    raised, so that two implementations can be compared on both."""
    try:
        return fn(*args, **kwargs)
    except SymcretError as exc:
        return type(exc), str(exc)


def controlled_system(sys, ctrl):
    """Restrict the transition map to the controller's choices.

    Rows for inputs the controller does not enable become empty.  States
    outside the controller's domain lose all their moves; whether that is
    acceptable depends on what is reachable, which only a check of the
    closed loop can decide, so it is not rejected here.
    """
    ctrl.validate_for(sys)
    table = {
        (x, u): (succ if u in ctrl.choices.get(x, frozenset()) else frozenset())
        for (x, u), succ in sys.trans.items()
    }
    return FiniteTransitionSystem(sys.states, sys.inputs, table)


def reference_moves(sys, x):
    return [(u, xp) for u in sys.available_inputs(x) for xp in sorted(sys.successors(x, u))]


def reference_maximal_trajectories(sys, start, horizon):
    """Trajectories from ``start`` that cannot be extended within ``horizon``,
    sorted by their state sequences; recursive and exponential."""
    out = []

    def grow(states, inputs):
        moves = reference_moves(sys, states[-1]) if len(states) < horizon else []
        if not moves:
            out.append(Trajectory(states, inputs))
            return
        for u, xp in moves:
            grow(states + (xp,), inputs + (u,))

    for x0 in sorted(set(start)):
        grow((x0,), ())
    return tuple(sorted(out, key=lambda t: (t.states, t.inputs)))


def reference_is_valid_for(traj, sys):
    """Is every state of ``traj`` a state of ``sys``, and every step an
    available input followed by one of its successors?"""
    if not all(sys.has_state(x) for x in traj.states):
        return False
    return all(
        u in sys.available_inputs(x) and xp in sys.successors(x, u)
        for x, u, xp in zip(traj.states, traj.inputs, traj.states[1:])
    )


def seeded_rng(seed: int) -> random.Random:
    return random.Random(seed)


def fresh(name):
    """An equal string that is another object, as a decoder would make it."""
    return "".join(list(name)) if isinstance(name, str) else name


def random_partial_controller(rng: random.Random, sys: FiniteTransitionSystem) -> Controller:
    """A random non-empty subset of the available inputs at about 85 % of
    the states, none at the rest."""
    choices = {}
    for x in sys.states:
        if rng.random() < 0.85:
            available = sys.available_inputs(x)
            choices[x] = frozenset(rng.sample(available, rng.randint(1, len(available))))
    return Controller(choices)


@dataclass(frozen=True)
class DynamicRun:
    """One fully resolved execution of the dynamic architecture."""

    concrete: tuple[str, ...]
    abstract: tuple[str, ...]
    concrete_inputs: tuple[str, ...]
    abstract_inputs: tuple[str, ...]


def reference_enumerate_dynamic_runs(s1, s2, c2, rel, interface, x1_0, horizon):
    """Every execution of the dynamic architecture from ``x1_0``, branching
    over all abstract-state, input and plant choices in lexicographic order of
    (x2_0, u2, u1, x1', x2'); the first empty re-synchronisation in that order
    raises.  Exponential in the horizon and recursive: the reference for
    ``count_dynamic_runs``."""
    if set(rel.domain) != set(s1.states):
        raise DomainError("relation domain must be the concrete state set")
    if set(rel.codomain) != set(s2.states):
        raise DomainError("relation codomain must be the abstract state set")
    if horizon < 1:
        raise ContractError("horizon must be at least 1")
    runs = []

    def walk(x1s, x2s, u1s, u2s):
        x1, x2 = x1s[-1], x2s[-1]
        if (x1, x2) not in rel.pairs:
            raise BrokenCertificateError(f"({x1!r}, {x2!r}) escaped the relation")
        if len(x1s) == horizon or x2 not in c2.choices:
            runs.append(DynamicRun(x1s, x2s, u1s, u2s))
            return
        for u2 in sorted(c2.choices[x2]):
            for u1 in sorted(interface.inputs_for(x1, x2, u2)):
                for x1p in sorted(s1.successors(x1, u1)):
                    sync = s2.successors(x2, u2) & rel.forward(x1p)
                    if not sync:
                        raise BrokenCertificateError(
                            f"empty re-synchronisation after ({x1!r}, {x2!r}, {u2!r}) -> {x1p!r}"
                        )
                    for x2p in sorted(sync):
                        walk(x1s + (x1p,), x2s + (x2p,), u1s + (u1,), u2s + (u2,))

    for x2_0 in sorted(rel.forward(x1_0)):
        walk((x1_0,), (x2_0,), (), ())
    return tuple(runs)


# Decoding fuzz: one value of a JSON document mutated at a time.

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 9), st.floats(-2, 2), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)


def json_nodes(obj, path=()):
    """(path, value) for every value below ``obj``."""
    if isinstance(obj, dict):
        items = obj.items()
    else:
        items = enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from json_nodes(value, path + (key,))


def mutate(draw, doc, how, path):
    """Mutate the value at ``path`` in ``doc``, the document itself at the
    empty path: add a key to it ("extra"), drop it ("missing"), swap a list
    for a string, a name for an int, or a value for one of another type
    ("type")."""
    node = doc
    for key in path:
        parent, node = node, node[key]
    if how == "extra":
        node[draw(st.text(min_size=1, max_size=3).filter(lambda k: k not in node))] = (
            draw(JSON_VALUES))
    elif how == "missing":
        del parent[path[-1]]
    elif how == "string for list":
        parent[path[-1]] = (
            "".join(node) if all(isinstance(x, str) for x in node) else json.dumps(node))
    elif how == "int for name":
        parent[path[-1]] = draw(st.integers(0, 9))
    else:
        parent[path[-1]] = draw(JSON_VALUES.filter(lambda v: type(v) is not type(node)))
