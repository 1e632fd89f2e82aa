"""Verification of the two controller-transfer guarantees.

*Controlled simulability*: every state sequence of the concrete closed loop
has some related state sequence in the abstract closed loop.  The check
searches the product of concrete states and tracked sets of abstract states
breadth-first to its fixed point rather than enumerating sequences.

*Memoryless concretization*: running the quantizer-in-the-loop architecture
(quantize the current concrete state, ask the abstract controller there, map
the abstract input through the interface, let the plant move), the abstract
trace produced is a valid run of the abstract closed loop, for every choice
the quantizer, the controllers, and the plant could make.  Violations are
step-local, so the check walks the related pairs once and takes no horizon;
a witness is the violating step run on to its first repeated (x1, x2) pair,
a lasso.

The tests check the paper's laws on every instance up to a small size: the
memoryless relation is sufficient and necessary for the memoryless guarantee
over every total abstract controller, and the closed form of the
all-controllers check equals the enumeration of the controllers.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .core import ContractError, Controller, FiniteTransitionSystem, SymcretError
from .relations import Interface, Relation, StrictnessError, _escape, _validate_triplet
from .synthesis import controller_count


class BudgetExceededError(ContractError):
    """The abstraction has more controllers than the ``budget`` given to
    :func:`check_memoryless_concretization_all_controllers`."""


@dataclass(frozen=True)
class PropertyWitness:
    """A violating concrete run; for the memoryless check also the abstract
    trace the architecture produced alongside it."""

    concrete: tuple[str, ...]
    concrete_inputs: tuple[str, ...]
    quantization: tuple[str, ...] | None = None


@dataclass(frozen=True)
class PropertyVerdict:
    holds: bool
    witness: PropertyWitness | None = None


@dataclass(frozen=True)
class AllControllersVerdict:
    """``checked`` is the 1-based position of ``witness_controller`` among all
    total controllers, or the controller count when it holds.  The order is
    lexicographic over the states in sorted order, the last state varying
    fastest.  Each state runs through the non-empty subsets of its sorted
    available inputs U(x) in bitmask order, mask 1 to 2^|U(x)| - 1 with bit i
    for the i-th input: {u0}, {u1}, {u0, u1}, {u2}, ..., the full set last."""

    holds: bool
    witness_controller: Controller | None = None
    witness: PropertyWitness | None = None
    checked: int = 0


def check_controlled_simulability(
    s1: FiniteTransitionSystem,
    s2: FiniteTransitionSystem,
    rel: Relation,
    c1: Controller,
    c2: Controller,
    horizon: int | None = None,
) -> PropertyVerdict:
    """Does every state sequence of c1 x s1, of at most ``horizon`` states
    when one is given, have a pointwise-related state sequence in c2 x s2?

    The abstract states a matching sequence could be at (the tracked set)
    depend only on the concrete sequence, so the check walks (x1, tracked
    set) nodes breadth-first, as in the subset construction of Rabin & Scott:
    paths in lexicographic order, moves sorted by (x1', u1), and each node
    kept with the least path that first reaches it (a failure below a later or
    larger path to it has a shorter or smaller copy below that one).  The
    witness is the shortest, least sequence at which the tracked set empties.
    The walk stops at a level with no new node, or at the horizon if given;
    a shortest failure may be exponentially long, as for NFA inclusion.  Cost
    O(N * r * (p + m * d)) over the N reachable nodes, with m inputs, d
    successors and r related abstract states per concrete state and p states
    per abstract controlled post, plus sorting each node's moves.
    """
    if horizon is not None and horizon < 1:
        raise ContractError("horizon must be at least 1")
    _validate_triplet(s1, s2, rel)
    c1.validate_for(s1)
    c2.validate_for(s2)
    level = [(x0, rel.forward(x0)) for x0 in sorted(s1.states)]
    for x0, start in level:
        if not start:
            return PropertyVerdict(False, PropertyWitness((x0,), (), None))
    post = {q: frozenset().union(*(s2.successors(q, u2) for u2 in c2.choices.get(q, ())))
            for q in s2.states}
    # Every node maps to the (node, input) it was first reached by.
    parent: dict[tuple[str, frozenset[str]], Any] = dict.fromkeys(level)
    depth = 1
    while level and (horizon is None or depth < horizon):
        grown = []
        for node in level:
            x, tracked = node
            reachable = frozenset().union(*(post[q] for q in tracked))
            moves = ((xp, u) for u in c1.choices.get(x, ()) for xp in s1.successors(x, u))
            for xp, u in sorted(moves):
                tracked_next = rel.forward(xp) & reachable
                if not tracked_next:
                    states, inputs = [xp, x], [u]
                    while parent[node] is not None:
                        node, u = parent[node]
                        states.append(node[0])
                        inputs.append(u)
                    witness = PropertyWitness(tuple(states[::-1]), tuple(inputs[::-1]), None)
                    return PropertyVerdict(False, witness)
                if (xp, tracked_next) not in parent:
                    parent[xp, tracked_next] = (node, u)
                    grown.append((xp, tracked_next))
        level, depth = grown, depth + 1
    return PropertyVerdict(True, None)


def _extend_architecture_run(
    s1: FiniteTransitionSystem,
    rel: Relation,
    interface: Interface,
    c2: Controller,
    states: list[str],
    quant: list[str],
    inputs: list[str],
) -> PropertyWitness:
    """Continue a run lexicographically until an uncovered abstract state, a
    dead end, or its first repeated (x1, x2) pair.  A least step depends only
    on the current pair, so the run is a lasso of at most n1 * n2 + 1 states."""
    seen = {(states[0], quant[0])}
    while (states[-1], quant[-1]) not in seen:
        x1, x2 = states[-1], quant[-1]
        seen.add((x1, x2))
        menu = sorted(c2.choices.get(x2, frozenset()))
        if not menu:
            break
        u2 = menu[0]
        u1 = sorted(interface.inputs_for(x1, x2, u2))[0]
        successors = sorted(s1.successors(x1, u1))
        if not successors:
            break
        x1p = successors[0]
        states.append(x1p)
        inputs.append(u1)
        quant.append(sorted(rel.forward(x1p))[0])
    return PropertyWitness(tuple(states), tuple(inputs), tuple(quant))


def check_memoryless_concretization(
    s1: FiniteTransitionSystem,
    s2: FiniteTransitionSystem,
    rel: Relation,
    interface: Interface,
    c2: Controller,
) -> PropertyVerdict:
    """Does every quantizer-in-the-loop run produce a valid abstract run?

    A violation is one architecture step whose freshly quantized state is not
    an abstract successor of the committed (abstract state, abstract input):
    related pair (x1, x2), abstract choice u2 there, interface output u1,
    plant move x1', and a quantization x2' of x1' outside F2(x2, u2).  Runs
    may start at any state, so the check is step-local and has no horizon.
    The witness is the least such step run on lexicographically to a dead end
    or to its first repeated (x1, x2) pair.
    """
    _validate_triplet(s1, s2, rel)
    if not rel.is_strict():
        raise StrictnessError("the memoryless guarantee is stated for strict relations")
    c2.validate_for(s2)
    order: dict[frozenset[str], list[str]] = {}  # each distinct set, sorted once
    for x1, x2 in rel._order:  # type: ignore[attr-defined]
        us = c2.choices.get(x2, frozenset())
        for u2 in order.get(us) or order.setdefault(us, sorted(us)):
            row = s2.successors(x2, u2)
            u1s = interface.inputs_for(x1, x2, u2)
            for u1 in order.get(u1s) or order.setdefault(u1s, sorted(u1s)):
                step = _escape(s1, rel, x1, u1, row)
                if step is not None:
                    return PropertyVerdict(False, _extend_architecture_run(
                        s1, rel, interface, c2, [x1, step[0]], [x2, step[1]], [u1]))
    return PropertyVerdict(True, None)


def replay_memoryless_witness(
    s1: FiniteTransitionSystem,
    s2: FiniteTransitionSystem,
    rel: Relation,
    interface: Interface,
    c2: Controller,
    witness: PropertyWitness,
) -> bool:
    """True iff the witness is a genuine violation: the concrete run is valid
    under the memoryless controller, the abstract trace quantizes it, and at
    some step k an abstract input u2 in c2(q_k) whose interface entry at
    (x_k, q_k) holds u_k has q_{k+1} outside F2(q_k, u2)."""
    from .concretize import memoryless_controller

    if witness.quantization is None:
        return False
    xs, us, qs = witness.concrete, witness.concrete_inputs, witness.quantization
    if len(xs) != len(qs) or len(us) != len(xs) - 1:
        return False
    c1 = memoryless_controller(c2, rel, interface)
    for k, u in enumerate(us):
        if u not in c1.choices.get(xs[k], frozenset()):
            return False
        if xs[k + 1] not in s1.successors(xs[k], u):
            return False
    if any(q not in rel.forward(x) for x, q in zip(xs, qs)):
        return False
    return any(
        u in interface.inputs_for(xs[k], qs[k], u2) and qs[k + 1] not in s2.successors(qs[k], u2)
        for k, u in enumerate(us)
        for u2 in c2.choices.get(qs[k], frozenset())
    )


def check_memoryless_concretization_all_controllers(
    s1: FiniteTransitionSystem,
    s2: FiniteTransitionSystem,
    rel: Relation,
    interface: Interface,
    budget: int | None = None,
) -> AllControllersVerdict:
    """Does every total abstract controller pass the memoryless check?  The
    answer is the first violator in the order of
    :attr:`AllControllersVerdict.checked` (states sorted, the last state
    fastest, each state's input sets in bitmask order), found without
    enumerating.  A violation depends on one u2 in c2(x2), so all
    controllers pass iff no available u2 is an event at x2: for some related
    x1 the step-local test escapes or raises (the necessity theorem of the
    memoryless relation).  One pass over the related pairs finds the events at
    the cost of checking the all-inputs controller, O(P * m * e * d) for P
    pairs, m abstract inputs, e inputs per interface entry, d successors.  An
    event at a least input makes the least controller the first violator;
    else the last state k with an event takes its least event input, the i-th
    of U(k) from 0, and ``checked`` is (2^i - 1) * prod_{x > k} (2^|U(x)| - 1)
    + 1.  Its check gives the witness or error.  ``budget`` refuses up front
    with :class:`BudgetExceededError`."""
    _validate_triplet(s1, s2, rel)
    total = controller_count(s2, s2.states)
    if budget is not None and total > budget:
        raise BudgetExceededError(f"{total} controllers exceed the budget of {budget}")
    if total == 0:
        return AllControllersVerdict(True, None, None, 0)
    if not rel.is_strict():
        raise StrictnessError("the memoryless guarantee is stated for strict relations")
    dom = sorted(s2.states)
    avail = {x: s2.available_inputs(x) for x in dom}
    events: dict[str, set[int]] = {x: set() for x in dom}
    steps = ((x1, x2, i, u2) for x1, x2 in rel.pairs for i, u2 in enumerate(avail.get(x2, ())))
    for x1, x2, i, u2 in steps:
        if i in events[x2]:
            continue
        try:
            row = s2.successors(x2, u2)
            for u1 in interface.inputs_for(x1, x2, u2):
                if _escape(s1, rel, x1, u1, row) is not None:
                    break
            else:
                continue  # no input escapes
        except SymcretError:
            pass  # the check raises for every controller playing u2 at x2
        events[x2].add(i)
        if i == 0:
            break
    hot = [(x, min(events[x])) for x in dom if events[x]]
    if not hot:
        return AllControllersVerdict(True, None, None, total)
    k, i = next(((x, i) for x, i in hot if i == 0), hot[-1])
    c2 = Controller({**{x: frozenset(avail[x][:1]) for x in dom}, k: frozenset({avail[k][i]})})
    index = (2 ** i - 1) * controller_count(s2, dom[dom.index(k) + 1:])
    verdict = check_memoryless_concretization(s1, s2, rel, interface, c2)
    return AllControllersVerdict(False, c2, verdict.witness, index + 1)
