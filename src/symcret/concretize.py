"""Turning abstract controllers into concrete ones, and running the loops.

Two architectures are provided:

* The *memoryless* controller plays, at concrete state x1, any interface
  output for any related abstract state the quantizer could report and any
  abstract choice there.  It needs nothing but the current concrete state.
* The *dynamic* concretizer tracks the abstract state it committed to, one
  step behind, and re-synchronises it after every concrete move by
  intersecting the abstract successors with the quantizer output.  An empty
  intersection means the relation certificate it was built from is wrong.

Runs replay bit for bit.  The dynamic concretizer always commits to the
least covered abstract state, then its least abstract input, then the least
concrete input.  The plant's move and the memoryless controller's input also
default to the least choice; scripted sequences or callables can be supplied
for these two only.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterator, Sequence

from .core import (
    Controller,
    ContractError,
    ControllerUndefinedError,
    FiniteTransitionSystem,
    SymcretError,
    Trajectory,
)
from .relations import Interface, Relation, StrictnessError, _validate_codomain, _validate_triplet


class BrokenCertificateError(SymcretError):
    """The dynamic loop hit an empty re-synchronisation intersection, which a
    valid alternating-simulation certificate rules out."""


Chooser = Callable[[Sequence[str]], str]


def scripted(values: Sequence[str]) -> Chooser:
    """Chooser that replays a fixed sequence of picks, validating each one."""
    queue: Iterator[str] = iter(values)

    def choose(options: Sequence[str]) -> str:
        try:
            pick = next(queue)
        except StopIteration:
            raise ContractError("scripted choice sequence exhausted") from None
        if pick not in options:
            raise ContractError(f"scripted choice {pick!r} not among {list(options)!r}")
        return pick

    return choose


def _chooser(policy: Chooser | Sequence[str] | None) -> Chooser:
    if policy is None:
        return itemgetter(0)
    if not callable(policy):
        return scripted(policy)

    def choose(options: Sequence[str]) -> str:
        pick = policy(options)
        if pick not in options:
            raise ContractError(f"policy chose {pick!r} outside {list(options)!r}")
        return pick

    return choose


def memoryless_controller(c2: Controller, rel: Relation, interface: Interface) -> Controller:
    """Union, over the related abstract states the abstract controller covers,
    of the interface outputs for its choices there.  Defined exactly at the
    concrete states with at least one covered related abstract state."""
    if not rel.is_strict():
        raise StrictnessError("memoryless concretization needs a strict relation")
    choices, table = {}, interface.table
    for x1 in rel.domain:
        covered = [x2 for x2 in rel.forward(x1) if x2 in c2.choices]
        if not covered:
            continue
        inputs: set[str] = set()
        try:  # a union does not depend on order
            for x2 in covered:
                for u2 in c2.choices[x2]:
                    inputs |= table[x1, x2, u2]
        except KeyError:  # the least missing entry raises
            keys = {(x1, x2, u2) for x2 in covered for u2 in c2.choices[x2]}
            interface.inputs_for(*min(keys - table.keys()))
        if not inputs:
            raise ContractError(f"concretized controller has no input at {x1!r}")
        choices[x1] = frozenset(inputs)
    return Controller(choices)


@dataclass(frozen=True)
class DynamicConcretizerState:
    """Delay-block contents: the abstract state committed to at the previous
    step and the abstract input played from it."""

    x2: str
    u2: str


class DynamicConcretizer:
    """The dynamic architecture: a delay block holds the committed (x2, u2)
    and is re-synchronised after every plant move.  Records the
    (x1, x2, u2, u1) trace of the latest execution (``initialize`` starts one).
    Built without the plant, it checks only the relation's codomain."""

    def __init__(
        self,
        s2: FiniteTransitionSystem,
        c2: Controller,
        rel: Relation,
        interface: Interface,
    ) -> None:
        _validate_codomain(s2, rel)
        self.s2 = s2
        self.c2 = c2
        self.rel = rel
        self.interface = interface
        self.state: DynamicConcretizerState | None = None
        self.trace: list[tuple[str, str, str, str]] = []

    def initialize(self, x1_0: str) -> str:
        """Commit to an abstract start related to ``x1_0`` and emit the first
        concrete input."""
        self.trace = []
        related = self.rel.forward(x1_0)
        if not related:
            raise ContractError(f"state {x1_0!r} is related to no abstract state")
        return self._commit(x1_0, related)

    def step(self, x1_next: str) -> str:
        """Re-synchronise the abstract state after the plant moved to
        ``x1_next`` and emit the next concrete input.

        The new abstract state is taken from the abstract successors of the
        delayed (state, input) pair intersected with the quantizations of
        ``x1_next``; an alternating simulation certificate guarantees that the
        intersection is non-empty, so emptiness is reported as a broken
        certificate rather than handled by backtracking.
        """
        if self.state is None:
            raise ContractError("step before initialize")
        x2, u2 = self.state.x2, self.state.u2
        sync = self.s2.successors(x2, u2) & self.rel.forward(x1_next)
        if not sync:
            raise BrokenCertificateError(
                f"no abstract successor of ({x2!r}, {u2!r}) is related to {x1_next!r}"
            )
        return self._commit(x1_next, sync)

    def _commit(self, x1: str, candidates: frozenset[str]) -> str:
        """Commit to the least candidate abstract state the controller covers,
        its least abstract input and the least concrete input the interface
        maps that to."""
        covered = [x2 for x2 in candidates if x2 in self.c2.choices]
        if not covered:
            raise ControllerUndefinedError(x1, who="abstract controller (via quantizer)")
        x2 = min(covered)
        u2 = min(self.c2.choices[x2])
        u1 = min(self.interface.inputs_for(x1, x2, u2))
        self.state = DynamicConcretizerState(x2, u2)
        self.trace.append((x1, x2, u2, u1))
        return u1


def closed_loop_run(
    sys: FiniteTransitionSystem,
    controller: Controller | DynamicConcretizer,
    x1_0: str,
    horizon: int,
    *,
    choose_input: Chooser | Sequence[str] | None = None,
    resolver: Chooser | Sequence[str] | None = None,
) -> Trajectory:
    """Execute one closed-loop run of at most ``horizon`` states.

    ``resolver`` picks the plant's move among the non-deterministic
    successors; ``choose_input`` picks among the memoryless controller's
    enabled inputs.  The dynamic concretizer starts a new execution (its
    trace and state are cleared) and makes its own choices, so
    ``choose_input`` with it is a contract error.  Reaching a state the
    controller does not cover while steps remain is a contract error naming
    the state.
    """
    sys.require_state(x1_0)
    if horizon < 1:
        raise ContractError("horizon must be at least 1")
    dynamic = isinstance(controller, DynamicConcretizer)
    if dynamic:
        if choose_input is not None:
            raise ContractError("choose_input applies only to a memoryless controller")
        controller.state, controller.trace = None, []
    pick_input = _chooser(choose_input)
    pick_successor = _chooser(resolver)

    states = [x1_0]
    inputs: list[str] = []
    while len(states) < horizon:
        x = states[-1]
        if dynamic:
            u1 = controller.step(x) if inputs else controller.initialize(x)
        else:
            enabled = controller.choices.get(x)
            if enabled is None:
                raise ControllerUndefinedError(x)
            u1 = pick_input(sorted(enabled))
        succ = sorted(sys.successors(x, u1))
        if not succ:
            raise ContractError(f"input {u1!r} is unavailable at state {x!r}")
        xp = pick_successor(succ)
        states.append(xp)
        inputs.append(u1)
    return Trajectory(tuple(states), tuple(inputs))


def count_dynamic_runs(
    s1: FiniteTransitionSystem,
    s2: FiniteTransitionSystem,
    c2: Controller,
    rel: Relation,
    interface: Interface,
    x1_0: str,
    horizon: int,
) -> int:
    """Number of executions of the dynamic architecture from ``x1_0``, over
    every abstract-state, input and plant choice.  A run ends at the horizon
    or where the abstract controller has no choice; a covered node with no
    move ends none.  A relation that does not match the two systems raises
    ``DomainError``; the first empty re-synchronisation in (x2_0, u2, u1, x1',
    x2') order raises :class:`BrokenCertificateError`.  The walk is depth-first
    on an explicit stack, and an (x1, x2, depth) node explored without error
    keeps its run count for later visits, which could raise nothing.  The run
    count is exponential in the horizon; the walk is O(nodes * moves).
    """
    _validate_triplet(s1, s2, rel)
    if horizon < 1:
        raise ContractError("horizon must be at least 1")
    known: dict[tuple[str, str, int], int] = {}  # runs below each finished node

    def below(x1: str, x2: str, depth: int) -> Iterator[tuple[str, str, int]]:
        for u2 in sorted(c2.choices[x2]):
            succ2 = s2.successors(x2, u2)
            for u1 in sorted(interface.inputs_for(x1, x2, u2)):
                for x1p in sorted(s1.successors(x1, u1)):
                    sync = succ2 & rel.forward(x1p)
                    if not sync:
                        raise BrokenCertificateError(
                            f"empty re-synchronisation after ({x1!r}, {x2!r}, {u2!r}) -> {x1p!r}"
                        )
                    yield from ((x1p, x2p, depth + 1) for x2p in sorted(sync))

    # A frame is [node, unexplored children, runs so far]; the bottom one is the start.
    stack: list[list] = [[None, ((x1_0, x2_0, 1) for x2_0 in sorted(rel.forward(x1_0))), 0]]
    while True:
        node, children, runs = frame = stack[-1]
        child = next(children, None)
        if child is None:
            stack.pop()
            if not stack:
                return runs
            known[node] = runs
            stack[-1][2] += runs
        elif child in known or child[2] == horizon or child[1] not in c2.choices:
            frame[2] += known.get(child, 1)  # a leaf ends one run
        else:
            stack.append([child, below(*child), 0])
