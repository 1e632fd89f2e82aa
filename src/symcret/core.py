"""Finite transition control systems, controllers, trajectories, reach-avoid goals.

A transition control system is a finite set of states, a finite set of input
labels, and a total set-valued transition map: ``trans[(x, u)]`` is the set of
states reachable from ``x`` under ``u``, with the empty set meaning that the
input is unavailable at that state.  Everything in this module is an immutable
value; every operation is a pure function of its arguments.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping


class SymcretError(Exception):
    """Base class for all library errors."""


class DomainError(SymcretError):
    """A state, input, or key falls outside the structure it is used with."""


class ContractError(SymcretError):
    """An operation was called with arguments violating its precondition."""


class ControllerUndefinedError(ContractError):
    """A closed loop reached a state the controller has no choice for."""

    def __init__(self, state: str, who: str = "controller") -> None:
        super().__init__(f"{who} is undefined at state {state!r}")
        self.state = state


@dataclass(frozen=True)
class FiniteTransitionSystem:
    """Non-deterministic transition system with labelled, set-valued moves.

    ``states`` and ``inputs`` are kept sorted so that every iteration in the
    library is reproducible and witnesses come out lexicographically minimal.
    ``trans`` is normalised to a total map: rows missing at construction are
    filled in as empty (input unavailable).  Blocking systems (some state with
    no available input) can be represented, so that predicates about them can
    be evaluated; loaders and fixtures reject them where required.
    """

    states: tuple[str, ...]
    inputs: tuple[str, ...]
    trans: Mapping[tuple[str, str], frozenset[str]]

    def __post_init__(self) -> None:
        states = tuple(sorted(dict.fromkeys(self.states)))
        inputs = tuple(sorted(dict.fromkeys(self.inputs)))
        state_set = frozenset(states)
        input_set = frozenset(inputs)
        table: dict[tuple[str, str], frozenset[str]] = {}
        for (x, u), succ in dict(self.trans).items():
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
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "trans", table)
        object.__setattr__(self, "_state_set", state_set)
        object.__setattr__(self, "_avail", avail)

    def has_state(self, x: str) -> bool:
        return x in self._state_set  # type: ignore[attr-defined]

    def require_state(self, x: str) -> None:
        if not self.has_state(x):
            raise DomainError(f"unknown state {x!r}")

    def successors(self, x: str, u: str) -> frozenset[str]:
        try:
            return self.trans[(x, u)]
        except KeyError:
            raise DomainError(f"unknown state/input pair ({x!r}, {u!r})") from None

    def available_inputs(self, x: str) -> tuple[str, ...]:
        """Inputs with a non-empty successor set at ``x``, in sorted order."""
        try:
            return self._avail[x]  # type: ignore[attr-defined]
        except KeyError:
            raise DomainError(f"unknown state {x!r}") from None

    def is_non_blocking(self) -> bool:
        """True iff every state has at least one available input."""
        return all(self._avail[x] for x in self.states)  # type: ignore[attr-defined]

    def is_deterministic(self) -> bool:
        """True iff every row of the transition map has at most one successor."""
        return all(len(succ) <= 1 for succ in self.trans.values())

    def require_non_blocking(self) -> None:
        blocked = [x for x in self.states if not self.available_inputs(x)]
        if blocked:
            raise ContractError(f"system blocks at states {blocked!r}")


@dataclass(frozen=True)
class Controller:
    """Static set-valued state feedback: each covered state gets a non-empty
    set of inputs.  The map may be partial; operations that need a choice at
    an uncovered state fail explicitly when they get there."""

    choices: Mapping[str, frozenset[str]]

    def __post_init__(self) -> None:
        table: dict[str, frozenset[str]] = {}
        for x, us in dict(self.choices).items():
            us = frozenset(us)
            if not us:
                raise ContractError(f"controller assigns no input at state {x!r}")
            table[x] = us
        object.__setattr__(self, "choices", table)

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self.choices)

    def validate_for(self, sys: FiniteTransitionSystem) -> None:
        for x, us in self.choices.items():
            sys.require_state(x)
            bad = us - frozenset(sys.available_inputs(x))
            if bad:
                raise ContractError(
                    f"controller enables unavailable inputs {sorted(bad)!r} at state {x!r}"
                )


@dataclass(frozen=True)
class Trajectory:
    """A state sequence together with the inputs driving it.

    A trajectory of length T has T states and T-1 inputs; a single state with
    no inputs is the smallest trajectory.
    """

    states: tuple[str, ...]
    inputs: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "states", tuple(self.states))
        object.__setattr__(self, "inputs", tuple(self.inputs))
        if len(self.states) < 1:
            raise ContractError("a trajectory has at least one state")
        if len(self.inputs) != len(self.states) - 1:
            raise ContractError("a trajectory of T states carries exactly T-1 inputs")

    @property
    def length(self) -> int:
        return len(self.states)

    def is_valid_for(self, sys: FiniteTransitionSystem) -> bool:
        if not all(sys.has_state(x) for x in self.states):
            return False
        for k, u in enumerate(self.inputs):
            if u not in sys.available_inputs(self.states[k]):
                return False
            if self.states[k + 1] not in sys.successors(self.states[k], u):
                return False
        return True


@dataclass(frozen=True)
class ReachAvoidSpec:
    """Reach ``target`` in finitely many steps without touching ``obstacle``
    first, from every state in ``initial``."""

    initial: frozenset[str]
    target: frozenset[str]
    obstacle: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "initial", frozenset(self.initial))
        object.__setattr__(self, "target", frozenset(self.target))
        object.__setattr__(self, "obstacle", frozenset(self.obstacle))

    def validate_for(self, sys: FiniteTransitionSystem) -> None:
        for name, group in (("initial", self.initial), ("target", self.target),
                            ("obstacle", self.obstacle)):
            stray = group - frozenset(sys.states)
            if stray:
                raise DomainError(f"{name} set contains unknown states {sorted(stray)!r}")


@dataclass(frozen=True)
class SpecVerdict:
    holds: bool
    witness: Trajectory | None = None


def controlled_system(sys: FiniteTransitionSystem, ctrl: Controller) -> FiniteTransitionSystem:
    """Restrict the transition map to the controller's choices.

    Rows for inputs the controller does not enable become empty.  States
    outside the controller's domain lose all their moves; whether that is
    acceptable depends on what is reachable, which only the enumeration of
    behaviors can decide, so it is not rejected here.
    """
    ctrl.validate_for(sys)
    table = {
        (x, u): (succ if u in ctrl.choices.get(x, frozenset()) else frozenset())
        for (x, u), succ in sys.trans.items()
    }
    return FiniteTransitionSystem(sys.states, sys.inputs, table)


def default_horizon(sys: FiniteTransitionSystem) -> int:
    """Bound sufficient for reach-avoid questions: one more than the state
    count, so that any longer run must repeat a state."""
    return len(sys.states) + 1


def _moves(sys: FiniteTransitionSystem, x: str) -> list[tuple[str, str]]:
    return [(u, xp) for u in sys.available_inputs(x) for xp in sorted(sys.successors(x, u))]


def _walk(
    sys: FiniteTransitionSystem, start: Iterable[str], horizon: int
) -> Iterator[tuple[tuple[str, ...], tuple[str, ...], bool]]:
    """Yield (states, inputs, maximal) for every trajectory of length at most
    ``horizon`` from ``start``; ``maximal`` means it cannot be extended within
    the horizon.  Runs on an explicit stack, in no specified order."""
    if horizon < 1:
        raise ContractError("horizon must be at least 1")
    roots = sorted(set(start))
    for x0 in roots:
        sys.require_state(x0)
    stack: list[tuple[tuple[str, ...], tuple[str, ...]]] = [((x0,), ()) for x0 in roots]
    while stack:
        states, inputs = stack.pop()
        moves = _moves(sys, states[-1]) if len(states) < horizon else []
        yield states, inputs, not moves
        stack.extend((states + (xp,), inputs + (u,)) for u, xp in moves)


def bounded_behavior(
    sys: FiniteTransitionSystem, start: Iterable[str], horizon: int
) -> frozenset[Trajectory]:
    """Every trajectory of length at most ``horizon`` starting in ``start``.

    The result is prefix-closed and monotone in the horizon.
    """
    return frozenset(
        Trajectory(states, inputs) for states, inputs, _ in _walk(sys, start, horizon)
    )


def maximal_trajectories(
    sys: FiniteTransitionSystem, start: Iterable[str], horizon: int
) -> tuple[Trajectory, ...]:
    """Trajectories from ``start`` that cannot be extended within ``horizon``,
    sorted by their state sequences."""
    runs = [
        Trajectory(states, inputs)
        for states, inputs, maximal in _walk(sys, start, horizon)
        if maximal
    ]
    return tuple(sorted(runs, key=lambda t: (t.states, t.inputs)))


def check_spec(
    sys: FiniteTransitionSystem, spec: ReachAvoidSpec, horizon: int | None = None
) -> SpecVerdict:
    """Decide the reach-avoid goal on every maximal run within the horizon.

    A run is judged by its first decisive visit: touching the target before
    any obstacle satisfies it, touching an obstacle first violates it, and a
    run that ends (stuck, or out of horizon) before reaching the target
    violates it as well, since no continuation could ever succeed.  The
    returned witness is the first violating run in lexicographic search
    order.  The search runs on an explicit stack and visits each
    (state, depth) node at most once, so it costs O(states x horizon x
    moves) rather than the number of runs.
    """
    spec.validate_for(sys)
    bound = default_horizon(sys) if horizon is None else horizon
    if bound < 1:
        raise ContractError("horizon must be at least 1")

    def enter(x: str, depth: int) -> Iterator[tuple[str, str]] | None:
        # The moves still to try below a node, or None if the run ends here
        # in a violation.
        if x in spec.target:
            return iter(())
        if x in spec.obstacle or depth == bound:
            return None
        moves = _moves(sys, x)
        return iter(moves) if moves else None

    # What lies below a node depends only on its (state, depth) and the
    # search stops at the first violation, so a node fully explored once
    # without one is skipped wherever it recurs; the witness is unchanged.
    clean: set[tuple[str, int]] = set()
    for x0 in sorted(spec.initial):
        states, inputs = [x0], []
        stack = [enter(x0, 1)]
        while stack:
            if stack[-1] is None:
                return SpecVerdict(False, Trajectory(states, inputs))
            depth = len(states)
            for u, xp in stack[-1]:
                if (xp, depth + 1) not in clean:
                    states.append(xp)
                    inputs.append(u)
                    stack.append(enter(xp, depth + 1))
                    break
            else:
                clean.add((states.pop(), depth))
                stack.pop()
                if inputs:
                    inputs.pop()
    return SpecVerdict(True, None)
