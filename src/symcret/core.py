"""Finite transition control systems, controllers, trajectories, reach-avoid goals.

A transition control system is a finite set of states, a finite set of input
labels, and a total set-valued transition map: ``trans[(x, u)]`` is the set of
states reachable from ``x`` under ``u``, with the empty set meaning that the
input is unavailable at that state.  Everything in this module is an immutable
value; every operation is a pure function of its arguments.
"""
from __future__ import annotations

import functools
import gc
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping


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


def _nogc(build: Callable[..., Any]) -> Callable[..., Any]:
    """``build`` with the cyclic collector paused, unless off already: its tables hold no
    cycles.  Process-wide: another thread's ``gc.disable()`` during the call is undone."""
    @functools.wraps(build)
    def paused(*args: Any, **kwargs: Any) -> Any:
        if not gc.isenabled():
            return build(*args, **kwargs)
        gc.disable()
        try:
            return build(*args, **kwargs)
        finally:
            gc.enable()
    return paused


def _share(values: Iterable[Any]) -> list[Any]:
    """``values`` with equal ones held as one object, the first met; the pool is the call's."""
    pool: dict[Any, Any] = {}
    return [pool.setdefault(value, value) for value in values]


@dataclass(frozen=True)
class FiniteTransitionSystem:
    """Non-deterministic transition system with labelled, set-valued moves.

    ``states`` and ``inputs`` are kept sorted so that every iteration in the
    library is reproducible and witnesses come out lexicographically minimal.
    ``trans`` is normalised to a total map: rows missing at construction are
    filled in as empty (input unavailable).  One pass over ``trans`` checks
    each name once against the sorted carrier and keeps the carrier's own
    object: one object per name.  The same pass keeps one frozenset per
    distinct successor set, the first met, and ``available_inputs`` one tuple
    per distinct set; the values are immutable, so callers cannot tell.  A
    shared row may iterate in another order than the set it was built from,
    so the library sorts a row, or takes its least member, wherever the order
    could reach a result.  Blocking systems (some state with no available
    input) can be represented, so that predicates about them can be
    evaluated; loaders reject them where required.
    """

    states: tuple[str, ...]
    inputs: tuple[str, ...]
    trans: Mapping[tuple[str, str], frozenset[str]]

    def __post_init__(self) -> None:
        names = {x: x for x in sorted(dict.fromkeys(self.states))}
        labels = {u: u for u in sorted(dict.fromkeys(self.inputs))}
        name, pool = names.__getitem__, {}
        table: dict[tuple[str, str], frozenset[str]] = {}
        for (x, u), succ in self.trans.items():
            try:
                key = names[x], labels[u]
                row = frozenset(map(name, succ))
                table[key] = pool.setdefault(row, row)
            except KeyError:
                if x not in names:
                    raise DomainError(f"transition key uses unknown state {x!r}") from None
                if u not in labels:
                    raise DomainError(f"transition key uses unknown input {u!r}") from None
                stray = sorted(frozenset(succ).difference(names))
                raise DomainError(f"successors {stray!r} of ({x!r}, {u!r}) are not states") from None
        self._seal(tuple(names), tuple(labels), table)

    @classmethod
    def _trusted(cls, states: tuple, inputs: tuple, table: dict) -> "FiniteTransitionSystem":
        """The system of a builder's ``table``, unchecked: ``states`` and ``inputs`` sorted and
        distinct, the table keyed and filled with their own objects, in frozensets."""
        return object.__new__(cls)._seal(states, inputs, table)

    def _seal(self, states: tuple, inputs: tuple, table: dict) -> "FiniteTransitionSystem":
        # The missing rows are filled in as empty while availability is read.
        fill, empty = table.setdefault, frozenset()
        avail = _share(tuple([u for u in inputs if fill((x, u), empty)]) for x in states)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "trans", table)
        object.__setattr__(self, "_avail", dict(zip(states, avail)))
        return self

    def has_state(self, x: str) -> bool:
        return x in self._avail  # type: ignore[attr-defined]

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
    set of inputs, one object per distinct set (immutable, so callers cannot
    tell).  The map may be partial; operations that need a choice at an
    uncovered state fail explicitly when they get there."""

    choices: Mapping[str, frozenset[str]]

    def __post_init__(self) -> None:
        table: dict[str, frozenset[str]] = {}
        for x, us in dict(self.choices).items():
            us = frozenset(us)
            if not us:
                raise ContractError(f"controller assigns no input at state {x!r}")
            table[x] = us
        object.__setattr__(self, "choices", dict(zip(table, _share(table.values()))))

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
            stray = group.difference(sys._avail)  # type: ignore[attr-defined]
            if stray:
                raise DomainError(f"{name} set contains unknown states {sorted(stray)!r}")
