"""Reach-avoid synthesis and verification on finite non-deterministic systems.

Non-determinism makes this a reachability problem on a forward hypergraph:
each (state, input) row is a hyperarc with one tail and all its successors as
heads, and a state is winning only if some row keeps every head winning.  The
winning set is the least fixed point of the controllable predecessor; ranks
record the iteration at which a state entered and bound its distance to the
target.  One pass of counter-based hyperarc reachability (Gallo, Longo,
Pallottino & Nguyen 1993; Liu & Smolka 1998) computes both in O(states + rows
+ sum of successor-set sizes), and records the controller as the attractor
grows (Thomas 1995).  :func:`check_spec` verifies a closed loop with the same
pass, fed one hyperarc per state: no system or goal is built for it.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Collection, Iterable, Mapping

from .core import Controller, ContractError, FiniteTransitionSystem, ReachAvoidSpec, Trajectory


@dataclass(frozen=True)
class SynthesisResult:
    """Winning set, rank bound per winning state, and the maximally
    permissive rank-decreasing controller on ``winning`` minus the target."""

    winning: frozenset[str]
    controller: Controller
    rank: Mapping[str, int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "winning", frozenset(self.winning))
        object.__setattr__(self, "rank", dict(self.rank))


def _attract(rows: Iterable[tuple[tuple[str, str], Collection[str]]], target: frozenset[str],
             obstacle: frozenset[str]) -> tuple[dict[str, int], dict[str, list[str]]]:
    """Over ``rows``, (tail, label) -> heads pairs, the entry rank of every
    winning state and the labels that decrease it at each winning non-target
    state; a head listed twice is waited for twice.  Each usable row (tail
    neither target nor obstacle, no obstacle head) counts its heads not yet
    winning; a row whose count drops to 0 while rank k is processed completes
    at level k + 1, where its tail enters unless ranked already.  The row
    joins the tail's choices exactly when that level is the tail's rank (a
    row that completes later has a head ranked no lower than its tail).  Each
    row and head is touched once: O(states + rows + sum of successor-set sizes)."""
    if target & obstacle:
        raise ContractError("a target state may not also be an obstacle")
    settled = target | obstacle
    keys: list[tuple[str, str]] = []
    pending: list[int] = []
    rows_into: dict[str, list[int]] = {}
    for key, succ in rows:
        if succ and key[0] not in settled and obstacle.isdisjoint(succ):
            row = len(keys)
            keys.append(key)
            pending.append(len(succ))
            for xp in succ:
                rows_into.setdefault(xp, []).append(row)
    rank = dict.fromkeys(target, 0)
    picks: dict[str, list[str]] = {}
    frontier = list(target)
    level = 0
    while frontier:
        level += 1
        fresh = []
        for xp in frontier:
            for row in rows_into.get(xp, ()):
                pending[row] -= 1
                if not pending[row]:
                    x, u = keys[row]
                    if x not in rank:
                        rank[x] = level
                        fresh.append(x)
                        picks[x] = [u]
                    elif rank[x] == level:
                        picks[x].append(u)
        frontier = fresh
    return rank, picks


def winning_region(
    sys: FiniteTransitionSystem, spec: ReachAvoidSpec
) -> tuple[frozenset[str], dict[str, int]]:
    """Least fixed point of the controllable predecessor over the obstacle-free
    states, and the entry rank of every winning state: the level of the Kleene
    iteration at which it enters, 0 on the target, otherwise the minimum over
    its rows of one more than the largest rank of the row's heads.  The pass
    of :func:`synthesize_reach_avoid` with its choices dropped."""
    spec.validate_for(sys)
    rank, _ = _attract(sys.trans.items(), spec.target, spec.obstacle)
    return frozenset(rank), rank


def _synthesize(
    sys: FiniteTransitionSystem, spec: ReachAvoidSpec
) -> tuple[SynthesisResult | None, frozenset[str]]:
    """:func:`synthesize_reach_avoid`'s result, and the losing initial states."""
    spec.validate_for(sys)
    rank, picks = _attract(sys.trans.items(), spec.target, spec.obstacle)
    losing = spec.initial.difference(rank)
    if losing:
        return None, losing
    controller = Controller({x: picks[x] for x in sorted(picks)})
    return SynthesisResult(frozenset(rank), controller, rank), losing


def synthesize_reach_avoid(
    sys: FiniteTransitionSystem, spec: ReachAvoidSpec
) -> SynthesisResult | None:
    """Solve the reach-avoid problem, or return None if some initial state is
    losing (outside the winning set of :func:`winning_region`).

    The controller keeps, at each winning non-target state, every input whose
    successors all stay winning with strictly smaller rank; that is the
    largest choice set that cannot livelock under non-determinism.  The pass
    that computes the ranks records these inputs as each state enters:
    O(states + rows + sum of successor-set sizes).
    """
    return _synthesize(sys, spec)[0]


@dataclass(frozen=True)
class SpecVerdict:
    holds: bool
    witness: Trajectory | None = None


def check_spec(sys: FiniteTransitionSystem, spec: ReachAvoidSpec) -> SpecVerdict:
    """Decide the reach-avoid goal: every run from an initial state reaches the
    target in finitely many steps and touches no obstacle before it.

    A run violates the goal if it touches an obstacle first, stops at a dead
    end (a state without moves) outside the target, or goes on forever; a
    finite system shows the last as a lasso, a run that returns to a state
    already on it.  The witness is the first violating run in (initial
    state, input, successor) order.

    Runs do not depend on which input drives a move, so the pass of
    :func:`winning_region`, fed at each state one hyperarc chaining the heads
    of all its rows (a repeated head is waited for once per occurrence, so
    the arc completes with its last head), ranks exactly the states all of
    whose runs satisfy the goal; the target is tested first, so the pass's
    obstacles exclude it.  The goal holds iff every initial state is ranked.
    Otherwise the witness walk starts at the least unranked initial state
    and enters the first unranked child until it reaches an obstacle, a dead
    end or a state already on the run.  Every other unranked state has such
    a child, so the walk never backtracks.  Cost O(states + rows + sum of
    successor-set sizes), plus O(states * moves) for the witness.
    """
    spec.validate_for(sys)
    rank, _ = _attract((((x, x), [xp for u in us for xp in sys.trans[(x, u)]])
                        for x, us in sys._avail.items()),  # type: ignore[attr-defined]
                       spec.target, spec.obstacle - spec.target)
    x0 = next((x for x in sorted(spec.initial) if x not in rank), None)
    if x0 is None:
        return SpecVerdict(True, None)
    states, inputs, seen = [x0], [], set()
    while states[-1] not in spec.obstacle and states[-1] not in seen:
        x = states[-1]
        seen.add(x)
        step = next((
            (u, xp)
            for u in sys.available_inputs(x)
            for xp in sorted(sys.successors(x, u))
            if xp not in rank
        ), None)
        if step is None:
            break
        inputs.append(step[0])
        states.append(step[1])
    return SpecVerdict(False, Trajectory(states, inputs))


def is_sub_controller(candidate: Controller, reference: Controller) -> bool:
    """Pointwise containment of choices on the shared domain."""
    return all(
        candidate.choices[x] <= reference.choices[x]
        for x in candidate.domain & reference.domain
    )


def controller_count(sys: FiniteTransitionSystem, domain: Iterable[str]) -> int:
    """Number of static controllers assigning each domain state a non-empty
    subset of its available inputs."""
    return prod(2 ** len(sys.available_inputs(x)) - 1 for x in sorted(set(domain)))
