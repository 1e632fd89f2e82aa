"""State relations between two systems and the three concretization checks.

Three progressively stronger local conditions relate a concrete system S1 to
an abstraction S2 through a state relation R:

* ``asr``  (alternating simulation): for each related pair and abstract input
  there is a concrete input under which every concrete successor stays
  related to *some* abstract successor.
* ``mcr``  (memoryless concretization): the concrete input must keep *every*
  related image of every concrete successor inside the abstract successors.
  This is exactly what a controller that sees only the current concrete state
  needs in order to be trusted.
* ``frr``  (feedback refinement): the memoryless condition with the abstract
  input itself played on the concrete side, so abstract and concrete input
  alphabets coincide where related.

All three kinds come from one admissible-input pass: for each related pair
(x1, x2) and abstract input u2 available at x2, the concrete inputs u1 whose
tuple (x1, x2, u1, u2) satisfies the local condition.  The checks, interfaces,
extended relations, witness replay and the extension are all read off it.

Checkers return refutation witnesses that are minimal in lexicographic order
of (x1, x2, u2) and can be replayed against the raw definitions.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Mapping

from .core import (
    ContractError,
    DomainError,
    FiniteTransitionSystem,
    ReachAvoidSpec,
    SymcretError,
)


class StrictnessError(ContractError):
    """The operation needs a strict relation (every concrete state related)."""


class RelationKind(str, Enum):
    ASR = "asr"
    MCR = "mcr"
    FRR = "frr"


@dataclass(frozen=True)
class Relation:
    """Binary relation between two state sets, kept with both carriers.

    ``domain`` and ``codomain`` are the full state tuples of the two systems
    the relation connects; strictness and the quantizer view depend on them,
    not only on the pairs.
    """

    domain: tuple[str, ...]
    codomain: tuple[str, ...]
    pairs: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        domain = tuple(sorted(dict.fromkeys(self.domain)))
        codomain = tuple(sorted(dict.fromkeys(self.codomain)))
        pairs = frozenset((a, b) for a, b in self.pairs)
        fwd: dict[str, set[str]] = {a: set() for a in domain}
        inv: dict[str, set[str]] = {b: set() for b in codomain}
        for a, b in pairs:
            if a not in fwd or b not in inv:
                # The least stray pair by text, not hash order (names may be ints).
                a, b = min((p for p in pairs if p[0] not in fwd or p[1] not in inv),
                           key=lambda p: (str(p[0]), str(p[1]), repr(p)))
                side = "domain" if a not in fwd else "codomain"
                raise DomainError(f"pair ({a}, {b}) leaves the {side}")
            fwd[a].add(b)
            inv[b].add(a)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_fwd", {a: frozenset(bs) for a, bs in fwd.items()})
        object.__setattr__(self, "_inv", {b: frozenset(as_) for b, as_ in inv.items()})

    @staticmethod
    def identity(states: Iterable[str]) -> "Relation":
        states = tuple(states)
        return Relation(states, states, frozenset((x, x) for x in states))

    def forward(self, a: str) -> frozenset[str]:
        """Quantizer view: all codomain states related to ``a``."""
        try:
            return self._fwd[a]  # type: ignore[attr-defined]
        except KeyError:
            raise DomainError(f"unknown domain state {a!r}") from None

    def inverse_map(self, b: str) -> frozenset[str]:
        """Cell view: all domain states related to ``b``."""
        try:
            return self._inv[b]  # type: ignore[attr-defined]
        except KeyError:
            raise DomainError(f"unknown codomain state {b!r}") from None

    def image(self, group: Iterable[str]) -> frozenset[str]:
        out: set[str] = set()
        for a in group:
            out |= self.forward(a)
        return frozenset(out)

    def is_strict(self) -> bool:
        """Every domain state is related to something (the cover is total)."""
        return all(self.forward(a) for a in self.domain)

    def is_single_valued(self) -> bool:
        """No domain state is related to more than one codomain state."""
        return all(len(self.forward(a)) <= 1 for a in self.domain)


def compose(first: Relation, second: Relation) -> Relation:
    """Relational composition: (a, c) related iff some b links a to c."""
    if set(first.codomain) != set(second.domain):
        raise DomainError("composition needs matching middle state sets")
    pairs = {
        (a, c)
        for a, b in first.pairs
        for c in second.forward(b)
    }
    return Relation(first.domain, second.codomain, frozenset(pairs))


@dataclass(frozen=True)
class ExtendedRelation:
    """Input-annotated relation: all (x1, x2, u1, u2) satisfying the local
    condition of ``kind``.  Materialised on demand, never required by the
    checkers themselves."""

    kind: RelationKind
    tuples: frozenset[tuple[str, str, str, str]]


@dataclass(frozen=True)
class RelationWitness:
    """Refuting triple, plus for the universal-containment kinds the first
    successor pair (x1', x2') showing that no concrete input works."""

    x1: str
    x2: str
    u2: str
    evidence: tuple[str, str] | None = None


@dataclass(frozen=True)
class RelationVerdict:
    holds: bool
    witness: RelationWitness | None = None


class RelationCheckError(SymcretError):
    """Raised when an operation requires a relation check that fails."""

    def __init__(self, kind: RelationKind, verdict: RelationVerdict) -> None:
        w = verdict.witness
        escape = "" if w.evidence is None else ", successor pair (%s, %s) escapes" % w.evidence
        super().__init__(f"{kind.value} check failed at ({w.x1}, {w.x2}, {w.u2}){escape}")
        self.kind = kind
        self.verdict = verdict


@dataclass(frozen=True)
class Interface:
    """Map from (concrete state, abstract state, abstract input) to the
    non-empty set of concrete inputs that implement the abstract input there."""

    kind: RelationKind
    table: Mapping[tuple[str, str, str], frozenset[str]]

    def __post_init__(self) -> None:
        table = {k: frozenset(v) for k, v in dict(self.table).items()}
        for key, us in table.items():
            if not us:
                raise ContractError(f"interface entry ({', '.join(key)}) is empty")
        object.__setattr__(self, "table", table)

    def inputs_for(self, x1: str, x2: str, u2: str) -> frozenset[str]:
        try:
            return self.table[(x1, x2, u2)]
        except KeyError:
            raise ContractError(f"interface has no entry for ({x1}, {x2}, {u2})") from None


def _validate_triplet(s1: FiniteTransitionSystem, s2: FiniteTransitionSystem, rel: Relation) -> None:
    if set(rel.domain) != set(s1.states):
        raise DomainError("relation domain must be the concrete state set")
    _validate_codomain(s2, rel)


def _validate_codomain(s2: FiniteTransitionSystem, rel: Relation) -> None:
    if set(rel.codomain) != set(s2.states):
        raise DomainError("relation codomain must be the abstract state set")


def _require(
    kind: RelationKind, s1: FiniteTransitionSystem, s2: FiniteTransitionSystem, rel: Relation
) -> None:
    """Preconditions of a check: matching carriers, and for MCR and FRR a
    strict relation."""
    _validate_triplet(s1, s2, rel)
    if kind is not RelationKind.ASR and not rel.is_strict():
        raise StrictnessError(f"{kind.value} guarantees assume a strict relation")


def _triples(s2: FiniteTransitionSystem, rel: Relation) -> Iterator[tuple[str, str, str]]:
    """Every (x1, x2, u2) the local condition quantifies over, in witness order."""
    for x1, x2 in sorted(rel.pairs):
        for u2 in s2.available_inputs(x2):
            yield x1, x2, u2


def _candidates(
    kind: RelationKind, s1: FiniteTransitionSystem, x1: str, u2: str
) -> tuple[str, ...]:
    """Concrete inputs that may implement ``u2`` at ``x1``: the available ones,
    and for FRR only ``u2`` itself."""
    avail = s1.available_inputs(x1)
    if kind is RelationKind.FRR:
        return (u2,) if u2 in avail else ()
    return avail


def _admissible(
    kind: RelationKind, s1: FiniteTransitionSystem, s2: FiniteTransitionSystem,
    rel: Relation, x1: str, x2: str, u2: str,
) -> Iterator[str]:
    """Lazily yield, in sorted order, each u1 whose tuple (x1, x2, u1, u2)
    satisfies the local condition of ``kind``: the related images of every
    successor under u1 meet (ASR) or lie inside (MCR, FRR) the abstract row
    of (x2, u2).  The one place that condition is evaluated; callers validate
    the triplet, so the tables are read directly."""
    row = s2.trans[(x2, u2)]
    fwd = rel._fwd  # type: ignore[attr-defined]
    trans = s1.trans
    some = kind is RelationKind.ASR
    for u1 in _candidates(kind, s1, x1, u2):
        for x1p in trans[(x1, u1)]:
            image = fwd[x1p]
            if image.isdisjoint(row) if some else not image <= row:
                break
        else:
            yield u1


def _escape(
    s1: FiniteTransitionSystem, rel: Relation, x1: str, u1: str, row: frozenset[str]
) -> tuple[str, str] | None:
    """The least x1' in F1(x1, u1) with a quantization outside ``row``, and its
    least such quantization, or None; an input unknown to ``s1`` raises."""
    for x1p in sorted(s1.successors(x1, u1)):
        outside = rel.forward(x1p) - row
        if outside:
            return x1p, min(outside)
    return None


def _refutation(
    kind: RelationKind, s1: FiniteTransitionSystem, s2: FiniteTransitionSystem,
    rel: Relation, x1: str, x2: str, u2: str,
) -> RelationWitness:
    """Witness for a triple with no admissible input.  For MCR and FRR every
    candidate input escapes, and the evidence is the least of their escapes;
    there is none when no input is a candidate."""
    if kind is RelationKind.ASR:
        return RelationWitness(x1, x2, u2)
    row = s2.successors(x2, u2)
    escapes = [_escape(s1, rel, x1, u1, row) for u1 in _candidates(kind, s1, x1, u2)]
    return RelationWitness(x1, x2, u2, min(escapes, default=None))


def check_relation(
    kind: RelationKind, s1: FiniteTransitionSystem, s2: FiniteTransitionSystem, rel: Relation
) -> RelationVerdict:
    """Decide the relation of ``kind`` from ``s1`` to ``s2`` along ``rel``,
    refuted at the first (x1, x2, u2) in sorted order with no admissible u1.
    For MCR and FRR a non-strict ``rel`` is a :class:`StrictnessError`.

    Cost: O(P log P) for the P related pairs, plus at most O(T * m * d * r)
    over T triples, m concrete inputs (tried up to the first admissible one),
    d successors per row and r related abstract states per successor."""
    kind = RelationKind(kind)
    _require(kind, s1, s2, rel)
    for x1, x2, u2 in _triples(s2, rel):
        if next(_admissible(kind, s1, s2, rel, x1, x2, u2), None) is None:
            return RelationVerdict(False, _refutation(kind, s1, s2, rel, x1, x2, u2))
    return RelationVerdict(True, None)


def check_asr(
    s1: FiniteTransitionSystem, s2: FiniteTransitionSystem, rel: Relation
) -> RelationVerdict:
    """Alternating simulation from ``s1`` to ``s2`` along ``rel``."""
    return check_relation(RelationKind.ASR, s1, s2, rel)


def check_mcr(
    s1: FiniteTransitionSystem, s2: FiniteTransitionSystem, rel: Relation
) -> RelationVerdict:
    """Memoryless concretization relation from ``s1`` to ``s2`` along ``rel``."""
    return check_relation(RelationKind.MCR, s1, s2, rel)


def check_frr(
    s1: FiniteTransitionSystem, s2: FiniteTransitionSystem, rel: Relation
) -> RelationVerdict:
    """Feedback refinement relation from ``s1`` to ``s2`` along ``rel``."""
    return check_relation(RelationKind.FRR, s1, s2, rel)


def replay_witness(
    kind: RelationKind,
    s1: FiniteTransitionSystem,
    s2: FiniteTransitionSystem,
    rel: Relation,
    witness: RelationWitness,
) -> bool:
    """Re-evaluate a refutation against the raw definition.  True means the
    witness still refutes."""
    kind = RelationKind(kind)
    _validate_triplet(s1, s2, rel)
    x1, x2, u2 = witness.x1, witness.x2, witness.u2
    if (x1, x2) not in rel.pairs or u2 not in s2.available_inputs(x2):
        return False
    if kind is RelationKind.FRR and u2 not in s1.available_inputs(x1):
        return True
    if next(_admissible(kind, s1, s2, rel, x1, x2, u2), None) is not None:
        return False
    if witness.evidence is not None:
        x1p, x2p = witness.evidence
        in_some_successor = any(
            x1p in s1.successors(x1, u1) for u1 in _candidates(kind, s1, x1, u2)
        )
        if not in_some_successor:
            return False
        if x2p not in rel.forward(x1p) or x2p in s2.successors(x2, u2):
            return False
    return True


def extended_relation(
    kind: RelationKind,
    s1: FiniteTransitionSystem,
    s2: FiniteTransitionSystem,
    rel: Relation,
) -> ExtendedRelation:
    """All input-annotated tuples satisfying the local condition of ``kind``."""
    kind = RelationKind(kind)
    _validate_triplet(s1, s2, rel)
    tuples = frozenset(
        (x1, x2, u1, u2)
        for x1, x2, u2 in _triples(s2, rel)
        for u1 in _admissible(kind, s1, s2, rel, x1, x2, u2)
    )
    return ExtendedRelation(kind, tuples)


def maximal_interface(
    s1: FiniteTransitionSystem,
    s2: FiniteTransitionSystem,
    rel: Relation,
    kind: RelationKind,
) -> Interface:
    """The largest interface for ``kind``: every concrete input whose
    annotated tuple satisfies the local condition.  One pass over the triples
    of :func:`check_relation` collects the entries; the first empty one raises
    :class:`RelationCheckError` with the verdict that check returns.

    Cost: that of the check with every concrete input tried,
    O(P log P + T * m * d * r).
    """
    kind = RelationKind(kind)
    _require(kind, s1, s2, rel)
    table: dict[tuple[str, str, str], frozenset[str]] = {}
    for x1, x2, u2 in _triples(s2, rel):
        entry = frozenset(_admissible(kind, s1, s2, rel, x1, x2, u2))
        if not entry:
            witness = _refutation(kind, s1, s2, rel, x1, x2, u2)
            raise RelationCheckError(kind, RelationVerdict(False, witness))
        table[(x1, x2, u2)] = entry
    return Interface(kind, table)


def validate_interface(
    s1: FiniteTransitionSystem,
    s2: FiniteTransitionSystem,
    rel: Relation,
    interface: Interface,
) -> None:
    """Check the two defining interface conditions: entries exist and are
    non-empty for every (related pair, available abstract input), and each
    entry only contains inputs whose annotated tuple satisfies the local
    condition of the interface's kind.  The error names the least offending
    input of the first bad entry."""
    _validate_triplet(s1, s2, rel)
    kind = interface.kind
    for x1, x2, u2 in _triples(s2, rel):
        entry = interface.inputs_for(x1, x2, u2)
        # Reports the least offending input only: the loop body always raises.
        for u1 in sorted(entry.difference(_admissible(kind, s1, s2, rel, x1, x2, u2))):
            if u1 not in s1.available_inputs(x1):
                raise ContractError(
                    f"interface offers unavailable input {u1} at ({x1}, {x2}, {u2})"
                )
            raise ContractError(
                f"interface entry ({x1}, {x2}, {u2}) -> {u1} violates the {kind.value} condition"
            )


def mcr_extension(
    s1: FiniteTransitionSystem, s2: FiniteTransitionSystem, rel: Relation
) -> FiniteTransitionSystem:
    """Complete an alternating-simulation abstraction so that the memoryless
    condition holds, by adding to each abstract row everything the related
    concrete moves can be quantized to.

    Input availability is preserved row for row; only successor sets grow.
    The returned system is checked to stand in the memoryless concretization
    relation both with ``s1`` along ``rel`` and with ``s2`` along identity.
    Cost: one maximal ASR interface, the union of its entries' images, and
    the two MCR checks of that postcondition.
    """
    _validate_triplet(s1, s2, rel)
    if not rel.is_strict():
        raise StrictnessError("extension needs a strict relation")
    interface = maximal_interface(s1, s2, rel, RelationKind.ASR)
    table: dict[tuple[str, str], set[str]] = {
        key: set(succ) for key, succ in s2.trans.items()
    }
    for (x1, x2, u2), entry in interface.table.items():
        for u1 in entry:
            table[(x2, u2)] |= rel.image(s1.successors(x1, u1))
    extended = FiniteTransitionSystem(
        s2.states, s2.inputs, {k: frozenset(v) for k, v in table.items()}
    )
    if not check_mcr(s1, extended, rel).holds:
        raise SymcretError("extension postcondition failed against the concrete system")
    if not check_mcr(s2, extended, Relation.identity(s2.states)).holds:
        raise SymcretError("extension postcondition failed against the original abstraction")
    return extended


def translate_spec(spec: ReachAvoidSpec, rel: Relation) -> ReachAvoidSpec:
    """Carry a reach-avoid goal across the relation.

    Initial and obstacle sets are the forward images.  The abstract target
    keeps only states whose whole (non-empty) cell lies inside the concrete
    target and which are not already obstacles; that way reaching the
    abstract target certifies reaching the concrete one even when cells
    overlap.
    """
    if not rel.is_strict():
        raise StrictnessError("spec translation needs a strict relation")
    q_init = rel.image(spec.initial)
    q_obst = rel.image(spec.obstacle)
    q_target = frozenset(
        q
        for q in rel.codomain
        if rel.inverse_map(q) and rel.inverse_map(q) <= spec.target
    ) - q_obst
    if not q_target <= rel.image(spec.target):
        raise SymcretError("translated target escapes the image of the concrete target")
    if not q_target:
        warnings.warn(
            "translated target set is empty; abstract synthesis cannot succeed",
            UserWarning,
            stacklevel=2,
        )
    return ReachAvoidSpec(q_init, q_target, q_obst)
