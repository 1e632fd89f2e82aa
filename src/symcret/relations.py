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

All three kinds come from one walk over the related pairs in sorted order.
Each time x1 changes it quantizes x1's rows once, mapping every successor x1'
to its image R(x1'); each image must then meet (ASR) or lie inside (MCR,
FRR) the abstract row.  The checks, interfaces, extended relations and the
extension all read this walk; a witness is replayed without it.

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
    _nogc,
    _share,
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
    not only on the pairs.  One pass over ``pairs`` checks each name once
    against its sorted carrier and keeps the carrier's own object: one object
    per name, and one object per distinct forward image (immutable, so
    callers cannot tell).  The pairs are kept sorted, in the order of every walk.
    """

    domain: tuple[str, ...]
    codomain: tuple[str, ...]
    pairs: frozenset[tuple[str, str]]

    def __post_init__(self) -> None:
        left = {a: a for a in sorted(dict.fromkeys(self.domain))}
        right = {b: b for b in sorted(dict.fromkeys(self.codomain))}
        fwd, inv = {a: set() for a in left}, {b: set() for b in right}
        for a, b in (rest := iter(self.pairs)):
            try:
                a, b = left[a], right[b]
            except KeyError:
                # The least stray pair by text (names may be ints); earlier ones are inside.
                strays = [(a, b), *((c, d) for c, d in rest if c not in left or d not in right)]
                a, b = min(strays, key=lambda p: (str(p[0]), str(p[1]), repr(p)))
                side = "domain" if a not in left else "codomain"
                raise DomainError(f"pair ({a}, {b}) leaves the {side}") from None
            fwd[a].add(b)
            inv[b].add(a)
        order = tuple([(a, b) for a, bs in fwd.items() for b in sorted(bs)])
        object.__setattr__(self, "domain", tuple(left))
        object.__setattr__(self, "codomain", tuple(right))
        object.__setattr__(self, "pairs", frozenset(order))
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_strict", all(fwd.values()))
        object.__setattr__(self, "_fwd", dict(zip(fwd, _share(map(frozenset, fwd.values())))))
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
        return frozenset().union(*map(self.forward, group))

    def is_strict(self) -> bool:
        """Every domain state is related to something (the cover is total)."""
        return self._strict  # type: ignore[attr-defined]

    def is_single_valued(self) -> bool:
        """No domain state is related to more than one codomain state."""
        return all(len(self.forward(a)) <= 1 for a in self.domain)


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
    non-empty set of concrete inputs that implement the abstract input there,
    one object per distinct set (immutable, so callers cannot tell)."""

    kind: RelationKind
    table: Mapping[tuple[str, str, str], frozenset[str]]

    def __post_init__(self) -> None:
        table = dict(zip(self.table, _share(map(frozenset, self.table.values()))))
        if not all(table.values()):
            key = next(key for key, us in table.items() if not us)
            raise ContractError(f"interface entry ({', '.join(map(str, key))}) is empty")
        object.__setattr__(self, "table", table)

    @classmethod
    def _trusted(cls, kind: RelationKind, table: dict) -> "Interface":
        """The interface of a builder's own ``table`` of non-empty frozensets, unchecked."""
        interface = object.__new__(cls)
        object.__setattr__(interface, "kind", kind)
        object.__setattr__(interface, "table", table)
        return interface

    def inputs_for(self, x1: str, x2: str, u2: str) -> frozenset[str]:
        try:
            return self.table[(x1, x2, u2)]
        except KeyError:
            raise ContractError(f"interface has no entry for ({x1}, {x2}, {u2})") from None


def _validate_triplet(s1: FiniteTransitionSystem, s2: FiniteTransitionSystem, rel: Relation) -> None:
    if rel.domain != s1.states:
        raise DomainError("relation domain must be the concrete state set")
    _validate_codomain(s2, rel)


def _validate_codomain(s2: FiniteTransitionSystem, rel: Relation) -> None:
    if rel.codomain != s2.states:
        raise DomainError("relation codomain must be the abstract state set")


def _require(
    kind: RelationKind, s1: FiniteTransitionSystem, s2: FiniteTransitionSystem, rel: Relation
) -> None:
    """Preconditions of a check: matching carriers, and for MCR and FRR a
    strict relation."""
    _validate_triplet(s1, s2, rel)
    if kind is not RelationKind.ASR and not rel.is_strict():
        raise StrictnessError(f"{kind.value} guarantees assume a strict relation")


def _walk(
    kind: RelationKind, s1: FiniteTransitionSystem, s2: FiniteTransitionSystem,
    rel: Relation, first: bool,
) -> Iterator[tuple[str, str, str, list[str], dict[str, tuple[frozenset[str], ...]]]]:
    """Yield (x1, x2, u2, us, post) for each related pair (x1, x2), in sorted
    order, and u2 available at x2.  ``post``, built once per x1, maps each u1
    available there to the images of its successors.  Their union Q(x1, u1) is not
    built: rows have few successors, and the union costs more than it saves.
    ``us`` lists the u1 (only the least when ``first``; for FRR only u2) whose
    every image meets (ASR) or lies inside (MCR, FRR) the row of (x2, u2).
    Callers validate the triplet."""
    quantize = rel._fwd.__getitem__  # type: ignore[attr-defined]
    trans1, trans2 = s1.trans, s2.trans
    avail1, avail2 = s1._avail, s2._avail  # type: ignore[attr-defined]
    some, frr = kind is RelationKind.ASR, kind is RelationKind.FRR
    last = post = None
    for x1, x2 in rel._order:  # type: ignore[attr-defined]
        if x1 != last:
            last, post = x1, {}
            for u1 in avail1[x1]:
                post[u1] = tuple(map(quantize, trans1[(x1, u1)]))
        for u2 in avail2[x2]:
            row = trans2[(x2, u2)]
            us = []
            for u1, images in post.items():
                if frr and u1 != u2:
                    continue
                for image in images:
                    if image.isdisjoint(row) if some else not image <= row:
                        break
                else:
                    us.append(u1)
                    if first:
                        break
            yield x1, x2, u2, us, post


def _escape(
    s1: FiniteTransitionSystem, rel: Relation, x1: str, u1: str, row: frozenset[str]
) -> tuple[str, str] | None:
    """The least x1' in F1(x1, u1) with a quantization outside ``row``, and its
    least such quantization, or None (the common case, found first without
    ordering anything); an input unknown to ``s1`` raises."""
    succ, forward = s1.successors(x1, u1), rel.forward
    for x1p in succ:
        if not forward(x1p) <= row:
            break
    else:
        return None
    x1p = min(x1p for x1p in succ if not forward(x1p) <= row)
    return x1p, min(forward(x1p) - row)


def _refutation(
    kind: RelationKind, s1: FiniteTransitionSystem, s2: FiniteTransitionSystem,
    rel: Relation, x1: str, x2: str, u2: str,
) -> RelationVerdict:
    """Verdict refuted at a triple with no admissible input.  For MCR and FRR
    the evidence is the least escape of the candidate inputs (the available
    ones, for FRR only u2); there is none when no input is a candidate."""
    evidence = None
    if kind is not RelationKind.ASR:
        row = s2.successors(x2, u2)
        evidence = min((_escape(s1, rel, x1, u1, row) for u1 in s1.available_inputs(x1)
                        if kind is RelationKind.MCR or u1 == u2), default=None)
    return RelationVerdict(False, RelationWitness(x1, x2, u2, evidence))


def check_relation(
    kind: RelationKind, s1: FiniteTransitionSystem, s2: FiniteTransitionSystem, rel: Relation
) -> RelationVerdict:
    """Decide the relation of ``kind`` from ``s1`` to ``s2`` along ``rel``,
    refuted at the first (x1, x2, u2) in sorted order with no admissible u1.
    For MCR and FRR a non-strict ``rel`` is a :class:`StrictnessError`.

    Cost: O(P log P) for the P related pairs, O(m * d) per related x1 to
    quantize its m rows of d successors, and O(d * r) for images of size r per
    input tested on the T triples, up to the first admissible one."""
    kind = RelationKind(kind)
    _require(kind, s1, s2, rel)
    for x1, x2, u2, us, _ in _walk(kind, s1, s2, rel, first=True):
        if not us:
            return _refutation(kind, s1, s2, rel, x1, x2, u2)
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
    """Re-evaluate a refutation against the raw definition, not the walk
    that found it.  True means the witness still refutes."""
    kind = RelationKind(kind)
    _validate_triplet(s1, s2, rel)
    x1, x2, u2 = witness.x1, witness.x2, witness.u2
    if (x1, x2) not in rel.pairs or u2 not in s2.available_inputs(x2):
        return False
    if kind is RelationKind.FRR and u2 not in s1.available_inputs(x1):
        return True
    row = s2.successors(x2, u2)
    candidates = (u2,) if kind is RelationKind.FRR else s1.available_inputs(x1)
    # u1 is admissible if each successor's image meets (ASR) or lies in (MCR, FRR) the row.
    for u1 in candidates:
        images = map(rel.forward, s1.successors(x1, u1))
        if all(not q.isdisjoint(row) if kind is RelationKind.ASR else q <= row for q in images):
            return False
    if witness.evidence is not None:
        x1p, x2p = witness.evidence
        if not any(x1p in s1.successors(x1, u1) for u1 in candidates):
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
        for x1, x2, u2, us, _ in _walk(kind, s1, s2, rel, first=False)
        for u1 in us
    )
    return ExtendedRelation(kind, tuples)


@_nogc
def maximal_interface(
    s1: FiniteTransitionSystem,
    s2: FiniteTransitionSystem,
    rel: Relation,
    kind: RelationKind,
) -> Interface:
    """The largest interface for ``kind``: every concrete input whose
    annotated tuple satisfies the local condition.  The walk of
    :func:`check_relation`, testing every input, collects the entries; the
    first empty one raises :class:`RelationCheckError` with the verdict that
    check returns.

    Cost: that of the check with every concrete input tested,
    O(P log P + T * m * d * r), and one frozenset per distinct entry, looked up
    by the walk's input list.  The collector is paused: the table holds no cycles.
    """
    kind = RelationKind(kind)
    _require(kind, s1, s2, rel)
    table: dict[tuple[str, str, str], frozenset[str]] = {}
    shared: dict[tuple[str, ...], frozenset[str]] = {}
    for x1, x2, u2, us, _ in _walk(kind, s1, s2, rel, first=False):
        if not us:
            raise RelationCheckError(kind, _refutation(kind, s1, s2, rel, x1, x2, u2))
        # ``us`` is not empty, so a missing entry is the only falsy lookup.
        table[(x1, x2, u2)] = shared.get(key := tuple(us)) or shared.setdefault(key, frozenset(us))
    return Interface._trusted(kind, table)


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
    for x1, x2, u2, us, _ in _walk(kind, s1, s2, rel, first=False):
        bad = interface.inputs_for(x1, x2, u2).difference(us)
        if bad:
            u1 = min(bad)
            if u1 not in s1.available_inputs(x1):
                raise ContractError(
                    f"interface offers unavailable input {u1} at ({x1}, {x2}, {u2})"
                )
            raise ContractError(
                f"interface entry ({x1}, {x2}, {u2}) -> {u1} violates the {kind.value} condition"
            )


@_nogc
def mcr_extension(
    s1: FiniteTransitionSystem, s2: FiniteTransitionSystem, rel: Relation
) -> FiniteTransitionSystem:
    """Complete an alternating-simulation abstraction so that the memoryless
    condition holds, by adding to each abstract row everything the related
    concrete moves can be quantized to.

    Input availability is preserved row for row; only successor sets grow.
    The walk keeps, per row (x2, u2) and related x1, the successor images of
    the least admissible u1.  Checked against them, the returned system
    stands in the memoryless concretization relation with ``s1`` along
    ``rel`` (each kept image inside its row) and with ``s2`` along identity
    (the same available inputs, each original row inside its row).
    Cost: one ASR walk, then an O(T * d) check of the kept images for the T
    triples of d successors, no MCR walk; the rows are frozen with no name looked
    up again, one object per distinct row.  Collector paused, as the table holds no cycles.
    """
    _validate_triplet(s1, s2, rel)
    if not rel.is_strict():
        raise StrictnessError("extension needs a strict relation")
    kind = RelationKind.ASR
    table = {key: set(succ) for key, succ in s2.trans.items()}
    kept: dict[tuple[str, str], list[tuple[frozenset[str], ...]]] = {}
    for x1, x2, u2, us, post in _walk(kind, s1, s2, rel, first=False):
        if not us:
            raise RelationCheckError(kind, _refutation(kind, s1, s2, rel, x1, x2, u2))
        row = table[(x2, u2)]
        for u1 in us:
            row.update(*post[u1])
        kept.setdefault((x2, u2), []).append(post[us[0]])
    # Unchecked, the grown rows must hold S2's own names, as rel's codomain usually does.
    own = all(a is b for a, b in zip(rel.codomain, s2.states))
    build = FiniteTransitionSystem._trusted if own else FiniteTransitionSystem
    frozen = dict(zip(table, _share(map(frozenset, table.values()))))
    extended = build(s2.states, s2.inputs, frozen)
    trans = extended.trans
    if not all(image <= trans[key] for key, certificate in kept.items()
               for images in certificate for image in images):
        raise SymcretError("extension postcondition failed against the concrete system")
    if extended._avail != s2._avail or not all(  # type: ignore[attr-defined]
            succ <= trans[key] for key, succ in s2.trans.items()):
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
