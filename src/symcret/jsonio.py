"""File formats: UTF-8 JSON with a top-level format tag, ``symcret/1``.

A system is ``{"states": [...], "inputs": [...], "trans": {"x|u": [...]}}``
with ``|`` separating the composite transition key, so identifiers may not
contain ``|``.  Relations are arrays of pairs, controllers map states to
input arrays, rationals are written as ``"p/q"`` strings.

Serialization is canonical, so save -> load -> save is bit-identical: arrays
of names are sorted, and :func:`dumps` writes the text of ``json.dumps(obj,
indent=2, sort_keys=True, ensure_ascii=False)`` plus a final newline, that
is a 2-space indent, sorted keys, unescaped UTF-8 and ``\n`` at the end.
Below Python 3.13 the stdlib writes indented JSON with a pure-Python
generator per token, so ``dumps`` uses its own iterative writer there,
about twice as fast on a 1.3 MB bundle and no faster on a few kB, for the
types the library writes: dicts with string keys, lists, tuples, strings,
ints, booleans and None.  Any other value (a
float, an ``IntEnum``) sends the whole document to ``json.dumps``, whose C
encoder writes every document from 3.13 on.  The writer goes when support
for 3.12 ends.  ``load``, the writer and every decoder pause the cyclic
collector while they run: what they build holds no reference cycles.

A cover is read and written as the integer rows that ``CellCover`` indexes,
with no ``Fraction`` in between.  Its cells are read field by field in bulk:
all endpoints joined and matched by one regex, then ``int`` and ``gcd``
through ``map``.  If any check fails, it is read cell by cell, each ``"p/q"``
parsed on its own, so a malformed cover raises the same error either way.

A malformed document (a missing field, a string or number where an array of
names belongs, a relation pair without two names, a number where a rational
string or a name belongs, a rational not spelled ``p/q``, an endpoint flag
that is not a JSON boolean) makes its decoder raise :class:`FormatError`
naming the document kind, a validation error (exit code 2) on the command
line.  In a bundle, the error also names the member it comes from.
"""
from __future__ import annotations

import functools
import json
import re
from collections.abc import Callable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, repeat
from math import gcd
from operator import add, floordiv
from pathlib import Path
from sys import version_info
from typing import Any

from .core import (
    Controller, DomainError, FiniteTransitionSystem, ReachAvoidSpec, SymcretError, Trajectory,
    _nogc,
)
from .interval import AbstractInput, AffineMap, CellCover, Row
from .relations import Interface, Relation, RelationKind

FORMAT = "symcret/1"
KEY_SEP = "|"


class FormatError(DomainError):
    """Malformed or wrong-version document."""


def _check_id(name: str) -> str:
    if KEY_SEP in name:
        raise FormatError(f"identifier {name!r} may not contain {KEY_SEP!r}")
    return name


def _names(value: Any) -> list[str]:
    """``value`` if it is an array of strings; anything else, a string
    included, is a TypeError, which the decoder reports: nothing is coerced."""
    if isinstance(value, list):
        for name in value:
            if not isinstance(name, str):
                break
        else:
            return value
    raise TypeError(f"expected an array of names, got {json.dumps(value)}")


def _typed(value: Any, kind: type, what: str) -> Any:
    """``value`` if it is a ``kind``; anything else is a TypeError, which the
    decoder reports: nothing is coerced."""
    if isinstance(value, kind):
        return value
    raise TypeError(f"expected {what}, got {json.dumps(value)}")


def _pair(value: Any) -> list[str]:
    names = _names(value)
    if len(names) != 2:
        raise TypeError(f"expected a pair of names, got {json.dumps(value)}")
    return names


def tagged(kind: str, body: dict[str, Any]) -> dict[str, Any]:
    return {"format": FORMAT, "kind": kind, **body}


def _decoder(kind: str) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decode only ``kind`` documents, and report a lookup or type error in a
    malformed one (a missing field, a number where a list belongs) as a
    FormatError naming the kind."""
    def wrap(decode: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(decode)
        def checked(obj: Any, *args: Any) -> Any:
            if not isinstance(obj, Mapping):
                raise FormatError("document is not a JSON object")
            if obj.get("format") != FORMAT:
                raise FormatError(f"expected format {FORMAT!r}, got {obj.get('format')!r}")
            if obj.get("kind") != kind:
                raise FormatError(f"expected kind {kind!r}, got {obj.get('kind')!r}")
            try:
                return decode(obj, *args)
            except (AttributeError, KeyError, TypeError) as err:
                message = f"malformed {kind} document ({type(err).__name__}: {err})"
                raise FormatError(message) from None
        return _nogc(checked)
    return wrap


def fraction_to_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def fraction_from_str(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise FormatError(f"zero denominator in {text!r}") from None


# ---------------------------------------------------------------- systems


def system_to_obj(sys: FiniteTransitionSystem) -> dict[str, Any]:
    trans, rows, seen = {}, sys.trans, set()  # rows in sorted order, a name checked at first use
    for x, us in sys._avail.items():  # type: ignore[attr-defined]
        head = f"{_check_id(x)}{KEY_SEP}" if us else ""
        for u in us:
            if u not in seen:
                seen.add(_check_id(u))
            trans[head + u] = sorted(rows[x, u])
    return tagged("system", {
        "states": list(sys.states),
        "inputs": list(sys.inputs),
        "trans": trans,
    })


@_decoder("system")
def system_from_obj(obj: Mapping[str, Any]) -> FiniteTransitionSystem:
    """One pass maps each name to the carrier's own object and each distinct row to one
    frozenset.  Past an unknown name or with a malformed carrier, it checks only the rows'
    format, and the constructor names the fault."""
    rows, table, empty, trusted = obj["trans"].items(), {}, frozenset(), True
    pool = {empty: empty}
    try:
        names = {x: x for x in sorted(dict.fromkeys(_names(obj["states"])))}
        labels = {u: u for u in sorted(dict.fromkeys(_names(obj["inputs"])))}
    except (KeyError, TypeError):
        names, labels, trusted = {}, {}, False
    name = names.__getitem__
    for key, succ in rows:
        x, sep, u = key.partition(KEY_SEP)
        if not sep:
            raise FormatError(f"transition key {key!r} lacks the {KEY_SEP!r} separator")
        if trusted and isinstance(succ, list):
            try:
                row = frozenset(map(name, succ))
                table[names[x], labels[u]] = pool.setdefault(row, row)
                continue
            except (KeyError, TypeError):
                trusted = False
        table[x, u] = _names(succ)
    if trusted:
        sys = FiniteTransitionSystem._trusted(tuple(names), tuple(labels), table, empty)
    else:
        sys = FiniteTransitionSystem(_names(obj["states"]), _names(obj["inputs"]), table)
    sys.require_non_blocking()
    return sys


# -------------------------------------------------------------- relations


def relation_to_obj(rel: Relation) -> dict[str, Any]:
    return tagged("relation", {
        "pairs": [list(p) for p in rel._order],  # type: ignore[attr-defined]
    })


@_decoder("relation")
def relation_from_obj(
    obj: Mapping[str, Any], s1: FiniteTransitionSystem, s2: FiniteTransitionSystem
) -> Relation:
    pairs = _typed(obj["pairs"], list, "an array of pairs")
    return Relation(s1.states, s2.states, map(_pair, pairs))


# ------------------------------------------------------------ controllers


def controller_to_obj(ctrl: Controller) -> dict[str, Any]:
    return tagged("controller", {
        "choices": {x: sorted(ctrl.choices[x]) for x in sorted(ctrl.choices)},
    })


@_decoder("controller")
def controller_from_obj(obj: Mapping[str, Any]) -> Controller:
    return Controller({x: _names(us) for x, us in obj["choices"].items()})


# ------------------------------------------------------------------ specs


def spec_to_obj(spec: ReachAvoidSpec) -> dict[str, Any]:
    return tagged("spec", {
        "initial": sorted(spec.initial),
        "target": sorted(spec.target),
        "obstacle": sorted(spec.obstacle),
    })


@_decoder("spec")
def spec_from_obj(obj: Mapping[str, Any]) -> ReachAvoidSpec:
    return ReachAvoidSpec(_names(obj["initial"]), _names(obj["target"]), _names(obj["obstacle"]))


# ------------------------------------------------------------- interfaces


def interface_to_obj(interface: Interface) -> dict[str, Any]:
    table = {
        KEY_SEP.join((_check_id(x1), _check_id(x2), _check_id(u2))): sorted(us)
        for (x1, x2, u2), us in sorted(interface.table.items())
    }
    return tagged("interface", {"relation_kind": interface.kind.value, "table": table})


@_decoder("interface")
def interface_from_obj(obj: Mapping[str, Any]) -> Interface:
    table: dict[tuple[str, str, str], list[str]] = {}
    for key, us in obj["table"].items():
        parts = key.split(KEY_SEP)
        if len(parts) != 3:
            raise FormatError(f"interface key {key!r} must have three components")
        table[(parts[0], parts[1], parts[2])] = _names(us)
    try:
        kind = RelationKind(obj["relation_kind"])
    except ValueError:
        raise TypeError(
            f"expected asr, mcr or frr, got {json.dumps(obj['relation_kind'])}"
        ) from None
    return Interface(kind, table)


# ----------------------------------------------------------------- covers


_RATIONAL = re.compile(r"(-?[0-9]+)/([0-9]+)")
_RATIONALS = re.compile(r"(?:-?[0-9]+/[0-9]+,)*-?[0-9]+/[0-9]+")  # "p/q" strings joined by ","
_CELL_FIELDS = ("state", "lo", "hi", "lo_closed", "hi_closed")


def _ratio(value: Any) -> tuple[int, int]:
    """``value`` as a numerator and a positive denominator in lowest terms if
    it is a ``"p/q"`` string; anything else, even a spelling that
    ``Fraction`` reads, is a TypeError, which the decoder reports: nothing is
    coerced."""
    match = _RATIONAL.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        raise TypeError(f'expected a "p/q" string, got {json.dumps(value)}')
    try:
        numerator, denominator = int(match[1]), int(match[2])
    except ValueError:  # more digits than int() converts
        raise TypeError(f"a rational with {len(value)} characters is too long") from None
    if not denominator:
        raise FormatError(f"zero denominator in {value!r}")
    common = gcd(numerator, denominator)
    return numerator // common, denominator // common


def _cell_row(obj: Mapping[str, Any]) -> Row:
    """A cell as the integer row ``CellCover`` indexes, its fields checked in
    the order their errors are reported: name, endpoints, flags."""
    name = _typed(obj["state"], str, "a name")
    lo, hi = _ratio(obj["lo"]), _ratio(obj["hi"])
    return (name, *lo, _typed(obj["lo_closed"], bool, "true or false"),
            *hi, _typed(obj["hi_closed"], bool, "true or false"))


def _bulk_rows(cells: list[Any]) -> Iterator[Row] | None:
    """The rows of ``cells``, each field gathered, checked, converted and reduced in one pass
    of builtins; None if any check fails: the caller then reads the cells with ``_cell_row``,
    whose errors, and their order, are the decoder's."""
    try:
        names, los, his, lo_closed, hi_closed = ([cell[key] for cell in cells]
                                                 for key in _CELL_FIELDS)
        text = ",".join(los + his)
        ints = list(map(int, text.replace(",", "/").split("/")))
    except (KeyError, TypeError, ValueError):  # missing, not a string, not an int() spelling
        return None
    numerators, denominators, n = ints[::2], ints[1::2], len(cells)
    # One match for every endpoint; one with a "," inside would match as two.
    if (not _RATIONALS.fullmatch(text) or text.count(",") != 2 * n - 1 or 0 in denominators
            or set(map(type, names)) != {str} or set(map(type, lo_closed + hi_closed)) != {bool}):
        return None
    common = list(map(gcd, numerators, denominators))
    numerators = list(map(floordiv, numerators, common))
    denominators = list(map(floordiv, denominators, common))
    return zip(names, numerators[:n], denominators[:n], lo_closed,
               numerators[n:], denominators[n:], hi_closed)


def cover_to_obj(
    cover: CellCover,
    inputs: tuple[AbstractInput, ...] = (),
    availability: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    return tagged("cover", {
        "cells": [
            {"state": _check_id(name), "lo": f"{lo_n}/{lo_d}", "hi": f"{hi_n}/{hi_d}",
             "lo_closed": lo_closed, "hi_closed": hi_closed}
            for name, lo_n, lo_d, lo_closed, hi_n, hi_d, hi_closed in cover._to_rows()
        ],
        "inputs": [
            {
                "input": _check_id(ai.name),
                "gain": fraction_to_str(ai.law.gain),
                "offset": fraction_to_str(ai.law.offset),
            }
            for ai in inputs
        ],
        "availability": {
            name: sorted(us) for name, us in sorted((availability or {}).items())
        },
    })


@_decoder("cover")
def cover_from_obj(
    obj: Mapping[str, Any],
) -> tuple[CellCover, tuple[AbstractInput, ...], dict[str, list[str]]]:
    cells = _typed(obj["cells"], list, "an array of cells")
    cover = CellCover._from_rows(_bulk_rows(cells) or map(_cell_row, cells))
    inputs = tuple(
        AbstractInput(
            _typed(i["input"], str, "a name"),
            AffineMap(Fraction(*_ratio(i["gain"])), Fraction(*_ratio(i["offset"]))),
        )
        for i in _typed(obj["inputs"], list, "an array of inputs")
    )
    lists = obj["availability"]  # arrays of names in bulk, else read name by name
    if (type(lists) is dict and set(map(type, lists.values())) <= {list}
            and set(map(type, chain.from_iterable(lists.values()))) <= {str}):
        return cover, inputs, dict(lists)
    return cover, inputs, {name: _names(us) for name, us in lists.items()}


# ------------------------------------------------------------------ runs


def trajectory_to_obj(traj: Trajectory) -> dict[str, Any]:
    steps: list[dict[str, str]] = [{"x": traj.states[0]}]
    for k, u in enumerate(traj.inputs):
        steps.append({"x": traj.states[k + 1], "u": u})
    return tagged("trace", {"steps": steps})


def dynamic_trace_to_obj(trace: list[tuple[str, str, str, str]]) -> dict[str, Any]:
    return tagged("dynamic-trace", {
        "steps": [
            {"x1": x1, "x2": x2, "u2": u2, "u1": u1} for x1, x2, u2, u1 in trace
        ],
    })


# ---------------------------------------------------------------- bundles


@dataclass
class ProjectBundle:
    """Named collection of cross-referencing objects, the on-disk shape of a
    whole scenario.  Relations, controllers, and specs name the systems they
    belong to; loading validates every reference and that every system is
    non-blocking."""

    systems: dict[str, FiniteTransitionSystem] = field(default_factory=dict)
    relations: dict[str, tuple[str, str, Relation]] = field(default_factory=dict)
    controllers: dict[str, tuple[str, Controller]] = field(default_factory=dict)
    specs: dict[str, tuple[str, ReachAvoidSpec]] = field(default_factory=dict)
    covers: dict[str, tuple[CellCover, tuple[AbstractInput, ...], dict[str, list[str]]]] = (
        field(default_factory=dict)
    )

    def _check_references(self) -> None:
        """Every relation, controller and spec names a system of the bundle
        and fits it."""
        for name, (s1_name, s2_name, rel) in self.relations.items():
            for ref in (s1_name, s2_name):
                if ref not in self.systems:
                    raise FormatError(f"relation {name!r} references unknown system {ref!r}")
            if rel.domain != self.systems[s1_name].states:
                raise FormatError(f"relation {name!r} does not match system {s1_name!r}")
            if rel.codomain != self.systems[s2_name].states:
                raise FormatError(f"relation {name!r} does not match system {s2_name!r}")
        for kind, members in (("controller", self.controllers), ("spec", self.specs)):
            for name, (sys_name, obj) in members.items():
                if sys_name not in self.systems:
                    raise FormatError(f"{kind} {name!r} references unknown system {sys_name!r}")
                _member(kind, name, obj.validate_for, self.systems[sys_name])


def _member(kind: str, name: str, build: Callable[..., Any], *args: Any) -> Any:
    """``build(*args)``, with a library error (a malformed document, a
    blocking system, a controller or spec that does not fit its system)
    raised as a FormatError that names the bundle member."""
    try:
        return build(*args)
    except SymcretError as err:
        raise FormatError(f"{kind} {name!r}: {err}") from None


def bundle_to_obj(bundle: ProjectBundle) -> dict[str, Any]:
    return tagged("bundle", {
        "systems": {n: system_to_obj(s) for n, s in sorted(bundle.systems.items())},
        "relations": {
            n: {"s1": s1, "s2": s2, **relation_to_obj(rel)}
            for n, (s1, s2, rel) in sorted(bundle.relations.items())
        },
        "controllers": {
            n: {"system": s, **controller_to_obj(c)}
            for n, (s, c) in sorted(bundle.controllers.items())
        },
        "specs": {
            n: {"system": s, **spec_to_obj(sp)}
            for n, (s, sp) in sorted(bundle.specs.items())
        },
        "covers": {
            n: cover_to_obj(cov, ins, avail)
            for n, (cov, ins, avail) in sorted(bundle.covers.items())
        },
    })


@_decoder("bundle")
def bundle_from_obj(obj: Mapping[str, Any]) -> ProjectBundle:
    """The bundle ``obj`` encodes.  An error names the member it comes from;
    each system is checked to be non-blocking once, as it is decoded."""
    bundle = ProjectBundle()
    for name, sys_obj in obj.get("systems", {}).items():
        bundle.systems[name] = _member("system", name, system_from_obj, sys_obj)
    for name, rel_obj in obj.get("relations", {}).items():
        s1, s2 = rel_obj["s1"], rel_obj["s2"]
        if unknown := {s1, s2}.difference(bundle.systems):
            raise FormatError(f"relation {name!r} references unknown system {min(unknown)!r}")
        bundle.relations[name] = (s1, s2, _member(
            "relation", name, relation_from_obj, rel_obj, bundle.systems[s1], bundle.systems[s2]
        ))
    for name, ctrl_obj in obj.get("controllers", {}).items():
        bundle.controllers[name] = (
            ctrl_obj["system"], _member("controller", name, controller_from_obj, ctrl_obj)
        )
    for name, spec_obj in obj.get("specs", {}).items():
        bundle.specs[name] = (spec_obj["system"], _member("spec", name, spec_from_obj, spec_obj))
    for name, cover_obj in obj.get("covers", {}).items():
        bundle.covers[name] = _member("cover", name, cover_from_obj, cover_obj)
    bundle._check_references()
    return bundle


# ------------------------------------------------------------------- I/O


_encode = json.encoder.encode_basestring

# The text of each scalar type the writer writes, as ``json.dumps`` writes it.
_SCALAR_TEXT: dict[type, Callable[[Any], str]] = {
    str: _encode,
    bool: {True: "true", False: "false"}.__getitem__,
    int: int.__repr__,
    type(None): {None: "null"}.__getitem__,
}


def _stdlib(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)


def _leaf(value: Any, nl: str) -> str | None:
    """The text of ``value`` at line prefix ``nl`` if it is a scalar the writer
    writes, an empty container or an array of strings (one C-level join)."""
    write = _SCALAR_TEXT.get(type(value))
    if write is not None:
        return write(value)
    kind = type(value)
    if kind is list or kind is tuple:
        texts = _leaves((value,), nl) if value else ["[]"]
        return None if texts is None else texts[0]
    return "{}" if kind is dict and not value else None


def _leaves(members: Sequence[Any], nl: str) -> list[str] | None:
    """``_leaf`` of every member at C speed, when they are all of one scalar
    type or all non-empty arrays of strings; None otherwise."""
    kinds = set(map(type, members))
    kind = kinds.pop() if len(kinds) == 1 else None
    if kind in _SCALAR_TEXT:
        return list(map(_SCALAR_TEXT[kind], members))
    if (kind is list or kind is tuple) and all(members):
        try:
            arrays = map(("," + nl + "  ").join, map(map, repeat(_encode), members))
            return list(map(add, map(("[" + nl + "  ").__add__, arrays), repeat(nl + "]")))
        except TypeError:  # an item that is not a string
            return None
    return None


def _indented(obj: Any) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)``,
    written from an explicit stack if ``obj`` holds only the types the
    writer writes; any other value or a cycle hands the whole document to
    ``json.dumps``, so the text or the exception is the stdlib's.

    The stack holds text, ``(line prefix, value)`` items still to write, and
    the ids of the containers whose members are all written.  A container's
    members that are leaves become text at once, in one C-level pass when
    they are all alike; the others become items.  Expanding a container that
    is still being written is a cycle."""
    out: list[str] = []
    open_ids: set[int] = set()
    stack: list[Any] = [("\n", obj)]
    while stack:
        item = stack.pop()
        if type(item) is str:
            out.append(item)
            continue
        if type(item) is int:
            open_ids.remove(item)
            continue
        nl, value = item
        text = _leaf(value, nl)
        if text is not None:
            out.append(text)
            continue
        marker = id(value)
        if type(value) not in (dict, list, tuple) or marker in open_ids:
            return _stdlib(obj)
        if type(value) is dict:
            opening, close = "{", "}"
            try:
                keys, members = zip(*sorted(value.items()))
                heads = list(map(add, map(_encode, keys), repeat(": ")))
            except TypeError:  # a key that is not a string
                return _stdlib(obj)
        else:
            opening, close, heads, members = "[", "]", None, value
        inner = nl + "  "
        texts = _leaves(members, inner) or [_leaf(member, inner) for member in members]
        if None not in texts:
            if heads:
                texts = map(add, heads, texts)
            out.append(opening + inner + ("," + inner).join(texts) + nl + close)
            continue
        sep = opening + inner
        pieces: list[Any] = []
        for head, member, text in zip(heads or repeat(""), members, texts):
            pieces += (sep + head, (inner, member)) if text is None else (sep + head + text,)
            sep = "," + inner
        open_ids.add(marker)
        pieces += (marker, nl + close)
        stack.extend(reversed(pieces))
    return "".join(out)


# The C encoder writes indented documents from Python 3.13 on; before, the
# stdlib falls back to a generator per token (module docstring).
_canonical = _stdlib if version_info >= (3, 13) else _nogc(_indented)


def dumps(obj: Mapping[str, Any]) -> str:
    return _canonical(obj) + "\n"


def save(path: str | Path, obj: Mapping[str, Any]) -> None:
    Path(path).write_text(dumps(obj), encoding="utf-8")


@_nogc
def load(path: str | Path) -> Any:
    with open(path, encoding="utf-8") as text:
        try:
            return json.load(text)
        except RecursionError:  # the reader's depth guard, not a recursion of ours
            raise FormatError("document nests too deeply to decode") from None
