"""The canonical writer against ``json.dumps``.

``jsonio.dumps`` writes ``json.dumps(obj, indent=2, sort_keys=True,
ensure_ascii=False) + "\\n"``.  Below Python 3.13 it uses its own writer,
``jsonio._indented``; the tests call that writer directly, so that every
Python version tests it, with the stdlib as the reference."""
import json
import math
import random
from enum import IntEnum
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcret import (
    FiniteTransitionSystem, ReachAvoidSpec, mcr_extension, synthesize_reach_avoid,
)
from symcret.core import SymcretError
from symcret import jsonio
from symcret.cli import fig5_bundle, main
from symcret.jsonio import ProjectBundle

from conftest import grid_cover_document, overlapping_line


def reference(obj):
    return json.dumps(obj, indent=2, sort_keys=True, ensure_ascii=False)


def outcome(write, obj):
    try:
        return write(obj)
    except Exception as err:  # the class is what both writers must share
        return type(err)


TRICKY = '"\\/\n\r\t\b\f\x00\x01\x1f\x7f\x80\xe9\u2028\u2029\ufeff\u6f22\U0001f600'
texts = st.text(st.sampled_from(TRICKY) | st.characters(), max_size=6)
floats = st.floats() | st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 1e300, 5e-324])
integers = st.integers() | st.integers(min_value=-(10 ** 40), max_value=10 ** 40)
scalars = st.none() | st.booleans() | integers | floats | texts
# One key family per dict: strings, or numbers and booleans (which compare
# with each other), or the single key None.
keyed = [texts, integers | floats | st.booleans(), st.none()]


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(texts, max_size=4),
        st.lists(integers, max_size=4),
        *(st.dictionaries(keys, children, max_size=4) for keys in keyed),
        st.dictionaries(texts, st.lists(texts, min_size=1, max_size=3), max_size=4),
    )


mixed_documents = st.recursive(scalars, containers, max_leaves=25)
# Documents of only the types the library writes, which the writer writes
# itself: string-keyed dicts, lists, tuples, strings, ints, booleans, None.
own_scalars = st.none() | st.booleans() | integers | texts
documents = st.recursive(own_scalars, lambda children: st.one_of(
    st.lists(children, max_size=4),
    st.lists(children, max_size=4).map(tuple),
    st.dictionaries(texts, children, max_size=4),
), max_leaves=25)


class TestAgainstTheStdlib:
    @settings(max_examples=300, deadline=None)
    @given(documents)
    def test_same_text(self, obj):
        with mock.patch.object(jsonio, "_stdlib", side_effect=AssertionError("handed off")):
            text = jsonio._indented(obj)
        assert text == reference(obj)

    @settings(max_examples=100, deadline=None)
    @given(mixed_documents)
    def test_hand_off_same_text(self, obj):
        # Floats, non-string keys and the rest go to the stdlib, errors too.
        assert outcome(jsonio._indented, obj) == outcome(reference, obj)

    @pytest.mark.parametrize("obj", [
        {}, [], (), "", 0, -0.0, math.nan, math.inf, -math.inf, True, False, None,
        {"": [], "a": {}, "b": [[]], "c": [{}]},
        {1: "int", 2.5: "float", True: "bool"}, {None: [None]}, {-0.0: 0, math.nan: 1},
        {"s": ("x", "y"), "t": [("x",), ["y", 1]], "u": [[1, 2], [3.5]]},
        [10 ** 40, -(10 ** 40), 1e300, 5e-324],
    ], ids=repr)
    def test_corner_cases(self, obj):
        assert jsonio._indented(obj) == reference(obj)

    def test_shared_members_are_not_cycles(self):
        shared, inner = ["x"], [1, [2]]
        obj = {"a": shared, "b": [shared, {"c": shared}], "d": [inner, inner]}
        assert jsonio._indented(obj) == reference(obj)


def cyclic_list():
    obj = [1, []]
    obj[1].append(obj)
    return obj


def cyclic_dict():
    obj = {"a": [{}]}
    obj["a"][0]["b"] = obj
    return obj


class TestErrors:
    @pytest.mark.parametrize("obj, error", [
        ({"a": {1, 2}}, TypeError),
        ([b"bytes"], TypeError),
        ({"a": [object()]}, TypeError),
        ({"a": 1, 2: "b"}, TypeError),
        ({None: 1, "a": 2}, TypeError),
        ({(1, 2): "tuple key"}, TypeError),
        (cyclic_list(), ValueError),
        (cyclic_dict(), ValueError),
    ], ids=["set", "bytes", "object", "mixed-keys", "none-and-str-keys", "tuple-key",
            "cyclic-list", "cyclic-dict"])
    def test_same_exception_class(self, obj, error):
        with pytest.raises(error):
            reference(obj)
        with pytest.raises(error):
            jsonio._indented(obj)

    def test_deep_nesting_needs_no_recursion(self):
        depth = 5000
        obj = ["x"]
        for _ in range(depth):
            obj = [obj]
        text = jsonio._indented(obj)
        assert text.count("\n") == 2 * depth + 2 and '"x"' in text


def test_a_generated_line_plant_bundle_is_byte_equal():
    s1, s2, rel = overlapping_line(120, 7)
    s2x = mcr_extension(s1, s2, rel)
    spec = ReachAvoidSpec(frozenset(s1.states), frozenset(s1.states[:5]), frozenset())
    abstract = ReachAvoidSpec(frozenset(s2x.states), frozenset(s2x.states[:1]), frozenset())
    result = synthesize_reach_avoid(s2x, abstract)
    assert result is not None
    bundle = ProjectBundle(
        systems={"S1": s1, "S2": s2, "S2x": s2x},
        relations={"R": ("S1", "S2", rel), "Rx": ("S1", "S2x", rel)},
        controllers={"c2": ("S2x", result.controller)},
        specs={"sigma1": ("S1", spec), "sigma2x": ("S2x", abstract)},
    )
    obj = jsonio.bundle_to_obj(bundle)
    assert jsonio._indented(obj) == reference(obj)
    assert jsonio.dumps(obj) == reference(obj) + "\n"
    assert jsonio.bundle_to_obj(jsonio.bundle_from_obj(json.loads(jsonio.dumps(obj)))) == obj


def no_stdlib(*args, **kwargs):
    raise AssertionError("the document left the writer's fast path")


def spy_on_stdlib(monkeypatch):
    """The list of the documents passed to ``json.dumps`` from now on."""
    calls, real = [], json.dumps

    def spy(doc, **kwargs):
        calls.append(doc)
        return real(doc, **kwargs)

    monkeypatch.setattr(jsonio.json, "dumps", spy)
    return calls


class Level(IntEnum):
    LOW = 1


class TestHandOff:
    """The documents the library writes never reach ``json.dumps``; any
    other value hands the whole document to it."""

    def test_a_generated_line_bundle_stays_on_the_fast_path(self, monkeypatch):
        s1, s2, rel = overlapping_line(120, 7)
        s2x = mcr_extension(s1, s2, rel)
        abstract = ReachAvoidSpec(frozenset(s2x.states), frozenset(s2x.states[:1]), frozenset())
        result = synthesize_reach_avoid(s2x, abstract)
        obj = jsonio.bundle_to_obj(ProjectBundle(
            systems={"S1": s1, "S2": s2, "S2x": s2x},
            relations={"R": ("S1", "S2", rel)},
            controllers={"c2": ("S2x", result.controller)},
            specs={"sigma2x": ("S2x", abstract)},
        ))
        want = reference(obj)
        monkeypatch.setattr(jsonio.json, "dumps", no_stdlib)
        assert jsonio._indented(obj) == want

    def test_the_grid_cover_stays_on_the_fast_path(self, monkeypatch):
        obj = grid_cover_document()
        assert len(obj["cells"]) == 201 and obj["inputs"] and obj["availability"]
        want = reference(obj)
        monkeypatch.setattr(jsonio.json, "dumps", no_stdlib)
        assert jsonio._indented(obj) == want

    def test_a_synthesis_result_stays_on_the_fast_path(self, monkeypatch, capsys, tmp_path):
        path = tmp_path / "fig5.json"
        jsonio.save(path, jsonio.bundle_to_obj(fig5_bundle()))
        monkeypatch.setattr(jsonio, "_canonical", jsonio._indented)
        monkeypatch.setattr(jsonio.json, "dumps", no_stdlib)
        code = main(["synthesize", "--sys", f"{path}:S2", "--spec", f"{path}:sigma2", "--json"])
        out = capsys.readouterr().out
        monkeypatch.undo()
        doc = json.loads(out)
        assert code == 0 and doc["kind"] == "synthesis-result" and doc["rank"]
        assert out == reference(doc) + "\n"

    @pytest.mark.parametrize("obj", [
        {"elapsed_seconds": 0.125, "trials": 50},
        {"a": ["x", Level.LOW]},
        {"a": {1: "int key"}},
        [["x"], {"b": [1.5, float("nan")]}],
    ], ids=["float", "int-enum", "int-key", "nested-floats"])
    def test_other_values_get_the_stdlib_text(self, monkeypatch, obj):
        want = reference(obj)
        calls = spy_on_stdlib(monkeypatch)
        assert jsonio._indented(obj) == want
        assert len(calls) == 1 and calls[0] is obj

    def test_a_cycle_gets_the_stdlib_exception(self, monkeypatch):
        obj = cyclic_dict()
        calls = spy_on_stdlib(monkeypatch)
        with pytest.raises(ValueError, match="Circular reference detected"):
            jsonio._indented(obj)
        assert len(calls) == 1 and calls[0] is obj


# ``system_to_obj`` walks the states and their available inputs, which list
# the non-empty rows in sorted order; the encoder before it sorted every row
# of the table, and is kept here as the reference.


def reference_system_to_obj(sys):
    """The former ``system_to_obj``: every non-empty row, names checked in
    sorted (state, input) order."""
    check = jsonio._check_id
    trans = {
        f"{check(x)}{jsonio.KEY_SEP}{check(u)}": sorted(succ)
        for (x, u), succ in sorted(sys.trans.items())
        if succ
    }
    return jsonio.tagged("system", {
        "states": list(sys.states),
        "inputs": list(sys.inputs),
        "trans": trans,
    })


# Names that sort between and around each other; three of them hold ``|``.
ENCODER_NAMES = ("a", "a|", "b", "s0", "s10", "s2", "|t", "u", "v|w", "x", "z")


def encoder_case(seed):
    """A system with some blocking states, some unused inputs and many empty
    rows, built from rows given in shuffled order."""
    rng = random.Random(seed)
    states = rng.sample(ENCODER_NAMES, rng.randint(1, 6))
    inputs = rng.sample(ENCODER_NAMES, rng.randint(1, 4))
    rows = [((x, u), rng.sample(states, rng.randint(0, len(states))))
            for x in states for u in inputs if rng.random() < 0.4]
    rng.shuffle(rows)
    return FiniteTransitionSystem(states, inputs, dict(rows))


def encoded(encode, sys):
    """The document and its text, or the class and message of the error."""
    try:
        obj = encode(sys)
    except SymcretError as err:
        return type(err), str(err)
    return list(obj.items()), list(obj["trans"].items()), jsonio.dumps(obj)


def test_system_encoder_matches_the_one_that_sorted_every_row():
    kinds = set()
    for seed in range(2000):
        sys = encoder_case(seed)
        got = encoded(jsonio.system_to_obj, sys)
        assert got == encoded(reference_system_to_obj, sys), seed
        if got[0] is jsonio.FormatError:
            kinds.add("a name with | in a row")
            continue
        rows = [key for key, succ in sys.trans.items() if succ]
        for kind, names, used in (("state", sys.states, {x for x, _ in rows}),
                                  ("input", sys.inputs, {u for _, u in rows})):
            if any("|" in name and name not in used for name in names):
                kinds.add(f"{kind} with | outside every row")
        if not sys.is_non_blocking():
            kinds.add("a blocking state")
    assert kinds == {"a name with | in a row", "state with | outside every row",
                     "input with | outside every row", "a blocking state"}


def test_a_bar_is_refused_only_in_a_row():
    sys = FiniteTransitionSystem(["a", "b|"], ["u", "v|"], {("a", "u"): ["a", "b|"]})
    assert jsonio.system_to_obj(sys)["trans"] == {"a|u": ["a", "b|"]}
    both = FiniteTransitionSystem(["a|", "b"], ["u|", "v"],
                                  {("b", "u|"): ["b"], ("a|", "v"): ["b"]})
    with pytest.raises(jsonio.FormatError, match=r"^identifier 'a\|' may not contain '\|'$"):
        jsonio.system_to_obj(both)


class TestLoad:
    """``load`` reads UTF-8 with universal newlines, from a ``str`` or a
    ``Path``; a missing file is the ``OSError`` of ``open``, and a document
    nested deeper than the reader's depth guard a ``FormatError``."""

    DOC = {"format": "symcret/1", "kind": "spec", "target": ["β", "a"]}

    @pytest.mark.parametrize("as_path", [str, Path], ids=["str", "Path"])
    @pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["LF", "CRLF"])
    def test_a_document_reads_back(self, tmp_path, as_path, newline):
        path = tmp_path / "doc.json"
        path.write_bytes(jsonio.dumps(self.DOC).replace("\n", newline).encode("utf-8"))
        assert jsonio.load(as_path(path)) == self.DOC

    @pytest.mark.parametrize("as_path, named", [(str, "no//pe.json"), (Path, "no/pe.json")],
                             ids=["str", "Path"])
    def test_a_missing_file_is_named_as_given(self, tmp_path, monkeypatch, as_path, named):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(FileNotFoundError) as err:
            jsonio.load(as_path("no//pe.json"))
        assert str(err.value) == f"[Errno 2] No such file or directory: {named!r}"

    def test_a_document_nested_too_deeply_is_a_format_error(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        with pytest.raises(jsonio.FormatError, match="^document nests too deeply to decode$"):
            jsonio.load(path)
