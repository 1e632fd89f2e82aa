import contextlib
import copy
import hashlib
import io
import json
import random
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symcret import (
    FiniteTransitionSystem,
    ReachAvoidSpec,
    Relation,
    RelationKind,
    controller_count,
    maximal_interface,
)
from symcret import cli
from symcret.cli import fig5_bundle, main
from symcret import jsonio

from conftest import ALPHA, BETA, cycle_product, json_nodes, mutate, random_system


@pytest.fixture(scope="module")
def bundle_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "fig5.json"
    jsonio.save(path, jsonio.bundle_to_obj(fig5_bundle()))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def last_json(stdout: str):
    # Commands print human lines first, then one JSON document.
    start = stdout.index("{")
    return json.loads(stdout[start:])


# The exact `--json` payloads of `synthesize` on the bundled fig5 problems:
# key order, rank order and choice lists are pinned byte for byte.
SYNTHESIZE_S2 = (
    '{\n  "controller": {\n    "choices": {\n      "a": [\n        "α",\n'
    '        "β"\n      ],\n      "b": [\n        "α"\n      ],\n'
    '      "e": [\n        "α"\n      ]\n    },\n    "format": "symcret/1",\n'
    '    "kind": "controller"\n  },\n  "format": "symcret/1",\n'
    '  "kind": "synthesis-result",\n  "rank": {\n    "a": 2,\n    "b": 1,\n'
    '    "e": 1,\n    "f": 0\n  },\n  "solvable": true,\n  "winning": [\n'
    '    "a",\n    "b",\n    "e",\n    "f"\n  ]\n}\n'
)
SYNTHESIZE_S2X = (
    '{\n  "controller": {\n    "choices": {\n      "a": [\n        "β"\n'
    '      ],\n      "b": [\n        "α"\n      ],\n      "e": [\n'
    '        "α"\n      ]\n    },\n    "format": "symcret/1",\n'
    '    "kind": "controller"\n  },\n  "format": "symcret/1",\n'
    '  "kind": "synthesis-result",\n  "rank": {\n    "a": 2,\n    "b": 1,\n'
    '    "e": 1,\n    "f": 0\n  },\n  "solvable": true,\n  "winning": [\n'
    '    "a",\n    "b",\n    "e",\n    "f"\n  ]\n}\n'
)


class TestRoundTrips:
    def test_all_object_kinds(self, fx):
        iface = maximal_interface(fx.s1, fx.s2, fx.relation, RelationKind.ASR)
        cases = [
            (jsonio.system_to_obj(fx.s1), lambda o: jsonio.system_to_obj(jsonio.system_from_obj(o))),
            (
                jsonio.relation_to_obj(fx.relation),
                lambda o: jsonio.relation_to_obj(jsonio.relation_from_obj(o, fx.s1, fx.s2)),
            ),
            (
                jsonio.controller_to_obj(fx.c2_via_b),
                lambda o: jsonio.controller_to_obj(jsonio.controller_from_obj(o)),
            ),
            (jsonio.spec_to_obj(fx.spec1), lambda o: jsonio.spec_to_obj(jsonio.spec_from_obj(o))),
            (
                jsonio.interface_to_obj(iface),
                lambda o: jsonio.interface_to_obj(jsonio.interface_from_obj(o)),
            ),
        ]
        for obj, reload in cases:
            assert jsonio.dumps(reload(obj)) == jsonio.dumps(obj)

    def test_cover_round_trip(self):
        from symcret.interval import FIG8_AVAILABILITY, fig8_affine_inputs, fig8_cover

        obj = jsonio.cover_to_obj(fig8_cover(1), fig8_affine_inputs(), FIG8_AVAILABILITY)
        cover, inputs, availability = jsonio.cover_from_obj(obj)
        assert jsonio.dumps(jsonio.cover_to_obj(cover, inputs, availability)) == jsonio.dumps(obj)

    def test_separator_forbidden_in_identifiers(self):
        from symcret import FiniteTransitionSystem

        bad = FiniteTransitionSystem(("a|b",), ("u",), {("a|b", "u"): {"a|b"}})
        with pytest.raises(jsonio.FormatError):
            jsonio.system_to_obj(bad)

    def test_wrong_format_tag_rejected(self):
        with pytest.raises(jsonio.FormatError):
            jsonio.system_from_obj({"format": "other/9", "kind": "system"})

    def test_blocking_system_file_rejected(self, fx):
        obj = jsonio.system_to_obj(fx.s1)
        obj["trans"] = {k: v for k, v in obj["trans"].items() if not k.startswith("3")}
        with pytest.raises(Exception):
            jsonio.system_from_obj(obj)

    def test_packaged_data_file_round_trips(self):
        # Decoding the packaged text and encoding it again gives the text back.
        text = resources.files("symcret").joinpath("data/fig5.json").read_text("utf-8")
        bundle = jsonio.bundle_from_obj(json.loads(text))
        assert jsonio.dumps(jsonio.bundle_to_obj(bundle)) == text


class TestBundleDecoding:
    """Every reference and system check of a decoded bundle, with its message."""

    @pytest.mark.parametrize("edit, error, message", [
        pytest.param(lambda b: b["relations"]["R"].update(s1="zz", s2="nope"),
                     jsonio.FormatError, "relation 'R' references unknown system 'nope'",
                     id="relation-with-two-unknown-systems"),
        pytest.param(lambda b: b["relations"]["Rx"].update(s2="S3"),
                     jsonio.FormatError, "relation 'Rx' references unknown system 'S3'",
                     id="relation-with-an-unknown-abstraction"),
        pytest.param(lambda b: b["controllers"]["c1_safe"].update(system="nope"),
                     jsonio.FormatError, "controller 'c1_safe' references unknown system 'nope'",
                     id="controller-of-an-unknown-system"),
        pytest.param(lambda b: b["specs"]["sigma1"].update(system="nope"),
                     jsonio.FormatError, "spec 'sigma1' references unknown system 'nope'",
                     id="spec-of-an-unknown-system"),
        pytest.param(lambda b: b["systems"]["S1"]["trans"].pop("3|0"),
                     jsonio.FormatError, "system 'S1': system blocks at states ['3']",
                     id="blocking-system"),
        pytest.param(lambda b: b["controllers"]["c1_safe"]["choices"].update({"3": ["1"]}),
                     jsonio.FormatError,
                     "controller 'c1_safe': controller enables unavailable inputs ['1'] at state '3'",
                     id="controller-enabling-an-unavailable-input"),
        pytest.param(lambda b: b["specs"]["sigma1"].update(target=["9"]),
                     jsonio.FormatError, "spec 'sigma1': target set contains unknown states ['9']",
                     id="spec-naming-an-unknown-state"),
        pytest.param(lambda b: b["systems"]["S2"].pop("trans"),
                     jsonio.FormatError, "system 'S2': malformed system document (KeyError: 'trans')",
                     id="malformed-system"),
    ])
    def test_bad_bundle_is_a_named_error(self, edit, error, message):
        obj = copy.deepcopy(FIG5_BUNDLE)
        edit(obj)
        with pytest.raises(error) as caught:
            jsonio.bundle_from_obj(obj)
        assert type(caught.value) is error and str(caught.value) == message

    def test_each_system_is_checked_once(self, monkeypatch):
        checked = []
        check = FiniteTransitionSystem.require_non_blocking
        monkeypatch.setattr(FiniteTransitionSystem, "require_non_blocking",
                            lambda sys: checked.append(sys) or check(sys))
        bundle = jsonio.bundle_from_obj(copy.deepcopy(FIG5_BUNDLE))
        assert sorted(map(id, checked)) == sorted(map(id, bundle.systems.values()))


class TestCommands:
    def test_check_asr_exit_zero(self, capsys, bundle_path):
        code, out, _ = run(
            capsys, "check", "asr",
            "--s1", f"{bundle_path}:S1", "--s2", f"{bundle_path}:S2",
            "--rel", f"{bundle_path}:R",
        )
        assert code == 0 and last_json(out)["holds"] is True

    def test_check_mcr_exit_one_with_witness(self, capsys, bundle_path):
        code, out, _ = run(
            capsys, "check", "mcr",
            "--s1", f"{bundle_path}:S1", "--s2", f"{bundle_path}:S2",
            "--rel", f"{bundle_path}:R", "--json",
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["witness"] == {"x1": "1", "x2": "a", "u2": ALPHA, "evidence": ["2", "c"]}

    def test_check_frr_refuted(self, capsys, bundle_path):
        code, out, _ = run(
            capsys, "check", "frr",
            "--s1", f"{bundle_path}:S1", "--s2", f"{bundle_path}:S2",
            "--rel", f"{bundle_path}:R", "--json",
        )
        assert code == 1 and json.loads(out)["holds"] is False

    def test_extend_writes_the_extension(self, capsys, bundle_path, tmp_path, fx):
        out_file = tmp_path / "extended.json"
        code, _, _ = run(
            capsys, "extend",
            "--s1", f"{bundle_path}:S1", "--s2", f"{bundle_path}:S2",
            "--rel", f"{bundle_path}:R", "--out", str(out_file),
        )
        assert code == 0
        assert jsonio.system_from_obj(jsonio.load(out_file)) == fx.s2_extended

    def test_synthesize_solvable(self, capsys, bundle_path):
        code, out, _ = run(
            capsys, "synthesize",
            "--sys", f"{bundle_path}:S2", "--spec", f"{bundle_path}:sigma2", "--json",
        )
        doc = json.loads(out)
        assert code == 0 and doc["solvable"] and doc["rank"]["f"] == 0

    @pytest.mark.parametrize("system, spec, payload", [
        ("S2", "sigma2", SYNTHESIZE_S2), ("S2x", "sigma2x", SYNTHESIZE_S2X),
    ], ids=["S2", "S2x"])
    def test_synthesize_payload_bytes(self, capsys, bundle_path, system, spec, payload):
        code, out, _ = run(
            capsys, "synthesize",
            "--sys", f"{bundle_path}:{system}", "--spec", f"{bundle_path}:{spec}", "--json",
        )
        assert code == 0 and out == payload

    def test_synthesize_unsolvable(self, capsys, bundle_path, tmp_path):
        spec_file = tmp_path / "bad_spec.json"
        jsonio.save(spec_file, {
            "format": jsonio.FORMAT, "kind": "spec",
            "initial": ["a"], "target": ["d"], "obstacle": [],
        })
        code, out, _ = run(
            capsys, "synthesize", "--sys", f"{bundle_path}:S2",
            "--spec", str(spec_file), "--json",
        )
        doc = json.loads(out)
        assert code == 1 and doc["losing_initial"] == ["a"]

    def test_synthesize_unsolvable_solves_once(self, capsys, bundle_path, tmp_path, monkeypatch):
        spec_file = tmp_path / "bad_spec.json"
        jsonio.save(spec_file, {
            "format": jsonio.FORMAT, "kind": "spec",
            "initial": ["a", "e"], "target": ["d"], "obstacle": ["f"],
        })
        calls = []
        real_synthesize = cli._synthesize
        real_validate = ReachAvoidSpec.validate_for
        monkeypatch.setattr(cli, "_synthesize",
                            lambda *a: calls.append("solve") or real_synthesize(*a))
        monkeypatch.setattr(ReachAvoidSpec, "validate_for",
                            lambda *a: calls.append("validate") or real_validate(*a))
        code, out, _ = run(
            capsys, "synthesize", "--sys", f"{bundle_path}:S2", "--spec", str(spec_file),
        )
        assert code == 1 and calls == ["solve", "validate"]
        assert out == (
            'unsolvable\n{\n  "format": "symcret/1",\n  "kind": "synthesis-result",\n'
            '  "losing_initial": [\n    "a",\n    "e"\n  ],\n  "solvable": false\n}\n'
        )

    def test_concretize_memoryless_values(self, capsys, bundle_path):
        code, out, _ = run(
            capsys, "concretize", "--mode", "memoryless",
            "--s1", f"{bundle_path}:S1", "--s2", f"{bundle_path}:S2",
            "--rel", f"{bundle_path}:R", "--controller", f"{bundle_path}:c2_via_b",
            "--kind", "asr", "--json",
        )
        doc = json.loads(out)
        assert code == 0 and doc["choices"] == {"1": ["0"], "2": ["0", "1"]}

    def test_dynamic_concretizer_simulation(self, capsys, bundle_path, tmp_path):
        config = tmp_path / "tracker.json"
        code, _, _ = run(
            capsys, "concretize", "--mode", "dynamic",
            "--s1", f"{bundle_path}:S1", "--s2", f"{bundle_path}:S2",
            "--rel", f"{bundle_path}:R", "--controller", f"{bundle_path}:c2_via_b",
            "--kind", "asr", "--out", str(config),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "simulate", "--sys", f"{bundle_path}:S1",
            "--controller", str(config), "--from", "1", "--horizon", "3", "--json",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["steps"] == [
            {"x1": "1", "x2": "a", "u2": ALPHA, "u1": "0"},
            {"x1": "2", "x2": "b", "u2": ALPHA, "u1": "0"},
        ]

    def test_input_script_rejected_for_dynamic_concretizer(self, capsys, bundle_path, tmp_path):
        config = tmp_path / "tracker.json"
        code, _, _ = run(
            capsys, "concretize", "--mode", "dynamic",
            "--s1", f"{bundle_path}:S1", "--s2", f"{bundle_path}:S2",
            "--rel", f"{bundle_path}:R", "--controller", f"{bundle_path}:c2_via_b",
            "--kind", "asr", "--out", str(config),
        )
        assert code == 0
        code, out, err = run(
            capsys, "simulate", "--sys", f"{bundle_path}:S1", "--controller", str(config),
            "--input-script", "1,1", "--from", "1", "--horizon", "3",
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "validation"

    def test_simulate_validates_a_loaded_dynamic_concretizer(self, capsys, bundle_path, tmp_path):
        config = tmp_path / "tracker.json"
        code, _, _ = run(
            capsys, "concretize", "--mode", "dynamic",
            "--s1", f"{bundle_path}:S1", "--s2", f"{bundle_path}:S2",
            "--rel", f"{bundle_path}:R", "--controller", f"{bundle_path}:c2_via_b",
            "--kind", "asr", "--out", str(config),
        )
        assert code == 0
        doc = jsonio.load(config)
        # Input 1 at state 2 leads into the obstacle 3.
        doc["interface"]["table"][f"2|b|{ALPHA}"] = ["1"]
        jsonio.save(config, doc)
        code, out, err = run(
            capsys, "simulate", "--sys", f"{bundle_path}:S1", "--controller", str(config),
            "--from", "1", "--horizon", "3",
        )
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "validation",
            "detail": f"interface entry (2, b, {ALPHA}) -> 1 violates the asr condition",
        }

    def test_simulate_memoryless_with_scripts(self, capsys, bundle_path, tmp_path):
        ctrl_file = tmp_path / "leaky.json"
        jsonio.save(ctrl_file, {
            "format": jsonio.FORMAT, "kind": "controller",
            "choices": {"1": ["0"], "2": ["0", "1"]},
        })
        code, out, _ = run(
            capsys, "simulate", "--sys", f"{bundle_path}:S1",
            "--controller", str(ctrl_file), "--from", "1", "--horizon", "3",
            "--input-script", "0,1", "--json",
        )
        doc = json.loads(out)
        assert code == 0
        assert [s["x"] for s in doc["steps"]] == ["1", "2", "3"]

    def test_verify_property_one(self, capsys, bundle_path, tmp_path):
        c1_file = tmp_path / "c1.json"
        jsonio.save(c1_file, {
            "format": jsonio.FORMAT, "kind": "controller",
            "choices": {"1": ["0"], "2": ["0", "1"]},
        })
        code, out, _ = run(
            capsys, "verify", "--property", "one",
            "--s1", f"{bundle_path}:S1", "--s2", f"{bundle_path}:S2",
            "--rel", f"{bundle_path}:R",
            "--c1", str(c1_file), "--c2", f"{bundle_path}:c2_via_b", "--json",
        )
        doc = json.loads(out)
        assert code == 1 and doc["witness"]["concrete"] == ["1", "2", "3"]

    def test_each_file_is_parsed_once_per_command(self, capsys, bundle_path, tmp_path,
                                                  monkeypatch):
        c1_file = tmp_path / "c1.json"
        jsonio.save(c1_file, {
            "format": jsonio.FORMAT, "kind": "controller",
            "choices": {"1": ["0"], "2": ["0", "1"]},
        })
        argv = ["verify", "--property", "one",
                "--s1", f"{bundle_path}:S1", "--s2", f"{bundle_path}:S2",
                "--rel", f"{bundle_path}:R",
                "--c1", str(c1_file), "--c2", f"{bundle_path}:c2_via_b", "--json"]
        expected = run(capsys, *argv)
        parsed = []
        real_load = jsonio.load
        monkeypatch.setattr(jsonio, "load", lambda path: parsed.append(path) or real_load(path))
        assert run(capsys, *argv) == expected
        assert parsed == [bundle_path, c1_file]
        # The next command reads the files again.
        assert run(capsys, *argv) == expected
        assert parsed == [bundle_path, c1_file] * 2

    def test_verify_property_one_without_horizon_is_exact(self, capsys, tmp_path):
        s1, s2, rel, c1, c2 = cycle_product()
        files = {}
        for name, obj in (("s1", jsonio.system_to_obj(s1)), ("s2", jsonio.system_to_obj(s2)),
                          ("rel", jsonio.relation_to_obj(rel)),
                          ("c1", jsonio.controller_to_obj(c1)),
                          ("c2", jsonio.controller_to_obj(c2))):
            files[name] = str(tmp_path / f"{name}.json")
            jsonio.save(files[name], obj)
        code, out, _ = run(
            capsys, "verify", "--property", "one", *(
                arg for name in ("s1", "s2", "rel", "c1", "c2")
                for arg in (f"--{name}", files[name])),
            "--json",
        )
        witness = json.loads(out)["witness"]
        assert code == 1
        assert witness["concrete"] == ["s"] + ["a"] * 208 + ["b"]

    def test_verify_property_two_exit_codes(self, capsys, bundle_path):
        code, out, _ = run(
            capsys, "verify", "--property", "two",
            "--s1", f"{bundle_path}:S1", "--s2", f"{bundle_path}:S2",
            "--rel", f"{bundle_path}:R", "--c2", f"{bundle_path}:c2_via_b",
            "--kind", "asr", "--json",
        )
        doc = json.loads(out)
        assert code == 1
        assert doc["witness"]["quantization"] == ["a", "c", "d"]
        code, _, _ = run(
            capsys, "verify", "--property", "two",
            "--s1", f"{bundle_path}:S1", "--s2", f"{bundle_path}:S2",
            "--rel", f"{bundle_path}:R", "--c2", f"{bundle_path}:c2_via_e",
            "--kind", "asr",
        )
        assert code == 0

    def test_verify_property_two_trivial_controller(self, capsys, bundle_path, tmp_path):
        empty = tmp_path / "empty.json"
        jsonio.save(empty, {"format": jsonio.FORMAT, "kind": "controller", "choices": {}})
        code, _, _ = run(
            capsys, "verify", "--property", "two",
            "--s1", f"{bundle_path}:S1", "--s2", f"{bundle_path}:S2",
            "--rel", f"{bundle_path}:R", "--c2", str(empty), "--kind", "asr",
        )
        assert code == 0

    def test_verify_two_all(self, capsys, bundle_path):
        code, out, _ = run(
            capsys, "verify", "--property", "two-all",
            "--s1", f"{bundle_path}:S1", "--s2", f"{bundle_path}:S2",
            "--rel", f"{bundle_path}:R", "--kind", "asr", "--json",
        )
        doc = json.loads(out)
        assert code == 1
        assert doc["witness"]["controller"]["choices"]["a"] == [ALPHA]
        # Without --horizon the run ends at its first repeated (state, cell) pair.
        assert doc["witness"]["concrete"] == ["1", "2", "3", "3"]
        assert doc["witness"]["quantization"] == ["a", "c", "d", "d"]

    def test_verify_two_all_needs_no_budget(self, capsys, tmp_path):
        sys_ = random_system(random.Random(1), 10, 2, fully_available=True)
        ident = Relation.identity(sys_.states)
        jsonio.save(tmp_path / "sys.json", jsonio.system_to_obj(sys_))
        jsonio.save(tmp_path / "rel.json", jsonio.relation_to_obj(ident))
        assert controller_count(sys_, sys_.states) == 3**10
        code, out, _ = run(
            capsys, "verify", "--property", "two-all", "--s1", str(tmp_path / "sys.json"),
            "--s2", str(tmp_path / "sys.json"), "--rel", str(tmp_path / "rel.json"),
            "--kind", "mcr", "--json",
        )
        assert code == 0 and json.loads(out)["holds"] is True

    def test_explicit_budget_still_refuses(self, capsys, bundle_path):
        code, _, err = run(
            capsys, "verify", "--property", "two-all",
            "--s1", f"{bundle_path}:S1", "--s2", f"{bundle_path}:S2",
            "--rel", f"{bundle_path}:R", "--budget", "2",
        )
        assert code == 2
        assert json.loads(err) == {
            "error": "validation", "detail": "3 controllers exceed the budget of 2",
        }

    def test_extended_relation_export(self, capsys, bundle_path, tmp_path):
        out_file = tmp_path / "ext.json"
        code, _, _ = run(
            capsys, "check", "asr",
            "--s1", f"{bundle_path}:S1", "--s2", f"{bundle_path}:S2",
            "--rel", f"{bundle_path}:R", "--extended-out", str(out_file),
        )
        assert code == 0
        doc = jsonio.load(out_file)
        assert ["1", "a", "0", ALPHA] in doc["tuples"]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestDemos:
    def test_fig5(self, capsys):
        code, out, _ = run(capsys, "demo", "fig5")
        assert code == 0 and "all checks passed" in out

    @pytest.mark.parametrize("flags, digest", [
        ((), "e687e7553e08ed85169e2edaf78bb275be7dcf4f1102869e465c2b7cdd87785f"),
        (("--json",), "f76846528a020145e78e2ebf10516aec77c4d3fe389e2458b8fdebbf2744df28"),
    ], ids=["text", "json"])
    def test_fig5_stdout_bytes(self, capsys, flags, digest):
        code, out, _ = run(capsys, "demo", "fig5", *flags)
        assert code == 0 and sha256(out.encode("utf-8")) == digest

    def test_fig5_export_bundle(self, capsys, tmp_path):
        # The export is the packaged data file, byte for byte.
        target = tmp_path / "exported.json"
        code, _, _ = run(capsys, "demo", "fig5", "--export-bundle", str(target), "--json")
        assert code == 0
        exported = target.read_bytes()
        assert exported == resources.files("symcret").joinpath("data/fig5.json").read_bytes()
        assert sha256(exported) == (
            "f8d1090d76b7ac7edccbdb3b19348498494e152d88f31aee1e579ba4deb56912")

    def test_fig5_rows(self, capsys):
        code, out, _ = run(capsys, "demo", "fig5", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["passed"] is True and doc["demo"] == "fig5"
        assert [(c["label"], c["passed"], c["detail"]) for c in doc["checks"]] == [
            ("fixture-consistency", True, "all fixture checks passed"),
            ("alternating-simulation", True, "holds"),
            ("memoryless-relation", True,
             f"refuted at (1, a, {ALPHA}), successor pair (2, c) escapes"),
            ("maximal-interface", True,
             f"(1,a,{ALPHA})->{{0}}  (2,b,{ALPHA})->{{0}}  (2,c,{ALPHA})->{{1}}"),
            ("memoryless-controller-values", True, "c1(1)={0}, c1(2)={0,1}"),
            ("memoryless-guarantee-refuted", True,
             "run (1,2,3) quantizes to invalid abstract trace (a,c,d)"),
            ("alternate-controller-safe", True,
             "the detour controller satisfies the memoryless guarantee"),
            ("controlled-simulability", True,
             "concretized controller leaks run (1,2,3); the safe hand-built one does not"),
            ("extension", True,
             f"only row (a, {ALPHA}) grows, to {{b, c}}; memoryless checks pass"),
            ("synthesis-collapse", True,
             f"original admits both routes; extension pins a -> {{{BETA}}}"),
            ("dynamic-architecture-invariant", True,
             "5 fully branched runs, relation held, no empty intersection"),
        ]

    def test_fig8_rows(self, capsys):
        code, out, _ = run(capsys, "demo", "fig8", "--json")
        doc = json.loads(out)
        assert code == 0 and doc["passed"] is True and doc["demo"] == "fig8"
        assert [(c["label"], c["passed"], c["detail"]) for c in doc["checks"]] == [
            ("constant-case 0 < c < L", True, "shift 1/2: q1 -> {q1, q2, q3}, unsolvable"),
            ("constant-case c = L", True, "shift 1: q1 -> {q2, q3}, unsolvable"),
            ("constant-case c = 0", True, "shift 0: q1 -> {q1}, unsolvable"),
            ("affine-feedback", True,
             "deterministic, solvable, both side cells one step from the origin"),
        ]

    @pytest.mark.parametrize("bound, width, half", [
        ("1", "1/1", "1/2"), ("3/2", "3/2", "3/4"), ("1/3", "1/3", "1/6"), ("7/5", "7/5", "7/10"),
    ])
    def test_fig8_report(self, capsys, bound, width, half):
        code, out, _ = run(capsys, "demo", "fig8", "--bound", bound, "--json")
        assert code == 0
        assert json.loads(out)["report"] == {
            "affine": {
                "deterministic": True,
                "memoryless_containment": True,
                "ranks": {"q1": 1, "q2": 0, "q3": 1},
                "solvable": True,
            },
            "bound": width,
            "cases": [
                {"label": "0 < c < L", "shift": half, "solvable": False,
                 "q1_successors": ["q1", "q2", "q3"], "q3_successors": ["q1", "q2", "q3"]},
                {"label": "c = L", "shift": width, "solvable": False,
                 "q1_successors": ["q2", "q3"], "q3_successors": ["q1", "q2"]},
                {"label": "c = 0", "shift": "0/1", "solvable": False,
                 "q1_successors": ["q1"], "q3_successors": ["q3"]},
            ],
            "rationale": (
                "constant shift c on the negative cell maps [-L, 0) to [c - L, c); "
                "its quantization only depends on the comparisons of c with 0 and L, "
                "so one exact representative per case decides the whole family"
            ),
        }

    def test_fig8(self, capsys):
        code, out, _ = run(capsys, "demo", "fig8")
        assert code == 0 and "affine-feedback" in out

    def test_fig8_other_bound(self, capsys):
        code, out, _ = run(capsys, "demo", "fig8", "--bound", "3/2", "--json")
        assert code == 0 and json.loads(out)["passed"] is True


class TestErrors:
    def test_unknown_member(self, capsys, bundle_path):
        code, _, err = run(
            capsys, "check", "asr",
            "--s1", f"{bundle_path}:NOPE", "--s2", f"{bundle_path}:S2",
            "--rel", f"{bundle_path}:R",
        )
        assert code == 2 and json.loads(err)["error"] == "usage"

    def test_missing_argument(self, capsys):
        code, _, err = run(capsys, "check", "asr", "--s1", "x.json")
        assert code == 2 and json.loads(err)["error"] == "usage"

    @pytest.mark.parametrize("extra", [
        ("verify", "--property", "two-all", "--horizon", "-5"),
        ("verify", "--property", "two", "--c2", "c2_via_b", "--horizon", "-1"),
        ("verify", "--property", "one", "--c1", "c1_safe", "--c2", "c2_via_b", "--horizon", "-1"),
        ("verify", "--property", "two-all", "--budget", "-1"),
    ])
    def test_negative_counts_are_usage_errors(self, capsys, bundle_path, extra):
        refs = {"S1", "S2", "R", "c1_safe", "c2_via_b"}
        triplet = ("--s1", "S1", "--s2", "S2", "--rel", "R")
        argv = [f"{bundle_path}:{a}" if a in refs else a for a in (*extra, *triplet)]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "usage" and "non-negative integer" in doc["detail"]

    @pytest.mark.parametrize("extra, detail", [
        (("two", "--c2", "c2_via_b", "--horizon", "3"), "--horizon applies to property `one` only"),
        (("two-all", "--horizon", "3"), "--horizon applies to property `one` only"),
        (("one", "--c1", "c1_safe", "--c2", "c2_via_b", "--budget", "5"),
         "--budget applies to property `two-all` only"),
        (("two", "--c2", "c2_via_b", "--budget", "5"),
         "--budget applies to property `two-all` only"),
    ])
    def test_verify_rejects_flags_its_property_does_not_read(
        self, capsys, bundle_path, extra, detail
    ):
        refs = {"S1", "S2", "R", "c1_safe", "c2_via_b"}
        argv = ["verify", "--property", *extra, "--s1", "S1", "--s2", "S2", "--rel", "R"]
        code, out, err = run(capsys, *(f"{bundle_path}:{a}" if a in refs else a for a in argv))
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err) == {"error": "usage", "detail": detail}

    def test_negative_simulation_horizon_is_a_usage_error(self, capsys, bundle_path):
        code, out, err = run(
            capsys, "simulate", "--sys", f"{bundle_path}:S1",
            "--controller", f"{bundle_path}:c1_safe", "--from", "1", "--horizon", "-1",
        )
        assert code == 2 and out == ""
        assert json.loads(err) == {
            "error": "usage",
            "detail": "argument --horizon: expected a non-negative integer, got '-1'",
        }

    @pytest.mark.parametrize("case, error, detail", [
        pytest.param(case, error, detail, id=case) for case, error, detail in [
            ("system-without-trans", "validation", "malformed system document (KeyError: 'trans')"),
            ("successors-as-a-number", "validation", "malformed system document (TypeError: "),
            ("successors-as-a-string", "validation", "malformed system document "
             '(TypeError: expected an array of names, got "25")'),
            ("inputs-as-a-string", "validation", "malformed system document "
             '(TypeError: expected an array of names, got "01")'),
            ("relation-pair-with-a-number", "validation",
             'malformed relation document (TypeError: expected an array of names, got [1, "a"])'),
            ("relation-pair-with-three-names", "validation",
             'malformed relation document (TypeError: expected a pair of names, '
             'got ["1", "a", "x"])'),
            ("relation-pairs-as-a-string", "validation",
             'malformed relation document (TypeError: expected an array of pairs, got "")'),
            ("relation-pair-off-the-domain", "validation", "pair (zz, a) leaves the domain"),
            ("relation-pair-off-the-codomain", "validation", "pair (1, zz) leaves the codomain"),
            ("interface-of-an-unknown-kind", "validation", "malformed interface document "
             '(TypeError: expected asr, mcr or frr, got "xyz")'),
            ("member-of-an-array", "validation", "document is not a JSON object"),
            ("controller-member-that-is-null", "validation", "document is not a JSON object"),
            ("directory-as-a-system", "usage", "Is a directory"),
            ("export-into-a-missing-directory", "usage", "No such file or directory"),
            ("bound-with-a-zero-denominator", "validation", "zero denominator in '1/0'"),
            ("bound-with-a-long-numerator", "validation", "integer string conversion"),
            ("bound-with-a-long-denominator", "validation", "integer string conversion"),
            ("concretize-over-a-failed-check", "validation",
             f"mcr check failed at (1, a, {ALPHA}), successor pair (2, c) escapes"),
        ]
    ])
    def test_bad_documents_and_paths_are_named_errors(
        self, capsys, tmp_path, bundle_path, fx, case, error, detail
    ):
        system = jsonio.system_to_obj(fx.s1)
        relation = jsonio.relation_to_obj(fx.relation)
        docs = {
            "system-without-trans": {k: v for k, v in system.items() if k != "trans"},
            "successors-as-a-number": {**system, "trans": {**system["trans"], "1|0": 5}},
            "successors-as-a-string": {**system, "trans": {**system["trans"], "1|0": "25"}},
            "inputs-as-a-string": {**system, "inputs": "01"},
            "member-of-an-array": [system],
            "relation-pair-with-a-number": {**relation, "pairs": [[1, "a"], *relation["pairs"]]},
            "relation-pair-with-three-names": {
                **relation, "pairs": [["1", "a", "x"], *relation["pairs"]]},
            "relation-pairs-as-a-string": {**relation, "pairs": ""},
            "relation-pair-off-the-domain": {**relation, "pairs": [["zz", "a"]]},
            "relation-pair-off-the-codomain": {**relation, "pairs": [["1", "zz"]]},
        }
        doc_file = tmp_path / "doc.json"
        if case.startswith("relation-pair"):
            doc_file.write_text(json.dumps(docs[case]), encoding="utf-8")
            argv = ["check", "asr", "--s1", f"{bundle_path}:S1", "--s2", f"{bundle_path}:S2",
                    "--rel", str(doc_file)]
        elif case in docs:
            doc_file.write_text(json.dumps(docs[case]), encoding="utf-8")
            ref = f"{doc_file}:S1" if case == "member-of-an-array" else str(doc_file)
            argv = ["check", "asr", "--s1", ref, "--s2", ref, "--rel", ref]
        elif case == "controller-member-that-is-null":
            bundle = jsonio.bundle_to_obj(fig5_bundle())
            bundle["controllers"]["c1_safe"] = None
            doc_file.write_text(json.dumps(bundle), encoding="utf-8")
            argv = ["simulate", "--sys", f"{doc_file}:S1", "--controller", f"{doc_file}:c1_safe",
                    "--from", "1", "--horizon", "3"]
        elif case == "interface-of-an-unknown-kind":
            run(capsys, "concretize", "--mode", "dynamic", "--s1", f"{bundle_path}:S1",
                "--s2", f"{bundle_path}:S2", "--rel", f"{bundle_path}:R",
                "--controller", f"{bundle_path}:c2_via_b", "--kind", "asr", "--out", str(doc_file))
            tracker = jsonio.load(doc_file)
            tracker["interface"]["relation_kind"] = "xyz"
            jsonio.save(doc_file, tracker)
            argv = ["simulate", "--sys", f"{bundle_path}:S1", "--controller", str(doc_file),
                    "--from", "1", "--horizon", "3"]
        elif case == "directory-as-a-system":
            argv = ["synthesize", "--sys", str(tmp_path), "--spec", str(tmp_path)]
        elif case == "bound-with-a-zero-denominator":
            argv = ["demo", "fig8", "--bound", "1/0"]
        elif case == "bound-with-a-long-numerator":
            argv = ["demo", "fig8", "--bound", "1" * 5000 + "/1"]
        elif case == "bound-with-a-long-denominator":
            argv = ["demo", "fig8", "--bound", "1/" + "1" * 5000]
        elif case == "concretize-over-a-failed-check":
            argv = ["concretize", "--mode", "memoryless", "--kind", "mcr",
                    "--s1", f"{bundle_path}:S1", "--s2", f"{bundle_path}:S2",
                    "--rel", f"{bundle_path}:R", "--controller", f"{bundle_path}:c2_via_b"]
        else:
            argv = ["demo", "fig5", "--export-bundle", str(tmp_path / "missing" / "x.json")]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.count("\n") == 1
        doc = json.loads(err)
        assert doc["error"] == error and detail in doc["detail"]

    def test_a_document_nested_too_deeply_is_a_validation_error(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        code, out, err = run(capsys, "synthesize", "--sys", str(deep), "--spec", str(deep))
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err) == {
            "error": "validation", "detail": "document nests too deeply to decode"}

    def test_zero_simulability_horizon_is_a_validation_error(self, capsys, bundle_path):
        code, out, err = run(
            capsys, "verify", "--property", "one", "--horizon", "0",
            "--s1", f"{bundle_path}:S1", "--s2", f"{bundle_path}:S2",
            "--rel", f"{bundle_path}:R", "--c1", f"{bundle_path}:c1_safe",
            "--c2", f"{bundle_path}:c2_via_b",
        )
        assert code == 2 and out == "" and err.count("\n") == 1
        assert json.loads(err) == {"error": "validation", "detail": "horizon must be at least 1"}

    def test_validation_error_surfaces(self, capsys, bundle_path):
        code, _, err = run(
            capsys, "verify", "--property", "one",
            "--s1", f"{bundle_path}:S1", "--s2", f"{bundle_path}:S2",
            "--rel", f"{bundle_path}:R",
        )
        assert code == 2 and json.loads(err)["error"] == "usage"


# Decoding fuzz: one value of the fig5 bundle is mutated, and every command
# that reads the bundle must either ignore the mutation or reject it with one
# named error line.

FIG5_BUNDLE = jsonio.bundle_to_obj(fig5_bundle())
FUZZ_COMMANDS = {
    "check": ["check", "asr", "--s1", "S1", "--s2", "S2", "--rel", "R"],
    "extend": ["extend", "--s1", "S1", "--s2", "S2", "--rel", "R"],
    "synthesize": ["synthesize", "--sys", "S2", "--spec", "sigma2"],
    "concretize": ["concretize", "--mode", "memoryless", "--kind", "asr", "--s1", "S1",
                   "--s2", "S2", "--rel", "R", "--controller", "c2_via_b"],
    "simulate": ["simulate", "--sys", "S1", "--controller", "c1_safe", "--from", "1",
                 "--horizon", "3"],
    "verify one": ["verify", "--property", "one", "--s1", "S1", "--s2", "S2", "--rel", "R",
                   "--c1", "c1_safe", "--c2", "c2_via_b"],
    "verify two": ["verify", "--property", "two", "--s1", "S1", "--s2", "S2", "--rel", "R",
                   "--c2", "c2_via_b"],
    "verify two-all": ["verify", "--property", "two-all", "--s1", "S1", "--s2", "S2",
                       "--rel", "R"],
}
MEMBERS = {"S1", "S2", "R", "sigma2", "c1_safe", "c2_via_b"}


NODES = list(json_nodes(FIG5_BUNDLE))
# The values each kind of mutation may hit, by their paths; the bundle
# itself is the empty path.  A transition or a controller choice dropped or
# added is another valid system or controller, so keys come and go only in
# the other objects.
FIELDS = [path for path, value in NODES if isinstance(value, dict)
          and path[-1] not in ("trans", "choices")]
TARGETS = {
    "type": [path for path, _ in NODES],
    "string for list": [path for path, value in NODES if isinstance(value, list)],
    "int for name": [path for path, value in NODES if isinstance(value, str)],
    "missing": [path for path, _ in NODES if path[:-1] in [(), *FIELDS]],
    "extra": [(), *FIELDS],
}
MUTATIONS = st.sampled_from(sorted(TARGETS)).flatmap(
    lambda how: st.tuples(st.just(how), st.sampled_from(TARGETS[how])))


@st.composite
def mutated_bundles(draw):
    """A copy of the fig5 bundle with one value swapped for another type, a
    list swapped for a string, a name for an int, a key dropped or a key
    added."""
    how, path = draw(MUTATIONS)
    doc = copy.deepcopy(FIG5_BUNDLE)
    mutate(draw, doc, how, path)
    return doc


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def fuzz_runs(tmp_path_factory):
    """Run every fuzz command on a bundle document; the unmutated runs come
    first."""
    path = tmp_path_factory.mktemp("fuzz") / "bundle.json"

    def run_all(doc):
        path.write_text(json.dumps(doc), encoding="utf-8")
        return {
            name: run_quietly([f"{path}:{a}" if a in MEMBERS else a for a in argv])
            for name, argv in FUZZ_COMMANDS.items()
        }

    return run_all(FIG5_BUNDLE), run_all


@settings(max_examples=150, deadline=None)
@given(doc=mutated_bundles())
def test_mutated_bundle_is_ignored_or_named(fuzz_runs, doc):
    baseline, run_all = fuzz_runs
    assert {code for code, _, _ in baseline.values()} == {0, 1}
    for name, (code, out, err) in run_all(doc).items():
        if code == 2:
            assert out == "" and err.count("\n") == 1, name
            assert json.loads(err)["error"] in ("usage", "validation"), name
        else:
            assert (code, out, err) == baseline[name], name
