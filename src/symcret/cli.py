"""Command-line front end.

Objects live in JSON files; an argument of the form ``path`` names a
single-object file and ``path:name`` picks a member out of a bundle file.
Exit codes: 0 when the queried property holds or the command succeeds, 1 when
a property is refuted or synthesis is unsolvable (the witness is still
emitted), 2 for usage and validation errors, malformed documents and
unusable paths included.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Any, Sequence

from . import jsonio
from .concretize import (
    DynamicConcretizer,
    closed_loop_run,
    count_dynamic_runs,
    memoryless_controller,
)
from .core import FiniteTransitionSystem, SymcretError
from .interval import prove_frr_infeasible_fig8
from .jsonio import FormatError, ProjectBundle
from .oracle import (
    check_controlled_simulability,
    check_memoryless_concretization,
    check_memoryless_concretization_all_controllers,
)
from .relations import (
    Relation,
    RelationKind,
    check_asr,
    check_mcr,
    check_relation,
    extended_relation,
    maximal_interface,
    mcr_extension,
    validate_interface,
)
from .synthesis import _synthesize, is_sub_controller, synthesize_reach_avoid


class UsageError(SymcretError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _emit(payload: dict[str, Any], json_only: bool, lines: Sequence[str] = ()) -> None:
    if not json_only:
        for line in lines:
            print(line)
    print(jsonio.dumps(payload), end="")


def _fail(code: str, message: str) -> int:
    print(json.dumps({"error": code, "detail": message}), file=sys.stderr)
    return 2


# ------------------------------------------------------------- references


def _split_ref(ref: str) -> tuple[Path, str | None]:
    path, sep, name = ref.rpartition(":")
    if sep and path and Path(path).suffix == ".json":
        return Path(path), name
    return Path(ref), None


def _load_doc(ref: str, parsed: dict[Path, Any]) -> Any:
    """The document or bundle member ``ref`` names.  ``parsed`` holds the
    command's documents by path, so a file named by several references is
    read and parsed once."""
    path, member = _split_ref(ref)
    if not path.exists():
        raise UsageError(f"no such file: {path}")
    if path not in parsed:
        parsed[path] = jsonio.load(path)
    doc = parsed[path]
    if member is not None and isinstance(doc, dict):
        if doc.get("kind") != "bundle":
            raise UsageError(f"{path} is not a bundle, cannot select member {member!r}")
        for section in ("systems", "relations", "controllers", "specs", "covers"):
            members = doc.get(section)
            if isinstance(members, dict) and member in members:
                doc = members[member]
                break
        else:
            raise UsageError(f"bundle {path} has no member named {member!r}")
    if not isinstance(doc, dict):
        raise FormatError("document is not a JSON object")
    return doc


def _load_triplet(
    args: argparse.Namespace,
) -> tuple[FiniteTransitionSystem, FiniteTransitionSystem, Relation]:
    s1 = jsonio.system_from_obj(_load_doc(args.s1, args.parsed))
    s2 = jsonio.system_from_obj(_load_doc(args.s2, args.parsed))
    return s1, s2, jsonio.relation_from_obj(_load_doc(args.rel, args.parsed), s1, s2)


def _maybe_save(obj: dict[str, Any], out: str | None) -> None:
    if out:
        jsonio.save(out, obj)


# --------------------------------------------------------------- commands


def _witness_obj(witness) -> Any:
    if witness is None:
        return None
    return {
        "x1": witness.x1,
        "x2": witness.x2,
        "u2": witness.u2,
        "evidence": list(witness.evidence) if witness.evidence else None,
    }


def cmd_check(args: argparse.Namespace) -> int:
    s1, s2, rel = _load_triplet(args)
    kind = RelationKind(args.kind)
    verdict = check_relation(kind, s1, s2, rel)
    if args.extended_out:
        ext = extended_relation(kind, s1, s2, rel)
        jsonio.save(args.extended_out, jsonio.tagged("extended-relation", {
            "relation_kind": kind.value,
            "tuples": [list(t) for t in sorted(ext.tuples)],
        }))
    payload = jsonio.tagged("relation-verdict", {
        "relation_kind": kind.value,
        "holds": verdict.holds,
        "witness": _witness_obj(verdict.witness),
    })
    _emit(payload, args.json, [f"{kind.value}: {'holds' if verdict.holds else 'refuted'}"])
    return 0 if verdict.holds else 1


def cmd_extend(args: argparse.Namespace) -> int:
    obj = jsonio.system_to_obj(mcr_extension(*_load_triplet(args)))
    _maybe_save(obj, args.out)
    _emit(obj, args.json, ["wrote extended abstraction" if args.out else "extended abstraction:"])
    return 0


def cmd_synthesize(args: argparse.Namespace) -> int:
    sys_ = jsonio.system_from_obj(_load_doc(args.sys, args.parsed))
    spec = jsonio.spec_from_obj(_load_doc(args.spec, args.parsed))
    result, losing = _synthesize(sys_, spec)
    if result is None:
        payload = jsonio.tagged("synthesis-result", {
            "solvable": False,
            "losing_initial": sorted(losing),
        })
        _emit(payload, args.json, ["unsolvable"])
        return 1
    payload = jsonio.tagged("synthesis-result", {
        "solvable": True,
        "controller": jsonio.controller_to_obj(result.controller),
        "rank": {x: result.rank[x] for x in sorted(result.rank)},
        "winning": sorted(result.winning),
    })
    _maybe_save(payload, args.out)
    _emit(payload, args.json, ["solvable"])
    return 0


def cmd_concretize(args: argparse.Namespace) -> int:
    s1, s2, rel = _load_triplet(args)
    c2 = jsonio.controller_from_obj(_load_doc(args.controller, args.parsed))
    interface = maximal_interface(s1, s2, rel, RelationKind(args.kind))
    if args.mode == "memoryless":
        obj = jsonio.controller_to_obj(memoryless_controller(c2, rel, interface))
    else:
        obj = jsonio.tagged("concretizer", {
            "s2": jsonio.system_to_obj(s2),
            "relation": jsonio.relation_to_obj(rel),
            "interface": jsonio.interface_to_obj(interface),
            "controller": jsonio.controller_to_obj(c2),
        })
    _maybe_save(obj, args.out)
    _emit(obj, args.json, [f"{args.mode} concretization ready"])
    return 0


def _controller_for_simulation(doc: Any, s1: FiniteTransitionSystem):
    if doc.get("kind") != "concretizer":
        return jsonio.controller_from_obj(doc)
    missing = sorted({"s2", "relation", "interface", "controller"} - doc.keys())
    if missing:
        raise FormatError(f"concretizer document lacks {', '.join(missing)}")
    s2 = jsonio.system_from_obj(doc["s2"])
    rel = jsonio.relation_from_obj(doc["relation"], s1, s2)
    interface = jsonio.interface_from_obj(doc["interface"])
    c2 = jsonio.controller_from_obj(doc["controller"])
    validate_interface(s1, s2, rel, interface)
    c2.validate_for(s2)
    return DynamicConcretizer(s2, c2, rel, interface)


def cmd_simulate(args: argparse.Namespace) -> int:
    sys_ = jsonio.system_from_obj(_load_doc(args.sys, args.parsed))
    controller = _controller_for_simulation(_load_doc(args.controller, args.parsed), sys_)
    resolver = args.resolver.split(",") if args.resolver and args.resolver != "lex" else None
    input_script = args.input_script.split(",") if args.input_script else None
    traj = closed_loop_run(
        sys_, controller, args.from_state, args.horizon,
        choose_input=input_script, resolver=resolver,
    )
    if isinstance(controller, DynamicConcretizer):
        payload = jsonio.dynamic_trace_to_obj(controller.trace)
    else:
        payload = jsonio.trajectory_to_obj(traj)
    _emit(payload, args.json, [" -> ".join(traj.states)])
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    for flag, reader in (("horizon", "one"), ("budget", "two-all")):
        if getattr(args, flag) is not None and args.property != reader:
            raise UsageError(f"--{flag} applies to property `{reader}` only")
    s1, s2, rel = _load_triplet(args)
    if args.property == "one":
        if not (args.c1 and args.c2):
            raise UsageError("property `one` needs --c1 and --c2")
        c1, c2 = (jsonio.controller_from_obj(_load_doc(ref, args.parsed))
                  for ref in (args.c1, args.c2))
        verdict = check_controlled_simulability(s1, s2, rel, c1, c2, args.horizon)
    else:
        interface = maximal_interface(s1, s2, rel, RelationKind(args.kind))
        if args.property == "two":
            if not args.c2:
                raise UsageError("property `two` needs --c2")
            c2 = jsonio.controller_from_obj(_load_doc(args.c2, args.parsed))
            verdict = check_memoryless_concretization(s1, s2, rel, interface, c2)
        else:
            verdict = check_memoryless_concretization_all_controllers(
                s1, s2, rel, interface, args.budget)
    witness = None
    if verdict.witness is not None:
        inner = verdict.witness
        witness = {"concrete": list(inner.concrete), "inputs": list(inner.concrete_inputs)}
        if inner.quantization is not None:
            witness["quantization"] = list(inner.quantization)
        if getattr(verdict, "witness_controller", None) is not None:
            witness["controller"] = jsonio.controller_to_obj(verdict.witness_controller)
    payload = jsonio.tagged("property-verdict", {
        "property": args.property,
        "holds": verdict.holds,
        "witness": witness,
    })
    _emit(payload, args.json, [f"property {args.property}: {'holds' if verdict.holds else 'refuted'}"])
    return 0 if verdict.holds else 1


# ------------------------------------------------------------------ demos


def _table(rows: list[tuple[str, bool, str]], json_only: bool, extra: dict[str, Any]) -> int:
    ok = all(passed for _, passed, _ in rows)
    if not json_only:
        width = max(len(label) for label, _, _ in rows)
        for label, passed, detail in rows:
            mark = "PASS" if passed else "FAIL"
            print(f"  [{mark}] {label.ljust(width)}  {detail}")
        print(f"{'all checks passed' if ok else 'SOME CHECKS FAILED'}")
    if json_only:
        payload = jsonio.tagged("demo-report", {
            "checks": [
                {"label": label, "passed": passed, "detail": detail}
                for label, passed, detail in rows
            ],
            "passed": ok,
            **extra,
        })
        print(jsonio.dumps(payload), end="")
    return 0 if ok else 1


def fig5_bundle() -> ProjectBundle:
    """The paper's fig5 scenario, decoded from the packaged ``data/fig5.json``,
    the one place it is defined."""
    from importlib import resources  # only `demo fig5` pays for the import

    text = resources.files("symcret").joinpath("data/fig5.json").read_text("utf-8")
    return jsonio.bundle_from_obj(json.loads(text))


def cmd_demo_fig5(args: argparse.Namespace) -> int:
    bundle = fig5_bundle()
    s1, s2, s2x = (bundle.systems[name] for name in ("S1", "S2", "S2x"))
    rel, spec2 = bundle.relations["R"][2], bundle.specs["sigma2"][1]
    via_b, via_e, c1_safe = (bundle.controllers[name][1]
                             for name in ("c2_via_b", "c2_via_e", "c1_safe"))

    structure = {
        "s1_non_blocking": s1.is_non_blocking(),
        "s2_non_blocking": s2.is_non_blocking(),
        "s2_deterministic": s2.is_deterministic(),
        "s2_extended_non_deterministic": not s2x.is_deterministic(),
        "relation_strict": rel.is_strict(),
        "relation_overlaps_at_2": rel.forward("2") == frozenset({"b", "c"}),
    }
    failed = sorted(name for name, ok in structure.items() if not ok)
    rows = [("fixture-consistency", not failed,
             f"fig5 fixture consistency checks failed: {failed}" if failed
             else "all fixture checks passed")]
    rows.append(("alternating-simulation", check_asr(s1, s2, rel).holds, "holds"))
    w = check_mcr(s1, s2, rel).witness  # None when the relation holds
    rows.append(("memoryless-relation",
                 w is not None and (w.x1, w.x2, w.u2, w.evidence) == ("1", "a", "α", ("2", "c")),
                 "refuted at (1, a, α), successor pair (2, c) escapes"))
    interface = maximal_interface(s1, s2, rel, RelationKind.ASR)
    overlap = [interface.inputs_for(x1, x2, "α")
               for x1, x2 in (("1", "a"), ("2", "b"), ("2", "c"))]
    rows.append(("maximal-interface", overlap == [{"0"}, {"0"}, {"1"}],
                 "(1,a,α)->{0}  (2,b,α)->{0}  (2,c,α)->{1}"))

    c1 = memoryless_controller(via_b, rel, interface)
    values_ok = (
        c1.choices.get("1") == frozenset({"0"}) and c1.choices.get("2") == frozenset({"0", "1"})
    )
    rows.append(("memoryless-controller-values", values_ok, "c1(1)={0}, c1(2)={0,1}"))

    p2_bad = check_memoryless_concretization(s1, s2, rel, interface, via_b)
    bad_ok = (
        not p2_bad.holds
        and p2_bad.witness is not None
        and p2_bad.witness.concrete == ("1", "2", "3")
        and p2_bad.witness.quantization == ("a", "c", "d")
    )
    rows.append(("memoryless-guarantee-refuted", bad_ok,
                 "run (1,2,3) quantizes to invalid abstract trace (a,c,d)"))

    p2_good = check_memoryless_concretization(s1, s2, rel, interface, via_e)
    rows.append(("alternate-controller-safe", p2_good.holds,
                 "the detour controller satisfies the memoryless guarantee"))

    p1_bad = check_controlled_simulability(s1, s2, rel, c1, via_b, 6)
    p1_good = check_controlled_simulability(s1, s2, rel, c1_safe, via_b, 6)
    rows.append((
        "controlled-simulability",
        (not p1_bad.holds and p1_bad.witness.concrete == ("1", "2", "3") and p1_good.holds),
        "concretized controller leaks run (1,2,3); the safe hand-built one does not",
    ))

    # mcr_extension raises unless both memoryless checks pass on its result.
    extended = mcr_extension(s1, s2, rel)
    ext_ok = extended == s2x and extended.successors("a", "α") == frozenset({"b", "c"}) and all(
        extended.trans[key] == s2.trans[key] for key in s2.trans if key != ("a", "α")
    )
    rows.append(("extension", ext_ok,
                 "only row (a, α) grows, to {b, c}; memoryless checks pass"))

    res2 = synthesize_reach_avoid(s2, spec2)
    res2x = synthesize_reach_avoid(extended, spec2)
    synth_ok = (
        res2 is not None
        and is_sub_controller(via_b, res2.controller)
        and is_sub_controller(via_e, res2.controller)
        and res2x is not None
        and res2x.controller.choices.get("a") == frozenset({"β"})
    )
    rows.append(("synthesis-collapse", synth_ok,
                 "original admits both routes; extension pins a -> {β}"))

    try:
        runs_total = sum(
            count_dynamic_runs(s1, s2, c2, rel, interface, x0, 6)
            for c2 in (via_b, via_e)
            for x0 in s1.states
            if any(x2 in c2.choices for x2 in rel.forward(x0))
        )
    except SymcretError:
        runs_total = 0
    rows.append(("dynamic-architecture-invariant", runs_total > 0,
                 f"{runs_total} fully branched runs, relation held, no empty intersection"))

    if args.export_bundle:
        jsonio.save(args.export_bundle, jsonio.bundle_to_obj(bundle))

    return _table(rows, args.json, {"demo": "fig5"})


def cmd_demo_fig8(args: argparse.Namespace) -> int:
    bound = jsonio.fraction_from_str(args.bound)
    report = prove_frr_infeasible_fig8(bound)
    expected = {
        "0 < c < L": frozenset({"q1", "q2", "q3"}),
        "c = L": frozenset({"q2", "q3"}),
        "c = 0": frozenset({"q1"}),
    }
    rows: list[tuple[str, bool, str]] = []
    for case in report.constant_cases:
        ok = case.q1_successors == expected[case.label] and not case.solvable
        rows.append((
            f"constant-case {case.label}",
            ok,
            f"shift {case.shift}: q1 -> {{{', '.join(sorted(case.q1_successors))}}}, unsolvable",
        ))
    rows.append(("affine-feedback", (
        report.affine_solvable
        and report.affine_deterministic
        and report.affine_ranks.get("q1") == 1
        and report.affine_ranks.get("q3") == 1
        and report.affine_mcr_ok
    ), "deterministic, solvable, both side cells one step from the origin"))
    extra = {
        "demo": "fig8",
        "report": {
            "bound": jsonio.fraction_to_str(report.bound),
            "cases": [
                {
                    "label": c.label,
                    "shift": jsonio.fraction_to_str(c.shift),
                    "q1_successors": sorted(c.q1_successors),
                    "q3_successors": sorted(c.q3_successors),
                    "solvable": c.solvable,
                }
                for c in report.constant_cases
            ],
            "affine": {
                "solvable": report.affine_solvable,
                "deterministic": report.affine_deterministic,
                "ranks": dict(sorted(report.affine_ranks.items())),
                "memoryless_containment": report.affine_mcr_ok,
            },
            "rationale": report.rationale,
        },
    }
    return _table(rows, args.json, extra)


# ------------------------------------------------------------------ main


def _parent(*flags: str, **options: Any) -> _Parser:
    """A parent parser declaring each of ``flags`` with the same options."""
    parent = _Parser(add_help=False)
    for flag in flags:
        parent.add_argument(flag, **options)
    return parent


@functools.cache  # argparse parsers are reusable, and building one costs milliseconds
def _build_parser() -> _Parser:
    parser = _Parser(prog="symcret", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    kinds = [k.value for k in RelationKind]
    as_json = _parent("--json", action="store_true")
    triplet = _parent("--s1", "--s2", "--rel", required=True)
    kind = _parent("--kind", choices=kinds, default="asr")
    out = _parent("--out")
    system = _parent("--sys", required=True)
    ctrl = _parent("--controller", required=True)

    check = sub.add_parser("check", help="check a relation between two systems",
                           parents=[_parent("kind", choices=kinds), triplet, as_json])
    check.add_argument("--extended-out")
    check.set_defaults(run=cmd_check)

    extend = sub.add_parser("extend", help="complete an abstraction for memoryless use",
                            parents=[triplet, out, as_json])
    extend.set_defaults(run=cmd_extend)

    synth = sub.add_parser("synthesize", help="solve a reach-avoid problem",
                           parents=[system, out, as_json])
    synth.add_argument("--spec", required=True)
    synth.set_defaults(run=cmd_synthesize)

    modes = _parent("--mode", choices=["memoryless", "dynamic"], required=True)
    conc = sub.add_parser("concretize", help="derive a concrete controller",
                          parents=[modes, triplet, ctrl, kind, out, as_json])
    conc.set_defaults(run=cmd_concretize)

    sim = sub.add_parser("simulate", help="run a closed loop", parents=[system, ctrl, as_json])
    sim.add_argument("--from", dest="from_state", required=True)
    sim.add_argument("--horizon", type=_count, required=True)
    sim.add_argument("--resolver", default="lex",
                     help="'lex' or a comma-separated successor script")
    sim.add_argument("--input-script", default=None,
                     help="comma-separated input picks for memoryless runs")
    sim.set_defaults(run=cmd_simulate)

    props = _parent("--property", choices=["one", "two", "two-all"], required=True)
    verify = sub.add_parser("verify", help="check a transfer guarantee",
                            parents=[props, triplet, kind, as_json])
    verify.add_argument("--c1")
    verify.add_argument("--c2")
    verify.add_argument("--horizon", type=_count, default=None,
                        help="one: count only runs of at most this many states")
    verify.add_argument("--budget", type=_count, default=None,
                        help="two-all: refuse up front above this many controllers")
    verify.set_defaults(run=cmd_verify)

    demo = sub.add_parser("demo", help="bundled end-to-end scenarios")
    demo_sub = demo.add_subparsers(dest="scenario", required=True)

    d5 = demo_sub.add_parser("fig5", help="finite separation scenario", parents=[as_json])
    d5.add_argument("--export-bundle", default=None)
    d5.set_defaults(run=cmd_demo_fig5)

    d8 = demo_sub.add_parser("fig8", help="segment reach-the-origin scenario", parents=[as_json])
    d8.add_argument("--bound", default="1", help="segment half-width, as p/q")
    d8.set_defaults(run=cmd_demo_fig8)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        args.parsed = {}  # path -> document, for ``_load_doc``
        return args.run(args)
    except UsageError as err:
        return _fail("usage", str(err))
    except OSError as err:
        return _fail("usage", f"{err.strerror}: {err.filename}" if err.filename else str(err))
    except (SymcretError, ValueError) as err:
        return _fail("validation", str(err))


if __name__ == "__main__":
    sys.exit(main())
