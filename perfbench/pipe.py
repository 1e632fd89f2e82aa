"""The offline pipelines and online loops, written once and run with either
tracer, plus the checks of their outputs against the generators' answers.

Every library call goes through ``tr.call("<layer>.<function>", fn, ...)``;
answer checks run after the pipeline returns, outside its timing.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction
from time import perf_counter

from symcret import (
    ControllerUndefinedError,
    RelationKind,
    build_abstraction,
    check_asr,
    check_controlled_simulability,
    check_mcr,
    check_memoryless_concretization,
    check_memoryless_concretization_all_controllers,
    closed_loop_run,
    jsonio,
    maximal_interface,
    mcr_extension,
    memoryless_controller,
    quantize,
    replay_memoryless_witness,
    replay_witness,
    synthesize_reach_avoid,
    translate_spec,
    verify_asr_interval,
    verify_mcr_interval,
)

from gen import LINE_HORIZON, TINY_BUDGET, interval_grid, line_plant
from spans import LayerError, Untraced


class Checker:
    """Counts attempted operations (smoke demos, pipeline instances, online
    runs), failed ones, and the failed checks of each layer.  A failure is
    an exception or an output that differs from the known answer."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.layer_failed: dict[str, int] = {}
        self.messages: list[str] = []
        self._bad = False

    def start(self) -> None:
        self.attempted += 1
        self._bad = False

    def expect(self, layer: str, ok: bool, what: str) -> bool:
        if not ok:
            self.layer_failed[layer] = self.layer_failed.get(layer, 0) + 1
            if len(self.messages) < 20:
                self.messages.append(f"{layer}: {what}")
            if not self._bad:
                self.failed += 1
                self._bad = True
        return ok

    def raised(self, err: LayerError) -> None:
        self.expect(err.name.split(".")[0], False, str(err))


def _load_bundle(path):
    return jsonio.bundle_from_obj(jsonio.load(path))


def _load_cover(path):
    return jsonio.cover_from_obj(jsonio.load(path))


def _load_spec(path):
    return jsonio.spec_from_obj(jsonio.load(path))


def _synthesis_doc(res) -> dict:
    return {
        "format": jsonio.FORMAT,
        "kind": "synthesis-result",
        "solvable": True,
        "controller": jsonio.controller_to_obj(res.controller),
        "rank": {x: res.rank[x] for x in sorted(res.rank)},
        "winning": sorted(res.winning),
    }


def _dump_results(s2x, res, c1) -> int:
    docs = [jsonio.system_to_obj(s2x), _synthesis_doc(res)]
    if c1 is not None:
        docs.append(jsonio.controller_to_obj(c1))
    return sum(len(jsonio.dumps(doc)) for doc in docs)


# --------------------------------------------------------------- interval


def grid_pipeline(tr, inst: dict) -> dict:
    cover, laws, avail = tr.call("jsonio.load", _load_cover, inst["cover"])
    spec = tr.call("jsonio.load", _load_spec, inst["spec"])
    s2 = tr.call("interval.build_abstraction", build_abstraction, cover, laws, avail)
    mcr_ok = tr.call("interval.verify_mcr_interval", verify_mcr_interval, cover, s2, laws)
    asr_ok = tr.call("interval.verify_asr_interval", verify_asr_interval, cover, s2, laws)
    res = tr.call("synthesis.synthesize_reach_avoid", synthesize_reach_avoid, s2, spec)
    size = tr.call("jsonio.dump", _dump_results, s2, res, None) if res else 0
    if tr.on:
        tr.count("interval.cells", len(cover.cells))
        tr.count("jsonio.bytes", size)
        if res is not None:
            levels = max(res.rank.values())
            tr.count("synthesis.levels", levels)
            tr.count("synthesis.state_levels", levels * len(s2.states))
    return {"cover": cover, "laws": {ai.name: ai.law for ai in laws}, "s2": s2,
            "mcr": mcr_ok, "asr": asr_ok, "res": res}


def grid_check(ck: Checker, inst: dict, out: dict) -> None:
    ck.expect("interval", out["mcr"], "verify_mcr_interval refuted a built abstraction")
    ck.expect("interval", out["asr"], "verify_asr_interval refuted a built abstraction")
    res = out["res"]
    if ck.expect("synthesis", res is not None, "grid reported unsolvable"):
        ck.expect("synthesis", dict(res.rank) == inst["rank"], "grid ranks differ")
        ck.expect("synthesis", res.winning == frozenset(out["s2"].states),
                  "grid winning set is not every cell")


def grid_online(tr, ck: Checker, inst: dict, out: dict, rng: random.Random):
    """Quantize the point, look up the abstract controller at a covered
    cell, apply that cell's law; stop when no covered cell remains, which
    must be the origin, within the rank bound of the start.  Returns the
    step count and the seconds the loop took."""
    cover, laws, res = out["cover"], out["laws"], out["res"]
    choices, rank = res.controller.choices, res.rank
    reach = len(cover.cells) // 2 * 9999
    x = inst["width"] * Fraction(rng.randint(-reach, reach), 9999)
    steps = 0
    bound = None
    start = perf_counter()
    while True:
        cells = tr.call("interval.quantize", quantize, cover, x)
        if bound is None:
            bound = max(rank[q] for q in cells)
        covered = sorted(q for q in cells if q in choices)
        if not covered or steps > bound:
            break
        q = covered[rng.randrange(len(covered))]
        menu = sorted(choices[q])
        x = laws[menu[rng.randrange(len(menu))]].closed_loop(x)
        steps += 1
    secs = perf_counter() - start
    ck.expect("interval", x == 0 and steps <= bound,
              f"online run ended at {x} after {steps} steps (bound {bound})")
    if tr.on:
        tr.count("interval.quantize.calls", steps + 1)
    return steps, secs


# ------------------------------------------------- line_plant, tiny_batch


def finite_pipeline(tr, inst: dict) -> dict:
    """Load, check asr/mcr, repair with the extension, synthesize on the
    repaired abstraction, concretize, verify, write the results back.
    `tiny_batch` also enumerates every controller ("two-all") on the
    original abstraction; `line_plant` verifies the synthesized one."""
    tiny = inst["kind"] == "tiny"
    bundle = tr.call("jsonio.load", _load_bundle, inst["bundle"])
    s1, s2 = bundle.systems["S1"], bundle.systems["S2"]
    rel = bundle.relations["R"][2]
    spec = bundle.specs["spec"][1]
    out: dict = {"s1": s1, "s2": s2, "rel": rel}
    out["asr"] = asr = tr.call("relations.check_asr", check_asr, s1, s2, rel)
    out["mcr"] = mcr = tr.call("relations.check_mcr", check_mcr, s1, s2, rel)
    if tr.on:
        tr.count("relations.triples", sum(
            len(s2.available_inputs(x2)) for _, x2 in rel.pairs))
    if not asr.holds:
        return out
    if tiny:
        kind = RelationKind.MCR if mcr.holds else RelationKind.ASR
        out["iface0"] = iface0 = tr.call(
            "relations.maximal_interface", maximal_interface, s1, s2, rel, kind)
        out["two_all"] = tr.call(
            "oracle.check_memoryless_concretization_all_controllers",
            check_memoryless_concretization_all_controllers,
            s1, s2, rel, iface0, budget=TINY_BUDGET)
    out["s2x"] = s2x = tr.call("relations.mcr_extension", mcr_extension, s1, s2, rel)
    iface = tr.call("relations.maximal_interface", maximal_interface, s1, s2x, rel,
                    RelationKind.MCR)
    aspec = tr.call("relations.translate_spec", translate_spec, spec, rel)
    out["res"] = res = tr.call(
        "synthesis.synthesize_reach_avoid", synthesize_reach_avoid, s2x, aspec)
    if tr.on:
        tr.count("relations.rows_grown", sum(
            len(s2x.trans[key]) - len(s2.trans[key]) for key in s2.trans))
        tr.count("oracle.controllers_checked", out["two_all"].checked if tiny else 0)
    if res is None:
        return out
    c2 = res.controller
    out["c1"] = c1 = tr.call("concretize.memoryless_controller", memoryless_controller,
                             c2, rel, iface)
    if not tiny:
        out["two"] = tr.call("oracle.check_memoryless_concretization",
                             check_memoryless_concretization, s1, s2x, rel, iface, c2)
    out["one"] = tr.call("oracle.check_controlled_simulability",
                         check_controlled_simulability, s1, s2x, rel, c1, c2,
                         None if tiny else LINE_HORIZON)
    size = tr.call("jsonio.dump", _dump_results, s2x, res, c1)
    if tr.on:
        levels = max(res.rank.values())
        tr.count("synthesis.levels", levels)
        tr.count("synthesis.state_levels", levels * len(s2x.states))
        tr.count("jsonio.bytes", size)
    return out


def finite_check(ck: Checker, inst: dict, out: dict) -> None:
    exp = inst["expect"]
    s1, s2, rel = out["s1"], out["s2"], out["rel"]
    asr, mcr = out["asr"], out["mcr"]
    ck.expect("relations", asr.holds == exp["asr"], f"asr verdict {asr.holds}")
    ck.expect("relations", mcr.holds == exp["mcr"], f"mcr verdict {mcr.holds}")
    ck.expect("relations", asr.holds or not mcr.holds, "mcr holds without asr")
    for kind, verdict in ((RelationKind.ASR, asr), (RelationKind.MCR, mcr)):
        if not verdict.holds:
            ck.expect("relations", replay_witness(kind, s1, s2, rel, verdict.witness),
                      f"{kind.value} witness does not replay")
    if "refuting" in inst and not mcr.holds:
        w = mcr.witness
        ck.expect("relations", (w.x1, w.x2, w.u2) == min(inst["refuting"]),
                  f"mcr witness {w} is not the least refuting triple")
    if not asr.holds:
        return
    if "two_all" in out:
        verdict = out["two_all"]
        ck.expect("oracle", verdict.holds == exp["two_all"], f"two-all verdict {verdict.holds}")
        if not verdict.holds:
            ck.expect("oracle", replay_memoryless_witness(
                s1, s2, rel, out["iface0"], verdict.witness_controller, verdict.witness),
                "two-all witness does not replay")
    s2x, res = out["s2x"], out["res"]
    ck.expect("relations", all(s2.trans[k] <= s2x.trans[k] for k in s2.trans),
              "extension dropped a successor")
    solvable = res is not None
    ok = ck.expect("synthesis", solvable == exp["solvable"], f"solvable {solvable}")
    if not ok or not solvable:
        return
    if "rank" in inst:
        ck.expect("synthesis", dict(res.rank) == inst["rank"], "ranks differ")
    if "two" in out:
        ck.expect("oracle", out["two"].holds == exp["two"], "two verdict")
    ck.expect("oracle", out["one"].holds == exp["one"],
              f"one verdict, witness {out['one'].witness}")


def online_ready(inst: dict, out: dict) -> bool:
    """Whether the instance has a controller and a state to start it from:
    any non-target state whose quantizations are all winning."""
    res = out.get("res")
    if res is None or inst["kind"] == "grid":
        return res is not None
    rel = out["rel"]
    out["starts"] = [x for x in out["s1"].states
                     if x not in inst["target"] and rel.forward(x) <= res.winning]
    return bool(out["starts"])


class _Pick:
    """Seeded choice among the options; counts its calls."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.calls = 0

    def __call__(self, options):
        self.calls += 1
        return options[self.rng.randrange(len(options))]


def finite_online(tr, ck: Checker, inst: dict, out: dict, rng: random.Random):
    """One closed-loop run of the concretized controller on the plant from a
    seeded initial state.  It ends where the controller is undefined (or at
    the horizon), which must be a target state within the rank bound.
    Returns the step count and the seconds `closed_loop_run` took."""
    s1, rel, res, starts = out["s1"], out["rel"], out["res"], out["starts"]
    x0 = starts[rng.randrange(len(starts))]
    bound = max(res.rank[q] for q in rel.forward(x0))
    plant = _Pick(rng)
    start = perf_counter()
    try:
        traj = tr.call("concretize.closed_loop_run", closed_loop_run, s1, out["c1"], x0,
                       bound + 1, choose_input=_Pick(rng), resolver=plant)
        final = traj.states[-1]
    except LayerError as err:
        if not isinstance(err.__cause__, ControllerUndefinedError):
            raise
        final = err.__cause__.state
    secs = perf_counter() - start
    ck.expect("concretize", final in inst["target"],
              f"run from {x0} stopped outside the target at {final}")
    if tr.on:
        tr.count("concretize.steps", plant.calls)
    return plant.calls, secs


# ---------------------------------------------------------------- probes


def _time_ratio(slow, fast, rounds: int = 3) -> float:
    """Best time of ``slow()`` over best time of ``fast()``, measured in
    alternation so that a drift in machine speed hits both alike."""
    best = [float("inf"), float("inf")]
    for _ in range(rounds):
        for k, fn in enumerate((slow, fast)):
            start = perf_counter()
            fn()
            best[k] = min(best[k], perf_counter() - start)
    return best[0] / best[1]


def probes(seed: int, workdir, grid_k: int, line_cells: int) -> dict[str, float]:
    """Scaling probes that turn the roadmap's complexity claims into
    numbers: log2 of the time ratio of build plus verify on the grid at K
    against K/2, and of synthesis on the line at full against half the
    cells; and controlled simulability at horizon 8 divided by horizon 6."""
    quiet = Untraced()
    rng = random.Random(seed)

    def grid(k):
        cover, laws, avail = _load_cover(interval_grid(quiet, rng, k, workdir, "probe")["cover"])
        return lambda: verify_mcr_interval(cover, build_abstraction(cover, laws, avail), laws)

    def line(cells):
        bundle = _load_bundle(line_plant(quiet, rng, cells, workdir, "probe")["bundle"])
        s1, s2 = bundle.systems["S1"], bundle.systems["S2"]
        rel = bundle.relations["R"][2]
        return s1, s2, rel, translate_spec(bundle.specs["spec"][1], rel)

    out = {"interval.scaling_exp": math.log2(_time_ratio(grid(grid_k), grid(grid_k // 2)))}
    _, s2, _, aspec = line(line_cells)
    s1, h2, rel, haspec = line(line_cells // 2)
    out["synthesis.scaling_exp"] = math.log2(_time_ratio(
        lambda: synthesize_reach_avoid(s2, aspec), lambda: synthesize_reach_avoid(h2, haspec)))
    s2x = mcr_extension(s1, h2, rel)
    iface = maximal_interface(s1, s2x, rel, RelationKind.MCR)
    c2 = synthesize_reach_avoid(s2x, haspec).controller
    c1 = memoryless_controller(c2, rel, iface)
    out["oracle.horizon_growth"] = _time_ratio(
        lambda: check_controlled_simulability(s1, s2x, rel, c1, c2, 8),
        lambda: check_controlled_simulability(s1, s2x, rel, c1, c2, 6))
    return out
