"""Seeded input generators for the pipeline benchmark, each with its answers.

The generators live here, not in ``symcret.oracle``, so that a change to the
library cannot change the inputs.  Each one builds its instance from plain
Python data, knows the verdicts the pipeline must reach (by construction, or
by a brute-force evaluation of the definitions on tiny instances), and hands
the library nothing but ``symcret/1`` JSON documents.

Deliberately not exercised by any workload:

* ``core.check_spec``: the CLI never calls it, and it enumerates paths, so it
  is exponential and recurses once per step (a 1500-state chain raises
  ``RecursionError``).  The change that makes it polynomial adds its workload.
* ``check_controlled_simulability`` at its default horizon n1*n2+1 on
  ``line_plant``: the check is exponential in the horizon and would not
  finish, so ``line_plant`` uses the explicit horizon 8 of the demos.
  ``tiny_batch`` does run the default horizon.
"""
from __future__ import annotations

import random
from fractions import Fraction

from symcret import (
    AbstractInput,
    AffineMap,
    CellCover,
    FiniteTransitionSystem,
    IntervalCell,
    ReachAvoidSpec,
    Relation,
    jsonio,
)
from symcret.jsonio import ProjectBundle

TINY_BUDGET = 256
LINE_HORIZON = 8


def _save(tr, path, obj) -> None:
    path.write_text(tr.call("jsonio.dump", jsonio.dumps, obj), encoding="utf-8")


def _save_bundle(tr, path, s1, s2, rel, spec) -> None:
    bundle = ProjectBundle(
        systems={"S1": s1, "S2": s2},
        relations={"R": ("S1", "S2", rel)},
        specs={"spec": ("S1", spec)},
    )
    _save(tr, path, tr.call("jsonio.dump", jsonio.bundle_to_obj, bundle))


def _rows(*systems) -> int:
    return sum(1 for sys in systems for succ in sys.trans.values() if succ)


# ---------------------------------------------------------------------------
# interval_grid
#
# Why: the uniform grid of SCOTS-style abstractions, generalising fig8.  The
# `interval` layer (quantize, build_abstraction, verify_*_interval) is
# quadratic in the cell count and does nearly all the work; synthesis needs
# only about log2(K) + 2 levels.  It exercises the indexed-cover item of the
# roadmap and skips relations, oracle and concretize entirely.
# ---------------------------------------------------------------------------

def _grid_ranks(k: int) -> dict[str, int]:
    """Entry rank of every cell, from the grid's structure alone.

    On a side cell of index i, `halve` lands exactly in cell ceil(i/2), the
    unit step lands in cell i-1 and `zero` (offered at i = 1) lands in the
    origin.  Synthesis ranks a cell one above its best input's worst
    successor, so the recursion below is the answer synthesis must give.
    """
    side = {1: 1}
    for i in range(2, k + 1):
        side[i] = 1 + min(side[i - 1], side[(i + 1) // 2])
    ranks = {"z": 0}
    for i, r in side.items():
        ranks[f"n{i:04d}"] = r
        ranks[f"p{i:04d}"] = r
    return ranks


def interval_grid(tr, rng: random.Random, k: int, workdir, tag: str) -> dict:
    """2K+1 exact cells on [-K*w, K*w]: n_i = [-i*w, -(i-1)*w), the point
    {0} and p_i = ((i-1)*w, i*w], with the cell width w drawn from the seed.
    Laws (x' = x + u): halve (gain -1/2) everywhere, a unit step toward 0 on
    each side, and zero (gain -1) only on n_1 and p_1."""
    w = Fraction(rng.randint(1, 9), rng.randint(1, 9))
    cells = [("z", IntervalCell.point(0))]
    avail: dict[str, list[str]] = {"z": ["halve"]}
    for i in range(1, k + 1):
        neg, pos = f"n{i:04d}", f"p{i:04d}"
        cells.append((neg, IntervalCell(-i * w, -(i - 1) * w, True, False)))
        cells.append((pos, IntervalCell((i - 1) * w, i * w, False, True)))
        avail[neg] = ["halve", "right"] + (["zero"] if i == 1 else [])
        avail[pos] = ["halve", "left"] + (["zero"] if i == 1 else [])
    cover = CellCover(tuple(cells))
    laws = (
        AbstractInput("halve", AffineMap(Fraction(-1, 2), 0)),
        AbstractInput("left", AffineMap(0, -w)),
        AbstractInput("right", AffineMap(0, w)),
        AbstractInput("zero", AffineMap(-1, 0)),
    )
    spec = tr.call(
        "core.build", ReachAvoidSpec,
        frozenset(cover.names), frozenset({"z"}), frozenset(),
    )
    cover_path = workdir / f"{tag}-cover.json"
    spec_path = workdir / f"{tag}-spec.json"
    _save(tr, cover_path, tr.call("jsonio.dump", jsonio.cover_to_obj, cover, laws, avail))
    _save(tr, spec_path, tr.call("jsonio.dump", jsonio.spec_to_obj, spec))
    return {"kind": "grid", "cover": cover_path, "spec": spec_path, "width": w,
            "rank": _grid_ranks(k)}


# ---------------------------------------------------------------------------
# line_plant
#
# Why: the paper's situation at a realistic size.  The abstraction is an
# alternating simulation but not a memoryless concretization relation, so it
# must be repaired by `mcr_extension` before a memoryless controller can be
# trusted.  Synthesis needs one level per cell (about 800), so the quadratic
# Kleene loop is the largest layer; relations come next, then oracle, jsonio
# and concretize.  It exercises the linear-time synthesis, relation-kernel
# and polynomial-oracle items and skips `interval`.
# ---------------------------------------------------------------------------

LINE_CELL = 5
LINE_INPUTS = ("ja", "jb", "l", "r")


def _line_plant_objects(rng: random.Random, n_cells: int):
    """States s0..s(5M-1), cells of five consecutive states.  About half of
    the first states of cells 2.. also belong to the left neighbour.  `l` and
    `r` move six states (one more than a cell), with a second successor half
    the time, so every `l` move leaves its cell; `ja`/`jb` jump 10 to 20
    states right with width 1 to 3.  Moves are clamped to the line."""
    n = n_cells * LINE_CELL
    last = n - 1
    states = [f"s{i:05d}" for i in range(n)]
    cells = [f"c{j:04d}" for j in range(n_cells)]
    fwd = [{i // LINE_CELL} for i in range(n)]
    for j in range(2, n_cells):
        if rng.random() < 0.5:
            fwd[j * LINE_CELL].add(j - 1)
    succ: dict[str, list[list[int]]] = {u: [] for u in LINE_INPUTS}
    for i in range(n):
        for u, step in (("l", -6), ("r", 6)):
            hop = {i + step}
            if rng.random() >= 0.5:
                hop.add(i + step + (1 if step > 0 else -1))
            succ[u].append(sorted({min(last, max(0, x)) for x in hop}))
        for u in ("ja", "jb"):
            start = i + rng.randint(10, 20)
            succ[u].append(sorted({min(last, x) for x in range(start, start + rng.randint(1, 3))}))
    members: list[list[int]] = [[] for _ in cells]
    for i, qs in enumerate(fwd):
        for q in qs:
            members[q].append(i)
    # Existential abstraction, then drop (with probability 1/2) each cell of
    # a row that every concrete successor reaching it also shares with a
    # kept cell: `asr` keeps holding with u1 = u2, while `mcr` breaks.
    rows: dict[tuple[int, str], set[int]] = {}
    dropped: list[tuple[int, str, int]] = []
    for q, xs in enumerate(members):
        for u in LINE_INPUTS:
            targets = [t for x in xs for t in succ[u][x]]
            keep = set().union(*(fwd[t] for t in targets))
            for c in sorted(keep):
                if rng.random() < 0.5 and all(
                    fwd[t] & (keep - {c}) for t in targets if c in fwd[t]
                ):
                    keep.discard(c)
                    dropped.append((q, u, c))
            rows[(q, u)] = keep
    # A dropped cell refutes `mcr` at (x1, q, u) when no concrete input at
    # x1 keeps all quantizations inside the row; every input is available.
    refuting = [
        (x, q, u)
        for q, u, c in dropped
        for x in members[q]
        if any(c in fwd[t] for t in succ[u][x])
        and all(
            not set().union(*(fwd[t] for t in succ[v][x])) <= rows[(q, u)]
            for v in LINE_INPUTS
        )
    ]
    return states, cells, fwd, succ, rows, refuting


def line_plant(tr, rng: random.Random, n_cells: int, workdir, tag: str) -> dict:
    states, cells, fwd, succ, rows, refuting = _line_plant_objects(rng, n_cells)
    if not refuting:
        raise RuntimeError("line_plant generator produced no mcr refutation")
    s1 = tr.call("core.build", FiniteTransitionSystem, tuple(states), LINE_INPUTS, {
        (states[i], u): frozenset(states[t] for t in succ[u][i])
        for u in LINE_INPUTS for i in range(len(states))
    })
    s2 = tr.call("core.build", FiniteTransitionSystem, tuple(cells), LINE_INPUTS, {
        (cells[q], u): frozenset(cells[c] for c in keep) for (q, u), keep in rows.items()
    })
    rel = tr.call("core.build", Relation, s1.states, s2.states, frozenset(
        (states[i], cells[q]) for i, qs in enumerate(fwd) for q in qs
    ))
    target = frozenset(states[:LINE_CELL])
    spec = tr.call("core.build", ReachAvoidSpec, frozenset(states), target, frozenset())
    path = workdir / f"{tag}.json"
    _save_bundle(tr, path, s1, s2, rel, spec)
    return {
        "kind": "line", "bundle": path, "rows": _rows(s1, s2), "target": target,
        # From cell j, `l` always has a successor in cell j-1 and none above
        # it, and no other input moves left, so cell j is ranked j.
        "rank": {c: j for j, c in enumerate(cells)},
        "refuting": {(states[x], cells[q], u) for x, q, u in refuting},
        "expect": {"asr": True, "mcr": False, "solvable": True, "two": True, "one": True},
    }


# ---------------------------------------------------------------------------
# tiny_batch
#
# Why: thousands of instances with 2-6 states, 1-3 inputs and 2-4 cells.
# The same relations and oracle code as line_plant, but every call is tiny,
# so per-call set-up and controller enumeration ("two-all") dominate.  An
# optimisation that trades set-up for asymptotics shows its cost here.  The
# mix of partitions and overlapping covers, full and partial availability,
# induced and thinned abstractions gives both-hold, asr-only and neither.
# ---------------------------------------------------------------------------


def _tiny_objects(rng: random.Random):
    n1, m1, n2 = rng.randint(2, 6), rng.randint(1, 3), rng.randint(2, 4)
    n2 = min(n2, n1)
    xs = [f"x{i}" for i in range(n1)]
    us = [f"u{j}" for j in range(m1)]
    qs = [f"q{j}" for j in range(n2)]
    t1: dict[tuple[str, str], frozenset[str]] = {}
    fully = rng.random() < 0.5
    for x in xs:
        live = list(us) if fully else [u for u in us if rng.random() < 0.7] or [rng.choice(us)]
        for u in live:
            width = 1 if rng.random() < 0.6 else rng.randint(1, min(3, n1))
            t1[(x, u)] = frozenset(rng.sample(xs, width))
    order = rng.sample(xs, n1)
    fwd = {x: {qs[i]} if i < n2 else {rng.choice(qs)} for i, x in enumerate(order)}
    if rng.random() < 0.6:
        for x in xs:
            if rng.random() < 0.5:
                fwd[x].add(rng.choice(qs))
    inv = {q: {x for x in xs if q in fwd[x]} for q in qs}
    # Abstraction: the existential one, or that one thinned so that `asr`
    # survives (a cell goes only if every concrete successor reaching it
    # also reaches a kept cell), or thinned at random.
    mode = rng.choice(("induced", "thin_asr", "thin_asr", "thin_random"))
    t2: dict[tuple[str, str], frozenset[str]] = {}
    for q in qs:
        for u in us:
            targets = [xp for x in inv[q] for xp in t1.get((x, u), ())]
            succ = set().union(*(fwd[xp] for xp in targets))
            for c in sorted(succ):
                if len(succ) < 2 or mode == "induced" or rng.random() < 0.3:
                    continue
                if mode == "thin_random" or all(fwd[xp] & (succ - {c}) for xp in targets
                                                if c in fwd[xp]):
                    succ.discard(c)
            if succ:
                t2[(q, u)] = frozenset(succ)
    return xs, us, qs, t1, t2, fwd, inv


def _tiny_spec(rng: random.Random, xs, fwd, inv, qstar):
    """Reach the states of cell `qstar`, sometimes avoiding one state that
    does not touch it, from a random non-empty set of the other states."""
    target = frozenset(inv[qstar])
    outside = [x for x in xs if qstar not in fwd[x]]
    obstacle = frozenset([rng.choice(outside)] if outside and rng.random() < 0.3 else [])
    rest = sorted(set(xs) - target - obstacle)
    initial = frozenset(rng.sample(rest, rng.randint(1, len(rest))) if rest else ())
    return initial, target, obstacle


def _controller_count(qs, us, t2) -> int:
    total = 1
    for q in qs:
        total *= 2 ** sum(1 for u in us if (q, u) in t2) - 1
    return total


def _reference(xs, us, qs, t1, t2, fwd, inv, initial, target, obstacle) -> dict:
    """Brute-force evaluation of the definitions (not of the library):
    asr, mcr, the extension, the translated goal and the winning region."""
    pairs = [(x, q) for x in xs for q in sorted(fwd[x])]

    def ok(kind, x, q, u1, u2):
        row = t2.get((q, u2), frozenset())
        if kind == "asr":
            return all(fwd[xp] & row for xp in t1[(x, u1)])
        return all(fwd[xp] <= row for xp in t1[(x, u1)])

    def holds(kind):
        return all(
            any(ok(kind, x, q, u1, u2) for u1 in us if (x, u1) in t1)
            for x, q in pairs for u2 in us if (q, u2) in t2
        )

    out = {"asr": holds("asr"), "mcr": holds("mcr")}
    if not out["asr"]:
        return out
    t2x = {key: set(row) for key, row in t2.items()}
    for x, q in pairs:
        for u2 in us:
            if (q, u2) not in t2:
                continue
            for u1 in us:
                if (x, u1) in t1 and ok("asr", x, q, u1, u2):
                    t2x[(q, u2)] |= set().union(*(fwd[xp] for xp in t1[(x, u1)]))
    q_init = set().union(*(fwd[x] for x in initial))
    q_obst = set().union(*(fwd[x] for x in obstacle))
    win = {q for q in qs if inv[q] and inv[q] <= target} - q_obst
    grown = True
    while grown:
        fresh = {
            q for q in set(qs) - q_obst - win
            if any((q, u) in t2x and t2x[(q, u)] <= win for u in us)
        }
        win |= fresh
        grown = bool(fresh)
    out["solvable"] = q_init <= win
    # The laws `run_crosscheck` asserts: with asr, every abstract controller
    # passes "two" iff mcr holds (with the maximal mcr interface when it
    # does, the asr one when not); the controller concretized through the
    # repaired abstraction passes "two" and controlled simulability.
    out["two_all"] = out["mcr"]
    out["two"] = out["one"] = True
    return out


def tiny_batch(tr, rng: random.Random, workdir, tag: str) -> dict:
    while True:
        parts = _tiny_objects(rng)
        xs, us, qs, t1, t2, fwd, inv = parts
        if _controller_count(qs, us, t2) <= TINY_BUDGET:
            break
    # Most random goals are unsolvable; prefer a target cell that is not, so
    # that synthesis, concretization and the oracles run on most instances.
    for qstar in rng.sample(qs, len(qs)):
        goal = _tiny_spec(rng, xs, fwd, inv, qstar)
        expect = _reference(*parts, *goal)
        if expect.get("solvable"):
            break
    initial, target, obstacle = goal
    s1 = tr.call("core.build", FiniteTransitionSystem, tuple(xs), tuple(us), t1)
    s2 = tr.call("core.build", FiniteTransitionSystem, tuple(qs), tuple(us), t2)
    rel = tr.call("core.build", Relation, s1.states, s2.states, frozenset(
        (x, q) for x in xs for q in fwd[x]
    ))
    spec = tr.call("core.build", ReachAvoidSpec, initial, target, obstacle)
    path = workdir / f"{tag}.json"
    _save_bundle(tr, path, s1, s2, rel, spec)
    return {"kind": "tiny", "bundle": path, "rows": _rows(s1, s2), "target": target,
            "expect": expect}
