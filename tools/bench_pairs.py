"""Alternating A/B pairs of the pipeline benchmark between two checkouts.

    python3 tools/bench_pairs.py --parent DIR --change DIR --out BENCH_N.json \\
        [--seed-base 28000] [--claim line_plant:pipelines_per_s]

The workloads and the run length T are the ``workloads`` and ``run_seconds``
of ``BENCHMARK.json`` in the change checkout.  For each workload and each of
10 pairs k, ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` runs once in each checkout with the same seed S = seed base +
100 * (workload's place in the list, from 1) + k + 1; pick a seed base no
earlier run has used.  The parent runs first in even pairs and the change
first in odd ones, so a drift in machine speed hits both sides alike.  One
run at a time, each in its own process; nothing in either checkout is
changed.

The result holds, per workload and end-to-end metric of ``BENCHMARK.json``:
both medians, their ratio, the first and third quartiles
(``statistics.quantiles(runs, n=4, method='inclusive')``), the number of
pairs the change won in the metric's better direction, every run and a
verdict; with the seeds, the operation counts, the Python version and the
machine.  It is rewritten after every pair from the second on, so a stopped
run keeps the pairs it finished.  Standard library only.

Verdicts.  The claimed metric is ``met`` when the change wins at least nine
tenths of the pairs, ties counting for neither, and its median is better
than the parent's by more than the parent's interquartile range; else ``not
met``.  Every other metric is ``unresolved`` when the parent's interquartile
range is wider than the metric's bound (a fraction of the parent's median),
unless every run of the change is better than every run of the parent; else
``worse than bound`` when the change's median is worse than the parent's by
more than the bound, and ``within bound`` otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10  # the fewest alternating pairs a claimed gain is judged on


def _machine() -> str:
    """The CPU model, logical CPU count and memory, from /proc where it exists."""
    model, memory = platform.processor() or platform.machine(), ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                memory = f", {int(line.split()[1]) // 1024 ** 2} GB"
                break
    except OSError:
        pass
    return f"{model}, {os.cpu_count()} logical CPUs{memory}"


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last output line of one untraced benchmark run in ``root``."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, timeout=seconds * 6 + 600, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{root}: {workload} seed {seed} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def quartiles(runs: list[float]) -> list[float]:
    q = statistics.quantiles(runs, n=4, method="inclusive")
    return [q[0], q[2]]


def verdict(metric: dict, summary: dict, claimed: bool) -> str:
    """The verdict on one metric's ``summary`` (module docstring)."""
    higher = metric["better"] == "higher"
    parent, change = summary["parent_runs"], summary["change_runs"]
    first, third = summary["parent_quartiles"]
    median = summary["parent_median"]
    gain = summary["change_median"] - median if higher else median - summary["change_median"]
    if claimed:
        won = 10 * summary["change_better_pairs"] >= 9 * len(parent)
        return "met" if won and gain > third - first else "not met"
    better_throughout = min(change) > max(parent) if higher else max(change) < min(parent)
    if third - first > metric["bound"] * median and not better_throughout:
        return "unresolved"
    return "within bound" if -gain <= metric["bound"] * median else "worse than bound"


def summarize(metric: dict, parent: list[float], change: list[float],
              claimed: bool = False) -> dict:
    higher = metric["better"] == "higher"
    wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
    parent_median, change_median = statistics.median(parent), statistics.median(change)
    summary = {
        "parent_median": parent_median,
        "change_median": change_median,
        "change_over_parent": round(change_median / parent_median, 4),
        "parent_quartiles": quartiles(parent),
        "change_quartiles": quartiles(change),
        "change_better_pairs": wins,
        "parent_runs": parent,
        "change_runs": change,
    }
    summary["verdict"] = verdict(metric, summary, claimed)
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed-base", type=int, default=28000)
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims")
    parser.add_argument("--parent-rev", default="", help="the parent's commit, for the record")
    parser.add_argument("--description", default="", help="what the change does")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    workloads = [workload["name"] for workload in spec["workloads"]]
    result: dict = {
        "change": args.description,
        "parent": args.parent_rev,
        "python": platform.python_version(),
        "machine": _machine(),
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds "
                   f"{seconds:g} --trace 0",
        "order": "pairs alternate which side runs first; the parent runs first in even pairs",
        "quartiles": "statistics.quantiles(runs, n=4, method='inclusive'), first and third",
        "workloads": {},
    }
    claim = tuple(args.claim.split(":")) if args.claim else None
    if claim:
        better = next(m["better"] for m in metrics if m["name"] == claim[1])
        result["claim"] = {"workload": claim[0], "metric": claim[1], "better": better}
    for place, workload in enumerate(workloads, start=1):
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        seeds: list[int] = []
        for k in range(PAIRS):
            seed = args.seed_base + 100 * place + k + 1
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                root = args.parent if side == "parent" else args.change
                runs[side].append(run_once(root, workload, seed, seconds))
            seeds.append(seed)
            pair = {side: runs[side][-1]["metrics"] for side in runs}
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{m['name']} {pair['parent'][m['name']]['value']:.6g} -> "
                f"{pair['change'][m['name']]['value']:.6g}" for m in metrics),
                file=sys.stderr, flush=True)
            if len(seeds) < 2:
                continue  # quartiles need two runs
            result["workloads"][workload] = {
                "pairs": len(seeds),
                "seeds": seeds,
                "operations": {
                    key: {side: sum(r[key] for r in runs[side]) for side in runs}
                    for key in ("attempted", "failed")
                },
                "all_correct": all(r["correct"] for side in runs for r in runs[side]),
                "metrics": {
                    m["name"]: summarize(
                        m, *([r["metrics"][m["name"]]["value"] for r in runs[side]]
                             for side in ("parent", "change")),
                        claimed=claim == (workload, m["name"]))
                    for m in metrics
                },
            }
            args.out.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
