"""Pipeline benchmark for symcret.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the library is imported from
``src/`` there, never from an installed copy, and the benchmark exits with
code 2 if it is missing.  The workload is built from the seed (``gen.py``
says why each workload exists), written as ``symcret/1`` JSON under
``.perfbench/``, and every output is checked against the answer the
generator knows.  Load is one process with no extra threads, in a closed
loop: the next instance starts when the previous one has been checked.

Set-up (import, generation, serialization, the fig5/fig8 smoke demos) is
timed apart: it is repeated, and ``setup_s`` is the median repeat.  Then,
for the given seconds, offline pipeline instances, cycling over the
generated pool, alternate with online closed-loop runs under the
concretized controllers, which take a quarter of the time.

A fixed reference kernel (``calib.py``), which never calls the library,
runs interleaved with both phases and takes CAL_SHARE of each.  On a
shared virtual machine the CPU's speed drifts by 20 to 30 % between
minutes, so every timed figure is scaled by the kernel's rate over its
own phase to what it would read on the reference CPU.  The unscaled
figures are printed beside them.

``--trace 0`` prints the end-to-end metrics, the timed ones scaled:

* ``pipelines_per_s``: pipeline instances, each from the JSON documents to
  a verified controller written back as JSON, divided by their summed wall
  time, so a slow tail lowers it;
* ``control_steps_per_s``: plant steps of the online loop per second;
* ``setup_s``, and ``peak_rss_mb`` of the whole process;

and, outside the result, ``pipeline_s.p50``, the median instance time with
its sample count.  It is not gated: a run holds only 8 to 30 instances of
the large workloads, and on a shared 2-vCPU virtual machine, whose CPU
speed drifted by 20 to 30 % from one minute to the next, their median
followed that drift more closely than the averaged rate did.

``--trace 1`` runs every pipeline instance twice, untraced and traced in
alternating order, records spans around each call into the library, adds
the scaling probes, writes the spans to ``.perfbench/`` and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object.
"""
from __future__ import annotations

import argparse
import gc
import io
import json
import random
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
ONLINE_SHARE = 0.25
CAL_SHARE = 0.15
SETUP_REPEATS = 5  # at least; cheap set-ups repeat for SETUP_SECONDS
SETUP_SECONDS = 3.0

GRID_K = 100  # 201 cells
LINE_CELLS = 800  # 4000 states
POOL = {"interval_grid": 3, "line_plant": 3, "tiny_batch": 1600}
WARM_SIZE = {"interval_grid": 8, "line_plant": 40, "tiny_batch": 40}

LAYERS = ("core", "jsonio", "relations", "synthesis", "concretize", "oracle", "interval", "cli")
PIPELINE_CALLS = (
    "interval.build_abstraction", "interval.verify_mcr_interval", "interval.verify_asr_interval",
    "synthesis.synthesize_reach_avoid",
    "relations.check_asr", "relations.check_mcr", "relations.mcr_extension",
    "relations.maximal_interface", "relations.translate_spec",
    "oracle.check_memoryless_concretization",
    "oracle.check_memoryless_concretization_all_controllers",
    "oracle.check_controlled_simulability",
    "concretize.memoryless_controller",
    "jsonio.load", "jsonio.dump",
)
PIPELINE_COUNTS = (
    "interval.cells", "synthesis.levels", "synthesis.state_levels", "relations.triples",
    "relations.rows_grown", "oracle.controllers_checked", "jsonio.bytes",
)
ONLINE_CALLS = ("interval.quantize", "concretize.closed_loop_run")
ONLINE_COUNTS = ("interval.quantize.calls", "concretize.steps")


def _parse(argv):
    parser = argparse.ArgumentParser(description="symcret pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(POOL))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def _import_library() -> bool:
    """Import symcret from this checkout's ``src``, and nothing else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import symcret
    except ImportError as err:
        print(f"perfbench: cannot import symcret from {src}: {err}", file=sys.stderr)
        return False
    if Path(symcret.__file__).resolve().parent.parent != src.resolve():
        print(f"perfbench: symcret was imported from {symcret.__file__}, not {src}",
              file=sys.stderr)
        return False
    return True


def _import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the library."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import symcret; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], cwd=ROOT,
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


class Bench:
    def __init__(self, args) -> None:
        import calib
        import gen
        import pipe
        import spans
        from symcret import cli

        self.gen, self.pipe, self.spans, self.cli = gen, pipe, spans, cli
        self.args = args
        self.tr = spans.Tracer() if args.trace else spans.Untraced()
        self.plain = spans.Untraced()
        self.ck = pipe.Checker()
        self.cal = calib.Calibration()
        self.workdir = ROOT / ".perfbench" / f"work-{args.workload}-{args.seed}"
        grid = args.workload == "interval_grid"
        self.pipeline = pipe.grid_pipeline if grid else pipe.finite_pipeline
        self.check = pipe.grid_check if grid else pipe.finite_check
        self.online = pipe.grid_online if grid else pipe.finite_online
        self._last_id = 0
        # Root-span instance ids, by phase, for the per-layer medians.
        self.setup_ids: list[int] = []
        self.demo_ids: list[int] = []
        self.pipeline_ids: list[int] = []
        self.online_ids: list[int] = []

    def _begin(self, tr, name: str, ids: list[int]) -> int:
        self._last_id += 1
        if tr.on:
            ids.append(self._last_id)
        return tr.begin(name, self._last_id)

    # ------------------------------------------------------------ set-up

    def _make(self, rng, tag: str, size: int | None):
        gen, tr, wd = self.gen, self.tr, self.workdir
        kind = self.args.workload
        if kind == "interval_grid":
            return gen.interval_grid(tr, rng, size or GRID_K, wd, tag)
        if kind == "line_plant":
            return gen.line_plant(tr, rng, size or LINE_CELLS, wd, tag)
        return gen.tiny_batch(tr, rng, wd, tag)

    def _generate(self) -> None:
        rng = random.Random(self.args.seed)
        self.pool = []
        for k in range(POOL[self.args.workload]):
            sid = self._begin(self.tr, "setup.generate", self.setup_ids)
            inst = self._make(rng, f"i{k}", None)
            self.tr.count("core.rows", inst.get("rows", 0))
            self.tr.end(sid)
            self.pool.append(inst)
        if self.args.workload == "tiny_batch":
            self.warm = self.pool[:WARM_SIZE["tiny_batch"]]
        else:
            self.warm = [self._make(rng, "warm", WARM_SIZE[self.args.workload])]

    def _demos(self) -> None:
        sid = self._begin(self.tr, "setup.demos", self.demo_ids)
        for argv in (["demo", "fig5", "--json"], ["demo", "fig8", "--json"]):
            self.ck.start()
            try:
                with redirect_stdout(io.StringIO()):
                    code = self.tr.call("cli.main", self.cli.main, argv)
            except self.spans.LayerError as err:
                self.ck.raised(err)
            else:
                self.ck.expect("cli", code == 0, f"symcret {' '.join(argv)} exited {code}")
        self.tr.end(sid)

    def setup(self) -> float:
        """Median seconds of one set-up: importing the library in a fresh
        interpreter, then generating and writing the pool (every repeat
        makes the same one) and running the demos.  The calibration kernel
        runs between repeats, and its rate there scales ``setup_s``."""
        times = []
        while len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS:
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir.mkdir(parents=True)
            start = perf_counter()
            self._generate()
            self._demos()
            times.append(perf_counter() - start + _import_seconds())
            while self.cal.secs * (1 - CAL_SHARE) < sum(times) * CAL_SHARE:
                self.cal.run()
        self.setup_repeats = len(times)
        self.setup_scale = self.cal.scale()
        self.cal.reset()
        return statistics.median(times)

    # ------------------------------------------------------------ phases

    def _instance(self, tr, inst):
        """One checked pipeline instance: (output or None, seconds)."""
        self.ck.start()
        sid = self._begin(tr, "pipeline", self.pipeline_ids)
        start = perf_counter()
        try:
            out = self.pipeline(tr, inst)
        except self.spans.LayerError as err:
            self.ck.raised(err)
            out = None
        finally:
            secs = perf_counter() - start
            tr.end(sid)
        if out is not None:
            self.check(self.ck, inst, out)
        return out, secs

    def _offline(self, k: int) -> float:
        """Pipeline instance k of the pool cycle; in a traced run, once
        untraced and once traced, in alternating order."""
        idx = k % len(self.pool)
        inst = self.pool[idx]
        order = [self.plain]
        if self.tr.on:
            order = [self.plain, self.tr] if k % 2 == 0 else [self.tr, self.plain]
        secs = {}
        for tr in order:
            out, secs[tr.on] = self._instance(tr, inst)
            if out is None:
                continue
            if not tr.on:
                self.samples.append(secs[False])
            if idx not in self.results and self.pipe.online_ready(inst, out):
                self.results[idx] = out
                self.usable.append(idx)
        if len(secs) == 2:
            self.overheads.append(secs[True] / secs[False] - 1)
        return sum(secs.values())

    def _online(self, j: int, rng: random.Random) -> None:
        idx = self.usable[j % len(self.usable)]
        self.ck.start()
        sid = self._begin(self.tr, "online", self.online_ids)
        try:
            steps, secs = self.online(self.tr, self.ck, self.pool[idx], self.results[idx], rng)
        except self.spans.LayerError as err:
            self.ck.raised(err)
        else:
            self.steps += steps
            self.online_secs += secs
        finally:
            self.tr.end(sid)

    def timed(self) -> None:
        """Offline instances interleaved with online runs, so that both
        sample the whole window; online runs get ONLINE_SHARE of the time."""
        for inst in self.warm:
            self._instance(self.plain, inst)
        self.results: dict[int, dict] = {}
        self.usable: list[int] = []
        self.samples: list[float] = []
        self.overheads: list[float] = []  # traced over untraced time of one instance, minus 1
        self.steps, self.online_secs = 0, 0.0
        rng = random.Random(f"online-{self.args.seed}")
        offline_secs = 0.0
        deadline = perf_counter() + self.args.seconds
        k = j = 0
        while not (k and (j or not self.usable) and perf_counter() >= deadline):
            if self.cal.secs * (1 - CAL_SHARE) < (offline_secs + self.online_secs) * CAL_SHARE:
                self.cal.run()
            elif self.usable and self.online_secs * (1 - ONLINE_SHARE) < offline_secs * ONLINE_SHARE:
                self._online(j, rng)
                j += 1
            else:
                offline_secs += self._offline(k)
                k += 1

    # ----------------------------------------------------------- metrics

    def raw_rates(self) -> dict[str, float]:
        """Throughputs as measured on this CPU, at its speed of the moment."""
        return {"pipelines_per_s": len(self.samples) / sum(self.samples),
                "control_steps_per_s": self.steps / self.online_secs}

    def end_to_end(self, setup_s: float) -> dict[str, tuple[float, str, int]]:
        raw, scale = self.raw_rates(), self.cal.scale()
        return {
            "pipelines_per_s": (raw["pipelines_per_s"] * scale, "1/s", len(self.samples)),
            "control_steps_per_s": (raw["control_steps_per_s"] * scale, "1/s", self.steps),
            "setup_s": (setup_s / self.setup_scale, "s", self.setup_repeats),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        }

    def per_layer(self) -> dict[str, tuple[float, str, int]]:
        """Medians per instance of self times and counts.  Pipeline calls
        and counts are per pipeline instance, online ones per closed-loop
        run, `core` per generated instance and `cli` per set-up."""
        tr, med = self.tr, self.spans.median_of
        own = tr.self_times()
        out: dict[str, tuple[float, str, int]] = {}

        def seconds(name, ids):
            out[name + ".s"] = (med(own[i].get(name, 0.0) for i in ids), "s", len(ids))

        def count(key, ids):
            out[key] = (med(tr.counts[i].get(key, 0) for i in ids), "count", len(ids))

        pids, oids = self.pipeline_ids, self.online_ids
        for name in PIPELINE_CALLS:
            seconds(name, pids)
        for name in ONLINE_CALLS:
            seconds(name, oids)
        seconds("core.build", self.setup_ids)
        seconds("cli.main", self.demo_ids)
        for key in PIPELINE_COUNTS:
            count(key, pids)
        for key in ONLINE_COUNTS:
            count(key, oids)
        count("core.rows", self.setup_ids)
        walls = tr.durations("pipeline")
        total = sum(walls[i] for i in pids)
        for layer in LAYERS:
            if layer not in ("core", "cli"):
                busy = sum(v for i in pids for k, v in own[i].items() if k.startswith(layer + "."))
                out[layer + ".share"] = (busy / total, "ratio", len(pids))
            failed = self.ck.layer_failed.get(layer, 0)
            out[layer + ".failed"] = (failed, "count", self.ck.attempted)
        out["trace.overhead_ratio"] = (
            med(self.overheads), "ratio", len(self.overheads))
        probes = self.pipe.probes(self.args.seed, self.workdir, GRID_K, LINE_CELLS)
        for key, value in probes.items():
            out[key] = (value, "ratio", 1)
        return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not _import_library():
        return 2
    bench = Bench(args)
    try:
        setup_s = bench.setup()
        # Set-up objects live to the end; keep the collector from rescanning them.
        gc.collect()
        gc.freeze()
        bench.timed()
        if not bench.samples or not bench.online_secs:
            print("perfbench: no pipeline instance or online run completed", file=sys.stderr)
            for line in bench.ck.messages:
                print(f"  {line}", file=sys.stderr)
            return 1
        if args.trace:
            metrics = bench.per_layer()
            bench.tr.write(ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json.gz")
        else:
            metrics = bench.end_to_end(setup_s)
    finally:
        shutil.rmtree(bench.workdir, ignore_errors=True)
    ck = bench.ck
    print(f"workload {args.workload} seed {args.seed}: {ck.attempted} operations, "
          f"{ck.failed} failed, fail_ratio {ck.failed / ck.attempted:.6g}")
    for line in ck.messages:
        print(f"  FAILED {line}")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:58s} {value:14.6g} {unit:6s} n={n}")
    p50 = statistics.median(bench.samples)
    print(f"  {'pipeline_s.p50':58s} {p50:14.6g} {'s':6s} n={len(bench.samples)}  (not gated)")
    for name, value in bench.raw_rates().items():
        print(f"  {name + ' (unscaled)':58s} {value:14.6g} {'1/s':6s}  (not gated)")
    print(f"  {'setup_s (unscaled)':58s} {setup_s:14.6g} {'s':6s}  (not gated)")
    cal = bench.cal
    print(f"  {'calibration units/s':58s} {cal.rate():14.6g} {'1/s':6s} n={cal.units}  "
          f"(scale {cal.scale():.4g})")
    print(json.dumps({
        "correct": ck.failed == 0,
        "attempted": ck.attempted,
        "failed": ck.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
