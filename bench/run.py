"""antnav benchmark: replanning-cycle speed and path quality on three workloads.

Run from the repository root:

    python3 bench/run.py --workload moving --seed 0 --seconds 30 --trace 0

A run sets up once in this process and four more times in child processes
(import, scenario parse, one warm-up run; the median is ``setup_s``), then
repeats one fixed batch of seeded runs until ``--seconds`` is used up. Run i
of a batch uses scenario seed ``seed + i``. Every batch pass must produce the
same seed-determined bytes, and every run's trajectory is checked (8-adjacent
steps on the scenario lattice, never on an occupied world cell at its tick, a
legal verdict). With ``--trace 1`` the passes alternate untraced and traced;
the traced ones wrap the program's public layer functions (see tracer.py) and
report per-layer metrics, and their outputs must equal the untraced ones.
All times are scaled to a reference host speed (see KERNEL_REF_S).

The last stdout line is the JSON result; the line before it holds
informational values that are not gated (output digest, sample counts,
``src.lines``). DESIGN.md explains the workloads and metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracer import Patcher, Tracer  # bench/ is sys.path[0] when run as a script

ROOT = Path.cwd()
OUT_ROOT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
PLANNERS = "proposed,conventional-aco,apf"

# Batch sizes trade two kinds of noise: more seeds per batch make its total
# work vary less from one --seed to the next (a few seeds run 3x the usual
# cycles), shorter passes leave room for more passes to take the median of.
# A pass takes about 8-15 s on a 2-vCPU sandbox.
WORKLOADS = {
    "moving": {"scenario": "scenarios/moving.scn", "runs": 16, "threads": 0},
    "corridor": {"scenario": "scenarios/corridor.scn", "runs": 16, "threads": 0},
    # 16 seeds per planner, one compare call (of one repeat) per seed
    "multi_compare": {"scenario": "scenarios/multi_obstacle.scn", "calls": 16, "repeats": 1,
                      "threads": 2},
}

# span name -> import target; the names are the ones the per-layer metrics use
SPANS = {
    "scan.simulate_scan": "antnav.scan:simulate_scan",
    "grid.build_local_grid": "antnav.grid:build_local_grid",
    "grid.candidate_cells": "antnav.grid:candidate_cells",
    "subgoal.rank_candidates": "antnav.subgoal:rank_candidates",
    "planner.plan_cycle": "antnav.planner:plan_cycle",
    "aco.plan_subpath": "antnav.aco:plan_subpath",
    "aco.substream": "antnav.aco:substream",
    "aco.update_pheromone": "antnav.aco:update_pheromone",
    "aco.repair": "antnav.aco:repair",
    "world.advanced": "antnav.world:WorldMap.advanced",
    "baselines.apf_step": "antnav.baselines:apf_step",
    "cli.cmd_compare": "antnav.cli:cmd_compare",
    "scenario.parse_scenario": "antnav.scenario:parse_scenario",
}
# Spans that no serial workload enters; their self time is 0 there, so it is
# printed on the info line rather than as a metric.
INFO_ONLY_SELF_MS = ("baselines.apf_step", "cli.cmd_compare")


def import_program():
    """Import antnav from this checkout's src/; exit non-zero when it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import antnav
        import antnav.cli
        import antnav.errors
        import antnav.metrics
        import antnav.planner
        import antnav.scenario
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import antnav from {src}: {exc}")
    if not Path(antnav.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"bench: antnav was imported from {antnav.__file__}, not {src}")
    return antnav


def percentile(values, q):
    if len(values) < 2:
        return values[0] if values else 0.0  # no samples only when every pass failed
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def mean_or_zero(values):
    return statistics.fmean(values) if values else 0.0


def check_run(antnav, scenario, result) -> str | None:
    """Why a run's output is wrong, or None when it passes the output check."""
    RunStatus = antnav.metrics.RunStatus
    status = result.metrics.status
    if not isinstance(status, RunStatus) or status is RunStatus.RUNNING:
        return f"illegal verdict {status!r}"
    size = scenario.config.cell_size
    x0, y0 = result.poses[0].x, result.poses[0].y
    lattice = []
    for k, pose in enumerate(result.poses):
        u, v = (pose.x - x0) / size, (pose.y - y0) / size
        iu, iv = round(u), round(v)
        if abs(u - iu) > 1e-6 or abs(v - iv) > 1e-6:
            return f"pose {k} is off the {size} m cell lattice"
        lattice.append((iu, iv))
    last = len(lattice) - 1
    for k in range(last):
        (a, b), (c, d) = lattice[k], lattice[k + 1]
        hop = max(abs(c - a), abs(d - b))
        halted = hop == 0 and k + 1 == last and status in (RunStatus.STUCK,
                                                           RunStatus.LOCAL_MINIMUM)
        if hop != 1 and not halted:
            return f"poses {k} and {k + 1} are not 8-adjacent"
    # at tick t the robot stands on pose t-1 (while cycle t-1 plans) and then on pose t
    world = scenario.world
    for t in range(last + 1):
        for k in {max(t - 1, 0), t}:
            cell = world.cell_of(*result.poses[k].xy)
            if not world.in_bounds(cell) or world.occupancy_at(cell):
                return f"pose {k} stands on occupied or out-of-world cell {cell} at tick {t}"
        world = world.advanced()
    return None


def run_digest(result) -> bytes:
    """Seed-determined content of one run: verdict, trajectory, sub-goals, colony series."""
    m = result.metrics
    blob = repr((m.status.value, m.path_length, m.corners, m.cycles,
                 [(p.x, p.y, p.psi) for p in result.poses],
                 [(r.subgoal, r.subpath, r.aco_series) for r in result.records]))
    return hashlib.sha256(blob.encode()).digest()


# On a shared 2-vCPU host the same code runs up to 1.5x slower for seconds to
# minutes at a time, far more than the bounds can absorb. All times are
# therefore scaled to a reference host speed: a fixed kernel is timed between
# runs (serial workloads) or compare calls, and a time t measured while the
# kernel took k seconds is reported as t * (KERNEL_REF_S / k) ** KERNEL_EXPONENT.
# The kernel does the kind of interpreter work antnav's hot path does
# (roulette walks on an 8-connected grid with a tabu list, a fresh numpy
# generator per walk, small numpy array updates). When the host speeds up,
# the kernel speeds up more than antnav does (1.75x against 1.4-1.5x), hence
# the exponent. Back-to-back runs of one seed on a 2-vCPU host spread (first
# to third quartile over the median) 0.27 unscaled and 0.08 scaled on
# moving.scn, 0.36 and 0.12 per compare call on multi_obstacle.scn. The
# kernel is part of the benchmark, so a change to antnav cannot move it.
KERNEL_REF_S = 0.020
KERNEL_EXPONENT = 0.8
_KERNEL_SIDE = 24
_KERNEL_MOVES = ((1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1))


def _kernel_grid():
    """Neighbour lists (cell, direction, step length) and edge weights of the kernel's grid."""
    n = _KERNEL_SIDE
    nbrs = []
    for y in range(n):
        for x in range(n):
            nbrs.append([(v * n + u, d, 1.0 if dx == 0 or dy == 0 else math.sqrt(2.0))
                         for d, (dx, dy) in enumerate(_KERNEL_MOVES)
                         for u, v in [(x + dx, y + dy)] if 0 <= u < n and 0 <= v < n])
    return nbrs, [1.0 + 0.001 * i for i in range(n * n * 8)]


_KERNEL_GRID = _kernel_grid()


def speed_kernel() -> float:
    """Seconds the reference kernel takes now."""
    import numpy as np  # not at the top: setup_s times the program's own numpy import

    nbrs, tau = _KERNEL_GRID
    t0 = time.perf_counter()
    length = 0.0
    for walk in range(80):
        rand = np.random.default_rng(np.random.SeedSequence((7, walk))).random
        tabu = bytearray(len(nbrs))
        pos, prev = 0, -1
        for _ in range(60):
            cand, weights, total = [], [], 0.0
            for nid, d, step in nbrs[pos]:
                if tabu[nid]:
                    continue
                w = tau[pos * 8 + d] * (1.2 if d == prev else 1.0)
                cand.append((nid, d, step))
                weights.append(w)
                total += w
            if not cand:
                break
            draw, acc, pick = rand(), 0.0, len(weights) - 1
            for i, w in enumerate(weights):
                acc += w / total
                if draw < acc:
                    pick = i
                    break
            pos, prev, step = cand[pick]
            length += step
            tabu[pos] = 1
    field = np.zeros((9, 9))
    for _ in range(600):
        field = np.maximum(field, 0.5) + 0.1
    return time.perf_counter() - t0


def speed_scale(kernel_s: float) -> float:
    """Factor that takes a time measured while the kernel took kernel_s to the reference speed."""
    return (KERNEL_REF_S / kernel_s) ** KERNEL_EXPONENT


def host_speed(samples: int = 5) -> float:
    return statistics.median(speed_kernel() for _ in range(samples))


class Pass:
    """Outcome of one batch pass: scaled and raw times, and the seed-determined results."""

    def __init__(self, wall_s, raw_wall_s, cycle_ms, kernel_s, attempted, failed, digest,
                 cycles=0, lengths=(), corners=(), goals=0):
        self.wall_s = wall_s  # scaled wall time of the timed work
        self.raw_wall_s = raw_wall_s
        self.cycle_ms = cycle_ms  # scaled cycle times
        self.kernel_s = kernel_s  # median reference-kernel time during the pass
        self.attempted = attempted
        self.failed = failed
        self.digest = digest
        self.cycles = cycles
        self.lengths = list(lengths)  # path lengths of goal-reaching runs
        self.corners = list(corners)  # corner counts of goal-reaching runs
        self.goals = goals


class SerialWorkload:
    """planner.run() on one scenario, N seeded runs per pass, ants on the calling thread."""

    def __init__(self, antnav, spec, seed):
        self.antnav = antnav
        self.path = str(ROOT / spec["scenario"])
        self.runs = spec["runs"]
        self.seed = seed
        self.checked: dict[int, tuple[bytes, str | None]] = {}

    def warm_up(self):
        sc = self.antnav.scenario.parse_scenario(self.path)
        self.antnav.planner.run(self.antnav.scenario.with_seed(sc, self.seed))

    def run_pass(self, patcher_factory, timed: bool) -> Pass:
        antnav = self.antnav
        cycle_s: list[float] = []
        patcher = patcher_factory()
        if timed:
            patcher.wrap("antnav.planner:plan_cycle", _cycle_timer(cycle_s))
        outcomes = []
        run_s = []
        cycles_per_run = []
        kernel_s = [speed_kernel()]  # untimed, between runs
        try:
            t0 = time.perf_counter()
            sc = antnav.scenario.parse_scenario(self.path)
            parse_s = time.perf_counter() - t0
            for i in range(self.runs):
                scenario = antnav.scenario.with_seed(sc, self.seed + i)
                first = len(cycle_s)
                t0 = time.perf_counter()
                try:
                    outcomes.append((scenario, antnav.planner.run(scenario)))
                except Exception:
                    traceback.print_exc()
                    outcomes.append((scenario, None))
                run_s.append(time.perf_counter() - t0)
                cycles_per_run.append(cycle_s[first:])
                kernel_s.append(speed_kernel())
        finally:
            patcher.close()
        # each run is scaled by the kernel times just before and after it
        scales = [speed_scale((a + b) / 2.0) for a, b in zip(kernel_s, kernel_s[1:])]
        wall = parse_s * scales[0] + sum(t * f for t, f in zip(run_s, scales))
        cycle_ms = [s * f * 1000.0 for run, f in zip(cycles_per_run, scales) for s in run]

        failed = 0
        digest = hashlib.sha256()
        cycles, lengths, corners, goals = 0, [], [], 0
        for i, (scenario, result) in enumerate(outcomes):
            if result is None:
                failed += 1
                digest.update(b"raised")
                continue
            one = run_digest(result)
            digest.update(one)
            if i not in self.checked or self.checked[i][0] != one:
                self.checked[i] = (one, check_run(antnav, scenario, result))
            problem = self.checked[i][1]
            if problem is not None:
                print(f"bench: run {i} (seed {scenario.seed}): {problem}", file=sys.stderr)
                failed += 1
            m = result.metrics
            cycles += m.cycles
            if m.status is antnav.metrics.RunStatus.GOAL_REACHED:
                goals += 1
                lengths.append(m.path_length)
                corners.append(m.corners)
        return Pass(wall, parse_s + sum(run_s), cycle_ms, statistics.median(kernel_s),
                    len(outcomes), failed, digest.hexdigest(), cycles, lengths, corners, goals)


class CompareWorkload:
    """`antnav compare` in-process with all three planners; metrics come from its CSVs.

    A pass is CALLS compare calls of REPEATS each; call j covers seeds
    seed + j * REPEATS onward, so run i of the batch still uses seed + i. The
    reference kernel runs between calls and each call's times are scaled by
    the kernel times just before and after it, as for the serial workloads.
    The process is pinned to one CPU (see pin_to_one_cpu), so the two ant
    threads hand off the interpreter lock on the CPU the kernel measures.
    """

    def __init__(self, antnav, spec, seed):
        self.antnav = antnav
        self.path = str(ROOT / spec["scenario"])
        self.calls = spec["calls"]
        self.repeats = spec["repeats"]
        self.seed = seed
        OUT_ROOT.mkdir(exist_ok=True)
        self.out = Path(tempfile.mkdtemp(prefix="compare-", dir=OUT_ROOT))
        self.n_calls = 0
        self.reference: dict[tuple[str, int], tuple[list[str], str | None]] = {}

    def _compare(self, seed: int, repeats: int) -> tuple[int, Path, float]:
        self.n_calls += 1
        out = self.out / f"call{self.n_calls}"
        argv = ["compare", "--scenario", self.path, "--out", str(out),
                "--planner", PLANNERS, "--repeats", str(repeats), "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = self.antnav.cli.main(argv)
            wall = time.perf_counter() - t0
        return code, out, wall

    def warm_up(self):
        code, out, _ = self._compare(self.seed, 1)
        shutil.rmtree(out, ignore_errors=True)
        if code != 0:
            raise SystemExit(f"bench: warm-up compare exited {code}")

    def run_pass(self, patcher_factory, timed: bool) -> Pass:
        attempted = 3 * self.calls * self.repeats
        captured: list = []
        patcher = patcher_factory()
        if not self.reference:  # the first pass keeps its runs for the output check
            patcher.wrap("antnav.planner:run", _capture(captured))
        # a call runs for seconds, so each kernel time is the median of three samples
        outs, walls, kernel_s = [], [], [host_speed(3)]
        try:
            for j in range(self.calls):
                code, out, wall = self._compare(self.seed + j * self.repeats, self.repeats)
                outs.append(out)
                walls.append(wall)
                kernel_s.append(host_speed(3))
                if code != 0:
                    return Pass(sum(walls), sum(walls), [], None, attempted, attempted,
                                f"exit {code}")
        except Exception:
            traceback.print_exc()
            return Pass(sum(walls), sum(walls), [], None, attempted, attempted, "raised")
        finally:
            patcher.close()
            if not self.reference:
                self._build_reference(captured)
        try:
            scales = [speed_scale((a + b) / 2.0) for a, b in zip(kernel_s, kernel_s[1:])]
            return self._evaluate(outs, walls, scales, statistics.median(kernel_s), attempted)
        finally:
            for out in outs:
                shutil.rmtree(out, ignore_errors=True)

    def _build_reference(self, captured):
        """Expected CSV fields and output-check verdict of each run, keyed by (planner, seed).

        The runs of this process's compare calls were captured; any other (say,
        one made in a worker process) is redone serially through the library.
        """
        antnav = self.antnav
        fmt = antnav.metrics.fmt
        base = antnav.scenario.parse_scenario(self.path)
        done = {(scenario.config.planner.value, scenario.seed) for scenario, _ in captured}
        for name in PLANNERS.split(","):
            kind = antnav.planner.PlannerKind(name)
            for i in range(self.calls * self.repeats):
                if (name, self.seed + i) in done:
                    continue
                scenario = antnav.scenario.with_seed(
                    antnav.scenario.with_planner(base, kind), self.seed + i)
                try:
                    captured.append((scenario, antnav.planner.run(scenario)))
                except Exception as exc:
                    self.reference[(name, scenario.seed)] = (None, f"raised {exc!r}")
        for scenario, result in captured:
            m = result.metrics
            self.reference[(scenario.config.planner.value, scenario.seed)] = (
                [m.status.value, fmt(m.path_length), str(m.corners), str(m.cycles)],
                check_run(antnav, scenario, result))

    def _evaluate(self, outs, walls, scales, kernel_s, attempted) -> Pass:
        digest = hashlib.sha256()
        failed = 0
        cycles, lengths, corners, goals = 0, [], [], 0
        planner_cycles: dict[str, int] = {}
        planner_ms: dict[str, float] = {}
        for j, (out, scale) in enumerate(zip(outs, scales)):
            for f in sorted(out.glob("*.csv")):
                if f.name != "timings.csv":  # the only file with wall-clock values
                    digest.update(f"{j}/{f.name}".encode() + b"\0" + f.read_bytes())
            rows = _read_csv(out / "compare_runs.csv")
            failed += max(0, 3 * self.repeats - len(rows))
            for row in rows:
                expected, problem = self.reference.get((row["planner"], int(row["seed"])),
                                                       (None, "no such run"))
                got = [row["status"], row["path_length"], row["corners"], row["cycles"]]
                if problem is None and got != expected:
                    problem = f"CSV row {got} differs from the library run {expected}"
                if problem is not None:
                    print(f"bench: {row['planner']} seed {row['seed']}: {problem}",
                          file=sys.stderr)
                    failed += 1
                cycles += int(row["cycles"])
                planner_cycles[row["planner"]] = (planner_cycles.get(row["planner"], 0)
                                                  + int(row["cycles"]))
                if row["status"] == "goal_reached":
                    goals += 1
                    lengths.append(float(row["path_length"]))
                    corners.append(int(row["corners"]))
            summary = {r["planner"]: r for r in _read_csv(out / "comparison.csv")}
            for planner in {r["planner"] for r in rows}:
                runs = [r for r in rows if r["planner"] == planner]
                misses = sum(r["status"] != "goal_reached" for r in runs)
                if planner not in summary or int(summary[planner]["failures"]) != misses:
                    print(f"bench: comparison.csv disagrees with compare_runs.csv on {planner}",
                          file=sys.stderr)
                    failed += len(runs)
            # the program's own per-run wall clock, summed over this call's runs
            for r in _read_csv(out / "timings.csv"):
                runs = sum(1 for row in rows if row["planner"] == r["planner"])
                planner_ms[r["planner"]] = (planner_ms.get(r["planner"], 0.0)
                                            + float(r["average_wall_ms"]) * runs * scale)
        # per-planner mean cycle time
        cycle_ms = [planner_ms[p] / planner_cycles[p] for p in planner_ms if planner_cycles.get(p)]
        wall = sum(t * f for t, f in zip(walls, scales))
        return Pass(wall, sum(walls), cycle_ms, kernel_s, attempted, failed,
                    digest.hexdigest(), cycles, lengths, corners, goals)

    def close(self):
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still be using it
            OUT_ROOT.rmdir()


def pin_to_one_cpu():
    """Keep this process, its threads and its children on one CPU.

    On a shared 2-vCPU host, two threads that hand off the interpreter lock
    across CPUs ran up to 1.6x slower for a minute at a time while the other
    vCPU was taken; the one-thread kernel cannot see that. On one CPU they
    slow down only as the kernel does.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def _capture(results: list):
    def make(fn):
        def captured(scenario, *args, **kwargs):
            result = fn(scenario, *args, **kwargs)
            results.append((scenario, result))
            return result
        return captured
    return make


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def _cycle_timer(samples: list[float]):
    def make(fn):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                samples.append(time.perf_counter() - t0)
        return timed
    return make


def make_tracer_patcher(antnav, tracer):
    """Patcher factory that wraps every span in SPANS and counts at its boundary."""
    NoPathFound = antnav.errors.NoPathFound

    def on_scan(args, kwargs, scan):
        tracer.add("scan.samples", len(scan.samples))
        tracer.add("scan.rays", scan.n_rays)

    def on_candidates(args, kwargs, candidates):
        tracer.add("grid.candidates", len(candidates.cells))

    def on_subpath(args, kwargs, result):
        _path, series = result
        tracer.add("aco.found")
        tracer.add("aco.iters", len(series))
        first = next((k for k, v in enumerate(series, start=1) if math.isfinite(v)), None)
        if first is not None:
            tracer.add("aco.first_finish_sum", first)
            tracer.add("aco.first_finish_n")

    def on_subpath_raise(exc):
        if isinstance(exc, NoPathFound):
            tracer.add("aco.nopath")

    def on_update(args, kwargs, _field):
        paths = args[1] if len(args) > 1 else kwargs["paths"]
        tracer.add("aco.walks", len(paths))
        tracer.add("aco.finished", sum(1 for p in paths if p.reached))

    hooks = {
        "scan.simulate_scan": (on_scan, None),
        "grid.candidate_cells": (on_candidates, None),
        "aco.plan_subpath": (on_subpath, on_subpath_raise),
        "aco.update_pheromone": (on_update, None),
    }

    def factory():
        patcher = Patcher("antnav")
        for name, target in SPANS.items():
            on_return, on_raise = hooks.get(name, (None, None))
            try:
                patcher.wrap(target, tracer.span(name, on_return, on_raise))
            except (AttributeError, ImportError):
                print(f"bench: span target {target} not found; {name} reads 0",
                      file=sys.stderr)
        return patcher
    return factory


def per_layer_metrics(tracer, traced_wall_s: float, passes: int, overhead_pct: float):
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    for name in SPANS:
        put(f"{name}.calls", tracer.calls[name] / passes, "count")
        if name not in INFO_ONLY_SELF_MS:
            put(f"{name}.self_ms", tracer.self_s[name] * 1000.0 / passes, "ms")
        put(f"{name}.share", tracer.self_s[name] / traced_wall_s, "ratio")
    c = tracer.counts.get
    cycles = tracer.calls["planner.plan_cycle"]
    attempts = tracer.calls["aco.plan_subpath"]

    def ratio(a, b):
        return a / b if b else 0.0

    put("scan.hit_ratio", ratio(c("scan.samples", 0), c("scan.rays", 0)), "ratio")
    put("grid.candidates_per_cycle", ratio(c("grid.candidates", 0), cycles), "count")
    put("aco.attempts_per_cycle", ratio(attempts, cycles), "count")
    put("aco.nopath_ratio", ratio(c("aco.nopath", 0), attempts), "ratio")
    put("aco.iters_per_call", ratio(c("aco.iters", 0), c("aco.found", 0)), "count")
    put("aco.first_finish_iter",
        ratio(c("aco.first_finish_sum", 0), c("aco.first_finish_n", 0)), "count")
    put("aco.ant_finish_ratio", ratio(c("aco.finished", 0), c("aco.walks", 0)), "ratio")
    put("trace.overhead_pct", overhead_pct, "%")
    return metrics


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in (ROOT / "src").rglob("*.py"))


def setup_probe(name: str, seed: int) -> float:
    """Scaled seconds for import + scenario parse + one warm-up run, in a child interpreter."""
    res = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                          "--seed", str(seed), "--setup-probe"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    if res.returncode != 0:
        sys.stderr.write(res.stderr)
        raise SystemExit(f"bench: setup probe exited {res.returncode}")
    return float(json.loads(res.stdout.strip().splitlines()[-1])["setup_s"])


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = WORKLOADS[args.workload]
    os.environ["REPLAN_THREADS"] = str(spec["threads"])

    cls = CompareWorkload if "calls" in spec else SerialWorkload
    if cls is CompareWorkload:
        pin_to_one_cpu()  # before any thread or setup probe starts; both inherit it

    t0 = time.perf_counter()
    antnav = import_program()
    workload = cls(antnav, spec, args.seed)
    try:
        workload.warm_up()
        setup = [(time.perf_counter() - t0) * speed_scale(host_speed())]
        if args.setup_probe:
            print(json.dumps({"setup_s": setup[0]}))
            return 0
        setup += [setup_probe(args.workload, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        return measure(args, antnav, workload, setup)
    finally:
        if isinstance(workload, CompareWorkload):
            workload.close()


def measure(args, antnav, workload, setup) -> int:
    tracer = Tracer()
    traced_factory = make_tracer_patcher(antnav, tracer)
    timed = isinstance(workload, SerialWorkload)
    untraced: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        untraced.append(workload.run_pass(lambda: Patcher("antnav"), timed))
        step = untraced[-1].raw_wall_s
        if args.trace:
            with tracer.propagate_to_threads():
                traced.append(workload.run_pass(traced_factory, False))
            step += traced[-1].raw_wall_s
        elapsed = time.perf_counter() - start
        if not elapsed + step <= args.seconds:
            break

    passes = untraced + traced
    digests = {p.digest for p in passes}
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0 and len(digests) == 1
    if len(digests) != 1:
        print(f"bench: passes disagree on seed-determined output: {sorted(digests)}",
              file=sys.stderr)

    first = untraced[0]
    wall = statistics.median(p.wall_s for p in untraced)
    # Every pass repeats the same cycles in the same order; taking each cycle's
    # median over passes keeps a brief stall in one pass out of the tail.
    cycle_ms = [statistics.median(col) for col in zip(*(p.cycle_ms for p in untraced))]
    info = {
        "workload": args.workload,
        "output_digest": first.digest[:16],
        "runs_per_pass": first.attempted,
        "cycles_per_pass": first.cycles,
        "cycle_samples": len(cycle_ms),
        "pass_s": [p.wall_s for p in untraced],
        "raw_pass_s": [p.raw_wall_s for p in untraced],
        "raw_traced_pass_s": [p.raw_wall_s for p in traced],
        "kernel_ms": [p.kernel_s * 1000.0 for p in passes if p.kernel_s is not None],
        "setup_samples_s": setup,
        "src.lines": src_lines(),
    }
    if args.trace:
        traced_wall = statistics.median(p.wall_s for p in traced)
        metrics = per_layer_metrics(tracer, sum(p.raw_wall_s for p in traced), len(traced),
                                    (traced_wall / wall - 1.0) * 100.0)
        for name in INFO_ONLY_SELF_MS:
            info[f"{name}.self_ms"] = tracer.self_s[name] * 1000.0 / len(traced)
    else:
        metrics = {}

        def put(name, value, unit):
            metrics[name] = {"value": value, "unit": unit}

        put("setup_s", statistics.median(setup), "s")
        put("wall_s", wall, "s")
        put("cycles_per_s", first.cycles / wall, "1/s")
        put("cycle_ms_p50", percentile(cycle_ms, 50), "ms")
        put("cycle_ms_p90", percentile(cycle_ms, 90), "ms")
        put("goal_rate", first.goals / max(1, first.attempted), "ratio")
        put("path_length_m_mean", mean_or_zero(first.lengths), "m")
        put("corners_mean", mean_or_zero(first.corners), "count")
        put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
