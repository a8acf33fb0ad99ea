"""Command line front end: run one scenario, compare planners, sweep weight groups.

Exit codes for `run`: 0 goal reached, 1 parse error, 2 stuck / local minimum /
step budget exhausted, 3 collision. `compare` and `sweep` exit 0 once all runs
complete (individual verdicts land in the CSVs) and 1 on parse errors.

All CSVs are deterministic for a fixed seed; wall-clock numbers go to the
summary block and timings.csv only. Runs and their ants execute serially in
this process.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import AntnavError
from .geometry import SQRT2, sequential_sum
from .metrics import RunMetrics, RunStatus, aggregate, write_csv, write_summary
from .planner import PlannerKind, RunResult, run
from .plot import write_svg
from .scenario import (Scenario, parse_groups, parse_scenario, with_planner,
                       with_seed, with_weights)

_EXIT_BY_STATUS = {
    RunStatus.GOAL_REACHED: 0,
    RunStatus.STUCK: 2,
    RunStatus.LOCAL_MINIMUM: 2,
    RunStatus.STEP_BUDGET_EXHAUSTED: 2,
    RunStatus.COLLISION: 3,
}


def _load_scenario(args) -> Scenario:
    scenario = parse_scenario(args.scenario)
    if args.seed is not None:
        if args.seed < 0:
            raise AntnavError("seed must be >= 0")
        scenario = with_seed(scenario, args.seed)
    return scenario


def _trajectory_rows(result: RunResult):
    start = result.poses[0]
    return [(0, start.x, start.y, start.psi, result.metrics.dist_series[0])] + [
        (rec.cycle + 1, rec.pose.x, rec.pose.y, rec.pose.psi, rec.dist_to_goal)
        for rec in result.records]


def _write_run_outputs(out_dir: Path, scenario: Scenario, result: RunResult,
                       plot: bool) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_csv(out_dir / "trajectory.csv", ["cycle", "x", "y", "psi", "dist_to_goal"],
              _trajectory_rows(result))
    m = result.metrics
    write_summary(out_dir / "summary.txt", {
        "scenario": scenario.name,
        "map": scenario.map_path,
        "planner": scenario.config.planner.value,
        "seed": scenario.seed,
        "status": m.status.value,
        "cycles": m.cycles,
        "path_length_m": m.path_length,
        "corners": m.corners,
        "final_distance_m": m.dist_series[-1],
        "goal_tolerance_m": scenario.config.resolved_goal_tolerance(),
        "wall_ms": round(m.wall_ms, 3),
    })
    if plot:
        write_svg(out_dir / "plot.svg", scenario.world, result, scenario.goal)


def cmd_run(args) -> int:
    scenario = _load_scenario(args)
    result = run(scenario)
    _write_run_outputs(Path(args.out), scenario, result, args.plot)
    m = result.metrics
    print(f"{scenario.name}: {m.status.value} after {m.cycles} cycles, "
          f"path {m.path_length:.2f} m, {m.corners} corners")
    return _EXIT_BY_STATUS[m.status]


_RUN_COLUMNS = ["run", "seed", "status", "path_length", "corners", "cycles"]


def _run_rows(label: str, first_seed: int, metrics: list[RunMetrics]) -> list[list]:
    return [[label, i, first_seed + i, m.status.value, m.path_length, m.corners, m.cycles]
            for i, m in enumerate(metrics)]


def _worst_case_length(scenario: Scenario) -> float:
    steps = scenario.config.resolved_max_steps(scenario.world)
    return steps * scenario.config.cell_size * SQRT2


def _planner_list(raw: str) -> list[PlannerKind]:
    kinds = []
    for name in raw.split(","):
        name = name.strip()
        try:
            kinds.append(PlannerKind(name))
        except ValueError as exc:
            raise AntnavError(str(exc)) from exc
        if kinds.count(kinds[-1]) > 1:
            raise AntnavError(f"planner {name!r} is listed twice")
    return kinds


def _run_batch(args, scenario: Scenario, variants) -> tuple[Path, list[list[RunMetrics]]]:
    """Check --repeats, make the out directory, then run each variant (drawn only now)
    --repeats times, run i with seed scenario.seed + i, through this module's `run`."""
    if args.repeats < 1:
        raise AntnavError("repeats must be >= 1")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir, [[run(with_seed(variant, scenario.seed + i)).metrics
                      for i in range(args.repeats)] for variant in variants]


def cmd_compare(args) -> int:
    scenario = _load_scenario(args)
    kinds = _planner_list(args.planner)
    out_dir, batches = _run_batch(args, scenario, (with_planner(scenario, k) for k in kinds))
    write_csv(out_dir / "compare_runs.csv", ["planner", *_RUN_COLUMNS],
              [row for kind, metrics in zip(kinds, batches)
               for row in _run_rows(kind.value, scenario.seed, metrics)])

    worst_case = _worst_case_length(scenario)
    comparison, timings = [], []
    for kind, metrics in zip(kinds, batches):
        # a failed run counts as the worst-case executed length
        lengths = [m.path_length if m.status is RunStatus.GOAL_REACHED else worst_case
                   for m in metrics]
        failures = sum(1 for m in metrics if m.status is not RunStatus.GOAL_REACHED)
        comparison.append([kind.value, min(lengths), sequential_sum(lengths) / len(lengths), failures])
        timings.append([kind.value, round(sum(m.wall_ms for m in metrics) / len(metrics), 3)])
    write_csv(out_dir / "comparison.csv",
              ["planner", "optimal_path_length", "average_path_length", "failures"], comparison)
    write_csv(out_dir / "timings.csv", ["planner", "average_wall_ms"], timings)

    for kind, metrics in zip(kinds, batches):
        m = metrics[0]
        write_csv(out_dir / f"distance_{kind.value}.csv", ["cycle", "dist_to_goal"],
                  enumerate(m.dist_series))
        if kind is not PlannerKind.APF:
            # iterations are 1-based
            write_csv(out_dir / f"aco_series_{kind.value}.csv",
                      ["cycle", "iteration", "best_score"],
                      [(cycle, it, value)
                       for cycle, series in enumerate(m.aco_series, start=1)
                       for it, value in enumerate(series, start=1)])

    print(f"compared {', '.join(k.value for k in kinds)} x{args.repeats} -> {out_dir}")
    return 0


def cmd_sweep(args) -> int:
    scenario = _load_scenario(args)
    groups = parse_groups(args.groups)
    out_dir, batches = _run_batch(args, scenario, (
        with_weights(scenario, g.weights, g.delta, g.zeta) for g in groups))
    runs, stats = [], []
    for group, metrics in zip(groups, batches):
        runs += _run_rows(group.name, scenario.seed, metrics)
        stats += [(group.name, metric, s.best, s.worst, s.average)
                  for metric, s in aggregate(metrics).items()]
    write_csv(out_dir / "sweep_runs.csv", ["group", *_RUN_COLUMNS], runs)
    write_csv(out_dir / "sweep.csv", ["group", "metric", "best", "worst", "average"], stats)
    print(f"swept {len(groups)} groups x{args.repeats} -> {out_dir}")
    return 0


@functools.cache  # one parser per process, however often main runs: parse_args keeps no state
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antnav",
        description="Receding-horizon grid navigation with an ant-colony sub-path planner.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario file path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    p_run = sub.add_parser("run", help="run one scenario")
    common(p_run)
    p_run.add_argument("--plot", action=argparse.BooleanOptionalAction, default=True,
                       help="write plot.svg (default on)")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="run several planners on one scenario")
    common(p_cmp)
    p_cmp.add_argument("--planner", default="proposed,conventional-aco,apf",
                       help="comma-separated planner names")
    p_cmp.add_argument("--repeats", type=int, default=5)
    p_cmp.set_defaults(func=cmd_compare)

    p_swp = sub.add_parser("sweep", help="run weight groups on one scenario")
    common(p_swp)
    p_swp.add_argument("--groups", required=True, help="groups file path")
    p_swp.add_argument("--repeats", type=int, default=10)
    p_swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (AntnavError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
