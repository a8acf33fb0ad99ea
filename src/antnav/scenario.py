"""Scenario files: line-oriented `key value` schema, versioned with a `format 1` header.

Example::

    format 1
    map corridor.map
    seed 7
    planner proposed
    half_extent 4
    alpha 4
    beta 1.8
    omega 1
    delta 0.7
    zeta 0.3

Every directive is one entry of _DIRECTIVES: its value parser and the
field of CostWeights, AcoParams, ApfParams or PlannerConfig it sets, or no
field for map and seed, which parse_scenario reads itself.

Only `map` is required. The map sets the cell size; an unset key keeps its
field's default, so a parsed config equals the one built in code from the
same values (PlannerConfig resolves the defaults that depend on others).
Map paths are relative to the scenario file. Parse errors carry line
numbers; an invalid value is reported at the line of the directive that
makes the configuration invalid, reading the file top down.
"""
from __future__ import annotations

from pathlib import Path

from .aco import AcoParams
from .baselines import ApfParams
from .errors import ScenarioParseError
from .geometry import Frozen, Point, Pose
from .planner import PlannerConfig, PlannerKind
from .subgoal import CostWeights
from .world import WorldMap, _finite_float, _read_text, load_map

# directive -> (value parser, (class, field) it sets); the target is None for the
# two parse_scenario reads itself, and a field no directive sets keeps its default
_DIRECTIVES = {
    "map": (str, None), "seed": (int, None), "planner": (str, (PlannerConfig, "planner")),
    "alpha": (_finite_float, (CostWeights, "alpha")),
    "beta": (_finite_float, (CostWeights, "beta")),
    "omega": (_finite_float, (CostWeights, "omega")),
    "phi": (_finite_float, (AcoParams, "phi")), "gamma": (_finite_float, (AcoParams, "gamma")),
    "rho": (_finite_float, (AcoParams, "rho")), "deposit": (_finite_float, (AcoParams, "q")),
    "delta": (_finite_float, (AcoParams, "delta")), "zeta": (_finite_float, (AcoParams, "zeta")),
    "tau0": (_finite_float, (AcoParams, "tau0")), "ants": (int, (AcoParams, "n_ants")),
    "iterations": (int, (AcoParams, "n_iters")), "aco_max_steps": (int, (AcoParams, "max_steps")),
    "elite_cutoff": (int, (AcoParams, "elite_cutoff")),
    "apf_k_att": (_finite_float, (ApfParams, "k_att")),
    "apf_k_rep": (_finite_float, (ApfParams, "k_rep")),
    "apf_d0": (_finite_float, (ApfParams, "d0")),
    "lidar_radius": (_finite_float, (PlannerConfig, "lidar_radius")),
    "lidar_rays": (int, (PlannerConfig, "n_rays")),
    "half_extent": (int, (PlannerConfig, "half_extent")),
    "inflation_rings": (int, (PlannerConfig, "inflation_rings")),
    "goal_tolerance": (_finite_float, (PlannerConfig, "goal_tolerance")),
    "max_robot_steps": (int, (PlannerConfig, "max_robot_steps")),
}


class Scenario(Frozen):
    """A fully resolved run: world, endpoints, planner configuration and seed."""

    name: str
    map_path: str
    world: WorldMap
    start: Pose
    goal: Point
    config: PlannerConfig
    seed: int


def parse_scenario(path) -> Scenario:
    path = Path(path)
    values: dict[str, object] = {}
    line_of: dict[str, int] = {}
    seen_format = False
    lines = _read_text(path, ScenarioParseError).splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        parts = line.split(None, 1)
        key = parts[0]
        if not seen_format:
            if key != "format" or len(parts) != 2 or parts[1].strip() != "1":
                raise ScenarioParseError("first directive must be 'format 1'", line_no)
            seen_format = True
            continue
        if len(parts) != 2:
            raise ScenarioParseError(f"directive {key!r} is missing a value", line_no)
        value = parts[1].strip()
        if key in values:
            raise ScenarioParseError(f"duplicate directive {key!r}", line_no)
        if key not in _DIRECTIVES:
            raise ScenarioParseError(f"unknown directive {key!r}", line_no)
        parse = _DIRECTIVES[key][0]
        try:
            values[key] = parse(value)
        except ValueError:
            kind = "integer" if parse is int else "number"
            raise ScenarioParseError(f"bad {kind} for {key!r}: {value!r}", line_no)
        line_of[key] = line_no
    if not seen_format:
        raise ScenarioParseError("empty scenario file", 1)
    if "map" not in values:
        raise ScenarioParseError("missing 'map' directive", len(lines) or 1)

    seed = int(values.get("seed", 0))
    if seed < 0:
        raise ScenarioParseError("seed must be >= 0", line_of["seed"])

    map_path = (path.parent / str(values["map"])).resolve()
    try:
        parsed = load_map(map_path)
    except OSError as exc:
        raise ScenarioParseError(f"cannot read map {map_path}: {exc.strerror}",
                                 line_of["map"]) from exc
    world = parsed.world
    try:
        config = _config(values, world.cell_size)
    except ValueError as exc:
        # blame the first line at which the directives read so far stop
        # making a valid configuration; the map line when the map's own
        # cell size already does not
        line_no = line_of["map"] if not _is_valid({}, world.cell_size) else next(
            line for line in sorted(line_of.values())
            if not _is_valid({k: v for k, v in values.items() if line_of[k] <= line},
                             world.cell_size))
        raise ScenarioParseError(str(exc), line_no) from exc

    return Scenario(name=path.stem, map_path=str(map_path), world=world,
                    start=parsed.start, goal=parsed.goal, config=config, seed=seed)


def _is_valid(values: dict[str, object], cell_size: float) -> bool:
    try:
        _config(values, cell_size)
    except ValueError:
        return False
    return True


def _config(values: dict[str, object], cell_size: float) -> PlannerConfig:
    """The PlannerConfig of the parsed directives and the map's cell size: each
    directive's value goes to its field, and every other field keeps its
    default. ValueError when the values make no valid configuration."""
    fields = {cls: {} for cls in (CostWeights, AcoParams, ApfParams, PlannerConfig)}
    for key, value in values.items():
        target = _DIRECTIVES[key][1]
        if target is not None:
            cls, name = target
            fields[cls][name] = value
    config = fields.pop(PlannerConfig)
    weights, aco, apf = (cls(**kwargs) for cls, kwargs in fields.items())
    return PlannerConfig(weights=weights, aco=aco, apf=apf, cell_size=cell_size, **config)


def with_seed(scenario: Scenario, seed: int) -> Scenario:
    return scenario.replace(seed=seed)


def with_planner(scenario: Scenario, planner: PlannerKind) -> Scenario:
    return scenario.replace(config=scenario.config.replace(planner=planner))


def with_weights(scenario: Scenario, weights: CostWeights, delta: float,
                 zeta: float) -> Scenario:
    aco = scenario.config.aco.replace(delta=delta, zeta=zeta)
    return scenario.replace(config=scenario.config.replace(weights=weights, aco=aco))


class WeightGroup(Frozen):
    name: str
    weights: CostWeights
    delta: float
    zeta: float


def parse_groups(path) -> list[WeightGroup]:
    """Groups file: one `name alpha beta omega delta zeta` line per group.

    Numbers must be finite; the weights must make valid CostWeights and the
    delta/zeta pair a valid AcoParams score."""
    groups: list[WeightGroup] = []
    lines = _read_text(path, ScenarioParseError).splitlines()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(";"):
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ScenarioParseError("expected: <name> <alpha> <beta> <omega> <delta> <zeta>",
                                     line_no)
        if any(g.name == parts[0] for g in groups):
            raise ScenarioParseError(f"group {parts[0]!r} is defined twice", line_no)
        try:
            alpha, beta, omega, delta, zeta = (_finite_float(v) for v in parts[1:])
        except ValueError:
            raise ScenarioParseError("bad number in group line", line_no)
        try:
            AcoParams(delta=delta, zeta=zeta)
            groups.append(WeightGroup(parts[0], CostWeights(alpha, beta, omega), delta, zeta))
        except ValueError as exc:
            raise ScenarioParseError(str(exc), line_no) from exc
    if not groups:
        raise ScenarioParseError("groups file defines no groups", len(lines) or 1)
    return groups
