import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from antnav import (AcoParams, AntnavError, PlannerConfig, PlannerKind, ScenarioParseError,
                    parse_groups, parse_scenario)
from antnav.cli import main
from antnav.geometry import Frozen
from antnav.scenario import _DIRECTIVES

MAP = """\
cellsize 1.0
start 1 1 0
goal 4 4
######
#....#
#....#
#....#
#....#
######
"""

SCN = """\
format 1
map tiny.map
seed 7
planner conventional-aco
half_extent 2
lidar_rays 90
alpha 3
beta 1
omega 0.5
delta 0.6
zeta 0.4
ants 6
iterations 5
rho 0.25
gamma 2
goal_tolerance 0.4
max_robot_steps 77
"""


@pytest.fixture
def scenario_dir(tmp_path):
    (tmp_path / "tiny.map").write_text(MAP)
    (tmp_path / "tiny.scn").write_text(SCN)
    return tmp_path


class TestScenarioParsing:
    def test_full_round_trip(self, scenario_dir):
        sc = parse_scenario(scenario_dir / "tiny.scn")
        assert sc.seed == 7
        assert sc.config.planner is PlannerKind.CONVENTIONAL_ACO
        assert sc.config.half_extent == 2
        assert sc.config.n_rays == 90
        assert sc.config.weights.alpha == 3 and sc.config.weights.omega == 0.5
        assert sc.config.aco.delta == 0.6 and sc.config.aco.zeta == 0.4
        assert sc.config.aco.n_ants == 6 and sc.config.aco.n_iters == 5
        assert sc.config.aco.rho == 0.25 and sc.config.aco.gamma == 2
        assert sc.config.goal_tolerance == 0.4
        assert sc.config.max_robot_steps == 77
        assert sc.world.cell_size == 1.0
        # derived defaults
        assert sc.config.cell_size == 1.0
        assert sc.config.lidar_radius == 2.0

    def test_defaults_when_minimal(self, tmp_path):
        (tmp_path / "tiny.map").write_text(MAP)
        (tmp_path / "m.scn").write_text("format 1\nmap tiny.map\n")
        sc = parse_scenario(tmp_path / "m.scn")
        assert sc.seed == 0
        assert sc.config.planner is PlannerKind.PROPOSED
        assert sc.config.half_extent == 4
        assert sc.config.weights.alpha == 4.0
        assert sc.config.aco.n_ants == 20 and sc.config.aco.n_iters == 50
        # the class defaults, but for the two values the map sets
        assert sc.config == PlannerConfig(cell_size=1.0, lidar_radius=4.0)

    @pytest.mark.parametrize("text,line", [
        ("map tiny.map\n", 1),
        ("format 2\nmap tiny.map\n", 1),
        ("format 1\nmap tiny.map\nseed x\n", 3),
        ("format 1\nmap tiny.map\nwat 3\n", 3),
        ("format 1\nmap tiny.map\nseed 1\nseed 2\n", 4),
        ("format 1\nmap tiny.map\nants\n", 3),
        ("# only a comment\n\n", 1),  # empty scenario file
    ])
    def test_parse_errors_carry_line(self, tmp_path, text, line):
        (tmp_path / "tiny.map").write_text(MAP)
        (tmp_path / "bad.scn").write_text(text)
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(tmp_path / "bad.scn")
        assert err.value.line_no == line

    @pytest.mark.parametrize("text,line", [
        ("format 1\nmap tiny.map\nseed 3\nants 6\n\nrho 2\n", 6),
        ("format 1\nmap tiny.map\nseed -2\n", 3),
        ("format 1\nmap tiny.map\nplanner dijkstra\n", 3),
        ("format 1\nmap tiny.map\nants 4\nalpha 1\nelite_cutoff 4\n", 5),
        ("format 1\nmap tiny.map\nalpha 0\nbeta 0\nomega 0\n", 5),
        ("format 1\nmap tiny.map\napf_k_rep -1\n", 3),
        ("format 1\nmap tiny.map\nzeta 1\ndelta 0\n", 4),
        ("format 1\nmap tiny.map\nlidar_radius 1\nhalf_extent 2\n", 3),
        ("format 1\nmap tiny.map\nhalf_extent 3\nlidar_radius 2.5\n", 4),
    ])
    def test_semantic_errors_carry_directive_line(self, tmp_path, text, line):
        (tmp_path / "tiny.map").write_text(MAP)
        (tmp_path / "bad.scn").write_text(text)
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(tmp_path / "bad.scn")
        assert err.value.line_no == line

    @pytest.mark.parametrize("directive", [
        "lidar_rays 0", "lidar_radius 0", "cell_size -1", "half_extent 0",
        "inflation_rings -1", "goal_tolerance -0.5", "max_robot_steps -1",
    ])
    def test_planner_config_rejected_at_parse_time(self, tmp_path, directive):
        (tmp_path / "tiny.map").write_text(MAP)
        (tmp_path / "bad.scn").write_text(f"format 1\nmap tiny.map\n{directive}\n")
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(tmp_path / "bad.scn")
        assert err.value.line_no == 3

    @pytest.mark.parametrize("value", ["0.5", "1.5", "1.0000001"])
    def test_cell_size_must_match_the_map(self, tmp_path, value):
        (tmp_path / "tiny.map").write_text(MAP)
        (tmp_path / "bad.scn").write_text(f"format 1\nmap tiny.map\nseed 2\ncell_size {value}\n")
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(tmp_path / "bad.scn")
        assert err.value.line_no == 4
        (tmp_path / "ok.scn").write_text("format 1\nmap tiny.map\ncell_size 1.0\n")
        assert parse_scenario(tmp_path / "ok.scn").config.cell_size == 1.0

    def test_cell_size_mismatch_exits_one_without_running(self, tmp_path, capsys):
        (tmp_path / "tiny.map").write_text(MAP)
        (tmp_path / "bad.scn").write_text("format 1\nmap tiny.map\ncell_size 0.5\n")
        code = main(["run", "--scenario", str(tmp_path / "bad.scn"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "line 3:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_goal_on_a_wall_exits_one_without_running(self, tmp_path, capsys):
        (tmp_path / "wall.map").write_text(MAP.replace("goal 4 4", "goal 5 4"))
        (tmp_path / "s.scn").write_text("format 1\nmap wall.map\n")
        code = main(["run", "--scenario", str(tmp_path / "s.scn"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "line 3:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sectors_key_is_gone(self, tmp_path):
        (tmp_path / "tiny.map").write_text(MAP)
        (tmp_path / "s.scn").write_text("format 1\nmap tiny.map\nsectors 36\n")
        with pytest.raises(ScenarioParseError) as err:
            parse_scenario(tmp_path / "s.scn")
        assert err.value.line_no == 3

    def test_zero_rays_exits_one_without_running(self, tmp_path, capsys):
        (tmp_path / "tiny.map").write_text(MAP)
        (tmp_path / "bad.scn").write_text("format 1\nmap tiny.map\nlidar_rays 0\n")
        code = main(["run", "--scenario", str(tmp_path / "bad.scn"),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "line 3:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_unknown_planner(self, tmp_path):
        (tmp_path / "tiny.map").write_text(MAP)
        (tmp_path / "bad.scn").write_text("format 1\nmap tiny.map\nplanner dijkstra\n")
        with pytest.raises(ScenarioParseError):
            parse_scenario(tmp_path / "bad.scn")

    def test_comment_and_blank_lines_ignored(self, tmp_path):
        (tmp_path / "tiny.map").write_text(MAP)
        (tmp_path / "c.scn").write_text("; a note\n\nformat 1\n; another\nmap tiny.map\n")
        assert parse_scenario(tmp_path / "c.scn").config.planner is PlannerKind.PROPOSED


class TestGroupsParsing:
    def test_groups_round_trip(self, tmp_path):
        (tmp_path / "w.groups").write_text(
            "group1 4 1.8 1 1 0\ngroup2 4 1.8 1 0.7 0.3\ngroup3 4 2 3 0.7 0.3\n")
        groups = parse_groups(tmp_path / "w.groups")
        assert [g.name for g in groups] == ["group1", "group2", "group3"]
        assert groups[0].delta == 1.0 and groups[0].zeta == 0.0
        assert groups[2].weights.omega == 3.0

    def test_empty_groups_rejected(self, tmp_path):
        (tmp_path / "e.groups").write_text("; nothing here\n")
        with pytest.raises(ScenarioParseError):
            parse_groups(tmp_path / "e.groups")

    def test_malformed_group_line(self, tmp_path):
        (tmp_path / "b.groups").write_text("group1 4 1.8 1\n")
        with pytest.raises(ScenarioParseError) as err:
            parse_groups(tmp_path / "b.groups")
        assert err.value.line_no == 1

    @pytest.mark.parametrize("bad", [
        "g nan 1.8 1 0.7 0.3", "g 4 inf 1 0.7 0.3", "g 4 1.8 -inf 0.7 0.3",
        "g 4 1.8 1 nan 0.3", "g 4 1.8 1 0.7 inf",
        "g 4 1.8 1 -0.1 0.3", "g 4 1.8 1 0.7 -0.3", "g 4 1.8 1 0 0", "g 4 1.8 1 0 1",
        "g1 4 2 3 0.7 0.3",  # a repeated name: its sweep rows could not be told apart
    ])
    def test_bad_group_values_exit_one_at_their_line(self, tmp_path, capsys, bad):
        (tmp_path / "tiny.map").write_text(MAP)
        (tmp_path / "tiny.scn").write_text("format 1\nmap tiny.map\n")
        (tmp_path / "w.groups").write_text(f"; groups\ng1 4 1.8 1 1 0\n{bad}\n")
        code = main(["sweep", "--scenario", str(tmp_path / "tiny.scn"), "--out",
                     str(tmp_path / "out"), "--groups", str(tmp_path / "w.groups")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: line 3: "), err
        assert not (tmp_path / "out").exists()


MOVER_MAP = """\
cellsize 1.0
start 1 1 0
goal 4 4
mover 1 pingpong
wp 2 2
wp 3 2
######
#....#
#....#
#....#
#....#
######
"""


@pytest.mark.parametrize("map_text,scn_extra,line", [
    (MAP.replace("cellsize 1.0", "cellsize nan"), "", 1),
    (MAP.replace("cellsize 1.0", "cellsize inf"), "", 1),
    (MAP.replace("start 1 1 0", "start 1 1 nan"), "", 2),
    (MAP.replace("start 1 1 0", "start 1 1 inf"), "", 2),
    (MAP.replace("start 1 1 0", "start 1 1 -inf"), "", 2),
    (MAP, "goal_tolerance nan\n", 3),
    (MAP, "tau0 nan\n", 3),
    (MAP, "gamma nan\n", 3),
    (MAP, "lidar_radius inf\n", 3),
    # past the ray cap, which bounds a run's memory, and past a C int
    (MAP, "lidar_rays 65537\n", 3),
    (MAP, "lidar_rays 2147483648\n", 3),
    # counts the kernel takes as a C int
    (MAP, "ants 2147483648\n", 3),
    (MAP, "iterations 2147483648\n", 3),
    (MAP, "half_extent 23170\n", 3),
    # a waypoint outside the grid, before the grid is read: at tick 0 ...
    (MOVER_MAP.replace("wp 2 2", "wp 9 2").replace("wp 3 2", "wp 8 2"), "", 5),
    # ... and one the mover reaches only later
    (MOVER_MAP.replace("wp 2 2", "wp 5 2").replace("wp 3 2", "wp 6 2"), "", 6),
    (MOVER_MAP.replace("wp 2 2", "wp 0 2").replace("wp 3 2", "wp -1 2"), "", 6),
], ids=["cellsize-nan", "cellsize-inf", "start-psi-nan", "start-psi-inf", "start-psi-minus-inf",
        "goal_tolerance-nan", "tau0-nan", "gamma-nan", "lidar_radius-inf",
        "lidar_rays-over-cap", "lidar_rays-int-overflow", "ants-int-overflow", "iterations-int-overflow",
        "half_extent-int-overflow",
        "wp-outside-at-tick-0", "wp-outside-later", "wp-outside-negative"])
def test_bad_numbers_exit_one_at_their_line(tmp_path, capsys, map_text, scn_extra, line):
    (tmp_path / "m.map").write_text(map_text)
    (tmp_path / "s.scn").write_text(f"format 1\nmap m.map\n{scn_extra}")
    code = main(["run", "--scenario", str(tmp_path / "s.scn"), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: line {line}: "), err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("scn_text,line", [
    ("format 1\nmap m.map\n", 2),
    ("format 1\nseed 3\nants 6\nmap m.map\n", 4),
])
def test_radius_overflow_exits_one_at_the_map_line(tmp_path, capsys, scn_text, line):
    # half_extent x cellsize overflows the derived lidar_radius to inf
    (tmp_path / "m.map").write_text(MAP.replace("cellsize 1.0", "cellsize 1e308"))
    (tmp_path / "s.scn").write_text(scn_text)
    code = main(["run", "--scenario", str(tmp_path / "s.scn"), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: line {line}: lidar_radius"), err
    assert not (tmp_path / "out").exists()


def test_directive_table_matches_the_config_fields_and_readme():
    targets = [target for _, target in _DIRECTIVES.values() if target is not None]
    for cls, name in targets:
        assert name in cls._fields, (cls, name)
    assert len(set(targets)) == len(targets), "a field is set by two directives"
    assert {key for key, (_, target) in _DIRECTIVES.items() if target is None} == \
        {"map", "planner", "seed", "cell_size"}
    # README's scenario key list: the backticked names from "Keys:" to the sentence's end
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    scenario = readme[readme.index("**Scenario** (`*.scn`)"):]
    key_list = re.split(r"\.\s", scenario[scenario.index("Keys:"):], maxsplit=1)[0]
    names = [name for span in re.findall(r"`([^`]+)`", key_list) if "|" not in span
             for name in span.split()]
    assert sorted(names) == sorted(_DIRECTIVES)


def test_unreadable_map_is_reported_at_the_map_line(tmp_path):
    (tmp_path / "s.scn").write_text("format 1\nseed 3\nmap missing.map\n")
    with pytest.raises(ScenarioParseError) as err:
        parse_scenario(tmp_path / "s.scn")
    assert err.value.line_no == 3


_TOKENS = ["nan", "inf", "-inf", "-1", "0", "-0.0", "1", "2", "1.5", "99", "1e9", "x", "#"]
_MAP_KEYS = ["cellsize", "start", "goal", "mover", "wp", "#....#", "......"]
_SCN_KEYS = sorted([*_DIRECTIVES, "format"])


@st.composite
def mutated_texts(draw):
    """The map and scenario texts with a few lines replaced, dropped, repeated or added."""
    files = [MOVER_MAP.splitlines(), SCN.splitlines()]
    for _ in range(draw(st.integers(1, 4))):
        which = draw(st.integers(0, 1))
        lines = files[which]
        at = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["token", "drop", "repeat", "add"]))
        if op == "token" and at < len(lines) and lines[at].split():
            parts = lines[at].split()  # a value, or the whole of a grid row
            parts[draw(st.integers(min(1, len(parts) - 1), len(parts) - 1))] = \
                draw(st.sampled_from(_TOKENS))
            lines[at] = " ".join(parts)
        elif op == "drop" and at < len(lines):
            del lines[at]
        elif op == "repeat" and at < len(lines):
            lines.insert(at, lines[at])
        else:
            key = draw(st.sampled_from(_SCN_KEYS if which else _MAP_KEYS))
            values = draw(st.lists(st.sampled_from(_TOKENS), max_size=3))
            lines.insert(at, " ".join([key, *values]))
    return "\n".join(files[0]) + "\n", "\n".join(files[1]) + "\n"


def _numbers(value):
    """Every int and float inside a (nested) Frozen value."""
    if isinstance(value, Frozen):
        for name in value._fields:
            yield from _numbers(getattr(value, name))
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_texts())
@example((MOVER_MAP.replace("cellsize 1.0", "cellsize nan"), SCN))
@example((MOVER_MAP.replace("cellsize 1.0", "cellsize inf"), SCN))
@example((MOVER_MAP.replace("start 1 1 0", "start 1 1 nan"), SCN))
@example((MOVER_MAP.replace("start 1 1 0", "start 1 1 inf"), SCN))
@example((MOVER_MAP, SCN.replace("goal_tolerance 0.4", "goal_tolerance nan")))
@example((MOVER_MAP, SCN + "tau0 nan\n"))
@example((MOVER_MAP, SCN.replace("gamma 2", "gamma nan")))
@example((MOVER_MAP.replace("wp 3 2", "wp 3 2\nwp 4 2\nwp 5 2\nwp 6 2"), SCN))
@example((MOVER_MAP, SCN.replace("map tiny.map", "map missing.map")))
def test_mutated_inputs_fail_only_with_antnav_errors(texts):
    """The parsers raise AntnavError or return a scenario that is sound to run:
    finite numbers in the configuration and the endpoints, movers inside the grid."""
    map_text, scn_text = texts
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "tiny.map").write_text(map_text)
        (Path(tmp) / "tiny.scn").write_text(scn_text)
        try:
            sc = parse_scenario(Path(tmp) / "tiny.scn")
        except AntnavError:
            return
    assert all(math.isfinite(v) for v in _numbers(sc.config))
    assert all(math.isfinite(v) for v in (*sc.start.xy, sc.start.psi, *sc.goal))
    assert all(sc.world.in_bounds(cell) for m in sc.world.movers for cell in m.waypoints)


SHIPPED = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("name", ["multi_obstacle", "corridor"])
@pytest.mark.parametrize("cellsize,extra,line", [
    ("1e300", "", 2),      # (1/step)**gamma underflows to 0: blamed on the map line
    ("1e-70", "", 2),      # ... or overflows
    (None, "gamma 2000\n", 14),
    (None, "gamma -2000\n", 14),
])
def test_unusable_heuristic_weights_exit_one_at_their_line(tmp_path, capsys, name, cellsize,
                                                           extra, line):
    map_text = (SHIPPED / f"{name}.map").read_text()
    if cellsize is not None:
        head, rest = map_text.split("\n", 1)
        assert head.startswith("cellsize ")
        map_text = f"cellsize {cellsize}\n{rest}"
    (tmp_path / f"{name}.map").write_text(map_text)
    scn = (SHIPPED / f"{name}.scn").read_text()
    assert len(scn.splitlines()) == 13
    (tmp_path / "s.scn").write_text(scn + extra)
    code = main(["run", "--scenario", str(tmp_path / "s.scn"), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: line {line}: gamma"), err
    assert not (tmp_path / "out").exists()


GROUPS = (SHIPPED / "weights.groups").read_text()


@st.composite
def mutated_groups(draw):
    """The shipped groups file with a few tokens replaced, lines dropped, repeated or added."""
    lines = GROUPS.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["token", "drop", "repeat", "add"]))
        if op == "token" and at < len(lines) and lines[at].split():
            parts = lines[at].split()
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(_TOKENS))
            lines[at] = " ".join(parts)
        elif op == "drop" and at < len(lines):
            del lines[at]
        elif op == "repeat" and at < len(lines):
            lines.insert(at, lines[at])
        else:
            lines.insert(at, " ".join(draw(st.lists(st.sampled_from(_TOKENS + ["g", ";"]),
                                                    max_size=7))))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_groups())
@example(GROUPS.replace("group2 4 1.8 1 0.7 0.3", "group2 4 1.8 1 0 0.3"))
@example(GROUPS.replace("group2 4 1.8 1 0.7 0.3", "group2 4 1.8 1 0.7 -0.0"))
@example(GROUPS.replace("group2 4 1.8 1 0.7 0.3", "group2 4 1.8 1 -0.0 1"))
@example(GROUPS.replace("group2 4 1.8 1 0.7 0.3", "group2 nan 1.8 1 0.7 0.3"))
@example(GROUPS.replace("group2 4 1.8 1 0.7 0.3", "group2 4 1.8 1 1e9 inf"))
@example(GROUPS.replace("group2 4 1.8 1 0.7 0.3", "group2 0 0 0 0.7 0.3"))
@example(GROUPS.replace("group2 4 1.8 1 0.7 0.3", "group2 4 1.8 1 0.7 0.3 1"))
@example("; only a comment\n\n")
def test_mutated_groups_fail_only_with_antnav_errors(text):
    """parse_groups raises AntnavError or returns finite weights whose
    delta/zeta pair AcoParams accepts."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "w.groups"
        path.write_text(text)
        try:
            groups = parse_groups(path)
        except AntnavError:
            return
    assert groups
    for g in groups:
        assert all(math.isfinite(v) for v in _numbers(g))
        AcoParams(delta=g.delta, zeta=g.zeta)
