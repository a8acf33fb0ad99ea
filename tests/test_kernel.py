"""Building and loading the compiled kernel (colony.c, perception.c and planner.c)."""
import ast
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from antnav import PlannerKind, kernel

from stages import pointer

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# Plans one sub-path with the kernel cache pointed at argv[1] and prints the
# result, whether the cache was empty after import and parse, and whether the
# build tools or numpy were ever imported into this process.
CHILD = """
import json, sys
from pathlib import Path
cache = Path(sys.argv[1])
import antnav.kernel
antnav.kernel.CACHE_DIR = cache
from antnav.planner import run
from antnav.scenario import parse_scenario
scenario = parse_scenario(sys.argv[2])
cold = not cache.exists() or not any(cache.iterdir())
result = run(scenario)
print(json.dumps({"cold_before_run": cold,
                  "poses": [[p.x, p.y] for p in result.poses],
                  "status": result.metrics.status.value,
                  "setuptools": "setuptools" in sys.modules,
                  "cffi": "cffi" in sys.modules,
                  "numpy": "numpy" in sys.modules}))
"""


def start_child(cache_dir):
    return subprocess.Popen([sys.executable, "-c", CHILD, str(cache_dir),
                             str(REPO / "scenarios" / "multi_obstacle.scn")],
                            cwd=SRC, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def finish(child):
    out, err = child.communicate(timeout=300)
    assert child.returncode == 0, err
    return json.loads(out.strip().splitlines()[-1])


def test_concurrent_builds_into_one_empty_dir(tmp_path):
    cache = tmp_path / "cache"
    children = [start_child(cache), start_child(cache)]
    results = [finish(child) for child in children]
    assert results[0]["poses"] == results[1]["poses"]
    assert results[0]["status"] == "goal_reached"
    built = sorted(p.name for p in cache.iterdir())
    assert len(built) == 1 and built[0].startswith("_kernel_"), built  # no build dir left


def test_cold_cache_run_keeps_build_tools_out_of_the_process(tmp_path):
    result = finish(start_child(tmp_path / "cache"))
    assert result["cold_before_run"]  # nothing is built at import or parse time
    assert not result["setuptools"] and not result["cffi"]
    assert not result["numpy"]  # the run path hands the kernel bytes, not arrays


def test_missing_compiler_is_an_import_error(tmp_path, monkeypatch):
    monkeypatch.setenv("CC", "/bin/false")
    with pytest.raises(ImportError, match="C compiler"):
        kernel.load(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_build_deletes_stale_modules_and_keeps_directories(tmp_path):
    (tmp_path / ("_kernel_0123456789abcdef" + kernel.SUFFIX)).write_bytes(b"stale")
    in_flight = tmp_path / "_kernel_0123456789abcdef-build"
    in_flight.mkdir()
    other = tmp_path / "notes.txt"
    other.write_text("kept")
    module = kernel.load(tmp_path)
    dirs = module.ffi.new("double[2]")
    module.lib.ray_directions(0.0, 1, dirs)
    assert list(dirs) == [1.0, 0.0]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [module.__name__ + kernel.SUFFIX, in_flight.name, other.name])


def test_suffix_is_the_interpreters_extension_suffix():
    # the suffix cffi's build gives the module, read without importing sysconfig
    import sysconfig
    assert kernel.SUFFIX == sysconfig.get_config_var("EXT_SUFFIX")


def test_module_name_hashes_every_source():
    texts = [path.read_text(encoding="utf-8") for path in kernel.SOURCES]
    assert kernel.module().__name__ == kernel.module_name(texts)
    names = {kernel.module_name(texts)}
    for i in range(len(texts)):
        edited = list(texts)
        edited[i] = edited[i].replace("\n", "\n\n", 1)  # one blank line more
        names.add(kernel.module_name(edited))
    assert len(names) == len(texts) + 1


def test_package_data_ships_every_source():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))
    shipped = config["tool"]["setuptools"]["package-data"]["antnav"]
    assert {path.name for path in kernel.SOURCES} <= set(shipped)
    assert {path.name for path in kernel.SOURCES} == {
        path.name for path in (SRC / "antnav").glob("*.c")}


def test_package_imports_only_what_it_declares():
    # numpy is the tests' alone: no module of the package may import it, even lazily
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((REPO / "pyproject.toml").read_text(encoding="utf-8"))
    allowed = {re.match(r"[\w.-]+", dep)[0] for dep in config["project"]["dependencies"]}
    allowed |= {"antnav"} | sys.stdlib_module_names
    for path in sorted((SRC / "antnav").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:  # level > 0: antnav
                names = [node.module]
            else:
                continue
            assert {name.partition(".")[0] for name in names} <= allowed, (path.name, names)


def test_bool_grid_is_passed_without_a_copy():
    occ = np.zeros((3, 4), dtype=bool)
    ptr = pointer(occ, np.bool_, occ.shape)
    assert int(kernel.module().ffi.cast("uintptr_t", ptr)) == occ.ctypes.data


def compile_errors(source, *flags):
    res = subprocess.run([os.environ.get("CC", "cc"), "-fsyntax-only", "-std=c11", *flags,
                          "-Werror", "-x", "c", "-"],
                         input=source, capture_output=True, text=True)
    return res.returncode, res.stderr


def test_sources_compile_without_warnings():
    # catches parameters and locals that a signature change leaves unused
    texts = [path.read_text(encoding="utf-8") for path in kernel.SOURCES]
    code, stderr = compile_errors(kernel._unit(texts), "-Wall", "-Wextra")
    assert code == 0, stderr


def test_declarations_come_from_the_definitions():
    source = """#include <stdbool.h>
/* int fake(int x)
{ */
// int also_fake(void) {
enum { A = 0, /* the first */
       B = -3 };
typedef struct { int n; } pair;
static int helper(int x)
{
    return x;
}
int run(const bool *mask,
        int n, double *out)
{
    return helper(n);
}
"""
    assert kernel.declarations(source) == ("enum { A, B, ... };\n"
                                           "int run(const bool *mask, int n, double *out);")


def declared_names():
    """The kernel's declared functions, in order, and the set of its enum names."""
    texts = [path.read_text(encoding="utf-8") for path in kernel.SOURCES]
    declared = kernel.declarations(kernel._unit(texts))
    enums = re.findall(r"\w+", " ".join(re.findall(r"enum \{(.*?)\}", declared)))
    return re.findall(r"(\w+)\(", declared), set(enums)


def lib_names():
    """The names the package and its tests read through lib.<name>."""
    python = "".join(path.read_text(encoding="utf-8")
                     for path in (*(SRC / "antnav").glob("*.py"), *(REPO / "tests").glob("*.py")))
    return set(re.findall(r"\blib\.(\w+)", python))


def test_every_lib_name_is_declared():
    functions, enums = declared_names()
    assert set(dir(kernel.module().lib)) == set(functions) | enums  # what the build reads
    assert lib_names() - set(functions) - enums == set()


def test_outcome_codes_have_one_meaning_each():
    # one outcome enum besides the cell states, with pairwise distinct codes:
    # a code means the same whichever entry point returns it
    texts = [path.read_text(encoding="utf-8") for path in kernel.SOURCES]
    declared = kernel.declarations(kernel._unit(texts))
    enums = [re.findall(r"\w+", body) for body in re.findall(r"enum \{(.*?)\}", declared)]
    cell_states = ["FREE", "OCCUPIED", "INFLATED", "ROBOT"]
    assert len(enums) == 2 and cell_states in enums
    outcomes = [name for names in enums if names != cell_states for name in names]
    lib = kernel.module().lib
    codes = [getattr(lib, name) for name in outcomes]
    assert len(set(codes)) == len(codes), dict(zip(outcomes, codes))
    # apf_step returns a cell id, >= 0, where it returns no LOCAL_MINIMUM
    assert lib.OK == 0 and all(c < 0 for c in codes if c != lib.OK)


def test_every_cdef_function_is_called():
    # an export that nothing calls, through lib.<name> or from a C source that
    # does not define it, is a route nothing runs; a helper that lost its
    # `static` shows up here
    called = lib_names()
    for path in kernel.SOURCES:
        text = re.sub(r"/\*.*?\*/", "", path.read_text(encoding="utf-8"), flags=re.S)
        defined = set(re.findall(r"^\w[\w \t*]*?\b(\w+)\(", text, flags=re.M))
        called |= set(re.findall(r"\b(\w+)\(", text)) - defined
    declared, _ = declared_names()
    assert "plan_cycle" in declared
    assert not [name for name in declared if name not in called]


# Builds the kernel into argv[1] with AddressSanitizer and UndefinedBehaviorSanitizer
# and drives every kernel entry point: the three planners' runs of two seeds on
# one parsed world of each shipped scenario, so that later runs plan on grids
# kept in the world's memo, the per-stage calls of stages.py at ray counts from 1
# up, every planner's cycle from a pose off the world, from one on an occupied
# cell, and with a step that lands on an unseen mover (after another seed's cycle
# from the same pose, so on the grid that cycle kept), and the graph calls
# (open_directions, reachable and colony_run) on one-wide strips and rectangles
# from every corner, where the walk's tabu marks land in the padding of its block.
SANITIZED_CHILD = """
import itertools
import math
import sys
from pathlib import Path
import numpy as np
import antnav.kernel
antnav.kernel.CFLAGS += ("-fsanitize=address,undefined", "-fno-omit-frame-pointer")
antnav.kernel.CACHE_DIR = Path(sys.argv[1])
from antnav import (AcoMode, AcoParams, NoPathFound, PlannerConfig, PlannerKind, Pose,
                    PoseInObstacle, PoseOutOfBounds, plan_cycle, run)
from antnav.scenario import parse_scenario, with_planner, with_seed
from antnav.world import MovingObstacle, WorldMap
from stages import (GridGraph, LocalMinimum, NoCandidates, apf_step, candidate_cells, perceive,
                    plan_subpath, rank_candidates)
static = np.zeros((11, 11), bool)
static[[0, -1], :] = static[:, [0, -1]] = True
world = WorldMap(static, 1.0, (MovingObstacle(((5, 6),)),)).advanced()
verdicts = []
for kind in PlannerKind:
    # one ray, pointing west: the mover east of the robot goes unseen
    cfg = PlannerConfig(cell_size=1.0, lidar_radius=4.0, n_rays=1, inflation_rings=0,
                        planner=kind, aco=AcoParams(n_ants=4, n_iters=3))
    for pose in (Pose(-3.0, 5.5, 0.0), Pose(0.5, 5.5, 0.0), Pose(6.5, 5.5, 0.0)):
        for call in (lambda: plan_cycle(world, pose, (7.5, 5.5), cfg, 0, 0),
                     lambda: perceive(world, pose, 4.0, 1, 1.0, 4, 0)):
            try:
                call()
            except (PoseOutOfBounds, PoseInObstacle) as exc:
                verdicts.append(type(exc).__name__)
    for seed in (1, 0):  # seed 1 perceives, and seed 0 plans on the grid it kept
        status = plan_cycle(world, Pose(5.5, 5.5, math.pi), (7.5, 5.5), cfg, seed, 0).status
    verdicts.append(status.value)
print("verdicts", *verdicts)
colonies = 0
kept = 0
for path in sys.argv[2:]:
    scenario = parse_scenario(path)
    cycles = sum(run(with_seed(with_planner(scenario, kind), seed)).metrics.cycles
                 for kind, seed in itertools.product(PlannerKind, (0, 1)))
    kept += cycles - len(scenario.world._grids)
    scenario = with_seed(scenario, 0)
    cfg, world, pose, goal = scenario.config, scenario.world, scenario.start, scenario.goal
    for n_rays in (1, 2, 7, 360):
        grid = perceive(world, pose, cfg.lidar_radius, n_rays, cfg.cell_size, cfg.half_extent,
                        cfg.inflation_rings)
        try:
            apf_step(grid, pose, goal, cfg.apf)
        except LocalMinimum:
            pass
        try:
            ranked = rank_candidates(candidate_cells(grid), pose, goal, cfg.weights)
        except NoCandidates:
            continue
        graph = GridGraph(grid.traversable_mask(), grid.cell_size)
        graph.reachable_from(grid.center_cell)
        for sub in ranked[:3]:
            try:
                plan_subpath(graph, grid.center_cell, sub.cell, cfg.aco, (0, n_rays))
                colonies += 1
            except NoPathFound:
                pass
print("colonies", colonies, kept)
walks = 0
for rows, cols in ((1, 1), (1, 2), (2, 1), (1, 9), (9, 1), (4, 7), (7, 4)):
    corners = sorted({(0, 0), (0, cols - 1), (rows - 1, 0), (rows - 1, cols - 1)})
    holes = np.random.default_rng(cols).random((rows, cols)) > 0.3
    for mask in (np.ones((rows, cols), bool), holes):
        mask[tuple(zip(*corners))] = True
        graph = GridGraph(mask, 1.0)
        for start in corners:
            graph.reachable_from(start)
            for goal, mode in itertools.product(sorted(set(corners) - {start}), AcoMode):
                try:
                    plan_subpath(graph, start, goal, AcoParams(n_ants=3, n_iters=3, mode=mode), 0)
                    walks += 1
                except NoPathFound:
                    pass
print("walks", walks)
"""


def test_kernel_runs_clean_under_sanitizers(tmp_path):
    runtimes = [subprocess.run(["gcc", f"-print-file-name={name}"], capture_output=True,
                               text=True).stdout.strip() if shutil.which("gcc") else ""
                for name in ("libasan.so", "libubsan.so")]
    if not all(os.path.isfile(path) for path in runtimes):
        pytest.skip("gcc's sanitizer runtimes are not installed")
    env = dict(os.environ, LD_PRELOAD=" ".join(runtimes), ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=os.pathsep.join((str(SRC), str(REPO / "tests"))))
    scenarios = sorted(str(path) for path in (REPO / "scenarios").glob("*.scn"))
    res = subprocess.run([sys.executable, "-c", SANITIZED_CHILD, str(tmp_path), *scenarios],
                         cwd=SRC, env=env, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr[-4000:]
    verdicts, (label, colonies, kept), (walks_label, walks) = (
        line.split() for line in res.stdout.splitlines())
    pose_errors = ["PoseOutOfBounds"] * 2 + ["PoseInObstacle"] * 4  # the wall, then the mover
    assert verdicts == ["verdicts"] + (pose_errors + ["collision"]) * len(PlannerKind)
    assert label == "colonies" and int(colonies) > 0  # the per-layer calls reached the colony
    assert int(kept) > 0  # cycles planned on grids kept in a world's memo
    assert walks_label == "walks" and int(walks) > 100
    assert "Sanitizer" not in res.stderr and "runtime error" not in res.stderr, res.stderr[-4000:]


def test_build_flags_keep_the_bits():
    # a fused multiply-add, a reassociated sum or host-specific code would
    # change output bits: a faster build level must not bring any of them in
    assert {"-ffp-contract=off", "-fno-fast-math"} <= set(kernel.CFLAGS)
    for flag in ("-Ofast", "-ffast-math", "-funsafe-math-optimizations", "-fassociative-math",
                 "-march=native"):
        assert flag not in kernel.CFLAGS
