"""Building and loading the compiled kernel (colony.c, perception.c and planner.c)."""
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from antnav import kernel

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

# Plans one sub-path with the kernel cache pointed at argv[1] and prints the
# result, whether the cache was empty after import and parse, and whether the
# build tools were ever imported into this process.
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
                  "cffi": "cffi" in sys.modules}))
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


def test_missing_compiler_is_an_import_error(tmp_path, monkeypatch):
    monkeypatch.setenv("CC", "/bin/false")
    with pytest.raises(ImportError, match="C compiler"):
        kernel.load(tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_build_deletes_stale_modules_and_keeps_directories(tmp_path):
    stale = [tmp_path / ("_kernel_0123456789abcdef" + kernel.SUFFIX),
             tmp_path / ("_colony_0123456789abcdef" + kernel.SUFFIX)]
    for path in stale:
        path.write_bytes(b"stale")
    in_flight = tmp_path / "_kernel_0123456789abcdef-build"
    in_flight.mkdir()
    other = tmp_path / "notes.txt"
    other.write_text("kept")
    module = kernel.load(tmp_path)
    assert module.lib.py_hypot(3.0, 4.0) == 5.0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [module.__name__ + kernel.SUFFIX, in_flight.name, other.name])


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


def test_bool_grid_is_passed_without_a_copy():
    occ = np.zeros((3, 4), dtype=bool)
    ptr = kernel.pointer(occ, np.bool_, occ.shape)
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


def test_cdef_declares_every_exported_function():
    # a function the sources export without a CDEF prototype (a helper that
    # lost its `static`) fails -Wmissing-prototypes
    # the enum lines are cffi's, whose `...` asks the compiler for the values
    texts = [path.read_text(encoding="utf-8") for path in kernel.SOURCES]
    prototypes = re.sub(r"enum \{.*?\};", "", kernel.CDEF, flags=re.S)
    code, stderr = compile_errors("#include <stdint.h>\n" + prototypes + kernel._unit(texts),
                                  "-Wmissing-prototypes")
    assert code == 0, stderr


def test_every_cdef_function_is_called():
    # the converse: an export that nothing calls, through lib.<name> or from
    # a C source that does not define it, is a route nothing runs
    python = "".join(path.read_text(encoding="utf-8")
                     for path in (*(SRC / "antnav").glob("*.py"), *(REPO / "tests").glob("*.py")))
    called = set(re.findall(r"\blib\.(\w+)", python))
    for path in kernel.SOURCES:
        text = re.sub(r"/\*.*?\*/", "", path.read_text(encoding="utf-8"), flags=re.S)
        defined = set(re.findall(r"^\w[\w \t*]*?\b(\w+)\(", text, flags=re.M))
        called |= set(re.findall(r"\b(\w+)\(", text)) - defined
    declared = re.findall(r"(\w+)\(", kernel.CDEF)
    assert "plan_cycle" in declared
    assert not [name for name in declared if name not in called]


# Builds the kernel into argv[1] with AddressSanitizer and UndefinedBehaviorSanitizer
# and drives every kernel entry point: the three planners' runs on each shipped
# scenario, and the public per-layer calls at ray counts from 1 up.
SANITIZED_CHILD = """
import sys
from pathlib import Path
import antnav.kernel
antnav.kernel.CFLAGS += ("-fsanitize=address,undefined", "-fno-omit-frame-pointer")
antnav.kernel.CACHE_DIR = Path(sys.argv[1])
from antnav import (GridGraph, LocalMinimum, NoCandidates, NoPathFound, PlannerKind, apf_step,
                    candidate_cells, perceive, plan_subpath, rank_candidates, run)
from antnav.scenario import parse_scenario, with_planner, with_seed
colonies = 0
for path in sys.argv[2:]:
    scenario = with_seed(parse_scenario(path), 0)
    for kind in PlannerKind:
        run(with_planner(scenario, kind))
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
print("colonies", colonies)
"""


def test_kernel_runs_clean_under_sanitizers(tmp_path):
    runtimes = [subprocess.run(["gcc", f"-print-file-name={name}"], capture_output=True,
                               text=True).stdout.strip() if shutil.which("gcc") else ""
                for name in ("libasan.so", "libubsan.so")]
    if not all(os.path.isfile(path) for path in runtimes):
        pytest.skip("gcc's sanitizer runtimes are not installed")
    env = dict(os.environ, LD_PRELOAD=" ".join(runtimes), ASAN_OPTIONS="detect_leaks=0",
               PYTHONPATH=str(SRC))
    scenarios = sorted(str(path) for path in (REPO / "scenarios").glob("*.scn"))
    res = subprocess.run([sys.executable, "-c", SANITIZED_CHILD, str(tmp_path), *scenarios],
                         cwd=SRC, env=env, capture_output=True, text=True, timeout=600)
    assert res.returncode == 0, res.stderr[-4000:]
    label, colonies = res.stdout.split()
    assert label == "colonies" and int(colonies) > 0  # the per-layer calls reached the colony
    assert "Sanitizer" not in res.stderr and "runtime error" not in res.stderr, res.stderr[-4000:]


def test_build_flags_keep_the_bits():
    # a fused multiply-add, a reassociated sum or host-specific code would
    # change output bits: a faster build level must not bring any of them in
    assert {"-ffp-contract=off", "-fno-fast-math"} <= set(kernel.CFLAGS)
    for flag in ("-Ofast", "-ffast-math", "-funsafe-math-optimizations", "-fassociative-math",
                 "-march=native"):
        assert flag not in kernel.CFLAGS
