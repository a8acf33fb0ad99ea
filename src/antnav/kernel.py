"""Build and load the compiled kernel: colony.c, perception.c and planner.c in one module.

The kernel is a cffi API-mode extension module. It is built on first use,
not at import, by a child interpreter (so the planning process never imports
cffi or setuptools), with -O3 -ffp-contract=off and no fast-math: the level
buys speed, the two flags keep every bit of the arithmetic. The three
sources are compiled as one translation unit, in SOURCES order: planner.c
calls the functions of the other two. The built module lands in a
cache directory under a name keyed by a hash of every source, the
declarations and the flags, so an edited source is rebuilt and never loaded
stale. After a build, the modules of other sources are deleted from the
cache; directories are left alone, as they may be another process's build
in flight. Concurrent builds are safe: each builds in its own temporary
directory and moves the result into place with os.replace.

There is no fallback: without a working C compiler (and cffi) the build
fails with ImportError.
"""
from __future__ import annotations

import functools
import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

SOURCES = tuple(Path(__file__).with_name(name)
                for name in ("colony.c", "perception.c", "planner.c"))
CACHE_DIR = Path(__file__).with_name("_kernel_cache")
SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")
# Name prefixes of built modules: this kernel's, and the colony-only module
# of older sources.
_PREFIXES = ("_kernel_", "_colony_")

# The largest count a kernel `int` takes: ray, ant and iteration counts and
# the cells of a local grid, which AcoParams and grid.py's argument checks test.
INT_MAX = 2**31 - 1

CDEF = """
enum { COLONY_OK, COLONY_NO_PATH_STREAK, COLONY_NO_PATH, COLONY_BAD_TOTAL, COLONY_NO_MEMORY,
       ... };
enum { PLAN_STUCK, APF_LOCAL_MINIMUM, APF_NO_MEMORY, ... };
int colony_run(const _Bool *mask, int rows, int cols, double *tau, double tau0,
               double cell_size, double eta_straight, double eta_diagonal, const double *corner,
               const uint32_t *key, int n_key, int n_iters, int n_ants, int max_steps,
               int start, int goal, int improved, double phi, double rho, double q,
               double delta, double zeta, int elite_cutoff,
               int32_t *best_cells, int8_t *best_dirs, int *best_steps, int *best_corners,
               double *best_length, double *series);
void reachable(const _Bool *mask, int rows, int cols, int start, int32_t *queue, _Bool *reach);
void ray_directions(double psi, int n_rays, double *dirs);
void perceive(const _Bool *occ, int rows, int cols, double world_cell_size, double x0,
              double y0, double psi, const double *rays, double radius, int n_rays,
              double cell_size, int half_extent, int rings, double *range, int8_t *cells);
double py_hypot(double x, double y);
int marginal_cells(const int8_t *cells, int side, int32_t *ids);
void rank_candidates(int k, const double *xy, double x0, double y0, double psi, double gx,
                     double gy, double alpha, double beta, double omega, double *raw,
                     double *norm, double *cost, int32_t *order);
int plan_cycle(const _Bool *occ, int rows, int cols, double world_cell_size, double x0,
               double y0, double psi, const double *rays, double goal_x, double goal_y,
               const uint32_t *key, int n_key, const double *corner, double radius,
               int n_rays, double cell_size, int half_extent, int rings, double alpha,
               double beta, double omega, double eta_straight, double eta_diagonal,
               int n_iters, int n_ants, int max_steps, int improved, double phi, double rho,
               double q, double delta, double zeta, double tau0, int elite_cutoff,
               int32_t *path, int *n_steps, int *subgoal, double *series);
int apf_step(const int8_t *cells, int half_extent, double cell_size, double x0, double y0,
             double goal_x, double goal_y, double k_att, double k_rep, double d0);
int apf_cycle(const _Bool *occ, int rows, int cols, double world_cell_size, double x0,
              double y0, double psi, const double *rays, double goal_x, double goal_y,
              double radius, int n_rays, double cell_size, int half_extent, int rings,
              double k_att, double k_rep, double d0);
"""
CFLAGS = ("-O3", "-ffp-contract=off", "-fno-fast-math")

# Run by the child interpreter: argv holds the module name, the build
# directory and the flags, stdin the C source.
_BUILD_SCRIPT = """
import sys
import cffi
name, build_dir, cdef, *flags = sys.argv[1:]
ffi = cffi.FFI()
ffi.cdef(cdef)
ffi.set_source(name, sys.stdin.read(), extra_compile_args=flags)
ffi.compile(tmpdir=build_dir)
"""


def _unit(texts) -> str:
    """The translation unit compiled from the source texts, in SOURCES order."""
    return "".join(f'#line 1 "{path.name}"\n{text}' for path, text in zip(SOURCES, texts))


def module_name(texts) -> str:
    """Cache name of the module built from the source texts (in SOURCES order)."""
    digest = hashlib.sha256("\0".join((_unit(texts), CDEF, *CFLAGS)).encode()).hexdigest()
    return f"_kernel_{digest[:16]}"


def load(cache_dir):
    """The compiled kernel module (its .ffi and .lib), built into cache_dir when missing."""
    texts = [path.read_text(encoding="utf-8") for path in SOURCES]
    name = module_name(texts)
    path = Path(cache_dir) / (name + SUFFIX)
    if not path.exists():
        _build(name, _unit(texts), path)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@functools.cache
def module():
    """The kernel module of CACHE_DIR, loaded (and built if needed) on the first call."""
    return load(CACHE_DIR)


_CTYPES = {np.dtype(np.int32): "int32_t[]", np.dtype(np.int8): "int8_t[]",
           np.dtype(np.float64): "double[]", np.dtype(np.uint32): "uint32_t[]",
           np.dtype(np.bool_): "_Bool[]"}


def pointer(arr: np.ndarray, dtype, shape: tuple[int, ...], writable: bool = False):
    """A kernel pointer to arr after checking its dtype, shape and contiguity; no copy."""
    if arr.dtype != dtype or arr.shape != shape or not arr.flags.c_contiguous \
            or (writable and not arr.flags.writeable):
        raise ValueError(f"kernel argument must be a C-contiguous {np.dtype(dtype)} array of "
                         f"shape {shape}, got {arr.dtype} {arr.shape}")
    return module().ffi.from_buffer(_CTYPES[arr.dtype], arr, require_writable=writable)


def _build(name: str, source: str, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    build_dir = tempfile.mkdtemp(prefix=name + "-", dir=target.parent)
    try:
        res = subprocess.run([sys.executable, "-c", _BUILD_SCRIPT, name, build_dir, CDEF,
                              *CFLAGS],
                             input=source, capture_output=True, text=True)
        built = list(Path(build_dir).glob(name + "*" + SUFFIX))
        if res.returncode != 0 or len(built) != 1:
            detail = (res.stderr or res.stdout).strip().splitlines()[-20:]
            raise ImportError(
                f"antnav needs a C compiler and cffi to build its kernel from "
                f"{', '.join(map(str, SOURCES))}; the build failed:\n" + "\n".join(detail))
        os.replace(built[0], target)
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)
    for old in target.parent.iterdir():
        if old != target and old.name.startswith(_PREFIXES) and old.name.endswith(SUFFIX) \
                and old.is_file():
            old.unlink(missing_ok=True)
