"""Build and load the compiled colony kernel, colony.c.

The kernel is a cffi API-mode extension module. It is built on first use,
not at import, by a child interpreter (so the planning process never imports
cffi or setuptools), with -O2 -ffp-contract=off and no fast-math. The built
module lands in a cache directory under a name keyed by a hash of the C
source, its declarations and the flags, so an edited source is rebuilt and
never loaded stale. Concurrent builds are safe: each builds in its own
temporary directory and moves the result into place with os.replace.

There is no fallback: without a working C compiler (and cffi) the build
fails with ImportError.
"""
from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("colony.c")
CACHE_DIR = Path(__file__).with_name("_kernel_cache")

CDEF = """
int colony_run(const int32_t *nbr, int n, double *tau, const double *eta_g,
               const double *steps, const double *corner, const uint32_t *key, int n_key,
               int n_iters, int n_ants, int max_steps, int start, int goal, int improved,
               double phi, double rho, double q, double delta, double zeta, int elite_cutoff,
               int32_t *best_cells, int8_t *best_dirs, int *best_steps, int *best_corners,
               double *best_length, double *series);
"""
CFLAGS = ("-O2", "-ffp-contract=off", "-fno-fast-math")

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


def load(cache_dir):
    """The compiled kernel module (its .ffi and .lib), built into cache_dir when missing."""
    source = SOURCE.read_text(encoding="utf-8")
    key = hashlib.sha256("\0".join((source, CDEF, *CFLAGS)).encode()).hexdigest()[:16]
    name = f"_colony_{key}"
    path = Path(cache_dir) / (name + sysconfig.get_config_var("EXT_SUFFIX"))
    if not path.exists():
        _build(name, source, path)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _build(name: str, source: str, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    build_dir = tempfile.mkdtemp(prefix=name + "-", dir=target.parent)
    try:
        res = subprocess.run([sys.executable, "-c", _BUILD_SCRIPT, name, build_dir, CDEF,
                              *CFLAGS],
                             input=source, capture_output=True, text=True)
        built = list(Path(build_dir).glob(name + "*" + sysconfig.get_config_var("EXT_SUFFIX")))
        if res.returncode != 0 or len(built) != 1:
            detail = (res.stderr or res.stdout).strip().splitlines()[-20:]
            raise ImportError(
                f"antnav needs a C compiler and cffi to build its colony kernel from "
                f"{SOURCE}; the build failed:\n" + "\n".join(detail))
        os.replace(built[0], target)
    finally:
        shutil.rmtree(build_dir, ignore_errors=True)
