"""Build and load the compiled kernel: colony.c, perception.c and planner.c in one module.

The kernel is a cffi API-mode extension module. It is built on first use,
not at import, by a child interpreter (so the planning process never imports
cffi or setuptools), with -O3 -ffp-contract=off and no fast-math: the level
buys speed, the two flags keep every bit of the arithmetic. The three
sources are compiled as one translation unit, in SOURCES order: planner.c
calls the functions of the other two. cffi's declarations are read from that
unit at build time (see declarations), so an entry point is written once, in
C. The built module lands in a cache directory under a name keyed by a hash
of every source and the flags, so an edited source is rebuilt and never
loaded stale. After a build, the modules of other sources are deleted from
the cache; directories are left alone, as they may be another process's
build in flight. Concurrent builds are safe: each builds in its own
temporary directory and moves the result into place with os.replace.

There is no fallback: without a working C compiler (and cffi) the build
fails with ImportError.
"""
from __future__ import annotations

import functools
import hashlib
import importlib.machinery
import importlib.util
import os
import re
import shutil
import sys
import tempfile
from pathlib import Path

SOURCES = tuple(Path(__file__).with_name(name)
                for name in ("colony.c", "perception.c", "planner.c"))
CACHE_DIR = Path(__file__).with_name("_kernel_cache")
# sysconfig.get_config_var("EXT_SUFFIX"), without sysconfig's import at start-up
SUFFIX = importlib.machinery.EXTENSION_SUFFIXES[0]

# The largest count a kernel `int` takes: ant and iteration counts and the
# cells of a local grid, which AcoParams and grid.py's argument checks test
# (grid.MAX_RAYS caps the ray count far below it).
INT_MAX = 2**31 - 1

CFLAGS = ("-O3", "-ffp-contract=off", "-fno-fast-math")

# Run by the child interpreter: argv holds the module name, the build
# directory, the declarations and the flags, stdin the C source.
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


def declarations(unit: str) -> str:
    """cffi's declarations of a translation unit, comments and # lines aside: each
    top-level enum, its values left to the compiler, and the prototype of each
    function defined at column 0 without `static`: the entry points."""
    code = re.sub(r"/\*.*?\*/|//[^\n]*|^#[^\n]*", "", unit, flags=re.S | re.M)
    enums = [", ".join(item.split("=")[0].strip() for item in body.split(",") if item.strip())
             for body in re.findall(r"^enum\s*\{(.*?)\}", code, flags=re.S | re.M)]
    functions = re.findall(r"^(?!static\b)\w[\w \t*]*\b\w+\([^)]*\)(?=\s*\{)", code,
                           flags=re.M)
    return "\n".join([f"enum {{ {names}, ... }};" for names in enums]
                     + [" ".join(f.split()) + ";" for f in functions])


def module_name(texts) -> str:
    """Cache name of the module built from the source texts (in SOURCES order)."""
    digest = hashlib.sha256("\0".join((_unit(texts), *CFLAGS)).encode()).hexdigest()
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


def _build(name: str, source: str, target: Path) -> None:
    import subprocess  # a build tool: a run that finds its kernel built never loads it
    target.parent.mkdir(parents=True, exist_ok=True)
    build_dir = tempfile.mkdtemp(prefix=name + "-", dir=target.parent)
    try:
        res = subprocess.run([sys.executable, "-c", _BUILD_SCRIPT, name, build_dir,
                              declarations(source), *CFLAGS],
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
        if old != target and old.name.startswith("_kernel_") and old.name.endswith(SUFFIX) \
                and old.is_file():
            old.unlink(missing_ok=True)
