"""Span tracing from outside the program: wrap public functions, keep stacks per thread.

A span is one call of a wrapped function. Its self time is its wall duration
minus the part of that interval covered by its child spans. Each thread keeps
its own span stack; a task handed to a ``ThreadPoolExecutor`` starts with the
span that was open on the submitting thread as its parent, so work done on
worker threads is charged to the span that waited for it.

Nothing here edits the program: wrappers replace module attributes (and class
attributes for methods) for the duration of a ``with`` block and are restored
on exit.
"""
from __future__ import annotations

import contextlib
import importlib
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor


def _covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of the union of intervals, clipped to [start, end]."""
    total = 0.0
    cur_start = cur_end = start
    for a, b in sorted(intervals):
        a, b = max(a, start), min(b, end)
        if b <= a:
            continue
        if a > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = a, b
        elif b > cur_end:
            cur_end = b
    return total + (cur_end - cur_start)


class _Frame:
    __slots__ = ("start", "children")

    def __init__(self, start: float):
        self.start = start
        self.children: list[tuple[float, float]] = []


def _resolve(target: str):
    """'antnav.world:WorldMap.advanced' -> (owner object, attribute name, original)."""
    module_name, _, rest = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = rest.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, getattr(owner, attr)


class Patcher:
    """Replace functions everywhere the program's modules refer to them; undo on close."""

    def __init__(self, package: str):
        self._package = package
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, target: str, make_wrapper) -> None:
        """target is 'module:attr' or 'module:Class.method'; make_wrapper(original) -> wrapper."""
        owner, attr, original = _resolve(target)
        wrapper = make_wrapper(original)
        owners = [owner]
        if isinstance(owner, type(sys)):
            # names imported with `from .x import f` are separate bindings
            owners += [m for name, m in list(sys.modules.items())
                       if m is not None and m is not owner
                       and (name == self._package or name.startswith(self._package + "."))
                       and getattr(m, attr, None) is original]
        for obj in owners:
            self._undo.append((obj, attr, original))
            setattr(obj, attr, wrapper)

    def close(self) -> None:
        while self._undo:
            obj, attr, original = self._undo.pop()
            setattr(obj, attr, original)


class Tracer:
    """Per-span call counts and self times, plus counters fed by span hooks."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}

    def add(self, key: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[key] = self.counts.get(key, 0) + amount

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> _Frame | None:
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "base", None)

    def span(self, name: str, on_return=None, on_raise=None):
        """Wrapper factory for Patcher.wrap.

        on_return(args, kwargs, result) and on_raise(exc) run outside the timed
        interval, so counting does not inflate the span's self time.
        """
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)

        def make(fn):
            def wrapper(*args, **kwargs):
                parent = self.current()
                stack = self._stack()
                frame = _Frame(time.perf_counter())
                stack.append(frame)
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    self._finish(name, frame, parent, stack)
                    if on_raise is not None:
                        on_raise(exc)
                    raise
                self._finish(name, frame, parent, stack)
                if on_return is not None:
                    on_return(args, kwargs, result)
                return result
            wrapper.__wrapped__ = fn
            return wrapper
        return make

    def _finish(self, name: str, frame: _Frame, parent: _Frame | None,
                stack: list[_Frame]) -> None:
        end = time.perf_counter()
        stack.pop()
        own = (end - frame.start) - _covered(frame.children, frame.start, end)
        with self._lock:
            self.calls[name] += 1
            self.self_s[name] += own
            if parent is not None:
                parent.children.append((frame.start, end))

    @contextlib.contextmanager
    def propagate_to_threads(self):
        """Give tasks submitted to any ThreadPoolExecutor the submitter's open span as parent."""
        original = ThreadPoolExecutor.submit
        tracer = self

        def submit(pool, fn, /, *args, **kwargs):
            parent = tracer.current()

            def task(*a, **k):
                tracer._local.base = parent
                try:
                    return fn(*a, **k)
                finally:
                    tracer._local.base = None
            return original(pool, task, *args, **kwargs)

        ThreadPoolExecutor.submit = submit
        try:
            yield
        finally:
            ThreadPoolExecutor.submit = original
