"""Spans and memory peaks around the library's public functions, patched in from outside.

Every module-level binding of a wrapped function is replaced, not only the one
in the defining module: `cli` and `search` import names with
`from .counting import ...`, and calls through those bindings must open spans
too. Spans stay in memory; the caller writes them out when the run ends.
"""
from __future__ import annotations

import functools
import inspect
import sys
import tracemalloc
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

PACKAGE = "sidonrainbow"
LAYERS = ("core", "repfn", "enumeration", "counting", "bounds", "search", "cli")

# The inner loop of the naive counter and of the search quad lists: a span
# per yielded quad would cost more than the work it measures and would move
# the naive counter's own time into a child span.
UNTRACED = frozenset({"counting.iter_quad_tuples"})


def public_functions() -> dict[str, Callable]:
    """{'layer.name': function} for every public function a layer module defines."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for name, obj in vars(mod).items():
            key = f"{layer}.{name}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
                and not name.startswith("_")
                and key not in UNTRACED
            ):
                out[key] = obj
    return out


class Patch:
    """Context manager that swaps every binding of each original for its wrapper."""

    def __init__(self, wrappers: dict[Callable, Callable]):
        # each wrapper refers to its original, so no original's id can be reused
        self._by_id = {id(fn): w for fn, w in wrappers.items()}
        self._undo: list[tuple[object, str, Callable]] = []

    def __enter__(self):
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for name, obj in list(vars(mod).items()):
                wrapper = self._by_id.get(id(obj))
                if wrapper:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc):
        for mod, name, obj in reversed(self._undo):
            setattr(mod, name, obj)
        self._undo.clear()


@dataclass(slots=True)
class Span:
    name: str
    job: int
    index: int  # position in Tracer.spans
    parent: int | None  # index of the enclosing span
    start: float
    end: float = 0.0
    busy: float = 0.0  # time inside the function; summed over next() calls for generators
    child: float = 0.0  # part of busy spent in wrapped callees, their wrappers included
    work: int = 0  # input-size denominator or result count, see Tracer

    @property
    def self_s(self) -> float:
        return self.busy - self.child


class Tracer:
    """Records one span per call of each wrapped function.

    work maps a name to a function of (bound arguments, result) giving the
    span's work count, e.g. quads scanned or moves made. A callee's wrapper
    time is charged to no span, so self times stay close to untraced ones.
    """

    def __init__(self, work: dict[str, Callable[[dict, object], int]]):
        self.work = work
        self.spans: list[Span] = []
        self.job = 0
        self._stack: list[Span] = []

    def patched(self, functions: dict[str, Callable]) -> Patch:
        return Patch({fn: self._wrap(name, fn) for name, fn in functions.items()})

    def _open(self, name: str, now: float) -> Span:
        stack, spans = self._stack, self.spans
        span = Span(name, self.job, len(spans), stack[-1].index if stack else None, now)
        spans.append(span)
        return span

    def _wrap(self, name: str, fn: Callable) -> Callable:
        work = self.work.get(name)
        sig = inspect.signature(fn) if work else None
        stack = self._stack

        def leave(span: Span, t_in: float, t0: float) -> None:
            now = perf_counter()
            stack.pop()
            span.busy += now - t0
            span.end = now
            if stack:
                stack[-1].child += now - t_in

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                span = self._open(name, perf_counter())
                inner = fn(*args, **kwargs)
                while True:
                    t_in = perf_counter()
                    stack.append(span)
                    t0 = perf_counter()
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        leave(span, t_in, t0)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = perf_counter()
            span = self._open(name, t_in)
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(span, t_in, t0)
            if work:
                span.work = work(sig.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def totals(self) -> dict[str, dict[str, float]]:
        """Per function name: calls, summed self time and summed work."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            t = out.setdefault(span.name, {"calls": 0, "self_s": 0.0, "work": 0})
            t["calls"] += 1
            t["self_s"] += span.self_s
            t["work"] += span.work
        return out


class PeakMeter:
    """Peak traced memory of a pass and of each call of the wrapped functions.

    tracemalloc keeps one peak, so each wrapped call resets it on entry; the
    peaks seen so far are folded into the pass peak and into every enclosing
    wrapped call first, so nothing is lost. Requires tracemalloc to be running.
    """

    def __init__(self):
        self.peaks: dict[str, int] = {}  # bytes above the memory in use at entry
        self._pass_peak = 0
        self._frames: list[list[int]] = []  # [traced bytes at entry, peak seen]

    def _fold(self, peak: int) -> None:
        self._pass_peak = max(self._pass_peak, peak)
        for frame in self._frames:
            frame[1] = max(frame[1], peak)

    def patched(self, functions: dict[str, Callable]) -> Patch:
        return Patch({fn: self._wrap(name, fn) for name, fn in functions.items()})

    def _wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def metered(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            self._fold(peak)
            tracemalloc.reset_peak()
            self._frames.append([current, current])
            try:
                return fn(*args, **kwargs)
            finally:
                _, peak = tracemalloc.get_traced_memory()
                entry, seen = self._frames.pop()
                self._fold(peak)
                self.peaks[name] = max(self.peaks.get(name, 0), max(seen, peak) - entry)

        return metered

    def pass_peak(self) -> int:
        """Highest traced memory of the pass so far, in bytes."""
        return max(self._pass_peak, tracemalloc.get_traced_memory()[1])
