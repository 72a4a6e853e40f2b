"""Outside-in span tracer: wraps public functions at repro's module boundaries.

The benchmark records spans from its own files, around the calls into each
layer, without touching the program.  :meth:`Tracer.wrap` replaces a function
or method with a timing wrapper everywhere it is reachable as a module
attribute (``from ..fur.registry import simulator as construct_simulator``
makes a second name for the same function in ``repro.serve.service``; both
are wrapped), and
:meth:`Tracer.uninstall` puts the originals back.

A span's parent is the innermost open span of the same thread or asyncio
task (a :mod:`contextvars` stack; executor threads start with an empty
stack, so work handed to a pool opens top-level spans there).  Self time is
a span's duration minus the durations of its direct children.  Spans of a
``fold`` group nested directly in a span of the same group are not recorded
separately: ``furx_block`` calls ``furx_phase_block`` internally, and that
work belongs to the caller's kernel call.

Only aggregates are kept: per span name the call count, inclusive and self
seconds and any counters the wrap adds, plus the intervals of top-level
spans, whose union over all threads is the share of the traced wall clock
the layers account for.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field

_STACK: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "perfbench_span_stack", default=())


@dataclass
class _Span:
    name: str
    fold: str | None
    child_s: float = 0.0


@dataclass
class SpanStats:
    """Aggregate of every recorded span of one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counters: dict[str, float] = field(default_factory=dict)


class Tracer:
    """Span aggregates for one traced run (records only while ``recording``)."""

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.recording = False
        self._top: list[tuple[float, float]] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------------
    def wrap(self, owner: object, attr: str, name: str, *,
             fold: str | None = None, pre=None, counters=None) -> None:
        """Trace ``owner.<attr>`` (a module function or a class method).

        ``pre(args, kwargs)`` runs before the call and its result is handed
        to ``counters(args, kwargs, result, pre_state)``, which returns a
        dict of additive counters for the span's aggregate.
        """
        original = inspect.getattr_static(owner, attr)
        if isinstance(original, (staticmethod, classmethod)):
            raise TypeError(f"{name}: static/class methods are not traced")
        wrapped = self._make_wrapper(original, name, fold, pre, counters)
        targets = [(owner, attr)]
        if inspect.ismodule(owner):
            # Every name under which a repro module imported the function.
            targets = [(mod, key)
                       for mod_name, mod in list(sys.modules.items())
                       if mod is not None and (mod_name == "repro"
                                               or mod_name.startswith("repro."))
                       for key, value in list(vars(mod).items())
                       if value is original]
        for target, key in targets:
            self._patches.append((target, key, original))
            setattr(target, key, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _make_wrapper(self, fn, name, fold, pre, counters):
        tracer = self

        def enter():
            stack = _STACK.get()
            parent = stack[-1] if stack else None
            if fold is not None and parent is not None and parent.fold == fold:
                return None
            span = _Span(name, fold)
            return span, parent, _STACK.set(stack + (span,))

        def leave(opened, start, args, kwargs, result, state):
            end = time.perf_counter()
            span, parent, token = opened
            _STACK.reset(token)
            duration = end - start
            if parent is not None:
                parent.child_s += duration
            extra = (counters(args, kwargs, result, state)
                     if counters is not None else None)
            tracer._record(name, duration, duration - span.child_s,
                           (start, end) if parent is None else None, extra)

        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                if not tracer.recording:
                    return await fn(*args, **kwargs)
                opened = enter()
                if opened is None:
                    return await fn(*args, **kwargs)
                state = pre(args, kwargs) if pre is not None else None
                result = None
                start = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                    return result
                finally:
                    leave(opened, start, args, kwargs, result, state)
            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            opened = enter()
            if opened is None:
                return fn(*args, **kwargs)
            state = pre(args, kwargs) if pre is not None else None
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                leave(opened, start, args, kwargs, result, state)
        return wrapper

    # -- aggregation -----------------------------------------------------------
    def _record(self, name, duration, self_s, interval, extra) -> None:
        with self._lock:
            entry = self.stats.get(name)
            if entry is None:
                entry = self.stats[name] = SpanStats()
            entry.calls += 1
            entry.total_s += duration
            entry.self_s += self_s
            if extra:
                for key, value in extra.items():
                    entry.counters[key] = entry.counters.get(key, 0.0) + value
            if interval is not None:
                self._top.append(interval)

    def get(self, name: str) -> SpanStats:
        """Aggregate for ``name`` (all zero when no such span was recorded)."""
        return self.stats.get(name, SpanStats())

    def covered_s(self, start: float, end: float) -> float:
        """Seconds of ``[start, end]`` during which any top-level span was open."""
        with self._lock:
            intervals = sorted(self._top)
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in intervals:
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        return covered
