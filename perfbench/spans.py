"""In-memory timing spans around calls into the program's public functions.

A ``Tracer`` replaces named functions with wrappers that record one span per
call: id, parent span id, name, start, end, run id and optional counters
derived from the call's arguments and result. Spans stay in memory until the
run ends; the caller writes them out with the rest of the result.

Names are looked up at run time, so a function that a refactor removed or
renamed is reported as absent instead of failing the run. A name is replaced
in every module namespace that holds the same function object, because
modules call each other's functions through their own globals.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import sys
import threading
import time


class Tracer:
    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block (used for the root of a run)."""
        record = self._open(name)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name: str) -> list:
        stack = self._stack()
        record = [next(self._ids), stack[-1] if stack else None, name, self.clock(), None, {}]
        self.spans.append(record)
        stack.append(record[0])
        return record

    def _close(self, record: list) -> None:
        record[4] = self.clock()
        self._stack().pop()

    def wrap(self, fn, name: str, counters=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(record)
            if counters is not None:
                # Counted after the span closed, so counting is not timed as
                # part of the callee.
                try:
                    record[5].update(counters(result, args, kwargs))
                except Exception as exc:  # a refactored result shape
                    record[5]["counter_error"] = f"{type(exc).__name__}: {exc}"
            return result

        return wrapper

    def install(self, targets, counters=None) -> list[str]:
        """Wrap each ``(module_name, qualname)``; return the names not found.

        ``qualname`` is a function name or ``Class.method``. The span name is
        ``<module short name>.<qualname>``, and ``counters`` maps span names to
        functions ``(result, args, kwargs) -> dict`` whose counts the span
        records. A function is replaced in every loaded module of the target
        module's top-level package that holds it.
        """
        counters = counters or {}
        absent = []
        for module_name, qualname in targets:
            span_name = f"{module_name.rsplit('.', 1)[-1]}.{qualname}"
            module = sys.modules.get(module_name)
            owner, attr = module, qualname
            if module is not None and "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                owner = getattr(module, cls_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None or not callable(original):
                absent.append(span_name)
                continue
            wrapper = self.wrap(original, span_name, counters.get(span_name))
            if owner is not module:
                setattr(owner, attr, wrapper)
                continue
            package = module_name.split(".", 1)[0]
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == package or name.startswith(package + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        return absent

    def export(self) -> list[dict]:
        return [
            {"id": i, "parent": p, "name": n, "start": s, "end": e,
             "run_id": self.run_id, "counters": c}
            for i, p, n, s, e, c in self.spans
        ]


def covered(interval: tuple[float, float], children) -> float:
    """Length of the part of ``interval`` that the child intervals cover."""
    lo, hi = interval
    total = 0.0
    cur_start = cur_end = None
    for s, e in sorted((max(s, lo), min(e, hi)) for s, e in children):
        if e <= s:
            continue
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if sp["parent"] is not None:
            children.setdefault(sp["parent"], []).append((sp["start"], sp["end"]))
    return {
        sp["id"]: (sp["end"] - sp["start"])
        - covered((sp["start"], sp["end"]), children.get(sp["id"], ()))
        for sp in spans
    }
