"""In-memory call tracing of the pmdiag package, for the per-layer metrics.

A Tracer replaces every public function defined in ``pmdiag`` with a wrapper,
in every module namespace that holds it. The modules import by name
(``conformal.forward``, ``evaluation.forward``, ``cli.save_dataset``) and a
call inside a module looks up that module's globals, so wrapping only the
defining module would miss those calls. Each call records a Span; spans stay
in memory until the caller writes them out. ``uninstall`` puts every original
function back, so untraced calls run the program unchanged.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

PACKAGE = "pmdiag"


def _rows(x) -> int:
    return 1 if np.ndim(x) == 1 else len(x)


# Exact counts taken at a span boundary from the call's bound arguments and
# result, so ratios such as forward rows per test row are measured where the
# work happens. Keyed by span name; each returns {count name: amount}.
COUNT_HOOKS = {
    "core.load_dataset": lambda args, result: {"rows": len(result)},
    "core.atomic_write_text": lambda args, result: {"bytes": os.path.getsize(args["path"])},
    "model.forward": lambda args, result: {"rows": _rows(args["x"])},
    "model.train": lambda args, result: {"samples": len(args["features"]) * args["cfg"].epochs},
}


@dataclass(slots=True)
class Span:
    id: int
    parent: "int | None"
    run: int
    name: str
    start: float
    end: float = 0.0
    failed: bool = False


def span_name(fn) -> str:
    """``<module>.<function>``, with the module named without the package."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def public_functions(module):
    """(attribute name, function) for each public pmdiag function the module holds."""
    for name, obj in list(vars(module).items()):
        if (
            not name.startswith("_")
            and inspect.isfunction(obj)
            and obj.__module__.split(".")[0] == PACKAGE
        ):
            yield name, obj


class Tracer:
    """Wraps the public functions of `modules` while installed.

    ``run`` tags the spans recorded next, so one tracer can hold the spans of
    several CLI calls. Single-threaded: the open-span stack is shared.
    """

    def __init__(self, modules):
        self.modules = list(modules)
        self.spans: list[Span] = []
        self.counts: "defaultdict[tuple[int, str, str], float]" = defaultdict(float)
        self.run = 0
        self._stack: list[int] = []
        self._saved: list = []
        self._wrappers: dict = {}

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module in self.modules:
            for name, fn in public_functions(module):
                if fn not in self._wrappers:
                    self._wrappers[fn] = self._wrap(fn)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrappers[fn])

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _wrap(self, fn):
        name = span_name(fn)
        hook = COUNT_HOOKS.get(name)
        signature = inspect.signature(fn) if hook is not None else None
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, self.run, name, clock())
            spans.append(span)
            stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, amount in hook(bound.arguments, result).items():
                    self.counts[(span.run, name, key)] += amount
            return result

        return traced

    def write(self, path: str | Path) -> None:
        """Spans as JSONL: [id, parent, run, name, start, end, failed]."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(astuple(span)) + "\n")


def span_stats(spans) -> "dict[tuple[int, str], dict]":
    """Per (run, span name): calls, failed, busy_s and self_s.

    busy_s sums the spans of a name that are not nested inside a span of the
    same name, so recursion is not counted twice. self_s is each span's
    duration minus the time its child spans cover; children of one span never
    overlap, because calls are traced on one thread.
    """
    by_id = {s.id: s for s in spans}
    child_time: "defaultdict[int, float]" = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    stats: dict = {}
    for s in spans:
        st = stats.setdefault((s.run, s.name), {"calls": 0, "failed": 0, "busy_s": 0.0, "self_s": 0.0})
        duration = s.end - s.start
        st["calls"] += 1
        st["failed"] += int(s.failed)
        st["self_s"] += duration - child_time[s.id]
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            st["busy_s"] += duration
    return stats
