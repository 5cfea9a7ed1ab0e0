"""Outside-in span tracer used by the benchmark's traced run.

The tracer wraps functions from the outside: it replaces every binding of a
function in the namespaces of a package's loaded modules, so a call reaches
the wrapper whichever module looked the name up (``from .x import f`` leaves
one copy per importing module).  Spans record name, start, end, parent span
and instance id; they stay in memory until the run writes them out.  Hot
per-term helpers get count-only wrappers instead of spans.  ``uninstall``
puts every original object back.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterable


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    instance: int | None
    ok: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its direct children cover.

    Spans come from one thread, so children nest inside their parent and
    never overlap each other; their durations simply add up.
    """
    spans = list(spans)
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
    return {span.id: span.duration - covered[span.id] for span in spans}


class Tracer:
    """Span and counter store plus the patching of a package's namespaces."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.instance: int | None = None
        self.bindings: list[tuple[object, str, object]] = []
        self._stack: list[tuple[int, str]] = []
        self._next_id = 0

    def span(self, name: str | Callable, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call records a span.

        ``name`` may be a function of ``(args, kwargs)`` when the span name
        depends on the call, e.g. the solver a method argument selects.
        """

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append((sid, label))
            ok = False
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append(Span(sid, label, start, end, parent, self.instance, ok))

        return traced

    def counter(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call only bumps ``name`` and ``name@<open span>``."""
        counts = self.counts
        stack = self._stack

        def counted(*args, **kwargs):
            counts[name] += 1
            if stack:
                counts[name + "@" + stack[-1][1]] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, package: str, targets: Iterable[tuple[str, str, Callable]]) -> None:
        """Patch ``targets``, a list of ``(module, attribute, make_wrapper)``.

        The original object is looked up in ``module``; every binding of that
        same object in the loaded modules of ``package`` is replaced by
        ``make_wrapper(original)``.
        """
        modules = [
            module
            for mod_name, module in list(sys.modules.items())
            if module is not None and (mod_name == package or mod_name.startswith(package + "."))
        ]
        for module_name, attr, make_wrapper in targets:
            original = getattr(sys.modules[module_name], attr)
            wrapper = make_wrapper(original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self.bindings.append((module, key, original))

    def uninstall(self) -> bool:
        """Restore every patched binding; True when all are the originals again."""
        for module, key, original in reversed(self.bindings):
            setattr(module, key, original)
        return all(getattr(module, key) is original for module, key, original in self.bindings)
