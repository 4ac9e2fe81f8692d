"""Spans around the public functions of each layer, recorded from outside.

The program has no tracing of its own, so the traced run wraps the layer
entry points at every name a caller resolves them by: the defining module's
attribute, every ``repro.*`` module that imported the same object under its
own name (``repro.db.frontdoor.execute`` is ``repro.core.solve.execute``),
and class attributes for methods.  Local ``from x import y`` statements inside
function bodies resolve the module attribute at call time, so they are
covered by the first case, and so is the soft-width recursion through
``repro.core.solve.execute``.

Each span records its name, start, end, parent span and the request id the
benchmark loop set before the request, plus an optional ``info`` value taken
from the call's result after the span has closed.  Only calls made while a
request id is set are recorded, so the benchmark's own answer checks, which
call some of the same functions between requests, leave no spans.  Spans
stay in memory; the run writes them out as JSON lines when it ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "info")

    def __init__(self, name: str, start: float, parent: int, request: int):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.info: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _cache_hit(args, kwargs, result):
    return result is not None


def _solve_info(args, kwargs, result):
    return (result.request.mode, bool(result.decided), result.cache_status)


def _yannakakis_info(args, kwargs, result):
    return (result.work, result.max_intermediate)


def _length(args, kwargs, result):
    return len(result)


#: ``(module, attribute path, span name, info extractor)`` of every layer
#: entry point the traced run wraps.  A dotted attribute path names a method.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.db.frontdoor", "run_query", "frontdoor.run_query", None),
    ("repro.db.frontdoor", "plan_query", "frontdoor.plan_query", None),
    ("repro.db.sqlish", "parse_select_query", "sqlish.parse", None),
    ("repro.db.query", "ConjunctiveQuery.hypergraph", "query.hypergraph", None),
    ("repro.hypergraph.canonical", "canonical_form", "canonical", None),
    ("repro.db.yannakakis", "YannakakisExecutor.plan", "yannakakis.plan", None),
    (
        "repro.db.yannakakis",
        "YannakakisExecutor.execute",
        "yannakakis.execute",
        _yannakakis_info,
    ),
    ("repro.core.cache", "DecompositionCache.get", "cache.get", _cache_hit),
    ("repro.core.cache", "DecompositionCache.put", "cache.put", None),
    ("repro.core.cache", "DecompositionCache.reject", "cache.reject", None),
    ("repro.core.certify", "certify_ctd", "certify", None),
    ("repro.core.solve", "execute", "solve.execute", _solve_info),
    (
        "repro.core.candidate_bags",
        "SoftBagGenerator.candidate_bags",
        "candidate_bags",
        _length,
    ),
    ("repro.core.ctd", "candidate_td", "ctd", None),
    ("repro.core.constrained", "constrained_candidate_td", "constrained", None),
    ("repro.core.enumerate", "enumerate_ctds", "enumerate", None),
    ("repro.runtime.scheduler", "BatchSolvePlan.from_tasks", "scheduler.plan", None),
    ("repro.runtime.scheduler", "run_plan", "scheduler.run_plan", None),
    ("repro.runtime.parallel", "ShardPool.map", "parallel.pool_wait", None),
)


class Tracer:
    """Records spans from wrapped callables; install/uninstall is reversible."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: The current request id; ``None`` between requests (no spans).
        self.request: Optional[int] = None
        self._stack: List[int] = []
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, func: Callable, info: Optional[Callable]) -> Callable:
        spans = self.spans
        stack = self._stack
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if tracer.request is None:
                return func(*args, **kwargs)
            span = Span(
                name,
                time.perf_counter(),
                stack[-1] if stack else -1,
                tracer.request,
            )
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        return traced

    def _set(self, owner: object, attribute: str, value: object) -> None:
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self) -> None:
        for module_name, path, span_name, info in TARGETS:
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, method = path.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(span_name, raw.__func__, info))
                else:
                    wrapped = self._wrap(span_name, raw, info)
                self._restore.append((owner, method, raw))
                setattr(owner, method, wrapped)
                continue
            original = getattr(module, path)
            wrapped = self._wrap(span_name, original, info)
            for loaded_name, loaded in list(sys.modules.items()):
                if not loaded_name.startswith("repro") or loaded is None:
                    continue
                for attribute, value in list(vars(loaded).items()):
                    if value is original:
                        self._set(loaded, attribute, wrapped)

    def uninstall(self) -> None:
        for owner, attribute, value in reversed(self._restore):
            setattr(owner, attribute, value)
        self._restore.clear()

    def write(self, path: str, labels: Dict[int, str]) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            for index, span in enumerate(self.spans):
                stream.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": span.parent,
                            "request": span.request,
                            "label": labels.get(span.request),
                        }
                    )
                    + "\n"
                )


class SpanIndex:
    """Counts, outermost time and self time over a finished span list."""

    def __init__(self, spans: List[Span]):
        self.spans = spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        self.self_time = [span.duration - child_time[i] for i, span in enumerate(spans)]

    def named(self, name: str) -> List[int]:
        return [i for i, span in enumerate(self.spans) if span.name == name]

    def outermost(self, name: str) -> List[int]:
        """Spans of ``name`` with no ancestor of the same name."""
        found = []
        for index in self.named(name):
            parent = self.spans[index].parent
            while parent >= 0 and self.spans[parent].name != name:
                parent = self.spans[parent].parent
            if parent < 0:
                found.append(index)
        return found

    def total_ms(self, name: str) -> float:
        return 1e3 * sum(self.spans[i].duration for i in self.outermost(name))

    def self_ms(self, name: str) -> float:
        return 1e3 * sum(self.self_time[i] for i in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))
