"""Span tracing for the benchmark's traced run.

The library is not edited. Instead, the public functions of each library
module are replaced by timing wrappers for the duration of a traced pass,
under every name through which a caller can reach them: the defining
module's globals and every module that imported the function by name
(``unitals.reconstruct`` binds ``enumerate_maximal_cliques`` itself,
``unitals.linspace`` binds ``projective_plane`` and ``validate``, and so
on). Calls made through a module attribute (``inc.read_json`` in the CLI)
resolve to the same patched globals.

Each wrapped call records one span ``[id, name, start, end, parent, item,
count]`` in memory; ``count`` holds the size of the result for the
functions in RESULT_COUNTS. Spans are aggregated per pass and written out
by the runner when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "unitals"

# every public function of these modules is a layer boundary
LIBRARY_MODULES = ("algebra", "incidence", "confluence", "cliques", "linspace", "reconstruct")

# cli's command handlers are reached through its dispatch table, not
# through module globals, so its boundary is the entry point alone and
# cli.main.self_s covers argument parsing, formatting and file writes
CLI_ENTRY = ("cli", "main")

# result sizes worth counting, by span name
RESULT_COUNTS = {
    "cliques.enumerate_maximal_cliques": "cliques",
    "incidence.find_onan": "hits",
}

ID, NAME, START, END, PARENT, ITEM, COUNT = range(7)


class Tracer:
    """Collects spans for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.item: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counted = name in RESULT_COUNTS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            spans.append(span)
            stack.append(span[ID])
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if counted:
                span[COUNT] = len(result)
            return result

        return wrapper


def _layer_functions(package) -> dict[str, object]:
    """Span name -> original function, for every traced boundary."""
    found = {}
    for short in LIBRARY_MODULES:
        module = getattr(package, short)
        for attr, value in vars(module).items():
            if (inspect.isfunction(value) and value.__module__ == module.__name__
                    and not attr.startswith("_")):
                found[f"{short}.{attr}"] = value
    module, attr = CLI_ENTRY
    found[f"{module}.{attr}"] = getattr(getattr(package, module), attr)
    return found


@contextmanager
def traced(tracer: Tracer):
    """Patch every traced boundary of the imported package; restore on exit."""
    package = sys.modules[PACKAGE]
    wrappers = {fn: tracer.wrap(name, fn) for name, fn in _layer_functions(package).items()}
    modules = [m for key, m in list(sys.modules.items())
               if key == PACKAGE or key.startswith(PACKAGE + ".")]
    patched = []
    try:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        yield tracer
    finally:
        for module, attr, value in patched:
            setattr(module, attr, value)


def summarize(spans: list[list]) -> dict[str, float]:
    """Per-function totals over one pass.

    ``<name>.s`` is inclusive time, counting only the outermost span of a
    name when it recurses into itself; ``<name>.self_s`` subtracts the time
    covered by direct child spans (children of one span never overlap,
    since the run is single-threaded); ``<name>.calls`` counts spans.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_time[span[PARENT]] += span[END] - span[START]
    stats: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        stats[key] = stats.get(key, 0.0) + value

    for span in spans:
        name = span[NAME]
        duration = span[END] - span[START]
        add(name + ".calls", 1)
        add(name + ".self_s", duration - child_time[span[ID]])
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        if parent < 0:
            add(name + ".s", duration)
        if span[COUNT] is not None:
            add(f"{name}.{RESULT_COUNTS[name]}", span[COUNT])
    return stats
