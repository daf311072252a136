"""Spans around calls into roughstep's public callables, from outside it.

``Tracer.install`` replaces each traced callable where its callers look it
up: every module global of ``roughstep.*`` bound to it (so ``defect`` is
wrapped in ``cli``, ``analysis`` and ``schemes`` alike) and, for methods,
the class attribute.  Each call records a span (name, layer, start, end,
parent, job) in memory; ``uninstall`` restores the originals.  The layer of
a span is the module that defines the callable; the benchmark opens one
``cli.main`` span per job, so the layers' self times add up to the jobs'
latencies.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

LAYERS = ("cli", "drivers", "core", "schemes", "analysis")

# Methods traced on their class, and module functions traced beyond the
# names imported into roughstep.cli and roughstep.analysis.
METHODS = (
    ("core", "AreaProcess", "__init__"),
    ("drivers", "ChainCurve", "sample"),
    ("drivers", "ChainCurve", "band_stats"),
    ("core", "Trajectory", "write_csv"),
)
EXTRA_FUNCTIONS = (("drivers", "process_envelope"),)


def _windows(stat) -> int:
    """Windows a condition21_stat call scanned, from its report."""
    total = 0
    for j in stat.levels:
        n, m = 2**j, min(2**j, stat.window_cap)
        total += m * (n + 1) - m * (m + 1) // 2  # sum of n - w + 1 over w = 1..m
    return total


# Work counts read from a traced call's result or, for a method, from its
# instance: span name -> function of (result, args).
COUNTERS = {
    "schemes.euler_solve": lambda r, a: r.times.size - 1,
    "schemes.corrected_solve": lambda r, a: r.times.size - 1,
    "schemes.defect": lambda r, a: int(r.pairs.shape[0]),
    "core.control_fit": lambda r, a: int(a[0].times.size),
    "core.AreaProcess.init": lambda r, a: a[0].n_intervals,
    "core.Trajectory.write_csv": lambda r, a: int(a[0].times.size),
    "drivers.ChainCurve.band_stats": lambda r, a: int(a[1]),
    "analysis.condition21_stat": lambda r, a: _windows(r),
    "analysis.chen_residuals": lambda r, a: int(r.size),
}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    job: int
    failed: bool = False
    count: int | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.job = -1

    # -- recording ---------------------------------------------------------

    def open(self, name: str, layer: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, layer, time.perf_counter(), 0.0, parent, self.job))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, failed: bool = False) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.failed = failed
        self._stack.pop()

    def _wrap(self, fn, name: str, layer: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(index, failed=True)
                raise
            self.close(index)
            if counter is not None:
                self.spans[index].count = counter(result, args)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {
            name.split(".", 1)[1]: mod
            for name, mod in sys.modules.items()
            if name.startswith("roughstep.")
        }
        targets = {}
        for importer in ("cli", "analysis"):
            mod = modules[importer]
            for obj in vars(mod).values():
                if (inspect.isfunction(obj) and obj.__module__.startswith("roughstep.")
                        and obj.__module__ != mod.__name__):
                    targets[id(obj)] = obj
        for layer, name in EXTRA_FUNCTIONS:
            obj = getattr(modules[layer], name)
            targets[id(obj)] = obj
        for obj in targets.values():
            layer = obj.__module__.split(".", 1)[1]
            wrapped = self._wrap(obj, f"{layer}.{obj.__name__}", layer)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is obj:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[meth]
            label = "init" if meth == "__init__" else meth
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, f"{layer}.{cls_name}.{label}", layer))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def totals(self) -> dict:
        """Per span name: inclusive seconds, self seconds, calls, failures, count."""
        out: dict[str, dict] = {}
        for span, own in zip(self.spans, self.self_times()):
            t = out.setdefault(span.name, {"layer": span.layer, "s": 0.0, "self_s": 0.0,
                                           "calls": 0, "failed": 0, "count": 0})
            t["s"] += span.end - span.start
            t["self_s"] += own
            t["calls"] += 1
            t["failed"] += span.failed
            t["count"] += span.count or 0
        return out

    def to_json(self) -> dict:
        return {
            "fields": ["name", "layer", "start", "end", "parent", "job", "failed", "count"],
            "spans": [[s.name, s.layer, s.start, s.end, s.parent, s.job, s.failed, s.count]
                      for s in self.spans],
        }
