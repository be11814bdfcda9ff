"""Per-layer tracing of gridnet from outside the program.

The traced run swaps the public names one gridnet module looks up in
another (``gridnet.search.bounded_diameter``, ``gridnet.families.Digraph``,
``gridnet.search.ProcessPoolExecutor``, ...) for timing wrappers, runs the
CLI in-process, and puts every name back afterwards.  Nothing inside a
function body is instrumented, so counts such as BFS calls per candidate
are out of reach here.

Coarse spans (CLI call, search, sandwich check, worker pool, worker slice)
are kept as (name, start, end, parent) records.  Hot leaf calls (compile,
Digraph construction, diameter, bounded_diameter) run tens of thousands of
times per CLI call, so they are only aggregated: calls, total time and self
time per layer name.  A layer's total counts only its outermost span, so a
compile_params -> compile_na chain is one compile call; self time is the
span's duration minus the time of the spans nested directly in it.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

COARSE = {"cli", "search", "constructions.sandwich", "dispatch.pool"}

# Worker processes of a traced pool are forked from the traced process and
# inherit its wrappers; they find the tracer to reset and report through
# this reference, which install() sets and undo() clears.
_ACTIVE = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (name, start, end, parent index or None)
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start, child_s, span index]

    def enter(self, name: str) -> list:
        index = None
        if name in COARSE:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self._coarse_parent()))
        frame = [name, time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        end = time.perf_counter()
        name, start, child_s, index = frame
        self._stack.pop()
        duration = end - start
        self.self_time[name] += duration - child_s
        if not self.inside(name):
            self.calls[name] += 1
            self.total[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        if index is not None:
            self.spans[index] = (name, start, end, self.spans[index][3])
        return duration

    def inside(self, name: str) -> bool:
        return any(f[0] == name for f in self._stack)

    def _coarse_parent(self):
        for f in reversed(self._stack):
            if f[3] is not None:
                return f[3]
        return None

    def add_span(self, name: str, start: float, end: float) -> None:
        self.spans.append((name, start, end, self._coarse_parent()))

    def merge(self, worker: dict) -> None:
        """Fold a worker process's aggregates into this tracer."""
        for key in ("calls", "total", "self_time", "counts"):
            getattr(self, key).update(worker[key])

    def export(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self_time": dict(self.self_time),
            "counts": dict(self.counts),
        }


def _wrap(tracer: Tracer, name: str, fn, on_result=None):
    def traced(*args, **kwargs):
        outermost = not tracer.inside(name)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if on_result is not None and outermost:
            on_result(tracer, args, result)
        return result

    traced.__wrapped__ = fn
    return traced


def _count_search(tracer: Tracer, args, result) -> None:
    tracer.counts["search.candidates"] += result.candidates_examined
    tracer.counts["search.witness_total"] += result.witness_total


def _count_pruned(tracer: Tracer, args, result) -> None:
    if result is None:
        tracer.counts["graphs.bounded_diameter.pruned"] += 1


def _count_visits(tracer: Tracer, args, result) -> None:
    # Computed, not counted: all-source BFS on a strongly connected digraph
    # visits every vertex from every source and scans every arc each time.
    # A call on a digraph that is not strongly connected stops early at an
    # unknown point and adds nothing.
    if result is None:
        return
    g = args[0]
    tracer.counts["graphs.diameter.visits"] += g.order * g.order
    tracer.counts["graphs.diameter.arc_scans"] += g.order * g.arc_count


def _traced_slice(job):
    """Run one worker slice in a forked worker and report its aggregates."""
    fn, args = job
    tracer = _ACTIVE or Tracer()  # None unless forked from the traced process
    tracer.reset()
    start = time.perf_counter()
    result = fn(*args)
    end = time.perf_counter()
    return result, start, end, tracer.export()


def _traced_pool_class(tracer: Tracer):
    class TracedPool(ProcessPoolExecutor):
        """ProcessPoolExecutor that records the pool span and each slice."""

        def __enter__(self):
            self._frame = tracer.enter("dispatch.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.exit(self._frame)

        def map(self, fn, *iterables, **kwargs):
            jobs = [(fn, item) for item in zip(*iterables)]
            for result, start, end, stats in super().map(
                _traced_slice, jobs, **kwargs
            ):
                tracer.add_span("dispatch.slice", start, end)
                tracer.counts["dispatch.slices"] += 1
                tracer.merge(stats)
                yield result

    return TracedPool


def _targets(gridnet):
    """(module, attribute, layer name, result hook) for every swapped name."""
    search, families = gridnet.search, gridnet.families
    constructions, cli = gridnet.constructions, gridnet.cli
    rows = [
        (search, "search_ds", "search", _count_search),
        (search, "search_na", "search", _count_search),
        (search, "search_mh", "search", _count_search),
        (search, "bounded_diameter", "graphs.bounded_diameter", _count_pruned),
        (search, "diameter", "graphs.diameter", _count_visits),
        (search, "line_digraph", "graphs.line_digraph", None),
        (search, "na_to_mh", "constructions.derive", None),
        (families, "Digraph", "graphs.digraph_init", None),
        (constructions, "diameter", "graphs.diameter", _count_visits),
        (constructions, "ds_to_na", "constructions.derive", None),
        (constructions, "ds_to_mh", "constructions.derive", None),
        (cli, "main", "cli", None),
        (cli, "check_diameter_sandwich", "constructions.sandwich", None),
        (cli, "compile_params", "families.compile", None),
        (cli, "diameter", "graphs.diameter", _count_visits),
        (cli, "line_digraph", "graphs.line_digraph", None),
    ]
    for module in (search, constructions):
        for attr in ("compile_ds", "compile_na", "compile_mh", "compile_params"):
            if hasattr(module, attr):
                rows.append((module, attr, "families.compile", None))
    return rows


class Installation:
    """The wrappers put in place by install(); undo() restores every name."""

    def __init__(self, gridnet, tracer: Tracer) -> None:
        self.originals: list[tuple] = []
        for module, attr, name, hook in _targets(gridnet):
            original = getattr(module, attr)
            self.originals.append((module, attr, original))
            setattr(module, attr, _wrap(tracer, name, original, hook))
        search = gridnet.search
        self.originals.append(
            (search, "ProcessPoolExecutor", search.ProcessPoolExecutor)
        )
        search.ProcessPoolExecutor = _traced_pool_class(tracer)

    def undo(self) -> None:
        global _ACTIVE
        for module, attr, original in reversed(self.originals):
            setattr(module, attr, original)
        _ACTIVE = None

    def leftovers(self) -> list[str]:
        """Names that do not hold their original object (empty after undo)."""
        return [
            f"{module.__name__}.{attr}"
            for module, attr, original in self.originals
            if getattr(module, attr) is not original
        ]


def install(gridnet, tracer: Tracer) -> Installation:
    global _ACTIVE
    _ACTIVE = tracer
    return Installation(gridnet, tracer)
