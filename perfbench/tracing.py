"""Run-time tracing of the serving layers, from outside the program.

:class:`Tracer` replaces each layer's public entry points with wrappers
that record a span (name, start, end, parent span, request id, thread)
and restores the originals afterwards; no program module is edited.
Names are wrapped where they are looked up: ``parameterize_sql`` in
``repro.core.warehouse``, ``tokenize`` in ``repro.sql.parameterize``,
``bushy_variants`` and ``decompose_pipelines`` in
``repro.core.bioptimizer``, and methods on their classes.  A
``gc.callbacks`` hook records collector pauses as the runtime layer.
Spans stay in memory until :meth:`Tracer.write`.

Self time is a span's duration minus its direct children's.  Work the
tuning layer does internally (what-if optimization, binding) is charged
to ``tuning.cycle`` and left out of the serving layers' figures.
"""

from __future__ import annotations

import gc
import gzip
import itertools
import json
import threading
import time
from collections import defaultdict
from functools import wraps
from pathlib import Path
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    #: The client's arrival index (the first one, for a batch).
    request: int | None
    thread: int


def layer_points() -> list[tuple[object, str, str]]:
    """``(owner, attribute, span name)`` for every wrapped entry point."""
    import repro.core.bioptimizer as bioptimizer
    import repro.core.warehouse as warehouse
    import repro.sql.parameterize as parameterize
    from repro.core.bioptimizer import BiObjectiveOptimizer
    from repro.core.journal import WriteAheadJournal
    from repro.dop.planner import DopPlanner
    from repro.obsvc.collector import SnapshotCollector
    from repro.obsvc.metrics import MetricsRegistry
    from repro.optimizer.dag_planner import DagPlanner
    from repro.sim.distsim import DistributedSimulator
    from repro.sql.binder import Binder
    from repro.statsvc.logs import QueryLogStore
    from repro.tuning.service import TuningService

    Warehouse = warehouse.CostIntelligentWarehouse
    return [
        (warehouse, "parameterize_sql", "sql.parameterize"),
        (parameterize, "tokenize", "sql.lex"),
        (Binder, "bind_sql", "sql.bind"),
        (Binder, "bind_parameterized", "sql.bind"),
        (BiObjectiveOptimizer, "optimize", "optimizer.optimize"),
        (DagPlanner, "choose_join_tree", "optimizer.join_order"),
        (bioptimizer, "bushy_variants", "optimizer.bushy"),
        (DagPlanner, "plan_with_tree", "optimizer.physical"),
        (bioptimizer, "decompose_pipelines", "optimizer.physical"),
        (DopPlanner, "plan", "dop.plan"),
        (DistributedSimulator, "run", "sim.run"),
        (WriteAheadJournal, "append", "journal.append"),
        (Warehouse, "checkpoint", "journal.checkpoint"),
        (QueryLogStore, "append", "statsvc.log_append"),
        (SnapshotCollector, "maybe_collect", "obsvc.collect"),
        (SnapshotCollector, "collect_now", "obsvc.collect"),
        (MetricsRegistry, "counter", "obsvc.metrics"),
        (MetricsRegistry, "gauge", "obsvc.metrics"),
        (MetricsRegistry, "histogram", "obsvc.metrics"),
        (TuningService, "maybe_run_cycle", "tuning.cycle"),
        (TuningService, "propose", "tuning.propose"),
        (TuningService, "apply", "tuning.apply"),
        (Warehouse, "invalidate_plan_cache", "tuning.cache_flush"),
    ]


class Tracer:
    """Records spans around the layers' entry points while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: ``(generation, start, end)`` per garbage collection.
        self.gc_pauses: list[tuple[int, float, float]] = []
        #: Tag for spans recorded from now on: the arrival index of the
        #: client's current request (the first index, for a batch).
        self.request_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._originals: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    def set_request(self, index: int) -> None:
        self.request_id = index

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, function, name: str):
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter

        @wraps(function)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(
                    Span(span_id, name, start, end, parent, self.request_id,
                         threading.get_ident())
                )

        return traced

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pauses.append(
                (info["generation"], self._gc_start, time.perf_counter())
            )

    def install(self) -> None:
        for owner, attribute, name in layer_points():
            original = (
                owner.__dict__[attribute]
                if isinstance(owner, type)
                else getattr(owner, attribute)
            )
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def write(self, path: Path) -> None:
        """Write spans and collector pauses as gzipped JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")
            for generation, start, end in self.gc_pauses:
                out.write(json.dumps({
                    "name": "runtime.gc", "generation": generation,
                    "start": start, "end": end,
                }) + "\n")


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def _delta(before: dict, after: dict, level: str, field: str) -> int:
    return after.get(level, {}).get(field, 0) - before.get(level, {}).get(field, 0)


def layer_metrics(tracer: Tracer, window, queries: int) -> dict[str, tuple[float, str]]:
    """Per-layer figures over the window's first ``queries`` requests.

    ``window`` is the :class:`~workloads.Window` the traced client
    returned; spans count when they ended by the time the prefix
    finished.
    """
    from repro.core.governance import AdmissionVerdict

    prefix = [span for span in tracer.spans if span.end <= window.prefix_end]
    by_id = {span.id: span for span in prefix}
    child_s: dict[int, float] = defaultdict(float)
    for span in prefix:
        if span.parent is not None:
            child_s[span.parent] += span.end - span.start

    def ancestors(span: Span) -> set[str]:
        names = set()
        while span.parent in by_id:
            span = by_id[span.parent]
            names.add(span.name)
        return names

    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    total_s: dict[str, float] = defaultdict(float)
    replan_s = 0.0
    for span in prefix:
        duration = span.end - span.start
        above = ancestors(span)
        if not span.name.startswith("tuning.") and "tuning.cycle" in above:
            continue
        calls[span.name] += 1
        self_s[span.name] += duration - child_s[span.id]
        total_s[span.name] += duration
        if span.name == "dop.plan" and "sim.run" in above:
            replan_s += duration - child_s[span.id]

    def count(name: str) -> tuple[float, str]:
        return calls[name] / queries, "count"

    def ms(name: str) -> tuple[float, str]:
        return self_s[name] * 1e3 / queries, "ms"

    before, after = window.caches_before, window.caches_at_prefix

    def hit_ratio(level: str) -> tuple[float, str]:
        hits = _delta(before, after, level, "hits")
        lookups = hits + _delta(before, after, level, "misses")
        return (hits / lookups if lookups else 0.0), "ratio"

    evictions = sum(
        _delta(before, after, level, "evictions")
        for level in ("plan_cache", "skeleton_cache", "binding_cache")
    )
    rows = window.prefix_rows
    timings = [row.stage_timings for row in rows]
    decisions: dict[str, int] = defaultdict(int)
    for side, sign in ((before, -1), (after, 1)):
        for counts in side.get("admission", {}).values():
            for verdict, number in counts.items():
                decisions[verdict] += sign * number

    def stage_ms(stage: str) -> tuple[float, str]:
        return sum(t.get(stage, 0.0) for t in timings) * 1e3 / queries, "ms"

    def verdict_frac(verdict) -> tuple[float, str]:
        # Admission decisions, not final states: a deferred query is
        # decided again at the tail of its batch.
        return decisions[verdict.value] / queries, "frac"

    gc_prefix = [p for p in tracer.gc_pauses if p[2] <= window.prefix_end]
    root_spans = [(span.start, span.end) for span in prefix if span.parent is None]
    unattributed_s = window.prefix_elapsed_s - _covered(root_spans)
    return {
        "sql.parameterize.calls_per_query": count("sql.parameterize"),
        "sql.parameterize.ms_per_query": ms("sql.parameterize"),
        "sql.lex.ms_per_query": ms("sql.lex"),
        "sql.bind.calls_per_query": count("sql.bind"),
        "sql.bind.ms_per_query": ms("sql.bind"),
        "plan_cache.exact.hit_ratio": hit_ratio("plan_cache"),
        "plan_cache.skeleton.hit_ratio": hit_ratio("skeleton_cache"),
        "plan_cache.binding.hit_ratio": hit_ratio("binding_cache"),
        "plan_cache.evictions": (float(evictions), "count"),
        "optimizer.optimize.calls_per_query": count("optimizer.optimize"),
        "optimizer.join_order.ms_per_query": ms("optimizer.join_order"),
        "optimizer.bushy.ms_per_query": ms("optimizer.bushy"),
        "optimizer.physical.ms_per_query": ms("optimizer.physical"),
        "dop.plan.calls_per_query": count("dop.plan"),
        "dop.plan.ms_per_query": ms("dop.plan"),
        "cost.timing_evaluations_per_query": (
            (window.timing_evals_at_prefix - window.timing_evals_before) / queries,
            "count",
        ),
        "sim.run.ms_per_query": ms("sim.run"),
        "monitor.replan.ms_per_query": (replan_s * 1e3 / queries, "ms"),
        "service.queued_ms_per_query": stage_ms("queued"),
        "service.finalize_ms_per_query": stage_ms("finalize"),
        "journal.append.calls_per_query": count("journal.append"),
        "journal.append.ms_per_query": ms("journal.append"),
        "journal.checkpoint.ms_total": (total_s["journal.checkpoint"] * 1e3, "ms"),
        "statsvc.log_append.ms_per_query": ms("statsvc.log_append"),
        "obsvc.collect.ms_total": (total_s["obsvc.collect"] * 1e3, "ms"),
        "obsvc.metrics.ms_per_query": ms("obsvc.metrics"),
        "tuning.cycle.calls": (float(calls["tuning.propose"]), "count"),
        "tuning.cycle.ms_total": (total_s["tuning.cycle"] * 1e3, "ms"),
        "tuning.cache_flushes": (float(calls["tuning.cache_flush"]), "count"),
        "governance.throttled_frac": verdict_frac(AdmissionVerdict.THROTTLE),
        "governance.deferred_frac": verdict_frac(AdmissionVerdict.DEFER),
        "governance.denied_frac": verdict_frac(AdmissionVerdict.DENY),
        "resilience.retries": (float(sum(row.retries for row in rows)), "count"),
        "resilience.degraded": (float(sum(row.degraded for row in rows)), "count"),
        "runtime.gc.pause_ms_per_query": (
            sum(end - start for _, start, end in gc_prefix) * 1e3 / queries, "ms"
        ),
        "runtime.gc.gen2_collections": (
            float(sum(generation == 2 for generation, _, _ in gc_prefix)), "count"
        ),
        "trace.unattributed_ms_per_query": (unattributed_s * 1e3 / queries, "ms"),
    }
