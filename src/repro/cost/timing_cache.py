"""Memoization for the estimator hot path.

Profiling the DOP search shows most optimize time inside
:func:`~repro.cost.operator_models.OperatorModels.pipeline_timing`, and
most of those calls recompute results already produced earlier in the
same greedy search: the search mutates one pipeline's DOP per move, yet
every candidate evaluation re-times every pipeline.

Two observations make the path cacheable:

- :func:`~repro.cost.volumes.pipeline_volumes` is DOP-independent for
  any pipeline without a partial (DOP-scaled) aggregate, so its result
  can be shared across the whole DOP grid;
- ``pipeline_timing`` is a pure function of the pipeline's operator
  volumes and the DOP, so it can be memoized per pipeline object.

Cached entries are keyed *by pipeline identity* in weak dictionaries:
pipelines die with their plan, and the cache entries follow — no
explicit lifetime management, no unbounded growth across queries.
Cached values therefore never reference their pipeline.  Results are
shared objects; every consumer in the repo treats
``PipelineTiming``/``OpVolume`` as read-only.

Keys.  Cardinality overrides are *projected per pipeline* before keying:
the volume model only ever reads override entries for the pipeline's own
plan nodes (plus whether a mapping was passed at all, which switches
un-overridden operators into observed-selectivity mode), so two
override mappings that agree on this pipeline's nodes are the same
computation.  Without the projection, a DOP monitor that learns one
node-local truth would miss the cache for *every* pipeline in the plan;
with it, only the pipeline that owns the overridden node re-times.
``None`` (plan-time estimates) and ``{}`` (observed-selectivity mode)
stay distinct keys.

Interning.  Distinct keys may still share results.  When a projected
mapping (``{}`` or learned truths) yields volumes *bit-equal* to the
plan-time (``None``) volumes of the same pipeline and DOP key, the
plan-time list object is reused, and a timing whose volumes are the
plan-time list is the plan-time timing: a DOP-monitor replan re-uses
the timings planned for every pipeline whose data flow it did not
change, and computes only those whose volumes moved.  Equality is
bitwise (``NaN`` never matches, ``0.0`` and ``-0.0`` differ), so a
shared result is exactly the one its own computation would produce.

Correctness contract (enforced by ``tests/cost/test_timing_oracle.py``
against a copy of the original per-operator arithmetic, and by the
parity suite in ``tests/cost/test_estimation_parity.py``): estimates
are bit-identical to cold, uncached computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable
from weakref import WeakKeyDictionary

from repro.cost.volumes import OpVolume, pipeline_volumes
from repro.plan.physical import AggMode, PhysAggregate
from repro.plan.pipelines import Pipeline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.cost.operator_models import PipelineTiming


def overrides_key(overrides: dict[int, float] | None) -> tuple | None:
    """Hashable identity of a cardinality-overrides mapping.

    ``None`` and ``{}`` are deliberately distinct: passing any mapping —
    even an empty one — switches :func:`pipeline_volumes` into
    observed-selectivity mode for un-overridden operators.
    """
    if overrides is None:
        return None
    return tuple(sorted(overrides.items()))


def volumes_depend_on_dop(pipeline: Pipeline) -> bool:
    """True when the pipeline's volumes change with DOP.

    The only DOP-dependent volume is a partial aggregate's output
    (``min(rows_in, final_groups * dop)``); everything else is pure data
    flow.
    """
    return any(
        isinstance(op.node, PhysAggregate) and op.node.mode is AggMode.PARTIAL
        for op in pipeline.ops
    )


def volumes_bit_equal(a: list[OpVolume], b: list[OpVolume]) -> bool:
    """True when two volume lists are the same operators carrying the
    same bits: ``NaN`` never matches and ``0.0`` differs from ``-0.0``."""
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        if x.op is not y.op or not (
            _same_bits(x.rows_in, y.rows_in)
            and _same_bits(x.bytes_in, y.bytes_in)
            and _same_bits(x.rows_out, y.rows_out)
            and _same_bits(x.bytes_out, y.bytes_out)
        ):
            return False
    return True


def _same_bits(x: float, y: float) -> bool:
    # Equal non-zero floats have equal bits; zeros must agree in sign.
    return x == y and (x != 0.0 or math.copysign(1.0, x) == math.copysign(1.0, y))


@dataclass
class TimingCacheStats:
    """Hit/miss counters (the throughput benchmark reads these)."""

    volume_hits: int = 0
    volume_computations: int = 0
    timing_hits: int = 0
    timing_computations: int = 0

    def reset(self) -> None:
        self.volume_hits = 0
        self.volume_computations = 0
        self.timing_hits = 0
        self.timing_computations = 0

    def describe(self) -> str:
        return (
            f"timings: {self.timing_hits} hits / "
            f"{self.timing_computations} computed; "
            f"volumes: {self.volume_hits} hits / "
            f"{self.volume_computations} computed"
        )


class _PipelineMemo:
    """Everything cached for one pipeline.  Holds no reference to the
    pipeline itself (it is the value of a weak-keyed entry)."""

    __slots__ = ("node_ids", "dop_sensitive", "volumes", "timings")

    def __init__(self, pipeline: Pipeline) -> None:
        #: The pipeline's plan-node ids (for override projection).
        self.node_ids = frozenset(op.node.node_id for op in pipeline.ops)
        #: Whether volumes depend on DOP (partial aggregates).
        self.dop_sensitive = volumes_depend_on_dop(pipeline)
        #: ``(dop-or-0, overrides_key) -> [OpVolume, ...]``
        self.volumes: dict[tuple, list[OpVolume]] = {}
        #: ``(dop, overrides_key) -> PipelineTiming``
        self.timings: dict[tuple, "PipelineTiming"] = {}

    def project(self, overrides: dict[int, float] | None) -> dict[int, float] | None:
        """Restrict overrides to the pipeline's own plan nodes.

        Safe because :func:`pipeline_volumes` reads overrides only at
        this pipeline's node ids; ``None`` stays ``None`` and a non-empty
        mapping may project to ``{}`` (both distinctions matter — any
        mapping enables observed-selectivity mode).  Projection widens
        key sharing: a node-local truth learned by the DOP monitor no
        longer fragments every *other* pipeline's cache slots.
        """
        node_ids = self.node_ids
        if overrides is None or node_ids.issuperset(overrides):
            return overrides
        return {
            node_id: rows
            for node_id, rows in overrides.items()
            if node_id in node_ids
        }

    def planned_volumes(self, dop: int) -> list[OpVolume] | None:
        """The cached plan-time (``None``) volumes at ``dop``, if any."""
        return self.volumes.get((dop if self.dop_sensitive else 0, None))


class TimingCache:
    """Per-pipeline memo of volumes and timings.

    Owned by one :class:`~repro.cost.operator_models.OperatorModels`; all
    of that estimator's callers (DOP planner, co-finish polish, DOP
    monitor, What-If Service) share it automatically.
    """

    def __init__(self) -> None:
        self._memos: WeakKeyDictionary[Pipeline, _PipelineMemo] = WeakKeyDictionary()
        self.stats = TimingCacheStats()

    def _memo(self, pipeline: Pipeline) -> _PipelineMemo:
        memo = self._memos.get(pipeline)
        if memo is None:
            memo = _PipelineMemo(pipeline)
            self._memos[pipeline] = memo
        return memo

    # ------------------------------------------------------------------ #
    # Lookups
    # ------------------------------------------------------------------ #
    def volumes(
        self,
        pipeline: Pipeline,
        dop: int,
        overrides: dict[int, float] | None,
    ) -> list[OpVolume]:
        """Cached :func:`pipeline_volumes`; DOP enters the key only for
        pipelines whose volumes actually depend on it, and overrides
        only through their projection onto this pipeline's nodes."""
        memo = self._memo(pipeline)
        return self._volumes(memo, pipeline, dop, memo.project(overrides))

    def _volumes(
        self,
        memo: _PipelineMemo,
        pipeline: Pipeline,
        dop: int,
        overrides: dict[int, float] | None,
    ) -> list[OpVolume]:
        """:meth:`volumes` for already-projected ``overrides``; a result
        bit-equal to the plan-time volumes is the plan-time list."""
        key = (dop if memo.dop_sensitive else 0, overrides_key(overrides))
        found = memo.volumes.get(key)
        if found is not None:
            self.stats.volume_hits += 1
            return found
        self.stats.volume_computations += 1
        found = pipeline_volumes(pipeline, dop, overrides)
        if overrides is not None:
            planned = memo.planned_volumes(dop)
            if planned is not None and volumes_bit_equal(found, planned):
                found = planned
        memo.volumes[key] = found
        return found

    def timing(
        self,
        pipeline: Pipeline,
        dop: int,
        overrides: dict[int, float] | None,
        compute: Callable[[Pipeline, int, list[OpVolume]], "PipelineTiming"],
    ) -> "PipelineTiming":
        """Memoized pipeline timing; ``compute(pipeline, dop, volumes)``
        runs on a miss.

        A miss whose volumes are the interned plan-time list shares the
        plan-time ``(dop, None)`` timing, computing it only if absent.
        """
        memo = self._memo(pipeline)
        overrides = memo.project(overrides)
        key = (dop, overrides_key(overrides))
        found = memo.timings.get(key)
        if found is not None:
            self.stats.timing_hits += 1
            return found
        volumes = self._volumes(memo, pipeline, dop, overrides)
        slot = key
        if overrides is not None and volumes is memo.planned_volumes(dop):
            slot = (dop, None)
            found = memo.timings.get(slot)
        if found is None:
            self.stats.timing_computations += 1
            found = compute(pipeline, dop, volumes)
            memo.timings[slot] = found
        else:
            self.stats.timing_hits += 1
        memo.timings[key] = found
        return found

    # ------------------------------------------------------------------ #
    # Maintenance
    # ------------------------------------------------------------------ #
    def invalidate(self) -> None:
        """Drop every cached entry (call after recalibrating hardware or
        exchange coefficients — anything that changes the timing model)."""
        self._memos.clear()

    def __len__(self) -> int:
        """Number of timing slots (distinct keys; shared results count
        once per key)."""
        return sum(len(memo.timings) for memo in self._memos.values())
