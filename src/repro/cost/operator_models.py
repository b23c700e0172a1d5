"""Per-operator scalability models (paper §3.1).

"For each physical operator, we design a scalability model that outputs
its processing throughput given the data size and the degree of
parallelism."  Simple closed-form formulas for CPU-bound operators;
network-bound exchanges use a linear model whose coefficients can be
recalibrated by regression on synthetic workloads
(:mod:`repro.cost.regression`).

A pipeline executes its operators concurrently (streaming), so pipeline
duration = max of per-operator stream times + accumulated fixed
overheads (setup costs that do not overlap with streaming).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cost.hardware import HardwareCalibration
from repro.cost.regression import ExchangeCalibration
from repro.cost.timing_cache import TimingCache
from repro.cost.volumes import OpVolume, pipeline_volumes
from repro.errors import EstimationError
from repro.plan.physical import (
    ExchangeKind,
    PhysExchange,
    PhysFilter,
    PhysLimit,
    PhysProject,
    PhysSort,
)
from repro.plan.pipelines import (
    Pipeline,
    PipelineOp,
    ROLE_BUILD,
    ROLE_PROBE,
    ROLE_SINK_AGG,
    ROLE_SINK_SORT,
    ROLE_SOURCE_SCAN,
    ROLE_SOURCE_STATE,
    ROLE_STREAM,
)


@dataclass(frozen=True)
class OpTime:
    """Streaming time (overlaps with the rest of the pipeline) plus fixed
    setup time (serializes with everything)."""

    stream_s: float
    fixed_s: float
    label: str


class PipelineTiming:
    """Predicted duration of one pipeline at one DOP.

    ``duration``, ``bottleneck`` and ``source_rows`` are computed eagerly;
    the per-operator breakdown ``op_times`` is built on first access
    (only per-operator attribution reads it) from the volumes and DOP the
    timing was computed from, with the same kernel, so it is identical
    to an eager breakdown.

    A timing holds its ``volumes`` list and its :class:`OperatorModels`,
    never its :class:`Pipeline`: timings are cached as values of a
    ``WeakKeyDictionary`` keyed by the pipeline, and a value that
    references its key keeps that key alive forever.
    """

    __slots__ = (
        "duration",
        "bottleneck",
        "source_rows",
        "_volumes",
        "_dop",
        "_models",
        "_op_times",
    )

    def __init__(
        self,
        duration: float,
        bottleneck: str,
        source_rows: float,
        volumes: list[OpVolume],
        dop: int,
        models: "OperatorModels",
    ) -> None:
        self.duration = duration
        self.bottleneck = bottleneck
        self.source_rows = source_rows
        self._volumes = volumes
        self._dop = dop
        self._models = models
        self._op_times: list[OpTime] | None = None

    @property
    def op_times(self) -> list[OpTime]:
        """Per-operator :class:`OpTime`s, in pipeline order."""
        if self._op_times is None:
            volumes = self._volumes
            ops = [volume.op for volume in volumes]
            op_cost = self._models._op_cost
            self._op_times = [
                OpTime(*op_cost(volume, self._dop, ops, index), _op_label(volume.op))
                for index, volume in enumerate(volumes)
            ]
        return self._op_times

    def __repr__(self) -> str:
        return (
            f"PipelineTiming(duration={self.duration!r}, "
            f"bottleneck={self.bottleneck!r}, source_rows={self.source_rows!r})"
        )


def _op_label(op: PipelineOp) -> str:
    """``describe()[role]`` of one operator occurrence, cached per node.

    The label is pure presentation; caching it on the node keeps
    ``describe()`` from being re-rendered for every timing.
    """
    node = op.node
    labels = node.__dict__.get("_op_labels")
    if labels is None:
        labels = {}
        node.__dict__["_op_labels"] = labels
    label = labels.get(op.role)
    if label is None:
        label = f"{node.describe()}[{op.role}]"
        labels[op.role] = label
    return label


class OperatorModels:
    """Evaluates operator and pipeline times from volumes and DOP."""

    def __init__(
        self,
        hardware: HardwareCalibration | None = None,
        exchange_calibration: ExchangeCalibration | None = None,
        *,
        enable_cache: bool = True,
    ) -> None:
        self.hw = hardware or HardwareCalibration()
        self.exchange = exchange_calibration or ExchangeCalibration.analytic(self.hw)
        self.cache: TimingCache | None = TimingCache() if enable_cache else None
        #: Count of actual timing-model evaluations (cache misses when the
        #: cache is on, every call when it is off) — the benchmark metric.
        self.timing_computations = 0

    # ------------------------------------------------------------------ #
    # Pipeline-level API
    # ------------------------------------------------------------------ #
    def pipeline_timing(
        self,
        pipeline: Pipeline,
        dop: int,
        overrides: dict[int, float] | None = None,
    ) -> PipelineTiming:
        """Duration of ``pipeline`` at ``dop`` (streaming bottleneck model).

        Memoized per ``(pipeline, dop, overrides)`` when the timing cache
        is enabled; the cached object is shared, treat it as read-only.
        """
        if self.cache is None:
            return self._compute_timing(
                pipeline, dop, pipeline_volumes(pipeline, dop, overrides)
            )
        return self.cache.timing(pipeline, dop, overrides, self._compute_timing)

    def invalidate_cache(self) -> None:
        """Drop memoized volumes/timings (after model recalibration)."""
        if self.cache is not None:
            self.cache.invalidate()

    def _compute_timing(
        self, pipeline: Pipeline, dop: int, volumes: list[OpVolume]
    ) -> PipelineTiming:
        """Time ``pipeline`` at ``dop`` from its operator ``volumes``.

        Duration is the largest stream time (the first operator reaching
        it is the bottleneck) plus every fixed time and the pipeline
        start-up.  Fixed times are summed with ``sum()`` over the list,
        so the rounding matches it on every Python version.
        """
        self.timing_computations += 1
        ops = pipeline.ops
        op_cost = self._op_cost
        stream = 0.0
        top = -1
        fixed_terms = []
        for index, volume in enumerate(volumes):
            stream_s, fixed_s = op_cost(volume, dop, ops, index)
            if top < 0 or stream_s > stream:
                stream = stream_s
                top = index
            fixed_terms.append(fixed_s)
        fixed = sum(fixed_terms) + self.hw.pipeline_startup_s
        return PipelineTiming(
            duration=stream + fixed,
            bottleneck=_op_label(volumes[top].op) if volumes else "",
            source_rows=volumes[0].rows_out if volumes else 0.0,
            volumes=volumes,
            dop=dop,
            models=self,
        )

    def throughput(
        self,
        pipeline: Pipeline,
        dop: int,
        overrides: dict[int, float] | None = None,
    ) -> float:
        """Source-rows-per-second throughput T(dop) of a pipeline.

        This is the throughput function the co-finish heuristic plugs
        into C1/T1(DOP1) ≈ C2/T2(DOP2) (§3.2).
        """
        timing = self.pipeline_timing(pipeline, dop, overrides)
        if timing.duration <= 0:
            return float("inf")
        return max(timing.source_rows, 1.0) / timing.duration

    # ------------------------------------------------------------------ #
    # Per-operator models
    # ------------------------------------------------------------------ #
    def op_time(
        self,
        volume: OpVolume,
        dop: int,
        *,
        pipeline: Pipeline | None = None,
        index: int | None = None,
    ) -> OpTime:
        """Stream and fixed time of one operator occurrence, labelled.

        ``pipeline`` and ``index`` locate the operator; a hash build
        needs them to tell a replicated (broadcast) build from a
        partitioned one.
        """
        ops = pipeline.ops if pipeline is not None else None
        stream_s, fixed_s = self._op_cost(volume, dop, ops, index)
        return OpTime(stream_s, fixed_s, _op_label(volume.op))

    def _op_cost(
        self,
        volume: OpVolume,
        dop: int,
        ops: list[PipelineOp] | None,
        index: int | None,
    ) -> tuple[float, float]:
        """``(stream_s, fixed_s)`` of operator ``ops[index]`` at ``dop``.

        The timing kernel: every estimate and the simulator's ground
        truth run through it, so it builds no objects beyond the result.
        """
        role = volume.op.role
        hw = self.hw
        cores = hw.node.cores

        if role == ROLE_SOURCE_SCAN:
            scan_s = volume.bytes_in / (dop * hw.scan_bytes_per_node)
            morsels = volume.rows_in / hw.morsel_rows
            sched_s = morsels * hw.morsel_overhead_s / (dop * cores)
            return scan_s + sched_s, hw.store.request_latency_s

        if role == ROLE_SOURCE_STATE:
            rate = dop * cores * hw.state_scan_rows_per_core
            return volume.rows_out / rate, 0.0

        if role == ROLE_STREAM:
            return self._stream_cost(volume, dop)

        if role == ROLE_BUILD:
            rate = dop * cores * hw.hash_build_rows_per_core
            build_s = volume.rows_in / rate
            build_s *= self._spill_multiplier(volume, dop, ops, index)
            return build_s, 0.0

        if role == ROLE_PROBE:
            rate = dop * cores * hw.hash_probe_rows_per_core
            return volume.rows_in / rate, 0.0

        if role == ROLE_SINK_AGG:
            rate = dop * cores * hw.agg_rows_per_core
            return volume.rows_in / rate, 0.0

        if role == ROLE_SINK_SORT:
            per_node_rows = max(2.0, volume.rows_in / dop)
            log_ref = math.log2(max(2.0, hw.sort_reference_rows))
            rate = cores * hw.sort_rows_per_core * log_ref / math.log2(per_node_rows)
            return per_node_rows / rate, 0.0

        raise EstimationError(f"no model for pipeline role {role!r}")

    def _stream_cost(self, volume: OpVolume, dop: int) -> tuple[float, float]:
        node = volume.op.node
        hw = self.hw
        cores = hw.node.cores
        if isinstance(node, PhysExchange):
            return self._exchange_cost(node.kind, volume, dop)
        if isinstance(node, PhysFilter):
            rate = dop * cores * hw.filter_rows_per_core
            return volume.rows_in / rate, 0.0
        if isinstance(node, PhysProject):
            exprs = max(1, len(node.exprs))
            rate = dop * cores * hw.project_rows_per_core_per_expr / exprs
            return volume.rows_in / rate, 0.0
        if isinstance(node, PhysLimit):
            return 0.0, 0.0
        # Streaming (partial) aggregate and anything aggregate-like.
        rate = dop * cores * hw.agg_rows_per_core
        return volume.rows_in / rate, 0.0

    def _exchange_cost(
        self, kind: ExchangeKind, volume: OpVolume, dop: int
    ) -> tuple[float, float]:
        hw = self.hw
        coeffs = self.exchange.coefficients(kind)
        if kind is ExchangeKind.SHUFFLE:
            moved = volume.bytes_in * (dop - 1) / dop if dop > 1 else 0.0
            transfer = moved / (dop * hw.network_bytes_per_node)
        elif kind is ExchangeKind.BROADCAST:
            hops = 1.0 + hw.broadcast_tree_factor * math.log2(max(1, dop))
            transfer = volume.bytes_in * hops / hw.network_bytes_per_node
        elif kind is ExchangeKind.GATHER:
            transfer = volume.bytes_in / hw.network_bytes_per_node
        else:  # pragma: no cover - exhaustive over enum
            raise EstimationError(f"unknown exchange kind {kind}")
        stream = coeffs.transfer_scale * transfer
        fixed = coeffs.base_setup_s + coeffs.per_peer_setup_s * max(0, dop - 1)
        return stream, fixed

    def _spill_multiplier(
        self,
        volume: OpVolume,
        dop: int,
        ops: list[PipelineOp] | None,
        index: int | None,
    ) -> float:
        """Penalty when the hash build exceeds usable memory.

        A broadcast build is replicated on every node; a partitioned
        build is split across the DOP.
        """
        hw = self.hw
        table_bytes = volume.bytes_in + volume.rows_in * hw.hash_table_bytes_per_row
        broadcast = False
        if ops is not None and index is not None:
            broadcast = any(
                isinstance(op.node, PhysExchange)
                and op.node.kind is ExchangeKind.BROADCAST
                for op in ops[:index]
            )
        per_node = table_bytes if broadcast else table_bytes / dop
        budget = hw.hash_memory_per_node
        if per_node <= budget or per_node <= 0:
            return 1.0
        overflow = (per_node - budget) / per_node
        return 1.0 + hw.spill_penalty * overflow
