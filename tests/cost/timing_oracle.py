"""Reference copy of the original per-operator timing arithmetic.

The production timing kernel (``OperatorModels._op_cost``) and the
simulator's ground truth (``true_pipeline_duration``) must stay
bit-identical to the straightforward model they replaced: one
``OpTime`` per operator, ``max()`` over stream times, ``sum()`` over
fixed times.  This module keeps that model, expression for expression,
as a test oracle; it is not imported by the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.cost.operator_models import OperatorModels
from repro.cost.volumes import OpVolume, pipeline_volumes
from repro.plan.physical import (
    ExchangeKind,
    PhysExchange,
    PhysFilter,
    PhysLimit,
    PhysProject,
)
from repro.plan.pipelines import (
    Pipeline,
    ROLE_BUILD,
    ROLE_PROBE,
    ROLE_SINK_AGG,
    ROLE_SINK_SORT,
    ROLE_SOURCE_SCAN,
    ROLE_SOURCE_STATE,
    ROLE_STREAM,
)


@dataclass(frozen=True)
class OracleOpTime:
    stream_s: float
    fixed_s: float
    label: str


@dataclass
class OracleTiming:
    duration: float
    bottleneck: str
    op_times: list[OracleOpTime]
    source_rows: float


def pipeline_timing(
    models: OperatorModels,
    pipeline: Pipeline,
    dop: int,
    overrides: dict[int, float] | None,
) -> OracleTiming:
    volumes = pipeline_volumes(pipeline, dop, overrides)
    op_times = [
        op_time(models, volume, dop, pipeline=pipeline, index=i)
        for i, volume in enumerate(volumes)
    ]
    stream = max((t.stream_s for t in op_times), default=0.0)
    fixed = sum(t.fixed_s for t in op_times) + models.hw.pipeline_startup_s
    bottleneck = ""
    if op_times:
        bottleneck = max(op_times, key=lambda t: t.stream_s).label
    source_rows = volumes[0].rows_out if volumes else 0.0
    return OracleTiming(
        duration=stream + fixed,
        bottleneck=bottleneck,
        op_times=op_times,
        source_rows=source_rows,
    )


def op_time(
    models: OperatorModels,
    volume: OpVolume,
    dop: int,
    *,
    pipeline: Pipeline | None = None,
    index: int | None = None,
) -> OracleOpTime:
    role = volume.op.role
    node = volume.op.node
    hw = models.hw
    cores = hw.node.cores
    label = f"{node.describe()}[{role}]"

    if role == ROLE_SOURCE_SCAN:
        scan_s = volume.bytes_in / (dop * hw.scan_bytes_per_node)
        morsels = volume.rows_in / hw.morsel_rows
        sched_s = morsels * hw.morsel_overhead_s / (dop * cores)
        return OracleOpTime(scan_s + sched_s, hw.store.request_latency_s, label)

    if role == ROLE_SOURCE_STATE:
        rate = dop * cores * hw.state_scan_rows_per_core
        return OracleOpTime(volume.rows_out / rate, 0.0, label)

    if role == ROLE_STREAM:
        return _stream_time(models, volume, dop, label)

    if role == ROLE_BUILD:
        rate = dop * cores * hw.hash_build_rows_per_core
        build_s = volume.rows_in / rate
        build_s *= _spill_multiplier(models, volume, dop, pipeline, index)
        return OracleOpTime(build_s, 0.0, label)

    if role == ROLE_PROBE:
        rate = dop * cores * hw.hash_probe_rows_per_core
        return OracleOpTime(volume.rows_in / rate, 0.0, label)

    if role == ROLE_SINK_AGG:
        rate = dop * cores * hw.agg_rows_per_core
        return OracleOpTime(volume.rows_in / rate, 0.0, label)

    if role == ROLE_SINK_SORT:
        per_node_rows = max(2.0, volume.rows_in / dop)
        log_ref = math.log2(max(2.0, hw.sort_reference_rows))
        rate = cores * hw.sort_rows_per_core * log_ref / math.log2(per_node_rows)
        return OracleOpTime(per_node_rows / rate, 0.0, label)

    raise AssertionError(f"no model for pipeline role {role!r}")


def _stream_time(
    models: OperatorModels, volume: OpVolume, dop: int, label: str
) -> OracleOpTime:
    node = volume.op.node
    hw = models.hw
    cores = hw.node.cores
    if isinstance(node, PhysExchange):
        return _exchange_time(models, node.kind, volume, dop, label)
    if isinstance(node, PhysFilter):
        rate = dop * cores * hw.filter_rows_per_core
        return OracleOpTime(volume.rows_in / rate, 0.0, label)
    if isinstance(node, PhysProject):
        exprs = max(1, len(node.exprs))
        rate = dop * cores * hw.project_rows_per_core_per_expr / exprs
        return OracleOpTime(volume.rows_in / rate, 0.0, label)
    if isinstance(node, PhysLimit):
        return OracleOpTime(0.0, 0.0, label)
    rate = dop * cores * hw.agg_rows_per_core
    return OracleOpTime(volume.rows_in / rate, 0.0, label)


def _exchange_time(
    models: OperatorModels,
    kind: ExchangeKind,
    volume: OpVolume,
    dop: int,
    label: str,
) -> OracleOpTime:
    hw = models.hw
    coeffs = models.exchange.coefficients(kind)
    if kind is ExchangeKind.SHUFFLE:
        moved = volume.bytes_in * (dop - 1) / dop if dop > 1 else 0.0
        transfer = moved / (dop * hw.network_bytes_per_node)
    elif kind is ExchangeKind.BROADCAST:
        hops = 1.0 + hw.broadcast_tree_factor * math.log2(max(1, dop))
        transfer = volume.bytes_in * hops / hw.network_bytes_per_node
    elif kind is ExchangeKind.GATHER:
        transfer = volume.bytes_in / hw.network_bytes_per_node
    else:
        raise AssertionError(f"unknown exchange kind {kind}")
    stream = coeffs.transfer_scale * transfer
    fixed = coeffs.base_setup_s + coeffs.per_peer_setup_s * max(0, dop - 1)
    return OracleOpTime(stream, fixed, label)


def _spill_multiplier(
    models: OperatorModels,
    volume: OpVolume,
    dop: int,
    pipeline: Pipeline | None,
    index: int | None,
) -> float:
    hw = models.hw
    table_bytes = volume.bytes_in + volume.rows_in * hw.hash_table_bytes_per_row
    broadcast = False
    if pipeline is not None and index is not None:
        broadcast = any(
            isinstance(op.node, PhysExchange)
            and op.node.kind is ExchangeKind.BROADCAST
            for op in pipeline.ops[:index]
        )
    per_node = table_bytes if broadcast else table_bytes / dop
    budget = hw.hash_memory_per_node
    if per_node <= budget or per_node <= 0:
        return 1.0
    overflow = (per_node - budget) / per_node
    return 1.0 + hw.spill_penalty * overflow


def true_pipeline_duration(pipeline, dop, models, truth, config, rng) -> float:
    """The simulator's ground truth, over :func:`op_time`."""
    from repro.sim.skew import skew_multiplier

    volumes = pipeline_volumes(pipeline, dop, truth if truth else None)
    has_shuffle = any(
        isinstance(v.op.node, PhysExchange) and v.op.node.kind is ExchangeKind.SHUFFLE
        for v in volumes
    )
    stream = 0.0
    fixed = models.hw.pipeline_startup_s
    for index, volume in enumerate(volumes):
        timed = op_time(models, volume, dop, pipeline=pipeline, index=index)
        stream_s, fixed_s = timed.stream_s, timed.fixed_s
        node = volume.op.node
        if isinstance(node, PhysExchange):
            stream_s *= config.exchange_transfer_multiplier
            fixed_s *= config.exchange_setup_multiplier
            if config.materialize_exchanges:
                store = models.hw.store
                round_trip = 2.0 * volume.bytes_in / (dop * store.per_node_bandwidth)
                fixed_s += round_trip + 2.0 * store.request_latency_s
        else:
            stream_s /= config.cpu_rate_multiplier
        stream = max(stream, stream_s)
        fixed += fixed_s
    if has_shuffle and dop > 1:
        stream *= skew_multiplier(dop, config.skew_zipf_s, rng)
    noise = float(rng.lognormal(mean=0.0, sigma=config.noise_sigma))
    return (stream + fixed) * noise
