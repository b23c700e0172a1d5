"""Bit-identity of the timing kernel against the original arithmetic.

The cache-on/cache-off parity suite compares the kernel with itself;
this suite compares it with ``timing_oracle``, a copy of the original
one-``OpTime``-per-operator model.  Every field is compared bit for bit
(``struct``-packed), so ``-0.0``/``0.0`` or rounding drift cannot hide.
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.cost.hardware import HardwareCalibration
from repro.cost.operator_models import OperatorModels
from repro.cost.regression import ExchangeCalibration, ExchangeCoefficients
from repro.cost.timing_cache import volumes_depend_on_dop
from repro.plan.physical import ExchangeKind, PhysExchange
from repro.plan.pipelines import ROLE_BUILD, ROLE_SINK_SORT, decompose_pipelines
from repro.sim.distsim import SimConfig, true_pipeline_duration
from repro.util.rng import derive_rng
from repro.workloads.adhoc import AdhocQueryGenerator
from repro.workloads.tpch_queries import instantiate, template_names
from tests.cost import timing_oracle

DOPS = [1, 2, 3, 5, 8, 12, 17, 31, 48, 64]
OVERRIDE_MODES = ["none", "empty", "foreign", "own"]


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def model_variants() -> dict[str, OperatorModels]:
    tiny_memory = HardwareCalibration.calibrated("standard", hash_memory_fraction=1e-7)
    recalibrated = ExchangeCalibration(
        by_kind={
            kind: ExchangeCoefficients(
                transfer_scale=1.37, base_setup_s=0.031, per_peer_setup_s=0.0071
            )
            for kind in ExchangeKind
        }
    )
    return {
        "default": OperatorModels(),
        "uncached": OperatorModels(enable_cache=False),
        "spill": OperatorModels(tiny_memory),
        "exchange": OperatorModels(HardwareCalibration(), recalibrated),
    }


@pytest.fixture(scope="module")
def pipelines(big_binder, big_planner):
    """Every pipeline of the TPC-H templates plus ad-hoc star joins."""
    sqls = [instantiate(name, seed=1) for name in template_names()]
    sqls += AdhocQueryGenerator(seed=11).batch(24)
    found = []
    for sql in sqls:
        dag = decompose_pipelines(big_planner.plan(big_binder.bind_sql(sql)))
        found.extend(dag)
    return found


def overrides_for(pipeline, mode: str, factor: float = 2.5, position: int = 0):
    if mode == "none":
        return None
    if mode == "empty":
        return {}
    if mode == "foreign":
        return {max(op.node.node_id for op in pipeline.ops) + 10_000: 123.0}
    node = pipeline.ops[position % len(pipeline.ops)].node
    return {node.node_id: float(node.est_rows) * factor}


def assert_timing_identical(models, pipeline, dop, overrides):
    got = models.pipeline_timing(pipeline, dop, overrides)
    want = timing_oracle.pipeline_timing(models, pipeline, dop, overrides)
    assert bits(got.duration) == bits(want.duration)
    assert got.bottleneck == want.bottleneck
    assert bits(got.source_rows) == bits(want.source_rows)
    assert len(got.op_times) == len(want.op_times)
    for mine, theirs in zip(got.op_times, want.op_times):
        assert bits(mine.stream_s) == bits(theirs.stream_s)
        assert bits(mine.fixed_s) == bits(theirs.fixed_s)
        assert mine.label == theirs.label


def test_inputs_cover_the_model(pipelines):
    """The plans exercise every branch the kernel rewrote."""
    spill = model_variants()["spill"]
    assert any(volumes_depend_on_dop(p) for p in pipelines)
    assert any(p.sink.role == ROLE_SINK_SORT for p in pipelines)
    broadcast_builds = [
        p
        for p in pipelines
        if p.sink.role == ROLE_BUILD
        and any(
            isinstance(op.node, PhysExchange)
            and op.node.kind is ExchangeKind.BROADCAST
            for op in p.ops
        )
    ]
    assert broadcast_builds
    # Spilling broadcast builds are timed differently from partitioned ones.
    build = broadcast_builds[0]
    index = len(build.ops) - 1
    volume = spill.cache.volumes(build, 8, None)[index]
    assert spill._spill_multiplier(volume, 8, build.ops, index) != (
        spill._spill_multiplier(volume, 8, None, None)
    )
    kinds = {
        op.node.kind
        for p in pipelines
        for op in p.ops
        if isinstance(op.node, PhysExchange)
    }
    assert kinds == set(ExchangeKind)


@pytest.mark.parametrize("variant", ["default", "uncached", "spill", "exchange"])
def test_kernel_matches_oracle_on_every_plan(pipelines, variant):
    models = model_variants()[variant]
    for pipeline in pipelines:
        for dop in DOPS:
            for mode in OVERRIDE_MODES:
                assert_timing_identical(
                    models, pipeline, dop, overrides_for(pipeline, mode)
                )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_kernel_matches_oracle_property(pipelines, data):
    variant = data.draw(st.sampled_from(["default", "uncached", "spill", "exchange"]))
    models = model_variants()[variant]
    pipeline = data.draw(st.sampled_from(pipelines))
    mode = data.draw(st.sampled_from(OVERRIDE_MODES))
    factor = data.draw(st.floats(min_value=1e-3, max_value=1e3))
    position = data.draw(st.integers(min_value=0, max_value=20))
    overrides = overrides_for(pipeline, mode, factor, position)
    # Several DOPs on one models object, so cached and shared slots
    # are checked as well as fresh computations.
    for dop in data.draw(st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=4)):
        assert_timing_identical(models, pipeline, dop, None)
        assert_timing_identical(models, pipeline, dop, overrides)


@pytest.mark.parametrize(
    "config",
    [
        SimConfig(),
        SimConfig(materialize_exchanges=True, cpu_rate_multiplier=0.71, skew_zipf_s=1.1),
    ],
    ids=["default", "materialized"],
)
def test_true_pipeline_duration_matches_oracle(pipelines, config):
    models = model_variants()["spill"]
    for pipeline in pipelines:
        source = pipeline.ops[0].node
        for truth in ({}, {source.node_id: float(source.est_rows) * 1.7}):
            for dop in (1, 3, 16, 64):
                seed = (pipeline.pipeline_id, dop, len(truth))
                got = true_pipeline_duration(
                    pipeline, dop, models, truth, config, derive_rng(1234, *map(str, seed))
                )
                want = timing_oracle.true_pipeline_duration(
                    pipeline, dop, models, truth, config, derive_rng(1234, *map(str, seed))
                )
                assert bits(got) == bits(want)
