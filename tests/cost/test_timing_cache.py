"""Tests for the estimator hot-path memoization (cost/timing_cache.py)."""

import pytest

from repro.cost.estimator import CostEstimator
from repro.cost.timing_cache import (
    TimingCache,
    overrides_key,
    volumes_bit_equal,
    volumes_depend_on_dop,
)
from repro.cost.volumes import pipeline_volumes
from repro.plan.pipelines import decompose_pipelines
from repro.workloads.tpch_queries import instantiate
from tests.dop.dop_oracle import ColdEstimator, ColdModels


@pytest.fixture(scope="module")
def q5_dag(big_binder, big_planner):
    plan = big_planner.plan(big_binder.bind_sql(instantiate("q5_local_supplier", seed=1)))
    return decompose_pipelines(plan)


def fresh_estimator() -> CostEstimator:
    return CostEstimator()


# ------------------------------ keys ---------------------------------- #
def test_overrides_key_distinguishes_none_from_empty():
    # {} switches the volume model into observed-selectivity mode, so it
    # must not share a cache slot with None.
    assert overrides_key(None) is None
    assert overrides_key({}) == ()
    assert overrides_key({3: 7.0, 1: 2.0}) == ((1, 2.0), (3, 7.0))
    assert overrides_key({1: 2.0, 3: 7.0}) == overrides_key({3: 7.0, 1: 2.0})


def test_volumes_dop_sensitivity_detection(q5_dag):
    sensitive = [volumes_depend_on_dop(p) for p in q5_dag]
    # q5 aggregates, so at least one pipeline carries a partial aggregate
    # and at least one (a pure scan/probe chain) does not.
    assert any(sensitive)
    assert not all(sensitive)


# --------------------------- memoization ------------------------------ #
def test_timing_memoized_per_dop(q5_dag):
    estimator = fresh_estimator()
    dops = {p.pipeline_id: 4 for p in q5_dag}
    estimator.estimate_dag(q5_dag, dops)
    stats = estimator.models.cache.stats
    computed_first = stats.timing_computations
    assert computed_first == len(q5_dag)

    estimator.estimate_dag(q5_dag, dops)
    assert stats.timing_computations == computed_first
    assert stats.timing_hits == len(q5_dag)


def test_overrides_projected_onto_pipeline_nodes(q5_dag):
    """Node-local DOP-monitor truths only re-time the pipeline that owns
    the overridden node; every other pipeline keeps hitting the cache.

    Regression for the full-mapping keying bug: the timing key embedded
    the *entire* overrides mapping, so learning one node's true
    cardinality fragmented every pipeline's cache slots.
    """
    estimator = fresh_estimator()
    dops = {p.pipeline_id: 4 for p in q5_dag}
    stats = estimator.models.cache.stats

    # Baseline: everything computed once under observed-selectivity mode.
    estimator.estimate_dag(q5_dag, dops, overrides={})
    assert stats.timing_computations == len(q5_dag)

    # Learn a truth local to one pipeline: only that pipeline re-times.
    pipelines = list(q5_dag)
    owner = pipelines[0]
    local_node = owner.ops[0].node.node_id
    other_ids = {
        op.node.node_id for p in pipelines[1:] for op in p.ops
    }
    assert local_node not in other_ids  # the truth really is node-local
    stats.reset()
    estimator.estimate_dag(q5_dag, dops, overrides={local_node: 12345.0})
    assert stats.timing_computations == 1
    assert stats.timing_hits == len(q5_dag) - 1

    # Equal projections share slots: a second mapping agreeing on this
    # plan's nodes (same single override) is a full hit.
    stats.reset()
    estimator.estimate_dag(q5_dag, dops, overrides={local_node: 12345.0})
    assert stats.timing_computations == 0
    assert stats.timing_hits == len(q5_dag)


def test_projection_preserves_none_vs_empty(q5_dag):
    """None and {} stay distinct keys (any mapping switches the volume
    model into observed-selectivity mode), but a {} slot shares the None
    timing object exactly when its volumes are bit-equal; a pipeline
    whose observed-selectivity volumes differ computes its own."""
    estimator = fresh_estimator()
    models = estimator.models
    stats = models.cache.stats
    dops = {p.pipeline_id: 4 for p in q5_dag}
    none_estimate = estimator.estimate_dag(q5_dag, dops, overrides=None)
    assert stats.timing_computations == len(q5_dag)
    estimator.estimate_dag(q5_dag, dops, overrides={})
    differing = [
        p
        for p in q5_dag
        if not volumes_bit_equal(
            pipeline_volumes(p, 4, {}), pipeline_volumes(p, 4, None)
        )
    ]
    # q5 has both kinds, so both branches are exercised.
    assert 0 < len(differing) < len(q5_dag)
    assert stats.timing_computations == len(q5_dag) + len(differing)
    for pipeline in q5_dag:
        planned = models.pipeline_timing(pipeline, 4, None)
        observed = models.pipeline_timing(pipeline, 4, {})
        assert (observed is planned) == (pipeline not in differing)
    # A foreign-only mapping is the {} computation, served from cache.
    foreign = max(op.node.node_id for p in q5_dag for op in p.ops) + 1000
    stats.reset()
    foreign_estimate = estimator.estimate_dag(q5_dag, dops, overrides={foreign: 5.0})
    assert stats.timing_computations == 0
    assert stats.timing_hits == len(q5_dag)
    assert foreign_estimate.latency == estimator.estimate_dag(q5_dag, dops, {}).latency
    assert none_estimate.latency > 0


def test_learned_slot_shares_plan_time_timing_only_when_bit_equal(q5_dag):
    """An own-node override whose value reproduces the estimate shares
    the plan-time timing; one that moves the volumes computes its own."""
    estimator = fresh_estimator()
    models = estimator.models
    source = q5_dag.topological_order()[0]
    scan = source.ops[0].node
    planned = models.pipeline_timing(source, 8, None)
    same = {scan.node_id: float(scan.est_rows)}
    assert volumes_bit_equal(
        pipeline_volumes(source, 8, same), pipeline_volumes(source, 8, None)
    )
    computed = models.cache.stats.timing_computations
    assert models.pipeline_timing(source, 8, same) is planned
    assert models.cache.stats.timing_computations == computed
    moved = models.pipeline_timing(source, 8, {scan.node_id: scan.est_rows * 3.0})
    assert moved is not planned
    assert moved.duration != planned.duration


def test_full_replan_recomputes_only_changed_pipelines(q5_dag):
    """After the DOP monitor learns one pipeline's true rows, its full
    replan re-uses every plan-time timing whose volumes it did not
    change: it computes timings only for pipelines whose volumes moved
    (or at DOPs the plan-time search never timed)."""
    from repro.dop.constraints import sla_constraint
    from repro.dop.planner import DopPlanner
    from repro.monitor.policies import PipelineDopMonitor
    from repro.sim.distsim import CheckpointObservation

    estimator = fresh_estimator()
    models = estimator.models
    computed, requested = [], []
    compute, lookup = models._compute_timing, models.pipeline_timing

    def recording_compute(pipeline, dop, *args):
        computed.append((pipeline, dop))
        return compute(pipeline, dop, *args)

    def recording_lookup(pipeline, dop, overrides=None):
        requested.append((pipeline, dop))
        return lookup(pipeline, dop, overrides)

    models._compute_timing = recording_compute
    models.pipeline_timing = recording_lookup
    constraint = sla_constraint(12.0)
    plan = DopPlanner(estimator).plan(q5_dag, constraint)
    planned = set(computed)
    computed.clear()
    requested.clear()

    monitor = PipelineDopMonitor(q5_dag, estimator, constraint, plan.dops)
    source = q5_dag.topological_order()[0]
    planned_rows = float(source.ops[0].node.est_rows)
    monitor.on_checkpoint(
        CheckpointObservation(
            time=0.5,
            pipeline_id=source.pipeline_id,
            progress=0.1,
            dop=plan.dops[source.pipeline_id],
            elapsed=0.5,
            projected_duration=1.0,
            planned_duration=1.0,
            planned_source_rows=planned_rows,
            true_source_rows=planned_rows * 10.0,
        )
    )
    assert monitor.replans == 1

    def volumes_changed(pipeline, dop):
        return not volumes_bit_equal(
            pipeline_volumes(pipeline, dop, monitor.learned),
            pipeline_volumes(pipeline, dop, None),
        )

    reused = {
        (pipeline, dop)
        for pipeline, dop in requested
        if (pipeline, dop) in planned and not volumes_changed(pipeline, dop)
    }
    assert len({pipeline for pipeline, _ in reused}) > 1
    assert any(pipeline is source for pipeline, _ in computed)
    for pipeline, dop in computed:
        assert (pipeline, dop) not in planned or volumes_changed(pipeline, dop)


def test_volume_interning_compares_bits(q5_dag, monkeypatch):
    """NaN never matches itself and 0.0 never matches -0.0, so interning
    can only share a list whose every field has the same bits."""
    import repro.cost.timing_cache as timing_cache
    from repro.cost.volumes import OpVolume

    pipeline = q5_dag.topological_order()[0]
    op = pipeline.ops[0]

    def volumes_of(value):
        return [OpVolume(op, 1.0, 2.0, value, 4.0)]

    assert volumes_bit_equal(volumes_of(3.0), volumes_of(3.0))
    assert not volumes_bit_equal(volumes_of(0.0), volumes_of(-0.0))
    assert not volumes_bit_equal(volumes_of(float("nan")), volumes_of(float("nan")))
    assert not volumes_bit_equal(
        [OpVolume(pipeline.ops[1], 1.0, 2.0, 3.0, 4.0)], volumes_of(3.0)
    )

    for planned_value, observed_value, shared in (
        (3.0, 3.0, True),
        (0.0, -0.0, False),
        (float("nan"), float("nan"), False),
    ):
        cache = TimingCache()
        produced = {None: volumes_of(planned_value), (): volumes_of(observed_value)}
        monkeypatch.setattr(
            timing_cache,
            "pipeline_volumes",
            lambda p, dop, overrides: produced[overrides_key(overrides)],
        )
        planned = cache.volumes(pipeline, 2, None)
        observed = cache.volumes(pipeline, 2, {})
        assert (observed is planned) is shared


def test_dop_independent_volumes_shared_across_dops(q5_dag):
    estimator = fresh_estimator()
    for dop in (1, 2, 4, 8):
        estimator.estimate_dag(q5_dag, {p.pipeline_id: dop for p in q5_dag})
    stats = estimator.models.cache.stats
    insensitive = sum(1 for p in q5_dag if not volumes_depend_on_dop(p))
    sensitive = len(q5_dag) - insensitive
    # Insensitive pipelines computed volumes once; sensitive ones per DOP.
    assert stats.volume_computations == insensitive + 4 * sensitive
    # Timings are DOP-keyed for everyone.
    assert stats.timing_computations == 4 * len(q5_dag)


def test_overrides_keyed_separately(q5_dag):
    estimator = fresh_estimator()
    dops = {p.pipeline_id: 2 for p in q5_dag}
    # Inflate the biggest scan so the override must change the estimate.
    scans = [
        op.node
        for p in q5_dag
        for op in p.ops
        if op.role == "source_scan"
    ]
    scan_node = max(scans, key=lambda node: node.est_rows)
    overrides = {scan_node.node_id: float(scan_node.est_rows) * 10.0}
    with_override = estimator.estimate_dag(q5_dag, dops, overrides)
    without = estimator.estimate_dag(q5_dag, dops)
    again = estimator.estimate_dag(q5_dag, dops, overrides)
    assert with_override.machine_seconds != without.machine_seconds
    assert with_override.machine_seconds == again.machine_seconds
    assert with_override.latency == again.latency


def test_cached_matches_uncached_exactly(q5_dag):
    cached = fresh_estimator()
    uncached = ColdEstimator()
    scan_node = q5_dag.topological_order()[0].ops[0].node
    for dop in (1, 3, 16):
        for overrides in (None, {}, {scan_node.node_id: 5e6}):
            dops = {p.pipeline_id: dop for p in q5_dag}
            a = cached.estimate_dag(q5_dag, dops, overrides)
            b = uncached.estimate_dag(q5_dag, dops, overrides)
            assert a.latency == b.latency
            assert a.machine_seconds == b.machine_seconds
            assert a.dollars == b.dollars
            assert a.scan_request_dollars == b.scan_request_dollars
            for pid in a.pipelines:
                assert a.pipelines[pid] == b.pipelines[pid]


# --------------------------- invalidation ----------------------------- #
def test_invalidate_clears_everything(q5_dag):
    estimator = fresh_estimator()
    dops = {p.pipeline_id: 2 for p in q5_dag}
    estimator.estimate_dag(q5_dag, dops)
    cache = estimator.models.cache
    assert len(cache) > 0
    estimator.invalidate_caches()
    assert len(cache) == 0
    before = cache.stats.timing_computations
    estimator.estimate_dag(q5_dag, dops)
    assert cache.stats.timing_computations == before + len(q5_dag)


def test_cache_entries_die_with_their_pipelines(big_binder, big_planner):
    """Cached timings, shared or not and with their lazy op_times built,
    never keep their (weakly keyed) pipeline alive."""
    import gc
    import weakref

    estimator = fresh_estimator()
    plan = big_planner.plan(
        big_binder.bind_sql(instantiate("q1_pricing_summary", seed=1))
    )
    dag = decompose_pipelines(plan)
    dops = {p.pipeline_id: 2 for p in dag}
    estimator.estimate_dag(dag, dops)
    estimator.estimate_dag(dag, dops, overrides={})
    models = estimator.models
    for pipeline in dag:
        for overrides in (None, {}):
            timing = models.pipeline_timing(pipeline, 2, overrides)
            assert len(timing.op_times) == len(pipeline.ops)
    cache = models.cache
    # One slot per (pipeline, key): None and {} are distinct keys even
    # where they share one timing object.
    assert len(cache) == 2 * len(dag)
    refs = [weakref.ref(pipeline) for pipeline in dag]
    del dag, plan, pipeline, timing  # weak keys: dropping the plan drops its entries
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert len(cache) == 0


def test_direct_cache_api_counts_hits(q5_dag):
    cache = TimingCache()
    pipeline = q5_dag.topological_order()[0]
    first = cache.volumes(pipeline, 2, None)
    second = cache.volumes(pipeline, 2, None)
    assert first is second
    assert cache.stats.volume_computations == 1
    assert cache.stats.volume_hits == 1
    cache.stats.reset()
    assert cache.stats.volume_hits == 0
    assert "volumes" in cache.stats.describe()


def test_concurrent_lookups_return_uncached_results(big_binder, big_planner):
    """Threads racing on one cache (as threaded serving does) may repeat
    a computation but never return a timing that differs from the
    uncached one, whichever slot a racing thread filled first."""
    import sys
    import threading

    dag = decompose_pipelines(
        big_planner.plan(big_binder.bind_sql(instantiate("q5_local_supplier", seed=2)))
    )
    uncached = ColdModels()
    scan = dag.topological_order()[0].ops[0].node
    mappings = [None, {}, {scan.node_id: float(scan.est_rows) * 2.0}]
    cases = [(p, dop, o) for p in dag for dop in (1, 4, 12, 64) for o in mappings]
    expected = [uncached.pipeline_timing(p, dop, o) for p, dop, o in cases]
    models = fresh_estimator().models
    mismatches = []
    start = threading.Barrier(8)

    def worker(offset):
        start.wait(timeout=10)
        for step in range(len(cases)):
            index = (offset + step) % len(cases)
            pipeline, dop, overrides = cases[index]
            got = models.pipeline_timing(pipeline, dop, overrides)
            want = expected[index]
            if (got.duration, got.bottleneck, got.source_rows) != (
                want.duration,
                want.bottleneck,
                want.source_rows,
            ) or [(t.stream_s, t.fixed_s) for t in got.op_times] != [
                (t.stream_s, t.fixed_s) for t in want.op_times
            ]:
                mismatches.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=worker, args=(i * 7,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
