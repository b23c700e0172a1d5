"""Parity suite: the optimizer hot path must be bit-identical to oracles.

The timing cache, incremental DAG re-costing, batched greedy rounds, the
DAG-planning memo and the serving caches are pure performance: across
every TPC-H template, ad-hoc star joins, both constraint kinds, and
with/without cardinality overrides, production must return *exactly*
the `CostEstimate`s and plans of ``tests/dop/dop_oracle.py`` — a cold,
uncached, per-candidate search — and served plans must equal cold
``use_plan_cache=False`` submissions.  Float comparisons here are
deliberately `==`, not approx.
"""

import pytest

from repro.core.bioptimizer import BiObjectiveOptimizer
from repro.cost.estimator import CostEstimator
from repro.dop.constraints import budget_constraint, sla_constraint
from repro.dop.planner import DopPlanner
from repro.plan.pipelines import decompose_pipelines
from repro.workloads.adhoc import AdhocQueryGenerator
from repro.workloads.tpch_queries import instantiate, template_names
from tests.dop.dop_oracle import ColdEstimator, OracleDopPlanner, OracleOptimizer

CONSTRAINTS = [sla_constraint(12.0), budget_constraint(0.05)]
#: The ad-hoc star joins ``tests/cost/test_timing_oracle.py`` times.
ADHOC_PLANS = 24


def assert_estimates_identical(a, b):
    assert a.latency == b.latency
    assert a.machine_seconds == b.machine_seconds
    assert a.dollars == b.dollars
    assert a.scan_request_dollars == b.scan_request_dollars
    assert set(a.pipelines) == set(b.pipelines)
    for pid, pa in a.pipelines.items():
        pb = b.pipelines[pid]
        assert (pa.dop, pa.start, pa.duration, pa.waste) == (
            pb.dop,
            pb.start,
            pb.duration,
            pb.waste,
        )
        assert pa.bottleneck == pb.bottleneck
        assert pa.source_rows == pb.source_rows


@pytest.mark.parametrize("template", template_names())
@pytest.mark.parametrize("constraint", CONSTRAINTS, ids=["sla", "budget"])
def test_optimizer_parity_all_templates(big_catalog, big_binder, template, constraint):
    bound = big_binder.bind_sql(instantiate(template, seed=1))
    naive = OracleOptimizer(big_catalog, ColdEstimator()).optimize(bound, constraint)
    fast = BiObjectiveOptimizer(big_catalog, CostEstimator()).optimize(
        bound, constraint
    )

    assert fast.dop_plan.dops == naive.dop_plan.dops
    assert fast.variant_index == naive.variant_index
    assert fast.bushiness == naive.bushiness
    assert fast.join_tree.describe() == naive.join_tree.describe()
    assert fast.feasible == naive.feasible
    assert_estimates_identical(fast.dop_plan.estimate, naive.dop_plan.estimate)


def assert_dop_plans_identical(dag, constraint, overrides=None):
    """Production DOP search == the cold per-candidate oracle."""
    naive = OracleDopPlanner(ColdEstimator()).plan(dag, constraint, overrides)
    fast = DopPlanner(CostEstimator()).plan(dag, constraint, overrides)
    assert fast.dops == naive.dops
    assert fast.feasible == naive.feasible
    assert_estimates_identical(fast.estimate, naive.estimate)


def scaled_scan_overrides(dag, factor: float = 3.0) -> dict[int, float]:
    scan = dag.topological_order()[0].ops[0].node
    return {scan.node_id: float(scan.est_rows) * factor}


@pytest.mark.parametrize("template", template_names())
@pytest.mark.parametrize("constraint", CONSTRAINTS, ids=["sla", "budget"])
def test_dop_planner_parity_with_overrides(
    big_binder, big_planner, template, constraint
):
    plan = big_planner.plan(big_binder.bind_sql(instantiate(template, seed=1)))
    dag = decompose_pipelines(plan)
    for overrides in ({}, scaled_scan_overrides(dag)):
        assert_dop_plans_identical(dag, constraint, overrides)


@pytest.fixture(scope="module")
def adhoc_dags(big_binder, big_planner):
    return [
        decompose_pipelines(big_planner.plan(big_binder.bind_sql(sql)))
        for sql in AdhocQueryGenerator(seed=11).batch(ADHOC_PLANS)
    ]


@pytest.mark.parametrize(
    "constraint",
    [*CONSTRAINTS, sla_constraint(3.0)],
    ids=["sla", "budget", "tight-sla"],
)
def test_dop_planner_parity_adhoc_plans(adhoc_dags, constraint):
    """The ad-hoc star joins: other shapes, sizes and sibling groups
    than the TPC-H templates.  All of them run at DOP 1 under the 12 s
    SLA; the 3 s SLA makes the search grow, trim, and give up on a
    few."""
    for dag in adhoc_dags:
        for overrides in (None, scaled_scan_overrides(dag)):
            assert_dop_plans_identical(dag, constraint, overrides)


@pytest.mark.parametrize("template", template_names())
@pytest.mark.parametrize("constraint", CONSTRAINTS, ids=["sla", "budget"])
def test_skeleton_reuse_parity_literal_varying(
    big_catalog, big_binder, template, constraint
):
    """Plan-skeleton reuse across literal-varying instantiations must be
    bit-identical to fresh optimization of the same SQL: the skeleton
    skips join-order DP and bushy generation, but re-runs physical
    planning with fresh cardinalities plus the DOP search."""
    donor = BiObjectiveOptimizer(big_catalog, CostEstimator())
    seed_bound = big_binder.bind_sql(instantiate(template, seed=1))
    donor.optimize(seed_bound, constraint)
    skeleton = donor.variant_trees(seed_bound)

    for seed in (2, 3):
        sql = instantiate(template, seed=seed)
        fresh = BiObjectiveOptimizer(big_catalog, CostEstimator()).optimize(
            big_binder.bind_sql(sql), constraint
        )
        reused = BiObjectiveOptimizer(big_catalog, CostEstimator()).optimize(
            big_binder.bind_sql(sql), constraint, skeleton_trees=skeleton
        )
        assert reused.dop_plan.dops == fresh.dop_plan.dops
        assert reused.variant_index == fresh.variant_index
        assert reused.join_tree.describe() == fresh.join_tree.describe()
        assert reused.feasible == fresh.feasible
        assert_estimates_identical(reused.dop_plan.estimate, fresh.dop_plan.estimate)


@pytest.mark.parametrize("template", template_names())
@pytest.mark.parametrize("constraint", CONSTRAINTS, ids=["sla", "budget"])
def test_batched_greedy_rounds_parity(big_binder, big_planner, template, constraint):
    """Batched round costing (one lean sweep per greedy round) must pick
    exactly the DOP plans per-candidate costing picks."""
    plan = big_planner.plan(big_binder.bind_sql(instantiate(template, seed=1)))
    assert_dop_plans_identical(decompose_pipelines(plan), constraint)


def test_warehouse_parameterized_serving_parity(big_catalog):
    """The full serving path (exact, skeleton and binding caches, DAG
    memo, batched rounds) returns plans bit-identical to cold
    ``use_plan_cache=False`` submissions on a warehouse that has served
    nothing else, for every literal-varying arrival."""
    from repro.core.service import QueryRequest
    from repro.core.warehouse import CostIntelligentWarehouse

    parameterized = CostIntelligentWarehouse(catalog=big_catalog)
    cold = CostIntelligentWarehouse(catalog=big_catalog).session(tenant="oracle")
    for template in template_names():
        for seed in (1, 2, 3):
            sql = instantiate(template, seed=seed)
            for constraint in CONSTRAINTS:
                _, actual = parameterized.plan(sql, constraint)
                handle = cold.submit(
                    QueryRequest(
                        sql=sql,
                        constraint=constraint,
                        use_plan_cache=False,
                        simulate=False,
                    )
                )
                expected = handle.result().choice
                assert actual.dop_plan.dops == expected.dop_plan.dops
                assert actual.variant_index == expected.variant_index
                assert actual.join_tree.describe() == expected.join_tree.describe()
                assert_estimates_identical(
                    actual.dop_plan.estimate, expected.dop_plan.estimate
                )
    caches = parameterized.describe_caches()
    # Seeds 2 and 3 of each (template, constraint) pair ride the skeleton.
    assert caches["skeleton_cache"]["hits"] >= len(template_names()) * 2 * 2


def test_lean_sweep_matches_full_estimates(big_binder, big_planner):
    """The incremental coster's lean sweep must price candidate moves
    bit-identically to a full estimate of each mutated assignment."""
    from repro.dop.planner import _IncrementalCoster

    plan = big_planner.plan(
        big_binder.bind_sql(instantiate("q5_local_supplier", seed=1))
    )
    dag = decompose_pipelines(plan)
    coster = _IncrementalCoster(CostEstimator(), dag, None)
    dops = {p.pipeline_id: 2 for p in dag}
    base = coster.estimate(dops)
    base_metrics = (base.latency, base.total_dollars)
    candidates = [(p.pipeline_id, 4) for p in dag] + [(dag.root_id, 1)]
    for (pid, new_dop), (latency, total_dollars) in zip(
        candidates, coster.sweep(dops, candidates)
    ):
        mutated = dict(dops)
        mutated[pid] = new_dop
        full = coster.estimate(mutated)
        assert latency == full.latency
        assert total_dollars == full.total_dollars
    # With pruning, every candidate is either priced bit-identically or
    # reported at the base metrics — and then it must truly be gainless.
    for (pid, new_dop), (latency, total_dollars) in zip(
        candidates, coster.sweep(dops, candidates, prune_gainless=True)
    ):
        mutated = dict(dops)
        mutated[pid] = new_dop
        full = coster.estimate(mutated)
        exact = latency == full.latency and total_dollars == full.total_dollars
        pruned = (latency, total_dollars) == base_metrics and (
            full.latency >= base.latency
        )
        assert exact or pruned


def test_incremental_search_times_fewer_pipelines(big_catalog, big_binder):
    """The hot-path contract over the template pool: >=5x fewer
    timing-model evaluations than the cold per-candidate oracle (the
    acceptance criterion the throughput benchmark also enforces)."""
    bounds = [
        big_binder.bind_sql(instantiate(name, seed=1)) for name in template_names()
    ]

    naive_estimator = ColdEstimator()
    naive_optimizer = OracleOptimizer(big_catalog, naive_estimator)
    fast_estimator = CostEstimator()
    fast_optimizer = BiObjectiveOptimizer(big_catalog, fast_estimator)
    for bound in bounds:
        for constraint in CONSTRAINTS:
            naive_optimizer.optimize(bound, constraint)
            fast_optimizer.optimize(bound, constraint)

    naive_timings = naive_estimator.models.timing_computations
    fast_timings = fast_estimator.models.timing_computations
    assert fast_timings * 5 <= naive_timings
