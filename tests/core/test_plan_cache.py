"""Tests for the warehouse plan caches and batched submission."""

import pytest

from repro.core.plan_cache import (
    BindingCache,
    PlanCache,
    SkeletonCache,
    normalize_sql,
)
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import budget_constraint, sla_constraint
from repro.errors import ReproError
from repro.workloads.tpch_queries import instantiate


@pytest.fixture()
def warehouse(tpch_db):
    return CostIntelligentWarehouse(tpch_db)


Q1 = "SELECT count(*) AS n FROM orders"


# --------------------------- normalize_sql ---------------------------- #
def test_normalize_sql_collapses_formatting():
    assert normalize_sql("SELECT  *  FROM t") == normalize_sql(
        "select *\n from T -- comment\n"
    )


def test_normalize_sql_keeps_literals_distinct():
    assert normalize_sql("SELECT a FROM t WHERE a < 5") != normalize_sql(
        "SELECT a FROM t WHERE a < 6"
    )
    assert normalize_sql("SELECT a FROM t WHERE s = 'X'") != normalize_sql(
        "SELECT a FROM t WHERE s = 'Y'"
    )


# ----------------------------- PlanCache ------------------------------ #
def test_plan_cache_lru_eviction():
    cache = PlanCache(capacity=2)
    cache.store("a", "bound-a", "choice-a")
    cache.store("b", "bound-b", "choice-b")
    assert cache.lookup("a") == ("bound-a", "choice-a")  # refresh a
    cache.store("c", "bound-c", "choice-c")  # evicts b
    assert cache.lookup("b") is None
    assert cache.lookup("a") is not None
    assert cache.evictions == 1
    assert 0.0 < cache.hit_rate < 1.0
    assert "entries" in cache.describe()


def test_plan_cache_rejects_zero_capacity():
    with pytest.raises(ValueError):
        PlanCache(capacity=0)


# --------------------------- lock striping ---------------------------- #
def test_small_caches_stay_single_stripe():
    """Tiny capacities collapse to one stripe so sequential LRU
    eviction semantics are exact (the tests above rely on this)."""
    assert PlanCache(capacity=2).stripe_count == 1
    assert PlanCache(capacity=63).stripe_count == 1


def test_default_capacity_is_striped():
    cache = PlanCache(capacity=256)
    assert cache.stripe_count == 4
    # Stripe capacities sum to the nominal capacity.
    assert sum(s.capacity for s in cache._stripes) == 256


def test_striped_cache_aggregates_counters():
    cache = PlanCache(capacity=256)
    for index in range(32):
        cache.store(("key", index), "bound", "choice")
    assert len(cache) == 32
    hits = sum(cache.lookup(("key", index)) is not None for index in range(32))
    assert hits == 32 and cache.hits == 32
    assert cache.lookup("missing") is None
    assert cache.misses == 1
    assert "stripe" in cache.describe()
    cache.reset_stats()
    assert cache.hits == cache.misses == 0
    cache.invalidate()
    assert len(cache) == 0


def test_striped_cache_survives_concurrent_hammer():
    """Threads mixing lookups and stores over a shared striped cache
    must never corrupt it (the scheduler's planning threads do this)."""
    import threading

    cache = PlanCache(capacity=256)
    errors = []

    def worker(worker_id: int) -> None:
        try:
            for step in range(400):
                key = ("q", (worker_id * 7 + step) % 97)
                found = cache.lookup(key)
                if found is None:
                    cache.store(key, f"bound-{key}", f"choice-{key}")
                else:
                    assert found == (f"bound-{key}", f"choice-{key}")
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    assert len(cache) <= 256
    assert cache.hits + cache.misses == 8 * 400


def test_striped_eviction_goes_through_the_policy():
    """Over-filling a multi-stripe cache evicts within each full stripe
    via the retention policy; the policy counter matches the striping
    counter and entries never exceed capacity."""
    cache = PlanCache(capacity=256)  # 4 stripes of 64
    for index in range(1000):
        cache.store(("key", index), "bound", "choice")
    assert len(cache) <= 256
    assert cache.evictions == 1000 - len(cache)
    assert cache.policy.evictions == cache.evictions
    # The survivors are the most recently stored keys *of each stripe*.
    for stripe in cache._stripes:
        assert len(stripe.entries) <= stripe.capacity


# --------------------------- warehouse hits --------------------------- #
def test_repeat_submission_hits_cache(warehouse):
    constraint = sla_constraint(12.0)
    first = warehouse.submit(Q1, constraint)
    second = warehouse.submit(Q1, constraint)
    assert warehouse.plan_cache.hits == 1
    assert second.choice is first.choice
    # Logging still happens per submission.
    assert len(warehouse.logs) == 2


def test_formatting_variants_share_one_plan(warehouse):
    constraint = sla_constraint(12.0)
    warehouse.submit(Q1, constraint)
    warehouse.submit("select COUNT( * ) as N\nfrom ORDERS", constraint)
    assert warehouse.plan_cache.hits == 1


def test_different_constraints_plan_separately(warehouse):
    warehouse.submit(Q1, sla_constraint(12.0))
    warehouse.submit(Q1, budget_constraint(0.05))
    warehouse.submit(Q1, sla_constraint(5.0))
    assert warehouse.plan_cache.hits == 0
    assert warehouse.plan_cache.misses == 3


def test_use_plan_cache_false_bypasses(warehouse):
    constraint = sla_constraint(12.0)
    warehouse.submit(Q1, constraint)
    warehouse.submit(Q1, constraint, use_plan_cache=False)
    assert warehouse.plan_cache.hits == 0


def test_plan_cache_disabled_by_size_zero(tpch_db):
    warehouse = CostIntelligentWarehouse(tpch_db, plan_cache_size=0)
    assert warehouse.plan_cache is None
    assert warehouse.skeleton_cache is None
    assert warehouse.binding_cache is None
    constraint = sla_constraint(12.0)
    warehouse.submit(Q1, constraint)
    warehouse.submit(Q1, constraint)  # no cache, no crash
    warehouse.invalidate_plan_cache()  # no-op


# ------------------------- two-level serving -------------------------- #
def test_literal_variants_hit_the_skeleton_level(warehouse):
    """Same template, different constants: exact level misses, skeleton
    level serves the join shapes (no join-order DP re-run)."""
    constraint = sla_constraint(12.0)
    warehouse.submit(instantiate("q1_pricing_summary", seed=1), constraint)
    dag_plans_after_first = warehouse.optimizer.dag_plans
    join_order_s = warehouse.optimizer.stage_times["join_order"]
    warehouse.submit(instantiate("q1_pricing_summary", seed=2), constraint)
    assert warehouse.plan_cache.hits == 0  # different literals
    assert warehouse.skeleton_cache.hits == 1
    # DAG planning ran for the new literals, but skipped the join DP.
    assert warehouse.optimizer.dag_plans == dag_plans_after_first + 1
    assert warehouse.optimizer.stage_times["join_order"] == join_order_s


def test_skeleton_key_separates_constraint_kinds(warehouse):
    sql = instantiate("q1_pricing_summary", seed=1)
    warehouse.submit(sql, sla_constraint(12.0))
    warehouse.submit(sql, budget_constraint(0.05))
    # Same kind, different bound: the skeleton is shared.
    warehouse.submit(instantiate("q1_pricing_summary", seed=2), sla_constraint(5.0))
    assert warehouse.skeleton_cache.misses == 2  # one per kind
    assert warehouse.skeleton_cache.hits == 1


def test_binding_shared_across_constraints(warehouse):
    sql = instantiate("q1_pricing_summary", seed=1)
    first = warehouse.submit(sql, sla_constraint(12.0))
    second = warehouse.submit(sql, budget_constraint(0.05))
    assert warehouse.binding_cache.hits == 1
    assert second.record.sql == first.record.sql


def test_describe_caches_reports_all_levels(warehouse):
    constraint = sla_constraint(12.0)
    warehouse.submit(instantiate("q1_pricing_summary", seed=1), constraint)
    warehouse.submit(instantiate("q1_pricing_summary", seed=2), constraint)
    report = warehouse.describe_caches()
    assert report["plan_cache"]["misses"] == 2
    assert report["skeleton_cache"]["hits"] == 1
    assert report["skeleton_cache"]["hit_rate"] == 0.5
    assert report["timing_cache"]["timing_computations"] > 0
    assert 0.0 <= report["timing_cache"]["timing_hit_rate"] <= 1.0
    warehouse.reset_cache_stats()
    report = warehouse.describe_caches()
    assert report["plan_cache"]["hits"] == 0
    assert report["skeleton_cache"]["misses"] == 0
    # Entries survive a stats reset.
    assert report["plan_cache"]["entries"] == 2


def test_skeleton_and_binding_caches_are_lru():
    skeletons = SkeletonCache(capacity=1)
    skeletons.store("a", ("tree-a",))
    skeletons.store("b", ("tree-b",))
    assert skeletons.lookup("a") is None
    assert skeletons.lookup("b") == ("tree-b",)
    assert skeletons.evictions == 1
    bindings = BindingCache(capacity=1)
    bindings.store("a", "bound-a")
    bindings.store("b", "bound-b")
    assert bindings.lookup("a") is None
    assert bindings.lookup("b") == "bound-b"


# --------------------------- invalidation ----------------------------- #
def test_stats_change_invalidates(warehouse):
    constraint = sla_constraint(12.0)
    warehouse.submit(Q1, constraint)
    catalog = warehouse.catalog
    version = catalog.version
    catalog.update_stats("orders", catalog.table("orders").stats)
    assert catalog.version == version + 1
    warehouse.submit(Q1, constraint)
    assert warehouse.plan_cache.hits == 0
    assert warehouse.plan_cache.misses == 2


def test_explicit_invalidation(warehouse):
    constraint = sla_constraint(12.0)
    warehouse.submit(Q1, constraint)
    warehouse.invalidate_plan_cache()
    assert len(warehouse.plan_cache) == 0
    warehouse.submit(Q1, constraint)
    assert warehouse.plan_cache.hits == 0


def test_tuning_apply_invalidates_via_version(warehouse):
    """Catalog mutations from auto-tuning invalidate cached plans."""
    constraint = sla_constraint(12.0)
    warehouse.submit(Q1, constraint)
    warehouse.catalog.set_clustering("orders", "o_orderdate", 0.2)
    warehouse.submit(Q1, constraint)
    assert warehouse.plan_cache.hits == 0


# --------------------------- submit_many ------------------------------ #
def test_submit_many_request_items_inherit_shared_settings(warehouse):
    """QueryRequest items honor the shared constraint and batch-wide
    keyword arguments, like str/tuple items do."""
    from repro.core.service import QueryRequest

    outcomes = warehouse.submit_many(
        [QueryRequest(sql=Q1), QueryRequest(sql=Q1)],
        constraint=sla_constraint(12.0),
        simulate=False,
    )
    assert all(o.sim is None for o in outcomes)
    assert all(o.constraint.latency_sla == 12.0 for o in outcomes)


def test_submit_many_shared_constraint(warehouse):
    sql = instantiate("q1_pricing_summary", seed=1)
    outcomes = warehouse.submit_many([sql, sql, Q1], constraint=sla_constraint(12.0))
    assert len(outcomes) == 3
    assert warehouse.plan_cache.hits == 1
    assert outcomes[1].choice is outcomes[0].choice


def test_submit_many_per_item_constraints(warehouse):
    pairs = [(Q1, sla_constraint(12.0)), (Q1, budget_constraint(0.05))]
    outcomes = warehouse.submit_many(pairs)
    assert len(outcomes) == 2
    assert warehouse.plan_cache.misses == 2


def test_submit_many_requires_constraint_for_bare_sql(warehouse):
    with pytest.raises(ReproError):
        warehouse.submit_many([Q1])
