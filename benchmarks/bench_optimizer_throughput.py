"""Optimizer throughput: queries-optimized-per-second over the TPC-H pool.

Two workloads, three modes:

**Fixed pool** (identical SQL re-optimized, PR 1's A/B):

- **baseline**: uncached estimator + naive DOP search (every candidate
  move re-times every pipeline) — the pre-overhaul behavior, rebuilt
  from the test-side oracle ``tests/dop/dop_oracle.py``
  (``OracleOptimizer`` over a ``ColdEstimator``);
- **cached**: memoized volumes/timings + incremental DAG re-costing
  (one new timing per candidate move, cheap ASAP re-schedule) under the
  same per-candidate search: the oracle search priced by the production
  incremental coster.

**Literal-varying pool** (each arrival re-instantiates its template with
fresh constants — the recurring-report traffic shape, where exact-match
plan caching gets 0% hits):

- **cached** again, as the exact-match-only reference: an exact-match
  plan cache (misses on this traffic), fresh bind + fresh optimize per
  arrival;
- **parameterized**: the serving path through ``Session.plan`` (the
  public serving API over ``CostIntelligentWarehouse``) — literal
  extraction, exact-level then skeleton-level plan cache, DAG-planning
  memo, and batched greedy DOP rounds.  Skeleton hits skip join-order
  DP and bushy generation and re-run only binding, cardinality
  re-estimation, and the incremental DOP search.

**Governed pool** (eviction pressure: multi-tenant literal-varying
traffic over a deliberately tiny skeleton cache, one hot recurring
template interleaved with a sweep of cold ones):

- **lru** vs **cost-aware** retention, same traffic, same capacity.
  Plain recency ages the hot template out between its arrivals; the
  cost-aware policy keeps it by forecast frequency x re-optimization
  cost saved, so its skeleton hit rate must strictly exceed LRU's (the
  report records both, and CI gates on the comparison).  The cost-aware
  rate wobbles a few points across runs — retention scores use
  *measured* planning seconds, so eviction ties among cold templates
  break on real wall time — but the gap over LRU (~40% vs 0%) dwarfs
  the wobble, and plans stay bit-identical either way.

**Resilient pool** (failure-domain overhead: identical fault-free
literal-varying traffic through ``Session.submit`` on two identical
warehouses):

- **bare** (``ResiliencePolicy(enabled=False)``) vs **hardened**
  (default policy).  The only difference is the per-request
  ``StageGuard`` wrapping the bind/optimize stages, so fault-free the
  hardened path must be pure bookkeeping: zero retries, zero degraded
  outcomes, bit-identical plans, and a median paired-chunk wall
  overhead under 5% (gated in CI from the written report).

**Journaled / observed pools** (same paired-chunk A/B shape): the
write-ahead journal and the scheduled cost-snapshot collector each run
against an identical bare warehouse on their own disjoint literal seeds;
both must stay under 5% median paired-chunk overhead with bit-identical
plans (and, for the observed pool, exact drill-down reconciliation of
every collected snapshot against the ledger-unit bills).

Reports wall times, throughput, timing-model evaluations, a per-stage
time breakdown (join ordering / bushy generation / physical planning /
DOP search / bind+serve overhead), and cache hit rates, then writes
``BENCH_optimizer.json`` next to the repo root so the perf trajectory is
tracked across PRs.  Every fast path must agree bit-for-bit on estimates
and chosen plans with fresh optimization of the same SQL (also enforced
by ``tests/cost/test_estimation_parity.py``); this script re-checks as a
guard and fails on any mismatch — including between the two retention
policies, which may only change *when* plans are re-derived, never what
is served.

Usage::

    python benchmarks/bench_optimizer_throughput.py           # full pool
    python benchmarks/bench_optimizer_throughput.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for path in (REPO_ROOT, REPO_ROOT / "src"):  # tests.dop.dop_oracle, repro
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from repro.core.service import QueryRequest  # noqa: E402
from repro.core.journal import WriteAheadJournal  # noqa: E402
from repro.core.plan_cache import PlanCache  # noqa: E402
from repro.core.resilience import ResiliencePolicy  # noqa: E402
from repro.core.warehouse import CostIntelligentWarehouse  # noqa: E402
from repro.cost.estimator import CostEstimator  # noqa: E402
from repro.obsvc.drilldown import DrillDownNavigator  # noqa: E402
from repro.dop.constraints import budget_constraint, sla_constraint  # noqa: E402
from repro.dop.planner import _IncrementalCoster  # noqa: E402
from repro.sql.binder import Binder  # noqa: E402
from repro.sql.parameterize import normalize_sql  # noqa: E402
from repro.workloads.tpch_queries import instantiate, template_names  # noqa: E402
from repro.workloads.tpch_stats import synthetic_tpch_catalog  # noqa: E402
from tests.dop.dop_oracle import (  # noqa: E402
    ColdEstimator,
    OracleDopPlanner,
    OracleOptimizer,
)

SLA_SECONDS = 12.0
BUDGET_DOLLARS = 0.05
SPEEDUP_FLOOR = 3.0
TIMING_REDUCTION_FLOOR = 5.0
#: Required optimizes/s gain of the parameterized serving path over the
#: PR 1 cached path on the literal-varying workload.
PARAMETERIZED_SPEEDUP_FLOOR = 2.0

CONSTRAINTS = (sla_constraint(SLA_SECONDS), budget_constraint(BUDGET_DOLLARS))


class IncrementalOracleDopPlanner(OracleDopPlanner):
    """The oracle's per-candidate search, each candidate priced by the
    production incremental coster (timings memoized per search, one
    full schedule per candidate)."""

    def plan(self, dag, constraint, overrides=None):
        self._coster = _IncrementalCoster(self.estimator, dag, overrides)
        return super().plan(dag, constraint, overrides)

    def _estimate(self, dag, dops, overrides):
        self.evaluations += 1
        return self._coster.estimate(dops)


def fresh_optimizer(catalog, *, cached: bool) -> OracleOptimizer:
    """The fixed pool's two modes: ``cached`` toggles the timing cache
    and the incremental coster; there is no DAG memo and no batched
    round, so the reference numbers keep meaning "the first cached
    path"."""
    if not cached:
        return OracleOptimizer(catalog, ColdEstimator(), max_dop=64)
    optimizer = OracleOptimizer(catalog, CostEstimator(), max_dop=64)
    optimizer.dop_planner = IncrementalOracleDopPlanner(optimizer.estimator)
    return optimizer


def run_fixed_pool(catalog, bounds, constraints, *, rounds: int) -> tuple[dict, dict]:
    """A/B the optimizer modes over the fixed pool (identical SQL).

    One untimed warmup pass per mode precedes measurement (the
    serving-layer metric is steady-state throughput, not
    interpreter/allocator warmup); the two modes then run in
    alternating per-round order and are compared on their fastest
    rounds, so ambient CPU noise cancels.
    """
    optimizers = {
        "baseline": fresh_optimizer(catalog, cached=False),
        "cached": fresh_optimizer(catalog, cached=True),
    }
    for optimizer in optimizers.values():
        for bound in bounds:
            for constraint in constraints:
                optimizer.optimize(bound, constraint)
        optimizer.estimator.models.timing_computations = 0

    walls: dict[str, list[float]] = {"baseline": [], "cached": []}
    choices: dict[str, list] = {"baseline": [], "cached": []}
    modes = list(optimizers)
    for round_index in range(rounds):
        ordering = modes if round_index % 2 == 0 else modes[::-1]
        for mode in ordering:
            optimizer = optimizers[mode]
            round_choices = []
            start = time.perf_counter()
            for bound in bounds:
                for constraint in constraints:
                    round_choices.append(optimizer.optimize(bound, constraint))
            walls[mode].append(time.perf_counter() - start)
            choices[mode] = round_choices

    pool_size = len(bounds) * len(constraints)

    def result(mode: str) -> dict:
        wall = sum(walls[mode])
        # Noise on a shared/single-core runner is strictly additive, so
        # (as timeit's docs recommend) the fastest round is the best
        # estimator of the true cost.
        best = min(walls[mode])
        return {
            "mode": mode,
            "optimizes": pool_size * rounds,
            "wall_s": wall,
            "mean_optimize_s": best / pool_size,
            "optimizes_per_s": pool_size / best,
            "round_walls_s": walls[mode],
            "timing_evaluations": optimizers[
                mode
            ].estimator.models.timing_computations,
            "choices": choices[mode],  # stripped before JSON
        }

    return result("baseline"), result("cached")


def literal_varying_workload(names, *, seeds: int, rounds: int) -> list[list[str]]:
    """The recurring-report traffic shape: every arrival re-issues a
    template with constants never seen before, so the exact-match plan
    cache cannot hit.  Returned in per-round chunks so the two serving
    paths can be measured interleaved (paired design — ambient CPU
    noise hits both modes alike)."""
    chunks: list[list[str]] = []
    seed = 1000  # disjoint from the fixed pool's seeds
    for _ in range(rounds):
        chunk: list[str] = []
        for name in names:
            for _ in range(seeds):
                chunk.append(instantiate(name, seed=seed))
                seed += 1
        chunks.append(chunk)
    return chunks


class ExactMatchServing:
    """The exact-match-only serving semantics: one plan cache level (the
    warehouse's default capacity; misses and evicts on this traffic),
    keys recomputed per submission, a fresh bind on every miss, no DAG
    memo, per-candidate DOP costing."""

    def __init__(self, catalog) -> None:
        self.catalog = catalog
        self.binder = Binder(catalog)
        self.optimizer = fresh_optimizer(catalog, cached=True)
        self.estimator = self.optimizer.estimator
        self.plan_cache = PlanCache(256)

    def plan(self, sql: str, constraint):
        key = (normalize_sql(sql), constraint, self.catalog.version)
        cached = self.plan_cache.lookup(key)
        if cached is not None:
            return cached
        bound = self.binder.bind_sql(sql)
        choice = self.optimizer.optimize(bound, constraint)
        self.plan_cache.store(key, bound, choice)
        return bound, choice

    def reset_cache_stats(self) -> None:
        self.plan_cache.reset_stats()


def run_literal_varying(catalog, chunks, constraints) -> tuple[dict, dict]:
    """A/B the serving paths on literal-varying traffic.

    The reference is exact-match-only serving (its plan cache misses
    on every arrival); the contender is the full
    ``CostIntelligentWarehouse`` serving path through ``Session.plan``.
    Chunks are measured alternately.
    """
    reference = ExactMatchServing(catalog)
    parameterized = CostIntelligentWarehouse(catalog=catalog, plan_cache_size=1024)
    sessions = {
        "cached": reference,
        "parameterized": parameterized.session(tenant="bench"),
    }
    for mode, warehouse in (("cached", reference), ("parameterized", parameterized)):
        # Warmup: one out-of-band instantiation per template populates
        # the skeleton cache (where present) and warms the interpreter.
        session = sessions[mode]
        for name in template_names():
            warm = instantiate(name, seed=999)
            for constraint in constraints:
                session.plan(warm, constraint)
        warehouse.estimator.models.timing_computations = 0
        warehouse.reset_cache_stats()
    stage_times = parameterized.optimizer.stage_times

    chunk_walls: dict[str, list[float]] = {"cached": [], "parameterized": []}
    choices: dict[str, list] = {"cached": [], "parameterized": []}
    pairing = [("cached", sessions["cached"]), ("parameterized", sessions["parameterized"])]
    for index, chunk in enumerate(chunks):
        # Alternate which mode goes first so ordering bias (caches,
        # frequency scaling) cancels across chunks.
        ordering = pairing if index % 2 == 0 else pairing[::-1]
        for mode, session in ordering:
            start = time.perf_counter()
            for sql in chunk:
                for constraint in constraints:
                    choices[mode].append(session.plan(sql, constraint)[1])
            chunk_walls[mode].append(time.perf_counter() - start)

    optimizes = sum(len(chunk) for chunk in chunks) * len(constraints)
    chunk_optimizes = optimizes / len(chunks)

    def result(mode: str, warehouse) -> dict:
        walls = chunk_walls[mode]
        wall = sum(walls)
        # Noise on a shared/single-core runner is strictly additive, so
        # (as timeit's docs recommend) the fastest chunk is the best
        # estimator of the true cost; the total wall is reported
        # alongside.
        best = min(walls)
        return {
            "mode": mode,
            "optimizes": optimizes,
            "wall_s": wall,
            "mean_optimize_s": best / chunk_optimizes,
            "optimizes_per_s": chunk_optimizes / best,
            "mean_optimize_total_s": wall / optimizes,
            "timing_evaluations": warehouse.estimator.models.timing_computations,
            "choices": choices[mode],
        }

    reference_result = result("cached", reference)
    parameterized_result = result("parameterized", parameterized)
    stages = {f"{name}_s": seconds for name, seconds in stage_times.items()}
    stages["bind_and_serve_s"] = sum(chunk_walls["parameterized"]) - sum(
        stage_times.values()
    )
    parameterized_result["stage_breakdown"] = stages
    parameterized_result["caches"] = parameterized.describe_caches()
    # Chunk-paired speedups: each chunk's two walls are adjacent in
    # time, so slow-drifting machine noise cancels within the pair; the
    # median over chunks resists the occasional scheduler spike.
    parameterized_result["chunk_speedups"] = [
        cached_wall / parameterized_wall
        for cached_wall, parameterized_wall in zip(
            chunk_walls["cached"], chunk_walls["parameterized"]
        )
    ]
    return reference_result, parameterized_result


#: Skeleton-cache capacity for the eviction-pressure (governed) pool —
#: deliberately smaller than the distinct templates in flight.
GOVERNED_CAPACITY = 4
#: Arrivals per phase (warmup builds the Statistics Service log the
#: forecasts read; the measured phase starts from clean counters).
GOVERNED_ARRIVALS = 45
#: Every 5th arrival re-issues the hot template; the cold sweep between
#: two hot arrivals exceeds GOVERNED_CAPACITY, so plain LRU always ages
#: the hot skeleton out before it is needed again.
GOVERNED_HOT_EVERY = 5


def governed_traffic(names, *, arrivals: int, phase: int) -> list[tuple[str, str]]:
    """(template, sql) arrivals: one hot recurring report (tenant
    "reports") interleaved with an ad-hoc sweep of every other template
    (tenant "adhoc"), all with fresh literals."""
    hot, cold = names[0], list(names[1:])
    sequence = []
    seed = 20_000 + phase * arrivals
    for index in range(arrivals):
        name = hot if index % GOVERNED_HOT_EVERY == 0 else cold[index % len(cold)]
        sequence.append((name, instantiate(name, seed=seed)))
        seed += 1
    return sequence


def run_governed(catalog, constraint) -> dict:
    """A/B the retention policies under multi-tenant eviction pressure.

    Both warehouses serve identical traffic through ``Session.submit``
    (logged, so the Statistics Service forecasts feed the cost-aware
    policy) over a skeleton cache too small for the distinct templates
    in flight.  The metric is the measured-phase skeleton hit rate;
    plans are parity-checked across policies.
    """
    names = template_names()
    results: dict[str, dict] = {}
    choices: dict[str, list] = {}
    for policy in ("lru", "cost-aware"):
        warehouse = CostIntelligentWarehouse(
            catalog=catalog,
            plan_cache_size=GOVERNED_CAPACITY,
            retention_policy=policy,
        )
        sessions = {
            "reports": warehouse.session(tenant="reports", constraint=constraint),
            "adhoc": warehouse.session(tenant="adhoc", constraint=constraint),
        }
        hot = names[0]
        clock = 0.0
        for phase in (0, 1):
            if phase == 1:
                # Measured phase: forecasts fresh, counters clean.
                warehouse.frequency.invalidate()
                warehouse.reset_cache_stats()
                choices[policy] = []
            for name, sql in governed_traffic(
                names, arrivals=GOVERNED_ARRIVALS, phase=phase
            ):
                session = sessions["reports" if name == hot else "adhoc"]
                handle = session.submit(
                    QueryRequest(
                        sql=sql, template=name, at_time=clock, simulate=False
                    )
                )
                clock += 60.0
                if phase == 1:
                    choices[policy].append(handle.result().choice)
        skeleton = warehouse.describe_caches()["skeleton_cache"]
        results[policy] = {
            "skeleton_hit_rate": skeleton["hit_rate"],
            "skeleton_hits": skeleton["hits"],
            "skeleton_evictions": skeleton["evictions"],
        }
    mismatches = check_parity(choices["lru"], choices["cost-aware"])
    return {
        "mode": "governed",
        "capacity": GOVERNED_CAPACITY,
        "templates": len(names),
        "arrivals": GOVERNED_ARRIVALS,
        "hot_template": names[0],
        "lru": results["lru"],
        "cost_aware": results["cost-aware"],
        "parity_mismatches": mismatches,
    }


#: Paired interleaved chunks for the resilient-overhead A/B.  Fixed —
#: independent of ``--rounds`` — so the median stays meaningful in
#: ``--quick`` CI runs (a single-chunk median would be one noisy draw).
RESILIENT_CHUNKS = 6
#: Hard ceiling on the fault-free cost of resilient serving: the
#: hardened path (per-request StageGuard wrapping bind/optimize) must
#: stay under 5% median paired-chunk wall overhead vs the identical
#: warehouse with resilience disabled.
RESILIENT_OVERHEAD_CEILING = 0.05


def resilient_traffic(names, *, chunks: int, seed: int = 40_000) -> list[list[str]]:
    """Literal-varying chunks for the overhead A/Bs (fresh constants per
    arrival; each A/B's seed base is disjoint from every other pool)."""
    sequence: list[list[str]] = []
    for _ in range(chunks):
        chunk: list[str] = []
        for name in names:
            chunk.append(instantiate(name, seed=seed))
            seed += 1
        sequence.append(chunk)
    return sequence


def run_resilient(catalog, constraint) -> dict:
    """A/B fault-free serving with resilience on vs off.

    Identical literal-varying traffic through ``Session.submit`` on two
    identical warehouses; the only difference is the per-request
    ``StageGuard`` (retry/deadline/fault orchestration) around the bind
    and optimize stages.  With no faults injected the guard must be
    bookkeeping only: zero retries, zero degraded outcomes, plan
    parity, and a small wall overhead.  Chunks are measured interleaved
    in alternating order and compared pairwise, so slow-drifting
    machine noise cancels within each pair and the median over chunks
    resists the occasional scheduler spike.
    """
    names = template_names()
    chunks = resilient_traffic(names, chunks=RESILIENT_CHUNKS)
    policies = {
        "bare": ResiliencePolicy(enabled=False),
        "hardened": ResiliencePolicy(),
    }
    warehouses = {
        mode: CostIntelligentWarehouse(
            catalog=catalog, plan_cache_size=1024, resilience=policy
        )
        for mode, policy in policies.items()
    }
    sessions = {
        mode: warehouse.session(tenant="bench", constraint=constraint)
        for mode, warehouse in warehouses.items()
    }
    clocks = dict.fromkeys(policies, 0.0)

    def submit(mode: str, sql: str):
        outcome = sessions[mode].submit(
            QueryRequest(sql=sql, at_time=clocks[mode], simulate=False)
        ).result()
        clocks[mode] += 60.0
        return outcome

    for mode in policies:
        # Warmup: one out-of-band instantiation per template populates
        # the caches identically and warms the interpreter.
        for name in names:
            submit(mode, instantiate(name, seed=999))

    walls: dict[str, list[float]] = {"bare": [], "hardened": []}
    choices: dict[str, list] = {"bare": [], "hardened": []}
    pairing = list(policies)
    for index, chunk in enumerate(chunks):
        ordering = pairing if index % 2 == 0 else pairing[::-1]
        for mode in ordering:
            start = time.perf_counter()
            for sql in chunk:
                choices[mode].append(submit(mode, sql).choice)
            walls[mode].append(time.perf_counter() - start)

    chunk_overheads = [
        hardened / bare - 1.0
        for bare, hardened in zip(walls["bare"], walls["hardened"])
    ]
    health = warehouses["hardened"].describe_health()["resilience"]
    return {
        "mode": "resilient",
        "queries": sum(len(chunk) for chunk in chunks),
        "chunks": RESILIENT_CHUNKS,
        "bare_wall_s": sum(walls["bare"]),
        "hardened_wall_s": sum(walls["hardened"]),
        "chunk_overheads": chunk_overheads,
        "overhead": statistics.median(chunk_overheads),
        "overhead_ceiling": RESILIENT_OVERHEAD_CEILING,
        "retries": health["retries"],
        "degraded_queries": health["degraded_queries"],
        "parity_mismatches": check_parity(choices["bare"], choices["hardened"]),
    }


#: Hard ceiling on the fault-free cost of durability: serving with a
#: write-ahead journal (one redo record appended ahead of every log
#: apply, periodic in-memory checkpoints) must stay under 5% median
#: paired-chunk wall overhead vs the identical unjournaled warehouse.
JOURNALED_OVERHEAD_CEILING = 0.05
#: Checkpoint cadence for the journaled A/B — frequent enough that the
#: measured overhead includes checkpoint construction, not just appends.
JOURNALED_CHECKPOINT_EVERY = 32


def run_journaled(catalog, constraint) -> dict:
    """A/B fault-free serving with the write-ahead journal on vs off.

    Identical literal-varying traffic through ``Session.submit`` on two
    identical warehouses; the only difference is the attached
    ``WriteAheadJournal`` (a ``QueryServed`` redo record appended before
    every log apply, plus a checkpoint every
    ``JOURNALED_CHECKPOINT_EVERY`` records).  Chunks are measured
    interleaved in alternating order and compared pairwise, exactly as
    in :func:`run_resilient`, so machine noise cancels within pairs and
    the median over chunks resists scheduler spikes.
    """
    names = template_names()
    chunks = resilient_traffic(names, chunks=RESILIENT_CHUNKS, seed=50_000)
    journal = WriteAheadJournal(checkpoint_every=JOURNALED_CHECKPOINT_EVERY)
    warehouses = {
        "bare": CostIntelligentWarehouse(catalog=catalog, plan_cache_size=1024),
        "journaled": CostIntelligentWarehouse(
            catalog=catalog, plan_cache_size=1024, journal=journal
        ),
    }
    sessions = {
        mode: warehouse.session(tenant="bench", constraint=constraint)
        for mode, warehouse in warehouses.items()
    }
    clocks = dict.fromkeys(warehouses, 0.0)

    def submit(mode: str, sql: str):
        outcome = sessions[mode].submit(
            QueryRequest(sql=sql, at_time=clocks[mode], simulate=False)
        ).result()
        clocks[mode] += 60.0
        return outcome

    for mode in warehouses:
        for name in names:
            submit(mode, instantiate(name, seed=999))

    walls: dict[str, list[float]] = {"bare": [], "journaled": []}
    choices: dict[str, list] = {"bare": [], "journaled": []}
    pairing = list(warehouses)
    for index, chunk in enumerate(chunks):
        ordering = pairing if index % 2 == 0 else pairing[::-1]
        for mode in ordering:
            start = time.perf_counter()
            for sql in chunk:
                choices[mode].append(submit(mode, sql).choice)
            walls[mode].append(time.perf_counter() - start)

    chunk_overheads = [
        journaled / bare - 1.0
        for bare, journaled in zip(walls["bare"], walls["journaled"])
    ]
    durability = warehouses["journaled"].describe_health()["durability"]
    return {
        "mode": "journaled",
        "queries": sum(len(chunk) for chunk in chunks),
        "chunks": RESILIENT_CHUNKS,
        "bare_wall_s": sum(walls["bare"]),
        "journaled_wall_s": sum(walls["journaled"]),
        "chunk_overheads": chunk_overheads,
        "overhead": statistics.median(chunk_overheads),
        "overhead_ceiling": JOURNALED_OVERHEAD_CEILING,
        "journal_records": durability["journal_records"],
        "checkpoints": durability["last_checkpoint_id"],
        "parity_mismatches": check_parity(choices["bare"], choices["journaled"]),
    }


#: Hard ceiling on the fault-free cost of scheduled cost observation:
#: serving with the snapshot collector enabled (fold the stats log into
#: a per-tenant drill-down snapshot every few queries) must stay under
#: 5% median paired-chunk wall overhead vs the identical bare warehouse.
OBSERVED_OVERHEAD_CEILING = 0.05
#: Collection cadence for the observed A/B — frequent enough that the
#: measured overhead includes real snapshot folds, not just the
#: per-query due-date check.
OBSERVED_CADENCE_QUERIES = 4
#: The true collection cost is ~1-3%, close to the 5% ceiling, so the
#: observed A/B uses more and larger paired chunks than the resilient/
#: journaled pools: per-chunk scheduler spikes average out within a
#: 3-sweep chunk and the median tightens over 12 pairs.
OBSERVED_CHUNKS = 12
OBSERVED_SWEEPS_PER_CHUNK = 3


def run_observed(catalog, constraint) -> dict:
    """A/B fault-free serving with the snapshot collector on vs off.

    Identical literal-varying traffic through ``Session.submit`` on two
    identical warehouses; the only difference is
    ``enable_collection(cadence_queries=OBSERVED_CADENCE_QUERIES)`` on
    one of them, so every few queries the collector folds the new log
    records into a per-tenant cost snapshot.  Observation must be pure
    bookkeeping: bit-identical plans, exact drill-down reconciliation
    against the ledger-unit bills, and a small wall overhead.  Chunks
    are measured interleaved in alternating order and compared
    pairwise, exactly as in :func:`run_resilient`.
    """
    names = template_names()
    sweeps = resilient_traffic(
        names, chunks=OBSERVED_CHUNKS * OBSERVED_SWEEPS_PER_CHUNK, seed=60_000
    )
    chunks = [
        [
            sql
            for sweep in sweeps[
                index * OBSERVED_SWEEPS_PER_CHUNK:
                (index + 1) * OBSERVED_SWEEPS_PER_CHUNK
            ]
            for sql in sweep
        ]
        for index in range(OBSERVED_CHUNKS)
    ]
    warehouses = {
        "bare": CostIntelligentWarehouse(catalog=catalog, plan_cache_size=1024),
        "observed": CostIntelligentWarehouse(
            catalog=catalog, plan_cache_size=1024
        ),
    }
    warehouses["observed"].enable_collection(
        cadence_queries=OBSERVED_CADENCE_QUERIES
    )
    sessions = {
        mode: warehouse.session(tenant="bench", constraint=constraint)
        for mode, warehouse in warehouses.items()
    }
    clocks = dict.fromkeys(warehouses, 0.0)

    def submit(mode: str, sql: str):
        outcome = sessions[mode].submit(
            QueryRequest(sql=sql, at_time=clocks[mode], simulate=False)
        ).result()
        clocks[mode] += 60.0
        return outcome

    for mode in warehouses:
        for name in names:
            submit(mode, instantiate(name, seed=999))

    walls: dict[str, list[float]] = {"bare": [], "observed": []}
    choices: dict[str, list] = {"bare": [], "observed": []}
    pairing = list(warehouses)
    for index, chunk in enumerate(chunks):
        ordering = pairing if index % 2 == 0 else pairing[::-1]
        for mode in ordering:
            start = time.perf_counter()
            for sql in chunk:
                choices[mode].append(submit(mode, sql).choice)
            walls[mode].append(time.perf_counter() - start)

    chunk_overheads = [
        observed / bare - 1.0
        for bare, observed in zip(walls["bare"], walls["observed"])
    ]
    observed = warehouses["observed"]
    final = observed.collector.collect_now()
    totals = DrillDownNavigator(final).reconcile()
    reconciled = all(
        units == observed.billing[tenant].total_units
        for tenant, units in totals.items()
    )
    return {
        "mode": "observed",
        "queries": sum(len(chunk) for chunk in chunks),
        "chunks": OBSERVED_CHUNKS,
        "bare_wall_s": sum(walls["bare"]),
        "observed_wall_s": sum(walls["observed"]),
        "chunk_overheads": chunk_overheads,
        "overhead": statistics.median(chunk_overheads),
        "overhead_ceiling": OBSERVED_OVERHEAD_CEILING,
        "snapshots": observed.metrics.value("repro_cost_snapshots_total"),
        "reconciled": reconciled,
        "parity_mismatches": check_parity(choices["bare"], choices["observed"]),
    }


#: Worker counts the sharded A/B sweeps: the overhead ceiling applies
#: at one worker, the speedup floor at the widest pool.
SHARDED_WORKER_COUNTS = (1, 2, 4)
SHARDED_CHUNKS = 6
SHARDED_SWEEPS_PER_CHUNK = 3
#: Required best-chunk throughput gain of process-sharded serving over
#: the threaded scheduler at the widest pool.  Planning is GIL-bound,
#: so the gain only exists with real cores to scale onto — the floor
#: binds when ``cpu_count >= 4``; smaller hosts record the numbers for
#: trend tracking with a printed note.
SHARDED_SPEEDUP_FLOOR = 2.0
#: Ceiling on single-worker dispatch overhead (task pickling + two pipe
#: hops per query), likewise enforced only when the coordinator and the
#: worker are not competing for the same core.
SHARDED_OVERHEAD_CEILING = 0.05


def run_sharded(catalog, constraint) -> dict:
    """A/B batch serving: threaded scheduler vs process-sharded pools.

    Identical literal-varying batches through ``Session.submit_many``
    on paired warehouses — one threaded, one with ``enable_sharding``
    at each worker count — measured interleaved in alternating chunk
    order like every other A/B here.  Plan parity and zero worker
    restarts are hard gates at any scale; the wall floors are
    cores-conditional (see the constants above).
    """
    names = template_names()
    seed = 70_000
    pools: dict[str, dict] = {}
    for workers in SHARDED_WORKER_COUNTS:
        sweeps = resilient_traffic(
            names, chunks=SHARDED_CHUNKS * SHARDED_SWEEPS_PER_CHUNK, seed=seed
        )
        seed += 10_000  # disjoint constants per worker count
        chunks = [
            [
                sql
                for sweep in sweeps[
                    index * SHARDED_SWEEPS_PER_CHUNK:
                    (index + 1) * SHARDED_SWEEPS_PER_CHUNK
                ]
                for sql in sweep
            ]
            for index in range(SHARDED_CHUNKS)
        ]
        warehouses = {
            "threaded": CostIntelligentWarehouse(
                catalog=catalog, plan_cache_size=1024
            ),
            "sharded": CostIntelligentWarehouse(
                catalog=catalog, plan_cache_size=1024
            ),
        }
        warehouses["sharded"].enable_sharding(workers=workers)
        try:
            sessions = {
                mode: warehouse.session(tenant="bench", constraint=constraint)
                for mode, warehouse in warehouses.items()
            }
            clocks = dict.fromkeys(warehouses, 0.0)

            def run_batch(mode: str, sqls: list[str]) -> list:
                requests = []
                for sql in sqls:
                    requests.append(
                        QueryRequest(
                            sql=sql, at_time=clocks[mode], simulate=False
                        )
                    )
                    clocks[mode] += 60.0
                handles = sessions[mode].submit_many(requests, max_workers=4)
                return [handle.result().choice for handle in handles]

            for mode in warehouses:
                # Warmup: one out-of-band sweep populates the coordinator
                # caches and (sharded) the worker-private caches alike.
                run_batch(mode, [instantiate(name, seed=999) for name in names])

            walls: dict[str, list[float]] = {"threaded": [], "sharded": []}
            choices: dict[str, list] = {"threaded": [], "sharded": []}
            pairing = list(warehouses)
            for index, chunk in enumerate(chunks):
                ordering = pairing if index % 2 == 0 else pairing[::-1]
                for mode in ordering:
                    start = time.perf_counter()
                    choices[mode].extend(run_batch(mode, chunk))
                    walls[mode].append(time.perf_counter() - start)

            pool = warehouses["sharded"].worker_pool
            chunk_size = len(chunks[0])
            chunk_overheads = [
                sharded / threaded - 1.0
                for threaded, sharded in zip(walls["threaded"], walls["sharded"])
            ]
            pools[str(workers)] = {
                "workers": workers,
                "queries": sum(len(chunk) for chunk in chunks),
                "threaded_wall_s": sum(walls["threaded"]),
                "sharded_wall_s": sum(walls["sharded"]),
                "threaded_qps": chunk_size / min(walls["threaded"]),
                "sharded_qps": chunk_size / min(walls["sharded"]),
                "speedup": min(walls["threaded"]) / min(walls["sharded"]),
                "chunk_overheads": chunk_overheads,
                "overhead": statistics.median(chunk_overheads),
                "tasks_dispatched": pool.tasks_dispatched,
                "warm_skeleton_hits": pool.warm_skeleton_hits,
                "restarts": pool.restarts,
                "parity_mismatches": check_parity(
                    choices["threaded"], choices["sharded"]
                ),
            }
        finally:
            warehouses["sharded"].disable_sharding()
    return {
        "mode": "sharded",
        "cpu_count": os.cpu_count(),
        "worker_counts": list(SHARDED_WORKER_COUNTS),
        "speedup_floor": SHARDED_SPEEDUP_FLOOR,
        "overhead_ceiling": SHARDED_OVERHEAD_CEILING,
        "pools": pools,
    }


def check_parity(reference_choices, fast_choices) -> int:
    """Count plan/estimate mismatches between two choice sequences."""
    mismatches = 0
    for a, b in zip(reference_choices, fast_choices):
        ea, eb = a.dop_plan.estimate, b.dop_plan.estimate
        same = (
            a.dop_plan.dops == b.dop_plan.dops
            and a.variant_index == b.variant_index
            and ea.latency == eb.latency
            and ea.machine_seconds == eb.machine_seconds
            and ea.dollars == eb.dollars
            and ea.scan_request_dollars == eb.scan_request_dollars
        )
        mismatches += 0 if same else 1
    return mismatches


def fresh_reference_choices(catalog, workload, constraints) -> list:
    """Bit-identity oracle for the literal-varying fast paths: a fresh
    bind + cold, uncached oracle optimization of every arrival."""
    optimizer = fresh_optimizer(catalog, cached=False)
    binder = Binder(catalog)
    choices = []
    for sql in workload:
        bound = binder.bind_sql(sql)
        for constraint in constraints:
            choices.append(optimizer.optimize(bound, constraint))
    return choices


def print_result(result: dict) -> None:
    print(
        f"{result['mode']:>13}: {result['optimizes_per_s']:8.1f} optimizes/s, "
        f"mean {result['mean_optimize_s'] * 1e3:6.2f} ms, "
        f"{result['timing_evaluations']:6d} timing evaluations"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="small pool + 1 round (CI smoke)"
    )
    parser.add_argument("--sf", type=float, default=100.0, help="stats scale factor")
    parser.add_argument("--rounds", type=int, default=8, help="pool repetitions")
    parser.add_argument(
        "--seeds", type=int, default=3, help="parameter instantiations per template"
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_optimizer.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--serving-output", default=str(REPO_ROOT / "BENCH_serving.json"),
        help="where to write the sharded-serving JSON report",
    )
    parser.add_argument(
        "--no-assert", action="store_true",
        help="report only; do not enforce speedup floors",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.rounds = 1
        args.seeds = 1
    if args.seeds < 1 or args.rounds < 1:
        parser.error("--seeds and --rounds must be >= 1")

    catalog = synthetic_tpch_catalog(
        args.sf, cluster_keys={"lineitem": "l_shipdate", "orders": "o_orderdate"}
    )
    binder = Binder(catalog)
    names = template_names()
    bounds = [
        binder.bind_sql(instantiate(name, seed=seed))
        for name in names
        for seed in range(1, args.seeds + 1)
    ]
    constraints = list(CONSTRAINTS)
    print(
        f"fixed pool: {len(names)} templates x {args.seeds} seeds x "
        f"{len(constraints)} constraints, SF {args.sf:g}, {args.rounds} round(s)"
    )

    baseline, cached = run_fixed_pool(
        catalog, bounds, constraints, rounds=args.rounds
    )
    mismatches = check_parity(baseline.pop("choices"), cached.pop("choices"))

    speedup = baseline["mean_optimize_s"] / cached["mean_optimize_s"]
    reduction = baseline["timing_evaluations"] / max(1, cached["timing_evaluations"])
    for result in (baseline, cached):
        print_result(result)
    print(
        f"speedup {speedup:.2f}x wall, {reduction:.2f}x fewer timing evaluations, "
        f"{mismatches} parity mismatches"
    )

    chunks = literal_varying_workload(names, seeds=args.seeds, rounds=args.rounds)
    workload = [sql for chunk in chunks for sql in chunk]
    print(
        f"\nliteral-varying pool: {len(workload)} arrivals x "
        f"{len(constraints)} constraints (every arrival has fresh constants)"
    )
    lv_cached, lv_param = run_literal_varying(catalog, chunks, constraints)
    reference = fresh_reference_choices(catalog, workload, constraints)
    lv_mismatches = check_parity(reference, lv_cached.pop("choices"))
    param_mismatches = check_parity(reference, lv_param.pop("choices"))
    param_speedup = lv_cached["mean_optimize_s"] / lv_param["mean_optimize_s"]
    for result in (lv_cached, lv_param):
        print_result(result)
    stages = lv_param["stage_breakdown"]
    print(
        "parameterized stage breakdown: "
        + ", ".join(f"{k[:-2]}={v * 1e3:.1f}ms" for k, v in stages.items())
    )
    skeleton = lv_param["caches"]["skeleton_cache"]
    print(
        f"parameterized speedup {param_speedup:.2f}x wall vs cached "
        f"(best of {len(lv_param['chunk_speedups'])} interleaved chunks per mode), "
        f"skeleton hit rate {skeleton['hit_rate']:.0%}, "
        f"{lv_mismatches}+{param_mismatches} parity mismatches"
    )

    governed = run_governed(catalog, sla_constraint(SLA_SECONDS))
    print(
        f"\ngoverned pool (eviction pressure, cache capacity "
        f"{governed['capacity']} over {governed['templates']} templates): "
        f"skeleton hit rate lru {governed['lru']['skeleton_hit_rate']:.0%} vs "
        f"cost-aware {governed['cost_aware']['skeleton_hit_rate']:.0%}, "
        f"{governed['parity_mismatches']} parity mismatches"
    )

    resilient = run_resilient(catalog, sla_constraint(SLA_SECONDS))
    print(
        f"\nresilient pool (fault-free overhead A/B, {resilient['queries']} "
        f"submits over {resilient['chunks']} paired chunks): median overhead "
        f"{resilient['overhead']:+.1%} (ceiling "
        f"{RESILIENT_OVERHEAD_CEILING:.0%}), {resilient['retries']} retries, "
        f"{resilient['degraded_queries']} degraded, "
        f"{resilient['parity_mismatches']} parity mismatches"
    )

    journaled = run_journaled(catalog, sla_constraint(SLA_SECONDS))
    print(
        f"\njournaled pool (fault-free overhead A/B, {journaled['queries']} "
        f"submits over {journaled['chunks']} paired chunks): median overhead "
        f"{journaled['overhead']:+.1%} (ceiling "
        f"{JOURNALED_OVERHEAD_CEILING:.0%}), {journaled['journal_records']} "
        f"journal records, {journaled['checkpoints']} checkpoints, "
        f"{journaled['parity_mismatches']} parity mismatches"
    )

    observed = run_observed(catalog, sla_constraint(SLA_SECONDS))
    print(
        f"\nobserved pool (fault-free overhead A/B, {observed['queries']} "
        f"submits over {observed['chunks']} paired chunks): median overhead "
        f"{observed['overhead']:+.1%} (ceiling "
        f"{OBSERVED_OVERHEAD_CEILING:.0%}), {observed['snapshots']} "
        f"snapshots, reconciled={observed['reconciled']}, "
        f"{observed['parity_mismatches']} parity mismatches"
    )

    sharded = run_sharded(catalog, sla_constraint(SLA_SECONDS))
    print(
        f"\nsharded pool (threaded-vs-process A/B, "
        f"{sharded['cpu_count']} host core(s)):"
    )
    for pool_result in sharded["pools"].values():
        print(
            f"  {pool_result['workers']} worker(s): "
            f"{pool_result['sharded_qps']:7.1f} qps vs "
            f"{pool_result['threaded_qps']:7.1f} threaded "
            f"(speedup {pool_result['speedup']:.2f}x, median overhead "
            f"{pool_result['overhead']:+.1%}), "
            f"{pool_result['warm_skeleton_hits']} warm skeleton hits, "
            f"{pool_result['restarts']} restart(s), "
            f"{pool_result['parity_mismatches']} parity mismatches"
        )

    total_mismatches = (
        mismatches
        + lv_mismatches
        + param_mismatches
        + governed["parity_mismatches"]
        + resilient["parity_mismatches"]
        + journaled["parity_mismatches"]
        + observed["parity_mismatches"]
        + sum(p["parity_mismatches"] for p in sharded["pools"].values())
    )
    report = {
        "benchmark": "optimizer_throughput",
        "scale_factor": args.sf,
        "templates": len(names),
        "seeds": args.seeds,
        "rounds": args.rounds,
        "baseline": baseline,
        "cached": cached,
        "speedup_wall": speedup,
        "timing_evaluation_reduction": reduction,
        "literal_varying_queries": len(workload) * len(constraints),
        "cached_literal_varying": lv_cached,
        "parameterized": lv_param,
        "parameterized_speedup_wall": param_speedup,
        "governed": governed,
        "resilient": resilient,
        "journaled": journaled,
        "observed": observed,
        "sharded": sharded,
        "parity_mismatches": total_mismatches,
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")
    serving_report = {
        "benchmark": "sharded_serving",
        "scale_factor": args.sf,
        "quick": args.quick,
        **sharded,
    }
    Path(args.serving_output).write_text(
        json.dumps(serving_report, indent=2) + "\n"
    )
    print(f"wrote {args.serving_output}")

    if total_mismatches:
        print("FAIL: a fast path diverged from fresh plans/estimates")
        return 1
    if not args.no_assert:
        # The cost-aware hit rate itself varies a few points run to run
        # (retention scores use *measured* planning seconds), but the
        # gate is on the direction only, and the gap over LRU's 0% is an
        # order of magnitude wider than the wobble — enforce at any SF
        # and in quick mode alike.
        if (
            governed["cost_aware"]["skeleton_hit_rate"]
            <= governed["lru"]["skeleton_hit_rate"]
        ):
            print(
                "FAIL: cost-aware skeleton hit rate "
                f"{governed['cost_aware']['skeleton_hit_rate']:.0%} does not "
                f"exceed LRU's {governed['lru']['skeleton_hit_rate']:.0%} "
                "under eviction pressure"
            )
            return 1
        # Fault-free resilient serving must be bookkeeping only —
        # retries/degradations here mean a guard misfires without
        # faults (deterministic, enforced at any SF and in quick mode).
        if resilient["retries"] or resilient["degraded_queries"]:
            print(
                "FAIL: fault-free resilient serving "
                f"retried {resilient['retries']} time(s) / degraded "
                f"{resilient['degraded_queries']} query(ies)"
            )
            return 1
        if resilient["overhead"] >= RESILIENT_OVERHEAD_CEILING:
            print(
                f"FAIL: resilient serving overhead {resilient['overhead']:+.1%} "
                f">= {RESILIENT_OVERHEAD_CEILING:.0%} ceiling"
            )
            return 1
        # Durability must actually journal (a silently detached journal
        # would gate nothing) and stay near-free in fault-free serving.
        if not journaled["journal_records"] or not journaled["checkpoints"]:
            print(
                "FAIL: journaled A/B recorded "
                f"{journaled['journal_records']} records / "
                f"{journaled['checkpoints']} checkpoints"
            )
            return 1
        if journaled["overhead"] >= JOURNALED_OVERHEAD_CEILING:
            print(
                f"FAIL: journaled serving overhead {journaled['overhead']:+.1%} "
                f">= {JOURNALED_OVERHEAD_CEILING:.0%} ceiling"
            )
            return 1
        # Observation must actually observe (a never-firing collector
        # would gate nothing) and reconcile exactly against the bills.
        if not observed["snapshots"] or not observed["reconciled"]:
            print(
                "FAIL: observed A/B collected "
                f"{observed['snapshots']} snapshots / "
                f"reconciled={observed['reconciled']}"
            )
            return 1
        if observed["overhead"] >= OBSERVED_OVERHEAD_CEILING:
            print(
                f"FAIL: observed serving overhead {observed['overhead']:+.1%} "
                f">= {OBSERVED_OVERHEAD_CEILING:.0%} ceiling"
            )
            return 1
        # A fault-free sharded A/B must never restart a worker: a
        # restart here means a crash or hang in steady-state serving.
        sharded_restarts = sum(
            p["restarts"] for p in sharded["pools"].values()
        )
        if sharded_restarts:
            print(
                f"FAIL: fault-free sharded serving restarted workers "
                f"{sharded_restarts} time(s)"
            )
            return 1
    if args.sf < 100.0 and not args.no_assert:
        # Small catalogs shrink the DOP search (plans are cheap at DOP 1),
        # so estimation is a smaller share of optimize time and the
        # SF-100-calibrated floors don't apply.
        print(f"note: floors calibrated for SF >= 100, skipping at SF {args.sf:g}")
        return 0
    if not args.no_assert:
        if args.quick:
            # One noisy round on a shared runner can't support a
            # wall-clock assertion; quick mode gates on the
            # deterministic metrics (evaluation counts + parity) only.
            print("note: --quick skips the wall-speedup floors (single round)")
        else:
            if speedup < SPEEDUP_FLOOR:
                print(f"FAIL: wall speedup {speedup:.2f}x < {SPEEDUP_FLOOR}x floor")
                return 1
            if param_speedup < PARAMETERIZED_SPEEDUP_FLOOR:
                print(
                    f"FAIL: parameterized speedup {param_speedup:.2f}x "
                    f"< {PARAMETERIZED_SPEEDUP_FLOOR}x floor"
                )
                return 1
        if reduction < TIMING_REDUCTION_FLOOR:
            print(
                f"FAIL: timing-evaluation reduction {reduction:.2f}x "
                f"< {TIMING_REDUCTION_FLOOR}x floor"
            )
            return 1
        cores = sharded["cpu_count"] or 1
        if cores < 4:
            print(
                f"note: {cores} host core(s) cannot scale a process pool; "
                "skipping the sharded wall floors (recorded for trend only)"
            )
        elif not args.quick:
            widest = sharded["pools"][str(max(SHARDED_WORKER_COUNTS))]
            single = sharded["pools"]["1"]
            if widest["speedup"] < SHARDED_SPEEDUP_FLOOR:
                print(
                    f"FAIL: sharded speedup {widest['speedup']:.2f}x at "
                    f"{widest['workers']} workers < "
                    f"{SHARDED_SPEEDUP_FLOOR}x floor"
                )
                return 1
            if single["overhead"] >= SHARDED_OVERHEAD_CEILING:
                print(
                    f"FAIL: single-worker dispatch overhead "
                    f"{single['overhead']:+.1%} >= "
                    f"{SHARDED_OVERHEAD_CEILING:.0%} ceiling"
                )
                return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
