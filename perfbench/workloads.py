"""Served-query workloads: input generation, warehouse set-up and the
closed-loop client.

Every input is generated from the workload seed before timing starts;
the warehouse only ever sees SQL text, constraints, tenants and virtual
arrival times.  One client drives the public serving API in a closed
loop: it sends the next request (``Session.submit``) or batch
(``Session.submit_many``) only after the previous reply, the way a
report scheduler or a dashboard user waits for results.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from hostspeed import ScaledClock
from repro.core.governance import TenantBudget
from repro.core.journal import WriteAheadJournal
from repro.core.service import QueryRequest, QueryState
from repro.core.warehouse import CostIntelligentWarehouse
from repro.dop.constraints import budget_constraint, sla_constraint
from repro.tuning.service import TuningPolicy
from repro.util.rng import derive_rng
from repro.workloads.adhoc import AdhocQueryGenerator
from repro.workloads.tpch_queries import QUERY_TEMPLATES, template_names
from repro.workloads.tpch_stats import synthetic_tpch_catalog

SCALE_FACTOR = 100.0
CLUSTER_KEYS = {"lineitem": "l_shipdate", "orders": "o_orderdate"}
TENANTS = ("tenant-a", "tenant-b", "tenant-c")
#: Recurring templates alternate between the two constraints from one
#: instance to the next, ad-hoc arrivals from one arrival to the next.
#: Both are tight enough that some templates miss them for some literals,
#: so the met fractions move when a change alters which plans or DOPs
#: are served.
SLA = sla_constraint(8.0)
BUDGET = budget_constraint(0.004)
#: Every ``REISSUE_EVERY``-th recurring arrival re-issues a recent query
#: verbatim (a dashboard refresh).
REISSUE_EVERY = 4
#: Virtual seconds between arrivals (the warehouse clock, not wall time).
ARRIVAL_GAP_S = 60.0
#: Untimed warm-up arrivals: enough to fill the 256-entry serving caches.
WARMUP_ARRIVALS = 256
#: Quality metrics, counts and per-layer figures cover exactly the first
#: ``PREFIX`` requests of the timed window, so they repeat per seed
#: however fast the window runs.  Every run serves at least this many.
PREFIX = 2000
#: ``ops_batch`` batch size.
BATCH_SIZE = 25
#: Requests per timed slice; the host's speed is sampled between slices
#: (see ``hostspeed``).  A multiple of ``BATCH_SIZE`` that divides
#: ``PREFIX``.
SLICE = 50
#: ``ops_batch`` write side.
CHECKPOINT_EVERY = 500
COLLECT_EVERY = 100
TUNE_EVERY = 250
#: ``ops_batch`` tenant budgets in dollars (serving plus background
#: tuning spend).  ``tenant-c``'s budget runs out partway through the
#: prefix, so it escalates THROTTLE -> DEFER -> DENY deterministically.
OPS_BUDGETS = {"tenant-a": 1_000.0, "tenant-b": 1_000.0, "tenant-c": 0.8}


@dataclass
class Inputs:
    """One workload's generated inputs."""

    warmup: list[QueryRequest]
    arrivals: list[QueryRequest]
    batch_size: int | None
    #: Distinct skeleton keys (literal-free template, constraint kind)
    #: and exact keys (SQL, constraint) in the first ``PREFIX`` arrivals:
    #: the working set to set against the cache capacity.
    skeleton_keys: int = 0
    exact_keys: int = 0


def _recurring(seed: int, label: str, count: int, start: int) -> list[QueryRequest]:
    """Recurring-report traffic from three tenants over the ten TPC-H
    templates.

    Fresh instantiations and verbatim re-issues each walk the templates
    in seed-shuffled blocks of ten, and each template alternates between
    the SLA and the budget constraint, so every seed serves the same
    template and constraint mix; literals, order and tenants differ.
    A re-issue repeats the latest instance of its template.
    """
    rng = derive_rng(seed, "perfbench", label)
    names = template_names()
    fresh: list[str] = []
    reissues: list[str] = []
    latest: dict[str, QueryRequest] = {}
    instances = dict.fromkeys(names, 0)
    requests = []
    for offset in range(count):
        at_time = (start + offset) * ARRIVAL_GAP_S
        if offset % REISSUE_EVERY == REISSUE_EVERY - 1:
            if not reissues:
                reissues = [str(name) for name in rng.permutation(names)]
            if reissues[-1] in latest:
                prior = latest[reissues.pop()]
                requests.append(prior.replace(at_time=at_time))
                continue
        if not fresh:
            fresh = [str(name) for name in rng.permutation(names)]
        name = fresh.pop()
        instances[name] += 1
        request = QueryRequest(
            sql=QUERY_TEMPLATES[name].instantiate(rng),
            constraint=SLA if instances[name] % 2 else BUDGET,
            template=name,
            at_time=at_time,
            tenant=TENANTS[offset % len(TENANTS)],
        )
        latest[name] = request
        requests.append(request)
    return requests


def _adhoc(seed: int, label: str, count: int, start: int) -> list[QueryRequest]:
    """One-off star joins; constraints alternate, tenants rotate."""
    generator = AdhocQueryGenerator(
        seed=int(derive_rng(seed, "perfbench", label).integers(2**31))
    )
    return [
        QueryRequest(
            sql=generator.next_query(),
            constraint=SLA if offset % 2 == 0 else BUDGET,
            at_time=(start + offset) * ARRIVAL_GAP_S,
            tenant=TENANTS[offset % len(TENANTS)],
        )
        for offset in range(count)
    ]


def make_inputs(workload: str, seed: int, count: int) -> Inputs:
    """Generate the warm-up and ``count`` timed arrivals for a workload."""
    from repro.sql.parameterize import parameterize_sql

    generate = _adhoc if workload == "adhoc" else _recurring
    warmup = generate(seed, f"{workload}/warmup", WARMUP_ARRIVALS, 0)
    arrivals = generate(seed, f"{workload}/timed", count, WARMUP_ARRIVALS)
    prefix = arrivals[:PREFIX]
    # The undecorated function, so the program's parameterization cache
    # stays as cold as a real client would leave it.
    parameterize = parameterize_sql.__wrapped__
    skeletons = {
        (parameterize(r.sql).template_key, r.constraint.is_sla) for r in prefix
    }
    return Inputs(
        warmup=warmup,
        arrivals=arrivals,
        batch_size=BATCH_SIZE if workload == "ops_batch" else None,
        skeleton_keys=len(skeletons),
        exact_keys=len({(r.sql, r.constraint) for r in prefix}),
    )


def build_catalog():
    return synthetic_tpch_catalog(SCALE_FACTOR, cluster_keys=dict(CLUSTER_KEYS))


def ops_batch_kwargs() -> dict:
    """``ops_batch`` constructor arguments besides the catalog and the
    journal (recovery rebuilds the warehouse with them)."""
    return {
        "tuning_policy": TuningPolicy(cadence_queries=TUNE_EVERY, auto_apply=True),
        "tenant_budgets": {
            tenant: TenantBudget(dollars=dollars)
            for tenant, dollars in OPS_BUDGETS.items()
        },
    }


def build_warehouse(workload: str, catalog) -> CostIntelligentWarehouse:
    """The warehouse a workload is served by, write side included."""
    if workload != "ops_batch":
        return CostIntelligentWarehouse(catalog=catalog)
    warehouse = CostIntelligentWarehouse(
        catalog=catalog,
        journal=WriteAheadJournal(checkpoint_every=CHECKPOINT_EVERY),
        **ops_batch_kwargs(),
    )
    warehouse.enable_collection(cadence_queries=COLLECT_EVERY)
    return warehouse


def warm_up(
    warehouse: CostIntelligentWarehouse, inputs: Inputs, clock: ScaledClock
) -> None:
    """Serve the warm-up arrivals as a separate tenant (no budget), the
    same way the timed window will, so caches and lazy state are filled.
    Each slice of ``SLICE`` requests is timed on ``clock``."""
    requests = [r.replace(tenant="warmup") for r in inputs.warmup]
    session = warehouse.session(tenant="warmup")
    batch = inputs.batch_size or 1
    handles = []
    for first in range(0, len(requests), SLICE):
        started = time.perf_counter()
        for start in range(first, min(first + SLICE, len(requests)), batch):
            if inputs.batch_size is None:
                handles.append(session.submit(requests[start]))
            else:
                handles += session.submit_many(requests[start:start + batch])
        clock.add(time.perf_counter() - started)
    failed = [h for h in handles if h.state is not QueryState.DONE]
    if failed:
        raise RuntimeError(f"warm-up query failed: {failed[0].describe()}")


def set_up(workload: str, inputs: Inputs, clock: ScaledClock) -> CostIntelligentWarehouse:
    """Catalog, warehouse and warm-up, timed on ``clock``."""
    started = time.perf_counter()
    warehouse = build_warehouse(workload, build_catalog())
    clock.add(time.perf_counter() - started)
    warm_up(warehouse, inputs, clock)
    return warehouse


class PrefixRow(NamedTuple):
    """What the client keeps of one prefix request."""

    served: bool
    is_sla: bool
    #: Whether the outcome honoured the constraint; a refused or failed
    #: request misses it.
    met: bool
    #: Simulated billed dollars (served requests only).
    dollars: float | None
    retries: int
    degraded: bool
    stage_timings: dict[str, float]

    @classmethod
    def of(cls, handle) -> "PrefixRow":
        outcome = handle.result() if handle.state is QueryState.DONE else None
        return cls(
            served=outcome is not None,
            is_sla=handle.request.constraint.is_sla,
            met=outcome is not None and outcome.constraint_met,
            dollars=outcome.record.dollars if outcome is not None else None,
            retries=handle.retries,
            degraded=handle.degraded,
            stage_timings=dict(handle.stage_timings),
        )


@dataclass
class Window:
    """What the client saw during one timed window.

    Wall and CPU seconds are summed over the slices of requests, without
    the host-speed samples between them; ``scaled_*`` and ``latencies``
    are scaled to the reference host slice by slice.
    """

    elapsed_s: float = 0.0
    cpu_s: float = 0.0
    scaled_elapsed_s: float = 0.0
    scaled_cpu_s: float = 0.0
    #: Per served query: seconds from request to reply, scaled and raw.
    latencies: list[float] = field(default_factory=list)
    raw_latencies: list[float] = field(default_factory=list)
    attempted: int = 0
    served: int = 0
    failed: int = 0
    denied: int = 0
    #: One row per prefix request, in arrival order.
    prefix_rows: list[PrefixRow] = field(default_factory=list)
    #: Wall seconds of the slices that served the prefix.
    prefix_elapsed_s: float = 0.0
    #: ``perf_counter`` when the prefix finished.
    prefix_end: float = 0.0
    #: Served outcomes kept for the correctness gate, by arrival index,
    #: with the catalog version they were planned under.
    samples: dict[int, tuple] = field(default_factory=dict)
    #: ``describe_caches()`` and timing-model evaluations at window
    #: start and at prefix end.
    caches_before: dict = field(default_factory=dict)
    caches_at_prefix: dict = field(default_factory=dict)
    timing_evals_before: int = 0
    timing_evals_at_prefix: int = 0
    #: Peak resident set size once the prefix was served (a fixed amount
    #: of work, unlike the whole window).
    peak_rss_mb: float = 0.0


def serve(
    warehouse: CostIntelligentWarehouse,
    inputs: Inputs,
    seconds: float,
    sample_indices: frozenset[int],
    on_request=None,
) -> Window:
    """Run the closed-loop client for ``seconds`` wall seconds (and at
    least ``PREFIX`` requests), in slices of ``SLICE`` requests.

    ``on_request(index)`` is called before each request or batch (the
    tracer uses it to tag spans with a request id).  Arrivals wrap
    around, with virtual times kept increasing, if a fast program
    exhausts the generated stream.
    """
    arrivals = inputs.arrivals
    batch = inputs.batch_size or 1
    sessions = {tenant: warehouse.session(tenant=tenant) for tenant in TENANTS}
    batch_session = warehouse.session(tenant="ops")
    window = Window()
    window.caches_before = warehouse.describe_caches()
    window.timing_evals_before = warehouse.estimator.models.timing_computations
    index = 0
    clock = ScaledClock()
    start = time.perf_counter()
    while True:
        latencies = []
        slice_start = time.perf_counter()
        cpu_start = time.process_time()
        for _ in range(SLICE // batch):
            requests = []
            for offset in range(index, index + batch):
                request = arrivals[offset % len(arrivals)]
                if offset >= len(arrivals):
                    request = request.replace(
                        at_time=(WARMUP_ARRIVALS + offset) * ARRIVAL_GAP_S
                    )
                requests.append(request)
            if on_request is not None:
                on_request(index)
            version = warehouse.catalog.version
            if inputs.batch_size is None:
                sent = time.perf_counter()
                handle = sessions[requests[0].tenant].submit(requests[0])
                replies = [(handle, time.perf_counter() - sent)]
            else:
                handles = batch_session.submit_many(requests)
                replies = [(h, sum(h.stage_timings.values())) for h in handles]
            for handle, latency in replies:
                state = handle.state
                if state is QueryState.DONE:
                    window.served += 1
                    latencies.append(latency)
                elif state is QueryState.DENIED:
                    window.denied += 1
                else:
                    window.failed += 1
                if index < PREFIX:
                    window.prefix_rows.append(PrefixRow.of(handle))
                    if index in sample_indices and state is QueryState.DONE:
                        window.samples[index] = (handle.result(), version)
                index += 1
        slice_end = time.perf_counter()
        wall = slice_end - slice_start
        cpu = time.process_time() - cpu_start
        if index == PREFIX:
            window.prefix_end = slice_end
            window.prefix_elapsed_s = window.elapsed_s + wall
            window.caches_at_prefix = warehouse.describe_caches()
            window.timing_evals_at_prefix = (
                warehouse.estimator.models.timing_computations
            )
            window.peak_rss_mb = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            )
        factor = clock.add(wall)
        window.elapsed_s += wall
        window.cpu_s += cpu
        window.scaled_elapsed_s += wall * factor
        window.scaled_cpu_s += cpu * factor
        window.raw_latencies += latencies
        window.latencies += [latency * factor for latency in latencies]
        if index >= PREFIX and time.perf_counter() - start >= seconds:
            break
    window.attempted = index
    return window
