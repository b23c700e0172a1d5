"""Correctness gate, run after the timed window.

1. Served plans against a cold oracle: a sample of each workload's
   served queries is planned and simulated again by a warehouse that has
   never served anything, with ``use_plan_cache=False``.  DOPs, join
   tree, variant, estimate and simulated latency and dollars must be
   bit-identical.
2. ``ops_batch`` only: the final cost snapshot's drill-down reconciles
   exactly with every tenant's ledger-unit bill, and
   ``CostIntelligentWarehouse.recover`` rebuilds every bill bitwise from
   the journal.

On ``ops_batch`` the tuning layer changes the catalog (views,
reclustering) while the window runs, so the oracle for a plan must see
the catalog the plan was made under.  Sampled window plans made before
the first change are checked against a fresh warehouse; then the client
serves untimed batches until one completes without a catalog change,
and those plans are checked against the recovered warehouse, which
holds the final catalog and applied views.
"""

from __future__ import annotations

from repro.core.service import QueryRequest, QueryState
from repro.core.warehouse import CostIntelligentWarehouse
from repro.obsvc.drilldown import DrillDownNavigator, ReconciliationError
from repro.util.rng import derive_rng

from workloads import (
    ARRIVAL_GAP_S,
    BATCH_SIZE,
    PREFIX,
    WARMUP_ARRIVALS,
    build_catalog,
    ops_batch_kwargs,
)

#: Window queries per run whose plans are checked against the oracle.
SAMPLES = 40
#: Untimed batches ``ops_batch`` may serve to find one that no tuning
#: cycle follows with a catalog change.
MAX_GATE_BATCHES = 20


def sample_indices(seed: int, workload: str) -> frozenset[int]:
    rng = derive_rng(seed, "perfbench", workload, "gate")
    return frozenset(int(i) for i in rng.choice(PREFIX, size=SAMPLES, replace=False))


def _mismatch(served, oracle) -> str | None:
    """Why two outcomes of one request differ, or ``None``."""
    a, b = served.choice, oracle.choice
    checks = (
        ("DOPs", a.dop_plan.dops, b.dop_plan.dops),
        ("join tree", a.join_tree, b.join_tree),
        ("variant", a.variant_index, b.variant_index),
        ("estimate", a.dop_plan.estimate, b.dop_plan.estimate),
        ("simulated latency", served.sim.latency, oracle.sim.latency),
        ("simulated dollars", served.sim.total_dollars, oracle.sim.total_dollars),
    )
    for what, left, right in checks:
        if left != right:
            return what
    return None


def _check_plans(
    label: str, oracle: CostIntelligentWarehouse, outcomes, errors: list[str]
) -> int:
    session = oracle.session(tenant="oracle")
    for outcome in outcomes:
        handle = session.submit(
            QueryRequest(
                sql=outcome.sql,
                constraint=outcome.constraint,
                use_plan_cache=False,
            )
        )
        if handle.state is not QueryState.DONE:
            errors.append(f"{label} oracle failed on {outcome.sql[:60]!r}: {handle.error}")
            continue
        why = _mismatch(outcome, handle.result())
        if why is not None:
            errors.append(f"{why} differ from the {label} oracle for {outcome.sql[:60]!r}")
    return len(outcomes)


def check(workload: str, warehouse, inputs, window) -> tuple[list[str], dict]:
    """Run the gate; returns the mismatches found and what was checked."""
    errors: list[str] = []
    pristine = build_catalog()
    fresh = [
        outcome
        for outcome, version in window.samples.values()
        if version == pristine.version
    ]
    checked = {
        "fresh_oracle_plans": _check_plans(
            "fresh", CostIntelligentWarehouse(catalog=pristine), fresh, errors
        )
    }
    if workload != "ops_batch":
        return errors, checked

    # Untimed batches continuing the stream, until one is not followed
    # by a catalog change.
    session = warehouse.session(tenant="ops")
    served = []
    index = window.attempted
    for _ in range(MAX_GATE_BATCHES):
        requests = [
            inputs.arrivals[offset % len(inputs.arrivals)].replace(
                at_time=(WARMUP_ARRIVALS + offset) * ARRIVAL_GAP_S
            )
            for offset in range(index, index + BATCH_SIZE)
        ]
        index += BATCH_SIZE
        version = warehouse.catalog.version
        handles = session.submit_many(requests)
        if warehouse.catalog.version == version:
            served = [h.result() for h in handles if h.state is QueryState.DONE]
            break
    else:
        errors.append(f"the catalog changed after each of {MAX_GATE_BATCHES} batches")

    try:
        totals = DrillDownNavigator(warehouse.collector.collect_now()).reconcile()
    except ReconciliationError as exc:
        errors.append(f"drill-down does not reconcile: {exc}")
        totals = {}
    for tenant, bill in warehouse.billing.items():
        if totals.get(tenant) != bill.total_units:
            errors.append(f"drill-down total for {tenant} differs from its bill")
    checked["reconciled_tenants"] = len(totals)

    # Recovered without the tuning policy: the oracle's own submissions
    # must not start a tuning cycle that changes the shared catalog.
    recovered = CostIntelligentWarehouse.recover(
        warehouse.journal,
        catalog=warehouse.catalog,
        tenant_budgets=ops_batch_kwargs()["tenant_budgets"],
    )
    live = {t: b.ledger_snapshot() for t, b in warehouse.billing.items()}
    replayed = {t: b.ledger_snapshot() for t, b in recovered.billing.items()}
    if live != replayed:
        errors.append("recovered bills differ from the live bills")
    checked["recovered_bills"] = len(live)
    checked["recovered_oracle_plans"] = _check_plans(
        "recovered", recovered, served, errors
    )
    return errors, checked
