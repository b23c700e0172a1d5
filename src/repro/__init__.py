"""repro: a cost-intelligent cloud data warehouse.

Reproduction of Zhang, Liu, Yan — *Cost-Intelligent Data Analytics in
the Cloud* (CIDR 2024).  The package implements the paper's architecture
end to end: a SQL frontend and classical DAG-planning optimizer, the
per-operator cost estimator with a query-level simulator (§3.1), the
bi-objective optimizer with per-pipeline DOP planning and bushy-variant
exploration (§3.2), a DOP monitor with pipeline-granular dynamic
resizing over a discrete-event cluster simulator (§3.3), and the
Statistics/What-If services for cost-oriented auto-tuning (§4).

Serving goes through per-tenant sessions: build a frozen
:class:`QueryRequest`, submit it, and get a :class:`QueryHandle` whose
lifecycle runs ``QUEUED -> BOUND -> PLANNED -> SIMULATED -> DONE`` with
per-stage timings; ``result()`` yields the :class:`QueryOutcome` (plan,
latency, auditable dollars).  Batches plan concurrently via the
:class:`ServingScheduler`, bit-identical to sequential submission.

Resource governance makes both of the serving stack's resource
decisions cost-driven: plan-cache retention is a pluggable
:class:`RetentionPolicy` (default :class:`LruPolicy`; the
:class:`CostAwarePolicy` keeps templates alive by forecast frequency x
re-optimization cost saved, and ``warehouse.warm_cache`` pre-plans the
hottest forecast templates), and per-tenant :class:`TenantBudget` dollar
ceilings are enforced by an :class:`AdmissionController` whose verdicts
escalate admit -> throttle -> defer -> deny (a denial is a typed
:class:`AdmissionDeniedError` and a ``DENIED`` handle state, never a
failure of other tenants' work).

Auto-tuning mirrors that model: ``warehouse.tuning`` is a persistent
:class:`TuningService` whose ``propose()`` returns typed
:class:`Recommendation`\\ s (``PROPOSED -> ACCEPTED -> APPLYING ->
APPLIED / REJECTED / ROLLED_BACK / FAILED``) carrying their What-If
dollar reports; ``apply()`` runs on background compute with spend
metered per tenant, and ``rollback()`` restores bit-identical plans and
catalog state.  A :class:`TuningPolicy` drives recurring cycles from the
serving layer.

Failure-domain hardening: a :class:`ResiliencePolicy` on the warehouse
gives every request bounded, budget-aware retries with deterministic
seeded backoff (:class:`RetryPolicy`; retry dollars land on the tenant's
bill), per-request/per-stage deadlines (an ``optimize`` timeout degrades
to the heuristic default plan — ``outcome.degraded`` — instead of
failing the batch), and :class:`CircuitBreaker`\\ s around the
Statistics Service and background tuning.  Faults are injectable
deterministically via ``warehouse.inject_faults`` (see
:mod:`repro.testing.faults`) and observable via
``warehouse.describe_health()``.

Quickstart::

    from repro import (
        CostIntelligentWarehouse, QueryRequest, load_tpch, sla_constraint,
    )

    db = load_tpch(scale_factor=0.01)
    warehouse = CostIntelligentWarehouse(database=db)
    session = warehouse.session(tenant="analyst", constraint=sla_constraint(10.0))
    handle = session.submit(QueryRequest(
        sql="SELECT count(*) AS big FROM orders WHERE o_totalprice > 300000",
        execute_locally=True,
    ))
    print(handle.result().describe())
    print(f"{session.tenant} spent ${session.dollars_spent:.4f}")
"""

from repro.catalog import Catalog
from repro.core import (
    AdmissionController,
    AdmissionVerdict,
    BiObjectiveOptimizer,
    BreakerState,
    CircuitBreaker,
    CostAwarePolicy,
    CostIntelligentWarehouse,
    Deadline,
    LruPolicy,
    QueryHandle,
    QueryOutcome,
    QueryRequest,
    QueryState,
    ResiliencePolicy,
    RetentionPolicy,
    RetryPolicy,
    ServingScheduler,
    Session,
    TenantBudget,
)
from repro.errors import (
    AdmissionDeniedError,
    DeadlineExceededError,
    RetryExhaustedError,
    TransientError,
)
from repro.cost import CostEstimator, HardwareCalibration
from repro.dop import DopPlanner, budget_constraint, sla_constraint
from repro.engine import Database, LocalExecutor
from repro.sim import DistributedSimulator, SimConfig
from repro.sql import Binder
from repro.tuning import (
    MaterializeView,
    Recluster,
    Recommendation,
    RecommendationState,
    TuningAction,
    TuningPolicy,
    TuningReport,
    TuningService,
)
from repro.workloads import load_tpch
from repro.workloads.tpch_stats import synthetic_tpch_catalog

__version__ = "1.3.0"

__all__ = [
    "Catalog",
    "BiObjectiveOptimizer",
    "CostIntelligentWarehouse",
    "QueryHandle",
    "QueryOutcome",
    "QueryRequest",
    "QueryState",
    "ServingScheduler",
    "Session",
    "AdmissionController",
    "AdmissionVerdict",
    "AdmissionDeniedError",
    "TenantBudget",
    "RetentionPolicy",
    "LruPolicy",
    "CostAwarePolicy",
    "ResiliencePolicy",
    "RetryPolicy",
    "CircuitBreaker",
    "BreakerState",
    "Deadline",
    "TransientError",
    "DeadlineExceededError",
    "RetryExhaustedError",
    "CostEstimator",
    "HardwareCalibration",
    "DopPlanner",
    "sla_constraint",
    "budget_constraint",
    "Database",
    "LocalExecutor",
    "DistributedSimulator",
    "SimConfig",
    "Binder",
    "TuningAction",
    "MaterializeView",
    "Recluster",
    "Recommendation",
    "RecommendationState",
    "TuningPolicy",
    "TuningReport",
    "TuningService",
    "load_tpch",
    "synthetic_tpch_catalog",
    "__version__",
]
