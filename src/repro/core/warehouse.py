"""The cost-intelligent cloud data warehouse facade (paper Figure 3).

One object wiring the whole architecture: SQL frontend -> bi-objective
optimizer (cost estimator inside) -> elastic compute (simulated cluster
with the DOP monitor) -> billing -> Statistics Service logs ->
background auto-tuning.  Users state a latency SLA or a budget per query
— never a T-shirt size — and receive results plus an auditable cost
report, exactly the interaction model §2 calls for.

The public serving API lives in :mod:`repro.core.service`
(:class:`~repro.core.service.QueryRequest` in,
:class:`~repro.core.service.QueryHandle` /
:class:`~repro.core.service.QueryOutcome` out, per-tenant
:class:`~repro.core.service.Session`\\ s, and the concurrent
:class:`~repro.core.service.ServingScheduler`).  The warehouse owns the
shared serving machinery — catalog, optimizer, the lock-striped
three-level plan-cache stack, the Statistics Service log, and per-tenant
billing — and keeps :meth:`CostIntelligentWarehouse.submit` /
:meth:`~CostIntelligentWarehouse.submit_many` as thin shims over the
default session so existing callers work unchanged.

The tuning surface mirrors it in :mod:`repro.tuning.service`:
``warehouse.tuning`` is a persistent
:class:`~repro.tuning.service.TuningService` whose typed
:class:`~repro.tuning.service.Recommendation`\\ s are applied and rolled
back with full serving-cache coherence.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import replace as dataclasses_replace
from typing import Callable, Iterable, Mapping

from repro.catalog.catalog import Catalog
from repro.core.bioptimizer import BiObjectiveOptimizer, PlanChoice
from repro.core.governance import (
    AdmissionController,
    AdmissionVerdict,
    RetentionPolicy,
    TemplateFrequencyProvider,
    TenantBudget,
    make_retention_policy,
    rank_by_forecast,
)
from repro.core.journal import (
    Checkpoint,
    CheckpointState,
    DurableRecommendation,
    QueryServed,
    RetryCharge,
    RollbackCommit,
    RollbackIntent,
    TuningCommit,
    TuningFailed,
    TuningIntent,
    WriteAheadJournal,
    from_ledger_units,
    to_ledger_units,
)
from repro.core.plan_cache import BindingCache, PlanCache, SkeletonCache
from repro.core.recovery import RecoveryReport, recover_warehouse
from repro.core.resilience import (
    CircuitBreaker,
    ResiliencePolicy,
    ResilienceStats,
    StageGuard,
)
from repro.core.service import QueryOutcome, QueryRequest, Session, TenantBill
from repro.sql.parameterize import parameterize_sql
from repro.cost.estimator import CostEstimator
from repro.cost.hardware import HardwareCalibration
from repro.dop.constraints import Constraint
from repro.engine.database import Database
from repro.errors import ReproError
from repro.monitor.policies import (
    IntervalScalerPolicy,
    PerStageScalerPolicy,
    PipelineDopMonitor,
    StaticPolicy,
)
from repro.obsvc.collector import CollectionPolicy, SnapshotCollector
from repro.obsvc.history import CostHistoryStore
from repro.obsvc.metrics import MetricsRegistry
from repro.plan.expressions import referenced_columns
from repro.sim.distsim import DistributedSimulator, ScalingPolicy, SimConfig, SimResult
from repro.sql.binder import Binder, BoundQuery
from repro.statsvc.logs import QueryLogStore, QueryRecord
from repro.tuning.mv import MVCandidate, try_rewrite
from repro.tuning.service import TuningPolicy, TuningService

POLICY_NAMES = ("dop-monitor", "static", "interval-scaler", "stage-scaler")

#: Admission verdict -> retry-pressure ordinal: each escalation step a
#: tenant's spend has climbed costs one retry attempt (see
#: :meth:`repro.core.resilience.RetryPolicy.attempts_for`).
_RETRY_PRESSURE = {
    AdmissionVerdict.ADMIT: 0,
    AdmissionVerdict.THROTTLE: 1,
    AdmissionVerdict.DEFER: 2,
    AdmissionVerdict.DENY: 3,
}

#: Breaker state <-> numeric code for the ``repro_breaker_state`` gauge
#: (Prometheus samples are numbers; ``describe_health`` maps back).
_BREAKER_STATE_CODES = {"closed": 0, "half_open": 1, "open": 2}
_BREAKER_STATE_NAMES = {code: name for name, code in _BREAKER_STATE_CODES.items()}


def _int_weights(weights: "list[float]") -> list[int]:
    """Apportionment weights as integers (exact big-int arithmetic);
    all-zero weight vectors degrade to uniform."""
    scaled = [max(int(round(weight * 1e9)), 0) for weight in weights]
    if not any(scaled):
        return [1] * len(scaled)
    return scaled


def _largest_remainder(total: int, weights: list[int]) -> list[int]:
    """Split ``total`` integral units proportionally to ``weights`` with
    no unit created or lost: floor shares first, then one extra unit to
    the largest remainders (ties broken by position, so the split is
    deterministic)."""
    if not weights:
        return []
    if total <= 0:
        return [0] * len(weights)
    weight_sum = sum(weights)
    shares = [total * weight // weight_sum for weight in weights]
    remainders = [total * weight % weight_sum for weight in weights]
    leftover = total - sum(shares)
    for index in sorted(
        range(len(weights)), key=lambda i: (-remainders[i], i)
    )[:leftover]:
        shares[index] += 1
    return shares


class CostIntelligentWarehouse:
    """The user-facing cost-intelligent warehouse service."""

    def __init__(
        self,
        database: Database | None = None,
        catalog: Catalog | None = None,
        *,
        hardware: HardwareCalibration | None = None,
        estimator: CostEstimator | None = None,
        sim_config: SimConfig | None = None,
        max_dop: int = 64,
        explore_bushy: bool = True,
        plan_cache_size: int = 256,
        tuning_policy: TuningPolicy | None = None,
        retention_policy: "str | Callable[[], RetentionPolicy]" = "lru",
        tenant_budgets: "Mapping[str, TenantBudget | float] | None" = None,
        resilience: ResiliencePolicy | None = None,
        journal: WriteAheadJournal | None = None,
    ) -> None:
        if database is None and catalog is None:
            raise ReproError("provide a Database (with data) or a Catalog (stats-only)")
        self.database = database
        self.catalog = database.catalog if database is not None else catalog
        assert self.catalog is not None
        self.hw = hardware or HardwareCalibration()
        self.estimator = estimator or CostEstimator(self.hw)
        self.optimizer = BiObjectiveOptimizer(
            self.catalog,
            self.estimator,
            max_dop=max_dop,
            explore_bushy=explore_bushy,
        )
        self.binder = Binder(self.catalog)
        self.sim_config = sim_config or SimConfig()
        self.max_dop = max_dop
        self.logs = QueryLogStore()
        self.clock = 0.0
        #: Per-tenant spend roll-up; ``billed_dollars`` totals it.
        self.billing: dict[str, TenantBill] = {}
        #: Crash durability (see :mod:`repro.core.journal`): when a
        #: :class:`~repro.core.journal.WriteAheadJournal` is attached,
        #: every authoritative state transition (log append + billing
        #: delta, admission verdict, retry charge, tuning lifecycle
        #: edge) is journaled *before* it is applied in memory, and
        #: :meth:`recover` rebuilds a bit-identical warehouse over the
        #: surviving catalog/database after a crash.  ``None`` (the
        #: default) is the journal-free fast path, byte for byte.
        self.journal = journal
        #: Highest journal LSN whose effects are reflected in memory —
        #: the replay-idempotence watermark (see
        #: :func:`repro.core.recovery.apply_entry`).
        self._applied_lsn = 0
        #: Journal-derived recommendation lifecycle bookkeeping, by
        #: recommendation id (kept identically by live appends and by
        #: replay; recovery resolves any record left in doubt).
        self._durable_tuning: dict[int, DurableRecommendation] = {}
        #: The :class:`~repro.core.recovery.RecoveryReport` of the pass
        #: that built this warehouse, when it came from :meth:`recover`.
        self.last_recovery: RecoveryReport | None = None
        #: Orders admission (timestamps) and finalization (log append,
        #: billing, template bookkeeping) under concurrent serving.
        self._serving_lock = threading.Lock()
        #: Representative bound query per template family, tagged with
        #: the stats version it was bound under so the tuning advisor
        #: never reasons over bindings from stale statistics.
        self._template_queries: dict[str, tuple[int, BoundQuery]] = {}
        self._default_session = Session(self)
        #: The persistent tuning service (lazily created on first use);
        #: ``tuning_policy`` configures cadence / budgets / auto-apply.
        self.tuning_policy = tuning_policy
        self._tuning: TuningService | None = None
        #: Applied materialized views, by name.  The serving plan path
        #: rewrites matching queries onto these views, so an applied MV
        #: actually changes served plans (and a rollback restores them).
        self._applied_mvs: dict[str, MVCandidate] = {}
        #: Serving-layer plan caches; ``plan_cache_size=0`` disables every
        #: level.  Exact level: full plans keyed (normalized SQL,
        #: constraint, stats version).  Skeleton level: template plan
        #: skeletons keyed (literal-free template key, constraint kind,
        #: stats version) — literal-varying resubmissions skip join-order
        #: DP and bushy generation.  Binding level: bound queries keyed
        #: (normalized SQL, stats version).
        cached = plan_cache_size > 0
        #: Resource governance (see :mod:`repro.core.governance`).
        #: ``self.frequency`` bridges the Statistics Service's per-family
        #: arrival forecasts to cache retention and warming;
        #: ``self.admission`` enforces per-tenant dollar budgets at
        #: :meth:`Session._admit` time.  The default ``retention_policy``
        #: ("lru") keeps served plans and cache counters bit-identical to
        #: the pre-governance warehouse; "cost-aware" keeps hot forecast
        #: templates alive under eviction pressure.
        #: Failure-domain hardening (see :mod:`repro.core.resilience`).
        #: The policy configures per-stage retries/deadlines and the
        #: degraded-mode fallback; ``resilience=ResiliencePolicy(
        #: enabled=False)`` is the unwrapped A/B baseline.  ``faults``
        #: holds the active :class:`~repro.testing.faults.FaultPlan`
        #: (``None`` outside chaos testing — see :meth:`inject_faults`).
        self.resilience = resilience or ResiliencePolicy()
        self.resilience_stats = ResilienceStats()
        self.faults = None
        #: Breaker around the Statistics Service forecaster: while OPEN,
        #: forecast refreshes are skipped and cost-aware retention
        #: scores degrade to plain LRU instead of stalling serving.
        self.statsvc_breaker = CircuitBreaker("statsvc")
        self.frequency = TemplateFrequencyProvider(
            self.logs,
            breaker=self.statsvc_breaker,
            fault_hook=lambda: self._fire_fault("statsvc"),
        )
        self.admission = AdmissionController(tenant_budgets)
        self.retention_policy_name = (
            retention_policy if isinstance(retention_policy, str) else "custom"
        )
        self._governed = retention_policy != "lru"

        def _policy() -> RetentionPolicy:
            return make_retention_policy(
                retention_policy, frequency=self.frequency.rate_for
            )

        self.plan_cache: PlanCache | None = (
            PlanCache(plan_cache_size, policy=_policy()) if cached else None
        )
        self.skeleton_cache: SkeletonCache | None = (
            SkeletonCache(plan_cache_size, policy=_policy()) if cached else None
        )
        self.binding_cache: BindingCache | None = (
            BindingCache(plan_cache_size, policy=_policy()) if cached else None
        )
        #: Cost observability (see :mod:`repro.obsvc`): the typed
        #: metrics registry every serving emission and the
        #: ``describe_health`` / ``describe_caches`` views go through,
        #: the crash-consistent cost history, and the scheduled
        #: snapshot collector.  The collector is configured
        #: post-construction (:meth:`enable_collection`) so the frozen
        #: constructor surface is untouched.
        self.metrics = MetricsRegistry()
        self.cost_history = CostHistoryStore()
        self.collector = SnapshotCollector(self)
        #: Process-sharded serving (see :mod:`repro.core.sharding`):
        #: a warm :class:`~repro.core.sharding.PlannerWorkerPool` when
        #: :meth:`enable_sharding` has been called, else ``None`` (the
        #: in-process fast path, byte for byte).  Configured
        #: post-construction like :meth:`enable_collection`, so the
        #: frozen constructor surface is untouched.
        self._worker_pool = None
        #: Bumped by every explicit :meth:`invalidate_plan_cache` —
        #: part of the coherency fingerprint the worker pool broadcasts
        #: on (version-less flushes must still reach the workers).
        self._plan_cache_epoch = 0
        self._register_metric_sources()

    # ------------------------------------------------------------------ #
    # Observability: metric sources + unified entry point
    # ------------------------------------------------------------------ #
    def _register_metric_sources(self) -> None:
        """Wire every sourced metric to its authoritative subsystem.

        Sources are read-through: the caches keep their lock-striped
        integer stats, admission its journaled verdict counters,
        resilience its ledger-unit tallies — the registry only *views*
        them, so nothing on a hot path pays for observability twice.
        """
        metrics = self.metrics
        metrics.source("repro_tenant_cost_ledger_units", self._billing_units_source)
        metrics.source("repro_cache_entries", lambda: self._cache_source(len))
        metrics.source(
            "repro_cache_capacity", lambda: self._cache_source(lambda c: c.capacity)
        )
        metrics.source(
            "repro_cache_hits_total", lambda: self._cache_source(lambda c: c.hits)
        )
        metrics.source(
            "repro_cache_misses_total", lambda: self._cache_source(lambda c: c.misses)
        )
        metrics.source(
            "repro_cache_evictions_total",
            lambda: self._cache_source(lambda c: c.evictions),
        )
        metrics.source(
            "repro_cache_policy_evictions_total",
            lambda: self._cache_source(lambda c: c.policy.evictions),
        )
        metrics.source(
            "repro_timing_cache_hits_total",
            lambda: self._timing_cache_source("hits"),
        )
        metrics.source(
            "repro_timing_cache_computations_total",
            lambda: self._timing_cache_source("computations"),
        )
        metrics.source("repro_admission_verdicts_total", self._admission_source)
        metrics.source("repro_retries_total", lambda: self.resilience_stats.retries)
        metrics.source(
            "repro_retry_cost_ledger_units",
            lambda: self.resilience_stats.retry_units,
        )
        metrics.source(
            "repro_deadline_hits_total",
            lambda: self.resilience_stats.deadline_hits,
        )
        metrics.source(
            "repro_degraded_queries_total",
            lambda: self.resilience_stats.degraded_queries,
        )
        metrics.source("repro_breaker_state", lambda: self._breaker_source("state"))
        metrics.source(
            "repro_breaker_opens_total", lambda: self._breaker_source("opens")
        )
        metrics.source(
            "repro_breaker_consecutive_failures",
            lambda: self._breaker_source("consecutive_failures"),
        )
        metrics.source(
            "repro_tuning_cycles_total",
            lambda: self._tuning.cycles_run if self._tuning is not None else 0,
        )
        metrics.source(
            "repro_tuning_consecutive_failures",
            lambda: (
                self._tuning.consecutive_failures if self._tuning is not None else 0
            ),
        )
        metrics.source(
            "repro_background_cost_ledger_units", self._background_units_source
        )
        metrics.source(
            "repro_tuning_estimated_savings_ledger_units_per_hour",
            self._estimated_savings_source,
        )
        metrics.source(
            "repro_journal_records_total",
            lambda: len(self.journal) if self.journal is not None else 0,
        )
        metrics.source(
            "repro_journal_records_since_checkpoint",
            lambda: (
                self.journal.records_since_checkpoint
                if self.journal is not None
                else 0
            ),
        )
        metrics.source(
            "repro_journal_last_checkpoint_id",
            lambda: (
                (self.journal.last_checkpoint_id or 0)
                if self.journal is not None
                else 0
            ),
        )
        metrics.source("repro_virtual_clock_seconds", lambda: self.clock)
        metrics.source("repro_queries_logged_total", lambda: len(self.logs))
        metrics.source(
            "repro_worker_pool_size",
            lambda: self._worker_pool.size if self._worker_pool is not None else 0,
        )
        metrics.source(
            "repro_worker_restarts_total",
            lambda: (
                self._worker_pool.restarts if self._worker_pool is not None else 0
            ),
        )
        metrics.source(
            "repro_worker_restaged_tasks_total",
            lambda: (
                self._worker_pool.restaged_tasks
                if self._worker_pool is not None
                else 0
            ),
        )
        metrics.source(
            "repro_worker_warm_task_hits_total",
            lambda: (
                self._worker_pool.warm_hits if self._worker_pool is not None else {}
            ),
        )

    def _cache_source(self, read) -> dict:
        values = {}
        for name, cache in (
            ("plan", self.plan_cache),
            ("skeleton", self.skeleton_cache),
            ("binding", self.binding_cache),
        ):
            if cache is not None:
                values[(name,)] = read(cache)
        return values

    def _timing_cache_source(self, field: str) -> dict:
        stats = self.estimator.models.cache.stats
        return {
            ("timing",): getattr(stats, f"timing_{field}"),
            ("volume",): getattr(stats, f"volume_{field}"),
        }

    def _admission_source(self) -> dict:
        return {
            (tenant, verdict): count
            for tenant, counts in self.admission.verdict_counts.items()
            for verdict, count in counts.items()
        }

    def _billing_units_source(self) -> dict:
        values = {}
        for tenant, bill in sorted(self.billing.items()):
            values[(tenant, "serving")] = bill.serving_units
            values[(tenant, "background")] = bill.background_units
            values[(tenant, "retry")] = bill.retry_units
        return values

    def _background_units_source(self) -> dict:
        return {
            (tenant,): bill.background_units
            for tenant, bill in sorted(self.billing.items())
            if bill.background_units
        }

    def _breaker_source(self, field: str) -> dict:
        breakers = [("statsvc", self.statsvc_breaker)]
        if self._tuning is not None:
            breakers.append(("tuning", self._tuning.breaker))
        values = {}
        for name, breaker in breakers:
            value = breaker.snapshot()[field]
            if field == "state":
                value = _BREAKER_STATE_CODES[value]
            values[(name,)] = value
        return values

    def _estimated_savings_source(self) -> int:
        if self._tuning is None:
            return 0
        return sum(
            to_ledger_units(rec.report.net_per_hour)
            for rec in self._tuning.applied_recommendations
        )

    def observe(self, format: str = "dict"):
        """Unified observability entry point (see :mod:`repro.obsvc`).

        ``format="dict"`` (default) returns health + cache views, the
        full metrics registry, and the collected cost history as plain
        data; ``"json"`` returns the same serialized; ``"prometheus"``
        returns the registry in the Prometheus text exposition format.
        """
        from repro.obsvc.export import history_json, prometheus_text, registry_json

        if format == "prometheus":
            return prometheus_text(self.metrics)
        data = {
            "health": self.describe_health(),
            "caches": self.describe_caches(),
            "metrics": registry_json(self.metrics),
            "cost_history": history_json(self.cost_history),
        }
        if format == "json":
            return json.dumps(data, indent=2, sort_keys=True, default=str)
        if format != "dict":
            raise ReproError(f"unknown observe() format {format!r}")
        return data

    def enable_collection(
        self,
        *,
        cadence_queries: "int | None" = None,
        cadence_seconds: "float | None" = None,
    ) -> None:
        """Install a recurring cost-snapshot schedule (cadence counted
        in logged queries or *virtual* seconds, like ``TuningPolicy``);
        the serving layer collects between batches.
        ``warehouse.collector.configure(None)`` disables."""
        self.collector.configure(
            CollectionPolicy(
                cadence_queries=cadence_queries,
                cadence_seconds=cadence_seconds,
            )
        )

    def enable_sharding(
        self,
        *,
        workers: "int | None" = None,
        base_seed: int = 0,
        liveness_timeout_s: "float | None" = None,
    ) -> None:
        """Serve batches over a warm planner worker-*process* pool.

        Spawns ``workers`` long-lived planner processes (default:
        core-count capped at 4) that execute the CPU-heavy bind ->
        optimize staging out-of-process with template affinity, escaping
        the GIL (see :mod:`repro.core.sharding`).  All journal appends,
        billing, admission, simulation, and statistics-log writes stay
        in this process; sharded batches are bit-identical to threaded
        and sequential submission.  Configured post-construction (like
        :meth:`enable_collection`) so the frozen constructor surface is
        untouched; :meth:`disable_sharding` restores the in-process
        path.
        """
        from repro.core.sharding import PlannerWorkerPool

        self.disable_sharding()
        pool = PlannerWorkerPool(
            self,
            workers=workers,
            base_seed=base_seed,
            liveness_timeout_s=liveness_timeout_s,
        )
        pool.start()
        self._worker_pool = pool

    def disable_sharding(self) -> None:
        """Shut down the planner worker pool (no-op when not sharded)."""
        pool = self._worker_pool
        if pool is not None:
            pool.close()
            self._worker_pool = None

    @property
    def worker_pool(self):
        """The active planner worker pool, or ``None``."""
        return self._worker_pool

    def _maybe_collect(self) -> None:
        """Serving-layer hook mirroring :meth:`_maybe_autotune`: take a
        scheduled cost snapshot when the collection policy is due."""
        collector = self.collector
        if collector.policy is None or not collector.policy.recurring:
            return
        collector.maybe_collect()

    # ------------------------------------------------------------------ #
    # Sessions / query path
    # ------------------------------------------------------------------ #
    def session(
        self,
        *,
        tenant: str = "default",
        constraint: Constraint | None = None,
        policy: str | ScalingPolicy | None = None,
        template_namespace: str | None = None,
    ) -> Session:
        """Open a per-tenant session (the primary serving entry point).

        The session carries the tenant's defaults, sees an isolated view
        of the query log, and bills served queries against the tenant.
        """
        return Session(
            self,
            tenant=tenant,
            constraint=constraint,
            policy=policy,
            template_namespace=template_namespace,
        )

    def submit(
        self,
        sql: str,
        constraint: Constraint,
        *,
        template: str = "adhoc",
        at_time: float | None = None,
        policy: str | ScalingPolicy = "dop-monitor",
        execute_locally: bool = False,
        simulate: bool = True,
        truth: dict[int, float] | None = None,
        use_plan_cache: bool = True,
    ) -> QueryOutcome:
        """Optimize, (optionally) execute locally, and simulate one query.

        Thin shim over the default :class:`~repro.core.service.Session`:
        builds a :class:`~repro.core.service.QueryRequest` and returns
        ``session.submit(request).result()``.  ``truth`` overrides
        plan-node cardinalities in the simulator; when
        ``execute_locally`` is set and the warehouse holds real data,
        true cardinalities come from actual execution instead.
        ``use_plan_cache=False`` forces a fresh plan.
        """
        request = QueryRequest(
            sql=sql,
            constraint=constraint,
            template=template,
            at_time=at_time,
            policy=policy,
            execute_locally=execute_locally,
            simulate=simulate,
            truth=truth,
            use_plan_cache=use_plan_cache,
        )
        handle = self._default_session.submit(request)
        if handle.error is not None and handle.error.cause is not None:
            # Legacy contract: submit() raises the original error type
            # (BindError, ParseError, ...), not the serving wrapper —
            # pre-redesign callers catch concrete subclasses.
            raise handle.error.cause
        return handle.result()

    def submit_many(
        self,
        queries: Iterable[str | tuple[str, Constraint] | QueryRequest],
        *,
        constraint: Constraint | None = None,
        max_workers: int = 1,
        **submit_kwargs,
    ) -> list[QueryOutcome]:
        """Submit a batch through the default session's scheduler.

        ``queries`` yields SQL strings (planned under the shared
        ``constraint``), ``(sql, constraint)`` pairs, or full
        :class:`~repro.core.service.QueryRequest`\\ s.  Remaining keyword
        arguments become request fields — batch-wide settings that also
        override the corresponding fields of explicit ``QueryRequest``
        items, and the shared ``constraint`` fills any request without
        one.  ``max_workers`` > 1 plans on
        the concurrent :class:`~repro.core.service.ServingScheduler`
        (bit-identical outcomes, deterministic log order).  A failing
        item aborts the batch with a
        :class:`~repro.errors.QueryFailedError` naming the item (an
        admission denial aborts with the typed
        :class:`~repro.errors.AdmissionDeniedError`); use
        :meth:`Session.submit_many` with ``fail_fast=False`` for
        per-handle error reporting instead.
        """
        requests: list[QueryRequest] = []
        for item in queries:
            if isinstance(item, QueryRequest):
                request = item.replace(**submit_kwargs) if submit_kwargs else item
                if request.constraint is None and constraint is not None:
                    request = request.replace(constraint=constraint)
            elif isinstance(item, str):
                if constraint is None:
                    raise ReproError(
                        "submit_many needs a shared constraint for bare SQL items"
                    )
                request = QueryRequest(sql=item, constraint=constraint, **submit_kwargs)
            else:
                sql, item_constraint = item
                request = QueryRequest(
                    sql=sql, constraint=item_constraint, **submit_kwargs
                )
            requests.append(request)
        handles = self._default_session.submit_many(
            requests, fail_fast=True, max_workers=max_workers
        )
        return [handle.result() for handle in handles]

    def plan(
        self, sql: str, constraint: Constraint, *, use_plan_cache: bool = True
    ) -> tuple[BoundQuery, PlanChoice]:
        """Bind + optimize one query without executing or logging it.

        This is the serving-layer planning path :meth:`submit` uses —
        exact plan-cache hit, then skeleton-cache hit (re-plan cached
        join shapes under fresh literals), then full optimization.
        """
        return self._plan(sql, constraint, use_plan_cache)

    def _plan(
        self,
        sql: str,
        constraint: Constraint,
        use_plan_cache: bool,
        on_bound: Callable[[BoundQuery], None] | None = None,
        guard: StageGuard | None = None,
    ) -> tuple[BoundQuery, PlanChoice]:
        """Bind + optimize, via the two-level plan cache when possible.

        ``on_bound`` fires as soon as the bound query is available (from
        a cache or a fresh bind) — the serving layer uses it to stamp the
        :class:`~repro.core.service.QueryHandle`'s ``BOUND`` transition.
        ``guard`` (when resilience is enabled) wraps the ``bind`` and
        ``optimize`` fault points with retry/deadline/fault-injection
        handling; cache hits bypass both points — a cached plan needs no
        binding or optimization, so there is nothing to fail.
        """

        def staged(stage: str, fn: Callable[[], object]):
            return guard.run(stage, fn) if guard is not None else fn()

        if not use_plan_cache or self.plan_cache is None:
            bound = staged(
                "bind", lambda: self._maybe_rewrite_mv(self.binder.bind_sql(sql))
            )
            if on_bound is not None:
                on_bound(bound)
            return bound, staged(
                "optimize", lambda: self.optimizer.optimize(bound, constraint)
            )

        # Every cache level exists whenever the exact level does.
        assert self.binding_cache is not None and self.skeleton_cache is not None
        version = self.catalog.version
        parameterized = parameterize_sql(sql)
        normalized = parameterized.normalized
        exact_key = (normalized, constraint, version)
        cached = self.plan_cache.lookup(exact_key)
        if cached is not None:
            if on_bound is not None:
                on_bound(cached[0])
            return cached

        # Binding (and, via the optimizer's DAG memo keyed on the bound
        # object, physical planning) is constraint-independent: reuse it
        # when the same query arrives under a second constraint.
        # ``governed`` = a non-LRU retention policy is active: stores are
        # annotated with the template identity and the planning seconds
        # the entry saves, so eviction can weigh forecast value.
        governed = self._governed
        binding_key = (normalized, version)
        bound = self.binding_cache.lookup(binding_key)
        if bound is None:
            # Reuse the parameterization already lexed for the cache
            # keys: recurring templates bind from a cached template AST
            # with the fresh constants substituted (no lex, no parse).
            bind_start = time.perf_counter() if governed else 0.0
            bound = staged(
                "bind",
                lambda: self.binder.bind_parameterized(
                    parameterized.template_key, parameterized.constants, sql=sql
                ),
            )
            if governed:
                self.binding_cache.store(
                    binding_key,
                    bound,
                    template=parameterized.template_key,
                    cost_s=time.perf_counter() - bind_start,
                )
            else:
                self.binding_cache.store(binding_key, bound)
        # MV rewriting happens after the binding cache (which keeps the
        # original binding) and is deterministic per (template, catalog
        # version), so skeleton reuse stays coherent: every instance of a
        # template either rewrites onto the view or none does.
        bound = self._maybe_rewrite_mv(bound)
        if on_bound is not None:
            on_bound(bound)
        # The constraint kind is conservative key hygiene (DAG planning
        # never reads the constraint); it costs one extra DP per template
        # and kind.  Skeleton reuse trusts the template's join shapes to
        # be stable under literal changes — enforced for the workload
        # suite by the parity tests and the benchmark guard; a template
        # whose literals swing the join-order DP would be re-planned on
        # its cached shapes.
        kind = "sla" if constraint.is_sla else "budget"
        skeleton_key = (parameterized.template_key, kind, version)
        trees = self.skeleton_cache.lookup(skeleton_key)
        plan_start = time.perf_counter() if governed else 0.0
        choice = staged(
            "optimize",
            lambda: self.optimizer.optimize(bound, constraint, skeleton_trees=trees),
        )
        # The planning seconds this optimize took are what a future hit
        # on the stored entries saves (a proxy for the skeleton level,
        # whose hits still re-run physical planning and the DOP search).
        planning_s = time.perf_counter() - plan_start if governed else 0.0
        if trees is None:
            # variant_trees() reads the optimizer's DAG memo — no rework.
            self.skeleton_cache.store(
                skeleton_key,
                self.optimizer.variant_trees(bound),
                template=parameterized.template_key if governed else None,
                cost_s=planning_s,
            )
        self.plan_cache.store(
            exact_key,
            bound,
            choice,
            template=parameterized.template_key if governed else None,
            cost_s=planning_s,
        )
        return bound, choice

    def _plan_degraded(
        self, sql: str, constraint: Constraint
    ) -> tuple[BoundQuery, PlanChoice, str]:
        """Degraded-mode planning: never fails, never pollutes the caches.

        The fallback the serving layer takes when the ``optimize`` stage
        blows its deadline.  Runs *unguarded* (no fault points, no
        deadlines — the degraded path is the floor under the batch) and
        returns ``(bound, choice, mode)`` where ``mode`` is:

        - ``"skeleton"`` — the template's cached skeleton shapes were
          re-planned under the query's literals, exactly as a skeleton
          cache hit would have (bit-identical to full optimization by
          the skeleton parity contract), or
        - ``"heuristic"`` — the default plan: the left-deep DP winner
          with one DOP search, bit-identical to a cold
          ``explore_bushy=False`` optimizer.

        Nothing is stored in the exact plan cache: a heuristic plan is
        *not* what full optimization would produce, and caching it would
        serve degraded plans to healthy future submissions (the chaos
        suite's cache-consistency invariant).
        """
        if self.plan_cache is None:
            bound = self._maybe_rewrite_mv(self.binder.bind_sql(sql))
            return bound, self.optimizer.optimize_heuristic(bound, constraint), "heuristic"
        assert self.binding_cache is not None and self.skeleton_cache is not None
        version = self.catalog.version
        parameterized = parameterize_sql(sql)
        # The guarded path usually bound this query before its optimize
        # deadline tripped; reuse that binding.
        bound = self.binding_cache.lookup((parameterized.normalized, version))
        if bound is None:
            bound = self.binder.bind_parameterized(
                parameterized.template_key, parameterized.constants, sql=sql
            )
        bound = self._maybe_rewrite_mv(bound)
        kind = "sla" if constraint.is_sla else "budget"
        trees = self.skeleton_cache.lookup((parameterized.template_key, kind, version))
        if trees is not None:
            choice = self.optimizer.optimize(bound, constraint, skeleton_trees=trees)
            return bound, choice, "skeleton"
        return bound, self.optimizer.optimize_heuristic(bound, constraint), "heuristic"

    # ------------------------------------------------------------------ #
    # Resilience / fault injection
    # ------------------------------------------------------------------ #
    def inject_faults(self, plan) -> None:
        """Install (or clear, with ``None``) a deterministic fault plan.

        ``plan`` is a :class:`~repro.testing.faults.FaultPlan`; the
        named fault points (``bind``, ``optimize``, ``simulate``,
        ``statsvc``, ``tuning_apply``, and — under sharded serving —
        ``worker_crash``) consult it live, so a plan can be
        swapped mid-workload to model an outage starting or ending.  The
        three *crash* points (``crash_pre_write``, ``crash_post_write``,
        ``crash_pre_commit`` — see
        :data:`~repro.testing.faults.CRASH_POINTS`) consult it too: they
        sever the process at journal-record boundaries for the
        kill-point recovery harness, raising
        :class:`~repro.testing.faults.SimulatedCrashError` (a
        ``BaseException`` no serving-layer handler swallows).
        """
        self.faults = plan

    def _fault_decision(self, point: str):
        plan = self.faults
        if plan is None:
            return None
        return plan.draw(point)

    def _fire_fault(self, point: str) -> None:
        """Raise the injected error for ``point``, if one fires (hook
        for non-staged fault points: ``statsvc``, ``tuning_apply``)."""
        decision = self._fault_decision(point)
        if decision is not None and decision.error is not None:
            raise decision.error

    def _stage_guard(self, tenant: str | None) -> StageGuard | None:
        """One per-request :class:`~repro.core.resilience.StageGuard`.

        ``None`` when resilience is disabled (the unwrapped A/B
        baseline).  The retry allowance is budget-aware: the tenant's
        current admission verdict (a lock-free peek — advisory, never
        counted) maps to a pressure ordinal that shrinks the attempts a
        near-DENY tenant may burn.
        """
        policy = self.resilience
        if not policy.enabled:
            return None
        attempts = policy.retry.max_attempts
        if tenant is not None and self.admission.active:
            verdict = self.admission.peek(tenant, self.billing.get(tenant))
            attempts = policy.retry.attempts_for(_RETRY_PRESSURE[verdict])

        def charge(dollars: float) -> None:
            if tenant is not None:
                self._charge_retry(tenant, dollars)

        return StageGuard(
            policy,
            attempts=attempts,
            fault_decision=self._fault_decision,
            charge_retry=charge,
            stats=self.resilience_stats,
        )

    def _charge_retry(self, tenant: str, dollars: float) -> None:
        """Meter one retry's modeled compute into the tenant's bill
        (write-ahead: the charge is journaled before it lands)."""
        if dollars <= 0.0:
            return
        with self._serving_lock:
            self._journal_append(RetryCharge(tenant=tenant, dollars=dollars))
            self._bill_for(tenant).charge_retry(dollars)

    # ------------------------------------------------------------------ #
    # Durability: write-ahead journal + checkpoint/restore
    # ------------------------------------------------------------------ #
    def _bill_for(self, tenant: str) -> TenantBill:
        """The tenant's bill, created on first charge."""
        bill = self.billing.get(tenant)
        if bill is None:
            bill = self.billing[tenant] = TenantBill(tenant)
        return bill

    def _journal_append(self, record) -> None:
        """Write-ahead append: the record lands in the journal *before*
        the in-memory state it describes mutates.

        No-op without an attached journal.  The two crash fault points
        bracketing the append (``crash_pre_write`` /
        ``crash_post_write``) are where the kill-point recovery harness
        severs the process: before the point the transition never
        happened; after it, replay redoes it exactly once.
        """
        journal = self.journal
        if journal is None:
            return
        self._fire_fault("crash_pre_write")
        entry = journal.append(record)
        self._note_durable(record)
        self._applied_lsn = entry.lsn
        self._fire_fault("crash_post_write")

    def _note_durable(self, record) -> None:
        """Fold one journal record into the durable tuning bookkeeping.

        Called on every live append *and* on every replayed record, so
        the live process and a recovered one agree on which
        recommendations committed and which are in doubt.
        """
        if isinstance(record, TuningIntent):
            self._durable_tuning[record.rec_id] = DurableRecommendation(
                rec_id=record.rec_id,
                name=record.name,
                kind=record.kind,
                state="applying",
                undo=record.undo,
                tenant_shares=record.tenant_shares,
            )
            return
        durable = (
            self._durable_tuning.get(record.rec_id)
            if isinstance(
                record, (TuningCommit, TuningFailed, RollbackIntent, RollbackCommit)
            )
            else None
        )
        if isinstance(record, TuningCommit):
            if durable is None:
                durable = self._durable_tuning[record.rec_id] = (
                    DurableRecommendation(
                        rec_id=record.rec_id,
                        name=record.name,
                        kind=record.kind,
                        state="applied",
                    )
                )
            # Keep the apply-time undo snapshot on the committed record:
            # a later rollback (live or crash-resolved) needs it.
            durable.state = "applied"
            durable.dollars = record.dollars
            durable.tenant_shares = record.tenant_shares
            durable.candidate = record.candidate
            durable.physical = record.physical
        elif isinstance(record, TuningFailed) and durable is not None:
            durable.state = "failed"
        elif isinstance(record, RollbackIntent) and durable is not None:
            durable.state = "rolling_back"
            if record.undo is not None:
                durable.undo = record.undo
            durable.dollars = record.dollars
            durable.tenant_shares = record.tenant_shares
        elif isinstance(record, RollbackCommit) and durable is not None:
            durable.state = "rolled_back"
            durable.dollars = record.dollars

    def checkpoint(self) -> None:
        """Write a :class:`~repro.core.journal.Checkpoint` record
        capturing the warehouse's full journaled state, so recovery
        replays only the records after it.  Taken under the serving
        lock: the snapshot is consistent with no finalize in flight.
        """
        journal = self.journal
        if journal is None:
            raise ReproError("checkpoint() needs an attached journal")
        with self._serving_lock:
            state = self._checkpoint_state()
            entry = journal.append(
                Checkpoint(checkpoint_id=journal.next_checkpoint_id(), state=state)
            )
            self._applied_lsn = entry.lsn

    def _checkpoint_state(self) -> CheckpointState:
        ledger: tuple = ()
        next_rec_id = 1
        if self._tuning is not None:
            ledger = tuple(self._tuning.background.ledger)
            next_rec_id = self._tuning._next_id
        return CheckpointState(
            clock=self.clock,
            records=tuple(self.logs),
            bills=tuple(
                bill.ledger_snapshot()
                for _, bill in sorted(self.billing.items())
            ),
            verdicts=tuple(
                (tenant, tuple(sorted(counts.items())))
                for tenant, counts in sorted(
                    self.admission.verdict_counts.items()
                )
            ),
            applied_mvs=tuple(self._applied_mvs.values()),
            durable_tuning=tuple(
                durable.copy() for durable in self._durable_tuning.values()
            ),
            ledger=ledger,
            next_rec_id=next_rec_id,
            cost_history=self.cost_history.as_state(),
        )

    def _maybe_checkpoint(self) -> None:
        """Roll a checkpoint when the journal's interval policy says so
        (called by the serving layer after each finalize, outside the
        serving lock)."""
        journal = self.journal
        if journal is None or journal.checkpoint_every is None:
            return
        if journal.records_since_checkpoint >= journal.checkpoint_every:
            self.checkpoint()

    @classmethod
    def recover(
        cls,
        journal: WriteAheadJournal,
        database: Database | None = None,
        catalog: Catalog | None = None,
        **kwargs,
    ) -> "CostIntelligentWarehouse":
        """Rebuild a warehouse from ``journal`` after a crash.

        ``database`` / ``catalog`` must be the *same* durable objects
        the crashed process was serving over (storage survives a
        process crash; only warehouse memory dies).  Construction
        kwargs should match the crashed warehouse's.  Restores the
        latest checkpoint, replays the journal tail, resolves in-doubt
        tuning applies (forward if committed, back via the journaled
        undo snapshot otherwise), then attaches the journal and writes
        a post-recovery checkpoint so a crash during a later replay
        never re-reads this one's work.
        """
        warehouse = cls(database, catalog, **kwargs)
        report = recover_warehouse(warehouse, journal)
        warehouse.journal = journal
        warehouse.last_recovery = report
        warehouse.checkpoint()
        return warehouse

    def describe_health(self) -> dict:
        """Failure-domain observability, alongside :meth:`describe_caches`.

        Reports the resilience counters (retries, retry dollars,
        deadline hits, degraded outcomes), both circuit breakers
        (``statsvc`` and ``tuning``), the tuning service's last swallowed
        error and consecutive-failure count, and the active fault plan's
        fired tallies (empty outside chaos testing).

        Every counter here is a **read-only view over the metrics
        registry** (:mod:`repro.obsvc.metrics`): the registry's sourced
        providers are the single path to the underlying subsystems, so
        this dict, the Prometheus exposition, and the JSON export can
        never disagree.
        """
        metrics = self.metrics
        resilience = {
            "retries": metrics.value("repro_retries_total"),
            "retry_dollars": from_ledger_units(
                metrics.value("repro_retry_cost_ledger_units")
            ),
            "deadline_hits": metrics.value("repro_deadline_hits_total"),
            "degraded_queries": metrics.value("repro_degraded_queries_total"),
            "enabled": self.resilience.enabled,
        }
        last_error = self._tuning.last_error if self._tuning is not None else None
        tuning = {
            "cycles_run": metrics.value("repro_tuning_cycles_total"),
            "consecutive_failures": metrics.value(
                "repro_tuning_consecutive_failures"
            ),
            "last_error": (
                f"{type(last_error).__name__}: {last_error}"
                if last_error is not None
                else None
            ),
        }
        states = metrics.sourced("repro_breaker_state")
        opens = metrics.sourced("repro_breaker_opens_total")
        failures = metrics.sourced("repro_breaker_consecutive_failures")
        breakers = {
            name: {
                "state": _BREAKER_STATE_NAMES[states.get((name,), 0)],
                "consecutive_failures": failures.get((name,), 0),
                "opens": opens.get((name,), 0),
            }
            for name in ("statsvc", "tuning")
        }
        journal = self.journal
        recovery = self.last_recovery
        durability = {
            "journaled": journal is not None,
            "journal_records": metrics.value("repro_journal_records_total"),
            "last_checkpoint_id": (
                journal.last_checkpoint_id if journal is not None else None
            ),
            "records_since_checkpoint": metrics.value(
                "repro_journal_records_since_checkpoint"
            ),
            "recovered": recovery is not None,
            "records_replayed": (
                recovery.records_replayed if recovery is not None else 0
            ),
            "in_doubt_forward": (
                recovery.in_doubt_forward if recovery is not None else 0
            ),
            "in_doubt_back": recovery.in_doubt_back if recovery is not None else 0,
        }
        return {
            "resilience": resilience,
            "durability": durability,
            "breakers": breakers,
            "tuning": tuning,
            "faults": {
                "active": self.faults is not None,
                "fired": self.faults.fired if self.faults is not None else {},
            },
        }

    def _maybe_rewrite_mv(self, bound: BoundQuery) -> BoundQuery:
        """Rewrite a bound query onto an applied materialized view.

        Applied MVs must change served plans — without this hook the
        caches would keep returning (version-keyed but semantically
        pre-tuning) base-table plans forever.  Rewrites only happen for
        views the :class:`~repro.tuning.service.TuningService` has
        applied and that are still present in the catalog, so a rollback
        (or an out-of-band drop) immediately restores base-table plans.
        """
        if not self._applied_mvs:
            return bound
        assert self.catalog is not None
        for candidate in self._applied_mvs.values():
            if not self.catalog.has_table(candidate.name) or not self.catalog.has_view(
                candidate.name
            ):
                continue
            rewritten = try_rewrite(bound, candidate)
            if rewritten is not None:
                return rewritten
        return bound

    def _register_applied_mv(self, candidate: MVCandidate) -> None:
        self._applied_mvs[candidate.name] = candidate

    def _unregister_applied_mv(self, candidate: MVCandidate) -> None:
        self._applied_mvs.pop(candidate.name, None)

    def warm_cache(
        self,
        workload: "Mapping[str, str] | Iterable[tuple[str, str]]",
        constraint: Constraint,
        *,
        top: int | None = None,
    ) -> list[str]:
        """Pre-plan the hottest forecast templates through the skeleton path.

        ``workload`` maps template family names to one representative SQL
        text each (a mapping or ``(family, sql)`` pairs).  Families are
        ranked by the Statistics Service's forecast arrival rates (raw
        log counts break ties, input order last, so an empty log warms in
        the given order), the ``top`` hottest are planned under
        ``constraint`` — populating the binding, skeleton, and exact
        caches exactly as serving would — and the warmed family names are
        returned hottest-first.  Nothing is logged, billed, or
        admission-checked: warming is the warehouse spending background
        planning time, not tenant traffic.  No-op when plan caching is
        disabled.
        """
        if self.plan_cache is None:
            return []
        ranked = rank_by_forecast(
            workload, self.frequency.family_rates(), self.logs.template_counts()
        )
        if top is not None:
            ranked = ranked[: max(top, 0)]
        warmed: list[str] = []
        for family, sql in ranked:
            self._plan(sql, constraint, True)
            if self._governed:
                self.frequency.note_template(
                    family, parameterize_sql(sql).template_key
                )
            warmed.append(family)
        return warmed

    def invalidate_plan_cache(self) -> None:
        """Explicitly flush cached plans, skeletons, and template
        bindings (catalog mutations invalidate automatically via the
        stats version; use this after out-of-band changes such as
        hardware recalibration)."""
        self._plan_cache_epoch += 1
        if self.plan_cache is not None:
            self.plan_cache.invalidate()
        if self.skeleton_cache is not None:
            self.skeleton_cache.invalidate()
        if self.binding_cache is not None:
            self.binding_cache.invalidate()
        # The representative template bindings embed the same statistics
        # the plan caches do; a flush that leaves them behind would hand
        # the tuning advisor bound queries from a world that no longer
        # exists.
        self._template_queries.clear()

    @property
    def template_queries(self) -> dict[str, BoundQuery]:
        """Representative bound query per template family, restricted to
        bindings made under the *current* stats version (stale ones are
        invisible until the template is served again)."""
        version = self.catalog.version
        return {
            template: bound
            for template, (bound_version, bound) in self._template_queries.items()
            if bound_version == version
        }

    def _remember_template(self, template: str, bound: BoundQuery) -> None:
        self._template_queries[template] = (self.catalog.version, bound)

    def _account(self, record: QueryRecord) -> None:
        """Roll one served query into the tenant's running bill."""
        self._bill_for(record.tenant).charge(record)

    @property
    def billed_dollars(self) -> float:
        """Total serving dollars billed across all tenants."""
        return sum(bill.dollars for bill in self.billing.values())

    @property
    def background_dollars(self) -> float:
        """Total background-tuning dollars metered across all tenants."""
        return sum(bill.background_dollars for bill in self.billing.values())

    def describe_billing(self) -> str:
        """Per-tenant spend roll-up, one line per tenant plus the total."""
        if not self.billing:
            return "billing: no queries served"
        lines = []
        for bill in sorted(self.billing.values(), key=lambda b: b.tenant):
            line = (
                f"  {bill.tenant}: {bill.queries} queries, ${bill.dollars:.4f}, "
                f"{bill.machine_seconds:.1f} machine-seconds"
            )
            if bill.background_actions:
                line += (
                    f", ${bill.background_dollars:.4f} background "
                    f"({bill.background_actions} tuning actions)"
                )
            lines.append(line)
        total = f"\n  total: ${self.billed_dollars:.4f}"
        if self.background_dollars:
            total += f" serving + ${self.background_dollars:.4f} background"
        return "billing by tenant:\n" + "\n".join(lines) + total

    def reset_cache_stats(self) -> None:
        """Zero all cache, optimizer, retention-policy, admission, and
        resilience counters without dropping entries or budgets
        (benchmark warmup: report steady-state rates only)."""
        for cache in (self.plan_cache, self.skeleton_cache, self.binding_cache):
            if cache is not None:
                cache.reset_stats()
        self.estimator.models.cache.stats.reset()
        self.optimizer.reset_counters()
        self.admission.reset_stats()
        # Retry / deadline / degraded tallies are warmup noise too: a
        # benchmark that resets cache counters but keeps phantom retries
        # reports steady-state hit rates against warmup failures.
        self.resilience_stats.reset()
        # Owned registry metrics (served/failed/denied counters, latency
        # histograms, snapshot tallies) are warmup noise by the same
        # argument; sourced metrics re-read the subsystems just reset.
        self.metrics.reset()

    def describe_caches(self) -> dict[str, dict]:
        """Hit-rate and governance observability across serving caches.

        Reports the exact plan cache, the template skeleton cache, and
        the estimator's timing/volume caches — the numbers the
        throughput benchmark records next to its speedups — plus, per
        cache, the retention policy's name and its eviction count, and an
        ``admission`` block with per-tenant verdict counts (empty until a
        tenant budget is configured).

        Like :meth:`describe_health`, every number is a read-only view
        over the metrics registry's sourced providers; only the policy
        *name* (a string, not a metric) is read off the cache directly.
        """
        metrics = self.metrics
        entries = metrics.sourced("repro_cache_entries")
        capacity = metrics.sourced("repro_cache_capacity")
        hits = metrics.sourced("repro_cache_hits_total")
        misses = metrics.sourced("repro_cache_misses_total")
        evictions = metrics.sourced("repro_cache_evictions_total")
        policy_evictions = metrics.sourced("repro_cache_policy_evictions_total")
        report: dict[str, dict] = {}
        for name, label, cache in (
            ("plan", "plan_cache", self.plan_cache),
            ("skeleton", "skeleton_cache", self.skeleton_cache),
            ("binding", "binding_cache", self.binding_cache),
        ):
            if cache is None:
                continue
            cache_hits = hits.get((name,), 0)
            lookups = cache_hits + misses.get((name,), 0)
            report[label] = {
                "entries": entries.get((name,), 0),
                "capacity": capacity.get((name,), 0),
                "hits": cache_hits,
                "misses": misses.get((name,), 0),
                "evictions": evictions.get((name,), 0),
                "hit_rate": cache_hits / lookups if lookups else 0.0,
                "policy": cache.policy.name,
                "policy_evictions": policy_evictions.get((name,), 0),
            }
        verdicts: dict[str, dict[str, int]] = {}
        for (tenant, verdict), count in sorted(
            metrics.sourced("repro_admission_verdicts_total").items()
        ):
            verdicts.setdefault(tenant, {})[verdict] = count
        report["admission"] = verdicts
        cache_hits = metrics.sourced("repro_timing_cache_hits_total")
        computations = metrics.sourced("repro_timing_cache_computations_total")
        block: dict[str, float] = {}
        for kind in ("timing", "volume"):
            kind_hits = cache_hits.get((kind,), 0)
            total = kind_hits + computations.get((kind,), 0)
            block[f"{kind}_hits"] = kind_hits
            block[f"{kind}_computations"] = computations.get((kind,), 0)
            block[f"{kind}_hit_rate"] = kind_hits / total if total else 0.0
        report["timing_cache"] = block
        return report

    def _simulate(
        self,
        choice: PlanChoice,
        constraint: Constraint,
        policy: str | ScalingPolicy,
        truth: dict[int, float] | None,
    ) -> SimResult:
        policy_obj = (
            policy
            if isinstance(policy, ScalingPolicy)
            else self.make_policy(policy, choice, constraint)
        )
        config = self.sim_config
        if getattr(policy_obj, "name", "") == "stage-scaler":
            config = dataclasses_replace(config, materialize_exchanges=True)
        simulator = DistributedSimulator(
            choice.dag,
            choice.dop_plan.dops,
            self.estimator.models,
            truth=truth,
            planned=choice.dop_plan.estimate,
            policy=policy_obj,
            config=config,
        )
        return simulator.run()

    def make_policy(
        self, name: str, choice: PlanChoice, constraint: Constraint
    ) -> ScalingPolicy:
        """Instantiate a scaling policy by name for one query."""
        if name == "static":
            return StaticPolicy()
        if name == "dop-monitor":
            return PipelineDopMonitor(
                choice.dag,
                self.estimator,
                constraint,
                choice.dop_plan.dops,
                planned_latency=choice.dop_plan.estimate.latency,
                planned_durations={
                    pid: p.duration
                    for pid, p in choice.dop_plan.estimate.pipelines.items()
                },
                max_dop=self.max_dop,
            )
        if name == "interval-scaler":
            sla = constraint.latency_sla or choice.dop_plan.estimate.latency * 1.5
            durations = {
                pid: p.duration
                for pid, p in choice.dop_plan.estimate.pipelines.items()
            }
            return IntervalScalerPolicy(
                choice.dag,
                sla,
                choice.dop_plan.dops,
                durations,
                max_dop=self.max_dop,
            )
        if name == "stage-scaler":
            return PerStageScalerPolicy(
                choice.dag, choice.dop_plan.dops, max_dop=self.max_dop
            )
        raise ReproError(f"unknown policy {name!r}; known: {POLICY_NAMES}")

    # ------------------------------------------------------------------ #
    # Statistics Service logging
    # ------------------------------------------------------------------ #
    def _log(
        self,
        sql: str,
        bound: BoundQuery,
        template: str,
        timestamp: float,
        choice: PlanChoice,
        sim: SimResult | None,
        constraint: Constraint,
        tenant: str = "default",
    ) -> QueryRecord:
        """Build, journal, and apply one served query's log record.

        Write-ahead: the :class:`~repro.core.journal.QueryServed` record
        (which carries the billing delta) is journaled *before* the log
        append, so a crash between the two is redone by replay and a
        crash before the journal write leaves no trace (the consumed
        query id is re-issued after recovery).
        """
        record = self._build_record(
            sql, bound, template, timestamp, choice, sim, constraint, tenant
        )
        self._journal_append(QueryServed(record=record))
        self._apply_served(record)
        return record

    def _build_record(
        self,
        sql: str,
        bound: BoundQuery,
        template: str,
        timestamp: float,
        choice: PlanChoice,
        sim: SimResult | None,
        constraint: Constraint,
        tenant: str = "default",
    ) -> QueryRecord:
        # Timestamps are assigned at *admission* (monotonic across the
        # warehouse), but concurrent sessions interleave their finalize
        # phases arbitrarily, so a later-admitted handle from one batch
        # can reach the log before an earlier-admitted one from another.
        # Clamp up to the last logged timestamp: the log stays
        # append-ordered and no finalize ever dies on the ordering check
        # (which would lose the record and fail a successful query).
        tail = self.logs.tail(1)
        if tail and timestamp < tail[0].timestamp:
            timestamp = tail[0].timestamp
        columns: set[str] = set()
        filter_columns: set[str] = set()
        for table in bound.table_names:
            for column in bound.columns_needed(table):
                columns.add(f"{table}.{column}")
            for predicate in bound.filters.get(table, []):
                for column in referenced_columns(predicate):
                    filter_columns.add(column)
        edges = tuple(
            (
                f"{e.left.table}.{e.left.name}",
                f"{e.right.table}.{e.right.name}",
            )
            for e in bound.join_edges
        )
        latency = sim.latency if sim is not None else choice.dop_plan.estimate.latency
        dollars = sim.total_dollars if sim is not None else choice.dop_plan.estimate.total_dollars
        machine = (
            sim.machine_seconds if sim is not None else choice.dop_plan.estimate.machine_seconds
        )
        bytes_scanned = sum(
            op.node.input_bytes
            for pipeline in choice.dag
            for op in pipeline.ops
            if hasattr(op.node, "input_bytes")
        )
        record = QueryRecord(
            query_id=self.logs.next_query_id(),
            timestamp=timestamp,
            sql=sql,
            template=template,
            tables=tuple(bound.table_names),
            columns=tuple(sorted(columns)),
            join_edges=edges,
            group_keys=tuple(k.name for k in bound.group_keys),
            filter_columns=tuple(sorted(filter_columns)),
            aggregate_sqls=tuple(a.sql() for a in bound.aggregates),
            latency_s=latency,
            machine_seconds=machine,
            dollars=dollars,
            bytes_scanned=bytes_scanned,
            sla_seconds=constraint.latency_sla,
            tenant=tenant,
            cost_breakdown=self._cost_breakdown(choice, dollars),
        )
        return record

    def _cost_breakdown(
        self, choice: PlanChoice, dollars: float
    ) -> tuple[tuple[str, str, int], ...]:
        """Apportion one query's spend over its plan's operators, exactly.

        Two-level largest-remainder split of ``to_ledger_units(dollars)``:
        pipelines weighted by their planned durations, operators within a
        pipeline by ``input_bytes`` (uniform when unknown).  Integer math
        throughout, so the returned ``(pipeline, operator, units)`` leaves
        always sum bitwise to the units the tenant's bill is charged —
        the invariant the drill-down navigator reconciles against.
        Zero-share leaves are dropped.
        """
        total_units = to_ledger_units(dollars)
        pipelines = list(choice.dag)
        if not pipelines:
            return ((("(plan)"), "(operator)", total_units),) if total_units else ()
        per_pipe = choice.dop_plan.estimate.pipelines
        pipe_weights = _int_weights(
            getattr(per_pipe.get(p.pipeline_id), "duration", 0.0)
            for p in pipelines
        )
        leaves: list[tuple[str, str, int]] = []
        for pipeline, pipe_units in zip(
            pipelines, _largest_remainder(total_units, pipe_weights)
        ):
            label = f"P{pipeline.pipeline_id}"
            ops = list(pipeline.ops)
            if not ops:
                if pipe_units:
                    leaves.append((label, "(pipeline)", pipe_units))
                continue
            op_weights = _int_weights(
                float(getattr(op.node, "input_bytes", 0.0)) for op in ops
            )
            for op, op_units in zip(
                ops, _largest_remainder(pipe_units, op_weights)
            ):
                if op_units:
                    leaves.append(
                        (label, f"{op.node.describe()}[{op.role}]", op_units)
                    )
        return tuple(leaves)

    def _apply_served(self, record: QueryRecord) -> None:
        """Apply a (journaled) served-query record to warehouse memory:
        append it to the Statistics Service log and register its
        template key with the frequency provider.  Shared verbatim by
        live serving and recovery replay."""
        self.logs.append(record)
        template = record.template
        if self._governed and template.rpartition(".")[2] != "adhoc":
            # Teach the frequency provider which literal-free template
            # key this logged family instantiates, so forecast rates can
            # score that template's cache entries (parameterize_sql is
            # lru-cached — the serving path just computed this).  The
            # default "adhoc" family (any namespace) is deliberately
            # skipped: it aggregates unrelated one-off queries, and its
            # combined arrival rate would let never-reused entries
            # outscore genuinely recurring templates.  Unregistered keys
            # score zero — exactly right for one-offs.
            self.frequency.note_template(
                template, parameterize_sql(record.sql).template_key
            )

    # ------------------------------------------------------------------ #
    # Background auto-tuning
    # ------------------------------------------------------------------ #
    @property
    def tuning(self) -> TuningService:
        """The warehouse's persistent tuning service (lazily created).

        Holds one What-If Service / advisor / background-compute
        executor for the warehouse's lifetime and exposes the typed
        ``propose() / apply() / apply_all() / rollback()`` lifecycle —
        see :mod:`repro.tuning.service`.
        """
        if self._tuning is None:
            self._tuning = TuningService(self, self.tuning_policy)
        return self._tuning

    def _maybe_autotune(self) -> None:
        """Serving-layer hook: run a tuning cycle when the policy is due.

        Called between batches by :class:`~repro.core.service.Session` /
        :class:`~repro.core.service.ServingScheduler`; a no-op unless a
        recurring :class:`~repro.tuning.service.TuningPolicy` is set.
        """
        policy = self._tuning.policy if self._tuning is not None else self.tuning_policy
        if policy is None or not policy.recurring:
            return
        self.tuning.maybe_run_cycle()
