"""Serving-layer request model: QueryRequest -> QueryHandle -> QueryOutcome.

The paper's interaction model (§2) is a *service* contract — "state a
latency SLA or a budget, get results plus an auditable cost report" —
and a service needs more than one blocking call with nine keyword
arguments.  This module is the warehouse's public serving API:

- :class:`QueryRequest` — one frozen value object describing a
  submission: the SQL, the user constraint, and the execution /
  simulation options that used to sprawl across ``submit()`` kwargs.
- :class:`QueryHandle` — the lifecycle of one submission
  (``QUEUED -> BOUND -> PLANNED -> SIMULATED -> DONE/FAILED``) with
  per-stage wall timings and ``result()`` returning the
  :class:`QueryOutcome`.  Failures are carried on the handle as
  :class:`~repro.errors.QueryFailedError` (which item, which SQL, what
  cause) instead of aborting a whole batch.
- :class:`Session` — who is asking.  A session carries per-tenant
  defaults (constraint, scaling policy, template namespace), sees an
  isolated per-tenant view of the Statistics Service log, and its
  spending rolls up into the warehouse's per-tenant billing.
- :class:`ServingScheduler` — the concurrent planner behind
  ``submit_many``.  Staging (bind -> optimize -> execute -> simulate) is
  deterministic and runs on a thread pool over the lock-striped plan
  caches; finalization (logging, billing, template bookkeeping) runs in
  submission order, so a threaded batch is bit-identical to sequential
  submission and the log order is deterministic.

Per-tenant admission and accounting follows the framing of *Saving Money
for Analytical Workloads in the Cloud* (Srivastava et al.): cost-aware
serving is a multi-tenant scheduling problem, not a single call.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.governance import AdmissionVerdict
from repro.core.journal import AdmissionDecision as JournalAdmissionDecision
from repro.dop.constraints import Constraint
from repro.engine.local_executor import LocalExecutor
from repro.errors import DeadlineExceededError, QueryFailedError, ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.bioptimizer import PlanChoice
    from repro.core.warehouse import CostIntelligentWarehouse
    from repro.engine.batch import Batch
    from repro.sim.distsim import ScalingPolicy, SimResult
    from repro.sql.binder import BoundQuery
    from repro.statsvc.logs import QueryRecord, TenantLogView


# --------------------------------------------------------------------- #
# Request
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class QueryRequest:
    """One immutable submission: SQL + constraint + serving options.

    Fields left as ``None`` are filled from the submitting
    :class:`Session`'s defaults during resolution; a request without a
    constraint can only be served by a session that carries one.
    """

    sql: str
    constraint: Constraint | None = None
    template: str = "adhoc"
    at_time: float | None = None
    policy: "str | ScalingPolicy | None" = None
    execute_locally: bool = False
    simulate: bool = True
    truth: Mapping[int, float] | None = None
    use_plan_cache: bool = True
    tenant: str | None = None

    def replace(self, **changes) -> "QueryRequest":
        """A copy with the given fields changed (requests are frozen)."""
        return replace(self, **changes)


class QueryState(Enum):
    """Lifecycle states of one submission."""

    QUEUED = "queued"
    BOUND = "bound"
    PLANNED = "planned"
    SIMULATED = "simulated"
    DONE = "done"
    FAILED = "failed"
    #: Terminal: admission control refused the query (tenant budget
    #: exhausted) before any serving work ran.  The handle carries an
    #: :class:`~repro.errors.AdmissionDeniedError`.
    DENIED = "denied"


#: Forward progression of the lifecycle (``FAILED`` can follow any state,
#: ``DENIED`` only replaces ``QUEUED``; ``SIMULATED`` is skipped when
#: ``simulate=False``).
STATE_ORDER = (
    QueryState.QUEUED,
    QueryState.BOUND,
    QueryState.PLANNED,
    QueryState.SIMULATED,
    QueryState.DONE,
)


# --------------------------------------------------------------------- #
# Outcome
# --------------------------------------------------------------------- #
@dataclass
class QueryOutcome:
    """Everything one submission produced."""

    sql: str
    choice: "PlanChoice"
    sim: "SimResult | None"
    batch: "Batch | None"
    record: "QueryRecord"
    constraint: Constraint
    #: Degraded-mode serving: the optimize stage blew its deadline and
    #: the plan is the fallback (``degraded_mode``: ``"skeleton"`` =
    #: cached template shapes re-planned, bit-identical to full
    #: optimization; ``"heuristic"`` = the left-deep default plan).
    degraded: bool = False
    degraded_mode: str | None = None

    @property
    def tenant(self) -> str:
        return self.record.tenant

    @property
    def latency(self) -> float:
        if self.sim is not None:
            return self.sim.latency
        return self.choice.dop_plan.estimate.latency

    @property
    def dollars(self) -> float:
        if self.sim is not None:
            return self.sim.total_dollars
        return self.choice.dop_plan.estimate.total_dollars

    @property
    def sla_met(self) -> bool | None:
        if self.constraint.latency_sla is None:
            return None
        return self.latency <= self.constraint.latency_sla

    @property
    def constraint_met(self) -> bool:
        """Whether the outcome honored the user's constraint — the
        latency SLA or the dollar budget, whichever was stated
        (:attr:`sla_met` is ``None`` for budget-constrained queries;
        this covers both kinds)."""
        if self.constraint.is_sla:
            return self.sla_met  # type: ignore[return-value]
        assert self.constraint.budget is not None
        return self.dollars <= self.constraint.budget

    def describe(self) -> str:
        from repro.util.units import fmt_dollars, fmt_duration

        lines = [
            f"constraint: {self.constraint.describe()}",
            f"plan: {self.choice.describe()}",
            f"outcome: latency={fmt_duration(self.latency)} "
            f"cost={fmt_dollars(self.dollars)}",
            f"constraint met: {self.constraint_met}",
        ]
        if self.degraded:
            lines.append(f"degraded: optimize deadline ({self.degraded_mode} plan)")
        return "\n".join(lines)


# --------------------------------------------------------------------- #
# Handle
# --------------------------------------------------------------------- #
@dataclass
class _Staged:
    """Output of the concurrent stage phase, awaiting ordered finalize."""

    bound: "BoundQuery"
    choice: "PlanChoice"
    batch: "Batch | None"
    sim: "SimResult | None"
    degraded: bool = False
    degraded_mode: str | None = None


class QueryHandle:
    """The observable lifecycle of one submitted :class:`QueryRequest`.

    A handle moves ``QUEUED -> BOUND -> PLANNED [-> SIMULATED] -> DONE``
    (or ``FAILED`` from any state), accumulating wall time per stage in
    :attr:`stage_timings` (keys: ``queued``, ``bind``, ``plan``,
    ``execute``, ``simulate``, ``finalize``).  :meth:`result` returns
    the :class:`QueryOutcome` or raises the carried
    :class:`~repro.errors.QueryFailedError`.
    """

    def __init__(self, request: QueryRequest, index: int = 0) -> None:
        self.request = request
        self.index = index
        self.state = QueryState.QUEUED
        self.stage_timings: dict[str, float] = {}
        self.error: QueryFailedError | None = None
        #: Warehouse-clock admission timestamp (set at admission, used
        #: for the log record — identical to sequential submission).
        self.timestamp: float | None = None
        #: The admission controller's verdict (``None`` when no tenant
        #: budgets are configured — the admit-all fast path).
        self.admission: AdmissionVerdict | None = None
        #: Retry attempts the resilience layer burned staging this
        #: request (their modeled dollars are on the tenant's bill).
        self.retries = 0
        self._outcome: QueryOutcome | None = None
        #: Exactly-once finalize latch (set under the serving lock):
        #: logging and billing must never apply twice to one handle.
        self._finalized = False
        self._last_mark = time.perf_counter()

    # -- lifecycle bookkeeping (serving internals) --------------------- #
    def _advance(self, state: QueryState, stage: str) -> None:
        now = time.perf_counter()
        self.stage_timings[stage] = (
            self.stage_timings.get(stage, 0.0) + now - self._last_mark
        )
        self._last_mark = now
        self.state = state

    def _complete(self, outcome: QueryOutcome) -> None:
        self._outcome = outcome
        self._advance(QueryState.DONE, "finalize")

    def _fail(self, error: QueryFailedError) -> None:
        self.error = error
        self.state = QueryState.FAILED

    def _deny(self, error: QueryFailedError) -> None:
        self.error = error
        self.state = QueryState.DENIED

    # -- public surface ------------------------------------------------ #
    @property
    def done(self) -> bool:
        return self.state in (QueryState.DONE, QueryState.FAILED, QueryState.DENIED)

    @property
    def failed(self) -> bool:
        return self.state is QueryState.FAILED

    @property
    def denied(self) -> bool:
        """Admission control refused this query (budget exhausted)."""
        return self.state is QueryState.DENIED

    @property
    def degraded(self) -> bool:
        """Whether this query was served by the degraded-mode fallback."""
        return self._outcome is not None and self._outcome.degraded

    def result(self) -> QueryOutcome:
        """The outcome; raises the carried error for failed queries."""
        if self.error is not None:
            raise self.error
        if self._outcome is None:
            raise ReproError(
                f"query #{self.index} has not finished serving "
                f"(state: {self.state.value})"
            )
        return self._outcome

    def describe(self) -> str:
        sql = self.request.sql
        head = f"[{self.state.value}] #{self.index} {sql[:60]}"
        if not self.stage_timings:
            return head
        stages = ", ".join(
            f"{name}={seconds * 1e3:.2f}ms"
            for name, seconds in self.stage_timings.items()
        )
        return f"{head}\n  stages: {stages}"


# --------------------------------------------------------------------- #
# Per-tenant billing
# --------------------------------------------------------------------- #
class TenantBill:
    """Running per-tenant spend, rolled up into warehouse billing.

    Serving dollars (``dollars``) and background-tuning dollars
    (``background_dollars``) are metered separately so experiments can
    report foreground vs background spend per tenant; the
    :class:`~repro.tuning.service.TuningService` attributes each applied
    action's cost to the tenants whose traffic motivated it.

    Dollar balances accumulate internally in **integral ledger units**
    (:data:`~repro.core.journal.LEDGER_SCALE` units per dollar — a
    power of two, so each charge's conversion is exact and accumulation
    is order-independent).  Floats drift; a crash-recovery replay must
    reproduce live totals *to the last bit*, and integer sums do.  The
    public ``dollars`` / ``background_dollars`` / ``retry_dollars``
    views stay floats.
    """

    def __init__(self, tenant: str) -> None:
        self.tenant = tenant
        self.queries = 0
        self.machine_seconds = 0.0
        self.background_actions = 0
        self.retries = 0
        self._dollars_units = 0
        self._background_units = 0
        self._retry_units = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TenantBill(tenant={self.tenant!r}, queries={self.queries}, "
            f"dollars={self.dollars:.6f}, total={self.total_dollars:.6f})"
        )

    def charge(self, record: "QueryRecord") -> None:
        from repro.core.journal import to_ledger_units

        self.queries += 1
        self._dollars_units += to_ledger_units(record.dollars)
        self.machine_seconds += record.machine_seconds

    def charge_background(self, dollars: float) -> None:
        """Meter one background tuning apply/rollback against this tenant."""
        from repro.core.journal import to_ledger_units

        self.background_actions += 1
        self._background_units += to_ledger_units(dollars)

    def charge_retry(self, dollars: float) -> None:
        """Meter one retry attempt's modeled compute against this tenant."""
        from repro.core.journal import to_ledger_units

        self.retries += 1
        self._retry_units += to_ledger_units(dollars)

    @property
    def dollars(self) -> float:
        """Serving spend (sum of served records' dollars)."""
        from repro.core.journal import from_ledger_units

        return from_ledger_units(self._dollars_units)

    @property
    def background_dollars(self) -> float:
        from repro.core.journal import from_ledger_units

        return from_ledger_units(self._background_units)

    @property
    def retry_dollars(self) -> float:
        from repro.core.journal import from_ledger_units

        return from_ledger_units(self._retry_units)

    @property
    def total_dollars(self) -> float:
        """Serving plus background plus retry spend."""
        from repro.core.journal import from_ledger_units

        return from_ledger_units(
            self._dollars_units + self._background_units + self._retry_units
        )

    # -- exact ledger views (observability reconciles against these) --- #
    @property
    def serving_units(self) -> int:
        """Serving spend in integral ledger units."""
        return self._dollars_units

    @property
    def background_units(self) -> int:
        """Background-tuning spend in integral ledger units."""
        return self._background_units

    @property
    def retry_units(self) -> int:
        """Retry spend in integral ledger units."""
        return self._retry_units

    @property
    def total_units(self) -> int:
        """Total spend in integral ledger units."""
        return self._dollars_units + self._background_units + self._retry_units

    # -- durability ----------------------------------------------------- #
    def ledger_snapshot(self) -> tuple:
        """The bill's exact state as a plain tuple (checkpointing, and
        bit-equality assertions in the recovery tests)."""
        return (
            self.tenant,
            self.queries,
            self._dollars_units,
            self.machine_seconds,
            self._background_units,
            self.background_actions,
            self._retry_units,
            self.retries,
        )

    @classmethod
    def from_ledger_snapshot(cls, snapshot: tuple) -> "TenantBill":
        """Rebuild a bill from :meth:`ledger_snapshot` output."""
        (
            tenant,
            queries,
            dollars_units,
            machine_seconds,
            background_units,
            background_actions,
            retry_units,
            retries,
        ) = snapshot
        bill = cls(tenant)
        bill.queries = queries
        bill._dollars_units = dollars_units
        bill.machine_seconds = machine_seconds
        bill._background_units = background_units
        bill.background_actions = background_actions
        bill._retry_units = retry_units
        bill.retries = retries
        return bill


# --------------------------------------------------------------------- #
# Session
# --------------------------------------------------------------------- #
class Session:
    """A tenant's connection to the warehouse.

    Carries per-tenant defaults (constraint, scaling policy, template
    namespace) so requests stay terse, exposes an isolated view of the
    Statistics Service log, and accounts every served query's dollars
    against its tenant in the warehouse's billing roll-up.
    """

    def __init__(
        self,
        warehouse: "CostIntelligentWarehouse",
        *,
        tenant: str = "default",
        constraint: Constraint | None = None,
        policy: "str | ScalingPolicy | None" = None,
        template_namespace: str | None = None,
    ) -> None:
        self.warehouse = warehouse
        self.tenant = tenant
        self.default_constraint = constraint
        self.default_policy = policy
        self.template_namespace = template_namespace

    # -- request resolution -------------------------------------------- #
    def resolve(
        self, request: QueryRequest | str, constraint: Constraint | None = None
    ) -> QueryRequest:
        """Fill a request's open fields from this session's defaults."""
        if isinstance(request, str):
            request = QueryRequest(sql=request, constraint=constraint)
        elif constraint is not None and request.constraint is None:
            request = request.replace(constraint=constraint)
        resolved_constraint = request.constraint or self.default_constraint
        if resolved_constraint is None:
            raise ReproError(
                "no constraint for query: set one on the QueryRequest "
                "or give the session a default"
            )
        template = request.template
        prefix = f"{self.template_namespace}." if self.template_namespace else ""
        if prefix and not template.startswith(prefix):
            # Idempotent: resubmitting an already-resolved request (e.g.
            # ``handle.request``) must not double-prefix the template and
            # split the family in the log / skeleton cache / advisor.
            template = prefix + template
        return request.replace(
            constraint=resolved_constraint,
            template=template,
            policy=request.policy
            if request.policy is not None
            else (self.default_policy or "dop-monitor"),
            tenant=request.tenant or self.tenant,
        )

    # -- submission ----------------------------------------------------- #
    def submit(
        self, request: QueryRequest | str, constraint: Constraint | None = None
    ) -> QueryHandle:
        """Serve one request through the full lifecycle; never raises —
        failures (including resolution failures such as a missing
        constraint) and admission denials are carried on the returned
        handle."""
        try:
            resolved = self.resolve(request, constraint)
        except Exception as exc:  # noqa: BLE001 - carried on the handle
            handle = QueryHandle(_as_request(request, constraint))
            handle._fail(_wrap_failure(handle, exc))
            return handle
        handle = QueryHandle(resolved)
        # A single submission has no batch to defer behind, so DEFER
        # downgrades to THROTTLE (which for one query just serves it).
        self._admit([handle], defer_ok=False)
        if handle.denied:
            return handle
        _serve_one(self, handle)
        self.warehouse._maybe_autotune()
        self.warehouse._maybe_collect()
        return handle

    def submit_many(
        self,
        items: Iterable["QueryRequest | str | tuple[str, Constraint]"],
        *,
        constraint: Constraint | None = None,
        fail_fast: bool = False,
        max_workers: int | None = None,
    ) -> list[QueryHandle]:
        """Serve a batch of requests through the :class:`ServingScheduler`.

        Items are :class:`QueryRequest`\\ s, bare SQL strings (planned
        under ``constraint`` or the session default), or ``(sql,
        constraint)`` pairs.  With ``fail_fast=False`` (default) a
        failing item — including one that fails *resolution*, e.g. a
        bare SQL string with no constraint anywhere, or one *denied* by
        admission control (:class:`~repro.errors.AdmissionDeniedError`,
        handle in the ``DENIED`` state) — is reported on its own handle
        (index + SQL prefix) and the rest of the batch proceeds;
        ``fail_fast=True`` keeps the legacy abort-the-batch behavior.
        ``max_workers`` > 1 plans on a thread pool, bit-identical to
        sequential submission.
        """
        entries: list[QueryRequest | QueryHandle] = []
        for index, item in enumerate(items):
            try:
                if isinstance(item, (QueryRequest, str)):
                    # resolve() rejects constraint-less items itself.
                    entries.append(self.resolve(item, constraint))
                else:
                    sql, item_constraint = item
                    entries.append(
                        self.resolve(QueryRequest(sql=sql, constraint=item_constraint))
                    )
            except Exception as exc:  # noqa: BLE001 - carried on the handle
                handle = QueryHandle(_as_request(item, constraint), index=index)
                handle._fail(_wrap_failure(handle, exc))
                if fail_fast:
                    raise handle.error from exc
                entries.append(handle)
        scheduler = ServingScheduler(
            self, max_workers=max_workers, fail_fast=fail_fast
        )
        handles = scheduler.run(entries)
        # Recurring tuning runs *between* batches (policy cadence), never
        # while scheduler threads are staging over the shared caches;
        # scheduled cost collection follows the same contract.
        self.warehouse._maybe_autotune()
        self.warehouse._maybe_collect()
        return handles

    def plan(
        self,
        sql: str,
        constraint: Constraint | None = None,
        *,
        use_plan_cache: bool = True,
    ) -> "tuple[BoundQuery, PlanChoice]":
        """Bind + optimize without executing or logging (the serving-layer
        planning path; see :meth:`CostIntelligentWarehouse.plan`)."""
        resolved = constraint or self.default_constraint
        if resolved is None:
            raise ReproError(
                "no constraint for query: pass one or give the session a default"
            )
        return self.warehouse._plan(sql, resolved, use_plan_cache)

    # -- per-tenant views ----------------------------------------------- #
    @property
    def logs(self) -> "TenantLogView":
        """This tenant's isolated view of the Statistics Service log."""
        return self.warehouse.logs.for_tenant(self.tenant)

    @property
    def bill(self) -> TenantBill:
        """This tenant's running bill (zeroed view if nothing served)."""
        return self.warehouse.billing.get(self.tenant) or TenantBill(self.tenant)

    @property
    def dollars_spent(self) -> float:
        return self.bill.dollars

    # -- serving internals ---------------------------------------------- #
    def _admit(self, handles: list[QueryHandle], *, defer_ok: bool = True) -> None:
        """Admission-check and timestamp handles in submission order.

        Done up front under the serving lock so threaded staging cannot
        perturb the clock semantics sequential submission would have,
        and so the admission controller reads billing state no finalize
        can be mutating concurrently.  When tenant budgets are
        configured, each handle gets the controller's verdict: ``DENY``
        marks the handle ``DENIED`` (typed error, no timestamp — the
        warehouse clock never advances for work that is not served);
        ``DEFER`` leaves the timestamp unassigned, to be granted by a
        re-admission at the tail of the batch; ``ADMIT``/``THROTTLE``
        proceed.  Each admitted handle also *reserves* its tenant's
        historical average cost per query, so a long batch from one
        tenant escalates mid-batch (to THROTTLE, then DEFER — whose
        tail re-check sees the real dollars and may deny) instead of
        being admitted wholesale against the bill as of batch start.
        With no budgets this is timestamping only — the pre-governance
        fast path, byte for byte.
        """
        warehouse = self.warehouse
        controller = warehouse.admission
        reserved: dict[str, float] = {}
        with warehouse._serving_lock:
            for handle in handles:
                was_deferred = handle.admission is AdmissionVerdict.DEFER
                if controller.active:
                    tenant = handle.request.tenant or self.tenant
                    bill = warehouse.billing.get(tenant)
                    verdict = controller.check(
                        tenant,
                        bill,
                        defer_ok=defer_ok,
                        reserved_dollars=reserved.get(tenant, 0.0),
                    )
                    # Verdict counters are authoritative state (budget
                    # enforcement history): journal every decision.  For
                    # a DENY this is the *only* record the query leaves
                    # — no billing, no log entry.
                    warehouse._journal_append(
                        JournalAdmissionDecision(tenant=tenant, verdict=verdict.value)
                    )
                    handle.admission = verdict
                    if verdict is AdmissionVerdict.DENY:
                        warehouse.metrics.counter(
                            "repro_queries_denied_total", tenant=tenant
                        )
                        handle._deny(
                            controller.denied_error(
                                tenant,
                                warehouse.billing.get(tenant),
                                index=handle.index,
                                sql=handle.request.sql,
                            )
                        )
                        continue
                    if verdict is AdmissionVerdict.DEFER:
                        continue
                    # Admitted: reserve the tenant's average per-query
                    # spend so later batch items see it as projected.
                    if bill is not None and bill.queries:
                        reserved[tenant] = reserved.get(tenant, 0.0) + (
                            bill.dollars / bill.queries
                        )
                at_time = handle.request.at_time
                timestamp = warehouse.clock if at_time is None else at_time
                if was_deferred:
                    # A re-admitted deferred handle finalizes behind work
                    # admitted after it; clamp its explicit at_time up to
                    # the clock so the log stays append-ordered.
                    timestamp = max(timestamp, warehouse.clock)
                warehouse.clock = max(warehouse.clock, timestamp)
                handle.timestamp = timestamp

    def _stage(self, handle: QueryHandle) -> _Staged:
        """The concurrent phase: bind -> optimize -> execute -> simulate.

        Deterministic given the request (caches only memoize pure
        planning functions and the simulator derives its own RNG), so
        outcomes, logs, and billing are exact on scheduler threads.
        The optimizer/estimator *observability counters* (stage times,
        memo hits, timing-evaluation counts) are updated without locks
        and may under-count slightly under a concurrent batch; the
        benchmark measures them on single-threaded runs only.
        """
        warehouse = self.warehouse
        request = handle.request
        handle._advance(handle.state, "queued")
        assert request.constraint is not None  # resolved at submission
        guard = warehouse._stage_guard(request.tenant)

        def on_bound(_bound: "BoundQuery") -> None:
            handle._advance(QueryState.BOUND, "bind")

        degraded = False
        degraded_mode: str | None = None
        try:
            bound, choice = warehouse._plan(
                request.sql,
                request.constraint,
                request.use_plan_cache,
                on_bound=on_bound,
                guard=guard,
            )
        except DeadlineExceededError as exc:
            if (
                guard is None
                or exc.stage != "optimize"
                or not warehouse.resilience.degraded_fallback
            ):
                raise
            # Degraded-mode serving: an optimize timeout never fails the
            # batch.  Fall back to the skeleton-cache shapes or the
            # heuristic default plan, and finish the remaining stages
            # unguarded — the request already blew its deadline; what is
            # left is completing at floor quality, not enforcing it.
            handle.retries += guard.retries
            guard = None
            bound, choice, degraded_mode = warehouse._plan_degraded(
                request.sql, request.constraint
            )
            degraded = True
            warehouse.resilience_stats.note_degraded()
        return self._finish_stage(
            handle, guard, bound, choice, degraded, degraded_mode
        )

    def _finish_stage(
        self,
        handle: QueryHandle,
        guard,
        bound: "BoundQuery",
        choice: "PlanChoice",
        degraded: bool,
        degraded_mode: str | None,
    ) -> _Staged:
        """The post-planning half of staging: execute -> simulate.

        Shared by the in-process path (:meth:`_stage`) and the sharded
        path (:meth:`_collect_sharded`), which differ only in where the
        plan came from.
        """
        warehouse = self.warehouse
        request = handle.request
        handle._advance(QueryState.PLANNED, "plan")

        batch: "Batch | None" = None
        truth = dict(request.truth) if request.truth is not None else None
        if request.execute_locally:
            if warehouse.database is None:
                raise ReproError("cannot execute locally without a Database")
            result = LocalExecutor(warehouse.database).execute(choice.plan)
            batch = result.batch
            if truth is None:
                truth = {k: float(v) for k, v in result.true_rows.items()}
            handle._advance(QueryState.PLANNED, "execute")

        sim: "SimResult | None" = None
        if request.simulate:
            assert request.policy is not None  # resolved at submission

            def simulate() -> "SimResult":
                return warehouse._simulate(
                    choice, request.constraint, request.policy, truth
                )

            sim = guard.run("simulate", simulate) if guard is not None else simulate()
            handle._advance(QueryState.SIMULATED, "simulate")
        if guard is not None:
            handle.retries += guard.retries
        return _Staged(
            bound=bound,
            choice=choice,
            batch=batch,
            sim=sim,
            degraded=degraded,
            degraded_mode=degraded_mode,
        )

    # -- sharded staging (see repro.core.sharding) ---------------------- #
    def _sharded_eligible(self, handle: QueryHandle) -> bool:
        """Whether a handle's planning can run on a worker process.

        Remote staging replicates the *cached* planning path only;
        anything else (cache bypass, local execution, a warehouse built
        with ``plan_cache_size=0``) stages in-process at its collect
        position, preserving submission-order semantics.
        """
        request = handle.request
        return (
            request.use_plan_cache
            and not request.execute_locally
            and self.warehouse.plan_cache is not None
        )

    def _dispatch_sharded(self, handle: QueryHandle, pool) -> int | None:
        """Send one handle's planning to the pool; ``None`` = stage it
        in-process (ineligible request, or an exact-cache hit that
        needs no planning at all)."""
        if not self._sharded_eligible(handle):
            return None
        from repro.sql.parameterize import parameterize_sql

        warehouse = self.warehouse
        request = handle.request
        assert request.constraint is not None  # resolved at submission
        parameterized = parameterize_sql(request.sql)
        version = warehouse.catalog.version
        exact_key = (parameterized.normalized, request.constraint, version)
        assert warehouse.plan_cache is not None
        if warehouse.plan_cache.lookup(exact_key) is not None:
            # A hit costs no planning: the in-process stage at this
            # handle's collect position will hit the cache again.
            return None
        skeleton_hint = None
        skeleton_key = None
        if warehouse.skeleton_cache is not None:
            kind = "sla" if request.constraint.is_sla else "budget"
            skeleton_key = (parameterized.template_key, kind, version)
            skeleton_hint = warehouse.skeleton_cache.lookup(skeleton_key)
        handle._advance(handle.state, "queued")
        return pool.dispatch(
            sql=request.sql,
            constraint=request.constraint,
            template_key=parameterized.template_key,
            stats_version=version,
            skeleton_trees=skeleton_hint,
            skeleton_key=skeleton_key,
        )

    def _collect_sharded(
        self, handle: QueryHandle, pool, task_id: int
    ) -> _Staged:
        """Await one remote plan and finish staging in-process.

        Mirrors :meth:`_stage`'s degraded-fallback contract: an
        unresponsive worker surfaces as a
        :class:`~repro.errors.DeadlineExceededError` on the ``optimize``
        stage and falls back to degraded-mode planning instead of
        failing the batch.  Worker crashes never reach here — the pool
        restarts them warm and re-stages transparently.
        """
        warehouse = self.warehouse
        request = handle.request
        assert request.constraint is not None  # resolved at submission
        guard = warehouse._stage_guard(request.tenant)
        degraded = False
        degraded_mode: str | None = None
        try:
            plan = pool.result_for(task_id)
        except DeadlineExceededError as exc:
            if (
                guard is None
                or exc.stage != "optimize"
                or not warehouse.resilience.degraded_fallback
            ):
                raise
            handle.retries += guard.retries
            guard = None
            bound, choice, degraded_mode = warehouse._plan_degraded(
                request.sql, request.constraint
            )
            degraded = True
            warehouse.resilience_stats.note_degraded()
            handle._advance(QueryState.BOUND, "bind")
        else:
            bound, choice = plan.bound, plan.choice
            self._absorb_staged(handle, plan)
            handle._advance(QueryState.BOUND, "bind")
        return self._finish_stage(
            handle, guard, bound, choice, degraded, degraded_mode
        )

    def _absorb_staged(self, handle: QueryHandle, plan) -> None:
        """Fold one remote plan into the coordinator's caches.

        The exact plan cache gets the (bound, choice) pair under the
        same key and governed annotations ``_plan`` would use; freshly
        computed skeleton shapes land in the skeleton cache so later
        batches (and the degraded fallback) reuse them.  The binding
        cache is *not* written: it stores pre-MV-rewrite bindings while
        a worker returns the post-rewrite bound query, and storing the
        wrong flavor would double-rewrite on the next in-process plan.

        Handle stage timings get the worker's measured planning costs
        (``worker_bind`` / ``worker_optimize``) alongside the wall
        timings ``_advance`` records coordinator-side.
        """
        from repro.sql.parameterize import parameterize_sql

        warehouse = self.warehouse
        request = handle.request
        assert request.constraint is not None
        parameterized = parameterize_sql(request.sql)
        version = warehouse.catalog.version
        governed = warehouse._governed
        template = parameterized.template_key if governed else None
        if plan.new_skeleton_trees is not None and warehouse.skeleton_cache is not None:
            kind = "sla" if request.constraint.is_sla else "budget"
            warehouse.skeleton_cache.store(
                (parameterized.template_key, kind, version),
                plan.new_skeleton_trees,
                template=template,
                cost_s=plan.optimize_s if governed else 0.0,
            )
        assert warehouse.plan_cache is not None
        warehouse.plan_cache.store(
            (parameterized.normalized, request.constraint, version),
            plan.bound,
            plan.choice,
            template=template,
            cost_s=plan.optimize_s if governed else 0.0,
        )
        handle.stage_timings["worker_bind"] = plan.bind_s
        handle.stage_timings["worker_optimize"] = plan.optimize_s

    def _finalize(self, handle: QueryHandle, staged: _Staged) -> None:
        """The ordered phase: log, bill the tenant, track templates.

        Exactly-once: the handle's finalize latch is checked and set
        under the serving lock, so no interleaving of scheduler threads
        (or a retried finalize after a mid-batch fault) can log or bill
        the same handle twice.
        """
        warehouse = self.warehouse
        request = handle.request
        assert handle.timestamp is not None and request.constraint is not None
        assert request.tenant is not None
        with warehouse._serving_lock:
            if handle._finalized:
                return
            handle._finalized = True
            record = warehouse._log(
                request.sql,
                staged.bound,
                request.template,
                handle.timestamp,
                staged.choice,
                staged.sim,
                request.constraint,
                tenant=request.tenant,
            )
            warehouse._account(record)
            warehouse._remember_template(request.template, staged.bound)
            # Serving-event metrics (registry lock is innermost; dollar
            # amounts are integral ledger units).
            from repro.core.journal import to_ledger_units

            warehouse.metrics.counter(
                "repro_queries_served_total", tenant=record.tenant
            )
            warehouse.metrics.counter(
                "repro_serving_cost_ledger_units",
                to_ledger_units(record.dollars),
                tenant=record.tenant,
            )
            warehouse.metrics.histogram(
                "repro_query_latency_seconds",
                record.latency_s,
                tenant=record.tenant,
            )
        # Outside the serving lock (checkpoint re-acquires it): roll a
        # checkpoint when the journal's interval policy says so.
        warehouse._maybe_checkpoint()
        handle._complete(
            QueryOutcome(
                sql=request.sql,
                choice=staged.choice,
                sim=staged.sim,
                batch=staged.batch,
                record=record,
                constraint=request.constraint,
                degraded=staged.degraded,
                degraded_mode=staged.degraded_mode,
            )
        )


def _as_request(item: object, constraint: Constraint | None) -> QueryRequest:
    """Best-effort request for a handle whose item failed resolution."""
    if isinstance(item, QueryRequest):
        return item
    if isinstance(item, str):
        return QueryRequest(sql=item, constraint=constraint)
    return QueryRequest(sql=repr(item), constraint=constraint)


def _wrap_failure(handle: QueryHandle, exc: Exception) -> QueryFailedError:
    if isinstance(exc, QueryFailedError):
        return exc
    return QueryFailedError(
        str(exc),
        index=handle.index,
        sql=handle.request.sql,
        cause=exc,
        # Typed resilience errors name the stage that failed; for
        # anything else, the handle's lifecycle state at failure time
        # is the best picklable locator we have.
        stage=getattr(exc, "stage", None) or handle.state.value,
    )


def _serve_one(session: Session, handle: QueryHandle) -> bool:
    """Stage + finalize one admitted handle inline; False on failure."""
    try:
        session._finalize(handle, session._stage(handle))
        return True
    except Exception as exc:  # noqa: BLE001 - carried on the handle
        handle._fail(_wrap_failure(handle, exc))
        session.warehouse.metrics.counter(
            "repro_queries_failed_total",
            tenant=handle.request.tenant or session.tenant,
        )
        return False


# --------------------------------------------------------------------- #
# Scheduler
# --------------------------------------------------------------------- #
class ServingScheduler:
    """Concurrent request scheduler over one session.

    Splits serving into the deterministic *stage* phase (bind ->
    optimize -> execute -> simulate), fanned out over a thread pool with
    the lock-striped plan caches shared between workers, and the ordered
    *finalize* phase (Statistics Service logging, per-tenant billing,
    template bookkeeping) applied strictly in submission order.  A
    threaded batch therefore produces bit-identical outcomes and an
    identical, deterministic log to sequential submission — enforced by
    the concurrency parity test.
    """

    def __init__(
        self,
        session: Session,
        *,
        max_workers: int | None = None,
        fail_fast: bool = False,
    ) -> None:
        if max_workers is None:
            max_workers = min(8, os.cpu_count() or 2)
        if max_workers < 1:
            raise ReproError(f"max_workers must be >= 1, got {max_workers}")
        self.session = session
        self.max_workers = max_workers
        self.fail_fast = fail_fast

    def run(
        self, entries: "list[QueryRequest | QueryHandle]"
    ) -> list[QueryHandle]:
        """Serve resolved requests; already-failed handles (items that
        died during resolution) pass through in position, unscheduled.

        Admission verdicts shape the batch: ``DENIED`` handles pass
        through unserved (typed error carried; other tenants' items are
        unaffected), ``THROTTLE``\\ d handles lose batch parallelism
        (staged serially on the calling thread, finalized in submission
        order like everything else), and ``DEFER``\\ red handles are
        pushed behind the rest of the batch and re-admitted once it has
        finalized — by which point the deferring tenant's bill includes
        the batch's spend, so the re-check may deny them.
        """
        handles = [
            entry
            if isinstance(entry, QueryHandle)
            else QueryHandle(entry, index=index)
            for index, entry in enumerate(entries)
        ]
        live = [handle for handle in handles if not handle.failed]
        self.session._admit(live)
        batch = [h for h in live if h.admission is not AdmissionVerdict.DEFER]
        deferred = [h for h in live if h.admission is AdmissionVerdict.DEFER]
        self._serve(batch)
        for handle in deferred:
            # Re-admission assigns the timestamp now, so the log stays
            # append-ordered behind the batch it deferred to.
            self.session._admit([handle], defer_ok=False)
            if handle.denied:
                if self.fail_fast:
                    assert handle.error is not None
                    raise handle.error
                continue
            if not _serve_one(self.session, handle) and self.fail_fast:
                assert handle.error is not None
                raise handle.error
        return handles

    def _serve(self, batch: list[QueryHandle]) -> None:
        """Stage + finalize admitted handles, finalizing in submission
        order.  Throttled handles never enter the thread pool; denied
        handles pass through unserved — under ``fail_fast`` a denial
        aborts *at its position*, so items submitted before it are
        served, logged, and billed exactly as sequential submission
        would have (the legacy abort-the-batch contract).
        """
        worker_pool = self.session.warehouse._worker_pool
        if worker_pool is not None and worker_pool.alive:
            self._serve_sharded(batch, worker_pool)
            return

        pooled = [
            h
            for h in batch
            if not h.denied and h.admission is not AdmissionVerdict.THROTTLE
        ]
        if self.max_workers == 1 or len(pooled) <= 1:
            for handle in batch:
                if handle.denied:
                    if self.fail_fast:
                        assert handle.error is not None
                        raise handle.error
                    continue
                if not _serve_one(self.session, handle) and self.fail_fast:
                    assert handle.error is not None
                    raise handle.error
            return

        with ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="serving"
        ) as pool:
            futures = {h: pool.submit(self.session._stage, h) for h in pooled}
            for handle in batch:
                if handle.denied:
                    if self.fail_fast:
                        for pending in futures.values():
                            pending.cancel()
                        assert handle.error is not None
                        raise handle.error
                    continue
                try:
                    future = futures.get(handle)
                    staged = (
                        future.result()
                        if future is not None
                        else self.session._stage(handle)
                    )
                    self.session._finalize(handle, staged)
                except Exception as exc:  # noqa: BLE001 - carried on handle
                    handle._fail(_wrap_failure(handle, exc))
                    if self.fail_fast:
                        for pending in futures.values():
                            pending.cancel()
                        raise handle.error from exc

    def _serve_sharded(self, batch: list[QueryHandle], pool) -> None:
        """Stage over the warm worker-process pool, finalize in order.

        Two phases: dispatch every eligible handle's planning in
        submission order (pipelining — every worker starts planning
        immediately), then collect + finalize in submission order.
        Per-worker pipe FIFO plus ordered collection means each recv
        yields exactly the task being waited on.  Throttled and
        ineligible handles (and exact-cache hits) stage in-process *at
        their collect position*, exactly where the threaded path would
        run them serially.  Outcomes, logs, and bills are bit-identical
        to the threaded and sequential paths — enforced by the sharded
        parity matrix.
        """
        session = self.session
        pool.sync()
        task_ids: dict[QueryHandle, int] = {}
        for handle in batch:
            if handle.denied or handle.admission is AdmissionVerdict.THROTTLE:
                continue
            task_id = session._dispatch_sharded(handle, pool)
            if task_id is not None:
                task_ids[handle] = task_id
        for handle in batch:
            if handle.denied:
                if self.fail_fast:
                    pool.abandon(list(task_ids.values()))
                    assert handle.error is not None
                    raise handle.error
                continue
            try:
                task_id = task_ids.pop(handle, None)
                staged = (
                    session._collect_sharded(handle, pool, task_id)
                    if task_id is not None
                    else session._stage(handle)
                )
                session._finalize(handle, staged)
            except Exception as exc:  # noqa: BLE001 - carried on handle
                handle._fail(_wrap_failure(handle, exc))
                if self.fail_fast:
                    pool.abandon(list(task_ids.values()))
                    raise handle.error from exc
