"""Serving-layer plan caches for the cost-intelligent warehouse.

Analytical traffic is dominated by recurring report templates — the same
SQL shapes resubmitted with *varying literals* under the same
constraints.  Re-running the bi-objective optimizer for each arrival
wastes exactly the machine time the paper's economics are about, so the
warehouse memoizes planning work at three levels, all present whenever
its ``plan_cache_size`` is positive:

- **Exact level** (:class:`PlanCache`): the full
  :class:`~repro.core.bioptimizer.PlanChoice` keyed on the *normalized*
  SQL token stream (whitespace, letter case, and comments do not
  fragment the cache), the user constraint, and the catalog's stats
  version.  A verbatim resubmission pays nothing.
- **Skeleton level** (:class:`SkeletonCache`): the template's *plan
  skeleton* — the DP-chosen join tree plus its bushy variant shapes —
  keyed on the literal-free template key
  (:func:`~repro.sql.parameterize.parameterize_sql`), the constraint
  kind, and the stats version.  A resubmission with new literals skips
  join-order DP and bushy generation and re-runs only constant binding,
  cardinality re-estimation over the cached shapes, and the incremental
  DOP search — bit-identical to fresh optimization whenever the new
  literals would lead the DP to the same shapes (enforced on the
  workload suite by ``tests/cost/test_estimation_parity.py`` and the
  benchmark's parity guard).
- **Binding level** (:class:`BindingCache`): the bound query keyed on
  the normalized SQL and the stats version, so a second constraint on
  one arrival reuses the binding and everything keyed on it.

The stats version inside every key is the invalidation story: any
catalog mutation (stats refresh, recluster, MV creation, table DDL)
bumps the version, so stale entries can never be served — they simply
stop matching and age out of the LRU.  ``invalidate()`` exists for
explicit flushes (e.g. hardware recalibration, which changes cost
without touching the catalog).

Retention
---------

*Which* entry leaves a full stripe is delegated to a pluggable
:class:`~repro.core.governance.RetentionPolicy`.  The default
:class:`~repro.core.governance.LruPolicy` evicts the stripe's
least-recently-used entry — bit-identical (plans, hit/miss/eviction
counters) to the pre-governance hardcoded behavior.  A
:class:`~repro.core.governance.CostAwarePolicy` instead scores entries
by forecast template frequency times re-optimization cost saved, so hot
recurring templates survive eviction pressure that plain recency would
age them out of; the warehouse attaches the scoring metadata via
``cache.policy.record(...)`` when it stores an entry.

Thread safety
-------------

The :class:`~repro.core.service.ServingScheduler` plans concurrently, so
every cache is a *lock-striped* LRU: keys hash onto one of N stripes,
each a lock-guarded OrderedDict with ``capacity / N`` slots.  Planning
threads touching different templates never contend on the same lock, and
the per-stripe recency is exact within its stripe (global recency is
approximate under striping, which only matters under eviction pressure).
Small capacities collapse to a single stripe, so the sequential eviction
semantics the unit tests pin down are unchanged below
``_MIN_STRIPE_CAPACITY`` entries per stripe.  Victim selection runs
under the stripe lock; policies guard their own shared metadata.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Hashable, Iterable

from repro.core.governance import LruPolicy, RetentionPolicy
from repro.sql.parameterize import normalize_sql  # noqa: F401  (re-export)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.bioptimizer import PlanChoice
    from repro.optimizer.join_order import JoinTree, Leaf
    from repro.sql.binder import BoundQuery

#: Upper bound on stripes per cache; more stripes than planning threads
#: buys nothing.
_MAX_STRIPES = 8
#: Don't split a cache into stripes smaller than this — tiny stripes
#: evict under no memory pressure and tiny caches are only used by unit
#: tests that pin down exact sequential LRU behavior.
_MIN_STRIPE_CAPACITY = 64


class _Stripe:
    """One lock-guarded LRU shard."""

    __slots__ = ("lock", "capacity", "entries", "hits", "misses", "evictions")

    def __init__(self, capacity: int) -> None:
        self.lock = threading.Lock()
        self.capacity = capacity
        self.entries: OrderedDict[Hashable, object] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0


class _LruStats:
    """Shared lock-striped LRU bookkeeping with hit/miss counters."""

    def __init__(
        self,
        capacity: int,
        name: str,
        *,
        stripes: int | None = None,
        policy: RetentionPolicy | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"{name} capacity must be >= 1, got {capacity}")
        if stripes is None:
            stripes = max(1, min(_MAX_STRIPES, capacity // _MIN_STRIPE_CAPACITY))
        if stripes < 1:
            raise ValueError(f"{name} stripe count must be >= 1, got {stripes}")
        stripes = min(stripes, capacity)
        self.capacity = capacity
        self.name = name
        #: Who decides evictions; one policy instance per cache (its
        #: metadata is keyed by this cache's keys).
        self.policy = policy or LruPolicy()
        base, extra = divmod(capacity, stripes)
        self._stripes = tuple(
            _Stripe(base + (1 if index < extra else 0)) for index in range(stripes)
        )

    @property
    def stripe_count(self) -> int:
        return len(self._stripes)

    def _stripe(self, key: Hashable) -> _Stripe:
        return self._stripes[hash(key) % len(self._stripes)]

    def _get(self, key: Hashable):
        stripe = self._stripe(key)
        with stripe.lock:
            found = stripe.entries.get(key)
            if found is None:
                stripe.misses += 1
                return None
            stripe.entries.move_to_end(key)
            stripe.hits += 1
            return found

    def _put(
        self,
        key: Hashable,
        value: object,
        *,
        template: Hashable | None = None,
        cost_s: float = 0.0,
    ) -> None:
        stripe = self._stripe(key)
        with stripe.lock:
            stripe.entries[key] = value
            stripe.entries.move_to_end(key)
            if template is not None:
                # Metadata must land before victim selection: the entry
                # being stored competes in its own store's eviction, and
                # an unscored newcomer would evict itself against any
                # scored resident (and leak its metadata, recorded after
                # the fact for a key no longer present).
                self.policy.record(key, template=template, cost_s=cost_s)
            while len(stripe.entries) > stripe.capacity:
                victim = self.policy.victim(stripe.entries)
                del stripe.entries[victim]
                stripe.evictions += 1
                self.policy.on_evict(victim)

    def invalidate(self) -> None:
        """Drop every cached entry (and the policy's per-key metadata)."""
        for stripe in self._stripes:
            with stripe.lock:
                stripe.entries.clear()
        self.policy.clear()

    def export_state(self) -> tuple[tuple[Hashable, object], ...]:
        """Snapshot the cached entries as ``(key, value)`` pairs.

        Entries come out stripe by stripe, least-recently-used first
        within each stripe, so replaying them through
        :meth:`import_state` reproduces the per-stripe recency order.
        The warm hand-off to planner worker processes pickles this
        snapshot into the :class:`~repro.core.sharding.WorkerSpec`; the
        values themselves must therefore be picklable (skeleton trees
        and bound/choice pairs are — see ``tests/core/test_pickling.py``).
        """
        pairs: list[tuple[Hashable, object]] = []
        for stripe in self._stripes:
            with stripe.lock:
                pairs.extend(stripe.entries.items())
        return tuple(pairs)

    def import_state(
        self, pairs: Iterable[tuple[Hashable, object]]
    ) -> None:
        """Replay exported ``(key, value)`` pairs into this cache.

        Insertion goes through the normal store path, so capacity and
        the retention policy apply; importing more entries than fit
        simply evicts as usual.
        """
        for key, value in pairs:
            self._put(key, value)

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters (benchmark warmup)."""
        for stripe in self._stripes:
            with stripe.lock:
                stripe.hits = 0
                stripe.misses = 0
                stripe.evictions = 0
        self.policy.reset_stats()

    def __len__(self) -> int:
        return sum(len(stripe.entries) for stripe in self._stripes)

    @property
    def hits(self) -> int:
        return sum(stripe.hits for stripe in self._stripes)

    @property
    def misses(self) -> int:
        return sum(stripe.misses for stripe in self._stripes)

    @property
    def evictions(self) -> int:
        return sum(stripe.evictions for stripe in self._stripes)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def describe(self) -> str:
        return (
            f"{self.name}: {len(self)}/{self.capacity} entries "
            f"({self.stripe_count} stripe(s), {self.policy.name} retention), "
            f"{self.hits} hits / {self.misses} misses "
            f"({self.hit_rate:.0%}), {self.evictions} evictions"
        )


class PlanCache(_LruStats):
    """A bounded LRU of optimized plans (the exact-match level).

    Values are ``(bound_query, plan_choice)`` pairs: the bound query is
    needed downstream for logging and template bookkeeping, and binding
    is part of the work the cache amortizes.
    """

    def __init__(
        self, capacity: int = 256, *, policy: RetentionPolicy | None = None
    ) -> None:
        super().__init__(capacity, "plan cache", policy=policy)

    def lookup(self, key: Hashable) -> tuple["BoundQuery", "PlanChoice"] | None:
        return self._get(key)  # type: ignore[return-value]

    def store(
        self,
        key: Hashable,
        bound: "BoundQuery",
        choice: "PlanChoice",
        *,
        template: Hashable | None = None,
        cost_s: float = 0.0,
    ) -> None:
        self._put(key, (bound, choice), template=template, cost_s=cost_s)


class BindingCache(_LruStats):
    """A bounded LRU of bound queries keyed on normalized SQL.

    Binding is constraint-independent, so one entry serves every
    constraint a query is planned under — and because the optimizer's
    DAG-planning memo and the estimator's timing cache key on object
    identity, reusing the *same* :class:`BoundQuery` across constraints
    transitively shares physical planning and pipeline timings too.
    """

    def __init__(
        self, capacity: int = 256, *, policy: RetentionPolicy | None = None
    ) -> None:
        super().__init__(capacity, "binding cache", policy=policy)

    def lookup(self, key: Hashable) -> "BoundQuery | None":
        return self._get(key)  # type: ignore[return-value]

    def store(
        self,
        key: Hashable,
        bound: "BoundQuery",
        *,
        template: Hashable | None = None,
        cost_s: float = 0.0,
    ) -> None:
        self._put(key, bound, template=template, cost_s=cost_s)


class SkeletonCache(_LruStats):
    """A bounded LRU of template plan skeletons (the parameterized level).

    Values are tuples of join-tree shapes — the DP winner plus its bushy
    variants, in the exact order the optimizer would generate them.
    Shapes reference only table names and join edges (no literals), so
    one entry serves every instantiation of the template.
    """

    def __init__(
        self, capacity: int = 256, *, policy: RetentionPolicy | None = None
    ) -> None:
        super().__init__(capacity, "skeleton cache", policy=policy)

    def lookup(self, key: Hashable) -> tuple["JoinTree | Leaf", ...] | None:
        return self._get(key)  # type: ignore[return-value]

    def store(
        self,
        key: Hashable,
        trees: tuple["JoinTree | Leaf", ...],
        *,
        template: Hashable | None = None,
        cost_s: float = 0.0,
    ) -> None:
        self._put(key, tuple(trees), template=template, cost_s=cost_s)
