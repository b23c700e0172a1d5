"""Cost estimator (paper §3.1): per-operator scalability models + a
lightweight query-level simulator.

The estimator is "the center of the architecture ... a referee that ranks
different execution proposals".  Given a pipeline DAG, DOP assignments,
and hardware calibration, it predicts query latency, total machine time,
and monetary cost — accurately enough to plan with, cheaply enough to be
invoked thousands of times per optimization, and explainably (closed-form
formulas plus least-squares-calibrated exchange corrections; no black-box
models).

Caching architecture (the optimizer hot path)
---------------------------------------------

"Invoked thousands of times per optimization" made the estimator the
optimize-time bottleneck (~80% of wall time), so estimation is layered
as cache-friendly pure functions with memoization at three levels:

- **volumes** (:mod:`repro.cost.volumes`): per-operator data flow.
  DOP-independent except for partial aggregates, so one computation
  serves the whole DOP grid.  Cached per ``(pipeline, overrides)`` —
  plus ``dop`` only for DOP-sensitive pipelines.
- **timings** (:mod:`repro.cost.operator_models` behind
  :mod:`repro.cost.timing_cache`): pure in ``(pipeline, dop,
  overrides)``; memoized in weak per-pipeline dictionaries so entries
  die with their plan.  Override mappings whose volumes are bit-equal
  to the plan-time volumes share the plan-time timing, so a DOP-monitor
  replan re-times only the pipelines whose data flow it changed.  One
  timing is one loop over the per-operator kernel
  (``OperatorModels._op_cost``); the per-operator breakdown
  ``PipelineTiming.op_times`` is built only when read.  The DOP
  planner's incremental coster then re-times only the pipeline a
  candidate move changed, and its batched greedy rounds price a whole
  round of candidate moves with one lean
  :class:`repro.cost.query_simulator.ScheduleSweeper` pass (plus a
  critical-path prune that skips candidates provably unable to reduce
  latency) instead of per-candidate full schedules.
- **DAG planning** (:mod:`repro.core.bioptimizer`): join-tree variants,
  physical plans, and pipeline decompositions are memoized per bound
  query (weakly) — the user constraint never enters DAG planning, so a
  second constraint on the same query re-runs only the DOP search.
- **plans** (:mod:`repro.core.plan_cache`): the serving layer is a
  *two-level* cache.  The exact level memoizes whole ``PlanChoice``s
  keyed on (normalized SQL token stream, constraint, catalog stats
  version).  The skeleton level keys the template's *plan skeleton* —
  the DP-chosen join tree plus bushy variant shapes — on the
  literal-free template key
  (:func:`repro.sql.parameterize.parameterize_sql`), the constraint
  kind, and the stats version, so literal-varying report traffic skips
  join-order DP and bushy generation and re-runs only constant binding
  (itself served from a per-template AST cache), cardinality
  re-estimation, and the incremental DOP search.  A binding cache
  (normalized SQL -> bound query) makes the second constraint on one
  arrival share binding, the DAG memo, and all pipeline timings.

Invalidation: cached volumes/timings key on the cardinality-overrides
mapping, so new observations never see stale numbers; catalog mutations
bump ``Catalog.version``, which invalidates exact, skeleton, and
binding entries by construction; ``CostEstimator.invalidate_caches()``
handles the one out-of-band case (hardware/exchange recalibration).
Caching is bit-identical to the uncached path, and the kernel to the
original per-operator arithmetic — enforced by
``tests/cost/test_timing_oracle.py``,
``tests/cost/test_estimation_parity.py`` (including literal-varying
skeleton reuse and batched-vs-per-candidate DOP rounds) and the A/B
guard in ``benchmarks/bench_optimizer_throughput.py``.
``CostIntelligentWarehouse.describe_caches()`` reports hit rates across
every level.
"""

from repro.cost.hardware import HardwareCalibration
from repro.cost.estimate import CostEstimate, PipelineCost
from repro.cost.estimator import CostEstimator
from repro.cost.operator_models import OperatorModels
from repro.cost.regression import ExchangeCalibration, calibrate_exchange
from repro.cost.timing_cache import TimingCache

__all__ = [
    "HardwareCalibration",
    "CostEstimate",
    "PipelineCost",
    "CostEstimator",
    "OperatorModels",
    "ExchangeCalibration",
    "TimingCache",
    "calibrate_exchange",
]
