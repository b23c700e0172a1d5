"""DOP planner: constrained search over per-pipeline parallelism.

Greedy marginal search with the cost estimator as referee:

- **min cost s.t. latency SLA**: grow the DOP of the pipeline whose
  doubling buys the most latency per added dollar until the SLA holds,
  then co-finish-polish sibling groups and trim DOPs that no longer pay
  for themselves.
- **min latency s.t. budget**: grow DOPs while the budget allows,
  picking the best latency-per-dollar move each round.

The search evaluates the analytic estimator O(pipelines · log max_dop)
times — the complexity the paper demands ("comparable to existing
optimizers") versus the exponential unified search it rejects.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.cost.estimate import CostEstimate
from repro.cost.estimator import CostEstimator
from repro.cost.operator_models import PipelineTiming
from repro.cost.query_simulator import ScheduleSweeper
from repro.dop.cofinish import equalize_siblings
from repro.dop.constraints import Constraint
from repro.errors import EstimationError, InfeasibleConstraintError
from repro.plan.pipelines import PipelineDag


class _IncrementalCoster:
    """Incremental DAG re-coster for one ``(dag, overrides)`` search.

    Pipeline timings are memoized per ``(pipeline_id, dop)``, so costing
    a candidate move re-times only the pipeline whose DOP changed and
    re-runs the cheap ASAP schedule over known timings — O(1) timing
    evaluations per candidate instead of O(pipelines).  Produces
    bit-identical estimates to :meth:`CostEstimator.estimate_dag` (it
    runs the same scheduling code over the same timings).
    """

    def __init__(
        self,
        estimator: CostEstimator,
        dag: PipelineDag,
        overrides: dict[int, float] | None,
    ) -> None:
        self.estimator = estimator
        self.dag = dag
        self.overrides = overrides
        self._timings: dict[tuple[int, int], PipelineTiming] = {}
        self._sweeper: ScheduleSweeper | None = None
        self._scan_dollars = 0.0
        self.evaluations = 0

    def estimate(self, dops: dict[int, int]) -> CostEstimate:
        self.evaluations += 1
        timings: dict[int, PipelineTiming] = {}
        for pipeline in self.dag:
            pid = pipeline.pipeline_id
            dop = dops.get(pid)
            if dop is None:
                raise EstimationError(f"no DOP for pipeline {pid}")
            timings[pid] = self._timing(pipeline, dop)
        return self.estimator.estimate_schedule(self.dag, dops, timings)

    def _timing(self, pipeline, dop: int) -> PipelineTiming:
        key = (pipeline.pipeline_id, dop)
        timing = self._timings.get(key)
        if timing is None:
            timing = self.estimator.pipeline_timing(pipeline, dop, self.overrides)
            self._timings[key] = timing
        return timing

    def sweep(
        self,
        dops: dict[int, int],
        candidates: list[tuple[int, int]],
        prune_gainless: bool = False,
    ) -> list[tuple[float, float]]:
        """``(latency, total_dollars)`` per ``(pid, new_dop)`` candidate.

        One timing evaluation per candidate (the changed pipeline at its
        new DOP; everything else is already memoized) plus a single lean
        :class:`~repro.cost.query_simulator.ScheduleSweeper` pass — the
        batched greedy round's replacement for per-candidate full
        schedules.  Metrics are bit-identical to per-candidate
        :meth:`estimate` calls.

        ``prune_gainless`` (gain-scored growth rounds only): candidates
        provably unable to reduce latency — their pipeline is not an
        ancestor of the whole critical set — are neither timed nor
        scheduled; they report the base metrics, which the caller's
        ``gain > epsilon`` test discards exactly as if they had been
        costed.
        """
        self.evaluations += len(candidates)
        if self._sweeper is None:
            self._sweeper = ScheduleSweeper(self.dag, self.estimator.models)
            self._scan_dollars = self.estimator.scan_request_dollars(self.dag)
        sweeper = self._sweeper
        timings = self._timings  # inlined hot path of _timing()
        dop_list: list[int] = []
        durations: list[float] = []
        for pipeline in self.dag:
            pid = pipeline.pipeline_id
            dop = dops[pid]
            dop_list.append(dop)
            timing = timings.get((pid, dop))
            if timing is None:
                timing = self.estimator.pipeline_timing(pipeline, dop, self.overrides)
                timings[(pid, dop)] = timing
            durations.append(timing.duration)
        index = sweeper.index
        rate = self.estimator.price_per_node_second
        scan_dollars = self._scan_dollars

        keep = None
        state = None
        base_metric: tuple[float, float] | None = None
        if prune_gainless:
            keep, base_latency, base_machine, state = sweeper.filter_gainful(
                dop_list,
                durations,
                [(index[pid], new_dop) for pid, new_dop in candidates],
            )
            base_metric = (base_latency, base_machine * rate + scan_dollars)
            if not any(keep):
                return [base_metric] * len(candidates)

        moves: list[tuple[int, int, float]] = []
        for position, (pid, new_dop) in enumerate(candidates):
            if keep is not None and not keep[position]:
                continue
            timing = timings.get((pid, new_dop))
            if timing is None:
                timing = self.estimator.pipeline_timing(
                    self.dag.pipeline(pid), new_dop, self.overrides
                )
                timings[(pid, new_dop)] = timing
            moves.append((index[pid], new_dop, timing.duration))
        swept = iter(sweeper.sweep(dop_list, durations, moves, state))
        results: list[tuple[float, float]] = []
        for position in range(len(candidates)):
            if keep is not None and not keep[position]:
                results.append(base_metric)  # type: ignore[arg-type]
            else:
                latency, machine_seconds = next(swept)
                results.append((latency, machine_seconds * rate + scan_dollars))
        return results


@dataclass
class DopPlan:
    """A DOP assignment plus its predicted cost profile."""

    dops: dict[int, int]
    estimate: CostEstimate
    feasible: bool
    evaluations: int = 0
    constraint: Constraint | None = None

    @property
    def max_dop(self) -> int:
        return max(self.dops.values(), default=0)

    def describe(self) -> str:
        parts = [f"P{pid}:{dop}" for pid, dop in sorted(self.dops.items())]
        status = "feasible" if self.feasible else "INFEASIBLE"
        header = f"DOPs [{', '.join(parts)}] ({status})"
        return f"{header}\n{self.estimate.describe()}"


class DopPlanner:
    """Searches DOP assignments for one pipeline DAG."""

    def __init__(
        self,
        estimator: CostEstimator,
        *,
        max_dop: int = 64,
        enforce_sla_strictly: bool = False,
    ) -> None:
        self.estimator = estimator
        self.max_dop = max_dop
        self.enforce_sla_strictly = enforce_sla_strictly

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def plan(
        self,
        dag: PipelineDag,
        constraint: Constraint,
        overrides: dict[int, float] | None = None,
    ) -> DopPlan:
        coster = _IncrementalCoster(self.estimator, dag, overrides)
        if constraint.is_sla:
            dops, feasible = self._plan_for_sla(dag, constraint, overrides, coster)
        else:
            dops, feasible = self._plan_for_budget(dag, constraint, overrides, coster)
        estimate = coster.estimate(dops)
        if not feasible and self.enforce_sla_strictly:
            raise InfeasibleConstraintError(
                f"no DOP assignment satisfies {constraint.describe()}",
                best_achievable=constraint.bound_value(estimate),
            )
        return DopPlan(
            dops=dops,
            estimate=estimate,
            feasible=feasible,
            evaluations=coster.evaluations,
            constraint=constraint,
        )

    # ------------------------------------------------------------------ #
    # SLA mode: min dollars s.t. latency <= SLA
    # ------------------------------------------------------------------ #
    def _plan_for_sla(
        self,
        dag: PipelineDag,
        constraint: Constraint,
        overrides: dict[int, float] | None,
        coster: _IncrementalCoster,
    ) -> tuple[dict[int, int], bool]:
        sla = constraint.bound()
        dops = {p.pipeline_id: 1 for p in dag}
        latency, dollars = self._assignment_metrics(dops, coster)

        # Phase 1: grow until the SLA is met or no move helps.
        while latency > sla:
            move = self._best_growth_move(dops, latency, dollars, coster)
            if move is None:
                break
            dops, latency, dollars = move
        feasible = latency <= sla

        # Phase 2: co-finish polish (never increases latency).
        polished = equalize_siblings(
            dag, dops, self.estimator.models, max_dop=self.max_dop, overrides=overrides
        )
        if polished != dops:
            polished_latency, polished_dollars = self._assignment_metrics(
                polished, coster
            )
            if polished_latency <= max(latency, sla):
                dops = polished
                latency, dollars = polished_latency, polished_dollars

        # Phase 3: trim DOPs whose halving keeps the SLA and saves money.
        dops = self._trim(dops, dollars, sla, feasible, coster)
        return dops, feasible

    def _trim(
        self,
        dops: dict[int, int],
        dollars: float,
        sla: float,
        feasible: bool,
        coster: _IncrementalCoster,
    ) -> dict[int, int]:
        """Phase-3 trim with whole-scan sweeps.

        Reproduces the sequential-greedy trim exactly: each pipeline is
        considered once per round in ascending id order and an accepted
        halving takes effect immediately.  A sweep evaluates every
        not-yet-visited candidate against the *current* assignment; the
        first acceptance invalidates the rest of the sweep, so the scan
        resumes just after it with a fresh sweep.  The common final
        round (nothing improves) collapses from one schedule per
        pipeline to a single sweep.
        """
        pids = sorted(dops)
        improved = True
        while improved:
            improved = False
            position = 0
            while position < len(pids):
                candidates = [
                    (pid, dops[pid] // 2) for pid in pids[position:] if dops[pid] > 1
                ]
                if not candidates:
                    break
                applied = False
                for (pid, halved), (trial_latency, trial_dollars) in zip(
                    candidates, coster.sweep(dops, candidates)
                ):
                    if trial_dollars < dollars and (
                        trial_latency <= sla or not feasible
                    ):
                        dops = dict(dops)
                        dops[pid] = halved
                        dollars = trial_dollars
                        improved = True
                        applied = True
                        position = pids.index(pid) + 1
                        break
                if not applied:
                    break
        return dops

    def _assignment_metrics(
        self,
        dops: dict[int, int],
        coster: _IncrementalCoster,
    ) -> tuple[float, float]:
        """``(latency, total_dollars)`` of a whole assignment.

        Evaluated as a sweep over one no-op move (the base assignment is
        ``dops`` itself), reusing the bit-identical lean scheduling path
        instead of materializing a full estimate.
        """
        pid = next(iter(dops))
        return coster.sweep(dops, [(pid, dops[pid])])[0]

    def _best_growth_move(
        self,
        dops: dict[int, int],
        current_latency: float,
        current_dollars: float,
        coster: _IncrementalCoster,
        budget: float | None = None,
    ) -> tuple[dict[int, int], float, float] | None:
        """The doubling with the best latency gain per added dollar.

        With ``budget`` set (budget mode), moves that break the budget
        are discarded.  Returns the mutated assignment plus its metrics.
        The whole round is scored from one sweep; the metrics are
        bit-identical to per-candidate full estimates, so the winner (and
        therefore the search trajectory) is exactly the per-candidate one.
        """
        candidates = [
            (pid, min(self.max_dop, dops[pid] * 2))
            for pid in dops
            if dops[pid] < self.max_dop
        ]
        if not candidates:
            return None
        metrics = coster.sweep(dops, candidates, prune_gainless=True)

        best: tuple[float, int, int, float, float] | None = None
        for (pid, new_dop), (latency, dollars) in zip(candidates, metrics):
            if budget is not None and dollars > budget:
                continue
            gain = current_latency - latency
            if gain <= 1e-9:
                continue
            extra = max(1e-12, dollars - current_dollars)
            score = gain / extra
            if best is None or score > best[0]:
                best = (score, pid, new_dop, latency, dollars)
        if best is None:
            return None
        trial = dict(dops)
        trial[best[1]] = best[2]
        return trial, best[3], best[4]

    # ------------------------------------------------------------------ #
    # Budget mode: min latency s.t. dollars <= budget
    # ------------------------------------------------------------------ #
    def _plan_for_budget(
        self,
        dag: PipelineDag,
        constraint: Constraint,
        overrides: dict[int, float] | None,
        coster: _IncrementalCoster,
    ) -> tuple[dict[int, int], bool]:
        budget = constraint.bound()
        dops = {p.pipeline_id: 1 for p in dag}
        latency, dollars = self._assignment_metrics(dops, coster)
        if dollars > budget:
            # Even the minimal assignment exceeds the budget.
            return dops, False

        while True:
            move = self._best_growth_move(dops, latency, dollars, coster, budget)
            if move is None:
                break
            dops, latency, dollars = move

        polished = equalize_siblings(
            dag, dops, self.estimator.models, max_dop=self.max_dop, overrides=overrides
        )
        if polished != dops:
            polished_latency, polished_dollars = self._assignment_metrics(
                polished, coster
            )
            if (
                polished_dollars <= budget
                and polished_latency <= latency + 1e-9
            ):
                dops = polished
        return dops, True


def exhaustive_search(
    dag: PipelineDag,
    constraint: Constraint,
    estimator: CostEstimator,
    *,
    dop_choices: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64),
    overrides: dict[int, float] | None = None,
) -> DopPlan:
    """Brute-force optimum over a DOP grid (tests & heuristic-quality
    experiments only — exponential in the number of pipelines)."""
    pids = [p.pipeline_id for p in dag]
    best: tuple[float, dict[int, int], CostEstimate] | None = None
    evaluations = 0
    for combo in itertools.product(dop_choices, repeat=len(pids)):
        dops = dict(zip(pids, combo))
        estimate = estimator.estimate_dag(dag, dops, overrides)
        evaluations += 1
        if not constraint.satisfied(estimate):
            continue
        objective = constraint.objective(estimate)
        if best is None or objective < best[0]:
            best = (objective, dops, estimate)
    if best is None:
        # Infeasible everywhere: fall back to the bound-minimizing combo.
        for combo in itertools.product(dop_choices, repeat=len(pids)):
            dops = dict(zip(pids, combo))
            estimate = estimator.estimate_dag(dag, dops, overrides)
            evaluations += 1
            value = constraint.bound_value(estimate)
            if best is None or value < best[0]:
                best = (value, dops, estimate)
        assert best is not None
        return DopPlan(
            dops=best[1],
            estimate=best[2],
            feasible=False,
            evaluations=evaluations,
            constraint=constraint,
        )
    return DopPlan(
        dops=best[1],
        estimate=best[2],
        feasible=True,
        evaluations=evaluations,
        constraint=constraint,
    )
