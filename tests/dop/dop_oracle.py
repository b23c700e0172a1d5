"""Reference copy of the per-candidate greedy DOP search.

The production :class:`~repro.dop.planner.DopPlanner` prices a whole
greedy round with one lean schedule sweep, memoizes timings per search
and reads them through the estimator's ``TimingCache``.  This module
keeps the straightforward search it must agree with, bit for bit: every
candidate move is priced by a full :meth:`CostEstimator.estimate_dag`
of the mutated assignment, and (with :class:`ColdEstimator`) every
pipeline timing is computed from a fresh ``pipeline_volumes`` walk —
no ``TimingCache``, no per-search memo, no per-DAG scan-fee memo.

:class:`OracleOptimizer` wraps the search in cold DAG planning (no
per-query memo): join-order DP, bushy variants, physical planning and
pipeline decomposition on every call.  It is not imported by the
package; the parity suite and the throughput benchmark use it.
"""

from __future__ import annotations

from repro.core.bioptimizer import PlanChoice
from repro.cost.estimate import CostEstimate
from repro.cost.estimator import CostEstimator
from repro.cost.operator_models import OperatorModels, PipelineTiming
from repro.cost.volumes import pipeline_volumes
from repro.dop.cofinish import equalize_siblings
from repro.dop.constraints import Constraint
from repro.dop.planner import DopPlan
from repro.optimizer.bushy import bushiness, bushy_variants
from repro.optimizer.dag_planner import DagPlanner
from repro.plan.pipelines import Pipeline, PipelineDag, decompose_pipelines


class ColdModels(OperatorModels):
    """Operator models that time every call from scratch."""

    def pipeline_timing(
        self,
        pipeline: Pipeline,
        dop: int,
        overrides: dict[int, float] | None = None,
    ) -> PipelineTiming:
        return self._compute_timing(
            pipeline, dop, pipeline_volumes(pipeline, dop, overrides)
        )


class ColdEstimator(CostEstimator):
    """A cost estimator with no memoized state at any level."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.models = ColdModels(self.hw, self.models.exchange)

    def scan_request_dollars(self, dag: PipelineDag) -> float:
        return self._compute_scan_request_dollars(dag)


class OracleDopPlanner:
    """Per-candidate greedy DOP search (grow, co-finish polish,
    sequential trim; budget mode grows under the budget)."""

    def __init__(self, estimator: CostEstimator, *, max_dop: int = 64) -> None:
        self.estimator = estimator
        self.max_dop = max_dop
        self.evaluations = 0

    def plan(
        self,
        dag: PipelineDag,
        constraint: Constraint,
        overrides: dict[int, float] | None = None,
    ) -> DopPlan:
        self.evaluations = 0
        if constraint.is_sla:
            dops, feasible = self._plan_for_sla(dag, constraint, overrides)
        else:
            dops, feasible = self._plan_for_budget(dag, constraint, overrides)
        return DopPlan(
            dops=dops,
            estimate=self._estimate(dag, dops, overrides),
            feasible=feasible,
            evaluations=self.evaluations,
            constraint=constraint,
        )

    def _estimate(
        self,
        dag: PipelineDag,
        dops: dict[int, int],
        overrides: dict[int, float] | None,
    ) -> CostEstimate:
        self.evaluations += 1
        return self.estimator.estimate_dag(dag, dops, overrides)

    def _metrics(
        self,
        dag: PipelineDag,
        dops: dict[int, int],
        overrides: dict[int, float] | None,
    ) -> tuple[float, float]:
        estimate = self._estimate(dag, dops, overrides)
        return estimate.latency, estimate.total_dollars

    def _plan_for_sla(
        self,
        dag: PipelineDag,
        constraint: Constraint,
        overrides: dict[int, float] | None,
    ) -> tuple[dict[int, int], bool]:
        sla = constraint.bound()
        dops = {p.pipeline_id: 1 for p in dag}
        latency, dollars = self._metrics(dag, dops, overrides)

        # Phase 1: grow until the SLA is met or no move helps.
        while latency > sla:
            move = self._best_growth_move(dag, dops, latency, dollars, overrides)
            if move is None:
                break
            dops, latency, dollars = move
        feasible = latency <= sla

        # Phase 2: co-finish polish (never increases latency).
        polished = equalize_siblings(
            dag, dops, self.estimator.models, max_dop=self.max_dop, overrides=overrides
        )
        if polished != dops:
            polished_latency, polished_dollars = self._metrics(dag, polished, overrides)
            if polished_latency <= max(latency, sla):
                dops = polished
                latency, dollars = polished_latency, polished_dollars

        # Phase 3: trim DOPs whose halving keeps the SLA and saves money.
        improved = True
        while improved:
            improved = False
            for pid in sorted(dops):
                if dops[pid] <= 1:
                    continue
                halved = max(1, dops[pid] // 2)
                trial = dict(dops)
                trial[pid] = halved
                trial_latency, trial_dollars = self._metrics(dag, trial, overrides)
                if trial_dollars < dollars and (trial_latency <= sla or not feasible):
                    dops = trial
                    latency, dollars = trial_latency, trial_dollars
                    improved = True
        return dops, feasible

    def _best_growth_move(
        self,
        dag: PipelineDag,
        dops: dict[int, int],
        current_latency: float,
        current_dollars: float,
        overrides: dict[int, float] | None,
        budget: float | None = None,
    ) -> tuple[dict[int, int], float, float] | None:
        """The doubling with the best latency gain per added dollar."""
        best: tuple[float, int, int, float, float] | None = None
        for pid in dops:
            if dops[pid] >= self.max_dop:
                continue
            new_dop = min(self.max_dop, dops[pid] * 2)
            trial = dict(dops)
            trial[pid] = new_dop
            latency, dollars = self._metrics(dag, trial, overrides)
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

    def _plan_for_budget(
        self,
        dag: PipelineDag,
        constraint: Constraint,
        overrides: dict[int, float] | None,
    ) -> tuple[dict[int, int], bool]:
        budget = constraint.bound()
        dops = {p.pipeline_id: 1 for p in dag}
        latency, dollars = self._metrics(dag, dops, overrides)
        if dollars > budget:
            # Even the minimal assignment exceeds the budget.
            return dops, False

        while True:
            move = self._best_growth_move(
                dag, dops, latency, dollars, overrides, budget
            )
            if move is None:
                break
            dops, latency, dollars = move

        polished = equalize_siblings(
            dag, dops, self.estimator.models, max_dop=self.max_dop, overrides=overrides
        )
        if polished != dops:
            polished_latency, polished_dollars = self._metrics(dag, polished, overrides)
            if polished_dollars <= budget and polished_latency <= latency + 1e-9:
                dops = polished
        return dops, True


class OracleOptimizer:
    """Cold bi-objective optimization: fresh DAG planning on every call,
    then the per-candidate DOP search over each variant."""

    def __init__(
        self,
        catalog,
        estimator: CostEstimator,
        *,
        max_dop: int = 64,
        explore_bushy: bool = True,
        max_variants: int = 4,
    ) -> None:
        self.estimator = estimator
        self.dag_planner = DagPlanner(catalog)
        self.dop_planner = OracleDopPlanner(estimator, max_dop=max_dop)
        self.explore_bushy = explore_bushy
        self.max_variants = max_variants

    def optimize(self, query, constraint: Constraint) -> PlanChoice:
        base_tree = self.dag_planner.choose_join_tree(query)
        trees = [base_tree]
        if self.explore_bushy and len(query.tables) >= 4:
            base_relations = {
                ref.name: self.dag_planner.base_relation(query, ref.name)
                for ref in query.tables
            }
            trees = bushy_variants(
                base_tree,
                base_relations,
                query.join_edges,
                self.dag_planner.estimator,
                max_variants=self.max_variants,
            )
        best: PlanChoice | None = None
        for index, tree in enumerate(trees):
            plan = self.dag_planner.plan_with_tree(query, tree)
            dag = decompose_pipelines(plan)
            choice = PlanChoice(
                plan=plan,
                dag=dag,
                dop_plan=self.dop_planner.plan(dag, constraint),
                join_tree=tree,
                variant_index=index,
                bushiness=bushiness(tree),
                variants_considered=len(trees),
            )
            if best is None or _better(choice, best, constraint):
                best = choice
        assert best is not None
        return best


def _better(candidate: PlanChoice, incumbent: PlanChoice, constraint: Constraint) -> bool:
    """Prefer feasible plans; among feasible, the lower objective wins."""
    if candidate.feasible != incumbent.feasible:
        return candidate.feasible
    if candidate.feasible:
        return constraint.objective(candidate.dop_plan.estimate) < constraint.objective(
            incumbent.dop_plan.estimate
        )
    # Both infeasible: minimize constraint violation instead.
    return constraint.bound_value(candidate.dop_plan.estimate) < constraint.bound_value(
        incumbent.dop_plan.estimate
    )
