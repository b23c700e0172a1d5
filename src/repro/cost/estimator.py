"""The cost estimator facade: plan + DOPs -> predicted time and dollars.

Bundles the scalability models, exchange calibration, and the query-level
simulator behind one object with the interface the rest of the system
uses (the bi-objective optimizer, the DOP planner, the DOP monitor, and
the What-If Service all "invoke the cost estimator").
"""

from __future__ import annotations

from weakref import WeakKeyDictionary

from repro.cost.estimate import CostEstimate
from repro.cost.hardware import HardwareCalibration
from repro.cost.operator_models import OperatorModels, PipelineTiming
from repro.cost.query_simulator import schedule_timings, simulate_dag
from repro.cost.regression import ExchangeCalibration
from repro.plan.physical import PhysNode, PhysScan, walk_physical
from repro.plan.pipelines import Pipeline, PipelineDag, decompose_pipelines


class CostEstimator:
    """Predicts latency / machine time / dollars for plan fragments.

    Pipeline volumes and timings are memoized behind
    :mod:`repro.cost.timing_cache`, and scan fees per DAG; results are
    bit-identical to cold computation.
    """

    def __init__(
        self,
        hardware: HardwareCalibration | None = None,
        exchange_calibration: ExchangeCalibration | None = None,
        *,
        price_per_node_second: float | None = None,
    ) -> None:
        self.hw = hardware or HardwareCalibration()
        self.models = OperatorModels(self.hw, exchange_calibration)
        self.price_per_node_second = (
            price_per_node_second
            if price_per_node_second is not None
            else self.hw.node.price_per_second
        )
        self._scan_dollars_cache: WeakKeyDictionary[PipelineDag, float] = (
            WeakKeyDictionary()
        )

    def invalidate_caches(self) -> None:
        """Drop all memoized state (after hardware/model recalibration)."""
        self.models.invalidate_cache()
        self._scan_dollars_cache.clear()

    # ------------------------------------------------------------------ #
    # Main entry points
    # ------------------------------------------------------------------ #
    def estimate_dag(
        self,
        dag: PipelineDag,
        dops: dict[int, int],
        overrides: dict[int, float] | None = None,
    ) -> CostEstimate:
        """Estimate a pipeline DAG under a DOP assignment."""
        estimate = simulate_dag(
            dag,
            dops,
            self.models,
            overrides=overrides,
            price_per_node_second=self.price_per_node_second,
        )
        estimate.scan_request_dollars = self.scan_request_dollars(dag)
        return estimate

    def estimate_schedule(
        self,
        dag: PipelineDag,
        dops: dict[int, int],
        timings: dict[int, PipelineTiming],
    ) -> CostEstimate:
        """Price a DAG from per-pipeline timings already in hand.

        The incremental DOP search computes one new timing per candidate
        move and re-prices with this O(pipelines) call instead of
        :meth:`estimate_dag`.
        """
        estimate = schedule_timings(
            dag,
            dops,
            timings,
            self.models,
            price_per_node_second=self.price_per_node_second,
        )
        estimate.scan_request_dollars = self.scan_request_dollars(dag)
        return estimate

    def pipeline_timing(
        self,
        pipeline: Pipeline,
        dop: int,
        overrides: dict[int, float] | None = None,
    ) -> PipelineTiming:
        """Timing of one pipeline (memoized)."""
        return self.models.pipeline_timing(pipeline, dop, overrides)

    def estimate_plan(
        self,
        plan: PhysNode,
        dops: dict[int, int] | int,
        overrides: dict[int, float] | None = None,
    ) -> CostEstimate:
        """Estimate a physical plan; ``dops`` may be one uniform DOP."""
        dag = decompose_pipelines(plan)
        if isinstance(dops, int):
            dops = {p.pipeline_id: dops for p in dag}
        return self.estimate_dag(dag, dops, overrides)

    def throughput(self, pipeline, dop: int, overrides=None) -> float:
        """Pipeline throughput T(dop) in source rows/second."""
        return self.models.throughput(pipeline, dop, overrides)

    # ------------------------------------------------------------------ #
    # Secondary cost terms
    # ------------------------------------------------------------------ #
    def scan_request_dollars(self, dag: PipelineDag) -> float:
        """Object-store GET fees for the plan's scans (DOP-independent,
        memoized per DAG)."""
        dollars = self._scan_dollars_cache.get(dag)
        if dollars is None:
            dollars = self._compute_scan_request_dollars(dag)
            self._scan_dollars_cache[dag] = dollars
        return dollars

    def _compute_scan_request_dollars(self, dag: PipelineDag) -> float:
        store = self.hw.store
        chunk = 8 * 1024 * 1024  # ranged GETs of 8 MB
        dollars = 0.0
        seen: set[int] = set()
        for pipeline in dag:
            for op in pipeline.ops:
                node = op.node
                if isinstance(node, PhysScan) and node.node_id not in seen:
                    seen.add(node.node_id)
                    gets = max(1.0, node.input_bytes / chunk)
                    dollars += gets * store.price_per_get
        return dollars
