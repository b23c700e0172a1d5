"""What-If service, recluster pricing, advisor, and background compute."""

import pytest

from repro.statsvc.forecast import TemplateForecast
from repro.tuning.clustering import (
    ReclusterCandidate,
    improved_depth,
    recluster_one_time_cost,
)
from repro.tuning.mv import mv_candidate_from_query
from repro.tuning.whatif import TuningReport, WhatIfService
from repro.errors import TuningError


def forecast(template, rate=4.0):
    return TemplateForecast(
        template=template,
        rate_per_hour=rate,
        periodic=True,
        period_s=3600.0 / rate,
        observed_count=10,
        avg_dollars=0.01,
        avg_machine_seconds=10.0,
    )


Q5ISH = (
    "SELECT n_name, sum(c_acctbal) AS bal, count(*) AS cnt "
    "FROM customer, nation WHERE c_nationkey = n_nationkey "
    "AND n_regionkey = 2 GROUP BY n_name"
)

DATEQ = (
    "SELECT count(*) AS c FROM lineitem "
    "WHERE l_receiptdate >= DATE '1995-01-01' AND l_receiptdate < DATE '1995-03-01'"
)


def test_mv_whatif_positive_for_hot_workload(big_catalog, big_binder, estimator):
    bound = big_binder.bind_sql(Q5ISH)
    candidate = mv_candidate_from_query(bound, big_catalog, name="mv_hot")
    whatif = WhatIfService(big_catalog, estimator)
    report = whatif.evaluate_mv(candidate, {"fam": (bound, forecast("fam", rate=120.0))})
    assert report.kind == "materialized-view"
    assert report.impacts[0].dollars_after < report.impacts[0].dollars_before
    assert report.profitable  # 120 queries/hour easily pays for a tiny MV
    assert report.break_even_hours < float("inf")


def test_mv_whatif_negative_for_cold_workload(big_catalog, big_binder, estimator):
    bound = big_binder.bind_sql(Q5ISH)
    candidate = mv_candidate_from_query(bound, big_catalog, name="mv_cold")
    whatif = WhatIfService(
        big_catalog, estimator, churn_fraction_per_hour=0.5
    )
    report = whatif.evaluate_mv(
        candidate, {"fam": (bound, forecast("fam", rate=0.001))}
    )
    assert not report.profitable  # heavy maintenance, one query per 1000h


def test_mv_whatif_requires_matching_template(big_catalog, big_binder, estimator):
    bound = big_binder.bind_sql(Q5ISH)
    other = big_binder.bind_sql("SELECT count(*) AS c FROM orders, lineitem WHERE o_orderkey = l_orderkey")
    candidate = mv_candidate_from_query(bound, big_catalog, name="mv_x")
    whatif = WhatIfService(big_catalog, estimator)
    with pytest.raises(TuningError):
        whatif.evaluate_mv(candidate, {"fam": (other, forecast("fam"))})


def test_recluster_one_time_cost_scales_with_table(big_catalog, estimator):
    small = recluster_one_time_cost(
        ReclusterCandidate("orders", "o_totalprice"), big_catalog, estimator.hw
    )
    large = recluster_one_time_cost(
        ReclusterCandidate("lineitem", "l_receiptdate"), big_catalog, estimator.hw
    )
    assert large[1] > small[1] > 0


def test_recluster_unknown_key_rejected(big_catalog, estimator):
    with pytest.raises(TuningError):
        recluster_one_time_cost(
            ReclusterCandidate("orders", "nope"), big_catalog, estimator.hw
        )


def test_recluster_whatif_saves_on_date_queries(big_catalog, big_binder, estimator):
    bound = big_binder.bind_sql(DATEQ)
    candidate = ReclusterCandidate("lineitem", "l_receiptdate")
    whatif = WhatIfService(big_catalog, estimator, churn_fraction_per_hour=1e-6)
    report = whatif.evaluate_recluster(
        candidate, {"dateq": (bound, forecast("dateq", rate=60.0))}
    )
    impact = report.impacts[0]
    assert impact.dollars_after < impact.dollars_before  # pruning helps
    assert report.savings_per_hour > 0


def test_improved_depth_bounded(big_catalog):
    depth = improved_depth(big_catalog, "lineitem")
    entry = big_catalog.table("lineitem")
    assert 0 < depth <= 1.0
    assert depth <= 10.0 / entry.num_partitions


def test_report_describe_verdicts():
    accept = TuningReport(
        action_name="a", kind="materialized-view",
        savings_per_hour=2.0, cost_per_hour=1.0, one_time_dollars=10.0,
    )
    reject = TuningReport(
        action_name="b", kind="recluster",
        savings_per_hour=0.5, cost_per_hour=1.0, one_time_dollars=10.0,
    )
    assert accept.net_per_hour == pytest.approx(1.0)
    assert accept.break_even_hours == pytest.approx(10.0)
    assert "ACCEPT" in accept.describe()
    assert reject.break_even_hours == float("inf")
    assert "REJECT" in reject.describe()


def test_advisor_cycle_on_warehouse(tpch_db):
    from repro import CostIntelligentWarehouse, sla_constraint
    from repro.workloads import instantiate

    wh = CostIntelligentWarehouse(database=tpch_db)
    t = 0.0
    for i in range(4):
        for name in ("q5_local_supplier", "q12_shipmode"):
            wh.submit(
                instantiate(name, seed=i),
                sla_constraint(20.0),
                template=name,
                at_time=t,
                simulate=False,
            )
            t += 900.0
    wh.tuning.propose()
    proposals = wh.tuning.last_proposals
    assert proposals.reports
    kinds = {r.kind for r in proposals.reports}
    assert "materialized-view" in kinds
    # Reports are sorted by net value, best first.
    nets = [r.net_per_hour for r in proposals.reports]
    assert nets == sorted(nets, reverse=True)
