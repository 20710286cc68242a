"""Tests for the service metrics aggregation."""

from dataclasses import replace

import pytest

from repro import Strategy, run_experiment
from repro.core.config import default_config
from repro.core.metrics import DataflowOutcome, IndexSnapshot, ServiceMetrics


def outcome(name="d1", finished=100.0, money=5, ops=10, builds=2, killed=1,
            issued=0.0, started=0.0, app="montage"):
    return DataflowOutcome(
        name=name, app=app, issued_at=issued, started_at=started,
        finished_at=finished, money_quanta=money, ops_executed=ops,
        builds_completed=builds, builds_killed=killed,
    )


class TestOutcome:
    def test_makespan_quanta(self):
        o = outcome(started=60.0, finished=180.0)
        assert o.makespan_quanta == pytest.approx(2.0)

    def test_queue_delay(self):
        o = outcome(issued=10.0, started=50.0)
        assert o.queue_delay_s == pytest.approx(40.0)


class TestServiceMetrics:
    def _metrics(self):
        m = ServiceMetrics(strategy="gain", horizon_s=1000.0)
        m.outcomes = [
            outcome("d1", finished=100.0, money=5, ops=10, builds=2, killed=1),
            outcome("d2", finished=900.0, money=3, ops=10, builds=0, killed=0),
            outcome("d3", finished=1500.0, money=7, ops=10, builds=4, killed=2),
        ]
        m.snapshots = [
            IndexSnapshot(time=100.0, indexes_built=1, index_partitions_built=2,
                          storage_mb=10.0, cumulative_storage_dollars=0.5),
            IndexSnapshot(time=1000.0, indexes_built=2, index_partitions_built=5,
                          storage_mb=25.0, cumulative_storage_dollars=2.0),
        ]
        return m

    def test_finished_respects_horizon(self):
        m = self._metrics()
        assert m.num_finished == 2  # d3 finished after the horizon
        assert {o.name for o in m.finished()} == {"d1", "d2"}
        assert len(m.finished(by=150.0)) == 1

    def test_compute_accounting_counts_only_finished(self):
        m = self._metrics()
        assert m.compute_quanta() == 8  # d1 + d2
        assert m.compute_dollars == pytest.approx(0.8)

    def test_storage_from_last_snapshot(self):
        m = self._metrics()
        assert m.storage_dollars() == pytest.approx(2.0)
        assert m.total_dollars() == pytest.approx(2.8)

    def test_cost_per_dataflow_in_quanta(self):
        m = self._metrics()
        assert m.cost_per_dataflow_quanta() == pytest.approx(2.8 / 0.1 / 2)

    def test_table7_counters_cover_all_outcomes(self):
        m = self._metrics()
        # Table 7 counts executed + attempted builds across the whole run.
        assert m.total_ops() == 30 + 6 + 3
        assert m.killed_ops() == 3
        assert m.killed_percentage() == pytest.approx(100 * 3 / 39)

    def test_empty_metrics_safe(self):
        m = ServiceMetrics(strategy="no_index", horizon_s=10.0)
        assert m.num_finished == 0
        assert m.cost_per_dataflow_quanta() == 0.0
        assert m.storage_dollars() == 0.0
        assert m.killed_percentage() == 0.0
        assert m.avg_makespan_quanta() == 0.0

    def test_avg_makespan(self):
        m = ServiceMetrics(strategy="x", horizon_s=1000.0)
        m.outcomes = [
            outcome("a", started=0.0, finished=120.0),
            outcome("b", started=60.0, finished=120.0),
        ]
        assert m.avg_makespan_quanta() == pytest.approx(1.5)


def test_compute_bill_uses_the_configured_quantum_price():
    base = default_config()
    config = replace(
        base,
        seed=3,
        total_time_s=10 * 60.0,
        pricing=replace(base.pricing, quantum_price=0.20),
    )
    m = run_experiment(Strategy.GAIN, config=config)
    assert m.compute_quanta() > 0
    assert m.compute_dollars == m.compute_quanta() * 0.20
    assert m.cost_per_dataflow_quanta() == pytest.approx(
        m.total_dollars() / 0.20 / m.num_finished
    )
