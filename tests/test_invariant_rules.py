"""Direct unit tests for every InvariantMonitor conservation rule.

The chaos soak and the exploration engine only ever see these rules
fire on *emergent* corruption; each test here instead seeds a state
that violates exactly one rule and asserts the monitor reports exactly
that rule — so a silently weakened (or accidentally deleted) check
fails its own test rather than a six-minute soak somewhere downstream.

The seeded service comes from the exploration scenario builder (tiny,
fault-free, deterministic); on it the full monitor is clean, which each
test asserts before planting its violation.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro import Strategy, prepare_run
from repro.core.config import default_config
from repro.core.metrics import ServiceMetrics
from repro.explore.scenarios import build_scenario
from repro.recovery.invariants import InvariantError, InvariantMonitor


@pytest.fixture()
def run():
    scenario = build_scenario("toy", seed=0)
    return scenario.build()


@pytest.fixture()
def monitor(run):
    monitor = InvariantMonitor(run.service)
    assert monitor.check(run.state, run.service.storage.accounted_until) == []
    return monitor


def names(monitor, run) -> list[str]:
    t = run.service.storage.accounted_until
    return [v.name for v in monitor.check(run.state, t)]


class _FakeHistory:
    """A stand-in history whose window geometry tests control exactly."""

    def __init__(self, head: int, end: int, length: int, max_records=None):
        self.head_position = head
        self.end_position = end
        self.max_records = max_records
        self._length = length
        self.mutation_version = 0

    def __len__(self) -> int:
        return self._length


class _FakeMetrics:
    """A stand-in metrics object with a detached compute_dollars."""

    def __init__(self, quanta: list[int], compute_dollars: float):
        self._quanta = quanta
        self.compute_dollars = compute_dollars

    def finished(self, by=None):
        return [SimpleNamespace(money_quanta=q) for q in self._quanta]


# ----------------------------------------------------------------------
# billing
# ----------------------------------------------------------------------
def test_billing_conservation_detects_integral_drift(run, monitor):
    run.service.storage._mb_seconds += 1.0
    assert names(monitor, run) == ["billing-conservation"]


def test_billing_monotone_detects_backwards_integral(run, monitor):
    # A resume that rewound billing behind what an earlier check already
    # observed as settled: the watermark sits above the maintained value.
    monitor._last_mb_seconds = run.service.storage.accounted_mb_seconds + 5.0
    assert names(monitor, run) == ["billing-monotone"]


# ----------------------------------------------------------------------
# catalog/storage agreement
# ----------------------------------------------------------------------
def test_catalog_storage_detects_built_without_object(run, monitor):
    service = run.service
    name = sorted(service.catalog.indexes)[0]
    index = service.catalog.indexes[name]
    pid = sorted(index.partitions)[0]
    index.partitions[pid].mark_built(0.0, table_version=0)
    assert names(monitor, run) == ["catalog-storage"]


def test_catalog_storage_detects_untracked_live_object(run, monitor):
    service = run.service
    name = sorted(service.catalog.indexes)[0]
    index = service.catalog.indexes[name]
    pid = sorted(index.partitions)[0]
    path = index.spec.path(pid)
    service.storage.put(path, 1.0, service.storage.accounted_until)
    assert path not in service._orphan_paths
    assert names(monitor, run) == ["catalog-storage"]


# ----------------------------------------------------------------------
# history window
# ----------------------------------------------------------------------
def test_history_monotone_detects_head_rollback(run, monitor):
    monitor._last_head = run.service.tuner.history.head_position + 1
    assert names(monitor, run) == ["history-monotone"]


def test_history_monotone_detects_version_rollback(run, monitor):
    monitor._last_version = run.service.tuner.history.mutation_version + 1
    assert names(monitor, run) == ["history-monotone"]


def test_history_window_detects_inverted_window(run, monitor):
    run.service.tuner.history = _FakeHistory(head=5, end=3, length=0)
    assert names(monitor, run) == ["history-window"]


def test_history_window_detects_bound_overflow(run, monitor):
    run.service.tuner.history = _FakeHistory(
        head=0, end=3, length=3, max_records=2
    )
    assert names(monitor, run) == ["history-window"]


# ----------------------------------------------------------------------
# schedules
# ----------------------------------------------------------------------
def test_schedule_overlap_detects_double_booked_container(run, monitor):
    overlapping = [
        SimpleNamespace(container_id=1, start=0.0, end=10.0, op_name="op_a"),
        SimpleNamespace(container_id=1, start=5.0, end=15.0, op_name="op_b"),
    ]
    decision = SimpleNamespace(
        interleaved=SimpleNamespace(
            schedule=SimpleNamespace(
                dataflow_assignments=lambda: list(overlapping)
            )
        )
    )
    run.state.pending.append((60.0, None, decision, "app"))
    assert names(monitor, run) == ["schedule-overlap"]


# ----------------------------------------------------------------------
# money
# ----------------------------------------------------------------------
def test_money_conservation_detects_negative_quanta(run, monitor):
    run.state.metrics = _FakeMetrics(quanta=[-1], compute_dollars=-0.1)
    assert names(monitor, run) == ["money-conservation"]


def test_money_conservation_detects_dollar_mismatch(run, monitor):
    run.state.metrics = _FakeMetrics(quanta=[3], compute_dollars=1.0)
    assert names(monitor, run) == ["money-conservation"]


def test_money_conservation_detects_hard_coded_quantum_price(monkeypatch):
    base = default_config()
    config = replace(
        base,
        seed=3,
        total_time_s=10 * 60.0,
        pricing=replace(base.pricing, quantum_price=0.20),
    )
    service, events = prepare_run(Strategy.GAIN, "phase", config=config)
    state = service.begin_run(events)
    while service.step(state):
        pass
    assert state.metrics.compute_quanta() > 0
    monitor = InvariantMonitor(service)
    t = service.storage.accounted_until
    assert monitor.check(state, t) == []
    monkeypatch.setattr(
        ServiceMetrics, "compute_dollars", property(lambda m: m.compute_quanta() * 0.10)
    )
    assert [v.name for v in monitor.check(state, t)] == ["money-conservation"]


def test_money_conservation_detects_negative_storage_integral(run, monitor):
    storage = run.service.storage
    storage._mb_seconds = -1.0
    # Keep the other billing rules quiet so exactly this rule fires.
    storage.recompute_mb_seconds = lambda: -1.0
    monitor._last_mb_seconds = -1.0
    assert names(monitor, run) == ["money-conservation"]


# ----------------------------------------------------------------------
# the error type
# ----------------------------------------------------------------------
def test_invariant_error_carries_context(run, monitor):
    run.service.storage._mb_seconds += 1.0
    t = run.service.storage.accounted_until
    violations = monitor.check(run.state, t)
    error = InvariantError(
        violations, context={"seed": 7, "step_index": 3, "harness": "test"}
    )
    assert error.violations == violations
    assert error.context["seed"] == 7
    assert error.context["step_index"] == 3
    assert "billing-conservation" in str(error)


def test_invariant_error_context_defaults_empty():
    error = InvariantError([])
    assert error.context == {}
    assert str(error) == "invariant violation"
