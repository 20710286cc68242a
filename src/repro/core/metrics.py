"""Metrics collection for the macro experiments (Figs. 12-14, Table 7)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cloud.pricing import PAPER_PRICING
from repro.obs import MetricsRegistry


@dataclass(frozen=True)
class DataflowOutcome:
    """Per-dataflow record of one service run."""

    name: str
    app: str
    issued_at: float
    started_at: float
    finished_at: float
    money_quanta: int
    ops_executed: int
    builds_completed: int
    builds_killed: int
    operator_retries: int = 0

    @property
    def makespan_quanta(self) -> float:
        return (self.finished_at - self.started_at) / 60.0

    @property
    def queue_delay_s(self) -> float:
        return self.started_at - self.issued_at


@dataclass(frozen=True)
class IndexSnapshot:
    """Point of the Figure 13 adaptation time series."""

    time: float
    indexes_built: int
    index_partitions_built: int
    storage_mb: float
    cumulative_storage_dollars: float


#: The injected-fault kind histogram lives under this registry prefix.
_INJECTED_PREFIX = "faults/injected/"


@dataclass
class ServiceMetrics:
    """Everything a service run reports.

    ``compute_dollars`` is the total leased-quanta bill of all executed
    dataflows at the run's ``quantum_price``; ``storage_dollars`` the
    integral of index bytes over time.

    The fault-tolerance counters are *views* onto the metrics registry:
    reads and ``+=`` writes go through ``registry`` so one store backs
    both this dataclass's public API and ``--metrics-out`` dumps. The
    registry is excluded from ``repr``/``==`` — two runs compare equal
    iff their observable outcomes match, exactly as before.
    """

    strategy: str
    outcomes: list[DataflowOutcome] = field(default_factory=list)
    snapshots: list[IndexSnapshot] = field(default_factory=list)
    indexes_created: int = 0
    indexes_deleted: int = 0
    horizon_s: float = 0.0
    #: Dollars per leased quantum (the run's ``PricingModel.quantum_price``).
    quantum_price: float = PAPER_PRICING.quantum_price
    registry: MetricsRegistry = field(
        default_factory=MetricsRegistry, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Fault tolerance (robustness experiments): registry-backed views
    # ------------------------------------------------------------------
    def _get(self, name: str) -> int:
        return int(self.registry.counter(f"faults/{name}").value)

    def _set(self, name: str, total: int) -> None:
        self.registry.counter(f"faults/{name}").set(total)

    @property
    def faults_injected(self) -> dict[str, int]:
        return {
            name[len(_INJECTED_PREFIX):]: int(counter.value)
            for name, counter in sorted(
                self.registry.counters_with_prefix(_INJECTED_PREFIX).items()
            )
            if counter.value
        }

    @faults_injected.setter
    def faults_injected(self, by_kind: dict[str, int]) -> None:
        for name, counter in self.registry.counters_with_prefix(
            _INJECTED_PREFIX
        ).items():
            if name[len(_INJECTED_PREFIX):] not in by_kind:
                counter.set(0)
        for kind, count in by_kind.items():
            self.registry.counter(f"{_INJECTED_PREFIX}{kind}").set(count)

    @property
    def operator_retries(self) -> int:
        return self._get("operator_retries")

    @operator_retries.setter
    def operator_retries(self, total: int) -> None:
        self._set("operator_retries", total)

    @property
    def operators_recovered(self) -> int:
        return self._get("operators_recovered")

    @operators_recovered.setter
    def operators_recovered(self, total: int) -> None:
        self._set("operators_recovered", total)

    @property
    def retries_exhausted(self) -> int:
        return self._get("retries_exhausted")

    @retries_exhausted.setter
    def retries_exhausted(self, total: int) -> None:
        self._set("retries_exhausted", total)

    @property
    def containers_crashed(self) -> int:
        return self._get("containers_crashed")

    @containers_crashed.setter
    def containers_crashed(self, total: int) -> None:
        self._set("containers_crashed", total)

    @property
    def stragglers(self) -> int:
        return self._get("stragglers")

    @stragglers.setter
    def stragglers(self, total: int) -> None:
        self._set("stragglers", total)

    @property
    def builds_failed(self) -> int:
        return self._get("builds_failed")

    @builds_failed.setter
    def builds_failed(self, total: int) -> None:
        self._set("builds_failed", total)

    @property
    def checkpoints_recorded(self) -> int:
        return self._get("checkpoints_recorded")

    @checkpoints_recorded.setter
    def checkpoints_recorded(self, total: int) -> None:
        self._set("checkpoints_recorded", total)

    @property
    def checkpoint_resumes(self) -> int:
        return self._get("checkpoint_resumes")

    @checkpoint_resumes.setter
    def checkpoint_resumes(self, total: int) -> None:
        self._set("checkpoint_resumes", total)

    @property
    def storage_put_failures(self) -> int:
        return self._get("storage_put_failures")

    @storage_put_failures.setter
    def storage_put_failures(self, total: int) -> None:
        self._set("storage_put_failures", total)

    @property
    def storage_delete_failures(self) -> int:
        return self._get("storage_delete_failures")

    @storage_delete_failures.setter
    def storage_delete_failures(self, total: int) -> None:
        self._set("storage_delete_failures", total)

    @property
    def degraded_builds(self) -> int:
        return self._get("degraded_builds")

    @degraded_builds.setter
    def degraded_builds(self, total: int) -> None:
        self._set("degraded_builds", total)

    @property
    def degraded_decisions(self) -> int:
        """Dataflows decided in a degraded mode (deadline or breaker):
        the tuner was skipped and the dataflow ran indexed/unindexed."""
        return self._get("degraded_decisions")

    @degraded_decisions.setter
    def degraded_decisions(self, total: int) -> None:
        self._set("degraded_decisions", total)

    @property
    def breaker_skipped_builds(self) -> int:
        """Completed builds dropped because the tenant's build breaker
        was open (the partition stays unbuilt and unbilled)."""
        return self._get("breaker_skipped_builds")

    @breaker_skipped_builds.setter
    def breaker_skipped_builds(self, total: int) -> None:
        self._set("breaker_skipped_builds", total)

    # ------------------------------------------------------------------
    # Aggregates (Figure 12 / 14)
    # ------------------------------------------------------------------
    def finished(self, by: float | None = None) -> list[DataflowOutcome]:
        """Dataflows finished by time ``by`` (default: the horizon)."""
        cutoff = self.horizon_s if by is None else by
        return [o for o in self.outcomes if o.finished_at <= cutoff]

    @property
    def num_finished(self) -> int:
        return len(self.finished())

    @property
    def compute_dollars(self) -> float:
        return self.compute_quanta() * self.quantum_price

    def compute_quanta(self) -> int:
        return sum(o.money_quanta for o in self.finished())

    def storage_dollars(self) -> float:
        if not self.snapshots:
            return 0.0
        return self.snapshots[-1].cumulative_storage_dollars

    def total_dollars(self) -> float:
        return self.compute_dollars + self.storage_dollars()

    def cost_per_dataflow_quanta(self) -> float:
        """Average total cost per finished dataflow, in quanta units."""
        finished = self.num_finished
        if finished == 0:
            return 0.0
        return self.total_dollars() / self.quantum_price / finished

    def avg_makespan_quanta(self) -> float:
        finished = self.finished()
        if not finished:
            return 0.0
        return sum(o.makespan_quanta for o in finished) / len(finished)

    # ------------------------------------------------------------------
    # Table 7
    # ------------------------------------------------------------------
    def total_ops(self) -> int:
        """Executed operators including attempted builds (Table 7)."""
        return sum(
            o.ops_executed + o.builds_completed + o.builds_killed for o in self.outcomes
        )

    def killed_ops(self) -> int:
        return sum(o.builds_killed for o in self.outcomes)

    def killed_percentage(self) -> float:
        total = self.total_ops()
        return 100.0 * self.killed_ops() / total if total else 0.0

    # ------------------------------------------------------------------
    # Fault tolerance
    # ------------------------------------------------------------------
    @property
    def total_faults_injected(self) -> int:
        return sum(self.faults_injected.values())

    @property
    def faults_recovered(self) -> int:
        """Faults the service absorbed without losing a dataflow:
        recovered operators, crashes survived by respawn, and stragglers
        simply waited out."""
        return self.operators_recovered + self.containers_crashed + self.stragglers

    def fault_summary(self) -> dict[str, int]:
        """Flat dict of every fault-tolerance counter (for reports)."""
        return {
            "faults_injected": self.total_faults_injected,
            "operator_retries": self.operator_retries,
            "operators_recovered": self.operators_recovered,
            "retries_exhausted": self.retries_exhausted,
            "containers_crashed": self.containers_crashed,
            "stragglers": self.stragglers,
            "builds_failed": self.builds_failed,
            "checkpoints_recorded": self.checkpoints_recorded,
            "checkpoint_resumes": self.checkpoint_resumes,
            "storage_put_failures": self.storage_put_failures,
            "storage_delete_failures": self.storage_delete_failures,
            "degraded_builds": self.degraded_builds,
        }
