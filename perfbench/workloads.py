"""The three workloads of the service-loop benchmark.

Each workload is one configuration of the Section 6.5 service loop
(``repro.prepare_run`` -> ``QaaSService.begin_run`` / ``step`` /
``finish_run``) under the GAIN strategy on the default production path.
The simulation seed is fixed, so every round of every run simulates
identical work and only host time varies.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import repro
from repro.recovery.invariants import InvariantMonitor
from repro.recovery.manager import RecoveryManager

#: Seed of every workload's simulation (catalog, arrivals, dataflows,
#: runtime noise). The command line's ``--seed`` does not reach it; see README.
SIMULATION_SEED = 42


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str
    interleaver: str
    horizon_quanta: float
    quantum_price: float = 0.10
    update_interval_s: float = 0.0
    #: Obs recording, recovery WAL/snapshots, ROI ledger with watchdog
    #: rollback and an InvariantMonitor check after every step.
    audit: bool = False

    def config(self) -> repro.ExperimentConfig:
        base = repro.ExperimentConfig()
        return replace(
            base,
            pricing=replace(base.pricing, quantum_price=self.quantum_price),
            total_time_s=self.horizon_quanta * base.pricing.quantum_seconds,
            update_interval_s=self.update_interval_s,
            roi_ledger=self.audit,
            watchdog_rollback=self.audit,
            seed=SIMULATION_SEED,
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="phase-lp",
            why="the paper's phase workload with the LP interleaver; the knapsack does most of the work",
            generator="phase",
            interleaver="lp",
            horizon_quanta=40.0,
        ),
        Workload(
            name="phase-online",
            why="the same arrivals with the online interleaver; no knapsack solves, the skyline dominates",
            generator="phase",
            interleaver="online",
            horizon_quanta=40.0,
        ),
        Workload(
            name="audit-random",
            why="random arrivals with data updates, obs, recovery, ledger and per-step invariant checks",
            generator="random",
            interleaver="online",
            horizon_quanta=40.0,
            quantum_price=0.20,
            update_interval_s=300.0,
            audit=True,
        ),
    )
}


@dataclass
class Prepared:
    """A service ready to step, plus the audit attachments it runs with."""

    service: Any
    state: Any
    obs: Any = None
    recovery: Any = None
    recovery_dir: Path | None = None
    monitor: InvariantMonitor | None = None

    def close(self) -> None:
        if self.recovery is not None:
            self.recovery.close()
        if self.recovery_dir is not None:
            shutil.rmtree(self.recovery_dir, ignore_errors=True)


def prepare(workload: Workload, workdir: Path) -> Prepared:
    """Build the service and arrival stream and begin the run.

    ``workdir`` receives the recovery directory of an audit workload; it
    is removed again by :meth:`Prepared.close`.
    """
    config = workload.config()
    obs = recovery = recovery_dir = None
    if workload.audit:
        obs = repro.Observation.recording()
        recovery_dir = workdir / "recovery"
        shutil.rmtree(recovery_dir, ignore_errors=True)
        recovery = RecoveryManager.start(
            recovery_dir,
            config,
            strategy=repro.Strategy.GAIN.value,
            generator=workload.generator,
            interleaver=workload.interleaver,
            obs_enabled=True,
        )
    service, events = repro.prepare_run(
        repro.Strategy.GAIN,
        generator=workload.generator,
        config=config,
        interleaver=workload.interleaver,
        obs=obs,
        recovery=recovery,
    )
    state = service.begin_run(events)
    return Prepared(
        service=service,
        state=state,
        obs=obs,
        recovery=recovery,
        recovery_dir=recovery_dir,
        monitor=InvariantMonitor(service) if workload.audit else None,
    )
