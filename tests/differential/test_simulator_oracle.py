"""Differential tests: the simulator's dataflow phase vs the frozen oracle.

``tests/differential/oracle.py`` keeps a direct transcription of the
fault-free scalar walk of :meth:`ExecutionSimulator.execute`. Hypothesis
drives random DAGs, container placements and noisy runtimes; the
simulator's makespan and leased quanta must be ``==`` to the oracle's
when both see the identical noise stream, and two simulators seeded
alike must agree on every field of every result.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cloud.pricing import PAPER_PRICING
from repro.core.simulator import ExecutionSimulator
from repro.dataflow.graph import Dataflow
from repro.dataflow.operator import Operator
from repro.interleave.lp import InterleavedSchedule
from repro.scheduling.schedule import Assignment, Schedule

from tests.differential.oracle import oracle_dataflow_phase


@st.composite
def _cases(draw):
    """A random dataflow, its (possibly shuffled) assignments and builds."""
    n = draw(st.integers(min_value=1, max_value=10))
    runtimes = draw(
        st.lists(
            st.floats(min_value=1.0, max_value=120.0, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    cids = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=n, max_size=n))
    starts = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
            min_size=n, max_size=n,
        )
    )
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
                st.floats(min_value=0.0, max_value=800.0, allow_nan=False),
            ),
            max_size=15,
        )
    )
    builds = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=4),  # container (maybe unused)
                st.floats(min_value=0.0, max_value=300.0, allow_nan=False),
                st.floats(min_value=1.0, max_value=90.0, allow_nan=False),
            ),
            max_size=4,
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**20))
    return n, runtimes, cids, starts, edges, builds, seed


def _build_case(case) -> InterleavedSchedule:
    n, runtimes, cids, starts, edges, builds, _seed = case
    df = Dataflow(name="df")
    names = [f"op{i}" for i in range(n)]
    for name, runtime in zip(names, runtimes):
        df.add_operator(Operator(name=name, runtime=runtime))
    for i, j, mb in edges:
        if i < j:  # DAG on operator index; assignment order stays random
            df.add_edge(names[i], names[j], data_mb=mb)
    assignments = [
        Assignment(name, cid, start, start + runtime)
        for name, cid, start, runtime in zip(names, cids, starts, runtimes)
    ]
    schedule = Schedule(dataflow=df, pricing=PAPER_PRICING, assignments=assignments)
    build_assignments = [
        Assignment(f"build::tbl__col::p{k:05d}", cid, start, start + dur)
        for k, (cid, start, dur) in enumerate(builds)
    ]
    return InterleavedSchedule(schedule=schedule, build_assignments=build_assignments)


@given(case=_cases(), runtime_error=st.sampled_from([0.0, 0.1]))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_execute_is_reproducible_under_same_seed(case, runtime_error):
    """Full ExecutionResult equality — every field, every float, plus the
    RNG stream position afterwards (phase 2 draws must stay aligned)."""
    seed = case[-1]
    interleaved = _build_case(case)
    sims = [
        ExecutionSimulator(
            PAPER_PRICING, runtime_error=runtime_error, rng=np.random.default_rng(seed)
        )
        for _ in range(2)
    ]
    r1, r2 = (sim.execute(copy.deepcopy(interleaved), 123.0) for sim in sims)
    assert r1 == r2
    assert sims[0].rng.uniform() == sims[1].rng.uniform()


@given(case=_cases(), runtime_error=st.sampled_from([0.0, 0.1]))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_execute_matches_frozen_oracle(case, runtime_error):
    """Makespan and money of the simulator equal the frozen naive
    transcription fed the identical noise stream."""
    seed = case[-1]
    interleaved = _build_case(case)
    df_sorted = sorted(
        interleaved.schedule.dataflow_assignments(), key=lambda a: (a.start, a.end)
    )
    rng = np.random.default_rng(seed)
    durations = []
    for a in df_sorted:
        noise = 1.0
        if runtime_error > 0.0:
            noise = float(rng.uniform(1.0 - runtime_error, 1.0 + runtime_error))
        durations.append(a.duration * noise)
    _starts, _ends, makespan, money, _leases = oracle_dataflow_phase(
        interleaved.schedule.dataflow, df_sorted, durations, PAPER_PRICING
    )
    sim = ExecutionSimulator(
        PAPER_PRICING, runtime_error=runtime_error, rng=np.random.default_rng(seed)
    )
    # Strip the builds: the oracle covers the dataflow phase + leases.
    bare = InterleavedSchedule(schedule=copy.deepcopy(interleaved.schedule))
    result = sim.execute(bare, 0.0)
    assert result.makespan_seconds == makespan
    assert result.money_quanta == money


def test_faulty_execute_is_reproducible_under_same_seed():
    """The per-attempt retry/crash draws replay identically from the
    same injector and runtime seeds."""
    from repro.faults.injector import FaultInjector, FaultProfile

    case = (2, [30.0, 40.0], [0, 0], [0.0, 30.0], [], [], 7)
    interleaved = _build_case(case)
    results = []
    for _ in range(2):
        injector = FaultInjector(
            FaultProfile(operator_failure_rate=0.5),
            rng=np.random.default_rng(11),
        )
        sim = ExecutionSimulator(
            PAPER_PRICING, runtime_error=0.1, rng=np.random.default_rng(5),
            injector=injector,
        )
        results.append(sim.execute(copy.deepcopy(interleaved), 0.0))
    assert results[0] == results[1]


def test_empty_schedule_executes_to_zero():
    df = Dataflow(name="empty")
    schedule = Schedule(dataflow=df, pricing=PAPER_PRICING, assignments=[])
    sim = ExecutionSimulator(PAPER_PRICING)
    result = sim.execute(InterleavedSchedule(schedule=schedule), 0.0)
    assert result.makespan_seconds == 0.0
    assert result.money_quanta == 0


@pytest.mark.parametrize("runtime_error", [0.0, 0.1])
def test_execute_pooled_is_reproducible_under_same_seed(runtime_error):
    """Pooled execution carries sequential cache state; it still replays
    identically from a fresh pool and the same seed."""
    from repro.core.pool import ContainerPool

    case = (3, [20.0, 30.0, 40.0], [0, 1, 0], [0.0, 0.0, 20.0],
            [(0, 2, 100.0)], [], 3)
    interleaved = _build_case(case)
    results = []
    for _ in range(2):
        pool = ContainerPool(PAPER_PRICING, max_containers=10)
        sim = ExecutionSimulator(
            PAPER_PRICING, runtime_error=runtime_error, rng=np.random.default_rng(9),
        )
        results.append(sim.execute_pooled(copy.deepcopy(interleaved), 0.0, pool))
    assert results[0] == results[1]
