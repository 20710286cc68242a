"""Output checks computed independently of the code under test.

Every function here re-derives its expectation from first principles
(density greedy, Dantzig bound, lease arithmetic, a replay of the storage
calls) rather than calling the program's own helpers, so a fault in a
helper cannot hide itself. Each returns a list of problem strings; an
empty list means the output passed.

Two faults the program has today are recognised by their exact
signature and reported as *known* rather than as problems:

* fault (a): ``CloudStorage.put`` marks the path's previous object
  deleted at the re-put time even when it was already deleted, so
  ``recompute_mb_seconds`` re-bills the dead interval;
* fault (b): ``ServiceMetrics.compute_dollars`` prices every quantum at
  $0.10 whatever the configured quantum price.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from repro.cloud.pricing import PricingModel
from repro.cloud.storage import CloudStorage

REL_TOL = 1e-9
TIME_TOL = 1e-6

#: The quantum price fault (b) hard-codes.
FAULT_B_PRICE = 0.10


def close(a: float, b: float) -> bool:
    return abs(a - b) <= 1e-9 + REL_TOL * max(abs(a), abs(b))


# ----------------------------------------------------------------------
# Knapsack
# ----------------------------------------------------------------------
@dataclass
class KnapsackFigures:
    """Per-solve quantities the traced run aggregates."""

    items: int
    classes: int
    gain: float
    bound: float


def _density_order(sizes: list[float], gains: list[float]) -> list[int]:
    def density(i: int) -> float:
        return math.inf if sizes[i] <= 0 else gains[i] / sizes[i]

    return sorted(range(len(sizes)), key=lambda i: (-density(i), i))


def greedy_gain(sizes: list[float], gains: list[float], capacity: float) -> float:
    """Take items by decreasing gain density while they fit."""
    used = gain = 0.0
    for i in _density_order(sizes, gains):
        if used + sizes[i] <= capacity + 1e-12:
            used += sizes[i]
            gain += gains[i]
    return gain


def dantzig_bound(sizes: list[float], gains: list[float], capacity: float) -> float:
    """LP-relaxation optimum over the items that fit on their own."""
    room = capacity
    bound = 0.0
    for i in _density_order(sizes, gains):
        if sizes[i] > capacity + 1e-12:
            continue
        if sizes[i] <= room:
            bound += gains[i]
            room -= sizes[i]
        else:
            bound += gains[i] * room / sizes[i]
            break
    return bound


def check_knapsack(
    items: list[Any], capacity: float, solution: Any
) -> tuple[list[str], KnapsackFigures]:
    """Feasibility, reported gain, greedy <= gain <= Dantzig, closed form."""
    sizes = {it.item_id: it.size for it in items}
    gains = {it.item_id: it.gain for it in items}
    problems: list[str] = []
    selected = list(solution.selected)
    if len(set(selected)) != len(selected) or any(i not in sizes for i in selected):
        problems.append(f"knapsack selected unknown or repeated items {selected}")
        selected = [i for i in dict.fromkeys(selected) if i in sizes]
    used = math.fsum(sizes[i] for i in selected)
    gain = math.fsum(gains[i] for i in selected)
    if used > capacity + TIME_TOL:
        problems.append(f"knapsack selection size {used!r} exceeds slot {capacity!r}")
    if not close(solution.total_gain, gain):
        problems.append(
            f"knapsack reports gain {solution.total_gain!r}, selection sums to {gain!r}"
        )
    size_list = [it.size for it in items]
    gain_list = [it.gain for it in items]
    lower = greedy_gain(size_list, gain_list, capacity)
    upper = dantzig_bound(size_list, gain_list, capacity)
    if gain < lower - 1e-9 * max(1.0, lower):
        problems.append(f"knapsack gain {gain!r} below density greedy {lower!r}")
    if gain > upper + 1e-9 * max(1.0, upper):
        problems.append(f"knapsack gain {gain!r} above Dantzig bound {upper!r}")
    classes = {(it.size, it.gain) for it in items}
    if len(classes) == 1 and items:
        size, unit_gain = items[0].size, items[0].gain
        fits = len(items) if size <= 0 else min(
            len(items), math.floor((capacity + 1e-9) / size)
        )
        expected = fits * unit_gain
        if not close(gain, expected):
            problems.append(
                f"one-class knapsack gain {gain!r} != closed form {expected!r} "
                f"({len(items)} items of size {size!r}, slot {capacity!r})"
            )
    return problems, KnapsackFigures(len(items), len(classes), gain, upper)


# ----------------------------------------------------------------------
# Schedules
# ----------------------------------------------------------------------
def leased_quanta(assignments: list[Any], quantum_s: float) -> int:
    """Quanta leased per container, from its first start to its last end."""
    spans: dict[int, list[float]] = {}
    for a in assignments:
        span = spans.setdefault(a.container_id, [a.start, a.end])
        span[0] = min(span[0], a.start)
        span[1] = max(span[1], a.end)
    total = 0
    for first, last in spans.values():
        q0 = math.floor(first / quantum_s + 1e-9)
        q1 = max(q0 + 1, math.ceil(last / quantum_s - 1e-9))
        total += q1 - q0
    return total


def _overlaps(assignments: list[Any]) -> list[str]:
    by_container: dict[int, list[Any]] = {}
    for a in assignments:
        by_container.setdefault(a.container_id, []).append(a)
    problems = []
    for cid, items in by_container.items():
        items.sort(key=lambda a: (a.start, a.end))
        for prev, cur in zip(items, items[1:]):
            if cur.start < prev.end - TIME_TOL:
                problems.append(
                    f"container {cid} runs {prev.op_name} and {cur.op_name} at once"
                )
    return problems


def check_skyline(scheduler: Any, dataflow: Any, schedules: list[Any]) -> list[str]:
    """Completeness, precedence, no double booking, mutual non-dominance."""
    if not schedules:
        return [f"empty skyline for {dataflow.name}"]
    problems: list[str] = []
    tq = scheduler.pricing.quantum_seconds
    bandwidth = scheduler.container.net_bw_mb_s
    required = {n for n, op in dataflow.operators.items() if not op.optional}
    points = []
    for k, schedule in enumerate(schedules):
        placed: dict[str, Any] = {}
        for a in schedule.assignments:
            if a.op_name not in dataflow.operators:
                problems.append(f"point {k}: unknown operator {a.op_name}")
            elif a.op_name in placed:
                problems.append(f"point {k}: {a.op_name} assigned twice")
            placed[a.op_name] = a
        missing = required - placed.keys()
        if missing:
            problems.append(f"point {k}: {len(missing)} operators unassigned")
        for edge in dataflow.edges:
            src, dst = placed.get(edge.src), placed.get(edge.dst)
            if src is None or dst is None:
                continue
            ready = src.end
            if src.container_id != dst.container_id:
                ready += edge.data_mb / bandwidth
            if dst.start < ready - TIME_TOL:
                problems.append(f"point {k}: {edge.dst} starts before {edge.src} delivers")
        problems.extend(f"point {k}: {p}" for p in _overlaps(schedule.assignments))
        finish = max(
            (a.end for a in schedule.assignments if a.op_name in required), default=0.0
        )
        points.append((finish, leased_quanta(schedule.assignments, tq)))
    for i, (ti, mi) in enumerate(points):
        for j, (tj, mj) in enumerate(points):
            if i != j and ti <= tj + TIME_TOL and mi <= mj and (
                ti < tj - TIME_TOL or mi < mj
            ):
                problems.append(
                    f"skyline point {i} ({ti:.3f}s, {mi}q) dominates "
                    f"point {j} ({tj:.3f}s, {mj}q)"
                )
    return problems


def check_free_builds(chosen: Any, quantum_s: float) -> list[str]:
    """Builds ride in idle leased time: same makespan, same quanta."""
    base = list(chosen.schedule.assignments)
    builds = list(chosen.build_assignments)
    problems: list[str] = []
    combined = chosen.combined().assignments
    build_names = {b.op_name for b in builds}
    kept = [a for a in combined if a.op_name not in build_names]
    if sorted(kept, key=repr) != sorted(base, key=repr):
        problems.append("interleaving moved a dataflow operator")

    def makespan(assignments: list[Any]) -> float:
        if not assignments:
            return 0.0
        return max(a.end for a in assignments) - min(a.start for a in assignments)

    if not close(makespan(kept), makespan(base)):
        problems.append(
            f"makespan {makespan(kept)!r} with builds != {makespan(base)!r} without"
        )
    with_builds = leased_quanta(base + builds, quantum_s)
    without = leased_quanta(base, quantum_s)
    if with_builds != without:
        problems.append(f"builds lease {with_builds - without} extra quanta")
    leases: dict[int, tuple[float, float]] = {}
    for a in base:
        lo, hi = leases.get(a.container_id, (a.start, a.end))
        leases[a.container_id] = (min(lo, a.start), max(hi, a.end))
    for b in builds:
        if b.container_id not in leases:
            problems.append(f"{b.op_name} runs on unleased container {b.container_id}")
            continue
        lo, hi = leases[b.container_id]
        lease_lo = math.floor(lo / quantum_s + 1e-9) * quantum_s
        lease_hi = max(lease_lo + quantum_s, math.ceil(hi / quantum_s - 1e-9) * quantum_s)
        if b.start < lease_lo - TIME_TOL or b.end > lease_hi + TIME_TOL:
            problems.append(f"{b.op_name} runs outside the lease of {b.container_id}")
    problems.extend(_overlaps(base + builds))
    return problems


# ----------------------------------------------------------------------
# Storage and accounting
# ----------------------------------------------------------------------
@dataclass
class StorageLedger:
    """Replays the put/delete calls the storage service accepted.

    ``mb_seconds`` is the correct byte-time integral. ``_spans`` keeps
    each object's (size, start, end) as fault (a) makes the service's
    history record it, so a ``billing-conservation`` violation can be
    matched against it.
    """

    live: dict[str, float] = field(default_factory=dict)
    mb_seconds: float = 0.0
    clock: float = 0.0
    puts: int = 0
    deletes: int = 0
    _spans: list[list[float]] = field(default_factory=list)
    _latest: dict[str, int] = field(default_factory=dict)

    def apply(self, op: str, path: str, size: float, t: float) -> None:
        if t > self.clock:
            self.mb_seconds += sum(self.live.values()) * (t - self.clock)
            self.clock = t
        previous = self._latest.get(path)
        if previous is not None:
            # Fault (a): a re-put ends the previous object even when a
            # delete already ended it.
            self._spans[previous][2] = t
        if op == "put":
            self.puts += 1
            self.live[path] = size
            self._latest[path] = len(self._spans)
            self._spans.append([size, t, math.inf])
        else:
            self.deletes += 1
            del self.live[path]

    def mb_seconds_at(self, until: float) -> float:
        return self.mb_seconds + sum(self.live.values()) * max(0.0, until - self.clock)

    def fault_a_recompute(self, until: float) -> float:
        """What a history re-integration gives under fault (a)."""
        return math.fsum(
            size * max(0.0, min(end, until) - min(start, until))
            for size, start, end in self._spans
        )


def check_storage(ledger: StorageLedger, storage: CloudStorage) -> list[str]:
    """The service's running integral equals the replayed one."""
    until = storage.accounted_until
    mine = ledger.mb_seconds_at(until)
    if not close(storage.accounted_mb_seconds, mine):
        return [
            f"storage integral {storage.accounted_mb_seconds!r} MB*s, "
            f"replay of the put/delete calls gives {mine!r}"
        ]
    return []


def classify_violations(
    violations: list[Any], ledger: StorageLedger, storage: CloudStorage
) -> tuple[bool, list[str]]:
    """Split InvariantMonitor output into (fault (a) seen, other problems).

    A ``billing-conservation`` violation counts as fault (a) only when
    the running integral is right and the recomputation equals exactly
    what re-billing the dead intervals gives.
    """
    fault_a = False
    problems: list[str] = []
    for v in violations:
        if v.name == "billing-conservation":
            until = storage.accounted_until
            right = close(storage.accounted_mb_seconds, ledger.mb_seconds_at(until))
            recomputed = storage.recompute_mb_seconds()
            if right and close(recomputed, ledger.fault_a_recompute(until)):
                fault_a = True
                continue
        problems.append(str(v))
    return fault_a, problems


def storage_probe() -> tuple[bool, list[str]]:
    """Fixed put/delete/re-put sequence; (fault (a) seen, other problems).

    put 1 MB at t=0, delete at t=10, put again at t=20, bill to t=30:
    20 MB*s are live, so both the running integral and a history
    re-integration must read 20.
    """
    storage = CloudStorage(PricingModel())
    storage.put("probe/object", 1.0, 0.0)
    storage.delete("probe/object", 10.0)
    storage.put("probe/object", 1.0, 20.0)
    storage.storage_cost(30.0)
    problems = []
    if not close(storage.accounted_mb_seconds, 20.0):
        problems.append(f"probe integral {storage.accounted_mb_seconds!r} != 20")
    recomputed = storage.recompute_mb_seconds()
    if close(recomputed, 20.0):
        return False, problems
    if close(recomputed, 30.0):
        return True, problems
    return False, problems + [f"probe recomputation {recomputed!r} != 20"]


@dataclass(frozen=True)
class Accounting:
    """The simulated outcome of one round, recomputed by the benchmark."""

    finished: int
    leased_quanta: int
    makespan_quanta: float
    storage_dollars: float
    cost_per_dataflow_quanta: float


def account(
    metrics: Any, ledger: StorageLedger, pricing: PricingModel, horizon_s: float
) -> tuple[Accounting, bool, list[str]]:
    """Recompute the run's bill; (figures, fault (b) seen, other problems)."""
    finished = [o for o in metrics.outcomes if o.finished_at <= horizon_s]
    n = len(finished)
    quanta = sum(o.money_quanta for o in finished)
    tq = pricing.quantum_seconds
    makespan = math.fsum((o.finished_at - o.started_at) / tq for o in finished) / max(n, 1)
    end = metrics.snapshots[-1].time if metrics.snapshots else horizon_s
    storage_dollars = ledger.mb_seconds_at(end) / tq * pricing.storage_price_mb_quantum
    compute_dollars = quanta * pricing.quantum_price
    cost = (compute_dollars + storage_dollars) / pricing.quantum_price / max(n, 1)
    problems = []
    if n == 0:
        problems.append("no dataflow finished")
    if metrics.num_finished != n:
        problems.append(f"finished count {metrics.num_finished} != recomputed {n}")
    if metrics.compute_quanta() != quanta:
        problems.append(f"leased quanta {metrics.compute_quanta()} != recomputed {quanta}")
    if not close(metrics.avg_makespan_quanta(), makespan):
        problems.append(
            f"mean makespan {metrics.avg_makespan_quanta()!r} != recomputed {makespan!r}"
        )
    if not close(metrics.storage_dollars(), storage_dollars):
        problems.append(
            f"storage bill {metrics.storage_dollars()!r} != re-integrated "
            f"{storage_dollars!r}"
        )
    fault_b = False
    if not close(metrics.compute_dollars, compute_dollars):
        if close(metrics.compute_dollars, quanta * FAULT_B_PRICE):
            fault_b = True
        else:
            problems.append(
                f"compute bill {metrics.compute_dollars!r} != leased quanta x "
                f"price {compute_dollars!r}"
            )
    return Accounting(n, quanta, makespan, storage_dollars, cost), fault_b, problems
