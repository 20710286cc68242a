"""0/1 knapsack via LP relaxation and branch-and-bound (Algorithm 3).

Assigning build-index operators to one idle slot is a 0/1 knapsack:
maximise the total gain of the selected operators subject to their total
execution time fitting the slot. Algorithm 3 solves the LP relaxation
(weights in [0, 1]) and branches to integrality. The relaxation of a
knapsack is solved greedily by gain density (the classic Dantzig bound),
which is also the fractional bound used to prune branches.

Performance: this solver sits on the service hot path — one knapsack
per idle slot per skyline point per dataflow arrival — and profiles as
the single most expensive call of a simulated day. Two layers keep it
fast without changing a single result:

* the branch-and-bound core walks parallel ``sizes``/``gains`` arrays
  (the float accumulation order of the original per-item loop is
  preserved exactly, so bounds, prunes and incumbents are bit-identical
  to the naive reference kept in ``tests/differential/oracle.py``);
* whole solves are memoised in a bounded LRU keyed by the exact
  ``(capacity, max_nodes, items)`` inputs. The solution is a pure
  function of that key, so a hit returns the byte-identical result the
  solver would recompute — the skyline's schedules repeatedly expose
  the same idle-slot sizes to the same candidate set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.perf import CacheStats, LRUMemo


@dataclass(frozen=True)
class KnapsackItem:
    """One candidate build-index operator for a slot."""

    item_id: int
    size: float
    gain: float

    def __post_init__(self) -> None:
        if self.size < 0 or self.gain < 0:
            raise ValueError("item size and gain must be non-negative")


@dataclass(frozen=True)
class KnapsackSolution:
    """Selected item ids, their total gain, and the LP upper bound."""

    selected: tuple[int, ...]
    total_gain: float
    total_size: float
    lp_bound: float


def fractional_bound(items: list[KnapsackItem], capacity: float) -> float:
    """Optimal value of the LP relaxation (items sorted by density)."""
    remaining = capacity
    value = 0.0
    for item in sorted(items, key=_density, reverse=True):
        if item.size <= 0:
            value += item.gain
            continue
        if item.size <= remaining:
            value += item.gain
            remaining -= item.size
        else:
            value += item.gain * (remaining / item.size)
            break
    return value


def _density(item: KnapsackItem) -> float:
    if item.size <= 0:
        return float("inf")
    return item.gain / item.size


#: Bounded memo of whole solves. Values are pure functions of their
#: keys, so the bound trades only speed, never results.
_MEMO_STATS = CacheStats()
_SOLVE_MEMO: LRUMemo[KnapsackSolution] = LRUMemo(maxsize=4096, stats=_MEMO_STATS)


def knapsack_cache_stats() -> CacheStats:
    """Hit/miss counters of the solve memo (for obs export and tests)."""
    return _MEMO_STATS


def clear_knapsack_cache() -> None:
    """Drop all memoised solves (benchmarks measure cold vs warm)."""
    _SOLVE_MEMO.clear()


def reset_knapsack_cache() -> None:
    """Drop memoised solves AND zero the counters.

    The memo is process-global; a service run resets it on entry so its
    exported ``cache/knapsack`` metrics are a pure function of the run's
    config and seed (two same-seed runs in one process must produce
    byte-identical artifacts, including cache counters).
    """
    _SOLVE_MEMO.clear()
    _MEMO_STATS.reset()


def export_knapsack_cache() -> dict[str, object]:
    """The memo's full state (entries + counters), for crash snapshots.

    The memo is process-global and its counters are published into the
    run's observability artifacts, so a byte-identical resume must carry
    the cache across the crash exactly — entries (same hits downstream)
    and stats (same exported ``cache/knapsack`` totals) both.
    """
    return {
        "entries": _SOLVE_MEMO.export_entries(),
        "stats": _MEMO_STATS.snapshot(),
    }


def restore_knapsack_cache(state: dict[str, object]) -> None:
    """Reinstall a state captured by :func:`export_knapsack_cache`."""
    entries = state["entries"]
    stats = state["stats"]
    assert isinstance(entries, list) and isinstance(stats, dict)
    _SOLVE_MEMO.restore_entries(entries)
    _MEMO_STATS.restore(stats)


def solve_knapsack(
    items: list[KnapsackItem],
    capacity: float,
    max_nodes: int = 200_000,
) -> KnapsackSolution:
    """Branch-and-bound 0/1 knapsack with the Dantzig fractional bound.

    Items are explored in density order; each node either takes or skips
    the next item, and subtrees whose fractional bound cannot beat the
    incumbent are pruned. ``max_nodes`` caps the search (the incumbent —
    at least as good as greedy — is returned if the cap is hit, keeping
    worst-case latency bounded for the scheduler's inner loop).

    The solution is memoised on the exact inputs; see the module
    docstring for why a hit is byte-identical to a recompute.
    """
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    key = (capacity, max_nodes, tuple((it.item_id, it.size, it.gain) for it in items))
    cached = _SOLVE_MEMO.get(key)
    if cached is not None:
        return cached
    solution = _solve_uncached(items, capacity, max_nodes)
    _SOLVE_MEMO.put(key, solution)
    return solution


def _solve_uncached(
    items: list[KnapsackItem],
    capacity: float,
    max_nodes: int,
) -> KnapsackSolution:
    """The branch-and-bound core.

    Bit-exactness contract: every float accumulation below happens in
    the same order, over the same values, as the reference
    implementation (``tests/differential/oracle.py``) — the parallel
    arrays and linked-list paths are pure data-structure swaps.
    """
    fit = [it for it in items if it.size <= capacity + 1e-12]
    if not fit:
        return KnapsackSolution(selected=(), total_gain=0.0, total_size=0.0, lp_bound=0.0)
    order = sorted(fit, key=_density, reverse=True)
    lp_bound = fractional_bound(order, capacity)
    n = len(order)
    sizes = [it.size for it in order]
    gains = [it.gain for it in order]
    ids = [it.item_id for it in order]

    # No shortcut for the everything-fits case: the reference prune can
    # legitimately return a *subset* there (zero-gain items are skipped
    # once the bound ties the incumbent), and take-branch-first resolves
    # it in ~2n nodes anyway.
    best_gain = -1.0
    best_path: tuple | None = None
    best_size = 0.0
    nodes = 0

    # Depth-first, take-branch-first finds good incumbents fast; the
    # pre-sorted arrays make each suffix bound a single linear walk.
    # Chosen sets are persistent cons-lists (item_id, parent) so a push
    # is O(1); the incumbent path is only materialised on return.
    stack: list[tuple[int, float, float, tuple | None]] = [(0, 0.0, 0.0, None)]
    while stack:
        depth, used, gain, path = stack.pop()
        nodes += 1
        if gain > best_gain:
            best_gain, best_path, best_size = gain, path, used
        if depth >= n or nodes > max_nodes:
            continue
        # Dantzig bound over order[depth:] (already density-sorted).
        room = capacity - used
        bound = gain
        for i in range(depth, n):
            size = sizes[i]
            if size <= 0:
                bound += gains[i]
            elif size <= room:
                bound += gains[i]
                room -= size
            else:
                bound += gains[i] * (room / size)
                break
        if bound <= best_gain + 1e-12:
            continue
        # Skip branch pushed first so the take branch is explored first.
        stack.append((depth + 1, used, gain, path))
        size = sizes[depth]
        if used + size <= capacity + 1e-12:
            stack.append((depth + 1, used + size, gain + gains[depth], (ids[depth], path)))

    selected: list[int] = []
    node = best_path
    while node is not None:
        selected.append(node[0])
        node = node[1]
    selected.reverse()
    return KnapsackSolution(
        selected=tuple(selected),
        total_gain=max(best_gain, 0.0),
        total_size=best_size,
        lp_bound=lp_bound,
    )


def solve_knapsack_greedy(items: list[KnapsackItem], capacity: float) -> KnapsackSolution:
    """Density-greedy knapsack (used as a fast fallback and in tests)."""
    if capacity < 0:
        raise ValueError("capacity must be non-negative")
    selected: list[int] = []
    used = 0.0
    gain = 0.0
    for item in sorted(items, key=_density, reverse=True):
        if item.size <= capacity - used + 1e-12:
            selected.append(item.item_id)
            used += item.size
            gain += item.gain
    return KnapsackSolution(
        selected=tuple(selected),
        total_gain=gain,
        total_size=used,
        lp_bound=fractional_bound(items, capacity),
    )
