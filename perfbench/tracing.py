"""Span timing and call capture around the public entry points of each layer.

Everything here is installed from outside the program: :func:`instrument`
replaces a function or method on its module or class for the duration of
one round and restores the original afterwards. ``src/repro`` is never
edited.

Two things ride on the same wrappers:

* **capture** (every round): the arguments and results the independent
  checks need are appended to a :class:`Recorder`;
* **timing** (traced rounds only): a :class:`SpanTracer` records each
  call as a span, so a layer's self time is its span minus the part of
  it covered by child spans, and call counts come for free.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

import repro.cloud.storage as storage_mod
import repro.core.simulator as simulator_mod
import repro.data.index_model as index_mod
import repro.interleave.lp as lp_mod
import repro.obs.journal as journal_mod
import repro.recovery.manager as manager_mod
import repro.scheduling.skyline as skyline_mod
import repro.tuning.history as history_mod
import repro.tuning.tuner as tuner_mod


class SpanTracer:
    """Nested wall-clock spans with per-layer self time and call counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self._stack: list[list[float]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.root_s = 0.0

    def enter(self) -> list[float]:
        frame = [self.clock(), 0.0]  # start, time covered by children
        self._stack.append(frame)
        return frame

    def exit(self, layer: str, frame: list[float]) -> None:
        duration = self.clock() - frame[0]
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span stack corrupted at {layer}")
        self.self_s[layer] += duration - frame[1]
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][1] += duration
        else:
            self.root_s += duration


@dataclass
class Recorder:
    """What the wrapped entry points handed back during one step.

    The run loop drains the per-step lists after every step (outside
    the timed region) and keeps only running totals.
    """

    knapsacks: list[tuple[list[Any], float, Any]] = field(default_factory=list)
    skylines: list[tuple[Any, Any, list[Any]]] = field(default_factory=list)
    decisions: list[Any] = field(default_factory=list)
    storage_log: list[tuple[str, str, float, float]] = field(default_factory=list)
    candidates_offered: int = 0
    indexes_scored: int = 0
    partitions_invalidated: int = 0
    snapshot_bytes: int = 0
    journal_events: int = 0

    def drain_step(self) -> tuple[list, list, list]:
        out = (self.knapsacks, self.skylines, self.decisions)
        self.knapsacks, self.skylines, self.decisions = [], [], []
        return out


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[index]


def _on_knapsack(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.knapsacks.append(
        (_arg(args, kwargs, 0, "items"), _arg(args, kwargs, 1, "capacity"), result)
    )


def _on_skyline(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.skylines.append((args[0], _arg(args, kwargs, 1, "dataflow"), result))


def _on_decision(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.decisions.append(result)


def _on_put(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.storage_log.append(("put", result.path, result.size_mb, result.created_at))


def _on_delete(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    path = _arg(args, kwargs, 1, "path")
    rec.storage_log.append(("delete", path, 0.0, _arg(args, kwargs, 2, "time")))


def _on_candidates(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.candidates_offered += len(result)


def _on_gains(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.indexes_scored += len(result)


def _on_invalidate(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.partitions_invalidated += 1


def _on_snapshot(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.snapshot_bytes += len(_arg(args, kwargs, 2, "payload"))


def _on_emit(rec: Recorder, args: tuple, kwargs: dict, result: Any) -> None:
    rec.journal_events += 1


#: (owner, attribute, layer, capture callback, needed by the checks).
#: Entries with ``needed=False`` are only installed in traced rounds.
HOOKS: tuple[tuple[Any, str, str, Callable | None, bool], ...] = (
    (lp_mod, "solve_knapsack", "interleave.knapsack", _on_knapsack, True),
    (skyline_mod.SkylineScheduler, "schedule", "scheduling.skyline", _on_skyline, True),
    (tuner_mod.OnlineIndexTuner, "on_dataflow", "tuning.decide", _on_decision, True),
    (storage_mod.CloudStorage, "put", "cloud.storage", _on_put, True),
    (storage_mod.CloudStorage, "delete", "cloud.storage", _on_delete, True),
    (lp_mod, "pack_builds_into_schedule", "interleave.pack", None, False),
    (tuner_mod, "online_interleave", "interleave.online", None, False),
    (tuner_mod.OnlineIndexTuner, "evaluate_gains", "tuning.gain", _on_gains, False),
    (tuner_mod.OnlineIndexTuner, "build_candidates", "tuning.candidates", _on_candidates, False),
    (history_mod.DataflowHistory, "add", "tuning.history", None, False),
    (simulator_mod.ExecutionSimulator, "execute", "core.simulator", None, False),
    (index_mod.Index, "invalidate_partition", "data.invalidate", _on_invalidate, False),
    (journal_mod.RecordingJournal, "emit", "obs.emit", _on_emit, False),
    (manager_mod.RecoveryManager, "record", "recovery.log", None, False),
    (manager_mod.RecoveryManager, "commit", "recovery.log", None, False),
    (manager_mod.RecoveryManager, "on_run_finished", "recovery.log", None, False),
    (manager_mod, "write_snapshot", "recovery.log", _on_snapshot, False),
)


def _wrap(
    fn: Callable, layer: str, on_result: Callable | None, rec: Recorder,
    tracer: SpanTracer | None,
) -> Callable:
    if tracer is None:
        def captured(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            on_result(rec, args, kwargs, result)
            return result

        return captured

    def timed(*args: Any, **kwargs: Any) -> Any:
        frame = tracer.enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(layer, frame)
        if on_result is not None:
            on_result(rec, args, kwargs, result)
        return result

    return timed


@contextmanager
def instrument(rec: Recorder, tracer: SpanTracer | None) -> Iterator[None]:
    """Install the wrappers for one round; restore the originals after.

    Untraced rounds install only the capture wrappers the checks need,
    so the end-to-end figures carry as little wrapper cost as possible.
    """
    saved: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, layer, on_result, needed in HOOKS:
            if tracer is None and not needed:
                continue
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(original, layer, on_result, rec, tracer))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
