"""Incremental evaluation of the faded gain sums (Equations 4/5).

The naive gain model recomputes, at every decision point, the faded
benefit inflow of every index::

    S_t(now) = Σ_i  e^(-ΔT_i/D) · gtd_i        (in-window samples)
    S_m(now) = Σ_i  e^(-ΔT_i/D) · Mc · gmd_i

with ``ΔT_i = (now - executed_at_i)`` in quanta. That is one ``exp``
per (index, sample) pair per decision — O(window) work for a result
that changes only marginally between decisions.

This module exploits the exponential's composition law: sliding "now"
forward by δ rescales *every* in-window term by the same factor::

    e^(-(ΔT+δ)/D) = e^(-δ/D) · e^(-ΔT/D)
    ⇒  S(now+δ)   = e^(-δ/D) · S(now)  −  expired  +  appended

so one advance costs O(changed entries): one multiply for the decay,
one subtraction per sample that left the window (or was evicted from
the bounded history), one addition per newly recorded dataflow. The
state rebuilds itself from the history whenever an exact replay is not
possible (a record was replaced in place, time moved backwards, the
fading controller changed D for the index).

Numerical contract: the rescaled sum is *tolerance-equal* — not
bit-identical — to the naive per-sample sum, because float
multiplication does not distribute exactly over addition. The drift
per advance is one rounding error (~1e-16 relative); to keep it from
accumulating over thousands of advances, the state re-derives the sums
exactly from its window every :data:`REFRESH_EVERY` advances. The
differential suite (``tests/differential/test_gain_oracle.py``) asserts
agreement with the naive oracle within the repo's money/time epsilons
under adversarial schedules.
"""

from __future__ import annotations

import math
from collections import deque

from repro.perf import CacheStats
from repro.tuning.gain import GainModel
from repro.tuning.history import DataflowHistory

#: Advances between exact recomputations of the running sums (drift bound).
REFRESH_EVERY = 32


class _IndexState:
    """Running sums and sliding window of one (index, fade) stream."""

    __slots__ = (
        "fade",
        "version",
        "last_now",
        "consumed",
        "sum_time",
        "sum_money",
        "window",
        "running",
        "future",
        "advances",
    )

    def __init__(self, fade: float, version: int, now: float) -> None:
        self.fade = fade
        self.version = version
        self.last_now = now
        #: History position one past the newest consumed record.
        self.consumed = 0
        #: Σ dc(ΔT)·gtd over the in-window finished samples, quanta.
        self.sum_time = 0.0
        #: Σ dc(ΔT)·Mc·gmd over the in-window finished samples, dollars.
        self.sum_money = 0.0
        #: (position, executed_at, gtd, gmd) of tracked finished samples,
        #: oldest first (history appends in finish order).
        self.window: deque[tuple[int, float, float, float]] = deque()
        #: (position, gtd, gmd) of running records: they contribute at
        #: dc(0) = 1 and must not decay, so they stay out of the sums.
        self.running: list[tuple[int, float, float]] = []
        #: (position, executed_at, gtd, gmd) of *future-dated* finished
        #: records (executed_at > now). The model clamps their age to 0
        #: — a clamp the decay-rescale composition law cannot express —
        #: so they contribute at dc(0) = 1 outside the sums until "now"
        #: catches up, at which point the state rebuilds exactly.
        self.future: list[tuple[int, float, float, float]] = []
        self.advances = 0


class IncrementalGainEvaluator:
    """Maintains the faded gain sums of every index across decisions.

    Usage: ``faded_sums(name, now, fade)`` returns
    ``(S_t, S_m, samples_in_window)`` — exactly the aggregates
    :meth:`repro.tuning.gain.GainModel.evaluate_from_sums` consumes.
    Live (running/queued) dataflow contributions are *not* included;
    the tuner adds them at dc(0) = 1 on top, as the naive fold would.

    Cache behaviour is observable: ``stats.hits`` counts O(δ) advances,
    ``stats.misses`` counts full rebuilds, and ``stats.invalidations``
    counts rebuilds forced by history mutation or fade changes.

    Crash-recovery contract (``repro.recovery``): because the rescaled
    sums are only *tolerance-equal* to a from-scratch refold, a restored
    snapshot must keep the pickled per-index states authoritative —
    calling :meth:`reset` after a restore would re-derive bit-different
    sums and break the byte-identical-resume guarantee. A *cold* resume
    (no usable snapshot) instead rebuilds from the restored history the
    exact way the original run did: it replays every advance from t=0,
    so each ``_rebuild``/``_advance`` happens at the same ``now`` with
    the same window contents and reproduces the original bits.
    """

    def __init__(self, model: GainModel, history: DataflowHistory) -> None:
        self.model = model
        self.history = history
        self.stats = CacheStats()
        self._states: dict[str, _IndexState] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def faded_sums(
        self, index_name: str, now: float, fade_quanta: float | None = None
    ) -> tuple[float, float, int]:
        """(Σ dc·gtd, Σ dc·Mc·gmd, #in-window samples) at ``now``."""
        fade = self.model.params.fade_quanta if fade_quanta is None else fade_quanta
        state = self._states.get(index_name)
        if state is None:
            self.stats.miss()
            state = self._rebuild(index_name, now, fade)
        elif (
            state.fade != fade
            or state.version != self.history.mutation_version
            or now < state.last_now
        ):
            self.stats.invalidate()
            state = self._rebuild(index_name, now, fade)
        else:
            self.stats.hit()
            state = self._advance(state, index_name, now)
        head = self.history.head_position
        flat_t = 0.0
        flat_m = 0.0
        alive_flat = 0
        if state.running or state.future:
            mc = self.model.pricing.quantum_price
            for position, gtd, gmd in state.running:
                if position >= head:
                    flat_t += gtd
                    flat_m += mc * gmd
                    alive_flat += 1
            for position, _executed_at, gtd, gmd in state.future:
                if position >= head:
                    flat_t += gtd
                    flat_m += mc * gmd
                    alive_flat += 1
        return (
            state.sum_time + flat_t,
            state.sum_money + flat_m,
            len(state.window) + alive_flat,
        )

    def reset(self) -> None:
        """Drop all state (next lookups rebuild from the history)."""
        if self._states:
            self.stats.invalidate(len(self._states))
        self._states.clear()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _rebuild(self, index_name: str, now: float, fade: float) -> _IndexState:
        history = self.history
        pricing = self.model.pricing
        window_q = self.model.params.window_quanta
        mc = pricing.quantum_price
        state = _IndexState(fade=fade, version=history.mutation_version, now=now)
        for position, record in history.entries_for(index_name):
            gtd = record.time_gains.get(index_name, 0.0)
            gmd = record.money_gains.get(index_name, 0.0)
            if record.running:
                state.running.append((position, gtd, gmd))
                continue
            if record.executed_at > now:
                state.future.append((position, record.executed_at, gtd, gmd))
                continue
            age = record.age_quanta(now, pricing)
            if age <= window_q:
                dc = math.exp(-age / fade)
                state.sum_time += dc * gtd
                state.sum_money += dc * mc * gmd
                state.window.append((position, record.executed_at, gtd, gmd))
        state.consumed = history.end_position
        self._states[index_name] = state
        return state

    def _advance(
        self, state: _IndexState, index_name: str, now: float
    ) -> _IndexState:
        history = self.history
        pricing = self.model.pricing
        window_q = self.model.params.window_quanta
        mc = pricing.quantum_price
        # 0. A future-dated record whose executed_at "now" has caught up
        #    with must start decaying from its true age — only an exact
        #    rebuild slots it into the ordered window correctly.
        if state.future and any(executed_at <= now for _, executed_at, _, _ in state.future):
            self.stats.invalidate()
            return self._rebuild(index_name, now, state.fade)
        # 1. Decay-rescale the sums from last_now to now.
        if now > state.last_now:
            delta_q = pricing.quanta(now - state.last_now)
            decay = math.exp(-delta_q / state.fade)
            state.sum_time *= decay
            state.sum_money *= decay
        state.last_now = now
        # 2. Expire from the front: head-evicted records and records that
        #    slid out of the window. The window is ordered by position
        #    and (per the monotone-append check in step 3) by
        #    executed_at, so expiry only ever removes a prefix.
        head = history.head_position
        while state.window:
            position, executed_at, gtd, gmd = state.window[0]
            age = max(0.0, pricing.quanta(now - executed_at))
            if position >= head and age <= window_q:
                break
            state.window.popleft()
            dc = math.exp(-age / state.fade)
            state.sum_time -= dc * gtd
            state.sum_money -= dc * mc * gmd
        if state.running:
            state.running = [e for e in state.running if e[0] >= head]
        if state.future:
            state.future = [e for e in state.future if e[0] >= head]
        # 3. Consume records appended since the last advance.
        for position, record in history.entries_for(index_name, state.consumed):
            gtd = record.time_gains.get(index_name, 0.0)
            gmd = record.money_gains.get(index_name, 0.0)
            if record.running:
                state.running.append((position, gtd, gmd))
                continue
            if record.executed_at > now:
                state.future.append((position, record.executed_at, gtd, gmd))
                continue
            if state.window and record.executed_at < state.window[-1][1]:
                # Out-of-order append would break prefix expiry; fall
                # back to an exact rebuild (counted as an invalidation).
                self.stats.invalidate()
                return self._rebuild(index_name, now, state.fade)
            age = record.age_quanta(now, pricing)
            if age <= window_q:
                dc = math.exp(-age / state.fade)
                state.sum_time += dc * gtd
                state.sum_money += dc * mc * gmd
                state.window.append((position, record.executed_at, gtd, gmd))
        state.consumed = history.end_position
        # 4. Periodic exact refresh bounds the decay-rescaling drift.
        state.advances += 1
        if state.advances % REFRESH_EVERY == 0:
            sum_time = 0.0
            sum_money = 0.0
            for _position, executed_at, gtd, gmd in state.window:
                age = max(0.0, pricing.quanta(now - executed_at))
                dc = math.exp(-age / state.fade)
                sum_time += dc * gtd
                sum_money += dc * mc * gmd
            state.sum_time = sum_time
            state.sum_money = sum_money
        return state
