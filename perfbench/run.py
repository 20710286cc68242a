"""Benchmark of the Section 6.5 service loop, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload phase-lp --seed 1 --seconds 30 --trace 0

One run measures whole rounds of one workload for ``--seconds`` seconds.
A round builds the service (``repro.prepare_run`` + ``begin_run``),
steps it to the end of its horizon and calls ``finish_run``; every
round of a workload simulates identical work. After each step, outside
the timed region, the benchmark checks the step's knapsack solves,
skyline schedules and interleaved builds, and replays the storage calls;
after each round it recomputes the bill. Host times are reported in
reference units, which cancel the drift of a shared host's speed. See
perfbench/README.md.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics, including
the wrappers' overhead against the untraced rounds. The last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import checks
    import workloads
    from tracing import Recorder, SpanTracer, instrument
    from repro.interleave.knapsack import knapsack_cache_stats
    from repro.obs import trace_json
except ImportError as exc:  # run outside a checkout of the program
    sys.exit(f"error: cannot import the program under test: {exc}")

#: Set-up is measured in this many fresh interpreters per run (median).
SETUP_PROBES = 5
#: A run measures at least this many rounds and this many steps.
MIN_ROUNDS = 3
MIN_STEPS = 100


@dataclass
class RoundResult:
    steps: int = 0
    step_s: list[float] = field(default_factory=list)
    ref_s: list[float] = field(default_factory=list)
    check_s: list[float] = field(default_factory=list)
    finish_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    accounting: checks.Accounting | None = None
    knapsack_solves: int = 0
    knapsack_items: int = 0
    knapsack_classes: int = 0
    knapsack_gain: float = 0.0
    knapsack_bound: float = 0.0
    skyline_calls: int = 0
    skyline_points: int = 0
    builds_packed: int = 0
    layer: dict[str, float] = field(default_factory=dict)
    traced: bool = False

    @property
    def loop_s(self) -> float:
        return sum(self.step_s) + sum(self.check_s) + self.finish_s

    def signature(self) -> tuple:
        """The simulated outcome; identical in every round of a workload."""
        return (self.steps, self.accounting, self.knapsack_solves, self.skyline_calls,
                self.builds_packed, self.attempted, self.failed)


def reference_seconds() -> float:
    """Host seconds of a fixed pure-Python computation (about 2 ms).

    The host this benchmark runs on is shared: its speed drifts by up to
    1.5x over minutes as other tenants come and go. Timed right before
    every step, this computation slows down with the host, so dividing
    the loop's host times by its median cancels most of the drift.
    """
    t0 = time.perf_counter()
    table = {}
    for i in range(6000):
        table[(i % 800, "k")] = (i * 0.5, i)
    for _ in range(6):
        sorted(dict(table).values())
    return time.perf_counter() - t0


def _timed(tracer: SpanTracer | None, layer: str, fn, *args):
    """Call ``fn``; return its result and host seconds (a root span if traced)."""
    frame = tracer.enter() if tracer else None
    t0 = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - t0
    if tracer:
        tracer.exit(layer, frame)
    return result, elapsed


def run_round(workload: workloads.Workload, workdir: Path, traced: bool) -> RoundResult:
    """Run one round, timing the loop and checking every step's outputs."""
    out = RoundResult(traced=traced)
    rec = Recorder()
    tracer = SpanTracer() if traced else None
    ledger = checks.StorageLedger()
    prepared = workloads.prepare(workload, workdir)
    service, state, monitor = prepared.service, prepared.state, prepared.monitor
    try:
        if service.storage.live_count or service.storage.accounted_mb_seconds:
            out.problems.append("storage is not empty when the loop starts")
        with instrument(rec, tracer):
            while True:
                out.ref_s.append(reference_seconds())
                more, elapsed = _timed(tracer, "core.service", service.step, state)
                if not more:
                    out.finish_s += elapsed
                    break
                out.steps += 1
                out.step_s.append(elapsed)
                violations = []
                if monitor is not None:
                    violations, elapsed = _timed(
                        tracer, "recovery.invariants", monitor.check,
                        state, service.storage.accounted_until,
                    )
                    out.check_s.append(elapsed)
                _verify_step(out, rec, ledger, service, workload, violations)
            metrics, elapsed = _timed(tracer, "core.service", service.finish_run, state)
            out.finish_s += elapsed
        for entry in rec.storage_log:
            ledger.apply(*entry)
        figures, fault_b, problems = checks.account(
            metrics, ledger, service.pricing, service.config.total_time_s
        )
        out.accounting = figures
        out.problems.extend(problems)
        out.attempted += 1
        out.failed += bool(fault_b or problems)
        if workload.audit:
            fault_a, problems = checks.storage_probe()
            out.problems.extend(problems)
            out.attempted += 1
            out.failed += bool(fault_a or problems)
        if traced:
            out.layer = _layer_figures(
                out, rec, tracer, ledger, prepared, knapsack_cache_stats()
            )
    finally:
        prepared.close()
    return out


def _verify_step(out, rec, ledger, service, workload, violations) -> None:
    """Check everything one step produced; count the step as one operation."""
    knapsacks, skylines, decisions = rec.drain_step()
    problems: list[str] = []
    for items, capacity, solution in knapsacks:
        found, fig = checks.check_knapsack(items, capacity, solution)
        problems.extend(found)
        out.knapsack_solves += 1
        out.knapsack_items += fig.items
        out.knapsack_classes += fig.classes
        out.knapsack_gain += fig.gain
        out.knapsack_bound += fig.bound
    for scheduler, dataflow, schedules in skylines:
        problems.extend(checks.check_skyline(scheduler, dataflow, schedules))
        out.skyline_calls += 1
        out.skyline_points += len(schedules)
    for decision in decisions:
        out.builds_packed += len(decision.chosen.scheduled_builds)
        if workload.interleaver == "lp":
            problems.extend(
                checks.check_free_builds(decision.chosen, service.pricing.quantum_seconds)
            )
    for entry in rec.storage_log:
        ledger.apply(*entry)
    rec.storage_log.clear()
    problems.extend(checks.check_storage(ledger, service.storage))
    fault_a, found = checks.classify_violations(violations, ledger, service.storage)
    problems.extend(found)
    out.problems.extend(f"step {out.steps}: {p}" for p in problems)
    out.attempted += 1
    out.failed += bool(fault_a or problems)


def _layer_figures(out, rec, tracer, ledger, prepared, memo) -> dict[str, float]:
    """Per-layer counts, sizes and self-time shares of one traced round."""
    root = tracer.root_s
    share = {layer: 100.0 * s / root for layer, s in tracer.self_s.items()}
    calls = tracer.calls
    lookups = memo.hits + memo.misses
    catalog = prepared.service.catalog
    fig = {
        "scheduling.skyline_calls": out.skyline_calls,
        "scheduling.skyline_self_pct": share.get("scheduling.skyline", 0.0),
        "scheduling.skyline_points_mean": out.skyline_points / max(out.skyline_calls, 1),
        "interleave.knapsack_solves": out.knapsack_solves,
        "interleave.knapsack_self_pct": share.get("interleave.knapsack", 0.0),
        "interleave.knapsack_items_mean": out.knapsack_items / max(out.knapsack_solves, 1),
        "interleave.knapsack_classes_mean":
            out.knapsack_classes / max(out.knapsack_solves, 1),
        "interleave.knapsack_memo_hit_ratio": memo.hits / lookups if lookups else 0.0,
        "interleave.knapsack_gain_to_bound":
            out.knapsack_gain / out.knapsack_bound if out.knapsack_bound else 0.0,
        "interleave.pack_self_pct": share.get("interleave.pack", 0.0),
        "interleave.builds_packed": out.builds_packed,
        "interleave.builds_unplaced": rec.candidates_offered - out.builds_packed,
        "interleave.online_self_pct": share.get("interleave.online", 0.0),
        "tuning.decide_self_pct": share.get("tuning.decide", 0.0),
        "tuning.gain_self_pct": share.get("tuning.gain", 0.0),
        "tuning.candidates_self_pct": share.get("tuning.candidates", 0.0),
        "tuning.history_self_pct": share.get("tuning.history", 0.0),
        "tuning.indexes_scored": rec.indexes_scored,
        "tuning.candidates_offered": rec.candidates_offered,
        "tuning.history_appends": calls["tuning.history"],
        "core.simulator_self_pct": share.get("core.simulator", 0.0),
        "core.simulator_executions": calls["core.simulator"],
        "core.service_self_pct": share.get("core.service", 0.0),
        "core.steps": out.steps,
        "cloud.storage_self_pct": share.get("cloud.storage", 0.0),
        "cloud.storage_puts": ledger.puts,
        "cloud.storage_deletes": ledger.deletes,
        "cloud.storage_dollars": out.accounting.storage_dollars,
        "data.partitions_invalidated": rec.partitions_invalidated,
        "data.index_partitions_built": sum(
            len(index.built_partition_ids()) for index in catalog.indexes.values()
        ),
        "obs.journal_events": rec.journal_events,
        "obs.emit_self_pct": share.get("obs.emit", 0.0),
        "recovery.records": calls["recovery.log"],
        "recovery.self_pct": share.get("recovery.log", 0.0),
        "recovery.snapshot_bytes": rec.snapshot_bytes,
        "recovery.invariants_self_pct": share.get("recovery.invariants", 0.0),
        "trace.loop_s": root,
    }
    if abs(sum(tracer.self_s.values()) - root) > 1e-6 * root:
        out.problems.append("layer self times do not add up to the loop time")
    obs = prepared.obs
    fig["obs.journal_bytes"] = len(obs.journal.to_jsonl().encode()) if obs else 0
    fig["obs.metrics_bytes"] = len(obs.metrics.to_json().encode()) if obs else 0
    fig["obs.trace_bytes"] = len(trace_json(obs.tracer).encode()) if obs else 0
    wal = prepared.recovery_dir / "wal.jsonl" if prepared.recovery_dir else None
    fig["recovery.wal_bytes"] = wal.stat().st_size if wal and wal.exists() else 0
    return fig


# ----------------------------------------------------------------------
# Set-up time: process start until the service is ready
# ----------------------------------------------------------------------
def setup_probe(name: str, workdir: Path) -> None:
    """Child process: import, build and begin one run, then say ready."""
    prepared = workloads.prepare(workloads.WORKLOADS[name], workdir)
    print("ready", flush=True)
    prepared.close()


def measure_setup(name: str, workdir: Path) -> list[float]:
    times = []
    for k in range(SETUP_PROBES):
        child_dir = workdir / f"setup-{k}"
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
               "--workload", name, "--workdir", str(child_dir)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            code = child.wait(timeout=120)
        shutil.rmtree(child_dir, ignore_errors=True)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {name} failed (exit {code})")
        times.append(elapsed)
    return times


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _host_figures(rounds: list[RoundResult]) -> tuple[list[float], float, float]:
    """Per-step median host seconds, median loop seconds, reference seconds.

    Every round replays identical work, so each step has one host time
    per round; its median over the rounds is taken. The loop time of a
    round includes ``finish_run`` and, on ``audit-random``, the invariant
    checks.
    """
    timed = [r for r in rounds if not r.traced]
    per_step = [statistics.median(times) for times in zip(*(r.step_s for r in timed))]
    loop_s = statistics.median(r.loop_s for r in timed)
    ref_s = statistics.median(t for r in timed for t in r.ref_s)
    return per_step, loop_s, ref_s


def end_to_end(rounds: list[RoundResult], setup: list[float]) -> dict[str, tuple[float, str]]:
    """End-to-end figures of the untraced rounds.

    Host times are given in reference units (``ref``): multiples of the
    time :func:`reference_seconds` took in the same run.
    """
    per_step, loop_s, ref_s = _host_figures(rounds)
    deciles = statistics.quantiles(per_step, n=10, method="inclusive")
    acc = rounds[0].accounting
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (statistics.median(setup), "s"),
        "decisions_per_kref": (1000.0 * len(per_step) * ref_s / loop_s, "1/kref"),
        "step_p50_ref": (statistics.median(per_step) / ref_s, "ref"),
        "step_p90_ref": (deciles[8] / ref_s, "ref"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
        "dataflows_finished": (acc.finished, "count"),
        "cost_per_dataflow_quanta": (acc.cost_per_dataflow_quanta, "quanta"),
        "makespan_quanta": (acc.makespan_quanta, "quanta"),
    }


LAYER_UNITS = {
    "_pct": "%", "_s": "s", "_bytes": "bytes", "_dollars": "USD",
    "_ratio": "ratio", "_bound": "ratio", "_mean": "count",
}


def _unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(rounds: list[RoundResult]) -> dict[str, tuple[float, str]]:
    traced = [r for r in rounds if r.traced]
    timed = [r for r in rounds if not r.traced]
    out = {}
    for name in traced[0].layer:
        values = [r.layer[name] for r in traced]
        value = statistics.median(values) if name.endswith(("_pct", "_s")) else values[0]
        out[name] = (value, _unit(name))
    per_step, loop_s, ref_s = _host_figures(rounds)
    out["host.ref_ms"] = (1000.0 * ref_s, "ms")
    out["host.step_p50_ms"] = (1000.0 * statistics.median(per_step), "ms")
    out["host.decisions_per_s"] = (len(per_step) / loop_s, "1/s")
    # Rounds alternate untraced, traced: compare each traced round with the
    # untraced round just before it, each in its own reference units, so
    # drift in host speed cancels.
    ratios = [
        (t.loop_s / statistics.median(t.ref_s)) / (u.loop_s / statistics.median(u.ref_s))
        for u, t in zip(timed, traced)
    ]
    out["trace.overhead_pct"] = (100.0 * (statistics.median(ratios) - 1.0), "%")
    return dict(sorted(out.items()))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--seed", type=int, default=None,
        help="accepted for the benchmark interface; a workload's simulated "
             "work is fixed by its own seed (see README.md)",
    )
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    workdir = args.workdir or ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_probe:
            setup_probe(args.workload, workdir)
            return 0
        setup = [] if args.trace else measure_setup(args.workload, workdir)
        rounds: list[RoundResult] = []
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            rounds.append(run_round(workload, workdir, traced))
            timed = [r for r in rounds if not r.traced]
            if args.trace:
                enough = len(rounds) - len(timed) >= MIN_ROUNDS
            else:
                enough = (
                    len(timed) >= MIN_ROUNDS
                    and sum(r.steps for r in timed) >= MIN_STEPS
                )
            if enough and time.perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if not args.workdir:
            try:
                workdir.parent.rmdir()
            except OSError:
                pass
    problems = [p for r in rounds for p in r.problems]
    first = rounds[0].signature()
    problems += [
        f"round {k} simulated different work than round 0"
        for k, r in enumerate(rounds) if r.signature() != first
    ]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    metrics = per_layer(rounds) if args.trace else end_to_end(rounds, setup)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"workload {workload.name}: {len(rounds)} rounds, "
          f"{attempted} operations attempted, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
