"""The timed task loop and the statistics of one run.

Load is a closed loop with one client: the next task starts when the
previous one has returned and its result has been checked.  A run is made
of whole rounds (``workload.round()``), so its mix of tasks is fixed.  The reference
loop of ``refloop.py`` runs between tasks whenever ``REF_EVERY_S`` has
passed since its last run, so every task has reference timings taken
right beside it.

A task's time is its library call alone.  Throughput counts a task's whole
share of the run, less the reference loop: building its inputs, the call
and the check of its result.
"""

from __future__ import annotations

import math
import statistics
from bisect import bisect_left
from dataclasses import dataclass, field
from time import perf_counter

from .refloop import time_reference

REF_EVERY_S = 0.05
TASK_TIMEOUT_S = 20.0
REF_WINDOW = 4  # reference samples taken on each side of a task


@dataclass
class Sample:
    kind: str
    start: float
    seconds: float  # the library call alone
    failure: str | None
    busy: float  # building the inputs, the call and the check: run time less the reference loop


@dataclass
class Run:
    samples: list[Sample] = field(default_factory=list)
    rounds: int = 0
    ref: list[tuple[float, float]] = field(default_factory=list)  # (time, seconds)

    @property
    def failures(self) -> list[Sample]:
        return [s for s in self.samples if s.failure is not None]

    @property
    def task_seconds(self) -> float:
        return sum(s.seconds for s in self.samples)


def _failure(task, result, error, seconds: float) -> str | None:
    if error is not None:
        return f"raised {type(error).__name__}: {error}"
    if seconds > TASK_TIMEOUT_S:
        return f"timed out ({seconds:.1f} s > {TASK_TIMEOUT_S} s)"
    try:
        return task.check(result)
    except Exception as exc:  # a malformed result is a wrong answer
        return f"check raised {type(exc).__name__}: {exc}"


def run_tasks(workload, seconds: float | None = None, rounds: int | None = None, tracer=None, reference: bool = True) -> Run:
    """Run whole rounds of ``workload.round()`` until ``seconds`` have passed, or exactly ``rounds``.

    The clock is read only between rounds, so every run is made of whole
    rounds and has the same mix of tasks whatever the speed of the machine.
    """
    run = Run()
    start = perf_counter()
    last_ref = float("-inf")
    while True:
        if rounds is not None and run.rounds >= rounds:
            break
        if rounds is None and run.rounds and perf_counter() - start >= seconds:
            break
        for build in workload.round():
            if reference and perf_counter() - last_ref >= REF_EVERY_S:
                run.ref.append((perf_counter(), time_reference()))
                last_ref = perf_counter()
            t_build = perf_counter()
            task = build()
            t0 = perf_counter()
            if tracer is not None:
                result, error, dt = tracer.run_task(len(run.samples), task.kind, task.call)
            else:
                result, error = None, None
                try:
                    result = task.call()
                except Exception as exc:  # a task that raises is a failed task, not a crash
                    error = exc
                dt = perf_counter() - t0
            failure = _failure(task, result, error, dt)
            run.samples.append(Sample(task.kind, t0, dt, failure, perf_counter() - t_build))
        run.rounds += 1
    if reference:
        run.ref.append((perf_counter(), time_reference()))
    return run


def local_reference(ref: list[tuple[float, float]], ref_times: list[float], t: float) -> float:
    """Median of the reference timings taken nearest to time t."""
    j = bisect_left(ref_times, t)
    return statistics.median(r[1] for r in ref[max(0, j - REF_WINDOW): j + REF_WINDOW])


def percentile_index(n: int, pct: float) -> int:
    """Ascending index of the nearest-rank percentile."""
    return min(n - 1, max(0, math.ceil(pct / 100 * n) - 1))


def summarize(run: Run, tail_pct: float) -> dict:
    """Per-task times of the call alone; throughput over the run time less the reference loop."""
    times = [s.seconds for s in run.samples]
    ref_times = [r[0] for r in run.ref]
    refs = [local_reference(run.ref, ref_times, s.start) for s in run.samples]
    norms = [s.seconds / r for s, r in zip(run.samples, refs)]
    busy = [s.busy for s in run.samples]
    n = len(times)
    k = percentile_index(n, tail_pct)
    return {
        "tasks": n,
        "rounds": run.rounds,
        "failed": len(run.failures),
        "task_p50_s": statistics.median(times),
        "task_tail_s": sorted(times)[k],
        "tasks_per_s": n / sum(busy),
        "task_p50_norm": statistics.median(norms),
        "task_tail_norm": sorted(norms)[k],
        "tasks_per_norm": n / sum(b / r for b, r in zip(busy, refs)),
        "tail_percentile": tail_pct,
        "tail_beyond": n - 1 - k,
        "ref_loop_s": statistics.median(r[1] for r in run.ref),
        "ref_samples": len(run.ref),
        "task_seconds": sum(times),
        "busy_seconds": sum(busy),
    }
