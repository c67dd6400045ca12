"""Benchmark of the leavitt library: seeded workloads, checked results, timings.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Workloads: certify, algebra, classify, cli (see ``workloads.py`` for what
each one runs and why).  With ``--trace 0`` no wrapper is installed, tasks
run for ``--seconds``, and the end-to-end metrics are reported.  With
``--trace 1`` the workload's fixed number of rounds (``TRACE_ROUNDS``, not
``--seconds``) runs twice from a fresh set-up, first untraced and then
traced (``trace.py``), and the per-layer metrics and the tracing overhead
are reported.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a readable report.  The full result is also written to
``.bench_out/<workload>-seed<seed>-trace<0|1>.json`` and, for a traced
run, the spans to ``.bench_out/spans-<workload>-seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("certify", "algebra", "classify", "cli")
PROBE_REPEATS = 11
PROBE_TIMEOUT_S = 60
# setup_s is given in seconds on a host where one reference loop
# (refloop.py) takes this long, about its time on the two-core host where
# the benchmark was defined.
REF_NOMINAL_S = 0.0035

# The gated end-to-end metrics, as in BENCHMARK.json.  Raw seconds move with
# the host's speed from one process to the next (by a quarter on a shared
# two-core host), so they are reported (RAW) but the gated timings are the
# ones divided by the reference loop.
END_TO_END = (
    ("setup_s", "s"),
    ("task_p50_norm", "ref"),
    ("task_tail_norm", "ref"),
    ("tasks_per_norm", "1/ref"),
    ("peak_rss_mb", "MB"),
)
RAW = (("setup_raw_s", "s"), ("task_p50_s", "s"), ("task_tail_s", "s"), ("tasks_per_s", "1/s"))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _probe(argv: list[str]) -> tuple[float, list[float]]:
    """Wall time of a fresh interpreter, and the numbers it prints."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1:]} failed: {proc.stderr.strip()[-300:]}")
    return wall, [float(x) for x in proc.stdout.split()]


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time at the nominal reference speed, and raw; medians over fresh processes.

    Each probe divides its set-up time by the reference loop timed right
    after it in the same process, so a host that runs slower in one
    session than in another does not show as a slower set-up.
    """
    argv = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), workload, str(seed)]
    probes = [_probe(argv)[1] for _ in range(PROBE_REPEATS)]
    norm = statistics.median(setup / ref for setup, ref in probes) * REF_NOMINAL_S
    return norm, statistics.median(setup for setup, _ in probes)


def interpreter_seconds() -> tuple[float, float]:
    """Median wall time of ``python -c pass``, and of ``import leavitt`` inside a fresh process."""
    bare = statistics.median(_probe([sys.executable, "-c", "pass"])[0] for _ in range(PROBE_REPEATS))
    code = "import time; t = time.perf_counter(); import leavitt; print(time.perf_counter() - t)"
    imp = statistics.median(_probe([sys.executable, "-c", code])[1][0] for _ in range(PROBE_REPEATS))
    return bare, imp


def commit() -> str:
    """HEAD of the checkout when it is a git work tree, else 'not a git checkout'."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "not a git checkout"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        path = ROOT / ".git" / ref[5:]
        return path.read_text().strip() if path.is_file() else ref[5:]
    return ref


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "leavitt").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "src_sha256": source_digest(),
    }


def _kinds(run) -> dict:
    return dict(sorted(Counter(s.kind for s in run.samples).items()))


def run_untraced(measure, trace, workloads, args) -> tuple[dict, dict]:
    state = workloads.setup(args.workload, args.seed, ROOT, OUT)
    trace.assert_untraced()
    run = measure.run_tasks(state, seconds=args.seconds)
    trace.assert_untraced()
    # cli runs its tasks in child processes, and none has run before this point.
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_mb = resource.getrusage(who).ru_maxrss / 1024
    summary = measure.summarize(run, state.TAIL_PERCENTILE)
    summary["setup_s"], summary["setup_raw_s"] = setup_seconds(args.workload, args.seed)
    summary["peak_rss_mb"] = peak_mb
    metrics = {name: {"value": summary[name], "unit": unit} for name, unit in END_TO_END}
    detail = {
        "summary": summary,
        "attempted": summary["tasks"],
        "failed": summary["failed"],
        "fail_frac": summary["failed"] / summary["tasks"],
        "kinds": _kinds(run),
        "failures": [(s.kind, s.failure) for s in run.failures][:50],
    }
    return metrics, detail


def run_traced(measure, trace, workloads, args) -> tuple[dict, dict]:
    state = workloads.setup(args.workload, args.seed, ROOT, OUT, in_process=True)
    base = measure.run_tasks(state, rounds=state.TRACE_ROUNDS)
    n = len(base.samples)
    state = workloads.setup(args.workload, args.seed, ROOT, OUT, in_process=True)
    tracer = trace.Tracer()
    tracer.install()
    try:
        traced = measure.run_tasks(state, rounds=state.TRACE_ROUNDS, tracer=tracer, reference=False)
    finally:
        tracer.uninstall()
    trace.assert_untraced()
    spans_file = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    n_spans = tracer.write_spans(spans_file)
    values = tracer.layer_values()
    values["cli.interpreter_s"], values["cli.import_s"] = interpreter_seconds()
    values["ref_loop_s"] = statistics.median(r[1] for r in base.ref)
    values["trace.untraced_s"] = base.task_seconds
    values["trace.traced_s"] = traced.task_seconds
    values["trace.overhead_s"] = traced.task_seconds - base.task_seconds
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in trace.PER_LAYER}
    self_sum = sum(values[f"{layer}.self_s"] for layer in trace.LAYERS)
    detail = {
        "tasks": n,
        "rounds": base.rounds,
        "attempted": 2 * n,
        "failed": len(traced.failures) + len(base.failures),
        "fail_frac": (len(traced.failures) + len(base.failures)) / (2 * n),
        "kinds": _kinds(traced),
        "failures": [(s.kind, s.failure) for s in base.failures + traced.failures][:50],
        "layer_self_sum_s": self_sum,
        "bench_self_s": tracer.bench_self_s,
        "spans_file": str(spans_file.relative_to(ROOT)),
        "spans": n_spans,
        "dropped_spans": tracer.dropped_spans,
    }
    return metrics, detail


def report(args, env: dict, metrics: dict, detail: dict) -> list[str]:
    lines = [
        f"leavitt benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
        f"environment: python {env['python']}, nproc {env['nproc']}, commit {env['commit']}, src sha256 {env['src_sha256']}",
        "load: closed loop, one client, one process and thread"
        + (", each lpa command a fresh process" if args.workload == "cli" and not args.trace else "")
        + "; nothing waits on a queue or lock, so there is no waiting-time metric",
        f"tasks by kind: {json.dumps(detail['kinds'])}",
        f"fail_frac {detail['fail_frac']:.4f} ({detail['failed']} failed)",
    ]
    for kind, why in detail["failures"]:
        lines.append(f"  FAILED {kind}: {why}")
    if not args.trace:
        s = detail["summary"]
        lines.append(
            f"task_tail is p{s['tail_percentile']:g} of {s['tasks']} samples in {s['rounds']} rounds ({s['tail_beyond']} beyond"
            + ("" if s["tail_beyond"] >= 10 else ", FEWER THAN TEN")
            + "); "
            f"reference loop {s['ref_loop_s'] * 1000:.3f} ms median of {s['ref_samples']} samples"
        )
    else:
        lines.append(
            f"traced {detail['tasks']} tasks in {detail['rounds']} rounds: untraced {metrics['trace.untraced_s']['value']:.4f} s, "
            f"traced {metrics['trace.traced_s']['value']:.4f} s, overhead {metrics['trace.overhead_s']['value']:.4f} s; "
            f"layer self times sum to {detail['layer_self_sum_s']:.4f} s + benchmark {detail['bench_self_s']:.4f} s; "
            f"{detail['spans']} spans in {detail['spans_file']}"
        )
    for name, m in metrics.items():
        lines.append(f"  {name:34s} {m['value']:>16.6f} {m['unit']}")
    if not args.trace:
        for name, unit in RAW:
            lines.append(f"  {name:34s} {detail['summary'][name]:>16.6f} {unit}   (raw, not gated)")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "leavitt" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'leavitt'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import leavitt

    if not Path(leavitt.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported leavitt from {leavitt.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from perfbench import measure, trace, workloads

    OUT.mkdir(exist_ok=True)
    env = environment()
    runner = run_traced if args.trace else run_untraced
    metrics, detail = runner(measure, trace, workloads, args)
    result = {
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps({"environment": env, "detail": detail, "result": result}, indent=2, default=str))
    for line in report(args, env, metrics, detail):
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
