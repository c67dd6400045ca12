"""Self-test of the benchmark at small sizes.

Run from the root of the repository:

    python3 -m pytest -q perfbench/tests
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import gen, measure, oracles, trace, workloads  # noqa: E402
from perfbench import run as bench_run  # noqa: E402
from leavitt import fields as FL  # noqa: E402
from leavitt import verify as V  # noqa: E402

OUT = ROOT / ".bench_out"


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def _declared():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- output schema -------------------------------------------------------------


def test_benchmark_json_matches_the_code():
    spec = _declared()
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(bench_run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench_run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(trace.PER_LAYER)


@pytest.mark.parametrize("traced", ["0", "1"])
def test_last_line_is_the_result(traced):
    proc = _bench("--workload", "algebra", "--seed", "7", "--seconds", "0.5", "--trace", traced)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = _declared()
    declared = spec["per_layer"] if traced == "1" else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if traced == "1":
        # The traced run is a fixed number of rounds, whatever --seconds says.
        detail = json.loads((OUT / "algebra-seed7-trace1.json").read_text())["detail"]
        assert detail["rounds"] == workloads.Algebra.TRACE_ROUNDS


def test_refuses_a_directory_without_the_library():
    bare = OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- failures are counted ----------------------------------------------------------


def _one_round(name: str, seed: int = 3) -> measure.Run:
    state = workloads.setup(name, seed, ROOT, OUT)
    return measure.run_tasks(state, rounds=1)


def test_throughput_counts_the_whole_task_less_the_reference_loop():
    run = measure.Run(
        samples=[measure.Sample("a", 1.0, 0.1, None, 0.4), measure.Sample("b", 2.0, 0.3, None, 0.6)],
        rounds=1,
        ref=[(0.5, 0.01), (1.5, 0.01), (2.5, 0.01)],
    )
    summary = measure.summarize(run, 50)
    assert summary["tasks_per_s"] == pytest.approx(2 / 1.0)
    assert summary["tasks_per_norm"] == pytest.approx(2 / 100)
    assert summary["task_p50_s"] == pytest.approx(0.2)


def test_a_wrong_answer_counts_as_failed(monkeypatch):
    real = FL.enumerate_monic_irreducibles
    monkeypatch.setattr(FL, "enumerate_monic_irreducibles", lambda p, d: real(p, d)[:-1])
    run = _one_round("classify")
    summary = measure.summarize(run, 90)
    assert summary["failed"] == sum(1 for s in run.samples if s.kind == "irreducibles") > 0
    assert all("Gauss count" in s.failure for s in run.failures)


def test_a_raising_task_counts_as_failed(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(V, "verify_nvc_iso", broken)
    run = _one_round("certify")
    kinds = {s.kind for s in run.failures}
    assert kinds == {"nvc_iso"}
    assert all("injected" in s.failure for s in run.failures)


def test_a_failed_certificate_is_caught(monkeypatch):
    # Un-corrupting the negative control makes its certificate pass, which is wrong.
    real = V.verify_triv_iso
    monkeypatch.setattr(V, "verify_triv_iso", lambda *a, **k: real(*a, **{**k, "corrupt": False}))
    run = _one_round("certify")
    failed = [s.kind for s in run.failures]
    assert failed == [s.kind for s in run.samples if s.kind == "triv_iso_corrupt"] != []


def test_every_workload_passes_one_round():
    for name in ("certify", "algebra", "classify"):
        run = _one_round(name)
        assert run.failures == [], [(s.kind, s.failure) for s in run.failures]


def test_cli_commands_in_process_pass():
    state = workloads.setup("cli", 5, ROOT, OUT, in_process=True)
    run = measure.run_tasks(state, rounds=1)
    assert run.failures == [], [(s.kind, s.failure) for s in run.failures]
    assert sum(1 for s in run.samples if s.kind == "malformed") == 6


# -- oracles against brute force ------------------------------------------------------


def _small_graphs():
    rng = random.Random(11)
    fixed = [gen.rose(2), gen.complete(3), gen.lasso_chain(3), gen.cycle(3, exit_to_sink=True),
             gen.tree_into_loop(2), gen.tree_into_sink(2)]
    return fixed + [gen.random_digraph(rng, 2, 5, 0.35) for _ in range(25)]


def test_moebius_count_matches_listing_closed_paths():
    for data in _small_graphs():
        assert oracles.primitive_closed_path_counts(data, 5) == oracles.brute_primitive_closed_paths(data, 5)


def test_gauss_count_matches_sieving():
    for p, top in ((2, 6), (3, 4), (5, 3), (7, 2)):
        for d in range(1, top + 1):
            assert oracles.gauss_count(p, d) == oracles.brute_irreducibles(p, d)


def _paths_ending(data, v, max_len):
    _, edges = data
    out, frontier = 1, [v]
    for _ in range(max_len):
        frontier = [s for w in frontier for _, s, r in edges if r == w]
        out += len(frontier)
    return out


def test_path_counts_match_walking_back():
    for data in _small_graphs():
        vertices = data[0]
        up_to = oracles.paths_up_to(data, 3)
        for v in vertices:
            assert up_to[v] == _paths_ending(data, v, 3)
            finite = oracles.paths_into(data, v)
            long = _paths_ending(data, v, len(vertices) + 1)
            if finite is None:
                assert long > _paths_ending(data, v, len(vertices))
            else:
                assert finite == long


def test_generated_moduli_are_irreducible():
    rng = random.Random(2)
    for p in (2, 3, 5, 7):
        for degree in (1, 2, 3):
            coeffs = gen.modulus(rng, p, degree)
            f = FL.Poly.make(FL.PrimeField(p), coeffs)
            assert f.degree == degree and coeffs[0] != 0 and FL.is_irreducible(f)


# -- tracing ----------------------------------------------------------------------------


def test_tracer_installs_and_leaves_no_wrapper():
    trace.assert_untraced()
    tracer = trace.Tracer()
    tracer.install()
    try:
        with pytest.raises(RuntimeError):
            trace.assert_untraced()
        state = workloads.setup("certify", 4, ROOT, OUT)
        run = measure.run_tasks(state, rounds=1, tracer=tracer, reference=False)
    finally:
        tracer.uninstall()
    trace.assert_untraced()
    assert run.failures == []
    values = tracer.layer_values()
    assert values["fields.ext_mul.calls"] > 0 and values["verify.matrix_of.calls"] > 0
    self_sum = sum(values[f"{layer}.self_s"] for layer in trace.LAYERS) + tracer.bench_self_s
    assert self_sum == pytest.approx(run.task_seconds, rel=1e-6)
