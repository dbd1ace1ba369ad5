"""Tests of the benchmark itself: tracer arithmetic, failure counting,
seeded inputs and the metric names BENCHMARK.json promises.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


def test_self_time_subtracts_child_spans():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def inner():
        return None

    def outer():
        tracer.call("inner", inner)
        tracer.call("inner", inner)

    tracer.call("outer", outer)
    summary = tracer.summary()
    assert summary["outer"] == {"calls": 1, "busy_s": 10.0, "self_s": 5.0}
    assert summary["inner"] == {"calls": 2, "busy_s": 5.0, "self_s": 5.0}
    assert tracer.busy_within("inner", "outer") == 5.0


def test_missing_target_raises_and_wraps_nothing():
    from subseqlab import counting

    original = counting.count_occurrences
    tracer = Tracer()
    with pytest.raises(LookupError):
        tracer.install(
            "subseqlab",
            [
                Target("counting", "count_occurrences", "counting.count_occurrences"),
                Target("counting", "no_such_function", "counting.nothing"),
            ],
        )
    assert counting.count_occurrences is original


def test_layer_targets_resolve_and_record_through_module_bindings():
    from subseqlab import counting, extremal
    from subseqlab.words import word

    before = (counting._search_most_common, extremal._search_most_common)
    tracer = Tracer()
    tracer.install(layers.PACKAGE, layers.targets())
    try:
        counting.max_occurrences(word("abba"))
        extremal.extremal_value(2, 4, use_registry=False)
    finally:
        tracer.uninstall()
    assert (counting._search_most_common, extremal._search_most_common) == before
    metrics = layers.layer_metrics(tracer, traced_wall_s=1.0)
    assert metrics["counting.search.calls"] == 1 + metrics["extremal.reps_scanned"]
    assert metrics["extremal.extremal_value.calls"] == 1
    assert metrics["words.Word.count"] > 0


def _small_query_pass(seed=3, total=60):
    rng = workloads.pass_rng("query-mix", seed, 0)
    requests = workloads.query_mix_requests(rng, total=total)
    return requests, worker.run_pass(requests).results


def test_probe_time_is_measured_inside_request_times():
    def busy():
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass

    probe = worker.SpeedProbe()
    probe.start()
    try:
        started = time.perf_counter()
        timed = worker.run_pass([workloads.Request("busy", busy, bool)], probe=probe)
        elapsed = time.perf_counter() - started
    finally:
        probe.stop()
    assert len(probe.speeds) >= 5
    assert timed.wall_s == pytest.approx(elapsed, abs=0.01)
    assert timed.paused_s == pytest.approx(probe.paused_s)
    assert 0 < timed.latency_pauses_s[0] < timed.latencies_s[0] <= timed.wall_s
    assert probe.scale(started, started + elapsed) > 0


def _burn(seconds):
    end = time.thread_time() + seconds
    while time.thread_time() < end:
        pass


def _one_pass(monkeypatch, capsys, call):
    monkeypatch.setitem(
        workloads.WORKLOADS, "synthetic", lambda rng: [workloads.Request("busy", call, bool)]
    )
    assert worker.main(["--workload=synthetic", "--seed=1", "--index=0", "--trace=0"]) == 0
    return json.loads(capsys.readouterr().out.splitlines()[-1])


def test_pass_is_calibrated_only_when_the_main_thread_works_alone(monkeypatch, capsys):
    alone = _one_pass(monkeypatch, capsys, lambda: _burn(0.2) or True)
    assert alone["scale"] > 0
    assert alone["other_cpu_s"] < worker.OTHER_CPU_LIMIT_S
    assert alone["wall_s"] == pytest.approx(
        (alone["as_timed"]["wall_s"] - alone["probe_s"]) * alone["scale"]
    )

    def with_thread():
        helper = threading.Thread(target=_burn, args=(0.2,))
        helper.start()
        helper.join()
        return True

    shared = _one_pass(monkeypatch, capsys, with_thread)
    assert shared["other_cpu_s"] > worker.OTHER_CPU_LIMIT_S
    assert shared["scale"] is None
    assert shared["wall_s"] == shared["as_timed"]["wall_s"]
    assert shared["latencies_s"] == shared["as_timed"]["latencies_s"]


def test_corrupted_result_counts_as_failure():
    requests, results = _small_query_pass()
    assert worker.count_failed(requests, results) == 0
    i = next(i for i, r in enumerate(requests) if r.kind == "count_occurrences")
    results[i] += 1
    j = next(j for j, r in enumerate(requests) if r.kind == "lcs2_dp")
    length, witness = results[j]
    results[j] = (length + 1, witness)
    k = next(k for k, r in enumerate(requests) if r.kind == "max_occurrences")
    results[k] = ValueError("raised instead of answering")
    assert worker.count_failed(requests, results) == 3


def test_same_seed_same_inputs():
    def results(seed):
        requests, out = _small_query_pass(seed)
        return [(r.kind, o) for r, o in zip(requests, out)]

    assert results(3) == results(3)
    assert results(3) != results(4)


def test_references_agree_with_textbook_definitions():
    assert workloads.plain_count((0, 1), (0, 1, 0, 1)) == 3
    assert workloads.bit_lcs_length((0, 1, 2, 1), (1, 0, 1, 2)) == 3
    assert workloads.bit_lcs_length((), (1, 2)) == 0
    assert workloads.plain_lcs3_length((0, 1, 2), (0, 2, 1), (1, 0, 2)) == 2
    assert workloads.perm_lcs_length((0, 1, 2, 3), (1, 0, 3, 2)) == 2


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == layers.metric_names()
    kinds = {
        r.kind
        for name, make in workloads.WORKLOADS.items()
        for r in make(workloads.pass_rng(name, 1, 0))
    }
    assert kinds == set(layers.CLIENT_KINDS)
    fake_pass = {"setup_s": 1.0, "wall_s": 2.0, "latencies_s": [0.5, 1.5], "peak_rss_mb": 20.0}
    produced = run.end_to_end([fake_pass])
    assert [m["name"] for m in spec["end_to_end"]] == list(produced)
    assert all(m["unit"] == produced[m["name"]][1] for m in spec["end_to_end"])


def test_run_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
