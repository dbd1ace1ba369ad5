"""subseqlab benchmark: one seeded workload, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: extremal-table, query-mix, block-verify (see README.md).
Each pass of the workload runs in its own fresh process (worker.py), one
at a time; passes repeat until their timed work adds up to ``--seconds``
(and at least MIN_PASSES ran).  The program gets only the inputs the
seed generates.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s``
(median over passes of importing subseqlab and generating the pass's
inputs), ``wall_s`` (median wall time of one pass's requests),
``ops_per_s``, ``latency_p50_ms``, ``latency_p99_ms`` (over every
request of every pass) and ``peak_rss_mb`` (median per-pass peak).
Times are calibrated to a nominal machine speed (SpeedProbe in worker.py),
except in a pass where threads or processes other than the main thread
did work; such passes are reported as timed and named in a warning.
Above the result, a table and a JSON line ``{"as_timed": ...}`` give
every metric also as timed, with each pass's speed scale.
With ``--trace 1`` every pass runs twice on the same inputs, untraced
then traced, and the metrics are the per-layer ones of layers.py,
averaged over the traced passes, plus ``trace.overhead_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_PASSES = 3
# a run must end inside 180 s: no pass starts after START_LIMIT_S and a
# pass still running at DEADLINE_S is killed (the run then fails)
START_LIMIT_S = 100.0
DEADLINE_S = 170.0


def run_worker(workload: str, seed: int, index: int, trace: int, timeout: float) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        f"--workload={workload}",
        f"--seed={seed}",
        f"--index={index}",
        f"--trace={trace}",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"pass {index} of {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> list[tuple[dict, ...]]:
    """Run passes until their timed work, as timed, covers ``seconds``.

    Returns one tuple per pass index: (untraced,) or (untraced, traced).
    """
    started = time.monotonic()
    runs: list[tuple[dict, ...]] = []
    measured = 0.0
    while len(runs) < MIN_PASSES or measured < seconds:
        if time.monotonic() - started > START_LIMIT_S:
            break
        index = len(runs)
        group = tuple(
            run_worker(workload, seed, index, t, DEADLINE_S - (time.monotonic() - started))
            for t in range(trace + 1)
        )
        runs.append(group)
        measured += sum(p["as_timed"]["wall_s"] for p in group)
    return runs


def end_to_end(timings: list[dict]) -> dict[str, tuple[float, str]]:
    """End-to-end metrics from each pass's (calibrated or as-timed) timings."""
    latencies = sorted(x for p in timings for x in p["latencies_s"])
    total_wall = sum(p["wall_s"] for p in timings)
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in timings), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in timings), "s"),
        "ops_per_s": (len(latencies) / total_wall, "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_p99_ms": (
            1000 * statistics.quantiles(latencies, n=100, method="inclusive")[98],
            "ms",
        ),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in timings), "MB"),
    }


def per_layer(runs: list[tuple[dict, dict]]) -> dict[str, tuple[float, str]]:
    traced = [t["layers"] for _, t in runs]
    out = {}
    for name in layers.metric_names():
        if name == "trace.overhead_s":
            value = statistics.median(
                t["wall_s"] - (u["as_timed"]["wall_s"] - u["probe_s"]) for u, t in runs
            )
        else:
            value = sum(m[name] for m in traced) / len(traced)
        out[name] = (value, layers.unit_of(name))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "subseqlab" / "__init__.py").is_file():
        print(f"no subseqlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        runs = measure(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    passes = [p for group in runs for p in group]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(
        f"{args.workload} seed={args.seed}: {len(runs)} passes, "
        f"{attempted} requests, {failed} failed"
    )
    if args.trace:
        metrics = per_layer(runs)
        for name, (value, unit) in metrics.items():
            print(f"  {name:<52} {value:>14.6g} {unit}")
    else:
        for i, p in enumerate(passes):
            if p["scale"] is None:
                print(
                    f"warning: in pass {i} other threads or processes used "
                    f"{p['other_cpu_s']:.3f} s of CPU, so its times are as timed, not calibrated"
                )
        metrics = end_to_end(passes)
        raw = end_to_end([dict(p, **p["as_timed"]) for p in passes])
        print(f"  {'metric':<16} {'reported':>14} {'as timed':>14}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<16} {value:>14.6g} {raw[name][0]:>14.6g} {unit}")
        print(
            json.dumps(
                {
                    "as_timed": {name: value for name, (value, _) in raw.items()},
                    "scales": [p["scale"] for p in passes],
                    "probe_s": [p["probe_s"] for p in passes],
                    "other_cpu_s": [p["other_cpu_s"] for p in passes],
                }
            )
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
