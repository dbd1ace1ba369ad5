"""One workload pass in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload NAME --seed N --index I --trace 0|1

Set-up (importing subseqlab from the checkout's ``src`` and building the
pass's requests) is timed first, then the requests run back to back in
the timed region, then every result is checked.  A request that raises
or whose result fails its check counts as failed; neither stops the
pass.  Untraced times are reported calibrated by the machine speed
SpeedProbe saw during the pass, unless threads or processes other than
the main thread did work (see ``other_cpu_s``); every time is also
reported as timed.  With ``--trace 1`` the call points in ``layers.py``
are wrapped for the timed region, the spans are written to
``.bench_out/`` and the per-layer metrics of the pass are added to the
output.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import statistics
import sys
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
PROBE_INTERVAL_S = 0.02
PROBE_STEPS = 5000
# Times are reported as they would read on a machine running the probe
# loop in NOMINAL_PROBE_S, about the median on the 2-vCPU, 2.0 GHz host
# the benchmark was written on.
NOMINAL_PROBE_S = 0.00035
# CPU time that threads or processes other than the main thread may use
# in a pass before its times are left uncalibrated
OTHER_CPU_LIMIT_S = 0.05
# a request's speed is the mean of the probe samples taken during it,
# widened by this much on each side so that short requests get several
LOCAL_PAD_S = 0.1


class SpeedProbe:
    """Samples the machine's speed while the workload runs.

    Every PROBE_INTERVAL_S a SIGALRM handler runs a fixed pure-Python
    loop in the main thread, between two bytecodes of whatever runs, and
    records when and how fast it ran.  The samples are evenly spaced in
    time and taken at the very moments the workload runs, so their mean
    over an interval is the speed the workload saw in it.  ``paused_s``
    is the total time spent in the probe, which calibrated times leave
    out.  This holds only while the main thread is the only one working:
    another thread or process would compete with the probe and keep
    working while it runs, so worker passes check ``other_cpu_s``.
    """

    def __init__(self):
        self.times: list[float] = []
        self.speeds: list[float] = []  # NOMINAL_PROBE_S / probe time
        self.paused_s = 0.0
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        acc = [0] * 16
        for i in range(PROBE_STEPS):
            acc[i & 15] += i
        elapsed = time.perf_counter() - t0
        self.times.append(t0)
        self.speeds.append(NOMINAL_PROBE_S / elapsed)
        self.paused_s += elapsed

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, t0: float, t1: float) -> float:
        """Mean speed of the samples taken in [t0, t1], or of the first
        sample after it if none was."""
        if not self.speeds:
            raise RuntimeError("the speed probe took no samples")
        lo = min(bisect_left(self.times, t0), len(self.times) - 1)
        hi = max(bisect_right(self.times, t1), lo + 1)
        return statistics.fmean(self.speeds[lo:hi])


def cpu_split() -> tuple[float, float]:
    """(main thread CPU time, CPU time of the process, all its threads
    and its waited-for children)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    total = own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime
    return time.thread_time(), total


@dataclass
class Timed:
    """One pass's timings as timed, and the probe time within them."""

    start: float
    end: float
    wall_s: float
    latencies_s: list[float]
    intervals: list[tuple[float, float]]
    results: list
    paused_s: float
    latency_pauses_s: list[float]


def run_pass(requests, tracer=None, probe=None) -> Timed:
    """Run every request once, keeping a raised exception as its result."""
    latencies, intervals, pauses, results = [], [], [], []
    clock = time.perf_counter

    def paused():
        return probe.paused_s if probe is not None else 0.0

    start, start_paused = clock(), paused()
    for req in requests:
        t0, p0 = clock(), paused()
        try:
            if tracer is None:
                result = req.call()
            else:
                result = tracer.call(f"client.{req.kind}", req.call)
        except Exception as exc:  # a failed request is counted, not fatal
            result = exc
        t1 = clock()
        latencies.append(t1 - t0)
        intervals.append((t0, t1))
        pauses.append(paused() - p0)
        results.append(result)
    end = clock()
    return Timed(
        start, end, end - start, latencies, intervals, results, paused() - start_paused, pauses
    )


def count_failed(requests, results) -> int:
    failed = 0
    for req, result in zip(requests, results):
        if isinstance(result, Exception):
            failed += 1
            continue
        try:
            ok = req.check(result)
        except Exception:  # a result the check cannot even read is wrong
            ok = False
        failed += not ok
    return failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    from workloads import WORKLOADS, pass_rng

    # the probe runs through set-up and the untraced timed region; a
    # traced pass is timed without it, so spans hold only program time
    probe = SpeedProbe()
    cpu0 = cpu_split()
    probe.start()
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import subseqlab  # noqa: F401  (timed: part of set-up)

    requests = WORKLOADS[args.workload](pass_rng(args.workload, args.seed, args.index))
    t1 = time.perf_counter()
    setup_s, setup_paused_s = t1 - t0, probe.paused_s

    tracer = None
    if args.trace:
        probe.stop()
        import layers
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(layers.PACKAGE, layers.targets())
    try:
        timed = run_pass(requests, tracer, None if args.trace else probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
        else:
            probe.stop()
    cpu1 = cpu_split()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    other_cpu_s = max(0.0, (cpu1[1] - cpu0[1]) - (cpu1[0] - cpu0[0]))

    as_timed = {"setup_s": setup_s, "wall_s": timed.wall_s, "latencies_s": timed.latencies_s}
    out = {
        **as_timed,
        "as_timed": as_timed,
        "scale": None,
        "probe_s": timed.paused_s,
        "other_cpu_s": other_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(requests),
        "failed": count_failed(requests, timed.results),
    }
    if tracer is None and other_cpu_s <= OTHER_CPU_LIMIT_S:
        scale = probe.scale(timed.start, timed.end)
        out.update(
            setup_s=(setup_s - setup_paused_s) * probe.scale(t0, t1),
            wall_s=(timed.wall_s - timed.paused_s) * scale,
            latencies_s=[
                (x - p) * probe.scale(a - LOCAL_PAD_S, b + LOCAL_PAD_S)
                for x, p, (a, b) in zip(
                    timed.latencies_s, timed.latency_pauses_s, timed.intervals
                )
            ],
            scale=scale,
        )
    if tracer is not None:
        out["layers"] = layers.layer_metrics(tracer, timed.wall_s)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}-{args.index}.jsonl")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
