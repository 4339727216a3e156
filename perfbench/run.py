#!/usr/bin/env python3
"""elang benchmark: checked query workloads, end to end and layer by layer.

    python3 perfbench/run.py --workload golden|walk_engine|walk_sat|all \\
        --seed N --seconds S --trace 0|1

Run it from the repository root; it imports ``elang`` from ``src/``.  One
run is one fresh process and one closed-loop client: each request is sent
when the previous one has been answered and checked, with no threads.
``workloads.py`` says what each workload asks and why.

A run first starts ``SETUP_PROBES`` fresh interpreters, one after
another, each timing the import of ``elang`` plus one warm-up request
(``setup_s`` is their median).  It then answers one warm-up request
itself, untimed, and runs whole passes until ``--seconds`` have gone by,
at least one.  Every answer is checked; a wrong answer, an unexpected exit
code, an exhausted budget or an exception fails the request.

Times are reported at nominal machine speed.  The host is shared, and
its speed drifts by tens of percent within seconds, for CPU time as much
as for wall time.  So a fixed reference kernel (pure Python, no
``elang``) runs before the first request and after every request, and
each request's latency is multiplied by ``REF_NOMINAL_S`` over the mean
of the two kernel times around it: the time the request would have taken
on a machine where the kernel takes ``REF_NOMINAL_S``.  Set-up probes
are scaled the same way.  The wall-clock figures are printed as well.

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` the run repeats its passes with every layer wrapped by
``tracing.py``, writes the spans to ``perfbench/out/``, and reports the
per-layer metrics, with tracing overhead taken as traced minus untraced
scaled time over the same requests.  ``--workload all`` runs the three
workloads, each in its own process, and prints one combined line.

The lines before the last give the fingerprint (runs compare only when it
matches), the tail percentile used, and a per-layer breakdown when traced.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import walks  # noqa: E402
import workloads  # noqa: E402

ROOT = workloads.ROOT
OUT = HERE / "out"
SETUP_PROBES = 7
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
CHILD_TIMEOUT_S = 170
# the reference kernel's time that defines nominal speed; about its median
# on a 2-CPU shared host at 2.1 GHz with Python 3.11
REF_NOMINAL_S = 0.020


def import_elang():
    sys.path.insert(0, str(ROOT / "src"))
    import elang
    import elang.cli  # noqa: F401  the CLI module and all it imports

    return elang


def run_request(request: workloads.Request) -> tuple[float, str | None]:
    """Latency in seconds and None, or the failure message."""
    start = time.perf_counter()
    try:
        request.run()
        error = None
    except workloads.RequestFailed as exc:
        error = str(exc)
    except Exception as exc:  # any crash is a failed request, not a failed run
        error = "%s: %s" % (type(exc).__name__, exc)
    return time.perf_counter() - start, error


def _reference_work() -> int:
    """Fixed pure-Python work of the kinds the program does: dict and set
    updates with hashing of small frozensets, then lists of ints built,
    indexed through a watch table and sorted."""
    table: dict[int, int] = {}
    seen = set()
    for i in range(20000):
        key = (i * 7919) % 1021
        table[key] = table.get(key, 0) + i
        seen.add(frozenset((key, i & 15)))
    rows = [[(i * 7919 + j * 31) % 2003 for j in range(4)] for i in range(3000)]
    watch: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        for lit in row:
            watch.setdefault(lit, []).append(i)
    total = sum(rows[i][1] for lits in watch.values() for i in lits)
    rows.sort()
    return total + len(seen) + len(table)


def reference_s() -> float:
    """Seconds the reference kernel takes now.  The collector is off while
    it runs, so the size of the program's heap does not change its time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class ScaledClock:
    """Times requests one after another, each scaled to nominal speed by
    the reference kernel runs just before and just after it."""

    def __init__(self):
        self.ref = reference_s()
        self.refs = [self.ref]

    def scale(self, seconds: float) -> float:
        """``seconds`` measured since the last kernel run, at nominal speed;
        runs the kernel again."""
        after = reference_s()
        scaled = seconds * 2 * REF_NOMINAL_S / (self.ref + after)
        self.ref = after
        self.refs.append(after)
        return scaled

    def run(self, request: workloads.Request) -> tuple[float, float, str | None]:
        """Wall and scaled latency in seconds, and None or the failure."""
        latency, error = run_request(request)
        return latency, self.scale(latency), error


def setup_probe(workload: str) -> int:
    """Body of one fresh set-up process: import elang, answer one warm-up
    request, print the seconds both took at nominal speed (building the
    request's input files is not counted)."""
    reference_s()  # the first run in a fresh process pays for its memory
    clock = ScaledClock()
    start = time.perf_counter()
    import_elang()
    import_s = time.perf_counter() - start
    work = OUT / ("probe-%s-%d" % (workload, os.getpid()))
    work.mkdir(parents=True, exist_ok=True)
    try:
        request_s, error = run_request(workloads.warmup_request(workload, work))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    wall_s = import_s + request_s
    print(json.dumps({"setup_s": clock.scale(wall_s), "wall_s": wall_s, "error": error}))
    return 0


def measure_setup(workload: str) -> tuple[float, float, list[str]]:
    """Median set-up time at nominal speed and on the wall clock, over
    ``SETUP_PROBES`` fresh processes, and the probes' failures."""
    samples, walls, errors = [], [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: %s" % proc.stderr.strip())
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(probe["setup_s"])
        walls.append(probe["wall_s"])
        if probe["error"]:
            errors.append("set-up probe: %s" % probe["error"])
    return statistics.median(samples), statistics.median(walls), errors


def tail_fraction(pass_size: int) -> float:
    """The tail percentile, as a fraction: the highest one that leaves at
    least TAIL_BEYOND of one pass's requests above it.  It depends on the
    pass, not on how many passes fit in the run, so a faster program is
    measured at the same percentile."""
    if pass_size <= TAIL_BEYOND:
        raise ValueError("a pass needs more than %d requests" % TAIL_BEYOND)
    return (pass_size - TAIL_BEYOND) / pass_size


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the ``p`` quantile: a mean of all order
    statistics weighted by a beta(p(n+1), (1-p)(n+1)) density.  On this
    benchmark's few dozen samples it is much steadier than one order
    statistic, whose value is the noise of a single request."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)

    def density(u: float) -> float:
        if not 0.0 < u < 1.0:
            return 0.0
        return math.exp((a - 1) * math.log(u) + (b - 1) * math.log(1 - u) - log_beta)

    steps = 32  # Simpson's rule on each interval [i/n, (i+1)/n]
    weights = []
    for i in range(n):
        h = 1.0 / (n * steps)
        u = [i / n + k * h for k in range(steps + 1)]
        inner = sum((4 if k % 2 else 2) * density(u[k]) for k in range(1, steps))
        weights.append((density(u[0]) + inner + density(u[-1])) * h / 3)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def time_passes(workload: str, seed: int, work: Path, seconds: float):
    """Run passes 0, 1, ... until the one that ends after ``seconds`` of
    running time.  Returns the wall and the scaled latencies of the timed
    requests, their failures, the reference kernel times, the number of
    passes, and the size and inputs of pass 0."""
    latencies, scaled, failures = [], [], []
    clock = ScaledClock()
    passes = 0
    began = time.perf_counter()
    while time.perf_counter() - began < seconds:
        p = workloads.make_pass(workload, seed, passes, work)
        if passes == 0:
            size, texts = len(p.requests), p.texts
        for request in p.requests:
            latency, nominal, error = clock.run(request)
            latencies.append(latency)
            scaled.append(nominal)
            if error is not None:
                failures.append("%s: %s" % (request.label, error))
        passes += 1
    return latencies, scaled, failures, clock.refs, passes, size, texts


def fingerprint(elang, workload: str, seed: int, digest: str) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "elang": elang.__version__,
        "workload": workload,
        "seed": seed,
        "input_digest": digest,
    }


def print_layers(tracer, traced_s: float) -> None:
    """Self time of each layer as a share of traced wall time."""
    times = tracer.layer_times()
    print("layer self time (share of traced wall %.3f s):" % traced_s)
    for name, row in sorted(times.items(), key=lambda kv: -kv[1]["self_ms"]):
        if row["calls"]:
            share = row["self_ms"] / (traced_s * 1000.0)
            print("  %-30s %7d calls %11.1f ms self %6.1f%%" % (name, row["calls"], row["self_ms"], 100 * share))


def end_to_end(workload: str, latencies, scaled, failed: int, refs, passes: int, pass_size: int, setup):
    """The end-to-end metrics at nominal speed; the wall-clock figures go
    on a line of their own."""
    n = len(latencies)
    tail = tail_fraction(pass_size)
    setup_s, setup_wall_s = setup
    print(
        "%s: %d requests in %d passes, %.2f s; latency_tail_ms is p%.1f of %d samples; error_rate %.4f"
        % (workload, n, passes, sum(latencies), 100 * tail, n, failed / n)
    )
    print(
        "wall clock: queries_per_s %.4f, latency_p50_ms %.2f, latency_tail_ms %.2f, setup_s %.4f; "
        "reference kernel median %.2f ms, nominal %.2f ms"
        % ((n - failed) / sum(latencies), quantile(latencies, 0.5) * 1000.0, quantile(latencies, tail) * 1000.0,
           setup_wall_s, statistics.median(refs) * 1000.0, REF_NOMINAL_S * 1000.0)
    )
    return {
        "queries_per_s": ((n - failed) / sum(scaled), "1/s"),
        "latency_p50_ms": (quantile(scaled, 0.5) * 1000.0, "ms"),
        "latency_tail_ms": (quantile(scaled, tail) * 1000.0, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_replay(workload: str, seed: int, work: Path, passes: int, failures: list[str]):
    """Answer the first ``passes`` passes again, with fresh sessions, with
    every layer wrapped.  Returns the tracer and the wall and the scaled
    time of the traced requests."""
    tracer = tracing.Tracer()
    tracer.install()
    traced_s = scaled_s = 0.0
    try:
        clock = ScaledClock()
        for index in range(passes):
            for request in workloads.make_pass(workload, seed, index, work).requests:
                tracer.request += 1
                latency, nominal, error = clock.run(request)
                traced_s += latency
                scaled_s += nominal
                if error is not None:
                    failures.append("traced %s: %s" % (request.label, error))
    finally:
        tracer.uninstall()
    tracer.write(OUT / ("trace-%s-s%d.jsonl" % (workload, seed)))
    return tracer, traced_s, scaled_s


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    # a hung program ends the run without a result line, inside the time a
    # run may take
    signal.alarm(CHILD_TIMEOUT_S)
    elang = import_elang()
    errors: list[str] = []
    if not trace:
        *setup, errors = measure_setup(workload)
    work = OUT / ("inputs-%s-%d" % (workload, os.getpid()))
    work.mkdir(parents=True, exist_ok=True)
    try:
        _, error = run_request(workloads.warmup_request(workload, work))
        if error is not None:
            errors.append("warm-up: %s" % error)
        latencies, scaled, failures, refs, passes, pass_size, texts = time_passes(workload, seed, work, seconds)
        if trace:
            tracer, traced_s, traced_scaled_s = traced_replay(workload, seed, work, passes, failures)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("fingerprint " + json.dumps(fingerprint(elang, workload, seed, walks.digest(texts)), sort_keys=True))
    for line in (errors + failures)[:20]:
        print("FAILED " + line)
    if trace:
        print_layers(tracer, traced_s)
        metrics = tracing.layer_metrics(tracer, len(latencies), sum(scaled), traced_scaled_s)
    else:
        metrics = end_to_end(workload, latencies, scaled, len(failures), refs, passes, pass_size, setup)
    for name, (value, unit) in metrics.items():
        print("  %-38s %14.6f %s" % (name, value, unit))
    result = {
        "correct": not errors and not failures,
        "attempted": len(latencies) * (2 if trace else 1),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "1" if trace else "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S * 2, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        part = json.loads(lines[-1])
        combined["correct"] &= part["correct"]
        combined["attempted"] += part["attempted"]
        combined["failed"] += part["failed"]
        for name, metric in part["metrics"].items():
            combined["metrics"]["%s.%s" % (workload, name)] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "elang" / "__init__.py").is_file():
        print("error: no elang sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    if args.setup_probe:
        return setup_probe(args.workload)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
