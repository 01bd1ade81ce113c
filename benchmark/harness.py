"""Measurement loop and metrics of the verification benchmark.

One client in a closed loop: each request is one in-process call of
``desopacity.cli.run``, and the next is sent when it returns.  A pass is
one sweep of the workload's fixed request list.  Passes repeat while the
next one fits in the run's seconds.  Every response is checked outside
the timed region.

Times are normalized to the machine's quiet speed.  On a shared host the
speed of the same code drifts by up to about 40% over seconds to minutes,
and the drift hits all interpreter-bound code much alike.  So a fixed
reference computation in this file runs between requests, and each
request's time is scaled by ``REFERENCE_S`` over the mean time of the two
reference runs around it.  The raw times are printed beside them.
"""

from __future__ import annotations

import contextlib
import gc
import io
import resource
import statistics
import time

import desopacity.cli
from checks import Checker
from tracing import ROOT_LAYER, WRAPPED, Tracer
from workloads import WORKLOADS, prepare

# Mean time of reference() on a quiet 2.1 GHz Xeon vCPU (CPython 3.11).
REFERENCE_S = 0.0018
LAYERS = (ROOT_LAYER,) + tuple(layer for _m, _a, layer in WRAPPED)
STATS_COUNTS = {
    "automata.observer_states": "observer_states",
    "weak.product_states": "product_states_explored",
    "weak.h_states": "h_states",
    "weak.bfs_depth": "bfs_depth",
}
SPAN_COUNTS = ("weak.seeds", "strong.states_added")
TAIL_SAMPLES = 10  # samples a reported percentile must leave above it


def reference() -> float:
    """Seconds taken by a fixed piece of set and dict work, like the verifier's.

    The collector is off, so the program's heap does not change the time.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        seen = {}
        x = frozenset(range(8))
        for i in range(1200):
            x = frozenset((v * 7 + i) % 64 for v in x)
            seen[x] = seen.get(x, 0) + 1
        return time.perf_counter() - start
    finally:
        gc.enable()


class Run:
    """The samples, checks and spans of one benchmark run."""

    def __init__(self):
        self.checker = Checker()
        self.tracer = Tracer()
        self.passes = []  # (traced, [seconds per request], [normalized seconds])
        self.samples = []  # (request, seconds, normalized seconds) of untraced passes
        self.layer_seconds = dict.fromkeys(LAYERS, 0.0)  # normalized, traced passes
        self.stats = []  # (--stats fields, states of the verified system)
        self.attempted = 0
        self.failures = []
        self.validated = 0

    def serve(self, request, traced: bool) -> float:
        """Send one request, then check its response; returns its latency."""
        out = io.StringIO()
        argv = list(request.argv)
        code = error = None
        start = time.perf_counter()
        try:
            if traced:
                code = self.tracer.call(self.attempted, desopacity.cli.run, argv, out=out)
            else:
                code = desopacity.cli.run(argv, out=out)
        except Exception as exc:  # a crash is a failed request, not a failed benchmark
            error = exc
        elapsed = time.perf_counter() - start
        self.attempted += 1
        outcome = self.checker.check(request, code, out.getvalue(), error)
        if outcome.failure is not None:
            self.failures.append(f"{request.argv[0]} {request.path} k={request.k}: {outcome.failure}")
        self.validated += outcome.validated
        self.stats.append((outcome.stats, outcome.target_states))
        return elapsed

    def sweep(self, requests, traced: bool) -> None:
        first_span = len(self.tracer.spans)
        references, latencies = [reference()], []
        with self.tracer.installed() if traced else contextlib.nullcontext():
            for request in requests:
                latencies.append(self.serve(request, traced))
                references.append(reference())
        normalized = [2 * REFERENCE_S * s / (a + b) for s, a, b in zip(latencies, references, references[1:])]
        self.passes.append((traced, latencies, normalized))
        if traced:
            factor = REFERENCE_S / statistics.fmean(references)
            for layer, seconds in self.tracer.self_seconds(first_span).items():
                if layer in self.layer_seconds:
                    self.layer_seconds[layer] += seconds * factor
        else:
            self.samples += zip(requests, latencies, normalized)

    def throughput(self, traced: bool, normalized: bool = True) -> float:
        """Median over passes of requests per second of verifier time."""
        return statistics.median(len(p) / sum(n if normalized else p) for t, p, n in self.passes if t == traced)

    def latency_ms(self, percentile: int, normalized: bool = True) -> float:
        """Percentile over the request list of each request's median time.

        Every pass sends each request once, so a request's median over the
        passes shrugs off a slow stretch of the machine.
        """
        times = {}
        for request, seconds, norm in self.samples:
            times.setdefault(request, []).append(norm if normalized else seconds)
        medians = [statistics.median(v) for v in times.values()]
        return statistics.quantiles(medians, n=100, method="inclusive")[percentile - 1] * 1000

    def end_to_end(self, setup_s: float) -> dict:
        return {
            "throughput_ips": (self.throughput(False), "1/s"),
            "latency_p50_ms": (self.latency_ms(50), "ms"),
            "latency_p90_ms": (self.latency_ms(90), "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "setup_s": (setup_s, "s"),
        }

    def raw_end_to_end(self) -> dict:
        """The timing metrics without speed normalization."""
        return {
            "raw.throughput_ips": (self.throughput(False, normalized=False), "1/s"),
            "raw.latency_p50_ms": (self.latency_ms(50, normalized=False), "ms"),
            "raw.latency_p90_ms": (self.latency_ms(90, normalized=False), "ms"),
            "raw.speed_factor": (statistics.median(sum(n) / sum(p) for _t, p, n in self.passes), "ratio"),
        }

    def per_layer(self) -> dict:
        traced_requests = sum(len(p) for t, p, _n in self.passes if t)
        metrics = {layer: (s * 1000 / traced_requests, "ms") for layer, s in self.layer_seconds.items()}
        for metric, field in STATS_COUNTS.items():
            metrics[metric] = (statistics.fmean(s.get(field, 0) for s, _n in self.stats), "count")
        span_counts = list(self.tracer.counts.values())
        for metric in SPAN_COUNTS:
            metrics[metric] = (statistics.fmean(c.get(metric, 0) for c in span_counts), "count")
        wasted = [c["weak.bfs_after_violation_frac"] for c in span_counts if "weak.bfs_after_violation_frac" in c]
        by_k = {}
        for request, _seconds, norm in self.samples:
            by_k.setdefault(request.k, []).append(norm)
        k_medians = [statistics.median(v) for v in by_k.values()]
        untraced, traced = self.throughput(False), self.throughput(True)
        metrics.update({
            "weak.bfs_after_violation_frac": (statistics.fmean(wasted) if wasted else 0.0, "frac"),
            "weak.bound_frac_max": (max(s.get("product_states_explored", 0) / (n * 2**n) for s, n in self.stats), "frac"),
            "weak.k_spread": (max(k_medians) / min(k_medians), "ratio"),
            "oracle.witnesses_validated": (self.validated, "count"),
            "failed_frac": (self.failed_frac(), "frac"),
            "trace.untraced_ips": (untraced, "1/s"),
            "trace.traced_ips": (traced, "1/s"),
            "trace.overhead_frac": (untraced / traced - 1, "frac"),
        })
        return metrics

    def failed_frac(self) -> float:
        return len(self.failures) / self.attempted

    def samples_above(self, latency_ms: float) -> int:
        return sum(norm * 1000 > latency_ms for _request, _seconds, norm in self.samples)


def measure(requests, seconds: float, trace: bool) -> Run:
    """Sweep the request list while the next pass fits in ``seconds``.

    With ``trace``, passes alternate untraced and traced, so both
    throughputs come from the same stretch of time.
    """
    run = Run()
    walls = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        run.sweep(requests, traced=trace and len(run.passes) % 2 == 1)
        walls.append(time.perf_counter() - began)
        elapsed = time.perf_counter() - start
        if len(run.passes) >= 1 + trace and elapsed + statistics.median(walls) > seconds:
            return run


def smoke(workdir) -> dict:
    """One traced request per (workload, k), on each workload's first instance."""
    runs = {}
    for workload in WORKLOADS:
        run = Run()
        run.sweep([r for r in prepare(workload, 0, workdir / workload) if r.instance == 0], traced=True)
        runs[workload] = run
    return runs
