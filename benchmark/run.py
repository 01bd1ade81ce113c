"""Verification benchmark for desopacity.

Run from the root of a checkout:

    python3 benchmark/run.py --workload strong_reduction --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --smoke

A run prints its metrics one per line and, as its last line, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics, ``--trace 1``
the per-layer ones.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
WORKLOAD_NAMES = ("weak_subset_blowup", "strong_reduction", "weak_random_mixed")
SETUP_REPEATS = 7
CHILD_TIMEOUT_S = 170


def _use_checkout_source() -> bool:
    """Import the program from this checkout's src/ only."""
    if not (SOURCE / "desopacity" / "__init__.py").is_file():
        print(f"error: no program source at {SOURCE / 'desopacity'}", file=sys.stderr)
        return False
    sys.path[:0] = [str(SOURCE), str(HERE)]
    return True


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one request per (workload, k), all workloads")
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    return args


def _print_metrics(metrics: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {value:>16.6g} {unit}")


def _result(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def _setup_seconds(args, workdir: Path) -> float:
    """Median time from starting a fresh interpreter to a request list ready
    to send: importing the program and writing the inputs.  Normalized to
    the machine's quiet speed, as the request times are (see harness.py)."""
    import harness

    times, references = [], []
    for i in range(SETUP_REPEATS):
        references += [harness.reference() for _ in range(5)]
        target = workdir / f"setup-{i}"
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                "--seed", str(args.seed), "--setup-only", str(target)]
        start = time.monotonic()
        done = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
        # Both ends read CLOCK_MONOTONIC, which is system-wide.
        times.append(float(done.stdout.split()[-1]) - start)
        shutil.rmtree(target)
    return statistics.median(times) * harness.REFERENCE_S / statistics.fmean(references)


def _remove(workdir: Path) -> None:
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass  # another run still uses it


def _run_workload(args) -> int:
    import harness
    from workloads import prepare

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        requests = prepare(args.workload, args.seed, workdir / "inputs")
        setup_s = None if args.trace else _setup_seconds(args, workdir)
        run = harness.measure(requests, args.seconds, bool(args.trace))
    finally:
        _remove(workdir)
    metrics = run.per_layer() if args.trace else run.end_to_end(setup_s)
    failed = len(run.failures)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} passes={len(run.passes)} "
          f"requests={run.attempted} failed={failed} failed_frac={run.failed_frac():g}")
    if not args.trace:
        above = run.samples_above(metrics["latency_p90_ms"][0])
        print(f"# latency samples={len(run.samples)} above_p90={above}")
        if above < harness.TAIL_SAMPLES:
            print(f"warning: only {above} samples above p90; run longer", file=sys.stderr)
    if run.tracer.absent:
        print(f"# absent spans: {', '.join(sorted(run.tracer.absent))}")
    for failure in run.failures[:5]:
        print(f"failed: {failure}", file=sys.stderr)
    _print_metrics(run.raw_end_to_end())
    _print_metrics(metrics)
    print(_result(failed == 0, run.attempted, failed, metrics))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    correct = True
    for workload in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S + 60)
        if done.returncode != 0:
            print(f"error: {workload} exited with {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.splitlines()[-1])
        correct &= result["correct"]
        print(f"== {workload}: attempted={result['attempted']} failed={result['failed']} "
              f"failed_frac={result['failed'] / result['attempted']:g}")
        _print_metrics({name: (m["value"], m["unit"]) for name, m in result["metrics"].items()})
    return 0 if correct else 1


def _run_smoke() -> int:
    import harness

    workdir = ROOT / ".bench_work" / f"smoke-{time.time_ns()}"
    try:
        runs = harness.smoke(workdir)
    finally:
        _remove(workdir)
    attempted = failed = 0
    for workload, run in runs.items():
        attempted += run.attempted
        failed += len(run.failures)
        self_ms = {layer: seconds * 1000 for layer, seconds in run.layer_seconds.items()}
        print(f"== {workload}: attempted={run.attempted} failed={len(run.failures)} "
              f"witnesses_validated={run.validated}")
        _print_metrics({layer: (ms, "ms") for layer, ms in self_ms.items() if ms > 0})
        for failure in run.failures:
            print(f"failed: {failure}", file=sys.stderr)
    return 0 if failed == 0 and attempted > 0 else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not _use_checkout_source():
        return 2
    if args.setup_only:
        import harness  # noqa: F401  (a real run imports the CLI too)
        from workloads import prepare

        prepare(args.workload, args.seed, Path(args.setup_only))
        print(repr(time.monotonic()))
        return 0
    if args.smoke:
        return _run_smoke()
    if args.workload == "all":
        return _run_all(args)
    return _run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
