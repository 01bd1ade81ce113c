"""Write the benchmark records, one ``BENCH_<name>.json`` each.

Run from the directory the records go in:

    python3 scripts/bench_record.py                  # all six records
    python3 scripts/bench_record.py product_curve    # some of them

It measures the checkout that holds it, so a copy in a checkout of the
parent commit adds the parent's run to the same files:

    cd <change> && python3 <parent>/scripts/bench_record.py product_curve

A record is a header, then one run per ``src`` tree; a new run replaces
the earlier run of its tree.  A run starts with what was measured: the
git tree ids of ``src`` and ``benchmark`` as they stood, untracked files
included, the commit checked out, whether those directories differed
from it, the Python version and the CPUs the process may use (what
``nproc`` prints).  ``git rev-parse <commit>:src`` prints the same tree
id on the commit that holds the measured code.

``BENCH_<workload>.json``, per workload of ``benchmark/run.py``: the JSON
summary, the last line, of ``benchmark/run.py --seed 7 --seconds 30`` at
``--trace 0`` (the end-to-end metrics), then at ``--trace 1`` (the
per-layer ones); each carries ``attempted``.  A failed run prints its
stderr, and its record is not written.  The other three time the library in
process, best of 3, on families from ``tests/conftest.py`` and ``chain``.

``BENCH_paper_curves.json``: the paper bounds the weak verifier's
exploration by n·2^n and shows that it does not depend on k.  Per
n = 10 ... 18, the state count, n·2^n and, at each k in 0, 1, 1000 and
inf, the time of ``verify_weak`` with its ``observer_states`` and
``product_states_explored``, on ``nth_letter``, the benchmark's
``nth_letter_des(n)`` (n + 1 states, 2^n estimates, no seed), and
``neutral_start``, the same system with state 0 neutral, answered at the
observer.

``BENCH_product_curve.json``: the same row where the cost is in the
product search.  Per n = 8 ... 15 on ``shadowed_nth_letter``: OPAQUE, 2^n
estimates and 2^(n-1)·(2 + min(k, n)) product states at k ≥ 1, none at
k = 0, which the observer's run answers.  Per n = 6 ... 12
on ``det_shadowed``, read as G′ = ``strong_to_weak(normalize(...))``
(2n + 6 states): strongly OPAQUE, 2^n estimates and (n + 6)·2^n product
states at k ≥ 1.

``BENCH_project_sweep.json``: per n = 250, 500, 1,000 and 2,000, the
times of ``project`` and ``verify_weak(des, INFINITE)``, the verdict and
the observer's size, on ``random``, ``random_weak_instance(1, n,
density=1.2)``, and ``chain``, q -u-> q+1 on the unobservable u and
q -a-> q on the observable a, from state 0, with the last state secret.

One run per tree does not resolve a 10% difference on a shared 2-vCPU
host, where a whole run can read 50-100% slow: a comparison takes the
median over several alternating runs of each tree.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "benchmark")]

from conftest import (  # noqa: E402
    benchmark_nth_letter, det_shadowed, neutral_start_nth_letter, random_weak_instance, shadowed_nth_letter,
)
from desopacity import INFINITE, Des, make_events, normalize, project, strong_to_weak, verify_weak  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402

SEED = 7
SECONDS = 30
KS = {"0": 0, "1": 1, "1000": 1000, "inf": INFINITE}
REPEATS = 3
# What benchmark/run.py runs: the package it builds and the harness.
MEASURED = ("src", "benchmark")


def _git(*args, env=None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True, env=env).stdout.strip()


def _trees() -> dict:
    """The tree id of each measured directory in the working tree: its
    files, untracked ones too, staged into a scratch index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        _git("add", "--all", "--", *MEASURED, env=env)
        tree = _git("write-tree", env=env)
    return {path: _git("rev-parse", f"{tree}:{path}") for path in MEASURED}


def provenance() -> dict:
    """What was measured, and on what: the fields every run starts with."""
    return {
        "trees": _trees(),
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted_changes": _git("status", "--porcelain", "--", *MEASURED) != "",
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def add_run(output: Path, header: dict, new: dict) -> None:
    """Write the record file ``output``: ``header``'s fields, then its
    runs with ``new`` in place of an earlier run of the same ``src`` tree."""
    runs = json.loads(output.read_text(encoding="utf-8"))["runs"] if output.exists() else []
    runs = [r for r in runs if r["trees"]["src"] != new["trees"]["src"]] + [new]
    output.write_text(json.dumps({**header, "runs": runs}, indent=2) + "\n", encoding="utf-8")


def end_to_end(workload: str):
    """The header and run of ``BENCH_<workload>.json``, or None if a
    benchmark run failed."""
    header = {
        "workload": workload,
        "command": f"benchmark/run.py --workload {workload} --seed {SEED} --seconds {SECONDS} --trace <0|1>",
    }
    run = {}
    for trace in (0, 1):
        command = [sys.executable, "benchmark/run.py", "--workload", workload,
                   "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            print(f"error: {' '.join(command[1:])} exited {done.returncode}", file=sys.stderr)
            return None
        run[f"trace_{trace}"] = json.loads(done.stdout.splitlines()[-1])
    return header, run


def chain(n: int) -> Des:
    return Des(
        state_count=n,
        events=make_events(["a"], ["u"]),
        transitions=frozenset({(q, 1, q + 1) for q in range(n - 1)} | {(q, 0, q) for q in range(n)}),
        initial=frozenset({0}),
        secret=frozenset({n - 1}),
        nonsecret=frozenset(range(n - 1)),
    )


def best_of(call) -> tuple:
    """The best of ``REPEATS`` times of ``call()`` in ms, and its last result."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 3), result


def curve_row(des: Des, n: int) -> dict:
    row = {"n": n, "states": des.state_count, "n_2_to_n": n * 2 ** n, "k": {}}
    for name, k in KS.items():
        ms, verdict = best_of(lambda: verify_weak(des, k))
        row["k"][name] = {
            "verify_weak_ms": ms,
            "opaque": verdict.opaque,
            "observer_states": verdict.stats.observer_states,
            "product_states_explored": verdict.stats.product_states_explored,
        }
    return row


def sweep_row(des: Des, n: int) -> dict:
    project_ms, _ = best_of(lambda: project(des))
    verify_weak_ms, verdict = best_of(lambda: verify_weak(des, INFINITE))
    return {
        "n": n,
        "transitions": len(des.transitions),
        "project_ms": project_ms,
        "verify_weak_ms": verify_weak_ms,
        "opaque": verdict.opaque,
        "observer_states": verdict.stats.observer_states,
    }


SWEEP = (250, 500, 1000, 2000)
# in-process record -> (row, family -> (sizes, builder))
RECORDS = {
    "paper_curves": (curve_row, {
        "nth_letter": (range(10, 19), benchmark_nth_letter),
        "neutral_start": (range(10, 19), neutral_start_nth_letter),
    }),
    "project_sweep": (sweep_row, {
        "random": (SWEEP, lambda n: random_weak_instance(1, n, density=1.2)), "chain": (SWEEP, chain),
    }),
    "product_curve": (curve_row, {
        "shadowed_nth_letter": (range(8, 16), shadowed_nth_letter),
        "det_shadowed": (range(6, 13), lambda n: strong_to_weak(normalize(det_shadowed(n)))),
    }),
}
NAMES = WORKLOAD_NAMES + tuple(RECORDS)


def in_process(name: str) -> tuple:
    """The header and run of the in-process record ``name``."""
    row, builders = RECORDS[name]
    header = {
        "command": f"scripts/bench_record.py {name}",
        "sizes": {family: list(sizes) for family, (sizes, _build) in builders.items()},
        "best_of": REPEATS,
    }
    families = {family: [row(build(n), n) for n in sizes] for family, (sizes, build) in builders.items()}
    return header, {"families": families}


def main(argv) -> int:
    unknown = [name for name in argv if name not in NAMES]
    if unknown:
        print(f"error: unknown record {unknown[0]!r} (choose from {', '.join(NAMES)})", file=sys.stderr)
        return 2
    measured = provenance()
    for name in argv or NAMES:
        made = in_process(name) if name in RECORDS else end_to_end(name)
        if made is None:
            return 1
        header, run = made
        add_run(Path(f"BENCH_{name}.json"), header, {**measured, **run})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
