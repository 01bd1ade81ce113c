"""Measure the paper's cost curves against n, into ``BENCH_paper_curves.json``.

Run from anywhere:

    python3 scripts/bench_curves.py            # into this checkout's record
    python3 scripts/bench_curves.py OUTPUT     # into another record file

The paper bounds the weak verifier's exploration by n·2^n and shows that
it does not depend on k.  This records both against the system's size on
two families from ``benchmark/workloads.py``, loaded read-only as the
tests load it, at n = 10 ... 18:

- ``nth_letter``: ``nth_letter_des(n)``, n + 1 states, whose observer has
  2^n estimates and whose state 0, universal and nonsecret, admits no
  seed;
- ``neutral_start``: the same system with state 0 neutral and states
  1 ... n-1 nonsecret, so every estimate that holds the secret state n
  seeds a product pair of its own.

Per n it records the state count, n·2^n and, at each k in 0, 1, 1000 and
inf, the best of 3 times of ``verify_weak`` with its ``observer_states``
and ``product_states_explored``.  The systems have n + 1 states, so the
curves cross the step kernel's change of table width above 16 states:
at n = 16 and 17 a step makes as many lookups at either width, at n = 18
one more.

Like ``bench_sweep.py``, it imports the package from the ``src``
directory of the checkout that holds this script, records what
``bench_record.py`` records about it, and keeps one run per ``src``
tree, so that a copy of this script in a checkout of another commit adds
that commit's run to the same file for comparison.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bench_record import ROOT, add_run, provenance  # noqa: E402
from desopacity import INFINITE, Des, verify_weak  # noqa: E402

SIZES = range(10, 19)
KS = {"0": 0, "1": 1, "1000": 1000, "inf": INFINITE}
REPEATS = 3


def _workloads():
    """The benchmark's ``workloads`` module, loaded read-only."""
    spec = importlib.util.spec_from_file_location("benchmark_workloads", ROOT / "benchmark" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads


def _at_k(des: Des, k) -> dict:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        verdict = verify_weak(des, k)
        best = min(best, time.perf_counter() - start)
    return {
        "verify_weak_ms": round(best * 1e3, 3),
        "opaque": verdict.opaque,
        "observer_states": verdict.stats.observer_states,
        "product_states_explored": verdict.stats.product_states_explored,
    }


def _row(des: Des, n: int) -> dict:
    return {
        "n": n,
        "states": des.state_count,
        "n_2_to_n": n * 2 ** n,
        "k": {name: _at_k(des, k) for name, k in KS.items()},
    }


def run() -> dict:
    nth_letter_des = _workloads().nth_letter_des
    families = {
        "nth_letter": [_row(nth_letter_des(n), n) for n in SIZES],
        "neutral_start": [
            _row(dataclasses.replace(nth_letter_des(n), nonsecret=frozenset(range(1, n))), n) for n in SIZES
        ],
    }
    return {**provenance(), "families": families}


def main(argv) -> int:
    output = Path(argv[0]) if argv else ROOT / "BENCH_paper_curves.json"
    add_run(output, {"command": "scripts/bench_curves.py", "sizes": list(SIZES), "best_of": REPEATS}, run())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
