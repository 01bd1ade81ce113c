"""Time the library in process, best of 3, into three records.

Run from anywhere:

    python3 scripts/bench_curves.py        # into this checkout's records
    python3 scripts/bench_curves.py DIR    # into the records in DIR

``BENCH_paper_curves.json``: the paper bounds the weak verifier's
exploration by n·2^n and shows that it does not depend on k.  Per
n = 10 ... 18 it records the state count, n·2^n and, at each k in 0, 1,
1000 and inf, the time of ``verify_weak`` with its ``observer_states``
and ``product_states_explored``, on two families: ``nth_letter``, the
benchmark's ``nth_letter_des(n)`` (n + 1 states, 2^n estimates, no seed),
and ``neutral_start``, the same system with state 0 neutral, answered at
the observer.  At n = 18 (19 states) a step of the kernel makes one
lookup more than with 8-state tables.

``BENCH_product_curve.json``: the same row on the two families whose
cost is in the product search.  Per n = 8 ... 15 on
``shadowed_nth_letter``: OPAQUE, 2^n estimates and 2^(n-1)·(2 + min(k,
n)) product states.  At n ≤ 14 (up to 16 states) the kernel has 8-state
tables, at n = 15 (17 states) 6-state ones.  Per n = 6 ... 12 on
``det_shadowed``, read as G′ = ``strong_to_weak(normalize(det_shadowed(n)))``
(2n + 6 states): strongly OPAQUE, 2^n estimates and (n + 6)·2^n product
states at k ≥ 1.

``BENCH_project_sweep.json``: per n = 250, 500, 1,000 and 2,000 it
records the times of ``project`` and ``verify_weak(des, INFINITE)``, the
verdict and the observer's size, on two families: ``random``, the tests'
``random_weak_instance(1, n, density=1.2)``, and ``chain``, q -u-> q+1 on
the unobservable u and q -a-> q on the observable a, from state 0, with
the last state secret: state q's unobservable closure is {q, ..., n-1}.

Every family but ``chain`` comes from ``tests/conftest.py``.  The script
imports the package from the ``src`` directory of the checkout that
holds it, records what ``bench_record.py`` records about it, and keeps
one run per ``src`` tree, so that a copy of it in a checkout of another
commit adds that commit's run to the same files.  One run per tree does
not resolve a 10% difference on a shared 2-vCPU host, where a whole run
can read 50-100% slow: a comparison takes the median over several
alternating runs of each tree (eight pairs for the kernel's table width).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE.parent / "tests"), str(HERE)]

from bench_record import ROOT, add_run, provenance  # noqa: E402
from conftest import (  # noqa: E402
    benchmark_nth_letter, det_shadowed, neutral_start_nth_letter, random_weak_instance, shadowed_nth_letter,
)
from desopacity import INFINITE, Des, make_events, normalize, project, strong_to_weak, verify_weak  # noqa: E402

KS = {"0": 0, "1": 1, "1000": 1000, "inf": INFINITE}
REPEATS = 3


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
# record -> (row, family -> (sizes, builder))
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


def main(argv) -> int:
    directory, measured = Path(argv[0]) if argv else ROOT, provenance()
    for record, (row, builders) in RECORDS.items():
        families = {family: [row(build(n), n) for n in sizes] for family, (sizes, build) in builders.items()}
        header = {
            "command": "scripts/bench_curves.py",
            "sizes": {family: list(sizes) for family, (sizes, _build) in builders.items()},
            "best_of": REPEATS,
        }
        add_run(directory / f"BENCH_{record}.json", header, {**measured, "families": families})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
