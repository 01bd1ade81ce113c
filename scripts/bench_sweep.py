"""Time the polynomial phases against the system's size, into
``BENCH_project_sweep.json``.

Run from anywhere:

    python3 scripts/bench_sweep.py            # into this checkout's record
    python3 scripts/bench_sweep.py OUTPUT     # into another record file

It times ``project`` and ``verify_weak(des, INFINITE)``, best of 3, and
records the verdict and the observer's size, on two families at n = 250,
500, 1,000 and 2,000 states:

- ``random``: ``random_des`` with the parameters of the tests'
  ``random_weak_instance(1, n, density=1.2)``, so one unobservable event;
- ``chain``: q -u-> q+1 on the unobservable u and q -a-> q on the
  observable a, from state 0, with the last state secret and the others
  nonsecret: state q's unobservable closure is {q, ..., n-1}.

It imports the package from the ``src`` directory of the checkout that
holds this script, and records what ``bench_record.py`` records about it:
the commit, the tree ids of ``src`` and ``benchmark``, whether they
differ from the commit, the Python version and the number of CPUs.  The
record file holds a list of runs; a run replaces an earlier one of the
same ``src`` tree, so that a copy of this script in a checkout of another
commit adds that commit's run to the same file for comparison.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bench_record import ROOT, add_run, provenance  # noqa: E402
from desopacity import INFINITE, Des, make_events, project, verify_weak  # noqa: E402
from desopacity.oracle import GeneratorParams, random_des  # noqa: E402

SIZES = (250, 500, 1000, 2000)
REPEATS = 3


def random_system(n: int) -> Des:
    return random_des(GeneratorParams(
        state_count=n, observable_event_count=2, unobservable_event_count=1,
        transition_density=1.2, secret_fraction=0.3, deterministic=False,
        rng_seed=1, allow_neutral=True, neutral_fraction=0.3,
    ))


def chain_system(n: int) -> Des:
    return Des(
        state_count=n,
        events=make_events(["a"], ["u"]),
        transitions=frozenset({(q, 1, q + 1) for q in range(n - 1)} | {(q, 0, q) for q in range(n)}),
        initial=frozenset({0}),
        secret=frozenset({n - 1}),
        nonsecret=frozenset(range(n - 1)),
    )


def _best_ms(call) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return round(best * 1e3, 3)


def _row(des: Des) -> dict:
    verdict = verify_weak(des, INFINITE)
    return {
        "n": des.state_count,
        "transitions": len(des.transitions),
        "project_ms": _best_ms(lambda: project(des)),
        "verify_weak_ms": _best_ms(lambda: verify_weak(des, INFINITE)),
        "opaque": verdict.opaque,
        "observer_states": verdict.stats.observer_states,
    }


def run() -> dict:
    families = {
        family: [_row(build(n)) for n in SIZES]
        for family, build in (("random", random_system), ("chain", chain_system))
    }
    return {**provenance(), "families": families}


def main(argv) -> int:
    output = Path(argv[0]) if argv else ROOT / "BENCH_project_sweep.json"
    add_run(output, {"command": "scripts/bench_sweep.py", "sizes": list(SIZES), "best_of": REPEATS}, run())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
