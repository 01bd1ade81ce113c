"""Rebuild pinned.json: the instance pool of each workload and its verdicts.

Run from the root of a checkout:

    python3 benchmark/record.py

Verdicts come from the verifier in ``src/`` through the CLI, on the
instances as generated (no relabeling).  Re-record only when the pool
changes; a changed verdict is a bug to explain, not data to refresh.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from desopacity import INFINITE, cli, observer, serialize_des, verify_strong  # noqa: E402
from workloads import KS, PINNED, WORKLOADS, build_instance  # noqa: E402

MIXED_POOL_SIZE = 40
MIXED_OBSERVER_STATES = (100, 2000)
# Keeps a pass of strong_reduction to a few seconds, so a run holds several.
STRONG_MAX_PRODUCT_STATES = 60_000


def subset_blowup_pool() -> list:
    return [{"family": "nth_letter", "n": n} for n in (12, 13, 14)]


def strong_reduction_pool() -> list:
    """Per n, the first three generator seeds within the product-size cap at k = inf."""
    pool = []
    for n in (60, 80):
        seed = 0
        while sum(e["params"]["state_count"] == n for e in pool) < 3:
            params = dict(
                state_count=n,
                observable_event_count=2,
                unobservable_event_count=1,
                transition_density=0.8,
                secret_fraction=0.2,
                deterministic=True,
                rng_seed=seed,
            )
            entry = {"family": "random", "params": params}
            explored = verify_strong(build_instance(entry), INFINITE).stats.product_states_explored
            if explored <= STRONG_MAX_PRODUCT_STATES:
                pool.append(entry)
            seed += 1
    return pool


def random_mixed_pool() -> list:
    """The first generator seeds whose observer size falls in the window."""
    pool = []
    seed = 0
    while len(pool) < MIXED_POOL_SIZE:
        params = dict(
            state_count=(24, 30)[seed % 2],
            observable_event_count=2 + (seed // 2) % 2,
            unobservable_event_count=0,
            transition_density=(1.1, 1.15, 1.2)[(seed // 4) % 3],
            secret_fraction=0.2,
            deterministic=False,
            rng_seed=seed,
            allow_neutral=True,
            neutral_fraction=0.2,
        )
        entry = {"family": "random", "params": params}
        low, high = MIXED_OBSERVER_STATES
        if low <= len(observer(build_instance(entry)).states) <= high:
            pool.append(entry)
        seed += 1
    return pool


def pin_verdicts(command: str, pool: list, workdir: Path) -> None:
    for i, entry in enumerate(pool):
        path = workdir / f"{i}.des"
        path.write_text(serialize_des(build_instance(entry)))
        entry["verdicts"] = {}
        for k in KS:
            out = io.StringIO()
            code = cli.run([command, "--input", str(path), "--k", k], out=out)
            verdict = out.getvalue().splitlines()[0]
            if (verdict, code) not in (("OPAQUE", 0), ("NOT_OPAQUE", 1)):
                raise SystemExit(f"instance {i}, k={k}: exit code {code} with verdict {verdict!r}")
            entry["verdicts"][k] = verdict


def main() -> None:
    pools = {
        "weak_subset_blowup": subset_blowup_pool(),
        "strong_reduction": strong_reduction_pool(),
        "weak_random_mixed": random_mixed_pool(),
    }
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-record-") as tmp:
        for name, pool in pools.items():
            pin_verdicts(WORKLOADS[name], pool, Path(tmp))
    PINNED.write_text(json.dumps({"workloads": pools}, indent=1) + "\n")


if __name__ == "__main__":
    main()
