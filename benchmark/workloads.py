"""Instance families and request lists for the verification benchmark.

Each workload is a pinned pool of instances (``pinned.json``), each with
the verdict the verifier gave for every k in ``KS`` when the pool was
recorded.  A run's seed draws a state relabeling per instance and one
order for the request list.  Relabeling changes the input files but not
the verdicts, so the pinned verdicts check every seed, and the work per
request stays the same across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from desopacity import Des, GeneratorParams, make_events, random_des, serialize_des

PINNED = Path(__file__).resolve().parent / "pinned.json"
KS = ("0", "1", "1000", "inf")
# Workload name -> CLI command; the pool lives in pinned.json.
WORKLOADS = {
    "weak_subset_blowup": "verify-weak",
    "strong_reduction": "verify-strong",
    "weak_random_mixed": "verify-weak",
}


@dataclass(frozen=True)
class Request:
    instance: int
    k: str
    path: str
    argv: tuple
    expected: str  # "OPAQUE" or "NOT_OPAQUE"
    strong: bool


def nth_letter_des(n: int) -> Des:
    """The n-th-letter-from-the-end NFA: its observer has 2^n states."""
    events = make_events(["a", "b"])
    a, b = events.index("a"), events.index("b")
    transitions = {(0, a, 0), (0, b, 0), (0, a, 1)}
    transitions |= {(i, e, i + 1) for i in range(1, n) for e in (a, b)}
    return Des(
        state_count=n + 1,
        events=events,
        transitions=frozenset(transitions),
        initial=frozenset([0]),
        secret=frozenset([n]),
        nonsecret=frozenset([0]),
    )


def build_instance(entry: dict) -> Des:
    if entry["family"] == "nth_letter":
        return nth_letter_des(entry["n"])
    if entry["family"] == "random":
        return random_des(GeneratorParams(**entry["params"]))
    raise ValueError(f"unknown instance family {entry['family']!r}")


def relabel(des: Des, rng: random.Random) -> Des:
    """The same system with its state indices permuted."""
    perm = list(range(des.state_count))
    rng.shuffle(perm)
    return Des(
        state_count=des.state_count,
        events=des.events,
        transitions=frozenset((perm[p], e, perm[q]) for (p, e, q) in des.transitions),
        initial=frozenset(perm[q] for q in des.initial),
        secret=frozenset(perm[q] for q in des.secret),
        nonsecret=frozenset(perm[q] for q in des.nonsecret),
    )


def load_pool(workload: str) -> list:
    return json.loads(PINNED.read_text())["workloads"][workload]


def prepare(workload: str, seed: int, workdir: Path) -> list:
    """Write the workload's inputs for ``seed`` and return its request list."""
    command = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    requests = []
    for i, entry in enumerate(load_pool(workload)):
        path = workdir / f"{i}.des"
        path.write_text(serialize_des(relabel(build_instance(entry), rng)))
        for k in KS:
            argv = (command, "--input", str(path), "--k", k, "--witness", "--stats")
            requests.append(Request(i, k, str(path), argv, entry["verdicts"][k], command == "verify-strong"))
    rng.shuffle(requests)
    return requests
