"""Write the committed benchmark records, one ``BENCH_<workload>.json`` each.

Run from the root of a checkout:

    python3 scripts/bench_record.py                      # all three workloads
    python3 scripts/bench_record.py weak_subset_blowup   # one of them

For each workload it runs ``benchmark/run.py --seed 7 --seconds 30`` once
with ``--trace 0`` (the end-to-end metrics) and once with ``--trace 1``
(the per-layer ones), one after the other, and keeps each run's last
line, its JSON summary, which carries ``attempted``.  The record also
holds the Python version, the number of CPUs the process may use (what
``nproc`` prints) and what was measured: the git tree ids of the ``src``
and ``benchmark`` directories as they stood, untracked files included,
the commit checked out, and whether those directories differed from it.
A record written before its change is committed names the parent commit;
its tree ids still name the code it measured, and ``git rev-parse
<commit>:src`` prints the same id on the commit that holds that code.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("weak_subset_blowup", "strong_reduction", "weak_random_mixed")
SEED = 7
SECONDS = 30
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


def _summary(workload: str, trace: int) -> dict:
    command = [sys.executable, "benchmark/run.py", "--workload", workload,
               "--seed", str(SEED), "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def provenance() -> dict:
    """What was measured, and on what: the fields every record holds."""
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


def record(workload: str) -> dict:
    return {
        "workload": workload,
        "command": f"benchmark/run.py --workload {workload} --seed {SEED} --seconds {SECONDS} --trace <0|1>",
        **provenance(),
        "trace_0": _summary(workload, 0),
        "trace_1": _summary(workload, 1),
    }


def main(argv) -> int:
    unknown = [w for w in argv if w not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}", file=sys.stderr)
        return 2
    for workload in argv or WORKLOADS:
        text = json.dumps(record(workload), indent=2) + "\n"
        (ROOT / f"BENCH_{workload}.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
