"""Smoke test of the verification benchmark.

Run from the root of a checkout:

    python3 -m pytest benchmark/tests
"""

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import desopacity.cli  # noqa: E402
import harness  # noqa: E402
from run import WORKLOAD_NAMES  # noqa: E402
from tracing import WRAPPED  # noqa: E402
from workloads import WORKLOADS, load_pool  # noqa: E402


def not_opaque_requests():
    """NOT_OPAQUE verdicts among the smoke requests: instance 0 of each pool."""
    return sum(v == "NOT_OPAQUE" for w in WORKLOADS for v in load_pool(w)[0]["verdicts"].values())


def patch_verdicts(monkeypatch, corrupt):
    """Make the CLI's verifier return ``corrupt(des, verdict)`` on violations."""
    real = desopacity.cli.verify_weak

    def verify_weak(des, k):
        verdict = real(des, k)
        return verdict if verdict.opaque else corrupt(des, verdict)

    monkeypatch.setattr(desopacity.cli, "verify_weak", verify_weak)


def test_smoke_is_correct_and_traces_every_layer(tmp_path):
    runs = harness.smoke(tmp_path)
    assert tuple(runs) == tuple(WORKLOADS) == WORKLOAD_NAMES
    for run in runs.values():
        assert run.attempted == 4
        assert run.failures == []
        assert not run.tracer.absent
    assert sum(run.validated for run in runs.values()) == not_opaque_requests() > 0
    traced = {span[1] for run in runs.values() for span in run.tracer.spans}
    assert {f"{m}.{a}" for m, a, _layer in WRAPPED} <= traced


def test_wrong_verdict_counts_as_failed(tmp_path, monkeypatch):
    patch_verdicts(monkeypatch, lambda des, v: dataclasses.replace(v, opaque=True, witness=None))
    runs = harness.smoke(tmp_path)
    failures = [f for run in runs.values() for f in run.failures]
    assert len(failures) == not_opaque_requests() > 0
    assert all("pinned NOT_OPAQUE" in f for f in failures)
    assert runs["weak_random_mixed"].failed_frac() > 0


def test_corrupted_witness_counts_as_failed(tmp_path, monkeypatch):
    def corrupt(des, verdict):
        return dataclasses.replace(verdict, witness=dataclasses.replace(verdict.witness, secret_state=min(des.nonsecret)))

    patch_verdicts(monkeypatch, corrupt)
    runs = harness.smoke(tmp_path)
    failures = [f for run in runs.values() for f in run.failures]
    assert len(failures) == not_opaque_requests() > 0
    assert all("does not validate" in f for f in failures)
    assert runs["weak_random_mixed"].failed_frac() > 0


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, f"{BENCH.name}/run.py", "--workload", "weak_random_mixed", "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
