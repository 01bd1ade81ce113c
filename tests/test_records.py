"""The benchmark records keep one format: ``scripts/bench_record.py``
writes a header, then one run per ``src`` tree, for the end-to-end and
the in-process records alike; its rows and runs match the committed
records key for key, and ``add_run`` replaces only the run of the same
``src`` tree."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

from conftest import benchmark_nth_letter, shadowed_nth_letter

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
SCRIPT = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(SCRIPT)
SUMMARY = {"correct": True, "attempted": 1, "failed": 0, "metrics": {}}


def _committed(record):
    return json.loads((ROOT / f"BENCH_{record}.json").read_text(encoding="utf-8"))


def _written(directory):
    return {path.name: json.loads(path.read_text(encoding="utf-8")) for path in directory.iterdir()}


def _shape(value):
    """The keys of ``value`` in order, nested ones included."""
    if isinstance(value, dict):
        return [(key, _shape(item)) for key, item in value.items()]
    return None


def _stub_runs(monkeypatch, returncode, stdout="", stderr=""):
    """Make every ``subprocess.run`` return ``returncode``, ``stdout`` and ``stderr``."""
    def run(command, **kwargs):
        return subprocess.CompletedProcess(command, returncode, stdout, stderr)

    monkeypatch.setattr(subprocess, "run", run)


@pytest.fixture
def script(monkeypatch, tmp_path):
    """The record script, writing into ``tmp_path``, with git answering
    ``tree`` and each benchmark run printing a line, then ``SUMMARY``."""
    monkeypatch.setattr(SCRIPT, "_git", lambda *args, env=None: "tree")
    monkeypatch.chdir(tmp_path)
    _stub_runs(monkeypatch, 0, stdout="metric 1 ms\n" + json.dumps(SUMMARY) + "\n")
    return SCRIPT


def test_rows_match_the_latest_committed_run():
    # the latest run holds every family the script writes, with its sizes,
    # and each family's rows have the script's keys
    rows = {
        "paper_curves": SCRIPT.curve_row(benchmark_nth_letter(3), 3),
        "project_sweep": SCRIPT.sweep_row(SCRIPT.chain(5), 5),
        "product_curve": SCRIPT.curve_row(shadowed_nth_letter(3), 3),
    }
    for record, row in rows.items():
        committed, (_row, builders) = _committed(record), SCRIPT.RECORDS[record]
        families = committed["runs"][-1]["families"]
        assert committed["sizes"] == {family: list(sizes) for family, (sizes, _build) in builders.items()}
        for family, (sizes, _build) in builders.items():
            assert [r["n"] for r in families[family]] == list(sizes), (record, family)
            for committed_row in families[family]:
                assert _shape(row) == _shape(committed_row), (record, family)


def test_main_writes_only_the_record_it_is_given(script, monkeypatch, tmp_path):
    # two records in process, so a main that also writes one it was not
    # asked for writes a second file
    tiny = {
        "paper_curves": (script.curve_row, {"nth_letter": ([3], benchmark_nth_letter)}),
        "product_curve": (script.curve_row, {"shadowed_nth_letter": ([3], shadowed_nth_letter)}),
    }
    monkeypatch.setattr(script, "RECORDS", tiny)
    assert script.main(["product_curve"]) == 0
    written = _written(tmp_path)
    assert list(written) == ["BENCH_product_curve.json"]
    curve = written["BENCH_product_curve.json"]
    assert curve["command"] == "scripts/bench_record.py product_curve"
    assert _shape(curve["runs"][0]["families"]["shadowed_nth_letter"][0]) == _shape(
        _committed("product_curve")["runs"][-1]["families"]["shadowed_nth_letter"][0])


def test_an_unknown_name_exits_2_and_writes_nothing(script, tmp_path, capsys):
    assert script.main(["product_curve", "no_such_record"]) == 2
    assert "'no_such_record'" in capsys.readouterr().err
    assert _written(tmp_path) == {}


def test_a_failed_benchmark_run_prints_why_and_writes_no_record(script, monkeypatch, tmp_path, capsys):
    _stub_runs(monkeypatch, 1, stderr="Traceback: the harness broke\n")
    assert script.main(["weak_random_mixed"]) == 1
    err = capsys.readouterr().err
    assert "Traceback: the harness broke" in err
    assert "exited 1" in err
    assert _written(tmp_path) == {}


def test_end_to_end_records_keep_the_format_the_script_writes(script, tmp_path):
    assert script.main(list(script.WORKLOAD_NAMES)) == 0
    written = _written(tmp_path)
    for workload in script.WORKLOAD_NAMES:
        committed, new = _committed(workload), written[f"BENCH_{workload}.json"]
        assert list(committed) == list(new) == ["workload", "command", "runs"], workload
        assert committed["command"] == new["command"], workload
        for run in committed["runs"]:
            assert list(run) == list(new["runs"][0]), workload
            for trace in ("trace_0", "trace_1"):
                assert list(run[trace]) == ["correct", "attempted", "failed", "metrics"], (workload, trace)


def test_add_run_replaces_only_the_run_of_the_same_src_tree(tmp_path):
    in_process = {"command": "scripts/bench_record.py paper_curves", "sizes": [1], "best_of": 3}
    end_to_end = {"workload": "weak_random_mixed", "command": "benchmark/run.py"}

    def run(src, value):
        return {"trees": {"src": src, "benchmark": "b"}, "commit": "c", "families": {"f": [value]}}

    for kind, header, records in (("a", in_process, SCRIPT.RECORDS), ("b", end_to_end, SCRIPT.WORKLOAD_NAMES)):
        output = tmp_path / f"BENCH_{kind}.json"
        for new in (run("one", 1), run("two", 2), run("one", 3)):
            SCRIPT.add_run(output, header, new)
        written = json.loads(output.read_text(encoding="utf-8"))
        assert written["runs"] == [run("two", 2), run("one", 3)]
        for record in records:
            assert list(written) == list(_committed(record)), record
