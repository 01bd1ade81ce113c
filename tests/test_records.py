"""The in-process records keep one schema: ``scripts/bench_curves.py``'s rows
match the committed runs key for key, and ``add_run`` replaces only the
run of the same ``src`` tree."""

import importlib.util
import json
from pathlib import Path

from conftest import benchmark_nth_letter, shadowed_nth_letter

ROOT = Path(__file__).resolve().parents[1]


def _script():
    spec = importlib.util.spec_from_file_location("bench_curves", ROOT / "scripts" / "bench_curves.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def _committed(record):
    return json.loads((ROOT / f"BENCH_{record}.json").read_text(encoding="utf-8"))


def _shape(value):
    """The keys of ``value`` in order, nested ones included."""
    if isinstance(value, dict):
        return [(key, _shape(item)) for key, item in value.items()]
    return None


def test_rows_match_the_latest_committed_run():
    # the latest run holds every family the script writes, with its sizes,
    # and each family's rows have the script's keys
    script = _script()
    rows = {
        "paper_curves": script.curve_row(benchmark_nth_letter(3), 3),
        "project_sweep": script.sweep_row(script.chain(5), 5),
        "product_curve": script.curve_row(shadowed_nth_letter(3), 3),
    }
    for record, row in rows.items():
        committed, (_row, builders) = _committed(record), script.RECORDS[record]
        families = committed["runs"][-1]["families"]
        assert committed["sizes"] == {family: list(sizes) for family, (sizes, _build) in builders.items()}
        for family, (sizes, _build) in builders.items():
            assert [r["n"] for r in families[family]] == list(sizes), (record, family)
            for committed_row in families[family]:
                assert _shape(row) == _shape(committed_row), (record, family)


def test_add_run_replaces_only_the_run_of_the_same_src_tree(tmp_path):
    script = _script()
    header = {"command": "scripts/bench_curves.py", "sizes": [1], "best_of": 3}

    def run(src, value):
        return {"trees": {"src": src, "benchmark": "b"}, "commit": "c", "families": {"f": [value]}}

    output = tmp_path / "BENCH_record.json"
    for new in (run("one", 1), run("two", 2), run("one", 3)):
        script.add_run(output, header, new)
    written = json.loads(output.read_text(encoding="utf-8"))
    assert written["runs"] == [run("two", 2), run("one", 3)]
    for record in ("paper_curves", "project_sweep", "product_curve"):
        assert list(written) == list(_committed(record)), record
