import ast
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import types
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from desopacity import (
    INFINITE,
    Des,
    OracleBounds,
    cli,
    load_fixture,
    make_events,
    normalize,
    observer,
    parse_des,
    project,
    serialize_des,
    strong,
    strong_to_weak,
    strong_violation_search,
    verify_strong,
    verify_weak,
)
from desopacity.automata import union_rows
from desopacity.cli import build_parser, run
from desopacity.desfile import DesFormatError
from desopacity.dot import observer_to_dot

from conftest import (
    _benchmark_workloads, benchmark_nth_letter, random_det_instance, random_weak_instance, reference_observer,
)

FIXTURES = ("fig1", "fig2", "fig5", "fig6", "fig8", "fig10")


def fixture_path(name):
    return str(resources.files("desopacity") / "fixtures" / f"{name}.des")


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def invoke_captured(argv, capsys):
    """``invoke``'s exit code and output, and what the run wrote to stderr;
    it writes nothing to stdout."""
    code, out = invoke(argv)
    captured = capsys.readouterr()
    assert captured.out == "", argv
    return code, out, captured.err


def test_parse_fig5():
    des = load_fixture("fig5")
    assert des.state_count == 4
    assert len(des.events) == 2
    assert des.initial == frozenset({0})
    with pytest.raises(KeyError):
        des.events.index("zz")


# initial states 1 and 9, which this frozenset iterates as 9, 1
INITIAL_1_9 = Des(
    state_count=10,
    events=make_events(["a"]),
    transitions=frozenset({(1, 0, 9)}),
    initial=frozenset({9, 1}),
    secret=frozenset({9}),
)
INITIAL_1_9_DOC = {
    "states": [str(q) for q in range(10)],
    "initial": ["1", "9"],
    "events": [{"name": "a", "observable": True}],
    "transitions": [["1", "a", "9"]],
    "secret": ["9"],
    "nonsecret": [],
}


def test_roundtrip_stable():
    systems = [load_fixture(name) for name in FIXTURES] + [INITIAL_1_9]
    systems += [random_weak_instance(seed) for seed in range(5)] + [random_det_instance(seed) for seed in range(5)]
    for des in systems:
        again = parse_des(serialize_des(des))
        assert again == des
        assert json.loads(serialize_des(again)) == json.loads(serialize_des(des))
    # the names in index order, each set sorted, and a final line break
    assert serialize_des(INITIAL_1_9) == json.dumps(INITIAL_1_9_DOC, indent=2) + "\n"


def test_parse_diagnostics():
    base = json.loads(serialize_des(load_fixture("fig5")))

    doc = dict(base, secret=["1"], nonsecret=["1"])
    with pytest.raises(DesFormatError, match="intersect"):
        parse_des(json.dumps(doc))

    doc = dict(base, transitions=[["1", "a", "missing"]])
    with pytest.raises(DesFormatError, match="unknown state"):
        parse_des(json.dumps(doc))

    doc = dict(base, events=base["events"] + [{"name": "a", "observable": True}])
    with pytest.raises(DesFormatError, match="duplicate event"):
        parse_des(json.dumps(doc))

    doc = dict(base, initial=[])
    with pytest.raises(DesFormatError, match="initial"):
        parse_des(json.dumps(doc))

    doc = dict(base, transitions=[["1", "zz", "2"]])
    with pytest.raises(DesFormatError, match="unknown event"):
        parse_des(json.dumps(doc))

    doc = dict(base, events=base["events"] + [{"name": 7, "observable": True}])
    with pytest.raises(DesFormatError, match="event names must be strings"):
        parse_des(json.dumps(doc))

    for doc, message in (
        (dict(base, states=[], initial=[], transitions=[], secret=[], nonsecret=[]), "at least one state"),
        (dict(base, events=[], transitions=[]), "at least one event"),
        (dict(base, events=base["events"] + [{"name": "", "observable": False}]), "nonempty"),
    ):
        with pytest.raises(DesFormatError, match=message):
            parse_des(json.dumps(doc))

    with pytest.raises(DesFormatError, match="invalid JSON"):
        parse_des("[" * 200000)


def rename(doc, kind, old, new):
    """Rename state or event ``old`` to ``new`` everywhere in ``doc``."""
    if kind == "event":
        doc["events"] = [dict(e, name=new) if e["name"] == old else e for e in doc["events"]]
        doc["transitions"] = [[p, new if e == old else e, q] for p, e, q in doc["transitions"]]
        return
    for key in ("states", "initial", "secret", "nonsecret"):
        doc[key] = [new if s == old else s for s in doc[key]]
    doc["transitions"] = [[new if p == old else p, e, new if q == old else q] for p, e, q in doc["transitions"]]


MALFORMED = {
    "observable-string": ("observable", lambda doc: doc["events"][0].update(observable="false")),
    "observable-int": ("observable", lambda doc: doc["events"][0].update(observable=1)),
    "secret-string": ("'secret' must be a list", lambda doc: doc.update(secret="2")),
    "secret-int": ("'secret' must be a list", lambda doc: doc.update(secret=5)),
    "nonsecret-object": ("'nonsecret' must be a list", lambda doc: doc.update(nonsecret={"1": True})),
    "transitions-int": ("'transitions' must be a list", lambda doc: doc.update(transitions=5)),
    "initial-string": ("'initial' must be a list", lambda doc: doc.update(initial="1")),
    "states-name-list": ("'states' must be a list of name strings", lambda doc: doc.update(states=[["1"], "2", "3", "4"])),
    "transition-state-list": ("unknown state", lambda doc: doc.update(transitions=[[["1"], "a", "2"]])),
    "initial-state-list": ("unknown state", lambda doc: doc.update(initial=[["1"]])),
    "transition-event-list": ("unknown event", lambda doc: doc.update(transitions=[["1", ["a"], "2"]])),
    # fig5's secret state "2", renamed, would print a forged stats line
    "state-line-break": ("line break", lambda doc: rename(doc, "state", "2", "2\nh_states=999")),
    "event-line-break": ("line break", lambda doc: rename(doc, "event", "a", "a\r")),
}


@pytest.mark.parametrize("message, corrupt", MALFORMED.values(), ids=MALFORMED.keys())
def test_parse_rejects_malformed_fields(message, corrupt, tmp_path, capsys):
    doc = json.loads(serialize_des(load_fixture("fig5")))
    corrupt(doc)
    with pytest.raises(DesFormatError, match=message) as exc:
        parse_des(json.dumps(doc))
    path = tmp_path / "bad.des"
    path.write_text(json.dumps(doc))
    argv = ["verify-weak", "--input", str(path), "--k", "1"]
    assert invoke_captured(argv, capsys) == (2, "", f"error: {exc.value}\n")


TRIPLE = "each transition must be a [source, event, target] triple"
# fig5's transitions, each list replaced: a shape that is not a triple, or a
# name that is not a known one, and the message naming it.  Of the names in
# one triple the event is named first, then the source, then the target.
MALFORMED_TRANSITIONS = {
    "string-of-three": (["1a2"], TRIPLE),
    "object-of-three-names": ([{"1": "a", "a": "2", "2": "1"}], TRIPLE),
    "pair": ([["1", "a"]], TRIPLE),
    "quadruple": ([["1", "a", "2", "2"]], TRIPLE),
    "source-int": ([[1, "a", "2"]], "unknown state name 1 in transitions"),
    "source-true": ([[True, "a", "2"]], "unknown state name True in transitions"),
    "source-null": ([[None, "a", "2"]], "unknown state name None in transitions"),
    "source-list": ([[["1"], "a", "2"]], "unknown state name ['1'] in transitions"),
    "event-int": ([["1", 1, "2"]], "unknown event name 1 in transitions"),
    "event-true": ([["1", True, "2"]], "unknown event name True in transitions"),
    "event-null": ([["1", None, "2"]], "unknown event name None in transitions"),
    "event-list": ([["1", ["a"], "2"]], "unknown event name ['a'] in transitions"),
    "target-int": ([["1", "a", 1]], "unknown state name 1 in transitions"),
    "target-null": ([["1", "a", None]], "unknown state name None in transitions"),
    "source-and-target": ([["x", "a", "y"]], "unknown state name 'x' in transitions"),
    "every-name": ([["x", "zz", "y"]], "unknown event name 'zz' in transitions"),
    # the first malformed transition is named, whatever follows it
    "valid-then-name": ([["1", "a", "2"], ["1", "a", True], "1a2"], "unknown state name True in transitions"),
    "name-then-shape": ([["1", "zz", "2"], ["1", "a"]], "unknown event name 'zz' in transitions"),
    "valid-then-shape": ([["1", "a", "2"], ["1", "a", "2", "2"], ["1", 1, "2"]], TRIPLE),
}


@pytest.mark.parametrize("transitions, message", MALFORMED_TRANSITIONS.values(), ids=MALFORMED_TRANSITIONS.keys())
def test_parse_names_the_first_malformed_transition(transitions, message):
    doc = dict(json.loads(serialize_des(load_fixture("fig5"))), transitions=transitions)
    with pytest.raises(DesFormatError) as exc:
        parse_des(json.dumps(doc))
    assert str(exc.value) == message


FIG5_DOC = json.loads(serialize_des(load_fixture("fig5")))
# lone surrogates, which JSON escapes ("\\ud800") and UTF-8 cannot encode
SURROGATES = st.sampled_from(["\ud800", "\udc80"])
STATE = st.sampled_from(FIG5_DOC["states"]) | st.text(max_size=2) | SURROGATES
EVENT = st.sampled_from([e["name"] for e in FIG5_DOC["events"]]) | st.text(max_size=2) | SURROGATES
# Placeholders for JSON that json.dumps cannot write, each replaced in the
# document's text by ``json_text``; longer than any generated name.
HUGE_INTEGER = "<an integer of more than 4300 digits>"
DEEP_NESTING = "<lists nested deeper than the recursion limit>"
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | STATE | st.sampled_from([HUGE_INTEGER, DEEP_NESTING]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(STATE, inner, max_size=3),
    max_leaves=10,
)
# Well-shaped values per field, some extending fig5's own lists, so that a
# replaced field also reaches the model's rules (duplicate or empty names,
# an empty initial set, secret and nonsecret intersecting).
STATES = st.lists(STATE, max_size=3)
SHAPED = {
    "states": STATES | STATES.map(lambda extra: FIG5_DOC["states"] + extra),
    "events": st.lists(st.fixed_dictionaries({"name": EVENT, "observable": st.booleans()}), max_size=2).map(
        lambda extra: FIG5_DOC["events"] + extra
    ),
    "transitions": st.lists(st.tuples(STATE, EVENT, STATE).map(list), max_size=4),
    "initial": STATES,
    "secret": STATES,
    "nonsecret": STATES,
}
FIG5_VARIANTS = st.sampled_from(sorted(SHAPED)).flatmap(
    lambda key: (JSON_VALUES | SHAPED[key]).map(lambda value: dict(FIG5_DOC, **{key: value}))
)


def json_text(value):
    """``value`` as JSON, with the placeholders replaced: a 4301-digit
    integer, past ``int``'s default conversion limit, and lists nested one
    level deeper than the recursion limit at the time of the call."""
    depth = sys.getrecursionlimit() + 1
    return (
        json.dumps(value)
        .replace(json.dumps(HUGE_INTEGER), "1" * 4301)
        .replace(json.dumps(DEEP_NESTING), "[" * depth + "]" * depth)
    )


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(doc=FIG5_VARIANTS, value=JSON_VALUES)
def test_parse_des_gives_des_or_format_error(doc, value):
    for text in (json_text(doc), json_text(value)):
        try:
            assert isinstance(parse_des(text), Des)
        except DesFormatError:
            pass


@settings(
    derandomize=True,
    database=None,
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.binary(max_size=64) | FIG5_VARIANTS.map(lambda doc: json_text(doc).encode()))
def test_cli_any_input_bytes_exit_0_1_or_2(data, tmp_path, capsys):
    path = tmp_path / "input.des"
    path.write_bytes(data)
    for command in ("verify-weak", "verify-strong"):
        code, out = invoke([command, "--input", str(path), "--k", "1"])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (command, data)
        if code == 2:  # an error, never beside anything that reads as a verdict
            assert out == "", (command, data)
            assert err.count("\n") == 1 and err.startswith("error: "), (command, data, err)
        else:
            assert out.splitlines()[0] == ("OPAQUE", "NOT_OPAQUE")[code], (command, data)
            assert err == "", (command, data)


def test_parse_des_maps_a_number_too_long_to_convert_to_format_error(tmp_path, capsys):
    # json.loads raises a plain ValueError past the integer digit limit,
    # here in a key the parser never reads
    text = json.dumps(FIG5_DOC)[:-1] + ', "x": ' + "1" * 5000 + "}"
    with pytest.raises(DesFormatError, match="invalid JSON"):
        parse_des(text)
    path = tmp_path / "long.des"
    path.write_text(text)
    code, out = invoke(["verify-weak", "--input", str(path), "--k", "1"])
    assert (code, out) == (2, "")
    assert capsys.readouterr().err.startswith("error: invalid JSON")


def test_cli_rejects_a_lone_surrogate_before_any_output(tmp_path, capsys):
    # the JSON escape "\\ud800" parses as a lone surrogate, which UTF-8
    # stdout cannot encode: rejected at parse, it leaves no partial verdict
    # such as NOT_OPAQUE and mu=a before the error line
    path = tmp_path / "surrogate.des"
    path.write_text(serialize_des(load_fixture("fig1")).replace('"2"', '"\\ud800"'), encoding="utf-8")
    for command in ("verify-weak", "verify-strong"):
        code, out = invoke([command, "--input", str(path), "--k", "1", "--witness"])
        err = capsys.readouterr().err
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and err.startswith("error: ") and "UTF-8" in err


def test_cli_verify_weak_fig1():
    code, out = invoke(["verify-weak", "--input", fixture_path("fig1"), "--k", "1"])
    assert code == 1
    assert out.splitlines()[0] == "NOT_OPAQUE"


def test_cli_verify_weak_witness_and_stats():
    code, out = invoke(
        ["verify-weak", "--input", fixture_path("fig1"), "--k", "1", "--witness", "--stats"]
    )
    lines = out.splitlines()
    assert lines[0] == "NOT_OPAQUE"
    assert lines[1] == "mu=a"
    assert lines[2] == "secret=2"
    assert lines[3] == "nu=b"
    assert lines[4:] == stats_lines(verify_weak(load_fixture("fig1"), 1))


# the benchmark reads these --stats keys by name
STATS_KEYS = ["observer_states", "h_states", "product_states_explored", "bfs_depth"]


def stats_lines(verdict):
    """The --stats block for ``verdict``: each stats field, in field order."""
    stats = dataclasses.asdict(verdict.stats)
    assert list(stats) == STATS_KEYS
    return [f"{key}={value}" for key, value in stats.items()]


def test_cli_verify_strong_witness_and_stats():
    code, out = invoke(["verify-strong", "--input", fixture_path("fig5"), "--k", "1", "--witness", "--stats"])
    lines = out.splitlines()
    assert code == 1
    assert lines[0] == "NOT_OPAQUE" and len(lines) == 8
    assert [line.split("=", 1)[0] for line in lines[1:4]] == ["mu", "secret", "nu"]
    assert lines[4:] == stats_lines(verify_strong(load_fixture("fig5"), 1))


@pytest.mark.parametrize("name", ["fig5", "fig8"])  # non-normal, normal
def test_cli_verify_strong_checks_each_input_rule_once_per_gate(name, monkeypatch):
    # normalize's gate and strong_to_weak's gate each check determinism;
    # only strong_to_weak's checks normality
    calls = {"is_deterministic": 0, "is_normal": 0}
    for fn_name in calls:
        fn = getattr(strong, fn_name)

        def counted(des, fn=fn, fn_name=fn_name):
            calls[fn_name] += 1
            return fn(des)

        monkeypatch.setattr(strong, fn_name, counted)
    assert invoke(["verify-strong", "--input", fixture_path(name), "--k", "1"]) == (1, "NOT_OPAQUE\n")
    assert calls == {"is_deterministic": 2, "is_normal": 1}


def test_cli_verify_weak_opaque():
    code, out = invoke(["verify-weak", "--input", fixture_path("fig2"), "--k", "1"])
    assert code == 0
    assert out == "OPAQUE\n"


def test_cli_k_inf(capsys):
    code, out = invoke(["verify-weak", "--input", fixture_path("fig2"), "--k", "inf"])
    assert code == 0
    argv = ["verify-weak", "--input", fixture_path("fig2"), "--k", "nope"]
    message = "invalid k: 'nope' (expected a nonnegative integer or 'inf')"
    assert invoke_captured(argv, capsys) == (2, "", f"error: {message}\n")


def test_cli_verify_strong():
    code, out = invoke(["verify-strong", "--input", fixture_path("fig10"), "--k", "1"])
    assert code == 0
    assert out == "OPAQUE\n"
    code, out = invoke(["verify-strong", "--input", fixture_path("fig8"), "--k", "1"])
    assert code == 1
    assert out == "NOT_OPAQUE\n"


def test_cli_empty_secret():
    doc = json.loads(serialize_des(load_fixture("fig5")))
    doc["secret"] = []
    doc["nonsecret"] = doc["states"]
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".des", delete=False) as f:
        json.dump(doc, f)
        path = f.name
    try:
        code, out = invoke(["verify-weak", "--input", path, "--k", "0"])
        assert code == 0
        assert out == "OPAQUE\n"
    finally:
        os.unlink(path)


def test_cli_normalize_and_transform(tmp_path):
    out_file = tmp_path / "norm.des"
    code, _ = invoke(["normalize", "--input", fixture_path("fig6"), "--output", str(out_file)])
    assert code == 0
    des_n = parse_des(out_file.read_text())
    assert set(des_n.state_names) == {"1", "2", "3", "4", "5", "4'", "5'"}

    out_file2 = tmp_path / "prime.des"
    code, _ = invoke(["transform", "--input", fixture_path("fig8"), "--output", str(out_file2)])
    assert code == 0
    prime = parse_des(out_file2.read_text())
    assert prime.state_count == 14


def subprocess_env():
    """The environment with this package's source first on PYTHONPATH."""
    src = str(Path(resources.files("desopacity")).parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_file_io_does_not_use_the_locale_encoding(tmp_path):
    # under -X warn_default_encoding, an open() that falls back on the
    # locale's encoding warns, and -W error makes that warning an error
    env = subprocess_env()
    flags = [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c"]
    cli_call = "import sys; from desopacity.cli import run; sys.exit(run(sys.argv[1:]))"
    norm, prime = str(tmp_path / "norm.des"), str(tmp_path / "prime.des")
    runs = [
        (["verify-weak", "--input", fixture_path("fig1"), "--k", "1", "--dot", str(tmp_path / "dots")], 1),
        (["normalize", "--input", fixture_path("fig6"), "--output", norm], 0),
        (["transform", "--input", norm, "--output", prime], 0),
        (["observer", "--input", fixture_path("fig2"), "--dot", str(tmp_path / "obs.dot")], 0),
        (["random", "--states", "5", "--obs-events", "2", "--unobs-events", "1", "--density", "1.0",
          "--secret-frac", "0.3", "--seed", "1", "--output", str(tmp_path / "random.des")], 0),
        (["bench", "--input", fixture_path("fig2"), "--k-list", "0,1,inf"], 0),
    ]
    for argv, expected in runs:
        done = subprocess.run(flags + [cli_call] + argv, env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (expected, ""), argv
    done = subprocess.run(
        flags + ["from desopacity import load_fixture; load_fixture('fig1')"], env=env, capture_output=True, text=True
    )
    assert (done.returncode, done.stderr) == (0, "")


FIG2_OBSERVER_DOT = """\
digraph "observer" {
  rankdir=LR;
  __init [shape=point, label=""];
  s0 [shape=circle, label="{1}"];
  s1 [shape=circle, label="{2,4,5}"];
  s2 [shape=circle, label="{5}"];
  s3 [shape=circle, label="{3}"];
  __init -> s0;
  s0 -> s1 [label="a"];
  s1 -> s2 [label="a"];
  s1 -> s3 [label="b"];
  s2 -> s3 [label="b"];
}
"""

FIG2_DES_DOT = """\
digraph "G" {
  rankdir=LR;
  __init [shape=point, label=""];
  n0 [shape=circle, label="1"];
  n1 [shape=doublecircle, label="2"];
  n2 [shape=circle, label="3"];
  n3 [shape=circle, label="4"];
  n4 [shape=circle, label="5"];
  __init -> n0;
  n0 -> n1 [label="a"];
  n0 -> n3 [label="a"];
  n1 -> n2 [label="b"];
  n3 -> n4 [label="a"];
  n3 -> n4 [label="c (uo)"];
  n4 -> n2 [label="b"];
}
"""


# a state and an event named with a quote and a backslash, each escaped in its label
QUOTED_NAMES = Des(
    state_count=2,
    events=make_events(['a"\\']),
    transitions=frozenset({(0, 0, 1)}),
    initial=frozenset({0}),
    secret=frozenset({1}),
    state_names=('q"1\\', "2"),
)

QUOTED_NAMES_OBSERVER_DOT = r"""digraph "observer" {
  rankdir=LR;
  __init [shape=point, label=""];
  s0 [shape=circle, label="{q\"1\\}"];
  s1 [shape=circle, label="{2}"];
  __init -> s0;
  s0 -> s1 [label="a\"\\"];
}
"""


def test_cli_observer_dot(tmp_path):
    dot_file = tmp_path / "obs.dot"
    code, _ = invoke(["observer", "--input", fixture_path("fig2"), "--dot", str(dot_file)])
    assert code == 0
    assert dot_file.read_text() == FIG2_OBSERVER_DOT
    path = tmp_path / "quoted.des"
    path.write_text(serialize_des(QUOTED_NAMES))
    code, _ = invoke(["observer", "--input", str(path), "--dot", str(dot_file)])
    assert code == 0
    assert dot_file.read_text() == QUOTED_NAMES_OBSERVER_DOT


# no observable event: the observer is its initial estimate, with no edge
NO_OBSERVABLE_EVENT = Des(
    state_count=3,
    events=make_events([], ["u"]),
    transitions=frozenset({(0, 0, 1), (1, 0, 2)}),
    initial=frozenset({0}),
    secret=frozenset({2}),
)


# a random weak system of 20 states (above 16, so the kernel's loop steps
# it) with unobservable moves, so that project condenses their components
@pytest.mark.parametrize(
    "des",
    [load_fixture("fig2"), benchmark_nth_letter(6), random_weak_instance(3, n=20), NO_OBSERVABLE_EVENT],
    ids=["fig2", "nth_letter_6", "random_weak_20", "no_observable_event"],
)
def test_observer_dot_matches_reference_observer(des):
    # the edges are each estimate's nonempty slices of its union of packed
    # rows, in event order, numbered by a plain BFS's discovery order
    pg = project(des)
    n = pg.state_count
    index = {x: i for i, x in enumerate(reference_observer(pg))}
    lines = ['digraph "observer" {', "  rankdir=LR;", '  __init [shape=point, label=""];']
    for x, i in index.items():
        label = ",".join(des.state_name(q) for q in range(n) if x >> q & 1)
        lines.append(f'  s{i} [shape=circle, label="{{{label}}}"];')
    lines.append("  __init -> s0;")
    for x, i in index.items():
        y = union_rows(pg.packed, x)
        for j, name in enumerate(pg.event_names):
            z = y >> j * n & ((1 << n) - 1)
            if z:
                lines.append(f'  s{i} -> s{index[z]} [label="{name}"];')
    lines.append("}")
    assert observer_to_dot(des) == "\n".join(lines) + "\n"


def test_cli_verify_weak_dot_export(tmp_path):
    out_dir = tmp_path / "dots"
    code, _ = invoke(["verify-weak", "--input", fixture_path("fig2"), "--k", "1", "--dot", str(out_dir)])
    assert code == 0
    assert (out_dir / "des.dot").read_text() == FIG2_DES_DOT
    assert (out_dir / "observer.dot").read_text() == FIG2_OBSERVER_DOT


def test_cli_dot_draws_full_observer_when_verification_stops_early(tmp_path):
    # the initial estimate {0} reveals, so verification stops the observer
    # there; the DOT exports still draw all three estimates
    des = Des(
        state_count=3,
        events=make_events(["a", "b"]),
        transitions=frozenset({(0, 0, 1), (1, 1, 2), (2, 0, 0)}),
        initial=frozenset({0}),
        secret=frozenset({0}),
        nonsecret=frozenset({1, 2}),
    )
    full = len(observer(project(des)))
    assert full == 3
    path = tmp_path / "reveals.des"
    path.write_text(serialize_des(des))
    code, out = invoke(["verify-weak", "--input", str(path), "--k", "0", "--stats", "--dot", str(tmp_path / "dots")])
    assert code == 1 and "observer_states=1" in out.splitlines()
    code, _ = invoke(["observer", "--input", str(path), "--dot", str(tmp_path / "obs.dot")])
    assert code == 0
    for dot_file in (tmp_path / "dots" / "observer.dot", tmp_path / "obs.dot"):
        text = dot_file.read_text()
        assert text == observer_to_dot(des)
        assert len(re.findall(r"^  s\d+ \[", text, re.MULTILINE)) == full


def test_cli_oracle_weak():
    code, out = invoke(
        ["oracle", "weak", "--input", fixture_path("fig1"), "--k", "1", "--mu-max", "3", "--nu-max", "2"]
    )
    assert code == 1
    assert out.splitlines() == ["NOT_OPAQUE", "mu=a", "secret=2", "nu=b"]
    code, out = invoke(
        ["oracle", "weak", "--input", fixture_path("fig2"), "--k", "1", "--mu-max", "5", "--nu-max", "3"]
    )
    assert code == 0
    assert out == "OPAQUE\n"


def test_cli_oracle_strong():
    code, out = invoke(
        ["oracle", "strong", "--input", fixture_path("fig5"), "--k", "0", "--mu-max", "10", "--nu-max", "0"]
    )
    assert code == 1
    assert out.splitlines()[0] == "NOT_OPAQUE"
    assert out.splitlines()[1].startswith("s=")


def test_cli_witness_lines_parse_back_with_longer_event_names(tmp_path):
    # 0 -a-> 1 -b-> 2 (secret), 0 -ab-> 3: joined bare, the observation
    # (a, b) would print as the one-event observation (ab)
    path = tmp_path / "ab.des"
    path.write_text(json.dumps({
        "states": ["0", "1", "2", "3"],
        "initial": ["0"],
        "secret": ["2"],
        "events": [{"name": name, "observable": True} for name in ("a", "b", "ab")],
        "transitions": [["0", "a", "1"], ["1", "b", "2"], ["0", "ab", "3"]],
    }))
    witness = ["NOT_OPAQUE", 'mu=["a", "b"]', "secret=2", "nu=[]"]
    for kind in ("weak", "strong"):
        code, out = invoke([f"verify-{kind}", "--input", str(path), "--k", "0", "--witness"])
        assert (code, out.splitlines()) == (1, witness), kind
    code, out = invoke(["oracle", "weak", "--input", str(path), "--k", "0", "--mu-max", "2", "--nu-max", "0"])
    assert (code, out.splitlines()) == (1, witness)
    code, out = invoke(["oracle", "strong", "--input", str(path), "--k", "0", "--mu-max", "2", "--nu-max", "0"])
    assert (code, out.splitlines()) == (1, ["NOT_OPAQUE", 's=["a", "b"]'])
    assert json.loads(out.splitlines()[1][2:]) == ["a", "b"]


def test_cli_random_and_bench(tmp_path):
    out_file = tmp_path / "r.des"
    code, _ = invoke(
        ["random", "--states", "5", "--obs-events", "2", "--unobs-events", "1",
         "--density", "0.8", "--secret-frac", "0.3", "--seed", "7", "--output", str(out_file)]
    )
    assert code == 0
    des = parse_des(out_file.read_text())
    assert des.state_count == 5

    code, out = invoke(["bench", "--input", str(out_file), "--k-list", "1,1000,inf", "--repeat", "2"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("k=1 time=")
    assert lines[2].startswith("k=inf time=")
    # each line carries every stats field, as --stats prints them
    fields = [dict(field.split("=") for field in line.split()) for line in lines]
    assert all(list(f) == ["k", "time", *STATS_KEYS] for f in fields)
    for line, k in zip(lines, (1, 1000, INFINITE)):
        assert line.split(" ", 2)[2] == " ".join(stats_lines(verify_weak(des, k)))
    assert fields[1]["product_states_explored"] == fields[2]["product_states_explored"]


def random_argv(output, density="0.8", obs_events="2", unobs_events="1"):
    return ["random", "--states", "5", "--obs-events", obs_events, "--unobs-events", unobs_events,
            "--density", density, "--secret-frac", "0.3", "--seed", "7", "--output", str(output)]


def test_cli_error_paths(tmp_path, capsys):
    bad = tmp_path / "bad.des"
    bad.write_text("{not json")
    latin1 = tmp_path / "latin1.des"
    latin1.write_bytes(b"\xff\xfe{")
    deep = tmp_path / "deep.des"
    deep.write_text("[" * 200000)
    plain = tmp_path / "plain"
    plain.write_text("")
    # fig2 without "nonsecret" has no neutral state: only the determinism rule rejects it
    nondeterministic = tmp_path / "nondeterministic.des"
    nondeterministic.write_text(serialize_des(dataclasses.replace(load_fixture("fig2"), nonsecret=frozenset())))
    fig1 = fixture_path("fig1")
    cases = [
        ["verify-weak", "--input", str(tmp_path / "missing.des"), "--k", "1"],
        ["verify-weak", "--input", str(bad), "--k", "1"],
        ["verify-weak", "--input", str(deep), "--k", "1"],
        ["verify-weak", "--input", str(latin1), "--k", "1"],
        ["verify-strong", "--input", str(latin1), "--k", "1"],
        ["verify-strong", "--input", str(nondeterministic), "--k", "1"],
        ["observer", "--input", str(latin1), "--dot", str(tmp_path / "o.dot")],
        ["oracle", "weak", "--input", str(latin1), "--k", "1", "--mu-max", "2", "--nu-max", "1"],
        ["oracle", "weak", "--input", fig1, "--k", "1", "--mu-max", "-1", "--nu-max", "1"],
        # normalize rejects nondeterministic input
        ["normalize", "--input", fixture_path("fig2"), "--output", str(tmp_path / "x.des")],
        ["normalize", "--input", fixture_path("fig6"), "--output", str(plain / "x.des")],
        ["verify-weak", "--input", fig1, "--k", "1", "--dot", str(plain)],
        ["verify-weak", "--input", fig1, "--k", "-1"],
        ["bench", "--input", fig1, "--k-list", "1,-1"],
        ["bench", "--input", fig1, "--k-list", ","],
        # generator values that would silently give a degenerate system
        random_argv(tmp_path / "r.des", density="nan"),
        random_argv(tmp_path / "r.des", obs_events="-1", unobs_events="2"),
    ]
    for argv in cases:
        code, out = invoke(argv)
        err = capsys.readouterr().err
        assert (code, out) == (2, ""), argv
        assert len(err.splitlines()) == 1 and err.startswith("error: "), (argv, err)
        assert "Traceback" not in err, argv
    assert not (tmp_path / "r.des").exists()
    assert run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: desopacity")


@pytest.mark.parametrize("k", ["1_0", "+1", " 1", "١", ""])  # U+0661 is ARABIC-INDIC DIGIT ONE
def test_cli_k_accepts_only_ascii_digits_or_inf(k, capsys):
    # int() takes the first four, as 10, 1, 1 and 1; --k-list 0, once
    # dropped its empty k
    fig1 = fixture_path("fig1")
    for argv in (["verify-weak", "--input", fig1, "--k", k], ["bench", "--input", fig1, "--k-list", f"0,{k}"]):
        assert invoke(argv) == (2, ""), argv
        assert capsys.readouterr().err == f"error: invalid k: {k!r} (expected a nonnegative integer or 'inf')\n"


def test_cli_runs_as_a_module():
    env = subprocess_env()
    module = [sys.executable, "-m", "desopacity.cli"]
    done = subprocess.run(module + ["verify-weak", "--input", fixture_path("fig1"), "--k", "1"],
                          env=env, capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (1, "NOT_OPAQUE\n", "")
    done = subprocess.run(module, env=env, capture_output=True, text=True)
    assert done.returncode == 2 and done.stdout == "" and done.stderr.startswith("usage: desopacity")


def test_cli_main_exits_with_run_code(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["desopacity", "verify-weak", "--input", "/does/not/exist", "--k", "1"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2
    with pytest.raises(OSError) as missing:
        Path("/does/not/exist").read_text()
    assert capsys.readouterr() == ("", f"error: {missing.value}\n")


def test_cli_bench_rejects_zero_repeat(capsys):
    argv = ["bench", "--input", fixture_path("fig1"), "--k-list", "1", "--repeat", "0"]
    assert invoke_captured(argv, capsys) == (2, "", "error: --repeat must be at least 1\n")


def test_cli_bench_reports_the_fastest_repeat(monkeypatch):
    # three repeats that take 5, 1 and 3 s by a scripted clock
    clock = iter([0.0, 5.0, 10.0, 11.0, 20.0, 23.0])
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: next(clock)))
    code, out = invoke(["bench", "--input", fixture_path("fig1"), "--k-list", "1", "--repeat", "3"])
    assert (code, out.split()[:2]) == (0, ["k=1", "time=1.000000s"])


def _top_level_run(argv, out):
    """``run`` with every argument read by the top-level parser, which hands
    a command's arguments to that command's parser."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args, out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


PARSE_CASES = [
    [], ["-h"], ["--help"], ["--h"], ["nope"], ["verify"], ["--input", "x"],
    ["verify-weak"], ["verify-weak", "-h"], ["verify-strong", "--help"], ["bench", "-h"],
    ["verify-weak", "--k", "1"], ["verify-weak", "--input"], ["verify-weak", "--k", "1", "--input", "-h"],
    ["verify-weak", "--input", "{fig1}", "--k", "1", "--witness", "--stats"],
    ["verify-weak", "--inp", "{fig1}", "--k", "inf", "--wit"], ["verify-weak", "--input={fig1}", "--k=0"],
    ["verify-weak", "--input", "{fig1}", "--k", "1", "--bogus"], ["verify-weak", "--input", "{fig1}", "--k", "1", "extra"],
    ["verify-weak", "--input", "{fig1}", "--k", "1", "--", "extra"], ["verify-weak", "--", "--input", "{fig1}"],
    ["verify-strong", "--input", "{fig1}", "--k", "1", "--dot", "d"], ["verify-weak", "--input", "{fig1}", "--k", "1", "-x"],
    ["verify-weak", "--input", "{fig1}", "--k", "1", "--s"], ["verify-weak", "--input", "{fig1}", "--k", "1", "-h", "--bogus"],
    ["bench", "--input", "{fig1}", "--k-list", "1", "--repeat", "x"], ["oracle", "both", "--input", "{fig1}"],
    ["oracle", "weak", "--input", "{fig1}", "--k", "1", "--mu-max", "3", "--nu-max", "2"],
    ["oracle", "--input", "{fig1}", "--k", "1", "--mu-max", "3", "--nu-max", "2", "strong"],
    ["random", "--states", "x"], ["normalize", "--input", "{fig1}"], ["verify-weak", "verify-weak"],
    ["transform", "--input", "{fig1}"], ["transform", "-h"],
    ["normalize", "--input", "{fig1}", "--output", "o", "--bogus"],
    ["verify-weak", "--input", "{fig1}", "--witness", "--k", "1", "--witness"],
    ["verify-weak", "--input", "missing", "--k", "1", "--input", "{fig1}", "--witness"],
    ["verify-weak", "--input", "{fig1}", "--k", "-1"], ["verify-weak", "--input", "", "--k", "1"],
    ["verify-weak", "--input", "{fig1}", "--k"],
    ["random", "--states", "5", "--obs-events", "2", "--unobs-events", "1", "--density", "1.5",
     "--secret-frac", "0.3", "--seed", "7", "--output", "{tmp}/r.des"],
    ["bench", "--input", "{fig1}", "--k-list", "0,inf", "--repeat", "2"],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_run_reads_arguments_as_the_top_level_parser_does(argv, tmp_path, monkeypatch, capsys):
    # run reads a plain command line itself; exit code, output, the files
    # written, help text and usage errors stay the top-level parser's
    argv = [part.replace("{fig1}", fixture_path("fig1")).replace("{tmp}", str(tmp_path)) for part in argv]
    monkeypatch.setattr(cli, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))  # bench's times
    outcomes = []
    for runner in (_top_level_run, run):
        out = io.StringIO()
        code = runner(argv, out=out)
        captured = capsys.readouterr()
        written = sorted((path.name, path.read_text(encoding="utf-8")) for path in tmp_path.iterdir())
        outcomes.append((code, out.getvalue(), captured.out, captured.err, written))
    assert outcomes[1] == outcomes[0]


# One command line per command that argparse reads in full; the property
# below edits these into plain and other command lines.
VALID_ARGV = {
    "verify-weak": ["--input", "f", "--k", "1", "--witness", "--stats", "--dot", "d"],
    "verify-strong": ["--input", "f", "--k", "inf", "--witness", "--stats"],
    "normalize": ["--input", "f", "--output", "o"],
    "transform": ["--input", "f", "--output", "o"],
    "observer": ["--input", "f", "--dot", "d"],
    "oracle": ["weak", "--input", "f", "--k", "1", "--mu-max", "3", "--nu-max", "2"],
    "random": ["--states", "5", "--obs-events", "2", "--unobs-events", "1", "--density", "1.5",
               "--secret-frac", "0.3", "--seed", "7", "--output", "o", "--deterministic"],
    "bench": ["--input", "f", "--k-list", "0,inf", "--repeat", "2"],
}
OTHER_TOKENS = (
    "-h", "--help", "--inp", "--k=1", "--", "-", "-1", "-x", "", "x", "0", "2.5", "1_0", " 3", "inf", "weak",
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(data=st.data())
def test_read_plain_matches_the_command_parser(data):
    # whenever _read_plain answers, argparse reads the same namespace and
    # leaves nothing unread; an unedited command line with no positional
    # argument is plain
    assert set(VALID_ARGV) == set(cli._parser().commands)
    name = data.draw(st.sampled_from(sorted(VALID_ARGV)))
    command = cli._parser().commands[name]
    options = [option for action in command._actions for option in action.option_strings]
    argv = list(VALID_ARGV[name])
    edits = data.draw(st.lists(st.sampled_from(("duplicate", "drop", "swap", "insert")), max_size=4))
    for edit in edits:
        i, j = (data.draw(st.integers(0, max(len(argv) - 1, 0))) for _ in range(2))
        if edit == "insert":
            argv.insert(i, data.draw(st.sampled_from(options + list(OTHER_TOKENS))))
        elif argv and edit == "duplicate":
            argv.insert(j, argv[i])
        elif argv and edit == "drop":
            del argv[i]
        elif argv:
            argv[i], argv[j] = argv[j], argv[i]
    plain = cli._read_plain(command, argv)
    if not edits and name != "oracle":
        assert plain is not None
    if plain is not None:
        try:
            expected, unread = command.parse_known_args(argv)
        except SystemExit:
            pytest.fail(f"_read_plain read {argv!r}, which argparse rejects")
        assert unread == [] and vars(plain) == vars(expected), argv


def test_benchmark_requests_are_all_plain(tmp_path, monkeypatch):
    # every request of the three pinned pools is read without the
    # top-level parser
    workloads = _benchmark_workloads()
    calls = []
    parser = cli._parser()
    monkeypatch.setattr(parser, "parse_args", lambda *a, **kw: calls.append(a))
    requests = [r for w in workloads.WORKLOADS for r in workloads.prepare(w, 1, tmp_path / w)]
    assert len(requests) == 4 * 49
    for request in requests:
        code = run(list(request.argv), out=io.StringIO())
        assert code == ("OPAQUE", "NOT_OPAQUE").index(request.expected), request.argv
    assert calls == []


def test_cli_builds_parser_once(monkeypatch):
    calls = []

    def counting():
        calls.append(None)
        return build_parser()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counting)
    try:
        for _ in range(2):
            assert invoke(["verify-weak", "--input", fixture_path("fig2"), "--k", "1"])[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(calls) == 1


def test_cli_names_no_private_attribute():
    # the plain reader's table is built from the actions add_argument
    # returns, not from argparse's private attributes and classes
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = [
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr.startswith("_") and not node.attr.startswith("__")
    ]
    assert private == []


def _expected(compute, render):
    """What the CLI should report as (exit code, output, stderr): the
    library's result rendered with empty stderr, or exit 2 with no output
    and one ``error:`` line holding the library's message where the library
    rejects the input."""
    try:
        result = compute()
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"
    return render(result) + ("",)


def _strong_output(des, verdict):
    lines = ["OPAQUE" if verdict.opaque else "NOT_OPAQUE"]
    if not verdict.opaque:
        w = verdict.witness
        prime = strong_to_weak(normalize(des))  # the CLI names witness states in G'
        lines += [f"mu={''.join(w.mu)}", f"secret={prime.state_name(w.secret_state)}", f"nu={''.join(w.nu)}"]
    return int(not verdict.opaque), "\n".join(lines) + "\n"


def _oracle_output(des, s):
    if s is None:
        return 0, "OPAQUE\n"
    # the CLI's rule, restated: bare only when every event name is one character
    word = "".join(s) if all(len(name) == 1 for name in des.events.names) else json.dumps(list(s))
    return 1, f"NOT_OPAQUE\ns={word}\n"


def test_strong_library_matches_cli_without_nonsecret(tmp_path, capsys):
    # The strong-mode commands and the library functions apply one input rule:
    # a file without "nonsecret" reads as the complement of its secret states.
    docs = [json.loads(serialize_des(load_fixture(name))) for name in FIXTURES]
    docs += [json.loads(serialize_des(random_det_instance(seed, n=5, unobs=2))) for seed in range(60)]
    bounds = OracleBounds(mu_max=8, nu_max=0)
    written = 0
    for i, doc in enumerate(docs):
        del doc["nonsecret"]
        path = tmp_path / f"in{i}.des"
        path.write_text(json.dumps(doc))
        des = parse_des(path.read_text())
        for k in (0, 1, INFINITE):
            argv = ["verify-strong", "--input", str(path), "--k", str(k), "--witness"]
            expected = _expected(lambda: verify_strong(des, k), lambda v: _strong_output(des, v))
            assert invoke_captured(argv, capsys) == expected, argv
            argv = ["oracle", "strong", "--input", str(path), "--k", str(k), "--mu-max", "8", "--nu-max", "0"]
            expected = _expected(lambda: strong_violation_search(des, k, bounds), lambda s: _oracle_output(des, s))
            assert invoke_captured(argv, capsys) == expected, argv
        for command, compute in (
            ("normalize", lambda: normalize(des)),
            ("transform", lambda: strong_to_weak(des)),
        ):
            out_file = tmp_path / f"{command}{i}.des"
            code, out, err = invoke_captured([command, "--input", str(path), "--output", str(out_file)], capsys)
            got = (code, out) + ((out_file.read_text(),) if out_file.exists() else ()) + (err,)
            assert got == _expected(compute, lambda d: (0, "", serialize_des(d))), (command, i)
            written += code == 0
    assert written >= 50
