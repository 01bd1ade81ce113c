import io
import json
from importlib import resources

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from desopacity import (
    INFINITE,
    Des,
    OracleBounds,
    cli,
    load_fixture,
    normalize,
    parse_des,
    reduce_to_weak,
    serialize_des,
    strong_to_weak,
    strong_violation_search,
    verify_strong,
)
from desopacity.cli import build_parser, run
from desopacity.desfile import DesFormatError

from conftest import random_det_instance, random_weak_instance

FIXTURES = ("fig1", "fig2", "fig5", "fig6", "fig8", "fig10")


def fixture_path(name):
    return str(resources.files("desopacity") / "fixtures" / f"{name}.des")


def invoke(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_parse_fig5():
    des = load_fixture("fig5")
    assert des.state_count == 4
    assert len(des.events) == 2
    assert des.initial == frozenset({0})
    with pytest.raises(KeyError):
        des.events.index("zz")


def test_roundtrip_stable():
    systems = [load_fixture(name) for name in FIXTURES]
    systems += [random_weak_instance(seed) for seed in range(5)] + [random_det_instance(seed) for seed in range(5)]
    for des in systems:
        again = parse_des(serialize_des(des))
        assert again == des
        assert json.loads(serialize_des(again)) == json.loads(serialize_des(des))


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


MALFORMED = {
    "observable-string": ("observable", lambda doc: doc["events"][0].update(observable="false")),
    "observable-int": ("observable", lambda doc: doc["events"][0].update(observable=1)),
    "secret-string": ("'secret' must be a list", lambda doc: doc.update(secret="2")),
    "secret-int": ("'secret' must be a list", lambda doc: doc.update(secret=5)),
    "nonsecret-object": ("'nonsecret' must be a list", lambda doc: doc.update(nonsecret={"1": True})),
    "transitions-int": ("'transitions' must be a list", lambda doc: doc.update(transitions=5)),
    "initial-string": ("'initial' must be a list", lambda doc: doc.update(initial="1")),
    "transition-state-list": ("unknown state", lambda doc: doc.update(transitions=[[["1"], "a", "2"]])),
    "initial-state-list": ("unknown state", lambda doc: doc.update(initial=[["1"]])),
    "transition-event-list": ("unknown event", lambda doc: doc.update(transitions=[["1", ["a"], "2"]])),
}


@pytest.mark.parametrize("message, corrupt", MALFORMED.values(), ids=MALFORMED.keys())
def test_parse_rejects_malformed_fields(message, corrupt, tmp_path):
    doc = json.loads(serialize_des(load_fixture("fig5")))
    corrupt(doc)
    with pytest.raises(DesFormatError, match=message):
        parse_des(json.dumps(doc))
    path = tmp_path / "bad.des"
    path.write_text(json.dumps(doc))
    assert invoke(["verify-weak", "--input", str(path), "--k", "1"])[0] == 2


FIG5_DOC = json.loads(serialize_des(load_fixture("fig5")))
STATE = st.sampled_from(FIG5_DOC["states"]) | st.text(max_size=2)
EVENT = st.sampled_from([e["name"] for e in FIG5_DOC["events"]]) | st.text(max_size=2)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | STATE,
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


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(doc=FIG5_VARIANTS, value=JSON_VALUES)
def test_parse_des_gives_des_or_format_error(doc, value):
    for text in (json.dumps(doc), json.dumps(value)):
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
@given(data=st.binary(max_size=64) | FIG5_VARIANTS.map(lambda doc: json.dumps(doc).encode()))
def test_cli_any_input_bytes_exit_0_1_or_2(data, tmp_path, capsys):
    path = tmp_path / "input.des"
    path.write_bytes(data)
    for command in ("verify-weak", "verify-strong"):
        code, _out = invoke([command, "--input", str(path), "--k", "1"])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (command, data)
        assert "Traceback" not in err, (command, data)


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
    assert lines[4].startswith("observer_states=")
    assert lines[5].startswith("h_states=")
    assert lines[6].startswith("product_states_explored=")
    assert lines[7].startswith("bfs_depth=")


def test_cli_verify_weak_opaque():
    code, out = invoke(["verify-weak", "--input", fixture_path("fig2"), "--k", "1"])
    assert code == 0
    assert out == "OPAQUE\n"


def test_cli_k_inf():
    code, out = invoke(["verify-weak", "--input", fixture_path("fig2"), "--k", "inf"])
    assert code == 0
    code, _ = invoke(["verify-weak", "--input", fixture_path("fig2"), "--k", "nope"])
    assert code == 2


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


def test_cli_observer_dot(tmp_path):
    dot_file = tmp_path / "obs.dot"
    code, _ = invoke(["observer", "--input", fixture_path("fig2"), "--dot", str(dot_file)])
    assert code == 0
    assert dot_file.read_text() == FIG2_OBSERVER_DOT


def test_cli_verify_weak_dot_export(tmp_path):
    out_dir = tmp_path / "dots"
    code, _ = invoke(["verify-weak", "--input", fixture_path("fig2"), "--k", "1", "--dot", str(out_dir)])
    assert code == 0
    assert (out_dir / "des.dot").read_text() == FIG2_DES_DOT
    assert (out_dir / "observer.dot").read_text() == FIG2_OBSERVER_DOT


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
    explored = [line.rsplit("=", 1)[1] for line in lines]
    assert explored[1] == explored[2]


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
    fig1 = fixture_path("fig1")
    cases = [
        ["verify-weak", "--input", str(tmp_path / "missing.des"), "--k", "1"],
        ["verify-weak", "--input", str(bad), "--k", "1"],
        ["verify-weak", "--input", str(deep), "--k", "1"],
        ["verify-weak", "--input", str(latin1), "--k", "1"],
        ["verify-strong", "--input", str(latin1), "--k", "1"],
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


def test_cli_main_exits_with_run_code(monkeypatch):
    monkeypatch.setattr("sys.argv", ["desopacity", "verify-weak", "--input", "/does/not/exist", "--k", "1"])
    with pytest.raises(SystemExit) as exc:
        cli.main()
    assert exc.value.code == 2


def test_cli_bench_rejects_zero_repeat():
    code, out = invoke(["bench", "--input", fixture_path("fig1"), "--k-list", "1", "--repeat", "0"])
    assert code == 2
    assert out == ""


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


def _expected(compute, render):
    """What the CLI should report: the library's result rendered, or exit 2
    with no output where the library rejects the input."""
    try:
        result = compute()
    except ValueError:
        return 2, ""
    return render(result)


def _strong_output(des, verdict):
    lines = ["OPAQUE" if verdict.opaque else "NOT_OPAQUE"]
    if not verdict.opaque:
        w = verdict.witness
        prime = reduce_to_weak(des)[1].des_prime  # the CLI names witness states in G'
        lines += [f"mu={''.join(w.mu)}", f"secret={prime.state_name(w.secret_state)}", f"nu={''.join(w.nu)}"]
    return int(not verdict.opaque), "\n".join(lines) + "\n"


def _oracle_output(s):
    return (0, "OPAQUE\n") if s is None else (1, f"NOT_OPAQUE\ns={''.join(s)}\n")


def test_strong_library_matches_cli_without_nonsecret(tmp_path):
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
            assert invoke(argv) == _expected(lambda: verify_strong(des, k), lambda v: _strong_output(des, v)), argv
            argv = ["oracle", "strong", "--input", str(path), "--k", str(k), "--mu-max", "8", "--nu-max", "0"]
            assert invoke(argv) == _expected(lambda: strong_violation_search(des, k, bounds), _oracle_output), argv
        for command, compute in (
            ("normalize", lambda: normalize(des)),
            ("transform", lambda: strong_to_weak(des).des_prime),
        ):
            out_file = tmp_path / f"{command}{i}.des"
            code, out = invoke([command, "--input", str(path), "--output", str(out_file)])
            got = (code, out) + ((out_file.read_text(),) if out_file.exists() else ())
            assert got == _expected(compute, lambda d: (0, "", serialize_des(d))), (command, i)
            written += code == 0
    assert written >= 50
