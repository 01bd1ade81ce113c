"""Acceptance gate: one test and one printed pass/fail line per criterion."""

import io
import sys
from contextlib import contextmanager

from desopacity import (
    INFINITE,
    is_normal,
    load_fixture,
    normalize,
    observer,
    project,
    strong_to_weak,
    verify_strong,
    verify_weak,
)
from desopacity.cli import run
from desopacity.desfile import serialize_des
from desopacity.oracle import (
    GeneratorParams,
    random_des,
    simulate_observation,
    strong_violation_search,
    validate_weak_witness,
    weak_violation_search,
)

from conftest import (
    exhaustive_strong_bounds,
    exhaustive_weak_bounds,
    language_equivalent,
    random_det_instance,
    random_weak_instance,
)


@contextmanager
def report(label):
    # bypass pytest capture so the per-criterion line is always visible
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL", file=sys.__stdout__, flush=True)
        raise
    print(f"ACCEPTANCE {label}: PASS", file=sys.__stdout__, flush=True)


def test_criterion_1_example_verdicts():
    with report("1 shipped-example verdicts"):
        assert not verify_weak(load_fixture("fig1"), 1).opaque
        assert verify_weak(load_fixture("fig2"), 1).opaque
        fig5 = load_fixture("fig5")
        assert verify_weak(fig5, 1).opaque
        assert verify_weak(fig5, 0).opaque
        assert not verify_strong(fig5, 0).opaque
        assert not verify_strong(fig5, 1).opaque
        assert not verify_strong(load_fixture("fig8"), 1).opaque
        assert verify_strong(load_fixture("fig10"), 1).opaque


def test_criterion_2_normalization_golden():
    with report("2 normalization golden"):
        des_n = normalize(load_fixture("fig6"))
        names = set(des_n.state_names)
        assert names == {"1", "2", "3", "4", "5", "4'", "5'"}
        trans = {
            (des_n.state_name(p), des_n.events[e].name, des_n.state_name(q))
            for (p, e, q) in des_n.transitions
        }
        for t in [("2", "u", "4'"), ("3", "u", "4'"), ("4'", "u", "5'"), ("4'", "a", "5"), ("5'", "b", "5")]:
            assert t in trans


def test_criterion_3_differential_oracle_suite():
    with report("3 differential oracle suite"):
        ks = (0, 1, 2, INFINITE)
        weak_checked = 0
        for seed in range(500):
            n = 4 + seed % 2  # n in {4, 5}
            des = random_weak_instance(seed, n=n)
            k = ks[seed % 4]
            verdict = verify_weak(des, k)
            found = weak_violation_search(des, k, exhaustive_weak_bounds(des, k))
            assert verdict.opaque == (found is None)
            if not verdict.opaque:
                assert validate_weak_witness(des, k, verdict.witness)
            weak_checked += 1
        assert weak_checked >= 500

        strong_checked = 0
        for seed in range(300):
            n = 3 + seed % 2  # n in {3, 4}
            des = random_det_instance(seed, n=n, density=0.8)
            k = ks[seed % 4]
            verdict = verify_strong(des, k)
            found = strong_violation_search(des, k, exhaustive_strong_bounds(des, k))
            assert verdict.opaque == (found is None)
            strong_checked += 1
        assert strong_checked >= 300


def test_criterion_4_construction_properties():
    with report("4 construction properties"):
        from desopacity import is_deterministic

        checked = 0
        for seed in range(200):
            n = 4 + seed % 5  # n in 4..8
            des = random_det_instance(seed, n=n, obs=2, unobs=2, density=0.7)
            des_n = normalize(des)
            assert language_equivalent(des, des_n)
            assert len(observer(project(des_n))) <= 2 ** des.state_count
            assert is_deterministic(des_n)
            assert not (simulate_observation(des_n, des_n.secret, ()) - des_n.secret)
            if is_normal(des):
                prime = strong_to_weak(des).des_prime
                assert len(observer(project(prime))) == len(observer(project(des)))
            checked += 1
        assert checked >= 200


def test_criterion_5_reduction_equivalences():
    with report("5 reduction equivalences"):
        normal_seen = 0
        for seed in range(500):
            n = 4 + seed % 3  # n in 4..6
            des = random_det_instance(seed, n=n, obs=2, unobs=1, density=0.8)
            if is_normal(des):
                assert verify_strong(des, 0).opaque == verify_weak(des, 0).opaque
                normal_seen += 1
            for k in (0, 1, 2, INFINITE):
                if verify_strong(des, k).opaque:
                    assert verify_weak(des, k).opaque
        assert normal_seen >= 100


def test_criterion_6_k_independence_bench(tmp_path):
    with report("6 k-independence bench"):
        params = GeneratorParams(
            state_count=14,
            observable_event_count=2,
            unobservable_event_count=1,
            transition_density=1.1,
            secret_fraction=0.08,
            deterministic=False,
            rng_seed=23,
        )
        des = random_des(params)
        path = tmp_path / "bench.des"
        path.write_text(serialize_des(des))
        out = io.StringIO()
        code = run(["bench", "--input", str(path), "--k-list", "1,1000,1000000,inf", "--repeat", "5"], out=out)
        assert code == 0
        lines = out.getvalue().splitlines()
        assert len(lines) == 4
        times = [float(line.split("time=")[1].split("s ")[0]) for line in lines]
        explored = [int(line.rsplit("=", 1)[1]) for line in lines]
        reachable = verify_weak(des, INFINITE).stats.product_states_explored
        for k, count in zip((1, 1000, 1000000, INFINITE), explored):
            if k is INFINITE or k >= reachable:
                assert count == reachable
        assert max(times) / min(times) <= 2


def test_criterion_7_stabilization():
    with report("7 stabilization"):
        for seed in range(100):
            n = 4 + seed % 5  # n in 4..8
            des = random_weak_instance(seed, n=n)
            k = 2 ** des.state_count - 2
            assert verify_weak(des, k).opaque == verify_weak(des, INFINITE).opaque


def test_criterion_8_resource_assertion():
    with report("8 resource assertion"):
        # verify_weak asserts explored <= n*2^n internally on every call,
        # so the whole suite enforces the bound; re-check it explicitly here
        for seed in range(100):
            des = random_weak_instance(seed, n=6, density=1.5)
            n = des.state_count
            stats = verify_weak(des, INFINITE).stats
            assert stats.product_states_explored <= n * 2 ** n
        for name, k in [("fig1", 1), ("fig2", 1), ("fig5", 0)]:
            des = load_fixture(name)
            stats = verify_weak(des, k).stats
            assert stats.product_states_explored <= des.state_count * 2 ** des.state_count
