import dataclasses

import pytest

from desopacity import INFINITE, Witness, load_fixture, verify_strong, verify_weak
from desopacity.oracle import (
    GeneratorParams,
    OracleBounds,
    random_des,
    simulate_observation,
    strong_violation_search,
    validate_weak_witness,
    weak_violation_search,
)

from conftest import exhaustive_strong_bounds, exhaustive_weak_bounds, random_weak_instance


def test_simulate_observation_chain():
    des = load_fixture("fig5")
    assert simulate_observation(des, des.initial, ["a"]) == frozenset({1, 2})
    assert simulate_observation(des, des.initial, ["a", "a"]) == frozenset({3})
    assert simulate_observation(des, des.initial, ["a", "a", "a"]) == frozenset()


def test_weak_search_fig1():
    des = load_fixture("fig1")
    found = weak_violation_search(des, 1, OracleBounds(mu_max=3, nu_max=2))
    assert found is not None
    mu, x, nu = found
    assert mu == ("a",)
    assert nu == ("b",)
    assert x == 1  # state "2"


def test_weak_search_fig2_none():
    des = load_fixture("fig2")
    assert weak_violation_search(des, 1, OracleBounds(mu_max=5, nu_max=3)) is None


def test_weak_search_no_secret():
    des = load_fixture("fig5")
    stripped = dataclasses.replace(des, secret=frozenset(), nonsecret=frozenset({0, 1, 2, 3}))
    assert weak_violation_search(stripped, INFINITE, OracleBounds(mu_max=8, nu_max=8)) is None


def test_weak_search_finds_are_sound():
    for seed in range(80):
        des = random_weak_instance(seed, n=4)
        for k in (0, 1, INFINITE):
            found = weak_violation_search(des, k, exhaustive_weak_bounds(des, k))
            if found is not None:
                mu, x, nu = found
                assert validate_weak_witness(des, k, Witness(tuple(mu), x, tuple(nu), frozenset()))
                assert not verify_weak(des, k).opaque


def test_validate_weak_witness_fig1():
    des = load_fixture("fig1")
    v = verify_weak(des, 1)
    assert validate_weak_witness(des, 1, v.witness)
    too_long = Witness(v.witness.mu, v.witness.secret_state, v.witness.nu + ("b",), v.witness.origin_estimate)
    assert not validate_weak_witness(des, 1, too_long)
    not_secret = Witness(v.witness.mu, 3, v.witness.nu, v.witness.origin_estimate)
    assert not validate_weak_witness(des, 1, not_secret)


def test_strong_search_fig5():
    des = load_fixture("fig5")
    for k in (0, 1, 2, INFINITE):
        s = strong_violation_search(des, k, OracleBounds(mu_max=10, nu_max=0))
        # the length-lex-first violation is "a": the run a itself ends in the
        # secret state, so no k hides it
        assert s == ("a",)


def test_strong_search_no_secret():
    des = load_fixture("fig5")
    cleared = dataclasses.replace(des, secret=frozenset(), nonsecret=frozenset({0, 1, 2, 3}))
    assert strong_violation_search(cleared, INFINITE, OracleBounds(mu_max=50, nu_max=0)) is None


def test_strong_search_rejects_bad_inputs():
    with pytest.raises(ValueError):
        strong_violation_search(load_fixture("fig2"), 1, OracleBounds(mu_max=5, nu_max=0))
    neutral = dataclasses.replace(load_fixture("fig5"), nonsecret=frozenset({0, 2}))
    with pytest.raises(ValueError):
        strong_violation_search(neutral, 1, OracleBounds(mu_max=5, nu_max=0))


def test_strong_search_agrees_with_verifier():
    for seed in range(60):
        params = GeneratorParams(
            state_count=4,
            observable_event_count=2,
            unobservable_event_count=1,
            transition_density=0.8,
            secret_fraction=0.3,
            deterministic=True,
            rng_seed=seed,
        )
        des = random_des(params)
        for k in (0, 1, INFINITE):
            found = strong_violation_search(des, k, exhaustive_strong_bounds(des, k))
            assert verify_strong(des, k).opaque == (found is None)


def test_random_des_reproducible():
    params = GeneratorParams(
        state_count=6,
        observable_event_count=2,
        unobservable_event_count=1,
        transition_density=1.0,
        secret_fraction=0.4,
        deterministic=False,
        rng_seed=123,
    )
    assert random_des(params) == random_des(params)


def test_random_des_deterministic_flag():
    from desopacity import is_deterministic

    for seed in range(20):
        params = GeneratorParams(
            state_count=5,
            observable_event_count=2,
            unobservable_event_count=1,
            transition_density=0.9,
            secret_fraction=0.3,
            deterministic=True,
            rng_seed=seed,
        )
        des = random_des(params)
        assert is_deterministic(des)
        assert des.secret | des.nonsecret == frozenset(range(des.state_count))


def test_random_des_counts_and_validation():
    params = GeneratorParams(
        state_count=6,
        observable_event_count=3,
        unobservable_event_count=2,
        transition_density=1.0,
        secret_fraction=0.5,
        deterministic=False,
        rng_seed=5,
    )
    des = random_des(params)
    assert des.state_count == 6
    assert len(des.events.observable_indices()) == 3
    assert len(des.events.unobservable_indices()) == 2
    assert des.initial == frozenset({0})
    with pytest.raises(ValueError):
        random_des(dataclasses.replace(params, deterministic=True, transition_density=1.5))
    with pytest.raises(ValueError):
        random_des(dataclasses.replace(params, state_count=0))
    for bad in (
        {"transition_density": float("nan")},
        {"transition_density": -0.5},
        {"observable_event_count": -1},  # with 2 unobservable events the total stays positive
        {"unobservable_event_count": -1},
    ):
        with pytest.raises(ValueError):
            random_des(dataclasses.replace(params, **bad))


def test_oracle_bounds_validation():
    with pytest.raises(ValueError):
        OracleBounds(mu_max=-1, nu_max=0)
