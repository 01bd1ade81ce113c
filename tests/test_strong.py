import dataclasses

import pytest

from desopacity import (
    INFINITE,
    Des,
    is_deterministic,
    is_normal,
    load_fixture,
    make_events,
    normalize,
    observer,
    project,
    reduce_to_weak,
    strong_to_weak,
    verify_strong,
    verify_weak,
)
from desopacity.oracle import simulate_observation

from conftest import language_equivalent, random_det_instance


def _successor(des):
    """Map (state, event) -> its one target in a deterministic system."""
    return {(p, e): q for (p, e, q) in des.transitions}


def _named_transitions(des):
    return {(des.state_name(p), des.events[e].name, des.state_name(q)) for (p, e, q) in des.transitions}


def _added_event(des, prime):
    """The one event that the transformation adds to the input's alphabet."""
    (name,) = set(prime.events.names) - set(des.events.names)
    return name


def test_is_normal():
    assert not is_normal(load_fixture("fig5"))  # secret "2" -u-> nonsecret "3"
    assert not is_normal(load_fixture("fig6"))
    assert is_normal(load_fixture("fig1"))  # all events observable


def test_normalize_fig6_golden():
    des_n = normalize(load_fixture("fig6"))
    names = set(des_n.state_names)
    assert names == {"1", "2", "3", "4", "5", "4'", "5'"}  # primes 1',2',3' pruned
    trans = _named_transitions(des_n)
    for t in [("2", "u", "4'"), ("3", "u", "4'"), ("4'", "u", "5'"), ("4'", "a", "5"), ("5'", "b", "5")]:
        assert t in trans
    secret_names = {des_n.state_name(q) for q in des_n.secret}
    assert secret_names == {"2", "3", "4'", "5'"}


def test_normalize_fig5():
    des_n = normalize(load_fixture("fig5"))
    assert set(des_n.state_names) == {"1", "2", "3'", "4"}
    assert _named_transitions(des_n) == {("1", "a", "2"), ("2", "u", "3'"), ("3'", "a", "4")}
    assert {des_n.state_name(q) for q in des_n.secret} == {"2", "3'"}


def test_normalize_fixed_point_on_normal_input():
    des = load_fixture("fig8")
    des_n = normalize(des)
    assert des_n.state_count == des.state_count
    assert des_n.transitions == des.transitions
    assert des_n.state_names == des.state_names  # no primed copy survives


def test_normalize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        normalize(load_fixture("fig2"))  # nondeterministic
    neutral = dataclasses.replace(load_fixture("fig5"), nonsecret=frozenset({0, 2}))
    with pytest.raises(ValueError):
        normalize(neutral)


def test_normalize_language_preserved():
    checked = 0
    for seed in range(200):
        des = random_det_instance(seed, n=8, obs=2, unobs=2, density=0.7)
        if is_normal(des):
            continue
        assert language_equivalent(des, normalize(des))
        checked += 1
    assert checked >= 50


def test_normalize_run_agreement_up_to_priming():
    # runs of G and G_norm visit the same state, up to the primed copy,
    # and agree exactly after an observable event
    for seed in range(20):
        des = random_det_instance(seed, n=5, obs=2, unobs=2, density=0.7)
        if is_normal(des):
            continue
        des_n = normalize(des)
        adj = _successor(des)
        adj_n = _successor(des_n)
        # unreachable originals are pruned too, so recover indices from names
        unprime = {}
        for i, name in enumerate(des_n.state_names):
            unprime[i] = int(name[:-1]) if name.endswith("'") else int(name)
        q0 = next(iter(des.initial))
        q0n = next(iter(des_n.initial))
        frontier = [(q0, q0n, None)]
        for _ in range(8):
            nxt = []
            for q, qn, _last in frontier:
                for e in range(len(des.events)):
                    t = adj.get((q, e))
                    tn = adj_n.get((qn, e))
                    assert (t is None) == (tn is None)
                    if t is None:
                        continue
                    assert unprime[tn] == t
                    if des.events[e].observable:
                        # after an observable event the run is back in an original state
                        assert not des_n.state_names[tn].endswith("'")
                    nxt.append((t, tn, e))
            frontier = nxt


def test_normalize_structural_guarantees():
    for seed in range(100):
        des = random_det_instance(seed, n=6, obs=2, unobs=2, density=0.8)
        des_n = normalize(des)
        assert is_deterministic(des_n)
        assert not (simulate_observation(des_n, des_n.secret, ()) - des_n.secret)
        assert len(observer(project(des_n))) <= 2 ** des.state_count


def test_strong_to_weak_fig8():
    des = load_fixture("fig8")
    result = strong_to_weak(des)
    prime = result.des_prime
    assert prime.state_count == 8 + 6
    assert {prime.state_name(q) for q in prime.secret} == {"1", "2", "3", "4", "5", "6", "7", "8"}
    assert {prime.state_name(q) for q in prime.nonsecret} == {"1'", "2'", "3'", "5'", "7'", "8'"}
    assert not prime.events[prime.events.index(_added_event(des, prime))].observable


def test_strong_to_weak_fresh_event_avoids_collision():
    des = load_fixture("fig8")  # already uses "u1"
    assert _added_event(des, strong_to_weak(des).des_prime) == "u"
    renamed_events = make_events(["a", "b", "c"], ["u"])
    clash = dataclasses.replace(des, events=renamed_events)
    assert _added_event(clash, strong_to_weak(clash).des_prime) == "u1"
    clash = dataclasses.replace(des, events=make_events(["a", "b", "c"], ["u", "u1"]))
    assert _added_event(clash, strong_to_weak(clash).des_prime) == "u2"


def test_strong_to_weak_single_fresh_occurrence():
    for seed in range(40):
        des = random_det_instance(seed, n=5, density=0.7)
        base = des if is_normal(des) else normalize(des)
        result = strong_to_weak(base)
        prime = result.des_prime
        u = prime.events.index(_added_event(base, prime))
        copies = prime.nonsecret
        for (p, e, q) in prime.transitions:
            if e == u:
                assert p not in copies and q in copies
            if p in copies:
                assert e != u


def test_strong_to_weak_normalized_fig5():
    base = normalize(load_fixture("fig5"))
    result = strong_to_weak(base)
    prime = result.des_prime
    assert {prime.state_name(q) for q in prime.nonsecret} == {"1'", "4'"}
    trans = _named_transitions(prime)
    u = _added_event(base, prime)  # "u" is taken by the input alphabet
    assert ("1", u, "1'") in trans
    assert ("4", u, "4'") in trans
    assert ("1'", "a", "2") not in trans  # secret targets are not copied


def test_strong_to_weak_rejects_bad_inputs():
    with pytest.raises(ValueError):
        strong_to_weak(load_fixture("fig5"))  # not normal
    with pytest.raises(ValueError):
        strong_to_weak(load_fixture("fig2"))  # nondeterministic


def test_verify_strong_fig5():
    des = load_fixture("fig5")
    assert not verify_strong(des, 0).opaque
    assert not verify_strong(des, 1).opaque


def test_verify_strong_fig8_fig10():
    assert not verify_strong(load_fixture("fig8"), 1).opaque
    assert verify_strong(load_fixture("fig10"), 1).opaque


def test_verify_strong_rejects_neutral_states():
    neutral = dataclasses.replace(load_fixture("fig5"), nonsecret=frozenset({0, 2}))
    with pytest.raises(ValueError):
        verify_strong(neutral, 1)


def test_reduce_to_weak_skips_normalization_when_normal():
    norm, _reduction = reduce_to_weak(load_fixture("fig8"))
    assert norm is None
    norm5, _ = reduce_to_weak(load_fixture("fig5"))
    assert norm5 is not None


def test_observer_counts_preserved_for_normal_inputs():
    checked = 0
    for seed in range(200):
        des = random_det_instance(seed, n=6, obs=2, unobs=1, density=0.8)
        if not is_normal(des):
            continue
        result = strong_to_weak(des)
        assert len(observer(project(result.des_prime))) == len(observer(project(des)))
        checked += 1
    assert checked >= 50


def test_strong_equals_weak_at_k0_for_normal_inputs():
    for seed in range(120):
        des = random_det_instance(seed, n=5, obs=2, unobs=1, density=0.8)
        if not is_normal(des):
            continue
        assert verify_strong(des, 0).opaque == verify_weak(des, 0).opaque


def test_strong_implies_weak():
    for seed in range(80):
        des = random_det_instance(seed, n=5, obs=2, unobs=1, density=0.8)
        for k in (0, 1, 2, INFINITE):
            if verify_strong(des, k).opaque:
                assert verify_weak(des, k).opaque
