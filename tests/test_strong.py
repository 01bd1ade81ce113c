import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    serialize_des,
    strong_to_weak,
    verify_strong,
    verify_weak,
)
from desopacity.oracle import OracleBounds, simulate_observation, strong_violation_search

from conftest import (
    det_shadowed,
    exhaustive_strong_bounds,
    language_equivalent,
    normalize_reference,
    pinned_pool,
    random_det_instance,
    two_way_strong_violation_depth,
)


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


def test_normalize_identity_when_reachable():
    # a normal input reachable everywhere comes back unchanged: every state
    # keeps its index, and no primed copy is reachable
    for name in ("fig8", "fig10"):
        des = load_fixture(name)
        assert is_normal(des)
        des_n = normalize(des)
        assert des_n.state_names == des.state_names
        assert des_n.state_count == des.state_count
        assert des_n.transitions == des.transitions
        assert des_n.initial == des.initial
        assert des_n.secret == des.secret
        assert des_n.events == des.events


def test_normalize_drops_unreachable_original():
    # "iso" only leads into the system; "s" -u-> "t" is redirected to t',
    # and t' -u-> w' stays in the copy, an unobservable move from a copy
    des = Des(
        state_count=5,
        events=make_events(["o"], ["u"]),
        transitions=frozenset({(0, 0, 1), (1, 1, 2), (2, 0, 4), (2, 1, 4), (3, 0, 0), (4, 0, 2)}),
        initial=frozenset({0}),
        secret=frozenset({1, 3}),
        state_names=("init", "s", "t", "iso", "w"),
    )
    des_n = normalize(des)
    # originals in index order, then the surviving copies in index order
    assert des_n.state_names == ("init", "s", "t", "w", "t'", "w'")
    assert des_n.initial == frozenset({0})
    assert des_n.secret == frozenset({1, 4, 5})
    assert des_n.nonsecret == frozenset({0, 2, 3})
    assert des_n.transitions == frozenset(
        {(0, 0, 1), (1, 1, 4), (2, 0, 3), (2, 1, 3), (3, 0, 2), (4, 0, 3), (4, 1, 5), (5, 0, 2)}
    )


def _assert_normalize_matches_reference(des):
    assert serialize_des(normalize(des)) == serialize_des(normalize_reference(des))


def test_normalize_matches_reference_on_fixtures_and_pool():
    fixtures = [load_fixture(name) for name in ("fig5", "fig6", "fig8", "fig10")]
    for des in fixtures + pinned_pool("strong_reduction"):
        _assert_normalize_matches_reference(des)


@given(st.integers(3, 40), st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(1, 2))
@settings(max_examples=200, derandomize=True, database=None, deadline=None)
def test_normalize_matches_reference_on_random_systems(n, seed, obs, unobs):
    _assert_normalize_matches_reference(random_det_instance(seed, n=n, obs=obs, unobs=unobs, density=0.7))


def test_normalize_rejects_bad_inputs():
    with pytest.raises(ValueError):
        normalize(load_fixture("fig2"))  # nondeterministic
    neutral = dataclasses.replace(load_fixture("fig5"), nonsecret=frozenset({0, 2}))
    with pytest.raises(ValueError):
        normalize(neutral)


def test_strong_mode_rejects_nondeterminism_without_neutral_states():
    # fig2 also has neutral states; with an empty nonsecret, read as the
    # complement of secret, only the determinism rule rejects it
    des = dataclasses.replace(load_fixture("fig2"), nonsecret=frozenset())
    checks = (
        normalize,
        strong_to_weak,
        lambda des: verify_strong(des, 1),
        lambda des: strong_violation_search(des, 1, OracleBounds(mu_max=4, nu_max=0)),
    )
    for check in checks:
        with pytest.raises(ValueError, match="strong opacity is defined for deterministic systems only"):
            check(des)


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
    prime = strong_to_weak(des)
    assert isinstance(prime, Des)
    assert prime.state_count == 8 + 6
    assert {prime.state_name(q) for q in prime.secret} == {"1", "2", "3", "4", "5", "6", "7", "8"}
    assert {prime.state_name(q) for q in prime.nonsecret} == {"1'", "2'", "3'", "5'", "7'", "8'"}
    assert not prime.events[prime.events.index(_added_event(des, prime))].observable


def test_strong_to_weak_fresh_event_avoids_collision():
    des = load_fixture("fig8")  # already uses "u1"
    assert _added_event(des, strong_to_weak(des)) == "u"
    renamed_events = make_events(["a", "b", "c"], ["u"])
    clash = dataclasses.replace(des, events=renamed_events)
    assert _added_event(clash, strong_to_weak(clash)) == "u1"
    clash = dataclasses.replace(des, events=make_events(["a", "b", "c"], ["u", "u1"]))
    assert _added_event(clash, strong_to_weak(clash)) == "u2"


def test_strong_to_weak_primes_past_every_name_in_use():
    # the copy of "a" cannot be "a'", a state of the input, and the copy of
    # "a'" cannot be "a''", the name just given to the copy of "a"
    des = Des(
        state_count=2,
        events=make_events(["o"]),
        transitions=frozenset({(0, 0, 1), (1, 0, 0)}),
        initial=frozenset({0}),
        secret=frozenset(),
        nonsecret=frozenset({0, 1}),
        state_names=("a", "a'"),
    )
    assert strong_to_weak(des).state_names == ("a", "a'", "a''", "a'''")


def test_strong_to_weak_single_fresh_occurrence():
    for seed in range(40):
        des = random_det_instance(seed, n=5, density=0.7)
        base = des if is_normal(des) else normalize(des)
        prime = strong_to_weak(base)
        u = prime.events.index(_added_event(base, prime))
        copies = prime.nonsecret
        for (p, e, q) in prime.transitions:
            if e == u:
                assert p not in copies and q in copies
            if p in copies:
                assert e != u


def test_strong_to_weak_normalized_fig5():
    base = normalize(load_fixture("fig5"))
    prime = strong_to_weak(base)
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


def test_two_way_strong_check_matches_oracle():
    # the check that the strong property tests rest on, against the
    # definition-level search on systems it covers exhaustively
    violations = 0
    for seed in range(150):
        des = random_det_instance(seed, n=3 + seed % 3)
        depth = two_way_strong_violation_depth(des)
        for k in (0, 1, 2, INFINITE):
            found = strong_violation_search(des, k, exhaustive_strong_bounds(des, k))
            assert (found is None) == (depth is None or k < depth)
            violations += found is not None
    assert violations > 100


def test_verify_strong_matches_two_way_check_on_fixtures_and_pool():
    systems = [load_fixture(name) for name in ("fig5", "fig6", "fig8", "fig10")] + pinned_pool("strong_reduction")
    depths = []
    for des in systems:
        depth = two_way_strong_violation_depth(des)
        depths.append(depth)
        for k in (0, 1, 2, 3, 1000, INFINITE):
            verdict = verify_strong(des, k)
            assert verdict.opaque == (depth is None or k < depth)
            if not verdict.opaque:
                assert len(verdict.witness.nu) == depth
    assert None in depths and any(depths)


def test_verify_strong_rejects_neutral_states():
    neutral = dataclasses.replace(load_fixture("fig5"), nonsecret=frozenset({0, 2}))
    with pytest.raises(ValueError):
        verify_strong(neutral, 1)


def test_reduce_to_weak_always_normalizes():
    for name in ("fig5", "fig6", "fig8", "fig10"):
        des = load_fixture(name)
        assert reduce_to_weak(des)[0] == normalize(des)
    # a fully reachable normal input reduces as if normalization were skipped
    for name in ("fig8", "fig10"):
        des = load_fixture(name)
        assert reduce_to_weak(des)[1].des_prime == strong_to_weak(des)


def test_normalize_gives_a_deterministic_normal_system():
    # reduce_to_weak hands normalize's result straight to strong_to_weak
    systems = pinned_pool("strong_reduction")
    systems += [random_det_instance(seed, n=8 + seed % 33, obs=2, unobs=2, density=0.7) for seed in range(200)]
    assert sum(not is_normal(des) for des in systems) >= 150
    for des in systems:
        des_n = normalize(des)
        assert is_deterministic(des_n) and is_normal(des_n)


def test_observer_counts_preserved_for_normal_inputs():
    checked = 0
    for seed in range(200):
        des = random_det_instance(seed, n=6, obs=2, unobs=1, density=0.8)
        if not is_normal(des):
            continue
        assert len(observer(project(strong_to_weak(des)))) == len(observer(project(des)))
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


@pytest.mark.parametrize("n", range(3, 8))
def test_product_search_on_det_shadowed(n):
    # the strong family whose cost is in the product: (n + 6)·2^n pairs at
    # every k >= 1, fewer at k = 0
    des = det_shadowed(n)
    if n <= 6:
        for k in (0, 1, 2, n, 1000, INFINITE):
            verdict = verify_strong(des, k)
            assert verdict.opaque, k
            assert verdict.stats.observer_states == 2 ** n
            pairs = (n + 8) * 2 ** (n - 1) if k == 0 else (n + 6) * 2 ** n
            assert verdict.stats.product_states_explored == pairs, k
    assert two_way_strong_violation_depth(des) is None
