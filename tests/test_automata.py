import random

import pytest

from desopacity import (
    Des,
    accessible,
    is_deterministic,
    load_fixture,
    make_events,
    mask_of,
    observer,
    product_successors,
    project,
    states_of,
)
from desopacity.automata import path_to, union_rows
from desopacity.oracle import simulate_observation

from conftest import language_equivalent, random_det_instance, random_weak_instance


def _adjacency(des):
    """Map (source, event) -> sorted tuple of targets."""
    adj = {}
    for (p, e, q) in des.transitions:
        adj.setdefault((p, e), []).append(q)
    return {key: tuple(sorted(targets)) for key, targets in adj.items()}


def _projected_transitions(pg):
    return {(q, j, r) for j, row in enumerate(pg.rows) for q, succ in enumerate(row) for r in states_of(succ)}


def test_unobservable_reach_chain():
    des = load_fixture("fig5")
    assert simulate_observation(des, {1}, ()) == frozenset({1, 2})  # states "2","3"


def test_unobservable_reach_empty():
    des = load_fixture("fig5")
    assert simulate_observation(des, set(), ()) == frozenset()


def test_unobservable_reach_all_observable():
    des = load_fixture("fig1")
    for q in range(des.state_count):
        assert simulate_observation(des, {q}, ()) == frozenset({q})


def test_unobservable_reach_monotone_idempotent():
    for seed in range(30):
        des = random_weak_instance(seed, n=5)
        states = list(range(des.state_count))
        rng = random.Random(seed)
        small = frozenset(rng.sample(states, 2))
        big = small | frozenset(rng.sample(states, 2))
        assert simulate_observation(des, small, ()) <= simulate_observation(des, big, ())
        ur = simulate_observation(des, small, ())
        assert simulate_observation(des, ur, ()) == ur


def test_project_all_observable_identity():
    des = load_fixture("fig1")
    pg = project(des)
    assert all(len(row) == des.state_count for row in pg.rows)
    assert pg.event_names == des.events.names
    assert _projected_transitions(pg) == des.transitions
    assert pg.initial == mask_of(des.initial)


def test_project_chain():
    des = load_fixture("fig5")
    pg = project(des)
    a = 0
    assert pg.rows[a][0] == mask_of({1, 2})  # gamma("1",a)={"2","3"}
    assert pg.rows[a][2] == mask_of({3})  # gamma("3",a)={"4"}


def test_project_definitional_identity():
    for seed in range(20):
        des = random_weak_instance(seed, n=5)
        pg = project(des)
        adj = _adjacency(des)
        assert pg.initial == mask_of(simulate_observation(des, des.initial, ()))
        for q in range(des.state_count):
            for new_e, e in enumerate(des.events.observable_indices()):
                ur_q = simulate_observation(des, {q}, ())
                step = set()
                for p in ur_q:
                    step.update(adj.get((p, e), ()))
                expected = simulate_observation(des, step, ())
                assert pg.rows[new_e][q] == mask_of(expected)


def test_observer_chain():
    des = load_fixture("fig5")
    obs = observer(project(des))
    assert tuple(obs) == (mask_of({0}), mask_of({1, 2}), mask_of({3}))


def test_observer_contains_expected_estimate():
    des = load_fixture("fig2")
    obs = observer(project(des))
    assert mask_of({1, 3, 4}) in obs  # states named "2","4","5"


def test_observer_deterministic_all_observable():
    det_all_obs = Des(
        state_count=3,
        events=make_events(["a", "b"]),
        transitions=frozenset({(0, 0, 1), (1, 1, 2)}),
        initial=frozenset({0}),
    )
    assert [states_of(x) for x in observer(project(det_all_obs))] == [(0,), (1,), (2,)]


def test_observer_matches_direct_simulation():
    rng = random.Random(7)
    for seed in range(25):
        des = random_weak_instance(seed, n=5)
        pg = project(des)
        obs = observer(pg)
        names = list(pg.event_names)
        for x in obs:
            mu = [names[j] for j in path_to(obs, x)[1]]
            assert x == mask_of(simulate_observation(des, des.initial, mu))
        if not names:
            continue
        for _ in range(10):
            mu = [rng.choice(names) for _ in range(rng.randrange(9))]
            x = pg.initial
            for name in mu:
                x = union_rows(pg.rows[names.index(name)], x)
                assert x == 0 or x in obs
            assert x == mask_of(simulate_observation(des, des.initial, mu))


def test_observer_state_bound():
    for seed in range(30):
        des = random_weak_instance(seed, n=5)
        assert len(observer(project(des))) <= 2 ** des.state_count - 1


def test_observer_empty_observable_alphabet():
    des = Des(
        state_count=2,
        events=make_events(unobservable=["u"]),
        transitions=frozenset({(0, 0, 1)}),
        initial=frozenset({0}),
    )
    pg = project(des)
    obs = observer(pg)
    assert tuple(obs) == (mask_of({0, 1}),)
    assert pg.rows == ()  # no event to step on


def test_full_observer_step_sink():
    pg = project(load_fixture("fig1"))
    a = pg.event_names.index("a")
    b = pg.event_names.index("b")
    assert union_rows(pg.rows[b], mask_of({3})) == 0  # state "4" dies on b
    assert union_rows(pg.rows[a], 0) == 0


def test_full_observer_step_dashed_transition():
    pg = project(load_fixture("fig2"))
    a = pg.event_names.index("a")
    assert union_rows(pg.rows[a], mask_of({3})) == mask_of({4})  # {4} -a-> {5}


def test_full_observer_agrees_with_observer():
    # every observer transition, and every transition into the empty
    # estimate, against direct simulation of the original system
    for seed in range(20):
        des = random_weak_instance(seed, n=4)
        pg = project(des)
        obs = observer(pg)
        for x in obs:
            for j, name in enumerate(pg.event_names):
                y = union_rows(pg.rows[j], x)
                assert y == 0 or y in obs
                assert y == mask_of(simulate_observation(des, states_of(x), [name]))


def test_full_observer_step_rejects_unobservable():
    # the kernel has rows for observable events only
    des = load_fixture("fig5")
    pg = project(des)
    assert pg.event_names == ("a",)
    assert len(pg.rows) == 1


def test_product_step_to_sink():
    pg = project(load_fixture("fig1"))
    b = pg.event_names.index("b")
    seed = (1, mask_of({3}))
    assert [v for j, v in product_successors(pg, [seed])(seed) if j == b] == [(2, 0)]  # (2,{4}) on b
    # the empty estimate absorbs every event
    assert all(z == 0 for _j, (_q, z) in product_successors(pg, [(0, 0)])((0, 0)))


def test_product_step_empty():
    pg = project(load_fixture("fig1"))
    b = pg.event_names.index("b")
    seed = (3, mask_of({0}))
    assert [v for j, v in product_successors(pg, [seed])(seed) if j == b] == []  # dead end


def test_product_step_requires_projected_input():
    # the product steps through the projection: unobservable moves are
    # folded into each observable step on both components
    des = load_fixture("fig5")  # "1" -a-> "2" -u-> "3"
    seed = (0, mask_of({0}))
    both = mask_of({1, 2})
    assert list(product_successors(project(des), [seed])(seed)) == [(0, (1, both)), (0, (2, both))]
    # a successor subsumed by a vertex already admitted, here the seed
    # ("2", {"2"}) with {"2"} a subset of {"2","3"}, is not yielded
    successors = product_successors(project(des), [seed, (1, mask_of({1}))])
    assert list(successors(seed)) == [(0, (2, both))]


def test_accessible_drops_isolated_state():
    des = Des(
        state_count=3,
        events=make_events(["a"]),
        transitions=frozenset({(0, 0, 1)}),
        initial=frozenset({0}),
        secret=frozenset({2}),
        state_names=("p", "q", "iso"),
    )
    acc = accessible(des)
    assert acc.state_count == 2
    assert acc.state_names == ("p", "q")  # "p" and "q" keep indices 0 and 1
    assert acc.secret == frozenset()
    assert acc.transitions == frozenset({(0, 0, 1)})


def test_accessible_identity_when_reachable():
    des = load_fixture("fig5")
    acc = accessible(des)
    assert acc.state_names == des.state_names  # every state keeps its index
    assert acc.state_count == des.state_count
    assert acc.transitions == des.transitions


def test_is_deterministic():
    assert is_deterministic(load_fixture("fig5"))
    assert not is_deterministic(load_fixture("fig1"))  # 1 -a-> {2,4}
    two_init = Des(
        state_count=2,
        events=make_events(["a"]),
        transitions=frozenset(),
        initial=frozenset({0, 1}),
    )
    assert not is_deterministic(two_init)


def test_language_equivalent_reflexive_and_deletion():
    des = load_fixture("fig5")
    assert language_equivalent(des, des)
    import dataclasses

    smaller = dataclasses.replace(des, transitions=frozenset(list(sorted(des.transitions))[:-1]))
    assert not language_equivalent(des, smaller)


def test_language_equivalent_rejects_bad_inputs():
    with pytest.raises(ValueError):
        language_equivalent(load_fixture("fig1"), load_fixture("fig1"))
    a = load_fixture("fig5")
    b = random_det_instance(0, n=3)
    with pytest.raises(ValueError):
        language_equivalent(a, b)


def _enumerate_language(des, max_len):
    adj = _adjacency(des)
    q0 = next(iter(des.initial))
    words = {()}
    frontier = [((), q0)]
    for _ in range(max_len):
        nxt = []
        for w, q in frontier:
            for e in range(len(des.events)):
                for t in adj.get((q, e), ()):
                    nxt.append((w + (e,), t))
                    words.add(w + (e,))
        frontier = nxt
    return words


def test_language_equivalent_matches_enumeration():
    hit = miss = 0
    for seed in range(40):
        # small alphabets and states keep the 2*|Qa|*|Qb| enumeration feasible
        a = random_det_instance(seed, n=2, obs=1, unobs=1, density=0.6)
        b = random_det_instance(seed + 1000, n=2, obs=1, unobs=1, density=0.6)
        bound = 2 * a.state_count * b.state_count
        same = _enumerate_language(a, bound) == _enumerate_language(b, bound)
        assert language_equivalent(a, b) == same
        hit += same
        miss += not same
    assert hit and miss  # both outcomes exercised


def test_des_validation():
    with pytest.raises(ValueError):
        Des(state_count=0, events=make_events(["a"]), transitions=frozenset(), initial=frozenset({0}))
    with pytest.raises(ValueError):
        Des(state_count=2, events=make_events(["a"]), transitions=frozenset(), initial=frozenset())
    with pytest.raises(ValueError):
        Des(
            state_count=2,
            events=make_events(["a"]),
            transitions=frozenset(),
            initial=frozenset({0}),
            secret=frozenset({1}),
            nonsecret=frozenset({1}),
        )
    with pytest.raises(ValueError):
        Des(state_count=2, events=make_events(["a"]), transitions=frozenset({(0, 3, 1)}), initial=frozenset({0}))
    with pytest.raises(ValueError, match="state index out of range"):
        Des(state_count=2, events=make_events(["a"]), transitions=frozenset(), initial=frozenset({2}))
    with pytest.raises(ValueError, match="transition state index out of range"):
        Des(state_count=2, events=make_events(["a"]), transitions=frozenset({(0, 0, 2)}), initial=frozenset({0}))
    with pytest.raises(ValueError, match="state_names length"):
        Des(
            state_count=2,
            events=make_events(["a"]),
            transitions=frozenset(),
            initial=frozenset({0}),
            state_names=("x",),
        )
    with pytest.raises(ValueError, match="duplicate state name"):
        Des(
            state_count=2,
            events=make_events(["a"]),
            transitions=frozenset(),
            initial=frozenset({0}),
            state_names=("x", "x"),
        )
