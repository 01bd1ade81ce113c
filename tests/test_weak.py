import random
from collections import deque

import pytest

from desopacity import (
    INFINITE,
    Des,
    Witness,
    bounded_bfs,
    compute_seeds,
    load_fixture,
    make_events,
    mask_of,
    observer,
    project,
    reduce_to_weak,
    states_of,
    verify_weak,
)
from desopacity.automata import path_to, union_rows
from desopacity.oracle import simulate_observation, validate_weak_witness, weak_violation_search
from desopacity.weak import Verdict, VerifyStats, check_k

from conftest import exhaustive_weak_bounds, random_det_instance, random_weak_instance


def _seeds(des):
    obs = observer(project(des))
    return obs, compute_seeds(obs, mask_of(des.secret), mask_of(des.nonsecret))


def _observation(des, obs, x):
    """The observation the observer map records for estimate x, as event names."""
    names = project(des).event_names
    return tuple(names[j] for j in path_to(obs, x)[1])


def test_check_k():
    assert check_k(0) == 0
    assert check_k(INFINITE) is INFINITE
    with pytest.raises(ValueError):
        check_k(-1)
    with pytest.raises(ValueError):
        check_k(1.5)


def test_compute_seeds_fig1():
    des = load_fixture("fig1")
    obs, seeds = _seeds(des)
    assert list(seeds) == [(1, mask_of({3}))]  # (state "2", {"4"})
    assert _observation(des, obs, seeds[(1, mask_of({3}))]) == ("a",)


def test_compute_seeds_fig2():
    des = load_fixture("fig2")
    obs, seeds = _seeds(des)
    assert len(seeds) == 1
    (q, z), x = next(iter(seeds.items()))
    assert q == 1
    assert z == mask_of({3})
    assert x == mask_of({1, 3, 4})  # estimate {"2","4","5"}
    assert x in obs


def test_compute_seeds_no_secret():
    des = load_fixture("fig5")
    obs = observer(project(des))
    assert compute_seeds(obs, 0, mask_of(des.nonsecret)) == {}


def test_compute_seeds_drops_subsumed_seed():
    # "1" -a-> {"2","3"} gives the seed ("2", {"3"}); then -b-> {"2","3","4"}
    # gives ("2", {"3","4"}), which the earlier seed subsumes
    des = Des(
        state_count=4,
        events=make_events(["a", "b"]),
        transitions=frozenset({(0, 0, 1), (0, 0, 2), (1, 1, 1), (2, 1, 2), (2, 1, 3)}),
        initial=frozenset({0}),
        secret=frozenset({1}),
        nonsecret=frozenset({0, 2, 3}),
    )
    obs, seeds = _seeds(des)
    assert mask_of({1, 2, 3}) in obs
    assert seeds == {(1, mask_of({2})): mask_of({1, 2})}


def test_compute_seeds_stops_at_first_revealing_seed():
    # "1" -a-> {"2"} reveals secret "2" at once; the estimate {"4","5"}
    # behind "1" -b-> "3" -a-> would give the seed ("4", {"5"}) after it
    des = Des(
        state_count=5,
        events=make_events(["a", "b"]),
        transitions=frozenset({(0, 0, 1), (0, 1, 2), (2, 0, 3), (2, 0, 4)}),
        initial=frozenset({0}),
        secret=frozenset({1, 3}),
        nonsecret=frozenset({0, 2, 4}),
    )
    obs = observer(project(des))
    assert mask_of({3, 4}) in obs
    consumed = []

    def walk():
        for x in obs:
            consumed.append(x)
            yield x

    seeds = compute_seeds(walk(), mask_of(des.secret), mask_of(des.nonsecret))
    assert seeds == {(1, 0): mask_of({1})}
    assert consumed[-1] == mask_of({1}) and len(consumed) < len(obs)


def test_shortest_observations_event_order_tiebreak():
    # each observer state's observation is the first string reaching its
    # estimate in length-then-event-table order
    for seed in range(20):
        des = random_weak_instance(seed, n=5)
        obs = observer(project(des))
        names = project(des).event_names
        first = {}
        level = [()]
        for _ in range(len(obs)):
            following = []
            for mu in level:
                x = mask_of(simulate_observation(des, des.initial, mu))
                if x and x not in first:
                    first[x] = mu
                    following += [mu + (name,) for name in names]
            level = following
        assert [_observation(des, obs, x) for x in obs] == [first[x] for x in obs]


def test_witness_tie_break_follows_event_table_order():
    # "b" is declared before "a"; both reveal secret state 3 at once, so the
    # witness is the first observable event in table order, not by name
    des = Des(
        state_count=6,
        events=make_events(["b", "a"]),
        transitions=frozenset({(0, 0, 3), (0, 1, 3), (0, 1, 5)}),
        initial=frozenset({0}),
        secret=frozenset({3}),
        nonsecret=frozenset({0, 1, 2, 4}),
    )
    v = verify_weak(des, 0)
    assert v.witness == Witness(("b",), 3, (), mask_of({3}))


def _classical_bfs(adj, seeds, k):
    dist = {s: 0 for s in seeds}
    queue = deque(seeds)
    while queue:
        u = queue.popleft()
        if dist[u] == k:
            continue
        for v in adj.get(u, ()):
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return set(dist)


def test_bounded_bfs_path():
    adj = {"v0": ["v1"], "v1": ["v2"]}
    succ = lambda u: [("e", v) for v in adj.get(u, ())]
    marked, depth = bounded_bfs(succ, ["v0"], 1)
    assert set(marked) == {"v0", "v1"}
    assert depth == 1


def test_bounded_bfs_k0():
    succ = lambda u: [("e", u + 1)] if u < 5 else []
    marked, _ = bounded_bfs(succ, [0, 3], 0)
    assert set(marked) == {0, 3}
    with pytest.raises(ValueError):
        bounded_bfs(succ, [0, 3], -1)


def test_bounded_bfs_no_seeds():
    marked, depth = bounded_bfs(lambda u: [], [], INFINITE)
    assert marked == {}


def test_bounded_bfs_parent_links():
    adj = {0: [1, 2], 1: [3], 2: [3]}
    succ = lambda u: [(("to", v), v) for v in adj.get(u, ())]
    marked, _ = bounded_bfs(succ, [0], INFINITE)
    path = []
    cur = 3
    while marked[cur] is not None:
        cur, label = marked[cur]
        path.append(label)
    assert cur == 0
    assert len(path) == 2
    assert path_to(marked, 3) == (0, (("to", 1), ("to", 3)))


def test_bounded_bfs_stops_at_first_stop_vertex():
    rng = random.Random(5)
    for trial in range(60):
        n = rng.randrange(2, 100)
        adj = {}
        for _ in range(rng.randrange(1, 3 * n)):
            adj.setdefault(rng.randrange(n), []).append(rng.randrange(n))
        seeds = rng.sample(range(n), rng.randrange(1, min(4, n) + 1))
        goals = set(rng.sample(range(n), rng.randrange(1, 4)))
        k = rng.choice([0, 1, 3, INFINITE])
        succ = lambda u: [("e", v) for v in adj.get(u, ())]
        full, full_depth = bounded_bfs(succ, seeds, k)
        marked, depth = bounded_bfs(succ, seeds, k, stop=goals.__contains__)
        order = list(full)
        hits = [i for i, v in enumerate(order) if v in goals]
        if not hits:
            assert marked == full and depth == full_depth
            continue
        assert list(marked) == order[: hits[0] + 1]
        assert all(marked[v] == full[v] for v in marked)
        hit = order[hits[0]]
        distance = 0
        while marked[hit] is not None:
            hit = marked[hit][0]
            distance += 1
        assert depth == distance


def test_bounded_bfs_matches_classical_on_random_digraphs():
    rng = random.Random(99)
    for trial in range(60):
        n = rng.randrange(2, 200)
        adj = {}
        for _ in range(rng.randrange(1, 3 * n)):
            adj.setdefault(rng.randrange(n), []).append(rng.randrange(n))
        seeds = rng.sample(range(n), rng.randrange(1, min(4, n) + 1))
        k = rng.choice([0, 1, 2, 5, INFINITE])
        succ = lambda u: [("e", v) for v in adj.get(u, ())]
        marked, _ = bounded_bfs(succ, seeds, k)
        assert set(marked) == _classical_bfs(adj, seeds, k)


def test_verify_weak_fig1_not_one_step_opaque():
    v = verify_weak(load_fixture("fig1"), 1)
    assert not v.opaque
    assert v.witness.mu == ("a",)
    assert v.witness.nu == ("b",)


def test_verify_weak_fig2_one_step_opaque():
    assert verify_weak(load_fixture("fig2"), 1).opaque


def test_verify_weak_fig5():
    des = load_fixture("fig5")
    assert verify_weak(des, 1).opaque
    assert verify_weak(des, 0).opaque


def test_verify_weak_no_secret_states():
    des = load_fixture("fig5")
    import dataclasses

    stripped = dataclasses.replace(des, secret=frozenset(), nonsecret=frozenset({0, 1, 2, 3}))
    for k in (0, 3, INFINITE):
        assert verify_weak(stripped, k).opaque


def test_verify_weak_secret_initial_no_nonsecret():
    des = Des(
        state_count=1,
        events=make_events(["a"]),
        transitions=frozenset(),
        initial=frozenset({0}),
        secret=frozenset({0}),
    )
    v = verify_weak(des, 0)
    assert not v.opaque
    assert v.witness == Witness((), 0, (), mask_of({0}))


def test_verify_weak_witnesses_validate():
    for seed in range(60):
        des = random_weak_instance(seed, n=5)
        for k in (0, 2, INFINITE):
            v = verify_weak(des, k)
            if not v.opaque:
                assert validate_weak_witness(des, k, v.witness)


def test_verify_weak_witnesses_validate_past_oracle_sizes():
    # the oracles cannot enumerate these sizes; the validator is polynomial
    violations = through_product = 0
    for seed in range(120):
        n = 10 + seed % 11  # n in 10..20
        des = random_weak_instance(seed, n=n, density=1.0)
        for k in (0, 1, 3, INFINITE):
            v = verify_weak(des, k)
            if not v.opaque:
                violations += 1
                through_product += bool(v.witness.nu)
                assert validate_weak_witness(des, k, v.witness)
                assert states_of(v.witness.origin_estimate) == tuple(
                    sorted(simulate_observation(des, des.initial, v.witness.mu))
                )
    assert violations >= 150 and through_product >= 25


def _unpruned_search(des, k):
    """Reference for the pruned verifier: the same roots, taken without
    subsumption, and the plain product BFS over the kernel rows.
    Returns (opaque, violation depth or None, product states explored)."""
    pg = project(des)
    obs = observer(pg)
    roots = {}
    for x in obs:
        for q in states_of(x & mask_of(des.secret)):
            roots.setdefault((q, x & mask_of(des.nonsecret)), x)

    def successors(vertex):
        q, z = vertex
        for j, row in enumerate(pg.rows):
            for q2 in states_of(row[q]):
                yield j, (q2, union_rows(row, z))

    marked, depth = bounded_bfs(successors, roots, k, stop=lambda v: not v[1])
    last = next(reversed(marked), None)
    if last is None or last[1]:
        return True, None, len(marked)
    return False, depth, len(marked)


def test_verify_weak_pruning_matches_unpruned_search():
    systems = [random_weak_instance(seed, n=4 + seed % 9) for seed in range(45)]  # n in 4..12
    systems += [reduce_to_weak(random_det_instance(seed, n=6 + seed % 10))[1].des_prime for seed in range(30)]
    pruned_fewer = violations = 0
    for des in systems:
        for k in (0, 1, 2, 1000, INFINITE):
            opaque, depth, explored = _unpruned_search(des, k)
            v = verify_weak(des, k)
            assert v.opaque == opaque
            assert v.stats.product_states_explored <= explored
            pruned_fewer += v.stats.product_states_explored < explored
            if not opaque:
                violations += 1
                assert v.stats.bfs_depth_reached == depth
                assert validate_weak_witness(des, k, v.witness)
    assert pruned_fewer > 0 and violations > 0


def test_verify_weak_monotone_in_k():
    for seed in range(60):
        des = random_weak_instance(seed, n=5)
        verdicts = [verify_weak(des, k).opaque for k in (0, 1, 2, 3)]
        vinf = verify_weak(des, INFINITE).opaque
        # opacity can only degrade as k grows
        for earlier, later in zip(verdicts, verdicts[1:] + [vinf]):
            assert earlier or not later


def test_verify_weak_stabilization():
    for seed in range(40):
        des = random_weak_instance(seed, n=5)
        n = des.state_count
        assert verify_weak(des, 2 ** n - 2).opaque == verify_weak(des, INFINITE).opaque


def test_verify_weak_k_independent_exploration():
    for seed in range(20):
        des = random_weak_instance(seed, n=5)
        full = verify_weak(des, INFINITE).stats.product_states_explored
        for k in (full, full + 3, INFINITE):
            assert verify_weak(des, k).stats.product_states_explored == full


def test_verify_weak_resource_bound():
    for seed in range(40):
        des = random_weak_instance(seed, n=6, density=1.5)
        n = des.state_count
        v = verify_weak(des, INFINITE)
        assert v.stats.product_states_explored <= n * 2 ** n


def test_verify_weak_clamps_huge_k():
    des = load_fixture("fig2")
    huge = 10 ** 30
    assert verify_weak(des, huge).opaque == verify_weak(des, INFINITE).opaque


def test_verify_weak_rejects_overlap():
    with pytest.raises(ValueError):
        Des(
            state_count=2,
            events=make_events(["a"]),
            transitions=frozenset(),
            initial=frozenset({0}),
            secret=frozenset({0}),
            nonsecret=frozenset({0}),
        )


def test_current_state_opacity_fig5():
    des = load_fixture("fig5")
    assert weak_violation_search(des, 0, exhaustive_weak_bounds(des, 0)) is None


def test_current_state_opacity_secret_initial():
    des = Des(
        state_count=1,
        events=make_events(["a"]),
        transitions=frozenset(),
        initial=frozenset({0}),
        secret=frozenset({0}),
    )
    assert weak_violation_search(des, 0, exhaustive_weak_bounds(des, 0)) is not None


def test_current_state_opacity_agrees_with_k0():
    for seed in range(80):
        des = random_weak_instance(seed, n=5)
        assert (weak_violation_search(des, 0, exhaustive_weak_bounds(des, 0)) is None) == verify_weak(des, 0).opaque


def test_verdict_requires_witness_consistency():
    stats = VerifyStats(0, 0, 0, 0)
    with pytest.raises(ValueError):
        Verdict(opaque=True, witness=Witness((), 0, (), 0), stats=stats)
    with pytest.raises(ValueError):
        Verdict(opaque=False, witness=None, stats=stats)
