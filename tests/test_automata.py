import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from desopacity import (
    Des,
    Subsumption,
    bounded_bfs,
    is_deterministic,
    load_fixture,
    make_events,
    mask_of,
    normalize,
    observer,
    project,
    states_of,
    strong_to_weak,
    universal,
)
from desopacity.automata import observation, union_rows
from desopacity.oracle import simulate_observation
from desopacity.weak import path_to

from conftest import (
    language_equivalent,
    neutral_start_nth_letter,
    oracle_rows,
    random_det_instance,
    random_weak_instance,
    reference_observer,
    revealing_estimate,
)


def _adjacency(des):
    """Map (source, event) -> sorted tuple of targets."""
    adj = {}
    for (p, e, q) in des.transitions:
        adj.setdefault((p, e), []).append(q)
    return {key: tuple(sorted(targets)) for key, targets in adj.items()}


def event_slice(pg, y, j):
    """Event j's mask in a packed int ``y`` of the projection ``pg``."""
    n = pg.state_count
    return (y >> (j * n)) & ((1 << n) - 1)


def _projected_transitions(pg):
    return {
        (q, j, r)
        for j in range(len(pg.event_names))
        for q, y in enumerate(pg.packed)
        for r in states_of(event_slice(pg, y, j))
    }


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
    assert len(pg.packed) == des.state_count
    assert pg.event_names == des.events.names
    assert _projected_transitions(pg) == des.transitions
    assert pg.initial == mask_of(des.initial)


def test_project_chain():
    des = load_fixture("fig5")
    pg = project(des)
    a = 0
    assert event_slice(pg, pg.packed[0], a) == mask_of({1, 2})  # gamma("1",a)={"2","3"}
    assert event_slice(pg, pg.packed[2], a) == mask_of({3})  # gamma("3",a)={"4"}


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
                assert event_slice(pg, pg.packed[q], new_e) == mask_of(expected)


def _check_projection_against_oracle(des):
    """``project``'s rows are the oracle's, packed, and its initial estimate
    is the oracle's simulation of no event from the initial states."""
    pg = project(des)
    n = des.state_count
    assert pg.event_names == tuple(e.name for e in des.events.entries if e.observable)
    assert pg.initial == mask_of(simulate_observation(des, des.initial, ()))
    rows = oracle_rows(des)
    assert pg.packed == tuple(sum(row[q] << j * n for j, row in enumerate(rows)) for q in range(n))


def _unobservable_graph(n, unobservable, observable, initial=(0,)):
    """A system of n states over the observable events a, b and the
    unobservable u, v, its moves given as (source, event name, target)."""
    events = make_events(["a", "b"], ["u", "v"])
    return Des(
        state_count=n,
        events=events,
        transitions=frozenset((p, events.index(e), q) for (p, e, q) in (*unobservable, *observable)),
        initial=frozenset(initial),
    )


RING = 40
# unobservable cycles, and components that reach other components
CONDENSATION_CASES = {
    "self_loop": _unobservable_graph(3, [(0, "u", 0), (1, "v", 1)], [(0, "a", 1), (1, "b", 2), (2, "a", 0)]),
    "two_cycle": _unobservable_graph(3, [(0, "u", 1), (1, "v", 0)], [(1, "a", 2), (2, "b", 0), (0, "b", 2)]),
    "ring_40": _unobservable_graph(
        RING,
        [(q, "u", (q + 1) % RING) for q in range(RING)],
        [(7, "a", RING - 1), *((q, "b", q) for q in range(0, RING, 5))],
    ),
    # the cycle {0, 1} reaches the cycle {2, 3}, which reaches the chain 4, 5
    "components_reach_components": _unobservable_graph(
        7,
        [(0, "u", 1), (1, "u", 0), (1, "v", 2), (2, "u", 3), (3, "u", 2), (3, "v", 4), (4, "u", 5)],
        [(5, "a", 0), (2, "b", 6), (4, "a", 1), (6, "a", 3), (0, "b", 0)],
    ),
    "diamond": _unobservable_graph(
        5,
        [(0, "u", 1), (0, "v", 2), (1, "v", 3), (2, "u", 3), (3, "u", 4)],
        [(3, "a", 0), (1, "b", 2), (2, "a", 4), (4, "b", 1)],
    ),
    # the initial states 1 and 4 lie in the cycles {0, 1} and {3, 4}
    "initial_in_two_components": _unobservable_graph(
        6,
        [(0, "u", 1), (1, "u", 0), (1, "v", 2), (3, "v", 4), (4, "u", 3)],
        [(2, "a", 3), (0, "b", 5), (5, "a", 4), (3, "b", 0)],
        initial=(1, 4),
    ),
}


@pytest.mark.parametrize("name", CONDENSATION_CASES)
def test_project_condenses_unobservable_components(name):
    _check_projection_against_oracle(CONDENSATION_CASES[name])


def test_project_long_unobservable_chain():
    # q -u-> q+1 for 5,000 states: deeper than Python's default recursion
    # limit; a at every state loops back, b leads from the last to the first
    n = 5000
    des = _unobservable_graph(n, [(q, "u", q + 1) for q in range(n - 1)], [(q, "a", q) for q in range(n)] + [(n - 1, "b", 0)])
    pg = project(des)
    full = (1 << n) - 1
    assert pg.initial == full
    # the closure of q is {q, ..., n-1}; its a-successors are itself, and
    # its b-successor is the closure of state 0, every state
    assert pg.packed == tuple((full ^ ((1 << q) - 1)) | full << n for q in range(n))


def _has_unobservable_cycle(des):
    unobservable = set(des.events.unobservable_indices())
    succ = {}
    for (p, e, q) in des.transitions:
        if e in unobservable:
            succ.setdefault(p, set()).add(q)
    return any(p in simulate_observation(des, targets, ()) for p, targets in succ.items())


def test_project_matches_oracle_rows_on_random_systems():
    rng = random.Random(26)
    cyclic = 0
    for seed in range(600):
        des = random_weak_instance(seed, n=rng.randint(3, 42), unobs=rng.randint(1, 3), density=rng.uniform(0.8, 2.4))
        _check_projection_against_oracle(des)
        cyclic += _has_unobservable_cycle(des)
    assert cyclic >= 500


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
            mu = [names[j] for j in observation(pg, obs, x)]
            assert x == mask_of(simulate_observation(des, des.initial, mu))
        if not names:
            continue
        for _ in range(10):
            mu = [rng.choice(names) for _ in range(rng.randrange(9))]
            x = pg.initial
            for name in mu:
                x = event_slice(pg, pg.step(x), names.index(name))
                assert x == 0 or x in obs
            assert x == mask_of(simulate_observation(des, des.initial, mu))


def _check_observer_against_reference(des):
    # the same keys in the same order and the same parent estimates as a
    # plain BFS, with and without the stop, and each estimate's observation
    # read back is the event string the BFS recorded; the observer stops by
    # its masks, the reference by the predicate on the same estimates
    pg = project(des)
    masks = (mask_of(des.secret), mask_of(des.nonsecret))
    for (secret, nonsecret), stop in (((0, 0), None), (masks, revealing_estimate(des))):
        obs = observer(pg, secret, nonsecret)
        reference = reference_observer(pg, stop=stop)
        assert list(obs) == list(reference)
        assert list(obs.values()) == [link and link[0] for link in reference.values()]
        for x in obs:
            assert observation(pg, obs, x) == path_to(reference, x)[1]


@pytest.mark.parametrize("name", ["fig1", "fig2", "fig5", "fig6", "fig8", "fig10"])
def test_observer_matches_reference_on_fixtures(name):
    _check_observer_against_reference(load_fixture(name))


def test_observer_matches_reference_on_nth_letter():
    # the 2^10 estimates of the n-th-letter-from-the-end NFA
    _check_observer_against_reference(neutral_start_nth_letter(10))


@pytest.mark.parametrize("n", range(1, 19))
def test_observer_matches_reference_on_random_weak_systems(n):
    # 1-8 states: the observer's call of the step on one table; 9-16: its
    # inline two-table lookup; 17 and 18: its call of the step again
    for seed in range(10):
        for obs in (2, 3):
            _check_observer_against_reference(random_weak_instance(seed, n=n, obs=obs))


@pytest.mark.parametrize("n", [4, 8, 12, 16])
def test_observer_matches_reference_on_transformed_systems(n):
    for seed in range(10):
        _check_observer_against_reference(strong_to_weak(normalize(random_det_instance(seed, n=n))))


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
    assert pg.packed == (0, 0)  # no event to step on


def test_full_observer_step_sink():
    pg = project(load_fixture("fig1"))
    a = pg.event_names.index("a")
    b = pg.event_names.index("b")
    assert event_slice(pg, pg.step(mask_of({3})), b) == 0  # state "4" dies on b
    assert event_slice(pg, pg.step(0), a) == 0


def test_full_observer_step_dashed_transition():
    pg = project(load_fixture("fig2"))
    a = pg.event_names.index("a")
    assert event_slice(pg, pg.step(mask_of({3})), a) == mask_of({4})  # {4} -a-> {5}


def test_full_observer_agrees_with_observer():
    # every observer transition, and every transition into the empty
    # estimate, against direct simulation of the original system
    for seed in range(20):
        des = random_weak_instance(seed, n=4)
        pg = project(des)
        obs = observer(pg)
        for x in obs:
            for j, name in enumerate(pg.event_names):
                y = event_slice(pg, pg.step(x), j)
                assert y == 0 or y in obs
                assert y == mask_of(simulate_observation(des, states_of(x), [name]))


@pytest.mark.parametrize("n", [1, 7, 8, 9, 16, 17, 18, 19, 24, 25, 64, 65, 126, 130])
def test_step_kernel_matches_rows(n):
    # each event's slice of the packed step is the union, over the states
    # of the mask, of the oracle's one-event simulation from each state, on
    # random masks and on every observer estimate; n covers one block and
    # two blocks of 8 states, whole or partial, up to 16 states, and whole
    # and partial blocks of 6 above, with 16 and 17 on either side of the
    # change of width.  The observer reads the tables inline exactly when
    # there are two, which is right only if that means 9 to 16 states:
    # ceil(n/8) tables of 256 entries up to 16 states, ceil(n/6) of 64
    # above, the last one smaller for a partial block
    rng = random.Random(n)
    full = (1 << n) - 1
    width = 8 if n <= 16 else 6
    shape = [2 ** min(width, n - base) for base in range(0, n, width)]
    systems = [random_weak_instance(seed, n=n, obs=3) for seed in range(3)]
    systems.append(random_weak_instance(0, n=n, obs=0, unobs=2))  # no observable event
    for des in systems:
        pg = project(des)
        assert [len(table) for table in pg.tables] == shape
        rows = oracle_rows(des)
        masks = [rng.getrandbits(n) for _ in range(50)] + [0, full, 1 << (n - 1)] + list(observer(pg))
        for x in masks:
            y = pg.step(x)
            for j, row in enumerate(rows):
                assert (y >> (j * n)) & full == union_rows(row, x)
            assert y >> (len(rows) * n) == 0


def test_full_observer_step_rejects_unobservable():
    # the packed rows hold observable events only
    des = load_fixture("fig5")
    pg = project(des)
    assert pg.event_names == ("a",)
    assert all(y >> des.state_count == 0 for y in pg.packed)


def _never_empties(des, q):
    """Whether no observation empties the estimate {q}: a subset search from
    {q} through the oracle's simulation, one observable event at a time."""
    names = [e.name for e in des.events.entries if e.observable]
    seen = {frozenset({q})}
    frontier = list(seen)
    while frontier:
        x = frontier.pop()
        for name in names:
            y = frozenset(simulate_observation(des, x, [name]))
            if not y:
                return False
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return True


def _greatest_closed_set(rows, n):
    """The greatest set of states that each have, in every row, a successor
    in the set."""
    kept = mask_of(range(n))
    while True:
        closed = mask_of(q for q in states_of(kept) if all(row[q] & kept for row in rows))
        if closed == kept:
            return kept
        kept = closed


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(
    st.integers(0, 10 ** 6),
    st.integers(1, 10),
    st.integers(0, 3),
    st.integers(0, 1),
    st.floats(0.5, 2.0),
)
def test_universal_matches_oracle_references(seed, n, obs, unobs, density):
    assume(obs + unobs > 0)
    des = random_weak_instance(seed, n=n, obs=obs, unobs=unobs, density=density)
    u = universal(project(des))
    rows = oracle_rows(des)
    never_empties = mask_of(q for q in range(n) if _never_empties(des, q))
    # rule (a)'s premise: no observation empties an estimate that holds a
    # universal state
    assert not u & ~never_empties
    assert u == _greatest_closed_set(rows, n)
    # the converse needs a deterministic projection (see the pinned case below)
    if all(not row[q] & (row[q] - 1) for row in rows for q in range(n)):
        assert u == never_empties


def test_universal_without_observable_events():
    des = Des(
        state_count=3,
        events=make_events(unobservable=["u"]),
        transitions=frozenset({(0, 0, 1)}),
        initial=frozenset({0}),
    )
    assert universal(project(des)) == mask_of({0, 1, 2})


def test_universal_drops_dead_end_and_states_that_must_reach_it():
    # "3" has no move; "4" moves only to "3"; "0" -a-> "1" loops, "2" -a-> "0"
    des = Des(
        state_count=5,
        events=make_events(["a"]),
        transitions=frozenset({(0, 0, 1), (1, 0, 1), (2, 0, 0), (4, 0, 3)}),
        initial=frozenset({0}),
    )
    assert universal(project(des)) == mask_of({0, 1, 2})


def test_universal_is_not_language_universality():
    # no observation empties {"0"}: "0" -a-> {"1","2"}, where "1" follows a
    # and "2" follows b into the universal "3".  But neither "1" nor "2"
    # follows both events, so "0" simulates no universal state
    des = Des(
        state_count=4,
        events=make_events(["a", "b"]),
        transitions=frozenset({(0, 0, 1), (0, 0, 2), (0, 1, 3), (1, 0, 3), (2, 1, 3), (3, 0, 3), (3, 1, 3)}),
        initial=frozenset({0}),
    )
    assert _never_empties(des, 0)
    assert universal(project(des)) == mask_of({3})


def _search(pg, seeds, k):
    """The product search from ``seeds``, which a fresh Subsumption admits."""
    kept = Subsumption(universal(pg))
    for q, z in seeds:
        assert states_of(kept.admit(1 << q, z)) == (q,)
    return bounded_bfs(pg, kept, seeds, k)


def test_product_step_to_sink():
    pg = project(load_fixture("fig1"))
    b = pg.event_names.index("b")
    seed = (1, mask_of({3}))
    marked, depth = _search(pg, [seed], 1)
    assert next(reversed(marked)) == (2, 0) and marked[(2, 0)] == (seed, b)  # (2,{4}) on b
    assert depth == 1
    # a pair with an empty estimate is never expanded: a root ends the search
    assert _search(pg, [(0, 0), seed], 1) == ({(0, 0): None}, 0)


def test_product_step_empty():
    pg = project(load_fixture("fig1"))
    b = pg.event_names.index("b")
    seed = (3, mask_of({0}))
    marked, _depth = _search(pg, [seed], 1)
    assert [v for v, link in marked.items() if link == (seed, b)] == []  # dead end


def test_product_step_requires_projected_input():
    # the product steps through the projection: unobservable moves are
    # folded into each observable step on both components
    des = load_fixture("fig5")  # "1" -a-> "2" -u-> "3"
    seed = (0, mask_of({0}))
    both = mask_of({1, 2})
    marked, depth = _search(project(des), [seed], 1)
    assert list(marked.items()) == [(seed, None), ((1, both), (seed, 0)), ((2, both), (seed, 0))]
    assert depth == 1
    # no state is universal, so both successors are admitted even with
    # ("2", {"2","3"}) kept as a seed; the search's marked map drops that
    # exact repeat
    seeds = [seed, (1, both)]
    marked, _depth = _search(project(des), seeds, 1)
    assert list(marked.items())[:3] == [(seed, None), ((1, both), None), ((2, both), (seed, 0))]


def test_admit_applies_only_the_universal_rules():
    # state 3 is universal.  Pairs that neither rule skips are all admitted,
    # exact repeats included; the search that consumes them drops the
    # repeats
    y, z = mask_of({0}), mask_of({0, 1})
    kept = Subsumption(universal=mask_of({3}))

    def admit(states, estimate):
        return list(states_of(kept.admit(states, estimate)))

    assert admit(mask_of({2}), mask_of({0, 3})) == []  # rule (a)
    assert admit(mask_of({2}), z) == [2]
    assert admit(mask_of({1, 2}), z) == [1, 2]  # (2, z) again
    assert admit(mask_of({2}), y) == [2]  # y ⊆ z does not matter
    # the first universal state is kept, and the states after it are not
    assert admit(mask_of({0, 1, 3, 4}), y) == [0, 1, 3]
    assert kept.dominating == [y]
    assert admit(mask_of({3}), y) == []  # repeat of a universal pair
    assert admit(mask_of({1, 2}), z) == []  # rule (b): y ⊆ z
    assert admit(mask_of({1}), mask_of({1})) == [1]  # y ⊄ {1}


STATE_SETS = st.frozensets(st.integers(0, 5))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(STATE_SETS, st.lists(st.tuples(STATE_SETS, STATE_SETS), max_size=12))
def test_admit_matches_its_contract(u, calls):
    # one Subsumption over a sequence of calls, against the contract read
    # literally on sets: z is skipped if it meets U or holds a recorded
    # estimate; otherwise the states are kept in ascending order up to and
    # including the first one in U, and z is recorded iff there is one
    kept = Subsumption(universal=mask_of(u))
    recorded = []
    for states, z in calls:
        expected = []
        if not z & u and not any(y <= z for y in recorded):
            for q in sorted(states):
                expected.append(q)
                if q in u:
                    recorded.append(z)
                    break
        assert kept.admit(mask_of(states), mask_of(z)) == mask_of(expected)
        assert kept.dominating == [mask_of(y) for y in recorded]


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
    # a transition must be a triple, also beside valid ones
    for transitions in ({(0, 0, 1, 1)}, {(0, 0, 1), (1, 0, 0, 1)}):
        with pytest.raises(ValueError, match=r"^too many values to unpack \(expected 3"):
            Des(state_count=2, events=make_events(["a"]), transitions=frozenset(transitions), initial=frozenset({0}))
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


@pytest.mark.parametrize("brk", ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
def test_des_rejects_names_with_a_line_break(brk):
    # the CLI prints one name per line: "s\nh_states=999" would forge a line
    for name in (f"s{brk}h_states=999", f"s{brk}", f"{brk}s"):
        with pytest.raises(ValueError, match="line break"):
            Des(state_count=2, events=make_events(["a"]), transitions=frozenset(), initial=frozenset({0}),
                state_names=(name, "x"))
        with pytest.raises(ValueError, match="line break"):
            make_events(["a", name])
    # a tab, a space and the empty state name are no line breaks
    des = Des(state_count=3, events=make_events(["a b", "c\td"]), transitions=frozenset(),
              initial=frozenset({0}), state_names=("", "x y", "x\ty"))
    assert des.state_names == ("", "x y", "x\ty")


@pytest.mark.parametrize("events, state_names", [
    (["a", 0], None), ([1], None), ([["x"]], None), (["a"], (1,)), (["a"], (["x"],)),
])
def test_names_that_are_not_strings_raise_value_error(events, state_names):
    # the model promises ValueError for its rules, not a TypeError from a join
    # or a set, nor the nonempty rule's message for a falsy non-string
    with pytest.raises(ValueError, match=r"is not a string"):
        Des(state_count=1, events=make_events(events), transitions=frozenset(), initial=frozenset({0}),
            state_names=state_names)


@pytest.mark.parametrize("name", ["\ud800", "s\udfff", "\udc00x"])
def test_des_rejects_names_that_do_not_encode_as_utf8(name):
    # a lone surrogate parses from JSON ("\ud800") but cannot be printed
    with pytest.raises(ValueError, match=r"does not encode as UTF-8") as info:
        Des(state_count=2, events=make_events(["a"]), transitions=frozenset(), initial=frozenset({0}),
            state_names=("x", name))
    assert repr(name) in str(info.value)
    with pytest.raises(ValueError, match=r"does not encode as UTF-8"):
        make_events(["a", name])
    # a surrogate pair written as one character is a valid name
    assert make_events(["a", "\U0001f600"]).names == ("a", "\U0001f600")
