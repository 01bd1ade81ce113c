"""Properties of the verifiers on systems past the oracles' exhaustive sizes.

Renaming the states or adding states that no run reaches changes nothing a
verdict depends on, so the verdict, the violation depth (the length of the
witness's continuation) and the observer's size must not change either.
The witness's observation may: ties between seeds are broken by state index.
A system is weakly k-step opaque exactly for the k below its violation
depth, so one run at k = inf decides every k, and that depth equals the
two-way observer's, a check independent of the product search; the
strong violation depth equals that of a two-way check independent of the
reduction.  The observer that ``verify_weak`` stops at the first
revealing estimate is a prefix of the full one, and its seeds are a prefix
of the full one's that ends at the first revealing seed's estimate.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from desopacity import (
    INFINITE,
    Des,
    Subsumption,
    compute_seeds,
    mask_of,
    normalize,
    observer,
    project,
    states_of,
    strong_to_weak,
    universal,
    verify_strong,
    verify_weak,
)
from desopacity.oracle import validate_weak_witness

from conftest import (
    random_det_instance,
    random_weak_instance,
    revealing_estimate,
    two_way_strong_violation_depth,
    two_way_violation_depth,
)

KS = st.sampled_from([0, 1, 3, INFINITE])
SEEDS = st.integers(0, 10 ** 6)


def _relabel(des, perm):
    """``des`` with state q renamed to ``perm[q]``."""

    def move(states):
        return frozenset(perm[q] for q in states)

    return Des(
        state_count=des.state_count,
        events=des.events,
        transitions=frozenset((perm[p], e, perm[q]) for (p, e, q) in des.transitions),
        initial=move(des.initial),
        secret=move(des.secret),
        nonsecret=move(des.nonsecret),
    )


def _pad(des, extra, seed):
    """``des`` with ``extra`` more states, each secret or nonsecret, whose
    transitions (at most one per event) never make them reachable."""
    rng = random.Random(seed)
    total = des.state_count + extra
    added = range(des.state_count, total)
    transitions = set(des.transitions)
    for p in added:
        for e in range(len(des.events)):
            if rng.random() < 0.5:
                transitions.add((p, e, rng.randrange(total)))
    secret = frozenset(q for q in added if rng.random() < 0.5)
    return Des(
        state_count=total,
        events=des.events,
        transitions=frozenset(transitions),
        initial=des.initial,
        secret=des.secret | secret,
        nonsecret=des.nonsecret | (frozenset(added) - secret),
    )


@st.composite
def variants(draw, system, sizes):
    """A random system, one state permutation of it and one padding of it."""
    des = system(draw(SEEDS), n=draw(sizes))
    perm = draw(st.permutations(range(des.state_count)))
    return des, _relabel(des, perm), _pad(des, draw(st.integers(1, 3)), draw(SEEDS))


def _weak_summary(verdict):
    depth = None if verdict.opaque else len(verdict.witness.nu)
    return verdict.opaque, depth, verdict.stats.observer_states


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(variants(random_weak_instance, st.integers(6, 12)), KS)
def test_weak_verdict_invariant_under_permutation_and_padding(systems, k):
    des, permuted, padded = systems
    expected = _weak_summary(verify_weak(des, k))
    assert _weak_summary(verify_weak(permuted, k)) == expected
    assert _weak_summary(verify_weak(padded, k)) == expected


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(SEEDS, st.integers(6, 16))
def test_weak_violation_depth_decides_every_k(seed, n):
    des = random_weak_instance(seed, n=n)
    at_inf = verify_weak(des, INFINITE)
    depth = None if at_inf.opaque else len(at_inf.witness.nu)
    assert depth == two_way_violation_depth(des)
    for k in (0, 1, 2, 3, 5, INFINITE):
        verdict = at_inf if k is INFINITE else verify_weak(des, k)
        assert verdict.opaque == (depth is None or k < depth)
        if not verdict.opaque:
            assert len(verdict.witness.nu) == depth
            assert validate_weak_witness(des, k, verdict.witness)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(SEEDS, st.integers(6, 30))
def test_strong_violation_depth_matches_two_way_check(seed, n):
    # the two-way check shares no code with the reduction that verify_strong
    # runs, so a fault in normalize or strong_to_weak shows here
    des = random_det_instance(seed, n=n)
    depth = two_way_strong_violation_depth(des)
    for k in (0, 1, 2, 3, 5, INFINITE):
        verdict = verify_strong(des, k)
        assert verdict.opaque == (depth is None or k < depth)
        if not verdict.opaque:
            assert len(verdict.witness.nu) == depth


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(variants(random_det_instance, st.integers(8, 20)), KS)
def test_strong_verdict_invariant_under_permutation_and_padding(systems, k):
    des, permuted, padded = systems
    expected = verify_strong(des, k).opaque
    assert verify_strong(permuted, k).opaque == expected
    assert verify_strong(padded, k).opaque == expected


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(SEEDS, st.integers(8, 20), KS)
def test_strong_opacity_implies_weak_opacity(seed, n, k):
    des = random_det_instance(seed, n=n)
    if verify_strong(des, k).opaque:
        assert verify_weak(des, k).opaque


def _check_stopped_observer(des):
    pg = project(des)
    reveals = revealing_estimate(des)
    full = list(observer(pg).items())
    secret, nonsecret, u = mask_of(des.secret), mask_of(des.nonsecret), universal(pg)
    stopped = list(observer(pg, secret, nonsecret).items())
    first = next((i for i, (x, _link) in enumerate(full) if reveals(x)), None)
    assert stopped == full[: len(full) if first is None else first + 1]
    seeds = list(compute_seeds(dict(stopped), secret, nonsecret, Subsumption(u)).items())
    full_seeds = list(compute_seeds(dict(full), secret, nonsecret, Subsumption(u)).items())
    assert seeds == full_seeds[: len(seeds)]
    if first is None:
        return
    # the stopped seeds end with the revealing estimate's pairs (q, 0), its
    # secret states up to the first universal one; the first of them is the
    # full seeds' first revealing pair, where the product search stops
    x = full[first][0]
    tail = [pair for pair, root in seeds if root == x]
    secrets = states_of(x & secret)
    cut = next((i for i, q in enumerate(secrets) if u >> q & 1), len(secrets) - 1)
    assert tail == [(q, 0) for q in secrets[: cut + 1]]
    assert [pair for pair, _root in seeds[-len(tail):]] == tail
    assert next(pair for pair, _root in full_seeds if not pair[1]) == tail[0]


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(SEEDS, st.integers(6, 16))
def test_stopped_observer_is_prefix_with_same_seeds_weak(seed, n):
    _check_stopped_observer(random_weak_instance(seed, n=n))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(SEEDS, st.integers(8, 20))
def test_stopped_observer_is_prefix_with_same_seeds_reduced(seed, n):
    # G' of a deterministic system, as verify_strong builds it
    _check_stopped_observer(strong_to_weak(normalize(random_det_instance(seed, n=n))))
