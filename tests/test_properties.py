"""Invariances of the verifiers on systems past the oracles' exhaustive sizes.

Renaming the states or adding states that no run reaches changes nothing a
verdict depends on, so the verdict, the violation depth (the length of the
witness's continuation) and the observer's size must not change either.
The witness's observation may: ties between seeds are broken by state index.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from desopacity import INFINITE, Des, verify_strong, verify_weak

from conftest import random_det_instance, random_weak_instance

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
