"""Verification of strong k-step opacity by reduction to the weak verifier.

Strong opacity is defined for deterministic systems without neutral states.
Every system is first normalized by one search from its initial state:
unobservable transitions from secret to nonsecret states are redirected
into a secret copy of the state space, and only the states the search
reaches are kept.  The normalized system is then transformed: a nonsecret
copy of its nonsecret part is attached through a fresh unobservable event,
all original states become secret, and weak k-step opacity of the result
coincides with strong k-step opacity of the input.

``verify_strong`` runs ``normalize``, then ``strong_to_weak``, then the weak
verifier.  ``reduce_to_weak`` and its one-field ``ReductionResult`` are the
seam that the CLI's ``verify-strong``, the benchmark's checks and tracing,
and the one test that pins it read (as ``reduce_to_weak(des)[1].des_prime``);
they go once the CLI calls ``verify_strong`` (item 3b in ROADMAP.md).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .automata import Des, Event, EventTable, is_deterministic
from .weak import KBound, Verdict, verify_weak


@dataclass(frozen=True)
class ReductionResult:
    des_prime: Des


def _strong_input(des: Des) -> Des:
    """The one strong-mode input rule: a deterministic system in which every
    state is secret or nonsecret, an empty ``nonsecret`` read as the
    complement of ``secret``."""
    if not is_deterministic(des):
        raise ValueError("strong opacity is defined for deterministic systems only")
    if not des.nonsecret:
        des = replace(des, nonsecret=frozenset(range(des.state_count)) - des.secret)
    if len(des.secret | des.nonsecret) != des.state_count:
        raise ValueError("strong opacity requires every state to be secret or nonsecret")
    return des


def is_normal(des: Des) -> bool:
    """True iff no unobservable transition leaves a secret state into a nonsecret one."""
    unobs = set(des.events.unobservable_indices())
    for (p, e, q) in des.transitions:
        if e in unobs and p in des.secret and q not in des.secret:
            return False
    return True


def _prime_names(des: Des) -> tuple:
    names = [des.state_name(q) for q in range(des.state_count)]
    used = set(names)
    primes = []
    for base in names:
        cand = base + "'"
        while cand in used:
            cand += "'"
        used.add(cand)
        primes.append(cand)
    return tuple(names), tuple(primes)


def normalize(des: Des) -> Des:
    """Redirect unobservable secret-to-nonsecret transitions into a secret copy.

    One search from the initial state runs over the states q and their
    copies q + n.  An unobservable move from a copy, or from a secret state
    into a nonsecret one, enters the target's copy; every other move enters
    the original target.  Only the states the search reaches are kept, the
    originals first and then the copies, each in index order.
    """
    des = _strong_input(des)
    n = des.state_count
    unobs = set(des.events.unobservable_indices())
    out = [[] for _ in range(n)]
    for (p, e, q) in des.transitions:
        out[p].append((e, q))
    seen = set(des.initial)
    queue = list(seen)
    moves = []
    for p in queue:
        for (e, q) in out[p % n]:
            if e in unobs and (p >= n or p in des.secret and q in des.nonsecret):
                q += n
            moves.append((p, e, q))
            if q not in seen:
                seen.add(q)
                queue.append(q)
    kept = sorted(seen)
    remap = {old: new for new, old in enumerate(kept)}
    names, primes = _prime_names(des)
    names += primes
    return Des(
        state_count=len(kept),
        events=des.events,
        transitions=frozenset((remap[p], e, remap[q]) for (p, e, q) in moves),
        initial=frozenset(remap[q] for q in des.initial),
        secret=frozenset(remap[q] for q in kept if q >= n or q in des.secret),
        nonsecret=frozenset(remap[q] for q in kept if q in des.nonsecret),
        state_names=tuple(names[q] for q in kept),
    )


def _fresh_event_name(events: EventTable) -> str:
    taken = set(events.names)
    if "u" not in taken:
        return "u"
    i = 1
    while f"u{i}" in taken:
        i += 1
    return f"u{i}"


def strong_to_weak(des: Des) -> Des:
    """Attach a nonsecret copy of the nonsecret part via a fresh unobservable event.

    In the result all original states are secret and exactly the copies are
    nonsecret, so a weak violation means some run cannot hide its visit to a
    secret state during the last k observable steps.
    """
    des = _strong_input(des)
    if not is_normal(des):
        raise ValueError("the strong-to-weak transformation requires a normal input")
    n = des.state_count
    ns_sorted = sorted(des.nonsecret)
    copy_map = {q: n + i for i, q in enumerate(ns_sorted)}
    events = EventTable(des.events.entries + (Event(_fresh_event_name(des.events), False),))
    fresh_index = len(des.events)
    delta = set(des.transitions)
    for (p, e, q) in des.transitions:
        if p in copy_map and q in copy_map:
            delta.add((copy_map[p], e, copy_map[q]))
    for q in ns_sorted:
        delta.add((q, fresh_index, copy_map[q]))
    names, primes = _prime_names(des)
    state_names = names + tuple(primes[q] for q in ns_sorted)
    return Des(
        state_count=n + len(ns_sorted),
        events=events,
        transitions=frozenset(delta),
        initial=des.initial,
        secret=frozenset(range(n)),
        nonsecret=frozenset(copy_map.values()),
        state_names=state_names,
    )


def reduce_to_weak(des: Des) -> tuple:
    """Normalization, which always runs, followed by the strong-to-weak
    transformation.  Returns (normalized system, reduction)."""
    des_n = normalize(des)
    return des_n, ReductionResult(strong_to_weak(des_n))


def verify_strong(des: Des, k: KBound) -> Verdict:
    """Decide strong k-step opacity via the weak verifier.

    The witness, if any, indexes ``strong_to_weak(normalize(des))``, which
    drops the unreachable states even of a normal input; its observation
    strings are over the original observable alphabet.
    """
    return verify_weak(strong_to_weak(normalize(des)), k)
