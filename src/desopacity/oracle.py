"""Definition-level checkers for differential testing, plus a random generator.

Everything here works by direct simulation of the transition relation and
bounded enumeration of observation strings; none of it reuses the observer
or product code under test.  The searches are sound for any bounds (a find
is always a real violation) and exhaustive only when the bounds dominate
the relevant construction sizes, which the test harness arranges for tiny
instances.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

from .automata import Des, is_deterministic, make_events
from .weak import INFINITE, KBound, Witness, check_k


@dataclass(frozen=True)
class OracleBounds:
    mu_max: int
    nu_max: int

    def __post_init__(self):
        if self.mu_max < 0 or self.nu_max < 0:
            raise ValueError("oracle bounds must be nonnegative")


@dataclass(frozen=True)
class GeneratorParams:
    state_count: int
    observable_event_count: int
    unobservable_event_count: int
    transition_density: float
    secret_fraction: float
    deterministic: bool
    rng_seed: int
    allow_neutral: bool = False
    neutral_fraction: float = 0.0


def _unobs_adj(des: Des) -> dict:
    unobs = set(des.events.unobservable_indices())
    adj = {}
    for (p, e, q) in des.transitions:
        if e in unobs:
            adj.setdefault(p, set()).add(q)
    return adj


def _event_adj(des: Des) -> dict:
    adj = {}
    for (p, e, q) in des.transitions:
        adj.setdefault((p, e), set()).add(q)
    return adj


def _close(uadj: dict, states: Iterable[int]) -> frozenset:
    seen = set(states)
    work = list(seen)
    while work:
        p = work.pop()
        for q in uadj.get(p, ()):
            if q not in seen:
                seen.add(q)
                work.append(q)
    return frozenset(seen)


def simulate_observation(des: Des, start: Iterable[int], mu: Iterable[str]) -> frozenset:
    """delta(start, P^-1(mu)) by direct set simulation."""
    adj = _event_adj(des)
    uadj = _unobs_adj(des)
    current = _close(uadj, start)
    for name in mu:
        e = des.events.index(name)
        step = set()
        for p in current:
            step.update(adj.get((p, e), ()))
        current = _close(uadj, step)
        if not current:
            break
    return current


def _observable_names(des: Des) -> tuple:
    return tuple(des.events[i].name for i in des.events.observable_indices())


def weak_violation_search(des: Des, k: KBound, bounds: OracleBounds) -> Optional[tuple]:
    """First (mu, x, nu) violating weak k-step opacity, in length-lex order.

    Observation prefixes mu are explored breadth-first; prefixes whose
    estimate repeats an earlier one are skipped, since the violation
    condition depends on the estimate only.
    """
    k = check_k(k)
    names = _observable_names(des)
    adj = _event_adj(des)
    uadj = _unobs_adj(des)
    obs_events = des.events.observable_indices()
    nu_limit = min(k, bounds.nu_max)

    def close_step(states, e):
        step = set()
        for p in states:
            step.update(adj.get((p, e), ()))
        return _close(uadj, step)

    init = _close(uadj, des.initial)
    seen_estimates = {init}
    queue = deque([((), init)])
    while queue:
        mu, x = queue.popleft()
        for x_secret in sorted(x & des.secret):
            # P^-1(nu) starts with unobservable events, so close the seeds
            a0 = _close(uadj, [x_secret])
            b0 = _close(uadj, x & des.nonsecret)
            nu = _continuation_search(close_step, a0, b0, nu_limit, names, obs_events)
            if nu is not None:
                return mu, x_secret, nu
        if len(mu) >= bounds.mu_max:
            continue
        for e, name in zip(obs_events, names):
            x2 = close_step(x, e)
            if x2 and x2 not in seen_estimates:
                seen_estimates.add(x2)
                queue.append((mu + (name,), x2))
    return None


def _continuation_search(close_step, a0, b0, nu_limit, names, obs_events):
    """Shortest nu with a live run from the secret state but none from the
    nonsecret estimate; bounded pair-wise search over closed set pairs."""
    start = (a0, b0)
    seen = {start}
    queue = deque([((), start)])
    while queue:
        nu, (a, b) = queue.popleft()
        if a and not b:
            return nu
        if len(nu) >= nu_limit:
            continue
        for e, name in zip(obs_events, names):
            a2 = close_step(a, e)
            if not a2:
                continue  # extensions cannot witness a live secret run
            b2 = close_step(b, e)
            pair = (a2, b2)
            if pair not in seen:
                seen.add(pair)
                queue.append((nu + (name,), pair))
    return None


def validate_weak_witness(des: Des, k: KBound, witness: Witness) -> bool:
    """Check a weak-opacity witness against the definition by direct simulation."""
    k = check_k(k)
    if len(witness.nu) > k:
        return False
    obs_names = set(_observable_names(des))
    if any(n not in obs_names for n in witness.mu + witness.nu):
        return False
    x = simulate_observation(des, des.initial, witness.mu)
    if witness.secret_state not in (x & des.secret):
        return False
    if not simulate_observation(des, [witness.secret_state], witness.nu):
        return False
    if simulate_observation(des, x & des.nonsecret, witness.nu):
        return False
    return True


def _sig_safe_value(k: KBound):
    # per-run counter of observable steps since the last secret visit; a run
    # is safe iff the counter reached this value (k+1 steps ago, or never)
    return k + 1 if k is not INFINITE else 1


def _sig_close(des: Des, uadj: dict, pairs: Iterable) -> frozenset:
    """Unobservable closure of a signature: max counter per reachable state."""
    best = {}
    work = []
    for q, c in pairs:
        c2 = 0 if q in des.secret else c
        if best.get(q, -1) < c2:
            best[q] = c2
            work.append((q, c2))
    while work:
        p, c = work.pop()
        for q in uadj.get(p, ()):
            c2 = 0 if q in des.secret else c
            if best.get(q, -1) < c2:
                best[q] = c2
                work.append((q, c2))
    return frozenset(best.items())


def _sig_step(des: Des, adj: dict, uadj: dict, sig: frozenset, e: int, k: KBound) -> frozenset:
    bumped = []
    for q, c in sig:
        c2 = c if k is INFINITE else min(c + 1, k + 1)
        for t in adj.get((q, e), ()):
            bumped.append((t, c2))
    return _sig_close(des, uadj, bumped)


def strong_violation_search(des: Des, k: KBound, bounds: OracleBounds) -> Optional[tuple]:
    """First string s (length-lex order) whose observation reveals a secret visit
    within the last k observable steps of every matching run.

    Result-equivalent to enumerating every s in L(G) with |s| <= mu_max and
    checking each against the bounded run search; the walk prunes strings
    whose (state, run-history signature) pair repeats an earlier one, since
    both the generated continuations and the coverage of every extended
    observation are determined by that pair.  Only ``secret`` is read, so an
    empty ``nonsecret`` stands for the complement of ``secret``.
    """
    if not is_deterministic(des):
        raise ValueError("strong opacity is defined for deterministic systems only")
    if des.nonsecret and len(des.secret | des.nonsecret) != des.state_count:
        raise ValueError("strong opacity requires every state to be secret or nonsecret")
    k = check_k(k)
    adj = _event_adj(des)
    uadj = _unobs_adj(des)
    q0 = next(iter(des.initial))
    safe = _sig_safe_value(k)
    verdict_cache = {}

    def observation_is_covered(mu):
        """True iff some run with observation mu keeps its last k observable
        steps free of secret states (searched over runs of bounded length)."""
        got = verdict_cache.get(mu)
        if got is None:
            got = _covered(des, adj, q0, mu, k)
            verdict_cache[mu] = got
        return got

    sig0 = _sig_close(des, uadj, [(q0, safe)])
    seen = {(q0, sig0)}
    queue = deque([(q0, sig0, (), ())])  # (state, signature, string, observation)
    while queue:
        state, sig, s, mu = queue.popleft()
        if not observation_is_covered(mu):
            return s
        if len(s) >= bounds.mu_max:
            continue
        for e in range(len(des.events)):
            for t in sorted(adj.get((state, e), ())):
                name = des.events[e].name
                if des.events[e].observable:
                    sig2 = _sig_step(des, adj, uadj, sig, e, k)
                    mu2 = mu + (name,)
                else:
                    sig2, mu2 = sig, mu
                node = (t, sig2)
                if node not in seen:
                    seen.add(node)
                    queue.append((t, sig2, s + (name,), mu2))
    return None


def _covered(des: Des, adj, q0, mu, k) -> bool:
    """Search for a run w with P(w)=mu avoiding secret states whenever fewer
    than k observable steps remain.  Nodes are (state, observed-so-far), each
    enqueued at most once."""
    total = len(mu)
    mu_indices = [des.events.index(n) for n in mu]
    unobs = des.events.unobservable_indices()

    def blocked(state, pos):
        if state not in des.secret:
            return False
        return total - pos <= k

    start = (q0, 0)
    if blocked(q0, 0):
        return False
    seen = {start}
    queue = deque([start])
    while queue:
        state, pos = queue.popleft()
        if pos == total:
            return True
        nexts = []
        for e in unobs:
            for t in adj.get((state, e), ()):
                nexts.append((t, pos))
        for t in adj.get((state, mu_indices[pos]), ()):
            nexts.append((t, pos + 1))
        for node in nexts:
            if node not in seen and not blocked(*node):
                seen.add(node)
                queue.append(node)
    return False


def random_des(params: GeneratorParams) -> Des:
    """Reproducible random DES; state 0 is initial."""
    if params.state_count <= 0:
        raise ValueError("state_count must be positive")
    if params.observable_event_count < 0 or params.unobservable_event_count < 0:
        raise ValueError("event counts must be nonnegative")
    if params.observable_event_count + params.unobservable_event_count <= 0:
        raise ValueError("at least one event is required")
    if not (0.0 <= params.secret_fraction <= 1.0):
        raise ValueError("secret_fraction must lie in [0, 1]")
    if not params.transition_density >= 0.0:  # also rejects NaN
        raise ValueError("transition_density must be a nonnegative number")
    if params.deterministic and params.transition_density > 1.0:
        raise ValueError("deterministic generation needs transition_density <= 1")
    rng = random.Random(params.rng_seed)
    n = params.state_count

    def letters(count, prefix):
        if count <= 26:
            return [chr(ord("a") + i) for i in range(count)]
        return [f"{prefix}{i + 1}" for i in range(count)]

    events = make_events(
        letters(params.observable_event_count, "o"),
        [f"u{i + 1}" for i in range(params.unobservable_event_count)],
    )
    transitions = set()
    draw, threshold = rng.random, params.transition_density / n
    for p in range(n):
        for e in range(len(events)):
            if params.deterministic:
                if draw() < params.transition_density:
                    transitions.add((p, e, rng.randrange(n)))
            else:
                transitions.update([(p, e, q) for q in range(n) if draw() < threshold])
    secret = frozenset(q for q in range(n) if rng.random() < params.secret_fraction)
    rest = [q for q in range(n) if q not in secret]
    if params.allow_neutral:
        nonsecret = frozenset(q for q in rest if rng.random() >= params.neutral_fraction)
    else:
        nonsecret = frozenset(rest)
    return Des(
        state_count=n,
        events=events,
        transitions=frozenset(transitions),
        initial=frozenset([0]),
        secret=secret,
        nonsecret=nonsecret,
    )
