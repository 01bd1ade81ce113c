"""Verification of weak k-step opacity.

The verifier harvests seed pairs (secret state, nonsecret estimate) from
the observer, then runs ``bounded_bfs``, one level-bounded breadth-first
loop over the product of the projected automaton with the full-observer
dynamics that steps, admits and records parent links inline.  The system
is opaque iff no product state with an empty estimate is reachable from a
seed within k observable steps.  The search stops at the first such state
it discovers.  The witness's continuation is read off the product's
search map by ``path_to``, and its observation off the observer's parent
estimates by ``observation``.

The observer search itself ends at its first revealing estimate x, one
with a secret state and no nonsecret state.  Weak k-step opacity implies
current-state opacity, so x is a violation at every k, and the verifier
answers it without seeds or product: x's lowest secret state, the empty
continuation.  ``observer_states`` counts the estimates up to and
including x.

Both the seeds and the product search skip pairs through one
``Subsumption``.  Let U be the projection's universal states: the greatest
set in which every state has, on every observable event, a successor in
U, so a state of U can follow every observation.  A pair (q, Z') is
skipped when

- (a) Z' holds a state of U: every step of Z' then holds one too, so the
  estimate never becomes empty and (q, Z') never reveals;
- or (b) a pair (p, Z) with p in U and Z ⊆ Z' is kept: p can follow any
  observation that q makes.

Neither rule depends on q, so each is tested once per estimate in seeding
and once per event slice in the product search.  The searches' own
duplicate checks drop exact repeats: the product search's ``marked``, and
``compute_seeds``'s first root per pair.  The order "p in U and Z ⊆ Z'"
is a simulation on the product: each move of (q, Z') on an event is
matched by a move of (p, Z) to a pair below it, because the step is
monotone in the estimate, and an empty Z' forces an empty Z.  So any
violation within j steps of (q, Z') is matched within j steps of (p, Z),
and the breadth-first order keeps (p, Z) no later than (q, Z').  Once a
pair (p, Z) with p in U is kept, rule (b) skips every other pair with
estimate Z, so admission stops there.  Rule (a) does not change the
discovery order of the kept pairs either, as a pair whose estimate holds a
state of U has only such successors.  So the verdict and the violation
depth are those of the unpruned search at every k, and fewer product
states are explored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Union

from .automata import Des, Projection, mask_of, observation, observer, project, states_of

# k is a nonnegative int or INFINITE.
KBound = Union[int, float]
INFINITE: KBound = math.inf


def check_k(k: KBound) -> KBound:
    if k == math.inf:
        return INFINITE
    # bool subclasses int, but True is not a step count
    if isinstance(k, int) and not isinstance(k, bool) and k >= 0:
        return k
    raise ValueError("k must be a nonnegative integer or INFINITE")


@dataclass(frozen=True)
class Witness:
    """An opacity violation at observation level: after observing ``mu`` the
    system may be in ``secret_state``, and the continuation ``nu`` has no
    matching run through a nonsecret state.  ``origin_estimate`` is the
    observer's estimate (a state mask) after ``mu``."""

    mu: tuple
    secret_state: int
    nu: tuple
    origin_estimate: int


@dataclass(frozen=True)
class VerifyStats:
    """Counters of one verification; ``--stats`` prints each field in order."""

    observer_states: int
    h_states: int
    product_states_explored: int
    bfs_depth: int


@dataclass(frozen=True)
class Verdict:
    opaque: bool
    witness: Optional[Witness]
    stats: VerifyStats

    def __post_init__(self):
        if self.opaque == (self.witness is not None):
            raise ValueError("witness must be present exactly when not opaque")


def universal(pg: Projection) -> int:
    """The mask of the projection's universal states U, found by dropping
    states until none is dropped; with no observable event, all of them."""
    n = pg.state_count
    offsets = range(0, n * len(pg.event_names), n)
    kept = (1 << n) - 1
    dropped = True
    while dropped:
        dropped = False
        for q in states_of(kept):
            row = pg.packed[q]
            for offset in offsets:
                if not (row >> offset) & kept:
                    kept ^= 1 << q
                    dropped = True
                    break
    return kept


class Subsumption:
    """The pairs kept so far in one product search, seeds first, and the
    rules (a) and (b) that skip a pair given them."""

    def __init__(self, universal: int):
        self.universal = universal
        self.dominating = []  # estimates of the kept pairs (p, Y) with p in U

    def admit(self, states: int, z: int) -> int:
        """The mask of the states q of the mask ``states`` whose pair (q, z)
        is kept: 0 when rule (a) or (b) skips z, else the states up to and
        including the lowest universal one, whose pair is recorded for rule
        (b).  A pair of a state outside U may be admitted again."""
        universal = self.universal
        if z & universal:
            return 0
        for y in self.dominating:
            if not y & ~z:
                return 0
        u = states & universal
        if u:
            self.dominating.append(z)
            states &= (u & -u) * 2 - 1
        return states


def compute_seeds(obs: dict, secret: int, nonsecret: int, kept: Subsumption) -> dict:
    """Product roots: (secret state q, nonsecret estimate Z) -> estimate X.

    One root per pair of a reachable estimate X (a key of the observer map
    ``obs``, which ``verify_weak`` passes only when the observer ran to
    the end) and secret state q in X, with Z = X & ``nonsecret`` (masks),
    that ``kept`` admits; the pair keeps its first X.  Roots follow the
    observer's discovery order, so the estimate a root maps to has a
    shortest observation, ties broken by event-table order.
    An estimate whose secret and nonsecret states equal an earlier one's
    gives the same roots, so it is skipped.
    """
    seeds = {}
    harvested = set()  # X & (secret | nonsecret) of the estimates seen
    marked = secret | nonsecret
    for x in obs:
        secrets = x & secret
        if not secrets:
            continue
        key = x & marked
        if key in harvested:
            continue
        harvested.add(key)
        z = x & nonsecret
        for q in states_of(kept.admit(secrets, z)):
            seeds.setdefault((q, z), x)
    return seeds


def bounded_bfs(pg: Projection, kept: Subsumption, roots: Iterable, k: KBound):
    """The product search: every pair (q, Z) within k observable steps of
    the ``roots`` that ``kept`` admits, up to the first pair whose estimate
    Z is empty, roots included.  k is checked by the caller.

    A pair (q, Z) moves on event j to (q', Z') for every state q' in event
    j's slice of ``pg.packed[q]``, where Z' is event j's slice of
    ``pg.step(Z)``; its successors are taken in event order, then state
    order, and only those that ``kept`` admits.  Each expanded pair is
    stepped once.  Returns (marked, depth): ``marked`` maps each pair to
    its parent link (parent pair, event index), or None for a root, in
    discovery order, and ``depth`` is the last level that had pairs.  A
    pair with an empty estimate is never expanded: it is the last key of
    ``marked``, which is then the discovery order of the search without
    that stop up to it.

    The search keeps one level number and two pair lists, the frontier and
    the next level, instead of a per-pair distance, so its memory does not
    grow with k.
    """
    packed = pg.packed
    step = pg.step
    n = pg.state_count
    full = (1 << n) - 1
    admit = kept.admit
    marked = {}
    frontier = []
    for v in roots:
        if v not in marked:
            marked[v] = None
            if not v[1]:
                return marked, 0
            frontier.append(v)
    level = 0
    while frontier and level < k:
        following = []
        for u in frontier:
            q, z = u
            row = packed[q]
            y = step(z)
            j = 0
            while row:
                states = row & full
                if states:
                    z2 = y & full
                    for q2 in states_of(admit(states, z2)):
                        v = (q2, z2)
                        if v not in marked:
                            marked[v] = (u, j)
                            if not z2:
                                return marked, level + 1
                            following.append(v)
                row >>= n
                y >>= n
                j += 1
        if not following:
            break
        frontier = following
        level += 1
    return marked, level


def path_to(marked: dict, v) -> tuple:
    """(root, events): the root that ``v``'s parent chain in ``marked``
    starts from, and the event indices along the chain from that root to
    ``v``."""
    events = []
    while marked[v] is not None:
        v, j = marked[v]
        events.append(j)
    events.reverse()
    return v, tuple(events)


def verify_weak(des: Des, k: KBound) -> Verdict:
    """Decide weak k-step opacity, with a witness on violation.

    Nothing here validates the witness; the tests and the benchmark check
    each one with ``oracle.validate_weak_witness``.
    """
    k = check_k(k)
    secret, nonsecret = mask_of(des.secret), mask_of(des.nonsecret)
    pg = project(des)
    # the observer stops at its first revealing estimate, then its last key
    obs = observer(pg, secret, nonsecret)
    x = next(reversed(obs))
    if not x & nonsecret and x & secret:
        return Verdict(False, _witness(pg, obs, x, states_of(x & secret)[0], ()), VerifyStats(len(obs), 0, 1, 0))
    kept = Subsumption(universal(pg))
    roots = compute_seeds(obs, secret, nonsecret, kept)
    marked, depth = bounded_bfs(pg, kept, roots, k)

    n = des.state_count
    assert len(marked) <= n * 2 ** n, "product exploration exceeded the n*2^n bound"

    stats = VerifyStats(len(obs), len({z for _q, z in marked if z}), len(marked), depth)
    v = next(reversed(marked), None)
    if v is None or v[1]:
        return Verdict(True, None, stats)
    root, nu = path_to(marked, v)
    return Verdict(False, _witness(pg, obs, roots[root], root[0], nu), stats)


def _witness(pg: Projection, obs: dict, x: int, q: int, nu: tuple) -> Witness:
    """The violation from secret state q of the observer's estimate x with
    the continuation ``nu`` (event indices), its events named."""
    names = pg.event_names
    mu = observation(pg, obs, x)
    return Witness(tuple(names[j] for j in mu), q, tuple(names[j] for j in nu), x)
