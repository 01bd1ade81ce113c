"""Core automata model for partially observed discrete-event systems.

A DES is a nondeterministic finite automaton whose alphabet is split into
observable and unobservable events, together with disjoint sets of secret
and nonsecret states.  This module provides the constructions that the
opacity verifiers are built from: projection onto the observable alphabet,
the level-bounded search, the subset-construction observer, and the
successors of the product of the projection with its full observer.

Sets of states inside these constructions are int bitmasks: bit q is set
iff state q is in the set, and the empty set is 0.  ``project`` computes
one step kernel per system, and the observer, the seeds and the product
all step through it.  The observer and the product are both searched by
``bounded_bfs``, and ``path_to`` reads a path off either search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

# k is a nonnegative int or INFINITE.
KBound = Union[int, float]
INFINITE: KBound = math.inf


@dataclass(frozen=True)
class Event:
    name: str
    observable: bool


@dataclass(frozen=True)
class EventTable:
    """Ordered alphabet with an observability flag per event: at least one
    event, names nonempty and distinct."""

    entries: tuple

    def __post_init__(self):
        if not self.entries:
            raise ValueError("event table must contain at least one event")
        seen = set()
        for e in self.entries:
            if not e.name:
                raise ValueError("event names must be nonempty")
            if e.name in seen:
                raise ValueError(f"duplicate event name: {e.name!r}")
            seen.add(e.name)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> Event:
        return self.entries[i]

    def index(self, name: str) -> int:
        for i, e in enumerate(self.entries):
            if e.name == name:
                return i
        raise KeyError(name)

    @property
    def names(self) -> tuple:
        return tuple(e.name for e in self.entries)

    def observable_indices(self) -> tuple:
        return tuple(i for i, e in enumerate(self.entries) if e.observable)

    def unobservable_indices(self) -> tuple:
        return tuple(i for i, e in enumerate(self.entries) if not e.observable)


def make_events(observable: Iterable[str] = (), unobservable: Iterable[str] = ()) -> EventTable:
    entries = [Event(n, True) for n in observable]
    entries += [Event(n, False) for n in unobservable]
    return EventTable(tuple(entries))


@dataclass(frozen=True)
class Des:
    """A finite automaton with event observability and a secret partition.

    States are indices 0..state_count-1, named ``str(q)`` unless
    ``state_names`` is given.  Construction checks the model's rules,
    raising ``ValueError``: at least one state, distinct state names, a
    nonempty initial set, indices in range, and disjoint ``secret`` and
    ``nonsecret``; states in neither set are neutral.  The event table
    checks its own rules.  Immutable after construction.
    """

    state_count: int
    events: EventTable
    transitions: frozenset  # of (source, event, target) index triples
    initial: frozenset
    secret: frozenset = frozenset()
    nonsecret: frozenset = frozenset()
    state_names: Optional[tuple] = None

    def __post_init__(self):
        n = self.state_count
        if n <= 0:
            raise ValueError("a system needs at least one state")
        if not self.initial:
            raise ValueError("initial state set must be nonempty")
        for group in (self.initial, self.secret, self.nonsecret):
            if any(not (0 <= q < n) for q in group):
                raise ValueError("state index out of range")
        if self.secret & self.nonsecret:
            raise ValueError("secret and nonsecret sets intersect")
        m = len(self.events)
        for (p, e, q) in self.transitions:
            if not (0 <= p < n and 0 <= q < n):
                raise ValueError("transition state index out of range")
            if not (0 <= e < m):
                raise ValueError("transition event index out of range")
        if self.state_names is None:
            object.__setattr__(self, "state_names", tuple(str(q) for q in range(n)))
        if len(self.state_names) != n:
            raise ValueError("state_names length must match state_count")
        if len(set(self.state_names)) != n:
            raise ValueError("duplicate state name")

    def state_name(self, q: int) -> str:
        return self.state_names[q]


def mask_of(states: Iterable[int]) -> int:
    """The bitmask of a set of state indices."""
    mask = 0
    for q in states:
        mask |= 1 << q
    return mask


def states_of(mask: int) -> tuple:
    """The state indices in ``mask``, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def union_rows(row, mask: int) -> int:
    """Union of ``row[q]`` over the states q in ``mask``: the kernel's inner loop."""
    out = 0
    while mask:
        low = mask & -mask
        out |= row[low.bit_length() - 1]
        mask ^= low
    return out


def _closure(succ: list, mask: int) -> int:
    """States reachable from ``mask`` along the per-state successor masks ``succ``."""
    frontier = mask
    while frontier:
        frontier = union_rows(succ, frontier) & ~mask
        mask |= frontier
    return mask


def _unobservable_successors(des: Des) -> list:
    """Per state, the mask of its successors on unobservable events."""
    observable = [e.observable for e in des.events.entries]
    succ = [0] * des.state_count
    for (p, e, q) in des.transitions:
        if not observable[e]:
            succ[p] |= 1 << q
    return succ


@dataclass(frozen=True)
class Projection:
    """The projected automaton, as a step kernel over state masks.

    ``rows[j][q]`` is the mask of states reachable from q by a string
    ``u* o u*`` whose one observable event o is ``event_names[j]``;
    ``initial`` is the unobservable reach of the initial states.  Event
    names follow event-table order.  Unobservable reach distributes over
    union, so the step of a set Z on event j is ``union_rows(rows[j], Z)``
    and no closure runs per set.
    """

    event_names: tuple
    rows: tuple
    initial: int


def project(des: Des) -> Projection:
    """Projection onto the observable alphabet: the unobservable closure of
    each state is computed once, and each row closes one observable step."""
    unobservable = _unobservable_successors(des)
    closures = [_closure(unobservable, 1 << q) for q in range(des.state_count)]
    columns = {e: j for j, e in enumerate(des.events.observable_indices())}
    succ = [[0] * des.state_count for _ in columns]
    for (p, e, q) in des.transitions:
        j = columns.get(e)
        if j is not None:
            succ[j][p] |= 1 << q
    rows = tuple(
        tuple(union_rows(closures, union_rows(step, closures[q])) for q in range(des.state_count))
        for step in succ
    )
    return Projection(
        event_names=tuple(des.events[e].name for e in columns),
        rows=rows,
        initial=union_rows(closures, mask_of(des.initial)),
    )


def check_k(k: KBound) -> KBound:
    if k == math.inf:
        return INFINITE
    if isinstance(k, int) and k >= 0:
        return k
    raise ValueError("k must be a nonnegative integer or INFINITE")


def bounded_bfs(successors: Callable, seeds: Iterable, k: KBound, stop: Optional[Callable] = None):
    """Mark all vertices within distance k of the seeds.

    ``successors(v)`` yields (label, vertex) pairs.  Returns (marked, depth)
    where ``marked`` maps each vertex to its parent link (parent vertex,
    label) or None for seeds, in discovery order, and ``depth`` is the last
    level that had vertices.  If ``stop(v)`` holds for a discovered vertex,
    the search ends there: that vertex is the last key of ``marked``, and
    ``marked`` is the full search's discovery order up to it.

    The search keeps one level number and two vertex lists, the frontier
    and the next level, instead of a per-vertex distance, so its memory
    does not grow with k.
    """
    k = check_k(k)
    marked = {}
    frontier = []
    for s in seeds:
        if s not in marked:
            marked[s] = None
            if stop is not None and stop(s):
                return marked, 0
            frontier.append(s)
    level = 0
    while frontier and level < k:
        following = []
        for u in frontier:
            for label, v in successors(u):
                if v not in marked:
                    marked[v] = (u, label)
                    if stop is not None and stop(v):
                        return marked, level + 1
                    following.append(v)
        if not following:
            break
        frontier = following
        level += 1
    return marked, level


def path_to(marked: dict, v) -> tuple:
    """(root, labels): the seed that ``v``'s parent chain in ``marked`` starts
    from, and the labels along the chain from that seed to ``v``."""
    labels = []
    while marked[v] is not None:
        v, label = marked[v]
        labels.append(label)
    labels.reverse()
    return v, tuple(labels)


def observer(pg: Projection) -> dict:
    """Subset construction over the projection's rows, reachable part only.

    Maps each nonempty estimate (a mask) to its BFS parent link (parent
    estimate, event index), or None for the initial estimate, in discovery
    order.  So the initial estimate comes first, and ``path_to`` gives a
    shortest observation reaching an estimate, ties broken by event-table
    order.  The empty estimate is never stored.
    """
    events = tuple(enumerate(pg.rows))

    def successors(x):
        for j, row in events:
            y = union_rows(row, x)
            if y:
                yield j, y

    return bounded_bfs(successors, (pg.initial,), INFINITE)[0]


def subsumed(masks, z: int) -> bool:
    """Whether some mask in ``masks`` is a subset of ``z``."""
    for y in masks:
        if not y & ~z:
            return True
    return False


def product_successors(pg: Projection, seeds: Iterable) -> Callable:
    """Successor function of the product of the projection with its full
    observer, pruned by subsumption for one search from ``seeds``.

    A vertex is (q, Z): a state and an estimate mask.  On event j it moves
    to (q', union_rows(rows[j], Z)) for every q' in ``rows[j][q]``, as (j,
    vertex) pairs in event order and then state order.  Z = 0 is the empty
    estimate and stays 0.  Each distinct Z is stepped once.

    It keeps, per state q, the masks of the vertices admitted so far, the
    seeds first, and yields only a vertex (q, Z') that no admitted (q, Z)
    with Z ⊆ Z' subsumes, admitting it; ``weak.py`` states why this is
    sound.  Being stateful, the function serves one search.
    """
    targets = tuple(enumerate(tuple(states_of(mask) for mask in row) for row in pg.rows))
    stepped = {}
    seen = set()  # vertices admitted or found subsumed
    admitted = {}  # q -> masks of the admitted vertices with state q
    for q, z in seeds:
        seen.add((q, z))
        admitted.setdefault(q, []).append(z)

    def successors(vertex):
        q, z = vertex
        z_next = stepped.get(z)
        if z_next is None:
            z_next = stepped[z] = tuple(union_rows(row, z) for row in pg.rows)
        for j, row in targets:
            z2 = z_next[j]
            for q2 in row[q]:
                v = (q2, z2)
                if v in seen:
                    continue
                seen.add(v)
                masks = admitted.setdefault(q2, [])
                if not subsumed(masks, z2):
                    masks.append(z2)
                    yield j, v

    return successors


def accessible(des: Des) -> Des:
    """Restriction to states reachable from the initial set, densely
    reindexed; the relative order of the kept states is preserved."""
    succ = [0] * des.state_count
    for (p, _e, q) in des.transitions:
        succ[p] |= 1 << q
    kept = states_of(_closure(succ, mask_of(des.initial)))
    remap = {old: new for new, old in enumerate(kept)}
    return Des(
        state_count=len(kept),
        events=des.events,
        transitions=frozenset(
            (remap[p], e, remap[q])
            for (p, e, q) in des.transitions
            if p in remap and q in remap
        ),
        initial=frozenset(remap[q] for q in des.initial),
        secret=frozenset(remap[q] for q in des.secret if q in remap),
        nonsecret=frozenset(remap[q] for q in des.nonsecret if q in remap),
        state_names=tuple(des.state_names[q] for q in kept),
    )


def is_deterministic(des: Des) -> bool:
    if len(des.initial) != 1:
        return False
    seen = set()
    for (p, e, _q) in des.transitions:
        if (p, e) in seen:
            return False
        seen.add((p, e))
    return True
