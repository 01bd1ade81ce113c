"""Core automata model for partially observed discrete-event systems.

A DES is a nondeterministic finite automaton whose alphabet is split into
observable and unobservable events, together with disjoint sets of secret
and nonsecret states.  This module provides the constructions that the
opacity verifiers are built from: projection onto the observable alphabet,
the level-bounded search, the subset-construction observer, and the
successors of the product of the projection with its full observer.

Sets of states inside these constructions are int bitmasks: bit q is set
iff state q is in the set, and the empty set is 0.  The projection has one
representation: per state, one packed int of its successors on every
observable event, event j's at bit offset j·n for n states.  The step
kernel tables, for each block of 8 states, the union of their packed rows
over all 256 subsets of the block, so stepping an estimate ORs one lookup
per 8 states and reads each event's successor off with a shift and a mask.
The observer, the product and the DOT export step through this kernel,
and the product steps each pair it expands once.
The observer and the product are both searched by ``bounded_bfs``, and
``path_to`` reads a path off either search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

# k is a nonnegative int or INFINITE.
KBound = Union[int, float]
INFINITE: KBound = math.inf

# States per lookup table of the step kernel: each table has 2^BLOCK entries.
BLOCK = 8
BYTE = (1 << BLOCK) - 1


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
    """Union of ``row[q]`` over the states q in ``mask``, one state at a time:
    a closure's step, and ``project``'s union of packed rows over a closure."""
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
    """The projected automaton, as one packed row per state.

    Event j's slice of ``packed[q]``, at bit offset ``j * state_count``, is
    the mask of states reachable from q by a string ``u* o u*`` whose one
    observable event o is ``event_names[j]``; shifting right by the offset
    and masking with ``(1 << state_count) - 1`` reads it off.  ``initial``
    is the unobservable reach of the initial states.  Event names follow
    event-table order.  Unobservable reach distributes over union, so the
    step of a set Z on every event is the union of ``packed[q]`` over q in
    Z, and no closure runs per set.  ``step(Z)`` is that union, one table
    lookup per 8 states of Z; the tables are an index built from ``packed``.
    """

    event_names: tuple
    packed: tuple
    initial: int
    state_count: int
    step: Callable[[int], int] = field(compare=False, repr=False)


def _step_kernel(packed: tuple) -> Callable[[int], int]:
    """The step over ``packed``, a ``Projection``'s packed rows.

    A block's table maps each byte of the estimate to the union of the
    packed rows of its states; it is built by doubling, one state per pass.
    """
    tables = []
    for base in range(0, len(packed), BLOCK):
        table = [0]
        for row in packed[base:base + BLOCK]:
            table += [v | row for v in table]
        tables.append(table)

    def step(mask: int) -> int:
        out = 0
        for table in tables:
            out |= table[mask & BYTE]
            mask >>= BLOCK
        return out

    return step


def project(des: Des) -> Projection:
    """Projection onto the observable alphabet: the unobservable closure of
    each state is computed once, each observable move p -e_j-> q puts the
    closure of q into p's moves at event j's offset, and a state's packed
    row is the union of the moves over its closure."""
    n = des.state_count
    unobservable = _unobservable_successors(des)
    closures = [_closure(unobservable, 1 << q) for q in range(n)]
    offsets = {e: j * n for j, e in enumerate(des.events.observable_indices())}
    moves = [0] * n
    for (p, e, q) in des.transitions:
        offset = offsets.get(e)
        if offset is not None:
            moves[p] |= closures[q] << offset
    packed = tuple(union_rows(moves, closures[q]) for q in range(n))
    return Projection(
        event_names=tuple(des.events[e].name for e in offsets),
        packed=packed,
        initial=union_rows(closures, mask_of(des.initial)),
        state_count=n,
        step=_step_kernel(packed),
    )


def check_k(k: KBound) -> KBound:
    if k == math.inf:
        return INFINITE
    # bool subclasses int, but True is not a step count
    if isinstance(k, int) and not isinstance(k, bool) and k >= 0:
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


def estimate_successors(pg: Projection) -> Callable:
    """Successor function of the observer: for an estimate x, the (event
    index, estimate) pairs of its nonempty steps, in event order, each read
    off one packed ``pg.step(x)``."""
    step = pg.step
    n = pg.state_count
    full = (1 << n) - 1

    def successors(x):
        y = step(x)
        j = 0
        while y:
            z = y & full
            if z:
                yield j, z
            y >>= n
            j += 1

    return successors


def observer(pg: Projection, stop: Optional[Callable] = None) -> dict:
    """Subset construction over the projection's kernel, reachable part only.

    Maps each nonempty estimate (a mask) to its BFS parent link (parent
    estimate, event index), or None for the initial estimate, in discovery
    order.  So the initial estimate comes first, and ``path_to`` gives a
    shortest observation reaching an estimate, ties broken by event-table
    order.  The empty estimate is never stored.  If ``stop(x)`` holds for a
    discovered estimate x, the search ends there: the map is the full
    observer's discovery order up to and including x (``bounded_bfs``).
    """
    return bounded_bfs(estimate_successors(pg), (pg.initial,), INFINITE, stop)[0]


def universal(pg: Projection) -> int:
    """The mask of the projection's universal states: the greatest set U in
    which every state has, on every observable event, a successor in U.

    A universal state can follow every observation, so it simulates every
    state.  States are dropped, reading each event's slice of
    ``pg.packed[q]``, until none is dropped; with no observable event every
    state is universal.
    """
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


def subsumed(masks, z: int) -> bool:
    """Whether some mask in ``masks`` is a subset of ``z``."""
    for y in masks:
        if not y & ~z:
            return True
    return False


class Subsumption:
    """The rules that skip a pair in one product search, seeds first.

    With U the projection's ``universal`` states, (q, Z) is skipped when
    (a) Z holds a state of U, or (b) a kept (p, Y) with p in U has Y ⊆ Z.
    The search drops exact repeats itself.  ``weak.py`` states why this is
    sound.
    """

    def __init__(self, universal: int):
        self.universal = universal
        self.dominating = []  # estimates of the kept pairs (p, Y) with p in U

    def admit(self, states: int, z: int):
        """Yield, in ascending order, each state q of the mask ``states`` whose
        pair (q, z) is kept.  Rules (a) and (b) do not depend on q, so they
        are tested once, before any state is read off the mask; once a
        universal q is kept, z is dominating and rule (b) skips the rest,
        and any later repeat of (q, z)."""
        universal = self.universal
        if z & universal or subsumed(self.dominating, z):
            return
        while states:
            low = states & -states
            states ^= low
            q = low.bit_length() - 1
            if universal & low:
                self.dominating.append(z)
                yield q
                return
            yield q


def product_successors(pg: Projection, kept: Subsumption) -> Callable:
    """Successor function of the product of the projection with its full
    observer, pruned by subsumption for one search whose seeds ``kept`` holds.

    A vertex is (q, Z): a state and an estimate mask.  On event j it moves
    to (q', Z') for every q' in event j's slice of ``pg.packed[q]``, where
    Z' is event j's slice of ``pg.step(Z)``, as (j, vertex) pairs in event
    order and then state order.  Z = 0 is the empty estimate and stays 0.
    Each expanded vertex is stepped once, and each event's targets and Z'
    are read off ``pg.packed[q]`` and the step with a shift and a mask.

    It yields only the vertices that ``kept`` admits: none when Z' holds a
    universal state (rule (a)) or a kept (p, Y) with p universal has
    Y ⊆ Z' (rule (b)), both tested once per event slice; ``weak.py`` states
    why this is sound.  It may yield a vertex again.  Being stateful, the
    function serves one search.
    """
    packed = pg.packed
    step = pg.step
    n = pg.state_count
    full = (1 << n) - 1
    admit = kept.admit

    def successors(vertex):
        q, z = vertex
        row = packed[q]
        y = step(z)
        j = 0
        while row:
            states = row & full
            if states:
                z2 = y & full
                for q2 in admit(states, z2):
                    yield j, (q2, z2)
            row >>= n
            y >>= n
            j += 1

    return successors


def is_deterministic(des: Des) -> bool:
    if len(des.initial) != 1:
        return False
    seen = set()
    for (p, e, _q) in des.transitions:
        if (p, e) in seen:
            return False
        seen.add((p, e))
    return True
