"""Core automata model for partially observed discrete-event systems.

A DES is a nondeterministic finite automaton whose alphabet is split into
observable and unobservable events, together with disjoint sets of secret
and nonsecret states.  This module provides the generic constructions
that the opacity verifiers are built from: the model, projection onto the
observable alphabet and its step kernel, and the subset-construction
observer with the observations read off it.

Sets of states inside these constructions are int bitmasks: bit q is set
iff state q is in the set, and the empty set is 0.  The projection has one
representation: per state, one packed int of its successors on every
observable event, event j's at bit offset j·n for n states.  ``project``
builds the rows in one pass over the strongly connected components of the
unobservable graph, O(n + m_u) unions for m_u unobservable moves.  The step
kernel tables, for each block of states, the union of their packed rows
over all subsets of the block, so stepping an estimate ORs one lookup per
block and reads each event's successor off with a shift and a mask.  Up to
16 states a block holds 8 states, and with 9 to 16 states, two tables, the
step is two lookups ORed, with no loop.  Above 16 states a block holds 6,
a table of 64 entries in place of 256: cheaper to build, for searches that
step few estimates.  The observer, the weak verifier's product and the DOT
export step through this kernel.  The observer runs its own breadth-first
loop and records only each estimate's parent estimate, from which
``observation`` reads an observation back; it stops at the first estimate
that meets a ``secret`` mask and misses a ``nonsecret`` mask, tested
inline.  The weak verifier's product runs its own loop in ``weak.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

# States per lookup table of the step kernel, a table of 2^width entries:
# BLOCK for systems of up to 2 * BLOCK states, NARROW above.
BLOCK = 8
BYTE = (1 << BLOCK) - 1
NARROW = 6


def _check_names(names: tuple) -> None:
    """Reject a name that holds a line break or does not encode as UTF-8
    (a lone surrogate): the CLI prints each name inside one line of its
    UTF-8 output.  Some name fails a test iff the names joined do, so valid
    names cost one scan of the joined names per test."""
    joined = "".join(names)
    if joined.splitlines() not in ([], [joined]):
        bad = next(name for name in names if name.splitlines() not in ([], [name]))
        raise ValueError(f"name {bad!r} contains a line break")
    try:
        joined.encode("utf-8")
    except UnicodeEncodeError as exc:
        bad = next(name for name in names if exc.object[exc.start] in name)
        raise ValueError(f"name {bad!r} does not encode as UTF-8") from None


@dataclass(frozen=True)
class Event:
    name: str
    observable: bool


@dataclass(frozen=True)
class EventTable:
    """Ordered alphabet with an observability flag per event: at least one
    event, names nonempty, distinct, without a line break and encodable as
    UTF-8."""

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
        _check_names(self.names)

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
    raising ``ValueError``: at least one state, distinct state names
    without a line break and encodable as UTF-8, a nonempty initial set,
    indices in range, and disjoint ``secret`` and ``nonsecret``; states in
    neither set are neutral.  The event table checks its own rules.
    Immutable after construction.
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
        _check_names(self.state_names)

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
    ``_condense``'s union over a component's mask, and ``project``'s initial
    reach."""
    out = 0
    while mask:
        low = mask & -mask
        out |= row[low.bit_length() - 1]
        mask ^= low
    return out


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
    lookup per block of 8 states of Z, or of 6 above 16 states; the tables
    are an index built from ``packed``.
    """

    event_names: tuple
    packed: tuple
    initial: int
    state_count: int
    step: Callable[[int], int] = field(compare=False, repr=False)


def _step_kernel(packed: tuple) -> Callable[[int], int]:
    """The step over ``packed``, a ``Projection``'s packed rows.

    A block's table maps each subset of the block's states to the union of
    their packed rows; it is built by doubling, one state per pass, so a
    block of w states costs 2^w ORs.  Up to 16 states a block holds 8: with
    two tables (9 to 16 states) the step has no loop, one lookup per byte
    ORed, and an estimate holds no state beyond ``len(packed)``, so the
    high byte needs no mask.  Above 16 states a block holds 6 and the step
    loops over the tables, a quarter the size: a search there seldom steps
    enough estimates to pay back the build of tables of 256.  A step then
    makes ceil(n/6) lookups for n states against ceil(n/8): as many at 17
    and 18 states, one more from 19 to 24.
    """
    width = BLOCK if len(packed) <= 2 * BLOCK else NARROW
    part = (1 << width) - 1
    tables = []
    for base in range(0, len(packed), width):
        table = [0]
        for row in packed[base:base + width]:
            table += [v | row for v in table]
        tables.append(table)

    if len(tables) == 2:
        low, high = tables

        def step(mask: int) -> int:
            return low[mask & BYTE] | high[mask >> BLOCK]

        return step

    def step(mask: int) -> int:
        out = 0
        for table in tables:
            out |= table[mask & part]
            mask >>= width
        return out

    return step


def _components(succ: list) -> list:
    """The strongly connected components of the graph whose state q has the
    successor mask ``succ[q]``, each after every component it reaches, by
    Tarjan's algorithm (SIAM J. Comput. 1(2), 1972) with explicit stacks.
    Each is a pair: the list of its states, and the mask of them and their
    successors.  A state with no successor is in none: it reaches itself."""
    index = [0] * len(succ)  # 1 + DFS number
    low = [0] * len(succ)
    fresh = mask_of(q for q, row in enumerate(succ) if row)  # not yet visited
    path = []  # the DFS path
    stack = []  # Tarjan's stack, and ``on`` its mask
    on = count = 0
    comps = []
    while True:
        todo = fresh & succ[path[-1]] if path else fresh
        if todo:
            bit = todo & -todo
            fresh ^= bit
            p = bit.bit_length() - 1
            count += 1
            index[p] = low[p] = count
            # the edges into the stack, read at p's visit: a successor
            # visited after p has a higher number, and lowers no low-link
            back = succ[p] & on
            while back:
                q = (back & -back).bit_length() - 1
                back ^= 1 << q
                low[p] = min(low[p], index[q])
            on |= bit
            stack.append(p)
            path.append(p)
            continue
        if not path:
            return comps
        p = path.pop()
        if path and low[p] < low[path[-1]]:
            low[path[-1]] = low[p]  # and p, above its parent, is no root
        elif low[p] == index[p]:
            members = []
            reach = 1 << p
            q = None
            while q != p:
                q = stack.pop()
                members.append(q)
                on ^= 1 << q
                reach |= succ[q]
            comps.append((members, reach))


def _condense(comps: list, rows: list) -> list:
    """Per state q, the union of ``rows[r]`` over the states r that q
    reaches, q included, given the graph's ``_components``: a component's
    union is ``out``'s over its mask, where its own states still hold their
    rows and each other state is done or reaches only itself."""
    out = list(rows)
    for members, reach in comps:
        row = union_rows(out, reach)
        for q in members:
            out[q] = row
    return out


def project(des: Des) -> Projection:
    """Projection onto the observable alphabet: the unobservable graph's
    components give each state's unobservable closure, each observable
    move p -e_j-> q puts the closure of q into p's moves at event j's
    offset, and the components give each state's packed row, the union of
    the moves over its closure: O(n + m_u) unions for m_u unobservable
    moves."""
    n = des.state_count
    offsets = {e: j * n for j, e in enumerate(des.events.observable_indices())}
    unobservable = [0] * n
    for (p, e, q) in des.transitions:
        if e not in offsets:
            unobservable[p] |= 1 << q
    comps = _components(unobservable)
    closures = _condense(comps, [1 << q for q in range(n)])
    moves = [0] * n
    for (p, e, q) in des.transitions:
        offset = offsets.get(e)
        if offset is not None:
            moves[p] |= closures[q] << offset
    packed = tuple(_condense(comps, moves))
    return Projection(
        event_names=tuple(des.events[e].name for e in offsets),
        packed=packed,
        initial=union_rows(closures, mask_of(des.initial)),
        state_count=n,
        step=_step_kernel(packed),
    )


def observer(pg: Projection, secret: int = 0, nonsecret: int = 0) -> dict:
    """Subset construction over the projection's kernel, reachable part only.

    Maps each nonempty estimate (a mask) to its BFS parent, the estimate it
    was first stepped from, or None for the initial estimate, in discovery
    order.  Each estimate is stepped once, and its successors are taken in
    event order, so the initial estimate comes first, and ``observation``
    reads off a shortest observation reaching an estimate, ties broken by
    event-table order.  The empty estimate is never stored.  The search
    ends at the first discovered estimate x that meets the mask ``secret``
    and misses the mask ``nonsecret``: the map is then the full observer's
    discovery order up to and including x.  With the default masks it
    never ends early.
    """
    step = pg.step
    n = pg.state_count
    full = (1 << n) - 1
    x = pg.initial
    parents = {x: None}
    # the nonsecret test first: most estimates hold a nonsecret state
    if not x & nonsecret and x & secret:
        return parents
    queue = [x]  # parents' keys, read in order while the search appends
    for x in queue:
        y = step(x)
        while y:
            z = y & full
            if z and z not in parents:
                parents[z] = x
                if not z & nonsecret and z & secret:
                    return parents
                queue.append(z)
            y >>= n
    return parents


def observation(pg: Projection, obs: dict, x: int) -> tuple:
    """The event indices of the observation that the observer map ``obs``
    records for its estimate ``x``: along the parent chain from the initial
    estimate, each edge's event is the first whose slice of the parent's
    step is the child.  The observer steps a parent once and takes its
    successors in event order, so that is the event the child was found on.
    """
    n = pg.state_count
    full = (1 << n) - 1
    events = []
    parent = obs[x]
    while parent is not None:
        y = pg.step(parent)
        j = 0
        while (y >> j * n) & full != x:
            j += 1
        events.append(j)
        x, parent = parent, obs[parent]
    events.reverse()
    return tuple(events)


def is_deterministic(des: Des) -> bool:
    if len(des.initial) != 1:
        return False
    seen = set()
    for (p, e, _q) in des.transitions:
        if (p, e) in seen:
            return False
        seen.add((p, e))
    return True
