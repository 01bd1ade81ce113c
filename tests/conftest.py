import dataclasses
import importlib.util
import json
import math
import sys
from collections import deque
from pathlib import Path

from desopacity import INFINITE, Des, is_deterministic, make_events, mask_of, states_of
from desopacity.automata import union_rows
from desopacity.oracle import GeneratorParams, OracleBounds, _adjacency, _close, _step, random_des, simulate_observation


def random_weak_instance(seed, n=4, obs=2, unobs=1, density=1.2, secret=0.3, neutral=0.3):
    params = GeneratorParams(
        state_count=n,
        observable_event_count=obs,
        unobservable_event_count=unobs,
        transition_density=density,
        secret_fraction=secret,
        deterministic=False,
        rng_seed=seed,
        allow_neutral=True,
        neutral_fraction=neutral,
    )
    return random_des(params)


def random_det_instance(seed, n=4, obs=2, unobs=1, density=0.8, secret=0.3):
    params = GeneratorParams(
        state_count=n,
        observable_event_count=obs,
        unobservable_event_count=unobs,
        transition_density=density,
        secret_fraction=secret,
        deterministic=True,
        rng_seed=seed,
    )
    return random_des(params)


BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def _benchmark_workloads():
    """The benchmark's ``workloads`` module, loaded read-only."""
    workloads = sys.modules.get("benchmark_workloads")
    if workloads is None:
        spec = importlib.util.spec_from_file_location("benchmark_workloads", BENCHMARK / "workloads.py")
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    return workloads


def pinned_pool(workload):
    """The systems of one pool in the benchmark's ``pinned.json``, built by
    the benchmark's own ``workloads.build_instance`` (both read-only)."""
    entries = json.loads((BENCHMARK / "pinned.json").read_text())["workloads"][workload]
    return [_benchmark_workloads().build_instance(entry) for entry in entries]


def benchmark_nth_letter(n):
    """The benchmark's ``nth_letter_des(n)``, read-only."""
    return _benchmark_workloads().nth_letter_des(n)


def neutral_start_nth_letter(n):
    """The benchmark's ``nth_letter_des(n)`` with state 0 neutral and states
    1..n-1 nonsecret: state 0 is universal but no longer nonsecret, so
    every estimate holding the secret state n seeds its own pair (n, Z),
    2^(n-1) distinct seeds of one state."""
    return dataclasses.replace(benchmark_nth_letter(n), nonsecret=frozenset(range(1, n)))


def shadowed_nth_letter(n):
    """The first family whose cost is in the product search: the benchmark's
    ``nth_letter_des(n)`` on a and b with all n + 1 states nonsecret, a
    secret copy s of state 0 (s -a,b-> s, s -a-> 1), initial states {0, s},
    and an observable c that no transition carries, so that no state is
    universal and no pair is pruned.  n + 2 states, 2^n estimates, OPAQUE
    at every k, with 2^(n-1)·(2 + min(k, n)) product states explored."""
    base = benchmark_nth_letter(n)
    a, b = base.events.index("a"), base.events.index("b")
    s = n + 1
    return Des(
        state_count=n + 2,
        events=make_events([*base.events.names, "c"]),
        transitions=base.transitions | {(s, a, s), (s, b, s), (s, a, 1)},
        initial=frozenset({0, s}),
        secret=frozenset({s}),
        nonsecret=frozenset(range(n + 1)),
    )


def late_reveal(n):
    """``shadowed_nth_letter(n)`` with neutral states t_1..t_n (2n + 2
    states): s -a-> t_1, t_i -a,b-> t_(i+1) and t_n -c-> t_n.  The run
    a^n c reveals the secret s n + 1 observations after it, since no
    nonsecret state follows c: OPAQUE exactly for k <= n, with 2^n + 1
    estimates and (1 + min(k, n))·2^n product states explored, plus 1 when
    NOT_OPAQUE, at depth n + 1."""
    base = shadowed_nth_letter(n)
    a, b, c = (base.events.index(name) for name in "abc")
    s, t = n + 1, range(n + 2, 2 * n + 2)  # t[i] is t_(i+1)
    moves = {(s, a, t[0]), (t[-1], c, t[-1])} | {(t[i], e, t[i + 1]) for i in range(n - 1) for e in (a, b)}
    return dataclasses.replace(base, state_count=2 * n + 2, transitions=base.transitions | moves, state_names=None)


def det_shadowed(n):
    """The strong counterpart of ``shadowed_nth_letter``, deterministic:
    0 -a,b-> 0, 0 -u-> p, p -a-> 1 and i -a,b-> i+1 for i = 1..n-1; a
    secret s entered by 0 -v-> s, with s -a,b-> s and s -u-> p; and an
    observable c that no transition carries.  u and v are unobservable,
    and every state but s is nonsecret.  n + 3 states (p = n + 1,
    s = n + 2), initial state 0.  Strongly OPAQUE at every k, with 2^n
    estimates; ``verify_strong`` explores (n + 6)·2^n product states at
    k >= 1 and (n + 8)·2^(n-1) at k = 0."""
    events = make_events(["a", "b", "c"], ["u", "v"])
    a, b, u, v = (events.index(name) for name in "abuv")
    p, s = n + 1, n + 2
    transitions = {(0, a, 0), (0, b, 0), (0, u, p), (p, a, 1), (0, v, s), (s, a, s), (s, b, s), (s, u, p)}
    transitions |= {(i, e, i + 1) for i in range(1, n) for e in (a, b)}
    return Des(
        state_count=n + 3,
        events=events,
        transitions=frozenset(transitions),
        initial=frozenset({0}),
        secret=frozenset({s}),
        nonsecret=frozenset(range(n + 2)),
    )


def revealing_estimate(des):
    """The observer's stop predicate in ``verify_weak``: an estimate with a
    secret state and no nonsecret one."""
    secret, nonsecret = mask_of(des.secret), mask_of(des.nonsecret)
    return lambda x: bool(x & secret and not x & nonsecret)


def reference_observer(pg, stop=None):
    """The observer as a plain BFS over ``pg.packed``: an estimate x steps
    to event j's slice of ``union_rows(pg.packed, x)``, not through the
    kernel tables.  Maps each nonempty estimate to its (parent estimate,
    event index) link, or None for the initial one, in discovery order, and
    ends at the first discovered estimate where ``stop`` holds."""
    n = pg.state_count
    full = (1 << n) - 1
    marked = {pg.initial: None}
    if stop is not None and stop(pg.initial):
        return marked
    queue = deque([pg.initial])
    while queue:
        x = queue.popleft()
        y = union_rows(pg.packed, x)
        for j in range(len(pg.event_names)):
            z = y >> j * n & full
            if z and z not in marked:
                marked[z] = (x, j)
                if stop is not None and stop(z):
                    return marked
                queue.append(z)
    return marked


def reference_product_search(rows, kept, roots, k, stop=lambda v: not v[1]):
    """The product search as a plain BFS with a distance per pair, over
    ``rows`` (``oracle_rows``) instead of the projection: a pair (q, Z)
    moves on event j to (q', Z') for each q' in ``rows[j][q]``, with Z' the
    union of ``rows[j]`` over Z, in event order, then state order, and only
    to the pairs that ``kept`` admits.  Returns (marked, depth): ``marked``
    maps each pair within k steps of the ``roots`` to its (parent pair,
    event index) link, or None for a root, in discovery order, and
    ``depth`` is the distance of its last pair.  The search ends at the
    first discovered pair where ``stop`` holds, by default one with an
    empty estimate.  Shares no code with ``weak.bounded_bfs``."""
    marked, distance = {}, {}
    for v in roots:
        if v in marked:
            continue
        marked[v], distance[v] = None, 0
        if stop(v):
            return marked, 0
    queue = deque(marked)
    while queue:
        u = queue.popleft()
        if distance[u] == k:
            continue
        q, z = u
        for j, row in enumerate(rows):
            z2 = union_rows(row, z)
            for q2 in states_of(kept.admit(row[q], z2)):
                v = (q2, z2)
                if v in marked:
                    continue
                marked[v], distance[v] = (u, j), distance[u] + 1
                if stop(v):
                    return marked, distance[v]
                queue.append(v)
    return marked, distance[next(reversed(marked))] if marked else 0


def oracle_rows(des):
    """Per observable event in event-table order, per state q: the mask of
    states the oracle's simulation reaches from {q} on that one event.  A
    reference for the projection that shares no code with ``project``: the
    steps of ``simulate_observation``, with its adjacency built once."""
    adj, uadj = _adjacency(des)
    closures = [_close(uadj, {q}) for q in range(des.state_count)]
    return [[mask_of(_step(adj, uadj, closure, e)) for closure in closures] for e in des.events.observable_indices()]


def two_way_violation_depth(des):
    """The least k at which ``des`` is not weakly k-step opaque, or None if it
    is weakly k-step opaque at every k: the two-way observer of Yin and
    Lafortune (Automatica 80, 2017), on ``oracle_rows``.

    X ranges over the forward estimates, one per observation mu; Y_nu is the
    set of states from which the continuation nu can be observed, found by a
    backward subset search from all states (Y of the empty nu), level by
    level in |nu|.  A violation at depth |nu| is a pair with X ∩ Y_nu holding
    a secret state and no nonsecret one.  Shares no code with ``project``,
    ``observer`` or the product search.
    """
    rows = oracle_rows(des)
    secret, nonsecret = mask_of(des.secret), mask_of(des.nonsecret)

    def image(row, x):
        out = 0
        for q, targets in enumerate(row):
            if x >> q & 1:
                out |= targets
        return out

    start = mask_of(simulate_observation(des, des.initial, ()))
    estimates, stack = {start}, [start]
    while stack:
        x = stack.pop()
        for row in rows:
            x2 = image(row, x)
            if x2 and x2 not in estimates:
                estimates.add(x2)
                stack.append(x2)
    parts = {(x & secret, x & nonsecret) for x in estimates}
    everything = (1 << des.state_count) - 1
    level, reached, depth = [everything], {everything}, 0
    while level:
        if any(s & y and not ns & y for y in level for s, ns in parts):
            return depth
        following = []
        for y in level:
            for row in rows:
                y2 = mask_of(q for q, targets in enumerate(row) if targets & y)
                if y2 and y2 not in reached:
                    reached.add(y2)
                    following.append(y2)
        level, depth = following, depth + 1
    return None


def two_way_strong_violation_depth(des):
    """The least k at which the deterministic ``des`` is not strongly k-step
    opaque, or None if it is strongly k-step opaque at every k: a two-way
    check in the manner of Yin and Lafortune (Automatica 80, 2017), for the
    strong notion that the oracle's ``_covered`` decides.  An observation
    w = mu nu is covered iff some run observing w is in no secret state
    from mu's last observable event on, with |nu| = k (or mu empty).

    E_mu is the set of states that mu's last observable event enters, {q0}
    for the empty mu; it is not closed under unobservable moves, as the
    states they reach count too.  Y_nu holds the states from which nu can
    be observed, and N_nu the nonsecret states from which some run
    observing nu visits only nonsecret states; Y of the empty nu is all
    states and N the nonsecret ones.  Y_nu and N_nu are built backward,
    level by level in |nu|.  The depth is the least |nu| with E_mu meeting
    Y_nu and missing N_nu.  An empty ``nonsecret`` is read as the
    complement of ``secret``.  Works on plain transition masks and shares
    no code with ``normalize``, ``strong_to_weak``, ``project`` or the
    observer.
    """
    n = des.state_count
    everything = (1 << n) - 1
    nonsecret = mask_of(des.nonsecret) or everything & ~mask_of(des.secret)
    unobservable, unobservable_back, rows, back_rows = [0] * n, [0] * n, {}, {}
    for (p, e, q) in des.transitions:
        if des.events[e].observable:
            rows.setdefault(e, [0] * n)[p] |= 1 << q
            back_rows.setdefault(e, [0] * n)[q] |= 1 << p
        else:
            unobservable[p] |= 1 << q
            unobservable_back[q] |= 1 << p

    def image(row, mask):
        out = 0
        for q in range(n):
            if mask >> q & 1:
                out |= row[q]
        return out

    def reach(succ, mask, within):
        frontier = mask
        while frontier:
            frontier = image(succ, frontier) & within & ~mask
            mask |= frontier
        return mask

    start = mask_of(des.initial)
    entered, stack = {start}, [start]
    while stack:
        closed = reach(unobservable, stack.pop(), everything)
        for row in rows.values():
            e = image(row, closed)
            if e and e not in entered:
                entered.add(e)
                stack.append(e)
    level, reached, depth = [(everything, nonsecret)], {(everything, nonsecret)}, 0
    while level:
        if any(e & y and not e & ns for y, ns in level for e in entered):
            return depth
        following = []
        for y, ns in level:
            for row in back_rows.values():
                y2 = reach(unobservable_back, image(row, y), everything)
                ns2 = reach(unobservable_back, image(row, ns) & nonsecret, nonsecret)
                if y2 and (y2, ns2) not in reached:
                    reached.add((y2, ns2))
                    following.append((y2, ns2))
        level, depth = following, depth + 1
    return None


def exhaustive_weak_bounds(des, k):
    # estimates repeat after 2^n observations; continuation pairs after 4^n
    n = des.state_count
    nu_cap = 4 ** n
    nu_max = nu_cap if k is INFINITE or k == math.inf else min(k, nu_cap)
    return OracleBounds(mu_max=2 ** n, nu_max=nu_max)


def exhaustive_strong_bounds(des, k):
    # (state, run-history signature) nodes repeat after n*(k+3)^n strings
    n = des.state_count
    per_state = 3 ** n if k is INFINITE or k == math.inf else (k + 3) ** n
    return OracleBounds(mu_max=n * per_state, nu_max=0)


def normalize_reference(des):
    """``normalize`` built literally as the doubled construction: double the
    state space (the copy of q is q + n, secret, named q with primes until
    the name is free), (1) redirect the unobservable secret-to-nonsecret
    transitions to the copies, (2) copy the unobservable transitions between
    copies, (3) let copies rejoin the originals on observable events, then
    keep what a plain BFS over the transition triples reaches, in index
    order.  Takes the deterministic inputs ``normalize`` takes."""
    n = des.state_count
    nonsecret = des.nonsecret or frozenset(range(n)) - des.secret
    names = list(des.state_names)
    for q in range(n):
        name = names[q] + "'"
        while name in names:
            name += "'"
        names.append(name)
    secret = des.secret | frozenset(range(n, 2 * n))
    unobservable = {e for e, event in enumerate(des.events.entries) if not event.observable}
    delta = set()
    for (p, e, q) in des.transitions:
        if e in unobservable and p in des.secret and q in nonsecret:
            delta.add((p, e, q + n))  # (1) redirect
        else:
            delta.add((p, e, q))
    for (p, e, q) in des.transitions:
        if e in unobservable:
            delta.add((p + n, e, q + n))  # (2) copy
        else:
            delta.add((p + n, e, q))  # (3) rejoin
    reached = set(des.initial)
    queue = deque(des.initial)
    while queue:
        p = queue.popleft()
        for (source, _e, q) in delta:
            if source == p and q not in reached:
                reached.add(q)
                queue.append(q)
    kept = sorted(reached)
    new = {q: i for i, q in enumerate(kept)}
    return Des(
        state_count=len(kept),
        events=des.events,
        transitions=frozenset((new[p], e, new[q]) for (p, e, q) in delta if p in reached),
        initial=frozenset(new[q] for q in des.initial),
        secret=frozenset(new[q] for q in kept if q in secret),
        nonsecret=frozenset(new[q] for q in kept if q in nonsecret),
        state_names=tuple(names[q] for q in kept),
    )


def language_equivalent(a: Des, b: Des) -> bool:
    """Equality of the generated (prefix-closed) languages of two deterministic DES.

    Decided by synchronized traversal of the two transition structures,
    comparing which events are defined at each reachable state pair.
    """
    if not is_deterministic(a) or not is_deterministic(b):
        raise ValueError("language equivalence requires deterministic inputs")
    if a.events != b.events:
        raise ValueError("language equivalence requires identical event tables")
    (adj_a, _), (adj_b, _) = _adjacency(a), _adjacency(b)
    start = (next(iter(a.initial)), next(iter(b.initial)))
    seen = {start}
    queue = deque([start])
    while queue:
        pa, pb = queue.popleft()
        for e in range(len(a.events)):
            ta = adj_a.get((pa, e))
            tb = adj_b.get((pb, e))
            if (ta is None) != (tb is None):
                return False
            if ta is None:
                continue
            pair = (next(iter(ta)), next(iter(tb)))
            if pair not in seen:
                seen.add(pair)
                queue.append(pair)
    return True
