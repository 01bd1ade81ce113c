"""Verification of weak k-step opacity.

The verifier harvests seed pairs (secret state, nonsecret estimate) from
the observer, then runs a level-bounded breadth-first search over the
product of the projected automaton with the full-observer dynamics.  The
system is opaque iff no product state with an empty estimate is reachable
from a seed within k observable steps.  The search stops at the first such
state it discovers.

The BFS keeps one level number and two vertex lists, the frontier and the
next level, instead of a per-vertex distance, so its memory does not grow
with k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from .automata import Des, ObserverAutomaton, mask_of, observer, product_successors, project, states_of

# k is a nonnegative int or INFINITE.
KBound = Union[int, float]
INFINITE: KBound = math.inf


def check_k(k: KBound) -> KBound:
    if k is INFINITE or k == math.inf:
        return INFINITE
    if isinstance(k, int) and k >= 0:
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
    observer_states: int
    h_states: int
    product_states_explored: int
    bfs_depth_reached: int


@dataclass(frozen=True)
class Verdict:
    opaque: bool
    witness: Optional[Witness]
    stats: VerifyStats

    def __post_init__(self):
        if self.opaque == (self.witness is not None):
            raise ValueError("witness must be present exactly when not opaque")


def compute_seeds(obs: ObserverAutomaton, secret: int, nonsecret: int) -> dict:
    """Product roots: (secret state q, nonsecret estimate Z) -> observer state index.

    One root per reachable estimate X and secret state q in X, with
    Z = X & ``nonsecret`` (masks).  Roots follow the observer's discovery
    order and the first occurrence of a pair wins, so the observer state it
    maps to has a shortest observation, ties broken by event-table order.
    """
    seeds = {}
    for i, x in enumerate(obs.states):
        secrets = x & secret
        if secrets:
            z = x & nonsecret
            for q in states_of(secrets):
                seeds.setdefault((q, z), i)
    return seeds


def bounded_bfs(successors: Callable, seeds: Iterable, k: KBound, stop: Optional[Callable] = None):
    """Mark all vertices within distance k of the seeds.

    ``successors(v)`` yields (label, vertex) pairs.  Returns (marked, depth)
    where ``marked`` maps each vertex to its parent link (parent vertex,
    label) or None for seeds, in discovery order, and ``depth`` is the last
    level that had vertices.  If ``stop(v)`` holds for a discovered vertex,
    the search ends there: that vertex is the last key of ``marked``, and
    ``marked`` is the full search's discovery order up to it.
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


def _revealing(vertex) -> bool:
    """A product state whose nonsecret estimate is empty."""
    return not vertex[1]


def verify_weak(des: Des, k: KBound) -> Verdict:
    """Decide weak k-step opacity, with a witness on violation.

    Nothing here validates the witness; the tests and the benchmark check
    each one with ``oracle.validate_weak_witness``.
    """
    k = check_k(k)
    pg = project(des)
    obs = observer(pg)
    roots = compute_seeds(obs, mask_of(des.secret), mask_of(des.nonsecret))
    marked, depth = bounded_bfs(product_successors(pg), roots, k, stop=_revealing)

    n = des.state_count
    assert len(marked) <= n * 2 ** n, "product exploration exceeded the n*2^n bound"

    stats = VerifyStats(len(obs.states), len({z for _q, z in marked if z}), len(marked), depth)
    v = next(reversed(marked), None)
    if v is None or not _revealing(v):
        return Verdict(True, None, stats)
    nu = []
    while marked[v] is not None:
        v, j = marked[v]
        nu.append(pg.event_names[j])
    nu.reverse()
    i = roots[v]
    return Verdict(False, Witness(obs.observation(i), v[0], tuple(nu), obs.states[i]), stats)
