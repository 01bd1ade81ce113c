"""Verification of weak k-step opacity.

The verifier harvests seed pairs (secret state, nonsecret estimate) from
the observer, then runs a level-bounded breadth-first search over the
product of the projected automaton with the full-observer dynamics.  The
system is opaque iff no product state with an empty estimate is reachable
from a seed within k observable steps.  The search stops at the first such
state it discovers.  The witness's observation and continuation are read
off the observer's and the product's search maps by one walk, ``path_to``.

The observer search itself ends at its first revealing estimate, one with
a secret state and no nonsecret state.  Its map is then the full observer's
discovery order up to that estimate, seeding over it ends at that
estimate's revealing root as it would over the full map, and the product
search stops at that root at once.  So only ``observer_states`` depends on
the early stop: it counts the estimates discovered, up to and including the
first revealing one.

Both the seeds and the product search skip pairs through one
``Subsumption``.  With U the projection's universal states, those that can
follow every observation, a pair (q, Z') is skipped when

- (a) Z' holds a state of U: every step of Z' then holds one too, so the
  estimate never becomes empty and (q, Z') never reveals;
- or (b) a pair (p, Z) with p in U and Z ⊆ Z' is kept: p can follow any
  observation that q makes.

The searches' own duplicate checks drop exact repeats: the product
search's ``marked``, and ``compute_seeds``'s first root per pair.  The
order "p in U and Z ⊆ Z'" is a simulation on the product: each move of
(q, Z') on an event is matched by a move of (p, Z) to a pair below it,
because the step is monotone in the estimate, and an empty Z' forces an
empty Z.  So any violation within j steps of (q, Z') is matched within j
steps of (p, Z), and the breadth-first order keeps (p, Z) no later than
(q, Z').  Rule (a) does not change the discovery order of the kept pairs
either, as a pair whose estimate holds a state of U has only such
successors.  So the verdict and the violation depth are those of the
unpruned search at every k, and fewer product states are explored.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

# INFINITE is re-exported: callers import the k bound from this module.
from .automata import (  # noqa: F401
    INFINITE,
    Des,
    KBound,
    Subsumption,
    bounded_bfs,
    check_k,
    mask_of,
    observer,
    path_to,
    product_successors,
    project,
    universal,
)


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


def compute_seeds(obs: dict, secret: int, nonsecret: int, kept: Subsumption) -> dict:
    """Product roots: (secret state q, nonsecret estimate Z) -> estimate X.

    One root per pair of a reachable estimate X (a key of the observer map
    ``obs``, which may be a prefix stopped at the first revealing estimate)
    and secret state q in X, with Z = X & ``nonsecret`` (masks), unless
    ``kept`` skips it; the pair keeps its first X.  Rule (a), Z holds a
    universal state, and rule (b), an earlier root (p, Y) with p universal
    has Y ⊆ Z, do not depend on q, so they are tested once per estimate.
    Roots follow the observer's discovery order, so the estimate a root
    maps to has a shortest observation, ties broken by event-table order.
    An estimate whose secret and nonsecret states equal an earlier one's
    gives the same roots, so it is skipped.  The roots end at the first
    revealing one (q, 0), where the product search stops; it comes from the
    first revealing estimate, so a prefix of ``obs`` that ends there gives
    the same roots as all of it.
    """
    seeds = {}
    harvested = set()  # X & (secret | nonsecret) of the estimates seen
    marked = secret | nonsecret
    for x in obs:
        secrets = x & secret
        key = x & marked
        if not secrets or key in harvested:
            continue
        harvested.add(key)
        z = x & nonsecret
        for q in kept.admit(secrets, z):
            seeds.setdefault((q, z), x)
            if not z:
                return seeds
    return seeds


def _revealing(vertex) -> bool:
    """A product state whose nonsecret estimate is empty."""
    return not vertex[1]


def verify_weak(des: Des, k: KBound) -> Verdict:
    """Decide weak k-step opacity, with a witness on violation.

    Nothing here validates the witness; the tests and the benchmark check
    each one with ``oracle.validate_weak_witness``.
    """
    k = check_k(k)
    secret, nonsecret = mask_of(des.secret), mask_of(des.nonsecret)
    pg = project(des)
    # a revealing estimate: no nonsecret state (tested first, as most
    # estimates have one) and some secret state
    obs = observer(pg, stop=lambda x: not x & nonsecret and x & secret)
    kept = Subsumption(universal(pg))
    roots = compute_seeds(obs, secret, nonsecret, kept)
    marked, depth = bounded_bfs(product_successors(pg, kept), roots, k, stop=_revealing)

    n = des.state_count
    assert len(marked) <= n * 2 ** n, "product exploration exceeded the n*2^n bound"

    stats = VerifyStats(len(obs), len({z for _q, z in marked if z}), len(marked), depth)
    v = next(reversed(marked), None)
    if v is None or not _revealing(v):
        return Verdict(True, None, stats)
    root, nu = path_to(marked, v)
    x = roots[root]
    _initial, mu = path_to(obs, x)
    names = pg.event_names
    return Verdict(False, Witness(tuple(names[j] for j in mu), root[0], tuple(names[j] for j in nu), x), stats)
