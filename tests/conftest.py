import math
from collections import deque

from desopacity import INFINITE, Des, is_deterministic
from desopacity.oracle import GeneratorParams, OracleBounds, _event_adj, random_des


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


def language_equivalent(a: Des, b: Des) -> bool:
    """Equality of the generated (prefix-closed) languages of two deterministic DES.

    Decided by synchronized traversal of the two transition structures,
    comparing which events are defined at each reachable state pair.
    """
    if not is_deterministic(a) or not is_deterministic(b):
        raise ValueError("language equivalence requires deterministic inputs")
    if a.events != b.events:
        raise ValueError("language equivalence requires identical event tables")
    adj_a = _event_adj(a)
    adj_b = _event_adj(b)
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
