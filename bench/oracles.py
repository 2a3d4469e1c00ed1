"""Independent answers for the ring and menu workloads.

Neither oracle calls moma: both read the generators' own arrays.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog

from inputs import Menu, Ring


def ring_lra(r: Ring) -> float:
    """Optimal long-run average reward of the ring, as a linear program over
    state-action frequencies x: maximize sum x * rho subject to flow balance
    and sum x * tau = 1, where tau is the mean sojourn time (1/rate on
    Markovian states, 0 on probabilistic ones) and rho the expected reward of
    one visit.  The whole ring is one end component, so the optimum is the
    same from every state."""
    cols = [(s, action, dist) for s in range(r.n) for action, dist in r.choices(s)]
    A_eq = np.zeros((r.n + 1, len(cols)))
    rho = np.zeros(len(cols))
    for c, (s, action, dist) in enumerate(cols):
        A_eq[s, c] += 1.0
        for t, p in dist.items():
            A_eq[t, c] -= p
        if r.rates[s] > 0.0:
            A_eq[r.n, c] = 1.0 / r.rates[s]
            rho[c] = r.state_reward[s] / r.rates[s]
        elif action == "skip":
            rho[c] = r.skip_reward[s]
    b_eq = np.zeros(r.n + 1)
    b_eq[-1] = 1.0
    res = linprog(-rho, A_eq=A_eq, b_eq=b_eq, bounds=[(0.0, None)] * len(cols),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"ring oracle LP failed: {res.message}")
    return float(-res.fun)


def menu_support(m: Menu, normal) -> float:
    """h(normal) = sum over stages of the best action's normal . reward, the
    largest value of normal . x over all strategies (user orientation)."""
    return float(np.sum(np.max(m.rewards @ np.asarray(normal), axis=1)))


def menu_value(m: Menu, strategy: dict[str, str]) -> np.ndarray:
    """Value vector of a deterministic strategy given by stage -> action name."""
    L = m.rewards.shape[0]
    picks = [int(strategy[f"stage{i}"][1:]) for i in range(L)]
    return m.rewards[np.arange(L), picks].sum(axis=0)


def menu_slice_max(m: Menu, thresholds) -> float:
    """Largest first objective subject to the thresholds on the others, over
    per-stage mixtures of actions (an LP; mixtures reach every point of the
    achievable set here).  A "min" objective's threshold is an upper bound."""
    L, A, dims = m.rewards.shape
    R = m.rewards.reshape(L * A, dims)
    sign = np.array([1.0 if d == "max" else -1.0 for d in m.directions])
    A_ub = -(R[:, 1:] * sign[1:]).T
    b_ub = -np.asarray(thresholds) * sign[1:]
    A_eq = np.kron(np.eye(L), np.ones((1, A)))
    res = linprog(-sign[0] * R[:, 0], A_ub=A_ub, b_ub=b_ub, A_eq=A_eq,
                  b_eq=np.ones(L), bounds=[(0.0, None)] * (L * A), method="highs")
    if res.status != 0:
        raise RuntimeError(f"menu slice LP failed: {res.message}")
    return float(-res.fun) * sign[0]
