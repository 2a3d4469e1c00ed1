"""Single-objective solvers: exact chain evaluation, per-component long-run
averages, and certified maximal expected total rewards.

Solvers work on the flat choice view of a model (one sparse kernel row per
choice).  Long-run averages inside an end component come from gain/bias
strategy iteration with exact linear evaluation, certified by one uniformized
time tick from the final bias: Markovian states advance one damped tick, the
instantaneous probabilistic layer is closed to a fixed point, and the
classical span bounds on the gain then hold for any starting vector.
Total-reward maximization collapses zero-reward end components first; every
remaining non-target end component then drains strictly negative reward,
which makes the Bellman fixed point unique on the almost-sure reach region
and lets a verified inductive vector (T U <= U) certify the upper bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse import eye as speye
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import splu

from .model import (NEG_INF, InfeasibleError, MarkovAutomaton, MDStrategy,
                    ModelError, Objective, RewardAssignment, SolverError, _chosen,
                    _graph, flat, reach, reward_edges, strong_components)
from .components import (_stay_inside, almost_sure_reach,
                         decode_quotient_strategy, exits, quotient, zero_mecs)

_DENSE_LIMIT = 512


@dataclass
class ScalarSolution:
    """Result of one scalar optimization.

    `value` lies within `error_bound` (relative, floor 1) of the true optimum;
    `strategy` attains at least `lower`; [lower, upper] brackets the optimum.
    """

    value: float
    strategy: MDStrategy
    error_bound: float
    lower: float
    upper: float


@dataclass
class ChainEvaluation:
    """Exact per-objective values of a strategy, with the chain analysis that
    produced them: bottom SCCs, their reach probabilities from the initial
    state, and per-BSCC gains per objective (zero for totals)."""

    values: list[float]
    bsccs: list[frozenset[int]]
    reach_probs: list[float]
    gains: list[list[float]]


def _jump_rewards(m: MarkovAutomaton, r: RewardAssignment) -> np.ndarray:
    """Expected transition reward per choice: sum_t P(s,a,t) * r(s,a,t),
    summed in r's entry order."""
    fl = flat(m)
    e, v = reward_edges(m, r)
    return np.bincount(fl.edge_choice[e], weights=fl.prob[e] * v,
                       minlength=len(fl.choice_state))


def _state_reward_vec(m: MarkovAutomaton, r: RewardAssignment) -> np.ndarray:
    out = np.zeros(m.n_states)
    for s, v in r.state_rewards.items():
        if m.is_markovian(s):
            out[s] = v
    return out


def resolve_reward(m: MarkovAutomaton, objective: Objective) -> RewardAssignment:
    if objective.kind == "reach":
        raise ModelError("reach objectives must be transformed to totals first")
    r = m.rewards.get(objective.reward)
    if r is None:
        raise ModelError(f"model has no reward assignment named {objective.reward!r}")
    return r


def _solver(Q, normalized: bool = False):
    """b -> x with (I - Q) x = b for a square sparse matrix Q; `normalized`
    replaces the last equation by sum(x) = b[-1].  LAPACK on the dense
    matrix up to _DENSE_LIMIT unknowns, one sparse LU factorization above."""
    n = Q.shape[0]
    if n <= _DENSE_LIMIT:
        A = np.eye(n) - Q.toarray()
        if normalized:
            A[-1, :] = 1.0
        return lambda b: np.linalg.solve(A, b)
    A = speye(n) - Q
    if normalized:
        A = A.tolil()
        A[-1, :] = 1.0
    return splu(A.tocsc()).solve


# ---------------------------------------------------------------------------
# exact chain analysis


def _sojourn(fl) -> np.ndarray:
    """Expected sojourn time per state: 1/rate when Markovian, else 0."""
    return np.where(fl.markovian, np.divide(1.0, fl.rates, out=np.zeros(len(fl.rates)),
                                            where=fl.rates > 0), 0.0)


def _stationary(P) -> np.ndarray:
    """Stationary distribution of an irreducible stochastic sparse matrix."""
    n = P.shape[0]
    if n == 1:
        return np.ones(1)
    # (I - P^T) pi = 0 with its last equation replaced by sum(pi) = 1
    b = np.zeros(n)
    b[-1] = 1.0
    pi = _solver(P.T, normalized=True)(b)
    return np.clip(pi, 0.0, None) / np.clip(pi, 0.0, None).sum()


def _gain(pi: np.ndarray, tau: np.ndarray, srew: np.ndarray, jump: np.ndarray) -> float:
    """Long-run average reward of an irreducible chain with stationary jump
    distribution pi: expected reward per expected time unit."""
    return float(pi @ (srew * tau + jump)) / float(pi @ tau)


def bscc_gain(chain: MarkovAutomaton, r: RewardAssignment) -> float:
    """Long-run average reward of a strongly connected, nondeterminism-free
    Markov automaton: stationary expected reward per expected time unit of
    the embedded jump chain."""
    fl = flat(chain)
    if (np.diff(fl.ptr) != 1).any():
        raise ModelError("bscc_gain expects a chain: one choice per state")
    if strong_components(chain.n_states, fl.edge_src, fl.succ).any():
        raise ModelError("bscc_gain expects a strongly connected chain")
    pi = _stationary(fl.kernel)
    tau = _sojourn(fl)
    if float(pi @ tau) <= 0.0:
        raise ModelError("chain spends no time: no Markovian state (Zeno)")
    return _gain(pi, tau, _state_reward_vec(chain, r), _jump_rewards(chain, r))


def _bottom_sccs(n: int, src: np.ndarray, dst: np.ndarray,
                 live: np.ndarray) -> list[np.ndarray]:
    """Bottom SCCs of the edges src[i] -> dst[i] among the `live` states (a
    mask closed under the edges), each in ascending order, listed by least
    state."""
    # components of live states contain only live states
    labels = strong_components(n, src, dst)
    leaving = np.unique(labels[src[live[src] & (labels[src] != labels[dst])]])
    bottom = np.flatnonzero(live & ~np.isin(labels, leaving))
    _, first, counts = np.unique(labels[bottom], return_index=True, return_counts=True)
    by_label = np.split(bottom[np.argsort(labels[bottom], kind="stable")], np.cumsum(counts)[:-1])
    return [by_label[i] for i in np.argsort(first)]


def evaluate_strategy(m: MarkovAutomaton, sigma: MDStrategy,
                      objectives: Sequence[Objective]) -> ChainEvaluation:
    """Exact value of sigma for every objective via linear systems on the
    chain sigma induces: BSCC decomposition, absorption probabilities,
    stationary gains for long-run averages, transient accumulation for totals.

    A reachable BSCC carrying a negative reward makes the total -inf (marker);
    a positive one raises, since finiteness checking must have excluded it.
    """
    chosen, live = _chosen(m, sigma)
    rewards = [resolve_reward(m, o) for o in objectives]
    n = m.n_states
    fl = flat(m)
    P = fl.kernel[chosen]  # n x n, the row of each state's chosen choice
    _, e = fl.edges(chosen)
    src, dst = fl.edge_src[e], fl.succ[e]
    members = _bottom_sccs(n, src, dst, live)
    in_bscc = np.zeros(n, dtype=bool)
    in_bscc[np.concatenate(members)] = True
    transient = np.flatnonzero(live & ~in_bscc)

    # absorption probabilities from the initial state
    if in_bscc[m.initial]:
        reach_probs = [1.0 if m.initial in b else 0.0 for b in members]
    else:
        i0 = int(np.searchsorted(transient, m.initial))
        P_t = P[transient, :]
        solve = _solver(P_t[:, transient])
        reach_probs = [float(solve(np.asarray(P_t[:, b].sum(axis=1)).ravel())[i0])
                       for b in members]

    # per-BSCC stationary distributions and gains
    tau = _sojourn(fl)
    jump = [_jump_rewards(m, r)[chosen] for r in rewards]
    srew = [_state_reward_vec(m, r) for r in rewards]
    gains: list[list[float]] = []
    for b in members:
        pi = _stationary(P[b, :][:, b])
        time = float(pi @ tau[b])
        row = []
        for j, o in enumerate(objectives):
            if o.kind != "lra":
                row.append(0.0)
                continue
            if time <= 0.0:
                raise SolverError("BSCC without Markovian state: long-run average undefined")
            row.append(_gain(pi, tau[b], srew[j][b], jump[j][b]))
        gains.append(row)

    recurrent = np.zeros(n, dtype=bool)
    for b, p in zip(members, reach_probs):
        recurrent[b] = p > 0.0
    values: list[float] = []
    for j, o in enumerate(objectives):
        if o.kind == "lra":
            v = 0.0
            for i, p in enumerate(reach_probs):
                if p > 0.0:
                    v += p * gains[i][j]
            values.append(v)
            continue
        # total reward: its entries on reachable BSCCs decide finiteness
        edge_rew = np.zeros(len(fl.succ))
        re, rv = reward_edges(m, rewards[j])
        edge_rew[re] = rv
        entries = np.concatenate([srew[j][recurrent], edge_rew[e[recurrent[src]]]])
        if (entries > 0.0).any():
            raise SolverError(
                f"positive reward {rewards[j].name!r} recurs in a reachable BSCC; "
                "the total diverges (finiteness violated)")
        if (entries < 0.0).any():
            values.append(NEG_INF)
        elif in_bscc[m.initial]:
            values.append(0.0)
        else:
            crew = srew[j][transient] * tau[transient] + jump[j][transient]
            values.append(float(solve(crew)[i0]))
    bsccs = [frozenset(b.tolist()) for b in members]
    return ChainEvaluation(values, bsccs, reach_probs, gains)


# ---------------------------------------------------------------------------
# long-run average inside one end component


def mec_lra(sub: MarkovAutomaton, r: RewardAssignment, eps: float = 1e-6) -> ScalarSolution:
    """Maximal long-run average reward of a standalone end component.

    Gain/bias strategy iteration from the first choice of every probabilistic
    state: keep the strategy's best bottom SCC (ties to the least state),
    route every probabilistic state outside it towards it, solve the bias
    equations h = c - g tau + P h (h = 0 at that SCC's least state) exactly,
    and switch a probabilistic state only where a choice improves jump + K h
    by more than rounding.  One uniformized tick from the final h certifies
    the gain (see the module docstring); the strategy is the first maximizer
    of the closure after that tick.
    """
    n = sub.n_states
    fl = flat(sub)
    if not fl.markovian.any():
        raise ModelError("component has no Markovian state (Zeno): no time passes")
    unif = float(fl.rates.max()) / 0.95
    jump = _jump_rewards(sub, r)
    srew = _state_reward_vec(sub, r)
    tau = _sojourn(fl)
    ms, ps = np.flatnonzero(fl.markovian), np.flatnonzero(~fl.markovian)
    K_m = fl.kernel[fl.ptr[ms]]
    coef = fl.rates[ms] / unif
    tick_rew = srew[ms] / unif + coef * jump[fl.ptr[ms]]
    pc = np.flatnonzero(~fl.markovian[fl.choice_state])  # the choices of ps, state by state
    K_p, jump_p = fl.kernel[pc], jump[pc]
    seg = np.searchsorted(pc, fl.ptr[ps])
    act = np.zeros(n, dtype=np.int64)
    for it in range(1, 1001):
        chosen = fl.ptr[:-1] + act
        _, e = fl.edges(chosen)
        members = _bottom_sccs(n, fl.edge_src[e], fl.succ[e], np.ones(n, dtype=bool))
        gains = []
        for b in members:
            pi = _stationary(fl.kernel[chosen[b]][:, b])
            if float(pi @ tau[b]) <= 0.0:
                raise SolverError(f"bottom SCC without Markovian state (Zeno) in strategy "
                                  f"iteration {it}: its long-run average is undefined")
            gains.append(_gain(pi, tau[b], srew[b], jump[chosen[b]]))
        k = int(np.argmax(gains))
        g, best_b = gains[k], members[k]
        if len(members) > 1:
            # each state outside best_b takes an edge one step closer to it in a
            # backward breadth-first search (edges reversed, root n -> best_b);
            # an end component reaches every state, so one BSCC is left
            rev = _graph(n + 1, np.concatenate([fl.succ, np.full(len(best_b), n)]),
                         np.concatenate([fl.edge_src, best_b]))
            pred = breadth_first_order(rev, n, return_predecessors=True)[1]
            out = np.ones(n, dtype=bool)
            out[best_b] = False
            step = np.flatnonzero(out[fl.edge_src] & (fl.succ == pred[fl.edge_src]))
            s, first = np.unique(fl.edge_src[step], return_index=True)
            act[s] = fl.edge_choice[step[first]] - fl.ptr[s]
            chosen = fl.ptr[:-1] + act
        P = fl.kernel[chosen]
        P.data[P.indptr[best_b[0]]:P.indptr[best_b[0] + 1]] = 0.0
        c = srew * tau + jump[chosen] - g * tau
        c[best_b[0]] = 0.0
        h = _solver(P)(c)
        q = jump_p + K_p @ h
        best, pick = _first_max(q, seg)
        # a margin above rounding keeps tied choices from swapping forever
        switch = best > q[seg + act[ps]] + 1e-12 * max(1.0, float(np.max(np.abs(h))))
        if not switch.any():
            break
        act[ps[switch]] = (pick - seg)[switch]
    else:
        raise SolverError(f"strategy iteration did not settle in {it} rounds (gain {g})")

    def close_instant(h: np.ndarray) -> np.ndarray:
        for _ in range(100_000):
            q = jump_p + K_p @ h
            new = np.maximum.reduceat(q, seg)
            delta = float(np.max(np.abs(new - h[ps]), initial=0.0))
            h[ps] = new
            if delta <= 1e-13 * max(1.0, float(np.max(np.abs(h)))):
                return q
        raise SolverError(f"instantaneous layer does not converge (near-Zeno structure; "
                          f"gain {g} after {it} strategy iterations)")

    close_instant(h)
    hm_new = tick_rew + coef * (K_m @ h) + (1.0 - coef) * h[ms]
    diffs = hm_new - h[ms]
    lb, ub = unif * float(diffs.min()), unif * float(diffs.max())
    if ub - lb > eps * max(1.0, abs(lb)):
        raise SolverError(f"long-run average bracket [{lb}, {ub}] wider than {eps} "
                          f"after {it} strategy iterations")
    h[ms] = hm_new
    sigma = dict(zip(ps.tolist(), (_first_max(close_instant(h), seg)[1] - seg).tolist()))
    value = 0.5 * (lb + ub)
    return ScalarSolution(value, sigma, 0.5 * (ub - lb) / max(1.0, abs(value)), lb, ub)


# ---------------------------------------------------------------------------
# maximal expected total reward


def max_total_reward(m: MarkovAutomaton, r: RewardAssignment,
                     require_reach_bottom: bool = False, eps: float = 1e-6,
                     bottom_state: int | None = None) -> ScalarSolution:
    """Maximal expected total reward, optionally over strategies that reach
    the designated absorbing bottom state almost surely.

    Zero-reward end components are collapsed first: with the constraint the
    collapse omits bottom actions, so every strategy of the transformed model
    eventually leaves reward-free components; without it a bottom action
    (worth 0, matching staying forever) is added.  States that cannot reach
    the target almost surely have value -inf unconstrained and make the
    constrained problem infeasible when they include the initial state.
    """
    if require_reach_bottom and bottom_state is None:
        raise ModelError("require_reach_bottom needs a designated bottom state")
    z = zero_mecs(m, [r])
    if bottom_state is not None:
        z = [c for c in z if bottom_state not in c.states()]
    if require_reach_bottom:
        # without bottom actions an exit-less component would leave its
        # quotient state with no choices; such states cannot reach the
        # target anyway, so leaving them uncollapsed changes no value
        z = [c for c in z if exits(m, c)]
    q = quotient(m, z, with_bottom=not require_reach_bottom)
    rq = q.lift_reward(r, r.name + "@q")
    target = q.bottom_state if bottom_state is None else q.state_map[bottom_state]

    region, allowed = almost_sure_reach(q.model, [target])
    init_q = q.state_map[m.initial]
    default_sigma = dict.fromkeys(np.flatnonzero(~flat(m).markovian).tolist(), 0)
    if not region[init_q]:
        if require_reach_bottom:
            raise InfeasibleError("no strategy reaches the bottom state almost surely")
        return ScalarSolution(NEG_INF, default_sigma, 0.0, NEG_INF, NEG_INF)
    qfl = flat(q.model)
    start = np.zeros(q.model.n_states, dtype=bool)
    start[init_q] = True
    region &= reach(qfl.edge_src, qfl.succ, start)
    allowed &= region[qfl.choice_state]

    upper, lower, actions = _solve_total_region(q.model, rq, region, allowed, target, eps)
    ps = np.flatnonzero(~qfl.markovian)
    sigma_q = dict(zip(ps.tolist(), actions[ps].tolist()))
    # bottom choices decode to staying inside the component (unconstrained mode)
    stays = {i: _stay_inside(c) for i, c in enumerate(z)} if not require_reach_bottom else {}
    sigma = decode_quotient_strategy(q, sigma_q, stays)
    u0, l0 = float(upper[init_q]), float(lower[init_q])
    return ScalarSolution(value=u0, strategy=sigma,
                          error_bound=(u0 - l0) / max(1.0, abs(u0)) + 1e-12,
                          lower=l0, upper=u0)


def _solve_total_region(model: MarkovAutomaton, r: RewardAssignment,
                        region: np.ndarray, allowed: np.ndarray,
                        target: int, eps: float
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Certified [L, U] value vectors (full length, 0 at target and outside
    the region) plus the greedy action of every region state (0 elsewhere).
    `region` masks states and `allowed` flat choices of model; every allowed
    choice of a region state must keep its support in the region.

    Plain iteration gives a candidate; the extracted strategy is evaluated
    exactly (lower certificate); the upper certificate is a Bellman-inductive
    vector found from the candidate plus slack (see module docstring).
    """
    fl = flat(model)
    n = model.n_states
    is_active = region.copy()
    is_active[target] = False
    active = np.flatnonzero(is_active)
    U_full = np.zeros(n)
    L_full = np.zeros(n)
    actions = np.zeros(n, dtype=np.int64)
    if not len(active):
        return U_full, L_full, actions
    na = len(active)
    index = np.full(n, -1, dtype=np.int64)
    index[active] = np.arange(na)

    # one kernel row per allowed choice of an active state, state by state
    rows = np.flatnonzero(allowed & is_active[fl.choice_state])
    counts = np.bincount(index[fl.choice_state[rows]], minlength=na)
    assert counts.all(), "active state without allowed choice"
    seg = np.zeros(na + 1, dtype=np.int64)
    np.cumsum(counts, out=seg[1:])
    jump = _jump_rewards(model, r)
    srew = _state_reward_vec(model, r)
    per_state = np.where(fl.markovian, srew / np.where(fl.markovian, fl.rates, 1.0), 0.0)
    crew_v = per_state[fl.choice_state[rows]] + jump[rows]
    pos, e = fl.edges(rows)
    keep = fl.succ[e] != target
    K = csr_matrix((fl.prob[e[keep]], (pos[keep], index[fl.succ[e[keep]]])),
                   shape=(len(rows), na))
    segs = seg[:-1]

    def bellman(h: np.ndarray) -> np.ndarray:
        return np.maximum.reduceat(crew_v + K @ h, segs)

    eps_vi = max(eps / 64.0, 1e-14)
    h = np.zeros(na)
    i0 = index[model.initial]
    for round_ in range(6):
        # candidate via plain iteration
        cap = 500_000
        for _ in range(cap):
            hn = bellman(h)
            d = float(np.max(np.abs(hn - h)))
            h = hn
            if d <= eps_vi * max(1.0, float(np.max(np.abs(h)))):
                break
        else:
            raise SolverError("total-reward iteration does not settle")
        pick, L = _extract_and_evaluate(model, crew_v, K, seg, rows, target, h)
        if L is None:
            eps_vi *= 0.01
            continue
        U = _inductive_upper(bellman, h, L, eps)
        if U is None:
            eps_vi *= 0.1
            continue
        gap_ok = float(U[i0] - L[i0]) <= eps * max(1.0, abs(float(U[i0]))) if i0 >= 0 else True
        worst = float(np.max(U - L))
        if worst <= eps * max(1.0, float(np.max(np.abs(U)))) or gap_ok:
            U_full[active] = U
            L_full[active] = L
            actions[active] = rows[pick] - fl.ptr[active]
            return U_full, L_full, actions
        eps_vi *= 0.1
    raise SolverError("could not certify total-reward bounds to the requested precision")


def _first_max(q: np.ndarray, seg: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per segment of q (segment i starts at seg[i]): the largest entry and
    the position of its first occurrence."""
    best = np.maximum.reduceat(q, seg)
    hit = np.where(q == np.repeat(best, np.diff(seg, append=len(q))), np.arange(len(q)), len(q))
    return best, np.minimum.reduceat(hit, seg)


def _extract_and_evaluate(model, crew_v, K, seg, rows, target, h):
    """Greedy choice per active state from h (first maximizer, so lowest
    action id), as positions into `rows`, and the exact value vector of that
    strategy; None instead of the values when the strategy is improper (does
    not reach the target almost surely)."""
    fl = flat(model)
    _, pick = _first_max(crew_v + K @ h, seg[:-1])
    # properness: every active state can reach the target through picked
    # choices (backward reachability; a closed set avoiding the target would
    # be unreachable from it)
    _, e = fl.edges(rows[pick])
    is_target = np.zeros(model.n_states, dtype=bool)
    is_target[target] = True
    reached = reach(fl.succ[e], fl.edge_src[e], is_target)
    if not reached[fl.choice_state[rows[pick]]].all():
        return pick, None
    return pick, _solver(K[pick])(crew_v[pick])


def _inductive_upper(bellman, h, L, eps):
    """Find U with bellman(U) <= U pointwise (exact float comparison),
    starting from the candidate plus slack.  Such U upper-bounds the optimum:
    iterating bellman from any vector converges to the unique fixed point,
    and from an inductive U the iterates only descend.  The search caps U by
    bellman(U) each step, which preserves being an upper bound and decreases
    monotonically; a stagnant vector (bellman(U) >= U with strict excess
    somewhere, usually rounding jitter) gets one upward nudge before the slack
    is escalated.  Returns None on failure."""
    scale = max(1.0, float(np.max(np.abs(h))), float(np.max(np.abs(L))))
    delta = max(eps, 1e-9) * scale * 0.5
    for _ in range(7):
        U = np.maximum(h, L) + delta
        stagnant = 0
        nudged = False
        for _ in range(30_000):
            TU = bellman(U)
            if np.all(TU <= U):
                return np.minimum(U, TU)
            newU = np.minimum(U, TU)
            if np.array_equal(newU, U):
                stagnant += 1
                if stagnant > 2:
                    if nudged:
                        break
                    U = np.nextafter(U, np.inf)
                    nudged = True
                    stagnant = 0
            else:
                stagnant = 0
                U = newU
        delta *= 8.0
    return None


# ---------------------------------------------------------------------------
# reachability as total reward


def reach_to_total(m: MarkovAutomaton, goal) -> tuple[MarkovAutomaton, RewardAssignment]:
    """Product with a visited bit turning reachability into a total-reward
    objective.

    The fresh assignment pays 1 exactly when the bit flips.  When the
    initial state is already a goal state, a fresh rate-1 initial state is
    prepended so the flip transition exists; long-run values are unaffected
    by the finite prefix.
    """
    goal = frozenset(int(s) for s in goal)
    for s in goal:
        if not 0 <= s < m.n_states:
            raise ModelError(f"goal state {s} out of range")
    if not goal:
        raise ModelError("goal set is empty")

    prepend = m.initial in goal
    start = (m.initial, 0) if prepend else (m.initial, 1 if m.initial in goal else 0)
    order: list[tuple[int, int]] = []
    index: dict[tuple[int, int], int] = {}

    def visit(ps: tuple[int, int]) -> int:
        if ps not in index:
            index[ps] = len(order)
            order.append(ps)
        return index[ps]

    queue = deque()
    if prepend:
        # fresh initial hops into (initial, 1); explore from there
        first = (m.initial, 1)
        visit(first)
        queue.append(first)
    else:
        visit(start)
        queue.append(start)
    while queue:
        s, bit = queue.popleft()
        for dist in m.choices[s]:
            for t, _ in dist:
                tb = (t, 1 if (bit or t in goal) else 0)
                if tb not in index:
                    visit(tb)
                    queue.append(tb)

    offset = 1 if prepend else 0
    n2 = len(order) + offset
    rates: list[float | None] = []
    choices: list[list[list[tuple[int, float]]]] = []
    names: list[str] = []
    action_names: list[tuple[str, ...]] = []
    origin: list[int] = []
    if prepend:
        rates.append(1.0)
        choices.append([[(offset + index[(m.initial, 1)], 1.0)]])
        names.append("pre-init")
        action_names.append(("",))
        origin.append(m.initial)
    for s, bit in order:
        rates.append(m.rates[s])
        choices.append([
            [(offset + index[(t, 1 if (bit or t in goal) else 0)], p) for t, p in dist]
            for dist in m.choices[s]])
        names.append(m.state_names[s] if bit == 0 else m.state_names[s] + "@g")
        action_names.append(m.action_names[s])
        origin.append(s)

    def lift(r: RewardAssignment, name: str) -> RewardAssignment:
        state_r = {}
        trans_r = {}
        for i, (s, bit) in enumerate(order):
            v = r.state_reward(s)
            if v != 0.0:
                state_r[offset + i] = v
            for a, dist in enumerate(m.choices[s]):
                for t, _ in dist:
                    v = r.transition_reward(s, a, t)
                    if v != 0.0:
                        j = offset + index[(t, 1 if (bit or t in goal) else 0)]
                        trans_r[(offset + i, a, j)] = v
        return RewardAssignment(name, state_r, trans_r)

    rewards = {rname: lift(r, rname) for rname, r in m.rewards.items()}

    fresh_name = _fresh_name(m.rewards, "reach(" + ",".join(
        m.state_names[s] for s in sorted(goal)) + ")")
    trans_r = {}
    for i, (s, bit) in enumerate(order):
        if bit == 1:
            continue
        for a, dist in enumerate(m.choices[s]):
            for t, _ in dist:
                if t in goal:
                    j = offset + index[(t, 1)]
                    trans_r[(offset + i, a, j)] = 1.0
    if prepend:
        trans_r[(0, 0, offset + index[(m.initial, 1)])] = 1.0
    fresh = RewardAssignment(fresh_name, {}, trans_r)
    rewards[fresh_name] = fresh

    initial2 = 0 if prepend else offset + index[start]
    m2 = MarkovAutomaton(rates, choices, initial2, names, action_names, rewards, origin)
    return m2, fresh


def _fresh_name(existing: Mapping[str, RewardAssignment], base: str) -> str:
    name = base
    while name in existing:
        name += "'"
    return name
