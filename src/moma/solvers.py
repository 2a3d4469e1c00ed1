"""Single-objective solvers: exact chain evaluation, per-component long-run
averages, and certified maximal expected total rewards.

Solvers work on the flat choice view of a model (one kernel row per
choice), and both scalar solvers are strategy iterations with exact linear
evaluation.  Every linear system and kernel row block is gathered straight
from the model's edge arrays, `flat(m)`, in edge order; a successor that a
row lists twice adds up.  Each system is factored once, when its solver is
built, where a singular one raises SolverError: by LAPACK's dense LU up to
_DENSE_LIMIT unknowns, the measured break-even, and by SuperLU above.  A
chain's gain g and bias h come from one system, (I - P) h + tau g = b with
one h pinned to 0.
Long-run averages inside an end component come from gain/bias strategy
iteration.  Its final strategy's exact gain is the lower end; the upper end
is the span bound in model time (Puterman 1994, sec. 8.5) from the final
bias h, closed to a fixed point on the instantaneous layer: the largest
srew + rate (jump + sum_t p (h_t - h_s)) over Markovian states, in a
difference form that reads every distribution as normalized.
Total rewards come from stochastic-shortest-path strategy iteration started
from a proper strategy (one that reaches the target almost surely), on a
structure that depends only on the zero-reward end components it collapses.
Once they are collapsed, every remaining non-target end component drains
strictly negative reward, which makes the Bellman fixed point unique on the
almost-sure reach region and lets a verified inductive vector (T U <= U)
certify the upper bound, searched level by level over the condensation of
the allowed-choice graph, sinks first (topological value iteration).  The
structure numbers its states once, in that level order: every strategy's
system is then block lower-triangular as numbered, so its sparse LU keeps
the natural order, and every level is one span of rows and entries.  The
structure holds the solver of its starting strategy for every solve's first
round and each level's entry rows and segment starts relative to the level,
and every product with kernel rows is one bincount over their entries
(_dot), each row summed in edge order.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs
from scipy.sparse import csc_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import splu

from .model import (NEG_INF, Flat, InfeasibleError, MarkovAutomaton, MDStrategy,
                    ModelError, Objective, RewardAssignment, SolverError, _chosen,
                    _fresh_name, _graph, _ptr, _spans, carry_rewards, copy_choices, flat,
                    reach, scc_levels, strong_components)
from .components import (EndComponent, QuotientModel, _toward, almost_sure_reach,
                         decode_quotient_strategy, exits, quotient, zero_mecs)

_DENSE_LIMIT = 192  # dense LU up to here: its break-even with SuperLU on banded kernels


@dataclass
class ScalarSolution:
    """Result of one scalar optimization.

    `value` lies within `error_bound` (relative, floor 1) of the true optimum;
    [lower, upper] brackets the optimum, and `strategy`, an action vector
    over the states of the model solved on, attains at least `lower`, which
    both solvers take from its exact evaluation.
    """

    value: float
    strategy: MDStrategy
    error_bound: float
    lower: float
    upper: float
    rounds: int = 0  # strategy-iteration rounds
    sweeps: int = 0  # Bellman steps of a total-reward certificate


@dataclass
class ChainEvaluation:
    """Exact per-objective values of a strategy, with the chain analysis that
    produced them: bottom SCCs, their reach probabilities from the initial
    state, and per-BSCC gains per objective (zero for totals)."""

    values: list[float]
    bsccs: list[frozenset[int]]
    reach_probs: list[float]
    gains: list[list[float]]


def _reward_rates(m: MarkovAutomaton, r: RewardAssignment) -> tuple[np.ndarray, np.ndarray]:
    """The state reward rate of every state (0 off the Markovian states) and
    the expected transition reward of every choice, sum_t P(s,a,t) r(s,a,t)
    summed in edge order."""
    fl = flat(m)
    state, edge = r.vectors(m)
    return (np.where(fl.markovian, state, 0.0),
            np.bincount(fl.edge_choice, weights=fl.prob * edge, minlength=len(fl.choice_state)))


def resolve_reward(m: MarkovAutomaton, objective: Objective) -> RewardAssignment:
    if objective.kind == "reach":
        raise ModelError("reach objectives must be transformed to totals first")
    r = m.rewards.get(objective.reward)
    if r is None:
        raise ModelError(f"model has no reward assignment named {objective.reward!r}")
    return r


def _block(fl: Flat, rows: np.ndarray, cols=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The kernel entries of the choices `rows` of fl (in any order) whose
    successors lie in `cols` (all states when None), gathered from fl's edge
    arrays row by row in edge order: their block row, block column (the
    successor's position in cols) and probability.  A successor listed
    twice in a row gives two entries, which every consumer adds up."""
    pos, e = fl.edges(rows)
    col = fl.succ[e]
    if cols is not None:
        where = np.full(len(fl.markovian), -1)
        where[cols] = np.arange(len(cols))
        keep = where[col] >= 0
        pos, e, col = pos[keep], e[keep], where[col[keep]]
    return pos, col, fl.prob[e]


def _dot(entries, x: np.ndarray, n: int) -> np.ndarray:
    """Q @ x for the n-row matrix Q whose values v sit at rows r and columns
    c, entries = (r, c, v), each row's entries in edge order (as _block
    gathers them).  Each row is summed from 0.0 entry by entry in that order,
    as scipy's CSR product sums a row in stored order; a bincount skips the
    sparse matrix's per-call overhead."""
    r, c, v = entries
    return np.bincount(r, v * x[c], n)


def _solver(n: int, r: np.ndarray, c: np.ndarray, v: np.ndarray, natural: bool = False):
    """b -> x with (I - Q) x = b for the n x n block Q whose entries v sit at
    the places (r, c), as gathered by _block; entries at one place add up.
    The system is factored once, here, on the cheaper route, and a singular
    one raises SolverError here.  Up to _DENSE_LIMIT unknowns: LAPACK's dense
    LU (getrf) of np.eye(n) minus Q, filled in place, and one getrs per
    right-hand side.  Above: one sparse LU factorization with COLAMD's column
    order, or with the `natural` one when the unknowns are already numbered
    so that I - Q is block lower-triangular (a total-reward structure's
    levels, sinks first): the diagonal blocks are then factored one after
    another, with little fill, and no column ordering has to be computed."""
    if n > _DENSE_LIMIT:
        try:
            return splu(csc_matrix((np.r_[np.ones(n), -v], (np.r_[:n, r], np.r_[:n, c]))),
                        permc_spec="NATURAL" if natural else "COLAMD").solve
        except RuntimeError as err:
            raise SolverError(f"singular {n} x {n} system (sparse LU): {err}") from None
    if n == 0:  # LAPACK rejects an empty matrix
        return lambda b: np.zeros(0)
    A = np.eye(n, order="F")
    np.subtract.at(A, (r, c), v)
    lu, piv, info = dgetrf(A, overwrite_a=True)
    if info > 0:
        raise SolverError(f"singular {n} x {n} system (dense LU): pivot {info} is zero")
    if info < 0:  # a bad call, never a singular system
        raise ValueError(f"dgetrf rejected its argument {-info}")
    return lambda b: dgetrs(lu, piv, b)[0]


# ---------------------------------------------------------------------------
# exact chain analysis


def _sojourn(fl) -> np.ndarray:
    """Expected sojourn time per state: 1/rate when Markovian, else 0."""
    return np.where(fl.markovian, np.divide(1.0, fl.rates, out=np.zeros(len(fl.rates)),
                                            where=fl.rates > 0), 0.0)


def _gain_bias(fl, chosen: np.ndarray, states: np.ndarray, tau: np.ndarray):
    """b -> (g, h) with (I - P) h + tau g = b, P the kernel rows chosen[states]
    on the closed set `states` (ascending), and h = 0 at its first state p with
    tau > 0, which must exist.  One square system: I - P with column p replaced
    by tau / tau[p], so its diagonal entry stays exactly 1, and unknown g tau[p]
    at p.  The pin removes the constant from the null space of a chain with one
    bottom SCC, wherever p lies."""
    t, (r, c, v) = tau[states], _block(fl, chosen[states], states)
    col = np.flatnonzero(t > 0)  # the pin, then the rest of the tau column
    p, col, keep = int(col[0]), col[1:], c != col[0]
    solve = _solver(len(t), np.r_[r[keep], col], np.r_[c[keep], np.full(len(col), p)],
                    np.r_[v[keep], -t[col] / t[p]])

    def gain_bias(b):
        h = solve(b)
        g, h[p] = float(h[p] / t[p]), 0.0
        return g, h
    return gain_bias


def bscc_gain(chain: MarkovAutomaton, r: RewardAssignment) -> float:
    """Long-run average reward of a strongly connected, nondeterminism-free
    Markov automaton, from its gain/bias equations."""
    fl = flat(chain)
    if (np.diff(fl.ptr) != 1).any():
        raise ModelError("bscc_gain expects a chain: one choice per state")
    if strong_components(chain.n_states, fl.edge_src, fl.succ).any():
        raise ModelError("bscc_gain expects a strongly connected chain")
    tau, (srew, jump) = _sojourn(fl), _reward_rates(chain, r)
    if not (tau > 0).any():
        raise ModelError("chain spends no time: no Markovian state (Zeno)")
    return _gain_bias(fl, fl.ptr[:-1], np.arange(chain.n_states), tau)(srew * tau + jump)[0]


def _bottom_sccs(g, src: np.ndarray, dst: np.ndarray, live: np.ndarray) -> list[np.ndarray]:
    """Bottom SCCs of the edges src[i] -> dst[i] (g is their `_graph`) among
    the `live` states (a mask closed under the edges), each in ascending
    order, listed by least state."""
    # components of live states contain only live states
    labels = connected_components(g, directed=True, connection="strong")[1]
    leaving = np.unique(labels[src[live[src] & (labels[src] != labels[dst])]])
    bottom = np.flatnonzero(live & ~np.isin(labels, leaving))
    _, first, counts = np.unique(labels[bottom], return_index=True, return_counts=True)
    by_label = np.split(bottom[np.argsort(labels[bottom], kind="stable")], np.cumsum(counts)[:-1])
    return [by_label[i] for i in np.argsort(first)]


def evaluate_strategy(m: MarkovAutomaton, sigma: MDStrategy | Mapping[int, int],
                      objectives: Sequence[Objective]) -> ChainEvaluation:
    """Exact value of sigma, an action vector or a mapping (see
    `MDStrategy`), for every objective via linear systems on the chain sigma
    induces: BSCC decomposition, absorption probabilities, one
    gain/bias system per BSCC for long-run averages, transient sums for totals.

    A reachable BSCC carrying a negative reward makes the total -inf (marker);
    a positive one raises, since finiteness checking must have excluded it.
    """
    chosen, live, g = _chosen(m, sigma)
    rewards = [resolve_reward(m, o) for o in objectives]
    n, fl = m.n_states, flat(m)
    _, e = fl.edges(chosen)
    src, dst = fl.edge_src[e], fl.succ[e]
    members = _bottom_sccs(g, src, dst, live)
    in_bscc = np.bincount(np.concatenate(members), minlength=n) > 0
    transient = np.flatnonzero(live & ~in_bscc)

    # absorption probabilities from the initial state
    if in_bscc[m.initial]:
        reach_probs = [1.0 if m.initial in b else 0.0 for b in members]
    else:
        i0, rows = int(np.searchsorted(transient, m.initial)), chosen[transient]
        solve = _solver(len(transient), *_block(fl, rows, transient))
        reach_probs = []
        for b in members:  # the row sums of P[rows][:, b], by one reduceat in edge order
            pos, _, val = _block(fl, rows, b)
            rhs, first = np.zeros(len(rows)), np.flatnonzero(np.diff(pos, prepend=-1))
            rhs[pos[first]] = np.add.reduceat(val, first)
            reach_probs.append(float(solve(rhs)[i0]))

    # per-BSCC gains
    tau, rates = _sojourn(fl), [_reward_rates(m, r) for r in rewards]
    srew, rew = [s for s, _ in rates], [s * tau + j[chosen] for s, j in rates]
    lra = [j for j, o in enumerate(objectives) if o.kind == "lra"]
    gains = [[0.0] * len(objectives) for _ in members]
    for b, gain in zip(members, gains if lra else []):
        if not (tau[b] > 0).any():
            raise SolverError("BSCC without Markovian state: long-run average undefined")
        gain_bias = _gain_bias(fl, chosen, b, tau)
        for j in lra:
            gain[j] = gain_bias(rew[j][b])[0]

    recurrent = np.zeros(n, dtype=bool)
    for b, p in zip(members, reach_probs):
        recurrent[b] = p > 0.0
    values: list[float] = []
    for j, o in enumerate(objectives):
        if o.kind == "lra":
            values.append(sum((p * gain[j] for p, gain in zip(reach_probs, gains) if p > 0.0), 0.0))
            continue
        # total reward: its entries on reachable BSCCs decide finiteness
        edge = rewards[j].vectors(m)[1]
        entries = np.concatenate([srew[j][recurrent], edge[e[recurrent[src]]]])
        if (entries > 0.0).any():
            raise SolverError(
                f"positive reward {rewards[j].name!r} recurs in a reachable BSCC; "
                "the total diverges (finiteness violated)")
        if (entries < 0.0).any():
            values.append(NEG_INF)
        elif in_bscc[m.initial]:
            values.append(0.0)
        else:
            values.append(float(solve(rew[j][transient])[i0]))
    return ChainEvaluation(values, [frozenset(b.tolist()) for b in members], reach_probs, gains)


# ---------------------------------------------------------------------------
# long-run average inside one end component


class _Strategy:
    """The weight-independent analysis of one strategy `chosen` of an end
    component: its bottom SCCs, whether each lets time pass (`timed`), and
    the gain/bias solvers of the bottom SCCs when there are several (`bscc`),
    else of the whole chain (`solve`)."""

    def __init__(self, fl: Flat, chosen: np.ndarray, tau: np.ndarray):
        n, (_, e) = len(tau), fl.edges(chosen)
        src, dst = fl.edge_src[e], fl.succ[e]
        self.chosen = chosen
        self.members = _bottom_sccs(_graph(n, src, dst), src, dst, np.ones(n, dtype=bool))
        self.timed = all((tau[b] > 0).any() for b in self.members)
        several = self.timed and len(self.members) > 1
        self.bscc = [_gain_bias(fl, chosen, b, tau) for b in self.members] if several else []
        self.solve = (_gain_bias(fl, chosen, np.arange(n), tau)
                      if self.timed and not several else None)


class _Frame:
    """The weight-independent part of mec_lra on one component: the sojourn
    times, the Markovian states `ms` with their rates `rate` and the entries
    of their kernel rows `K_m`, the choices `pc` of the probabilistic states
    `ps` (state by state) with the entries of their kernel rows `K_p` and
    segment starts `seg`, and the analysis of the first-choice strategy.
    The entries are (entry row, column, value) triples as _block gathers
    them.  It keeps no reference to the component's Flat, so it dies with it."""

    def __init__(self, fl: Flat):
        if not fl.markovian.any():
            raise ModelError("component has no Markovian state (Zeno): no time passes")
        self.tau, self.ms, self.ps = (_sojourn(fl), np.flatnonzero(fl.markovian),
                                      np.flatnonzero(~fl.markovian))
        self.K_m, self.rate = _block(fl, fl.ptr[self.ms]), fl.rates[self.ms]
        self.pc = np.flatnonzero(~fl.markovian[fl.choice_state])  # the choices of ps, in order
        self.K_p, self.seg = _block(fl, self.pc), np.searchsorted(self.pc, fl.ptr[self.ps])
        self.first = _Strategy(fl, fl.ptr[:-1].copy(), self.tau)


_FRAMES: weakref.WeakKeyDictionary[Flat, _Frame] = weakref.WeakKeyDictionary()


def mec_lra(sub: MarkovAutomaton, r: RewardAssignment, eps: float = 1e-6) -> ScalarSolution:
    """Maximal long-run average reward of a standalone end component.

    Gain/bias strategy iteration from the first choice of every probabilistic
    state: when the strategy has several bottom SCCs, keep the best one (ties
    to the least state) and route every state outside it towards it; solve
    the gain/bias equations (I - P) h + tau g = r tau + jump of the routed
    strategy exactly, as one system, and switch a probabilistic state only
    where a choice improves jump + K h by more than rounding.  The strategy
    is the final one of the iteration, with the single bottom SCC it was
    routed to; `lower` is its exact gain (capped at `upper`), so it attains
    `lower`.  `upper` is the span bound of the module docstring, after the
    instantaneous layer is swept to a fixed point (usually in one sweep).
    The weight-independent part of the solve is built once per component
    (`_Frame`), the analysis of its first strategy included.
    """
    fl = flat(sub)
    fr = _FRAMES.get(fl) or _FRAMES.setdefault(fl, _Frame(fl))
    tau, ms, ps, pc, seg = fr.tau, fr.ms, fr.ps, fr.pc, fr.seg
    srew, jump = _reward_rates(sub, r)
    crew = (srew * tau)[fl.choice_state] + jump  # reward per visit, by choice
    jump_p, st = jump[pc], fr.first
    for it in range(1, 1001):
        if not st.timed:
            raise SolverError(f"bottom SCC without Markovian state (Zeno) in strategy "
                              f"iteration {it}: its long-run average is undefined")
        chosen, gain_bias = st.chosen, st.solve
        if len(st.members) > 1:
            # every state outside the best BSCC steps toward it; an end
            # component reaches every state, so one BSCC is left
            gains = [solve(crew[chosen[b]])[0] for b, solve in zip(st.members, st.bscc)]
            to = _toward(fl, np.arange(len(fl.succ)), st.members[int(np.argmax(gains))])
            chosen = np.where(to >= 0, to, chosen)
            gain_bias = _gain_bias(fl, chosen, np.arange(len(tau)), tau)
        g, h = gain_bias(crew[chosen])
        better = _improve(jump_p + _dot(fr.K_p, h, len(pc)), seg,
                          seg + chosen[ps] - fl.ptr[ps], h)
        if better is None:
            break
        chosen = chosen.copy()  # the frame keeps its first strategy
        chosen[ps] = pc[better]
        st = _Strategy(fl, chosen, tau)
    else:
        raise SolverError(f"strategy iteration did not settle in {it} rounds (gain {g})")

    # close the instantaneous layer: h becomes a fixed point of its maximum
    for _ in range(100_000):
        new = np.maximum.reduceat(jump_p + _dot(fr.K_p, h, len(pc)), seg)
        delta = float(np.max(np.abs(new - h[ps]), initial=0.0))
        h[ps] = new
        if delta <= 1e-13 * max(1.0, float(np.max(np.abs(h)))):
            break
    else:
        raise SolverError(f"instantaneous layer does not converge (near-Zeno structure; "
                          f"gain {g} after {it} strategy iterations)")
    k, t, p = fr.K_m  # the gain one step from h shows per Markovian state
    step = jump[fl.ptr[ms]] + np.bincount(k, p * (h[t] - h[ms[k]]), len(ms))
    ub = float((srew[ms] + fr.rate * step).max())
    lb = min(g, ub)
    if ub - lb > eps * max(1.0, abs(lb)):
        raise SolverError(f"long-run average bracket [{lb}, {ub}] wider than {eps} "
                          f"after {it} strategy iterations")
    value = 0.5 * (lb + ub)
    return ScalarSolution(value, chosen - fl.ptr[:-1], 0.5 * (ub - lb) / max(1.0, abs(value)),
                          lb, ub, it)


# ---------------------------------------------------------------------------
# maximal expected total reward


@dataclass
class TotalStructure:
    """The weight-independent part of a total-reward solve, which depends
    only on the zero-reward end components it collapses: their quotient `q`
    and the `active` states (the almost-sure region the initial state
    reaches, minus the target), numbered level by level over the
    condensation of the allowed-choice graph, sinks first, level i from
    `levels[i]` to `levels[i + 1]`; the initial state is number `i0`.  Every
    allowed choice of an active state is a row (`rows`, choices of the
    quotient), state by state in that numbering, those of state i from
    `segs[i]` to `segs[i + 1]`.  `entries` are the rows' kernel entries
    into active states as _block(flat(q.model), rows, active) gathers them
    (entry row, column, value; the target's column dropped), those of row
    j from `eptr[j]` to `eptr[j + 1]`.  `pick` is a proper strategy (one
    row per state) and `solve` the _solver of I - K[pick], K the rows'
    block, held for every solve's first round.  An allowed edge never
    climbs a level, so I - K[pick] is block lower-triangular, and a level's
    rows and entries are contiguous spans; `lrow` and `lseg` are the entry
    rows and `segs[:-1]` counted from the first row of their level, so a
    level's Bellman step takes views only."""

    q: QuotientModel
    target: int
    active: np.ndarray
    i0: int
    levels: np.ndarray
    rows: np.ndarray
    segs: np.ndarray
    eptr: np.ndarray
    entries: tuple[np.ndarray, np.ndarray, np.ndarray]
    pick: np.ndarray
    solve: Callable[[np.ndarray], np.ndarray]
    lrow: np.ndarray
    lseg: np.ndarray


def total_zero_ecs(m: MarkovAutomaton, r: RewardAssignment, bottom_state: int
                   ) -> list[EndComponent]:
    """The zero-reward end components of r that a total-reward solve on m
    collapses: those with an exit, apart from the bottom state's (an
    exit-less one cannot reach the target, so it changes no value)."""
    return [c for c in zero_mecs(m, [r]) if bottom_state not in c.members and len(exits(m, c))]


def total_structure(m: MarkovAutomaton, z: Sequence[EndComponent],
                    bottom_state: int) -> TotalStructure:
    """The structure of a total-reward solve on m that collapses the end
    components z (see total_zero_ecs); its quotient's bottom actions never
    reach the target, so they become no rows.  Raises InfeasibleError when
    no strategy reaches the bottom state almost surely from the initial state."""
    q = quotient(m, z)
    target, init_q = q.state_map[bottom_state], q.state_map[m.initial]
    region, allowed = almost_sure_reach(q.model, [target])
    if not region[init_q]:
        raise InfeasibleError("no strategy reaches the bottom state almost surely")
    fl = flat(q.model)
    region &= reach(fl.edge_src, fl.succ, np.arange(len(region)) == init_q)
    region[target] = False
    active, index = np.flatnonzero(region), np.cumsum(region) - 1
    choices = np.flatnonzero(allowed & region[fl.choice_state])
    _, e = fl.edges(choices)
    toward = _toward(fl, e, np.array([target]))
    e = e[fl.succ[e] != target]
    level = scc_levels(len(active), index[fl.edge_src[e]], index[fl.succ[e]])
    # number the active states by level, a stable sort of the ascending ones
    active = active[np.argsort(level, kind="stable")]
    index[active] = np.arange(len(active))
    rows = choices[np.argsort(index[fl.choice_state[choices]], kind="stable")]
    segs = _ptr(np.bincount(index[fl.choice_state[rows]], minlength=len(active)))
    assert (np.diff(segs) > 0).all(), "active state without allowed choice"
    entries = _block(fl, rows, active)  # the target's column dropped
    erow, levels = entries[0], _ptr(np.bincount(level))
    pick = np.flatnonzero(rows == np.repeat(toward[active], np.diff(segs)))  # toward the target
    first = segs[levels[:-1]]  # the first row of every level
    return TotalStructure(q, target, active, int(index[init_q]), levels, rows, segs,
                          _ptr(np.bincount(erow, minlength=len(rows))), entries, pick,
                          _solver(len(pick), *_block(fl, rows[pick], active), natural=True),
                          erow - np.repeat(first, np.diff(segs[levels]))[erow],
                          segs[:-1] - np.repeat(first, np.diff(levels)))


def max_total_reward(m: MarkovAutomaton, r: RewardAssignment, bottom_state: int,
                     eps: float = 1e-6) -> ScalarSolution:
    """Maximal expected total reward over the strategies that reach the
    absorbing `bottom_state` almost surely.

    Zero-reward end components are collapsed first; their bottom actions
    cannot reach `bottom_state`, so every strategy of the transformed model
    eventually leaves reward-free components.  Raises InfeasibleError when
    no strategy reaches the bottom state almost surely from the initial
    state, and SolverError when positive reward recurs (finiteness violated)
    or the bracket [lower, upper] cannot be certified to eps, by the rule of
    solve_total.
    """
    return solve_total(total_structure(m, total_zero_ecs(m, r, bottom_state), bottom_state),
                       r, eps)


def solve_total(st: TotalStructure, r: RewardAssignment, eps: float = 1e-6) -> ScalarSolution:
    """max_total_reward of r (a reward of st.q.base whose total_zero_ecs st
    collapses) on a prebuilt structure.  Strategy iteration from the proper
    strategy st.pick: evaluate the strategy exactly (L) and switch a state
    only where a choice improves crew + K L by more than rounding (K the
    block of st.entries); an improved strategy that no longer reaches the
    target means positive reward recurs.  The upper certificate is searched from the final L
    (`_inductive_upper`) and accepted by one exact check T U <= U.  The
    bracket passes when U - L at the initial state is within eps relative to
    its U (floor 1), or max(U - L) over the region is within eps relative to
    max |U| (floor 1); by the second clause alone, the initial state's
    bracket can be wider than eps relative to its own value."""
    fl, rows, segs, entries = flat(st.q.model), st.rows, st.segs[:-1], st.entries
    actions = np.zeros(len(fl.markovian), dtype=np.int64)
    it, sweeps, L, U = 0, 0, np.zeros(1), np.zeros(1)  # the initial state may be the target
    if len(st.active):
        srew, jump = _reward_rates(st.q.model, st.q.lift_reward(r, r.name + "@q"))
        crew_v = (srew * _sojourn(fl))[fl.choice_state[rows]] + jump[rows]
        pick = st.pick
        for it in range(1, 1001):
            # a later round's factor is freed as soon as it has solved, which
            # keeps the peak memory at the held factor plus one
            L = (_solver(len(pick), *_block(fl, rows[pick], st.active), natural=True) if it > 1
                 else st.solve)(crew_v[pick])
            better = _improve(crew_v + _dot(entries, L, len(rows)), segs, pick, L)
            if better is None:
                break
            pick = better
            _, pe = fl.edges(rows[pick])
            if not reach(fl.succ[pe], fl.edge_src[pe], np.arange(len(actions)) == st.target
                         )[st.active].all():
                raise SolverError(
                    f"positive reward {r.name + '@q'!r} recurs: the strategy improved in round "
                    f"{it} no longer reaches the target (finiteness violated); total reward "
                    f"at least {L[st.i0]} at the initial state")
        else:
            raise SolverError(f"total-reward strategy iteration did not settle in {it} rounds "
                              f"(lower bound {L[st.i0]} at the initial state)")
        actions[st.active] = rows[pick] - fl.ptr[st.active]
        U, sweeps = _inductive_upper(st, crew_v, L, eps)
        if U is None or not (np.maximum.reduceat(crew_v + _dot(entries, U, len(rows)), segs)
                             <= U).all():
            raise SolverError(f"no Bellman-inductive upper bound found: total-reward bracket "
                              f"[{L[st.i0]}, inf] at the initial state after {it} iterations")
    u0, l0 = float(U[st.i0]), float(L[st.i0])
    if u0 - l0 > eps * max(1.0, abs(u0)) and \
            float(np.max(U - L)) > eps * max(1.0, float(np.max(np.abs(U)))):
        raise SolverError(f"total-reward bracket [{l0}, {u0}] at the initial state wider "
                          f"than {eps} after {it} strategy iterations")
    return ScalarSolution(u0, decode_quotient_strategy(st.q, actions, ()),
                          (u0 - l0) / max(1.0, abs(u0)) + 1e-12, l0, u0, it, sweeps)


def _improve(q: np.ndarray, seg: np.ndarray, cur: np.ndarray, x: np.ndarray
             ) -> np.ndarray | None:
    """One switching step of strategy iteration over the segments of q
    (segment i starts at seg[i], and cur[i] is its current position): where
    the largest entry of a segment beats q[cur[i]] by more than rounding
    relative to the evaluated vector x, the position of its first
    occurrence, else cur[i]; None when no segment improves.  The margin
    keeps tied choices from swapping forever."""
    best = np.maximum.reduceat(q, seg)
    switch = best > q[cur] + 1e-12 * max(1.0, float(np.max(np.abs(x))))
    if not switch.any():
        return None
    hit = np.where(q == np.repeat(best, np.diff(seg, append=len(q))), np.arange(len(q)), len(q))
    return np.where(switch, np.minimum.reduceat(hit, seg), cur)


def _inductive_upper(st: TotalStructure, crew_v: np.ndarray, L: np.ndarray, eps: float
                     ) -> tuple[np.ndarray | None, int]:
    """A vector U >= L with bellman(U) <= U (exact float comparison), or
    None, and the Bellman steps spent.  Such U upper-bounds the optimum:
    iterating bellman from any vector converges to the unique fixed point,
    and from an inductive U the iterates only descend.  Levels are searched
    sinks first, the levels below fixed: a level starts at L + slack, and
    batched Bellman steps of its rows, computed exactly as in the global
    check, cap it until it is inductive.  The slack rises strictly with the
    level, from delta/2 to delta, so no level is held up by the slack below
    it.  A stagnant level (rounding jitter) escalates delta, from that level
    on.  A level's Bellman step reads views of its span of rows and
    entries, and its product is _dot's, as in the global check, so the two
    agree bit for bit."""
    delta = max(eps, 1e-9) * max(1.0, float(np.max(np.abs(L)))) * 0.5
    top = max(len(st.levels) - 2, 1)
    U, ell, sweeps = L.copy(), 0, 0
    _, col, val = st.entries
    for _ in range(7):
        while ell < len(st.levels) - 1:
            lo, hi = st.levels[ell], st.levels[ell + 1]
            a, b = st.segs[lo], st.segs[hi]
            e, s = slice(st.eptr[a], st.eptr[b]), slice(lo, hi)
            entries, crew, seg = (st.lrow[e], col[e], val[e]), crew_v[a:b], st.lseg[lo:hi]
            u = L[s] + 0.5 * delta * (1.0 + ell / top)
            for _ in range(30_000):
                sweeps += 1
                U[s] = u
                tu = np.maximum.reduceat(crew + _dot(entries, U, b - a), seg)
                if inductive := bool((tu <= u).all()):
                    break
                new = np.minimum(u, tu)
                if np.array_equal(new, u):
                    break
                u = new
            if not inductive:
                break
            U[s] = tu
            ell += 1
        else:
            return U, sweeps
        delta *= 8.0
    return None, sweeps


# ---------------------------------------------------------------------------
# reachability as total reward


def reach_to_total(m: MarkovAutomaton, goal) -> tuple[MarkovAutomaton, RewardAssignment]:
    """Product with a visited bit turning reachability into a total-reward
    objective.

    The fresh assignment pays 1 exactly when the bit flips.  When the
    initial state is already a goal state, a fresh rate-1 initial state is
    prepended so the flip transition exists; long-run values are unaffected
    by the finite prefix.  Product states are numbered in breadth-first
    order from the initial one, successors in edge order.
    """
    goal = frozenset(int(s) for s in goal)
    for s in goal:
        if not 0 <= s < m.n_states:
            raise ModelError(f"goal state {s} out of range")
    if not goal:
        raise ModelError("goal set is empty")
    fl = flat(m)
    in_goal = np.zeros(m.n_states, dtype=bool)
    in_goal[list(goal)] = True
    prepend = int(m.initial in goal)

    # product state (s, bit) has key 2 s + bit; breadth-first level by
    # level, each level listing its new keys in order of first discovery
    index = np.full(2 * m.n_states, -1, dtype=np.int64)
    level = np.array([2 * m.initial + prepend])
    levels, count = [], prepend
    state_edges = fl.edge_ptr[fl.ptr]
    while len(level):
        index[level] = count + np.arange(len(level))
        count += len(level)
        levels.append(level)
        pos, e = _spans(state_edges[level // 2], state_edges[level // 2 + 1])
        keys = 2 * fl.succ[e] + ((level[pos] % 2 == 1) | in_goal[fl.succ[e]])
        keys = keys[index[keys] < 0]
        _, first = np.unique(keys, return_index=True)
        level = keys[np.sort(first)]
    ps, bit = np.divmod(np.concatenate(levels), 2)

    edge_ptr, succ, prob, edge_from = copy_choices(
        fl, np.concatenate([np.full(prepend, -1), _spans(fl.ptr[ps], fl.ptr[ps + 1])[1]]),
        np.ones(prepend, dtype=np.int64))  # the prepended state hops to (initial, 1)
    fl2 = Flat(_ptr(np.concatenate([np.ones(prepend, dtype=np.int64), np.diff(fl.ptr)[ps]])),
               edge_ptr, succ, prob, np.concatenate([np.ones(prepend, dtype=bool), fl.markovian[ps]]),
               np.concatenate([np.ones(prepend), fl.rates[ps]]))
    # copied edges move to the successor's copy with the updated bit; the
    # bit flips on the prepended hop and where a copy enters the goal
    copied = edge_from >= 0
    src_bit = np.concatenate([np.ones(prepend, dtype=np.int64), bit])[fl2.edge_src[copied]] == 1
    t = succ[copied]
    succ[copied] = index[2 * t + (src_bit | in_goal[t])]
    flips = ~copied
    flips[copied] = ~src_bit & in_goal[t]
    names = ["pre-init"] * prepend + [m.state_names[s] + ("@g" if b else "")
                                      for s, b in zip(ps.tolist(), bit.tolist())]
    m2 = MarkovAutomaton.from_flat(
        fl2, 0, names, [("",)] * prepend + [m.action_names[s] for s in ps.tolist()],
        origin=np.concatenate([np.full(prepend, m.initial), ps]))
    rewards = carry_rewards(m, m2, np.concatenate([np.full(prepend, -1), ps]), edge_from)
    fresh_name = _fresh_name(m.rewards, "reach(" + ",".join(
        m.state_names[s] for s in sorted(goal)) + ")")
    fresh = RewardAssignment.from_vectors(fl2, fresh_name, np.zeros(len(names)),
                                          flips.astype(np.float64))
    rewards[fresh_name] = fresh
    m2.rewards = rewards
    return m2, fresh
