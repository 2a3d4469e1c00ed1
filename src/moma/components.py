"""End components, zero-reward end components, quotients, reachability structure."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np
from scipy.sparse.csgraph import breadth_first_order

from .model import (Flat, MarkovAutomaton, ModelError, RewardAssignment, _fresh_name,
                    _graph, _ptr, _spans, carry_rewards, copy_choices, flat, reach,
                    strong_components)


@dataclass(frozen=True, eq=False)
class EndComponent:
    """A closed, connected part of a model, as arrays over the model's
    structure `fl`: its states (`members`) and the flat choices that stay
    inside it (`choices`), both ascending.  `markovian_states` and `pairs`
    are read-only set views derived from them."""

    fl: Flat
    members: np.ndarray
    choices: np.ndarray

    @cached_property
    def markovian_states(self) -> frozenset[int]:
        return frozenset(self.members[self.fl.markovian[self.members]].tolist())

    @cached_property
    def pairs(self) -> frozenset[tuple[int, int]]:
        fl = self.fl
        c = self.choices[~fl.markovian[fl.choice_state[self.choices]]]
        s = fl.choice_state[c]
        return frozenset(zip(s.tolist(), (c - fl.ptr[s]).tolist()))


def mec_decomposition(m: MarkovAutomaton,
                      choice_ok: np.ndarray | None = None) -> list[EndComponent]:
    """Maximal end components, optionally restricted to allowed choices,
    listed by least state.

    `choice_ok` is a boolean mask over the flat choices of m (see
    `model.Flat`); it defaults to allowing every choice.  Iteratively
    refines strongly connected components of the graph of alive choices,
    dropping choices whose support leaves their component, until a fixed
    point.  A state whose choices all died has no outgoing edge, so edges
    into it cross a component border as well.
    """
    fl = flat(m)
    n = m.n_states
    alive = np.ones(len(fl.choice_state), dtype=bool) if choice_ok is None \
        else np.array(choice_ok, dtype=bool)
    if alive.shape != fl.choice_state.shape:
        raise ModelError(f"choice_ok has shape {alive.shape}, "
                         f"not one entry per choice ({len(fl.choice_state)},)")
    while True:
        live = alive[fl.edge_choice]
        labels = strong_components(n, fl.edge_src[live], fl.succ[live])
        cross = live & (labels[fl.edge_src] != labels[fl.succ])
        if not cross.any():
            break
        alive[fl.edge_choice[cross]] = False

    choices = np.flatnonzero(alive)
    if not len(choices):
        return []
    lab = labels[fl.choice_state[choices]]
    order = np.argsort(lab, kind="stable")  # by component, choices ascending inside
    groups = np.split(choices[order], np.flatnonzero(np.diff(lab[order])) + 1)
    # a component's least choice belongs to its least state
    return [EndComponent(fl, np.unique(fl.choice_state[g]), g)
            for g in sorted(groups, key=lambda g: g[0])]


def zero_mecs(m: MarkovAutomaton, totals: Sequence[RewardAssignment]) -> list[EndComponent]:
    """Maximal end components of the sub-model where every choice carrying a
    nonzero reward under any of the given total assignments is erased.

    Comparison is exact (0.0); with no assignments this is plain MEC
    decomposition.
    """
    fl = flat(m)
    ok = np.ones(len(fl.choice_state), dtype=bool)
    for r in totals:
        state, edge = r.vectors(m)
        ok[fl.ptr[:-1][fl.markovian & (state != 0.0)]] = False
        ok[fl.edge_choice[edge != 0.0]] = False
    return mec_decomposition(m, choice_ok=ok)


def exits(m: MarkovAutomaton, c: EndComponent) -> np.ndarray:
    """The flat choices leaving c, ascending: those of its states not in c."""
    fl = flat(m)
    _, own = _spans(fl.ptr[c.members], fl.ptr[c.members + 1])
    return own[~np.isin(own, c.choices)]


def sub_ma(m: MarkovAutomaton, c: EndComponent) -> MarkovAutomaton:
    """The standalone Markov automaton induced by component c.

    State i of the result is c.members[i] and choice k is c.choices[k], so
    kept actions of a probabilistic state preserve ascending original
    order.  Rewards are restricted pointwise.
    """
    fl = flat(m)
    states, kept = c.members, c.choices
    index = np.full(m.n_states, -1, dtype=np.int64)
    index[states] = np.arange(len(states))
    edge_ptr, succ, prob, edge_from = copy_choices(fl, kept)
    if (index[succ] < 0).any():
        raise ModelError("component is not closed; cannot form a sub-model")
    ptr = _ptr(np.bincount(index[fl.choice_state[kept]], minlength=len(states)))
    acts, p = (kept - fl.ptr[fl.choice_state[kept]]).tolist(), ptr.tolist()
    action_names = [tuple(m.action_names[s][a] for a in acts[lo:hi])
                    for s, lo, hi in zip(states.tolist(), p, p[1:])]
    sub = MarkovAutomaton.from_flat(
        Flat(ptr, edge_ptr, index[succ], prob, fl.markovian[states], fl.rates[states]),
        0, [m.state_names[s] for s in states.tolist()], action_names, origin=states)
    sub.rewards = carry_rewards(m, sub, np.where(fl.markovian[states], states, -1), edge_from)
    return sub


@dataclass
class QuotientModel:
    """A model with end components collapsed into single probabilistic states.

    Collapsed states enable the exits of their component plus a last,
    bottom action leading to the absorbing bottom state.  `base_choice[k]`
    is the base choice behind quotient choice k, -1 for a bottom action;
    `kept[i]` is the base state behind the non-collapsed quotient state i
    (these come first); `state_map` sends base states to quotient states.

    The lift arrays describe how the redirected choices merge the edges of
    `base`: `lift_edges` lists the base edges behind every redirected
    quotient choice (quotient choice order, then distribution order), and
    `lift_group` the quotient edge each of them feeds.
    """

    model: MarkovAutomaton
    components: list[EndComponent]
    bottom_state: int
    ec_states: list[int]
    base_choice: np.ndarray
    state_map: list[int]
    base: MarkovAutomaton
    kept: np.ndarray
    lift_edges: np.ndarray
    lift_group: np.ndarray

    def lift_reward(self, r: RewardAssignment, name: str,
                    bottom_values: Sequence[float] | None = None) -> RewardAssignment:
        """Map a total-reward assignment of the base model onto the quotient.

        Merged successors average their rewards by probability, which keeps
        per-transition expected rewards intact.  `bottom_values[i]` becomes
        the reward of component i's bottom transition.
        """
        bfl, qfl = flat(self.base), flat(self.model)
        state, edge = r.vectors(self.base)
        qstate = np.zeros(self.model.n_states)
        qstate[:len(self.kept)] = np.where(bfl.markovian[self.kept], state[self.kept], 0.0)
        # sums over each merged edge run in distribution order
        pv = np.bincount(self.lift_group, minlength=len(qfl.succ),
                         weights=bfl.prob[self.lift_edges] * edge[self.lift_edges])
        qedge = pv / qfl.prob
        if bottom_values is not None:
            # the bottom action is the last choice of each collapsed state
            qedge[qfl.edge_ptr[qfl.ptr[np.array(self.ec_states, dtype=np.int64) + 1] - 1]] = \
                bottom_values
        return RewardAssignment.from_vectors(qfl, name, qstate, qedge)


def quotient(m: MarkovAutomaton, ecs: Sequence[EndComponent]) -> QuotientModel:
    """Collapse the given disjoint end components into fresh probabilistic states.

    Collapsed states enable the component's exits (sorted) plus a last,
    bottom action, which leads to a fresh absorbing Markovian state of rate
    1.  Successor distributions are redirected and merged: a choice's
    probabilities into one quotient state add up in distribution order, and
    its edges are sorted by successor.  The bottom state exists even with no
    components.
    """
    fl = flat(m)
    n = m.n_states
    label = np.full(n, -1, dtype=np.int64)
    for i, c in enumerate(ecs):
        if (label[c.members] >= 0).any():
            raise ModelError(f"end components overlap on states "
                             f"{c.members[label[c.members] >= 0].tolist()}")
        label[c.members] = i
    kept = np.flatnonzero(label < 0)
    k = len(kept)
    state_map = np.where(label < 0, 0, k + label)
    state_map[kept] = np.arange(k)
    bottom = k + len(ecs)
    nq = bottom + 1
    ec_states = list(range(k, bottom))

    taken = set(m.state_names)
    names = [m.state_names[s] for s in kept.tolist()]
    for nm in [f"C{i}" for i in range(len(ecs))] + ["bot"]:
        names.append(_fresh_name(taken, nm))
        taken.add(names[-1])
    action_names = [m.action_names[s] for s in kept.tolist()]
    base_choice = [np.flatnonzero(label[fl.choice_state] < 0)]
    for c in ecs:
        outs = exits(m, c)
        s = fl.choice_state[outs]
        action_names.append(tuple(f"{m.state_names[u]}.{m.action_names[u][a]}" for u, a in
                                  zip(s.tolist(), (outs - fl.ptr[s]).tolist()))
                            + ("bot",))
        base_choice += [outs, [-1]]
    action_names.append(("",))
    base_choice = np.concatenate(base_choice + [[-1]]).astype(np.int64)
    counts = np.concatenate([np.diff(fl.ptr)[kept], list(map(len, action_names[k:]))])

    # merged edges: one per (quotient choice, quotient successor), their
    # probabilities summed in distribution order
    qc = np.flatnonzero(base_choice >= 0)
    pos, e = fl.edges(base_choice[qc])
    keys, group = np.unique(qc[pos] * nq + state_map[fl.succ[e]], return_inverse=True)
    bot = np.flatnonzero(base_choice < 0)
    all_keys = np.concatenate([keys, bot * nq + bottom])
    order = np.argsort(all_keys)
    choice, succ = np.divmod(all_keys[order], nq)
    prob = np.concatenate([np.bincount(group, weights=fl.prob[e], minlength=len(keys)),
                           np.ones(len(bot))])[order]
    qedge = np.argsort(order)  # the quotient edge of each entry of all_keys
    markov = np.concatenate([fl.markovian[kept], np.zeros(len(ecs), dtype=bool), [True]])
    qm = MarkovAutomaton.from_flat(
        Flat(_ptr(counts), _ptr(np.bincount(choice, minlength=len(base_choice))), succ, prob,
             markov, np.concatenate([fl.rates[kept], np.zeros(len(ecs)), [1.0]])),
        int(state_map[m.initial]), names, action_names)
    return QuotientModel(qm, list(ecs), bottom, ec_states, base_choice, state_map.tolist(),
                         m, kept, e, qedge[group])


def almost_sure_reach(m: MarkovAutomaton, targets: Iterable[int]
                      ) -> tuple[np.ndarray, np.ndarray]:
    """States from which some strategy reaches the target set with probability 1,
    together with the choices such strategies may use (support stays inside).

    Returns a boolean mask over states (the region) and one over the flat
    choices of m (the allowed choices, all at region states).  Standard
    fixed point: restrict to choices whose support stays in the candidate
    set, keep states that can still reach the target, repeat.
    """
    fl = flat(m)
    target = np.zeros(m.n_states, dtype=bool)
    target[list(targets)] = True
    region = np.ones(m.n_states, dtype=bool)
    while True:
        allowed = region[fl.choice_state]
        allowed[fl.edge_choice[~region[fl.succ]]] = False
        # backward closure toward targets inside the region
        e = allowed[fl.edge_choice]
        reached = reach(fl.succ[e], fl.edge_src[e], target & region)
        if (reached == region).all():
            return region, allowed
        region = reached


def _toward(fl, e: np.ndarray, goal: np.ndarray) -> np.ndarray:
    """Per state, the flat choice of the first of the edges e (ascending edge
    indices of fl) that leads one step closer to the `goal` states in a
    backward breadth-first search over e; -1 at goal states and at states
    that cannot reach them."""
    n = len(fl.markovian)
    src, dst = fl.edge_src[e], fl.succ[e]
    # edges reversed, plus an extra root n with an edge to every goal state
    rev = _graph(n + 1, np.concatenate([dst, np.full(len(goal), n)]),
                 np.concatenate([src, goal]))
    pred = breadth_first_order(rev, n, return_predecessors=True)[1]
    step = np.flatnonzero(dst == pred[src])
    s, first = np.unique(src[step], return_index=True)
    out = np.full(n, -1, dtype=np.int64)
    out[s] = fl.edge_choice[e[step[first]]]
    return out


def decode_quotient_strategy(q: QuotientModel, actions_q: np.ndarray,
                             stay: Sequence[np.ndarray | None]) -> np.ndarray:
    """Translate a strategy on the quotient into one on the base model, both
    action vectors over their model's states (see `MDStrategy`).

    Non-collapsed states copy their choice.  A collapsed component whose
    quotient state picks an exit plays it and steers toward its state from
    everywhere else inside; one that picks bottom plays its stay choices
    (`stay[i]`: the base flat choices component i keeps, one per state of
    `q.components[i].members`; required in that case) forever.  A vector
    of another shape than (n_states of q.model,), or an action a quotient
    state does not have, is a ModelError.
    """
    fl, qfl, k = flat(q.base), flat(q.model), len(q.kept)
    actions_q = np.asarray(actions_q, dtype=np.int64)
    if actions_q.shape != (q.model.n_states,):
        raise ModelError(f"quotient strategy vector has shape {actions_q.shape}, "
                         f"not one action per state ({q.model.n_states},)")
    # each picked flat choice must lie in its state's range (bounds read off
    # the offsets: np.diff would cost more than the check, on every solve)
    at = qfl.ptr[:-1] + actions_q
    bad = (actions_q < 0) | (at >= qfl.ptr[1:])
    if np.count_nonzero(bad):
        s = int(np.argmax(bad))
        raise ModelError(f"quotient strategy picks unavailable action {actions_q[s]} "
                         f"at quotient state {s}")
    picked = q.base_choice[at]
    choice = fl.ptr[:-1].copy()
    choice[q.kept] = picked[:k]
    ec = picked[k:k + len(q.components)]
    for i in np.flatnonzero(ec < 0).tolist():
        if i >= len(stay) or stay[i] is None:
            raise ModelError("bottom chosen for a component without a stay strategy")
        choice[q.components[i].members] = stay[i]
    # one search over the inside edges of the components that pick an exit
    # routes each of their states to its own component's exit
    out = np.flatnonzero(ec >= 0)
    if len(out):
        routed = np.sort(np.concatenate([q.components[i].choices for i in out.tolist()]))
        to = _toward(fl, fl.edges(routed)[1], fl.choice_state[ec[out]])
        choice[to >= 0] = to[to >= 0]
        choice[fl.choice_state[ec[out]]] = ec[out]
    return choice - fl.ptr[:-1]
