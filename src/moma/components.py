"""End components, zero-reward end components, quotients, reachability structure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import (MarkovAutomaton, ModelError, RewardAssignment, flat, reach,
                    reward_edges, strong_components)


@dataclass(frozen=True)
class EndComponent:
    """A closed, connected set of Markovian states and state-action pairs."""

    markovian_states: frozenset[int]
    pairs: frozenset[tuple[int, int]]

    def states(self) -> frozenset[int]:
        return self.markovian_states | frozenset(s for s, _ in self.pairs)

    def sorted_states(self) -> list[int]:
        return sorted(self.states())

    def actions_at(self, s: int) -> list[int]:
        return sorted(a for (u, a) in self.pairs if u == s)


def mec_decomposition(m: MarkovAutomaton,
                      choice_ok: np.ndarray | None = None) -> list[EndComponent]:
    """Maximal end components, optionally restricted to allowed choices.

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

    groups: dict[int, tuple[set[int], set[tuple[int, int]]]] = {}
    choices = np.flatnonzero(alive)
    states = fl.choice_state[choices]
    for s, a, lab, mk in zip(states.tolist(), (choices - fl.ptr[states]).tolist(),
                             labels[states].tolist(), fl.markovian[states].tolist()):
        ms, pairs = groups.setdefault(lab, (set(), set()))
        if mk:
            ms.add(s)
        else:
            pairs.add((s, a))
    comps = [EndComponent(frozenset(ms), frozenset(pairs)) for ms, pairs in groups.values()]
    comps.sort(key=lambda c: min(c.states()))
    return comps


def zero_mecs(m: MarkovAutomaton, totals: Sequence[RewardAssignment]) -> list[EndComponent]:
    """Maximal end components of the sub-model where every choice carrying a
    nonzero reward under any of the given total assignments is erased.

    Comparison is exact (0.0); with no assignments this is plain MEC
    decomposition.
    """
    if not totals:
        return mec_decomposition(m)
    fl = flat(m)
    ok = np.ones(len(fl.choice_state), dtype=bool)
    for r in totals:
        s = np.array([s for s, v in r.state_rewards.items() if v != 0.0], dtype=np.int64)
        ok[fl.ptr[s[fl.markovian[s]]]] = False
        e, _ = reward_edges(m, r)
        ok[fl.edge_choice[e]] = False
    return mec_decomposition(m, choice_ok=ok)


def exits(m: MarkovAutomaton, c: EndComponent) -> list[tuple[int, int]]:
    """State-action pairs leaving c: enabled at a state of c but not in c."""
    out = []
    for s in c.sorted_states():
        if m.is_markovian(s):
            continue
        for a in range(len(m.choices[s])):
            if (s, a) not in c.pairs:
                out.append((s, a))
    return out


def is_closed(m: MarkovAutomaton, c: EndComponent) -> bool:
    states = c.states()
    for s in c.markovian_states:
        if any(t not in states for t, _ in m.choices[s][0]):
            return False
    for s, a in c.pairs:
        if any(t not in states for t, _ in m.choices[s][a]):
            return False
    return True


def sub_ma(m: MarkovAutomaton, c: EndComponent) -> MarkovAutomaton:
    """The standalone Markov automaton induced by component c.

    State i of the result is sorted(c.states())[i]; kept actions of a
    probabilistic state preserve ascending original order, so action j
    corresponds to c.actions_at(s)[j].  Rewards are restricted pointwise.
    """
    if not is_closed(m, c):
        raise ModelError("component is not closed; cannot form a sub-model")
    states = c.sorted_states()
    index = {s: i for i, s in enumerate(states)}
    rates: list[float | None] = []
    choices = []
    action_names = []
    kept_actions: dict[int, list[int]] = {}
    for s in states:
        if m.is_markovian(s):
            rates.append(m.rates[s])
            choices.append([[(index[t], p) for t, p in m.choices[s][0]]])
            action_names.append(("",))
        else:
            acts = c.actions_at(s)
            if not acts:
                raise ModelError(f"state {m.state_names[s]} has no action inside the component")
            kept_actions[s] = acts
            rates.append(None)
            choices.append([[(index[t], p) for t, p in m.choices[s][a]] for a in acts])
            action_names.append(tuple(m.action_names[s][a] for a in acts))
    rewards = {}
    for rname, r in m.rewards.items():
        state_r = {index[s]: v for s, v in r.state_rewards.items() if s in index and m.is_markovian(s)}
        trans_r = {}
        for (s, a, t), v in r.transition_rewards.items():
            if s not in index or t not in index:
                continue
            if m.is_markovian(s):
                trans_r[(index[s], 0, index[t])] = v
            elif s in kept_actions and a in kept_actions[s]:
                trans_r[(index[s], kept_actions[s].index(a), index[t])] = v
        rewards[rname] = RewardAssignment(rname, state_r, trans_r)
    return MarkovAutomaton(rates, choices, 0, [m.state_names[s] for s in states],
                           action_names, rewards, origin=states)


@dataclass
class QuotientModel:
    """A model with end components collapsed into single probabilistic states.

    Collapsed states enable the decoded exits of their component plus, when
    built with `with_bottom`, a bottom action leading to the absorbing bottom
    state.  `action_decoding` maps (collapsed state, action index) to
    ('exit', s, a) or ('bottom',); `origin_of` maps every non-collapsed state
    back to the base model; `state_map` sends base states to quotient states.

    The lift arrays describe how the redirected choices merge the edges of
    `base`: `lift_edges` lists the base edges behind every redirected
    quotient choice (quotient choice order, then distribution order),
    `lift_group` the merged quotient edge each of them feeds, numbered in
    order of first appearance, `lift_keys` the (state, action, successor)
    of each merged edge and `lift_mass` its probability.
    """

    model: MarkovAutomaton
    components: list[EndComponent]
    bottom_state: int
    ec_states: list[int]
    action_decoding: dict[tuple[int, int], tuple]
    origin_of: dict[int, int]
    state_map: list[int]
    with_bottom: bool
    base: MarkovAutomaton
    lift_edges: np.ndarray
    lift_group: np.ndarray
    lift_keys: np.ndarray
    lift_mass: np.ndarray

    def lift_reward(self, r: RewardAssignment, name: str,
                    bottom_values: Sequence[float] | None = None) -> RewardAssignment:
        """Map a total-reward assignment of the base model onto the quotient.

        Merged successors average their rewards by probability, which keeps
        per-transition expected rewards intact.  `bottom_values[i]` becomes
        the reward of component i's bottom transition.
        """
        bfl = flat(self.base)
        kept = len(self.origin_of)  # states below this one are not collapsed
        state_r = {}
        for s in sorted(r.state_rewards):
            v = r.state_rewards[s]
            if v != 0.0 and self.base.is_markovian(s) and self.state_map[s] < kept:
                state_r[self.state_map[s]] = v

        # sums over each merged edge run in distribution order
        e, vals = reward_edges(self.base, r)
        edge_r = np.zeros(len(bfl.succ))
        edge_r[e] = vals
        pv = np.bincount(self.lift_group, minlength=len(self.lift_mass),
                         weights=bfl.prob[self.lift_edges] * edge_r[self.lift_edges])
        g = np.flatnonzero(pv)
        trans_r = dict(zip(map(tuple, self.lift_keys[g].tolist()),
                           (pv[g] / self.lift_mass[g]).tolist()))
        if bottom_values is not None:
            for i, qs in enumerate(self.ec_states):
                v = bottom_values[i]
                if v != 0.0:
                    a = len(self.model.choices[qs]) - 1
                    assert self.action_decoding[(qs, a)] == ("bottom",)
                    trans_r[(qs, a, self.bottom_state)] = v
        return RewardAssignment(name, state_r, trans_r)


def quotient(m: MarkovAutomaton, ecs: Sequence[EndComponent],
             with_bottom: bool = True) -> QuotientModel:
    """Collapse the given disjoint end components into fresh probabilistic states.

    Collapsed states enable the component's exits (sorted) plus a bottom
    action when `with_bottom` is set; bottom leads to a fresh absorbing
    Markovian state of rate 1.  Successor distributions are redirected and
    merged.  The bottom state exists even with no components.
    """
    seen: set[int] = set()
    for c in ecs:
        overlap = seen & c.states()
        if overlap:
            raise ModelError(f"end components overlap on states {sorted(overlap)}")
        seen |= c.states()
    collapsed: dict[int, int] = {}
    for i, c in enumerate(ecs):
        for s in c.states():
            collapsed[s] = i

    n = m.n_states
    state_map = [-1] * n
    rates: list[float | None] = []
    names: list[str] = []
    taken = set(m.state_names)
    origin_of: dict[int, int] = {}
    for s in range(n):
        if s in collapsed:
            continue
        state_map[s] = len(rates)
        origin_of[len(rates)] = s
        rates.append(m.rates[s])
        names.append(m.state_names[s])
    ec_states = []
    for i, c in enumerate(ecs):
        qs = len(rates)
        ec_states.append(qs)
        for s in c.states():
            state_map[s] = qs
        rates.append(None)
        nm = f"C{i}"
        while nm in taken:
            nm += "'"
        taken.add(nm)
        names.append(nm)
    bottom = len(rates)
    rates.append(1.0)
    nm = "bot"
    while nm in taken:
        nm += "'"
    names.append(nm)

    def redirect(dist):
        acc: dict[int, float] = {}
        for t, p in dist:
            qt = state_map[t]
            acc[qt] = acc.get(qt, 0.0) + p
        return sorted(acc.items())

    ptr = flat(m).ptr.tolist()
    choices: list[list[list[tuple[int, float]]]] = []
    action_names: list[tuple[str, ...]] = []
    base_choice: list[int] = []  # per quotient choice; -1 for bottom actions
    for s in range(n):
        if s in collapsed:
            continue
        choices.append([redirect(d) for d in m.choices[s]])
        action_names.append(m.action_names[s])
        base_choice.extend(range(ptr[s], ptr[s + 1]))
    action_decoding: dict[tuple[int, int], tuple] = {}
    for i, c in enumerate(ecs):
        qs = ec_states[i]
        outs = exits(m, c)
        dists = []
        anames = []
        for j, (s, a) in enumerate(outs):
            action_decoding[(qs, j)] = ("exit", s, a)
            dists.append(redirect(m.choices[s][a]))
            anames.append(f"{m.state_names[s]}.{m.action_names[s][a]}")
            base_choice.append(ptr[s] + a)
        if with_bottom:
            action_decoding[(qs, len(outs))] = ("bottom",)
            dists.append([(bottom, 1.0)])
            anames.append("bot")
            base_choice.append(-1)
        choices.append(dists)
        action_names.append(tuple(anames))
    choices.append([[(bottom, 1.0)]])
    action_names.append(("",))
    base_choice.append(-1)
    qm = MarkovAutomaton(rates, choices, state_map[m.initial], names, action_names)

    # group the base edges behind every redirected choice by merged quotient
    # edge, numbering the groups in order of first appearance
    bfl, qfl = flat(m), flat(qm)
    base_choice = np.asarray(base_choice, dtype=np.int64)
    qc = np.flatnonzero(base_choice >= 0)
    pos, e = bfl.edges(base_choice[qc])
    nq = qm.n_states
    keys, first, group = np.unique(qc[pos] * nq + np.asarray(state_map)[bfl.succ[e]],
                                   return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.argsort(order)  # inverse permutation
    c, qt = np.divmod(keys[order], nq)
    qs = qfl.choice_state[c]
    return QuotientModel(qm, list(ecs), bottom, ec_states, action_decoding,
                         origin_of, state_map, with_bottom, m, e, rank[group],
                         np.stack([qs, c - qfl.ptr[qs], qt], axis=1),
                         np.bincount(rank[group], weights=bfl.prob[e], minlength=len(order)))


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


def reach_witness_strategy(m: MarkovAutomaton, c: EndComponent, target: int) -> dict[int, int]:
    """Choices steering play inside component c toward `target` almost surely.

    Backward BFS from the target over c's internal structure; every
    probabilistic state of c gets the lowest action whose support touches the
    already-reached layer.  Staying inside c and always having a positive-
    probability path to the target makes the target almost surely reached.
    """
    states = c.states()
    reached = {target}
    sigma: dict[int, int] = {}
    frontier = True
    while frontier:
        frontier = False
        for s in c.sorted_states():
            if s in reached:
                continue
            if m.is_markovian(s):
                if any(t in reached for t, _ in m.choices[s][0]):
                    reached.add(s)
                    frontier = True
            else:
                for a in c.actions_at(s):
                    if any(t in reached for t, _ in m.choices[s][a]):
                        sigma[s] = a
                        reached.add(s)
                        frontier = True
                        break
    if reached != states:
        raise ModelError("component is not connected to the requested target")
    return sigma


def decode_quotient_strategy(q: QuotientModel, sigma_q: Mapping[int, int],
                             stay: Mapping[int, Mapping[int, int] | None]) -> dict[int, int]:
    """Translate a strategy on the quotient into one on the base model.

    Non-collapsed probabilistic states copy their choice.  A collapsed
    component whose quotient state picks an exit (s, a) plays a at s and
    steers toward s from everywhere else inside; one that picks bottom follows
    its stay strategy (`stay[i]`, required in that case) forever.
    """
    base = q.base
    ec_state_set = set(q.ec_states)
    sigma: dict[int, int] = {}
    for qs, a in sigma_q.items():
        if qs == q.bottom_state or qs in ec_state_set:
            continue
        s = q.origin_of.get(qs)
        if s is not None and not base.is_markovian(s):
            sigma[s] = a
    for i, c in enumerate(q.components):
        qs = q.ec_states[i]
        a = sigma_q.get(qs)
        if a is None:
            # component unreachable under sigma_q: stay inside deterministically
            sigma.update(_stay_inside(c))
            continue
        decoded = q.action_decoding[(qs, a)]
        if decoded == ("bottom",):
            st = stay.get(i)
            if st is None:
                raise ModelError("bottom chosen for a component without a stay strategy")
            sigma.update(st)
            # any probabilistic state of c missing from the stay strategy keeps play inside
            for s, b in _stay_inside(c).items():
                sigma.setdefault(s, b)
        else:
            _, s_exit, a_exit = decoded
            sigma.update(reach_witness_strategy(base, c, s_exit))
            sigma[s_exit] = a_exit
    # total on all probabilistic states for determinism
    for s in range(base.n_states):
        if not base.is_markovian(s):
            sigma.setdefault(s, 0)
    return sigma


def _stay_inside(c: EndComponent) -> dict[int, int]:
    out: dict[int, int] = {}
    for s, a in sorted(c.pairs):
        out.setdefault(s, a)
    return out
