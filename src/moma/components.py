"""End components, zero-reward end components, quotients, reachability structure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .model import (Flat, MarkovAutomaton, ModelError, RewardAssignment, _ptr,
                    carry_rewards, copy_choices, flat, reach, strong_components)


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
        state, edge = r.vectors(m)
        ok[fl.ptr[:-1][fl.markovian & (state != 0.0)]] = False
        ok[fl.edge_choice[edge != 0.0]] = False
    return mec_decomposition(m, choice_ok=ok)


def exits(m: MarkovAutomaton, c: EndComponent) -> list[tuple[int, int]]:
    """State-action pairs leaving c: enabled at a state of c but not in c."""
    fl = flat(m)
    return [(s, a) for s in c.sorted_states() if not fl.markovian[s]
            for a in range(fl.ptr[s + 1] - fl.ptr[s]) if (s, a) not in c.pairs]


def sub_ma(m: MarkovAutomaton, c: EndComponent) -> MarkovAutomaton:
    """The standalone Markov automaton induced by component c.

    State i of the result is sorted(c.states())[i]; kept actions of a
    probabilistic state preserve ascending original order, so action j
    corresponds to c.actions_at(s)[j].  Rewards are restricted pointwise.
    """
    fl = flat(m)
    states = np.array(c.sorted_states(), dtype=np.int64)
    index = np.full(m.n_states, -1, dtype=np.int64)
    index[states] = np.arange(len(states))
    pairs = np.array(list(c.pairs), dtype=np.int64).reshape(-1, 2)
    kept = np.sort(np.concatenate([fl.ptr[np.fromiter(c.markovian_states, np.int64)],
                                   fl.ptr[pairs[:, 0]] + pairs[:, 1]]))
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

    Collapsed states enable the decoded exits of their component plus, when
    built with `with_bottom`, a bottom action leading to the absorbing bottom
    state.  `action_decoding` maps (collapsed state, action index) to
    ('exit', s, a) or ('bottom',); `kept[i]` is the base state behind the
    non-collapsed quotient state i (these come first); `state_map` sends
    base states to quotient states.

    The lift arrays describe how the redirected choices merge the edges of
    `base`: `lift_edges` lists the base edges behind every redirected
    quotient choice (quotient choice order, then distribution order), and
    `lift_group` the quotient edge each of them feeds.
    """

    model: MarkovAutomaton
    components: list[EndComponent]
    bottom_state: int
    ec_states: list[int]
    action_decoding: dict[tuple[int, int], tuple]
    state_map: list[int]
    with_bottom: bool
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
            assert self.with_bottom, "bottom values need bottom actions"
            # the bottom action is the last choice of each collapsed state
            qedge[qfl.edge_ptr[qfl.ptr[np.array(self.ec_states, dtype=np.int64) + 1] - 1]] = \
                bottom_values
        return RewardAssignment.from_vectors(qfl, name, qstate, qedge)


def quotient(m: MarkovAutomaton, ecs: Sequence[EndComponent],
             with_bottom: bool = True) -> QuotientModel:
    """Collapse the given disjoint end components into fresh probabilistic states.

    Collapsed states enable the component's exits (sorted) plus a bottom
    action when `with_bottom` is set; bottom leads to a fresh absorbing
    Markovian state of rate 1.  Successor distributions are redirected and
    merged: a choice's probabilities into one quotient state add up in
    distribution order, and its edges are sorted by successor.  The bottom
    state exists even with no components.
    """
    fl = flat(m)
    n = m.n_states
    label = np.full(n, -1, dtype=np.int64)
    for i, c in enumerate(ecs):
        s = np.fromiter(c.states(), np.int64)
        if (label[s] >= 0).any():
            raise ModelError(f"end components overlap on states "
                             f"{sorted(s[label[s] >= 0].tolist())}")
        label[s] = i
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
        while nm in taken:
            nm += "'"
        taken.add(nm)
        names.append(nm)
    action_names = [m.action_names[s] for s in kept.tolist()]
    action_decoding: dict[tuple[int, int], tuple] = {}
    base_choice = [np.flatnonzero(label[fl.choice_state] < 0)]  # -1 for bottom actions
    for qs, c in zip(ec_states, ecs):
        outs = exits(m, c)
        for j, (s, a) in enumerate(outs):
            action_decoding[(qs, j)] = ("exit", s, a)
        if with_bottom:
            action_decoding[(qs, len(outs))] = ("bottom",)
        action_names.append(tuple(f"{m.state_names[s]}.{m.action_names[s][a]}"
                                  for s, a in outs) + ("bot",) * with_bottom)
        base_choice.append(np.array([fl.ptr[s] + a for s, a in outs] + [-1] * with_bottom,
                                    dtype=np.int64))
    action_names.append(("",))
    base_choice = np.concatenate(base_choice + [[-1]])
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
    return QuotientModel(qm, list(ecs), bottom, ec_states, action_decoding, state_map.tolist(),
                         with_bottom, m, kept, e, qedge[group])


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
    fl = flat(m)
    acts: dict[int, list[int]] = {s: [0] for s in c.markovian_states}
    for s, a in sorted(c.pairs):
        acts.setdefault(s, []).append(a)
    # per state of c in order, its choices inside c with their successors
    options = [(s, [(a, set(fl.succ[fl.edge_ptr[fl.ptr[s] + a]:
                                    fl.edge_ptr[fl.ptr[s] + a + 1]].tolist())) for a in acts[s]])
               for s in sorted(acts)]
    reached = {target}
    sigma: dict[int, int] = {}
    frontier = True
    while frontier:
        frontier = False
        for s, choices in options:
            if s in reached:
                continue
            for a, succ in choices:
                if not succ.isdisjoint(reached):
                    if s not in c.markovian_states:
                        sigma[s] = a
                    reached.add(s)
                    frontier = True
                    break
    if reached != c.states():
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
    kept = q.kept.tolist()
    sigma: dict[int, int] = {}
    for qs, a in sigma_q.items():
        if qs < len(kept) and not base.is_markovian(kept[qs]):
            sigma[kept[qs]] = a
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
    for s in np.flatnonzero(~flat(base).markovian).tolist():
        sigma.setdefault(s, 0)
    return sigma


def _stay_inside(c: EndComponent) -> dict[int, int]:
    out: dict[int, int] = {}
    for s, a in sorted(c.pairs):
        out.setdefault(s, a)
    return out
