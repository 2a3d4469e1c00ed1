"""Explicit-state Markov automata: model types, rewards, objectives, validation.

A Markov automaton mixes Markovian states (positive exit rate, exponential
sojourn, a single successor distribution) with probabilistic states
(instantaneous, one successor distribution per enabled action).  MDPs are the
special case without Markovian states and are analyzed through `embed_mdp`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Container, Iterator, Mapping, Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

PROB_TOL = 1e-12

NEG_INF = float("-inf")

class ModelError(Exception):
    """Malformed model or misused model operation."""


class SolverError(Exception):
    """A numeric solver could not certify its result."""


class InfeasibleError(Exception):
    """A constrained optimization admits no strategy."""


class RewardAssignment:
    """Named state and transition rewards.

    On a model a reward is one float vector over its states (rates per time
    unit, only meaningful on Markovian states) and one over its edges,
    numbered as in `flat(m)`.  The constructor takes the input form: state
    rewards keyed by state, transition rewards keyed by (state, choice,
    successor) with choice 0 at a Markovian state; missing entries are zero.
    `vectors(m)` places these entries on a model once.  Rewards the library
    derives are born as vectors (`from_vectors`); their dicts are read-only
    views of the nonzero entries, derived on first read.
    """

    def __init__(self, name: str, state_rewards: Mapping[int, float] | None = None,
                 transition_rewards: Mapping[tuple[int, int, int], float] | None = None):
        self.name = name
        self.state_rewards = state_rewards or {}
        self.transition_rewards = transition_rewards or {}
        self._fl = self.state = self.edge = self.off = None

    @classmethod
    def from_vectors(cls, fl: "Flat", name: str, state: np.ndarray,
                     edge: np.ndarray) -> "RewardAssignment":
        """The reward with the given vectors over the states and edges of fl."""
        r = cls.__new__(cls)
        r.name, r._fl, r.state, r.edge, r.off = name, fl, state, edge, None
        return r

    @cached_property
    def state_rewards(self) -> Mapping[int, float]:
        s = np.flatnonzero(self.state)
        return MappingProxyType(dict(zip(s.tolist(), self.state[s].tolist())))

    @cached_property
    def transition_rewards(self) -> Mapping[tuple[int, int, int], float]:
        fl, e = self._fl, np.flatnonzero(self.edge)
        src = fl.edge_src[e]
        keys = zip(src.tolist(), (fl.edge_choice[e] - fl.ptr[src]).tolist(), fl.succ[e].tolist())
        return MappingProxyType(dict(zip(keys, self.edge[e].tolist())))

    def vectors(self, m: "MarkovAutomaton") -> tuple[np.ndarray, np.ndarray]:
        """The state and edge vectors of this reward on m, placing its
        entries on m when they are not yet there.  Entries off m are dropped
        and recorded in `off` for validate_model: the state keys, in entry
        order, that are no Markovian state (out of range or probabilistic),
        and (state, choice, successor, choice exists) for every transition
        entry on no edge."""
        fl = flat(m)
        if self._fl is fl:
            return self.state, self.edge
        st, tr = self.state_rewards, self.transition_rewards
        n = len(fl.markovian)
        s = np.fromiter(st, np.int64, len(st))
        at = np.where((s >= 0) & (s < n), s, n)  # n: no state
        state = np.zeros(n + 1)
        state[at] = np.fromiter(st.values(), np.float64, len(st))
        k = len(tr)
        s_t, a, t = np.fromiter((x for sat in tr for x in sat), np.int64, 3 * k).reshape(k, 3).T
        src = np.where((s_t >= 0) & (s_t < n), s_t, n)
        known = (a >= 0) & (a < np.append(np.diff(fl.ptr), 0)[src])
        e = np.full(k, -1)
        on = known & (t >= 0) & (t < n)
        e[on] = fl.edge_of(fl.ptr[src[on]] + a[on], t[on])
        edge = np.zeros(len(fl.succ) + 1)  # the last entry takes the entries on no edge
        edge[e] = np.fromiter(tr.values(), np.float64, k)
        miss = np.flatnonzero(e < 0)
        self._fl, self.state, self.edge = fl, state[:n], edge[:-1]
        self.off = (s[~np.append(fl.markovian, False)[at]],
                    list(zip(s_t[miss].tolist(), a[miss].tolist(), t[miss].tolist(),
                             known[miss].tolist())))
        return self.state, self.edge

    def _placed(self) -> "Flat":
        if self._fl is None:
            raise ModelError(f"reward {self.name!r} is on no model yet (see vectors)")
        return self._fl

    @property
    def is_zero(self) -> bool:
        self._placed()
        return not self.state.any() and not self.edge.any()

    def negated(self, name: str) -> "RewardAssignment":
        return RewardAssignment.from_vectors(self._placed(), name, -self.state, -self.edge)


def weighted_reward_sum(name: str, parts: Sequence[tuple[float, RewardAssignment]]) -> RewardAssignment:
    """Linear combination sum_i w_i * r_i of rewards placed on one model (at
    least one part).  Parts of weight 0 contribute nothing, even where r_i
    is NaN or infinite."""
    if not parts:
        raise ModelError("a weighted sum needs at least one part")
    fl = parts[0][1]._placed()
    if any(r._placed() is not fl for _, r in parts):
        raise ModelError("weighted sum of rewards placed on different models")
    live = [(w, r) for w, r in parts if w != 0.0]
    return RewardAssignment.from_vectors(
        fl, name, sum((w * r.state for w, r in live), np.zeros(len(fl.markovian))),
        sum((w * r.edge for w, r in live), np.zeros(len(fl.succ))))


def _fresh_name(taken: Container[str], base: str) -> str:
    """base, primed until it is not taken."""
    while base in taken:
        base += "'"
    return base


@dataclass(frozen=True)
class Objective:
    """One optimization objective over a named reward or a goal set.

    kind is 'lra' (long-run average), 'total' (expected total reward) or
    'reach' (reachability probability, transformed to a total objective before
    solving).  direction is 'max' or 'min'.
    """

    kind: str
    direction: str = "max"
    reward: str | None = None
    goal: frozenset[int] | None = None

    def __post_init__(self):
        if self.kind not in ("lra", "total", "reach"):
            raise ModelError(f"unknown objective kind {self.kind!r}")
        if self.direction not in ("max", "min"):
            raise ModelError(f"unknown objective direction {self.direction!r}")
        if self.kind == "reach":
            if not self.goal:
                raise ModelError("reach objective needs a nonempty goal set")
        elif self.reward is None:
            raise ModelError(f"{self.kind} objective needs a reward name")


# A memoryless deterministic strategy: the action index of every state of
# the model it was solved on, 0 at Markovian states, as one int64 vector.
# `evaluate_strategy` and `induced_chain` also take the mapping form
# {probabilistic state: action index}.
MDStrategy = np.ndarray


class MarkovAutomaton:
    """A Markov automaton over dense integer state ids.

    The structure is the whole-array view `flat(m)`, built and checked once
    at construction.  The constructor takes it as tuples: `rates[s]` is the
    exit rate of a Markovian state and None for a probabilistic state, and
    `choices[s]` lists the successor distributions of s (exactly one for a
    Markovian state, one per enabled action otherwise), each a sequence of
    (successor, probability) pairs.  `m.rates` is a read-only view of the
    arrays in the first form, derived on first read.

    Models are treated as immutable after construction.  `origin`, when set,
    maps each state of a derived model (embedding, product, restriction) back
    to a state of the model it was derived from.
    """

    __slots__ = ("initial", "state_names", "action_names", "rewards", "origin", "_flat")

    def __init__(self, rates, choices, initial, state_names=None,
                 action_names=None, rewards=None, origin=None):
        rates, choices = list(rates), list(choices)
        if len(choices) != len(rates):
            raise ModelError("rates and choices disagree on the number of states")
        dists = [d for cs in choices for d in cs]
        fl = Flat(_ptr(list(map(len, choices))), _ptr(list(map(len, dists))),
                  np.fromiter((t for d in dists for t, _ in d), np.int64),
                  np.fromiter((p for d in dists for _, p in d), np.float64),
                  np.array([r is not None for r in rates], dtype=bool),
                  np.array([0.0 if r is None else float(r) for r in rates]))
        self._set(fl, initial, state_names, action_names, rewards, origin)

    @classmethod
    def from_flat(cls, fl: "Flat", initial, state_names=None, action_names=None,
                  rewards=None, origin=None) -> "MarkovAutomaton":
        """The model whose structure is the arrays of fl."""
        m = cls.__new__(cls)
        m._set(fl, initial, state_names, action_names, rewards, origin)
        return m

    def _set(self, fl, initial, state_names, action_names, rewards, origin):
        n = len(fl.markovian)
        if not 0 <= initial < n:
            raise ModelError(f"initial state {initial} out of range")
        n_choices = np.diff(fl.ptr)
        bad = np.flatnonzero(fl.markovian & (n_choices != 1))
        if len(bad):
            raise ModelError(f"Markovian state {bad[0]} must have exactly one distribution")
        bad = np.flatnonzero((fl.succ < 0) | (fl.succ >= n))
        if len(bad):
            raise ModelError(f"successor {fl.succ[bad[0]]} of state "
                             f"{fl.edge_src[bad[0]]} out of range")
        self.state_names: tuple[str, ...] = tuple(
            f"s{i}" for i in range(n)) if state_names is None else tuple(state_names)
        if action_names is None:
            action_names = (("",) if mk else tuple(f"a{j}" for j in range(k))
                            for mk, k in zip(fl.markovian.tolist(), n_choices.tolist()))
        self.action_names: tuple[tuple[str, ...], ...] = tuple(tuple(a) for a in action_names)
        if len(self.state_names) != n or len(self.action_names) != n:
            raise ModelError("state_names or action_names length mismatch")
        self._flat = fl
        self.initial = int(initial)
        self.rewards: dict[str, RewardAssignment] = dict(rewards or {})
        self.origin: tuple[int, ...] | None = None if origin is None else tuple(
            np.asarray(origin, dtype=np.int64).tolist())

    @property
    def rates(self) -> tuple[float | None, ...]:
        return self._flat.rate_tuple

    @property
    def n_states(self) -> int:
        return len(self._flat.markovian)

    @property
    def n_choices(self) -> int:
        return int(self._flat.ptr[-1])

    def is_markovian(self, s: int) -> bool:
        return bool(self._flat.markovian[s])

    def markovian_states(self) -> list[int]:
        return np.flatnonzero(self._flat.markovian).tolist()

    def reachable(self, start: int | None = None) -> list[int]:
        """States reachable from start (default: initial) under any strategy."""
        fl = flat(self)
        sources = np.zeros(self.n_states, dtype=bool)
        sources[self.initial if start is None else start] = True
        return np.flatnonzero(reach(fl.edge_src, fl.succ, sources)).tolist()

    def with_rewards(self, rewards: Mapping[str, RewardAssignment]) -> "MarkovAutomaton":
        m = copy.copy(self)
        m.rewards = dict(rewards)
        return m

    def __repr__(self):
        nm = len(self.markovian_states())
        return (f"MarkovAutomaton({self.n_states} states, {nm} Markovian, "
                f"{self.n_choices} choices)")


def _ptr(counts) -> np.ndarray:
    """Pointer array of consecutive segments of the given lengths."""
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _spans(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The indices lo[i] .. hi[i]-1 of every range i in turn, each with its i."""
    lens = hi - lo
    pos = np.repeat(np.arange(len(lo)), lens)
    return pos, lo[pos] + np.arange(len(pos)) - (np.cumsum(lens) - lens)[pos]


@dataclass(eq=False)
class Flat:
    """The structure of a model as whole arrays (see `MarkovAutomaton`).

    Choices are numbered state by state in action order: state s owns
    choices ptr[s] .. ptr[s+1]-1.  Edges are numbered choice by choice in
    distribution order: choice c owns edges edge_ptr[c] .. edge_ptr[c+1]-1,
    edge e leads to succ[e] with probability prob[e].  `rates` is 0 on
    probabilistic states.  `choice_state`, `edge_choice` and `edge_src` are
    derived at construction; `edge_index` and `rate_tuple` on first use.
    """

    ptr: np.ndarray
    edge_ptr: np.ndarray
    succ: np.ndarray
    prob: np.ndarray
    markovian: np.ndarray
    rates: np.ndarray

    def __post_init__(self):
        # the state of every choice, the choice and the state of every edge
        self.choice_state = np.repeat(np.arange(len(self.markovian)), np.diff(self.ptr))
        self.edge_choice = np.repeat(np.arange(len(self.edge_ptr) - 1), np.diff(self.edge_ptr))
        self.edge_src = self.choice_state[self.edge_choice]

    @cached_property
    def rate_tuple(self) -> tuple[float | None, ...]:
        return tuple(r if mk else None
                     for r, mk in zip(self.rates.tolist(), self.markovian.tolist()))

    def edges(self, choices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The edges of the given choices, in order: for each edge, the
        position of its choice in `choices` and its edge index."""
        return _spans(self.edge_ptr[choices], self.edge_ptr[choices + 1])

    @cached_property
    def edge_index(self) -> tuple[np.ndarray, np.ndarray]:
        """The keys edge_choice * n_states + succ in ascending order, and
        the edge behind each key."""
        keys = self.edge_choice * len(self.markovian) + self.succ
        rank = np.argsort(keys, kind="stable")
        return keys[rank], rank

    def edge_of(self, choices: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Index of the edge from each choice to its successor t, or -1."""
        keys, rank = self.edge_index
        if not len(keys):
            return np.full(len(choices), -1, dtype=np.int64)
        want = choices * len(self.markovian) + t
        pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
        return np.where(keys[pos] == want, rank[pos], -1)


def flat(m: MarkovAutomaton) -> Flat:
    """The model's whole-array structure."""
    return m._flat


def copy_choices(fl: Flat, base_choice: np.ndarray, targets=()
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Edge arrays of derived choices: choice i copies the edges of the
    choice base_choice[i] of fl or, where that is -1, has one edge of
    probability 1 to the next of `targets`.  Returns the edge pointer, the
    successors (base successors on copied edges), the probabilities and
    the base edge behind every edge (-1 on the single edges)."""
    copied = base_choice >= 0
    _, e = fl.edges(base_choice[copied])
    lens = np.ones(len(base_choice), dtype=np.int64)
    lens[copied] = np.diff(fl.edge_ptr)[base_choice[copied]]
    copied_edge = np.repeat(copied, lens)
    edge_from = np.full(len(copied_edge), -1, dtype=np.int64)
    edge_from[copied_edge] = e
    succ = np.empty(len(copied_edge), dtype=np.int64)
    succ[copied_edge] = fl.succ[e]
    succ[~copied_edge] = targets
    prob = np.ones(len(copied_edge))
    prob[copied_edge] = fl.prob[e]
    return _ptr(lens), succ, prob, edge_from


def carry_rewards(base: MarkovAutomaton, d: MarkovAutomaton, state_from: np.ndarray,
                  edge_from: np.ndarray) -> dict[str, RewardAssignment]:
    """The rewards of base carried onto the model d derived from it: state i
    of d earns the state reward of base state state_from[i], edge f of d the
    transition reward of base edge edge_from[f] (nothing where -1)."""
    out = {}
    for name, r in base.rewards.items():
        state, edge = r.vectors(base)
        out[name] = RewardAssignment.from_vectors(
            flat(d), name, np.append(state, 0.0)[state_from], np.append(edge, 0.0)[edge_from])
    return out


def _graph(n: int, src: np.ndarray, dst: np.ndarray) -> csr_matrix:
    """Adjacency matrix of the edges src[i] -> dst[i] over n states.

    Built straight in canonical CSR form (duplicate edges merged: scipy's
    search for strong components does not end on a row that lists a column
    twice) with float data and 32-bit indices, the form the csgraph routines
    work on, so they convert nothing; on small models that conversion would
    cost more than the search itself.
    """
    keys = np.sort(np.asarray(src, dtype=np.int64) * n + dst)
    # np.sort plus a mask: np.unique takes several times as long here
    rows, cols = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return csr_matrix((np.ones(len(cols)), cols.astype(np.int32), indptr), shape=(n, n))


def reach(src: np.ndarray, dst: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Mask of the states reachable from the `sources` mask along the edges
    src[i] -> dst[i]."""
    # breadth-first search from an extra root node n with an edge to every source
    n = len(sources)
    roots = np.flatnonzero(sources)
    g = _graph(n + 1, np.concatenate([src, np.full(len(roots), n)]),
               np.concatenate([dst, roots]))
    out = np.zeros(n + 1, dtype=bool)
    out[breadth_first_order(g, n, directed=True, return_predecessors=False)] = True
    return out[:n]


def strong_components(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Strongly connected component label of each of the n states, for the
    graph of the edges src[i] -> dst[i]."""
    return connected_components(_graph(n, src, dst), directed=True, connection="strong")[1]


def scc_levels(n: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Per state, the height of its strongly connected component in the
    condensation of the edges src[i] -> dst[i]: 0 for a component no edge
    leaves, else one more than the highest component its edges enter.  An
    edge never raises the level and lowers it between components."""
    labels = strong_components(n, src, dst)  # below n
    cross = labels[src] != labels[dst]
    a, b = labels[src[cross]], labels[dst[cross]]  # component edges a -> b
    out = np.bincount(a, minlength=n)
    into, by_b = _ptr(np.bincount(b, minlength=n)), a[np.argsort(b, kind="stable")]
    height = np.zeros(n, dtype=np.int64)
    # peel the components whose edges all enter components already leveled
    level, h = np.flatnonzero(out == 0), 0
    while len(level):
        height[level] = h
        u, c = np.unique(by_b[_spans(into[level], into[level + 1])[1]], return_counts=True)
        out[u] -= c
        level, h = u[out[u] == 0], h + 1
    return height[labels]


@dataclass(frozen=True)
class Violation:
    assumption: str  # WellFormed | NonZeno | SignConsistency | Finiteness
    location: str
    message: str

    def __str__(self):
        return f"[{self.assumption}] {self.location}: {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, assumption: str, location: str, message: str) -> None:
        self.violations.append(Violation(assumption, location, message))

    def extend(self, other: "ValidationReport") -> "ValidationReport":
        self.violations.extend(other.violations)
        return self

    def __str__(self):
        return "\n".join(str(v) for v in self.violations) if self.violations else "ok"


def validate_model(m: MarkovAutomaton) -> ValidationReport:
    """Well-formedness of distributions, rates, deadlocks, reward keys and
    reward values, in scan order."""
    rep = ValidationReport()
    fl, names = flat(m), m.state_names
    # each sum runs in edge order from 0.0, as when adding one edge at a time
    total = np.bincount(fl.edge_choice, weights=fl.prob, minlength=len(fl.choice_state))
    keys, rank = fl.edge_index  # a repeated successor repeats a key, in edge order
    s = np.flatnonzero(np.where(fl.markovian, ~(fl.rates > 0.0) | (fl.rates == np.inf),
                                fl.ptr[:-1] == fl.ptr[1:]))
    # (place in the scan, state, message): c + e at edge e of choice c or, for all of
    # c, at its end edge; a state at its first choice and edge; ties keep check order
    found = list(zip((fl.ptr[s] + fl.edge_ptr[fl.ptr[s]]).tolist(), s.tolist(),
                     [f"Markovian state has {'infinite' if r > 0.0 else 'non-positive'} rate {r}"
                      if mk else "probabilistic state enables no action (deadlock)"
                      for mk, r in zip(fl.markovian[s].tolist(), fl.rates[s].tolist())]))

    def note(c, e, message, *values):
        a = c - fl.ptr[fl.choice_state[c]]
        found.extend(zip((c + e).tolist(), fl.choice_state[c].tolist(),
                         (message.format(*v) for v in zip(a.tolist(), *values))))
    c = np.flatnonzero(fl.edge_ptr[:-1] == fl.edge_ptr[1:])
    note(c, fl.edge_ptr[c], "choice {} has an empty distribution")
    e = rank[1:][keys[1:] == keys[:-1]]
    note(fl.edge_choice[e], e, "choice {} lists successor {} twice",
         [names[t] for t in fl.succ[e].tolist()])
    e = np.flatnonzero(~((fl.prob > 0.0) & (fl.prob <= 1.0 + PROB_TOL)))
    note(fl.edge_choice[e], e, "choice {} carries probability {} outside (0, 1]",
         fl.prob[e].tolist())
    c = np.flatnonzero((fl.edge_ptr[:-1] < fl.edge_ptr[1:]) & (np.abs(total - 1.0) > PROB_TOL))
    note(c, fl.edge_ptr[c + 1], "choice {} sums to {!r}, not 1", total[c].tolist())
    for _, s, message in sorted(found, key=lambda f: f[0]):
        rep.add("WellFormed", names[s], message)
    # in a pure MDP (no Markovian states) every state earns per step, so state
    # rewards on probabilistic states only signal a mistake in a genuine MA
    is_mdp = not fl.markovian.any()
    for rname, r in m.rewards.items():
        state, edge = r.vectors(m)
        # a reward born as vectors has no entry off the model
        off_states, off_edges = r.off or (np.flatnonzero(~fl.markovian & (state != 0.0)), [])
        for s in off_states.tolist():
            if not 0 <= s < m.n_states:
                rep.add("WellFormed", rname, f"state reward on unknown state {s}")
            elif not is_mdp and state[s] != 0.0:
                rep.add("WellFormed", rname, f"state reward on probabilistic state {names[s]}")
        for s, a, t, known in off_edges:
            if not known:
                rep.add("WellFormed", rname, f"transition reward on unknown choice ({s}, {a})")
            else:
                rep.add("WellFormed", rname, f"transition reward on zero-probability edge "
                                              f"({names[s]}, {a}, {t})")
        # the entries on the model that are not finite, by state and by edge
        for s in np.flatnonzero(~np.isfinite(state)).tolist():
            rep.add("WellFormed", rname, f"non-finite state reward {state[s]} at {names[s]}")
        e = np.flatnonzero(~np.isfinite(edge))
        src = fl.edge_src[e]
        for s, a, t, v in zip(src.tolist(), (fl.edge_choice[e] - fl.ptr[src]).tolist(),
                              fl.succ[e].tolist(), edge[e].tolist()):
            rep.add("WellFormed", rname, f"non-finite transition reward {v} on edge "
                                          f"({names[s]}, {a}, {t})")
    return rep


def _internal_reward_entries(m: MarkovAutomaton, r: RewardAssignment, c) -> Iterator[tuple[str, float]]:
    """Nonzero reward entries assigned inside component c (exact comparison):
    those of its Markovian choices, then of its probabilistic ones."""
    fl, names = flat(m), m.state_names
    state, edge = r.vectors(m)
    choices = c.choices[np.argsort(~fl.markovian[fl.choice_state[c.choices]], kind="stable")]
    for s, ch in zip(fl.choice_state[choices].tolist(), choices.tolist()):
        if fl.markovian[s] and state[s] != 0.0:
            yield names[s], float(state[s])
        lo = fl.edge_ptr[ch]
        act = "" if fl.markovian[s] else f"[{m.action_names[s][ch - fl.ptr[s]]}]"
        for e in (lo + np.flatnonzero(edge[lo:fl.edge_ptr[ch + 1]])).tolist():
            yield f"{names[s]}{act}->{names[fl.succ[e]]}", float(edge[e])


def check_total_rewards(m: MarkovAutomaton, objectives: Sequence[Objective],
                        mecs) -> ValidationReport:
    """Total rewards inside the end components mecs.  Each one must keep
    one sign there (SignConsistency), and a maximized one diverges iff a
    reachable end component carries a strictly positive internal reward
    (Finiteness)."""
    rep = ValidationReport()
    for r in {o.reward: m.rewards[o.reward] for o in objectives if o.kind == "total"}.values():
        pos_at = neg_at = None
        for c in mecs:
            for loc, v in _internal_reward_entries(m, r, c):
                if v > 0.0 and pos_at is None:
                    pos_at = loc
                elif v < 0.0 and neg_at is None:
                    neg_at = loc
        if pos_at is not None and neg_at is not None:
            rep.add("SignConsistency", r.name,
                    f"end components mix positive ({pos_at}) and negative ({neg_at}) rewards")
    reachable = m.reachable()
    for r in {o.reward: m.rewards[o.reward] for o in objectives
              if o.kind == "total" and o.direction == "max"}.values():
        for c in mecs:
            if not np.isin(c.members, reachable).any():
                continue
            for loc, v in _internal_reward_entries(m, r, c):
                if v > 0.0:
                    rep.add("Finiteness", r.name,
                            f"positive reward {v} at {loc} inside a reachable end component")
                    break
    return rep


def embed_mdp(m: MarkovAutomaton) -> MarkovAutomaton:
    """Turn an MDP (all states probabilistic) into a Markov automaton whose
    time-based values coincide with the MDP's step-based values.

    Every action gets a rate-1 Markovian hop carrying its distribution, its
    transition rewards, and the state reward of its source, so one step costs
    one expected time unit.  States with a single action are that hop
    themselves: they become rate-1 Markovian states in place.  Base states
    keep their ids; hops follow them in base choice order.
    """
    fl = flat(m)
    if fl.markovian.any():
        raise ModelError("embed_mdp expects an MDP: no Markovian states")
    n, nc = m.n_states, m.n_choices
    single = np.diff(fl.ptr) == 1
    hop = np.flatnonzero(~single[fl.choice_state])  # the base choice of each hop
    hops = n + np.arange(len(hop))
    edge_ptr, succ, prob, edge_from = copy_choices(
        fl, np.concatenate([np.where(single[fl.choice_state], np.arange(nc), -1), hop]), hops)
    markov = np.concatenate([single, np.ones(len(hop), dtype=bool)])
    hs = fl.choice_state[hop]
    names = list(m.state_names) + [f"{m.state_names[s]}.{m.action_names[s][a]}"
                                   for s, a in zip(hs.tolist(), (hop - fl.ptr[hs]).tolist())]
    action_names = [("",) if one else an for one, an in zip(single.tolist(), m.action_names)]
    e = MarkovAutomaton.from_flat(
        Flat(np.concatenate([fl.ptr, nc + 1 + np.arange(len(hop))]), edge_ptr, succ, prob,
             markov, markov.astype(np.float64)),
        m.initial, names, action_names + [("",)] * len(hop),
        origin=np.concatenate([np.arange(n), hs]))
    e.rewards = carry_rewards(m, e, np.concatenate([np.where(single, np.arange(n), -1), hs]),
                              edge_from)
    return e


def _chosen(m: MarkovAutomaton, sigma: MDStrategy | Mapping[int, int]
            ) -> tuple[np.ndarray, np.ndarray, csr_matrix]:
    """The flat choice sigma takes at every state (the only one at a
    Markovian state, action 0 at a probabilistic state a mapping omits), the
    states reachable under sigma (a mask) and the `_graph` of its edges.

    Errors if sigma picks an action a state does not have, if a vector's
    shape is not (n_states,), or if a mapping misses a reachable
    probabilistic state; entries at Markovian states, and a mapping's
    entries for other states, are ignored.
    """
    fl = flat(m)
    n = m.n_states
    if isinstance(sigma, Mapping):
        s, a = (np.fromiter(x, np.int64, len(sigma)) for x in (sigma.keys(), sigma.values()))
        inside = (s >= 0) & (s < n)
        act, given = np.zeros(n, dtype=np.int64), fl.markovian.copy()
        act[s[inside]], given[s[inside]] = a[inside], True
    else:
        act, given = np.array(sigma, dtype=np.int64), np.ones(n, dtype=bool)
        if act.shape != (n,):
            raise ModelError(f"strategy vector has shape {act.shape}, "
                             f"not one action per state ({n},)")
    act[fl.markovian] = 0
    bad = np.flatnonzero((act < 0) | (act >= np.diff(fl.ptr)))
    if len(bad):
        raise ModelError(f"strategy picks unavailable action {act[bad[0]]} "
                         f"at {m.state_names[bad[0]]}")
    chosen = fl.ptr[:-1] + act
    _, e = fl.edges(chosen)
    g = _graph(n, fl.edge_src[e], fl.succ[e])
    live = np.zeros(n, dtype=bool)
    live[breadth_first_order(g, m.initial, return_predecessors=False)] = True
    missing = np.flatnonzero(live & ~given)
    if len(missing):
        raise ModelError(f"strategy misses reachable probabilistic state "
                         f"{m.state_names[missing[0]]}")
    return chosen, live, g


def induced_chain(m: MarkovAutomaton, sigma: MDStrategy | Mapping[int, int]
                  ) -> MarkovAutomaton:
    """Restrict every probabilistic state to the action chosen by sigma, an
    action vector or a mapping (see `MDStrategy`).

    Errors as `_chosen`; unreachable states a mapping omits fall back to
    action 0.  Transition reward keys are remapped to choice index 0.
    """
    chosen = _chosen(m, sigma)[0]
    fl = flat(m)
    edge_ptr, succ, prob, edge_from = copy_choices(fl, chosen)
    act = (chosen - fl.ptr[:-1]).tolist()
    action_names = [("",) if mk else (m.action_names[s][a],)
                    for s, (mk, a) in enumerate(zip(fl.markovian.tolist(), act))]
    n = m.n_states
    chain = MarkovAutomaton.from_flat(
        Flat(np.arange(n + 1), edge_ptr, succ, prob, fl.markovian, fl.rates),
        m.initial, m.state_names, action_names, origin=np.arange(n))
    chain.rewards = carry_rewards(m, chain, np.arange(n), edge_from)
    return chain
