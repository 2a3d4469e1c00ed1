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
from typing import Iterator, Mapping, Sequence

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


@dataclass(frozen=True)
class RewardAssignment:
    """Named state and transition rewards.

    State rewards are rates per time unit and are only meaningful on Markovian
    states.  Transition rewards are keyed by (state, choice, successor) where
    the choice index is 0 for a Markovian state and the action index for a
    probabilistic state.  Missing entries are zero.
    """

    name: str
    state_rewards: Mapping[int, float] = field(default_factory=dict)
    transition_rewards: Mapping[tuple[int, int, int], float] = field(default_factory=dict)

    def state_reward(self, s: int) -> float:
        return self.state_rewards.get(s, 0.0)

    def transition_reward(self, s: int, a: int, t: int) -> float:
        return self.transition_rewards.get((s, a, t), 0.0)

    @property
    def is_zero(self) -> bool:
        return not any(self.state_rewards.values()) and not any(self.transition_rewards.values())

    def negated(self, name: str) -> "RewardAssignment":
        return RewardAssignment(
            name,
            {s: -v for s, v in self.state_rewards.items()},
            {k: -v for k, v in self.transition_rewards.items()},
        )

    def scaled(self, factor: float, name: str) -> "RewardAssignment":
        return RewardAssignment(
            name,
            {s: factor * v for s, v in self.state_rewards.items()},
            {k: factor * v for k, v in self.transition_rewards.items()},
        )


def weighted_reward_sum(name: str, parts: Sequence[tuple[float, RewardAssignment]]) -> RewardAssignment:
    """Linear combination sum_i w_i * r_i as a fresh assignment."""
    state: dict[int, float] = {}
    trans: dict[tuple[int, int, int], float] = {}
    for w, r in parts:
        if w == 0.0:
            continue
        for s, v in r.state_rewards.items():
            state[s] = state.get(s, 0.0) + w * v
        for k, v in r.transition_rewards.items():
            trans[k] = trans.get(k, 0.0) + w * v
    return RewardAssignment(name, state, trans)


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


# A memoryless deterministic strategy: probabilistic state -> action index.
MDStrategy = dict[int, int]

Dist = tuple[tuple[int, float], ...]


class MarkovAutomaton:
    """A Markov automaton over dense integer state ids.

    The structure is the whole-array view `flat(m)`, built and checked once
    at construction.  `rates[s]` is the exit rate of a Markovian state and
    None for a probabilistic state.  `choices[s]` lists the successor
    distributions of s: exactly one for a Markovian state, one per enabled
    action otherwise.  Each distribution is a tuple of (successor,
    probability) pairs.  Both tuples are read-only views of the arrays,
    derived on first read.

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
    def choices(self) -> tuple[tuple[Dist, ...], ...]:
        return self._flat.choice_tuples

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

    def successors(self, s: int) -> list[int]:
        fl = self._flat
        return np.unique(fl.succ[fl.edge_ptr[fl.ptr[s]]:fl.edge_ptr[fl.ptr[s + 1]]]).tolist()

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
    derived at construction; `kernel` (the choice-by-state probability
    matrix), `edge_index` and the tuple views on first use.
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
    def kernel(self) -> csr_matrix:
        """Choice-by-state probability matrix in canonical CSR form."""
        k = csr_matrix((self.prob.copy(), self.succ, self.edge_ptr),
                       shape=(len(self.choice_state), len(self.markovian)))
        k.sum_duplicates()  # rows sorted by successor, as when built from coordinates
        return k

    @cached_property
    def rate_tuple(self) -> tuple[float | None, ...]:
        return tuple(r if mk else None
                     for r, mk in zip(self.rates.tolist(), self.markovian.tolist()))

    @cached_property
    def choice_tuples(self) -> tuple[tuple[Dist, ...], ...]:
        pairs = list(zip(self.succ.tolist(), self.prob.tolist()))
        ep, p = self.edge_ptr.tolist(), self.ptr.tolist()
        dists = [tuple(pairs[lo:hi]) for lo, hi in zip(ep, ep[1:])]
        return tuple(tuple(dists[lo:hi]) for lo, hi in zip(p, p[1:]))

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


def edge_keys(fl: Flat, f: np.ndarray):
    """The (state, action, successor) reward key of each edge f, in turn."""
    src = fl.edge_src[f]
    return zip(src.tolist(), (fl.edge_choice[f] - fl.ptr[src]).tolist(), fl.succ[f].tolist())


def carry_rewards(base: MarkovAutomaton, d: MarkovAutomaton, state_from: np.ndarray,
                  edge_from: np.ndarray) -> dict[str, RewardAssignment]:
    """The rewards of base carried onto the model d derived from it: state i
    of d earns the state reward of base state state_from[i], edge f of d the
    transition reward of base edge edge_from[f] (nothing where -1).  Zero
    entries and entries on no edge are dropped; transition rewards keep the
    order of their base entries."""
    n, ne = base.n_states, len(flat(base).succ)
    out = {}
    for name, r in base.rewards.items():
        srew = np.zeros(n + 1)  # the extra last entry serves state_from -1
        for s, v in r.state_rewards.items():
            if 0 <= s < n:
                srew[s] = v
        i = np.flatnonzero(srew[state_from])
        e, v = reward_edges(base, r)
        entry = np.full(ne + 1, len(e))  # position in r's entries, len(e) for none
        entry[e] = np.arange(len(e))
        at = entry[edge_from]
        f = np.argsort(at, kind="stable")[:np.count_nonzero(at < len(e))]
        out[name] = RewardAssignment(name, dict(zip(i.tolist(), srew[state_from[i]].tolist())),
                                     dict(zip(edge_keys(flat(d), f), v[at[f]].tolist())))
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


def reward_edges(m: MarkovAutomaton, r: RewardAssignment) -> tuple[np.ndarray, np.ndarray]:
    """Edges of m carrying a nonzero transition reward of r, with the
    values, in r's entry order; entries on no edge of m are dropped."""
    fl = flat(m)
    tr = r.transition_rewards
    k = len(tr)
    s, a, t = np.fromiter((x for sat in tr for x in sat), np.int64, 3 * k).reshape(k, 3).T
    vals = np.fromiter(tr.values(), np.float64, k)
    e = fl.edge_of(fl.ptr[s] + a, t)
    keep = (vals != 0.0) & (e >= 0) & (a >= 0) & (a < fl.ptr[s + 1] - fl.ptr[s])
    return e[keep], vals[keep]


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
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def validate_model(m: MarkovAutomaton) -> ValidationReport:
    """Structural well-formedness: distributions, rates, deadlocks, reward keys."""
    rep = ValidationReport()
    for s in range(m.n_states):
        name = m.state_names[s]
        if m.is_markovian(s):
            if not m.rates[s] > 0.0:
                rep.add("WellFormed", name, f"Markovian state has non-positive rate {m.rates[s]}")
        elif len(m.choices[s]) == 0:
            rep.add("WellFormed", name, "probabilistic state enables no action (deadlock)")
        for a, dist in enumerate(m.choices[s]):
            if not dist:
                rep.add("WellFormed", name, f"choice {a} has an empty distribution")
                continue
            total = 0.0
            seen: set[int] = set()
            for t, p in dist:
                if t in seen:
                    rep.add("WellFormed", name, f"choice {a} lists successor {m.state_names[t]} twice")
                seen.add(t)
                if not 0.0 < p <= 1.0 + PROB_TOL:
                    rep.add("WellFormed", name, f"choice {a} carries probability {p} outside (0, 1]")
                total += p
            if abs(total - 1.0) > PROB_TOL:
                rep.add("WellFormed", name, f"choice {a} sums to {total!r}, not 1")
    # in a pure MDP (no Markovian states) every state earns per step, so state
    # rewards on probabilistic states only signal a mistake in a genuine MA
    is_mdp = not m.markovian_states()
    for rname, r in m.rewards.items():
        for s, v in r.state_rewards.items():
            if not 0 <= s < m.n_states:
                rep.add("WellFormed", rname, f"state reward on unknown state {s}")
            elif not is_mdp and not m.is_markovian(s) and v != 0.0:
                rep.add("WellFormed", rname,
                        f"state reward on probabilistic state {m.state_names[s]}")
        for (s, a, t), _ in r.transition_rewards.items():
            if not (0 <= s < m.n_states and 0 <= a < len(m.choices[s])):
                rep.add("WellFormed", rname, f"transition reward on unknown choice ({s}, {a})")
            elif all(u != t for u, _ in m.choices[s][a]):
                rep.add("WellFormed", rname,
                        f"transition reward on zero-probability edge "
                        f"({m.state_names[s]}, {a}, {t})")
    return rep


def check_non_zeno(m: MarkovAutomaton, zeno_ecs) -> ValidationReport:
    """Every end component must contain at least one Markovian state.

    `zeno_ecs` are the maximal end components of the model restricted to its
    probabilistic states; any such component is a witness that play can cycle
    without time progressing.  Checking maximal components of the full model
    is not enough: a probabilistic sub-cycle inside a mixed component is just
    as Zeno.
    """
    rep = ValidationReport()
    for c in zeno_ecs:
        states = ",".join(m.state_names[s] for s in sorted(c.states()))
        rep.add("NonZeno", "{" + states + "}",
                "end component without a Markovian state (time does not progress)")
    return rep


def _internal_reward_entries(m: MarkovAutomaton, r: RewardAssignment, c) -> Iterator[tuple[str, float]]:
    """Nonzero reward entries assigned inside component c (exact comparison)."""
    for s in sorted(c.markovian_states):
        v = r.state_reward(s)
        if v != 0.0:
            yield m.state_names[s], v
        for t, _ in m.choices[s][0]:
            v = r.transition_reward(s, 0, t)
            if v != 0.0:
                yield f"{m.state_names[s]}->{m.state_names[t]}", v
    for s, a in sorted(c.pairs):
        for t, _ in m.choices[s][a]:
            v = r.transition_reward(s, a, t)
            if v != 0.0:
                yield f"{m.state_names[s]}[{m.action_names[s][a]}]->{m.state_names[t]}", v


def check_sign_consistency(m: MarkovAutomaton, totals: Sequence[RewardAssignment],
                           mecs) -> tuple[ValidationReport, dict[str, int]]:
    """Per total assignment, all end-component internal rewards must share a sign.

    Returns the report plus the detected sign per assignment (+1, -1, or 0)
    for downstream finiteness checking.
    """
    rep = ValidationReport()
    signs: dict[str, int] = {}
    for r in totals:
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
        signs[r.name] = 1 if pos_at is not None else (-1 if neg_at is not None else 0)
    return rep, signs


def check_finiteness(m: MarkovAutomaton, objectives: Sequence[Objective],
                     mecs, signs: Mapping[str, int]) -> ValidationReport:
    """A maximizing total objective diverges iff a reachable end component
    carries a strictly positive internal reward."""
    rep = ValidationReport()
    reachable = set(m.reachable())
    for o in objectives:
        if o.kind != "total" or o.direction != "max":
            continue
        r = m.rewards[o.reward]
        if signs.get(r.name, 0) <= 0:
            continue
        for c in mecs:
            if not (c.states() & reachable):
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


def _chosen(m: MarkovAutomaton, sigma: MDStrategy) -> tuple[np.ndarray, np.ndarray]:
    """The flat choice sigma takes at every state (the only one at a
    Markovian state, action 0 at a probabilistic state sigma omits), and the
    mask of the states reachable under sigma.

    Errors if sigma picks an action a state does not have, or misses a
    reachable probabilistic state; entries for other states are ignored.
    """
    fl = flat(m)
    n = m.n_states
    s = np.fromiter(sigma.keys(), np.int64, len(sigma))
    a = np.fromiter(sigma.values(), np.int64, len(sigma))
    inside = (s >= 0) & (s < n)
    act = np.zeros(n, dtype=np.int64)
    act[s[inside]] = a[inside]
    given = fl.markovian.copy()
    given[s[inside]] = True
    act[fl.markovian] = 0
    bad = np.flatnonzero((act < 0) | (act >= np.diff(fl.ptr)))
    if len(bad):
        raise ModelError(f"strategy picks unavailable action {act[bad[0]]} "
                         f"at {m.state_names[bad[0]]}")
    chosen = fl.ptr[:-1] + act
    _, e = fl.edges(chosen)
    start = np.zeros(n, dtype=bool)
    start[m.initial] = True
    live = reach(fl.edge_src[e], fl.succ[e], start)
    missing = np.flatnonzero(live & ~given)
    if len(missing):
        raise ModelError(f"strategy misses reachable probabilistic state "
                         f"{m.state_names[missing[0]]}")
    return chosen, live


def induced_chain(m: MarkovAutomaton, sigma: MDStrategy) -> MarkovAutomaton:
    """Restrict every probabilistic state to the action chosen by sigma.

    Errors as `_chosen`; unreachable states sigma omits fall back to action
    0.  Transition reward keys are remapped to choice index 0.
    """
    chosen, _ = _chosen(m, sigma)
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
