"""Explicit-state Markov automata: model types, rewards, objectives, validation.

A Markov automaton mixes Markovian states (positive exit rate, exponential
sojourn, a single successor distribution) with probabilistic states
(instantaneous, one successor distribution per enabled action).  MDPs are the
special case without Markovian states and are analyzed through `embed_mdp`.
"""

from __future__ import annotations

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

    `rates[s]` is the exit rate of a Markovian state and None for a
    probabilistic state.  `choices[s]` lists the successor distributions of s:
    exactly one for a Markovian state, one per enabled action otherwise.  Each
    distribution is a tuple of (successor, probability) pairs.

    Models are treated as immutable after construction.  `origin`, when set,
    maps each state of a derived model (embedding, product, restriction) back
    to a state of the model it was derived from.
    """

    __slots__ = ("rates", "choices", "initial", "state_names", "action_names",
                 "rewards", "origin", "_flat")

    def __init__(self, rates, choices, initial, state_names=None,
                 action_names=None, rewards=None, origin=None):
        self.rates: tuple[float | None, ...] = tuple(
            None if r is None else float(r) for r in rates)
        self.choices: tuple[tuple[Dist, ...], ...] = tuple(
            tuple(tuple((int(t), float(p)) for t, p in dist) for dist in state_choices)
            for state_choices in choices)
        n = len(self.rates)
        if len(self.choices) != n:
            raise ModelError("rates and choices disagree on the number of states")
        if not 0 <= initial < n:
            raise ModelError(f"initial state {initial} out of range")
        self.initial = int(initial)
        for s in range(n):
            if self.rates[s] is not None and len(self.choices[s]) != 1:
                raise ModelError(f"Markovian state {s} must have exactly one distribution")
            for dist in self.choices[s]:
                for t, _ in dist:
                    if not 0 <= t < n:
                        raise ModelError(f"successor {t} of state {s} out of range")
        if state_names is None:
            state_names = tuple(f"s{i}" for i in range(n))
        self.state_names: tuple[str, ...] = tuple(state_names)
        if len(self.state_names) != n:
            raise ModelError("state_names length mismatch")
        if action_names is None:
            action_names = tuple(
                tuple(f"a{j}" for j in range(len(self.choices[s]))) if self.rates[s] is None else ("",)
                for s in range(n))
        self.action_names: tuple[tuple[str, ...], ...] = tuple(tuple(a) for a in action_names)
        self.rewards: dict[str, RewardAssignment] = dict(rewards or {})
        self.origin: tuple[int, ...] | None = None if origin is None else tuple(origin)
        self._flat = None

    @property
    def n_states(self) -> int:
        return len(self.rates)

    @property
    def n_choices(self) -> int:
        return sum(len(c) for c in self.choices)

    def is_markovian(self, s: int) -> bool:
        return self.rates[s] is not None

    def markovian_states(self) -> list[int]:
        return [s for s in range(self.n_states) if self.rates[s] is not None]

    def successors(self, s: int) -> list[int]:
        out = {t for dist in self.choices[s] for t, _ in dist}
        return sorted(out)

    def reachable(self, start: int | None = None) -> list[int]:
        """States reachable from start (default: initial) under any strategy."""
        fl = flat(self)
        sources = np.zeros(self.n_states, dtype=bool)
        sources[self.initial if start is None else start] = True
        return np.flatnonzero(reach(fl.edge_src, fl.succ, sources)).tolist()

    def with_rewards(self, rewards: Mapping[str, RewardAssignment]) -> "MarkovAutomaton":
        m = MarkovAutomaton.__new__(MarkovAutomaton)
        m.rates = self.rates
        m.choices = self.choices
        m.initial = self.initial
        m.state_names = self.state_names
        m.action_names = self.action_names
        m.rewards = dict(rewards)
        m.origin = self.origin
        m._flat = self._flat
        return m

    def __repr__(self):
        nm = len(self.markovian_states())
        return (f"MarkovAutomaton({self.n_states} states, {nm} Markovian, "
                f"{self.n_choices} choices)")


@dataclass
class Flat:
    """Whole-array view of a model, built once per model by `flat`.

    Choices are numbered state by state in action order: state s owns
    choices ptr[s] .. ptr[s+1]-1.  Edges are numbered choice by choice in
    distribution order: choice c owns edges edge_ptr[c] .. edge_ptr[c+1]-1,
    edge e leads from state edge_src[e] to succ[e] with probability prob[e].
    `rates` is 0 on probabilistic states.  `kernel`, the choice-by-state
    probability matrix, and `edge_index` are built on first use.
    """

    ptr: np.ndarray
    choice_state: np.ndarray
    edge_ptr: np.ndarray
    edge_choice: np.ndarray
    edge_src: np.ndarray
    succ: np.ndarray
    prob: np.ndarray
    markovian: np.ndarray
    rates: np.ndarray

    @cached_property
    def kernel(self) -> csr_matrix:
        """Choice-by-state probability matrix in canonical CSR form."""
        k = csr_matrix((self.prob.copy(), self.succ, self.edge_ptr),
                       shape=(len(self.choice_state), len(self.markovian)))
        k.sum_duplicates()  # rows sorted by successor, as when built from coordinates
        return k

    def edges(self, choices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The edges of the given choices, in order: for each edge, the
        position of its choice in `choices` and its edge index."""
        lo = self.edge_ptr[choices]
        lens = self.edge_ptr[choices + 1] - lo
        pos = np.repeat(np.arange(len(choices)), lens)
        return pos, lo[pos] + np.arange(len(pos)) - (np.cumsum(lens) - lens)[pos]

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
    """The model's whole-array view, built on first use and kept on m."""
    if m._flat is not None:
        return m._flat
    n = m.n_states
    n_choices = np.fromiter(map(len, m.choices), np.int64, n)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(n_choices, out=ptr[1:])
    nc = int(ptr[n])
    dists = [d for cs in m.choices for d in cs]
    n_edges = np.fromiter(map(len, dists), np.int64, nc)
    edge_ptr = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(n_edges, out=edge_ptr[1:])
    ne = int(edge_ptr[nc])
    choice_state = np.repeat(np.arange(n), n_choices)
    edge_choice = np.repeat(np.arange(nc), n_edges)
    succ = np.fromiter((t for d in dists for t, _ in d), np.int64, ne)
    prob = np.fromiter((p for d in dists for _, p in d), np.float64, ne)
    markov = np.fromiter((r is not None for r in m.rates), bool, n)
    rates = np.fromiter((0.0 if r is None else r for r in m.rates), np.float64, n)
    m._flat = Flat(ptr, choice_state, edge_ptr, edge_choice, choice_state[edge_choice],
                   succ, prob, markov, rates)
    return m._flat


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


def embed_mdp(m: MarkovAutomaton, flatten_single_action: bool = True) -> MarkovAutomaton:
    """Turn an MDP (all states probabilistic) into a Markov automaton whose
    time-based values coincide with the MDP's step-based values.

    Every action gets a rate-1 Markovian hop carrying its distribution, its
    transition rewards, and the state reward of its source, so one step costs
    one expected time unit.  States with a single action are flattened into
    the Markovian hop directly when `flatten_single_action` is set.
    """
    if any(m.rates[s] is not None for s in range(m.n_states)):
        raise ModelError("embed_mdp expects an MDP: no Markovian states")
    rates: list[float | None] = []
    choices: list[list[list[tuple[int, float]]]] = []
    names: list[str] = []
    action_names: list[tuple[str, ...]] = []
    origin: list[int] = []
    base_index: list[int] = []
    for s in range(m.n_states):
        base_index.append(len(rates))
        if flatten_single_action and len(m.choices[s]) == 1:
            rates.append(1.0)
            choices.append([[]])
            names.append(m.state_names[s])
            action_names.append(("",))
            origin.append(s)
        else:
            rates.append(None)
            choices.append([[] for _ in m.choices[s]])
            names.append(m.state_names[s])
            action_names.append(m.action_names[s])
            origin.append(s)
    hop_index: dict[tuple[int, int], int] = {}
    for s in range(m.n_states):
        if not (flatten_single_action and len(m.choices[s]) == 1):
            for a in range(len(m.choices[s])):
                hop_index[(s, a)] = len(rates)
                rates.append(1.0)
                choices.append([[]])
                names.append(f"{m.state_names[s]}.{m.action_names[s][a]}")
                action_names.append(("",))
                origin.append(s)
    for s in range(m.n_states):
        if flatten_single_action and len(m.choices[s]) == 1:
            choices[base_index[s]][0] = [(base_index[t], p) for t, p in m.choices[s][0]]
        else:
            for a in range(len(m.choices[s])):
                h = hop_index[(s, a)]
                choices[base_index[s]][a] = [(h, 1.0)]
                choices[h][0] = [(base_index[t], p) for t, p in m.choices[s][a]]
    rewards: dict[str, RewardAssignment] = {}
    for rname, r in m.rewards.items():
        state_r: dict[int, float] = {}
        trans_r: dict[tuple[int, int, int], float] = {}
        for s in range(m.n_states):
            rho = r.state_reward(s)
            if flatten_single_action and len(m.choices[s]) == 1:
                if rho != 0.0:
                    state_r[base_index[s]] = rho
                for t, _ in m.choices[s][0]:
                    v = r.transition_reward(s, 0, t)
                    if v != 0.0:
                        trans_r[(base_index[s], 0, base_index[t])] = v
            else:
                for a in range(len(m.choices[s])):
                    h = hop_index[(s, a)]
                    if rho != 0.0:
                        state_r[h] = rho
                    for t, _ in m.choices[s][a]:
                        v = r.transition_reward(s, a, t)
                        if v != 0.0:
                            trans_r[(h, 0, base_index[t])] = v
        rewards[rname] = RewardAssignment(rname, state_r, trans_r)
    return MarkovAutomaton(rates, choices, base_index[m.initial], names,
                           action_names, rewards, origin)


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
    act = (chosen - flat(m).ptr[:-1]).tolist()
    choices = [[m.choices[s][a]] for s, a in enumerate(act)]
    action_names = [("",) if m.rates[s] is not None else (m.action_names[s][a],)
                    for s, a in enumerate(act)]
    rewards = {rname: RewardAssignment(
        rname, dict(r.state_rewards),
        {(s, 0, t): v for (s, a, t), v in r.transition_rewards.items() if a == act[s]})
        for rname, r in m.rewards.items()}
    return MarkovAutomaton(m.rates, choices, m.initial, m.state_names, action_names,
                           rewards, origin=range(m.n_states))
