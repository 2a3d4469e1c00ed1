"""Random model generators and brute-force oracles shared by the tests.

Generated probabilities are dyadic (multiples of 1/8) so that distributions
sum to 1.0 exactly in floating point, unless a generator is given another
`dist` such as `near_one_dist`.  Oracles deliberately use the dumbest
correct algorithm available: exhaustive strategy enumeration, subset
enumeration for end components, and dense linear algebra for chains.
"""

from __future__ import annotations

import itertools
import math
import weakref

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import coo_matrix, csr_matrix
from scipy.sparse.csgraph import connected_components

from moma import (MarkovAutomaton, Objective, RewardAssignment, ValidationReport,
                  evaluate_strategy, normalize_query, parse_model, serialize_model,
                  validate_assumptions)
from moma.components import mec_decomposition
from moma.model import NEG_INF, PROB_TOL, flat

_CHOICES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def choices(m: MarkovAutomaton) -> tuple[tuple[tuple[tuple[int, float], ...], ...], ...]:
    """The structure of m as tuples, the form `MarkovAutomaton(...)` takes:
    per state its distributions, each a tuple of (successor, probability)
    pairs in edge order.  Built once per structure."""
    fl = flat(m)
    if fl not in _CHOICES:
        pairs = list(zip(fl.succ.tolist(), fl.prob.tolist()))
        ep, p = fl.edge_ptr.tolist(), fl.ptr.tolist()
        dists = [tuple(pairs[lo:hi]) for lo, hi in zip(ep, ep[1:])]
        _CHOICES[fl] = tuple(tuple(dists[lo:hi]) for lo, hi in zip(p, p[1:]))
    return _CHOICES[fl]


def kernel_matrix(fl) -> csr_matrix:
    """SciPy reference of a model's kernel: the choice-by-state probability
    matrix of its flat arrays, each row's entries in edge order and a
    repeated successor left repeated, as the solvers gather them.  The
    arrays are copied, so nothing scipy does to the matrix reaches fl."""
    return csr_matrix((fl.prob.copy(), fl.succ.copy(), fl.edge_ptr.copy()),
                      shape=(len(fl.choice_state), len(fl.markovian)))


def structure_matrix(st) -> csr_matrix:
    """SciPy reference of a total-reward structure's rows: the row-by-active
    state matrix of its entries, in stored order."""
    _, col, val = st.entries
    return csr_matrix((val.copy(), col.copy(), st.eptr.copy()),
                      shape=(len(st.rows), len(st.active)))


# ---------------------------------------------------------------------------
# generators


def dyadic_dist(rng, succs):
    """Distribution over the given successors with probabilities k/8."""
    k = len(succs)
    if k == 1:
        return ((int(succs[0]), 1.0),)
    cuts = sorted(rng.choice(np.arange(1, 8), size=k - 1, replace=False))
    weights = np.diff([0, *cuts, 8])
    return tuple((int(s), float(w) / 8.0) for s, w in zip(succs, weights))


def near_one_dist(rng, succs):
    """Distribution over the given successors in which all but one entry is
    10^-j, j uniform in 3..12, and the last is 1 minus their sum, the entries
    placed on the successors in the order of a random permutation: tiny
    probabilities next to ones that miss 1 by them."""
    k = len(succs)
    if k == 1:
        return ((int(succs[0]), 1.0),)
    small = [10.0 ** -int(rng.integers(3, 13)) for _ in range(k - 1)]
    probs = [*small, 1.0 - sum(small)]
    return tuple((int(succs[i]), p) for i, p in zip(rng.permutation(k), probs))


def _pick_succs(rng, n, k_max=3):
    k = int(rng.integers(1, min(k_max, n) + 1))
    return rng.choice(n, size=k, replace=False)


def random_ma(rng, max_states=8, max_actions=2, p_markov=0.6, dist=dyadic_dist):
    """Structurally valid MA (closed, deadlock-free); may be Zeno.  `dist`
    draws each distribution over its successors."""
    n = int(rng.integers(2, max_states + 1))
    rates: list[float | None] = []
    choices = []
    for _ in range(n):
        if rng.random() < p_markov:
            rates.append(float(rng.integers(1, 7)) / 2.0)
            choices.append([dist(rng, _pick_succs(rng, n))])
        else:
            rates.append(None)
            k = int(rng.integers(1, max_actions + 1))
            choices.append([dist(rng, _pick_succs(rng, n)) for _ in range(k)])
    return MarkovAutomaton(rates, choices, initial=0)


def random_mdp(rng, max_states=6, max_actions=2):
    """All-probabilistic model (an MDP); analysis embeds it."""
    n = int(rng.integers(2, max_states + 1))
    choices = []
    for _ in range(n):
        k = int(rng.integers(1, max_actions + 1))
        choices.append([dyadic_dist(rng, _pick_succs(rng, n)) for _ in range(k)])
    return MarkovAutomaton([None] * n, choices, initial=0)


def _half_int(rng, lo=-3.0, hi=3.0):
    return float(rng.integers(int(lo * 2), int(hi * 2) + 1)) / 2.0


def malformed_ma(rng, max_states=6):
    """A model breaking the well-formedness rules at random: non-positive,
    NaN or infinite rates, deadlocks, empty or duplicated distributions,
    probabilities outside (0, 1] or off a sum of 1, reward keys off the
    model (unknown states and choices, missing edges, state rewards on
    probabilistic states) and non-finite reward values, in random entry
    order.  All states are probabilistic in about a quarter of the draws."""
    n = int(rng.integers(1, max_states + 1))
    mdp = rng.random() < 0.25

    def dist():
        d = list(dyadic_dist(rng, _pick_succs(rng, n)))
        u = rng.random()
        if u < 0.08:
            return ()
        if u < 0.16:
            d.append(d[0])
        elif u < 0.24:
            d[0] = (d[0][0], float(rng.choice([0.0, -0.5, 1.5, math.nan, 1.0 + 1e-13])))
        elif u < 0.3:
            d[0] = (d[0][0], d[0][1] + 3e-12)
        return tuple(d)

    rates: list[float | None] = []
    choices = []
    for _ in range(n):
        if not mdp and rng.random() < 0.5:
            rates.append(float(rng.choice([0.0, -1.0, math.nan, math.inf]))
                         if rng.random() < 0.2 else 1.0)
            choices.append([dist()])
        else:
            rates.append(None)
            choices.append([dist() for _ in range(int(rng.integers(rng.random() < 0.85, 3)))])
    rewards = {}
    for name in ("a", "b"):
        srew = {int(s): _half_int(rng) for s in rng.integers(-1, n + 2, int(rng.integers(0, 5)))}
        trew = {(int(rng.integers(-1, n + 1)), int(rng.integers(-1, 3)), int(rng.integers(0, n))):
                _half_int(rng) for _ in range(int(rng.integers(0, 6)))}
        for entries in (srew, trew):
            for key in entries:
                if rng.random() < 0.15:
                    entries[key] = float(rng.choice([math.nan, math.inf, -math.inf]))
        rewards[name] = RewardAssignment(name, srew, trew)
    return MarkovAutomaton(rates, choices, initial=0, rewards=rewards)


def random_lra_reward(rng, m, name):
    # in an MDP every state earns per step, in an MA only Markovian states
    # earn per time unit
    earning = m.markovian_states() or range(m.n_states)
    srew = {s: _half_int(rng, 0 if rng.random() < 0.3 else -3, 3)
            for s in earning if rng.random() < 0.8}
    trew = {}
    for s in range(m.n_states):
        for a, dist in enumerate(choices(m)[s]):
            for t, _ in dist:
                if rng.random() < 0.15:
                    trew[(s, a, t)] = _half_int(rng)
    return RewardAssignment(name, srew, trew)


def random_total_reward(rng, m, mecs, name):
    """Transition/state rewards in [-3, 3] with EC-internal entries clamped
    to be nonpositive (zeroed half the time, to produce genuine 0-ECs)."""
    srew = {s: _half_int(rng) for s in m.markovian_states() if rng.random() < 0.3}
    trew = {}
    for s in range(m.n_states):
        for a, dist in enumerate(choices(m)[s]):
            for t, _ in dist:
                if rng.random() < 0.3:
                    trew[(s, a, t)] = _half_int(rng)
    for c in mecs:
        inside = set(c.members.tolist())
        for s in c.markovian_states:
            if s in srew:
                srew[s] = 0.0 if rng.random() < 0.5 else -abs(srew[s])
            for t, _ in choices(m)[s][0]:
                if (s, 0, t) in trew:
                    trew[(s, 0, t)] = 0.0 if rng.random() < 0.5 else -abs(trew[(s, 0, t)])
        for (s, a) in c.pairs:
            for t, _ in choices(m)[s][a]:
                if t in inside and (s, a, t) in trew:
                    trew[(s, a, t)] = 0.0 if rng.random() < 0.5 else -abs(trew[(s, a, t)])
    srew = {s: v for s, v in srew.items() if v != 0.0}
    trew = {k: v for k, v in trew.items() if v != 0.0}
    return RewardAssignment(name, srew, trew)


def random_ssp(rng, max_states=6, max_actions=3):
    """(model, bottom): a random MA plus an absorbing Markovian bottom state
    (the last one), which about half of the choices may lead to, and one
    total reward "r" drawn as in random_total_reward, so nonpositive inside
    end components and zero at the bottom.  The initial state need not reach
    the bottom almost surely."""
    m = random_ma(rng, max_states, max_actions)
    n = m.n_states
    structure = [[dyadic_dist(rng, _pick_succs(rng, n + 1)) if rng.random() < 0.5 else d
                  for d in ds] for ds in choices(m)] + [[((n, 1.0),)]]
    m = MarkovAutomaton(list(m.rates) + [1.0], structure, initial=0)
    r = random_total_reward(rng, m, mec_decomposition(m), "r")
    r = RewardAssignment("r", {s: v for s, v in r.state_rewards.items() if s != n},
                         {k: v for k, v in r.transition_rewards.items() if k[0] != n})
    return m.with_rewards({"r": r}), n


def scc_chain(rng, blocks=60, max_block=5):
    """(model, bottom): a deep chain of small strongly connected blocks, the
    first holding the initial state, draining into an absorbing Markovian
    bottom state (the last one).  Each block is a cycle of 2..max_block
    states.  A Markovian state steps around its cycle with probability 7/8
    and otherwise drops to a state of the next three blocks (or the
    bottom); a probabilistic state either steps around its cycle surely or
    drops like that with probability 1.  Moving around a cycle costs (a
    negative reward on the edge, and a nonpositive rate reward at Markovian
    states), dropping pays up to 3, so every cycle drains reward, no
    end component is reward-free and the optimal total over the strategies
    reaching the bottom is the unique Bellman fixed point.  Total reward "r"."""
    sizes = rng.integers(2, max_block + 1, size=blocks)
    starts = np.concatenate([[0], np.cumsum(sizes)])
    n = int(starts[-1])

    def drop(b):
        lo, hi = starts[min(b + 1, blocks)], starts[min(b + 4, blocks)]
        return int(rng.integers(lo, hi)) if hi > lo else n

    rates: list[float | None] = []
    choices = []
    srew: dict[int, float] = {}
    trew: dict[tuple[int, int, int], float] = {}
    for b in range(blocks):
        for s in range(int(starts[b]), int(starts[b + 1])):
            nxt = s + 1 if s + 1 < starts[b + 1] else int(starts[b])
            down = drop(b)
            if rng.random() < 0.5:
                rates.append(float(rng.integers(1, 7)) / 2.0)
                choices.append([((nxt, 0.875), (down, 0.125))])
                srew[s] = -float(rng.integers(0, 3)) / 2.0
            else:
                rates.append(None)
                choices.append([((nxt, 1.0),), ((down, 1.0),)])
                trew[(s, 1, down)] = float(rng.integers(-4, 7)) / 2.0
            trew[(s, 0, nxt)] = -float(rng.integers(1, 5)) / 4.0
    rates.append(1.0)
    choices.append([((n, 1.0),)])
    srew = {s: v for s, v in srew.items() if v != 0.0}
    trew = {k: v for k, v in trew.items() if v != 0.0}
    return MarkovAutomaton(rates, choices, initial=0,
                           rewards={"r": RewardAssignment("r", srew, trew)}), n


def total_value_lp(m: MarkovAutomaton, r: RewardAssignment, bottom: int) -> float:
    """Optimal total reward at the initial state, as a linear program over
    one value variable per state: minimize the sum of values subject to
    v(s) >= c(s, a) + sum_t P(s, a, t) v(t) for every choice, with v = 0 at
    `bottom`, where c is the expected reward of one visit (the rate reward
    over the rate at a Markovian state, plus the expected transition
    reward).  Exact when every cycle avoiding the bottom drains reward."""
    rows, cols, vals, c = [], [], [], []
    for s in range(m.n_states):
        if s == bottom:
            continue
        for a, dist in enumerate(choices(m)[s]):
            i = len(c)
            c.append(r.state_rewards.get(s, 0.0) / m.rates[s] if m.is_markovian(s) else 0.0)
            rows.append(i)
            cols.append(s)
            vals.append(-1.0)
            for t, p in dist:
                c[i] += p * r.transition_rewards.get((s, a, t), 0.0)
                if t != bottom:
                    rows.append(i)
                    cols.append(t)
                    vals.append(p)
    A_ub = coo_matrix((vals, (rows, cols)), shape=(len(c), m.n_states)).tocsr()
    bounds = [(0.0, 0.0) if s == bottom else (None, None) for s in range(m.n_states)]
    res = linprog(np.ones(m.n_states), A_ub=A_ub, b_ub=-np.asarray(c), bounds=bounds,
                  method="highs")
    assert res.status == 0, res.message
    return float(res.x[m.initial])


def random_valid_instance(rng, n_lra=1, n_total=1, max_states=8, max_actions=2,
                          directions=False, dist=dyadic_dist):
    """(model, objectives) passing every assumption check."""
    while True:
        m = random_ma(rng, max_states, max_actions, dist=dist)
        fl = flat(m)
        if mec_decomposition(m, choice_ok=~fl.markovian[fl.choice_state]):
            continue  # a probabilistic-only end component is Zeno
        mecs = mec_decomposition(m)
        rewards = {}
        objectives = []
        for i in range(n_lra):
            rewards[f"L{i}"] = random_lra_reward(rng, m, f"L{i}")
            d = "min" if directions and rng.random() < 0.3 else "max"
            objectives.append(Objective("lra", d, reward=f"L{i}"))
        for i in range(n_total):
            rewards[f"T{i}"] = random_total_reward(rng, m, mecs, f"T{i}")
            d = "min" if directions and rng.random() < 0.3 else "max"
            objectives.append(Objective("total", d, reward=f"T{i}"))
        m = m.with_rewards(rewards)
        p = normalize_query(m, objectives)
        if validate_assumptions(p).ok:
            return m, objectives


def layered_ma(rng, n=10_000):
    """Large mostly-forward model for the scale smoke test.

    Every transient state steps toward the terminal block with high
    probability; back edges only start at Markovian states (so every cycle is
    non-Zeno) and carry at most 1/8 mass, keeping expected absorption linear
    in n.  The chain drains into a free recurrent loop, and probabilistic
    states may instead pay a one-off entry cost for a loop with higher
    long-run gain, so the front is not a single point.  The one total
    assignment is a cost (nonpositive), which keeps finiteness and
    sign-consistency immediate.
    """
    loops = [(1.0, 0.0), (2.0, -4.0), (3.0, -9.0)]
    base = n - 2 * len(loops)
    rates: list[float | None] = []
    choices = []
    lra_s: dict[int, float] = {}
    tot_t: dict[tuple[int, int, int], float] = {}

    def forward_dist(s, spread):
        a = min(s + 1, base)
        b = min(s + 1 + int(rng.integers(1, spread)), base)
        if a == b:
            return ((a, 1.0),)
        return ((a, 0.75), (b, 0.25))

    for s in range(base):
        if rng.random() < 0.3 and s > 0:
            # probabilistic fork: keep draining, or pay to enter a loop
            rates.append(None)
            first = forward_dist(s, 16)
            j = int(rng.integers(1, len(loops)))
            choices.append([first, ((base + 2 * j, 1.0),)])
            tot_t[(s, 1, base + 2 * j)] = loops[j][1]
            for t, _ in first:
                if rng.random() < 0.3:
                    tot_t[(s, 0, t)] = -_half_int(rng, 0, 3)
        else:
            rates.append(float(rng.integers(1, 5)))
            dist = forward_dist(s, 4)
            if rng.random() < 0.4 and s > 0:
                back = int(rng.integers(max(0, s - 20), s))
                dist = tuple((t, p * 0.875) for t, p in dist) + ((back, 0.125),)
            choices.append([dist])
            if rng.random() < 0.5:
                lra_s[s] = _half_int(rng, 0, 3)
    for j, (gain, _) in enumerate(loops):
        a = base + 2 * j
        rates.extend([2.0, 2.0])
        choices.append([((a + 1, 1.0),)])
        choices.append([((a, 1.0),)])
        lra_s[a] = 2.0 * gain
    rewards = {"L0": RewardAssignment("L0", lra_s, {}),
               "T0": RewardAssignment("T0", {}, {k: v for k, v in tot_t.items() if v != 0.0})}
    m = MarkovAutomaton(rates, choices, initial=0, rewards=rewards)
    objectives = [Objective("lra", "max", reward="L0"),
                  Objective("total", "max", reward="T0")]
    return m, objectives


def permuted_states(rng, m: MarkovAutomaton) -> MarkovAutomaton:
    """m with its states renumbered: the states list of its moma-model
    document shuffled and parsed back.  Names, the initial state and the
    rewards travel by state name, so both models answer the same queries."""
    doc = serialize_model(m)
    doc["states"] = [doc["states"][i] for i in rng.permutation(len(doc["states"])).tolist()]
    return parse_model(doc)


def cycle_with_tail(n_tail=600, n_cycle=600):
    """A transient tail of n_tail states feeding one recurrent cycle of
    n_cycle Markovian states, with a fixed strategy; at the default sizes
    both parts exceed the solvers' dense limit.

    The tail walks state by state; every tenth tail state is probabilistic
    with two actions to the same successor that pay different rewards, and
    the last one spreads over the first ten cycle states with probability
    0.1 each.  "L" pays state rewards on the cycle only, "T" transition
    rewards on the tail only.  Closed forms under the returned strategy: the
    long-run average is sum(rho/lam) / sum(1/lam) over the cycle, the total
    is the sum of the rewards on the tail edges taken.
    """
    rates: list[float | None] = []
    choices = []
    trans: dict[tuple[int, int, int], float] = {}
    sigma: dict[int, int] = {}
    for s in range(n_tail - 1):
        if s % 10 == 5:
            rates.append(None)
            choices.append([((s + 1, 1.0),), ((s + 1, 1.0),)])
            trans[(s, 0, s + 1)] = 0.3 + 0.1 * (s % 7)
            trans[(s, 1, s + 1)] = -0.7 + 0.1 * (s % 3)
            sigma[s] = (s // 10) % 2
        else:
            rates.append(1.0 + (s % 7) / 3.0)
            choices.append([((s + 1, 1.0),)])
            trans[(s, 0, s + 1)] = 0.1 * (s % 9) - 0.35
    rates.append(1.5)
    choices.append([tuple((n_tail + k, 0.1) for k in range(10))])
    lra: dict[int, float] = {}
    for k in range(n_cycle):
        s = n_tail + k
        rates.append(0.5 + (k % 5) / 3.0)
        choices.append([((n_tail + (k + 1) % n_cycle, 1.0),)])
        lra[s] = (k % 11) / 3.0
    rewards = {"L": RewardAssignment("L", lra, {}), "T": RewardAssignment("T", {}, trans)}
    m = MarkovAutomaton(rates, choices, initial=0, rewards=rewards)
    return m, [Objective("lra", "max", reward="L"), Objective("total", "max", reward="T")], sigma


def menu_doc(rng, stages, actions, directions):
    """An MDP whose Pareto front is a Minkowski sum of per-stage menus, as a
    moma-model document with its objective list (one total objective per
    entry of `directions`, "max" or "min").

    `stages` probabilistic stages of `actions` actions each lead to an
    absorbing state.  Every action moves to the next stage and pays a reward
    vector whose entries split a random total (a Dirichlet draw), one
    transition reward per objective.  The same draw as the benchmark's menu
    generator, so a seed names the same instance in both.
    """
    total = rng.integers(2, 9, size=(stages, actions, 1)) / 2.0
    split = rng.dirichlet(np.ones(len(directions)), size=(stages, actions))
    rewards = np.round(total * split, 6)
    name = [f"stage{i}" for i in range(stages)] + ["done"]
    states = [{"name": name[i], "actions": [
        {"name": f"m{k}", "transitions": {name[i + 1]: 1.0}} for k in range(actions)]}
        for i in range(stages)]
    states.append({"name": "done", "actions": [{"name": "idle", "transitions": {"done": 1.0}}]})
    blocks = [{"name": f"R{j}", "transitions": [
        {"from": name[i], "action": f"m{k}", "to": name[i + 1],
         "value": float(rewards[i, k, j])}
        for i in range(stages) for k in range(actions)]} for j in range(len(directions))]
    doc = {"format": "moma-model", "version": 1, "kind": "mdp",
           "initial": name[0], "states": states, "rewards": blocks}
    objectives = [{"kind": "total", "direction": d, "reward": f"R{j}"}
                  for j, d in enumerate(directions)]
    return doc, objectives


def ring_ma(rng, n):
    """One large, nearly periodic end component: n states on a cycle.

    A Markovian state s (rate 1 to 4) steps to s+1 with probability 7/8 and
    back to s-1 with probability 1/8; every fifth state is probabilistic and
    chooses between "step" to s+1 and "skip" forward by 2 to 5.  The one
    assignment "gain" pays per time unit on Markovian states and a lump sum
    (possibly negative) on each skip.
    """
    rates: list[float | None] = []
    choices = []
    action_names = []
    srew: dict[int, float] = {}
    trew: dict[tuple[int, int, int], float] = {}
    for s in range(n):
        if s % 5 == 4:
            skip = (s + int(rng.integers(2, 6))) % n
            rates.append(None)
            choices.append([(((s + 1) % n, 1.0),), ((skip, 1.0),)])
            action_names.append(("step", "skip"))
            v = float(rng.integers(-2, 3)) / 2.0
            if v != 0.0:
                trew[(s, 1, skip)] = v
        else:
            rates.append(float(rng.integers(1, 5)))
            choices.append([(((s + 1) % n, 0.875), ((s - 1) % n, 0.125))])
            action_names.append(("",))
            v = float(rng.integers(0, 7)) / 2.0
            if v != 0.0:
                srew[s] = v
    return MarkovAutomaton(rates, choices, initial=0, action_names=action_names,
                           rewards={"gain": RewardAssignment("gain", srew, trew)})


def near_zeno_ma(p):
    """Three states whose best choice almost never lets time pass.

    s0 is Markovian (rate 1, reward "r" 1 per time unit) and moves to s1.
    s1 is probabilistic: action "a" stays at s1 with probability 1 - p and
    returns to s0 with p; action "b" moves to s2.  s2 is Markovian (rate 5,
    reward "z" 1 per time unit) and moves back to s1.  Action "a" earns the
    optimal gain 1 of "r" and "b" the gain 1 of "z", for every p in (0, 1).
    """
    return MarkovAutomaton(
        [1.0, None, 5.0], [[((1, 1.0),)], [((1, 1.0 - p), (0, p)), ((2, 1.0),)], [((1, 1.0),)]],
        initial=0, action_names=[("",), ("a", "b"), ("",)],
        rewards={"r": RewardAssignment("r", {0: 1.0}, {}),
                 "z": RewardAssignment("z", {2: 1.0}, {})})


# ---------------------------------------------------------------------------
# strategy enumeration oracles


def all_strategies(m: MarkovAutomaton):
    ps = [s for s in range(m.n_states) if not m.is_markovian(s)]
    if not ps:
        yield {}
        return
    for combo in itertools.product(*(range(len(choices(m)[s])) for s in ps)):
        yield dict(zip(ps, combo))


def oracle_points(m: MarkovAutomaton, objectives):
    """Exact value vector of every MD strategy (normalized orientation)."""
    p = normalize_query(m, objectives)
    out = []
    for sigma in all_strategies(p.model):
        vals = np.array(evaluate_strategy(p.model, sigma, p.objectives).values)
        out.append((sigma, vals))
    return p, out


def dot_ninf(w, point) -> float:
    """w . point with the convention 0 * (-inf) = 0."""
    total = 0.0
    for wi, xi in zip(w, point):
        if wi != 0.0:
            total += wi * xi
    return total


def weighted_oracle(points, w) -> float:
    """Best weighted value over strategies whose every coordinate is finite
    (strategies inducing -inf are outside the weighted optimization's range)."""
    return max(dot_ninf(w, pt) for _, pt in points if np.all(np.isfinite(pt)))


# ---------------------------------------------------------------------------
# reference validation


def ref_validate_model(m: MarkovAutomaton) -> ValidationReport:
    """Scan reference for `model.validate_model`: state by state, choice by
    choice, edge by edge over the tuple views, then per reward its entries
    off the model and its non-finite entries on states and edges."""
    rep = ValidationReport()
    for s in range(m.n_states):
        name = m.state_names[s]
        if m.is_markovian(s):
            if not m.rates[s] > 0.0:
                rep.add("WellFormed", name, f"Markovian state has non-positive rate {m.rates[s]}")
            elif m.rates[s] == math.inf:
                rep.add("WellFormed", name, f"Markovian state has infinite rate {m.rates[s]}")
        elif len(choices(m)[s]) == 0:
            rep.add("WellFormed", name, "probabilistic state enables no action (deadlock)")
        for a, dist in enumerate(choices(m)[s]):
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
    is_mdp = not m.markovian_states()
    for rname, r in m.rewards.items():
        for s, v in r.state_rewards.items():
            if not 0 <= s < m.n_states:
                rep.add("WellFormed", rname, f"state reward on unknown state {s}")
            elif not is_mdp and not m.is_markovian(s) and v != 0.0:
                rep.add("WellFormed", rname,
                        f"state reward on probabilistic state {m.state_names[s]}")
        for (s, a, t), _ in r.transition_rewards.items():
            if not (0 <= s < m.n_states and 0 <= a < len(choices(m)[s])):
                rep.add("WellFormed", rname, f"transition reward on unknown choice ({s}, {a})")
            elif all(u != t for u, _ in choices(m)[s][a]):
                rep.add("WellFormed", rname,
                        f"transition reward on zero-probability edge "
                        f"({m.state_names[s]}, {a}, {t})")
        for s, v in sorted(r.state_rewards.items()):
            if 0 <= s < m.n_states and not math.isfinite(v):
                rep.add("WellFormed", rname, f"non-finite state reward {v} at {m.state_names[s]}")
        for s in range(m.n_states):
            for a, dist in enumerate(choices(m)[s]):
                for k, (t, _) in enumerate(dist):
                    v = r.transition_rewards.get((s, a, t), 0.0)
                    # an entry sits on the first edge to its successor
                    if not math.isfinite(v) and all(u != t for u, _ in dist[:k]):
                        rep.add("WellFormed", rname, f"non-finite transition reward {v} on edge "
                                                      f"({m.state_names[s]}, {a}, {t})")
    return rep


def _ref_internal_reward_entries(m: MarkovAutomaton, r: RewardAssignment, c):
    """Nonzero reward entries assigned inside component c (exact comparison)."""
    for s in sorted(c.markovian_states):
        v = r.state_rewards.get(s, 0.0)
        if v != 0.0:
            yield m.state_names[s], v
        for t, _ in choices(m)[s][0]:
            v = r.transition_rewards.get((s, 0, t), 0.0)
            if v != 0.0:
                yield f"{m.state_names[s]}->{m.state_names[t]}", v
    for s, a in sorted(c.pairs):
        for t, _ in choices(m)[s][a]:
            v = r.transition_rewards.get((s, a, t), 0.0)
            if v != 0.0:
                yield f"{m.state_names[s]}[{m.action_names[s][a]}]->{m.state_names[t]}", v


def _ref_check_sign_consistency(m: MarkovAutomaton, totals, mecs):
    """Per total assignment, all end-component internal rewards must share a sign.

    Returns the report plus the detected sign per assignment (+1, -1, or 0)
    for downstream finiteness checking.
    """
    rep = ValidationReport()
    signs: dict[str, int] = {}
    for r in totals:
        pos_at = neg_at = None
        for c in mecs:
            for loc, v in _ref_internal_reward_entries(m, r, c):
                if v > 0.0 and pos_at is None:
                    pos_at = loc
                elif v < 0.0 and neg_at is None:
                    neg_at = loc
        if pos_at is not None and neg_at is not None:
            rep.add("SignConsistency", r.name,
                    f"end components mix positive ({pos_at}) and negative ({neg_at}) rewards")
        signs[r.name] = 1 if pos_at is not None else (-1 if neg_at is not None else 0)
    return rep, signs


def _ref_check_finiteness(m: MarkovAutomaton, objectives, mecs, signs):
    """A maximized total reward diverges iff a reachable end component
    carries a strictly positive internal reward; one report per reward."""
    rep = ValidationReport()
    reachable = set(m.reachable())
    for r in {o.reward: m.rewards[o.reward] for o in objectives
              if o.kind == "total" and o.direction == "max"}.values():
        if signs.get(r.name, 0) <= 0:
            continue
        for c in mecs:
            if reachable.isdisjoint(c.members.tolist()):
                continue
            for loc, v in _ref_internal_reward_entries(m, r, c):
                if v > 0.0:
                    rep.add("Finiteness", r.name,
                            f"positive reward {v} at {loc} inside a reachable end component")
                    break
    return rep


def ref_check_total_rewards(m: MarkovAutomaton, objectives, mecs) -> ValidationReport:
    """Scan reference for `model.check_total_rewards`: sign consistency of
    the distinct total rewards, then finiteness of the maximized ones, each
    walking the tuple views component by component."""
    totals = list({o.reward: m.rewards[o.reward] for o in objectives if o.kind == "total"}.values())
    rep, signs = _ref_check_sign_consistency(m, totals, mecs)
    return rep.extend(_ref_check_finiteness(m, objectives, mecs, signs))


# ---------------------------------------------------------------------------
# reference quotient


def ref_quotient(m: MarkovAutomaton, ecs):
    """Dict-based reference for `components.quotient`.

    Kept states in order, then one state per component, then bottom.  A
    component's actions are its exits in (state, action) order, then bottom.
    Every distribution is redirected onto quotient states: probabilities
    into one quotient state add up in distribution order, successors are
    sorted.  Returns (choices, action_decoding, state_map, ec_states,
    bottom_state, lift) where lift(r, bottom_values) gives the lifted
    (state rewards, transition rewards) with transition entries in quotient
    edge order: by choice, then by successor.
    """
    collapsed = {s: i for i, c in enumerate(ecs) for s in c.members.tolist()}
    kept = [s for s in range(m.n_states) if s not in collapsed]
    k = len(kept)
    state_map = [k + collapsed[s] if s in collapsed else kept.index(s) for s in range(m.n_states)]
    bottom = k + len(ecs)

    def redirect(dist):
        acc: dict[int, float] = {}
        for t, p in dist:
            acc[state_map[t]] = acc.get(state_map[t], 0.0) + p
        return tuple(sorted(acc.items()))

    qchoices = [tuple(redirect(d) for d in choices(m)[s]) for s in kept]
    behind = [[(s, a) for a in range(len(choices(m)[s]))] for s in kept]  # None: bottom
    decoding = {}
    for i, c in enumerate(ecs):
        outs = [(s, a) for s in c.members.tolist() if not m.is_markovian(s)
                for a in range(len(choices(m)[s])) if (s, a) not in c.pairs]
        decoding.update({(k + i, j): ("exit", s, a) for j, (s, a) in enumerate(outs)})
        decoding[(k + i, len(outs))] = ("bottom",)
        qchoices.append(tuple(redirect(choices(m)[s][a]) for s, a in outs) + (((bottom, 1.0),),))
        behind.append(outs)
    qchoices.append((((bottom, 1.0),),))
    behind.append([])

    def lift(r: RewardAssignment, bottom_values=None):
        state_r = {state_map[s]: v for s, v in r.state_rewards.items()
                   if v != 0.0 and m.is_markovian(s) and s not in collapsed}
        trans_r = {}
        for qs, pairs in enumerate(behind):
            for qa, (s, a) in enumerate(pairs):
                num: dict[int, float] = {}
                mass: dict[int, float] = {}
                for t, p in choices(m)[s][a]:
                    qt = state_map[t]
                    num[qt] = num.get(qt, 0.0) + p * r.transition_rewards.get((s, a, t), 0.0)
                    mass[qt] = mass.get(qt, 0.0) + p
                trans_r.update({(qs, qa, qt): v / mass[qt] for qt, v in num.items() if v != 0.0})
        for i, v in enumerate(bottom_values or []):
            if v != 0.0:
                trans_r[(k + i, len(qchoices[k + i]) - 1, bottom)] = v
        return state_r, dict(sorted(trans_r.items()))

    return tuple(qchoices), decoding, state_map, list(range(k, bottom)), bottom, lift


# ---------------------------------------------------------------------------
# reference Pareto geometry


def facet_tuples(h) -> list[tuple[list[float], float, tuple[int, ...], bool]]:
    """The facets of a `pareto.Hull` as (normal, offset, vertex ids,
    degenerate) tuples, one per facet."""
    return [(h.normals[i].tolist(), float(h.offsets[i]),
             tuple(h.ids[h.ptr[i]:h.ptr[i + 1]].tolist()), bool(h.degenerate[i]))
            for i in range(len(h.offsets))]


def padded_downward_hull(points, dim: int) -> list[tuple[list[float], float, tuple[int, ...], bool]]:
    """An independent construction of the facets `pareto.downward_hull`
    returns in 2 to 4 dimensions, as the facet tuples of `facet_tuples`.

    Duplicates collapse to their first index; the distinct points, sorted,
    are padded with every projection onto the box corner below them and
    handed to Qhull.  Simplices are grouped by their equation rounded to 9
    digits, groups are visited in sorted key order, and each keeps the
    equation of its first simplex as representative.
    """
    from scipy.spatial import ConvexHull

    first_at: dict[tuple[float, ...], int] = {}
    for i, p in enumerate(points):
        first_at.setdefault(tuple(float(x) for x in p), i)
    uniq = sorted(first_at)
    arr = np.array(uniq, dtype=float)
    k = len(uniq)
    spread = float(np.max(arr.max(axis=0) - arr.min(axis=0))) if k > 1 else 0.0
    mins = arr.min(axis=0) - (1.0 + spread)
    pads = []
    for p in arr:
        for mask in range(1, 1 << dim):
            q = p.copy()
            for j in range(dim):
                if mask >> j & 1:
                    q[j] = mins[j]
            pads.append(q)
    pads = np.unique(np.array(pads), axis=0)
    hull = ConvexHull(np.vstack([arr, pads]))

    groups: dict[tuple, dict] = {}
    for si, simplex in enumerate(hull.simplices):
        eq = hull.equations[si]
        key = tuple(np.round(eq, 9))
        g = groups.setdefault(key, {"eq": eq, "verts": set()})
        g["verts"].update(int(v) for v in simplex)
    facets = []
    for key in sorted(groups):
        n = groups[key]["eq"][:dim]
        if (n < -1e-9).any():
            continue
        orig = sorted(v for v in groups[key]["verts"] if v < k)
        if not orig:
            continue
        n2 = np.clip(n, 0.0, None)
        s = float(n2.sum())
        if s <= 0.0:
            continue
        n2 = n2 / s
        off = float(np.max(arr @ n2))
        verts = tuple(first_at[uniq[v]] for v in orig)
        facets.append((n2.tolist(), off, verts, len(orig) < dim))
    return facets


def ref_facet_gaps(points, facets, halfspaces) -> list[tuple[float, float, int]]:
    """Loop reference for `ApproximationState.facet_gaps`: per facet tuple
    (see `facet_tuples`), the least slack of any halfspace (normal, offset)
    at the mean of the facet's points, the scale max(1, |offset|) of that
    halfspace, and its index."""
    out = []
    for _, _, vertices, _ in facets:
        x = np.mean([points[i] for i in vertices], axis=0)
        gaps = np.array([off - float(np.dot(normal, x)) for normal, off in halfspaces])
        gi = int(np.argmin(gaps))
        out.append((float(gaps[gi]), max(1.0, abs(halfspaces[gi][1])), gi))
    return out


def ref_select_normal(points, facets, halfspaces, eta, guidance=None):
    """Loop reference for `select_weight` after the unit vectors: the normal
    of the open facet with the largest (guided) gap, ties to the smallest
    rounded normal, then the first; None when every facet is closed."""
    best_key = best = None
    for (normal, _, vertices, _), (gap, scale, _) in zip(
            facets, ref_facet_gaps(points, facets, halfspaces)):
        if gap <= max(eta * scale, 1e-15):
            continue
        normal, score = np.array(normal), gap
        if guidance is not None:
            d = guidance - np.mean([points[i] for i in vertices], axis=0)
            nd = float(np.linalg.norm(d))
            cos = float(np.dot(normal, d)) / (nd * float(np.linalg.norm(normal))) if nd > 0 else 1.0
            score = gap * (0.1 + max(0.0, cos))
        key = (-score, tuple(np.round(normal, 12)))
        if best_key is None or key < best_key:
            best_key, best = key, normal
    return best


# ---------------------------------------------------------------------------
# brute-force end components


def _closure(m: MarkovAutomaton, S: frozenset[int], totals):
    """The EC on exactly the states S (all staying choices), or None."""
    kept: dict[int, list[int]] = {}
    for s in S:
        if m.is_markovian(s):
            if any(t not in S for t, _ in choices(m)[s][0]):
                return None
            if totals is not None:
                if any(r.state_rewards.get(s, 0.0) != 0.0 for r in totals):
                    return None
                if any(r.transition_rewards.get((s, 0, t), 0.0) != 0.0
                       for t, _ in choices(m)[s][0] for r in totals):
                    return None
            kept[s] = [0]
        else:
            acts = []
            for a, dist in enumerate(choices(m)[s]):
                if any(t not in S for t, _ in dist):
                    continue
                if totals is not None and any(
                        r.transition_rewards.get((s, a, t), 0.0) != 0.0
                        for t, _ in dist for r in totals):
                    continue
                acts.append(a)
            if not acts:
                return None
            kept[s] = acts
    # strong connectivity over the kept edges
    order = sorted(S)
    pos = {s: i for i, s in enumerate(order)}
    adj = np.zeros((len(order), len(order)), dtype=bool)
    for s, acts in kept.items():
        for a in acts:
            for t, _ in choices(m)[s][a]:
                adj[pos[s], pos[t]] = True
    ncomp, _ = connected_components(adj, directed=True, connection="strong")
    if ncomp != 1:
        return None
    markov = frozenset(s for s in S if m.is_markovian(s))
    pairs = frozenset((s, a) for s, acts in kept.items()
                      if not m.is_markovian(s) for a in acts)
    return (markov, pairs)


def brute_mecs(m: MarkovAutomaton, totals=None):
    """All maximal end components by subset enumeration (n <= ~12)."""
    n = m.n_states
    cands: dict[frozenset[int], tuple] = {}
    for bits in range(1, 1 << n):
        S = frozenset(s for s in range(n) if bits >> s & 1)
        ec = _closure(m, S, totals)
        if ec is not None:
            cands[S] = ec
    maximal = []
    for S, ec in cands.items():
        if not any(S < T for T in cands):
            maximal.append(ec)
    return set(maximal)


def chain_reach_sure(m: MarkovAutomaton, sigma, targets) -> set[int]:
    """States reaching `targets` with probability 1 under sigma (graph-exact).

    With targets made absorbing, a state reaches them almost surely iff no
    target-free bottom SCC of the chain is reachable from it.
    """
    n = m.n_states
    targets = set(targets)
    adj = np.zeros((n, n), dtype=bool)
    for s in range(n):
        if s in targets:
            adj[s, s] = True
            continue
        a = 0 if m.is_markovian(s) else sigma.get(s, 0)
        for t, _ in choices(m)[s][a]:
            adj[s, t] = True
    ncomp, labels = connected_components(adj, directed=True, connection="strong")
    leaves = np.zeros(ncomp, dtype=bool)
    for s in range(n):
        for t in np.nonzero(adj[s])[0]:
            if labels[t] != labels[s]:
                leaves[labels[s]] = True
    bad = {s for s in range(n)
           if not leaves[labels[s]] and s not in targets}
    # backward closure of the bad sink states
    while True:
        grew = False
        for s in range(n):
            if s in bad:
                continue
            if any(t in bad for t in np.nonzero(adj[s])[0]):
                bad.add(s)
                grew = True
        if not grew:
            break
    return set(range(n)) - bad


def brute_as_reach(m: MarkovAutomaton, targets) -> set[int]:
    """Union over all MD strategies of the surely-reaching states."""
    region: set[int] = set()
    for sigma in all_strategies(m):
        region |= chain_reach_sure(m, sigma, targets)
    return region


def chain_eval(m: MarkovAutomaton, sigma, objectives):
    """Second opinion on strategy evaluation, on a different numeric path.

    Limiting distributions come from squaring the damped transition matrix
    (exact to machine precision after ~60 squarings), total rewards from plain
    value iteration.  Dense, small models only.
    """
    n = m.n_states
    P = np.zeros((n, n))
    tau = np.zeros(n)
    visit = {}
    for s in range(n):
        a = 0 if m.is_markovian(s) else sigma[s]
        visit[s] = a
        if m.is_markovian(s):
            tau[s] = 1.0 / m.rates[s]
        for t, p in choices(m)[s][a]:
            P[s, t] += p

    S = (P + np.eye(n)) / 2.0
    for _ in range(60):
        S = S @ S
        # keep rows stochastic: tiny one-step bias compounds over 2^60 powers
        S /= S.sum(axis=1, keepdims=True)
    # recurrent states and their classes
    ncomp, labels = connected_components(P > 0, directed=True, connection="strong")
    bottom = [True] * ncomp
    for s in range(n):
        for t in np.nonzero(P[s])[0]:
            if labels[t] != labels[s]:
                bottom[labels[s]] = False

    values = []
    for o in objectives:
        r = m.rewards[o.reward]
        rho = np.zeros(n)
        for s in range(n):
            a = visit[s]
            rho[s] = r.state_rewards.get(s, 0.0) * tau[s] if m.is_markovian(s) else 0.0
            for t, p in choices(m)[s][a]:
                rho[s] += p * r.transition_rewards.get((s, a, t), 0.0)
        if o.kind == "lra":
            gain = np.zeros(n)
            for comp in range(ncomp):
                if not bottom[comp]:
                    continue
                members = [s for s in range(n) if labels[s] == comp]
                pi = S[members[0], members]
                pi = pi / pi.sum()
                t_mean = float(pi @ tau[members])
                gain[members] = float(pi @ rho[members]) / t_mean
            values.append(float(S[m.initial] @ gain))
        else:
            neg = False
            for comp in range(ncomp):
                if not bottom[comp]:
                    continue
                members = [s for s in range(n) if labels[s] == comp]
                if float(S[m.initial, members].sum()) <= 1e-12:
                    continue
                entries = []
                for s in members:
                    if m.is_markovian(s):
                        entries.append(r.state_rewards.get(s, 0.0))
                    for t, _ in choices(m)[s][visit[s]]:
                        entries.append(r.transition_rewards.get((s, visit[s], t), 0.0))
                if any(v < 0.0 for v in entries):
                    neg = True
                if any(v > 0.0 for v in entries):
                    raise AssertionError("positive recurrent reward in oracle")
            if neg:
                values.append(NEG_INF)
                continue
            c = rho.copy()
            for s in range(n):
                if bottom[labels[s]]:
                    c[s] = 0.0
            x = np.zeros(n)
            for _ in range(400_000):
                xn = c + P @ x
                if np.max(np.abs(xn - x)) <= 1e-15 * max(1.0, np.max(np.abs(xn))):
                    x = xn
                    break
                x = xn
            values.append(float(x[m.initial]))
    return values


def ec_lra_lp(m: MarkovAutomaton, r: RewardAssignment) -> float:
    """Optimal long-run average reward of a model that is one end component,
    as a linear program over state-action frequencies x: maximize sum x * rho
    subject to flow balance and sum x * tau = 1, where tau is the mean sojourn
    time (1/rate on Markovian states, 0 on probabilistic ones) and rho the
    expected reward of one visit."""
    rows, cols, vals = [], [], []
    rho = []
    for s in range(m.n_states):
        for a, dist in enumerate(choices(m)[s]):
            c = len(rho)
            rho.append(0.0)
            rows.append(s)
            cols.append(c)
            vals.append(1.0)
            for t, p in dist:
                rows.append(t)
                cols.append(c)
                vals.append(-p)
                rho[c] += p * r.transition_rewards.get((s, a, t), 0.0)
            if m.is_markovian(s):
                rows.append(m.n_states)
                cols.append(c)
                vals.append(1.0 / m.rates[s])
                rho[c] += r.state_rewards.get(s, 0.0) / m.rates[s]
    A_eq = coo_matrix((vals, (rows, cols)), shape=(m.n_states + 1, len(rho))).tocsr()
    b_eq = np.zeros(m.n_states + 1)
    b_eq[-1] = 1.0
    res = linprog(-np.asarray(rho), A_eq=A_eq, b_eq=b_eq, bounds=(0.0, None),
                  method="highs")
    assert res.status == 0, res.message
    return float(-res.fun)


# ---------------------------------------------------------------------------
# independent chain analysis (for MDP step-based LRA)


def mdp_step_lra(mdp: MarkovAutomaton, sigma, r: RewardAssignment) -> float:
    """Expected long-run average reward per step of the strategy's chain,
    by stationary analysis: reach probability x per-BSCC mean step reward."""
    n = mdp.n_states
    P = np.zeros((n, n))
    step = np.zeros(n)
    for s in range(n):
        a = sigma.get(s, 0)
        step[s] = r.state_rewards.get(s, 0.0)
        for t, pr in choices(mdp)[s][a]:
            P[s, t] += pr
            step[s] += pr * r.transition_rewards.get((s, a, t), 0.0)
    ncomp, labels = connected_components(P > 0, directed=True, connection="strong")
    is_bottom = [True] * ncomp
    for s in range(n):
        for t in np.nonzero(P[s])[0]:
            if labels[t] != labels[s]:
                is_bottom[labels[s]] = False
    gains = np.zeros(n)
    bottom_states: list[int] = []
    for comp in range(ncomp):
        members = [s for s in range(n) if labels[s] == comp]
        if not is_bottom[comp]:
            continue
        k = len(members)
        sub = P[np.ix_(members, members)]
        A = (sub - np.eye(k)).T
        A[-1, :] = 1.0
        b = np.zeros(k)
        b[-1] = 1.0
        pi = np.linalg.solve(A, b)
        g = float(pi @ step[members])
        for s in members:
            gains[s] = g
        bottom_states.extend(members)
    # absorption probabilities from the initial state
    transient = [s for s in range(n) if s not in bottom_states]
    value = 0.0
    if mdp.initial in bottom_states:
        return gains[mdp.initial]
    tpos = {s: i for i, s in enumerate(transient)}
    Q = P[np.ix_(transient, transient)]
    b = np.zeros(len(transient))
    for i, s in enumerate(transient):
        b[i] = float(P[s, bottom_states] @ gains[bottom_states])
    x = np.linalg.solve(np.eye(len(transient)) - Q, b)
    return float(x[tpos[mdp.initial]])
