"""Weighted-sum solver for mixtures of long-run average and total objectives.

Pipeline: normalize the query (embed MDPs, turn reachability into total
reward via a visited-bit product, flip minimization by negating rewards),
check the model assumptions, then per weight vector: bound the best long-run
average of each reward-free end component from above, collapse those
components, and solve one total-reward problem that must reach the collapsed
bottom and is paid the component gains there.  The optimal memoryless
deterministic strategy is stitched back together from the component pieces
and re-evaluated exactly (once per distinct strategy of a query), which
yields a sound lower bound to pair with the certified upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .model import (MarkovAutomaton, MDStrategy, ModelError, Objective,
                    RewardAssignment, ValidationReport, _fresh_name, check_total_rewards,
                    embed_mdp, flat, validate_model, weighted_reward_sum)
from .components import (EndComponent, QuotientModel, almost_sure_reach,
                         decode_quotient_strategy, mec_decomposition, quotient,
                         sub_ma, zero_mecs)
from .solvers import (ChainEvaluation, TotalStructure, evaluate_strategy,
                      mec_lra, reach_to_total, solve_total, total_structure, total_zero_ecs)


@dataclass
class NormalizedProblem:
    """A query in solver form: a closed Markov automaton whose objectives all
    maximize long-run averages or total rewards.

    `flips` undoes the normalization coordinate-wise: user-facing value =
    flip * internal value.  `original` keeps the objectives as stated.
    """

    model: MarkovAutomaton
    objectives: list[Objective]
    flips: np.ndarray
    original: list[Objective]

    @property
    def dimension(self) -> int:
        return len(self.objectives)

    @cached_property
    def zero_ecs(self) -> list[EndComponent]:
        """The end components of the model free of every total reward of the
        objectives, computed once for validation and preparation."""
        return zero_mecs(self.model, _total_assignments(self))


def normalize_query(m: MarkovAutomaton, objectives: Sequence[Objective]) -> NormalizedProblem:
    """Normalize a model and objectives for the weighted-sum machinery.

    A model without Markovian states is an MDP and gets the rate-1 embedding
    (step averages become time averages).  Reachability objectives turn into
    total-reward objectives on a product with a visited bit, applied in query
    order with goal sets tracked through the products.  Minimizing objectives
    maximize the negated reward instead and flip the reported value.
    """
    objectives = list(objectives)
    if not objectives:
        raise ModelError("a query needs at least one objective")
    for o in objectives:
        if o.kind == "reach":
            for s in o.goal:
                if not 0 <= s < m.n_states:
                    raise ModelError(f"goal state {s} out of range")
    original = list(objectives)

    work = m if m.markovian_states() else embed_mdp(m)
    comp = np.arange(m.n_states) if work is m else np.array(work.origin)  # original states

    objs = list(objectives)
    for i, o in enumerate(objs):
        if o.kind != "reach":
            continue
        goal_now = np.flatnonzero(np.isin(comp, list(o.goal)))
        if not len(goal_now):
            # goal unreachable: the probability is 0 under every strategy
            name, fl = _fresh_name(work.rewards, "reach(unreachable)"), flat(work)
            work = work.with_rewards({**work.rewards, name: RewardAssignment.from_vectors(
                fl, name, np.zeros(work.n_states), np.zeros(len(fl.succ)))})
            objs[i] = Objective("total", o.direction, name)
            continue
        work, fresh = reach_to_total(work, goal_now)
        objs[i] = Objective("total", o.direction, fresh.name)
        comp = comp[np.array(work.origin)]

    flips = np.ones(len(objs))
    rewards = dict(work.rewards)
    for i, o in enumerate(objs):
        if o.reward not in rewards:
            raise ModelError(f"model has no reward assignment named {o.reward!r}")
        if o.direction == "max":
            continue
        flips[i] = -1.0
        name = _fresh_name(rewards, f"neg({o.reward})")
        rewards[o.reward].vectors(work)  # the negation runs on its vectors on work
        rewards[name] = rewards[o.reward].negated(name)
        objs[i] = Objective(o.kind, "max", name)
    if (flips < 0).any():
        work = work.with_rewards(rewards)
    return NormalizedProblem(work, objs, flips, original)


def _total_assignments(p: NormalizedProblem) -> list[RewardAssignment]:
    return list({o.reward: p.model.rewards[o.reward] for o in p.objectives
                 if o.kind == "total"}.values())


def validate_assumptions(p: NormalizedProblem) -> ValidationReport:
    """Structural well-formedness, non-Zenoness, sign consistency of total
    rewards inside end components, finiteness of maximal totals, and
    feasibility: some strategy must keep every total reward finite, i.e.
    almost surely reach the end components free of total rewards."""
    rep = validate_model(p.model)
    if not rep.ok:
        return rep
    fl, names = flat(p.model), p.model.state_names
    # every end component of the probabilistic choices alone cycles without
    # time progressing: a probabilistic sub-cycle inside a mixed component
    # is as Zeno as a component without any Markovian state
    for c in mec_decomposition(p.model, choice_ok=~fl.markovian[fl.choice_state]):
        rep.add("NonZeno", "{" + ",".join(names[s] for s in c.members.tolist()) + "}",
                "end component without a Markovian state (time does not progress)")
    if not _total_assignments(p):
        return rep
    rep.extend(check_total_rewards(p.model, p.objectives, mec_decomposition(p.model)))
    if rep.ok:
        region, _ = almost_sure_reach(p.model, [s for c in p.zero_ecs for s in c.members.tolist()])
        if not region[p.model.initial]:
            rep.add("Finiteness", p.model.state_names[p.model.initial],
                    "no strategy keeps every total reward finite (the initial state "
                    "cannot almost surely reach a reward-free end component)")
    return rep


@dataclass
class WeightedPrep:
    """Weight-independent precomputation shared across weighted solves:
    the standalone sub-models of the end components carrying no total
    reward (`problem.zero_ecs`), the quotient that collapses them, and the
    total-reward structures built so far: one per set of zero-reward end
    components a total solve collapses (keyed by their inside choices),
    since that set alone determines a structure, and `patterns` sends each
    support pattern of the lifted reward seen so far to its structure.
    `evaluations` keeps the exact evaluation of every decoded strategy,
    keyed by its action vector's bytes."""

    problem: NormalizedProblem
    quot: QuotientModel
    subs: list[MarkovAutomaton]
    structures: dict[tuple[bytes, ...], TotalStructure] = field(default_factory=dict)
    patterns: dict[bytes, TotalStructure] = field(default_factory=dict)
    evaluations: dict[bytes, ChainEvaluation] = field(default_factory=dict)


def prepare_weighted(p: NormalizedProblem) -> WeightedPrep:
    z = p.zero_ecs
    return WeightedPrep(p, quotient(p.model, z), [sub_ma(p.model, c) for c in z])


@dataclass
class WeightedSolution:
    """One weighted solve: `value` is a certified upper bound on the optimal
    weighted sum, `point` the exact objective vector (internal orientation)
    achieved by `strategy` (an action vector over the states of the
    normalized model), so weights . point lower-bounds the optimum and
    `error_bound` is the absolute bracket width between the two."""

    weights: np.ndarray
    value: float
    point: np.ndarray
    strategy: MDStrategy
    error_bound: float
    component_gains: list[float]
    rounds: int = 0  # of the total solve: strategy-iteration rounds
    sweeps: int = 0  # and Bellman steps of its certificate


def optimize_weighted(prep: WeightedPrep, weights, eps: float = 1e-6) -> WeightedSolution:
    """Maximize weights . (objective values) over all strategies.

    Every component gain enters as a certified upper bound, the final total
    solve is certified as well, so `value` soundly bounds the optimum from
    above; the stitched strategy's exact evaluation bounds it from below.
    """
    p = prep.problem
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(p.objectives),):
        raise ModelError("weight vector dimension does not match the objectives")
    if (w < 0).any():
        raise ModelError("weights must be nonnegative")
    # per objective its weight in the sum of its kind (a weight 0 adds nothing)
    lra_w = [float(w[j]) if o.kind == "lra" else 0.0 for j, o in enumerate(p.objectives)]
    tot_w = [float(w[j]) if o.kind == "total" else 0.0 for j, o in enumerate(p.objectives)]
    names = [o.reward for o in p.objectives]
    r_tot = weighted_reward_sum("w.tot", [(x, p.model.rewards[n]) for x, n in zip(tot_w, names)])

    gains: list[float] = []
    stays: list[np.ndarray] = []
    for c, sub in zip(p.zero_ecs, prep.subs):
        # sub_ma already restricted every named reward to the component
        rr = weighted_reward_sum("w.lra", [(x, sub.rewards[n]) for x, n in zip(lra_w, names)])
        sol = None if rr.is_zero else mec_lra(sub, rr, eps=eps / 2.0)
        gains.append(0.0 if sol is None else sol.upper)
        # sub choice k is base choice c.choices[k]; a reward-free component
        # keeps play inside by its first choices
        stays.append(c.choices[flat(sub).ptr[:-1] + (0 if sol is None else sol.strategy)])

    r_star = prep.quot.lift_reward(r_tot, "w.star", bottom_values=gains)
    key = np.packbits(np.concatenate(r_star.vectors(prep.quot.model)) != 0.0).tobytes()
    if key not in prep.patterns:
        z = total_zero_ecs(prep.quot.model, r_star, prep.quot.bottom_state)
        zk = tuple(c.choices.tobytes() for c in z)
        if zk not in prep.structures:
            prep.structures[zk] = total_structure(prep.quot.model, z, prep.quot.bottom_state)
        prep.patterns[key] = prep.structures[zk]
    total = solve_total(prep.patterns[key], r_star, eps=eps / 2.0)
    sigma = decode_quotient_strategy(prep.quot, total.strategy, stays)
    sk = sigma.tobytes()
    if sk not in prep.evaluations:
        prep.evaluations[sk] = evaluate_strategy(p.model, sigma, p.objectives)
    point = np.array(prep.evaluations[sk].values)
    # weights . point with 0 * (-inf) taken as 0, summed in objective order
    achieved = float(sum(w[w != 0.0] * point[w != 0.0]))
    return WeightedSolution(w, total.value, point, sigma,
                            max(0.0, total.value - achieved), gains, total.rounds, total.sweeps)

