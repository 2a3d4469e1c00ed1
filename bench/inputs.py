"""Workload inputs: the ring and menu generators, and the seed-driven renaming.

Every workload starts from one fixed base instance, so that each run does the
same work and two runs differ only by the code under test.  The run's seed
renames the states and actions of the moma-model document (`relabel_doc`)
and keeps their order.  Reordering them would change the order in which
floating-point sums run, and with it the refinement count of a pareto query:
eight reorderings of the 4-objective menu gave 114 to 125 refinements, and
one of the 10k-state layered model 5 instead of 6.

The generators here build plain moma-model documents from their own arrays,
without moma code, so that the oracles in `oracles.py` can read the same
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def relabel_doc(doc: dict, rng: np.random.Generator):
    """The same model in the same order, with the state names permuted among
    the states and the action names among the actions of each state.
    Returns the document and the renaming: old state name -> new, and
    (old state name, old action name) -> new action name."""
    old = [rec["name"] for rec in doc["states"]]
    state = dict(zip(old, (old[i] for i in rng.permutation(len(old)))))
    action: dict[tuple[str, str], str] = {}

    def succ(dist: dict) -> dict:
        return {state[t]: p for t, p in dist.items()}

    states = []
    for rec in doc["states"]:
        out = dict(rec, name=state[rec["name"]])
        if "actions" in rec:
            labels = [a["name"] for a in rec["actions"]]
            for a, i in zip(labels, rng.permutation(len(labels))):
                action[(rec["name"], a)] = labels[i]
            out["actions"] = [dict(a, name=action[(rec["name"], a["name"])],
                                   transitions=succ(a["transitions"]))
                              for a in rec["actions"]]
        else:
            out["transitions"] = succ(rec["transitions"])
        states.append(out)
    rewards = []
    for block in doc.get("rewards", []):
        block = dict(block)
        if "states" in block:
            block["states"] = {state[s]: v for s, v in block["states"].items()}
        if "transitions" in block:
            block["transitions"] = [
                dict(e, **{"from": state[e["from"]], "to": state[e["to"]],
                           "action": e["action"] if e.get("action") is None
                           else action[(e["from"], e["action"])]})
                for e in block["transitions"]]
        rewards.append(block)
    out = dict(doc, initial=state[doc["initial"]], states=states)
    if rewards:
        out["rewards"] = rewards
    return out, state, action


# ---------------------------------------------------------------------------
# ring: one large, nearly periodic end component with one lra objective


@dataclass
class Ring:
    """N states on a cycle.  A Markovian state s (rate 1 to 4) steps to s+1
    with probability 7/8 and back to s-1 with probability 1/8; every fifth
    state is probabilistic and chooses between stepping to s+1 and skipping
    forward by 2 to 5.  The lra reward pays per time unit on Markovian states
    and a lump sum (possibly negative) on each skip."""

    rates: np.ndarray          # 0.0 marks a probabilistic state
    skip: np.ndarray           # skip length, probabilistic states only
    state_reward: np.ndarray
    skip_reward: np.ndarray

    @property
    def n(self) -> int:
        return len(self.rates)

    def choices(self, s: int) -> list[tuple[str | None, dict[int, float]]]:
        """(action name, successor -> probability) per choice of s."""
        n = self.n
        if self.rates[s] > 0.0:
            return [(None, {(s + 1) % n: 0.875, (s - 1) % n: 0.125})]
        return [("step", {(s + 1) % n: 1.0}),
                ("skip", {(s + int(self.skip[s])) % n: 1.0})]

    def document(self) -> dict:
        name = [f"r{s}" for s in range(self.n)]
        states = []
        trans = []
        for s in range(self.n):
            ch = self.choices(s)
            if self.rates[s] > 0.0:
                states.append({"name": name[s], "rate": float(self.rates[s]),
                               "transitions": {name[t]: p for t, p in ch[0][1].items()}})
            else:
                states.append({"name": name[s], "actions": [
                    {"name": a, "transitions": {name[t]: p for t, p in d.items()}}
                    for a, d in ch]})
                if self.skip_reward[s] != 0.0:
                    (t,) = ch[1][1]
                    trans.append({"from": name[s], "action": "skip", "to": name[t],
                                  "value": float(self.skip_reward[s])})
        srew = {name[s]: float(v) for s, v in enumerate(self.state_reward) if v != 0.0}
        return {"format": "moma-model", "version": 1, "kind": "ma",
                "initial": name[0], "states": states,
                "rewards": [{"name": "gain", "states": srew, "transitions": trans}]}


def ring(rng: np.random.Generator, n: int) -> Ring:
    prob = np.arange(n) % 5 == 4
    rates = np.where(prob, 0.0, rng.integers(1, 5, size=n).astype(float))
    skip = np.where(prob, rng.integers(2, 6, size=n), 0)
    state_reward = np.where(prob, 0.0, rng.integers(0, 7, size=n) / 2.0)
    skip_reward = np.where(prob, rng.integers(-2, 3, size=n) / 2.0, 0.0)
    return Ring(rates, skip, state_reward, skip_reward)


# ---------------------------------------------------------------------------
# menu: an MDP whose Pareto front is a Minkowski sum of per-stage menus


@dataclass
class Menu:
    """L probabilistic stages of A actions each, then an absorbing state.
    Every action moves to the next stage and pays a reward vector whose d
    entries split a random total (a Dirichlet draw), one transition reward
    per objective.  `directions[j]` is "max" or "min".  Stage i is named
    `stage<i>` and its action k `m<k>`."""

    rewards: np.ndarray        # (L, A, d)
    directions: tuple[str, ...]

    def document(self) -> dict:
        L, A, d = self.rewards.shape
        name = [f"stage{i}" for i in range(L)] + ["done"]
        states = []
        for i in range(L):
            states.append({"name": name[i], "actions": [
                {"name": f"m{k}", "transitions": {name[i + 1]: 1.0}} for k in range(A)]})
        states.append({"name": "done", "actions": [{"name": "idle",
                                                     "transitions": {"done": 1.0}}]})
        blocks = []
        for j in range(d):
            blocks.append({"name": f"R{j}", "transitions": [
                {"from": name[i], "action": f"m{k}", "to": name[i + 1],
                 "value": float(self.rewards[i, k, j])}
                for i in range(L) for k in range(A)]})
        return {"format": "moma-model", "version": 1, "kind": "mdp",
                "initial": name[0], "states": states, "rewards": blocks}

    def objectives(self) -> list[dict]:
        return [{"kind": "total", "direction": d, "reward": f"R{j}"}
                for j, d in enumerate(self.directions)]


def menu(rng: np.random.Generator, stages: int, actions: int,
         directions: tuple[str, ...]) -> Menu:
    total = rng.integers(2, 9, size=(stages, actions, 1)) / 2.0
    split = rng.dirichlet(np.ones(len(directions)), size=(stages, actions))
    return Menu(np.round(total * split, 6), directions)
