"""File formats and deterministic result serialization.

Three JSON document kinds, all versioned and self-describing:

* ``moma-model``: a Markov automaton or MDP.  States are records with a
  ``rate`` plus one distribution (Markovian) or a list of named ``actions``
  (probabilistic); distributions map successor names to probabilities.
  Reward assignments are named blocks of state rewards and transition
  rewards.
* ``moma-query``: objectives plus one of the three query kinds (pareto,
  achievability, quantitative) and its parameters.
* ``moma-result``: the answer, written with a fixed key order and floats
  rendered with 17 significant digits so that identical runs produce
  byte-identical files.  Infinities are encoded as the tagged strings
  "inf" / "-inf".

Wall-clock timings are never part of the result document unless explicitly
requested, keeping outputs reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii

import numpy as np

from .model import Flat, MarkovAutomaton, ModelError, Objective, RewardAssignment, flat
from .pareto import (AchievabilityQuery, ParetoQuery, QuantitativeQuery,
                     QueryResult)

MODEL_FORMAT = "moma-model"
QUERY_FORMAT = "moma-query"
RESULT_FORMAT = "moma-result"
FORMAT_VERSION = 1


# ---------------------------------------------------------------------------
# deterministic JSON writing


def _is_scalar(x) -> bool:
    return x is None or isinstance(x, (bool, int, float, str, np.integer, np.floating))


def _scalar(x) -> str:
    """JSON text of one scalar (see `_is_scalar`): floats with 17
    significant digits, infinities and NaN as tagged strings."""
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return encode_basestring_ascii(x)  # what json.dumps(x) returns
    x = float(x)
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    if math.isnan(x):
        return '"nan"'
    return format(x, ".17g")


def _ser(obj, out: list[str], ind: int) -> None:
    if _is_scalar(obj):
        out.append(_scalar(obj))
    elif isinstance(obj, (dict, list, tuple, np.ndarray)):
        # a map lists "key": value items, a sequence its entries; a sequence
        # of scalars stays on one line
        keyed = isinstance(obj, dict)
        items = list(obj.items() if keyed else obj)
        opener, closer = "{}" if keyed else "[]"
        if not items:
            out.append(opener + closer)
        elif not keyed and all(_is_scalar(x) for x in items):
            out.append("[" + ", ".join(map(_scalar, items)) + "]")
        else:
            out.append(opener + "\n")
            for i, x in enumerate(items):
                key = encode_basestring_ascii(str(x[0])) + ": " if keyed else ""
                out.append("  " * (ind + 1) + key)
                _ser(x[1] if keyed else x, out, ind + 1)
                out.append(",\n" if i + 1 < len(items) else "\n")
            out.append("  " * ind + closer)
    else:
        raise ModelError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON text: insertion-ordered keys, 17-significant-digit
    floats, tagged infinities, trailing newline."""
    out: list[str] = []
    _ser(obj, out, 0)
    return "".join(out) + "\n"


def _number(x, where: str) -> float:
    if isinstance(x, bool) or not isinstance(x, (int, float, str)):
        raise ModelError(f"{where}: expected a number")
    if isinstance(x, str):
        if x == "inf":
            return math.inf
        if x == "-inf":
            return -math.inf
        raise ModelError(f"{where}: expected a number, got {x!r}")
    return float(x)


def _object(x, where: str) -> dict:
    if not isinstance(x, dict):
        raise ModelError(f"{where}: expected a JSON object, got {type(x).__name__}")
    return x


def _numbers(xs, where: str) -> list[float]:
    if not isinstance(xs, list):
        raise ModelError(f"{where}: expected a list of numbers")
    return [_number(x, where) for x in xs]


def _check_header(doc: dict, expect: str) -> None:
    if not isinstance(doc, dict):
        raise ModelError(f"expected a JSON object with format {expect!r}")
    if doc.get("format") != expect:
        raise ModelError(f"not a {expect} document (format = {doc.get('format')!r})")
    if doc.get("version") != FORMAT_VERSION:
        raise ModelError(f"unsupported {expect} version {doc.get('version')!r}")


# ---------------------------------------------------------------------------
# models


def parse_model(doc: dict) -> MarkovAutomaton:
    """Build a model from a moma-model document, filling its `Flat` arrays in
    one pass.  Structural problems (unknown names, duplicate states, a rate on
    an MDP state) raise ModelError; semantic validation beyond that is left to
    validate_model so that a report can list every violation at once."""
    _check_header(doc, MODEL_FORMAT)
    kind = doc.get("kind", "ma")
    if kind not in ("ma", "mdp"):
        raise ModelError(f"unknown model kind {kind!r}")
    states = doc.get("states")
    if not isinstance(states, list) or not states:
        raise ModelError("model needs a nonempty list of states")

    index: dict[str, int] = {}
    for i, rec in enumerate(states):
        _object(rec, f"states[{i}]")
        name = rec.get("name")
        if not isinstance(name, str) or not name:
            raise ModelError("every state needs a nonempty name")
        if name in index:
            raise ModelError(f"duplicate state name {name!r}")
        index[name] = len(index)

    ptr, edge_ptr, succ, prob = [0], [0], [], []  # the lists of the Flat arrays

    def add_choice(entries, where: str) -> None:
        if not isinstance(entries, dict) or not entries:
            raise ModelError(f"{where}: transitions must be a nonempty map")
        for t, p in entries.items():
            if t not in index:
                raise ModelError(f"{where}: unknown successor {t!r}")
            succ.append(index[t])
            prob.append(p if isinstance(p, float) else _number(p, f"{where} -> {t}"))
        edge_ptr.append(len(succ))

    rates: list[float | None] = []
    action_names: list[tuple[str, ...]] = []
    for rec in states:
        name = rec["name"]
        if ("rate" in rec) == ("actions" in rec):
            raise ModelError(f"state {name!r}: needs either a rate or actions, not both")
        if "rate" in rec:
            if kind == "mdp":
                raise ModelError(f"state {name!r}: MDP states cannot carry a rate")
            rates.append(_number(rec["rate"], f"state {name!r} rate"))
            add_choice(rec.get("transitions"), f"state {name!r}")
            action_names.append(("",))
        else:
            acts = rec["actions"]
            if not isinstance(acts, list) or not acts:
                raise ModelError(f"state {name!r}: actions must be a nonempty list")
            rates.append(None)
            labels = []
            for k, act in enumerate(acts):
                label = _object(act, f"state {name!r} actions[{k}]").get("name", f"a{k}")
                if label in labels:
                    raise ModelError(f"state {name!r}: duplicate action name {label!r}")
                labels.append(label)
                add_choice(act.get("transitions"), f"state {name!r} action {label!r}")
            action_names.append(tuple(labels))
        ptr.append(len(edge_ptr) - 1)

    initial = doc.get("initial")
    if not isinstance(initial, str) or initial not in index:
        raise ModelError(f"unknown initial state {initial!r}")

    rewards: dict[str, RewardAssignment] = {}
    blocks = doc.get("rewards", [])
    if not isinstance(blocks, list):
        raise ModelError("rewards must be a list of reward blocks")
    for i, block in enumerate(blocks):
        rname = _object(block, f"rewards[{i}]").get("name")
        if not isinstance(rname, str) or not rname:
            raise ModelError("every reward block needs a nonempty name")
        if rname in rewards:
            raise ModelError(f"duplicate reward name {rname!r}")
        srew: dict[int, float] = {}
        for sname, v in _object(block.get("states", {}), f"reward {rname!r} states").items():
            if sname not in index:
                raise ModelError(f"reward {rname!r}: unknown state {sname!r}")
            srew[index[sname]] = _number(v, f"reward {rname!r} state {sname!r}")
        trew: dict[tuple[int, int, int], float] = {}
        entries = block.get("transitions", [])
        if not isinstance(entries, list):
            raise ModelError(f"reward {rname!r}: transitions must be a list")
        for k, ent in enumerate(entries):
            _object(ent, f"reward {rname!r} transitions[{k}]")
            src, al, dst = ent.get("from"), ent.get("action"), ent.get("to")
            where = f"reward {rname!r} transition {src!r}->{dst!r}"
            if not all(isinstance(x, str) and x in index for x in (src, dst)):
                raise ModelError(f"{where}: unknown state")
            s = index[src]
            if al is None and rates[s] is None:
                raise ModelError(f"{where}: probabilistic state needs an action name")
            if al is not None and al not in action_names[s]:
                raise ModelError(f"{where}: unknown action {al!r}")
            a = 0 if al is None else action_names[s].index(al)
            t, c = index[dst], ptr[s] + a
            if t not in succ[edge_ptr[c]:edge_ptr[c + 1]]:
                raise ModelError(f"{where}: transition does not exist")
            if (s, a, t) in trew:
                raise ModelError(f"{where}: duplicate transition reward entry")
            trew[(s, a, t)] = _number(ent.get("value"), where)
        rewards[rname] = RewardAssignment(rname, srew, trew)

    fl = Flat(*(np.array(x, dtype=np.int64) for x in (ptr, edge_ptr, succ)), np.array(prob),
              np.array([r is not None for r in rates]),
              np.array([0.0 if r is None else r for r in rates]))
    return MarkovAutomaton.from_flat(fl, index[initial], index, action_names, rewards)


def serialize_model(m: MarkovAutomaton) -> dict:
    """moma-model document for m; parse_model(serialize_model(m)) rebuilds an
    identical model including all names and reward assignments."""
    fl, names = flat(m), m.state_names
    # each choice's edges sorted by successor (repeats by probability)
    order = np.lexsort((fl.prob, fl.succ, fl.edge_choice))
    succ, prob = [names[t] for t in fl.succ[order].tolist()], fl.prob[order].tolist()
    ep, ptr = fl.edge_ptr.tolist(), fl.ptr.tolist()
    dists = [dict(zip(succ[lo:hi], prob[lo:hi])) for lo, hi in zip(ep, ep[1:])]
    states = []
    for s, rate in enumerate(m.rates):
        if rate is None:
            states.append({"name": names[s], "actions": [
                {"name": a, "transitions": d}
                for a, d in zip(m.action_names[s], dists[ptr[s]:ptr[s + 1]])]})
        else:
            states.append({"name": names[s], "rate": rate, "transitions": dists[ptr[s]]})
    rewards = []
    for name in sorted(m.rewards):
        r = m.rewards[name]
        block: dict = {"name": name}
        if r.state_rewards:
            block["states"] = {names[s]: v for s, v in sorted(r.state_rewards.items())}
        if r.transition_rewards:
            block["transitions"] = [
                {"from": names[s], "action": None if m.is_markovian(s) else m.action_names[s][a],
                 "to": names[t], "value": v}
                for (s, a, t), v in sorted(r.transition_rewards.items())]
        rewards.append(block)
    doc: dict = {"format": MODEL_FORMAT, "version": FORMAT_VERSION,
                 "kind": "ma" if fl.markovian.any() else "mdp",
                 "initial": names[m.initial], "states": states}
    if rewards:
        doc["rewards"] = rewards
    return doc


# ---------------------------------------------------------------------------
# queries


@dataclass
class ParsedQuery:
    kind: str
    objectives: list[Objective]
    query: object
    strategies: bool


def parse_objective(doc: dict, m: MarkovAutomaton) -> Objective:
    kind = _object(doc, "objective").get("kind")
    direction = doc.get("direction", "max")
    if kind == "reach":
        goal_names = doc.get("goal")
        if not isinstance(goal_names, list) or not goal_names:
            raise ModelError("reach objective needs a nonempty goal list")
        index = {n: i for i, n in enumerate(m.state_names)}
        for g in goal_names:
            if not isinstance(g, str) or g not in index:
                raise ModelError(f"reach objective: unknown state {g!r}")
        return Objective("reach", direction, goal=frozenset(index[g] for g in goal_names))
    reward = doc.get("reward")
    if not isinstance(reward, str) or reward not in m.rewards:
        raise ModelError(f"objective references unknown reward {reward!r}")
    return Objective(kind, direction, reward=reward)


def parse_query(doc: dict, m: MarkovAutomaton) -> ParsedQuery:
    _check_header(doc, QUERY_FORMAT)
    kind = doc.get("kind")
    if kind not in ("pareto", "achievability", "quantitative"):
        raise ModelError(f"unknown query kind {kind!r}")
    objs_doc = doc.get("objectives")
    if not isinstance(objs_doc, list) or not objs_doc:
        raise ModelError("query needs a nonempty list of objectives")
    objectives = [parse_objective(o, m) for o in objs_doc]

    budget = {k: doc[k] for k in ("precision", "max_iterations", "time_limit") if k in doc}
    if kind == "pareto":
        query = ParetoQuery(**budget)
    elif kind == "achievability":
        query = AchievabilityQuery(_numbers(doc.get("point"), "point"), **budget)
    else:
        query = QuantitativeQuery(_numbers(doc.get("thresholds", []), "thresholds"), **budget)

    strategies = doc.get("strategies", False)
    if not isinstance(strategies, bool):
        raise ModelError(f"strategies must be true or false, got {strategies!r}")
    return ParsedQuery(kind, objectives, query, strategies)


def query_echo(pq: ParsedQuery, m: MarkovAutomaton) -> dict:
    objs = []
    for o in pq.objectives:
        if o.kind == "reach":
            objs.append({"kind": o.kind, "direction": o.direction,
                         "goal": sorted(m.state_names[s] for s in o.goal)})
        else:
            objs.append({"kind": o.kind, "direction": o.direction, "reward": o.reward})
    doc: dict = {"kind": pq.kind, "objectives": objs}
    q = pq.query
    if isinstance(q, AchievabilityQuery):
        doc["point"] = list(q.point)
    elif isinstance(q, QuantitativeQuery):
        doc["thresholds"] = list(q.thresholds)
    doc.update(precision=q.precision, max_iterations=q.max_iterations)
    if q.time_limit is not None:
        doc["time_limit"] = q.time_limit
    return doc


# ---------------------------------------------------------------------------
# results


def _witness_doc(witness: dict | None, m: MarkovAutomaton, strategies: bool) -> dict | None:
    if witness is None:
        return None
    out: dict = {}
    if "separating" in witness:
        out["separating"] = witness["separating"]
    if "mixture" in witness:
        out["mixture"] = [{"weight": w["weight"], "point": w["point"]}
                          | ({"strategy": _strategy_doc(w["strategy"], m)} if strategies else {})
                          for w in witness["mixture"]]
        out["point"] = witness["point"]
    if "vertices" in witness and strategies:
        out["strategies"] = [_strategy_doc(s, m) for s in witness["vertices"]]
    return out or None


def _strategy_doc(sigma: dict[int, int], m: MarkovAutomaton) -> dict:
    return {m.state_names[s]: m.action_names[s][a]
            for s, a in sorted(sigma.items()) if not m.is_markovian(s)}


def result_document(res: QueryResult, query_doc: dict, strategies: bool = False) -> dict:
    """Result file content with a fixed key order and no wall-clock field,
    so that results are byte-stable."""
    model = res.problem.model if res.problem is not None else None
    doc: dict = {"format": RESULT_FORMAT, "version": FORMAT_VERSION,
                 "kind": res.kind, "query": query_doc}
    if res.kind == "achievability":
        doc["verdict"] = res.verdict
    elif res.kind == "quantitative":
        doc.update(lower=res.lower, upper=res.upper)
    else:
        doc.update(vertices=[list(v) for v in res.vertices or []], facets=res.facets or [],
                   halfspaces=res.halfspaces or [])
    w = _witness_doc(res.witness, model, strategies)
    if w:
        doc["witness"] = w
    if res.kind != "achievability":
        doc.update(precision_achieved=res.precision_achieved, exhausted=res.exhausted)
    if res.warnings:
        doc["warnings"] = res.warnings
    doc["statistics"] = dict(res.statistics)
    return doc


def plot_csv(res: QueryResult) -> str:
    """Two-dimensional plot data: the Pareto vertices plus the corner points
    of the outer approximation, as CSV with a kind column."""
    if res.kind != "pareto":
        raise ModelError("plot output is only available for pareto queries")
    if res.state is None or res.state.dimension != 2:
        raise ModelError("plot output requires exactly 2 objectives")
    flips = res.problem.flips
    rows = [(v[0], v[1], "vertex") for v in res.vertices or []]
    # the meeting point of every pair of non-parallel halfspace boundaries,
    # kept when it satisfies every halfspace; pairs in combinations order
    normals, offsets = res.state.normals, res.state.offsets
    i, j = np.triu_indices(len(offsets), 1)
    a = np.stack([normals[i], normals[j]], axis=1)
    pair = np.abs(np.linalg.det(a)) >= 1e-12
    b = np.stack([offsets[i], offsets[j]], axis=1)[pair]
    x = np.linalg.solve(a[pair], b[:, :, None])[:, :, 0]
    # every corner-halfspace dot product by stacked matmul, which rounds as
    # np.dot does, in blocks of about a million
    bound = offsets + 1e-9 * np.maximum(1.0, np.abs(offsets))
    step = max(1, (1 << 20) // max(1, len(offsets)))
    inside = np.empty(len(x), dtype=bool)
    for k in range(0, len(x), step):
        dots = (x[k:k + step, None, None, :] @ normals[:, :, None])[:, :, 0, 0]
        inside[k:k + step] = (dots <= bound).all(axis=1)
    corners = set(map(tuple, np.round(x[inside] * flips, 9).tolist()))
    rows += [(c[0], c[1], "q_boundary") for c in sorted(corners)]
    return "coord_1,coord_2,kind\n" + "".join(f"{format(x, '.17g')},{format(y, '.17g')},{kind}\n"
                                              for x, y, kind in rows)
