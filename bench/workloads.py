"""The four workloads: inputs, one round of queries, and the oracle checks.

A workload's `setup` builds the inputs from the run's seed, `round` runs
every query once (the part that is timed) and returns the answers, and
`check` compares those answers with an oracle that does not use the code
under test, returning one message per failed query.  Queries run back to
back from one client in one thread (a closed loop).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

import moma
import moma.cli
from gen import layered_ma
from inputs import Menu, Ring, menu, relabel_doc, ring
from oracles import menu_slice_max, menu_support, menu_value, ring_lra

REF = Path(__file__).resolve().parent / "ref"
LAYERED_SEED = 9000
LAYERED_N = 10_000


def _write(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc))


def _query(kind: str, objectives: list[dict], precision: float, **extra) -> dict:
    return {"format": "moma-query", "version": 1, "kind": kind,
            "objectives": objectives, "precision": precision, **extra}


def fingerprint(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def layered_base() -> dict:
    """moma-model document of tests/gen.py:layered_ma at the benchmark's seed."""
    m, _ = layered_ma(np.random.default_rng(LAYERED_SEED), n=LAYERED_N)
    return moma.serialize_model(m)


def layered_query(precision: float) -> dict:
    return _query("pareto", [{"kind": "lra", "direction": "max", "reward": "L0"},
                             {"kind": "total", "direction": "max", "reward": "T0"}],
                  precision)


def _scale(x: float) -> float:
    return max(1.0, abs(x))


def _cli(args: list[str], out: Path) -> tuple[int, bytes]:
    """Exit code and result file of one moma command line."""
    out.unlink(missing_ok=True)
    code = moma.cli.main(args + ["--strategies", "--output", str(out)])
    return code, out.read_bytes() if out.exists() else b""


def _read_result(label: str, code: int, text: bytes, precision: float):
    """The parsed result document and None, or None and why the query
    failed: a nonzero exit code, exhaustion or missed precision."""
    if code != 0:
        return None, f"{label}: exit code {code}"
    doc = json.loads(text)
    if doc.get("exhausted"):
        return None, f"{label}: exhausted"
    if not doc["precision_achieved"] <= precision:
        return None, f"{label}: precision {doc['precision_achieved']} > {precision}"
    return doc, None


def _inside(vertices, halfspaces, tol: float) -> str | None:
    for v in vertices:
        for h in halfspaces:
            lhs = float(np.dot(h["normal"], v))
            if lhs > h["offset"] + tol * _scale(h["offset"]):
                return f"point {v} violates halfspace {h['normal']} <= {h['offset']}"
    return None


class Workload:
    """A workload writes its scratch files under `work`; `ops` is the number
    of queries (or weighted solves) in one round."""

    name: str
    ops: int

    def __init__(self, work: Path):
        self.work = work


class LayeredCli(Workload):
    """tests/gen.py:layered_ma at seed 9000, n = 10,000: a two-objective
    pareto query at 1e-3 through moma.cli.main on files written at set-up.
    The user path at scale; graph bookkeeping (MEC decomposition, quotient,
    lifting) dominates it."""

    name = "layered-10k"
    ops = 1
    precision = 1e-3

    def setup(self, seed: int) -> dict:
        base = layered_base()
        doc, _, _ = relabel_doc(base, np.random.default_rng(seed))
        model, query = self.work / "layered-model.json", self.work / "layered-query.json"
        _write(model, doc)
        _write(query, layered_query(self.precision))
        return {"base": base, "doc": doc, "model": model, "query": query}

    def round(self, inp: dict):
        return [_cli(["pareto", str(inp["model"]), "--query", str(inp["query"])],
                     self.work / "layered-result.json")]

    def check(self, inp: dict, out) -> list[str]:
        (code, text), = out
        doc, why = _read_result("pareto", code, text, self.precision)
        if doc is None:
            return [why]
        ref = json.loads((REF / "layered-10k.json").read_text())
        if fingerprint(inp["base"]) != ref["model_sha256"]:
            return ["pareto: the model differs from the one ref/layered-10k.json was "
                    "computed on (rerun make_refs.py if that is intended)"]
        m = moma.parse_model(inp["doc"])
        objectives = [moma.Objective("lra", "max", reward="L0"),
                      moma.Objective("total", "max", reward="T0")]
        index = {n: i for i, n in enumerate(m.state_names)}
        for v, strat in zip(doc["vertices"], doc["witness"]["strategies"]):
            sigma = {index[s]: m.action_names[index[s]].index(a) for s, a in strat.items()}
            again = moma.evaluate_strategy(m, sigma, objectives).values
            if not np.allclose(again, v, rtol=1e-9, atol=1e-12):
                return [f"pareto: witness re-evaluates to {again}, reported {v}"]
        for why in (_inside(doc["vertices"], doc["halfspaces"], 1e-9),
                    _inside(ref["vertices"], doc["halfspaces"], 1e-7),
                    _inside(doc["vertices"], ref["halfspaces"], 1e-7)):
            if why:
                return [f"pareto: {why}"]
        return []


class OracleSmall(Workload):
    """The criterion-3 draw: 100 random valid Markov automata with at most 8
    states and 10 weight vectors each, solved through normalize_query,
    prepare_weighted and optimize_weighted.  Thousands of tiny calls, so
    per-call overhead and the instantaneous-state loop of mec_lra dominate."""

    name = "oracle-small"
    ops = 1000
    tolerance = 1e-5

    def setup(self, seed: int) -> list:
        rng = np.random.default_rng(seed)
        entries = json.loads((REF / "oracle-small.json").read_text())["models"]
        cases = []
        for i in rng.permutation(len(entries)):
            e = entries[i]
            m = moma.parse_model(relabel_doc(e["model"], rng)[0])
            objectives = [moma.Objective(o["kind"], o["direction"], reward=o["reward"])
                          for o in e["objectives"]]
            cases.append((m, objectives, [np.array(w) for w in e["weights"]], e["optima"]))
        return cases

    def round(self, cases: list):
        out = []
        for m, objectives, weights, _ in cases:
            prep = moma.prepare_weighted(moma.normalize_query(m, objectives))
            for w in weights:
                sol = moma.optimize_weighted(prep, w)
                out.append((sol.value, tuple(sol.point)))
        return out

    def check(self, cases: list, out) -> list[str]:
        optima = [best for *_, bests in cases for best in bests]
        return [f"solve {i}: value {value} vs enumeration {best}"
                for i, ((value, _), best) in enumerate(zip(out, optima))
                if not abs(value - best) <= self.tolerance * _scale(best)]


class RingLra(Workload):
    """One large, nearly periodic end component (the ring of inputs.py,
    N = 300) with one lra objective, as a pareto query through answer_query.
    The component LRA solver's convergence is almost all of the work."""

    name = "ring-lra"
    ops = 1
    n = 300
    base_seed = 4000
    precision = 1e-4

    def setup(self, seed: int) -> tuple[Ring, moma.MarkovAutomaton]:
        r = ring(np.random.default_rng(self.base_seed), self.n)
        doc, _, _ = relabel_doc(r.document(), np.random.default_rng(seed))
        return r, moma.parse_model(doc)

    def round(self, inp):
        _, m = inp
        res = moma.answer_query(m, [moma.Objective("lra", "max", reward="gain")],
                                moma.ParetoQuery(precision=self.precision))
        return [(res.vertices, res.halfspaces, res.precision_achieved, res.exhausted)]

    def check(self, inp, out) -> list[str]:
        r, _ = inp
        (vertices, halfspaces, achieved, exhausted), = out
        if exhausted or not achieved <= self.precision:
            return [f"pareto: exhausted={exhausted}, precision {achieved}"]
        best = ring_lra(r)
        lower = vertices[0][0]
        upper = min(h["offset"] for h in halfspaces)
        tol = 1e-7 * _scale(best)
        if not lower - tol <= best <= upper + tol:
            return [f"pareto: bracket [{lower}, {upper}] misses the LP optimum {best}"]
        return []


class FrontRich(Workload):
    """Menu MDPs (kind mdp, so embed_mdp runs) whose fronts are Minkowski
    sums with dozens to hundreds of vertices, through moma.cli.main: a
    4-objective pareto query at 1e-2 and a 3-objective quantitative query at
    1e-3, one objective minimized in each.  The only workload where hull
    construction and weight selection are most of the work."""

    name = "front-rich"
    ops = 2
    pareto_shape = (7002, 8, 4, ("max", "max", "max", "min"))
    quant_shape = (7115, 6, 4, ("max", "max", "min"))
    pareto_precision = 1e-2
    quant_precision = 1e-3

    def setup(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        inp = {}
        for key, kind, (base, stages, actions, dirs), precision in (
                ("pareto", "pareto", self.pareto_shape, self.pareto_precision),
                ("quant", "quantitative", self.quant_shape, self.quant_precision)):
            mn = menu(np.random.default_rng(base), stages, actions, dirs)
            doc, state, action = relabel_doc(mn.document(), rng)
            # the renaming backwards, to read strategies in the menu's names
            back = {(state[s], new): (s, a) for (s, a), new in action.items()}
            extra = {"thresholds": self.thresholds(mn)} if kind == "quantitative" else {}
            model, query = self.work / f"menu-{key}.json", self.work / f"menu-{key}-query.json"
            _write(model, doc)
            _write(query, _query(kind, mn.objectives(), precision, **extra))
            inp[key] = (mn, back, model, query, extra.get("thresholds"))
        return inp

    @staticmethod
    def thresholds(mn: Menu) -> list[float]:
        """Midpoints of each later objective's range: binding, feasible."""
        lo = mn.rewards.min(axis=1).sum(axis=0)
        hi = mn.rewards.max(axis=1).sum(axis=0)
        return [round(float(x), 3) for x in (lo + hi)[1:] / 2.0]

    def round(self, inp: dict):
        _, _, model, query, _ = inp["pareto"]
        a = _cli(["pareto", str(model), "--query", str(query)],
                 self.work / "menu-pareto-result.json")
        _, _, model, query, _ = inp["quant"]
        b = _cli(["check", str(model), "--query", str(query)],
                 self.work / "menu-quant-result.json")
        return [a, b]

    def check(self, inp: dict, out) -> list[str]:
        (code_p, text_p), (code_q, text_q) = out
        return [why for why in (self._check_pareto(inp["pareto"], code_p, text_p),
                                self._check_quant(inp["quant"], code_q, text_q)) if why]

    @staticmethod
    def _value(mn: Menu, back: dict, strategy: dict[str, str]) -> np.ndarray:
        return menu_value(mn, dict(back[s, a] for s, a in strategy.items()))

    def _check_pareto(self, inp, code: int, text: bytes) -> str | None:
        mn, back, _, _, _ = inp
        doc, why = _read_result("pareto", code, text, self.pareto_precision)
        if doc is None:
            return why
        for h in doc["halfspaces"]:
            best = menu_support(mn, h["normal"])
            if not best - 1e-9 * _scale(best) <= h["offset"] <= \
                    best + self.pareto_precision * _scale(best):
                return f"pareto: offset {h['offset']} vs h(normal) = {best}"
        for v, strat in zip(doc["vertices"], doc["witness"]["strategies"]):
            if not np.allclose(self._value(mn, back, strat), v, rtol=1e-9, atol=1e-12):
                return f"pareto: vertex {v} is not its witness's value"
        why = _inside(doc["vertices"], doc["halfspaces"], 1e-9)
        return f"pareto: {why}" if why else None

    def _check_quant(self, inp, code: int, text: bytes) -> str | None:
        mn, back, _, _, thresholds = inp
        doc, why = _read_result("quantitative", code, text, self.quant_precision)
        if doc is None:
            return why
        best = menu_slice_max(mn, thresholds)
        tol = 1e-7 * _scale(best)
        if not doc["lower"] - tol <= best <= doc["upper"] + tol:
            return f"quantitative: [{doc['lower']}, {doc['upper']}] misses the LP optimum {best}"
        for part in doc["witness"]["mixture"]:
            if not np.allclose(self._value(mn, back, part["strategy"]), part["point"],
                               rtol=1e-9, atol=1e-12):
                return f"quantitative: mixture point {part['point']} is not its strategy's value"
        return None


WORKLOADS = {w.name: w for w in (LayeredCli, OracleSmall, RingLra, FrontRich)}


def digest(out) -> str:
    """Fingerprint of a round's answers, to compare rounds exactly."""
    return hashlib.sha256(repr(out).encode()).hexdigest()
