"""Byte identity of result files across versions of the code.

Criterion 9 only compares reruns of the same code.  These tests pin the
result documents of a few queries to files written by an earlier version, so
a refactor that moves the last bit of any value, strategy or statistic fails
here.  Regenerate the files only for a change that is meant to alter results:

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.write_golden()"

Before that, list what the change moves, field by field (path, old value, new
value), and record the list with the change:

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.diff_golden()"
"""

import json
from pathlib import Path

import numpy as np
import pytest

from moma import dumps, evaluate_strategy, normalize_query, parse_model, serialize_model
from moma.cli import main
from moma.modelio import parse_objective

from conftest import corpus_path
from gen import cycle_with_tail, layered_ma, menu_doc

GOLDEN = Path(__file__).resolve().parent / "golden"
LAYERED_QUERY = {"format": "moma-query", "version": 1, "kind": "pareto",
                 "objectives": [{"kind": "lra", "direction": "max", "reward": "L0"},
                                {"kind": "total", "direction": "max", "reward": "T0"}],
                 "precision": 1e-3}
# fig1 with a reach objective to minimize: its product numbering, the names
# of its goal-flagged states and the flip of a minimized probability
REACH_QUERY = {"format": "moma-query", "version": 1, "kind": "pareto",
               "objectives": [{"kind": "lra", "direction": "max", "reward": "R1"},
                              {"kind": "reach", "direction": "min", "goal": ["s4"]}],
               "precision": 1e-4}
# menu MDPs with 3- and 4-objective fronts: (seed, stages, actions,
# directions, precision)
MENUS = {"menu4": (7002, 5, 3, ("max", "max", "max", "min"), 1e-2),
         "menu3": (7115, 6, 3, ("max", "max", "min"), 1e-3)}

# golden file -> command line (model and query paths resolved by _argv)
CASES = {
    "layered-2000-pareto.json": ["pareto", "@layered", "--query", "@layered-query"],
    "menu4-pareto.json": ["pareto", "@menu4", "--query", "@menu4-query"],
    "menu3-pareto.json": ["pareto", "@menu3", "--query", "@menu3-query"],
    "fig1-pareto.json": ["pareto", "@fig1", "--query", "@fig1-pareto.json"],
    "fig1-reach-pareto.json": ["pareto", "@fig1-reach", "--query", "@fig1-reach-query"],
    "fig1-check.json": ["check", "@fig1", "--query", "@fig1-check.json"],
    "fig1-quant.json": ["check", "@fig1", "--query", "@fig1-quant.json"],
    "fig1-single.json": ["single", "@fig1", "--query", "@fig1-pareto.json"],
}
# exact evaluation of a chain whose recurrent and transient parts both exceed
# the dense limit (solvers._DENSE_LIMIT unknowns), so the SuperLU route is
# pinned as well as the LAPACK getrf/getrs route the smaller cases take
CHAIN_EVAL = "cycle-with-tail-eval.json"


def _generated(name: str) -> tuple[dict, dict]:
    """Model and query document of a generated input."""
    if name == "layered":
        m, _ = layered_ma(np.random.default_rng(9000), n=2000)
        return serialize_model(m), LAYERED_QUERY
    if name == "fig1-reach":
        return json.loads(Path(corpus_path("fig1.json")).read_text(encoding="utf-8")), REACH_QUERY
    seed, stages, actions, directions, precision = MENUS[name]
    doc, objectives = menu_doc(np.random.default_rng(seed), stages, actions, directions)
    return doc, {"format": "moma-query", "version": 1, "kind": "pareto",
                 "objectives": objectives, "precision": precision}


def _argv(case: str, work: Path) -> list[str]:
    files = {"@fig1": corpus_path("fig1.json")}
    name = CASES[case][1][1:]
    if name != "fig1":
        files[f"@{name}"] = str(work / f"{name}.json")
        files[f"@{name}-query"] = str(work / f"{name}-query.json")
        for key, doc in zip((f"@{name}", f"@{name}-query"), _generated(name)):
            Path(files[key]).write_text(dumps(doc), encoding="utf-8")
    return [files.get(a) or (corpus_path(a[1:]) if a.startswith("@") else a)
            for a in CASES[case]]


def _result(case: str, work: Path) -> bytes:
    out = work / "result.json"
    assert main(_argv(case, work) + ["--strategies", "--output", str(out)]) == 0
    return out.read_bytes()


def _chain_eval() -> str:
    m, objectives, sigma = cycle_with_tail()
    ev = evaluate_strategy(m, sigma, objectives)
    doc = {"values": [repr(v) for v in ev.values],
           "reach_probs": [repr(p) for p in ev.reach_probs],
           "gains": [[repr(g) for g in row] for row in ev.gains]}
    return json.dumps(doc, indent=1) + "\n"


def _fresh() -> dict[str, bytes]:
    """Every golden file's content as the current code writes it."""
    import tempfile
    out = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as d:
            out[case] = _result(case, Path(d))
    out[CHAIN_EVAL] = _chain_eval().encode("utf-8")
    return out


def write_golden() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for name, content in _fresh().items():
        (GOLDEN / name).write_bytes(content)


def _leaf_diffs(old, new, path: str = ""):
    """(path, old, new) for every leaf where two parsed documents differ."""
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        for k in old:
            yield from _leaf_diffs(old[k], new[k], f"{path}.{k}" if path else k)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            yield from _leaf_diffs(a, b, f"{path}[{i}]")
    elif type(old) is not type(new) or old != new:
        yield path, old, new


def diff_golden() -> list[tuple[str, str, object, object]]:
    """Print and return (file, field path, old, new) for every field where a
    fresh result differs from its committed golden file."""
    out = []
    for name, content in _fresh().items():
        old = (GOLDEN / name).read_bytes()
        diffs = list(_leaf_diffs(json.loads(old), json.loads(content)))
        if old != content and not diffs:
            diffs = [("(bytes)", "same values, other formatting", "")]
        for path, a, b in diffs:
            print(f"{name} {path}: {a!r} -> {b!r}")
            out.append((name, path, a, b))
    return out


@pytest.mark.parametrize("case", sorted(CASES))
def test_result_file_is_byte_identical(case, tmp_path):
    assert _result(case, tmp_path) == (GOLDEN / case).read_bytes()


@pytest.mark.parametrize("case", ["layered-2000-pareto.json", "fig1-pareto.json",
                                  "fig1-reach-pareto.json", "menu3-pareto.json",
                                  "menu4-pareto.json"])
def test_golden_fronts_are_sound(case):
    """The committed fronts, checked by their meaning rather than their bits:
    every vertex satisfies every halfspace, and every witness strategy
    re-evaluates to its vertex.  Vertices and normals are both in user
    orientation (a minimized coordinate flips in both), so containment reads
    the same there; the witnesses are strategies of the normalized model."""
    doc = json.loads((GOLDEN / case).read_text(encoding="utf-8"))
    if case.startswith("fig1"):
        m = parse_model(json.loads(Path(corpus_path("fig1.json")).read_text(encoding="utf-8")))
    elif case.startswith("layered"):
        m, _ = layered_ma(np.random.default_rng(9000), n=2000)
    else:
        m = parse_model(_generated(case.split("-")[0])[0])
    p = normalize_query(m, [parse_objective(o, m) for o in doc["query"]["objectives"]])
    for v in doc["vertices"]:
        for h in doc["halfspaces"]:
            assert float(np.dot(h["normal"], v)) <= h["offset"] + 1e-9
    index = {name: i for i, name in enumerate(p.model.state_names)}
    assert len(doc["witness"]["strategies"]) == len(doc["vertices"])
    for v, strategy in zip(doc["vertices"], doc["witness"]["strategies"]):
        sigma = {index[s]: p.model.action_names[index[s]].index(a) for s, a in strategy.items()}
        again = np.array(evaluate_strategy(p.model, sigma, p.objectives).values) * p.flips
        assert np.allclose(again, v, rtol=1e-9, atol=1e-12)


def test_sparse_chain_evaluation_is_bit_identical():
    assert _chain_eval() == (GOLDEN / CHAIN_EVAL).read_text(encoding="utf-8")
