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

from moma import dumps, evaluate_strategy, parse_model, serialize_model
from moma.cli import main
from moma.modelio import parse_objective

from conftest import corpus_path
from gen import cycle_with_tail, layered_ma

GOLDEN = Path(__file__).resolve().parent / "golden"
LAYERED_QUERY = {"format": "moma-query", "version": 1, "kind": "pareto",
                 "objectives": [{"kind": "lra", "direction": "max", "reward": "L0"},
                                {"kind": "total", "direction": "max", "reward": "T0"}],
                 "precision": 1e-3}

# golden file -> command line (model and query paths resolved by _argv)
CASES = {
    "layered-2000-pareto.json": ["pareto", "@layered", "--query", "@layered-query"],
    "fig1-pareto.json": ["pareto", "@fig1", "--query", "@fig1-pareto.json"],
    "fig1-check.json": ["check", "@fig1", "--query", "@fig1-check.json"],
    "fig1-quant.json": ["check", "@fig1", "--query", "@fig1-quant.json"],
    "fig1-single.json": ["single", "@fig1", "--query", "@fig1-pareto.json"],
}
# exact evaluation of a chain whose recurrent and transient parts both exceed
# the dense limit, so the sparse linear solves are pinned as well
CHAIN_EVAL = "cycle-with-tail-eval.json"


def _argv(case: str, work: Path) -> list[str]:
    files = {"@fig1": corpus_path("fig1.json")}
    if "@layered" in CASES[case]:
        m, _ = layered_ma(np.random.default_rng(9000), n=2000)
        files["@layered"] = str(work / "layered.json")
        files["@layered-query"] = str(work / "layered-query.json")
        Path(files["@layered"]).write_text(dumps(serialize_model(m)), encoding="utf-8")
        Path(files["@layered-query"]).write_text(dumps(LAYERED_QUERY), encoding="utf-8")
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


@pytest.mark.parametrize("case", ["layered-2000-pareto.json", "fig1-pareto.json"])
def test_golden_fronts_are_sound(case):
    """The committed fronts, checked by their meaning rather than their bits:
    every vertex satisfies every halfspace, and every witness strategy
    re-evaluates to its vertex."""
    doc = json.loads((GOLDEN / case).read_text(encoding="utf-8"))
    if case.startswith("layered"):
        m, _ = layered_ma(np.random.default_rng(9000), n=2000)
    else:
        m = parse_model(json.loads(Path(corpus_path("fig1.json")).read_text(encoding="utf-8")))
    objectives = [parse_objective(o, m) for o in doc["query"]["objectives"]]
    assert all(o.direction == "max" for o in objectives)  # vertices need no sign flip
    for v in doc["vertices"]:
        for h in doc["halfspaces"]:
            assert float(np.dot(h["normal"], v)) <= h["offset"] + 1e-9
    index = {name: i for i, name in enumerate(m.state_names)}
    assert len(doc["witness"]["strategies"]) == len(doc["vertices"])
    for v, strategy in zip(doc["vertices"], doc["witness"]["strategies"]):
        sigma = {index[s]: m.action_names[index[s]].index(a) for s, a in strategy.items()}
        again = evaluate_strategy(m, sigma, objectives).values
        assert np.allclose(again, v, rtol=1e-9, atol=1e-12)


def test_sparse_chain_evaluation_is_bit_identical():
    assert _chain_eval() == (GOLDEN / CHAIN_EVAL).read_text(encoding="utf-8")
