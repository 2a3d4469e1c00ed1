"""Byte identity of result files across versions of the code.

Criterion 9 only compares reruns of the same code.  These tests pin the
result documents of a few queries to files written by an earlier version, so
a refactor that moves the last bit of any value, strategy or statistic fails
here.  Regenerate the files only for a change that is meant to alter results:

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.write_golden()"
"""

import json
from pathlib import Path

import numpy as np
import pytest

from moma import dumps, evaluate_strategy, serialize_model
from moma.cli import main

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


def write_golden() -> None:
    import tempfile
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        with tempfile.TemporaryDirectory() as d:
            (GOLDEN / case).write_bytes(_result(case, Path(d)))
    (GOLDEN / CHAIN_EVAL).write_text(_chain_eval(), encoding="utf-8")


@pytest.mark.parametrize("case", sorted(CASES))
def test_result_file_is_byte_identical(case, tmp_path):
    assert _result(case, tmp_path) == (GOLDEN / case).read_bytes()


def test_sparse_chain_evaluation_is_bit_identical():
    assert _chain_eval() == (GOLDEN / CHAIN_EVAL).read_text(encoding="utf-8")
