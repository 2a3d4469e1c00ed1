"""Write the reference files under bench/ref/.

    python3 bench/make_refs.py [oracle-small|layered-10k ...]

* ``oracle-small.json``: the criterion-3 draw of tests/test_acceptance.py
  (seed 2024: 100 random valid Markov automata with at most 8 states, 10
  weight vectors each), stored as moma-model documents, with the optimal
  weighted value of every (model, weights) pair found by enumerating all
  memoryless deterministic strategies and evaluating each with
  tests/gen.py:chain_eval, a numeric path separate from moma's
  evaluate_strategy.  The draw is stored rather than regenerated so that the
  workload does not change when the generators in tests/ do.
* ``layered-10k.json``: the Pareto front (vertices and halfspaces) that moma
  computed for tests/gen.py:layered_ma at seed 9000, n = 10,000, precision
  1e-3, with a fingerprint of the model it was computed on.  It records what
  the code answered when the benchmark was defined, so later versions are
  checked for agreement with it.

Each file takes about half a minute to recompute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import numpy as np  # noqa: E402

import moma  # noqa: E402
from gen import (all_strategies, chain_eval, dot_ninf, oracle_points,  # noqa: E402
                 random_valid_instance, weighted_oracle)
from workloads import (LAYERED_N, LAYERED_SEED, LayeredCli, fingerprint,  # noqa: E402
                       layered_base, layered_query)

ORACLE_SEED = 2024


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def make_layered(out_dir: Path) -> None:
    doc = layered_base()
    m = moma.parse_model(doc)
    pq = moma.parse_query(layered_query(LayeredCli.precision), m)
    res = moma.answer_query(m, pq.objectives, pq.query)
    ref = {"what": "pareto front computed by moma at commit " + _commit()
                   + " (the commit the benchmark was defined on), not an "
                   "independent oracle",
           "model": f"tests/gen.py:layered_ma(default_rng({LAYERED_SEED}), n={LAYERED_N})",
           "model_sha256": fingerprint(doc),
           "precision": LayeredCli.precision,
           "iterations": res.iterations,
           "precision_achieved": res.precision_achieved,
           "vertices": res.vertices,
           "halfspaces": res.halfspaces}
    (out_dir / "layered-10k.json").write_text(json.dumps(ref, indent=1) + "\n")


def criterion3_draw():
    """The exact draw of test_criterion_3_weighted_oracle_suite."""
    rng = np.random.default_rng(ORACLE_SEED)
    for _ in range(100):
        n_lra = int(rng.integers(0, 3))
        n_total = int(rng.integers(0 if n_lra else 1, 3))
        m, objectives = random_valid_instance(
            rng, n_lra=n_lra, n_total=n_total, max_states=8, max_actions=2)
        k = len(objectives)
        weights = []
        for _ in range(10):
            w = rng.random(k)
            if k > 1 and rng.random() < 0.3:
                w[int(rng.integers(0, k))] = 0.0
            s = w.sum()
            weights.append(w / s if s > 0 else np.ones(k) / k)
        yield m, objectives, weights


def make_oracle_small(out_dir: Path) -> None:
    entries = []
    for i, (m, objectives, weights) in enumerate(criterion3_draw()):
        if not m.markovian_states():
            raise SystemExit("draw contains an MDP; chain_eval needs Markovian states")
        points = [np.array(chain_eval(m, sigma, objectives)) for sigma in all_strategies(m)]
        finite = [pt for pt in points if np.all(np.isfinite(pt))]
        optima = [max(dot_ninf(w, pt) for pt in finite) for w in weights]
        # second opinion through moma's own evaluation, as in criterion 3
        _, pts = oracle_points(m, objectives)
        for w, best in zip(weights, optima):
            other = weighted_oracle(pts, w)
            if abs(other - best) > 1e-9 * max(1.0, abs(best)):
                raise SystemExit(f"model {i}: chain_eval {best} vs evaluate_strategy {other}")
        entries.append({
            "model": moma.serialize_model(m),
            "objectives": [{"kind": o.kind, "direction": o.direction, "reward": o.reward}
                           for o in objectives],
            "weights": [[float(x) for x in w] for w in weights],
            "optima": optima})
        print(f"model {i}: {len(points)} strategies", file=sys.stderr, flush=True)
    head = {"what": "criterion-3 draw (tests/test_acceptance.py, seed "
                    f"{ORACLE_SEED}) with weighted optima from strategy enumeration "
                    "and tests/gen.py:chain_eval",
            "tolerance": "relative 1e-5, floor 1"}
    lines = [json.dumps(e, separators=(",", ":")) for e in entries]
    text = json.dumps(head)[:-1] + ', "models": [\n' + ",\n".join(lines) + "\n]}\n"
    (out_dir / "oracle-small.json").write_text(text)


def main(argv: list[str]) -> int:
    out_dir = HERE / "ref"
    out_dir.mkdir(exist_ok=True)
    which = argv or ["layered-10k", "oracle-small"]
    for name in which:
        {"layered-10k": make_layered, "oracle-small": make_oracle_small}[name](out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
