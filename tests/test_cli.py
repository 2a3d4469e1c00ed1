import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from moma import SolverError, answer_query, dumps, parse_model, parse_query, serialize_model
from moma.cli import main

from conftest import corpus_path
from gen import menu_doc


@pytest.fixture
def ws(tmp_path, fig1):
    """Workspace with the example model on disk and a query-file factory."""
    model = tmp_path / "model.json"
    model.write_text(dumps(serialize_model(fig1)), encoding="utf-8")
    counter = [0]

    def query(kind="pareto", **extra):
        doc = {"format": "moma-query", "version": 1, "kind": kind,
               "objectives": [
                   {"kind": "lra", "direction": "max", "reward": "R1"},
                   {"kind": "total", "direction": "max", "reward": "R2"}]}
        doc.update(extra)
        counter[0] += 1
        path = tmp_path / f"query{counter[0]}.json"
        path.write_text(dumps(doc), encoding="utf-8")
        return str(path)

    return SimpleNamespace(model=str(model), query=query, dir=tmp_path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def divergent_totals(ws):
    """A model whose one state loops with total rewards 1: the totals
    diverge, against the assumptions; and a two-total query on it."""
    doc = {"format": "moma-model", "version": 1, "kind": "ma", "initial": "s0",
           "states": [{"name": "s0", "rate": 1.0, "transitions": {"s0": 1.0}}],
           "rewards": [{"name": "R1", "states": {"s0": 1.0}},
                       {"name": "R2", "states": {"s0": 1.0}}]}
    bad = ws.dir / "divergent.json"
    bad.write_text(dumps(doc), encoding="utf-8")
    return str(bad), ws.query(objectives=[
        {"kind": "total", "direction": "max", "reward": "R1"},
        {"kind": "total", "direction": "max", "reward": "R2"}])


class TestValidate:
    def test_ok(self, ws, capsys):
        code, out, _ = run(capsys, "validate", ws.model)
        assert code == 0
        assert out.strip() == "ok"

    def test_broken_model(self, ws, capsys):
        doc = json.loads((ws.dir / "model.json").read_text())
        doc["states"][0]["transitions"] = {"s2": 0.5}
        bad = ws.dir / "bad.json"
        bad.write_text(dumps(doc), encoding="utf-8")
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 2
        assert "sum" in out

    @pytest.mark.parametrize("path, value, message", [
        ("states.0.rate", "inf", "s1: Markovian state has infinite rate inf"),
        ("rewards.0.states.s2", float("nan"), "R1: non-finite state reward nan at s2"),
        ("rewards.1.transitions.0.value", "-inf",
         "R2: non-finite transition reward -inf on edge (s3, 0, 0)"),
    ])
    def test_non_finite_values(self, ws, capsys, path, value, message):
        bad = ws.dir / "bad.json"
        doc = json.loads((ws.dir / "model.json").read_text())
        bad.write_text(json.dumps(_broken(doc, path, value)), encoding="utf-8")
        code, out, _ = run(capsys, "validate", str(bad))
        assert code == 2 and out == f"[WellFormed] {message}\n"
        code, out, err = run(capsys, "pareto", str(bad), "--query", ws.query())
        assert code == 2 and out == "" and message in err

    def test_with_query_checks_assumptions(self, ws, capsys):
        code, out, _ = run(capsys, "validate", ws.model, "--query", ws.query())
        assert code == 0
        assert out.strip() == "ok"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "validate", "/does/not/exist.json")
        assert code == 2
        assert "error:" in err

    def test_invalid_json(self, ws, capsys):
        bad = ws.dir / "garbage.json"
        bad.write_text("{not json", encoding="utf-8")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert "not valid JSON" in err


class TestSingle:
    def test_values(self, ws, capsys):
        code, out, _ = run(capsys, "single", ws.model, "--query", ws.query())
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "single"
        values = {v["objective"]["reward"]: v["value"] for v in doc["values"]}
        assert values["R1"] == pytest.approx(4.0, abs=1e-6)
        assert values["R2"] == pytest.approx(0.0, abs=1e-6)
        assert all(v["error_bound"] <= 1e-5 for v in doc["values"])
        assert doc["statistics"]["zero_ecs"] == 2

    def test_strategies_flag(self, ws, capsys):
        code, out, _ = run(capsys, "single", ws.model, "--query", ws.query(),
                           "--strategies")
        assert code == 0
        doc = json.loads(out)
        assert all("strategy" in v for v in doc["values"])

    def test_strategies_from_query_file(self, ws, capsys):
        code, out, _ = run(capsys, "single", ws.model, "--query", ws.query(strategies=True))
        assert code == 0
        doc = json.loads(out)
        assert all("strategy" in v for v in doc["values"])
        code, out, _ = run(capsys, "single", ws.model, "--query", ws.query())
        assert not any("strategy" in v for v in json.loads(out)["values"])

    def test_solves_at_fixed_precision(self, ws, capsys):
        # single runs no refinement, which is all a query file's precision
        # bounds: the solves keep the solver precision unless --precision is given
        code, out, _ = run(capsys, "single", ws.model, "--query", ws.query(precision=0.5))
        assert code == 0
        doc = json.loads(out)
        assert doc["query"]["precision"] == 0.5
        _, out, _ = run(capsys, "single", ws.model, "--query", ws.query())
        assert doc["values"] == json.loads(out)["values"]
        # fig1's lra bound reads 1.0000000005838672e-06: the solver precision, rounded
        assert all(v["error_bound"] <= 1e-6 * (1 + 1e-6) for v in doc["values"])

    def test_query_is_required(self, ws, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["single", ws.model])
        assert exc.value.code == 2

    def test_assumption_violation_exits_2(self, ws, capsys):
        # the report goes to stderr, and no result is written
        model, query = divergent_totals(ws)
        result = ws.dir / "result.json"
        code, out, err = run(capsys, "single", model, "--query", query, "--output", str(result))
        assert code == 2 and out == ""
        assert "[Finiteness]" in err
        assert not result.exists()


class TestCheck:
    def test_point_yes(self, ws, capsys):
        code, out, _ = run(capsys, "check", ws.model, "--query", ws.query(),
                           "--point", "3.5,-1")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "achievability"
        assert doc["verdict"] == "yes"
        assert doc["query"]["point"] == [3.5, -1.0]

    def test_point_no(self, ws, capsys):
        code, out, _ = run(capsys, "check", ws.model, "--query", ws.query(),
                           "--point", "4,0")
        assert code == 0
        assert json.loads(out)["verdict"] == "no"

    def test_point_in_the_slack_is_unknown(self, capsys):
        # the front is resolved to the precision after 3 refinements while
        # the point sits in the halfspaces' slack: unknown, with budget left
        model, query = corpus_path("fig1.json"), corpus_path("fig1-check.json")
        code, out, _ = run(capsys, "check", model, "--query", query, "--point", "3.5000002,-1")
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "unknown"
        assert doc["statistics"]["iterations"] == 3
        m = parse_model(json.loads(Path(model).read_text(encoding="utf-8")))
        pq = parse_query({**json.loads(Path(query).read_text(encoding="utf-8")),
                          "point": [3.5000002, -1.0]}, m)
        res = answer_query(m, pq.objectives, pq.query)
        assert res.verdict == "unknown" and res.iterations == 3
        assert res.exhausted is False

    def test_point_arity(self, ws, capsys):
        code, _, err = run(capsys, "check", ws.model, "--query", ws.query(),
                           "--point", "1.0")
        assert code == 2
        assert "one value per objective" in err

    @pytest.mark.parametrize("flag, value", [("--point", "nan,0"), ("--point", "3,-inf"),
                                             ("--thresholds", "nan"), ("--thresholds", "inf")])
    def test_non_finite_values_exit_2(self, ws, capsys, flag, value):
        code, out, err = run(capsys, "check", ws.model, "--query", ws.query(), flag, value)
        assert code == 2
        assert out == "" and err.startswith("error: ") and "finite" in err

    @pytest.mark.parametrize("flag, value", [("--point", "1,,2"), ("--point", "3.5,-1,"),
                                             ("--point", ","), ("--thresholds", " ,0")])
    def test_empty_entry_exits_2(self, ws, capsys, flag, value):
        code, out, err = run(capsys, "check", ws.model, "--query", ws.query(), flag, value)
        assert code == 2
        assert out == "" and err.startswith(f"error: invalid {flag}")

    def test_blank_thresholds_are_the_empty_list(self, ws, capsys):
        q = ws.query(objectives=[{"kind": "lra", "direction": "max", "reward": "R1"}])
        code, out, _ = run(capsys, "check", ws.model, "--query", q, "--thresholds", "")
        assert code == 0
        assert json.loads(out)["query"]["thresholds"] == []

    def test_thresholds(self, ws, capsys):
        code, out, _ = run(capsys, "check", ws.model, "--query", ws.query(),
                           "--thresholds", "0")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "quantitative"
        assert doc["lower"] <= 3.0 <= doc["upper"]
        assert doc["upper"] - doc["lower"] <= 1e-4

    def test_point_and_thresholds_exclude_each_other(self, ws, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", ws.model, "--query", ws.query(), "--point", "3.5,-1",
                  "--thresholds", "0"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == "" and "not allowed with argument" in out.err

    def test_query_file_alone_suffices(self, ws, capsys):
        q = ws.query(kind="achievability", point=[3.0, 0.0])
        code, out, _ = run(capsys, "check", ws.model, "--query", q)
        assert code == 0
        assert json.loads(out)["verdict"] == "yes"

    def test_needs_a_decidable_query(self, ws, capsys):
        code, _, err = run(capsys, "check", ws.model, "--query", ws.query())
        assert code == 2
        assert "--point" in err

    @pytest.mark.parametrize("flag, value", [("--point", "2.9,0.9"), ("--thresholds", "0.5")])
    def test_exhausted_budget_exits_1_with_result(self, ws, capsys, flag, value):
        out = ws.dir / "check.json"
        code, _, _ = run(capsys, "check", ws.model, "--query", ws.query(), flag, value,
                         "--max-iterations", "1", "--precision", "1e-12",
                         "--output", str(out))
        assert code == 1
        doc = json.loads(out.read_text())
        if flag == "--point":
            assert doc["verdict"] == "unknown"
        else:
            assert doc["exhausted"]


class TestPareto:
    def test_stdout_result(self, ws, capsys):
        code, out, _ = run(capsys, "pareto", ws.model, "--query", ws.query())
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "pareto"
        assert len(doc["vertices"]) == 2
        assert not doc["exhausted"]

    def test_output_file_and_determinism(self, ws, capsys):
        out1 = ws.dir / "r1.json"
        out2 = ws.dir / "r2.json"
        code, out, _ = run(capsys, "pareto", ws.model, "--query", ws.query(),
                           "--output", str(out1), "--strategies")
        assert code == 0
        assert out == ""
        code, _, _ = run(capsys, "pareto", ws.model, "--query", ws.query(),
                         "--output", str(out2), "--strategies")
        assert code == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_plot_file(self, ws, capsys):
        plot = ws.dir / "front.csv"
        code, _, _ = run(capsys, "pareto", ws.model, "--query", ws.query(),
                         "--plot", str(plot))
        assert code == 0
        lines = plot.read_text().strip().split("\n")
        assert lines[0] == "coord_1,coord_2,kind"
        assert any(line.endswith("vertex") for line in lines[1:])

    def test_refused_plot_writes_neither_file(self, ws, capsys):
        plot, result = ws.dir / "front.csv", ws.dir / "result.json"
        query = ws.query(objectives=[{"kind": "lra", "direction": "max", "reward": "R1"}])
        code, out, err = run(capsys, "pareto", ws.model, "--query", query,
                             "--plot", str(plot), "--output", str(result))
        assert code == 2 and out == ""
        assert "exactly 2 objectives" in err
        assert not plot.exists() and not result.exists()

    def test_unwritable_output(self, ws, capsys):
        target = ws.dir / "missing" / "result.json"
        code, out, err = run(capsys, "pareto", ws.model, "--query", ws.query(),
                             "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")

    def test_unwritable_output_leaves_no_plot(self, ws, capsys):
        plot, target = ws.dir / "front.csv", ws.dir / "missing" / "result.json"
        code, out, err = run(capsys, "pareto", ws.model, "--query", ws.query(),
                             "--plot", str(plot), "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write {target}: ")
        assert not plot.exists()

    def test_unwritable_plot(self, ws, capsys):
        # the plot is written before the result, so exit 2 leaves no result
        target, result = ws.dir / "missing" / "front.csv", ws.dir / "result.json"
        code, _, err = run(capsys, "pareto", ws.model, "--query", ws.query(),
                           "--output", str(result), "--plot", str(target))
        assert code == 2
        assert f"error: cannot write {target}: " in err
        assert not result.exists()

    def test_timings_embedded_on_request(self, ws, capsys):
        code, out, _ = run(capsys, "pareto", ws.model, "--query", ws.query())
        assert "timings" not in json.loads(out)
        code, out, _ = run(capsys, "pareto", ws.model, "--query", ws.query(),
                           "--timings")
        assert "wall_s" in json.loads(out)["timings"]

    def test_wall_time_goes_to_stderr(self, ws, capsys):
        _, out, err = run(capsys, "pareto", ws.model, "--query", ws.query())
        assert "wall time" in err
        assert "wall time" not in out

    def test_exhausted_budget_exits_1(self, ws, capsys):
        code, out, _ = run(capsys, "pareto", ws.model, "--query", ws.query(),
                           "--max-iterations", "1")
        assert code == 1
        assert json.loads(out)["exhausted"]

    def test_precision_override_is_echoed(self, ws, capsys):
        code, out, _ = run(capsys, "pareto", ws.model, "--query", ws.query(),
                           "--precision", "0.01")
        assert code == 0
        assert json.loads(out)["query"]["precision"] == 0.01

    def test_assumption_violation_exits_2(self, ws, capsys):
        model, query = divergent_totals(ws)
        code, _, err = run(capsys, "pareto", model, "--query", query)
        assert code == 2
        assert "assumptions" in err

    def test_time_limit_is_echoed(self, ws, capsys):
        code, out, _ = run(capsys, "pareto", ws.model, "--query", ws.query(),
                           "--time-limit", "100")
        assert code == 0
        assert '"time_limit": 100\n' in out


# (query field, command-line value, file value): each out of its range
BAD_BUDGETS = [("precision", "nan", float("nan")), ("precision", "inf", float("inf")),
               ("precision", "0", 0.0), ("precision", "-1", -1.0),
               ("max_iterations", "0", 0), ("time_limit", "0", 0.0),
               ("time_limit", "nan", float("nan"))]


class TestBudgetRange:
    """A budget out of range is an input error, whether it comes from a flag
    or from the query file: exit 2 and no result."""

    @pytest.mark.parametrize("command", [["pareto"], ["check", "--point", "3,0"], ["single"]])
    @pytest.mark.parametrize("field, flag_value, file_value", BAD_BUDGETS)
    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_exits_2(self, ws, capsys, command, field, flag_value, file_value, source):
        if source == "flag":
            extra = ["--" + field.replace("_", "-"), flag_value]
            query = ws.query()
        else:
            extra = []
            query = ws.dir / "budget.json"  # json.dumps writes NaN and Infinity
            query.write_text(json.dumps(json.loads(Path(ws.query()).read_text())
                                        | {field: file_value}), encoding="utf-8")
        out = ws.dir / "result.json"
        code, _, err = run(capsys, command[0], ws.model, "--query", str(query), *command[1:],
                           *extra, "--output", str(out))
        assert code == 2
        assert err.startswith(f"error: {field} must be")
        assert not out.exists()


def _broken(doc: dict, path: str, value) -> dict:
    """A copy of doc with the entry at path ("rewards.0.states") set to value."""
    doc = json.loads(json.dumps(doc))
    *keys, last = [int(k) if k.isdigit() else k for k in path.split(".")]
    at = doc
    for k in keys:
        at = at[k]
    at[last] = value
    return doc


class TestMalformedDocuments:
    """A record of the wrong JSON type is an input error that names the
    record, not a traceback."""

    @pytest.mark.parametrize("path, value, message", [
        ("states.0", "oops", "states[0]: expected a JSON object"),
        ("states.2.actions.1", ["s1"], "state 's3' actions[1]: expected a JSON object"),
        ("initial", ["s3"], "unknown initial state"),
        ("rewards", {"a": 1}, "rewards must be a list"),
        ("rewards.0", 1, "rewards[0]: expected a JSON object"),
        ("rewards.0.states", [1], "reward 'R1' states: expected a JSON object"),
        ("rewards.0.transitions", {"from": "s3"}, "reward 'R1': transitions must be a list"),
        ("rewards.0.transitions.0", 1, "reward 'R1' transitions[0]: expected a JSON object"),
        ("rewards.0.transitions.0.from", ["s3"], "unknown state"),
        ("rewards.0.transitions.0.to", {"s1": 1}, "unknown state"),
    ])
    def test_model(self, ws, capsys, path, value, message):
        bad = ws.dir / "bad.json"
        doc = json.loads((ws.dir / "model.json").read_text())
        bad.write_text(json.dumps(_broken(doc, path, value)), encoding="utf-8")
        code, _, err = run(capsys, "validate", str(bad))
        assert code == 2
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("path, value, message", [
        ("objectives.0", "x", "objective: expected a JSON object"),
        ("objectives.0.reward", ["R1"], "unknown reward"),
        ("objectives.1", {"kind": "reach", "goal": [["s4"]]}, "unknown state"),
    ])
    def test_query(self, ws, capsys, path, value, message):
        bad = ws.dir / "bad-query.json"
        bad.write_text(json.dumps(_broken(json.loads(Path(ws.query()).read_text()), path, value)),
                       encoding="utf-8")
        code, _, err = run(capsys, "pareto", ws.model, "--query", str(bad))
        assert code == 2
        assert err.startswith("error: ") and message in err


class TestQhullFailure:
    """A Qhull failure on a 2- or 3-objective front is a solver failure:
    exit 1 with "solver gave up", not a traceback."""

    @pytest.fixture
    def flat(self, monkeypatch):
        import scipy.spatial

        def flat(*args, **kwargs):
            raise scipy.spatial.QhullError("QH6154 Qhull precision error: initial simplex is flat")
        monkeypatch.setattr(scipy.spatial, "ConvexHull", flat)

    @pytest.fixture
    def menu3(self, tmp_path, flat):
        doc, objectives = menu_doc(np.random.default_rng(7115), 6, 3, ("max", "max", "min"))
        model, query = tmp_path / "menu3.json", tmp_path / "menu3-query.json"
        model.write_text(dumps(doc), encoding="utf-8")
        query.write_text(dumps({"format": "moma-query", "version": 1, "kind": "pareto",
                                "objectives": objectives, "precision": 1e-3}), encoding="utf-8")
        return str(model), str(query)

    @pytest.mark.parametrize("extra", [[], ["--point", "5.2,5.9,5.06"],
                                       ["--thresholds", "5.9,5.06"]])
    def test_exits_1(self, menu3, capsys, extra):
        model, query = menu3
        code, out, err = run(capsys, "check" if extra else "pareto", model, "--query", query, *extra)
        assert code == 1
        assert out == ""
        assert "solver gave up: Qhull failed on the 3-D hull of" in err

    def test_failed_add_exits_1(self, no_add, tmp_path, capsys):
        doc, objectives = menu_doc(np.random.default_rng(7115), 6, 3, ("max", "max", "min"))
        m = parse_model(doc)
        query = {"format": "moma-query", "version": 1, "kind": "pareto",
                 "objectives": objectives, "precision": 1e-3}
        pq = parse_query(query, m)
        with pytest.raises(SolverError, match=r"3-D hull of \d+ distinct points: QH6271"):
            answer_query(m, pq.objectives, pq.query)
        model, path = tmp_path / "menu3.json", tmp_path / "menu3-query.json"
        model.write_text(dumps(doc), encoding="utf-8")
        path.write_text(dumps(query), encoding="utf-8")
        code, out, err = run(capsys, "pareto", str(model), "--query", str(path))
        assert code == 1
        assert out == ""
        assert "solver gave up: Qhull failed on the 3-D hull of" in err and "QH6271" in err

    def test_two_objectives_exit_1(self, flat, capsys):
        code, out, err = run(capsys, "pareto", corpus_path("fig1.json"),
                             "--query", corpus_path("fig1-pareto.json"))
        assert code == 1
        assert out == ""
        assert "solver gave up: Qhull failed on the 2-D hull of" in err
