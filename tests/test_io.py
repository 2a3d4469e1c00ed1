import json
from itertools import combinations

import numpy as np
import pytest

from moma import (MarkovAutomaton, ModelError, ParetoQuery, answer_query, dumps,
                  parse_model, parse_query, plot_csv, result_document, serialize_model)
from moma.model import flat
from moma.modelio import query_echo

from gen import choices, layered_ma, menu_doc, random_ma, random_mdp


def parse_query_doc(extra=None, kind="pareto"):
    doc = {"format": "moma-query", "version": 1, "kind": kind,
           "objectives": [{"kind": "lra", "direction": "max", "reward": "R1"},
                          {"kind": "total", "direction": "max", "reward": "R2"}]}
    doc.update(extra or {})
    return doc


class TestDumps:
    def test_float_rendering(self):
        assert dumps(1.0) == "1\n"
        assert dumps(0.1) == "0.10000000000000001\n"
        assert dumps(-0.0) == "-0\n"
        assert dumps(float("-inf")) == '"-inf"\n'
        assert dumps(float("inf")) == '"inf"\n'

    def test_seventeen_digits_round_trip(self):
        rng = np.random.default_rng(7)
        for x in list(rng.uniform(-1e6, 1e6, 50)) + [1e308, 5e-324, 2.0 / 3.0]:
            rendered = dumps(float(x)).strip()
            assert float(rendered) == float(x)

    def test_structure(self):
        doc = {"b": [1, 2.5, "x"], "a": {"nested": None, "t": True}, "e": [], "m": {}}
        text = dumps(doc)
        assert json.loads(text) == doc
        # insertion order is preserved, not sorted
        assert text.index('"b"') < text.index('"a"')
        assert text.endswith("\n")

    def test_deterministic(self):
        doc = {"x": [0.1 + 0.2, 1e-9], "y": "text"}
        assert dumps(doc) == dumps(doc)

    def test_rejects_unknown_types(self):
        with pytest.raises(ModelError):
            dumps({"x": object()})
        with pytest.raises(ModelError):
            dumps([1.0, np.bool_(True)])

    def test_scalar_list_is_its_rendered_entries(self):
        scalars = [None, True, False, 0, -7, np.int64(3), 0.1, -0.0, np.float64(2.5),
                   np.float32(0.1), float("inf"), float("-inf"), float("nan"), "a\"b\n", ""]
        rng = np.random.default_rng(11)
        for _ in range(20):
            items = [scalars[i] for i in rng.integers(0, len(scalars), 6)]
            for seq in (items, tuple(items)):
                assert dumps(seq) == "[" + ", ".join(dumps(x)[:-1] for x in items) + "]\n"
        floats = rng.normal(size=8) * 10.0 ** rng.integers(-300, 300, 8)
        assert dumps(floats) == "[" + ", ".join(dumps(float(x))[:-1] for x in floats) + "]\n"


class TestModelRoundTrip:
    def test_fig1(self, fig1):
        doc = serialize_model(fig1)
        again = parse_model(doc)
        assert serialize_model(again) == doc
        assert again.n_states == fig1.n_states
        assert again.rates == fig1.rates
        assert again.initial == fig1.initial
        assert again.state_names == fig1.state_names
        assert set(again.rewards) == set(fig1.rewards)
        for name, r in fig1.rewards.items():
            assert dict(again.rewards[name].state_rewards) == dict(r.state_rewards)
            assert dict(again.rewards[name].transition_rewards) == dict(r.transition_rewards)

    def test_random_models(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = random_ma(rng)
            doc = serialize_model(m)
            again = parse_model(doc)
            assert serialize_model(again) == doc
            assert again.n_states == m.n_states
            assert [sorted(c) for row in choices(again) for c in row] == \
                   [sorted(c) for row in choices(m) for c in row]

    def test_json_text_round_trip(self, fig1):
        text = dumps(serialize_model(fig1))
        again = parse_model(json.loads(text))
        assert dumps(serialize_model(again)) == text

    def test_mdp_kind(self):
        doc = {"format": "moma-model", "version": 1, "kind": "mdp", "initial": "s0",
               "states": [{"name": "s0",
                           "actions": [{"name": "a", "transitions": {"s0": 1.0}}]}]}
        m = parse_model(doc)
        assert not m.markovian_states()
        assert serialize_model(m)["kind"] == "mdp"


class TestParseBuildsArrays:
    """parse_model fills the arrays the tuple constructor would build from
    the same document: same values and dtypes, names and reward entries."""

    def models(self):
        rng = np.random.default_rng(13)
        yield from (random_ma(rng) for _ in range(10))
        yield from (random_mdp(rng) for _ in range(10))
        yield layered_ma(rng, n=2000)[0]
        yield parse_model(menu_doc(rng, 4, 3, ["max", "min"])[0])

    def test_matches_tuple_constructor(self):
        for m in self.models():
            got = parse_model(serialize_model(m))
            # the document lists each distribution by successor
            want = MarkovAutomaton(m.rates, [[tuple(sorted(d)) for d in row] for row in choices(m)],
                                   m.initial, m.state_names, m.action_names)
            for f in ("ptr", "edge_ptr", "succ", "prob", "markovian", "rates"):
                a, b = getattr(flat(got), f), getattr(flat(want), f)
                assert a.dtype == b.dtype and np.array_equal(a, b), f
            assert (got.initial, got.state_names, got.action_names) == \
                   (want.initial, want.state_names, want.action_names)
            assert got.rewards.keys() == m.rewards.keys()
            for name, r in m.rewards.items():
                assert dict(got.rewards[name].state_rewards) == dict(r.state_rewards)
                assert dict(got.rewards[name].transition_rewards) == dict(r.transition_rewards)


class TestParseModelErrors:
    def base(self):
        return {"format": "moma-model", "version": 1, "kind": "ma", "initial": "s0",
                "states": [{"name": "s0", "rate": 1.0, "transitions": {"s0": 1.0}}]}

    def test_wrong_format(self):
        with pytest.raises(ModelError, match="format"):
            parse_model({"format": "nope", "version": 1})

    def test_wrong_version(self):
        doc = self.base()
        doc["version"] = 99
        with pytest.raises(ModelError, match="version"):
            parse_model(doc)

    def test_unknown_kind(self):
        doc = self.base()
        doc["kind"] = "ctmc"
        with pytest.raises(ModelError, match="kind"):
            parse_model(doc)

    def test_duplicate_state(self):
        doc = self.base()
        doc["states"].append(dict(doc["states"][0]))
        with pytest.raises(ModelError, match="duplicate state"):
            parse_model(doc)

    def test_rate_and_actions(self):
        doc = self.base()
        doc["states"][0]["actions"] = [{"transitions": {"s0": 1.0}}]
        with pytest.raises(ModelError, match="not both"):
            parse_model(doc)

    def test_unknown_successor(self):
        doc = self.base()
        doc["states"][0]["transitions"] = {"ghost": 1.0}
        with pytest.raises(ModelError, match="unknown successor"):
            parse_model(doc)

    def test_unknown_initial(self):
        doc = self.base()
        doc["initial"] = "ghost"
        with pytest.raises(ModelError, match="initial"):
            parse_model(doc)

    def test_mdp_state_with_rate(self):
        doc = self.base()
        doc["kind"] = "mdp"
        with pytest.raises(ModelError, match="rate"):
            parse_model(doc)

    def test_duplicate_action_name(self):
        doc = {"format": "moma-model", "version": 1, "kind": "mdp", "initial": "s0",
               "states": [{"name": "s0", "actions": [
                   {"name": "a", "transitions": {"s0": 1.0}},
                   {"name": "a", "transitions": {"s0": 1.0}}]}]}
        with pytest.raises(ModelError, match="duplicate action"):
            parse_model(doc)

    def test_reward_unknown_state(self):
        doc = self.base()
        doc["rewards"] = [{"name": "r", "states": {"ghost": 1.0}}]
        with pytest.raises(ModelError, match="unknown state"):
            parse_model(doc)

    def test_reward_on_missing_transition(self):
        doc = self.base()
        doc["states"].append({"name": "s1", "rate": 1.0, "transitions": {"s0": 1.0}})
        doc["rewards"] = [{"name": "r", "transitions": [
            {"from": "s0", "action": None, "to": "s1", "value": 1.0}]}]
        with pytest.raises(ModelError, match="does not exist"):
            parse_model(doc)

    def test_duplicate_transition_reward(self):
        doc = self.base()
        doc["rewards"] = [{"name": "r", "transitions": [
            {"from": "s0", "action": None, "to": "s0", "value": 1.0},
            {"from": "s0", "action": None, "to": "s0", "value": 2.0}]}]
        with pytest.raises(ModelError, match="duplicate transition"):
            parse_model(doc)

    def test_probabilistic_reward_needs_action(self):
        doc = {"format": "moma-model", "version": 1, "kind": "mdp", "initial": "s0",
               "states": [{"name": "s0", "actions": [
                   {"name": "a", "transitions": {"s0": 1.0}}]}],
               "rewards": [{"name": "r", "transitions": [
                   {"from": "s0", "action": None, "to": "s0", "value": 1.0}]}]}
        with pytest.raises(ModelError, match="action"):
            parse_model(doc)

    MDP_STATE = {"name": "s1", "actions": [{"name": "a", "transitions": {"s0": 1.0}}]}

    @pytest.mark.parametrize("change, match", [
        (lambda d: d["states"][0].update(rate=[1.0]), r"state 's0' rate: expected a number$"),
        (lambda d: d["states"][0].update(rate=True), r"state 's0' rate: expected a number$"),
        (lambda d: d["states"][0].update(rate="fast"), r"expected a number, got 'fast'"),
        (lambda d: d.update(states=[]), "nonempty list of states"),
        (lambda d: d["states"][0].pop("name"), "every state needs a nonempty name"),
        (lambda d: d["states"][0].update(name=""), "every state needs a nonempty name"),
        (lambda d: d["states"][0].update(transitions={}), "transitions must be a nonempty map"),
        (lambda d: d["states"].append({"name": "s1", "actions": []}),
         "state 's1': actions must be a nonempty list"),
        (lambda d: d.update(rewards=[{"states": {"s0": 1.0}}]),
         "every reward block needs a nonempty name"),
        (lambda d: d.update(rewards=[{"name": "r"}, {"name": "r"}]), "duplicate reward name 'r'"),
        (lambda d: (d["states"].append(TestParseModelErrors.MDP_STATE),
                    d.update(rewards=[{"name": "r", "transitions": [
                        {"from": "s1", "action": "b", "to": "s0", "value": 1.0}]}])),
         "unknown action 'b'"),
    ], ids=["rate-list", "rate-bool", "rate-string", "no-states", "unnamed-state",
            "empty-name", "empty-transitions", "empty-actions", "unnamed-reward",
            "duplicate-reward", "unknown-reward-action"])
    def test_rejected(self, change, match):
        doc = self.base()
        change(doc)
        with pytest.raises(ModelError, match=match):
            parse_model(doc)

    @pytest.mark.parametrize("doc", [[], "moma-model", None])
    def test_header_needs_an_object(self, doc):
        with pytest.raises(ModelError, match="expected a JSON object with format 'moma-model'"):
            parse_model(doc)

    def test_tagged_infinity_accepted_as_number(self):
        doc = self.base()
        doc["rewards"] = [{"name": "r", "states": {"s0": "-inf"}}]
        m = parse_model(doc)
        assert m.rewards["r"].state_rewards.get(0, 0.0) == float("-inf")


class TestParseQuery:
    def test_defaults(self, fig1):
        pq = parse_query(parse_query_doc(), fig1)
        assert pq.kind == "pareto"
        assert pq.query.precision == 1e-4
        assert pq.query.max_iterations == 200
        assert pq.query.time_limit is None
        assert pq.strategies is False
        assert [o.kind for o in pq.objectives] == ["lra", "total"]

    @pytest.mark.parametrize("value", ["no", "yes", 0, 1, None, [], {}])
    def test_strategies_must_be_boolean(self, fig1, value):
        # "no" must not turn strategies on, nor 1 stand for true
        with pytest.raises(ModelError, match="strategies must be true or false"):
            parse_query(parse_query_doc({"strategies": value}), fig1)

    def test_achievability_point(self, fig1):
        pq = parse_query(parse_query_doc({"point": [3.5, -1.0]}, "achievability"), fig1)
        assert list(pq.query.point) == [3.5, -1.0]

    def test_achievability_needs_matching_point(self, fig1):
        # parse_query reads a list of numbers; answer_query matches it to the objectives
        with pytest.raises(ModelError, match="point"):
            parse_query(parse_query_doc({"point": 1.0}, "achievability"), fig1)
        pq = parse_query(parse_query_doc({"point": [1.0]}, "achievability"), fig1)
        with pytest.raises(ModelError, match="point"):
            answer_query(fig1, pq.objectives, pq.query)

    def test_quantitative_thresholds(self, fig1):
        pq = parse_query(parse_query_doc({"thresholds": [0.0]}, "quantitative"), fig1)
        assert list(pq.query.thresholds) == [0.0]

    def test_quantitative_threshold_count(self, fig1):
        with pytest.raises(ModelError, match="thresholds"):
            parse_query(parse_query_doc({"thresholds": {}}, "quantitative"), fig1)
        pq = parse_query(parse_query_doc({"thresholds": []}, "quantitative"), fig1)
        with pytest.raises(ModelError, match="threshold"):
            answer_query(fig1, pq.objectives, pq.query)

    def test_unknown_kind(self, fig1):
        with pytest.raises(ModelError, match="query kind"):
            parse_query(parse_query_doc(kind="optimize"), fig1)

    def test_unknown_reward(self, fig1):
        doc = parse_query_doc()
        doc["objectives"][0]["reward"] = "ghost"
        with pytest.raises(ModelError, match="unknown reward"):
            parse_query(doc, fig1)

    def test_reach_goal_names(self, fig1):
        doc = parse_query_doc()
        doc["objectives"] = [{"kind": "reach", "direction": "max", "goal": ["s4"]}]
        pq = parse_query(doc, fig1)
        assert pq.objectives[0].goal == frozenset({fig1.state_names.index("s4")})

    @pytest.mark.parametrize("objectives", [[], None, {}])
    def test_needs_objectives(self, fig1, objectives):
        with pytest.raises(ModelError, match="nonempty list of objectives"):
            parse_query(parse_query_doc({"objectives": objectives}), fig1)

    @pytest.mark.parametrize("goal", [[], None, "s4"])
    def test_reach_needs_goal_list(self, fig1, goal):
        doc = parse_query_doc({"objectives": [{"kind": "reach", "goal": goal}]})
        with pytest.raises(ModelError, match="nonempty goal list"):
            parse_query(doc, fig1)

    def test_bad_max_iterations(self, fig1):
        with pytest.raises(ModelError, match="max_iterations"):
            parse_query(parse_query_doc({"max_iterations": 0}), fig1)

    def test_echo_round_trip(self, fig1):
        doc = parse_query_doc({"precision": 1e-3, "strategies": True})
        pq = parse_query(doc, fig1)
        echo = query_echo(pq, fig1)
        assert echo["kind"] == "pareto"
        assert echo["precision"] == 1e-3
        assert echo["objectives"][0] == {"kind": "lra", "direction": "max",
                                         "reward": "R1"}


class TestResultDocument:
    def run_fig1(self, fig1, fig1_objectives, strategies=False):
        res = answer_query(fig1, fig1_objectives, ParetoQuery())
        pq = parse_query(parse_query_doc(), fig1)
        return result_document(res, query_echo(pq, fig1), strategies=strategies)

    def test_key_order(self, fig1, fig1_objectives):
        doc = self.run_fig1(fig1, fig1_objectives)
        assert list(doc) == ["format", "version", "kind", "query", "vertices",
                             "facets", "halfspaces", "precision_achieved",
                             "exhausted", "statistics"]
        assert doc["format"] == "moma-result" and doc["version"] == 1
        assert len(doc["statistics"]["refinements"]) == doc["statistics"]["iterations"]

    def test_strategies_use_names(self, fig1, fig1_objectives):
        doc = self.run_fig1(fig1, fig1_objectives, strategies=True)
        strategies = doc["witness"]["strategies"]
        assert len(strategies) == 2
        # only probabilistic states appear, keyed by state and action names
        assert all(set(s) == {"s3", "s4"} for s in strategies)
        assert {s["s3"] for s in strategies} == {"alpha", "beta"}

    def test_warnings_key_order(self, fig1, fig1_objectives):
        # warnings follow the answer fields and precede the statistics
        res = answer_query(fig1, fig1_objectives, ParetoQuery())
        res.warnings = ["first", "second"]
        doc = result_document(res, query_echo(parse_query(parse_query_doc(), fig1), fig1))
        assert list(doc) == ["format", "version", "kind", "query", "vertices",
                             "facets", "halfspaces", "precision_achieved",
                             "exhausted", "warnings", "statistics"]
        assert doc["warnings"] == ["first", "second"]

    def test_timings_only_when_requested(self, fig1, fig1_objectives):
        # the command line adds them under --timings (tests/test_cli.py)
        assert "timings" not in self.run_fig1(fig1, fig1_objectives)

    def test_byte_identical_reruns(self, fig1, fig1_objectives):
        a = dumps(self.run_fig1(fig1, fig1_objectives, strategies=True))
        b = dumps(self.run_fig1(fig1, fig1_objectives, strategies=True))
        assert a == b

    def test_achievability_document(self, fig1, fig1_objectives):
        from moma import AchievabilityQuery
        res = answer_query(fig1, fig1_objectives, AchievabilityQuery(point=(3.5, -1.0)))
        doc = result_document(res, {"kind": "achievability"}, strategies=True)
        assert doc["verdict"] == "yes"
        parts = doc["witness"]["mixture"]
        assert all(set(p) == {"weight", "point", "strategy"} for p in parts)


def ref_plot_csv(res) -> str:
    """Loop reference for `modelio.plot_csv` on a 2-objective pareto result:
    each pair of halfspaces, in order, meets at a corner unless their
    normals are parallel (|det| < 1e-12); a corner within 1e-9 (relative,
    floor 1) of every halfspace is kept, rounded to 9 digits in the user's
    orientation, and the distinct corners follow the vertices in sorted
    order."""
    hs = res.state.halfspaces
    corners = []
    for h1, h2 in combinations(hs, 2):
        a, b = np.array([h1.normal, h2.normal]), np.array([h1.offset, h2.offset])
        if abs(np.linalg.det(a)) < 1e-12:
            continue
        x = np.linalg.solve(a, b)
        if all(float(np.dot(h.normal, x)) <= h.offset + 1e-9 * max(1.0, abs(h.offset))
               for h in hs):
            corners.append(tuple(np.round(x * res.problem.flips, 9)))
    rows = [(v[0], v[1], "vertex") for v in res.vertices or []]
    rows += [(float(c[0]), float(c[1]), "q_boundary") for c in sorted(set(corners))]
    return "coord_1,coord_2,kind\n" + "".join(f"{format(x, '.17g')},{format(y, '.17g')},{kind}\n"
                                              for x, y, kind in rows)


class TestPlotCsv:
    @staticmethod
    def result(normals, offsets, flips):
        from types import SimpleNamespace

        from moma import ApproximationState, WeightedSolution
        from moma.pareto import QueryResult
        state = ApproximationState(2)
        for n, off in zip(normals, offsets):
            state.add(WeightedSolution(np.asarray(n, dtype=float), float(off), np.zeros(2), {},
                                       0.0, []))
        return QueryResult(kind="pareto", objectives=[], vertices=[[0.5, -1.0], [1.0, 0.0]],
                           state=state, problem=SimpleNamespace(flips=np.asarray(flips)))

    def test_matches_loop(self):
        rng = np.random.default_rng(8500)
        kept = []
        for trial in range(28):
            # tangents to the downward hull of a few points, some lifted: an
            # outer approximation like a pareto query's
            h = int(rng.integers(2, 30))
            w = rng.uniform(0.0, 1.0, h)
            w[rng.random(h) < 0.2] = rng.choice([0.0, 1.0])
            normals = np.column_stack([w, 1.0 - w])
            offsets = (normals @ rng.uniform(-3.0, 3.0, (2, 5))).max(axis=1)
            offsets += rng.uniform(0.0, 0.5, h) * (trial % 2)
            # parallel pairs: a repeated normal (det 0) and one 1e-13 apart
            normals = np.vstack([normals, normals[0], normals[-1] + [1e-13, -1e-13]])
            offsets = np.append(offsets, offsets[[0, -1]] + 1.0)
            # a cut through the corner of the first two halfspaces, at the
            # 1e-9 tolerance to a few ulps either way
            x = np.linalg.solve(normals[:2], offsets[:2]) if w[0] != w[1] else np.zeros(2)
            n = rng.dirichlet([1.0, 1.0])
            dot = float(np.dot(n, x))
            cut = dot - 1e-9 * max(1.0, abs(dot))
            normals = np.vstack([normals, n])
            offsets = np.append(offsets, cut + (trial % 7 - 3) * np.spacing(cut))
            for flips in ([1.0, 1.0], [1.0, -1.0], [-1.0, 1.0]):
                res = self.result(normals, offsets, flips)
                text = plot_csv(res)
                assert text == ref_plot_csv(res)
            kept.append(",".join(format(v, ".17g") for v in np.round(x * flips, 9)) in text)
        assert any(kept) and not all(kept)

    def test_one_halfspace_has_no_corner(self):
        res = self.result([[0.5, 0.5]], [1.0], [1.0, 1.0])
        assert plot_csv(res) == "coord_1,coord_2,kind\n0.5,-1,vertex\n1,0,vertex\n"

    def test_fig1(self, fig1, fig1_objectives):
        res = answer_query(fig1, fig1_objectives, ParetoQuery())
        text = plot_csv(res)
        lines = text.strip().split("\n")
        assert lines[0] == "coord_1,coord_2,kind"
        rows = [line.split(",") for line in lines[1:]]
        vertices = sorted((float(r[0]), float(r[1])) for r in rows if r[2] == "vertex")
        assert np.allclose(vertices, [(3.0, 0.0), (4.0, -2.0)], atol=1e-9)
        corners = [(float(r[0]), float(r[1])) for r in rows if r[2] == "q_boundary"]
        assert corners
        # the outer boundary passes within the slack of both vertices
        for v in vertices:
            assert any(abs(x - v[0]) + abs(y - v[1]) < 1e-3 for x, y in corners)

    def test_requires_pareto(self, fig1, fig1_objectives):
        from moma import AchievabilityQuery
        res = answer_query(fig1, fig1_objectives, AchievabilityQuery(point=(3.0, 0.0)))
        with pytest.raises(ModelError, match="pareto"):
            plot_csv(res)

    def test_requires_two_dimensions(self, fig1):
        from moma import Objective
        res = answer_query(fig1, [Objective("lra", "max", reward="R1")], ParetoQuery())
        with pytest.raises(ModelError, match="2 objectives"):
            plot_csv(res)
