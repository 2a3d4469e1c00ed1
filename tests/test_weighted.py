import math
from collections import Counter

import numpy as np
import pytest

import moma.components
import moma.pareto
import moma.weighted
from moma import (MarkovAutomaton, ModelError, Objective, ParetoQuery, RewardAssignment,
                  SolverError, answer_query, decode_quotient_strategy, evaluate_strategy,
                  normalize_query, optimize_weighted, parse_model, prepare_weighted,
                  validate_assumptions, weighted_reward_sum)
from moma.components import mec_decomposition, zero_mecs
from moma.model import check_total_rewards, flat
from moma.modelio import parse_objective
from moma.pareto import problem_statistics
from moma.solvers import total_zero_ecs

from gen import (brute_mecs, choices, dyadic_dist, layered_ma, menu_doc, near_one_dist,
                 oracle_points, random_lra_reward, random_ma, random_total_reward,
                 random_valid_instance, weighted_oracle)


def make_prep(m, objectives):
    return prepare_weighted(normalize_query(m, objectives))


@pytest.fixture
def searches(monkeypatch):
    """(model, choice_ok) of every end-component search, in call order."""
    calls = []
    for module in (moma.weighted, moma.components):
        def counted(m, choice_ok=None, search=module.mec_decomposition):
            calls.append((m, choice_ok))
            return search(m, choice_ok)
        monkeypatch.setattr(module, "mec_decomposition", counted)
    return calls


class TestNormalizeQuery:
    def test_requires_objectives(self, fig1):
        with pytest.raises(ModelError):
            normalize_query(fig1, [])

    def test_unknown_reward(self, fig1):
        with pytest.raises(ModelError):
            normalize_query(fig1, [Objective("lra", "max", reward="nope")])

    def test_min_becomes_negated_max(self, fig1):
        p = normalize_query(fig1, [Objective("total", "min", reward="R2")])
        assert p.flips.tolist() == [-1.0]
        o = p.objectives[0]
        assert o.direction == "max" and o.reward != "R2"
        neg = p.model.rewards[o.reward]
        assert neg.transition_rewards.get((2, 0, 0), 0.0) == 1.0
        assert p.original[0].direction == "min"

    def test_max_is_untouched(self, fig1, fig1_objectives):
        p = normalize_query(fig1, fig1_objectives)
        assert p.model is fig1
        assert p.flips.tolist() == [1.0, 1.0]
        assert p.objectives == fig1_objectives

    def test_reach_becomes_total(self, fig1):
        p = normalize_query(fig1, [Objective("reach", "max", goal=frozenset({4}))])
        assert p.objectives[0].kind == "total"
        assert p.model.origin is not None
        r = p.model.rewards[p.objectives[0].reward]
        pays = [(s, a, t) for (s, a, t), v in r.transition_rewards.items()
                if v == 1.0]
        assert pays and all(p.model.origin[t] == 4 for _, _, t in pays)

    def test_unreachable_goal_becomes_zero_total(self):
        # s2 is unreachable, so the product for the first goal drops it
        m = MarkovAutomaton([1.0, None, 1.0],
                            [[((1, 1.0),)], [((0, 1.0),), ((0, 1.0),)], [((0, 1.0),)]],
                            initial=0)
        objectives = [Objective("reach", goal=frozenset({1})),
                      Objective("reach", goal=frozenset({2}))]
        p = normalize_query(m, objectives)
        o = p.objectives[1]
        assert (o.kind, o.direction, o.reward) == ("total", "max", "reach(unreachable)")
        assert p.model.rewards[o.reward].is_zero
        res = answer_query(m, objectives, ParetoQuery())
        assert res.vertices == [[1.0, 0.0]]
        with pytest.raises(ModelError, match="goal state 9 out of range"):
            normalize_query(m, [Objective("reach", goal=frozenset({9}))])

    def test_mdp_is_embedded(self):
        mdp = MarkovAutomaton(
            [None, None],
            [[((1, 1.0),), ((0, 1.0),)], [((0, 1.0),)]],
            initial=0,
            rewards={"r": RewardAssignment("r", {}, {(0, 0, 1): 1.0})})
        p = normalize_query(mdp, [Objective("total", "max", reward="r")])
        assert p.model.markovian_states()
        assert p.model.origin is not None


class TestValidateAssumptions:
    def test_fig1_ok(self, fig1, fig1_objectives):
        assert validate_assumptions(normalize_query(fig1, fig1_objectives)).ok

    def test_zeno_component_rejected(self):
        # two probabilistic states cycling without time passing
        m = MarkovAutomaton(
            [None, None, 1.0],
            [[((1, 1.0),)], [((0, 1.0),), ((2, 1.0),)], [((2, 1.0),)]],
            initial=0, rewards={"r": RewardAssignment("r")})
        rep = validate_assumptions(normalize_query(
            m, [Objective("total", "max", reward="r")]))
        assert any(v.assumption == "NonZeno" for v in rep.violations)

    def test_zeno_subcomponent_rejected(self):
        # the probabilistic cycle is buried inside a larger mixed component
        m = MarkovAutomaton(
            [None, None, 1.0],
            [[((1, 1.0),)], [((0, 1.0),), ((2, 1.0),)], [((0, 1.0),)]],
            initial=0, rewards={"r": RewardAssignment("r")})
        rep = validate_assumptions(normalize_query(
            m, [Objective("total", "max", reward="r")]))
        assert any(v.assumption == "NonZeno" for v in rep.violations)

    def test_mixed_signs_in_component_rejected(self):
        m = MarkovAutomaton(
            [1.0, 1.0], [[((1, 1.0),)], [((0, 1.0),)]], initial=0,
            rewards={"r": RewardAssignment(
                "r", {}, {(0, 0, 1): 1.0, (1, 0, 0): -1.0})})
        rep = validate_assumptions(normalize_query(
            m, [Objective("total", "max", reward="r")]))
        assert any(v.assumption == "SignConsistency" for v in rep.violations)

    def test_positive_recurrent_reward_rejected(self):
        m = MarkovAutomaton(
            [1.0, 1.0], [[((1, 1.0),)], [((1, 1.0),)]], initial=0,
            rewards={"r": RewardAssignment("r", {1: 2.0}, {})})
        rep = validate_assumptions(normalize_query(
            m, [Objective("total", "max", reward="r")]))
        assert any(v.assumption == "Finiteness" for v in rep.violations)

    def test_infeasible_initial_rejected(self):
        # every end component carries reward, so no strategy stays finite
        m = MarkovAutomaton(
            [1.0, 1.0], [[((1, 1.0),)], [((1, 1.0),)]], initial=0,
            rewards={"r": RewardAssignment("r", {1: -2.0}, {})})
        rep = validate_assumptions(normalize_query(
            m, [Objective("total", "max", reward="r")]))
        assert any(v.assumption == "Finiteness" and "almost surely" in v.message
                   for v in rep.violations)

    def test_lra_only_needs_no_feasibility(self):
        m = MarkovAutomaton(
            [1.0, 1.0], [[((1, 1.0),)], [((1, 1.0),)]], initial=0,
            rewards={"r": RewardAssignment("r", {1: -2.0}, {})})
        assert validate_assumptions(normalize_query(
            m, [Objective("lra", "max", reward="r")])).ok

    @pytest.mark.parametrize("kinds", [("lra",), ("lra", "total")], ids=["lra", "lra+total"])
    def test_one_whole_model_search(self, fig1, searches, kinds):
        # the Zeno check, the sign and finiteness checks and the zero-ECs
        # all start from the one decomposition of the whole model
        objectives = [Objective(k, "max", reward=r) for k, r in zip(kinds, ("R1", "R2"))]
        p = normalize_query(fig1, objectives)
        assert validate_assumptions(p).ok
        prepare_weighted(p)
        assert [m for m, ok in searches if ok is None] == [p.model]
        assert all(ok is None or not (ok & ~p.mec_choices).any() for _, ok in searches)

    def test_total_reward_check_reads_only_totals(self):
        # so skipping it without a total objective leaves every report as it was
        rng = np.random.default_rng(84)
        reported = 0
        for _ in range(60):
            m = random_ma(rng, max_states=6)
            m = m.with_rewards({"L": random_lra_reward(rng, m, "L"),
                                "T": random_total_reward(rng, m, mec_decomposition(m), "T")})
            p = normalize_query(m, [Objective("lra", "max", reward="L")])
            assert not check_total_rewards(p.model, p.objectives,
                                           mec_decomposition(p.model)).violations
            reported += not validate_assumptions(p).ok
        assert reported > 0  # some draws are Zeno, and those reports stay too


class TestPrepareWeighted:
    def test_fig1(self, fig1, fig1_objectives):
        prep = make_prep(fig1, fig1_objectives)
        assert [c.members.tolist() for c in prep.problem.zero_ecs] == [[1, 3, 5], [4]]
        # both components are exit-free: each collapsed state offers bottom only
        q = prep.quot
        assert [choices(q.model)[qs] for qs in q.ec_states] == [(((q.bottom_state, 1.0),),)] * 2
        assert q.base_choice[flat(q.model).ptr[np.array(q.ec_states)]].tolist() == [-1, -1]
        assert len(prep.subs) == 2
        assert prep.subs[0].origin == (1, 3, 5)

    def test_zero_ecs_found_once_per_problem(self, fig1, fig1_objectives, searches):
        # validation finds them, and preparation reads the same list
        # without searching again
        p = normalize_query(fig1, fig1_objectives)
        assert validate_assumptions(p).ok
        before = len(searches)
        prep = prepare_weighted(p)
        assert len(searches) == before
        assert [ok is None for _, ok in searches].count(True) == 1
        assert [sub.origin for sub in prep.subs] == [tuple(c.members.tolist()) for c in p.zero_ecs]

    def test_no_whole_model_search_in_weighted_solves(self, searches, monkeypatch):
        # a layered query searches its model once; a weighted solve searches
        # its quotient only among the candidate choices of its preparation
        solves = []
        optimize = moma.pareto.optimize_weighted

        def solve(prep, *args):
            before = len(searches)
            out = optimize(prep, *args)
            solves.append((prep, searches[before:]))
            return out
        monkeypatch.setattr(moma.pareto, "optimize_weighted", solve)
        m, objectives = layered_ma(np.random.default_rng(9000), 2000)
        res = answer_query(m, objectives, ParetoQuery(1e-3))
        assert [m for m, ok in searches if ok is None] == [res.problem.model]
        assert len(solves) > 2
        for prep, inside in solves:
            assert all(m is prep.quot.model and ok is not None and not (ok & ~prep.candidates).any()
                       for m, ok in inside)


def as_arrays(comps):
    return [(c.members.tolist(), c.choices.tolist()) for c in comps]


def as_pairs(comps):
    return {(c.markovian_states, c.pairs) for c in comps}


class TestRestrictedSearches:
    """Every search that starts from the maximal end components finds what
    the same search over the whole model finds, members and choices: the
    Zeno search, the zero-ECs and the quotient's total_zero_ecs under
    random weight patterns.  Models small enough for subset enumeration
    are checked against gen.brute_mecs as well."""

    BRUTE_STATES = 10

    @staticmethod
    def check(p, rng, seen, patterns=4):
        """Compare every search of p, counting in `seen` the nonempty and the
        enumerated ones."""
        m = p.model
        fl = flat(m)
        small = m.n_states <= TestRestrictedSearches.BRUTE_STATES
        prob = ~fl.markovian[fl.choice_state]
        zeno = mec_decomposition(m, choice_ok=p.mec_choices & prob)
        assert as_arrays(zeno) == as_arrays(mec_decomposition(m, choice_ok=prob))
        totals = [m.rewards[o.reward] for o in p.objectives if o.kind == "total"]
        assert as_arrays(p.zero_ecs) == as_arrays(zero_mecs(m, totals))
        seen.update(zeno=bool(zeno), zero=p.zero_ecs is not p.mecs and bool(p.zero_ecs),
                    brute=small)
        if small:
            assert as_pairs(p.mecs) == brute_mecs(m)
            assert as_pairs(p.zero_ecs) == brute_mecs(m, totals)
        prep = prepare_weighted(p)
        q = prep.quot
        for o in p.objectives:
            m.rewards[o.reward].vectors(m)  # weighted_reward_sum reads placed rewards
        for _ in range(patterns):
            w = rng.integers(0, 3, size=p.dimension).astype(float)
            r = weighted_reward_sum("w", [(x, m.rewards[o.reward])
                                          for x, o in zip(w, p.objectives)])
            r = q.lift_reward(r, "w@q", bottom_values=rng.integers(0, 2, len(q.components)))
            got = total_zero_ecs(q.model, r, q.bottom_state, prep.candidates)
            assert as_arrays(got) == as_arrays(total_zero_ecs(q.model, r, q.bottom_state))
            seen.update(quotient=bool(got))
            if small and q.model.n_states <= TestRestrictedSearches.BRUTE_STATES:
                # the restricted search misses only the bottom state's own
                # component, which total_zero_ecs drops anyway
                want = {c for c in brute_mecs(q.model, [r]) if q.bottom_state not in c[0]}
                assert as_pairs(zero_mecs(q.model, [r], prep.candidates)) == want

    def test_random_models(self):
        # draws may be Zeno or sign-inconsistent: every search still agrees
        rng, seen = np.random.default_rng(31), Counter()
        for _ in range(60):
            m = random_ma(rng, max_states=7)
            m = m.with_rewards({"L": random_lra_reward(rng, m, "L"),
                                "T": random_total_reward(rng, m, mec_decomposition(m), "T")})
            self.check(normalize_query(m, [Objective("lra", "max", reward="L"),
                                           Objective("total", "max", reward="T")]), rng, seen)
        assert min(seen.values()) > 0

    @pytest.mark.parametrize("dist", [dyadic_dist, near_one_dist], ids=["dyadic", "near-one"])
    def test_valid_instances(self, dist):
        rng, seen = np.random.default_rng(32), Counter()
        for _ in range(40):
            m, objectives = random_valid_instance(rng, n_total=2, directions=True, dist=dist)
            self.check(normalize_query(m, objectives), rng, seen)
        assert seen["zero"] > 0 and seen["quotient"] > 0 and seen["brute"] > 0

    def test_menus(self):
        rng = np.random.default_rng(33)
        for seed in range(6):
            doc, objs = menu_doc(np.random.default_rng(seed), 4, 3, ("max", "min", "max"))
            m = parse_model(doc)
            self.check(normalize_query(m, [parse_objective(o, m) for o in objs]), rng, Counter())

    def test_layered(self):
        m, objectives = layered_ma(np.random.default_rng(9000), 2000)
        self.check(normalize_query(m, objectives), np.random.default_rng(34), Counter(),
                   patterns=6)


class TestOptimizeWeighted:
    @pytest.mark.parametrize("w,expect", [
        ((1.0, 0.0), 4.0),
        ((0.0, 1.0), 0.0),
        ((0.5, 0.5), 1.5),
        ((2.0 / 3.0, 1.0 / 3.0), 2.0),
    ])
    def test_fig1_values(self, fig1, fig1_objectives, w, expect):
        prep = make_prep(fig1, fig1_objectives)
        eps = 1e-6
        sol = optimize_weighted(prep, w, eps=eps)
        assert abs(sol.value - expect) <= eps * max(1.0, abs(expect))
        # the achieved point lower-bounds the certified optimum consistently
        achieved = float(np.dot(w, sol.point))
        assert achieved <= sol.value + 1e-12
        assert sol.value - achieved <= eps * max(1.0, abs(sol.value)) + 1e-12

    def test_fig1_extreme_points(self, fig1, fig1_objectives):
        prep = make_prep(fig1, fig1_objectives)
        sol_lra = optimize_weighted(prep, (1.0, 0.0))
        assert sol_lra.point == pytest.approx([4.0, -2.0], abs=1e-9)
        sol_tot = optimize_weighted(prep, (0.0, 1.0))
        assert sol_tot.point == pytest.approx([3.0, 0.0], abs=1e-9)

    def test_point_is_exact_strategy_value(self, fig1, fig1_objectives):
        prep = make_prep(fig1, fig1_objectives)
        sol = optimize_weighted(prep, (0.5, 0.5))
        again = evaluate_strategy(fig1, sol.strategy, fig1_objectives).values
        assert sol.point.tolist() == again

    def test_weight_validation(self, fig1, fig1_objectives):
        prep = make_prep(fig1, fig1_objectives)
        with pytest.raises(ModelError):
            optimize_weighted(prep, (1.0,))
        with pytest.raises(ModelError):
            optimize_weighted(prep, (1.0, -0.5))

    def test_zero_weight_ignores_nan_and_inf(self, fig1, fig1_objectives):
        # a weight 0 leaves its reward out of every sum, whatever it holds
        bad = RewardAssignment("bad", {s: math.nan for s in fig1.markovian_states()},
                               {(0, 0, t): math.inf for t, _ in choices(fig1)[0][0]})
        m = fig1.with_rewards({**fig1.rewards, "bad": bad})
        prep = make_prep(m, fig1_objectives + [Objective("lra", "max", reward="bad")])
        want = optimize_weighted(make_prep(fig1, fig1_objectives), (0.5, 0.5))
        got = optimize_weighted(prep, (0.5, 0.5, 0.0))
        assert got.value == want.value and got.strategy.tolist() == want.strategy.tolist()
        assert got.point[:2].tolist() == want.point.tolist()

    def test_zero_weight_totals_still_shape_components(self):
        # A cycle carrying reward only under the weight-0 total must not be
        # treated as reward-free: staying there would score 0 for the active
        # weights but drive the ignored objective to minus infinity.
        m = MarkovAutomaton(
            [None, 1.0, 1.0, 1.0],
            [[((1, 1.0),), ((3, 1.0),)],
             [((2, 1.0),)], [((0, 1.0),)], [((3, 1.0),)]],
            initial=0,
            rewards={
                "T1": RewardAssignment("T1", {}, {(0, 1, 3): -1.0}),
                "T2": RewardAssignment("T2", {1: -1.0}, {}),
            })
        objectives = [Objective("total", "max", reward="T1"),
                      Objective("total", "max", reward="T2")]
        p = normalize_query(m, objectives)
        assert validate_assumptions(p).ok
        prep = prepare_weighted(p)
        assert [c.members.tolist() for c in prep.problem.zero_ecs] == [[3]]
        sol = optimize_weighted(prep, (1.0, 0.0))
        assert np.isfinite(sol.point).all()
        assert sol.strategy[0] == 1
        assert sol.value == pytest.approx(-1.0, abs=1e-6)
        assert sol.point == pytest.approx([-1.0, 0.0], abs=1e-9)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(41)
        eps = 1e-6
        for _ in range(15):
            m, objectives = random_valid_instance(
                rng, n_lra=int(rng.integers(0, 2)), n_total=1, max_states=6)
            p, pts = oracle_points(m, objectives)
            prep = prepare_weighted(p)
            k = len(objectives)
            for _ in range(4):
                w = rng.random(k)
                s = w.sum()
                w = w / s if s > 0 else np.ones(k) / k
                sol = optimize_weighted(prep, w, eps=eps)
                best = weighted_oracle(pts, w)
                assert abs(sol.value - best) <= eps * max(1.0, abs(best))

    def test_consistency_invariant(self):
        rng = np.random.default_rng(42)
        eps = 1e-6
        for _ in range(10):
            m, objectives = random_valid_instance(rng, n_lra=1, n_total=1,
                                                  max_states=7)
            p = normalize_query(m, objectives)
            prep = prepare_weighted(p)
            for _ in range(3):
                w = rng.random(2)
                w /= w.sum()
                sol = optimize_weighted(prep, w, eps=eps)
                assert np.isfinite(sol.point).all()
                achieved = float(np.dot(w, sol.point))
                assert achieved <= sol.value + 1e-12
                assert sol.value - achieved <= eps * max(1.0, abs(sol.value)) + 1e-12
                again = evaluate_strategy(p.model, sol.strategy, p.objectives).values
                assert sol.point.tolist() == again


class TestStructureCache:
    @staticmethod
    def bits(sol):
        return (float(sol.value).hex(), float(sol.error_bound).hex(), sol.point.tobytes(),
                sol.strategy.tolist(), sol.rounds, sol.sweeps)

    def test_shared_prep_matches_fresh_preps(self):
        # one prep across weights builds one total-reward structure per set
        # of zero-reward end components its solves collapse and answers bit
        # for bit as a fresh prep per weight does
        rng = np.random.default_rng(405)
        shared_patterns = 0
        for _ in range(8):
            m, objectives = random_valid_instance(rng, n_lra=1, n_total=2)
            p = normalize_query(m, objectives)
            shared = prepare_weighted(p)
            patterns, zero_sets = set(), set()
            for _ in range(10):
                w = rng.integers(0, 3, size=3).astype(float)
                w = w / w.sum() if w.any() else np.ones(3) / 3
                fresh = prepare_weighted(p)
                a, b = optimize_weighted(shared, w), optimize_weighted(fresh, w)
                assert self.bits(a) == self.bits(b)
                assert problem_statistics(p, fresh, 1)["total_structures"] == 1
                # the pattern: nonzero states and edges of the lifted reward
                r_tot = weighted_reward_sum("t", [
                    (wj if o.kind == "total" else 0.0, p.model.rewards[o.reward])
                    for wj, o in zip(w, p.objectives)])
                star = fresh.quot.lift_reward(r_tot, "s", bottom_values=b.component_gains)
                patterns.add((star.state != 0.0).tobytes() + (star.edge != 0.0).tobytes())
                z = total_zero_ecs(fresh.quot.model, star, fresh.quot.bottom_state)
                zero_sets.add(tuple(c.choices.tobytes() for c in z))
            assert problem_statistics(p, shared, 10)["total_structures"] == len(zero_sets)
            assert len(shared.patterns) == len(patterns)
            shared_patterns += len(patterns)
        assert shared_patterns < 8 * 10  # the cache is hit

    def test_patterns_with_one_zero_ec_set_share_a_structure(self, fig1, fig1_objectives):
        # the three weights lift to three support patterns, and each solve
        # collapses no zero-reward end component: one structure serves all
        prep = prepare_weighted(normalize_query(fig1, fig1_objectives))
        for w in ([1.0, 0.0], [0.0, 1.0], [0.5, 0.5]):
            optimize_weighted(prep, w)
        assert len(prep.patterns) == 3
        (st,) = prep.structures.values()
        assert all(s is st for s in prep.patterns.values())
        assert problem_statistics(prep.problem, prep, 3)["total_structures"] == 1

    def test_state_rewards_are_part_of_the_pattern(self):
        # T0 and T1 pay on the same edge, but only T0 has a state reward, on
        # the end component {0, 1}: a zero-reward component under T1 alone
        m = MarkovAutomaton(
            [1.0, None, 1.0], [[((1, 1.0),)], [((0, 1.0),), ((2, 1.0),)], [((2, 1.0),)]],
            initial=0,
            rewards={"L": RewardAssignment("L", {2: 1.0}),
                     "T0": RewardAssignment("T0", {0: -1.0}, {(1, 1, 2): -1.0}),
                     "T1": RewardAssignment("T1", {}, {(1, 1, 2): -1.0})})
        p = normalize_query(m, [Objective("lra", reward="L"), Objective("total", reward="T0"),
                                Objective("total", reward="T1")])
        prep = prepare_weighted(p)
        for w in ([0.0, 1.0, 0.0], [0.0, 0.0, 1.0]):
            optimize_weighted(prep, w)
        assert problem_statistics(p, prep, 2)["total_structures"] == 2

    def test_structure_quotients_drop_their_bottom_actions(self):
        # a structure's quotient offers bottom too, but its own bottom state
        # is not the target: almost-sure reachability drops those actions,
        # so no row is one and that state is never active.  Unit weights
        # leave reward-free components in the lifted reward to collapse
        rng = np.random.default_rng(3)
        own = 0
        for _ in range(30):
            m, objectives = random_valid_instance(rng, n_lra=1, n_total=2)
            prep = prepare_weighted(normalize_query(m, objectives))
            for w in np.eye(3):
                optimize_weighted(prep, w)
            for st in prep.structures.values():
                assert (st.q.base_choice[st.rows] >= 0).all()
                assert st.q.bottom_state not in st.active
                for q in (prep.quot, st.q):
                    last = flat(q.model).ptr[np.array(q.ec_states, dtype=np.int64) + 1] - 1
                    assert (q.base_choice[last] == -1).all()
                own += len(st.q.components) > 0
        assert own > 0  # some structures collapse components of their own



class TestEvaluationMemo:
    """One prep evaluates each decoded strategy once, keyed by its actions."""

    @staticmethod
    def bits(sol):
        return TestStructureCache.bits(sol) + ([float(g).hex() for g in sol.component_gains],)

    @staticmethod
    def instances():
        # several weight vectors per instance, some of them repeated
        rng = np.random.default_rng(419)
        for _ in range(8):
            m, objectives = random_valid_instance(rng, n_lra=2, n_total=1, max_actions=3)
            ws = [w / w.sum() if w.any() else np.ones(3) / 3
                  for w in rng.integers(0, 4, size=(6, 3)).astype(float)]
            yield normalize_query(m, objectives), ws + ws[:3]

    def test_shared_prep_matches_fresh_preps_in_any_order(self):
        for p, ws in self.instances():
            forward, backward = prepare_weighted(p), prepare_weighted(p)
            fresh = [self.bits(optimize_weighted(prepare_weighted(p), w)) for w in ws]
            assert [self.bits(optimize_weighted(forward, w)) for w in ws] == fresh
            assert [self.bits(optimize_weighted(backward, w)) for w in ws[::-1]] == fresh[::-1]

    def test_one_evaluation_per_distinct_strategy(self, monkeypatch):
        calls = []

        def counted(m, sigma, objectives):
            calls.append(tuple(sigma.tolist()))
            return evaluate_strategy(m, sigma, objectives)

        monkeypatch.setattr(moma.weighted, "evaluate_strategy", counted)
        distinct = 0
        for p, ws in self.instances():
            calls.clear()
            prep = prepare_weighted(p)
            seen = {tuple(optimize_weighted(prep, w).strategy.tolist()) for w in ws}
            assert sorted(calls) == sorted(seen)
            assert len(prep.evaluations) == len(seen)
            distinct += len(seen)
        assert 8 < distinct < 8 * 9  # some instances have several strategies, and hits

    def test_returned_point_is_a_copy(self, fig1, fig1_objectives):
        prep = make_prep(fig1, fig1_objectives)
        first = optimize_weighted(prep, (1.0, 0.0))
        first.point[:] = 99.0
        assert optimize_weighted(prep, (1.0, 0.0)).point.tolist() == pytest.approx([4.0, -2.0])

    def test_solver_error_is_not_cached(self, fig1, fig1_objectives, monkeypatch):
        calls = []

        def failing(m, sigma, objectives):
            calls.append(1)
            raise SolverError("forced")

        prep = make_prep(fig1, fig1_objectives)
        monkeypatch.setattr(moma.weighted, "evaluate_strategy", failing)
        for _ in range(2):
            with pytest.raises(SolverError, match="forced"):
                optimize_weighted(prep, (0.5, 0.5))
        assert len(calls) == 2 and not prep.evaluations
        monkeypatch.setattr(moma.weighted, "evaluate_strategy", evaluate_strategy)
        sol = optimize_weighted(prep, (0.5, 0.5))
        assert len(prep.evaluations) == 1
        assert sol.point.tolist() == evaluate_strategy(fig1, sol.strategy, fig1_objectives).values

    def test_decodes_list_every_probabilistic_state_in_order(self):
        # the memo key is the action vector's bytes alone, so every decode on
        # one prep must give one action per state, 0 at Markovian states
        rng = np.random.default_rng(419)
        differ = 0
        for _ in range(10):
            m, objectives = random_valid_instance(rng, n_lra=1, n_total=1)
            prep = make_prep(m, objectives)
            qfl = flat(prep.quot.model)
            # every component stays inside by its first choices, as a
            # reward-free one does in optimize_weighted
            stay = [c.choices[flat(sub).ptr[:-1]]
                    for c, sub in zip(prep.problem.zero_ecs, prep.subs)]
            first = decode_quotient_strategy(prep.quot, np.zeros(len(qfl.markovian), np.int64),
                                             stay)
            last = decode_quotient_strategy(prep.quot, np.diff(qfl.ptr) - 1, stay)
            markovian = flat(prep.problem.model).markovian
            assert first.dtype == last.dtype == np.int64
            assert first.shape == last.shape == markovian.shape
            assert not first[markovian].any() and not last[markovian].any()
            differ += not np.array_equal(first, last)
        assert differ > 0
