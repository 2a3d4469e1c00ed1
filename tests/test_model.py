import numpy as np
import pytest

from moma import (MarkovAutomaton, ModelError, Objective, RewardAssignment,
                  embed_mdp, induced_chain, validate_model, weighted_reward_sum)

from moma import model
from moma.components import mec_decomposition, quotient, sub_ma
from moma.solvers import reach_to_total

from gen import (choices, malformed_ma, random_lra_reward, random_ma, random_mdp,
                 random_total_reward, ref_check_total_rewards, ref_validate_model)


def two_state(rates=(1.0, 2.0)):
    return MarkovAutomaton(list(rates), [[((1, 1.0),)], [((0, 1.0),)]], initial=0)


class TestConstruction:
    def test_accessors(self):
        m = MarkovAutomaton(
            [1.0, None], [[((1, 1.0),)], [((0, 0.5), (1, 0.5)), ((1, 1.0),)]],
            initial=0)
        assert m.n_states == 2
        assert m.n_choices == 3
        assert m.is_markovian(0) and not m.is_markovian(1)
        assert m.markovian_states() == [0]
        assert [s for s in range(m.n_states) if m.rates[s] is None] == [1]
        assert choices(m)[1][0] == ((0, 0.5), (1, 0.5))
        assert m.reachable() == [0, 1]
        assert m.state_names == ("s0", "s1")
        assert m.action_names[0] == ("",)
        assert m.action_names[1] == ("a0", "a1")

    def test_length_mismatch(self):
        with pytest.raises(ModelError):
            MarkovAutomaton([1.0], [[((0, 1.0),)], [((0, 1.0),)]], initial=0)

    def test_initial_out_of_range(self):
        with pytest.raises(ModelError):
            MarkovAutomaton([1.0], [[((0, 1.0),)]], initial=1)

    def test_markovian_needs_single_distribution(self):
        with pytest.raises(ModelError):
            MarkovAutomaton([1.0], [[((0, 1.0),), ((0, 1.0),)]], initial=0)

    def test_successor_out_of_range(self):
        with pytest.raises(ModelError):
            MarkovAutomaton([1.0], [[((3, 1.0),)]], initial=0)

    def test_state_names_mismatch(self):
        with pytest.raises(ModelError):
            MarkovAutomaton([1.0], [[((0, 1.0),)]], initial=0, state_names=("a", "b"))

    def test_with_rewards_shares_structure(self):
        m = two_state()
        r = RewardAssignment("r", {0: 1.0}, {})
        m2 = m.with_rewards({"r": r})
        assert m2.rewards["r"] is r
        assert model.flat(m2) is model.flat(m)
        assert not m.rewards

    def test_reachable_ignores_unreachable(self):
        m = MarkovAutomaton([1.0, 1.0, 1.0],
                            [[((0, 1.0),)], [((0, 1.0),)], [((0, 1.0),)]],
                            initial=0)
        assert m.reachable() == [0]
        assert m.reachable(2) == [0, 2]


class TestGraphSearch:
    def closure(self, n, src, dst, sources):
        adj = np.eye(n, dtype=bool)
        adj[src, dst] = True
        for k in range(n):
            adj |= adj[:, [k]] & adj[[k], :]
        return adj[sources].any(axis=0)

    def test_search_matches_closure(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            e = int(rng.integers(0, 2 * n))
            src, dst = rng.integers(0, n, e), rng.integers(0, n, e)
            sources = rng.random(n) < 0.2
            got = model.reach(src, dst, sources)
            assert got.tolist() == self.closure(n, src, dst, sources).tolist()

    def test_strong_components_match_mutual_reachability(self):
        rng = np.random.default_rng(33)
        for _ in range(40):
            n = int(rng.integers(1, 30))
            e = int(rng.integers(0, 3 * n))
            src, dst = rng.integers(0, n, e), rng.integers(0, n, e)
            labels = model.strong_components(n, src, dst)
            reach = np.array([self.closure(n, src, dst, np.arange(n) == s) for s in range(n)])
            same = labels[:, None] == labels[None, :]
            assert same.tolist() == (reach & reach.T).tolist()

    def test_scc_levels_order_the_condensation(self):
        # the total-reward certificate searches levels sinks first and
        # relies on this order: no edge climbs, edges between components
        # descend, and a level is the height (a component above 0 has an
        # edge exactly one level down)
        rng = np.random.default_rng(37)
        for _ in range(60):
            n = int(rng.integers(1, 40))
            e = int(rng.integers(0, 3 * n))
            src, dst = rng.integers(0, n, e), rng.integers(0, n, e)
            level = model.scc_levels(n, src, dst)
            labels = model.strong_components(n, src, dst)
            cross = labels[src] != labels[dst]
            assert (level[dst] <= level[src]).all()
            assert (level[dst[cross]] < level[src[cross]]).all()
            for c in np.unique(labels):
                below = level[dst[cross & (labels[src] == c)]]
                assert level[labels == c].min() == level[labels == c].max()
                assert level[labels == c][0] == (below.max() + 1 if len(below) else 0)


class TestRewardEdges:
    def test_lookup_matches_scan(self):
        rng = np.random.default_rng(32)
        for _ in range(40):
            m = random_mdp(rng, max_states=6, max_actions=3)
            trans = {}
            for _ in range(int(rng.integers(0, 12))):
                s = int(rng.integers(0, m.n_states))
                # actions and successors may miss the model on purpose
                a = int(rng.integers(0, 4))
                t = int(rng.integers(0, m.n_states))
                trans[(s, a, t)] = float(rng.integers(-1, 2))
            r = RewardAssignment("r", {}, trans)
            fl = model.flat(m)
            on = [(s, a, t) for s, a, t in trans
                  if a < len(choices(m)[s]) and t in [u for u, _ in choices(m)[s][a]]]
            want = {int(fl.edge_ptr[fl.ptr[s] + a]) + [u for u, _ in choices(m)[s][a]].index(t):
                    trans[(s, a, t)] for s, a, t in on if trans[(s, a, t)] != 0.0}
            state, edge = r.vectors(m)
            e = np.flatnonzero(edge)
            assert dict(zip(e.tolist(), edge[e].tolist())) == want
            assert not state.any()
            # the entries off the model are recorded in entry order
            assert r.off[1] == [(s, a, t, a < len(choices(m)[s])) for s, a, t in trans
                                if (s, a, t) not in on]


class TestValidateModel:
    def test_fig1_is_well_formed(self, fig1):
        assert validate_model(fig1).ok

    def test_nonpositive_rate(self):
        rep = validate_model(two_state(rates=(0.0, 1.0)))
        assert any(v.assumption == "WellFormed" and "rate" in v.message
                   for v in rep.violations)

    def test_non_finite_reward_values(self):
        inf, nan = float("inf"), float("nan")
        m = two_state().with_rewards({
            "a": RewardAssignment("a", {1: nan, 0: 1.0}, {(0, 0, 1): -inf}),
            "b": RewardAssignment("b", {0: inf}, {(1, 0, 0): nan, (1, 0, 5): inf}),
        })
        assert [(v.assumption, v.location, v.message) for v in validate_model(m).violations] == [
            ("WellFormed", "a", "non-finite state reward nan at s1"),
            ("WellFormed", "a", "non-finite transition reward -inf on edge (s0, 0, 1)"),
            # an entry off the model is reported as such, whatever its value
            ("WellFormed", "b", "transition reward on zero-probability edge (s1, 0, 5)"),
            ("WellFormed", "b", "non-finite state reward inf at s0"),
            ("WellFormed", "b", "non-finite transition reward nan on edge (s1, 0, 0)"),
        ]

    def test_probabilistic_deadlock(self):
        m = MarkovAutomaton([1.0, None], [[((1, 1.0),)], []], initial=0)
        rep = validate_model(m)
        assert any("deadlock" in v.message for v in rep.violations)

    def test_bad_probability_sum(self):
        m = MarkovAutomaton([1.0, 1.0],
                            [[((1, 0.5), (0, 0.4))], [((0, 1.0),)]], initial=0)
        rep = validate_model(m)
        assert any("sums to" in v.message for v in rep.violations)

    def test_duplicate_successor(self):
        m = MarkovAutomaton([1.0, 1.0],
                            [[((1, 0.5), (1, 0.5))], [((0, 1.0),)]], initial=0)
        rep = validate_model(m)
        assert any("twice" in v.message for v in rep.violations)

    def test_probability_out_of_range(self):
        m = MarkovAutomaton([1.0, 1.0],
                            [[((1, 1.5), (0, -0.5))], [((0, 1.0),)]], initial=0)
        rep = validate_model(m)
        assert any("outside" in v.message for v in rep.violations)

    def test_reward_key_checks(self):
        m = two_state().with_rewards({
            "bad": RewardAssignment("bad", {7: 1.0}, {(0, 0, 0): 1.0, (0, 3, 1): 1.0}),
        })
        rep = validate_model(m)
        messages = [v.message for v in rep.violations]
        assert any("unknown state" in t for t in messages)
        assert any("zero-probability edge" in t for t in messages)
        assert any("unknown choice" in t for t in messages)

    def test_state_reward_on_probabilistic_state(self):
        m = MarkovAutomaton([None, 1.0], [[((1, 1.0),)], [((0, 1.0),)]], initial=0)
        rep = validate_model(m.with_rewards(
            {"r": RewardAssignment("r", {0: 2.0}, {})}))
        assert any("probabilistic state" in v.message for v in rep.violations)
        # a zero entry on a probabilistic state is harmless
        rep = validate_model(m.with_rewards(
            {"r": RewardAssignment("r", {0: 0.0}, {})}))
        assert rep.ok


    def test_matches_scan_reference(self):
        kinds = ["non-positive rate", "infinite rate", "deadlock", "empty distribution", "twice",
                 "outside (0, 1]", "sums to", "reward on unknown state",
                 "reward on probabilistic state", "unknown choice", "zero-probability edge",
                 "non-finite state reward", "non-finite transition reward"]
        seen = set()
        rng = np.random.default_rng(41)
        # small draws, then larger ones whose scan order crosses many states
        for max_states in [6] * 400 + [40] * 60:
            m = malformed_ma(rng, max_states=max_states)
            rep = validate_model(m)
            assert rep.violations == ref_validate_model(m).violations
            seen.update(k for v in rep.violations for k in kinds if k in v.message)
            # the same entries born as vectors: no key off the model is left
            born = m.with_rewards({n: r.negated(n) for n, r in m.rewards.items()})
            assert validate_model(born).violations == ref_validate_model(born).violations
        assert seen == set(kinds)


class TestTotalRewardChecks:
    def test_matches_scan_reference(self):
        seen = set()
        rng = np.random.default_rng(43)
        for _ in range(300):
            m = random_ma(rng, max_states=7, max_actions=3)
            fl = model.flat(m)
            rewards = {}
            for name in ("T0", "T1"):
                e = rng.integers(0, len(fl.succ), int(rng.integers(0, 6))).tolist()
                keys = [(int(fl.edge_src[f]), int(fl.edge_choice[f] - fl.ptr[fl.edge_src[f]]),
                         int(fl.succ[f])) for f in e]
                rewards[name] = RewardAssignment(
                    name, {int(s): float(rng.choice([-1.0, 0.0, 2.0]))
                           for s in rng.integers(0, m.n_states, int(rng.integers(0, 4)))},
                    {k: float(rng.choice([-1.5, 0.0, 0.5])) for k in keys})
            m = m.with_rewards(rewards)
            objectives = [Objective("total", str(rng.choice(["max", "min"])), reward=n)
                          for n in ("T0", "T1", "T0")]
            mecs = mec_decomposition(m)
            rep = model.check_total_rewards(m, objectives, mecs)
            assert rep.violations == ref_check_total_rewards(m, objectives, mecs).violations
            seen.update(v.assumption for v in rep.violations)
        assert seen == {"SignConsistency", "Finiteness"}

    def test_one_finiteness_report_per_reward(self):
        m = two_state().with_rewards({"r": RewardAssignment("r", {0: 1.0}, {})})
        objectives = [Objective("total", "max", reward="r")] * 2
        rep = model.check_total_rewards(m, objectives, mec_decomposition(m))
        assert [(v.assumption, v.location) for v in rep.violations] == [("Finiteness", "r")]


class TestRewardAlgebra:
    # the algebra runs on the vectors of a reward placed on a model

    @staticmethod
    def placed(*rewards):
        m = two_state()
        for r in rewards:
            r.vectors(m)
        return rewards

    def test_defaults_and_is_zero(self):
        r = RewardAssignment("r", {1: 2.0}, {(0, 0, 1): -1.0})
        assert r.state_rewards.get(1, 0.0) == 2.0
        assert r.state_rewards.get(0, 0.0) == 0.0
        assert r.transition_rewards.get((0, 0, 1), 0.0) == -1.0
        assert r.transition_rewards.get((1, 0, 0), 0.0) == 0.0
        with pytest.raises(ModelError):
            r.is_zero
        self.placed(r)
        assert not r.is_zero
        assert self.placed(RewardAssignment("z", {0: 0.0}, {}))[0].is_zero

    def test_negated(self):
        (r,) = self.placed(RewardAssignment("r", {1: 2.0}, {(0, 0, 1): -1.0}))
        n = r.negated("n")
        assert n.state_rewards.get(1, 0.0) == -2.0
        assert n.transition_rewards.get((0, 0, 1), 0.0) == 1.0
        assert dict(n.state_rewards) == {1: -2.0}
        assert dict(n.transition_rewards) == {(0, 0, 1): 1.0}

    def test_weighted_sum(self):
        r1, r2 = self.placed(RewardAssignment("a", {0: 1.0}, {(0, 0, 1): 2.0}),
                             RewardAssignment("b", {0: 4.0, 1: 1.0}, {}))
        w = weighted_reward_sum("w", [(0.5, r1), (0.25, r2), (0.0, r2)])
        assert w.state_rewards.get(0, 0.0) == 0.5 + 1.0
        assert w.state_rewards.get(1, 0.0) == 0.25
        assert w.transition_rewards.get((0, 0, 1), 0.0) == 1.0
        (other,) = self.placed(RewardAssignment("c", {0: 1.0}, {}))
        with pytest.raises(ModelError):
            weighted_reward_sum("w", [(1.0, r1), (1.0, other)])

    def test_zero_weight_contributes_nothing(self):
        (r,) = self.placed(RewardAssignment("a", {0: float("nan")}, {(0, 0, 1): float("inf")}))
        w = weighted_reward_sum("w", [(0.0, r)])
        assert w.is_zero

    def test_empty_sum_errors(self):
        with pytest.raises(ModelError, match="at least one part"):
            weighted_reward_sum("w", [])


class TestObjective:
    def test_valid(self):
        Objective("lra", "max", reward="r")
        Objective("total", "min", reward="r")
        Objective("reach", "max", goal=frozenset({1}))

    @pytest.mark.parametrize("kwargs", [
        dict(kind="average", direction="max", reward="r"),
        dict(kind="lra", direction="upward", reward="r"),
        dict(kind="lra", direction="max"),
        dict(kind="reach", direction="max"),
        dict(kind="reach", direction="max", goal=frozenset()),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ModelError):
            Objective(**kwargs)


class TestEmbedMdp:
    def test_rejects_markov_automaton(self, fig1):
        with pytest.raises(ModelError):
            embed_mdp(fig1)

    def test_structure(self):
        mdp = MarkovAutomaton(
            [None, None],
            [[((1, 1.0),)], [((0, 0.5), (1, 0.5)), ((0, 1.0),)]],
            initial=0,
            rewards={"r": RewardAssignment("r", {0: 3.0},
                                           {(1, 1, 0): 2.0})})
        e = embed_mdp(mdp)
        # state 0 has one action and is flattened to a rate-1 Markovian state
        assert e.is_markovian(0) and e.rates[0] == 1.0
        # state 1 keeps both actions; each one leads to a fresh rate-1 hop
        assert not e.is_markovian(1)
        assert e.n_states == 4
        assert e.origin == (0, 1, 1, 1)
        for h in (2, 3):
            assert e.rates[h] == 1.0
        # base ids are preserved, so the initial state is unchanged
        assert e.initial == 0
        r = e.rewards["r"]
        # the flattened state keeps its state reward in place
        assert r.state_rewards.get(0, 0.0) == 3.0
        # action rewards move onto the hop serving that action
        (hop,) = [t for t, _ in choices(e)[1][1]]
        assert r.transition_rewards.get((hop, 0, 0), 0.0) == 2.0

    def test_uniformly_one_per_step(self):
        rng = np.random.default_rng(3)
        mdp = random_mdp(rng, max_states=6)
        e = embed_mdp(mdp)
        assert all(e.rates[s] in (None, 1.0) for s in range(e.n_states))
        assert all(0 <= o < mdp.n_states for o in e.origin)


class TestInducedChain:
    def test_single_choice_everywhere(self, fig1):
        chain = induced_chain(fig1, {2: 1, 3: 0})
        assert chain.n_states == fig1.n_states
        assert chain.n_choices == fig1.n_states
        assert choices(chain)[2][0] == choices(fig1)[2][1]

    def test_transition_rewards_remap(self, fig1):
        chain = induced_chain(fig1, {2: 0, 3: 0})
        # the alpha self-loop reward of the initial state keeps its value,
        # now keyed by choice 0
        assert chain.rewards["R1"].transition_rewards.get((2, 0, 0), 0.0) == 1.0
        chain_b = induced_chain(fig1, {2: 1, 3: 0})
        assert chain_b.rewards["R1"].transition_rewards.get((2, 0, 0), 0.0) == 0.0

    def test_missing_reachable_state_errors(self, fig1):
        with pytest.raises(ModelError):
            induced_chain(fig1, {2: 1})

    def test_unreachable_state_may_be_missing(self):
        m = MarkovAutomaton([1.0, None], [[((0, 1.0),)], [((0, 1.0),)]], initial=0)
        chain = induced_chain(m, {})
        assert chain.n_choices == 2

    def test_unavailable_action_errors(self, fig1):
        with pytest.raises(ModelError):
            induced_chain(fig1, {2: 5, 3: 0})
        with pytest.raises(ModelError, match="unavailable action 5"):
            induced_chain(fig1, np.array([0, 0, 5, 0, 0, 0]))

    def test_action_vector_matches_mapping(self, fig1):
        # one action per state; a Markovian state's entry is read as its only choice
        for sigma in ({2: 1, 3: 0}, {2: 0, 3: 1}):
            vector = np.zeros(fig1.n_states, dtype=np.int64)
            vector[list(sigma)] = list(sigma.values())
            want = model.flat(induced_chain(fig1, sigma))
            for v in (vector, vector.tolist(), np.where(model.flat(fig1).markovian, 7, vector)):
                got = model.flat(induced_chain(fig1, v))
                assert all(np.array_equal(getattr(got, f), getattr(want, f))
                           for f in ("ptr", "edge_ptr", "succ", "prob"))

    @pytest.mark.parametrize("shape", [(5,), (7,), (6, 1), (1, 6), ()])
    def test_wrong_shape_vector_errors(self, fig1, shape):
        with pytest.raises(ModelError, match=r"one action per state \(6,\)"):
            induced_chain(fig1, np.zeros(shape, dtype=np.int64))


class TestArrayModel:
    """Derived models are built straight as arrays; rebuilding one through
    the public constructor from its tuple views gives the same arrays."""

    def derived(self, rng):
        m = random_ma(rng, max_states=9, max_actions=3)
        mecs = mec_decomposition(m)
        m = m.with_rewards({"L": random_lra_reward(rng, m, "L"),
                            "T": random_total_reward(rng, m, mecs, "T")})
        ecs = [c for c in mecs if rng.random() < 0.6]
        rng.random()  # a spare draw, so the models drawn after this one stay fixed
        yield quotient(m, ecs).model
        yield from (sub_ma(m, c) for c in mecs)
        sigma = {s: int(rng.integers(len(choices(m)[s])))
                 for s in range(m.n_states) if not m.is_markovian(s)}
        yield induced_chain(m, sigma)
        goal = rng.choice(m.n_states, size=int(rng.integers(1, 3)), replace=False)
        yield reach_to_total(m, goal.tolist())[0]
        mdp = random_mdp(rng, max_states=7, max_actions=3)
        yield embed_mdp(mdp.with_rewards({"L": random_lra_reward(rng, mdp, "L")}))

    def test_constructor_round_trip(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            for d in self.derived(rng):
                again = MarkovAutomaton(d.rates, choices(d), d.initial, d.state_names,
                                        d.action_names, d.rewards, d.origin)
                for name in ("ptr", "edge_ptr", "succ", "prob", "markovian", "rates"):
                    a, b = getattr(model.flat(again), name), getattr(model.flat(d), name)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
                assert again.rewards == d.rewards
                assert (again.initial, again.state_names, again.action_names, again.origin) \
                    == (d.initial, d.state_names, d.action_names, d.origin)
