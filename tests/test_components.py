import numpy as np
import pytest

from moma import (MarkovAutomaton, ModelError, RewardAssignment,
                  almost_sure_reach, decode_quotient_strategy,
                  mec_decomposition, quotient, sub_ma, zero_mecs)
from moma import components
from moma.model import flat, reach

from gen import (brute_as_reach, brute_mecs, chain_reach_sure, choices, random_lra_reward,
                 random_ma, random_total_reward, ref_quotient)


def as_pairs(comps):
    return {(c.markovian_states, c.pairs) for c in comps}


def decoding(q):
    """q.base_choice as the table (collapsed state, action) -> ('exit', s, a)
    or ('bottom',)."""
    fl, qfl = flat(q.base), flat(q.model)
    out = {}
    for qs in q.ec_states:
        for a in range(int(qfl.ptr[qs + 1] - qfl.ptr[qs])):
            c = int(q.base_choice[qfl.ptr[qs] + a])
            s = int(fl.choice_state[c])
            out[(qs, a)] = ("bottom",) if c < 0 else ("exit", s, c - int(fl.ptr[s]))
    return out


def reach_sets(m, targets):
    """almost_sure_reach's masks as (region, {state: allowed actions})."""
    region, allowed = almost_sure_reach(m, targets)
    fl = flat(m)
    acts: dict[int, tuple[int, ...]] = {}
    for c in np.flatnonzero(allowed).tolist():
        s = int(fl.choice_state[c])
        acts[s] = acts.get(s, ()) + (c - int(fl.ptr[s]),)
    return frozenset(np.flatnonzero(region).tolist()), acts


class TestMecDecomposition:
    def test_fig1(self, fig1):
        got = as_pairs(mec_decomposition(fig1))
        want = {
            (frozenset({1, 5}), frozenset({(3, 0), (3, 1)})),
            (frozenset({4}), frozenset()),
        }
        assert got == want

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            m = random_ma(rng, max_states=6)
            assert as_pairs(mec_decomposition(m)) == brute_mecs(m)

    def test_disjoint_and_sorted(self):
        rng = np.random.default_rng(12)
        for _ in range(40):
            m = random_ma(rng, max_states=7)
            comps = mec_decomposition(m)
            seen: set[int] = set()
            starts = []
            for c in comps:
                assert seen.isdisjoint(c.members.tolist())
                seen.update(c.members.tolist())
                starts.append(int(c.members.min()))
            assert starts == sorted(starts)


def banning_reward(m, choice_ok):
    """A reward that is nonzero exactly on the choices choice_ok bans, so
    brute_mecs(m, [r]) is the oracle for mec_decomposition(m, choice_ok)."""
    fl = flat(m)
    state_r, trans_r = {}, {}
    for c in np.flatnonzero(~choice_ok).tolist():
        s = int(fl.choice_state[c])
        if m.is_markovian(s):
            state_r[s] = 1.0
        else:
            a = c - int(fl.ptr[s])
            trans_r[(s, a, choices(m)[s][a][0][0])] = -1.0
    return RewardAssignment("ban", state_r, trans_r)


class TestMecDecompositionMask:
    def test_random_masks_match_brute_force(self):
        rng = np.random.default_rng(14)
        for _ in range(60):
            m = random_ma(rng, max_states=6)
            ok = rng.random(flat(m).choice_state.shape) < 0.7
            got = as_pairs(mec_decomposition(m, choice_ok=ok))
            assert got == brute_mecs(m, [banning_reward(m, ok)])

    def test_zeno_mask_keeps_probabilistic_cycles_only(self):
        # the mask validate_assumptions uses to find Zeno end components
        rng = np.random.default_rng(15)
        for _ in range(60):
            m = random_ma(rng, max_states=6, p_markov=0.4)
            fl = flat(m)
            ok = ~fl.markovian[fl.choice_state]
            got = mec_decomposition(m, choice_ok=ok)
            assert as_pairs(got) == brute_mecs(m, [banning_reward(m, ok)])
            assert all(not c.markovian_states for c in got)

    def test_mask_is_not_modified(self):
        m = MarkovAutomaton([None, 1.0], [[((1, 1.0),), ((0, 1.0),)], [((0, 1.0),)]],
                            initial=0)
        ok = np.array([True, True, False])
        got = as_pairs(mec_decomposition(m, choice_ok=ok))
        assert got == {(frozenset(), frozenset({(0, 1)}))}
        assert ok.tolist() == [True, True, False]

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1), ()])
    def test_mask_of_wrong_shape_rejected(self, shape):
        # 3 choices over 2 states: a mask over states must not pass
        m = MarkovAutomaton([None, 1.0], [[((1, 1.0),), ((0, 1.0),)], [((0, 1.0),)]],
                            initial=0)
        with pytest.raises(ModelError, match="choice_ok"):
            mec_decomposition(m, choice_ok=np.ones(shape, dtype=bool))

    def test_probabilistic_state_without_choices(self):
        # state 0 enables nothing: an empty choice segment, between states
        # that do form end components
        m = MarkovAutomaton(
            [None, 1.0, None, 2.0],
            [[], [((1, 0.5), (0, 0.5))], [((2, 1.0),), ((3, 1.0),)], [((2, 1.0),)]],
            initial=1)
        assert as_pairs(mec_decomposition(m)) == brute_mecs(m) == {
            (frozenset({3}), frozenset({(2, 0), (2, 1)}))}
        ok = np.array([True, True, False, True])
        assert as_pairs(mec_decomposition(m, choice_ok=ok)) == \
            brute_mecs(m, [banning_reward(m, ok)]) == {(frozenset(), frozenset({(2, 0)}))}
        r = RewardAssignment("r", {}, {(2, 0, 2): -1.0})
        assert as_pairs(zero_mecs(m, [r])) == brute_mecs(m, [r])

    def test_choice_free_states_everywhere(self):
        rng = np.random.default_rng(16)
        for _ in range(40):
            base = random_ma(rng, max_states=6)
            dead = rng.random(base.n_states) < 0.3
            structure = [[] if dead[s] and not base.is_markovian(s) else choices(base)[s]
                       for s in range(base.n_states)]
            m = MarkovAutomaton(base.rates, structure, initial=0)
            assert as_pairs(mec_decomposition(m)) == brute_mecs(m)


class TestZeroMecs:
    def test_fig1_zero_ecs(self, fig1):
        z = zero_mecs(fig1, [fig1.rewards["R2"]])
        assert [c.members.tolist() for c in z] == [[1, 3, 5], [4]]

    def test_without_assignments_plain_mecs(self, fig1):
        assert as_pairs(zero_mecs(fig1, [])) == as_pairs(mec_decomposition(fig1))

    def test_rewarded_choices_are_banned(self):
        # 0 <-> 1 Markovian cycle; state reward on 1 bans the whole loop
        m = MarkovAutomaton([1.0, 1.0], [[((1, 1.0),)], [((0, 1.0),)]], initial=0)
        assert zero_mecs(m, [RewardAssignment("r", {1: 1.0}, {})]) == []
        assert len(zero_mecs(m, [RewardAssignment("r", {1: 0.0}, {})])) == 1
        # a transition reward on an existing edge bans it too
        assert zero_mecs(m, [RewardAssignment("r", {}, {(0, 0, 1): -1.0})]) == []
        # one on a zero-probability edge changes nothing
        assert len(zero_mecs(m, [RewardAssignment("r", {}, {(0, 0, 0): -1.0})])) == 1

    def test_banned_pair_keeps_other_action(self):
        m = MarkovAutomaton(
            [None, 1.0],
            [[((1, 1.0),), ((1, 1.0),)], [((0, 1.0),)]],
            initial=0)
        z = zero_mecs(m, [RewardAssignment("r", {}, {(0, 1, 1): -2.0})])
        assert as_pairs(z) == {(frozenset({1}), frozenset({(0, 0)}))}

    def test_matches_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            m = random_ma(rng, max_states=6)
            mecs = mec_decomposition(m)
            r = random_total_reward(rng, m, mecs, "T")
            assert as_pairs(zero_mecs(m, [r])) == brute_mecs(m, [r])


class TestQuotient:
    def test_fig1_structure(self, fig1):
        z = zero_mecs(fig1, [fig1.rewards["R2"]])
        q = quotient(fig1, z)
        # non-collapsed: s1, s3; collapsed: C0, C1; plus the bottom state
        assert q.model.n_states == 5
        assert q.bottom_state == 4
        assert q.ec_states == [2, 3]
        assert q.state_map == [0, 2, 1, 2, 3, 2]
        assert q.model.initial == 1
        # both components are exit-free, so their only action is bottom
        assert decoding(q)[(2, 0)] == ("bottom",)
        assert decoding(q)[(3, 0)] == ("bottom",)
        assert choices(q.model)[2] == (((4, 1.0),),)
        # s1's Markovian distribution is redirected onto the classes
        assert choices(q.model)[0] == (((1, 0.5), (2, 0.5)),)
        # s3 keeps both actions: alpha to s1, beta half C1 half C0
        assert choices(q.model)[1] == (((0, 1.0),), ((2, 0.5), (3, 0.5)))
        assert not q.model.is_markovian(2)
        assert q.model.is_markovian(4)

    def test_exits_become_actions(self):
        m = MarkovAutomaton(
            [1.0, None, 1.0],
            [[((1, 1.0),)], [((0, 1.0),), ((2, 1.0),)], [((2, 1.0),)]],
            initial=0)
        (c,) = [c for c in mec_decomposition(m) if 0 in c.members]
        q = quotient(m, [c])
        qs = q.ec_states[0]
        assert decoding(q)[(qs, 0)] == ("exit", 1, 1)
        assert decoding(q)[(qs, 1)] == ("bottom",)
        assert choices(q.model)[qs][0] == ((q.state_map[2], 1.0),)

    def test_overlap_rejected(self, fig1):
        z = zero_mecs(fig1, [fig1.rewards["R2"]])
        with pytest.raises(ModelError):
            quotient(fig1, [z[0], z[0]])

    def test_lift_reward(self, fig1):
        z = zero_mecs(fig1, [fig1.rewards["R2"]])
        q = quotient(fig1, z)
        lifted = q.lift_reward(fig1.rewards["R2"], "lift", bottom_values=[4.0, 2.0])
        assert lifted.transition_rewards.get((1, 0, 0), 0.0) == -1.0
        assert lifted.transition_rewards.get((2, 0, 4), 0.0) == 4.0
        assert lifted.transition_rewards.get((3, 0, 4), 0.0) == 2.0
        assert not lifted.state_rewards

    def test_lift_averages_merged_successors(self):
        # both successors of state 0 collapse into one class; the transition
        # reward must average by probability so the expectation is kept
        m = MarkovAutomaton(
            [1.0, 1.0, 1.0],
            [[((1, 0.5), (2, 0.5))], [((2, 1.0),)], [((1, 1.0),)]],
            initial=0)
        (c,) = [c for c in mec_decomposition(m) if 1 in c.members]
        q = quotient(m, [c])
        r = RewardAssignment("r", {}, {(0, 0, 1): 2.0})
        lifted = q.lift_reward(r, "lift")
        qs = q.state_map[1]
        assert lifted.transition_rewards.get((0, 0, qs), 0.0) == pytest.approx(1.0)

    def test_matches_dict_reference(self):
        rng = np.random.default_rng(24)
        for _ in range(150):
            m = random_ma(rng, max_states=9, max_actions=3)
            mecs = mec_decomposition(m)
            r = random_total_reward(rng, m, mecs, "T")
            lra = random_lra_reward(rng, m, "L")
            ecs = [c for c in mecs if rng.random() < 0.6]
            q = quotient(m, ecs)
            ref_choices, ref_decoding, state_map, ec_states, bottom, lift = ref_quotient(m, ecs)
            assert choices(q.model) == ref_choices
            assert decoding(q) == ref_decoding
            assert q.state_map == state_map
            assert q.ec_states == ec_states
            assert q.bottom_state == bottom
            values = [float(rng.integers(-3, 4)) for _ in ecs]
            for x in (r, lra):
                state_r, trans_r = lift(x, values)
                lifted = q.lift_reward(x, "lift", bottom_values=values)
                assert lifted.state_rewards == state_r
                assert list(lifted.transition_rewards.items()) == list(trans_r.items())


class TestAlmostSureReach:
    def test_fig1(self, fig1):
        z = zero_mecs(fig1, [fig1.rewards["R2"]])
        targets = sorted(set().union(*[c.members.tolist() for c in z]))
        region, allowed = reach_sets(fig1, targets)
        assert region == frozenset(range(6))
        assert allowed[2] == (0, 1)

    def test_region_matches_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            m = random_ma(rng, max_states=6)
            k = int(rng.integers(1, 3))
            targets = set(int(t) for t in rng.choice(m.n_states, size=k, replace=False))
            region, allowed = reach_sets(m, targets)
            assert region == frozenset(brute_as_reach(m, targets))
            # allowed choices never leave the region
            for s, acts in allowed.items():
                for a in acts:
                    assert all(t in region for t, _ in choices(m)[s][a])

    def test_region_shrinking_over_rounds(self, monkeypatch):
        # x_k -> {x_(k-1), T}, x_1 -> {d, T}: every round of the fixed point
        # drops one more state, from the dead end d up the chain; p keeps
        # its direct action to T
        k = 4
        T, d, p = 0, 1, k + 2
        rates = [1.0, 1.0] + [1.0] * k + [None]
        choices = [[((T, 1.0),)], [((d, 1.0),)], [((d, 0.5), (T, 0.5))]]
        choices += [[((i, 0.5), (T, 0.5))] for i in range(2, k + 1)]
        choices.append([((k + 1, 1.0),), ((T, 1.0),)])
        m = MarkovAutomaton(rates, choices, initial=p)
        rounds = []

        def counted(*args):
            rounds.append(1)
            return reach(*args)

        monkeypatch.setattr(components, "reach", counted)
        region, allowed = reach_sets(m, [T])
        assert len(rounds) == k + 2
        assert region == frozenset(brute_as_reach(m, [T])) == frozenset({T, p})
        assert allowed == {T: (0,), p: (1,)}

    def test_allowed_supports_a_witness(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            m = random_ma(rng, max_states=6)
            targets = {int(rng.integers(0, m.n_states))}
            region, allowed = reach_sets(m, targets)
            if m.initial not in region:
                continue
            # steer along decreasing distance-to-target in the allowed graph
            dist = {t: 0 for t in targets if t in region}
            frontier = sorted(dist)
            while frontier:
                new = []
                for s in sorted(allowed):
                    if s in dist:
                        continue
                    for a in allowed[s]:
                        if any(t in dist for t, _ in choices(m)[s][a]):
                            dist[s] = min(dist[t] for t, _ in choices(m)[s][a]
                                          if t in dist) + 1
                            new.append(s)
                            break
                frontier = new
            sigma = {}
            for s in region - set(targets):
                if not m.is_markovian(s):
                    best = min(allowed[s],
                               key=lambda a: min((dist.get(t, 10 ** 9)
                                                  for t, _ in choices(m)[s][a])))
                    sigma[s] = best
            sure = chain_reach_sure(m, sigma, targets)
            assert region <= sure


class TestSubMa:
    def test_fig1_component(self, fig1):
        z = zero_mecs(fig1, [fig1.rewards["R2"]])
        c = z[0]
        sub = sub_ma(fig1, c)
        assert sub.n_states == 3
        assert sub.origin == (1, 3, 5)
        assert sub.state_names == ("s2", "s4", "s6")
        assert sub.rates == (2.0, None, 2.0)
        assert len(choices(sub)[1]) == 2
        assert sub.rewards["R1"].state_rewards == {0: 6.0, 2: 1.0}

    def test_open_component_rejected(self, fig1):
        from moma import EndComponent
        fl = flat(fig1)
        c = EndComponent(fl, np.array([0]), fl.ptr[:1])  # s1 alone, its move leaves
        with pytest.raises(ModelError):
            sub_ma(fig1, c)


class TestDecodeQuotientStrategy:
    @pytest.fixture()
    def exit_model(self):
        m = MarkovAutomaton(
            [1.0, None, 1.0],
            [[((1, 1.0),)], [((0, 1.0),), ((2, 1.0),)], [((2, 1.0),)]],
            initial=0)
        (c,) = [c for c in mec_decomposition(m) if 0 in c.members]
        return m, c, quotient(m, [c])

    @staticmethod
    def picks(q, actions):
        """The action vector over q's states: `actions` at the given
        states, 0 elsewhere."""
        acts = np.zeros(q.model.n_states, dtype=np.int64)
        acts[list(actions)] = list(actions.values())
        return acts

    def test_exit_choice_steers_to_exit(self, exit_model):
        m, c, q = exit_model
        qs = q.ec_states[0]
        sigma = decode_quotient_strategy(q, self.picks(q, {qs: 0}), ())
        assert sigma[1] == 1

    def test_bottom_choice_follows_stay(self, exit_model):
        m, c, q = exit_model
        qs = q.ec_states[0]
        # the stay plays action 0 at state 1 (and the only one at state 0)
        stay = flat(m).ptr[c.members] + [0, 0]
        sigma = decode_quotient_strategy(q, self.picks(q, {qs: 1}), [stay])
        assert sigma[1] == 0

    def test_bottom_without_stay_errors(self, exit_model):
        m, c, q = exit_model
        qs = q.ec_states[0]
        with pytest.raises(ModelError):
            decode_quotient_strategy(q, self.picks(q, {qs: 1}), [None])
        with pytest.raises(ModelError):
            decode_quotient_strategy(q, self.picks(q, {qs: 1}), ())

    @pytest.mark.parametrize("actions, message", [
        ([1, 0, 0], "unavailable action 1 at quotient state 0"),
        ([0, 5, 0], "unavailable action 5 at quotient state 1"),
        ([-1, 0, 0], "unavailable action -1 at quotient state 0"),
        ([0, 0], r"shape \(2,\), not one action per state \(3,\)"),
        ([0, 0, 0, 0], r"shape \(4,\)")])
    def test_actions_are_bound_checked(self, exit_model, actions, message):
        m, c, q = exit_model
        stay = flat(m).ptr[c.members]
        with pytest.raises(ModelError, match=message):
            decode_quotient_strategy(q, np.array(actions, dtype=np.int64), [stay])

    def test_unreachable_component_stays_inside(self, exit_model):
        # an action vector decides every quotient state, so a component the
        # quotient strategy never reaches picks too; when it picks bottom
        # with the stay optimize_weighted gives a reward-free component (the
        # first choice inside, per state), play stays inside
        m, c, q = exit_model
        stay = c.choices[flat(sub_ma(m, c)).ptr[:-1]]
        sigma = decode_quotient_strategy(q, self.picks(q, {q.ec_states[0]: 1}), [stay])
        assert sigma[1] == 0

    def test_exits_are_reached_from_inside(self):
        # every component of a quotient picks one of its exits at once; the
        # decoded strategy must keep play inside each component until it
        # reaches the state of that component's exit, almost surely
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(100):
            # two disjoint copies of a random model: components exit in pairs
            base = random_ma(rng, max_states=8, max_actions=3, p_markov=0.3)
            n = base.n_states
            m = MarkovAutomaton(base.rates * 2, choices(base) + tuple(
                tuple(tuple((t + n, p) for t, p in d) for d in cs) for cs in choices(base)),
                initial=0)
            fl = flat(m)
            z = zero_mecs(m, [random_total_reward(rng, m, mec_decomposition(m), "T")])
            q = quotient(m, z)
            qfl = flat(q.model)
            outs = [q.base_choice[qfl.ptr[qs]:qfl.ptr[qs + 1] - 1] for qs in q.ec_states]
            # a component without an exit has only bottom: it stays inside
            stay = [c.choices[flat(sub_ma(m, c)).ptr[:-1]] for c in z]
            for j in range(max(map(len, outs), default=0)):
                pick = {i: min(j, len(o) - 1) for i, o in enumerate(outs) if len(o)}
                sigma = decode_quotient_strategy(
                    q, self.picks(q, {q.ec_states[i]: a for i, a in pick.items()}), stay)
                for i, a in pick.items():
                    c, exit_choice = z[i], int(outs[i][a])
                    goal = int(fl.choice_state[exit_choice])
                    assert fl.ptr[goal] + sigma[goal] == exit_choice
                    inner = c.members[c.members != goal]
                    chosen = fl.ptr[inner] + np.array(
                        [0 if m.is_markovian(s) else sigma[s] for s in inner.tolist()],
                        dtype=np.int64)
                    assert np.isin(chosen, c.choices).all()
                    _, e = fl.edges(chosen)
                    # every state of c reaches the exit's state along chosen edges
                    assert reach(fl.succ[e], fl.edge_src[e],
                                 np.arange(m.n_states) == goal)[c.members].all()
                    checked += 1
        assert checked > 80

    def test_copies_plain_choices(self, fig1):
        z = zero_mecs(fig1, [fig1.rewards["R2"]])
        q = quotient(fig1, z)
        # both components pick bottom and stay by action 0 at every state
        stay = [flat(fig1).ptr[c.members] for c in z]
        sigma = decode_quotient_strategy(q, self.picks(q, {1: 1, 2: 0, 3: 0}), stay)
        assert sigma[2] == 1
        # collapsed components chose bottom: play stays inside
        assert sigma[3] in (0, 1)
