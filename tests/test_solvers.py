import functools
import gc
import math
import time
import weakref

import numpy as np
import pytest
from scipy.sparse import csc_matrix, csr_matrix, identity
from scipy.sparse.linalg import spsolve

import moma.solvers
from moma import (InfeasibleError, MarkovAutomaton, ModelError, Objective,
                  ParetoQuery, RewardAssignment, SolverError, answer_query, bscc_gain,
                  evaluate_strategy, max_total_reward, mec_decomposition, mec_lra,
                  normalize_query, optimize_weighted, prepare_weighted, quotient,
                  reach_to_total, sub_ma, weighted_reward_sum, zero_mecs)

from moma.model import _ptr, flat
from moma.solvers import _DENSE_LIMIT, _block, _dot, _gain_bias, _solver

from gen import (all_strategies, chain_eval, choices, cycle_with_tail, ec_lra_lp,
                 kernel_matrix, layered_ma, near_one_dist, near_zeno_ma, oracle_points,
                 random_ma, random_ssp, random_valid_instance, ring_ma, scc_chain,
                 structure_matrix, total_value_lp)
from test_acceptance import check_sandwich


def lra_obj(name="R1"):
    return Objective("lra", "max", reward=name)


def total_obj(name="R2"):
    return Objective("total", "max", reward=name)


class TestBsccGain:
    def test_state_reward_renewal(self):
        m = MarkovAutomaton([3.0], [[((0, 1.0),)]], initial=0,
                            rewards={"r": RewardAssignment("r", {0: 6.0}, {})})
        assert bscc_gain(m, m.rewards["r"]) == pytest.approx(6.0, abs=1e-10)

    def test_transition_reward_renewal(self):
        m = MarkovAutomaton([2.0], [[((0, 1.0),)]], initial=0,
                            rewards={"r": RewardAssignment("r", {}, {(0, 0, 0): 5.0})})
        assert bscc_gain(m, m.rewards["r"]) == pytest.approx(10.0, abs=1e-10)

    def test_fig1_alpha_loop(self, fig1):
        from moma import induced_chain
        z = zero_mecs(fig1, [fig1.rewards["R2"]])
        sub = sub_ma(fig1, z[0])
        chain = induced_chain(sub, {1: 0})
        assert bscc_gain(chain, chain.rewards["R1"]) == pytest.approx(4.0, abs=1e-10)

    def test_rejects_nondeterminism(self, fig1):
        with pytest.raises(ModelError):
            bscc_gain(fig1, fig1.rewards["R1"])

    def test_rejects_zeno(self):
        m = MarkovAutomaton([None, None], [[((1, 1.0),)], [((0, 1.0),)]], initial=0,
                            rewards={"r": RewardAssignment("r")})
        with pytest.raises(ModelError, match="no Markovian state"):
            bscc_gain(m, m.rewards["r"])

    def test_rejects_disconnected(self):
        m = MarkovAutomaton([1.0, 1.0], [[((1, 1.0),)], [((1, 1.0),)]], initial=0,
                            rewards={"r": RewardAssignment("r")})
        with pytest.raises(ModelError):
            bscc_gain(m, m.rewards["r"])


class TestEvaluateStrategy:
    def test_bscc_without_markovian_state_raises(self):
        # state 0's first choice loops on it: a bottom SCC where no time passes
        m = MarkovAutomaton([None, 1.0], [[((0, 1.0),), ((1, 1.0),)], [((0, 1.0),)]],
                            initial=0, rewards={"r": RewardAssignment("r", {1: 1.0}, {})})
        with pytest.raises(SolverError, match="BSCC without Markovian state"):
            evaluate_strategy(m, {0: 0}, [lra_obj("r")])
        assert evaluate_strategy(m, {0: 1}, [lra_obj("r")]).values == [1.0]

    def test_fig1_alpha_alpha(self, fig1, fig1_objectives):
        ev = evaluate_strategy(fig1, {2: 0, 3: 0}, fig1_objectives)
        assert ev.values[0] == pytest.approx(4.0, abs=1e-12)
        assert ev.values[1] == pytest.approx(-2.0, abs=1e-12)

    def test_fig1_beta_alpha(self, fig1, fig1_objectives):
        ev = evaluate_strategy(fig1, {2: 1, 3: 0}, fig1_objectives)
        assert ev.values[0] == pytest.approx(3.0, abs=1e-12)
        assert ev.values[1] == pytest.approx(0.0, abs=1e-12)

    def test_fig1_beta_beta(self, fig1, fig1_objectives):
        ev = evaluate_strategy(fig1, {2: 1, 3: 1}, fig1_objectives)
        assert ev.values[0] == pytest.approx(2.25, abs=1e-12)
        assert ev.values[1] == pytest.approx(0.0, abs=1e-12)
        # the beta-loop of the big component gains 2.5, the s5 loop gains 2
        gains = {tuple(sorted(b)): g[0] for b, g in zip(ev.bsccs, ev.gains)}
        assert gains[(1, 3, 5)] == pytest.approx(2.5, abs=1e-12)
        assert gains[(4,)] == pytest.approx(2.0, abs=1e-12)
        assert ev.reach_probs == pytest.approx([0.5, 0.5])

    def test_negative_recurrent_total_is_minus_inf(self):
        m = MarkovAutomaton(
            [1.0, 1.0], [[((1, 1.0),)], [((1, 1.0),)]], initial=0,
            rewards={"r": RewardAssignment("r", {1: -1.0}, {})})
        ev = evaluate_strategy(m, {}, [total_obj("r")])
        assert ev.values[0] == float("-inf")

    def test_positive_recurrent_total_raises(self):
        m = MarkovAutomaton(
            [1.0], [[((0, 1.0),)]], initial=0,
            rewards={"r": RewardAssignment("r", {0: 1.0}, {})})
        with pytest.raises(SolverError):
            evaluate_strategy(m, {}, [total_obj("r")])

    def test_missing_reachable_state_errors(self, fig1, fig1_objectives):
        with pytest.raises(ModelError, match="misses reachable"):
            evaluate_strategy(fig1, {2: 1}, fig1_objectives)

    @pytest.mark.parametrize("action", [5, -1])
    def test_unavailable_action_errors(self, fig1, fig1_objectives, action):
        with pytest.raises(ModelError, match="unavailable action"):
            evaluate_strategy(fig1, {2: action, 3: 0}, fig1_objectives)

    def test_unreachable_state_may_be_missing(self):
        m = MarkovAutomaton([1.0, None], [[((0, 1.0),)], [((0, 1.0),)]], initial=0,
                            rewards={"r": RewardAssignment("r", {0: 2.0}, {})})
        ev = evaluate_strategy(m, {}, [lra_obj("r")])
        assert ev.values == [2.0]
        assert ev.bsccs == [frozenset({0})]

    def test_sparse_routes_match_closed_forms(self):
        # both the cycle and the tail exceed the dense limit
        m, objectives, sigma = cycle_with_tail()
        ev = evaluate_strategy(m, sigma, objectives)
        cycle = range(600, 1200)
        lam = np.array([m.rates[s] for s in cycle])
        rho = np.array([m.rewards["L"].state_rewards.get(s, 0.0) for s in cycle])
        gain = float((rho / lam).sum() / (1.0 / lam).sum())
        total = sum(v for (s, a, _), v in m.rewards["T"].transition_rewards.items()
                    if sigma.get(s, 0) == a)
        assert ev.bsccs == [frozenset(cycle)]
        assert ev.reach_probs == pytest.approx([1.0], abs=1e-12)
        assert ev.gains == [[pytest.approx(gain, rel=1e-12), 0.0]]
        assert ev.values == pytest.approx([gain, total], rel=1e-12)

    def test_matches_independent_evaluation(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            m, objectives = random_valid_instance(rng, n_lra=1, n_total=1,
                                                  max_states=8)
            p = normalize_query(m, objectives)
            strategies = list(all_strategies(p.model))
            idx = rng.choice(len(strategies), size=min(4, len(strategies)),
                             replace=False)
            for i in idx:
                sigma = strategies[int(i)]
                got = evaluate_strategy(p.model, sigma, p.objectives).values
                want = chain_eval(p.model, sigma, p.objectives)
                for g, w in zip(got, want):
                    if math.isinf(w):
                        assert g == w
                    else:
                        assert g == pytest.approx(w, abs=1e-9, rel=1e-9)


class TestGather:
    """Linear systems and row blocks are gathered from a model's edge
    arrays; each gather must equal scipy's fancy indexing of the kernel
    matrix built from those arrays, entry for entry."""

    @staticmethod
    def blocks(rng):
        """Seeded random models with their kernel matrices, random row and
        column selections (rows in any order, columns ascending) and a row to
        drop."""
        for _ in range(80):
            fl = flat(random_ma(rng, max_states=10, max_actions=3))
            K = kernel_matrix(fl)
            rows = rng.choice(K.shape[0], size=int(rng.integers(1, K.shape[0] + 1)))
            cols = np.sort(rng.choice(K.shape[1], size=int(rng.integers(1, K.shape[1] + 1)),
                                      replace=False))
            yield fl, K, rows, cols, int(rng.integers(len(rows)))

    def test_entries_match_scipy_indexing(self):
        empty_rows = 0
        for fl, K, rows, cols, drop in self.blocks(np.random.default_rng(57)):
            block = K[rows][:, cols]
            for sub, (pos, col, val) in ((block, _block(fl, rows, cols)),
                                         (K[rows], _block(fl, rows))):
                # the same entries in the same stored order
                assert np.array_equal(pos, np.repeat(np.arange(len(rows)), np.diff(sub.indptr)))
                assert np.array_equal(col, sub.indices)
                assert np.array_equal(val, sub.data)
            empty_rows += int((np.diff(block.indptr) == 0).sum())
            # one row dropped, as the bias system drops its pinned row
            pos, col, val = _block(fl, rows, cols)
            dense = block.toarray()
            dense[drop] = 0.0
            got = np.zeros_like(dense)
            got[pos[pos != drop], col[pos != drop]] = val[pos != drop]
            assert np.array_equal(got, dense)
        assert empty_rows > 0  # rows with no entry inside the columns occur

    def test_gain_bias_matches_bordered_system(self):
        # gain and bias of every bottom SCC with a Markovian state, against
        # the bordered system [[I - P, tau], [e_p^T, 0]] (h, g) = (b, 0) on
        # scipy-indexed blocks, p the first state with tau > 0
        rng = np.random.default_rng(58)
        checked = 0
        for _ in range(60):
            m = random_ma(rng, max_states=10)
            ev = evaluate_strategy(m, {s: 0 for s in range(m.n_states)}, [])
            fl = flat(m)
            K, chosen = kernel_matrix(fl), fl.ptr[:-1]
            tau = np.divide(1.0, fl.rates, out=np.zeros(m.n_states), where=fl.markovian)
            for b in ev.bsccs:
                b = np.array(sorted(b))
                if not (tau[b] > 0).any():
                    continue
                n, p = len(b), int(np.flatnonzero(tau[b] > 0)[0])
                A = np.zeros((n + 1, n + 1))
                A[:n, :n] = np.eye(n) - K[chosen[b]][:, b].toarray()
                A[:n, n], A[n, p] = tau[b], 1.0
                rhs = rng.standard_normal(n)
                want = np.linalg.solve(A, np.append(rhs, 0.0))
                g, h = _gain_bias(fl, chosen, b, tau)(rhs)
                scale = max(1.0, float(np.max(np.abs(want))))
                assert abs(g - want[n]) <= 1e-12 * scale
                assert h[p] == 0.0
                assert np.max(np.abs(h - want[:n])) <= 1e-12 * scale
                checked += n > 1
        assert checked >= 10

    def test_singular_systems_raise_solver_error(self):
        # a zero row in I - Q: state 0 loops with probability 1
        with pytest.raises(SolverError, match=r"singular 2 x 2 system \(dense LU\)"):
            _solver(2, np.array([0, 1]), np.array([0, 0]), np.array([1.0, 0.5]))(np.ones(2))
        n = _DENSE_LIMIT + 1
        with pytest.raises(SolverError, match=rf"singular {n} x {n} system \(sparse LU\)"):
            _solver(n, np.array([0]), np.array([0]), np.array([1.0]))

    @pytest.mark.parametrize("n_tail", [600, _DENSE_LIMIT + 1, _DENSE_LIMIT])
    def test_solver_matches_spsolve(self, n_tail):
        # the tail of cycle_with_tail under its strategy: above the dense
        # limit (sparse LU), and at it (LAPACK)
        m, _, sigma = cycle_with_tail(n_tail=n_tail, n_cycle=50)
        fl = flat(m)
        chosen, tail = fl.ptr[:-1].copy(), np.arange(n_tail)
        for s, a in sigma.items():
            chosen[s] += a
        assert (n_tail > _DENSE_LIMIT) == (n_tail != _DENSE_LIMIT)
        b = np.random.default_rng(59).standard_normal(n_tail)
        got = _solver(n_tail, *_block(fl, chosen[tail], tail))(b)
        Q = kernel_matrix(fl)[chosen[tail]][:, tail]
        want = spsolve((identity(n_tail) - Q).tocsc(), b)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))


class TestDenseRoute:
    """Systems of up to _DENSE_LIMIT unknowns: LAPACK's getrf once, when the
    solver is built, and one getrs per right-hand side."""

    @staticmethod
    def system(rng, n):
        """A random substochastic block with repeated (row, column) places:
        up to 8 entries per row, each row's mass at most 0.95."""
        k = rng.integers(0, 9, size=n)
        r, c = np.repeat(np.arange(n), k), rng.integers(0, n, size=int(k.sum()))
        v = rng.random(len(r))
        return r, c, v * 0.95 / np.maximum(np.bincount(r, v, n), 1.0)[r]

    def test_factors_once(self, monkeypatch):
        calls, getrf = [], moma.solvers.dgetrf

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return getrf(a, *args, **kwargs)
        monkeypatch.setattr(moma.solvers, "dgetrf", counted)
        rng, n = np.random.default_rng(64), _DENSE_LIMIT
        r, c, v = self.system(rng, n)
        A = np.eye(n)
        np.subtract.at(A, (r, c), v)
        solve = _solver(n, r, c, v)
        assert calls == [(n, n)]
        for _ in range(5):
            b = rng.standard_normal(n)
            assert np.max(np.abs(A @ solve(b) - b)) <= 1e-12 * max(1.0, float(np.max(np.abs(b))))
        assert calls == [(n, n)]

    def test_singular_system_raises_at_build(self):
        # state 0 loops with probability 1: a zero row of I - Q
        n = _DENSE_LIMIT
        r, c, v = self.system(np.random.default_rng(65), n)
        keep = r != 0
        with pytest.raises(SolverError, match=rf"singular {n} x {n} system \(dense LU\)"):
            _solver(n, np.r_[0, r[keep]], np.r_[0, c[keep]], np.r_[1.0, v[keep]])

    def test_agrees_with_numpy_solve(self):
        # scipy's and numpy's LAPACK may round differently in the last bits
        rng = np.random.default_rng(66)
        repeats = 0
        for _ in range(500):
            n = int(rng.integers(1, _DENSE_LIMIT + 1))
            r, c, v = self.system(rng, n)
            repeats += len(r) - len(np.unique(r * n + c))
            A = np.eye(n)
            np.subtract.at(A, (r, c), v)
            b = rng.standard_normal(n)
            want = np.linalg.solve(A, b)
            got = _solver(n, r, c, v)(b)
            assert np.max(np.abs(got - want)) <= 1e-13 * float(np.max(np.abs(want)))
        assert repeats > 0

    def test_empty_system(self, capfd):
        # LAPACK rejects a 0 x 0 matrix; a total-reward structure whose
        # initial state is the target has no unknowns
        empty = np.zeros(0, dtype=np.int64)
        assert _solver(0, empty, empty, np.zeros(0))(np.zeros(0)).shape == (0,)
        m = MarkovAutomaton([1.0], [[((0, 1.0),)]], initial=0,
                            rewards={"r": RewardAssignment("r")})
        st = moma.solvers.total_structure(m, [], 0)
        assert len(st.active) == 0 and st.solve(np.zeros(0)).shape == (0,)
        assert max_total_reward(m, m.rewards["r"], bottom_state=0).value == 0.0
        assert capfd.readouterr().err == ""


class TestDot:
    """_dot, the solve path's one CSR product, equals scipy's M @ x bit for
    bit: each row summed from 0.0 in stored order."""

    def test_bit_equal_to_scipy(self):
        rng = np.random.default_rng(63)
        empty_rows = 0
        for i in range(300):
            n_rows, n_cols = 1 if i % 5 == 0 else int(rng.integers(2, 40)), int(rng.integers(1, 40))
            counts = rng.integers(0, min(n_cols, 12) + 1, size=n_rows)
            # each row's columns in random order, so stored order is not sorted order
            cols = np.concatenate([rng.permutation(n_cols)[:k] for k in counts]).astype(np.int64)
            vals = rng.choice([-1.0, 1.0], len(cols)) * 10.0 ** rng.uniform(-12, 12, len(cols))
            x = rng.choice([-1.0, 1.0], n_cols) * 10.0 ** rng.uniform(-12, 12, n_cols)
            x[rng.random(n_cols) < 0.1] = -0.0
            M = csr_matrix((vals, cols, _ptr(counts)), shape=(n_rows, n_cols))
            got = _dot((np.repeat(np.arange(n_rows), counts), M.indices, M.data), x, n_rows)
            want = M @ x
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
            empty_rows += int((counts == 0).sum())
        assert empty_rows > 0


class TestNoSparseIndexing:
    """The solve path gathers every system and row block from a model's edge
    arrays: it never indexes or slices a scipy sparse matrix."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        for cls in (csr_matrix, csc_matrix):
            def counted(self, key, index=cls.__getitem__):
                calls.append(key)
                return index(self, key)
            monkeypatch.setattr(cls, "__getitem__", counted)
        return calls

    def test_weighted_solves_and_evaluation(self, calls):
        kernel_matrix(flat(cycle_with_tail(n_tail=20, n_cycle=20)[0]))[np.arange(2)]
        assert len(calls) == 1  # the counter sees indexing
        calls.clear()
        rng = np.random.default_rng(61)
        for _ in range(15):
            m, objectives = random_valid_instance(rng, n_lra=1, n_total=1)
            prep = prepare_weighted(normalize_query(m, objectives))
            for w in ([1.0, 0.0], [0.0, 1.0], [0.5, 0.5]):
                optimize_weighted(prep, np.array(w))
        m, objectives, sigma = cycle_with_tail()
        evaluate_strategy(m, sigma, objectives)
        assert calls == []


class TestNoSparseProducts:
    """The solve path multiplies by kernel rows through _dot: a weighted
    solve makes no scipy sparse matrix-vector product."""

    @pytest.fixture
    def products(self, monkeypatch):
        products = []
        for cls in (csr_matrix, csc_matrix):
            def counted(self, other, product=cls.__matmul__):
                products.append(self.shape)
                return product(self, other)
            monkeypatch.setattr(cls, "__matmul__", counted)
        return products

    def test_weighted_solves(self, products):
        kernel_matrix(flat(cycle_with_tail(n_tail=20, n_cycle=20)[0])) @ np.ones(40)
        assert len(products) == 1  # the counter sees products
        products.clear()
        rng = np.random.default_rng(62)
        for _ in range(15):
            m, objectives = random_valid_instance(rng, n_lra=1, n_total=1)
            prep = prepare_weighted(normalize_query(m, objectives))
            for w in ([1.0, 0.0], [0.0, 1.0], [0.5, 0.5]):
                optimize_weighted(prep, np.array(w))
        # above the dense limit, the total solve takes the sparse LU route
        m, objectives = layered_ma(np.random.default_rng(5), n=600)
        prep = prepare_weighted(normalize_query(m, objectives))
        for w in ([1.0, 0.0], [0.5, 0.5]):
            optimize_weighted(prep, np.array(w))
        assert max(len(st.active) for st in prep.structures.values()) > _DENSE_LIMIT
        assert products == []


def repeat_successors(m: MarkovAutomaton) -> MarkovAutomaton:
    """m with every edge (t, p) listed twice in its distribution, as (t, p/4)
    among the first copies and (t, 3p/4) among the second: rows that repeat
    every successor, and whose merged rows are m's when p/4 and 3p/4 add up
    to p exactly (as for dyadic p).  Its rewards are m's, each transition
    reward on both copies of its edge."""
    structure, edge_from, k = [], [], 0
    for dists in choices(m):
        structure.append([tuple((t, p / 4) for t, p in d) + tuple((t, 0.75 * p) for t, p in d)
                          for d in dists])
        for d in dists:
            edge_from += 2 * list(range(k, k + len(d)))
            k += len(d)
    m2 = MarkovAutomaton(m.rates, structure, initial=m.initial)
    return m2.with_rewards({
        name: RewardAssignment.from_vectors(flat(m2), name, r.vectors(m)[0],
                                            r.vectors(m)[1][edge_from])
        for name, r in m.rewards.items()})


class TestRepeatedSuccessors:
    """A row that lists a successor twice means the merged row: every solver
    adds the repeats up, on the dense route and the sparse one."""

    @staticmethod
    def close(a, b):
        assert a == b or abs(a - b) <= 1e-12 * max(1.0, abs(b)), (a, b)

    def test_bscc_gain(self):
        # the successors 2 and 0 repeat with probabilities that are not dyadic
        rates = [1.0, 2.0, 3.0]
        merged = [[((1, 0.5), (2, 0.5))], [((2, 0.6), (0, 0.4))], [((0, 1.0),)]]
        split = [[((1, 0.5), (2, 0.5))], [((2, 0.3), (0, 0.4), (2, 0.3))],
                 [((0, 0.3), (0, 0.7))]]
        r = RewardAssignment("r", {0: 1.0, 1: 2.0, 2: 5.0}, {})
        want = bscc_gain(MarkovAutomaton(rates, merged, initial=0), r)
        self.close(bscc_gain(MarkovAutomaton(rates, split, initial=0), r), want)
        rng = np.random.default_rng(64)
        for _ in range(20):
            m = ring_ma(rng, 12)
            chain = MarkovAutomaton(m.rates, [d[:1] for d in choices(m)], initial=0,
                                    rewards=m.rewards)
            split = repeat_successors(chain)
            for name, r in chain.rewards.items():
                self.close(bscc_gain(split, split.rewards[name]), bscc_gain(chain, r))

    def test_evaluate_strategy(self):
        rng = np.random.default_rng(65)
        cases = [cycle_with_tail()]  # above the dense limit: sparse LU
        for _ in range(40):
            m, objectives = random_valid_instance(rng, n_lra=1, n_total=1)
            cases.append((m, objectives, {s: int(rng.integers(len(d)))
                                          for s, d in enumerate(choices(m))}))
        for m, objectives, sigma in cases:
            ev = evaluate_strategy(m, sigma, objectives)
            ev2 = evaluate_strategy(repeat_successors(m), sigma, objectives)
            assert ev2.bsccs == ev.bsccs
            for a, b in zip(ev2.reach_probs + ev2.values, ev.reach_probs + ev.values):
                self.close(a, b)

    def test_mec_lra(self):
        rng = np.random.default_rng(66)
        solved = 0
        for _ in range(40):
            m, _ = random_valid_instance(rng, n_lra=1, n_total=0)
            for c in mec_decomposition(m):
                sub = sub_ma(m, c)
                if not flat(sub).markovian.any():
                    continue
                split = repeat_successors(sub)
                for name, r in sub.rewards.items():
                    sol = mec_lra(sub, r, eps=1e-9)
                    sol2 = mec_lra(split, split.rewards[name], eps=1e-9)
                    self.close(sol2.lower, sol.lower)
                    self.close(sol2.upper, sol.upper)
                    assert sol2.strategy == sol.strategy
                    solved += 1
        assert solved >= 20

    def test_max_total_reward(self):
        rng = np.random.default_rng(67)
        solved = 0
        for _ in range(60):
            m, bottom = random_ssp(rng)
            try:
                sol = max_total_reward(m, m.rewards["r"], bottom_state=bottom, eps=1e-9)
            except InfeasibleError:
                continue
            m2 = repeat_successors(m)
            sol2 = max_total_reward(m2, m2.rewards["r"], bottom_state=bottom, eps=1e-9)
            self.close(sol2.lower, sol.lower)
            self.close(sol2.upper, sol.upper)
            assert sol2.strategy == sol.strategy
            solved += 1
        assert solved >= 20


class TestMecLra:
    def test_zeno_bottom_scc_raises(self):
        # the first choice of state 0 loops on it, so the first strategy's
        # bottom SCC lets no time pass
        m = MarkovAutomaton([None, 1.0], [[((0, 1.0),), ((1, 1.0),)], [((0, 1.0),)]],
                            initial=0, rewards={"r": RewardAssignment("r", {1: 1.0}, {})})
        for _ in range(3):  # the verdict cached with the component's frame raises again
            with pytest.raises(SolverError, match="without Markovian state .* iteration 1"):
                mec_lra(m, m.rewards["r"])
        assert flat(m) in moma.solvers._FRAMES

    def test_fig1_components(self, fig1):
        z = zero_mecs(fig1, [fig1.rewards["R2"]])
        big = sub_ma(fig1, z[0])
        sol = mec_lra(big, big.rewards["R1"], eps=1e-8)
        assert sol.value == pytest.approx(4.0, abs=1e-6)
        assert sol.lower <= 4.0 <= sol.upper + 1e-12
        # its strategy plays alpha at the fork
        assert sol.strategy == {1: 0}
        small = sub_ma(fig1, z[1])
        sol2 = mec_lra(small, small.rewards["R1"], eps=1e-8)
        assert sol2.value == pytest.approx(2.0, abs=1e-6)

    def test_negative_gain_allowed(self):
        m = MarkovAutomaton([1.0], [[((0, 1.0),)]], initial=0,
                            rewards={"r": RewardAssignment("r", {0: -1.5}, {})})
        sol = mec_lra(m, m.rewards["r"], eps=1e-8)
        assert sol.value == pytest.approx(-1.5, abs=1e-6)

    def test_zeno_component_rejected(self):
        m = MarkovAutomaton([None], [[((0, 1.0),)]], initial=0,
                            rewards={"r": RewardAssignment("r")})
        for _ in range(3):  # no frame is kept, so every call checks again
            with pytest.raises(ModelError, match="no Markovian state"):
                mec_lra(m, m.rewards["r"])
        assert flat(m) not in moma.solvers._FRAMES

    def test_matches_enumeration(self):
        rng = np.random.default_rng(32)
        eps = 1e-7
        checked = 0
        while checked < 40:
            m, objectives = random_valid_instance(rng, n_lra=1, n_total=0,
                                                  max_states=6)
            p = normalize_query(m, objectives)
            for c in mec_decomposition(p.model):
                if not c.markovian_states:
                    continue
                sub = sub_ma(p.model, c)
                sol = mec_lra(sub, sub.rewards[p.objectives[0].reward], eps=eps)
                best = max(
                    evaluate_strategy(sub, sigma, [lra_obj(p.objectives[0].reward)]).values[0]
                    for sigma in all_strategies(sub))
                assert abs(sol.value - best) <= 2 * eps * max(1.0, abs(best))
                checked += 1

    def test_scaling_monotonicity(self):
        rng = np.random.default_rng(33)
        eps = 1e-7
        checked = 0
        while checked < 10:
            m, objectives = random_valid_instance(rng, n_lra=1, n_total=0,
                                                  max_states=6)
            p = normalize_query(m, objectives)
            comps = [c for c in mec_decomposition(p.model) if c.markovian_states]
            if not comps:
                continue
            sub = sub_ma(p.model, comps[0])
            r = sub.rewards[p.objectives[0].reward]
            c = 3.0
            v1 = mec_lra(sub, r, eps=eps)
            s = weighted_reward_sum("s", [(c, r)])
            v2 = mec_lra(sub.with_rewards({"s": s}), s, eps=eps)
            tol = 2 * eps * max(1.0, c * max(1.0, abs(v1.value)))
            assert abs(v2.value - c * v1.value) <= tol
            checked += 1


class TestMecLraRing:
    """The ring family: one large, nearly periodic end component."""

    def test_small_ring_matches_enumeration(self):
        m = ring_ma(np.random.default_rng(40), 40)
        eps = 1e-8
        sol = mec_lra(m, m.rewards["gain"], eps=eps)
        best = max(evaluate_strategy(m, sigma, [lra_obj("gain")]).values[0]
                   for sigma in all_strategies(m))
        assert sol.lower - 1e-12 <= best <= sol.upper + 1e-12
        assert sol.upper - sol.lower <= eps * max(1.0, abs(best))
        assert evaluate_strategy(m, sol.strategy, [lra_obj("gain")]).values[0] \
            == pytest.approx(best, abs=1e-9)

    def test_unreachable_precision_names_the_bracket(self):
        m = ring_ma(np.random.default_rng(40), 40)
        with pytest.raises(SolverError, match=r"bracket \[.+, .+\] wider than 1e-30 "
                                              r"after \d+ strategy iterations"):
            mec_lra(m, m.rewards["gain"], eps=1e-30)

    def test_ring_4000_brackets_lp_optimum_in_seconds(self):
        # uniformized value iteration gave up here after 2M ticks (389 s)
        m = ring_ma(np.random.default_rng(4000), 4000)
        start = time.perf_counter()
        sol = mec_lra(m, m.rewards["gain"], eps=1e-6)
        elapsed = time.perf_counter() - start
        best = ec_lra_lp(m, m.rewards["gain"])
        tol = 1e-7 * max(1.0, abs(best))  # the LP solver's accuracy
        assert sol.lower - tol <= best <= sol.upper + tol
        assert sol.upper - sol.lower <= 1e-6 * max(1.0, abs(best))
        assert elapsed < 60.0


class TestMecLraMultichain:
    """The first-choice strategy has two bottom SCCs, {0, 1} with gain 1 and
    {2, 3} with gain 5; the better one is reached only through state 1,
    whose first choice leads back to 0."""

    @staticmethod
    def component(initial=0):
        r = RewardAssignment("r", {0: 1.0, 2: 5.0}, {})
        return MarkovAutomaton(
            [1.0, None, 1.0, None],
            [[((1, 1.0),)], [((0, 1.0),), ((2, 1.0),)],
             [((3, 1.0),)], [((2, 1.0),), ((0, 1.0),)]],
            initial=initial, rewards={"r": r})

    def test_matches_enumeration_and_is_deterministic(self):
        first_choices = {1: 0, 3: 0}
        for initial, gain in ((0, 1.0), (2, 5.0)):
            ev = evaluate_strategy(self.component(initial), first_choices, [lra_obj("r")])
            assert ev.values == [gain] and len(ev.bsccs) == 1
        m = self.component()
        eps = 1e-9
        sol = mec_lra(m, m.rewards["r"], eps=eps)
        best = max(evaluate_strategy(m, sigma, [lra_obj("r")]).values[0]
                   for sigma in all_strategies(m))
        assert best == 5.0
        assert sol.lower - 1e-12 <= best <= sol.upper + 1e-12
        assert sol.upper - sol.lower <= eps * best
        assert sol.strategy == {1: 1, 3: 0}
        again = mec_lra(self.component(), m.rewards["r"], eps=eps)
        assert again.strategy == sol.strategy
        assert (again.lower, again.upper) == (sol.lower, sol.upper)


class TestMecLraFrame:
    """The weight-independent frame of mec_lra, built once per component."""

    @staticmethod
    def bits(sol):
        return (float(sol.value).hex(), float(sol.lower).hex(), float(sol.upper).hex(),
                sorted(sol.strategy.items()), sol.rounds)

    def test_shared_frame_matches_fresh_components(self):
        # rewards A, B, A on one sub answer bit for bit as fresh copies do
        rng = np.random.default_rng(181)
        several_rounds = 0
        for _ in range(60):
            m, objectives = random_valid_instance(rng, n_lra=2, n_total=0, max_states=7)
            p = normalize_query(m, objectives)
            a, b = (o.reward for o in p.objectives)
            for c in mec_decomposition(p.model):
                if not c.markovian_states:
                    continue
                sub = sub_ma(p.model, c)
                got = [self.bits(mec_lra(sub, sub.rewards[x])) for x in (a, b, a)]
                fresh = [self.bits(mec_lra(f, f.rewards[x]))
                         for f, x in zip([sub_ma(p.model, c) for _ in range(3)], (a, b, a))]
                assert got == fresh and got[0] == got[2]
                several_rounds += max(got[0][4], got[1][4]) >= 2
        assert several_rounds > 10
        # the first strategies of random components have one bottom SCC, so
        # the routing path needs the hand-made component with two; r and r2
        # route to different ones, from the same cached bottom-SCC solvers
        m, fresh = TestMecLraMultichain.component(), TestMecLraMultichain.component()
        r2 = RewardAssignment("r2", {0: 3.0}, {})
        got = [self.bits(mec_lra(m, x)) for x in (m.rewards["r"], r2, m.rewards["r"])]
        assert got[0] == got[2] == self.bits(mec_lra(fresh, fresh.rewards["r"]))
        assert got[1][3] == [(1, 0), (3, 1)]
        first = moma.solvers._FRAMES[flat(m)].first
        assert len(first.members) == len(first.bscc) == 2 and first.solve is None

    def test_frame_dies_with_the_component(self):
        def solved():
            m = TestMecLraMultichain.component()
            mec_lra(m, m.rewards["r"])
            return weakref.ref(flat(m)), weakref.ref(moma.solvers._FRAMES[flat(m)])

        gc.collect()
        before = len(moma.solvers._FRAMES)
        fl, frame = solved()
        gc.collect()
        assert fl() is None and frame() is None
        assert len(moma.solvers._FRAMES) == before


class TestNearOneFamily:
    """The near-one family (gen.near_one_dist): tiny probabilities next to
    ones that miss 1 by them, 200 draws of random_valid_instance at seed 1."""

    @staticmethod
    @functools.cache
    def draws():
        rng = np.random.default_rng(1)
        return [random_valid_instance(rng, n_lra=1, n_total=1, dist=near_one_dist)
                for _ in range(200)]

    @staticmethod
    @functools.cache
    def answers():
        """Per draw: its answer at ParetoQuery(1e-3), or the message of the
        SolverError it gave up with."""
        out = []
        for m, objectives in TestNearOneFamily.draws():
            try:
                out.append(answer_query(m, objectives, ParetoQuery(1e-3)))
            except SolverError as err:
                out.append(str(err))
        return out

    # answered draws whose (P, Q) fails the oracle check
    UNSOUND = {
        64: "the oracle's own evaluate_strategy returns an lra of 1.36e17",
        65: "a stored point with lra 1.00028 exceeds the same run's w = (1, 0) "
            "offset of 1.0000002",
        145: "a stored point exceeds the w = (1, 0) offset by 1.1e-4 (2.8e-8 relative)",
    }

    def test_answers_or_gives_up(self):
        gave_up = [msg for msg in self.answers() if isinstance(msg, str)]
        assert len(gave_up) <= 6
        assert not any("long-run average" in msg for msg in gave_up)

    def check_answer(self, d):
        res = self.answers()[d]
        if not isinstance(res, str):
            check_sandwich(res, oracle_points(*self.draws()[d])[1])

    def test_answers_are_sound(self):
        for d in range(len(self.draws())):
            if d not in self.UNSOUND:
                self.check_answer(d)

    @pytest.mark.parametrize("d", [pytest.param(d, marks=pytest.mark.xfail(
                                       strict=True, raises=AssertionError, reason=why))
                                   for d, why in UNSOUND.items()])
    def test_unsound_draw(self, d):
        self.check_answer(d)

    def test_singular_draws_raise_solver_error(self):
        # draws 14 and 181: a system of their strategies is exactly singular
        # in floating point; the solver names it instead of raising LinAlgError
        for d in (14, 181):
            prep = prepare_weighted(normalize_query(*self.draws()[d]))
            with pytest.raises(SolverError, match="singular"):
                optimize_weighted(prep, np.array([0.5, 0.5]))

    def test_two_state_chain_bracket(self):
        # draw 13's component: s1 leaves with 1e-11 per step and 1 - g is
        # about 2e-11, so the bracket closes only when the gain and the bias
        # come from one system
        m = MarkovAutomaton([3.0, 2.0], [[((0, 1e-6), (1, 0.999999))],
                                         [((0, 1e-11), (1, 0.99999999999))]], 0,
                            rewards={"r": RewardAssignment("r", {}, {(1, 0, 1): 0.5})})
        eps = 5e-7
        sol = mec_lra(m, m.rewards["r"], eps=eps)
        assert sol.upper - sol.lower <= eps
        assert sol.lower <= 0.9999999999833333 <= sol.upper


class TestMecLraNearTie:
    """Two choices of a probabilistic state tie up to 5e-13, less than the
    switching margin: strategy iteration keeps the first, and closing the
    instantaneous layer takes two sweeps."""

    def test_lower_is_attained_and_upper_covers_the_optimum(self):
        best = 1.0 + 5e-13
        m = MarkovAutomaton([1.0, None], [[((1, 1.0),)], [((0, 1.0),), ((0, 1.0),)]], 0,
                            rewards={"r": RewardAssignment("r", {}, {(1, 0, 0): 1.0,
                                                                     (1, 1, 0): best})})
        sol = mec_lra(m, m.rewards["r"], eps=1e-9)
        attained = evaluate_strategy(m, sol.strategy, [lra_obj("r")]).values[0]
        assert sol.strategy == {1: 0} and attained == 1.0
        assert sol.lower <= attained and sol.upper >= best


class TestMecLraNearZeno:
    """The near-Zeno family (gen.near_zeno_ma): the optimal action lets time
    pass only with probability p per step, from 1e-3 down to 1e-12."""

    @pytest.mark.parametrize("p", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_gain_one_is_bracketed_and_attained(self, p):
        m = near_zeno_ma(p)
        eps = 1e-6
        sol = mec_lra(m, m.rewards["r"], eps=eps)
        assert sol.lower - eps <= 1.0 <= sol.upper + eps
        assert evaluate_strategy(m, sol.strategy, [lra_obj("r")]).values[0] == \
            pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("p", [1e-3, 1e-6, 1e-9, 1e-12])
    def test_pareto_query_is_fast(self, p):
        t0 = time.monotonic()
        res = answer_query(near_zeno_ma(p), [lra_obj("r"), lra_obj("z")],
                           ParetoQuery(precision=1e-4))
        assert time.monotonic() - t0 < 1.0
        assert np.allclose(sorted(res.vertices), [[0.0, 1.0], [1.0, 0.0]], atol=1e-6)


class TestMecLraStrategy:
    def test_attains_the_lower_bound(self):
        # the criterion-6 draw: the returned strategy earns the bracket's
        # lower end, not only the value
        rng = np.random.default_rng(66)
        eps = 1e-7
        checked = 0
        while checked < 100:
            m, objectives = random_valid_instance(rng, n_lra=1, n_total=0, max_states=7)
            p = normalize_query(m, objectives)
            obj = [lra_obj(p.objectives[0].reward)]
            for c in mec_decomposition(p.model):
                if not c.markovian_states:
                    continue
                sub = sub_ma(p.model, c)
                sol = mec_lra(sub, sub.rewards[obj[0].reward], eps=eps)
                best = max(evaluate_strategy(sub, sigma, obj).values[0]
                           for sigma in all_strategies(sub))
                got = evaluate_strategy(sub, sol.strategy, obj).values[0]
                assert got >= sol.lower - 2 * eps * max(1.0, abs(best))
                checked += 1


def structures():
    """Total-reward structures of random_ssp models (the feasible ones among
    40) and of a 20-block scc_chain."""
    rng = np.random.default_rng(38)
    for m, bottom in [random_ssp(rng) for _ in range(40)] + \
            [scc_chain(np.random.default_rng(9100), blocks=20)]:
        try:
            yield moma.solvers.total_structure(
                m, moma.solvers.total_zero_ecs(m, m.rewards["r"], bottom), bottom)
        except InfeasibleError:
            continue


class TestMaxTotalReward:
    def test_simple_chain(self):
        m = MarkovAutomaton(
            [1.0, 1.0], [[((1, 1.0),)], [((1, 1.0),)]], initial=0,
            rewards={"r": RewardAssignment("r", {}, {(0, 0, 1): 3.0})})
        sol = max_total_reward(m, m.rewards["r"], bottom_state=1, eps=1e-6)
        assert sol.value == pytest.approx(3.0, abs=3e-6)
        assert sol.lower <= 3.0 <= sol.value
        assert sol.lower <= sol.value <= sol.upper + 1e-12

    def test_fig1_r2(self, fig1):
        # staying in a reward-free component is the bottom action of the
        # quotient that collapses it
        q = quotient(fig1, zero_mecs(fig1, [fig1.rewards["R2"]]), with_bottom=True)
        sol = max_total_reward(q.model, q.lift_reward(fig1.rewards["R2"], "R2@q"),
                               bottom_state=q.bottom_state, eps=1e-6)
        assert sol.value == pytest.approx(0.0, abs=1e-6)
        assert sol.value >= 0.0
        assert sol.strategy[q.state_map[2]] == 1

    def test_constrained_pays_to_leave(self):
        m = MarkovAutomaton(
            [1.0, None, 1.0],
            [[((1, 1.0),)], [((0, 1.0),), ((2, 1.0),)], [((2, 1.0),)]],
            initial=0,
            rewards={"r": RewardAssignment("r", {}, {(1, 1, 2): -5.0})})
        forced = max_total_reward(m, m.rewards["r"], bottom_state=2)
        assert forced.value == pytest.approx(-5.0, abs=1e-5)
        assert forced.strategy[1] == 1

    def test_constrained_infeasible(self):
        m = MarkovAutomaton(
            [1.0, None, 1.0],
            [[((1, 1.0),)], [((0, 1.0),)], [((2, 1.0),)]],
            initial=0,
            rewards={"r": RewardAssignment("r")})
        with pytest.raises(InfeasibleError):
            max_total_reward(m, m.rewards["r"], bottom_state=2)

    def test_nonnegative_acyclic_is_bellman_fixpoint(self):
        rng = np.random.default_rng(34)
        for _ in range(20):
            n = int(rng.integers(3, 7))
            rates = []
            structure = []
            trew = {}
            for s in range(n - 1):
                rates.append(None)
                k = int(rng.integers(1, 3))
                ch = []
                for a in range(k):
                    succs = sorted(set(int(t) for t in
                                       rng.integers(s + 1, n, size=int(rng.integers(1, 3)))))
                    weights = np.ones(len(succs)) / len(succs)
                    ch.append(tuple((t, float(w)) for t, w in zip(succs, weights)))
                    for t, _ in ch[-1]:
                        trew[(s, a, t)] = float(rng.integers(0, 4))
                structure.append(ch)
            rates.append(1.0)
            structure.append([((n - 1, 1.0),)])
            m = MarkovAutomaton(rates, structure, initial=0,
                                rewards={"r": RewardAssignment("r", {}, trew)})
            sol = max_total_reward(m, m.rewards["r"], bottom_state=n - 1, eps=1e-9)
            # hand-rolled Bellman fixpoint, exact on a DAG after n sweeps
            v = np.zeros(n)
            for _ in range(n):
                nv = np.zeros(n)
                for s in range(n - 1):
                    nv[s] = max(
                        sum(p * (m.rewards["r"].transition_rewards.get((s, a, t), 0.0) + v[t])
                            for t, p in dist)
                        for a, dist in enumerate(choices(m)[s]))
                v = nv
            assert sol.value == pytest.approx(v[0], abs=1e-8)

    def test_scaling_monotonicity(self):
        m = MarkovAutomaton(
            [1.0, None, 1.0],
            [[((1, 1.0),)], [((2, 1.0),), ((2, 1.0),)], [((2, 1.0),)]],
            initial=0,
            rewards={"r": RewardAssignment("r", {}, {(1, 1, 2): -5.0, (0, 0, 1): 2.0,
                                                     (1, 0, 2): -1.0})})
        eps = 1e-8
        base = max_total_reward(m, m.rewards["r"], bottom_state=2, eps=eps)
        scaled = max_total_reward(m, weighted_reward_sum("s", [(4.0, m.rewards["r"])]),
                                  bottom_state=2, eps=eps)
        # certified brackets must agree: 4 * [l, u] and [l', u'] overlap
        assert max(4.0 * base.lower, scaled.lower) <= \
            min(4.0 * base.upper, scaled.upper) + 1e-12

    @staticmethod
    def best_proper(m, bottom):
        """Largest total over the MD strategies that reach `bottom` almost
        surely (None when there is none), by enumeration."""
        best = None
        for sigma in all_strategies(m):
            ev = evaluate_strategy(m, sigma, [total_obj("r")])
            if all(b == {bottom} for b, p in zip(ev.bsccs, ev.reach_probs) if p > 0.0):
                best = ev.values[0] if best is None else max(best, ev.values[0])
        return best

    def test_several_improvement_rounds(self, monkeypatch):
        # the start strategy goes straight to the bottom state 3 from 0 and
        # 1; the first evaluation shows state 1's detour through 2 (worth 9),
        # state 0's detour through 1 pays only after 1 has switched
        m = MarkovAutomaton(
            [None, None, 1.0, 1.0],
            [[((3, 1.0),), ((1, 1.0),)], [((3, 1.0),), ((2, 1.0),)],
             [((3, 1.0),)], [((3, 1.0),)]],
            initial=0,
            rewards={"r": RewardAssignment("r", {}, {(0, 1, 1): -1.0, (1, 1, 2): -1.0,
                                                     (2, 0, 3): 10.0})})
        evaluations = []
        solver = moma.solvers._solver

        def counted(n, r, c, v, natural=False):
            evaluations.append(n)
            return solver(n, r, c, v, natural)

        monkeypatch.setattr(moma.solvers, "_solver", counted)
        sol = max_total_reward(m, m.rewards["r"], bottom_state=3, eps=1e-9)
        assert len(evaluations) == 3  # two rounds switch, the third settles
        best = self.best_proper(m, 3)
        assert best == 8.0
        assert sol.lower - 1e-12 <= best <= sol.upper + 1e-12
        assert sol.strategy == {0: 1, 1: 1}

    def test_random_instances_match_enumeration(self):
        rng = np.random.default_rng(35)
        eps = 1e-8
        feasible = 0
        for _ in range(60):
            m, bottom = random_ssp(rng)
            best = self.best_proper(m, bottom)
            if best is None:
                with pytest.raises(InfeasibleError):
                    max_total_reward(m, m.rewards["r"], bottom_state=bottom, eps=eps)
                continue
            sol = max_total_reward(m, m.rewards["r"], bottom_state=bottom, eps=eps)
            tol = 1e-9 * max(1.0, abs(best))
            assert sol.lower - tol <= best <= sol.upper + tol
            # the certificate's slack is eps relative to the largest value of
            # the region, which here is at most a few times the initial one
            assert sol.upper - sol.lower <= 10 * eps * max(1.0, abs(best))
            ev = evaluate_strategy(m, sol.strategy, [total_obj("r")])
            assert ev.values[0] == pytest.approx(sol.lower, abs=tol)
            feasible += 1
        assert feasible >= 30

    def test_structure_levels_follow_allowed_edges(self):
        # the levels number the states in order; every allowed edge keeps or
        # lowers the level and lowers it between strongly connected
        # components; the rows are the allowed choices state by state, and
        # each row holds its edges to active states in edge order
        for st in structures():
            n, fl = len(st.active), flat(st.q.model)
            level = np.repeat(np.arange(len(st.levels) - 1), np.diff(st.levels))
            assert st.levels[0] == 0 and len(level) == n
            assert (np.diff(st.active)[np.diff(level) == 0] > 0).all()  # ascending in a level
            state = np.repeat(np.arange(n), np.diff(st.segs))
            assert st.segs[0] == 0 and len(state) == len(st.rows)
            assert np.array_equal(fl.choice_state[st.rows], st.active[state])
            number = np.full(len(fl.markovian), -1)
            number[st.active] = np.arange(n)
            pos, e = fl.edges(st.rows)
            keep = fl.succ[e] != st.target
            erow, dst, val = st.entries
            assert np.array_equal(erow, pos[keep])
            assert np.array_equal(np.diff(st.eptr), np.bincount(pos[keep], minlength=len(st.rows)))
            assert np.array_equal(dst, number[fl.succ[e[keep]]])
            assert np.array_equal(val, fl.prob[e[keep]])
            src = state[erow]
            labels = moma.model.strong_components(n, src, dst)
            assert (level[dst] <= level[src]).all()
            cross = labels[src] != labels[dst]
            assert (level[dst[cross]] < level[src[cross]]).all()

    def test_level_order_makes_systems_block_lower_triangular(self):
        # in the structure's numbering, each row of I - K[pick] has its
        # entries in the columns of its own level or of levels before it
        for st in structures():
            n = len(st.active)
            erow, col, _ = st.entries
            src = np.repeat(np.arange(n), np.diff(st.segs))[erow]
            level = moma.model.scc_levels(n, src, col)
            assert (np.diff(level) >= 0).all()
            assert np.array_equal(st.levels, np.searchsorted(level, np.arange(level.max() + 2)))
            end = np.searchsorted(level, level, side="right")
            r, c, _ = _block(flat(st.q.model), st.rows[st.pick], st.active)
            assert (c < end[r]).all()

    def test_level_bellman_equals_global_check(self, monkeypatch):
        # every level's Bellman product in the certificate search is scipy's
        # product of the structure's matrix on the level's rows, bit for bit,
        # as is the global check's
        products, dot = [], moma.solvers._dot

        def recorded(entries, x, n):
            out = dot(entries, x, n)
            products.append((entries, x.copy(), out))
            return out

        monkeypatch.setattr(moma.solvers, "_dot", recorded)
        level_products = 0
        for st in structures():
            products.clear()
            moma.solvers.solve_total(st, st.q.base.rewards["r"])
            K, (_, col, val), levels = structure_matrix(st), st.entries, []
            for lo, hi in zip(st.levels[:-1], st.levels[1:]):
                a, b = st.segs[lo], st.segs[hi]
                e = slice(st.eptr[a], st.eptr[b])
                levels.append((a, b, (st.lrow[e], col[e], val[e])))
            for entries, x, out in products:
                full = K @ x
                if entries is st.entries:  # the improvement step or the global check
                    assert np.array_equal(out, full)
                    continue
                # the level whose rows these entries are
                a, b = next((a, b) for a, b, own in levels
                            if all(map(np.array_equal, entries, own)))
                assert np.array_equal(out, full[a:b])
                level_products += 1
        assert level_products > 40

    def test_level_ordered_sparse_solve_matches_spsolve(self):
        # above the dense limit the pick system is factored in the
        # structure's numbering, which is level order
        m, objectives = layered_ma(np.random.default_rng(9000), n=1500)
        prep = prepare_weighted(normalize_query(m, objectives))
        optimize_weighted(prep, [0.5, 0.5])
        (st,) = prep.structures.values()
        n = len(st.active)
        assert n > _DENSE_LIMIT
        b = np.random.default_rng(60).standard_normal(n)
        got = _solver(n, *_block(flat(st.q.model), st.rows[st.pick], st.active), natural=True)(b)
        want = spsolve((identity(n) - structure_matrix(st)[st.pick]).tocsc(), b)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, float(np.max(np.abs(want))))

    def test_scc_chains_match_value_lp(self, monkeypatch):
        # deep chains of many small components, certified level by level;
        # a linear program over value variables gives the optimum apart
        found = []
        search = moma.solvers._inductive_upper

        def recorded(st, crew_v, L, eps):
            U, sweeps = search(st, crew_v, L, eps)
            found.append((st, crew_v, L, U, eps))
            return U, sweeps

        monkeypatch.setattr(moma.solvers, "_inductive_upper", recorded)
        for seed in range(6):
            m, bottom = scc_chain(np.random.default_rng(9100 + seed))
            assert 100 <= m.n_states <= 300
            sol = max_total_reward(m, m.rewards["r"], bottom_state=bottom, eps=1e-6)
            best = total_value_lp(m, m.rewards["r"], bottom)
            tol = 1e-9 * max(1.0, abs(best))
            assert sol.lower - tol <= best <= sol.upper + tol
            st, crew_v, L, U, eps = found[-1]
            assert len(st.levels) - 1 >= 40
            # the certificate is inductive, and the slack never exceeds
            # delta, the bracket the search starts from
            K = structure_matrix(st)
            assert (np.maximum.reduceat(crew_v + K @ U, st.segs[:-1]) <= U).all()
            delta = max(eps, 1e-9) * max(1.0, float(np.max(np.abs(L)))) * 0.5
            assert float(np.max(U - L)) <= delta + np.spacing(float(np.max(np.abs(U))))
            assert sol.sweeps < 3 * (len(st.levels) - 1)

    def test_improper_improvement_raises(self):
        # state 0's +1 self-loop beats its exit to the bottom state 1: positive
        # reward recurs, so no strategy reaching 1 is optimal
        m = MarkovAutomaton(
            [None, 1.0], [[((1, 1.0),), ((0, 1.0),)], [((1, 1.0),)]], initial=0,
            rewards={"r": RewardAssignment("r", {}, {(0, 1, 0): 1.0})})
        start = time.perf_counter()
        with pytest.raises(SolverError, match="positive reward 'r@q' recurs.*"
                                              "finiteness violated"):
            max_total_reward(m, m.rewards["r"], bottom_state=1)
        assert time.perf_counter() - start < 1.0

    def test_unreachable_precision_names_the_bracket(self):
        m = MarkovAutomaton(
            [1.0, None, 1.0],
            [[((1, 0.5), (2, 0.5))], [((0, 1.0),), ((2, 1.0),)], [((2, 1.0),)]],
            initial=0,
            rewards={"r": RewardAssignment("r", {0: -1.0}, {(1, 1, 2): -3.0})})
        with pytest.raises(SolverError, match=r"bracket \[.+, .+\] at the initial state "
                                              r"wider than 1e-30 after \d+ strategy "
                                              r"iterations"):
            max_total_reward(m, m.rewards["r"], bottom_state=2, eps=1e-30)


class TestTotalStructureReuse:
    """The weight-independent state of a total-reward solve, its round-one
    solver and its level spans, is built once per structure."""

    @staticmethod
    def bits(sol):
        return (float(sol.value).hex(), float(sol.lower).hex(), float(sol.upper).hex(),
                sorted(sol.strategy.items()), sol.rounds, sol.sweeps)

    @pytest.fixture
    def solves(self, monkeypatch):
        """Every total solve of optimize_weighted: its structure and bits."""
        solves = []

        def recorded(st, r, eps=1e-6, solve=moma.weighted.solve_total):
            sol = solve(st, r, eps)
            solves.append((st, self.bits(sol)))
            return sol
        monkeypatch.setattr(moma.weighted, "solve_total", recorded)
        return solves

    def check(self, solves, m, objectives, weights):
        """Weights A, B, A on one prep answer bit for bit as on fresh preps;
        returns whether all three ran on one structure, and their most rounds."""
        prep = prepare_weighted(normalize_query(m, objectives))
        for w in weights:
            optimize_weighted(prep, np.array(w))
        shared = solves[:]
        solves.clear()
        for w in weights:
            optimize_weighted(prepare_weighted(normalize_query(m, objectives)), np.array(w))
        assert [b for _, b in shared] == [b for _, b in solves]
        assert shared[0] == shared[2]  # the same structure, the same answer
        assert len({id(st) for st, _ in solves}) == 3
        solves.clear()
        return len({id(st) for st, _ in shared}) == 1, max(b[4] for _, b in shared)

    def test_shared_structure_matches_fresh_ones(self, solves):
        weights = ([0.25, 0.75], [0.75, 0.25], [0.25, 0.75])
        rng = np.random.default_rng(64)
        one_structure = several_rounds = 0
        for _ in range(60):
            m, objectives = random_valid_instance(rng, n_lra=1, n_total=1)
            one, rounds = self.check(solves, m, objectives, weights)
            one_structure, several_rounds = one_structure + one, several_rounds + (rounds >= 2)
        assert one_structure > 50 and several_rounds >= 3
        # above the dense limit: the held solver is a sparse LU factor
        m, objectives = layered_ma(np.random.default_rng(5), n=600)
        prep = prepare_weighted(normalize_query(m, objectives))
        optimize_weighted(prep, np.array(weights[0]))
        assert len(solves.pop()[0].active) > _DENSE_LIMIT
        assert self.check(solves, m, objectives, weights)[0]

    def test_round_one_only_solves(self, monkeypatch):
        calls = []

        def counted(*args, solver=_solver, **kw):
            calls.append(args[0])
            return solver(*args, **kw)
        monkeypatch.setattr(moma.solvers, "_solver", counted)
        rounds = []
        for st in structures():
            assert len(calls) == 1  # the structure's own solver
            calls.clear()
            try:
                sol = moma.solvers.solve_total(st, st.q.base.rewards["r"])
            except SolverError:
                calls.clear()
                continue
            assert len(calls) == sol.rounds - 1
            rounds.append(sol.rounds)
            calls.clear()
        assert rounds.count(1) >= 5 and max(rounds) >= 3

    def test_structures_die_with_the_prep(self):
        def solved(m, objectives):
            prep = prepare_weighted(normalize_query(m, objectives))
            optimize_weighted(prep, np.array([0.5, 0.5]))
            return [(weakref.ref(st), weakref.ref(st.solve)) for st in prep.structures.values()]

        refs = solved(*layered_ma(np.random.default_rng(5), n=600))  # a sparse LU factor
        refs += solved(*random_valid_instance(np.random.default_rng(65)))  # a dense matrix
        gc.collect()
        assert len(refs) >= 2
        assert all(st() is None and solve() is None for st, solve in refs)


class TestReachToTotal:
    def test_pays_once(self, fig1):
        m2, fresh = reach_to_total(fig1, {4})
        total = sum(1 for v in fresh.transition_rewards.values() if v == 1.0)
        assert total == len(fresh.transition_rewards) and total > 0
        assert not fresh.state_rewards

    def test_goal_out_of_range(self, fig1):
        with pytest.raises(ModelError):
            reach_to_total(fig1, {99})
        with pytest.raises(ModelError):
            reach_to_total(fig1, set())

    def _reach_value(self, m, goal):
        p = normalize_query(m, [Objective("reach", "max", goal=frozenset(goal))])
        prep = prepare_weighted(p)
        return optimize_weighted(prep, [1.0], eps=1e-8).value

    def test_goal_is_initial(self, fig1):
        assert self._reach_value(fig1, {fig1.initial}) == pytest.approx(1.0, abs=1e-6)

    def test_goal_unreachable(self):
        m = MarkovAutomaton([1.0, 1.0], [[((0, 1.0),)], [((1, 1.0),)]], initial=0)
        assert self._reach_value(m, {1}) == pytest.approx(0.0, abs=1e-9)

    def test_fig1_reach_s5(self, fig1):
        assert self._reach_value(fig1, {4}) == pytest.approx(0.5, abs=1e-6)
