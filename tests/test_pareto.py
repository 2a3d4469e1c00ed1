import math
from collections import Counter
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moma import (AchievabilityQuery, ApproximationState, EndComponent,
                  MarkovAutomaton, ModelError, Objective, ParetoQuery,
                  QuantitativeQuery, RewardAssignment, SolverError, WeightedSolution, answer_query,
                  downward_hull, evaluate_strategy, mec_decomposition, normalize_query,
                  select_weight, validate_assumptions)
import moma.weighted
from moma import pareto, parse_model, serialize_model
from moma.model import Flat, flat
from moma.modelio import parse_objective

from gen import (facet_tuples, layered_ma, menu_doc, oracle_points, padded_downward_hull,
                 permuted_states, random_valid_instance, ref_facet_gaps, ref_select_normal)


def fake_solution(w, value, point, strategy=None):
    w = np.asarray(w, dtype=float)
    point = np.asarray(point, dtype=float)
    return WeightedSolution(w, float(value), point, strategy or {}, 0.0, [])


def extreme_points(pts):
    """Points not dominated by any convex mixture of the others (LP check)."""
    from scipy.optimize import linprog
    uniq = sorted({tuple(p) for p in pts})
    out = []
    for t in uniq:
        others = np.array([u for u in uniq if u != t], dtype=float)
        if len(others) == 0:
            out.append(t)
            continue
        k = len(others)
        res = linprog(c=np.zeros(k), A_ub=-others.T, b_ub=-np.array(t),
                      A_eq=np.ones((1, k)), b_eq=[1.0],
                      bounds=[(0.0, None)] * k, method="highs")
        if res.status != 0:
            out.append(t)
    return out


@pytest.fixture
def lp_calls(monkeypatch):
    """The calls a test makes to the LP solver the queries use, one entry each."""
    calls = []
    linprog = pareto.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return linprog(*args, **kwargs)

    monkeypatch.setattr(pareto, "linprog", counted)
    return calls


def menu_instance(seed, stages, actions, directions):
    """`gen.menu_doc` parsed: the model and its objectives."""
    doc, objectives = menu_doc(np.random.default_rng(seed), stages, actions, directions)
    m = parse_model(doc)
    return m, [parse_objective(o, m) for o in objectives]


class TestDownwardHull:
    def test_two_point_front(self):
        facets = facet_tuples(downward_hull([np.array([4.0, -2.0]), np.array([3.0, 0.0])], 2))
        finite = [f for f in facets if not f[3]]
        assert len(finite) == 1
        normal, offset, vertices, _ = finite[0]
        assert normal == pytest.approx([2.0 / 3.0, 1.0 / 3.0])
        assert offset == pytest.approx(2.0)
        assert sorted(vertices) == [0, 1]
        caps = {tuple(n): o for n, o, _, degenerate in facets if degenerate}
        assert caps[(1.0, 0.0)] == pytest.approx(4.0)
        assert caps[(0.0, 1.0)] == pytest.approx(0.0)

    def test_single_point_is_two_caps(self):
        hull = downward_hull([np.array([1.0, 1.0])], 2)
        assert hull.degenerate.all()
        assert sorted(map(tuple, hull.normals.tolist())) == [(0.0, 1.0), (1.0, 0.0)]
        assert hull.offsets.tolist() == pytest.approx([1.0, 1.0])
        assert hull.ptr.tolist() == [0, 1, 2] and hull.ids.tolist() == [0, 0]

    def test_dominated_point_is_not_a_vertex(self):
        pts = [np.array([0.0, 0.0]), np.array([1.0, 1.0]), np.array([0.5, 0.4])]
        assert set(downward_hull(pts, 2).ids.tolist()) == {1}

    def test_simplex_3d(self):
        pts = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]),
               np.array([0.0, 0.0, 1.0])]
        main = [f for f in facet_tuples(downward_hull(pts, 3))
                if f[0] == pytest.approx([1 / 3, 1 / 3, 1 / 3])]
        assert len(main) == 1
        _, offset, vertices, degenerate = main[0]
        assert offset == pytest.approx(1 / 3)
        assert sorted(vertices) == [0, 1, 2]
        assert not degenerate

    def test_dimension_one(self):
        hull = downward_hull([np.array([2.0]), np.array([5.0]), np.array([3.0])], 1)
        assert facet_tuples(hull) == [([1.0], 5.0, (1,), False)]

    def test_too_many_dimensions(self):
        with pytest.raises(ModelError):
            downward_hull([np.zeros(5)], 5)

    def test_empty(self):
        assert facet_tuples(downward_hull([], 2)) == []

    @given(st.lists(st.tuples(st.integers(-50, 50), st.integers(-50, 50)),
                    min_size=1, max_size=12))
    def test_hull_properties_2d(self, raw):
        pts = [np.array(p, dtype=float) for p in raw]
        facets = facet_tuples(downward_hull(pts, 2))
        assert facets
        for normal, offset, vertices, _ in facets:
            n = np.asarray(normal)
            assert (n >= -1e-12).all()
            assert n.sum() == pytest.approx(1.0)
            support = max(float(np.dot(n, pts[i])) for i in vertices)
            assert support == pytest.approx(offset, abs=1e-9)
            for p in pts:
                assert float(np.dot(n, p)) <= offset + 1e-9
        # the facets name exactly the extreme points of the downward closure
        used = {tuple(pts[i]) for _, _, vertices, _ in facets for i in vertices}
        assert used == set(extreme_points(pts))
        check_staircase(pts)

    @staticmethod
    def check_hull(raw, dim):
        pts = [np.array(p, dtype=float) for p in raw]
        hull = downward_hull(pts, dim)
        assert len(hull.offsets)
        assert (hull.normals >= -1e-12).all()
        assert hull.normals.sum(axis=1) == pytest.approx(np.ones(len(hull.offsets)))
        assert (np.array(pts) @ hull.normals.T <= hull.offsets + 1e-7).all()
        # the facets name exactly the extreme points of the downward closure
        assert {tuple(pts[i]) for i in hull.ids.tolist()} == set(extreme_points(pts))

    @settings(deadline=None)
    @given(st.lists(st.tuples(*[st.integers(-9, 9)] * 3), min_size=1, max_size=8))
    def test_hull_properties_3d(self, raw):
        self.check_hull(raw, 3)

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.tuples(*[st.integers(-9, 9)] * 4), min_size=1, max_size=8))
    def test_hull_properties_4d(self, raw):
        self.check_hull(raw, 4)


def point_sets(dim, count=12):
    """Seeded point sets for the 2- to 4-D hull: integer grids with
    duplicate and dominated points, continuous draws with zeros of both
    signs, and (every third set, from the third) points on a plane, some
    lifted off it by about 1e-10 so that facet equations differ near the
    1e-9 grouping precision."""
    rng = np.random.default_rng(8000 + dim)
    for trial in range(count):
        n = int(rng.integers(dim + 1, 14))
        if trial % 3 == 0:
            pts = rng.integers(0, 7, size=(n, dim)).astype(float)
            pts = np.vstack([pts, pts[rng.integers(0, n, 3)], pts.min(axis=0) - 1.0])
        elif trial % 3 == 1:
            pts = rng.uniform(-3.0, 3.0, size=(n, dim))
            pts[rng.random(pts.shape) < 0.2] = 0.0
            pts = np.vstack([pts, np.where(pts[:2] == 0.0, -0.0, pts[:2])])
        else:
            normal = rng.dirichlet(np.ones(dim))
            pts = rng.uniform(0.0, 5.0, size=(n, dim))
            pts[:, -1] = (4.0 - pts[:, :-1] @ normal[:-1]) / normal[-1]
            lifted = rng.random(n) < 0.4
            pts[lifted] += np.outer(rng.uniform(0.5, 2.0, lifted.sum()) * 1e-10, normal)
        yield pts[rng.permutation(len(pts))]


def concave_front(dim, count):
    """`count` seeded points on the positive orthant of a sphere: a strictly
    concave front, so every point is a vertex, at the size of the largest
    hulls a `front-rich` benchmark round builds (about 115 points)."""
    u = np.abs(np.random.default_rng(8400 + dim).normal(size=(count, dim)))
    return 10.0 * u / np.linalg.norm(u, axis=1)[:, None] - 5.0


def ref_downward_hull(points, dim: int) -> list[tuple[list[float], float, tuple[int, ...], bool]]:
    """Loop reference for `pareto.downward_hull` in 2 to 4 dimensions, as
    the facet tuples of `facet_tuples`.

    Duplicates collapse to their first index; the distinct points, sorted,
    are moved by their minimum and scaled by their spread into the unit box.
    Over x = (u, c), with weights w = (u, 1 - sum u), each point q gives the
    halfspace w.q <= c; with u >= 0, sum u <= 1 and the cap c <= 3 these
    rows a.x + b <= 0 go to Qhull as the polar points a / -(a.x0 + b) about
    x0 = (1/d, ..., 1/d, 2).  Polar simplices are grouped by their equation
    rounded to 9 digits, groups are visited in sorted key order, and each
    keeps the equation of its first simplex as representative.  A group
    that touches the cap is dropped; the rest read their weight off the
    vertex x0 - normal / offset, zero on each side of the simplex among
    their corners, and are sorted by their unit normal rounded to 9 digits.
    """
    from scipy.spatial import ConvexHull

    first_at: dict[tuple[float, ...], int] = {}
    for i, p in enumerate(points):
        first_at.setdefault(tuple(float(x) for x in p), i)
    uniq = sorted(first_at)
    arr = np.array(uniq, dtype=float)
    k = len(uniq)
    lo = [min(p[j] for p in uniq) for j in range(dim)]
    scale = max(max(p[j] for p in uniq) - lo[j] for j in range(dim)) or 1.0
    x0 = [1.0 / dim] * (dim - 1) + [2.0]
    rows = []
    for p in uniq:
        q = [(p[j] - lo[j]) / scale for j in range(dim)]
        rows.append(([q[j] - q[-1] for j in range(dim - 1)] + [-1.0], q[-1]))
    for j in range(dim - 1):
        rows.append(([-1.0 if i == j else 0.0 for i in range(dim - 1)] + [0.0], 0.0))
    rows.append(([1.0] * (dim - 1) + [0.0], -1.0))
    rows.append(([0.0] * (dim - 1) + [1.0], -3.0))
    polar = []
    for a, b in rows:
        slack = -(float(np.dot(a, x0)) + b)
        polar.append([ai / slack for ai in a])
    hull = ConvexHull(np.array(polar))

    groups: dict[tuple, dict] = {}
    for si, simplex in enumerate(hull.simplices):
        eq = hull.equations[si]
        g = groups.setdefault(tuple(np.round(eq, 9)), {"eq": eq, "corners": set()})
        g["corners"].update(int(v) for v in simplex)
    facets = []
    for key in sorted(groups):
        eq, corners = groups[key]["eq"], groups[key]["corners"]
        if k + dim in corners:
            continue
        u = [x0[j] - float(eq[j]) / float(eq[-1]) for j in range(dim - 1)]
        w = u + [1.0 - sum(u)]
        w = [0.0 if k + j in corners else max(x, 0.0) for j, x in enumerate(w)]
        total = sum(w)
        n = [x / total for x in w]
        orig = sorted(v for v in corners if v < k)
        off = float(np.max(arr @ np.array(n)))
        facets.append((n, off, tuple(first_at[uniq[v]] for v in orig), len(orig) < dim))
    return sorted(facets, key=lambda f: tuple(
        np.round(np.array(f[0]) / math.sqrt(sum(x * x for x in f[0])), 9)))


def ref_staircase_hull(points) -> list[tuple[list[float], float, tuple[int, ...], bool]]:
    """Loop reference for `pareto.downward_hull` in 2 dimensions, by another
    construction: the monotone staircase, as the facet tuples of
    `facet_tuples`.

    Duplicates collapse to their first index.  The upper chain of the
    distinct points, sorted, drops every point on or below the line through
    its two predecessors; the chain's part from its last highest point on is
    the front.  The facets are a cap on the front's first point, one facet
    per front edge, and a cap on its last point.
    """
    first_at: dict[tuple[float, float], int] = {}
    for i, p in enumerate(points):
        first_at.setdefault((float(p[0]), float(p[1])), i)
    chain: list[tuple[float, float]] = []
    for t in sorted(first_at):
        while len(chain) >= 2:
            o, a = chain[-2], chain[-1]
            if (a[0] - o[0]) * (t[1] - o[1]) - (a[1] - o[1]) * (t[0] - o[0]) < 0:
                break
            chain.pop()
        chain.append(t)
    top = max(p[1] for p in chain)
    front = chain[max(j for j, p in enumerate(chain) if p[1] == top):]
    facets = [([0.0, 1.0], front[0][1], (first_at[front[0]],), True)]
    for a, b in zip(front, front[1:]):
        n0, n1 = a[1] - b[1], b[0] - a[0]
        n = [n0 / (n0 + n1), n1 / (n0 + n1)]
        offset = max(n[0] * a[0] + n[1] * a[1], n[0] * b[0] + n[1] * b[1])
        facets.append((n, offset, (first_at[a], first_at[b]), False))
    facets.append(([1.0, 0.0], front[-1][0], (first_at[front[-1]],), True))
    return facets


def check_staircase(pts):
    """`downward_hull(pts, 2)` against `ref_staircase_hull`: the same vertex
    ids, degenerate flags and facet order; normals within 1e-12 and offsets
    within 1e-12 relative to max(1, |coordinates|).  The largest differences
    measured on the seeded sets and fronts here are 2.6e-13 on a normal and
    4.3e-13 (relative) on an offset."""
    got = facet_tuples(downward_hull(list(pts), 2))
    want = ref_staircase_hull(list(pts))
    assert [f[2:] for f in got] == [f[2:] for f in want]
    scale = max(1.0, float(np.abs(np.asarray(pts)).max()))
    for (n, off, _, _), (m, o, _, _) in zip(got, want):
        assert np.abs(np.subtract(n, m)).max() <= 1e-12
        assert abs(off - o) <= 1e-12 * scale


def check_one_shot(facets, pts, dim, near_coplanar=False):
    """A grown hull's facet tuples against one build of the same points, as
    the loop reference `ref_downward_hull` makes it: the same vertex ids,
    degenerate flags and facet order.  Normals within 1e-12 and offsets
    within 1e-12 relative to max(1, |coordinates|), as
    `TestEnvelopeHull.check_same` allows.  On a near-coplanar set of
    `point_sets`, whose facets 1e-10 apart the two may fit differently,
    normals within 1e-9 of the reference's, and every facet's vertices on
    it within 1e-9 relative to that scale."""
    pts = np.asarray(pts)
    want = ref_downward_hull(list(pts), dim)
    assert [f[2:] for f in facets] == [f[2:] for f in want]
    scale = max(1.0, float(np.abs(pts).max()))
    for (n, off, v, _), (m, o, _, _) in zip(facets, want):
        if near_coplanar:
            assert np.abs(np.subtract(n, m)).max() <= 1e-9
            assert np.abs(pts[list(v)] @ np.array(n) - off).max() <= 1e-9 * scale
        else:
            assert np.abs(np.subtract(n, m)).max() <= 1e-12
            assert abs(off - o) <= 1e-12 * scale


# (dimension, set, points) of the prefixes of near-coplanar `point_sets` on
# which one build already leaves a vertex 1.03e-9 (relative) off its facet:
# polar simplices grouped by their 9-digit equations share the first one's
# normal (CHANGES.md FOUND; ROADMAP item 7's per-facet normal refit)
MISFIT_PREFIXES = [(3, 5, 8), (3, 5, 9)]


class TestGeometryMatchesLoops:
    """The array geometry against loop code: `ref_downward_hull` and
    `ref_staircase_hull` above and the loop code the gap and selection
    arrays replaced (tests/gen.py)."""

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_hull(self, dim):
        for pts in [*point_sets(dim), concave_front(dim, {2: 60, 3: 25, 4: 100}[dim])]:
            assert facet_tuples(downward_hull(list(pts), dim)) == ref_downward_hull(list(pts), dim)

    def test_staircase(self):
        # the near-collinear sets are left out: facets 1e-10 apart are one
        # facet of the envelope and two of the staircase
        sets = [pts for t, pts in enumerate(point_sets(2)) if t % 3 != 2]
        for pts in sets + [concave_front(2, n) for n in (1, 2, 10, 60, 115)]:
            check_staircase(pts)

    @pytest.mark.parametrize("dim,count,min_facets", [(2, 60, 61), (3, 25, 40), (4, 100, 300)])
    def test_concave_front_is_all_vertices(self, dim, count, min_facets):
        hull = downward_hull(concave_front(dim, count), dim)
        assert len(hull.offsets) >= min_facets
        assert sorted(set(hull.ids.tolist())) == list(range(count))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_gaps_and_selection(self, dim):
        rng = np.random.default_rng(8100 + dim)
        for t, pts in enumerate(point_sets(dim)):
            # one halfspace per point, with distinct offsets above 1, so the
            # scale of a gap names the halfspace attaining it
            pts = pts - pts.min() + 2.0
            state = ApproximationState(dim)
            for p in pts:
                w = rng.dirichlet(np.ones(dim))
                state.add(fake_solution(w, float(np.max(pts @ w)) + rng.uniform(0.0, 2.0), p))
            halfspaces = [(h.normal, h.offset) for h in state.halfspaces]
            facets = facet_tuples(state.facets())
            if dim == 2:  # grown in 2-D, these hulls are one build's, bit for bit
                assert facets == ref_downward_hull(list(pts), dim)
            else:
                check_one_shot(facets, pts, dim, near_coplanar=t % 3 == 2)
            gaps, scales = state.facet_gaps()
            ref = ref_facet_gaps(list(pts), facets, halfspaces)
            assert scales.tolist() == [s for _, s, _ in ref]
            assert np.abs(gaps - [g for g, _, _ in ref]).max() <= 1e-12 * scales.max()
            for eta in (0.0, 1e-2):
                for guidance in (None, pts.max(axis=0) + rng.uniform(-1.0, 1.0, dim)):
                    w = select_weight(state, eta, guidance)
                    want = ref_select_normal(list(pts), facets, halfspaces, eta, guidance)
                    assert (w is None and want is None) or w.tolist() == want.tolist()


class TestUniqueRows:
    """`pareto._unique_rows` against np.unique(a, axis=0, return_index=True,
    return_inverse=True): the same rows bit for bit, first indices and
    inverse."""

    @staticmethod
    def check(a):
        want = np.unique(a, axis=0, return_index=True, return_inverse=True)
        got = pareto._unique_rows(a)
        assert got[0].tobytes() == want[0].tobytes()  # the sign of every zero too
        assert got[1].tolist() == want[1].tolist()
        assert got[2].tolist() == want[2].ravel().tolist()

    def test_duplicate_rows(self):
        rng = np.random.default_rng(8300)
        for dim in (1, 2, 3, 4, 5):
            for n in (1, 2, 7, 60):
                self.check(rng.integers(0, 3, size=(n, dim)).astype(float))

    def test_signed_zeros_are_one_row(self):
        # rows differing only by the sign of a zero merge into their first copy
        rows = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0],
                         [-0.0, -0.0], [0.0, 0.0], [-0.0, 0.0]])
        rng = np.random.default_rng(8301)
        for _ in range(50):
            self.check(rows[rng.permutation(len(rows))])
        for _ in range(50):
            a = rng.integers(-1, 2, size=(30, 3)).astype(float)
            a[a == 0] = rng.choice([0.0, -0.0], size=int((a == 0).sum()))
            self.check(a)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_rounded_equations_tie(self, dim):
        from scipy.spatial import ConvexHull
        for pts in point_sets(dim):
            # with a shifted copy, so that the points on a plane span a hull
            eq = np.round(ConvexHull(np.vstack([pts, pts - 1.0 - np.ptp(pts)])).equations, 9)
            self.check(eq)
        # coplanar simplices on the faces of an integer grid: equal equations
        grid = np.random.default_rng(8302).integers(0, 4, size=(40, dim)).astype(float)
        eq = np.round(ConvexHull(grid).equations, 9)
        assert len(np.unique(eq, axis=0)) < len(eq)
        self.check(eq)


@pytest.fixture
def hull_work(monkeypatch):
    """The builds and adds of `pareto._PolarHull`, one (operation, distinct
    points after it) entry each, and the one-shot `downward_hull` calls."""
    calls = []
    for name in ("__init__", "add"):
        def counted(self, *args, _op=getattr(pareto._PolarHull, name), _name=name):
            _op(self, *args)
            calls.append((_name, len(self.points)))
        monkeypatch.setattr(pareto._PolarHull, name, counted)
    hull = pareto.downward_hull

    def one_shot(points, dimension):
        calls.append(("downward_hull", len(points)))
        return hull(points, dimension)
    monkeypatch.setattr(pareto, "downward_hull", one_shot)
    return calls


class TestFacetReuse:
    def test_hull_built_once_per_new_distinct_point(self, hull_work):
        m, objectives = menu_instance(7115, 6, 3, ("max", "max", "min"))
        res = answer_query(m, objectives, ParetoQuery(precision=1e-3))
        keys = [tuple(ap.point.tolist()) for ap in res.state.points]
        assert len(set(keys)) < len(keys)  # some refinement repeats a point
        # one build or one add per new distinct point, each growing the hull
        # by that point, and none for a repeated one
        assert [n for _, n in hull_work] == list(range(1, len(set(keys)) + 1))
        assert hull_work[0][0] == "__init__" and {op for op, _ in hull_work} == {"__init__", "add"}
        hull_work.clear()
        for point in (res.state.points[-1].point, [1.0, float("-inf"), 2.0]):
            res.state.add(fake_solution([0.2, 0.3, 0.5], 10.0, point))
        res.state.facets()
        assert hull_work == []

    def test_repeated_or_divergent_point_keeps_facets(self):
        rng = np.random.default_rng(8200)
        pts = rng.uniform(0.0, 5.0, size=(9, 3))
        sols = [fake_solution(rng.dirichlet(np.ones(3)), 10.0, p) for p in pts]
        sols += [fake_solution([0.2, 0.3, 0.5], 10.0, pts[4]),
                 fake_solution([0.5, 0.3, 0.2], 10.0, [1.0, float("-inf"), 2.0])]
        state = ApproximationState(3)
        for sol in sols[:9]:
            state.add(sol)
        facets = state.facets()
        for sol in sols[9:]:
            state.add(sol)
            assert state.facets() is facets
        fresh = ApproximationState(3)
        for sol in sols:
            fresh.add(sol)
        assert facet_tuples(state.facets()) == facet_tuples(fresh.facets())
        assert np.array_equal(state._centroids, fresh._centroids)
        assert [g.tolist() for g in state.facet_gaps()] == [g.tolist() for g in fresh.facet_gaps()]
        state.add(fake_solution([0.2, 0.3, 0.5], 10.0, pts.max(axis=0)))
        assert state.facets() is not facets


class TestGrownHull:
    """A state's hull grows with its points, built again only when a point
    leaves the box its transform was picked for.  Its facets are a function
    of the points added: the same bits whether they are read after each new
    point or once after all of them.  Against one build of the same points
    they match as `check_one_shot` asks, with ids naming stored points."""

    @staticmethod
    def grown(pts, dim):
        state = ApproximationState(dim)
        for p in pts:
            state.add(fake_solution(np.full(dim, 1.0 / dim), 100.0, p))
        return state

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_one_point_at_a_time_matches_one_shot(self, dim):
        sets = [*point_sets(dim), concave_front(dim, {2: 60, 3: 25, 4: 100}[dim])]
        for t, pts in enumerate(sets):
            state = ApproximationState(dim)
            for i, p in enumerate(pts):
                state.add(fake_solution(np.full(dim, 1.0 / dim), 100.0, p))
                if (dim, t, i + 1) in MISFIT_PREFIXES:  # see test_known_misfit
                    assert facet_tuples(state.facets()) == \
                        facet_tuples(downward_hull(pts[:i + 1], dim))
                else:
                    check_one_shot(facet_tuples(state.facets()), pts[:i + 1], dim,
                                   near_coplanar=t % 3 == 2)
            late = self.grown(pts, dim)
            assert facet_tuples(late.facets()) == facet_tuples(state.facets())
            assert late._centroids.tobytes() == state._centroids.tobytes()

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="one build leaves a vertex 1.03e-9 off its facet")
    @pytest.mark.parametrize("dim, t, count", MISFIT_PREFIXES)
    def test_known_misfit(self, dim, t, count):
        # the grown hull is the one build here (see
        # test_one_point_at_a_time_matches_one_shot), so it misfits as much
        pts = list(point_sets(dim))[t][:count]
        scale = max(1.0, float(np.abs(pts).max()))
        for n, off, v, _ in facet_tuples(self.grown(pts, dim).facets()):
            assert np.abs(pts[list(v)] @ np.array(n) - off).max() <= 1e-9 * scale

    def test_failed_add_keeps_the_state_whole(self, no_add):
        # the point Qhull could not add is held by no hull: the facets read
        # after the failure, and after the next new point, are one build's
        pts = [np.array(p) for p in ([1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 2.0, 2.0],
                                     [2.5, 1.5, 2.5])]
        state = ApproximationState(3)
        for p in pts[:2]:  # each builds: one point spans no box
            state.add(fake_solution([1 / 3] * 3, 10.0, p))
        with pytest.raises(SolverError, match=r"3-D hull of 3 distinct points: QH6271"):
            state.add(fake_solution([1 / 3] * 3, 10.0, pts[2]))
        assert facet_tuples(state.facets()) == facet_tuples(downward_hull(pts[:3], 3))
        state.add(fake_solution([1 / 3] * 3, 10.0, pts[3]))  # inside the box, yet builds
        assert facet_tuples(state.facets()) == facet_tuples(downward_hull(pts, 3))

    def test_first_build_is_the_one_shot_build(self, hull_work):
        # every build, the first at the first point and one more each time a
        # point leaves the box, is the one-shot build of the points so far
        pts = concave_front(4, 30)
        state = ApproximationState(4)
        for i, p in enumerate(pts):
            hull_work.clear()
            state.add(fake_solution([0.25] * 4, 100.0, p))
            if hull_work[0][0] == "__init__":
                assert facet_tuples(state.facets()) == facet_tuples(downward_hull(pts[:i + 1], 4))
        check_one_shot(facet_tuples(state.facets()), pts, 4)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("side", ["above", "below"])
    def test_point_out_of_the_box_builds(self, dim, side, hull_work):
        front = concave_front(dim, 25)
        state = self.grown(front, dim)
        lo, spread = state._polar.lo, state._polar.spread
        inside = lo + 0.5 * spread * np.eye(dim)[0]
        out = lo + (spread + 1.0 if side == "above" else -1.0) * np.eye(dim)[-1]
        hull_work.clear()
        for p in (inside, out):
            state.add(fake_solution(np.full(dim, 1.0 / dim), 100.0, p))
        assert [op for op, _ in hull_work] == ["add", "__init__"]
        pts = np.vstack([front, inside, out])
        assert facet_tuples(state.facets()) == facet_tuples(downward_hull(pts, dim))
        # a point inside the new box is added to it again
        hull_work.clear()
        state.add(fake_solution(np.full(dim, 1.0 / dim), 100.0, pts.mean(axis=0)))
        assert [op for op, _ in hull_work] == ["add"]
        check_one_shot(facet_tuples(state.facets()), np.vstack([pts, pts.mean(axis=0)]), dim)

    def test_one_point_spans_no_box(self, hull_work):
        # one point is scaled by 1, which a build of two points would not
        # pick, so the second point builds
        state = self.grown(np.array([[1.0, 2.0, 3.0], [1.5, 2.5, 3.0]]), 3)
        assert [op for op, _ in hull_work] == ["__init__", "__init__"]
        assert facet_tuples(state.facets()) == facet_tuples(
            downward_hull([np.array([1.0, 2.0, 3.0]), np.array([1.5, 2.5, 3.0])], 3))

    @pytest.mark.parametrize("shape, precision", [
        ((7002, 8, 4, ("max", "max", "max", "min")), 1e-2),
        ((7115, 6, 3, ("max", "max", "min")), 1e-3)], ids=["front-rich-4d", "menu3"])
    def test_menu_refinements_match_one_shot(self, shape, precision, monkeypatch):
        refine, checked = pareto.refine, []

        def checked_refine(state, prep, w):
            sol = refine(state, prep, w)
            pts, idx = state._finite()
            # every point is finite, so the one build's ids name stored points too
            assert idx.tolist() == list(range(len(state.points)))
            check_one_shot(facet_tuples(state.facets()), pts, state.dimension)
            checked.append(w)
            return sol
        monkeypatch.setattr(pareto, "refine", checked_refine)
        m, objectives = menu_instance(*shape)
        res = answer_query(m, objectives, ParetoQuery(precision=precision))
        assert len(checked) == res.iterations >= 30


class TestEnvelopeHull:
    """The 2- to 4-D hull, built as the upper envelope over the weight
    simplex, on edge cases and against an independent construction: the
    convex hull of the points padded with their projections onto a floor
    below them (tests/gen.py:padded_downward_hull)."""

    @staticmethod
    def supports(facets, pts, tol):
        scale = max(1.0, float(np.abs(pts).max()))
        for normal, offset, vertices, _ in facets:
            assert (pts @ np.array(normal) <= offset + tol * scale).all()
            assert np.abs(pts[list(vertices)] @ np.array(normal) - offset).max() <= tol * scale

    @staticmethod
    def check_same(pts, dim):
        got = facet_tuples(downward_hull(list(pts), dim))
        want = padded_downward_hull(list(pts), dim)
        assert [f[2:] for f in got] == [f[2:] for f in want]  # ids, degenerate, order
        scale = max(1.0, float(np.abs(pts).max()))
        for (n, off, _, _), (m, o, _, _) in zip(got, want):
            assert np.abs(np.subtract(n, m)).max() <= 1e-12
            assert abs(off - o) <= 1e-12 * scale
        return got

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_generic_sets_and_concave_fronts(self, dim):
        sets = [pts for t, pts in enumerate(point_sets(dim)) if t % 3 != 2]
        for pts in sets + [concave_front(dim, n) for n in (10, 25, 60)]:
            self.check_same(pts, dim)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_near_coplanar_sets(self, dim):
        counts = []
        for pts in list(point_sets(dim))[2::3]:
            got = facet_tuples(downward_hull(list(pts), dim))
            want = padded_downward_hull(list(pts), dim)
            assert {tuple(pts[i]) for f in got for i in f[2]} == \
                {tuple(pts[i]) for f in want for i in f[2]}
            self.supports(got, pts, 1e-9)
            counts.append((len(got), len(want)))
        if dim == 3:  # facets 1e-10 apart, split by the padding, are one here
            assert counts[2] == (7, 10)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_one_point_and_duplicates(self, dim):
        p = np.arange(1.0, dim + 1.0)
        for pts in ([p], [p] * 5):
            hull = downward_hull(pts, dim)
            # one cap per coordinate, its normal exactly a unit vector
            assert hull.normals.tolist() == np.eye(dim)[::-1].tolist()
            assert hull.offsets.tolist() == p[::-1].tolist()
            assert hull.ids.tolist() == [0] * dim and hull.degenerate.all()
            self.check_same(np.array(pts), dim)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_collinear_points(self, dim):
        direction = np.array([1.0, -1.0, 0.5, 2.0][:dim])
        pts = np.array([0.5] * dim) + np.outer(np.arange(5.0), direction)
        facets = self.check_same(pts[[3, 0, 4, 1, 2]], dim)
        # only the two ends of the segment are extreme
        assert {i for f in facets for i in f[2]} == {1, 2}

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_integer_grid_facets_of_many_points(self, dim):
        grid = np.array(list(np.ndindex(*[3] * dim)), dtype=float)
        pts = grid[grid.sum(axis=1) <= dim]
        facets = self.check_same(pts, dim)
        main = [f for f in facets if f[0] == pytest.approx([1.0 / dim] * dim, abs=1e-15)]
        assert len(main) == 1 and not main[0][3]
        # more than dim points span the facet in 3-D and 4-D; in 2-D its
        # middle points are not extreme, and its two ends are its vertices
        assert len(main[0][2]) > dim if dim > 2 else len(main[0][2]) == 2
        assert main[0][1] == pytest.approx(1.0, abs=1e-15)
        assert {tuple(pts[i]) for i in main[0][2]} == set(extreme_points(pts))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize("shift", [1e6, -1e6, -3.0])
    def test_far_and_negative_coordinates(self, dim, shift):
        front = concave_front(dim, 25)
        moved = self.check_same(front + shift, dim)
        here = facet_tuples(downward_hull(list(front), dim))
        assert [f[2:] for f in moved] == [f[2:] for f in here]
        self.supports(moved, front + shift, 1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_caps_lie_exactly_on_the_sides(self, dim):
        for pts in [*point_sets(dim), concave_front(dim, 25)]:
            hull = downward_hull(list(pts), dim)
            assert (hull.normals >= 0.0).all()
            assert np.abs(hull.normals.sum(axis=1) - 1.0).max() <= 1e-15
            # a cap is a vertex of h on a side of the weight simplex
            assert (hull.normals[hull.degenerate] == 0.0).any(axis=1).all()
            assert not ((hull.normals > 0.0) & (hull.normals < 1e-12)).any()

    def test_qhull_failure_is_a_solver_error(self, monkeypatch):
        import scipy.spatial

        def flat(*args, **kwargs):
            raise scipy.spatial.QhullError("QH6154 Qhull precision error: initial simplex is flat")
        monkeypatch.setattr(scipy.spatial, "ConvexHull", flat)
        for dim in (2, 3):
            with pytest.raises(SolverError, match=rf"{dim}-D hull of 6 distinct points: QH6154"):
                downward_hull(concave_front(dim, 6), dim)


class TestSelectWeight:
    def test_unit_vectors_then_facets_then_done(self):
        state = ApproximationState(2)
        assert select_weight(state, 1e-4).tolist() == [1.0, 0.0]
        state.add(fake_solution([1, 0], 4.0, [4.0, -2.0]))
        assert select_weight(state, 1e-4).tolist() == [0.0, 1.0]
        state.add(fake_solution([0, 1], 0.0, [3.0, 0.0]))
        w = select_weight(state, 1e-4)
        assert w == pytest.approx([2.0 / 3.0, 1.0 / 3.0])
        state.add(fake_solution(w, 2.0, [4.0, -2.0]))
        assert select_weight(state, 1e-4) is None

    def test_closed_gap_means_none(self):
        state = ApproximationState(2)
        state.add(fake_solution([1, 0], 1.0, [1.0, 1.0]))
        state.add(fake_solution([0, 1], 1.0, [1.0, 1.0]))
        assert select_weight(state, 1e-4) is None

    def test_divergent_points_stay_out_of_the_hull(self):
        state = ApproximationState(2)
        state.add(fake_solution([1, 0], 4.0, [4.0, float("-inf")]))
        assert not state.points[0].finite
        assert state.warnings
        assert state.finite_indices() == []
        assert len(state.facets().offsets) == 0
        state.add(fake_solution([0, 1], 0.0, [3.0, 0.0]))
        assert state.finite_indices() == [1]
        assert set(state.facets().ids.tolist()) == {1}


class FakePoint:
    def __init__(self, xy):
        self.point = np.asarray(xy, dtype=float)
        self.finite = True


class TestExtremeFilter:
    def test_dominated_cap_support_dropped(self):
        from moma.pareto import _extreme_ids
        state = ApproximationState(2)
        state.points = [FakePoint([4.0, -2.0]), FakePoint([3.0, 0.0]),
                        FakePoint([3.0, -40.0])]
        assert _extreme_ids(state, [0, 1, 2]) == [0, 1]

    @pytest.mark.parametrize("seed,stages,directions,precision", [
        (7115, 6, ("max", "max", "min"), 1e-3), (7002, 5, ("max", "max", "max", "min"), 1e-2)])
    def test_pareto_query_solves_no_lp(self, lp_calls, seed, stages, directions, precision):
        # the menu3 and menu4 golden queries
        # read their vertices off the hull, so they solve no LP
        m, objectives = menu_instance(seed, stages, 3, directions)
        res = answer_query(m, objectives, ParetoQuery(precision=precision))
        assert len(res.vertices) > len(directions)
        assert lp_calls == []


class TestParetoQuery:
    def test_fig1_front(self, fig1, fig1_objectives):
        res = answer_query(fig1, fig1_objectives, ParetoQuery(precision=1e-4))
        assert res.kind == "pareto"
        assert not res.exhausted
        assert res.iterations == 3
        assert len(res.vertices) == 2
        assert res.vertices[0] == pytest.approx([3.0, 0.0], abs=1e-9)
        assert res.vertices[1] == pytest.approx([4.0, -2.0], abs=1e-9)
        assert len(res.facets) == 1
        f = res.facets[0]
        assert f["normal"] == pytest.approx([2.0 / 3.0, 1.0 / 3.0])
        assert f["offset"] == pytest.approx(2.0, abs=1e-5)
        assert sorted(f["vertices"]) == [0, 1]
        assert res.precision_achieved <= 1e-4
        offsets = {tuple(h["normal"]): h["offset"] for h in res.halfspaces}
        assert offsets[(1.0, 0.0)] <= 4.0 + 1e-4
        assert offsets[(0.0, 1.0)] <= 0.0 + 1e-4
        assert len(res.witness["vertices"]) == 2

    def test_fig1_statistics(self, fig1, fig1_objectives):
        res = answer_query(fig1, fig1_objectives, ParetoQuery())
        stats = dict(res.statistics)
        refinements = stats.pop("refinements")
        assert stats == {"states": 6, "markovian_states": 4,
                         "choices": 8, "zero_ecs": 2,
                         "zero_ec_states": 4, "iterations": 3, "total_structures": 1}
        # one record per weighted solve, with its total solve's counters
        assert [(r["weights"], r["value"]) for r in refinements] == \
            [(h["normal"], h["offset"]) for h in res.halfspaces]
        assert [(r["rounds"], r["sweeps"]) for r in refinements] == [(2, 2), (1, 2), (1, 2)]

    def test_iteration_budget_is_flagged(self, fig1, fig1_objectives):
        res = answer_query(fig1, fig1_objectives, ParetoQuery(max_iterations=1))
        assert res.exhausted
        assert res.iterations == 1

    def test_min_direction_reported_in_user_orientation(self, fig1):
        objectives = [Objective("lra", "max", reward="R1"),
                      Objective("total", "min", reward="R2")]
        res = answer_query(fig1, objectives, ParetoQuery())
        # minimizing the second coordinate makes (4, -2) dominate (3, 0)
        assert res.vertices == [pytest.approx([4.0, -2.0], abs=1e-9)]
        assert all(h["normal"][1] <= 0.0 for h in res.halfspaces
                   if h["normal"][1] != 0.0)

    def test_too_many_objectives(self, fig1):
        objs = [Objective("lra", "max", reward="R1")] * 5
        with pytest.raises(ModelError):
            answer_query(fig1, objs, ParetoQuery())

    def test_too_many_objectives_build_no_product(self, fig1, monkeypatch):
        # each objective normalizes to one, so the count is checked first
        calls, product = [], moma.weighted.reach_to_total
        monkeypatch.setattr(moma.weighted, "reach_to_total",
                            lambda *a: calls.append(a) or product(*a))
        objs = [Objective("reach", "max", goal=frozenset({s})) for s in range(5)]
        with pytest.raises(ModelError, match="at most 4 objectives"):
            answer_query(fig1, objs, ParetoQuery())
        assert calls == []

    def test_assumption_violation_raises(self):
        m = MarkovAutomaton(
            [1.0, 1.0], [[((1, 1.0),)], [((1, 1.0),)]], initial=0,
            rewards={"r": RewardAssignment("r", {1: 2.0}, {})})
        with pytest.raises(ModelError, match="assumptions"):
            answer_query(m, [Objective("total", "max", reward="r")], ParetoQuery())

    def test_unknown_query_type(self, fig1, fig1_objectives):
        with pytest.raises(ModelError):
            answer_query(fig1, fig1_objectives, object())


class TestSandwichInvariants:
    def check_state(self, res, pts=None):
        state = res.state
        p = res.problem
        for ap in state.points:
            # stored point is the exact re-evaluation of its witness strategy
            again = evaluate_strategy(p.model, ap.strategy, p.objectives).values
            assert ap.point.tolist() == again
        for h in state.halfspaces:
            n = np.asarray(h.normal)
            # inner approximation stays inside the outer one
            for i in state.finite_indices():
                assert float(np.dot(n, state.points[i].point)) <= h.offset + 1e-9
            if pts is not None:
                # every achievable strategy value satisfies every halfspace
                for _, q in pts:
                    if np.isfinite(q).all():
                        assert float(np.dot(n, q)) <= h.offset + 1e-9

    def test_fig1(self, fig1, fig1_objectives):
        res = answer_query(fig1, fig1_objectives, ParetoQuery())
        _, pts = oracle_points(fig1, fig1_objectives)
        self.check_state(res, pts)

    def test_random_models(self):
        rng = np.random.default_rng(4242)
        for _ in range(8):
            m, objectives = random_valid_instance(
                rng, n_lra=int(rng.integers(0, 2)), n_total=1, max_states=6)
            res = answer_query(m, objectives, ParetoQuery(precision=1e-4))
            _, pts = oracle_points(m, objectives)
            self.check_state(res, pts)
            assert not res.exhausted


class TestCrossRunCertificates:
    """A model and an equivalent transform of it have one achievable set, so
    every point of each run lies in every halfspace of the other run."""

    @staticmethod
    def check_cross(m, m2, objectives):
        a, b = (answer_query(x, objectives, ParetoQuery(1e-3)) for x in (m, m2))
        for x, y in ((a, b), (b, a)):
            pts = [x.state.points[i].point for i in x.state.finite_indices()]
            for h in y.state.halfspaces:
                for pt in pts:
                    assert float(np.dot(h.normal, pt)) <= h.offset + 1e-9 * max(1.0, abs(h.offset))

    def test_permuted_states_dyadic(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            m, objectives = random_valid_instance(rng, directions=True)
            self.check_cross(m, permuted_states(rng, m), objectives)

    def test_permuted_states_layered(self):
        rng = np.random.default_rng(9000)
        m, objectives = layered_ma(rng, 2000)
        self.check_cross(m, permuted_states(rng, m), objectives)


class TestArraysOnly:
    """A query reads structure and rewards as arrays: it builds no rate
    tuple of any model and no dict view of a reward the library derived, and
    it places every reward of the user's model on that model once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()

        def count(cls, attr, key):
            derive = cls.__dict__[attr].func

            def counted(obj):
                counts.update([key])
                return derive(obj)
            prop = cached_property(counted)
            prop.__set_name__(cls, attr)
            monkeypatch.setattr(cls, attr, prop)

        count(Flat, "rate_tuple", "rate tuple")
        # input-form rewards hold their dicts from the start
        count(RewardAssignment, "state_rewards", "derived state reward dicts")
        count(RewardAssignment, "transition_rewards", "derived transition reward dicts")
        vectors = RewardAssignment.vectors

        def placing(r, m):
            if r._fl is not flat(m):
                counts.update([r])
            return vectors(r, m)
        monkeypatch.setattr(RewardAssignment, "vectors", placing)
        return counts

    @staticmethod
    def check(counts, m, objectives, precision):
        fresh = {n: RewardAssignment(n, r.state_rewards, r.transition_rewards)
                 for n, r in m.rewards.items()}
        counts.clear()
        answer_query(m.with_rewards(fresh), objectives, ParetoQuery(precision=precision))
        assert counts == Counter(fresh.values())

    def test_layered(self, counts):
        m, objectives = layered_ma(np.random.default_rng(5), n=500)
        self.check(counts, m, objectives, 1e-3)

    def test_model_files(self, counts, monkeypatch, fig1, fig1_objectives):
        # a parsed model is born as arrays: no tuple constructor, no rate tuple
        init = MarkovAutomaton.__init__

        def counted(m, *args, **kwargs):
            counts.update(["tuple constructor"])
            init(m, *args, **kwargs)
        monkeypatch.setattr(MarkovAutomaton, "__init__", counted)
        layered, objectives = layered_ma(np.random.default_rng(5), n=500)
        for doc, objs in ((serialize_model(fig1), fig1_objectives),
                          (serialize_model(layered), objectives)):
            counts.clear()
            m = parse_model(doc)
            answer_query(m, objs, ParetoQuery(precision=1e-3))
            assert counts == Counter(m.rewards.values())

    def test_reach_and_min(self, counts):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 6:
            m, _ = random_valid_instance(rng, max_states=6)
            objectives = [Objective("lra", "min", reward="L0"),
                          Objective("total", str(rng.choice(["max", "min"])), reward="T0"),
                          Objective("reach", str(rng.choice(["max", "min"])),
                                    goal=frozenset({int(rng.integers(1, m.n_states))}))]
            if validate_assumptions(normalize_query(m, objectives)).ok:
                self.check(counts, m, objectives, 1e-2)
                checked += 1


class TestComponentArraysOnly:
    """A query reads end components as arrays: it derives none of their set
    views (`markovian_states`, `pairs`)."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = Counter()

        def count(attr, derive):
            def counted(c):
                counts.update([attr])
                return derive(c)
            return counted

        for attr in ("markovian_states", "pairs"):
            prop = cached_property(count(attr, EndComponent.__dict__[attr].func))
            prop.__set_name__(EndComponent, attr)
            monkeypatch.setattr(EndComponent, attr, prop)
        return counts

    def test_views_are_counted(self, counts, fig1):
        (c, *_) = mec_decomposition(fig1)
        assert c.markovian_states and c.pairs is not None
        assert counts == Counter(["markovian_states", "pairs"])

    def test_layered(self, counts):
        m, objectives = layered_ma(np.random.default_rng(5), n=500)
        counts.clear()
        answer_query(m, objectives, ParetoQuery(precision=1e-3))
        assert counts == Counter()

    def test_total_and_reach(self, counts):
        rng = np.random.default_rng(6)
        checked = 0
        while checked < 6:
            m, _ = random_valid_instance(rng, max_states=6)
            objectives = [Objective("lra", "max", reward="L0"),
                          Objective("total", str(rng.choice(["max", "min"])), reward="T0"),
                          Objective("reach", "max",
                                    goal=frozenset({int(rng.integers(1, m.n_states))}))]
            counts.clear()  # the generator reads the views; the library must not
            if validate_assumptions(normalize_query(m, objectives)).ok:
                answer_query(m, objectives, ParetoQuery(precision=1e-2))
                checked += 1
            assert counts == Counter()


class TestQueryBudget:
    """Each query kind checks its budget when it is built."""

    @pytest.mark.parametrize("kind", [ParetoQuery, AchievabilityQuery, QuantitativeQuery])
    @pytest.mark.parametrize("field, value", [
        ("precision", float("nan")), ("precision", float("inf")), ("precision", 0.0),
        ("precision", -1.0), ("precision", "1e-3"), ("max_iterations", 0),
        ("max_iterations", 2.0), ("max_iterations", True), ("time_limit", 0.0),
        ("time_limit", float("nan")), ("time_limit", float("inf"))])
    def test_out_of_range(self, kind, field, value):
        with pytest.raises(ModelError, match=field):
            kind(**{field: value})

    def test_in_range(self):
        q = AchievabilityQuery(point=(1.0, 2.0), precision=1, max_iterations=np.int64(3),
                               time_limit=0.5)
        assert (q.precision, q.max_iterations, q.time_limit) == (1, 3, 0.5)
        assert ParetoQuery(1e-3).max_iterations == 200

    def test_frozen(self):
        import dataclasses
        with pytest.raises(dataclasses.FrozenInstanceError):
            ParetoQuery().precision = float("nan")

    def test_budget_alone_is_no_query(self, fig1, fig1_objectives):
        with pytest.raises(ModelError, match="unknown query type"):
            answer_query(fig1, fig1_objectives, pareto._Budget())


class TestAchievabilityQuery:
    def test_interior_point_yes_with_mixture(self, fig1, fig1_objectives):
        res = answer_query(fig1, fig1_objectives,
                           AchievabilityQuery(point=(3.5, -1.0)))
        assert res.verdict == "yes"
        parts = res.witness["mixture"]
        assert sum(part["weight"] for part in parts) == pytest.approx(1.0)
        combined = np.zeros(2)
        for part in parts:
            combined += part["weight"] * np.asarray(part["point"])
        assert combined.tolist() == pytest.approx(res.witness["point"], abs=1e-12)
        assert (combined >= np.array([3.5, -1.0]) - 1e-6).all()

    def test_vertex_point_yes(self, fig1, fig1_objectives):
        res = answer_query(fig1, fig1_objectives,
                           AchievabilityQuery(point=(3.0, 0.0)))
        assert res.verdict == "yes"

    def test_outside_point_no_with_separator(self, fig1, fig1_objectives):
        res = answer_query(fig1, fig1_objectives,
                           AchievabilityQuery(point=(4.0, 0.0)))
        assert res.verdict == "no"
        sep = res.witness["separating"]
        assert float(np.dot(sep["normal"], [4.0, 0.0])) > sep["offset"]

    def test_wrong_dimension(self, fig1, fig1_objectives):
        with pytest.raises(ModelError):
            answer_query(fig1, fig1_objectives, AchievabilityQuery(point=(1.0,)))

    def test_iteration_budget_leaves_unknown(self, fig1, fig1_objectives):
        # a point just under the front needs refinements past the first
        res = answer_query(fig1, fig1_objectives, AchievabilityQuery(
            point=(2.9, 0.9), precision=1e-12, max_iterations=1))
        assert res.verdict == "unknown"
        assert res.exhausted


class TestQuantitativeQuery:
    def test_fig1_slice(self, fig1, fig1_objectives):
        res = answer_query(fig1, fig1_objectives,
                           QuantitativeQuery(thresholds=(0.0,), precision=1e-4))
        assert res.lower <= 3.0 <= res.upper
        assert res.upper - res.lower <= 1e-4
        assert res.witness is not None
        wp = res.witness["point"]
        assert wp[1] >= -1e-9
        assert wp[0] == pytest.approx(res.lower, abs=1e-12)

    def test_unreachable_threshold(self, fig1, fig1_objectives):
        res = answer_query(fig1, fig1_objectives,
                           QuantitativeQuery(thresholds=(1.0,)))
        assert res.lower == float("-inf")
        assert res.witness is None

    def test_threshold_count(self, fig1, fig1_objectives):
        with pytest.raises(ModelError):
            answer_query(fig1, fig1_objectives,
                         QuantitativeQuery(thresholds=(0.0, 1.0)))

    def test_iteration_budget_is_flagged(self, fig1, fig1_objectives):
        res = answer_query(fig1, fig1_objectives, QuantitativeQuery(
            thresholds=(0.5,), precision=1e-12, max_iterations=1))
        assert res.exhausted
        assert res.upper - res.lower > 1e-12

    def test_no_weight_is_solved_twice(self):
        # a 4-objective slice whose largest facet gaps, about 1e-15, are
        # rounding noise below the solver's slack: those facets count as
        # closed, so the loop stops instead of solving one weight again
        # until the budget runs out, and the bracket is the one that
        # budget reached
        m, objectives = menu_instance(7002, 4, 3, ("max", "max", "max", "min"))
        res = answer_query(m, objectives, QuantitativeQuery(
            thresholds=(1.797, 2.13, 1.389), precision=1e-2, max_iterations=200))
        weights = [h.normal for h in res.state.halfspaces]
        assert len(set(weights)) == len(weights) < 200
        assert (res.lower, res.upper) == pytest.approx((1.8607882386849122, 1.8924912050590557),
                                                       rel=1e-12, abs=0.0)
        assert res.exhausted

    def test_min_first_objective_flips_bracket(self, fig1):
        objectives = [Objective("total", "min", reward="R2"),
                      Objective("lra", "max", reward="R1")]
        res = answer_query(fig1, objectives,
                           QuantitativeQuery(thresholds=(4.0,), precision=1e-4))
        # demanding the full long-run average 4 forces the early exit,
        # whose total reward is -2; minimization reports it as such
        assert res.lower <= -2.0 + 1e-4 and res.upper >= -2.0 - 1e-4
        assert res.upper - res.lower <= 1e-4


def ref_slice_max(normals, offsets, t) -> float:
    """max x_0 over {x : normals x <= offsets, x_j >= t_j} by one HiGHS
    linear program: +inf when unbounded, -inf when empty."""
    from scipy.optimize import linprog
    dim = normals.shape[1]
    if not len(offsets):
        return math.inf
    cut = 0.0 - np.eye(dim)
    res = linprog(c=cut[0], A_ub=np.vstack([normals, cut[1:]]),
                  b_ub=np.concatenate([offsets, -t]), bounds=[(None, None)] * dim,
                  method="highs")
    assert res.status in (0, 2, 3)
    if res.status == 0:
        return float(-res.fun)
    return -math.inf if res.status == 2 else math.inf


def halfspace_sets(dim, count):
    """Seeded halfspace systems (nonnegative normals summing to 1) with the
    thresholds of a slice, in turn bounded, unbounded (no row with n_0 > 0)
    and empty (a row with n_0 = 0 and n[1:].t > o), each by a clear margin.
    Normals mix unit vectors, sparse and dense rows; in one dimension there
    are no thresholds."""
    rng = np.random.default_rng(9100 + dim)
    for trial in range(count):
        kind = trial % 3 if dim > 1 else 0
        k = int(rng.integers(2 if kind == 2 else 1, 9))
        normals = rng.dirichlet(np.ones(dim), size=k)
        normals[rng.random((k, dim)) < 0.3] = 0.0
        if kind == 1:
            normals[:, 0] = 0.0
        else:
            normals[0] = np.eye(dim)[0]  # some row bounds x_0
        if kind == 2:
            normals[-1, 0] = 0.0
        normals[normals.sum(axis=1) == 0.0] = np.eye(dim)[-1]
        normals /= normals.sum(axis=1, keepdims=True)
        t = np.round(rng.uniform(-3.0, 3.0, dim - 1), 3)
        scale = 10.0 ** rng.integers(-1, 4)
        offsets = normals[:, 1:] @ t + scale * rng.uniform(0.1, 5.0, k)
        if kind == 2:
            offsets[-1] = normals[-1, 1:] @ t - scale * rng.uniform(0.1, 2.0)
        order = rng.permutation(k)
        yield normals[order], offsets[order], t, ("bounded", "unbounded", "empty")[kind]


def slice_state(normals, offsets) -> ApproximationState:
    state = ApproximationState(normals.shape[1])
    for n, o in zip(normals, offsets):
        state.add(fake_solution(n, o, np.zeros(len(n))))
    return state


class TestSliceClosedForm:
    """Q's slice maximum is read off its halfspaces in closed form; it
    equals the linear program's optimum, with the same infinite outcomes."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_matches_highs(self, dim):
        kinds = Counter()
        for normals, offsets, t, kind in halfspace_sets(dim, 90):
            best, guidance = pareto._outer_slice_max(slice_state(normals, offsets), t)
            want = ref_slice_max(normals, offsets, t)
            kinds[kind, want if math.isinf(want) else "finite"] += 1
            if math.isinf(want):
                assert best == want and guidance is None
            else:
                assert best == pytest.approx(want, rel=1e-12, abs=1e-12)
                # the thresholds bind at the guidance point, which lies in Q
                assert guidance.tolist() == [best, *t]
                assert (normals @ guidance <= offsets + 1e-12 * np.maximum(1.0, abs(offsets))).all()
        expected = {("bounded", "finite"): 30, ("unbounded", math.inf): 30,
                    ("empty", -math.inf): 30} if dim > 1 else {("bounded", "finite"): 90}
        assert kinds == expected

    def test_no_halfspace_is_unbounded(self):
        assert pareto._outer_slice_max(ApproximationState(3), np.zeros(2)) == (math.inf, None)

    def test_inner_bound_without_finite_point(self):
        state = ApproximationState(2)
        state.add(fake_solution([1, 0], 4.0, [4.0, float("-inf")]))
        t = np.array([0.0])
        assert pareto._outer_slice_max(state, t)[0] == 4.0
        assert pareto._inner_slice_bound(state, t) == -math.inf

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_inner_bound_holds_the_mixture_optimum(self, dim):
        # P's facets bound the mixture LP from above, and on generic points
        # they describe P's closure: the bound is tight up to rounding
        rng = np.random.default_rng(9200 + dim)
        sets = [*point_sets(dim), *(rng.uniform(-3.0, 3.0, size=(int(rng.integers(1, 30)), dim))
                                   for _ in range(12))]
        for trial, pts in enumerate(sets):
            state = ApproximationState(dim)
            for p in pts:
                state.add(fake_solution(np.eye(dim)[0], 10.0, p))
            for _ in range(5):
                t = np.quantile(pts[:, 1:], rng.uniform(0.0, 1.0), axis=0)
                lower, _ = pareto._inner_slice_max(state, t)
                bound = pareto._inner_slice_bound(state, t)
                h = state.facets()
                exact = pareto._slice_max(h.normals, h.offsets, t)
                assert lower <= bound
                if trial >= 12 and math.isfinite(lower):
                    assert exact == pytest.approx(lower, rel=1e-12, abs=1e-12)


def slice_optimum(pts, t_int) -> float:
    """max x_0 over mixtures of the finite points meeting every threshold,
    -inf when none does (one HiGHS linear program)."""
    from scipy.optimize import linprog
    P = np.array([q for _, q in pts if np.isfinite(q).all()])
    res = linprog(-P[:, 0], A_ub=-P[:, 1:].T, b_ub=-t_int, A_eq=np.ones((1, len(P))),
                  b_eq=[1.0], bounds=(0.0, None), method="highs")
    return float(-res.fun) if res.status == 0 else -math.inf


def check_mixture(res, t_int=None):
    """Each part of the witness mixture re-evaluates to its point, the
    parts combine to the witness point, and that point meets the thresholds
    (internal orientation)."""
    p = res.problem
    combined = np.zeros(p.dimension)
    for part in res.witness["mixture"]:
        again = np.array(evaluate_strategy(p.model, part["strategy"], p.objectives).values)
        assert [float(x) for x in again * p.flips] == part["point"]
        combined += part["weight"] * again
    assert sum(part["weight"] for part in res.witness["mixture"]) == pytest.approx(1.0)
    assert (combined * p.flips).tolist() == pytest.approx(res.witness["point"], rel=1e-12)
    if t_int is not None:
        assert (combined[1:] >= t_int - 1e-7 * np.maximum(1.0, abs(t_int))).all()
    return combined


# fig1 and seeded menus with 3 and 4 objectives, some minimized
@pytest.fixture(params=["fig1", (7115, 5, 3, ("max", "max", "min")),
                        (7116, 5, 3, ("min", "max", "max")),
                        (7002, 4, 3, ("max", "max", "max", "min"))],
                ids=["fig1", "menu3", "menu3-min", "menu4"])
def instance(request, fig1, fig1_objectives):
    """A model, its objectives, and every MD strategy's value (internal orientation)."""
    if request.param == "fig1":
        m, objectives = fig1, fig1_objectives
    else:
        m, objectives = menu_instance(*request.param)
    p, pts = oracle_points(m, objectives)
    return m, objectives, p, pts


class TestGatedQueries:
    """The quantitative and achievability loops solve P's mixture LP only
    when the facets of P's hull cannot decide: the answers stay those of the
    LP every round, with one LP per quantitative query and per "yes"."""

    def test_quantitative_bracket(self, instance, lp_calls, monkeypatch):
        m, objectives, p, pts = instance
        user = np.array([q * p.flips for _, q in pts])
        rng = np.random.default_rng(9300 + p.dimension)
        # midpoints of each later objective's range, then random draws in it
        # and one beyond it, where the slice is empty
        lo, hi = user[:, 1:].min(axis=0), user[:, 1:].max(axis=0)
        draws = [(lo + hi) / 2, *(lo + rng.uniform(0.0, 1.0, (3, len(lo))) * (hi - lo)), hi + 1.0]
        queries = [QuantitativeQuery(thresholds=tuple(np.round(t, 3).tolist()), precision=1e-4,
                                     max_iterations=60) for t in draws]
        gated = []
        for query in queries:
            t_int = np.array(query.thresholds) * p.flips[1:]
            lp_calls.clear()
            res = answer_query(m, objectives, query)
            assert len(lp_calls) == 1
            assert res.precision_achieved == max(0.0, pareto._bracket(res.lower, res.upper))
            assert res.exhausted == (res.precision_achieved > 1e-4)
            # a 4-objective slice may stop open, every facet closed at its
            # centroid while Q's slice still reaches beyond P's (a centroid's
            # gap only bounds the facet's from below); fig1's and the
            # 3-objective ones close
            assert p.dimension == 4 or not res.exhausted
            best = slice_optimum(pts, t_int)
            lower, upper = (res.lower, res.upper) if p.flips[0] > 0 else (-res.upper, -res.lower)
            if best == -math.inf:
                assert lower == -math.inf and res.witness is None
            else:
                tol = 1e-7 * max(1.0, abs(best))
                assert lower - tol <= best <= upper + tol
                assert check_mixture(res, t_int)[0] == pytest.approx(lower, rel=1e-12, abs=1e-12)
            gated.append((res.lower, res.upper, res.exhausted, res.iterations, res.witness))
        # with no facet bound to rule it out, the mixture LP runs every round
        monkeypatch.setattr(pareto, "_inner_slice_bound", lambda state, t_int: math.inf)
        lp_calls.clear()
        ungated = [(res.lower, res.upper, res.exhausted, res.iterations, res.witness)
                   for res in (answer_query(m, objectives, query) for query in queries)]
        assert gated == ungated
        assert len(lp_calls) > len(queries)

    def test_achievability_verdicts(self, instance, lp_calls, monkeypatch):
        m, objectives, p, pts = instance
        P = np.array([q for _, q in pts if np.isfinite(q).all()])
        rng = np.random.default_rng(9400 + p.dimension)
        scale = np.maximum(1.0, abs(P).max(axis=0))
        points = []
        for _ in range(3):
            # a mixture of two strategies, lowered: achievable; the best
            # strategy for some weights, raised: beyond the front
            a, b = P[rng.choice(len(P), 2)]
            lam = rng.uniform()
            points.append(lam * a + (1 - lam) * b - 0.02 * scale)
            points.append(P[np.argmax(P @ rng.dirichlet(np.ones(p.dimension)))] + 0.02 * scale)
        gated = []
        for q in points:
            lp_calls.clear()
            res = answer_query(m, objectives, AchievabilityQuery(point=tuple(q * p.flips)))
            assert len(lp_calls) == (res.verdict == "yes")
            if res.verdict == "yes":
                assert (check_mixture(res) >= q - 1e-7 * scale).all()
            gated.append((res.verdict, res.iterations, res.witness))
        # with no facet to rule it out, the mixture LP runs every round
        monkeypatch.setattr(pareto, "_loose_facets",
                            lambda state: (np.zeros((0, state.dimension)), np.zeros(0)))
        ungated = [(res.verdict, res.iterations, res.witness) for res in (
            answer_query(m, objectives, AchievabilityQuery(point=tuple(q * p.flips)))
            for q in points)]
        assert gated == ungated
        assert [v for v, _, _ in gated] == ["yes", "no"] * 3

    def test_precision_is_never_negative(self, fig1, fig1_objectives, monkeypatch):
        # an LP optimum an ulp above the closed form's upper end, as HiGHS
        # returned on the benchmark's front-rich query: the bracket is
        # reported as computed and its width as 0
        inner = pareto._inner_slice_max

        def above(state, t_int):
            upper, _ = pareto._outer_slice_max(state, t_int)
            lower, mix = inner(state, t_int)
            return (math.nextafter(upper, math.inf) if math.isfinite(upper) else lower), mix
        monkeypatch.setattr(pareto, "_inner_slice_max", above)
        res = answer_query(fig1, fig1_objectives, QuantitativeQuery(thresholds=(0.0,)))
        assert res.lower == math.nextafter(res.upper, math.inf)
        assert res.precision_achieved == 0.0
        assert not res.exhausted

    def test_front_rich_query(self, lp_calls):
        # the benchmark's 3-objective front-rich query: thresholds at the
        # midpoints of the later objectives' ranges
        m, objectives = menu_instance(7115, 6, 4, ("max", "max", "min"))
        res = answer_query(m, objectives, QuantitativeQuery(thresholds=(4.205, 8.558),
                                                            precision=1e-3))
        assert not res.exhausted
        assert lp_calls == [1]
        assert res.precision_achieved == max(0.0, res.upper - res.lower) <= 1e-3
