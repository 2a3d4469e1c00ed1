"""Pareto front approximation by iterative weighted-sum refinement.

The achievable set of a multi-objective query (all objectives maximizing
after normalization) is a downward-closed convex polytope.  The sandwich
scheme maintains an inner approximation P (exact value vectors of solved
strategies) and an outer approximation Q (halfspaces w.x <= v_w from
certified weighted optima), refining where the two differ most: after the
unit weight vectors, the facet of the downward hull of P with the largest
gap to the boundary of Q supplies the next weight vector.  All three query
kinds read their answers off (P, Q).  Q's slice maximum is a closed form
over its halfspaces; P's membership and slice maximum are small linear
programs over the stored points, solved only when the facets of P's hull
cannot decide them.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np
from scipy.optimize import linprog

from .model import NEG_INF, MarkovAutomaton, MDStrategy, ModelError, Objective, SolverError, flat
from .weighted import (NormalizedProblem, WeightedPrep, WeightedSolution,
                       normalize_query, optimize_weighted, prepare_weighted,
                       validate_assumptions)

MAX_DIMENSION = 4
# precision of every weighted solve; halfspace offsets carry up to this slack
EPS_SOLVER = 1e-6


@dataclass(frozen=True)
class HalfSpace:
    """The constraint normal . x <= offset with a nonnegative normal
    summing to 1.  Offsets come from certified upper bounds, so every
    achievable point satisfies every stored halfspace."""

    normal: tuple[float, ...]
    offset: float


@dataclass
class AchievedPoint:
    """An exactly evaluated strategy: its value vector (internal, maximizing
    orientation) and the strategy itself, an action vector.  `finite` is
    False when some coordinate diverged to -inf; such points stay recorded
    but never enter the hull."""

    point: np.ndarray
    strategy: MDStrategy
    finite: bool


@dataclass(frozen=True, eq=False)
class Hull:
    """The facets of a downward hull as arrays, one row or entry per facet:
    the outward normal (nonnegative, summing to 1), the support offset, and
    whether the facet is degenerate (fewer supporting vertices than
    dimensions: a cap closing the hull at its coordinate-wise maxima).
    Facet i's vertex ids, ascending by point, are `ids[ptr[i]:ptr[i + 1]]`."""

    normals: np.ndarray
    offsets: np.ndarray
    ptr: np.ndarray
    ids: np.ndarray
    degenerate: np.ndarray


@dataclass
class ApproximationState:
    """The (P, Q) pair of the sandwich loop, with the downward hull of P
    cached as arrays (its vertex ids naming stored points) and the facets'
    centroids (one row each).  The halfspaces are the refinement history:
    one per weighted solve, in order; `normals` and `offsets` hold them as
    arrays, and `solves` each solve's (rounds, sweeps) counters.

    In 2 to 4 dimensions each new distinct finite point grows the polar
    hull when it fits the box of its transform, and builds it again from
    every distinct finite point when not, so the facets depend on the
    points alone.  An add that fails drops the hull, and the next read or
    new point builds it again."""

    dimension: int
    points: list[AchievedPoint] = field(default_factory=list)
    halfspaces: list[HalfSpace] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    _facets: Hull | None = field(default=None, repr=False)
    _hull_input: set[tuple[float, ...]] = field(default_factory=set, repr=False)
    _polar: _PolarHull | None = field(default=None, repr=False)

    def __post_init__(self):
        self.normals = np.zeros((0, self.dimension))
        self.offsets = np.zeros(0)
        self.solves: list[tuple[int, int]] = []

    def add(self, sol: WeightedSolution) -> None:
        point = np.array(sol.point, dtype=float)
        finite = bool(np.all(np.isfinite(point)))
        w = tuple(float(x) for x in sol.weights)
        self.points.append(AchievedPoint(point, sol.strategy, finite))
        if not finite:
            self.warnings.append(
                "a strategy evaluated to -inf in some coordinate; consider dropping "
                "the diverging objective and re-running on the remaining ones")
        self.halfspaces.append(HalfSpace(w, float(sol.value)))
        self.normals = np.vstack([self.normals, w])
        self.offsets = np.append(self.offsets, float(sol.value))
        self.solves.append((sol.rounds, sol.sweeps))
        # the hull sees each distinct finite point once, at its first index,
        # so a repeated or non-finite point leaves the facets as they are
        if finite and (key := tuple(point.tolist())) not in self._hull_input:
            self._hull_input.add(key)
            self._facets = None
            if self._polar is not None and self._polar.fits(point):
                try:
                    self._polar.add(point, len(self.points) - 1)
                except SolverError:
                    self._polar = None  # facets() or the next new point builds again
                    raise
            elif 2 <= self.dimension <= MAX_DIMENSION:
                self._polar = None  # frees the old Qhull before the new one is built
                self._polar = _PolarHull(*self._finite())

    def finite_indices(self) -> list[int]:
        return [i for i, ap in enumerate(self.points) if ap.finite]

    def _finite(self) -> tuple[np.ndarray, np.ndarray]:
        """The finite points, one row each, and their indices."""
        idx = np.array(self.finite_indices(), dtype=int)
        return np.array([self.points[i].point for i in idx]).reshape(len(idx), self.dimension), idx

    def facets(self) -> Hull:
        if self._facets is None:
            if self._polar is not None:
                self._facets = self._polar.hull()
            else:  # one objective, no finite point, or a failed add
                pts, idx = self._finite()
                raw = downward_hull(pts, self.dimension)
                self._facets = replace(raw, ids=idx[raw.ids])
            h = self._facets
            # means summed in vertex order, as np.mean sums: one row of
            # vertex ids per facet, padded with the id of a zero row
            sizes = np.diff(h.ptr)
            ids = np.full((len(sizes), sizes.max(initial=0)), len(self.points))
            ids[np.arange(ids.shape[1]) < sizes[:, None]] = h.ids
            rows = np.array([ap.point for ap in self.points]).reshape(-1, self.dimension)
            self._centroids = np.vstack([rows, np.zeros(self.dimension)])[ids].sum(axis=1) \
                / sizes[:, None]
        return self._facets

    def facet_gaps(self) -> tuple[np.ndarray, np.ndarray]:
        """Per facet: the minimal slack against all halfspaces at the facet
        centroid, and the scale (offset magnitude, floored at 1) of the
        halfspace attaining it."""
        self.facets()
        slack = self.offsets - self._centroids @ self.normals.T
        gi = np.argmin(slack, axis=1) if slack.size else np.zeros(0, dtype=int)
        return slack[np.arange(len(gi)), gi], np.maximum(1.0, np.abs(self.offsets[gi]))


def downward_hull(points: Sequence[np.ndarray], dimension: int) -> Hull:
    """Facets of the upper-right boundary of the downward convex hull.

    Dimension 1 is the maximum.  In 2 to 4 dimensions each facet is a
    vertex of the upper envelope h(w) = max_p w.p over the weight simplex:
    its weight is the facet's normal, the points attaining h there are its
    vertices, and a vertex on a side of the simplex, with fewer points than
    dimensions, is a cap.  The envelope's vertices are read off one Qhull
    convex hull of the polar points of the region above h, capped (see
    `_PolarHull`); polar facets whose equations agree to 9 digits form one
    facet.  Facets come in the order of their unit normals rounded to 9
    digits.  A Qhull failure is a SolverError.
    """
    if len(points) == 0:
        return Hull(np.zeros((0, dimension)), np.zeros(0), np.zeros(1, dtype=int),
                    np.zeros(0, dtype=int), np.zeros(0, dtype=bool))
    pts = np.array(points, dtype=float)
    if dimension == 1:
        best = max(range(len(pts)), key=lambda i: (pts[i][0], -i))
        return Hull(np.ones((1, 1)), pts[best], np.array([0, 1]), np.array([best]),
                    np.zeros(1, dtype=bool))
    if not 2 <= dimension <= MAX_DIMENSION:
        raise ModelError(f"queries with {dimension} objectives are not supported "
                         f"(max {MAX_DIMENSION})")
    return _PolarHull(pts, np.arange(len(pts))).hull()


class _PolarHull:
    """The downward hull of distinct points as one incremental Qhull of
    polar points, built once and grown by one point at a time.

    A build moves and scales the points into the unit box, which adds a
    term affine in u to h(w) = max_p w.p, w = (u, 1 - sum u), and keeps its
    vertices.  The region above h in x = (u, c) is taken as rows A x + b <=
    0: one per point, in sorted order (w.q <= c), then u >= 0, sum u <= 1
    and the cap c <= 3 (h is at most 1 on the unit box).  Each row goes to
    its polar point A / -(A x0 + b) about the interior point x0 = (1/d, ...,
    1/d, 2).  An add appends the row of one more point.  A point that
    `fits` lies in the box [lo, lo + spread] of the points the transform was
    picked for, so a build of all the points would pick the same one.
    `ids` names the points in the facets `hull()` reads off."""

    def __init__(self, points: np.ndarray, ids: np.ndarray):
        from scipy.spatial import ConvexHull

        # distinct points in sorted order and the id of each one's first copy
        arr, first, _ = _unique_rows(points)
        k, dim = arr.shape
        self.points, self.ids, self.built = arr, ids[first], k
        self.lo = arr.min(axis=0)
        self.spread = float((arr.max(axis=0) - self.lo).max())
        self.scale = self.spread or 1.0
        self.x0 = np.full(dim, 1.0 / dim)
        self.x0[-1] = 2.0
        A = np.zeros((k + dim + 1, dim))
        b = np.zeros(k + dim + 1)
        A[:k], b[:k] = self._rows(arr)
        A[k:k + dim - 1, :-1] = -np.eye(dim - 1)
        A[k + dim - 1, :-1] = 1.0
        b[k + dim - 1] = -1.0
        A[-1, -1] = 1.0
        b[-1] = -3.0
        self.qh = self._qhull(lambda polar: ConvexHull(polar, incremental=True), A, b, k)

    def _rows(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q = (pts - self.lo) / self.scale
        return np.hstack([q[:, :-1] - q[:, -1:], np.full((len(q), 1), -1.0)]), q[:, -1]

    def _qhull(self, op, A: np.ndarray, b: np.ndarray, k: int):
        """op on the polar points of the rows A x + b <= 0, for k distinct points."""
        from scipy.spatial import QhullError
        try:
            # row-wise dot products by stacked matmul, which rounds as np.dot does
            return op(A / -((A[:, None, :] @ self.x0) + b[:, None]))
        except QhullError as err:
            first_line = str(err).strip().split("\n")[0]
            raise SolverError(f"Qhull failed on the {len(self.x0)}-D hull of "
                              f"{k} distinct points: {first_line}") from None

    def fits(self, p: np.ndarray) -> bool:
        return bool((p >= self.lo).all() and (p - self.lo <= self.spread).all())

    def add(self, p: np.ndarray, i: int) -> None:
        """Append the new distinct point p, named i; `points` and `ids`
        grow only once Qhull holds it."""
        self._qhull(self.qh.add_points, *self._rows(p[None]), len(self.points) + 1)
        self.points, self.ids = np.vstack([self.points, p]), np.append(self.ids, i)

    def hull(self) -> Hull:
        qh, k, dim = self.qh, len(self.points), self.points.shape[1]
        # the polar points' columns: the points in sorted order, the sides
        # u >= 0 and sum u <= 1, then the cap; a build adds them in this order
        # and each add appends one point
        order = np.lexsort(self.points.T[::-1])
        rank = np.empty(k, dtype=np.intp)
        rank[order] = np.arange(k)
        col = np.concatenate([rank[:self.built], np.arange(k, k + dim + 1), rank[self.built:]])
        arr, ids = self.points[order], self.ids[order]

        # each polar facet is a vertex x = x0 - n / offset of the region and a
        # facet of the downward hull; polar simplices with equal rounded
        # equations form one facet, represented by the equation of its first
        # simplex, over the union of their corners; a vertex on the cap is not
        # a facet
        _, rep, group = _unique_rows(np.round(qh.equations, 9))
        corner = np.zeros((len(rep), k + dim + 1), dtype=bool)
        corner[np.repeat(group, dim), col[qh.simplices.ravel()]] = True
        keep = ~corner[:, -1]
        eq, corner = qh.equations[rep[keep]], corner[keep]
        u = self.x0[:-1] - eq[:, :-2] / eq[:, -1:]
        w = np.hstack([u, 1.0 - u.sum(axis=1, keepdims=True)])
        # a weight is exactly 0 on the side of the simplex the vertex lies on,
        # and never below 0 (weighted solves reject negative weights)
        w[corner[:, k:-1]] = 0.0
        w = np.maximum(w, 0.0)
        w /= w.sum(axis=1, keepdims=True)
        order = np.lexsort(np.round(w / np.sqrt((w * w).sum(axis=1, keepdims=True)), 9).T[::-1])
        n, on = w[order], corner[order, :k]
        # one matrix-vector product per facet, stacked: each rounds as arr @ n
        offsets = (n[:, None, :] @ arr.T).max(axis=-1)[:, 0]
        sizes = np.count_nonzero(on, axis=1)
        return Hull(n, offsets, np.concatenate([[0], np.cumsum(sizes)]),
                    ids[np.nonzero(on)[1]], sizes < dim)


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`np.unique(a, axis=0, return_index=True, return_inverse=True)` by one
    stable lexsort; rows equal as floats (0.0 and -0.0 alike) are one row,
    kept as its first copy."""
    order = np.lexsort(a.T[::-1])
    s = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = (s[1:] != s[:-1]).any(axis=1)
    inverse = np.empty(len(a), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return s[new], order[new], inverse


def select_weight(state: ApproximationState, eta: float,
                  guidance: np.ndarray | None = None) -> np.ndarray | None:
    """Next weight vector, or None when converged.

    The first `dimension` calls return the unit vectors; afterwards the facet
    with the largest gap to the boundary of Q (relative to the scale of the
    tightest halfspace) is chosen, preferring facets whose normal points
    toward `guidance` when given.  Facets with gap at most eta * scale are
    considered closed.  Ties go to the facet with the smallest normal
    (rounded to 12 digits), then to the first.
    """
    if len(state.halfspaces) < state.dimension:
        return np.eye(state.dimension)[len(state.halfspaces)]
    gaps, scales = state.facet_gaps()
    open_ = np.flatnonzero(gaps > np.maximum(eta * scales, 1e-15))
    if not open_.size:
        return None
    normals = state.facets().normals[open_]
    score = gaps[open_]
    if guidance is not None:
        d = guidance - state._centroids[open_]
        # row-wise dot products by stacked matmul, which rounds as np.dot does
        nn, dd, nd = (np.stack([normals, d, normals])[:, :, None, :]
                      @ np.stack([normals, d, d])[:, :, :, None])[:, :, 0, 0]
        cos = np.divide(nd, np.sqrt(dd) * np.sqrt(nn), out=np.ones(len(open_)), where=dd > 0)
        score = score * (0.1 + np.maximum(0.0, cos))
    order = np.lexsort((*np.round(normals, 12).T[::-1], -score))
    return normals[order[0]]


def refine(state: ApproximationState, prep: WeightedPrep, w: np.ndarray) -> WeightedSolution:
    """One sandwich iteration: solve the weighted problem to EPS_SOLVER, store
    the exact point with its witness strategy, intersect Q with the new
    halfspace."""
    sol = optimize_weighted(prep, w, EPS_SOLVER)
    state.add(sol)
    return sol


# ---------------------------------------------------------------------------
# queries


class _Budget:
    """The refinement budget every query kind carries, checked once on
    construction: the precision is a finite number > 0, max_iterations an
    integer >= 1, and time_limit a finite number of seconds > 0 or None."""

    def __post_init__(self):
        def positive(x) -> bool:
            return isinstance(x, numbers.Real) and not isinstance(x, bool) \
                and math.isfinite(x) and x > 0

        if not positive(self.precision):
            raise ModelError(f"precision must be a finite number > 0, not {self.precision!r}")
        if isinstance(self.max_iterations, bool) or \
                not isinstance(self.max_iterations, numbers.Integral) or self.max_iterations < 1:
            raise ModelError(f"max_iterations must be an integer >= 1, "
                             f"not {self.max_iterations!r}")
        if self.time_limit is not None and not positive(self.time_limit):
            raise ModelError(f"time_limit must be a finite number of seconds > 0, "
                             f"not {self.time_limit!r}")


@dataclass(frozen=True)
class ParetoQuery(_Budget):
    precision: float = 1e-4
    max_iterations: int = 200
    time_limit: float | None = None


@dataclass(frozen=True)
class AchievabilityQuery(_Budget):
    point: Sequence[float] = ()
    precision: float = 1e-4
    max_iterations: int = 200
    time_limit: float | None = None


@dataclass(frozen=True)
class QuantitativeQuery(_Budget):
    thresholds: Sequence[float] = ()
    precision: float = 1e-4
    max_iterations: int = 200
    time_limit: float | None = None


@dataclass
class QueryResult:
    """Outcome of answer_query, user orientation (minimizing objectives are
    reported with their own sign; halfspace and facet normals are flipped
    accordingly, so they may carry negative entries)."""

    kind: str
    objectives: list[Objective]
    verdict: str | None = None
    vertices: list[list[float]] | None = None
    facets: list[dict] | None = None
    halfspaces: list[dict] | None = None
    lower: float | None = None
    upper: float | None = None
    witness: dict | None = None
    precision_achieved: float | None = None
    iterations: int = 0
    exhausted: bool = False
    warnings: list[str] = field(default_factory=list)
    statistics: dict = field(default_factory=dict)
    state: ApproximationState | None = None
    problem: NormalizedProblem | None = None


def answer_query(m: MarkovAutomaton, objectives: Sequence[Objective], query) -> QueryResult:
    """Run the refinement loop until the query is answered, the requested
    precision is met, or the iteration/time budget runs out (flagged, never
    silent).  Raises ModelError when the model violates the assumptions."""
    if not isinstance(query, (ParetoQuery, AchievabilityQuery, QuantitativeQuery)):
        raise ModelError(f"unknown query type {type(query).__name__}")
    # normalization maps each objective to one, so check before it builds products
    if len(objectives) > MAX_DIMENSION:
        raise ModelError(f"at most {MAX_DIMENSION} objectives are supported")
    p = normalize_query(m, objectives)
    rep = validate_assumptions(p)
    if not rep.ok:
        raise ModelError("model violates assumptions:\n" + str(rep))
    prep = prepare_weighted(p)
    state = ApproximationState(p.dimension)

    deadline = None if query.time_limit is None else time.monotonic() + query.time_limit
    eta = query.precision
    # halfspace offsets already carry up to EPS_SOLVER of slack; stop slightly
    # earlier so the reported precision stays within the request
    eta_eff = eta - EPS_SOLVER if eta > 2 * EPS_SOLVER else eta / 2

    def budget_left() -> bool:
        return len(state.halfspaces) < query.max_iterations and \
            (deadline is None or time.monotonic() < deadline)

    if isinstance(query, ParetoQuery):
        result = _run_pareto(state, prep, p, eta_eff, budget_left)
    elif isinstance(query, AchievabilityQuery):
        result = _run_achievability(state, prep, p, np.asarray(query.point, dtype=float),
                                    eta_eff, budget_left)
    else:
        result = _run_quantitative(state, prep, p, list(query.thresholds), eta, budget_left)

    result.objectives = list(p.original)
    result.iterations = len(state.halfspaces)
    result.warnings = list(state.warnings)
    result.halfspaces = [{"normal": _flip_vec(np.asarray(h.normal), p.flips),
                          "offset": h.offset} for h in state.halfspaces]
    result.statistics = problem_statistics(p, prep, len(state.halfspaces))
    # one refinement per weighted solve, each adding its halfspace
    result.statistics["refinements"] = [
        {"weights": h["normal"], "value": h["offset"], "rounds": r, "sweeps": k}
        for h, (r, k) in zip(result.halfspaces, state.solves)]
    result.state = state
    result.problem = p
    return result


def _flip_vec(v: np.ndarray, flips: np.ndarray) -> list[float]:
    return [float(x) for x in v * flips]


def problem_statistics(p: NormalizedProblem, prep: WeightedPrep, iterations: int) -> dict:
    """Deterministic size counters of a solved query for its result file."""
    return {
        "states": p.model.n_states,
        "markovian_states": len(p.model.markovian_states()),
        "choices": p.model.n_choices,
        "zero_ecs": len(p.zero_ecs),
        "zero_ec_states": sum(len(c.members) for c in p.zero_ecs),
        "iterations": iterations,
        "total_structures": len(prep.structures),
    }


def _run_pareto(state, prep, p, eta_eff, budget_left) -> QueryResult:
    while budget_left():
        w = select_weight(state, eta_eff)
        if w is None:
            break
        refine(state, prep, w)
    exhausted = select_weight(state, eta_eff) is not None

    gaps, scales = state.facet_gaps()
    worst = float(np.max(gaps / scales)) if len(gaps) else 0.0
    vertex_ids = sorted(_extreme_ids(state, state.finite_indices()),
                        key=lambda i: tuple(state.points[i].point * p.flips))
    vertices = [_flip_vec(state.points[i].point, p.flips) for i in vertex_ids]
    # every hull names a distinct point by one index, its first
    pos = {i: j for j, i in enumerate(vertex_ids)}
    h = state.facets()
    facets = [{"normal": _flip_vec(h.normals[f], p.flips), "offset": float(h.offsets[f]),
               "vertices": [pos[i] for i in h.ids[h.ptr[f]:h.ptr[f + 1]].tolist()]}
              for f in np.flatnonzero(~h.degenerate)]
    witness = {"vertices": [_strategy_ids(state.points[i].strategy, p.model) for i in vertex_ids]}
    return QueryResult(kind="pareto", objectives=[], vertices=vertices, facets=facets,
                       witness=witness, precision_achieved=worst + EPS_SOLVER,
                       exhausted=exhausted)


def _run_achievability(state, prep, p, point, eta_eff, budget_left) -> QueryResult:
    if point.shape != (p.dimension,) or not np.isfinite(point).all():
        raise ModelError("achievability queries need a point with one value per objective, "
                         "each finite")
    q = point * p.flips
    verdict, witness, exhausted = "unknown", None, False
    while True:
        hit = next(iter(np.flatnonzero(state.normals @ q > state.offsets)), None)
        if hit is not None:
            verdict = "no"
            witness = {"separating": {"normal": _flip_vec(state.normals[hit], p.flips),
                                      "offset": float(state.offsets[hit])}}
            break
        # a point beyond a facet of P is in no mixture, so only a point that
        # meets every facet is worth the mixture LP
        normals, offsets = _loose_facets(state)
        mix = _inner_feasible(state, q) if (normals @ q <= offsets).all() else None
        if mix is not None:
            verdict = "yes"
            witness = _mixture_witness(state, mix, p)
            break
        if not budget_left():
            exhausted = True
            break
        w = select_weight(state, eta_eff, guidance=q)
        if w is None:
            break  # front resolved to precision; the point sits in the slack
        refine(state, prep, w)
    return QueryResult(kind="achievability", objectives=[], verdict=verdict,
                       witness=witness, exhausted=exhausted)


def _run_quantitative(state, prep, p, thresholds, eta, budget_left) -> QueryResult:
    if len(thresholds) != p.dimension - 1 or not np.isfinite(thresholds).all():
        raise ModelError("quantitative queries need one threshold per objective after the "
                         "first, each finite")
    t_int = np.array([p.flips[j + 1] * thresholds[j] for j in range(len(thresholds))])
    while True:
        upper, guidance = _outer_slice_max(state, t_int)
        # P's facets bound its slice from above, so while that bound leaves
        # the bracket wider than eta the mixture LP cannot close it
        open_ = upper - _inner_slice_bound(state, t_int) > eta
        if not open_:
            lower, mix = _inner_slice_max(state, t_int)
            if _bracket(lower, upper) <= eta:
                break
        if not budget_left():
            break
        # halfspace offsets carry up to EPS_SOLVER of slack, so re-solving a
        # facet cannot close a gap below that: such a facet counts as closed
        w = select_weight(state, EPS_SOLVER, guidance=guidance)
        if w is None:
            break
        refine(state, prep, w)
    if open_:
        lower, mix = _inner_slice_max(state, t_int)
    witness = _mixture_witness(state, mix, p) if mix else None
    lo_u, up_u = (lower, upper) if p.flips[0] > 0 else (-upper, -lower)
    # an LP optimum may sit an ulp above the closed form's; the bracket's
    # width is never reported below 0
    return QueryResult(kind="quantitative", objectives=[], lower=lo_u, upper=up_u,
                       witness=witness, precision_achieved=max(0.0, _bracket(lower, upper)),
                       exhausted=_bracket(lower, upper) > eta)


def _bracket(lower: float, upper: float) -> float:
    return 0.0 if lower == upper else upper - lower  # equal infinities give 0


def _strategy_ids(sigma: MDStrategy, m: MarkovAutomaton) -> dict[int, int]:
    """The witness form of an action vector on m: {probabilistic state: action}."""
    ps = np.flatnonzero(~flat(m).markovian)
    return dict(zip(ps.tolist(), sigma[ps].tolist()))


def _mixture_witness(state: ApproximationState, mix, p: NormalizedProblem) -> dict:
    parts = []
    combined = np.zeros(p.dimension)
    for lam, i in mix:
        ap = state.points[i]
        combined += lam * ap.point
        parts.append({"weight": lam, "strategy": _strategy_ids(ap.strategy, p.model),
                      "point": _flip_vec(ap.point, p.flips)})
    return {"mixture": parts, "point": _flip_vec(combined, p.flips)}


# ---------------------------------------------------------------------------
# slices and mixtures over (P, Q)


def _extreme_ids(state: ApproximationState, ids: list[int]) -> list[int]:
    """The ids among `ids` that name a vertex of the downward hull of the
    stored points, in the given order.  The hull's facets list exactly the
    extreme points of the downward closure (a point dominated by a mixture
    of others lies on no facet), each by the index of its first copy."""
    named = set(state.facets().ids.tolist())
    return [i for i in ids if i in named]


def _mixture_lp(c: np.ndarray, A_ub, b_ub):
    """HiGHS linear program min c.lam, A_ub lam <= b_ub over the mixture
    weights lam: nonnegative, summing to 1."""
    return linprog(c=c, A_ub=A_ub, b_ub=b_ub, A_eq=np.ones((1, len(c))), b_eq=[1.0],
                   bounds=[(0.0, None)] * len(c), method="highs")


def _inner_feasible(state: ApproximationState, q: np.ndarray):
    """Mixture of stored finite points dominating q, or None."""
    idx = state.finite_indices()
    if not idx:
        return None
    P = np.array([state.points[i].point for i in idx])
    res = _mixture_lp(np.zeros(len(idx)), -P.T, -q)
    if res.status != 0:
        return None
    return _mixture_from(res.x, idx)


def _inner_slice_max(state: ApproximationState, t_int: np.ndarray):
    """Best first coordinate over mixtures meeting the thresholds."""
    idx = state.finite_indices()
    if not idx:
        return NEG_INF, None
    P = np.array([state.points[i].point for i in idx])
    res = _mixture_lp(-P[:, 0], -P[:, 1:].T if len(t_int) else None,
                      -t_int if len(t_int) else None)
    if res.status == 2:
        return NEG_INF, None
    if res.status != 0:
        raise SolverError(f"inner slice optimization failed (status {res.status})")
    return float(-res.fun), _mixture_from(res.x, idx)


def _slice_max(normals: np.ndarray, offsets: np.ndarray, t: np.ndarray) -> float:
    """max x_0 over {x : normals x <= offsets, x_j >= t_j for j >= 1}:
    +inf when no row bounds x_0, -inf when the set is empty.  Every normal
    is nonnegative, so lowering an x_j to t_j keeps a point inside and the
    thresholds bind: a row with n_0 > 0 caps x_0 at (o - n[1:].t) / n_0, and
    a row with n_0 = 0 empties the set when n[1:].t > o."""
    room = offsets - normals[:, 1:] @ t
    lead = normals[:, 0] > 0
    if (room[~lead] < 0).any():
        return NEG_INF
    return float(np.min(room[lead] / normals[lead, 0], initial=math.inf))


def _outer_slice_max(state: ApproximationState, t_int: np.ndarray):
    """Best first coordinate over the outer approximation Q meeting the
    thresholds (+inf while Q is unbounded in that direction), and the point
    (best, thresholds) of Q attaining it, which guides weight selection, or
    None when the best is infinite."""
    best = _slice_max(state.normals, state.offsets, t_int)
    return best, np.concatenate([[best], t_int]) if math.isfinite(best) else None


# Every point of P's downward closure meets every facet of its hull, since a
# facet's offset is its normal's largest value over the stored points.  The
# facets are loosened by this much, relative to max(1, |offset|), before they
# rule a mixture LP out: enough for the rounding of the products with them
# and for HiGHS's primal feasibility tolerance (1e-7), within which the LP
# may still find a mixture.
_FACET_SLACK = 1e-7


def _loose_facets(state: ApproximationState) -> tuple[np.ndarray, np.ndarray]:
    h = state.facets()
    return h.normals, h.offsets + _FACET_SLACK * np.maximum(1.0, np.abs(h.offsets))


def _inner_slice_bound(state: ApproximationState, t_int: np.ndarray) -> float:
    """An upper bound of `_inner_slice_max`: the slice's maximum over P's
    loosened facets, and -inf when no finite point is stored."""
    normals, offsets = _loose_facets(state)
    return _slice_max(normals, offsets, t_int) if len(offsets) else NEG_INF


def _mixture_from(lam: np.ndarray, idx: list[int]):
    mix = [(float(l), idx[i]) for i, l in enumerate(lam) if l > 1e-12]
    total = sum(l for l, _ in mix)
    return [(l / total, i) for l, i in mix]
