"""Distances between finite quasi-metric (measure) spaces.

Exact Gromov-Hausdorff-style distances over asymmetric gluings are not
computable directly; what is computable is the two-sided bracket coming
from epsilon-isometries: the minimal isometry defect m of a map between
the spaces pins the admissible-gluing distance between m/(1+theta) and
2m.  Prokhorov distances between measures on one space are computed
exactly by binary search with a max-flow feasibility test (Strassen's
condition), solved by shortest augmenting paths over numpy arrays.  The
excess a flow solve measures only changes where eps crosses a distance
value, so each search solves one flow per direction and distance level
it visits.
The local search for epsilon-isometries scores each move of a point from
the distortion and covering terms that move changes, with the same
floats a full re-scoring gives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .core import (
    MeasuredSpace,
    QuasiMetricSpace,
    SpaceError,
    _index_set,
    _indices,
    _measure,
    _sorted_set,
    reversibility,
)

__all__ = [
    "PointMap",
    "GhBracket",
    "IsoDefect",
    "distortion",
    "hausdorff",
    "iso_defect",
    "gh_bracket",
    "prokhorov",
    "ghp_upper",
]

# nothing calls this: perfbench/tracing.py wraps ``nx.maximum_flow_value``
# when it installs its hooks.  Delete it once tracing.py wraps
# ``_max_flow`` instead (ROADMAP item 1).
nx = SimpleNamespace(maximum_flow_value=None)

#: enumerate all maps exactly when |target|^|source| is at most this
EXACT_MAP_LIMIT = 1_000_000

LOCAL_SEARCH_RESTARTS = 32
LOCAL_SEARCH_ITER_FACTOR = 200
#: local search scores the moves of a batch of points in arrays of
#: about this many entries each
MOVE_BATCH_ELEMS = 1 << 18

#: Prokhorov bisection width and feasibility slack
PROKHOROV_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PointMap:
    """A map between finite spaces given by a per-source target index."""

    source: QuasiMetricSpace
    target: QuasiMetricSpace
    assignment: np.ndarray

    def __post_init__(self):
        a = _indices(self.assignment, self.target.n, "assignment target")
        if a.shape != (self.source.n,):
            raise SpaceError("assignment must map every source point")
        object.__setattr__(self, "assignment", a)


@dataclass(frozen=True)
class GhBracket:
    lower: float
    upper: float
    witness_map: PointMap
    theta: float
    heuristic: bool = False


@dataclass(frozen=True)
class IsoDefect:
    defect: float
    map: PointMap
    heuristic: bool = False


def distortion(pmap: PointMap) -> float:
    """Max absolute discrepancy of distances under the map."""
    a = pmap.assignment
    dx = pmap.source.dist
    dy = pmap.target.dist[np.ix_(a, a)]
    return float(np.abs(dy - dx).max())


def hausdorff(space: QuasiMetricSpace, A, B) -> float:
    """Hausdorff distance between subsets under forward fattening.

    A lies in the forward eps-fattening of B when every a in A has some
    b with d(b, a) < eps, and symmetrically; the returned value is the
    infimum of admissible eps.
    """
    A = _index_set(A, space.n, "Hausdorff set")
    B = _index_set(B, space.n, "Hausdorff set")
    d = space.dist
    a_in_b = d[np.ix_(B, A)].min(axis=0).max()  # min over b of d(b, a)
    b_in_a = d[np.ix_(A, B)].min(axis=0).max()  # min over a of d(a, b)
    return float(max(a_in_b, b_in_a))


def _map_defect(dx, dy, assignments):
    """Defect of a batch of assignments: max(distortion, covering gap)."""
    sub = dy[assignments[:, :, None], assignments[:, None, :]]
    dis = np.abs(sub - dx[None, :, :]).reshape(len(assignments), -1).max(axis=1)
    # covering gap: farthest target point from the image, forward distance
    cover = dy[assignments, :].min(axis=1).max(axis=1)
    return np.maximum(dis, cover)


def _move_defects(dx, dy, a, points):
    """Defects of the maps that agree with ``a`` except at one point.

    Entry (j, k) is the defect of ``a`` with point ``points[j]`` sent to
    target k.  Moving point i changes only row i and column i of the
    distortion matrix |d_Y[a][:, a] - d_X| and point i's share of the
    cover, so each entry is assembled from the terms without i, the new
    row and column terms and the covering minimum over the other points.
    Max and min are exact: every value is the float ``_map_defect``
    gives for the moved map.
    """
    c, r = len(points), np.arange(len(points))
    pair = np.abs(np.diag(dy)[None, :] - dx[points, points][:, None])
    rest = np.repeat(np.abs(dy[np.ix_(a, a)] - dx)[None], c, axis=0)
    rest[r, points, :] = rest[r, :, points] = -np.inf
    row = np.abs(dy[:, a][None] - dx[points][:, None, :])  # d(k, a_q) - d(i, q)
    col = np.abs(dy[a].T[None] - dx[:, points].T[:, None, :])  # d(a_p, k) - d(p, i)
    row[r, :, points] = col[r, :, points] = pair
    dis = np.maximum(np.maximum(row.max(axis=2), col.max(axis=2)),
                     rest.reshape(c, -1).max(axis=1)[:, None])
    others = np.repeat(dy[a][None], c, axis=0)
    others[r, points] = np.inf
    cover = np.minimum(dy[None], others.min(axis=1)[:, None, :]).max(axis=2)
    return np.maximum(dis, cover)


def _first_move(dx, dy, a, cur):
    """First point, in index order, with a target that beats ``cur``.

    A target beats ``cur`` when its defect is below ``cur`` by more than
    a 2**-50 share of it, so rescaling both spaces by a power of 2 moves
    the same points.  Returns (point, target, defect) for the best target
    of that point, or None at a local minimum.  Points are scored in
    index-order batches of ``MOVE_BATCH_ELEMS // max(m, n)**2`` points,
    at least one.
    """
    m, n = len(a), len(dy)
    batch = max(1, MOVE_BATCH_ELEMS // max(m, n) ** 2)
    for lo in range(0, m, batch):
        points = np.arange(lo, min(lo + batch, m))
        defects = _move_defects(dx, dy, a, points)
        best = defects.min(axis=1)
        hit = np.flatnonzero(best < cur * (1 - 2**-50))
        if hit.size:
            j = hit[0]
            return points[j], int(np.argmin(defects[j])), float(best[j])
    return None


def _eccentricity_start(dx, dy):
    """Match points by forward-eccentricity rank; a cheap seeded start."""
    ex = dx.max(axis=1)
    ey = dy.max(axis=1)
    order_x = np.argsort(ex, kind="stable")
    order_y = np.argsort(ey, kind="stable")
    a = np.empty(len(ex), dtype=int)
    for rank, i in enumerate(order_x):
        a[i] = order_y[min(rank, len(ey) - 1)]
    return a


def iso_defect(X: QuasiMetricSpace, Y: QuasiMetricSpace,
               seed: int = 0) -> IsoDefect:
    """Minimal epsilon such that some map X -> Y is an epsilon-isometry.

    The defect of a map is the larger of its metric distortion and the
    forward covering gap of its image in Y.  Exact by enumeration for
    small spaces, otherwise first-improvement local search from seeded
    starts (flagged heuristic).  Each step moves the first point that has
    an improving target to its best one.  The n targets of a point are
    scored together in O(m**2 + n*(m+n)) from the row, column and
    covering terms the move changes (``_move_defects``), not by
    re-scoring n whole maps at O(m**2) each.
    """
    dx, dy = X.dist, Y.dist
    m, n = X.n, Y.n

    if n ** m <= EXACT_MAP_LIMIT:
        best = np.inf
        best_a = None
        combos = itertools.product(range(n), repeat=m)
        while batch := list(itertools.islice(combos, 4096)):
            arr = np.asarray(batch)
            defects = _map_defect(dx, dy, arr)
            k = int(np.argmin(defects))
            if defects[k] < best:
                best, best_a = float(defects[k]), arr[k]
        return IsoDefect(best, PointMap(X, Y, best_a), heuristic=False)

    rng = np.random.default_rng(seed)
    starts = [_eccentricity_start(dx, dy)]
    if m <= n:
        starts.append(np.arange(m))  # index-aligned start
    while len(starts) < LOCAL_SEARCH_RESTARTS:
        starts.append(rng.integers(0, n, size=m))

    best = np.inf
    best_a = starts[0]
    max_iter = LOCAL_SEARCH_ITER_FACTOR * m
    for a0 in starts:
        a = np.array(a0, dtype=int)
        cur = float(_map_defect(dx, dy, a[None])[0])
        for _ in range(max_iter):
            move = _first_move(dx, dy, a, cur)
            if move is None:
                break
            i, k, cur = move
            a[i] = k
        if cur < best:
            best, best_a = cur, a.copy()
    return IsoDefect(best, PointMap(X, Y, best_a), heuristic=True)


def _check_theta(theta: float, X: QuasiMetricSpace, Y: QuasiMetricSpace):
    """Raise unless theta dominates both reversibilities."""
    lam = max(reversibility(X), reversibility(Y))
    if not theta >= lam - 1e-12:
        raise SpaceError(
            f"theta={theta} below reversibility {lam}: no admissible gluing"
        )


def gh_bracket(X: QuasiMetricSpace, Y: QuasiMetricSpace,
               theta: float, seed: int = 0) -> GhBracket:
    """Two-sided bracket on the admissible-gluing distance between X and Y.

    With m the smaller isometry defect between the two directions, the
    distance lies in [m/(1+theta), 2m].  Requires theta to dominate both
    reversibilities, otherwise no admissible gluing exists.
    """
    _check_theta(theta, X, Y)
    fwd = iso_defect(X, Y, seed=seed)
    bwd = iso_defect(Y, X, seed=seed)
    best = fwd if fwd.defect <= bwd.defect else bwd
    m = best.defect
    return GhBracket(
        lower=m / (1.0 + theta),
        upper=2.0 * m,
        witness_map=best.map,
        theta=float(theta),
        heuristic=fwd.heuristic or bwd.heuristic,
    )


def _max_flow(usable: np.ndarray, mu: np.ndarray, nu: np.ndarray) -> float:
    """Value of a maximum flow through the bipartite excess graph.

    The source feeds point i with capacity mu_i, i sends to j without
    limit where ``usable[i, j]``, and j drains into the sink with
    capacity nu_j.  A greedy start sends each i's mass to its usable
    targets in index order; shortest augmenting paths (Edmonds-Karp) then
    finish the flow.  Each BFS layer is one array step: forward along the
    usable edges of the front, backward along the edges that carry flow.
    Every shipment subtracts a residual from itself, so the bottleneck
    goes to exactly 0 and the Edmonds-Karp bound on augments holds.
    """
    src, snk = mu.copy(), nu.copy()  # residuals of the source and sink edges
    flow = np.zeros(usable.shape)
    total = 0.0
    for i in np.flatnonzero(src > 0):
        for j in np.flatnonzero(usable[i] & (snk > 0)):
            x = min(src[i], snk[j])
            flow[i, j] = x
            src[i] -= x
            snk[j] -= x
            total += x
            if src[i] == 0.0:
                break
    while True:
        # parent of each reached node: row i from column j (-1: the
        # source), column j from row i; -2 marks unreached nodes
        row_from = np.full(len(mu), -2)
        col_from = np.full(len(nu), -2)
        front = np.flatnonzero(src > 0)
        row_from[front] = -1
        end = -1
        while front.size:
            reach = usable[front]
            cols = np.flatnonzero(reach.any(axis=0) & (col_from == -2))
            col_from[cols] = front[reach[:, cols].argmax(axis=0)]
            hit = cols[snk[cols] > 0]
            if hit.size:
                end = hit[0]
            if hit.size or not cols.size:
                break
            back = flow[:, cols] > 0
            front = np.flatnonzero(back.any(axis=1) & (row_from == -2))
            row_from[front] = cols[back[front].argmax(axis=1)]
        if end < 0:
            return total
        # walk back to the source: forward edges (i, j), backward (i, j')
        fwd, bwd = [], []
        j = end
        while True:
            i = col_from[j]
            fwd.append((i, j))
            j = row_from[i]
            if j == -1:
                break
            bwd.append((i, j))
        start = fwd[-1][0]
        x = min([snk[end], src[start]] + [flow[e] for e in bwd])
        snk[end] -= x
        src[start] -= x
        for e in fwd:
            flow[e] += x
        for e in bwd:
            flow[e] -= x
        total += x


def _excess(d: np.ndarray, mu: np.ndarray, nu: np.ndarray, eps: float) -> float:
    """sup over sets A of mu(A) - nu(A^eps), via max-flow min-cut.

    A^eps is the open forward fattening {y : min_{a in A} d(a, y) < eps}.
    The supremum is mu's mass minus a maximum flow that ships mu to nu
    along the edges {d < eps} (Strassen 1965).
    """
    return float(mu.sum() - _max_flow(d < eps, mu, nu))


def prokhorov(space: QuasiMetricSpace, mu, nu) -> float:
    """Prokhorov distance between two finite measures on one space.

    Binary search over eps; feasibility of one eps is an exact min-cut
    computation for each of the two defining inequalities.  The excess
    depends on eps only through the edge set {d < eps}, that is through
    the number of distinct distances below eps, so each direction's
    excess is solved once per such level and looked up on later steps.
    The midpoints and the returned bound are those of the plain search.
    """
    mu = _measure(mu, space.n, "mu")
    nu = _measure(nu, space.n, "nu")
    # every A has mu(A) - nu(A^eps) <= sum (mu - nu)_+, and the other way
    # round, so when both are <= PROKHOROV_TOL, eps = PROKHOROV_TOL is
    # feasible and 0.0 is within the tolerance of the answer
    gap = mu - nu
    if max(gap[gap > 0].sum(), -gap[gap < 0].sum()) <= PROKHOROV_TOL:
        return 0.0
    d = space.dist
    levels = _sorted_set(d)
    memo = {}

    def excess(a, b, eps):
        key = (a is mu, int(np.searchsorted(levels, eps)))
        if key not in memo:
            memo[key] = _excess(d, a, b, eps)
        return memo[key]

    def feasible(eps):
        return (
            excess(mu, nu, eps) <= eps + PROKHOROV_TOL
            and excess(nu, mu, eps) <= eps + PROKHOROV_TOL
        )

    # feasible: each excess is at most the total mass, hence at most hi
    hi = max(float(d.max()), float(mu.sum()), float(nu.sum()), PROKHOROV_TOL)
    lo = 0.0
    while hi - lo > PROKHOROV_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _glue(X: QuasiMetricSpace, Y: QuasiMetricSpace,
          pmap: PointMap, eps: float) -> QuasiMetricSpace:
    """Admissible metric on the disjoint union induced by an eps-isometry."""
    dx, dy = X.dist, Y.dist
    a = pmap.assignment
    m, n = X.n, Y.n
    out = np.full((m + n, m + n), np.inf)
    out[:m, :m] = dx
    out[m:, m:] = dy
    # cross(x, y) = min_{x'} d_X(x, x') + d_Y(f(x'), y) + eps, and reversed;
    # one x' at a time, so no m x m x n array is built
    xy, yx = out[:m, m:], out[m:, :m]
    for k, fk in enumerate(a):
        np.minimum(xy, dx[:, k, None] + dy[fk], out=xy)
        np.minimum(yx, dy[:, fk, None] + dx[k], out=yx)
    xy += eps
    yx += eps
    return QuasiMetricSpace(out)


def ghp_upper(X: MeasuredSpace, Y: MeasuredSpace, theta: float,
              seed: int = 0) -> float:
    """Upper bound on the measured-space distance via an explicit gluing.

    Builds the admissible gluing from the better epsilon-isometry
    between the two spaces and evaluates Hausdorff plus Prokhorov there.
    """
    _check_theta(theta, X.space, Y.space)
    best = np.inf
    for A, B in ((X, Y), (Y, X)):
        res = iso_defect(A.space, B.space, seed=seed)
        glued = _glue(A.space, B.space, res.map, res.defect)
        m = A.n
        idx_a = range(m)
        idx_b = range(m, m + B.n)
        dh = hausdorff(glued, idx_a, idx_b)
        mu = np.concatenate([A.weights, np.zeros(B.n)])
        nu = np.concatenate([np.zeros(m), B.weights])
        dp = prokhorov(glued, mu, nu)
        best = min(best, dh + dp)
    return float(best)
