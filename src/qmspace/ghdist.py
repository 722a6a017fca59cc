"""Distances between finite quasi-metric (measure) spaces.

Exact Gromov-Hausdorff-style distances over asymmetric gluings are not
computable directly; what is computable is the two-sided bracket coming
from epsilon-isometries: the minimal isometry defect m of a map between
the spaces pins the admissible-gluing distance between m/(1+theta) and
2m.  Prokhorov distances between measures on one space are computed
exactly by binary search with a max-flow feasibility test.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    MeasuredSpace,
    QuasiMetricSpace,
    SpaceError,
    _OnFirstCall,
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

nx = _OnFirstCall("networkx")

#: enumerate all maps exactly when |target|^|source| is at most this
EXACT_MAP_LIMIT = 1_000_000

LOCAL_SEARCH_RESTARTS = 32
LOCAL_SEARCH_ITER_FACTOR = 200

#: Prokhorov bisection width and feasibility slack
PROKHOROV_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PointMap:
    """A map between finite spaces given by a per-source target index."""

    source: QuasiMetricSpace
    target: QuasiMetricSpace
    assignment: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.assignment, dtype=int)
        if a.shape != (self.source.n,):
            raise SpaceError("assignment must map every source point")
        if a.size and (a.min() < 0 or a.max() >= self.target.n):
            raise SpaceError("assignment target index out of range")
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
    A = np.asarray(sorted(set(int(i) for i in A)), dtype=int)
    B = np.asarray(sorted(set(int(i) for i in B)), dtype=int)
    if A.size == 0 or B.size == 0:
        raise SpaceError("Hausdorff distance needs nonempty sets")
    if min(A[0], B[0]) < 0 or max(A[-1], B[-1]) >= space.n:
        raise SpaceError(
            f"Hausdorff set index out of range: the space has {space.n} points")
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
    starts (flagged heuristic).
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
            improved = False
            for i in range(m):
                cand = np.repeat(a[None], n, axis=0)
                cand[:, i] = np.arange(n)
                defects = _map_defect(dx, dy, cand)
                k = int(np.argmin(defects))
                if defects[k] < cur - 1e-15:
                    a[i] = k
                    cur = float(defects[k])
                    improved = True
                    break
            if not improved:
                break
        if cur < best:
            best, best_a = cur, a.copy()
    return IsoDefect(best, PointMap(X, Y, best_a), heuristic=True)


def _check_theta(theta: float, X: QuasiMetricSpace, Y: QuasiMetricSpace):
    """Raise unless theta dominates both reversibilities."""
    lam = max(reversibility(X), reversibility(Y))
    if theta < lam - 1e-12:
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


def _excess(d: np.ndarray, mu: np.ndarray, nu: np.ndarray, eps: float) -> float:
    """sup over sets A of mu(A) - nu(A^eps), via max-flow min-cut.

    A^eps is the open forward fattening {y : min_{a in A} d(a, y) < eps}.
    """
    n = len(mu)
    g = nx.DiGraph()
    big = float(mu.sum() + nu.sum() + 1.0)
    for i in range(n):
        if mu[i] > 0:
            g.add_edge("s", ("a", i), capacity=float(mu[i]))
        if nu[i] > 0:
            g.add_edge(("b", i), "t", capacity=float(nu[i]))
    rows, cols = np.nonzero(d < eps)
    for i, j in zip(rows, cols):
        g.add_edge(("a", int(i)), ("b", int(j)), capacity=big)
    if "s" not in g or "t" not in g:
        return float(mu.sum())
    flow = nx.maximum_flow_value(g, "s", "t")
    return float(mu.sum() - flow)


def prokhorov(space: QuasiMetricSpace, mu, nu) -> float:
    """Prokhorov distance between two finite measures on one space.

    Binary search over eps; feasibility of one eps is an exact min-cut
    computation for each of the two defining inequalities.
    """
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if np.any(mu < 0) or np.any(nu < 0):
        raise SpaceError("measures must be nonnegative")
    if mu.shape != (space.n,) or nu.shape != (space.n,):
        raise SpaceError("weight vectors must match the space size")
    if np.allclose(mu, nu, atol=PROKHOROV_TOL):
        return 0.0
    d = space.dist

    def feasible(eps):
        return (
            _excess(d, mu, nu, eps) <= eps + PROKHOROV_TOL
            and _excess(d, nu, mu, eps) <= eps + PROKHOROV_TOL
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
    # cross(x, y) = min_{x'} d_X(x, x') + d_Y(f(x'), y) + eps, and reversed
    xy = (dx[:, :, None] + dy[a][None, :, :]).min(axis=1) + eps
    yx = (dy[:, a][:, :, None] + dx[None, :, :]).min(axis=1) + eps
    out = np.zeros((m + n, m + n))
    out[:m, :m] = dx
    out[m:, m:] = dy
    out[:m, m:] = xy
    out[m:, :m] = yx
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
