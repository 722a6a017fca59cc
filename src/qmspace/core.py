"""Finite quasi-metric spaces and their basic asymmetric geometry.

A quasi-metric space here is a finite point set with an n x n matrix of
finite, nonnegative distances (row = source, column = target) satisfying
the triangle inequality but not necessarily symmetry.  All operations are
pure functions of immutable inputs.  Distance matrices are checked where
a space is built, and weight vectors and marginals where they enter, by
``_measure``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpaceError",
    "QuasiMetricSpace",
    "MeasuredSpace",
    "ThetaBound",
    "BallSpec",
    "FunctionalReport",
    "DoublingReport",
    "validate",
    "reversibility",
    "symmetrize",
    "ball",
    "diameter",
    "path_length",
    "induced_length_metric",
    "midpoint_defect",
    "covering_number",
    "capacity",
    "doubling_constant",
]

#: exact covering/capacity search is limited to this many points
EXACT_SEARCH_LIMIT = 12

#: default triangle tolerance for user-supplied matrices
USER_TOL = 1e-6


class SpaceError(ValueError):
    """Structural problem with a space, subset, or parameter."""


#: hop entries one vectorized step of ``dijkstra`` expands, about; bounds
#: its working memory on large inputs
_HOP_BLOCK = 1 << 20


def _fan_out(entries: np.ndarray, n: int, ptr: np.ndarray):
    """Flat (row, point) entries, each once per hop of its point k, where
    hops ptr[k]:ptr[k + 1] of a hop list are k's, in blocks of about
    _HOP_BLOCK: (entries, the entries repeated, their hop indices, each
    entry's hop count) per block."""
    blocks = -(-len(entries) * int(ptr[-1]) // max(n * _HOP_BLOCK, 1))  # rounded up
    for part in np.array_split(entries, blocks) if blocks else ():
        k = part % n
        count = ptr[k + 1] - ptr[k]
        end = np.cumsum(count)
        hop = np.arange(count.sum()) + np.repeat(ptr[k + 1] - end, count)
        yield part, np.repeat(part, count), hop, count


def _hops(d: np.ndarray, radius: float):
    """The hop graph at this radius: (tail, head) of every pair i != j with
    0 < d[i, j] < radius, by tail, then head.  The one hop rule: chains
    (``dijkstra``) and gradients (``curvature.grad_norms``) both use it."""
    hops = (d > 0) & (d < radius)
    np.fill_diagonal(hops, False)
    return np.nonzero(hops)


def _indices(indices, n: int, what: str) -> np.ndarray:
    """``indices`` (one or an array) as point indices of an n-point space.

    The one check of a point index: every index that enters the package
    passes here, or raises SpaceError.  Each must be an integer value i
    with 0 <= i < n, so -1 is not read as the last point, nor 1.5 as 1.
    """
    a = np.asarray(indices)
    with np.errstate(invalid="ignore"):
        ok = a.dtype.kind in "iuf" and bool(
            ((a >= 0) & (a < n) & (a == np.round(a))).all())
    if not ok:
        raise SpaceError(f"{what} index out of range: a point index is an "
                         f"integer i with 0 <= i < {n}")
    return a.astype(np.intp)


def _sorted_set(a) -> np.ndarray:
    """The distinct values of ``a`` (no NaN), sorted: the array
    ``np.unique`` returns, which in numpy 2.4 imports ``numpy.ma`` first
    (11-21 ms in a fresh process)."""
    s = np.sort(a, axis=None)
    return s[np.append(True, s[1:] != s[:-1])] if s.size else s


def _index_set(indices, n: int, what: str) -> np.ndarray:
    """A nonempty set of point indices as a sorted array without repeats,
    checked by ``_indices``."""
    idx = _sorted_set(_indices(list(indices), n, what))
    if not idx.size:
        raise SpaceError(f"{what} is empty")
    return idx


def dijkstra(d: np.ndarray, radius: float, sources=None, limit=np.inf,
             return_predecessors: bool = False):
    """Shortest hop chains from each source, as Dijkstra's algorithm finds
    them.

    A hop is a pair i != j with 0 < d[i, j] < radius, and a chain's length
    is the sum of its hop distances taken left to right in floating point.
    Returns ``dist``, or ``(dist, pred)`` with ``return_predecessors``, with
    one row per source (every point when ``sources`` is None):

    - ``dist[a, j]`` is the least length of a chain from ``sources[a]`` to
      j.  Rounded addition is monotone, so this is bitwise the value
      Dijkstra's algorithm computes.  It is inf where no chain exists or
      where the least length exceeds ``limit`` (>= 0; a scalar or one value
      per source), as with scipy's ``dijkstra(limit=...)``.
    - ``pred[a, j]`` is the point before j on a shortest chain, -1 at the
      source and where dist is inf.  A hop k -> j is tight when
      dist[a, k] + d[k, j] == dist[a, j].  The rule: among the tight hops
      with dist[a, k] < dist[a, j], the least dist[a, k], then the lowest
      index k.  Dijkstra's algorithm also takes a least-distance tight
      hop, but breaks exact ties by its heap order.  Points with no tight
      hop from a smaller distance (every tight hop is shorter than half
      an ulp of dist[a, j], so the sum rounds back to it) take theirs in
      rounds: in each, those with a tight hop from the source or from a
      point that has its predecessor take the lowest such k.  So
      following ``pred`` from any point reaches the source: the
      predecessors form a tree, as Dijkstra's do.

    Label-correcting rounds over all sources at once: each round extends
    by one hop every entry that fell in the round before, and the rounds
    stop when none falls.  The work grows with the entries within the
    limit, not with the number of points.  All pairs with no limit and
    no predecessors go to scipy's Dijkstra instead, which is faster there
    and gives the same distances.
    """
    d = np.asarray(d, dtype=float)
    n = d.shape[0]
    tail, head = _hops(d, radius)
    length = d[tail, head]
    out = np.searchsorted(tail, np.arange(n + 1))
    all_pairs = sources is None and np.all(np.asarray(limit) == np.inf)
    if all_pairs and not return_predecessors:
        from scipy.sparse import csr_array  # 0.3 s: only when needed
        from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

        # the hop list as a sparse matrix (csgraph's dense input would
        # drop entries within 1e-8 of zero)
        return csgraph_dijkstra(csr_array((length, head, out), shape=(n, n)),
                                directed=True)
    sources = np.arange(n) if sources is None else _indices(sources, n, "source")
    step = head - tail
    # an entry above its row's limit is never written: it starts just above
    cap = np.repeat(np.nextafter(np.broadcast_to(
        np.asarray(limit, dtype=float), sources.shape), np.inf), n)
    dist = cap.copy()
    front = np.arange(len(sources)) * n + sources
    dist[front] = 0.0
    fell = np.zeros(dist.size, dtype=bool)
    while front.size:
        for _, at, hop, _ in _fan_out(front, n, out):
            cand = dist[at] + length[hop]
            at += step[hop]
            better = cand < dist[at]
            at = at[better]
            np.minimum.at(dist, at, cand[better])
            fell[at] = True
        front = np.flatnonzero(fell)
        fell[front] = False
    dist[dist == cap] = np.inf
    shape = (len(sources), n)
    if not return_predecessors:
        return dist.reshape(shape)

    pred = np.full(dist.size, -1)
    into = np.lexsort((tail, head))  # hops by head, then tail
    ptr = np.searchsorted(head[into], np.arange(n + 1))
    reached = np.flatnonzero((dist > 0) & (dist < np.inf))
    flat = [reached[:0]]  # entries whose every tight hop keeps their distance
    for part, at, hop, count in _fan_out(reached, n, ptr):
        hop = into[hop]
        via = dist[at - head[hop] + tail[hop]]
        key = np.where((via < dist[at]) & (via + length[hop] == dist[at]),
                       via, np.inf)
        first = np.cumsum(count) - count
        least = np.repeat(np.minimum.reduceat(key, first), count)
        pos = np.where((key == least) & (key < np.inf), np.arange(len(key)),
                       len(key))
        pick = np.minimum.reduceat(pos, first)
        has = pick < len(key)
        pred[part[has]] = tail[hop[pick[has]]]
        flat.append(part[~has])
    # Flat entries take their predecessor in rounds, each from the entries
    # settled before it, so no chain of them closes on itself.  Each round
    # settles at least one: of the flat entries left, the one whose
    # distance was set first has a tight hop from a settled entry.
    settled = pred >= 0
    settled[dist == 0.0] = True
    flat = np.concatenate(flat)
    while flat.size:
        pick = []
        for _, at, hop, count in _fan_out(flat, n, ptr):
            hop = into[hop]
            k = at - head[hop] + tail[hop]
            tight = settled[k] & (dist[k] + length[hop] == dist[at])
            pick.append(np.minimum.reduceat(np.where(tight, tail[hop], n),
                                            np.cumsum(count) - count))
        pick = np.concatenate(pick)
        has = pick < n
        if not has.any():
            raise RuntimeError("dijkstra: a flat entry has no settled hop")
        pred[flat[has]] = pick[has]
        settled[flat[has]] = True
        flat = flat[~has]
    return dist.reshape(shape), pred.reshape(shape)


def _floats(x, what: str) -> np.ndarray:
    """``x`` as a float array; SpaceError where numpy cannot make one (a
    dict, a ragged list, a word).  None becomes NaN."""
    try:
        return np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise SpaceError(f"{what} must be an array of numbers") from None


def _measure(w, n: int, what: str) -> np.ndarray:
    """``w`` as a float vector of n finite, nonnegative masses.

    The one check of a weight vector or marginal: every measure that
    enters the package passes through here or raises SpaceError.
    """
    w = _floats(w, what)
    if w.shape != (n,):
        raise SpaceError(f"{what} must have length {n}, got shape {w.shape}")
    if not (np.isfinite(w).all() and (w >= 0).all()):
        raise SpaceError(f"{what} must be finite and nonnegative")
    return w


@dataclass(frozen=True, eq=False)
class QuasiMetricSpace:
    """Finite point set with an asymmetric distance matrix.

    ``dist[i, j]`` is the distance from point i to point j; every entry
    must be finite.  Optional ``coords`` carry an embedding used by the
    model generators.
    """

    dist: np.ndarray
    coords: np.ndarray | None = None

    def __post_init__(self):
        d = _floats(self.dist, "distance matrix")
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise SpaceError(f"distance matrix must be square, got shape {d.shape}")
        if not np.isfinite(d).all():
            raise SpaceError("distance matrix has non-finite entries")
        object.__setattr__(self, "dist", d)
        if self.coords is not None:
            c = _floats(self.coords, "coords")
            if c.shape[:1] != d.shape[:1]:
                raise SpaceError(f"coords need one row per point, got shape "
                                 f"{c.shape} for {len(d)} points")
            object.__setattr__(self, "coords", c)

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def subspace(self, indices) -> "QuasiMetricSpace":
        idx = _indices(indices, self.n, "subspace")
        coords = self.coords[idx] if self.coords is not None else None
        return QuasiMetricSpace(self.dist[np.ix_(idx, idx)], coords)


@dataclass(frozen=True, eq=False)
class MeasuredSpace:
    """Quasi-metric space with finite, nonnegative atom weights and an
    optional basepoint."""

    space: QuasiMetricSpace
    weights: np.ndarray
    basepoint: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "weights",
                           _measure(self.weights, self.space.n, "weights"))
        if self.basepoint is not None:
            b = _indices(self.basepoint, self.space.n, "basepoint")
            if b.ndim:
                raise SpaceError("basepoint must be one point index")
            object.__setattr__(self, "basepoint", int(b))

    @property
    def n(self) -> int:
        return self.space.n

    def normalized(self) -> "MeasuredSpace":
        total = self.weights.sum()
        if total <= 0:
            raise SpaceError("cannot normalize a zero measure")
        return MeasuredSpace(self.space, self.weights / total, self.basepoint)


@dataclass(frozen=True)
class ThetaBound:
    """Nondecreasing step bound on reversibility of closed forward balls.

    ``breakpoints`` is a sorted list of (radius, value) pairs with values
    >= 1 and nondecreasing.  The bound at radius r is the value of the
    smallest breakpoint radius >= r; past the last breakpoint the last
    value applies.
    """

    breakpoints: tuple

    def __post_init__(self):
        bps = tuple((float(r), float(v)) for r, v in self.breakpoints)
        if not bps:
            raise SpaceError("ThetaBound needs at least one breakpoint")
        radii = [r for r, _ in bps]
        values = [v for _, v in bps]
        if np.isnan(radii).any() or radii != sorted(radii):
            raise SpaceError("breakpoint radii must be sorted")
        if not all(v >= 1 for v in values):
            raise SpaceError("bound values must be >= 1")
        if any(b > a for a, b in zip(values[1:], values)):
            raise SpaceError("bound values must be nondecreasing")
        object.__setattr__(self, "breakpoints", bps)

    def __call__(self, r: float) -> float:
        for radius, value in self.breakpoints:
            if radius >= r:
                return value
        return self.breakpoints[-1][1]

    @staticmethod
    def from_function(fn, radii) -> "ThetaBound":
        """Tabulate a nondecreasing function into a step bound."""
        return ThetaBound(tuple((float(r), float(fn(r))) for r in sorted(radii)))


@dataclass(frozen=True)
class BallSpec:
    """Forward or backward ball around a center point."""

    center: int
    radius: float
    orientation: str = "forward"
    closed: bool = False

    def __post_init__(self):
        if not self.radius >= 0:
            raise SpaceError("ball radius must be nonnegative")
        if self.orientation not in ("forward", "backward"):
            raise SpaceError(f"unknown orientation {self.orientation!r}")


#: the tolerance of each report kind (a report's name before "["): in
#: sampling pitches (``_pitch``), as chain and grid quantization move these
#: checks at first order in the pitch, or fixed; transport.ASYMMETRY_TOL
#: and curvature.DCN_TOL are read from here
_PITCH_TOLS = {"cd": 5.0, "brunn_minkowski": 5.0, "hwi": 5.0,
               "poincare": 5.0, "lichnerowicz": 5.0,
               "bishop_gromov": 3.0, "geodesy": 3.0, "diameter": 3.0}
_FIXED_TOLS = {"log_sobolev": 0.10, "asymmetry_bound": 1e-9,
               "dcn_membership": 1e-12}


def _tolerance(kind: str, pitch: float = np.nan, scale: float = 1.0) -> float:
    """A report kind's tolerance: its fixed value, or scale * pitch times
    its multiple of the pitch (``scale`` is the bound, for diameter)."""
    if kind in _FIXED_TOLS:
        return _FIXED_TOLS[kind]
    return scale * _PITCH_TOLS[kind] * pitch


@dataclass
class FunctionalReport:
    """One checked inequality: lhs against rhs, its slack and tolerance.

    ``passed`` is set from the other fields by the one pass rule, which
    keys on the report kind (the name before "[").
    """

    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool = field(init=False)
    tolerance: float
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        kind = self.name.partition("[")[0]
        lhs, rhs, slack, tol = self.lhs, self.rhs, self.slack, self.tolerance
        if kind == "log_sobolev":
            passed = slack / max(abs(lhs), abs(rhs), 1e-30) >= -tol
        elif kind in ("poincare", "lichnerowicz"):
            passed = slack >= -tol * max(lhs, 1.0)
        elif kind == "diameter":
            passed = lhs <= rhs + tol
        else:
            passed = slack >= -tol
        self.passed = bool(passed)


@dataclass
class DoublingReport:
    constant: float
    witness_point: int
    witness_radius: float
    finite: bool = True


def validate(space: QuasiMetricSpace, tol: float = USER_TOL) -> FunctionalReport:
    """Check quasi-metric axioms on the full matrix.

    Lists every triangle violation d(i,k) > d(i,j) + d(j,k) + tol, every
    zero off-diagonal entry, negative entry, and nonzero diagonal entry
    (|d(i,i)| > tol) in ``details``.  ``lhs`` is the least tolerance the
    matrix validates at: the largest triangle shortfall or |d(i,i)|, and
    inf when an off-diagonal entry is <= 0; it passes when lhs <= tol.
    ``tol`` must be finite and nonnegative.
    """
    if not 0 <= tol < np.inf:
        raise SpaceError(f"tolerance must be finite and nonnegative, got {tol}")
    d = space.dist
    n = space.n
    diag = np.abs(np.diag(d))
    off = d + np.diag(np.full(n, np.inf))
    nonpositive = [(int(i), int(j)) for i, j in zip(*np.nonzero(off <= 0))]
    details = {
        "triangle_violations": [],
        "zero_offdiagonal": [ij for ij in nonpositive if d[ij] == 0],
        "negative_entries": [ij for ij in nonpositive if d[ij] < 0],
        "nonzero_diagonal": [int(i) for i in np.nonzero(diag > tol)[0]],
    }

    # Row i's largest shortfall is max_k (d[i,k] - min_j (d[i,j] + d[j,k])).
    # Rounded subtraction is monotone, so it exceeds tol exactly when some
    # triple of row i has slack > tol; only those rows are enumerated.
    worst = float(diag.max(initial=0.0))
    through = np.empty_like(d)  # through[j,k] = d(i,j) + d(j,k)
    for i in range(n):
        np.add(d[i][:, None], d, out=through)
        shortfall = (d[i] - through.min(axis=0)).max()
        worst = max(worst, float(shortfall))
        if shortfall > tol:
            for j, k in zip(*np.nonzero(d[i] - through > tol)):
                details["triangle_violations"].append((int(i), int(j), int(k)))
    if nonpositive:
        worst = np.inf
    return FunctionalReport(name="validate", lhs=worst, rhs=0.0,
                            slack=0.0 - worst, tolerance=tol, details=details)


def reversibility(space: QuasiMetricSpace, subset=None) -> float:
    """Max of d(x,y)/d(y,x) over ordered pairs of distinct points in subset.

    Returns 1.0 for a singleton subset.  Pairs with d(x,y) = d(y,x),
    zero included, count as ratio 1.
    """
    idx = (np.arange(space.n) if subset is None
           else _index_set(subset, space.n, "reversibility subset"))
    if idx.size == 1:
        return 1.0
    d = space.dist[np.ix_(idx, idx)]
    mask = ~np.eye(idx.size, dtype=bool)
    fwd, bwd = d[mask], d.T[mask]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(fwd == bwd, 1.0, fwd / bwd)
    return float(np.max(ratios))


def symmetrize(space: QuasiMetricSpace) -> QuasiMetricSpace:
    """Arithmetic-mean symmetrization (d(x,y)+d(y,x))/2."""
    return QuasiMetricSpace(0.5 * (space.dist + space.dist.T), space.coords)


def ball(space: QuasiMetricSpace, spec: BallSpec) -> np.ndarray:
    """Point indices inside the specified forward/backward ball."""
    center = int(_indices(spec.center, space.n, "center"))
    if spec.orientation == "forward":
        dists = space.dist[center]
    else:
        dists = space.dist[:, center]
    if spec.closed:
        return np.nonzero(dists <= spec.radius)[0]
    return np.nonzero(dists < spec.radius)[0]


def diameter(space: QuasiMetricSpace) -> float:
    """Max distance over all ordered pairs; 0 for a singleton."""
    if space.n <= 1:
        return 0.0
    return float(space.dist.max())


def path_length(space: QuasiMetricSpace, path) -> float:
    """Sum of consecutive-hop distances along a point-index sequence."""
    p = _indices(list(path), space.n, "path").tolist()
    if not p:
        raise SpaceError("empty path has no length")
    return float(sum(space.dist[a, b] for a, b in zip(p, p[1:])))


def _pitch(space: QuasiMetricSpace) -> float:
    """Largest nearest-out-neighbor distance: the sampling pitch."""
    if space.n < 2:
        raise SpaceError("the sampling pitch needs at least 2 points")
    d = space.dist + np.diag(np.full(space.n, np.inf))
    return float(d.min(axis=1).max())


def induced_length_metric(
    space: QuasiMetricSpace, neighbor_radius: float
) -> QuasiMetricSpace:
    """All-pairs shortest directed chains with hops below neighbor_radius.

    The output dominates the input entrywise and is idempotent under a
    second application with the same radius.  Raises when the hop graph
    is not strongly connected.
    """
    out = dijkstra(space.dist, neighbor_radius)
    if not np.all(np.isfinite(out)):
        i, j = np.argwhere(~np.isfinite(out))[0]
        raise SpaceError(
            f"hop graph not strongly connected: no chain from {i} to {j} "
            f"at neighbor radius {neighbor_radius}"
        )
    return QuasiMetricSpace(out, space.coords)


def midpoint_defect(space: QuasiMetricSpace, x: int, y: int) -> float:
    """Best achievable deviation from an exact midpoint between x and y.

    min over candidate z of max(|d(x,z) - d(x,y)/2|, |d(z,y) - d(x,y)/2|).
    A small defect certifies approximate geodesy at this sampling.
    """
    x, y = int(_indices(x, space.n, "x")), int(_indices(y, space.n, "y"))
    half = space.dist[x, y] / 2.0
    dev = np.maximum(
        np.abs(space.dist[x] - half), np.abs(space.dist[:, y] - half)
    )
    return float(dev.min())


def _ball_sets(space: QuasiMetricSpace, radius: float):
    """Open forward balls around every point, as bit masks."""
    masks = []
    for i in range(space.n):
        members = np.nonzero(space.dist[i] < radius)[0]
        m = 0
        for j in members:
            m |= 1 << int(j)
        masks.append(m)
    return masks


def covering_number(space: QuasiMetricSpace, eps: float) -> int:
    """Minimum number of open forward eps-balls covering the space.

    Exact by subset enumeration for n <= EXACT_SEARCH_LIMIT, greedy
    upper bound above.
    """
    if not eps > 0:
        raise SpaceError("eps must be positive")
    n = space.n
    masks = _ball_sets(space, eps)
    full = (1 << n) - 1
    if n <= EXACT_SEARCH_LIMIT:
        for k in range(1, n + 1):
            for combo in itertools.combinations(range(n), k):
                cover = 0
                for c in combo:
                    cover |= masks[c]
                if cover == full:
                    return k
        return n
    # greedy set cover
    covered = 0
    count = 0
    while covered != full:
        best = max(range(n), key=lambda c: bin(masks[c] | covered).count("1"))
        new = masks[best] | covered
        if new == covered:  # isolated uncovered point, its own ball covers it
            raise SpaceError("open balls cannot cover the space")
        covered = new
        count += 1
    return count


def capacity(space: QuasiMetricSpace, eps: float) -> int:
    """Maximum number of pairwise disjoint open forward eps/2-balls.

    Exact for n <= EXACT_SEARCH_LIMIT via branch and bound, greedy lower
    bound above.
    """
    if not eps > 0:
        raise SpaceError("eps must be positive")
    n = space.n
    masks = _ball_sets(space, eps / 2.0)

    if n <= EXACT_SEARCH_LIMIT:
        best = 0

        def search(start, used_mask, count):
            nonlocal best
            if count + (n - start) <= best:
                return
            if count > best:
                best = count
            for c in range(start, n):
                if masks[c] & used_mask:
                    continue
                search(c + 1, used_mask | masks[c], count + 1)

        search(0, 0, 0)
        return best

    # greedy packing
    used = 0
    count = 0
    for c in range(n):
        if not masks[c] & used:
            used |= masks[c]
            count += 1
    return count


def doubling_constant(mspace: MeasuredSpace, radii) -> DoublingReport:
    """Largest ratio of closed forward ball masses at radii 2r vs r.

    Scans every center and every radius in ``radii``.  A zero-mass
    denominator ball makes the constant infinite, with a witness.
    """
    if not len(radii):
        raise SpaceError("doubling constant needs at least one radius")
    d = mspace.space.dist
    w = mspace.weights
    best = 0.0
    witness = (0, float(radii[0]))
    for r in radii:
        if not r > 0:
            raise SpaceError("radii must be positive")
        small = (d <= r) @ w
        big = (d <= 2 * r) @ w
        for x in range(mspace.n):
            if small[x] <= 0:
                return DoublingReport(np.inf, x, float(r), finite=False)
            ratio = big[x] / small[x]
            if ratio > best:
                best = ratio
                witness = (x, float(r))
    return DoublingReport(float(best), witness[0], witness[1])
