"""Finite quasi-metric spaces and their basic asymmetric geometry.

A quasi-metric space here is a finite point set with an n x n matrix of
nonnegative distances (row = source, column = target) satisfying the
triangle inequality but not necessarily symmetry.  All operations are
pure functions of immutable inputs.
"""

from __future__ import annotations

import importlib
import itertools
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpaceError",
    "QuasiMetricSpace",
    "MeasuredSpace",
    "ThetaBound",
    "BallSpec",
    "ValidationReport",
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


class _OnFirstCall:
    """Stand-in for a module that is imported when one of its functions is
    first called.

    scipy and networkx take most of a second to import; this keeps them
    out of ``import qmspace`` and out of commands that never call them.
    Reading an attribute imports nothing, so the attribute can be read,
    wrapped and replaced like a module-level name.
    """

    def __init__(self, module: str):
        self._module = module

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        module = self._module

        def call(*args, **kwargs):
            return getattr(importlib.import_module(module), name)(*args, **kwargs)

        call.__name__ = call.__qualname__ = name
        setattr(self, name, call)
        return call


dijkstra = _OnFirstCall("scipy.sparse.csgraph").dijkstra


@dataclass(frozen=True, eq=False)
class QuasiMetricSpace:
    """Finite point set with an asymmetric distance matrix.

    ``dist[i, j]`` is the distance from point i to point j.  Optional
    ``labels`` name the points and ``coords`` carry an embedding used by
    the model generators.
    """

    dist: np.ndarray
    labels: tuple | None = None
    coords: np.ndarray | None = None

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise SpaceError(f"distance matrix must be square, got shape {d.shape}")
        object.__setattr__(self, "dist", d)
        if self.coords is not None:
            object.__setattr__(self, "coords", np.asarray(self.coords, dtype=float))

    @property
    def n(self) -> int:
        return self.dist.shape[0]

    def subspace(self, indices) -> "QuasiMetricSpace":
        idx = np.asarray(indices, dtype=int)
        labels = tuple(self.labels[i] for i in idx) if self.labels else None
        coords = self.coords[idx] if self.coords is not None else None
        return QuasiMetricSpace(self.dist[np.ix_(idx, idx)], labels, coords)


@dataclass(frozen=True, eq=False)
class MeasuredSpace:
    """Quasi-metric space with nonnegative atom weights and optional basepoint."""

    space: QuasiMetricSpace
    weights: np.ndarray
    basepoint: int | None = None

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.shape != (self.space.n,):
            raise SpaceError(f"weights must have length {self.space.n}, got {w.shape}")
        if np.any(w < 0):
            raise SpaceError("weights must be nonnegative")
        object.__setattr__(self, "weights", w)
        if self.basepoint is not None and not 0 <= self.basepoint < self.space.n:
            raise SpaceError(f"basepoint {self.basepoint} out of range")

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
        if radii != sorted(radii):
            raise SpaceError("breakpoint radii must be sorted")
        if any(v < 1 for v in values):
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
        if self.radius < 0:
            raise SpaceError("ball radius must be nonnegative")
        if self.orientation not in ("forward", "backward"):
            raise SpaceError(f"unknown orientation {self.orientation!r}")


@dataclass
class ValidationReport:
    valid: bool
    tol: float
    triangle_violations: list = field(default_factory=list)
    zero_offdiagonal: list = field(default_factory=list)
    negative_entries: list = field(default_factory=list)
    nonzero_diagonal: list = field(default_factory=list)


@dataclass
class FunctionalReport:
    """One checked inequality: lhs against rhs, its slack and tolerance."""

    name: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    tolerance: float
    details: dict = field(default_factory=dict)


@dataclass
class DoublingReport:
    constant: float
    witness_point: int
    witness_radius: float
    finite: bool = True


def validate(space: QuasiMetricSpace, tol: float = USER_TOL) -> ValidationReport:
    """Check quasi-metric axioms on the full matrix.

    Lists every triangle violation d(i,k) > d(i,j) + d(j,k) + tol, every
    zero off-diagonal entry, negative entry, and nonzero diagonal entry.
    """
    d = space.dist
    if not np.all(np.isfinite(d)):
        raise SpaceError("distance matrix has non-finite entries")
    n = space.n
    report = ValidationReport(valid=True, tol=tol)

    diag = np.abs(np.diag(d))
    for i in np.nonzero(diag > tol)[0]:
        report.nonzero_diagonal.append(int(i))
    off = d + np.diag(np.full(n, np.inf))
    for i, j in zip(*np.nonzero(off <= 0)):
        if d[i, j] < 0:
            report.negative_entries.append((int(i), int(j)))
        else:
            report.zero_offdiagonal.append((int(i), int(j)))

    # d[i,k] <= min_j (d[i,j] + d[j,k]); vectorized over k per source row
    for i in range(n):
        through = d[i][:, None] + d  # through[j,k] = d(i,j)+d(j,k)
        slack = d[i][None, :] - through
        bad = np.nonzero(slack > tol)
        for j, k in zip(*bad):
            report.triangle_violations.append((int(i), int(j), int(k)))

    report.valid = not (
        report.triangle_violations
        or report.zero_offdiagonal
        or report.negative_entries
        or report.nonzero_diagonal
    )
    return report


def reversibility(space: QuasiMetricSpace, subset=None) -> float:
    """Max of d(x,y)/d(y,x) over ordered pairs of distinct points in subset.

    Returns 1.0 for a singleton subset.  Pairs with d(x,y) = d(y,x),
    zero included, count as ratio 1.
    """
    if subset is None:
        idx = np.arange(space.n)
    else:
        idx = np.asarray(sorted(set(int(i) for i in subset)), dtype=int)
    if idx.size == 0:
        raise SpaceError("reversibility of an empty subset is undefined")
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
    return QuasiMetricSpace(
        0.5 * (space.dist + space.dist.T), space.labels, space.coords
    )


def ball(space: QuasiMetricSpace, spec: BallSpec) -> np.ndarray:
    """Point indices inside the specified forward/backward ball."""
    if not 0 <= spec.center < space.n:
        raise SpaceError(f"center {spec.center} out of range")
    if spec.orientation == "forward":
        dists = space.dist[spec.center]
    else:
        dists = space.dist[:, spec.center]
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
    p = list(path)
    if not p:
        raise SpaceError("empty path has no length")
    return float(sum(space.dist[a, b] for a, b in zip(p, p[1:])))


def _hop_graph(d: np.ndarray, radius: float):
    """Directed graph (scipy CSR) of the hops d(i, j) < radius, i != j,
    weighted by d."""
    from scipy.sparse import csr_matrix

    hops = (d < radius) & ~np.eye(d.shape[0], dtype=bool)
    return csr_matrix(np.where(hops, d, 0.0))


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
    out = dijkstra(_hop_graph(space.dist, neighbor_radius), directed=True)
    if not np.all(np.isfinite(out)):
        i, j = np.argwhere(~np.isfinite(out))[0]
        raise SpaceError(
            f"hop graph not strongly connected: no chain from {i} to {j} "
            f"at neighbor radius {neighbor_radius}"
        )
    return QuasiMetricSpace(out, space.labels, space.coords)


def midpoint_defect(space: QuasiMetricSpace, x: int, y: int) -> float:
    """Best achievable deviation from an exact midpoint between x and y.

    min over candidate z of max(|d(x,z) - d(x,y)/2|, |d(z,y) - d(x,y)/2|).
    A small defect certifies approximate geodesy at this sampling.
    """
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
    if eps <= 0:
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
    if eps <= 0:
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
        if r <= 0:
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
