"""Closed-form model quasi-metrics and samplers producing finite spaces.

Three model families are provided: the Funk metric on the open unit
ball (unbounded reversibility), Randers perturbations of the flat torus
(reversibility (1+b)/(1-b)), and Randers perturbations of the Funk/Klein
ball.  Samplers discretize a model into a MeasuredSpace whose pairwise
distances come from the model's closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .core import MeasuredSpace, QuasiMetricSpace, SpaceError

__all__ = [
    "FunkBall",
    "RandersTorus",
    "RandersBall",
    "SampleSpec",
    "funk_norm",
    "funk_distance",
    "randers_torus_distance",
    "randers_ball_distance",
    "sample",
    "rescale",
    "gaussian_line",
]


def funk_norm(x, y) -> float:
    """Funk Finsler norm of tangent vector y at point x in the unit ball."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx2 = x @ x
    if nx2 >= 1.0:
        raise SpaceError("base point must lie strictly inside the unit ball")
    ny2 = y @ y
    xy = x @ y
    rad = ny2 - (nx2 * ny2 - xy * xy)
    return (np.sqrt(max(rad, 0.0)) + xy) / (1.0 - nx2)


def funk_distance(x1, x2) -> float:
    """Closed-form Funk distance between two interior points.

    Asymmetric: the distance from x toward the boundary blows up while
    the distance back to the center stays below log 2.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x1 @ x1 >= 1.0 or x2 @ x2 >= 1.0:
        raise SpaceError("points must lie strictly inside the unit ball")
    delta = x2 - x1
    dd = delta @ delta
    if dd == 0.0:
        return 0.0
    cross = (x1 @ x1) * (x2 @ x2) - (x1 @ x2) ** 2
    root = np.sqrt(max(dd - cross, 0.0))
    return float(np.log((root - x1 @ delta) / (root - x2 @ delta)))


@dataclass(frozen=True)
class FunkBall:
    """Funk metric model on the open Euclidean unit ball."""

    dim: int = 2

    def __post_init__(self):
        if self.dim < 2:
            raise SpaceError("Funk ball dimension must be >= 2")

    def distance_matrix(self, pts: np.ndarray) -> np.ndarray:
        return _funk_distance_matrix(pts)

    def euclidean_clip_radius(self, quasi_radius: float) -> float:
        # closed forward ball of radius r around 0 is {|x| <= 1 - e^{-r}}
        return 1.0 - np.exp(-quasi_radius)


def _funk_distance_matrix(pts: np.ndarray) -> np.ndarray:
    """Vectorized pairwise Funk distances via the Gram matrix."""
    gram = pts @ pts.T
    n2 = np.diag(gram)
    dd = n2[:, None] + n2[None, :] - 2.0 * gram
    cross = n2[:, None] * n2[None, :] - gram ** 2
    root = np.sqrt(np.maximum(dd - cross, 0.0))
    num = root - gram + n2[:, None]
    den = root + gram - n2[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.log(num / den)
    np.fill_diagonal(out, 0.0)
    return out


@dataclass(frozen=True)
class RandersTorus:
    """Flat torus with a constant one-form drift b along the first axis.

    Periods are 2*pi per coordinate; distances minimize over lattice
    translates within ``window`` periods per axis (enough for moderate b;
    b near 1 needs a wider window).
    """

    dim: int = 2
    b: float = 0.5
    window: int = 2

    def __post_init__(self):
        if not 0 <= self.b < 1:
            raise SpaceError("drift strength b must lie in [0, 1)")
        if self.dim < 2:
            raise SpaceError("torus dimension must be >= 2")

    def distance_matrix(self, pts: np.ndarray) -> np.ndarray:
        delta = pts[None, :, :] - pts[:, None, :]
        period = 2.0 * np.pi
        shifts = np.arange(-self.window, self.window + 1) * period
        best = np.full(delta.shape[:2], np.inf)
        for combo in itertools.product(shifts, repeat=self.dim):
            w = delta + np.asarray(combo)
            val = np.linalg.norm(w, axis=2) + self.b * w[:, :, 0]
            np.minimum(best, val, out=best)
        np.fill_diagonal(best, 0.0)
        return best

    @property
    def reversibility(self) -> float:
        return (1.0 + self.b) / (1.0 - self.b)


def randers_torus_distance(model: RandersTorus, p, q) -> float:
    """Randers torus distance: min over lattice translates of |w| + b*w1."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    delta = q - p
    period = 2.0 * np.pi
    shifts = np.arange(-model.window, model.window + 1) * period
    best = np.inf
    for combo in itertools.product(shifts, repeat=model.dim):
        w = delta + np.asarray(combo)
        val = np.linalg.norm(w) + model.b * w[0]
        if val < best:
            best = val
    return float(best)


@dataclass(frozen=True)
class RandersBall:
    """Funk/Klein ball perturbed by a constant drift one-form a.

    Projectively flat: geodesics are straight chords, so the distance is
    the Funk distance plus the exact chord integral of the drift term.
    """

    dim: int = 2
    a: tuple = (0.0, 0.0)

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.shape != (self.dim,):
            raise SpaceError(f"drift vector must have length {self.dim}")
        if np.linalg.norm(a) >= 1:
            raise SpaceError("drift vector norm must be < 1")
        object.__setattr__(self, "a", tuple(float(v) for v in a))

    @property
    def drift(self) -> np.ndarray:
        return np.asarray(self.a, dtype=float)

    def distance_matrix(self, pts: np.ndarray) -> np.ndarray:
        pot = np.log1p(pts @ self.drift)
        return _funk_distance_matrix(pts) + pot[None, :] - pot[:, None]

    def euclidean_clip_radius(self, quasi_radius: float) -> float:
        # inner Euclidean ball guaranteed to sit inside B+_0(quasi_radius)
        er = np.exp(quasi_radius)
        return (er - 1.0) / (er + np.linalg.norm(self.drift))

    def norm(self, x, y) -> float:
        """Pointwise Randers norm: Funk norm plus drift pairing."""
        a = self.drift
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return funk_norm(x, y) + (a @ y) / (1.0 + a @ x)


def randers_ball_distance(model: RandersBall, p, q) -> float:
    """Distance in the drifted Funk ball along the straight chord.

    The drift term integrates in closed form to a potential difference
    log(1 + <a,q>) - log(1 + <a,p>), so the whole distance is exact.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p @ p >= 1.0 or q @ q >= 1.0:
        raise SpaceError("points must lie strictly inside the unit ball")
    a = model.drift
    base = funk_distance(p, q)
    drift = np.log1p(a @ q) - np.log1p(a @ p)
    return float(base + drift)


@dataclass(frozen=True)
class SampleSpec:
    """How to discretize a model: strategy, density, seed, clip radius."""

    strategy: str = "grid"
    pitch: float | None = None
    count: int | None = None
    seed: int = 0
    clip_radius: float = 1.0

    def __post_init__(self):
        if self.strategy not in ("grid", "radial-shells", "seeded-uniform"):
            raise SpaceError(f"unknown sampling strategy {self.strategy!r}")
        if self.strategy == "grid":
            if self.pitch is None or self.pitch <= 0:
                raise SpaceError("grid sampling needs a positive pitch")
        else:
            if self.count is None or self.count < 2:
                raise SpaceError("sampling needs count >= 2")
        if self.clip_radius <= 0:
            raise SpaceError("clip_radius must be positive")


def _ball_points(model, spec: SampleSpec) -> np.ndarray:
    """Sample points of a ball model, always including the center."""
    radius = model.euclidean_clip_radius(spec.clip_radius)
    dim = model.dim
    if spec.strategy == "grid":
        axis = np.arange(0.0, radius + 1e-12, spec.pitch)
        axis = np.concatenate([-axis[:0:-1], axis])
        pts = np.array(list(itertools.product(axis, repeat=dim)))
        pts = pts[np.linalg.norm(pts, axis=1) <= radius + 1e-12]
        return pts
    if spec.strategy == "radial-shells":
        rng = np.random.default_rng(spec.seed)
        n_shells = max(2, int(round(np.sqrt(spec.count))))
        per_shell = max(1, spec.count // n_shells)
        pts = [np.zeros((1, dim))]
        radii = np.linspace(radius / n_shells, radius, n_shells)
        for r in radii:
            if dim == 2:
                angles = np.linspace(0, 2 * np.pi, per_shell, endpoint=False)
                dirs = np.stack([np.cos(angles), np.sin(angles)], axis=1)
            else:
                dirs = rng.normal(size=(per_shell, dim))
                dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            pts.append(r * dirs)
        return np.concatenate(pts)
    # seeded-uniform: rejection sampling inside the Euclidean clip ball
    rng = np.random.default_rng(spec.seed)
    pts = [np.zeros((1, dim))]
    need = spec.count - 1
    while need > 0:
        cand = rng.uniform(-radius, radius, size=(2 * need + 8, dim))
        cand = cand[np.linalg.norm(cand, axis=1) <= radius]
        take = cand[:need]
        pts.append(take)
        need -= len(take)
    return np.concatenate(pts)


def _torus_points(model: RandersTorus, spec: SampleSpec) -> np.ndarray:
    if spec.strategy == "grid":
        axis = np.arange(0.0, 2 * np.pi - 1e-12, spec.pitch)
        return np.array(list(itertools.product(axis, repeat=model.dim)))
    rng = np.random.default_rng(spec.seed)
    return rng.uniform(0.0, 2 * np.pi, size=(spec.count, model.dim))


def sample(model, spec: SampleSpec, weights: str = "uniform",
           normalize: bool = False) -> MeasuredSpace:
    """Discretize a model into a MeasuredSpace.

    Deterministic under a fixed seed.  Weights are Euclidean cell
    volumes (``"lebesgue"``, pitch^dim on grids, ball-volume share on
    random samples) or ``1/n`` (``"uniform"``).
    """
    if weights not in ("lebesgue", "uniform"):
        raise SpaceError(f"unknown weight model {weights!r}")
    if isinstance(model, RandersTorus):
        pts = _torus_points(model, spec)
        cell = spec.pitch ** model.dim if spec.strategy == "grid" else \
            (2 * np.pi) ** model.dim / max(len(pts), 1)
        basepoint = 0
    else:
        pts = _ball_points(model, spec)
        radius = model.euclidean_clip_radius(spec.clip_radius)
        if spec.strategy == "grid":
            cell = spec.pitch ** model.dim
        else:
            vol = np.pi ** (model.dim / 2) / math.gamma(model.dim / 2 + 1)
            cell = vol * radius ** model.dim / max(len(pts), 1)
        basepoint = int(np.argmin(np.linalg.norm(pts, axis=1)))
    if len(pts) < 2:
        raise SpaceError("fewer than 2 points after clipping")

    n = len(pts)
    dist = model.distance_matrix(np.asarray(pts, dtype=float))
    space = QuasiMetricSpace(dist, coords=pts)
    if weights == "uniform":
        w = np.full(n, 1.0 / n)
    else:
        w = np.full(n, cell)
    ms = MeasuredSpace(space, w, basepoint=basepoint)
    return ms.normalized() if normalize else ms


def rescale(mspace: MeasuredSpace, k: float) -> MeasuredSpace:
    """Multiply all distances by k > 0; weights unchanged."""
    if k <= 0:
        raise SpaceError("rescale factor must be positive")
    space = mspace.space
    scaled = QuasiMetricSpace(k * space.dist, space.labels, space.coords)
    return MeasuredSpace(scaled, mspace.weights, mspace.basepoint)


def gaussian_line(K: float, half_width: float, pitch: float,
                  normalize: bool = True) -> MeasuredSpace:
    """1-D Euclidean segment with Gaussian weights exp(-K x^2 / 2).

    The canonical positive-curvature, infinite-dimension test bed: a
    reversible space whose continuum counterpart satisfies the
    displacement-convexity condition with lower bound K.
    """
    if pitch <= 0:
        raise SpaceError("pitch must be positive")
    xs = np.arange(0.0, half_width + 1e-12, pitch)
    xs = np.concatenate([-xs[:0:-1], xs])
    dist = np.abs(xs[:, None] - xs[None, :])
    w = np.exp(-K * xs ** 2 / 2.0) * pitch
    space = QuasiMetricSpace(dist, coords=xs[:, None])
    ms = MeasuredSpace(space, w, basepoint=int(np.argmin(np.abs(xs))))
    return ms.normalized() if normalize else ms
