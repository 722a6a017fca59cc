import numpy as np
import pytest
from hypothesis import assume
from hypothesis import strategies as st

from qmspace import (
    Coupling,
    FunkBall,
    MeasuredSpace,
    QuasiMetricSpace,
    SampleSpec,
    SpaceError,
    TransportProblem,
    gaussian_line,
    sample,
    wasserstein,
)


def euclidean_grid_1d(pitch, lo=0.0, hi=1.0):
    """1-D Euclidean grid with Lebesgue cell weights."""
    xs = np.arange(lo, hi + 1e-12, pitch)
    dist = np.abs(xs[:, None] - xs[None, :])
    space = QuasiMetricSpace(dist, coords=xs[:, None])
    w = np.full(len(xs), pitch)
    return MeasuredSpace(space, w / w.sum(), basepoint=0)


def euclidean_grid_2d(pitch, lo=0.0, hi=1.0):
    """2-D Euclidean grid with Lebesgue cell weights."""
    axis = np.arange(lo, hi + 1e-12, pitch)
    pts = np.array([(x, y) for x in axis for y in axis])
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.linalg.norm(diff, axis=2)
    space = QuasiMetricSpace(dist, coords=pts)
    w = np.full(len(pts), pitch ** 2)
    return MeasuredSpace(space, w / w.sum(), basepoint=0)


def smooth_density_pair(ms, seed):
    """Two seeded smooth probability vectors absolutely continuous wrt
    the weights of ms."""
    rng = np.random.default_rng(seed)
    c = np.asarray(ms.space.coords, dtype=float)
    if c.ndim == 1:
        c = c[:, None]
    span = c.max(axis=0) - c.min(axis=0)
    span[span == 0] = 1.0
    x = ((c - c.min(axis=0)) / span).mean(axis=1)
    out = []
    for _ in range(2):
        a = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.0, 1.5)
        phase = rng.uniform(0, 2 * np.pi)
        rho = 1.0 + 0.5 * np.sin(2 * np.pi * a * x + phase) * np.exp(-b * x)
        w = rho * ms.weights
        out.append(w / w.sum())
    return out


def random_quasi_metric(rng, n, asym=0.5):
    """A random valid quasi-metric: shortest-path closure of a random
    positive asymmetric weight matrix."""
    w = rng.uniform(0.2, 1.0, size=(n, n))
    w *= 1.0 + asym * rng.uniform(0, 1, size=(n, n))
    np.fill_diagonal(w, 0.0)
    d = w.copy()
    for k in range(n):  # Floyd-Warshall closure
        d = np.minimum(d, d[:, k][:, None] + d[k][None, :])
    return QuasiMetricSpace(d)


@st.composite
def couplings(draw):
    """(measured space, coupling) on flat grids, Gaussian lines and Funk
    samples: the order-2 optimal coupling of two seeded densities, some
    of whose points carry no mass, or their product coupling (as
    Brunn-Minkowski builds it)."""
    kind = draw(st.sampled_from(["grid", "line", "funk"]))
    if kind == "grid":
        ms = euclidean_grid_2d(draw(st.sampled_from([0.125, 0.2, 0.25, 0.5])))
    elif kind == "line":
        ms = gaussian_line(1.0, draw(st.floats(1.0, 4.0)),
                           draw(st.floats(0.08, 0.5)))
    else:
        ms = sample(FunkBall(dim=2), SampleSpec(
            strategy="grid", pitch=draw(st.sampled_from([0.15, 0.2, 0.3])),
            clip_radius=draw(st.sampled_from([0.5, 1.0, 2.0]))))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))

    def density():
        w = rng.random(ms.n) * (rng.random(ms.n) < draw(st.floats(0.05, 1.0)))
        w[rng.integers(ms.n)] += 1.0
        return w / w.sum()

    mu, nu = density(), density()
    if draw(st.booleans()):
        return ms, Coupling(np.outer(mu, nu), mu, nu)
    try:
        _, coupling = wasserstein(TransportProblem(ms.space, mu, nu, 2.0))
    except SpaceError:  # a plan that misses the marginals: no coupling
        assume(False)
    return ms, coupling


#: a 4-point matrix that breaks every axiom: a nonzero diagonal entry, a
#: zero and a negative off-diagonal entry, and six triangle violations
BAD4 = [[0.5, 0.0, 1.0, 5.0], [1.0, 0.0, -1.0, 1.0],
        [1.0, 1.0, 0.0, 1.0], [1.0, 1.0, 1.0, 0.0]]


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
