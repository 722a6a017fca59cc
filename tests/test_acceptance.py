"""End-to-end acceptance suite.

Each test exercises one headline guarantee of the package at fixed,
frozen parameters and tolerances.  These are deliberately stricter and
larger-scale than the unit tests; a failure here means a user-visible
contract is broken.

test_03b_torus_symmetrization_identity checks how the symmetrized drift
metric on the torus relates to the flat torus metric.  The two agree for
pairs whose flat separation is below pi * (1 - b), and across the drift
at every separation.  Along the drift, past pi * (1 - b), the cheapest
path in one direction winds round the torus with the drift while the
other goes direct, and the symmetrized value falls below the flat
distance: for b = 1/2 and separation (2, 0) it is exactly pi/2 while
the flat distance is 2.  Other far pairs keep the flat value, so there
is no global identity, only (1 - b) * flat <= sym <= flat.
"""

import json
import time

import numpy as np
import pytest

import qmspace.ghdist as ghdist
from conftest import (
    euclidean_grid_1d,
    euclidean_grid_2d,
    random_quasi_metric,
    smooth_density_pair,
)
from oracles import polytope_vertex_minimum
from qmspace import (
    DistortionParams,
    FunkBall,
    MeasuredSpace,
    RandersTorus,
    SampleSpec,
    TransportProblem,
    asymmetry_bound_check,
    beta,
    bishop_gromov_profile,
    cd_check,
    dcn_membership,
    dynamical_plan,
    entropy_nonlinearity,
    funk_distance,
    functional_inequality_suite,
    gaussian_line,
    geodesy_check,
    gh_bracket,
    interpolate,
    iso_defect,
    kr_dual,
    reversibility,
    sample,
    un_nonlinearity,
    wasserstein,
)
from qmspace.cli import main


def test_01_funk_ball_axioms_and_center_formulas():
    """10,000 seeded triples inside the ball of radius 0.99: quasi-metric
    axioms at 1e-9, the closed forms at the center, and the uniform
    log(2) bound on distances back to the center.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    origin = np.zeros(2)
    dirs = rng.normal(size=(10_000, 3, 2))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    radii = 0.99 * rng.random((10_000, 3, 1)) ** 0.5
    triples = dirs * radii
    for x, y, z in triples:
        dxy = funk_distance(x, y)
        dyz = funk_distance(y, z)
        dxz = funk_distance(x, z)
        assert min(dxy, dyz, dxz) >= 0.0
        assert funk_distance(x, x) == 0.0
        assert dxz <= dxy + dyz + 1e-9
        assert funk_distance(x, z) <= funk_distance(x, y) + dyz + 1e-9
        r = np.linalg.norm(x)
        assert funk_distance(origin, x) == pytest.approx(-np.log1p(-r),
                                                         abs=1e-9)
        assert funk_distance(x, origin) == pytest.approx(np.log1p(r),
                                                         abs=1e-9)
        assert funk_distance(x, origin) <= np.log(2.0) + 1e-12
    assert time.perf_counter() - start < 5.0


def test_02_funk_sample_reversibility_sharpness():
    """The reversibility of a dense clipped sample approaches the exact
    value 2 e^r - 1 of the clipped ball from below.
    """
    ms = sample(FunkBall(dim=2),
                SampleSpec(strategy="radial-shells", count=2000, seed=0,
                           clip_radius=1.0))
    lam = reversibility(ms.space)
    exact = 2.0 * np.e - 1.0
    assert lam <= exact + 1e-9
    assert lam >= 0.95 * exact


def test_03a_torus_reversibility_exact():
    ms = sample(RandersTorus(dim=2, b=0.5), SampleSpec(pitch=0.2))
    assert reversibility(ms.space) == pytest.approx(3.0, abs=1e-9)


def test_03b_torus_symmetrization_identity():
    """Relation between the symmetrized drift metric sym = (D + D^T) / 2
    and the flat torus metric, on all 1024^2 ordered pairs.

    Everywhere (1 - b) * flat <= sym <= flat: every translate costs at
    least (1 - b) times its length, and along the flat minimizing
    translate the drift terms of the two directions cancel.  The
    identity sym = flat holds for flat distance below pi * (1 - b) and
    across the drift at every separation.  Along the drift, at
    separation x, the two directions cost min((1+b)x, (1-b)(2pi-x)) and
    min((1-b)x, (1+b)(2pi-x)); past pi * (1 - b) one of them winds round
    the torus with the drift, so sym falls below flat there (exactly
    pi/2 at separation (2, 0), where flat is 2).
    """
    b = 0.5
    tol = 1e-9
    drift = sample(RandersTorus(dim=2, b=b), SampleSpec(pitch=0.2))
    flat = sample(RandersTorus(dim=2, b=0.0), SampleSpec(pitch=0.2))
    sym = 0.5 * (drift.space.dist + drift.space.dist.T)
    d_flat = flat.space.dist
    pts = drift.space.coords
    delta = pts[None, :, :] - pts[:, None, :]

    assert np.all(sym <= d_flat + tol)
    assert np.all(sym >= (1 - b) * d_flat - tol)

    near = d_flat < np.pi * (1 - b)
    assert np.max(np.abs(sym - d_flat)[near]) <= tol

    across = delta[:, :, 0] == 0.0
    assert np.max(np.abs(sym - d_flat)[across]) <= tol

    along = delta[:, :, 1] == 0.0
    x = np.abs(delta[:, :, 0])[along]
    period = 2.0 * np.pi
    one_way = np.minimum((1 + b) * x, (1 - b) * (period - x))
    other_way = np.minimum((1 - b) * x, (1 + b) * (period - x))
    closed_form = 0.5 * (one_way + other_way)
    assert np.max(np.abs(sym[along] - closed_form)) <= tol

    i = int(np.argmin(np.linalg.norm(pts - [0.0, 0.0], axis=1)))
    j = int(np.argmin(np.linalg.norm(pts - [2.0, 0.0], axis=1)))
    assert d_flat[i, j] == pytest.approx(2.0, abs=tol)
    assert sym[i, j] == pytest.approx(np.pi / 2, abs=tol)


def test_04_transport_against_vertex_oracle_and_duality():
    """200 seeded small problems against independent vertex enumeration,
    plus 200 primal-dual gaps at order one.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for k in range(200):
        space = random_quasi_metric(rng, 4)
        mu = np.zeros(4)
        nu = np.zeros(4)
        si = rng.choice(4, int(rng.integers(2, 5)), replace=False)
        sj = rng.choice(4, int(rng.integers(2, 5)), replace=False)
        mu[si] = rng.random(len(si))
        nu[sj] = rng.random(len(sj))
        mu /= mu.sum()
        nu /= nu.sum()
        p = (1.0, 2.0)[k % 2]
        val, _ = wasserstein(TransportProblem(space, mu, nu, p))
        want = polytope_vertex_minimum(space.dist ** p, mu, nu)
        assert val ** p == pytest.approx(want, abs=1e-9)
    for _ in range(200):
        space = random_quasi_metric(rng, 5)
        mu = rng.random(5)
        nu = rng.random(5)
        mu /= mu.sum()
        nu /= nu.sum()
        prob = TransportProblem(space, mu, nu, 1.0)
        primal, _ = wasserstein(prob)
        dual, _ = kr_dual(prob)
        assert abs(primal - dual) <= 1e-7
    assert time.perf_counter() - start < 60.0


def test_05_asymmetry_bound_on_funk_sample():
    """W_1(nu, mu) against the reversed two-sided comparison on a 200
    point sample, 50 seeded sparse pairs, theta(r) = 2 e^r - 1.
    """
    ms = sample(FunkBall(dim=2),
                SampleSpec(strategy="radial-shells", count=200, seed=1,
                           clip_radius=1.0))
    theta = lambda r: 2.0 * np.exp(r) - 1.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        mu = np.zeros(ms.n)
        nu = np.zeros(ms.n)
        mu[rng.choice(ms.n, 20, replace=False)] = rng.random(20)
        nu[rng.choice(ms.n, 20, replace=False)] = rng.random(20)
        mu /= mu.sum()
        nu /= nu.sum()
        rep = asymmetry_bound_check(ms, mu, nu, p=2.0, q=1.0,
                                    theta_fn=theta)
        assert rep.passed
        assert rep.lhs <= rep.rhs + 1e-9


def test_06_displacement_geodesy_refines():
    """The geodesy residual of displacement interpolation shrinks with
    the grid pitch and stays below 3 h.
    """
    residuals = []
    for h in (0.1, 0.05, 0.025):
        ms = euclidean_grid_1d(h)
        mu, nu = smooth_density_pair(ms, 5)
        _, coupling = wasserstein(TransportProblem(ms.space, mu, nu, 2.0))
        plan = dynamical_plan(ms.space, coupling)
        interp = interpolate(plan, [0.0, 0.25, 0.5, 0.75, 1.0])
        rep = geodesy_check(ms.space, interp, 2.0)
        residuals.append(rep.details["abs_residual"])
        assert residuals[-1] <= 3 * h
    assert residuals[2] <= residuals[1] <= residuals[0]


def test_07_convexity_certificates_on_flat_grids():
    """Distorted displacement convexity with K = 0 on 1-D and 2-D grids
    for the three standard nonlinearities, 10 seeded density pairs per
    grid, slack tolerance 5 h.
    """
    start = time.perf_counter()
    cases = [
        (un_nonlinearity(2), 2.0),
        (un_nonlinearity(5), 5.0),
        (entropy_nonlinearity(), np.inf),
    ]
    grids = [(euclidean_grid_1d(0.1), 0.1), (euclidean_grid_2d(0.25), 0.25)]
    for ms, h in grids:
        for seed in range(10):
            mu0, mu1 = smooth_density_pair(ms, seed)
            for U, N in cases:
                reports = cd_check(ms, mu0, mu1, K=0.0, N=N, U=U,
                                   ts=(0.25, 0.5, 0.75))
                for rep in reports:
                    assert rep.passed
                    assert rep.slack >= -5 * h - 1e-12
    assert time.perf_counter() - start < 300.0


def test_08_gaussian_line_curvature_and_inequalities():
    """A discretized standard Gaussian on the line: entropy convexity at
    K = 1, then the log-Sobolev, Poincare and spectral-gap comparisons
    on seeded observables.
    """
    ms = gaussian_line(K=1.0, half_width=2.5, pitch=0.1)
    mu0, mu1 = smooth_density_pair(ms, 4)
    reports = cd_check(ms, mu0, mu1, K=1.0, N=np.inf,
                       U=entropy_nonlinearity(), ts=(0.25, 0.5, 0.75))
    for rep in reports:
        assert rep.passed
        assert rep.slack >= -0.5 - 1e-12
    xs = ms.space.coords[:, 0]
    for seed in range(5):
        rng = np.random.default_rng(seed)
        a, b, c = rng.uniform(-1.0, 1.0, 3)
        f = a * xs + b * np.sin(xs) + c * xs ** 2 / 4
        mu = smooth_density_pair(ms, seed)[0]
        reports = functional_inequality_suite(ms, K=1.0, N=np.inf,
                                              mu=mu, f=f)
        names = " ".join(rep.name for rep in reports)
        assert "log_sobolev" in names and "poincare" in names
        for rep in reports:
            assert rep.passed, (rep.name, rep.slack)


def test_09_distortion_coefficients_and_admissible_nonlinearities():
    """Closed form of the infinite-dimensional distortion coefficient on
    a 100 point parameter grid at 1e-12, plus membership of the standard
    nonlinearities in the admissible classes.
    """
    rng = np.random.default_rng(7)
    Ks = rng.uniform(-3.0, 3.0, 100)
    ts = rng.random(100)
    ds = rng.uniform(0.0, 2.0, 100)
    for K, t, d in zip(Ks, ts, ds):
        got = beta(DistortionParams(K=K, N=np.inf, t=t), d)
        want = np.exp(K * (1.0 - t ** 2) * d ** 2 / 6.0)
        assert got == pytest.approx(want, abs=1e-12, rel=1e-12)
    r_grid = np.geomspace(1e-6, 100.0, 200)
    for N in (2.0, 5.0, 17.0):
        assert dcn_membership(un_nonlinearity(N), N, r_grid).passed
        assert dcn_membership(entropy_nonlinearity(), N, r_grid).passed
    assert not dcn_membership(un_nonlinearity(2), 5.0, r_grid).passed


def test_10_volume_growth_profile():
    """Counting-measure volume growth on a flat 2-D grid against the
    exact profile at zero lower bound, relative tolerance 3 h.
    """
    ms = euclidean_grid_2d(0.1)
    center = int(np.argmin(
        np.linalg.norm(ms.space.coords - np.array([0.5, 0.5]), axis=1)))
    rep = bishop_gromov_profile(ms, center, K=0.0, N=2.0,
                                radii=np.linspace(0.15, 0.7, 20))
    assert rep.passed
    assert rep.details["max_relative_increase"] <= 3 * 0.1


def test_11_embedding_defect_bracket(monkeypatch):
    """Bracket sanity on random pairs, agreement of the local search
    with exhaustive enumeration, and separation of the two drift metrics
    on the same grid.
    """
    rng = np.random.default_rng(99)
    X = random_quasi_metric(rng, 4)
    br = gh_bracket(X, X, theta=reversibility(X) + 1.0)
    assert br.lower == br.upper == 0.0
    for _ in range(100):
        nx = int(rng.integers(2, 6))
        ny = int(rng.integers(2, 6))
        A = random_quasi_metric(rng, nx)
        B = random_quasi_metric(rng, ny)
        theta = max(reversibility(A), reversibility(B))
        br = gh_bracket(A, B, theta=theta)
        assert 0.0 <= br.lower <= br.upper + 1e-15
    for k in range(5):
        A = random_quasi_metric(rng, 4)
        B = random_quasi_metric(rng, 4)
        with monkeypatch.context() as m:
            m.setattr(ghdist, "EXACT_MAP_LIMIT", 0)
            heur = iso_defect(A, B, seed=k)
        exact = iso_defect(A, B)
        assert heur.heuristic and not exact.heuristic
        assert heur.defect == pytest.approx(exact.defect, abs=1e-9)
    # same grid, different drift strengths: the bracket separates them
    Xe = sample(RandersTorus(dim=2, b=0.5), SampleSpec(pitch=np.pi))
    Xo = sample(RandersTorus(dim=2, b=1 / 3), SampleSpec(pitch=np.pi))
    br = gh_bracket(Xe.space, Xo.space, theta=3.0)
    assert not br.heuristic
    assert br.lower >= 0.05


def test_12_seeded_runs_are_reproducible(tmp_path):
    """Identical seeds give byte-identical artifacts, in the library and
    through the command line.
    """
    a = sample(FunkBall(2), SampleSpec(strategy="seeded-uniform",
                                       count=60, seed=3))
    b = sample(FunkBall(2), SampleSpec(strategy="seeded-uniform",
                                       count=60, seed=3))
    assert a.space.dist.tobytes() == b.space.dist.tobytes()
    fa, fb = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "funk", "--strategy", "seeded-uniform", "--count", "50",
            "--seed", "9"]
    assert main(args + ["-o", str(fa)]) == 0
    assert main(args + ["-o", str(fb)]) == 0
    assert fa.read_bytes() == fb.read_bytes()
    ra, rb = tmp_path / "ra.json", tmp_path / "rb.json"
    assert main(["report", str(fa), "-o", str(ra)]) == 0
    assert main(["report", str(fb), "-o", str(rb)]) == 0
    assert ra.read_bytes() == rb.read_bytes()
    rep = json.loads(ra.read_text())
    assert rep["valid"] is True
