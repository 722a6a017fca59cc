import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qmspace import (
    FunkBall,
    MeasuredSpace,
    RandersBall,
    RandersTorus,
    SampleSpec,
    SpaceError,
    funk_distance,
    funk_norm,
    gaussian_line,
    randers_ball_distance,
    randers_torus_distance,
    rescale,
    reversibility,
    sample,
    symmetrize,
    validate,
)

from oracles import torus_translate_scan

unit_ball_point = st.tuples(
    st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)
).map(np.array)


def segment_length(norm_fn, p, q):
    """Quadrature oracle: integrate the pointwise norm along the straight
    chord from p to q (valid because these models are projectively flat)."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    v = q - p
    val, err = quad(lambda t: norm_fn(p + t * v, v), 0.0, 1.0,
                    epsabs=1e-12, epsrel=1e-12, limit=200)
    assert err < 1e-9
    return val


class TestFunk:
    def test_distance_to_and_from_center(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            x = rng.uniform(-0.6, 0.6, size=2)
            r = np.linalg.norm(x)
            assert funk_distance(np.zeros(2), x) == pytest.approx(
                -np.log(1 - r), abs=1e-12)
            assert funk_distance(x, np.zeros(2)) == pytest.approx(
                np.log(1 + r), abs=1e-12)

    def test_distance_matches_norm_quadrature(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = rng.uniform(-0.5, 0.5, size=2)
            q = rng.uniform(-0.5, 0.5, size=2)
            assert funk_distance(p, q) == pytest.approx(
                segment_length(funk_norm, p, q), abs=1e-9)

    def test_backward_distance_to_center_below_log2(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = rng.uniform(-0.7, 0.7, size=3)
            if np.linalg.norm(x) >= 0.99:
                continue
            assert funk_distance(x, np.zeros(3)) <= np.log(2) + 1e-12

    @given(unit_ball_point, unit_ball_point, unit_ball_point)
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, x, y, z):
        dxz = funk_distance(x, z)
        dxy = funk_distance(x, y)
        dyz = funk_distance(y, z)
        assert dxz <= dxy + dyz + 1e-9

    @given(unit_ball_point, unit_ball_point)
    @settings(max_examples=100, deadline=None)
    def test_nonnegative_and_separating(self, x, y):
        d = funk_distance(x, y)
        assert d >= 0
        if np.array_equal(x, y):
            assert d == 0.0
        elif np.linalg.norm(x - y) > 1e-9:
            assert d > 0

    def test_matrix_matches_pairwise(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-0.5, 0.5, size=(8, 2))
        mat = FunkBall(dim=2).distance_matrix(pts)
        for i, j in itertools.product(range(8), repeat=2):
            assert mat[i, j] == pytest.approx(
                funk_distance(pts[i], pts[j]), abs=1e-10)

    def test_outside_ball_rejected(self):
        with pytest.raises(SpaceError):
            funk_distance([1.2, 0.0], [0.0, 0.0])

    def test_clip_radius(self):
        model = FunkBall(dim=2)
        assert model.euclidean_clip_radius(1.0) == pytest.approx(1 - np.exp(-1))


class TestRandersTorus:
    def test_symmetrization_vs_flat_torus(self):
        # Symmetrizing recovers the flat metric exactly for pairs whose
        # flat distance is below pi * (1 - b): there no winding of the
        # torus can profit from the drift.  For some farther pairs along
        # the drift the cheapest path in one direction winds round the
        # torus with the drift, so the symmetrization falls below the
        # flat distance; other far pairs, such as those across the
        # drift, keep it.  The unqualified identity therefore fails.
        b = 0.5
        model = RandersTorus(dim=2, b=b)
        ms = sample(model, SampleSpec(strategy="grid", pitch=np.pi / 3))
        sym = symmetrize(ms.space)
        pts = ms.space.coords
        flat = RandersTorus(dim=2, b=0.0)
        saw_strict = False
        for i, j in itertools.combinations(range(ms.n), 2):
            d_flat = randers_torus_distance(flat, pts[i], pts[j])
            assert sym.dist[i, j] <= d_flat + 1e-12
            if d_flat < np.pi * (1 - b) - 1e-9:
                assert sym.dist[i, j] == pytest.approx(d_flat, abs=1e-9)
            elif sym.dist[i, j] < d_flat - 1e-6:
                saw_strict = True
        assert saw_strict  # the winding effect is real on this grid

    def test_reversibility_value(self):
        model = RandersTorus(dim=2, b=0.5)
        assert model.reversibility == pytest.approx(3.0)
        ms = sample(model, SampleSpec(strategy="grid", pitch=np.pi / 2))
        lam = reversibility(ms.space)
        assert lam == pytest.approx(3.0, abs=1e-9)

    @staticmethod
    def _grid(dim, pitch):
        axis = np.arange(0.0, 2 * np.pi - 1e-12, pitch)
        return np.array(list(itertools.product(axis, repeat=dim)))

    @pytest.mark.parametrize("dim, pitch", [(2, 1.0), (2, 0.45), (3, 1.3),
                                            (3, 0.9)])
    @pytest.mark.parametrize("b", [0.0, 1 / 3, 0.5, 0.9])
    def test_bitwise_equal_to_translate_scan(self, dim, pitch, b):
        # at these b every optimal translate lies within two periods
        model = RandersTorus(dim=dim, b=b)
        rng = np.random.default_rng(dim)
        for pts in (self._grid(dim, pitch),
                    rng.uniform(0.0, 2 * np.pi, size=(50, dim))):
            want = torus_translate_scan(pts, b, window=2)
            assert np.array_equal(model.distance_matrix(pts), want)
            for i, j in rng.integers(0, len(pts), size=(40, 2)):
                assert randers_torus_distance(model, pts[i], pts[j]) == want[i, j]

    def test_integer_points(self):
        pts = np.array([[0, 0], [1, 5], [6, 2]])
        assert np.array_equal(RandersTorus(b=0.5).distance_matrix(pts),
                              torus_translate_scan(pts, 0.5, window=2))

    def test_drift_near_one_matches_wide_scan(self):
        # at b = 0.99 some optimal translates lie beyond two periods: a
        # two-period scan overstates distances and breaks the triangle
        # inequality, the closed form does neither
        pts = self._grid(2, 0.5)
        model = RandersTorus(dim=2, b=0.99)
        got = model.distance_matrix(pts)
        # every third point keeps the 81**2-translate scan under a second
        want = torus_translate_scan(pts[::3], 0.99, window=40)
        assert np.array_equal(got[::3, ::3], want)
        assert (torus_translate_scan(pts[::3], 0.99, window=2) > want).any()
        rng = np.random.default_rng(99)
        for i, j in rng.integers(0, len(pts), size=(40, 2)):
            assert randers_torus_distance(model, pts[i], pts[j]) == got[i, j]
        ms = sample(model, SampleSpec(strategy="grid", pitch=0.5))
        assert np.array_equal(ms.space.dist, got)
        assert validate(ms.space).passed

    def test_radial_shells_rejected(self):
        # a torus has no center to put shells around
        with pytest.raises(SpaceError, match="radial-shells"):
            sample(RandersTorus(dim=2, b=0.5),
                   SampleSpec(strategy="radial-shells", count=30))

    def test_zero_drift_is_symmetric(self):
        ms = sample(RandersTorus(dim=2, b=0.0),
                    SampleSpec(strategy="grid", pitch=np.pi / 2))
        assert reversibility(ms.space) == pytest.approx(1.0)

    def test_axioms_on_sample(self):
        ms = sample(RandersTorus(dim=2, b=0.5),
                    SampleSpec(strategy="grid", pitch=np.pi / 2))
        assert validate(ms.space, tol=1e-9).passed

    def test_bad_drift_rejected(self):
        with pytest.raises(SpaceError):
            RandersTorus(b=1.0)


class TestRandersBall:
    model = RandersBall(dim=2, a=(0.3, 0.1))

    def test_distance_matches_norm_quadrature(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            p = rng.uniform(-0.5, 0.5, size=2)
            q = rng.uniform(-0.5, 0.5, size=2)
            expect = segment_length(self.model.norm, p, q)
            assert randers_ball_distance(self.model, p, q) == pytest.approx(
                expect, abs=1e-9)

    def test_zero_drift_reduces_to_funk(self):
        plain = RandersBall(dim=2, a=(0.0, 0.0))
        rng = np.random.default_rng(2)
        for _ in range(20):
            p = rng.uniform(-0.6, 0.6, size=2)
            q = rng.uniform(-0.6, 0.6, size=2)
            assert randers_ball_distance(plain, p, q) == pytest.approx(
                funk_distance(p, q), abs=1e-12)

    def test_drift_sequence_converges_to_funk(self):
        # drift e1 / (i^2 + 1) is within 2 / i^2 of the undrifted distance
        rng = np.random.default_rng(4)
        pts = rng.uniform(-0.6, 0.6, size=(20, 2))
        for i in (2, 5, 10):
            model = RandersBall(dim=2, a=(1.0 / (i * i + 1), 0.0))
            for k in range(0, 20, 2):
                p, q = pts[k], pts[k + 1]
                gap = abs(randers_ball_distance(model, p, q)
                          - funk_distance(p, q))
                assert gap <= 2.0 / i ** 2

    def test_matrix_matches_pairwise(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-0.5, 0.5, size=(6, 2))
        mat = self.model.distance_matrix(pts)
        for i, j in itertools.product(range(6), repeat=2):
            assert mat[i, j] == pytest.approx(
                randers_ball_distance(self.model, pts[i], pts[j]), abs=1e-10)

    def test_axioms_on_sample(self):
        ms = sample(self.model, SampleSpec(strategy="grid", pitch=0.2))
        assert validate(ms.space, tol=1e-9).passed

    def test_strong_drift_rejected(self):
        with pytest.raises(SpaceError):
            RandersBall(dim=2, a=(0.8, 0.8))


class TestSampling:
    def test_grid_respects_clip_radius(self):
        model = FunkBall(dim=2)
        ms = sample(model, SampleSpec(strategy="grid", pitch=0.1,
                                      clip_radius=1.0))
        norms = np.linalg.norm(ms.space.coords, axis=1)
        assert np.all(norms <= 1 - np.exp(-1) + 1e-9)

    def test_grid_contains_center(self):
        ms = sample(FunkBall(dim=2), SampleSpec(strategy="grid", pitch=0.25))
        assert np.linalg.norm(ms.space.coords[ms.basepoint]) == 0.0

    def test_radial_shells_deterministic(self):
        spec = SampleSpec(strategy="radial-shells", count=100, seed=3)
        a = sample(FunkBall(dim=2), spec)
        b = sample(FunkBall(dim=2), spec)
        assert np.array_equal(a.space.coords, b.space.coords)
        assert np.array_equal(a.space.dist, b.space.dist)

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_radial_shells_in_dim_3_draw_one_seeded_stream(self, seed):
        # one generator, made before the first shell, draws every shell's
        # directions in turn (dim 2 spaces its directions evenly instead)
        spec = SampleSpec(strategy="radial-shells", count=40, seed=seed,
                          clip_radius=0.5)
        model = FunkBall(dim=3)
        radius = model.euclidean_clip_radius(spec.clip_radius)
        rng = np.random.default_rng(seed)
        want = [np.zeros((1, 3))]
        for r in np.linspace(radius / 6, radius, 6):  # round(sqrt(40)) shells
            dirs = rng.normal(size=(40 // 6, 3))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            want.append(r * dirs)
        got = sample(model, spec)
        assert np.array_equal(got.space.coords, np.concatenate(want))

    def test_seeded_uniform_counts(self):
        ms = sample(FunkBall(dim=2),
                    SampleSpec(strategy="seeded-uniform", count=50, seed=1))
        assert ms.n == 50

    def test_uniform_vs_lebesgue_weights(self):
        spec = SampleSpec(strategy="grid", pitch=0.25)
        uni = sample(FunkBall(dim=2), spec, weights="uniform")
        leb = sample(FunkBall(dim=2), spec, weights="lebesgue")
        assert np.allclose(uni.weights, 1.0 / uni.n)
        assert np.allclose(leb.weights, 0.25 ** 2)

    def test_normalize(self):
        ms = sample(FunkBall(dim=2), SampleSpec(strategy="grid", pitch=0.25),
                    weights="lebesgue", normalize=True)
        assert ms.weights.sum() == pytest.approx(1.0)

    def test_too_few_points_raises(self):
        with pytest.raises(SpaceError):
            sample(FunkBall(dim=2),
                   SampleSpec(strategy="grid", pitch=5.0, clip_radius=0.1))

    def test_bad_strategy_rejected(self):
        with pytest.raises(SpaceError):
            SampleSpec(strategy="fancy", count=10)


def test_rescale_scales_distances():
    ms = sample(FunkBall(dim=2), SampleSpec(strategy="grid", pitch=0.3))
    out = rescale(ms, 2.5)
    assert np.allclose(out.space.dist, 2.5 * ms.space.dist)
    assert np.array_equal(out.weights, ms.weights)
    with pytest.raises(SpaceError):
        rescale(ms, 0.0)


def test_small_ball_rescaled_approaches_euclidean():
    # k * d_F(x/k, y/k) -> |y - x| as the ball shrinks toward the origin
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.4, 0.4, size=(10, 2))
    worst = []
    for k in (4.0, 16.0, 64.0):
        gaps = []
        for i, j in itertools.combinations(range(10), 2):
            d = k * funk_distance(pts[i] / k, pts[j] / k)
            gaps.append(abs(d - np.linalg.norm(pts[j] - pts[i])))
        worst.append(max(gaps))
    assert worst[0] > worst[1] > worst[2]
    assert worst[-1] < 1e-2


class TestGaussianLine:
    def test_weights_proportional_to_gaussian(self):
        ms = gaussian_line(K=1.0, half_width=2.0, pitch=0.5, normalize=False)
        xs = ms.space.coords[:, 0]
        assert np.allclose(ms.weights, np.exp(-xs ** 2 / 2) * 0.5)

    def test_symmetric_euclidean(self):
        ms = gaussian_line(K=2.0, half_width=1.0, pitch=0.25)
        assert reversibility(ms.space) == pytest.approx(1.0)
        assert validate(ms.space, tol=1e-9).passed

    def test_basepoint_at_origin(self):
        ms = gaussian_line(K=1.0, half_width=2.0, pitch=0.5)
        assert ms.space.coords[ms.basepoint, 0] == 0.0
