import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_quasi_metric
from qmspace import (
    BallSpec,
    MeasuredSpace,
    QuasiMetricSpace,
    SpaceError,
    ThetaBound,
    ball,
    capacity,
    covering_number,
    diameter,
    doubling_constant,
    induced_length_metric,
    midpoint_defect,
    path_length,
    reversibility,
    symmetrize,
    validate,
)


def line_space(xs):
    xs = np.asarray(xs, dtype=float)
    return QuasiMetricSpace(np.abs(xs[:, None] - xs[None, :]), coords=xs[:, None])


class TestValidate:
    def test_valid_metric_passes(self):
        space = line_space([0.0, 1.0, 2.5])
        rep = validate(space)
        assert rep.valid
        assert rep.triangle_violations == []

    def test_triangle_violation_listed(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        rep = validate(QuasiMetricSpace(d), tol=1e-9)
        assert not rep.valid
        assert (0, 1, 2) in rep.triangle_violations

    def test_negative_entry_listed(self):
        d = np.array([[0.0, -1.0], [1.0, 0.0]])
        rep = validate(QuasiMetricSpace(d))
        assert not rep.valid
        assert (0, 1) in rep.negative_entries

    def test_zero_offdiagonal_listed(self):
        d = np.array([[0.0, 0.0], [1.0, 0.0]])
        rep = validate(QuasiMetricSpace(d))
        assert not rep.valid
        assert (0, 1) in rep.zero_offdiagonal

    def test_nonzero_diagonal_listed(self):
        d = np.array([[0.5, 1.0], [1.0, 0.0]])
        rep = validate(QuasiMetricSpace(d))
        assert not rep.valid
        assert 0 in rep.nonzero_diagonal

    def test_nonfinite_raises(self):
        d = np.array([[0.0, np.inf], [1.0, 0.0]])
        with pytest.raises(SpaceError):
            validate(QuasiMetricSpace(d))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_closures_always_valid(self, seed):
        r = np.random.default_rng(seed)
        space = random_quasi_metric(r, 6)
        assert validate(space, tol=1e-9).valid

    def test_matches_brute_force_triple_scan(self, rng):
        # plant a violation, then compare against a plain triple loop
        space = random_quasi_metric(rng, 5)
        d = space.dist.copy()
        d[0, 3] = d.max() * 3
        broken = QuasiMetricSpace(d)
        rep = validate(broken, tol=1e-9)
        expected = set()
        n = 5
        for i, j, k in itertools.product(range(n), repeat=3):
            if d[i, k] > d[i, j] + d[j, k] + 1e-9:
                expected.add((i, j, k))
        assert set(rep.triangle_violations) == expected
        assert expected  # the plant actually broke something


class TestReversibility:
    def test_symmetric_space_is_one(self):
        space = line_space([0.0, 1.0, 3.0])
        assert reversibility(space) == 1.0

    def test_hand_value(self):
        d = np.array([[0.0, 2.0], [1.0, 0.0]])
        assert reversibility(QuasiMetricSpace(d)) == 2.0

    def test_subset(self):
        d = np.array(
            [[0.0, 2.0, 9.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]]
        )
        space = QuasiMetricSpace(d)
        assert reversibility(space, subset=[0, 1]) == 2.0
        assert reversibility(space, subset=[1]) == 1.0
        assert reversibility(space) == 3.0

    def test_always_at_least_one(self, rng):
        for _ in range(10):
            space = random_quasi_metric(rng, 5)
            assert reversibility(space) >= 1.0

    def test_coincident_pair_is_one(self):
        # d(0, 1) = d(1, 0) = 0: ratio 1, not 0/0
        d = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        assert reversibility(QuasiMetricSpace(d)) == 1.0

    def test_empty_subset_raises(self):
        space = line_space([0.0, 1.0])
        with pytest.raises(SpaceError):
            reversibility(space, subset=[])


def test_symmetrize_average():
    d = np.array([[0.0, 3.0], [1.0, 0.0]])
    sym = symmetrize(QuasiMetricSpace(d))
    assert np.allclose(sym.dist, [[0.0, 2.0], [2.0, 0.0]])
    assert reversibility(sym) == 1.0


class TestBalls:
    d = np.array(
        [[0.0, 1.0, 2.0], [3.0, 0.0, 1.0], [2.0, 1.0, 0.0]]
    )
    space = QuasiMetricSpace(d)

    def test_forward_open(self):
        got = ball(self.space, BallSpec(0, 2.0))
        assert list(got) == [0, 1]

    def test_forward_closed(self):
        got = ball(self.space, BallSpec(0, 2.0, closed=True))
        assert list(got) == [0, 1, 2]

    def test_backward(self):
        got = ball(self.space, BallSpec(0, 2.5, orientation="backward"))
        assert list(got) == [0, 2]

    def test_center_out_of_range(self):
        with pytest.raises(SpaceError):
            ball(self.space, BallSpec(7, 1.0))


def test_diameter():
    assert diameter(line_space([0.0, 1.0, 4.0])) == 4.0
    assert diameter(QuasiMetricSpace(np.zeros((1, 1)))) == 0.0


def test_path_length_sums_hops():
    space = line_space([0.0, 1.0, 3.0])
    assert path_length(space, [0, 1, 2]) == 3.0
    assert path_length(space, [2, 0]) == 3.0
    assert path_length(space, [1]) == 0.0
    with pytest.raises(SpaceError):
        path_length(space, [])


class TestInducedLengthMetric:
    def test_line_is_already_length(self):
        space = line_space([0.0, 1.0, 2.0, 3.0])
        out = induced_length_metric(space, neighbor_radius=1.5)
        assert np.allclose(out.dist, space.dist)

    def test_dominates_and_idempotent(self, rng):
        space = random_quasi_metric(rng, 6)
        r = float(np.median(space.dist)) * 1.2
        out = induced_length_metric(space, r)
        assert np.all(out.dist >= space.dist - 1e-12)
        again = induced_length_metric(out, r)
        assert np.allclose(again.dist, out.dist)

    def test_disconnected_raises(self):
        space = line_space([0.0, 1.0, 10.0])
        with pytest.raises(SpaceError, match="not strongly connected"):
            induced_length_metric(space, neighbor_radius=2.0)


def test_midpoint_defect_on_grid():
    space = line_space([0.0, 0.5, 1.0])
    assert midpoint_defect(space, 0, 2) == pytest.approx(0.0)
    coarse = line_space([0.0, 1.0])
    # best candidate is an endpoint, off by half the distance
    assert midpoint_defect(coarse, 0, 1) == pytest.approx(0.5)


class TestCoveringCapacity:
    def brute_cover(self, space, eps):
        n = space.n
        balls = [set(np.nonzero(space.dist[i] < eps)[0]) for i in range(n)]
        for k in range(1, n + 1):
            for combo in itertools.combinations(range(n), k):
                if set().union(*(balls[c] for c in combo)) == set(range(n)):
                    return k
        return n

    def brute_pack(self, space, eps):
        n = space.n
        balls = [set(np.nonzero(space.dist[i] < eps / 2)[0]) for i in range(n)]
        best = 0
        for k in range(n, 0, -1):
            for combo in itertools.combinations(range(n), k):
                sets = [balls[c] for c in combo]
                if sum(len(s) for s in sets) == len(set().union(*sets)):
                    return k
        return best

    def test_exact_matches_brute_force(self, rng):
        for _ in range(5):
            space = random_quasi_metric(rng, 7)
            eps = float(np.quantile(space.dist[space.dist > 0], 0.4))
            assert covering_number(space, eps) == self.brute_cover(space, eps)
            assert capacity(space, eps) == self.brute_pack(space, eps)

    def test_packing_covering_sandwich(self, rng):
        # Ca(2 eps) <= Cov(eps), for theta covering the reversibility
        for _ in range(5):
            space = random_quasi_metric(rng, 7)
            eps = float(np.quantile(space.dist[space.dist > 0], 0.5))
            assert capacity(space, 2 * eps) <= covering_number(space, eps)

    def test_greedy_large_space_bounds(self, rng):
        space = random_quasi_metric(rng, 20)
        eps = float(np.quantile(space.dist[space.dist > 0], 0.4))
        cov = covering_number(space, eps)
        cap = capacity(space, 2 * eps)
        assert 1 <= cov <= 20
        assert 1 <= cap <= 20

    def test_nonpositive_eps_raises(self):
        space = line_space([0.0, 1.0])
        with pytest.raises(SpaceError):
            covering_number(space, 0.0)
        with pytest.raises(SpaceError):
            capacity(space, -1.0)


class TestDoubling:
    def test_grid_counting_oracle(self):
        xs = np.arange(0.0, 4.0 + 1e-12, 1.0)
        space = line_space(xs)
        ms = MeasuredSpace(space, np.full(len(xs), 1.0))
        rep = doubling_constant(ms, [1.0])
        # center 0: |B(1)| = 2 points, |B(2)| = 3 points
        best = 0.0
        for x in range(len(xs)):
            small = np.sum(space.dist[x] <= 1.0)
            big = np.sum(space.dist[x] <= 2.0)
            best = max(best, big / small)
        assert rep.constant == pytest.approx(best)
        assert rep.finite

    def test_zero_mass_ball_is_infinite(self):
        space = line_space([0.0, 1.0])
        ms = MeasuredSpace(space, np.array([0.0, 1.0]))
        rep = doubling_constant(ms, [0.5])
        assert not rep.finite
        assert rep.constant == np.inf
        assert rep.witness_point == 0

    def test_no_radii_raises(self):
        ms = MeasuredSpace(line_space([0.0, 1.0]), np.ones(2))
        with pytest.raises(SpaceError, match="at least one radius"):
            doubling_constant(ms, [])


class TestThetaBound:
    def test_step_lookup(self):
        theta = ThetaBound(((1.0, 2.0), (2.0, 5.0)))
        assert theta(0.5) == 2.0
        assert theta(1.0) == 2.0
        assert theta(1.5) == 5.0
        assert theta(10.0) == 5.0  # past the last breakpoint

    def test_from_function(self):
        theta = ThetaBound.from_function(lambda r: 2 * np.exp(r) - 1, [0.5, 1, 2])
        assert theta(0.7) == pytest.approx(2 * np.exp(1) - 1)

    def test_rejects_decreasing_values(self):
        with pytest.raises(SpaceError):
            ThetaBound(((1.0, 5.0), (2.0, 2.0)))

    def test_rejects_values_below_one(self):
        with pytest.raises(SpaceError):
            ThetaBound(((1.0, 0.5),))


class TestConstruction:
    def test_nonsquare_rejected(self):
        with pytest.raises(SpaceError):
            QuasiMetricSpace(np.zeros((2, 3)))

    def test_weight_length_checked(self):
        space = line_space([0.0, 1.0])
        with pytest.raises(SpaceError):
            MeasuredSpace(space, np.array([1.0]))

    def test_negative_weights_rejected(self):
        space = line_space([0.0, 1.0])
        with pytest.raises(SpaceError):
            MeasuredSpace(space, np.array([1.0, -0.5]))

    def test_normalized(self):
        space = line_space([0.0, 1.0])
        ms = MeasuredSpace(space, np.array([1.0, 3.0])).normalized()
        assert np.allclose(ms.weights, [0.25, 0.75])

    def test_subspace(self):
        space = random_quasi_metric(np.random.default_rng(0), 5)
        sub = space.subspace([0, 2, 4])
        assert sub.n == 3
        assert sub.dist[0, 1] == space.dist[0, 2]
