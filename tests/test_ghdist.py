import itertools

import numpy as np
import pytest

import qmspace.ghdist as ghdist
from conftest import random_quasi_metric
from qmspace import (
    MeasuredSpace,
    PointMap,
    QuasiMetricSpace,
    SpaceError,
    distortion,
    gh_bracket,
    ghp_upper,
    hausdorff,
    iso_defect,
    prokhorov,
    reversibility,
)


from oracles import brute_iso_defect, brute_prokhorov


def test_distortion_hand_value():
    X = QuasiMetricSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))
    Y = QuasiMetricSpace(np.array([[0.0, 1.5], [2.0, 0.0]]))
    pm = PointMap(X, Y, np.array([0, 1]))
    assert distortion(pm) == 0.5


def test_pointmap_validation():
    X = QuasiMetricSpace(np.zeros((2, 2)))
    with pytest.raises(SpaceError):
        PointMap(X, X, np.array([0]))
    with pytest.raises(SpaceError):
        PointMap(X, X, np.array([0, 5]))


class TestHausdorff:
    def test_asymmetric_hand_value(self):
        d = np.array(
            [[0.0, 1.0, 4.0], [3.0, 0.0, 1.0], [1.0, 2.0, 0.0]]
        )
        space = QuasiMetricSpace(d)
        # {0} vs {2}: 0 in fattening of {2} needs d(2,0)=1; 2 needs d(0,2)=4
        assert hausdorff(space, [0], [2]) == 4.0
        assert hausdorff(space, [2], [0]) == 4.0

    def test_subset_of_itself_is_zero(self, rng):
        space = random_quasi_metric(rng, 5)
        assert hausdorff(space, range(5), range(5)) == 0.0

    def test_empty_raises(self):
        space = QuasiMetricSpace(np.zeros((2, 2)))
        with pytest.raises(SpaceError):
            hausdorff(space, [], [0])

    @pytest.mark.parametrize("A, B", [([0, 2], [1]), ([-1], [0]), ([0], [1, -1])])
    def test_index_out_of_range_raises(self, A, B):
        space = QuasiMetricSpace(np.zeros((2, 2)))
        with pytest.raises(SpaceError, match="out of range"):
            hausdorff(space, A, B)


class TestIsoDefect:
    def test_identical_spaces_zero(self, rng):
        X = random_quasi_metric(rng, 4)
        res = iso_defect(X, X)
        assert res.defect == 0.0
        assert not res.heuristic

    def test_exact_matches_brute_force(self, rng):
        for _ in range(10):
            X = random_quasi_metric(rng, 3)
            Y = random_quasi_metric(rng, 4)
            res = iso_defect(X, Y)
            assert not res.heuristic
            assert res.defect == pytest.approx(brute_iso_defect(X, Y), abs=1e-12)

    def test_local_search_not_worse_than_double_optimum(self, rng, monkeypatch):
        # force the heuristic path on small instances and compare it with
        # the exhaustive optimum
        monkeypatch.setattr(ghdist, "EXACT_MAP_LIMIT", 0)
        for k in range(5):
            X = random_quasi_metric(rng, 4)
            Y = random_quasi_metric(rng, 4)
            res = iso_defect(X, Y, seed=k)
            assert res.heuristic
            exact = brute_iso_defect(X, Y)
            assert res.defect >= exact - 1e-12
            assert res.defect == pytest.approx(exact, abs=1e-9)

    def test_scaled_copy_defect(self):
        d = np.array([[0.0, 1.0], [2.0, 0.0]])
        X = QuasiMetricSpace(d)
        Y = QuasiMetricSpace(1.5 * d)
        res = iso_defect(X, Y)
        assert res.defect == pytest.approx(brute_iso_defect(X, Y), abs=1e-12)


class TestGhBracket:
    def test_identical_is_zero_bracket(self, rng):
        X = random_quasi_metric(rng, 4)
        br = gh_bracket(X, X, theta=reversibility(X) + 1)
        assert br.lower == 0.0
        assert br.upper == 0.0

    def test_lower_below_upper(self, rng):
        for _ in range(10):
            X = random_quasi_metric(rng, 4)
            Y = random_quasi_metric(rng, 5)
            theta = max(reversibility(X), reversibility(Y))
            br = gh_bracket(X, Y, theta=theta)
            assert br.lower <= br.upper + 1e-15
            assert br.lower >= 0

    def test_theta_below_reversibility_raises(self):
        d = np.array([[0.0, 3.0], [1.0, 0.0]])
        X = QuasiMetricSpace(d)
        with pytest.raises(SpaceError, match="no admissible gluing"):
            gh_bracket(X, X, theta=1.5)

    def test_coincident_pair_still_checks_theta(self):
        d = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        X = QuasiMetricSpace(d)
        with pytest.raises(SpaceError, match="no admissible gluing"):
            gh_bracket(X, X, theta=0.5)


class TestProkhorov:
    def test_equal_measures_zero(self, rng):
        space = random_quasi_metric(rng, 5)
        mu = rng.random(5)
        assert prokhorov(space, mu, mu) == 0.0

    def test_matches_subset_oracle(self, rng):
        for _ in range(5):
            space = random_quasi_metric(rng, 5)
            mu = rng.random(5)
            nu = rng.random(5)
            mu /= mu.sum()
            nu /= nu.sum()
            got = prokhorov(space, mu, nu)
            want = brute_prokhorov(space, mu, nu)
            assert got == pytest.approx(want, abs=1e-7)

    def test_two_deltas(self):
        d = np.array([[0.0, 0.3], [0.5, 0.0]])
        space = QuasiMetricSpace(d)
        got = prokhorov(space, np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        want = brute_prokhorov(space, [1.0, 0.0], [0.0, 1.0])
        assert got == pytest.approx(want, abs=1e-7)

    def test_negative_measure_rejected(self):
        space = QuasiMetricSpace(np.zeros((2, 2)))
        with pytest.raises(SpaceError):
            prokhorov(space, np.array([-1.0, 0.0]), np.array([0.0, 1.0]))


class TestGhpUpper:
    def test_same_space_same_measure_small(self, rng):
        space = random_quasi_metric(rng, 4)
        w = rng.random(4)
        w /= w.sum()
        ms = MeasuredSpace(space, w)
        theta = reversibility(space) + 0.5
        got = ghp_upper(ms, ms, theta)
        assert 0 <= got <= 1e-6

    def test_nonnegative_and_deterministic(self, rng):
        X = MeasuredSpace(random_quasi_metric(rng, 4), np.full(4, 0.25))
        Y = MeasuredSpace(random_quasi_metric(rng, 5), np.full(5, 0.2))
        theta = max(reversibility(X.space), reversibility(Y.space))
        a = ghp_upper(X, Y, theta, seed=7)
        b = ghp_upper(X, Y, theta, seed=7)
        assert a == b
        assert a >= 0

    def test_glued_space_is_valid_quasi_metric(self, rng):
        from qmspace import validate
        X = random_quasi_metric(rng, 4)
        Y = random_quasi_metric(rng, 4)
        res = iso_defect(X, Y)
        glued = ghdist._glue(X, Y, res.map, res.defect)
        assert validate(glued, tol=1e-9).valid
        # restriction to the two halves is untouched
        assert np.allclose(glued.dist[:4, :4], X.dist)
        assert np.allclose(glued.dist[4:, 4:], Y.dist)
