import itertools
import os
import subprocess
import sys
import tracemalloc

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


from oracles import (
    bisect_prokhorov,
    brute_iso_defect,
    brute_prokhorov,
    networkx_excess,
    rescoring_iso_defect,
)


def closed_quasi_metric(rng, n):
    """Floyd-Warshall closure of a uniform random matrix, zero diagonal."""
    d = rng.random((n, n))
    np.fill_diagonal(d, 0.0)
    for k in range(n):
        d = np.minimum(d, d[:, k, None] + d[k])
    return d


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

    @pytest.mark.parametrize("m, n", [(5, 7), (6, 6), (7, 5)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("batch", [ghdist.MOVE_BATCH_ELEMS, 1])
    def test_local_search_matches_full_rescoring(self, m, n, seed, batch,
                                                 monkeypatch):
        # scoring moves from the changed terms must walk the same path as
        # re-scoring every candidate map; rounding to 0.1 adds ties
        monkeypatch.setattr(ghdist, "EXACT_MAP_LIMIT", 0)
        monkeypatch.setattr(ghdist, "MOVE_BATCH_ELEMS", batch)
        r = np.random.default_rng(seed)
        for digits in (None, 1):
            X, Y = random_quasi_metric(r, m), random_quasi_metric(r, n)
            if digits is not None:
                X = QuasiMetricSpace(np.round(X.dist, digits))
                Y = QuasiMetricSpace(np.round(Y.dist, digits))
            res = iso_defect(X, Y, seed=seed)
            defect, assignment = rescoring_iso_defect(X, Y, seed=seed)
            assert res.heuristic
            assert res.defect == defect
            assert np.array_equal(res.map.assignment, assignment)

    @pytest.mark.parametrize("j", [-60, 0, 20])
    def test_local_search_moves_are_scale_free(self, j):
        # an absolute improvement threshold of 1e-15 stopped the search at
        # its start once every distance was 1e-15 or smaller
        rng = np.random.default_rng(1)
        dx, dy = closed_quasi_metric(rng, 12), closed_quasi_metric(rng, 12)
        k = 2.0 ** j
        res = iso_defect(QuasiMetricSpace(k * dx), QuasiMetricSpace(k * dy))
        ref = iso_defect(QuasiMetricSpace(dx), QuasiMetricSpace(dy))
        assert res.heuristic
        assert res.defect / k == ref.defect == 0.2675387948337157
        assert np.array_equal(res.map.assignment, ref.map.assignment)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_weights_must_be_finite_and_nonnegative(self, bad):
        space = QuasiMetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
        for mu, nu in (([bad, 1.0], [1.0, 1.0]), ([1.0, 1.0], [bad, 1.0])):
            with pytest.raises(SpaceError, match="finite and nonnegative"):
                prokhorov(space, mu, nu)

    def test_nearly_equal_measures_not_rounded_to_zero(self):
        # a relative tolerance in the equality shortcut would call these
        # two measures equal; their distance is the 5e-6 of mass moved
        space = QuasiMetricSpace(np.array([[0.0, 1.0], [1.0, 0.0]]))
        mu, nu = [1.0, 1.0], [1.0 + 5e-6, 1.0 - 5e-6]
        got = prokhorov(space, mu, nu)
        assert got == pytest.approx(5e-6, abs=2e-9)
        assert got == pytest.approx(brute_prokhorov(space, mu, nu), abs=2e-9)

    def test_measures_a_hair_apart_per_atom_not_rounded_to_zero(self):
        # every atom moves by 0.9e-9, below the tolerance, but 3.6e-9 of
        # mass has to move in all, and no two points are that close
        rng = np.random.default_rng(0)
        x = rng.random((8, 2))
        space = QuasiMetricSpace(np.linalg.norm(x[:, None] - x[None], axis=2))
        mu = np.full(8, 1 / 8)
        nu = mu + 0.9e-9 * (-1) ** np.arange(8)
        got = prokhorov(space, mu, nu)
        assert got > 0.0
        assert got == brute_prokhorov(space, mu, nu)

    @staticmethod
    def _space_and_measures(case, rng, n):
        if case == "grid":  # pitch 0.5 and a one-way toll: many tied levels
            x = np.arange(n) * 0.5
            d = np.abs(x[:, None] - x[None, :]) + 0.25 * (x[:, None] > x[None, :])
            return QuasiMetricSpace(d), rng.random(n), rng.random(n)
        if case == "random":
            return random_quasi_metric(rng, n), rng.random(n), rng.random(n)
        # glued: X on the first n - 3 points, Y on the last 3, as in ghp_upper
        X, Y = random_quasi_metric(rng, n - 3), random_quasi_metric(rng, 3)
        res = iso_defect(X, Y)
        glued = ghdist._glue(X, Y, res.map, res.defect)
        mu = np.concatenate([rng.random(n - 3), np.zeros(3)])
        nu = np.concatenate([np.zeros(n - 3), rng.random(3)])
        return glued, mu, nu

    @pytest.mark.parametrize("case", ["random", "grid", "glued"])
    def test_level_memo_matches_plain_bisection(self, case, rng, monkeypatch):
        calls = {"n": 0}
        flow = ghdist._max_flow

        def counted(*args, **kwargs):
            calls["n"] += 1
            return flow(*args, **kwargs)

        monkeypatch.setattr(ghdist, "_max_flow", counted)
        for n in range(5, 9):
            space, mu, nu = self._space_and_measures(case, rng, n)
            calls["n"] = 0
            want = bisect_prokhorov(space, mu, nu)
            plain = calls["n"]
            calls["n"] = 0
            assert prokhorov(space, mu, nu) == want
            assert 0 < calls["n"] <= plain / 2

    @staticmethod
    def _networkx_case(case, rng):
        n = int(rng.integers(5, 41))
        d = closed_quasi_metric(rng, n)
        mu, nu = rng.random(n), rng.random(n)
        if case == "zero-atoms":
            mu[rng.random(n) < 0.3] = 0.0
            nu[rng.random(n) < 0.3] = 0.0
        elif case == "u16":
            mu, nu = mu ** 16, nu ** 16
        elif case == "zero-measure":
            mu[:] = 0.0
        elif case == "far-apart":  # the answer is below every off-diagonal distance
            d = d + 2.0 * (1.0 - np.eye(n))
            mu, nu = mu / mu.sum(), nu / nu.sum()
        elif case == "one-point":
            d, mu, nu = d[:1, :1], mu[:1], nu[:1]
        return d, mu, nu

    @pytest.mark.parametrize("case", ["plain", "zero-atoms", "u16", "zero-measure",
                                      "far-apart", "one-point"])
    def test_matches_networkx_flow(self, case, monkeypatch):
        rng = np.random.default_rng(sum(map(ord, case)))
        for _ in range(4):
            d, mu, nu = self._networkx_case(case, rng)
            space = QuasiMetricSpace(d)
            got = prokhorov(space, mu, nu)
            with monkeypatch.context() as m:
                m.setattr(ghdist, "_excess", networkx_excess)
                assert got == prokhorov(space, mu, nu)
            off = d[~np.eye(len(d), dtype=bool)]
            below = 0.5 * off.min() if off.size else 1.0
            for eps in (below, np.median(d), d.max()):
                for a, b in ((mu, nu), (nu, mu)):
                    assert (abs(ghdist._excess(d, a, b, eps) - networkx_excess(d, a, b, eps))
                            <= 1e-15 * a.sum())

    @pytest.mark.parametrize("seed", range(0, 120, 4))
    def test_skewed_masses_match_subset_oracle(self, seed):
        # U^8 masses on closed 3-9-point quasi-metrics; the same holds for
        # every seed in range(120)
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        space = QuasiMetricSpace(closed_quasi_metric(rng, n))
        mu, nu = rng.random(n) ** 8, rng.random(n) ** 8
        assert prokhorov(space, mu, nu) == brute_prokhorov(space, mu, nu)

    @pytest.mark.parametrize("seed", [2, 8, 9])
    def test_float_capacities_match_subset_oracle(self, seed):
        # networkx's default preflow-push raised on these masses
        rng = np.random.default_rng(seed)
        d = rng.random((8, 8))
        np.fill_diagonal(d, 0.0)
        for k in range(8):
            d = np.minimum(d, d[:, k, None] + d[k])
        space = QuasiMetricSpace(d)
        mu, nu = rng.random(8) ** 16, rng.random(8) ** 16
        assert prokhorov(space, mu, nu) == brute_prokhorov(space, mu, nu)

    def test_excess_same_under_every_hash_seed(self):
        child = (
            "import numpy as np\n"
            "from qmspace import ghdist\n"
            "rng = np.random.default_rng(0)\n"
            "d = rng.random((30, 30))\n"
            "mu, nu = rng.random(30), rng.random(30)\n"
            "print([ghdist._excess(d, mu, nu, eps).hex()\n"
            "       for eps in np.linspace(0.02, 0.7, 35)])\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(ghdist.__file__)))
        outs = {
            subprocess.run(
                [sys.executable, "-c", child], check=True, capture_output=True,
                text=True, env=dict(os.environ, PYTHONPATH=src,
                                    PYTHONHASHSEED=str(h))).stdout
            for h in (0, 1)
        }
        assert len(outs) == 1

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

    @pytest.mark.parametrize("m, n", [(5, 9), (9, 9), (9, 5)])
    def test_glue_matches_broadcast_min(self, rng, m, n):
        X, Y = random_quasi_metric(rng, m), random_quasi_metric(rng, n)
        pmap = PointMap(X, Y, rng.integers(0, n, m))
        glued = ghdist._glue(X, Y, pmap, 0.3).dist
        dx, dy, a = X.dist, Y.dist, pmap.assignment
        assert np.array_equal(glued[:m, :m], dx)
        assert np.array_equal(glued[m:, m:], dy)
        assert np.array_equal(
            glued[:m, m:], (dx[:, :, None] + dy[a][None, :, :]).min(axis=1) + 0.3)
        assert np.array_equal(
            glued[m:, :m], (dy[:, a][:, :, None] + dx[None, :, :]).min(axis=1) + 0.3)

    def test_glue_builds_no_cubic_temporary(self, rng):
        m, n = 150, 120
        X = QuasiMetricSpace(rng.random((m, m)))
        Y = QuasiMetricSpace(rng.random((n, n)))
        pmap = PointMap(X, Y, rng.integers(0, n, m))
        tracemalloc.start()
        try:
            glued = ghdist._glue(X, Y, pmap, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # an m x m x n float array alone would take 8 m^2 n = 21.6 MB
        assert peak < 2 * glued.dist.nbytes

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
