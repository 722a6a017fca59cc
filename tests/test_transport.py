import itertools

import numpy as np
import pytest

from conftest import euclidean_grid_1d, random_quasi_metric, smooth_density_pair
from qmspace import (
    Coupling,
    Interpolation,
    MeasuredSpace,
    QuasiMetricSpace,
    SpaceError,
    ThetaBound,
    TransportProblem,
    asymmetry_bound_check,
    dynamical_plan,
    geodesy_check,
    interpolate,
    kr_dual,
    wasserstein,
)
from qmspace.transport import default_hop_radius


from oracles import polytope_vertex_minimum


class TestWasserstein:
    def test_matches_vertex_enumeration(self, rng):
        for _ in range(20):
            space = random_quasi_metric(rng, 4)
            mu = rng.random(4)
            nu = rng.random(4)
            mu /= mu.sum()
            nu /= nu.sum()
            for p in (1.0, 2.0):
                val, coupling = wasserstein(TransportProblem(space, mu, nu, p))
                want = polytope_vertex_minimum(space.dist ** p, mu, nu)
                assert val ** p == pytest.approx(want, abs=1e-9)

    def test_identical_marginals_zero(self, rng):
        space = random_quasi_metric(rng, 5)
        mu = rng.random(5)
        mu /= mu.sum()
        val, coupling = wasserstein(TransportProblem(space, mu, mu, 2.0))
        assert val == 0.0
        assert np.allclose(coupling.matrix, np.diag(mu))

    def test_two_deltas_is_distance(self):
        d = np.array([[0.0, 2.0], [1.0, 0.0]])
        space = QuasiMetricSpace(d)
        mu = np.array([1.0, 0.0])
        nu = np.array([0.0, 1.0])
        for p in (1.0, 2.0, 3.0):
            val, _ = wasserstein(TransportProblem(space, mu, nu, p))
            assert val == pytest.approx(2.0, abs=1e-10)
            back, _ = wasserstein(TransportProblem(space, nu, mu, p))
            assert back == pytest.approx(1.0, abs=1e-10)

    def test_asymmetric_in_general(self, rng):
        space = random_quasi_metric(rng, 4, asym=1.0)
        mu = np.array([0.7, 0.3, 0.0, 0.0])
        nu = np.array([0.0, 0.0, 0.4, 0.6])
        fwd, _ = wasserstein(TransportProblem(space, mu, nu, 1.0))
        bwd, _ = wasserstein(TransportProblem(space, nu, mu, 1.0))
        assert fwd != pytest.approx(bwd, abs=1e-12)

    def test_triangle_inequality(self, rng):
        for _ in range(10):
            space = random_quasi_metric(rng, 4)
            a, b, c = rng.random((3, 4))
            a, b, c = a / a.sum(), b / b.sum(), c / c.sum()
            for p in (1.0, 2.0):
                wab, _ = wasserstein(TransportProblem(space, a, b, p))
                wbc, _ = wasserstein(TransportProblem(space, b, c, p))
                wac, _ = wasserstein(TransportProblem(space, a, c, p))
                assert wac <= wab + wbc + 1e-9

    def test_marginal_validation(self):
        space = QuasiMetricSpace(np.zeros((2, 2)))
        with pytest.raises(SpaceError):
            TransportProblem(space, np.array([0.5, 0.4]), np.array([0.5, 0.5]))
        with pytest.raises(SpaceError):
            TransportProblem(space, np.array([0.5, 0.5]),
                             np.array([0.5, 0.5]), p=0.5)


def test_kr_dual_matches_primal(rng):
    for _ in range(20):
        space = random_quasi_metric(rng, 5)
        mu = rng.random(5)
        nu = rng.random(5)
        mu /= mu.sum()
        nu /= nu.sum()
        primal, _ = wasserstein(TransportProblem(space, mu, nu, 1.0))
        dual, psi = kr_dual(TransportProblem(space, mu, nu, 1.0))
        assert abs(primal - dual) <= 1e-7
        # the returned potential is feasible
        for i in range(5):
            for j in range(5):
                if i != j:
                    assert psi[j] - psi[i] <= space.dist[i, j] + 1e-9


def test_kr_dual_requires_order_one(rng):
    space = random_quasi_metric(rng, 3)
    mu = np.full(3, 1 / 3)
    with pytest.raises(SpaceError):
        kr_dual(TransportProblem(space, mu, mu, 2.0))


class TestCoupling:
    def test_marginals_checked(self):
        with pytest.raises(SpaceError):
            Coupling(np.array([[0.5, 0.0], [0.0, 0.4]]),
                     np.array([0.5, 0.5]), np.array([0.5, 0.5]))

    def test_negative_rejected(self):
        with pytest.raises(SpaceError):
            Coupling(np.array([[0.6, -0.1], [0.0, 0.5]]),
                     np.array([0.5, 0.5]), np.array([0.6, 0.4]))


class TestDynamicalPlan:
    def test_grid_chain_is_staircase(self):
        ms = euclidean_grid_1d(0.25)
        mu = np.zeros(ms.n)
        nu = np.zeros(ms.n)
        mu[0] = 1.0
        nu[4] = 1.0
        _, coupling = wasserstein(TransportProblem(ms.space, mu, nu, 2.0))
        plan = dynamical_plan(ms.space, coupling)
        assert plan.chains[(0, 4)] == (0, 1, 2, 3, 4)

    def test_chain_lengths_near_direct(self, rng):
        ms = euclidean_grid_1d(0.1)
        mu, nu = smooth_density_pair(ms, 3)
        _, coupling = wasserstein(TransportProblem(ms.space, mu, nu, 2.0))
        plan = dynamical_plan(ms.space, coupling)
        d = ms.space.dist
        for (i, j), chain in plan.chains.items():
            length = sum(d[a, b] for a, b in zip(chain, chain[1:]))
            assert length <= d[i, j] * 1.5 + 1e-9

    def test_disconnected_support_raises(self):
        d = np.array([[0.0, 10.0], [10.0, 0.0]])
        space = QuasiMetricSpace(d)
        coupling = Coupling(np.array([[0.0, 1.0], [0.0, 0.0]]),
                            np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        with pytest.raises(SpaceError, match="no chain"):
            dynamical_plan(space, coupling, hop_radius=1.0)

    def test_default_hop_radius(self):
        ms = euclidean_grid_1d(0.2)
        assert default_hop_radius(ms.space) == pytest.approx(0.3)


class TestInterpolate:
    def make_plan(self):
        ms = euclidean_grid_1d(0.25)
        mu = np.zeros(ms.n)
        nu = np.zeros(ms.n)
        mu[0] = 1.0
        nu[4] = 1.0
        _, c = wasserstein(TransportProblem(ms.space, mu, nu, 2.0))
        return ms, dynamical_plan(ms.space, c)

    def test_endpoints_are_marginals(self):
        ms, plan = self.make_plan()
        interp = interpolate(plan, [0.0, 1.0])
        assert interp.measures[0][0] == pytest.approx(1.0)
        assert interp.measures[1][4] == pytest.approx(1.0)

    def test_midpoint_of_delta_pair(self):
        ms, plan = self.make_plan()
        interp = interpolate(plan, [0.5])
        assert interp.measures[0][2] == pytest.approx(1.0)

    def test_mass_conserved(self):
        ms = euclidean_grid_1d(0.1)
        mu, nu = smooth_density_pair(ms, 1)
        _, c = wasserstein(TransportProblem(ms.space, mu, nu, 2.0))
        plan = dynamical_plan(ms.space, c)
        interp = interpolate(plan, [0.25, 0.5, 0.75])
        for m in interp.measures:
            assert m.sum() == pytest.approx(1.0)
            assert np.all(m >= 0)

    def test_time_out_of_range(self):
        ms, plan = self.make_plan()
        with pytest.raises(SpaceError):
            interpolate(plan, [1.5])


def test_geodesy_residual_shrinks_with_pitch():
    worst = []
    for h in (0.2, 0.1, 0.05):
        ms = euclidean_grid_1d(h)
        mu, nu = smooth_density_pair(ms, 5)
        _, c = wasserstein(TransportProblem(ms.space, mu, nu, 2.0))
        plan = dynamical_plan(ms.space, c)
        interp = interpolate(plan, [0.0, 0.25, 0.5, 0.75, 1.0])
        rep = geodesy_check(ms.space, interp, 2.0)
        worst.append(rep.details["abs_residual"])
    assert worst[2] <= worst[0]
    assert worst[2] <= 3 * 0.05


class TestGeodesyCheck:
    TS = (0.0, 0.25, 0.5, 0.75, 1.0)

    def endpoints(self):
        space = euclidean_grid_1d(0.05).space
        mu0 = np.zeros(space.n)
        mu1 = np.zeros(space.n)
        mu0[0] = mu1[-1] = 1.0
        return space, mu0, mu1

    def test_displacement_interpolation_passes(self):
        space, mu0, mu1 = self.endpoints()
        _, c = wasserstein(TransportProblem(space, mu0, mu1, 2.0))
        interp = interpolate(dynamical_plan(space, c), self.TS)
        rep = geodesy_check(space, interp, 2.0)
        assert rep.tolerance == pytest.approx(3 * 0.05)
        assert rep.passed
        assert rep.lhs <= rep.tolerance

    def test_interpolation_stuck_at_start_fails(self):
        space, mu0, mu1 = self.endpoints()
        interp = Interpolation(
            self.TS, tuple(mu1 if t == 1.0 else mu0 for t in self.TS))
        rep = geodesy_check(space, interp, 2.0)
        assert not rep.passed
        assert rep.lhs > rep.tolerance


class TestAsymmetryBound:
    def test_passes_on_grid(self, rng):
        ms = euclidean_grid_1d(0.1)
        mu, nu = smooth_density_pair(ms, 9)
        theta = ThetaBound(((100.0, 1.0),))  # symmetric space: bound 1
        rep = asymmetry_bound_check(ms, mu, nu, p=2.0, q=1.0, theta_fn=theta)
        assert rep.passed
        assert rep.lhs <= rep.rhs + 1e-9

    def test_order_constraint(self, rng):
        ms = euclidean_grid_1d(0.2)
        mu, nu = smooth_density_pair(ms, 2)
        with pytest.raises(SpaceError):
            asymmetry_bound_check(ms, mu, nu, p=1.0, q=2.0,
                                  theta_fn=lambda r: 1.0)

    def test_needs_basepoint(self, rng):
        space = random_quasi_metric(rng, 4)
        ms = MeasuredSpace(space, np.full(4, 0.25))
        mu = np.full(4, 0.25)
        with pytest.raises(SpaceError):
            asymmetry_bound_check(ms, mu, mu, p=2.0, q=1.0,
                                  theta_fn=lambda r: 2.0)
