import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    euclidean_grid_1d,
    euclidean_grid_2d,
    random_quasi_metric,
    smooth_density_pair,
)
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
from qmspace import transport
from qmspace.transport import default_hop_radius


from oracles import polytope_vertex_minimum, transport_constraints


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

    def test_marginals_a_hair_apart_are_solved(self):
        # within numpy's default rtol of each other, but not the same measure
        space = QuasiMetricSpace(np.array([[0.0, 1.0], [2.0, 0.0]]))
        mu = np.array([0.5 + 2e-6, 0.5 - 2e-6])
        val, coupling = wasserstein(TransportProblem(space, mu, [0.5, 0.5], 1.0))
        assert val == pytest.approx(2e-6, rel=1e-6)
        assert coupling.matrix[0, 1] == pytest.approx(2e-6, rel=1e-6)

    def test_non_finite_distances_raise_at_construction(self):
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        for bad in (np.nan, np.inf):
            d[1, 2] = bad
            with pytest.raises(SpaceError, match="non-finite entries"):
                QuasiMetricSpace(d)

    def test_non_finite_cost_raises(self):
        # finite distances whose p-th power overflows still reach the LP
        # with an infinite cost, which HiGHS would call optimal
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1e200], [3.0, 1.0, 0.0]])
        mu, nu = np.array([0.2, 0.3, 0.5]), np.array([0.5, 0.3, 0.2])
        prob = TransportProblem(QuasiMetricSpace(d), mu, nu, 2.0)
        with np.errstate(over="ignore"), \
                pytest.raises(SpaceError, match="non-finite cost"):
            wasserstein(prob)

    def test_marginal_validation(self):
        space = QuasiMetricSpace(np.zeros((2, 2)))
        with pytest.raises(SpaceError):
            TransportProblem(space, np.array([0.5, 0.4]), np.array([0.5, 0.5]))
        with pytest.raises(SpaceError):
            TransportProblem(space, np.array([0.5, 0.5]),
                             np.array([0.5, 0.5]), p=0.5)

    @pytest.mark.parametrize("p", [np.inf, np.nan])
    def test_order_must_be_finite(self, p):
        # d ** inf is all zeros here and 0 ** (1 / inf) is 1, so W_inf
        # came out as 1.0; at NaN, equal marginals gave 0.0
        d = np.array([[0.0, 0.5, 0.4], [0.3, 0.0, 0.2], [0.6, 0.1, 0.0]])
        with pytest.raises(SpaceError, match="order p must be finite"):
            TransportProblem(QuasiMetricSpace(d), [0.5, 0.5, 0.0],
                             [0.0, 0.5, 0.5], p)

    @pytest.mark.parametrize("bad", [[np.nan, 0.5, 0.5], [np.inf, 0.5, 0.5],
                                     [-0.5, 0.5, 1.0]])
    @pytest.mark.parametrize("side", [0, 1])
    def test_marginals_must_be_finite_and_nonnegative(self, bad, side):
        # [-0.5, 0.5, 1.0] has unit mass; a NaN mass passed the mass test
        space = QuasiMetricSpace(np.ones((3, 3)) - np.eye(3))
        marginals = [[0.0, 0.5, 0.5], [0.0, 0.5, 0.5]]
        marginals[side] = bad
        with pytest.raises(SpaceError, match="finite and nonnegative"):
            TransportProblem(space, *marginals)


class TestHighsBindings:
    """transport.linprog takes the pivots of scipy's linprog(method="highs")."""

    @staticmethod
    def _captured_lp(monkeypatch, cost, mu, nu, allow_failure=False):
        """The (c, A_eq, b_eq, presolve) that _solve_lp hands to linprog,
        and its plan; with allow_failure, a SpaceError from _solve_lp
        gives plan None instead of failing the test."""
        seen = []
        ours = transport.linprog

        def record(c, *, A_eq, b_eq, presolve=True):
            seen.append((c, A_eq, b_eq, presolve))
            return ours(c, A_eq=A_eq, b_eq=b_eq, presolve=presolve)

        monkeypatch.setattr(transport, "linprog", record)
        try:
            _, plan, _ = transport._solve_lp(cost, mu, nu)
        except SpaceError:
            if not allow_failure:
                raise
            plan = None
        (lp,) = seen
        return lp, plan

    @classmethod
    def _lps(cls, monkeypatch, cost, mu, nu):
        """The LP _solve_lp builds, transport.linprog's answer and scipy's
        with the same presolve setting."""
        from scipy.optimize import linprog as scipy_linprog
        from scipy.sparse import csc_array
        ours = transport.linprog
        (c, a_eq, b_eq, presolve), plan = cls._captured_lp(monkeypatch, cost,
                                                           mu, nu)
        # scipy's linprog reads only its own sparse types
        a_scipy = csc_array((a_eq.data, a_eq.indices, a_eq.indptr),
                            shape=a_eq.shape)
        want = scipy_linprog(c, A_eq=a_scipy, b_eq=b_eq, bounds=(0, None),
                             method="highs", options={"presolve": presolve})
        return ours(c, A_eq=a_eq, b_eq=b_eq, presolve=presolve), want, plan

    @staticmethod
    def _assert_same(got, want):
        assert got.success and want.success
        assert np.array_equal(got.x, want.x)
        assert np.array_equal(got.eqlin.marginals, want.eqlin.marginals)
        assert got.fun == want.fun
        assert got.nit == want.nit

    def test_dense(self, monkeypatch, rng):
        space = random_quasi_metric(rng, 30)
        mu, nu = rng.random(30), rng.random(30)
        got, want, _ = self._lps(monkeypatch, space.dist ** 2,
                                 mu / mu.sum(), nu / nu.sum())
        self._assert_same(got, want)

    def test_zero_mass_rows_and_columns(self, monkeypatch, rng):
        space = random_quasi_metric(rng, 30)
        mu = rng.random(30) * (np.arange(30) % 3 != 0)
        nu = rng.random(30) * (np.arange(30) % 4 != 1)
        got, want, _ = self._lps(monkeypatch, space.dist,
                                 mu / mu.sum(), nu / nu.sum())
        self._assert_same(got, want)

    def test_skewed_masses_through_presolve(self, monkeypatch):
        # masses from 1e-12 to 1e-7 sit below HiGHS's feasibility
        # tolerance, so presolve removes their rows and the postsolved
        # plan misses the marginals: that drift must come out the same
        rng = np.random.default_rng(0)
        space = random_quasi_metric(rng, 30)
        mu, nu = rng.random(30), rng.random(30)
        for m in (mu, nu):
            tiny = rng.random(30) < 0.4
            m[tiny] = 10 ** rng.uniform(-12, -7, tiny.sum())
        mu, nu = mu / mu.sum(), nu / nu.sum()
        got, want, plan = self._lps(monkeypatch, space.dist ** 2, mu, nu)
        self._assert_same(got, want)
        drift = max(np.abs(plan.sum(axis=1) - mu).max(),
                    np.abs(plan.sum(axis=0) - nu).max())
        assert drift > transport.MARGINAL_TOL

    def test_single_source(self, monkeypatch, rng):
        space = random_quasi_metric(rng, 12)
        mu = np.zeros(12)
        mu[4] = 1.0
        nu = rng.random(12)
        got, want, _ = self._lps(monkeypatch, space.dist, mu, nu / nu.sum())
        assert len(got.x) == 12
        self._assert_same(got, want)

    @pytest.mark.parametrize("nr", [1, 2, 3, 17])
    @pytest.mark.parametrize("nc", [1, 2, 3, 17])
    def test_constraints_match_sparse_construction(self, monkeypatch, rng,
                                                    nr, nc):
        # zero-mass rows and columns are dropped before the LP is built
        n = 20
        mu, nu = np.zeros(n), np.zeros(n)
        mu[rng.choice(n, nr, replace=False)] = rng.random(nr) + 0.1
        nu[rng.choice(n, nc, replace=False)] = rng.random(nc) + 0.1
        (_, got, _, _), _ = self._captured_lp(
            monkeypatch, random_quasi_metric(rng, n).dist,
            mu / mu.sum(), nu / nu.sum())
        want = transport_constraints(nr, nc)
        assert got.shape == want.shape
        assert got.nnz == want.nnz
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_infeasible_is_not_success(self):
        from scipy.sparse import csr_array
        # rows 0.5 + 0.5, but column 0 alone asks for 1.5
        a_eq = csr_array(np.array([[1.0, 1.0, 0.0, 0.0],
                                   [0.0, 0.0, 1.0, 1.0],
                                   [1.0, 0.0, 1.0, 0.0]]))
        res = transport.linprog(np.ones(4), A_eq=a_eq, b_eq=[0.5, 0.5, 1.5])
        assert not res.success
        assert res.message == "Infeasible"


def _presolve_status(c, a_eq, b_eq):
    """What HiGHS's presolve makes of the LP that linprog would solve."""
    highs = transport._highs_model(c, a_eq, b_eq, presolve=True)
    highs.presolve()
    return highs.getModelPresolveStatus()


@st.composite
def transport_inputs(draw):
    """(cost, mu, nu) over closed quasi-metrics and grids with tied costs,
    costs scaled by 1e-6 to 1e6, p = 1, 2, 3, and marginals that are
    dense, have zero masses, or have masses just above or below HiGHS's
    feasibility tolerance."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    family = draw(st.sampled_from(["closed", "grid", "line"]))
    if family == "closed":
        d = random_quasi_metric(rng, draw(st.integers(3, 40))).dist
    elif family == "grid":
        d = euclidean_grid_2d(draw(st.sampled_from([0.5, 0.25, 0.2]))).space.dist
    else:
        d = euclidean_grid_1d(draw(st.sampled_from([0.5, 0.1, 0.05]))).space.dist
    n = len(d)
    cost = 10.0 ** draw(st.integers(-6, 6)) * d ** draw(st.sampled_from([1, 2, 3]))
    marginals = []
    for _ in range(2):
        m = rng.random(n)
        shape = draw(st.sampled_from(["dense", "zeros", "above", "below"]))
        if shape == "zeros":
            m[rng.random(n) < 0.5] = 0.0
        small = np.zeros(n, dtype=bool)
        if shape in ("above", "below"):
            small = rng.random(n) < 0.3
        big = rng.integers(n)  # neither small nor zero, so m can sum to 1
        m[big], small[big] = 0.5 + m[big], False
        tol = transport.PRESOLVE_MASS
        if shape == "above":  # the least float above the tolerance, and up
            m[small] = np.nextafter(tol, 1.0) * rng.uniform(1.0, 1.5, small.sum())
            m[np.flatnonzero(small)[:1]] = np.nextafter(tol, 1.0)
        elif shape == "below":
            m[small] = tol * 10.0 ** rng.uniform(-5.0, 0.0, small.sum())
        m[~small] *= (1.0 - m[small].sum()) / m[~small].sum()
        marginals.append(m)
    return cost, marginals[0], marginals[1]


class TestPresolveRule:
    """_solve_lp runs presolve only on LPs that presolve can reduce."""

    def test_threshold_is_highs_feasibility_tolerance(self):
        _, tol = transport._highs()._Highs().getOptionValue(
            "primal_feasibility_tolerance")
        assert transport.PRESOLVE_MASS == tol

    @given(transport_inputs())
    @settings(max_examples=150, deadline=None)
    def test_skipping_presolve_changes_nothing(self, inputs):
        with pytest.MonkeyPatch.context() as mp:
            # the skewed inputs may fail _solve_lp's certificate; only the
            # LP it hands to linprog matters here
            (c, a_eq, b_eq, presolve), _ = TestHighsBindings._captured_lp(
                mp, *inputs, allow_failure=True)
        if presolve:
            return
        assert _presolve_status(c, a_eq, b_eq) == \
            transport._highs().HighsPresolveStatus.kNotReduced
        on, off = (transport.linprog(c, A_eq=a_eq, b_eq=b_eq, presolve=flag)
                   for flag in (True, False))
        assert (on.success, on.message, on.nit) == \
            (off.success, off.message, off.nit)
        if on.success:
            assert np.array_equal(on.x, off.x)
            assert np.array_equal(on.eqlin.marginals, off.eqlin.marginals)
            assert on.fun == off.fun

    @pytest.mark.parametrize("nr, nc, least", [
        (10, 10, 0.99e-7),  # a forcing row
        (10, 10, 1e-7),
        (2, 10, None),      # doubleton column constraints
        (10, 2, None),      # doubleton row constraints
        (1, 10, None),
        (10, 1, None),
    ])
    def test_presolve_runs_where_it_reduces(self, monkeypatch, rng, nr, nc, least):
        n = 12
        mu, nu = np.zeros(n), np.zeros(n)
        mu[:nr] = rng.random(nr) + 0.1
        nu[n - nc:] = rng.random(nc) + 0.1
        mu, nu = mu / mu.sum(), nu / nu.sum()
        if least is not None:
            mu[1:nr] *= (1.0 - least) / mu[1:nr].sum()
            mu[0] = least
        (c, a_eq, b_eq, presolve), _ = TestHighsBindings._captured_lp(
            monkeypatch, random_quasi_metric(rng, n).dist, mu, nu)
        assert presolve
        assert _presolve_status(c, a_eq, b_eq) != \
            transport._highs().HighsPresolveStatus.kNotReduced


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


def test_kr_dual_raises_when_triangle_inequality_fails():
    # d(0, 2) = 5 > d(0, 1) + d(1, 2) = 2: the primal is 5, the best
    # 1-Lipschitz potential gives 2, so no potential certifies the value
    space = QuasiMetricSpace(np.array([[0.0, 1.0, 5.0],
                                       [1.0, 0.0, 1.0],
                                       [5.0, 1.0, 0.0]]))
    prob = TransportProblem(space, np.array([1.0, 0.0, 0.0]),
                            np.array([0.0, 0.0, 1.0]), 1.0)
    assert wasserstein(prob)[0] == pytest.approx(5.0)
    with pytest.raises(SpaceError, match="violates a constraint"):
        kr_dual(prob)


def test_kr_dual_sparse_marginals(rng):
    for _ in range(20):
        space = random_quasi_metric(rng, 8)
        mu = rng.random(8) * (rng.random(8) < 0.4)
        nu = rng.random(8) * (rng.random(8) < 0.4)
        mu[0] += 0.1  # at least one atom each
        nu[-1] += 0.1
        mu /= mu.sum()
        nu /= nu.sum()
        primal, _ = wasserstein(TransportProblem(space, mu, nu, 1.0))
        dual, psi = kr_dual(TransportProblem(space, mu, nu, 1.0))
        assert abs(primal - dual) <= 1e-7
        assert psi[0] == 0.0
        assert (psi[None, :] - psi[:, None] - space.dist).max() <= 1e-9


def test_kr_dual_identical_marginals_zero(rng):
    space = random_quasi_metric(rng, 5)
    mu = rng.random(5)
    mu /= mu.sum()
    dual, _ = kr_dual(TransportProblem(space, mu, mu, 1.0))
    assert dual == 0.0


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
        # one-way: point 2 reaches 0 and 1 in one unit, nothing reaches 2
        # within the default hop radius 1.5
        d = np.array([[0.0, 1.0, 10.0], [1.0, 0.0, 10.0], [1.0, 1.0, 0.0]])
        space = QuasiMetricSpace(d)
        mu = np.array([1.0, 0.0, 0.0])
        nu = np.array([0.0, 0.0, 1.0])
        coupling = Coupling(np.outer(mu, nu), mu, nu)
        with pytest.raises(SpaceError, match="no chain from 0 to 2"):
            dynamical_plan(space, coupling)

    def test_chain_too_long_raises(self):
        # 12 points on the unit circle with chordal distances: only
        # neighbours are hops, so 0 -> 6 takes 6 chords of 2 sin(pi/12),
        # 3.106 against a direct 2 and the allowed 2 * 1.5
        angles = 2 * np.pi * np.arange(12) / 12
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        d = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        space = QuasiMetricSpace(d)
        mu = np.zeros(12)
        nu = np.zeros(12)
        mu[0] = nu[6] = 1.0
        coupling = Coupling(np.outer(mu, nu), mu, nu)
        with pytest.raises(SpaceError,
                           match="within tolerance: best 3.10583 vs direct 2"):
            dynamical_plan(space, coupling)

    def test_predecessor_cycle_raises(self, monkeypatch):
        # the walk back from j stops after n steps instead of looping
        d = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        space = QuasiMetricSpace(d)
        mu = np.array([1.0, 0.0, 0.0])
        nu = np.array([0.0, 1.0, 0.0])
        coupling = Coupling(np.outer(mu, nu), mu, nu)
        monkeypatch.setattr(transport, "dijkstra", lambda *args, **kwargs: (
            np.array([[0.0, 1.0, 1.0]]), np.array([[-1, 2, 1]])))
        with pytest.raises(SpaceError, match="chain from 0 to 1 does not end"):
            dynamical_plan(space, coupling)

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
