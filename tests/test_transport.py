import importlib.machinery
import itertools
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    couplings,
    euclidean_grid_1d,
    euclidean_grid_2d,
    random_quasi_metric,
    smooth_density_pair,
)
from qmspace import (
    Coupling,
    DynamicalPlan,
    FunkBall,
    Interpolation,
    MeasuredSpace,
    QuasiMetricSpace,
    SampleSpec,
    SpaceError,
    ThetaBound,
    TransportProblem,
    asymmetry_bound_check,
    dynamical_plan,
    gaussian_line,
    geodesy_check,
    interpolate,
    kr_dual,
    rescale,
    sample,
    wasserstein,
)
from qmspace import transport
from qmspace.io import PLAN_TOL
from qmspace.transport import default_hop_radius


from oracles import (
    loop_dynamical_plan,
    loop_interpolate,
    polytope_vertex_minimum,
    transport_constraints,
)


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
        # with an infinite cost, which HiGHS would call optimal.  No
        # overflow warning either (warnings are errors here).  With one
        # row of mass the cost is Monge: the check comes before any route
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1e200], [3.0, 1.0, 0.0]])
        nu = np.array([0.5, 0.3, 0.2])
        for mu in ([0.2, 0.3, 0.5], [0.0, 1.0, 0.0]):
            prob = TransportProblem(QuasiMetricSpace(d), np.array(mu), nu, 2.0)
            with pytest.raises(SpaceError,
                               match="transport LP failed: non-finite cost"):
                wasserstein(prob)

    def test_overflow_off_the_support_is_not_checked(self):
        # only the cost between points with mass enters the LP
        d = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1e200], [3.0, 1.0, 0.0]])
        mu, nu = np.array([0.5, 0.0, 0.5]), np.array([0.5, 0.3, 0.2])
        got, _ = wasserstein(TransportProblem(QuasiMetricSpace(d), mu, nu, 2.0))
        want, _ = wasserstein(TransportProblem(
            QuasiMetricSpace(np.where(d > 3.0, 3.0, d)), mu, nu, 2.0))
        assert got == want

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
    def _captured_lps(monkeypatch, cost, mu, nu, allow_failure=False):
        """The (c, A_eq, b_eq, basis) and the answer of every linprog call
        of _solve_lp, and its plan; with allow_failure, a SpaceError from
        _solve_lp gives plan None instead of failing the test."""
        seen = []
        ours = transport.linprog

        def record(c, *, A_eq, b_eq, basis=None, **options):
            # column generation's restricted LPs pass a tolerance; these
            # tests are about the dense LP, so no input may reach it
            assert not options
            res = ours(c, A_eq=A_eq, b_eq=b_eq, basis=basis)
            seen.append((c, A_eq, b_eq, basis, res))
            return res

        monkeypatch.setattr(transport, "linprog", record)
        try:
            _, plan, _ = transport._solve_lp(cost, mu, nu)
        except SpaceError:
            if not allow_failure:
                raise
            plan = None
        return seen, plan

    @classmethod
    def _captured_lp(cls, monkeypatch, cost, mu, nu, allow_failure=False):
        """The (c, A_eq, b_eq) of _solve_lp's one linprog call, made
        without a basis, and its plan."""
        seen, plan = cls._captured_lps(monkeypatch, cost, mu, nu, allow_failure)
        ((*lp, basis, _),) = seen
        assert basis is None
        return tuple(lp), plan

    @classmethod
    def _lps(cls, monkeypatch, cost, mu, nu):
        """transport.linprog's answer to the LP _solve_lp builds, scipy's
        with presolve off too, and _solve_lp's plan."""
        (c, a_eq, b_eq), plan = cls._captured_lp(monkeypatch, cost, mu, nu)
        return (transport.linprog(c, A_eq=a_eq, b_eq=b_eq),
                _scipy_linprog(c, a_eq, b_eq, presolve=False), plan)

    @staticmethod
    def _assert_same(got, want, nit=True):
        """Bitwise the same answer; with nit, in as many pivots."""
        assert got.success and want.success
        assert np.array_equal(got.x, want.x)
        assert np.array_equal(got.eqlin.marginals, want.eqlin.marginals)
        assert got.fun == want.fun
        if nit:
            assert got.nit == want.nit

    def test_dense(self, monkeypatch, rng):
        space = random_quasi_metric(rng, 30)
        mu, nu = rng.random(30), rng.random(30)
        got, want, _ = self._lps(monkeypatch, _tied(space.dist ** 2, mu, nu),
                                 mu / mu.sum(), nu / nu.sum())
        self._assert_same(got, want)

    def test_zero_mass_rows_and_columns(self, monkeypatch, rng):
        space = random_quasi_metric(rng, 30)
        mu = rng.random(30) * (np.arange(30) % 3 != 0)
        nu = rng.random(30) * (np.arange(30) % 4 != 1)
        got, want, _ = self._lps(monkeypatch, _tied(space.dist, mu, nu),
                                 mu / mu.sum(), nu / nu.sum())
        self._assert_same(got, want)

    @pytest.mark.parametrize("case", ["tied", "infeasible"])
    def test_forcing_rows_without_a_tree_solve_the_lp_whole(self, monkeypatch,
                                                             case):
        # a forcing-row LP whose reduced LP column generation does not
        # settle goes whole to linprog, once, without a start basis
        rng = np.random.default_rng(0)
        if case == "tied":
            # masses from 1e-12 to 1e-7, and two equal costs among the
            # rows and columns the reduction keeps: no attempt
            n = 30
            mu, nu = rng.random(n), rng.random(n)
            for m in (mu, nu):
                tiny = rng.random(n) < 0.4
                m[tiny] = 10 ** rng.uniform(-12, -7, tiny.sum())
            mu, nu = mu / mu.sum(), nu / nu.sum()
            tol = transport.PRESOLVE_MASS
            kept_nu = np.append(nu[:-1] > tol, True)
            cost = _tied(random_quasi_metric(rng, n).dist ** 2, mu > tol, kept_nu)
        else:
            # mu's forcing rows carry 1.8e-7 and nu's last entry 1e-10, so
            # the LP without those rows leaves -1.8e-7 to nu's last column:
            # the attempt finds it infeasible
            n = 8
            mu, nu = rng.random(n) + 0.1, rng.random(n) + 0.1
            mu[[3, 5]], nu[-1] = 0.9e-7, 1e-10
            mu[mu > 1e-7] *= (1.0 - 1.8e-7) / mu[mu > 1e-7].sum()
            nu[:-1] *= (1.0 - 1e-10) / nu[:-1].sum()
            cost = random_quasi_metric(rng, n).dist ** 2
        assert not transport._strictly_monge(cost)
        with pytest.MonkeyPatch.context() as mp:
            attempts = _counted_column_generation(mp)
            calls = _recorded_linprog(mp)
            got = transport._solve_lp(cost, mu, nu)
        assert attempts == ([] if case == "tied" else [False])
        # one linprog call besides the attempt's restricted LP
        assert [started for restricted, started, _ in calls
                if not restricted] == [False]
        # that call solves the whole LP, as scipy does with presolve off
        monkeypatch.setattr(transport, "_column_generation", lambda c, a, b: None)
        got_lp, want, plan = self._lps(monkeypatch, cost, mu, nu)
        self._assert_same(got_lp, want)
        assert np.array_equal(plan, want.x.reshape(n, n))
        _assert_bitwise(got, _dense(cost, mu, nu))

    @pytest.mark.parametrize("nr", [1, 2, 3, 17])
    @pytest.mark.parametrize("nc", [1, 2, 3, 17])
    def test_constraints_match_sparse_construction(self, monkeypatch, rng,
                                                    nr, nc):
        # zero-mass rows and columns are dropped before the LP is built
        n = 20
        mu, nu = np.zeros(n), np.zeros(n)
        mu[rng.choice(n, nr, replace=False)] = rng.random(nr) + 0.1
        nu[rng.choice(n, nc, replace=False)] = rng.random(nc) + 0.1
        cost = _tied(_not_monge(random_quasi_metric(rng, n).dist, mu, nu), mu, nu)
        if min(nr, nc) == 1:
            # the closed form answers without an LP, so _transport_csc is
            # checked on its own
            seen, _ = self._captured_lps(monkeypatch, cost, mu / mu.sum(),
                                         nu / nu.sum())
            assert seen == []
            got = transport._transport_csc(nr, nc)
        else:
            (_, got, _), _ = self._captured_lp(monkeypatch, cost, mu / mu.sum(),
                                               nu / nu.sum())
        want = transport_constraints(nr, nc)
        assert got.shape == want.shape
        assert got.nnz == want.nnz
        for name in ("indptr", "indices", "data"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    def test_optimal_basis_restarts_without_iterations(self, rng):
        c = random_quasi_metric(rng, 12).dist.ravel() ** 2
        mu, nu = rng.random(12), rng.random(12)
        a_eq = transport._transport_csc(12, 12)
        b_eq = np.concatenate([mu / mu.sum(), (nu / nu.sum())[:-1]])
        cold = transport.linprog(c, A_eq=a_eq, b_eq=b_eq)
        warm = transport.linprog(c, A_eq=a_eq, b_eq=b_eq, basis=cold.basis)
        assert cold.nit > 0 and warm.nit == 0
        for part in (0, 1):
            assert np.array_equal(warm.basis[part], cold.basis[part])
        # a fresh factorization of the same basis: equal up to rounding
        assert np.allclose(warm.x, cold.x, rtol=0, atol=1e-15)
        assert np.allclose(warm.eqlin.marginals, cold.eqlin.marginals,
                           rtol=1e-12, atol=0)
        # the columns are basic or at 0, one basic variable per row
        assert set(np.unique(cold.basis[0])) <= {0, 1}
        assert (cold.basis[0] == 1).sum() + (cold.basis[1] == 1).sum() == 23

    def test_appended_columns_are_solved_in_the_same_model(self, rng):
        # the north-west-corner cells alone are feasible; appending every
        # other cell to that model must reach the optimum of the whole LP
        cost = random_quasi_metric(rng, 12).dist ** 2
        mu, nu = rng.random(12), rng.random(12)
        mu, nu = mu / mu.sum(), nu / nu.sum()
        b_eq = np.concatenate([mu, nu[:-1]])
        rows, cols, _ = transport._north_west_corner(mu, nu)
        first = np.ravel_multi_index((rows, cols), (12, 12))
        rest = np.setdiff1d(np.arange(144), first)
        start = transport.linprog(cost.ravel()[first], b_eq=b_eq,
                                  A_eq=transport._transport_csc(12, 12, first))
        model = start.model
        hot = transport.linprog(cost.ravel()[rest], b_eq=b_eq, model=model,
                                A_eq=transport._transport_csc(12, 12, rest))
        assert hot.success and hot.model is model and model.getNumCol() == 144
        assert len(hot.x) == len(hot.basis[0]) == 144
        full = transport.linprog(cost.ravel(), A_eq=transport._transport_csc(12, 12),
                                 b_eq=b_eq)
        assert hot.fun == pytest.approx(full.fun, rel=1e-12)
        x = np.zeros(144)
        x[np.concatenate([first, rest])] = hot.x
        assert np.allclose(x, full.x, rtol=0, atol=1e-15)
        # a column with a row index past the model's rows is refused
        bad = transport._CSC(np.array([0, 1], dtype=np.int32),
                             np.array([40], dtype=np.int32), np.ones(1), (23, 1))
        res = transport.linprog(np.ones(1), A_eq=bad, b_eq=b_eq, model=model)
        assert not res.success and res.message == "addCols failed"

    def test_missing_extension_is_an_import_error(self, monkeypatch):
        monkeypatch.delitem(sys.modules, transport.HIGHS_MODULE, raising=False)
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
        with pytest.raises(ImportError, match=r"scipy >= 1\.17"):
            transport._highs()
        assert transport.HIGHS_MODULE not in sys.modules

    def test_infeasible_is_not_success(self):
        # rows 0.5 + 0.5, but column 0 alone asks for 1.5
        a_eq = transport._transport_csc(2, 2)
        res = transport.linprog(np.ones(4), A_eq=a_eq, b_eq=[0.5, 0.5, 1.5])
        assert not res.success
        assert res.message == "Infeasible"


def _not_monge(cost, mu, nu):
    """cost with its first cell between masses raised to the sum of its
    two neighbours, so that the first 2 x 2 block of the LP's costs is not
    strictly Monge and the LP goes to HiGHS."""
    i, j = np.flatnonzero(mu)[:2], np.flatnonzero(nu)[:2]
    cost = cost.copy()
    if len(i) == len(j) == 2:
        cost[i[0], j[0]] = cost[i[0], j[1]] + cost[i[1], j[0]]
    return cost


def _tied(cost, mu, nu):
    """cost with its last positive cost between masses set to the one
    before it, so that two of the LP's costs are equal and the LP skips
    column generation.  The changed cell is in the LP's last row, so with
    three rows or more it is outside the first 2 x 2 block that
    ``_not_monge`` changes."""
    i, j = np.flatnonzero(mu), np.flatnonzero(nu)
    rows, cols = np.nonzero(cost[np.ix_(i, j)] > 0)
    cost = cost.copy()
    if len(rows) >= 2:
        cost[i[rows[-1]], j[cols[-1]]] = cost[i[rows[-2]], j[cols[-2]]]
    return cost


def _kept(d, mu, nu, p=1):
    """The cost d^p and the masses of the LP that _solve_lp hands on."""
    return d[np.ix_(mu > 0, nu > 0)] ** p, mu[mu > 0], nu[nu > 0]


def _has_forcing_rows(a, b):
    """Whether the LP of masses a and b has forcing rows: masses at or
    below HiGHS's feasibility tolerance (nu's last entry has no row)."""
    tol = transport.PRESOLVE_MASS
    return bool((a <= tol).any() or (b[:-1] <= tol).any())


def _scipy_linprog(c, a_eq, b_eq, presolve=True):
    """scipy's linprog(method="highs") on the LP whose constraints are
    the _CSC a_eq."""
    from scipy.optimize import linprog
    from scipy.sparse import csc_array
    # scipy's linprog reads only its own sparse types
    a = csc_array((a_eq.data, a_eq.indices, a_eq.indptr), shape=a_eq.shape)
    return linprog(c, A_eq=a, b_eq=b_eq, bounds=(0, None), method="highs",
                   options={"presolve": presolve})


def _presolving_model(c, a_eq, b_eq):
    """The HiGHS model that linprog would solve, presolved by HiGHS."""
    highs = transport._highs_model(c, a_eq, b_eq)
    highs.setOptionValue("presolve", "on")
    highs.presolve()
    return highs


def _presolve_status(c, a_eq, b_eq):
    """What HiGHS's presolve makes of the LP that linprog would solve."""
    return _presolving_model(c, a_eq, b_eq).getModelPresolveStatus()


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
    return cost, _marginal(draw, rng, n), _marginal(draw, rng, n)


MARGINAL_SHAPES = ["dense", "zeros", "above", "below"]


def _marginal(draw, rng, n, shapes=MARGINAL_SHAPES):
    """A probability vector of length n in one of the shapes: dense, with
    zero masses, with masses just above or below HiGHS's feasibility
    tolerance, or U^4 ("skewed")."""
    m = rng.random(n)
    shape = draw(st.sampled_from(shapes))
    if shape == "skewed":
        return m ** 4 / (m ** 4).sum()
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
    return m


@st.composite
def column_generation_inputs(draw):
    """(cost, mu, nu) that ``_transport_lp`` hands to column generation:
    closed quasi-metrics of 6 to 40 points, costs scaled by 1e-6 to 1e6,
    p = 1, 2, 3, and marginals that are dense, have zero masses, or have
    masses just above HiGHS's feasibility tolerance.  The first three
    points carry mass in both marginals, so the LP has at least three rows
    and columns, and ``_not_monge`` keeps it from the closed form."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(6, 40))
    d = random_quasi_metric(rng, n).dist
    cost = 10.0 ** draw(st.integers(-6, 6)) * d ** draw(st.sampled_from([1, 2, 3]))
    mu, nu = (_marginal(draw, rng, n, ["dense", "zeros", "above"])
              for _ in range(2))
    for m in (mu, nu):
        # only the "zeros" shape has zero masses, and it has none near the
        # tolerance that renormalizing could move across it
        if (m == 0).any():
            m[:3] = np.where(m[:3] > 0, m[:3], rng.uniform(0.1, 1.0, 3))
            m /= m.sum()
    cost = _not_monge(cost, mu, nu)
    assert transport._tries_column_generation(_kept(cost, mu, nu)[0])
    assert not transport._strictly_monge(_kept(cost, mu, nu)[0])
    return cost, mu, nu


@st.composite
def forcing_row_inputs(draw):
    """(cost, mu, nu) whose LP has forcing rows and leaves an LP that
    ``_transport_lp`` hands to column generation: closed quasi-metrics of
    6 to 40 points, costs scaled by 1e-6 to 1e6, p = 1, 2, 3; mu or nu
    has masses below HiGHS's feasibility tolerance, the other any shape
    of ``transport_inputs``.  The first three points carry more mass,
    so at least three rows and columns are kept."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.integers(6, 40))
    d = random_quasi_metric(rng, n).dist
    cost = 10.0 ** draw(st.integers(-6, 6)) * d ** draw(st.sampled_from([1, 2, 3]))
    below = draw(st.sampled_from(["mu", "nu", "both"]))
    mu, nu = (_marginal(draw, rng, n, ["below"] if below in (side, "both")
                        else MARGINAL_SHAPES)
              for side in ("mu", "nu"))
    for m in (mu, nu):
        m[:3] = np.where(m[:3] > transport.PRESOLVE_MASS, m[:3],
                         rng.uniform(0.1, 1.0, 3))
        m /= m.sum()
    assume(_has_forcing_rows(*_kept(cost, mu, nu)[1:]))
    return cost, mu, nu


def _dense(cost, mu, nu):
    """_solve_lp's answer, or its SpaceError message, with column
    generation turned off: every LP but the closed form goes whole to
    linprog, without a start basis."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_column_generation", lambda c, a, b: None)
        try:
            return transport._solve_lp(cost, mu, nu)
        except SpaceError as exc:
            return str(exc)


def _presolved(cost, mu, nu, presolve=True):
    """_solve_lp's answer, or its SpaceError message, with every
    transport LP handed whole to scipy's linprog, HiGHS presolve on (or
    off)."""
    def scipy_lp(c, a, b):
        res = _scipy_linprog(c.ravel(), transport._transport_csc(*c.shape),
                             np.concatenate([a, b[:-1]]), presolve)
        if not res.success:
            # HiGHS's model status, which transport.linprog reports alone
            status = re.search(r"model_status is (.*?);", res.message)[1]
            raise SpaceError(f"transport LP failed: {status}")
        return transport._Optimum(res.fun, res.x.reshape(c.shape),
                                  *transport._duals(res, len(a)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "_transport_lp", scipy_lp)
        try:
            return transport._solve_lp(cost, mu, nu)
        except SpaceError as exc:
            return str(exc)


def _assert_bitwise(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])
        assert np.array_equal(got[2], want[2])


class TestPresolveRule:
    """_solve_lp never runs HiGHS presolve.  On an LP without forcing
    rows presolve finds nothing to reduce, so its answer is bitwise that
    of presolve on; the forcing-row reduction that column generation
    takes is the LP that HiGHS presolve makes."""

    def test_threshold_is_highs_feasibility_tolerance(self):
        _, tol = transport._highs()._Highs().getOptionValue(
            "primal_feasibility_tolerance")
        assert transport.PRESOLVE_MASS == tol

    @given(transport_inputs())
    @settings(max_examples=150, deadline=None)
    def test_skipping_presolve_changes_nothing(self, inputs):
        # presolve reduces an LP with forcing rows, and below three rows
        # or columns it also removes doubleton rows
        c, a, b = _kept(*inputs)
        assume(min(c.shape) >= 3 and not _has_forcing_rows(a, b))
        assume(not transport._strictly_monge(c))
        with pytest.MonkeyPatch.context() as mp:
            # the dense LP, also where column generation would answer
            mp.setattr(transport, "_column_generation", lambda c, a, b: None)
            # the skewed inputs may fail _solve_lp's certificate; only the
            # LP it hands to linprog matters here
            ((c, a_eq, b_eq, _, off),), _ = TestHighsBindings._captured_lps(
                mp, *inputs, allow_failure=True)
        assert _presolve_status(c, a_eq, b_eq) == \
            transport._highs().HighsPresolveStatus.kNotReduced
        on = _scipy_linprog(c, a_eq, b_eq)
        assert (on.success, on.nit) == (off.success, off.nit)
        if on.success:
            assert np.array_equal(on.x, off.x)
            assert np.array_equal(on.eqlin.marginals, off.eqlin.marginals)
            assert on.fun == off.fun

    @given(transport_inputs())
    @settings(max_examples=150, deadline=None)
    def test_dense_path_is_scipys_linprog(self, inputs):
        # strictly Monge costs never reach HiGHS; TestMongeClosedForm
        # covers them.  Column generation is turned off (_dense), so the
        # LPs it would answer are checked on the dense path too.
        assume(not transport._strictly_monge(_kept(*inputs)[0]))
        _assert_bitwise(_dense(*inputs), _presolved(*inputs, presolve=False))

    def test_reduction_is_highs_presolved_lp(self, monkeypatch, rng):
        # forcing rows on both sides, and nu's last entry, which has no
        # row.  The dropped masses of nu and its last mass outweigh those
        # of mu, so the reduced LP is feasible to column generation's
        # 1e-10 tolerance.
        n = 12
        mu, nu = rng.random(n) + 0.1, rng.random(n) + 0.1
        mu[[2, 7]], nu[[0, 5, n - 1]] = 0.99e-7, [1e-7, 9e-8, 1e-8]
        for m in (mu, nu):
            big = m > transport.PRESOLVE_MASS
            m[big] *= (1.0 - m[~big].sum()) / m[big].sum()
        attempts = []
        ours = transport._column_generation

        def recorded(*lp):
            attempts.append(lp)
            return ours(*lp)

        monkeypatch.setattr(transport, "_column_generation", recorded)
        cost = random_quasi_metric(rng, n).dist ** 2
        calls = _recorded_linprog(monkeypatch)
        _, plan, _ = transport._solve_lp(cost, mu, nu)
        # the reduced LP that column generation receives
        ((c, a, b),) = attempts
        b_eq = np.concatenate([mu, nu[:-1]])
        lp = _presolving_model(cost.ravel(), transport._transport_csc(n, n),
                               b_eq).getPresolvedLp()
        a_small = transport._transport_csc(*c.shape)
        assert (lp.num_row_, lp.num_col_) == a_small.shape == (10 + 9, 10 * 10)
        assert np.array_equal(lp.col_cost_, c.ravel())
        assert np.array_equal(lp.row_lower_, np.concatenate([a, b[:-1]]))
        assert np.array_equal(lp.row_upper_, np.concatenate([a, b[:-1]]))
        assert np.array_equal(lp.col_lower_, np.zeros(c.size))
        assert str(lp.a_matrix_.format_) == "MatrixFormat.kColwise"
        assert np.array_equal(lp.a_matrix_.start_, a_small.indptr)
        assert np.array_equal(lp.a_matrix_.index_, a_small.indices)
        assert np.array_equal(lp.a_matrix_.value_, a_small.data)
        # the accepted tree completes to HiGHS's postsolved basis: the full
        # LP takes no pivot of its own, and its answer is presolve's
        (full,) = [res for restricted, started, res in calls if started]
        whole = _scipy_linprog(cost.ravel(), transport._transport_csc(n, n), b_eq)
        assert full.nit == 0
        assert np.array_equal(full.x, whole.x)
        assert np.array_equal(full.eqlin.marginals, whole.eqlin.marginals)
        assert full.fun == whole.fun
        assert np.array_equal(plan, whole.x.reshape(n, n))

    def test_last_nu_mass_is_no_forcing_row(self, monkeypatch, rng):
        # nu's last constraint is the redundant one left out of the LP
        n = 12
        mu, nu = rng.random(n) + 0.1, rng.random(n) + 0.1
        nu[-1] = 0.5e-7
        mu, nu = mu / mu.sum(), nu / nu.sum()
        cost = _tied(random_quasi_metric(rng, n).dist, mu, nu)
        (c, a_eq, b_eq), _ = TestHighsBindings._captured_lp(
            monkeypatch, cost, mu, nu)
        assert _presolve_status(c, a_eq, b_eq) == \
            transport._highs().HighsPresolveStatus.kNotReduced
        monkeypatch.undo()
        _assert_bitwise(transport._solve_lp(cost, mu, nu),
                        _presolved(cost, mu, nu))


class TestSmallLPs:
    """An LP with one row or one column has one feasible plan, which the
    closed form gives without HiGHS; one with two rows or two columns goes
    to HiGHS with presolve off, like every other."""

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("shape", ["dense", "zeros"])
    @pytest.mark.parametrize("dirac", ["source", "target"])
    def test_one_row_or_column_is_the_other_marginal(self, monkeypatch, rng,
                                                     dirac, shape, p):
        n, k = 30, 7
        cost = random_quasi_metric(rng, n).dist ** p
        other = rng.random(n)
        if shape == "zeros":  # dropped before the LP is built
            other[rng.random(n) < 0.5] = 0.0
        other /= other.sum()
        delta = np.zeros(n)
        delta[k] = 1.0
        source = dirac == "source"
        mu, nu = (delta, other) if source else (other, delta)
        calls = []
        monkeypatch.setattr(transport, "linprog",
                            lambda *args, **kwargs: calls.append(1))
        # _solve_lp raises unless its certificate passes
        value, plan, _ = transport._solve_lp(cost, mu, nu)
        assert calls == []
        c, a, b = _kept(cost, mu, nu)
        want = c[0] @ b if source else a @ c[:, 0]
        assert abs(value - want) <= 1e-15 * want
        assert np.abs((plan[k] if source else plan[:, k]) - other).max() <= 1e-15
        assert not np.delete(plan, k, axis=0 if source else 1).any()

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_asymmetry_bound_reads_the_closed_form(self, rng, p):
        # W_p(delta_x*, mu) is the one plan's cost, d(x*, .)^p @ mu
        n, star = 40, 3
        space = random_quasi_metric(rng, n)
        mu, nu = rng.random(n), rng.random(n)
        mu, nu = mu / mu.sum(), nu / nu.sum()
        ms = MeasuredSpace(space, np.full(n, 1.0 / n), basepoint=star)
        rep = asymmetry_bound_check(ms, mu, nu, p=p, q=1.0,
                                    theta_fn=lambda r: 1.0)
        want = (space.dist[star] ** p @ mu) ** (1.0 / p)
        assert abs(rep.details["w_p_star_mu"] - want) <= 1e-15 * want

    @pytest.mark.parametrize("nr, nc, least", [
        (2, 6, None),
        (6, 2, None),
        (2, 6, 1e-7),       # one row left after the reduction
        (6, 2, 0.99e-7),    # one column left
        (3, 4, 0.99e-7),    # two rows left
        (2, 10, None),
        (10, 2, None),
        (3, 10, 0.99e-7),
        (3, 10, 1e-7),
        (2, 200, None),
        (200, 2, None),
        (2, 200, 0.99e-7),
        (200, 2, 1e-7),
        (3, 200, 1e-7),
    ])
    def test_two_rows_or_columns_solve_with_presolve_off(self, monkeypatch, rng,
                                                          nr, nc, least):
        mu, nu = rng.random(nr) + 0.1, rng.random(nc) + 0.1
        mu, nu = mu / mu.sum(), nu / nu.sum()
        if least is not None:
            # a forcing row of the shorter side (never nu's last entry)
            m = mu if nr <= nc else nu
            m[1:] *= (1.0 - least) / m[1:].sum()
            m[0] = least
        cost = _not_monge(rng.random((nr, nc)), mu, nu)
        calls = _recorded_linprog(monkeypatch)
        # _solve_lp raises unless its certificate passes
        value, plan, _ = transport._solve_lp(cost, mu, nu)
        # two rows or columns, or fewer after the forcing-row reduction:
        # no attempt, and the whole LP from HiGHS's crash basis
        assert [call[:2] for call in calls] == [(False, False)]
        if cost.size <= 12:  # the oracle enumerates C(size, nr + nc - 1) trees
            # a forcing row's mass may be left off the plan (HiGHS's
            # feasibility tolerance), which moves the value by at most
            # that mass times the largest cost
            miss = np.abs(plan.sum(axis=1) - mu).sum() + \
                np.abs(plan.sum(axis=0) - nu).sum()
            want = polytope_vertex_minimum(cost, mu, nu)
            assert abs(value - want) <= 1e-12 * want + miss * cost.max()
        else:  # scipy's linprog, presolve on
            want = _scipy_linprog(cost.ravel(), transport._transport_csc(nr, nc),
                                  np.concatenate([mu, nu[:-1]])).fun
            assert abs(value - want) <= 1e-12 * want


@st.composite
def line_inputs(draw):
    """(d, mu, nu, p) on sorted points of a line, n from 2 to 50: d is
    |y - x|, or the asymmetric a(y - x) rightward and b(x - y) leftward;
    p in (1, 3]; each marginal in a shape of ``transport_inputs`` or U^4."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    n = draw(st.one_of(st.integers(2, 6), st.integers(7, 50)))
    x = np.cumsum(rng.uniform(0.5, 1.5, n)) / n
    gap = x[None, :] - x[:, None]
    if draw(st.booleans()):
        d = np.abs(gap)
    else:
        right, left = rng.uniform(0.2, 5.0, 2)
        d = np.where(gap > 0, right * gap, -left * gap)
    p = draw(st.floats(1.0, 3.0, exclude_min=True))
    shapes = MARGINAL_SHAPES + ["skewed"]
    return d, _marginal(draw, rng, n, shapes), _marginal(draw, rng, n, shapes), p


def _kernel(c, a, b):
    """_transport_lp's result, and how many linprog calls it made."""
    calls = []
    ours = transport.linprog

    def counted(*args, **kwargs):
        calls.append(1)
        return ours(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transport, "linprog", counted)
        res = transport._transport_lp(c, a, b)
    return res, len(calls)


class TestMongeClosedForm:
    """Strictly Monge costs are solved in closed form, without HiGHS, and
    the closed form is the optimum."""

    @given(line_inputs())
    @settings(max_examples=200, deadline=None)
    @example((np.array([[0.0, 0.4532272], [0.4532272, 0.0]]),
              np.array([0.9999999, 1e-7]),
              np.array([1.0, 1e-7]) / 1.0000001, 2.0))  # optimum 0
    def test_closed_form_is_the_optimum(self, inputs):
        c, a, b = _kept(*inputs)
        # at p very near 1, rounding can leave a block not strictly Monge
        assume(transport._strictly_monge(c))
        (value, plan, u, v, _), calls = _kernel(c, a, b)
        assert calls == 0
        reduced = c - u[:, None] - v
        # its own certificate, to rounding: a plan on the marginals, and
        # duals that are feasible and slack where the plan is not 0
        assert plan.min() >= -1e-15
        assert np.abs(plan.sum(axis=1) - a).max() <= 1e-14
        assert np.abs(plan.sum(axis=0) - b).max() <= 1e-14
        assert reduced.min() >= -1e-12 * c.max()
        assert np.abs(plan * reduced).max() <= 1e-12 * c.max()
        if c.size <= 12:  # the oracle enumerates C(c.size, nr + nc - 1) trees
            want = polytope_vertex_minimum(c, a, b)
            # an optimum of 0 rounds to either sign: compare it at the
            # scale of the certificate asserts above
            small = want <= 1e-12 * c.max()
            assert abs(value - want) <= 1e-12 * (c.max() if small else want)
            return
        highs = transport.linprog(
            c.ravel(), A_eq=transport._transport_csc(*c.shape),
            b_eq=np.concatenate([a, b[:-1]]))
        if not highs.success:
            return
        other = np.maximum(highs.x.reshape(c.shape), 0.0)
        miss_a = np.abs(other.sum(axis=1) - a)
        miss_b = np.abs(other.sum(axis=0) - b)
        # weak duality with the closed form's duals: a plan that misses
        # the marginals by miss_a and miss_b costs at least this much
        bound = value - np.abs(u) @ miss_a - np.abs(v) @ miss_b
        assert (c * other).sum() >= bound - 1e-12 * (value + c.max())
        hu, hv = transport._duals(highs, len(a))
        meets = (np.all(miss_a <= np.minimum(1e-14, 1e-9 * a))
                 and np.all(miss_b <= np.minimum(1e-14, 1e-9 * b)))
        if meets and (c - hu[:, None] - hv).min() >= -1e-12 * c.max():
            # HiGHS meets every mass and certifies its plan to rounding
            assert abs(value - highs.fun) <= 1e-12 * value
            # and where no block is Monge by less than that allows, the
            # optimum is unique and HiGHS's plan is it
            gap = c[:-1, 1:] + c[1:, :-1] - c[:-1, :-1] - c[1:, 1:]
            if gap.min() > 1e-9 * c.max():
                assert np.array_equal(plan > PLAN_TOL, other > PLAN_TOL)

    @given(line_inputs(), st.floats(-6.0, 6.0))
    @settings(max_examples=100, deadline=None)
    def test_rescaled_distances_scale_the_value(self, inputs, log_k):
        d, mu, nu, p = inputs
        k = 10.0 ** log_k
        c, a, b = _kept(d, mu, nu, p)
        scaled = _kept(k * d, mu, nu, p)[0]
        assume(transport._strictly_monge(c) and transport._strictly_monge(scaled))
        opt, _ = _kernel(c, a, b)
        opt_k, calls = _kernel(scaled, a, b)
        assert calls == 0
        # the plan does not read the cost, only its Monge property
        assert np.array_equal(opt_k.plan, opt.plan)
        w, w_k = opt.value ** (1.0 / p), opt_k.value ** (1.0 / p)
        assert abs(w_k - k * w) <= 1e-12 * k * w

    @given(line_inputs(), st.booleans())
    @settings(max_examples=50, deadline=None)
    def test_one_non_monge_block_goes_to_highs(self, inputs, first):
        c, a, b = _kept(*inputs)
        assume(min(c.shape) >= 2)
        c = c.copy()
        if first:  # turned away by the first two rows
            c[0, 0] = c[0, 1] + c[1, 0]
        else:  # only by the whole matrix, unless it has two rows
            c[-1, -1] = c[-1, -2] + c[-2, -1]
        _, calls = _kernel(c, a, b)
        assert calls > 0

    def test_skewed_line_solves_at_every_scale(self):
        # ROADMAP item 2: with HiGHS, U^4 masses on this line raised
        # "coupling marginals do not match" at k = 1 and 1e3 and a
        # certificate failure at 1e-3 and 1e6, and W/k came out 9.3 times
        # too large at 1e-6
        line = gaussian_line(1.0, 2.5, 0.025)
        rng = np.random.default_rng(0)
        mu, nu = rng.random(line.n) ** 4, rng.random(line.n) ** 4
        mu, nu = mu / mu.sum(), nu / nu.sum()
        w, coupling = wasserstein(TransportProblem(line.space, mu, nu, 2.0))
        for k in (1e-6, 1e-3, 1e3):
            scaled = QuasiMetricSpace(k * line.space.dist)
            w_k, coupling_k = wasserstein(TransportProblem(scaled, mu, nu, 2.0))
            assert abs(w_k - k * w) <= 1e-12 * k * w
            assert np.array_equal(coupling_k.matrix, coupling.matrix)
        # at k = 1e6 the duals reach 1e12, and their rounding alone is
        # above the certificate's absolute 1e-7, so _solve_lp refuses the
        # answer; the plan is still the same
        opt = transport._transport_lp((1e6 * line.space.dist) ** 2, mu, nu)
        assert np.array_equal(opt.plan, coupling.matrix)


def _counted_column_generation(mp):
    """Wrap _column_generation in mp; the list it returns gets one entry
    per call, True where the attempt was accepted."""
    calls = []
    ours = transport._column_generation

    def counted(c, a, b):
        res = ours(c, a, b)
        calls.append(res is not None)
        return res

    mp.setattr(transport, "_column_generation", counted)
    return calls


def _recorded_linprog(mp):
    """Wrap linprog in mp; the list it returns gets one entry per call:
    whether it solves a restricted LP of column generation (which passes
    a tolerance), whether it starts from a basis, and its result."""
    calls = []
    ours = transport.linprog

    def record(c, **kwargs):
        res = ours(c, **kwargs)
        calls.append((kwargs.get("tolerance") is not None,
                      kwargs.get("basis") is not None, res))
        return res

    mp.setattr(transport, "linprog", record)
    return calls


def _funk_sample(n, power=1):
    """An n-point Funk sample with random marginals U^power: dense for
    power 1, "skewed" for 4."""
    ms = sample(FunkBall(dim=2), SampleSpec(strategy="seeded-uniform",
                                            count=n, seed=7, clip_radius=1.0))
    rng = np.random.default_rng(7)
    mu, nu = rng.random(n) ** power, rng.random(n) ** power
    return ms, mu / mu.sum(), nu / nu.sum()


@pytest.fixture(scope="module")
def funk200():
    return _funk_sample(200)


@pytest.fixture(scope="module")
def funk300():
    return _funk_sample(300)


@pytest.fixture(scope="module")
def funk200_skewed():
    return _funk_sample(200, power=4)


class TestColumnGeneration:
    """LPs with distinct costs, or the LP that the forcing-row reduction
    leaves of them, are solved over a growing set of cells, and the
    answer is kept only where it is the one optimal plan; every other LP
    takes the dense path, bit for bit."""

    @given(column_generation_inputs())
    @settings(max_examples=150, deadline=None)
    def test_value_and_support_match_the_dense_solve(self, inputs):
        c, a, b = _kept(*inputs)
        opt = transport._column_generation(c, a, b)
        assume(opt is not None)
        value, plan, u, v, _ = opt
        dense = transport.linprog(
            c.ravel(), A_eq=transport._transport_csc(*c.shape),
            b_eq=np.concatenate([a, b[:-1]]))
        if not dense.success:
            return
        other = np.maximum(dense.x.reshape(c.shape), 0.0)
        miss_a = np.abs(other.sum(axis=1) - a)
        miss_b = np.abs(other.sum(axis=0) - b)
        # weak duality: a plan that misses the marginals by miss_a and
        # miss_b costs at least this much
        bound = value - np.abs(u) @ miss_a - np.abs(v) @ miss_b
        assert (c * other).sum() >= bound - 1e-12 * (abs(value) + c.max())
        hu, hv = transport._duals(dense, len(a))
        meets = (np.all(miss_a <= np.minimum(1e-14, 1e-9 * a))
                 and np.all(miss_b <= np.minimum(1e-14, 1e-9 * b)))
        if meets and (c - hu[:, None] - hv).min() >= -1e-12 * c.max():
            # the dense solve meets every mass and certifies its plan to
            # rounding, relative to the largest cost: the same optimum,
            # and the same plan, since the optimum is unique
            assert abs(value - dense.fun) <= 1e-12 * abs(value)
            assert np.array_equal(plan > PLAN_TOL, other > PLAN_TOL)

    @given(column_generation_inputs())
    @settings(max_examples=150, deadline=None)
    def test_accepted_plan_is_a_spanning_tree(self, inputs):
        from scipy.sparse import coo_array
        from scipy.sparse.csgraph import connected_components
        c, a, b = _kept(*inputs)
        opt = transport._column_generation(c, a, b)
        assume(opt is not None)
        nr, nc = c.shape
        # the tree: the cells that the duals price tight
        reduced = c - opt.u[:, None] - opt.v
        scale = np.abs(c).max()
        tree = np.abs(reduced) <= 1e-12 * scale
        i, j = np.nonzero(tree)
        assert len(i) == nr + nc - 1
        graph = coo_array((np.ones(len(i)), (i, nr + j)),
                          shape=(nr + nc, nr + nc))
        assert connected_components(graph, directed=False)[0] == 1
        plan = opt.plan
        assert plan.min() >= 0 and not plan[~tree].any()
        assert np.abs(plan.sum(axis=1) - a).max() <= 1e-14
        assert np.abs(plan.sum(axis=0) - b).max() <= 1e-14
        # no cell off the tree near tight: the plan is the one optimum
        assert reduced[~tree].min() > (transport._CG_UNIQUE - 1e-12) * scale
        if c.size <= 12:  # the oracle enumerates C(c.size, nr + nc - 1) trees
            want = polytope_vertex_minimum(c, a, b)
            # an optimum of 0 rounds to either sign (see TestMongeClosedForm)
            small = want <= 1e-12 * scale
            assert abs(opt.value - want) <= 1e-12 * (scale if small else abs(want))

    @given(transport_inputs())
    @settings(max_examples=150, deadline=None)
    def test_ties_take_the_dense_path(self, inputs):
        # the tie is put among the rows and columns the forcing-row
        # reduction keeps, so that the LP column generation would see has it
        cost, mu, nu = inputs
        tol = transport.PRESOLVE_MASS
        kept_nu = nu > tol
        kept_nu[np.flatnonzero(nu)[-1]] = True  # nu's last mass has no row
        cost = _tied(cost, mu > tol, kept_nu)
        with pytest.MonkeyPatch.context() as mp:
            calls = _counted_column_generation(mp)
            try:
                got = transport._solve_lp(cost, mu, nu)
            except SpaceError as exc:
                got = str(exc)
        assert calls == []
        _assert_bitwise(got, _dense(cost, mu, nu))

    @given(forcing_row_inputs())
    @settings(max_examples=150, deadline=None)
    def test_forcing_rows_attempt_the_reduced_lp(self, inputs):
        # one attempt, on the LP without the forcing rows and their columns
        cost, mu, nu = inputs
        c, a, b = _kept(cost, mu, nu)
        assume(not transport._strictly_monge(c))
        keep_r = a > transport.PRESOLVE_MASS
        keep_c = np.append(b[:-1] > transport.PRESOLVE_MASS, True)
        attempts = []
        ours = transport._column_generation

        def recorded(*lp):
            attempts.append(lp[0].shape)
            return ours(*lp)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transport, "_column_generation", recorded)
            try:
                transport._solve_lp(cost, mu, nu)
            except SpaceError:
                pass
        assert attempts == [(keep_r.sum(), keep_c.sum())]

    @given(transport_inputs())
    @settings(max_examples=150, deadline=None)
    def test_a_start_basis_follows_an_accepted_attempt(self, inputs):
        # the full LP of a forcing-row LP starts from a basis only where
        # column generation accepted the LP without them; every other LP
        # but the closed form goes whole to linprog once
        c, a, b = _kept(*inputs)
        with pytest.MonkeyPatch.context() as mp:
            attempts = _counted_column_generation(mp)
            calls = _recorded_linprog(mp)
            try:
                transport._transport_lp(c, a, b)
            except SpaceError:
                pass
        full = [started for restricted, started, _ in calls if not restricted]
        if transport._strictly_monge(c):
            assert (attempts, calls) == ([], [])
        elif attempts == [True]:
            assert full == ([True] if _has_forcing_rows(a, b) else [])
        else:
            assert attempts in ([], [False]) and full == [False]

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("backward", [False, True])
    def test_skewed_funk_sample_keeps_its_bits(self, funk200_skewed, p,
                                               backward):
        # U^4 masses put 14 rows and 6 columns at or below PRESOLVE_MASS.
        # Column generation solves the LP without them, and its tree
        # completes to HiGHS's postsolved basis: the full LP takes no
        # pivot from it, and the answer is bitwise that of HiGHS presolve
        # on the whole LP.  Every case still drifts off the marginals
        # (ROADMAP item 2), and the drift is presolve's too.
        ms, mu, nu = funk200_skewed
        if backward:
            mu, nu = nu, mu
        cost = ms.space.dist ** p
        with pytest.MonkeyPatch.context() as mp:
            attempts = _counted_column_generation(mp)
            calls = _recorded_linprog(mp)
            got = transport._solve_lp(cost, mu, nu)
        assert attempts == [True]
        (full,) = [res for restricted, started, res in calls if started]
        assert full.nit == 0
        _assert_bitwise(got, _presolved(cost, mu, nu))
        plan = got[1]
        drift = max(np.abs(plan.sum(axis=1) - mu).max(),
                    np.abs(plan.sum(axis=0) - nu).max())
        assert drift > transport.MARGINAL_TOL

    def test_rescaled_forcing_row_lp_is_optimal(self):
        # costs of about 1e-6 sit below HiGHS's absolute 1e-7 tolerances:
        # the dense LP stops early, 6.1e-2 above the optimum.  Column
        # generation solves the reduced LP on the cost divided by its
        # largest entry, and its tree starts the full LP.
        rng = np.random.default_rng(40)
        cost = 1e-6 * random_quasi_metric(rng, 4).dist ** 2
        mu, nu = rng.random(4) + 0.1, rng.random(4) + 0.1
        mu[0], nu[1] = 3e-8, 2e-9  # a forcing row on each side
        for m in (mu, nu):
            big = m > transport.PRESOLVE_MASS
            m[big] *= (1.0 - m[~big].sum()) / m[big].sum()
        with pytest.MonkeyPatch.context() as mp:
            attempts = _counted_column_generation(mp)
            value, _, _ = transport._solve_lp(cost, mu, nu)
        assert attempts == [True]
        assert value != _dense(cost, mu, nu)[0]  # the answer moved
        want = polytope_vertex_minimum(cost, mu, nu)
        assert abs(value - want) <= 1e-7 * want

    @given(column_generation_inputs())
    @settings(max_examples=50, deadline=None)
    def test_a_refused_attempt_changes_nothing(self, inputs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(transport, "_CG_UNIQUE", np.inf)  # refuse every plan
            calls = _counted_column_generation(mp)
            try:
                got = transport._solve_lp(*inputs)
            except SpaceError as exc:
                got = str(exc)
        assert calls == [False]
        _assert_bitwise(got, _dense(*inputs))

    def test_an_attempt_that_keeps_adding_cells_is_bounded(self, monkeypatch,
                                                           funk200):
        # with every cell outside the LP let in, the 200 x 200 LP would
        # take about 90 rounds to hold every cell; the attempt stops after
        # _CG_ROUNDS restricted LPs, each at most nr + nc cells larger
        # than the one before, and the dense LP answers.  The first
        # restricted LP is a new model; each later one is the model of the
        # round before with the entering cells appended to it.
        ms, mu, nu = funk200
        n = ms.n
        calls = []  # (cells passed, hot-started, restricted, cells solved)
        ours = transport.linprog

        def record(c, **kwargs):
            res = ours(c, **kwargs)
            calls.append((len(c), kwargs.get("model") is not None,
                          kwargs.get("tolerance") is not None,
                          res.model.getNumCol()))
            return res

        monkeypatch.setattr(transport, "_CG_ENTER", -np.inf)
        monkeypatch.setattr(transport, "linprog", record)
        attempts = _counted_column_generation(monkeypatch)
        got = transport._solve_lp(ms.space.dist, mu, nu)
        assert attempts == [False]
        rounds = transport._CG_ROUNDS
        passed, hot, restricted, sizes = map(list, zip(*calls))
        assert restricted == [True] * rounds + [False]
        assert hot == [False] + [True] * (rounds - 1) + [False]
        # every restricted LP holds the cells passed so far, no more
        assert sizes[:rounds] == np.cumsum(passed[:rounds]).tolist()
        assert np.all(np.diff(sizes[:rounds]) <= 2 * n)
        assert sizes[rounds - 1] < 0.25 * n ** 2
        assert (passed[rounds], sizes[rounds]) == (n ** 2, n ** 2)
        monkeypatch.setattr(transport, "linprog", ours)
        _assert_bitwise(got, _dense(ms.space.dist, mu, nu))

    @pytest.mark.parametrize("n", [200, 300])
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("backward", [False, True])
    def test_hot_started_rounds_match_the_dense_solve(self, request, monkeypatch,
                                                     n, p, backward):
        # every round after the first appends its cells to the model of
        # the round before and starts the primal simplex from its basis,
        # so it takes a small share of the pivots of the first round,
        # which starts from HiGHS's crash basis (at most 17% on these
        # LPs; a cold dual simplex on the larger LP takes about as many).
        # The referee is the dense LP over all n^2 cells, solved as the
        # restricted LPs are: on the cost divided by its largest entry, to
        # _CG_HIGHS_TOL.  (At HiGHS's default 1e-7 the dense LP is 1.5e-8
        # above the optimum at n = 200, p = 3 forward, and 7.8e-9 below it
        # at n = 300, p = 2 backward, with plan entries of -9.9e-8:
        # ROADMAP item 2.)
        ms, mu, nu = request.getfixturevalue(f"funk{n}")
        if backward:
            mu, nu = nu, mu
        cost = ms.space.dist ** p
        pivots = []
        ours = transport.linprog

        def record(c, **kwargs):
            res = ours(c, **kwargs)
            pivots.append(res.nit)
            return res

        monkeypatch.setattr(transport, "linprog", record)
        attempts = _counted_column_generation(monkeypatch)
        value, plan, _ = transport._solve_lp(cost, mu, nu)
        monkeypatch.undo()
        assert attempts == [True] and len(pivots) >= 2
        assert 3 * max(pivots[1:]) < pivots[0]
        scale = cost.max()
        dense = transport.linprog(
            (cost / scale).ravel(), A_eq=transport._transport_csc(n, n),
            b_eq=np.concatenate([mu, nu[:-1]]), tolerance=transport._CG_HIGHS_TOL)
        assert abs(value - dense.fun * scale) <= 1e-12 * value
        assert np.array_equal(plan > PLAN_TOL, dense.x.reshape(n, n) > PLAN_TOL)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_rescaled_funk_sample_scales_the_value(self, funk200, p):
        # ROADMAP item 2: the dense solve gave W(k d)/k up to 7.1x too
        # large at small k, without an error, because HiGHS's tolerances
        # are absolute; column generation solves the cost divided by its
        # largest entry.  k = 1e6 at p = 2 still fails the absolute
        # certificate in _solve_lp.
        ms, mu, nu = funk200
        w = wasserstein(TransportProblem(ms.space, mu, nu, p))[0]
        for k in (1e-6, 1e-3, 1e3):
            w_k = wasserstein(TransportProblem(rescale(ms, k).space, mu, nu, p))[0]
            assert abs(w_k / k - w) <= 1e-9 * w

    def test_funk_sample_keeps_a_small_share_of_cells(self, monkeypatch,
                                                      funk200):
        # a silent fall back to the dense LP would hand HiGHS all n^2 cells
        ms, mu, nu = funk200
        sizes = []
        ours = transport.linprog

        def record(c, **kwargs):
            sizes.append(len(c))
            return ours(c, **kwargs)

        monkeypatch.setattr(transport, "linprog", record)
        wasserstein(TransportProblem(ms.space, mu, nu, 2.0))
        assert sizes and max(sizes) < 0.1 * ms.n ** 2


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


class TestChainKernelsMatchLoops:
    """``dynamical_plan`` and ``interpolate`` against their loops in
    ``oracles``: the same chains in the same order, bitwise the same
    measures, and the same error for the same first pair."""

    TIMES = st.lists(st.one_of(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]),
                               st.floats(0.0, 1.0)), min_size=1, max_size=4)

    @given(couplings(), TIMES)
    @settings(max_examples=80, deadline=None)
    def test_chains_and_measures_are_the_loops(self, case, ts):
        ms, coupling = case
        try:
            want = loop_dynamical_plan(ms.space, coupling)
        except SpaceError as exc:
            with pytest.raises(SpaceError) as got:
                dynamical_plan(ms.space, coupling)
            assert str(got.value) == str(exc)
            return
        plan = dynamical_plan(ms.space, coupling)
        assert list(plan.chains.items()) == list(want.chains.items())
        assert {type(v) for c in plan.chains.values() for v in c} == {int}
        got, ref = interpolate(plan, ts), loop_interpolate(want, ts)
        assert got.ts == ref.ts
        for a, b in zip(got.measures, ref.measures, strict=True):
            assert np.array_equal(a, b)

    def test_first_pair_without_a_chain_raises(self):
        # 12 points on a circle, chords only between neighbours: the
        # antipodal pairs (0, 6) and (1, 7) take 6 chords, 3.106 against
        # 1.5 x 2, and (0, 6) comes first in row-major order
        angles = 2 * np.pi * np.arange(12) / 12
        pts = np.column_stack([np.cos(angles), np.sin(angles)])
        space = QuasiMetricSpace(np.linalg.norm(pts[:, None] - pts[None], axis=2))
        mu, nu = np.zeros(12), np.zeros(12)
        mu[[0, 1]] = 0.5
        nu[[5, 6, 7]] = 1 / 3
        coupling = Coupling(np.outer(mu, nu), mu, nu)
        with pytest.raises(SpaceError) as want:
            loop_dynamical_plan(space, coupling)
        assert str(want.value).startswith("no chain from 0 to 6 within")
        with pytest.raises(SpaceError) as got:
            dynamical_plan(space, coupling)
        assert str(got.value) == str(want.value)

    def test_plan_without_chains_gives_zero_measures(self):
        space = euclidean_grid_1d(0.25).space
        mu = np.full(space.n, 1 / space.n)
        plan = DynamicalPlan(space, Coupling(np.diag(mu), mu, mu), {})
        interp = interpolate(plan, [0.0, 0.5])
        assert [m.tolist() for m in interp.measures] == [[0.0] * space.n] * 2
        assert {m.dtype for m in interp.measures} == {np.dtype(float)}


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
