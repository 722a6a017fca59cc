import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    couplings,
    euclidean_grid_1d,
    euclidean_grid_2d,
    random_quasi_metric,
    smooth_density_pair,
)
from oracles import (
    chain_loop_barycenters,
    loop_u_beta_functional,
    loop_u_functional,
    row_loop_grad_norms,
)
from qmspace import (
    Coupling,
    DistortionParams,
    MeasuredSpace,
    QuasiMetricSpace,
    SpaceError,
    TransportProblem,
    beta,
    bishop_gromov_profile,
    brunn_minkowski_check,
    cd_check,
    dcn_membership,
    entropy_nonlinearity,
    fisher_information,
    functional_inequality_suite,
    gaussian_line,
    grad_norms,
    power_nonlinearity,
    s_kn,
    u_beta_functional,
    u_functional,
    un_nonlinearity,
    wasserstein,
)
from qmspace import curvature
from qmspace.curvature import _barycenter_set, _model_volume
from qmspace.transport import default_hop_radius

INF = math.inf


@st.composite
def measured_spaces(draw):
    """Floyd-Warshall-closed random quasi-metrics, flat grids and Gaussian
    lines, uniformly weighted."""
    kind = draw(st.sampled_from(["random", "grid", "line"]))
    if kind == "random":
        space = random_quasi_metric(np.random.default_rng(draw(st.integers(0, 999))),
                                    draw(st.integers(2, 12)))
        return MeasuredSpace(space, np.full(space.n, 1.0 / space.n))
    if kind == "grid":
        return euclidean_grid_2d(draw(st.sampled_from([0.125, 0.2, 0.25, 0.5])))
    return gaussian_line(1.0, draw(st.floats(0.5, 3.0)), draw(st.floats(0.1, 0.5)))


class TestComparisonProfile:
    def test_flat_case_is_identity(self):
        for r in (0.0, 0.5, 2.0):
            assert s_kn(0.0, 3.0, r) == r

    def test_positive_curvature_sine(self):
        # K = N - 1 makes the profile plain sin(r)
        assert s_kn(3.0, 4.0, 1.2) == pytest.approx(math.sin(1.2))
        assert s_kn(1.0, 2.0, math.pi / 2) == pytest.approx(1.0)

    def test_negative_curvature_sinh(self):
        assert s_kn(-3.0, 4.0, 1.2) == pytest.approx(math.sinh(1.2))

    def test_cutoff_enforced(self):
        with pytest.raises(SpaceError):
            s_kn(1.0, 2.0, 4.0)  # past pi * sqrt((N-1)/K) = pi

    def test_needs_dimension_above_one(self):
        with pytest.raises(SpaceError):
            s_kn(1.0, 1.0, 0.5)

    def test_overflow_names_the_radius(self):
        # sinh(2000 / sqrt(2)) is past the float range
        with pytest.raises(SpaceError, match=re.escape(
                "s_kn overflows at radius 2000 (K=-1.0, N=3.0)")):
            s_kn(-1.0, 3.0, 2000.0)


class TestDistortionCoefficient:
    def test_flat_is_one(self):
        for t in (0.0, 0.3, 1.0):
            assert beta(DistortionParams(0.0, 5.0, t), 0.7) == 1.0

    def test_t_zero_is_one(self):
        assert beta(DistortionParams(2.0, 3.0, 0.0), 0.9) == 1.0

    def test_t_one_is_one(self):
        assert beta(DistortionParams(-2.0, 3.0, 1.0), 0.9) == 1.0
        assert beta(DistortionParams(2.0, 3.0, 1.0), 0.9) == 1.0

    def test_positive_curvature_cutoff(self):
        # distances at or past pi sqrt((N-1)/K) blow up
        cut = math.pi * math.sqrt(2.0 / 3.0)
        assert beta(DistortionParams(3.0, 3.0, 0.5), cut) == INF
        assert beta(DistortionParams(3.0, 3.0, 0.5), cut * 0.9) < INF

    def test_infinite_dimension_closed_form(self):
        K = 1.7
        for t in np.linspace(0.01, 1.0, 10):
            for d in np.linspace(0.0, 3.0, 10):
                want = math.exp(K * (1 - t * t) * d * d / 6.0)
                got = beta(DistortionParams(K, INF, float(t)), float(d))
                assert got == pytest.approx(want, rel=1e-12)

    def test_dimension_one_branches(self):
        assert beta(DistortionParams(2.0, 1.0, 0.5), 0.3) == INF
        assert beta(DistortionParams(-2.0, 1.0, 0.5), 0.3) == 1.0
        assert beta(DistortionParams(2.0, 1.0, 0.0), 0.3) == 1.0

    def test_finite_dimension_formula(self):
        K, N, t, d = -1.0, 4.0, 0.4, 1.1
        want = (s_kn(K, N, t * d) / (t * s_kn(K, N, d))) ** (N - 1)
        assert beta(DistortionParams(K, N, t), d) == pytest.approx(want)

    @pytest.mark.parametrize("K", [-1.0, 1.0])
    @pytest.mark.parametrize("d", [0.25, 0.5, 2.0])
    def test_subnormal_t_is_the_small_t_limit(self, K, d):
        # t d underflows to 0 (d = 0.25, 0.5) or to a subnormal (d = 2):
        # beta is then (d / s_kn(d))^(N-1), not 0/0 or 0
        want = d / (math.sin(d) if K > 0 else math.sinh(d))
        got = beta(DistortionParams(K, 2.0, 5e-324), d)
        assert got == pytest.approx(want, rel=1e-15)

    @pytest.mark.parametrize("K, N, d", [(1.0, INF, 100.0), (-1.0, 3.0, 2000.0)])
    def test_overflow_names_the_distance(self, K, N, d):
        # exp(1250) and sinh(2000 / sqrt(2)) are past the float range;
        # the coefficient itself is finite
        with pytest.raises(SpaceError, match=re.escape(
                f"distortion coefficient overflows at distance {d:g} "
                f"(K={K}, N={N}, t=0.5)")):
            beta(DistortionParams(K, N, 0.5), d)

    def test_monotone_in_curvature(self):
        # spreading slower than flat needs K < 0, faster needs K > 0
        lo = beta(DistortionParams(-2.0, 4.0, 0.5), 1.0)
        hi = beta(DistortionParams(2.0, 4.0, 0.5), 1.0)
        assert lo < 1.0 < hi


class TestNonlinearities:
    r_grid = np.geomspace(1e-6, 100.0, 200)

    def test_dimensional_family_membership(self):
        for N in (2.0, 5.0):
            rep = dcn_membership(un_nonlinearity(N), N, self.r_grid)
            assert rep.passed

    def test_entropy_membership_all_dimensions(self):
        H = entropy_nonlinearity()
        for N in (1.5, 2.0, 10.0, INF):
            assert dcn_membership(H, N, self.r_grid).passed

    def test_power_membership(self):
        U = power_nonlinearity(2.0)
        for N in (2.0, 7.0, INF):
            assert dcn_membership(U, N, self.r_grid).passed

    def test_dimensional_member_fails_larger_dimension(self):
        # U_2 sits on the boundary of the class for N = 2 and falls
        # outside for any larger dimension bound
        rep = dcn_membership(un_nonlinearity(2.0), 5.0, self.r_grid)
        assert not rep.passed

    def test_pressure_consistency(self):
        # p(r) = r U'(r) - U(r) must match the stored closed forms
        for U in (un_nonlinearity(3.0), entropy_nonlinearity(),
                  power_nonlinearity(2.5)):
            for r in (0.3, 1.0, 4.0):
                assert U.p(r) == pytest.approx(r * U.du(r) - U.u(r), rel=1e-9)

    def test_second_derivative_from_pressures(self):
        # U''(r) = (p2(r) + p(r)) / r^2, checked by finite differences
        for U in (un_nonlinearity(3.0), entropy_nonlinearity(),
                  power_nonlinearity(2.0)):
            for r in (0.5, 2.0):
                eps = 1e-5
                fd = (U.u(r + eps) - 2 * U.u(r) + U.u(r - eps)) / eps ** 2
                assert (U.p2(r) + U.p(r)) / r ** 2 == pytest.approx(fd, rel=1e-4)


class TestFunctionals:
    def test_entropy_of_uniform_is_zero(self):
        nu = np.full(4, 0.25)
        assert u_functional(entropy_nonlinearity(), nu, nu) == pytest.approx(0.0)

    def test_entropy_hand_value(self):
        nu = np.full(2, 0.5)
        mu = np.array([0.75, 0.25])
        want = 0.5 * (1.5 * math.log(1.5)) + 0.5 * (0.5 * math.log(0.5))
        assert u_functional(entropy_nonlinearity(), mu, nu) == pytest.approx(want)

    def test_singular_mass_conventions(self):
        nu = np.array([1.0, 0.0])
        mu = np.array([0.5, 0.5])
        assert u_functional(entropy_nonlinearity(), mu, nu) == INF
        # the dimensional family has finite slope at infinity: N
        got = u_functional(un_nonlinearity(2.0), mu, nu)
        U = un_nonlinearity(2.0)
        assert got == pytest.approx(U.u(0.5) + 2.0 * 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -0.5])
    def test_measures_must_be_finite_and_nonnegative(self, bad):
        U = entropy_nonlinearity()
        good = np.array([0.5, 0.5])
        for mu, nu in (([bad, 0.5], good), (good, [bad, 0.5])):
            with pytest.raises(SpaceError, match="finite and nonnegative"):
                u_functional(U, mu, nu)

    def test_measure_lengths_must_match(self):
        with pytest.raises(SpaceError, match="length"):
            u_functional(entropy_nonlinearity(), [0.5, 0.5], [1 / 3] * 3)

    def test_distorted_functional_flat_reduces_to_plain(self, rng):
        ms = euclidean_grid_1d(0.2)
        mu, nu_target = smooth_density_pair(ms, 4)
        _, coupling = wasserstein(
            TransportProblem(ms.space, mu, nu_target, 2.0))
        ref = ms.weights
        params = DistortionParams(0.0, 5.0, 0.3)
        U = entropy_nonlinearity()
        fwd = u_beta_functional(U, coupling, ms.space.dist, ref, params,
                                "forward")
        assert fwd == pytest.approx(u_functional(U, mu, ref), abs=1e-9)
        rev = u_beta_functional(U, coupling, ms.space.dist, ref, params,
                                "reversed")
        assert rev == pytest.approx(u_functional(U, nu_target, ref), abs=1e-9)

    def test_reversed_singular_mass_conventions(self):
        # the target marginal puts mass 0.5 on the nu-null atom 1
        d = np.array([[0.0, 1.0], [1.0, 0.0]])
        nu = np.array([1.0, 0.0])
        mu0 = np.array([1.0, 0.0])
        mu1 = np.array([0.5, 0.5])
        pi = Coupling(np.outer(mu0, mu1), mu0, mu1)
        params = DistortionParams(0.0, 2.0, 0.5)
        assert u_beta_functional(entropy_nonlinearity(), pi, d, nu, params,
                                 "reversed") == INF
        U = un_nonlinearity(2.0)
        got = u_beta_functional(U, pi, d, nu, params, "reversed")
        assert got == pytest.approx(U.u(0.5) + U.du_inf * 0.5)

    def test_distorted_functional_direction_validated(self):
        ms = euclidean_grid_1d(0.5)
        mu = np.zeros(ms.n)
        mu[0] = 1.0
        coupling = Coupling(np.diag(mu), mu, mu)
        with pytest.raises(SpaceError):
            u_beta_functional(entropy_nonlinearity(), coupling,
                              ms.space.dist, ms.weights,
                              DistortionParams(0.0, 2.0, 0.5), "sideways")

    def test_infinite_distortion_uses_zero_slope(self):
        # two points past the positive-curvature cutoff; entropy has
        # U'(0) = -inf so the distorted functional diverges to -inf
        d = np.array([[0.0, 5.0], [5.0, 0.0]])
        space = QuasiMetricSpace(d)
        nu = np.full(2, 0.5)
        mu0 = np.array([1.0, 0.0])
        mu1 = np.array([0.0, 1.0])
        pi = Coupling(np.outer(mu0, mu1), mu0, mu1)
        params = DistortionParams(2.0, 3.0, 0.5)
        got = u_beta_functional(entropy_nonlinearity(), pi, d, nu, params)
        assert got == -INF
        # power nonlinearities have finite slope at zero instead
        U = power_nonlinearity(2.0)
        got2 = u_beta_functional(U, pi, d, nu, params)
        assert got2 == pytest.approx(U.du0 * 1.0)


class TestFunctionalsMatchLoops:
    """``u_functional`` and ``u_beta_functional`` against their loops over
    numpy scalars in ``oracles``: the same float, bit for bit."""

    NONLINEARITIES = [entropy_nonlinearity(), un_nonlinearity(2.0),
                      un_nonlinearity(3.0), power_nonlinearity(1.5),
                      power_nonlinearity(2.0), power_nonlinearity(3.0)]

    @given(couplings(), st.sampled_from(NONLINEARITIES),
           st.sampled_from([-1.0, 0.0, 1.0]),
           st.sampled_from([2.0, 3.0, INF]),
           st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.floats(0.0, 1.0)),
           st.sampled_from(["forward", "reversed"]),
           st.sampled_from([1.0, 3.0]), st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_values_are_the_loops(self, case, U, K, N, t, direction, scale,
                                  seed):
        # distances times 3 put the pairs of most spaces past the cutoff
        # of K = 1 (beta = inf); zeroing some reference weights puts mass
        # on nu-null points (the singular branch)
        ms, coupling = case
        rng = np.random.default_rng(seed)
        nu = ms.weights * (rng.random(ms.n) < rng.uniform(0.5, 1.5))
        dist = ms.space.dist * scale
        params = DistortionParams(K, N, t)
        got = u_beta_functional(U, coupling, dist, nu, params, direction)
        want = loop_u_beta_functional(U, coupling, dist, nu, params, direction)
        assert got == want
        for mu in (coupling.mu, coupling.nu):
            assert u_functional(U, mu, nu) == loop_u_functional(U, mu, nu)

    @pytest.mark.parametrize("N", [2.0, 3.0])
    @pytest.mark.parametrize("direction", ["forward", "reversed"])
    def test_cutoff_branch_is_the_loops(self, N, direction):
        # the product coupling of a wide Gaussian line joins points
        # farther apart than the K = 1 model's diameter: beta = inf
        ms = gaussian_line(1.0, 4.0, 0.25)
        mu, nu = smooth_density_pair(ms, 2)
        pi = Coupling(np.outer(mu, nu), mu, nu)
        params = DistortionParams(1.0, N, 0.5)
        got = {}
        for U in self.NONLINEARITIES:
            got[U.name] = u_beta_functional(U, pi, ms.space.dist, ms.weights,
                                            params, direction)
            assert got[U.name] == loop_u_beta_functional(
                U, pi, ms.space.dist, ms.weights, params, direction)
        assert got["H"] == got["U_2"] == -INF
        assert math.isfinite(got["Power_2"])

    def test_beta_is_called_once_per_distance(self, monkeypatch):
        ms = euclidean_grid_2d(0.25)
        mu, nu = smooth_density_pair(ms, 1)
        pi = Coupling(np.outer(mu, nu), mu, nu)
        calls = []

        def counted(params, dxy):
            calls.append(dxy)
            return beta(params, dxy)

        monkeypatch.setattr(curvature, "beta", counted)
        params = DistortionParams(-1.0, 3.0, 0.5)
        got = u_beta_functional(entropy_nonlinearity(), pi, ms.space.dist,
                                ms.weights, params)
        assert sorted(calls) == sorted(set(ms.space.dist.ravel().tolist()))
        monkeypatch.undo()
        assert got == loop_u_beta_functional(entropy_nonlinearity(), pi,
                                             ms.space.dist, ms.weights, params)

    @pytest.mark.parametrize("direction", ["forward", "reversed"])
    def test_overflow_gives_the_loops_inf(self, direction):
        # beta(60) = exp(-450) about 1e-195 at K = -1, t = 1/2, so U(r/beta)
        # = (r/beta)^2 overflows: Python floats raise there, numpy scalars
        # give inf, and so does the functional
        mu, nu = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        pi = Coupling(np.outer(mu, nu), mu, nu)
        dist = np.array([[0.0, 60.0], [60.0, 0.0]])
        params = DistortionParams(-1.0, INF, 0.5)
        U = power_nonlinearity(2.0)
        got = u_beta_functional(U, pi, dist, [0.5, 0.5], params, direction)
        with np.errstate(all="ignore"):
            want = loop_u_beta_functional(U, pi, dist, [0.5, 0.5], params,
                                          direction)
        assert got == want == INF
        # a density of 5e159 overflows U the same way in u_functional
        with np.errstate(all="ignore"):
            want = loop_u_functional(U, [0.5, 0.5], [1e-160, 1.0])
        assert u_functional(U, [0.5, 0.5], [1e-160, 1.0]) == want == INF

    @pytest.mark.parametrize("U", NONLINEARITIES, ids=lambda U: U.name)
    def test_beta_underflow_names_the_distance(self, U):
        # beta(100) = exp(-1250) rounds to 0 at K = -1, t = 1/2; U(r/beta)
        # beta/r is then inf times 0, so the pair raises instead
        mu, nu = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        pi = Coupling(np.outer(mu, nu), mu, nu)
        dist = np.array([[0.0, 100.0], [100.0, 0.0]])
        assert beta(DistortionParams(-1.0, INF, 0.5), 100.0) == 0.0
        with pytest.raises(SpaceError, match="underflows to 0 at distance 100 "):
            u_beta_functional(U, pi, dist, [0.5, 0.5],
                              DistortionParams(-1.0, INF, 0.5))

    @pytest.mark.parametrize("K", [-1.0, 1.0])
    @pytest.mark.parametrize("N", [2.0, 3.0, INF])
    @pytest.mark.parametrize("direction", ["forward", "reversed"])
    def test_subnormal_t_is_the_loops(self, K, N, direction):
        # t = 5e-324 made t s_kn(t d) 0/0 in beta, or beta 0
        ms = euclidean_grid_2d(0.25)
        mu, nu = smooth_density_pair(ms, 3)
        pi = Coupling(np.outer(mu, nu), mu, nu)
        params = DistortionParams(K, N, 5e-324)
        for U in self.NONLINEARITIES:
            got = u_beta_functional(U, pi, ms.space.dist, ms.weights, params,
                                    direction)
            assert math.isfinite(got)
            assert got == loop_u_beta_functional(
                U, pi, ms.space.dist, ms.weights, params, direction)

    def test_nonlinearities_go_through_one_evaluator(self, monkeypatch):
        # every call of U, p and p2 in the module goes through _at
        calls = []

        def counted(f, r):
            calls.append(f)
            return at(f, r)

        at = curvature._at
        monkeypatch.setattr(curvature, "_at", counted)
        U = power_nonlinearity(2.0)
        mu = np.array([0.2, 0.8])
        pi = Coupling(np.outer(mu, mu), mu, mu)
        u_functional(U, mu, [0.5, 0.5])
        u_beta_functional(U, pi, np.array([[0.0, 1.0], [1.0, 0.0]]),
                          [0.5, 0.5], DistortionParams(-1.0, 3.0, 0.5))
        dcn_membership(U, 3.0, [0.5, 1.0])
        assert calls.count(U.u) == 2 + 4 + 3
        assert calls.count(U.p) == calls.count(U.p2) == 2


class TestCdCheck:
    def test_flat_grid_dimensional(self):
        ms = euclidean_grid_1d(0.1)
        mu0, mu1 = smooth_density_pair(ms, 0)
        reports = cd_check(ms, mu0, mu1, 0.0, 2.0, un_nonlinearity(2.0),
                           [0.25, 0.5, 0.75])
        assert len(reports) == 3
        assert all(r.passed for r in reports)

    def test_gaussian_line_entropy(self):
        ms = gaussian_line(1.0, 2.0, 0.2)
        mu0, mu1 = smooth_density_pair(ms, 1)
        reports = cd_check(ms, mu0, mu1, 1.0, INF, entropy_nonlinearity(),
                           [0.5])
        assert reports[0].passed

    @pytest.mark.parametrize("w", [1.0, 4.0])
    def test_gaussian_line_bumps(self, w):
        # ROADMAP item 2's headline probe: density bumps exp(-w (x +- 1)^2)
        # against the Gaussian weights; HiGHS's plan missed the marginals
        # ("coupling marginals do not match") at both widths
        ms = gaussian_line(1.0, 3.0, 0.1)
        x = ms.space.coords[:, 0]
        mu0, mu1 = (ms.weights * np.exp(-w * (x + s) ** 2) for s in (1.0, -1.0))
        reports = cd_check(ms, mu0 / mu0.sum(), mu1 / mu1.sum(), 1.0, INF,
                           entropy_nonlinearity(), [0.25, 0.5, 0.75])
        assert len(reports) == 3
        assert all(r.passed for r in reports)

    def test_no_certificate_phrasing(self):
        # an impossibly strong curvature claim on a flat grid must fail,
        # and the report says "no certificate", never "violation"
        ms = euclidean_grid_1d(0.05)
        mu0 = np.zeros(ms.n)
        mu1 = np.zeros(ms.n)
        mu0[:3] = 1 / 3
        mu1[-3:] = 1 / 3
        reports = cd_check(ms, mu0, mu1, 200.0, INF, entropy_nonlinearity(),
                           [0.5])
        bad = [r for r in reports if not r.passed]
        assert bad
        for r in bad:
            assert r.details["certificate"] == "no certificate"
            assert "violation" not in str(r.details)

    def test_one_point_space_raises(self):
        # no out-neighbour, so no pitch and no finite tolerance
        ms = MeasuredSpace(QuasiMetricSpace(np.zeros((1, 1))), np.ones(1))
        with pytest.raises(SpaceError, match="at least 2 points"):
            cd_check(ms, [1.0], [1.0], 0.0, INF, entropy_nonlinearity(),
                     [0.5])


class TestBrunnMinkowski:
    def test_one_dimensional_intervals(self):
        # grid intervals: the flat N=1 bound is the classical measure
        # inequality for Minkowski-type interpolation of intervals
        ms = euclidean_grid_1d(0.05)
        xs = ms.space.coords[:, 0]
        A0 = list(np.nonzero(xs <= 0.2 + 1e-9)[0])
        A1 = list(np.nonzero(xs >= 0.7 - 1e-9)[0])
        rep = brunn_minkowski_check(ms, A0, A1, 0.5, 0.0, 1.0)
        assert rep.passed
        # interval arithmetic oracle: barycenters fill [(a0+b0)/2 range]
        lo = 0.5 * (xs[A0].min() + xs[A1].min())
        hi = 0.5 * (xs[A0].max() + xs[A1].max())
        bary = np.array(rep.details["barycenter_set"])
        assert np.all(xs[bary] >= lo - 1e-9)
        assert np.all(xs[bary] <= hi + 1e-9)

    def test_infinite_dimension_log_form(self):
        ms = gaussian_line(1.0, 1.5, 0.1)
        n = ms.n
        A0 = list(range(0, 4))
        A1 = list(range(n - 4, n))
        rep = brunn_minkowski_check(ms, A0, A1, 0.5, 1.0, INF)
        assert rep.passed

    def test_t_range_checked(self):
        ms = euclidean_grid_1d(0.2)
        with pytest.raises(SpaceError):
            brunn_minkowski_check(ms, [0], [ms.n - 1], 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("A0, A1", [([-1], [0]), ([0], [-1]),
                                        ([15], [0]), ([0, 1], [3, 15]),
                                        ([1.5], [0])])
    def test_endpoint_index_out_of_range_raises(self, A0, A1):
        # [-1] was read as the last point and passed; [n] raised numpy's
        # IndexError; [1.5] was read as [1]
        ms = gaussian_line(1.0, 1.5, 0.2)
        assert ms.n == 15
        with pytest.raises(SpaceError, match="index out of range"):
            brunn_minkowski_check(ms, A0, A1, 0.5, 1.0, INF)

    def test_empty_endpoint_set_raises(self):
        ms = gaussian_line(1.0, 1.5, 0.2)
        with pytest.raises(SpaceError, match="empty"):
            brunn_minkowski_check(ms, [0], [], 0.5, 1.0, INF)

    @given(measured_spaces(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_barycenters_match_chain_loop(self, ms, data):
        # the support of mu_t is bitwise the set of chain e_t points
        index = st.integers(0, ms.n - 1)
        A0 = data.draw(st.lists(index, min_size=1, max_size=6))
        A1 = data.draw(st.lists(index, min_size=1, max_size=6))
        t = data.draw(st.floats(0.01, 0.99))
        try:
            want = chain_loop_barycenters(ms, sorted(set(A0)), sorted(set(A1)), t)
        except SpaceError as exc:  # no chain within tolerance
            with pytest.raises(SpaceError, match=re.escape(str(exc))):
                _barycenter_set(ms, A0, A1, t)
            return
        got, B0, B1 = _barycenter_set(ms, A0, A1, t)
        assert got == want
        assert list(B0) == sorted(set(A0)) and list(B1) == sorted(set(A1))


class TestBishopGromov:
    def test_flat_grid_profile_nonincreasing(self):
        ms = euclidean_grid_2d(0.125)
        center = int(np.argmin(
            np.linalg.norm(ms.space.coords - [0.5, 0.5], axis=1)))
        radii = np.linspace(0.15, 0.5, 10)
        rep = bishop_gromov_profile(ms, center, 0.0, 2.0, radii)
        assert rep.passed

    def test_counting_oracle(self):
        ms = euclidean_grid_2d(0.25)
        center = int(np.argmin(
            np.linalg.norm(ms.space.coords - [0.5, 0.5], axis=1)))
        radii = [0.3, 0.45]
        rep = bishop_gromov_profile(ms, center, 0.0, 2.0, radii)
        d = ms.space.dist[center]
        for r, val in zip(radii, rep.details["profile"]):
            mass = ms.weights[d <= r].sum()
            assert val == pytest.approx(mass / (r ** 2 / 2.0))

    @pytest.mark.parametrize("K, volume", [
        # N = 3: s_kn^2 integrates in closed form
        (1.0, lambda r: r - math.sin(math.sqrt(2) * r) / math.sqrt(2)),
        (-1.0, lambda r: math.sinh(math.sqrt(2) * r) / math.sqrt(2) - r),
    ])
    def test_curved_model_volume(self, K, volume):
        ms = euclidean_grid_2d(0.25)
        center = int(np.argmin(
            np.linalg.norm(ms.space.coords - [0.5, 0.5], axis=1)))
        radii = [0.3, 0.45]
        rep = bishop_gromov_profile(ms, center, K, 3.0, radii)
        d = ms.space.dist[center]
        for r, val in zip(radii, rep.details["profile"]):
            mass = ms.weights[d <= r].sum()
            assert val == pytest.approx(mass / volume(r), rel=1e-9)

    @pytest.mark.parametrize("N", [1.05, 1.5, 2.0, 2.5, 4.0, 7.0])
    @pytest.mark.parametrize("K", [-2.0, -0.5, 0.5, 2.0])
    def test_model_volume_matches_quad(self, K, N):
        from scipy.integrate import quad

        top = math.pi * math.sqrt((N - 1) / K) if K > 0 else 2.5
        for r in np.linspace(0.0, top, 6)[1:]:
            want, err = quad(lambda s: s_kn(K, N, s) ** (N - 1), 0.0, r,
                             epsabs=1e-12, epsrel=1e-12)
            assert err < 1e-10 * max(1.0, want)
            assert _model_volume(K, N, r) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("N", [1.001, 1.01, 1.05, 1.5, 3.0, 7.0])
    @pytest.mark.parametrize("K", [0.5, 2.0])
    def test_model_volume_up_to_the_cutoff(self, K, N):
        # to the cutoff pi / c the integral is a Beta function:
        # c^-N integral_0^pi sin^(N-1) = c^-N sqrt(pi) G(N/2) / G((N+1)/2)
        c = math.sqrt(K / (N - 1))
        whole = (c ** -N * math.sqrt(math.pi) * math.gamma(N / 2)
                 / math.gamma((N + 1) / 2))
        assert _model_volume(K, N, math.pi / c) == pytest.approx(whole, rel=1e-13)
        # and the integrand mirrors itself about pi / (2c)
        half = _model_volume(K, N, math.pi / (2 * c))
        assert half == pytest.approx(whole / 2, rel=1e-13)

    @pytest.mark.parametrize("K", [-1.0, 0.0, 1.0])
    def test_negative_radius_raises(self, K):
        ms = euclidean_grid_2d(0.25)
        with pytest.raises(SpaceError, match="nonnegative"):
            bishop_gromov_profile(ms, 0, K, 3.0, [-0.1, 0.3])

    def test_model_volume_raises_when_orders_disagree(self, monkeypatch):
        # N = 20, K = -10: the integral is about 4e13; orders 4 and 8 miss
        # it by far more than 1e-8 relative
        monkeypatch.setattr(curvature, "VOLUME_ORDERS", (4, 8))
        with pytest.raises(SpaceError, match="did not converge"):
            _model_volume(-10.0, 20.0, 3.0)

    def test_flat_volume_overflow_names_the_radius(self):
        # 1000^200 is past the float range
        ms = euclidean_grid_2d(0.25)
        with pytest.raises(SpaceError, match=re.escape(
                "model volume overflows at radius 1000 (K=0.0, N=200.0)")):
            bishop_gromov_profile(ms, 0, 0.0, 200.0, [10.0, 1000.0])

    def test_model_volume_raises_on_overflow(self):
        # sinh(r / 20)^399 overflows: inf must not pass as a volume
        with pytest.raises(SpaceError, match="did not converge"):
            _model_volume(-1.0, 400.0, 100.0)

    @pytest.mark.parametrize("N", [1.001, 1.05, 1.5, 3.0, 7.0, 12.0])
    @pytest.mark.parametrize("K", [-2.0, -0.5, 0.5, 2.0])
    def test_large_model_volumes_converge(self, K, N):
        # volumes up to 2.9e20 (K = -2, N = 12, r = 10) and 8.4e7 (K = 0.5,
        # N = 12, at the cutoff): the orders agree relative to the volume
        from scipy.integrate import quad

        top = math.pi * math.sqrt((N - 1) / K) if K > 0 else 10.0
        for r in np.linspace(0.0, top, 9)[1:]:
            want = quad(lambda s: s_kn(K, N, s) ** (N - 1), 0.0, r,
                        epsabs=0.0, epsrel=1e-12, limit=200)[0]
            assert _model_volume(K, N, r) == pytest.approx(want, rel=1e-8)

    @pytest.mark.parametrize("K", [0.0, 1.0])
    def test_no_radius_raises(self, K):
        # K > 0 raised IndexError; K = 0 passed with an empty profile
        ms = gaussian_line(1.0, 1.0, 0.1)
        with pytest.raises(SpaceError, match="at least one radius"):
            bishop_gromov_profile(ms, 0, K, 3.0, [])

    def test_radii_must_increase(self):
        ms = euclidean_grid_2d(0.25)
        with pytest.raises(SpaceError):
            bishop_gromov_profile(ms, 0, 0.0, 2.0, [0.4, 0.2])

    def test_positive_curvature_cutoff(self):
        ms = euclidean_grid_2d(0.25)
        with pytest.raises(SpaceError):
            bishop_gromov_profile(ms, 0, 100.0, 2.0, [0.1, 1.0])


class TestGradients:
    def test_linear_function_slopes(self):
        ms = euclidean_grid_1d(0.1)
        f = ms.space.coords[:, 0].copy()
        grad, grad_minus, isolated = grad_norms(ms, f, 0.15)
        assert np.allclose(grad, 1.0)
        assert grad_minus[0] == 0.0  # leftmost point has no descent
        assert np.allclose(grad_minus[1:], 1.0)
        assert isolated == []

    def test_isolated_points_flagged(self):
        d = np.array([[0.0, 1.0, 9.0], [1.0, 0.0, 9.0], [9.0, 9.0, 0.0]])
        ms = MeasuredSpace(QuasiMetricSpace(d), np.full(3, 1 / 3))
        grad, gm, isolated = grad_norms(ms, np.array([0.0, 1.0, 2.0]), 2.0)
        assert isolated == [2]
        assert grad[2] == 0.0

    def test_positive_diagonal_is_not_a_hop(self):
        # i -> i is no hop, so point 2, whose only entry below the radius
        # is d(2, 2), is isolated
        d = np.array([[0.5, 1.0, 9.0], [1.0, 0.0, 9.0], [9.0, 9.0, 0.5]])
        ms = MeasuredSpace(QuasiMetricSpace(d), np.full(3, 1 / 3))
        assert grad_norms(ms, np.array([0.0, 1.0, 2.0]), 2.0)[2] == [2]

    @given(measured_spaces(), st.floats(0.4, 2.0), st.integers(0, 999), st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_row_loop(self, ms, scale, seed, data):
        # a radius at a point's nearest-neighbor distance isolates it
        nearest = (ms.space.dist + np.diag(np.full(ms.n, INF))).min(axis=1)
        radius = data.draw(st.sampled_from([scale * default_hop_radius(ms.space),
                                            *nearest]))
        f = np.random.default_rng(seed).normal(size=ms.n)
        grad, gm, isolated = row_loop_grad_norms(ms, f, radius)
        if len(isolated) == ms.n:
            with pytest.raises(SpaceError, match="no point has a neighbor"):
                grad_norms(ms, f, radius)
            return
        got = grad_norms(ms, f, radius)
        assert np.array_equal(got[0], grad) and np.array_equal(got[1], gm)
        assert got[2] == isolated

    def test_all_isolated_raises(self):
        d = np.array([[0.0, 9.0], [9.0, 0.0]])
        ms = MeasuredSpace(QuasiMetricSpace(d), np.full(2, 0.5))
        with pytest.raises(SpaceError):
            grad_norms(ms, np.array([0.0, 1.0]), 1.0)

    def test_fisher_information_hand_value(self):
        ms = euclidean_grid_1d(0.5)  # three points
        rho = np.array([1.5, 1.0, 0.5])
        # descending slopes: point 0 -> 1 drop 0.5/0.5 = 1; point 1 -> 2
        # drop 1; point 2 has no lower neighbor
        got = fisher_information(ms, rho, 0.75)
        w = ms.weights
        want = (1.0 / 1.5) * w[0] + (1.0 / 1.0) * w[1]
        assert got == pytest.approx(want)


class TestInputChecks:
    """Every measure entering curvature passes core._measure, and every
    test function is checked for its length and for finite values."""

    BAD = {"negative": lambda n: -np.ones(n),
           "nan": lambda n: np.r_[np.nan, np.ones(n - 1)],
           "longer": lambda n: np.ones(n + 1)}
    MATCH = {"negative": "nonnegative", "nan": "finite", "longer": "length"}

    @staticmethod
    def _line():
        return gaussian_line(1.0, 1.0, 0.25)

    # each gave inf, inf and a numpy broadcast error
    @pytest.mark.parametrize("bad", ["negative", "nan", "longer"])
    def test_distorted_functional_reference(self, bad):
        ms = self._line()
        w = ms.weights / ms.weights.sum()
        pi = Coupling(np.diag(w), w, w)
        with pytest.raises(SpaceError, match=self.MATCH[bad]):
            u_beta_functional(entropy_nonlinearity(), pi, ms.space.dist,
                              self.BAD[bad](ms.n), DistortionParams(1.0, 3.0, 0.5))

    # each gave 0.0 and an IndexError
    @pytest.mark.parametrize("bad", ["negative", "longer"])
    def test_fisher_information_density(self, bad):
        ms = self._line()
        with pytest.raises(SpaceError, match=self.MATCH[bad]):
            fisher_information(ms, self.BAD[bad](ms.n),
                               default_hop_radius(ms.space))

    # the longer f was read up to its n-th entry, the NaN one accepted
    @pytest.mark.parametrize("bad", ["longer", "nan"])
    def test_grad_norms_function(self, bad):
        ms = self._line()
        with pytest.raises(SpaceError, match=self.MATCH[bad]):
            grad_norms(ms, self.BAD[bad](ms.n), default_hop_radius(ms.space))


BOUND_CALLS = ["DistortionParams", "cd_check", "brunn_minkowski_check",
               "bishop_gromov_profile", "functional_inequality_suite"]
BAD_BOUNDS = [(0.0, np.nan, "N must be >= 1"), (np.nan, 3.0, "K must be finite"),
              (np.nan, INF, "K must be finite"), (-INF, INF, "K must be finite")]


class TestCurvatureBounds:
    """Every routine that takes a curvature bound K and a dimension bound
    N checks them once (``curvature._bounds``): K finite, N >= 1 or inf."""

    @staticmethod
    def _call(name, K, N):
        ms = gaussian_line(1.0, 1.0, 0.25)
        mu0, mu1 = smooth_density_pair(ms, 0)
        if name == "DistortionParams":
            return DistortionParams(K, N, 0.5)
        if name == "cd_check":
            return cd_check(ms, mu0, mu1, K, N, entropy_nonlinearity(), [0.5])
        if name == "brunn_minkowski_check":
            return brunn_minkowski_check(ms, [0], [ms.n - 1], 0.5, K, N)
        if name == "bishop_gromov_profile":
            return bishop_gromov_profile(ms, 0, K, N, [0.5, 1.0])
        return functional_inequality_suite(ms, K, N, mu=mu0)

    # each was accepted: DistortionParams(0, nan, 0.5) gave beta 1.0,
    # cd_check passed, and the others reported NaN (bishop_gromov_profile
    # raised that its quadrature did not converge; it needs a finite N)
    @pytest.mark.parametrize("name, K, N, match", [
        (name, *bad) for name in BOUND_CALLS for bad in BAD_BOUNDS
        if not (name == "bishop_gromov_profile" and bad[1] == INF)])
    def test_bad_bounds_raise(self, name, K, N, match):
        with pytest.raises(SpaceError, match=match):
            self._call(name, K, N)

    @pytest.mark.parametrize("K", [np.nan, INF, -INF])
    def test_comparison_profile_checks_the_curvature(self, K):
        # NaN gave NaN
        with pytest.raises(SpaceError, match="K must be finite"):
            s_kn(K, 2.0, 0.5)

    def test_infinite_dimension_is_allowed(self):
        assert DistortionParams(1.0, INF, 0.5).N == INF
        assert beta(DistortionParams(0.0, INF, 0.5), 1.0) == 1.0

    @pytest.mark.parametrize("N", [np.nan, 0.5])
    def test_dcn_membership_checks_the_dimension(self, N):
        with pytest.raises(SpaceError, match="N must be >= 1"):
            dcn_membership(entropy_nonlinearity(), N, [0.5, 1.0])

    def test_dcn_membership_needs_a_grid(self):
        # gave a numpy ValueError
        with pytest.raises(SpaceError, match="must not be empty"):
            dcn_membership(un_nonlinearity(2.0), 2.0, [])


class TestInequalitySuite:
    def test_gaussian_line_all_pass(self):
        ms = gaussian_line(1.0, 2.5, 0.1)
        mu, _ = smooth_density_pair(ms, 7)
        rng = np.random.default_rng(7)
        f = rng.standard_normal(ms.n)
        reports = functional_inequality_suite(ms, 1.0, INF, mu=mu, f=f)
        names = [r.name for r in reports]
        assert any("log_sobolev" in n for n in names)
        assert any("poincare" in n for n in names)
        assert any("lichnerowicz" in n for n in names)
        assert all(r.passed for r in reports)

    def test_diameter_gate_stops_suite(self):
        # a long flat segment cannot satisfy a strong positive bound
        ms = euclidean_grid_1d(0.5, 0.0, 10.0)
        reports = functional_inequality_suite(ms, 5.0, 3.0, mu=ms.weights)
        assert len(reports) == 1
        assert reports[0].name.startswith("diameter")
        assert not reports[0].passed
        assert reports[0].details["gate"]

    def test_test_function_needs_positive_curvature(self):
        ms = euclidean_grid_1d(0.2)
        with pytest.raises(SpaceError):
            functional_inequality_suite(ms, -1.0, INF, f=np.zeros(ms.n))

    @pytest.mark.parametrize("bad, match", [
        (lambda n: np.full(n, np.nan), "finite"),
        (lambda n: np.r_[np.ones(n - 1), np.inf], "finite"),
        (lambda n: np.ones(n - 1), "length"),
        (lambda n: np.ones((n, 1)), "length"),
    ])
    def test_test_function_checked(self, bad, match):
        # all-NaN f gave NaN Poincare and Lichnerowicz reports; a wrong
        # length failed in numpy's matmul
        ms = gaussian_line(1.0, 2.0, 0.2)
        with pytest.raises(SpaceError, match=match):
            functional_inequality_suite(ms, 1.0, INF, f=bad(ms.n))

    def test_test_function_of_any_sign(self):
        ms = gaussian_line(1.0, 2.0, 0.2)
        f = -np.arange(ms.n, dtype=float)
        assert functional_inequality_suite(ms, 1.0, INF, f=f)

    def test_constant_function_trivially_passes(self):
        ms = gaussian_line(1.0, 2.0, 0.2)
        reports = functional_inequality_suite(ms, 1.0, INF,
                                              f=np.ones(ms.n))
        for r in reports:
            if "poincare" in r.name or "lichnerowicz" in r.name:
                assert r.lhs == pytest.approx(0.0)
                assert r.passed

    def test_lichnerowicz_constant_finite_dimension(self):
        ms = gaussian_line(1.0, 2.0, 0.2)
        reports = functional_inequality_suite(ms, 1.0, 5.0,
                                              f=np.ones(ms.n))
        lich = [r for r in reports if "lichnerowicz" in r.name][0]
        assert lich.details["constant"] == pytest.approx(4.0 / 5.0)
