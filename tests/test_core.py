import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_quasi_metric
from oracles import csgraph_chains, least_tight_hops, row_scan_triangle_violations
from qmspace import (
    BallSpec,
    FunkBall,
    MeasuredSpace,
    QuasiMetricSpace,
    SampleSpec,
    SpaceError,
    ThetaBound,
    ball,
    bishop_gromov_profile,
    capacity,
    covering_number,
    diameter,
    doubling_constant,
    gaussian_line,
    gh_bracket,
    induced_length_metric,
    midpoint_defect,
    path_length,
    reversibility,
    sample,
    symmetrize,
    validate,
)
from qmspace import core
from qmspace.core import dijkstra
from qmspace.transport import default_hop_radius


def line_space(xs):
    xs = np.asarray(xs, dtype=float)
    return QuasiMetricSpace(np.abs(xs[:, None] - xs[None, :]), coords=xs[:, None])


class TestValidate:
    def test_valid_metric_passes(self):
        space = line_space([0.0, 1.0, 2.5])
        rep = validate(space)
        assert rep.passed
        assert rep.details["triangle_violations"] == []

    def test_triangle_violation_listed(self):
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        rep = validate(QuasiMetricSpace(d), tol=1e-9)
        assert not rep.passed
        assert (0, 1, 2) in rep.details["triangle_violations"]

    def test_negative_entry_listed(self):
        d = np.array([[0.0, -1.0], [1.0, 0.0]])
        rep = validate(QuasiMetricSpace(d))
        assert not rep.passed
        assert (0, 1) in rep.details["negative_entries"]

    def test_zero_offdiagonal_listed(self):
        d = np.array([[0.0, 0.0], [1.0, 0.0]])
        rep = validate(QuasiMetricSpace(d))
        assert not rep.passed
        assert (0, 1) in rep.details["zero_offdiagonal"]

    def test_nonzero_diagonal_listed(self):
        d = np.array([[0.5, 1.0], [1.0, 0.0]])
        rep = validate(QuasiMetricSpace(d))
        assert not rep.passed
        assert 0 in rep.details["nonzero_diagonal"]

    def test_nonfinite_raises(self):
        d = np.array([[0.0, np.inf], [1.0, 0.0]])
        with pytest.raises(SpaceError):
            validate(QuasiMetricSpace(d))

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_closures_always_valid(self, seed):
        r = np.random.default_rng(seed)
        space = random_quasi_metric(r, 6)
        assert validate(space, tol=1e-9).passed

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
        assert set(rep.details["triangle_violations"]) == expected
        assert expected  # the plant actually broke something

    def test_certified_rows_keep_the_full_scan_list(self):
        # on integer line distances every sum is exact: row 2 falls short
        # by exactly tol (not listed), row 3 by one ulp more (listed)
        n, tol = 8, 0.25
        d = line_space(np.arange(n)).dist.copy()
        d[0, 3] += 2.0
        d[4, 6] += 1.0
        d[n - 1, 2] += 3.0
        d[2, 5] += tol
        d[3, 6] = np.nextafter(d[3, 6] + tol, np.inf)
        rep = validate(QuasiMetricSpace(d), tol=tol)
        expected = row_scan_triangle_violations(d, tol)
        assert rep.details["triangle_violations"] == expected
        rows = {i for i, _, _ in expected}
        assert rows == {0, 3, 4, n - 1}
        assert (3, 5, 6) in expected

    def test_violation_list_order_on_random_breaks(self, rng):
        for n in (1, 2, 5, 9):
            d = random_quasi_metric(rng, n).dist.copy()
            d[rng.integers(0, n, size=3), rng.integers(0, n, size=3)] *= 1.7
            rep = validate(QuasiMetricSpace(d), tol=1e-9)
            want = row_scan_triangle_violations(d, 1e-9)
            assert rep.details["triangle_violations"] == want

    @pytest.mark.parametrize("tol", [-1e-9, np.nan, np.inf])
    def test_tolerance_must_be_finite_and_nonnegative(self, tol):
        # a negative tol lists (0, 0, 0); a NaN tol lists nothing
        d = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 1.0], [5.0, 1.0, 0.0]])
        with pytest.raises(SpaceError, match="tolerance"):
            validate(QuasiMetricSpace(d), tol=tol)

    def test_zero_tolerance_accepted(self):
        rep = validate(line_space([0.0, 1.0, 2.5]), tol=0.0)
        assert rep.passed

    def test_lhs_is_the_least_tolerance_that_validates(self, rng):
        # a planted triangle shortfall and a nonzero diagonal entry: each
        # sets lhs in turn, and the matrix validates exactly from lhs on
        d = random_quasi_metric(rng, 6).dist.copy()
        d[1, 4] = d.max() * 3
        for diag in (0.0, 10.0):
            d[2, 2] = diag
            rep = validate(QuasiMetricSpace(d), tol=1e-9)
            assert rep.name == "validate"
            assert rep.lhs > 1e-9
            assert (rep.rhs, rep.slack, rep.tolerance) == (0.0, -rep.lhs, 1e-9)
            assert validate(QuasiMetricSpace(d), tol=rep.lhs).passed
            assert not validate(QuasiMetricSpace(d),
                                tol=np.nextafter(rep.lhs, 0.0)).passed
        assert rep.lhs == 10.0

    @pytest.mark.parametrize("entry", [0.0, -1.0])
    def test_lhs_is_inf_on_a_nonpositive_offdiagonal_entry(self, entry):
        d = line_space([0.0, 1.0, 2.5]).dist.copy()
        d[0, 1] = entry
        rep = validate(QuasiMetricSpace(d), tol=1e-6)
        assert rep.lhs == np.inf and rep.slack == -np.inf
        assert not rep.passed


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


#: entries of the "flat" hop problems: hops of 1e-17 are below half an
#: ulp of 1, so chains through them can tie with their first hop
FLAT_ENTRIES = [1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 2.0,
                1e-17, 3e-17]


@st.composite
def hop_problems(draw):
    """A grid, a Gaussian line, a Funk sample or a matrix with hops below
    half an ulp of the chain lengths; a hop radius, sources and a limit."""
    kind = draw(st.sampled_from(["grid", "line", "funk", "flat"]))
    if kind == "flat":
        n = draw(st.integers(2, 7))
        d = np.array(draw(st.lists(st.sampled_from(FLAT_ENTRIES),
                                   min_size=n * n, max_size=n * n))).reshape(n, n)
        np.fill_diagonal(d, 0.0)
        space = QuasiMetricSpace(d)
    elif kind == "grid":
        pitch = draw(st.floats(0.01, 2.0))
        xs = pitch * np.arange(draw(st.integers(1, 14)))
        ys = draw(st.floats(0.5, 2.0)) * pitch * np.arange(draw(st.integers(1, 14)))
        pts = np.array([(x, y) for x in xs for y in ys])
        space = QuasiMetricSpace(
            np.linalg.norm(pts[:, None] - pts[None, :], axis=2))
    elif kind == "line":
        space = gaussian_line(1.0, draw(st.floats(0.1, 3.0)),
                              draw(st.floats(0.02, 0.5))).space
    else:
        strategy = draw(st.sampled_from(["grid", "radial-shells",
                                         "seeded-uniform"]))
        if strategy == "grid":
            spec = SampleSpec(pitch=draw(st.floats(0.12, 0.4)))
        else:
            spec = SampleSpec(strategy=strategy, count=draw(st.integers(2, 90)),
                              seed=draw(st.integers(0, 999)),
                              clip_radius=draw(st.floats(0.3, 1.5)))
        space = sample(FunkBall(2), spec).space
    n = space.n
    radius = (2.0 * space.dist.max() if n == 1 else
              draw(st.floats(1.0, 3.0)) * default_hop_radius(space))
    sources = draw(st.one_of(st.none(), st.lists(
        st.integers(0, n - 1), min_size=1, max_size=8)))
    limit = draw(st.one_of(st.just(np.inf), st.floats(0.0, 1.5).map(
        lambda f: f * space.dist.max())))
    return space.dist, radius, sources, limit


def assert_predecessor_tree(d, radius, dist, pred, sources):
    """Every point's predecessor is a tight hop into it, and following them
    reaches the source."""
    for a, source in enumerate(sources):
        for j in np.flatnonzero((dist[a] > 0) & (dist[a] < np.inf)):
            k = pred[a, j]
            assert 0 < d[k, j] < radius and k != j
            assert dist[a, k] + d[k, j] == dist[a, j]
            path = [j]
            while path[-1] != source:
                assert len(path) <= len(d), (a, j, path)
                path.append(pred[a, path[-1]])


class TestDijkstra:
    """``core.dijkstra`` against scipy's Dijkstra (``oracles.csgraph_chains``)
    and the predecessor rule (``oracles.least_tight_hops``)."""

    @given(hop_problems())
    @settings(max_examples=160, deadline=None)
    def test_matches_csgraph(self, problem):
        d, radius, sources, limit = problem
        dist, pred = dijkstra(d, radius, sources, limit, return_predecessors=True)
        want, want_pred = csgraph_chains(d, radius, sources, limit)
        assert dijkstra(d, radius, sources, limit).tobytes() == dist.tobytes()
        assert dist.tobytes() == want.tobytes()
        rows = np.arange(d.shape[0]) if sources is None else sources
        lowest, count = least_tight_hops(d, radius, dist, rows)
        strict = count > 0
        np.testing.assert_array_equal(pred[strict], lowest[strict])
        unique = count == 1
        np.testing.assert_array_equal(pred[unique], want_pred[unique])
        reached = (dist > 0) & (dist < np.inf)
        assert ((pred == -1) == ~reached).all()
        assert_predecessor_tree(d, radius, dist, pred, rows)

    def test_hops_below_half_an_ulp_keep_a_tree(self):
        # from S, B is at 1 and C and E at 1 + 1e-17 = 1: each of C and E
        # has tight hops from the other and from B, all at distance 1.
        # "Least distance, then lowest index" alone would make C and E
        # each other's predecessor, and the chains from S would not end
        E, C, B, S = 0, 1, 2, 3
        d = np.ones((4, 4))
        np.fill_diagonal(d, 0.0)
        d[S, C] = d[S, E] = np.nextafter(1.0, 2.0)
        for a, b in itertools.permutations([B, C, E], 2):
            d[a, b] = 1e-17
        space = QuasiMetricSpace(d)
        assert validate(space).passed
        radius = default_hop_radius(space)
        dist, pred = dijkstra(d, radius, return_predecessors=True)
        want, want_pred = csgraph_chains(d, radius)
        assert dist.tobytes() == want.tobytes()
        assert dist[S].tolist() == [1.0, 1.0, 1.0, 0.0]
        np.testing.assert_array_equal(pred, np.where(want_pred < 0, -1, want_pred))
        assert pred[S].tolist() == [B, B, S, -1]
        assert_predecessor_tree(d, radius, dist, pred, range(4))

    def test_per_source_limits(self):
        space = sample(FunkBall(2), SampleSpec(strategy="radial-shells",
                                               count=60, seed=3)).space
        d, radius = space.dist, default_hop_radius(space)
        limits = [0.0, 0.3, np.inf, 1.0]
        dist = dijkstra(d, radius, [5, 0, 17, 5], limits)
        for row, source, limit in zip(dist, [5, 0, 17, 5], limits):
            want, _ = csgraph_chains(d, radius, [source], limit)
            assert row.tobytes() == want[0].tobytes()

    def test_equal_length_chains_take_the_lowest_index(self):
        # a unit square: 0 -> 3 through 1 or through 2, both of length 2
        d = np.array([[0.0, 1.0, 1.0, 1.5], [1.0, 0.0, 1.5, 1.0],
                      [1.0, 1.5, 0.0, 1.0], [1.5, 1.0, 1.0, 0.0]])
        dist, pred = dijkstra(d, 1.2, [0], return_predecessors=True)
        assert dist.tolist() == [[0.0, 1.0, 1.0, 2.0]]
        assert pred.tolist() == [[-1, 0, 0, 1]]

    def test_funk_grid_ties(self):
        # the 57-point Funk grid has exact ties: some points have two
        # tight in-hops at the same distance, where the rule decides
        space = sample(FunkBall(2), SampleSpec(strategy="grid", pitch=0.15)).space
        d, radius = space.dist, default_hop_radius(space)
        dist, pred = dijkstra(d, radius, return_predecessors=True)
        want, want_pred = csgraph_chains(d, radius)
        assert dist.tobytes() == want.tobytes()
        lowest, count = least_tight_hops(d, radius, dist, np.arange(space.n))
        assert (count > 1).sum() > 0
        np.testing.assert_array_equal(pred, lowest)

    def test_small_blocks_give_the_same_chains(self, monkeypatch):
        space = sample(FunkBall(2), SampleSpec(strategy="seeded-uniform",
                                               count=80, seed=5)).space
        d, radius = space.dist, 2.0 * default_hop_radius(space)
        args = d, radius, [3, 1, 4, 1, 5], [0.5, np.inf, 1.0, 2.0, 0.0], True
        want = dijkstra(*args)
        monkeypatch.setattr(core, "_HOP_BLOCK", 3)
        got = dijkstra(*args)
        assert got[0].tobytes() == want[0].tobytes()
        np.testing.assert_array_equal(got[1], want[1])

    def test_nonpositive_entries_are_not_hops(self):
        d = np.array([[0.0, 0.0, 2.0], [-1.0, 0.0, 1.0], [3.0, 1.0, 0.0]])
        dist, pred = dijkstra(d, 1.5, return_predecessors=True)
        assert dist.tolist() == [[0.0, np.inf, np.inf],
                                 [np.inf, 0.0, 1.0], [np.inf, 1.0, 0.0]]
        assert pred.tolist() == [[-1, -1, -1], [-1, -1, 1], [-1, 2, -1]]
        # all pairs without predecessors take scipy's path: the same hops
        assert dijkstra(d, 1.5).tobytes() == dist.tobytes()


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        space = line_space([0.0, 1.0])
        with pytest.raises(SpaceError, match="finite and nonnegative"):
            MeasuredSpace(space, np.array([1.0, bad]))

    def test_coincident_funk_points_rejected(self):
        # the Gram-form Funk matrix is NaN off the diagonal for two
        # coincident points; the space refuses it instead of carrying it
        pts = np.zeros((2, 2))
        with pytest.raises(SpaceError, match="non-finite entries"):
            QuasiMetricSpace(FunkBall(2).distance_matrix(pts))

    def test_normalized(self):
        space = line_space([0.0, 1.0])
        ms = MeasuredSpace(space, np.array([1.0, 3.0])).normalized()
        assert np.allclose(ms.weights, [0.25, 0.75])

    def test_subspace(self):
        space = random_quasi_metric(np.random.default_rng(0), 5)
        sub = space.subspace([0, 2, 4])
        assert sub.n == 3
        assert sub.dist[0, 1] == space.dist[0, 2]


#: a space on which each entry point below misread a bad index (-1 as
#: point 2, 1.5 as point 1) or raised numpy's IndexError (3)
S3 = QuasiMetricSpace([[0.0, 1.0, 5.0], [2.0, 0.0, 1.0], [1.0, 3.0, 0.0]])

#: each entry point of ``core`` that takes point indices, with one index i
#: among valid ones (hausdorff, PointMap and brunn_minkowski_check have
#: theirs in test_ghdist and test_curvature)
INDEX_ENTRY_POINTS = {
    "reversibility": lambda i: reversibility(S3, [i, 0]),
    "path_length": lambda i: path_length(S3, [0, i]),
    "midpoint_defect": lambda i: midpoint_defect(S3, i, 0),
    "subspace": lambda i: S3.subspace([0, i]),
    "ball": lambda i: ball(S3, BallSpec(i, 1.0)),
    "basepoint": lambda i: MeasuredSpace(S3, np.ones(3), basepoint=i),
    "dijkstra": lambda i: dijkstra(S3.dist, 2.0, [i]),
}


@pytest.mark.parametrize("bad", [-1, 3, 1.5])
@pytest.mark.parametrize("entry", sorted(INDEX_ENTRY_POINTS))
def test_bad_point_index_raises(entry, bad):
    with pytest.raises(SpaceError, match="index out of range"):
        INDEX_ENTRY_POINTS[entry](bad)


NAN = float("nan")

#: each guard on a parameter, called with NaN, which passed ``x <= 0``
#: and ``x < lo`` guards
NAN_GUARDS = {
    "covering_number": lambda: covering_number(S3, NAN),
    "capacity": lambda: capacity(S3, NAN),
    "ball_radius": lambda: ball(S3, BallSpec(0, NAN)),
    "doubling_constant": lambda: doubling_constant(
        MeasuredSpace(S3, np.ones(3)), [NAN]),
    "bishop_gromov_profile": lambda: bishop_gromov_profile(
        gaussian_line(1.0, 1.5, 0.2), 4, 0.0, 2.0, [NAN, 0.5]),
    "theta_bound_value": lambda: ThetaBound(((1.0, NAN), (2.0, 3.0))),
    "theta_bound_radius": lambda: ThetaBound(((NAN, 2.0),)),
    "gh_bracket_theta": lambda: gh_bracket(S3, S3, theta=NAN),
}


@pytest.mark.parametrize("guard", sorted(NAN_GUARDS))
def test_nan_parameter_raises(guard):
    with pytest.raises(SpaceError):
        NAN_GUARDS[guard]()


#: each place a value enters ``core``, given what is no array of numbers
#: or not of the shape it names; numpy raised TypeError or ValueError
MALFORMED = {
    "dist_dict": lambda: QuasiMetricSpace({"a": 1}),
    "dist_ragged": lambda: QuasiMetricSpace([[0.0, 1.0], [1.0]]),
    "coords_dict": lambda: QuasiMetricSpace(S3.dist, coords={"a": 1}),
    "coords_rows": lambda: QuasiMetricSpace(S3.dist, coords=np.zeros((2, 2))),
    "weights_dict": lambda: MeasuredSpace(S3, {"a": 1}),
    "weights_word": lambda: MeasuredSpace(S3, ["a", "b", "c"]),
    "basepoint_list": lambda: MeasuredSpace(S3, np.ones(3), basepoint=[0]),
}


@pytest.mark.parametrize("entry", sorted(MALFORMED))
def test_malformed_value_raises(entry):
    with pytest.raises(SpaceError):
        MALFORMED[entry]()
