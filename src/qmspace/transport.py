"""Exact optimal transport with asymmetric costs on finite spaces.

The order-p transport distance uses the asymmetric cost d(x, y)^p and is
itself a quasi-metric on probability vectors.  Solves are exact linear
programs with a post-solve complementary-slackness certificate; order-1
problems also expose the Kantorovich-Rubinstein dual over asymmetric
1-Lipschitz potentials f(y) - f(x) <= d(x, y).

Every LP goes through ``linprog``, which hands the model to the HiGHS
bindings that scipy ships, with the options that
``scipy.optimize.linprog(method="highs")`` sets, and so takes the same
pivots and returns the same plan, duals and value as that call with
presolve on.  ``_solve_lp`` turns presolve off on the transport LPs that
it does not expect presolve to reduce (every mass above HiGHS's
feasibility tolerance, at least three rows and columns).  On every such
LP measured (HiGHS 1.12), presolve left the LP unreduced and the pivots
and bits were the same with presolve on or off.  The
constraint matrix is built with numpy, and the bindings' extension module
is loaded from its file in scipy's ``optimize/_highspy`` directory, so a
solve imports neither ``scipy.optimize`` nor ``scipy.sparse``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .core import (
    FunctionalReport,
    MeasuredSpace,
    QuasiMetricSpace,
    SpaceError,
    _measure,
    _pitch,
    dijkstra,
)

__all__ = [
    "TransportProblem",
    "Coupling",
    "DynamicalPlan",
    "Interpolation",
    "wasserstein",
    "kr_dual",
    "asymmetry_bound_check",
    "dynamical_plan",
    "interpolate",
    "geodesy_check",
    "default_hop_radius",
]

MARGINAL_TOL = 1e-9
MASS_TOL = 1e-12
#: HiGHS's primal_feasibility_tolerance: presolve turns the row of a
#: mass at or below it into a forcing row
PRESOLVE_MASS = 1e-7
DUALITY_TOL = 1e-7
CHAIN_TOL = 0.5
#: slack allowed in asymmetry_bound_check
ASYMMETRY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class TransportProblem:
    """Source/target probability vectors over one space, with order p."""

    space: QuasiMetricSpace
    mu: np.ndarray
    nu: np.ndarray
    p: float = 1.0

    def __post_init__(self):
        mu = _measure(self.mu, self.space.n, "mu")
        nu = _measure(self.nu, self.space.n, "nu")
        if abs(mu.sum() - 1.0) > MASS_TOL or abs(nu.sum() - 1.0) > MASS_TOL:
            raise SpaceError("marginals must sum to 1")
        if not 1 <= self.p < np.inf:  # also false for NaN
            raise SpaceError("order p must be finite and >= 1")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)


@dataclass(frozen=True, eq=False)
class Coupling:
    """Nonnegative joint matrix with prescribed marginals."""

    matrix: np.ndarray
    mu: np.ndarray
    nu: np.ndarray

    def __post_init__(self):
        pi = np.asarray(self.matrix, dtype=float)
        if np.any(pi < -MARGINAL_TOL):
            raise SpaceError("coupling must be nonnegative")
        if (np.abs(pi.sum(axis=1) - self.mu).max() > MARGINAL_TOL
                or np.abs(pi.sum(axis=0) - self.nu).max() > MARGINAL_TOL):
            raise SpaceError("coupling marginals do not match")
        object.__setattr__(self, "matrix", np.maximum(pi, 0.0))


@dataclass(frozen=True, eq=False)
class DynamicalPlan:
    """Coupling plus a near-shortest directed chain for each support pair."""

    space: QuasiMetricSpace
    coupling: Coupling
    chains: dict  # (i, j) -> tuple of point indices


@dataclass(frozen=True, eq=False)
class Interpolation:
    """Probability vectors mu_t along a dynamical plan."""

    ts: tuple
    measures: tuple  # of np.ndarray


#: the canonical name of scipy's HiGHS extension module
HIGHS_MODULE = "scipy.optimize._highspy._core"


def _highs():
    """scipy's HiGHS extension module, loaded without ``scipy.optimize``.

    Takes the module from ``sys.modules`` if it is there.  Otherwise loads
    the extension file from scipy's ``optimize/_highspy`` directory and
    registers it under its canonical name before running it, so a later
    ``import scipy.optimize`` finds and uses this same module.  This
    relies on scipy's private file layout, hence the scipy >= 1.17 pin.
    """
    module = sys.modules.get(HIGHS_MODULE)
    if module is None:
        scipy_dir, = importlib.util.find_spec("scipy").submodule_search_locations
        base = os.path.join(scipy_dir, "optimize", "_highspy", "_core")
        path = next(base + suffix
                    for suffix in importlib.machinery.EXTENSION_SUFFIXES
                    if os.path.exists(base + suffix))
        spec = importlib.util.spec_from_file_location(HIGHS_MODULE, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[HIGHS_MODULE] = module
        spec.loader.exec_module(module)
    return module


class _CSC(NamedTuple):
    """A column-compressed matrix with the attributes that ``linprog``
    reads and that scipy's sparse matrices share."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    @property
    def nnz(self) -> int:
        return len(self.data)

    def tocsc(self):
        return self


def _highs_model(c, a, b_eq, presolve: bool):
    """A HiGHS instance holding min c @ x, a @ x = b_eq, x >= 0 (a in
    column-compressed form), with the options ``linprog`` sets."""
    highspy = _highs()
    m, n = a.shape
    highs = highspy._Highs()
    highs.setOptionValue("presolve", "on" if presolve else "off")
    highs.setOptionValue("simplex_strategy", int(
        highspy.simplex_constants.SimplexStrategy.kSimplexStrategyDual))
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("log_to_console", False)
    # the last array is the integrality of each column: all continuous
    highs.passModel(n, m, a.nnz, int(highspy.MatrixFormat.kColwise),
                    int(highspy.ObjSense.kMinimize), 0.0, c, np.zeros(n),
                    np.full(n, highspy.kHighsInf), b_eq, b_eq, a.indptr,
                    a.indices, a.data, np.zeros(n, dtype=np.int32))
    return highs


def linprog(c, *, A_eq, b_eq, presolve=True):
    """Minimize c @ x subject to A_eq @ x = b_eq and x >= 0 with HiGHS.

    Sets what ``scipy.optimize.linprog(method="highs")`` sets (presolve
    on, dual simplex, no output) and leaves every other option at its
    default, so the pivots, x, row duals (``eqlin.marginals``), objective
    and ``nit`` are those of that call.  ``presolve=False`` turns presolve
    off, as scipy's ``options={"presolve": False}`` does; on an LP that
    presolve leaves unreduced the answer is bitwise the same either way.
    It skips scipy's loop over every column that builds bound duals,
    which no caller reads.

    A_eq is anything whose ``tocsc()`` has ``indptr``, ``indices``,
    ``data``, ``shape`` and ``nnz``: a scipy sparse matrix, or the arrays
    ``_solve_lp`` builds.  Only HiGHS's extension module is loaded
    (``_highs``), not ``scipy.optimize``.

    ``success`` is True when HiGHS finds the model optimal; otherwise
    ``message`` is HiGHS's model status.  A non-finite cost fails before
    HiGHS runs, because HiGHS calls such a model optimal.
    """
    highspy = _highs()
    a = A_eq.tocsc()
    m, n = a.shape
    c = np.asarray(c, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    if c.shape != (n,) or b_eq.shape != (m,):
        raise ValueError(f"c and b_eq must have shapes ({n},) and ({m},)")
    if not np.isfinite(c).all():
        return SimpleNamespace(success=False, message="non-finite cost", nit=0)

    highs = _highs_model(c, a, b_eq, presolve)
    highs.run()
    status, info = highs.getModelStatus(), highs.getInfo()
    res = SimpleNamespace(success=status == highspy.HighsModelStatus.kOptimal,
                          message=highs.modelStatusToString(status),
                          nit=info.simplex_iteration_count)
    if res.success:
        sol = highs.getSolution()
        res.x = np.array(sol.col_value)
        res.fun = info.objective_function_value
        res.eqlin = SimpleNamespace(marginals=np.array(sol.row_dual))
    return res


def _solve_lp(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray):
    """Exact transportation LP; returns (optimal value, plan matrix, psi).

    psi is the c-transform of the row duals u over every column,
    psi[j] = min over rows with mass of cost[i, j] - u[i].

    HiGHS presolves only an LP that presolve is known to reduce: one
    with a mass at or below PRESOLVE_MASS (a forcing row) or with at
    most two rows or columns (singleton and doubleton rows).  That every
    other LP comes out of presolve unreduced is measured, not proven: on
    every LP tested (``TestPresolveRule`` and every seed-0 LP of the
    perfbench workloads, HiGHS 1.12), presolve left it unreduced and
    skipping it gave bitwise the same answer.  Two tests guard this
    across HiGHS upgrades, ``test_threshold_is_highs_feasibility_tolerance``
    and ``test_skipping_presolve_changes_nothing``; the certificate below
    checks the answer either way.
    """
    keep_r = np.nonzero(mu > 0)[0]
    keep_c = np.nonzero(nu > 0)[0]
    c = cost[np.ix_(keep_r, keep_c)]
    a, b = mu[keep_r], nu[keep_c]
    nr, nc = len(a), len(b)

    # row sums, then column sums; the last column constraint is redundant.
    # Column k = i * nc + j has a 1 in row i and, for j < nc - 1, in row
    # nr + j, so k // nc columns with one entry come before column k.
    k = np.arange(nr * nc + 1, dtype=np.int32)
    rows = np.empty((nr, nc, 2), dtype=np.int32)
    rows[..., 0] = np.arange(nr)[:, None]
    rows[..., 1] = nr + np.arange(nc)
    indices = rows.reshape(nr, 2 * nc)[:, :-1].ravel()
    eq = _CSC(2 * k - k // nc, indices, np.ones(len(indices)),
              (nr + nc - 1, nr * nc))
    presolve = bool(min(nr, nc) <= 2 or min(a.min(), b.min()) <= PRESOLVE_MASS)
    res = linprog(c.ravel(), A_eq=eq, b_eq=np.concatenate([a, b[:-1]]),
                  presolve=presolve)
    if not res.success:
        raise SpaceError(f"transport LP failed: {res.message}")
    plan_small = res.x.reshape(nr, nc)

    # complementary-slackness certificate from the equality duals
    duals = np.asarray(res.eqlin.marginals)
    u = duals[:nr]
    v = np.concatenate([duals[nr:], [0.0]])
    reduced = c - u[:, None] - v[None, :]
    if reduced.min() < -1e-7:
        raise SpaceError("LP optimality certificate failed: negative reduced cost")
    if np.abs(plan_small * reduced).max() > 1e-6:
        raise SpaceError("LP optimality certificate failed: slackness violated")

    plan = np.zeros_like(cost)
    plan[np.ix_(keep_r, keep_c)] = plan_small
    psi = (cost[keep_r] - u[:, None]).min(axis=0)
    return float(res.fun), plan, psi


def wasserstein(prob: TransportProblem) -> tuple[float, Coupling]:
    """Order-p transport distance and an optimal coupling (exact LP)."""
    if np.allclose(prob.mu, prob.nu, rtol=0, atol=MASS_TOL):
        return 0.0, Coupling(np.diag(prob.mu), prob.mu, prob.nu)
    cost = prob.space.dist ** prob.p
    value, plan, _ = _solve_lp(cost, prob.mu, prob.nu)
    # clean tiny negative / marginal drift from the solver
    plan = np.maximum(plan, 0.0)
    return float(max(value, 0.0) ** (1.0 / prob.p)), Coupling(plan, prob.mu, prob.nu)


def kr_dual(prob: TransportProblem) -> tuple[float, np.ndarray]:
    """Kantorovich-Rubinstein dual of an order-1 problem.

    The potential psi is the c-transform of the transport LP's row
    duals, shifted so that psi[0] = 0, and the value is
    sum(psi * (nu - mu)).  psi is 1-Lipschitz only when d satisfies the
    triangle inequality, so the answer is certified before it is
    returned: psi[j] - psi[i] <= d(i, j) on every pair, and the value
    equals the primal optimum, both to DUALITY_TOL times the largest
    distance.  Otherwise SpaceError is raised.
    """
    if prob.p != 1:
        raise SpaceError("the Kantorovich-Rubinstein dual requires p = 1")
    d = prob.space.dist
    primal, _, psi = _solve_lp(d, prob.mu, prob.nu)
    psi -= psi[0]  # fix the constant gauge
    dual = float(psi @ (prob.nu - prob.mu))
    tol = DUALITY_TOL * d.max()
    violation = (psi[None, :] - psi[:, None] - d).max()
    if violation > tol:
        raise SpaceError(f"dual potential violates a constraint by {violation:.3g}")
    if abs(dual - primal) > tol:
        raise SpaceError(f"dual value {dual:.12g} differs from primal {primal:.12g}")
    return dual, psi


def asymmetry_bound_check(mspace: MeasuredSpace, mu, nu, p: float, q: float,
                          theta_fn) -> FunctionalReport:
    """Check the reversed-order transport bound against the theta bound.

    Compares W_q(nu, mu) with Theta(W_p(delta_star, mu) + W_p(mu, nu))
    times W_p(mu, nu).  Requires 1 <= q <= p and a basepoint.
    """
    if q > p:
        raise SpaceError("requires q <= p")
    if mspace.basepoint is None:
        raise SpaceError("measured space needs a basepoint")
    space = mspace.space
    delta = np.zeros(space.n)
    delta[mspace.basepoint] = 1.0

    w_p_star_mu, _ = wasserstein(TransportProblem(space, delta, mu, p))
    w_p_mu_nu, _ = wasserstein(TransportProblem(space, mu, nu, p))
    w_q_nu_mu, _ = wasserstein(TransportProblem(space, nu, mu, q))

    theta = float(theta_fn(w_p_star_mu + w_p_mu_nu))
    rhs = theta * w_p_mu_nu
    slack = rhs - w_q_nu_mu
    return FunctionalReport(
        name=f"asymmetry_bound[p={p:g},q={q:g}]",
        lhs=w_q_nu_mu, rhs=rhs, slack=slack, passed=slack >= -ASYMMETRY_TOL,
        tolerance=ASYMMETRY_TOL,
        details={
            "theta": theta,
            "w_p_star_mu": w_p_star_mu,
            "w_p_mu_nu": w_p_mu_nu,
            "p": p,
            "q": q,
        },
    )


def default_hop_radius(space: QuasiMetricSpace) -> float:
    """1.5x the largest nearest-out-neighbor distance: every point can hop."""
    return 1.5 * _pitch(space)


def dynamical_plan(space: QuasiMetricSpace, coupling: Coupling) -> DynamicalPlan:
    """Attach a near-shortest directed chain to every support pair.

    Chains live on the hop graph of forward distances below
    default_hop_radius(space); a pair whose best chain exceeds
    d(i, j) * (1 + CHAIN_TOL) means the sampling is not approximately
    geodesic at this resolution and raises.  Each chain is a shortest one
    from ``dijkstra``: where several are equally short, every point's
    predecessor is the tight one with the least distance from i, then the
    lowest index (``dijkstra`` documents the rule in full).  The search
    from i stops at the largest bound of its pairs.
    """
    d = space.dist
    pi = coupling.matrix
    sources = np.nonzero(pi.sum(axis=1) > MASS_TOL)[0]
    support = pi[sources] > MASS_TOL
    bound = d[sources] * (1 + CHAIN_TOL) + MASS_TOL
    radius = default_hop_radius(space)
    dist_out, pred = dijkstra(d, radius, sources,
                              np.where(support, bound, 0.0).max(axis=1, initial=0.0),
                              return_predecessors=True)
    chains = {}
    for si, j in zip(*np.nonzero(support)):
        i = sources[si]
        if not dist_out[si, j] <= bound[si, j]:
            # the search above stops at the bound; the message gives the
            # best chain, so search once more without one
            best = dijkstra(d, radius, [i])[0, j]
            raise SpaceError(
                f"no chain from {i} to {j} within tolerance: best "
                f"{best:.6g} vs direct {d[i, j]:.6g}"
            )
        path = [int(j)]
        while path[-1] != i:
            if len(path) > space.n:
                raise SpaceError(f"chain from {i} to {j} does not end at {i}")
            path.append(int(pred[si, path[-1]]))
        chains[(int(i), int(j))] = tuple(reversed(path))
    return DynamicalPlan(space, coupling, chains)


def _chain_vertices(d: np.ndarray, chain: tuple, ts) -> list:
    """For each t, the chain vertex whose cumulative length is nearest to
    t * (total length), ties to the earlier vertex."""
    c = np.asarray(chain)
    cum = np.concatenate([[0.0], np.cumsum(d[c[:-1], c[1:]])])
    idx = np.abs(cum[None, :] - np.asarray(ts)[:, None] * cum[-1]).argmin(axis=1)
    return [chain[k] for k in idx]


def interpolate(plan: DynamicalPlan, ts) -> Interpolation:
    """Push the plan mass along chains: mu_t sits at the chain vertex
    whose cumulative length is nearest to t * (total length), ties to
    the earlier vertex."""
    ts = [float(t) for t in ts]
    for t in ts:
        if not 0.0 <= t <= 1.0:
            raise SpaceError(f"interpolation time {t} outside [0, 1]")
    n = plan.space.n
    d = plan.space.dist
    measures = [np.zeros(n) for _ in ts]
    pi = plan.coupling.matrix
    for (i, j), chain in plan.chains.items():
        for m, v in zip(measures, _chain_vertices(d, chain, ts)):
            m[v] += pi[i, j]
    return Interpolation(tuple(ts), tuple(measures))


def geodesy_check(space: QuasiMetricSpace, interp: Interpolation,
                  p: float = 2.0) -> FunctionalReport:
    """Residual of the constant-speed property along an interpolation.

    Compares W_p(mu_s, mu_t) with (t - s) * W_p(mu_0, mu_1) over all
    sampled time pairs; reports the worst absolute and relative residual.
    Passes when the worst residual is at most 3 * pitch, the error chain
    quantization can cause at this sampling.
    """
    ts = interp.ts
    ms = interp.measures
    order = np.argsort(ts)
    ts = [ts[i] for i in order]
    ms = [ms[i] for i in order]
    w = {(a, b): wasserstein(TransportProblem(space, ms[a], ms[b], p))[0]
         for a in range(len(ts)) for b in range(a + 1, len(ts))}
    base = w.get((0, len(ts) - 1), 0.0)  # one time: W_p(mu, mu) = 0
    span = ts[-1] - ts[0]
    worst = 0.0
    for (a, b), w_ab in w.items():
        frac = (ts[b] - ts[a]) / span if span > 0 else 0.0
        worst = max(worst, abs(w_ab - frac * base))
    rel = worst / base if base > 0 else 0.0
    tol = 3.0 * _pitch(space)
    return FunctionalReport(
        name=f"geodesy[p={p:g}]",
        lhs=worst, rhs=0.0, slack=-worst, passed=worst <= tol, tolerance=tol,
        details={"abs_residual": worst, "rel_residual": rel, "w_endpoints": base},
    )
