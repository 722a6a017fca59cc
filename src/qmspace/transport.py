"""Exact optimal transport with asymmetric costs on finite spaces.

The order-p transport distance uses the asymmetric cost d(x, y)^p and is
itself a quasi-metric on probability vectors.  Solves are exact linear
programs with a post-solve complementary-slackness certificate; order-1
problems also expose the Kantorovich-Rubinstein dual over asymmetric
1-Lipschitz potentials f(y) - f(x) <= d(x, y).

Every LP goes through ``_solve_lp``, which drops the points without
mass, hands the rest to ``_transport_lp`` (its docstring gives the
routes, each of which returns an ``_Optimum``) and certifies the answer.
An order-1 LP first tries ``_metric_lp``, which moves only the mass
that must move.
HiGHS runs through ``linprog``, with the options of
``scipy.optimize.linprog(method="highs")`` and presolve off.  The
constraints are built with numpy, and the extension module of the HiGHS
bindings that scipy ships is loaded from its file, so a solve imports
neither ``scipy.optimize`` nor ``scipy.sparse``.
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
    _sorted_set,
    _tolerance,
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
#: HiGHS's dual_feasibility_tolerance: at its default the dense LP stops
#: once no cell prices below minus this
_HIGHS_DUAL_TOL = 1e-7
#: _solve_lp's certificate refuses a reduced cost below minus this
_REDUCED_TOL = 1e-7
DUALITY_TOL = 1e-7
#: column generation starts from this many cheapest cells per row and
#: per column; adds a cell whose reduced cost, relative to the largest
#: cost, is below -_CG_ENTER; and accepts a plan whose cells off its tree
#: all have relative reduced costs above _CG_UNIQUE.  HiGHS solves its
#: LPs to _CG_HIGHS_TOL: with its default 1e-7 it stops with cells in
#: the LP priced down to -4e-8 (400-point Funk samples), which no
#: pricing round can add and which fail the acceptance test.  HiGHS
#: rejects 1e-12 (status kError) and takes 1e-10.  An attempt that has
#: not stopped adding cells after _CG_ROUNDS restricted LPs is given up
#: (Funk samples of 100 to 1200 points stop after 1 to 6).  On 200- and
#: 300-point Funk samples at p = 1, 2 and 3, a start of 12 cells took 3
#: to 5 solves where 8 took 4 to 6, in about the same time; 16 would keep
#: more than 10% of the cells of the 200-point LPs, 12 keeps 8.1-8.5%.
_CG_NEAREST = 12
_CG_ENTER = 1e-12
_CG_UNIQUE = 1e-9
_CG_HIGHS_TOL = 1e-10
_CG_ROUNDS = 16
CHAIN_TOL = 0.5
#: slack allowed in asymmetry_bound_check
ASYMMETRY_TOL = _tolerance("asymmetry_bound")


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
        path = next((base + suffix
                     for suffix in importlib.machinery.EXTENSION_SUFFIXES
                     if os.path.exists(base + suffix)), None)
        if path is None:
            raise ImportError(
                f"scipy's HiGHS extension {base}.* was not found; qmspace "
                "needs the file layout of scipy >= 1.17, which ships it in "
                "scipy/optimize/_highspy")
        spec = importlib.util.spec_from_file_location(HIGHS_MODULE, path)
        module = importlib.util.module_from_spec(spec)
        sys.modules[HIGHS_MODULE] = module
        spec.loader.exec_module(module)
    return module


class _CSC(NamedTuple):
    """A column-compressed matrix: the constraints ``linprog`` reads."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple

    @property
    def nnz(self) -> int:
        return len(self.data)


class _Optimum(NamedTuple):
    """A transport LP's optimum: its value, the nr x nc plan, the row
    duals u (nr entries) and the column duals v (nc entries, v[-1] = 0),
    with u[i] + v[j] <= c[i, j] and equality where the plan is not 0.
    ``basis`` is column generation's accepted tree: its cells (indices
    i * nc + j) and the int8 ``linprog`` statuses of the LP's rows; None
    on the other routes."""

    value: float
    plan: np.ndarray
    u: np.ndarray
    v: np.ndarray
    basis: tuple | None = None


def _highs_model(c, a: _CSC, b_eq, tolerance=None):
    """A HiGHS instance holding min c @ x, a @ x = b_eq, x >= 0, with the
    options ``linprog`` sets."""
    highspy = _highs()
    m, n = a.shape
    highs = highspy._Highs()
    highs.setOptionValue("presolve", "off")
    if tolerance is not None:
        highs.setOptionValue("primal_feasibility_tolerance", tolerance)
        highs.setOptionValue("dual_feasibility_tolerance", tolerance)
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


def linprog(c, *, A_eq: _CSC, b_eq, basis=None, tolerance=None, model=None):
    """Minimize c @ x subject to A_eq @ x = b_eq and x >= 0 with HiGHS.

    Sets what ``scipy.optimize.linprog(method="highs", options={"presolve":
    False})`` sets (presolve off, dual simplex, no output) and leaves
    every other option at its default, so the pivots, x, row duals
    (``eqlin.marginals``), objective and ``nit`` are those of that call.
    It skips scipy's loop over every column that builds bound duals,
    which no caller reads.  ``tolerance``, if given, replaces HiGHS's
    primal and dual feasibility tolerances (both 1e-7 by default).

    A_eq is a ``_CSC``, as ``_transport_csc`` builds it.  Only HiGHS's
    extension module is loaded (``_highs``), not ``scipy.optimize``.

    ``success`` is True when HiGHS finds the model optimal; otherwise
    ``message`` is HiGHS's model status.  An optimal result also has
    ``basis``, the (column, row) statuses of the optimal basis as int8
    arrays of HiGHS's codes: 0 at the lower bound, 1 basic, 2 at the
    upper bound.  ``basis`` in that form starts the simplex from it
    instead of from HiGHS's crash basis.

    An optimal result also has ``model``, the HiGHS instance that solved
    it.  Passed back as ``model``, it is solved again with c and A_eq as
    new columns appended after its own (b_eq must be its right-hand side,
    and the model keeps its tolerance options): HiGHS keeps its optimal
    basis and factorization, with the new columns nonbasic at 0, which
    stays primal feasible, and the primal simplex starts from there.  The
    instance is changed in place, so the earlier result's ``model`` then
    holds the larger LP.  ``x`` and ``basis`` cover every column of it,
    and ``nit`` counts this solve's pivots only.
    """
    highspy = _highs()
    m, n = A_eq.shape
    c = np.asarray(c, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    if c.shape != (n,) or b_eq.shape != (m,):
        raise ValueError(f"c and b_eq must have shapes ({n},) and ({m},)")

    if model is not None:
        highs = model
        highs.setOptionValue("simplex_strategy", int(
            highspy.simplex_constants.SimplexStrategy.kSimplexStrategyPrimal))
        status = highs.addCols(n, c, np.zeros(n), np.full(n, highspy.kHighsInf),
                               A_eq.nnz, A_eq.indptr[:-1], A_eq.indices,
                               A_eq.data)
        if status == highspy.HighsStatus.kError:
            return SimpleNamespace(success=False, message="addCols failed", nit=0)
        n = highs.getNumCol()
    else:
        highs = _highs_model(c, A_eq, b_eq, tolerance)
    if basis is not None:
        codes = highspy.HighsBasisStatus
        lookup = [codes.kLower, codes.kBasic, codes.kUpper]
        start = highspy.HighsBasis()
        start.col_status = [lookup[k] for k in basis[0].tolist()]
        start.row_status = [lookup[k] for k in basis[1].tolist()]
        highs.setBasis(start)
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
        # every column has bounds [0, inf), so a nonbasic one is at 0;
        # reading col_status instead would convert n enums one by one
        _, basic = highs.getBasicVariables()
        cols = np.zeros(n, dtype=np.int8)
        cols[basic[basic >= 0]] = 1
        rows = np.array([int(k) for k in highs.getBasis().row_status],
                        dtype=np.int8)
        res.basis = (cols, rows)
        res.model = highs
    return res


def _transport_csc(nr: int, nc: int, cells=None) -> _CSC:
    """The equality constraints of the nr x nc transportation LP: row
    sums, then column sums but the last, which is redundant (``_duals``
    reads a solution's duals in this order).

    One column per cell k = i * nc + j of ``cells``, in that order (every
    cell, in order, if None): a 1 in row i and, for j < nc - 1, in row
    nr + j.
    """
    k = (np.arange(nr * nc, dtype=np.int32) if cells is None
         else np.asarray(cells, dtype=np.int32))
    i = k // nc
    j = k - i * nc
    last = j == nc - 1
    indices = np.delete(np.stack([i, nr + j], axis=1).ravel(),
                        2 * np.flatnonzero(last) + 1)
    indptr = np.zeros(len(k) + 1, dtype=np.int32)
    np.cumsum(2 - last, out=indptr[1:])
    return _CSC(indptr, indices, np.ones(len(indices)), (nr + nc - 1, len(k)))


def _duals(res, nr: int):
    """The duals (u, v) of a ``linprog`` result on ``_transport_csc``'s
    rows: u of the nr row sums, then v of the column sums, with v[-1] = 0
    for the last column, which has no row."""
    y = res.eqlin.marginals
    return y[:nr], np.append(y[nr:], 0.0)


def _transport_lp(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> _Optimum:
    """The ``_Optimum`` of min <c, x> over x >= 0 with row sums a and
    column sums b (all positive); SpaceError if HiGHS finds none.

    A strictly Monge cost (``_strictly_monge``; every cost with one row
    or column is one) goes to ``_monge_lp``'s closed form.

    Any other LP first drops its forcing rows (masses at or below
    PRESOLVE_MASS; nu's last entry has no row) and their columns, as
    HiGHS presolve would.  What is left goes to ``_column_generation``
    (after the shortlist method of Gottschlich and Schuhmacher 2014)
    where ``_tries_column_generation`` says so.  An accepted plan is the
    answer if no forcing row was dropped; otherwise ``_forcing_basis``
    completes its tree as HiGHS's postsolve would, and ``_basis_lp``
    solves the LP over that basis's columns.

    In every other case the full LP goes to ``_dense_lp`` once, without a
    start basis: tied costs (whose optimum is rarely unique: cd-check's
    grids), an attempt that is refused or not tried, a reduced LP that
    the attempt finds infeasible (the dropped masses of mu outweigh those
    of nu and nu's last mass by more than _CG_HIGHS_TOL), and a completed
    basis that ``_basis_lp`` does not find optimal for the full LP.  HiGHS
    presolve never runs.  ``_solve_lp``'s certificate checks every route.
    """
    if _strictly_monge(c):
        return _monge_lp(c, a, b)
    keep_r = a > PRESOLVE_MASS
    keep_c = np.append(b[:-1] > PRESOLVE_MASS, True)
    kept = c[np.ix_(keep_r, keep_c)]
    opt = (_column_generation(kept, a[keep_r], b[keep_c])
           if _tries_column_generation(kept) else None)
    if opt is not None and not (keep_r.all() and keep_c.all()):
        opt = _basis_lp(c, a, b, *_forcing_basis(c, opt, keep_r, keep_c))
    return _dense_lp(c, a, b) if opt is None else opt


def _dense_lp(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> _Optimum:
    """The ``_Optimum`` of the transport LP of ``_transport_lp`` over every
    cell, solved by ``linprog``; SpaceError if HiGHS does not find it
    optimal."""
    nr, nc = c.shape
    res = linprog(c.ravel(), A_eq=_transport_csc(nr, nc),
                  b_eq=np.concatenate([a, b[:-1]]))
    if not res.success:
        raise SpaceError(f"transport LP failed: {res.message}")
    return _Optimum(res.fun, res.x.reshape(nr, nc), *_duals(res, nr))


def _basis_lp(c: np.ndarray, a: np.ndarray, b: np.ndarray, cells: np.ndarray,
              rows: np.ndarray):
    """The ``_Optimum`` of the transport LP of ``_transport_lp`` at the
    basis whose basic columns are ``cells`` (ascending) and whose rows
    have the ``linprog`` statuses ``rows``, or None if that basis is not
    optimal for the LP as it stands.

    ``linprog`` solves the LP over those cells alone, started from that
    basis.  A basic solution depends only on its basis matrix, so if
    HiGHS takes no pivot there and no cell of c prices below
    -_HIGHS_DUAL_TOL with its duals, the LP over every cell started from
    that basis would stop there too, with the same factorization: the
    plan, duals and value are bitwise the ones it would return, at a
    fraction of its cost.
    """
    nr, nc = c.shape
    res = linprog(c.ravel()[cells], A_eq=_transport_csc(nr, nc, cells),
                  b_eq=np.concatenate([a, b[:-1]]),
                  basis=(np.ones(len(cells), dtype=np.int8), rows))
    if not res.success or res.nit > 0:
        return None
    u, v = _duals(res, nr)
    if (c - u[:, None] - v).min() < -_HIGHS_DUAL_TOL:
        return None
    x = np.zeros(nr * nc)
    x[cells] = res.x
    return _Optimum(res.fun, x.reshape(nr, nc), u, v)


def _strictly_monge(c: np.ndarray) -> bool:
    """Whether c[i, j] + c[i+1, j+1] < c[i, j+1] + c[i+1, j] on every
    adjacent 2 x 2 block (so on none if c has one row or one column).
    The first two rows are tested alone first, which turns most other
    costs away in O(nc)."""
    def strict(m):
        return bool((m[:-1, :-1] + m[1:, 1:] < m[:-1, 1:] + m[1:, :-1]).all())
    return strict(c[:2]) and strict(c)


def _tries_column_generation(c: np.ndarray) -> bool:
    """Whether ``_transport_lp`` tries column generation on c, the cost
    of the LP left without its forcing rows (the LP itself if it has
    none): at least three rows and columns and no two equal positive
    costs.  Where it does not, the full LP goes to ``_dense_lp``."""
    return min(c.shape) >= 3 and _distinct_costs(c)


def _distinct_costs(c: np.ndarray) -> bool:
    """Whether c has positive entries, no two of them equal.  The first
    row is tested alone first, which turns most tied costs (grids and
    other symmetric samples) away in O(nc log nc)."""
    def distinct(m):
        s = np.sort(m, axis=None)
        if not s[-1] > 0:
            return False
        s = s[np.searchsorted(s, 0.0, side="right"):]
        return bool((s[1:] > s[:-1]).all())
    return distinct(c[0]) and distinct(c)


def _column_generation(c: np.ndarray, a: np.ndarray, b: np.ndarray):
    """The ``_Optimum`` of the transport LP of ``_transport_lp``, solved
    over a growing set of cells, or None if that does not prove its plan
    to be the only optimum.

    The cost is divided by its largest entry, so HiGHS's absolute
    tolerances act relative to it; the value and the duals are scaled
    back.  The first restricted LP holds the _CG_NEAREST cheapest cells
    of each row and of each column, and the north-west-corner staircase,
    so it is feasible.  HiGHS solves it by dual simplex from its crash
    basis, to feasibility tolerances of _CG_HIGHS_TOL.
    Each round then prices all nr x nc reduced costs and takes each row's
    and each column's most negative cell outside the LP if it is below
    -_CG_ENTER.  Those cells are appended to the same HiGHS model
    (``linprog``'s ``model``), which keeps its optimal basis: with the new
    cells at 0 it is still primal feasible, so the primal simplex goes on
    from it, with the factorization HiGHS holds, and takes far fewer
    pivots than the first solve.  If cells are still added after
    _CG_ROUNDS solves, the attempt is given up: each round adds at most
    nr + nc cells, so no restricted LP holds more than the first one's
    cells and (_CG_ROUNDS - 1) x (nr + nc) more.  When none is added, the
    result is returned only if the final basis is a spanning tree (nr +
    nc - 1 basic cells, no basic row logical), its plan is nonnegative,
    and every cell off the tree has a reduced cost above _CG_UNIQUE on the
    scaled cost.  Then the plan meets the masses to rounding and is the
    only optimal plan of the full LP: any other feasible plan puts mass on
    a cell off the tree and costs more.  So the pivots HiGHS takes on the
    way do not change an accepted answer beyond rounding.  Its basis is
    that tree's cells, with every row logical nonbasic.
    """
    nr, nc = c.shape
    scale = np.abs(c).max()
    cs = c / scale
    start = np.zeros((nr, nc), dtype=bool)
    near = min(_CG_NEAREST, nc)
    np.put_along_axis(start, np.argpartition(cs, near - 1, axis=1)[:, :near],
                      True, axis=1)
    near = min(_CG_NEAREST, nr)
    np.put_along_axis(start, np.argpartition(cs, near - 1, axis=0)[:near],
                      True, axis=0)
    start[_north_west_corner(a, b)[:2]] = True
    cells = np.flatnonzero(start)
    b_eq = np.concatenate([a, b[:-1]])
    new, model = cells, None
    for _ in range(_CG_ROUNDS):
        res = linprog(cs.ravel()[new], A_eq=_transport_csc(nr, nc, new),
                      b_eq=b_eq, tolerance=_CG_HIGHS_TOL, model=model)
        if not res.success:
            return None
        model = res.model
        u, v = _duals(res, nr)
        reduced = cs - u[:, None] - v
        in_lp = reduced.ravel()[cells]
        reduced.ravel()[cells] = np.inf
        rows_in = np.flatnonzero(reduced.min(axis=1) < -_CG_ENTER)
        cols_in = np.flatnonzero(reduced.min(axis=0) < -_CG_ENTER)
        new = _sorted_set(np.concatenate([
            rows_in * nc + reduced[rows_in].argmin(axis=1),
            reduced[:, cols_in].argmin(axis=0) * nc + cols_in]))
        if len(new) == 0:
            break
        cells = np.concatenate([cells, new])
    else:
        return None
    tree = res.basis[0] == 1
    off_tree = min(reduced.min(), in_lp[~tree].min(initial=np.inf))
    if ((res.basis[1] == 1).any() or res.x[tree].min() < 0
            or off_tree <= _CG_UNIQUE):
        return None
    x = np.zeros(nr * nc)
    x[cells] = res.x
    return _Optimum(res.fun * scale, x.reshape(nr, nc), u * scale, v * scale,
                    (cells[tree], res.basis[1]))


def _monge_lp(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> _Optimum:
    """The ``_Optimum`` of the transport LP of ``_transport_lp`` when c is
    strictly Monge (``_strictly_monge``), in closed form.

    Adjacent 2 x 2 blocks that are strictly Monge make the whole matrix
    strictly Monge, and then the north-west-corner plan is optimal
    (Hoffman 1963) and the only optimal plan: any other plan holds mass
    on some crossing pair of cells (i, j'), (i', j) with i < i', j < j',
    and moving it to (i, j), (i', j') lowers the cost.  Its staircase
    (``_north_west_corner``) is a spanning tree, and the duals u, v with
    u[i] + v[j] = c[i, j] on it and v[nc - 1] = 0 are read off backwards
    from the last cell.  They are dual feasible: the reduced cost of a
    cell off the staircase is a sum of adjacent Monge differences, so it
    is positive.  ``_solve_lp`` checks both.  With one row or one
    column the staircase holds every cell, and its plan is the only
    feasible one.
    """
    nr, nc = c.shape
    rows, cols, mass = _north_west_corner(a, b)
    stair = c[rows, cols]
    u, v = [0.0] * nr, [0.0] * nc
    u[-1] = float(stair[-1])
    for k in range(len(mass) - 2, -1, -1):
        # cell k shares a row or a column with cell k + 1, whose row and
        # column are both known: read off the other one
        i, j, ck = rows[k], cols[k], float(stair[k])
        if i < rows[k + 1]:
            u[i] = ck - v[j]
        else:
            v[j] = ck - u[i]
    x = np.zeros((nr, nc))
    x[rows, cols] = mass
    return _Optimum(float(np.dot(stair, mass)), x, np.array(u), np.array(v))


def _north_west_corner(a: np.ndarray, b: np.ndarray):
    """The north-west-corner plan of masses a and b, as the rows, columns
    and masses of its nr + nc - 1 cells, zeros included.

    The walk goes from (0, 0) to (nr - 1, nc - 1), down when row i is
    used up (also on a tie, which leaves a zero on the staircase) and
    right otherwise; in the last row each column gets what it still
    needs, and the last column takes what each row has left.  The cells
    form a spanning tree of the rows and columns.
    """
    nr, nc = len(a), len(b)
    a, b = a.tolist(), b.tolist()  # Python floats: the same sums, faster
    rows, cols, mass = [0], [0], []
    i = j = 0
    left, need = a[0], b[0]  # what row i still holds, column j still takes
    while (i, j) != (nr - 1, nc - 1):
        if j == nc - 1 or (i < nr - 1 and left <= need):
            mass.append(left)
            need -= left
            i += 1
            left = a[i]
        else:
            mass.append(need)
            left -= need
            j += 1
            need = b[j]
        rows.append(i)
        cols.append(j)
    mass.append(left)
    return rows, cols, mass


def _forcing_basis(c: np.ndarray, opt: _Optimum, keep_r: np.ndarray,
                   keep_c: np.ndarray):
    """The basis of the full transport LP that HiGHS's forcing-row
    postsolve builds from ``opt``, column generation's accepted optimum of
    the LP without the forcing rows (those of ``~keep_r`` and ``~keep_c``)
    and their columns: its basic cells of c, ascending, and the
    ``linprog`` statuses of the full LP's rows.

    Each forcing row takes the reduced costs of its columns in kept rows
    and columns without its own dual: c - v for a mu row, c - u for a nu
    row.  (A column in two forcing rows has a reduced cost of at least its
    cost, which is not negative, so it never enters.)  If the least is
    negative, the first column that attains it becomes basic and the
    row's logical leaves the basis at its bound; otherwise the logical is
    basic.  Every other dropped column is nonbasic at 0.
    """
    nr, nc = c.shape
    kr, kc = np.flatnonzero(keep_r), np.flatnonzero(keep_c)
    fi, fj = np.flatnonzero(~keep_r), np.flatnonzero(~keep_c)
    tree, kept_rows = opt.basis
    i, j = np.divmod(tree, len(kc))
    cells = [kr[i] * nc + kc[j]]
    rows = np.ones(nr + nc - 1, dtype=np.int8)
    rows[np.concatenate([kr, nr + kc[:-1]])] = kept_rows

    def entering(reduced):
        # per forcing row (a row of reduced): the first least reduced
        # cost, and whether it is negative
        best = reduced.argmin(axis=1)
        return best, reduced[np.arange(len(best)), best] < 0

    best, hit = entering(c[np.ix_(fi, kc)] - opt.v)
    rows[fi[hit]] = 0
    cells.append(fi[hit] * nc + kc[best[hit]])
    best, hit = entering(c[np.ix_(kr, fj)].T - opt.u)
    rows[nr + fj[hit]] = 0
    cells.append(kr[best[hit]] * nc + fj[hit])
    return np.sort(np.concatenate(cells)), rows


def _metric_lp(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray,
               keep_r: np.ndarray, keep_c: np.ndarray, c: np.ndarray):
    """The ``_Optimum`` of ``_solve_lp``'s LP c = cost[keep_r, keep_c]
    (the points where mu and nu have mass) when the square cost is a
    quasi-metric, or None if this route does not prove its plan to be the
    only optimum.

    By the triangle inequality an order-1 plan can leave the mass mu ^ nu
    where it is (Villani 2009, ch. 6): only (mu - nu)+ on R = {mu > nu}
    has to travel, to (nu - mu)+ on C = {nu > mu}.  That R x C LP goes to
    ``_column_generation``.  The plan is diag(mu ^ nu) plus its plan, and
    the duals are u = -f and v = f, where f(y) = min over x in R of
    cost[x, y] - u_R[x] is the c-transform of its row duals u_R.  The
    answer is kept only if, over every cell of c, no reduced cost
    cost[x, y] + f(x) - f(y) is below -_REDUCED_TOL (the certificate of
    ``_solve_lp``) and every cell off the diagonal cells with mass and the
    tree prices above _CG_UNIQUE of the largest cost.  Those cells form a
    forest, so the plan is then the only optimum of the LP, which
    ``_transport_lp`` would return to rounding.  A cost that breaks the
    triangle inequality is priced by the same test.

    Not tried where the diagonal is not 0, where a mass of mu or nu lies in
    (0, PRESOLVE_MASS] (those LPs keep the forcing-row route of
    ``_transport_lp``, bit for bit), or where ``_transport_lp`` would not
    try column generation on the R x C LP either: fewer than three rows or
    columns, tied costs, or a mass at or below PRESOLVE_MASS.
    """
    masses = np.concatenate([mu, nu])
    if cost.diagonal().any() or ((masses > 0) & (masses <= PRESOLVE_MASS)).any():
        return None
    excess = mu - nu
    rows, cols = np.flatnonzero(excess > 0), np.flatnonzero(excess < 0)
    moving, a, b = cost[np.ix_(rows, cols)], excess[rows], -excess[cols]
    if (not _tries_column_generation(moving)
            or min(a.min(), b.min()) <= PRESOLVE_MASS):
        return None
    opt = _column_generation(moving, a, b)
    if opt is None:
        return None
    f = (cost[rows] - opt.u[:, None]).min(axis=0)
    f -= f[keep_c[-1]]  # v[-1] = 0, as on every route
    reduced = c + f[keep_r, None] - f[keep_c]
    # the plan and its support in c's rows and columns: the points with
    # mass in both marginals, then R x C
    shared = np.intersect1d(keep_r, keep_c, assume_unique=True)
    si, sj = np.searchsorted(keep_r, shared), np.searchsorted(keep_c, shared)
    ri, cj = np.searchsorted(keep_r, rows), np.searchsorted(keep_c, cols)
    plan = np.zeros(c.shape)
    plan[si, sj] = np.minimum(mu[shared], nu[shared])
    plan[np.ix_(ri, cj)] = opt.plan
    off = np.ones(c.shape, dtype=bool)
    off[si, sj] = False
    ti, tj = np.divmod(opt.basis[0], len(cols))
    off[ri[ti], cj[tj]] = False
    # written so that a NaN refuses
    if not (reduced.min() >= -_REDUCED_TOL
            and reduced[off].min(initial=np.inf) > _CG_UNIQUE * c.max()):
        return None
    return _Optimum(opt.value, plan, -f[keep_r], f[keep_c])


def _solve_lp(cost: np.ndarray, mu: np.ndarray, nu: np.ndarray,
              metric: bool = False):
    """Exact transportation LP; returns (optimal value, plan matrix, psi).

    psi is the c-transform of the row duals u over every column,
    psi[j] = min over rows with mass of cost[i, j] - u[i].

    Points without mass are dropped.  A non-finite cost among the rest
    raises SpaceError, because HiGHS would call such an LP optimal.
    With ``metric`` (the square cost is the quasi-metric itself: order-1
    transport), ``_metric_lp`` tries the LP that moves only (mu - nu)+;
    where it has no certified answer, and without ``metric``,
    ``_transport_lp`` solves the rest by the routing rule its docstring
    gives (dropping rows and columns keeps a Monge matrix Monge).  Every
    route's ``_Optimum`` must pass the same certificate below.  Column
    generation's duals are scaled back from the cost divided by its
    largest entry, and at costs near 1e12 their rounding alone can still
    fail the absolute thresholds below.
    """
    keep_r = np.nonzero(mu > 0)[0]
    keep_c = np.nonzero(nu > 0)[0]
    c = cost[np.ix_(keep_r, keep_c)]
    if not np.isfinite(c).all():
        raise SpaceError("transport LP failed: non-finite cost")
    opt = _metric_lp(cost, mu, nu, keep_r, keep_c, c) if metric else None
    if opt is None:
        opt = _transport_lp(c, mu[keep_r], nu[keep_c])

    # complementary-slackness certificate from the equality duals
    reduced = c - opt.u[:, None] - opt.v[None, :]
    if reduced.min() < -_REDUCED_TOL:
        raise SpaceError("LP optimality certificate failed: negative reduced cost")
    if np.abs(opt.plan * reduced).max() > 1e-6:
        raise SpaceError("LP optimality certificate failed: slackness violated")

    plan = np.zeros_like(cost)
    plan[np.ix_(keep_r, keep_c)] = opt.plan
    psi = (cost[keep_r] - opt.u[:, None]).min(axis=0)
    return float(opt.value), plan, psi


def wasserstein(prob: TransportProblem) -> tuple[float, Coupling]:
    """Order-p transport distance and an optimal coupling (exact LP; at
    p = 1 the cost is the quasi-metric itself, so ``_metric_lp`` is
    tried first)."""
    if np.allclose(prob.mu, prob.nu, rtol=0, atol=MASS_TOL):
        return 0.0, Coupling(np.diag(prob.mu), prob.mu, prob.nu)
    with np.errstate(over="ignore"):  # an infinite cost raises in _solve_lp
        cost = prob.space.dist ** prob.p
    value, plan, _ = _solve_lp(cost, prob.mu, prob.nu, metric=prob.p == 1)
    # clean tiny negative / marginal drift from the solver
    plan = np.maximum(plan, 0.0)
    return float(max(value, 0.0) ** (1.0 / prob.p)), Coupling(plan, prob.mu, prob.nu)


def kr_dual(prob: TransportProblem) -> tuple[float, np.ndarray]:
    """Kantorovich-Rubinstein dual of an order-1 problem.

    The potential psi is the c-transform of the transport LP's row
    duals, shifted so that psi[0] = 0, and the value is
    sum(psi * (nu - mu)).  The LP is solved as ``wasserstein`` solves it
    at p = 1: where ``_metric_lp`` keeps its answer, the row duals are
    -f for the c-transform f of the row duals of the LP from (mu - nu)+
    to (nu - mu)+.  psi is 1-Lipschitz only
    when d satisfies the triangle inequality, so the answer is certified
    before it is returned: psi[j] - psi[i] <= d(i, j) on every pair, and
    the value equals the primal optimum, both to DUALITY_TOL times the
    largest distance.  Otherwise SpaceError is raised.
    """
    if prob.p != 1:
        raise SpaceError("the Kantorovich-Rubinstein dual requires p = 1")
    d = prob.space.dist
    primal, _, psi = _solve_lp(d, prob.mu, prob.nu, metric=True)
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
        lhs=w_q_nu_mu, rhs=rhs, slack=slack, tolerance=ASYMMETRY_TOL,
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

    The chains are read off the predecessors of every pair at once, one
    hop per step; a walk that has not reached i after n hops fails.  Of
    the pairs that fail, the first in row-major order raises.
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
    si, j = np.nonzero(support)
    i = sources[si]
    within = dist_out[si, j] <= bound[si, j]
    # Walk every pair back from j at once.  Step s lists the pairs (by
    # position k) that took an s-th hop and the point it reached; a pair
    # leaves the walk at i.
    steps = []
    at = np.flatnonzero(within & (j != i))
    back = j[at]
    for _ in range(space.n):
        if not at.size:
            break
        back = pred[si[at], back]
        steps.append((at, back))
        short = back != i[at]
        at, back = at[short], back[short]
    failed = ~within
    failed[at] = True  # still short of i after n hops
    if failed.any():
        k = np.flatnonzero(failed)[0]
        a, b = int(i[k]), int(j[k])
        if within[k]:
            raise SpaceError(f"chain from {a} to {b} does not end at {a}")
        # the search above stops at the bound; the message gives the best
        # chain, so search once more without one
        best = dijkstra(d, radius, [a])[0, b]
        raise SpaceError(
            f"no chain from {a} to {b} within tolerance: best "
            f"{best:.6g} vs direct {d[a, b]:.6g}"
        )
    # pair k's chain, i to j, is flat[ends[k] - size[k]:ends[k]]: its
    # point s hops back from j sits at ends[k] - 1 - s
    size = np.ones(j.size, dtype=np.intp)
    for at, _ in steps:
        size[at] += 1
    ends = np.cumsum(size)
    flat = np.empty(int(size.sum()), dtype=np.intp)
    flat[ends - 1] = j
    for s, (at, back) in enumerate(steps, 1):
        flat[ends[at] - 1 - s] = back
    del steps  # the walk, before the lists of its points are made
    flat, ends = flat.tolist(), ends.tolist()
    chains = {key: tuple(flat[lo:hi]) for key, lo, hi in
              zip(zip(i.tolist(), j.tolist()), [0, *ends], ends)}
    return DynamicalPlan(space, coupling, chains)


def interpolate(plan: DynamicalPlan, ts) -> Interpolation:
    """Push the plan mass along chains: mu_t sits at the chain vertex
    whose cumulative length is nearest to t * (total length), ties to
    the earlier vertex.

    The chains of each length are rows of one array, with their
    cumulative hop lengths (a row's cumsum adds its hops left to right, as
    one chain's would); mu_t adds the masses per vertex in the order of
    the chains.
    """
    ts = [float(t) for t in ts]
    for t in ts:
        if not 0.0 <= t <= 1.0:
            raise SpaceError(f"interpolation time {t} outside [0, 1]")
    n = plan.space.n
    if not plan.chains:
        return Interpolation(tuple(ts), tuple(np.zeros(n) for _ in ts))
    d = plan.space.dist
    chains = list(plan.chains.values())
    pairs = np.array(list(plan.chains))
    mass = plan.coupling.matrix[pairs[:, 0], pairs[:, 1]]
    size = np.array([len(c) for c in chains], dtype=np.intp)
    # at[s, k]: chain k's vertex at ts[s], from the chains of its length
    at = np.empty((len(ts), len(chains)), dtype=np.intp)
    for m in set(size.tolist()):
        rows = np.flatnonzero(size == m)
        vertex = np.array([chains[k] for k in rows.tolist()], dtype=np.intp)
        cum = np.zeros(vertex.shape)
        np.cumsum(d[vertex[:, :-1], vertex[:, 1:]], axis=1, out=cum[:, 1:])
        for s, t in enumerate(ts):
            nearest = np.abs(cum - t * cum[:, -1:]).argmin(axis=1)
            at[s, rows] = vertex[np.arange(rows.size), nearest]
    measures = [np.bincount(v, weights=mass, minlength=n) for v in at]
    return Interpolation(tuple(ts), tuple(measures))


def geodesy_check(space: QuasiMetricSpace, interp: Interpolation,
                  p: float = 2.0) -> FunctionalReport:
    """Residual of the constant-speed property along an interpolation.

    Compares W_p(mu_s, mu_t) with (t - s) * W_p(mu_0, mu_1) over all
    sampled time pairs; reports the worst absolute and relative residual.
    Passes when the worst residual is at most 3 pitches (``core._tolerance``),
    the error chain quantization can cause at this sampling.
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
    return FunctionalReport(
        name=f"geodesy[p={p:g}]", lhs=worst, rhs=0.0, slack=-worst,
        tolerance=_tolerance("geodesy", _pitch(space)),
        details={"abs_residual": worst, "rel_residual": rel, "w_endpoints": base},
    )
