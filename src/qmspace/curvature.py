"""Displacement-convexity verification on finite measured spaces.

Distortion coefficients compare geodesic spreading against the constant
curvature model with lower bound K and dimension bound N; convex
nonlinearities from the dimensional class feed integral functionals
whose convexity along transport interpolations is the discrete
curvature-dimension check.  The module also evaluates the geometric and
functional consequences: diameter bound, Brunn-Minkowski, Bishop-Gromov
monotonicity, log-Sobolev, Poincare, and Lichnerowicz inequalities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BallSpec,
    FunctionalReport,
    MeasuredSpace,
    SpaceError,
    _hops,
    _index_set,
    _measure,
    _pitch,
    _tolerance,
    ball,
    diameter,
)
from .transport import (
    Coupling,
    TransportProblem,
    default_hop_radius,
    dynamical_plan,
    interpolate,
    wasserstein,
)

__all__ = [
    "DistortionParams",
    "Nonlinearity",
    "s_kn",
    "beta",
    "un_nonlinearity",
    "entropy_nonlinearity",
    "power_nonlinearity",
    "dcn_membership",
    "u_functional",
    "u_beta_functional",
    "cd_check",
    "brunn_minkowski_check",
    "bishop_gromov_profile",
    "grad_norms",
    "fisher_information",
    "functional_inequality_suite",
]

INF = math.inf
#: grid tolerance of dcn_membership
DCN_TOL = _tolerance("dcn_membership")
#: Gauss-Legendre orders of the curved model volume, and how far apart
#: their two values may be, relative to max(1, volume)
VOLUME_ORDERS = (64, 128)
VOLUME_TOL = 1e-8


def _bounds(K: float, N: float) -> None:
    """Check a curvature bound K and a dimension bound N.

    The one check of (K, N): every routine that takes them calls it, or
    builds a ``DistortionParams``, which does.  K must be finite and N at
    least 1, math.inf included; NaN fails both.  Routines that need a
    finite N > 1 check that themselves.
    """
    if not math.isfinite(K):
        raise SpaceError(f"curvature bound K must be finite, got {K}")
    if not N >= 1:  # also true for NaN
        raise SpaceError(f"N must be >= 1, got {N}")


def _cutoff(K: float, N: float) -> float:
    """The diameter pi sqrt((N-1)/K) of the (K, N) model space, K > 0."""
    return math.pi * math.sqrt((N - 1) / K)


def s_kn(K: float, N: float, r: float) -> float:
    """Comparison profile of the constant-curvature model space.

    sqrt((N-1)/K) sin(r sqrt(K/(N-1))) for K > 0, r for K = 0, and the
    sinh analog for K < 0.  For K > 0 the argument must stay within the
    model diameter pi sqrt((N-1)/K).
    """
    if not (N > 1) or N == INF:
        raise SpaceError("s_kn needs finite N > 1")
    _bounds(K, N)
    if r < 0:
        raise SpaceError("radius must be nonnegative")
    if K > 0:
        cutoff = _cutoff(K, N)
        if r > cutoff + 1e-15:
            raise SpaceError(f"radius {r} beyond model cutoff {cutoff}")
        return math.sqrt((N - 1) / K) * math.sin(r * math.sqrt(K / (N - 1)))
    if K == 0:
        return r
    try:
        return math.sqrt((N - 1) / -K) * math.sinh(r * math.sqrt(-K / (N - 1)))
    except OverflowError:
        raise SpaceError(
            f"s_kn overflows at radius {r:.6g} (K={K}, N={N})") from None


@dataclass(frozen=True)
class DistortionParams:
    """Curvature bound K, dimension bound N (math.inf allowed), time t."""

    K: float
    N: float
    t: float

    def __post_init__(self):
        if not 0.0 <= self.t <= 1.0:
            raise SpaceError("t must lie in [0, 1]")
        _bounds(self.K, self.N)


def _sinc(K: float, N: float, r: float) -> float:
    """s_kn(K, N, r) / r for K != 0 and r within the cutoff: sin(x)/x or
    sinh(x)/x at x = r sqrt(|K|/(N-1)), and 1 where x is 0, so a
    subnormal r loses no digits."""
    x = r * math.sqrt(abs(K) / (N - 1))
    if x == 0.0:
        return 1.0
    return (math.sin(x) if K > 0 else math.sinh(x)) / x


def beta(params: DistortionParams, dxy: float) -> float:
    """Distortion coefficient comparing spreading to the (K, N) model.

    Returns math.inf on the positive-curvature cutoff branch.  For finite
    N and K != 0 it is (s_kn(t d)/(t d) / (s_kn(d)/d))^(N-1), which no
    underflow of t d can turn into 0/0.  A coefficient beyond the float
    range raises SpaceError: it is finite, and so is U(r/beta) beta/r.
    """
    K, N, t = params.K, params.N, params.t
    if dxy < 0:
        raise SpaceError("distance must be nonnegative")
    if t == 0.0 or dxy == 0.0:
        return 1.0
    if N == 1.0:
        # limit N -> 1: the cutoff radius shrinks to 0 for K > 0
        return INF if K > 0 else 1.0
    if K > 0 and N < INF and dxy >= _cutoff(K, N):
        return INF
    if K == 0 or t == 1.0:
        return 1.0
    try:
        if N == INF:
            return math.exp(K / 6.0 * (1.0 - t * t) * dxy * dxy)
        return (_sinc(K, N, t * dxy) / _sinc(K, N, dxy)) ** (N - 1)
    except OverflowError:
        raise SpaceError(
            f"distortion coefficient overflows at distance {dxy:.6g} "
            f"(K={K}, N={N}, t={t})") from None


@dataclass(frozen=True)
class Nonlinearity:
    """A convex nonlinearity with its derived pressure functions.

    ``u`` evaluates U(r); ``p(r) = r U'(r) - U(r)`` and
    ``p2(r) = r p'(r) - p(r)`` are the pressure and iterated pressure;
    ``du0`` and ``du_inf`` are the derivative limits U'(0+), U'(inf)
    (possibly infinite) governing the singular-mass conventions.
    """

    name: str
    u: callable
    du: callable
    p: callable
    p2: callable
    du0: float
    du_inf: float


def _at(f, r: float) -> float:
    """The one evaluator of a ``Nonlinearity`` callable: f(r) on a Python
    float, and where Python raises (``**`` overflowing, division by 0)
    the inf or NaN of f on a numpy scalar, with warnings off."""
    try:
        return f(r)
    except (OverflowError, ZeroDivisionError):
        with np.errstate(all="ignore"):
            return float(f(np.float64(r)))


def _with_null_mass(U: Nonlinearity, total: float, mass: np.ndarray) -> float:
    """``total`` plus U'(inf) times the mass on nu-null points."""
    singular = float(mass.sum())
    if singular > 0:
        total = INF if U.du_inf == INF else total + U.du_inf * singular
    return float(total)


def un_nonlinearity(N: float) -> Nonlinearity:
    """The dimensional nonlinearity N r (1 - r^(-1/N)); boundary member
    of the class for this N."""
    if not (N > 1) or N == INF:
        raise SpaceError("requires finite N > 1")
    inv = 1.0 / N
    return Nonlinearity(
        name=f"U_{N:g}",
        u=lambda r: N * (r - r ** (1 - inv)),
        du=lambda r: N - (N - 1) * r ** (-inv),
        p=lambda r: r ** (1 - inv),
        p2=lambda r: -(r ** (1 - inv)) / N,
        du0=-INF,
        du_inf=float(N),
    )


def entropy_nonlinearity() -> Nonlinearity:
    """r log r: relative entropy; member of the class for every N."""
    return Nonlinearity(
        name="H",
        u=lambda r: r * math.log(r) if r > 0 else 0.0,
        du=lambda r: math.log(r) + 1.0,
        p=lambda r: r,
        p2=lambda r: 0.0,
        du0=-INF,
        du_inf=INF,
    )


def power_nonlinearity(m: float) -> Nonlinearity:
    """(r^m - r)/(m - 1) for m > 1; member of the class for every N."""
    if m <= 1:
        raise SpaceError("power exponent must exceed 1")
    return Nonlinearity(
        name=f"Power_{m:g}",
        u=lambda r: (r ** m - r) / (m - 1),
        du=lambda r: (m * r ** (m - 1) - 1) / (m - 1),
        p=lambda r: r ** m,
        p2=lambda r: (m - 1) * r ** m,
        du0=-1.0 / (m - 1),
        du_inf=INF,
    )


def dcn_membership(U: Nonlinearity, N: float, r_grid) -> FunctionalReport:
    """Check membership of U in the dimensional class for this N.

    Requires U(0+) -> 0, convexity (p2 + p >= 0 on the grid, since
    U''(r) = (p2 + p)/r^2), the dimensional condition p2 + p/N >= 0,
    and monotonicity of p(r)/r^(1-1/N).  The slack is the worse margin:
    min(p2 + p/N), or -sqrt(DCN_TOL) times the largest drop of that ratio,
    so the drop passes up to sqrt(DCN_TOL); ``details`` keeps both.
    """
    _bounds(0.0, N)  # the class has no curvature bound
    rs = np.asarray(sorted(r_grid), dtype=float)
    if rs.size == 0:
        raise SpaceError("r grid must not be empty")
    if np.any(rs <= 0):
        raise SpaceError("r grid must be positive")
    p = np.array([_at(U.p, r) for r in rs.tolist()])
    p2 = np.array([_at(U.p2, r) for r in rs.tolist()])
    # U may vanish at 0 only at a fractional rate (like r^(1-1/N)), so
    # check decay along a shrinking sequence rather than one tiny value
    u_small = [abs(_at(U.u, r)) for r in (1e-6, 1e-9, 1e-12)]
    if not all(np.isfinite(u_small)) or not (
            u_small[2] <= u_small[1] <= u_small[0] and u_small[2] < 1e-3):
        raise SpaceError(f"{U.name}: U does not vanish at 0")
    if np.min(p2 + p) < -DCN_TOL:
        raise SpaceError(f"{U.name}: U is not convex on the grid")
    inv = 0.0 if N == INF else 1.0 / N
    cond1 = p2 + (0.0 if N == INF else p / N)
    ratio = p / rs ** (1 - inv)
    mono_defect = float(np.max(np.maximum(ratio[:-1] - ratio[1:], 0.0)))
    worst = float(np.min(cond1))
    slack = min(worst, -math.sqrt(DCN_TOL) * mono_defect)
    return FunctionalReport(
        name=f"dcn_membership[{U.name},N={N}]",
        lhs=-slack, rhs=0.0, slack=slack, tolerance=DCN_TOL,
        details={"min_p2_plus_p_over_N": worst, "monotonicity_defect": mono_defect},
    )


def u_functional(U: Nonlinearity, mu, nu) -> float:
    """Integral functional of mu against reference nu.

    Sum of U(density) over nu-positive atoms plus the derivative-at-
    infinity times the mass mu carries on nu-null atoms.
    """
    nu = _measure(nu, np.size(nu), "nu")
    mu = _measure(mu, nu.size, "mu")
    ac = nu > 0
    total = 0.0
    for m, w in zip(mu[ac].tolist(), nu[ac].tolist()):
        total += _at(U.u, m / w) * w
    return _with_null_mass(U, total, mu[~ac])


def u_beta_functional(U: Nonlinearity, pi: Coupling, dist: np.ndarray,
                      nu, params: DistortionParams,
                      direction: str = "forward") -> float:
    """Distorted integral functional along a coupling.

    Forward evaluates the density of the first marginal at the source
    point with the distortion at (x, y); reversed evaluates the second
    marginal's density at the target point with the same pair distortion
    (the coupling and coefficient both get transposed, which cancels).
    Reduces to the plain functional when the distortion is identically 1.
    A pair whose coefficient rounds to 0 raises: U(r/beta) beta/r is then
    inf times 0, where its value is finite for U = H.
    """
    if direction not in ("forward", "reversed"):
        raise SpaceError(f"unknown direction {direction!r}")
    mat = pi.matrix
    marg = pi.mu if direction == "forward" else pi.nu
    nu = _measure(nu, len(marg), "nu")
    ac = nu > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where(ac, marg / np.where(ac, nu, 1.0), np.nan)

    rows, cols = np.nonzero(mat > 0)
    at = rows if direction == "forward" else cols
    keep = ac[at] & (rho[at] > 0)  # a nu-null point's mass counts below
    rows, cols, at = rows[keep], cols[keep], at[keep]
    betas = {}  # beta of each distance, computed at its first pair
    total = 0.0
    for mass, r, dxy in zip(mat[rows, cols].tolist(), rho[at].tolist(),
                            dist[rows, cols].astype(float).tolist()):
        b = betas.get(dxy)
        if b is None:
            b = betas[dxy] = beta(params, dxy)
            if b == 0.0:
                raise SpaceError(
                    f"distortion coefficient underflows to 0 at distance "
                    f"{dxy:.6g} (K={params.K}, N={params.N}, t={params.t})")
        if b == INF:
            if U.du0 == -INF:
                return -INF
            total += U.du0 * mass
        else:
            total += _at(U.u, r / b) * (b / r) * mass
    return _with_null_mass(U, total, marg[~ac])


def cd_check(mspace: MeasuredSpace, mu0, mu1, K: float, N: float,
             U: Nonlinearity, ts) -> list[FunctionalReport]:
    """Displacement-convexity inequality along the canonical plan.

    Builds the order-2 optimal coupling of (mu0, mu1), its chain plan,
    and the interpolants at each t; compares the plain functional of
    mu_t with the distorted combination of the endpoint functionals.
    Slack tolerance: 5 pitches, in ``core._tolerance`` (chain quantization
    perturbs mu_t at first order in the sampling pitch).  A negative slack
    falsifies the canonical plan only, not the space.
    """
    _bounds(K, N)
    nu = mspace.weights
    tol = _tolerance("cd", _pitch(mspace.space))
    space = mspace.space

    _, coupling = wasserstein(TransportProblem(space, mu0, mu1, 2.0))
    interp = interpolate(dynamical_plan(space, coupling), ts)

    reports = []
    for t, mu_t in zip(interp.ts, interp.measures):
        lhs = u_functional(U, mu_t, nu)
        fwd = u_beta_functional(
            U, coupling, space.dist, nu,
            DistortionParams(K, N, 1.0 - t), "forward",
        )
        rev = u_beta_functional(
            U, coupling, space.dist, nu,
            DistortionParams(K, N, t), "reversed",
        )
        rhs = (1.0 - t) * fwd + t * rev
        slack = rhs - lhs if math.isfinite(rhs) and math.isfinite(lhs) else (
            INF if rhs == INF or lhs == -INF else -INF
        )
        rep = FunctionalReport(
            name=f"cd[{U.name},K={K},N={N},t={t:g}]",
            lhs=lhs, rhs=rhs, slack=slack, tolerance=tol, details={"t": t},
        )
        rep.details["certificate"] = ("consistent" if rep.passed
                                      else "no certificate")
        reports.append(rep)
    return reports


def _barycenter_set(mspace: MeasuredSpace, A0, A1, t: float):
    """Discrete t-barycenters: the support of mu_t along the chains of the
    uniform product coupling, which joins every pair of A0 x A1."""
    space = mspace.space
    A0 = _index_set(A0, space.n, "endpoint set")
    A1 = _index_set(A1, space.n, "endpoint set")
    mu0 = np.zeros(space.n)
    mu1 = np.zeros(space.n)
    mu0[A0] = 1.0 / len(A0)
    mu1[A1] = 1.0 / len(A1)
    plan = dynamical_plan(space, Coupling(np.outer(mu0, mu1), mu0, mu1))
    mu_t, = interpolate(plan, [t]).measures
    return np.flatnonzero(mu_t).tolist(), A0, A1


def brunn_minkowski_check(mspace: MeasuredSpace, A0, A1, t: float,
                          K: float, N: float) -> FunctionalReport:
    """Interpolated-set measure bound from displacement convexity.

    For finite N compares nu[[A0,A1]_t]^(1/N) with the distorted convex
    combination of the endpoint measures; for N = inf uses the log form
    with the squared-diameter correction.
    """
    if not 0.0 < t < 1.0:
        raise SpaceError("t must lie strictly between 0 and 1")
    _bounds(K, N)
    bary, A0, A1 = _barycenter_set(mspace, A0, A1, t)
    nu = mspace.weights
    d = mspace.space.dist
    m_t = float(nu[bary].sum())
    m_0 = float(nu[A0].sum())
    m_1 = float(nu[A1].sum())
    pair_d = d[np.ix_(A0, A1)]
    tol = _tolerance("brunn_minkowski", _pitch(mspace.space))
    details = {"barycenter_set": bary, "nu_t": m_t, "nu_0": m_0, "nu_1": m_1}

    if N == INF:
        kp, km = max(K, 0.0), -min(K, 0.0)
        if m_t <= 0 or m_0 <= 0 or m_1 <= 0:
            raise SpaceError("endpoint or barycenter set carries no mass")
        lhs = math.log(1.0 / m_t)
        rhs = ((1 - t) * math.log(1.0 / m_0) + t * math.log(1.0 / m_1)
               + t * (1 - t) / 2.0
               * (km * float(pair_d.max()) ** 2 - kp * float(pair_d.min()) ** 2))
        slack = rhs - lhs
    else:
        inf_b0 = min(
            beta(DistortionParams(K, N, 1.0 - t), float(v)) for v in pair_d.ravel()
        )
        inf_b1 = min(
            beta(DistortionParams(K, N, t), float(v)) for v in pair_d.ravel()
        )
        if inf_b0 == INF or inf_b1 == INF:
            rhs = INF
        else:
            rhs = ((1 - t) * inf_b0 ** (1.0 / N) * m_0 ** (1.0 / N)
                   + t * inf_b1 ** (1.0 / N) * m_1 ** (1.0 / N))
        lhs = m_t ** (1.0 / N)
        slack = lhs - rhs if math.isfinite(rhs) else -INF
        details["distorted_rhs"] = rhs
        if K >= 0:  # the simplified form is the operative check
            rhs = (1 - t) * m_0 ** (1.0 / N) + t * m_1 ** (1.0 / N)
            slack = lhs - rhs
            details["simplified_rhs"] = rhs
            details["simplified_slack"] = slack
    return FunctionalReport(
        name=f"brunn_minkowski[N={N:g},K={K},t={t:g}]",
        lhs=lhs, rhs=rhs, slack=slack, tolerance=tol, details=details,
    )


def _model_volume(K: float, N: float, r: float) -> float:
    """integral_0^r s_kn(K, N, s)^(N-1) ds for K != 0, finite N > 1 and
    0 <= r (<= the model cutoff for K > 0).

    The integrand is s^(N-1) times a smooth factor near 0, and mirrors
    itself about half the cutoff for K > 0, so the integral is made of
    integrals from 0.  Each takes Gauss-Legendre nodes after s = x t^q:
    the integrand then goes as t^(qN - 1), and q = ceil(4 / N) makes that
    smooth enough for any N > 1.  The two orders of VOLUME_ORDERS must
    agree to VOLUME_TOL times max(1, volume) and be finite, or SpaceError
    is raised.
    """
    from numpy.polynomial.legendre import leggauss  # 3 ms: only when needed

    c = math.sqrt(abs(K) / (N - 1))
    sk = np.sin if K > 0 else np.sinh
    q = math.ceil(4.0 / N)
    parts = [(1.0, r)]
    cutoff = _cutoff(K, N) if K > 0 else INF
    if 2.0 * r > cutoff:  # past the top of the sine
        parts = [(2.0, cutoff / 2.0), (-1.0, max(cutoff - r, 0.0))]
    values = []
    for order in VOLUME_ORDERS:
        x, w = leggauss(order)
        t = (x + 1.0) / 2.0
        total = 0.0
        for sign, top in parts:
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                f = (sk(c * top * t ** q) / c) ** (N - 1) * q * t ** (q - 1)
                total += sign * top / 2.0 * float(w @ f)
        values.append(total)
    low, high = values
    # NaN fails the first comparison, and an overflow to inf the second
    if not abs(high - low) <= VOLUME_TOL * max(1.0, abs(high)) < INF:
        raise SpaceError("model volume quadrature did not converge")
    return high


def bishop_gromov_profile(mspace: MeasuredSpace, x0: int, K: float, N: float,
                          radii) -> FunctionalReport:
    """Ball-mass profile against the model-volume normalizer.

    f(r) = nu[closed forward ball](r) / integral_0^r s_kn(t)^(N-1) dt
    must be nonincreasing; violations beyond the grid tolerance are
    reported.
    """
    _bounds(K, N)
    if N == INF or N <= 1:
        raise SpaceError("profile needs finite N > 1")
    radii = [float(r) for r in radii]
    if not radii:
        raise SpaceError("profile needs at least one radius")
    if not all(b > a for a, b in zip(radii, radii[1:])):
        raise SpaceError("radii must be increasing")
    if not radii[0] >= 0:
        raise SpaceError("radius must be nonnegative")
    if K > 0:
        cutoff = _cutoff(K, N)
        if radii[-1] > cutoff:
            raise SpaceError(f"radius {radii[-1]} beyond model cutoff {cutoff}")
    nu = mspace.weights
    profile = []
    for r in radii:
        mass = float(nu[ball(mspace.space, BallSpec(x0, r, closed=True))].sum())
        try:
            denom = r ** N / N if K == 0 else _model_volume(K, N, r)
        except OverflowError:
            raise SpaceError(f"model volume overflows at radius {r:.6g} "
                             f"(K={K}, N={N})") from None
        profile.append(mass / denom if denom > 0 else INF)
    worst = 0.0
    for a, b in zip(profile, profile[1:]):
        if a > 0:
            worst = max(worst, (b - a) / a)
    return FunctionalReport(
        name=f"bishop_gromov[K={K},N={N:g}]",
        lhs=worst, rhs=0.0, slack=-worst,
        tolerance=_tolerance("bishop_gromov", _pitch(mspace.space)),
        details={"radii": radii, "profile": profile,
                 "max_relative_increase": worst},
    )


def _test_function(f, n: int) -> np.ndarray:
    """``f`` as a float vector of n finite values; SpaceError otherwise."""
    f = np.asarray(f, dtype=float)
    if f.shape != (n,):
        raise SpaceError(f"f must have length {n}, got shape {f.shape}")
    if not np.isfinite(f).all():
        raise SpaceError("f must be finite")
    return f


def grad_norms(mspace: MeasuredSpace, f, neighbor_radius: float):
    """Discrete gradient norms: full and descending-slope versions.

    For each point x, the max over its hops x -> y at this radius
    (``core._hops``) of |f(y)-f(x)|/d(x,y), and of the negative part only.
    Points with no hop get zero and are flagged.
    """
    f = _test_function(f, mspace.n)
    d = mspace.space.dist
    tail, head = _hops(d, neighbor_radius)
    if not tail.size:
        raise SpaceError("no point has a neighbor at this radius")
    quot = (f[head] - f[tail]) / d[tail, head]
    first = np.flatnonzero(np.diff(tail, prepend=-1))  # each tail's first hop
    grad = np.zeros(mspace.n)
    grad_minus = np.zeros(mspace.n)
    grad[tail[first]] = np.maximum.reduceat(np.abs(quot), first)
    grad_minus[tail[first]] = np.maximum.reduceat(np.maximum(-quot, 0.0), first)
    hopless = np.ones(mspace.n, dtype=bool)
    hopless[tail] = False
    return grad, grad_minus, np.flatnonzero(hopless).tolist()


def fisher_information(mspace: MeasuredSpace, rho,
                       neighbor_radius: float) -> float:
    """Descending-slope Fisher information of a density against nu."""
    rho = _measure(rho, mspace.n, "rho")
    _, gm, _ = grad_norms(mspace, rho, neighbor_radius)
    nu = mspace.weights
    mask = rho > 0
    return float(np.sum(gm[mask] ** 2 / rho[mask] * nu[mask]))


def functional_inequality_suite(mspace: MeasuredSpace, K: float, N: float,
                                mu=None, f=None) -> list[FunctionalReport]:
    """Functional-inequality consequences of the curvature bound.

    Runs whichever checks the inputs allow: the diameter gate (K > 0,
    finite N), log-Sobolev and HWI for a density mu, Poincare and
    Lichnerowicz for a finite test function f (centered automatically).
    The reference measure is normalized internally.  Gradients look at
    neighbors within default_hop_radius (1.5 * pitch), the hops of the
    transport chains; tolerances are in ``core._tolerance``.
    """
    _bounds(K, N)
    ms = mspace.normalized()
    nu = ms.weights
    pitch = _pitch(ms.space)
    neighbor_radius = default_hop_radius(ms.space)
    reports = []

    support = np.nonzero(nu > 0)[0]
    if K > 0 and N != INF and N > 1:
        bound = _cutoff(K, N)
        diam = float(ms.space.dist[np.ix_(support, support)].max())
        rep = FunctionalReport(
            name=f"diameter[K={K},N={N:g}]",
            lhs=diam, rhs=bound, slack=bound - diam,
            tolerance=_tolerance("diameter", pitch, bound),
        )
        rep.details["gate"] = not rep.passed
        reports.append(rep)
        if not rep.passed:
            return reports  # space violates the diameter bound; stop here

    if mu is not None:
        mu = _measure(mu, ms.n, "mu")
        rho = np.zeros_like(mu)
        rho[support] = mu[support] / nu[support]
        H = u_functional(entropy_nonlinearity(), mu, nu)
        I_minus = fisher_information(ms, rho, neighbor_radius)
        w2, _ = wasserstein(TransportProblem(ms.space, mu, nu, 2.0))
        hwi_rhs = w2 * math.sqrt(I_minus) - K / 2.0 * w2 ** 2
        reports.append(FunctionalReport(
            name=f"hwi[K={K}]",
            lhs=H, rhs=hwi_rhs, slack=hwi_rhs - H,
            tolerance=_tolerance("hwi", pitch),
            details={"w2": w2, "fisher": I_minus},
        ))
        if K > 0:
            ls_rhs = I_minus / (2.0 * K)
            scale = max(abs(H), abs(ls_rhs), 1e-30)
            rel_slack = (ls_rhs - H) / scale
            reports.append(FunctionalReport(
                name=f"log_sobolev[K={K}]",
                lhs=H, rhs=ls_rhs, slack=ls_rhs - H,
                tolerance=_tolerance("log_sobolev"),
                details={"relative_slack": rel_slack, "fisher": I_minus},
            ))

    if f is not None:
        if K <= 0:
            raise SpaceError("Poincare/Lichnerowicz checks require K > 0")
        f = _test_function(f, ms.n)
        f = f - float(f @ nu)  # center against nu
        _, gm, _ = grad_norms(ms, f, neighbor_radius)
        var = float((f ** 2) @ nu)
        energy = float((gm ** 2) @ nu)
        poincare_rhs = energy / K
        reports.append(FunctionalReport(
            name=f"poincare[K={K}]",
            lhs=var, rhs=poincare_rhs, slack=poincare_rhs - var,
            tolerance=_tolerance("poincare", pitch),
            details={"energy": energy},
        ))
        const = 1.0 / K if N == INF else (N - 1) / (N * K)
        lich_rhs = const * energy
        reports.append(FunctionalReport(
            name=f"lichnerowicz[K={K},N={'inf' if N == INF else f'{N:g}'}]",
            lhs=var, rhs=lich_rhs, slack=lich_rhs - var,
            tolerance=_tolerance("lichnerowicz", pitch),
            details={"constant": const},
        ))
    return reports
