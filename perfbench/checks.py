"""Answer checks that do not trust the code under test.

Every check recomputes what it can from the inputs with numpy/scipy
alone and raises ``CheckFailed`` on a mismatch.  Tolerances are fixed
here, before any run, and are never relaxed to let a result pass.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix, identity, kron, vstack
from scipy.sparse.csgraph import floyd_warshall

#: coupling marginal error allowed; the library's own documented contract
MARGINAL_TOL = 1e-9
#: returned W_p against (sum cost * plan)^(1/p), relative
VALUE_RTOL = 1e-9
#: W(k d) against k W(d), relative
SCALE_RTOL = 1e-6
#: Kantorovich-Rubinstein primal against dual, and dual feasibility
DUALITY_TOL = 1e-7
#: answers compared with the stored reference, relative
ANSWER_RTOL = 1e-9

#: relative gap allowed between a returned W_p and the optimum of the
#: same problem solved here, independently of qmspace
OPTIMUM_RTOL = 1e-9

#: The operations that fail at the commit the benchmark was added with
#: on every seed tried (1-19 and 22 large ones), each with the signature
#: of its failure: the open transport-kernel defects of ROADMAP item 2.
#: Such a failure still counts as failed; it only does not mark the run
#: as incorrect, because the defect is known and tracked there.  One of
#: these operations failing with another message does.
_RESCALED = ("check: scale:", "silently wrong under distance rescaling")
KNOWN_DEFECTS = {
    "w/A200x1e-06/dense/p1/fwd": _RESCALED,
    "w/A200x1e-06/dense/p2/bwd": _RESCALED,
    "w/A200x1e+06/dense/p2/bwd": (
        "LP optimality certificate failed", "certificate fails at large scale"),
}

#: qmspace's message when HiGHS returns a plan whose marginals miss by
#: more than 1e-9.  Whether a problem drifts depends on its exact inputs:
#: two skewed-marginal solves of transport-mix drift on every seed, and
#: others drift on a few seeds each.  So drift is not excused by
#: operation name.  It is excused only in an operation that names the
#: W_p problems it solves, and only if ``seed_lp_drift`` reproduces it
#: on one of them.
DRIFT = "coupling marginals do not match"
_DRIFT_LABEL = "marginal drift, reproduced by the seed commit's LP"
_drift_cache: dict = {}


class CheckFailed(Exception):
    """The benchmark's own check rejected an answer."""


def known_defect(op: str, message: str, problems=None) -> str | None:
    """The known defect this failure of ``op`` is, or None.

    ``problems``, if given, makes the list of (dist, mu, nu, p) the
    operation solves.
    """
    signature, label = KNOWN_DEFECTS.get(op, (None, None))
    if signature is not None and signature in message:
        return label
    if problems is not None and DRIFT in message:
        if any(seed_lp_drift(*prob) > MARGINAL_TOL for prob in problems()):
            return _DRIFT_LABEL
    return None


def seed_lp_drift(dist, mu, nu, p) -> float:
    """Marginal error of the coupling qmspace returned for this problem
    at the commit the benchmark was added with.

    The LP is rebuilt as qmspace's ``_solve_lp`` set it up then: zero-mass rows
    and columns dropped, variables row-major, the last column constraint
    dropped, HiGHS.  The plan is clipped at zero as ``wasserstein`` did.
    HiGHS is deterministic, so the same inputs drift the same way; a
    problem the old LP solves within tolerance gives 0 or less than
    MARGINAL_TOL, and so does one it could not solve.
    """
    mu, nu = np.asarray(mu, dtype=float), np.asarray(nu, dtype=float)
    dist = np.asarray(dist, dtype=float)
    key = sha256(b"".join(np.ascontiguousarray(a).tobytes() for a in (dist, mu, nu))
                 + repr(float(p)).encode())
    if key in _drift_cache:
        return _drift_cache[key]
    err = 0.0
    if not np.allclose(mu, nu, atol=1e-12):
        rows, cols = np.nonzero(mu > 0)[0], np.nonzero(nu > 0)[0]
        nr, nc = len(rows), len(cols)
        cost = (dist ** float(p))[np.ix_(rows, cols)]
        a_eq = vstack([kron(identity(nr), csr_matrix(np.ones((1, nc)))),
                       kron(csr_matrix(np.ones((1, nr))), identity(nc))]).tocsr()[:-1]
        res = linprog(cost.ravel(), A_eq=a_eq,
                      b_eq=np.concatenate([mu[rows], nu[cols][:-1]]),
                      bounds=(0, None), method="highs")
        if res.success:
            plan = np.zeros_like(dist)
            plan[np.ix_(rows, cols)] = np.maximum(res.x.reshape(nr, nc), 0.0)
            err = max(np.abs(plan.sum(axis=1) - mu).max(),
                      np.abs(plan.sum(axis=0) - nu).max())
    _drift_cache[key] = float(err)
    return _drift_cache[key]


def _close(a: float, b: float, rtol: float) -> bool:
    if a == b:
        return True
    return abs(a - b) <= rtol * max(abs(a), abs(b))


# ------------------------------------------------------------ transport

def coupling_value(dist, mu, nu, p, value, plan) -> list:
    """Check a W_p answer from its plan; return the recorded answer."""
    plan = np.asarray(plan, dtype=float)
    if plan.min(initial=0.0) < -MARGINAL_TOL:
        raise CheckFailed(f"coupling has negative mass {plan.min():.3g}")
    err = max(np.abs(plan.sum(axis=1) - mu).max(),
              np.abs(plan.sum(axis=0) - nu).max())
    if not err <= MARGINAL_TOL:
        raise CheckFailed(f"coupling marginals off by {err:.3g}")
    cost = float(np.sum(np.asarray(dist, dtype=float) ** p * plan))
    expect = max(cost, 0.0) ** (1.0 / p)
    if not _close(value, expect, VALUE_RTOL):
        raise CheckFailed(f"W = {value!r} but plan cost gives {expect!r}")
    return [value]


def optimum(dist, mu, nu, p) -> float:
    """W_p(mu, nu) from a transportation LP set up and solved here.

    Every cell is a variable (zero-mass rows and columns included) and
    the redundant last column constraint is dropped; scipy's HiGHS
    solves it.  Nothing of qmspace is used.
    """
    n = len(mu)
    cost = np.asarray(dist, dtype=float) ** p
    eye, ones = identity(n, format="csr"), csr_matrix(np.ones((1, n)))
    a_eq = vstack([kron(eye, ones), kron(ones, eye)]).tocsr()[:-1]
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=np.concatenate([mu, nu[:-1]]),
                  bounds=(0, None), method="highs")
    if not res.success:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return max(float(res.fun), 0.0) ** (1.0 / p)


def optimal(value: float, best: float, what: str = "W") -> None:
    """A feasible answer must also be optimal."""
    if not _close(value, best, OPTIMUM_RTOL):
        raise CheckFailed(f"not optimal: {what} = {value!r} but the benchmark's "
                          f"own LP gives {best!r}")


def scaled(value: float, k: float, base: float) -> None:
    if not _close(value / k, base, SCALE_RTOL):
        raise CheckFailed(f"scale: W(k d)/k = {value / k:.12g} but W(d) = "
                          f"{base:.12g} at k = {k:g}")


def kr_pair(dist, mu, nu, primal: float, dual: float, psi) -> None:
    d = np.asarray(dist, dtype=float)
    psi = np.asarray(psi, dtype=float)
    viol = psi[None, :] - psi[:, None] - d
    np.fill_diagonal(viol, -np.inf)
    if not viol.max() <= DUALITY_TOL:
        raise CheckFailed(f"dual potential violates a constraint by {viol.max():.3g}")
    objective = float(psi @ (nu - mu))
    if not abs(objective - dual) <= DUALITY_TOL:
        raise CheckFailed(f"dual value {dual!r} but potential gives {objective!r}")
    if not abs(primal - dual) <= DUALITY_TOL:
        raise CheckFailed(f"primal {primal!r} and dual {dual!r} disagree")


# -------------------------------------------------------------- reports

def _passes(name: str, lhs: float, rhs: float, slack: float, tol: float) -> bool:
    """The pass rule each report kind states in its docstring."""
    if name.startswith("log_sobolev"):
        return slack / max(abs(lhs), abs(rhs), 1e-30) >= -tol
    if name.startswith(("poincare", "lichnerowicz")):
        return slack >= -tol * max(lhs, 1.0)
    if name.startswith("diameter"):
        return lhs <= rhs + tol
    return slack >= -tol


def bound_report(rep: dict) -> list:
    """A lhs/rhs/slack/passed record must be self-consistent."""
    lhs, rhs, slack = float(rep["lhs"]), float(rep["rhs"]), float(rep["slack"])
    tol = float(rep["tolerance"])
    if math.isfinite(lhs) and math.isfinite(rhs) and math.isfinite(slack):
        scale = max(abs(lhs), abs(rhs), 1.0)
        if not (abs(slack - (rhs - lhs)) <= 1e-9 * scale
                or abs(slack - (lhs - rhs)) <= 1e-9 * scale):
            raise CheckFailed(f"{rep['name']}: slack {slack} is not rhs - lhs")
    if bool(rep["passed"]) != _passes(rep["name"], lhs, rhs, slack, tol):
        raise CheckFailed(f"{rep['name']}: passed={rep['passed']} but slack "
                          f"{slack} against tolerance {tol}")
    return [lhs, rhs, slack, float(bool(rep["passed"]))]


def expect_passed(records) -> None:
    failed = [r["name"] for r in records if not r["passed"]]
    if failed:
        raise CheckFailed(f"checks the theory says hold came back failed: {failed}")


def record_of(r) -> dict:
    """FunctionalReport -> the dict form the CLI prints."""
    return {"name": r.name, "lhs": r.lhs, "rhs": r.rhs, "slack": r.slack,
            "passed": r.passed, "tolerance": r.tolerance}


# ------------------------------------------------------------- validity

def valid_by_closure(dist, tol: float) -> bool:
    """Quasi-metric axioms, with the triangle test via Floyd-Warshall.

    If d - closure <= tol everywhere, no triple can violate by more than
    tol.  Otherwise the rows with a shortfall are scanned for a single
    violating triple, so accumulated sub-tolerance slack is not
    mistaken for a violation.
    """
    d = np.asarray(dist, dtype=float)
    n = d.shape[0]
    off = ~np.eye(n, dtype=bool)
    if np.abs(np.diag(d)).max() > tol or (d[off] <= 0).any():
        return False
    closure = floyd_warshall(d, directed=True)
    rows = np.nonzero((d - closure).max(axis=1) > tol)[0]
    for i in rows:
        through = d[i][:, None] + d
        if (d[i][None, :] - through > tol).any():
            return False
    return True


# --------------------------------------------------------------- answers

def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def fmt_answer(answer):
    """Numbers to 12 significant digits; strings (hashes) unchanged."""
    if answer is None or isinstance(answer, str):
        return answer
    return [f"{float(x):.12g}" for x in answer]


def same_answer(a, b) -> bool:
    if isinstance(a, str) or isinstance(b, str):
        return a == b
    if len(a) != len(b):
        return False
    for x, y in zip(a, b):
        fx, fy = float(x), float(y)
        if not (x == y or _close(fx, fy, ANSWER_RTOL)):
            return False
    return True


def parse_json_report(data: bytes):
    try:
        return json.loads(data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckFailed(f"report does not parse: {exc}") from exc
