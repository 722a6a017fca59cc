"""Seeded inputs and fixed operation lists of the three workloads.

Each workload has ``build(seed, workdir)``, which makes every input from
the seed alone (the same seed gives byte-identical inputs), and
``ops(inputs)``, the fixed list of operations one repetition runs.  An
operation's ``call`` is the timed part; its ``check`` runs untimed,
verifies the answer with ``checks`` and returns the answer to record.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import qmspace as qm
from qmspace import cli as qm_cli, io as qm_io

import checks
from checks import CheckFailed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
LAUNCHER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "launcher.py")

INF = math.inf


@dataclass
class Op:
    name: str
    call: Callable[[Any], Any]          # receives the tracer or None
    check: Callable[[Any, dict], Any]   # (result, this rep's answers) -> answer
    cli: bool = False
    #: the W_p problems (dist, mu, nu, p) the operation solves, made on
    #: demand; only a marginal-drift failure needs them (``checks.known_defect``)
    problems: Callable[[], list] | None = None


def _normalize(w):
    return w / w.sum()


def _sparse(rng, n, atoms):
    w = np.zeros(n)
    w[rng.choice(n, atoms, replace=False)] = rng.random(atoms) + 0.1
    return _normalize(w)


def _substream(rng) -> int:
    return int(rng.integers(2 ** 31))


def _optimum(cache: dict, key, dist, mu, nu, p) -> float:
    """``checks.optimum``, solved once per run for each problem."""
    if key not in cache:
        cache[key] = checks.optimum(dist, mu, nu, p)
    return cache[key]


#: Every workload is a fixed base instance, drawn once from BASE_SEED,
#: that the run's seed jitters: each weight is multiplied by a seeded
#: factor in [1, 1 + JITTER).  Every seed thus poses different problems
#: of the same shape and difficulty.  Drawing whole instances from the
#: seed instead moves the simplex iteration count of one LP by up to 3x
#: (smooth densities) and of the transport-mix list by about 7%.
BASE_SEED = 20210626
JITTER = 0.02

#: (frequency, decay, phase) of the smooth base densities
SHAPES = [(1.3, 0.7, 1.0), (0.8, 1.1, 4.0), (1.7, 0.3, 2.5), (0.6, 1.4, 5.5)]


def _jitter(w, rng):
    return _normalize(w * (1.0 + JITTER * rng.random(len(w))))


def _density(ms, rng, shape):
    """Smooth probability vector wrt ms.weights, jittered by the seed."""
    c = np.asarray(ms.space.coords, dtype=float).reshape(ms.n, -1)
    span = c.max(axis=0) - c.min(axis=0)
    span[span == 0] = 1.0
    x = ((c - c.min(axis=0)) / span).mean(axis=1)
    a, b, ph = shape
    rho = 1.0 + 0.5 * np.sin(2.0 * np.pi * a * x + ph) * np.exp(-b * x)
    return _jitter(rho * ms.weights, rng)


# ---------------------------------------------------------- transport-mix

#: (space, marginal kind, p, direction, scale) of each W_p solve
W_SOLVES = [
    ("A200", "dense", 1, "fwd", None),
    ("A200", "dense", 2, "bwd", None),
    ("A200", "dense", 3, "fwd", None),
    ("A200", "sparse", 2, "fwd", None),
    ("A200", "skewed", 1, "bwd", None),
    ("A200", "skewed", 2, "fwd", None),
    ("A200", "skewed", 3, "fwd", None),
    ("A200", "dense", 2, "bwd", 1e-6),
    ("A200", "dense", 2, "bwd", 1e6),
    ("A200", "dense", 1, "fwd", 1e-6),
    ("A200", "dense", 1, "fwd", 1e6),
    ("B300", "dense", 1, "fwd", None),
    ("B300", "skewed", 2, "bwd", None),
    ("C150r6", "dense", 3, "fwd", None),
    ("C150r6", "dense", 1, "bwd", None),
    ("C150r6", "skewed", 2, "fwd", None),
    ("C150r6", "sparse", 3, "bwd", None),
]

#: name -> (points, clip radius) of the Funk samples
FUNK_SPACES = {"A200": (200, 1.0), "B300": (300, 1.0),
               "C150r6": (150, 6.0), "D100": (100, 1.0)}


def transport_build(seed: int, workdir: str) -> dict:
    base, rng = np.random.default_rng([BASE_SEED, 1]), np.random.default_rng([seed, 1])
    spaces, marginals = {}, {}
    for key, (n, radius) in FUNK_SPACES.items():
        ms = qm.sample(qm.FunkBall(dim=2), qm.SampleSpec(
            strategy="seeded-uniform", count=n, seed=_substream(base),
            clip_radius=radius))
        spaces[key] = ms.space
        marginals[key] = {
            "mu": _jitter(base.random(n), rng),
            "nu": _jitter(base.random(n), rng),
            "sparse": _jitter(_sparse(base, n, 20), rng),
            "skewed": _jitter(base.random(n) ** 4, rng),
        }
        if key == "A200":
            a200 = ms
    for k in (1e-6, 1e6):
        spaces[f"A200x{k:g}"] = qm.rescale(a200, k).space
    return {"spaces": spaces, "marginals": marginals, "a200": a200}


def _w_name(space, kind, p, direction, scale):
    tag = space if scale is None else f"{space}x{scale:g}"
    return f"w/{tag}/{kind}/p{p}/{direction}"


def transport_ops(inp: dict) -> list:
    ops, best = [], {}
    for space, kind, p, direction, scale in W_SOLVES:
        m = inp["marginals"][space]
        src = m["mu"] if kind == "dense" else m[kind]
        mu, nu = (src, m["nu"]) if direction == "fwd" else (m["nu"], src)
        qms = inp["spaces"][space if scale is None else f"{space}x{scale:g}"]
        name = _w_name(space, kind, p, direction, scale)
        base = None if scale is None else _w_name(space, kind, p, direction, None)

        def call(_tracer, qms=qms, mu=mu, nu=nu, p=p):
            return qm.wasserstein(qm.TransportProblem(qms, mu, nu, float(p)))

        def check(result, done, qms=qms, mu=mu, nu=nu, p=p, scale=scale, base=base,
                  name=name):
            value, coupling = result
            answer = checks.coupling_value(qms.dist, mu, nu, p, value, coupling.matrix)
            if scale is None:
                checks.optimal(value, _optimum(best, name, qms.dist, mu, nu, p))
            else:  # against the unscaled problem's optimum, solved here
                base_dist = inp["spaces"][space].dist
                checks.scaled(value, scale, _optimum(best, base, base_dist, mu, nu, p))
            return answer

        ops.append(Op(name, call, check, problems=lambda qms=qms, mu=mu, nu=nu, p=p: [(qms.dist, mu, nu, p)]))

    d100, md = inp["spaces"]["D100"], inp["marginals"]["D100"]

    def kr_call(_tracer):
        prob = qm.TransportProblem(d100, md["mu"], md["nu"], 1.0)
        primal, coupling = qm.wasserstein(prob)
        dual, psi = qm.kr_dual(prob)
        return primal, coupling, dual, psi

    def kr_check(result, _done):
        primal, coupling, dual, psi = result
        checks.coupling_value(d100.dist, md["mu"], md["nu"], 1, primal, coupling.matrix)
        checks.kr_pair(d100.dist, md["mu"], md["nu"], primal, dual, psi)
        return [primal, dual]

    ops.append(Op("kr_dual/D100/dense/p1", kr_call, kr_check,
                  problems=lambda: [(d100.dist, md["mu"], md["nu"], 1)]))

    a200, ma = inp["a200"], inp["marginals"]["A200"]

    def theta(r):
        return 2.0 * math.exp(r) - 1.0

    def asym_call(_tracer):
        return qm.asymmetry_bound_check(a200, ma["mu"], ma["nu"], p=2.0, q=1.0,
                                     theta_fn=theta)

    def asym_check(rep, _done):
        d, dist, mu, nu = rep.details, a200.space.dist, ma["mu"], ma["nu"]
        star = dist[a200.basepoint] ** 2.0 @ mu
        checks.optimal(d["w_p_star_mu"], star ** 0.5, "W_2(delta, mu)")
        checks.optimal(d["w_p_mu_nu"], _optimum(best, "asym/p2", dist, mu, nu, 2.0),
                       "W_2(mu, nu)")
        checks.optimal(rep.lhs, _optimum(best, "asym/q1", dist, nu, mu, 1.0),
                       "W_1(nu, mu)")
        if not math.isclose(d["theta"], theta(d["w_p_star_mu"] + d["w_p_mu_nu"]),
                            rel_tol=1e-12):
            raise CheckFailed("theta is not theta_fn(W_p(delta, mu) + W_p(mu, nu))")
        if not math.isclose(rep.rhs, d["theta"] * d["w_p_mu_nu"], rel_tol=1e-12):
            raise CheckFailed("rhs is not theta * W_p(mu, nu)")
        record = {"name": "asymmetry", "lhs": rep.lhs, "rhs": rep.rhs,
                  "slack": rep.slack, "passed": rep.passed, "tolerance": rep.tolerance}
        answer = checks.bound_report(record)
        checks.expect_passed([record])
        return answer

    def asym_problems():
        delta = np.zeros(a200.n)
        delta[a200.basepoint] = 1.0
        dist, mu, nu = a200.space.dist, ma["mu"], ma["nu"]
        return [(dist, delta, mu, 2), (dist, mu, nu, 2), (dist, nu, mu, 1)]

    ops.append(Op("asymmetry/A200/dense/p2q1", asym_call, asym_check,
                  problems=asym_problems))
    return ops


# --------------------------------------------------------------- cd-check

def flat_grid(pitch: float):
    axis = np.arange(0.0, 1.0 + 1e-12, pitch)
    pts = np.array([(x, y) for x in axis for y in axis])
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    center = int(np.argmin(np.linalg.norm(pts - 0.5, axis=1)))
    return qm.MeasuredSpace(qm.QuasiMetricSpace(dist, coords=pts),
                         np.full(len(pts), 1.0 / len(pts)), basepoint=center)


def cd_build(seed: int, workdir: str) -> dict:
    rng = np.random.default_rng([seed, 2])
    grid = flat_grid(1.0 / 15.0)
    gauss = qm.gaussian_line(1.0, 2.5, 0.025)
    pts = grid.space.coords

    def blob(lo, hi):
        c = rng.uniform(lo, hi, size=2)
        return np.nonzero(np.linalg.norm(pts - c, axis=1) <= 0.12)[0]

    return {
        "grid": grid, "gauss": gauss,
        "grid_H": [_density(grid, rng, SHAPES[i]) for i in (0, 1)],
        "grid_U2": [_density(grid, rng, SHAPES[i]) for i in (2, 3)],
        "gauss_H": [_density(gauss, rng, SHAPES[i]) for i in (0, 1)],
        "gauss_mu": _density(gauss, rng, SHAPES[2]),
        "gauss_f": rng.standard_normal(gauss.n),
        "A0": blob(0.2, 0.35), "A1": blob(0.65, 0.8),
    }


def _hwi_problem(ms, mu):
    """The order-2 W the inequality suite's HWI check solves."""
    nu = ms.normalized().weights
    return ms.space.dist, mu, nu, 2


def _reports(reports, _done):
    """Consistent reports; the verdicts are part of the answer."""
    return [x for r in reports for x in checks.bound_report(checks.record_of(r))]


def _reports_passed(reports, done):
    """As ``_reports``, and every check holds, as theory and the acceptance
    suite say it does for these spaces."""
    answer = _reports(reports, done)
    checks.expect_passed([checks.record_of(r) for r in reports])
    return answer


def cd_ops(inp: dict) -> list:
    ts = (0.25, 0.5, 0.75)
    grid, gauss = inp["grid"], inp["gauss"]
    calls = [
        ("cd/grid256/H/K0", lambda _t: qm.cd_check(
            grid, *inp["grid_H"], 0.0, INF, qm.entropy_nonlinearity(), ts),
         lambda: [(grid.space.dist, *inp["grid_H"], 2)]),
        ("cd/grid256/U2/K0", lambda _t: qm.cd_check(
            grid, *inp["grid_U2"], 0.0, 2.0, qm.un_nonlinearity(2.0), ts),
         lambda: [(grid.space.dist, *inp["grid_U2"], 2)]),
        ("cd/gauss201/H/K1", lambda _t: qm.cd_check(
            gauss, *inp["gauss_H"], 1.0, INF, qm.entropy_nonlinearity(), ts),
         lambda: [(gauss.space.dist, *inp["gauss_H"], 2)]),
        ("ineq/gauss201/K1", lambda _t: qm.functional_inequality_suite(
            gauss, 1.0, INF, mu=inp["gauss_mu"], f=inp["gauss_f"]),
         lambda: [_hwi_problem(gauss, inp["gauss_mu"])]),
        ("brunn_minkowski/grid256/N2", lambda _t: [qm.brunn_minkowski_check(
            grid, inp["A0"], inp["A1"], 0.5, 0.0, 2.0)], None),
        ("bishop_gromov/grid256/N2", lambda _t: [qm.bishop_gromov_profile(
            grid, grid.basepoint, 0.0, 2.0, np.arange(0.1, 0.45, 0.05))], None),
    ]
    return [Op(name, call, _reports_passed if name.startswith(("cd/", "ineq/"))
               else _reports, problems=problems) for name, call, problems in calls]


# -------------------------------------------------------------- cli-batch

TORUS_PITCH = 2.0 * math.pi / 5.0  # 5 x 5 grid
PROKHOROV_POINTS = 61
USER_TOL = 1e-6                    # the CLI's default --tol


def _write_json(path: str, obj: dict):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def cli_build(seed: int, workdir: str) -> dict:
    base, rng = np.random.default_rng([BASE_SEED, 3]), np.random.default_rng([seed, 3])
    os.makedirs(workdir, exist_ok=True)
    pk = qm.sample(qm.FunkBall(dim=2), qm.SampleSpec(
        strategy="seeded-uniform", count=PROKHOROV_POINTS, seed=_substream(base)))
    for name in ("pk_a.json", "pk_b.json"):
        _write_json(os.path.join(workdir, name), {
            "n": pk.n, "dist": pk.space.dist.tolist(),
            "weights": _jitter(base.random(pk.n), rng).tolist(), "basepoint": 0})
    prob = qm.sample(qm.FunkBall(dim=2), qm.SampleSpec(
        strategy="seeded-uniform", count=200, seed=_substream(base)))
    mu, nu = _jitter(base.random(prob.n), rng), _jitter(base.random(prob.n), rng)
    _write_json(os.path.join(workdir, "problem.json"), {
        "n": prob.n, "dist": prob.space.dist.tolist(),
        "mu": mu.tolist(), "nu": nu.tolist(), "p": 2.0})
    return {"seed": seed, "workdir": workdir,
            "problem": (prob.space.dist, mu, nu, 2.0)}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


@dataclass
class CliResult:
    code: int
    stdout: bytes
    stderr: bytes
    output: bytes | None
    maxrss_kb: int


def run_cli(argv: list, workdir: str, tracer=None, output: str | None = None) -> CliResult:
    """Run one qmspace command as a fresh process and wait for it.

    Untraced, it is ``python -m qmspace.cli``; traced, the benchmark's
    launcher runs the same entry point with the wrappers installed and
    hands its spans back through a file.
    """
    out_path = os.path.join(workdir, "cli.stdout")
    err_path = os.path.join(workdir, "cli.stderr")
    spans_path = os.path.join(workdir, "cli.spans")
    if tracer is None:
        cmd = [sys.executable, "-m", "qmspace.cli", *argv]
    else:
        cmd = [sys.executable, LAUNCHER, spans_path, *argv]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(cmd, cwd=workdir, env=_child_env(),
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "rb") as fh:
        stdout = fh.read()
    with open(err_path, "rb") as fh:
        stderr = fh.read()
    data = None
    if output is not None and os.path.exists(os.path.join(workdir, output)):
        with open(os.path.join(workdir, output), "rb") as fh:
            data = fh.read()
    if tracer is not None and os.path.exists(spans_path):
        with open(spans_path) as fh:
            tracer.adopt([json.loads(line) for line in fh], tracer.current_id())
        os.unlink(spans_path)
    return CliResult(proc.returncode, stdout, stderr, data, usage.ru_maxrss)


def _load_space_file(data: bytes):
    obj = checks.parse_json_report(data)
    d = np.asarray(obj["dist"], dtype=float)
    if d.shape != (obj["n"], obj["n"]):
        raise CheckFailed(f"space file dist has shape {d.shape}, n = {obj['n']}")
    return obj, d


def _iso_defect_of(dx, dy, a) -> float:
    """Distortion and forward covering gap of the map a: X -> Y."""
    dis = np.abs(dy[np.ix_(a, a)] - dx).max()
    cover = dy[a, :].min(axis=0).max()
    return float(max(dis, cover))


def cli_ops(inp: dict) -> list:
    seed, wd, cache = str(inp["seed"]), inp["workdir"], inp.setdefault("cache", {})

    def space(name):
        """Distance matrix of a file the commands wrote, loaded once per content."""
        with open(os.path.join(wd, name), "rb") as fh:
            data = fh.read()
        key = checks.sha256(data)
        if key not in cache:
            d = _load_space_file(data)[1]
            cache[key] = d, checks.valid_by_closure(d, USER_TOL)
        return cache[key]

    def gen_check(n_expect):
        def check(res, _done):
            obj, _ = _load_space_file(res.output or b"")
            if n_expect is not None and obj["n"] != n_expect:
                raise CheckFailed(f"expected {n_expect} points, got {obj['n']}")
            return checks.sha256(res.output)
        return check

    def validate_check(res, _done):
        rep = checks.parse_json_report(res.stdout)
        valid = space("funk.json")[1]
        if rep["valid"] is not valid:
            raise CheckFailed(f"valid={rep['valid']} but the closure says {valid}")
        return rep

    def validate_answer(res, done):
        validate_check(res, done)
        return checks.sha256(res.stdout)

    def report_check(res, done):
        rep = validate_check(res, done)
        d = space("funk.json")[0]
        off = ~np.eye(len(d), dtype=bool)
        expect = {"n": len(d), "diameter": float(d.max()),
                  "reversibility": float((d[off] / d.T[off]).max())}
        for key, value in expect.items():
            if not math.isclose(rep[key], value, rel_tol=1e-11):
                raise CheckFailed(f"report {key}={rep[key]} but the file gives {value}")
        return checks.sha256(res.stdout)

    def prokhorov_check(res, _done):
        rep = checks.parse_json_report(res.stdout)
        if not 0.0 <= rep["value"] <= 1.0:
            raise CheckFailed(f"Prokhorov distance {rep['value']} outside [0, 1]")
        return checks.sha256(res.stdout)

    def gh_check(res, _done):
        rep = checks.parse_json_report(res.stdout)
        da, db = space("torus_a.json")[0], space("torus_b.json")[0]
        a = np.asarray(rep["witness_map"], dtype=int)
        m = rep["upper"] / 2.0
        defects = [_iso_defect_of(dx, dy, a) for dx, dy in ((da, db), (db, da))
                   if len(a) == len(dx) and a.max() < len(dy)]
        if not any(math.isclose(m, x, rel_tol=1e-11) for x in defects):
            raise CheckFailed(f"upper/2 = {m} is not the witness map's defect {defects}")
        if not math.isclose(rep["lower"], m / (1.0 + rep["theta"]), rel_tol=1e-11):
            raise CheckFailed("lower is not defect / (1 + theta)")
        return checks.sha256(res.stdout)

    def ghp_check(res, _done):
        rep = checks.parse_json_report(res.stdout)
        if not 0.0 <= rep["upper"] < INF:
            raise CheckFailed(f"ghp upper bound {rep['upper']} is not finite")
        return checks.sha256(res.stdout)

    def w_check(res, _done):
        rep = checks.parse_json_report(res.stdout)
        d, mu, nu, p = inp["problem"]
        plan = np.zeros_like(d)
        for t in rep["plan"]:
            plan[t["i"], t["j"]] = t["mass"]
        checks.coupling_value(d, mu, nu, p, rep["value"], plan)
        checks.optimal(rep["value"], _optimum(cache, "problem", d, mu, nu, p))
        return checks.sha256(res.stdout)

    def reports_check(res, _done):
        records = checks.parse_json_report(res.stdout)
        for r in records:
            checks.bound_report(r)
        checks.expect_passed(records)
        return checks.sha256(res.stdout)

    commands = [
        ("gen/funk", ["gen", "funk", "--strategy", "radial-shells", "--count", "400",
                      "--clip-r", "1", "-o", "funk.json"], "funk.json", gen_check(401)),
        ("gen/torus-b0.5", ["gen", "randers-torus", "--b", "0.5", "--grid",
                            repr(TORUS_PITCH), "-o", "torus_a.json"],
         "torus_a.json", gen_check(25)),
        ("gen/torus-b0.333", ["gen", "randers-torus", "--b", repr(1.0 / 3.0),
                              "--grid", repr(TORUS_PITCH), "-o", "torus_b.json"],
         "torus_b.json", gen_check(25)),
        ("gen/gaussian-line", ["gen", "gaussian-line", "--K", "1", "--half-width",
                               "2.5", "--grid", "0.04", "-o", "gauss.json"],
         "gauss.json", gen_check(125)),
        ("validate/funk401", ["validate", "funk.json"], None, validate_answer),
        ("report/funk401", ["report", "funk.json"], None, report_check),
        (f"dist/prokhorov/funk{PROKHOROV_POINTS}", ["dist", "prokhorov", "pk_a.json", "pk_b.json"],
         None, prokhorov_check),
        ("dist/gh/torus25", ["dist", "gh", "torus_a.json", "torus_b.json",
                             "--theta", "3", "--seed", seed], None, gh_check),
        ("dist/ghp/torus25", ["dist", "ghp", "torus_a.json", "torus_b.json",
                              "--theta", "3", "--seed", seed], None, ghp_check),
        ("dist/w/funk200/p2", ["dist", "w", "problem.json"], None, w_check),
        ("cd-check/gauss125/K1", ["cd-check", "gauss.json", "--K", "1", "--U", "H",
                                  "--seed", seed], None, reports_check),
        ("ineq/gauss125/K1", ["ineq", "gauss.json", "--K", "1", "--log-sobolev",
                              "--poincare", "--seed", seed], None, reports_check),
    ]

    def gauss_densities():
        """The density pair cd-check and ineq draw from --seed, as they load the file."""
        ms = qm_io.load_space(os.path.join(wd, "gauss.json")).normalized()
        return ms, qm_cli._density_pair(ms, inp["seed"])

    def cd_problems():
        ms, (mu0, mu1) = gauss_densities()
        return [(ms.space.dist, mu0, mu1, 2)]

    def ineq_problems():
        ms, (mu, _) = gauss_densities()
        return [_hwi_problem(ms, mu)]

    problems = {"dist/w/funk200/p2": lambda: [inp["problem"]],
                "cd-check/gauss125/K1": cd_problems, "ineq/gauss125/K1": ineq_problems}

    ops = []
    for name, argv, output, check in commands:
        def call(tracer, argv=argv, output=output):
            return run_cli(argv, wd, tracer, output)

        def checked(res, done, check=check):
            if res.code != 0:
                msg = res.stderr.decode(errors="replace").strip()
                raise CheckFailed(f"exit code {res.code}, expected 0: {msg}")
            return check(res, done)

        ops.append(Op(name, call, checked, cli=True, problems=problems.get(name)))
    return ops


#: name -> (build, ops).  Each layer does most of its work in one workload
#: and little or none in another:
#: - cli-batch: README-style commands as fresh processes, the only workload
#:   that pays ``import qmspace`` and n^2 JSON load/save per operation;
#:   core.validate and ghdist do most of its work, the LP little.
#: - transport-mix: exact W_p on asymmetric Funk costs with dense, sparse
#:   and skewed marginals and rescaled copies; the LP takes over 90% of the
#:   time while core, ghdist and curvature sit idle.
#: - cd-check: a few big symmetric order-2 LPs on smooth marginals, then
#:   chain planning, interpolation and per-pair functionals; the only
#:   workload where curvature runs its own code.
WORKLOADS = {
    "cli-batch": (cli_build, cli_ops),
    "transport-mix": (transport_build, transport_ops),
    "cd-check": (cd_build, cd_ops),
}
