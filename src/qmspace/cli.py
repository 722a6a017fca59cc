"""Command-line batch interface.

Subcommands: gen, validate, dist, cd-check, ineq, report.  Every
command is a pure function of its inputs, flags, and seed, so repeated
runs write byte-identical reports.  Exit codes: 0 success or all
checks passed, 1 a checked property failed, 2 usage or parse error.
All numbers are printed with 12 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

import numpy as np

from . import core
from .io import (
    _dumps,
    _plain,
    fmt,
    load_problem,
    load_space,
    plan_triplets,
    save_space,
    write_atomic,
)

USAGE_ERROR = 2
CHECK_FAILED = 1


def _jsonable(x):
    """Round numbers to 12 digits and sort dict keys, for stable reports."""
    if isinstance(x, dict):
        return {k: _jsonable(x[k]) for k in sorted(x)}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isinf(x) or math.isnan(x):
            return fmt(x)
        return float(fmt(x))
    return x


def _report_text(obj, fmt_name: str) -> str:
    obj = _jsonable(obj)
    if fmt_name == "json":
        return _dumps(obj) + "\n"
    # csv: flat list of records only
    rows = obj if isinstance(obj, list) else [obj]
    keys = sorted({k for r in rows for k in r if not isinstance(r[k], (dict, list))})
    lines = [",".join(keys)]
    for r in rows:
        lines.append(",".join(
            fmt(r[k]) if isinstance(r.get(k), float) else str(r.get(k, ""))
            for k in keys))
    return "\n".join(lines) + "\n"


def _emit(report, args) -> None:
    text = _report_text(report, args.format)
    if args.output:
        write_atomic(args.output, text)
    else:
        sys.stdout.write(text)


def _build_model(args):
    from . import models
    if args.model == "funk":
        return models.FunkBall(dim=args.dim)
    if args.model == "randers-torus":
        return models.RandersTorus(dim=args.dim, b=args.b)
    # randers-ball; cmd_gen builds gaussian-line itself
    a = tuple(args.a) if args.a else tuple([0.0] * args.dim)
    if len(a) != args.dim:
        raise core.SpaceError("drift vector length must equal --dim")
    return models.RandersBall(dim=args.dim, a=a)


def cmd_gen(args) -> int:
    from . import models
    if args.model == "gaussian-line":
        ms = models.gaussian_line(args.K, args.half_width, args.grid)
        meta = {"model": "gaussian-line", "K": args.K,
                "half_width": args.half_width, "pitch": args.grid}
        save_space(args.output, ms, metadata=meta)
        return 0
    model = _build_model(args)
    spec = models.SampleSpec(
        strategy=args.strategy, pitch=args.grid, count=args.count,
        seed=args.seed, clip_radius=args.clip_r,
    )
    ms = models.sample(model, spec, weights=args.weights,
                       normalize=args.normalize)
    meta = {
        "model": args.model, "dim": args.dim, "strategy": args.strategy,
        "seed": args.seed, "clip_radius": args.clip_r,
        "reversibility": float(fmt(core.reversibility(ms.space))),
    }
    if args.model == "randers-torus":
        meta["b"] = args.b
    if args.model == "randers-ball":
        meta["a"] = list(model.a)
    save_space(args.output, ms, metadata=meta)
    return 0


def cmd_validate(args) -> int:
    if args.max_listed < 0:
        raise core.SpaceError("--max-listed must be nonnegative")
    report = core.validate(_plain(load_space(args.file)), tol=args.tol)
    _emit({"valid": report.passed, "tol": report.tolerance,
           **{k: v[:args.max_listed] for k, v in report.details.items()}}, args)
    return 0 if report.passed else CHECK_FAILED


def _as_measured(obj, what: str) -> core.MeasuredSpace:
    if isinstance(obj, core.MeasuredSpace):
        return obj
    raise core.SpaceError(f"{what} needs a measured space file with weights")


def cmd_dist(args) -> int:
    if args.kind == "w":
        from . import transport
        prob = load_problem(args.file)
        value, coupling = transport.wasserstein(prob)
        plan = [{"i": i, "j": j, "mass": m}
                for i, j, m in plan_triplets(coupling.matrix)]
        _emit({"kind": "w", "p": prob.p, "value": value, "plan": plan}, args)
        return 0

    from . import ghdist
    a = load_space(args.file)
    if args.kind == "hausdorff":
        if args.set_a is None or args.set_b is None:
            raise core.SpaceError("dist hausdorff requires --set-a and --set-b")
        value = ghdist.hausdorff(_plain(a), args.set_a, args.set_b)
        _emit({"kind": "hausdorff", "value": value}, args)
        return 0
    b = load_space(args.other)
    if args.kind == "gh":
        if args.theta is None:
            raise core.SpaceError("dist gh requires --theta")
        br = ghdist.gh_bracket(_plain(a), _plain(b), args.theta, seed=args.seed)
        _emit({
            "kind": "gh", "lower": br.lower, "upper": br.upper,
            "theta": br.theta, "heuristic": br.heuristic,
            "witness_map": br.witness_map.assignment.tolist(),
        }, args)
        return 0
    if args.kind == "ghp":
        if args.theta is None:
            raise core.SpaceError("dist ghp requires --theta")
        value = ghdist.ghp_upper(
            _as_measured(a, "ghp"), _as_measured(b, "ghp"),
            args.theta, seed=args.seed,
        )
        _emit({"kind": "ghp", "upper": value, "theta": args.theta}, args)
        return 0
    # prokhorov, the last of the parser's choices
    ma = _as_measured(a, "prokhorov")
    mb = _as_measured(b, "prokhorov")
    if not np.array_equal(ma.space.dist, mb.space.dist):
        raise core.SpaceError(
            "prokhorov compares two measures on one space: "
            "distance matrices differ")
    value = ghdist.prokhorov(ma.space, ma.weights, mb.weights)
    _emit({"kind": "prokhorov", "value": value}, args)
    return 0


def _nonlinearity(name: str):
    from . import curvature
    if name == "H":
        return curvature.entropy_nonlinearity()
    if name.startswith("U"):
        try:
            return curvature.un_nonlinearity(float(name[1:]))
        except ValueError:
            pass
    if name.startswith("P"):
        try:
            return curvature.power_nonlinearity(float(name[1:]))
        except ValueError:
            pass
    raise core.SpaceError(
        f"unsupported nonlinearity {name!r} (use H, U<N>, or P<m>)")


def _density_pair(ms: core.MeasuredSpace, seed: int):
    """Two seeded smooth probability densities against the weights."""
    rng = np.random.default_rng(seed)
    n = ms.n
    x = np.arange(n) / max(n - 1, 1)
    if ms.space.coords is not None:
        c = np.asarray(ms.space.coords, dtype=float)
        span = c.max(axis=0) - c.min(axis=0)
        span[span == 0] = 1.0
        x = ((c - c.min(axis=0)) / span).mean(axis=1)
    out = []
    for _ in range(2):
        a, b = rng.uniform(0.5, 2.0, size=2)
        ph = rng.uniform(0, 2 * np.pi)
        rho = 1.0 + 0.5 * np.sin(2 * np.pi * a * x + ph) * np.exp(-b * x)
        w = rho * ms.weights
        out.append(w / w.sum())
    return out


def _weights_flag(text: str, n: int, flag: str) -> np.ndarray:
    """The n weights that the JSON array ``text`` of ``flag`` gives;
    SpaceError naming the flag if it is no such array."""
    try:
        weights = json.loads(text)
    except json.JSONDecodeError as exc:
        raise core.SpaceError(f"{flag} is not valid JSON: {exc}") from None
    return core._measure(weights, n, flag)


def cmd_cd(args) -> int:
    from . import curvature
    ms = _as_measured(load_space(args.file), "cd-check").normalized()
    U = _nonlinearity(args.U)
    N = float(args.N)
    if (args.mu0 is None) != (args.mu1 is None):
        raise core.SpaceError("--mu0 and --mu1 must be given together")
    if args.mu0 is not None:
        mu0 = _weights_flag(args.mu0, ms.n, "--mu0")
        mu1 = _weights_flag(args.mu1, ms.n, "--mu1")
    else:
        mu0, mu1 = _density_pair(ms, args.seed)
    reports = curvature.cd_check(ms, mu0, mu1, args.K, N, U, args.ts)
    _emit([asdict(r) for r in reports], args)
    return 0 if all(r.passed for r in reports) else CHECK_FAILED


def cmd_ineq(args) -> int:
    from . import curvature
    ms = _as_measured(load_space(args.file), "ineq").normalized()
    N = float(args.N)
    if args.K <= 0 and (args.poincare or args.log_sobolev):
        raise core.SpaceError(
            "Poincare and log-Sobolev flags require K > 0")
    mu = None
    f = None
    if args.log_sobolev or args.hwi:
        mu, _ = _density_pair(ms, args.seed)
    if args.poincare:
        rng = np.random.default_rng(args.seed)
        f = rng.standard_normal(ms.n)
    reports = curvature.functional_inequality_suite(ms, args.K, N, mu=mu, f=f)
    _emit([asdict(r) for r in reports], args)
    return 0 if all(r.passed for r in reports) else CHECK_FAILED


def cmd_report(args) -> int:
    """One-stop summary of a space file: validity, reversibility, size."""
    obj = load_space(args.file)
    space = _plain(obj)
    rep = core.validate(space, tol=args.tol)
    out = {
        "n": space.n,
        "valid": rep.passed,
        "triangle_violations": len(rep.details["triangle_violations"]),
        "reversibility": core.reversibility(space),
        "diameter": core.diameter(space),
    }
    if isinstance(obj, core.MeasuredSpace):
        out["total_mass"] = float(obj.weights.sum())
        if obj.basepoint is not None:
            out["basepoint"] = int(obj.basepoint)
    _emit(out, args)
    return 0 if rep.passed else CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmspace",
        description="quasi-metric measure spaces: generation, distances, "
                    "and displacement-convexity checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--output", "-o", default=None)
        p.add_argument("--seed", type=int, default=0)

    g = sub.add_parser("gen", help="generate a model space file")
    g.add_argument("model", choices=["funk", "randers-torus", "randers-ball",
                                     "gaussian-line"])
    g.add_argument("--dim", type=int, default=2)
    g.add_argument("--grid", type=float, default=None,
                   help="sampling pitch")
    g.add_argument("--count", type=int, default=None)
    g.add_argument("--strategy", default="grid",
                   choices=["grid", "radial-shells", "seeded-uniform"])
    g.add_argument("--clip-r", type=float, default=1.0)
    g.add_argument("--b", type=float, default=0.5)
    g.add_argument("--a", type=float, nargs="*", default=None)
    g.add_argument("--K", type=float, default=1.0)
    g.add_argument("--half-width", type=float, default=3.0)
    g.add_argument("--weights", choices=["uniform", "lebesgue"],
                   default="lebesgue")
    g.add_argument("--normalize", action="store_true")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--output", "-o", required=True)
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("validate", help="check quasi-metric axioms")
    v.add_argument("file")
    v.add_argument("--tol", type=float, default=core.USER_TOL)
    v.add_argument("--max-listed", type=int, default=100)
    common(v)
    v.set_defaults(func=cmd_validate)

    d = sub.add_parser("dist", help="distances between spaces or measures")
    d.add_argument("kind", choices=["gh", "hausdorff", "prokhorov", "ghp", "w"])
    d.add_argument("file")
    d.add_argument("other", nargs="?", default=None)
    d.add_argument("--theta", type=float, default=None)
    d.add_argument("--set-a", type=int, nargs="*", default=None)
    d.add_argument("--set-b", type=int, nargs="*", default=None)
    common(d)
    d.set_defaults(func=cmd_dist)

    c = sub.add_parser("cd-check", help="displacement-convexity check")
    c.add_argument("file")
    c.add_argument("--K", type=float, required=True)
    c.add_argument("--N", default="inf")
    c.add_argument("--U", default="H")
    c.add_argument("--ts", nargs="+", default=["0.25", "0.5", "0.75"])
    c.add_argument("--mu0", default=None, help="JSON array of weights")
    c.add_argument("--mu1", default=None, help="JSON array of weights")
    common(c)
    c.set_defaults(func=cmd_cd)

    q = sub.add_parser("ineq", help="functional inequality suite")
    q.add_argument("file")
    q.add_argument("--K", type=float, required=True)
    q.add_argument("--N", default="inf")
    q.add_argument("--log-sobolev", action="store_true")
    q.add_argument("--hwi", action="store_true")
    q.add_argument("--poincare", action="store_true")
    common(q)
    q.set_defaults(func=cmd_ineq)

    r = sub.add_parser("report", help="summary report of a space file")
    r.add_argument("file")
    r.add_argument("--tol", type=float, default=core.USER_TOL)
    common(r)
    r.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        checks_needing_other = {"gh", "ghp", "prokhorov"}
        if args.command == "dist" and args.kind in checks_needing_other \
                and args.other is None:
            raise core.SpaceError(f"dist {args.kind} needs two space files")
        return args.func(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize --help to 0
        return int(exc.code or 0)
    except (OSError, ValueError) as exc:  # SpaceError and JSONDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
