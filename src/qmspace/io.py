"""Serialization for spaces, measures, and transport problems.

Space files are JSON objects {"n", "dist", "labels"?, "coords"?} with
the distance matrix row-major; measured spaces add "weights" and an
optional "basepoint".  A CSV alternative holds the square matrix, one
row per line.  Transport problems bundle a space with "mu", "nu", "p".
"""

from __future__ import annotations

import csv
import json
import os
import tempfile

import numpy as np

from .core import MeasuredSpace, QuasiMetricSpace, SpaceError
from .transport import TransportProblem

__all__ = [
    "load_space",
    "save_space",
    "load_matrix_csv",
    "save_matrix_csv",
    "load_problem",
    "save_problem",
    "plan_triplets",
    "fmt",
    "write_atomic",
]

#: plan entries at or below this mass are left out of plan_triplets
PLAN_TOL = 1e-15


def fmt(x) -> str:
    """Render a number with 12 significant digits (diffable reports)."""
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x)).lower()
    x = float(x)
    if np.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


def write_atomic(path: str, text: str):
    """Write a file through a temp name so readers never see partials."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _plain(obj) -> QuasiMetricSpace:
    """The underlying space of a loaded space file, weights dropped."""
    return obj.space if isinstance(obj, MeasuredSpace) else obj


def _space_from_dict(obj: dict):
    if "dist" not in obj:
        raise SpaceError("space object needs a 'dist' matrix")
    dist = np.asarray(obj["dist"], dtype=float)
    n = int(obj.get("n", dist.shape[0]))
    if dist.shape != (n, n):
        raise SpaceError(f"dist shape {dist.shape} does not match n={n}")
    coords = obj.get("coords")
    if coords is not None:
        coords = np.asarray(coords, dtype=float)
    space = QuasiMetricSpace(dist, labels=obj.get("labels"), coords=coords)
    if "weights" in obj:
        bp = obj.get("basepoint")
        return MeasuredSpace(
            space,
            np.asarray(obj["weights"], dtype=float),
            basepoint=None if bp is None else int(bp),
        )
    return space


def _load_object(path: str) -> dict:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SpaceError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise SpaceError(f"{path}: expected a JSON object")
    return obj


def load_space(path: str):
    """Load a QuasiMetricSpace or MeasuredSpace from a JSON file."""
    return _space_from_dict(_load_object(path))


def _space_to_dict(space, metadata: dict | None = None) -> dict:
    if isinstance(space, MeasuredSpace):
        out = _space_to_dict(space.space)
        out["weights"] = space.weights.tolist()
        if space.basepoint is not None:
            out["basepoint"] = int(space.basepoint)
    else:
        out = {"n": space.n, "dist": space.dist.tolist()}
        if space.labels is not None:
            out["labels"] = list(space.labels)
        if space.coords is not None:
            out["coords"] = np.asarray(space.coords).tolist()
    if metadata:
        out["metadata"] = metadata
    return out


def save_space(path: str, space, metadata: dict | None = None):
    write_atomic(path, json.dumps(_space_to_dict(space, metadata), indent=1)
                 + "\n")


def load_matrix_csv(path: str) -> QuasiMetricSpace:
    """Read a square distance matrix, one row per line."""
    with open(path) as fh:
        rows = [[float(v) for v in row] for row in csv.reader(fh) if row]
    dist = np.asarray(rows, dtype=float)
    if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
        raise SpaceError(f"{path}: matrix is not square")
    return QuasiMetricSpace(dist)


def save_matrix_csv(path: str, space: QuasiMetricSpace):
    lines = [",".join(fmt(v) for v in row) for row in space.dist]
    write_atomic(path, "\n".join(lines) + "\n")


def load_problem(path: str) -> TransportProblem:
    """Load a transport problem: space JSON plus mu, nu, p."""
    obj = _load_object(path)
    for key in ("mu", "nu"):
        if key not in obj:
            raise SpaceError(f"{path}: missing '{key}'")
    return TransportProblem(
        _plain(_space_from_dict(obj)),
        np.asarray(obj["mu"], dtype=float),
        np.asarray(obj["nu"], dtype=float),
        float(obj.get("p", 1.0)),
    )


def save_problem(path: str, problem: TransportProblem):
    obj = _space_to_dict(problem.space)
    obj["mu"] = problem.mu.tolist()
    obj["nu"] = problem.nu.tolist()
    obj["p"] = problem.p
    write_atomic(path, json.dumps(obj, indent=1) + "\n")


def plan_triplets(plan: np.ndarray):
    """Sparse (i, j, mass) triplets of a coupling matrix."""
    rows, cols = np.nonzero(plan > PLAN_TOL)
    return [(int(i), int(j), float(plan[i, j])) for i, j in zip(rows, cols)]
