"""Serialization for spaces, measures, and transport problems.

Space files are JSON objects {"n", "dist", "coords"?} with the distance
matrix row-major; measured spaces add "weights" and an optional
"basepoint".  Transport problems bundle a space with "mu", "nu", "p".
Other keys ("metadata", or "labels" in older files) are ignored on load.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING

import numpy as np

from .core import MeasuredSpace, QuasiMetricSpace, SpaceError

if TYPE_CHECKING:
    from .transport import TransportProblem

__all__ = [
    "load_space",
    "save_space",
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
    """Write a file through a temp name so readers never see partials.

    The temp file sits next to ``path`` and is created with mode 0o666
    less the umask, as ``open`` would create ``path`` itself.
    """
    tmp = f"{os.path.abspath(path)}.{os.urandom(6).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
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
    space = QuasiMetricSpace(obj["dist"], coords=obj.get("coords"))
    n = obj.get("n", space.n)
    if not (isinstance(n, (int, float)) and n == space.n):
        raise SpaceError(f"dist shape {space.dist.shape} does not match n={n!r}")
    if "weights" in obj:
        return MeasuredSpace(space, obj["weights"], obj.get("basepoint"))
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


def _dumps(value, level: int = 0) -> str:
    """``json.dumps(value, indent=1)``, byte for byte, at nesting ``level``:
    the one JSON writer of space and problem files and CLI reports.

    Any ``indent`` sends json to its pure-Python encoder, which spends
    most of a space file's save on the distance matrix.  Here a list of
    finite floats is joined from ``float.__repr__``, as json writes each
    float; dicts (keys as json writes them) and other lists recurse; the
    rest, non-finite floats included, goes through ``json.dumps``."""
    inner = "\n" + " " * (level + 1)
    close = "\n" + " " * level
    if isinstance(value, (list, tuple)) and value:
        try:
            text = ("," + inner).join(map(float.__repr__, value))
        except TypeError:  # not all floats
            text = "n"
        if "n" in text:  # "nan", "inf", or not all floats
            text = ("," + inner).join(_dumps(v, level + 1) for v in value)
        return "[" + inner + text + close + "]"
    if isinstance(value, dict) and value and all(
            isinstance(k, (str, int, float)) or k is None for k in value):
        return "{" + inner + ("," + inner).join(
            json.dumps(k if isinstance(k, str) else json.dumps(k)) + ": "
            + _dumps(v, level + 1) for k, v in value.items()) + close + "}"
    return json.dumps(value)


def _space_to_dict(space, metadata: dict | None = None) -> dict:
    if isinstance(space, MeasuredSpace):
        out = _space_to_dict(space.space)
        out["weights"] = space.weights.tolist()
        if space.basepoint is not None:
            out["basepoint"] = int(space.basepoint)
    else:
        out = {"n": space.n, "dist": space.dist.tolist()}
        if space.coords is not None:
            out["coords"] = np.asarray(space.coords).tolist()
    if metadata:
        out["metadata"] = metadata
    return out


def save_space(path: str, space, metadata: dict | None = None):
    write_atomic(path, _dumps(_space_to_dict(space, metadata)) + "\n")


def load_problem(path: str) -> TransportProblem:
    """Load a transport problem: space JSON plus mu, nu, p."""
    from .transport import TransportProblem
    obj = _load_object(path)
    for key in ("mu", "nu"):
        if key not in obj:
            raise SpaceError(f"{path}: missing '{key}'")
    p = obj.get("p", 1.0)
    if not isinstance(p, (int, float)):
        raise SpaceError(f"{path}: 'p' must be a number, got {p!r}")
    return TransportProblem(_plain(_space_from_dict(obj)), obj["mu"],
                            obj["nu"], float(p))


def save_problem(path: str, problem: TransportProblem):
    obj = _space_to_dict(problem.space)
    obj["mu"] = problem.mu.tolist()
    obj["nu"] = problem.nu.tolist()
    obj["p"] = problem.p
    write_atomic(path, _dumps(obj) + "\n")


def plan_triplets(plan: np.ndarray):
    """Sparse (i, j, mass) triplets of a coupling matrix."""
    rows, cols = np.nonzero(plan > PLAN_TOL)
    return [(int(i), int(j), float(plan[i, j])) for i, j in zip(rows, cols)]
