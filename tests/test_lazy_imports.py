"""scipy is imported on first use and networkx not at all, and every
solver call resolves through a module-level name that a caller can
replace."""

import collections
import json
import os
import subprocess
import sys

import numpy as np

import qmspace
from qmspace import core, ghdist, transport
from qmspace.core import QuasiMetricSpace
from qmspace.transport import TransportProblem

SRC = os.path.dirname(os.path.dirname(os.path.abspath(qmspace.__file__)))

CHILD = """
import json, os, sys, tempfile
import qmspace, qmspace.cli
from qmspace import cli, core, ghdist, transport
ghdist.nx.maximum_flow_value, transport.linprog, core.dijkstra
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "funk.json")
    assert cli.main(["gen", "funk", "--dim", "2", "--grid", "0.3",
                     "--clip-r", "1", "-o", path]) == 0
    assert cli.main(["gen", "randers-torus", "--grid", "1.0",
                     "-o", os.path.join(tmp, "torus.json")]) == 0
    with open(path) as fh:
        other = json.load(fh)
    other["weights"] = other["weights"][::-1]
    with open(os.path.join(tmp, "reversed.json"), "w") as fh:
        json.dump(other, fh)
    torus = os.path.join(tmp, "torus.json")
    for argv in (["validate", path], ["report", path],
                 ["dist", "gh", path, path, "--theta", "6"],
                 ["dist", "hausdorff", path, "--set-a", "0", "--set-b", "1"],
                 ["dist", "prokhorov", path, os.path.join(tmp, "reversed.json")],
                 ["dist", "ghp", torus, torus, "--theta", "3"]):
        assert cli.main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("scipy", "networkx"))))
"""


def test_import_and_numpy_only_commands_load_neither_scipy_nor_networkx():
    # dist prokhorov and dist ghp solve their maximum flows with numpy
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out.splitlines()[-1]) == []


LP_CHILD = """
import json, os, sys, tempfile
from qmspace import cli
with tempfile.TemporaryDirectory() as tmp:
    line, prob = os.path.join(tmp, "line.json"), os.path.join(tmp, "prob.json")
    assert cli.main(["gen", "gaussian-line", "--K", "1", "--half-width", "2",
                     "--grid", "0.25", "-o", line]) == 0
    with open(prob, "w") as fh:
        json.dump({"dist": [[0, 1, 2], [1.5, 0, 1], [2, 1, 0]],
                   "mu": [0.5, 0.3, 0.2], "nu": [0.2, 0.3, 0.5], "p": 2}, fh)
    argv = {"w": ["dist", "w", prob],
            "ineq": ["ineq", line, "--K", "1", "--log-sobolev", "--poincare",
                     "--hwi"],
            "cd-check": ["cd-check", line, "--K", "0"]}[sys.argv[1]]
    assert cli.main(argv + ["-o", os.path.join(tmp, "out.json")]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def _scipy_modules_after(command):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", LP_CHILD, command], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_lp_commands_load_only_the_highs_extension():
    for command in ("w", "ineq"):
        loaded = _scipy_modules_after(command)
        assert loaded
        assert all(m.startswith(transport.HIGHS_MODULE) for m in loaded), loaded


def test_cd_check_loads_no_scipy_optimize_package():
    loaded = _scipy_modules_after("cd-check")
    assert transport.HIGHS_MODULE in loaded
    assert [m for m in loaded if m.startswith("scipy.optimize")
            and not m.startswith(transport.HIGHS_MODULE)] == []


ORDER_CHILD = """
import sys
import numpy as np
from qmspace import QuasiMetricSpace, TransportProblem, transport, wasserstein

def solve():
    d = np.array([[0.0, 1.0, 2.0], [1.5, 0.0, 1.0], [2.0, 1.0, 0.0]])
    value, _ = wasserstein(TransportProblem(QuasiMetricSpace(d),
                                            [0.5, 0.3, 0.2], [0.2, 0.3, 0.5]))
    assert abs(value - 0.6) < 1e-12, value

if sys.argv[1] == "solve-first":
    solve()
import scipy.optimize
from scipy.optimize._highspy import _core, _highs_wrapper
if sys.argv[1] != "solve-first":
    solve()
assert transport._highs() is _core is _highs_wrapper._h
assert sys.modules[transport.HIGHS_MODULE] is _core
res = scipy.optimize.linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0],
                             method="highs")
assert res.success and res.fun == 1.0, res
print("ok")
"""


def test_highs_extension_is_one_module_in_either_import_order():
    env = dict(os.environ, PYTHONPATH=SRC)
    for order in ("solve-first", "scipy-first"):
        out = subprocess.run([sys.executable, "-c", ORDER_CHILD, order],
                             env=env, check=True, capture_output=True,
                             text=True).stdout
        assert out.split() == ["ok"]


def _counted(calls, key, fn):
    def wrapper(*args, **kwargs):
        calls[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def test_solvers_call_through_the_module_attributes(monkeypatch):
    calls = collections.Counter()
    monkeypatch.setattr(transport, "linprog",
                        _counted(calls, "linprog", transport.linprog))
    monkeypatch.setattr(transport, "dijkstra",
                        _counted(calls, "transport.dijkstra", transport.dijkstra))
    monkeypatch.setattr(core, "dijkstra",
                        _counted(calls, "core.dijkstra", core.dijkstra))
    monkeypatch.setattr(ghdist, "_max_flow",
                        _counted(calls, "_max_flow", ghdist._max_flow))

    x = np.arange(6.0)
    gap = x[None, :] - x[:, None]
    space = QuasiMetricSpace(np.where(gap > 0, gap, -2.0 * gap))  # leftward x2
    mu = np.array([0.4, 0.3, 0.2, 0.1, 0.0, 0.0])
    nu = mu[::-1].copy()

    _, coupling = transport.wasserstein(TransportProblem(space, mu, nu, 2.0))
    assert calls["linprog"] == 1
    core.induced_length_metric(space, 2.5)
    assert calls["core.dijkstra"] == 1
    transport.dynamical_plan(space, coupling)
    assert calls["transport.dijkstra"] == 1
    ghdist.prokhorov(space, mu, nu)
    assert calls["_max_flow"] > 0
