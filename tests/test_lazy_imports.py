"""scipy is imported on first use and networkx not at all, each CLI
command loads only the qmspace modules it runs, and every solver call
resolves through a module-level name that a caller can replace."""

import collections
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qmspace
from qmspace import cli, core, ghdist, transport
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


COMMAND_CHILD = """
import json, sys
import qmspace
if len(sys.argv) > 1:
    import qmspace.cli
    assert qmspace.cli.main(sys.argv[1:]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("qmspace."))))
"""


def _qmspace_modules_after(*argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", COMMAND_CHILD, *argv],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    return [m.split(".")[1] for m in json.loads(out.splitlines()[-1])]


def test_import_alone_loads_no_module():
    assert _qmspace_modules_after() == []


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("inputs")
    paths = {k: str(tmp / f"{k}.json")
             for k in ("funk", "line", "reversed", "skewed", "prob", "cg",
                       "out")}
    assert cli.main(["gen", "funk", "--dim", "2", "--grid", "0.5",
                     "--clip-r", "1", "-o", paths["funk"]]) == 0
    assert cli.main(["gen", "gaussian-line", "--K", "1", "--half-width", "2",
                     "--grid", "0.5", "-o", paths["line"]]) == 0
    with open(paths["funk"]) as fh:
        funk = json.load(fh)
    with open(paths["reversed"], "w") as fh:
        json.dump(dict(funk, weights=funk["weights"][::-1]), fh)
    with open(paths["skewed"], "w") as fh:
        n = len(funk["weights"])
        json.dump(dict(funk, weights=[(k + 1) / n for k in range(n)]), fh)
    with open(paths["prob"], "w") as fh:
        json.dump({"dist": [[0, 2, 1], [1, 0, 2], [2, 1, 0]],
                   "mu": [0.5, 0.3, 0.2], "nu": [0.2, 0.3, 0.5], "p": 2}, fh)
    # distinct costs in [1, 2): a quasi-metric whose LP column generation
    # solves
    rng = np.random.default_rng(5)
    dist = 1.0 + rng.random((6, 6))
    np.fill_diagonal(dist, 0.0)
    with open(paths["cg"], "w") as fh:
        json.dump({"dist": dist.tolist(), "mu": [0.3, 0.1, 0.2, 0.1, 0.2, 0.1],
                   "nu": [0.1, 0.2, 0.1, 0.3, 0.1, 0.2], "p": 1}, fh)
    return paths


#: each command's arguments (an output file is added) and the layers it
#: loads besides core, io and cli
COMMANDS = {
    "gen": (["gen", "gaussian-line", "--grid", "0.5"], ["models"]),
    "validate": (["validate", "{funk}"], []),
    "report": (["report", "{funk}"], []),
    "dist-gh": (["dist", "gh", "{funk}", "{funk}", "--theta", "6"],
                ["ghdist"]),
    "dist-ghp": (["dist", "ghp", "{funk}", "{funk}", "--theta", "6"],
                 ["ghdist"]),
    "dist-prokhorov": (["dist", "prokhorov", "{funk}", "{reversed}"],
                       ["ghdist"]),
    "dist-hausdorff": (["dist", "hausdorff", "{funk}", "--set-a", "0",
                        "--set-b", "1"], ["ghdist"]),
    "dist-w": (["dist", "w", "{prob}"], ["transport"]),
    "cd-check": (["cd-check", "{line}", "--K", "0"],
                 ["transport", "curvature"]),
    "ineq": (["ineq", "{line}", "--K", "1", "--hwi"],
             ["transport", "curvature"]),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_loads_only_its_layers(inputs, command):
    argv, layers = COMMANDS[command]
    argv = [a.format(**inputs) for a in argv] + ["-o", inputs["out"]]
    assert sorted(_qmspace_modules_after(*argv)) == sorted(
        ["core", "io", "cli", *layers])


NUMPY_CHILD = """
import json, sys
import qmspace.cli
assert qmspace.cli.main(sys.argv[1:]) == 0
print(json.dumps([m for m in ("numpy.ma", "numpy.random") if m in sys.modules]))
"""

#: commands that load neither numpy.ma (numpy 2.4's np.unique and the set
#: routines built on it import it first) nor numpy.random, but where they
#: draw from a seed: ineq draws its test density
NUMPY_COMMANDS = {
    "dist-prokhorov": (["dist", "prokhorov", "{funk}", "{skewed}"], []),
    "dist-ghp": (["dist", "ghp", "{funk}", "{funk}", "--theta", "6"], []),
    "dist-hausdorff": (["dist", "hausdorff", "{funk}", "--set-a", "0",
                        "--set-b", "1"], []),
    "dist-w": (["dist", "w", "{cg}"], []),
    "ineq": (["ineq", "{line}", "--K", "1", "--hwi"], ["numpy.random"]),
    "gen-radial-shells-dim-2": (["gen", "funk", "--dim", "2", "--strategy",
                                 "radial-shells", "--count", "30"], []),
}


@pytest.mark.parametrize("command", NUMPY_COMMANDS)
def test_numpy_submodules_each_command_loads(inputs, command):
    argv, loaded = NUMPY_COMMANDS[command]
    argv = [a.format(**inputs) for a in argv] + ["-o", inputs["out"]]
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", NUMPY_CHILD, *argv], env=env,
                         check=True, capture_output=True, text=True).stdout
    assert json.loads(out.splitlines()[-1]) == loaded


LP_CHILD = """
import json, os, sys, tempfile
from qmspace import cli
with tempfile.TemporaryDirectory() as tmp:
    line, prob = os.path.join(tmp, "line.json"), os.path.join(tmp, "prob.json")
    funk = os.path.join(tmp, "funk.json")
    assert cli.main(["gen", "gaussian-line", "--K", "1", "--half-width", "2",
                     "--grid", "0.25", "-o", line]) == 0
    assert cli.main(["gen", "funk", "--dim", "2", "--grid", "0.3",
                     "--clip-r", "1", "-o", funk]) == 0
    # a cyclic cost: not Monge, so the LP goes to HiGHS
    with open(prob, "w") as fh:
        json.dump({"dist": [[0, 2, 1], [1, 0, 2], [2, 1, 0]],
                   "mu": [0.5, 0.3, 0.2], "nu": [0.2, 0.3, 0.5], "p": 2}, fh)
    argv = {"w": ["dist", "w", prob],
            "ineq": ["ineq", line, "--K", "1", "--log-sobolev", "--poincare",
                     "--hwi"],
            "cd-check": ["cd-check", line, "--K", "0"],
            "cd-check-funk": ["cd-check", funk, "--K", "0"]}[sys.argv[1]]
    assert cli.main(argv + ["-o", os.path.join(tmp, "out.json")]) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def _scipy_modules_after(command):
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", LP_CHILD, command], env=env,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def test_lp_commands_load_only_the_highs_extension():
    # a cost that is not strictly Monge goes to HiGHS
    loaded = _scipy_modules_after("w")
    assert transport.HIGHS_MODULE in loaded
    assert all(m.startswith(transport.HIGHS_MODULE) for m in loaded), loaded


def test_cd_check_loads_no_scipy_optimize_package():
    # its chains come from core.dijkstra, in numpy: no scipy.sparse either
    loaded = _scipy_modules_after("cd-check-funk")
    assert transport.HIGHS_MODULE in loaded
    assert all(m.startswith(transport.HIGHS_MODULE) for m in loaded), loaded


def test_line_commands_load_no_scipy():
    # |x - y|^2 on sorted points is strictly Monge: every LP of these
    # commands is solved in closed form, without HiGHS
    for command in ("ineq", "cd-check"):
        assert _scipy_modules_after(command) == []


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

    # points out of order along the line, so the cost is not Monge in
    # index order and the LP goes to linprog
    x = np.array([0.0, 3.0, 1.0, 4.0, 2.0, 5.0])
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
