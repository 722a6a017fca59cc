"""scipy and networkx are imported on first use, and every call into them
resolves through a module-level name that a caller can replace."""

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
    for argv in (["validate", path], ["report", path],
                 ["dist", "gh", path, path, "--theta", "6"],
                 ["dist", "hausdorff", path, "--set-a", "0", "--set-b", "1"]):
        assert cli.main(argv) == 0
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("scipy", "networkx"))))
"""


def test_import_and_numpy_only_commands_load_neither_scipy_nor_networkx():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out.splitlines()[-1]) == []


class _CountingModule:
    """A module whose function calls are counted by name."""

    def __init__(self, module, calls):
        self._module = module
        self._calls = calls

    def __getattr__(self, name):
        return _counted(self._calls, name, getattr(self._module, name))


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
    monkeypatch.setattr(ghdist, "nx", _CountingModule(ghdist.nx, calls))

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
    assert calls["maximum_flow_value"] > 0
