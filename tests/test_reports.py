"""Every check returns a FunctionalReport whose ``passed`` follows one rule
from its own fields, with its tolerance from one table; the benchmark's
referee states the same rule and must agree with it on every kind."""

import importlib.util
import math
import os

import numpy as np
import pytest

from conftest import BAD4, smooth_density_pair
from qmspace import (
    QuasiMetricSpace,
    TransportProblem,
    asymmetry_bound_check,
    bishop_gromov_profile,
    brunn_minkowski_check,
    cd_check,
    dcn_membership,
    dynamical_plan,
    entropy_nonlinearity,
    functional_inequality_suite,
    gaussian_line,
    geodesy_check,
    interpolate,
    un_nonlinearity,
    validate,
    wasserstein,
)
from qmspace.core import FunctionalReport

INF = math.inf
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))



@pytest.fixture(scope="module")
def referee():
    """perfbench/checks.py, loaded from its file: the benchmark's referee."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_checks", os.path.join(ROOT, "perfbench", "checks.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _line(pitch=0.25):
    """The Gaussian line on [-1, 1]; at pitch 0.25 it has 9 points and
    sampling pitch 0.25 exactly."""
    return gaussian_line(1.0, 1.0, pitch)


def _geodesy(_):
    ms = _line()
    mu0, mu1 = smooth_density_pair(ms, 3)
    _, coupling = wasserstein(TransportProblem(ms.space, mu0, mu1, 2.0))
    interp = interpolate(dynamical_plan(ms.space, coupling), [0.0, 0.5, 1.0])
    return [geodesy_check(ms.space, interp)]


def _suite(args):
    """The inequality suite at (K, N), or (K, N, pitch)."""
    ms = _line(*args[2:])
    mu, _ = smooth_density_pair(ms, 5)
    f = np.random.default_rng(5).standard_normal(ms.n)
    return functional_inequality_suite(ms, *args[:2], mu=mu, f=f)


#: report kind -> a function of one parameter making reports of that kind
#: (among others); the first parameter gives reports that pass
MAKERS = {
    "validate": lambda bad: [validate(QuasiMetricSpace(
        BAD4 if bad else np.abs(np.subtract.outer(range(4), range(4)))))],
    "dcn_membership": lambda N: [dcn_membership(
        un_nonlinearity(2.0), N, np.geomspace(1e-6, 100.0, 50))],
    "asymmetry_bound": lambda theta: [asymmetry_bound_check(
        _line(), *smooth_density_pair(_line(), 1), 2.0, 1.0,
        lambda r: theta)],
    "geodesy": _geodesy,
    "cd": lambda K: cd_check(_line(), *smooth_density_pair(_line(), 2), K,
                             INF, entropy_nonlinearity(), [0.25, 0.5]),
    "brunn_minkowski": lambda K: [brunn_minkowski_check(
        _line(), [0, 1], [7, 8], 0.5, K, INF)],
    "bishop_gromov": lambda K: [bishop_gromov_profile(
        _line(), 4, K, 2.0, [0.3, 0.6, 0.9])],
    "diameter": _suite,
    "hwi": _suite,
    "log_sobolev": _suite,
    "poincare": _suite,
    "lichnerowicz": _suite,
}

#: report kind -> (parameter, its report's tolerance, passed); tolerances
#: of 5 and 3 pitches, 3 pitches times the diameter bound pi, and the
#: constants
PINNED = {
    "validate": (False, 1e-6, True),
    "dcn_membership": (2.0, 1e-12, True),
    "asymmetry_bound": (1.0, 1e-9, True),
    "geodesy": (None, 0.75, True),
    "cd": (1.0, 1.25, True),
    "brunn_minkowski": (1.0, 1.25, True),
    "bishop_gromov": (0.0, 0.75, True),
    "diameter": ((1.0, 2.0), math.pi * 3.0 * 0.25, True),
    "hwi": ((1.0, INF), 1.25, True),
    "log_sobolev": ((1.0, INF), 0.1, True),
    "poincare": ((1.0, INF), 1.25, True),
    "lichnerowicz": ((1.0, 2.0), 1.25, True),
}

#: parameters that make each kind fail somewhere, for the referee test
FAILING = {
    "validate": True,
    "dcn_membership": 5.0,
    "asymmetry_bound": 0.01,
    "cd": 1000.0,
    "brunn_minkowski": 200.0,
    "diameter": (9.0, 2.0),
    "log_sobolev": (40.0, INF),
    "poincare": (1000.0, INF, 0.05),
    "lichnerowicz": (1000.0, INF, 0.05),
}


def _kind(report):
    return report.name.partition("[")[0]


def _of_kind(kind, param):
    reports = [r for r in MAKERS[kind](param) if _kind(r) == kind]
    assert reports, kind
    return reports


@pytest.mark.parametrize("kind", sorted(PINNED))
def test_each_kind_pins_its_tolerance_and_verdict(kind):
    param, tolerance, passed = PINNED[kind]
    for rep in _of_kind(kind, param):
        assert isinstance(rep, FunctionalReport)
        assert rep.tolerance == tolerance
        assert rep.passed is passed


@pytest.mark.parametrize("kind", sorted(FAILING))
def test_failing_parameters_fail(kind):
    assert not all(r.passed for r in _of_kind(kind, FAILING[kind]))


@pytest.mark.parametrize("kind", sorted(MAKERS))
def test_the_referee_agrees_with_passed(kind, referee):
    passes = referee._passes
    params = [PINNED[kind][0]] + ([FAILING[kind]] if kind in FAILING else [])
    for param in params:
        for rep in _of_kind(kind, param):
            assert rep.passed is passes(rep.name, rep.lhs, rep.rhs, rep.slack,
                                        rep.tolerance), rep
