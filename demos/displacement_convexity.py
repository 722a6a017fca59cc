"""Entropy along displacement interpolation, and what curvature buys.

On a flat grid the entropy is convex along W2 geodesics (that is the
K = 0 statement).  On a discretized Gaussian the same computation with
K = 1 distortion coefficients still certifies, and the standard
functional inequalities follow at the matching constants.
"""

import numpy as np

from qmspace import (
    TransportProblem,
    cd_check,
    dynamical_plan,
    entropy_nonlinearity,
    functional_inequality_suite,
    gaussian_line,
    geodesy_check,
    interpolate,
    wasserstein,
)
from qmspace import MeasuredSpace, QuasiMetricSpace

h = 0.05
xs = np.arange(0.0, 1.0 + 1e-12, h)
space = QuasiMetricSpace(np.abs(xs[:, None] - xs[None, :]),
                         coords=xs[:, None])
ms = MeasuredSpace(space, np.full(len(xs), 1.0 / len(xs)), basepoint=0)

rng = np.random.default_rng(3)
mu0 = np.exp(-((xs - 0.25) / 0.2) ** 2)
mu1 = np.exp(-((xs - 0.75) / 0.2) ** 2)
mu0 /= mu0.sum()
mu1 /= mu1.sum()

_, coupling = wasserstein(TransportProblem(space, mu0, mu1, p=2.0))
plan = dynamical_plan(space, coupling)
interp = interpolate(plan, [0.0, 0.25, 0.5, 0.75, 1.0])
rep = geodesy_check(space, interp, p=2.0)
print("interpolation is geodesic up to the grid scale:")
print(f"  residual = {rep.details['abs_residual']:.4f}  (pitch {h})")
print()

print("entropy convexity along the interpolation (K = 0):")
for r in cd_check(ms, mu0, mu1, K=0.0, N=np.inf, U=entropy_nonlinearity(),
                  ts=(0.25, 0.5, 0.75)):
    print(f"  t = {r.details['t']:.2f}  slack = {r.slack:+.4f}  "
          f"passed = {r.passed}")
print()

gauss = gaussian_line(K=1.0, half_width=2.5, pitch=0.1)
g = gauss.space.coords[:, 0]
f = np.sin(g) + 0.3 * g
rho = np.exp(-0.5 * (g - 0.4) ** 2)
rho = rho / rho.sum()
print("Gaussian line, K = 1: functional inequalities")
for r in functional_inequality_suite(gauss, K=1.0, N=np.inf,
                                     mu=rho, f=f):
    print(f"  {r.name:24s} lhs = {r.lhs:8.4f}  rhs = {r.rhs:8.4f}  "
          f"passed = {r.passed}")
