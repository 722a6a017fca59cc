"""Finite quasi-metric measure spaces with asymmetric distances.

Tools for validating asymmetric distance matrices, generating model
Finsler-type quasi-metrics (Funk ball, Randers torus/ball), comparing
spaces via Hausdorff / Prokhorov / Gromov-Hausdorff-style brackets,
solving exact optimal transport with asymmetric costs, and numerically
checking displacement-convexity (curvature-dimension) conditions and
their geometric/functional consequences on finite discretizations.

Each public name is listed once, in the ``__all__`` of the module that
defines it: ``core`` (spaces and their geometry), ``models`` (sampled
model spaces), ``ghdist`` (Hausdorff, Prokhorov and GH brackets),
``transport`` (W_p, plans and interpolation) and ``curvature``
(curvature-dimension checks and inequalities).  The package re-exports
all of them, and the five modules.
"""

from .core import *
from .models import *
from .ghdist import *
from .transport import *
from .curvature import *

__all__ = [name for name in dir() if not name.startswith("_")]
