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
all of them, and the five modules, but ``import qmspace`` loads none
of them: a name loads its module (and those listed before it) on first
access, and ``qmspace.X`` reads the defining module's attribute each
time, so a patched ``transport.wasserstein`` shows as
``qmspace.wasserstein``.
"""

import importlib

_LAYERS = ("core", "models", "ghdist", "transport", "curvature")


def __getattr__(name):
    if name in _LAYERS:
        return importlib.import_module(f"{__name__}.{name}")
    if name == "__all__":
        return sorted([*_LAYERS, *(n for m in _LAYERS
                                   for n in __getattr__(m).__all__)])
    for layer in _LAYERS:
        module = __getattr__(layer)
        if name in module.__all__:
            return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__getattr__("__all__")})
