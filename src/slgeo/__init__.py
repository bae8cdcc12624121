"""Numerical special Lagrangian geometry on C^m and flat-torus Calabi-Yau
model problems.

Modules (each is imported on first use, so a command loads only what it runs):

  core        flat Calabi-Yau package, calibration and SL plane tests,
              moment maps of subgroups of SU(m) x C^m
  graphs      the special Lagrangian graph equation Im det(I + i Hess f)
  gridio      masked 2D grid fields and their CSV format
  u1          the U(1)-invariant Dirichlet potential solver and its lift
              to SL 3-folds of C^3
  fibrations  SL fibrations: Dirichlet families, the explicit piecewise-
              smooth map, the T^2-cone fibration
  families    closed-form model families, asymptotic-cone decay, the
              Legendrian index, complete-intersection moduli dimensions
  calabi      the Monge-Ampere continuity method on flat tori (m = 1, 2)
  evolution   surface evolution sweeping SL 3-folds, SO(3) cross-check
  cli         deterministic JSON-report command line
"""

import importlib

__version__ = "0.1.0"

__all__ = ["calabi", "cli", "core", "evolution", "families", "fibrations",
           "graphs", "gridio", "u1", "__version__"]


def __getattr__(name):
    # PEP 562; an eagerly loaded cli would make ``python -m slgeo.cli`` warn
    if name in __all__:
        return importlib.import_module("." + name, __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
