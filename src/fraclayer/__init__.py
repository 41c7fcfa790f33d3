"""Numerical laboratory for heteroclinic layers of the 1-D fractional
Allen-Cahn equation with degenerate double-well potentials.

Submodules:
  panels         the Gauss-Legendre panel rule behind every integral
  kernels        admissible interaction kernels and exact kernel integrals
  profiles       evaluable profiles with derivative and far-field metadata
  quadrature     principal-value evaluation of the nonlocal operator
  gridop         discrete operator on uniform grids with exterior models
  potentials     degenerate/oscillatory double wells and their contracts
  barriers       step and tail barriers with sign/asymptotics checks
  construction   the explicit optimal-decay layer profile
  verify_construction  machine checks of the construction's inequalities
  reconstruct    potential reconstruction from the profile and shape checks
  solver         energy descent for truncated heteroclinics
  analysis       decay fitting, envelopes, finite-difference oracles
  cli            config-driven batch runner
"""

__version__ = "0.1.0"

from .errors import *  # noqa: F401,F403
from .kernels import KernelSpec, fractional_kernel, perturbed_kernel, symbol_constant
from .profiles import OscillatoryTail, PowerTail, ProfileFn
from .quadrature import OpValue, QuadConfig, eval_lk

__all__ = [
    "KernelSpec", "fractional_kernel", "perturbed_kernel", "symbol_constant",
    "ProfileFn", "PowerTail", "OscillatoryTail",
    "QuadConfig", "OpValue", "eval_lk", "__version__",
]
