"""Two-species competition with nonlocal dispersal and moving invasion fronts.

Subpackage map:
  kernels     dispersal kernels, validation, quadrature stencils
  eigenvalue  principal eigenvalue of the dispersal operator on an interval
  dynamics    parameter records (reduced and general form) and the
              spatially homogeneous system: equilibria, classification,
              plateau level
  simulator   the coupled free-boundary field solver
  diagnostics regime detection, consistency checks, their tolerance record
  config      scenario configuration (sectioned key=value text)
  runner      scenario execution and parameter sweeps
  output      owner of every file format: tables, JSON reports, SVG plots
  errors      the exception types shared across the package
  cli         command-line entry points
"""

from .kernels import KernelSpec, ValidatedKernel, validate_kernel

__all__ = ["KernelSpec", "ValidatedKernel", "validate_kernel"]
__version__ = "0.1.0"
