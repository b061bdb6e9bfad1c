"""Structure-preserving exponential time differencing Runge-Kutta solvers
for the 2D Allen-Cahn equation with homogeneous Neumann boundary conditions.

The package provides arbitrary-order ETDRK cascades with an optional
pointwise rescaling post-process that preserves the maximum bound for any
time step, cosine-spectral application of the stabilized operator, original
energy monitoring, and the singular-value step-bound calculator, plus a CLI
experiment harness.
"""

from .grid import Field, Mesh2D, discrete_energy, l2_norm, max_norm
from .phi import phi, phi_batch
from .potentials import FloryHuggins, GinzburgLandau, compute_beta, compute_kappa_min
from .scheme import NodeSet, SchemeSpec, Vandermonde, make_nodes, make_scheme, sigma_min, tau_max
from .spectral import SpectralPlan, apply_phi
from .stepper import (
    BoundExceeded,
    NumericalBlowup,
    StepContext,
    StepFailure,
    evaluate_stage,
    polynomial_abs_max,
    rescale_factor,
    step,
)
from .diagnostics import RunReport, StepDiagnostics, record, write_csv

__version__ = "0.1.0"

__all__ = [
    "Field", "Mesh2D", "discrete_energy", "l2_norm", "max_norm",
    "phi", "phi_batch",
    "FloryHuggins", "GinzburgLandau", "compute_beta", "compute_kappa_min",
    "NodeSet", "SchemeSpec", "Vandermonde", "make_nodes", "make_scheme", "sigma_min", "tau_max",
    "SpectralPlan", "apply_phi",
    "BoundExceeded", "NumericalBlowup", "StepContext", "StepFailure",
    "evaluate_stage", "polynomial_abs_max", "rescale_factor", "step",
    "RunReport", "StepDiagnostics", "record", "write_csv",
    "__version__",
]
