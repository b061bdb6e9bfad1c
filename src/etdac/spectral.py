"""Cosine-basis diagonalization of the stabilized operator L = eps^2 Lap_h - kappa I.

On a cell-centered mesh the central-difference Laplacian with homogeneous
Neumann boundary conditions is exactly diagonal in the tensor DCT-II basis:
the one-dimensional eigenvalues are mu_i = -(4/h^2) sin^2(i pi / (2n)).
Orthonormal transform scaling is used throughout, so the forward transform
is an isometry in the h-weighted L2 norm and operator functions act as
pointwise multiplications on the coefficients.  The stepper transforms
inline; apply_phi is the one-shot reference form of the same operation.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.fft

from .grid import Field, Mesh2D
from .phi import phi_batch

__all__ = ["SpectralPlan", "apply_phi"]


class SpectralPlan:
    """Immutable eigendecomposition data for L = eps^2 Lap_h - kappa I.

    eigvals[j, i] = eps^2 (mu_x[i] + mu_y[j]) - kappa, all <= -kappa < 0;
    the constant mode (0, 0) sits exactly at -kappa.  The plan stores the
    sorted distinct eigenvalues, values, and an (ny, nx) int32 index with
    values[index] == eigvals, so that an elementwise function of the
    spectrum is evaluated once per distinct value: about half the cells
    on a square mesh, where eigvals is symmetric.
    """

    def __init__(self, mesh: Mesh2D, eps: float, kappa: float):
        if not (0.0 < eps < math.inf and 0.0 < kappa < math.inf):
            raise ValueError("eps and kappa must be finite and positive")
        self.mesh = mesh
        self.eps = float(eps)
        self.kappa = float(kappa)
        mux = -(4.0 / mesh.hx**2) * np.sin(np.arange(mesh.nx) * np.pi / (2 * mesh.nx)) ** 2
        muy = -(4.0 / mesh.hy**2) * np.sin(np.arange(mesh.ny) * np.pi / (2 * mesh.ny)) ** 2
        # the last cell's eigenvalue is the largest in magnitude, so this is
        # the whole spectrum's check, made before the grid is allocated
        if not math.isfinite(eps * eps * (mux[-1] + muy[-1]) - kappa):
            raise ValueError(f"eps={eps:g} gives a spectrum that is not finite on this mesh")
        eigvals = eps * eps * (mux[None, :] + muy[:, None]) - kappa
        self.values, index = np.unique(eigvals, return_inverse=True)
        self.index = index.reshape(eigvals.shape).astype(np.int32)
        self.values.flags.writeable = False
        self.index.flags.writeable = False

    @property
    def eigvals(self) -> np.ndarray:
        """The (ny, nx) eigenvalue grid, gathered anew on each access."""
        return self.values[self.index]


def apply_phi(plan: SpectralPlan, j: int, s: float, v: Field) -> Field:
    """phi_j(s L) v; j=0 gives the semigroup e^{sL} as the step forms it, v + s phi_1(sL)(L v)."""
    if s <= 0:
        raise ValueError("s must be positive")
    if v.mesh != plan.mesh:
        raise ValueError("field mesh does not match the plan's mesh")
    coeffs = scipy.fft.dctn(v.grid(), type=2, norm="ortho")
    if j == 0:
        coeffs *= plan.eigvals
    coeffs *= phi_batch(j or 1, s * plan.eigvals) * (s if j == 0 else 1.0)
    vals = scipy.fft.idctn(coeffs, type=2, norm="ortho").reshape(plan.mesh.ncells)
    return Field(plan.mesh, vals + v.values if j == 0 else vals)
